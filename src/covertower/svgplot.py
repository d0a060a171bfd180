"""Minimal deterministic SVG emission for tower decay plots.

Levels on the x-axis; bound and gap series on a log-scale y-axis.  Direct
text emission with fixed formatting so identical reports yield identical
bytes; no plotting dependency.
"""
from __future__ import annotations

import math

from .cheeger import EXACT
from .tower import TowerReport

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 45

SERIES_STYLE = (
    ("lemma bound", "#1f77b4"),
    ("best h upper bound", "#d62728"),
    ("exact h", "#2ca02c"),
    ("lambda1 (combinatorial)", "#9467bd"),
)


def _series_points(report: TowerReport) -> list[list[tuple[int, float]]]:
    lemma, best, exact, lam = [], [], [], []
    for row in report.levels:
        if row.lemma_bound is not None and row.lemma_bound > 0:
            lemma.append((row.level, float(row.lemma_bound)))
        if row.cheeger_value is not None and row.cheeger_value > 0:
            best.append((row.level, float(row.cheeger_value)))
            if row.cheeger_certified == EXACT:
                exact.append((row.level, float(row.cheeger_value)))
        if row.lambda1_combinatorial is not None and row.lambda1_combinatorial > 0:
            lam.append((row.level, row.lambda1_combinatorial))
    return [lemma, best, exact, lam]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def tower_svg(report: TowerReport) -> str:
    series = _series_points(report)
    values = [y for pts in series for _, y in pts]
    levels = [row.level for row in report.levels]
    x_min, x_max = 0, max(levels) if levels else 1
    if x_max == x_min:
        x_max = x_min + 1

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x_pos(level: int) -> float:
        return MARGIN_LEFT + plot_w * (level - x_min) / (x_max - x_min)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_LEFT}" y="22" font-family="monospace" font-size="14">'
        f"expansion decay: seed {_escape(report.seed_description)}</text>",
    ]

    if values:
        log_min = math.floor(math.log10(min(values)))
        log_max = math.ceil(math.log10(max(values)))
        if log_max == log_min:
            log_max = log_min + 1

        def y_pos(value: float) -> float:
            t = (math.log10(value) - log_min) / (log_max - log_min)
            return MARGIN_TOP + plot_h * (1.0 - t)

        for decade in range(log_min, log_max + 1):
            y = y_pos(10.0**decade)
            lines.append(
                f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN_RIGHT}" '
                f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
            )
            lines.append(
                f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                f'font-family="monospace" font-size="11">1e{decade}</text>'
            )
        for level in range(x_min, x_max + 1):
            x = x_pos(level)
            lines.append(
                f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" text-anchor="middle" '
                f'font-family="monospace" font-size="11">{level}</text>'
            )
        for (name, color), pts in zip(SERIES_STYLE, series):
            if not pts:
                continue
            coords = " ".join(f"{_fmt(x_pos(l))},{_fmt(y_pos(v))}" for l, v in pts)
            if len(pts) > 1:
                lines.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" '
                    f'stroke-width="2"/>'
                )
            for l, v in pts:
                lines.append(
                    f'<circle cx="{_fmt(x_pos(l))}" cy="{_fmt(y_pos(v))}" r="3" '
                    f'fill="{color}"/>'
                )
    else:
        lines.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT // 2}" text-anchor="middle" '
            f'font-family="monospace" font-size="13">no plottable values</text>'
        )

    legend_y = MARGIN_TOP + 4
    for name, color in SERIES_STYLE:
        lines.append(
            f'<rect x="{WIDTH - 230}" y="{legend_y - 9}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        lines.append(
            f'<text x="{WIDTH - 215}" y="{legend_y}" font-family="monospace" '
            f'font-size="11">{_escape(name)}</text>'
        )
        legend_y += 16

    lines.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="black" stroke-width="1"/>'
    )
    lines.append(
        f'<line x1="{MARGIN_LEFT}" y1="{HEIGHT - MARGIN_BOTTOM}" '
        f'x2="{WIDTH - MARGIN_RIGHT}" y2="{HEIGHT - MARGIN_BOTTOM}" '
        f'stroke="black" stroke-width="1"/>'
    )
    lines.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2}" y="{HEIGHT - 8}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">level</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
