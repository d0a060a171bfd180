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

# One row per series, in legend order: its name, its colour and a level
# row's value (None when the row has none).  A new series is one row.
SERIES = (
    ("lemma bound", "#1f77b4", lambda row: row.lemma_bound),
    ("best h upper bound", "#d62728", lambda row: row.cheeger_value),
    (
        "exact h",
        "#2ca02c",
        lambda row: row.cheeger_value if row.cheeger_certified == EXACT else None,
    ),
    ("lambda1 (combinatorial)", "#9467bd", lambda row: row.lambda1_combinatorial),
)


def _series_points(report: TowerReport) -> list[list[tuple[int, float]]]:
    """Each series' (level, value) points, one per row whose value is positive."""
    return [
        [(r.level, v) for r in report.levels if (v := float(value(r) or 0)) > 0]
        for _, _, value in SERIES
    ]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _text(x, y, size, body, anchor: str | None = None) -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{anchor} font-family="monospace" font-size="{size}">{body}</text>'


def _line(x1, y1, x2, y2, stroke: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="1"/>'


def tower_svg(report: TowerReport) -> str:
    series = _series_points(report)
    values = [y for pts in series for _, y in pts]
    levels = [row.level for row in report.levels]
    x_min, x_max = 0, max(levels) if levels else 1
    if x_max == x_min:
        x_max = x_min + 1

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    right, bottom = WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM

    def x_pos(level: int) -> float:
        return MARGIN_LEFT + plot_w * (level - x_min) / (x_max - x_min)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(MARGIN_LEFT, 22, 14, f"expansion decay: seed {_escape(report.seed_description)}"),
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
            lines.append(_line(MARGIN_LEFT, _fmt(y), right, _fmt(y), "#dddddd"))
            lines.append(_text(MARGIN_LEFT - 8, _fmt(y + 4), 11, f"1e{decade}", "end"))
        for level in range(x_min, x_max + 1):
            lines.append(_text(_fmt(x_pos(level)), bottom + 18, 11, level, "middle"))
        for (_, color, _), pts in zip(SERIES, series):
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
        lines.append(_text(WIDTH // 2, HEIGHT // 2, 13, "no plottable values", "middle"))

    for i, (name, color, _) in enumerate(SERIES):
        legend_y = MARGIN_TOP + 4 + 16 * i
        lines.append(
            f'<rect x="{WIDTH - 230}" y="{legend_y - 9}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        lines.append(_text(WIDTH - 215, legend_y, 11, _escape(name)))

    lines.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, bottom, "black"))
    lines.append(_line(MARGIN_LEFT, bottom, right, bottom, "black"))
    lines.append(_text((MARGIN_LEFT + right) // 2, HEIGHT - 8, 12, "level", "middle"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
