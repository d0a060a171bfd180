"""SVG decay-plot emission."""
from __future__ import annotations

import re

from covertower import iterate_tower
from covertower.svgplot import tower_svg

from conftest import cycle, figure8


def test_figure8_plot_has_all_series_and_axes():
    report = iterate_tower(figure8(), 2, 10**6, seed_description="figure8")
    svg = tower_svg(report)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    for label in ("lemma bound", "best h upper bound", "exact h", "lambda1"):
        assert label in svg
    assert "1e0" in svg  # log-axis decade tick
    assert "polyline" in svg


def test_seed_only_report_degrades_gracefully():
    report = iterate_tower(figure8(), 0, 10**6, seed_description="figure8")
    svg = tower_svg(report)
    assert "no plottable values" in svg
    assert "polyline" not in svg


def test_emission_is_deterministic():
    report = iterate_tower(figure8(), 2, 10**6, seed_description="figure8")
    assert tower_svg(report) == tower_svg(report)


def test_seed_label_escaped():
    report = iterate_tower(figure8(), 0, 10**6, seed_description="a<b&c")
    svg = tower_svg(report)
    assert "a&lt;b&amp;c" in svg


def test_single_value_axis_spans_one_decade():
    # Only h = 1 is plotted (spectrum_cap=1 skips lambda1), so log_min ==
    # log_max and the axis is widened to the decade above.
    svg = tower_svg(iterate_tower(cycle(4), 0, spectrum_cap=1))
    assert re.findall(r">(1e-?\d+)</text>", svg) == ["1e0", "1e1"]
