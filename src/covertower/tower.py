"""Iterated cover towers: construction loop, per-level analysis, reports.

Level 0 is the seed graph; level n+1 is homology_cover(level n), the
homology double cover over a fresh spanning tree, verified regular: every
command's cover step.  Counts multiply by 2^rank per level, so the loop
stops at the first level the step refuses as above the vertex cap and
records that level with predicted (exact big-integer) counts instead of
constructing it.  Every level is the CoveredGraph it is analysed as: the
seed is its own rank-0 cover, so all Laplacian spectra come from character
blocks (spectrum.laplacian_spectrum) and every level above the seed has its
fiber cut (cheeger.lemma_cut).  A rank-0 level is its own cover, so a tree
seed is analysed once and its row repeated; such a tower is limited to
MAX_TREE_LEVELS levels.  Each level is one TowerLevel row, whose fields are
the report's columns in order; a field the analysis cannot fill stays None.
Serialized artifacts are byte-identical across reruns, and both writers give
a row's counts in exact decimal at any size (count_texts).
"""
from __future__ import annotations

import dataclasses
import decimal
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import cheeger as cheeger_mod
from . import spectrum as spectrum_mod
from .covers import (
    DEFAULT_VERTEX_CAP, CoveredGraph, cover_vertices, verify_regular_cover, z2_cover
)
from .errors import DisconnectedGraphError, SizeCapError, ValidationError
from .multigraph import CoverSpec, MultiGraph, is_connected, spanning_tree

# A rank-0 tower never grows, so no vertex cap ends it; this bounds its rows.
MAX_TREE_LEVELS = 10_000


@dataclass(frozen=True)
class TowerLevel:
    """One row of a tower report: its fields, in order, are the report columns.

    The JSON and CSV writers read the fields by name (LEVEL_FIELDS), so a new
    column is one field here.  The analysis fields after lemma_bound default
    to None, which they keep when the analysis is infeasible.
    """

    level: int
    constructed: bool
    vertices: int
    edges: int
    rank: int
    lemma_bound: Fraction | None
    cheeger_value: Fraction | None = None
    cheeger_certified: str | None = None
    cheeger_method: str | None = None
    lambda1_combinatorial: float | None = None
    lambda1_normalized: float | None = None


@dataclass(frozen=True)
class TowerReport:
    seed_description: str
    levels_requested: int
    vertex_cap: int
    cheeger_cap: int
    spectrum_cap: int
    truncated_level: int | None
    levels: tuple[TowerLevel, ...]

    @property
    def truncated(self) -> bool:
        return self.truncated_level is not None


def iterate_tower(
    seed: MultiGraph,
    levels: int,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    *,
    cheeger_cap: int = cheeger_mod.DEFAULT_BRUTE_FORCE_CAP,
    spectrum_cap: int = spectrum_mod.DEFAULT_SPECTRUM_CAP,
    seed_description: str = "custom",
) -> TowerReport:
    """Build and analyze the tower over the seed graph.

    levels is the number of covering steps requested; the report gets one
    entry per realized level plus, when the cap bites, one truncated entry
    holding the predicted counts of the first unconstructible level.
    Every constructed level gets both lambda1 columns (combinatorial and
    normalized) when it fits the spectrum cap.
    """
    if levels < 0:
        raise ValidationError("levels must be nonnegative")
    if vertex_cap <= 0 or cheeger_cap <= 0 or spectrum_cap <= 0:
        raise ValidationError("caps must be positive")
    if cheeger_cap > cheeger_mod.MAX_BRUTE_FORCE_CAP:
        raise ValidationError(f"cheeger cap is above {cheeger_mod.MAX_BRUTE_FORCE_CAP} vertices")
    if seed.num_vertices > vertex_cap:
        raise SizeCapError(
            f"seed has {seed.num_vertices} vertices, above the cap {vertex_cap}"
        )
    if seed.num_vertices == 0 or not is_connected(seed):
        raise DisconnectedGraphError("tower seed must be a nonempty connected graph")
    if seed.num_edges - seed.num_vertices + 1 == 0 and levels > MAX_TREE_LEVELS:
        raise ValidationError(
            f"a rank-0 seed is its own cover; levels must be at most {MAX_TREE_LEVELS}"
        )

    cover = CoveredGraph(seed, seed, CoverSpec(()))
    rows = [_analyze_level(0, cover, cheeger_cap, spectrum_cap)]
    truncated_level: int | None = None

    # The seed is connected and the homology cover of a connected graph is
    # connected, so every level has rank #E - #V + 1.
    for level in range(1, levels + 1):
        g = cover.graph
        rank = g.num_edges - g.num_vertices + 1
        if rank == 0:
            rows.append(dataclasses.replace(rows[-1], level=level))
            continue
        try:
            cover = homology_cover(g, vertex_cap)
        except SizeCapError:
            vertices, edges = g.num_vertices << rank, g.num_edges << rank
            rows.append(TowerLevel(
                level=level, constructed=False, vertices=vertices, edges=edges,
                rank=edges - vertices + 1, lemma_bound=Fraction(2, g.num_vertices),
            ))
            truncated_level = level
            break
        rows.append(_analyze_level(level, cover, cheeger_cap, spectrum_cap))

    return TowerReport(
        seed_description=seed_description,
        levels_requested=levels,
        vertex_cap=vertex_cap,
        cheeger_cap=cheeger_cap,
        spectrum_cap=spectrum_cap,
        truncated_level=truncated_level,
        levels=tuple(rows),
    )


def homology_cover(g: MultiGraph, vertex_cap: int) -> CoveredGraph:
    """The homology cover of g, verified regular: the covering step of every command.

    #V * 2^(#E - #V + 1) counts the cover of a connected g and undercounts a
    disconnected one's, so a count above vertex_cap is refused, never wrongly, unwalked.
    """
    rank = g.num_edges - g.num_vertices + 1
    if rank > 0:
        cover_vertices(g.num_vertices, rank, vertex_cap)
    spec = spanning_tree(g)
    if spec.rank > rank:  # a forest of c trees leaves #E - #V + c cotree edges
        raise DisconnectedGraphError(f"the input graph has {spec.rank - rank + 1} components")
    cover = z2_cover(g, spec, vertex_cap=vertex_cap)
    failures = verify_regular_cover(cover).failures
    if failures:
        raise ValidationError(f"the cover is not regular: {failures[0]}")
    return cover


def _analyze_level(
    level: int, cover: CoveredGraph, cheeger_cap: int, spectrum_cap: int
) -> TowerLevel:
    """Analyze one constructed level, the cover's graph; it is connected, as every level is.

    The seed is its own rank-0 cover, and each level above is the cover of
    the level below along its cotree edges, so the spectra come from the
    base's character blocks: both kinds in one laplacian_spectrum call,
    which assembles the blocks once.  A rank-0 cover has no fiber cut, so
    only a level above the seed gets the lemma bound.
    """
    g, base, cotree = cover.graph, cover.base, cover.spec.cotree_edges
    lemma_bound = cheeger_mod.lemma_cut(cover).value if cover.rank else None
    columns: dict = {}
    sweep_basis = None
    if g.num_vertices <= spectrum_cap:
        # A connected level without edges is one bare vertex, which has no
        # normalized Laplacian (and no lambda1 of either kind).
        kinds = (spectrum_mod.COMBINATORIAL,)
        if g.num_edges:
            kinds += (spectrum_mod.NORMALIZED,)
        need_vectors = g.num_vertices > cheeger_cap
        spectra, sweep_basis = spectrum_mod.laplacian_spectrum(
            base, cotree, kinds, need_vectors, spectrum_cap
        )
        for column, w in zip(("lambda1_combinatorial", "lambda1_normalized"), spectra):
            columns[column] = spectrum_mod.lambda1_of(w)

    if 2 <= g.num_vertices <= cheeger_cap:
        result = cheeger_mod.exact_cheeger(g, max_vertices=cheeger_cap)
        columns.update(
            cheeger_value=result.value,
            cheeger_certified=result.certified,
            cheeger_method=result.method,
        )
    else:
        # Both are upper bounds: keep the smaller, and the lemma cut on a tie.
        bounds = []
        if lemma_bound is not None:
            bounds.append((lemma_bound, cheeger_mod.METHOD_LEMMA_CUT))
        if sweep_basis is not None:
            bounds.append((cheeger_mod.sweep_cut(g, sweep_basis).value, cheeger_mod.METHOD_SWEEP))
        if bounds:
            value, method = min(bounds, key=lambda bound: bound[0])
            columns.update(
                cheeger_value=value,
                cheeger_certified=cheeger_mod.UPPER_BOUND,
                cheeger_method=method,
            )

    return TowerLevel(
        level=level,
        constructed=True,
        vertices=g.num_vertices,
        edges=g.num_edges,
        rank=g.num_edges - g.num_vertices + 1,
        lemma_bound=lemma_bound,
        **columns,
    )


# -- serialization -----------------------------------------------------------

LEVEL_FIELDS = tuple(field.name for field in dataclasses.fields(TowerLevel))
_COUNT_FIELDS = ("vertices", "edges", "rank")
# The counts' shared power of two from which one decimal power beats str() on
# the three counts: 7.6 us by str() against 11.5 by decimal at 1,024 bits,
# 15.3 against 14.7 at 1,536 and 24.9 against 17.8 at 2,048 (timeit, best of
# 5, 2-core host).
_DECIMAL_MIN_SHIFT = 2048


def count_texts(vertices: int, edges: int, rank: int) -> tuple[str, str, str]:
    """``(str(vertices), str(edges), str(rank))``, from one decimal power of two.

    A truncated row's counts are n * 2^r and e * 2^r, thousands of digits
    long, and CPython converts an int to decimal in quadratic time.  When the
    counts share a factor 2^k with k >= _DECIMAL_MIN_SHIFT and rank is
    edges - vertices + 1, 2^k is computed once in decimal and the three texts
    follow from it in linear time.  The context's precision is the int-to-str
    digit limit and rounding is trapped, so a count longer than the limit
    falls back to str(), which raises the limit's own ValueError.  Nothing is
    kept between calls.
    """
    common = vertices | edges
    shift = (common & -common).bit_length() - 1
    if shift < _DECIMAL_MIN_SHIFT or rank != edges - vertices + 1:
        return str(vertices), str(edges), str(rank)
    # Python 3.10.0-3.10.6 have no digit limit and no get_int_max_str_digits.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    context = decimal.Context(
        prec=limit or decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact, decimal.Rounded],
    )
    try:
        power = context.power(2, shift)
        v = context.multiply(vertices >> shift, power)
        e = context.multiply(edges >> shift, power)
        r = context.add(context.subtract(e, v), 1)
    except (decimal.Inexact, decimal.Rounded):
        return str(vertices), str(edges), str(rank)
    return str(v), str(e), str(r)


def _field_texts(values: dict, text_of) -> list[str]:
    """text_of(value) for each field in order, the counts by count_texts when all are ints."""
    counts = [values.get(key) for key in _COUNT_FIELDS]
    if not all(type(count) is int for count in counts):
        return [text_of(value) for value in values.values()]
    exact = dict(zip(_COUNT_FIELDS, count_texts(*counts)))
    return [exact[key] if key in exact else text_of(value) for key, value in values.items()]


def _json_value(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return spectrum_mod.round_sig(value)
    raise TypeError(f"unexpected report value {value!r}")


def _json_scalar(value) -> str:
    """A scalar as json.dumps writes it, with ASCII escapes."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _json_object(keys, texts: list[str], indent: str) -> str:
    """An indented JSON object from its keys and value texts; indent is its members'."""
    members = [f"{indent}{encode_basestring_ascii(key)}: {text}" for key, text in zip(keys, texts)]
    return "{\n" + ",\n".join(members) + "\n" + indent[2:] + "}" if members else "{}"


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{spectrum_mod.SIGNIFICANT_DIGITS}g}"
    return str(value)


def report_to_json_dict(report: TowerReport) -> dict:
    levels = [
        {key: _json_value(getattr(row, key)) for key in LEVEL_FIELDS}
        for row in report.levels
    ]
    return {
        "schema": 1,
        "seed": report.seed_description,
        "levels_requested": report.levels_requested,
        "vertex_cap": report.vertex_cap,
        "cheeger_cap": report.cheeger_cap,
        "spectrum_cap": report.spectrum_cap,
        "truncated": report.truncated,
        "truncated_level": report.truncated_level,
        "levels": levels,
    }


def report_json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a report_to_json_dict document.

    Written directly, as MultiGraph.to_json is: the standard encoder cannot
    take a count already formatted by count_texts, and it runs in pure Python
    when it indents.  Every other value is written as json.dumps writes it.
    """
    texts = []
    for key, value in doc.items():
        if key == "levels":
            rows = [_json_object(row, _field_texts(row, _json_scalar), "      ") for row in value]
            texts.append("[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]")
        else:
            texts.append(_json_scalar(value))
    return _json_object(doc, texts, "  ") + "\n"


def _csv_field(text: str) -> str:
    """text quoted, its quotes doubled, if it holds a comma, quote, CR or LF (RFC 4180)."""
    # Four `in` tests: a generator over the characters cost 20 us more per report.
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def report_to_csv_text(report: TowerReport) -> str:
    """The header, then one line per row, each ending in "\\n": the same text on every Python."""
    rows = [_field_texts({key: getattr(row, key) for key in LEVEL_FIELDS}, _csv_value)
            for row in report.levels]
    return "".join(",".join(map(_csv_field, texts)) + "\n" for texts in (LEVEL_FIELDS, *rows))
