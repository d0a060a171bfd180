"""Cheeger machinery against an independent subset-enumeration oracle."""
from __future__ import annotations

import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertower import (
    DegenerateCutError,
    DisconnectedGraphError,
    SizeCapError,
    ValidationError,
    build_graph,
    exact_cheeger,
    is_connected,
    laplacian_spectrum,
    lemma_cut,
    sweep_cut,
    verify_witness,
)
from covertower import cheeger
from covertower.cheeger import CheegerResult, Cut
from covertower.cli import main as cli_main
from covertower.spectrum import canonical_basis, symmetric_eigensystem, zero_tolerance
from covertower.tower import iterate_tower

from conftest import (
    complete,
    cover_of,
    cut_ratio,
    cycle,
    dense_laplacian,
    doubled_cycle,
    figure8,
    path,
    sweep_orders_by_argsort,
    theta,
)


def naive_cheeger(g):
    """Plain itertools enumeration, independent of the vectorized search.

    Returns (value, side_a) with the same tie-break contract: the cut with
    lexicographically smallest sorted side containing vertex 0.
    """
    n = g.num_vertices
    pairs = Counter(g.edges)
    best = None
    best_a = None
    for k in range(0, n - 1):
        for extra in itertools.combinations(range(1, n), k):
            side = (0,) + extra
            members = set(side)
            crossing = 0
            for (u, v), mult in pairs.items():
                if u != v and ((u in members) != (v in members)):
                    crossing += mult
            ratio = Fraction(crossing, min(len(side), n - len(side)))
            if best is None or ratio < best or (ratio == best and side < best_a):
                best = ratio
                best_a = side
    return best, best_a


def mask_cheeger(g):
    """The per-edge mask enumerator that exact_cheeger used before doubling.

    Every subset containing vertex 0 (except the full set) is a uint64 mask,
    and each distinct vertex pair adds its multiplicity to the masks that
    split it: O(pairs * 2^(n-1)).  Tied minimum cuts are decoded to sorted
    tuples and the smallest is kept.  Returns (value, side_a).
    """
    n = g.num_vertices
    one = np.uint64(1)
    masks = (np.arange((1 << (n - 1)) - 1, dtype=np.uint64) << one) | one
    crossing = np.zeros(len(masks), dtype=np.uint64)
    pairs = Counter((u, v) for u, v in g.edges if u != v)
    for (u, v), mult in sorted(pairs.items()):
        split = ((masks >> np.uint64(u)) ^ (masks >> np.uint64(v))) & one
        crossing += split * np.uint64(mult)
    size_a = np.bitwise_count(masks)
    side = np.minimum(size_a, np.uint8(n) - size_a)
    ratio = crossing / side
    ties = masks[ratio == ratio.min()]
    side_a = min(tuple(v for v in range(n) if int(mask) >> v & 1) for mask in ties)
    i = sum(1 << v for v in side_a) >> 1
    return Fraction(int(crossing[i]), int(side[i])), side_a


def random_seed(rng, n, rank):
    """Connected multigraph on n vertices with n - 1 + rank edges (loops allowed)."""
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rank)]
    rng.shuffle(edges)
    return build_graph(n, edges)


def with_heavy_pairs(rng, n, edges, extra):
    """The graph of `edges` plus `extra` parallel edges spread over three
    random vertex pairs."""
    heavy = rng.sample(list(itertools.combinations(range(n), 2)), 3)
    a, b = sorted(rng.randint(0, extra) for _ in range(2))
    mults = (a, b - a, extra - b)
    return build_graph(n, list(edges) + [p for p, m in zip(heavy, mults) for _ in range(m)])


class _TableDtypes:
    """numpy as `cheeger` sees it, recording the dtype of each `np.empty`:
    the search's tables are the only arrays it allocates that way."""

    def __init__(self):
        self.dtypes = set()

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype):
        self.dtypes.add(np.dtype(dtype))
        return np.empty(shape, dtype)


def record_table_dtypes(monkeypatch):
    """Record the dtypes of the tables that each later search allocates."""
    spy = _TableDtypes()
    monkeypatch.setattr(cheeger, "np", spy)
    return spy


def cube(d):
    return build_graph(
        1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1]
    )


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# Column widths 1 and 2 give tables of several rows and column blocks even
# on small graphs; the default width keeps one row up to 13 vertices.
COLUMN_WIDTHS = (1, 2, cheeger._COLUMN_BITS)

SMALL_CONNECTED = [
    theta(),
    cycle(3),
    cycle(4),
    cycle(5),
    cycle(6),
    cycle(8),
    doubled_cycle(4),
    doubled_cycle(5),
    complete(4),
    complete(5),
    path(3),
    path(6),
    build_graph(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 2)]),
    build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
]


class TestExactCheeger:
    def test_doubled_four_cycle(self, gamma1):
        result = exact_cheeger(gamma1.graph)
        assert result.value == 2
        assert result.certified == "exact"
        assert result.method == "brute_force"
        assert result.witness.side_a == (0, 1)
        assert result.witness.crossing_edges == 4

    def test_four_cycle(self):
        result = exact_cheeger(cycle(4))
        assert result.value == 1
        assert result.witness.side_a == (0, 1)  # lex-smallest among ratio-1 cuts

    def test_single_edge(self):
        result = exact_cheeger(path(2))
        assert result.value == 1
        assert result.witness.side_a == (0,)

    def test_theta_counts_parallel_edges(self):
        assert exact_cheeger(theta()).value == 3

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_even_cycles_closed_form(self, m):
        assert exact_cheeger(cycle(2 * m)).value == Fraction(2, m)

    @pytest.mark.parametrize(
        "g", SMALL_CONNECTED, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_matches_naive_oracle(self, g):
        expected_value, expected_a = naive_cheeger(g)
        result = exact_cheeger(g)
        assert result.value == expected_value
        assert result.witness.side_a == expected_a

    def test_heavy_multiplicities_widen_the_counts(self):
        # 14,001 non-loop edges: -28,002 fits int16 but not int8, so the
        # tables use int16.
        g = build_graph(
            4, [(0, 1)] * 5000 + [(1, 2)] * 6000 + [(2, 3)] * 3000 + [(0, 3)] + [(2, 2)] * 9
        )
        result = exact_cheeger(g)
        assert (result.value, result.witness.side_a) == naive_cheeger(g) == mask_cheeger(g)
        assert result.value == Fraction(6001, 2)

    def test_heavier_multiplicities_take_int32_counts(self, monkeypatch):
        # 21,001 non-loop edges: -42,002 does not fit int16, so the tables
        # use int32.
        g = build_graph(
            4, [(0, 1)] * 8000 + [(1, 2)] * 8000 + [(2, 3)] * 5000 + [(0, 3)] + [(2, 2)] * 9
        )
        spy = record_table_dtypes(monkeypatch)
        result = exact_cheeger(g)
        assert spy.dtypes == {np.dtype(np.int32)}
        assert (result.value, result.witness.side_a) == naive_cheeger(g) == mask_cheeger(g)
        assert result.value == Fraction(8001, 2)

    def test_relabeling_invariance(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        base_value = exact_cheeger(g).value
        for perm in [(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0), (2, 0, 5, 1, 4, 3)]:
            relabeled = build_graph(
                6, [(perm[u], perm[v]) for u, v in g.edges]
            )
            assert exact_cheeger(relabeled).value == base_value

    def test_rejects_single_vertex(self):
        with pytest.raises(DegenerateCutError):
            exact_cheeger(figure8())

    def test_rejects_disconnected_distinctly(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            exact_cheeger(g)

    @pytest.mark.parametrize(
        "g",
        [
            build_graph(2, []),
            build_graph(3, [(0, 0), (1, 2), (1, 2)]),
            build_graph(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 4)]),
        ],
        ids=["edgeless", "loop-and-pair", "triangle-and-edge"],
    )
    @pytest.mark.parametrize("bits", [1, 2, 3, 5, cheeger._CHUNK_BITS])
    def test_zero_minimum_means_disconnected(self, g, bits, monkeypatch):
        monkeypatch.setattr(cheeger, "_CHUNK_BITS", bits)
        for columns in COLUMN_WIDTHS:
            monkeypatch.setattr(cheeger, "_COLUMN_BITS", columns)
            with pytest.raises(
                DisconnectedGraphError, match="disconnected graph degenerates to 0"
            ):
                exact_cheeger(g)

    @pytest.mark.parametrize("bits", [1, 2, 3, 5, cheeger._CHUNK_BITS])
    def test_tie_with_a_different_crossing_count(self, bits, monkeypatch):
        # {0, 2} (2 crossing over 2) is the first minimum in subset order, but
        # {0, 1, 2} (1 over 1) wins the tie; the claim must be the winner's.
        g = build_graph(4, [(0, 1), (0, 2), (0, 2), (0, 3)])
        assert [cut_ratio(g, a).crossing_edges for a in ([0, 2], [0, 1, 2])] == [2, 1]
        monkeypatch.setattr(cheeger, "_CHUNK_BITS", bits)
        for columns in COLUMN_WIDTHS:
            monkeypatch.setattr(cheeger, "_COLUMN_BITS", columns)
            result = exact_cheeger(g)
            assert (result.value, result.witness.side_a) == naive_cheeger(g) == (1, (0, 1, 2))
            assert (result.witness.crossing_edges, result.witness.ratio) == (1, 1)

    def test_rejects_above_cap(self):
        with pytest.raises(SizeCapError):
            exact_cheeger(cycle(8), max_vertices=6)

    def test_raised_cap_stops_at_the_ceiling(self):
        assert cheeger.MAX_BRUTE_FORCE_CAP == 36
        with pytest.raises(SizeCapError, match="brute force is limited to 36 vertices"):
            exact_cheeger(cycle(37), max_vertices=40)

    def test_unique_minimum_is_the_only_tie_candidate(self, monkeypatch):
        candidates = []
        original = cheeger._lex_key

        def recording(masks, n):
            candidates.append(len(masks))
            return original(masks, n)

        monkeypatch.setattr(cheeger, "_lex_key", recording)
        # Each has one minimum-ratio cut: {0, 1}, {0} and {0, 1} respectively.
        for g in (path(4), path(2), build_graph(3, [(0, 1), (0, 1), (1, 2)])):
            candidates.clear()
            result = exact_cheeger(g)
            assert (result.value, result.witness.side_a) == naive_cheeger(g)
            assert candidates == [1]

    def test_ties_still_take_the_tie_classes(self, monkeypatch):
        calls = []
        original = cheeger._lex_key

        def counting(masks, n):
            calls.append(len(masks))
            return original(masks, n)

        monkeypatch.setattr(cheeger, "_lex_key", counting)
        result = exact_cheeger(cycle(4))  # {0, 1} and {0, 3} both cut 2 over 2
        assert result.witness.side_a == (0, 1)
        assert calls and max(calls) >= 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_lex_key_orders_like_sorted_id_lists(self, n):
        # Every A holding vertex 0, with vertex v at bit n - 1 - v.
        masks = np.arange(1 << (n - 1), dtype=np.int64) | 1 << (n - 1)
        lists = [tuple(v for v in range(n) if mask >> (n - 1 - v) & 1) for mask in masks.tolist()]
        keys = cheeger._lex_key(masks, n)
        assert [lists[i] for i in np.argsort(keys)] == sorted(lists)
        assert sorted(keys.tolist()) == list(range(1, (1 << (n - 1)) + 1))


_chunk_rng = random.Random(4)
CHUNK_CORPUS = [
    complete(4),
    complete(5),
    complete_bipartite(3, 3),
    cube(3),
    cycle(6),
    cycle(8),
    cycle(10),
    cycle(12),
    doubled_cycle(7),
] + [
    random_seed(_chunk_rng, n, _chunk_rng.randint(n // 2, 2 * n))
    for n in (6, 7, 8, 9, 10, 11, 12, 12)
]
# 19 to 21 vertices span 2, 4 or 8 chunks at the default width.  The first
# draw, 18 vertices, fits one chunk and is dropped; it is still drawn so
# that the later draws stay fixed.
_wide_rng = random.Random(21)
WIDE_CORPUS = [
    random_seed(_wide_rng, n, _wide_rng.randint(n, 2 * n)) for n in (18, 19, 20, 20, 21)
][1:]


def two_clusters():
    """K10 on {0..6, 17, 18, 19} and K10 on {7..16}, one bridge between them.

    The bridge split (1 crossing over 10) is the unique minimum, since any
    other cut splits a K10 (at least 9 crossing over at most 10).  At the
    default width its side A holds every high vertex (1 and 2), so the
    winner sits in the partial, all-high chunk, which the Gray walk visits
    third of four.
    """
    left = [0, 1, 2, 3, 4, 5, 6, 17, 18, 19]
    right = list(range(7, 17))
    edges = [p for part in (left, right) for p in itertools.combinations(part, 2)]
    return build_graph(20, edges + [(6, 7), (19, 19), (1, 2)])


class TestChunkedSearch:
    """Narrow chunks exercise the cross-chunk terms (high vertices fixed per
    chunk) that the default chunk width only reaches above 18 vertices."""

    def test_corpus_has_loops_and_parallel_edges(self):
        for corpus in (CHUNK_CORPUS, WIDE_CORPUS):
            assert any(u == v for g in corpus for u, v in g.edges)
            assert any(max(Counter(g.edges).values()) > 1 for g in corpus)

    @pytest.mark.parametrize(
        "g", CHUNK_CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_any_chunk_width_gives_the_same_cut(self, g, monkeypatch):
        default = exact_cheeger(g)
        assert (default.value, default.witness.side_a) == naive_cheeger(g)
        for bits, columns in itertools.product((1, 2, 3, 5), COLUMN_WIDTHS):
            monkeypatch.setattr(cheeger, "_CHUNK_BITS", bits)
            monkeypatch.setattr(cheeger, "_COLUMN_BITS", columns)
            narrow = exact_cheeger(g)
            assert (narrow.value, narrow.witness.side_a, narrow.witness.crossing_edges) == (
                default.value,
                default.witness.side_a,
                default.witness.crossing_edges,
            ), f"chunk bits {bits}, column bits {columns}"

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 12),
        bits=st.integers(1, 6),
        columns=st.integers(1, 4),
    )
    def test_drawn_widths_match_the_mask_oracle(self, data, n, bits, columns):
        """Loops, parallel and heavy pairs, and disconnected graphs (no
        spanning tree is forced) at drawn chunk and column widths."""
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = data.draw(st.lists(pair, max_size=3 * n))
        heavy = data.draw(st.lists(st.tuples(pair, st.integers(1, 300)), max_size=2))
        g = build_graph(n, edges + [e for e, m in heavy for _ in range(m)])
        value, side_a = mask_cheeger(g)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cheeger, "_CHUNK_BITS", bits)
            patch.setattr(cheeger, "_COLUMN_BITS", columns)
            if value == 0:
                with pytest.raises(DisconnectedGraphError):
                    exact_cheeger(g)
                return
            result = exact_cheeger(g)
        assert (result.value, result.witness.side_a) == (value, side_a)
        assert result.witness.crossing_edges == cut_ratio(g, side_a).crossing_edges

    @pytest.mark.parametrize(
        "g", WIDE_CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_default_width_across_chunks(self, g):
        assert g.num_vertices - 1 > cheeger._CHUNK_BITS
        result = exact_cheeger(g)
        assert (result.value, result.witness.side_a) == mask_cheeger(g)

    def test_winner_in_the_all_high_chunk(self):
        g = two_clusters()
        result = exact_cheeger(g)
        assert (result.value, result.witness.side_a) == mask_cheeger(g)
        assert result.value == Fraction(1, 10)
        assert result.witness.side_a == (0, 1, 2, 3, 4, 5, 6, 17, 18, 19)
        assert set(range(1, 20 - cheeger._CHUNK_BITS)) <= set(result.witness.side_a)


class TestMaskOracle:
    """The per-edge mask enumerator checks the doubling search where the
    itertools oracle is too slow."""

    @pytest.mark.parametrize(
        "g", SMALL_CONNECTED, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_oracle_matches_naive(self, g):
        assert mask_cheeger(g) == naive_cheeger(g)

    @pytest.mark.parametrize("seed", range(16))
    def test_random_multigraphs(self, seed):
        """From seed 10 on, heavy parallel pairs raise the non-loop edge
        weight W to 73,016-296,527, so the tables use int32."""
        rng = random.Random(1000 + seed)
        n = rng.randint(14, 18)
        g = random_seed(rng, n, rng.randint(n, 3 * n))
        if seed >= 10:
            limit = (1 << 23) // (n // 2) ** 2 - 3 * n
            g = with_heavy_pairs(rng, n, g.edges, rng.randint(1, limit) + seed % 2 * limit)
        result = exact_cheeger(g)
        assert (result.value, result.witness.side_a) == mask_cheeger(g)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_even_cycles(self, m):
        g = cycle(2 * m)
        result = exact_cheeger(g)
        assert (result.value, result.witness.side_a) == mask_cheeger(g)
        assert result.value == Fraction(2, m)


class TestTableDtype:
    """At n = 12 the tables take the smallest integer type holding -2W (W
    the non-loop edge weight): int8 up to W = 64, int16 up to 16,384 and
    int32 above.  64/65 and 16,384/16,385 sit on both sides of a switch,
    and 43 and 10,923, where a -3W rule would widen, check that the rule is
    no looser."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "weight, dtype",
        [
            (42, np.int8),
            (43, np.int8),
            (64, np.int8),
            (65, np.int16),
            (10_922, np.int16),
            (10_923, np.int16),
            (16_384, np.int16),
            (16_385, np.int32),
        ],
    )
    def test_weight_at_the_dtype_bound(self, weight, dtype, seed, monkeypatch):
        rng = random.Random(seed)
        tree = [(v, rng.randrange(v)) for v in range(1, 12)]
        base = tree + [tuple(rng.sample(range(12), 2)) for _ in range(12)]
        # One tree pair carries the rest of the weight, so `pair` reaches
        # within 44 of -2W on a connected graph.
        g = build_graph(12, base + [rng.choice(tree)] * (weight - len(base)))
        # All the weight on one pair of vertices, high below 10 chunk bits:
        # `pair` and the offset shift reach -2W itself.
        lone = build_graph(12, [(1, 2)] * weight + [(3, 3)])
        assert sum(u != v for u, v in g.edges) == weight
        expected = mask_cheeger(g)
        assert expected == naive_cheeger(g)
        spy = record_table_dtypes(monkeypatch)
        for bits in (1, 5, cheeger._CHUNK_BITS):
            monkeypatch.setattr(cheeger, "_CHUNK_BITS", bits)
            result = exact_cheeger(g)
            assert (result.value, result.witness.side_a) == expected, f"chunk bits {bits}"
            with pytest.raises(DisconnectedGraphError):
                exact_cheeger(lone)
        assert spy.dtypes == {np.dtype(dtype)}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12), weight=st.integers(60, 70))
    def test_drawn_weights_around_the_int8_switch(self, data, n, weight):
        """Two heavy pairs, loops and disconnected graphs at the default
        widths, with W on both sides of 64."""
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        )
        pairs = data.draw(st.lists(pair, min_size=2, max_size=3 * n))
        split = data.draw(st.integers(0, weight - len(pairs)))
        heavy = [pairs[0]] * split + [pairs[1]] * (weight - len(pairs) - split)
        loops = [(v, v) for v in data.draw(st.lists(st.integers(0, n - 1), max_size=3))]
        g = build_graph(n, pairs + heavy + loops)
        value, side_a = mask_cheeger(g)
        with pytest.MonkeyPatch.context() as patch:
            spy = record_table_dtypes(patch)
            if value == 0:
                with pytest.raises(DisconnectedGraphError):
                    exact_cheeger(g)
            else:
                result = exact_cheeger(g)
                assert (result.value, result.witness.side_a) == (value, side_a)
        assert spy.dtypes == {np.dtype(np.int8 if weight <= 64 else np.int16)}


def _search_peak(g):
    """The traced allocation peak of one search, after a first call has
    built the shared column layout of its size."""
    exact_cheeger(g)
    tracemalloc.start()
    try:
        result = exact_cheeger(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_search_memory_peak_on_c26():
    """The 26-vertex search peaks at 0.22 MB of traced memory.  Its int8
    column tables for all 26 vertices (106 KB) are freed once the 13 row
    and high vertices' ones are in column order (53 KB) and the first row
    (4 KB) is built, so the peak is those two, one chunk of 2^17 cuts as a
    32 x 4096 table (131 KB) and numpy's temporaries.  The 0.13 MB slack
    covers numpy's own allocations changing between versions."""
    result, peak = _search_peak(cycle(26))
    assert result.value == Fraction(2, 13)
    assert peak < 0.35 * 10**6


def test_search_memory_peak_on_20_vertices_60_edges():
    """The same tables in int8 (56 of the 60 edges are not loops, and -112
    fits int8) for a 20-vertex graph with 60 edges, the benchmark's shape,
    peak at 0.19 MB: a 131 KB chunk table, 29 KB of column tables in column
    order and the 4 KB first row, the 82 KB of column tables they came from
    freed before the chunk.  The slack is 0.11 MB."""
    g = random_seed(random.Random(60), 20, 41)
    assert (g.num_edges, sum(u != v for u, v in g.edges)) == (60, 56)
    result, peak = _search_peak(g)
    assert (result.value, result.witness.side_a) == mask_cheeger(g)
    assert peak < 0.3 * 10**6


class TestLemmaCut:
    def test_gamma1(self, gamma1):
        result = lemma_cut(gamma1)
        assert result.value == 2  # = 2 / #V(figure8)
        assert result.certified == "upper_bound"
        assert result.witness.crossing_edges == 4
        assert len(result.witness.side_a) == 2
        assert len(result.witness.side_b) == 2

    def test_gamma2(self, gamma2):
        result = lemma_cut(gamma2)
        assert result.value == Fraction(1, 2)  # = 2 / #V(gamma1)
        assert result.witness.crossing_edges == 32  # 2^rank lifts of the last cotree edge
        assert len(result.witness.side_a) == 64
        assert len(result.witness.side_b) == 64

    def test_cover_of_four_cycle(self):
        cov = cover_of(cycle(4))
        result = lemma_cut(cov)
        assert result.value == Fraction(1, 2)
        assert result.witness.crossing_edges == 2
        assert len(result.witness.side_a) == 4

    def test_rejects_trivial_cover(self):
        with pytest.raises(ValidationError):
            lemma_cut(cover_of(path(3)))

    @pytest.mark.parametrize(
        "base",
        [figure8(), theta(), cycle(3), cycle(5), doubled_cycle(3)],
        ids=lambda g: f"V{g.num_vertices}E{g.num_edges}",
    )
    def test_value_is_two_over_base_vertices(self, base):
        cov = cover_of(base)
        result = lemma_cut(cov)
        assert result.value == Fraction(2, base.num_vertices)
        assert result.witness.crossing_edges == cov.sheets
        assert len(result.witness.side_a) == len(result.witness.side_b)

    def test_bound_dominates_exact_value(self):
        for base in [figure8(), cycle(3), cycle(4), theta()]:
            cov = cover_of(base)
            if cov.graph.num_vertices < 2:
                continue
            exact = exact_cheeger(cov.graph).value
            assert lemma_cut(cov).value >= exact


def fiedler_vector(g):
    """The first row of the sweep basis, for sweeps along one vector."""
    return laplacian_spectrum(g, (), vectors=True)[1][0]


class TestSweepCut:
    def test_gamma1_fiedler_is_tight(self, gamma1):
        result = sweep_cut(gamma1.graph, [fiedler_vector(gamma1.graph)])
        # sandwiched: sweep is an upper bound, exact value is 2
        assert result.value >= 2
        assert result.value == 2

    def test_path3_cuts_endpoint(self):
        result = sweep_cut(path(3), [fiedler_vector(path(3))])
        assert result.value == 1

    @pytest.mark.parametrize(
        "g",
        [g for g in SMALL_CONNECTED if g.num_vertices >= 2],
        ids=lambda g: f"V{g.num_vertices}E{g.num_edges}",
    )
    def test_never_beats_exact(self, g):
        sweep = sweep_cut(g, [fiedler_vector(g)])
        assert sweep.value >= exact_cheeger(g).value
        assert sweep.certified == "upper_bound"
        assert sweep.method == "sweep"

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            sweep_cut(cycle(4), [[0.0, 1.0]])
        # one vector is sent as a one-row basis
        with pytest.raises(ValidationError, match=r"shape \(4,\)"):
            sweep_cut(cycle(4), [0.0, 1.0, 2.0, 3.0])

    def test_deterministic_tie_handling(self):
        g = cycle(6)
        vec = [0.0] * 6  # all ties: order falls back to vertex ids
        first = sweep_cut(g, [vec])
        second = sweep_cut(g, [vec])
        assert first.to_json_dict() == second.to_json_dict()
        assert first.witness.side_a == (0, 1, 2)


class TestCutRatio:
    def test_gamma1_adjacent_pair(self, gamma1):
        cut = cut_ratio(gamma1.graph, [0, 1])
        assert cut.crossing_edges == 4
        assert cut.ratio == 2

    def test_gamma2_lemma_side(self, gamma2):
        side = [
            vid for vid in range(gamma2.graph.num_vertices) if not vid % gamma2.sheets >> 4 & 1
        ]
        cut = cut_ratio(gamma2.graph, side)
        assert cut.crossing_edges == 32
        assert cut.ratio == Fraction(1, 2)

    def test_single_vertex_graph_has_no_bipartition(self):
        with pytest.raises(DegenerateCutError):
            cut_ratio(figure8(), [0])

    def test_empty_side_rejected(self):
        with pytest.raises(DegenerateCutError):
            cut_ratio(cycle(3), [])

    def test_full_side_rejected(self):
        with pytest.raises(DegenerateCutError):
            cut_ratio(cycle(3), [0, 1, 2])

    def test_bad_vertex_rejected(self):
        with pytest.raises(ValidationError):
            cut_ratio(cycle(3), [0, 7])

    def test_loops_never_cross(self):
        g = build_graph(2, [(0, 1), (0, 0), (1, 1)])
        assert cut_ratio(g, [0]).crossing_edges == 1

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_complement_symmetry(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        edges = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=12,
            )
        )
        g = build_graph(n, edges)
        size_a = data.draw(st.integers(min_value=1, max_value=n - 1))
        side_a = data.draw(
            st.permutations(range(n)).map(lambda p: tuple(p[:size_a]))
        )
        complement = tuple(v for v in range(n) if v not in side_a)
        cut_one = cut_ratio(g, side_a)
        cut_two = cut_ratio(g, complement)
        assert cut_one.crossing_edges == cut_two.crossing_edges
        assert cut_one.ratio == cut_two.ratio


def read_only_mask(values, dtype=bool):
    mask = np.array(values, dtype=dtype)
    mask.flags.writeable = False
    return mask


class TestVerifyWitness:
    def test_accepts_honest_result(self, gamma1):
        verify_witness(gamma1.graph, exact_cheeger(gamma1.graph))

    def test_rejects_tampered_value(self, gamma1):
        honest = exact_cheeger(gamma1.graph)
        tampered = CheegerResult(
            witness=Cut(
                in_a=honest.witness.in_a,
                crossing_edges=honest.witness.crossing_edges,
                ratio=Fraction(1, 2),
            ),
            certified="exact",
            method="brute_force",
        )
        assert tampered.value == Fraction(1, 2)  # the value is the witness's ratio
        with pytest.raises(ValidationError, match="witness does not re-verify"):
            verify_witness(gamma1.graph, tampered)

    def test_rejects_a_wrong_crossing_count_with_the_right_ratio(self):
        # {0} of the path 0-1-2 is crossed once, ratio 1: a claim of 2 crossing
        # edges is wrong even though its ratio is right.
        claim = CheegerResult(Cut(read_only_mask([True, False, False]), 2, Fraction(1)),
                              "exact", "brute_force")
        with pytest.raises(ValidationError, match="recomputed 1 crossing edges and ratio 1"):
            verify_witness(path(3), claim)

    @staticmethod
    def four_cycle_result(in_a):
        """{0, 1} of the 4-cycle claimed: 2 crossing edges, ratio 1."""
        return CheegerResult(Cut(in_a, 2, Fraction(1)), "exact", "brute_force")

    def test_mask_derives_the_sorted_sides(self):
        result = self.four_cycle_result(read_only_mask([True, True, False, False]))
        verify_witness(cycle(4), result)
        assert (result.witness.side_a, result.witness.side_b) == ((0, 1), (2, 3))
        assert result.witness.to_json_dict() == {
            "side_a": [0, 1], "side_b": [2, 3], "crossing_edges": 2, "ratio": "1",
        }

    @pytest.mark.parametrize(
        "mask, message",
        [
            (read_only_mask([True, True, False]), "bool array of 4 entries"),
            (read_only_mask([True, True, False, False, False]), "bool array of 4 entries"),
            (read_only_mask([1, 1, 0, 0], np.uint8), "bool array of 4 entries"),
            ((True, True, False, False), "bool array of 4 entries"),
            (np.array([True, True, False, False]), "read-only"),
        ],
        ids=["short", "long", "not-bool", "not-an-array", "writable"],
    )
    def test_rejects_a_malformed_mask(self, mask, message):
        with pytest.raises(ValidationError, match=message):
            verify_witness(cycle(4), self.four_cycle_result(mask))

    @pytest.mark.parametrize("fill", [False, True], ids=["empty", "full"])
    def test_rejects_a_degenerate_mask(self, fill):
        with pytest.raises(DegenerateCutError):
            verify_witness(cycle(4), self.four_cycle_result(read_only_mask([fill] * 4)))

    def test_results_hold_read_only_masks(self, gamma1):
        for run in _cheeger_methods(gamma1).values():
            in_a = run().witness.in_a
            assert in_a.dtype == bool and not in_a.flags.writeable
        assert not cut_ratio(gamma1.graph, [0, 1]).in_a.flags.writeable


def _recount_counter(monkeypatch):
    """Count witness recounts, recording the vertex count of each graph."""
    calls = []
    original = cheeger._recount

    def counting(g, in_a):
        calls.append(g.num_vertices)
        return original(g, in_a)

    monkeypatch.setattr(cheeger, "_recount", counting)
    return calls


def _cheeger_methods(gamma1):
    """One call of each method on Gamma1, as zero-argument callables."""
    _, basis = laplacian_spectrum(gamma1.graph, (), vectors=True)
    return {
        "exact": lambda: exact_cheeger(gamma1.graph),
        "lemma": lambda: lemma_cut(gamma1),
        "sweep": lambda: sweep_cut(gamma1.graph, basis),
    }


class TestOneRecount:
    """Each method recounts its own claim once, and nothing recounts again."""

    def test_tower_recounts_each_result_once(self, monkeypatch):
        calls = _recount_counter(monkeypatch)
        iterate_tower(figure8(), 2)
        # level 1: lemma cut and exhaustive search; level 2: lemma and sweep
        assert calls == [4, 4, 128, 128]

    @pytest.mark.parametrize("method", ["exact", "lemma", "sweep"])
    def test_cli_recounts_once(self, method, monkeypatch):
        calls = _recount_counter(monkeypatch)
        assert cli_main(["cheeger", "theta", "--method", method]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["exact", "lemma", "sweep"])
    def test_disagreeing_recount_raises(self, gamma1, method, monkeypatch):
        run = _cheeger_methods(gamma1)[method]
        original = cheeger._recount

        def off_by_one(g, in_a):
            crossing, smaller = original(g, in_a)
            return crossing + 1, smaller

        monkeypatch.setattr(cheeger, "_recount", off_by_one)
        with pytest.raises(ValidationError, match="witness does not re-verify"):
            run()


class TestCycleFamilyTightness:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_lemma_bound_tight_on_cycles(self, m):
        cov = cover_of(cycle(m))
        bound = lemma_cut(cov).value
        assert bound == Fraction(2, m)
        assert is_connected(cov.graph)
        assert cov.graph.num_vertices == 2 * m
        assert exact_cheeger(cov.graph).value == bound


def loop_sweep(g, order):
    """The pure-Python sweep the vectorized one replaced: (ratio, prefix size).

    Adds the vertices in `order` one at a time, updating the crossing count
    from each vertex's non-loop neighbours; ties keep the shorter prefix.
    """
    n = g.num_vertices
    adjacency = [Counter() for _ in range(n)]
    nonloop_degree = [0] * n
    for u, v in g.edges:
        if u == v:
            continue
        adjacency[u][v] += 1
        adjacency[v][u] += 1
        nonloop_degree[u] += 1
        nonloop_degree[v] += 1
    in_a = [False] * n
    crossing = 0
    best = None
    for k, v in enumerate(order[:-1]):
        crossing += nonloop_degree[v] - 2 * sum(
            mult for nb, mult in adjacency[v].items() if in_a[nb]
        )
        in_a[v] = True
        size = k + 1
        ratio = Fraction(crossing, min(size, n - size))
        if best is None or ratio < best[0]:
            best = (ratio, size)
    return best


SWEEP_COVERS = [
    cover_of(random_seed(random.Random(seed), n, rank)).graph
    for seed, (n, rank) in enumerate([(2, 4), (2, 5), (3, 3), (3, 4), (2, 6), (4, 3)] * 2)
]


def eigenspace_basis(w, v):
    """Canonical basis of the second-smallest eigenvalue's eigenspace of (w, v)."""
    return canonical_basis(v[:, np.abs(w - w[1]) <= zero_tolerance(w)].T)


def eigenspace_rotated(w, v, rng):
    """v with the second-smallest eigenvalue's eigenspace rotated at random."""
    block = np.flatnonzero(np.abs(w - w[1]) <= zero_tolerance(w))
    q, _ = np.linalg.qr(rng.standard_normal((len(block), len(block))))
    rotated = v.copy()
    rotated[:, block] = v[:, block] @ q
    return rotated, len(block)


class TestVectorizedSweep:
    @pytest.mark.parametrize(
        "g",
        [g for g in SMALL_CONNECTED if g.num_vertices >= 2] + SWEEP_COVERS,
        ids=lambda g: f"V{g.num_vertices}E{g.num_edges}",
    )
    def test_matches_loop_oracle(self, g):
        rng = np.random.default_rng(g.num_vertices * 1000 + g.num_edges)
        n = g.num_vertices
        vectors = [rng.standard_normal(n) for _ in range(4)]
        # small integers: many exact ties, ordered by vertex id
        vectors += [rng.integers(-2, 3, size=n).astype(float) for _ in range(4)]
        for vec in vectors:
            order = sorted(range(n), key=lambda v: (vec[v], v))
            ratio, size = loop_sweep(g, order)
            result = sweep_cut(g, [vec])
            assert result.value == ratio
            assert result.witness.side_a == tuple(sorted(order[:size]))

    def test_basis_takes_best_row(self):
        """The batched sweep equals the (value, prefix size, row) minimum of
        the per-row oracle, on bases whose rows tie on the ratio."""
        rng = np.random.default_rng(3)
        bases = [(SWEEP_COVERS[0], rng.standard_normal((5, SWEEP_COVERS[0].num_vertices)))]
        # Q3's coordinate functions, last bit first: every row's best cut is
        # a half-cube of ratio 1, so the first row wins on a full tie.
        bases.append((cube(3), np.array([[v >> b & 1 for v in range(8)] for b in (2, 1, 0)])))
        # Rows of -1, 0 and 1: ties within rows and between them.
        for g in [g for g in SMALL_CONNECTED if g.num_vertices >= 2] + SWEEP_COVERS[:6]:
            for k in (2, 3, 5):
                bases.append((g, rng.integers(-1, 2, size=(k, g.num_vertices)).astype(float)))
        tied_rows = shorter_later = 0
        for g, rows in bases:
            n = g.num_vertices
            orders = [sorted(range(n), key=lambda v: (row[v], v)) for row in rows]
            per_row = [(*loop_sweep(g, order), r) for r, order in enumerate(orders)]
            ratio, size, r = min(per_row)
            result = sweep_cut(g, rows)
            assert result.value == ratio
            assert result.witness.side_a == tuple(sorted(orders[r][:size]))
            tied = [(s, q) for value, s, q in per_row if value == ratio]
            tied_rows += len(tied) > 1
            shorter_later += r > min(q for _, q in tied)
        assert sweep_cut(*bases[1]).witness.side_a == (0, 1, 2, 3)
        assert tied_rows >= 10 and shorter_later >= 3, (tied_rows, shorter_later)

    def test_near_ties_order_by_vertex_id(self):
        g = cycle(6)
        vec = [1e-13, -1e-13, 0.0, 1.0, 1.0 + 1e-12, 2.0]
        # vertices 0-2 and 3-4 are tie classes: the order is 0, 1, 2, 3, 4, 5
        assert sweep_cut(g, [vec]).witness.side_a == (0, 1, 2)
        exact = sweep_cut(g, [[0.0, 0.0, 0.0, 1.0, 1.0, 2.0]])
        assert sweep_cut(g, [vec]).to_json_dict() == exact.to_json_dict()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4), n=st.integers(1, 30))
    def test_orders_are_the_argsort_oracle(self, data, k, n):
        # values from a few levels, each moved by 0, 1/2, 1 or 2 tolerances
        # (or a hair either side of one): exact ties and near-ties at 1e-9
        levels = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0, 3.0])
        steps = st.sampled_from([0.0, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0, -1.0, -2.0])
        rows = np.array(
            [[data.draw(levels) + data.draw(steps) * 1e-9 for _ in range(n)] for _ in range(k)]
        )
        assert np.array_equal(cheeger._sweep_orders(rows), sweep_orders_by_argsort(rows))

    def test_rejects_non_finite_and_empty_basis(self):
        with pytest.raises(ValidationError):
            sweep_cut(cycle(4), [[0.0, float("nan"), 1.0, 2.0]])
        with pytest.raises(ValidationError):
            sweep_cut(cycle(4), np.zeros((0, 4)))


class TestCanonicalSweep:
    """The tower's sweep depends on the eigenspace, not on the solver's basis."""

    def canonical_sweep(self, g, rotations=5):
        w, v = symmetric_eigensystem(dense_laplacian(g))
        result = sweep_cut(g, eigenspace_basis(w, v))
        rng = np.random.default_rng(g.num_vertices + g.num_edges)
        for _ in range(rotations):
            rotated, multiplicity = eigenspace_rotated(w, v, rng)
            rotated_result = sweep_cut(g, eigenspace_basis(w, rotated))
            assert rotated_result.to_json_dict() == result.to_json_dict()
        return result, multiplicity

    def test_gamma1(self, gamma1):
        result, multiplicity = self.canonical_sweep(gamma1.graph)
        assert multiplicity == 2
        assert result.value == 2

    def test_gamma2(self, gamma2):
        result, multiplicity = self.canonical_sweep(gamma2.graph)
        assert multiplicity == 8
        assert result.value == Fraction(7, 8)

    def test_covers_with_repeated_lambda1(self):
        repeated = 0
        for g in SWEEP_COVERS:
            _, multiplicity = self.canonical_sweep(g, rotations=3)
            repeated += multiplicity > 1
        assert repeated >= len(SWEEP_COVERS) // 2

    def test_tower_and_cli_use_the_canonical_sweep(self, capsys):
        g = cycle(5)  # lambda1 has multiplicity 2
        w, v = symmetric_eigensystem(dense_laplacian(g))
        sweep = sweep_cut(g, eigenspace_basis(w, v))
        row = iterate_tower(g, 0, cheeger_cap=1).levels[0]
        assert (row.cheeger_value, row.cheeger_method) == (sweep.value, "sweep")
        assert cli_main(["cheeger", "cycle:5", "--method", "sweep"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"] == sweep.witness.to_json_dict()
