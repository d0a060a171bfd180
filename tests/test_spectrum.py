"""Laplacians, spectral summaries, sandwich inequalities, inclusion checks."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertower import (
    CoverSpec,
    SpecMismatchError,
    SpectrumError,
    ValidationError,
    build_graph,
    exact_cheeger,
    full_spectrum,
    laplacian,
    laplacian_spectrum,
    z2_cover,
)
from covertower import spectrum as spectrum_mod
from covertower.spectrum import (
    COMBINATORIAL,
    NORMALIZED,
    SpectralSummary,
    canonical_basis,
    character_laplacians,
    lambda1_of,
    symmetric_eigensystem,
    zero_run,
    zero_tolerance,
)

from conftest import (
    bouquet,
    canonical_basis_by_column_stack,
    cheeger_sandwich,
    complete,
    cover_of,
    cycle,
    dense_laplacian,
    doubled_cycle,
    figure8,
    lambda1_three_passes,
    path,
    printed_eigenvalues_by_full_pass,
    random_connected_multigraph,
    spectrum_inclusion,
    theta,
    zero_count_by_full_pass,
)


def cycle_spectrum(n: int, weight: float = 1.0) -> list[float]:
    """Closed form for (possibly doubled) cycle Laplacians."""
    return sorted(
        2.0 * weight - 2.0 * weight * math.cos(2.0 * math.pi * k / n) for k in range(n)
    )


CORPUS = [
    figure8(),
    theta(),
    bouquet(3),
    cycle(3),
    cycle(4),
    cycle(7),
    doubled_cycle(4),
    complete(5),
    path(4),
    build_graph(3, [(0, 1), (1, 2), (0, 0)]),
]


def assert_laplacian_is_the_dense_oracle(g, kind):
    """laplacian(g, kind) equals dense_laplacian bit for bit, or both raise one SpectrumError."""
    outcomes = []
    for build in (laplacian, dense_laplacian):
        try:
            outcomes.append(build(g, kind))
        except SpectrumError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert isinstance(got, str) and got == want
    else:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestLaplacian:
    @pytest.mark.parametrize(
        "g",
        CORPUS + [
            build_graph(3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1), (1, 2)]),
            build_graph(2, []),
            build_graph(3, [(0, 0)]),
        ],
        ids=lambda g: f"V{g.num_vertices}E{g.num_edges}",
    )
    def test_adjacency_matches_loop_oracle(self, g):
        """laplacian, the rank-0 block, against the Laplacian of loop_adjacency."""
        for kind in (COMBINATORIAL, NORMALIZED):
            assert_laplacian_is_the_dense_oracle(g, kind)

    def test_figure8_loops_cancel(self):
        lap = laplacian(figure8())
        assert lap.shape == (1, 1)
        assert lap[0, 0] == 0.0

    def test_single_edge(self):
        lap = laplacian(path(2))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_doubled_four_cycle_circulant(self, gamma1):
        lap = laplacian(gamma1.graph)
        assert np.all(np.diag(lap) == 4.0)
        # doubled cycle 0-1-3-2: each vertex has two neighbors with weight 2
        for row in lap:
            assert sorted(row) == [-2.0, -2.0, 0.0, 4.0]

    def test_row_sums_vanish(self):
        for g in CORPUS:
            assert np.allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-12)

    def test_normalized_rejects_isolated_vertex(self):
        with pytest.raises(SpectrumError):
            laplacian(build_graph(2, [(0, 0)]), NORMALIZED)

    def test_normalized_is_exactly_symmetric(self):
        for g in CORPUS:
            lap = laplacian(g, NORMALIZED)
            assert np.array_equal(lap, lap.T)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            laplacian(path(2), "weighted")


class TestFullSpectrum:
    def test_gamma1_combinatorial(self, gamma1):
        s = full_spectrum(gamma1.graph)
        expected = cycle_spectrum(4, weight=2.0)  # {0, 4, 4, 8}
        assert np.allclose(s.eigenvalues, expected, atol=1e-9)
        assert s.lambda1 == pytest.approx(4.0, abs=1e-9)
        assert s.zero_multiplicity == 1
        assert s.max_degree == 4

    def test_four_cycle(self):
        s = full_spectrum(cycle(4))
        assert np.allclose(s.eigenvalues, cycle_spectrum(4), atol=1e-9)
        assert s.lambda1 == pytest.approx(2.0, abs=1e-9)

    def test_two_components_flagged(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        s = full_spectrum(g)
        assert s.zero_multiplicity == 2
        assert s.lambda1 == 0.0

    def test_single_vertex_has_no_lambda1(self):
        s = full_spectrum(figure8())
        assert s.eigenvalues == (0.0,)
        assert s.lambda1 is None
        assert s.zero_multiplicity == 1

    def test_cap_enforced(self):
        with pytest.raises(SpectrumError):
            full_spectrum(cycle(10), max_vertices=5)

    @pytest.mark.parametrize(
        "g", CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_eigenvalue_sum_matches_trace(self, g):
        lap = dense_laplacian(g)
        trace = int(round(float(np.trace(lap))))
        s = full_spectrum(g)
        assert abs(sum(s.eigenvalues) - trace) <= 1e-9 * max(1, trace)

    @pytest.mark.parametrize(
        "g",
        [g for g in CORPUS if min(g.degrees, default=0) > 0],
        ids=lambda g: f"V{g.num_vertices}E{g.num_edges}",
    )
    def test_normalized_range(self, g):
        s = full_spectrum(g, NORMALIZED)
        assert s.eigenvalues[0] >= -1e-9
        assert s.eigenvalues[-1] <= 2.0 + 1e-9

    @pytest.mark.parametrize(
        "g", CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_zero_multiplicity_counts_components(self, g):
        from covertower.multigraph import component_count

        assert full_spectrum(g).zero_multiplicity == component_count(g)

    def test_json_uses_12_significant_digits(self):
        doc = full_spectrum(cycle(3)).to_json_dict()
        assert doc["schema"] == 1
        assert doc["eigenvalues"] == [0.0, 3.0, 3.0]
        assert doc["lambda1"] == 3.0


class TestFiedler:
    def test_path_fiedler_orders_the_path(self):
        vec = laplacian_spectrum(path(5), (), vectors=True)[1][0]
        order = sorted(range(5), key=lambda v: vec[v])
        assert order == [0, 1, 2, 3, 4] or order == [4, 3, 2, 1, 0]


class TestFiedlerBasis:
    def test_reduced_row_echelon_form_of_the_eigenspace(self, gamma2):
        g = gamma2.graph
        (w,), basis = laplacian_spectrum(g, (), vectors=True)
        assert basis.shape == (8, g.num_vertices)  # lambda1 of Gamma2 is 8-fold
        # each row is an eigenvector for lambda1
        residual = dense_laplacian(g) @ basis.T - w[1] * basis.T
        assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(basis))
        # pivots: the first column where each row is nonzero carries a 1 there
        # and zeros in every other row
        pivots = [int(np.flatnonzero(np.abs(row) > 1e-9)[0]) for row in basis]
        assert pivots == sorted(pivots)
        assert np.allclose(basis[:, pivots], np.eye(8), atol=1e-12)

    def test_simple_eigenvalue_gives_the_scaled_fiedler_vector(self):
        g = path(5)
        _, basis = laplacian_spectrum(g, (), vectors=True)
        _, v = np.linalg.eigh(dense_laplacian(g))
        assert basis.shape == (1, 5)
        assert basis[0, 0] == pytest.approx(1.0)
        assert np.allclose(basis[0], v[:, 1] / v[0, 1])

    def test_single_vertex_has_an_empty_basis(self):
        _, basis = laplacian_spectrum(figure8(), (), vectors=True)
        assert basis.shape == (0, 1)


class TestZeroEigenvalues:
    @pytest.mark.parametrize(
        "g", CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    @pytest.mark.parametrize("kind", [COMBINATORIAL, NORMALIZED])
    def test_reported_as_exact_zero(self, g, kind):
        s = full_spectrum(g, kind)
        doc = s.to_json_dict()
        tol = zero_tolerance(np.asarray(s.eigenvalues))
        for raw, shown in zip(s.eigenvalues, doc["eigenvalues"]):
            if abs(raw) <= tol:
                assert shown == 0.0 and math.copysign(1.0, shown) == 1.0
            else:
                assert shown == float(f"{raw:.12g}")
        assert doc["eigenvalues"].count(0.0) == s.zero_multiplicity

    def test_cap_checked_before_the_matrix_is_built(self, monkeypatch):
        def unbuildable(*args):
            raise AssertionError("a matrix was built before the cap check")

        monkeypatch.setattr(spectrum_mod, "character_laplacians", unbuildable)
        message = "graph has 6 vertices, above the dense-solver cap 5"
        with pytest.raises(SpectrumError, match=message):
            laplacian_spectrum(cycle(6), (), max_vertices=5)
        # a cover counts its own vertices, not its base's: 3 * 2^1 = 6
        cover = cover_of(cycle(3))
        with pytest.raises(SpectrumError, match=message):
            laplacian_spectrum(cover.base, cover.spec.cotree_edges, vectors=True, max_vertices=5)
        with pytest.raises(SpectrumError, match="above the dense-solver cap 5"):
            full_spectrum(cycle(6), max_vertices=5)


class TestCheegerSandwich:
    def test_gamma1_lower_bound_tight(self, gamma1):
        h = exact_cheeger(gamma1.graph)
        s = full_spectrum(gamma1.graph)
        report = cheeger_sandwich(gamma1.graph, h, s)
        assert report.performed
        assert report.holds
        assert report.degree == 4
        assert report.lower_slack == pytest.approx(0.0, abs=1e-9)
        assert report.upper_slack == pytest.approx(math.sqrt(32.0) - 2.0, abs=1e-9)

    def test_four_cycle(self):
        g = cycle(4)
        report = cheeger_sandwich(g, exact_cheeger(g), full_spectrum(g))
        assert report.performed and report.holds
        assert report.lambda1 == pytest.approx(2.0, abs=1e-9)

    def test_single_edge_smallest_regular_case(self):
        g = path(2)
        report = cheeger_sandwich(g, exact_cheeger(g), full_spectrum(g))
        assert report.performed and report.holds
        assert report.degree == 1

    def test_non_regular_skipped_with_reason(self):
        g = path(3)
        report = cheeger_sandwich(g, exact_cheeger(g), full_spectrum(g))
        assert not report.performed
        assert "regular" in report.skip_reason

    def test_upper_bound_h_checks_lower_half_only(self, gamma1):
        from covertower import lemma_cut

        bound = lemma_cut(gamma1)
        s = full_spectrum(gamma1.graph)
        report = cheeger_sandwich(gamma1.graph, bound, s)
        assert report.performed
        assert report.lower_ok
        assert report.upper_ok is None

    def test_requires_combinatorial_kind(self, gamma1):
        h = exact_cheeger(gamma1.graph)
        s = full_spectrum(gamma1.graph, NORMALIZED)
        with pytest.raises(ValidationError):
            cheeger_sandwich(gamma1.graph, h, s)


class TestSpectrumInclusion:
    def test_figure8_into_gamma1(self, gamma1):
        base = full_spectrum(figure8())
        cover = full_spectrum(gamma1.graph)
        assert spectrum_inclusion(base, cover)

    def test_gamma1_into_gamma2(self, gamma1, gamma2):
        base = full_spectrum(gamma1.graph)
        cover = full_spectrum(gamma2.graph)
        assert spectrum_inclusion(base, cover)

    def test_unrelated_spectra_rejected(self):
        assert not spectrum_inclusion(full_spectrum(cycle(4)), full_spectrum(complete(4)))

    def test_kind_mismatch(self):
        with pytest.raises(ValidationError):
            spectrum_inclusion(
                full_spectrum(cycle(4)), full_spectrum(cycle(4), NORMALIZED)
            )

    @pytest.mark.parametrize(
        "base",
        [theta(), cycle(3), cycle(5), bouquet(2), doubled_cycle(3)],
        ids=lambda g: f"V{g.num_vertices}E{g.num_edges}",
    )
    def test_lambda1_never_increases_along_covers(self, base):
        cov = cover_of(base)
        lam_base = full_spectrum(base).lambda1
        lam_cover = full_spectrum(cov.graph).lambda1
        if lam_base is not None:  # single-vertex bases have no nonzero eigenvalue
            assert lam_cover is not None
            assert lam_cover <= lam_base + 1e-9
        assert spectrum_inclusion(full_spectrum(base), full_spectrum(cov.graph))


class TestEigensystemResiduals:
    @pytest.mark.parametrize(
        "g", CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_laplacian_eigenpairs_residual(self, g):
        lap = dense_laplacian(g)
        w, v = symmetric_eigensystem(character_laplacians(g, ())[0])
        w, v = w[0], v[0]
        scale = max(1.0, float(np.max(np.abs(lap))))
        assert np.max(np.abs(lap @ v - v * w)) <= 1e-8 * scale

    def test_summary_matches_eigensystem(self):
        g = cycle(6)
        (w,), _ = laplacian_spectrum(g, ())
        s = full_spectrum(g)
        assert s.eigenvalues == tuple(float(x) for x in w)
        assert s.lambda1 == lambda1_of(w) == pytest.approx(1.0)
        assert s.zero_multiplicity == 1 and s.max_degree == 2


_block_rng = random.Random(808)
BLOCK_COVERS = (
    [cover_of(g) for g in CORPUS]
    # seeded multigraphs: loops and parallel edges, up to 1,024 cover vertices
    + [
        cover_of(random_connected_multigraph(_block_rng, n, rank))
        for n, rank in [(1, 3), (2, 6), (2, 7), (3, 5), (4, 4), (5, 3), (6, 6), (8, 4), (16, 6)]
    ]
    # rank-1 covers: one cotree edge, two blocks of the base's size
    + [cover_of(g) for g in (cycle(1), cycle(6), build_graph(3, [(0, 1), (1, 2), (2, 2)]))]
    + [cover_of(random_connected_multigraph(_block_rng, n, 1)) for n in (2, 5, 9, 400)]
    # a level-2 cover (Gamma2, 128 vertices over the 4-vertex Gamma1)
    + [cover_of(cover_of(figure8()).graph)]
)


def _cover_id(cover):
    return f"V{cover.base.num_vertices}r{cover.rank}"


# A tree holds no loop, so these are the covers whose bases have loops.
COTREE_LOOP_COVERS = [
    c for c in BLOCK_COVERS if any(len(set(c.base.edges[e])) == 1 for e in c.spec.cotree_edges)
]


class TestCharacterBlocks:
    """The block path against the dense spectrum of the constructed cover."""

    def test_corpus_shape(self):
        assert all(c.graph.num_vertices <= 2048 for c in BLOCK_COVERS)
        assert sum(c.rank == 1 for c in BLOCK_COVERS) >= 6
        bases = [c.base for c in BLOCK_COVERS]
        assert any(u == v for g in bases for u, v in g.edges)
        assert any(len(set(g.edges)) < g.num_edges for g in bases)
        assert len(COTREE_LOOP_COVERS) >= 5

    @pytest.mark.parametrize("cover", COTREE_LOOP_COVERS, ids=_cover_id)
    def test_laplacian_of_base_and_cover_is_the_dense_oracle(self, cover):
        for g in (cover.base, cover.graph):
            for kind in (COMBINATORIAL, NORMALIZED):
                assert_laplacian_is_the_dense_oracle(g, kind)

    @pytest.mark.parametrize("kind", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("cover", BLOCK_COVERS, ids=_cover_id)
    def test_union_of_block_spectra_is_the_cover_spectrum(self, cover, kind):
        dense = np.linalg.eigvalsh(dense_laplacian(cover.graph, kind))
        (w,), rows = laplacian_spectrum(cover.base, cover.spec.cotree_edges, (kind,))
        assert rows is None
        assert np.max(np.abs(w - dense)) <= 1e-9
        (with_vectors,), _ = laplacian_spectrum(
            cover.base, cover.spec.cotree_edges, (kind,), True
        )
        assert np.max(np.abs(with_vectors - dense)) <= 1e-9

    @pytest.mark.parametrize("kind", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("cover", BLOCK_COVERS, ids=_cover_id)
    def test_lifted_rows_span_the_lambda1_eigenspace(self, cover, kind):
        """The sweep basis reduced from the lifted rows is that of a dense solve."""
        lap = dense_laplacian(cover.graph, kind)
        (w,), basis = laplacian_spectrum(
            cover.base, cover.spec.cotree_edges, (kind,), vectors=True
        )
        for f in basis:
            assert np.linalg.norm(lap @ f - w[1] * f) <= 1e-9 * max(1.0, np.linalg.norm(f))
        dense_w, dense_v = np.linalg.eigh(lap)
        eigenspace = np.abs(dense_w - dense_w[1]) <= zero_tolerance(dense_w)
        assert len(basis) == np.count_nonzero(eigenspace)
        assert np.max(np.abs(basis - canonical_basis(dense_v[:, eigenspace].T))) <= 1e-9

    @pytest.mark.parametrize("kind", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("cover", BLOCK_COVERS, ids=_cover_id)
    def test_trivial_character_is_the_base(self, cover, kind):
        (blocks,) = character_laplacians(cover.base, cover.spec.cotree_edges, (kind,))
        assert blocks.shape == (cover.sheets, cover.base.num_vertices, cover.base.num_vertices)
        assert np.array_equal(blocks[0], dense_laplacian(cover.base, kind))
        base, whole = full_spectrum(cover.base, kind), full_spectrum(cover.graph, kind)
        assert spectrum_inclusion(base, whole)

    @pytest.mark.parametrize("cover", BLOCK_COVERS[::4], ids=_cover_id)
    def test_stacked_eigensolve_equals_per_matrix_calls(self, cover):
        (blocks,) = character_laplacians(cover.base, cover.spec.cotree_edges, (NORMALIZED,))
        w, v = symmetric_eigensystem(blocks)
        values, none = symmetric_eigensystem(blocks, vectors=False)
        assert none is None
        for block, wb, vb, values_b in zip(blocks, w, v, values):
            w1, v1 = symmetric_eigensystem(block)
            assert np.array_equal(wb, w1) and np.array_equal(vb, v1)
            assert np.array_equal(values_b, symmetric_eigensystem(block, vectors=False)[0])

    def test_lambda1_of_matches_the_summary(self):
        for cover in BLOCK_COVERS:
            (w,), _ = laplacian_spectrum(cover.base, cover.spec.cotree_edges)
            dense = full_spectrum(cover.graph).lambda1
            assert lambda1_of(w) == pytest.approx(dense, rel=0, abs=1e-9)
        assert lambda1_of(np.array([0.0, 0.0, 2.0])) == 0.0
        assert lambda1_of(np.array([0.0])) is None

    def test_unknown_kind(self):
        cover = cover_of(theta())
        with pytest.raises(ValidationError):
            character_laplacians(cover.base, cover.spec.cotree_edges, ("signless",))
        # a bare kind is not a sequence of kinds, and no kind asks for nothing
        for kinds in (NORMALIZED, ()):
            with pytest.raises(ValidationError, match="nonempty sequence"):
                laplacian_spectrum(cover.base, cover.spec.cotree_edges, kinds)

    def test_both_kinds_from_one_call_equal_one_kind_each(self):
        kinds = (COMBINATORIAL, NORMALIZED)
        for cover in BLOCK_COVERS:
            base, cotree = cover.base, cover.spec.cotree_edges
            stacks = character_laplacians(base, cotree, kinds)
            spectra, basis = laplacian_spectrum(base, cotree, kinds, vectors=True)
            # only the first kind is solved with vectors, as it is alone
            for i, (kind, stack, w) in enumerate(zip(kinds, stacks, spectra)):
                assert np.array_equal(stack, character_laplacians(base, cotree, (kind,))[0])
                alone, alone_basis = laplacian_spectrum(base, cotree, (kind,), vectors=not i)
                assert np.array_equal(w, alone[0])
                if not i:
                    assert np.array_equal(basis, alone_basis)

    @pytest.mark.parametrize(
        "cotree, message",
        [
            ((99,), "cotree edge 99 is not an edge id"),
            ((-1,), "cotree edge -1 is not an edge id"),
            ((True,), "cotree edge True is not an edge id"),
            ((0, 0), "cotree edge 0 is listed twice"),
        ],
        ids=["out-of-range", "negative", "bool", "repeated"],
    )
    def test_cotree_ids_checked_as_the_cover_layer_does(self, cotree, message):
        # theta has edges 0, 1, 2; z2_cover refuses each of these names too
        with pytest.raises(SpecMismatchError, match=message):
            character_laplacians(theta(), cotree)
        with pytest.raises(SpecMismatchError, match=message):
            laplacian_spectrum(theta(), cotree)
        with pytest.raises(SpecMismatchError, match=message):
            z2_cover(theta(), CoverSpec(cotree))

    def test_no_connectivity_needed(self):
        # the spectrum layer solves any cover, connected or not
        two_loops = build_graph(2, [(0, 0), (1, 1)])
        assert laplacian_spectrum(two_loops, ())[0][0].tolist() == [0.0, 0.0]
        (w,), _ = laplacian_spectrum(cycle(3), (0, 1))
        assert np.count_nonzero(np.abs(w) <= zero_tolerance(w)) == 2


RANK0_CORPUS = CORPUS + [
    build_graph(1, []),
    build_graph(1, [(0, 0)] * 3),
    build_graph(2, [(0, 0), (1, 1)]),
    build_graph(2, [(0, 1)] * 5),
    build_graph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 2)]),
    build_graph(4, [(0, 1), (2, 3)]),
] + [random_connected_multigraph(random.Random(n), n, 4) for n in (2, 6, 12, 40)]


class TestRankZeroPath:
    """A plain graph is its own rank-0 cover: one block, its Laplacian."""

    @pytest.mark.parametrize("kind", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize(
        "g", RANK0_CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_equals_the_dense_eigensolve(self, g, kind):
        if kind == NORMALIZED and min(g.degrees) == 0:
            with pytest.raises(SpectrumError, match="isolated"):
                laplacian_spectrum(g, (), (kind,))
            return
        lap = dense_laplacian(g, kind)
        (w,), none = laplacian_spectrum(g, (), (kind,))
        assert none is None
        assert np.array_equal(w, np.linalg.eigvalsh(lap))
        dense_w, dense_v = np.linalg.eigh(lap)
        (w,), basis = laplacian_spectrum(g, (), (kind,), vectors=True)
        assert np.array_equal(w, dense_w)
        if g.num_vertices < 2:
            assert basis.shape == (0, g.num_vertices)
            return
        eigenspace = np.abs(dense_w - dense_w[1]) <= zero_tolerance(dense_w)
        expected = canonical_basis(dense_v[:, eigenspace].T)
        assert basis.shape == expected.shape
        assert np.max(np.abs(basis - expected)) <= 1e-9

    def test_corpus_shape(self):
        graphs = RANK0_CORPUS
        assert any(g.num_vertices == 1 for g in graphs)
        assert any(g.num_edges and all(u == v for u, v in g.edges) for g in graphs)
        assert any(len(set(g.edges)) < g.num_edges for g in graphs)
        repeated = 0
        for g in graphs:
            w = np.linalg.eigvalsh(dense_laplacian(g))
            repeated += len(w) > 2 and abs(w[2] - w[1]) <= zero_tolerance(w)
        assert repeated >= 3


# Entries at and around the zero tolerance 1e-9 (the spectra drawn below stay
# within radius 50), and exact, signed and subnormal zeros.
_NEAR_ZERO = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 3e-16, -3e-16, 1e-12, -1e-12]
_NEAR_ZERO += [x * 1e-9 for x in (0.5, 1 - 2**-52, 1.0, 1 + 2**-52, 2.0, 50.0)]
_NEAR_ZERO += [-x for x in _NEAR_ZERO[10:]]


@st.composite
def ascending_spectra(draw):
    entries = st.one_of(
        st.sampled_from(_NEAR_ZERO),
        st.floats(-50, 50, allow_nan=False),
        st.sampled_from([1.0, 2.0, 4.0, 50.0]),
    )
    w = np.sort(np.array(draw(st.lists(entries, max_size=12)), dtype=float))
    # an entry at the drawn spectrum's own tolerance, or just inside or outside it
    tol = 1e-9 * max([1.0] + [abs(float(x)) for x in w])
    at_tol = [tol, -tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0), -np.nextafter(tol, 1.0)]
    extra = draw(st.lists(st.sampled_from(at_tol), max_size=3))
    return np.sort(np.concatenate((w, np.array(extra, dtype=float))))


def _drawn_level(seed: int, n: int, rank: int):
    """A cover of a seeded multigraph with loops and parallel edges: a tower level."""
    return cover_of(random_connected_multigraph(random.Random(seed), n, rank))


class TestFastPathsAgainstTheirPredecessors:
    """lambda1_of, zero_run and canonical_basis equal the code they replaced, bit for bit."""

    @staticmethod
    def assert_zero_run_is_the_full_pass(w):
        assert len(w[zero_run(w)]) == zero_count_by_full_pass(w)
        summary = SpectralSummary(COMBINATORIAL, tuple(w.tolist()), lambda1_of(w), 0, 0)
        printed = summary.to_json_dict()["eigenvalues"]
        assert repr(printed) == repr(printed_eigenvalues_by_full_pass(w))

    @settings(max_examples=400, deadline=None)
    @given(ascending_spectra())
    def test_zero_run_is_the_full_pass(self, w):
        self.assert_zero_run_is_the_full_pass(w)

    def test_zero_run_corner_cases(self):
        above = np.nextafter(1e-9, 1.0)
        for w in [
            [], [0.0], [-0.0], [3.0], [0.0, 0.0, 0.0, 2.0], [-1e-9, 1e-9, 1.0],
            [-above, above], [-1e-12, 0.0, 5.0], [-1e-12, 4e-12, 1e-10],
        ]:
            self.assert_zero_run_is_the_full_pass(np.array(w, dtype=float))

    @settings(max_examples=400, deadline=None)
    @given(ascending_spectra())
    def test_lambda1_of_is_the_three_pass_scan(self, w):
        assert repr(lambda1_of(w)) == repr(lambda1_three_passes(w))
        radius = float(np.max(np.abs(w))) if len(w) else 0.0
        assert repr(zero_tolerance(w)) == repr(1e-9 * max(1.0, radius))

    def test_lambda1_corner_cases(self):
        for w, expected in [
            ([], None), ([0.0], None), ([-1e-12], None), ([5.0], 5.0), ([0.0, 0.0], 0.0),
            ([-1e-12, 3e-16, 2.0], 0.0), ([-1e-12, 2.0], 2.0), ([1e-9, 3.0], 3.0),
            ([1e-9, 1e-9 * (1 + 2**-52)], 1e-9 * (1 + 2**-52)),
        ]:
            w = np.array(w, dtype=float)
            assert repr(lambda1_of(w)) == repr(lambda1_three_passes(w)) == repr(expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 4), rank=st.integers(1, 4))
    def test_canonical_basis_on_drawn_levels(self, seed, n, rank):
        cover = _drawn_level(seed, n, rank)
        spans = []

        def recording(span):
            spans.append(span)
            return canonical_basis(span)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectrum_mod, "canonical_basis", recording)
            for kinds in ((COMBINATORIAL,), (NORMALIZED,)):
                laplacian_spectrum(cover.base, cover.spec.cotree_edges, kinds, vectors=True)
        for span in spans:
            new, old = canonical_basis(span), canonical_basis_by_column_stack(span)
            assert new.shape == old.shape and new.tobytes() == old.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.integers(1, 7), n=st.integers(1, 40))
    def test_canonical_basis_on_spans_with_twin_and_zero_columns(self, seed, k, n):
        # orthonormal rows, as an eigensolver returns them; repeated and zero
        # columns (twin and fixed vertices) are dependent pivot candidates
        rng = np.random.default_rng(seed)
        rows = np.linalg.qr(rng.standard_normal((max(k, n), k)))[0][:n].T
        columns = rng.integers(0, n, size=n + 4)
        span = rows[:, columns] * (rng.random(n + 4) > 0.2)
        if np.linalg.matrix_rank(span, tol=1e-3) < k:
            return
        new, old = canonical_basis(span), canonical_basis_by_column_stack(span)
        assert new.shape == old.shape and new.tobytes() == old.tobytes()

    def test_drawn_levels_have_repeated_lambda1(self):
        dims = set()
        for seed in range(40):
            cover = _drawn_level(seed, 1 + seed % 4, 1 + seed % 3)
            _, basis = laplacian_spectrum(cover.base, cover.spec.cotree_edges, vectors=True)
            dims.add(len(basis))
        assert {1, 2, 4} <= dims
