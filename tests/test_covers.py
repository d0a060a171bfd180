"""Cover construction, deck actions, and regular-cover verification."""
from __future__ import annotations

import dataclasses
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from covertower import (
    CoverSpec,
    DisconnectedGraphError,
    SizeCapError,
    build_graph,
    is_connected,
    iterate_tower,
    lemma_cut,
    spanning_tree,
    verify_regular_cover,
    z2_cover,
)
from covertower import multigraph, tower
from covertower.cli import main as cli_main
from covertower.multigraph import CoverLabels
from covertower.spectrum import (
    COMBINATORIAL,
    NORMALIZED,
    character_laplacians,
    laplacian_spectrum,
)

from conftest import (
    bouquet,
    complete,
    cover_of,
    cut_ratio,
    cycle,
    dense_laplacian,
    figure8,
    graph_json_oracle,
    loop_cover,
    loop_cut_ratio,
    loop_iterated_cover,
    loop_regular_cover_failures,
    path,
    random_connected_multigraph,
    rank_pi1,
    theta,
)


def find_isomorphism(g1, g2):
    """Brute-force vertex bijection matching edge multisets (tiny graphs only)."""
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return None
    target = Counter(g2.edges)
    for perm in itertools.permutations(range(g1.num_vertices)):
        mapped = Counter(
            tuple(sorted((perm[u], perm[v]))) for u, v in g1.edges
        )
        if mapped == target:
            return perm
    return None


def cayley_z2_square():
    """Cayley graph of (Z/2)^2 on its two standard generators, one edge per
    (element, generator) pair."""
    elements = [(0, 0), (1, 0), (0, 1), (1, 1)]
    index = {x: i for i, x in enumerate(elements)}
    edges = []
    for x in elements:
        for gen in [(1, 0), (0, 1)]:
            y = ((x[0] + gen[0]) % 2, (x[1] + gen[1]) % 2)
            edges.append((index[x], index[y]))
    return build_graph(4, edges)


def with_edges(cover, edges):
    """The cover with its edge list replaced, numbering and labels kept."""
    graph = dataclasses.replace(cover.graph, ends=np.array(edges, dtype=np.int64))
    return dataclasses.replace(cover, graph=graph)


class TestZ2Cover:
    def test_figure8_cover_counts(self, gamma1):
        assert gamma1.graph.num_vertices == 4
        assert gamma1.graph.num_edges == 8
        assert gamma1.rank == 2
        assert gamma1.sheets == 4

    def test_figure8_cover_is_doubled_four_cycle(self, gamma1):
        pair_counts = Counter(gamma1.graph.edges)
        assert sorted(pair_counts.values()) == [2, 2, 2, 2]
        simple = build_graph(4, sorted(pair_counts))
        assert find_isomorphism(simple, cycle(4)) is not None

    def test_figure8_cover_matches_independent_cayley_graph(self, gamma1):
        assert find_isomorphism(gamma1.graph, cayley_z2_square()) is not None

    def test_single_loop_cover(self):
        cov = cover_of(bouquet(1))
        assert cov.graph.num_vertices == 2
        assert cov.graph.edges == ((0, 1), (0, 1))

    def test_trivial_cover_of_tree(self):
        cov = cover_of(path(2))
        assert cov.rank == 0
        assert cov.graph.num_vertices == 2
        assert cov.graph.edges == path(2).edges

    def test_cotree_loop_never_lifts_to_loop(self):
        cov = cover_of(figure8())
        assert all(u != v for u, v in cov.graph.edges)

    def test_rejects_disconnected_base(self):
        g = build_graph(2, [(0, 0), (1, 1)])
        with pytest.raises(DisconnectedGraphError):
            cover_of(g)

    def test_rejects_cap_overflow(self):
        with pytest.raises(SizeCapError):
            z2_cover(figure8(), spanning_tree(figure8()), vertex_cap=3)

    def test_default_cap_refuses_a_rank_321_base(self):
        # A 2-vertex rank-6 seed's level 1 has 128 vertices and rank 321;
        # its cover is refused before numpy is asked for 2^321 sheets.
        seed = build_graph(2, [(0, 1)] * 3 + [(0, 0), (0, 0), (1, 1), (1, 1)])
        level1 = cover_of(seed).graph
        assert (level1.num_vertices, level1.num_edges) == (128, 448)
        with pytest.raises(SizeCapError, match=r"128 \* 2\^321 vertices, above the cap 1000000"):
            z2_cover(level1, spanning_tree(level1))

    def test_fiber_labels(self, gamma1):
        assert gamma1.graph.labels == ("0|00", "0|10", "0|01", "0|11")

    def test_lexicographic_vertex_order(self):
        cov = cover_of(theta())
        assert [divmod(vid, cov.sheets) for vid in range(cov.graph.num_vertices)] == [
            (v, a) for v in range(2) for a in range(4)
        ]
        assert [divmod(eid, cov.sheets) for eid in range(cov.graph.num_edges)] == [
            (e, a) for e in range(3) for a in range(4)
        ]


class TestDeckAction:
    """Deck element b acts on cover vertex and edge ids by XOR with b."""

    def test_identity(self, gamma1):
        assert tuple(x ^ 0 for x in range(gamma1.graph.num_vertices)) == tuple(range(4))
        assert tuple(x ^ 0 for x in range(gamma1.graph.num_edges)) == tuple(range(8))

    def test_antipodal_on_gamma1(self, gamma1):
        vmap = tuple(x ^ 0b11 for x in range(gamma1.graph.num_vertices))
        assert vmap == (3, 2, 1, 0)
        assert all(vmap[v] != v for v in range(4))

    def test_single_loop_swap(self):
        cov = cover_of(bouquet(1))
        assert tuple(x ^ 1 for x in range(cov.graph.num_vertices)) == (1, 0)
        assert tuple(x ^ 1 for x in range(cov.graph.num_edges)) == (1, 0)

    def test_deck_group_has_order_two_to_r(self, gamma1):
        perms = {
            tuple(x ^ b for x in range(gamma1.graph.num_vertices))
            for b in range(gamma1.sheets)
        }
        assert len(perms) == 4


THETA_COVER_EDGES = [
    (0, 4), (1, 5), (2, 6), (3, 7), (0, 5), (1, 4), (2, 7), (3, 6), (0, 6), (1, 7), (2, 4), (3, 5),
]


@pytest.fixture
def theta_cover():
    """theta's rank-2 cover, whose edge list the corruption tests edit."""
    cov = cover_of(theta())
    assert list(cov.graph.edges) == THETA_COVER_EDGES
    return cov


class TestVerifyRegularCover:
    def test_gamma1_all_checks_pass(self, gamma1):
        report = verify_regular_cover(gamma1)
        assert report.all_ok
        assert report.failures == ()
        # one orbit of the 4-element deck group over figure8's one vertex
        assert (gamma1.base.num_vertices, gamma1.sheets, gamma1.graph.num_vertices) == (1, 4, 4)

    def test_single_loop_cover_passes(self):
        cov = cover_of(bouquet(1))
        report = verify_regular_cover(cov)
        assert report.all_ok
        assert cov.graph.degrees == (2, 2)

    def test_wrong_vertex_count_is_reported_alone(self, theta_cover):
        nine = dataclasses.replace(theta_cover, graph=build_graph(9, THETA_COVER_EDGES))
        report = verify_regular_cover(nine)
        assert report.failures == ("vertex fibers are not a bijection onto V(base) x (Z/2)^r",)
        assert not report.all_ok

    def test_corrupted_fiber_fails_quotient_check(self, theta_cover):
        edges = list(THETA_COVER_EDGES)
        # move the endpoint over base vertex 1 to vertex 2, over base vertex 0:
        # the edge now projects to a loop the base does not have
        edges[0] = (0, 2)
        report = verify_regular_cover(with_edges(theta_cover, edges))
        assert report.failures == (
            "deck element 1 does not preserve incidence at edge 0",
            "cover edge 0 projects to (0, 0), not to base edge 0",
        )
        assert not report.all_ok

    def test_nonbijective_fiber_reported(self, theta_cover):
        report = verify_regular_cover(with_edges(theta_cover, THETA_COVER_EDGES[:-1]))
        assert report.failures == ("edge fibers are not a bijection onto E(base) x (Z/2)^r",)

    def test_first_failing_deck_element_is_reported(self, theta_cover):
        edges = list(THETA_COVER_EDGES)
        # Edges 0 and 1 are the sheets 0 and 1 of base edge 0: swapping them
        # commutes with deck element 1 but not with deck element 2, and keeps
        # every projection and star.
        edges[0], edges[1] = edges[1], edges[0]
        report = verify_regular_cover(with_edges(theta_cover, edges))
        assert report.failures == ("deck element 2 does not preserve incidence at edge 0",)

    def test_star_fault_is_caught_by_the_orbit_check(self, theta_cover):
        edges = list(THETA_COVER_EDGES)
        # (0, 5) still projects to base edge (0, 1), but vertex 0 now has
        # two lifts of base edge 0 in its star and vertex 1 none.  Edge 1 is
        # no longer edge 0 moved by deck element 1, so the orbit check fails.
        edges[1] = (0, 5)
        report = verify_regular_cover(with_edges(theta_cover, edges))
        assert report.failures == ("deck element 1 does not preserve incidence at edge 0",)

    def test_orbit_failure_names_the_first_bad_edge(self, theta_cover):
        edges = list(THETA_COVER_EDGES)
        # Edge 3 is sheet 3 of base edge 0, and (3, 5) still projects to
        # (0, 1).  Trying generator 1 over all edges would first fail at
        # edge 2, whose image edge 3 is moved; the fiber of base edge 0 is
        # the first bad fiber, and its first bad sheet is 3.
        edges[3] = (3, 5)
        report = verify_regular_cover(with_edges(theta_cover, edges))
        assert report.failures == ("deck element 3 does not preserve incidence at edge 0",)
        assert loop_regular_cover_failures(with_edges(theta_cover, edges))[0] == (
            "deck element 1 does not preserve incidence at edge 2"
        )

    @pytest.mark.parametrize("seed", range(64))
    def test_failures_match_the_loop_oracle(self, seed):
        # A base of 1-6 vertices with loops and parallel edges, covered along
        # a spanning tree's cotree or along a random edge set that keeps the
        # rest connected; ten edited copies, the last with an edge dropped.
        rng = random.Random(seed)
        base = random_connected_multigraph(rng, rng.randint(1, 6), rng.randint(1, 4))
        spec = spanning_tree(base)
        if seed % 2:
            spec = CoverSpec(random_edge_set(rng, base, 5))
            while not accepts(spec, base):
                spec = CoverSpec(random_edge_set(rng, base, 5))
        cov = z2_cover(base, spec)
        assert verify_regular_cover(cov).all_ok
        kinds = ["swap", "move", "copy"] + ["swap in fiber", "xor"] * (cov.rank > 0)
        for copy in range(10):
            edges = list(cov.graph.edges)
            for _ in range(rng.randint(1, 2)):
                i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
                kind = rng.choice(kinds)
                if kind == "swap in fiber":
                    j = i ^ (1 << rng.randrange(cov.rank))
                    edges[i], edges[j] = edges[j], edges[i]
                elif kind == "swap":
                    edges[i], edges[j] = edges[j], edges[i]
                elif kind == "move":
                    w = rng.randrange(cov.graph.num_vertices)
                    edges[i] = tuple(sorted((edges[i][0], w)))
                elif kind == "xor":
                    # both ends moved by one nonzero deck element
                    a = rng.randrange(1, cov.sheets)
                    edges[i] = tuple(sorted((edges[i][0] ^ a, edges[i][1] ^ a)))
                else:
                    edges[i] = edges[j]
            if copy == 9:
                del edges[rng.randrange(len(edges))]
            corrupted = with_edges(cov, edges)
            report = verify_regular_cover(corrupted)
            expected = loop_regular_cover_failures(corrupted)
            assert report.all_ok == (not expected), (base.edges, spec, edges)
            if copy == 9:
                assert list(report.failures) == expected


CORPUS = [
    figure8(),
    bouquet(1),
    bouquet(3),
    theta(),
    cycle(3),
    cycle(4),
    cycle(6),
    path(2),
    path(4),
    complete(4),
]


class TestCoverProperties:
    @pytest.mark.parametrize("base", CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}")
    def test_sheets_connectivity_degrees(self, base):
        cov = cover_of(base)
        sheets = 1 << rank_pi1(base)
        assert cov.graph.num_vertices == base.num_vertices * sheets
        assert cov.graph.num_edges == base.num_edges * sheets
        assert is_connected(cov.graph)
        for vid in range(cov.graph.num_vertices):
            assert cov.graph.degrees[vid] == base.degrees[divmod(vid, cov.sheets)[0]]

    @pytest.mark.parametrize("base", CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}")
    def test_regular_cover_checks(self, base):
        report = verify_regular_cover(cover_of(base))
        assert report.all_ok, report.failures

    def test_gamma2_regular_cover(self, gamma2):
        assert gamma2.graph.num_vertices == 128
        assert gamma2.graph.num_edges == 256
        assert gamma2.rank == 5
        report = verify_regular_cover(gamma2)
        assert report.all_ok, report.failures
        assert gamma2.base.num_vertices == 4  # one deck orbit per base vertex

    @pytest.mark.parametrize("base", CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}")
    def test_tower_rank_column_matches_traversal(self, base):
        report = iterate_tower(base, 1)
        levels = [base, cover_of(base).graph]
        assert [row.rank for row in report.levels] == [rank_pi1(g) for g in levels]

    def test_triangle_cover_is_hexagon(self):
        cov = cover_of(cycle(3))
        assert find_isomorphism(cov.graph, cycle(6)) is not None


def without_edges(g, dropped):
    """g with the edge ids in dropped removed."""
    return build_graph(g.num_vertices, [uv for e, uv in enumerate(g.edges) if e not in dropped])


def random_edge_set(rng: random.Random, g, most: int) -> tuple[int, ...]:
    """Up to `most` distinct edge ids of g, in random order."""
    return tuple(rng.sample(range(g.num_edges), rng.randint(0, min(most, g.num_edges))))


def dense_spectrum(g, kind):
    return np.linalg.eigvalsh(dense_laplacian(g, kind))


def accepts(spec, g) -> bool:
    try:
        spec.validate_for(g)
    except DisconnectedGraphError:
        return False
    return True


class TestIntermediateCovers:
    """Covers along any edge set S, not only the cotree of a spanning tree."""

    def test_cover_is_connected_exactly_when_the_rest_is(self):
        # Any multigraph, connected or not, with loops and parallel edges;
        # the loop oracle builds the cover without validating S.
        rng = random.Random(7)
        verdicts = Counter()
        for _ in range(1000):
            n = rng.randint(1, 7)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
            g = build_graph(n, edges)
            cotree = random_edge_set(rng, g, 6)
            oracle = loop_cover(g, CoverSpec(cotree))
            connected = is_connected(build_graph(oracle.num_vertices, oracle.edges))
            assert connected == is_connected(without_edges(g, set(cotree))), (g.edges, cotree)
            assert connected == accepts(CoverSpec(cotree), g)
            verdicts[connected] += 1
        assert min(verdicts.values()) > 200, verdicts

    def test_corpus_of_covers_along_edge_sets(self):
        rng = random.Random(20261019)
        refused = built = 0
        for _ in range(600):
            base = random_connected_multigraph(rng, rng.randint(2, 6), rng.randint(0, 4))
            spec = CoverSpec(random_edge_set(rng, base, 5))
            if not is_connected(without_edges(base, set(spec.cotree_edges))):
                with pytest.raises(DisconnectedGraphError):
                    z2_cover(base, spec)
                refused += 1
                continue
            cover = z2_cover(base, spec)
            built += 1
            assert is_connected(cover.graph)
            report = verify_regular_cover(cover)
            assert report.all_ok, report.failures
            for kind in (COMBINATORIAL, NORMALIZED):
                (w,), _ = laplacian_spectrum(base, spec.cotree_edges, (kind,))
                assert np.allclose(w, dense_spectrum(cover.graph, kind), rtol=0, atol=1e-9)
            if spec.rank:
                assert lemma_cut(cover).value == Fraction(2, base.num_vertices)
        assert refused > 100 and built > 100, (refused, built)

    def test_two_lift_adds_the_signed_block(self):
        rng = random.Random(11)
        lifts = 0
        for _ in range(40):
            base = random_connected_multigraph(rng, rng.randint(2, 6), rng.randint(1, 4))
            for e in range(base.num_edges):
                if not is_connected(without_edges(base, {e})):
                    continue
                cover = z2_cover(base, CoverSpec((e,)))
                for kind in (COMBINATORIAL, NORMALIZED):
                    signed = np.linalg.eigvalsh(character_laplacians(base, (e,), (kind,))[0][1])
                    union = np.sort(np.concatenate((dense_spectrum(base, kind), signed)))
                    assert np.allclose(
                        dense_spectrum(cover.graph, kind), union, rtol=0, atol=1e-9
                    )
                lifts += 1
        assert lifts > 40, lifts


class TestOrientationIndependence:
    """Over Z/2 a cotree edge's direction does not change the cover: the
    per-edge oracle drawing one cotree edge head to tail builds the same
    edge multiset, with the ids in that edge's fiber swapped."""

    @pytest.mark.parametrize(
        "base", [figure8(), theta(), cycle(4), bouquet(3)],
        ids=lambda g: f"V{g.num_vertices}E{g.num_edges}",
    )
    def test_flip_yields_same_undirected_cover(self, base):
        spec = spanning_tree(base)
        original = z2_cover(base, spec)
        for position in range(spec.rank):
            flipped = loop_cover(base, spec, {position})
            # same vertex set and same edge multiset: the identity on vertices
            # is an isomorphism
            assert flipped.num_vertices == original.graph.num_vertices
            assert Counter(flipped.edges) == Counter(original.graph.edges)

    def test_explicit_edge_relabeling(self):
        base = theta()
        spec = spanning_tree(base)
        original = z2_cover(base, spec)
        position = 1
        flipped = loop_cover(base, spec, {position})
        e_j = spec.cotree_edges[position]
        flip = 1 << position
        sheets = original.sheets
        for a in range(sheets):
            flipped_eid = e_j * sheets + a
            original_eid = e_j * sheets + (a ^ flip)
            assert flipped.edges[flipped_eid] == original.graph.edges[original_eid]
        for eid in range(original.graph.num_edges):
            if divmod(eid, original.sheets)[0] != e_j:
                assert flipped.edges[eid] == original.graph.edges[eid]


def loop_json(oracle) -> str:
    doc = {"schema": 1, "vertices": oracle.num_vertices, "labels": list(oracle.labels),
           "edges": [list(e) for e in oracle.edges]}
    return json.dumps(doc, indent=2) + "\n"


def loop_dot(oracle) -> str:
    lines = ["graph G {"]
    if oracle.labels is None:
        lines += [f"  {v};" for v in range(oracle.num_vertices)]
    else:
        escaped = [label.replace("\\", "\\\\").replace('"', '\\"') for label in oracle.labels]
        lines += [f'  {v} [label="{label}"];' for v, label in enumerate(escaped)]
    lines += [f"  {u} -- {v};" for u, v in oracle.edges]
    return "\n".join(lines + ["}"]) + "\n"


_ORACLE_RNG = random.Random(20261018)
ORACLE_CORPUS = CORPUS + [
    random_connected_multigraph(_ORACLE_RNG, _ORACLE_RNG.randint(1, 7), _ORACLE_RNG.randint(0, 5))
    for _ in range(50)
]


def rank10_seed():
    """8 vertices, rank 10: the cover has 8,192 vertices and 17,408 edges."""
    return random_connected_multigraph(random.Random(11), 8, 10)


class TestLoopOracles:
    """The array cover, export and recount agree with the per-edge loops."""

    @staticmethod
    def check(base):
        spec = spanning_tree(base)
        cov = z2_cover(base, spec)
        oracle = loop_cover(base, spec)
        g = cov.graph
        assert g.num_vertices == oracle.num_vertices
        assert g.edges == oracle.edges
        assert g.labels == oracle.labels
        assert [divmod(v, cov.sheets) for v in range(g.num_vertices)] == oracle.vertex_fibers
        assert [divmod(e, cov.sheets) for e in range(g.num_edges)] == oracle.edge_fibers
        assert g.to_json() == loop_json(oracle)
        assert g.to_dot() == loop_dot(oracle)
        if g.num_vertices < 2:
            return
        rng = random.Random(g.num_vertices)
        sides = [rng.sample(range(g.num_vertices), rng.randint(1, g.num_vertices - 1))
                 for _ in range(3)]
        if cov.rank:
            sides.append(lemma_cut(cov).witness.side_a)
        for side in sides:
            cut = cut_ratio(g, side)
            assert (cut.crossing_edges, cut.ratio) == loop_cut_ratio(
                g.num_vertices, oracle.edges, side
            )

    def test_corpus_has_loops_and_parallel_edges(self):
        assert any(u == v for g in ORACLE_CORPUS for u, v in g.edges)
        assert any(max(Counter(g.edges).values(), default=0) > 1 for g in ORACLE_CORPUS[10:])

    @pytest.mark.parametrize(
        "base", ORACLE_CORPUS, ids=lambda g: f"V{g.num_vertices}E{g.num_edges}"
    )
    def test_small_bases(self, base):
        self.check(base)

    def test_rank10_seed(self):
        self.check(rank10_seed())


class TestExportBlocks:
    """The block edge formatter agrees with the encoder and the loop oracle on
    degenerate graphs, across decimal-width changes and across blocks."""

    @pytest.mark.parametrize(
        "g",
        [
            build_graph(0, []),
            build_graph(4, []),
            build_graph(3, [], labels=["a", "b", "c"]),
            build_graph(1, [(0, 0)] * 3),
            build_graph(12, [(11, 11), (0, 0), (11, 11)]),
            # ids crossing 9->10, 99->100 and 999->1000 in one graph, 1,004 edges
            build_graph(
                1001,
                [(i, i + 1) for i in range(1000)] + [(9, 10), (99, 100), (999, 1000), (0, 1000)],
            ),
            build_graph(11, [(i, i + 1) for i in range(10)] + [(0, 10)] * 4),
        ],
        ids=["empty", "edgeless", "edgeless-labelled", "loops", "loops-2-digits",
             "widths-1-to-4", "widths-1-to-2"],
    )
    @pytest.mark.parametrize("chunk", [1, 7, 14, 1 << 16])
    def test_matches_encoder_and_loop_oracle(self, g, chunk, monkeypatch):
        monkeypatch.setattr(multigraph, "_EDGE_CHUNK", chunk)
        assert g.to_json() == graph_json_oracle(g)
        assert g.to_dot() == loop_dot(g)


ESCAPED_NAMES = ['q"uote', "back\\slash", "für ∞ ☃", ""]


class TestDerivedLabels:
    """Cover labels derived from ids agree with the eager per-vertex oracle."""

    @pytest.mark.parametrize(
        "base, steps",
        [
            (figure8(), 2),
            (theta(), 2),
            (cycle(3), 3),
            (bouquet(1), 3),
            (build_graph(2, [(0, 1)] * 3, labels=ESCAPED_NAMES[:2]), 2),
            (build_graph(4, [(i, (i + 1) % 4) for i in range(4)], labels=ESCAPED_NAMES), 3),
        ],
        ids=["figure8", "theta", "cycle3", "bouquet1", "theta-escaped", "cycle4-escaped"],
    )
    def test_iterated_covers(self, base, steps):
        g = base
        for _ in range(steps):
            g = cover_of(g).graph
        eager = loop_iterated_cover(base, steps)
        assert isinstance(g.labels, CoverLabels) and isinstance(eager.labels, tuple)
        assert g.labels == eager.labels and eager.labels == g.labels
        assert tuple(g.labels) == eager.labels and len(g.labels) == len(eager.labels)
        assert g.to_json() == loop_json(eager) == graph_json_oracle(g)
        assert g.to_dot() == loop_dot(eager)
        assert g == eager and eager == g
        with pytest.raises(TypeError, match="unhashable"):
            hash(g.labels)
        relabelled = build_graph(eager.num_vertices, eager.edges, eager.labels[:-1] + ("x",))
        assert g != relabelled and relabelled != g

    def test_rank0_steps_between_positive_ranks(self):
        labels = CoverLabels(("a", 'b"'), (0, 2, 0), 8)
        expected = [f"{name}||{bits}|" for name in ("a", 'b"') for bits in ("00", "10", "01", "11")]
        assert list(labels) == expected and labels == tuple(expected)
        eager = build_graph(8, [], labels=expected)
        lazy = dataclasses.replace(eager, labels=labels)
        assert lazy.to_json() == loop_json(eager) and lazy.to_dot() == loop_dot(eager)

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_rank0_cover_iterated(self, tmp_path, capsys, fmt):
        base = build_graph(4, [(0, 1), (1, 2), (2, 3)], labels=ESCAPED_NAMES)
        path = tmp_path / "path4.json"
        path.write_text(base.to_json())
        assert cli_main(["cover", str(path), "--iterate", "3", "--format", fmt]) == 0
        eager = loop_iterated_cover(base, 3)
        assert capsys.readouterr().out == (loop_json(eager) if fmt == "json" else loop_dot(eager))


class TestArrayNative:
    def test_cover_holds_only_its_edge_array(self):
        # 8 vertices and rank 13: the cover has 65,536 vertices.
        base = random_connected_multigraph(random.Random(13), 8, 13)
        spec = spanning_tree(base)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cov = z2_cover(base, spec)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cov.graph.num_vertices == 65536
        # Eager label strings held 4.5 MB more.
        assert held <= cov.graph.ends.nbytes + 64 * 1024

    def test_tower_never_reads_cover_labels(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("read a cover label")

        for name in ("__iter__", "parts"):
            monkeypatch.setattr(CoverLabels, name, refuse)
        report = iterate_tower(rank10_seed(), 2)
        assert [row.vertices for row in report.levels[:2]] == [8, 8192]
        # figure8 L2 covers a cover, whose labels are derived in turn.
        report = iterate_tower(figure8(), 2)
        assert [row.vertices for row in report.levels] == [1, 4, 128]

    def test_cover_peak_memory(self):
        base = rank10_seed()
        spec = spanning_tree(base)
        tracemalloc.start()
        try:
            cov = z2_cover(base, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cov.graph.num_vertices == 8192
        # The per-edge tuple build peaked at 3.0 MB.
        assert peak < 2.2 * 10**6

    def test_verify_peak_memory(self):
        base = rank10_seed()
        cov = z2_cover(base, spanning_tree(base))
        tracemalloc.start()
        try:
            report = verify_regular_cover(cov)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_ok
        # The orbit check's (17, 1024) temporaries peak at 0.44 MiB; the
        # per-generator loop and the star sort peaked at 1.6 MiB.
        assert peak < 0.8 * 2**20

    def test_tower_never_builds_the_edge_tuples_of_a_cover(self, monkeypatch):
        covers = []

        def recording(*args, **kwargs):
            covers.append(z2_cover(*args, **kwargs))
            return covers[-1]

        monkeypatch.setattr(tower, "z2_cover", recording)
        report = iterate_tower(rank10_seed(), 2)
        assert [row.vertices for row in report.levels[:2]] == [8, 8192]
        assert len(covers) == 1
        assert "edges" not in vars(covers[0].graph)
