"""Multigraph core: construction, traversal, spanning trees, serialization."""
from __future__ import annotations

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertower import (
    CoverSpec,
    MultiGraph,
    ValidationError,
    build_graph,
    is_connected,
    spanning_tree,
    z2_cover,
)
from covertower.errors import DisconnectedGraphError, SizeCapError, SpecMismatchError
from covertower.multigraph import component_count

from conftest import (
    bfs_cotree,
    bouquet,
    cycle,
    figure8,
    graph_json_oracle,
    path,
    rank_pi1,
    theta,
    union_find_validate,
)


def multigraphs(max_vertices: int = 7, max_edges: int = 12):
    """Random small multigraphs with loops and parallel edges."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_vertices))
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=max_edges,
            )
        )
        return build_graph(n, edges)

    return build()


class TestBuildGraph:
    def test_figure8(self):
        g = figure8()
        assert g.num_vertices == 1
        assert g.num_edges == 2
        assert g.edges == ((0, 0), (0, 0))

    def test_empty(self):
        g = build_graph(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_theta(self):
        g = theta()
        assert g.num_vertices == 2
        assert g.edges == ((0, 1), (0, 1), (0, 1))

    def test_canonicalizes_orientation(self):
        g = build_graph(3, [(2, 0), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))

    def test_endpoint_out_of_range_names_edge(self):
        with pytest.raises(ValidationError, match="edge 1"):
            build_graph(2, [(0, 1), (0, 5)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="edge 0"):
            build_graph(2, [(-1, 0)])

    def test_labels_length_checked(self):
        with pytest.raises(ValidationError):
            build_graph(2, [(0, 1)], labels=["a"])


class TestDegree:
    def test_figure8_loop_counts_twice(self):
        assert figure8().degrees[0] == 4

    def test_theta(self):
        assert theta().degrees == (3, 3)

    def test_path_endpoint(self):
        assert path(2).degrees[0] == 1


# a triangle 0-1-2 with a pendant vertex 3 on the bridge 2-3
TRIANGLE_AND_PENDANT = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


class TestSpanningTree:
    def test_figure8_all_cotree(self):
        spec = spanning_tree(figure8())
        assert spec.cotree_edges == (0, 1)
        assert spec.rank == 2

    def test_triangle(self):
        spec = spanning_tree(cycle(3))
        assert spec.cotree_edges == (1,)
        assert spec.rank == 1

    def test_tree_has_empty_cotree(self):
        spec = spanning_tree(path(5))
        assert spec.cotree_edges == ()

    def test_validate_for_accepts_own_graph(self):
        g = theta()
        spanning_tree(g).validate_for(g)

    @pytest.mark.parametrize("cotree", [(), (0,), (1,), (2,)])
    def test_validate_for_accepts_a_connected_remainder(self, cotree):
        # the rest still spans with any one triangle edge out (two would
        # cut off the vertex they share)
        CoverSpec(cotree).validate_for(TRIANGLE_AND_PENDANT)

    @pytest.mark.parametrize(
        "cotree, error, message",
        [
            # edge 2 listed twice
            ((2, 2), SpecMismatchError, "listed twice"),
            # the graph has edges 0..3 only
            ((4,), SpecMismatchError, "not an edge id"),
            # True is not an edge id, though it compares equal to 1
            ((True,), SpecMismatchError, "not an edge id"),
            # the whole cycle 0-1-2: only the bridge 2-3 is left
            ((0, 1, 2), DisconnectedGraphError, "disconnected"),
            # the bridge 2-3: the rest misses vertex 3
            ((3,), DisconnectedGraphError, "disconnected"),
            # the cut set around vertex 0
            ((2, 0), DisconnectedGraphError, "disconnected"),
        ],
        ids=["repeated", "out-of-range", "bool", "cycle", "non-maximal", "cut-set"],
    )
    def test_validate_for_rejects_bad_specs(self, cotree, error, message):
        with pytest.raises(error, match=message):
            CoverSpec(cotree).validate_for(TRIANGLE_AND_PENDANT)

    def test_validate_for_rejects_foreign_graph(self):
        # theta's cotree (1, 2) leaves the triangle only edge 0-1
        with pytest.raises(DisconnectedGraphError):
            spanning_tree(theta()).validate_for(cycle(3))
        with pytest.raises(SpecMismatchError, match="cotree edge 3 is not an edge id"):
            spanning_tree(bouquet(4)).validate_for(cycle(3))

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_rank_consistent(self, g):
        first = spanning_tree(g)
        second = spanning_tree(g)
        assert first == second
        assert first.rank == rank_pi1(g)
        # a maximal forest spans g exactly when g is connected
        if is_connected(g):
            first.validate_for(g)
        else:
            with pytest.raises(DisconnectedGraphError):
                first.validate_for(g)


@st.composite
def split_multigraphs(draw):
    """0-30 vertices, sparse enough to leave isolated vertices and several
    components, with loops and parallel copies in shuffled edge order."""
    n = draw(st.integers(min_value=0, max_value=30))
    if n == 0:
        return build_graph(0, [])
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=n + 5))
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=4))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    return build_graph(n, draw(st.permutations(edges)))


class TestSpanningTreeParity:
    """spanning_tree leaves out the edges that conftest's list walk leaves out."""

    @given(split_multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_list_walk(self, g):
        assert spanning_tree(g).cotree_edges == bfs_cotree(g)

    @pytest.mark.parametrize(
        "seed, levels",
        [(figure8(), 2), (theta(), 2), (bouquet(3), 1), (cycle(3), 12)],
        ids=["figure8-L2", "theta-L2", "bouquet3-L1", "cycle3-L12"],
    )
    def test_matches_the_list_walk_up_a_tower(self, seed, levels):
        # each level is covered along the reference's own tree
        g = seed
        for _ in range(levels):
            cotree = bfs_cotree(g)
            assert spanning_tree(g).cotree_edges == cotree
            g = z2_cover(g, CoverSpec(cotree)).graph
        assert spanning_tree(g).cotree_edges == bfs_cotree(g)


def test_tree_memory_peak_on_cycle3_level14():
    """At 49,152 vertices and as many edges, the tree and its check peak
    at 9.4 MiB of traced memory, nearly all of it the walk's lists: each
    endpoint's other end (98,304 entries), each vertex's first endpoint
    and seen flag, and the positions taken.  The 13 MiB bound leaves
    3.6 MiB of slack; per-vertex tuples of (edge id, other end) in place
    of those lists peak at 17.8 MiB."""
    g = cycle(3)
    for _ in range(14):
        g = z2_cover(g, spanning_tree(g)).graph
    assert g.num_vertices == g.num_edges == 49_152
    tracemalloc.start()
    try:
        spanning_tree(g).validate_for(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20


def kruskal_cotree(g: MultiGraph, order: list[int]) -> list[int]:
    """The edges a maximal forest grown in the given edge order leaves out."""
    component = list(range(g.num_vertices))
    cotree = []
    for e in order:
        u, v = g.edges[e]
        if component[u] == component[v]:
            cotree.append(e)
        else:
            old = component[u]
            component = [component[v] if c == old else c for c in component]
    return cotree


def rejection(check, spec: CoverSpec, g: MultiGraph) -> tuple[type, str] | None:
    try:
        check(spec, g)
    except (SpecMismatchError, DisconnectedGraphError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def graphs_with_cotrees(draw):
    """A multigraph and a cotree: a maximal forest's, any edge subset, or bad ids."""
    g = draw(multigraphs())
    ids = list(range(g.num_edges))
    kind = draw(st.sampled_from(["own", "kruskal", "subset", "repeat", "bool", "out-of-range"]))
    if kind == "own":
        return g, list(spanning_tree(g).cotree_edges)
    cotree = (
        draw(st.lists(st.sampled_from(ids), unique=True)) if kind == "subset" and ids
        else kruskal_cotree(g, draw(st.permutations(ids)))
    )
    cotree = draw(st.permutations(cotree))
    if kind == "repeat" and ids:
        cotree.insert(draw(st.integers(0, len(cotree))), draw(st.sampled_from(ids)))
    elif kind == "bool":
        cotree.insert(draw(st.integers(0, len(cotree))), draw(st.booleans()))
    elif kind == "out-of-range":
        bad = draw(st.sampled_from([-1, g.num_edges, g.num_edges + 5, 2**70]))
        cotree.insert(draw(st.integers(0, len(cotree))), bad)
    return g, cotree


class TestValidateForParity:
    """validate_for gives the verdicts of the union-find reference in conftest."""

    @given(graphs_with_cotrees())
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_rejects_as_union_find(self, case):
        g, cotree = case
        spec = CoverSpec(tuple(cotree))
        assert rejection(CoverSpec.validate_for, spec, g) == rejection(
            union_find_validate, spec, g
        )


class TestConnectivityAndMetrics:
    def test_figure8_connected(self):
        assert is_connected(figure8())
        assert component_count(figure8()) == 1

    def test_two_isolated_vertices(self):
        g = build_graph(2, [])
        assert not is_connected(g)
        assert component_count(g) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_component_count_matches_the_spanning_forest(self, seed):
        # A maximal forest has #V - #components edges.
        rng = random.Random(seed)
        for n in range(31):
            for _ in range(4):
                edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
                edges += [(v, v) for v in rng.sample(range(n), min(n, 3))]  # loops
                edges += rng.sample(edges, min(len(edges), 4))  # parallel copies
                g = build_graph(n, edges)
                assert component_count(g) == n - g.num_edges + spanning_tree(g).rank

    def test_component_count_of_large_and_split_graphs(self):
        n = 100_000
        assert component_count(cycle(n)) == 1
        ids = np.random.default_rng(0).permutation(n)
        shuffled_path = MultiGraph(n, np.sort(np.column_stack((ids[:-1], ids[1:])), axis=1))
        assert component_count(shuffled_path) == 1
        two_cycles = build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert component_count(two_cycles) == 2

    def test_degree_sequence_sorted(self):
        g = build_graph(3, [(0, 1), (0, 1), (0, 2)])
        assert sorted(g.degrees) == [1, 2, 3]


class TestRank:
    def test_figure8_is_rank_two(self):
        assert rank_pi1(figure8()) == spanning_tree(figure8()).rank == 2

    def test_doubled_four_cycle_is_rank_five(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2)
        # 8 - 4 + 1, matching #V + 1 on tower levels
        assert rank_pi1(g) == spanning_tree(g).rank == 5

    def test_trees_have_rank_zero(self):
        assert rank_pi1(path(6)) == spanning_tree(path(6)).rank == 0

    def test_bouquet_rank_is_loop_count(self):
        assert rank_pi1(bouquet(5)) == spanning_tree(bouquet(5)).rank == 5


class TestProperties:
    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_handshake(self, g):
        assert sum(g.degrees) == 2 * g.num_edges

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip(self, g):
        assert MultiGraph.from_json(g.to_json()) == g

    def test_json_roundtrip_with_labels(self):
        g = build_graph(2, [(0, 1)], labels=["x", "y"])
        assert MultiGraph.from_json(g.to_json()) == g

    @pytest.mark.parametrize(
        "g",
        [
            theta(),
            build_graph(3, [(0, 1), (1, 2)], labels=['q"uote', "back\\slash", "für ∞ ☃"]),
            build_graph(3, []),
            build_graph(0, []),
            build_graph(0, [], labels=[]),
        ],
        ids=["no-labels", "escaped-labels", "no-edges", "no-vertices", "no-vertices-labelled"],
    )
    def test_json_text_matches_standard_encoder(self, g):
        assert g.to_json() == graph_json_oracle(g)

    def test_json_text_of_a_large_cover_matches_standard_encoder(self):
        # An 8-vertex rank-10 seed, as in the tower-build benchmark: 8,192
        # labelled vertices and 17,408 edges.
        seed = build_graph(
            8,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 0), (0, 5),
             (1, 1), (1, 6), (2, 6), (2, 7), (3, 3), (3, 7), (4, 6), (5, 5)],
        )
        g = z2_cover(seed, spanning_tree(seed)).graph
        assert (g.num_vertices, g.num_edges, g.labels is not None) == (8192, 17408, True)
        assert g.to_json() == graph_json_oracle(g)

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_json_text_matches_standard_encoder_on_random_graphs(self, g):
        assert g.to_json() == graph_json_oracle(g)

    def test_json_deterministic(self):
        g = theta()
        assert g.to_json() == g.to_json()

    def test_json_schema_field(self):
        doc = json.loads(theta().to_json())
        assert doc["schema"] == 1
        assert doc["vertices"] == 2
        assert doc["edges"] == [[0, 1], [0, 1], [0, 1]]

    def test_json_rejects_bad_schema(self):
        with pytest.raises(ValidationError):
            MultiGraph.from_json('{"schema": 9, "vertices": 1, "edges": []}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices": true, "edges": []}',
            '{"vertices": 2, "edges": [[false, 1]]}',
            '{"vertices": 2, "edges": [[0, true]]}',
        ],
    )
    def test_json_rejects_booleans_as_integers(self, text):
        with pytest.raises(ValidationError):
            MultiGraph.from_json(text)

    @pytest.mark.parametrize(
        "edge", ['[0, 1, 1]', '5', 'null', '{"a": 0, "b": 1}', '"01"', '[0, true]']
    )
    def test_json_rejects_edges_that_are_not_id_pairs(self, edge):
        with pytest.raises(ValidationError, match="edge 0 "):
            MultiGraph.from_json(f'{{"vertices": 2, "edges": [{edge}, [0, 1]]}}')

    def test_build_graph_rejects_booleans(self):
        with pytest.raises(ValidationError):
            build_graph(True, [])
        with pytest.raises(ValidationError, match="edge 0"):
            build_graph(2, [(True, 0)])

    def test_json_accepts_missing_schema(self):
        g = MultiGraph.from_json('{"vertices": 2, "edges": [[1, 0]]}')
        assert g.edges == ((0, 1),)

    def test_dot_export(self):
        dot = figure8().to_dot()
        assert dot == "graph G {\n  0;\n  0 -- 0;\n  0 -- 0;\n}\n"

    def test_dot_with_labels(self):
        g = build_graph(2, [(0, 1)], labels=['a"b', "c"])
        dot = g.to_dot()
        assert '0 [label="a\\"b"];' in dot
        assert "0 -- 1;" in dot


class TestEdgeArray:
    def test_ends_is_a_read_only_int64_array(self):
        g = theta()
        assert g.ends.dtype == np.int64 and g.ends.shape == (3, 2)
        with pytest.raises(ValueError):
            g.ends[0, 0] = 1

    def test_edges_view_is_derived_on_first_use(self):
        g = build_graph(3, [(2, 0), (1, 1)])
        assert "edges" not in vars(g)
        assert g.edges == ((0, 2), (1, 1))
        assert "edges" in vars(g)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1], [2, 1], [0, 5]], r"edge 1 has endpoints \(2, 1\) outside 0\.\.2"),
            ([[0, 1], [0, 5]], r"edge 1 has endpoints \(0, 5\)"),
            ([[-1, 0]], r"edge 0 has endpoints \(-1, 0\)"),
        ],
    )
    def test_first_bad_row_named(self, rows, message):
        with pytest.raises(ValidationError, match=message):
            MultiGraph(3, np.array(rows))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            MultiGraph(3, np.array([0, 1, 2]))

    def test_equality_and_hash_follow_the_content(self):
        g = build_graph(2, [(1, 0), (0, 0)], labels=["a", "b"])
        same = MultiGraph(2, np.array([[0, 1], [0, 0]]), ("a", "b"))
        assert g == same
        with pytest.raises(TypeError, match="unhashable"):
            hash(g)
        assert g != build_graph(2, [(0, 1), (0, 0)])
        assert g != build_graph(2, [(0, 0), (0, 1)], labels=["a", "b"])
        assert g != "not a graph"

    def test_vertex_ids_above_int64_refused(self):
        with pytest.raises(SizeCapError):
            build_graph(2**64, [(0, 2**63)])
