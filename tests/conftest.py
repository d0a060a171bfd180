"""Shared graph builders and session fixtures."""
from __future__ import annotations

import pytest

from covertower import CoverSpec, MultiGraph, build_graph, spanning_tree, z2_cover
from covertower.covers import CoveredGraph
from covertower.multigraph import component_count


def figure8() -> MultiGraph:
    return build_graph(1, [(0, 0), (0, 0)])


def theta() -> MultiGraph:
    return build_graph(2, [(0, 1), (0, 1), (0, 1)])


def cycle(n: int) -> MultiGraph:
    if n == 1:
        return build_graph(1, [(0, 0)])
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def bouquet(r: int) -> MultiGraph:
    return build_graph(1, [(0, 0)] * r)


def complete(n: int) -> MultiGraph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def doubled_cycle(n: int) -> MultiGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges + edges)


def circulant(n: int, steps: tuple[int, ...]) -> MultiGraph:
    """Simple circulant graph: i ~ i + s (mod n) for each step s."""
    pairs = set()
    for s in steps:
        for i in range(n):
            j = (i + s) % n
            if i != j:
                pairs.add((min(i, j), max(i, j)))
    return build_graph(n, sorted(pairs))


def path(n: int) -> MultiGraph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cover_of(g: MultiGraph) -> CoveredGraph:
    return z2_cover(g, spanning_tree(g))


def rank_pi1(g: MultiGraph) -> int:
    """Rank of the fundamental group: #E - #V + #components."""
    return g.num_edges - g.num_vertices + component_count(g)


def flip_cotree_orientation(spec: CoverSpec, position: int) -> CoverSpec:
    """The spec with the cotree edge at ``position`` directed the other way."""
    cotree = list(spec.cotree_edges)
    e, tail, head = cotree[position]
    cotree[position] = (e, head, tail)
    return CoverSpec(tree_edges=spec.tree_edges, cotree_edges=tuple(cotree))


@pytest.fixture(scope="session")
def gamma1() -> CoveredGraph:
    return cover_of(figure8())


@pytest.fixture(scope="session")
def gamma2(gamma1) -> CoveredGraph:
    return cover_of(gamma1.graph)
