"""Z/2 covers of multigraphs along sets of edges, and their deck transformations.

A cover of rank r is named by r distinct edge ids S_0..S_{r-1} (a
``CoverSpec``).  It has vertex set V x (Z/2)^r and edge set E x (Z/2)^r:
for the edge row (u, v) of e, the edge (e, a) joins (u, a) to
(v, a + flip[e]), where flip[S_j] = e_j flips coordinate j only and the
other edges have flip 0; bit j of an integer holds coordinate j, so
e_j = 1 << j.  A loop in S lifts to edges between sheets, never to loops.

The cover is connected exactly when G - S is.  If G - S has a spanning
tree, each S_j closes a cycle through itself alone.  If not, every closed
walk crosses the edges of S leaving a component an even number of times,
so it keeps the parity of the sheet's bits at those edges.  The homology
cover takes S = the cotree of a spanning tree; a 2-lift takes S = (e,).

Cover vertex (v, a) gets id v * 2^r + a, and similarly for edges, i.e. ids
are lexicographic in (base id, bitvector-as-integer).  The cover's edge
array is one broadcast of the base's edge rows against the 2^r bitvectors
and its labels are read from the ids, so building a level runs no Python
per cover vertex or edge.  verify_regular_cover reads the same arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError
from .multigraph import CoverLabels, CoverSpec, MultiGraph

DEFAULT_VERTEX_CAP = 10**6


@dataclass(frozen=True)
class CoveredGraph:
    """A constructed cover of ``base``; its ids are its fiber coordinates.

    Cover vertex (v, a) has id v * sheets + a and cover edge (e, a) has id
    e * sheets + a, so divmod(id, sheets) recovers (base id, bitvector) from
    either.
    """

    graph: MultiGraph
    base: MultiGraph
    spec: CoverSpec

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def sheets(self) -> int:
        return 1 << self.spec.rank


@dataclass(frozen=True)
class RegularCoverReport:
    """Outcome of the regular-cover verification; failures are recorded, not raised."""

    failures: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def z2_cover(
    base: MultiGraph,
    spec: CoverSpec,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> CoveredGraph:
    """The cover of base along the spec's cotree edges; a tower step with ``spanning_tree``.

    ``spec.validate_for`` refuses a spec whose cover would be disconnected,
    so every cover built is connected.  A cover above vertex_cap is refused
    before anything is allocated.
    """
    spec.validate_for(base)
    r = spec.rank
    sheets = 1 << r
    predicted_vertices = base.num_vertices * sheets
    if predicted_vertices > vertex_cap:
        raise SizeCapError(
            f"cover would have {base.num_vertices} * 2^{r} vertices, above the cap {vertex_cap}"
        )

    # Row (tail, head) of edge e lifts to rows e * sheets + a:
    # (tail, a) -- (head, a ^ flip[e]), flip[e] = e_j for cotree edge j.
    tail, head = base.ends.T
    flip = np.zeros(base.num_edges, dtype=np.int64)
    flip[list(spec.cotree_edges)] = 1 << np.arange(r, dtype=np.int64)
    a = np.arange(sheets, dtype=np.int64)
    x = (tail * sheets)[:, None] + a
    y = (head * sheets)[:, None] + (a ^ flip[:, None])
    ends = np.empty((base.num_edges, sheets, 2), dtype=np.int64)
    np.minimum(x, y, out=ends[:, :, 0])
    np.maximum(x, y, out=ends[:, :, 1])

    labels = CoverLabels(base.labels, (r,), predicted_vertices)
    graph = MultiGraph(predicted_vertices, ends.reshape(-1, 2), labels)
    return CoveredGraph(graph=graph, base=base, spec=spec)


def verify_regular_cover(cover: CoveredGraph) -> RegularCoverReport:
    """Check the four regular-cover conditions, reporting failures in the record.

    The checks read the constructed edge list against the id numbering
    (fiber = divmod(id, 2^r)), so an edge list that breaks the numbering is
    detected rather than assumed away.  XOR by a nonzero bitvector moves
    every id, so once the ids cover V(base) x (Z/2)^r the action is free.
    """
    base = cover.base
    g = cover.graph
    sheets = cover.sheets
    failures: list[str] = []

    # Every later check reads ids against these counts, so a wrong count is reported alone.
    if g.num_vertices != base.num_vertices * sheets:
        failures.append("vertex fibers are not a bijection onto V(base) x (Z/2)^r")
    if g.num_edges != base.num_edges * sheets:
        failures.append("edge fibers are not a bijection onto E(base) x (Z/2)^r")
    if failures:
        return RegularCoverReport(tuple(failures))

    r = cover.rank
    lo, hi = g.ends[:, 0], g.ends[:, 1]
    eids = np.arange(g.num_edges)

    # (i) every deck element is a graph automorphism.  The elements that
    # pass form a subgroup, so checking the generators 2^j suffices, and the
    # first failing element in range order is always one of them.
    for b in (1 << j for j in range(r)):
        x, y, image = lo ^ b, hi ^ b, eids ^ b
        bad = (lo[image] != np.minimum(x, y)) | (hi[image] != np.maximum(x, y))
        if bad.any():
            failures.append(
                f"deck element {b} does not preserve incidence at edge {int(bad.argmax())}"
            )
            break

    # (iii) the projected quotient graph is the base
    base_lo, base_hi = base.ends[eids >> r].T
    bad = (lo >> r != base_lo) | (hi >> r != base_hi)
    if bad.any():
        eid = int(bad.argmax())
        failures.append(
            f"cover edge {eid} projects to {(int(lo[eid]) >> r, int(hi[eid]) >> r)}, "
            f"not to base edge {eid >> r}"
        )

    # (iv) projection restricted to each vertex star is a bijection: the
    # sorted (cover vertex, base edge) incidences of the cover must equal
    # those of the base's stars lifted to every sheet.  The first
    # disagreement in that order belongs to the lowest failing vertex.
    width = max(base.num_edges, 1)
    got = np.sort(g.ends.ravel() * width + np.repeat(eids >> r, 2))
    base_keys = base.ends.ravel() * sheets * width + np.repeat(np.arange(base.num_edges), 2)
    want = np.sort((base_keys[:, None] + np.arange(sheets) * width).ravel())
    bad = got != want
    if bad.any():
        i = int(bad.argmax())
        vid = int(min(got[i], want[i]) // width)
        failures.append(
            f"star of cover vertex {vid} does not project bijectively "
            f"onto the star of base vertex {vid >> r}"
        )
    return RegularCoverReport(tuple(failures))
