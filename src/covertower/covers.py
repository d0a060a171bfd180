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
per cover vertex or edge.  verify_regular_cover reads the same arrays, each
fiber once and in blocks of at most 2^16 edges: every edge (e, a) must be
edge (e, 0) XOR a, and edge (e, 0) must project to e.  ``cover_vertices``
is the one refusal of an oversized cover, for z2_cover and for the homology
step that sizes, builds and checks each cover, ``tower.homology_cover``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError
from .multigraph import CoverLabels, CoverSpec, MultiGraph

DEFAULT_VERTEX_CAP = 10**6
_CHECK_ROWS = 1 << 16  # cover edges the orbit check compares at once, in about 2 MiB


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


def cover_vertices(num_vertices: int, rank: int, vertex_cap: int) -> int:
    """num_vertices * 2^rank, a rank-r cover's vertex count; SizeCapError above vertex_cap."""
    if num_vertices << rank > vertex_cap:
        raise SizeCapError(
            f"cover would have {num_vertices} * 2^{rank} vertices, above the cap {vertex_cap}"
        )
    return num_vertices << rank


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
    predicted_vertices = cover_vertices(base.num_vertices, r, vertex_cap)

    # Row (tail, head) of edge e lifts to rows e * sheets + a:
    # (tail, a) -- (head, a ^ flip[e]), flip[e] = e_j for cotree edge j.
    # tail < head keeps that order canonical; a loop's row joins sheets a and
    # a ^ flip[e] as (a & ~flip[e], a | flip[e]).  Either way the row is
    # (lo, lo ^ flip[e]) plus the fiber offsets, written in place.
    tail, head = base.ends.T
    flip = np.zeros(base.num_edges, dtype=np.int64)
    flip[list(spec.cotree_edges)] = 1 << np.arange(r, dtype=np.int64)
    a = np.arange(sheets, dtype=np.int64)
    loop_flip = flip * (tail == head)
    ends = np.empty((base.num_edges, sheets, 2), dtype=np.int64)
    np.bitwise_and(a, ~loop_flip[:, None], out=ends[:, :, 0])
    np.bitwise_xor(ends[:, :, 0], flip[:, None], out=ends[:, :, 1])
    ends += (base.ends * sheets)[:, None]

    labels = CoverLabels(base.labels, (r,), predicted_vertices)
    graph = MultiGraph(predicted_vertices, ends.reshape(-1, 2), labels)
    return CoveredGraph(graph=graph, base=base, spec=spec)


def verify_regular_cover(cover: CoveredGraph) -> RegularCoverReport:
    """Check that the cover is regular, reporting failures in the record.

    The checks read the constructed edge list against the id numbering
    (fiber = divmod(id, 2^r)), so an edge list that breaks the numbering is
    detected rather than assumed away.  Once the counts hold, cover edge
    (e, a) is row ``lifts[e, a]``, and two comparisons remain:

    - orbit: every row ``lifts[e, a]`` is the sorted ``lifts[e, 0] ^ a``, read in
      (e, a) order, _CHECK_ROWS rows (whole fibers, or part of one) at a time;
    - projection: ``lifts[e, 0] >> r`` is the row of base edge e.

    Nothing of the regular-cover conditions is lost:

    - Under the orbit rule, XOR by b sends the ends of edge (e, a) to those
      of edge (e, a ^ b), so every deck element b is an automorphism;
      conversely, b acting at edge (e, 0) is the orbit rule for a = b.  The
      automorphisms among the b form a subgroup, so the rule holds exactly
      when every generator 2^j is an automorphism.
    - XOR on the low r bits is free (a nonzero b moves every id) and
      transitive on each fiber (x ^ y sends (v, x) to (v, y)).
    - XOR keeps the bits above r, so orbit plus the sheet-0 projection
      gives every edge's projection.
    - Vertex (v, x) meets exactly one lift of each non-loop base edge at v,
      the one whose sheet-0 end over v XOR a is (v, x), and two edge ends
      over each loop at v, so its star maps bijectively onto v's star.
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

    # Row k of `rows` is edge s >> r at sheets (s mod 2^r) ^ j, s = k * width, j < width.
    r, width = cover.rank, min(sheets, _CHECK_ROWS)
    rows = g.ends.reshape(-1, width, 2)
    sheet = np.arange(width)
    for k in range(0, len(rows), _CHECK_ROWS // width):
        block = rows[k : k + _CHECK_ROWS // width]
        if width == sheets:  # whole fibers: each row's sheet-0 lift is its first
            lift = block[:, 0]
        else:
            s = np.arange(k, k + len(block)) * width
            lift = g.ends[s >> r << r] ^ (s & (sheets - 1))[:, None]
        x, y = lift[:, :1] ^ sheet, lift[:, 1:] ^ sheet
        bad = (block[:, :, 0] != np.minimum(x, y)) | (block[:, :, 1] != np.maximum(x, y))
        if bad.any():
            e, a = divmod(k * width + int(bad.argmax()), sheets)
            failures.append(f"deck element {a} does not preserve incidence at edge {e * sheets}")
            break

    bad = (g.ends[::sheets] >> r != base.ends).any(axis=1)
    if bad.any():
        e = int(bad.argmax())
        lo, hi = (int(end) >> r for end in g.ends[e * sheets])
        failures.append(f"cover edge {e * sheets} projects to {(lo, hi)}, not to base edge {e}")
    return RegularCoverReport(tuple(failures))
