"""Z/2-homology covers of multigraphs and their deck transformations.

Given a graph with a maximal tree and r cotree edges, the cover has vertex
set V x (Z/2)^r and edge set E x (Z/2)^r.  An edge (e, a) joins (u, a) to
(v, a) when e is a tree edge, and (tail, a) to (head, a + e_j) when e is the
j-th cotree edge, where e_j flips coordinate j only.  Bitvectors are packed
into integers with coordinate j stored in bit j-1, so e_j = 1 << (j - 1).

For a cotree loop at v, the edge (e_j, a) joins (v, a) to (v, a + e_j); the
flip is nonzero, so loops downstairs never lift to loops upstairs.

Cover vertex (v, a) gets id v * 2^r + a, and similarly for edges, i.e. ids
are lexicographic in (base id, bitvector-as-integer).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import DisconnectedGraphError, SizeCapError
from .multigraph import CoverSpec, MultiGraph


def _bitstring(value: int, rank: int) -> str:
    return "".join("1" if (value >> j) & 1 else "0" for j in range(rank))


@dataclass(frozen=True)
class CoveredGraph:
    """A constructed cover of ``base``; its ids are its fiber coordinates.

    Cover vertex (v, a) has id v * sheets + a and cover edge (e, a) has id
    e * sheets + a, so ``fiber`` recovers (base id, bitvector) from either.
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

    def fiber(self, id_: int) -> tuple[int, int]:
        """(base id, bitvector) of a cover vertex or edge id."""
        return divmod(id_, self.sheets)


@dataclass(frozen=True)
class RegularCoverReport:
    """Outcome of the regular-cover verification; failures are recorded, not raised."""

    automorphism_ok: bool
    free_action_ok: bool
    quotient_ok: bool
    star_bijection_ok: bool
    orbit_count: int
    deck_order: int
    failures: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return (
            self.automorphism_ok
            and self.free_action_ok
            and self.quotient_ok
            and self.star_bijection_ok
        )


def z2_cover(
    base: MultiGraph,
    spec: CoverSpec,
    vertex_cap: int | None = None,
) -> CoveredGraph:
    """Construct the homology double-cover tower step for one graph.

    Rejects disconnected bases: downstream tower semantics assume connected
    Cayley-like graphs, and a disconnected base would silently produce a
    cover of only one piece's worth of structure.
    """
    spec.validate_for(base)
    # A validated spec is a maximal forest, which is one tree exactly when
    # the base is connected.
    if base.num_vertices > 0 and len(spec.tree_edges) != base.num_vertices - 1:
        raise DisconnectedGraphError("cover construction requires a connected base")
    r = spec.rank
    sheets = 1 << r
    predicted_vertices = base.num_vertices * sheets
    if vertex_cap is not None and predicted_vertices > vertex_cap:
        raise SizeCapError(
            f"cover would have {predicted_vertices} vertices, above the cap {vertex_cap}"
        )

    bitstrings = [_bitstring(a, r) for a in range(sheets)]
    labels = tuple(
        f"{base.label_of(v)}|{bits}"
        for v in range(base.num_vertices)
        for bits in bitstrings
    )

    cotree = {e: (tail, head, 1 << j) for j, (e, tail, head) in enumerate(spec.cotree_edges)}
    edges = []
    for e, (u, v) in enumerate(base.edges):
        tail, head, flip = cotree.get(e, (u, v, 0))
        tail_id, head_id = tail * sheets, head * sheets
        for a in range(sheets):
            x, y = tail_id + a, head_id + (a ^ flip)
            edges.append((x, y) if x <= y else (y, x))

    graph = MultiGraph(
        num_vertices=predicted_vertices, edges=tuple(edges), labels=labels
    )
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

    vertex_bijection = g.num_vertices == base.num_vertices * sheets
    edge_bijection = g.num_edges == base.num_edges * sheets
    if not vertex_bijection:
        failures.append("vertex fibers are not a bijection onto V(base) x (Z/2)^r")
    if not edge_bijection:
        failures.append("edge fibers are not a bijection onto E(base) x (Z/2)^r")
    free_action_ok = vertex_bijection

    # (i) every deck element is a graph automorphism
    automorphism_ok = vertex_bijection and edge_bijection
    if automorphism_ok:
        for b in range(sheets):
            for eid, (u, v) in enumerate(g.edges):
                x, y = u ^ b, v ^ b
                if g.edges[eid ^ b] != ((x, y) if x <= y else (y, x)):
                    failures.append(
                        f"deck element {b} does not preserve incidence at edge {eid}"
                    )
                    automorphism_ok = False
                    break
            if not automorphism_ok:
                break

    # (iii) the projected quotient graph is the base
    quotient_ok = vertex_bijection and edge_bijection
    if quotient_ok:
        for eid, (u, v) in enumerate(g.edges):
            projected = (u // sheets, v // sheets)
            if projected != base.edges[eid // sheets]:
                failures.append(
                    f"cover edge {eid} projects to {projected}, "
                    f"not to base edge {eid // sheets}"
                )
                quotient_ok = False
                break
    orbit_count = g.num_vertices // sheets

    # (iv) projection restricted to each vertex star is a bijection
    star_bijection_ok = vertex_bijection and edge_bijection
    if star_bijection_ok:
        base_star = [Counter() for _ in range(base.num_vertices)]
        for e, (u, v) in enumerate(base.edges):
            base_star[u][e] += 1
            base_star[v][e] += 1
        cover_star = [Counter() for _ in range(g.num_vertices)]
        for eid, (u, v) in enumerate(g.edges):
            cover_star[u][eid // sheets] += 1
            cover_star[v][eid // sheets] += 1
        for vid, star in enumerate(cover_star):
            if star != base_star[vid // sheets]:
                failures.append(
                    f"star of cover vertex {vid} does not project bijectively "
                    f"onto the star of base vertex {vid // sheets}"
                )
                star_bijection_ok = False
                break

    return RegularCoverReport(
        automorphism_ok=automorphism_ok,
        free_action_ok=free_action_ok,
        quotient_ok=quotient_ok,
        star_bijection_ok=star_bijection_ok,
        orbit_count=orbit_count,
        deck_order=sheets,
        failures=tuple(failures),
    )
