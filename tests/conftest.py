"""Shared graph builders, slow oracles and session fixtures."""
from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np
import pytest

from covertower import (
    CheegerResult,
    CoverSpec,
    DisconnectedGraphError,
    MultiGraph,
    SpecMismatchError,
    SpectrumError,
    ValidationError,
    build_graph,
    spanning_tree,
    sweep_cut,
    z2_cover,
)
from covertower import spectrum as spectrum_mod
from covertower.cheeger import SWEEP_TIE_TOLERANCE, Cut, _recount
from covertower.covers import CoveredGraph
from covertower.multigraph import JSON_SCHEMA_VERSION, component_count
from covertower.spectrum import (
    COMBINATORIAL,
    NORMALIZED,
    SpectralSummary,
    canonical_basis,
    lambda1_of,
    zero_tolerance,
)
from covertower.tower import LEVEL_FIELDS, TowerReport, _csv_value, report_to_json_dict


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


def random_connected_multigraph(rng: random.Random, n: int, rank: int) -> MultiGraph:
    """n vertices, a random spanning tree and `rank` uniform extra edges
    (so loops and parallel edges occur), in shuffled edge order."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rank)]
    rng.shuffle(edges)
    return build_graph(n, edges)


def cut_ratio(g: MultiGraph, side_a: Iterable[int]) -> Cut:
    """Exact crossing count and ratio for the bipartition (side_a, complement)."""
    in_a = _side_mask(g, side_a)
    in_a.flags.writeable = False
    crossing, smaller = _recount(g, in_a)
    return Cut(in_a, crossing, Fraction(crossing, smaller))


def _side_mask(g: MultiGraph, side_a: Iterable[int]) -> np.ndarray:
    """Boolean membership of side A; every id must be an integer vertex."""
    items = side_a if isinstance(side_a, np.ndarray) else list(side_a)
    ids = np.asarray(items)
    if ids.dtype.kind not in "iu":
        # Empty, bool, huge or mixed ids: check each one as given.
        for v in items:
            if not (isinstance(v, (int, np.integer)) and 0 <= v < g.num_vertices):
                raise ValidationError(f"vertex id {v!r} out of range")
        ids = np.array(items, dtype=np.int64)
    elif ids.size and (ids.min() < 0 or ids.max() >= g.num_vertices):
        bad = (ids < 0) | (ids >= g.num_vertices)
        raise ValidationError(f"vertex id {int(ids[bad.argmax()])!r} out of range")
    in_a = np.zeros(g.num_vertices, dtype=bool)
    in_a[ids] = True
    return in_a


def loop_adjacency(g: MultiGraph) -> np.ndarray:
    """Edge-by-edge adjacency with multiplicity; a loop adds 2 on the diagonal."""
    a = np.zeros((g.num_vertices, g.num_vertices), dtype=np.int64)
    for u, v in g.edges:
        if u == v:
            a[u, u] += 2
        else:
            a[u, v] += 1
            a[v, u] += 1
    return a


def dense_laplacian(g: MultiGraph, kind: str = COMBINATORIAL) -> np.ndarray:
    """The Laplacian of g from loop_adjacency, the dense oracle for every block path.

    D is the adjacency's row sums.  The normalized entries follow the
    program's entrywise-symmetric formulas, -A_uv / sqrt(deg_u deg_v) off
    the diagonal and (deg_v - A_vv) / deg_v on it, so laplacian(g, kind)
    must equal this entry for entry.
    """
    a = loop_adjacency(g)
    deg = a.sum(axis=1)
    if kind == COMBINATORIAL:
        return np.diag(deg).astype(float) - a
    if kind != NORMALIZED:
        raise ValidationError(f"unknown laplacian kind {kind!r}")
    if np.any(deg == 0):
        isolated = int(np.flatnonzero(deg == 0)[0])
        raise SpectrumError(f"normalized laplacian undefined: vertex {isolated} is isolated")
    lap = -(a / np.sqrt(np.outer(deg, deg)))  # -0.0 where A_uv = 0, as in the program
    np.fill_diagonal(lap, (deg - np.diag(a)) / deg)
    return lap


def spectrum_inclusion(
    base: SpectralSummary, cover: SpectralSummary, tol: float = 1e-9
) -> bool:
    """Whether the base eigenvalue multiset embeds in the cover's, within tol.

    Greedy two-pointer matching on the ascending lists; correct because both
    lists are sorted.
    """
    if base.kind != cover.kind:
        raise ValidationError(
            f"kind mismatch: {base.kind!r} vs {cover.kind!r}"
        )
    i = 0
    cover_vals = cover.eigenvalues
    for value in base.eigenvalues:
        while i < len(cover_vals) and cover_vals[i] < value - tol:
            i += 1
        if i >= len(cover_vals) or abs(cover_vals[i] - value) > tol:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class SandwichReport:
    """Result of checking lambda1/2 <= h <= sqrt(2 d lambda1) on a regular graph.

    The outcome fields after h_value stay None for a check not performed.
    """

    performed: bool
    skip_reason: str | None
    degree: int | None
    lambda1: float | None
    h_value: Fraction
    lower_ok: bool | None = None
    upper_ok: bool | None = None
    lower_slack: float | None = None
    upper_slack: float | None = None

    @property
    def holds(self) -> bool:
        return bool(self.lower_ok) and (self.upper_ok is not False)


def cheeger_sandwich(
    g: MultiGraph,
    h: CheegerResult,
    s: SpectralSummary,
    tol: float = 1e-8,
) -> SandwichReport:
    """Check the discrete Cheeger inequalities against an exact Cheeger value.

    Requires the combinatorial spectrum of a connected regular graph.  With a
    non-exact (upper-bound) h only the lower inequality is checked, since
    lambda1/2 <= h_true <= h_upper still holds.
    """
    if s.kind != COMBINATORIAL:
        raise ValidationError("cheeger sandwich uses the combinatorial spectrum")
    degrees = set(g.degrees)
    if len(degrees) != 1:
        return SandwichReport(
            performed=False,
            skip_reason="graph is not regular",
            degree=None,
            lambda1=s.lambda1,
            h_value=h.value,
        )
    d = next(iter(degrees))
    if s.zero_multiplicity > 1:
        return SandwichReport(
            performed=False,
            skip_reason="graph is disconnected",
            degree=d,
            lambda1=s.lambda1,
            h_value=h.value,
        )
    lam = s.lambda1 if s.lambda1 is not None else 0.0
    h_float = float(h.value)
    upper = {}
    if h.certified == "exact":
        bound = math.sqrt(2.0 * d * lam)
        upper = {"upper_ok": h_float <= bound + tol, "upper_slack": bound - h_float}
    return SandwichReport(
        performed=True,
        skip_reason=None,
        degree=d,
        lambda1=lam,
        h_value=h.value,
        lower_ok=lam / 2.0 <= h_float + tol,
        lower_slack=h_float - lam / 2.0,
        **upper,
    )


def union_find_validate(spec: CoverSpec, g: MultiGraph) -> None:
    """CoverSpec.validate_for by union-find over the edge rows, the reference.

    Same checks in the same order: ids and repeats, then whether the edges
    outside the cotree leave one component.
    """
    cotree: set[int] = set()
    for e in spec.cotree_edges:
        if not (isinstance(e, int) and not isinstance(e, bool) and 0 <= e < g.num_edges):
            raise SpecMismatchError(f"cotree edge {e!r} is not an edge id of the graph")
        if e in cotree:
            raise SpecMismatchError(f"cotree edge {e} is listed twice")
        cotree.add(e)
    parent = list(range(g.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = g.num_vertices
    for e, (u, v) in enumerate(g.edges):
        if e in cotree:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    if components > 1:
        raise DisconnectedGraphError("the graph without the cotree edges is disconnected")


def bfs_cotree(g: MultiGraph) -> tuple[int, ...]:
    """spanning_tree's cotree by a walk over per-vertex lists, the reference.

    Each vertex lists (edge id, other end) in ascending edge id, a loop
    once.  BFS starts at the lowest unvisited vertex and takes vertices
    first in, first out; the cotree is every edge it does not take.
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for e, (u, v) in enumerate(g.ends.tolist()):
        incident[u].append((e, v))
        if u != v:
            incident[v].append((e, u))
    seen = [False] * g.num_vertices
    tree: set[int] = set()
    for root in range(g.num_vertices):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            for e, w in incident[queue.popleft()]:
                if not seen[w]:
                    seen[w] = True
                    tree.add(e)
                    queue.append(w)
    return tuple(e for e in range(g.num_edges) if e not in tree)


class LoopCover(NamedTuple):
    """A cover as the per-edge loop builds it, with each id's fiber recorded."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    vertex_fibers: list[tuple[int, int]]
    edge_fibers: list[tuple[int, int]]


def loop_cover(base: MultiGraph, spec: CoverSpec, reversed_positions=frozenset()) -> LoopCover:
    """The per-edge, per-sheet construction z2_cover used before it broadcast.

    Vertex (v, a) and edge (e, a) are appended in lexicographic order; the
    cotree edge j with row (u, v) joins (u, a) to (v, a ^ 2^j), or (v, a) to
    (u, a ^ 2^j) when j is in ``reversed_positions``.
    """
    r = spec.rank
    sheets = 1 << r
    bitstrings = ["".join("1" if (a >> j) & 1 else "0" for j in range(r)) for a in range(sheets)]
    labels, vertex_fibers = [], []
    names = tuple(base.labels) if base.labels is not None else None
    for v in range(base.num_vertices):
        name = names[v] if names is not None else str(v)
        for a in range(sheets):
            labels.append(f"{name}|{bitstrings[a]}")
            vertex_fibers.append((v, a))
    position = {e: j for j, e in enumerate(spec.cotree_edges)}
    edges, edge_fibers = [], []
    for e, (u, v) in enumerate(base.edges):
        j = position.get(e)
        flip = 0 if j is None else 1 << j
        tail, head = (v, u) if j in reversed_positions else (u, v)
        for a in range(sheets):
            x, y = tail * sheets + a, head * sheets + (a ^ flip)
            edges.append((x, y) if x <= y else (y, x))
            edge_fibers.append((e, a))
    return LoopCover(
        base.num_vertices * sheets, tuple(edges), tuple(labels), vertex_fibers, edge_fibers
    )


def loop_iterated_cover(base: MultiGraph, steps: int) -> MultiGraph:
    """`steps` homology covers of base by `loop_cover`, each with eager labels."""
    g = base
    for _ in range(steps):
        oracle = loop_cover(g, spanning_tree(g))
        g = build_graph(oracle.num_vertices, oracle.edges, labels=oracle.labels)
    return g


def loop_cut_ratio(num_vertices: int, edges, side_a) -> tuple[int, Fraction]:
    """(crossing count, ratio) by set membership, one edge at a time."""
    a_set = set(side_a)
    crossing = 0
    for u, v in edges:
        if u != v and ((u in a_set) != (v in a_set)):
            crossing += 1
    return crossing, Fraction(crossing, min(len(a_set), num_vertices - len(a_set)))


def loop_regular_cover_failures(cover: CoveredGraph) -> list[str]:
    """The regular-cover conditions from their definitions, one id at a time.

    Every deck element b is tried on every edge, every edge's projection is
    compared with its base edge, and every vertex star is counted.  The
    messages are verify_regular_cover's, and a wrong count is reported alone
    in the same words; otherwise verify_regular_cover reads only each fiber
    against its sheet-0 lift, so it fails exactly when this does, but it may
    name a different first failure and leaves out the star message.
    """
    base, g, sheets = cover.base, cover.graph, cover.sheets
    edges = g.edges
    failures = []
    if g.num_vertices != base.num_vertices * sheets:
        failures.append("vertex fibers are not a bijection onto V(base) x (Z/2)^r")
    if len(edges) != base.num_edges * sheets:
        failures.append("edge fibers are not a bijection onto E(base) x (Z/2)^r")
    if failures:
        return failures
    for b in range(sheets):
        bad = [
            eid for eid, (u, v) in enumerate(edges)
            if edges[eid ^ b] != tuple(sorted((u ^ b, v ^ b)))
        ]
        if bad:
            failures.append(f"deck element {b} does not preserve incidence at edge {bad[0]}")
            break
    for eid, (u, v) in enumerate(edges):
        projected = (u // sheets, v // sheets)
        if projected != base.edges[eid // sheets]:
            failures.append(
                f"cover edge {eid} projects to {projected}, not to base edge {eid // sheets}"
            )
            break
    base_star = [Counter() for _ in range(base.num_vertices)]
    for e, (u, v) in enumerate(base.edges):
        base_star[u][e] += 1
        base_star[v][e] += 1
    cover_star = [Counter() for _ in range(g.num_vertices)]
    for eid, (u, v) in enumerate(edges):
        cover_star[u][eid // sheets] += 1
        cover_star[v][eid // sheets] += 1
    for vid, star in enumerate(cover_star):
        if star != base_star[vid // sheets]:
            failures.append(
                f"star of cover vertex {vid} does not project bijectively "
                f"onto the star of base vertex {vid // sheets}"
            )
            break
    return failures


class DenseLevel(NamedTuple):
    lambda1_combinatorial: float | None
    lambda1_normalized: float | None
    sweep: Fraction


def dense_level_oracle(cover: CoveredGraph) -> DenseLevel:
    """lambda1 of both kinds and the sweep value of a cover, by a dense solve.

    The whole cover Laplacian is assembled and handed to numpy's eigh, with
    no character blocks, so the reference is independent of the path it
    checks.  The sweep basis is the canonical basis of the lambda1 eigenspace.
    """
    g = cover.graph
    w, v = np.linalg.eigh(dense_laplacian(g, COMBINATORIAL))
    w_norm = np.linalg.eigvalsh(dense_laplacian(g, NORMALIZED))
    eigenspace = np.abs(w - w[1]) <= zero_tolerance(w)
    return DenseLevel(
        lambda1_of(w),
        lambda1_of(w_norm),
        sweep_cut(g, canonical_basis(v[:, eigenspace].T)).value,
    )


# -- the fast paths' predecessors, kept as bitwise oracles ---------------------


def lambda1_three_passes(eigenvalues: np.ndarray) -> float | None:
    """lambda1_of as three full passes: the radius, the zero count and the nonzero entries."""
    radius = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
    tol = 1e-9 * max(1.0, radius)
    if np.count_nonzero(np.abs(eigenvalues) <= tol) > 1:
        return 0.0
    nonzero = eigenvalues[eigenvalues > tol]
    return float(nonzero[0]) if len(nonzero) else None


def zero_count_by_full_pass(eigenvalues: np.ndarray) -> int:
    """full_spectrum's zero_multiplicity as one full pass: the count of |x| <= tol."""
    return int(np.sum(np.abs(eigenvalues) <= zero_tolerance(eigenvalues)))


def printed_eigenvalues_by_full_pass(eigenvalues: np.ndarray) -> list[float]:
    """SpectralSummary.to_json_dict's eigenvalues with each entry tested |x| <= tol."""
    tol = zero_tolerance(eigenvalues)
    return [0.0 if abs(x) <= tol else spectrum_mod.round_sig(x) for x in eigenvalues.tolist()]


def canonical_basis_by_column_stack(span: np.ndarray) -> np.ndarray:
    """canonical_basis with q grown by np.column_stack and each norm by np.linalg.norm."""
    q = np.zeros((span.shape[0], 0))
    pivots: list[int] = []
    for j in range(span.shape[1]):
        column = span[:, j]
        for _ in range(2):
            column = column - q @ (q.T @ column)
        norm = float(np.linalg.norm(column))
        if norm > spectrum_mod._PIVOT_TOLERANCE:
            pivots.append(j)
            q = np.column_stack((q, column / norm))
            if len(pivots) == span.shape[0]:
                break
    return np.linalg.solve(span[:, pivots], span)


def sweep_orders_by_argsort(rows: np.ndarray) -> np.ndarray:
    """_sweep_orders reading the ids back through argsort and take_along_axis."""
    k, n = rows.shape
    by_value = np.argsort(rows, axis=1, kind="stable")
    scale = np.max(np.abs(rows), axis=1, keepdims=True)
    starts = np.diff(np.take_along_axis(rows, by_value, axis=1), axis=1) > (
        SWEEP_TIE_TOLERANCE * scale
    )
    tie_class = np.zeros((k, n), dtype=np.int64)
    np.cumsum(starts, axis=1, out=tie_class[:, 1:])
    key = tie_class * n + by_value
    return np.take_along_axis(by_value, np.argsort(key, axis=1), axis=1)


def graph_json_oracle(g: MultiGraph) -> str:
    """The graph JSON document as the standard encoder writes it."""
    doc: dict = {"schema": JSON_SCHEMA_VERSION, "vertices": g.num_vertices}
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    doc["edges"] = g.ends.tolist()
    return json.dumps(doc, indent=2) + "\n"


def report_json_oracle(report: TowerReport) -> str:
    """The tower JSON artifact as the standard encoder writes it."""
    return json.dumps(report_to_json_dict(report), indent=2) + "\n"


def report_csv_oracle(report: TowerReport) -> str:
    """The tower CSV artifact with every line by csv.writer and each count by str().

    csv.writer quotes a field holding any character of its line terminator,
    so with CRLF it quotes one holding a comma, a quote, CR or LF on every
    Python from 3.10 on (with LF, 3.13 also quotes a lone CR and 3.10-3.12
    do not).  Each line's CRLF is then trimmed to LF.  3.10 refuses a NUL,
    so the text must hold none.
    """
    rows = [[_csv_value(getattr(row, key)) for key in LEVEL_FIELDS] for row in report.levels]
    lines = []
    for texts in [LEVEL_FIELDS, *rows]:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(texts)
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines)


@pytest.fixture(scope="session")
def gamma1() -> CoveredGraph:
    return cover_of(figure8())


@pytest.fixture(scope="session")
def gamma2(gamma1) -> CoveredGraph:
    return cover_of(gamma1.graph)
