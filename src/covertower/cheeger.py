"""Cheeger constants: exact brute force, certified cuts, and sweep bounds.

All ratios are exact rationals (crossing count over smaller-side size).
The exhaustive search ranks them without division: times
lcm(1, ..., floor(n/2)), every ratio is an integer.
Crossing counts include parallel-edge multiplicity; loops never cross.

The exhaustive search fixes vertex 0 on side A, halving the 2^n subsets.
It splits the subset range into chunks of at most 2^17 cuts and visits them
in Gray-code order of their high vertices.  A chunk is a table with a row
per subset of its row vertices and a column per subset of its (at most 12)
column vertices, the columns ordered by popcount, so one reduction gives
the least crossing count of every block of equal-size cuts, and the chunk's
least ratio is the least of those minima, each scaled to an integer.
Subset-sum doubling builds the first chunk, and each later one adds at most
one column vector to the table and one row vector to a per-row offset, so
the search costs O(2^(n-1)) whatever the edge count.
Ties between minimum-ratio cuts are broken by the lexicographically smallest
A as a sorted id list (so a shorter prefix beats its extensions).  The search
numbers its subsets with vertex v at bit n-1-v, the weight that order gives
v, so a subset's number ranks it in the tie order without a bit reversal.

Every method states its claim (witness side, crossing count and smaller-side
size) from its own arithmetic and passes it once through `verify_witness`,
the single recount, before it returns; a claim the recount does not
confirm raises ValidationError.  Callers need no second check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .covers import CoveredGraph
from .errors import (
    DegenerateCutError,
    DisconnectedGraphError,
    SizeCapError,
    ValidationError,
)
from .multigraph import MultiGraph, is_connected

EXACT = "exact"
UPPER_BOUND = "upper_bound"

METHOD_BRUTE_FORCE = "brute_force"
METHOD_LEMMA_CUT = "lemma_cut"
METHOD_SWEEP = "sweep"

DEFAULT_BRUTE_FORCE_CAP = 26
# The largest graph the search accepts, so that it finishes within a minute:
# its time doubles per vertex, about 0.008 s at 26 vertices, 0.12 s at 30 and
# 8 s at 36 (3n edges, one 2-core host).  (Int64 masks allow 62.)
MAX_BRUTE_FORCE_CAP = 36
_CHUNK_BITS = 17
_COLUMN_BITS = 12
_NOT_A_CUT = (1 << 63) - 1  # the int64 maximum, above every scaled ratio
# Sweep entries closer than this, relative to the vector's largest magnitude,
# are ties: rounding in the eigensolver must not decide the vertex order.
SWEEP_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class Cut:
    """A vertex bipartition with its crossing count and expansion ratio.

    ``in_a`` marks side A as a read-only boolean mask over the vertex ids.
    ``side_a`` and ``side_b`` (its complement) are the sorted id tuples,
    built from the mask on first read, so a caller that reads only the
    ratio never builds one.
    """

    in_a: np.ndarray
    crossing_edges: int
    ratio: Fraction

    @cached_property
    def side_a(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.in_a).tolist())

    @cached_property
    def side_b(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.in_a).tolist())

    def to_json_dict(self) -> dict:
        return {
            "side_a": list(self.side_a),
            "side_b": list(self.side_b),
            "crossing_edges": self.crossing_edges,
            "ratio": str(self.ratio),
        }


@dataclass(frozen=True)
class CheegerResult:
    """A Cheeger value together with the cut witnessing it; `value` is the cut's ratio."""

    witness: Cut
    certified: str  # EXACT or UPPER_BOUND
    method: str  # METHOD_BRUTE_FORCE, METHOD_LEMMA_CUT, or METHOD_SWEEP

    @property
    def value(self) -> Fraction:
        return self.witness.ratio

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "value": str(self.value),
            "certified": self.certified,
            "method": self.method,
            "witness": self.witness.to_json_dict(),
        }


def _recount(g: MultiGraph, in_a: np.ndarray) -> tuple[int, int]:
    """(crossing count, smaller side size) of the bipartition marked by in_a."""
    size_a = int(np.count_nonzero(in_a))
    if size_a == 0:
        raise DegenerateCutError("side A is empty")
    if size_a == g.num_vertices:
        raise DegenerateCutError("side A is the whole vertex set")
    # A loop's two ends are on one side, so loops never cross.
    crossing = int(np.count_nonzero(in_a[g.ends[:, 0]] != in_a[g.ends[:, 1]]))
    return crossing, min(size_a, g.num_vertices - size_a)


def verify_witness(g: MultiGraph, result: CheegerResult) -> None:
    """Recount the witness cut from its mask and insist it matches the claim.

    The mask must be a read-only bool array with one entry per vertex, so
    the side tuples derived from it cannot drift from what was recounted.
    """
    claim = result.witness
    in_a = claim.in_a
    if not (
        isinstance(in_a, np.ndarray)
        and in_a.dtype == np.bool_
        and in_a.shape == (g.num_vertices,)
    ):
        raise ValidationError(
            f"witness mask must be a bool array of {g.num_vertices} entries"
        )
    if in_a.flags.writeable:
        raise ValidationError("witness mask must be read-only")
    crossing, smaller = _recount(g, in_a)
    ratio = Fraction(crossing, smaller)
    if (crossing, ratio) != (claim.crossing_edges, claim.ratio):
        raise ValidationError(
            f"witness does not re-verify: recomputed {crossing} crossing "
            f"edges and ratio {ratio}, claimed {claim.crossing_edges} "
            f"and {claim.ratio}"
        )


def _verified(
    g: MultiGraph,
    in_a: np.ndarray,
    crossing: int,
    smaller: int,
    certified: str,
    method: str,
) -> CheegerResult:
    """The claimed cut as a result, once `verify_witness` has recounted it.

    The result's witness takes over in_a, the caller's fresh mask of side A,
    and makes it read-only.
    """
    in_a.flags.writeable = False
    result = CheegerResult(Cut(in_a, crossing, Fraction(crossing, smaller)), certified, method)
    verify_witness(g, result)
    return result


def _lex_key(masks: np.ndarray, n: int) -> np.ndarray:
    """The rank of each set A in the tie order, from its mask R (bit n-1-v marks id v).

    The order is that of sorted id lists with a prefix before its
    extensions; 1 is the rank of {0}.  The sets up to A are its prefixes
    (popcount of them, A included) and, for each id b < max(A) missing from
    A, the 2^(n-1-b) sets that agree with A below b and then take b.  As id
    v weighs 2^(n-1-v) in R, those blocks sum to 2^n - R - (R & -R), since
    R & -R is the weight of max(A).
    """
    return (1 << n) - masks - (masks & -masks) + np.bitwise_count(masks)


def _adjacency(g: MultiGraph) -> np.ndarray:
    """The multiplicity matrix of the non-loop pairs, in the search's labels:
    vertex v >= 1 becomes n - v (see `exact_cheeger`)."""
    n = g.num_vertices
    ends = (n - g.ends) % n
    adj = np.bincount(ends @ [n, 1], minlength=n * n).reshape(n, n)
    adj += adj.T
    np.fill_diagonal(adj, 0)  # loops never cross
    return adj


@cache
def _table_layout(n: int, kr: int, kc: int) -> tuple[np.ndarray, np.ndarray, int, list]:
    """The column order and ratio scales of `exact_cheeger`'s 2^kr x 2^kc
    chunk tables over n vertices, read-only since every call shares them.

    Column j holds the column subset perm[j], by popcount and then value,
    so block (r, p), row r's columns of popcount p, runs from col_bounds[p]
    to col_bounds[p + 1], and its cuts have |A| = 1 + q + popcount(r) + p
    in a chunk with q high vertices.  block_scale[q][r, p] is
    unit / min(|A|, n - |A|) (0 for |A| = n, no cut), with
    unit = lcm(1, ..., floor(n/2)), so it scales a count to unit times its
    ratio, an integer.
    """
    col_pop = np.bitwise_count(np.arange(1 << kc))
    perm = np.argsort(col_pop, kind="stable")
    col_bounds = np.searchsorted(col_pop[perm], np.arange(kc + 2))
    unit = math.lcm(*range(1, n // 2 + 1))
    scale = np.array([unit // min(s, n - s) for s in range(1, n)] + [0])
    low = np.bitwise_count(np.arange(1 << kr))[:, None] + np.arange(kc + 1)
    block_scale = [scale[low + q] for q in range(n - kr - kc)]
    for array in (perm, col_bounds, *block_scale):
        array.flags.writeable = False
    return perm, col_bounds, unit, block_scale


def exact_cheeger(
    g: MultiGraph, max_vertices: int = DEFAULT_BRUTE_FORCE_CAP
) -> CheegerResult:
    """Exhaustive minimum over all 2^(n-1) - 1 bipartitions.

    Subset index x puts vertex n - 1 - j on side A when bit j of x is set,
    and vertex 0 is always on side A as the implicit top bit 2^(n-1), so
    R = x | 2^(n-1) weighs vertex v by 2^(n-1-v), the weight `_lex_key`
    ranks.  `_adjacency` relabels each vertex v >= 1 as n - v, so below,
    vertex w stands for bit w - 1 of x.  The low
    k = min(_CHUNK_BITS, n - 1) bits index within one chunk of 2^k cuts and
    the high bits (the high vertices S) are fixed within it.  A chunk is a
    table whose 2^kc columns, kc = min(_COLUMN_BITS, k), are the subsets Lc
    of the first kc low vertices in the order of `_table_layout`, and whose
    rows are the subsets Lr of the other kr = k - kc.  A cut's count splits
    into a table entry and a row offset off[r]:

        crossing({0} + S + Lr + Lc) = [crossing({0} + Lr + Lc) - 2 m(S, Lc)]
            + [sum over h in S of a_h - 2 m(S, Lr) - 2 m(S)],
        a_v = deg'(v) - 2 m(v, 0),

    where deg' counts non-loop edge ends with multiplicity, m(X, Y) is the
    edge weight between X and Y and m(S) that inside S.  Subset-sum
    doubling builds cols[v] = -2 m(v, Lc) (plus a_v for a column vertex v,
    which makes its entries over the Lc below v its gains) and
    rows[v] = a_v - 2 m(v, Lr) for all vertices at once.  Doubling over the
    column vertices' gains gives crossing({0} + Lc), the first chunk's first
    row, and row vertex w adds rows[w] and cols[w] to double the rows.  The
    chunks are visited in binary reflected Gray-code order, so each moves
    one high vertex h into S or out of it: the table gains or loses cols[h]
    (unless h has no column neighbour), and off gains or loses
    rows[h] - 2 m(h, S - {h}).  So the search costs O(2^(n-1)) table entries
    whatever the edge count, and a chunk's table stays in a core's L2 cache.

    The tables use the smallest integer type that holds -2W, W the non-loop
    edge weight, and every value computed in that type lies in [-2W, W].
    Each non-loop edge at v adds 1 to deg'(v) <= W, so m(v, X) <= deg'(v)
    for any X without v.  `pair` and the `cols` rows of the row and high
    vertices, -2 m(v, Lc), lie in [-2W, 0], and so do `steps`, those rows in
    column order.  A column vertex's gains, a `rows` entry and a_v are each
    deg'(v) - 2 m(v, X) for some X, in [-W, W].  A table entry (`first` is
    the first chunk's first row), and each sum while the rows double, is
    crossing(X) - 2 m(S', Lc) with X = {0} + Lr + Lc and S' outside X; the
    edges between S' and Lc cross X, so it lies in [-W, W].  The offset
    step rows[h] + shift is deg'(h) - 2 m(h, {0} + Lr + S - {h}), in
    [-W, W] too, and shift = -2 m(h, S - {h}) lies in [-2W, 0], so as a
    Python int it always fits the table type, as numpy requires.  off and
    the scaled minima are int64.

    One `np.minimum.reduceat` gives each block's least entry, and plus
    off[r] its least count.  A block's cuts share |A|, so times its
    `block_scale` that is unit times its least ratio, an exact integer
    (below 2^63 while W < 7.5 * 10^11), and the least of these 2^kr (kc + 1)
    integers is the chunk's least ratio.  Only the blocks that reach it are
    scanned for tied cuts, which `_lex_key` ranks.  The chunk's best joins
    the running one by that integer and then `_lex_key`, neither of which
    depends on the order of the chunks, so any partitioning of the range
    and any visiting order yield the identical result.
    """
    n = g.num_vertices
    if n < 2:
        raise DegenerateCutError(
            "cheeger constant needs at least two vertices to form a bipartition"
        )
    if n > max_vertices:
        raise SizeCapError(
            f"graph has {n} vertices, above the brute-force cap {max_vertices}"
        )
    if n > MAX_BRUTE_FORCE_CAP:
        raise SizeCapError(f"brute force is limited to {MAX_BRUTE_FORCE_CAP} vertices")
    adj = _adjacency(g)
    k = min(_CHUNK_BITS, n - 1)
    kc = min(_COLUMN_BITS, k)
    kr = k - kc
    high = n - 1 - k  # the high vertices are k + 1 + j for bit j of a chunk
    perm, col_bounds, unit, block_scale = _table_layout(n, kr, kc)
    # The smallest integer type that holds -2 * (non-loop edge weight), the
    # least value computed in it (see above).
    dtype = np.min_scalar_type(-2 * (int(adj.sum()) // 2))
    a = adj.sum(axis=1) - 2 * adj[:, 0]  # a[0] = deg'(0) = crossing({0})
    pair = (-2 * adj).astype(dtype)
    # Column vertex w needs only its entries below 2^(w-1), so bit i skips
    # the rows up to vertex i + 1.
    cols = np.empty((n, 1 << kc), dtype=dtype)
    cols[:, 0] = a
    cols[kc + 1 :, 0] = 0
    for i in range(kc):
        np.add(cols[i + 2 :, : 1 << i], pair[i + 2 :, i + 1, None], out=cols[i + 2 :, 1 << i : 2 << i])
    rows = np.empty((n, 1 << kr), dtype=dtype)
    rows[:, 0] = a
    for i in range(kr):
        np.add(rows[:, : 1 << i], pair[:, kc + 1 + i, None], out=rows[:, 1 << i : 2 << i])
    steps = np.take(cols[kc + 1 :], perm, axis=1)  # cols[v] in column order, v > kc
    first = np.empty(1 << kc, dtype=dtype)
    first[0] = a[0]
    for i in range(kc):
        np.add(first[: 1 << i], cols[i + 1, : 1 << i], out=first[1 << i : 2 << i])
    del cols  # steps and first hold all the walk reads; free it before the chunk
    table = np.empty((1 << kr, 1 << kc), dtype=dtype)
    table[0] = first[perm]
    for i in range(kr):
        gained = table[1 << i : 2 << i]  # the rows holding vertex kc + 1 + i
        np.add(table[: 1 << i], steps[i], out=gained)
        np.add(gained, rows[kc + 1 + i, : 1 << i, None], out=gained)
    off = np.zeros(1 << kr, dtype=np.int64)
    # to_high[j] lists the pairs (i, -2 m) joining high vertex k + 1 + j to
    # high bit i; moves_table[j] says whether it has a column neighbour.
    high_rows = adj[k + 1 :].tolist()
    to_high = [[(i, -2 * m) for i, m in enumerate(row[k + 1 :]) if m] for row in high_rows]
    moves_table = [any(row[1 : kc + 1]) for row in high_rows]
    best = best_key = math.inf
    c = 0  # the chunk's high vertices, bit j for vertex k + 1 + j
    starts, block_min = col_bounds[:-1], None
    for gray in range(1 << high):
        if gray:
            bit = (gray & -gray).bit_length() - 1
            c ^= 1 << bit
            update = np.add if c >> bit & 1 else np.subtract
            if moves_table[bit]:
                update(table, steps[kr + bit], out=table)
                block_min = None
            shift = sum(m for i, m in to_high[bit] if c >> i & 1)
            update(off, rows[k + 1 + bit] + shift, out=off)
        if block_min is None:
            block_min = np.minimum.reduceat(table, starts, axis=1)
        scaled = (block_min + off[:, None]) * block_scale[c.bit_count()]
        if c == (1 << high) - 1:
            scaled[-1, -1] = _NOT_A_CUT  # A is never the whole vertex set
        least = int(scaled.min())
        if least > best:
            continue
        found = []  # the tied cuts' masks R: their blocks' least entries
        for r, p in zip(*np.nonzero(scaled == least)):
            lo, hi = col_bounds[p], col_bounds[p + 1]
            hit = table[r, lo:hi] == block_min[r, p]
            found.append(perm[lo:hi][hit] + (1 << (n - 1) | c << k | r << kc))
        masks = np.concatenate(found)
        keys = _lex_key(masks, n)
        i = int(np.argmin(keys))
        if least < best or keys[i] < best_key:
            best, best_key, best_mask = least, int(keys[i]), int(masks[i])
    # The counts are exact integers, so a zero minimum means a side with no
    # edge leaving it: the graph is disconnected.
    if best == 0:
        raise DisconnectedGraphError(
            "cheeger constant of a disconnected graph degenerates to 0; "
            "refusing the trivial answer"
        )
    smaller = min(best_mask.bit_count(), n - best_mask.bit_count())
    in_a = np.array([best_mask >> (n - 1 - v) & 1 for v in range(n)], dtype=bool)
    return _verified(g, in_a, best * smaller // unit, smaller, EXACT, METHOD_BRUTE_FORCE)


def lemma_cut(cover: CoveredGraph) -> CheegerResult:
    """The certified cut splitting fibers on their last bitvector coordinate.

    Side A holds the fibers whose last coordinate is 0.  Exactly the lifts of
    the last cotree edge cross, so the ratio is 2^r / (2^(r-1) #V(base)) =
    2 / #V(base).  Any coordinate would do; the last is fixed for determinism.
    """
    r = cover.rank
    if r < 1:
        raise ValidationError("trivial cover (rank 0) has no coordinate cut")
    high_bit = 1 << (r - 1)  # the bitvector is the low r bits of a vertex id
    in_a = (np.arange(cover.graph.num_vertices) & high_bit) == 0
    # The claim is the closed form: 2^r crossing lifts, 2^(r-1) #V(base) a side.
    half = high_bit * cover.base.num_vertices
    return _verified(
        cover.graph, in_a, cover.sheets, half, UPPER_BOUND, METHOD_LEMMA_CUT
    )


def sweep_cut(g: MultiGraph, vectors: Sequence[Sequence[float]] | np.ndarray) -> CheegerResult:
    """Best prefix cut over the vertex orders given by a basis.

    `vectors` is a 2-D array with one vector per row, so one vector is a
    one-row basis; any other shape raises ValidationError.  Each row orders
    the vertices by value, and values within SWEEP_TIE_TOLERANCE times
    the row's largest magnitude form one tie class, ordered by vertex id.
    Ties between equal-ratio cuts keep the shortest prefix, then the earliest
    row.  All rows are sorted and counted in one batched pass.  The result
    is an upper bound on the Cheeger constant (and equals it whenever the
    optimum cut is a prefix).
    """
    n = g.num_vertices
    rows = np.asarray(vectors, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValidationError(
            f"sweep vectors have shape {rows.shape}, graph has {n} vertices"
        )
    if not np.all(np.isfinite(rows)):
        raise ValidationError("sweep vectors must be finite")
    if n < 2:
        raise DegenerateCutError("sweep cut needs at least two vertices")
    if len(rows) == 0:
        raise ValidationError("sweep cut needs at least one vector")
    if not is_connected(g):
        raise DisconnectedGraphError("sweep cut requires a connected graph")
    k = len(rows)
    order = _sweep_orders(rows)
    position = np.empty_like(order)
    position[np.arange(k)[:, np.newaxis], order] = np.arange(n)
    # Edge {u, v} crosses the prefix of size s when min(pos) < s <= max(pos):
    # it enters the count at min + 1 and leaves it at max + 1.  One bincount
    # takes every row's entries and then every row's exits, n + 1 bins each.
    ends = g.ends[g.ends[:, 0] != g.ends[:, 1]]
    pu, pv = position[:, ends[:, 0]], position[:, ends[:, 1]]
    steps = np.concatenate((np.minimum(pu, pv), np.maximum(pu, pv)))
    steps += np.arange(2 * k)[:, np.newaxis] * (n + 1) + 1
    enter, leave = np.bincount(steps.ravel(), minlength=2 * k * (n + 1)).reshape(2, k, n + 1)
    crossing = np.cumsum(enter - leave, axis=1)[:, 1:n]
    smaller = np.minimum(np.arange(1, n), np.arange(n - 1, 0, -1))
    ratio = crossing / smaller
    # Float ratios only shortlist (rounding is monotone, so the exact minima
    # are on it); the exact minimum is taken on Fractions, ties keeping the
    # shortest prefix and then the earliest row.
    near_rows, near = np.nonzero(ratio <= ratio.min() * (1 + 1e-9))
    _, i, r = min(
        (Fraction(int(crossing[r, i]), int(smaller[i])), i, r)
        for r, i in zip(near_rows.tolist(), near.tolist())
    )
    in_a = position[r] <= i
    return _verified(g, in_a, int(crossing[r, i]), int(smaller[i]), UPPER_BOUND, METHOD_SWEEP)


def _sweep_orders(rows: np.ndarray) -> np.ndarray:
    """Each row's vertex ids by value, near-equal values as one tie class by id."""
    k, n = rows.shape
    by_value = np.argsort(rows, axis=1, kind="stable")
    scale = np.max(np.abs(rows), axis=1, keepdims=True)
    starts = np.diff(np.take_along_axis(rows, by_value, axis=1), axis=1) > (
        SWEEP_TIE_TOLERANCE * scale
    )
    tie_class = np.zeros((k, n), dtype=np.int64)
    np.cumsum(starts, axis=1, out=tie_class[:, 1:])
    # Tie classes run in value order, so (class, id) as one key orders each
    # class by id and keeps the classes in place; the ids are the keys mod n.
    key = tie_class * n + by_value
    return np.sort(key, axis=1) % n
