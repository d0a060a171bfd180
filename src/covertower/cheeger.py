"""Cheeger constants: exact brute force, certified cuts, and sweep bounds.

All ratios are exact rationals (crossing count over smaller-side size).
The exhaustive search ranks them in float32 when W * floor(n/2)^2 < 2^23
(W the non-loop edge weight), where rounding can neither merge nor reorder
two of them, and in float64 otherwise.
Crossing counts include parallel-edge multiplicity; loops never cross.

The exhaustive search fixes vertex 0 on side A, halving the 2^n subsets.
It splits the subset range into chunks of at most 2^16 cuts, whose tables fit
in a core's L2 cache, and visits them in Gray-code order of their high
vertices.  Subset-sum doubling builds the first chunk's crossing counts and
one table per high vertex with a low neighbour, and each later chunk is its
predecessor plus or minus at most one of those tables and one constant, so
the search costs O(2^(n-1)) whatever the edge count.
Ties between minimum-ratio cuts are broken by the lexicographically smallest
A as a sorted id list (so a shorter prefix beats its extensions).

Every method states its claim (witness side, crossing count and smaller-side
size) from its own arithmetic and passes it once through `verify_witness`,
the single recount, before it returns; a claim the recount does not
confirm raises ValidationError.  Callers need no second check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
# its time doubles per vertex, about 0.03 s at 26 vertices and 0.5 s at 30
# on one 2-core host, so about 35 s at 36.  (Its uint64 masks allow 62.)
MAX_BRUTE_FORCE_CAP = 36
_CHUNK_BITS = 16
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

    def __eq__(self, other):
        if not isinstance(other, Cut):
            return NotImplemented
        return (
            self.crossing_edges == other.crossing_edges
            and self.ratio == other.ratio
            and np.array_equal(self.in_a, other.in_a)
        )

    def __hash__(self):
        return hash((self.in_a.tobytes(), self.crossing_edges, self.ratio))

    def to_json_dict(self) -> dict:
        return {
            "side_a": list(self.side_a),
            "side_b": list(self.side_b),
            "crossing_edges": self.crossing_edges,
            "ratio": str(self.ratio),
        }


@dataclass(frozen=True)
class CheegerResult:
    """A Cheeger value together with the cut witnessing it."""

    value: Fraction
    witness: Cut
    certified: str  # EXACT or UPPER_BOUND
    method: str  # METHOD_BRUTE_FORCE, METHOD_LEMMA_CUT, or METHOD_SWEEP

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
    if (crossing, ratio, ratio) != (claim.crossing_edges, claim.ratio, result.value):
        raise ValidationError(
            f"witness does not re-verify: recomputed {crossing} crossing "
            f"edges and ratio {ratio}, claimed {claim.crossing_edges} "
            f"and {result.value}"
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
    ratio = Fraction(crossing, smaller)
    result = CheegerResult(ratio, Cut(in_a, crossing, ratio), certified, method)
    verify_witness(g, result)
    return result


def _bit_reverse(masks: np.ndarray, width: int) -> np.ndarray:
    """Reverse the low `width` bits of each uint64 (vectorized)."""
    v = masks.astype(np.uint64)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    v = ((v >> np.uint64(1)) & m1) | ((v & m1) << np.uint64(1))
    v = ((v >> np.uint64(2)) & m2) | ((v & m2) << np.uint64(2))
    v = ((v >> np.uint64(4)) & m4) | ((v & m4) << np.uint64(4))
    v = v.byteswap()
    return v >> np.uint64(64 - width)


def _lex_key(masks: np.ndarray, n: int) -> np.ndarray:
    """The rank of each set A (bit v of its mask marks id v) in the tie order.

    The order is that of sorted id lists with a prefix before its
    extensions; 1 is the rank of {0}.  The sets up to A are its prefixes
    (popcount of them, A included) and, for each id b < max(A) missing from
    A, the 2^(n-1-b) sets that agree with A below b and then take b.  With R
    the bit reverse (id v weighs 2^(n-1-v)), those blocks sum to
    2^n - R - (R & -R), since R & -R is the weight of max(A).
    """
    r = _bit_reverse(masks, n).astype(np.int64)
    return (1 << n) - r - (r & -r) + np.bitwise_count(masks)


def _edge_multiplicities(g: MultiGraph) -> list[tuple[int, int, int]]:
    """(u, v, multiplicity) of each distinct non-loop pair, ascending."""
    n = g.num_vertices
    ends = g.ends[g.ends[:, 0] != g.ends[:, 1]]
    keys, counts = np.unique(ends[:, 0] * n + ends[:, 1], return_counts=True)
    return [(*divmod(k, n), m) for k, m in zip(keys.tolist(), counts.tolist())]


def _subset_sums(table: np.ndarray, base: int, weights: Sequence[int]) -> np.ndarray:
    """Fill table[x] = base + sum of weights[i] over the set bits i of x.

    Doubling: table[x + 2^i] = table[x] + weights[i], one numpy add per bit.
    """
    table[0] = base
    for i, w in enumerate(weights):
        np.add(table[: 1 << i], w, out=table[1 << i : 2 << i])
    return table


def exact_cheeger(
    g: MultiGraph, max_vertices: int = DEFAULT_BRUTE_FORCE_CAP
) -> CheegerResult:
    """Exhaustive minimum over all 2^(n-1) - 1 bipartitions.

    Subset index x puts vertex j + 1 on side A when bit j of x is set;
    vertex 0 is always on side A.  The low k = min(_CHUNK_BITS, n - 1) bits
    index within one chunk of 2^k cuts and the high bits are fixed within
    it.  With S = {0} plus the chunk's high vertices and L_x the low
    vertices in A, the chunk's table holds crossing(S + L_x) for every x.
    The first chunk (S = {0}) is built by doubling over the low vertices w,

        crossing({0} + L + w) = crossing({0} + L) + a_w - 2 m(w, L),
        a_w = deg'(w) - 2 m(w, 0),

    where deg' counts non-loop edge ends with multiplicity and m(w, L) is
    the edge weight between w and L.  The chunks are then visited in binary
    reflected Gray-code order of their high vertices, so the next chunk
    moves one high vertex h into S or out of it, and its table is this one
    plus or minus

        a_h - 2 m(h, L_x) - 2 m(h, S - {0, h}):

    a table of -2 m(h, L_x), built once per high vertex with a low
    neighbour (it is zero for the others), applied first, and then one
    constant.  Every table is filled by subset-sum doubling
    (t[x + 2^i] = t[x] + ...), so the search costs O(2^(n-1)) table entries
    whatever the edge count, and one chunk's tables (about 0.5 MB at the
    default 2^16 cuts) stay in a core's L2 cache.

    Every table entry, and every partial sum on the way from one chunk's
    counts to the next, lies within 3W of zero (W the non-loop edge
    weight): a count is in [0, W], a step entry in [-2W, 0], and the
    constant, deg'(h) - 2 m(h, S - {h}), in [-W, W].  So the tables use the
    smallest integer type that holds -3W.

    Each chunk ranks its ratios in float32 when W * floor(n/2)^2 < 2^23
    (W the non-loop edge weight), else in float64; float32 is exact there,
    since counts up to W and sides up to floor(n/2) convert exactly, equal
    rationals give equal correctly rounded quotients, and each quotient is
    within W 2^-24 of its ratio while distinct ratios differ by at least
    1 / floor(n/2)^2.

    Each chunk's minimum joins the running best by an exact (crossing,
    side) comparison and then `_lex_key`, neither of which depends on the
    order of the chunks, so any partitioning of the range and any visiting
    order yield the identical result.
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
    edge_mults = _edge_multiplicities(g)
    k = min(_CHUNK_BITS, n - 1)
    chunk = 1 << k
    high = n - 1 - k  # the high vertices are k + 1 + j for bit j of a chunk
    # Every table entry lies within 3 * (non-loop edge weight) of zero (see
    # the docstring).
    weight = sum(m for _, _, m in edge_mults)
    dtype = np.min_scalar_type(-3 * weight)
    # a[v] = deg'(v) - 2 m(0, v) for v >= 1 and a[0] = deg'(0) = crossing({0});
    # to_low[v] lists -2 m(u, v) over the low vertices u < v, and to_high[j]
    # the pairs (i, -2 m) joining high vertex k + 1 + j to high bit i.
    a = [0] * n
    to_low = [[0] * min(v - 1, k) for v in range(n)]
    to_high = [[] for _ in range(high)]
    for u, v, mult in edge_mults:
        a[u] += mult
        a[v] += mult if u else -mult
        if 1 <= u <= k:
            to_low[v][u - 1] -= 2 * mult
        elif u > k:
            to_high[u - k - 1].append((v - k - 1, -2 * mult))
            to_high[v - k - 1].append((u - k - 1, -2 * mult))
    # table[x] = crossing({0} + L_x), by doubling over the low vertices w:
    # adding w to {0} + L changes the count by the gain a_w - 2 m(w, L).
    table = np.empty(chunk, dtype=dtype)
    table[0] = a[0]
    for w in range(1, k + 1):
        half = 1 << (w - 1)
        gain = _subset_sums(table[half : 2 * half], a[w], to_low[w])
        np.add(gain, table[:half], out=gain)
    # steps[j][x] = -2 m(h, L_x) for high vertex h = k + 1 + j, or None when
    # h has no low neighbour and the table would be all zeros.
    steps = [
        _subset_sums(np.empty(chunk, dtype=dtype), 0, to_low[h]) if any(to_low[h]) else None
        for h in range(k + 1, n)
    ]
    low_count = _subset_sums(np.empty(chunk, dtype=np.uint8), 0, [1] * k)  # |L_x|
    side = np.empty(chunk, dtype=np.uint8)
    # The float ratios rank the cuts exactly (see the docstring's bound).
    single = weight * (n // 2) ** 2 < 1 << 23
    ratio = np.empty(chunk, dtype=np.float32 if single else np.float64)
    best_crossing = best_side = best_key = -1
    last = (1 << high) - 1  # the chunk holding every high vertex
    c = 0  # the chunk's high vertices, bit j for vertex k + 1 + j
    for gray in range(1 << high):
        if gray:
            # Gray order: this chunk moves the high vertex h of gray's lowest
            # set bit into S (or out of it), which adds (or subtracts)
            # a_h - 2 m(h, L_x) - 2 m(h, S - {0, h}) to every count.
            bit = (gray & -gray).bit_length() - 1
            c ^= 1 << bit
            update = np.add if c >> bit & 1 else np.subtract
            if steps[bit] is not None:
                update(table, steps[bit], out=table)
            shift = a[k + 1 + bit] + sum(m for i, m in to_high[bit] if c >> i & 1)
            update(table, shift, out=table)
        start = c << k
        count = chunk - (c == last)  # A is never the whole vertex set
        cross = table[:count]
        smaller = side[:count]
        np.add(low_count[:count], 1 + c.bit_count(), out=smaller)  # |A|
        other = ratio.view(np.uint8)[:count]  # scratch until the ratios land
        np.subtract(n, smaller, out=other)
        np.minimum(smaller, other, out=smaller)
        chunk_ratio = np.divide(cross, smaller, out=ratio[:count], dtype=ratio.dtype)
        i_min = int(np.argmin(chunk_ratio))
        c_min, s_min = int(cross[i_min]), int(smaller[i_min])
        if best_crossing >= 0 and c_min * best_side > best_crossing * s_min:
            continue
        # Tie resolution: the least _lex_key among the chunk's minima, which
        # is comparable with the best key of the other chunks.
        ties = np.flatnonzero(chunk_ratio == chunk_ratio[i_min])
        keys = _lex_key(((ties + start) << 1) | 1, n)
        j = int(np.argmin(keys))
        if (
            best_crossing < 0
            or c_min * best_side < best_crossing * s_min
            or (c_min * best_side == best_crossing * s_min and keys[j] < best_key)
        ):
            # Claim the winner's own table entry: an equal ratio can come
            # from another (crossing, side) pair, as 8/2 ties with 4/1.
            i = int(ties[j])
            best_key, best_mask = int(keys[j]), ((start + i) << 1) | 1
            best_crossing, best_side = int(cross[i]), int(smaller[i])
    # The counts are exact integers, so a zero minimum means a side with no
    # edge leaving it: the graph is disconnected.
    if best_crossing == 0:
        raise DisconnectedGraphError(
            "cheeger constant of a disconnected graph degenerates to 0; "
            "refusing the trivial answer"
        )
    in_a = (best_mask >> np.arange(n)) & 1 == 1
    return _verified(g, in_a, best_crossing, best_side, EXACT, METHOD_BRUTE_FORCE)


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


def sweep_cut(g: MultiGraph, vectors: Sequence[float] | np.ndarray) -> CheegerResult:
    """Best prefix cut over the vertex orders given by one vector or a basis.

    `vectors` is one vector or a 2-D array with one vector per row; each row
    orders the vertices by value, and values within SWEEP_TIE_TOLERANCE times
    the row's largest magnitude form one tie class, ordered by vertex id.
    Ties between equal-ratio cuts keep the shortest prefix, then the earliest
    row.  All rows are sorted and counted in one batched pass.  The result
    is an upper bound on the Cheeger constant (and equals it whenever the
    optimum cut is a prefix).
    """
    n = g.num_vertices
    rows = np.asarray(vectors, dtype=float)
    if rows.ndim == 1:
        rows = rows[np.newaxis, :]
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
    # class by id and keeps the classes in place.
    key = tie_class * n + by_value
    return np.take_along_axis(by_value, np.argsort(key, axis=1), axis=1)
