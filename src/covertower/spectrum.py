"""Graph Laplacians and spectral summaries.

Degree convention: a loop adds 2 to both the adjacency diagonal and the
degree, so loops cancel exactly in the combinatorial Laplacian L = D - A.
Normalized spectra are computed from entrywise-symmetric formulas so the
matrix handed to the eigensolver is symmetric to the last bit.

Eigensystems come from LAPACK through numpy (``eigvalsh``/``eigh``), one
call per stack of matrices.  One run of zeros (``zero_run``) decides a
spectrum's lambda1, its printed zeros and its zero multiplicity.

Every spectrum takes one path, ``laplacian_spectrum``.  It reads a graph as
the Z/2 cover of a base along a set of cotree edges: the deck group
(Z/2)^r splits the cover's Laplacian into one signed Laplacian of the base
per character, so 2^r eigenproblems of the base's size replace one of the
cover's.  The signed adjacencies are assembled once as an integer stack
(``character_laplacians``), and each requested kind is derived from it and
solved in one stacked call: the tower asks for both kinds of a level at
once, the ``spectrum`` CLI and ``cheeger --method sweep`` for one.  A plain
graph is its own rank-0 cover, with no cotree edges and one block, its
Laplacian (``laplacian``); the CLI and the tower's seed take that case, and
every tower level >= 1 is the cover of the level below.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SpectrumError, ValidationError
from .multigraph import MultiGraph, cotree_ids

COMBINATORIAL = "combinatorial"
NORMALIZED = "normalized"

DEFAULT_SPECTRUM_CAP = 2048
_SIGNIFICANT_DIGITS = 12
# Eigenspace columns whose residual against the earlier pivot columns is at
# most this are dependent; the residuals do not depend on the basis.
_PIVOT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted Laplacian spectrum with its first nonzero eigenvalue.

    lambda1 is None when no eigenvalue exceeds the zero tolerance (single
    vertex, or loops-only graphs); a disconnected graph reports lambda1 = 0.0
    with zero_multiplicity > 1 as the flag.
    """

    kind: str
    eigenvalues: tuple[float, ...]
    lambda1: float | None
    zero_multiplicity: int
    max_degree: int

    def to_json_dict(self) -> dict:
        eigenvalues = np.array([round_sig(x) for x in self.eigenvalues], dtype=float)
        eigenvalues[zero_run(np.asarray(self.eigenvalues))] = 0.0
        return {
            "schema": 1,
            "kind": self.kind,
            "eigenvalues": eigenvalues.tolist(),
            "lambda1": round_sig(self.lambda1) if self.lambda1 is not None else None,
            "zero_multiplicity": self.zero_multiplicity,
            "max_degree": self.max_degree,
        }


def round_sig(x: float) -> float:
    """Round to _SIGNIFICANT_DIGITS significant digits (stable float formatting)."""
    return float(f"{x:.{_SIGNIFICANT_DIGITS}g}")


def symmetric_eigensystem(
    matrix: np.ndarray, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric matrices.

    ``matrix`` is one n x n matrix or a stack of shape (..., n, n), solved
    matrix by matrix in one call.  Returns (w, V) with V[..., :, k] the
    eigenvector for w[..., k], or (w, None) when vectors is False.  The
    eigenvectors' signs are LAPACK's.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError("matrix must be square")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValidationError("matrix must be symmetric")
    try:
        if not vectors:
            return np.linalg.eigvalsh(a), None
        w, v = np.linalg.eigh(a)
        return w, v
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


def laplacian(g: MultiGraph, kind: str = COMBINATORIAL) -> np.ndarray:
    """Combinatorial L = D - A, or the symmetric normalized variant: g's rank-0 block."""
    return character_laplacians(g, (), (kind,))[0][0]


def _laplacian_of(a: np.ndarray, deg: np.ndarray, kind: str) -> np.ndarray:
    """D - A, or its normalized form, for one integer adjacency or a stack of them."""
    if kind == COMBINATORIAL:
        return (np.diag(deg) - a).astype(float)
    if np.any(deg == 0):
        isolated = int(np.argmin(deg))
        raise SpectrumError(
            f"normalized laplacian undefined: vertex {isolated} is isolated"
        )
    # Entrywise-symmetric construction: off-diagonal -A_uv / sqrt(deg_u deg_v),
    # diagonal (deg_v - A_vv) / deg_v.
    denom = np.sqrt(np.outer(deg, deg).astype(float))
    # The negation puts -0.0 in the off-diagonal zeros, and LAPACK reads that
    # sign: +0.0 moves eigenvalues' low bits, and can move a printed digit.
    lap = -(a.astype(float))
    lap /= denom  # in place: numpy reuses a temporary only if both operands share a shape
    diagonal = np.arange(len(deg))
    lap[..., diagonal, diagonal] = (deg - a[..., diagonal, diagonal]) / deg.astype(float)
    return lap


def character_laplacians(
    base: MultiGraph, cotree: Sequence[int], kinds: Sequence[str] = (COMBINATORIAL,)
) -> list[np.ndarray]:
    """The blocks of a cover's Laplacian, one per character of its deck group, for each kind.

    The cover is that of base along the r cotree edge ids (in coordinate
    order).  Character s of (Z/2)^r is a -> (-1)^popcount(s & a).  Block s is
    the base-sized signed Laplacian D - A_s: A_s is the base's adjacency with
    cotree edge j weighted by the sign (-1)^(bit j of s), so a cotree loop
    puts 2 * sign on the diagonal.  The cover keeps the base's degrees, so D
    is the base's, and the normalized block is D^(-1/2) (D - A_s) D^(-1/2).
    The cover's Laplacian maps f(v * 2^r + a) = g(v) (-1)^popcount(s & a) to
    the same lift of (block s) g, so its spectrum is the union of the
    blocks' spectra.  The integer stack of the A_s is assembled once, and
    every kind is derived from it.  Returns one (2^r, n, n) stack per kind,
    in order; block 0, the trivial character's, is base's own Laplacian.
    The ids are checked as ``z2_cover`` checks them (``cotree_ids``).
    """
    if not kinds or isinstance(kinds, str):
        raise ValidationError(f"laplacian kinds must be a nonempty sequence, not {kinds!r}")
    for kind in kinds:
        if kind not in (COMBINATORIAL, NORMALIZED):
            raise ValidationError(f"unknown laplacian kind {kind!r}")
    cotree_ids(base, cotree)
    n, r = base.num_vertices, len(cotree)
    # sign[s, e] is the weight of edge e in A_s: 1 on a tree edge.
    sign = np.ones((1 << r, base.num_edges), dtype=np.int64)
    flipped = (np.arange(1 << r)[:, np.newaxis] >> np.arange(r)) & 1
    sign[:, np.asarray(cotree, dtype=np.int64)] = 1 - 2 * flipped
    blocks = np.zeros((1 << r, n, n), dtype=np.int64)
    u, v = base.ends.T
    # Adding at (u, v) and at (v, u) counts a loop twice on the diagonal.
    np.add.at(blocks, (slice(None), u, v), sign)
    np.add.at(blocks, (slice(None), v, u), sign)
    deg = np.asarray(base.degrees, dtype=np.int64)
    return [_laplacian_of(blocks, deg, kind) for kind in kinds]


def laplacian_spectrum(
    base: MultiGraph,
    cotree: Sequence[int],
    kinds: Sequence[str] = (COMBINATORIAL,),
    vectors: bool = False,
    max_vertices: int = DEFAULT_SPECTRUM_CAP,
) -> tuple[tuple[np.ndarray, ...], np.ndarray | None]:
    """The Laplacian spectra of the cover of base along the cotree edge ids.

    With no cotree edges the cover is base itself.  Returns (spectra,
    basis): spectra[i] is the union of the character blocks' spectra of
    kinds[i], ascending, which is the spectrum of laplacian(cover, kinds[i]).
    All kinds share one block assembly (character_laplacians), and each is
    one stacked eigensolve.  With vectors, basis is the sweep basis of the
    first kind: the canonical_basis, one row per vector, of the eigenspace of
    lambda1_of(w) (within zero_tolerance; empty when None), w = spectra[0].
    It is reduced from the orthonormal rows lifted from the block
    eigenvectors g of character s as g(v) (-1)^popcount(s & a) / sqrt(2^r)
    at vertex v * 2^r + a.  Otherwise basis is None.

    A cover above max_vertices is rejected before any matrix exists.  With
    n base vertices the 2^r blocks cost 2^r n^3 <= (2^r n)^3 flops and hold
    2^r n^2 floats, against (2^r n)^2 for the cover's own Laplacian.
    """
    sheets = 1 << len(cotree)
    if base.num_vertices * sheets > max_vertices:
        raise SpectrumError(
            f"graph has {base.num_vertices * sheets} vertices, "
            f"above the dense-solver cap {max_vertices}"
        )
    stacks = character_laplacians(base, cotree, kinds)
    solved = [symmetric_eigensystem(blocks, vectors and not i) for i, blocks in enumerate(stacks)]
    spectra = tuple(np.sort(block_w, axis=None) for block_w, _ in solved)
    (block_w, block_v), w = solved[0], spectra[0]
    if block_v is None:
        return spectra, None
    if (lambda1 := lambda1_of(w)) is None:
        return spectra, np.zeros((0, len(w)))
    s, k = np.nonzero(np.abs(block_w - lambda1) <= zero_tolerance(w))
    # bitwise_count gives uint8, so the signs are taken in float: 1 - 2 * 1 would wrap.
    parity = np.bitwise_count(s[:, np.newaxis] & np.arange(sheets)) & 1
    signs = 1.0 - 2.0 * parity
    lifted = block_v[s, :, k][:, :, np.newaxis] * signs[:, np.newaxis, :]
    return spectra, canonical_basis(lifted.reshape(len(s), -1) / math.sqrt(sheets))


def zero_tolerance(eigenvalues: np.ndarray) -> float:
    """1e-9 times the larger of 1 and the radius of an ascending spectrum, read at its ends."""
    if not len(eigenvalues):
        return 1e-9
    return 1e-9 * max(1.0, abs(float(eigenvalues[0])), abs(float(eigenvalues[-1])))


def zero_run(eigenvalues: np.ndarray) -> slice:
    """The entries |x| <= tol = zero_tolerance of an ascending spectrum, as one slice.

    Found at O(1) places, they are those of a full pass: the largest |x| is
    at one end, where zero_tolerance reads it; the run starts at the first
    x >= -tol (searchsorted left) and stops before the first x > tol
    (searchsorted right), so every entry from its stop on is > tol.
    """
    tol = zero_tolerance(eigenvalues)
    start = np.searchsorted(eigenvalues, -tol, side="left")
    return slice(int(start), int(np.searchsorted(eigenvalues, tol, side="right")))


def lambda1_of(eigenvalues: np.ndarray) -> float | None:
    """The entry just after an ascending spectrum's zero run (see SpectralSummary).

    0.0 when the run holds more than one entry (a disconnected graph), None when none follows.
    """
    zeros = zero_run(eigenvalues)
    if zeros.stop - zeros.start > 1:
        return 0.0
    return float(eigenvalues[zeros.stop]) if zeros.stop < len(eigenvalues) else None


def full_spectrum(
    g: MultiGraph, kind: str = COMBINATORIAL, max_vertices: int = DEFAULT_SPECTRUM_CAP
) -> SpectralSummary:
    """The spectrum of laplacian(g, kind), summarized; the ``spectrum`` command's document."""
    (w,), _ = laplacian_spectrum(g, (), (kind,), max_vertices=max_vertices)
    return SpectralSummary(
        kind=kind,
        eigenvalues=tuple(float(x) for x in w),
        lambda1=lambda1_of(w),
        zero_multiplicity=len(w[zero_run(w)]),
        max_degree=max(g.degrees, default=0),
    )


def canonical_basis(span: np.ndarray) -> np.ndarray:
    """The reduced row-echelon form of a basis given as independent rows.

    The pivots are the first vertex columns independent of the earlier ones.
    Both depend only on the space the rows span, so the result is the same
    (up to rounding) whatever basis of an eigenspace the solver returned.
    """
    k = span.shape[0]
    basis = np.zeros((k, k))  # the orthonormal pivot columns, filled left to right
    pivots: list[int] = []
    for j in range(span.shape[1]):
        q = basis[:, : len(pivots)]
        column = span[:, j]
        for _ in range(2):  # reorthogonalize once: Gram-Schmidt loses accuracy
            column = column - q @ (q.T @ column)
        norm = math.sqrt(column @ column)  # np.linalg.norm's formula for a real vector
        if norm > _PIVOT_TOLERANCE:
            basis[:, len(pivots)] = column / norm
            pivots.append(j)
            if len(pivots) == k:
                break
    return np.linalg.solve(span[:, pivots], span)
