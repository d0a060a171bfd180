"""Finite unoriented multigraphs: loops and parallel edges are first-class.

Vertices are dense integers 0..n-1 with optional string labels; a cover's
labels are a ``CoverLabels``, derived from the ids on read.  The edges
are one (E, 2) int64 array, ``ends``, each row canonical (u, v) with u <= v;
the edge id is the row index.  ``edges`` (a tuple of pairs) and ``degrees``
are derived from it on first use, so code that handles large covers reads
``ends`` and never builds per-edge Python objects.  ``spanning_tree`` is the
only walk of the graph vertex by vertex; every other connectivity question
is answered by ``component_count`` in numpy.  Instances are immutable (the
array is read-only) and safe to share.
"""
from __future__ import annotations

import json
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable

import numpy as np

from .errors import DisconnectedGraphError, SizeCapError, SpecMismatchError, ValidationError

JSON_SCHEMA_VERSION = 1
# Edges formatted per block by ``_edge_text``: bounds its byte buffers.
_EDGE_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """Immutable multigraph with canonical (u <= v) edge rows in ``ends``."""

    num_vertices: int
    ends: np.ndarray
    labels: tuple[str, ...] | CoverLabels | None = None

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValidationError("vertex count must be nonnegative")
        check_vertex_count(self.num_vertices)
        ends = np.asarray(self.ends, dtype=np.int64)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValidationError(f"edge array has shape {ends.shape}, not (E, 2)")
        ends = ends.view()
        ends.flags.writeable = False
        object.__setattr__(self, "ends", ends)
        u, v = ends[:, 0], ends[:, 1]
        if len(ends) and (u.min() < 0 or v.max() >= self.num_vertices or (u > v).any()):
            i = int(((u < 0) | (u > v) | (v >= self.num_vertices)).argmax())
            raise ValidationError(
                f"edge {i} has endpoints ({u[i]}, {v[i]}) outside 0..{self.num_vertices - 1} "
                "or not in canonical u <= v order"
            )
        if self.labels is not None and len(self.labels) != self.num_vertices:
            raise ValidationError(
                f"got {len(self.labels)} labels for {self.num_vertices} vertices"
            )

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.labels == other.labels
            and np.array_equal(self.ends, other.ends)
        )

    @property
    def num_edges(self) -> int:
        return len(self.ends)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edge rows as (u, v) tuples, for small graphs and tests."""
        return tuple(map(tuple, self.ends.tolist()))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Edge-endpoint incidences per vertex; a loop contributes 2."""
        return tuple(np.bincount(self.ends.ravel(), minlength=self.num_vertices).tolist())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """The graph document as ``json.dumps(doc, indent=2) + "\\n"`` writes it.

        doc holds "schema", "vertices", "labels" (only when the graph has
        labels) and "edges" as a list of [u, v] rows, in that order; it is
        what ``from_json_dict`` reads.  The standard encoder runs in pure
        Python when indenting.  Here the labels are joined from their escaped
        heads and tails (see ``CoverLabels.parts``) and the edges are
        formatted from byte rows by ``_edge_text``, so no Python object is
        built per edge; the text is the same, several times faster.
        """
        parts = [f'{{\n  "schema": {JSON_SCHEMA_VERSION},\n  "vertices": {self.num_vertices},\n']
        if self.labels is not None:
            # Each head is an escaped string without its closing quote.
            heads, tails = self._label_parts(lambda x: encode_basestring_ascii(x)[:-1])
            sep = ",\n    "
            labels = sep.join(h + ('"' + sep + h).join(tails) + '"' for h in heads)
            parts += ['  "labels": ', *_json_list(["    ", labels] if labels else []), ",\n"]
        edges = _edge_text(self.ends, "    [\n      ", ",\n      ", "\n    ],\n")
        if edges:
            edges[-1] = edges[-1][:-2]  # the last edge has no ",\n"
        parts += ['  "edges": ', *_json_list(edges), "\n}\n"]
        return "".join(parts)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MultiGraph":
        if not isinstance(doc, dict):
            raise ValidationError("graph document must be a JSON object")
        schema = doc.get("schema", JSON_SCHEMA_VERSION)
        if schema != JSON_SCHEMA_VERSION:
            raise ValidationError(f"unsupported graph schema {schema!r}")
        if "vertices" not in doc or "edges" not in doc:
            raise ValidationError("graph document needs 'vertices' and 'edges'")
        n = doc["vertices"]
        if not _is_int(n):
            raise ValidationError("'vertices' must be an integer")
        if not isinstance(doc["edges"], list):
            raise ValidationError("'edges' must be a list of vertex-id pairs")
        labels = doc.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ValidationError("'labels' must be a list")
        if labels is not None:
            labels = [str(x) for x in labels]
        return build_graph(n, doc["edges"], labels=labels)

    @classmethod
    def from_json(cls, text: str) -> "MultiGraph":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(doc)

    def _label_parts(self, escape) -> tuple[list[str], list[str]]:
        """``CoverLabels.parts`` of the labels, eager or derived."""
        return CoverLabels(self.labels, (), self.num_vertices).parts(escape)

    def to_dot(self) -> str:
        """The graph in Graphviz DOT: one line per vertex, then one per edge.

        The edge lines are formatted from byte rows by ``_edge_text``.
        """
        if self.labels is None:
            vertices = [f"  {v};\n" for v in range(self.num_vertices)]
        else:
            heads, tails = self._label_parts(lambda x: x.replace("\\", "\\\\").replace('"', '\\"'))
            labels = (h + t for h in heads for t in tails)
            vertices = [f'  {v} [label="{label}"];\n' for v, label in enumerate(labels)]
        edges = _edge_text(self.ends, "  ", " -- ", ";\n")
        return "".join(["graph G {\n", *vertices, *edges, "}\n"])


class CoverLabels:
    """The labels of an iterated cover, derived from its vertex ids on read.

    A cover of rank r labels vertex v as label(v >> r) + "|" + the low r bits
    of v, bit j written j-th from the left.  ``root`` holds the labels of the
    graph covered first (None: its ids), ``ranks`` the rank of each step
    since; a ``root`` that is itself a CoverLabels is unfolded.  Labels
    iterate as their strings (from ``parts``), equal their tuple, do not hash.
    """

    def __init__(self, root: Sequence[str] | None, ranks: tuple[int, ...], size: int):
        if isinstance(root, CoverLabels):
            root, ranks = root.root, root.ranks + ranks
        self.root, self.ranks, self._size = root, ranks, size

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        heads, tails = self.parts(str)
        return (h + t for h in heads for t in tails)

    def __eq__(self, other):
        if not isinstance(other, (tuple, CoverLabels)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def parts(self, escape) -> tuple[list[str], list[str]]:
        """(heads, tails): label i * len(tails) + j is heads[i] + tails[j].

        Each root label is escaped once.  The tails hold the steps from the
        last of positive rank on and the heads every step before it, so a
        run of rank-0 steps only lengthens the tails.
        """
        roots = self.root if self.root is not None else range(self._size >> sum(self.ranks))
        heads, tails = [escape(str(x)) for x in roots], [""]
        for r in self.ranks:
            if r:
                heads, tails = [h + t for h in heads for t in tails], [""]
            # bits[a] is "|" and then bitvector a, bit j at position j.
            bits = ["|"]
            for _ in range(r):
                bits = [b + "0" for b in bits] + [b + "1" for b in bits]
            tails = [t + b for t in tails for b in bits]
        return heads, tails


def check_vertex_count(n: int) -> None:
    """SizeCapError unless n < 2^58, below which numpy can make every array n sizes.

    numpy refuses arrays of 2^63 bytes or more; the largest sized by n are
    int64 ranges of n + 1 entries (``spanning_tree``, ``component_count``)
    and ``_id_rows``' table of n ids, each at most 18 digits below 2^58.
    Every MultiGraph is held to it when built, before any such array exists.
    """
    if n >= 1 << 58:
        raise SizeCapError(f"graph has {n} vertices, above the limit {(1 << 58) - 1}")


def _json_list(body: list[str]) -> list[str]:
    """A top-level field's JSON array around the pieces of its indented items."""
    return ["[\n", *body, "\n  ]"] if body else ["[]"]


def _id_rows(count: int) -> np.ndarray:
    """The ids 0..count-1 in decimal, one void row each, right-aligned in NULs.

    The ids are an arange, so the digits at place 10^j repeat each digit
    10^j times, in a cycle; the ids below 10^j (j > 0) have none there.
    """
    width = len(str(count - 1))
    rows = np.zeros((count, width), dtype=np.uint8)
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    for j in range(width):
        place = 10**j
        column = rows[:, width - 1 - j]
        column[:] = np.tile(np.repeat(digits, place), -(-count // (10 * place)))[:count]
        if j:
            column[:place] = 0
    return rows.view(f"V{width}").ravel()


def _edge_text(ends: np.ndarray, lead: str, mid: str, tail: str) -> list[str]:
    """lead + u + mid + v + tail for each edge row (u, v), as blocks of text.

    Each block of ``_EDGE_CHUNK`` edges gathers the endpoints' ``_id_rows``
    into one buffer of fixed-width rows, which is decoded once after its
    NUL padding is dropped.
    """
    if not len(ends):
        return []
    ids = _id_rows(int(ends.max()) + 1)
    pad = "\0" * ids.itemsize
    template = (lead + pad + mid + pad + tail).encode()
    row = np.dtype({
        "names": ["u", "v"],
        "formats": [ids.dtype, ids.dtype],
        "offsets": [len(lead), len(lead) + ids.itemsize + len(mid)],
        "itemsize": len(template),
    })
    buffer = np.frombuffer(bytearray(template * min(len(ends), _EDGE_CHUNK)), dtype=row)
    blocks = []
    for start in range(0, len(ends), _EDGE_CHUNK):
        chunk = ends[start:start + _EDGE_CHUNK]
        block = buffer[: len(chunk)]
        block["u"] = ids[chunk[:, 0]]
        block["v"] = ids[chunk[:, 1]]
        blocks.append(block.tobytes().replace(b"\0", b"").decode("ascii"))
    return blocks


@dataclass(frozen=True)
class CoverSpec:
    """The edges that change sheet, as edge ids in coordinate order.

    Edge j is coordinate j of the cover's fibers (see ``covers``).  Each is
    read in its canonical ``ends`` row: over Z/2 its direction does not
    change the cover, only the ids in its fiber.
    """

    cotree_edges: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.cotree_edges)

    def validate_for(self, g: MultiGraph) -> None:
        """Raise DisconnectedGraphError unless g without the cotree edges is connected.

        Ids that are not distinct edge ids of g raise SpecMismatchError first
        (``cotree_ids``); then ``component_count`` counts the components of
        the rest.  ``covers`` shows why this is the rule.
        """
        keep = np.ones(g.num_edges, dtype=bool)
        keep[list(cotree_ids(g, self.cotree_edges))] = False
        if component_count(MultiGraph(g.num_vertices, g.ends[keep])) > 1:
            raise DisconnectedGraphError("the graph without the cotree edges is disconnected")


def cotree_ids(g: MultiGraph, cotree: Iterable) -> set[int]:
    """The cotree edge ids as a set; SpecMismatchError unless each is a distinct edge id of g."""
    ids: set[int] = set()
    for e in cotree:
        if not (_is_int(e) and 0 <= e < g.num_edges):
            raise SpecMismatchError(f"cotree edge {e!r} is not an edge id of the graph")
        if e in ids:
            raise SpecMismatchError(f"cotree edge {e} is listed twice")
        ids.add(e)
    return ids


def build_graph(
    vertex_count: int,
    edge_list: Iterable[Sequence[int]],
    labels: Sequence[str] | None = None,
) -> MultiGraph:
    """Construct a canonical MultiGraph; edge ids follow input order."""
    if not _is_int(vertex_count):
        raise ValidationError("vertex count must be an integer")
    edges = []
    for i, pair in enumerate(edge_list):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValidationError(f"edge {i} is not an endpoint pair") from None
        if not (_is_int(u) and _is_int(v)):
            raise ValidationError(f"edge {i} endpoints must be integers")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValidationError(
                f"edge {i} endpoints ({u}, {v}) out of range for {vertex_count} vertices"
            )
        edges.append((u, v) if u <= v else (v, u))
    try:
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise SizeCapError("vertex ids must fit in 64-bit integers") from None
    return MultiGraph(
        num_vertices=vertex_count,
        ends=ends,
        labels=tuple(labels) if labels is not None else None,
    )


def _is_int(value) -> bool:
    """True for ints but not bools, which JSON's true/false would become."""
    return isinstance(value, int) and not isinstance(value, bool)


def spanning_tree(g: MultiGraph) -> CoverSpec:
    """Deterministic maximal forest by BFS; cotree ids ascending.

    BFS starts at the lowest vertex id of each component, takes vertices
    first in, first out, and explores each one's edges in ascending id.
    Endpoint 2e + j of ``ends.ravel()`` is end j of edge e, so one stable
    argsort lists every vertex's edges in that order; a loop is listed twice
    and never joins the tree.
    """
    n, flat = g.num_vertices, g.ends.ravel()
    order = np.argsort(flat, kind="stable")
    start = np.searchsorted(flat, np.arange(n + 1), sorter=order).tolist()
    other = flat[order ^ 1].tolist()
    seen = [False] * n
    taken = []  # the tree's edges, as positions in order
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for i in range(start[v], start[v + 1]):
                w = other[i]
                if not seen[w]:
                    seen[w] = True
                    taken.append(i)
                    queue.append(w)
    cotree = np.ones(g.num_edges, dtype=bool)
    cotree[order[taken] >> 1] = False
    return CoverSpec(tuple(np.flatnonzero(cotree).tolist()))


def component_count(g: MultiGraph) -> int:
    """Connected components, by hooking and pointer jumping over ``ends``.

    Each vertex holds a label, first its own id; a label only decreases, so
    following labels ends at a root (a vertex labelled by itself).  Each
    round hooks, for every edge whose two ends have different labels, the
    larger of those roots to the smaller (``np.minimum.at``), then repeats
    ``label = label[label]`` until it stops changing, so every label is a
    root again.  A root's vertices are always connected.  The rounds stop
    when every edge has equal labels at both ends; the roots are then the
    components.

    A root with a neighbouring root either hooks to a smaller one or is
    smaller than all of them, and then each of them hooks into another
    root's tree: its own (it absorbed a root), or one below it, which it
    hooks to in the next round.  So within two rounds every such root stops
    being a root or absorbs another, which at least halves them: O(log V)
    rounds of O(E) hooks, each followed by O(log V) jumps of O(V).
    """
    label = np.arange(g.num_vertices)
    u, v = g.ends[:, 0], g.ends[:, 1]
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return int(np.count_nonzero(label == np.arange(g.num_vertices)))
        lu, lv = lu[split], lv[split]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def is_connected(g: MultiGraph) -> bool:
    return component_count(g) <= 1
