"""Finite unoriented multigraphs: loops and parallel edges are first-class.

Vertices are dense integers 0..n-1 with optional string labels.  Edges are
stored canonically as (u, v) with u <= v; the edge id is the position in the
edge tuple.  Instances are immutable and safe to share.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ValidationError

JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MultiGraph:
    """Immutable multigraph with canonical (u <= v) edge storage."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValidationError("vertex count must be nonnegative")
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u <= v < self.num_vertices):
                raise ValidationError(
                    f"edge {i} has endpoints ({u}, {v}) outside 0..{self.num_vertices - 1} "
                    "or not in canonical u <= v order"
                )
        if self.labels is not None and len(self.labels) != self.num_vertices:
            raise ValidationError(
                f"got {len(self.labels)} labels for {self.num_vertices} vertices"
            )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        if not 0 <= edge_id < len(self.edges):
            raise ValidationError(f"edge id {edge_id} out of range")
        return self.edges[edge_id]

    def label_of(self, v: int) -> str:
        self._check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Edge-endpoint incidences per vertex; a loop contributes 2."""
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: (edge id, other endpoint) pairs, ascending edge id.

        Loops appear once; use ``degrees`` for loop-doubled counts.
        """
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append((e, v))
            if u != v:
                inc[v].append((e, u))
        return tuple(tuple(entries) for entries in inc)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise ValidationError(f"vertex id {v} out of range 0..{self.num_vertices - 1}")

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {"schema": JSON_SCHEMA_VERSION, "vertices": self.num_vertices}
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        doc["edges"] = [[u, v] for u, v in self.edges]
        return doc

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``, written directly.

        The standard encoder runs in pure Python when indenting; formatting
        the edges with f-strings gives the same text several times faster.
        """
        parts = [f'{{\n  "schema": {JSON_SCHEMA_VERSION},\n  "vertices": {self.num_vertices},\n']
        if self.labels is not None:
            labels = [f"    {json.dumps(label)}" for label in self.labels]
            parts.append(f'  "labels": {_json_list(labels)},\n')
        edges = [f"    [\n      {u},\n      {v}\n    ]" for u, v in self.edges]
        parts.append(f'  "edges": {_json_list(edges)}\n}}\n')
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
        edges = []
        for i, pair in enumerate(doc["edges"]):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValidationError(f"edge {i} must be a pair of vertex ids")
            edges.append((pair[0], pair[1]))
        if labels is not None:
            labels = [str(x) for x in labels]
        return build_graph(n, edges, labels=labels)

    @classmethod
    def from_json(cls, text: str) -> "MultiGraph":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(doc)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in range(self.num_vertices):
            if self.labels is not None:
                lines.append(f'  {v} [label="{_dot_escape(self.labels[v])}"];')
            else:
                lines.append(f"  {v};")
        for u, v in self.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _json_list(items: list[str]) -> str:
    """A top-level field's JSON array of already indented items."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n  ]"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass(frozen=True)
class CoverSpec:
    """A maximal forest plus ordered, oriented cotree edges.

    ``cotree_edges`` entries are (edge id, tail, head); the orientation only
    matters for parameterizing the double cover, not for the underlying
    undirected result.
    """

    tree_edges: frozenset[int]
    cotree_edges: tuple[tuple[int, int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.cotree_edges)

    def validate_for(self, g: MultiGraph) -> None:
        """Raise SpecMismatchError unless this spec is a maximal forest of g."""
        from .errors import SpecMismatchError

        cotree_ids = [e for e, _, _ in self.cotree_edges]
        claimed = set(self.tree_edges) | set(cotree_ids)
        if len(self.tree_edges) + len(cotree_ids) != g.num_edges or claimed != set(
            range(g.num_edges)
        ):
            raise SpecMismatchError("tree and cotree do not partition the edge set")
        for e, tail, head in self.cotree_edges:
            u, v = g.endpoints(e)
            if {tail, head} != {u, v}:
                raise SpecMismatchError(f"cotree edge {e} directed between non-endpoints")
        # The tree edges must be acyclic, and maximal: no cotree edge may
        # join two of their trees.
        parent = list(range(g.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in sorted(self.tree_edges):
            u, v = g.endpoints(e)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise SpecMismatchError(f"tree edge {e} closes a cycle")
            parent[ru] = rv
        for _, tail, head in self.cotree_edges:
            if find(tail) != find(head):
                raise SpecMismatchError("tree is not maximal (does not span every component)")


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
    return MultiGraph(
        num_vertices=vertex_count,
        edges=tuple(edges),
        labels=tuple(labels) if labels is not None else None,
    )


def _is_int(value) -> bool:
    """True for ints but not bools, which JSON's true/false would become."""
    return isinstance(value, int) and not isinstance(value, bool)


def spanning_tree(g: MultiGraph) -> CoverSpec:
    """Deterministic maximal forest via BFS.

    BFS starts at the lowest vertex id of each component and explores edges
    in ascending edge-id order.  Cotree edges are listed ascending and each
    is directed from its lower-id endpoint to its higher-id endpoint.
    """
    visited = [False] * g.num_vertices
    tree: set[int] = set()
    for root in range(g.num_vertices):
        if visited[root]:
            continue
        visited[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for eid, other in g.incidence[v]:
                if not visited[other]:
                    visited[other] = True
                    tree.add(eid)
                    queue.append(other)
    cotree = tuple(
        (e, u, v) for e, (u, v) in enumerate(g.edges) if e not in tree
    )
    return CoverSpec(tree_edges=frozenset(tree), cotree_edges=cotree)


def component_count(g: MultiGraph) -> int:
    """Connected components: a maximal forest has #V - #components edges."""
    return g.num_vertices - len(spanning_tree(g).tree_edges)


def is_connected(g: MultiGraph) -> bool:
    return component_count(g) <= 1
