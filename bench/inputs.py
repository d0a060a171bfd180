"""Seeded input graphs for the benchmark workloads.

Every op draws a fresh graph from one ``random.Random`` stream keyed by the
workload name and the ``--seed`` argument, so a run never repeats an input and
the same seed always yields the same byte sequence of graph JSON files.
"""
from __future__ import annotations

import json
import random
from typing import Iterator

Graph = tuple[int, list[tuple[int, int]]]


def random_connected_multigraph(rng: random.Random, n: int, rank: int) -> Graph:
    """A connected multigraph with n vertices and n - 1 + rank edges.

    A random recursive tree on shuffled vertex ids makes it connected; the
    other `rank` edges join uniform vertex pairs, so loops and parallel edges
    occur.  Edge order is shuffled, because edge ids steer the program's tree.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rank)]
    rng.shuffle(edges)
    return n, edges


def graph_json(graph: Graph) -> str:
    """Graph JSON (schema 1) as the CLI reads it: ids only, no labels."""
    n, edges = graph
    return json.dumps({"schema": 1, "vertices": n, "edges": [list(e) for e in edges]}) + "\n"


def input_stream(workload: str, seed: int, n: int, rank: int) -> Iterator[Graph]:
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield random_connected_multigraph(rng, n, rank)
