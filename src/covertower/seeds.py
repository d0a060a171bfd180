"""Named builtin seed graphs and input resolution for the CLI.

Builtins:
  figure8    one vertex with two loops
  theta      two vertices joined by three parallel edges
  cycle:n    the n-cycle; cycle:1 is a loop and cycle:2 a doubled edge
  bouquet:r  one vertex with r loops (figure8 = bouquet:2)

Cycles and bouquets use one edge per (vertex, generator-step) pair, so
cycle:2 really has two parallel edges; that convention keeps every cover
level satisfying #E = 2 #V on the bouquet towers.  The edge rows are built
as one numpy array, so a name too large to build fails at that allocation.

A parameter must be written as str() writes its value: ASCII digits with no
sign, space, underscore or leading zero, so cycle:1_0, cycle:+5, cycle:05,
cycle: 5 and the full-width cycle:５ are refused.  The report records the
name as given, so each builtin graph has one name.

A name that is not a builtin is read as a graph JSON file.  So is a name
with a builtin prefix whose parameter is refused, when a file of that name
exists: cycle:3.json is then that file, and otherwise a bad cycle parameter.
A name the builtins accept is always the builtin, even when a file of that
name exists.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import ValidationError
from .multigraph import MultiGraph


def builtin_seed(name: str) -> MultiGraph | None:
    """The named builtin graph, or None when the name is not a builtin."""
    if name == "figure8":
        return builtin_seed("bouquet:2")
    if name == "theta":
        return MultiGraph(2, [(0, 1)] * 3)
    if name.startswith("cycle:"):
        n = _positive_int(name, "cycle")
        # 1, 2, ..., 2n halved: row i is (i, i + 1), then the last row closes the cycle.
        ends = np.arange(1, 2 * n + 1).reshape(n, 2) // 2
        ends[-1] = 0, n - 1
        return MultiGraph(n, ends)
    if name.startswith("bouquet:"):
        r = _positive_int(name, "bouquet", minimum=0)
        return MultiGraph(1, np.zeros((r, 2), dtype=np.int64))
    return None


def _positive_int(name: str, prefix: str, minimum: int = 1) -> int:
    raw = name[len(prefix) + 1 :]
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or raw != str(value):
        raise ValidationError(f"bad {prefix} parameter {raw!r}")
    if value < minimum:
        raise ValidationError(f"{prefix} parameter must be >= {minimum}, got {value}")
    return value


def resolve_graph_input(spec: str) -> MultiGraph:
    """The graph a seed name or JSON file path names, as the module says."""
    try:
        g = builtin_seed(spec)
    except ValidationError:
        if not os.path.exists(spec):
            raise
    else:
        if g is not None:
            return g
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return MultiGraph.from_json(fh.read())
    raise ValidationError(
        f"{spec!r} is neither a builtin seed (figure8, theta, cycle:n, bouquet:r) "
        "nor an existing file"
    )
