"""Spans around the calls into each covertower layer, recorded from outside.

The package has no hooks, so the tracer swaps each public function for a
wrapper at the name where its callers look it up (``covertower.tower.z2_cover``,
``covertower.multigraph.component_count``, ...) and restores the originals
afterwards.  A span is [name, start, end, parent index, op id, info]; a layer's
self time is its span duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# Golub & Van Loan, Matrix Computations, 4th ed., section 8.3: the symmetric
# QR algorithm costs about 4n^3/3 flops for eigenvalues only and 9n^3 with
# eigenvectors.  These are computed counts, not measured ones.
EIGEN_FLOPS_VALUES = 4 / 3
EIGEN_FLOPS_VECTORS = 9.0
# Model of the exhaustive enumerator: per subset and per distinct crossing
# pair it streams the 8-byte mask array in and the 8-byte crossing array in
# and out.
EXACT_BYTES_PER_PAIR = 24

LAYERS = ("cli", "seeds", "multigraph", "covers", "tower", "svgplot", "cheeger", "spectrum", "eigen")


def _graph_arg(index):
    return lambda args, kwargs, result: {"graph": id(args[index])}


def _eigen_info(args, kwargs, result):
    n = args[0].shape[0]
    vectors = kwargs.get("vectors", args[1] if len(args) > 1 else True)
    return {"flops": (EIGEN_FLOPS_VECTORS if vectors else EIGEN_FLOPS_VALUES) * n**3}


def _eigen_name(args, kwargs):
    vectors = kwargs.get("vectors", args[1] if len(args) > 1 else True)
    return "eigen.vectors" if vectors else "eigen.values"


def _exact_info(args, kwargs, result):
    g = args[0]
    n = g.num_vertices
    pairs = len({(u, v) for u, v in g.edges if u != v})
    subsets = (1 << (n - 1)) - 1
    return {"subsets": subsets, "edge_ops": subsets * pairs,
            "bytes": EXACT_BYTES_PER_PAIR * subsets * pairs}


def _cover_info(args, kwargs, result):
    return {"edges": result.graph.num_edges}


def _tower_info(args, kwargs, result):
    return {"sweep_reported": sum(row.cheeger_method == "sweep" for row in result.levels)}


def _targets():
    """(owner, attribute, span name, info) for every wrapped lookup name."""
    from covertower import cheeger, cli, multigraph, spectrum, tower

    mg = multigraph.MultiGraph
    return [
        (cli, "resolve_graph_input", "seeds.resolve_graph_input", None),
        (mg, "from_json", "multigraph.from_json", None),
        (cli, "iterate_tower", "tower.iterate_tower", _tower_info),
        (cli, "report_to_json_dict", "tower.serialize", None),
        (cli, "report_to_csv_text", "tower.serialize", None),
        (cli, "tower_svg", "svgplot.tower_svg", None),
        (cli, "z2_cover", "covers.z2_cover", _cover_info),
        (tower, "z2_cover", "covers.z2_cover", _cover_info),
        (cli, "spanning_tree", "multigraph.spanning_tree", _graph_arg(0)),
        (tower, "spanning_tree", "multigraph.spanning_tree", _graph_arg(0)),
        (multigraph, "component_count", "multigraph.component_count", _graph_arg(0)),
        (multigraph.CoverSpec, "validate_for", "multigraph.validate_for", _graph_arg(1)),
        (mg, "to_json", "multigraph.to_json", lambda a, k, r: {"bytes": len(r)}),
        (cheeger, "exact_cheeger", "cheeger.exact_cheeger", _exact_info),
        (cheeger, "lemma_cut", "cheeger.lemma_cut", None),
        (cheeger, "sweep_cut", "cheeger.sweep_cut", None),
        (cheeger, "verify_witness", "cheeger.verify_witness", None),
        (spectrum, "laplacian", "spectrum.laplacian", None),
        (spectrum, "symmetric_eigensystem", _eigen_name, _eigen_info),
    ]


class Tracer:
    """Collects spans in memory while installed; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.errors: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[label.split(".")[0]] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op: int):
        """Wrap every target for the duration of one op."""
        self.op = op
        saved = []
        try:
            for owner, attr, name, info in _targets():
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, info))
                else:
                    wrapped = self.wrap(name, raw, info)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a root span (the benchmark's call into the CLI)."""
        return self.wrap(name, fn)(*args)

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op means of self time and counts for every layer span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        info: dict[str, Counter] = defaultdict(Counter)
        traversals = 0
        graphs: set = set()
        for i, (name, start, end, _, _, extra) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if extra:
                info[name].update({k: v for k, v in extra.items() if k != "graph"})
                if "graph" in extra:
                    root = i
                    while self.spans[root][3] is not None:
                        root = self.spans[root][3]
                    traversals += 1
                    graphs.add((root, extra["graph"]))

        def per_op(x):
            return x / ops

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        metrics = {f"{name}.self_s": (per_op(self_s[name]), "s/op") for name in (
            "cli.main", "seeds.resolve_graph_input", "multigraph.from_json",
            "tower.iterate_tower", "tower.serialize", "svgplot.tower_svg",
            "covers.z2_cover", "multigraph.spanning_tree", "multigraph.component_count",
            "multigraph.validate_for", "multigraph.to_json", "spectrum.laplacian",
            "eigen.values", "eigen.vectors", "cheeger.exact_cheeger", "cheeger.lemma_cut",
            "cheeger.sweep_cut", "cheeger.verify_witness",
        )}
        exact = info["cheeger.exact_cheeger"]
        metrics.update({
            "eigen.calls": (per_op(calls["eigen.values"] + calls["eigen.vectors"]), "count/op"),
            "eigen.flops_computed": (
                per_op(info["eigen.values"]["flops"] + info["eigen.vectors"]["flops"]), "flop/op"),
            "cheeger.sweep_kept_ratio": (
                ratio(info["tower.iterate_tower"]["sweep_reported"], calls["cheeger.sweep_cut"]),
                "ratio"),
            "covers.z2_cover.edges_per_s": (
                ratio(info["covers.z2_cover"]["edges"], self_s["covers.z2_cover"]), "edges/s"),
            "multigraph.component_count.calls": (
                per_op(calls["multigraph.component_count"]), "count/op"),
            "multigraph.traversals_per_level": (
                ratio(traversals, len(graphs)), "count/graph"),
            "multigraph.to_json.bytes": (per_op(info["multigraph.to_json"]["bytes"]), "B/op"),
            "cheeger.exact_cheeger.subsets": (per_op(exact["subsets"]), "count/op"),
            "cheeger.exact_cheeger.subsets_per_s": (
                ratio(exact["subsets"], self_s["cheeger.exact_cheeger"]), "subsets/s"),
            "cheeger.exact_cheeger.edge_ops": (per_op(exact["edge_ops"]), "count/op"),
            "cheeger.exact_cheeger.bytes_computed": (per_op(exact["bytes"]), "B/op"),
        })
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = (per_op(self.errors[layer]), "count/op")
        metrics["trace.attributed_s"] = (per_op(sum(self_s.values())), "s/op")
        return metrics

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "info": info}
            for n, s, e, p, op, info in self.spans
        ]
