"""Tests of the benchmark itself: seeded inputs, oracles, tracer, failure exits."""
from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import reference  # noqa: E402
from covertower import build_graph, exact_cheeger  # noqa: E402
from covertower.cli import main  # noqa: E402
from inputs import graph_json, input_stream, random_connected_multigraph  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _first(workload, seed, count):
    w = WORKLOADS[workload]
    stream = input_stream(w.name, seed, w.vertices, w.rank)
    return [next(stream) for _ in range(count)]


def _components(graph) -> int:
    n, edges = graph
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs_of_the_stated_shape(name):
    first = [graph_json(g) for g in _first(name, 7, 5)]
    assert first == [graph_json(g) for g in _first(name, 7, 5)]
    assert first != [graph_json(g) for g in _first(name, 8, 5)]
    assert len(set(first)) == len(first)
    w = WORKLOADS[name]
    for n, edges in _first(name, 7, 5):
        assert n == w.vertices
        assert len(edges) - n + 1 == w.rank
        assert _components((n, edges)) == 1


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _write_graph(tmp_path, graph) -> str:
    path = tmp_path / "g.json"
    path.write_text(graph_json(graph))
    return str(path)


@pytest.fixture(scope="module")
def tower_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tower")
    graph = _first("tower-spectral", 3, 1)[0]
    _run_cli(["tower", "--seed", _write_graph(tmp, graph), "--levels", "2",
              "--out", str(tmp / "report")])
    doc = json.loads((tmp / "report.json").read_text())
    return graph, doc, (tmp / "report.csv").read_text()


def _check_tower(doc, graph):
    return oracles.check_tower_report(doc, graph, 2, vertex_cap=10**6,
                                      cheeger_cap=26, spectrum_cap=2048)


def test_tower_oracle_accepts_the_program_output(tower_case):
    graph, doc, csv_text = tower_case
    assert _check_tower(doc, graph) == []
    assert oracles.check_report_csv(csv_text, doc) == []


@pytest.mark.parametrize("level, key, change", [
    (1, "lambda1_combinatorial", lambda x: x * (1 + 1e-7)),
    (1, "lambda1_normalized", lambda x: x * (1 - 1e-7)),
    (0, "lambda1_combinatorial", lambda x: x + 1e-6),
    (1, "edges", lambda x: x + 1),
    (1, "rank", lambda x: x - 1),
    (2, "vertices", lambda x: x + 1),
    (1, "lemma_bound", lambda x: "1/3"),
    (0, "cheeger_value", lambda x: str(Fraction(x) + 1)),
])
def test_tower_oracle_rejects_one_altered_value(tower_case, level, key, change):
    graph, doc, csv_text = tower_case
    bad = copy.deepcopy(doc)
    bad["levels"][level][key] = change(bad["levels"][level][key])
    assert _check_tower(bad, graph)


def test_csv_oracle_rejects_an_altered_count(tower_case):
    graph, doc, csv_text = tower_case
    assert oracles.check_report_csv(csv_text.replace(",128,", ",127,"), doc)


@pytest.fixture(scope="module")
def cheeger_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cheeger")
    graph = random_connected_multigraph(random.Random(11), 12, 20)
    doc = json.loads(_run_cli(["cheeger", _write_graph(tmp, graph), "--method", "exact"]))
    return graph, doc


def test_cheeger_oracle_accepts_the_program_output(cheeger_case):
    graph, doc = cheeger_case
    assert oracles.check_cheeger_doc(doc, graph, brute_force=True) == []


def test_cheeger_oracle_rejects_a_moved_witness_vertex(cheeger_case):
    graph, doc = cheeger_case
    bad = copy.deepcopy(doc)
    moved = bad["witness"]["side_a"].pop()
    bad["witness"]["side_b"] = sorted(bad["witness"]["side_b"] + [moved])
    assert oracles.check_cheeger_doc(bad, graph, brute_force=False)


def test_cheeger_oracle_rejects_an_altered_crossing_count(cheeger_case):
    graph, doc = cheeger_case
    bad = copy.deepcopy(doc)
    bad["witness"]["crossing_edges"] += 1
    assert oracles.check_cheeger_doc(bad, graph, brute_force=False)


def _cut_doc(doc, graph, side_a):
    n, edges = graph
    side_a = sorted(side_a)
    crossing = sum(1 for u, v in edges if (u in side_a) != (v in side_a))
    ratio = str(Fraction(crossing, min(len(side_a), n - len(side_a))))
    witness = {"side_a": side_a, "side_b": [v for v in range(n) if v not in side_a],
               "crossing_edges": crossing, "ratio": ratio}
    return dict(doc, value=ratio, witness=witness)


def test_only_brute_force_rejects_a_consistent_but_worse_cut(cheeger_case):
    graph, doc = cheeger_case
    n, _ = graph
    best = set(doc["witness"]["side_a"])
    worse = [_cut_doc(doc, graph, best ^ {v}) for v in range(1, n) if len(best ^ {v}) > 0]
    sandwiched = [d for d in worse if d["value"] != doc["value"]
                  and oracles.check_cheeger_doc(d, graph, brute_force=False) == []]
    assert sandwiched
    assert oracles.check_cheeger_doc(sandwiched[0], graph, brute_force=True)


def test_brute_force_oracle_matches_the_program():
    rng = random.Random(5)
    for n, rank in [(2, 3), (5, 2), (9, 6), (14, 30)]:
        graph = random_connected_multigraph(rng, n, rank)
        assert oracles.brute_force_cheeger(graph) == exact_cheeger(build_graph(*graph)).value


def test_cover_oracle(tmp_path):
    graph = random_connected_multigraph(random.Random(2), 3, 3)
    path = _write_graph(tmp_path, graph)
    _run_cli(["cover", path, "--iterate", "1", "--out", str(tmp_path / "c.json")])
    doc = json.loads((tmp_path / "c.json").read_text())
    assert oracles.check_cover_doc(doc, graph) == []
    moved = copy.deepcopy(doc)
    u, v = moved["edges"][0]
    moved["edges"][0] = [u, (v + 1) % moved["vertices"]]
    assert oracles.check_cover_doc(moved, graph)
    dropped = dict(doc, edges=doc["edges"][:-1])
    assert oracles.check_cover_doc(dropped, graph)


def test_tracer_attributes_the_whole_op_and_restores_the_package(tmp_path):
    import covertower.tower as tower_mod
    from covertower.multigraph import MultiGraph

    original = tower_mod.z2_cover, MultiGraph.__dict__["from_json"]
    tracer = Tracer()
    with tracer.installed(0):
        assert tower_mod.z2_cover is not original[0]
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.call("cli.main", main, ["cheeger", "theta", "--method", "exact"])
            tracer.call("cli.main", main, ["tower", "--seed", "figure8", "--levels", "1",
                                           "--format", "json", "--out", str(tmp_path / "r")])
    assert (tower_mod.z2_cover, MultiGraph.__dict__["from_json"]) == original
    roots = sum(e - s for _, s, e, parent, _, _ in tracer.spans if parent is None)
    metrics = tracer.layer_metrics(1)
    assert metrics["trace.attributed_s"][0] == pytest.approx(roots, rel=1e-9)
    assert metrics["cheeger.exact_cheeger.subsets"][0] == 1 + 7  # theta (n=2) + cover (n=4)
    assert metrics["eigen.calls"][0] == 4
    assert metrics["covers.z2_cover.self_s"][0] > 0


@pytest.mark.parametrize("kernel", sorted(reference.KERNELS))
def test_rescaling_cancels_host_speed_but_not_op_time(kernel):
    assert reference.KERNELS[kernel]() == reference.KERNELS[kernel]()
    assert reference.time_kernel(kernel) > 0
    ref = reference.REFERENCE_S[kernel]
    assert reference.rescale(0.1, kernel, ref, ref) == pytest.approx(0.1)
    # A host twice as slow doubles the op and the kernel around it alike.
    assert reference.rescale(0.2, kernel, 2 * ref, 2 * ref) == pytest.approx(0.1)
    # A program twice as slow on a steady host doubles the rescaled time.
    assert reference.rescale(0.2, kernel, ref, ref) == pytest.approx(0.2)
    assert {w.reference for w in WORKLOADS.values()} <= set(reference.KERNELS)


def test_runner_counts_failed_checks_and_uncaught_errors(tmp_path):
    from run import PROBES, Runner

    rejecting = Workload(name="reject", vertices=2, rank=1,
                         commands=lambda g, out: [["spectrum", g]],
                         check=lambda graph, out, stdouts, op: ["rejected"])
    runner = Runner(rejecting, 0, str(tmp_path))
    runner.op(traced=False)
    assert runner.attempted == 1 and runner.failures[0].endswith("rejected")

    crashing = Workload(name="crash", vertices=2, rank=1,
                        commands=lambda g, out: [PROBES[0]["argv"] + ["--out", out + "/p"]],
                        check=lambda graph, out, stdouts, op: [])
    runner = Runner(crashing, 0, str(tmp_path))
    runner.op(traced=False)
    assert len(runner.failures) == 1 and "ValueError" in runner.failures[0]


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tower-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
