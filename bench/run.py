"""Benchmark for the covertower CLI: one long-lived process per workload.

Usage (from the repository root):

    python3 bench/run.py --workload tower-spectral --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

Each op draws a fresh graph from the seed, calls ``covertower.cli.main(argv)``
in this process (a closed loop with one client) and checks the artifacts
against independent oracles.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it carries machine info, sample counts and the known-defect
probes.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread: the load is single-threaded, and a second thread on a
    # two-core machine would compete with the interpreter and add noise. Set
    # before reference.py imports numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    # No transparent huge pages for numpy arrays: whether the kernel grants
    # them (and when khugepaged collapses them later) depends on the host's
    # free memory, and moved the exhaustive search's op time by 15% or more
    # between runs.
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import reference  # noqa: E402
from inputs import graph_json, input_stream  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("tower-spectral", "tower-build", "exact-cheeger")
# setup_s is the median of this many fresh interpreters, spread over the run
# so that they see the same machine load as the ops.
SETUP_REPEATS = 9
SUBPROCESS_TIMEOUT_S = 60
# Known defects, probed once per run and reported outside every workload's
# metrics; a probe that starts passing shows the defect was fixed.
PROBES = (
    {
        "name": "bigint-truncated-row",
        "argv": ["tower", "--seed", "bouquet:12", "--levels", "2"],
        "defect": "the truncated row's vertex count exceeds Python's 4300-digit "
                  "int-to-str limit; the CLI dies with an uncaught ValueError",
    },
)
CLI_MAIN = "import sys; from covertower.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_once() -> float:
    """Wall time of a fresh interpreter importing covertower.cli and building
    its parser: what every CLI invocation pays before its op."""
    return reference.run_child(
        [sys.executable, "-c", "import covertower.cli as c; c.build_parser()"],
        env=_child_env(), cwd=ROOT)


def keep_freed_memory() -> bool:
    """Keep freed heap memory in this process (glibc only).

    Large numpy temporaries otherwise come from fresh mmaps or a trimmed heap
    depending on the heap layout earlier ops and checks left behind, and the
    page faults that follow took up to 40% of an exhaustive search's time.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 1 << 30))


def run_probes(work: str) -> list[dict]:
    results = []
    for probe in PROBES:
        argv = probe["argv"] + ["--out", os.path.join(work, "probe")]
        try:
            proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], env=_child_env(),
                                  capture_output=True, text=True, cwd=work,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            results.append({**probe, "status": "fails", "exit_code": None, "error": "timeout"})
            continue
        lines = proc.stderr.strip().splitlines()
        results.append({**probe, "status": "passes" if proc.returncode == 0 else "fails",
                        "exit_code": proc.returncode, "error": lines[-1] if lines else ""})
    return results


def machine_info(numpy_module, malloc_tuned: bool) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = numpy_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "covertower").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_module.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "malloc_keeps_freed_memory": malloc_tuned,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


class Runner:
    """Runs ops of one workload in this process and keeps their samples."""

    def __init__(self, workload, seed: int, work: str, tracer=None):
        from covertower import cli

        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.main = cli.main
        self.graph_path = os.path.join(work, "g.json")
        self.stream = input_stream(workload.name, seed, workload.vertices, workload.rank)
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced_s: list[float] = []
        # Untraced op times rescaled to the reference host speed; see reference.py.
        self.rescaled_s: list[float] = []
        self.traced_s: list[float] = []
        self.verify_cover_s: list[float] = []

    def op(self, traced: bool) -> None:
        index = self.attempted
        self.attempted += 1
        graph = next(self.stream)
        for name in os.listdir(self.work):  # no check may read a previous op's output
            os.remove(os.path.join(self.work, name))
        with open(self.graph_path, "w", encoding="utf-8") as fh:
            fh.write(graph_json(graph))
        stdouts, problems = [], []
        install = self.tracer.installed(index) if traced else contextlib.nullcontext()
        with install:
            t0 = time.perf_counter()
            try:
                for argv in self.workload.commands(self.graph_path, self.work):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        if traced:
                            code = self.tracer.call("cli.main", self.main, argv)
                        else:
                            code = self.main(argv)
                    stdouts.append(out.getvalue())
                    if code != 0:
                        problems.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            except Exception as exc:  # an uncaught CLI error fails this op only
                frames = traceback.format_exception(exc, limit=-2)
                problems.append("uncaught " + "".join(frames).strip())
            elapsed = time.perf_counter() - t0
        if not problems:
            try:
                problems = self.workload.check(graph, self.work, stdouts, index)
            except Exception:
                problems = ["check crashed: " + traceback.format_exc(limit=3)]
        if traced and self.workload.verify_covers:
            problems += self._verify_cover(graph)
        if problems:
            self.failures.append(f"op {index} ({graph_json(graph).strip()}): {'; '.join(problems)}")
        (self.traced_s if traced else self.untraced_s).append(elapsed)

    def _verify_cover(self, graph) -> list[str]:
        """Time verify_regular_cover on the op's level-1 cover; no CLI path calls it."""
        from covertower.covers import verify_regular_cover, z2_cover
        from covertower.multigraph import build_graph, spanning_tree

        base = build_graph(*graph)
        cover = z2_cover(base, spanning_tree(base))
        t0 = time.perf_counter()
        report = verify_regular_cover(cover)
        self.verify_cover_s.append(time.perf_counter() - t0)
        return [] if report.all_ok else [f"verify_regular_cover: {report.failures[:2]}"]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(runner: Runner, setup_s: float) -> dict:
    samples = runner.rescaled_s
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_ref_s.p50": _metric(statistics.median(samples), "s"),
        "op_ref_s.p90": _metric(statistics.quantiles(samples, n=10)[8], "s"),
        "peak_rss_mb": _metric(rss_kib / 1024, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def wall_times(runner: Runner, setup_wall: list[float], kernel_s: list[float]) -> dict:
    """The end-to-end times before rescaling, for the info line."""
    wall = {"op_s.p50": statistics.median(runner.untraced_s),
            "op_s.p90": statistics.quantiles(runner.untraced_s, n=10)[8]}
    if setup_wall:
        wall["setup_s"] = statistics.median(setup_wall)
    if kernel_s:
        wall["reference_kernel_s.p50"] = statistics.median(kernel_s)
    return wall


def per_layer_metrics(runner: Runner) -> dict:
    tracer = runner.tracer
    traced_p50 = statistics.median(runner.traced_s)
    untraced_p50 = statistics.median(runner.untraced_s)
    layers = tracer.layer_metrics(len(runner.traced_s))
    attributed = layers.pop("trace.attributed_s")[0]
    layers.update({
        "trace.op_s.p50": (traced_p50, "s"),
        "trace.overhead_frac": ((traced_p50 - untraced_p50) / untraced_p50, "ratio"),
        "trace.attributed_frac": (attributed / statistics.fmean(runner.traced_s), "ratio"),
        "covers.verify_regular_cover.s": (
            statistics.median(runner.verify_cover_s) if runner.verify_cover_s else 0.0, "s"),
    })
    return {name: _metric(value, unit) for name, (value, unit) in sorted(layers.items())}


def run_one(args) -> int:
    if not (SRC / "covertower" / "cli.py").is_file():
        print(f"no covertower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import covertower
    import numpy

    if Path(covertower.__file__).resolve().parent != SRC / "covertower":
        print(f"covertower imported from {covertower.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    kernel = workload.reference
    malloc_tuned = keep_freed_memory()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        probes = run_probes(work)
        runner = Runner(workload, args.seed, work, Tracer() if args.trace else None)
        runner.op(traced=False)  # warm-up: checked and counted, not sampled
        runner.untraced_s.clear()
        setup_wall: list[float] = []
        setup_rescaled: list[float] = []
        kernel_s: list[float] = []

        def timed_setup() -> None:
            before = reference.time_kernel("interpreter")
            wall = setup_once()
            setup_wall.append(wall)
            after = reference.time_kernel("interpreter")
            setup_rescaled.append(reference.rescale(wall, "interpreter", before, after))

        # Each untraced op is rescaled by the kernel runs just before and after it.
        reference.time_kernel(kernel)  # warm-up
        last_kernel = reference.time_kernel(kernel)
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(runner.untraced_s) < 2 or (
            args.trace and len(runner.traced_s) < 2
        ):
            due = (time.perf_counter() - start) * SETUP_REPEATS / args.seconds
            if not args.trace and len(setup_wall) < min(due, SETUP_REPEATS):
                timed_setup()
            runner.op(traced=bool(args.trace) and runner.attempted % 2 == 0)
            if not args.trace:
                kernel_s.append(reference.time_kernel(kernel))
                runner.rescaled_s.append(reference.rescale(
                    runner.untraced_s[-1], kernel, last_kernel, kernel_s[-1]))
                last_kernel = kernel_s[-1]
        while not args.trace and len(setup_wall) < SETUP_REPEATS:
            timed_setup()
    if args.trace:
        metrics = per_layer_metrics(runner)
    else:
        metrics = end_to_end_metrics(runner, statistics.median(setup_rescaled))
    failed = len(runner.failures)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {"untraced": len(runner.untraced_s), "traced": len(runner.traced_s)},
        "reference_kernel": kernel,
        "wall_s": wall_times(runner, setup_wall, kernel_s),
        "machine": machine_info(numpy, malloc_tuned),
        "known_defect_probes": probes,
        "failures": runner.failures[:5],
    }
    for line in runner.failures[:5]:
        print("FAILED " + line, file=sys.stderr)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    if args.trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(runner.tracer.dump()) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged, attempted, failed, status, probes = {}, 0, 0, 0, None
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=args.seconds + 600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 and len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}, no result")
                status = 1
                continue
            status = status or proc.returncode
            probes = json.loads(lines[-2])["known_defect_probes"]
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                merged[f"{name}/{metric}"] = m
                print(f"{name:15s} {metric:40s} {m['value']:.6g} {m['unit']}")
    for probe in probes or ():
        print(f"probe {probe['name']}: {probe['status']} (exit {probe['exit_code']}: "
              f"{probe['error']})")
    print(json.dumps({"correct": failed == 0 and status == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return status or (1 if failed else 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
