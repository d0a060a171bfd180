"""Heavy probes of the installed console script: sizes, digests and peak memory.

Each row of PROBES is one child process: its argv, the exit code it must
give, a bound on its peak RSS, the size and SHA-256 of its output where they
are pinned, and the error name of the one JSON line it must write on stderr
when it fails.  The peak RSS is the child's own, read with os.wait4; an
address-space limit (RLIMIT_AS) is set on its probe's child only.  The
probes are too heavy for the tests (a million-vertex level, an 18-level
tower and 100-million-vertex inputs), so CI runs them once, from a temporary
directory, against the installed ``covertower`` script:

    cd "$(mktemp -d)" && python path/to/tests/probes.py

runs every probe in the current directory, which receives the artifacts,
prints one line each and exits 1 unless all hold.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from typing import NamedTuple

# The level-2 cover of bouquet:3, built in process and verified regular.
REGULAR_COVER_CHECK = """
from covertower import spanning_tree, verify_regular_cover, z2_cover
from covertower.seeds import builtin_seed
g = builtin_seed("bouquet:3")
for _ in range(2):
    cover = z2_cover(g, spanning_tree(g), 2_000_000)
    g = cover.graph
assert g.num_vertices == 1 << 20
report = verify_regular_cover(cover)
assert report.all_ok, report.failures
"""
BOUQUET3_L2 = ("covertower", "cover", "bouquet:3", "--iterate", "2", "--vertex-cap", "2000000")
ULIMIT_3GB = 3_000_000 * 1024  # `ulimit -v 3000000`, in bytes


class Probe(NamedTuple):
    name: str
    argv: tuple[str, ...]
    exit_code: int = 0
    rss_mb: int | None = None  # peak RSS must stay below this
    pinned: tuple[int, str] | None = None  # size and SHA-256 of the output
    out: str | None = None  # the file the output goes to; stdout when None
    error: str | None = None  # the one stderr line's error name; stdout stays empty
    address_space: int | None = None  # RLIMIT_AS of the child, in bytes


PROBES: tuple[Probe, ...] = (
    # a 1,048,576-vertex level, and its regular-cover check
    Probe(
        "bouquet:3 L2 tower",
        ("covertower", "tower", "--seed", "bouquet:3", "--levels", "2",
         "--vertex-cap", "2000000"),
        rss_mb=120,
    ),
    Probe(
        "bouquet:3 L2 regular-cover check",
        (sys.executable, "-c", REGULAR_COVER_CHECK),
        rss_mb=200,
    ),
    # cycle:3 up to its 786,432-vertex level 18
    Probe(
        "cycle:3 L18 tower",
        ("covertower", "tower", "--seed", "cycle:3", "--levels", "18"),
        rss_mb=200,
    ),
    Probe(
        "cycle:3 L16 json export",
        ("covertower", "cover", "cycle:3", "--iterate", "16", "--format", "json"),
        pinned=(15703103, "5621fcef8e456f515bc3b76fc788eb67f1f8c70c14f57da4428effdab72d0ca1"),
    ),
    # each cover step verified regular before the level is written
    Probe(
        "bouquet:3 L2 json export",
        (*BOUQUET3_L2, "--format", "json", "--out", "bouquet3-L2.json"),
        rss_mb=450,
        pinned=(157959848, "582cc5eb3f68dbef921861b77754515623d2079002031982b89bdfe35989cc55"),
        out="bouquet3-L2.json",
    ),
    Probe(
        "bouquet:3 L2 dot export",
        (*BOUQUET3_L2, "--format", "dot", "--out", "bouquet3-L2.dot"),
        rss_mb=450,
        pinned=(108614178, "926c98ab2f0ff30687180cc820459c6d24075f229f5f95e9a0e9aaa779cd187c"),
        out="bouquet3-L2.dot",
    ),
    # a cover step above the cap after the first, refused before its level is walked
    Probe(
        "bouquet:3 L3 cover refusal",
        ("covertower", "cover", "bouquet:3", "--iterate", "3", "--vertex-cap", "2000000"),
        exit_code=4,
        rss_mb=250,
        error="SizeCapError",
    ),
    # allocations that fail
    Probe(
        "spectrum cycle:100000000",
        ("covertower", "spectrum", "cycle:100000000"),
        exit_code=4,
        error="SizeCapError",
        address_space=ULIMIT_3GB,
    ),
    Probe(
        "cheeger bouquet:200000000",
        ("covertower", "cheeger", "bouquet:200000000"),
        exit_code=4,
        error="SizeCapError",
        address_space=ULIMIT_3GB,
    ),
)


def spawn(probe: Probe, stdout: str, stderr: str) -> tuple[int, float]:
    """Run the probe's child with its output in the two files: (exit code, peak RSS in MB)."""

    def limit() -> None:
        if probe.address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (probe.address_space, probe.address_space))

    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        child = subprocess.Popen(probe.argv, stdout=out, stderr=err, preexec_fn=limit)
        _, status, usage = os.wait4(child.pid, 0)
    # wait4 reaped the child; recording its code keeps Popen from waiting again
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024


def _error_name(line: str) -> str | None:
    try:
        return json.loads(line)["error"]
    except (ValueError, TypeError, KeyError):
        return None


def check(probe: Probe) -> tuple[str, list[str]]:
    """One line describing the probe's run, and every way it failed."""
    stdout, stderr = "probe.out", "probe.err"
    code, rss_mb = spawn(probe, stdout, stderr)
    failures = []
    if code != probe.exit_code:
        failures.append(f"exit {code}, expected {probe.exit_code}")
    if probe.rss_mb is not None and rss_mb >= probe.rss_mb:
        failures.append(f"peak RSS {rss_mb:.0f} MB, limit {probe.rss_mb} MB")
    line = f"exit {code}, peak RSS {rss_mb:.0f} MB"
    if probe.pinned is not None:
        with open(probe.out or stdout, "rb") as fh:
            data = fh.read()
        got = (len(data), hashlib.sha256(data).hexdigest())
        line += f", {got[0]} bytes"
        if got != probe.pinned:
            failures.append(f"output {got}, pinned {probe.pinned}")
    if probe.error is not None:
        with open(stderr, encoding="utf-8") as fh:
            err = fh.read()
        lines = err.splitlines()
        if os.path.getsize(stdout):
            failures.append("stdout is not empty")
        if "Traceback" in err or len(lines) != 1 or _error_name(lines[0]) != probe.error:
            failures.append(f"stderr is not one {probe.error} line: {err[:500]!r}")
    return line, failures


def main() -> int:
    failed = 0
    for probe in PROBES:
        start = time.perf_counter()
        line, failures = check(probe)
        failed += bool(failures)
        status = "FAIL" if failures else "ok"
        elapsed = time.perf_counter() - start
        print(f"{status:<4} {elapsed:6.1f} s  {probe.name}: {line}", flush=True)
        for failure in failures:
            print(f"     {failure}", flush=True)
    print(f"{len(PROBES) - failed} of {len(PROBES)} probes hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
