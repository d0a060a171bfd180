"""Fixed reference kernels that measure the host's speed next to the ops.

The machine the benchmark was written on is a shared VM whose vCPU speed
drifts by up to 2x within seconds and between minutes, and CPU time drifts
with wall time (the hypervisor reports no steal). The reported times are
therefore rescaled to a reference speed: each timed interval is multiplied by
``REFERENCE_S[kernel] / measured``, where ``measured`` is the mean time of
the workload's kernel run just before and just after the interval in the same
process. The kernels are benchmark code and never call covertower, so a change
to the program moves the rescaled times exactly as it moves wall time at a
steady host speed.

Each workload names the kernel whose bottleneck resembles its own: ``objects``
(Python object churn: serialising and parsing small dicts, lists and
strings) for the tower workloads, ``stream`` (numpy shifts, xors and sums over
uint64 arrays of the exhaustive search's chunk size, 2^20 elements) for the
exhaustive search. ``setup_s`` is rescaled by ``interpreter``, a fresh
interpreter that imports numpy: the ops' kernels run in this process and do
not track the start-up of another.
"""
from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import numpy as np

# Median kernel times on the reference host: 2 vCPUs of an Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6, quiet periods. They only set the scale: both
# sides of any comparison are rescaled by the same constant.
REFERENCE_S = {"objects": 0.0030, "stream": 0.0200, "interpreter": 0.1600}
CHILD_TIMEOUT_S = 60

_RECORDS = [{"id": i, "label": f"v{i}", "nbrs": [i, i + 1, i * 3 % 97]} for i in range(1500)]
_STREAM_PAIRS = ((0, 3), (1, 5))


def objects() -> int:
    return len(json.loads(json.dumps(_RECORDS)))


def stream() -> int:
    masks = (np.arange(1 << 20, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
    total = np.zeros(masks.shape, dtype=np.uint64)
    for u, v in _STREAM_PAIRS:
        total += ((masks >> np.uint64(u)) ^ (masks >> np.uint64(v))) & np.uint64(1)
    return int(total.sum())


def run_child(argv: list[str], **popen_kwargs) -> float:
    """Wall time of a child process, which must exit with status 0.

    A blocking wait returns as soon as the child exits; ``subprocess.run``
    with a timeout polls every 50 ms and would round the time up to that step.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, **popen_kwargs)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def interpreter() -> None:
    run_child([sys.executable, "-c", "import numpy"])


KERNELS = {"objects": objects, "stream": stream, "interpreter": interpreter}


def time_kernel(name: str) -> float:
    kernel = KERNELS[name]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def rescale(seconds: float, name: str, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the kernel times around it."""
    return seconds * REFERENCE_S[name] * 2 / (before + after)
