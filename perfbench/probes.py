"""Counters the benchmark takes in every run, traced or not.

None of them changes the program: the garbage collector keeps its default
thresholds, BLAS keeps its default thread count, and the autodiff graph is
only read.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np


class GcProbe:
    """``gc.callbacks`` hook: collections and pause time per generation.

    Only collections that finish while ``active`` is set are counted, so the
    numbers cover the timed window alone.
    """

    def __init__(self) -> None:
        self.active = False
        self.counts = [0, 0, 0]
        self.pause_s = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self.active:
            gen = info["generation"]
            self.counts[gen] += 1
            self.pause_s[gen] += time.perf_counter() - self._started


def graph_size(loss) -> tuple[int, int]:
    """Recorded op nodes reachable from ``loss`` and the bytes their values hold.

    Leaves (parameters and constants) are not counted: they outlive the step.
    """
    seen = {id(loss)}
    stack = [loss]
    nodes = nbytes = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            nodes += 1
            nbytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes, nbytes


_CALIB_MATRIX = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128) / 128.0


def host_calib_ms(reps: int = 5) -> float:
    """Median time of a fixed numpy-plus-interpreter loop; tracks the host, not the code."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        x = _CALIB_MATRIX
        for _ in range(8):
            x = np.tanh(x @ _CALIB_MATRIX)
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, read through its own API.

    The library is already loaded by numpy, so ``CDLL`` returns that instance.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas_threads = _openblas_threads()
    except OSError:
        blas_threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "openblas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
