"""Machine-speed calibration: fixed kernels timed in processes of their own.

The benchmark normalizes its times by how long a fixed kernel, written here
and sharing no code with tspga, takes right now. The kernel runs in
separate long-lived helper processes, never in the process under test, so
the program's own state (heap layout, allocator thresholds, freed arenas)
cannot change the factor that scales the program's times. The two vCPUs of
a shared host change speed independently of each other, so there is one
helper per CPU the benchmark may run on, each pinned to its CPU, and a
kernel time is the mean over them. ``Calibration`` starts the helpers and
asks them for one timing per call; run as a script, this file is a helper:

    python3 perfbench/calibrate.py interpreter 0   # pinned to CPU 0; one line in, one time out

Kernels:

- "interpreter": dict, sort, string and small-array work, for set-up that
  is mostly importing;
- "small-array": a Python loop of small-array element swaps, slice
  reversals and random draws, for workloads whose time goes to GA operators;
- "memory": allocate, fill and stream 32 MB, for workloads whose time goes
  to building large arrays.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def interpreter_kernel_s() -> float:
    """Seconds the machine takes right now for fixed interpreter and small-array work."""
    t0 = time.perf_counter()
    totals = {}
    for i in range(20_000):
        totals[i % 997] = totals.get(i % 997, 0) + i
    ordered = sorted((i * 7919) % 10007 for i in range(20_000))
    "".join(str(x) for x in ordered[:5000])
    a = np.arange(52)
    for _ in range(2000):
        b = a[::-1].copy()
        b[3:9] = b[3:9][::-1]
    return time.perf_counter() - t0


def small_array_kernel_s() -> float:
    """Seconds the machine takes right now for a Python loop over small-array
    element swaps, slice reversals and random draws: the kind of work a GA
    spends its time on, in code of its own."""
    t0 = time.perf_counter()
    g = np.random.default_rng(12345)
    a = np.arange(52)
    for _ in range(1500):
        b = a.copy()
        i, j = int(g.integers(0, 52)), int(g.integers(0, 52))
        b[i], b[j] = b[j], b[i]
        lo, hi = min(i, j), max(i, j)
        b[lo:hi + 1] = b[lo:hi + 1][::-1]
        for h in np.nonzero(g.random(52) < 0.05)[0]:
            h = int(h)
            b[h], b[0] = b[0], b[h]
        a = b
    return time.perf_counter() - t0


def memory_kernel_s() -> float:
    """Seconds the machine takes right now to allocate, fill and stream 32 MB."""
    t0 = time.perf_counter()
    a = np.empty(4_000_000)
    a.fill(1.0)
    float(np.sqrt(a * a + a)[::4096].sum())
    return time.perf_counter() - t0


# name -> (kernel, reference seconds): about the kernel's time on the
# 2-vCPU host the benchmark was tuned on.
KERNELS = {
    "interpreter": (interpreter_kernel_s, 0.012),
    "small-array": (small_array_kernel_s, 0.020),
    "memory": (memory_kernel_s, 0.030),
}


class Calibration:
    """Helper processes, one per CPU this process may run on, that time one kernel whenever asked."""

    def __init__(self, name: str):
        self.reference_s = KERNELS[name][1]
        self._procs = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), name, str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def time_s(self) -> float:
        """The kernel's time, measured now on every CPU at once, averaged."""
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        lines = [proc.stdout.readline() for proc in self._procs]
        if not all(lines):
            raise RuntimeError("a calibration helper exited")
        return sum(map(float, lines)) / len(lines)

    def factor(self, before_s: float, after_s: float) -> float:
        """Reference ÷ the mean of two kernel times taken around a measurement."""
        return 2 * self.reference_s / (before_s + after_s)

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self) -> "Calibration":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(name: str, cpu: int) -> None:
    """Pinned to cpu, time the kernel once per line read from standard input.

    Each time is the mean of three runs. The host slows in bursts, and a
    request suffers the mean slowdown over its span; the fastest of the
    runs would miss bursts and under-correct.
    """
    os.sched_setaffinity(0, {cpu})
    kernel = KERNELS[name][0]
    kernel()
    for _ in sys.stdin:
        print(repr(sum(kernel() for _ in range(3)) / 3), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
