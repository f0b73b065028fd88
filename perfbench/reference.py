"""Host-speed references: fixed work timed next to every timed op.

The shared host the benchmark runs on changes speed by up to about 2x
within a second as other tenants come and go, and the share of slow time
differs from run to run, so a plain wall-clock median of the same code
moves by 20-30 % between runs.  The ops of the in-process library
workloads are therefore timed between slices of this fixed kernel, and
each op's wall time is scaled by how fast the kernel ran right before
and right after it:

    scaled s = wall s * NOMINAL_SLICE_S / mean(adjacent slice times)

The kernel does what those ops spend their time on: interpreted Python
and numpy calls on 4-vectors (an RK4 loop).  It never changes, so a
change in the program moves the scaled time in full.  A 64x64 BLAS
kernel and a pure-Python loop tracked the host's speed worse and are not
used.  The mean, not the median, of the slice times is used: a time is a
sum over work, and the host flips between a fast and a slow state, so
the mean estimates the average slowness where a median would jump
between the two states.

Ops that start fresh interpreters (cli_sweep's subcommands, and every
workload's set-up) drift with the host too, by up to 30 % between runs
minutes apart, but the in-process kernel does not track them.  They are
scaled by a reference process instead: a fresh interpreter that imports
the program's third-party dependencies (numpy, scipy.optimize, yaml) and
nothing of the program, timed once per cycle of cli ops and around each
set-up.

The NOMINAL_* constants only fix the unit: each is the reference's median
wall time on the host where the benchmark was defined (2 vCPUs of an
Intel Xeon at 2.1 GHz), so a scaled time reads as seconds on that host at
its usual speed.  The raw wall times are recorded next to the scaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_SLICE_S = 0.0042
NOMINAL_PROCESS_S = 0.60
PROCESS_ARGV = [sys.executable, "-c", "import numpy, scipy.optimize, yaml"]
# slices after each op take at least this share of the op's wall time
SHARE = 0.05
MIN_SLICES = 2

_rng = np.random.default_rng(0)
_H4 = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_H4 = _H4 + _H4.conj().T
_V4 = np.full(4, 0.5, dtype=complex)


def _kernel() -> float:
    """RK4 on a 4-vector with an interpreted inner loop."""
    v, h, s = _V4, 1e-3, 0.0
    for _ in range(200):
        k1 = -1j * (_H4 @ v)
        k2 = -1j * (_H4 @ (v + 0.5 * h * k1))
        k3 = -1j * (_H4 @ (v + 0.5 * h * k2))
        k4 = -1j * (_H4 @ (v + h * k3))
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for j in range(20):
            s += j * 0.5
    return s + float(v.real.sum())


def slices(after_s: float) -> list[float]:
    """Wall times of kernel slices that together take SHARE of after_s."""
    times: list[float] = []
    while len(times) < MIN_SLICES or sum(times) < SHARE * after_s:
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times


def process_s() -> float:
    """Wall time of one reference process."""
    t0 = time.perf_counter()
    subprocess.run(PROCESS_ARGV, check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scaled(wall_s: float, adjacent: list[float], nominal_s: float = NOMINAL_SLICE_S) -> float:
    """wall_s at the nominal host speed, given the reference times around it."""
    return wall_s * nominal_s / statistics.mean(adjacent)


_kernel()  # first-call costs stay out of every slice
