"""One workload in a fresh interpreter; prints its raw measurements as JSON.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  With
``--setup-only`` it imports onersim, builds the workload's inputs and
exits, which is what run.py times as set-up.  Otherwise it runs the
timed phases, after one untimed warm-up op for the library workloads,
and prints one JSON object.  Op wall times are scaled by the host's
speed right around them, measured by the workload's reference
(reference.py): kernel slices after every op, or a reference process
after every cycle.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import onersim  # noqa: F401  (set-up includes the package import)
import reference
import scipy
import workloads


def machine() -> dict:
    """What the numbers depend on, recorded and never changed."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = re.compile(r"^(OMP|OPENBLAS|MKL|BLIS|GOTO|VECLIB|NUMEXPR)_")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if thread_vars.match(k)},
    }


def import_times(repeats: int) -> dict:
    """Cumulative import seconds of onersim and scipy.optimize, fresh processes."""
    found = {"import.onersim_s": [], "import.scipy_optimize_s": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import onersim"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in ("onersim", "scipy.optimize"):
                key = "import.onersim_s" if parts[2] == "onersim" else "import.scipy_optimize_s"
                found[key].append(int(parts[1]) * 1e-6)
    return {k: statistics.median(v) for k, v in found.items()}


class Runner:
    """Closed-loop phases over one workload; each op is gated."""

    def __init__(self, name: str, work):
        self.name = name
        self.work = work
        self.ops: list[dict] = []
        self.per_op = work.reference == "kernel"
        self.ref_before = reference.slices(0.0) if self.per_op else [reference.process_s()]

    def one(self, phase: str, op_name: str, call=None) -> None:
        """Run and gate one op; with the kernel reference, scale its time."""
        t0 = time.perf_counter()
        try:
            figures = call(self.work.op, op_name) if call else self.work.op(op_name)
            misses = workloads.gate(self.name, figures, op_name)
            error = None
        except Exception:  # an op that raises is a failed op, not a dead run
            figures, misses, error = {}, [], traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        scaled = None
        if self.per_op:
            after = reference.slices(dt)
            scaled = reference.scaled(dt, self.ref_before + after)
            self.ref_before = after
        self.ops.append({
            "phase": phase, "op": op_name, "wall_s": dt, "s": scaled,
            "ok": error is None and not misses, "misses": misses, "error": error,
            "figures": figures,
        })

    def cycle(self, phase: str, call=None) -> float:
        """One cycle of ops; returns its scaled op time, references excluded."""
        first = len(self.ops)
        for op_name in self.work.cycle:
            self.one(phase, op_name, call)
        ops = self.ops[first:]
        if not self.per_op:
            after = [reference.process_s()]
            for op in ops:
                op["s"] = reference.scaled(op["wall_s"], self.ref_before + after, reference.NOMINAL_PROCESS_S)
            self.ref_before = after
        return sum(op["s"] for op in ops)

    def phase(self, phase: str, seconds: float, min_cycles: int, call=None) -> list[float]:
        """Whole cycles while the next one is expected to end within seconds.

        Returns the scaled op time of each cycle.
        """
        cycles: list[float] = []
        start = time.perf_counter()
        while True:
            cycles.append(self.cycle(phase, call))
            elapsed = time.perf_counter() - start
            per_cycle = elapsed / len(cycles)
            if len(cycles) >= min_cycles and elapsed + per_cycle > seconds:
                return cycles


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = workloads.build(args.workload, args.seed, args.out)
    if args.setup_only:
        return 0
    runner = Runner(args.workload, work)
    result = {"machine": machine(), "cycle": list(work.cycle), "cycles": {}}
    if args.workload != "cli_sweep":
        runner.one("warmup", work.cycle[0])

    if not args.trace:
        result["cycles"]["plain"] = runner.phase("plain", args.seconds, 1)
    else:
        # a plain phase as the baseline, then the traced phase; the CLI adds
        # an untraced in-process phase so the tracing overhead compares
        # in-process calls with in-process calls
        import tracing

        share = args.seconds / (3 if args.workload == "cli_sweep" else 2)
        result["cycles"]["plain"] = runner.phase("plain", share, 1)
        baseline = "plain"
        if args.workload == "cli_sweep":
            work.in_process = True
            runner.phase("warmup", 0.0, 1)
            result["cycles"]["inproc"] = runner.phase("inproc", share, 1)
            baseline = "inproc"
        tracer = tracing.Tracer()
        tracer.install()
        op_ids = itertools.count()
        try:
            result["cycles"]["traced"] = runner.phase(
                "traced", share, 2, call=lambda op, name: tracer.run_op(next(op_ids), op, name)
            )
        finally:
            tracer.uninstall()
        tracer.write(args.out / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        result["layer_cycles"] = tracer.per_cycle(len(work.cycle))
        result["overhead_frac"] = (
            statistics.median(result["cycles"]["traced"])
            / statistics.median(result["cycles"][baseline]) - 1.0
        )
        result["imports"] = import_times(3)

    result["ops"] = runner.ops
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, kids) / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
