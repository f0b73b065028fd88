"""onersim benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pulse_train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Each workload runs in its own fresh child process (child.py) with the
checkout's ``src`` on PYTHONPATH; this script starts one process at a
time.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Op and set-up times are
wall times scaled to a nominal host speed, measured by fixed reference
work run right around them (reference.py); the raw wall-time medians are
printed and recorded beside them.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  The full record
(machine, seed, figures, every op) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"]) if SPEC else ()
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# per-layer figures that are exact counts and must repeat run to run
EXACT = ("calls", "n_substeps", "flops_computed")


class BenchmarkFault(RuntimeError):
    """The benchmark itself misbehaved; no number is reported."""


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    With fewer than 50 samples that percentile lies below p80, too near
    the median to describe the tail, and the maximum is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 50:
        return xs[-1], f"max of n={n} (fewer than 50 samples: the percentile with 10 beyond it is below p80)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n} (10 samples beyond it)"


def _spawn(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own session; on timeout kill the whole group and wait."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkFault(f"child {argv[1:3]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkFault(f"child {argv} exited {proc.returncode}:\n{err[-3000:]}")
    return subprocess.CompletedProcess(argv, 0, out, err)


def fingerprint() -> str:
    """Hash of the program and benchmark sources, to pair traced runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def per_layer(raw: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metrics per cycle; exact counts must agree across cycles."""
    cycles = raw["layer_cycles"]
    exact = {k for c in cycles for k in c if k.rsplit(".", 1)[-1] in EXACT}
    for key in sorted(exact):
        seen = {c.get(key, 0) for c in cycles}
        if len(seen) != 1:
            raise BenchmarkFault(f"exact count {key} differs between traced cycles: {sorted(seen)}")
    walls: dict[str, list[float]] = {}
    for op in raw["ops"]:
        if op["phase"] == "plain":
            walls.setdefault(f"cli.{op['op']}.wall_s", []).append(op["wall_s"])
    out = {}
    for name in names:
        if name in raw["imports"]:
            out[name] = raw["imports"][name]
        elif name == "trace.overhead_frac":
            out[name] = raw["overhead_frac"]
        elif name.endswith(".wall_s"):
            out[name] = statistics.median(walls[name]) if name in walls else 0.0
        elif name.rsplit(".", 1)[-1] in EXACT:
            out[name] = cycles[0].get(name, 0)
        else:
            out[name] = statistics.median(c.get(name, 0.0) for c in cycles)
    return out


def check_repeat(workload: str, seed: int, code: str, metrics: dict[str, dict]) -> None:
    """Exact counts must equal those of an earlier traced run of the same code."""
    path = OUT / f"{workload}-seed{seed}-trace1.json"
    if not path.exists():
        return
    earlier = json.loads(path.read_text())
    if earlier.get("fingerprint") != code:
        return
    for key, metric in metrics.items():
        before = earlier["metrics"][key]["value"]
        if key.rsplit(".", 1)[-1] in EXACT and before != metric["value"]:
            raise BenchmarkFault(
                f"exact count {key} = {metric['value']} differs from the earlier traced run ({before})"
            )


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up timings, one child run, and the derived metrics and record."""
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    child = [str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--out", str(OUT)]
    setups, setup_walls = [], []
    before = [reference.process_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _spawn([*child, "--setup-only"], 60.0)
        setup_walls.append(time.perf_counter() - t0)
        after = [reference.process_s()]
        setups.append(reference.scaled(setup_walls[-1], before + after, reference.NOMINAL_PROCESS_S))
        before = after
    remaining = DEADLINE_S - (time.monotonic() - started)
    proc = _spawn([*child, "--seconds", str(seconds), "--trace", str(trace)], remaining)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    ops = raw["ops"]
    failed = [op for op in ops if not op["ok"]]
    plain = [op["s"] for op in ops if op["phase"] == "plain"]
    plain_wall = [op["wall_s"] for op in ops if op["phase"] == "plain"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

    if trace:
        values = per_layer(raw, [m["name"] for m in SPEC["per_layer"]])
    else:
        tail_value, tail_label = tail(plain)
        values = {
            "op_s": statistics.median(plain),
            "op_s_tail": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    figures, varying = {}, set()
    for op in ops:
        for k, v in op["figures"].items():
            key = f"fig.{op['op']}.{k}" if workload == "cli_sweep" else f"fig.{k}"
            if key in figures and figures[key] != v:
                varying.add(key)
            figures.setdefault(key, v)
    code = fingerprint()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": code, "machine": raw["machine"],
        "metrics": metrics, "figures": figures, "figures_varying": sorted(varying),
        "attempted": len(ops), "failed": len(failed),
        "fail_frac": len(failed) / len(ops),
        "setup_s_samples": setups, "setup_wall_s_samples": setup_walls,
        "wall_medians": {"op_s": statistics.median(plain_wall), "setup_s": statistics.median(setup_walls)},
        "cycles": raw["cycles"],
        "failures": [{k: op[k] for k in ("phase", "op", "misses", "error")} for op in failed],
    }
    if not trace:
        record["op_s_tail_percentile"] = tail_label
    else:
        check_repeat(workload, seed, code, metrics)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"seconds {record['seconds']:g} code {record['fingerprint']}")
    print(f"machine nproc={m['nproc']} affinity={m['affinity']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} thread_env={m['thread_env']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    if "op_s_tail_percentile" in record:
        print(f"  op_s_tail is the {record['op_s_tail_percentile']}")
    walls = ", ".join(f"{k} {v:.6g} s" for k, v in record["wall_medians"].items())
    print(f"  op and set-up times above are at the nominal host speed; raw wall medians: {walls}")
    print(f"  fail_frac {record['fail_frac']:.6g} ({record['failed']} of {record['attempted']} ops failed)")
    for name, value in record["figures"].items():
        print(f"  {name:34s} {value!r}")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure}")
    if record["figures_varying"]:
        print(f"  figures varying between ops: {record['figures_varying']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"] if SPEC else 10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if SPEC is None or not (SRC / "onersim" / "__init__.py").is_file():
        print(f"perfbench: need BENCHMARK.json and src/onersim under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace))
            report(records[-1])
    except BenchmarkFault as exc:
        print(f"perfbench: benchmark fault: {exc}", file=sys.stderr)
        return 3
    metrics = {}
    for r in records:
        for k, v in r["metrics"].items():
            metrics[k if len(records) == 1 else f"{r['workload']}.{k}"] = v
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    ok = failed == 0 and all(math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
