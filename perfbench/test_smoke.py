"""Smoke test of the benchmark itself: every workload once, at minimal length.

    python -m pytest perfbench/test_smoke.py

Runs each workload for one cycle untraced and traced, checks that every
metric is reported with its unit and that no op failed, and checks that
the correctness gate counts a deliberately wrong figure as a failure.
Takes a minute or two.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"op_s": "s", "op_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SUBCOMMANDS = ("steady-state", "pulse", "spectrum", "rabi-map", "coupled", "efg-mesh", "ingest-check")
PER_LAYER = {
    "import.onersim_s": "s", "import.scipy_optimize_s": "s",
    **{f"cli.{c}.wall_s": "s" for c in SUBCOMMANDS},
    "cli.scenario.s": "s", "cli.run.self_s": "s",
    "oner.plan.calls": "count", "oner.plan.s": "s",
    "oner.fit_rabi.calls": "count", "oner.fit_rabi.s": "s",
    "oner.simulate_coupled.self_s": "s",
    "oner.simulate_pulsed_two_level.self_s": "s", "oner.fourier_coefficients.s": "s",
    "oner.simulate_spin_effective.self_s": "s",
    "qdyn.propagate.calls": "count", "qdyn.propagate.s": "s", "qdyn.propagate.self_s": "s",
    "qdyn.propagate_modulated.calls": "count", "qdyn.propagate_modulated.self_s": "s",
    "qdyn.liouvillian.calls": "count", "qdyn.liouvillian.s": "s",
    "qdyn.kron.calls": "count", "qdyn.kron.s": "s",
    "np.matrix_power.calls": "count", "np.matrix_power.s": "s",
    "np.matrix_power.flops_computed": "flop",
    "qdyn.DensityOperator.calls": "count", "qdyn.DensityOperator.s": "s",
    "np.eigvalsh.calls": "count", "np.eigvalsh.s": "s",
    "qdyn.partial_trace.calls": "count", "qdyn.partial_trace.s": "s",
    "qdyn.n_substeps": "count",
    "spin.transition_energy.calls": "count", "spin.transition_amplitude.calls": "count",
    "efg.load_nqi_table.calls": "count", "efg.load_nqi_table.s": "s",
    "efg.NqiTable.interpolate.calls": "count", "efg.surface_mesh.s": "s",
    "trace.overhead_frac": "ratio",
}


def test_spec_lists_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    wanted = PER_LAYER if trace else END_TO_END
    expected = {f"{w}.{name}": unit for w in workloads.WORKLOADS for name, unit in wanted.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for w in workloads.WORKLOADS:
        record = json.loads((HERE / "out" / f"{w}-seed1-trace{trace}.json").read_text())
        assert record["fail_frac"] == 0.0
        assert record["figures"] and not record["figures_varying"]
        assert {"nproc", "python", "numpy", "scipy", "blas", "thread_env"} <= set(record["machine"])


class _Wrong:
    """A workload whose op returns fixed figures."""

    cycle = ("op",)
    reference = "kernel"

    def __init__(self, figures):
        self.figures = figures

    def op(self, name):
        return self.figures


PASSING = {
    "pulse_train": {"a0_err": 0.002, "b1_err": 0.015, "even_over_b1": 0.003},
    "forbidden_effective": {"transfer": 1e-9},
    "cli_sweep": {"exit_code": 0, "header_ok": 1, "stdout_identical": 1},
}
WRONG = {
    "pulse_train": ("b1_err", 0.031),
    "forbidden_effective": ("transfer", 2e-6),
    "cli_sweep": ("stdout_identical", 0),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_counts_a_wrong_figure_as_a_failure(workload):
    good = PASSING[workload]
    name, value = WRONG[workload]
    runner = child.Runner(workload, _Wrong(good))
    runner.phase("plain", 0.0, 1)
    runner.work = _Wrong({**good, name: value})
    runner.phase("plain", 0.0, 1)
    assert [op["ok"] for op in runner.ops] == [True, False]
    assert runner.ops[1]["misses"][0].startswith(f"{name}=")


def test_gate_bounds_the_coupled_subcommand_fit():
    good = {**PASSING["cli_sweep"], "relative_deviation": 0.02}
    assert workloads.gate("cli_sweep", good, "coupled") == []
    assert workloads.gate("cli_sweep", {**good, "relative_deviation": 0.11}, "coupled")
    assert workloads.gate("cli_sweep", PASSING["cli_sweep"], "coupled")  # missing figure
    assert workloads.gate("cli_sweep", PASSING["cli_sweep"], "pulse") == []
