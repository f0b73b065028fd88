"""Guards for what the benchmark harness in perfbench/ needs of the package.

The tracer wraps onersim functions by name and the import probe looks
for named modules in ``python -X importtime`` output; a rename or a
moved import in ``src/`` breaks a traced benchmark run, not a test.
These tests catch that here, and that the library workloads still meet
the acceptance gates a benchmark run checks on every op.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

import onersim.cli  # noqa: F401  (the tracer patches names in every onersim module)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_on_the_live_package():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert not tracer._restore


def test_tracer_sees_the_subcommand_calls(capsys):
    # the CLI must look its run and scenario functions up when a command
    # runs; a dispatch table bound at import time hides them from the tracer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert onersim.cli.main(["steady-state"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "cli.scenario"} <= names


def test_import_probe_finds_both_modules(monkeypatch):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)
    times = child.import_times(1)
    assert set(times) == {"import.onersim_s", "import.scipy_optimize_s"}
    assert all(v > 0 for v in times.values())


@pytest.mark.parametrize("name", ["pulse_train", "forbidden_effective"])
def test_library_workloads_meet_their_gates(name, tmp_path):
    # an op that misses its acceptance gate counts as failed in a
    # benchmark run; catch that here rather than as a rise in fail_frac
    work = workloads.build(name, 7, tmp_path)
    assert workloads.gate(name, work.op("op")) == []
