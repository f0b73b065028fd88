"""End-to-end tests of the command line front end.

Each subcommand is exercised through main() so the argument parsing,
scenario resolution, unit-mode handling, CSV formatting, and exit-code
mapping are all on the hook.  Physics oracles: the 25/54 steady state of
the packaged scenario, square-wave Fourier ratios, antisymmetric static
corrections across the level ladder, orientation zeros of the drive
amplitudes, and linearity of the sample table in the applied field.
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
import yaml

from onersim import cli, oner, qdyn, spin
from onersim.cli import (
    EXIT_CONFIG,
    EXIT_INGESTION,
    EXIT_NUMERICAL,
    EXIT_OK,
    Scenario,
    ScenarioError,
    SweepGrid,
    default_scenario,
    dump_scenario,
    load_scenario,
    main,
    pulse_period,
    run_pulse,
    run_spectrum,
)
from onersim.efg import NqiTable

TWO_PI = 2.0 * math.pi


def parse_csv(block: str) -> dict[str, np.ndarray]:
    lines = block.strip().splitlines()
    names = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(names)}


def csv_blocks(text: str) -> list[dict[str, np.ndarray]]:
    return [parse_csv(b) for b in text.strip("\n").split("\n\n")]


def write_scenario(tmp_path, **overrides) -> str:
    data = default_scenario().to_mapping()
    # the packaged table path is relative to the packaged file; keep
    # copies table-backed by making it absolute
    data["table_path"] = str(resources.files("onersim").joinpath("data/sample_nqi_table.csv"))
    data.update(overrides)
    p = tmp_path / "scenario.yaml"
    p.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(p)


def test_scenario_round_trip(tmp_path):
    sc = default_scenario()
    p = tmp_path / "copy.yaml"
    p.write_text(dump_scenario(sc), encoding="utf-8")
    again = load_scenario(p)
    assert again.to_mapping() == sc.to_mapping()


def test_scenario_numbers_take_their_field_types():
    # YAML 1.1 reads "1.0e9" as a string; each number takes its field's type
    sc = Scenario.from_mapping(
        {"omega_hz": "1.0e9", "n_samples": "5", "tau_s": "2e-8", "table_field_au": None}
    )
    assert type(sc.omega_hz) is float and sc.omega_hz == 1.0e9
    assert type(sc.n_samples) is int and sc.n_samples == 5
    assert type(sc.tau_s) is float and sc.tau_s == 2e-8
    assert sc.table_field_au is None
    assert type(Scenario.from_mapping({"n_periods": 3.0}).n_periods) is int
    with pytest.raises(ScenarioError, match="decay_hz must be a number"):
        Scenario.from_mapping({"decay_hz": "fast"})
    with pytest.raises(ScenarioError, match="n_periods must be a number"):
        Scenario.from_mapping({"n_periods": "2.5"})
    with pytest.raises(ScenarioError, match="tau_s must be a number"):
        Scenario.from_mapping({"tau_s": [1.0]})
    with pytest.raises(ScenarioError, match="fourier_n_max must be >= 1"):
        Scenario.from_mapping({"fourier_n_max": "0"})


def test_both_yaml_loaders_give_the_same_scenario(tmp_path, monkeypatch, capsys):
    # libyaml's loader where PyYAML has it, the Python one otherwise: the
    # packaged scenario, unsigned exponents (strings to YAML 1.1, coerced
    # by the scenario) and a parse error read the same under both
    assert cli._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    packaged = resources.files("onersim").joinpath("data/default_scenario.yaml")
    exponents = tmp_path / "exponents.yaml"
    exponents.write_text(
        "omega_hz: 1.0e9\ndecay_hz: 4e8\ntau_s: 2.5E-9\nqg_khz: [1.0e2, 0, -3e1, 0, 0, 5.0e-1]\n",
        encoding="utf-8",
    )
    broken = tmp_path / "broken.yaml"
    broken.write_text("omega_hz: [1.0\n", encoding="utf-8")
    runs = []
    for loader in (cli._YAML_LOADER, yaml.SafeLoader):
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        with resources.as_file(packaged) as p:
            runs.append((load_scenario(p), load_scenario(exponents)))
        assert main(["steady-state", "--scenario", str(broken)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
    assert runs[0] == runs[1]
    sc = runs[0][1]
    assert (sc.omega_hz, sc.decay_hz, sc.tau_s) == (1.0e9, 4.0e8, 2.5e-9)
    assert sc.qg_khz == [100.0, 0.0, -30.0, 0.0, 0.0, 0.5]


def test_two_runs_build_one_parser(monkeypatch, capsys):
    # the parser is built once per process; each body still looks its run
    # function up when called, so a spy installed later sees the calls
    built, calls = [], []
    real = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_subparsers",
        lambda self, **kw: built.append(1) or real(self, **kw),
    )
    cli.build_parser.cache_clear()
    assert main(["steady-state"]) == EXIT_OK
    spy = cli.run_steady_state
    monkeypatch.setattr(cli, "run_steady_state", lambda sc: calls.append(sc) or spy(sc))
    assert main(["steady-state"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(built) == 1
    assert len(calls) == 1
    assert out.count("rho_ee_inf,") == 2


def test_scenario_validation(tmp_path):
    with pytest.raises(ScenarioError, match="unknown scenario keys: omega_hZ"):
        Scenario.from_mapping({"omega_hZ": 1.0})
    with pytest.raises(ScenarioError, match="omega_hz"):
        Scenario.from_mapping({"omega_hz": -1.0})
    with pytest.raises(ScenarioError, match="duty"):
        Scenario.from_mapping({"duty": 0.0})
    with pytest.raises(ScenarioError, match="unit_mode"):
        Scenario.from_mapping({"unit_mode": "imperial"})
    with pytest.raises(ScenarioError, match="6 components"):
        Scenario.from_mapping({"qg_khz": [1.0, 2.0]})
    with pytest.raises(ScenarioError, match="mapping"):
        Scenario.from_mapping(["not", "a", "mapping"])
    with pytest.raises(ScenarioError, match="samples_per_period"):
        Scenario.from_mapping({"samples_per_period": 0})

    sc = Scenario.from_mapping({"tau_s": 1e-8})
    assert pulse_period(sc) == 1e-8
    # gamma_tau route: tau = gamma_tau / decay rate
    sc2 = Scenario.from_mapping({"gamma_tau": 50.0, "decay_hz": 4.0e8})
    assert pulse_period(sc2) == pytest.approx(50.0 / (TWO_PI * 4.0e8), rel=1e-12)
    with pytest.raises(ScenarioError, match="decay_hz = 0"):
        pulse_period(Scenario.from_mapping({"decay_hz": 0.0}))


def test_sweep_grid_validation():
    with pytest.raises(ScenarioError, match="counts"):
        SweepGrid(0.0, 1.0, 1, 0.0, 1.0, 5)
    with pytest.raises(ScenarioError, match="finite"):
        SweepGrid(0.0, math.inf, 3, 0.0, 1.0, 5)
    g = SweepGrid(0.0, 1.0, 3, 0.0, 0.02, 2)
    np.testing.assert_allclose(g.thetas, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(g.fields, [0.0, 0.02])


def test_steady_state_command_default_scenario(capsys):
    # packaged setup has decay = 0.4 drive on resonance: 25/54
    assert main(["steady-state"]) == EXIT_OK
    data = parse_csv(capsys.readouterr().out)
    assert data["rho_ee_inf"][0] == pytest.approx(25.0 / 54.0, rel=1e-12)
    assert data["rho_eg_re"][0] == pytest.approx(0.0, abs=1e-15)
    assert data["rho_eg_im"][0] > 0.0


@pytest.mark.parametrize(
    "command",
    ["steady-state", "pulse", "spectrum", "rabi-map", "coupled", "efg-mesh", "ingest-check"],
)
def test_out_flag_matches_stdout(tmp_path, capsys, command):
    # main writes every subcommand's text, to --out or to stdout
    argv = [command]
    if command == "rabi-map":
        argv += ["--theta-count", "3", "--field-count", "2"]
    if command == "coupled":
        small = write_scenario(tmp_path, unit_mode="scaled", duration_rabi_periods=0.2, n_samples=20)
        argv += ["--scenario", small]
    out = tmp_path / "out.csv"
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == text
    assert text.endswith("\n")


def test_pulse_command_square_wave_ratio(tmp_path, capsys):
    # heavy dephasing kills coherent overshoot, so the excited
    # population follows the pulse train as a near-square wave and the
    # fundamental-to-mean ratio approaches 2/pi
    path = write_scenario(
        tmp_path,
        omega_hz=4.4e8,
        decay_hz=4.0e8,
        dephasing_hz=8.0e9,
        gamma_tau=50.0,
        n_periods=6,
        samples_per_period=512,
        fourier_n_max=6,
    )
    assert main(["pulse", "--scenario", path]) == EXIT_OK
    series, fourier = csv_blocks(capsys.readouterr().out)
    assert series["t"].size == 6 * 512 + 1
    assert np.all(np.diff(series["t"]) > 0)
    assert np.all(series["rho_ee"] >= 0.0)

    ratio = fourier["b_n"][1] / fourier["a_n"][0]
    assert ratio == pytest.approx(2.0 / math.pi, rel=0.03)
    # even harmonics of a half-duty square wave are suppressed
    assert abs(fourier["b_n"][2]) < 0.02 * fourier["b_n"][1]
    assert fourier["n"].size == 7


def test_pulse_output_is_byte_stable(tmp_path):
    path = write_scenario(tmp_path, n_periods=2, samples_per_period=64)
    sc = load_scenario(path)
    assert run_pulse(sc) == run_pulse(sc)


def test_spectrum_corrections_are_antisymmetric():
    sc = default_scenario()
    data = parse_csv(run_spectrum(sc))
    gamma_b0 = 8.9755e6  # packaged nucleus at 1 T
    pairs = list(zip(data["transition_from"], data["transition_to"]))
    assert (1.5, 0.5) in pairs and (1.5, -0.5) in pairs
    by_pair = {p: k for k, p in enumerate(pairs)}

    for (m_from, m_to), k in by_pair.items():
        assert data["zeeman_hz"][k] == pytest.approx(
            gamma_b0 * abs(m_from - m_to), rel=1e-12
        )
        assert data["total_hz"][k] == pytest.approx(
            data["zeeman_hz"][k] + data["correction_hz"][k], rel=1e-12
        )

    # static quadrupole shifts are even in m, so corrections mirror
    # across the ladder and the central line is untouched
    c = data["correction_hz"]
    assert c[by_pair[(1.5, 0.5)]] == pytest.approx(-c[by_pair[(-0.5, -1.5)]], rel=1e-9)
    assert c[by_pair[(1.5, -0.5)]] == pytest.approx(-c[by_pair[(0.5, -1.5)]], rel=1e-9)
    assert abs(c[by_pair[(0.5, -0.5)]]) < 1e-9
    assert abs(c[by_pair[(1.5, 0.5)]]) > 1e3  # the default tensors do shift lines


def test_spectrum_without_tensors_has_no_corrections(tmp_path, capsys):
    path = write_scenario(tmp_path, qg_khz=[0.0] * 6, qe_khz=[0.0] * 6)
    assert main(["spectrum", "--scenario", path]) == EXIT_OK
    data = parse_csv(capsys.readouterr().out)
    np.testing.assert_allclose(data["correction_hz"], 0.0, atol=1e-9)


@pytest.mark.parametrize(
    "argv",
    [["spectrum"], ["rabi-map", "--theta-count", "3", "--field-count", "2"], ["efg-mesh"]],
)
def test_unit_mode_flag_is_the_scenario_key(tmp_path, capsys, argv):
    # --unit-mode on the packaged scenario is that scenario with the key set
    assert main([*argv, "--unit-mode", "scaled"]) == EXIT_OK
    flagged = capsys.readouterr().out
    assert main([*argv, "--scenario", write_scenario(tmp_path, unit_mode="scaled")]) == EXIT_OK
    assert capsys.readouterr().out == flagged
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out != flagged


@pytest.mark.parametrize("unit_mode", ["physical", "scaled"])
def test_plan_repetition_rate_is_the_spectrum_total(unit_mode):
    sc = replace(default_scenario(), unit_mode=unit_mode)
    data = parse_csv(run_spectrum(sc))
    setup = cli.resolve_setup(sc)
    args = (setup.pair, setup.nucleus, setup.b0_tesla, setup.theta, setup.params)
    assert data["total_hz"].size == 5
    rows = zip(data["transition_from"], data["transition_to"], data["total_hz"])
    for m_from, m_to, total in rows:
        pl = oner.plan(*args, (m_from, m_to), allow_zero_amplitude=True)
        assert "%.17g" % pl.repetition_rate_hz == "%.17g" % total


def test_rabi_map_orientation_and_field_scaling(capsys):
    assert main([
        "rabi-map",
        "--theta-min", "0.0", "--theta-max", str(math.pi / 2.0), "--theta-count", "3",
        "--field-min", "0.005", "--field-max", "0.02", "--field-count", "2",
    ]) == EXIT_OK
    data = parse_csv(capsys.readouterr().out)
    assert data["theta_rad"].size == 3 * 2 * 5

    sel = lambda th, f, mf, mt: np.flatnonzero(
        (np.abs(data["theta_rad"] - th) < 1e-12)
        & (np.abs(data["field_au"] - f) < 1e-12)
        & (data["transition_from"] == mf)
        & (data["transition_to"] == mt)
    )[0]

    # the packaged excited tensor is axial along its own z: aligned with
    # the field nothing is drivable, at 90 degrees only the
    # two-quantum branch survives, in between both do
    for f in (0.005, 0.02):
        for mf, mt in ((1.5, 0.5), (0.5, -0.5), (-0.5, -1.5), (1.5, -0.5), (0.5, -1.5)):
            assert data["rabi_hz"][sel(0.0, f, mf, mt)] == 0.0
        assert data["rabi_hz"][sel(math.pi / 2.0, f, 1.5, 0.5)] == 0.0
        assert data["rabi_hz"][sel(math.pi / 2.0, f, 1.5, -0.5)] > 0.0
        assert data["rabi_hz"][sel(math.pi / 4.0, f, 1.5, 0.5)] > 0.0
        # the straddling single-quantum pair has a vanishing geometric
        # prefactor at every orientation
        assert data["rabi_hz"][sel(math.pi / 4.0, f, 0.5, -0.5)] == 0.0

    # tensors in the sample table are linear in field, so amplitudes
    # scale by 4 from 0.005 to 0.02
    lo = data["rabi_hz"][sel(math.pi / 4.0, 0.005, 1.5, 0.5)]
    hi = data["rabi_hz"][sel(math.pi / 4.0, 0.02, 1.5, 0.5)]
    assert hi == pytest.approx(4.0 * lo, rel=1e-9)

    # mirrored outer transitions share their amplitude
    a = data["rabi_hz"][sel(math.pi / 4.0, 0.02, 1.5, 0.5)]
    b = data["rabi_hz"][sel(math.pi / 4.0, 0.02, -0.5, -1.5)]
    assert a == pytest.approx(b, rel=1e-12)

    # corrections mirror across the ladder at every node
    c1 = data["correction_hz"][sel(math.pi / 4.0, 0.02, 1.5, 0.5)]
    c3 = data["correction_hz"][sel(math.pi / 4.0, 0.02, -0.5, -1.5)]
    assert c1 == pytest.approx(-c3, rel=1e-9)


def test_rabi_map_reads_its_table_once(monkeypatch, capsys):
    # the default field axis is the table's range, from the one table read
    real, calls = cli.load_nqi_table, []

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_nqi_table", counting)
    assert main(["rabi-map", "--theta-count", "3", "--field-count", "2"]) == EXIT_OK
    assert len(calls) == 1
    default_axis = capsys.readouterr().out
    explicit = ["--field-min", "0", "--field-max", "0.02"]
    assert main(["rabi-map", "--theta-count", "3", "--field-count", "2", *explicit]) == EXIT_OK
    assert capsys.readouterr().out == default_axis


@pytest.mark.parametrize("unit_mode", ["physical", "scaled"])
def test_rabi_map_interpolates_each_field_once(monkeypatch, capsys, unit_mode):
    # the ground and excited tensors at a field serve every theta
    real, calls = NqiTable.interpolate, []

    def counting(self, state, field_au):
        calls.append((state, field_au))
        return real(self, state, field_au)

    monkeypatch.setattr(NqiTable, "interpolate", counting)
    argv = ["rabi-map", "--theta-count", "4", "--field-count", "3", "--unit-mode", unit_mode]
    assert main(argv) == EXIT_OK
    assert len(calls) == 2 * 3
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 3 * 5


@pytest.mark.parametrize("unit_mode", ["physical", "scaled"])
def test_rabi_map_builds_one_table_per_field(monkeypatch, capsys, unit_mode):
    # each field's table covers every theta of the sweep in one call
    real, calls = cli.transition_table, []

    def counting(pair, nucleus, b0_tesla, theta, *args):
        calls.append(np.size(theta))
        return real(pair, nucleus, b0_tesla, theta, *args)

    monkeypatch.setattr(cli, "transition_table", counting)
    argv = ["rabi-map", "--theta-count", "4", "--field-count", "3", "--unit-mode", unit_mode]
    assert main(argv) == EXIT_OK
    assert calls == [4, 4, 4]
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 3 * 5


def assert_corrections_mirror(data, n_transitions):
    """Each row's correction is minus that of its mirror (-m_to, -m_from) at the same node."""
    rows = list(zip(data["transition_from"], data["transition_to"], data["correction_hz"]))
    scale = np.abs(data["correction_hz"]).max()
    assert scale > 0.0
    for start in range(0, len(rows), n_transitions):
        node = {(mf, mt): c for mf, mt, c in rows[start : start + n_transitions]}
        assert len(node) == n_transitions
        for (mf, mt), c in node.items():
            assert c == pytest.approx(-node[(-mt, -mf)], abs=1e-9 * scale)


@pytest.mark.parametrize("unit_mode", ["physical", "scaled"])
@pytest.mark.parametrize("nucleus, n_transitions", [("2H", 3), ("43Ca", 13)])
def test_integer_and_high_spins_run_spectrum_and_rabi_map(
    tmp_path, capsys, nucleus, n_transitions, unit_mode
):
    path = write_scenario(tmp_path, nucleus=nucleus, unit_mode=unit_mode)
    assert main(["spectrum", "--scenario", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "transition_from,transition_to,zeeman_hz,correction_hz,total_hz"
    data = parse_csv(out)
    assert data["total_hz"].size == n_transitions
    assert_corrections_mirror(data, n_transitions)

    argv = ["rabi-map", "--scenario", path, "--theta-count", "3", "--field-count", "2"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    header = "theta_rad,field_au,transition_from,transition_to,rabi_hz,correction_hz"
    assert out.splitlines()[0] == header
    data = parse_csv(out)
    assert data["rabi_hz"].size == 3 * 2 * n_transitions
    assert_corrections_mirror(data, n_transitions)


def test_coupled_default_transition_is_not_a_spin_1_level(tmp_path, capsys):
    # the packaged 1.5 -> 0.5 transition does not exist for I = 1
    assert main(["coupled", "--scenario", write_scenario(tmp_path, nucleus="2H")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a level of a spin-1 system" in captured.err
    assert "Traceback" not in captured.err


def test_rabi_map_refuses_extrapolation(capsys):
    code = main(["rabi-map", "--field-min", "0.005", "--field-max", "0.05"])
    assert code == EXIT_INGESTION
    assert "ingestion error" in capsys.readouterr().err


def test_rabi_map_needs_table_states(tmp_path, capsys):
    path = write_scenario(tmp_path, table_ground_state=None, table_excited_state=None)
    assert main(["rabi-map", "--scenario", path]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_coupled_scaled_run_matches_prediction(tmp_path, capsys):
    # compress the hierarchy, then check the fit against the plan's
    # prediction
    path = write_scenario(
        tmp_path, unit_mode="scaled", duration_rabi_periods=1.0, n_samples=120
    )
    assert main(["coupled", "--scenario", path]) == EXIT_OK
    series, summary = csv_blocks(capsys.readouterr().out)
    assert summary["predicted_rabi_hz"][0] > 0.0
    assert summary["relative_deviation"][0] <= 0.10
    # one predicted period, normalized time axis
    assert series["t_normalized"][-1] == pytest.approx(1.0, rel=1e-9)
    # the drive moves population out of the initial level and back
    assert series["p_1.5"][0] == pytest.approx(1.0, abs=1e-9)
    assert series["p_0.5"].max() >= 0.9
    total = sum(series[f"p_{m:g}"] for m in (1.5, 0.5, -0.5, -1.5))
    np.testing.assert_allclose(total, 1.0, atol=1e-6)


def test_coupled_command_plans_once(tmp_path, monkeypatch, capsys):
    # the plan run_coupled builds for its time axis is the plan of the run
    real, calls = oner.plan, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oner, "plan", counting)
    monkeypatch.setattr(cli, "plan", counting)
    path = write_scenario(tmp_path, unit_mode="scaled", duration_rabi_periods=0.2, n_samples=20)
    assert main(["coupled", "--scenario", path]) == EXIT_OK
    assert len(calls) == 1


def test_coupled_zero_amplitude_sentinel(tmp_path, capsys):
    # no tensor contrast at all: the run still completes, the time axis
    # falls back to pulse periods, and the summary carries NaN
    path = write_scenario(
        tmp_path,
        qg_khz=[0.0] * 6,
        qe_khz=[0.0] * 6,
        unit_mode="scaled",
        zeeman_ratio=10.0,
        n_samples=60,
    )
    assert main(["coupled", "--scenario", path]) == EXIT_OK
    series, summary = csv_blocks(capsys.readouterr().out)
    assert math.isnan(summary["fit_rabi_hz"][0])
    assert summary["predicted_rabi_hz"][0] == 0.0
    assert math.isnan(summary["relative_deviation"][0])
    assert series["t_normalized"][-1] == pytest.approx(200.0, rel=1e-9)
    np.testing.assert_allclose(series["p_1.5"], 1.0, atol=1e-9)


@pytest.mark.parametrize(
    "overrides",
    [{"qe_khz": [0.0] * 6}, {"theta_rad": 0.0, "qe_khz": [0.0, 0.0, 0.0, 0.0, 50.0, 0.0]}],
    ids=["no-contrast", "drivable"],
)
def test_coupled_zero_repetition_rate_exits_2(tmp_path, capsys, overrides):
    # at zero field the target transition has no energy, so no pulse train
    # resonates with it: a configuration error, with or without a Rabi
    # frequency, while spectrum still prints its zero rows
    path = write_scenario(tmp_path, b0_tesla=0.0, qg_khz=[0.0] * 6, **overrides)
    assert main(["coupled", "--scenario", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err and "zero energy" in captured.err
    assert "Traceback" not in captured.err
    assert main(["spectrum", "--scenario", path]) == EXIT_OK
    assert np.all(parse_csv(capsys.readouterr().out)["total_hz"] == 0.0)


def test_duty_other_than_one_half_exits_2_where_the_effective_model_is_used(tmp_path, capsys):
    # spectrum, rabi-map and coupled plan with Q0 and Q1, which model duty
    # 1/2 only; steady-state does not read the duty, and pulse runs it
    path = write_scenario(tmp_path, duty=0.3)
    for command in ("spectrum", "rabi-map", "coupled"):
        assert main([command, "--scenario", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "duty 0.3" in captured.err
    (tmp_path / "half").mkdir()
    half = write_scenario(tmp_path / "half", duty=0.5)
    outputs = {}
    for p in (path, half):
        for command in ("steady-state", "pulse"):
            assert main([command, "--scenario", p]) == EXIT_OK
            outputs[p, command] = capsys.readouterr().out
    assert outputs[path, "steady-state"] == outputs[half, "steady-state"]
    assert outputs[path, "pulse"] != outputs[half, "pulse"]


@pytest.mark.parametrize("key", ["zeeman_ratio", "quad_ratio", "b0_tesla"])
def test_scaled_mode_refuses_a_tier_it_cannot_represent(tmp_path, capsys, key):
    # at 1e-300 gamma, gamma B0 or the tensor factor leaves the float range:
    # the scaled mode refuses it before building anything from it
    path = write_scenario(tmp_path, unit_mode="scaled", **{key: 1e-300})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command in ("spectrum", "rabi-map", "coupled", "efg-mesh"):
            assert main([command, "--scenario", path]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == "" and "the scaled unit mode's" in captured.err


def test_main_leaves_the_warnings_filters_as_it_found_them(capsys):
    # main shows every hierarchy note of its own call; later callers in
    # the process keep their filters
    before = list(warnings.filters)
    assert main(["steady-state"]) == EXIT_OK
    assert warnings.filters == before


def test_coupled_physical_units_run(capsys):
    # the packaged setup runs in physical units, with GHz optical rates
    # against a kHz quadrupole tier
    assert main(["coupled"]) == EXIT_OK
    series, summary = csv_blocks(capsys.readouterr().out)
    assert summary["relative_deviation"][0] <= 0.10
    assert series["t_normalized"][-1] == pytest.approx(2.0, rel=1e-9)


def test_coupled_stiffer_physical_run(tmp_path, capsys):
    # optical rates three decades above the packaged ones still run and
    # still fit the prediction: the propagator powers each piece's step
    # map, so no substep count limits a run
    path = write_scenario(tmp_path, omega_hz=1.0e12, decay_hz=4.0e11)
    assert main(["coupled", "--scenario", path]) == EXIT_OK
    series, summary = csv_blocks(capsys.readouterr().out)
    assert summary["relative_deviation"][0] <= 0.10
    assert series["t_normalized"][-1] == pytest.approx(2.0, rel=1e-9)


def test_coupled_too_stiff_exits_numerical(tmp_path, capsys):
    # optical rates eleven decades above the packaged ones break the
    # propagator's trace-drift check: exit 3, no partial CSV, no traceback
    path = write_scenario(tmp_path, omega_hz=1.0e20, decay_hz=4.0e19)
    assert main(["coupled", "--scenario", path]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err
    assert "Traceback" not in captured.err


def test_propagation_failure_exits_numerical(monkeypatch, capsys):
    # a positivity bound no state can meet fails the first propagated
    # segment's end-of-run check: exit 3, and no partial CSV on stdout
    monkeypatch.setattr(qdyn, "OUTPUT_POSITIVITY_TOL", -1.0)
    assert main(["pulse"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err
    assert "eigenvalue" in captured.err


def test_efg_mesh_axial_tensor(capsys):
    assert main([
        "efg-mesh", "--which", "excited", "--n-theta", "9", "--n-phi", "8",
        "--mesh-scale", "2.0",
    ]) == EXIT_OK
    data = parse_csv(capsys.readouterr().out)
    assert data["theta_rad"].size == 72
    qzz_rad = TWO_PI * 248e3
    pole = np.abs(data["theta_rad"]) < 1e-12
    np.testing.assert_allclose(data["radius"][pole], 2.0 * qzz_rad, rtol=1e-12)
    np.testing.assert_allclose(data["sign"][pole], 1.0)
    equator = np.abs(data["theta_rad"] - math.pi / 2.0) < 1e-12
    np.testing.assert_allclose(data["radius"][equator], qzz_rad, rtol=1e-12)
    np.testing.assert_allclose(data["sign"][equator], -1.0)


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_efg_mesh_scale_that_is_not_finite_exits_2(scale, capsys):
    assert main(["efg-mesh", "--mesh-scale", scale]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err


def test_rabi_map_builds_one_spin_system(monkeypatch, capsys):
    # make_spin hands every plan of the sweep the same SpinSystem
    real, calls = spin.SpinSystem.__init__, []
    monkeypatch.setattr(spin.SpinSystem, "__init__", lambda self, n: calls.append(n) or real(self, n))
    spin.make_spin.cache_clear()
    assert main(["rabi-map"]) == EXIT_OK
    assert calls == [3]


def test_ingest_check_reports_table(capsys):
    assert main(["ingest-check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "table ok: 3 states, 15 rows" in out
    assert "state pz" in out


def test_ingest_check_rejects_malformed_table(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "field_au,state_label,Qxx_kHz,Qyy_kHz,Qzz_kHz,Qxy_kHz,Qxz_kHz,Qyz_kHz\n"
        "0.0,s,1.0,2.0\n",
        encoding="utf-8",
    )
    assert main(["ingest-check", "--table", str(bad)]) == EXIT_INGESTION
    assert "ingestion error" in capsys.readouterr().err
    assert main(["ingest-check", "--table", str(tmp_path / "nope.csv")]) == EXIT_INGESTION


def test_config_errors_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("omega_hz: 1.0\nbogus_key: 3\n", encoding="utf-8")
    assert main(["steady-state", "--scenario", str(p)]) == EXIT_CONFIG
    assert "unknown scenario keys" in capsys.readouterr().err

    assert main(["steady-state", "--scenario", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG
    capsys.readouterr()

    # undamped drive has no steady state: also a configuration problem
    nodecay = write_scenario(tmp_path, decay_hz=0.0, dephasing_hz=1.0e8)
    assert main(["steady-state", "--scenario", nodecay]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("steady-state", {"n_samples": math.inf}),
        ("pulse", {"n_periods": math.nan}),
        ("spectrum", {"b0_tesla": math.nan}),
        ("spectrum", {"qg_khz": [math.nan, 0.0, 0.0, 0.0, 0.0, 0.0]}),
        ("coupled", {"transition_from": math.inf}),
        ("spectrum", {"unit_mode": "scaled", "b0_tesla": 0.0}),
        ("coupled", {"unit_mode": "scaled", "omega_hz": 0.0}),
    ],
    ids=["inf-int", "nan-int", "nan-float", "nan-tensor", "inf-level", "scaled-b0", "scaled-omega"],
)
def test_bad_numbers_stop_at_the_scenario(tmp_path, capsys, command, overrides):
    # a non-finite number, or a zero the scaled mode divides by, is a
    # configuration error (exit 2), never a traceback or a table of nan
    path = write_scenario(tmp_path, **overrides)
    assert main([command, "--scenario", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.err


# the six subcommands that read a scenario, with small sweep grids
FUZZ_COMMANDS = {
    "steady-state": [],
    "pulse": [],
    "spectrum": [],
    "rabi-map": ["--theta-count", "2", "--field-count", "2"],
    "coupled": [],
    "efg-mesh": ["--n-theta", "8", "--n-phi", "8"],
}


def test_scenario_fuzz_exits_cleanly(tmp_path, capsys):
    # every float key set to 0, -1, NaN, inf, 1e300 or 1e-300, through each scenario
    # subcommand in both unit modes: the run succeeds or exits with a
    # documented code, never with a traceback, and a successful run prints
    # nan only as coupled's no-oscillation sentinel.  The base is the
    # packaged scenario with short runs, written as its keys that differ
    # from the field defaults, since YAML parsing dominates a run.
    full = write_scenario(
        tmp_path, n_samples=40, n_periods=2, samples_per_period=16, fourier_n_max=3,
        duration_rabi_periods=0.2,
    )
    with open(full, encoding="utf-8") as fh:
        base = {k: v for k, v in yaml.safe_load(fh).items() if v != getattr(Scenario(), k)}
    keys = [f.name for f in fields(Scenario) if f.type in ("float", "float | None")]
    assert len(keys) == 15
    path, bad = tmp_path / "fuzz.yaml", []
    for key in keys:
        for value in (0.0, -1.0, math.nan, math.inf, 1e300, 1e-300):
            path.write_text(yaml.safe_dump({**base, key: value}), encoding="utf-8")
            for command, extra in FUZZ_COMMANDS.items():
                for mode in (cli.UNIT_PHYSICAL, cli.UNIT_SCALED):
                    case = (key, value, command, mode)
                    argv = [command, "--scenario", str(path), "--unit-mode", mode, *extra]
                    try:
                        code = main(argv)
                    except Exception as exc:  # an uncaught error is the failure sought here
                        bad.append((*case, f"raised {exc!r}"))
                        continue
                    out, err = capsys.readouterr()
                    if code not in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INGESTION):
                        bad.append((*case, f"exit {code}"))
                    if "Traceback" in err:
                        bad.append((*case, "traceback"))
                    if code == EXIT_OK and "nan" in out:
                        *series, summary = out.split("\n\n")
                        row = summary.splitlines()[-1].split(",")
                        sentinel = command == "coupled" and row[0] == row[2] == "nan" != row[1]
                        if not sentinel or "nan" in "".join(series):
                            bad.append((*case, "nan in output"))
    assert bad == []


def test_pulse_past_the_int64_step_count_exits_3(tmp_path, capsys):
    # a 1e25 Hz drive needs about 3e19 RK4 steps per piece: the count is
    # refused by name, where it once wrapped into a drifting run
    path = write_scenario(tmp_path, omega_hz=1e25)
    assert main(["pulse", "--scenario", path]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RK4 steps, 2^63 or more" in captured.err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "onersim.cli", "steady-state"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("rho_ee_inf,")
