"""Scenario-driven command line front end.

One flat YAML file describes a physical setup (nucleus, field, two-level
drive, coupling tensors, run lengths); subcommands turn it into
deterministic CSV output:

    onersim steady-state [--scenario s.yaml] [--out x.csv]
    onersim pulse        ...
    onersim spectrum     ...
    onersim rabi-map     ... [sweep-axis flags]
    onersim coupled      ...
    onersim efg-mesh     ... [--which excited] [--mesh-scale 1.0]
    onersim ingest-check [--table t.csv]

Each subcommand is one row of COMMANDS: a body that turns the parsed
arguments into CSV text, which main writes to --out or stdout.  All
numbers are printed with 17 significant digits so repeated runs are
byte-identical.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 data-ingestion error.

Unit modes: "physical" uses the scenario values as stated.  "scaled"
keeps the two-level parameters and compresses the spectator hierarchy:
the Zeeman splitting gamma*B0 is set to omega / zeeman_ratio and the
coupling tensors are rescaled, preserving their shapes, by one factor
per run: it brings the largest component among every tensor of the
run's state pairs, Qeg included, to gamma*B0 / quad_ratio (in
angular-frequency terms), so spectrum, coupled and efg-mesh of one
scenario share one factor and a rabi-map sweep keeps its field
dependence.  Ratios >= 30 keep each
tier well separated and bring a coupled run too stiff for the
propagator's checks (exit 3) within them; all reported frequencies
simply rescale, and a tier past the float range is a configuration
error.  The mode is the scenario's unit_mode, which --unit-mode
overrides.  It acts on the nucleus and the coupling tensors only, so it
changes spectrum, rabi-map, coupled and efg-mesh and leaves
steady-state, pulse and ingest-check as they are.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .constants import TWO_PI, NucleusRecord, get_nucleus
from .efg import (
    FRAME_E,
    NqiTable,
    NqiTensor,
    TableFormatError,
    TableRangeError,
    load_nqi_table,
    surface_mesh,
    symmetric_tensor,
)
from .oner import (
    StatePairNqi,
    TwoLevelParams,
    fit_rabi,
    fourier_coefficients,
    plan,
    simulate_coupled,
    simulate_pulsed_two_level,
    steady_state,
    transition_table,
)
from .spin import HierarchyWarning, _warn_if_zeeman_weak

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INGESTION = 4

UNIT_PHYSICAL = "physical"
UNIT_SCALED = "scaled"

TENSOR_KEY_ORDER = "xx, yy, zz, xy, xz, yz"

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml if built; same resolver


class ScenarioError(ValueError):
    """Scenario file or key set violates the configuration contract."""


# Scenario field annotation -> the type its value (or each of its
# components, for a list) is coerced to
_NUMBER_TYPES = {"float": float, "float | None": float, "int": int, "list[float] | None": float}


@dataclass
class Scenario:
    """Flat configuration record backing every subcommand.

    Frequencies are ordinary frequencies in Hz; angles in radians;
    tensor components in kHz as 6-lists ordered xx, yy, zz, xy, xz, yz
    in the E frame.  Unused keys are harmless for any given subcommand;
    unknown keys are rejected to catch typos.
    """

    nucleus: str = "9Be"
    b0_tesla: float = 1.0
    theta_rad: float = math.pi / 4.0
    omega_hz: float = 1.0e9
    decay_hz: float = 4.0e8
    dephasing_hz: float = 0.0
    detuning_hz: float = 0.0
    duty: float = 0.5
    gamma_tau: float = 50.0
    tau_s: float | None = None
    qg_khz: list[float] | None = None
    qe_khz: list[float] | None = None
    qeg_khz: list[float] | None = None
    table_path: str | None = None
    table_field_au: float | None = None
    table_ground_state: str | None = None
    table_excited_state: str | None = None
    transition_from: float = 1.5
    transition_to: float = 0.5
    duration_rabi_periods: float = 2.0
    n_samples: int = 400
    n_periods: int = 6
    samples_per_period: int = 512
    fourier_n_max: int = 10
    unit_mode: str = UNIT_PHYSICAL
    zeeman_ratio: float = 30.0
    quad_ratio: float = 30.0
    base_dir: Path | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # YAML 1.1 floats need a signed exponent ("1.0e+9"); the common
        # unsigned spelling arrives as a string, so each number is coerced
        # to the type of its field (annotations are strings in this module)
        # and must be finite.  A YAML boolean (yes, true) is not a number,
        # and an integer key refuses a fraction where int() would truncate.
        # A text key takes a YAML string only.
        for f in fields(self):
            kind = _NUMBER_TYPES.get(f.type)
            val = getattr(self, f.name)
            if val is None and f.type.endswith("None"):
                continue
            if f.type.startswith("str") and not isinstance(val, str):
                raise ScenarioError(f"{f.name} must be a string, got {val!r}")
            if kind is None:
                continue
            many = f.type.startswith("list")
            if many and not (isinstance(val, (list, tuple)) and len(val) == 6):
                raise ScenarioError(
                    f"{f.name} must list 6 components ({TENSOR_KEY_ORDER}), got {val!r}"
                )
            items = val if many else [val]
            try:
                nums = [math.nan if isinstance(v, bool) else kind(v) for v in items]
                finite = all(map(math.isfinite, nums))  # an int past the float range overflows
            except (TypeError, ValueError, OverflowError):
                finite = False  # not a number, or an infinity int() refuses
            if not finite:
                raise ScenarioError(f"{f.name} must be a number with a finite value, got {val!r}")
            if kind is int and not isinstance(val, str) and nums[0] != val:
                raise ScenarioError(f"{f.name} must be a whole number, got {val!r}")
            setattr(self, f.name, nums if many else nums[0])
            if kind is int and nums[0] < 1:
                raise ScenarioError(f"{f.name} must be >= 1, got {nums[0]}")
        for key in ("omega_hz", "decay_hz", "dephasing_hz", "b0_tesla"):
            if getattr(self, key) < 0:
                raise ScenarioError(f"{key} must be >= 0, got {getattr(self, key)}")
        if not 0.0 < self.duty < 1.0:
            raise ScenarioError(f"duty must lie in (0, 1), got {self.duty}")
        if self.unit_mode not in (UNIT_PHYSICAL, UNIT_SCALED):
            raise ScenarioError(
                f"unit_mode must be {UNIT_PHYSICAL!r} or {UNIT_SCALED!r}, got {self.unit_mode!r}"
            )
        if self.zeeman_ratio <= 0 or self.quad_ratio <= 0:
            raise ScenarioError("zeeman_ratio and quad_ratio must be > 0")
        # the scaled mode divides by both
        if self.unit_mode == UNIT_SCALED and not (self.b0_tesla > 0 and self.omega_hz > 0):
            raise ScenarioError("the scaled unit mode needs b0_tesla > 0 and omega_hz > 0")

    @classmethod
    def from_mapping(cls, data: dict, base_dir: Path | None = None) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError(f"scenario must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)} - {"base_dir"}
        unknown = sorted(repr(key) for key in data if key not in known)  # YAML keys of any type
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {', '.join(unknown)}")
        try:
            return cls(base_dir=base_dir, **data)
        except TypeError as exc:
            raise ScenarioError(str(exc)) from exc

    def to_mapping(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "base_dir"}


def load_scenario(path) -> Scenario:
    p = Path(path)
    with open(p, "r", encoding="utf-8") as fh:
        data = yaml.load(fh, Loader=_YAML_LOADER)
    if data is None:
        data = {}
    return Scenario.from_mapping(data, base_dir=p.parent)


def dump_scenario(sc: Scenario) -> str:
    return yaml.safe_dump(sc.to_mapping(), sort_keys=False)


def default_scenario() -> Scenario:
    """The packaged illustrative setup (see data/default_scenario.yaml)."""
    res = resources.files("onersim").joinpath("data/default_scenario.yaml")
    with resources.as_file(res) as p:
        return load_scenario(p)


@dataclass(frozen=True)
class SweepGrid:
    """Axis definitions for the orientation/field-strength sweep.

    A field bound of None stands for that end of the table's range for
    the ground state; run_rabi_map fills it in.
    """

    theta_min: float
    theta_max: float
    theta_count: int
    field_min: float | None
    field_max: float | None
    field_count: int

    def __post_init__(self) -> None:
        if self.theta_count < 2 or self.field_count < 2:
            raise ScenarioError("sweep axis counts must be >= 2")
        for v in (self.theta_min, self.theta_max, self.field_min, self.field_max):
            if v is not None and not math.isfinite(v):
                raise ScenarioError("sweep axis ranges must be finite")

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.theta_count)

    @property
    def fields(self) -> np.ndarray:
        return np.linspace(self.field_min, self.field_max, self.field_count)


# ---------------------------------------------------------------------------
# scenario resolution


def _tensor_from_components(comps: list[float]) -> NqiTensor:
    return NqiTensor.from_khz(symmetric_tensor(*comps), frame=FRAME_E)


def scenario_table(sc: Scenario) -> NqiTable:
    if sc.table_path is None:
        raise ScenarioError("scenario does not set table_path")
    p = Path(sc.table_path)
    if not p.is_absolute() and sc.base_dir is not None:
        p = sc.base_dir / p
    return load_nqi_table(p)


def scenario_pair(sc: Scenario) -> StatePairNqi:
    """State-pair tensors from inline components or the ingested table."""
    if sc.qg_khz is not None or sc.qe_khz is not None:
        if sc.qg_khz is None or sc.qe_khz is None:
            raise ScenarioError("inline tensors need both qg_khz and qe_khz")
        qeg = None if sc.qeg_khz is None else _tensor_from_components(sc.qeg_khz)
        return StatePairNqi(
            qg=_tensor_from_components(sc.qg_khz),
            qe=_tensor_from_components(sc.qe_khz),
            qeg=qeg,
        )
    if sc.table_path is not None:
        if (
            sc.table_field_au is None
            or sc.table_ground_state is None
            or sc.table_excited_state is None
        ):
            raise ScenarioError(
                "table-backed tensors need table_field_au, table_ground_state "
                "and table_excited_state"
            )
        return _table_pair(sc, scenario_table(sc), sc.table_field_au)
    raise ScenarioError("scenario provides neither inline tensors nor a table source")


def _table_pair(sc: Scenario, table: NqiTable, field_au: float) -> StatePairNqi:
    """The scenario's ground and excited table states at field_au."""
    states = (sc.table_ground_state, sc.table_excited_state)
    return StatePairNqi(*(table.interpolate(state, field_au) for state in states))


def scenario_params(sc: Scenario, tau: float | None = None) -> TwoLevelParams:
    return TwoLevelParams.from_hz(
        omega_rabi_hz=sc.omega_hz,
        decay_hz=sc.decay_hz,
        detuning_hz=sc.detuning_hz,
        dephasing_hz=sc.dephasing_hz,
        tau=tau,
        duty=sc.duty,
    )


def pulse_period(sc: Scenario) -> float:
    """Pulse period for the two-level run: tau_s, else gamma_tau/Gamma."""
    if sc.tau_s is not None:
        if sc.tau_s <= 0:
            raise ScenarioError(f"tau_s must be > 0, got {sc.tau_s}")
        return float(sc.tau_s)
    if sc.decay_hz <= 0:
        raise ScenarioError("cannot derive the pulse period from gamma_tau with decay_hz = 0")
    return sc.gamma_tau / (TWO_PI * sc.decay_hz)


@dataclass(frozen=True)
class ResolvedSetup:
    """Scenario after unit-mode handling: what the simulators consume."""

    nucleus: NucleusRecord
    pair: StatePairNqi
    params: TwoLevelParams
    theta: float
    b0_tesla: float
    transition: tuple[float, float]


def _apply_unit_mode(
    sc: Scenario, nucleus: NucleusRecord, pairs: list[StatePairNqi]
) -> tuple[NucleusRecord, list[StatePairNqi]]:
    """The nucleus and every pair of one run in its unit mode, all pairs scaled by one factor.

    The factor is set by the largest component among every tensor of the pairs, Qeg
    included, so spectrum, coupled and efg-mesh of one scenario share it.
    """
    if sc.unit_mode == UNIT_PHYSICAL:
        return nucleus, pairs
    gamma_b0_hz = sc.omega_hz / sc.zeeman_ratio
    gamma_mhz_per_t = gamma_b0_hz / 1e6 / sc.b0_tesla
    current = max(q.norm for p in pairs for q in p)  # zero tensors keep their scale
    factor = TWO_PI * gamma_b0_hz / sc.quad_ratio / current if current else 1.0
    gamma = TWO_PI * (gamma_mhz_per_t * 1e6)  # rad/s per tesla, as the Zeeman term forms it
    for what, value in (("gamma", gamma), ("gamma B0", gamma_b0_hz), ("tensor factor", factor)):
        if not (math.isfinite(value) and value > 0):  # checked before anything is built
            raise ScenarioError(f"the scaled unit mode's {what} is {value:g}, not finite and > 0")
    nucleus = replace(nucleus, name=f"scaled:{nucleus.name}", gamma_mhz_per_t=gamma_mhz_per_t)
    return nucleus, [p.map(lambda q: q.scaled(factor)) for p in pairs]


def resolve_setup(sc: Scenario) -> ResolvedSetup:
    nucleus, [pair] = _apply_unit_mode(sc, get_nucleus(sc.nucleus), [scenario_pair(sc)])
    return ResolvedSetup(
        nucleus=nucleus,
        pair=pair,
        params=scenario_params(sc),
        theta=sc.theta_rad,
        b0_tesla=sc.b0_tesla,
        transition=(sc.transition_from, sc.transition_to),
    )


# ---------------------------------------------------------------------------
# deterministic CSV assembly


_NUMBER = "%.17g"  # every number: 17 digits round-trip a float, so runs are byte-identical


def _csv_block(header: list[str], *columns) -> str:
    """The header and one line per element of the broadcast columns, in row-major order."""
    rows = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, len(header)).tolist()
    line = ",".join([_NUMBER] * len(header))
    return "\n".join([",".join(header)] + [line % tuple(row) for row in rows]) + "\n"


# ---------------------------------------------------------------------------
# subcommand bodies (pure: scenario in, CSV text out)


def run_steady_state(sc: Scenario) -> str:
    rho_ee, rho_eg = steady_state(scenario_params(sc))
    return _csv_block(["rho_ee_inf", "rho_eg_re", "rho_eg_im"], rho_ee, rho_eg.real, rho_eg.imag)


def run_pulse(sc: Scenario) -> str:
    tau = pulse_period(sc)
    params = scenario_params(sc, tau=tau)
    traj = simulate_pulsed_two_level(params, sc.n_periods, sc.samples_per_period)
    series = _csv_block(
        ["t", "rho_ee", "rho_eg_re", "rho_eg_im"],
        traj.times, traj.rho_ee, traj.rho_eg.real, traj.rho_eg.imag,
    )
    t_last, p_last = traj.last_period_slice(sc.samples_per_period)
    co = fourier_coefficients(t_last, p_last, sc.fourier_n_max)
    fourier = _csv_block(["n", "a_n", "b_n"], np.arange(co.a.size), co.a, co.b)
    return series + "\n" + fourier


def run_spectrum(sc: Scenario) -> str:
    setup = resolve_setup(sc)
    _, _, table = transition_table(
        setup.pair, setup.nucleus, setup.b0_tesla, setup.theta, setup.params
    )
    m_from, m_to, zeeman, total, _ = table[0].T
    return _csv_block(
        ["transition_from", "transition_to", "zeeman_hz", "correction_hz", "total_hz"],
        m_from, m_to, zeeman, total - zeeman, total,
    )


def run_rabi_map(sc: Scenario, grid: SweepGrid) -> str:
    """Rabi frequency and energy correction over (theta, field) nodes.

    Requires a table-backed scenario; the ground and excited tensors are
    interpolated once per field and share one unit-mode factor, and one
    transition_table per field gives every |delta m| in {1, 2} transition
    at all thetas.  Rows run theta-major, then field, then transition.
    Transitions with no drivable amplitude carry rabi_hz = 0 rather than
    erroring, so full maps always emit.
    """
    if sc.table_ground_state is None or sc.table_excited_state is None:
        raise ScenarioError("rabi-map needs table_ground_state and table_excited_state")
    table = scenario_table(sc)
    lo, hi = table.field_range(sc.table_ground_state)
    grid = replace(
        grid,
        field_min=lo if grid.field_min is None else grid.field_min,
        field_max=hi if grid.field_max is None else grid.field_max,
    )
    nucleus, params = get_nucleus(sc.nucleus), scenario_params(sc)
    nucleus, pairs = _apply_unit_mode(sc, nucleus, [_table_pair(sc, table, f) for f in grid.fields])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HierarchyWarning)  # the sweep is checked once, below
        tables = [transition_table(p, nucleus, sc.b0_tesla, grid.thetas, params) for p in pairs]
    qzz_hz = max(np.max(np.abs(q0[:, 2, 2] / TWO_PI)) for q0, _, _ in tables)
    _warn_if_zeeman_weak(nucleus.gamma_hz_per_t * sc.b0_tesla, qzz_hz)
    # columns shaped (theta, field, transition)
    m_from, m_to, zeeman, total, rabi = np.moveaxis(np.stack([t for *_, t in tables], 1), -1, 0)
    return _csv_block(
        ["theta_rad", "field_au", "transition_from", "transition_to", "rabi_hz", "correction_hz"],
        grid.thetas[:, None, None], grid.fields[:, None], m_from, m_to, rabi, total - zeeman,
    )


def run_coupled(sc: Scenario) -> str:
    """Full coupled run: normalized spin populations plus a fit summary.

    The time column is in units of the predicted Rabi period (t *
    predicted_rabi_hz); when the plan predicts no oscillation the
    column falls back to pulse periods and the summary carries the
    no-oscillation sentinel (NaN fit values).
    """
    setup = resolve_setup(sc)
    args = (setup.pair, setup.nucleus, setup.b0_tesla, setup.theta, setup.params, setup.transition)
    the_plan = plan(*args, allow_zero_amplitude=True)
    predicted = the_plan.predicted_rabi_hz
    if predicted > 0:
        duration = sc.duration_rabi_periods / predicted
        scale = predicted
    else:
        # no oscillation to resolve; cover a fixed number of pulses
        tau = the_plan.period_s
        duration = 200.0 * tau
        scale = 1.0 / tau
    traj = simulate_coupled(*args, duration, plan_=the_plan, n_samples=sc.n_samples)
    header = ["t_normalized"] + [f"p_{m:g}" for m in traj.m_values]
    series = _csv_block(header, traj.times * scale, *traj.populations.T)

    target = traj.population_of(setup.transition[1])
    # fit_rabi fits only when predicted > 0, and its sentinel frequency is NaN
    fit = fit_rabi(traj.times, target, predicted)
    deviation = abs(fit.frequency_hz - predicted) / predicted if fit.oscillating else math.nan
    summary = _csv_block(
        ["fit_rabi_hz", "predicted_rabi_hz", "relative_deviation"],
        fit.frequency_hz, predicted, deviation,
    )
    return series + "\n" + summary


def run_efg_mesh(tensor, s: float, n_theta: int, n_phi: int) -> str:
    mesh = surface_mesh(tensor, s, n_theta, n_phi)
    columns = (mesh.theta[:, None], mesh.phi, mesh.radius, mesh.sign)  # shaped (theta, phi)
    return _csv_block(["theta_rad", "phi_rad", "radius", "sign"], *columns)


def ingest_report(table: NqiTable) -> str:
    lines = [f"table ok: {len(table.states)} states, {table.n_rows()} rows"]
    for state in table.states:
        lo, hi = table.field_range(state)
        lines.append(f"  state {state}: field range [{_NUMBER % lo}, {_NUMBER % hi}] a.u.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argparse front end


def _scenario_for(args) -> Scenario:
    sc = load_scenario(args.scenario) if args.scenario else default_scenario()
    return replace(sc, unit_mode=args.unit_mode) if args.unit_mode else sc


def _rabi_map(args) -> str:
    sc = _scenario_for(args)
    # the sweep flags are named after the SweepGrid fields
    grid = SweepGrid(**{f.name: getattr(args, f.name) for f in fields(SweepGrid)})
    return run_rabi_map(sc, grid)


def _efg_mesh(args) -> str:
    pair = resolve_setup(_scenario_for(args)).pair
    tensor = {"ground": pair.qg, "excited": pair.qe, "difference": pair.delta}[args.which]
    return run_efg_mesh(tensor, args.mesh_scale, args.n_theta, args.n_phi)


def _ingest_check(args) -> str:
    if args.table:
        return ingest_report(load_nqi_table(args.table))
    return ingest_report(scenario_table(_scenario_for(args)))


# (name, help, body): a body takes the parsed arguments and returns the
# output text.  Bodies look the run functions up when called, so a
# wrapper installed on this module later (a tracer, a test spy) sees them.
COMMANDS = (
    ("steady-state", "driven two-level steady state",
     lambda a: run_steady_state(_scenario_for(a))),
    ("pulse", "pulsed two-level time series + Fourier block",
     lambda a: run_pulse(_scenario_for(a))),
    ("spectrum", "spin transition energies with Q0 corrections",
     lambda a: run_spectrum(_scenario_for(a))),
    ("rabi-map", "Rabi frequency sweep over theta and field", _rabi_map),
    ("coupled", "full electron-nucleus density-matrix run",
     lambda a: run_coupled(_scenario_for(a))),
    ("efg-mesh", "radial surface map of a coupling tensor", _efg_mesh),
    ("ingest-check", "validate an NQI-vs-field table", _ingest_check),
)


@functools.cache  # once per process: the bodies look their run functions up when called
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="scenario YAML (default: packaged example)")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument(
        "--unit-mode",
        choices=[UNIT_PHYSICAL, UNIT_SCALED],
        help="override the scenario's unit_mode",
    )

    parser = argparse.ArgumentParser(
        prog="onersim",
        description="Pulsed-modulation nuclear spin control: deterministic CSV runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, help_text, body in COMMANDS:
        subs[name] = sub.add_parser(name, help=help_text, parents=[common])
        subs[name].set_defaults(body=body)

    p = subs["rabi-map"]
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=math.pi / 2.0)
    p.add_argument("--theta-count", type=int, default=9)
    p.add_argument("--field-min", type=float, default=None, help="default: table minimum")
    p.add_argument("--field-max", type=float, default=None, help="default: table maximum")
    p.add_argument("--field-count", type=int, default=5)

    p = subs["efg-mesh"]
    p.add_argument(
        "--which",
        choices=["ground", "excited", "difference"],
        default="excited",
        help="which scenario tensor to map",
    )
    p.add_argument("--mesh-scale", type=float, default=1.0)
    p.add_argument("--n-theta", type=int, default=24)
    p.add_argument("--n-phi", type=int, default=48)

    subs["ingest-check"].add_argument("--table", help="table path (default: scenario's table_path)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # hierarchy notes must reach the user on every call; the filter ends with it
    with warnings.catch_warnings():
        warnings.simplefilter("always", HierarchyWarning)
        try:
            text = args.body(args)
            if args.out:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        except (TableFormatError, TableRangeError) as exc:
            print(f"onersim: ingestion error: {exc}", file=sys.stderr)
            return EXIT_INGESTION
        except RuntimeError as exc:
            print(f"onersim: numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except (ScenarioError, ValueError, KeyError, OSError, yaml.YAMLError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) else exc  # str() quotes a KeyError
            print(f"onersim: configuration error: {message}", file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
