"""Protocol core: pulsed two-level dynamics and quadrupole-driven spin control.

A pulsed optical drive toggles an electronic two-level system between its
ground and excited states; because the two states see different electric
field gradients, the nuclear quadrupole coupling inherits the pulse
pattern.  At repetition rates resonant with a nuclear spin transition the
modulated part of the coupling drives coherent Rabi oscillations.

The pipeline implemented here:

1. steady_state / simulate_pulsed_two_level: the driven, decaying
   two-level system in the rotating frame, with collapse channels for
   spontaneous decay (sigma, rate Gamma) and pure dephasing (sigma_z,
   rate gamma_c / 2).
2. fourier_coefficients: harmonic content of the excited-state
   population over one pulse period.
3. _effective: the pair turned into the field frame (B) and the static
   tensor Q0 = Qg + (rho_inf / 2)(Qe - Qg) and fundamental-harmonic
   amplitude Q1 = (2 rho_inf / pi)(Qe - Qg) of the effective coupling,
   from the square-wave limit of a duty-1/2 population, at the drive's
   rho_inf; the only place any of them is formed.
4. transition_table / plan: per orientation and transition, the
   repetition rate from the first-order transition energy with Q0 and
   the predicted Rabi frequency |g(Q1)| / 2 pi; plan reads the row of
   one target transition and keeps Q0, Q1 and the drive, which both
   spin runs check through step 3 again.
5. simulate_spin_effective / simulate_coupled: the spin-only model with
   a harmonically modulated tensor, and the full 2 x (2I+1) density
   matrix with the operator-valued coupling, for cross-validation.

Angular frequencies (rad/s) internally; exported rates in Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import curve_fit

from . import qdyn
from .constants import TWO_PI, NucleusRecord
from .efg import FRAME_B, FRAME_E, TRACE_RTOL, NqiTensor, _validated_tensor, rotate_about_x
from .qdyn import CollapseChannel, DensityOperator, PropagationDiagnostics
from .spin import (
    _warn_hierarchy,
    _warn_if_zeeman_weak,
    allowed_transitions,
    make_spin,
    quadrupole_hamiltonian,
    transition_amplitude,
    transition_energy,
    zeeman_hamiltonian,
)

# two-level basis: index 0 = ground, 1 = excited
SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PROJ_G = np.diag([1.0, 0.0]).astype(complex)
PROJ_E = np.diag([0.0, 1.0]).astype(complex)

# "much greater" threshold for the pulse-rate hierarchy warning
HIERARCHY_MIN_PRODUCT = 10.0

# relative amplitude below which a transition counts as forbidden
ZERO_AMPLITUDE_RTOL = 1e-9


class NoSteadyStateError(ValueError):
    """Steady state requested for an undamped two-level system."""


class ZeroAmplitudeError(ValueError):
    """The requested transition has no drivable amplitude."""


@dataclass(frozen=True)
class TwoLevelParams:
    """Two-level drive and damping parameters, angular frequency units.

    Attributes:
        omega_rabi: drive amplitude Omega, rad/s.
        decay: spontaneous decay rate Gamma, rad/s.
        detuning: drive detuning Delta, rad/s (any sign).
        dephasing: pure dephasing rate gamma_c, rad/s.
        tau: pulse repetition period in seconds (None for continuous
            drive uses).
        duty: fraction of tau with the drive on.
    """

    omega_rabi: float
    decay: float
    detuning: float = 0.0
    dephasing: float = 0.0
    tau: float | None = None
    duty: float = 0.5

    def __post_init__(self) -> None:
        for name in ("omega_rabi", "decay", "detuning", "dephasing", "tau"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.omega_rabi < 0:
            raise ValueError(f"omega_rabi must be >= 0, got {self.omega_rabi}")
        if self.decay < 0 or self.dephasing < 0:
            raise ValueError("decay and dephasing rates must be >= 0")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must lie in (0, 1), got {self.duty}")
        if self.tau is not None and self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")

    @classmethod
    def from_hz(
        cls,
        omega_rabi_hz: float,
        decay_hz: float,
        detuning_hz: float = 0.0,
        dephasing_hz: float = 0.0,
        tau: float | None = None,
        duty: float = 0.5,
    ) -> "TwoLevelParams":
        return cls(
            omega_rabi=TWO_PI * omega_rabi_hz,
            decay=TWO_PI * decay_hz,
            detuning=TWO_PI * detuning_hz,
            dephasing=TWO_PI * dephasing_hz,
            tau=tau,
            duty=duty,
        )

    @property
    def gamma_perp(self) -> float:
        """Transverse relaxation rate Gamma/2 + gamma_c."""
        return self.decay / 2.0 + self.dephasing


@dataclass(frozen=True)
class StatePairNqi:
    """NQI tensors of the electronic ground and excited states.

    The optional off-diagonal tensor qeg couples through the electronic
    coherence; it time-averages out at optical carrier frequencies and
    defaults to absent.  Iterating a pair yields its tensors: qg, qe and,
    when present, qeg.
    """

    qg: NqiTensor
    qe: NqiTensor
    qeg: NqiTensor | None = None

    def __post_init__(self) -> None:
        frames = {q.frame for q in self}
        if len(frames) != 1:
            raise ValueError(f"state-pair tensors must share one frame, got {sorted(frames)}")

    def __iter__(self):
        return iter((self.qg, self.qe) if self.qeg is None else (self.qg, self.qe, self.qeg))

    @property
    def frame(self) -> str:
        return self.qg.frame

    @property
    def delta(self) -> NqiTensor:
        """Difference tensor Qe - Qg."""
        return NqiTensor(_difference(self.qg.matrix, self.qe.matrix), frame=self.frame)

    def map(self, fn) -> "StatePairNqi":
        """The pair of fn applied to each of its tensors."""
        return StatePairNqi(*(fn(q) for q in self))


@dataclass(frozen=True)
class OnerPlan:
    """Resolved drive plan for one spin transition.

    repetition_rate_hz is |transition energy| evaluated with Q0, so the
    pulse train is resonant by construction; predicted_rabi_hz is
    |g(Q1)| / 2 pi, the full population-cycle frequency under the
    resonant rotating-wave treatment of a sin-modulated coupling.
    Every simulator divides by the rate, so a plan refuses one that is
    not finite and > 0 however it is made (plan, detuned, replace);
    period_s is the one pulse period and params the drive it was made for.
    """

    q0: NqiTensor
    q1: NqiTensor
    transition: tuple[float, float]
    repetition_rate_hz: float
    predicted_rabi_hz: float
    params: TwoLevelParams

    def __post_init__(self) -> None:
        rate, (m_from, m_to) = self.repetition_rate_hz, self.transition
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(
                f"transition {m_from:g} -> {m_to:g} has repetition rate {rate:g} Hz, not a finite "
                "rate > 0; a transition of zero energy at this field and orientation has none"
            )

    @property
    def period_s(self) -> float:
        """Pulse period 1 / repetition_rate_hz, in seconds."""
        return 1.0 / self.repetition_rate_hz


def steady_state(params: TwoLevelParams) -> tuple[float, complex]:
    """Long-time excited population and coherence of the driven system.

    Returns (rho_ee, rho_eg) with rho_eg the rotating-frame coherence
    <e|rho|g>.  Requires decay > 0; an undamped system keeps oscillating
    and has no steady state.
    """
    if params.decay <= 0:
        raise NoSteadyStateError("steady state requires a nonzero decay rate")
    gp = params.gamma_perp
    om, dl, gam = params.omega_rabi, params.detuning, params.decay
    try:
        denom = 1.0 + (dl / gp) ** 2 + om * om / (gp * gam)
        rho_ee = (om * om / (2.0 * gp * gam)) / denom
        rho_eg = complex((1j * om / (2.0 * gp)) * (1.0 + 1j * dl / gp) / denom)
    except (ZeroDivisionError, OverflowError):
        rho_ee = rho_eg = math.nan
    if not np.all(np.isfinite([rho_ee, rho_eg])):
        raise NoSteadyStateError(
            f"steady state out of floating-point range: omega {om:.3g}, detuning {dl:.3g}, "
            f"decay {gam:.3g} rad/s"
        )
    return rho_ee, rho_eg


def drive_hamiltonian(params: TwoLevelParams, on: bool) -> np.ndarray:
    """Rotating-frame two-level Hamiltonian, drive on or off, rad/s."""
    h = np.zeros((2, 2), dtype=complex)
    h[1, 1] = -params.detuning
    if on:
        h[0, 1] = h[1, 0] = -params.omega_rabi / 2.0
    return h


def collapse_channels(params: TwoLevelParams) -> list[CollapseChannel]:
    """Decay (sigma, rate Gamma) and dephasing (sigma_z, rate gamma_c/2)."""
    out = []
    if params.decay > 0:
        out.append(CollapseChannel(SIGMA, params.decay))
    if params.dephasing > 0:
        out.append(CollapseChannel(SIGMA_Z, params.dephasing / 2.0))
    return out


def _pulse_run(params, tau, h_static, rho0, samples):
    """Pulse train on a 2 x d space: H_2L x 1 + h_static, drive on for duty * tau, then off.

    The channels act as c x 1.  The on and off pieces get RK4 lattices of
    their own, so no step crosses a switch, and their maps are built once for the whole train.
    """
    # the effective-tensor construction assumes many drive and decay cycles per pulse half-period
    drive, decay = params.omega_rabi * tau, params.decay * tau
    if drive < HIERARCHY_MIN_PRODUCT or decay < HIERARCHY_MIN_PRODUCT:
        _warn_hierarchy(
            f"pulse hierarchy weak: omega*tau = {drive:.3g}, decay*tau = {decay:.3g} "
            f"(want both >> 1, at least {HIERARCHY_MIN_PRODUCT:g})"
        )
    eye = np.eye(len(h_static) // 2)
    h_on, h_off = (h_static + qdyn.kron(drive_hamiltonian(params, on), eye) for on in (True, False))
    channels = [
        CollapseChannel(qdyn.kron(c.operator, eye), c.rate) for c in collapse_channels(params)
    ]
    pieces = [(params.duty * tau, h_on), ((1.0 - params.duty) * tau, h_off)]
    return qdyn.propagate(None, channels, rho0, samples, period=pieces)


@dataclass
class TwoLevelTrajectory:
    """Sampled two-level state under the pulse train."""

    times: np.ndarray
    rho_ee: np.ndarray
    rho_eg: np.ndarray  # rotating-frame <e|rho|g>
    diagnostics: PropagationDiagnostics

    def last_period_slice(self, samples_per_period: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, rho_ee) of the final full period, half-open [0, tau)."""
        t = self.times[-samples_per_period - 1 : -1]
        p = self.rho_ee[-samples_per_period - 1 : -1]
        return t, p


def simulate_pulsed_two_level(
    params: TwoLevelParams,
    n_periods: int,
    samples_per_period: int,
) -> TwoLevelTrajectory:
    """Propagate the two-level system over an integer number of pulses.

    The system starts in its ground state, and the drive is on for the
    first duty fraction of each period (_pulse_run with no spin factor).
    Output samples sit at uniform fractions j / samples_per_period of
    each period plus the final endpoint, so the last period provides
    exactly the half-open window fourier_coefficients expects.
    """
    if params.tau is None:
        raise ValueError("params.tau must be set for a pulsed simulation")
    if n_periods < 1 or samples_per_period < 2:
        raise ValueError("need n_periods >= 1 and samples_per_period >= 2")
    tau, spp = params.tau, samples_per_period
    samples = np.append(np.add.outer(np.arange(n_periods), np.arange(spp) / spp), n_periods) * tau
    rho0 = DensityOperator.pure(0, dim=2)
    res = _pulse_run(params, tau, np.zeros((2, 2)), rho0, samples)
    rho_ee = np.real(res.matrices[:, 1, 1]).copy()
    rho_eg = res.matrices[:, 1, 0].copy()
    return TwoLevelTrajectory(
        times=samples, rho_ee=rho_ee, rho_eg=rho_eg, diagnostics=res.diagnostics
    )


@dataclass
class FourierSeries:
    """Real Fourier coefficients; index n runs from 0 to n_max.

    The series convention is f(t) = a[0]/2 + sum_n (a[n] cos + b[n] sin),
    so a constant c appears as a[0] = 2c.  b[0] is fixed at 0.
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def a0(self) -> float:
        return float(self.a[0])


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # a bad period raises below
def fourier_coefficients(times, values, n_max: int) -> FourierSeries:
    """Fourier coefficients of one period of a sampled series.

    Args:
        times: uniform sample times covering exactly one period as a
            half-open window [t0, t0 + tau); the phase reference is
            times[0].
        values: series samples.
        n_max: highest harmonic index.

    Uses a_n = (2/tau) integral f cos(omega_n t) dt (and sin for b_n)
    with omega_n = 2 pi n / tau, evaluated by the trapezoid rule, which
    for uniform periodic samples reduces to the plain average.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
        raise ValueError("times and values must be matching 1-D arrays, length >= 2")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("times and values must be finite")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
        raise ValueError("sampling must be uniform over the period")
    n = t.size
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max >= n / 2:
        raise ValueError(f"n_max = {n_max} unresolvable with {n} samples per period")
    tau = n * float(dt[0])
    omega = TWO_PI * np.arange(n_max + 1) / tau
    if not np.all(np.isfinite(omega)):
        raise ValueError(f"harmonics up to {n_max} of a period of {tau:.3g} overflow")
    phase = omega[:, None] * (t - t[0])
    a = 2.0 * np.mean(v * np.cos(phase), axis=1)
    b = 2.0 * np.mean(v * np.sin(phase), axis=1)
    b[0] = 0.0
    return FourierSeries(a=a, b=b)


def effective_nqi_series(
    trajectory: TwoLevelTrajectory,
    pair: StatePairNqi,
    carrier_omega: float | None = None,
) -> np.ndarray:
    """Electronic-state-averaged coupling tensor along a trajectory.

    <Q>(t) = rho_ee Qe + (1 - rho_ee) Qg + 2 Re{rho_eg(t)} Qeg, one
    read-only (n_times, 3, 3) array in rad/s in the pair's frame.  The
    blend is linear in validated tensors, so every row is symmetric and
    traceless.  The stored coherence is the rotating-frame one; when
    carrier_omega is given the optical phase factor is restored before
    taking the real part, which is what makes the Qeg term average out
    on spin timescales.
    """
    p, coh = trajectory.rho_ee[:, None, None], trajectory.rho_eg
    if carrier_omega is not None:
        coh = coh * np.exp(-1j * carrier_omega * trajectory.times)
    weights = (1.0 - p, p, 2.0 * coh.real[:, None, None])  # of Qg, Qe and Qeg
    out = sum(w * q.matrix for w, q in zip(weights, pair))
    out.setflags(write=False)
    return out


def _difference(qg, qe) -> np.ndarray:
    """Qe - Qg of validated matrices, or of stacks of them, traceless next to its own norm.

    The inputs are traceless up to rounding at their own scale, which the difference
    keeps: where that rounding reads as a trace next to the difference's own norm (a
    Qe - Qg far below Qg), the trace is projected out, and elsewhere left as it is.
    """
    dq = qe - qg
    tr = np.trace(dq, axis1=-2, axis2=-1)
    far = np.abs(tr) > TRACE_RTOL * np.max(np.abs(dq), axis=(-2, -1))
    dq -= np.where(far, tr / 3.0, 0.0)[..., None, None] * np.eye(3)
    return dq


def _effective(pair: StatePairNqi, thetas: np.ndarray, params: TwoLevelParams):
    """The pair's matrices in the field frame (B) at thetas, with its Q0 and Q1 (step 3 above).

    An E-frame pair turns about x by each of N thetas (a 0-d array: one 3 x 3 each), all
    its tensors at once, and every turned stack is checked as NqiTensor checks one
    tensor; a B-frame pair is used as it is.  Q0 and Q1 (unvalidated) model a square wave
    of duty 1/2 at the drive's steady-state population, so any other duty raises ValueError.
    """
    if params.duty != 0.5:
        raise ValueError(f"duty {params.duty:g}: Q0 and Q1 model a square-wave drive of duty 1/2")
    if pair.frame == FRAME_E:
        turned = [_validated_tensor(rotate_about_x(q.matrix, thetas), "NQI tensor") for q in pair]
    elif pair.frame == FRAME_B:  # the same matrices at every orientation
        turned = [np.broadcast_to(q.matrix, thetas.shape + (3, 3)) for q in pair]
    else:
        raise ValueError(f"state pair frame must be {FRAME_E!r} or {FRAME_B!r}, got {pair.frame!r}")
    rho_ee_inf, dq = steady_state(params)[0], _difference(*turned[:2])
    return turned, turned[0] + (rho_ee_inf / 2.0) * dq, (2.0 * rho_ee_inf / math.pi) * dq


def transition_table(
    pair: StatePairNqi,
    nucleus: NucleusRecord,
    b0_tesla: float,
    theta: float | np.ndarray,
    params: TwoLevelParams,
    transitions=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q0, Q1 and one row per transition at each orientation in theta, under the drive params.

    theta is an array of N orientations (a scalar is an array of one), at
    all of which the pair is turned into the field frame (B) at once and
    checked as NqiTensor checks one tensor.  Q0 and Q1 are (N, 3, 3) stacks
    at the drive's steady-state population, a model of duty 1/2 only (any
    other duty raises ValueError); the (N, T, 5) table holds a row
    (m_from, m_to, zeeman_hz, energy_hz, rabi_hz) per orientation and
    transition: |gamma B0 delta m|, the first-order |E(m_to) - E(m_from)|
    with Q0 (the resonant repetition rate), and |g(Q1)| / 2 pi, 0.0 at or
    below ZERO_AMPLITUDE_RTOL times that orientation's largest |Q1|
    component.  transitions defaults to every allowed one.  Warns if |gamma B0| < 10 max |Qzz|.
    """
    spin = make_spin(nucleus.two_I)
    thetas = np.asarray(theta, dtype=float).ravel()
    q0, q1 = (_validated_tensor(q, "NQI tensor") for q in _effective(pair, thetas, params)[1:])
    floor = ZERO_AMPLITUDE_RTOL * np.maximum(np.max(np.abs(q1), axis=(1, 2)), 1e-300)
    gamma, qzz_hz = nucleus.gamma_hz_per_t, q0[:, 2, 2] / TWO_PI
    _warn_if_zeeman_weak(gamma * b0_tesla, np.max(np.abs(qzz_hz), initial=0.0))
    transitions = allowed_transitions(spin) if transitions is None else list(transitions)
    table = np.empty((thetas.size, len(transitions), 5))
    for k, (m_from, m_to) in enumerate(transitions):
        table[:, k, :3] = m_from, m_to, abs(gamma * b0_tesla * (m_to - m_from))
        table[:, k, 3] = np.abs(transition_energy(m_from, m_to, gamma, b0_tesla, qzz_hz, spin))
        g = transition_amplitude(m_from, m_to, q1, spin)
        g = np.hypot(g.real, g.imag)  # |g| as abs() rounds it; np.abs can differ in the last bit
        table[:, k, 4] = np.where(g <= floor, 0.0, g) / TWO_PI
    return q0, q1, table


def plan(
    pair: StatePairNqi,
    nucleus: NucleusRecord,
    b0_tesla: float,
    theta: float,
    params: TwoLevelParams,
    transition: tuple[float, float],
    *,
    allow_zero_amplitude: bool = False,
) -> OnerPlan:
    """Resolve pulse-train parameters for one target spin transition.

    Reads the transition's row of transition_table under the drive, which the
    plan keeps: the repetition rate is the Q0-corrected transition energy and
    the predicted Rabi frequency comes from the Q1 transition amplitude.
    A transition whose amplitude vanishes (symmetry-forbidden, or
    suppressed by geometry such as a diagonal tensor at theta = 0)
    raises ZeroAmplitudeError unless allow_zero_amplitude, which instead
    records a zero predicted Rabi frequency (useful for deliberately
    off-target runs).  A transition of zero energy has no repetition rate,
    so OnerPlan raises ValueError, whatever allow_zero_amplitude says.
    """
    q0, q1, [[(m_from, m_to, _, rep_hz, rabi_hz)]] = transition_table(
        pair, nucleus, b0_tesla, theta, params, [transition]
    )
    q0, q1 = (NqiTensor(q[0], frame=FRAME_B) for q in (q0, q1))
    if rabi_hz == 0.0 and not allow_zero_amplitude:
        raise ZeroAmplitudeError(
            f"transition {m_from:g} -> {m_to:g} cannot be driven: its amplitude "
            f"vanishes relative to the modulated tensor (norm {q1.norm:.3e}); either "
            "the geometric prefactor is identically zero for this level pair or the "
            "relevant tensor components vanish at this orientation"
        )
    return OnerPlan(q0, q1, (float(m_from), float(m_to)), float(rep_hz), float(rabi_hz), params)


def detuned(plan_: OnerPlan, rate_offset_hz: float) -> OnerPlan:
    """Copy of a plan with the repetition rate shifted off resonance."""
    return replace(plan_, repetition_rate_hz=plan_.repetition_rate_hz + rate_offset_hz)


@dataclass
class SpinTrajectory:
    """Spin populations of a run; a coupled run adds the two-level rho_ee and its plan."""

    times: np.ndarray
    populations: np.ndarray  # shape (n_times, 2I+1), basis order of m_values
    m_values: np.ndarray
    diagnostics: PropagationDiagnostics
    rho_ee: np.ndarray | None = None
    plan: OnerPlan | None = None

    def population_of(self, m: float) -> np.ndarray:
        """Population column of the level with magnetic quantum number m."""
        idx = int(np.argmin(np.abs(self.m_values - m)))
        if abs(self.m_values[idx] - m) > 1e-9:
            raise ValueError(f"no level with m = {m}")
        return self.populations[:, idx]


def _check_plan_consistency(plan_, pair, nucleus, theta, duration, initial_m, n_samples):
    """Start a spin run: (spin, the pair's B-frame matrices, index of the start level, sample grid).

    Q0 and Q1 formed from this pair at the plan's drive, as transition_table forms them, must
    match the plan's to 1e-9 of max(|Q1|, |Qe - Qg|) (Q0 also to its own rounding), and
    duration must be > 0; initial_m defaults to the plan's source level.
    """
    spin = make_spin(nucleus.two_I)
    turned, q0, q1 = _effective(pair, np.asarray(theta, dtype=float), plan_.params)
    tol = 1e-9 * max(plan_.q1.norm, float(np.max(np.abs(turned[1] - turned[0]))))
    rounding = 8 * np.finfo(float).eps * plan_.q0.norm
    for name, formed, slack in (("q1", q1, 0.0), ("q0", q0, rounding)):
        if not np.max(np.abs(formed - getattr(plan_, name).matrix)) <= tol + slack:  # NaN fails
            raise ValueError(f"plan.{name} inconsistent with the supplied pair at the plan's drive")
    if duration <= 0:
        raise ValueError("duration must be > 0")
    start = spin.index_of(plan_.transition[0] if initial_m is None else initial_m)
    return spin, turned, start, np.linspace(0.0, duration, n_samples + 1)


def simulate_spin_effective(
    plan_: OnerPlan,
    pair: StatePairNqi,
    nucleus: NucleusRecord,
    b0_tesla: float,
    theta: float,
    duration: float,
    *,
    initial_m: float | None = None,
    n_samples: int = 400,
) -> SpinTrajectory:
    """Unitary spin evolution under H(t) = H_zeeman + H_Q0 + H_Q1 sin(wt).

    The modulation frequency is the plan's repetition rate, and one
    modulation period is the RK4 lattice piece whose step maps serve
    every period of the run.  The spin starts in the pure level
    initial_m (default: the transition's source level).  No spin
    decoherence channels are applied.
    """
    spin, _, start, grid = _check_plan_consistency(
        plan_, pair, nucleus, theta, duration, initial_m, n_samples
    )
    h0 = zeeman_hamiltonian(nucleus.gamma_hz_per_t, b0_tesla, spin) + quadrupole_hamiltonian(
        plan_.q0, spin
    )
    h1 = quadrupole_hamiltonian(plan_.q1, spin)
    omega_mod = TWO_PI * plan_.repetition_rate_hz
    rho0 = DensityOperator.pure(start, dim=spin.dim)
    res = qdyn.propagate_modulated(
        h0, h1, lambda t: np.sin(omega_mod * t), (), rho0, grid, period=plan_.period_s
    )
    return SpinTrajectory(grid, res.populations(), spin.m_values, res.diagnostics)


def simulate_coupled(
    pair: StatePairNqi,
    nucleus: NucleusRecord,
    b0_tesla: float,
    theta: float,
    params: TwoLevelParams,
    transition: tuple[float, float],
    duration: float,
    *,
    plan_: OnerPlan | None = None,
    n_samples: int = 400,
) -> SpinTrajectory:
    """Full 2 x (2I+1) density-matrix run of the pulsed coupled system.

    The Hamiltonian is H_2L(t) x 1 + 1 x H_zeeman + sum_uv Q_uv x I_u I_v
    with the operator-valued tensor taking the ground/excited (and
    optionally off-diagonal) block values; the two-level collapse
    channels act as c x 1 (_pulse_run).  The pulse period is set by the
    plan's repetition rate, so the train is resonant with the chosen
    transition.  The run starts in |g> x |m> with m the transition's
    source level; the spin populations and rho_ee are sums over the
    diagonal of the product-basis states.

    Physical hierarchies (GHz optical rates against kHz couplings) run as
    fast as scaled ones; one too stiff for qdyn's trace-drift or positivity
    check raises IntegrationFailureError, which proportionally rescaled
    inputs (scaled-unit mode) avoid without changing the Rabi physics.
    A plan_ passed in must be for this pair, transition and drive (tau
    aside); without one the run calls plan, which raises
    ZeroAmplitudeError for a forbidden transition.  To run one anyway,
    pass a plan made with allow_zero_amplitude=True.
    """
    if plan_ is None:
        plan_ = plan(pair, nucleus, b0_tesla, theta, params, transition)
    elif plan_.transition != (float(transition[0]), float(transition[1])):
        raise ValueError(f"plan is for transition {plan_.transition}, not {tuple(transition)}")
    elif replace(plan_.params, tau=params.tau) != params:
        raise ValueError(f"plan is for the drive {plan_.params}, not {params}")
    spin, turned, start, samples = _check_plan_consistency(
        plan_, pair, nucleus, theta, duration, None, n_samples
    )
    h_static = qdyn.kron(np.eye(2), zeeman_hamiltonian(nucleus.gamma_hz_per_t, b0_tesla, spin))
    for block, q in zip((PROJ_G, PROJ_E, SIGMA + SIGMA.conj().T), turned):  # Qg, Qe, Qeg blocks
        h_static += qdyn.kron(block, quadrupole_hamiltonian(q, spin))
    # product basis |g> x |m>: the ground block holds the first 2I + 1 indices
    rho0 = DensityOperator.pure(start, dim=2 * spin.dim)
    res = _pulse_run(params, plan_.period_s, h_static, rho0, samples)
    pops = res.populations().reshape(-1, 2, spin.dim)  # (time, electron, spin)
    return SpinTrajectory(
        samples, pops.sum(1), spin.m_values, res.diagnostics, rho_ee=pops[:, 1].sum(1), plan=plan_
    )


@dataclass
class RabiFit:
    """Result of fitting A sin^2(pi nu t) + c to a population trace."""

    frequency_hz: float
    amplitude: float
    offset: float
    peak: float
    oscillating: bool

    FLAT_THRESHOLD = 1e-6


def fit_rabi(times, populations, frequency_guess_hz: float) -> RabiFit:
    """Least-squares Rabi frequency from a population time trace.

    Fits p(t) = A sin^2(pi nu t) + c.  A flat trace (peak-to-peak below
    RabiFit.FLAT_THRESHOLD) returns the no-oscillation sentinel with
    frequency NaN rather than a fake fit.
    """
    t = np.asarray(times, dtype=float)
    p = np.asarray(populations, dtype=float)
    if t.shape != p.shape or t.ndim != 1 or t.size < 8:
        raise ValueError("need matching 1-D arrays with at least 8 samples")
    span = float(np.ptp(p))
    peak = float(np.max(p))
    if span < RabiFit.FLAT_THRESHOLD or frequency_guess_hz <= 0:
        return RabiFit(
            frequency_hz=float("nan"),
            amplitude=0.0,
            offset=float(np.mean(p)),
            peak=peak,
            oscillating=False,
        )

    def model(tt, amp, nu, off):
        return amp * np.sin(np.pi * nu * tt) ** 2 + off

    popt, _ = curve_fit(
        model,
        t,
        p,
        p0=(span, frequency_guess_hz, float(np.min(p))),
        maxfev=20000,
    )
    amp, nu, off = popt
    return RabiFit(
        frequency_hz=abs(float(nu)),
        amplitude=float(amp),
        offset=float(off),
        peak=peak,
        oscillating=True,
    )
