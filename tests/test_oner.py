"""Tests for the pulse-protocol layer: steady states, pulsed trajectories,
Fourier analysis, drive plans, and the spin simulators.

Oracles: closed-form driven-damped steady states cross-checked by long
propagation, exponential decay during drive-off halves, literal Fourier
sums of known waveforms, closed-form rotated-tensor amplitudes, and
scale covariance of the equations of motion.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from onersim import oner
from onersim.constants import TWO_PI, NucleusRecord
from onersim.efg import NqiTensor, axial_nqi, rotate_about_x
from onersim.oner import (
    FourierSeries,
    NoSteadyStateError,
    OnerPlan,
    RabiFit,
    StatePairNqi,
    TwoLevelParams,
    ZeroAmplitudeError,
    collapse_channels,
    detuned,
    drive_hamiltonian,
    effective_nqi_series,
    fit_rabi,
    fourier_coefficients,
    plan,
    q0_q1,
    simulate_coupled,
    simulate_pulsed_two_level,
    simulate_spin_effective,
    steady_state,
    transition_table,
    TwoLevelTrajectory,
)
from onersim.qdyn import DensityOperator, propagate
from onersim.spin import (
    HierarchyWarning,
    UnsupportedTransitionError,
    allowed_transitions,
    make_spin,
    transition_amplitude,
    transition_energy,
)


def nucleus_for(gamma_b0_hz: float, two_I: int = 3) -> NucleusRecord:
    """Synthetic species whose Zeeman splitting at 1 T is gamma_b0_hz."""
    return NucleusRecord(name="test", two_I=two_I, q_barn=0.05, gamma_mhz_per_t=gamma_b0_hz / 1e6)


def test_params_validation_and_conversion():
    with pytest.raises(ValueError, match="omega_rabi"):
        TwoLevelParams(omega_rabi=-1.0, decay=1.0)
    with pytest.raises(ValueError, match="rates"):
        TwoLevelParams(omega_rabi=1.0, decay=-1.0)
    with pytest.raises(ValueError, match="duty"):
        TwoLevelParams(omega_rabi=1.0, decay=1.0, duty=1.0)
    with pytest.raises(ValueError, match="tau"):
        TwoLevelParams(omega_rabi=1.0, decay=1.0, tau=0.0)

    p = TwoLevelParams.from_hz(2.0, 1.0, detuning_hz=0.5, dephasing_hz=0.25, tau=100.0)
    assert p.omega_rabi == pytest.approx(TWO_PI * 2.0)
    assert p.decay == pytest.approx(TWO_PI)
    assert p.detuning == pytest.approx(TWO_PI * 0.5)
    assert p.dephasing == pytest.approx(TWO_PI * 0.25)
    assert p.gamma_perp == pytest.approx(TWO_PI * 0.75)


def test_weak_pulse_hierarchy_warns():
    with pytest.warns(HierarchyWarning, match="hierarchy weak"):
        TwoLevelParams(omega_rabi=1.0, decay=1.0, tau=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TwoLevelParams(omega_rabi=2.0, decay=1.0, tau=50.0)


def test_from_hz_hierarchy_warning_names_the_caller():
    # through from_hz the warning points here, not at from_hz's own line
    with pytest.warns(HierarchyWarning) as record:
        TwoLevelParams.from_hz(1.0, 1.0, tau=1e-3)
    assert [Path(w.filename).name for w in record] == [Path(__file__).name]


def test_steady_state_reference_values():
    # resonant, no dephasing, decay = 0.4 drive: population 25/54
    p = TwoLevelParams(omega_rabi=1.0, decay=0.4)
    rho_ee, rho_eg = steady_state(p)
    assert rho_ee == pytest.approx(25.0 / 54.0, rel=1e-12)
    # coherence i Omega / (2 gamma_perp) / denom, purely imaginary on
    # resonance
    assert rho_eg == pytest.approx(1j / (2.0 * 0.2) / 13.5, rel=1e-12)

    # detuning = gamma_perp and Omega^2 = gamma_perp * decay: denom 3
    gp = 0.5 + 0.3  # decay/2 + dephasing
    p2 = TwoLevelParams(
        omega_rabi=np.sqrt(gp * 1.0), decay=1.0, detuning=gp, dephasing=0.3
    )
    rho_ee2, rho_eg2 = steady_state(p2)
    assert rho_ee2 == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert rho_eg2 == pytest.approx(1j * np.sqrt(gp) / (2.0 * gp) * (1.0 + 1j) / 3.0, rel=1e-12)

    # hard drive saturates the excited population at one half
    sat, _ = steady_state(TwoLevelParams(omega_rabi=1e4, decay=1.0))
    assert sat == pytest.approx(0.5, abs=1e-6)

    with pytest.raises(NoSteadyStateError):
        steady_state(TwoLevelParams(omega_rabi=1.0, decay=0.0))


def test_steady_state_matches_long_propagation():
    rng = np.random.default_rng(41)
    rho0 = DensityOperator.pure(0, dim=2)
    for _ in range(6):
        p = TwoLevelParams(
            omega_rabi=float(rng.uniform(0.3, 3.0)),
            decay=float(rng.uniform(0.5, 2.0)),
            detuning=float(rng.uniform(-1.5, 1.5)),
            dephasing=float(rng.uniform(0.0, 1.0)),
        )
        t_end = 50.0 / p.decay
        res = propagate(
            drive_hamiltonian(p, on=True), collapse_channels(p), rho0, [0.0, t_end]
        )
        rho_ee, rho_eg = steady_state(p)
        final = res[-1].matrix
        assert final[1, 1].real == pytest.approx(rho_ee, abs=1e-6)
        assert final[1, 0] == pytest.approx(rho_eg, abs=1e-6)


def test_drive_hamiltonian_and_channels():
    p = TwoLevelParams(omega_rabi=2.0, decay=1.0, detuning=0.7, dephasing=0.4)
    h_on = drive_hamiltonian(p, on=True)
    np.testing.assert_allclose(h_on, [[0.0, -1.0], [-1.0, -0.7]], atol=1e-15)
    h_off = drive_hamiltonian(p, on=False)
    np.testing.assert_allclose(h_off, [[0.0, 0.0], [0.0, -0.7]], atol=1e-15)

    chans = collapse_channels(p)
    assert len(chans) == 2
    np.testing.assert_allclose(chans[0].operator, [[0.0, 1.0], [0.0, 0.0]])
    assert chans[0].rate == 1.0
    np.testing.assert_allclose(chans[1].operator, np.diag([1.0, -1.0]))
    assert chans[1].rate == 0.2
    assert collapse_channels(TwoLevelParams(omega_rabi=1.0, decay=0.0)) == []


def test_pulsed_halves_settle_and_decay():
    # strong hierarchy: the on half settles to the cw steady state, the
    # off half decays exponentially at the spontaneous rate
    p = TwoLevelParams(omega_rabi=2.0, decay=1.0, tau=50.0)
    spp = 128
    traj = simulate_pulsed_two_level(p, n_periods=3, samples_per_period=spp)
    rho_inf, _ = steady_state(p)

    end_on = traj.rho_ee[2 * spp + spp // 2 - 1]  # just before the last off edge
    assert end_on == pytest.approx(rho_inf, rel=0.01)

    # two decay times into the off half: ratio e^-2 against the sample
    # at the off edge
    k_edge = 2 * spp + spp // 2
    dt = p.tau / spp
    k_later = k_edge + int(round(2.0 / dt))
    expect = traj.rho_ee[k_edge] * np.exp(-(traj.times[k_later] - traj.times[k_edge]))
    assert traj.rho_ee[k_later] == pytest.approx(expect, rel=0.01)

    assert traj.diagnostics.max_step_trace_drift < 1e-9
    # the grid is the period fractions, bit for bit, and the end point
    grid = [(k + j / spp) * p.tau for k in range(3) for j in range(spp)] + [3 * p.tau]
    assert np.array_equal(traj.times, np.array(grid))


def test_pulsed_without_drive_stays_in_ground_state():
    with pytest.warns(HierarchyWarning):
        p = TwoLevelParams(omega_rabi=0.0, decay=1.0, tau=50.0)
    traj = simulate_pulsed_two_level(p, n_periods=2, samples_per_period=32)
    assert np.max(traj.rho_ee) == 0.0
    assert np.max(np.abs(traj.rho_eg)) == 0.0


def test_pulsed_oscillation_count_at_moderate_hierarchy():
    # drive 10x decay and only 5 decay times per period: the on half
    # shows damped optical oscillations, about omega tau_on / (2 pi)
    with pytest.warns(HierarchyWarning):
        p = TwoLevelParams(omega_rabi=10.0, decay=1.0, tau=5.0)
    spp = 256
    traj = simulate_pulsed_two_level(p, n_periods=2, samples_per_period=spp)
    on_half = traj.rho_ee[spp : spp + spp // 2]
    peaks = 0
    for i in range(1, on_half.size - 1):
        if on_half[i] > on_half[i - 1] and on_half[i] > on_half[i + 1]:
            if on_half[i] - min(on_half[i - 1], on_half[i + 1]) > 1e-6:
                peaks += 1
    expect = p.omega_rabi * (p.tau * p.duty) / TWO_PI  # about 4
    assert abs(peaks - expect) <= 1.0


def test_pulsed_validation():
    p = TwoLevelParams(omega_rabi=2.0, decay=1.0)
    with pytest.raises(ValueError, match="tau"):
        simulate_pulsed_two_level(p, 2, 32)
    p2 = TwoLevelParams(omega_rabi=2.0, decay=1.0, tau=50.0)
    with pytest.raises(ValueError, match="n_periods"):
        simulate_pulsed_two_level(p2, 0, 32)
    with pytest.raises(ValueError, match="samples_per_period"):
        simulate_pulsed_two_level(p2, 2, 1)


def test_last_period_slice_is_half_open():
    p = TwoLevelParams(omega_rabi=2.0, decay=1.0, tau=50.0)
    spp = 32
    traj = simulate_pulsed_two_level(p, n_periods=2, samples_per_period=spp)
    t, v = traj.last_period_slice(spp)
    assert t.size == spp
    assert t[0] == pytest.approx(p.tau)
    assert t[-1] == pytest.approx(2.0 * p.tau - p.tau / spp)
    np.testing.assert_allclose(v, traj.rho_ee[spp : 2 * spp])


def test_fourier_constant_and_single_harmonic():
    tau = 2.5
    t = np.arange(64) * (tau / 64)

    fs = fourier_coefficients(t, np.full(64, 0.7), n_max=5)
    assert fs.a0 == pytest.approx(1.4, rel=1e-12)
    np.testing.assert_allclose(fs.a[1:], 0.0, atol=1e-12)
    np.testing.assert_allclose(fs.b, 0.0, atol=1e-12)
    assert fs.n_max == 5

    # A cos(3 w t + phase) with a shifted time origin: the phase
    # reference is times[0]
    amp, phase = 0.8, 0.6
    t_shift = t + 13.0
    v = amp * np.cos(3.0 * TWO_PI / tau * (t_shift - t_shift[0]) + phase)
    fs = fourier_coefficients(t_shift, v, n_max=4)
    assert fs.a[3] == pytest.approx(amp * np.cos(phase), abs=1e-12)
    assert fs.b[3] == pytest.approx(-amp * np.sin(phase), abs=1e-12)
    others = np.concatenate([fs.a[:3], fs.a[4:], fs.b[:3], fs.b[4:]])
    np.testing.assert_allclose(others, 0.0, atol=1e-12)


def test_fourier_matches_the_per_harmonic_loop():
    # the phase-matrix form against a literal loop over harmonics, with the
    # same operations per harmonic: equal to the last bit
    rng = np.random.default_rng(5)
    for n, n_max in ((512, 6), (64, 31), (2, 0)):
        t = 3.0 + np.arange(n) * 0.0977
        v = rng.random(n) - 0.3
        fs = fourier_coefficients(t, v, n_max=n_max)
        tau, rel = n * float(np.diff(t)[0]), t - t[0]
        a, b = np.empty(n_max + 1), np.zeros(n_max + 1)
        a[0] = 2.0 * float(np.mean(v))
        for k in range(1, n_max + 1):
            w = TWO_PI * k / tau
            a[k] = 2.0 * float(np.mean(v * np.cos(w * rel)))
            b[k] = 2.0 * float(np.mean(v * np.sin(w * rel)))
        assert np.array_equal(fs.a, a) and np.array_equal(fs.b, b)


def test_fourier_square_wave():
    n, h = 512, 0.9
    tau = 1.0
    t = np.arange(n) * (tau / n)
    v = np.where(t < tau / 2.0, h, 0.0)
    fs = fourier_coefficients(t, v, n_max=6)
    assert fs.a0 == pytest.approx(h, rel=1e-12)
    # odd sine harmonics 2h/(pi n); discrete sampling shifts them by
    # O(1/N^2)
    assert fs.b[1] == pytest.approx(2.0 * h / np.pi, rel=1e-4)
    assert fs.b[3] == pytest.approx(2.0 * h / (3.0 * np.pi), rel=1e-3)
    np.testing.assert_allclose([fs.b[2], fs.b[4], fs.b[6]], 0.0, atol=1e-12)
    # cosine harmonics vanish up to the trapezoid edge term 2h/N
    assert fs.a[1] == pytest.approx(2.0 * h / n, rel=1e-9)


def test_fourier_validation():
    t = np.linspace(0.0, 1.0, 32, endpoint=False)
    v = np.sin(TWO_PI * t)
    with pytest.raises(ValueError, match="uniform"):
        fourier_coefficients(np.sqrt(np.arange(1, 33)), v, 3)
    with pytest.raises(ValueError, match="unresolvable"):
        fourier_coefficients(t, v, 16)
    with pytest.raises(ValueError, match="n_max"):
        fourier_coefficients(t, v, -1)
    with pytest.raises(ValueError, match="matching"):
        fourier_coefficients(t, v[:-1], 3)


def test_fourier_error_decreases_with_pulse_hierarchy():
    # slower pulsing (larger decay * tau) sharpens the square-wave
    # picture: the fundamental's deviation from 2 rho_inf / pi falls
    errors = []
    for gamma_tau in (10.0, 30.0, 90.0):
        p = TwoLevelParams(omega_rabi=3.0, decay=1.0, tau=gamma_tau)
        traj = simulate_pulsed_two_level(p, n_periods=5, samples_per_period=256)
        rho_inf, _ = steady_state(p)
        fs = fourier_coefficients(*traj.last_period_slice(256), n_max=3)
        errors.append(abs(fs.b[1] - 2.0 * rho_inf / np.pi) / (2.0 * rho_inf / np.pi))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.01


def test_q0_q1_square_wave_limits():
    qe = axial_nqi(TWO_PI * 1e3)
    pair = StatePairNqi(qg=NqiTensor(np.zeros((3, 3))), qe=qe)
    rho_inf = 25.0 / 54.0
    q0, q1 = q0_q1(pair, rho_inf)
    np.testing.assert_allclose(q0.matrix, (rho_inf / 2.0) * qe.matrix, rtol=1e-12)
    np.testing.assert_allclose(q1.matrix, (2.0 * rho_inf / np.pi) * qe.matrix, rtol=1e-12)
    # static offset above the ground tensor is pi/4 of the fundamental,
    # independent of the steady state
    np.testing.assert_allclose(
        q0.matrix - pair.qg.matrix, (np.pi / 4.0) * q1.matrix, rtol=1e-12
    )
    with pytest.raises(ValueError, match="physical range"):
        q0_q1(pair, 0.7)
    with pytest.raises(ValueError, match="physical range"):
        q0_q1(pair, -0.1)


def test_state_pair_frames_and_delta():
    qg = axial_nqi(1.0)
    qe = axial_nqi(3.0)
    pair = StatePairNqi(qg=qg, qe=qe)
    np.testing.assert_allclose(pair.delta.matrix, axial_nqi(2.0).matrix, rtol=1e-12)
    rot = oner.pair_in_b_frame(pair, 0.5)
    assert rot.frame == "B"
    with pytest.raises(ValueError, match="share one frame"):
        StatePairNqi(qg=qg, qe=NqiTensor(qe.matrix, frame="B"))


def test_state_pair_map_applies_to_each_present_tensor():
    pair = StatePairNqi(qg=axial_nqi(1.0), qe=axial_nqi(3.0))
    doubled = pair.map(lambda q: q.scaled(2.0))
    assert doubled.qeg is None
    np.testing.assert_array_equal(doubled.qe.matrix, 2.0 * pair.qe.matrix)
    full = StatePairNqi(pair.qg, pair.qe, axial_nqi(0.5)).map(lambda q: q.scaled(-1.0))
    np.testing.assert_array_equal(full.qeg.matrix, axial_nqi(-0.5).matrix)


def test_effective_nqi_series_blends_state_tensors():
    qg, qe = axial_nqi(2.0), axial_nqi(6.0)
    pair = StatePairNqi(qg=qg, qe=qe)
    times = np.array([0.0, 1.0, 2.0])
    rho_ee = np.array([0.0, 0.25, 0.5])
    traj = TwoLevelTrajectory(
        times=times, rho_ee=rho_ee, rho_eg=np.zeros(3, dtype=complex), diagnostics=None
    )
    series = effective_nqi_series(traj, pair)
    assert series.shape == (3, 3, 3) and not series.flags.writeable
    for k, p in enumerate(rho_ee):
        np.testing.assert_allclose(
            series[k], p * qe.matrix + (1.0 - p) * qg.matrix, rtol=1e-12
        )


def test_effective_nqi_coherence_term_averages_out_at_carrier():
    # a constant rotating-frame coherence times the optical phase factor
    # contributes nothing on average once the carrier is restored
    qeg = axial_nqi(4.0)
    pair = StatePairNqi(qg=axial_nqi(1.0), qe=axial_nqi(1.0), qeg=qeg)
    n = 20001
    times = np.linspace(0.0, 1.0, n)
    coh = np.full(n, 0.3 + 0.0j)
    traj = TwoLevelTrajectory(
        times=times, rho_ee=np.zeros(n), rho_eg=coh, diagnostics=None
    )
    carrier = TWO_PI * 500.0
    series = effective_nqi_series(traj, pair, carrier_omega=carrier)
    mean = series.mean(axis=0) - pair.qg.matrix
    assert np.max(np.abs(mean)) < 1e-3 * qeg.norm
    # without the carrier the term survives at full strength
    series_dc = effective_nqi_series(traj, pair)
    np.testing.assert_allclose(
        series_dc[0], pair.qg.matrix + 0.6 * qeg.matrix, rtol=1e-12
    )


CW = TwoLevelParams(omega_rabi=TWO_PI * 1e6, decay=TWO_PI * 4e5)


def axial_pair(qzz_rad: float) -> StatePairNqi:
    return StatePairNqi(qg=NqiTensor(np.zeros((3, 3))), qe=axial_nqi(qzz_rad))


def test_plan_amplitudes_follow_orientation():
    gamma_b0 = 33333.0
    nuc = nucleus_for(gamma_b0)
    qzz = TWO_PI * gamma_b0 / 30.0
    pair = axial_pair(qzz)
    rho_inf, _ = steady_state(CW)
    q1_scale = (2.0 * rho_inf / np.pi) * qzz

    # single-quantum branch: amplitude sqrt(3) * (3/4) Q1zz |sin 2 theta|
    thetas = np.linspace(0.1, 1.4, 7)
    for th in thetas:
        pl = plan(pair, nuc, 1.0, th, CW, (1.5, 0.5))
        expect = np.sqrt(3.0) * 0.75 * q1_scale * abs(np.sin(2.0 * th)) / TWO_PI
        assert pl.predicted_rabi_hz == pytest.approx(expect, rel=1e-10)
    # maximum sits at 45 degrees
    peak = plan(pair, nuc, 1.0, np.pi / 4.0, CW, (1.5, 0.5)).predicted_rabi_hz
    assert peak >= plan(pair, nuc, 1.0, 0.6, CW, (1.5, 0.5)).predicted_rabi_hz

    # two-quantum branch: amplitude (sqrt(3)/2) (3/2) Q1zz sin^2 theta
    for th in thetas:
        pl = plan(pair, nuc, 1.0, th, CW, (1.5, -0.5))
        expect = (np.sqrt(3.0) / 2.0) * 1.5 * q1_scale * np.sin(th) ** 2 / TWO_PI
        assert pl.predicted_rabi_hz == pytest.approx(expect, rel=1e-10)

    # repetition rate is the static-corrected transition energy
    pl = plan(pair, nuc, 1.0, 0.8, CW, (1.5, 0.5))
    spin = make_spin(3)
    expect_rep = abs(
        transition_energy(1.5, 0.5, nuc.gamma_hz_per_t, 1.0, pl.q0.qzz_hz, spin)
    )
    assert pl.repetition_rate_hz == pytest.approx(expect_rep, rel=1e-12)


def test_plan_zero_amplitude_paths():
    nuc = nucleus_for(33333.0)
    pair = axial_pair(TWO_PI * 1000.0)
    # aligned axial tensor: no off-diagonal components, single-quantum
    # drive impossible
    with pytest.raises(ZeroAmplitudeError, match="cannot be driven"):
        plan(pair, nuc, 1.0, 0.0, CW, (1.5, 0.5))
    pl = plan(pair, nuc, 1.0, 0.0, CW, (1.5, 0.5), allow_zero_amplitude=True)
    assert pl.predicted_rabi_hz == 0.0
    assert pl.repetition_rate_hz > 0.0

    # the straddling pair is forbidden at any orientation
    with pytest.raises(ZeroAmplitudeError):
        plan(pair, nuc, 1.0, 0.9, CW, (0.5, -0.5))

    # a biaxial tensor aligned with the field still drives the
    # two-quantum branch through its transverse anisotropy
    biax = StatePairNqi(
        qg=NqiTensor(np.zeros((3, 3))),
        qe=NqiTensor(TWO_PI * np.diag([800.0, -300.0, -500.0])),
    )
    pl2 = plan(biax, nuc, 1.0, 0.0, CW, (1.5, -0.5))
    assert pl2.predicted_rabi_hz > 0.0
    with pytest.raises(ZeroAmplitudeError):
        plan(biax, nuc, 1.0, 0.0, CW, (1.5, 0.5))


def test_plan_refuses_a_zero_repetition_rate():
    # at zero field a transition without a first-order quadrupole shift has
    # no energy; every consumer of a plan divides by its rate, so plan
    # refuses it whether or not the transition can be driven
    nuc = nucleus_for(33333.0)
    flat = StatePairNqi(qg=NqiTensor(np.zeros((3, 3))), qe=NqiTensor(np.zeros((3, 3))))
    xz = np.zeros((3, 3))
    xz[0, 2] = xz[2, 0] = TWO_PI * 50e3
    tilted = StatePairNqi(qg=NqiTensor(np.zeros((3, 3))), qe=NqiTensor(xz))
    assert transition_table(tilted, nuc, 0.0, 0.0, CW, [(1.5, 0.5)])[2][0, 0, 4] > 0.0
    with pytest.raises(ValueError, match="zero energy"):
        plan(flat, nuc, 0.0, 0.0, CW, (1.5, 0.5), allow_zero_amplitude=True)
    for allow in (False, True):
        with pytest.raises(ValueError, match="zero energy"):
            plan(tilted, nuc, 0.0, 0.0, CW, (1.5, 0.5), allow_zero_amplitude=allow)


def test_transition_table_rows_are_the_plans():
    # every allowed transition's row carries its plan's repetition rate
    # and Rabi frequency, forbidden ones included
    nuc = nucleus_for(33333.0)
    pair = axial_pair(TWO_PI * 1000.0)
    q0, q1, table = transition_table(pair, nuc, 1.0, 0.9, CW)
    assert q0.shape == q1.shape == (1, 3, 3) and table.shape == (1, 5, 5)
    rows = [tuple(r) for r in table[0].tolist()]
    assert [r[:2] for r in rows] == [
        (1.5, 0.5), (0.5, -0.5), (-0.5, -1.5), (1.5, -0.5), (0.5, -1.5)
    ]
    for m_from, m_to, zeeman, energy, rabi in rows:
        pl = plan(pair, nuc, 1.0, 0.9, CW, (m_from, m_to), allow_zero_amplitude=True)
        assert (energy, rabi) == (pl.repetition_rate_hz, pl.predicted_rabi_hz)
        assert zeeman == pytest.approx(33333.0 * abs(m_to - m_from), rel=1e-15)
        np.testing.assert_array_equal(pl.q0.matrix, q0[0])
        np.testing.assert_array_equal(pl.q1.matrix, q1[0])
    assert rows[1][4] == 0.0 and rows[0][4] > 0.0


def per_node_table(pair, nuc, b0, theta, rho_inf, transitions):
    """Q0, Q1 and rows at one orientation from rotate_about_x, q0_q1 and the scalar spin helpers."""
    spin = make_spin(nuc.two_I)
    pair_b = pair.map(lambda q: rotate_about_x(q, theta)) if pair.frame == "E" else pair
    q0, q1 = q0_q1(pair_b, rho_inf)
    gamma, rows = nuc.gamma_hz_per_t, []
    for m_from, m_to in transitions:
        energy = abs(transition_energy(m_from, m_to, gamma, b0, q0.qzz_hz, spin))
        g = abs(transition_amplitude(m_from, m_to, q1, spin))
        g = 0.0 if g <= oner.ZERO_AMPLITUDE_RTOL * max(q1.norm, 1e-300) else g
        rows.append([m_from, m_to, abs(gamma * b0 * (m_to - m_from)), energy, g / TWO_PI])
    return q0.matrix, q1.matrix, rows


@pytest.mark.parametrize("two_I", [2, 3, 7])
@pytest.mark.parametrize("frame", ["E", "B"])
def test_transition_table_over_orientations_is_the_per_node_table(frame, two_I):
    # one call over 50 seeded orientations equals 50 single-orientation
    # tables built tensor by tensor, bit for bit
    rng = np.random.default_rng(40 + two_I)

    def tensor():
        a = rng.normal(size=(3, 3))
        a = a + a.T
        return NqiTensor(TWO_PI * 1e3 * (a - np.eye(3) * np.trace(a) / 3.0), frame=frame)

    pair, nuc = StatePairNqi(qg=tensor(), qe=tensor()), nucleus_for(33333.0, two_I)
    thetas = rng.uniform(-np.pi, np.pi, 50)
    transitions = allowed_transitions(make_spin(two_I))
    rho_inf, _ = steady_state(CW)
    q0, q1, table = transition_table(pair, nuc, 0.7, thetas, CW)
    assert table.shape == (50, len(transitions), 5) and q0.shape == q1.shape == (50, 3, 3)
    assert len(transitions) == {2: 3, 3: 5, 7: 13}[two_I]
    for n, theta in enumerate(thetas):
        ref_q0, ref_q1, rows = per_node_table(pair, nuc, 0.7, theta, rho_inf, transitions)
        np.testing.assert_array_equal(q0[n], ref_q0)
        np.testing.assert_array_equal(q1[n], ref_q1)
        assert table[n].tolist() == rows


def test_transition_table_zeroes_each_orientation_against_its_own_q1():
    # just past 90 degrees the axial pair's single-quantum amplitude lies
    # under ZERO_AMPLITUDE_RTOL times that orientation's largest |Q1|
    # component but over it times the smaller one at 45 degrees, so only a
    # per-orientation threshold zeroes it; its neighbours drive the line
    nuc, pair = nucleus_for(33333.0), axial_pair(TWO_PI * 1000.0)
    rho_inf, _ = steady_state(CW)
    thetas = np.pi / 2.0 + np.array([-np.pi / 4.0, -0.01, 3.5e-10, 0.01])
    _, q1, table = transition_table(pair, nuc, 1.0, thetas, CW, [(1.5, 0.5)])
    top = oner.ZERO_AMPLITUDE_RTOL * np.abs(q1).max(axis=(1, 2))
    assert top[0] < abs(transition_amplitude(1.5, 0.5, q1[2], make_spin(3))) <= top[2]
    assert table[2, 0, 4] == 0.0 and np.all(table[[0, 1, 3], 0, 4] > 0.0)
    for n, theta in enumerate(thetas):
        assert table[n].tolist() == per_node_table(pair, nuc, 1.0, theta, rho_inf, [(1.5, 0.5)])[2]


def test_transition_table_refuses_bad_orientations_and_transitions():
    nuc, pair = nucleus_for(33333.0), axial_pair(TWO_PI * 1000.0)
    with pytest.raises(ValueError, match="NQI tensor has non-finite entries"):
        transition_table(pair, nuc, 1.0, [0.3, np.nan, 0.6], CW)
    with pytest.raises(ValueError, match="NQI tensor has non-finite entries"):
        transition_table(pair, nuc, 1.0, np.nan, CW)
    # a B-frame pair takes no turn, so its orientation is never read
    b_pair = StatePairNqi(*(NqiTensor(q.matrix, frame="B") for q in (pair.qg, pair.qe)))
    assert transition_table(b_pair, nuc, 1.0, np.nan, CW)[2].shape == (1, 5, 5)
    with pytest.raises(UnsupportedTransitionError, match=r"transition 1.5 -> -1.5 changes m by 3"):
        transition_table(pair, nuc, 1.0, [0.3, 0.6], CW, [(1.5, 0.5), (1.5, -1.5)])
    with pytest.raises(ValueError, match=r"m = 2.5 is not a level of a spin-1.5 system"):
        transition_table(pair, nuc, 1.0, 0.3, CW, [(2.5, 1.5)])


def test_plan_accepts_prerotated_pairs():
    nuc = nucleus_for(33333.0)
    theta = 0.7
    pair_e = axial_pair(TWO_PI * 1000.0)
    pair_b = oner.pair_in_b_frame(pair_e, theta)
    pl_e = plan(pair_e, nuc, 1.0, theta, CW, (1.5, 0.5))
    pl_b = plan(pair_b, nuc, 1.0, 0.0, CW, (1.5, 0.5))  # theta ignored for B frame
    assert pl_b.repetition_rate_hz == pytest.approx(pl_e.repetition_rate_hz, rel=1e-12)
    assert pl_b.predicted_rabi_hz == pytest.approx(pl_e.predicted_rabi_hz, rel=1e-12)

    odd = StatePairNqi(
        qg=NqiTensor(np.zeros((3, 3)), frame="X"), qe=NqiTensor(np.zeros((3, 3)), frame="X")
    )
    with pytest.raises(ValueError, match="frame"):
        plan(odd, nuc, 1.0, 0.0, CW, (1.5, 0.5))


def test_detuned_shifts_only_the_rate():
    nuc = nucleus_for(33333.0)
    pl = plan(axial_pair(TWO_PI * 1000.0), nuc, 1.0, 0.6, CW, (1.5, 0.5))
    off = detuned(pl, 250.0)
    assert off.repetition_rate_hz == pytest.approx(pl.repetition_rate_hz + 250.0)
    assert off.predicted_rabi_hz == pl.predicted_rabi_hz
    np.testing.assert_array_equal(off.q1.matrix, pl.q1.matrix)


def test_plan_refuses_a_rate_that_is_not_finite_and_positive():
    # every simulator divides by the rate, so each way of making a plan
    # checks it: detuned to zero or below, a direct OnerPlan, replace
    pl = plan(axial_pair(TWO_PI * 1000.0), nucleus_for(33333.0), 1.0, 0.6, CW, (1.5, 0.5))
    for offset in (-pl.repetition_rate_hz, -2.0 * pl.repetition_rate_hz):
        with pytest.raises(ValueError, match="transition 1.5 -> 0.5 has repetition rate"):
            detuned(pl, offset)
    with pytest.raises(ValueError, match="repetition rate nan Hz"):
        OnerPlan(pl.q0, pl.q1, pl.transition, float("nan"), pl.predicted_rabi_hz, CW)
    with pytest.raises(ValueError, match="repetition rate inf Hz"):
        replace(pl, repetition_rate_hz=float("inf"))
    assert pl.period_s == 1.0 / pl.repetition_rate_hz


@pytest.mark.parametrize("scale", [1e-6, 1e-4])
def test_a_difference_far_below_qg_plans_and_runs(scale):
    # a seeded random B-frame Qg of scale 2 pi 1e6 rad/s and Qe = Qg plus a
    # traceless difference of scale 2 pi scale: the difference's trace is
    # rounding at Qg's scale, which it is projected free of, so plan takes
    # the pair, Q1 is (2 rho_inf / pi) times the difference, and the spin
    # run under it keeps its populations
    rng = np.random.default_rng(167)

    def traceless(size):
        a = rng.normal(size=(3, 3))
        a = (a + a.T) / 2.0
        a -= np.eye(3) * np.trace(a) / 3.0
        return size * a / np.max(np.abs(a))

    qg, dq = traceless(TWO_PI * 1e6), traceless(TWO_PI * scale)
    pair = StatePairNqi(qg=NqiTensor(qg, frame="B"), qe=NqiTensor(qg + dq, frame="B"))
    nuc = nucleus_for(33333.0)
    pl = plan(pair, nuc, 1.0, 0.0, CW, (1.5, 0.5), allow_zero_amplitude=True)
    rho_inf, _ = oner.steady_state(CW)
    rounding = 8 * np.finfo(float).eps * TWO_PI * 1e6
    np.testing.assert_allclose(pl.q1.matrix, (2.0 * rho_inf / np.pi) * dq, rtol=0.0, atol=rounding)
    traj = simulate_spin_effective(
        pl, pair, nuc, 1.0, 0.0, duration=2.0 / pl.repetition_rate_hz, n_samples=20
    )
    np.testing.assert_allclose(traj.populations.sum(axis=1), 1.0, atol=1e-9)


def effective_setup(theta=np.pi / 4.0):
    gamma_b0 = 33333.0
    nuc = nucleus_for(gamma_b0)
    pair = axial_pair(TWO_PI * gamma_b0 / 30.0)
    pl = plan(pair, nuc, 1.0, theta, CW, (1.5, 0.5))
    return nuc, pair, pl


def test_effective_resonant_transfer_and_fit():
    nuc, pair, pl = effective_setup()
    duration = 2.0 / pl.predicted_rabi_hz
    traj = simulate_spin_effective(pl, pair, nuc, 1.0, np.pi / 4.0, duration)
    p_dest = traj.population_of(0.5)
    assert p_dest.max() >= 0.95
    fit = fit_rabi(traj.times, p_dest, pl.predicted_rabi_hz)
    assert fit.oscillating
    assert fit.frequency_hz == pytest.approx(pl.predicted_rabi_hz, rel=0.10)
    # populations stay normalized and positive on the pure-state path
    np.testing.assert_allclose(traj.populations.sum(axis=1), 1.0, atol=1e-9)
    assert traj.diagnostics.min_eigenvalue >= -1e-12


def test_effective_detuned_drive_transfers_little():
    nuc, pair, pl = effective_setup()
    away = detuned(pl, 5.0 * pl.predicted_rabi_hz)
    duration = 2.0 / pl.predicted_rabi_hz
    traj = simulate_spin_effective(away, pair, nuc, 1.0, np.pi / 4.0, duration)
    assert traj.population_of(0.5).max() <= 0.3


def test_effective_zero_modulation_is_static():
    # identical tensors in both states: nothing is modulated, and with
    # the symmetry axis on the field the static Hamiltonian is diagonal,
    # so a level population cannot move at all
    gamma_b0 = 33333.0
    nuc = nucleus_for(gamma_b0)
    same = axial_nqi(TWO_PI * 500.0)
    pair = StatePairNqi(qg=same, qe=same)
    pl = plan(pair, nuc, 1.0, 0.0, CW, (1.5, 0.5), allow_zero_amplitude=True)
    traj = simulate_spin_effective(pl, pair, nuc, 1.0, 0.0, duration=0.01, n_samples=50)
    np.testing.assert_allclose(traj.population_of(1.5), 1.0, atol=1e-9)


def test_effective_dynamics_are_scale_covariant():
    # multiplying every frequency by 10 and dividing time by 10 is a
    # symmetry of the equations of motion
    def run(scale):
        gamma_b0 = 33333.0 * scale
        nuc = nucleus_for(gamma_b0)
        pair = axial_pair(TWO_PI * gamma_b0 / 30.0)
        params = TwoLevelParams(
            omega_rabi=CW.omega_rabi * scale, decay=CW.decay * scale
        )
        pl = plan(pair, nuc, 1.0, np.pi / 4.0, params, (1.5, 0.5))
        traj = simulate_spin_effective(
            pl, pair, nuc, 1.0, np.pi / 4.0, 1.0 / pl.predicted_rabi_hz, n_samples=80
        )
        return traj.populations

    np.testing.assert_allclose(run(1.0), run(10.0), atol=1e-9)


def test_effective_plan_pair_consistency_guard():
    nuc, pair, pl = effective_setup()
    # same modulation depth but a shifted ground tensor breaks the
    # static-offset identity
    shifted = StatePairNqi(
        qg=axial_nqi(TWO_PI * 300.0),
        qe=axial_nqi(TWO_PI * 300.0 + pair.delta.matrix[2, 2]),
    )
    with pytest.raises(ValueError, match="inconsistent"):
        simulate_spin_effective(pl, shifted, nuc, 1.0, np.pi / 4.0, 0.001)
    # a differently shaped modulation tensor breaks proportionality
    skew = StatePairNqi(
        qg=NqiTensor(np.zeros((3, 3))),
        qe=NqiTensor(TWO_PI * np.diag([800.0, -300.0, -500.0])),
    )
    with pytest.raises(ValueError, match="plan.q1 inconsistent"):
        simulate_spin_effective(pl, skew, nuc, 1.0, np.pi / 4.0, 0.001)
    with pytest.raises(ValueError, match="duration"):
        simulate_spin_effective(pl, pair, nuc, 1.0, np.pi / 4.0, 0.0)


@pytest.mark.parametrize("scale_khz", [1e150, 1e300])
def test_plan_check_refuses_another_pair_at_extreme_scale(scale_khz):
    # the check forms Q0 and Q1 again and compares them, with no product of
    # tensor components to overflow: at either scale both runs refuse a plan
    # of a differently shaped pair, and a plan of the pair itself runs
    nuc = nucleus_for(33333.0)
    axial, skew = (
        StatePairNqi(qg=NqiTensor(np.zeros((3, 3))), qe=NqiTensor.from_khz(scale_khz * np.diag(d)))
        for d in ([-0.5, -0.5, 1.0], [0.8, -0.3, -0.5])
    )
    pl = plan(axial, nuc, 1.0, np.pi / 4.0, CW, (1.5, 0.5))
    duration = 2.0 * pl.period_s
    runs = (
        lambda pair: simulate_spin_effective(pl, pair, nuc, 1.0, np.pi / 4.0, duration, n_samples=8),
        lambda pair: simulate_coupled(
            pair, nuc, 1.0, np.pi / 4.0, CW, (1.5, 0.5), duration, plan_=pl, n_samples=8
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", HierarchyWarning)  # CW is slow beside such a period
        for run in runs:
            with pytest.raises(ValueError, match="plan.q1 inconsistent"):
                run(skew)
            traj = run(axial)
            assert np.all(np.isfinite(traj.population_of(0.5)))


def test_the_effective_model_refuses_a_duty_other_than_one_half():
    # Q0 and Q1 model a duty-1/2 square wave: the table, and so the plan,
    # refuse any other duty; a plan keeps its drive through detuned
    nuc, pair = nucleus_for(33333.0), axial_pair(TWO_PI * 1000.0)
    off = replace(CW, duty=0.3)
    with pytest.raises(ValueError, match="duty 0.3"):
        plan(pair, nuc, 1.0, 0.6, off, (1.5, 0.5))
    with pytest.raises(ValueError, match="duty 0.3"):
        transition_table(pair, nuc, 1.0, [0.3, 0.6], off)
    pl = plan(pair, nuc, 1.0, 0.6, CW, (1.5, 0.5))
    assert pl.params is CW and detuned(pl, 1.0).params is CW


def test_coupled_refuses_a_plan_of_another_drive():
    # a plan for a 1 MHz drive run at 0.3 MHz would pulse one drive against
    # the other's tensors; a drive that differs only in tau is the same drive,
    # as the plan sets the run's period
    nuc, pair, pl = effective_setup()
    run = lambda params: simulate_coupled(
        pair, nuc, 1.0, np.pi / 4.0, params, (1.5, 0.5), 2.0 * pl.period_s, plan_=pl, n_samples=8
    )
    with pytest.raises(ValueError, match="plan is for the drive"):
        run(replace(CW, omega_rabi=0.3 * CW.omega_rabi))
    np.testing.assert_array_equal(
        run(replace(CW, tau=1e-3)).spin_populations, run(CW).spin_populations
    )


def test_population_of_unknown_level():
    nuc, pair, pl = effective_setup()
    traj = simulate_spin_effective(pl, pair, nuc, 1.0, np.pi / 4.0, 0.0005, n_samples=10)
    with pytest.raises(ValueError, match="no level"):
        traj.population_of(0.7)


def test_coupled_static_spin_stays_put():
    # identical (zero) tensors in both electronic states: the optical
    # cycle runs but the spin, prepared in an eigenstate, never moves
    gamma_b0 = 33333.0
    nuc = nucleus_for(gamma_b0)
    pair = StatePairNqi(qg=NqiTensor(np.zeros((3, 3))), qe=NqiTensor(np.zeros((3, 3))))
    tau = 1.0 / gamma_b0
    pl = plan(pair, nuc, 1.0, 0.0, CW, (1.5, 0.5), allow_zero_amplitude=True)
    traj = simulate_coupled(
        pair, nuc, 1.0, 0.0, CW, (1.5, 0.5), duration=20.0 * tau, plan_=pl, n_samples=40
    )
    np.testing.assert_allclose(traj.population_of(1.5), 1.0, atol=1e-9)
    # the electronic factor relaxes into its pulsed cycle
    assert 0.0 < traj.rho_ee[-1] < 0.5
    assert traj.plan.predicted_rabi_hz == 0.0


def test_coupled_hierarchy_warning_names_the_simulator():
    # the weak-hierarchy warning of the run's pulse params points at
    # simulate_coupled, not at a line inside the dataclasses module
    nuc, pair, pl = effective_setup()
    weak = TwoLevelParams(omega_rabi=TWO_PI * 1e3, decay=TWO_PI * 4e5)
    with pytest.warns(HierarchyWarning) as record:
        simulate_coupled(
            pair, nuc, 1.0, np.pi / 4.0, weak, (1.5, 0.5), 2.0 / pl.repetition_rate_hz,
            n_samples=8,
        )
    names = {Path(w.filename).name for w in record if w.category is HierarchyWarning}
    assert names == {"oner.py"}, names


def test_coupled_takes_its_plan(monkeypatch):
    # a plan passed in is the run's plan: plan is not called again, the
    # run is the one it would have planned itself, and a plan of another
    # pair or transition is refused
    nuc, pair, pl = effective_setup()
    run = lambda **kw: simulate_coupled(
        pair, nuc, 1.0, np.pi / 4.0, CW, (1.5, 0.5), 20.0 / pl.repetition_rate_hz,
        n_samples=40, **kw,
    )
    ref = run()
    calls = []
    monkeypatch.setattr(oner, "plan", lambda *a, **kw: calls.append(a))
    traj = run(plan_=pl)
    assert calls == [] and traj.plan is pl
    np.testing.assert_array_equal(traj.spin_populations, ref.spin_populations)
    np.testing.assert_array_equal(traj.rho_ee, ref.rho_ee)
    shifted = StatePairNqi(qg=axial_nqi(TWO_PI * 300.0), qe=axial_nqi(TWO_PI * 300.0))
    with pytest.raises(ValueError, match="inconsistent"):
        simulate_coupled(shifted, nuc, 1.0, np.pi / 4.0, CW, (1.5, 0.5), 0.001, plan_=pl)
    with pytest.raises(ValueError, match="plan is for transition"):
        simulate_coupled(pair, nuc, 1.0, np.pi / 4.0, CW, (0.5, -0.5), 0.001, plan_=pl)


def test_pulse_train_setup_takes_the_rate_once(monkeypatch):
    # propagate takes total_rate once for both pieces, and nothing in
    # oner re-derives the step scale: the pulsed and the coupled run
    # take the rate once and each norm only where propagate needs it
    calls = {"total_rate": 0, "norm": 0}

    def counting(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    monkeypatch.setattr(oner.qdyn, "total_rate", counting("total_rate", oner.qdyn.total_rate))
    monkeypatch.setattr(oner.qdyn, "_hamiltonian_norm", counting("norm", oner.qdyn._hamiltonian_norm))
    params = TwoLevelParams(omega_rabi=1.432, decay=1.0, dephasing=20.0, tau=50.0)
    simulate_pulsed_two_level(params, n_periods=2, samples_per_period=16)
    # one norm per channel (decay, dephasing) inside total_rate, one per piece
    assert calls == {"total_rate": 1, "norm": 2 + 2}
    calls.update(total_rate=0, norm=0)
    nuc, pair, pl = effective_setup()
    simulate_coupled(
        pair, nuc, 1.0, np.pi / 4.0, CW, (1.5, 0.5), 2.0 / pl.repetition_rate_hz,
        plan_=pl, n_samples=8,
    )
    # CW decays and does not dephase: one norm for its channel, one per piece
    assert calls == {"total_rate": 1, "norm": 1 + 2}


def test_fit_rabi_recovers_synthetic_frequency():
    # a few periods with a guess a few percent off, the intended regime
    t = np.linspace(0.0, 1.2, 300)
    p = 0.9 * np.sin(np.pi * 3.3 * t) ** 2 + 0.05
    fit = fit_rabi(t, p, frequency_guess_hz=3.2)
    assert fit.oscillating
    assert fit.frequency_hz == pytest.approx(3.3, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.9, rel=1e-6)
    assert fit.offset == pytest.approx(0.05, abs=1e-6)
    # peak reports the sampled maximum, limited by grid granularity
    assert fit.peak == pytest.approx(0.95, abs=1e-3)


def test_fit_rabi_flat_trace_sentinel():
    t = np.linspace(0.0, 2.0, 100)
    fit = fit_rabi(t, np.full(100, 0.25), frequency_guess_hz=3.0)
    assert not fit.oscillating
    assert np.isnan(fit.frequency_hz)
    assert fit.amplitude == 0.0
    assert fit.offset == pytest.approx(0.25)

    # a non-positive guess cannot seed the fit: same sentinel
    wob = 0.3 + 0.1 * np.sin(t)
    assert not fit_rabi(t, wob, frequency_guess_hz=0.0).oscillating
    with pytest.raises(ValueError, match="at least 8"):
        fit_rabi(t[:4], np.zeros(4), 1.0)
