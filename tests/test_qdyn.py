"""Tests for the density-matrix propagation layer.

Oracles: closed-form decay and Rabi solutions, a literal Lindblad
right-hand side with a literal stepwise RK4 (both defined here, apart
from the propagators' matrix form), run on the output grid or on a
period lattice, piece maps that correct the state after every piece
(defined here, apart from the propagators' correct-once-at-the-end
pass), and exact Kronecker / partial-trace index algebra on random
operators.
"""

from __future__ import annotations

import functools
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from onersim import oner, qdyn
from onersim.qdyn import (
    CollapseChannel,
    DensityOperator,
    DimensionMismatchError,
    IntegrationFailureError,
    PropagationDiagnostics,
    kron,
    liouvillian,
    partial_trace,
    propagate,
    propagate_modulated,
    total_rate,
)

SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def lindblad_rhs(h, channels, rho):
    """Literal master-equation right-hand side on a density matrix."""
    out = -1j * (h @ rho - rho @ h)
    for ch in channels:
        c = ch.operator
        cdc = c.conj().T @ c
        out = out + ch.rate * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
    return out


def stepwise_rk4(rhs, y0, t_grid, scale, max_step_phase=qdyn.DEFAULT_MAX_STEP_PHASE):
    """Literal fixed-step RK4 of dy/dt = rhs(t, y), one substep at a time.

    Each grid interval is cut into ceil(dt * scale / max_step_phase)
    equal substeps, the propagators' rule.  Returns the states at the
    grid points and the total substep count.
    """
    y = np.array(y0, dtype=complex)
    states, total = [y], 0
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        n = max(1, int(np.ceil((t1 - t0) * scale / max_step_phase)))
        h = (t1 - t0) / n
        for j in range(n):
            ta = t0 + j * h
            k1 = rhs(ta, y)
            k2 = rhs(ta + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(ta + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(ta + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
        total += n
    return states, total


def lattice_stepwise(rhss, lengths, scales, y0, n_periods, phase=qdyn.MAX_STEP_PHASE_LIMIT):
    """Literal stepwise RK4 over n_periods of a period lattice.

    Piece q of the period (length lengths[q], right-hand side rhss[q])
    is cut into ceil(length * scales[q] / phase) equal steps, each run
    as one stepwise_rk4 interval.  Returns lat[k][q][j], the state at
    lattice point j of piece q in period k, with the piece starts and
    step lengths.
    """
    starts = np.concatenate(([0.0], np.cumsum(lengths)))
    ns = [max(1, int(np.ceil(length * s / phase))) for length, s in zip(lengths, scales)]
    hs = [length / n for length, n in zip(lengths, ns)]
    lat, y = [], np.array(y0, dtype=complex)
    for k in range(n_periods):
        row = []
        for q, rhs in enumerate(rhss):
            grid = k * starts[-1] + starts[q] + np.arange(ns[q] + 1) * hs[q]
            states, _ = stepwise_rk4(rhs, y, grid, 0.0)
            row.append(states)
            y = states[-1]
        lat.append(row)
    return lat, starts, hs


def lattice_samples(rhss, lat, starts, hs, points):
    """Sample times, reference states and substep count for (k, q, j, frac) points.

    A point sits frac of a step past lattice point j of piece q in
    period k; off the lattice its state is one RK4 step of that length
    from the lattice state.  The step count is the lattice steps up to
    the last point plus one per point off the lattice.
    """
    times, states = [], []
    for k, q, j, frac in points:
        t_lat = k * starts[-1] + starts[q] + j * hs[q]
        if k == len(lat):  # t_end = n * T closes the last period
            t, y = k * starts[-1], lat[-1][-1][-1]
        elif frac:
            t = t_lat + frac * hs[q]
            y = stepwise_rk4(rhss[q], lat[k][q][j], [t_lat, t], 0.0)[0][-1]
        else:
            t, y = t_lat, lat[k][q][j]
        times.append(t)
        states.append(y)
    per_period = [len(row) - 1 for row in lat[0]]
    k, q, j, _ = points[-1]
    n_steps = k * sum(per_period) + sum(per_period[:q]) + j
    return np.array(times), states, n_steps + sum(1 for p in points if p[3])


def one_piece_points(t, h):
    """lattice_samples points of a grid t from 0 on the one piece, of step h, that spans it.

    A time within 1e-9 steps of a lattice point sits on it.
    """
    x = np.asarray(t[:-1]) / h
    j = np.round(x)
    on = np.abs(x - j) < 1e-9
    j[~on] = np.floor(x[~on])
    return [(0, 0, int(a), 0.0 if o else b - a) for a, b, o in zip(j, x, on)] + [(1, 0, 0, 0.0)]


class CorrectingMap:
    """A piece map that corrects the state it returns.

    A density matrix is re-hermitized and trace renormalized, a state
    vector normalized: the per-interval arithmetic the propagators ran
    before they chained raw maps and corrected once at the end.
    """

    def __init__(self, m, pure):
        self.m, self.pure = m, pure

    def __matmul__(self, v):
        v = self.m @ v
        if self.pure:
            return v / np.sqrt(np.vdot(v, v).real)
        d = int(round(np.sqrt(v.size)))
        mat = v.reshape(d, d)
        fixed = (mat + mat.conj().T) / 2.0
        return (fixed / np.real(np.trace(fixed))).reshape(-1)


def correct_after_every_piece(mp, pure):
    real = qdyn._piece_maps

    def correcting(piece, stops):
        full, advance = real(piece, stops)
        return CorrectingMap(full, pure), advance

    mp.setattr(qdyn, "_piece_maps", correcting)


def count_step_maps(mp):
    """Count the RK4 step maps the propagators build; returns a one-item list."""
    one, many, built = qdyn._Piece.step_map, qdyn._Piece.step_maps, [0]

    def counting_one(piece):
        built[0] += 1
        return one(piece)

    def counting_many(piece, j0, j1, coef):
        built[0] += j1 - j0
        return many(piece, j0, j1, coef)

    mp.setattr(qdyn._Piece, "step_map", counting_one)
    mp.setattr(qdyn._Piece, "step_maps", counting_many)
    return built


def poison_step_map(mp, bad, hit):
    """Put a non-finite entry in the step map of a constant piece whose start time hit accepts."""
    real = qdyn._Piece.step_map

    def poisoned(piece):
        step = real(piece)
        if hit(piece.t0):
            step[0, 0] = bad
        return step

    mp.setattr(qdyn._Piece, "step_map", poisoned)


def spectral_radius(h):
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + a.conj().T) / 2.0


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.real(np.trace(rho)))


def random_channel(rng, d):
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return CollapseChannel(op, float(rng.uniform(0.1, 1.5)))


def test_density_operator_validation():
    with pytest.raises(ValueError, match="hermitian"):
        DensityOperator([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityOperator([[1.5, 0.0], [0.0, -0.5]])
    # coherences of 1e308, where rho + rho+ would overflow before the check
    with pytest.raises(ValueError, match="eigenvalue .* below"):
        DensityOperator([[0.5, 1e308], [1e308, 0.5]])
    with pytest.raises(ValueError, match="square"):
        DensityOperator(np.ones((2, 3)))


def test_density_operator_constructors():
    ground = DensityOperator.pure(0, dim=3)
    assert ground.population(0) == 1.0
    assert ground.dim == 3

    plus = DensityOperator.pure([1.0, 1.0])
    np.testing.assert_allclose(plus.matrix, np.full((2, 2), 0.5), atol=1e-15)

    mixed = DensityOperator(np.eye(4) / 4)
    np.testing.assert_allclose(np.diag(mixed.matrix).real, np.full(4, 0.25), atol=1e-15)
    assert np.trace(mixed.matrix) == pytest.approx(1.0)

    with pytest.raises(ValueError, match="dim is required"):
        DensityOperator.pure(1)
    with pytest.raises(ValueError, match="zero state"):
        DensityOperator.pure([0.0, 0.0])
    # the norm is taken after an exact power-of-two scaling, so a vector at
    # 1e200 or 1e-300 is a state, and a non-finite entry is refused by name
    np.testing.assert_array_equal(DensityOperator.pure([1e200, 0.0]).matrix, ground.matrix[:2, :2])
    tilted = DensityOperator.pure([3e-300, 4e-300j])
    np.testing.assert_allclose(np.diag(tilted.matrix).real, [0.36, 0.64], rtol=1e-15)
    for bad in ([np.inf, 0.0], [np.nan, 0.0], [1.0, complex(0.0, -np.inf)]):
        with pytest.raises(ValueError, match="state vector has non-finite entries"):
            DensityOperator.pure(bad)


def test_pure_start_state_is_never_decomposed(monkeypatch):
    # DensityOperator.pure keeps the normalized vector and the hermitized
    # outer product the validating constructor would store, for an index
    # and for a vector, and takes no eigendecomposition; nor does a
    # channel-free run from it, which reads that vector
    rng = np.random.default_rng(59)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    vectors = [np.eye(3, dtype=complex)[1], psi / np.linalg.norm(psi)]
    stored = [DensityOperator(np.outer(u, u.conj())).matrix for u in vectors]
    assert DensityOperator(np.eye(3) / 3).vector is None

    def refuse(_):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    built = (DensityOperator.pure(1, dim=3), DensityOperator.pure(psi))
    for rho0, u, ref in zip(built, vectors, stored):
        assert rho0.matrix.tobytes() == ref.tobytes() and not rho0.matrix.flags.writeable
        assert np.array_equal(rho0.vector, u)
        np.testing.assert_allclose(rho0.matrix @ u, u, rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="non-finite"):
        DensityOperator.pure([np.nan, 1.0])  # refused before the norm, with no warning
    h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3, 0.5)
    monkeypatch.setattr(qdyn, "liouvillian", None)  # the vector path needs none
    res = propagate_modulated(h0, h1, np.sin, [], rho0, np.linspace(0.0, 3.0, 7), period=2 * np.pi)
    assert res.diagnostics.min_eigenvalue > -1e-12


def test_modulated_envelope_period_must_span_many_steps():
    # the step scale reads rho(h_static) + rho(h_drive) = 2 only, not how
    # fast the envelope turns: at max_step_phase = 0.05 a sine period of
    # 9 or fewer lattice steps fails the trace-drift check, 10 or more run
    rho0 = DensityOperator.pure(0, dim=2)

    def run(steps):
        period = steps * 0.05 / 2.0 * (1.0 - 1e-12)  # exactly `steps` steps
        envelope = lambda t: np.sin(2.0 * np.pi * t / period)
        t = np.linspace(0.0, 20.0 * period, 21)
        return propagate_modulated(
            np.diag([1.0, -1.0]), SIGMA_X, envelope, [], rho0, t, period=period,
            max_step_phase=0.05,
        )

    for steps in (4, 6, 8, 9):
        with pytest.raises(IntegrationFailureError, match="trace drifted"):
            run(steps)
    for steps in (10, 12, 20):
        res = run(steps)
        assert res.diagnostics.n_substeps == 20 * steps
        assert res.diagnostics.max_step_trace_drift <= qdyn.STEP_TRACE_DRIFT_LIMIT


def test_collapse_channel_rejects_negative_rate():
    with pytest.raises(ValueError, match="rate"):
        CollapseChannel(SIGMA, -1.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_collapse_channel_rejects_a_rate_that_is_not_finite(rate):
    with pytest.raises(ValueError, match="collapse rate must be finite and >= 0"):
        CollapseChannel(SIGMA, rate)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrices_are_refused_at_the_boundary(bad):
    # a density matrix, a collapse operator, a Hamiltonian and a drive
    # holding NaN or inf each raise ValueError naming them, before a step:
    # NaN passes every comparison the other checks make
    m = np.eye(2, dtype=complex) / 2.0
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="density matrix must hold finite entries only"):
        DensityOperator(m)
    with pytest.raises(ValueError, match="collapse operator must hold finite entries only"):
        CollapseChannel(np.where(SIGMA != 0, bad, 0.0), 1.0)
    rho0, h = DensityOperator(np.eye(2) / 2), np.diag([bad, 0.0])
    with pytest.raises(ValueError, match="hamiltonian must hold finite entries only"):
        propagate(h, [], rho0, [0.0, 1.0])
    with pytest.raises(ValueError, match="h_drive must hold finite entries only"):
        propagate_modulated(SIGMA_X, h, np.sin, [], rho0, [0.0, 1.0])


def test_a_piece_of_2_to_the_63_steps_or_more_is_refused():
    # 1e20 rad/s over one time unit at the phase limit is 2e21 steps, past
    # what int64 counts: the run stops before it, naming the count
    with pytest.raises(IntegrationFailureError, match=r"2\.000e\+21 RK4 steps, 2\^63 or more"):
        propagate(1e20 * SIGMA_X, [], DensityOperator.pure(0, dim=2), [0.0, 1.0],
                  max_step_phase=qdyn.MAX_STEP_PHASE_LIMIT)


def test_both_propagators_refuse_a_non_hermitian_hamiltonian():
    # every run's Hamiltonians and drive must be hermitian to 1e-12 of their
    # largest entry: a skew one is refused by name with its residual, and a
    # rounding-level asymmetry still runs
    rho0 = DensityOperator.pure(0, dim=2)
    sym, skew = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])
    runs = {
        "hamiltonian": (
            lambda: propagate(skew, [], rho0, [0.0, 1.0]),
            lambda: propagate(None, [], rho0, [0.0, 1.0], period=[(0.5, sym), (0.5, skew)]),
            lambda: propagate_modulated(skew, sym, np.sin, [], rho0, [0.0, 1.0]),
        ),
        "h_drive": (lambda: propagate_modulated(sym, skew, np.sin, [], rho0, [0.0, 1.0]),),
    }
    for name, calls in runs.items():
        for run in calls:
            with pytest.raises(ValueError, match=rf"^{name} is not hermitian: .* = 1\.000e\+00$"):
                run()
    near = sym + np.array([[0.0, 1e-13], [0.0, 0.0]])
    assert propagate(near, [], rho0, [0.0, 1.0]).diagnostics.n_substeps > 0
    propagate_modulated(sym, near, np.sin, [CollapseChannel(skew, 1.0)], rho0, [0.0, 1.0])


def test_total_rate_sums_channel_scales():
    channels = [CollapseChannel(SIGMA, 2.0), CollapseChannel(np.diag([1.0, -1.0]), 3.0)]
    assert total_rate(channels) == pytest.approx(5.0)
    assert total_rate([]) == 0.0
    # c = ones((3, 3)) gives c+c = 3 ones((3, 3)): its largest entry is 3,
    # its spectral radius 9, which bounds the rate the step must resolve
    assert total_rate([CollapseChannel(np.ones((3, 3)), 2.0)]) == pytest.approx(18.0, rel=1e-12)


def test_liouvillian_matches_direct_rhs():
    # the vectorized generator and the literal right-hand side are the
    # same linear map; check on random operators in several dimensions
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        h = random_hermitian(rng, d, scale=3.0)
        channels = [random_channel(rng, d) for _ in range(2)]
        rho = random_density(rng, d)
        direct = lindblad_rhs(h, channels, rho.matrix)
        lv = liouvillian(h, channels)
        vec = lv @ rho.matrix.reshape(-1)
        np.testing.assert_allclose(vec.reshape(d, d), direct, atol=1e-12 * max(1.0, float(np.max(np.abs(direct)))))
        # and the same matrix, bit for bit, as the sum of np.kron terms
        eye = np.eye(d, dtype=complex)
        ref = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for ch in channels:
            c, cdc = ch.operator, ch.operator.conj().T @ ch.operator
            ref += ch.rate * (np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T)))
        assert np.array_equal(lv, ref)


def test_lindblad_rhs_is_traceless_and_hermiticity_preserving():
    # the generator's image of a state is a traceless hermitian matrix,
    # as the literal right-hand side is
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        h = random_hermitian(rng, d)
        channels = [random_channel(rng, d)]
        rho = random_density(rng, d).matrix
        out = (liouvillian(h, channels) @ rho.reshape(-1)).reshape(d, d)
        np.testing.assert_allclose(out, lindblad_rhs(h, channels, rho), atol=1e-13)
        assert abs(np.trace(out)) < 1e-13
        assert np.max(np.abs(out - out.conj().T)) < 1e-13


def test_pure_decay_matches_closed_form():
    # |+><+| under decay alone: excited population e^{-G t}/2, coherence
    # e^{-G t / 2}/2
    g = 1.3
    rho0 = DensityOperator.pure([1.0, 1.0])
    t = np.linspace(0.0, 3.0, 13)
    res = propagate(np.zeros((2, 2)), [CollapseChannel(SIGMA, g)], rho0, t)
    p_e = res.populations()[:, 1]
    coh = res.matrices[:, 0, 1]
    np.testing.assert_allclose(p_e, 0.5 * np.exp(-g * t), atol=1e-9)
    np.testing.assert_allclose(coh, 0.5 * np.exp(-g * t / 2.0), atol=1e-9)


def test_resonant_unitary_rabi_oscillation():
    om = 2.0
    h = -0.5 * om * SIGMA_X
    rho0 = DensityOperator.pure(0, dim=2)
    t = np.linspace(0.0, 3.0 * 2.0 * np.pi / om, 25)
    res = propagate(h, [], rho0, t)
    np.testing.assert_allclose(res.populations()[:, 1], np.sin(om * t / 2.0) ** 2, atol=1e-8)


def test_propagation_preserves_state_validity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        h = random_hermitian(rng, d, scale=2.0)
        channels = [random_channel(rng, d)]
        rho0 = random_density(rng, d)
        res = propagate(h, channels, rho0, np.linspace(0.0, 4.0, 9))
        for m in res.matrices:
            assert abs(np.trace(m) - 1.0) < 1e-12
            assert np.max(np.abs(m - m.conj().T)) == 0.0
            assert np.linalg.eigvalsh(m)[0] > -1e-10
        assert res.diagnostics.max_step_trace_drift < 1e-9
        assert res.diagnostics.max_hermiticity_residual < 1e-10
        assert res.diagnostics.n_substeps > 0


def test_unitary_propagation_preserves_purity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        h = random_hermitian(rng, d, scale=2.0)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        res = propagate(h, [], DensityOperator.pure(vec), np.linspace(0.0, 5.0, 6))
        for s in res:
            purity = float(np.real(np.trace(s.matrix @ s.matrix)))
            assert abs(purity - 1.0) < 1e-8


def test_rk4_convergence_is_fourth_order():
    # halving the step budget must shrink the closed-form error about
    # 16x; accept an estimated order of at least 3.5 on each rung
    g = 1.0
    rho0 = DensityOperator.pure([1.0, 1.0])
    errs = []
    for phase in (0.05, 0.025, 0.0125):
        res = propagate(
            np.zeros((2, 2)),
            [CollapseChannel(SIGMA, g)],
            rho0,
            [0.0, 2.0],
            max_step_phase=phase,
        )
        errs.append(abs(float(res[-1].matrix[1, 1].real) - 0.5 * np.exp(-2.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.5)


def test_constant_and_callable_paths_agree():
    # powering the one-step map must reproduce literal stepwise RK4 on the
    # one piece that spans the grid
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 3, scale=2.0)
    channels = [random_channel(rng, 3)]
    rho0 = random_density(rng, 3)
    t = np.linspace(0.0, 2.0, 7)
    ra = propagate(h, channels, rho0, t)
    scale = max(total_rate(channels), spectral_radius(h))
    rhss = [lambda _t, r: lindblad_rhs(h, channels, r)]
    phase = qdyn.DEFAULT_MAX_STEP_PHASE
    lat, starts, hs = lattice_stepwise(rhss, [2.0], [scale], rho0.matrix, 1, phase)
    t_ref, ref, n_ref = lattice_samples(rhss, lat, starts, hs, one_piece_points(t, hs[0]))
    np.testing.assert_allclose(t_ref, t, rtol=0.0, atol=1e-14)
    for sa, sb in zip(ra.matrices, ref):
        np.testing.assert_allclose(sa, sb, atol=1e-9)
    assert ra.diagnostics.n_substeps == n_ref


def test_modulated_pure_state_path_matches_matrix_path():
    rng = np.random.default_rng(5)
    h0 = random_hermitian(rng, 3, scale=1.5)
    h1 = random_hermitian(rng, 3, scale=0.8)
    env = lambda tt: np.sin(3.0 * tt)
    vec = rng.normal(size=3) + 1j * rng.normal(size=3)
    rho0 = DensityOperator.pure(vec)
    t = np.linspace(0.0, 2.0, 9)
    ra = propagate_modulated(h0, h1, env, [], rho0, t)
    scale = spectral_radius(h0) + spectral_radius(h1)
    rhss = [lambda tt, r: lindblad_rhs(h0 + env(tt) * h1, [], r)]
    phase = qdyn.DEFAULT_MAX_STEP_PHASE
    lat, starts, hs = lattice_stepwise(rhss, [2.0], [scale], rho0.matrix, 1, phase)
    t_ref, ref, n_ref = lattice_samples(rhss, lat, starts, hs, one_piece_points(t, hs[0]))
    np.testing.assert_allclose(t_ref, t, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(
        ra.populations(), np.array([np.real(np.diag(r)) for r in ref]), atol=1e-8
    )
    assert ra.diagnostics.n_substeps == n_ref
    # outer products of state vectors are positive by construction
    assert ra.diagnostics.min_eigenvalue >= -1e-12


def test_modulated_mixed_state_matches_callable_path():
    rng = np.random.default_rng(9)
    h0 = random_hermitian(rng, 3, scale=1.5)
    h1 = random_hermitian(rng, 3, scale=0.8)
    env = lambda tt: np.cos(2.0 * tt)
    rho0 = DensityOperator(np.eye(3) / 3)
    t = np.linspace(0.0, 1.5, 7)
    ra = propagate_modulated(h0, h1, env, [], rho0, t)
    scale = spectral_radius(h0) + spectral_radius(h1)
    ref, n_ref = stepwise_rk4(
        lambda tt, r: lindblad_rhs(h0 + env(tt) * h1, [], r), rho0.matrix, t, scale
    )
    for sa, sb in zip(ra.matrices, ref):
        np.testing.assert_allclose(sa, sb, atol=1e-8)
    assert ra.diagnostics.n_substeps == n_ref


# one run per propagator path, (H0, H1, channels, rho0, t) in, a result out
PURE_RULE_RUNS = {
    "constant": lambda h0, h1, ch, rho0, t: propagate(h0, ch, rho0, t, max_step_phase=0.001),
    "period": lambda h0, h1, ch, rho0, t: propagate(
        None, ch, rho0, t, period=[(0.4, h0), (0.3, h1)], max_step_phase=0.001
    ),
    "modulated": lambda h0, h1, ch, rho0, t: propagate_modulated(
        h0, h1, lambda tt: np.sin(4.0 * tt), ch, rho0, t, period=0.5, max_step_phase=0.001
    ),
}


@pytest.mark.parametrize("kind", list(PURE_RULE_RUNS))
def test_channel_free_pure_states_run_as_vectors(kind, monkeypatch):
    # one rule for every propagator: a channel-free pure state builds no
    # Liouvillian and matches the vec(rho) path that a zero-rate channel
    # forces, with the same lattice; the two RK4 discretizations differ by
    # O(max_step_phase^5) per step, which the small phase budget keeps
    # below 1e-12.  A channel-free mixed state still takes the Liouvillian.
    rng = np.random.default_rng(83)
    h0, h1 = random_hermitian(rng, 3, 1.5), random_hermitian(rng, 3, 0.8)
    pure = DensityOperator.pure(rng.normal(size=3) + 1j * rng.normal(size=3))
    t = np.array([0.0, 0.13, 0.4, 0.55, 0.9, 1.2])
    real, calls = qdyn.liouvillian, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(qdyn, "liouvillian", counting)
    run = PURE_RULE_RUNS[kind]
    vec = run(h0, h1, [], pure, t)
    assert calls[0] == 0
    ref = run(h0, h1, [CollapseChannel(np.eye(3), 0.0)], pure, t)
    assert calls[0] > 0
    np.testing.assert_allclose(vec.matrices, ref.matrices, rtol=0.0, atol=1e-12)
    assert vec.diagnostics.n_substeps == ref.diagnostics.n_substeps
    calls[0] = 0
    run(h0, h1, [], random_density(rng, 3), t)
    assert calls[0] > 0


@pytest.mark.parametrize("pure", [True, False])
def test_modulated_interval_across_batches_matches_stepwise(pure, monkeypatch):
    # one interval of 45 substeps in batches of 16: the last batch (13
    # maps) leaves an unpaired map on three levels of the scan, which
    # must stay in time order
    rng = np.random.default_rng(23)
    h0 = random_hermitian(rng, 2, scale=1.0)
    h1 = random_hermitian(rng, 2, scale=0.5)
    env = lambda tt: np.sin(5.0 * tt)
    phase = qdyn.MAX_STEP_PHASE_LIMIT
    n_sub = 2 * 16 + 13
    if pure:
        # the pure-state path integrates the state vector under -iH(t)
        psi0 = np.array([1.0, 0.5j]) / np.sqrt(1.25)
        rho0, channels, dim = DensityOperator.pure(psi0), [], 2
        y0, rhs = psi0, lambda tt, y: -1j * (h0 + env(tt) * h1) @ y
    else:
        rho0, channels, dim = random_density(rng, 2), [CollapseChannel(SIGMA, 0.4)], 4
        y0, rhs = rho0.matrix, lambda tt, r: lindblad_rhs(h0 + env(tt) * h1, channels, r)
    # poly (12 complex maps) and its real forms sit beside each batch
    held, per_step = step_fit(dim)
    monkeypatch.setattr(qdyn, "BATCH_BYTES", held + 16 * per_step)
    scale = max(total_rate(channels), spectral_radius(h0) + spectral_radius(h1))
    t = [0.0, (n_sub - 0.5) * phase / scale]
    res = propagate_modulated(h0, h1, env, channels, rho0, t, max_step_phase=phase)
    ref, n_ref = stepwise_rk4(rhs, y0, t, scale, phase)
    if pure:
        ref[-1] = np.outer(ref[-1], ref[-1].conj()) / np.vdot(ref[-1], ref[-1]).real
    assert res.diagnostics.n_substeps == n_ref == n_sub
    np.testing.assert_allclose(res[-1].matrix, ref[-1], atol=1e-12)


def test_correcting_once_matches_the_per_interval_chain(monkeypatch):
    # criterion 2's eight-period pulse train, once as run and once with
    # the state corrected after every piece map of the period chain
    params = oner.TwoLevelParams(omega_rabi=1.432, decay=1.0, dephasing=20.0, tau=50.0)
    run = lambda: oner.simulate_pulsed_two_level(params, n_periods=8, samples_per_period=512)
    traj = run()
    with monkeypatch.context() as mp:
        correct_after_every_piece(mp, pure=False)
        ref = run()
    assert traj.rho_ee.shape == ref.rho_ee.shape == (8 * 512 + 1,)
    np.testing.assert_allclose(traj.rho_ee, ref.rho_ee, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(traj.rho_eg, ref.rho_eg, rtol=0.0, atol=1e-13)
    assert traj.diagnostics.n_substeps == ref.diagnostics.n_substeps

    # a pure-state modulated run over eight periods of its envelope, so
    # the chain corrects the state between periods
    rng = np.random.default_rng(31)
    h0 = random_hermitian(rng, 3, scale=1.5)
    h1 = random_hermitian(rng, 3, scale=0.8)
    env = lambda tt: np.sin(2.5 * tt)
    rho0 = DensityOperator.pure(rng.normal(size=3) + 1j * rng.normal(size=3))
    t = np.linspace(0.0, 20.0, 201)
    run = lambda: propagate_modulated(h0, h1, env, [], rho0, t, period=2.0 * np.pi / 2.5)
    res = run()
    with monkeypatch.context() as mp:
        correct_after_every_piece(mp, pure=True)
        ref = run()
    np.testing.assert_allclose(res.matrices, ref.matrices, rtol=0.0, atol=1e-13)
    assert res.diagnostics.n_substeps == ref.diagnostics.n_substeps


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_failing_interval_is_named(bad, monkeypatch):
    # the grid's intervals as one period of equal pieces: a non-finite
    # entry in the third piece's step map poisons that piece's map and
    # every later raw state (inf overflows into NaN on the way); the
    # end-of-run check must name that interval and leak no RuntimeWarning
    rng = np.random.default_rng(37)
    rho0 = random_density(rng, 2)
    t = np.array([0.0, 0.2, 0.4, 0.7, 0.8, 1.0])
    h = random_hermitian(rng, 2)
    period = [(0.2, h), (0.2, h), (0.3, h), (0.1, h), (0.2, h)]
    poison_step_map(monkeypatch, bad, lambda start: start == t[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationFailureError, match=r"over step \[0\.4, 0\.7\]"):
            propagate(None, [CollapseChannel(SIGMA, 0.5)], rho0, t, period=period)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_failing_period_piece_is_named(bad, monkeypatch):
    # the periodic twin: the drive-off piece's map is poisoned.  No sample
    # falls inside that piece in period 0 and period 1 holds none, so the
    # poison first shows at 2.2, reached through the chained piece map
    # and the period map
    rng = np.random.default_rng(41)
    h_on, h_off = random_hermitian(rng, 2, 2.0), random_hermitian(rng, 2, 0.5)
    t = np.array([0.0, 0.1, 0.3, 2.2, 2.5, 3.0])
    poison_step_map(monkeypatch, bad, lambda start: start == 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationFailureError, match=r"over step \[0\.3, 2\.2\]"):
            propagate(
                None, [CollapseChannel(SIGMA, 0.5)], random_density(rng, 2), t,
                period=[(0.4, h_on), (0.6, h_off)],
            )


def spy_gather(mp):
    """Record (stops, rows) of every _gather batch; returns the list."""
    real, calls = qdyn._gather, []

    def spying(v, k, j, batches, held):
        batches = list(batches)
        calls.extend((s.size, j.size) for s, _ in batches)
        return real(v, k, j, batches, held)

    mp.setattr(qdyn, "_gather", spying)
    return calls


def fit_calls(run):
    """(held, per_item) of each qdyn._fit call that run() makes, in order."""
    calls, real = [], qdyn._fit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qdyn, "_fit", lambda held, per: calls.append((held, per)) or real(held, per))
        run()
    return calls


def poly_fit(dim):
    """(held, per column) with which _Piece.poly of a dim x dim generator sizes its blocks."""
    a = np.zeros((dim, dim), dtype=complex)
    return fit_calls(lambda: qdyn._Piece(a, a, None, 0.0, 0.01, 1).poly)[0]


def step_fit(dim):
    """(held, per step) with which _prefixes sizes the first batch of a dim x dim piece."""
    a = np.zeros((dim, dim), dtype=complex)
    piece = qdyn._Piece(a, a, np.sin, 0.0, 0.01, 1)
    piece.coef
    return fit_calls(lambda: list(qdyn._prefixes(piece, np.array([1]), 0, False)))[0]


def pulse_setup():
    """Two constant pieces on the Liouvillian (16 and 11 steps at the phase limit)."""
    rng = np.random.default_rng(43)
    h_on = random_hermitian(rng, 2, 2.0) - 0.7 * SIGMA_X
    h_off = random_hermitian(rng, 2, 0.5)
    channels = [CollapseChannel(SIGMA, 0.6)]
    rho0 = random_density(rng, 2)
    lengths = [0.35, 0.65]
    scales = [max(total_rate(channels), spectral_radius(h)) for h in (h_on, h_off)]
    rhss = [lambda _t, r, h=h: lindblad_rhs(h, channels, r) for h in (h_on, h_off)]
    return rho0, channels, list(zip(lengths, (h_on, h_off))), rhss, lengths, scales


PULSE_POINTS = {
    # samples off the lattice, on an inner lattice point, on a period
    # boundary, just past it, and at t_end = 3 T; every stop its own row
    "mixed": (3, [
        (0, 0, 0, 0.0), (0, 0, 3, 0.37), (0, 1, 5, 0.5), (1, 0, 0, 0.0), (1, 0, 0, 0.25),
        (1, 1, 10, 0.8), (2, 1, 2, 0.0), (3, 0, 0, 0.0),
    ], []),
    # three stops per piece, each in all six periods: prefix tables at the
    # stops, applied to the six period states by one GEMM
    "shared": (6, [(0, 0, 0, 0.0)] + [
        (k, q, j, f) for k in range(6)
        for q, j, f in ((0, 2, 0.3), (0, 9, 0.0), (0, 15, 0.6), (1, 1, 0.5), (1, 4, 0.0),
                        (1, 9, 0.25))
    ] + [(6, 0, 0, 0.0)], [(3, 18), (3, 18)]),
    # one sample in each of 13 periods, cycling through three stops:
    # prefix tables gathered row by row
    "spread": (
        13, [(0, 0, 0, 0.0)] + [(k, 0, (2, 5, 9)[k % 3], 0.4) for k in range(13)], [(3, 13)]
    ),
    # every row its own stop: the powers act on the rows
    "own": (4, [(0, 0, 0, 0.0)] + [
        (k, q, j, 0.5) for k in range(4) for q, j in ((0, 1 + 3 * k), (1, 2 + 2 * k))
    ], []),
}


def test_pulse_lattice_matches_stepwise(monkeypatch):
    rho0, channels, period, rhss, lengths, scales = pulse_setup()
    for name, (n_periods, points, tables) in PULSE_POINTS.items():
        lat, starts, hs = lattice_stepwise(rhss, lengths, scales, rho0.matrix, n_periods)
        assert [len(piece) - 1 for piece in lat[0]] == [16, 11]
        t, ref, n_ref = lattice_samples(rhss, lat, starts, hs, points)
        with monkeypatch.context() as mp:
            calls = spy_gather(mp)
            phase = qdyn.MAX_STEP_PHASE_LIMIT
            res = propagate(None, channels, rho0, t, period=period, max_step_phase=phase)
        assert calls == tables, name
        np.testing.assert_allclose(res.matrices, np.array(ref), rtol=0.0, atol=1e-12, err_msg=name)
        assert res.diagnostics.n_substeps == n_ref, name


@pytest.mark.parametrize("kind", ["pulse", "sine"])
def test_period_gaps_match_stepwise(kind, monkeypatch):
    # samples 13 and 22 periods apart: the state crosses each gap by the
    # squared period maps of its set bits, from one ladder walk to 22
    points = [(0, 0, 0, 0.0), (0, 0, 3, 0.4), (1, 0, 5, 0.5), (15, 0, 2, 0.0), (15, 0, 7, 0.3)]
    points += [(38, 0, 1, 0.25), (40, 0, 0, 0.0)]
    walks, real = [], qdyn._ladder
    monkeypatch.setattr(qdyn, "_ladder", lambda step, top: walks.append(top) or real(step, top))
    if kind == "pulse":
        rho0, channels, period, rhss, lengths, scales = pulse_setup()
        lat, starts, hs = lattice_stepwise(rhss, lengths, scales, rho0.matrix, 40)
        t, ref, n_ref = lattice_samples(rhss, lat, starts, hs, points)
        phase = qdyn.MAX_STEP_PHASE_LIMIT
        res = propagate(None, channels, rho0, t, period=period, max_step_phase=phase)
    else:
        rng = np.random.default_rng(89)
        h0, h1 = random_hermitian(rng, 3, 1.0), random_hermitian(rng, 3, 0.5)
        env = lambda tt: np.sin(np.pi * tt)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 /= np.linalg.norm(psi0)
        rhs = lambda tt, y: -1j * (h0 + env(tt) * h1) @ y
        scale = spectral_radius(h0) + spectral_radius(h1)
        lat, starts, hs = lattice_stepwise([rhs], [2.0], [scale], psi0, 40)
        t, ref, n_ref = lattice_samples([rhs], lat, starts, hs, points)
        ref = [np.outer(y, y.conj()) / np.vdot(y, y).real for y in ref]
        res = propagate_modulated(
            h0, h1, env, [], DensityOperator.pure(psi0), t, period=2.0,
            max_step_phase=qdyn.MAX_STEP_PHASE_LIMIT,
        )
    np.testing.assert_allclose(res.matrices, np.array(ref), rtol=0.0, atol=1e-12)
    assert res.diagnostics.n_substeps == n_ref
    assert walks.count(22) == 1


@pytest.mark.parametrize(
    "states, batch, tables", [(10, 1 << 16, True), (70, 1 << 16, True), (70, 1 << 15, False)]
)
def test_constant_piece_tables_stay_within_the_batch_bound(states, batch, tables, monkeypatch):
    # a qutrit Liouvillian piece (9 x 9 maps), 7 stops and 70 rows: each
    # stop with its own remainder step, jittered by a few ulps per row and
    # taken by each row, reached in all ten periods (one GEMM on the ten
    # states), or each row in a period of its own (the rows gather their
    # tables, 89 KiB at once, so in chunks); in 32 KiB six stacks of the
    # tables do not fit, and the powers and the remainder act on the
    # rows.  The traced peak of advance, its output included,
    # stays within BATCH_BYTES.
    monkeypatch.setattr(qdyn, "BATCH_BYTES", batch)
    rng = np.random.default_rng(97)
    a0 = liouvillian(random_hermitian(rng, 3), [random_channel(rng, 3)])
    h = qdyn.MAX_STEP_PHASE_LIMIT / np.linalg.norm(a0, 2)
    piece = qdyn._Piece(a0, None, None, 0.0, h, 4000)
    stops = 301 * np.arange(1, 8)
    j = np.tile(stops, 10)
    dt = np.tile(rng.uniform(0.1 * h, 0.9 * h, size=7), 10)
    dt += rng.integers(-3, 4, size=70) * np.spacing(dt)
    k = np.arange(70) if states == 70 else np.repeat(np.arange(10), 7)
    v = rng.normal(size=(states, 9)) + 1j * rng.normal(size=(states, 9))
    assert 70 * 16 * 81 > qdyn.BATCH_BYTES
    calls = spy_gather(monkeypatch)
    _, advance = qdyn._piece_maps(piece, stops)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = advance(v, k, j, dt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert calls == ([(7, 70)] if tables else [])
    assert peak <= qdyn.BATCH_BYTES
    step, rhs = piece.step_map(), lambda _t, x: a0 @ x
    ref = np.array([
        stepwise_rk4(rhs, np.linalg.matrix_power(step, jj) @ v[kk], [0.0, d], 0.0)[0][-1]
        for jj, kk, d in zip(j, k, dt)
    ])
    np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


def test_constant_piece_tables_serve_rows_of_any_dt(monkeypatch):
    # a qubit Liouvillian piece (4 x 4 maps), 3 stops in 20 states, and
    # rows at each stop and at the piece start with dts drawn over the
    # whole step, far apart, not rounding jitter: _gather takes the three
    # tables, copies the rows that take no step, and every row then takes
    # one RK4 step of its own dt
    rng = np.random.default_rng(173)
    a0 = liouvillian(random_hermitian(rng, 2), [random_channel(rng, 2)])
    h = qdyn.MAX_STEP_PHASE_LIMIT / np.linalg.norm(a0, 2)
    piece = qdyn._Piece(a0, None, None, 0.0, h, 500)
    stops = np.array([3, 70, 311])
    j, k = np.tile(np.concatenate(([0], stops)), 5), np.arange(20)
    dt = rng.uniform(0.0, 0.99 * h, size=20)
    dt[0] = 0.0  # one row takes no step at all
    v = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
    calls = spy_gather(monkeypatch)
    _, advance = qdyn._piece_maps(piece, stops)
    y = advance(v, k, j, dt)
    assert calls == [(3, 20)]
    step = piece.step_map()
    ref = np.array([
        qdyn._rk4(a0, None, None, d, (np.linalg.matrix_power(step, jj) @ v[kk])[None])[0]
        for jj, kk, d in zip(j, k, dt)
    ])
    assert ref[0].tolist() == v[0].tolist()
    np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


def test_rows_of_a_large_constant_piece_walk_one_ladder_per_advance(monkeypatch):
    # a 192 x 192 generator: two of its powers outgrow BATCH_BYTES, so every
    # row of the rows regime is a chunk of its own.  The powers are built once
    # for the piece map and once per advance call, each acting on every chunk,
    # and the rows are matrix_power and one literal RK4 step of their dt
    dim = 192
    assert qdyn._fit(32 * dim * dim, 32 * dim + 24) == 0
    rng = np.random.default_rng(167)
    a0 = -1j * random_hermitian(rng, dim, 1.0)
    h = qdyn.MAX_STEP_PHASE_LIMIT / np.linalg.norm(a0, 2)
    piece = qdyn._Piece(a0, None, None, 0.0, h, 3000)
    j = np.array([0, 7, 300, 1025, 2999])
    k, dt = np.array([0, 1, 0, 2, 1]), rng.uniform(0.1 * h, 0.9 * h, size=j.size)
    v = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    walks, real = [], qdyn._ladder

    def spying(step, top):
        walks.append(int(top))
        return real(step, top)

    monkeypatch.setattr(qdyn, "_ladder", spying)
    _, advance = qdyn._piece_maps(piece, j[j > 0])
    assert walks == [piece.n]
    rows = [advance(v, k, j, dt), advance(v, k[::-1], j, dt)]
    assert walks == [piece.n, 2999, 2999]
    step, rhs = piece.step_map(), lambda _t, x: a0 @ x
    for y, kk in zip(rows, (k, k[::-1])):
        ref = np.array([
            stepwise_rk4(rhs, np.linalg.matrix_power(step, jj) @ v[q], [0.0, d], 0.0)[0][-1]
            for jj, q, d in zip(j, kk, dt)
        ])
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("period", [4.0, 2.0 * np.pi / 3.0], ids=["exact", "jittered"])
@pytest.mark.parametrize("d", [2, 3])
def test_recurring_phases_map_once(d, period, monkeypatch):
    # a two-piece Lindblad period sampled at the same six fractions of ten
    # periods: each constant piece maps its three lattice points once and
    # writes its rows from the tables, each row then stepped by its own dt.
    # At T = 4 every period repeats a point's dt exactly; times (k + f) T of
    # T = 2 pi / 3 put them a few ulps apart, and one table still serves
    # each point.  Against literal stepwise RK4
    rng = np.random.default_rng(139 + d)
    hs = [random_hermitian(rng, d, 1.5), random_hermitian(rng, d, 0.5)]
    channels = [random_channel(rng, d)]
    rho0 = random_density(rng, d)
    phase = qdyn.MAX_STEP_PHASE_LIMIT
    lengths = [0.4 * period, 0.6 * period]
    scales = [max(total_rate(channels), spectral_radius(h)) for h in hs]
    rhss = [lambda _t, r, h=h: lindblad_rhs(h, channels, r) for h in hs]
    lat, starts, steps = lattice_stepwise(rhss, lengths, scales, rho0.matrix, 10, phase)
    fractions = np.array([10, 32, 80, 120, 180, 240]) / 256.0
    t = np.concatenate(([0.0], np.add.outer(np.arange(10), fractions).ravel() * period))
    ref = [rho0.matrix]
    for tt in t[1:]:
        k, q = int(tt // period), int(tt % period >= lengths[0])
        j = int((tt - k * period - starts[q]) // steps[q])
        t_lat = k * period + starts[q] + j * steps[q]
        ref.append(stepwise_rk4(rhss[q], lat[k][q][j], [t_lat, tt], 0.0)[0][-1])
    pairs, real = [], qdyn._piece_maps

    def spying(piece, stops):
        full, advance = real(piece, stops)

        def spied(v, k, j, dt):
            pairs.append(len(set(zip(j.tolist(), dt.tolist()))))
            return advance(v, k, j, dt)

        return full, spied

    monkeypatch.setattr(qdyn, "_piece_maps", spying)
    calls = spy_gather(monkeypatch)
    res = propagate(None, channels, rho0, t, period=list(zip(lengths, hs)), max_step_phase=phase)
    assert calls == [(3, 30), (3, 30)]  # the tables path, in both pieces
    assert pairs == [3, 3] if period == 4.0 else max(pairs) > 3  # jittered dts share a table
    np.testing.assert_allclose(res.matrices, np.array(ref), rtol=0.0, atol=1e-12)
    ns = [len(piece) - 1 for piece in lat[0]]
    assert res.diagnostics.n_substeps == 9 * sum(ns) + ns[0] + j + 60
    # without room for the tables the powers act on the rows: the same to rounding
    monkeypatch.setattr(qdyn, "BATCH_BYTES", 4000)
    rows = propagate(None, channels, rho0, t, period=list(zip(lengths, hs)), max_step_phase=phase)
    assert calls == [(3, 30), (3, 30)]
    np.testing.assert_allclose(res.matrices, rows.matrices, rtol=0.0, atol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_record_scaling_matches_the_literal_division(dim):
    # _record halves and divides by the trace on the float view: on random
    # raw stacks of traces near 1.7 and off hermitian by rounding, the stored
    # states equal ((v + v+) / 2.0) / tr bit for bit
    rng = np.random.default_rng(149 + dim)
    a = rng.normal(size=(40, dim, dim)) + 1j * rng.normal(size=(40, dim, dim))
    v = a @ a.conj().swapaxes(1, 2) + dim * np.eye(dim)
    tr = np.einsum("kii->k", v).real[:, None, None]
    v *= 1.7 * (1.0 + 1e-9 * rng.normal(size=(40, 1, 1))) / tr
    v += 1e-13 * (rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape))
    rho0 = DensityOperator(np.eye(dim) / dim)
    res = qdyn._record(v.reshape(40, -1), 0, rho0, np.arange(40.0), False)
    vh = v.conj().swapaxes(1, 2)
    literal = ((v + vh) / 2.0) / np.einsum("kii->k", v).real[:, None, None]
    assert res.matrices[1:].tobytes() == literal[1:].tobytes()
    assert res.diagnostics.max_hermiticity_residual == np.abs(v - vh).max() > 0.0


def test_failure_messages_advise_no_option():
    # a trace drift and a negative eigenvalue each name their check, value
    # and interval or time, and no option: a caller of the CLI has no
    # max_step_phase, and a smaller one can make a stiff run drift more
    rho0 = DensityOperator(np.eye(2) / 2)
    t = np.array([0.0, 0.5, 1.25, 2.0])
    drifting = np.array([rho0.matrix] * 4)
    drifting[2] *= 1.5
    negative = np.array([rho0.matrix] * 4)
    negative[2] = np.diag([1.0 + 1e-6, -1e-6])
    for raw, wanted in ((drifting, r"trace drifted by 5\.000e-01 over step \[0\.5, 1\.25\]"),
                        (negative, r"t=1\.25 has eigenvalue -1\.000e-06")):
        with pytest.raises(IntegrationFailureError, match=wanted) as failure:
            qdyn._record(raw.reshape(4, -1), 0, rho0, t, False)
        assert "max_step_phase" not in str(failure.value)


@pytest.mark.parametrize("pure", [True, False])
def test_sine_period_lattice_matches_stepwise(pure, monkeypatch):
    # H0 + sin(2 pi t / T) H1 over four periods of one modulated piece,
    # on the state-vector path and on the Liouvillian path; the prefixes
    # reach scattered samples row by row, and three stops sampled in every
    # period by one GEMM on the four period states.  The Liouvillian's
    # 9 x 9 maps come in batches of 161 steps beside poly and its real
    # forms, so its stops fall in two, the piece end n = 246 in the second
    rng = np.random.default_rng(47)
    h0 = random_hermitian(rng, 3, scale=1.5)
    h1 = random_hermitian(rng, 3, scale=0.8)
    period = 2.0
    env = lambda tt: np.sin(2.0 * np.pi * tt / period)
    if pure:
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho0, channels = DensityOperator.pure(psi0), []
        y0, rhs = psi0 / np.linalg.norm(psi0), lambda tt, y: -1j * (h0 + env(tt) * h1) @ y
    else:
        rho0, channels = random_density(rng, 3), [CollapseChannel(np.diag([1.0, 0.0, -1.0]), 0.3)]
        y0, rhs = rho0.matrix, lambda tt, r: lindblad_rhs(h0 + env(tt) * h1, channels, r)
    scale = max(total_rate(channels), spectral_radius(h0) + spectral_radius(h1))
    lat, starts, hs = lattice_stepwise([rhs], [period], [scale], y0, 4)
    n = len(lat[0][0]) - 1
    scattered = [
        (0, 0, 0, 0.0), (0, 0, 7, 0.3), (0, 0, n - 1, 0.95), (1, 0, 0, 0.0), (1, 0, 40, 0.0),
        (2, 0, 0, 0.5), (2, 0, 7, 0.3), (3, 0, n // 2, 0.6), (4, 0, 0, 0.0),
    ]
    shared = [(0, 0, 0, 0.0)] + [
        (k, 0, j, f) for k in range(4) for j, f in ((7, 0.3), (40, 0.0), (n // 2, 0.6))
    ] + [(4, 0, 0, 0.0)]
    assert pure or qdyn._fit(*step_fit(9)) == 161 < n < 2 * 161
    split = lambda one, two: [one] if pure else two
    for points, batches in (
        (scattered, split((5, 6), [(3, 6), (2, 6)])), (shared, split((4, 12), [(3, 12), (1, 12)]))
    ):
        t, ref, n_ref = lattice_samples([rhs], lat, starts, hs, points)
        with monkeypatch.context() as mp:
            calls = spy_gather(mp)
            res = propagate_modulated(
                h0, h1, env, channels, rho0, t, period=period,
                max_step_phase=qdyn.MAX_STEP_PHASE_LIMIT,
            )
        assert calls == batches
        if pure:
            ref = [np.outer(y, y.conj()) / np.vdot(y, y).real for y in ref]
        np.testing.assert_allclose(res.matrices, np.array(ref), rtol=0.0, atol=1e-12)
        assert res.diagnostics.n_substeps == n_ref


def test_prefixes_beyond_the_batch_bound_are_built_again(monkeypatch):
    # a modulated Liouvillian period whose prefixes at the samples do not
    # fit in BATCH_BYTES: none is kept, and the piece's step maps (a few
    # per batch) are built again for the samples.  The 12 KiB bound holds
    # the step-map polynomial and one column of its build, but not the
    # prefixes at the 60 stops of 60 samples.
    rng = np.random.default_rng(53)
    h0, h1 = random_hermitian(rng, 2, 1.0), random_hermitian(rng, 2, 0.6)
    env = lambda tt: np.sin(np.pi * tt)
    channels = [CollapseChannel(SIGMA, 0.4)]
    rho0 = random_density(rng, 2)
    t = np.linspace(0.0, 5.5, 61)
    run = lambda: propagate_modulated(h0, h1, env, channels, rho0, t, period=2.0)
    with monkeypatch.context() as mp:
        built = count_step_maps(mp)
        ref = run()
    with monkeypatch.context() as mp:
        mp.setattr(qdyn, "BATCH_BYTES", 12 << 10)
        # _piece_maps's rule: kept if they fit in half the bound beside coef, poly and a step
        coef = 2 * 12 * 16 * 4 * 4
        assert 60 + 1 > qdyn._fit(qdyn._fit(0, 1) // 2 + 2 * coef, 16 * 4 * 4)
        rebuilt = count_step_maps(mp)
        res = run()
    assert rebuilt[0] > built[0]
    np.testing.assert_allclose(res.matrices, ref.matrices, rtol=0.0, atol=1e-13)
    assert res.diagnostics.n_substeps == ref.diagnostics.n_substeps


def spy_engine(mp, seen):
    """Add to seen the name of each engine branch a run takes."""
    piece_maps, gather, locate, gathered = qdyn._piece_maps, qdyn._gather, qdyn._locate, []

    def spying_piece_maps(piece, stops):
        full, advance = piece_maps(piece, stops)

        def spying_advance(v, k, j, dt):
            gathered.clear()
            y = advance(v, k, j, dt)
            if piece.a1 is None:  # a constant piece gathers its tables, not its rows
                seen.add("tables" if gathered else "rows")
                if gathered and gathered[1] < len(set(zip(j.tolist(), dt.tolist()))):
                    seen.add("merges")  # rows of different dt share one table
            else:
                seen.add("kept" if gathered[0] else "rewalked")
            return y

        return full, spying_advance

    def spying_gather(v, k, j, batches, held):
        gathered.append(isinstance(batches, list))
        batches = list(batches)
        gathered.extend(s.size for s, _ in batches)
        for s, q in batches:
            sel = np.count_nonzero((j >= s[0]) & (j <= s[-1]))
            if sel:  # _gather's rule: a GEMM row holds its output, two pairs, three indices
                out = j.size * v.itemsize * v.shape[1]
                fits = sel <= qdyn._fit(held + q.nbytes + 8 * sel, 48 * v.shape[1] + 24, out)
                seen.add("gemm" if s.size * v.shape[0] <= 2 * sel and fits else "per-row")
        return gather(v, k, j, batches, held)

    def spying_locate(t, bounds, h):
        k, i, j, dt = locate(t, bounds, h)
        k0, s = np.divmod(t - t[0], bounds[-1])
        # a sample put on a lattice point it is off by rounding (a period
        # start moved back to the end of the period before is not counted)
        on = (k == k0) & (dt == 0.0)
        if np.any(s[on] - bounds[i[on]] - j[on] * h[i[on]] != 0.0):
            seen.add("snaps")
        return k, i, j, dt

    def spying_reduce(fn, items, *start):
        if start:  # the period map, built only to cross periods without samples
            seen.add("squares")
        return functools.reduce(fn, items, *start)

    mp.setattr(qdyn, "_piece_maps", spying_piece_maps)
    mp.setattr(qdyn, "_gather", spying_gather)
    mp.setattr(qdyn, "_locate", spying_locate)
    mp.setattr(qdyn, "functools", types.SimpleNamespace(reduce=spying_reduce))


def fuzz_points(rng, pattern, ns, n_periods):
    """(k, q, j, frac, ulps) points of a layout: frac of a step past point j of piece q in period k.

    shared: three positions per piece in half the periods; spread: one of
    the three in each of those periods, in turn; dense: 80 % of the
    positions of one period.  A position is on its lattice point, off it
    by a frac it keeps in every period, or ulps from it, and a point off
    it moves by up to two ulps of its own.  Positions include first steps
    (j = 0) and piece and period starts, and the run ends within a few
    ulps of period n_periods.
    """
    periods = [0, *np.sort(rng.choice(np.arange(1, n_periods), n_periods // 2, replace=False))]
    if pattern == "dense":
        periods = [int(rng.integers(n_periods))]
    pos = [rng.choice(n, int(0.8 * n) if pattern == "dense" else 3, replace=False) for n in ns]
    keys = {
        (int(k), q, int(j))
        for c, k in enumerate(periods) for q, js in enumerate(pos)
        for j in (js[c % 3 : c % 3 + 1] if pattern == "spread" else js)
    } - {(0, 0, 0)}
    points, kinds = [(0, 0, 0, 0.0, 0)], {}
    for key in sorted(keys):
        if key[1:] not in kinds:  # on, off, or a few ulps from the lattice point
            kinds[key[1:]] = (int(rng.integers(3)), float(rng.uniform(0.05, 0.95)))
        kind, frac = kinds[key[1:]]
        ulps = rng.choice([-1, 1]) * rng.integers(1, 5) if kind == 2 else rng.integers(-2, 3) * kind
        points.append((*key, frac if kind == 1 else 0.0, int(ulps)))
    return points + [(n_periods, 0, 0, 0.0, int(rng.integers(-4, 5)))]


def fuzz_layout(rng, sine, d, pure, pattern):
    """A run of pieces on a random d-level system: propagator call, reference states and n_substeps."""
    phase = qdyn.MAX_STEP_PHASE_LIMIT
    channels = [] if pure else [random_channel(rng, d)]
    if pure:
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        rho0, y0 = DensityOperator.pure(psi0), psi0 / np.linalg.norm(psi0)
    else:
        rho0 = random_density(rng, d)
        y0 = rho0.matrix
    gen = (lambda h, y: -1j * h @ y) if pure else (lambda h, r: lindblad_rhs(h, channels, r))
    if sine:
        h0, h1 = random_hermitian(rng, d), random_hermitian(rng, d, 0.6)
        scales = [max(total_rate(channels), spectral_radius(h0) + spectral_radius(h1))]
    else:
        hs = [random_hermitian(rng, d, rng.uniform(0.3, 2.0)) for _ in range(rng.integers(1, 4))]
        scales = [max(total_rate(channels), spectral_radius(h)) for h in hs]
    # lengths half a step short of a whole number of steps, so both lattices
    # agree on n; a sine period of few steps turns the envelope too far per
    # step for the trace-drift guard
    low = (80 if pattern == "dense" else 30) if sine else 4
    ns = [int(rng.integers(low, low + 20)) for _ in scales]
    lengths = [(n - 0.5) * phase / s for n, s in zip(ns, scales)]
    if sine:
        env = lambda tt: np.sin(2.0 * np.pi * tt / lengths[0])
        rhss = [lambda tt, y: gen(h0 + env(tt) * h1, y)]
    else:
        rhss = [lambda tt, y, h=h: gen(h, y) for h in hs]
    n_periods = 14 if pattern == "spread" else int(rng.integers(5, 9))
    lat, starts, steps = lattice_stepwise(rhss, lengths, scales, y0, n_periods)
    points = fuzz_points(rng, pattern, ns, n_periods)
    t, ref, n_ref = lattice_samples(rhss, lat, starts, steps, [p[:4] for p in points])
    t = t + np.array([p[4] for p in points]) * np.spacing(t)
    if pure:
        ref = [np.outer(y, y.conj()) / np.vdot(y, y).real for y in ref]
    if sine:
        run = lambda: propagate_modulated(
            h0, h1, env, channels, rho0, t, period=lengths[0], max_step_phase=phase
        )
    else:
        run = lambda: propagate(
            None, channels, rho0, t, period=list(zip(lengths, hs)), max_step_phase=phase
        )
    return run, np.array(ref), n_ref, d if pure else d * d


def test_engine_differential_fuzz(monkeypatch):
    # seeded random layouts against literal stepwise RK4: 2 or 3 levels,
    # state vector or Liouvillian, 1-3 constant pieces or one sine piece,
    # samples on, off and a few ulps from lattice points and period ends,
    # under the default BATCH_BYTES or the smallest that holds poly.  The
    # runs reach every branch of the engine between them.
    rng = np.random.default_rng(2024)
    seen = set()
    layouts = [
        (sine, pattern, small)
        for sine in (False, True) for pattern in ("shared", "spread", "dense")
        for small in (False, True)
    ]
    systems = [(2, True), (3, False), (3, True), (2, False)]
    for n, (sine, pattern, small) in enumerate(layouts):
        d, pure = systems[n % 4]
        run, ref, n_ref, dim = fuzz_layout(rng, sine, d, pure, pattern)
        with monkeypatch.context() as mp:
            if small:
                held, column = poly_fit(dim)  # one column of poly's build
                mp.setattr(qdyn, "BATCH_BYTES", held + column)
            spy_engine(mp, seen)
            res = run()
        label = f"layout {n}: sine={sine} d={d} pure={pure} {pattern} small={small}"
        np.testing.assert_allclose(res.matrices, ref, rtol=0.0, atol=1e-12, err_msg=label)
        assert res.diagnostics.n_substeps == n_ref, label
    assert seen == {
        "tables", "merges", "rows", "kept", "rewalked", "gemm", "per-row", "squares", "snaps"
    }


@pytest.mark.parametrize("kind", ["pulse", "sine"])
def test_doubling_the_periods_builds_no_more_step_maps(kind, monkeypatch):
    # the work that depends on the period is done once per run: twice as
    # many periods, sampled at the same fractions, build the same maps
    rng = np.random.default_rng(59)
    h0, h1 = random_hermitian(rng, 2, 1.5), random_hermitian(rng, 2, 0.7)
    period, counts = 3.0, []
    for n_periods in (4, 8):
        t = np.array(
            [(k + f) * period for k in range(n_periods) for f in (0.0, 0.1, 0.45, 0.8)]
            + [n_periods * period]
        )
        with monkeypatch.context() as mp:
            built = count_step_maps(mp)
            if kind == "pulse":
                propagate(
                    None, [CollapseChannel(SIGMA, 0.3)], DensityOperator.pure(0, dim=2), t,
                    period=[(1.0, h0 + h1), (2.0, h0)],
                )
            else:
                env = lambda tt: np.sin(2.0 * np.pi * tt / period)
                rho0 = DensityOperator.pure(0, dim=2)
                propagate_modulated(h0, h1, env, [], rho0, t, period=period)
        counts.append(built[0])
    assert counts[0] == counts[1] > 0


def test_equal_intervals_share_their_maps(monkeypatch):
    # without a period the run is one piece that spans the grid, so a
    # constant generator builds one step map for all of its intervals
    built = count_step_maps(monkeypatch)
    rng = np.random.default_rng(61)
    t = 0.25 * np.arange(65)
    h, rho0 = random_hermitian(rng, 2), random_density(rng, 2)
    res = propagate(h, [CollapseChannel(SIGMA, 0.5)], rho0, t)
    assert built[0] == 1
    assert res.diagnostics.n_substeps > 64


def test_a_run_without_a_period_is_one_period_that_spans_the_grid():
    # on a ragged grid from t0 > 0, a run without a period is, bit for bit,
    # the run whose one period is the grid's span: constant, modulated on
    # the Liouvillian, and modulated on the state vector
    rng = np.random.default_rng(97)
    t = np.array([0.3, 0.45, 0.8, 1.1, 1.9, 2.3])
    h0, h1 = random_hermitian(rng, 2, 1.5), random_hermitian(rng, 2, 0.7)
    channels, rho0 = [CollapseChannel(SIGMA, 0.4)], random_density(rng, 2)
    env = lambda tt: np.cos(1.3 * tt)
    span = t[-1] - t[0]
    const = propagate(h0, channels, rho0, t)
    pairs = [(const, propagate(None, channels, rho0, t, period=[(span, h0)]))]
    for ch, r0 in ((channels, rho0), ([], DensityOperator.pure(0, dim=2))):
        run = lambda **kw: propagate_modulated(h0, h1, env, ch, r0, t, **kw)
        pairs.append((run(), run(period=span)))
    for free, periodic in pairs:
        assert np.array_equal(free.matrices, periodic.matrices)
        assert free.diagnostics.n_substeps == periodic.diagnostics.n_substeps > t.size


@pytest.mark.parametrize("dim, liouville", [(2, False), (3, False), (4, False), (2, True), (3, True)])
def test_modulated_step_maps_match_rk4_on_the_identity(dim, liouville):
    # one GEMM of envelope monomials with the piece's coefficients against
    # the RK4 stages run on each column of the identity, step by step, on
    # the state-vector path (D = dim) and the Liouvillian path (D = dim^2)
    rng = np.random.default_rng(67)
    h0, h1 = random_hermitian(rng, dim, 1.5), random_hermitian(rng, dim, 0.8)
    if liouville:
        a0, a1 = liouvillian(h0, [random_channel(rng, dim)]), liouvillian(h1, [])
    else:
        a0, a1 = -1j * h0, -1j * h1
    big = a0.shape[0]
    h = qdyn.MAX_STEP_PHASE_LIMIT / (np.linalg.norm(a0, 2) + np.linalg.norm(a1, 2))
    piece = qdyn._Piece(a0, a1, lambda tt: np.cos(1.7 * tt) - 0.3, 0.4, h, 40)
    # real forms: the complex map is the left block column
    real = piece.step_maps(5, 37, qdyn._real(piece.poly))
    assert real.shape == (32, 2 * big, 2 * big) and real.dtype == float
    maps = real[:, :big, :big] + 1j * real[:, big:, :big]
    # each column of a step's identity block reads that step's envelope
    ta = np.repeat(piece.t0 + np.arange(5, 37) * h, big)
    f = piece.f(np.concatenate((ta, ta + 0.5 * h, ta + h))).reshape(3, -1)
    eye = np.tile(np.eye(big, dtype=complex), (32, 1))
    ref = qdyn._rk4(a0, a1, f, h, eye).reshape(-1, big, big).swapaxes(1, 2)
    assert np.abs(maps - ref).max() <= 1e-14 * np.abs(ref).max()


def test_taylor_remainder_is_rk4_under_a_constant_generator():
    # a constant piece's remainder step is the Horner form of the degree-4
    # Taylor polynomial: on a qutrit Liouvillian (D = 9), rows with their
    # own dt in [0, h], exact zeros and h itself included, it is RK4, and
    # a row at dt = 0 comes back as it went in, so it runs on every row
    rng = np.random.default_rng(101)
    a = liouvillian(random_hermitian(rng, 3), [random_channel(rng, 3)])
    h = qdyn.MAX_STEP_PHASE_LIMIT / np.linalg.norm(a, 2)
    dt = np.concatenate(([0.0, h, 0.0], rng.uniform(0.0, h, size=40)))
    x = rng.normal(size=(dt.size, 9)) + 1j * rng.normal(size=(dt.size, 9))
    ref = qdyn._rk4(a, None, None, dt, x)
    got = qdyn._taylor(a, dt, x)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(got[dt == 0.0], x[dt == 0.0])


def test_rk4_by_generator_parts_matches_per_row_generators():
    # the stages act by a0 and a1 on all rows, the envelope of each row
    # scaling a1's part; against RK4 on each row's own generators
    # a0 + f a1 at its step's start, middle and end, as a (R, D, D) stack:
    # a qutrit Liouvillian, rows with their own dt in [0, h], and a row at
    # dt = 0 comes back bit for bit
    rng = np.random.default_rng(131)
    a0 = liouvillian(random_hermitian(rng, 3), [random_channel(rng, 3)])
    a1 = liouvillian(random_hermitian(rng, 3, 0.7), [])
    h = qdyn.MAX_STEP_PHASE_LIMIT / (np.linalg.norm(a0, 2) + np.linalg.norm(a1, 2))
    dt = np.concatenate(([0.0, h, 0.0], rng.uniform(0.0, h, size=40)))
    f = rng.uniform(-1.0, 1.0, size=(3, dt.size))
    x = rng.normal(size=(dt.size, 9)) + 1j * rng.normal(size=(dt.size, 9))
    gen = a0 + f[:, :, None, None] * a1  # (3, R, D, D): start, middle, end
    act = lambda p, y: np.einsum("rij,rj->ri", gen[p], y)
    c = dt[:, None]
    k1 = act(0, x)
    k2 = act(1, x + 0.5 * c * k1)
    k3 = act(1, x + 0.5 * c * k2)
    k4 = act(2, x + c * k3)
    ref = x + (c / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = qdyn._rk4(a0, a1, f, dt, x)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(got[dt == 0.0], x[dt == 0.0])


@pytest.mark.parametrize("batch", [4, None])
def test_prefix_pass_matches_sequential_products(batch, monkeypatch):
    # prefixes at ragged stops (neighbours, a long gap, the batch edges
    # 4, 8 and 12, the piece's end) against a running product of the step
    # maps; in batches of four maps, three batches hold no stop
    rng = np.random.default_rng(71)
    h0, h1 = random_hermitian(rng, 2, 1.0), random_hermitian(rng, 2, 0.6)
    a0, a1 = liouvillian(h0, [CollapseChannel(SIGMA, 0.4)]), liouvillian(h1, [])
    piece = qdyn._Piece(a0, a1, lambda tt: np.sin(2.0 * tt), 0.0, 0.01, 30)
    stops = np.array([1, 2, 3, 4, 7, 8, 12, 13, 29, 30])
    seq, ref = np.eye(4, dtype=complex), []
    real = piece.step_maps(0, piece.n, qdyn._real(piece.poly))
    for k, m in enumerate(real[:, :4, :4] + 1j * real[:, 4:, :4], start=1):
        seq = m @ seq
        if k in stops:
            ref.append(seq)
    if batch:
        # poly and its real forms sit beside each batch
        held, per_step = step_fit(4)
        monkeypatch.setattr(qdyn, "BATCH_BYTES", held + batch * per_step)
    built = count_step_maps(monkeypatch)
    got = list(qdyn._prefixes(piece, stops, 0, False))
    assert built[0] == piece.n
    assert len(got) == (5 if batch else 1)
    assert np.array_equal(np.concatenate([s for s, _ in got]), stops)
    q = np.concatenate([q for _, q in got])
    np.testing.assert_allclose(q, np.array(ref), rtol=0.0, atol=1e-14)


def test_closed_form_smallest_eigenvalue_matches_eigvalsh():
    # d = 2: pure, mixed, near-degenerate and maximally mixed states
    rng = np.random.default_rng(73)
    pure = [DensityOperator.pure(rng.normal(size=2) + 1j * rng.normal(size=2)).matrix for _ in range(50)]
    mixed = [random_density(rng, 2).matrix for _ in range(50)]
    near = [0.5 * np.eye(2) + eps * random_hermitian(rng, 2) for eps in (1e-6, 1e-10, 1e-14)]
    stack = np.array(pure + mixed + near + [DensityOperator(np.eye(2) / 2).matrix])
    w = qdyn._min_eigenvalues(stack)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(stack)[:, 0], rtol=0.0, atol=1e-15)
    assert w[-1] == 0.5


@pytest.mark.parametrize("dim", [2, 3])
def test_non_positive_output_state_is_named_by_its_time(dim):
    # raw trace-preserving states, the third with eigenvalue -1e-6: the
    # closed form (d = 2) and eigvalsh (d = 3) name the same time
    rho0 = DensityOperator(np.eye(dim) / dim)
    raw = np.array([rho0.matrix] * 4)
    raw[2] = np.diag([1.0 + 1e-6, -1e-6] + [0.0] * (dim - 2))
    t = np.array([0.0, 0.5, 1.25, 2.0])
    with pytest.raises(IntegrationFailureError, match=r"t=1\.25 has eigenvalue -1\.000e-06"):
        qdyn._record(raw.reshape(4, -1), 0, rho0, t, False)


def test_envelope_calls_do_not_grow_with_the_substeps():
    # the envelope is called on whole arrays, per batch of step maps and
    # per remainder step: twice the substeps, in one batch and at the
    # same samples, make no more calls
    rng = np.random.default_rng(79)
    h0, h1 = random_hermitian(rng, 2, 1.5), random_hermitian(rng, 2, 0.7)
    t = np.array([0.0, 0.3, 1.7, 2.2, 5.9, 6.0])
    calls, steps = [], []
    for phase in (0.02, 0.01):
        count = [0]

        def env(tt):
            count[0] += 1
            return np.sin(2.0 * np.pi * tt / 3.0)

        res = propagate_modulated(
            h0, h1, env, [], DensityOperator.pure(0, dim=2), t, period=3.0, max_step_phase=phase
        )
        calls.append(count[0])
        steps.append(res.diagnostics.n_substeps)
    assert steps[1] > 1.9 * steps[0]
    assert calls[0] == calls[1] > 0


@pytest.mark.parametrize(
    "dim, pure",
    [pytest.param(4, True, id="True"), pytest.param(2, False, id="False"),
     pytest.param(3, False, id="qutrit")],
)
def test_modulated_run_memory_stays_within_the_batch_bound(dim, pure, monkeypatch):
    # a modulated period of 10,000 to 16,000 4 x 4 step maps (2.5 to 4 MB),
    # or of 9 x 9 ones for a qutrit Liouvillian, in batches of 64 KiB: the
    # traced peak of the run stays within BATCH_BYTES
    rng = np.random.default_rng(83)
    monkeypatch.setattr(qdyn, "BATCH_BYTES", 1 << 16)
    if pure:
        channels, rho0 = [], DensityOperator.pure(0, dim=dim)
    elif dim == 2:
        channels, rho0 = [CollapseChannel(SIGMA, 0.3)], random_density(rng, 2)
    else:
        channels, rho0 = [random_channel(rng, dim)], random_density(rng, dim)
    h0, h1 = random_hermitian(rng, dim, 3.0), random_hermitian(rng, dim, 2.0)
    env = lambda tt: np.sin(2.0 * np.pi * tt / 6.0)
    t = np.linspace(0.0, 12.0, 9)
    run = lambda: propagate_modulated(h0, h1, env, channels, rho0, t, period=6.0)
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.diagnostics.n_substeps > 9_000
    assert peak <= qdyn.BATCH_BYTES


def test_modulated_remainder_memory_grows_with_rows_not_generators(monkeypatch):
    # 2,000 samples off the lattice of a qutrit Liouvillian (D = 9) run
    # under 64 KiB: each takes its remainder step, in row chunks, and the
    # traced peak of the run stays within BATCH_BYTES and 3.5 copies of the
    # state stack (raw states and _record's passes), with no (R, D, D)
    # generator stack per sample
    rng = np.random.default_rng(127)
    monkeypatch.setattr(qdyn, "BATCH_BYTES", 1 << 16)
    channels, rho0 = [random_channel(rng, 3)], random_density(rng, 3)
    h0, h1 = random_hermitian(rng, 3, 3.0), random_hermitian(rng, 3, 2.0)
    env = lambda tt: np.sin(2.0 * np.pi * tt / 6.0)
    # midpoints of a grid of pitch 0.006: none on a period boundary
    t = np.concatenate(([0.0], (np.arange(2000) + 0.5) * 0.006))
    run = lambda: propagate_modulated(
        h0, h1, env, channels, rho0, t, period=6.0, max_step_phase=qdyn.MAX_STEP_PHASE_LIMIT
    )
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.matrices.shape == (2001, 3, 3)
    assert peak <= qdyn.BATCH_BYTES + 3.5 * res.matrices.nbytes


@pytest.mark.parametrize("n_stops", [1, 4, 100])
def test_prefix_scan_memory_stays_within_the_batch_bound(n_stops, monkeypatch):
    # the real-form step maps of a qutrit Liouvillian piece (D = 9, 5,000
    # steps) in batches of 64 KiB, poly prebuilt: the traced peak of
    # taking the prefixes at 1, 4 or 100 stops, one batch's at a time as
    # _gather takes them, stays within BATCH_BYTES
    rng = np.random.default_rng(103)
    monkeypatch.setattr(qdyn, "BATCH_BYTES", 1 << 16)
    a0 = liouvillian(random_hermitian(rng, 3), [random_channel(rng, 3)])
    a1 = liouvillian(random_hermitian(rng, 3), [])
    h = qdyn.MAX_STEP_PHASE_LIMIT / (np.linalg.norm(a0, 2) + np.linalg.norm(a1, 2))
    piece = qdyn._Piece(a0, a1, np.sin, 0.0, h, 5000)
    stops = (5000 // n_stops) * np.arange(1, n_stops + 1)
    list(qdyn._prefixes(piece, stops, 0, False))  # builds poly, and numpy's one-time caches
    tracemalloc.start()
    try:
        base, seen = tracemalloc.get_traced_memory()[0], 0
        for s, _ in qdyn._prefixes(piece, stops, 0, False):
            seen += s.size
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert seen == n_stops
    assert peak <= qdyn.BATCH_BYTES


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33, 1000])
def test_scan_is_the_running_product(n):
    # at every index, against a sequential running product (later map on
    # the left) of near-identity real maps; lengths below, at and between
    # powers of two
    rng = np.random.default_rng(107)
    m = np.eye(6) + 0.05 * rng.normal(size=(n, 6, 6))
    ref, acc = np.empty_like(m), np.eye(6)
    for i in range(n):
        acc = m[i] @ acc
        ref[i] = acc
    got = qdyn._scan(m.copy())
    for i in range(n):
        assert np.abs(got[i] - ref[i]).max() <= 1e-14 * np.abs(ref[i]).max(), i


def test_real_form_maps_products_to_products():
    rng = np.random.default_rng(109)
    a, b = (rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5)) for _ in range(2))
    ra = qdyn._real(a)
    assert ra.shape == (3, 10, 10) and ra.dtype == float
    scale = np.abs(a @ b).max()
    np.testing.assert_allclose(ra @ qdyn._real(b), qdyn._real(a @ b), rtol=0.0, atol=1e-14 * scale)
    # the complex block read back from the left block column is exactly a
    assert np.array_equal(ra[:, :5, :5] + 1j * ra[:, 5:, :5], a)


def test_step_map_polynomial_is_built_within_the_batch_bound(monkeypatch):
    # a qutrit Liouvillian's 12 coefficient maps (9 x 9, 15,552 bytes kept)
    # built in blocks of identity columns under a 64 KiB bound: the traced
    # peak of the build stays within BATCH_BYTES, and the blocks agree
    # with the one-block build up to rounding
    rng = np.random.default_rng(29)
    a0 = liouvillian(random_hermitian(rng, 3), [random_channel(rng, 3)])
    a1 = liouvillian(random_hermitian(rng, 3), [])
    piece = lambda: qdyn._Piece(a0, a1, None, 0.0, 0.01, 10)
    whole = piece().poly
    monkeypatch.setattr(qdyn, "BATCH_BYTES", 1 << 16)
    blocked = piece()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        blocked.poly
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= qdyn.BATCH_BYTES
    np.testing.assert_allclose(blocked.poly, whole, rtol=0.0, atol=1e-15 * np.abs(whole).max())


def test_step_map_polynomial_beyond_the_batch_bound_is_refused(monkeypatch):
    # the bound must hold the kept maps and one column of their build;
    # one byte less is refused before anything is built
    rng = np.random.default_rng(31)
    a0, a1 = -1j * random_hermitian(rng, 4), -1j * random_hermitian(rng, 4)
    held, column = poly_fit(4)
    need = held + column
    monkeypatch.setattr(qdyn, "BATCH_BYTES", need)
    assert qdyn._Piece(a0, a1, None, 0.0, 0.01, 10).poly.shape == (12, 4, 4)
    monkeypatch.setattr(qdyn, "BATCH_BYTES", need - 1)
    with pytest.raises(ValueError, match="cannot hold the step-map polynomial"):
        qdyn._Piece(a0, a1, None, 0.0, 0.01, 10).poly


def engine_path(path, dim, seed):
    """One engine path on a dim x dim generator: run() returns what the path returns.

    Constant pieces of 4,000 steps, modulated ones of 400.  tables: 7 stops,
    each reached in dim + 2 periods by rows a few ulps apart in dt.  rows:
    2,000 samples at distinct steps.  kept and remainder: 50 or 2,000 samples
    at 5 stops.  rebuilt: 300 samples at distinct stops, more than the bound
    keeps.  gemm and chunks: _gather on 10 prefixes, for 100 rows in 20
    states (one GEMM) or 2,000 rows in states of their own (in chunks).
    poly: the step-map polynomial.
    """
    rng = np.random.default_rng(seed)
    a0, a1 = (-1j * random_hermitian(rng, dim, 1.0) for _ in range(2))
    h = qdyn.MAX_STEP_PHASE_LIMIT / (np.linalg.norm(a0, 2) + np.linalg.norm(a1, 2))
    const = path in ("tables", "rows")
    piece = qdyn._Piece(a0, None if const else a1, np.sin, 0.0, h, 4000 if const else 400)
    states = lambda n: rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    if path == "poly":
        return lambda: piece.poly
    if path in ("gemm", "chunks"):
        s, q = np.arange(1, 11), states(10 * dim).reshape(10, dim, dim)
        n, r = (20, 100) if path == "gemm" else (2000, 2000)
        k, j, v = np.sort(rng.integers(0, n, size=r)), rng.choice(s, r), states(n)
        k = np.arange(n) if path == "chunks" else k
        return lambda: qdyn._gather(v, k, j, [(s, q)], 0)
    if path == "tables":
        stops, periods = 301 * np.arange(1, 8), dim + 2
        j, k = np.tile(stops, periods), np.repeat(np.arange(periods), 7)
        dt = np.tile(rng.uniform(0.1 * h, 0.9 * h, size=7), periods)
        dt += rng.integers(-3, 4, size=j.size) * np.spacing(dt)
    else:
        n = {"rows": 2000, "kept": 50, "rebuilt": 300, "remainder": 2000}[path]
        if path in ("rows", "rebuilt"):
            j = np.sort(rng.choice(piece.n - 1, n, replace=False) + 1)
        else:
            j = rng.choice(60 * np.arange(1, 6), n)
        k, dt = np.sort(rng.integers(0, 40, size=n)), rng.uniform(0.1 * h, 0.9 * h, size=n)
    v, stops = states(int(k.max()) + 1), np.unique(j)

    def run():
        _, advance = qdyn._piece_maps(piece, stops)
        return advance(v, k, j, dt)

    return run


PATHS = ("tables", "rows", "kept", "rebuilt", "gemm", "chunks", "remainder", "poly")


@pytest.mark.parametrize(
    "path, dim", [(p, d) for p in PATHS for d in (4, 9, 16)] + [("remainder", 48)]
)
def test_each_engine_path_stays_within_the_batch_bound(path, dim, monkeypatch):
    # each path traced on its own, under a bound of 16 times the step-map
    # polynomial (48 KiB at D = 4, 6.75 MiB at D = 48) or, for poly, the
    # smallest that holds it: the traced peak above what the path returns
    # stays within BATCH_BYTES, a modulated piece keeps its prefixes or
    # builds them again as named, and the path returns what it returns
    # under the default bound, up to rounding
    ref = engine_path(path, dim, 151 + dim)()
    held, column = poly_fit(dim)
    bound = held + column if path == "poly" else 16 * 12 * 16 * dim * dim
    monkeypatch.setattr(qdyn, "BATCH_BYTES", bound)
    run, passes, real = engine_path(path, dim, 151 + dim), [0], qdyn._prefixes

    def counting(*args):
        passes[0] += 1
        return real(*args)

    monkeypatch.setattr(qdyn, "_prefixes", counting)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes <= qdyn.BATCH_BYTES
    assert passes[0] == {"kept": 1, "rebuilt": 2, "remainder": 1}.get(path, 0)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("dim", [64, 70, 71])
def test_default_bound_holds_the_polynomial_up_to_dimension_70(dim):
    # under the default BATCH_BYTES the 12 kept complex maps and one column
    # of their build fit up to D = 70, the Liouvillian of an 8-level system
    # (D = 64) among them, and D = 71 is refused.  Where it builds, the
    # prefix of two steps is the product of their maps
    rng = np.random.default_rng(113)
    a0, a1 = -1j * random_hermitian(rng, dim, 0.1), -1j * random_hermitian(rng, dim, 0.1)
    piece = qdyn._Piece(a0, a1, np.sin, 0.0, 0.01, 2)
    if dim > 70:
        with pytest.raises(ValueError, match="cannot hold the step-map polynomial"):
            piece.poly
        return
    m = piece.step_maps(0, 2, qdyn._real(piece.poly))
    ref = m[1] @ m[0]
    ((s, q),) = qdyn._prefixes(piece, np.array([2]), 0, False)
    assert s.tolist() == [2]
    np.testing.assert_allclose(q[0], ref[:dim, :dim] + 1j * ref[dim:, :dim], rtol=0.0, atol=1e-14)


def test_propagation_is_bit_stable():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 2, scale=2.0)
    channels = [CollapseChannel(SIGMA, 0.7)]
    rho0 = random_density(rng, 2)
    t = np.linspace(0.0, 3.0, 11)
    ra = propagate(h, channels, rho0, t)
    rb = propagate(h, channels, rho0, t)
    for sa, sb in zip(ra.matrices, rb.matrices):
        assert np.array_equal(sa, sb)


def test_single_point_grid_returns_initial_state():
    rho0 = DensityOperator.pure(0, dim=2)
    res = propagate(np.zeros((2, 2)), [], rho0, [0.0])
    assert len(res) == 1
    assert np.array_equal(res[0].matrix, rho0.matrix)


def test_result_is_one_read_only_stack():
    rng = np.random.default_rng(29)
    h = random_hermitian(rng, 3, scale=1.0)
    t = np.linspace(0.0, 2.0, 6)
    res = propagate(h, [random_channel(rng, 3)], random_density(rng, 3), t)
    assert res.matrices.shape == (len(t), 3, 3)
    assert len(res) == len(t)
    with pytest.raises(ValueError):
        res.matrices[0, 0, 0] = 0.0
    for i in range(len(res)):
        assert np.array_equal(res[i].matrix, res.matrices[i])
    assert np.array_equal(res.populations(), np.real(np.diagonal(res.matrices, axis1=1, axis2=2)))
    # the pure-state path is checked over its outputs too, not only rho0
    env = lambda tt: np.sin(2.0 * tt)
    psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    pure = propagate_modulated(h, 0.5 * h, env, [], DensityOperator.pure(psi0), t)
    w = np.linalg.eigvalsh(pure.matrices)[:, 0]
    assert pure.diagnostics.min_eigenvalue == w.min()
    assert pure.diagnostics.min_eigenvalue >= -1e-12


def test_grid_and_phase_validation():
    rho0 = DensityOperator.pure(0, dim=2)
    h = np.zeros((2, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        propagate(h, [], rho0, [0.0, 0.0])
    with pytest.raises(ValueError, match="1-D"):
        propagate(h, [], rho0, [[0.0, 1.0]])
    with pytest.raises(ValueError, match="1-D"):
        propagate(h, [], rho0, [])
    with pytest.raises(ValueError, match="max_step_phase"):
        propagate(h, [], rho0, [0.0, 1.0], max_step_phase=0.2)
    with pytest.raises(ValueError, match="max_step_phase"):
        propagate(h, [], rho0, [0.0, 1.0], max_step_phase=0.0)
    with pytest.raises(ValueError, match="either"):
        propagate(h, [], rho0, [0.0, 1.0], period=[(1.0, h)])
    with pytest.raises(ValueError, match="either"):
        propagate(None, [], rho0, [0.0, 1.0])
    for bad in ([], [(0.0, h)], [(1.0, h), (-1.0, h)], [(np.inf, h)]):
        with pytest.raises(ValueError, match="period"):
            propagate(None, [], rho0, [0.0, 1.0], period=bad)
    with pytest.raises(ValueError, match="period"):
        propagate_modulated(h, h, np.sin, [], rho0, [0.0, 1.0], period=0.0)


@pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, 1.0, np.nan], [0.0, np.inf], [np.nan, 1.0]])
def test_non_finite_sample_times_are_a_bad_grid(grid):
    rho0 = DensityOperator.pure(0, dim=2)
    h = np.zeros((2, 2))
    with pytest.raises(ValueError, match="t_grid"):
        propagate(h, [], rho0, grid)
    with pytest.raises(ValueError, match="t_grid"):
        propagate_modulated(h, SIGMA_X, np.sin, [], rho0, grid)


def test_dimension_mismatches_raise():
    rho0 = DensityOperator.pure(0, dim=2)
    with pytest.raises(DimensionMismatchError):
        propagate(np.zeros((3, 3)), [], rho0, [0.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        period = [(0.5, np.zeros((2, 2))), (0.5, np.zeros((3, 3)))]
        propagate(None, [], rho0, [0.0, 1.0], period=period)
    with pytest.raises(DimensionMismatchError):
        liouvillian(np.zeros((2, 2)), [CollapseChannel(np.zeros((3, 3)), 1.0)])
    with pytest.raises(DimensionMismatchError):
        propagate_modulated(np.zeros((3, 3)), np.zeros((2, 2)), lambda t: 0.0, [], rho0, [0.0, 1.0])


def test_lying_envelope_bound_aborts():
    # an envelope far above |envelope| <= 1 starves the step control;
    # the trace-drift guard must abort instead of returning garbage
    rho0 = DensityOperator(np.eye(2) / 2)
    with pytest.raises(IntegrationFailureError, match="trace drifted"):
        propagate_modulated(
            np.zeros((2, 2)),
            SIGMA_X,
            lambda t: 500.0,
            [CollapseChannel(SIGMA, 1e-3)],
            rho0,
            [0.0, 1.0],
        )
    # same guard on the pure-state path
    with pytest.raises(IntegrationFailureError, match="trace drifted"):
        propagate_modulated(
            np.zeros((2, 2)),
            SIGMA_X,
            lambda t: 500.0,
            [],
            DensityOperator.pure(0, dim=2),
            [0.0, 1.0],
        )
    # a lying envelope on a mixed state without channels breaks
    # positivity before the trace: the numerical error type, not a
    # configuration error
    with pytest.raises(IntegrationFailureError, match="eigenvalue"):
        propagate_modulated(
            np.zeros((2, 2)),
            SIGMA_X,
            lambda t: 145.0,
            [],
            DensityOperator(np.diag([0.9, 0.1])),
            [0.0, 1.0],
        )


def test_diagnostics_merge_takes_extrema():
    a = PropagationDiagnostics(1e-10, 1e-12, -1e-9, 40)
    b = PropagationDiagnostics(1e-11, 1e-11, -1e-10, 60)
    m = a.merge(b)
    assert m.max_step_trace_drift == 1e-10
    assert m.max_hermiticity_residual == 1e-11
    assert m.min_eigenvalue == -1e-9
    assert m.n_substeps == 100


def test_kron_and_partial_trace_invert_on_products():
    rng = np.random.default_rng(13)
    for _ in range(5):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        ra, rb = random_density(rng, da), random_density(rng, db)
        full = kron(ra.matrix, rb.matrix)
        assert np.array_equal(full, np.kron(ra.matrix, rb.matrix))
        np.testing.assert_allclose(partial_trace(full, (da, db), 0), ra.matrix, atol=1e-13)
        np.testing.assert_allclose(partial_trace(full, (da, db), 1), rb.matrix, atol=1e-13)


def test_partial_trace_matches_index_sum():
    # independent oracle: literal double loop over the summed index
    rng = np.random.default_rng(19)
    da, db = 2, 3
    r = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    keep_a = np.zeros((da, da), dtype=complex)
    for a in range(da):
        for b in range(da):
            for j in range(db):
                keep_a[a, b] += r[a * db + j, b * db + j]
    keep_b = np.zeros((db, db), dtype=complex)
    for a in range(db):
        for b in range(db):
            for i in range(da):
                keep_b[a, b] += r[i * db + a, i * db + b]
    np.testing.assert_allclose(partial_trace(r, (da, db), 0), keep_a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(r, (da, db), 1), keep_b, atol=1e-13)
    assert np.trace(partial_trace(r, (da, db), 0)) == pytest.approx(np.trace(r))


def test_partial_trace_validation():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(5), (2, 3), 0)
    with pytest.raises(ValueError, match="keep"):
        partial_trace(np.eye(6), (2, 3), 2)


def test_partial_trace_on_a_stack_matches_per_matrix():
    rng = np.random.default_rng(31)
    stack = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    for keep in (0, 1):
        loop = np.array([partial_trace(m, (2, 3), keep) for m in stack])
        assert np.array_equal(partial_trace(stack, (2, 3), keep), loop)
    with pytest.raises(DimensionMismatchError):
        partial_trace(stack[:, :5, :5], (2, 3), 0)
