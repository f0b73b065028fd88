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

import tracemalloc
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
    real, built = qdyn._Piece.step_maps, [0]

    def counting(piece, j0, j1):
        built[0] += j1 - j0
        return real(piece, j0, j1)

    mp.setattr(qdyn._Piece, "step_maps", counting)
    return built


def poison_step_maps(mp, bad, hit):
    """Put a non-finite entry in every step map of a piece whose start time hit accepts."""
    real = qdyn._Piece.step_maps

    def poisoned(piece, j0, j1):
        maps = real(piece, j0, j1)
        if hit(piece.t0):
            maps = maps.copy()
            maps[:, 0, 0] = bad
        return maps

    mp.setattr(qdyn._Piece, "step_maps", poisoned)


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
    with pytest.raises(ValueError, match="square"):
        DensityOperator(np.ones((2, 3)))


def test_density_operator_constructors():
    ground = DensityOperator.pure(0, dim=3)
    assert ground.population(0) == 1.0
    assert ground.dim == 3

    plus = DensityOperator.pure([1.0, 1.0])
    np.testing.assert_allclose(plus.matrix, np.full((2, 2), 0.5), atol=1e-15)

    mixed = DensityOperator.maximally_mixed(4)
    np.testing.assert_allclose(mixed.populations(), np.full(4, 0.25), atol=1e-15)
    assert mixed.expectation(np.eye(4)) == pytest.approx(1.0)

    with pytest.raises(ValueError, match="dim is required"):
        DensityOperator.pure(1)
    with pytest.raises(ValueError, match="zero state"):
        DensityOperator.pure([0.0, 0.0])


def test_collapse_channel_rejects_negative_rate():
    with pytest.raises(ValueError, match="rate"):
        CollapseChannel(SIGMA, -1.0)


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
    rho0 = DensityOperator.maximally_mixed(3)
    t = np.linspace(0.0, 1.5, 7)
    ra = propagate_modulated(h0, h1, env, [], rho0, t)
    scale = spectral_radius(h0) + spectral_radius(h1)
    ref, n_ref = stepwise_rk4(
        lambda tt, r: lindblad_rhs(h0 + env(tt) * h1, [], r), rho0.matrix, t, scale
    )
    for sa, sb in zip(ra.matrices, ref):
        np.testing.assert_allclose(sa, sb, atol=1e-8)
    assert ra.diagnostics.n_substeps == n_ref


@pytest.mark.parametrize("pure", [True, False])
def test_modulated_interval_across_batches_matches_stepwise(pure, monkeypatch):
    # one interval of 45 substeps in batches of 16: the last batch (13
    # maps) leaves an unpaired map on three levels of the pairwise
    # composition, which must stay in time order
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
    monkeypatch.setattr(qdyn, "BATCH_BYTES", 16 * qdyn._step_bytes(dim))
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
    # entry in the third piece's step maps poisons that piece's map and
    # every later raw state (inf overflows into NaN on the way); the
    # end-of-run check must name that interval and leak no RuntimeWarning
    rng = np.random.default_rng(37)
    rho0 = random_density(rng, 2)
    t = np.array([0.0, 0.2, 0.4, 0.7, 0.8, 1.0])
    h = random_hermitian(rng, 2)
    period = [(0.2, h), (0.2, h), (0.3, h), (0.1, h), (0.2, h)]
    poison_step_maps(monkeypatch, bad, lambda start: start == t[2])
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
    poison_step_maps(monkeypatch, bad, lambda start: start == 0.4)
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

    def spying(v, k, j, batches):
        batches = list(batches)
        calls.extend((s.size, j.size) for s, _ in batches)
        return real(v, k, j, batches)

    mp.setattr(qdyn, "_gather", spying)
    return calls


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
def test_period_gaps_match_stepwise(kind):
    # samples 13 and 22 periods apart: the state crosses each gap by the
    # squared period maps of its set bits
    points = [(0, 0, 0, 0.0), (0, 0, 3, 0.4), (1, 0, 5, 0.5), (15, 0, 2, 0.0), (15, 0, 7, 0.3)]
    points += [(38, 0, 1, 0.25), (40, 0, 0, 0.0)]
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


@pytest.mark.parametrize(
    "states, batch, tables", [(10, 1 << 16, True), (70, 1 << 16, True), (70, 1 << 15, False)]
)
def test_constant_piece_tables_stay_within_the_batch_bound(states, batch, tables, monkeypatch):
    # a qutrit Liouvillian piece (9 x 9 maps), 7 stops and 70 rows: each
    # stop reached in all ten periods (one GEMM on the ten states), or
    # each row in a period of its own (the rows gather their tables, 89
    # KiB at once, so in chunks); in 32 KiB the tables and their pass
    # temporaries do not fit, and the powers act on the rows.  The traced
    # peak of advance stays within BATCH_BYTES.
    monkeypatch.setattr(qdyn, "BATCH_BYTES", batch)
    rng = np.random.default_rng(97)
    a0 = liouvillian(random_hermitian(rng, 3), [random_channel(rng, 3)])
    h = qdyn.MAX_STEP_PHASE_LIMIT / np.linalg.norm(a0, 2)
    piece = qdyn._Piece(a0, None, None, 0.0, h, 4000)
    stops = 301 * np.arange(1, 8)
    j = np.tile(stops, 10)
    k = np.arange(70) if states == 70 else np.repeat(np.arange(10), 7)
    v = rng.normal(size=(states, 9)) + 1j * rng.normal(size=(states, 9))
    assert 70 * 16 * 81 > qdyn.BATCH_BYTES
    calls = spy_gather(monkeypatch)
    _, advance = qdyn._piece_maps(piece, stops)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = advance(v, k, j)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert calls == ([(7, 70)] if tables else [])
    assert peak <= qdyn.BATCH_BYTES
    step = piece.step_maps(0, 1)[0]
    ref = np.array([np.linalg.matrix_power(step, jj) @ v[kk] for jj, kk in zip(j, k)])
    np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("pure", [True, False])
def test_sine_period_lattice_matches_stepwise(pure, monkeypatch):
    # H0 + sin(2 pi t / T) H1 over four periods of one modulated piece,
    # on the state-vector path and on the Liouvillian path; the prefixes
    # reach scattered samples row by row, and three stops sampled in every
    # period by one GEMM on the four period states
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
    for points, batches in ((scattered, [(5, 6)]), (shared, [(4, 12)])):
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
        assert (60 + 1) * 16 * 4 * 4 > qdyn.BATCH_BYTES  # _piece_maps's rule for kept prefixes
        rebuilt = count_step_maps(mp)
        res = run()
    assert rebuilt[0] > built[0]
    np.testing.assert_allclose(res.matrices, ref.matrices, rtol=0.0, atol=1e-13)
    assert res.diagnostics.n_substeps == ref.diagnostics.n_substeps


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
    maps = piece.step_maps(5, 37)
    ta = piece.t0 + np.arange(5, 37) * h
    rows = lambda tt: np.repeat(piece.at(tt), big, axis=0)
    eye = np.tile(np.eye(big, dtype=complex), (ta.size, 1))
    ref = qdyn._rk4(rows(ta), rows(ta + 0.5 * h), rows(ta + h), h, eye)
    ref = ref.reshape(-1, big, big).swapaxes(1, 2)
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
    ref = qdyn._rk4(a, a, a, dt, x)
    got = qdyn._taylor(a, dt, x)
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
    for k, m in enumerate(piece.step_maps(0, piece.n), start=1):
        seq = m @ seq
        if k in stops:
            ref.append(seq)
    if batch:
        monkeypatch.setattr(qdyn, "BATCH_BYTES", batch * qdyn._step_bytes(4))
    built = count_step_maps(monkeypatch)
    got = list(qdyn._prefixes(piece, stops))
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
    stack = np.array(pure + mixed + near + [DensityOperator.maximally_mixed(2).matrix])
    w = qdyn._min_eigenvalues(stack)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(stack)[:, 0], rtol=0.0, atol=1e-15)
    assert w[-1] == 0.5


@pytest.mark.parametrize("dim", [2, 3])
def test_non_positive_output_state_is_named_by_its_time(dim):
    # raw trace-preserving states, the third with eigenvalue -1e-6: the
    # closed form (d = 2) and eigvalsh (d = 3) name the same time
    rho0 = DensityOperator.maximally_mixed(dim)
    raw = np.array([rho0.matrix] * 4)
    raw[2] = np.diag([1.0 + 1e-6, -1e-6] + [0.0] * (dim - 2))
    t = np.array([0.0, 0.5, 1.25, 2.0])
    with pytest.raises(IntegrationFailureError, match=r"t=1\.25 has eigenvalue -1\.000e-06"):
        qdyn._record(raw.reshape(4, -1), 0, rho0, t, False, qdyn.STEP_TRACE_DRIFT_LIMIT)


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
    # traced peak of the run stays within twice BATCH_BYTES
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
    assert peak <= 2 * qdyn.BATCH_BYTES


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
    column = 12 * 4 * 16
    need = column * (4 + qdyn._POLY_STACKS)
    monkeypatch.setattr(qdyn, "BATCH_BYTES", need)
    assert qdyn._Piece(a0, a1, None, 0.0, 0.01, 10).poly.shape == (12, 32)
    monkeypatch.setattr(qdyn, "BATCH_BYTES", need - 1)
    with pytest.raises(ValueError, match="cannot hold the step-map polynomial"):
        qdyn._Piece(a0, a1, None, 0.0, 0.01, 10).poly


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
    # an envelope far above its declared bound starves the step control;
    # the trace-drift guard must abort instead of returning garbage
    rho0 = DensityOperator.maximally_mixed(2)
    with pytest.raises(IntegrationFailureError, match="trace drifted"):
        propagate_modulated(
            np.zeros((2, 2)),
            SIGMA_X,
            lambda t: 500.0,
            [CollapseChannel(SIGMA, 1e-3)],
            rho0,
            [0.0, 1.0],
            envelope_bound=1.0,
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
            envelope_bound=1.0,
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
    with pytest.raises(ValueError, match="envelope_bound"):
        propagate_modulated(
            np.zeros((2, 2)), SIGMA_X, lambda t: 0.0, [], rho0, [0.0, 1.0], envelope_bound=-1.0
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
