"""Tests for the spin operator algebra and transition bookkeeping.

Oracles: angular-momentum commutation relations, the Casimir identity,
exact diagonalization of small Hamiltonians, and direct matrix elements
of the coupling operator, which the closed-form amplitude expressions
must reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from onersim.constants import TWO_PI
from onersim.spin import (
    HierarchyWarning,
    SpinSystem,
    UnsupportedTransitionError,
    allowed_transitions,
    first_order_energies,
    make_spin,
    quadrupole_hamiltonian,
    transition_amplitude,
    transition_energy,
    transition_prefactor,
    zeeman_hamiltonian,
)


def random_traceless_symmetric(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    a = (a + a.T) / 2.0
    a -= np.eye(3) * np.trace(a) / 3.0
    return scale * a


def test_spin_system_validation():
    with pytest.raises(ValueError, match="two_I"):
        SpinSystem(-1)
    with pytest.raises(ValueError, match="two_I"):
        SpinSystem(1.5)


def test_make_spin_shares_one_read_only_system_per_spin():
    s = make_spin(3)
    assert make_spin(3) is s and make_spin(2) is not s
    with pytest.raises(AttributeError):
        s.two_I = 5
    assert s.two_I == 3


def test_m_values_descend_and_index_round_trips():
    s = make_spin(3)
    np.testing.assert_allclose(s.m_values, [1.5, 0.5, -0.5, -1.5])
    assert s.I == 1.5
    assert s.dim == 4
    for k, m in enumerate(s.m_values):
        assert s.index_of(m) == k
    with pytest.raises(ValueError, match="not a level"):
        s.index_of(2.5)
    with pytest.raises(ValueError, match="not a level"):
        make_spin(2).index_of(0.5)
    with pytest.raises(ValueError, match="half-integer"):
        s.index_of(0.26)


def test_commutation_relations_and_casimir():
    for two_I in (1, 2, 3, 4, 5):
        s = make_spin(two_I)
        eye = np.eye(s.dim)
        for a, b, c in ((s.Ix, s.Iy, s.Iz), (s.Iy, s.Iz, s.Ix), (s.Iz, s.Ix, s.Iy)):
            comm = a @ b - b @ a
            assert np.max(np.abs(comm - 1j * c)) < 1e-12
        casimir = s.Ix @ s.Ix + s.Iy @ s.Iy + s.Iz @ s.Iz
        assert np.max(np.abs(casimir - s.I * (s.I + 1.0) * eye)) < 1e-12


def test_ladder_operators_act_on_basis_states():
    s = make_spin(3)
    ii = s.I * (s.I + 1.0)
    ip, im = s.Ix + 1j * s.Iy, s.Ix - 1j * s.Iy  # I+ and I-
    for k, m in enumerate(s.m_values):
        vec = np.zeros(s.dim)
        vec[k] = 1.0
        up = ip @ vec
        if m < s.I:
            expect = np.sqrt(ii - m * (m + 1.0))
            assert up[k - 1] == pytest.approx(expect)
        else:
            assert np.max(np.abs(up)) == 0.0
        down = im @ vec
        if m > -s.I:
            expect = np.sqrt(ii - m * (m - 1.0))
            assert down[k + 1] == pytest.approx(expect)
        else:
            assert np.max(np.abs(down)) == 0.0
    assert np.max(np.abs(ip - im.conj().T)) == 0.0


def test_zeeman_hamiltonian_is_diagonal_in_m():
    s = make_spin(3)
    h = zeeman_hamiltonian(1.0e6, 2.0, s)
    np.testing.assert_allclose(np.diag(h), -TWO_PI * 2.0e6 * s.m_values, rtol=1e-15)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_axial_quadrupole_hamiltonian_reduces_to_iz_form():
    # for diag(-Q/2, -Q/2, Q) the coupling collapses to
    # (3 Q / 2) Iz^2 - (Q / 2) I(I+1), fixing the level-shift coefficient
    s = make_spin(3)
    qzz = 0.37
    q = np.diag([-qzz / 2.0, -qzz / 2.0, qzz])
    h = quadrupole_hamiltonian(q, s)
    expect = 1.5 * qzz * (s.Iz @ s.Iz) - 0.5 * qzz * s.I * (s.I + 1.0) * np.eye(s.dim)
    np.testing.assert_allclose(h, expect, atol=1e-14)


def test_quadrupole_hamiltonian_is_hermitian_and_shape_checked():
    rng = np.random.default_rng(2)
    s = make_spin(3)
    for _ in range(5):
        h = quadrupole_hamiltonian(random_traceless_symmetric(rng), s)
        assert np.max(np.abs(h - h.conj().T)) < 1e-13
    with pytest.raises(ValueError, match="3x3"):
        quadrupole_hamiltonian(np.eye(2), s)


def test_first_order_energies_match_exact_diagonalization():
    # rotate an axial tensor off the field axis, then compare the
    # first-order formula against eigensolving the full Hamiltonian;
    # the residual must be second order in the coupling ratio
    s = make_spin(3)
    gamma, b0 = 1.0e6, 1.0
    qzz_principal = TWO_PI * 1.0e3
    theta = 0.65
    c, sn = np.cos(theta), np.sin(theta)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -sn], [0.0, sn, c]])
    q = rot @ np.diag([-qzz_principal / 2.0, -qzz_principal / 2.0, qzz_principal]) @ rot.T
    h = zeeman_hamiltonian(gamma, b0, s) + quadrupole_hamiltonian(q, s)
    exact = np.sort(np.linalg.eigvalsh(h)) / TWO_PI
    pairs = first_order_energies(gamma, b0, q[2, 2] / TWO_PI, s)
    approx = np.sort([e for _, e in pairs])
    bound = 20.0 * (qzz_principal / TWO_PI) ** 2 / (gamma * b0)
    np.testing.assert_allclose(approx, exact, atol=bound)
    # and without off-diagonal components the formula is exact
    q_axial = np.diag([-1.0e3, -1.0e3, 2.0e3]) * TWO_PI
    h_ax = zeeman_hamiltonian(gamma, b0, s) + quadrupole_hamiltonian(q_axial, s)
    pairs_ax = first_order_energies(gamma, b0, 2.0e3, s)
    np.testing.assert_allclose(
        np.sort([e for _, e in pairs_ax]), np.sort(np.linalg.eigvalsh(h_ax)) / TWO_PI, rtol=1e-12
    )


def test_hierarchy_warning_on_weak_zeeman():
    s = make_spin(3)
    with pytest.warns(HierarchyWarning):
        first_order_energies(1.0e3, 1.0, 5.0e2, s)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first_order_energies(1.0e6, 1.0, 5.0e2, s)  # comfortable ratio: no warning
        first_order_energies(1.0e3, 1.0, 0.0, s)  # no coupling: no warning


def test_transition_energy_is_difference_of_level_energies():
    s = make_spin(3)
    gamma, b0, qzz = 7.0e5, 1.3, 4.0e3
    levels = dict(first_order_energies(gamma, b0, qzz, s))
    for m_from, m_to in allowed_transitions(s):
        expect = levels[m_to] - levels[m_from]
        assert transition_energy(m_from, m_to, gamma, b0, qzz, s) == pytest.approx(expect)
        assert transition_energy(m_to, m_from, gamma, b0, qzz, s) == pytest.approx(-expect)
    with pytest.raises(UnsupportedTransitionError):
        transition_energy(1.5, -1.5, gamma, b0, qzz, s)
    with pytest.raises(ValueError, match="not a level"):
        transition_energy(2.5, 1.5, gamma, b0, qzz, s)


def test_allowed_transitions_listing():
    s = make_spin(3)
    assert allowed_transitions(s) == [
        (1.5, 0.5),
        (0.5, -0.5),
        (-0.5, -1.5),
        (1.5, -0.5),
        (0.5, -1.5),
    ]
    assert allowed_transitions(make_spin(1)) == [(0.5, -0.5)]


def test_prefactor_values_for_spin_three_halves():
    s = make_spin(3)
    assert transition_prefactor(1.5, 0.5, s) == pytest.approx(np.sqrt(3.0))
    assert transition_prefactor(-0.5, -1.5, s) == pytest.approx(np.sqrt(3.0))
    assert transition_prefactor(1.5, -0.5, s) == pytest.approx(np.sqrt(3.0) / 2.0)
    assert transition_prefactor(0.5, -1.5, s) == pytest.approx(np.sqrt(3.0) / 2.0)
    # the level pair straddling zero has an identically vanishing
    # single-quantum prefactor: |2 m - 1| = 0 at m = 1/2
    assert transition_prefactor(0.5, -0.5, s) == 0.0
    with pytest.raises(UnsupportedTransitionError):
        transition_prefactor(1.5, 1.5, s)


def test_amplitude_component_mapping():
    s = make_spin(3)
    q_xz = np.zeros((3, 3))
    q_xz[0, 2] = q_xz[2, 0] = 0.25
    g = transition_amplitude(1.5, 0.5, q_xz, s)
    assert g == pytest.approx(np.sqrt(3.0) * 0.25)

    q_yz = np.zeros((3, 3))
    q_yz[1, 2] = q_yz[2, 1] = 0.25
    g = transition_amplitude(1.5, 0.5, q_yz, s)
    assert g == pytest.approx(1j * np.sqrt(3.0) * 0.25)

    q_tt = np.diag([0.3, -0.3, 0.0])
    g = transition_amplitude(1.5, -0.5, q_tt, s)
    assert g == pytest.approx(np.sqrt(3.0) / 2.0 * 0.6)

    q_xy = np.zeros((3, 3))
    q_xy[0, 1] = q_xy[1, 0] = 0.3
    g = transition_amplitude(1.5, -0.5, q_xy, s)
    assert g == pytest.approx(np.sqrt(3.0) / 2.0 * 2j * 0.3)


def test_amplitude_magnitude_matches_operator_matrix_element():
    # independent oracle: the closed-form amplitude must agree in
    # magnitude with the literal matrix element of the coupling operator
    rng = np.random.default_rng(23)
    for two_I in (3, 5):
        s = make_spin(two_I)
        for _ in range(5):
            q = random_traceless_symmetric(rng)
            h = quadrupole_hamiltonian(q, s)
            for m_from, m_to in allowed_transitions(s):
                elem = h[s.index_of(m_to), s.index_of(m_from)]
                g = transition_amplitude(m_from, m_to, q, s)
                assert abs(g) == pytest.approx(abs(elem), abs=1e-12)


def test_raising_amplitude_is_conjugate_of_lowering():
    rng = np.random.default_rng(29)
    s = make_spin(3)
    for _ in range(5):
        q = random_traceless_symmetric(rng)
        for m_from, m_to in allowed_transitions(s):
            down = transition_amplitude(m_from, m_to, q, s)
            up = transition_amplitude(m_to, m_from, q, s)
            assert up == pytest.approx(np.conj(down))


def test_forbidden_pair_amplitude_vanishes_for_any_tensor():
    # zero geometric prefactor: no tensor can drive the straddling pair
    # at first order
    rng = np.random.default_rng(31)
    s = make_spin(3)
    for _ in range(20):
        q = random_traceless_symmetric(rng, scale=float(rng.uniform(0.1, 10.0)))
        assert transition_amplitude(0.5, -0.5, q, s) == 0.0
