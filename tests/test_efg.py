"""Tests for field-gradient and coupling-tensor handling.

Oracles: hand-computed unit conversions, rotation invariants, closed
asymmetry values for axial and maximally biaxial tensors, direct
quadratic-form evaluation for the surface map, and small literal table
files for the parser.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from onersim import efg
from onersim.constants import (
    BARN_TO_M2,
    EFG_AU_TO_SI,
    ELEMENTARY_CHARGE,
    PLANCK,
    TWO_PI,
    NucleusRecord,
    get_nucleus,
)
from onersim.efg import (
    EfgTensor,
    LinearResponseModel,
    NoQuadrupoleError,
    NqiTensor,
    TableFormatError,
    TableRangeError,
    UndefinedAsymmetryError,
    asymmetry,
    axial_nqi,
    efg_to_au,
    efg_to_si,
    linear_response,
    load_nqi_table,
    nqi_from_efg,
    rotate_about_x,
    rotation_about_x,
    surface_mesh,
)

AXIAL = np.diag([-0.5, -0.5, 1.0])


def random_traceless_symmetric(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    a = (a + a.T) / 2.0
    a -= np.eye(3) * np.trace(a) / 3.0
    return scale * a


def write_table(tmp_path, text, name="table.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_tensor_validation():
    with pytest.raises(ValueError, match="symmetric"):
        EfgTensor([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="traceless"):
        EfgTensor(np.eye(3))
    with pytest.raises(ValueError, match="3x3"):
        NqiTensor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        NqiTensor(np.diag([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="unit"):
        EfgTensor(AXIAL, unit="cgs")
    # the zero tensor is fine: symmetric and traceless
    assert NqiTensor(np.zeros((3, 3))).norm == 0.0


def test_unit_conversions_round_trip():
    phi = EfgTensor(0.31 * AXIAL)
    si = efg_to_si(phi)
    assert si.unit == "si"
    np.testing.assert_allclose(si.matrix, phi.matrix * EFG_AU_TO_SI, rtol=1e-15)
    back = efg_to_au(si)
    assert back.unit == "au"
    np.testing.assert_allclose(back.matrix, phi.matrix, rtol=1e-12)
    # converting twice is the identity
    np.testing.assert_allclose(efg_to_si(si).matrix, si.matrix, rtol=1e-15)


def khz(q):
    """The components of an NqiTensor in kHz."""
    return q.matrix / (TWO_PI * 1e3)


def test_nqi_frequency_properties():
    q = NqiTensor.from_khz(AXIAL * 100.0)
    np.testing.assert_allclose(khz(q), AXIAL * 100.0, rtol=1e-15)
    np.testing.assert_allclose(q.matrix / TWO_PI, AXIAL * 1.0e5, rtol=1e-15)
    np.testing.assert_allclose(q.matrix, AXIAL * TWO_PI * 1.0e5, rtol=1e-15)
    assert q.qzz_hz == pytest.approx(1.0e5)
    assert NqiTensor.from_hz(AXIAL * 1.0e5).qzz_hz == pytest.approx(1.0e5)
    assert q.scaled(0.5).qzz_hz == pytest.approx(5.0e4)
    ax = axial_nqi(6.0, frame="B")
    np.testing.assert_allclose(ax.matrix, np.diag([-3.0, -3.0, 6.0]), rtol=1e-15)
    assert ax.frame == "B"


def test_nqi_from_efg_unit_chain():
    # literal constant chain: e * q_barn * barn_to_m2 * Phi_SI
    # / (2I(2I-1)) Joule, then to rad/s via 2 pi / h
    nuc = get_nucleus("9Be")
    phi = EfgTensor(0.2 * AXIAL)
    q = nqi_from_efg(phi, nuc)
    expect = (
        ELEMENTARY_CHARGE
        * nuc.q_barn
        * BARN_TO_M2
        * (0.2 * AXIAL * EFG_AU_TO_SI)
        / (2.0 * 1.5 * 2.0)
        * TWO_PI
        / PLANCK
    )
    np.testing.assert_allclose(q.matrix, expect, rtol=1e-12)
    # the scale lands in the kHz decade for atomic-unit gradients of
    # order one, the regime the simulators expect
    assert 1.0 < abs(q.qzz_hz) / 1e3 < 1e3

    spin_half = NucleusRecord(name="x", two_I=1, q_barn=0.0, gamma_mhz_per_t=10.0)
    with pytest.raises(NoQuadrupoleError):
        nqi_from_efg(phi, spin_half)


def test_rotation_preserves_spectrum_and_maps_frames():
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = float(rng.uniform(0.0, np.pi))
        mat = random_traceless_symmetric(rng)
        q = NqiTensor(mat, frame="E")
        rot = rotate_about_x(q, theta)
        assert rot.frame == "B"
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rot.matrix), np.linalg.eigvalsh(mat), atol=1e-12
        )
        assert abs(np.trace(rot.matrix)) < 1e-12
        # rotating by theta then -theta returns the original components
        back = rotate_about_x(rot.matrix, -theta)
        np.testing.assert_allclose(back, mat, atol=1e-12)
    r = rotation_about_x(0.3)
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-15)
    assert np.linalg.det(r) == pytest.approx(1.0)
    # plain arrays and EfgTensor inputs are accepted too
    assert rotate_about_x(EfgTensor(AXIAL), 0.2).frame == "B"
    with pytest.raises(ValueError, match="3x3"):
        rotate_about_x(np.zeros((2, 2)), 0.1)


def test_rotation_composes():
    rng = np.random.default_rng(31)
    mat = random_traceless_symmetric(rng)
    a, b = 0.4, 0.9
    once = rotate_about_x(rotate_about_x(mat, a), b)
    np.testing.assert_allclose(once, rotate_about_x(mat, a + b), atol=1e-12)


def test_rotation_over_an_array_of_angles_is_one_rotation_per_angle():
    rng = np.random.default_rng(17)
    mat, thetas = random_traceless_symmetric(rng), rng.uniform(-np.pi, np.pi, 11)
    stack, turned = rotation_about_x(thetas), rotate_about_x(mat, thetas)
    assert stack.shape == turned.shape == (11, 3, 3)
    for theta, r, t in zip(thetas, stack, turned):
        np.testing.assert_array_equal(r, rotation_about_x(theta))
        np.testing.assert_array_equal(t, rotate_about_x(mat, theta))


def test_validated_tensor_checks_each_tensor_of_a_stack_as_nqi_tensor_does():
    rng = np.random.default_rng(19)
    stack = np.array([random_traceless_symmetric(rng, 10.0**k) for k in range(-3, 4)])
    stack[:, 0, 1] *= 1.0 + 1e-14  # asymmetric within tolerance: symmetrized
    out = efg._validated_tensor(stack, "NQI tensor")
    assert not out.flags.writeable
    for m, o in zip(stack, out):
        np.testing.assert_array_equal(o, (m + m.T) / 2.0)
        np.testing.assert_array_equal(o, NqiTensor(m).matrix)
    # each tensor is judged by its own scale: a trace negligible next to
    # the largest tensor still fails the smallest one
    bad = stack.copy()
    bad[0] += np.eye(3) * 1e-8 * np.abs(bad[0]).max()
    tr, norm = np.trace(bad[0]), np.abs(bad[0]).max()
    with pytest.raises(ValueError, match=re.escape(f"trace = {tr:.3e}, norm = {norm:.3e}")):
        efg._validated_tensor(bad, "NQI tensor")
    bad = stack.copy()
    bad[1, 0, 2] += 1e-6 * np.abs(bad[1]).max()
    with pytest.raises(ValueError, match="not symmetric"):
        efg._validated_tensor(bad, "NQI tensor")
    with pytest.raises(ValueError, match="non-finite"):
        efg._validated_tensor(np.where(np.eye(3) > 0, np.nan, stack), "NQI tensor")


def test_a_tensor_above_half_the_float_maximum_is_stored_as_given():
    # M / 2 + M^T / 2 halves before it adds, so a finite symmetric tensor
    # whose sum M + M^T would overflow is stored finite and unchanged
    m = np.diag([1e308, -5e307, -5e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = NqiTensor(m)
    assert np.all(np.isfinite(q.matrix))
    np.testing.assert_array_equal(q.matrix, m)


def test_asymmetry_reference_values():
    # axial tensor: eta = 0
    assert asymmetry(AXIAL) == pytest.approx(0.0, abs=1e-12)
    # principal values (1, -1, 0): |z'| = 1 twice, tie broken toward the
    # positive value, eta = |(-1) - 0| / 1 = 1
    assert asymmetry(np.diag([1.0, -1.0, 0.0])) == pytest.approx(1.0)
    # principal values (-2, 1.5, 0.5): eta = (1.5 - 0.5) / 2
    assert asymmetry(np.diag([1.5, 0.5, -2.0])) == pytest.approx(0.5)
    assert asymmetry(np.diag([2.0, -0.5, -1.5])) == pytest.approx(0.5)
    # axial above half the float maximum, where M + M^T would overflow
    assert asymmetry(EfgTensor(np.diag([-8e307, -8e307, 1.6e308]))) == 0.0
    # eta is invariant under rotation and rescaling
    rng = np.random.default_rng(7)
    for _ in range(5):
        mat = random_traceless_symmetric(rng)
        eta = asymmetry(mat)
        assert 0.0 <= eta <= 1.0 + 1e-12
        assert asymmetry(rotate_about_x(mat, 0.77)) == pytest.approx(eta, abs=1e-10)
        assert asymmetry(3.5 * mat) == pytest.approx(eta, abs=1e-12)
    with pytest.raises(UndefinedAsymmetryError):
        asymmetry(np.zeros((3, 3)))


def test_surface_mesh_matches_quadratic_form():
    rng = np.random.default_rng(9)
    mat = random_traceless_symmetric(rng)
    mesh = surface_mesh(mat, 2.0, 12, 16)
    # literal evaluation at a handful of grid nodes
    for i in (0, 5, 11):
        for j in (0, 7, 15):
            th, ph = mesh.theta[i], mesh.phi[j]
            r_hat = np.array(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
            )
            expect = 2.0 * r_hat @ mat @ r_hat
            assert mesh.g[i, j] == pytest.approx(expect, abs=1e-12)
    assert mesh.radius.min() >= 0.0
    np.testing.assert_array_equal(mesh.sign, np.sign(mesh.g))
    np.testing.assert_array_equal(mesh.radius, np.abs(mesh.g))
    assert mesh.g.shape == (12, 16)
    assert (mesh.theta[0], mesh.phi[0]) == (0.0, 0.0)


def test_surface_mesh_poles_and_equator_for_axial_tensor():
    mesh = surface_mesh(axial_nqi(4.0), 1.0, 25, 16)
    # along z the form gives Qzz, on the equator -Qzz/2
    np.testing.assert_allclose(mesh.g[0, :], 4.0, rtol=1e-12)
    np.testing.assert_allclose(mesh.g[-1, :], 4.0, rtol=1e-12)
    np.testing.assert_allclose(mesh.g[12, :], -2.0, atol=1e-12)
    # the azimuthal mean at each polar row collapses to the axial
    # profile Qzz (3 cos^2 - 1) / 2, exact on a uniform azimuth grid
    profile = 4.0 * (3.0 * np.cos(mesh.theta) ** 2 - 1.0) / 2.0
    np.testing.assert_allclose(mesh.g.mean(axis=1), profile, atol=1e-12)


def test_surface_mesh_isotropic_input_gives_constant_radius():
    # a non-traceless isotropic matrix is allowed here: the map reduces
    # to a sphere of radius |s|
    mesh = surface_mesh(np.eye(3), -1.5, 8, 8)
    np.testing.assert_allclose(mesh.radius, 1.5, rtol=1e-12)
    np.testing.assert_allclose(mesh.sign, -1.0)


def test_surface_mesh_rejects_a_scale_that_is_not_finite():
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            surface_mesh(AXIAL, s, 8, 8)


def test_surface_mesh_rejects_low_resolution():
    with pytest.raises(ValueError, match="resolution"):
        surface_mesh(AXIAL, 1.0, 7, 16)
    with pytest.raises(ValueError, match="resolution"):
        surface_mesh(AXIAL, 1.0, 16, 7)


def test_linear_response_evaluates_and_validates():
    rng = np.random.default_rng(13)
    phi0 = EfgTensor(0.1 * AXIAL)
    # build S and R with the required index symmetries from random seeds
    s = rng.normal(size=(3, 3, 3, 3))
    s = s + s.transpose(1, 0, 2, 3)
    s = s + s.transpose(0, 1, 3, 2)
    # remove the trace of the output pair so results stay traceless
    s -= np.einsum("kkab->ab", s)[None, None, :, :] * np.eye(3)[:, :, None, None] / 3.0
    r = rng.normal(size=(3, 3, 3))
    r = r + r.transpose(1, 0, 2)
    r -= np.einsum("kkg->g", r)[None, None, :] * np.eye(3)[:, :, None] / 3.0
    model = LinearResponseModel(phi0, s, r)
    eps = random_traceless_symmetric(rng, 1e-3)
    e_field = rng.normal(size=3)
    out = linear_response(model, eps, e_field)
    expect = phi0.matrix + np.einsum("mnab,ab->mn", s, eps) + np.einsum("mng,g->mn", r, e_field)
    np.testing.assert_allclose(out.matrix, expect, atol=1e-12)
    assert out.unit == phi0.unit

    with pytest.raises(ValueError, match="first index pair"):
        LinearResponseModel(phi0, rng.normal(size=(3, 3, 3, 3)), r)
    with pytest.raises(ValueError, match="shape"):
        LinearResponseModel(phi0, np.zeros((3, 3)), r)
    with pytest.raises(ValueError, match="symmetric"):
        linear_response(model, np.array([[0.0, 1e-3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), e_field)
    with pytest.raises(ValueError, match="3-vector"):
        linear_response(model, eps, np.zeros(2))


GOOD_TABLE = """field_au,state_label,Qxx_kHz,Qyy_kHz,Qzz_kHz,Qxy_kHz,Qxz_kHz,Qyz_kHz
0.0,g,0,0,0,0,0,0
0.01,g,-50,-50,100,0,5,0
0.02,g,-100,-100,200,0,10,0
0.0,e,0,0,0,0,0,0
0.02,e,-200,-80,280,12,0,4
"""


def test_table_parse_and_interpolation(tmp_path):
    table = load_nqi_table(write_table(tmp_path, GOOD_TABLE))
    assert table.states == ["g", "e"]
    assert table.n_rows() == 5
    assert table.field_range("g") == (0.0, 0.02)

    q = table.interpolate("g", 0.015)
    np.testing.assert_allclose(
        khz(q),
        [[-75.0, 0.0, 7.5], [0.0, -75.0, 0.0], [7.5, 0.0, 150.0]],
        atol=1e-9,
    )
    assert q.frame == "E"
    # exact nodes reproduce the rows
    np.testing.assert_allclose(khz(table.interpolate("e", 0.02))[2, 2], 280.0, rtol=1e-12)
    np.testing.assert_allclose(khz(table.interpolate("e", 0.01))[0, 1], 6.0, rtol=1e-12)

    with pytest.raises(TableRangeError, match="extrapolation refused"):
        table.interpolate("g", 0.03)
    with pytest.raises(TableRangeError):
        table.interpolate("g", -0.01)
    with pytest.raises(KeyError, match="not in table"):
        table.interpolate("missing", 0.01)


def test_table_header_order_is_free(tmp_path):
    shuffled = (
        "state_label,Qzz_kHz,Qxx_kHz,Qyy_kHz,field_au,Qyz_kHz,Qxz_kHz,Qxy_kHz\n"
        "g,100,-50,-50,0.01,0,5,0\n"
    )
    table = load_nqi_table(write_table(tmp_path, shuffled))
    q = table.interpolate("g", 0.01)
    assert khz(q)[2, 2] == pytest.approx(100.0)
    assert khz(q)[0, 2] == pytest.approx(5.0)


def test_table_near_traceless_rows_are_projected(tmp_path):
    # diagonal off by one part in 1e8: accepted, then projected exactly
    text = (
        "field_au,state_label,Qxx_kHz,Qyy_kHz,Qzz_kHz,Qxy_kHz,Qxz_kHz,Qyz_kHz\n"
        "0.01,g,-50.000001,-50,100,0,0,0\n"
    )
    q = load_nqi_table(write_table(tmp_path, text)).interpolate("g", 0.01)
    assert abs(np.trace(q.matrix)) < 1e-12 * q.norm


def test_table_format_errors_carry_line_numbers(tmp_path):
    cases = [
        ("", "empty table"),
        ("field_au,state_label,Qxx_kHz\n", "header must name"),
        (GOOD_TABLE.splitlines()[0] + "\n", "no data rows"),
        (GOOD_TABLE.splitlines()[0] + "\n0.0,g,0,0\n", "comma-separated values"),
        (GOOD_TABLE.splitlines()[0] + "\n0.0,g,0,0,0,0,0,oops\n", "non-numeric"),
        (GOOD_TABLE.splitlines()[0] + "\n0.0,g,-30,-30,100,0,0,0\n", "trace"),
    ]
    for text, match in cases:
        with pytest.raises(TableFormatError, match=match):
            load_nqi_table(write_table(tmp_path, text))

    decreasing = (
        GOOD_TABLE.splitlines()[0]
        + "\n0.02,g,-50,-50,100,0,0,0\n0.01,g,-50,-50,100,0,0,0\n"
    )
    with pytest.raises(TableFormatError, match="line 3.*strictly increasing"):
        load_nqi_table(write_table(tmp_path, decreasing))

    bad_value = GOOD_TABLE.splitlines()[0] + "\n0.0,g,0,0,0,0,0,0\n0.01,g,1,1,1,0,0,nan\n"
    with pytest.raises(TableFormatError, match="line 3"):
        load_nqi_table(write_table(tmp_path, bad_value))


def test_missing_table_file_is_a_format_error(tmp_path):
    # the loader is the ingestion gate: a missing file is refused like a bad one
    missing = tmp_path / "nope.csv"
    match = f"^table file not found: {re.escape(str(missing))}$"
    with pytest.raises(TableFormatError, match=match):
        load_nqi_table(missing)
