"""Electric field gradient and nuclear quadrupole interaction tensors.

EfgTensor holds the symmetric traceless field-gradient tensor in atomic
units or SI; NqiTensor holds the spin-coupling tensor Q in angular
frequency (rad/s), the unit expected by the Hamiltonian builders.  Both
carry a frame label: "E" for the principal frame tied to the static
electric field, "B" for the frame whose z axis follows the static
magnetic field.  The two frames share the x axis and are related by
rotate_about_x.

Also here: the asymmetry parameter, the radial surface map used to
visualize tensors, a linear-response model for strain/field-driven EFG
modulation, and the comma-separated NQI-vs-field table format consumed
by the command line front end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import (
    BARN_TO_M2,
    EFG_AU_TO_SI,
    ELEMENTARY_CHARGE,
    PLANCK,
    TWO_PI,
    NucleusRecord,
)

SYMMETRY_RTOL = 1e-12
TRACE_RTOL = 1e-10

UNIT_AU = "au"
UNIT_SI = "si"

FRAME_E = "E"
FRAME_B = "B"

TABLE_COLUMNS = (
    "field_au",
    "state_label",
    "Qxx_kHz",
    "Qyy_kHz",
    "Qzz_kHz",
    "Qxy_kHz",
    "Qxz_kHz",
    "Qyz_kHz",
)
TABLE_TRACE_TOL = 1e-6


class NoQuadrupoleError(ValueError):
    """The nucleus has spin <= 1/2 and carries no quadrupole moment."""


class UndefinedAsymmetryError(ValueError):
    """Asymmetry parameter requested for an identically zero tensor."""


class TableFormatError(ValueError):
    """NQI table file violates the column/row contract."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TableRangeError(ValueError):
    """Field value outside the tabulated range; extrapolation refused."""


def tensor_matrix(q, what: str = "tensor") -> np.ndarray:
    """The 3x3 float matrix of q: a 3x3 array, or anything with a .matrix attribute."""
    arr = np.asarray(getattr(q, "matrix", q), dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"{what} must be 3x3, got shape {arr.shape}")
    return arr


def _validated_tensor(matrices, what: str) -> np.ndarray:
    """Read-only M / 2 + M^T / 2 of a 3x3 M, or of each M in a (..., 3, 3) stack.

    M must be finite, symmetric and traceless, relative to its own largest component.
    """
    arr = np.asarray(matrices, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    flat, arr_t = arr.reshape(-1, 9), np.swapaxes(arr, -1, -2)
    norm = np.max(np.abs(flat), axis=1)
    asym, tr = np.max(np.abs(flat - arr_t.reshape(-1, 9)), axis=1), flat[:, ::4].sum(axis=1)
    floor = np.maximum(norm, 1e-300)
    bad = np.flatnonzero(asym > SYMMETRY_RTOL * floor)
    if bad.size:
        raise ValueError(f"{what} is not symmetric: max |M - M^T| = {asym[bad[0]]:.3e}")
    bad = np.flatnonzero(np.abs(tr) > TRACE_RTOL * floor)
    if bad.size:
        k = bad[0]
        raise ValueError(f"{what} is not traceless: trace = {tr[k]:.3e}, norm = {norm[k]:.3e}")
    out = arr / 2.0 + arr_t / 2.0  # halved first, so no finite M overflows
    out.setflags(write=False)
    return out


class EfgTensor:
    """Symmetric traceless EFG tensor with unit and frame labels."""

    __slots__ = ("_matrix", "unit", "frame")

    def __init__(self, matrix, unit: str = UNIT_AU, frame: str = FRAME_E):
        if unit not in (UNIT_AU, UNIT_SI):
            raise ValueError(f"unit must be {UNIT_AU!r} or {UNIT_SI!r}, got {unit!r}")
        self._matrix = _validated_tensor(tensor_matrix(matrix, "EFG tensor"), "EFG tensor")
        self.unit = unit
        self.frame = frame

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def norm(self) -> float:
        """Largest absolute component."""
        return float(np.max(np.abs(self._matrix)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"EfgTensor(unit={self.unit!r}, frame={self.frame!r}, norm={self.norm:.3g})"


class NqiTensor:
    """Quadrupole coupling tensor Q with components in rad/s."""

    __slots__ = ("_matrix", "frame")

    def __init__(self, matrix, frame: str = FRAME_E):
        self._matrix = _validated_tensor(tensor_matrix(matrix, "NQI tensor"), "NQI tensor")
        self.frame = frame

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def norm(self) -> float:
        """Largest absolute component, rad/s."""
        return float(np.max(np.abs(self._matrix)))

    @property
    def qzz_hz(self) -> float:
        """zz component in Hz, the scalar entering first-order energies."""
        return float(self._matrix[2, 2]) / TWO_PI

    @classmethod
    def from_hz(cls, matrix_hz, frame: str = FRAME_E) -> "NqiTensor":
        return cls(np.asarray(matrix_hz, dtype=float) * TWO_PI, frame=frame)

    @classmethod
    def from_khz(cls, matrix_khz, frame: str = FRAME_E) -> "NqiTensor":
        return cls(np.asarray(matrix_khz, dtype=float) * (TWO_PI * 1e3), frame=frame)

    def scaled(self, factor: float) -> "NqiTensor":
        return NqiTensor(self._matrix * factor, frame=self.frame)

    def __repr__(self) -> str:  # pragma: no cover
        return f"NqiTensor(frame={self.frame!r}, norm={self.norm:.3g} rad/s)"


def symmetric_tensor(xx, yy, zz, xy, xz, yz) -> np.ndarray:
    """The symmetric 3x3 matrix of six components given as xx, yy, zz, xy, xz, yz."""
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]], dtype=float)


def axial_nqi(qzz_rad: float, frame: str = FRAME_E) -> NqiTensor:
    """Axially symmetric tensor diag(-qzz/2, -qzz/2, qzz)."""
    return NqiTensor(np.diag([-qzz_rad / 2.0, -qzz_rad / 2.0, qzz_rad]), frame=frame)


def efg_to_si(phi: EfgTensor) -> EfgTensor:
    """Convert an atomic-unit EFG tensor to SI (V/m^2); an SI tensor is returned as is."""
    if phi.unit == UNIT_SI:
        return phi
    return EfgTensor(phi.matrix * EFG_AU_TO_SI, unit=UNIT_SI, frame=phi.frame)


def efg_to_au(phi: EfgTensor) -> EfgTensor:
    """Convert an SI EFG tensor back to atomic units; an atomic-unit tensor is returned as is."""
    if phi.unit == UNIT_AU:
        return phi
    return EfgTensor(phi.matrix / EFG_AU_TO_SI, unit=UNIT_AU, frame=phi.frame)


def nqi_from_efg(phi: EfgTensor, nucleus: NucleusRecord) -> NqiTensor:
    """Quadrupole coupling tensor Q = q Phi / (2I(2I-1)) in rad/s.

    The full unit chain is e * q[m^2] * Phi[V/m^2] / (2I(2I-1)) -> Joule,
    divided by hbar for rad/s.  Nuclei with I <= 1/2 have no quadrupole
    moment and are rejected.
    """
    if not nucleus.has_quadrupole:
        raise NoQuadrupoleError(
            f"{nucleus.name}: spin I = {nucleus.spin:g} <= 1/2 has no quadrupole coupling"
        )
    phi_si = efg_to_si(phi)
    I = nucleus.spin  # noqa: E741
    denom = 2.0 * I * (2.0 * I - 1.0)
    joule = ELEMENTARY_CHARGE * nucleus.q_barn * BARN_TO_M2 * phi_si.matrix / denom
    rad_per_s = joule * TWO_PI / PLANCK
    return NqiTensor(rad_per_s, frame=phi.frame)


def rotation_about_x(theta: float | np.ndarray) -> np.ndarray:
    """Rotation matrix about the shared x axis by theta; an array of angles gives one per angle."""
    c, s = np.cos(theta), np.sin(theta)
    one, zero = np.ones_like(c), np.zeros_like(c)
    return np.stack([one, zero, zero, zero, c, -s, zero, s, c], -1).reshape(np.shape(c) + (3, 3))


def rotate_about_x(q, theta: float | np.ndarray):
    """Rotate a tensor about the x axis: R Q R^T.

    Accepts EfgTensor, NqiTensor, or a plain 3x3 array; returns the same kind.
    An E-frame label becomes B (the field frames share the x axis), others
    are kept.  A plain array and N angles give an unvalidated (N, 3, 3) stack.
    """
    r = rotation_about_x(theta)
    mat = r @ tensor_matrix(q) @ np.swapaxes(r, -1, -2)
    if not isinstance(q, (EfgTensor, NqiTensor)):
        return mat
    frame = FRAME_B if q.frame == FRAME_E else q.frame
    if isinstance(q, EfgTensor):
        return EfgTensor(mat, unit=q.unit, frame=frame)
    return NqiTensor(mat, frame=frame)


def asymmetry(phi) -> float:
    """Asymmetry parameter eta in [0, 1].

    Diagonalizes the tensor, labels principal values so |lambda_z'| is
    largest, and returns |lambda_y' - lambda_x'| / |lambda_z'|.  Ties in
    |lambda| are broken by descending signed value; eta is unaffected in
    the degenerate cases.
    """
    mat = tensor_matrix(phi)
    if np.all(mat == 0.0):
        raise UndefinedAsymmetryError("asymmetry parameter undefined for the zero tensor")
    w = np.linalg.eigvalsh(mat / 2.0 + mat.T / 2.0)  # halved first, so no finite M overflows
    # order z', y', x' by descending |lambda|, ties by descending value
    order = sorted(range(3), key=lambda i: (-abs(w[i]), -w[i]))
    lz, ly, lx = (w[i] for i in order)
    return float(abs(ly - lx) / abs(lz))


@dataclass
class SurfaceMesh:
    """Radial map g = s * r_hat . Phi . r_hat on a (theta, phi) grid."""

    theta: np.ndarray  # polar angles, inclusive [0, pi], shape (n_theta,)
    phi: np.ndarray  # azimuths, half-open [0, 2 pi), shape (n_phi,)
    g: np.ndarray  # scaled values, shape (n_theta, n_phi)

    @property
    def radius(self) -> np.ndarray:
        return np.abs(self.g)

    @property
    def sign(self) -> np.ndarray:
        return np.sign(self.g)


def surface_mesh(phi_tensor, s: float, n_theta: int, n_phi: int) -> SurfaceMesh:
    """Evaluate the radial tensor map over a spherical grid.

    For each direction r_hat(theta, phi) the value g = s * r_hat.Phi.r_hat
    is computed; the surface radius is |g| and the sign distinguishes
    prolate from oblate lobes.  For traceless Phi the spherical average
    of g vanishes.  s must be finite; a negative s swaps the lobes' signs.
    """
    if not np.isfinite(s):
        raise ValueError(f"mesh scale must be finite, got {s}")
    if n_theta < 8 or n_phi < 8:
        raise ValueError(f"mesh resolution must be >= 8 per axis, got {n_theta} x {n_phi}")
    mat = tensor_matrix(phi_tensor)
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    cp, sp = np.cos(phi)[None, :], np.sin(phi)[None, :]
    x, y, z = st * cp, st * sp, ct * np.ones_like(cp)
    g = (
        mat[0, 0] * x * x
        + mat[1, 1] * y * y
        + mat[2, 2] * z * z
        + 2.0 * mat[0, 1] * x * y
        + 2.0 * mat[0, 2] * x * z
        + 2.0 * mat[1, 2] * y * z
    )
    return SurfaceMesh(theta=theta, phi=phi, g=s * g)


class LinearResponseModel:
    """EFG response to strain and electric field, linear order.

    Phi(eps, E) = Phi0 + S : eps + R . E with S rank-4 (symmetric in its
    first and last index pairs) and R rank-3 (symmetric in its first
    pair).  S and R are user-supplied material inputs.
    """

    __slots__ = ("phi0", "_s", "_r")

    def __init__(self, phi0: EfgTensor, s_tensor, r_tensor):
        s = np.asarray(s_tensor, dtype=float)
        r = np.asarray(r_tensor, dtype=float)
        if s.shape != (3, 3, 3, 3):
            raise ValueError(f"S must have shape (3,3,3,3), got {s.shape}")
        if r.shape != (3, 3, 3):
            raise ValueError(f"R must have shape (3,3,3), got {r.shape}")
        s_norm = max(float(np.max(np.abs(s))), 1e-300)
        r_norm = max(float(np.max(np.abs(r))), 1e-300)
        if np.max(np.abs(s - s.transpose(1, 0, 2, 3))) > 1e-10 * s_norm:
            raise ValueError("S is not symmetric in its first index pair")
        if np.max(np.abs(s - s.transpose(0, 1, 3, 2))) > 1e-10 * s_norm:
            raise ValueError("S is not symmetric in its last index pair")
        if np.max(np.abs(r - r.transpose(1, 0, 2))) > 1e-10 * r_norm:
            raise ValueError("R is not symmetric in its first index pair")
        self.phi0 = phi0
        self._s = s
        self._r = r


def linear_response(model: LinearResponseModel, strain, field) -> EfgTensor:
    """Evaluate Phi0 + S : strain + R . field as an EfgTensor.

    The result is validated symmetric traceless on construction, so
    inconsistent S or R slices surface immediately.
    """
    eps = np.asarray(strain, dtype=float)
    e = np.asarray(field, dtype=float)
    if eps.shape != (3, 3):
        raise ValueError(f"strain must be 3x3, got shape {eps.shape}")
    if np.max(np.abs(eps - eps.T)) > 1e-10 * max(float(np.max(np.abs(eps))), 1e-300):
        raise ValueError("strain tensor must be symmetric")
    if e.shape != (3,):
        raise ValueError(f"field must be a 3-vector, got shape {e.shape}")
    mat = (
        model.phi0.matrix
        + np.einsum("mnab,ab->mn", model._s, eps)
        + np.einsum("mng,g->mn", model._r, e)
    )
    return EfgTensor(mat, unit=model.phi0.unit, frame=model.phi0.frame)


class NqiTable:
    """Interpolable NQI-vs-field table, one tensor family per state label.

    Built by load_nqi_table; fields are in atomic units, components in
    kHz in the file and rad/s once interpolated.  Linear interpolation
    between tabulated fields; extrapolation is refused.
    """

    def __init__(self, entries: dict[str, tuple[np.ndarray, np.ndarray]]):
        self._entries = entries

    @property
    def states(self) -> list[str]:
        return list(self._entries)

    def n_rows(self) -> int:
        return sum(len(f) for f, _ in self._entries.values())

    def field_range(self, state: str) -> tuple[float, float]:
        fields, _ = self._require(state)
        return float(fields[0]), float(fields[-1])

    def _require(self, state: str) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self._entries[state]
        except KeyError:
            known = ", ".join(self.states)
            raise KeyError(f"state {state!r} not in table (has: {known})") from None

    def interpolate(self, state: str, field_au: float) -> NqiTensor:
        """Tensor at a field value, linear between tabulated rows."""
        fields, tensors = self._require(state)
        if field_au < fields[0] - 1e-15 or field_au > fields[-1] + 1e-15:
            raise TableRangeError(
                f"field {field_au:g} a.u. outside tabulated range "
                f"[{fields[0]:g}, {fields[-1]:g}] for state {state!r}; extrapolation refused"
            )
        mat_khz = [np.interp(field_au, fields, c) for c in tensors.reshape(-1, 9).T]
        return NqiTensor.from_khz(np.reshape(mat_khz, (3, 3)), frame=FRAME_E)


def load_nqi_table(path) -> NqiTable:
    """Parse and validate a comma-separated NQI-vs-field table.

    Contract: header row naming exactly the columns field_au,
    state_label, Qxx_kHz, Qyy_kHz, Qzz_kHz, Qxy_kHz, Qxz_kHz, Qyz_kHz
    (any order); per state the field column strictly increasing; each
    row's diagonal traceless to 1e-6 relative.  Off-diagonal entries are
    completed symmetrically.  Violations raise TableFormatError with the
    offending line number; a missing file raises it too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError as exc:
        raise TableFormatError(f"table file not found: {path}") from exc
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise TableFormatError("empty table file")
    header_line, header = rows[0]
    names = [c.strip() for c in header.split(",")]
    if sorted(names) != sorted(TABLE_COLUMNS):
        raise TableFormatError(
            f"header must name columns {', '.join(TABLE_COLUMNS)}; got {', '.join(names)}",
            line=header_line,
        )
    col = {name: k for k, name in enumerate(names)}

    per_state: dict[str, list[tuple[int, float, np.ndarray]]] = {}
    for line_no, raw in rows[1:]:
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != len(names):
            raise TableFormatError(
                f"expected {len(names)} comma-separated values, got {len(parts)}",
                line=line_no,
            )
        label = parts[col["state_label"]]
        try:
            values = [float(parts[col[c]]) for c in TABLE_COLUMNS if c != "state_label"]
        except ValueError as exc:
            raise TableFormatError(f"non-numeric value ({exc})", line=line_no) from None
        field, xx, yy, zz, xy, xz, yz = values
        if not all(np.isfinite(values)):
            raise TableFormatError("non-finite value", line=line_no)
        mat = symmetric_tensor(xx, yy, zz, xy, xz, yz)
        norm = float(np.max(np.abs(mat)))
        tr = xx + yy + zz
        if norm > 0 and abs(tr) > TABLE_TRACE_TOL * norm:
            raise TableFormatError(
                f"state {label!r} tensor trace {tr:.3e} kHz exceeds "
                f"{TABLE_TRACE_TOL:g} x norm {norm:.3e} kHz",
                line=line_no,
            )
        # project exactly onto the traceless subspace after the tolerance check
        mat -= np.eye(3) * (tr / 3.0)
        per_state.setdefault(label, []).append((line_no, field, mat))

    if not per_state:
        raise TableFormatError("table has a header but no data rows")

    entries: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for label, triples in per_state.items():
        fields = np.array([f for _, f, _ in triples])
        if np.any(np.diff(fields) <= 0):
            bad = int(np.nonzero(np.diff(fields) <= 0)[0][0])
            raise TableFormatError(
                f"state {label!r} field column not strictly increasing "
                f"({fields[bad]:g} then {fields[bad + 1]:g})",
                line=triples[bad + 1][0],
            )
        tensors = np.stack([m for _, _, m in triples])
        entries[label] = (fields, tensors)
    return NqiTable(entries)
