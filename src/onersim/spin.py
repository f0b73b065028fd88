"""Nuclear spin operators, level energies, and transition matrix elements.

Basis convention: states ordered by descending magnetic quantum number,
index k <-> m = I - k, so Iz = diag(I, I-1, ..., -I).  Operator matrices
are dimensionless; Hamiltonian builders return angular-frequency (rad/s)
matrices while the scalar energy helpers take and return ordinary Hz,
which is the unit quoted for repetition rates and spectra.

The static field defines the z axis ("B frame").  Quadrupole tensors are
expected in that frame; rotate principal-axis tensors first.
"""

from __future__ import annotations

import functools
import sys
import warnings

import numpy as np

from .constants import TWO_PI
from .efg import tensor_matrix

# warn when the Zeeman term fails to dominate the quadrupole coupling by
# at least this factor; first-order energies degrade beyond it
ZEEMAN_DOMINANCE_FACTOR = 10.0


class HierarchyWarning(UserWarning):
    """An assumed scale separation is weaker than intended."""


class UnsupportedTransitionError(ValueError):
    """Requested |delta m| has no single-quantum or two-quantum branch."""

    def __init__(self, m_from: float, m_to: float):
        super().__init__(
            f"transition {m_from:g} -> {m_to:g} changes m by {abs(m_to - m_from):g}; "
            "supported branches are |delta m| = 1 and |delta m| = 2"
        )


class SpinSystem:
    """Spin-I operator algebra on the descending-m basis.

    make_spin caches one per two_I, so an instance is shared: two_I and the
    precomputed Cartesian and z operator matrices are read-only.
    """

    __slots__ = ("_two_I", "_iz", "_ix", "_iy")

    def __init__(self, two_I: int):
        if int(two_I) != two_I or two_I < 0:
            raise ValueError(f"two_I must be a non-negative integer, got {two_I}")
        self._two_I = int(two_I)
        m = self.m_values
        iz = np.diag(m.astype(complex))
        # I+ |m> = sqrt(I(I+1) - m(m+1)) |m+1>; m+1 sits one index earlier
        ip = np.diag(np.sqrt(self.I * (self.I + 1.0) - m[1:] * (m[1:] + 1.0)), 1).astype(complex)
        im = ip.conj().T
        ix = (ip + im) / 2.0
        iy = (ip - im) / 2.0j
        for a in (iz, ix, iy):
            a.setflags(write=False)
        self._iz, self._ix, self._iy = iz, ix, iy

    @property
    def two_I(self) -> int:
        return self._two_I

    @property
    def I(self) -> float:  # noqa: E743 - conventional symbol
        return self.two_I / 2.0

    @property
    def dim(self) -> int:
        return self.two_I + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order (descending)."""
        return (self.two_I - 2 * np.arange(self.two_I + 1)) / 2.0

    @property
    def Iz(self) -> np.ndarray:
        return self._iz

    @property
    def Ix(self) -> np.ndarray:
        return self._ix

    @property
    def Iy(self) -> np.ndarray:
        return self._iy

    def index_of(self, m: float) -> int:
        """Basis index of the level with magnetic quantum number m."""
        two_m = round(2.0 * m)
        if abs(2.0 * m - two_m) > 1e-9:
            raise ValueError(f"m = {m} is not a half-integer")
        if (two_m - self.two_I) % 2 != 0 or abs(two_m) > self.two_I:
            raise ValueError(f"m = {m} is not a level of a spin-{self.I:g} system")
        return (self.two_I - two_m) // 2

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpinSystem(I={self.I:g})"


@functools.cache
def make_spin(two_I: int) -> SpinSystem:
    """The operator algebra for a spin with two_I = 2I, built once per two_I."""
    return SpinSystem(two_I)


def zeeman_hamiltonian(gamma_hz_per_t: float, b0_tesla: float, spin: SpinSystem) -> np.ndarray:
    """Static-field Hamiltonian -gamma B0 Iz in rad/s.

    gamma is an ordinary frequency per Tesla (Hz/T).
    """
    return -TWO_PI * gamma_hz_per_t * b0_tesla * spin.Iz


def quadrupole_hamiltonian(q, spin: SpinSystem) -> np.ndarray:
    """Quadrupole coupling sum_uv Q_uv I_u I_v in rad/s.

    q: NqiTensor (rad/s components) or plain symmetric 3x3 array.
    """
    mat = tensor_matrix(q, "coupling tensor")
    ops = (spin.Ix, spin.Iy, spin.Iz)
    h = np.zeros((spin.dim, spin.dim), dtype=complex)
    for u in range(3):
        for v in range(3):
            if mat[u, v] != 0.0:
                h += mat[u, v] * (ops[u] @ ops[v])
    return h


def _level_energy(zeeman_hz: float, m: float, ii: float, qzz_hz: float) -> float:
    """E_m = -gamma B0 m + (3 m^2 / 2 - I(I+1)/2) Qzz, with ii = I(I+1)."""
    return -zeeman_hz * m + (1.5 * m * m - 0.5 * ii) * qzz_hz


# a hierarchy warning passes over the frames of these modules
_CHECKING_MODULES = (__name__, f"{__package__}.oner")


def _warn_hierarchy(message: str) -> None:
    """Warn HierarchyWarning at the first frame outside oner and spin: the line relying on it."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") in _CHECKING_MODULES:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, HierarchyWarning, stacklevel=level)


def _warn_if_zeeman_weak(zeeman_hz: float, qzz_hz: float) -> None:
    if abs(zeeman_hz) < ZEEMAN_DOMINANCE_FACTOR * abs(qzz_hz):
        _warn_hierarchy(
            f"|gamma B0| = {abs(zeeman_hz):.3g} Hz is below {ZEEMAN_DOMINANCE_FACTOR:g} x "
            f"|Qzz| = {abs(qzz_hz):.3g} Hz; first-order energies are unreliable"
        )


def first_order_energies(
    gamma_hz_per_t: float, b0_tesla: float, qzz_hz: float, spin: SpinSystem
) -> list[tuple[float, float]]:
    """Level energies to first order in the quadrupole coupling, in Hz.

    E_m = -gamma B0 m + (3 m^2 / 2 - I(I+1)/2) Qzz

    Valid when the Zeeman term dominates Qzz; a HierarchyWarning is
    emitted below a 10x ratio.  Returns (m, energy) pairs in basis order.
    """
    zeeman = gamma_hz_per_t * b0_tesla
    _warn_if_zeeman_weak(zeeman, qzz_hz)
    ii = spin.I * (spin.I + 1.0)
    return [(float(m), float(_level_energy(zeeman, m, ii, qzz_hz))) for m in spin.m_values]


def transition_energy(
    m_from: float, m_to: float, gamma_hz_per_t: float, b0_tesla: float, qzz_hz, spin: SpinSystem,
):
    """First-order energy difference E(m_to) - E(m_from) in Hz, one per entry of qzz_hz."""
    transition_prefactor(m_from, m_to, spin)  # checks both levels and |delta m|
    zeeman = gamma_hz_per_t * b0_tesla
    ii = spin.I * (spin.I + 1.0)
    return _level_energy(zeeman, m_to, ii, qzz_hz) - _level_energy(zeeman, m_from, ii, qzz_hz)


def transition_amplitude(m_from: float, m_to: float, q, spin: SpinSystem):
    """Drive amplitude of a quadrupole-mediated transition.

    For the lowering branch m -> m-1 (m the larger quantum number):

        g = alpha (Q_xz + i Q_yz),  alpha = |2m - 1|/2 sqrt(I(I+1) - m(m-1))

    and for m -> m-2:

        g = beta (Q_xx - Q_yy + 2 i Q_yx),
        beta = 1/4 sqrt((I(I+1) - (m-1)(m-2)) (I(I+1) - m(m-1)))

    Raising amplitudes are the conjugates.  The result carries the same
    units as the tensor components; |g| is the Rabi angular frequency
    when q is the oscillating tensor amplitude in rad/s.  A (..., 3, 3)
    stack of tensors gives one amplitude per tensor.
    """
    prefactor = transition_prefactor(m_from, m_to, spin)
    mat = np.asarray(getattr(q, "matrix", q), dtype=float)
    if mat.shape[-2:] != (3, 3):
        raise ValueError(f"coupling tensor must be 3x3 or a stack of 3x3, got shape {mat.shape}")
    if round(2 * abs(m_to - m_from)) == 2:  # |delta m| = 1
        re, im = mat[..., 0, 2], mat[..., 1, 2]
    else:
        re, im = mat[..., 0, 0] - mat[..., 1, 1], 2.0 * mat[..., 1, 0]
    g = prefactor * (re + 1j * im)
    return g if m_to < m_from else np.conj(g)


def transition_prefactor(m_from: float, m_to: float, spin: SpinSystem) -> float:
    """Geometric prefactor (alpha or beta) of a transition amplitude."""
    spin.index_of(m_from)
    spin.index_of(m_to)
    m_hi = max(m_from, m_to)
    dm = round(2 * abs(m_to - m_from)) / 2.0
    ii = spin.I * (spin.I + 1.0)
    if dm == 1.0:
        return 0.5 * abs(2.0 * m_hi - 1.0) * float(np.sqrt(ii - m_hi * (m_hi - 1.0)))
    if dm == 2.0:
        return 0.25 * float(
            np.sqrt((ii - (m_hi - 1.0) * (m_hi - 2.0)) * (ii - m_hi * (m_hi - 1.0)))
        )
    raise UnsupportedTransitionError(m_from, m_to)


def allowed_transitions(spin: SpinSystem) -> list[tuple[float, float]]:
    """All lowering transitions with |delta m| in {1, 2}, descending m."""
    ms = spin.m_values.tolist()
    return [(m, m - dm) for dm in (1.0, 2.0) for m in ms if m - dm >= -spin.I - 1e-12]
