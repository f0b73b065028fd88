"""Open-system density matrix dynamics.

Lindblad master equation for small dense Hilbert spaces (dim <= 8):

    drho/dt = -i [H, rho] + sum_a k_a (c_a rho c_a+ - 1/2 {c_a+ c_a, rho})

with H in angular-frequency units (hbar = 1).  Propagation is fixed-step
classical RK4; the substep is chosen so the phase advanced per step,
h * max(rate_total, spectral radius of H), stays below a small budget.
Fixed steps keep output grids, and therefore any emitted tables,
bit-stable across runs.

Every propagator integrates a linear generator A(t) = A0 + f(t) A1: the
Liouvillian acting on the row-major vec(rho), or -iH acting on a state
vector for channel-free pure states.  On a linear system one RK4 step of
length h is a matrix, so each output interval's map is a product of
one-step maps.  A constant generator (propagate) powers one cached
step map P4(h A0), the degree-4 Taylor polynomial.  A modulated one
(propagate_modulated) builds the interval's step maps in batches of
bounded size and multiplies them pairwise, later steps on the left.
Both are stepwise RK4 with the products reassociated: deterministic,
equal to a literal step loop up to rounding.

A run returns one read-only (n_times, d, d) stack of states.  The
interval loop only chains raw maps; the raw chain is corrected and
checked once, at the end: pre-correction drifts are checked and kept as
diagnostics, every state is re-hermitized as (rho + rho+)/2 and trace
renormalized, and one batched eigvalsh checks positivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
# most negative eigenvalue tolerated in a stored output state; anything
# below is an integration failure, not integrator-scale noise
OUTPUT_POSITIVITY_TOL = 1e-8

# phase budget per internal RK4 substep; 0.05 is the documented accuracy
# bound, the default sits well below it so long runs keep eigenvalue
# error comfortably inside the 1e-8 positivity budget
DEFAULT_MAX_STEP_PHASE = 0.01
MAX_STEP_PHASE_LIMIT = 0.05

# pre-renormalization trace drift per output interval above which a run
# is considered broken
STEP_TRACE_DRIFT_LIMIT = 1e-6

# bytes one batch of RK4 step maps may occupy; the steps per batch follow
# from the map dimension (4096 for a 4 x 4 map, 16 for a 64 x 64 one)
BATCH_BYTES = 1 << 20


class DimensionMismatchError(ValueError):
    """Operands of a composite-space operation have incompatible shapes."""

    def __init__(self, message: str, *, left=None, right=None):
        super().__init__(message)
        self.left = left
        self.right = right


class IntegrationFailureError(RuntimeError):
    """Propagation exceeded its trace-drift budget or step limit."""


def _as_complex_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


class DensityOperator:
    """Validated density matrix: hermitian, unit trace, near-positive.

    Args:
        matrix: square complex array.
        positivity_tol: most negative eigenvalue tolerated.  Constructed
            states use the strict default; propagator outputs pass a
            slightly looser bound to admit integrator-scale noise.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix, *, positivity_tol: float = POSITIVITY_TOL):
        arr = _as_complex_matrix(matrix, "density matrix")
        herm = float(np.max(np.abs(arr - arr.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not hermitian: max |rho - rho+| = {herm:.3e}")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} differs from 1 beyond {TRACE_TOL:g}")
        arr = (arr + arr.conj().T) / 2.0
        w = np.linalg.eigvalsh(arr)
        if w[0] < -positivity_tol:
            raise ValueError(
                f"density matrix has eigenvalue {w[0]:.3e} below -{positivity_tol:g}"
            )
        arr.setflags(write=False)
        self._matrix = arr

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @classmethod
    def pure(cls, state, dim: int | None = None) -> "DensityOperator":
        """Density operator of a pure state, from a vector or basis index."""
        if isinstance(state, (int, np.integer)):
            if dim is None:
                raise ValueError("dim is required when constructing from a basis index")
            vec = np.zeros(dim, dtype=complex)
            vec[int(state)] = 1.0
        else:
            vec = np.asarray(state, dtype=complex).ravel()
            norm = np.linalg.norm(vec)
            if norm == 0:
                raise ValueError("zero state vector")
            vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)

    def population(self, index: int) -> float:
        return float(self._matrix[index, index].real)

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self._matrix)).copy()

    def expectation(self, op) -> complex:
        return complex(np.trace(np.asarray(op) @ self._matrix))

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityOperator(dim={self.dim})"


@dataclass(frozen=True)
class CollapseChannel:
    """Lindblad jump operator with its rate (angular frequency units)."""

    operator: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        arr = _as_complex_matrix(self.operator, "collapse operator").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "operator", arr)
        if self.rate < 0:
            raise ValueError(f"collapse rate must be >= 0, got {self.rate}")


@dataclass
class PropagationDiagnostics:
    """Pre-correction integration quality figures, extrema over the run."""

    max_step_trace_drift: float = 0.0
    max_hermiticity_residual: float = 0.0
    min_eigenvalue: float = np.inf
    n_substeps: int = 0

    def merge(self, other: "PropagationDiagnostics") -> "PropagationDiagnostics":
        return PropagationDiagnostics(
            max_step_trace_drift=max(self.max_step_trace_drift, other.max_step_trace_drift),
            max_hermiticity_residual=max(
                self.max_hermiticity_residual, other.max_hermiticity_residual
            ),
            min_eigenvalue=min(self.min_eigenvalue, other.min_eigenvalue),
            n_substeps=self.n_substeps + other.n_substeps,
        )


@dataclass
class PropagationResult:
    """States on the requested grid as one read-only stack, plus diagnostics.

    matrices has shape (n_times, d, d); res[i] wraps matrices[i] in a
    DensityOperator on demand.
    """

    times: np.ndarray
    matrices: np.ndarray
    diagnostics: PropagationDiagnostics = field(default_factory=PropagationDiagnostics)

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, i: int) -> DensityOperator:
        return DensityOperator(self.matrices[i], positivity_tol=OUTPUT_POSITIVITY_TOL)

    def populations(self) -> np.ndarray:
        """Diagonal of every stored state, shape (n_times, dim)."""
        return np.real(np.diagonal(self.matrices, axis1=1, axis2=2)).copy()


def liouvillian(hamiltonian, channels: Sequence[CollapseChannel]) -> np.ndarray:
    """Matrix L with vec(drho/dt) = L vec(rho), row-major vectorization."""
    h = _as_complex_matrix(hamiltonian, "hamiltonian")
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for ch in channels:
        c = ch.operator
        if c.shape != h.shape:
            raise DimensionMismatchError(
                f"collapse operator {c.shape} and hamiltonian {h.shape} dimensions differ",
                left=c.shape,
                right=h.shape,
            )
        cdc = c.conj().T @ c
        lv += ch.rate * (
            np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
        )
    return lv


def _rk4_step_matrix(lv: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 map for the linear system: P4(hL) acting on vec(rho)."""
    eye = np.eye(lv.shape[0], dtype=complex)
    hl = h * lv
    return eye + hl @ (eye + hl @ (eye / 2.0 + hl @ (eye / 6.0 + hl / 24.0)))


def _hamiltonian_norm(h) -> float:
    """Step-control scale of an operator: a bound on its spectral radius.

    Hermitian operators get the exact radius; anything else falls back
    to the Frobenius norm, which bounds the spectral norm from above.
    A max-entry norm is not enough here: it can undershoot the radius by
    a factor of the dimension and starve the step control.
    """
    arr = np.asarray(h, dtype=complex)
    if arr.size == 0:
        return 0.0
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        return 0.0
    if np.max(np.abs(arr - arr.conj().T)) <= 1e-12 * scale:
        w = np.linalg.eigvalsh(arr)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.norm(arr))


def total_rate(channels: Sequence[CollapseChannel]) -> float:
    """Step-control rate scale: sum of rate * ||c+c||_max over channels."""
    tot = 0.0
    for ch in channels:
        cdc = ch.operator.conj().T @ ch.operator
        tot += ch.rate * float(np.max(np.abs(cdc)))
    return tot


def _check_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a 1-D array with at least one point")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def _check_phase(max_step_phase: float) -> None:
    if not 0 < max_step_phase <= MAX_STEP_PHASE_LIMIT:
        raise ValueError(
            f"max_step_phase must lie in (0, {MAX_STEP_PHASE_LIMIT}], got {max_step_phase}"
        )


def _record(
    maps, v0: np.ndarray, rho0: DensityOperator, t: np.ndarray, pure: bool, limit: float
) -> PropagationResult:
    """Chain raw interval maps from v0 (vec(rho0), or a state vector when pure).

    The raw chain is corrected and checked once, at the end, in order:
    the first interval whose drift |tr_{k+1}/tr_k - 1| (squared norms when
    pure) is not within limit raises; hermitize and renormalize (or
    normalize and take outer products); one batched eigvalsh.  The maps
    are linear and, exactly, trace and hermiticity preserving, so this
    differs from correcting between intervals by rounding only.
    """
    raw, n_substeps = [v0], 0
    # a broken run may overflow on the way; the drift check reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n_sub, m in maps:
            raw.append(m @ raw[-1])
            n_substeps += n_sub
        v = np.array(raw)
        if pure:
            size = np.einsum("ki,ki->k", v.conj(), v).real
        else:
            v = v.reshape(-1, rho0.dim, rho0.dim)
            size = np.trace(v, axis1=1, axis2=2).real
        drift = np.abs(size[1:] / size[:-1] - 1.0)
    bad = np.flatnonzero(~(drift <= limit))
    if bad.size:
        k = int(bad[0])
        raise IntegrationFailureError(
            f"trace drifted by {drift[k]:.3e} over step [{t[k]:g}, {t[k + 1]:g}] "
            f"(limit {limit:g}); reduce max_step_phase"
        )
    diag = PropagationDiagnostics(float(drift.max(initial=0.0)), n_substeps=n_substeps)
    if pure:
        # outer products of normalized vectors: hermitian by construction,
        # so no residual to record
        psi = v / np.sqrt(size)[:, None]
        stack = np.einsum("ki,kj->kij", psi, psi.conj())
    else:
        vh = v.conj().swapaxes(1, 2)
        diag.max_hermiticity_residual = float(np.abs(v - vh).max())
        stack = (v + vh) / 2.0
        stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
    stack[0] = rho0.matrix
    w = np.linalg.eigvalsh(stack)[:, 0]
    diag.min_eigenvalue = float(w.min())
    bad = np.flatnonzero(w < -OUTPUT_POSITIVITY_TOL)
    if bad.size:
        k = int(bad[0])
        raise IntegrationFailureError(
            f"output state at t={t[k]:g} has eigenvalue {w[k]:.3e} below "
            f"-{OUTPUT_POSITIVITY_TOL:g}; reduce max_step_phase"
        )
    stack.setflags(write=False)
    return PropagationResult(times=t, matrices=stack, diagnostics=diag)


def _pure_state_of(rho: DensityOperator) -> np.ndarray | None:
    """Normalized state vector if rho is numerically pure, else None."""
    w, u = np.linalg.eigh(rho.matrix)
    if w[-1] < 1.0 - 1e-12:
        return None
    psi = u[:, -1].astype(complex)
    return psi / np.linalg.norm(psi)


def _rk4_step_maps(a0, a1, envelope, ends: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 maps of dv/dt = (a0 + envelope(t) a1) v, shape (n, D, D).

    Step j runs from ends[j] to ends[j + 1].  Literal RK4 on a linear
    system, written on matrices: K1 = A(ta), K2 = A(tm)(I + h/2 K1),
    K3 = A(tm)(I + h/2 K2), K4 = A(tb)(I + h K3), and the step map is
    I + h/6 (K1 + 2 K2 + 2 K3 + K4).
    """
    f_ends = np.fromiter(map(envelope, ends.tolist()), dtype=float, count=ends.size)
    mids = (ends[:-1] + 0.5 * h).tolist()
    f_mids = np.fromiter(map(envelope, mids), dtype=float, count=len(mids))
    a_ends = a0 + f_ends[:, None, None] * a1
    a_mid = a0 + f_mids[:, None, None] * a1
    k1 = a_ends[:-1]
    k2 = a_mid + (0.5 * h) * (a_mid @ k1)
    k3 = a_mid + (0.5 * h) * (a_mid @ k2)
    k4 = a_ends[1:] + h * (a_ends[1:] @ k3)
    return np.eye(a0.shape[0]) + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _compose(maps: np.ndarray) -> np.ndarray:
    """maps[-1] @ ... @ maps[0] by pairwise (tree) products.

    Each level multiplies neighbours, the later map on the left, and
    carries an unpaired last map up unchanged.
    """
    while len(maps) > 1:
        paired = maps[1::2] @ maps[:-1:2]
        maps = np.concatenate((paired, maps[-1:])) if len(maps) % 2 else paired
    return maps[0]


def _interval_maps(t: np.ndarray, scale: float, max_step_phase: float, a0, a1=None, envelope=None):
    """RK4 map of dv/dt = (a0 + envelope(t) a1) v over each grid interval.

    Yields (n_sub, map) per interval: n_sub equal substeps keep the phase
    dt * scale / n_sub at or below max_step_phase.  Without a1 the
    generator is constant and the map is P4(h a0) raised to n_sub,
    cached by (h, n_sub).  With a1 the interval's one-step maps are
    built in batches of at most BATCH_BYTES and multiplied pairwise,
    later steps on the left.
    """
    dt = np.diff(t)
    n_subs = np.ones(dt.size, dtype=int)
    if scale > 0:
        n_subs = np.maximum(np.ceil(dt * scale / max_step_phase), 1).astype(int)
    cache: dict[tuple[float, int], np.ndarray] = {}
    chunk = max(1, BATCH_BYTES // (16 * a0.shape[0] ** 2))
    for t0, h, n_sub in zip(t[:-1].tolist(), (dt / n_subs).tolist(), n_subs.tolist()):
        if a1 is None:
            if (h, n_sub) not in cache:
                cache[h, n_sub] = np.linalg.matrix_power(_rk4_step_matrix(a0, h), n_sub)
            yield n_sub, cache[h, n_sub]
            continue
        m = None
        for j0 in range(0, n_sub, chunk):
            ends = t0 + np.arange(j0, min(j0 + chunk, n_sub) + 1) * h
            part = _compose(_rk4_step_maps(a0, a1, envelope, ends, h))
            m = part if m is None else part @ m
        yield n_sub, m


def propagate(
    hamiltonian,
    channels: Sequence[CollapseChannel],
    rho0: DensityOperator,
    t_grid,
    *,
    max_step_phase: float = DEFAULT_MAX_STEP_PHASE,
    trace_drift_limit: float = STEP_TRACE_DRIFT_LIMIT,
) -> PropagationResult:
    """Propagate a density matrix over t_grid with fixed-step RK4.

    Args:
        hamiltonian: constant matrix (rad/s).  A piecewise-constant
            Hamiltonian runs each constant piece as its own call from
            the previous piece's final state (see the pulsed
            simulators); a linearly modulated one goes through
            propagate_modulated.
        channels: Lindblad collapse channels.
        rho0: initial state.
        t_grid: strictly increasing sample times; the state is stored at
            every grid point.  Internal substeps subdivide each interval
            so that the phase advanced per substep, h times the larger
            of the total rate and the Hamiltonian spectral radius, stays
            at or below max_step_phase.
        max_step_phase: phase budget per substep, at most 0.05.
        trace_drift_limit: pre-renormalization trace drift per interval
            above which the run aborts.

    Returns:
        PropagationResult holding one read-only (n_times, d, d) stack of
        the states at the grid points and pre-correction drift
        diagnostics.  The raw chain of interval maps is corrected and
        checked once, at the end: an interval whose trace drift exceeds
        trace_drift_limit raises IntegrationFailureError naming it, then
        every state is re-hermitized and trace renormalized, and a state
        with an eigenvalue below -OUTPUT_POSITIVITY_TOL raises
        IntegrationFailureError naming its time.
    """
    t = _check_grid(t_grid)
    _check_phase(max_step_phase)
    d = rho0.dim
    h = _as_complex_matrix(hamiltonian, "hamiltonian")
    if h.shape[0] != d:
        raise DimensionMismatchError(
            f"hamiltonian {h.shape} and state dim {d} differ",
            left=h.shape,
            right=(d, d),
        )
    scale = max(total_rate(channels), _hamiltonian_norm(h))
    maps = _interval_maps(t, scale, max_step_phase, liouvillian(h, channels))
    return _record(maps, rho0.matrix.reshape(-1), rho0, t, False, trace_drift_limit)


def propagate_modulated(
    h_static,
    h_drive,
    envelope: Callable[[float], float],
    channels: Sequence[CollapseChannel],
    rho0: DensityOperator,
    t_grid,
    *,
    envelope_bound: float = 1.0,
    max_step_phase: float = DEFAULT_MAX_STEP_PHASE,
    trace_drift_limit: float = STEP_TRACE_DRIFT_LIMIT,
) -> PropagationResult:
    """Propagate under H(t) = h_static + envelope(t) * h_drive.

    Same stepping rule and bookkeeping as propagate, for the linearly
    modulated generator L0 + f(t) L1.  envelope_bound must bound
    |envelope| over the run (used for step control).  A channel-free
    pure state is integrated as a state vector under -iH(t), which
    keeps the density matrix positive by construction and shrinks the
    working dimension from d^2 to d.
    """
    t = _check_grid(t_grid)
    _check_phase(max_step_phase)
    if envelope_bound < 0:
        raise ValueError("envelope_bound must be >= 0")
    d = rho0.dim
    h0 = _as_complex_matrix(h_static, "h_static")
    h1 = _as_complex_matrix(h_drive, "h_drive")
    if h0.shape != (d, d) or h1.shape != (d, d):
        raise DimensionMismatchError(
            f"hamiltonian parts {h0.shape}/{h1.shape} and state dim {d} differ",
            left=h0.shape,
            right=(d, d),
        )
    scale = max(
        total_rate(channels),
        _hamiltonian_norm(h0) + envelope_bound * _hamiltonian_norm(h1),
    )
    psi = None if channels else _pure_state_of(rho0)
    if psi is not None:
        v0, a0, a1 = psi, -1j * h0, -1j * h1
    else:
        # the drive part carries no dissipator
        v0, a0, a1 = rho0.matrix.reshape(-1), liouvillian(h0, channels), liouvillian(h1, ())
    maps = _interval_maps(t, scale, max_step_phase, a0, a1, envelope)
    return _record(maps, v0, rho0, t, psi is not None, trace_drift_limit)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two operators on factor spaces A and B."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite state, or of a stack of them.

    Args:
        rho: matrix on the product space, shape (..., dA*dB, dA*dB),
            factor A first (slow index); leading axes are batch axes.
        dims: (dA, dB).
        keep: 0 to keep factor A, 1 to keep factor B.
    """
    da, db = dims
    r = np.asarray(rho, dtype=complex)
    if r.shape[-2:] != (da * db, da * db):
        raise DimensionMismatchError(
            f"state shape {r.shape} does not match factor dims {dims}",
            left=r.shape,
            right=(da * db, da * db),
        )
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (factor A) or 1 (factor B)")
    t = r.reshape(*r.shape[:-2], da, db, da, db)
    if keep == 0:
        return np.einsum("...ajbj->...ab", t)
    return np.einsum("...iaib->...ab", t)
