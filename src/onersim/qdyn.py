"""Open-system density matrix dynamics.

Lindblad master equation for small dense Hilbert spaces (dim <= 8):

    drho/dt = -i [H, rho] + sum_a k_a (c_a rho c_a+ - 1/2 {c_a+ c_a, rho})

with H in angular-frequency units (hbar = 1).  Propagation is fixed-step
classical RK4 on a lattice: a piece of time of length L gets
N = ceil(L * scale / max_step_phase) equal steps, scale being the larger
of the total rate and the spectral radius of the piece's Hamiltonian, so
the phase advanced per step stays below a small budget and no RK4 stage
crosses a piece boundary.  A periodic drive is given as one period that
starts at the first grid time and repeats: (length, H) pieces for
propagate, the modulation period for propagate_modulated.  Without a
period the run is one piece that spans the grid.  Fixed steps keep output
grids, and therefore any emitted tables, bit-stable across runs.

Every propagator integrates a linear generator A(t) = A0 + f(t) A1: the
Liouvillian acting on the row-major vec(rho), or -iH acting on a state
vector for channel-free pure states.  One RK4 step is then a matrix, and
each piece's maps are built once per run: the powers P^(2^b) of a
constant piece's step map, on the samples or, when S stops serve R > S D
samples, on prefix tables P^s; a modulated piece's step maps (a GEMM of
envelope monomials and 12 coefficients per bounded batch) and their
products at the samples (one segmented pairwise pass per batch).  Piece
maps carry the state through each period that holds a sample, powers
U^(2^b) of the period map skip the others, and prefixes reach stops that
recur across periods by one GEMM on the period states.  A sample off the
lattice takes one shorter RK4 step on the vector after a prefix of its piece,
under a constant A as the degree-4 Taylor polynomial of dt A, by Horner.
This is stepwise RK4 with the products reassociated: deterministic, and
equal to a literal step loop on the same lattice up to rounding.
n_substeps counts the steps of that loop: the lattice steps up to the
last sample, plus one per sample off the lattice.

A run returns one read-only (n_times, d, d) stack of states.  The raw
states are corrected and checked once, at the end: pre-correction drifts
are checked and kept as diagnostics, every state is re-hermitized as
(rho + rho+)/2 and trace renormalized, and positivity is checked in
closed form at d = 2, by one batched eigvalsh above.
"""

from __future__ import annotations

import functools
import itertools
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

# bytes one batch of RK4 step maps may hold, its temporaries included
# (_step_bytes per step): 1024 steps of 4 x 4 maps, 6 of 64 x 64 ones
BATCH_BYTES = 1 << 20
# stacks of a column block counted for building _Piece.poly: six live at
# once (the identity block, a stage, its input and three matrix products),
# two more cover the buffers of matmul and np.roll
_POLY_STACKS = 8


class DimensionMismatchError(ValueError):
    """Operands of a composite-space operation have incompatible shapes."""


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
    lv = -1j * (kron(h, eye) - kron(eye, h.T))
    for ch in channels:
        c = ch.operator
        if c.shape != h.shape:
            raise DimensionMismatchError(
                f"collapse operator {c.shape} and hamiltonian {h.shape} dimensions differ"
            )
        cdc = c.conj().T @ c
        lv += ch.rate * (
            kron(c, c.conj()) - 0.5 * (kron(cdc, eye) + kron(eye, cdc.T))
        )
    return lv


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
    """Step-control rate scale: sum of rate * (spectral radius of c+c) over channels."""
    tot = 0.0
    for ch in channels:
        tot += ch.rate * _hamiltonian_norm(ch.operator.conj().T @ ch.operator)
    return tot


def _check_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a 1-D array with at least one point")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid must hold finite times only")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def _check_phase(max_step_phase: float) -> None:
    if not 0 < max_step_phase <= MAX_STEP_PHASE_LIMIT:
        raise ValueError(
            f"max_step_phase must lie in (0, {MAX_STEP_PHASE_LIMIT}], got {max_step_phase}"
        )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _record(
    v: np.ndarray, n_substeps: int, rho0: DensityOperator, t: np.ndarray, pure: bool, limit: float
) -> PropagationResult:
    """Correct and check the raw vectors at t (vec(rho), or state vectors when pure).

    A pure run's vectors become their outer products, whose traces are
    the squared norms.  Then one batched pass, in order: the first
    interval whose drift |tr_{k+1}/tr_k - 1| is not within limit raises;
    hermitize and divide by those traces, which hermitizing keeps;
    _min_eigenvalues.  The maps are linear and, exactly, trace and
    hermiticity preserving, so this differs from correcting between
    intervals by rounding only.  A broken run may overflow on the way;
    the drift check reports it.
    """
    if pure:
        v = np.einsum("ki,kj->kij", v, v.conj())
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
    vh = v.conj().swapaxes(1, 2)
    diag.max_hermiticity_residual = float(np.abs(v - vh).max())
    stack = (v + vh) / 2.0
    stack /= size[:, None, None]
    stack[0] = rho0.matrix
    w = _min_eigenvalues(stack)
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


def _min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each hermitian matrix in stack; in closed form at d = 2."""
    if stack.shape[-1] != 2:
        return np.linalg.eigvalsh(stack)[:, 0]
    a, d = stack[:, 0, 0].real, stack[:, 1, 1].real
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(stack[:, 0, 1]))


def _pure_state_of(rho: DensityOperator) -> np.ndarray | None:
    """Normalized state vector if rho is numerically pure, else None."""
    w, u = np.linalg.eigh(rho.matrix)
    if w[-1] < 1.0 - 1e-12:
        return None
    psi = u[:, -1].astype(complex)
    return psi / np.linalg.norm(psi)


def _rk4(a_start, a_mid, a_end, dt, x: np.ndarray) -> np.ndarray:
    """One RK4 step of dx/dt = A(t) x on each row x[r], from A(t) at its start, middle and end.

    dt is one value or one per row; each A is one matrix (one GEMM on all
    rows) or one per row.  The stages are summed as they come.
    """
    dt = np.reshape(dt, (-1, 1))
    act = lambda a, y: y @ a.T if a.ndim == 2 else np.einsum("rij,rj->ri", a, y)
    k = act(a_start, x)
    out = x + (dt / 6.0) * k
    for a, c, w in ((a_mid, 0.5, 3.0), (a_mid, 0.5, 3.0), (a_end, 1.0, 6.0)):
        k = act(a, x + (c * dt) * k)
        out += (dt / w) * k
    return out


def _taylor(a, dt, x: np.ndarray) -> np.ndarray:
    """_rk4(a, a, a, dt, x) for per-row dt: the degree-4 Taylor polynomial of dt A, by Horner."""
    z = x
    for m in (4.0, 3.0, 2.0, 1.0):
        z = x + (dt[:, None] / m) * (z @ a.T)
    return z


def _step_bytes(dim: int) -> int:
    """Bytes per step of a batch of step maps: its map, 3/2 maps of pass temporaries, 48 floats."""
    return 40 * dim * dim + 8 * 48


@dataclass(frozen=True)
class _Piece:
    """n RK4 steps of length h from t0 under A(t) = a0 + envelope(t) a1; a1 None is constant.

    A constant piece's step map is _rk4 on the identity; a modulated
    step's map is a polynomial in the envelope (poly), built once.
    """

    a0: np.ndarray
    a1: np.ndarray | None
    envelope: Callable[[np.ndarray], np.ndarray | float] | None
    t0: float
    h: float
    n: int

    def f(self, t: np.ndarray) -> np.ndarray:
        """The envelope at each time in t: one call on the array, a scalar result broadcast."""
        return np.broadcast_to(np.asarray(self.envelope(t), dtype=float), t.shape)

    def at(self, t: np.ndarray) -> np.ndarray:
        """A(t) of a modulated piece at each time in t, shape (len(t), D, D)."""
        return self.a0 + self.f(t)[:, None, None] * self.a1

    @functools.cached_property
    def poly(self) -> np.ndarray:
        """Coefficients of the step map minus I, f_s^a f_m^b f_e^c in row [a, b, c], as reals.

        f_s, f_m, f_e are the envelope at a step's start, middle and end,
        a, c <= 1 and b <= 2: the coefficients sum the 30 words of length
        1 to 4 in h a0 and h a1.  The RK4 stages run on such polynomials;
        A(t) = a0 + f a1 raises the power of f at t within its axis, so
        np.roll wraps zeros.  The stages multiply from the left only, so
        the identity's columns are built in blocks: the output and
        _POLY_STACKS stacks of a block's width fit in BATCH_BYTES, and a
        bound without room for one column raises ValueError.
        """
        d = self.a0.shape[0]
        column = 12 * d * 16  # bytes of one column of the 12 complex matrices
        width = (BATCH_BYTES - column * d) // (_POLY_STACKS * column)
        if width < 1:
            raise ValueError(
                f"BATCH_BYTES = {BATCH_BYTES} cannot hold the step-map polynomial of a "
                f"{d} x {d} generator, which needs {column * (d + _POLY_STACKS)} bytes"
            )
        out = np.zeros((2, 3, 2, d, d), dtype=complex)
        times = lambda axis, p: self.a0 @ p + np.roll(self.a1 @ p, 1, axis)
        for c0 in range(0, d, width):
            block = out[..., c0 : c0 + width]  # a view: the stages add into out
            eye = np.zeros_like(block)
            eye[0, 0, 0] = np.eye(d)[:, c0 : c0 + width]
            k = 0.0
            for axis, c, w in ((0, 0.0, 6.0), (1, 0.5, 3.0), (1, 0.5, 3.0), (2, 1.0, 6.0)):
                k = times(axis, eye + (c * self.h) * k)
                block += (self.h / w) * k
        return out.reshape(12, -1).view(float)

    def step_maps(self, j0: int, j1: int) -> np.ndarray:
        """RK4 maps of lattice steps j0 .. j1 - 1, shape (j1 - j0, D, D)."""
        d = self.a0.shape[0]
        if self.a1 is None:
            # the rows of _rk4 on the identity are the step map's columns
            step = _rk4(self.a0, self.a0, self.a0, self.h, np.eye(d, dtype=complex)).T
            return np.tile(step, (j1 - j0, 1, 1))
        # the envelope at the steps' starts, middles and ends, from one call
        f = self.f(self.t0 + np.arange(2 * j0, 2 * j1 + 1) * (0.5 * self.h))
        se = np.vander(f[::2], 2, increasing=True)
        mono = np.einsum("ra,rb,rc->rabc", se[:-1], np.vander(f[1::2], 3, increasing=True), se[1:])
        maps = (mono.reshape(-1, 12) @ self.poly).view(complex)
        # the identity last, so entries near 1 are rounded once
        maps[:, :: d + 1] += 1.0
        return maps.reshape(j1 - j0, d, d)


def _prefixes(piece: _Piece, stops: np.ndarray):
    """Yield (s, Q) per batch of step maps: Q[r] = M_{s[r]-1} ... M_0 at the stops s it completes.

    stops ascend, 0 < stops <= piece.n.  The maps up to the last stop are
    built once, in batches holding at most BATCH_BYTES.  Per batch, each
    run of maps between neighbouring stops is multiplied as a tree (each
    level pairs a run's even positions with their successors, later map
    on the left), and a running product over the runs gives the prefixes.
    """
    d = piece.a0.shape[0]
    q, last = np.eye(d, dtype=complex), int(stops.max(initial=0))
    chunk = max(1, BATCH_BYTES // _step_bytes(d))
    for lo in range(0, last, chunk):
        hi = min(lo + chunk, last)
        maps, seg = piece.step_maps(lo, hi), np.searchsorted(stops, np.arange(lo, hi), side="right")
        while True:
            lead = (np.arange(seg.size) - np.searchsorted(seg, seg)) % 2 == 0
            pair = np.flatnonzero(lead[:-1] & (seg[1:] == seg[:-1]))
            if not pair.size:
                break
            maps[pair] = maps[pair + 1] @ maps[pair]
            maps, seg = maps[lead], seg[lead]
        run = list(itertools.accumulate(maps, lambda acc, p: p @ acc, initial=q))
        q, done = run[-1], stops[seg] <= hi
        if done.any():
            yield stops[seg[done]], np.array(run[1:])[done]


def _piece_maps(piece: _Piece, stops: np.ndarray):
    """The piece map M_{n-1} ... M_0, and advance(v, k, j): rows M_{j[r]-1} ... M_0 v[k[r]].

    stops holds the distinct j > 0 advance will get.  A constant piece
    applies the powers P^(2^b) of its step map for the set bits of j to
    the R rows (R D^2 per bit) or, when S D < R and three stacks of S maps
    fit in half of BATCH_BYTES, to the tables P^s at the S stops (S D^3
    per bit).  A modulated piece keeps its prefixes at the stops, unless
    they would take more than BATCH_BYTES: then advance builds the step
    maps again.  Tables and prefixes reach the rows through _gather.
    """
    d = piece.a0.shape[0]
    if piece.a1 is None:
        step = piece.step_maps(0, 1)[0]

        def powers(top):
            # squared again on each use, so one power is held at a time
            p = step
            for b in range(int(top).bit_length()):
                p = p @ p if b else p
                yield b, p

        # low bits first, as np.linalg.matrix_power multiplies them
        full = functools.reduce(np.matmul, (p for b, p in powers(piece.n) if piece.n >> b & 1))

        def advance(v, k, j):
            tables = 0 < stops.size * d < j.size and 96 * stops.size * d * d <= BATCH_BYTES
            x, e, bits = (None, stops, powers(stops[-1])) if tables else (v[k], j, powers(j.max()))
            if tables:
                # P^c for c < 2^lo <= S by doubling; the rows of (P^s)^T step like state rows
                lo = stops.size.bit_length() - 1
                x = np.tile(np.eye(d) + 0j, (1 << lo, 1, 1))
                for b, p in itertools.islice(bits, lo):
                    x[1 << b : 2 << b] = (x[: 1 << b].reshape(-1, d) @ p.T).reshape(-1, d, d)
                x = x[stops & (1 << lo) - 1]
            for b, p in bits:
                r = np.flatnonzero(e >> b & 1)
                x[r] = (x[r].reshape(-1, d) @ p.T).reshape(-1, *x.shape[1:])
            return _gather(v, k, j, [(stops, x.swapaxes(1, 2))]) if tables else x

        return full, advance
    kept = (stops.size + 1) * 16 * piece.a0.size <= BATCH_BYTES
    walk = list(_prefixes(piece, np.union1d(stops, piece.n) if kept else np.array([piece.n])))
    advance = lambda v, k, j: _gather(v, k, j, walk if kept else _prefixes(piece, stops))
    return walk[-1][1][-1], advance


def _gather(v: np.ndarray, k: np.ndarray, j: np.ndarray, batches) -> np.ndarray:
    """Rows Q v[k[r]], Q the prefix at j[r] in its batch (s, prefixes at s); v[k[r]] at j[r] = 0.

    Each row is written once.  A batch with at most twice as many (stop,
    state) pairs as rows acts on every state by one GEMM; otherwise its rows
    gather their prefixes and states for a batched matvec, in chunks that
    take at most half of BATCH_BYTES.
    """
    y, d, zero = np.empty((k.size, v.shape[1]), dtype=complex), v.shape[1], j == 0
    y[zero] = v[k[zero]]
    for s, q in batches:
        sel = np.flatnonzero((j >= s[0]) & (j <= s[-1]))
        if s.size * v.shape[0] <= 2 * sel.size:
            z = (q.reshape(-1, d) @ v.T).reshape(s.size, d, -1)
            y[sel] = z[np.searchsorted(s, j[sel]), :, k[sel]]
            continue
        for r in np.array_split(sel, 1 + sel.size * (32 * d * d + 64 * d + 48) // BATCH_BYTES):
            y[r] = np.einsum("rij,rj->ri", q[np.searchsorted(s, j[r])], v[k[r]])
    return y


def _locate(t: np.ndarray, bounds: np.ndarray, h: np.ndarray):
    """Lattice coordinates (k, i, j, dt): t sits dt past point j of piece i in period k.

    An offset within a few rounding units of a lattice point sits on it.
    A later period start is the end of the period before, i = len(bounds) - 1.
    """
    k, s = np.divmod(t - t[0], bounds[-1])
    i = np.searchsorted(bounds, s, side="right") - 1
    j = np.floor((s - bounds[i]) / h[i])
    dt = s - bounds[i] - j * h[i]
    tol = 32 * np.finfo(float).eps * float(np.abs(t).max())
    up = h[i] - dt <= tol
    j[up] += 1
    dt[up | (dt <= tol)] = 0.0
    back = (i == 0) & (j == 0) & (dt == 0.0) & (k > 0)
    k[back] -= 1
    i[back] = bounds.size - 1
    return k.astype(int), i, j.astype(int), dt


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _lattice(gens, lengths, envelope, t: np.ndarray, v0: np.ndarray, phase: float):
    """Raw vectors at the sample times t, and the RK4 steps they stand for.

    Piece i of a period repeated from t[0] is lengths[i] long and driven
    by gens[i] = (scale, a0, a1); without lengths the period is one piece
    that spans t.  t ascends, so k does too and the bookkeeping sorts, not
    hashes.  Samples at piece starts are copied from the chain; the rest
    are their piece's advance and remainder step (_taylor, on all rows, if
    the piece is constant).  _record reports an overflow on the way.
    """
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=float)
        if not (lengths.size and np.all(np.isfinite(lengths) & (lengths > 0))):
            raise ValueError("a period needs one or more pieces of finite length > 0")
    if t.size == 1:
        return v0[None].astype(complex), 0
    bounds = np.concatenate(([0.0], np.cumsum([t[-1] - t[0]] if lengths is None else lengths)))
    lengths = np.diff(bounds)
    n = np.maximum(np.ceil(lengths * [g[0] for g in gens] / phase), 1).astype(int)
    h = lengths / n
    k, i, j, dt = _locate(t, bounds, h)
    inner = (j > 0) | (dt > 0)
    busy = np.flatnonzero(np.bincount(i[inner], minlength=len(gens))).tolist()
    stops = {q: np.sort(j[(i == q) & (j > 0)]) for q in busy}
    stops = {q: s[np.diff(s, prepend=0) > 0] for q, s in stops.items()}  # distinct, as j > 0
    pieces = [
        _Piece(a0, a1, envelope, t[0] + b, hq, nq)
        for (_, a0, a1), b, hq, nq in zip(gens, bounds.tolist(), h.tolist(), n.tolist())
    ]
    maps = [_piece_maps(p, stops.get(q, np.zeros(0, int))) for q, p in enumerate(pieces)]

    # the state entering every piece of each period that holds a sample
    new = np.diff(k, prepend=-1) > 0
    need, row = k[new], np.cumsum(new) - 1
    chain = np.empty((need.size, len(pieces) + 1, v0.size), dtype=complex)
    # periods without samples: U^(2^b) of the period map U for the set bits of the gap
    period = lambda: functools.reduce(lambda acc, m: m[0] @ acc, maps[1:], maps[0][0])
    v, at, squares = v0, 0, []
    for r, kk in enumerate(need.tolist()):
        for b in range((kk - at).bit_length()):
            if b == len(squares):
                squares.append(squares[-1] @ squares[-1] if b else period())
            if kk - at >> b & 1:
                v = squares[b] @ v
        chain[r, 0] = v
        for q, (full, _) in enumerate(maps):
            chain[r, q + 1] = full @ chain[r, q]
        v, at = chain[r, -1], kk + 1

    raw = np.empty((t.size, v0.size), dtype=complex)
    edge = np.flatnonzero(~inner)
    raw[edge] = chain[row[edge], i[edge]]
    for q in busy:
        sel = np.flatnonzero(inner & (i == q))
        js, ds, p = j[sel], dt[sel], pieces[q]
        y = maps[q][1](chain[:, q], row[sel], js)
        if p.a1 is None:  # on every row: at dt = 0 the polynomial is the identity
            y = _taylor(p.a0, ds, y)
        else:
            off = ds > 0
            ta, ds = p.t0 + js[off] * p.h, ds[off]
            y[off] = _rk4(p.at(ta), p.at(ta + 0.5 * ds), p.at(ta + ds), ds, y[off])
        raw[sel] = y
    # the lattice steps up to the last sample, and one remainder step per sample off it
    first = np.concatenate(([0], np.cumsum(n))).tolist()
    return raw, int(k[-1]) * first[-1] + first[i[-1]] + int(j[-1]) + int(np.count_nonzero(dt))


def propagate(
    hamiltonian,
    channels: Sequence[CollapseChannel],
    rho0: DensityOperator,
    t_grid,
    *,
    period: Sequence[tuple[float, np.ndarray]] | None = None,
    max_step_phase: float = DEFAULT_MAX_STEP_PHASE,
) -> PropagationResult:
    """Propagate a density matrix over t_grid with fixed-step RK4.

    Args:
        hamiltonian: constant matrix (rad/s), or None when period is
            given.  A linearly modulated Hamiltonian goes through
            propagate_modulated.
        channels: Lindblad collapse channels.
        rho0: initial state.
        t_grid: strictly increasing sample times; the state is stored at
            every grid point.
        period: one period of a piecewise-constant Hamiltonian as
            (length, H) pieces in time order, repeated from t_grid[0];
            grid points may fall anywhere in it.  Without it, the run
            is one piece that spans t_grid (see the module docstring).
        max_step_phase: phase budget per substep, at most 0.05.

    Returns:
        PropagationResult holding one read-only (n_times, d, d) stack of
        the states at the grid points and pre-correction drift
        diagnostics.  The raw states are corrected and checked once, at
        the end: an interval whose trace drift exceeds
        STEP_TRACE_DRIFT_LIMIT raises IntegrationFailureError naming it,
        then every state is re-hermitized and trace renormalized, and a
        state with an eigenvalue below -OUTPUT_POSITIVITY_TOL raises
        IntegrationFailureError naming its time.
    """
    t = _check_grid(t_grid)
    _check_phase(max_step_phase)
    if (hamiltonian is None) == (period is None):
        raise ValueError("give either a constant hamiltonian or a period of (length, H) pieces")
    parts = [(None, hamiltonian)] if period is None else list(period)
    d, gens, rate = rho0.dim, [], total_rate(channels)
    for _, hp in parts:
        h = _as_complex_matrix(hp, "hamiltonian")
        if h.shape[0] != d:
            raise DimensionMismatchError(f"hamiltonian {h.shape} and state dim {d} differ")
        scale = max(rate, _hamiltonian_norm(h))
        gens.append((scale, liouvillian(h, channels), None))
    lengths = None if period is None else [length for length, _ in parts]
    raw = _lattice(gens, lengths, None, t, rho0.matrix.reshape(-1), max_step_phase)
    return _record(*raw, rho0, t, False, STEP_TRACE_DRIFT_LIMIT)


def propagate_modulated(
    h_static,
    h_drive,
    envelope: Callable[[np.ndarray], np.ndarray | float],
    channels: Sequence[CollapseChannel],
    rho0: DensityOperator,
    t_grid,
    *,
    envelope_bound: float = 1.0,
    period: float | None = None,
    max_step_phase: float = DEFAULT_MAX_STEP_PHASE,
) -> PropagationResult:
    """Propagate under H(t) = h_static + envelope(t) * h_drive.

    Same lattice rule and bookkeeping as propagate, for the linearly
    modulated generator L0 + f(t) L1.  envelope is called with a 1-D
    float array of times and returns the envelope at each, as an array
    of that shape or one scalar for all of them.  envelope_bound must
    bound |envelope| over the run (used for step control).  period is
    the envelope's period, one piece repeated from t_grid[0], or None for
    one piece that spans t_grid.
    A channel-free pure state is integrated as a state vector under
    -iH(t), which keeps the density matrix positive by construction and
    shrinks the working dimension from d^2 to d.
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
            f"hamiltonian parts {h0.shape}/{h1.shape} and state dim {d} differ"
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
    lengths = None if period is None else [period]
    raw = _lattice([(scale, a0, a1)], lengths, envelope, t, v0, max_step_phase)
    return _record(*raw, rho0, t, psi is not None, STEP_TRACE_DRIFT_LIMIT)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two operators on factor spaces A and B."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


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
        raise DimensionMismatchError(f"state shape {r.shape} does not match factor dims {dims}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (factor A) or 1 (factor B)")
    t = r.reshape(*r.shape[:-2], da, db, da, db)
    if keep == 0:
        return np.einsum("...ajbj->...ab", t)
    return np.einsum("...iaib->...ab", t)
