"""Open-system density matrix dynamics.

Lindblad master equation for small dense Hilbert spaces (43Ca's coupled run has
dim 16, a 256 x 256 Liouvillian):

    drho/dt = -i [H, rho] + sum_a k_a (c_a rho c_a+ - 1/2 {c_a+ c_a, rho})

with H in angular-frequency units (hbar = 1).  Both propagators take H(t) =
H_part + f(t) H_drive with |f| <= 1: propagate has no drive and one H_part per
piece, propagate_modulated one H_part and a drive.  One front end (_run)
checks and builds every run.  Propagation is fixed-step classical RK4 on a
lattice: a piece of time of length L gets N = ceil(L * scale / max_step_phase)
equal steps, scale being the larger of the total rate and rho(H_part) +
rho(H_drive), rho the spectral radius, so the phase advanced per step stays
below a small budget and no RK4 stage crosses a piece boundary.  A periodic
drive is given as one period that starts at the first grid time and repeats:
(length, H) pieces for propagate, the modulation period for
propagate_modulated.  Without a period the run is one piece that spans the
grid.  Fixed steps keep output grids, and any emitted tables, bit-stable.

Every run integrates a linear generator A(t) = A0 + f(t) A1: a channel-free
pure state as a state vector under -iH, any other state as the row-major
vec(rho) under the Liouvillian, whose drive part carries no dissipator.  One
RK4 step is then a matrix, and each piece builds its maps once per run
(_piece_maps): the powers of a constant piece's step map, or its tables at
recurring lattice points, and a modulated piece's step maps and their products
at the samples; a sample off the lattice takes a remainder step of its own.
Piece maps carry the state through each period that holds a sample, and
powers of the period map skip the others.  This is stepwise RK4
with the products reassociated: deterministic, and equal to a literal step
loop on the same lattice up to rounding.  n_substeps counts the steps of that
loop: the lattice steps up to the last sample, plus one per sample off it.  A
run returns one read-only (n_times, d, d) stack of states, corrected and
checked once, at the end, by _record.

Memory follows one rule: each batch of step maps, column block of poly, chunk
of rows and choice of regime takes as many items as _fit lets fit in
BATCH_BYTES beside what its path holds, the path's bytes per item stated
beside its code.  The rows a path returns count up to half of what is left,
so its peak, output included, stays within the bound until the output alone
crowds it.  Where one item does not fit beside what is held, _chunks takes one
item per chunk, and the peak is the held bytes plus that item.  A modulated
piece's prefixes take half the bound, the rows the rest.
"""

from __future__ import annotations

import functools
import itertools
import math
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

# the one memory rule: every batch, chunk and regime of the engine takes as many items
# as _fit lets fit beside what its path holds, each path stating its bytes per item
BATCH_BYTES = 1 << 20
# classical RK4, (p, c, w) per stage: the envelope at point p of the step (start, middle,
# end), input x + c dt k of the stage k before, and dt / w times the stage added to x
_RK4_TABLEAU = ((0, 0.0, 6.0), (1, 0.5, 3.0), (1, 0.5, 3.0), (2, 1.0, 6.0))


class DimensionMismatchError(ValueError):
    """Operands of a composite-space operation have incompatible shapes."""


class IntegrationFailureError(RuntimeError):
    """Propagation broke its trace-drift limit or left a non-positive state."""


def _as_complex_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must hold finite entries only")
    return arr


class DensityOperator:
    """Validated density matrix: hermitian, unit trace, near-positive.

    Args:
        matrix: square complex array.
        positivity_tol: most negative eigenvalue tolerated.  Constructed
            states use the strict default; propagator outputs pass a
            slightly looser bound to admit integrator-scale noise.
    """

    __slots__ = ("_matrix", "_vector")

    def __init__(self, matrix, *, positivity_tol: float = POSITIVITY_TOL):
        arr = _as_complex_matrix(matrix, "density matrix")
        herm = float(np.max(np.abs(arr - arr.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not hermitian: max |rho - rho+| = {herm:.3e}")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} differs from 1 beyond {TRACE_TOL:g}")
        arr = arr / 2.0 + arr.conj().T / 2.0  # halved first, so no finite rho overflows
        w, u = np.linalg.eigh(arr)
        if w[0] < -positivity_tol:
            raise ValueError(
                f"density matrix has eigenvalue {w[0]:.3e} below -{positivity_tol:g}"
            )
        arr.setflags(write=False)
        self._matrix = arr
        self._vector = u[:, -1] / np.linalg.norm(u[:, -1]) if w[-1] >= 1.0 - 1e-12 else None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def vector(self) -> np.ndarray | None:
        """The normalized state vector if pure (top eigenvalue within 1e-12 of 1), else None."""
        return self._vector

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @classmethod
    def pure(cls, state, dim: int | None = None) -> "DensityOperator":
        """Density operator of a pure state, from a vector or basis index, with no eigh."""
        if isinstance(state, (int, np.integer)):
            if dim is None:
                raise ValueError("dim is required when constructing from a basis index")
            vec = np.zeros(dim, dtype=complex)
            vec[int(state)] = 1.0
        else:
            vec = np.asarray(state, dtype=complex).ravel()
            top = float(np.max(np.abs(vec.view(float)), initial=0.0))
            if not math.isfinite(top):
                raise ValueError("state vector has non-finite entries")
            if top == 0:
                raise ValueError("zero state vector")
            # a power of two scales exactly, so the norm neither overflows nor underflows
            vec = vec * 2.0 ** -max(math.frexp(top)[1], -1022)
            vec = vec / np.linalg.norm(vec)
        m, rho = np.outer(vec, vec.conj()), cls.__new__(cls)
        rho._matrix, rho._vector = m / 2.0 + m.conj().T / 2.0, vec  # as __init__ hermitizes
        if not abs(np.trace(rho._matrix).real - 1.0) <= TRACE_TOL:
            raise ValueError(f"pure state trace differs from 1 beyond {TRACE_TOL:g}")
        rho._matrix.setflags(write=False)
        return rho

    def population(self, index: int) -> float:
        return float(self._matrix[index, index].real)

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
        if not 0 <= self.rate < np.inf:
            raise ValueError(f"collapse rate must be finite and >= 0, got {self.rate}")


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

    matrices has shape (n_times, d, d); res[i] wraps matrices[i] in a DensityOperator on demand.
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
    """Step-control scale of a hermitian operator: its spectral radius.

    A max-entry norm can undershoot it by a factor of the dimension and starve the step control.
    """
    w = np.linalg.eigvalsh(np.asarray(h, dtype=complex))
    return float(max(abs(w[0]), abs(w[-1])))


def total_rate(channels: Sequence[CollapseChannel]) -> float:
    """Step-control rate scale: sum of rate * (spectral radius of c+c) over channels."""
    tot = 0.0
    for ch in channels:
        tot += ch.rate * _hamiltonian_norm(ch.operator.conj().T @ ch.operator)
    return tot


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _record(
    v: np.ndarray, n_substeps: int, rho0: DensityOperator, t: np.ndarray, pure: bool
) -> PropagationResult:
    """Correct and check the raw vectors at t (vec(rho), or state vectors when pure).

    A pure run's vectors become their outer products, whose traces are the squared norms.
    Then one batched pass, in order: the first interval whose drift |tr_{k+1}/tr_k - 1| is
    not within STEP_TRACE_DRIFT_LIMIT raises; hermitize and divide by those traces, which
    hermitizing keeps; _min_eigenvalues.  The maps are linear and, exactly, trace and
    hermiticity preserving, so this differs from correcting between intervals by rounding
    only.  A broken run may overflow on the way; the drift check reports it.
    (v + v+) / 2 / tr is one product by 0.5 / tr on the float view: numpy's complex / real
    is Smith's rule, each part times the reciprocal, and halving is exact.
    """
    if pure:
        v = np.einsum("ki,kj->kij", v, v.conj())
    else:
        v = v.reshape(-1, rho0.dim, rho0.dim)
    size = np.einsum("kii->k", v).real
    drift = np.abs(size[1:] / size[:-1] - 1.0)
    bad = np.flatnonzero(~(drift <= STEP_TRACE_DRIFT_LIMIT))
    if bad.size:
        k = int(bad[0])
        raise IntegrationFailureError(
            f"trace drifted by {drift[k]:.3e} over step [{t[k]:g}, {t[k + 1]:g}] "
            f"(limit {STEP_TRACE_DRIFT_LIMIT:g})"
        )
    diag = PropagationDiagnostics(float(drift.max(initial=0.0)), n_substeps=n_substeps)
    vh = np.conjugate(v.swapaxes(1, 2), order="C")
    stack = np.subtract(v, vh)  # the residual, then the sum, in one buffer
    diag.max_hermiticity_residual = float(np.abs(stack).max())
    re = np.add(v, vh, out=stack).view(float)
    re *= (0.5 / size)[:, None, None]
    stack[0] = rho0.matrix
    w = _min_eigenvalues(stack)
    diag.min_eigenvalue = float(w.min())
    bad = np.flatnonzero(w < -OUTPUT_POSITIVITY_TOL)
    if bad.size:
        k = int(bad[0])
        raise IntegrationFailureError(
            f"output state at t={t[k]:g} has eigenvalue {w[k]:.3e} below "
            f"-{OUTPUT_POSITIVITY_TOL:g}"
        )
    stack.setflags(write=False)
    return PropagationResult(times=t, matrices=stack, diagnostics=diag)


def _min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each hermitian matrix in stack; in closed form at d = 2."""
    if stack.shape[-1] != 2:
        return np.linalg.eigvalsh(stack)[:, 0]
    a, d = stack[:, 0, 0].real, stack[:, 1, 1].real
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(stack[:, 0, 1]))


def _rk4(a0, a1, f, dt, x: np.ndarray) -> np.ndarray:
    """One RK4 step of dx/dt = (a0 + f(t) a1) x on each row x[r]; a1 and f None is constant.

    dt is one value or one per row, f[p, r] the envelope of row r at point p of its step.  A
    stage is one GEMM per generator part on all rows, never a per-row D x D generator, and
    is summed as it comes: a row at dt = 0 comes back as it went in.
    """
    dt = np.reshape(dt, (-1, 1))
    out, k = x.copy(), 0.0
    for p, c, w in _RK4_TABLEAU:
        y = x + (c * dt) * k if c else x
        k = y @ a0.T
        if a1 is not None:
            k += f[p][:, None] * (y @ a1.T)
        out += (dt / w) * k
    return out


def _taylor(a, dt, x: np.ndarray) -> np.ndarray:
    """_rk4(a, None, None, dt, x), per-row dt: the degree-4 Taylor polynomial of dt A, by Horner."""
    z = x
    for m in (4.0, 3.0, 2.0, 1.0):
        z = z @ a.T
        z *= dt[:, None] / m
        z += x
    return z


def _fit(held: int, per_item: int, out: int = 0) -> int:
    """Items of per_item bytes that fit in BATCH_BYTES beside held, and out up to half the rest."""
    spare = BATCH_BYTES - held
    return max(0, (spare - min(out, spare // 2)) // per_item)


def _chunks(n: int, held: int, per_item: int, out: int = 0):
    """Slices of range(n), each of as many items as _fit lets fit, and at least one."""
    step = max(1, _fit(held, per_item, out))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _ladder(step: np.ndarray, top: int):
    """(b, P^(2^b)) of the step map P per bit b of top, squared as it goes.

    It holds one power, and its square while that is built.
    """
    p = step
    for b in range(int(top).bit_length()):
        p = p @ p if b else p
        yield b, p


@dataclass(frozen=True)
class _Piece:
    """n RK4 steps of length h from t0 under A(t) = a0 + envelope(t) a1; a1 None is constant.

    A constant piece's step map is _rk4 on the identity; a modulated step's map is a
    polynomial in the envelope (poly), built by the same tableau and kept in real form (coef).
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

    @functools.cached_property
    def coef(self) -> np.ndarray:
        """_real(poly), built once; poly is dropped once it is in real form."""
        return _real(self.poly)

    @property
    def poly(self) -> np.ndarray:
        """(12, D, D) coefficients of the step map minus I, f_s^a f_m^b f_e^c in row [a, b, c].

        f_s, f_m, f_e are the envelope at a step's start, middle and end, a, c <= 1 and
        b <= 2: the coefficients sum the 30 words of length 1 to 4 in h a0 and h a1.  The
        RK4 stages run on such polynomials; A(t) = a0 + f a1 raises the power of f at t
        within its axis.  They multiply from the left only, so the identity's columns are
        built in blocks beside the output; a bound without room for one raises ValueError.
        """
        d = self.a0.shape[0]
        # a column: six stacks of 12 complex vectors (its block, the identity's, a stage,
        # its input and two products), beside the output and the build's array objects
        out, column = np.zeros((2, 3, 2, d, d), dtype=complex), 6 * 12 * 16 * d
        held = out.nbytes + 4096
        if (width := _fit(held, column)) < 1:
            raise ValueError(
                "BATCH_BYTES cannot hold the step-map polynomial of a "
                f"{d} x {d} generator, which needs {held + column} bytes"
            )
        for c0 in range(0, d, width):
            block = np.zeros_like(out[..., c0 : c0 + width])  # numpy buffers adds into a view
            eye = np.zeros_like(block)
            eye[0, 0, 0, c0 : c0 + width].reshape(-1)[:: block.shape[-1] + 1] = 1.0
            k = 0.0
            for axis, c, w in _RK4_TABLEAU:
                p, up = eye + (c * self.h) * k, (slice(None),) * axis
                # f a1 raises the power of f within axis; p's top power is 0
                k = self.a0 @ p
                k[up + (slice(1, None),)] += self.a1 @ p[up + (slice(-1),)]
                block += (self.h / w) * k
            out[..., c0 : c0 + width] = block
        return out.reshape(12, d, d)

    def step_map(self) -> np.ndarray:
        """A constant piece's RK4 step map, whose columns are the rows of _rk4 on the identity."""
        return _rk4(self.a0, None, None, self.h, np.eye(len(self.a0), dtype=complex)).T

    def step_maps(self, j0: int, j1: int, coef: np.ndarray) -> np.ndarray:
        """Real forms (j1 - j0, 2D, 2D) of RK4 maps of steps j0 .. j1 - 1; coef = _real(poly)."""
        d = 2 * self.a0.shape[0]
        # the envelope at the steps' starts, middles and ends, from one call
        f = self.f(self.t0 + np.arange(2 * j0, 2 * j1 + 1) * (0.5 * self.h))
        s, m, e, one = f[:-1:2], f[1::2], f[2::2], np.ones(j1 - j0)
        fs, fm, fe = np.array([one, s]), np.array([one, m, m * m]), np.array([one, e])
        maps = (fs[:, None, None] * fm[:, None] * fe).reshape(12, -1).T @ coef.reshape(12, -1)
        # the identity last, so entries near 1 are rounded once
        maps[:, :: d + 1] += 1.0
        return maps.reshape(j1 - j0, d, d)


def _real(a: np.ndarray) -> np.ndarray:
    """[[Re a, -Im a], [Im a, Re a]] of each D x D matrix in a: products map to products."""
    d = a.shape[-1]
    r = np.empty((*a.shape[:-2], 2 * d, 2 * d))
    r[..., :d, :d] = r[..., d:, d:] = a.real
    r[..., d:, :d] = a.imag
    np.negative(a.imag, out=r[..., :d, d:])
    return r


def _scan(m: np.ndarray) -> np.ndarray:
    """m[i] = m[i] @ ... @ m[0] for each i, in place, by Blelloch's up- and down-sweep."""
    s = 1
    while 2 * s <= len(m):
        hi = m[2 * s - 1 :: 2 * s]
        hi[...] = hi @ m[s - 1 :: 2 * s][: len(hi)]
        s *= 2
    while s > 1:
        s //= 2
        hi = m[3 * s - 1 :: 2 * s]
        hi[...] = hi @ m[2 * s - 1 :: 2 * s][: len(hi)]
    return m


def _prefixes(piece: _Piece, stops: np.ndarray, held: int, keep: bool):
    """Yield (s, Q) per batch of step maps: Q[r] = M_{s[r]-1} ... M_0 at the stops s it completes.

    stops ascend, 0 < stops <= piece.n.  The maps up to the last stop are built once, as
    real forms, in batches beside coef, held and, if the caller keeps them, the prefixes
    yielded before.  Per batch, the product of the earlier batches enters the first map,
    _scan makes the prefixes in place, and their left block columns at the stops are read
    back as complex matrices.
    """
    d = piece.a0.shape[0]
    q, lo, last = np.eye(2 * d), 0, int(stops.max(initial=0))
    coef = piece.coef
    held += 3 * coef.nbytes // 2  # coef, and poly (half its bytes) while coef is built
    while lo < last:
        # a step: its real-form map, 5/4 of one for scan or read-back, and 48 envelope floats
        hi = min(lo + max(1, _fit(held, 72 * d * d + 384)), last)
        m = piece.step_maps(lo, hi, coef)
        m[0] = m[0] @ q
        q = _scan(m)[-1].copy()
        s = stops[slice(*np.searchsorted(stops, (lo, hi), side="right"))]
        if s.size:
            r = m[s - lo - 1, :d, :d].astype(complex)
            r.imag = m[s - lo - 1, d:, :d]
            held += keep * r.nbytes
            yield s, r
        lo, m = hi, None  # m is freed before the next batch is built


def _piece_maps(piece: _Piece, stops: np.ndarray):
    """The piece map M_{n-1} ... M_0, and advance(v, k, j, dt): v[k[r]] j[r] steps on, then dt[r].

    stops holds the distinct j > 0 advance will get.  A constant piece's table is a lattice
    point: if there are F > 0 stops, F D < R and six stacks of F maps fit, it maps each stop
    once, tables P^j from the powers P^(2^b) of its step map (F D^3 per bit) that reach the
    rows by _gather.  Else each power acts on every chunk of the R rows (R D^2 per bit).
    Either way every row then takes its own remainder step of dt[r], by _taylor.  The piece
    map, and each advance, walk the _ladder of powers once.  A modulated piece keeps its
    prefixes at the stops if they fit in half of BATCH_BYTES (else advance builds the step
    maps again); _rk4 steps the rows.  Rows run in chunks.
    """
    d = piece.a0.shape[0]
    if piece.a1 is None:
        step, n = piece.step_map(), piece.n
        # low bits first, as np.linalg.matrix_power multiplies them
        full = functools.reduce(np.matmul, (p for b, p in _ladder(step, n) if n >> b & 1))

        def carry(x, e, bits, size):
            # x[r] taken e[r] steps by the powers in bits, each on the rows that take it, in
            # chunks of size rows; rows of (P^c)^T step like state rows
            starts = np.arange(size, e.size, size)  # of every chunk but the first
            for b, p in bits:
                r = np.flatnonzero(e >> b & 1)
                for c in np.split(r, np.searchsorted(r, starts)) if starts.size else [r]:
                    x[c] = (x[c].reshape(-1, d) @ p.T).reshape(-1, *x.shape[1:])
            return x

        def advance(v, k, j, dt):
            # a row of a chunk: two vectors and three indices, and three indices over all
            # rows (those that take a power, the chunk starts, the cuts), beside two powers;
            # the output is the R complex rows
            chunks = list(_chunks(j.size, 32 * d * d, 32 * d + 48, 16 * d * j.size))
            if 0 < stops.size * d < j.size and stops.size <= _fit(0, 96 * d * d):  # six stacks
                # P^c for c < 2^lo <= F by doubling, then the higher powers: the tables P^stops
                lo = stops.size.bit_length() - 1
                x, bits = np.tile(np.eye(d) + 0j, (1 << lo, 1, 1)), _ladder(step, stops[-1])
                for b, p in itertools.islice(bits, lo):
                    x[1 << b : 2 << b] = (x[: 1 << b].reshape(-1, d) @ p.T).reshape(-1, d, d)
                x = carry(x[stops & (1 << lo) - 1], stops, bits, stops.size).swapaxes(1, 2)
                y = _gather(v, k, j, [(stops, x)], x.nbytes)
                del x  # the tables go before the remainder steps
            else:
                y = carry(v[k], j, _ladder(step, j.max()), chunks[0].stop)  # the first chunk's size
            for r in chunks:
                y[r] = _taylor(piece.a0, dt[r], y[r])
            return y

        return full, advance
    # prefixes take half the bound, rows the rest: kept if they fit in it beside coef, poly
    # and a step (less than poly), else a pass that builds them again takes the half
    half = _fit(0, 1) // 2
    kept = stops.size + 1 <= _fit(half + 2 * piece.coef.nbytes, 16 * piece.a0.size)
    walk = list(_prefixes(piece, np.union1d(stops if kept else stops[:0], piece.n), 0, True))
    held = sum(q.nbytes for _, q in walk) if kept else half

    def advance(v, k, j, dt):
        y = _gather(v, k, j, walk if kept else _prefixes(piece, stops, held, False), held)
        for r in _chunks(j.size, held, 128 * d + 80, y.nbytes):  # _rk4's 8 vectors, 10 floats
            t = piece.t0 + j[r] * piece.h + np.outer((0.0, 0.5, 1.0), dt[r])  # start, middle, end
            y[r] = _rk4(piece.a0, piece.a1, piece.f(t.ravel()).reshape(3, -1), dt[r], y[r])
        return y

    return walk[-1][1][-1], advance


def _gather(v: np.ndarray, k: np.ndarray, j: np.ndarray, batches, held: int) -> np.ndarray:
    """Rows Q v[k[r]], Q the map at j[r] in its batch (s, maps at s); v[k[r]] at j[r] = 0.

    Each row is written once.  A batch with at most twice as many (stop, state) pairs as
    rows acts on every state by one GEMM, if its rows fit beside held, the output, the batch
    and their selection; otherwise its rows gather their prefixes and states for a batched
    matvec, in chunks.
    """
    y, d, zero = np.empty((k.size, v.shape[1]), dtype=complex), v.shape[1], j == 0
    y[zero] = v[k[zero]]
    for s, q in batches:
        sel = np.flatnonzero((j >= s[0]) & (j <= s[-1]))
        beside = held + q.nbytes + sel.nbytes
        # a row of the GEMM: two (stop, state) pairs at most, its output, three indices
        if s.size * v.shape[0] <= 2 * sel.size <= 2 * _fit(beside, 48 * d + 24, y.nbytes):
            z = (v @ q.transpose(2, 0, 1).reshape(d, -1)).reshape(-1, d)  # row kk S + i: q[i] v[kk]
            sel = slice(None) if sel.size == j.size else sel  # all rows: views, not copies
            y[sel] = np.take(z, k[sel] * s.size + np.searchsorted(s, j[sel]), axis=0)
            continue
        for c in _chunks(sel.size, beside, 16 * d * d + 32 * d + 24, y.nbytes):
            r = sel[c]  # a row: its map, state and output, and three indices
            y[r] = np.einsum("rij,rj->ri", q[np.searchsorted(s, j[r])], v[k[r]])
    return y


def _locate(t: np.ndarray, bounds: np.ndarray, h: np.ndarray):
    """Lattice coordinates (k, i, j, dt): t sits dt past point j of piece i in period k.

    An offset within a few rounding units of max |t| of a lattice point sits on it (dt = 0);
    any other offset is the sample's own dt.
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

    Piece i of a period repeated from t[0] is lengths[i] long and driven by gens[i] = (scale,
    a0, a1); without lengths the period is one piece that spans t.  t ascends, so k does
    too and the bookkeeping sorts, not hashes.  Samples at piece starts are copied from the
    chain, the rest come from their piece's advance.  _record reports an overflow on the way.
    """
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=float)
        if not (lengths.size and np.all(np.isfinite(lengths) & (lengths > 0))):
            raise ValueError("a period needs one or more pieces of finite length > 0")
    if t.size == 1:
        return v0[None].astype(complex), 0
    bounds = np.concatenate(([0.0], np.cumsum([t[-1] - t[0]] if lengths is None else lengths)))
    lengths = np.diff(bounds)
    n = np.maximum(np.ceil(lengths * [g[0] for g in gens] / phase), 1)
    if not np.all(n < 2.0**63):  # the steps of a piece are counted in int64
        raise IntegrationFailureError(f"a piece needs {n.max():.3e} RK4 steps, 2^63 or more")
    n = n.astype(int)
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
    # periods without samples: U^(2^b) of the period map U for the set bits b of each gap,
    # from one _ladder walk to the largest gap
    gaps, v = (np.diff(need, prepend=-1) - 1).tolist(), v0
    period = lambda: functools.reduce(lambda acc, m: m[0] @ acc, maps[1:], maps[0][0])
    squares = list(_ladder(period(), max(gaps))) if max(gaps) else []
    for r, gap in enumerate(gaps):
        for b, p in squares:
            v = p @ v if gap >> b & 1 else v
        chain[r, 0] = v
        for q, (full, _) in enumerate(maps):
            chain[r, q + 1] = full @ chain[r, q]
        v = chain[r, -1]

    raw = np.empty((t.size, v0.size), dtype=complex)
    edge = np.flatnonzero(~inner)
    raw[edge] = chain[row[edge], i[edge]]
    for q in busy:
        sel = np.flatnonzero(inner & (i == q))
        raw[sel] = maps[q][1](chain[:, q], row[sel], j[sel], dt[sel])
    # the lattice steps up to the last sample, and one remainder step per sample off it
    first = np.concatenate(([0], np.cumsum(n))).tolist()
    return raw, int(k[-1]) * first[-1] + first[i[-1]] + int(j[-1]) + int(np.count_nonzero(dt))


def _run(parts, h_drive, envelope, channels, rho0, t_grid, lengths, phase) -> PropagationResult:
    """The front end of both propagators: checks, generators, _lattice, _record.

    parts holds one Hamiltonian per piece of the period (lengths), or the one of a run
    without a period (lengths None); h_drive, scaled by envelope, is added to each, or is
    None.  A piece's step scale is max(total rate, rho(H_part) + rho(h_drive)), as
    |envelope| <= 1.  Each must be hermitian to 1e-12 of its largest entry.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a 1-D array with at least one point")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid must hold finite times only")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if not 0 < phase <= MAX_STEP_PHASE_LIMIT:
        raise ValueError(f"max_step_phase must lie in (0, {MAX_STEP_PHASE_LIMIT}], got {phase}")
    d = rho0.dim
    hs = [_as_complex_matrix(h, "hamiltonian") for h in parts]
    h1 = None if h_drive is None else _as_complex_matrix(h_drive, "h_drive")
    for h in hs if h1 is None else [*hs, h1]:
        if h.shape[0] != d:
            raise DimensionMismatchError(f"hamiltonian {h.shape} and state dim {d} differ")
        residual = float(np.max(np.abs(h - h.conj().T)))
        if residual > 1e-12 * np.max(np.abs(h)):
            name = "h_drive" if h is h1 else "hamiltonian"
            raise ValueError(f"{name} is not hermitian: max |H - H+| = {residual:.3e}")
    psi = None if channels else rho0.vector  # a pure rho0 runs as its state vector
    gen = liouvillian if psi is None else lambda h, _: -1j * h
    a1 = None if h1 is None else gen(h1, ())
    rate, drive = total_rate(channels), 0.0 if h1 is None else _hamiltonian_norm(h1)
    gens = [(max(rate, _hamiltonian_norm(h) + drive), gen(h, channels), a1) for h in hs]
    v0 = rho0.matrix.reshape(-1) if psi is None else psi
    raw = _lattice(gens, lengths, envelope, t, v0, phase)
    return _record(*raw, rho0, t, psi is not None)


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
        rho0: initial state.  Without channels, a pure rho0 is
            integrated as a state vector under -iH.
        t_grid: strictly increasing sample times; the state is stored at
            every grid point.
        period: one period of a piecewise-constant Hamiltonian as
            (length, H) pieces in time order, repeated from t_grid[0];
            grid points may fall anywhere in it.  Without it, the run
            is one piece that spans t_grid (see the module docstring).
        max_step_phase: phase budget per substep, at most 0.05.

    Returns:
        PropagationResult holding one read-only (n_times, d, d) stack of the states at the grid
        points and pre-correction drift diagnostics.  The raw states are corrected and
        checked once, at the end: an interval whose trace drift exceeds
        STEP_TRACE_DRIFT_LIMIT raises IntegrationFailureError naming it, then every state is
        re-hermitized and trace renormalized, and a state with an eigenvalue below
        -OUTPUT_POSITIVITY_TOL raises IntegrationFailureError naming its time.
    """
    if (hamiltonian is None) == (period is None):
        raise ValueError("give either a constant hamiltonian or a period of (length, H) pieces")
    pieces = [(None, hamiltonian)] if period is None else list(period)
    lengths = None if period is None else [length for length, _ in pieces]
    return _run([h for _, h in pieces], None, None, channels, rho0, t_grid, lengths, max_step_phase)


def propagate_modulated(
    h_static,
    h_drive,
    envelope: Callable[[np.ndarray], np.ndarray | float],
    channels: Sequence[CollapseChannel],
    rho0: DensityOperator,
    t_grid,
    *,
    period: float | None = None,
    max_step_phase: float = DEFAULT_MAX_STEP_PHASE,
) -> PropagationResult:
    """Propagate under H(t) = h_static + envelope(t) * h_drive.

    Same lattice rule, checks and result as propagate, for the linearly modulated generator L0 +
    f(t) L1.  envelope is called with a 1-D float array of times and returns the envelope at
    each, as an array of that shape or one scalar for all of them.  The contract has two
    parts.  |envelope| <= 1 over the run: the step control takes only rho(h_static) +
    rho(h_drive) as the Hamiltonian's scale, so a larger drive belongs in h_drive.  And the
    envelope's period spans many lattice steps, as the step control does not see how fast it
    turns: at max_step_phase=0.05 a sine period of 9 or fewer steps fails, and one of 10 or
    more runs.  A run that breaks the contract starves the step control, and the trace-drift
    or positivity guard aborts it with IntegrationFailureError.  period is the envelope's
    period, one piece repeated from t_grid[0], or None for one piece that spans t_grid.  A
    channel-free pure state is integrated as a state vector under -iH(t), which keeps the
    density matrix positive by construction and shrinks the working dimension from d^2 to d.
    """
    lengths = None if period is None else [period]
    return _run([h_static], h_drive, envelope, channels, rho0, t_grid, lengths, max_step_phase)


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
