"""Constant-coefficient differential operators on grids.

An operator is a table of complex coefficients indexed by multi-indices; its
symbol is the polynomial obtained by replacing each derivative slot with the
corresponding frequency component.  The sign convention is fixed once by the
Fourier-mode requirement: applying the operator to ``exp(i xi.x)`` multiplies
it by the symbol evaluated at ``xi`` (each first-derivative slot acts as
``-i * d/dx_j``).  Grid application uses second-order centered stencils,
composed axis by axis, and is only evaluated where the full stencil fits
inside the requested region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage, sparse

from .errors import RegionError
from .grid import Grid, RegionMask, ScalarField, full_mask

# stencil-safety margin: interior is the region eroded by this multiple of the
# widest one-axis stencil radius, in nodes
INTERIOR_MARGIN = 1.5


@dataclass
class PolyOp:
    """Multi-index coefficient table of a constant-coefficient operator.

    ``terms`` maps multi-indices (tuples of non-negative ints, one slot per
    axis) to complex coefficients.  The zero operator is rejected.
    """

    n: int
    terms: dict

    def __post_init__(self):
        clean = {}
        for alpha, a in self.terms.items():
            alpha = tuple(int(k) for k in alpha)
            if len(alpha) != self.n:
                raise ValueError(f"multi-index {alpha} does not match dimension {self.n}")
            if any(k < 0 for k in alpha):
                raise ValueError(f"multi-index {alpha} has negative entries")
            a = complex(a)
            if a != 0:
                clean[alpha] = clean.get(alpha, 0) + a
        clean = {al: a for al, a in clean.items() if a != 0}
        if not clean:
            raise ValueError("the zero operator is not admitted")
        self.terms = clean

    @property
    def order(self) -> int:
        return max(sum(alpha) for alpha in self.terms)

    def stencil_radius(self) -> int:
        """Widest one-axis stencil radius over all terms."""
        r = 0
        for alpha in self.terms:
            r = max(r, max((-(-k // 2) for k in alpha), default=0))
        return r

    def coeff_scale(self, h: float) -> float:
        """Worst-case stencil amplification, used to normalize residuals."""
        return sum(abs(a) * h ** (-sum(alpha)) for alpha, a in self.terms.items())

    def scaled(self, c: complex) -> "PolyOp":
        return PolyOp(self.n, {al: c * a for al, a in self.terms.items()})

    def __add__(self, other: "PolyOp") -> "PolyOp":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        terms = dict(self.terms)
        for al, a in other.terms.items():
            terms[al] = terms.get(al, 0) + a
        return PolyOp(self.n, terms)


def unit_op(n: int) -> PolyOp:
    """The multiplicative identity (order-zero operator with coefficient 1)."""
    return PolyOp(n, {(0,) * n: 1.0})


def partial_op(n: int, axis: int, power: int = 1) -> PolyOp:
    alpha = [0] * n
    alpha[axis] = power
    return PolyOp(n, {tuple(alpha): 1.0})


def laplacian_power(n: int, k: int = 1) -> PolyOp:
    """Operator with symbol ``|xi|^(2k)`` (k-th power of the Laplacian)."""
    op = unit_op(n)
    lap = PolyOp(n, {tuple(2 if j == i else 0 for j in range(n)): 1.0 for i in range(n)})
    for _ in range(k):
        op = compose(op, lap)
    return op


def directional_wave_op(n: int, xi0) -> PolyOp:
    """Second-order annihilator of ``Re exp(i x.xi0)``.

    ``xi0`` may be complex; the symbol vanishes at ``xi0`` and at ``-conj(xi0)``
    so both exponentials making up the real part are killed.
    """
    xi0 = np.asarray(xi0, dtype=complex)
    u = np.real(xi0)
    if np.linalg.norm(u) == 0:
        raise ValueError("need a nonzero real part to orient the annihilator")
    u = u / np.linalg.norm(u)
    r1 = complex(np.dot(u, xi0))
    r2 = complex(-np.dot(u, np.conj(xi0)))
    terms = {}

    def _bump(alpha, coeff):
        terms[alpha] = terms.get(alpha, 0) + coeff

    for i in range(n):
        for j in range(n):
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] += 1
            _bump(tuple(alpha), u[i] * u[j])
    for i in range(n):
        _bump(tuple(1 if j == i else 0 for j in range(n)), -(r1 + r2) * u[i])
    _bump((0,) * n, r1 * r2)
    return PolyOp(n, terms)


def symbol_eval(op: PolyOp, xi) -> complex | np.ndarray:
    """Evaluate the symbol at frequency vectors ``xi`` (shape (..., n))."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    pts = xi.reshape(-1, op.n)
    out = np.zeros(pts.shape[0], dtype=complex)
    for alpha, a in op.terms.items():
        term = np.ones(pts.shape[0])
        for j, k in enumerate(alpha):
            if k:
                term = term * pts[:, j] ** k
        out += a * term
    if scalar:
        return complex(out[0])
    return out.reshape(xi.shape[:-1])


def compose(p1: PolyOp, p2: PolyOp) -> PolyOp:
    """Operator product; coefficients convolve, symbols multiply."""
    if p1.n != p2.n:
        raise ValueError("dimension mismatch")
    terms = {}
    for a1, c1 in p1.terms.items():
        for a2, c2 in p2.terms.items():
            alpha = tuple(x + y for x, y in zip(a1, a2))
            terms[alpha] = terms.get(alpha, 0) + c1 * c2
    return PolyOp(p1.n, terms)


# ---------------------------------------------------------------------------
# grid application


def _stencil_1d(k: int) -> np.ndarray:
    """Centered stencil for the k-th derivative (h factors excluded).

    Built by composing [1, -2, 1] (second derivative) and [-1/2, 0, 1/2]
    (first derivative); second-order accurate and exact on polynomials of
    degree <= k + 1.
    """
    w = np.array([1.0])
    for _ in range(k // 2):
        w = np.convolve(w, np.array([1.0, -2.0, 1.0]))
    if k % 2:
        w = np.convolve(w, np.array([-0.5, 0.0, 0.5]))
    return w


def stencil_interior(op: PolyOp, mask: RegionMask) -> np.ndarray:
    """Nodes whose full stencil (with the safety margin) lies in the mask."""
    margin = int(np.ceil(INTERIOR_MARGIN * op.stencil_radius()))
    inner = mask.interior(margin * mask.grid.h) if margin else mask.inside.copy()
    # the stencil must also stay inside the grid itself
    if margin:
        edge = np.zeros(mask.grid.shape, dtype=bool)
        core = tuple(slice(margin, s - margin) for s in mask.grid.shape)
        edge[core] = True
        inner &= edge
    return inner


def _apply_terms(op: PolyOp, values: np.ndarray, h: float) -> np.ndarray:
    """Raw stencil application on the full array (zero padding at edges)."""
    out = np.zeros(values.shape, dtype=complex)
    for alpha, a in op.terms.items():
        term = values.astype(float)
        for axis, k in enumerate(alpha):
            if k:
                w = _stencil_1d(k) / h**k
                term = ndimage.correlate1d(term, w, axis=axis, mode="constant")
        out += a * (-1j) ** sum(alpha) * term
    return out


def apply_fd(op: PolyOp, f: ScalarField, mask: RegionMask | None = None) -> np.ndarray:
    """Apply the operator by finite differences inside a region.

    Returns a complex array equal to the operator action on the stencil-safe
    interior of ``mask`` and zero elsewhere.  ``mask=None`` means the whole
    grid (still eroded at the boundary by the stencil width).
    """
    if mask is None:
        mask = full_mask(f.grid)
    inner = stencil_interior(op, mask)
    if not inner.any():
        raise RegionError("region interior is empty for this operator's stencil")
    out = _apply_terms(op, f.values, f.grid.h)
    out[~inner] = 0.0
    return out


def apply_fd_normal(op: PolyOp, values: np.ndarray, inner: np.ndarray, h: float) -> np.ndarray:
    """Real symmetric PSD action ``Re(P^* M P)`` used by penalty solvers.

    ``inner`` restricts the residual to the stencil-safe interior; the adjoint
    uses reversed stencils and conjugate coefficients, so the map is the exact
    transpose pair of :func:`apply_fd` and keeps quadratic penalties exact.
    """
    mid = _apply_terms(op, values, h)
    mid[~inner] = 0.0
    out = np.zeros(values.shape, dtype=complex)
    for alpha, a in op.terms.items():
        term = mid
        for axis, k in enumerate(alpha):
            if k:
                w = (_stencil_1d(k) / h**k)[::-1]
                term = ndimage.correlate1d(term, w, axis=axis, mode="constant")
        out += np.conj(a * (-1j) ** sum(alpha)) * term
    return out.real


def stencil_matrix(weights: list, shape: tuple) -> sparse.csr_matrix:
    """Per-axis ``ndimage.correlate1d(mode="constant")`` passes as one sparse matrix.

    ``weights[axis]`` is an odd-length centred stencil, or ``None`` to leave
    that axis alone; the matrix acts on C-ordered flattened arrays of
    ``shape``, and taps past an edge see zeros.
    """
    out = sparse.identity(1, format="csr")
    for size, w in zip(shape, weights):
        if w is None:
            along = sparse.identity(size)
        else:
            along = sparse.diags(list(w), np.arange(len(w)) - len(w) // 2, shape=(size, size))
        out = sparse.kron(out, along, format="csr")
    return out


def prior_rows(op: PolyOp, inner: np.ndarray, h: float) -> sparse.csr_matrix:
    """Real sparse rows Q with ``Q^T Q v = apply_fd_normal(op, v, inner, h)``.

    P is :func:`_apply_terms` as a complex matrix, one Kronecker product of
    1-D stencil matrices per term; Q stacks the real and imaginary parts of
    P's rows at the ``inner`` nodes, so ``|Q v|^2`` is the squared operator
    residual there.
    """
    rows = np.flatnonzero(inner)
    p = sparse.csr_matrix((rows.size, inner.size), dtype=complex)
    for alpha, a in op.terms.items():
        term = stencil_matrix([_stencil_1d(k) / h**k if k else None for k in alpha], inner.shape)
        p = p + (a * (-1j) ** sum(alpha)) * term[rows]
    q = sparse.vstack([p.real, p.imag], format="csr")
    q.eliminate_zeros()
    return q


# ---------------------------------------------------------------------------
# admissibility and symbol zero sets


class Admissibility(NamedTuple):
    ok: bool
    residual: float


def is_admissible(
    f: ScalarField, op: PolyOp, region: RegionMask, tol: float = 1e-6
) -> Admissibility:
    """Test whether the operator annihilates the field on the region.

    The residual is the interior L2 norm of the finite-difference action,
    normalized by the field norm times the worst-case stencil amplification,
    so exact annihilation sits at round-off level regardless of order.
    """
    inner = stencil_interior(op, region)
    if not inner.any():
        raise RegionError("region interior is empty for this operator's stencil")
    action = _apply_terms(op, f.values, f.grid.h)
    num = float(np.sqrt(np.sum(np.abs(action[inner]) ** 2)))
    den = float(np.sqrt(np.sum(f.values[inner] ** 2))) * op.coeff_scale(f.grid.h)
    if den == 0.0:
        return Admissibility(num == 0.0, np.inf if num else 0.0)
    residual = num / den
    return Admissibility(residual < tol, residual)


def zero_set_fraction(
    op: PolyOp, samples: int, eps: float, box: float = 10.0, seed: int = 0
) -> float:
    """Fraction of random frequencies where the symbol nearly vanishes.

    Samples uniformly from ``[-box, box]^n`` and counts
    ``|P(xi)| < eps * (1 + |xi|^m)``; shrinking ``eps`` over the same sample
    set gives nested sublevel sets, so the fraction is monotone in ``eps``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-box, box, size=(samples, op.n))
    vals = np.abs(symbol_eval(op, xi))
    scale = 1.0 + np.linalg.norm(xi, axis=1) ** op.order
    return float(np.mean(vals < eps * scale))


# ---------------------------------------------------------------------------
# text format: one line per term, "alpha_1 ... alpha_n  re  im"


def polyop_to_text(op: PolyOp) -> str:
    lines = []
    for alpha in sorted(op.terms):
        a = op.terms[alpha]
        idx = " ".join(str(k) for k in alpha)
        lines.append(f"{idx}  {a.real:.17g}  {a.imag:.17g}")
    return "\n".join(lines) + "\n"


def polyop_from_text(text: str, n: int | None = None) -> PolyOp:
    terms = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            n = len(parts) - 2
        if len(parts) != n + 2:
            raise ValueError(f"malformed operator line: {raw!r}")
        alpha = tuple(int(p) for p in parts[:n])
        coeff = complex(float(parts[n]), float(parts[n + 1]))
        terms[alpha] = terms.get(alpha, 0) + coeff
    if n is None:
        raise ValueError("empty operator text")
    return PolyOp(n, terms)
