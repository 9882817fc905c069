"""Penalized least-squares reconstruction from region-limited line data.

The partial-data problems minimize a data misfit over the retained lines plus
a soft differential-operator penalty on the prior region and a small ridge
term that keeps the discrete system positive definite (the continuum theorems
give uniqueness, not conditioning).  Solves run preconditioned conjugate
gradients on the normal equations with the exact transpose pair of the
discrete transform, zero initialization, and no randomness, so reports are
reproducible bit for bit under a fixed BLAS thread count.  The thread count
changes the summation order of the inner products, and with it the iterates:
the c07 vector solve reads solenoidal error 0.842 with the default threads and
0.843 with one.  One core serves both solves: the scalar problem is
the one-component vector problem, and the vector prior acts through the
exterior derivative (the curl components).

The near-null-space probe searches for unit-norm fields supported outside a
region whose transform over the region's lines is as small as possible;
restricted to region-filtered data it exhibits the invisible features whose
recovery is unstable, while full data admits no such field at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import diffops
from .errors import RegionError, SolverFailure
from .fraclap import analytic_c0
from .grid import Grid, RegionMask, ScalarField, VectorField
from .lines import LineSet, filter_roi, make_lineset
from .project import projector
from .xray_scalar import Sinogram
from .xray_vector import _cd, _cd_adjoint, skew_pairs, solenoidal_decompose


@dataclass
class PartialDataProblem:
    """Data, geometry, prior, and solver controls for one partial solve.

    ``support=None`` leaves every grid node free; pass ``support`` to restrict
    the unknown to a region (for instance the transform's contract class,
    fields supported in the 0.9-extent ball).
    """

    roi: RegionMask
    region: RegionMask                 # prior region, inside the roi
    data: Sinogram
    prior: object = None               # PolyOp, or {(i, j): PolyOp} for vectors
    lambda_prior: float = 1.0
    lambda_tikhonov: float = 1e-6
    cg_tol: float = 1e-8
    max_iter: int = 2000
    support: RegionMask | None = None

    def __post_init__(self):
        if self.lambda_prior < 0 or self.lambda_tikhonov < 0:
            raise ValueError("penalty weights must be non-negative")
        if np.any(self.region.inside & ~self.roi.inside):
            raise ValueError("prior region must lie inside the roi")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    data_residual: float
    prior_residual: float
    objective: float
    wall_time: float
    rel_error: float | None = None
    objective_history: list = field(default_factory=list)
    notes: str = ""

    def to_text(self) -> str:
        rows = [
            ("iterations", self.iterations),
            ("converged", int(self.converged)),
            ("data_residual", f"{self.data_residual:.17g}"),
            ("prior_residual", f"{self.prior_residual:.17g}"),
            ("objective", f"{self.objective:.17g}"),
            ("wall_time_s", f"{self.wall_time:.3f}"),
        ]
        if self.rel_error is not None:
            rows.append(("rel_error", f"{self.rel_error:.17g}"))
        if self.notes:
            rows.append(("notes", self.notes))
        return "".join(f"{k}={v}\n" for k, v in rows)


def _pcg(apply_a, b, tol, max_iter, precond=None, checkpoint=25):
    """Preconditioned CG on an SPD system with monotone-objective checks.

    The quadratic ``q(x) = x.Ax/2 - b.x`` is sampled at checkpoints; an
    increase across checkpoints flags divergence.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r) if precond else r
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, {"iterations": 0, "converged": True, "objective_history": [0.0]}
    history = []
    last_q = np.inf
    it = 0
    converged = False
    while it < max_iter:
        ap = apply_a(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            raise SolverFailure("operator lost positive definiteness", None)
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        it += 1
        if np.linalg.norm(r) <= tol * b_norm:
            converged = True
            break
        if it % checkpoint == 0:
            q = 0.5 * float(x @ apply_a(x)) - float(b @ x)
            history.append(q)
            if q > last_q + 1e-12 * abs(last_q):
                raise SolverFailure(
                    f"objective increased at iteration {it}", None
                )
            last_q = q
        z = precond(r) if precond else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    q = 0.5 * float(x @ apply_a(x)) - float(b @ x)
    history.append(q)
    return x, {"iterations": it, "converged": converged, "objective_history": history}


def _spectral_preconditioner(grid, lineset, priors, lam_p, lam_t, region_fraction):
    """Positive spectral multiplier approximating the normal-equation symbol.

    The data term behaves like the normal-operator symbol (decaying with
    frequency, scaled by the retained-line fraction); the prior contributes
    its squared symbol weighted by the region's volume fraction.  Any SPD
    multiplier is admissible; this one just clusters the spectrum.
    """
    hn = grid.h**grid.n
    xi = grid.freq_norm(padded=False)
    floor = np.pi / (2.0 * max(grid.extent))
    coverage = len(lineset) / max(
        1, lineset.n_angles * lineset.n_offsets ** (grid.n - 1)
    )
    data_sym = hn * (1.0 / analytic_c0(grid.n)) * coverage / (xi + floor)
    sym = data_sym.copy()
    if priors and lam_p > 0:
        mesh = np.meshgrid(*[grid.freq_axis(i) for i in range(grid.n)], indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        psym = np.zeros(pts.shape[0])
        for op in priors:
            psym += np.abs(diffops.symbol_eval(op, pts)) ** 2
        psym /= len(priors)
        sym = sym + lam_p * hn * region_fraction * psym.reshape(xi.shape)
    # cap the boost in directions the data barely sees: equalize the visible
    # band without inflating near-null search directions
    floor_gain = 0.01 * float(data_sym.max())
    mult = 1.0 / (sym + lam_t * hn + floor_gain)

    def precond(vec):
        arr = vec.reshape((-1,) + grid.shape)
        out = np.empty_like(arr)
        for k in range(arr.shape[0]):
            out[k] = np.fft.ifftn(mult * np.fft.fftn(arr[k])).real
        return out.reshape(vec.shape)

    return precond


def _solve(problem: PartialDataProblem, grid: Grid, thetas: list, terms: list):
    """Minimize ``|sqrt(w) (sum_i theta_i X u_i - g)|^2`` + penalty + ridge.

    Each term ``(op, d, d_t)`` adds ``lambda_prior h^order |op(d u)|^2`` on
    the prior region's stencil interior; ``d_t`` is the transpose of ``d``.
    Returns the component stack and a report without ``rel_error``.
    """
    t0 = time.perf_counter()
    ls = problem.data.lineset
    proj = projector(grid, ls)
    w = ls.weights
    g = problem.data.values
    h, hn = grid.h, grid.h**grid.n
    lam_p, lam_t = problem.lambda_prior, problem.lambda_tikhonov
    shape = (len(thetas),) + grid.shape

    inners = []
    for op, _, _ in terms:
        inner = diffops.stencil_interior(op, problem.region)
        if not inner.any():
            raise RegionError("prior region interior is empty")
        inners.append(inner)
    # dimensionless-difference normalization: an order-m penalty scales
    # as h^m so that unit weight means unit-size stencil residuals
    scales = [h**op.order for op, _, _ in terms]

    support = problem.support
    flags = None if support is None else np.tile(support.inside.reshape(-1), len(thetas))

    def _mask(vec):
        return vec if flags is None else np.where(flags, vec, 0.0)

    def forward(comps):
        sino = np.zeros(len(ls))
        for theta, comp in zip(thetas, comps):
            sino += theta * (proj.matrix @ comp.reshape(-1))
        return sino

    def backproject(sino):
        return np.stack(
            [(proj.matrix_t @ (theta * sino)).reshape(grid.shape) for theta in thetas]
        )

    def apply_a(vec):
        comps = _mask(vec).reshape(shape)
        out = backproject(w * forward(comps))
        for (op, d, d_t), inner, scale in zip(terms, inners, scales):
            z = diffops.apply_fd_normal(op, d(comps), inner, h)
            out += lam_p * scale * hn * d_t(z)
        out += lam_t * hn * comps
        return _mask(out.reshape(-1))

    b = _mask(backproject(w * g).reshape(-1))
    region_fraction = float(np.mean([m.mean() for m in inners])) if inners else 0.0
    mean_scale = float(np.mean(scales)) if scales else 0.0
    base_precond = _spectral_preconditioner(
        grid, ls, [op for op, _, _ in terms], lam_p * mean_scale, lam_t, region_fraction
    )

    def precond(vec):
        return _mask(base_precond(_mask(vec)))
    try:
        x, info = _pcg(apply_a, b, problem.cg_tol, problem.max_iter, precond)
    except SolverFailure as exc:
        exc.report = SolveReport(
            0, False, np.nan, np.nan, np.nan, time.perf_counter() - t0,
            notes=str(exc),
        )
        raise

    comps = x.reshape(shape)
    resid = forward(comps) - g
    data_rel = float(
        np.sqrt(np.sum(w * resid**2)) / max(np.sqrt(np.sum(w * g**2)), 1e-300)
    )
    prior_sq = 0.0
    for (op, d, _), inner in zip(terms, inners):
        action = diffops._apply_terms(op, d(comps), h)
        action[~inner] = 0.0
        prior_sq += hn * float(np.sum(np.abs(action) ** 2))
    report = SolveReport(
        iterations=info["iterations"],
        converged=info["converged"],
        data_residual=data_rel,
        prior_residual=float(np.sqrt(prior_sq)),
        objective=info["objective_history"][-1],
        wall_time=time.perf_counter() - t0,
        objective_history=info["objective_history"],
    )
    return comps, report


def solve_scalar_partial(
    problem: PartialDataProblem, grid: Grid, truth: ScalarField | None = None
):
    """Minimize data misfit + prior penalty + ridge by preconditioned CG.

    The one-component case of the core: unit line weights, and the prior
    acts on the field itself.
    """
    prior = problem.prior
    terms = []
    if prior is not None and problem.lambda_prior > 0:
        terms.append((prior, lambda comps: comps[0], lambda z: z[None]))
    comps, report = _solve(problem, grid, [np.ones(len(problem.data.lineset))], terms)
    f = ScalarField(grid, comps[0])
    if truth is not None:
        report.rel_error = float((f - truth).norm() / max(truth.norm(), 1e-300))
    return f, report


def _curl_term(op, i: int, j: int, grid: Grid):
    """Penalty term on the (i, j) curl component, with its transpose."""
    h = grid.h

    def d(comps):
        return _cd(comps[j], i, h) - _cd(comps[i], j, h)

    def d_t(z):
        out = np.zeros((grid.n,) + grid.shape)
        out[j] = _cd_adjoint(z, i, h)
        out[i] = -_cd_adjoint(z, j, h)
        return out

    return op, d, d_t


def solve_vector_partial(
    problem: PartialDataProblem, grid: Grid, truth: VectorField | None = None
):
    """Vector analogue; the penalty sits on the curl components.

    The n-component case of the core: line weights are the direction
    components, and each skew pair's prior acts on that curl component.
    Gradient directions are invisible to the data and barely touched by the
    penalty, so success is judged on the solenoidal part (compare the
    Helmholtz splits of the result and the ground truth).
    """
    priors = problem.prior
    if priors is None or problem.lambda_prior == 0:
        priors = {}
    elif isinstance(priors, diffops.PolyOp):
        priors = dict.fromkeys(skew_pairs(grid.n), priors)
    terms = [_curl_term(op, i, j, grid) for (i, j), op in dict(priors).items()]
    thetas = [problem.data.lineset.thetas[:, i] for i in range(grid.n)]
    comps, report = _solve(problem, grid, thetas, terms)
    F = VectorField(grid, comps)
    if truth is not None:
        sol_rec, _ = solenoidal_decompose(F)
        sol_true, _ = solenoidal_decompose(truth)
        report.rel_error = float(
            (sol_rec - sol_true).norm() / max(sol_true.norm(), 1e-300)
        )
    return F, report


# ---------------------------------------------------------------------------
# near-null-space probe


@dataclass
class ProbeResult:
    field: ScalarField
    rayleigh: float          # smallest found quotient over the largest one
    rayleigh_min: float
    rayleigh_max: float
    iterations: int
    support_violation: int


def null_space_probe(
    roi: RegionMask,
    grid: Grid,
    iters: int = 12,
    lineset: LineSet | None = None,
    probe_mask: RegionMask | None = None,
    inner_iters: int = 60,
    band_fraction: float = 1.0 / 3.0,
    seed: int = 0,
) -> ProbeResult:
    """Search for the least-visible unit field supported outside the region.

    The probe lives in the artifact's field class: supported in the standard
    0.9-extent ball but outside the region, and band-limited to resolved
    scales (``band_fraction`` of the grid bandwidth) so grid-scale lattice
    artifacts do not masquerade as invisible features.  Runs shifted inverse
    power iteration on the support-restricted normal operator of the given
    line set (default: the region's lines); the returned quotient is
    normalized by a power-iteration estimate of the largest quotient over the
    same class.
    """
    from .grid import disk_mask

    if probe_mask is not None:
        support = probe_mask.inside.reshape(-1)
    else:
        ball = disk_mask(grid, (0.0,) * grid.n, 0.9 * min(grid.extent))
        support = (ball.inside & ~roi.inside).reshape(-1)
    if not support.any():
        raise RegionError("probe support outside the region is empty")
    if lineset is None:
        lineset = filter_roi(make_lineset(grid), roi)
    proj = projector(grid, lineset)
    w = lineset.weights
    band = (grid.freq_norm() <= band_fraction * np.pi / grid.h).astype(float)

    def smooth_project(vec):
        low = np.fft.ifftn(band * np.fft.fftn(vec.reshape(grid.shape))).real
        return np.where(support, low.reshape(-1), 0.0)

    def apply_b(vec):
        u = np.where(support, vec, 0.0)
        out = proj.matrix_t @ (w * (proj.matrix @ u))
        return np.where(support, out, 0.0)

    rng = np.random.default_rng(seed)
    v = smooth_project(rng.standard_normal(grid.n_nodes))
    v /= np.linalg.norm(v)
    lam_max = 0.0
    for _ in range(40):
        bv = apply_b(v)
        lam_max = max(lam_max, float(v @ bv))
        v = smooth_project(bv)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            break
        v /= nrm

    mu = 1e-6 * max(lam_max, 1e-300)

    def apply_shifted(vec):
        return apply_b(vec) + mu * vec

    u = smooth_project(rng.standard_normal(grid.n_nodes))
    u /= np.linalg.norm(u)
    best_rq = float(u @ apply_b(u))
    best_u = u.copy()
    for _ in range(iters):
        u, _ = _pcg(apply_shifted, u, tol=1e-4, max_iter=inner_iters, checkpoint=10**9)
        u = smooth_project(u)
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            break
        u /= nrm
        rq = float(u @ apply_b(u))
        if rq < best_rq:
            best_rq = rq
            best_u = u.copy()
    violation = int(np.count_nonzero(best_u[~support]))
    return ProbeResult(
        field=ScalarField(grid, best_u.reshape(grid.shape)),
        rayleigh=best_rq / max(lam_max, 1e-300),
        rayleigh_min=best_rq,
        rayleigh_max=lam_max,
        iterations=iters,
        support_violation=violation,
    )
