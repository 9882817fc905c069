"""Partial-data solves and the near-null-space probe (fast configurations)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import roitomo as rt
from roitomo import diffops, project, solver
from roitomo.errors import SolverFailure
from roitomo.xray_vector import _cd, _cd_adjoint, skew_pairs
from util import polyops


@pytest.fixture(scope="module")
def setup():
    grid = rt.Grid(2, 96, 1.0)
    ls = rt.make_lineset(grid, 120, 144)
    roi = rt.disk_mask(grid, (0.0, 0.0), 0.35)
    region = rt.disk_mask(grid, (0.0, 0.0), 0.2)
    kept = rt.filter_roi(ls, roi)
    spec = rt.PhantomSpec.patch(
        rule="polynomial", degree=2, plateau_radius=0.38, support_radius=0.85,
        v_radius=0.2,
    )
    truth = rt.sample_phantom(spec, grid)
    data = rt.xray_forward(truth, kept)
    return grid, roi, region, kept, spec, truth, data


def test_problem_validation(setup):
    grid, roi, region, kept, spec, truth, data = setup
    with pytest.raises(ValueError):
        solver.PartialDataProblem(roi=region, region=roi, data=data)  # V not in roi
    with pytest.raises(ValueError):
        solver.PartialDataProblem(roi=roi, region=region, data=data, lambda_prior=-1)


def test_zero_data_gives_zero(setup):
    grid, roi, region, kept, spec, truth, data = setup
    zero = rt.Sinogram(kept, np.zeros(len(kept)))
    p = solver.PartialDataProblem(
        roi=roi, region=region, data=zero, prior=spec.annihilator(2),
        lambda_prior=0.5, lambda_tikhonov=1e-6, max_iter=50,
    )
    rec, rep = solver.solve_scalar_partial(p, grid)
    assert not rec.values.any()
    assert rep.iterations == 0 and rep.converged
    assert rep.objective_history == [0.0]


def test_solution_linear_in_data(setup):
    # linearity holds for converged solves; data from smooth fields and a
    # sizable ridge keep the system well conditioned so CG actually converges
    grid, roi, region, kept, spec, truth, data = setup
    prior = spec.annihilator(2)
    other = rt.sample_phantom(rt.PhantomSpec.gaussian(center=(0.1, -0.05), sigma=0.18), grid)
    g1 = rt.Sinogram(kept, data.values)
    g2 = rt.xray_forward(other, kept)
    kw = dict(roi=roi, region=region, prior=prior, lambda_prior=0.5,
              lambda_tikhonov=1e-2, cg_tol=1e-12, max_iter=3000)
    f1, r1 = solver.solve_scalar_partial(
        solver.PartialDataProblem(data=g1, **kw), grid)
    f2, r2 = solver.solve_scalar_partial(
        solver.PartialDataProblem(data=g2, **kw), grid)
    fsum, rs = solver.solve_scalar_partial(
        solver.PartialDataProblem(data=rt.Sinogram(kept, g1.values + g2.values), **kw),
        grid)
    assert r1.converged and r2.converged and rs.converged
    lhs = fsum.values
    rhs = f1.values + f2.values
    assert np.linalg.norm(lhs - rhs) < 1e-6 * np.linalg.norm(rhs)


def test_objective_monotone(setup):
    grid, roi, region, kept, spec, truth, data = setup
    p = solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=spec.annihilator(2),
        lambda_prior=0.5, lambda_tikhonov=1e-6, cg_tol=1e-13, max_iter=400,
    )
    _, rep = solver.solve_scalar_partial(p, grid, truth=truth)
    hist = rep.objective_history
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(hist, hist[1:]))
    assert np.isfinite(hist).all()


def test_constrained_beats_unconstrained(setup):
    grid, roi, region, kept, spec, truth, data = setup
    con = solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=spec.annihilator(2),
        lambda_prior=0.5, lambda_tikhonov=1e-10, cg_tol=1e-13, max_iter=1500,
    )
    unc = solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=None,
        lambda_prior=0.0, lambda_tikhonov=1e-10, cg_tol=1e-13, max_iter=1500,
    )
    _, rep_con = solver.solve_scalar_partial(con, grid, truth=truth)
    _, rep_unc = solver.solve_scalar_partial(unc, grid, truth=truth)
    assert rep_con.rel_error < rep_unc.rel_error


def test_report_text(setup):
    grid, roi, region, kept, spec, truth, data = setup
    p = solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=spec.annihilator(2),
        lambda_prior=0.5, max_iter=50,
    )
    _, rep = solver.solve_scalar_partial(p, grid, truth=truth)
    text = rep.to_text()
    assert "iterations=" in text and "rel_error=" in text


def test_vector_solve_zero_data():
    grid = rt.Grid(2, 64, 1.0)
    ls = rt.make_lineset(grid, 90, 96)
    roi = rt.disk_mask(grid, (0.0, 0.0), 0.35)
    region = rt.disk_mask(grid, (0.0, 0.0), 0.2)
    kept = rt.filter_roi(ls, roi)
    zero = rt.Sinogram(kept, np.zeros(len(kept)))
    p = solver.PartialDataProblem(
        roi=roi, region=region, data=zero, prior=rt.laplacian_power(2, 1),
        lambda_prior=1e-4, max_iter=50,
    )
    F, rep = solver.solve_vector_partial(p, grid)
    sol, _ = rt.solenoidal_decompose(F)
    assert sol.norm() == 0.0


def test_probe_support_and_contrast():
    grid = rt.Grid(2, 96, 1.0)
    ls = rt.make_lineset(grid, 150, 144)
    roi = rt.disk_mask(grid, (0.0, 0.0), 0.3)
    kept = rt.filter_roi(ls, roi)
    res = solver.null_space_probe(roi, grid, iters=8, lineset=kept, inner_iters=40)
    assert res.support_violation == 0
    assert res.rayleigh < 1e-3  # invisible features exist for region data

    res_full = solver.null_space_probe(roi, grid, iters=8, lineset=ls,
                                       inner_iters=40)
    assert res_full.rayleigh > 1e-2  # nothing hides from the full line set
    assert res_full.rayleigh > 10 * res.rayleigh


def test_probe_empty_support():
    grid = rt.Grid(2, 64, 1.0)
    with pytest.raises(rt.RegionError):
        solver.null_space_probe(rt.full_mask(grid), grid, iters=2)


def test_restricted_normal_is_bit_identical(setup):
    grid, roi, region, kept, spec, truth, data = setup
    proj = project.projector(grid, kept)
    w = kept.weights
    rng = np.random.default_rng(11)
    ball = rt.disk_mask(grid, (0.0, 0.0), 0.9)
    for support in [(ball.inside & ~roi.inside).reshape(-1),
                    rng.random(grid.n_nodes) < 0.3,
                    np.ones(grid.n_nodes, dtype=bool)]:
        apply_b = solver._restricted_normal(proj.matrix_t, w, support)
        for _ in range(3):
            v = rng.standard_normal(grid.n_nodes)
            full = proj.matrix_t @ (w * (proj.matrix @ np.where(support, v, 0.0)))
            assert np.array_equal(apply_b(v), np.where(support, full, 0.0))


def _random_region(grid, rng, density):
    """Scattered nodes joined with a random box about the centre."""
    size = grid.size[0]
    lo = rng.integers(0, size // 4 + 1, grid.n)
    hi = rng.integers(size - size // 4, size + 1, grid.n)
    inside = rng.random(grid.shape) < density
    inside[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    return rt.RegionMask(grid, inside)


def _curl(comps, i, j, h):
    return _cd(comps[j], i, h) - _cd(comps[i], j, h)


@settings(max_examples=30)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_curl_prior_rows_match_fd_normal(n, size, data, seed, density):
    grid = rt.Grid(n, size, 1.0)
    h = grid.h
    op = data.draw(polyops(n))
    i, j = data.draw(st.sampled_from(skew_pairs(n)))
    rng = np.random.default_rng(seed)
    inner = rng.random(grid.shape) < density
    comps = rng.standard_normal((n,) + grid.shape)
    _, d = solver._curl_term(op, i, j, grid)
    rows = diffops.prior_rows(op, inner, h) @ d
    got = (rows.T @ (rows @ comps.reshape(-1))).reshape(comps.shape)
    z = diffops.apply_fd_normal(op, _curl(comps, i, j, h), inner, h)
    ref = np.zeros_like(comps)
    ref[j] = _cd_adjoint(z, i, h)
    ref[i] = -_cd_adjoint(z, j, h)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@settings(max_examples=20)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 0.5))
@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("n, size", [(2, 16), (3, 10)])
def test_prior_residual_matches_stencil_action(n, size, vector, data, seed, density):
    grid = rt.Grid(n, size, 1.0)
    h = grid.h
    op = data.draw(polyops(n))
    rng = np.random.default_rng(seed)
    region = _random_region(grid, rng, density)
    inner = diffops.stencil_interior(op, region)
    assume(inner.any())
    lines = rt.make_lineset(grid, 8, 8)
    p = solver.PartialDataProblem(
        roi=rt.full_mask(grid), region=region, prior=op, lambda_prior=1.0, max_iter=3,
        data=rt.Sinogram(lines, rng.standard_normal(len(lines))),
    )
    if vector:
        F, rep = solver.solve_vector_partial(p, grid)
        fields = [_curl(F.values, i, j, h) for i, j in skew_pairs(n)]
    else:
        f, rep = solver.solve_scalar_partial(p, grid)
        fields = [f.values]
    actions = [diffops._apply_terms(op, u, h)[inner] for u in fields]
    ref = np.sqrt(grid.h**n * sum(float(np.sum(np.abs(a) ** 2)) for a in actions))
    assert rep.prior_residual == pytest.approx(ref, rel=1e-12)


def _count_assemblies(monkeypatch):
    calls = []
    assemble = project.assemble_matrix

    def counted(grid, lineset):
        calls.append(lineset)
        return assemble(grid, lineset)

    monkeypatch.setattr(project, "assemble_matrix", counted)
    return calls


def test_solves_and_probe_reuse_cached_matrix(setup, monkeypatch):
    grid, roi, region, kept, spec, truth, data = setup
    rt.xray_forward(truth, kept)
    calls = _count_assemblies(monkeypatch)
    solver.solve_scalar_partial(solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=spec.annihilator(2),
        lambda_prior=0.5, max_iter=5), grid)
    solver.solve_vector_partial(solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=rt.laplacian_power(2, 1),
        lambda_prior=0.5, max_iter=5), grid)
    solver.null_space_probe(roi, grid, iters=1, lineset=kept, inner_iters=5)
    assert calls == []


def test_uncached_solve_matches_cached(setup, monkeypatch):
    grid, roi, region, kept, spec, truth, data = setup
    p = solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=spec.annihilator(2),
        lambda_prior=0.5, max_iter=30,
    )
    cached, _ = solver.solve_scalar_partial(p, grid)
    monkeypatch.setattr(project, "_MATRIX_NNZ_LIMIT", 0)
    calls = _count_assemblies(monkeypatch)
    uncached, _ = solver.solve_scalar_partial(p, grid)
    assert len(calls) == 1
    assert np.array_equal(cached.values, uncached.values)


def test_region_study_line_sets_stay_cached(setup, monkeypatch):
    # one study holds three line sets at once: the probe's, the vector
    # solve's (sampled mask) and the scalar solves' (closed-form disk)
    grid, roi, region, kept, spec, truth, data = setup
    full = rt.make_lineset(grid, 120, 144)
    sampled = rt.RegionMask(grid, roi.inside)
    kept_v = rt.filter_roi(full, sampled)
    probe_roi = rt.disk_mask(grid, (0.0, 0.0), 0.25)
    probe_lines = rt.filter_roi(full, probe_roi)
    scalar = solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=spec.annihilator(2),
        lambda_prior=0.5, max_iter=2)
    vector = solver.PartialDataProblem(
        roi=sampled, region=region, data=rt.Sinogram(kept_v, np.ones(len(kept_v))),
        prior=rt.laplacian_power(2, 1), lambda_prior=0.5, max_iter=2)
    calls = _count_assemblies(monkeypatch)
    per_pass = []
    for _ in range(2):
        before = len(calls)
        solver.null_space_probe(probe_roi, grid, iters=1, lineset=probe_lines, inner_iters=2)
        solver.solve_vector_partial(vector, grid)
        solver.solve_scalar_partial(scalar, grid)
        per_pass.append(len(calls) - before)
    assert per_pass[1] == 0


def _reference_pcg(apply_a, b, tol, max_iter, precond, history):
    """The hand-written PCG loop the solver ran before scipy's ``cg``.

    Kept as the oracle: checks the objective every 25 iterations except on
    the converging one, and appends the final objective.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r) if precond else r
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b))
    it = 0
    converged = False
    while it < max_iter:
        ap = apply_a(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        it += 1
        if np.linalg.norm(r) <= tol * b_norm:
            converged = True
            break
        if it % 25 == 0:
            history.append(0.5 * float(x @ apply_a(x)) - float(b @ x))
        z = precond(r) if precond else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    history.append(0.5 * float(x @ apply_a(x)) - float(b @ x))
    return x, it, converged


def _use_reference_pcg(monkeypatch):
    history = []

    def reference(apply_a, b, tol, max_iter, precond=None, callback=None):
        return _reference_pcg(apply_a, b, tol, max_iter, precond, history)

    monkeypatch.setattr(solver, "_cg", reference)
    return history


@pytest.mark.parametrize("vector", [False, True])
def test_solves_match_reference_pcg(setup, monkeypatch, vector):
    grid, roi, region, kept, spec, truth, data = setup
    solve = solver.solve_vector_partial if vector else solver.solve_scalar_partial
    p = solver.PartialDataProblem(
        roi=roi, region=region, data=data,
        prior=rt.laplacian_power(2, 1) if vector else spec.annihilator(2),
        lambda_prior=0.5, lambda_tikhonov=1e-10, cg_tol=1e-13, max_iter=30,
    )
    rec, rep = solve(p, grid)
    history = _use_reference_pcg(monkeypatch)
    ref, ref_rep = solve(p, grid)
    assert np.array_equal(rec.values, ref.values)
    assert rep.iterations == ref_rep.iterations == 30
    assert not rep.converged and not ref_rep.converged
    assert len(history) == 2 and rep.objective_history == history


def test_probe_matches_reference_pcg(setup, monkeypatch):
    grid, roi, region, kept, spec, truth, data = setup
    res = solver.null_space_probe(roi, grid, iters=3, lineset=kept, inner_iters=20)
    _use_reference_pcg(monkeypatch)
    ref = solver.null_space_probe(roi, grid, iters=3, lineset=kept, inner_iters=20)
    assert np.array_equal(res.field.values, ref.field.values)
    assert (res.rayleigh, res.rayleigh_min, res.rayleigh_max) == (
        ref.rayleigh, ref.rayleigh_min, ref.rayleigh_max)


def test_preconditioner_batch_matches_per_component(setup):
    grid, roi, region, kept, spec, truth, data = setup
    precond = solver._spectral_preconditioner(grid, kept, [spec.annihilator(2)], 1e-4, 1e-10, 0.05)
    vec = np.random.default_rng(3).standard_normal(2 * grid.n_nodes)
    out = precond(vec)
    per_comp = np.concatenate([precond(part) for part in np.split(vec, 2)])
    assert np.array_equal(out, per_comp)
    # a strided result would change the summation order of CG's dot products
    assert out.flags.c_contiguous


def test_indefinite_operator_fails_on_first_step():
    steps = []
    with pytest.raises(SolverFailure, match="lost positive definiteness"):
        solver._cg(lambda v: np.array([1.0, -2.0]) * v, np.ones(2), 1e-8, 10,
                   callback=lambda k, x: steps.append(k))
    assert steps == []


def test_cg_iteration_budget_edges():
    def double(v):
        return 2.0 * v

    # one step solves 2x = b exactly; scipy sees it only before a second step
    x, it, converged = solver._cg(double, np.ones(3), 1e-8, 1)
    assert np.array_equal(x, np.full(3, 0.5)) and (it, converged) == (1, False)
    assert solver._cg(double, np.ones(3), 1e-8, 2)[1:] == (1, True)
    # a zero budget does nothing, which counts as converged only for b = 0
    assert solver._cg(double, np.ones(3), 1e-8, 0)[1:] == (0, False)
    assert solver._cg(double, np.zeros(3), 1e-8, 0)[1:] == (0, True)


def test_objective_increase_raises_with_iteration(setup, monkeypatch):
    grid, roi, region, kept, spec, truth, data = setup

    def rising_cg(a, b, callback, **_):
        # the exact line-search step along b takes q below q(0) = 0, so a
        # return to zero at the second check (iteration 50) is a rise
        step = (b @ b) / (b @ a.matvec(b)) * b
        for k in range(1, 51):
            callback(step if k < 50 else np.zeros_like(b))
        return step, 1

    monkeypatch.setattr(solver, "cg", rising_cg)
    p = solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=spec.annihilator(2),
        lambda_prior=0.5, max_iter=100,
    )
    with pytest.raises(SolverFailure, match="objective increased at iteration 50") as exc:
        solver.solve_scalar_partial(p, grid)
    assert exc.value.report.notes == "objective increased at iteration 50"
    assert not exc.value.report.converged
