"""Partial-data solves and the near-null-space probe (fast configurations)."""

import numpy as np
import pytest

import roitomo as rt
from roitomo import project, solver
from roitomo.errors import SolverFailure


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
