"""Uniqueness from region-limited data, made visible.

Only lines meeting a small disk are measured.  Without structural knowledge
the interior problem is famously non-unique and the least-squares solution
misses most of the object.  The demo compares it with a solve that adds the
annihilator penalty on the inner disk.  At the current settings the penalty
does not help: after 2000 iterations the constrained error is 59.1% against
40.7% unconstrained.  Both numbers are where conjugate gradients stopped, not
minimizers, since the discrete objective has a large null space; ROADMAP item
1 (a well-posed partial-data estimator) is the open work that should change
them.  Takes under a minute.
"""

import os

import numpy as np

import roitomo as rt
from roitomo import fileio, solver

OUT = os.path.join(os.path.dirname(__file__), "out", "05")
fileio.ensure_dir(OUT)

grid = rt.Grid(2, 128, 1.0)
ls = rt.make_lineset(grid, 180, 192)
roi = rt.disk_mask(grid, (0.0, 0.0), 0.35)
region = rt.disk_mask(grid, (0.0, 0.0), 0.2)
kept = rt.filter_roi(ls, roi)
print(f"measuring {len(kept)} of {len(ls)} lines (those meeting the 0.35-disk)")

spec = rt.PhantomSpec.patch(
    rule="polynomial", degree=2, plateau_radius=0.5, support_radius=0.75,
    v_radius=0.2, outer_center=(0.5, 0.3), outer_radius=0.22,
    outer_amplitude=0.4,
)
truth = rt.sample_phantom(spec, grid)
data = rt.xray_forward(truth, kept)
prior = spec.annihilator(2)

runs = {
    "constrained": solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=prior,
        lambda_prior=1e-8, lambda_tikhonov=1e-6, max_iter=2000,
    ),
    "unconstrained": solver.PartialDataProblem(
        roi=roi, region=region, data=data, prior=None,
        lambda_prior=0.0, lambda_tikhonov=1e-6, max_iter=2000,
    ),
}

errors = {}
for name, problem in runs.items():
    rec, report = solver.solve_scalar_partial(problem, grid, truth=truth)
    errors[name] = report.rel_error
    fileio.write_pgm(os.path.join(OUT, f"{name}.pgm"), rec.values)
    fileio.write_pgm(os.path.join(OUT, f"{name}_error.pgm"),
                     np.abs(rec.values - truth.values))
    print(f"{name}: error {report.rel_error:.3%} after {report.iterations} "
          f"iterations ({report.wall_time:.0f} s)")

fileio.write_pgm(os.path.join(OUT, "truth.pgm"), truth.values)
print(f"error ratio unconstrained / constrained: "
      f"{errors['unconstrained'] / errors['constrained']:.1f}")
print(f"previews written to {OUT}")
