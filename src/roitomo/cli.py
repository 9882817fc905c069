"""Batch experiment runner: forward, reconstruct, verify, phantom, probe.

Runs are driven by flat key=value config files; every run directory receives
the resolved config and version stamps so results are reproducible.  Exit
codes: 0 ok, 2 config error, 3 geometry error, 4 solver failure,
5 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import scipy

from . import __version__, fileio, fraclap, solver, verify
from .diffops import PolyOp
from .errors import ConfigError, GeometryError, SolverFailure
from .grid import Grid, disk_mask
from .lines import filter_roi, make_lineset
from .phantoms import PhantomSpec, sample_phantom
from .xray_scalar import xray_forward
from .fileio import sinogram_image

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5


def _floats(text: str):
    return tuple(float(p) for p in text.split(","))


def _cfg_get(cfg, key, default=None, cast=str):
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {cfg[key]!r}") from exc


def _grid_from_cfg(cfg) -> Grid:
    return Grid(
        _cfg_get(cfg, "grid.n", 2, int),
        _cfg_get(cfg, "grid.size", 128, int),
        _cfg_get(cfg, "grid.extent", 1.0, float),
        pad_factor=_cfg_get(cfg, "grid.pad", 2, int),
    )


def _lineset_from_cfg(cfg, grid):
    return make_lineset(
        grid,
        _cfg_get(cfg, "lineset.angles", 180, int),
        _cfg_get(cfg, "lineset.offsets", None, int),
    )


def _phantom_from_cfg(cfg, grid) -> PhantomSpec:
    kind = _cfg_get(cfg, "phantom.kind")
    if kind is None:
        raise ConfigError("phantom.kind is required for this command")
    center = _cfg_get(cfg, "phantom.center", (0.0,) * grid.n, _floats)
    amp = _cfg_get(cfg, "phantom.amplitude", 1.0, float)
    if kind == "gaussian":
        return PhantomSpec.gaussian(center, _cfg_get(cfg, "phantom.sigma", 0.15, float), amp)
    if kind == "disk_indicator":
        return PhantomSpec.disk_indicator(center, _cfg_get(cfg, "phantom.radius", 0.5, float), amp)
    if kind == "bump":
        return PhantomSpec.bump(center, _cfg_get(cfg, "phantom.radius", 0.4, float), amp)
    if kind == "admissible_patch":
        outer_center = _cfg_get(cfg, "phantom.outer_center", None, _floats)
        return PhantomSpec.patch(
            rule=_cfg_get(cfg, "phantom.rule", "polynomial"),
            center=center,
            amplitude=amp,
            degree=_cfg_get(cfg, "phantom.degree", 2, int),
            xi0=_cfg_get(cfg, "phantom.xi", None, _floats),
            phase=_cfg_get(cfg, "phantom.phase", 0.0, float),
            axis=_cfg_get(cfg, "phantom.axis", 0, int),
            plateau_radius=_cfg_get(cfg, "phantom.plateau_radius", 0.5, float),
            support_radius=_cfg_get(cfg, "phantom.support_radius", 0.75, float),
            v_radius=_cfg_get(cfg, "phantom.v_radius", 0.2, float),
            outer_center=outer_center,
            outer_radius=_cfg_get(cfg, "phantom.outer_radius", None, float),
            outer_amplitude=_cfg_get(cfg, "phantom.outer_amplitude", 0.0, float),
        )
    raise ConfigError(f"unknown phantom.kind {kind!r}")


def _mask_from_cfg(cfg, grid, prefix):
    radius = _cfg_get(cfg, f"{prefix}.radius", None, float)
    if radius is None:
        return None
    center = _cfg_get(cfg, f"{prefix}.center", (0.0,) * grid.n, _floats)
    return disk_mask(grid, center, radius)


def _resolve_out(cfg, args):
    out = args.out or cfg.get("out.dir")
    if not out:
        raise ConfigError("no output directory (out.dir key or --out flag)")
    fileio.ensure_dir(out)
    return out


def _stamp(out, cfg, args, command):
    resolved = dict(cfg)
    resolved["command"] = command
    fileio.write_config(os.path.join(out, "config.resolved"), resolved)
    rows = [
        ("roitomo", __version__),
        ("numpy", np.__version__),
        ("scipy", scipy.__version__),
    ]
    if args.thread_cap is not None:
        threads, applied = args.thread_cap
        rows.append(("threads", f"{threads} applied={int(applied)}"))
    fileio.write_report(os.path.join(out, "versions.txt"), rows)


def _apply_threads(cfg, args):
    """Cap BLAS threads; returns ``(cap, applied)``, or None without a cap."""
    # the first source that is set wins, so --threads 0 is checked, not skipped;
    # an empty ROITOMO_THREADS counts as unset
    sources = (("--threads", args.threads), ("threads", cfg.get("threads")),
               ("ROITOMO_THREADS", os.environ.get("ROITOMO_THREADS") or None))
    name, threads = next(((n, v) for n, v in sources if v is not None), (None, None))
    if threads is None:
        return None
    try:
        threads = int(threads)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {threads!r}") from exc
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    try:
        import threadpoolctl
    except ImportError:
        return threads, False
    threadpoolctl.threadpool_limits(threads)
    return threads, True


def cmd_phantom(cfg, args) -> int:
    out = _resolve_out(cfg, args)
    grid = _grid_from_cfg(cfg)
    spec = _phantom_from_cfg(cfg, grid)
    field = sample_phantom(spec, grid)
    fileio.write_field(os.path.join(out, "phantom.roif"), field)
    fileio.write_pgm(os.path.join(out, "phantom.pgm"), field.values)
    op = spec.annihilator(grid.n)
    if op is not None:
        fileio.write_polyop(os.path.join(out, "annihilator.polyop"), op)
    _stamp(out, cfg, args, "phantom")
    return EXIT_OK


def cmd_forward(cfg, args) -> int:
    out = _resolve_out(cfg, args)
    grid = _grid_from_cfg(cfg)
    spec = _phantom_from_cfg(cfg, grid)
    field = sample_phantom(spec, grid)
    ls = _lineset_from_cfg(cfg, grid)
    roi = _mask_from_cfg(cfg, grid, "roi")
    if roi is not None:
        ls = filter_roi(ls, roi)
    sino = xray_forward(field, ls)
    fileio.write_field(os.path.join(out, "phantom.roif"), field)
    fileio.write_lineset(os.path.join(out, "lineset.csv"), ls)
    fileio.write_sinogram(os.path.join(out, "sinogram.csv"), sino)
    fileio.write_pgm(os.path.join(out, "sinogram.pgm"), sinogram_image(sino))
    _stamp(out, cfg, args, "forward")
    return EXIT_OK


def cmd_reconstruct(cfg, args) -> int:
    out = _resolve_out(cfg, args)
    grid = _grid_from_cfg(cfg)
    mode = _cfg_get(cfg, "solver.mode", "full")
    sino_path = _cfg_get(cfg, "data.sinogram")
    if sino_path is None:
        raise ConfigError("data.sinogram is required for reconstruct")
    sino = fileio.read_sinogram(sino_path)
    truth = None
    if "truth.field" in cfg:
        truth = fileio.read_field(cfg["truth.field"], pad_factor=grid.pad_factor)
    elif "phantom.kind" in cfg:
        truth = sample_phantom(_phantom_from_cfg(cfg, grid), grid)

    if mode == "full":
        how = _cfg_get(cfg, "recon.constants", "calibrate")
        if how == "analytic":
            consts = fraclap.analytic_constants(grid.n)
        elif how == "calibrate":
            consts = fraclap.calibrate_constants(grid, sino.lineset)
        else:
            raise ConfigError(f"unknown recon.constants {how!r}")
        recon = fraclap.reconstruct_full_scalar(sino, grid, consts)
        pairs = [("mode", "full"), ("c0", f"{consts.c0:.17g}"), ("c1", f"{consts.c1:.17g}")]
        if truth is not None:
            err = recon - truth
            rel = err.norm() / max(truth.norm(), 1e-300)
            pairs.append(("rel_error", f"{rel:.17g}"))
            fileio.write_pgm(os.path.join(out, "error.pgm"), np.abs(err.values))
        fileio.write_field(os.path.join(out, "reconstruction.roif"), recon)
        fileio.write_pgm(os.path.join(out, "reconstruction.pgm"), recon.values)
        fileio.write_report(os.path.join(out, "report.txt"), pairs)
        _stamp(out, cfg, args, "reconstruct")
        return EXIT_OK

    if mode != "partial":
        raise ConfigError(f"unknown solver.mode {mode!r}")
    lam_p = _cfg_get(cfg, "solver.lambda_prior", 1.0, float)
    prior_path = _cfg_get(cfg, "prior.file")
    if prior_path is None and lam_p > 0:
        raise ConfigError("solver.mode=partial with lambda_prior > 0 needs prior.file")
    prior = fileio.read_polyop(prior_path, grid.n) if prior_path else None
    roi = _mask_from_cfg(cfg, grid, "roi")
    region = _mask_from_cfg(cfg, grid, "v")
    if roi is None or region is None:
        raise ConfigError("partial mode needs roi.radius and v.radius")
    problem = solver.PartialDataProblem(
        roi=roi,
        region=region,
        data=sino,
        prior=prior,
        lambda_prior=lam_p,
        lambda_tikhonov=_cfg_get(cfg, "solver.lambda_tikhonov", 1e-6, float),
        cg_tol=_cfg_get(cfg, "solver.cg_tol", 1e-8, float),
        max_iter=_cfg_get(cfg, "solver.max_iter", 2000, int),
    )
    try:
        recon, report = solver.solve_scalar_partial(problem, grid, truth=truth)
    except SolverFailure as exc:
        if exc.report is not None:
            with open(os.path.join(out, "report.txt"), "w") as fh:
                fh.write(exc.report.to_text())
        _stamp(out, cfg, args, "reconstruct")
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    fileio.write_field(os.path.join(out, "reconstruction.roif"), recon)
    fileio.write_pgm(os.path.join(out, "reconstruction.pgm"), recon.values)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write("mode=partial\n")
        fh.write(report.to_text())
    _stamp(out, cfg, args, "reconstruct")
    return EXIT_OK


def cmd_verify(cfg, args) -> int:
    out = _resolve_out(cfg, args)
    results = verify.run_verification(
        size=_cfg_get(cfg, "grid.size", 256, int),
        angles=_cfg_get(cfg, "lineset.angles", 360, int),
        offsets=_cfg_get(cfg, "lineset.offsets", None, int),
        pad=_cfg_get(cfg, "grid.pad", 2, int),
    )
    rows = []
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} value={r.value:.3e} threshold={r.threshold:.3e}")
        rows.append((r.name, f"{status} value={r.value:.17g} threshold={r.threshold:.17g}"))
        ok &= r.passed
    fileio.write_report(os.path.join(out, "verify.txt"), rows)
    _stamp(out, cfg, args, "verify")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_probe(cfg, args) -> int:
    out = _resolve_out(cfg, args)
    grid = _grid_from_cfg(cfg)
    roi = _mask_from_cfg(cfg, grid, "roi")
    if roi is None:
        roi = disk_mask(grid, (0.0,) * grid.n, 0.9 * min(grid.extent))
    ls = filter_roi(_lineset_from_cfg(cfg, grid), roi)
    result = solver.null_space_probe(
        roi, grid, iters=_cfg_get(cfg, "probe.iters", 12, int), lineset=ls
    )
    fileio.write_field(os.path.join(out, "probe.roif"), result.field)
    fileio.write_pgm(os.path.join(out, "probe.pgm"), result.field.values)
    fileio.write_report(
        os.path.join(out, "report.txt"),
        [
            ("rayleigh_normalized", f"{result.rayleigh:.17g}"),
            ("rayleigh_min", f"{result.rayleigh_min:.17g}"),
            ("rayleigh_max", f"{result.rayleigh_max:.17g}"),
            ("iterations", result.iterations),
            ("support_violation", result.support_violation),
        ],
    )
    _stamp(out, cfg, args, "probe")
    return EXIT_OK


_COMMANDS = {
    "phantom": cmd_phantom,
    "forward": cmd_forward,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roitomo",
        description="Region-of-interest tomography experiments on regular grids.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output directory (overrides out.dir)")
    parser.add_argument("--threads", type=int, help="thread cap via threadpoolctl (ROITOMO_THREADS fallback)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = {}
        if args.config:
            with open(args.config) as fh:
                cfg = fileio.parse_config(fh.read())
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command={declared!r}, invoked {args.command!r}"
            )
        args.thread_cap = _apply_threads(cfg, args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
