"""End-to-end command-line runs: files, exit codes, determinism."""

import os
import sys
import types

import numpy as np
import pytest
import scipy
from scipy import sparse

import roitomo as rt
from roitomo import cli, fileio, solver


def run_cli(args):
    return cli.main(args)


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


BASE = """
grid.n=2
grid.size=64
grid.extent=1.0
grid.pad=2
phantom.kind=gaussian
phantom.sigma=0.15
phantom.amplitude=1.0
lineset.angles=60
lineset.offsets=96
"""


def test_phantom_command(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", BASE + f"out.dir={tmp_path}/run\n")
    assert run_cli(["phantom", "--config", cfg]) == 0
    assert (tmp_path / "run" / "phantom.roif").exists()
    assert (tmp_path / "run" / "phantom.pgm").exists()
    assert (tmp_path / "run" / "config.resolved").exists()
    assert (tmp_path / "run" / "versions.txt").exists()


def test_phantom_patch_writes_annihilator(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.cfg",
        "grid.size=64\nphantom.kind=admissible_patch\nphantom.rule=harmonic\n"
        "phantom.degree=3\nphantom.plateau_radius=0.45\nphantom.support_radius=0.7\n"
        f"phantom.v_radius=0.2\nout.dir={tmp_path}/run\n",
    )
    assert run_cli(["phantom", "--config", cfg]) == 0
    op = fileio.read_polyop(tmp_path / "run" / "annihilator.polyop")
    assert op.order == 2


def test_forward_zero_phantom(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.cfg",
        BASE.replace("phantom.amplitude=1.0", "phantom.amplitude=0.0")
        + f"out.dir={tmp_path}/run\n",
    )
    assert run_cli(["forward", "--config", cfg]) == 0
    sino = fileio.read_sinogram(tmp_path / "run" / "sinogram.csv")
    assert not sino.values.any()


def test_forward_deterministic(tmp_path):
    cfg1 = write_cfg(tmp_path / "c1.cfg", BASE + f"out.dir={tmp_path}/r1\n")
    cfg2 = write_cfg(tmp_path / "c2.cfg", BASE + f"out.dir={tmp_path}/r2\n")
    assert run_cli(["forward", "--config", cfg1]) == 0
    assert run_cli(["forward", "--config", cfg2]) == 0
    for name in ("sinogram.csv", "lineset.csv", "sinogram.pgm"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name


def test_reconstruct_full_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path / "fw.cfg", BASE + f"out.dir={tmp_path}/fw\n")
    assert run_cli(["forward", "--config", cfg]) == 0
    rcfg = write_cfg(
        tmp_path / "rc.cfg",
        BASE
        + f"out.dir={tmp_path}/rc\nsolver.mode=full\n"
        + f"data.sinogram={tmp_path}/fw/sinogram.csv\n"
        + f"truth.field={tmp_path}/fw/phantom.roif\n",
    )
    assert run_cli(["reconstruct", "--config", rcfg]) == 0
    report = dict(
        line.split("=", 1)
        for line in (tmp_path / "rc" / "report.txt").read_text().splitlines()
    )
    assert float(report["rel_error"]) < 0.05
    assert (tmp_path / "rc" / "error.pgm").exists()


def test_reconstruct_partial_needs_prior(tmp_path):
    cfg = write_cfg(
        tmp_path / "bad.cfg",
        BASE
        + f"out.dir={tmp_path}/bad\nsolver.mode=partial\nsolver.lambda_prior=1.0\n"
        + f"data.sinogram={tmp_path}/nowhere.csv\nroi.radius=0.35\nv.radius=0.2\n",
    )
    assert run_cli(["reconstruct", "--config", cfg]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "bad.cfg", "grid.bogus=1\nout.dir=x\n")
    assert run_cli(["forward", "--config", cfg]) == 2


def test_command_mismatch_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", BASE + f"command=forward\nout.dir={tmp_path}/x\n")
    assert run_cli(["phantom", "--config", cfg]) == 2


def test_geometry_error_exit_code(tmp_path):
    cfg = write_cfg(
        tmp_path / "geo.cfg",
        "grid.size=64\nphantom.kind=gaussian\nphantom.center=0.9,0.0\n"
        f"phantom.sigma=0.2\nout.dir={tmp_path}/geo\n",
    )
    assert run_cli(["phantom", "--config", cfg]) == 3


def test_missing_config_file(tmp_path):
    assert run_cli(["forward", "--config", str(tmp_path / "none.cfg")]) == 2


def test_probe_command(tmp_path):
    cfg = write_cfg(
        tmp_path / "p.cfg",
        "grid.size=64\nlineset.angles=90\nlineset.offsets=96\n"
        f"roi.center=0.0,0.0\nroi.radius=0.3\nprobe.iters=6\nout.dir={tmp_path}/probe\n",
    )
    assert run_cli(["probe", "--config", cfg]) == 0
    report = dict(
        line.split("=", 1)
        for line in (tmp_path / "probe" / "report.txt").read_text().splitlines()
    )
    assert float(report["rayleigh_normalized"]) < 1e-3
    assert int(report["support_violation"]) == 0


def test_verify_command_small(tmp_path):
    cfg = write_cfg(
        tmp_path / "v.cfg",
        "grid.size=96\nlineset.angles=120\nlineset.offsets=144\n"
        f"out.dir={tmp_path}/verify\n",
    )
    code = run_cli(["verify", "--config", cfg])
    report = (tmp_path / "verify" / "verify.txt").read_text()
    assert code == 0, report
    assert "adjoint_scalar" in report


def test_out_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", BASE + f"out.dir={tmp_path}/ignored\n")
    assert run_cli(["phantom", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "phantom.roif").exists()
    assert not (tmp_path / "ignored").exists()


def _zero_sinogram(tmp_path):
    ls = rt.make_lineset(rt.Grid(2, 64, 1.0), 6, 8)
    path = tmp_path / "sino.csv"
    fileio.write_sinogram(path, rt.Sinogram(ls, np.zeros(len(ls))))
    return path


def _reconstruct_exit(tmp_path, settings):
    cfg = write_cfg(tmp_path / "rc.cfg", BASE + f"out.dir={tmp_path}/rc\n" + settings)
    return run_cli(["reconstruct", "--config", cfg])


def _assert_one_line_config_error(capsys, path):
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:") and str(path) in err


def test_sinogram_without_values_exit_code(tmp_path, capsys):
    path = tmp_path / "lines.csv"
    fileio.write_lineset(path, rt.make_lineset(rt.Grid(2, 64, 1.0), 6, 8))
    assert _reconstruct_exit(tmp_path, f"solver.mode=full\ndata.sinogram={path}\n") == 2
    _assert_one_line_config_error(capsys, path)


def test_malformed_field_header_exit_code(tmp_path, capsys):
    field = tmp_path / "truth.roif"
    field.write_bytes(b"ROIF1 n=2 size=4,4,4 extent=1,1\n" + bytes(8 * 64))
    settings = (f"solver.mode=full\ndata.sinogram={_zero_sinogram(tmp_path)}\n"
                f"truth.field={field}\n")
    assert _reconstruct_exit(tmp_path, settings) == 2
    _assert_one_line_config_error(capsys, field)


def test_malformed_operator_file_exit_code(tmp_path, capsys):
    prior = tmp_path / "p.polyop"
    prior.write_text("1 2 x\n")
    settings = (f"solver.mode=partial\ndata.sinogram={_zero_sinogram(tmp_path)}\n"
                f"prior.file={prior}\nroi.radius=0.35\nv.radius=0.2\n")
    assert _reconstruct_exit(tmp_path, settings) == 2
    _assert_one_line_config_error(capsys, prior)


def test_partial_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    grid = rt.Grid(2, 64, 1.0)
    kept = rt.filter_roi(rt.make_lineset(grid, 60, 96), rt.disk_mask(grid, (0.0, 0.0), 0.35))
    truth = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.15), grid)
    fileio.write_sinogram(tmp_path / "sino.csv", rt.xray_forward(truth, kept))
    fileio.write_polyop(tmp_path / "p.polyop", rt.laplacian_power(2, 1))
    # a prior penalty that is negative definite makes the system indefinite
    def indefinite(terms, inners, grid, lam_p, size):
        return sparse.identity(size, format="csr"), np.full(size, -1e20)

    monkeypatch.setattr(solver, "_prior_penalty", indefinite)
    settings = (f"solver.mode=partial\ndata.sinogram={tmp_path}/sino.csv\n"
                f"prior.file={tmp_path}/p.polyop\nroi.radius=0.35\nv.radius=0.2\n"
                "solver.max_iter=5\n")
    assert _reconstruct_exit(tmp_path, settings) == 4
    report = (tmp_path / "rc" / "report.txt").read_text()
    assert "iterations=0\nconverged=0\n" in report
    assert report.endswith("notes=operator lost positive definiteness\n")
    assert "solver failure: operator lost positive definiteness" in capsys.readouterr().err
    assert not (tmp_path / "rc" / "reconstruction.roif").exists()


@pytest.mark.parametrize("threadpoolctl", [None, "fake"])
def test_versions_record_thread_cap(tmp_path, monkeypatch, threadpoolctl):
    limits = []
    fake = types.SimpleNamespace(threadpool_limits=limits.append)
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake if threadpoolctl else None)
    monkeypatch.delenv("ROITOMO_THREADS", raising=False)
    cfg = write_cfg(tmp_path / "c.cfg", BASE)

    def versions(name, *flags):
        assert run_cli(["phantom", "--config", cfg, "--out", str(tmp_path / name), *flags]) == 0
        return (tmp_path / name / "versions.txt").read_text()

    plain = f"roitomo={rt.__version__}\nnumpy={np.__version__}\nscipy={scipy.__version__}\n"
    assert versions("plain") == plain
    assert limits == []
    applied = int(threadpoolctl is not None)
    assert versions("flag", "--threads", "2") == plain + f"threads=2 applied={applied}\n"
    monkeypatch.setenv("ROITOMO_THREADS", "3")
    assert versions("env") == plain + f"threads=3 applied={applied}\n"
    assert limits == ([2, 3] if applied else [])


@pytest.mark.parametrize("flags, setting, env, message", [
    ((), "", "abc", "bad value for ROITOMO_THREADS: 'abc'"),
    ((), "threads=x\n", None, "bad value for threads: 'x'"),
    # the flag wins even when it is 0, as the config key's 0 does
    (("--threads", "0"), "", "2", "threads must be >= 1"),
    ((), "threads=0\n", "2", "threads must be >= 1"),
])
def test_bad_thread_cap_exit_code(tmp_path, monkeypatch, capsys, flags, setting, env, message):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    if env is None:
        monkeypatch.delenv("ROITOMO_THREADS", raising=False)
    else:
        monkeypatch.setenv("ROITOMO_THREADS", env)
    cfg = write_cfg(tmp_path / "c.cfg", BASE + setting)
    assert run_cli(["phantom", "--config", cfg, "--out", str(tmp_path / "run"), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_empty_thread_env_is_no_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("ROITOMO_THREADS", "")
    cfg = write_cfg(tmp_path / "c.cfg", BASE)
    assert run_cli(["phantom", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert "threads" not in (tmp_path / "run" / "versions.txt").read_text()
