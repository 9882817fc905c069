"""File formats: fields, line sets, sinograms, previews, operators, configs.

All writers are deterministic (fixed float formatting, fixed ordering) so
identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .diffops import PolyOp, polyop_from_text, polyop_to_text
from .errors import ConfigError
from .grid import Grid, ScalarField, VectorField
from .lines import LineSet
from .xray_scalar import Sinogram

_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % float(x)


@contextmanager
def _parsing(path):
    """Report a malformed input file as a config error that names it."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"cannot parse {path}: missing field {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# ROIF1 scalar fields: ASCII header line, then raw little-endian float64


def write_field(path, f: ScalarField):
    with open(path, "wb") as fh:
        _write_field_block(fh, f)


def _write_field_block(fh, f: ScalarField):
    g = f.grid
    header = "ROIF1 n=%d size=%s extent=%s\n" % (
        g.n,
        ",".join(str(s) for s in g.size),
        ",".join(_fmt(e) for e in g.extent),
    )
    fh.write(header.encode("ascii"))
    fh.write(f.values.astype("<f8").tobytes(order="C"))


def read_field(path, pad_factor: int = 2) -> ScalarField:
    with open(path, "rb") as fh, _parsing(path):
        return _read_field_block(fh, pad_factor)


def _read_field_block(fh, pad_factor: int) -> ScalarField:
    header = fh.readline().decode("ascii").strip()
    parts = header.split()
    if not parts or parts[0] != "ROIF1":
        raise ValueError(f"not a ROIF1 block: {header!r}")
    meta = dict(p.split("=", 1) for p in parts[1:])
    n = int(meta["n"])
    size = tuple(int(s) for s in meta["size"].split(","))
    extent = tuple(float(e) for e in meta["extent"].split(","))
    grid = Grid(n, size, extent, pad_factor=pad_factor)
    count = int(np.prod(size))
    vals = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
    return ScalarField(grid, vals.reshape(size).copy())


# ---------------------------------------------------------------------------
# ROIV1 vector fields: prefix line, then n ROIF1 blocks


def write_vector(path, F: VectorField):
    with open(path, "wb") as fh:
        fh.write(f"ROIV1 n={F.grid.n}\n".encode("ascii"))
        for i in range(F.grid.n):
            _write_field_block(fh, F.component(i))


def read_vector(path, pad_factor: int = 2) -> VectorField:
    with open(path, "rb") as fh, _parsing(path):
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if not parts or parts[0] != "ROIV1":
            raise ValueError(f"not a ROIV1 file: {header!r}")
        n = int(dict(p.split("=", 1) for p in parts[1:])["n"])
        comps = [_read_field_block(fh, pad_factor) for _ in range(n)]
        return VectorField.from_components(comps)


# ---------------------------------------------------------------------------
# line-set and sinogram CSV


def _lineset_meta_line(ls: LineSet) -> str:
    span = float(np.max(np.abs(ls.zs))) if len(ls) else 0.0
    return (
        f"# roitomo-lineset n={ls.n} n_angles={ls.n_angles} "
        f"n_offsets={ls.n_offsets} weight={_fmt(ls.weights[0]) if len(ls) else 0} "
        f"spacing={_fmt(ls.offset_spacing)} "
        f"filtered={int(ls.filtered)} span={_fmt(span)}\n"
    )


def _lineset_header(n: int, with_value: bool) -> str:
    cols = ["angle_index", "offset_index"]
    cols += [f"theta_{i + 1}" for i in range(n)]
    cols += [f"z_{i + 1}" for i in range(n)]
    if with_value:
        cols.append("value")
    return ",".join(cols) + "\n"


def _write_lineset_rows(fh, ls: LineSet, values=None):
    fh.write(_lineset_meta_line(ls))
    fh.write(_lineset_header(ls.n, values is not None))
    cols = [ls.angle_index, ls.offset_index, *ls.thetas.T, *ls.zs.T]
    if values is not None:
        cols.append(np.asarray(values, dtype=np.float64))
    row = ",".join(["%d", "%d"] + [_FMT] * (len(cols) - 2)) + "\n"
    fh.write("".join(row % r for r in zip(*(c.tolist() for c in cols))))


def write_lineset(path, ls: LineSet):
    with open(path, "w", newline="\n") as fh:
        _write_lineset_rows(fh, ls)


def write_sinogram(path, g: Sinogram):
    with open(path, "w", newline="\n") as fh:
        _write_lineset_rows(fh, g.lineset, g.values)


def _read_lineset_lines(lines):
    meta_line = lines[0]
    if not meta_line.startswith("# roitomo-lineset"):
        raise ValueError("missing line-set metadata line")
    meta = dict(p.split("=", 1) for p in meta_line[1:].split() if "=" in p)
    n = int(meta["n"])
    header = lines[1].strip().split(",")
    rows = [ln for ln in lines[2:] if ln.strip()]
    # an empty set has no rows, and loadtxt warns on empty input
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.zeros((0, len(header)))
    if data.shape[1] != len(header):
        raise ValueError(f"rows have {data.shape[1]} columns, header has {len(header)}")
    ls = LineSet(
        thetas=data[:, 2 : 2 + n],
        zs=data[:, 2 + n : 2 + 2 * n],
        weights=np.full(len(data), float(meta["weight"])),
        angle_index=data[:, 0].astype(np.int32),
        offset_index=data[:, 1].astype(np.int32),
        n_angles=int(meta["n_angles"]),
        n_offsets=int(meta["n_offsets"]),
        offset_spacing=float(meta.get("spacing", 0.0)),
        filtered=bool(int(meta["filtered"])),
    )
    values = data[:, -1] if header[-1] == "value" else None
    return ls, values


def read_lineset(path) -> LineSet:
    with open(path) as fh, _parsing(path):
        ls, _ = _read_lineset_lines(fh.readlines())
    return ls


def read_sinogram(path) -> Sinogram:
    with open(path) as fh, _parsing(path):
        ls, values = _read_lineset_lines(fh.readlines())
        if values is None:
            raise ValueError("file has no value column")
        return Sinogram(ls, values)


# ---------------------------------------------------------------------------
# 16-bit PGM previews (min-max normalized; 3-D fields emit the central slice)


def write_pgm(path, values: np.ndarray):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 3:
        arr = arr[:, :, arr.shape[2] // 2]
    if arr.ndim != 2:
        raise ValueError("PGM preview needs a 2-D array")
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        scaled = np.round((arr - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(arr)
    img = scaled.astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii"))
        fh.write(img.tobytes(order="C"))


def sinogram_image(g: Sinogram) -> np.ndarray:
    """Angle-by-offset raster of a (possibly filtered) sinogram."""
    ls = g.lineset
    per_dir = ls.n_offsets ** (ls.n - 1)
    img = np.zeros((ls.n_angles, per_dir))
    img[ls.angle_index, ls.offset_index] = g.values
    return img


# ---------------------------------------------------------------------------
# operators and reports


def write_polyop(path, op: PolyOp):
    with open(path, "w", newline="\n") as fh:
        fh.write(polyop_to_text(op))


def read_polyop(path, n: int | None = None) -> PolyOp:
    with open(path) as fh, _parsing(path):
        return polyop_from_text(fh.read(), n)


def write_report(path, pairs):
    with open(path, "w", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key}={value}\n")


# ---------------------------------------------------------------------------
# experiment configs: flat key=value text, unknown keys rejected

CONFIG_KEYS = {
    "command",
    "grid.n", "grid.size", "grid.extent", "grid.pad",
    "phantom.kind", "phantom.center", "phantom.sigma", "phantom.radius",
    "phantom.amplitude", "phantom.rule", "phantom.degree", "phantom.xi",
    "phantom.phase", "phantom.axis", "phantom.plateau_radius",
    "phantom.support_radius", "phantom.v_radius", "phantom.outer_center",
    "phantom.outer_radius", "phantom.outer_amplitude",
    "lineset.angles", "lineset.offsets",
    "roi.center", "roi.radius", "v.center", "v.radius",
    "prior.file",
    "solver.mode", "solver.lambda_prior", "solver.lambda_tikhonov",
    "solver.cg_tol", "solver.max_iter",
    "data.sinogram", "truth.field", "recon.constants",
    "probe.iters",
    "out.dir", "threads",
}


def parse_config(text: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


def write_config(path, cfg: dict):
    with open(path, "w", newline="\n") as fh:
        for key in sorted(cfg):
            fh.write(f"{key}={cfg[key]}\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
