"""File format round trips and determinism."""

import warnings

import numpy as np
import pytest

import roitomo as rt
from roitomo import fileio
from roitomo.diffops import PolyOp
from roitomo.errors import ConfigError

from util import random_field, smooth_compact_vector


def test_field_roundtrip(tmp_path):
    g = rt.Grid(2, 32, 1.0)
    f = random_field(g, 1)
    path = tmp_path / "field.roif"
    fileio.write_field(path, f)
    back = fileio.read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_field_header_format(tmp_path):
    g = rt.Grid(2, 32, 1.5)
    f = random_field(g, 2)
    path = tmp_path / "field.roif"
    fileio.write_field(path, f)
    header = open(path, "rb").readline().decode()
    assert header.startswith("ROIF1 n=2 size=32,32 extent=1.5,1.5")


def test_vector_roundtrip(tmp_path):
    g = rt.Grid(2, 32, 1.0)
    F = smooth_compact_vector(g, 3)
    path = tmp_path / "field.roiv"
    fileio.write_vector(path, F)
    back = fileio.read_vector(path)
    assert np.array_equal(back.values, F.values)
    header = open(path, "rb").readline().decode()
    assert header.startswith("ROIV1 n=2")


def test_lineset_csv_roundtrip(tmp_path):
    g = rt.Grid(2, 32, 1.0)
    ls = rt.make_lineset(g, 12, 16)
    path = tmp_path / "lines.csv"
    fileio.write_lineset(path, ls)
    back = fileio.read_lineset(path)
    assert len(back) == len(ls)
    assert np.allclose(back.thetas, ls.thetas, atol=1e-16)
    assert np.allclose(back.zs, ls.zs, atol=1e-16)
    assert np.allclose(back.weights, ls.weights, atol=1e-18)
    assert back.offset_spacing == pytest.approx(ls.offset_spacing)
    header = open(path).readlines()[1]
    assert header.strip() == "angle_index,offset_index,theta_1,theta_2,z_1,z_2"


def test_sinogram_csv_roundtrip(tmp_path):
    g = rt.Grid(2, 32, 1.0)
    ls = rt.make_lineset(g, 12, 16)
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.2), g)
    sino = rt.xray_forward(f, ls)
    path = tmp_path / "sino.csv"
    fileio.write_sinogram(path, sino)
    back = fileio.read_sinogram(path)
    assert np.array_equal(back.values, sino.values)
    header = open(path).readlines()[1]
    assert header.strip().endswith(",value")


def test_csv_deterministic(tmp_path):
    g = rt.Grid(2, 32, 1.0)
    ls = rt.make_lineset(g, 12, 16)
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.2), g)
    sino = rt.xray_forward(f, ls)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_sinogram(a, sino)
    fileio.write_sinogram(b, rt.xray_forward(f, ls))
    assert open(a, "rb").read() == open(b, "rb").read()


def test_csv_rows_match_per_value_formatting(tmp_path):
    g = rt.Grid(2, 32, 1.0)
    kept = rt.filter_roi(rt.make_lineset(g, 12, 16), rt.disk_mask(g, (0.1, -0.2), 0.3))
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.2), g)
    sino = rt.xray_forward(f, kept)

    def per_row(ls, values=None):
        # one row at a time, one value at a time, through the scalar formatter
        out = fileio._lineset_meta_line(ls) + fileio._lineset_header(ls.n, values is not None)
        for k in range(len(ls)):
            row = [str(int(ls.angle_index[k])), str(int(ls.offset_index[k]))]
            row += [fileio._fmt(x) for x in ls.thetas[k]]
            row += [fileio._fmt(x) for x in ls.zs[k]]
            if values is not None:
                row.append(fileio._fmt(values[k]))
            out += ",".join(row) + "\n"
        return out.encode()

    assert 0 < len(kept) < len(rt.make_lineset(g, 12, 16))
    fileio.write_sinogram(tmp_path / "sino.csv", sino)
    fileio.write_lineset(tmp_path / "lines.csv", kept)
    assert (tmp_path / "sino.csv").read_bytes() == per_row(kept, sino.values)
    assert (tmp_path / "lines.csv").read_bytes() == per_row(kept)


def test_empty_filtered_set_roundtrip(tmp_path):
    ls = rt.make_lineset(rt.Grid(2, 32, 1.0), 12, 16)
    empty = ls.subset(np.zeros(len(ls), dtype=bool))
    fileio.write_lineset(tmp_path / "lines.csv", empty)
    fileio.write_sinogram(tmp_path / "sino.csv", rt.Sinogram(empty, np.zeros(0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lines = fileio.read_lineset(tmp_path / "lines.csv")
        sino = fileio.read_sinogram(tmp_path / "sino.csv")
    for back in (lines, sino.lineset):
        assert len(back) == 0 and back.filtered
        assert back.thetas.shape == back.zs.shape == (0, 2)
    assert sino.values.shape == (0,)


@pytest.mark.parametrize("rows", [
    "0,1,1.0,0.0,0.0,0.5\n0,2,1.0,0.0\n",      # ragged
    "0,1,1.0,0.0,0.0,x\n",                     # non-numeric
    "0,1,1.0,0.0,0.0,0.5,7\n",                 # wider than the header
])
def test_malformed_lineset_rows(tmp_path, rows):
    path = tmp_path / "lines.csv"
    fileio.write_lineset(path, rt.make_lineset(rt.Grid(2, 32, 1.0), 12, 16))
    meta, header = open(path).readlines()[:2]
    path.write_text(meta + header + rows)
    with pytest.raises(ConfigError, match="cannot parse"):
        fileio.read_lineset(path)


def test_pgm_format(tmp_path):
    vals = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    path = tmp_path / "img.pgm"
    fileio.write_pgm(path, vals)
    raw = open(path, "rb").read()
    assert raw.startswith(b"P5\n4 3\n65535\n")
    img = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2").reshape(3, 4)
    assert img[0, 0] == 0 and img[-1, -1] == 65535


def test_pgm_constant_field(tmp_path):
    path = tmp_path / "flat.pgm"
    fileio.write_pgm(path, np.ones((4, 4)))
    img = np.frombuffer(open(path, "rb").read().split(b"65535\n", 1)[1], dtype=">u2")
    assert not img.any()


def test_polyop_file_roundtrip(tmp_path):
    op = PolyOp(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.5 + 1.0j})
    path = tmp_path / "op.polyop"
    fileio.write_polyop(path, op)
    back = fileio.read_polyop(path)
    assert back.terms == op.terms


def test_config_parsing():
    cfg = fileio.parse_config(
        "# comment\ngrid.size=64\nphantom.kind=gaussian\n\nout.dir=/tmp/x\n"
    )
    assert cfg["grid.size"] == "64"
    with pytest.raises(ConfigError):
        fileio.parse_config("nonsense.key=1\n")
    with pytest.raises(ConfigError):
        fileio.parse_config("grid.size=64\ngrid.size=128\n")
    with pytest.raises(ConfigError):
        fileio.parse_config("grid.size 64\n")


def test_sinogram_image_shape():
    g = rt.Grid(2, 32, 1.0)
    ls = rt.make_lineset(g, 12, 16)
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.2), g)
    img = fileio.sinogram_image(rt.xray_forward(f, ls))
    assert img.shape == (12, 16)
