"""The row-block projector: streamed maps against the matrix, matrix against a loop."""

from itertools import product

import numpy as np
import pytest

import roitomo as rt
from roitomo import project
from roitomo.lines import LineSet


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("n, size, angles, offsets", [(2, 32, 36, 48), (3, 16, 12, 12)])
def test_streamed_maps_match_the_matrix(monkeypatch, n, size, angles, offsets):
    grid = rt.Grid(n, size, 1.0)
    ls = rt.make_lineset(grid, angles, offsets)
    direct = project.Projector(grid, ls)

    monkeypatch.setattr(project, "_MATRIX_NNZ_LIMIT", 0)
    s, _ = project.line_quadrature(grid)
    monkeypatch.setattr(project, "_CHUNK_SAMPLES", len(ls) * len(s) // 7)
    assert len(list(project._chunks(len(ls), len(s)))) >= 7

    def no_matrix(grid, lineset):
        raise AssertionError("the streamed path assembled a matrix")

    monkeypatch.setattr(project, "assemble_matrix", no_matrix)

    rng = np.random.default_rng(3)
    f1, f2 = rng.standard_normal((2,) + grid.shape)
    g = rng.standard_normal(len(ls))
    streamed = project.forward_many(grid, ls, [f1, f2])
    assert streamed.shape == (2, len(ls))
    assert _rel(streamed[0], direct.forward(f1)) <= 1e-13
    assert _rel(streamed[1], direct.forward(f2)) <= 1e-13
    assert _rel(project.xray_backproject_values(grid, ls, g), direct.backproject(g)) <= 1e-13

    worst = 0.0
    for _ in range(5):
        f = rt.ScalarField(grid, rng.standard_normal(grid.shape))
        sino = rt.Sinogram(ls, rng.standard_normal(len(ls)))
        xf = rt.xray_forward(f, ls)
        lhs = rt.sino_inner(xf, sino)
        rhs = rt.inner_product(f, rt.xray_backproject(sino, grid))
        worst = max(worst, abs(lhs - rhs) / (xf.norm() * sino.norm()))
    assert worst < 1e-12


def _loop_rows(grid, thetas, zs):
    """Dense rows of X from a plain per-sample, per-corner bilinear loop."""
    s_all, ds = project.line_quadrature(grid)
    rows = np.zeros((len(thetas), grid.n_nodes))
    for line, (theta, z) in enumerate(zip(thetas, zs)):
        for s in s_all:
            g = [(z[j] + s * theta[j] + grid.extent[j]) / grid.h for j in range(grid.n)]
            cell = [int(np.floor(gj)) for gj in g]
            for bits in product((0, 1), repeat=grid.n):
                node = [c + b for c, b in zip(cell, bits)]
                if not all(0 <= k < size for k, size in zip(node, grid.size)):
                    continue
                weight = 1.0
                for gj, c, b in zip(g, cell, bits):
                    weight *= (gj - c) if b else 1.0 - (gj - c)
                rows[line, np.ravel_multi_index(node, grid.shape)] += ds * weight
    return rows


def test_matrix_rows_match_a_per_sample_loop():
    grid = rt.Grid(2, 16, 1.0)
    h = grid.h
    diag = np.array([1.0, -1.0]) / np.sqrt(2.0)
    lines = [
        # axis-aligned through node rows and columns: t = 0 exactly on one axis
        ((1.0, 0.0), (0.0, -1.0 + 5 * h)),
        ((0.0, 1.0), (-1.0 + 3 * h, 0.0)),
        ((1.0, 0.0), (0.0, -1.0)),            # first node row
        ((0.0, 1.0), (1.0 - h, 0.0)),         # last node column
        # diagonals grazing the corner: through the last node, and across
        # the outer half of its cell
        (diag, (1.0 - h) * np.array([1.0, 1.0])),
        (diag, (1.0 - h / 2) * np.array([1.0, 1.0])),
        ((0.6, 0.8), (-0.8 * 0.3, 0.6 * 0.3)),  # a generic line
        # misses: on the support's edge, and well outside the box
        ((1.0, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (0.0, -1.0 - h)),
        ((0.0, 1.0), (1.5, 0.0)),
    ]
    thetas = np.array([t for t, _ in lines], dtype=float)
    zs = np.array([z for _, z in lines], dtype=float)
    k = np.arange(len(lines))
    ls = LineSet(thetas, zs, np.ones(len(lines)), k, k, len(lines), 1)

    x = project.assemble_matrix(grid, ls)
    oracle = _loop_rows(grid, thetas, zs)
    assert x.shape == oracle.shape
    for line in range(len(lines)):
        row = x[line]
        assert np.array_equal(row.indices, np.flatnonzero(oracle[line])), line
        np.testing.assert_allclose(row.data, oracle[line, row.indices], rtol=1e-14, atol=0)
    assert [x.indptr[i + 1] - x.indptr[i] for i in (7, 8, 9)] == [0, 0, 0]
    assert x[0].nnz == grid.size[0]  # a node row: one weight per node

    # canonical: sorted indices, no duplicates, no stored zeros
    for line in range(len(lines)):
        assert np.all(np.diff(x.indices[x.indptr[line] : x.indptr[line + 1]]) > 0)
    assert np.all(x.data != 0.0)


def test_empty_line_set():
    grid = rt.Grid(2, 16, 1.0)
    empty = rt.make_lineset(grid, 4, 4).subset(np.zeros(16, dtype=bool))
    assert project.assemble_matrix(grid, empty).shape == (0, grid.n_nodes)
    f = rt.ScalarField(grid, np.ones(grid.shape))
    assert rt.xray_forward(f, empty).values.shape == (0,)
    back = rt.xray_backproject(rt.Sinogram(empty, np.zeros(0)), grid)
    assert not back.values.any()
