"""The row-block projector: streamed maps against the matrix, matrix against a loop."""

import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roitomo as rt
from roitomo import project
from roitomo.lines import LineSet, _meets_sampled


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


def test_cache_entry_dies_with_its_line_set():
    grid = rt.Grid(2, 16, 1.0)
    ls = rt.make_lineset(grid, 8, 12)
    rt.xray_forward(rt.ScalarField(grid, np.ones(grid.shape)), ls)
    key = (grid, id(ls))
    assert key in project._projector_cache
    del ls  # no gc.collect(): the entry goes as soon as the set is freed
    assert key not in project._projector_cache


def test_cached_projector_does_not_keep_its_line_set_alive():
    grid = rt.Grid(2, 16, 1.0)
    ls = rt.make_lineset(grid, 8, 12)
    proj = project.projector(grid, ls)
    assert project._cached_projector(grid, ls) is proj
    g = np.arange(len(ls), dtype=float)
    expected = proj.backproject(g)
    ref = weakref.ref(ls)
    del ls
    assert ref() is None
    assert np.array_equal(proj.backproject(g), expected)


def test_new_line_set_never_gets_a_dead_sets_matrix():
    grid = rt.Grid(2, 16, 1.0)
    ids = []
    for angles in range(4, 14):
        ls = rt.make_lineset(grid, angles, 6)
        ids.append(id(ls))
        cached = project.projector(grid, ls).matrix
        direct = project.assemble_matrix(grid, ls)
        assert cached.shape == direct.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(cached, part), getattr(direct, part))
        del ls, cached
    # CPython hands a freed set's address to the next one, so the identity
    # key really is reused here
    assert len(set(ids)) < len(ids)


def _loop_meets(grid, thetas, zs, inside):
    """Nearest-node incidence from a plain per-line, per-sample loop."""
    s_all, _ = project.line_quadrature(grid)
    out = np.zeros(len(thetas), dtype=bool)
    for line, (theta, z) in enumerate(zip(thetas, zs)):
        for s in s_all:
            node = [int(np.rint((z[j] + s * theta[j] + grid.extent[j]) / grid.h))
                    for j in range(grid.n)]
            if all(0 <= k < size for k, size in zip(node, grid.size)) and inside[tuple(node)]:
                out[line] = True
                break
    return out


def _lines_near_sphere(rng, n, count, center, distances):
    """Random lines whose distance from ``center`` is drawn from ``distances``."""
    thetas = rng.standard_normal((count, n))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    perp = rng.standard_normal((count, n))
    perp -= np.einsum("ij,ij->i", perp, thetas)[:, None] * thetas
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    foot = np.asarray(center) + distances[:, None] * perp
    zs = foot - np.einsum("ij,ij->i", foot, thetas)[:, None] * thetas
    return thetas, zs


@pytest.mark.parametrize("n, size", [(2, 32), (3, 16)])
def test_sampled_incidence_matches_a_per_sample_loop(monkeypatch, n, size):
    grid = rt.Grid(n, size, 1.0)
    center, radius = (0.1, -0.15, 0.05)[:n], 0.3
    inside = rt.disk_mask(grid, center, radius).inside
    rng = np.random.default_rng(5)
    # half the lines lie within one spacing of tangency, the rest anywhere
    near = radius + rng.uniform(-grid.h, grid.h, 150)
    anywhere = rng.uniform(0.0, grid.ball_radius + grid.h, 150)
    thetas, zs = _lines_near_sphere(rng, n, 300, center, np.concatenate([near, anywhere]))

    s, _ = project.line_quadrature(grid)
    monkeypatch.setattr(project, "_CHUNK_SAMPLES", len(thetas) * len(s) // 4)
    assert len(list(project._chunks(len(thetas), len(s)))) >= 3

    meets = _meets_sampled(grid, thetas, zs, inside)
    assert np.array_equal(meets, _loop_meets(grid, thetas, zs, inside))
    assert 0 < meets[:150].sum() < 150  # the tangency band has hits and misses
    # the whole grid: lines that only graze the outermost nodes
    everywhere = np.ones(grid.shape, dtype=bool)
    meets = _meets_sampled(grid, thetas, zs, everywhere)
    assert np.array_equal(meets, _loop_meets(grid, thetas, zs, everywhere))


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 1.0))
@pytest.mark.parametrize("n, size, angles, offsets", [(2, 32, 24, 32), (3, 12, 10, 8)])
def test_adjoint_identity_on_random_subsets(n, size, angles, offsets, seed, fraction):
    grid = rt.Grid(n, size, 1.0)
    rng = np.random.default_rng(seed)
    subset = rt.make_lineset(grid, angles, offsets)
    subset = subset.subset(rng.random(len(subset)) < fraction)
    f = rt.ScalarField(grid, rng.standard_normal(grid.shape))
    sino = rt.Sinogram(subset, rng.standard_normal(len(subset)))
    xf = rt.xray_forward(f, subset)
    lhs = rt.sino_inner(xf, sino)
    rhs = rt.inner_product(f, rt.xray_backproject(sino, grid))
    assert abs(lhs - rhs) <= 1e-12 * xf.norm() * sino.norm()

    key = (grid, id(subset))
    assert key in project._projector_cache
    del subset, sino, xf
    assert key not in project._projector_cache
