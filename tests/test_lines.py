"""Line manifold sampling and region incidence."""

import numpy as np
import pytest

import roitomo as rt
from roitomo.lines import _meets_disk, _meets_sampled


@pytest.fixture(scope="module")
def grid():
    return rt.Grid(2, 64, 1.0)


def test_degenerate_lattice(grid):
    ls = rt.make_lineset(grid, 1, 1)
    assert len(ls) == 1
    assert np.linalg.norm(ls.zs[0]) < grid.h  # single line through near-origin


def test_uniform_angles(grid):
    ls = rt.make_lineset(grid, 180, 4)
    phis = np.arctan2(ls.thetas[::4, 1], ls.thetas[::4, 0])
    gaps = np.diff(phis)
    assert np.allclose(gaps, np.pi / 180, atol=1e-12)
    assert phis[0] == 0.0
    assert phis[-1] < np.pi


def test_offsets_perpendicular(grid):
    ls = rt.make_lineset(grid, 30, 40)
    dots = np.abs(np.einsum("ij,ij->i", ls.zs, ls.thetas))
    assert dots.max() < 1e-12
    norms = np.linalg.norm(ls.thetas, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_no_duplicate_lines(grid):
    ls = rt.make_lineset(grid, 24, 16)
    rows = np.hstack([ls.thetas, ls.zs])
    assert len(np.unique(np.round(rows, 12), axis=0)) == len(ls)


def test_line_type_invariants():
    with pytest.raises(ValueError):
        rt.Line(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        rt.Line(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    line = rt.Line(np.array([0.0, 1.0]), np.array([0.25, 0.0]))
    assert np.allclose(line.point(2.0), [0.25, 2.0])


def test_line_meets_disk_trivial(grid):
    mask = rt.disk_mask(grid, (0.2, 0.1), 0.25)
    through = rt.Line(np.array([1.0, 0.0]), np.array([0.0, 0.1]))
    assert rt.line_meets_region(through, mask)
    far = rt.Line(np.array([1.0, 0.0]), np.array([0.0, 0.1 + 0.5]))
    assert not rt.line_meets_region(far, mask)


def test_tangent_line_does_not_meet(grid):
    # region is open: exact tangency counts as non-intersecting
    mask = rt.disk_mask(grid, (0.0, 0.0), 0.25)
    tangent = rt.Line(np.array([1.0, 0.0]), np.array([0.0, 0.25]))
    assert not rt.line_meets_region(tangent, mask)


def test_closed_form_vs_sampled_incidence(grid):
    # dense sampled-trace oracle agrees with the closed form except within
    # one spacing of tangency
    rng = np.random.default_rng(0)
    center, radius = (0.1, -0.05), 0.3
    mask = rt.disk_mask(grid, center, radius)
    phi = rng.uniform(0, np.pi, 10_000)
    offs = rng.uniform(-1.2, 1.2, 10_000)
    thetas = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    zs = np.stack([-np.sin(phi), np.cos(phi)], axis=1) * offs[:, None]
    closed = _meets_disk(thetas, zs, center, radius)
    sampled = _meets_sampled(grid, thetas, zs, mask.inside)
    d = np.abs(np.einsum("ij,ij->i", np.asarray(center)[None, :] - zs, thetas))
    perp = np.asarray(center)[None, :] - zs - d[:, None] * 0  # distance to line
    perp = np.linalg.norm(
        np.asarray(center)[None, :]
        - zs
        - np.einsum("ij,ij->i", np.asarray(center)[None, :] - zs, thetas)[:, None]
        * thetas,
        axis=1,
    )
    away_from_tangency = np.abs(perp - radius) > grid.h
    assert np.array_equal(closed[away_from_tangency], sampled[away_from_tangency])


def _line_meets_box(theta, z, extent):
    # closed-form interval oracle: intersect the per-axis s-ranges where the
    # trace stays strictly inside the box
    lo, hi = -np.inf, np.inf
    for j in range(len(theta)):
        if abs(theta[j]) < 1e-15:
            if abs(z[j]) >= extent:
                return False
            continue
        a = (-extent - z[j]) / theta[j]
        b = (extent - z[j]) / theta[j]
        lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
    return lo < hi


def test_filter_roi_full_and_empty(grid):
    # offsets span the circumscribing ball, so lines that miss the box are
    # dropped even by the whole-grid mask; the survivors match the
    # closed-form box-incidence oracle
    ls = rt.make_lineset(grid, 20, 30)
    kept = rt.filter_roi(ls, rt.full_mask(grid))
    oracle = sum(
        _line_meets_box(ls.thetas[i], ls.zs[i], grid.extent[0])
        for i in range(len(ls))
    )
    assert abs(len(kept) - oracle) <= 0.01 * len(ls)  # node-trace vs open box
    none = rt.filter_roi(ls, rt.empty_mask(grid))
    assert len(none) == 0


def test_filter_roi_idempotent(grid):
    ls = rt.make_lineset(grid, 60, 80)
    mask = rt.disk_mask(grid, (0.0, 0.0), 0.3)
    once = rt.filter_roi(ls, mask)
    twice = rt.filter_roi(once, mask)
    assert len(once) == len(twice)
    assert np.array_equal(once.thetas, twice.thetas)
    assert once.filtered and twice.filtered


def test_filter_roi_fraction_monte_carlo(grid):
    # Monte Carlo line-measure oracle for a centered disk
    radius = 0.3
    mask = rt.disk_mask(grid, (0.0, 0.0), radius)
    ls = rt.make_lineset(grid, 240, 400)
    kept = rt.filter_roi(ls, mask)
    rng = np.random.default_rng(1)
    span = grid.ball_radius
    phi = rng.uniform(0, np.pi, 200_000)
    offs = rng.uniform(-span, span, 200_000)
    oracle = np.mean(np.abs(offs) < radius)
    assert abs(len(kept) / len(ls) - oracle) / oracle < 0.03


def test_direction_reversal_same_incidence(grid):
    mask = rt.disk_mask(grid, (0.15, 0.2), 0.2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        phi = rng.uniform(0, 2 * np.pi)
        theta = np.array([np.cos(phi), np.sin(phi)])
        offset = rng.uniform(-1.0, 1.0)
        z = offset * np.array([-np.sin(phi), np.cos(phi)])
        a = rt.line_meets_region(rt.Line(theta, z), mask)
        b = rt.line_meets_region(rt.Line(-theta, z), mask)
        assert a == b


def test_lineset_3d():
    g = rt.Grid(3, 16, 1.0)
    ls = rt.make_lineset(g, 40, 12)
    assert len(ls) == 40 * 12 * 12
    assert np.abs(np.linalg.norm(ls.thetas, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.einsum("ij,ij->i", ls.zs, ls.thetas)).max() < 1e-12
    assert (ls.thetas[:, 2] > 0).all()  # orientation quotient: half sphere


def test_lineset_arrays_read_only(grid):
    # projector caches key on the set's identity, so in-place edits must fail
    ls = rt.make_lineset(grid, 20, 30)
    kept = rt.filter_roi(ls, rt.disk_mask(grid, (0.0, 0.0), 0.3))
    for s in (ls, kept):
        for arr in (s.thetas, s.zs, s.weights, s.angle_index, s.offset_index):
            with pytest.raises(ValueError):
                arr[0] = 0
