"""Fractional Laplacian algebra and the full-data reconstruction formula."""

import tracemalloc

import numpy as np
import pytest

import roitomo as rt
from roitomo import fraclap
from roitomo.errors import ExponentError
from roitomo.fraclap import mass_from_sinogram, reconstruct_raw_scalar

from util import random_field, zero_mean


@pytest.fixture(scope="module")
def grid():
    return rt.Grid(2, 64, 1.0)


def test_single_mode_multiplier(grid):
    # flagged integer exponent on a pure cosine mode: multiply by |xi0|^2
    xi0 = grid.freq_axis(0)[3]
    x = grid.coords()[0]
    f = rt.ScalarField(grid, np.cos(xi0 * x))
    out = rt.fractional_laplacian(f, 1.0, allow_integer=True)
    assert np.abs(out.values - xi0**2 * f.values).max() < 1e-10 * xi0**2


def test_integer_exponent_rejected(grid):
    f = random_field(grid)
    with pytest.raises(ExponentError):
        rt.fractional_laplacian(f, 1.0)
    with pytest.raises(ExponentError):
        rt.fractional_laplacian(f, -1.2)  # below -n/2


def test_inverse_pair(grid):
    f = zero_mean(random_field(grid, 1))
    back = rt.fractional_laplacian(rt.fractional_laplacian(f, 0.35), -0.35)
    assert (back - f).norm() / f.norm() < 1e-10


def test_semigroup(grid):
    f = zero_mean(random_field(grid, 2))
    a = rt.fractional_laplacian(rt.fractional_laplacian(f, 0.3), 0.4)
    b = rt.fractional_laplacian(f, 0.7)
    assert (a - b).norm() / b.norm() < 1e-10


def test_realness(grid):
    f = random_field(grid, 3)
    _, residue = rt.fractional_laplacian(f, 0.5, return_imag_residue=True)
    assert residue < 1e-12


def test_mean_projected_out(grid):
    f = random_field(grid, 4)
    out = rt.fractional_laplacian(f, -0.5)
    assert abs(out.values.mean()) < 1e-12 * np.abs(out.values).max()


def test_constants_validation():
    with pytest.raises(ValueError):
        rt.ReconstructionConstants(-1.0, 1.0, "analytic", 1.0, 1.0)
    consts = rt.analytic_constants(2)
    assert consts.c0 == pytest.approx(1.0 / (4.0 * np.pi))
    assert consts.c1 == pytest.approx(1.0 / (4.0 * np.pi))
    assert rt.analytic_c1(3) == pytest.approx(2.0 * rt.analytic_c0(3))


def test_mass_from_sinogram():
    g = rt.Grid(2, 128, 1.0)
    ls = rt.make_lineset(g, 90, 192)
    sigma = 0.15
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=sigma), g)
    mass = mass_from_sinogram(rt.xray_forward(f, ls), 2)
    assert mass == pytest.approx(2.0 * np.pi * sigma**2, rel=1e-3)


@pytest.fixture(scope="module")
def recon_setup():
    g = rt.Grid(2, 128, 1.0)
    ls = rt.make_lineset(g, 180, 192)
    consts = rt.calibrate_constants(g, ls)
    return g, ls, consts


def test_calibrated_c0_matches_analytic(recon_setup):
    _, _, consts = recon_setup
    assert abs(consts.c0 - consts.analytic_c0) / consts.analytic_c0 < 0.03
    assert abs(consts.c1 - consts.analytic_c1) / consts.analytic_c1 < 0.03
    assert consts.provenance == "calibrated"


def test_calibration_phantom_independence(recon_setup):
    g, ls, consts = recon_setup
    other = rt.calibrate_constants(g, ls, sigma=0.2)
    assert abs(other.c0 - consts.c0) / consts.c0 < 0.01


def test_calibration_residual(recon_setup):
    g, ls, consts = recon_setup
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.15), g)
    raw = reconstruct_raw_scalar(rt.xray_forward(f, ls), g)
    residual = (consts.c0 * raw - f).norm() / f.norm()
    assert residual < 0.02


def test_reconstruct_zero(recon_setup):
    g, ls, consts = recon_setup
    zero = rt.ScalarField(g, np.zeros(g.shape))
    rec = rt.reconstruct_full_scalar(rt.xray_forward(zero, ls), g, consts)
    assert np.abs(rec.values).max() == 0.0


def test_reconstruct_gaussian_roundtrip(recon_setup):
    g, ls, consts = recon_setup
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.15), g)
    rec = rt.reconstruct_full_scalar(rt.xray_forward(f, ls), g, consts)
    assert (rec - f).norm() / f.norm() < 0.02


def test_reconstruct_disk_plateau(recon_setup):
    g, ls, consts = recon_setup
    f = rt.sample_phantom(rt.PhantomSpec.disk_indicator(radius=0.5), g)
    rec = rt.reconstruct_full_scalar(rt.xray_forward(f, ls), g, consts)
    r = np.sqrt(g.radius_sq())
    inner = r < 0.5 - 4.0 * g.h
    assert np.abs(rec.values[inner] - 1.0).max() < 0.05


def test_reconstruct_linear_in_data(recon_setup):
    g, ls, consts = recon_setup
    f1 = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.15), g)
    f2 = rt.sample_phantom(rt.PhantomSpec.gaussian(center=(0.3, -0.2), sigma=0.12), g)
    s1 = rt.xray_forward(f1, ls)
    s2 = rt.xray_forward(f2, ls)
    combo = rt.Sinogram(ls, 2.0 * s1.values - 0.5 * s2.values)
    lhs = rt.reconstruct_full_scalar(combo, g, consts)
    rhs = 2.0 * rt.reconstruct_full_scalar(s1, g, consts) - 0.5 * rt.reconstruct_full_scalar(s2, g, consts)
    assert (lhs - rhs).norm() < 1e-10 * rhs.norm()


def test_reconstruct_warns_on_filtered_lineset(recon_setup):
    g, ls, consts = recon_setup
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.15), g)
    roi = rt.disk_mask(g, (0.0, 0.0), 0.4)
    kept = rt.filter_roi(ls, roi)
    sino = rt.xray_forward(f, kept)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            rt.reconstruct_full_scalar(sino, g, consts)


def _padded_fft_ramp(g):
    """The offset filter as the multiplier on the offset lattice zero-padded
    ``_OFFSET_PAD`` times per axis, one padded FFT per direction, cropped."""
    ls = g.lineset
    lattice = (ls.n_offsets,) * (ls.n - 1)
    axes = tuple(range(1, ls.n))
    m = fraclap._OFFSET_PAD * ls.n_offsets
    k1 = 2.0 * np.pi * np.fft.fftfreq(m, d=ls.offset_spacing)
    k = np.sqrt(sum(c * c for c in np.meshgrid(*([k1] * (ls.n - 1)), indexing="ij")))
    rows = g.values.reshape((ls.n_angles,) + lattice)
    spec = np.fft.fftn(rows, s=(m,) * (ls.n - 1), axes=axes)
    spec *= fraclap._ramp_multiplier(k, ls.offset_spacing)
    filtered = np.fft.ifftn(spec, axes=axes).real
    return filtered[(slice(None),) + tuple(slice(s) for s in lattice)].reshape(-1)


@pytest.mark.parametrize("n, size, n_angles, n_offsets", [(2, 128, 180, 192), (3, 12, 20, None)])
def test_ramp_filter_matches_padded_fft(n, size, n_angles, n_offsets):
    ls = rt.make_lineset(rt.Grid(n, size, 1.0), n_angles, n_offsets)
    g = rt.Sinogram(ls, np.random.default_rng(n).standard_normal(len(ls)))
    ref = _padded_fft_ramp(g)
    out = fraclap.ramp_filter_offsets(g).values
    assert np.linalg.norm(out - ref) < 1e-12 * np.linalg.norm(ref)


def _filtered_sinogram(grid, n_angles):
    ls = rt.make_lineset(grid, n_angles)
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(center=(0.1,) * grid.n, sigma=0.15), grid)
    return fraclap.ramp_filter_offsets(rt.xray_forward(f, ls))


@pytest.mark.parametrize("n, size, n_angles", [(2, 48, 30), (3, 16, 24)])
def test_backproject_components_match_preweighted_sinogram(n, size, n_angles):
    grid = rt.Grid(n, size, 1.0)
    g = _filtered_sinogram(grid, n_angles)
    stack = fraclap.backproject_pointwise(g, grid, components=range(n))
    assert stack.shape == (n,) + grid.shape
    for c in range(n):
        one = fraclap.backproject_pointwise(g, grid, components=(c,))[0]
        weighted = rt.Sinogram(g.lineset, g.lineset.thetas[:, c] * g.values)
        ref = fraclap.backproject_pointwise(weighted, grid)
        assert np.linalg.norm(one - ref) < 1e-14 * np.linalg.norm(ref)
        assert np.array_equal(stack[c], one)


def test_backproject_pointwise_matches_node_loop():
    grid = rt.Grid(2, 8, 1.0)
    g = _filtered_sinogram(grid, 6)
    ls = g.lineset
    no, dz = ls.n_offsets, ls.offset_spacing
    rows = g.values.reshape(ls.n_angles, no)
    w = ls.weights[0] / dz
    ref = np.zeros((3,) + grid.shape)  # scalar, then components 0 and 1
    for idx in np.ndindex(grid.shape):
        x = np.array([grid.axis(j)[idx[j]] for j in range(2)])
        for a in range(ls.n_angles):
            theta, z0 = ls.thetas[a * no], ls.zs[a * no]
            perp = np.array([-theta[1], theta[0]])
            u = min(max((x @ perp - z0 @ perp) / dz, 0.0), no - 1.0)
            i = min(int(np.floor(u)), no - 2)
            value = (1.0 - (u - i)) * rows[a, i] + (u - i) * rows[a, i + 1]
            ref[(0,) + idx] += w * value
            ref[(1,) + idx] += w * theta[0] * value
            ref[(2,) + idx] += w * theta[1] * value
    out = np.concatenate(
        [fraclap.backproject_pointwise(g, grid)[None], fraclap.backproject_pointwise(g, grid, (0, 1))]
    )
    for k in range(3):
        assert np.linalg.norm(out[k] - ref[k]) < 1e-12 * np.linalg.norm(ref[k])


def test_reconstruct_3d_roundtrip():
    grid = rt.Grid(3, 24, 1.0)
    ls = rt.make_lineset(grid, 120)
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(center=(0.0, 0.0, 0.0), sigma=0.2), grid)
    rec = rt.reconstruct_full_scalar(rt.xray_forward(f, ls), grid, rt.analytic_constants(3))
    assert (rec - f).norm() / f.norm() < 0.08


def test_ramp_filter_3d_memory():
    # the default 32^3 lattice: 180 directions of 48 x 48 offsets; a 32x
    # padded FFT per direction would need gigabytes here
    ls = rt.make_lineset(rt.Grid(3, 32, 1.0), 180)
    assert ls.n_offsets == 48
    g = rt.Sinogram(ls, np.random.default_rng(5).standard_normal(len(ls)))
    tracemalloc.start()
    try:
        fraclap.ramp_filter_offsets(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300e6
