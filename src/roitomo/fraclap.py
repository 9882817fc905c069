"""Spectral fractional Laplacian and the full-data reconstruction formula.

The fractional power acts as the multiplier ``|xi|^(2s)`` on the field's own
grid treated as a torus; the zero-frequency bin is always projected out (for
negative powers it is the only ill-defined bin, and compactly supported
fields carry almost no mean on a padded box).  Keeping the multiplier free of
any pad-and-crop round trip makes the semigroup and inverse-pair identities
hold to round-off.  Reconstruction pipelines, which do need whole-space
behaviour, apply the half-Laplacian on the data side instead: a ramp filter
over each direction's offsets, then a node-driven back-projection.  The
filter's whole-space padding lives in its lag kernel, sampled once per call,
so the output equals a filter on the zero-padded offset lattice to rounding
without ever forming that lattice.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ExponentError
from .grid import Grid, ScalarField
from .lines import LineSet
from .phantoms import PhantomSpec, sample_phantom
from .xray_scalar import Sinogram, xray_forward


def analytic_c0(n: int) -> float:
    """Dimensional constant of the scalar reconstruction formula."""
    return math.gamma((n - 1) / 2.0) / (4.0 * math.pi ** ((n + 1) / 2.0))


def analytic_c1(n: int) -> float:
    """Dimensional constant of the solenoidal reconstruction formula."""
    return (n - 1) * analytic_c0(n)


def _check_exponent(s: float, n: int, allow_integer: bool):
    if not allow_integer and abs(s - round(s)) < 1e-12:
        raise ExponentError(
            f"integer exponent {s} excluded; pass allow_integer=True to force"
        )
    if s <= -n / 2.0:
        raise ExponentError(f"exponent {s} not above -n/2 = {-n / 2.0}")


def fractional_laplacian(
    f: ScalarField,
    s: float,
    allow_integer: bool = False,
    return_imag_residue: bool = False,
):
    """Multiply the spectrum by ``|xi|^(2s)``; the mean is projected out.

    Operates on the field's grid as a torus so that opposite exponents are
    exact inverses on zero-mean fields and powers compose exactly.
    """
    grid = f.grid
    _check_exponent(s, grid.n, allow_integer)
    spec = np.fft.fftn(f.values)
    r2 = sum(
        m * m
        for m in np.meshgrid(
            *[grid.freq_axis(i) for i in range(grid.n)], indexing="ij"
        )
    )
    dc = (0,) * grid.n
    r2[dc] = 1.0
    mult = r2**s
    mult[dc] = 0.0
    out = np.fft.ifftn(spec * mult)
    field = ScalarField(grid, out.real)
    if return_imag_residue:
        scale = max(float(np.linalg.norm(out.real)), 1e-300)
        return field, float(np.linalg.norm(out.imag)) / scale
    return field


@dataclass
class ReconstructionConstants:
    """Constants of the inversion formulas, calibrated or analytic."""

    c0: float
    c1: float
    provenance: str  # "analytic" or "calibrated"
    analytic_c0: float
    analytic_c1: float

    def __post_init__(self):
        if self.c0 <= 0 or self.c1 <= 0:
            raise ValueError("reconstruction constants must be positive")


def analytic_constants(n: int) -> ReconstructionConstants:
    return ReconstructionConstants(
        analytic_c0(n), analytic_c1(n), "analytic", analytic_c0(n), analytic_c1(n)
    )


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in n dimensions (2pi, 4pi, ...)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def mass_from_sinogram(g: Sinogram, n: int) -> float:
    """Total integral of the underlying field, read from the line data.

    Integrating the transform over offsets recovers the field's integral for
    every direction; the weighted sum over the whole line set therefore
    equals the sphere measure times the mass.
    """
    return float(np.sum(g.lineset.weights * g.values)) / sphere_area(n)


# zero-padding factor, per offset axis, of the lattice on which the ramp
# kernel is sampled; the filtered projections decay quadratically, so a
# generous pad removes wrap-around below discretization error.  The pad lives
# only in the kernel: profiles vanish outside the offset lattice and the
# output is cropped to it, so a filter on the padded lattice reads the kernel
# at lags |d| < n_offsets alone.
_OFFSET_PAD = 32

# cosine rolloff of the ramp between these fractions of the offset-lattice
# bandwidth: the quadrature wiggles of interpolated projections live near the
# lattice scale and would otherwise be amplified by the full bandwidth
_RAMP_WINDOW = (0.5, 1.0)


def _ramp_multiplier(k: np.ndarray, dz: float) -> np.ndarray:
    lo = _RAMP_WINDOW[0] * np.pi / dz
    hi = _RAMP_WINDOW[1] * np.pi / dz
    t = np.clip((k - lo) / (hi - lo), 0.0, 1.0)
    return k * np.cos(0.5 * np.pi * t) ** 2


def _ramp_lag_kernel(n_offsets: int, n_axes: int, dz: float) -> np.ndarray:
    """Ramp kernel of the padded offset lattice at lags ``-n_offsets`` to
    ``n_offsets - 1`` on each of ``n_axes`` axes, in the order of a length
    ``2 n_offsets`` DFT."""
    m = _OFFSET_PAD * n_offsets
    k1 = 2.0 * np.pi * np.fft.fftfreq(m, d=dz)
    k = np.sqrt(sum(c * c for c in np.meshgrid(*([k1] * n_axes), indexing="ij", sparse=True)))
    kernel = np.fft.ifftn(_ramp_multiplier(k, dz)).real
    lags = np.fft.ifftshift(np.arange(-n_offsets, n_offsets)) % m
    return kernel[np.ix_(*([lags] * n_axes))]


def ramp_filter_offsets(g: Sinogram) -> Sinogram:
    """Half-Laplacian in the offset variable, per direction.

    The half-Laplacian commutes with back-projection: filtering each
    direction's offset profile with the multiplier |k| equals applying the
    field-side operator to the back-projection, mode by mode.  Doing it on
    the data side keeps every whole-space tail in the offset variables.

    The filter is the multiplier's circular convolution on the offset lattice
    zero-padded ``_OFFSET_PAD`` times per axis, cropped back to the lattice.
    Only lags shorter than the lattice reach the cropped output, so the
    padded-lattice kernel is sampled once at those lags and every direction
    is convolved at twice the lattice size; the result equals the padded FFT
    filter to rounding.
    """
    ls = g.lineset
    per = ls.n_offsets ** (ls.n - 1)
    if ls.filtered or len(ls) != ls.n_angles * per:
        raise ValueError("offset filtering needs the complete offset lattice")
    dz = ls.offset_spacing
    if dz <= 0:
        raise ValueError("line set does not carry its offset spacing")
    lattice = (ls.n_offsets,) * (ls.n - 1)
    size = tuple(2 * s for s in lattice)
    axes = tuple(range(1, ls.n))
    kernel = np.fft.rfftn(_ramp_lag_kernel(ls.n_offsets, ls.n - 1, dz))
    rows = g.values.reshape((ls.n_angles,) + lattice)
    spec = np.fft.rfftn(rows, s=size, axes=axes) * kernel
    filtered = np.fft.irfftn(spec, s=size, axes=axes)
    return Sinogram(ls, filtered[(slice(None),) + tuple(slice(s) for s in lattice)].reshape(-1))


def _warn_if_filtered(ls: LineSet):
    if ls.filtered:
        warnings.warn(
            "reconstruction formula assumes data on the full line set; "
            "this sinogram was region-filtered",
            stacklevel=3,
        )


def backproject_pointwise(
    g: Sinogram, grid: Grid, components: Sequence[int] | None = None
) -> np.ndarray:
    """Node-driven back-projection: interpolate each direction's offset
    profile at the node's perpendicular offset and sum over directions.

    This evaluates the same integral as the matched transpose but as a plain
    quadrature per node; reconstruction uses it because its error is a clean
    second-order interpolation error with no lattice beat.  With
    ``components`` None the result has the grid's shape.  With a sequence of
    component indices it is a stack with one back-projection per entry, each
    direction weighted by that component of its unit vector (the
    vector-transform back-projection); every direction's profile is
    interpolated once for all entries.
    """
    ls = g.lineset
    n = ls.n
    no = ls.n_offsets
    per = no ** (n - 1)
    if ls.filtered or len(ls) != ls.n_angles * per:
        raise ValueError("node-driven back-projection needs the full lattice")
    dz = ls.offset_spacing
    weight_angle = float(ls.weights[0]) / dz ** (n - 1)  # direction measure
    # one trailing zero per offset axis: a node clipped to the last offset
    # reads it with weight zero, so no cell index needs a second clip
    table = np.pad(
        weight_angle * g.values.reshape((ls.n_angles,) + (no,) * (n - 1)),
        [(0, 0)] + [(0, 1)] * (n - 1),
    ).reshape(ls.n_angles, -1)
    strides = [(no + 1) ** (n - 2 - k) for k in range(n - 1)]
    origin, basis = _offset_frame(ls)
    shift = np.einsum("akj,aj->ak", basis, origin) / dz
    # node coordinates along grid axis j, in offset cells, shaped to broadcast
    node_axes = [
        ax.reshape((-1,) + (1,) * (n - 1 - j)) / dz for j, ax in enumerate(grid.axes())
    ]
    if components is None:
        out = np.zeros(grid.shape)
    else:
        components = list(components)
        out = np.zeros((len(components),) + grid.shape)
        thetas = ls.thetas.reshape(ls.n_angles, per, n)[:, 0, :]
        comp_weights = thetas[:, components].reshape((ls.n_angles, len(components)) + (1,) * n)
    for a in range(ls.n_angles):
        base = None
        fracs = []
        for e, s in zip(basis[a], shift[a]):
            c = node_axes[0] * e[0] - s
            for j in range(1, n):
                c = c + node_axes[j] * e[j]
            np.clip(c, 0.0, no - 1, out=c)
            cell = np.floor(c)
            c -= cell
            fracs.append(c)
            base = cell if base is None else base * (no + 1) + cell
        profile = _lerp(table[a], base.astype(np.intp), strides, fracs)
        if components is None:
            out += profile
        else:
            out += comp_weights[a] * profile
    return out


def _offset_frame(ls: LineSet):
    """Each direction's first lattice offset and the unit steps along its
    offset axes, read from the lattice layout: ``(A, n)`` and ``(A, n-1, n)``."""
    block = ls.zs.reshape((ls.n_angles,) + (ls.n_offsets,) * (ls.n - 1) + (ls.n,))
    origin = block[(slice(None),) + (0,) * (ls.n - 1)]
    steps = []
    for k in range(ls.n - 1):
        step = block[(slice(None),) + tuple(int(i == k) for i in range(ls.n - 1))] - origin
        steps.append(step / np.linalg.norm(step, axis=1, keepdims=True))
    return origin, np.stack(steps, axis=1)


def _lerp(row: np.ndarray, base: np.ndarray, strides, fracs):
    """Multilinear interpolation of the flat table ``row`` in the cells whose
    first corner is ``base``, one axis (stride, fraction) at a time."""
    if not strides:
        return row[base]
    lo = _lerp(row, base, strides[1:], fracs[1:])
    hi = _lerp(row[strides[0]:], base, strides[1:], fracs[1:])
    return lo + fracs[0] * (hi - lo)


def reconstruct_raw_scalar(g: Sinogram, grid: Grid) -> ScalarField:
    """Half-Laplacian of the back-projection, before the c0 scaling.

    Evaluated in the commuted order (offset-side filter, then node-driven
    back-projection): the operator is the same, but every slowly decaying
    tail stays on the data side, where the padding reduces to a lag kernel.
    """
    return ScalarField(grid, backproject_pointwise(ramp_filter_offsets(g), grid))


def reconstruct_full_scalar(
    g: Sinogram, grid: Grid, consts: ReconstructionConstants
) -> ScalarField:
    """Full-data inversion: scaled half-Laplacian of the back-projection."""
    _warn_if_filtered(g.lineset)
    return consts.c0 * reconstruct_raw_scalar(g, grid)


def calibrate_constants(
    grid: Grid, ls: LineSet, sigma: float = 0.15, sigma_vector: float = 0.18
) -> ReconstructionConstants:
    """Fit the reconstruction constants on smooth calibration phantoms.

    Each constant is the closed-form least-squares scalar matching the raw
    reconstruction pipeline to the phantom it came from; the analytic values
    are recorded alongside.  Calibration absorbs the quadrature bias of the
    discrete normal operator.
    """
    from .xray_vector import reconstruct_raw_solenoidal, xray_vector_forward
    from .grid import VectorField, inner_product

    f = sample_phantom(PhantomSpec.gaussian(sigma=sigma), grid)
    raw = reconstruct_raw_scalar(xray_forward(f, ls), grid)
    denom = inner_product(raw, raw)
    if denom <= 0:
        raise ValueError("degenerate calibration phantom")
    c0 = inner_product(raw, f) / denom

    # divergence-free vortex: rotated gradient of a gaussian, solenoidal part
    # equals the field itself
    psi = sample_phantom(PhantomSpec.gaussian(sigma=sigma_vector), grid)
    mesh = grid.coords()
    comps = [psi.values * mesh[1] / sigma_vector**2, -psi.values * mesh[0] / sigma_vector**2]
    if grid.n == 3:
        comps.append(np.zeros(grid.shape))
    vort = VectorField(grid, np.stack(comps))
    rawv = reconstruct_raw_solenoidal(xray_vector_forward(vort, ls), grid)
    denv = float(np.sum(rawv.values * rawv.values))
    c1 = float(np.sum(rawv.values * vort.values)) / denv
    return ReconstructionConstants(
        c0, c1, "calibrated", analytic_c0(grid.n), analytic_c1(grid.n)
    )
