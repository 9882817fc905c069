"""Scalar X-ray transform, matched back-projection, and the normal operator.

The normal operator comes in two deliberately independent routes: the
composition of the discrete forward map with its exact transpose (used by
solvers, adjoint identities hold to round-off), and a spectral convolution
with the kernel ``2 |x|^(1-n)`` on the padded box (used by analysis tests).
The two validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import project, riesz
from .errors import GridMismatchError
from .grid import Grid, ScalarField, crop_padded, embed_padded
from .lines import LineSet


@dataclass
class Sinogram:
    """One real value per line of a line set (field times length units)."""

    lineset: LineSet
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.lineset),):
            raise GridMismatchError("sinogram length does not match line set")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sinogram values must be finite")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.lineset.weights * self.values**2)))

    def __add__(self, other):
        return Sinogram(self.lineset, self.values + other.values)

    def __sub__(self, other):
        return Sinogram(self.lineset, self.values - other.values)

    def __mul__(self, a):
        return Sinogram(self.lineset, self.values * float(a))

    __rmul__ = __mul__


def sino_inner(a: Sinogram, b: Sinogram) -> float:
    """Quadrature-weighted pairing over the line set."""
    return float(np.sum(a.lineset.weights * a.values * b.values))


def xray_forward(f: ScalarField, ls: LineSet) -> Sinogram:
    """Line integrals of the field over the set (midpoint rule, step h/2)."""
    return Sinogram(ls, project.xray_forward_values(f.grid, ls, f.values))


def xray_backproject(g: Sinogram, grid: Grid) -> ScalarField:
    """Exact transpose of :func:`xray_forward` under the weighted pairings.

    Satisfies ``<X f, g>_lines == <f, X* g>_grid`` to round-off by
    construction; with the orientation-doubled line weights it approximates
    the continuum back-projection over the full sphere of directions.
    """
    if g.lineset.n != grid.n:
        raise GridMismatchError("line set dimension does not match grid")
    return ScalarField(
        grid, project.xray_backproject_values(grid, g.lineset, g.values)
    )


def normal_scalar(f: ScalarField, ls: LineSet) -> ScalarField:
    """Composition route: back-projection of the forward transform."""
    return xray_backproject(xray_forward(f, ls), f.grid)


def normal_scalar_conv(f: ScalarField) -> ScalarField:
    """Convolution route: padded spectral convolution with ``2 |x|^(1-n)``.

    With the default pad factor the circular convolution equals the
    whole-space one at every node of the original box for fields supported in
    the 0.9-ball, up to the quadrature of the kernel singularity.
    """
    grid = f.grid
    spec = np.fft.fftn(embed_padded(f)) * normal_conv_symbol(grid)
    return ScalarField(grid, crop_padded(np.fft.ifftn(spec).real, grid))


def normal_conv_symbol(grid: Grid) -> np.ndarray:
    """Discrete symbol of the convolution-route normal operator (padded box)."""
    pg = grid.pad_grid()
    return riesz.kernel_spectrum(riesz.scalar_kernel(pg), pg)
