"""Grid geometry, field containers, region masks, and spectral plumbing.

Fields live on regular grids over the box ``[-extent, extent]^n`` with nodes
``x_i = -extent + i*h`` and spacing ``h = 2*extent/size``, so the origin is a
node (per-axis sample counts are even).  Whole-space spectral convolutions are
emulated by zero-padding the box by an integer factor; the padded box behaves
as a torus whose period is large enough that compactly supported fields never
see their own wrap-around images.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import GridMismatchError, RegionError


@dataclass(frozen=True)
class Grid:
    """Regular grid on ``[-extent, extent]^n``.

    Parameters
    ----------
    n : dimension, 2 or 3.
    size : per-axis sample count (even, >= 8).
    extent : per-axis half-width of the box.
    pad_factor : integer >= 1; zero-padding multiplier used when a spectral
        operation has to emulate a whole-space convolution.
    """

    n: int
    size: tuple
    extent: tuple
    pad_factor: int = 2

    def __post_init__(self):
        size = self.size if isinstance(self.size, tuple) else (int(self.size),) * self.n
        extent = (
            self.extent
            if isinstance(self.extent, tuple)
            else (float(self.extent),) * self.n
        )
        object.__setattr__(self, "size", tuple(int(s) for s in size))
        object.__setattr__(self, "extent", tuple(float(e) for e in extent))
        if self.n not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.n}")
        if len(self.size) != self.n or len(self.extent) != self.n:
            raise ValueError("size/extent length must match dimension")
        if any(s < 8 for s in self.size):
            raise ValueError("need at least 8 samples per axis")
        if any(s % 2 for s in self.size):
            raise ValueError("per-axis sample counts must be even")
        if any(e <= 0 for e in self.extent):
            raise ValueError("extents must be positive")
        if self.pad_factor < 1:
            raise ValueError("pad_factor must be >= 1")
        steps = [2.0 * e / s for e, s in zip(self.extent, self.size)]
        if max(steps) - min(steps) > 1e-12 * max(steps):
            raise ValueError("grid spacing must be identical across axes")

    @property
    def h(self) -> float:
        return 2.0 * self.extent[0] / self.size[0]

    @property
    def shape(self) -> tuple:
        return self.size

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.size))

    @property
    def ball_radius(self) -> float:
        """Radius of the ball circumscribing the box (line-trace truncation)."""
        return float(np.sqrt(sum(e * e for e in self.extent)))

    def axis(self, i: int) -> np.ndarray:
        return -self.extent[i] + self.h * np.arange(self.size[i])

    def axes(self):
        return [self.axis(i) for i in range(self.n)]

    def coords(self):
        """Node coordinates as an ``indexing='ij'`` meshgrid list."""
        return np.meshgrid(*self.axes(), indexing="ij")

    def radius_sq(self, center=None) -> np.ndarray:
        c = np.zeros(self.n) if center is None else np.asarray(center, dtype=float)
        mesh = self.coords()
        return sum((m - ci) ** 2 for m, ci in zip(mesh, c))

    def pad_grid(self) -> "Grid":
        """The padded box as a grid in its own right (same spacing)."""
        return Grid(
            self.n,
            tuple(self.pad_factor * s for s in self.size),
            tuple(self.pad_factor * e for e in self.extent),
            pad_factor=1,
        )

    def freq_axis(self, i: int, padded: bool = False) -> np.ndarray:
        """Angular frequencies of the DFT on this (optionally padded) grid."""
        m = self.size[i] * (self.pad_factor if padded else 1)
        return 2.0 * np.pi * np.fft.fftfreq(m, d=self.h)

    def freq_norm(self, padded: bool = False) -> np.ndarray:
        axes = [self.freq_axis(i, padded) for i in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.sqrt(sum(m * m for m in mesh))


@dataclass
class ScalarField:
    """Real samples of a scalar field attached to a grid (row-major)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def norm(self) -> float:
        """L2 norm with the cell-volume quadrature weight."""
        return float(np.sqrt(self.grid.h**self.grid.n * np.sum(self.values**2)))

    def __add__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, a):
        return ScalarField(self.grid, self.values * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


@dataclass
class VectorField:
    """n scalar components on one shared grid, stored as one (n, ...) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n,) + self.grid.shape:
            raise GridMismatchError(
                f"vector values shape {self.values.shape} != "
                f"{(self.grid.n,) + self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def from_components(cls, comps) -> "VectorField":
        grid = comps[0].grid
        for c in comps[1:]:
            _check_same_grid(comps[0], c)
        return cls(grid, np.stack([c.values for c in comps]))

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.values[i])

    def norm(self) -> float:
        return float(np.sqrt(self.grid.h**self.grid.n * np.sum(self.values**2)))

    def __add__(self, other):
        _check_same_grid(self, other)
        return VectorField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return VectorField(self.grid, self.values - other.values)

    def __mul__(self, a):
        return VectorField(self.grid, self.values * float(a))

    __rmul__ = __mul__


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("operands live on different grids")


def inner_product(a: ScalarField, b: ScalarField) -> float:
    """L2 pairing ``h^n * sum(a*b)`` on a shared grid."""
    _check_same_grid(a, b)
    return float(a.grid.h**a.grid.n * np.sum(a.values * b.values))


def vector_inner_product(a: VectorField, b: VectorField) -> float:
    _check_same_grid(a, b)
    return float(a.grid.h**a.grid.n * np.sum(a.values * b.values))


# ---------------------------------------------------------------------------
# region masks


@dataclass
class RegionMask:
    """Boolean node mask for an open set, with a stencil-safe interior.

    ``erosion_radius`` (length units) is the default margin used when the
    interior is requested without an explicit radius.  Disk masks remember
    their geometry so line incidence can also be answered in closed form.
    """

    grid: Grid
    inside: np.ndarray
    erosion_radius: float = 0.0
    disk: tuple | None = None  # (center, radius) when constructed as a disk

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        if self.inside.shape != self.grid.shape:
            raise GridMismatchError("mask shape does not match grid")

    def interior(self, radius: float | None = None) -> np.ndarray:
        """Mask eroded by ``radius`` length units (Chebyshev, conservative)."""
        r = self.erosion_radius if radius is None else radius
        k = int(np.ceil(r / self.grid.h - 1e-12))
        if k <= 0:
            return self.inside.copy()
        structure = np.ones((3,) * self.grid.n, dtype=bool)
        return ndimage.binary_erosion(
            self.inside, structure=structure, iterations=k, border_value=0
        )

    def require_interior(self, radius: float | None = None) -> np.ndarray:
        inner = self.interior(radius)
        if not inner.any():
            raise RegionError("region interior is empty at the requested erosion")
        return inner


def disk_mask(grid: Grid, center, radius: float, erosion_radius: float = 0.0) -> RegionMask:
    """Open ball ``|x - center| < radius`` (boundary nodes excluded)."""
    center = np.asarray(center, dtype=float)
    inside = grid.radius_sq(center) < radius**2
    return RegionMask(grid, inside, erosion_radius, disk=(tuple(center), float(radius)))


def full_mask(grid: Grid, erosion_radius: float = 0.0) -> RegionMask:
    return RegionMask(grid, np.ones(grid.shape, dtype=bool), erosion_radius)


def empty_mask(grid: Grid) -> RegionMask:
    return RegionMask(grid, np.zeros(grid.shape, dtype=bool))


# ---------------------------------------------------------------------------
# spectral plumbing
#
# The forward transform approximates the continuous Fourier integral on the
# padded box: bin k carries h^n * sum_x f(x) exp(-i xi_k . x) with the phase
# anchored at x = 0.  With this normalization Parseval reads
# <f, g> = (1/L^n) sum_k F_k conj(G_k), L the padded period.


def _pad_slices(grid: Grid):
    off = [( (grid.pad_factor - 1) * s ) // 2 for s in grid.size]
    return tuple(slice(o, o + s) for o, s in zip(off, grid.size))


def embed_padded(f: ScalarField) -> np.ndarray:
    """Zero-pad field values into the padded box, geometry preserved."""
    g = f.grid
    out = np.zeros(tuple(g.pad_factor * s for s in g.size))
    out[_pad_slices(g)] = f.values
    return out


def crop_padded(values: np.ndarray, grid: Grid) -> np.ndarray:
    return values[_pad_slices(grid)]


def to_spectrum(f: ScalarField) -> np.ndarray:
    """Forward DFT on the padded grid, phases anchored at the origin node."""
    g = f.grid
    arr = embed_padded(f)
    return np.fft.fftn(np.fft.ifftshift(arr)) * g.h**g.n


def from_spectrum_complex(spectrum: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of :func:`to_spectrum`, cropped to the original box, complex."""
    arr = np.fft.fftshift(np.fft.ifftn(spectrum)) / grid.h**grid.n
    return crop_padded(arr, grid)


def from_spectrum(spectrum: np.ndarray, grid: Grid) -> ScalarField:
    return ScalarField(grid, from_spectrum_complex(spectrum, grid).real)


def spectral_inner(sa: np.ndarray, sb: np.ndarray, grid: Grid) -> float:
    """Spectral-side pairing that matches :func:`inner_product` (Parseval)."""
    period = grid.pad_factor * 2.0 * grid.extent[0]
    return float(np.real(np.sum(sa * np.conj(sb))) / period**grid.n)
