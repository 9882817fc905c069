"""Sampled Riesz-type convolution kernels for the normal operators.

The scalar normal operator is convolution with ``2 |x|^(1-n)``; the vector
normal operator convolves with the matrix kernel ``2 x_i x_j / |x|^(n+1)``.
Kernels are sampled on a centered grid; the non-integrable sample at the
origin is replaced by the exact average of the kernel over the central cell,
which preserves the kernel's local integral and keeps the quadrature
second-order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Grid


@lru_cache(maxsize=1)
def _cube_inv_r2_integral() -> float:
    """Integral of 1/|x|^2 over the unit-half-width cube in 3-D.

    Uses self-similarity: the cube integral equals twice the integral over the
    cube minus its half-size copy, where the integrand is bounded and a
    midpoint rule converges cleanly.
    """
    m = 128
    h = 2.0 / m
    axis = -1.0 + (np.arange(m) + 0.5) * h
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    r2 = x * x + y * y + z * z
    shell = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z))) > 0.5
    return float(2.0 * np.sum(1.0 / r2[shell]) * h**3)


def inv_radius_cell_average(n: int, h: float) -> float:
    """Exact average of ``|x|^(1-n)`` over the central cell of spacing h."""
    if n == 2:
        # integral of 1/|x| over a square of side h is 4 h ln(1 + sqrt 2)
        return 4.0 * np.log(1.0 + np.sqrt(2.0)) / h
    # integral over the cube of side h is (h/2) * cube constant
    return _cube_inv_r2_integral() / (2.0 * h * h)


def scalar_kernel(grid: Grid) -> np.ndarray:
    """Centered samples of ``2 |x|^(1-n)`` on the given grid."""
    r2 = grid.radius_sq()
    center = tuple(s // 2 for s in grid.size)
    r2[center] = 1.0
    vals = 2.0 * r2 ** ((1.0 - grid.n) / 2.0)
    vals[center] = 2.0 * inv_radius_cell_average(grid.n, grid.h)
    return vals


def vector_kernel(grid: Grid) -> np.ndarray:
    """Centered samples of ``2 x_i x_j / |x|^(n+1)``, shape (n, n, ...).

    Central-cell averages: off-diagonal entries vanish by odd symmetry; each
    diagonal entry takes 1/n of the scalar kernel's cell average since the
    diagonal entries sum to ``2 |x|^(1-n)``.
    """
    n = grid.n
    mesh = grid.coords()
    r2 = grid.radius_sq()
    center = tuple(s // 2 for s in grid.size)
    r2[center] = 1.0
    inv_pow = r2 ** (-(n + 1.0) / 2.0)
    out = np.empty((n, n) + grid.shape)
    diag_center = 2.0 * inv_radius_cell_average(n, grid.h) / n
    for i in range(n):
        for j in range(i, n):
            vals = 2.0 * mesh[i] * mesh[j] * inv_pow
            vals[center] = diag_center if i == j else 0.0
            out[i, j] = vals
            if i != j:
                out[j, i] = vals
    return out


def kernel_spectrum(kernel_centered: np.ndarray, grid: Grid) -> np.ndarray:
    """Real DFT symbol of a centered even kernel (includes the h^n weight)."""
    return np.real(np.fft.fftn(np.fft.ifftshift(kernel_centered))) * grid.h**grid.n
