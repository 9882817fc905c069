"""Shared helpers for the test suite."""

from itertools import product

import numpy as np
from hypothesis import strategies as st
from scipy import ndimage

from roitomo import Grid, ScalarField, VectorField
from roitomo.diffops import PolyOp


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def random_field(grid: Grid, seed: int = 0) -> ScalarField:
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal(grid.shape))


def smooth_compact_field(grid: Grid, seed: int = 0, width: float = 3.0,
                         support: float = 0.8) -> ScalarField:
    """Smoothed noise cut off well inside the box (compact, C-infinity-ish)."""
    rng = np.random.default_rng(seed)
    vals = ndimage.gaussian_filter(rng.standard_normal(grid.shape), width)
    r = np.sqrt(grid.radius_sq())
    t = np.clip((support - r) / (0.15 * support), 0.0, 1.0)
    window = t * t * (3.0 - 2.0 * t)
    vals *= window
    vals /= np.abs(vals).max()
    return ScalarField(grid, vals)


def smooth_compact_vector(grid: Grid, seed: int = 0, width: float = 3.0,
                          support: float = 0.8) -> VectorField:
    comps = [smooth_compact_field(grid, seed + 7 * i, width, support)
             for i in range(grid.n)]
    return VectorField.from_components(comps)


def zero_mean(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, f.values - f.values.mean())


def polyops(n: int):
    """Hypothesis strategy: operators of order 0-4 with 1-4 complex coefficients."""
    alphas = [a for a in product(range(5), repeat=n) if sum(a) <= 4]
    coeffs = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                                allow_nan=False, allow_infinity=False)
    terms = st.dictionaries(st.sampled_from(alphas), coeffs, min_size=1, max_size=4)
    return terms.map(lambda t: PolyOp(n, t))
