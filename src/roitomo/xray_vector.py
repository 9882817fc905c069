"""Vector-field X-ray transform, curl machinery, and solenoidal recovery.

The transform integrates the tangential component along lines and is blind to
gradient fields; its normal operator relates to the scalar one through the
exterior derivative, which is what reduces vector partial-data problems to
scalar ones.  The Helmholtz split is a spectral projection on the grid torus,
which makes it an exact projection (idempotent to round-off) for compactly
supported fields.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import project, riesz
from .errors import GridMismatchError, NotAGradientError
from .fraclap import (
    ReconstructionConstants,
    backproject_pointwise,
    ramp_filter_offsets,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    crop_padded,
    embed_padded,
)
from .lines import LineSet
from .xray_scalar import Sinogram, normal_conv_symbol

_CD_WEIGHTS = np.array([-0.5, 0.0, 0.5])


def _cd(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order centered difference with zero extension at the edges."""
    return ndimage.correlate1d(values, _CD_WEIGHTS / h, axis=axis, mode="constant")


def _cd_adjoint(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    return ndimage.correlate1d(values, _CD_WEIGHTS[::-1] / h, axis=axis, mode="constant")


def skew_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class SkewField:
    """Antisymmetric matrix field, stored as the i < j components."""

    grid: Grid
    values: np.ndarray  # (n_pairs, ...) in skew_pairs order

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        n_pairs = len(skew_pairs(self.grid.n))
        if self.values.shape != (n_pairs,) + self.grid.shape:
            raise GridMismatchError("skew component shape mismatch")

    def component(self, i: int, j: int) -> np.ndarray:
        """(i, j) entry; the (j, i) entry is its negative by convention."""
        pairs = skew_pairs(self.grid.n)
        if (i, j) in pairs:
            return self.values[pairs.index((i, j))]
        if (j, i) in pairs:
            return -self.values[pairs.index((j, i))]
        raise KeyError((i, j))

    def norm(self) -> float:
        return float(np.sqrt(self.grid.h**self.grid.n * np.sum(self.values**2)))


def exterior_derivative(F: VectorField) -> SkewField:
    """Curl components ``d_i F_j - d_j F_i`` by centered differences."""
    g = F.grid
    comps = [
        _cd(F.values[j], i, g.h) - _cd(F.values[i], j, g.h)
        for i, j in skew_pairs(g.n)
    ]
    return SkewField(g, np.stack(comps))


def _freq_meshes(g: Grid):
    """Frequency meshes plus the mask of bins safe for odd multipliers.

    Nyquist rows have no mirror partner, so an odd multiplier like i*xi
    breaks Hermitian symmetry there; those bins are treated like the zero
    bin (assigned to the solenoidal part, zero derivative).
    """
    mesh = np.meshgrid(*[g.freq_axis(i) for i in range(g.n)], indexing="ij")
    safe = np.ones(g.shape, dtype=bool)
    for i in range(g.n):
        idx = [slice(None)] * g.n
        idx[i] = g.size[i] // 2
        safe[tuple(idx)] = False
    return mesh, safe


def gradient(phi: ScalarField, method: str = "spectral") -> VectorField:
    """Gradient of a scalar field, spectral (torus-exact) or centered."""
    g = phi.grid
    if method == "centered":
        comps = [_cd(phi.values, i, g.h) for i in range(g.n)]
    elif method == "spectral":
        spec = np.fft.fftn(phi.values)
        mesh, safe = _freq_meshes(g)
        comps = [np.fft.ifftn(1j * m * safe * spec).real for m in mesh]
    else:
        raise ValueError(f"unknown gradient method {method!r}")
    return VectorField(g, np.stack(comps))


# ---------------------------------------------------------------------------
# transform, adjoint, normal operators


def xray_vector_forward(F: VectorField, ls: LineSet) -> Sinogram:
    """Integrals of the tangential component; odd under direction reversal."""
    per_comp = project.forward_many(F.grid, ls, [F.values[i] for i in range(F.grid.n)])
    vals = np.zeros(len(ls))
    for i in range(F.grid.n):
        vals += ls.thetas[:, i] * per_comp[i]
    return Sinogram(ls, vals)


def xray_vector_backproject(g: Sinogram, grid: Grid) -> VectorField:
    """Matched transpose of the vector forward map (component i weighs by theta_i)."""
    if g.lineset.n != grid.n:
        raise GridMismatchError("line set dimension does not match grid")
    comps = [
        project.xray_backproject_values(grid, g.lineset, g.lineset.thetas[:, i] * g.values)
        for i in range(grid.n)
    ]
    return VectorField(grid, np.stack(comps))


def normal_vector(F: VectorField, ls: LineSet) -> VectorField:
    return xray_vector_backproject(xray_vector_forward(F, ls), F.grid)


def _padded_n1(F: VectorField):
    """Components of F on the padded box, their spectra, and ``N1 F`` there."""
    pg = F.grid.pad_grid()
    kernels = riesz.vector_kernel(pg)
    padded = [embed_padded(F.component(i)) for i in range(F.grid.n)]
    specs = [np.fft.fftn(p) for p in padded]
    n1 = []
    for i in range(F.grid.n):
        acc = np.zeros(pg.shape, dtype=complex)
        for j in range(F.grid.n):
            acc += riesz.kernel_spectrum(kernels[i, j], pg) * specs[j]
        n1.append(np.fft.ifftn(acc).real)
    return padded, specs, n1


def normal_vector_conv(F: VectorField) -> VectorField:
    """Convolution route with the matrix kernel ``2 x_i x_j / |x|^(n+1)``."""
    _, _, n1 = _padded_n1(F)
    return VectorField(F.grid, np.stack([crop_padded(c, F.grid) for c in n1]))


# ---------------------------------------------------------------------------
# curl / normal-operator identity


@dataclass
class CurlIdentityReport:
    defect: float
    lhs_norm: float
    rhs_norm: float
    scale: float


def curl_normal_identity_defect(F: VectorField) -> CurlIdentityReport:
    """Defect of ``d(N1 F) = (n-1)^-1 N0(dF)`` on the convolution routes.

    Both sides are evaluated on the padded box with the same centered-
    difference exterior derivative and cropped afterwards, so the reported
    defect measures only the kernels' consistency, not boundary effects.
    """
    grid = F.grid
    pg = grid.pad_grid()
    n = grid.n
    k0 = normal_conv_symbol(grid)
    padded, specs, n1 = _padded_n1(F)

    lhs, rhs, ref = [], [], 0.0
    for i, j in skew_pairs(n):
        lhs_ij = _cd(n1[j], i, pg.h) - _cd(n1[i], j, pg.h)
        df_ij = _cd(padded[j], i, pg.h) - _cd(padded[i], j, pg.h)
        rhs_ij = np.fft.ifftn(k0 * np.fft.fftn(df_ij)).real / (n - 1)
        lhs.append(crop_padded(lhs_ij, grid))
        rhs.append(crop_padded(rhs_ij, grid))
    for i in range(n):
        conv_i = crop_padded(np.fft.ifftn(k0 * specs[i]).real, grid)
        ref += float(np.sum(conv_i**2))
    lhs = np.stack(lhs)
    rhs = np.stack(rhs)
    lhs_norm = float(np.linalg.norm(lhs))
    rhs_norm = float(np.linalg.norm(rhs))
    scale = max(rhs_norm, np.sqrt(ref) / (n - 1))
    defect = float(np.linalg.norm(lhs - rhs)) / max(scale, 1e-300)
    return CurlIdentityReport(defect, lhs_norm, rhs_norm, scale)


# ---------------------------------------------------------------------------
# Helmholtz split and potentials


def solenoidal_decompose(F: VectorField):
    """Split ``F = F_sol + grad(phi)`` spectrally on the grid torus.

    The projection is exact (idempotent to round-off); the zero-frequency bin
    and the partnerless Nyquist rows are assigned to the solenoidal part,
    making the potential mean-zero with a mean-zero gradient and keeping the
    sum identity exact on real fields.
    """
    g = F.grid
    mesh, safe = _freq_meshes(g)
    denom = sum(m * m for m in mesh)
    denom[(0,) * g.n] = 1.0
    specs = [np.fft.fftn(F.values[i]) for i in range(g.n)]
    dot = sum(m * s for m, s in zip(mesh, specs)) * safe
    sol = [np.fft.ifftn(s - m * dot / denom).real for m, s in zip(mesh, specs)]
    phi = np.fft.ifftn(-1j * dot / denom).real
    return VectorField(g, np.stack(sol)), ScalarField(g, phi)


def recover_potential(F: VectorField, tol: float = 0.05) -> ScalarField:
    """Mean-zero potential with ``grad(phi) ~ F``; fails if F carries curl.

    The curl defect is measured relative to the field norm at the box scale;
    fields that are exact (sampled) gradients of smooth compact potentials
    pass easily, rotational fields fail loudly.
    """
    g = F.grid
    curl = exterior_derivative(F)
    scale = F.norm() * np.pi / min(g.extent) + 1e-300
    defect = curl.norm() / scale
    if defect > tol:
        raise NotAGradientError(
            f"curl defect {defect:.3g} above tolerance {tol:.3g}"
        )
    _, phi = solenoidal_decompose(F)
    return phi


# ---------------------------------------------------------------------------
# full-data solenoidal reconstruction


def reconstruct_raw_solenoidal(g: Sinogram, grid: Grid) -> VectorField:
    """Half-Laplacian of the vector back-projection, commuted to the data side.

    The offset-side filter acts per direction before the node-driven vector
    back-projection; componentwise this equals the field-side half-Laplacian
    of the back-projection, with all slow tails handled in the offset
    variables.  One back-projection call serves every component: each
    direction's filtered profile is interpolated once and weighted by each
    component of the direction.
    """
    comps = backproject_pointwise(ramp_filter_offsets(g), grid, components=range(grid.n))
    return VectorField(grid, comps)


def reconstruct_full_solenoidal(
    g: Sinogram, grid: Grid, consts: ReconstructionConstants
) -> VectorField:
    """Recover the solenoidal part from full-data line integrals."""
    if g.lineset.filtered:
        warnings.warn(
            "solenoidal reconstruction assumes data on the full line set; "
            "this sinogram was region-filtered",
            stacklevel=2,
        )
    return consts.c1 * reconstruct_raw_solenoidal(g, grid)
