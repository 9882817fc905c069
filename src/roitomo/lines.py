"""Discretization of the oriented-line manifold and region incidence.

A line is an offset point plus a unit direction with the offset perpendicular
to the direction.  Orientation is quotiented out: directions cover the half
circle (half sphere for n = 3) and each retained line carries a quadrature
weight of twice its angle-offset cell, so sums over the line set approximate
integrals over all oriented lines of even integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError
from .grid import Grid, RegionMask
from .project import sample_coordinates


@dataclass(frozen=True)
class Line:
    theta: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "z", z)
        if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")
        if abs(float(np.dot(z, theta))) > 1e-12 * max(1.0, float(np.linalg.norm(z))):
            raise ValueError("offset must be perpendicular to the direction")

    def point(self, s: float) -> np.ndarray:
        return self.z + s * self.theta


@dataclass
class LineSet:
    """Flattened family of lines with quadrature weights and lattice indices."""

    thetas: np.ndarray          # (L, n) unit directions
    zs: np.ndarray              # (L, n) offsets, z . theta = 0
    weights: np.ndarray         # (L,) quadrature weight per line
    angle_index: np.ndarray     # (L,) index into the direction lattice
    offset_index: np.ndarray    # (L,) index into the per-direction offset lattice
    n_angles: int
    n_offsets: int
    offset_spacing: float = 0.0
    filtered: bool = False

    def __post_init__(self):
        # projector caches key on the set's identity, so its lines must not
        # change after construction
        for arr in (self.thetas, self.zs, self.weights, self.angle_index, self.offset_index):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def n(self) -> int:
        return self.thetas.shape[1]

    def line(self, i: int) -> Line:
        return Line(self.thetas[i], self.zs[i])

    def subset(self, keep: np.ndarray, filtered: bool = True) -> "LineSet":
        keep = np.asarray(keep)
        return LineSet(
            self.thetas[keep],
            self.zs[keep],
            self.weights[keep],
            self.angle_index[keep],
            self.offset_index[keep],
            self.n_angles,
            self.n_offsets,
            offset_spacing=self.offset_spacing,
            filtered=filtered or self.filtered,
        )


def default_offset_count(grid: Grid) -> int:
    return int(np.ceil(1.5 * max(grid.size)))


def make_lineset(grid: Grid, n_angles: int = 180, n_offsets: int | None = None) -> LineSet:
    """Uniform direction/offset lattice covering every line meeting the box.

    Offsets span the circumscribing ball so corner-supported fields are still
    crossed.  For n = 3 the directions sample a Fibonacci half-sphere and each
    direction carries a two-axis offset lattice (``n_offsets`` per axis).
    """
    if n_angles < 1 or (n_offsets is not None and n_offsets < 1):
        raise ValueError("counts must be >= 1")
    if len(set(grid.extent)) != 1:
        raise GeometryError("line sets require equal extents per axis")
    if n_offsets is None:
        n_offsets = default_offset_count(grid)
    span = grid.ball_radius
    dz = 2.0 * span / n_offsets
    p = -span + (np.arange(n_offsets) + 0.5) * dz

    if grid.n == 2:
        phi = np.pi * np.arange(n_angles) / n_angles
        theta = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        perp = np.stack([-np.sin(phi), np.cos(phi)], axis=1)
        thetas = np.repeat(theta, n_offsets, axis=0)
        zs = np.repeat(perp, n_offsets, axis=0) * np.tile(p, n_angles)[:, None]
        angle_index = np.repeat(np.arange(n_angles), n_offsets)
        offset_index = np.tile(np.arange(n_offsets), n_angles)
        weights = np.full(len(thetas), 2.0 * (np.pi / n_angles) * dz)
    else:
        theta = _fibonacci_half_sphere(n_angles)
        e1, e2 = _orthobasis(theta)
        p1, p2 = np.meshgrid(p, p, indexing="ij")
        p1 = p1.reshape(-1)
        p2 = p2.reshape(-1)
        per_dir = n_offsets * n_offsets
        thetas = np.repeat(theta, per_dir, axis=0)
        zs = (
            np.repeat(e1, per_dir, axis=0) * np.tile(p1, n_angles)[:, None]
            + np.repeat(e2, per_dir, axis=0) * np.tile(p2, n_angles)[:, None]
        )
        angle_index = np.repeat(np.arange(n_angles), per_dir)
        offset_index = np.tile(np.arange(per_dir), n_angles)
        weights = np.full(len(thetas), 2.0 * (2.0 * np.pi / n_angles) * dz * dz)
    return LineSet(thetas, zs, weights, angle_index, offset_index,
                   n_angles, n_offsets, offset_spacing=dz)


def _fibonacci_half_sphere(count: int) -> np.ndarray:
    k = np.arange(count)
    zc = (k + 0.5) / count            # upper half sphere only: orientation quotient
    r = np.sqrt(np.clip(1.0 - zc * zc, 0.0, 1.0))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    az = golden * k
    return np.stack([r * np.cos(az), r * np.sin(az), zc], axis=1)


def _orthobasis(theta: np.ndarray):
    ref = np.zeros_like(theta)
    ref[:, 0] = 1.0
    near_pole = np.abs(theta[:, 0]) > 0.9
    ref[near_pole] = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(theta, ref)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(theta, e1)
    return e1, e2


def _meets_disk(thetas: np.ndarray, zs: np.ndarray, center, radius: float) -> np.ndarray:
    """Closed-form incidence with an open disk: perpendicular distance test.

    Tangent lines count as non-intersecting (the region is open).
    """
    c = np.asarray(center, dtype=float)
    d = c[None, :] - zs
    along = np.sum(d * thetas, axis=1)
    perp = d - along[:, None] * thetas
    return np.einsum("ij,ij->i", perp, perp) < radius**2


def _meets_sampled(grid: Grid, thetas: np.ndarray, zs: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Nearest-node trace test: some sample's nearest node lies inside the mask.

    The samples are the transforms' own, from ``project.sample_coordinates``.
    """
    out = np.zeros(len(thetas), dtype=bool)
    for sl, g in sample_coordinates(grid, thetas, zs):
        nodes = [np.rint(gj) for gj in g]
        ok = np.logical_and.reduce([(k >= 0) & (k < size) for k, size in zip(nodes, grid.size)])
        hit = np.zeros(ok.shape, dtype=bool)
        hit[ok] = inside[tuple(k[ok].astype(np.intp) for k in nodes)]
        out[sl] = hit.any(axis=1)
    return out


def _meets(mask: RegionMask, thetas: np.ndarray, zs: np.ndarray) -> np.ndarray:
    if mask.disk is not None:
        return _meets_disk(thetas, zs, *mask.disk)
    return _meets_sampled(mask.grid, thetas, zs, mask.inside)


def line_meets_region(line: Line, mask: RegionMask) -> bool:
    return bool(_meets(mask, line.theta[None, :], line.z[None, :])[0])


def filter_roi(lineset: LineSet, mask: RegionMask) -> LineSet:
    """Lines of the set that meet the region, order preserved."""
    return lineset.subset(_meets(mask, lineset.thetas, lineset.zs))
