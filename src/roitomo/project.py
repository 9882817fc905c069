"""Shared line-sampling engine for the discrete transforms.

Every line is traced with midpoint quadrature at step h/2 over the interval
covering the grid's circumscribing ball; samples are multilinearly
interpolated, samples outside the box get zero weight.  The forward map and
the back-projection use the same (index, weight) decomposition, so the
back-projection is the exact transpose of the forward map with respect to the
weighted line pairing and the cell-volume grid pairing.

Moderate (grid, line set) pairs are backed by a cached sparse matrix so
iterative solvers and repeated applications pay the geometry cost once; large
single-pass jobs stream the geometry chunk by chunk instead.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import product

import numpy as np
from scipy import sparse

from .grid import Grid

# target number of (line, step) samples per vectorized chunk
_CHUNK_SAMPLES = 4_000_000
# build and cache a sparse matrix when the estimated nonzeros stay below this
_MATRIX_NNZ_LIMIT = 30_000_000
_CACHE_SIZE = 2

_projector_cache: "OrderedDict[tuple, tuple]" = OrderedDict()


def line_quadrature(grid: Grid):
    """Midpoint s-lattice with step h/2 across the grid ball.

    The lattice is symmetric about s = 0, so reversing a line's direction
    traverses exactly the same sample points.
    """
    step = grid.h / 2.0
    radius = grid.ball_radius
    count = int(np.ceil(2.0 * radius / step))
    s = (np.arange(count) - (count - 1) / 2.0) * step
    return s, step


def _axis_geometry(grid: Grid, thetas: np.ndarray, zs: np.ndarray, s: np.ndarray):
    """Per-axis floor indices and interpolation fractions.

    Samples interpolate the zero-extended field: a sample within one cell of
    the box boundary keeps the corner weights that fall on real nodes, so
    boundary nodes receive their full deposit mass under the transpose.
    """
    inv_h = 1.0 / grid.h
    i0, t = [], []
    for j in range(grid.n):
        g = (zs[:, j : j + 1] + s[None, :] * thetas[:, j : j + 1] + grid.extent[j]) * inv_h
        np.clip(g, -1.0, float(grid.size[j]), out=g)
        ij = np.floor(g).astype(np.int64)
        np.clip(ij, -1, grid.size[j] - 1, out=ij)
        g -= ij
        np.clip(g, 0.0, 1.0, out=g)
        i0.append(ij)
        t.append(g)
    return i0, t


def _strides(grid: Grid):
    strides = np.ones(grid.n, dtype=np.int64)
    for j in range(grid.n - 2, -1, -1):
        strides[j] = strides[j + 1] * grid.size[j + 1]
    return strides


def _corner_iter(grid: Grid, i0, t):
    """Yield (flat index, weight) per interpolation corner of a chunk.

    Corners falling outside the box get zero weight (zero extension); their
    indices are clipped into range so gathers and scatters stay in bounds.
    """
    strides = _strides(grid)
    for bits in product((0, 1), repeat=grid.n):
        w = None
        idx = None
        for j, b in enumerate(bits):
            c = i0[j] + b
            ok = (c >= 0) & (c < grid.size[j])
            wj = (t[j] if b else 1.0 - t[j]) * ok
            cc = np.clip(c, 0, grid.size[j] - 1) * strides[j]
            w = wj if w is None else w * wj
            idx = cc if idx is None else idx + cc
        yield idx, w


def _chunks(n_lines: int, n_steps: int):
    span = max(1, _CHUNK_SAMPLES // max(1, n_steps))
    for start in range(0, n_lines, span):
        yield slice(start, min(start + span, n_lines))


def forward_many(grid: Grid, lineset, stacks: list) -> np.ndarray:
    """Line integrals of several scalar arrays at once; shape (m, L)."""
    proj = _cached_projector(grid, lineset)
    if proj is not None:
        return np.stack([proj.forward(np.asarray(v)) for v in stacks])
    s, ds = line_quadrature(grid)
    flats = [np.ascontiguousarray(v).reshape(-1) for v in stacks]
    out = np.zeros((len(stacks), len(lineset.thetas)))
    for sl in _chunks(len(lineset.thetas), len(s)):
        geo = _axis_geometry(grid, lineset.thetas[sl], lineset.zs[sl], s)
        accs = [np.zeros(geo[0][0].shape) for _ in flats]
        for idx, w in _corner_iter(grid, *geo):
            for acc, flat in zip(accs, flats):
                acc += w * flat[idx]
        for m, acc in enumerate(accs):
            out[m, sl] = ds * acc.sum(axis=1)
    return out


def xray_forward_values(grid: Grid, lineset, values: np.ndarray) -> np.ndarray:
    return forward_many(grid, lineset, [values])[0]


def xray_backproject_values(grid: Grid, lineset, line_values: np.ndarray) -> np.ndarray:
    """Matched transpose of :func:`xray_forward_values` onto grid nodes."""
    proj = _cached_projector(grid, lineset)
    if proj is not None:
        return proj.backproject(np.asarray(line_values, dtype=float))
    s, ds = line_quadrature(grid)
    out = np.zeros(grid.n_nodes)
    contrib = lineset.weights * np.asarray(line_values, dtype=float)
    for sl in _chunks(len(lineset.thetas), len(s)):
        geo = _axis_geometry(grid, lineset.thetas[sl], lineset.zs[sl], s)
        line_part = contrib[sl][:, None]
        for idx, w in _corner_iter(grid, *geo):
            out += np.bincount(
                idx.reshape(-1),
                weights=(w * line_part).reshape(-1),
                minlength=grid.n_nodes,
            )
    out *= ds / grid.h**grid.n
    return out.reshape(grid.shape)


def assemble_matrix(grid: Grid, lineset) -> sparse.csr_matrix:
    """Sparse quadrature matrix X with rows = lines, columns = nodes.

    ``X @ f.ravel()`` equals the streamed forward map exactly (same geometry,
    duplicates merged).  Chunks are deduplicated immediately so assembly never
    holds the raw per-sample triplets for the whole set at once.
    """
    s, ds = line_quadrature(grid)
    n_lines = len(lineset.thetas)
    total = None
    for sl in _chunks(n_lines, len(s)):
        geo = _axis_geometry(grid, lineset.thetas[sl], lineset.zs[sl], s)
        n_steps = geo[0][0].shape[1]
        rows_base = np.repeat(np.arange(sl.start, sl.stop), n_steps)
        parts = []
        for idx, w in _corner_iter(grid, *geo):
            wf = w.reshape(-1)
            keep = wf != 0.0
            parts.append((rows_base[keep], idx.reshape(-1)[keep], ds * wf[keep]))
        rows = np.concatenate([p[0] for p in parts])
        cols = np.concatenate([p[1] for p in parts])
        data = np.concatenate([p[2] for p in parts])
        block = sparse.coo_matrix(
            (data, (rows, cols)), shape=(n_lines, grid.n_nodes)
        ).tocsr()
        total = block if total is None else total + block
    total.sum_duplicates()
    return total


class Projector:
    """Forward/adjoint pair bound to one grid and line set, matrix-backed."""

    def __init__(self, grid: Grid, lineset):
        self.grid = grid
        self.lineset = lineset
        self.matrix = assemble_matrix(grid, lineset)
        self.matrix_t = self.matrix.T.tocsr()
        self._hn = grid.h**grid.n

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values.reshape(-1)

    def backproject(self, line_values: np.ndarray) -> np.ndarray:
        weighted = self.lineset.weights * line_values
        return (self.matrix_t @ weighted).reshape(self.grid.shape) / self._hn


def _estimated_nnz(grid: Grid, lineset) -> float:
    s, _ = line_quadrature(grid)
    return len(lineset.thetas) * len(s) * 2**grid.n / 5.0


def _cached_projector(grid: Grid, lineset) -> Projector | None:
    """Matrix-backed projector for moderate problems, LRU-cached.

    The cache keeps a reference to the line set so object identity stays a
    valid key for its lifetime.
    """
    if _estimated_nnz(grid, lineset) > _MATRIX_NNZ_LIMIT:
        return None
    key = (grid, id(lineset))
    hit = _projector_cache.get(key)
    if hit is not None and hit[0] is lineset:
        _projector_cache.move_to_end(key)
        return hit[1]
    proj = Projector(grid, lineset)
    _projector_cache[key] = (lineset, proj)
    while len(_projector_cache) > _CACHE_SIZE:
        _projector_cache.popitem(last=False)
    return proj


def projector(grid: Grid, lineset) -> Projector:
    """Matrix-backed projector, from the cache when its matrix fits the limit.

    Above the limit the matrix is built for this caller alone and not kept.
    """
    proj = _cached_projector(grid, lineset)
    return proj if proj is not None else Projector(grid, lineset)
