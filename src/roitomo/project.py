"""Shared line-sampling engine for the discrete transforms.

Every line is traced with midpoint quadrature at step h/2 over the interval
covering the grid's circumscribing ball; samples are multilinearly
interpolated, samples outside the box get zero weight.

One generator, ``sample_coordinates``, yields every sample's grid
coordinates per chunk of lines.  ``_row_blocks`` turns them into the chunk's
rows of the quadrature matrix X (CSR over the grid padded by one node per
side), and the sampled region incidence rounds them to the nearest node.
Both maps are built from the row blocks, so the back-projection is the exact
transpose of the forward map with respect to the weighted line pairing and
the cell-volume grid pairing.

Moderate (grid, line set) pairs are backed by a cached sparse matrix, stacked
from the blocks once, so iterative solvers and repeated applications pay the
geometry cost once; an entry lives exactly as long as its line set.  Large
single-pass jobs apply each block to all their arrays at once and drop it.
"""

from __future__ import annotations

import weakref
from itertools import product

import numpy as np
from scipy import sparse

from .grid import Grid

# target number of (line, step) samples per row block; a chunk's per-sample
# arrays (about 2 MB each) then stay in cache, which made the streamed maps
# faster than with 4M-sample chunks
_CHUNK_SAMPLES = 250_000
# build and cache a sparse matrix when the estimated nonzeros stay below this
_MATRIX_NNZ_LIMIT = 30_000_000

# (grid, id(line set)) -> Projector; each entry is dropped when its line set dies
_projector_cache: dict = {}


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


def _padded_shape(grid: Grid) -> tuple:
    return tuple(size + 2 for size in grid.size)


def _interior(grid: Grid) -> tuple:
    return (slice(1, -1),) * grid.n


def sample_coordinates(grid: Grid, thetas: np.ndarray, zs: np.ndarray):
    """Yield ``(line slice, [g_j])`` per chunk of lines, one (lines, steps) array per axis.

    ``g_j = (z_j + s theta_j + extent_j) / h`` over :func:`line_quadrature`'s s-lattice.
    """
    s, _ = line_quadrature(grid)
    inv_h = 1.0 / grid.h
    for sl in _chunks(len(thetas), len(s)):
        g = []
        for j in range(grid.n):
            gj = s[None, :] * thetas[sl, j : j + 1]
            gj += zs[sl, j : j + 1]
            gj += grid.extent[j]
            gj *= inv_h
            g.append(gj)
        yield sl, g


def _row_blocks(grid: Grid, lineset):
    """Yield ``(line slice, block)`` per chunk of lines; ``block`` is CSR.

    The block holds the chunk's rows of X over the grid padded by one node on
    each side.  Only samples strictly inside the interpolation support
    (-1 < g_j < size_j on every axis) are kept, and all 2^n corners of such a
    sample lie in the padded grid, so no corner needs a mask or a clip.  Pad
    nodes stand for the zero extension: their columns carry weight but only
    ever meet zeros.  Each kept sample contributes its 2^n corners in
    ``product`` order, so a row may repeat a column and may hold zero weights.
    """
    _, ds = line_quadrature(grid)
    shape = _padded_shape(grid)
    strides = np.ones(grid.n, dtype=np.int64)
    for j in range(grid.n - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    n_cols = int(np.prod(shape))
    index = np.int32 if n_cols < 2**31 else np.int64
    corners = list(product((0, 1), repeat=grid.n))
    offsets = (np.array(corners) @ strides).astype(index)
    for sl, g in sample_coordinates(grid, lineset.thetas, lineset.zs):
        inside = np.logical_and.reduce([(gj > -1.0) & (gj < size) for gj, size in zip(g, grid.size)])
        kept = np.flatnonzero(inside)
        base = np.zeros(len(kept))
        frac = []
        for j, gj in enumerate(g):
            t = gj.reshape(-1).take(kept)
            cell = np.floor(t)
            base += (cell + 1.0) * strides[j]
            t -= cell
            frac.append((1.0 - t, t))
        weights = np.empty((len(kept), len(corners)))
        for c, bits in enumerate(corners):
            w = weights[:, c]
            np.multiply(frac[0][bits[0]], frac[1][bits[1]], out=w)
            for j in range(2, grid.n):
                w *= frac[j][bits[j]]
        weights *= ds
        cols = base.astype(index)[:, None] + offsets
        indptr = np.zeros(sl.stop - sl.start + 1, dtype=index)
        np.cumsum(len(corners) * np.count_nonzero(inside, axis=1), out=indptr[1:])
        block = sparse.csr_matrix(
            (weights.reshape(-1), cols.reshape(-1), indptr),
            shape=(sl.stop - sl.start, n_cols),
        )
        yield sl, block


def _chunks(n_lines: int, n_steps: int):
    span = max(1, _CHUNK_SAMPLES // max(1, n_steps))
    for start in range(0, n_lines, span):
        yield slice(start, min(start + span, n_lines))


def forward_many(grid: Grid, lineset, stacks: list) -> np.ndarray:
    """Line integrals of several scalar arrays at once; shape (m, L)."""
    proj = _cached_projector(grid, lineset)
    if proj is not None:
        return np.stack([proj.forward(np.asarray(v)) for v in stacks])
    padded = np.zeros(_padded_shape(grid) + (len(stacks),))
    for m, v in enumerate(stacks):
        padded[_interior(grid) + (m,)] = v
    padded = padded.reshape(-1, len(stacks))
    out = np.empty((len(stacks), len(lineset.thetas)))
    for sl, block in _row_blocks(grid, lineset):
        out[:, sl] = (block @ padded).T
    return out


def xray_forward_values(grid: Grid, lineset, values: np.ndarray) -> np.ndarray:
    return forward_many(grid, lineset, [values])[0]


def xray_backproject_values(grid: Grid, lineset, line_values: np.ndarray) -> np.ndarray:
    """Matched transpose of :func:`xray_forward_values` onto grid nodes."""
    proj = _cached_projector(grid, lineset)
    if proj is not None:
        return proj.backproject(np.asarray(line_values, dtype=float))
    contrib = lineset.weights * np.asarray(line_values, dtype=float)
    out = np.zeros(int(np.prod(_padded_shape(grid))))
    for sl, block in _row_blocks(grid, lineset):
        out += block.T @ contrib[sl]
    return out.reshape(_padded_shape(grid))[_interior(grid)] / grid.h**grid.n


def assemble_matrix(grid: Grid, lineset) -> sparse.csr_matrix:
    """Sparse quadrature matrix X with rows = lines, columns = nodes.

    Built from the streamed maps' own row blocks: each block keeps only the
    columns of real nodes, merges its duplicates and drops zero weights, and
    the blocks are stacked in line order.  ``X @ f.ravel()`` therefore equals
    the streamed forward map up to summation order, and X is canonical CSR.
    """
    shape = _padded_shape(grid)
    nodes = np.arange(int(np.prod(shape))).reshape(shape)[_interior(grid)].reshape(-1)
    blocks = []
    for _, block in _row_blocks(grid, lineset):
        # CSC column selection keeps rows sorted per column, and the
        # transpose back sorts each row's columns, so merging is linear
        rows = block.tocsc()[:, nodes].tocsr()
        rows.sum_duplicates()
        rows.eliminate_zeros()
        blocks.append(rows)
    if not blocks:
        return sparse.csr_matrix((0, grid.n_nodes))
    return sparse.vstack(blocks, format="csr")


class Projector:
    """Forward/adjoint pair bound to one grid and line set, matrix-backed."""

    def __init__(self, grid: Grid, lineset):
        self.grid = grid
        self.weights = lineset.weights  # not the set: a cached entry must not keep its key alive
        self.matrix = assemble_matrix(grid, lineset)
        self.matrix_t = self.matrix.T.tocsr()
        self._hn = grid.h**grid.n

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values.reshape(-1)

    def backproject(self, line_values: np.ndarray) -> np.ndarray:
        weighted = self.weights * line_values
        return (self.matrix_t @ weighted).reshape(self.grid.shape) / self._hn


def _estimated_nnz(grid: Grid, lineset) -> float:
    s, _ = line_quadrature(grid)
    return len(lineset.thetas) * len(s) * 2**grid.n / 5.0


def _cached_projector(grid: Grid, lineset) -> Projector | None:
    """Matrix-backed projector for moderate problems, cached per line set.

    An entry lives exactly as long as its (immutable) line set: a finalizer
    removes it when the set dies, before its ``id`` can be reused.
    """
    if _estimated_nnz(grid, lineset) > _MATRIX_NNZ_LIMIT:
        return None
    key = (grid, id(lineset))
    proj = _projector_cache.get(key)
    if proj is None:
        proj = _projector_cache[key] = Projector(grid, lineset)
        weakref.finalize(lineset, _projector_cache.pop, key, None)
    return proj


def projector(grid: Grid, lineset) -> Projector:
    """Matrix-backed projector, from the cache when its matrix fits the limit.

    A cached projector is kept until its line set dies.  Above the limit the
    matrix is built for this caller alone and not kept.
    """
    proj = _cached_projector(grid, lineset)
    return proj if proj is not None else Projector(grid, lineset)
