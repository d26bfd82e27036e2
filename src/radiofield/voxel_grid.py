"""Dense voxel grids with trilinear interpolation, its adjoint, and upsampling.

Grid nodes sit at cell corners: node (0,0,0) is at the box minimum corner and
node (Lx-1, Ly-1, Lz-1) at the maximum corner, endpoints inclusive. Values are
stored node-major with x varying fastest, channels contiguous per node, so
``grid.values.ravel()`` is the canonical flat layout used on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class OutOfBoundsError(ValueError):
    """A query point lies outside the grid's bounding box."""


# Relative slack (of the box extent) tolerated on bounds checks; absorbs the
# last-ulp noise of ray-marching arithmetic without hiding real bugs.
_BOUNDS_RTOL = 1e-9

# Bytes of one `blend` block's (rows, 8, C) float64 corner gather: it stays
# within a typical L2 cache, like the trainer's Adam blocks.
_BLEND_BLOCK_BYTES = 1 << 19


@dataclass
class Aabb:
    """Axis-aligned bounding box in meters."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        self.min_corner = np.asarray(self.min_corner, dtype=np.float64)
        self.max_corner = np.asarray(self.max_corner, dtype=np.float64)
        if self.min_corner.shape != (3,) or self.max_corner.shape != (3,):
            raise ValueError("Aabb corners must be 3-vectors")
        if not (np.all(np.isfinite(self.min_corner))
                and np.all(np.isfinite(self.max_corner))):
            raise ValueError(f"Aabb min_corner and max_corner must be finite, got "
                             f"{self.min_corner} .. {self.max_corner}")
        if not np.all(self.max_corner > self.min_corner):
            raise ValueError(
                f"Aabb requires max_corner > min_corner, got "
                f"{self.min_corner} .. {self.max_corner}"
            )

    @property
    def extent(self) -> np.ndarray:
        return self.max_corner - self.min_corner

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Componentwise inside test (with relative slack), any point shape."""
        p = np.asarray(points, dtype=np.float64)
        tol = _BOUNDS_RTOL * self.extent
        return np.all((p >= self.min_corner - tol) & (p <= self.max_corner + tol), axis=-1)


@dataclass
class VoxelGrid:
    """Dense lattice of per-node values over an Aabb.

    values has shape (Lx*Ly*Lz, channels); row index of node (ix, iy, iz) is
    ``ix + Lx*iy + Lx*Ly*iz``.
    """

    dims: tuple[int, int, int]
    channels: int
    bbox: Aabb
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != 3 or any(d < 2 for d in self.dims):
            raise ValueError(f"grid needs >= 2 nodes per axis, got dims={self.dims}")
        if self.channels < 1:
            raise ValueError("channels must be positive")
        n = self.dims[0] * self.dims[1] * self.dims[2]
        self.values = np.asarray(self.values, dtype=np.float64).reshape(n, self.channels)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def n_nodes(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def node_positions(self) -> np.ndarray:
        """World positions of all nodes, (n_nodes, 3), in storage row order."""
        lx, ly, lz = self.dims
        ax = [np.linspace(self.bbox.min_corner[a], self.bbox.max_corner[a], self.dims[a])
              for a in range(3)]
        zz, yy, xx = np.meshgrid(ax[2], ax[1], ax[0], indexing="ij")
        return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=-1)


def voxel_edge(bbox: Aabb, dims) -> float:
    """Smallest node spacing of a dims lattice spanning bbox: the minimum over
    axes of extent / (dims - 1)."""
    return float((bbox.extent / (np.asarray(dims, dtype=np.float64) - 1.0)).min())


def init_grid(dims, channels: int, bbox: Aabb, fill: float = 0.0) -> VoxelGrid:
    """Allocate a grid with every node value set to `fill`."""
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ValueError(f"interpolation needs two nodes per axis, got dims={dims}")
    n = dims[0] * dims[1] * dims[2]
    values = np.full((n, int(channels)), float(fill), dtype=np.float64)
    return VoxelGrid(dims=dims, channels=int(channels), bbox=bbox, values=values)


def interp_support(dims, bbox: Aabb, points: np.ndarray):
    """Corner node indices and trilinear weights for a batch of points.

    Args:
        dims: (Lx, Ly, Lz) node counts.
        bbox: grid bounding box.
        points: (N, 3) or (3,) query positions, inside bbox.

    Returns:
        idx: (N, 8) int row indices of the surrounding nodes.
        w:   (N, 8) weights; nonnegative, summing to 1 per point.

    The corner order is the bit pattern c = 0..7 with offsets
    (c & 1, (c >> 1) & 1, (c >> 2) & 1) along (x, y, z).
    """
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {p.shape}")
    inside = Aabb.contains(bbox, p)
    if not np.all(inside):
        bad = p[~inside][0]
        raise OutOfBoundsError(f"point {bad.tolist()} outside bbox "
                               f"{bbox.min_corner.tolist()}..{bbox.max_corner.tolist()}")

    dims_f = np.asarray(dims, dtype=np.float64)
    u = (p - bbox.min_corner) / bbox.extent * (dims_f - 1.0)
    i0 = np.floor(u).astype(np.int64)
    np.clip(i0, 0, np.asarray(dims, dtype=np.int64) - 2, out=i0)
    t = np.clip(u - i0, 0.0, 1.0)

    lx, ly = dims[0], dims[1]
    base = i0[:, 0] + lx * (i0[:, 1] + ly * i0[:, 2])
    n = p.shape[0]
    idx = np.empty((n, 8), dtype=np.int64)
    w = np.empty((n, 8), dtype=np.float64)
    wx = (1.0 - t[:, 0], t[:, 0])
    wy = (1.0 - t[:, 1], t[:, 1])
    wz = (1.0 - t[:, 2], t[:, 2])
    for c in range(8):
        cx, cy, cz = c & 1, (c >> 1) & 1, (c >> 2) & 1
        idx[:, c] = base + cx + lx * (cy + ly * cz)
        w[:, c] = wx[cx] * wy[cy] * wz[cz]
    return idx, w


def interpolate(grid: VoxelGrid, points: np.ndarray) -> np.ndarray:
    """Trilinear blend of the 8 surrounding node values, per channel.

    Accepts a single (3,) point or an (N, 3) batch; returns (C,) or (N, C).
    Raises OutOfBoundsError for points outside the bbox.
    """
    single = np.asarray(points).ndim == 1
    idx, w = interp_support(grid.dims, grid.bbox, points)
    out = blend(grid.values, idx, w)
    return out[0] if single else out


def blend(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Trilinear blend of grid rows: out[n] = sum over k of w[n, k] *
    values[idx[n, k]], for values (n_nodes, C) and a support idx, w (N, 8)
    (`interp_support`); returns (N, C).

    The rows are walked in blocks whose (rows, 8, C) corner gather stays
    within _BLEND_BLOCK_BYTES, so no (N, 8, C) copy is made; each block is the
    dense einsum over its rows, so the result is bit-identical to
    np.einsum("nkc,nk->nc", values[idx], w).
    """
    channels = values.shape[1]
    out = np.empty((len(idx), channels))
    rows = max(1, _BLEND_BLOCK_BYTES // (8 * channels * values.itemsize))
    for start in range(0, len(idx), rows):
        s = slice(start, start + rows)
        np.einsum("nkc,nk->nc", np.take(values, idx[s], axis=0), w[s], out=out[s])
    return out


def interpolate_backward(grid: VoxelGrid, points: np.ndarray, upstream: np.ndarray,
                         grad_accum: np.ndarray) -> None:
    """Scatter-add the adjoint of `interpolate` into a gradient buffer.

    upstream is (C,) for a single point or (N, C) for a batch; grad_accum must
    be shaped like grid.values and is accumulated in place.
    """
    single = np.asarray(points).ndim == 1
    idx, w = interp_support(grid.dims, grid.bbox, points)
    up = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    if single and up.shape == (1, grid.channels):
        pass
    elif up.shape != (idx.shape[0], grid.channels):
        raise ValueError(f"upstream shape {np.shape(upstream)} does not match "
                         f"{idx.shape[0]} points x {grid.channels} channels")
    if grad_accum.shape != grid.values.shape:
        raise ValueError(f"grad_accum shape {grad_accum.shape} != values shape "
                         f"{grid.values.shape}")
    scatter_grid_gradient(idx, w, up, grad_accum)


def scatter_grid_gradient(idx: np.ndarray, w: np.ndarray, upstream: np.ndarray,
                          grad_accum: np.ndarray) -> None:
    """Accumulate upstream * weight into the corner rows given a support.

    Shared by interpolate_backward and the batched training path, which reuses
    precomputed supports. Deterministic: each channel's contributions
    w[n, k] * upstream[n, c] are summed per node by one bincount in index
    order, into a contiguous row of one (C, n_nodes) buffer, which is added to
    grad_accum in a single pass. Per element this is the same sum and the same
    final addition as a per-channel bincount added column by column.
    upstream is (N, C) in any float dtype; the contributions are formed and
    summed in float64.
    """
    n_nodes, channels = grad_accum.shape
    flat_idx = idx.ravel()
    # each channel's upstream read as one contiguous row, not a strided column
    up_rows = np.ascontiguousarray(upstream.T, dtype=np.float64)
    sums = np.empty((channels, n_nodes))
    contrib = np.empty(w.shape)
    for ch in range(channels):
        np.multiply(w, up_rows[ch, :, None], out=contrib)
        sums[ch] = np.bincount(flat_idx, weights=contrib.ravel(), minlength=n_nodes)
    grad_accum += sums.T


def upsample(grid: VoxelGrid, new_dims) -> VoxelGrid:
    """Resample onto a finer node lattice over the same bbox.

    New node values equal the trilinear interpolation of the old grid at the
    new node positions, built one new z-plane at a time by linear passes along
    z, y and x, so only the output is grid-sized. Nodes that coincide with old
    nodes (all boundary nodes included) copy the old value exactly: each axis's
    fraction is derived with integer arithmetic, so it is exactly 0 or 1 there.
    """
    new_dims = tuple(int(d) for d in new_dims)
    if any(nd < d for nd, d in zip(new_dims, grid.dims)):
        raise ValueError(f"upsample cannot shrink dims {grid.dims} -> {new_dims}")

    def axis_support(old_n: int, new_n: int):
        j = np.arange(new_n, dtype=np.int64)
        num = j * (old_n - 1)
        den = new_n - 1
        i0 = num // den
        t = (num - i0 * den) / den
        hi = i0 == old_n - 1
        i0[hi] -= 1
        t[hi] = 1.0
        return i0, t

    ix0, tx = axis_support(grid.dims[0], new_dims[0])
    iy0, ty = axis_support(grid.dims[1], new_dims[1])
    iz0, tz = axis_support(grid.dims[2], new_dims[2])

    old = grid.values.reshape(grid.dims[2], grid.dims[1], grid.dims[0], grid.channels)
    out = np.empty((new_dims[2], new_dims[1], new_dims[0], grid.channels))
    ty, tx = ty[:, None, None], tx[:, None]
    for k in range(new_dims[2]):
        plane = old[iz0[k]] * (1.0 - tz[k]) + old[iz0[k] + 1] * tz[k]
        rows = plane[iy0] * (1.0 - ty) + plane[iy0 + 1] * ty
        out[k] = rows[:, ix0] * (1.0 - tx) + rows[:, ix0 + 1] * tx
    return VoxelGrid(dims=new_dims, channels=grid.channels, bbox=grid.bbox,
                     values=out.reshape(-1, grid.channels))
