"""Trilinear grid: interpolation exactness, adjoint correctness, upsampling."""

import tracemalloc

import numpy as np
import pytest

from radiofield import voxel_grid
from radiofield.voxel_grid import (
    Aabb,
    OutOfBoundsError,
    VoxelGrid,
    blend,
    init_grid,
    interp_support,
    interpolate,
    interpolate_backward,
    scatter_grid_gradient,
    upsample,
)
from grid_reference import reference_blend, reference_scatter_grid_gradient


def unit_box():
    return Aabb(np.zeros(3), np.ones(3))


def random_points_inside(bbox, n, rng):
    return rng.uniform(bbox.min_corner, bbox.max_corner, size=(n, 3))


class TestInterpolate:
    def test_value_at_node_is_node_value(self):
        rng = np.random.default_rng(0)
        g = init_grid((3, 4, 5), 2, unit_box())
        g.values[:] = rng.normal(size=g.values.shape)
        pos = g.node_positions()
        for node in [0, 7, 33, g.n_nodes - 1]:
            np.testing.assert_allclose(interpolate(g, pos[node]), g.values[node],
                                       rtol=0, atol=1e-12)

    def test_cell_center_is_mean_of_corners(self):
        rng = np.random.default_rng(1)
        g = init_grid((2, 2, 2), 3, unit_box())
        g.values[:] = rng.normal(size=g.values.shape)
        center = np.full(3, 0.5)
        np.testing.assert_allclose(interpolate(g, center), g.values.mean(axis=0),
                                   rtol=0, atol=1e-12)

    def test_exact_on_affine_field(self):
        # Oracle: direct evaluation of f(x,y,z) = 2x + 3y - z. Trilinear
        # interpolation reproduces any affine field exactly.
        bbox = Aabb(np.array([-1.0, 0.0, 2.0]), np.array([3.0, 2.0, 5.0]))
        g = init_grid((4, 5, 3), 1, bbox)
        pos = g.node_positions()
        affine = lambda p: 2.0 * p[..., 0] + 3.0 * p[..., 1] - p[..., 2]
        g.values[:, 0] = affine(pos)
        rng = np.random.default_rng(2)
        pts = random_points_inside(bbox, 200, rng)
        got = interpolate(g, pts)[:, 0]
        want = affine(pts)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_weights_nonnegative_and_sum_to_one(self):
        rng = np.random.default_rng(3)
        bbox = Aabb(np.array([0.0, -2.0, 1.0]), np.array([4.0, 2.0, 3.0]))
        pts = random_points_inside(bbox, 500, rng)
        _, w = interp_support((7, 3, 9), bbox, pts)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_continuous_across_cell_faces(self):
        rng = np.random.default_rng(4)
        g = init_grid((5, 5, 5), 1, unit_box())
        g.values[:] = rng.normal(size=g.values.shape)
        # Approach an interior x-face from both sides.
        face_x = 2 / 4  # node plane between cells
        eps = 1e-12
        for _ in range(20):
            y, z = rng.uniform(0.05, 0.95, size=2)
            lo = interpolate(g, np.array([face_x - eps, y, z]))
            hi = interpolate(g, np.array([face_x + eps, y, z]))
            assert abs(lo[0] - hi[0]) < 1e-9

    def test_constant_fill_returns_fill(self):
        g = init_grid((3, 3, 3), 2, unit_box(), fill=-3.0)
        rng = np.random.default_rng(5)
        pts = random_points_inside(g.bbox, 50, rng)
        np.testing.assert_allclose(interpolate(g, pts), -3.0, rtol=0, atol=1e-12)

    def test_out_of_bounds_raises(self):
        g = init_grid((3, 3, 3), 1, unit_box())
        with pytest.raises(OutOfBoundsError):
            interpolate(g, np.array([1.5, 0.5, 0.5]))
        with pytest.raises(OutOfBoundsError):
            interpolate(g, np.array([[0.5, 0.5, 0.5], [0.5, -0.1, 0.5]]))


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestBlend:
    # 5 rows of 24 float64 channels per block
    BUDGET = 5 * 8 * 24 * 8

    @pytest.mark.parametrize("channels", [1, 8, 24])
    @pytest.mark.parametrize("n_from_block", [lambda b: 0, lambda b: 1,
                                              lambda b: b - 1, lambda b: b,
                                              lambda b: b + 1, lambda b: 3 * b + 5],
                             ids=["0", "1", "block-1", "block", "block+1",
                                  "3block+5"])
    def test_matches_dense_einsum_bitwise(self, monkeypatch, channels, n_from_block):
        monkeypatch.setattr(voxel_grid, "_BLEND_BLOCK_BYTES", self.BUDGET)
        block = self.BUDGET // (8 * channels * 8)
        n = n_from_block(block)
        rng = np.random.default_rng(n * 31 + channels)
        dims = (5, 4, 6)
        values = rng.normal(size=(120, channels)) * 10.0 ** rng.integers(
            -6, 6, size=(120, 1))
        values[::9] = -0.0
        idx, w = interp_support(dims, unit_box(), random_points_inside(unit_box(), n, rng))
        assert_same_bits(blend(values, idx, w), reference_blend(values, idx, w))

    def test_transient_memory_is_one_block(self):
        rng = np.random.default_rng(3)
        n, channels = 20000, 24
        values = rng.normal(size=(4000, channels))
        idx = rng.integers(0, len(values), size=(n, 8))
        w = rng.uniform(size=(n, 8))
        tracemalloc.start()
        try:
            out = blend(values, idx, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the dense form would gather 8 * n * channels * 8 bytes (~31 MB)
        assert peak - out.nbytes < 2 * voxel_grid._BLEND_BLOCK_BYTES


class TestInterpolateBackward:
    def test_point_at_node_scatters_to_that_node_only(self):
        g = init_grid((3, 3, 3), 2, unit_box())
        grad = np.zeros_like(g.values)
        pos = g.node_positions()
        u = np.array([2.0, -1.0])
        interpolate_backward(g, pos[13], u, grad)
        np.testing.assert_allclose(grad[13], u, rtol=0, atol=1e-12)
        mask = np.ones(g.n_nodes, dtype=bool)
        mask[13] = False
        assert np.all(grad[mask] == 0)

    def test_cell_center_scatters_eighth_to_each_corner(self):
        g = init_grid((2, 2, 2), 1, unit_box())
        grad = np.zeros_like(g.values)
        interpolate_backward(g, np.full(3, 0.5), np.array([1.0]), grad)
        np.testing.assert_allclose(grad[:, 0], 0.125, rtol=0, atol=1e-12)

    def test_adjoint_matches_finite_differences(self):
        # Oracle: central finite differences of <upstream, interpolate(g, p)>
        # with respect to each corner value, h = 1e-4.
        rng = np.random.default_rng(6)
        g = init_grid((3, 4, 3), 2, unit_box())
        g.values[:] = rng.normal(size=g.values.shape)
        pts = random_points_inside(g.bbox, 5, rng)
        upstream = rng.normal(size=(5, 2))

        grad = np.zeros_like(g.values)
        interpolate_backward(g, pts, upstream, grad)

        h = 1e-4
        idx, _ = interp_support(g.dims, g.bbox, pts)
        touched = np.unique(idx)
        for node in touched:
            for ch in range(g.channels):
                orig = g.values[node, ch]
                g.values[node, ch] = orig + h
                f_hi = float(np.sum(interpolate(g, pts) * upstream))
                g.values[node, ch] = orig - h
                f_lo = float(np.sum(interpolate(g, pts) * upstream))
                g.values[node, ch] = orig
                fd = (f_hi - f_lo) / (2 * h)
                if abs(fd) > 1e-12:
                    assert abs(grad[node, ch] - fd) / abs(fd) < 1e-5
                else:
                    assert abs(grad[node, ch] - fd) < 1e-9

    def test_accumulation_is_additive(self):
        g = init_grid((2, 2, 2), 1, unit_box())
        grad = np.zeros_like(g.values)
        p = np.full(3, 0.5)
        interpolate_backward(g, p, np.array([1.0]), grad)
        interpolate_backward(g, p, np.array([1.0]), grad)
        np.testing.assert_allclose(grad[:, 0], 0.25, rtol=0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        g = init_grid((2, 2, 2), 2, unit_box())
        with pytest.raises(ValueError):
            interpolate_backward(g, np.full(3, 0.5), np.zeros(2),
                                 np.zeros((g.n_nodes, 1)))
        with pytest.raises(ValueError):
            interpolate_backward(g, np.full(3, 0.5), np.zeros(3),
                                 np.zeros_like(g.values))


class TestScatterGridGradient:
    @pytest.mark.parametrize("channels", [1, 8, 24])
    @pytest.mark.parametrize("layout", ["contiguous", "column_slice", "float32"])
    def test_matches_per_channel_reference_bitwise(self, channels, layout):
        rng = np.random.default_rng(channels)
        dims = (5, 4, 6)
        pts = random_points_inside(unit_box(), 300, rng)
        pts[200:] = pts[:100]  # repeated supports accumulate in index order
        idx, w = interp_support(dims, unit_box(), pts)
        upstream = rng.normal(size=(300, channels)) * 10.0 ** rng.integers(
            -6, 6, size=(300, 1))
        upstream[::7] = -0.0
        if layout == "column_slice":
            wide = rng.normal(size=(300, channels + 3))
            wide[:, 2:2 + channels] = upstream
            upstream = wide[:, 2:2 + channels]
            assert not upstream.flags.c_contiguous
        elif layout == "float32":
            upstream = upstream.astype(np.float32)
        start = rng.normal(size=(120, channels))
        new, ref = start.copy(), start.copy()
        scatter_grid_gradient(idx, w, upstream, new)
        reference_scatter_grid_gradient(idx, w, upstream, ref)
        assert np.array_equal(new, ref)
        assert np.array_equal(np.signbit(new), np.signbit(ref))
        assert not np.array_equal(new, start)

    def test_empty_batch_leaves_buffer(self):
        grad = np.ones((8, 3))
        scatter_grid_gradient(np.empty((0, 8), dtype=np.int64), np.empty((0, 8)),
                              np.empty((0, 3)), grad)
        assert np.all(grad == 1.0)


class TestUpsample:
    def test_linear_axis_doubles(self):
        bbox = unit_box()
        g = init_grid((2, 2, 2), 1, bbox)
        pos = g.node_positions()
        g.values[:, 0] = pos[:, 0]  # x ramp: [0, 1] per x-axis slice
        up = upsample(g, (3, 2, 2))
        up_pos = up.node_positions()
        np.testing.assert_allclose(up.values[:, 0], up_pos[:, 0], rtol=0, atol=1e-15)

    def test_identity_upsample_is_bit_exact(self):
        rng = np.random.default_rng(7)
        g = init_grid((3, 4, 5), 3, unit_box())
        g.values[:] = rng.normal(size=g.values.shape)
        same = upsample(g, g.dims)
        assert np.array_equal(same.values, g.values)

    @pytest.mark.parametrize("channels", [1, 2, 24])
    def test_coinciding_nodes_copy_exactly(self, channels):
        # Factor-2 refinement of odd node counts: every other fine node lands
        # exactly on a coarse node and must carry its value bit-exactly.
        rng = np.random.default_rng(8)
        g = init_grid((3, 5, 3), channels, unit_box())
        g.values[:] = rng.normal(size=g.values.shape)
        fine = upsample(g, (5, 9, 5))
        coarse_pos = g.node_positions()
        fine_pos = fine.node_positions()
        for i, p in enumerate(coarse_pos):
            j = np.flatnonzero(np.all(fine_pos == p, axis=1))
            assert len(j) == 1
            assert np.array_equal(fine.values[j[0]], g.values[i])

    @pytest.mark.parametrize("dims, new_dims, channels", [
        ((3, 3, 4), (5, 4, 7), 2),
        ((16,) * 3, (20,) * 3, 8), ((20,) * 3, (25,) * 3, 8), ((25,) * 3, (32,) * 3, 8)],
        ids=["3x3x4-5x4x7", "desk16-20", "desk20-25", "desk25-32"])
    def test_new_nodes_match_interpolation_of_old(self, dims, new_dims, channels):
        rng = np.random.default_rng(9)
        g = init_grid(dims, channels, unit_box())
        g.values[:] = rng.normal(size=g.values.shape)
        up = upsample(g, new_dims)
        want = interpolate(g, up.node_positions())
        np.testing.assert_allclose(up.values, want, rtol=0, atol=1e-12)

    def test_memory_is_the_output_and_a_few_planes(self):
        # 32^3 -> 40^3 at F=24: besides its 11.7 MiB output, the upsample
        # holds plane-sized temporaries and the new grid's 1.5 MiB finite check
        rng = np.random.default_rng(10)
        g = init_grid((32, 32, 32), 24, unit_box())
        g.values[:] = rng.normal(size=g.values.shape)
        tracemalloc.start()
        try:
            up = upsample(g, (40, 40, 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < up.values.nbytes + 4 * 2**20

    def test_shrinking_raises(self):
        g = init_grid((4, 4, 4), 1, unit_box())
        with pytest.raises(ValueError):
            upsample(g, (3, 4, 4))


class TestInitGrid:
    def test_fill_and_shape(self):
        g = init_grid((2, 2, 2), 1, unit_box(), fill=0.0)
        assert g.values.shape == (8, 1)
        assert np.all(g.values == 0)

    def test_full_scale_allocation_length(self):
        g = init_grid((160, 160, 160), 24, unit_box())
        assert g.values.size == 160 ** 3 * 24

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            init_grid((1, 2, 2), 1, unit_box())

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Aabb(np.zeros(3), np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("corners", [(np.zeros(3), np.array([1.0, np.inf, 1.0])),
                                         (np.full(3, -np.inf), np.ones(3))],
                             ids=["max_inf", "min_minus_inf"])
    def test_infinite_box_rejected(self, corners):
        with pytest.raises(ValueError, match="must be finite"):
            Aabb(*corners)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_values_rejected(self, bad, dtype):
        values = np.zeros((2 * 2 * 3, 2), dtype=dtype)
        values[7, 1] = bad
        with pytest.raises(ValueError, match="grid values must be finite"):
            VoxelGrid((2, 2, 3), 2, unit_box(), values)

    def test_finiteness_check_holds_no_grid_sized_mask(self):
        values = np.full((64 ** 3, 24), 0.5)
        tracemalloc.start()
        try:
            VoxelGrid((64, 64, 64), 24, unit_box(), values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # a bool mask of the grid would be 6.3 MB
