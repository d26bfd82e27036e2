"""Rays and compositing: geometry closed forms, conservation, the ray engine
against a per-ray reference, the compositing adjoint against finite differences."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from radiofield import renderer
from radiofield.field_model import GradientSet, init_field_model
from radiofield.renderer import (
    SampleTable,
    SceneGeometry,
    accumulate,
    aggregate_rssi,
    all_directions,
    backward_segments,
    clip_rays,
    composite,
    composite_segments_backward,
    default_step,
    direction_from_angles,
    forward_segments,
    render_spectra,
    render_spectrum,
    render_spectrum_traced,
    sample_rays,
    segment_prefix,
    segment_weights,
    trace_ray,
)
from radiofield.voxel_grid import Aabb
from ray_reference import reference_ray


def centered_box(half=1.0):
    return Aabb(-np.full(3, half), np.full(3, half))


def demo_geometry(res=(8, 4)):
    return SceneGeometry(rx_position=np.zeros(3), bbox=centered_box(), spectrum_res=res)


def smooth_model(seed=3, dims=(6, 6, 6), bbox=None):
    m = init_field_model(bbox or centered_box(), dims, 4, 16, seed=seed)
    rng = np.random.default_rng(seed + 1)
    m.density_grid.values[:] = rng.uniform(0.0, 2.0, size=m.density_grid.values.shape)
    m.feature_grid.values[:] = 0.3 * rng.normal(size=m.feature_grid.values.shape)
    return m


class TestDirections:
    def test_closed_form_first_cell(self):
        d = direction_from_angles(0, 0, (4, 1))
        np.testing.assert_allclose(d, [0.5, 0.5, np.sqrt(2) / 2], atol=1e-12)

    def test_unit_norm(self):
        dirs = all_directions((36, 9))
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_uniform_azimuth_spacing(self):
        big_m = 12
        phis = []
        for m in range(big_m):
            d = direction_from_angles(m, 0, (big_m, 3))
            phis.append(np.arctan2(d[1], d[0]) % (2 * np.pi))
        gaps = np.diff(phis)
        np.testing.assert_allclose(gaps, 2 * np.pi / big_m, atol=1e-9)

    def test_upper_hemisphere_only(self):
        dirs = all_directions((16, 8))
        assert np.all(dirs[:, 2] > 0)

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ValueError):
            direction_from_angles(4, 0, (4, 1))

    def test_azimuth_major_indexing(self):
        # the one-cell form is the table's row m*N + n, bit for bit
        for res in ((5, 3), (36, 9), (12, 4), (7, 3)):
            dirs = all_directions(res)
            for m in range(res[0]):
                for n in range(res[1]):
                    assert np.array_equal(dirs[m * res[1] + n],
                                          direction_from_angles(m, n, res))


class TestClipRay:
    def test_axis_ray_from_center(self):
        box = Aabb(-np.full(3, 0.5), np.full(3, 0.5))
        t_far = clip_rays(np.zeros(3), np.array([1.0, 0.0, 0.0]), box)
        assert t_far.shape == (1,)
        assert t_far[0] == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_closed_form(self):
        # Oracle: from a point at offset p along the main diagonal of the unit
        # cube, the exit distance along the unit diagonal is sqrt(3)*(1-p).
        box = Aabb(np.zeros(3), np.ones(3))
        d = np.full(3, 1.0 / np.sqrt(3.0))
        start = np.full(3, 0.25)
        t_far = clip_rays(start, d, box)[0]
        assert t_far == pytest.approx(np.sqrt(3.0) * 0.75, rel=1e-12)

    def test_zero_component_no_nan(self):
        box = centered_box()
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])
        t_far = clip_rays(np.array([0.2, -0.3, 0.1]), dirs, box)
        assert np.all(np.isfinite(t_far)) and np.all(t_far > 0)


class TestSampleRay:
    def test_uniform_positions(self):
        geo = demo_geometry()
        pos, spc, offsets = sample_rays(geo, np.array([1.0, 0.0, 0.0]), 0.25)
        assert list(offsets) == [0, 4]
        np.testing.assert_allclose(pos[:, 0], [0.125, 0.375, 0.625, 0.875], atol=1e-12)
        np.testing.assert_allclose(pos[:, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(spc[:-1], 0.25)
        assert spc[-1] == pytest.approx(1.0 - 0.875, abs=1e-12)

    def test_floor_rule_boundaries(self):
        geo = demo_geometry()
        pos, _, _ = sample_rays(geo, np.array([1.0, 0.0, 0.0]), 1.5)  # t_far = 1
        assert len(pos) == 0
        pos, _, _ = sample_rays(geo, np.array([1.0, 0.0, 0.0]), 0.6)
        assert len(pos) == 1

    def test_positions_inside_box(self):
        geo = demo_geometry()
        rng = np.random.default_rng(5)
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pos, spc, offsets = sample_rays(geo, dirs, 0.03)
        assert np.all(np.diff(offsets) > 0)
        assert np.all(geo.bbox.contains(pos))
        assert np.all(spc > 0)

    def test_batch_matches_per_ray_formula(self):
        # Reference: each ray clipped and sampled on its own, as the
        # sample_rays docstring states; one ray leaves the box before its
        # first sample and two are axis-parallel.
        geo = SceneGeometry(rx_position=np.array([0.9, -0.2, 0.1]),
                            bbox=centered_box(), spectrum_res=(4, 2))
        rng = np.random.default_rng(6)
        dirs = rng.normal(size=(6, 3))
        dirs[:2] = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        step = 0.25
        pos, spc, offsets = sample_rays(geo, dirs, step)
        assert offsets[1] == 0  # t_far = 0.1 < step
        for b, d in enumerate(dirs):
            exits = [max((geo.bbox.min_corner[a] - geo.rx_position[a]) / d[a],
                         (geo.bbox.max_corner[a] - geo.rx_position[a]) / d[a])
                     for a in range(3) if d[a] != 0.0]
            t_far = max(min(exits), 0.0)
            k = int(np.floor(t_far / step))
            r = (np.arange(k) + 0.5) * step
            want_spc = np.full(k, step)
            if k:
                want_spc[-1] = t_far - r[-1]
            sel = slice(offsets[b], offsets[b + 1])
            assert offsets[b + 1] - offsets[b] == k
            np.testing.assert_array_equal(pos[sel], geo.rx_position + r[:, None] * d)
            np.testing.assert_array_equal(spc[sel], want_spc)
            one_pos, one_spc, _ = sample_rays(geo, d, step)
            np.testing.assert_array_equal(one_pos, pos[sel])
            np.testing.assert_array_equal(one_spc, spc[sel])

    def test_default_step_is_half_voxel(self):
        box = Aabb(np.zeros(3), np.array([4.0, 2.0, 1.0]))
        # edges: 4/3, 2/3, 1/3 -> min 1/3 -> half = 1/6
        assert default_step(box, (4, 4, 4)) == pytest.approx(1.0 / 6.0, rel=1e-12)


class TestComposite:
    def test_empty_ray(self):
        r, t_k, w = composite(np.empty(0), np.empty(0), np.empty(0))
        assert r == 0.0 and t_k == 1.0 and len(w) == 0
        assert type(r) is float and type(t_k) is float and w.dtype == np.float64

    def test_single_sample_closed_form(self):
        r, t_k, _ = composite(np.array([np.log(2.0)]), np.array([1.0]), np.array([1.0]))
        assert r == pytest.approx(0.5, abs=1e-12)
        assert t_k == pytest.approx(0.5, abs=1e-12)

    def test_two_sample_closed_form(self):
        sigma = np.array([np.log(2.0), np.log(2.0)])
        r, t_k, w = composite(sigma, np.array([1.0, 0.5]), np.array([1.0, 1.0]))
        assert r == pytest.approx(0.625, abs=1e-12)
        assert t_k == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(w, [0.5, 0.25], atol=1e-12)

    def test_conservation_and_monotone_transmittance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = rng.integers(1, 200)
            sigma = rng.uniform(0, 5, k)
            sig = rng.uniform(0, 1, k)
            spc = rng.uniform(0.01, 0.2, k)
            r, t_k, w = composite(sigma, sig, spc)
            assert abs(w.sum() + t_k - 1.0) < 1e-6
            alpha = 1 - np.exp(-sigma * spc)
            trans = np.concatenate([[1.0], np.cumprod(1 - alpha)[:-1]])
            assert np.all(np.diff(trans) <= 1e-15)
            assert np.all((alpha >= 0) & (alpha < 1))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            composite(np.array([-0.1]), np.array([0.5]), np.array([0.1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            composite(np.array([0.1, 0.2]), np.array([0.5]), np.array([0.1, 0.1]))


class TestSegmentPrefix:
    @pytest.mark.parametrize("counts", [[0, 3, 2], [2, 0, 3], [3, 2, 0], [0, 0, 0],
                                        [0, 4, 0, 0, 1, 0]],
                             ids=["empty_first", "empty_middle", "empty_last",
                                  "no_values", "several_empty"])
    def test_matches_per_ray_cumsum(self, counts):
        # multiples of 1/8: every partial sum is exact, so both forms agree
        # bit for bit whatever order they add in
        values = np.random.default_rng(8).integers(0, 17, sum(counts)) / 8.0
        ray_of = np.repeat(np.arange(len(counts)), counts)
        want = np.concatenate([np.empty(0)] + [
            np.cumsum(values[ray_of == b]) for b in range(len(counts))])
        got = segment_prefix(values, ray_of, len(counts))
        assert got.dtype == np.float64 and np.array_equal(got, want)


class TestCompositeBackward:
    def test_matches_finite_differences(self):
        # Oracle: central differences of sum_b (a_b R_b + c_b T_K,b) through
        # segment_weights and accumulate, over rays of 5, 0 and 7 samples.
        rng = np.random.default_rng(7)
        k = 12
        sigma = rng.uniform(0.01, 3, k)
        sig = rng.uniform(0.05, 0.95, k)
        spc = rng.uniform(0.02, 0.3, k)
        ray_of = np.repeat(np.arange(3), [5, 0, 7])
        a, c = np.array([0.7, 0.2, -0.4]), np.array([-1.3, 0.5, 0.9])

        def loss(sg, sl):
            t_k, _, w = segment_weights(sg * spc, ray_of, 3)
            return a @ accumulate(w, sl, ray_of, 3) + c @ t_k

        t_k, excl, w = segment_weights(sigma * spc, ray_of, 3)
        d_optical, d_signal = composite_segments_backward(sigma * spc, sig, ray_of,
                                                          excl, w, t_k, a, c)
        d_sigma = spc * d_optical
        h = 1e-6
        for i in range(k):
            for arr, grad in ((sigma, d_sigma), (sig, d_signal)):
                orig = arr[i]
                arr[i] = orig + h
                hi = loss(sigma, sig)
                arr[i] = orig - h
                lo = loss(sigma, sig)
                arr[i] = orig
                fd = (hi - lo) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-6 * max(abs(fd), 1.0)

    def test_empty_ray(self):
        empty = np.empty(0)
        d_optical, d_signal = composite_segments_backward(
            empty, empty, np.empty(0, dtype=np.int64), empty, empty, np.ones(1),
            np.ones(1), np.ones(1))
        assert len(d_optical) == 0 and len(d_signal) == 0


class TestForwardSegments:
    @pytest.mark.parametrize("tau", [0.0, 0.15])
    def test_per_ray_transmitters_match_one_transmitter_renders(self, tau):
        # With one transmitter per ray (a cell repeated under two of them),
        # each ray equals, bit for bit, the same cell batch rendered under
        # that ray's transmitter alone. The full-table render agrees up to
        # the summation order of the segmented prefix sums.
        m = smooth_model(seed=21)  # density 0.05-0.31: tau = 0.15 skips some
        geo = SceneGeometry(rx_position=np.array([0.1, -0.2, 0.0]),
                            bbox=centered_box(), spectrum_res=(8, 4))
        table = SampleTable(geo, m)
        rng = np.random.default_rng(22)
        txs = rng.uniform(-1.5, 1.5, (7, 3))
        cells = np.array([3, 31, 0, 17, 17, 9, 25])
        r, t_k, trace = forward_segments(m, table, txs, cells, tau)
        assert trace.kept.any()
        one_r, one_t = np.empty(7), np.empty(7)
        for i, tx in enumerate(txs):
            r_i, t_i, _ = forward_segments(m, table, tx, cells, tau)
            one_r[i], one_t[i] = r_i[i], t_i[i]
            full_r, full_t, _ = forward_segments(m, table, tx, np.arange(geo.n_directions),
                                                 tau)
            assert r[i] == pytest.approx(full_r[cells[i]], rel=1e-12, abs=1e-15)
            assert t_k[i] == pytest.approx(full_t[cells[i]], rel=1e-12)
        assert np.array_equal(r, one_r) and np.array_equal(t_k, one_t)
        assert r[3] != r[4]  # the repeated cell sees its own transmitter

    def test_table_step_defaults_to_half_voxel(self):
        m = smooth_model()
        geo = demo_geometry()
        step = default_step(geo.bbox, m.density_grid.dims)
        assert np.array_equal(SampleTable(geo, m).positions,
                              SampleTable(geo, m, step).positions)


class TestRenderRay:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_transmitter_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            trace_ray(smooth_model(), demo_geometry(), np.array([0.0, bad, 0.0]),
                      np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("tx, direction, match", [
        (np.zeros((2, 3)), [0.0, 0.0, 1.0], r"tx must have shape \(3,\), got \(2, 3\)"),
        (np.zeros((1, 3)), [0.0, 0.0, 1.0], r"tx must have shape \(3,\), got \(1, 3\)"),
        (np.zeros(4), [0.0, 0.0, 1.0], r"tx must have shape \(3,\), got \(4,\)"),
        (np.zeros(3), [0.0, 0.0, 0.0], "unit vectors"),
        (np.zeros(3), [0.0, 0.0, 2.0], "unit vectors"),
        (np.zeros(3), [0.0, 0.0, 1.0 + 2e-6], "unit vectors"),
        (np.zeros(3), [[0.0, 0.0, 1.0]] * 2, "one 3-vector"),
        (np.zeros(3), [0.0, 1.0], "one 3-vector"),
        (np.zeros(3), [np.nan, 0.0, 1.0], "unit vectors"),
        (np.zeros(3), [0.0, np.inf, 1.0], "unit vectors"),
    ])
    def test_bad_transmitter_or_direction_rejected(self, tx, direction, match):
        with pytest.raises(ValueError, match=match):
            trace_ray(smooth_model(), demo_geometry(), tx, np.array(direction))

    def test_fully_skipped_ray_is_the_zero_row_pass(self):
        m = smooth_model()
        m.density_grid.values[:] = -1000.0  # softplus underflows to zero
        geo = demo_geometry()
        up = np.array([0.0, 0.0, 1.0])
        t = trace_ray(m, geo, np.zeros(3), up, tau=1e-4)
        assert t.n_kept == 0 and t.n_samples > 0
        assert t.accumulated == 0.0 and t.final_transmittance == 1.0
        # the forward and its adjoint run over zero kept rows, and the
        # adjoint adds nothing to any gradient
        table = SampleTable(geo, m, directions=up)
        r, t_k, trace = forward_segments(m, table, np.zeros(3), np.arange(1), 1e-4,
                                         want_cache=True)
        assert r.dtype == np.float64 and r[0] == 0.0 and t_k[0] == 1.0
        assert trace.static.feat.shape == (0, m.feature_dim)
        assert trace.signal_kept.shape == (0,)
        grads = GradientSet.zeros_like(m)
        backward_segments(m, trace, np.ones(1), np.ones(1), grads)
        for name, g in grads.buffers.items():
            assert not g.any(), name

    def test_skip_accounting(self):
        m = smooth_model()
        t = trace_ray(m, demo_geometry(), np.zeros(3), np.array([0.0, 0.0, 1.0]),
                      tau=0.3)
        assert t.n_kept + int((~t.kept).sum()) == t.n_samples

    def test_tau_zero_matches_manual_no_skip_composite(self):
        m = smooth_model(seed=9)
        geo = demo_geometry()
        d = direction_from_angles(3, 1, geo.spectrum_res)
        t = trace_ray(m, geo, np.array([0.3, -0.2, 0.1]), d, tau=0.0)
        assert t.kept.all()
        r_direct, tk_direct, _ = composite(t.sigma, t.signal, t.spacings)
        assert t.accumulated == r_direct
        assert t.final_transmittance == tk_direct

    def test_skip_threshold_error_bound(self):
        # tau-skip changes each ray by at most K * (1 - exp(-tau * max step)).
        m = smooth_model(seed=10)
        m.density_grid.values[:] -= 1.0  # push some regions below threshold
        geo = demo_geometry()
        tau = 1e-4
        step = default_step(geo.bbox, m.density_grid.dims)
        for (mm, nn) in [(0, 0), (5, 2), (7, 3)]:
            d = direction_from_angles(mm, nn, geo.spectrum_res)
            t0 = trace_ray(m, geo, np.zeros(3), d, tau=0.0)
            t1 = trace_ray(m, geo, np.zeros(3), d, tau=tau)
            k = t0.n_samples
            bound = k * -np.expm1(-tau * t0.spacings.max()) if k else 0.0
            assert abs(t0.accumulated - t1.accumulated) <= bound + 1e-15
            assert abs(t0.accumulated - t1.accumulated) < 1e-3


class TestRenderSpectrum:
    def test_zero_density_model_renders_zero(self):
        m = smooth_model()
        m.density_grid.values[:] = -1000.0
        spec = render_spectrum(m, demo_geometry(), np.zeros(3))
        assert spec.shape == (8, 4)
        assert np.all(spec == 0.0)

    @pytest.mark.parametrize("tau", [0.0, 1e-4])
    def test_spectrum_is_float_when_every_sample_is_skipped(self, tau):
        # at tau 1e-4 the pass keeps no sample, so compositing sums no weights
        m = smooth_model()
        m.density_grid.values[:] = -1000.0
        spec = render_spectrum(m, demo_geometry(), np.zeros(3), tau=tau)
        assert spec.dtype == np.float64

    def test_deterministic_renders(self):
        m = smooth_model(seed=12)
        geo = demo_geometry()
        tx = np.array([0.4, 0.1, -0.2])
        a = render_spectrum(m, geo, tx, tau=1e-4)
        b = render_spectrum(m, geo, tx, tau=1e-4)
        assert np.array_equal(a, b)

    def test_matches_per_ray_path(self):
        m = smooth_model(seed=13)
        geo = demo_geometry(res=(4, 2))
        tx = np.array([0.2, 0.2, 0.2])
        spec = render_spectrum(m, geo, tx, tau=0.01)
        step = default_step(geo.bbox, m.density_grid.dims)
        for m_i in range(4):
            for n_i in range(2):
                d = direction_from_angles(m_i, n_i, geo.spectrum_res)
                r, _ = reference_ray(m, geo, tx, d, step, tau=0.01)
                assert spec[m_i, n_i] == pytest.approx(r, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2,)])
    def test_transmitter_of_wrong_shape_rejected_naming_its_shape(self, shape):
        for render in (render_spectrum, render_spectrum_traced):
            with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
                render(smooth_model(), demo_geometry(), np.zeros(shape))

    def test_transmitter_outside_box_allowed(self):
        m = smooth_model(seed=14)
        spec = render_spectrum(m, demo_geometry(), np.array([5.0, 5.0, 5.0]))
        assert np.all(np.isfinite(spec))

    def test_conservation_across_full_spectrum(self):
        m = smooth_model(seed=15)
        geo = demo_geometry(res=(6, 3))
        for m_i in range(6):
            for n_i in range(3):
                d = direction_from_angles(m_i, n_i, geo.spectrum_res)
                t = trace_ray(m, geo, np.zeros(3), d, tau=1e-4)
                assert abs(t.weights.sum() + t.final_transmittance - 1.0) < 1e-6

    def test_density_blob_overhead_peaks_at_top_elevation(self):
        # With zero radiance nets (S = 0.5 everywhere), the spectrum is a pure
        # function of density mass per direction; a single overhead blob must
        # put the argmax in the highest elevation row.
        m = init_field_model(centered_box(), (10, 10, 10), 4, 16, seed=20)
        for w in m.deform_net.weights + m.radiance_net.weights:
            w[:] = 0.0
        pos = m.density_grid.node_positions()
        d2 = np.sum((pos - np.array([0.0, 0.0, 0.6])) ** 2, axis=1)
        sigma = 8.0 * np.exp(-d2 / (2 * 0.15 ** 2))
        m.density_grid.values[:, 0] = np.log(np.expm1(np.maximum(sigma, 1e-9))) \
            - m.density_bias
        geo = demo_geometry(res=(8, 4))
        spec = render_spectrum(m, geo, np.zeros(3))
        m_idx, n_idx = np.unravel_index(np.argmax(spec), spec.shape)
        assert n_idx == 3

    def test_step_halving_converges(self):
        # Error against a 16x finer reference must shrink by >= 1.5x when the
        # step halves (first-order quadrature on a smooth field).
        m = smooth_model(seed=16)
        geo = demo_geometry(res=(4, 2))
        tx = np.zeros(3)
        base = default_step(geo.bbox, m.density_grid.dims)

        def render(step):
            table = SampleTable(geo, m, step)
            return forward_segments(m, table, tx, np.arange(geo.n_directions), 0.0)[0]

        ref = render(base / 16)
        err1 = np.abs(render(base) - ref).max()
        err2 = np.abs(render(base / 2) - ref).max()
        assert err1 >= 1.5 * err2


class TestRenderSpectra:
    @pytest.mark.parametrize("tau", [0.0, 1e-4])
    def test_each_spectrum_equals_its_single_render(self, tau):
        m = smooth_model(seed=23)
        m.density_grid.values[:] -= 7.0  # tau 1e-4 skips a third of the samples
        geo = demo_geometry()
        _, stats = render_spectrum_traced(m, geo, np.zeros(3), tau=1e-4)
        assert 0 < stats.n_kept < stats.n_samples
        txs = np.random.default_rng(24).uniform(-1.5, 1.5, (4, 3))
        spectra = render_spectra(m, geo, txs, tau=tau)
        assert spectra.shape == (4, 8, 4) and spectra.dtype == np.float64
        for j, tx in enumerate(txs):
            assert np.array_equal(spectra[j], render_spectrum(m, geo, tx, tau=tau))
        assert not np.array_equal(spectra[0], spectra[1])

    def test_matches_per_ray_reference(self):
        m = smooth_model(seed=25)
        geo = demo_geometry(res=(4, 2))
        txs = np.array([[0.2, 0.2, 0.2], [-0.7, 0.4, 1.3]])
        spectra = render_spectra(m, geo, txs, tau=0.01)
        step = default_step(geo.bbox, m.density_grid.dims)
        for j, tx in enumerate(txs):
            for m_i in range(4):
                for n_i in range(2):
                    d = direction_from_angles(m_i, n_i, geo.spectrum_res)
                    r, _ = reference_ray(m, geo, tx, d, step, tau=0.01)
                    assert spectra[j, m_i, n_i] == pytest.approx(r, rel=1e-12,
                                                                  abs=1e-15)

    def test_pass_keeping_no_sample_renders_float_zeros(self):
        m = smooth_model()
        m.density_grid.values[:] = -1000.0
        spectra = render_spectra(m, demo_geometry(), np.zeros((3, 3)), tau=1e-4)
        assert spectra.shape == (3, 8, 4) and spectra.dtype == np.float64
        assert np.all(spectra == 0.0)

    @pytest.mark.parametrize("tau,bad", [(np.nan, None), (0.0, np.nan), (0.0, np.inf)])
    def test_nan_tau_or_non_finite_transmitter_rejected(self, tau, bad):
        txs = np.zeros((2, 3))
        if bad is not None:
            txs[1, 2] = bad
        with pytest.raises(ValueError):
            render_spectra(smooth_model(), demo_geometry(), txs, tau=tau)


def corner_geometry(res=(8, 4)):
    # rays leaving the box at once have no samples
    return SceneGeometry(rx_position=-np.ones(3), bbox=centered_box(), spectrum_res=res)


def face_geometry(res=(8, 4)):
    return SceneGeometry(rx_position=np.array([0.3, -1.0, -0.2]), bbox=centered_box(),
                         spectrum_res=res)


class TestRenderBlocks:
    """Spectra rendered in blocks of whole rays of at most _RENDER_BLOCK
    samples; today's geometries fit one block unless the budget shrinks."""

    BUDGETS = [1, 7, 50]
    GEOMETRIES = [demo_geometry, corner_geometry, face_geometry]

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("make_geometry", GEOMETRIES)
    def test_blocks_cover_every_direction_once_within_budget(self, monkeypatch,
                                                             budget, make_geometry):
        monkeypatch.setattr(renderer, "_RENDER_BLOCK", budget)
        geo = make_geometry()
        dirs = all_directions(geo.spectrum_res)
        step = default_step(geo.bbox, (11, 11, 11))
        counts = np.diff(sample_rays(geo, dirs, step)[2])
        blocks = list(renderer._ray_blocks(geo, dirs, step))
        covered = np.concatenate([np.arange(len(dirs))[b] for b in blocks])
        assert np.array_equal(covered, np.arange(len(dirs)))
        for b in blocks:
            # a ray longer than the budget is a block of its own
            assert counts[b].sum() <= budget or b.stop - b.start == 1
        assert (counts == 0).any() == (make_geometry is not demo_geometry)
        assert (counts > budget).any() == (budget < 50)  # some ray outgrows it
        assert len(blocks) > 1

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("make_geometry", GEOMETRIES)
    @pytest.mark.parametrize("tau", [0.0, 1e-4])
    def test_blocked_render_matches_one_block(self, monkeypatch, budget,
                                              make_geometry, tau):
        m = smooth_model(seed=31)
        m.density_grid.values[:] -= 7.0  # tau 1e-4 skips some of the samples
        geo = make_geometry()
        txs = np.random.default_rng(32).uniform(-1.5, 1.5, (3, 3))
        whole, whole_stats = render_spectra(m, geo, txs, tau=tau), \
            render_spectrum_traced(m, geo, txs[0], tau=tau)[1]
        monkeypatch.setattr(renderer, "_RENDER_BLOCK", budget)
        spectra = render_spectra(m, geo, txs, tau=tau)
        for j, tx in enumerate(txs):
            assert np.array_equal(spectra[j], render_spectrum(m, geo, tx, tau=tau))
        np.testing.assert_allclose(spectra, whole, rtol=1e-12, atol=1e-15)
        _, stats = render_spectrum_traced(m, geo, txs[0], tau=tau)
        assert np.array_equal(stats.final_transmittance,
                              whole_stats.final_transmittance)
        assert (stats.n_samples, stats.n_kept) == (whole_stats.n_samples,
                                                   whole_stats.n_kept)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("make_geometry", GEOMETRIES)
    def test_blocked_render_matches_per_ray_reference(self, monkeypatch, budget,
                                                      make_geometry):
        monkeypatch.setattr(renderer, "_RENDER_BLOCK", budget)
        m = smooth_model(seed=33)
        geo = make_geometry(res=(4, 2))
        tx = np.array([0.2, 0.2, 0.2])
        spec = render_spectrum(m, geo, tx, tau=0.01)
        step = default_step(geo.bbox, m.density_grid.dims)
        for m_i in range(4):
            for n_i in range(2):
                d = direction_from_angles(m_i, n_i, geo.spectrum_res)
                r, _ = reference_ray(m, geo, tx, d, step, tau=0.01)
                assert spec[m_i, n_i] == pytest.approx(r, rel=1e-12, abs=1e-15)

    def test_render_memory_is_bounded_by_the_block(self):
        # 572,520 samples: rendered in one pass, their table, encodings and
        # activations peak at ~1.2 GB
        script = """
import resource
import numpy as np
from radiofield import cli
from radiofield.field_model import init_field_model
from radiofield.renderer import SceneGeometry, render_spectrum_traced
_, demo = cli.builtin_scene("demo")
geo = SceneGeometry(demo.rx_position, demo.bbox, (360, 90))
model = init_field_model(geo.bbox, (15, 15, 15), 8, 64, seed=0)
_, stats = render_spectrum_traced(model, geo, np.array([1.0, 2.0, 1.0]))
print(stats.n_samples, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        n_samples, peak_kb = map(int, proc.stdout.split())
        assert n_samples == 572_520
        assert peak_kb / 1024 < 200


class TestAggregateRssi:
    def test_uniform_ten_cells(self):
        spec = np.ones((5, 2))
        assert aggregate_rssi(spec, 0.0) == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("calibration", [0.0, np.float64(-2.5)])
    def test_returns_python_float(self, calibration):
        assert type(aggregate_rssi(np.ones((2, 2)), calibration)) is float

    def test_doubling_adds_three_db(self):
        rng = np.random.default_rng(17)
        spec = rng.uniform(0.1, 1.0, size=(6, 4))
        for c in (0.0, -7.5, 12.0):
            base = aggregate_rssi(spec, c)
            double = aggregate_rssi(2 * spec, c)
            assert double - base == pytest.approx(10 * np.log10(2), abs=1e-9)

    def test_calibration_additive(self):
        spec = np.full((3, 3), 0.2)
        assert aggregate_rssi(spec, 5.0) - aggregate_rssi(spec, 0.0) == pytest.approx(5.0)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError):
            aggregate_rssi(np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_negative_or_non_finite_spectrum_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            aggregate_rssi(np.array([[bad, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_calibration_rejected(self, bad):
        with pytest.raises(ValueError, match="calibration_db must be finite"):
            aggregate_rssi(np.ones((2, 2)), bad)


class TestSceneGeometry:
    def test_rx_outside_box_rejected(self):
        with pytest.raises(ValueError):
            SceneGeometry(rx_position=np.array([2.0, 0.0, 0.0]),
                          bbox=centered_box(), spectrum_res=(4, 2))

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            SceneGeometry(rx_position=np.zeros(3), bbox=centered_box(),
                          spectrum_res=(0, 2))
