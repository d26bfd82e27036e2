"""Field model: encodings, activations, query outputs, exact backprop."""

import dataclasses

import numpy as np
import pytest

from radiofield.field_model import (
    FieldModel,
    GradientSet,
    Mlp,
    init_field_model,
    mlp_backward,
    mlp_forward,
    positional_encode,
    query_density,
    query_signal,
    sigmoid,
    signal_backward,
)
from radiofield.renderer import (
    SampleTable,
    SceneGeometry,
    backward_segments,
    forward_segments,
)
from radiofield.voxel_grid import Aabb


def unit_box():
    return Aabb(np.zeros(3), np.ones(3))


def tiny_model(seed=11, feature_dim=2, width=8, dims=(4, 4, 4)):
    return init_field_model(unit_box(), dims, feature_dim, width, seed=seed)


def ray_gradient(model, tx, cells, d_r, d_t):
    """Parameter gradients of L = d_r . R + d_t . T_K over rays `cells` of a
    small spectrum, from the ray engine's adjoint, plus loss() for differencing
    and the forward trace."""
    geo = SceneGeometry(rx_position=np.array([0.45, 0.55, 0.2]), bbox=unit_box(),
                        spectrum_res=(4, 2))
    table = SampleTable(geo, model)

    def loss():
        r, t_k, _ = forward_segments(model, table, tx, cells, tau=0.0)
        return float(d_r @ r + d_t @ t_k)

    _, _, trace = forward_segments(model, table, tx, cells, tau=0.0,
                                   want_cache=True)
    grads = GradientSet.zeros_like(model)
    backward_segments(model, trace, d_r, d_t, grads)
    return grads, loss, trace


class TestPositionalEncoding:
    def test_zero_input(self):
        out = positional_encode(np.array([0.0]), 2)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0, 1.0], atol=1e-15)

    def test_half_closed_form(self):
        # sin/cos at pi/2 and pi
        out = positional_encode(np.array([0.5]), 2)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, -1.0], atol=1e-12)

    def test_integer_input_hits_multiples_of_pi(self):
        for levels in (1, 3, 5):
            out = positional_encode(np.array([1.0]), levels)
            sin_terms = out[0::2]
            cos_terms = out[1::2]
            np.testing.assert_allclose(sin_terms, 0.0, atol=1e-9)
            np.testing.assert_allclose(np.abs(cos_terms), 1.0, atol=1e-12)

    def test_width_and_batch_shape(self):
        out = positional_encode(np.zeros((7, 3)), 5)
        assert out.shape == (7, 30)
        assert positional_encode(np.zeros((0, 3)), 4).shape == (0, 24)

    def test_component_major_layout(self):
        # First 2L entries belong to the first component.
        out = positional_encode(np.array([0.5, 0.0]), 2)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0],
                                   atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(0, 3), (3,), (257, 3)])
    def test_equals_stacked_sin_cos_bitwise(self, dtype, shape):
        # sin and cos are written into strided slots of one buffer; the values
        # must be those of the contiguous calls, stacked
        p = np.random.default_rng(4).uniform(-1.5, 1.5, size=shape).astype(dtype)
        levels = 5
        arr = np.atleast_2d(p)
        ang = arr[:, :, None] * (np.pi * (2.0 ** np.arange(levels))).astype(dtype)
        want = np.stack([np.sin(ang), np.cos(ang)], axis=-1).reshape(
            arr.shape[0], 2 * levels * arr.shape[1])
        want = want[0] if p.ndim == 1 else want
        got = positional_encode(p, levels)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


class TestModelEncodings:
    """Each model encoding equals its formula bit for bit, inside the box and
    outside it."""

    @staticmethod
    def model_and_points():
        box = Aabb(np.array([-1.0, 0.5, 2.0]), np.array([3.0, 1.5, 5.0]))
        m = init_field_model(box, (3, 3, 3), 2, 4, seed=1, enc_pos_levels=3,
                             enc_dir_levels=2)
        rng = np.random.default_rng(4)
        # 50 points inside the box, then 50 mostly outside it
        lo, hi = box.min_corner, box.max_corner
        p = np.concatenate([rng.uniform(lo, hi, size=(50, 3)),
                            rng.uniform(lo - 2.0, hi + 2.0, size=(50, 3))])
        return m, p

    def test_encode_positions_is_box_map_then_encoding(self):
        m, p = self.model_and_points()
        box = m.bbox
        want = positional_encode(2.0 * (p - box.min_corner) / box.extent - 1.0,
                                 m.enc_pos_levels)
        assert np.array_equal(m.encode_positions(p), want)
        assert np.array_equal(m.encode_positions(p[7]), want[7])
        assert m.encode_positions(p[:0]).shape == (0, want.shape[1])

    def test_encode_directions_is_the_encoding(self):
        m, p = self.model_and_points()
        d = p / np.linalg.norm(p, axis=1, keepdims=True)
        want = positional_encode(-d, m.enc_dir_levels)
        assert np.array_equal(m.encode_directions(-d), want)
        assert np.array_equal(m.encode_directions(-d[3]), want[3])


def float32_nets(model):
    """model with its nets cast to float32, as train() runs them."""
    model.deform_net = model.deform_net.astype(np.float32)
    model.radiance_net = model.radiance_net.astype(np.float32)
    return model


class TestNetDtype:
    """The nets compute in their parameters' dtype; the encodings they read
    follow it, and nothing upcasts a float32 pass to float64."""

    @pytest.mark.parametrize("dtype, want", [(np.float32, np.float32),
                                             (np.float64, np.float64),
                                             (np.int64, np.float64)])
    def test_sigmoid_and_encoding_keep_floating_dtype(self, dtype, want):
        z = np.array([[-2, 0, 3], [1, -1, 2]], dtype=dtype)
        assert sigmoid(z).dtype == want
        assert positional_encode(z, 3).dtype == want
        assert positional_encode(z[0], 3).dtype == want
        np.testing.assert_allclose(positional_encode(z, 3),
                                   positional_encode(z.astype(np.float64), 3),
                                   atol=1e-5)

    @pytest.mark.parametrize("nets, dtype, want", [
        ("float64", np.float64, np.float64), ("float64", np.int64, np.float64),
        ("float32", np.float64, np.float32), ("float32", np.float32, np.float32),
        ("float32", np.int64, np.float32)])
    def test_model_encodings_follow_the_nets(self, nets, dtype, want):
        m = tiny_model()
        if nets == "float32":
            m = float32_nets(m)
        p = np.array([[0, 1, 0], [1, 0, 0]], dtype=dtype)
        assert m.net_dtype == np.dtype(nets)
        assert m.encode_positions(p).dtype == want
        assert m.encode_positions(p[0]).dtype == want
        assert m.encode_directions(p).dtype == want

    def test_float32_pass_matches_float64_on_the_same_weights(self):
        # The finite-difference checks cover the float64 pass only; this
        # holds the float32 forward and adjoint to it, on nets whose float32
        # weights are exact in float64.
        rng = np.random.default_rng(8)
        m32 = float32_nets(tiny_model(seed=9, feature_dim=4, width=16, dims=(5, 5, 5)))
        m32.density_grid.values[:] = rng.normal(size=m32.density_grid.values.shape)
        m32.feature_grid.values[:] = rng.normal(size=m32.feature_grid.values.shape)
        m64 = dataclasses.replace(m32, deform_net=m32.deform_net.astype(np.float64),
                                  radiance_net=m32.radiance_net.astype(np.float64))
        args = (np.array([0.7, 0.3, 0.6]), np.array([0, 1, 4, 6, 7]),
                rng.normal(size=5), rng.normal(size=5))
        (g32, loss32, t32), (g64, loss64, t64) = (ray_gradient(m, *args)
                                                  for m in (m32, m64))
        assert t32.signal_kept.dtype == np.float32
        assert t64.signal_kept.dtype == np.float64
        np.testing.assert_allclose(t32.signal_kept, t64.signal_kept, rtol=1e-5)
        assert loss32() == pytest.approx(loss64(), rel=1e-5)
        # a float64 upstream, as the compositing adjoint gives, does not take
        # the nets' adjoint to float64
        d_feat = signal_backward(m32, t32.sig_cache, np.ones(len(t32.signal_kept)),
                                 GradientSet.zeros_like(m32))
        assert d_feat.dtype == np.float32
        for name, want in g64.buffers.items():
            got = g32[name]
            assert got.dtype == m32.parameters()[name].dtype, name
            np.testing.assert_allclose(got, want, rtol=1e-4,
                                       atol=1e-4 * np.abs(want).max(), err_msg=name)


class TestQueryDensity:
    def test_very_negative_raw_is_transparent(self):
        m = tiny_model()
        m.density_grid.values[:] = -30.0
        m.density_bias = 0.0
        assert query_density(m, np.full(3, 0.5)) < 1e-13

    def test_softplus_closed_forms(self):
        m = tiny_model()
        m.density_bias = 0.0
        m.density_grid.values[:] = 0.0
        assert abs(query_density(m, np.full(3, 0.5)) - np.log(2.0)) < 1e-12
        m.density_grid.values[:] = 2.0
        m.density_bias = 3.0
        want = np.log1p(np.exp(5.0))  # oracle: direct closed form, ~5.0067
        assert abs(query_density(m, np.full(3, 0.5)) - want) < 1e-12
        assert abs(want - 5.0067) < 1e-4

    def test_nonnegative_finite_for_random_raws(self):
        rng = np.random.default_rng(12)
        m = tiny_model()
        m.density_grid.values[:] = rng.normal(scale=10, size=m.density_grid.values.shape)
        sig = query_density(m, rng.uniform(0.01, 0.99, size=(200, 3)))
        assert np.all(np.isfinite(sig)) and np.all(sig >= 0)


class TestQuerySignal:
    def test_zero_networks_emit_half(self):
        m = tiny_model()
        for w in m.deform_net.weights + m.radiance_net.weights:
            w[:] = 0.0
        s = query_signal(m, np.full(3, 0.5), np.full(3, 0.2), np.array([0.0, 0.0, 1.0]))
        assert s == pytest.approx(0.5, abs=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(13)
        m = tiny_model(seed=99)
        m.feature_grid.values[:] = rng.normal(size=m.feature_grid.values.shape)
        xs = rng.uniform(0.01, 0.99, size=(100, 3))
        dirs = rng.normal(size=(100, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        s = query_signal(m, xs, np.full(3, 0.3), dirs)
        assert np.all(s > 0) and np.all(s < 1)

    def test_radiance_weight_gradient_matches_fd(self):
        # Oracle: central finite difference on one radiance weight, h = 1e-4,
        # of one ray's accumulated signal.
        m = tiny_model(seed=5)
        grads, loss, _ = ray_gradient(m, np.array([0.9, 0.1, 0.5]), np.array([5]),
                                      np.ones(1), np.zeros(1))
        h = 1e-4
        w = m.radiance_net.weights[0]
        for (i, j) in [(0, 0), (3, 5), (7, 1)]:
            orig = w[i, j]
            w[i, j] = orig + h
            hi = loss()
            w[i, j] = orig - h
            lo = loss()
            w[i, j] = orig
            fd = (hi - lo) / (2 * h)
            got = grads["radiance.w0"][i, j]
            assert abs(got - fd) <= 1e-4 * max(abs(fd), 1e-6)

    def test_deformation_path_is_live(self):
        # With nonzero seeded weights, changing tx alone changes the signal.
        m = tiny_model(seed=21)
        x = np.full(3, 0.5)
        d = np.array([0.0, 0.0, 1.0])
        s1 = query_signal(m, x, np.array([0.1, 0.2, 0.3]), d)
        s2 = query_signal(m, x, np.array([0.8, 0.7, 0.6]), d)
        assert s1 != s2

    def test_deform_disabled_ignores_tx(self):
        m = tiny_model(seed=21)
        m.deform_enabled = False
        x = np.full(3, 0.5)
        d = np.array([0.0, 0.0, 1.0])
        s1 = query_signal(m, x, np.array([0.1, 0.2, 0.3]), d)
        s2 = query_signal(m, x, np.array([0.8, 0.7, 0.6]), d)
        assert s1 == s2

    @pytest.mark.parametrize("singles", [("x",), ("tx",), ("direction",),
                                         ("x", "tx"), ("x", "direction")],
                             ids=["x", "tx", "direction", "x_tx", "x_direction"])
    def test_single_inputs_broadcast_against_batches(self, singles):
        # the batch size comes from all three inputs: those named are (3,),
        # the others (5, 3), and the result equals the call with the named
        # inputs tiled, bit for bit
        rng = np.random.default_rng(31)
        m = tiny_model(seed=21)
        dirs = rng.normal(size=(5, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        tiled = {"x": rng.uniform(0.1, 0.9, size=(5, 3)),
                 "tx": rng.uniform(0.0, 1.0, size=(5, 3)), "direction": dirs}
        args = dict(tiled)
        for name in singles:
            args[name] = tiled[name][0]
            tiled[name] = np.tile(args[name], (5, 1))
        got = query_signal(m, **args)
        assert got.shape == (5,)
        assert np.array_equal(got, query_signal(m, **tiled))

    def test_mismatched_batch_sizes_rejected(self):
        m = tiny_model(seed=21)
        d = np.tile([0.0, 0.0, 1.0], (4, 1))
        with pytest.raises(ValueError):
            query_signal(m, np.full((5, 3), 0.5), np.full(3, 0.2), d)
        with pytest.raises(ValueError):
            query_signal(m, np.full(3, 0.5), np.full((5, 3), 0.2), d)

    def test_empty_batch_gives_empty_output(self):
        m = tiny_model(seed=21)
        none = np.zeros((0, 3))
        assert query_density(m, none).shape == (0,)
        assert query_signal(m, none, np.full(3, 0.3), none).shape == (0,)

    def test_non_unit_direction_rejected(self):
        m = tiny_model()
        for direction in ([0.0, 0.0, 1.1], [np.nan, 0.0, 1.0]):
            with pytest.raises(ValueError, match="unit vectors"):
                query_signal(m, np.full(3, 0.5), np.zeros(3), np.array(direction))


class TestMlpBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_output_equals_matmul_form_bitwise(self, dtype):
        # the output layer's delta is one column; the reference takes it
        # through the layer with the k=1 matmul
        rng = np.random.default_rng(5)
        n, width = 301, 16
        net = Mlp(weights=[rng.normal(size=(width, 9)), rng.normal(size=(1, width))],
                  biases=[rng.normal(size=width), rng.normal(size=1)]).astype(dtype)
        x = rng.normal(size=(n, 9)).astype(dtype)
        inputs = (x[:, :4], x[:, 4:])
        _, hidden = mlp_forward(net, x @ net.weights[0].T + net.biases[0],
                                want_cache=True)
        assert 0 < np.count_nonzero(hidden[0]) < hidden[0].size
        d_out = rng.normal(size=(n, 1)).astype(dtype)
        grads = {f"t.{k}{i}": np.zeros_like(p) for i in range(2)
                 for k, p in (("w", net.weights[i]), ("b", net.biases[i]))}
        got = mlp_backward(net, hidden, d_out, grads, "t", inputs)

        a = hidden[0]
        want_delta = (d_out @ net.weights[1]) * (a > 0.0)
        want = {"t.w1": d_out.T @ a, "t.b1": d_out.sum(axis=0),
                "t.w0": np.concatenate([want_delta.T @ part for part in inputs], axis=1),
                "t.b0": want_delta.sum(axis=0)}
        for name, value in (("delta", want_delta), *want.items()):
            have = got if name == "delta" else grads[name]
            assert have.dtype == dtype, name
            assert np.array_equal(have.view(np.uint8), value.view(np.uint8)), name


class TestModelBackward:
    """Parameter gradients through the ray engine's adjoint."""

    def test_zero_upstream_zero_contribution(self):
        m = tiny_model()
        grads, _, _ = ray_gradient(m, np.zeros(3), np.array([0, 3, 6]), np.zeros(3),
                                   np.zeros(3))
        for name, g in grads.buffers.items():
            assert np.all(g == 0), name

    def test_all_parameter_gradients_match_fd(self):
        # Oracle: central finite differences of L = sum_b (a_b R_b + c_b T_K,b)
        # over three rays, for every parameter tensor of a tiny model.
        rng = np.random.default_rng(30)
        m = tiny_model(seed=31)
        m.feature_grid.values[:] = 0.1 * rng.normal(size=m.feature_grid.values.shape)
        m.density_grid.values[:] = 0.1 * rng.normal(size=m.density_grid.values.shape)
        grads, loss, _ = ray_gradient(m, np.array([0.7, 0.3, 0.6]), np.array([1, 4, 6]),
                                      np.array([1.0, -0.5, 0.8]),
                                      np.array([0.3, 0.6, -0.2]))
        h = 1e-4
        for name, p in m.parameters().items():
            flat = p.reshape(-1)
            # probe a deterministic subset of entries of each tensor
            probe = range(0, flat.size, max(1, flat.size // 17))
            for k in probe:
                orig = flat[k]
                flat[k] = orig + h
                hi = loss()
                flat[k] = orig - h
                lo = loss()
                flat[k] = orig
                fd = (hi - lo) / (2 * h)
                got = grads[name].reshape(-1)[k]
                assert abs(got - fd) <= 1e-4 * abs(fd) + 1e-6, (name, k, got, fd)

    def test_feature_gradient_limited_to_support(self):
        m = tiny_model(dims=(6, 6, 6))
        grads, _, trace = ray_gradient(m, np.zeros(3), np.array([2]), np.ones(1),
                                       np.zeros(1))
        support = np.unique(trace.kept_idx)
        outside = np.setdiff1d(np.arange(m.feature_grid.n_nodes), support)
        assert len(outside) and np.all(grads["feature_grid"][outside] == 0)
        assert np.any(grads["feature_grid"][support] != 0)


class TestDeterminismAndValidation:
    def test_same_seed_bit_identical(self):
        a = init_field_model(unit_box(), (4, 4, 4), 4, 16, seed=42)
        b = init_field_model(unit_box(), (4, 4, 4), 4, 16, seed=42)
        for (na, pa), (nb, pb) in zip(a.parameters().items(), b.parameters().items()):
            assert na == nb and np.array_equal(pa, pb)
        x = np.full(3, 0.5)
        d = np.array([0.0, 0.0, 1.0])
        assert query_signal(a, x, np.zeros(3), d) == query_signal(b, x, np.zeros(3), d)

    def test_mismatched_widths_rejected(self):
        m = tiny_model()
        bad = Mlp(weights=[np.zeros((8, 59)), np.zeros((2, 8))],
                  biases=[np.zeros(8), np.zeros(2)])
        with pytest.raises(ValueError):
            FieldModel(density_grid=m.density_grid, feature_grid=m.feature_grid,
                       deform_net=bad, radiance_net=m.radiance_net,
                       enc_pos_levels=m.enc_pos_levels,
                       enc_dir_levels=m.enc_dir_levels)
