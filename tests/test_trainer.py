"""Optimizer closed forms, schedules, progressive dims, end-to-end training."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fd_check import kink_aware_differences, pipeline_gradient
from radiofield import trainer
from radiofield.dataio import (
    Blob,
    SyntheticScene,
    generate_dataset,
    load_checkpoint,
    save_checkpoint,
)
from radiofield.field_model import GradientSet, StaticTerms, init_field_model
from radiofield.renderer import (
    SampleTable,
    SceneGeometry,
    SegmentTrace,
    all_directions,
    default_step,
    density_pass,
    direction_from_angles,
    render_spectra,
    sample_rays,
)
from radiofield.trainer import (
    AdamState,
    NumericalError,
    TrainConfig,
    _StageCache,
    _backward_batch,
    _forward_batch,
    adam_step,
    fit_rssi_calibration,
    lr_at,
    near_receiver_radius,
    progressive_dims,
    train,
)
from radiofield import voxel_grid
from radiofield.voxel_grid import Aabb
from grid_reference import reference_adam_step, reference_scatter_grid_gradient
from ray_reference import reference_ray


def small_dataset(tmp_path, n_tx=16, res=(12, 4), seed=3, tx_modulation=0.4,
                  rssi_noise_db=None):
    box = Aabb(np.zeros(3), np.array([2.0, 2.0, 2.0]))
    scene = SyntheticScene(
        bbox=box, rx_position=np.array([1.0, 1.0, 0.4]),
        blobs=[Blob([1.0, 1.0, 1.3], 0.3, 6.0, 0.8),
               Blob([0.5, 1.5, 0.9], 0.25, 4.0, 0.6)],
        tx_modulation=tx_modulation)
    geometry = SceneGeometry(rx_position=scene.rx_position, bbox=box,
                             spectrum_res=res)
    return generate_dataset(scene, geometry, n_tx=n_tx, seed=seed,
                            out_dir=tmp_path / "ds", fine_step=0.02,
                            rssi_noise_db=rssi_noise_db)


def smoke_config(**overrides):
    base = dict(final_dims=(16, 16, 16), feature_dim=4, mlp_width=16,
                stages=0, upsample_iters=(), total_iters=200, batch_rays=64,
                tau=0.0, seed=1, log_interval=10)
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"a": np.array([1.0, -2.0]), "b": np.ones((2, 2))}
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        state = AdamState.for_params(params)
        before = {k: v.copy() for k, v in params.items()}
        for _ in range(3):
            adam_step(params, grads, state, lr=0.5)
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_first_step_closed_form(self):
        # m_hat = v_hat = 1 after one unit-gradient step, so the update is
        # -lr / (1 + eps) ~ -lr.
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=0.1)
        assert params["w"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_deterministic_sequence(self):
        def run():
            rng = np.random.default_rng(0)
            params = {"w": np.zeros(5)}
            state = AdamState.for_params(params)
            for _ in range(100):
                adam_step(params, {"w": rng.normal(size=5)}, state, lr=0.01)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_nan_gradient_names_tensor(self):
        params = {"fine": np.zeros(2), "broken": np.zeros(2)}
        grads = {"fine": np.zeros(2), "broken": np.array([1.0, np.nan])}
        state = AdamState.for_params(params)
        with pytest.raises(NumericalError, match="broken"):
            adam_step(params, grads, state, lr=0.1)

    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(4)
        params = {"w": rng.normal(size=8)}
        before = params["w"].copy()
        state = AdamState.for_params(params)
        adam_step(params, {"w": rng.normal(size=8)}, state, lr=0.0)
        assert np.array_equal(params["w"], before)

    def test_blocked_update_matches_dense_reference(self):
        block = trainer._ADAM_BLOCK
        shapes = {"one": (1,), "below": (block - 1,), "block": (block,),
                  "above": (block + 1,), "rows": (3 * block // 7 + 5, 7),
                  "wide": (3, block + 3), "cube": (1 + 2 * block // 24, 2, 12)}
        rng = np.random.default_rng(5)
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        sides = []
        for step in (adam_step, reference_adam_step):
            params = {k: v.copy() for k, v in init.items()}
            state = AdamState.for_params(params)
            draw = np.random.default_rng(6)
            for lr in (0.1, 0.05, 0.02, 1e-3):
                grads = {k: draw.normal(size=s) * 10.0 ** draw.integers(-8, 3)
                         for k, s in shapes.items()}
                grads["one"][...] = -0.0  # a signed zero through both paths
                step(params, grads, state, lr)
            sides.append((params, state))
        (p_new, s_new), (p_ref, s_ref) = sides
        for k in shapes:
            assert np.array_equal(p_new[k], p_ref[k]), k
            assert np.array_equal(s_new.m[k], s_ref.m[k]), k
            assert np.array_equal(s_new.v[k], s_ref.v[k]), k
        assert s_new.t == s_ref.t == 4

    def test_row_update_matches_gathered_reference(self):
        # random rows spanning three full blocks and a partial one; the other
        # rows of each parameter must keep their values exactly
        block = trainer._ADAM_BLOCK
        rng = np.random.default_rng(9)
        n_nodes, channels = 3 * block, 3
        rows = np.sort(rng.choice(n_nodes, size=3 * (block // channels) + 17,
                                  replace=False))
        assert len(trainer._blocks((len(rows), channels))) == 4
        init = {"density_grid": rng.normal(size=(n_nodes, 1)),
                "feature_grid": rng.normal(size=(n_nodes, channels))}
        sides = []
        for step in (adam_step, reference_adam_step):
            params = {k: v.copy() for k, v in init.items()}
            state = AdamState.for_params({k: p[rows] for k, p in params.items()})
            draw = np.random.default_rng(10)
            for lr in (0.1, 0.02, 1e-3):
                grads = {k: draw.normal(size=(len(rows),) + p.shape[1:])
                         for k, p in init.items()}
                step(params, grads, state, lr, rows=rows)
            sides.append((params, state))
        (p_new, s_new), (p_ref, s_ref) = sides
        untouched = np.ones(n_nodes, dtype=bool)
        untouched[rows] = False
        for k, start in init.items():
            assert np.array_equal(p_new[k], p_ref[k]), k
            assert np.array_equal(s_new.m[k], s_ref.m[k]), k
            assert np.array_equal(s_new.v[k], s_ref.v[k]), k
            assert np.array_equal(p_new[k][untouched], start[untouched]), k
            assert np.all(p_new[k][rows] != start[rows]), k
        assert s_new.t == s_ref.t == 3

    def test_row_update_rejects_bad_gradients_naming_tensor(self):
        rows = np.array([1, 4, 6])
        params = {"density_grid": np.ones((8, 1)), "feature_grid": np.ones((8, 2))}
        state = AdamState.for_params({k: p[rows] for k, p in params.items()})
        full = {k: np.zeros_like(p) for k, p in params.items()}
        with pytest.raises(ValueError, match="'density_grid'"):
            adam_step(params, full, state, lr=0.1, rows=rows)
        grads = {k: np.ones((3,) + p.shape[1:]) for k, p in params.items()}
        grads["feature_grid"][2, 1] = np.nan
        with pytest.raises(NumericalError, match="'feature_grid'"):
            adam_step(params, grads, state, lr=0.1, rows=rows)
        assert np.all(params["feature_grid"] == 1.0)
        assert np.all(state.m["feature_grid"] == 0.0)

    def test_blocks_of_a_strided_parameter_are_views(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(trainer._ADAM_BLOCK // 2 + 3, 4))
        original = base.copy()
        expect = base.copy()
        grad = rng.normal(size=base.shape)
        params = {"w": base.T}  # non-contiguous, rows longer than half a block
        adam_step(params, {"w": grad.T}, AdamState.for_params(params), lr=0.1)
        ref = {"w": expect.T}
        reference_adam_step(ref, {"w": grad.T}, AdamState.for_params(ref), lr=0.1)
        assert np.all(base != original)
        assert np.array_equal(base, expect)

    def test_nan_in_last_partial_block_raises_before_touching_tensor(self):
        n = 2 * trainer._ADAM_BLOCK + 3
        params = {"first": np.ones(4), "grid": np.ones((n, 1))}
        grads = {"first": np.ones(4), "grid": np.ones((n, 1))}
        grads["grid"][-1, 0] = np.nan
        state = AdamState.for_params(params)
        with pytest.raises(NumericalError, match="'grid'"):
            adam_step(params, grads, state, lr=0.1)
        assert np.all(params["grid"] == 1.0)
        assert np.all(state.m["grid"] == 0.0) and np.all(state.v["grid"] == 0.0)
        assert np.all(params["first"] < 1.0)  # earlier tensors are already updated

    def test_allocates_far_less_than_one_tensor(self):
        # dense, and on every other row as train() updates its reached rows
        n = 48 ** 3
        for rows in (None, np.arange(0, n, 2)):
            rng = np.random.default_rng(8)
            params = {"feature_grid": rng.normal(size=(n, 9))}
            grads = {"feature_grid": rng.normal(size=(n if rows is None else len(rows), 9))}
            state = AdamState.for_params(grads)
            adam_step(params, grads, state, lr=0.1, rows=rows)
            tracemalloc.start()
            try:
                adam_step(params, grads, state, lr=0.1, rows=rows)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < params["feature_grid"].nbytes / 16, rows is not None


class TestLrSchedule:
    def test_endpoints(self):
        assert lr_at(0, 0.2, 1000) == 0.2
        assert lr_at(1000, 0.2, 1000) == pytest.approx(0.02, rel=1e-12)

    def test_halfway(self):
        assert lr_at(500, 1.0, 1000) == pytest.approx(10 ** -0.5, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(1001, 0.2, 1000)


class TestProgressiveDims:
    def test_final_stage_exact(self):
        assert progressive_dims((160, 160, 160), 3, 3) == (160, 160, 160)
        assert progressive_dims((33, 17, 9), 2, 2) == (33, 17, 9)

    def test_full_scale_halving(self):
        assert progressive_dims((160, 160, 160), 0, 3) == (80, 80, 80)

    def test_monotone_nondecreasing(self):
        for final in [(32, 32, 32), (40, 24, 12), (33, 17, 9)]:
            prev = (0, 0, 0)
            for s in range(4):
                dims = progressive_dims(final, s, 3)
                assert all(a >= b for a, b in zip(dims, prev))
                assert all(2 <= d <= f for d, f in zip(dims, final))
                prev = dims

    def test_voxel_count_roughly_doubles(self):
        counts = [np.prod(progressive_dims((32, 32, 32), s, 3)) for s in range(4)]
        for a, b in zip(counts, counts[1:]):
            assert 1.6 < b / a < 2.5


class TestTrainLoop:
    def test_zero_iterations_returns_initial_model(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=4, res=(6, 3))
        cfg = smoke_config(total_iters=0, stages=0, upsample_iters=())
        result = train(ds, cfg)
        from radiofield.field_model import init_field_model
        fresh = init_field_model(ds.geometry.bbox, cfg.final_dims, cfg.feature_dim,
                                 cfg.mlp_width, seed=cfg.seed,
                                 density_bias=cfg.density_bias)
        # train() runs the nets in float32: they are the cast initial nets
        fresh.deform_net = fresh.deform_net.astype(np.float32)
        fresh.radiance_net = fresh.radiance_net.astype(np.float32)
        for (na, a), (nb, b) in zip(result.model.parameters().items(),
                                    fresh.parameters().items()):
            assert na == nb and a.dtype == b.dtype and np.array_equal(a, b)
        assert result.history == []

    def test_nets_train_in_float32_and_grids_in_float64(self, tmp_path, monkeypatch):
        ds = small_dataset(tmp_path, n_tx=4, res=(6, 3))
        encodings = set()  # (enc_x, enc_dir) dtypes of every training batch
        backward = trainer._backward_batch

        def spy_backward(model, trace, *args, **kwargs):
            encodings.add((trace.static.enc_x.dtype, trace.static.enc_dir.dtype))
            return backward(model, trace, *args, **kwargs)

        monkeypatch.setattr(trainer, "_backward_batch", spy_backward)
        dtypes = {}  # parameter name -> its (gradient, m, v) dtypes over all steps
        original = trainer.adam_step

        def spy(params, grads, state, lr, rows=None):
            for name in params:
                dtypes.setdefault(name, set()).add(
                    (grads[name].dtype, state.m[name].dtype, state.v[name].dtype))
            return original(params, grads, state, lr, rows=rows)

        monkeypatch.setattr(trainer, "adam_step", spy)
        result = train(ds, smoke_config(total_iters=3))
        params = result.model.parameters()
        assert dtypes.keys() == params.keys()
        for name, p in params.items():
            want = np.float64 if name in trainer.GRID_PARAM_NAMES else np.float32
            assert p.dtype == want, name
            assert dtypes[name] == {(np.dtype(want),) * 3}, name
        assert encodings == {(np.dtype(np.float32),) * 2}

    def test_checkpoint_of_trained_model_loads_float64_nets(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=4, res=(8, 4))
        model = train(ds, smoke_config(total_iters=30, tau=1e-4)).model
        save_checkpoint(tmp_path / "m.ckpt", model)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        for name, p in model.parameters().items():
            got = loaded.parameters()[name]
            # float32 nets round-trip exactly; grids are stored as float32
            want = p.astype(np.float32).astype(np.float64)
            assert got.dtype == np.float64 and np.array_equal(got, want), name
        tx = ds.tx_positions()[:2]
        in_memory = render_spectra(model, ds.geometry, tx, tau=1e-4)
        np.testing.assert_allclose(render_spectra(loaded, ds.geometry, tx, tau=1e-4),
                                   in_memory, rtol=1e-5, atol=1e-6 * in_memory.max())

    def test_batched_forward_matches_single_ray_renderer(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=4, res=(8, 4))
        result = train(ds, smoke_config(total_iters=30, log_interval=5))
        model = result.model
        cache = _StageCache(ds.geometry, model, step=0.04)
        txs = ds.tx_positions()[:3]
        cells = np.array([5, 17, 30])
        r_hat, t_k, _ = _forward_batch(model, cache, txs, cells, tau=1e-4)
        for i, c in enumerate(cells):
            m_i, n_i = divmod(int(c), ds.geometry.spectrum_res[1])
            d = direction_from_angles(m_i, n_i, ds.geometry.spectrum_res)
            r_ref, t_ref = reference_ray(model, ds.geometry, txs[i], d, 0.04, 1e-4)
            assert r_hat[i] == pytest.approx(r_ref, rel=1e-10, abs=1e-14)
            assert t_k[i] == pytest.approx(t_ref, rel=1e-10)

    def test_smoke_convergence_two_blobs(self, tmp_path):
        # 200 iterations on a small scene must at least halve the spectrum loss.
        ds = small_dataset(tmp_path, n_tx=16)
        lines = []
        result = train(ds, smoke_config(), log_fn=lines.append)
        first = result.history[0][1].spectrum_loss
        last = result.history[-1][1].spectrum_loss
        assert last < 0.5 * first
        assert len(lines) == len(result.history)
        assert all(len(line.split(",")) == 6 for line in lines)

    def test_same_seed_identical_history(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=6, res=(8, 3))
        logs = []
        for _ in range(2):
            lines = []
            train(ds, smoke_config(total_iters=40, log_interval=5),
                  log_fn=lines.append)
            logs.append(lines)
        assert logs[0] == logs[1]

    def test_upsample_events_recorded_and_bounded(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=8, res=(8, 3))
        cfg = smoke_config(final_dims=(12, 12, 12), stages=2,
                           upsample_iters=(40, 80), total_iters=120,
                           tau=1e-4)
        rng = np.random.default_rng(0)
        cells = rng.integers(0, 24, 32)
        recs = rng.integers(0, len(ds.records), 32)
        eval_rays = (ds.tx_positions()[recs], cells,
                     ds.load_spectra().reshape(len(ds.records), -1)[recs, cells])
        result = train(ds, cfg, eval_rays=eval_rays)
        assert [e["iteration"] for e in result.upsample_events] == [40, 80]
        for e in result.upsample_events:
            assert e["loss_before"] > 0
            # toy-scale sanity: refinement must not blow the field up; the
            # strict 20% bound is asserted at desk scale in the acceptance
            # suite, where the grids are fine relative to the scene.
            assert abs(e["loss_after"] - e["loss_before"]) / e["loss_before"] < 0.6
        assert result.model.density_grid.dims == (12, 12, 12)

    def test_resupported_table_equals_fresh_table(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=2, res=(8, 3))
        model = init_field_model(ds.geometry.bbox, (6, 7, 8), 4, 16, seed=5)
        step = default_step(ds.geometry.bbox, (12, 12, 12))
        cache = _StageCache(ds.geometry, model, step)
        model.density_grid = voxel_grid.upsample(model.density_grid, (9, 10, 12))
        model.feature_grid = voxel_grid.upsample(model.feature_grid, (9, 10, 12))
        cache.resupport(model)
        fresh = _StageCache(ds.geometry, model, step)
        assert vars(cache).keys() == vars(fresh).keys()
        for name, value in vars(fresh).items():
            assert np.array_equal(getattr(cache, name), value), name
        assert cache.idx.max() >= 6 * 7 * 8  # the support indexes the new grid

    @pytest.mark.parametrize("tau", [0.0, 1e-4])
    def test_stage_table_batch_equals_fresh_table(self, tmp_path, tau):
        # a batch gathered from the stage table, encoded per call, equals the
        # same rays sampled, supported and encoded afresh, bit for bit
        ds = small_dataset(tmp_path, n_tx=2, res=(8, 3))
        rng = np.random.default_rng(4)
        model = init_field_model(ds.geometry.bbox, (6, 6, 6), 4, 16, seed=2)
        model.density_grid.values[:] = rng.normal(
            -8.0, 4.0, size=model.density_grid.values.shape)
        model.feature_grid.values[:] = rng.normal(size=model.feature_grid.values.shape)
        model.deform_net = model.deform_net.astype(np.float32)
        model.radiance_net = model.radiance_net.astype(np.float32)
        step = default_step(ds.geometry.bbox, (12, 12, 12))
        cache = _StageCache(ds.geometry, model, step=step)
        cells = np.array([5, 17, 5, 0, 23, 17, 9])
        fresh = SampleTable(ds.geometry, model, step,
                            all_directions(ds.geometry.spectrum_res)[cells])
        got = density_pass(model, cache, cells, tau, True)
        want = density_pass(model, fresh, np.arange(len(cells)), tau, True)
        if tau > 0:
            assert 0 < got.kept.sum() < len(got.kept)  # some samples skipped
        assert np.array_equal(cache.positions[got.rows_kept],
                              fresh.positions[want.rows_kept])
        for f in dataclasses.fields(SegmentTrace):
            if f.name not in ("rows_kept", "static", "signal_kept", "sig_cache"):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
        assert got.signal_kept is want.signal_kept is None
        for f in dataclasses.fields(StaticTerms):
            a, b = getattr(got.static, f.name), getattr(want.static, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        assert got.static.enc_x.dtype == np.float32

    def test_train_builds_one_table(self, tmp_path, monkeypatch):
        ds = small_dataset(tmp_path, n_tx=3, res=(6, 3))
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return _StageCache(*args, **kwargs)

        monkeypatch.setattr(trainer, "_StageCache", counting)
        result = train(ds, smoke_config(final_dims=(10, 10, 10), stages=2,
                                        upsample_iters=(2, 4), total_iters=6))
        assert len(result.upsample_events) == 2 and len(built) == 1

    def test_nan_targets_abort_with_iteration(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=4, res=(6, 3))
        spectra = ds.load_spectra()
        spectra[0, 0, 0] = np.nan  # poison the cached targets
        with pytest.raises(NumericalError, match="iteration"):
            train(ds, smoke_config(total_iters=5, batch_rays=len(ds.records) * 18))

    def test_deform_disabled_trains(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=6, res=(6, 3))
        result = train(ds, smoke_config(total_iters=20, deform_enabled=False))
        assert not result.model.deform_enabled
        # deformation net untouched by training
        from radiofield.field_model import init_field_model
        fresh = init_field_model(ds.geometry.bbox, (16, 16, 16), 4, 16, seed=1)
        trained = result.model.deform_net.weights[0]
        assert np.array_equal(trained, fresh.deform_net.weights[0].astype(trained.dtype))


    def test_grid_steps_match_dense_references_end_to_end(self, tmp_path,
                                                          monkeypatch):
        ds = small_dataset(tmp_path, n_tx=6, res=(8, 3))
        cfg = smoke_config(final_dims=(10, 10, 10), stages=2, upsample_iters=(6, 12),
                           total_iters=18, log_interval=1, tau=1e-4)
        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(trainer, "adam_step", reference_adam_step)
                monkeypatch.setattr(voxel_grid, "scatter_grid_gradient",
                                    reference_scatter_grid_gradient)
            lines = []
            result = train(ds, cfg, log_fn=lines.append)
            runs.append((lines, result.model.parameters()))
        (lines_new, params_new), (lines_ref, params_ref) = runs
        assert len(lines_new) == cfg.total_iters
        assert lines_new == lines_ref
        assert params_new.keys() == params_ref.keys()
        for name in params_new:
            assert np.array_equal(params_new[name], params_ref[name]), name
        assert params_new["density_grid"].shape == (1000, 1)

    def test_reached_rows_match_dense_update_end_to_end(self, tmp_path,
                                                        monkeypatch):
        # grids trained on their reached rows only against the same run with
        # every node counted as reached, over three upsample events; nodes
        # below the receiver are never reached, so each stage's rows are a
        # strict subset of its nodes
        ds = small_dataset(tmp_path, n_tx=6, res=(8, 3))
        cfg = smoke_config(final_dims=(12, 12, 12), stages=3,
                           upsample_iters=(5, 10, 15), total_iters=20,
                           log_interval=1, tau=1e-4)
        rng = np.random.default_rng(0)
        cells = rng.integers(0, 24, 16)
        recs = rng.integers(0, len(ds.records), 16)
        eval_rays = (ds.tx_positions()[recs], cells,
                     ds.load_spectra().reshape(len(ds.records), -1)[recs, cells])
        reached = []
        original = trainer._reached_nodes

        def counting(idx, n_nodes):
            rows = original(idx, n_nodes)
            reached.append((len(rows), n_nodes))
            return rows

        runs = []
        for every_node in (False, True):
            if every_node:
                monkeypatch.setattr(trainer, "_reached_nodes",
                                    lambda idx, n_nodes: np.arange(n_nodes))
            else:
                monkeypatch.setattr(trainer, "_reached_nodes", counting)
            lines = []
            result = train(ds, cfg, log_fn=lines.append, eval_rays=eval_rays)
            runs.append((lines, result.upsample_events, result.model.parameters()))
        assert len(reached) == 4
        assert all(0 < n_rows < n_nodes for n_rows, n_nodes in reached), reached
        (lines_rows, events_rows, params_rows), (lines_all, events_all, params_all) = runs
        assert len(lines_rows) == cfg.total_iters
        assert lines_rows == lines_all
        assert events_rows == events_all
        assert all(e["loss_before"] is not None for e in events_rows)
        assert params_rows.keys() == params_all.keys()
        for name in params_rows:
            assert np.array_equal(params_rows[name], params_all[name]), name


def capture_stage_cache(monkeypatch) -> list:
    """Patch train()'s stage table constructor to record the tables it builds."""
    built = []

    def recording(*args, **kwargs):
        built.append(_StageCache(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(trainer, "_StageCache", recording)
    return built


class TestReachedRows:
    def test_grid_rows_are_the_support_union(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=2, res=(8, 3))
        model = init_field_model(ds.geometry.bbox, (6, 7, 8), 4, 16, seed=5)
        cache = _StageCache(ds.geometry, model, default_step(ds.geometry.bbox,
                                                             (12, 12, 12)))
        for dims in ((6, 7, 8), (9, 10, 12)):
            if dims != model.density_grid.dims:
                model.density_grid = voxel_grid.upsample(model.density_grid, dims)
                model.feature_grid = voxel_grid.upsample(model.feature_grid, dims)
                cache.resupport(model)
            union = sorted(set(cache.idx.ravel().tolist()))
            assert cache.grid_rows.tolist() == union, dims
            assert len(union) < model.density_grid.n_nodes

    def test_compact_set_scatters_like_a_dense_one(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=3, res=(8, 4))
        rng = np.random.default_rng(2)
        model = init_field_model(ds.geometry.bbox, (6, 6, 6), 2, 8, seed=1)
        model.density_grid.values[:] = rng.normal(size=model.density_grid.values.shape)
        model.feature_grid.values[:] = rng.normal(size=model.feature_grid.values.shape)
        cache = _StageCache(ds.geometry, model, step=0.1)
        _, _, trace = _forward_batch(model, cache, ds.tx_positions()[[0, 1, 2, 0]],
                                     np.array([1, 7, 20, 31]), tau=0.0,
                                     want_cache=True)
        d_r, d_t = rng.normal(size=4), rng.normal(size=4)
        dense = GradientSet.zeros_like(model)
        rows = GradientSet.zeros_like(model, grid_rows=cache.grid_rows)
        for grads in (dense, rows):
            _backward_batch(model, trace, d_r, d_t, grads)
        for name in dense.buffers:
            if name in trainer.GRID_PARAM_NAMES:
                assert rows[name].shape == (len(cache.grid_rows),) + dense[name].shape[1:]
                assert np.array_equal(rows[name], dense[name][cache.grid_rows]), name
                unreached = np.ones(len(dense[name]), dtype=bool)
                unreached[cache.grid_rows] = False
                assert unreached.any() and np.all(dense[name][unreached] == 0.0)
            else:
                assert np.array_equal(rows[name], dense[name]), name

    def test_grid_gradients_and_moments_cover_reached_rows(self, tmp_path,
                                                           monkeypatch):
        ds = small_dataset(tmp_path, n_tx=3, res=(6, 3))
        built = capture_stage_cache(monkeypatch)
        checked = []
        original = trainer.adam_step

        def spy(params, grads, state, lr, rows=None):
            if "density_grid" in params:
                assert np.array_equal(rows, built[0].grid_rows)
                n_nodes = len(params["density_grid"])
                for name in trainer.GRID_PARAM_NAMES:
                    assert params[name].shape[0] == n_nodes, name
                    for array in (grads[name], state.m[name], state.v[name]):
                        assert array.shape[0] == len(rows) < n_nodes, name
                checked.append(len(rows))
            else:
                assert rows is None
            return original(params, grads, state, lr, rows=rows)

        monkeypatch.setattr(trainer, "adam_step", spy)
        train(ds, smoke_config(final_dims=(10, 10, 10), stages=2,
                               upsample_iters=(2, 4), total_iters=6))
        assert len(checked) == 6 and checked[1] < checked[2] < checked[4]

    def test_unreached_nodes_keep_their_post_upsample_values(self, tmp_path,
                                                             monkeypatch):
        ds = small_dataset(tmp_path, n_tx=4, res=(8, 3))
        built = capture_stage_cache(monkeypatch)
        upsampled = []
        original = trainer.upsample

        def recording(grid, new_dims):
            out = original(grid, new_dims)
            upsampled.append(out.values.copy())
            return out

        monkeypatch.setattr(trainer, "upsample", recording)
        result = train(ds, smoke_config(final_dims=(12, 12, 12), stages=2,
                                        upsample_iters=(10, 20), total_iters=40,
                                        tau=1e-4))
        final = result.model.parameters()
        unreached = np.ones(result.model.density_grid.n_nodes, dtype=bool)
        unreached[built[0].grid_rows] = False
        assert unreached.any()
        for name, start in zip(("density_grid", "feature_grid"), upsampled[-2:]):
            assert np.array_equal(final[name][unreached], start[unreached]), name
            assert np.any(final[name][~unreached] != start[~unreached]), name

    def test_nan_in_compact_grid_gradient_names_tensor(self, tmp_path, monkeypatch):
        ds = small_dataset(tmp_path, n_tx=3, res=(6, 3))
        original = trainer._backward_batch
        n_nodes = 16 ** 3

        def poisoned(model, trace, d_r, d_t, grads, sample_scale=None):
            original(model, trace, d_r, d_t, grads, sample_scale=sample_scale)
            assert len(grads["feature_grid"]) < n_nodes
            grads["feature_grid"][-1, 0] = np.nan

        monkeypatch.setattr(trainer, "_backward_batch", poisoned)
        with pytest.raises(NumericalError, match="'feature_grid'"):
            train(ds, smoke_config(total_iters=3))


class TestEndToEndGradient:
    def test_pipeline_gradient_matches_fd(self, tmp_path):
        # Master correctness check: analytic gradients of the full
        # render-and-loss pipeline against central finite differences,
        # for every parameter tensor of a tiny model.
        ds = small_dataset(tmp_path, n_tx=4, res=(6, 3))
        rng = np.random.default_rng(7)
        model = init_field_model(ds.geometry.bbox, (4, 4, 4), 2, 8, seed=8)
        model.density_grid.values[:] = rng.normal(scale=0.5,
                                                  size=model.density_grid.values.shape)
        model.feature_grid.values[:] = rng.normal(scale=0.5,
                                                  size=model.feature_grid.values.shape)
        cache = _StageCache(ds.geometry, model, step=0.25)
        cells = rng.integers(0, 18, 8)
        recs = rng.integers(0, 4, 8)
        targets = ds.load_spectra().reshape(4, -1)[recs, cells]
        txs = ds.tx_positions()[recs]
        bg_weight = 0.05

        grads, evaluate = pipeline_gradient(model, cache, txs, cells, targets,
                                            bg_weight)
        h = 1e-4
        every_13th = lambda size: range(0, size, max(1, size // 13))
        for diff in kink_aware_differences(model, evaluate, h, indices=every_13th):
            assert not diff.kinked, (diff.name, diff.index, diff.step)
            got = grads[diff.name].reshape(-1)[diff.index]
            assert abs(got - diff.fd) <= 1e-4 * abs(diff.fd) + 1e-6, \
                (diff.name, diff.index, got, diff.fd)

    def test_pipeline_gradient_matches_fd_relative_tolerance_binds(self, tmp_path):
        # Every parameter entry, with gradients large enough that the 1e-4
        # relative term of the tolerance exceeds the 1e-6 floor on most
        # entries: targets far above the rendered signal, no density offset,
        # and strong features.
        ds = small_dataset(tmp_path, n_tx=4, res=(6, 3))
        rng = np.random.default_rng(7)
        model = init_field_model(ds.geometry.bbox, (4, 4, 4), 2, 8, seed=8,
                                 density_bias=0.0)
        model.density_grid.values[:] = rng.normal(scale=0.5,
                                                  size=model.density_grid.values.shape)
        model.feature_grid.values[:] = rng.normal(scale=2.0,
                                                  size=model.feature_grid.values.shape)
        cache = _StageCache(ds.geometry, model, step=0.25)
        cells = rng.integers(0, 18, 32)
        recs = rng.integers(0, 4, 32)
        targets = np.full(32, 50.0)

        grads, evaluate = pipeline_gradient(model, cache, ds.tx_positions()[recs],
                                            cells, targets, 0.05)
        n_checked = n_binding = 0
        for diff in kink_aware_differences(model, evaluate, 1e-4):
            assert not diff.kinked, (diff.name, diff.index, diff.step)
            got = grads[diff.name].reshape(-1)[diff.index]
            assert abs(got - diff.fd) <= 1e-4 * abs(diff.fd) + 1e-6, \
                (diff.name, diff.index, got, diff.fd)
            n_checked += 1
            n_binding += 1e-4 * abs(diff.fd) > 1e-6
        assert n_binding > 0.75 * n_checked, (n_binding, n_checked)


    def test_per_ray_first_layer_columns_match_fd(self, tmp_path):
        # Every entry of the first-layer columns that multiply a per-ray
        # input: the transmitter columns of deform.w0 and the direction
        # columns of radiance.w0, whose gradients gather per-ray inputs per
        # sample. Rays share cells (5 under three transmitters) and
        # transmitters (record 0 over three cells), with large gradients as
        # in the test above.
        ds = small_dataset(tmp_path, n_tx=4, res=(6, 3))
        rng = np.random.default_rng(9)
        model = init_field_model(ds.geometry.bbox, (4, 4, 4), 2, 8, seed=10,
                                 density_bias=0.0)
        model.density_grid.values[:] = rng.normal(scale=0.5,
                                                  size=model.density_grid.values.shape)
        model.feature_grid.values[:] = rng.normal(scale=2.0,
                                                  size=model.feature_grid.values.shape)
        cache = _StageCache(ds.geometry, model, step=0.25)
        cells = np.array([5, 5, 5, 11, 11, 2, 17, 2])
        recs = np.array([0, 1, 2, 0, 0, 3, 3, 1])
        grads, evaluate = pipeline_gradient(model, cache, ds.tx_positions()[recs],
                                            cells, np.full(8, 50.0), 0.05)
        pos_w = model.deform_net.input_width // 2
        f = model.feature_dim
        columns = {"deform.w0": lambda size: [k for k in range(size)
                                              if k % (2 * pos_w) < pos_w],
                   "radiance.w0": lambda size: [k for k in range(size)
                                                if k % model.radiance_net.input_width >= f]}
        n_checked = n_binding = 0
        for name, indices in columns.items():
            for diff in kink_aware_differences(model, evaluate, 1e-4, indices=indices,
                                               names=(name,)):
                assert not diff.kinked, (diff.name, diff.index, diff.step)
                got = grads[diff.name].reshape(-1)[diff.index]
                assert abs(got - diff.fd) <= 1e-4 * abs(diff.fd) + 1e-6, \
                    (diff.name, diff.index, got, diff.fd)
                n_checked += 1
                n_binding += 1e-4 * abs(diff.fd) > 1e-6
        assert n_checked == 8 * pos_w + 8 * (model.radiance_net.input_width - f)
        assert n_binding > 0.75 * n_checked, (n_binding, n_checked)


class TestNearReceiverGradientScale:
    def test_radius_from_final_voxel_edge_and_direction_count(self):
        geo = SceneGeometry(rx_position=np.array([1.75, 1.75, 1.4]),
                            bbox=Aabb(np.zeros(3), np.full(3, 3.5)),
                            spectrum_res=(36, 9))
        r0 = near_receiver_radius(geo, (32, 32, 32))
        assert r0 == pytest.approx(3.5 / 31 * np.sqrt(324 / (2 * np.pi)), rel=1e-12)
        assert r0 == pytest.approx(0.8108, abs=1e-4)
        # the smallest per-axis edge sets the radius
        assert near_receiver_radius(geo, (32, 64, 32)) == pytest.approx(
            3.5 / 63 * np.sqrt(324 / (2 * np.pi)), rel=1e-12)

    def test_backward_batch_unscaled_unless_asked(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=3, res=(8, 4))
        rng = np.random.default_rng(2)
        model = init_field_model(ds.geometry.bbox, (6, 6, 6), 2, 8, seed=1)
        model.density_grid.values[:] = rng.normal(size=model.density_grid.values.shape)
        model.feature_grid.values[:] = rng.normal(size=model.feature_grid.values.shape)
        cache = _StageCache(ds.geometry, model, step=0.1)
        cells = np.array([1, 7, 20, 31])
        txs = ds.tx_positions()[[0, 1, 2, 0]]
        _, _, trace = _forward_batch(model, cache, txs, cells, tau=0.0,
                                     want_cache=True)
        d_r = rng.normal(size=4)
        d_t = rng.normal(size=4)

        def backward(**kwargs):
            grads = GradientSet.zeros_like(model)
            _backward_batch(model, trace, d_r, d_t, grads, **kwargs)
            return grads

        plain = backward()
        ones = backward(sample_scale=np.ones(len(trace.rows_kept)))
        half = backward(sample_scale=np.full(len(trace.rows_kept), 0.5))
        for name in plain.buffers:
            assert np.any(plain[name] != 0.0), name
            assert np.array_equal(plain[name], ones[name]), name
            # both the density and the signal path are scaled
            np.testing.assert_allclose(half[name], 0.5 * plain[name], rtol=1e-12,
                                       atol=1e-300)

    def test_train_scales_by_distance_from_receiver(self, tmp_path, monkeypatch):
        ds = small_dataset(tmp_path, n_tx=3, res=(8, 4))
        seen = []
        original = trainer._backward_batch

        def spy(model, trace, d_r, d_t, grads, sample_scale=None):
            seen.append((trace.rows_kept.copy(), sample_scale))
            return original(model, trace, d_r, d_t, grads, sample_scale=sample_scale)

        monkeypatch.setattr(trainer, "_backward_batch", spy)
        cfg = smoke_config(total_iters=2)
        train(ds, cfg)
        assert len(seen) == 2
        r0 = near_receiver_radius(ds.geometry, cfg.final_dims)
        step = default_step(ds.geometry.bbox, cfg.final_dims)
        positions, _, _ = sample_rays(ds.geometry,
                                      all_directions(ds.geometry.spectrum_res), step)
        r = np.linalg.norm(positions - ds.geometry.rx_position, axis=1)
        for rows, scale in seen:
            np.testing.assert_array_equal(scale, np.minimum(1.0, (r[rows] / r0) ** 2))


class TestRssiCalibration:
    def test_perfect_predictions_give_zero_offset(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=5, res=(6, 3))
        result = train(ds, smoke_config(total_iters=20))
        model = result.model
        from radiofield.renderer import render_spectrum
        records = []
        from radiofield.dataio import DatasetRecord
        for rec in ds.records[:3]:
            spec = render_spectrum(model, ds.geometry, rec.tx_position, tau=1e-4)
            records.append(DatasetRecord(
                tx_position=rec.tx_position, spectrum_path=rec.spectrum_path,
                rssi_dbm=float(10 * np.log10(spec.sum()))))
        c = fit_rssi_calibration(model, ds.geometry, records, tau=1e-4)
        assert c == pytest.approx(0.0, abs=1e-9)

    def test_constant_shift_recovered(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=4, res=(6, 3))
        result = train(ds, smoke_config(total_iters=20))
        model = result.model
        from radiofield.renderer import render_spectrum
        from radiofield.dataio import DatasetRecord
        records = []
        for rec in ds.records:
            spec = render_spectrum(model, ds.geometry, rec.tx_position, tau=1e-4)
            records.append(DatasetRecord(
                tx_position=rec.tx_position, spectrum_path=rec.spectrum_path,
                rssi_dbm=float(10 * np.log10(spec.sum())) + 7.0))
        c = fit_rssi_calibration(model, ds.geometry, records, tau=1e-4)
        assert c == pytest.approx(7.0, abs=1e-9)

    def test_mean_residual_equals_least_squares(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=6, res=(6, 3), rssi_noise_db=2.0)
        result = train(ds, smoke_config(total_iters=20))
        model = result.model
        from radiofield.renderer import render_spectrum
        c = fit_rssi_calibration(model, ds.geometry, ds.records, tau=1e-4)
        preds = np.array([
            10 * np.log10(render_spectrum(model, ds.geometry, r.tx_position,
                                          tau=1e-4).sum())
            for r in ds.records])
        meas = np.array([r.rssi_dbm for r in ds.records])
        # closed-form least squares for a constant offset
        lstsq_c = np.linalg.lstsq(np.ones((len(meas), 1)), meas - preds,
                                  rcond=None)[0][0]
        assert c == pytest.approx(lstsq_c, abs=1e-9)

    def test_no_valid_records_rejected(self, tmp_path):
        ds = small_dataset(tmp_path, n_tx=3, res=(6, 3))
        result = train(ds, smoke_config(total_iters=5))
        with pytest.raises(ValueError):
            fit_rssi_calibration(result.model, ds.geometry, ds.records)


class TestConfigValidation:
    def test_default_upsample_schedule(self):
        cfg = TrainConfig(total_iters=8000, stages=3)
        assert cfg.upsample_iters == (1000, 2000, 4000)

    def test_bad_schedules_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(total_iters=100, stages=2, upsample_iters=(50,))
        with pytest.raises(ValueError):
            TrainConfig(total_iters=100, stages=2, upsample_iters=(60, 50))
        with pytest.raises(ValueError):
            TrainConfig(total_iters=100, stages=1, upsample_iters=(100,))
        with pytest.raises(ValueError):
            TrainConfig(batch_rays=0)

    @pytest.mark.parametrize("field,overrides", [
        ("final_dims", dict(final_dims=(4, 4), stages=0)),
        ("final_dims", dict(final_dims=(4, 4, 4, 4), stages=0)),
        ("stages", dict(stages=-1)),
    ], ids=["final_dims_two", "final_dims_four", "stages_negative"])
    def test_bad_shape_values_rejected_naming_field(self, field, overrides):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**overrides)

    @pytest.mark.parametrize("total_iters", [-5, 0, 3])
    def test_bad_total_iters_named_with_default_stages(self, total_iters):
        with pytest.raises(ValueError, match="total_iters"):
            TrainConfig(total_iters=total_iters)

    def test_paper_profile_values(self):
        cfg = TrainConfig.paper()
        assert cfg.final_dims == (160, 160, 160)
        assert cfg.feature_dim == 24
        assert cfg.mlp_width == 256
        assert cfg.batch_rays == 1024
        assert cfg.lr_grid == 0.2
        assert cfg.lr_mlp == 2e-3
        assert cfg.total_iters == 100_000
        assert cfg.tau == 1e-4
        assert cfg.bg_weight == 1e-4
