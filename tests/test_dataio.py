"""Formats, synthetic oracle, dataset generation, checkpoints."""

import hashlib
import json
import stat
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from radiofield import dataio
from radiofield.dataio import (
    Blob,
    Dataset,
    DatasetRecord,
    FormatError,
    SyntheticScene,
    generate_dataset,
    geometry_from_checkpoint,
    load_checkpoint,
    load_dataset,
    load_scene_file,
    oracle_composite,
    oracle_density_emission,
    oracle_render,
    oracle_render_spectra,
    read_spectrum,
    save_checkpoint,
    save_manifest,
    write_spectrum,
)
from radiofield.field_model import init_field_model, query_signal
from radiofield.renderer import SceneGeometry, all_directions, composite, render_spectrum
from radiofield.voxel_grid import Aabb


def demo_scene(tx_modulation=0.5):
    box = Aabb(np.zeros(3), np.array([2.0, 2.0, 2.0]))
    blobs = [
        Blob(center=[1.0, 1.0, 1.2], radius=0.25, peak_density=5.0, emission=0.8),
        Blob(center=[0.5, 1.4, 0.8], radius=0.2, peak_density=3.0, emission=0.5),
    ]
    return SyntheticScene(bbox=box, rx_position=np.array([1.0, 1.0, 0.2]),
                          blobs=blobs, tx_modulation=tx_modulation)


def demo_geometry(res=(8, 4)):
    scene = demo_scene()
    return SceneGeometry(rx_position=scene.rx_position, bbox=scene.bbox,
                         spectrum_res=res)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestSpectrumFile:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        spec = rng.uniform(0, 1, size=(36, 9)).astype(np.float32).astype(np.float64)
        path = tmp_path / "s.vxrf"
        write_spectrum(path, spec)
        back = read_spectrum(path)
        assert np.array_equal(back, spec)
        write_spectrum(tmp_path / "s2.vxrf", back)
        assert (tmp_path / "s.vxrf").read_bytes() == (tmp_path / "s2.vxrf").read_bytes()

    def test_file_size_full_resolution(self, tmp_path):
        path = tmp_path / "big.vxrf"
        write_spectrum(path, np.zeros((360, 90)))
        assert path.stat().st_size == 16 + 4 * 360 * 90 == 129616

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vxrf"
        path.write_bytes(b"XXXX" + struct.pack("<III", 1, 2, 2) + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_spectrum(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.vxrf"
        path.write_bytes(struct.pack("<4sIII", b"VXRF", 9, 2, 2) + b"\x00" * 16)
        with pytest.raises(FormatError, match="version"):
            read_spectrum(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.vxrf"
        path.write_bytes(struct.pack("<4sIII", b"VXRF", 1, 4, 4) + b"\x00" * 10)
        with pytest.raises(FormatError, match="byte offset 16"):
            read_spectrum(path)

    def test_dimension_overflow_rejected(self, tmp_path):
        path = tmp_path / "huge.vxrf"
        path.write_bytes(struct.pack("<4sIII", b"VXRF", 1, 2 ** 20, 2 ** 20))
        with pytest.raises(FormatError, match="dimensions"):
            read_spectrum(path)

    def test_negative_values_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_spectrum(tmp_path / "n.vxrf", np.array([[-1.0, 0.0]]))


class TestOracleField:
    def test_far_from_blobs_is_empty(self):
        scene = demo_scene()
        # >= 6 radii away from every blob
        sigma, _ = oracle_density_emission(scene, np.array([1.95, 0.05, 1.95]),
                                           np.ones(3), np.array([0, 0, 1.0]))
        assert sigma < 1e-7

    def test_blob_center_hits_peak(self):
        box = Aabb(np.zeros(3), np.ones(3) * 2)
        scene = SyntheticScene(bbox=box, rx_position=np.ones(3) * 0.5,
                               blobs=[Blob([1.0, 1.0, 1.0], 0.3, 4.5, 0.7)])
        sigma, _ = oracle_density_emission(scene, np.array([1.0, 1.0, 1.0]),
                                           np.zeros(3), np.array([0, 0, 1.0]))
        assert sigma == pytest.approx(4.5, rel=1e-12)

    def test_zero_modulation_ignores_tx(self):
        scene = demo_scene(tx_modulation=0.0)
        x = np.array([1.0, 1.0, 1.1])
        d = np.array([0.0, 0.6, 0.8])
        _, s1 = oracle_density_emission(scene, x, np.array([0.1, 0.2, 0.3]), d)
        _, s2 = oracle_density_emission(scene, x, np.array([1.9, 1.5, 1.1]), d)
        assert s1 == s2

    def test_modulation_makes_tx_matter(self):
        scene = demo_scene(tx_modulation=0.5)
        x = np.array([1.0, 1.0, 1.1])
        d = np.array([0.0, 0.6, 0.8])
        _, s1 = oracle_density_emission(scene, x, np.array([0.1, 0.2, 0.3]), d)
        _, s2 = oracle_density_emission(scene, x, np.array([1.9, 1.5, 1.1]), d)
        assert s1 != s2


class TestOracleComposite:
    def test_agrees_with_production_compositor(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(1, 400))
            sigma = rng.uniform(0, 4, k)
            signal = rng.uniform(0, 1, k)
            spacing = rng.uniform(0.005, 0.2, k)
            r_a, t_a, w_a = composite(sigma, signal, spacing)
            r_b, t_b, w_b = oracle_composite(sigma, signal, spacing)
            assert abs(r_a - r_b) < 1e-10
            assert abs(t_a - t_b) < 1e-10
            np.testing.assert_allclose(w_a, w_b, atol=1e-10)

    def test_empty(self):
        r, t_k, w = oracle_composite(np.empty(0), np.empty(0), np.empty(0))
        assert r == 0.0 and t_k == 1.0 and w.size == 0


class TestOracleRender:
    def test_zero_blob_scene_is_dark(self):
        box = Aabb(np.zeros(3), np.ones(3))
        scene = SyntheticScene(bbox=box, rx_position=np.full(3, 0.5), blobs=[])
        geo = SceneGeometry(rx_position=np.full(3, 0.5), bbox=box, spectrum_res=(6, 3))
        spec = oracle_render(scene, geo, np.full(3, 0.5), fine_step=0.01)
        assert np.all(spec == 0)

    def test_overhead_blob_peaks_at_zenith_row(self):
        box = Aabb(np.zeros(3), np.array([2.0, 2.0, 2.0]))
        scene = SyntheticScene(bbox=box, rx_position=np.array([1.0, 1.0, 0.2]),
                               blobs=[Blob([1.0, 1.0, 1.2], 0.25, 5.0, 0.8)])
        geo = SceneGeometry(rx_position=scene.rx_position, bbox=box,
                            spectrum_res=(8, 4))
        spec = oracle_render(scene, geo, np.array([0.5, 0.5, 0.5]), fine_step=0.01)
        m_idx, n_idx = np.unravel_index(np.argmax(spec), spec.shape)
        assert n_idx == 3  # highest elevation row

    @pytest.mark.parametrize("tx", [[np.nan, 1.0, 1.0], [1.0, np.inf, 1.0],
                                    [[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]], [1.0, 1.0]],
                             ids=["nan", "inf", "two_rows", "two_values"])
    def test_bad_tx_rejected_by_name(self, tx):
        with pytest.raises(ValueError, match="tx must be three finite numbers"):
            oracle_render(demo_scene(), demo_geometry(), tx, fine_step=0.05)

    @pytest.mark.parametrize("step", [np.inf, np.nan, 0.0, -0.01])
    def test_bad_fine_step_rejected_by_name(self, tmp_path, step):
        with pytest.raises(ValueError, match="fine_step must be positive and finite"):
            oracle_render(demo_scene(), demo_geometry(), np.ones(3), fine_step=step)
        with pytest.raises(ValueError, match="fine_step must be positive and finite"):
            generate_dataset(demo_scene(), demo_geometry(), n_tx=2, seed=1,
                             out_dir=tmp_path / "d", fine_step=step)

    def test_step_self_consistency(self):
        scene = demo_scene()
        geo = demo_geometry(res=(6, 3))
        tx = np.array([0.4, 1.5, 0.9])
        h = float(geo.bbox.extent.min()) / 256
        a = oracle_render(scene, geo, tx, fine_step=h)
        b = oracle_render(scene, geo, tx, fine_step=h / 2)
        assert np.abs(a - b).max() < 1e-3


def reference_render(scene, geometry, tx, fine_step):
    """One transmitter's spectrum ray by ray, through the public per-ray oracle
    only: oracle_density_emission, then oracle_composite."""
    dirs = all_directions(geometry.spectrum_res)
    out = np.zeros(len(dirs))
    lo, hi = geometry.bbox.min_corner, geometry.bbox.max_corner
    for i, d in enumerate(dirs):
        t_far = np.inf
        for axis in range(3):
            if d[axis] > 0:
                t_far = min(t_far, (hi[axis] - geometry.rx_position[axis]) / d[axis])
            elif d[axis] < 0:
                t_far = min(t_far, (lo[axis] - geometry.rx_position[axis]) / d[axis])
        t_far = max(float(t_far), 0.0)
        k = int(t_far / fine_step)
        if k == 0:
            continue
        r = (np.arange(k) + 0.5) * fine_step
        spacing = np.full(k, fine_step)
        spacing[-1] = t_far - r[-1]
        sigma, emission = oracle_density_emission(
            scene, geometry.rx_position + r[:, None] * d, tx, -d)
        out[i], _, _ = oracle_composite(sigma, emission, spacing)
    return out.reshape(geometry.spectrum_res)


class TestOracleSharedRays:
    """Every transmitter's spectrum from one density and weight pass per ray is
    bit for bit the per-ray, per-transmitter oracle."""

    # random transmitters, and one exactly at a blob center (no direction to it)
    TXS = np.array([[0.3, 1.7, 0.4], [1.9, 0.2, 1.6], [1.0, 1.0, 1.2], [0.8, 0.6, 1.9]])

    @pytest.mark.parametrize("modulation", [0.0, 0.5])
    @pytest.mark.parametrize("rx", [[1.0, 1.0, 0.2], [2.0, 1.0, 0.2]],
                             ids=["interior", "on_face"])
    @pytest.mark.parametrize("divisor", [128, 512], ids=["extent/128", "default"])
    def test_matches_per_ray_reference(self, modulation, rx, divisor):
        scene = demo_scene(tx_modulation=modulation)
        geo = SceneGeometry(rx_position=np.array(rx), bbox=scene.bbox, spectrum_res=(6, 3))
        step = float(geo.bbox.extent.min()) / divisor
        got = oracle_render_spectra(scene, geo, self.TXS, step)
        assert got.shape == (len(self.TXS), 6, 3)
        for tx, spectrum in zip(self.TXS, got):
            assert np.array_equal(spectrum, reference_render(scene, geo, tx, step))
        # on the face x = 2, rays leaving through it have no samples and stay dark
        outward = all_directions((6, 3))[:, 0] > 0
        lit = got.reshape(len(self.TXS), -1) > 0
        assert outward.any() and not outward.all()
        assert not lit[:, outward].any() if rx[0] == 2.0 else lit.all()
        assert np.array_equal(oracle_render(scene, geo, self.TXS[2], step), got[2])

    def test_dataset_spectra_are_the_shared_pass(self, tmp_path):
        scene, geo = demo_scene(), demo_geometry(res=(6, 3))
        ds = generate_dataset(scene, geo, n_tx=5, seed=4, out_dir=tmp_path / "d",
                              fine_step=0.03)
        raw = oracle_render_spectra(scene, geo, ds.tx_positions(), 0.03)
        assert ds.normalization == raw.max()
        want = (raw / raw.max()).astype(np.float32).astype(np.float64)
        assert np.array_equal(ds.load_spectra(), want)


class TestGenerateDataset:
    def test_counts_normalization_and_files(self, tmp_path):
        scene = demo_scene()
        geo = demo_geometry(res=(12, 4))
        ds = generate_dataset(scene, geo, n_tx=8, seed=7, out_dir=tmp_path / "d",
                              fine_step=0.02)
        assert len(ds.records) == 8
        assert len(list((tmp_path / "d" / "spectra").glob("*.vxrf"))) == 8
        spectra = ds.load_spectra()
        assert spectra.shape == (8, 12, 4)
        assert spectra.max() == 1.0  # global max maps to exactly one
        assert ds.normalization > 0

    def test_deterministic_bytes(self, tmp_path):
        scene = demo_scene()
        geo = demo_geometry(res=(6, 3))
        generate_dataset(scene, geo, n_tx=4, seed=9, out_dir=tmp_path / "a",
                         fine_step=0.03)
        generate_dataset(scene, geo, n_tx=4, seed=9, out_dir=tmp_path / "b",
                         fine_step=0.03)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
        generate_dataset(scene, geo, n_tx=4, seed=10, out_dir=tmp_path / "c",
                         fine_step=0.03)
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")

    def test_round_trip_through_manifest(self, tmp_path):
        scene = demo_scene()
        geo = demo_geometry(res=(6, 3))
        ds = generate_dataset(scene, geo, n_tx=3, seed=1, out_dir=tmp_path / "d",
                              fine_step=0.03, rssi_noise_db=1.0)
        back = load_dataset(tmp_path / "d")
        assert back.geometry.spectrum_res == (6, 3)
        assert back.normalization == pytest.approx(ds.normalization)
        assert back.units == "linear"
        np.testing.assert_allclose(back.tx_positions(), ds.tx_positions())
        assert all(r.rssi_dbm is not None for r in back.records)
        np.testing.assert_array_equal(back.load_spectra(), ds.load_spectra())

    def test_missing_spectrum_detected(self, tmp_path):
        scene = demo_scene()
        geo = demo_geometry(res=(6, 3))
        generate_dataset(scene, geo, n_tx=2, seed=1, out_dir=tmp_path / "d",
                         fine_step=0.03)
        (tmp_path / "d" / "spectra" / "tx_00001.vxrf").unlink()
        with pytest.raises(FormatError, match="missing spectrum"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("field,offset,value", [
        ("magic", 0, b"XXXX"), ("version", 4, struct.pack("<I", 9))],
        ids=["bad_magic", "bad_version"])
    def test_bad_spectrum_header_rejected_at_load(self, tmp_path, field, offset, value):
        # the dataset loader checks each spectrum's header as read_spectrum does
        generate_dataset(demo_scene(), demo_geometry(res=(6, 3)), n_tx=2, seed=1,
                         out_dir=tmp_path / "d", fine_step=0.03)
        spath = tmp_path / "d" / "spectra" / "tx_00001.vxrf"
        blob = bytearray(spath.read_bytes())
        blob[offset:offset + len(value)] = value
        spath.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=field):
            load_dataset(tmp_path / "d")


    def test_non_finite_tx_position_rejected(self, tmp_path):
        generate_dataset(demo_scene(), demo_geometry(res=(6, 3)), n_tx=2, seed=1,
                         out_dir=tmp_path / "d", fine_step=0.03)
        manifest = tmp_path / "d" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["records"][1]["tx_position"][2] = float("nan")
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="record 1 tx_position"):
            load_dataset(tmp_path / "d")

    def test_missing_or_malformed_fields_rejected(self, tmp_path):
        generate_dataset(demo_scene(), demo_geometry(res=(6, 3)), n_tx=2, seed=1,
                         out_dir=tmp_path / "d", fine_step=0.03)
        manifest = tmp_path / "d" / "manifest.json"
        good = json.loads(manifest.read_text())
        for edit in (lambda doc: doc["scene"].pop("spectrum_res"),
                     lambda doc: doc["scene"].update(spectrum_res=[6.5, 3]),
                     lambda doc: doc["scene"].update(spectrum_res=[6, 3, 1]),
                     lambda doc: doc["scene"].update(spectrum_res=["6", "3"]),
                     lambda doc: doc.update(records=None)):
            doc = json.loads(json.dumps(good))
            edit(doc)
            manifest.write_text(json.dumps(doc))
            with pytest.raises(FormatError, match="missing or malformed"):
                load_dataset(tmp_path / "d")


class TestSceneValidation:
    """Non-finite or out-of-range scene parameters are rejected on
    construction, naming the field, and a scene file carrying one is a
    FormatError."""

    @pytest.mark.parametrize("field, value", [
        ("radius", float("nan")), ("radius", float("inf")), ("radius", 0.0),
        ("peak_density", float("nan")), ("peak_density", float("inf")),
        ("peak_density", -1.0)])
    def test_bad_blob_parameter_rejected(self, field, value):
        args = dict(center=[1.0, 1.0, 1.2], radius=0.25, peak_density=5.0,
                    emission=0.8)
        args[field] = value
        with pytest.raises(ValueError, match=field):
            Blob(**args)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_bad_tx_modulation_rejected(self, value):
        with pytest.raises(ValueError, match="tx_modulation"):
            demo_scene(tx_modulation=value)

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["blobs"][0].update(radius=float("nan")), "radius"),
        (lambda doc: doc["blobs"][0].update(radius=float("inf")), "radius"),
        (lambda doc: doc["blobs"][0].update(peak_density=float("inf")), "peak_density"),
        (lambda doc: doc.update(tx_modulation=float("nan")), "tx_modulation"),
        (lambda doc: doc["bbox"].update(max_corner=[2.0, 2.0, float("inf")]),
         "max_corner")],
        ids=["radius_nan", "radius_inf", "peak_density_inf", "tx_modulation_nan",
             "bbox_inf"])
    def test_non_finite_scene_file_value_is_format_error(self, tmp_path, edit, field):
        doc = {"bbox": {"min_corner": [0, 0, 0], "max_corner": [2, 2, 2]},
               "rx_position": [1.0, 1.0, 0.5],
               "blobs": [{"center": [1.0, 1.0, 1.3], "radius": 0.3,
                          "peak_density": 6.0, "emission": 0.8}]}
        load_scene_file(self._write(tmp_path, doc))
        edit(doc)
        with pytest.raises(FormatError, match=field):
            load_scene_file(self._write(tmp_path, doc))

    @pytest.mark.parametrize("res", [[12.7, 4, 9], [36.9, 9], ["36", "9"], [12], 12])
    def test_bad_spectrum_res_in_scene_file_is_format_error(self, tmp_path, res):
        doc = {"bbox": {"min_corner": [0, 0, 0], "max_corner": [2, 2, 2]},
               "rx_position": [1.0, 1.0, 0.5], "spectrum_res": [12, 4],
               "blobs": [{"center": [1.0, 1.0, 1.3], "radius": 0.3,
                          "peak_density": 6.0, "emission": 0.8}]}
        assert load_scene_file(self._write(tmp_path, doc))[1].spectrum_res == (12, 4)
        doc["spectrum_res"] = res
        with pytest.raises(FormatError, match="spectrum_res"):
            load_scene_file(self._write(tmp_path, doc))

    @staticmethod
    def _write(tmp_path, doc):
        # json writes NaN and Infinity tokens, as a hand-written file may hold
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        return path


class TestCheckpoint:
    def make_model(self, seed=3):
        box = Aabb(np.zeros(3), np.array([2.0, 2.0, 2.0]))
        m = init_field_model(box, (6, 6, 6), 4, 16, seed=seed)
        rng = np.random.default_rng(seed)
        m.density_grid.values[:] = rng.normal(size=m.density_grid.values.shape)
        m.feature_grid.values[:] = rng.normal(size=m.feature_grid.values.shape)
        return m

    def test_round_trip_is_stable(self, tmp_path):
        # Payloads are float32: one save/load settles the values, after which
        # the round trip is bit-exact in both directions.
        m = self.make_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, m, extra={"seed": 3, "iteration": 0})
        m2, meta = load_checkpoint(p1)
        assert meta["extra"]["seed"] == 3
        save_checkpoint(p2, m2)
        m3, _ = load_checkpoint(p2)
        for (n2, t2), (n3, t3) in zip(m2.parameters().items(), m3.parameters().items()):
            assert n2 == n3 and np.array_equal(t2, t3)

    def test_failed_rename_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            save_checkpoint(target, self.make_model())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_stale_tmp_directory_is_left_alone(self, tmp_path):
        stale = tmp_path / "m.ckpt.tmp"
        stale.mkdir()
        (stale / "keep").write_bytes(b"keep")
        m = self.make_model()
        save_checkpoint(tmp_path / "m.ckpt", m)
        back, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert all(np.array_equal(t, m.parameters()[n].astype(np.float32))
                   for n, t in back.parameters().items())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.tmp"]
        assert [p.name for p in stale.iterdir()] == ["keep"]
        assert (stale / "keep").read_bytes() == b"keep"
        # the mode a plain open() gives under the process umask
        (tmp_path / "plain").write_bytes(b"")
        assert (stat.S_IMODE((tmp_path / "m.ckpt").stat().st_mode)
                == stat.S_IMODE((tmp_path / "plain").stat().st_mode))

    def test_load_holds_no_copy_of_the_file(self, tmp_path):
        box = Aabb(np.zeros(3), np.ones(3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_field_model(box, (48, 48, 48), 16, 16, seed=0))
        tracemalloc.start()
        try:
            model, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        built = sum(t.nbytes for t in model.parameters().values())
        assert path.stat().st_size > 7 * 2**20
        assert peak < built + 2 * 2**20  # the float64 model and one chunk

    def test_chunked_save_writes_the_whole_array_bytes(self, tmp_path, monkeypatch):
        box = Aabb(np.zeros(3), np.ones(3))
        model = init_field_model(box, (48, 48, 47), 16, 16, seed=0)
        grid = model.feature_grid.values
        assert grid.size > 6 * dataio._TENSOR_CHUNK and grid.size % dataio._TENSOR_CHUNK
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "chunked.ckpt", model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # one float32 chunk, not the 6.9 MB grid
        monkeypatch.setattr(dataio, "_TENSOR_CHUNK", grid.size)
        save_checkpoint(tmp_path / "whole.ckpt", model)
        digests = {hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("chunked.ckpt", "whole.ckpt")}
        assert len(digests) == 1

    @pytest.mark.parametrize("res", [[6.5, 3], [6, 3, 1], ["6", "3"]])
    def test_bad_spectrum_res_in_extra_is_format_error(self, tmp_path, res):
        m = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, extra={"rx_position": [1.0, 1.0, 1.0], "spectrum_res": res})
        with pytest.raises(FormatError, match="spectrum_res"):
            geometry_from_checkpoint(path, load_checkpoint(path)[1])

    def test_loaded_model_renders_identically(self, tmp_path):
        m = self.make_model(seed=5)
        save_checkpoint(tmp_path / "m.ckpt", m)
        a, _ = load_checkpoint(tmp_path / "m.ckpt")
        b, _ = load_checkpoint(tmp_path / "m.ckpt")
        geo = SceneGeometry(rx_position=np.ones(3), bbox=m.bbox, spectrum_res=(6, 3))
        tx = np.array([0.5, 1.5, 1.0])
        assert np.array_equal(render_spectrum(a, geo, tx, tau=1e-4),
                              render_spectrum(b, geo, tx, tau=1e-4))
        # and close to the pre-save model (float32 quantization only)
        np.testing.assert_allclose(render_spectrum(a, geo, tx),
                                   render_spectrum(m, geo, tx), atol=1e-5)

    def test_query_behavior_preserved(self, tmp_path):
        m = self.make_model(seed=6)
        save_checkpoint(tmp_path / "m.ckpt", m)
        back, _ = load_checkpoint(tmp_path / "m.ckpt")
        x = np.array([1.0, 0.8, 1.2])
        d = np.array([0.0, 0.0, 1.0])
        assert query_signal(back, x, np.zeros(3), d) == pytest.approx(
            query_signal(m, x, np.zeros(3), d), abs=1e-6)
        assert back.deform_enabled == m.deform_enabled
        assert back.density_bias == m.density_bias

    @pytest.mark.parametrize("net_dtype", [np.float64, np.float32])
    def test_payload_is_each_tensors_float32_bytes(self, tmp_path, net_dtype):
        # trained models carry float32 nets next to float64 grids
        m = self.make_model()
        m.deform_net = m.deform_net.astype(net_dtype)
        m.radiance_net = m.radiance_net.astype(net_dtype)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        blob = path.read_bytes()
        off = 12 + struct.unpack_from("<4sII", blob, 0)[2]
        params = m.parameters()
        assert struct.unpack_from("<I", blob, off)[0] == len(params)
        off += 4
        for name, tensor in params.items():
            (n,) = struct.unpack_from("<I", blob, off)
            assert blob[off + 4:off + 4 + n] == name.encode("utf-8")
            off += 4 + n
            off += 4 + 4 * struct.unpack_from("<I", blob, off)[0]
            want = tensor.astype("<f4").tobytes()
            assert blob[off:off + len(want)] == want, name
            off += len(want)
        assert off == len(blob)

    def test_activation_keys_written(self, tmp_path):
        # the nets' activations are fixed, but the format still records them
        save_checkpoint(tmp_path / "m.ckpt", self.make_model())
        _, meta = load_checkpoint(tmp_path / "m.ckpt")
        assert {k: v for k, v in meta.items() if k.endswith("_activation")} == {
            "deform_hidden_activation": "relu", "deform_output_activation": "identity",
            "radiance_hidden_activation": "relu", "radiance_output_activation": "sigmoid"}

    def test_tampered_dims_detected(self, tmp_path):
        m = self.make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        blob = bytearray(path.read_bytes())
        marker = b'"grid_dims": [6, 6, 6]'
        i = blob.find(marker)
        assert i != -1
        blob[i:i + len(marker)] = b'"grid_dims": [7, 6, 6]'
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_desk_scale_size(self, tmp_path):
        box = Aabb(np.zeros(3), np.array([6.0, 6.0, 3.0]))
        m = init_field_model(box, (32, 32, 32), 8, 64, seed=0)
        path = tmp_path / "desk.ckpt"
        save_checkpoint(path, m)
        size = path.stat().st_size
        assert 1_150_000 < size < 1_300_000  # ~32^3 * 9 * 4 bytes + small MLPs


class TestCorruptFiles:
    """Every truncation and every flip of bit 0 or 7 of every byte of a small
    spectrum, checkpoint or manifest either loads or raises FormatError, which
    the CLI reports as exit code 4."""

    @staticmethod
    def variants(blob: bytes):
        for k in range(len(blob)):
            yield f"truncated to {k} bytes", blob[:k]
        for i in range(len(blob)):
            for bit in (0, 7):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                yield f"bit {bit} of byte {i} flipped", bytes(flipped)

    @staticmethod
    def write_files(root: Path):
        box = Aabb(np.zeros(3), np.ones(3))
        model = init_field_model(box, (2, 2, 2), 1, 1, seed=0, enc_pos_levels=1,
                                 enc_dir_levels=1)
        save_checkpoint(root / "m.ckpt", model,
                        extra={"rx_position": [0.5, 0.5, 0.5], "spectrum_res": [2, 2]})
        write_spectrum(root / "s.vxrf", np.array([[0.1, 0.2], [0.3, 0.4]]))
        geometry = SceneGeometry(np.full(3, 0.5), box, (2, 2))
        record = DatasetRecord(np.array([0.1, 0.2, 0.3]), "s.vxrf", -40.0)
        save_manifest(Dataset(geometry, 2.0, "linear", [record], root),
                      root / "manifest.json")

    @pytest.mark.parametrize("name", ["s.vxrf", "m.ckpt", "manifest.json"])
    def test_only_format_errors(self, tmp_path, name):
        def load(path):
            if name == "s.vxrf":
                read_spectrum(path)
            elif name == "m.ckpt":  # what `infer` reads from a checkpoint
                geometry_from_checkpoint(path, load_checkpoint(path)[1])
            else:
                load_dataset(path.parent).load_spectra()

        self.write_files(tmp_path)
        path = tmp_path / name
        original = path.read_bytes()
        load(path)
        rejected = 0
        for what, blob in self.variants(original):
            path.write_bytes(blob)
            try:
                load(path)
            except FormatError:
                rejected += 1
            except Exception as e:
                pytest.fail(f"{name}, {what}: {type(e).__name__}: {e}")
        # every truncation breaks the file; bit flips in values may not
        assert rejected >= len(original)
