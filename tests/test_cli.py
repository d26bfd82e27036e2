"""CLI wiring: commands, config merging, exit codes, determinism."""

import argparse
import dataclasses
import hashlib
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radiofield import cli, dataio, renderer
from radiofield.cli import (
    _SCHEMA,
    _load_config_file,
    _train_config,
    main,
    split_indices,
)
from radiofield.dataio import FormatError, load_checkpoint, load_dataset, read_spectrum
from radiofield.metrics import percentile_summary, rssi_error, ssim
from radiofield.renderer import aggregate_rssi, render_spectrum
from radiofield.trainer import TrainConfig


def run_cli(*args):
    """In-process invocation returning the exit code."""
    return main([str(a) for a in args])


def run_cli_subprocess(*args):
    return subprocess.run([sys.executable, "-m", "radiofield.cli", *map(str, args)],
                          capture_output=True, text=True)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def with_metadata(ckpt: Path, out: Path, edit) -> Path:
    """Copy of checkpoint ckpt at out, its JSON metadata changed by edit(meta)."""
    blob = ckpt.read_bytes()
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12:12 + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta).encode()
    out.write_bytes(blob[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes
                    + blob[12 + meta_len:])
    return out


def synth_small(tmp_path, name="data", seed=7, n_tx=6, res=(12, 4), extra=()):
    out = tmp_path / name
    code = run_cli("synth", "--scene", "demo", "--n-tx", n_tx, "--seed", seed,
                   "--out", out, "--res", *res, "--fine-step", 0.02, *extra)
    assert code == 0
    return out


TINY_TRAIN = ("--trainer.final_dims", 10, 10, 10, "--trainer.stages", 0,
              "--trainer.upsample_iters", "--trainer.total_iters", 40,
              "--trainer.batch_rays", 32, "--trainer.feature_dim", 4,
              "--trainer.mlp_width", 16, "--trainer.log_interval", 10)


class TestSynth:
    def test_writes_dataset(self, tmp_path):
        out = synth_small(tmp_path)
        ds = load_dataset(out)
        assert len(ds.records) == 6
        assert ds.geometry.spectrum_res == (12, 4)

    def test_deterministic(self, tmp_path):
        a = synth_small(tmp_path, "a")
        b = synth_small(tmp_path, "b")
        assert tree_digest(a) == tree_digest(b)

    def test_missing_out_is_usage_error(self, tmp_path):
        res = run_cli_subprocess("synth", "--scene", "demo", "--n-tx", 4)
        assert res.returncode == 2

    def test_missing_keys_reported_together(self, tmp_path, capsys):
        code = run_cli("synth", "--scene", "demo")
        assert code == 2
        err = capsys.readouterr().err
        assert "paths.out" in err and "run.n_tx" in err

    def test_unknown_scene_rejected(self, tmp_path):
        code = run_cli("synth", "--scene", "nope", "--n-tx", 2,
                       "--out", tmp_path / "x")
        assert code == 2


class TestConfigFile:
    def test_file_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "run": {"n_tx": 3, "seed": 5},
            "scene": {"fine_step": 0.02},
            "geometry": {"spectrum_res": [8, 3]},
        }))
        out = tmp_path / "d"
        assert run_cli("synth", "--config", cfg, "--out", out) == 0
        ds = load_dataset(out)
        assert len(ds.records) == 3
        assert ds.geometry.spectrum_res == (8, 3)
        out2 = tmp_path / "d2"
        assert run_cli("synth", "--config", cfg, "--out", out2, "--n-tx", 5) == 0
        assert len(load_dataset(out2).records) == 5

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trainer": {"totle_iters": 5}}))
        code = run_cli("train", "--config", cfg, "--data", "x", "--out", "y")
        assert code == 2
        assert "totle_iters" in capsys.readouterr().err

    # fixed constants of the trainer and the model, not configuration
    @pytest.mark.parametrize("key,value", [
        ("lr_mlp", 0.001), ("lr_decay_target_fraction", 0.5), ("density_bias", 0.0),
        ("enc_pos_levels", 3), ("enc_dir_levels", 2)])
    def test_fixed_constant_keys_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trainer": {key: value}}))
        code = run_cli("train", "--config", cfg, "--data", "x", "--out", "y")
        assert code == 2
        assert f"unknown config keys: trainer.{key}" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert run_cli("synth", "--config", cfg, "--n-tx", 2,
                       "--out", tmp_path / "o") == 2


SCENE = {"bbox": {"min_corner": [0, 0, 0], "max_corner": [2, 2, 2]},
         "rx_position": [1.0, 1.0, 0.5],
         "blobs": [{"center": [1.0, 1.0, 1.3], "radius": 0.3, "peak_density": 6.0,
                    "emission": 0.8}]}


def scene_bytes(drop=None, drop_blob=None, blob_field=None) -> bytes:
    doc = json.loads(json.dumps(SCENE))
    doc.pop(drop, None)
    for blob in doc["blobs"]:
        blob.pop(drop_blob, None)
        blob.update(blob_field or {})
    return json.dumps(doc).encode()


class TestMalformedInput:
    """Bad scene files exit 4 and wrongly typed config values exit 2, each
    with a message instead of a traceback."""

    def test_well_formed_scene_file_synthesizes(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_bytes(scene_bytes())
        assert run_cli("synth", "--scene", scene, "--n-tx", 1, "--res", 4, 2,
                       "--fine-step", 0.1, "--out", tmp_path / "d") == 0

    @pytest.mark.parametrize("content", [
        scene_bytes(drop="rx_position"),
        b"[1, 2]",
        scene_bytes(drop_blob="radius"),
        b"{nope",
        b'{"rx_position": "\xff"}',
    ], ids=["no_rx_position", "list_root", "blob_without_radius", "invalid_json",
            "not_utf8"])
    def test_malformed_scene_file_is_format_error(self, tmp_path, content):
        scene = tmp_path / "scene.json"
        scene.write_bytes(content)
        res = run_cli_subprocess("synth", "--scene", scene, "--n-tx", 1,
                                 "--out", tmp_path / "d")
        assert res.returncode == 4, res.stderr
        assert "Traceback" not in res.stderr and "format error" in res.stderr

    @pytest.mark.parametrize("field, value", [("radius", "NaN"), ("radius", "Infinity"),
                                              ("peak_density", "Infinity")])
    def test_non_finite_scene_file_value_is_format_error(self, tmp_path, field, value):
        scene = tmp_path / "scene.json"
        scene.write_bytes(scene_bytes(blob_field={field: float(value)}))
        assert value.encode() in scene.read_bytes()
        res = run_cli_subprocess("synth", "--scene", scene, "--n-tx", 1, "--res", 4, 2,
                                 "--fine-step", 0.1, "--out", tmp_path / "d")
        assert res.returncode == 4, res.stderr
        assert "Traceback" not in res.stderr and field in res.stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("res", [[12.7, 4, 9], [36.9, 9], ["36", "9"]])
    def test_bad_spectrum_res_in_scene_file_is_format_error(self, tmp_path, res):
        # [12.7, 4, 9] once synthesized a 12x4 dataset and exited 0
        doc = json.loads(scene_bytes())
        doc["spectrum_res"] = res
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        run = run_cli_subprocess("synth", "--scene", scene, "--n-tx", 1,
                                 "--fine-step", 0.1, "--out", tmp_path / "d")
        assert run.returncode == 4, run.stderr
        assert "Traceback" not in run.stderr and "spectrum_res" in run.stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("doc,args", [
        ({"paths": {"out": 5}}, ["synth", "--n-tx", "1"]),
        ({"run": {"n_tx": [3]}}, ["synth", "--out", "OUT"]),
        ({"trainer": {"deform_enabled": "no"}}, ["train", "--data", "DATA", "--out", "OUT"]),
        ({"trainer": {"final_dims": [8, 8]}}, ["train", "--data", "DATA", "--out", "OUT"]),
    ], ids=["out_number", "n_tx_list", "deform_enabled_string", "final_dims_short"])
    def test_wrongly_typed_config_value_is_config_error(self, tmp_path, doc, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        args = [tmp_path / a if a.isupper() else a for a in args]
        res = run_cli_subprocess(*args, "--config", cfg)
        assert res.returncode == 2, res.stderr
        ((section, body),) = doc.items()
        assert "Traceback" not in res.stderr and f"{section}.{next(iter(body))}" in res.stderr

    @pytest.mark.parametrize("command,args,field", [
        ("train", ["--trainer.log_interval", "0"], "log_interval"),
        ("train", ["--trainer.log_interval", "-2"], "log_interval"),
        ("train", ["--trainer.final_dims", "3", "3", "0", "--trainer.stages", "1",
                   "--trainer.upsample_iters", "20"], "final_dims"),
        ("train", ["--trainer.stages", "3", "--trainer.upsample_iters", "-3", "1", "2"],
         "upsample_iters"),
        ("train", ["--trainer.tau", "-1"], "tau"),
        ("train", ["--trainer.tau", "nan"], "tau"),
        ("train", ["--trainer.lr_grid", "-0.5"], "lr_grid"),
        ("train", ["--trainer.lr_grid", "inf"], "lr_grid"),
        ("train", ["--trainer.total_iters", "-5"], "total_iters"),
        ("train", ["--trainer.feature_dim", "0"], "feature_dim"),
        ("train", ["--trainer.mlp_width", "0"], "mlp_width"),
        ("train", ["--trainer.bg_weight", "nan"], "bg_weight"),
        ("train", ["--trainer.bg_weight", "inf"], "bg_weight"),
        ("train", ["--trainer.bg_weight", "-1"], "bg_weight"),
        ("train", ["--trainer.seed", "-1"], "seed"),
        ("train", ["--trainer.stages", "-1"], "stages"),
        ("infer", ["--tau", "nan"], "tau"),
        ("eval", ["--tau", "nan"], "tau"),
        ("synth", ["--rssi-noise-db", "nan"], "rssi_noise_db"),
        ("synth", ["--rssi-noise-db", "-1"], "rssi_noise_db"),
        ("synth", ["--fine-step", "nan"], "fine_step"),
        ("synth", ["--tx-modulation", "nan"], "tx_modulation"),
        ("synth", ["--tx-modulation", "inf"], "tx_modulation"),
    ], ids=["log_interval_0", "log_interval_negative",
            "final_dims_zero", "upsample_iter_negative", "train_tau_negative",
            "train_tau_nan", "lr_grid_negative", "lr_grid_inf",
            "total_iters_negative", "feature_dim_0", "mlp_width_0",
            "bg_weight_nan", "bg_weight_inf", "bg_weight_negative", "seed_negative",
            "stages_negative",
            "infer_tau_nan", "eval_tau_nan", "rssi_noise_nan", "rssi_noise_negative",
            "fine_step_nan", "tx_modulation_nan", "tx_modulation_inf"])
    def test_bad_value_is_config_error(self, pipeline, tmp_path, capsys, command,
                                       args, field):
        # in process: an exception escaping main() fails the test, as it would
        # end the command in a traceback
        _, data, ckpt, _ = pipeline
        base = {"train": ["--data", data, *TINY_TRAIN],
                "infer": ["--checkpoint", ckpt, "--tx", 1, 1, 1],
                "eval": ["--checkpoint", ckpt, "--data", data],
                "synth": ["--n-tx", 1, "--res", 4, 2, "--fine-step", 0.1]}[command]
        code = run_cli(command, *base, *args, "--out", tmp_path / "out")
        assert code == 2 and field in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["ture", "nope", ""])
    def test_bool_flag_typo_is_usage_error(self, tmp_path, word):
        # argparse ends the command, so in a subprocess
        res = run_cli_subprocess("train", "--data", tmp_path / "d",
                                 "--out", tmp_path / "m.ckpt",
                                 "--trainer.deform_enabled", word)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "--trainer.deform_enabled" in res.stderr and repr(word) in res.stderr

    @pytest.mark.parametrize("word,want", [
        ("1", True), ("true", True), ("True", True), ("YES", True),
        ("0", False), ("false", False), ("FALSE", False), ("No", False)])
    def test_bool_flag_words(self, word, want):
        assert cli._parse_bool(word) is want

    @pytest.mark.parametrize("args", [
        ["--trainer.batch_rays", "100000000000"],
        ["--trainer.final_dims", "100000", "100000", "100000", "--trainer.stages", "0"],
    ], ids=["batch_rays", "final_dims"])
    def test_unallocatable_size_is_config_error(self, pipeline, tmp_path, capsys, args):
        # in process, at sizes far beyond any machine's memory, which numpy
        # refuses at once: 800 GB of batch indices, a 10^15-node grid
        _, data, _, _ = pipeline
        code = run_cli("train", "--data", data, *TINY_TRAIN, *args,
                       "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2 and "out of memory for the configured sizes" in err
        assert len(err.strip().splitlines()) == 1

    def test_config_values_reach_train_config_unconverted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trainer": {"deform_enabled": False,
                                               "final_dims": [8, 8, 8],
                                               "upsample_iters": [],
                                               "stages": 0, "lr_grid": 1}}))
        config = _train_config(_load_config_file(str(cfg)))
        assert config.deform_enabled is False
        assert config.final_dims == (8, 8, 8) and config.upsample_iters == ()
        assert config.lr_grid == 1


_TRAINER_FLAGS = {  # field -> (parser type, nargs)
    "final_dims": ("int", 3), "feature_dim": ("int", None), "mlp_width": ("int", None),
    "stages": ("int", None), "upsample_iters": ("int", "*"),
    "total_iters": ("int", None), "batch_rays": ("int", None),
    "lr_grid": ("float", None), "tau": ("float", None),
    "bg_weight": ("float", None), "seed": ("int", None),
    "deform_enabled": ("_parse_bool", None), "log_interval": ("int", None)}

_FLAGS = {  # dotted key -> (flags, parser type, nargs, help)
    "scene.name": (("--scene.name", "--scene"), "str", None,
                   "builtin scene (demo, demo-static) or scene JSON path"),
    "scene.tx_modulation": (("--scene.tx_modulation", "--tx-modulation"), "float", None,
                            "override transmitter modulation strength"),
    "scene.rssi_noise_db": (("--scene.rssi_noise_db", "--rssi-noise-db"), "float", None,
                            "attach ground-truth RSSI with this noise"),
    "scene.fine_step": (("--scene.fine_step", "--fine-step"), "float", None,
                        "oracle quadrature step in meters"),
    "geometry.spectrum_res": (("--geometry.spectrum_res", "--res"), "int", 2,
                              "azimuth x elevation cells"),
    "run.seed": (("--run.seed", "--seed"), "int", None, "generation seed"),
    "run.n_tx": (("--run.n_tx", "--n-tx"), "int", None,
                 "transmitter count to synthesize"),
    "run.split_seed": (("--run.split_seed", "--split-seed"), "int", None,
                       "train/test shuffle seed"),
    "run.train_fraction": (("--run.train_fraction", "--train-fraction"), "float", None,
                           "fraction of records used for training"),
    "run.profile": (("--run.profile", "--profile"), "str", None,
                    "trainer profile: desk or paper"),
    "run.tau": (("--run.tau", "--tau"), "float", None,
                "empty-space skip threshold at inference"),
    "run.tx": (("--run.tx", "--tx"), "float", 3, "transmitter position to infer"),
    "run.rssi": (("--run.rssi", "--rssi"), None, 0, "also evaluate RSSI predictions"),
    "paths.data": (("--paths.data", "--data"), "str", None, "dataset directory"),
    "paths.out": (("--paths.out", "--out"), "str", None, "output path"),
    "paths.log": (("--paths.log", "--log"), "str", None, "training log CSV path"),
    "paths.checkpoint": (("--paths.checkpoint", "--checkpoint"), "str", None,
                         "model checkpoint path"),
    **{f"trainer.{k}": ((f"--trainer.{k}",), t, n, None)
       for k, (t, n) in _TRAINER_FLAGS.items()},
}

_COMMANDS = {  # command -> (keys it takes, keys it requires)
    "synth": (["scene.name", "scene.tx_modulation", "scene.rssi_noise_db",
               "scene.fine_step", "geometry.spectrum_res", "run.seed", "run.n_tx",
               "paths.out"], ["paths.out", "run.n_tx"]),
    "train": ([f"trainer.{k}" for k in _TRAINER_FLAGS]
              + ["run.profile", "run.split_seed", "run.train_fraction", "paths.data",
                 "paths.out", "paths.log"], ["paths.data", "paths.out"]),
    "infer": (["paths.checkpoint", "run.tx", "run.tau", "paths.out"],
              ["paths.checkpoint", "paths.out", "run.tx"]),
    "eval": (["paths.checkpoint", "paths.data", "run.split_seed", "run.train_fraction",
              "run.tau", "run.rssi", "paths.out"],
             ["paths.checkpoint", "paths.data", "paths.out"]),
}

# what every command resolves a key to when neither a file nor a flag sets it
_RESOLVED_DEFAULTS = {"scene.name": "demo", "run.seed": 0, "run.split_seed": 0,
                      "run.train_fraction": 0.8, "run.profile": "desk",
                      "run.tau": 1e-4, "run.rssi": False}

_REQUIRED_ARGS = {"run.n_tx": ["3"], "paths.out": ["o"], "paths.data": ["d"],
                  "paths.checkpoint": ["c"], "run.tx": ["1", "2", "3"]}


def _subparsers():
    parser = cli._build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestSchema:
    def test_trainer_keys_are_train_config_fields(self):
        keys = {k.split(".", 1)[1] for k in _SCHEMA if k.startswith("trainer.")}
        assert keys == {f.name for f in dataclasses.fields(TrainConfig)}

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_command_flags_snapshot(self, command):
        """Each command's flags, aliases, parser types, nargs and help."""
        sub = _subparsers()[command]
        got = {a.dest: (tuple(a.option_strings), getattr(a.type, "__name__", a.type),
                        a.nargs, a.help)
               for a in sub._actions if a.dest not in ("help", "config")}
        assert got == {key: _FLAGS[key] for key in _COMMANDS[command][0]}
        assert all(a.default is cli._UNSET for a in sub._actions
                   if a.dest not in ("help", "config"))

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_command_resolved_defaults(self, command):
        required = _COMMANDS[command][1]
        argv = [command] + [w for key in required
                            for w in [_FLAGS[key][0][0], *_REQUIRED_ARGS[key]]]
        ns = cli._build_parser().parse_args(argv)
        given = {key: vars(ns)[key] for key in required}
        assert cli._resolve(ns, command) == {**_RESOLVED_DEFAULTS, **given}

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_command_required_keys(self, command, capsys):
        assert main([command]) == 2
        assert capsys.readouterr().err == (
            "config error: missing required options: "
            f"{', '.join(_COMMANDS[command][1])}\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    data = synth_small(tmp, "data", n_tx=10, extra=("--rssi-noise-db", 1.0))
    ckpt = tmp / "model.ckpt"
    log = tmp / "train.csv"
    code = run_cli("train", "--data", data, "--out", ckpt, "--log", log,
                   "--split-seed", 0, *TINY_TRAIN)
    assert code == 0
    return tmp, data, ckpt, log


class TestTrainInferEval:
    def test_train_writes_checkpoint_and_log(self, pipeline):
        _, _, ckpt, log = pipeline
        assert ckpt.exists()
        lines = log.read_text().splitlines()
        assert len(lines) == 5  # iters 0,10,20,30,39
        assert all(len(l.split(",")) == 6 for l in lines)

    def test_train_beside_stale_tmp_directory(self, pipeline, tmp_path):
        _, data, _, _ = pipeline
        out, stale = tmp_path / "m.ckpt", tmp_path / "m.ckpt.tmp"
        stale.mkdir()
        (stale / "keep").write_bytes(b"keep")
        assert run_cli("train", "--data", data, "--out", out, "--log", tmp_path / "l.csv",
                       "--split-seed", 0, *TINY_TRAIN) == 0
        load_checkpoint(out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "m.ckpt",
                                                              "m.ckpt.tmp"]
        assert [p.name for p in stale.iterdir()] == ["keep"]
        assert (stale / "keep").read_bytes() == b"keep"

    def test_infer_writes_spectrum_and_reports_time(self, pipeline):
        tmp, _, ckpt, _ = pipeline
        out = tmp / "new" / "dir" / "spec.vxrf"  # infer makes the directories
        res = run_cli_subprocess("infer", "--checkpoint", ckpt,
                                 "--tx", 2.0, 2.0, 1.0, "--out", out)
        assert res.returncode == 0
        assert "inference time" in res.stderr
        spec = read_spectrum(out)
        assert spec.shape == (12, 4)

    def test_eval_writes_metrics(self, pipeline):
        tmp, data, ckpt, _ = pipeline
        out = tmp / "metrics"
        code = run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--split-seed", 0, "--out", out, "--rssi")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {"p25", "median", "p75"} <= set(summary["ssim"])
        assert summary["n_test"] == 2
        assert (out / "ssim_cdf.csv").exists()
        # each row names its dataset record, not its position among the rows
        _, test_idx = split_indices(10, 0, 0.8)
        assert test_idx.tolist() != list(range(len(test_idx)))
        for name, header in (("ssim.csv", "tx_index,ssim"),
                             ("rssi_error.csv", "record_index,rssi_error_db")):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == header
            assert [int(line.split(",")[0]) for line in lines[1:]] == test_idx.tolist()

    @pytest.mark.parametrize("side,message", [
        ("train", "--rssi requires training records with rssi_dbm"),
        ("held-out", "no held-out records carry rssi_dbm")], ids=["train", "held-out"])
    def test_eval_rssi_without_measurements_renders_and_writes_nothing(
            self, pipeline, tmp_path, monkeypatch, capsys, side, message):
        _, data, ckpt, _ = pipeline
        stripped = tmp_path / "data"
        shutil.copytree(data, stripped)
        manifest = stripped / "manifest.json"
        doc = json.loads(manifest.read_text())
        train_idx, test_idx = split_indices(len(doc["records"]), 0, 0.8)
        for i in train_idx if side == "train" else test_idx:
            del doc["records"][i]["rssi_dbm"]
        manifest.write_text(json.dumps(doc))

        def no_render(*args, **kwargs):
            raise AssertionError("rendered before the --rssi checks")

        monkeypatch.setattr(cli, "render_spectra", no_render)
        out = tmp_path / "metrics"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", stripped,
                       "--split-seed", 0, "--out", out, "--rssi") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_eval_builds_at_most_two_sample_tables(self, pipeline, tmp_path,
                                                   monkeypatch):
        # one for the held-out records, one for the calibration records,
        # however many records each has
        _, data, ckpt, _ = pipeline
        built = []

        class CountedTable(renderer.SampleTable):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(renderer, "SampleTable", CountedTable)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--split-seed", 0,
                       "--out", tmp_path / "metrics", "--rssi") == 0
        assert 1 <= len(built) <= 2

    def test_eval_builds_one_sample_table(self, pipeline, tmp_path, monkeypatch):
        # the held-out and the calibration records share one render
        _, data, ckpt, _ = pipeline
        built = []

        class CountedTable(renderer.SampleTable):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(renderer, "SampleTable", CountedTable)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--split-seed", 0,
                       "--out", tmp_path / "metrics", "--rssi") == 0
        assert len(built) == 1

    def test_eval_summary_matches_single_renders(self, pipeline, tmp_path):
        # the summary recomputed from one render_spectrum per record, with the
        # calibration as the mean residual its docstring states
        _, data, ckpt, _ = pipeline
        out = tmp_path / "metrics"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--split-seed", 0,
                       "--out", out, "--rssi") == 0
        summary = json.loads((out / "summary.json").read_text())
        model, _ = load_checkpoint(ckpt)
        ds = load_dataset(data)
        train_idx, test_idx = split_indices(len(ds.records), 0, 0.8)
        spectra = [render_spectrum(model, ds.geometry, rec.tx_position, tau=1e-4)
                   for rec in ds.records]
        targets = ds.load_spectra()
        calibration = np.mean([ds.records[i].rssi_dbm - 10 * np.log10(spectra[i].sum())
                               for i in train_idx])
        _, rssi_summary = rssi_error(
            [aggregate_rssi(spectra[i], calibration) for i in test_idx],
            [ds.records[i].rssi_dbm for i in test_idx])
        want = {"n_test": len(test_idx), "rssi_calibration_db": calibration,
                "ssim": percentile_summary([ssim(spectra[i], targets[i])
                                            for i in test_idx]),
                "rssi_error_db": rssi_summary}
        assert summary.keys() == want.keys()
        assert summary["n_test"] == want["n_test"]
        assert summary["rssi_calibration_db"] == pytest.approx(calibration, rel=1e-12)
        for key in ("ssim", "rssi_error_db"):
            assert summary[key].keys() == want[key].keys()
            for stat, value in want[key].items():
                assert summary[key][stat] == pytest.approx(value, rel=1e-12), (key, stat)

    def test_eval_deterministic(self, pipeline):
        tmp, data, ckpt, _ = pipeline
        for name in ("m1", "m2"):
            assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                           "--split-seed", 3, "--out", tmp / name) == 0
        assert tree_digest(tmp / "m1") == tree_digest(tmp / "m2")

    def test_corrupt_checkpoint_exit_code(self, pipeline, tmp_path):
        tmp, _, _, _ = pipeline
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        code = run_cli("infer", "--checkpoint", bad, "--tx", 1, 1, 1,
                       "--out", tmp_path / "o.vxrf")
        assert code == 4

    def test_checkpoint_without_grid_dims_exit_code(self, pipeline, tmp_path):
        _, _, ckpt, _ = pipeline
        bad = with_metadata(ckpt, tmp_path / "no_dims.ckpt",
                            lambda meta: meta.pop("grid_dims"))
        code = run_cli("infer", "--checkpoint", bad, "--tx", 1, 1, 1,
                       "--out", tmp_path / "o.vxrf")
        assert code == 4

    @pytest.mark.parametrize("key,value", [
        ("radiance_output_activation", "identity"),
        ("radiance_hidden_activation", "sigmoid"),
        ("deform_hidden_activation", "identity"),
        ("deform_output_activation", "relu"),
    ])
    def test_other_activation_is_format_error(self, pipeline, tmp_path, key, value):
        # the nets are fixed ReLU MLPs with a linear deformation output and a
        # sigmoid radiance output; a checkpoint recording others is not loaded
        # as some other net
        _, _, ckpt, _ = pipeline
        bad = with_metadata(ckpt, tmp_path / "act.ckpt",
                            lambda meta: meta.update({key: value}))
        with pytest.raises(FormatError, match=key):
            load_checkpoint(bad)
        assert run_cli("infer", "--checkpoint", bad, "--tx", 1, 1, 1,
                       "--out", tmp_path / "o.vxrf") == 4

    @pytest.mark.parametrize("key,value", [
        ("deform_enabled", "false"), ("deform_enabled", 0),
        ("enc_pos_levels", 5.7), ("enc_pos_levels", "4"),
        ("enc_dir_levels", 2.0), ("enc_dir_levels", True),
        ("feature_dim", "4"), ("feature_dim", 4.0),
        ("density_bias", "-1.0"), ("density_bias", None),
        ("bbox_min", ["0", "0", "0"]), ("bbox_max", [2.0, 2.0, True]),
    ])
    def test_mistyped_metadata_is_format_error(self, pipeline, tmp_path, key, value):
        # checked, not coerced: "false" would load with deformation on, 5.7 as 5
        _, _, ckpt, _ = pipeline
        bad = with_metadata(ckpt, tmp_path / "typed.ckpt",
                            lambda meta: meta.update({key: value}))
        with pytest.raises(FormatError, match=key):
            load_checkpoint(bad)
        assert run_cli("infer", "--checkpoint", bad, "--tx", 1, 1, 1,
                       "--out", tmp_path / "o.vxrf") == 4

    def test_integer_density_bias_loads(self, pipeline, tmp_path):
        _, _, ckpt, _ = pipeline
        ok = with_metadata(ckpt, tmp_path / "int_bias.ckpt",
                           lambda meta: meta.update(density_bias=-2))
        model, _ = load_checkpoint(ok)
        assert model.density_bias == -2.0 and type(model.density_bias) is float

    def test_checkpoint_with_bad_spectrum_res_exit_code(self, pipeline, tmp_path):
        _, _, ckpt, _ = pipeline
        bad = with_metadata(ckpt, tmp_path / "res.ckpt",
                            lambda meta: meta["extra"].update(spectrum_res=[12.7, 4]))
        res = run_cli_subprocess("infer", "--checkpoint", bad, "--tx", 1, 1, 1,
                                 "--out", tmp_path / "o.vxrf")
        assert res.returncode == 4, res.stderr
        assert "Traceback" not in res.stderr and "spectrum_res" in res.stderr
        assert not (tmp_path / "o.vxrf").exists()

    def test_undecodable_tensor_name_exit_code(self, pipeline, tmp_path):
        _, _, ckpt, _ = pipeline
        blob = bytearray(ckpt.read_bytes())
        i = blob.index(b"density_grid")
        blob[i] ^= 0x80  # no longer UTF-8
        bad = tmp_path / "bad_name.ckpt"
        bad.write_bytes(bytes(blob))
        code = run_cli("infer", "--checkpoint", bad, "--tx", 1, 1, 1,
                       "--out", tmp_path / "o.vxrf")
        assert code == 4

    def test_manifest_without_rx_position_exit_code(self, tmp_path):
        data = synth_small(tmp_path, n_tx=2)
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["scene"]["rx_position"]
        manifest.write_text(json.dumps(doc))
        code = run_cli("train", "--data", data, "--out", tmp_path / "m.ckpt",
                       *TINY_TRAIN)
        assert code == 4

    def test_missing_data_dir_exit_code(self, tmp_path):
        code = run_cli("train", "--data", tmp_path / "absent",
                       "--out", tmp_path / "m.ckpt", *TINY_TRAIN)
        assert code == 3


def refuse(stage):
    def fail(*args, **kwargs):
        raise AssertionError(f"{stage} started before the output target was checked")
    return fail


class TestOutputTargetCheckedFirst:
    """An output target that can never be written fails with exit 3 before any
    training, rendering or synthesis, and leaves nothing behind."""

    @pytest.mark.parametrize("taken", ["out", "log"])
    def test_train_target_is_directory(self, pipeline, tmp_path, monkeypatch, capsys,
                                       taken):
        _, data, _, _ = pipeline
        monkeypatch.setattr(cli, "train", refuse("training"))
        paths = {"out": tmp_path / "m.ckpt", "log": tmp_path / "train.csv"}
        paths[taken].mkdir()
        assert run_cli("train", "--data", data, "--out", paths["out"],
                       "--log", paths["log"], *TINY_TRAIN) == 3
        assert "output file is a directory" in capsys.readouterr().err
        # no log was started and no <out>.tmp checkpoint was left
        assert [p.name for p in tmp_path.iterdir()] == [paths[taken].name]
        assert not any(paths[taken].iterdir())

    def test_infer_out_is_directory(self, pipeline, tmp_path, monkeypatch, capsys):
        _, _, ckpt, _ = pipeline
        monkeypatch.setattr(cli, "render_spectrum", refuse("rendering"))
        assert run_cli("infer", "--checkpoint", ckpt, "--tx", 1, 1, 1,
                       "--out", tmp_path) == 3
        assert "output file is a directory" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("out", ["taken", "taken/data"], ids=["file", "under_file"])
    def test_synth_out_is_file(self, tmp_path, monkeypatch, out):
        monkeypatch.setattr(dataio, "oracle_render_spectra", refuse("synthesis"))
        (tmp_path / "taken").write_bytes(b"keep")
        assert run_cli("synth", "--scene", "demo", "--n-tx", 4,
                       "--out", tmp_path / out) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert (tmp_path / "taken").read_bytes() == b"keep"


class TestRenderArgumentsCheckedFirst:
    """A skip threshold or transmitter the renderer would refuse fails with
    exit 2 before the checkpoint or dataset is read, and creates nothing."""

    @pytest.mark.parametrize("command,args,out", [
        ("eval", ["--tau", "nan"], "M"),
        ("infer", ["--tau", "-1", "--tx", 1, 1, 1], "a/b/o.vxrf"),
        ("infer", ["--tx", "nan", 1, 1], "a/b/o.vxrf"),
    ], ids=["eval_tau_nan", "infer_tau_negative", "infer_tx_nan"])
    def test_bad_value_reads_and_creates_nothing(self, pipeline, tmp_path, monkeypatch,
                                                 capsys, command, args, out):
        _, data, ckpt, _ = pipeline
        monkeypatch.setattr(cli, "load_checkpoint", refuse("loading the checkpoint"))
        monkeypatch.setattr(cli, "load_dataset", refuse("loading the dataset"))
        base = {"eval": ["--data", data], "infer": []}[command]
        assert run_cli(command, "--checkpoint", ckpt, *base, *args,
                       "--out", tmp_path / out) == 2
        assert "config error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestSplit:
    def test_split_deterministic_and_disjoint(self):
        a_train, a_test = split_indices(50, split_seed=4, train_fraction=0.8)
        b_train, b_test = split_indices(50, split_seed=4, train_fraction=0.8)
        assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
        assert len(a_train) == 40 and len(a_test) == 10
        assert set(a_train).isdisjoint(a_test)
        assert set(a_train) | set(a_test) == set(range(50))

    def test_different_seeds_differ(self):
        a, _ = split_indices(50, split_seed=1, train_fraction=0.8)
        b, _ = split_indices(50, split_seed=2, train_fraction=0.8)
        assert not np.array_equal(a, b)

    def test_bad_fraction_rejected(self):
        from radiofield.cli import ConfigError
        with pytest.raises(ConfigError):
            split_indices(10, 0, 0.0)
