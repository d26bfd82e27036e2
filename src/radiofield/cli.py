"""Command-line pipeline: synth, train, infer, eval.

Configuration lives in an optional JSON file (sections: scene, geometry,
trainer, run, paths) and every leaf is overridable by a flag of the same
dotted name; common flags have short aliases (--out, --data, --seed, ...).
Exit codes: 0 success, 2 configuration, 3 I/O, 4 file format, 5 numerical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .dataio import (
    Blob,
    Dataset,
    FormatError,
    SyntheticScene,
    generate_dataset,
    load_checkpoint,
    load_dataset,
    read_spectrum,
    save_checkpoint,
    write_spectrum,
)
from .metrics import percentile_summary, rssi_error, ssim, write_cdf_csv, write_indexed_csv
from .renderer import SceneGeometry, aggregate_rssi, render_spectrum
from .trainer import NumericalError, TrainConfig, fit_rssi_calibration, train
from .voxel_grid import Aabb


class ConfigError(Exception):
    """Bad, unknown, or missing configuration."""


_UNSET = object()


def _parse_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


# dotted key -> (parser kwargs); aliases give the short spec-style flags
_SCHEMA = {
    "scene.name": dict(type=str, help="builtin scene (demo, demo-static) or scene JSON path",
                       alias="--scene"),
    "scene.tx_modulation": dict(type=float, help="override transmitter modulation strength",
                                alias="--tx-modulation"),
    "scene.rssi_noise_db": dict(type=float, help="attach ground-truth RSSI with this noise",
                                alias="--rssi-noise-db"),
    "scene.fine_step": dict(type=float, help="oracle quadrature step in meters",
                            alias="--fine-step"),
    "geometry.spectrum_res": dict(type=int, nargs=2, help="azimuth x elevation cells",
                                  alias="--res"),
    "trainer.final_dims": dict(type=int, nargs=3),
    "trainer.feature_dim": dict(type=int),
    "trainer.mlp_width": dict(type=int),
    "trainer.stages": dict(type=int),
    "trainer.upsample_iters": dict(type=int, nargs="*"),
    "trainer.total_iters": dict(type=int),
    "trainer.batch_rays": dict(type=int),
    "trainer.lr_grid": dict(type=float),
    "trainer.lr_mlp": dict(type=float),
    "trainer.lr_decay_target_fraction": dict(type=float),
    "trainer.tau": dict(type=float),
    "trainer.bg_weight": dict(type=float),
    "trainer.seed": dict(type=int),
    "trainer.density_bias": dict(type=float),
    "trainer.enc_pos_levels": dict(type=int),
    "trainer.enc_dir_levels": dict(type=int),
    "trainer.deform_enabled": dict(type=_parse_bool),
    "trainer.log_interval": dict(type=int),
    "run.seed": dict(type=int, help="generation seed", alias="--seed"),
    "run.n_tx": dict(type=int, help="transmitter count to synthesize", alias="--n-tx"),
    "run.split_seed": dict(type=int, help="train/test shuffle seed", alias="--split-seed"),
    "run.train_fraction": dict(type=float, help="fraction of records used for training",
                               alias="--train-fraction"),
    "run.profile": dict(type=str, help="trainer profile: desk or paper",
                        alias="--profile"),
    "run.tau": dict(type=float, help="empty-space skip threshold at inference",
                    alias="--tau"),
    "run.tx": dict(type=float, nargs=3, help="transmitter position to infer",
                   alias="--tx"),
    "run.rssi": dict(action="store_true", help="also evaluate RSSI predictions",
                     alias="--rssi"),
    "paths.data": dict(type=str, help="dataset directory", alias="--data"),
    "paths.out": dict(type=str, help="output path", alias="--out"),
    "paths.log": dict(type=str, help="training log CSV path", alias="--log"),
    "paths.checkpoint": dict(type=str, help="model checkpoint path", alias="--checkpoint"),
}

_COMMAND_KEYS = {
    "synth": ["scene.name", "scene.tx_modulation", "scene.rssi_noise_db",
              "scene.fine_step", "geometry.spectrum_res", "run.seed", "run.n_tx",
              "paths.out"],
    "train": [k for k in _SCHEMA if k.startswith("trainer.")]
    + ["run.profile", "run.split_seed", "run.train_fraction", "paths.data",
       "paths.out", "paths.log"],
    "infer": ["paths.checkpoint", "run.tx", "run.tau", "paths.out"],
    "eval": ["paths.checkpoint", "paths.data", "run.split_seed", "run.train_fraction",
             "run.tau", "run.rssi", "paths.out"],
}

_REQUIRED = {
    "synth": ["run.n_tx", "paths.out"],
    "train": ["paths.data", "paths.out"],
    "infer": ["paths.checkpoint", "run.tx", "paths.out"],
    "eval": ["paths.checkpoint", "paths.data", "paths.out"],
}

_DEFAULTS = {
    "scene.name": "demo",
    "run.seed": 0,
    "run.split_seed": 0,
    "run.train_fraction": 0.8,
    "run.profile": "desk",
    "run.tau": 1e-4,
    "run.rssi": False,
}


# per flag parser type: the JSON type(s) a config-file value may take
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", int),
               str: ("a string", str), _parse_bool: ("true or false", bool)}


def _check_config_value(key: str, value) -> None:
    """Raise ConfigError unless value is what the flag of key parses: one value
    of its type (a bool for a store_true flag), or a list of nargs of them."""
    spec = _SCHEMA[key]
    name, types = _JSON_TYPES[spec.get("type", _parse_bool)]
    nargs = spec.get("nargs")
    items = [value] if nargs is None else value
    # bool is an int subclass: only a bool key takes one
    if not (isinstance(items, list) and nargs in (None, "*", len(items))
            and all(isinstance(v, types) and isinstance(v, bool) == (types is bool)
                    for v in items)):
        if nargs is not None:
            name = f"a list of {'' if nargs == '*' else f'{nargs} '}values, each {name}"
        raise ConfigError(f"config key {key} must be {name}, got {value!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be an object")
    flat = {}
    unknown = []
    for section, body in doc.items():
        if not isinstance(body, dict):
            unknown.append(section)
            continue
        for key, value in body.items():
            dotted = f"{section}.{key}"
            if dotted in _SCHEMA:
                _check_config_value(dotted, value)
                flat[dotted] = value
            else:
                unknown.append(dotted)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return flat


def _resolve(ns: argparse.Namespace, command: str) -> dict:
    """Merge defaults, config file, and flags; report all missing keys at once."""
    cfg = dict(_DEFAULTS)
    if getattr(ns, "config", None):
        cfg.update(_load_config_file(ns.config))
    for key in _COMMAND_KEYS[command]:
        val = vars(ns).get(key, _UNSET)
        if val is not _UNSET and val is not None:
            cfg[key] = val
    missing = sorted(k for k in _REQUIRED[command] if cfg.get(k) is None)
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")
    return cfg


def builtin_scene(name: str, tx_modulation: float | None = None):
    """Built-in desk-scale scenes, or a scene JSON file, plus matching geometry.

    A scene file that is not a UTF-8 JSON object with every field well formed
    raises FormatError.
    """
    if name in ("demo", "demo-static"):
        box = Aabb(np.zeros(3), np.full(3, 3.5))
        rx = np.array([1.75, 1.75, 1.4])
        blobs = [Blob([1.63, 1.91, 2.47], 0.33, 8.0, 0.85),
                 Blob([0.93, 2.52, 2.08], 0.31, 7.0, 0.6),
                 Blob([2.71, 1.13, 1.96], 0.29, 8.0, 0.7)]
        mod = 0.0 if name == "demo-static" else 0.5
        if tx_modulation is not None:
            mod = tx_modulation
        scene = SyntheticScene(bbox=box, rx_position=rx, blobs=blobs,
                               tx_modulation=mod)
        geometry = SceneGeometry(rx_position=rx, bbox=box, spectrum_res=(36, 9))
        return scene, geometry
    path = Path(name)
    if not path.exists():
        raise ConfigError(f"unknown scene {name!r} (builtins: demo, demo-static)")
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: scene file must hold a JSON object")
    try:
        box = Aabb(np.array(doc["bbox"]["min_corner"], dtype=np.float64),
                   np.array(doc["bbox"]["max_corner"], dtype=np.float64))
        scene = SyntheticScene(
            bbox=box, rx_position=np.array(doc["rx_position"], dtype=np.float64),
            blobs=[Blob(b["center"], b["radius"], b["peak_density"], b["emission"])
                   for b in doc["blobs"]],
            tx_modulation=doc.get("tx_modulation", 0.0))
        geometry = SceneGeometry(rx_position=scene.rx_position, bbox=box,
                                 spectrum_res=tuple(doc.get("spectrum_res", (36, 9))))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{path}: missing or malformed field "
                          f"({type(e).__name__}: {e})") from e
    if tx_modulation is not None:
        scene = dataclasses.replace(scene, tx_modulation=tx_modulation)
    return scene, geometry


def split_indices(n_records: int, split_seed: int, train_fraction: float):
    """Deterministic shuffled train/test split of record indices."""
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError("train_fraction must lie in (0, 1]")
    perm = np.random.default_rng(split_seed).permutation(n_records)
    n_train = int(round(n_records * train_fraction))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _subset(dataset: Dataset, indices) -> Dataset:
    return Dataset(geometry=dataset.geometry, normalization=dataset.normalization,
                   units=dataset.units, records=[dataset.records[i] for i in indices],
                   base_dir=dataset.base_dir)


def cmd_synth(cfg: dict) -> int:
    scene, geometry = builtin_scene(cfg["scene.name"], cfg.get("scene.tx_modulation"))
    if cfg.get("geometry.spectrum_res"):
        geometry = SceneGeometry(rx_position=geometry.rx_position, bbox=geometry.bbox,
                                 spectrum_res=tuple(cfg["geometry.spectrum_res"]))
    generate_dataset(scene, geometry, n_tx=int(cfg["run.n_tx"]),
                     seed=int(cfg["run.seed"]), out_dir=cfg["paths.out"],
                     fine_step=cfg.get("scene.fine_step"),
                     rssi_noise_db=cfg.get("scene.rssi_noise_db"))
    print(f"wrote {cfg['run.n_tx']} records to {cfg['paths.out']}", file=sys.stderr)
    return 0


def _train_config(cfg: dict) -> TrainConfig:
    profile = cfg.get("run.profile", "desk")
    if profile not in ("desk", "paper"):
        raise ConfigError(f"unknown profile {profile!r}")
    overrides = {}
    for key, value in cfg.items():
        if key.startswith("trainer.") and value is not None:
            overrides[key.split(".", 1)[1]] = value
    try:
        base = TrainConfig.paper if profile == "paper" else TrainConfig.desk
        return base(**overrides)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad trainer configuration: {e}") from e


def cmd_train(cfg: dict) -> int:
    dataset = load_dataset(cfg["paths.data"])
    train_idx, _ = split_indices(len(dataset.records), int(cfg["run.split_seed"]),
                                 float(cfg["run.train_fraction"]))
    train_ds = _subset(dataset, train_idx)
    config = _train_config(cfg)
    log_path = cfg.get("paths.log")
    log_fh = open(log_path, "w") if log_path else None
    t0 = time.perf_counter()
    try:
        log_fn = (lambda line: print(line, file=log_fh)) if log_fh else None
        result = train(train_ds, config, log_fn=log_fn)
    finally:
        if log_fh:
            log_fh.close()
    elapsed = time.perf_counter() - t0
    geo = dataset.geometry
    save_checkpoint(cfg["paths.out"], result.model, extra={
        "seed": config.seed,
        "iteration": config.total_iters,
        "profile": cfg.get("run.profile", "desk"),
        "split_seed": int(cfg["run.split_seed"]),
        "train_fraction": float(cfg["run.train_fraction"]),
        "rx_position": list(geo.rx_position),
        "spectrum_res": list(geo.spectrum_res),
        "normalization": dataset.normalization,
        "units": dataset.units,
        "tau": config.tau,
    })
    final = result.history[-1][1] if result.history else None
    loss_txt = f", final spectrum loss {final.spectrum_loss:.3e}" if final else ""
    print(f"trained {config.total_iters} iterations on {len(train_ds.records)} "
          f"records in {elapsed:.1f}s{loss_txt}; checkpoint at {cfg['paths.out']}",
          file=sys.stderr)
    return 0


def _geometry_from_checkpoint(meta: dict) -> SceneGeometry:
    extra = meta.get("extra", {})
    if not isinstance(extra, dict) or not {"rx_position", "spectrum_res"} <= extra.keys():
        raise FormatError("checkpoint lacks scene geometry metadata")
    try:
        return SceneGeometry(rx_position=np.array(extra["rx_position"], dtype=np.float64),
                             bbox=Aabb(np.array(meta["bbox_min"]),
                                       np.array(meta["bbox_max"])),
                             spectrum_res=tuple(extra["spectrum_res"]))
    except (TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"checkpoint has malformed scene geometry metadata "
                          f"({type(e).__name__}: {e})") from e


def cmd_infer(cfg: dict) -> int:
    model, meta = load_checkpoint(cfg["paths.checkpoint"])
    geometry = _geometry_from_checkpoint(meta)
    tx = np.array(cfg["run.tx"], dtype=np.float64)
    t0 = time.perf_counter()
    spectrum = render_spectrum(model, geometry, tx, tau=float(cfg["run.tau"]))
    elapsed = time.perf_counter() - t0
    write_spectrum(cfg["paths.out"], spectrum)
    print(f"inference time: {elapsed:.4f}s per spectrum", file=sys.stderr)
    return 0


def cmd_eval(cfg: dict) -> int:
    model, meta = load_checkpoint(cfg["paths.checkpoint"])
    dataset = load_dataset(cfg["paths.data"])
    geometry = dataset.geometry
    tau = float(cfg["run.tau"])
    train_idx, test_idx = split_indices(len(dataset.records),
                                        int(cfg["run.split_seed"]),
                                        float(cfg["run.train_fraction"]))
    if len(test_idx) == 0:
        raise ConfigError("train_fraction leaves no held-out records to evaluate")
    out_dir = Path(cfg["paths.out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    targets = dataset.load_spectra()
    ssims = []
    predictions = {}
    for i in test_idx:
        rec = dataset.records[i]
        predicted = render_spectrum(model, geometry, rec.tx_position, tau=tau)
        predictions[i] = predicted
        ssims.append(ssim(predicted, targets[i]))
    write_indexed_csv(out_dir / "ssim.csv", "tx_index,ssim", ssims)
    write_cdf_csv(out_dir / "ssim_cdf.csv", ssims, value_name="ssim")
    summary = {"n_test": len(test_idx), "ssim": percentile_summary(ssims)}

    if cfg.get("run.rssi"):
        train_records = [dataset.records[i] for i in train_idx
                         if dataset.records[i].rssi_dbm is not None]
        if not train_records:
            raise ConfigError("--rssi requires training records with rssi_dbm")
        calibration = fit_rssi_calibration(model, geometry, train_records, tau=tau)
        preds, meas = [], []
        for i in test_idx:
            rec = dataset.records[i]
            if rec.rssi_dbm is None:
                continue
            preds.append(aggregate_rssi(predictions[i], calibration))
            meas.append(rec.rssi_dbm)
        if not preds:
            raise ConfigError("no held-out records carry rssi_dbm")
        errors, err_summary = rssi_error(preds, meas)
        write_indexed_csv(out_dir / "rssi_error.csv", "record_index,rssi_error_db",
                          errors)
        write_cdf_csv(out_dir / "rssi_error_cdf.csv", errors,
                      value_name="rssi_error_db")
        summary["rssi_error_db"] = err_summary
        summary["rssi_calibration_db"] = calibration

    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"median held-out SSIM: {summary['ssim']['median']:.4f} "
          f"({len(test_idx)} records)", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiofield",
        description="Voxel radiance field for radio spatial spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {"synth": cmd_synth, "train": cmd_train, "infer": cmd_infer,
                "eval": cmd_eval}
    for command, handler in handlers.items():
        p = sub.add_parser(command)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file")
        for key in _COMMAND_KEYS[command]:
            spec = dict(_SCHEMA[key])
            alias = spec.pop("alias", None)
            flags = [f"--{key}"] + ([alias] if alias else [])
            if spec.get("action") == "store_true":
                p.add_argument(*flags, dest=key, action="store_true", default=_UNSET,
                               help=spec.get("help"))
            else:
                p.add_argument(*flags, dest=key, default=_UNSET, **spec)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _resolve(ns, ns.command)
        return ns.handler(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 5
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
