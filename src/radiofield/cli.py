"""Command-line pipeline: synth, train, infer, eval.

Configuration lives in an optional JSON file (sections: scene, geometry,
trainer, run, paths) and every leaf is overridable by a flag of the same
dotted name; common flags have short aliases (--out, --data, --seed, ...).
Exit codes: 0 success, 2 configuration, 3 I/O, 4 file format, 5 numerical.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import sys
import time
from pathlib import Path

import numpy as np

from .dataio import (
    DEFAULT_SPECTRUM_RES,
    Blob,
    Dataset,
    FormatError,
    SyntheticScene,
    generate_dataset,
    geometry_extra,
    geometry_from_checkpoint,
    load_checkpoint,
    load_dataset,
    load_scene_file,
    read_spectrum,
    save_checkpoint,
    write_spectrum,
)
from .metrics import percentile_summary, rssi_error, ssim, write_cdf_csv, write_indexed_csv
from .renderer import SceneGeometry, aggregate_rssi, render_spectra, render_spectrum
from .trainer import SKIP_TAU, NumericalError, TrainConfig, rssi_offset, train
from .voxel_grid import Aabb


class ConfigError(Exception):
    """Bad, unknown, or missing configuration."""


_UNSET = object()


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false/1/0/yes/no, got {text!r}")


# dotted key -> its one declaration: the argparse kwargs of its flag plus
#   alias     the short spec-style flag, if any
#   on        the commands that take it
#   required  whether every command that takes it needs a value
#   default   its value when neither the config file nor a flag sets one
_SCHEMA = {
    "scene.name": dict(type=str, help="builtin scene (demo, demo-static) or scene JSON path",
                       alias="--scene", on=("synth",), default="demo"),
    "scene.tx_modulation": dict(type=float, help="override transmitter modulation strength",
                                alias="--tx-modulation", on=("synth",)),
    "scene.rssi_noise_db": dict(type=float, help="attach ground-truth RSSI with this noise",
                                alias="--rssi-noise-db", on=("synth",)),
    "scene.fine_step": dict(type=float, help="oracle quadrature step in meters",
                            alias="--fine-step", on=("synth",)),
    "geometry.spectrum_res": dict(type=int, nargs=2, help="azimuth x elevation cells",
                                  alias="--res", on=("synth",)),
    "run.seed": dict(type=int, help="generation seed", alias="--seed", on=("synth",),
                     default=0),
    "run.n_tx": dict(type=int, help="transmitter count to synthesize", alias="--n-tx",
                     on=("synth",), required=True),
    "run.split_seed": dict(type=int, help="train/test shuffle seed", alias="--split-seed",
                           on=("train", "eval"), default=0),
    "run.train_fraction": dict(type=float, help="fraction of records used for training",
                               alias="--train-fraction", on=("train", "eval"), default=0.8),
    "run.profile": dict(type=str, help="trainer profile: desk or paper",
                        alias="--profile", on=("train",), default="desk"),
    "run.tau": dict(type=float, help="empty-space skip threshold at inference",
                    alias="--tau", on=("infer", "eval"), default=SKIP_TAU),
    "run.tx": dict(type=float, nargs=3, help="transmitter position to infer",
                   alias="--tx", on=("infer",), required=True),
    "run.rssi": dict(action="store_true", help="also evaluate RSSI predictions",
                     alias="--rssi", on=("eval",), default=False),
    "paths.data": dict(type=str, help="dataset directory", alias="--data",
                       on=("train", "eval"), required=True),
    "paths.out": dict(type=str, help="output path", alias="--out",
                      on=("synth", "train", "infer", "eval"), required=True),
    "paths.log": dict(type=str, help="training log CSV path", alias="--log",
                      on=("train",)),
    "paths.checkpoint": dict(type=str, help="model checkpoint path", alias="--checkpoint",
                             on=("infer", "eval"), required=True),
}
_NOT_PARSER_KWARGS = ("alias", "on", "required", "default")


def _field_flag(default) -> dict:
    """Parser kwargs of a TrainConfig field's flag, from its default's type."""
    if isinstance(default, bool):
        return dict(type=_parse_bool)
    if isinstance(default, tuple):
        return dict(type=int, nargs=len(default))
    if default is None:  # upsample_iters: a list of iterations
        return dict(type=int, nargs="*")
    return dict(type=type(default))


_SCHEMA.update({f"trainer.{f.name}": dict(_field_flag(f.default), on=("train",))
                for f in dataclasses.fields(TrainConfig)})


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
    cfg = {key: spec["default"] for key, spec in _SCHEMA.items() if "default" in spec}
    if getattr(ns, "config", None):
        cfg.update(_load_config_file(ns.config))
    for key in _SCHEMA:
        val = vars(ns).get(key, _UNSET)
        if val is not _UNSET and val is not None:
            cfg[key] = val
    missing = sorted(key for key, spec in _SCHEMA.items()
                     if spec.get("required") and command in spec["on"]
                     and cfg.get(key) is None)
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")
    return cfg


def builtin_scene(name: str, tx_modulation: float | None = None):
    """Built-in desk-scale scenes, or a scene JSON file (`load_scene_file`),
    plus matching geometry."""
    if name in ("demo", "demo-static"):
        box = Aabb(np.zeros(3), np.full(3, 3.5))
        rx = np.array([1.75, 1.75, 1.4])
        blobs = [Blob([1.63, 1.91, 2.47], 0.33, 8.0, 0.85),
                 Blob([0.93, 2.52, 2.08], 0.31, 7.0, 0.6),
                 Blob([2.71, 1.13, 1.96], 0.29, 8.0, 0.7)]
        mod = 0.0 if name == "demo-static" else 0.5
        scene = SyntheticScene(bbox=box, rx_position=rx, blobs=blobs, tx_modulation=mod)
        geometry = SceneGeometry(rx_position=rx, bbox=box,
                                 spectrum_res=DEFAULT_SPECTRUM_RES)
    elif Path(name).exists():
        scene, geometry = load_scene_file(name)
    else:
        raise ConfigError(f"unknown scene {name!r} (builtins: demo, demo-static)")
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


def _prepare_output_file(path) -> None:
    """Make the parent directories of output file path; before any work, an
    I/O error if path is a directory, which the file could never replace."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "output file is a directory", str(path))


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
    profile = cfg.get("run.profile", _SCHEMA["run.profile"]["default"])
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


def _split(cfg: dict, dataset: Dataset):
    """The (train, held-out) record indices of dataset that train and eval use."""
    return split_indices(len(dataset.records), int(cfg["run.split_seed"]),
                         float(cfg["run.train_fraction"]))


def cmd_train(cfg: dict) -> int:
    dataset = load_dataset(cfg["paths.data"])
    train_idx, _ = _split(cfg, dataset)
    train_ds = _subset(dataset, train_idx)
    config = _train_config(cfg)
    log_path = cfg.get("paths.log")
    for path in filter(None, (cfg["paths.out"], log_path)):
        _prepare_output_file(path)
    log_fh = open(log_path, "w") if log_path else None
    t0 = time.perf_counter()
    try:
        log_fn = (lambda line: print(line, file=log_fh)) if log_fh else None
        result = train(train_ds, config, log_fn=log_fn)
    finally:
        if log_fh:
            log_fh.close()
    elapsed = time.perf_counter() - t0
    save_checkpoint(cfg["paths.out"], result.model, extra={
        "seed": config.seed,
        "iteration": config.total_iters,
        "profile": cfg["run.profile"],
        "split_seed": int(cfg["run.split_seed"]),
        "train_fraction": float(cfg["run.train_fraction"]),
        **geometry_extra(dataset.geometry),
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


def cmd_infer(cfg: dict) -> int:
    model, meta = load_checkpoint(cfg["paths.checkpoint"])
    geometry = geometry_from_checkpoint(cfg["paths.checkpoint"], meta)
    tx = np.array(cfg["run.tx"], dtype=np.float64)
    _prepare_output_file(cfg["paths.out"])
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
    train_idx, test_idx = _split(cfg, dataset)
    if len(test_idx) == 0:
        raise ConfigError("train_fraction leaves no held-out records to evaluate")
    # --rssi calibrates on the training records that carry a measurement,
    # rendered in one call with the held-out records, and scores the held-out
    # records that carry one; both sets are checked before any render or write
    calibration_idx = []
    if cfg.get("run.rssi"):
        calibration_idx = [i for i in train_idx if dataset.records[i].rssi_dbm is not None]
        if not calibration_idx:
            raise ConfigError("--rssi requires training records with rssi_dbm")
        if all(dataset.records[i].rssi_dbm is None for i in test_idx):
            raise ConfigError("no held-out records carry rssi_dbm")
    out_dir = Path(cfg["paths.out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    targets = dataset.load_spectra()
    spectra = render_spectra(model, geometry,
                             dataset.tx_positions()[[*test_idx, *calibration_idx]],
                             tau=tau)
    predictions = spectra[:len(test_idx)]
    ssims = [ssim(predicted, targets[i]) for i, predicted in zip(test_idx, predictions)]
    write_indexed_csv(out_dir / "ssim.csv", "tx_index,ssim", test_idx, ssims)
    write_cdf_csv(out_dir / "ssim_cdf.csv", ssims, value_name="ssim")
    summary = {"n_test": len(test_idx), "ssim": percentile_summary(ssims)}

    if cfg.get("run.rssi"):
        calibration = rssi_offset([dataset.records[i].rssi_dbm for i in calibration_idx],
                                  spectra[len(test_idx):])
        measured = [(i, predicted) for i, predicted in zip(test_idx, predictions)
                    if dataset.records[i].rssi_dbm is not None]
        errors, err_summary = rssi_error(
            [aggregate_rssi(predicted, calibration) for _, predicted in measured],
            [dataset.records[i].rssi_dbm for i, _ in measured])
        write_indexed_csv(out_dir / "rssi_error.csv", "record_index,rssi_error_db",
                          [i for i, _ in measured], errors)
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
        for key, spec in _SCHEMA.items():
            if command in spec["on"]:
                flags = [f"--{key}"] + ([spec["alias"]] if "alias" in spec else [])
                kwargs = {k: v for k, v in spec.items() if k not in _NOT_PARSER_KWARGS}
                p.add_argument(*flags, dest=key, default=_UNSET, **kwargs)
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
    except MemoryError as e:
        print(f"config error: out of memory for the configured sizes: {e}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
