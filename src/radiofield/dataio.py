"""File formats, synthetic scenes, and the brute-force reference renderer.

Binary formats are little-endian and versioned; spectra and checkpoints
round-trip bit-exactly. The oracle renderer evaluates a closed-form blob field
and composites it with full products (no incremental recurrence), so it can
falsify the production compositing path and supply ground-truth datasets.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .field_model import NET_ACTIVATIONS, FieldModel
from .renderer import SceneGeometry, aggregate_rssi, all_directions
from .voxel_grid import Aabb, VoxelGrid

SPECTRUM_MAGIC = b"VXRF"
SPECTRUM_VERSION = 1
CHECKPOINT_MAGIC = b"VXCK"
CHECKPOINT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_SPECTRUM_RES = (36, 9)  # of the built-in scenes and scene files without one


class FormatError(ValueError):
    """A file does not conform to its declared binary or manifest format."""


# ---------------------------------------------------------------------------
# spectrum files
# ---------------------------------------------------------------------------

def write_spectrum(path, spectrum: np.ndarray) -> None:
    """Write an (M, N) spectrum: 16-byte header + float32 LE, azimuth-major."""
    arr = np.asarray(spectrum, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"spectrum must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("spectrum values must be finite and nonnegative")
    m, n = arr.shape
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", SPECTRUM_MAGIC, SPECTRUM_VERSION, m, n))
        fh.write(payload)


def _spectrum_dims(path, blob: bytes) -> tuple[int, int]:
    """(M, N) from blob, a spectrum file's header or more; FormatError naming
    path unless the header is whole, of this magic and version, with sane dims."""
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated header, {len(blob)} bytes at byte offset 0")
    magic, version, m, n = struct.unpack_from("<4sIII", blob, 0)
    if magic != SPECTRUM_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
    if version != SPECTRUM_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    if m < 1 or n < 1 or m * n > 2 ** 28:
        raise FormatError(f"{path}: unreasonable dimensions {m}x{n} at byte offset 8")
    return m, n


def read_spectrum(path) -> np.ndarray:
    """Read a spectrum file back as float64; rejects malformed files."""
    with open(path, "rb") as fh:
        blob = fh.read()
    m, n = _spectrum_dims(path, blob)
    expected = 16 + 4 * m * n
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob) - 16} bytes, expected "
                          f"{expected - 16} at byte offset 16")
    values = np.frombuffer(blob, dtype="<f4", offset=16).reshape(m, n)
    out = values.astype(np.float64)
    if not np.all(np.isfinite(out)) or np.any(out < 0):
        raise FormatError(f"{path}: non-finite or negative values at byte offset 16")
    return out


# ---------------------------------------------------------------------------
# synthetic scenes, scene files and the reference renderer
# ---------------------------------------------------------------------------

@dataclass
class Blob:
    """Gaussian density/emission bump."""

    center: np.ndarray
    radius: float
    peak_density: float
    emission: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        # every comparison below is false for NaN, so NaN fails its check
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"blob radius must be finite and positive, got {self.radius}")
        if not 0.0 <= self.peak_density < np.inf:
            raise ValueError(f"blob peak_density must be finite and nonnegative, "
                             f"got {self.peak_density}")
        if not (0.0 < self.emission < 1.0):
            raise ValueError("emission must lie in (0, 1)")


@dataclass
class SyntheticScene:
    """Closed-form scene: a few blobs plus a transmitter-dependent emission
    modulation, standing in for a measured environment."""

    bbox: Aabb
    rx_position: np.ndarray
    blobs: list
    tx_modulation: float = 0.0

    def __post_init__(self):
        self.rx_position = np.asarray(self.rx_position, dtype=np.float64)
        if not 0.0 <= self.tx_modulation < np.inf:  # NaN too
            raise ValueError(f"tx_modulation must be finite and nonnegative, "
                             f"got {self.tx_modulation}")
        for b in self.blobs:
            if not self.bbox.contains(b.center):
                raise ValueError("blob centers must lie inside the bbox")


def _check_fine_step(fine_step) -> None:
    """The oracle's quadrature step must be finite and positive (NaN fails)."""
    if not 0 < fine_step < math.inf:
        raise ValueError(f"fine_step must be positive and finite, got {fine_step}")


def _oracle_density(scene: SyntheticScene, xs: np.ndarray):
    """Density at positions xs (N, 3) and, per blob, its emission-scaled
    Gaussian there; neither depends on the transmitter."""
    sigma = np.zeros(xs.shape[0])
    emitting = []
    for b in scene.blobs:
        d2 = np.sum((xs - b.center) ** 2, axis=1)
        g = np.exp(-d2 / (2.0 * b.radius ** 2))
        sigma += b.peak_density * g
        emitting.append(b.emission * g)
    return sigma, emitting


def _oracle_tx_units(scene: SyntheticScene, tx: np.ndarray) -> list:
    """Per blob, the unit vector from its center to transmitter tx (3,), or
    None where tx sits exactly at the center."""
    units = []
    for b in scene.blobs:
        to_tx = tx - b.center
        norm = np.linalg.norm(to_tx)
        units.append(to_tx / norm if norm > 0 else None)
    return units


def _oracle_emission(scene: SyntheticScene, emitting: list, units: list,
                     dirs: np.ndarray) -> np.ndarray:
    """Emission at the samples of emitting (from _oracle_density) for the
    transmitter of units (from _oracle_tx_units), along the per-sample
    emission directions dirs (N, 3)."""
    emission = np.zeros(dirs.shape[0])
    for eg, unit in zip(emitting, units):
        cos_term = (dirs @ unit) if unit is not None else np.zeros(dirs.shape[0])
        gain = (1.0 + scene.tx_modulation * np.cos(np.pi * cos_term)) / 2.0
        emission += eg * gain
    return np.clip(emission, 0.0, 1.0)


def oracle_density_emission(scene: SyntheticScene, x: np.ndarray, tx: np.ndarray,
                            direction: np.ndarray):
    """Analytic ground-truth field at sample positions.

    Density is a sum of Gaussians. Emission is the same Gaussian mixture with
    each blob scaled by (1 + tx_modulation * cos(pi * <unit(tx - c), dir>)) / 2,
    clamped to [0, 1]: smooth, transmitter- and direction-dependent.

    x is (N, 3) or (3,); direction is the emission direction per sample.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=np.float64))
    dirs = np.broadcast_to(np.atleast_2d(np.asarray(direction, dtype=np.float64)),
                           (xs.shape[0], 3))
    sigma, emitting = _oracle_density(scene, xs)
    units = _oracle_tx_units(scene, np.asarray(tx, dtype=np.float64))
    emission = _oracle_emission(scene, emitting, units, dirs)
    if np.asarray(x).ndim == 1:
        return float(sigma[0]), float(emission[0])
    return sigma, emission


def _oracle_weights(sigma: np.ndarray, spacing: np.ndarray):
    """Product-form weights w of k >= 1 samples, each sample's transmittance
    recomputed as a full product over its predecessors, and the per-sample
    factors 1 - alpha whose product is the exit transmittance."""
    alpha = 1.0 - np.exp(-sigma * spacing)
    one_minus = 1.0 - alpha
    j = np.arange(sigma.size)
    # row i multiplies the predecessors of sample i, ones elsewhere
    partial = np.where(j[None, :] < j[:, None], one_minus[None, :], 1.0)
    trans = partial.prod(axis=1)
    return trans * alpha, one_minus


def oracle_composite(sigma: np.ndarray, signal: np.ndarray, spacing: np.ndarray):
    """Product-form compositing: each sample's transmittance is recomputed as
    a full product over its predecessors, with no incremental recurrence.

    Returns (R, T_K, w); the independent counterpart of renderer.composite.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    spacing = np.asarray(spacing, dtype=np.float64)
    if sigma.size == 0:
        return 0.0, 1.0, np.empty(0)
    w, one_minus = _oracle_weights(sigma, spacing)
    r_out = float(np.sum(w * signal))
    t_k = float(one_minus.prod())
    return r_out, t_k, w


def _oracle_clip(origin, direction, bbox: Aabb) -> float:
    """Exit distance of an interior ray; written independently of renderer."""
    t_exit = np.inf
    for axis in range(3):
        d = direction[axis]
        if d > 0:
            t_exit = min(t_exit, (bbox.max_corner[axis] - origin[axis]) / d)
        elif d < 0:
            t_exit = min(t_exit, (bbox.min_corner[axis] - origin[axis]) / d)
    return max(float(t_exit), 0.0)


def oracle_render_spectra(scene: SyntheticScene, geometry: SceneGeometry,
                          tx_positions: np.ndarray, fine_step: float) -> np.ndarray:
    """Ground-truth spatial spectra (T, M, N) of the analytic scene for the
    transmitters tx_positions (T, 3), at a fine step.

    One walk over the rays: each ray's samples, density and product-form
    weights are computed once and shared by every transmitter; only the
    emission, and the weighted sum R = sum(w * emission), is per transmitter.
    Each value is bit for bit what `oracle_density_emission` and
    `oracle_composite` give for that ray and transmitter.
    """
    _check_fine_step(fine_step)
    txs = np.asarray(tx_positions, dtype=np.float64)
    if txs.ndim != 2 or txs.shape[1] != 3 or not np.all(np.isfinite(txs)):
        raise ValueError(f"tx_positions must be (T, 3) finite numbers, got shape "
                         f"{txs.shape}")
    tx_units = [_oracle_tx_units(scene, tx) for tx in txs]
    res = geometry.spectrum_res
    dirs = all_directions(res)
    out = np.zeros((len(txs), len(dirs)))
    for i, d in enumerate(dirs):
        t_far = _oracle_clip(geometry.rx_position, d, geometry.bbox)
        k = int(t_far / fine_step)
        if k == 0:
            continue
        r = (np.arange(k) + 0.5) * fine_step
        positions = geometry.rx_position + r[:, None] * d
        spacing = np.full(k, fine_step)
        spacing[-1] = t_far - r[-1]
        sigma, emitting = _oracle_density(scene, positions)
        w, _ = _oracle_weights(sigma, spacing)
        # a stride-0 view, as oracle_density_emission builds it: a contiguous
        # copy takes another matmul path and can round cos_term differently
        emit_dirs = np.broadcast_to(np.atleast_2d(-d), (k, 3))
        for t, units in enumerate(tx_units):
            out[t, i] = float(np.sum(w * _oracle_emission(scene, emitting, units,
                                                          emit_dirs)))
    return out.reshape(len(txs), *res)


def oracle_render(scene: SyntheticScene, geometry: SceneGeometry, tx: np.ndarray,
                  fine_step: float) -> np.ndarray:
    """Ground-truth spatial spectrum (M, N) of the analytic scene for one
    transmitter tx (3,) at a fine step: `oracle_render_spectra` of one."""
    tx = np.asarray(tx, dtype=np.float64)
    if tx.shape != (3,) or not np.all(np.isfinite(tx)):
        raise ValueError(f"tx must be three finite numbers, got {tx.tolist()}")
    return oracle_render_spectra(scene, geometry, tx[None], fine_step)[0]


def _read_json(path):
    """A UTF-8 JSON document; FormatError if it is not one."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from e


@contextmanager
def _fields_of(path):
    """Report a missing or malformed field read inside the block as a
    FormatError naming path."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"{path}: missing or malformed field "
                          f"({type(e).__name__}: {e})") from e


def _scene_geometry(doc: dict) -> SceneGeometry:
    """Geometry from the layout that a manifest's scene section and a scene
    file share: rx_position, bbox {min_corner, max_corner}, spectrum_res."""
    return SceneGeometry(
        rx_position=np.array(doc["rx_position"], dtype=np.float64),
        bbox=Aabb(np.array(doc["bbox"]["min_corner"], dtype=np.float64),
                  np.array(doc["bbox"]["max_corner"], dtype=np.float64)),
        spectrum_res=tuple(doc["spectrum_res"]))


def load_scene_file(path):
    """Synthetic scene and geometry of a scene JSON file (layout in the
    README); FormatError unless it is a well-formed UTF-8 JSON object."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: scene file must hold a JSON object")
    with _fields_of(path):
        geometry = _scene_geometry({"spectrum_res": DEFAULT_SPECTRUM_RES, **doc})
        scene = SyntheticScene(
            bbox=geometry.bbox, rx_position=geometry.rx_position,
            blobs=[Blob(b["center"], b["radius"], b["peak_density"], b["emission"])
                   for b in doc["blobs"]],
            tx_modulation=doc.get("tx_modulation", 0.0))
    return scene, geometry


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass
class DatasetRecord:
    tx_position: np.ndarray
    spectrum_path: str
    rssi_dbm: float | None = None


@dataclass
class Dataset:
    """Scene metadata plus (tx position, spectrum) records."""

    geometry: SceneGeometry
    normalization: float
    units: str
    records: list
    base_dir: Path
    _spectra: np.ndarray | None = field(default=None, repr=False)

    def tx_positions(self) -> np.ndarray:
        return np.array([r.tx_position for r in self.records])

    def load_spectra(self) -> np.ndarray:
        """All spectra as one (n_records, M, N) array, cached after first load."""
        if self._spectra is None:
            self._spectra = np.stack([
                read_spectrum(self.base_dir / r.spectrum_path) for r in self.records])
        return self._spectra


def save_manifest(dataset: Dataset, path) -> None:
    geo = dataset.geometry
    doc = {
        "format": "radiofield-dataset",
        "version": 1,
        "scene": {
            "rx_position": list(geo.rx_position),
            "bbox": {"min_corner": list(geo.bbox.min_corner),
                     "max_corner": list(geo.bbox.max_corner)},
            "spectrum_res": list(geo.spectrum_res),
            "normalization": dataset.normalization,
            "units": dataset.units,
        },
        "records": [
            {"tx_position": list(r.tx_position), "spectrum_path": r.spectrum_path,
             **({"rssi_dbm": r.rssi_dbm} if r.rssi_dbm is not None else {})}
            for r in dataset.records
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    """Load and validate a dataset directory (or manifest path)."""
    path = Path(path)
    manifest = path / MANIFEST_NAME if path.is_dir() else path
    base = manifest.parent
    doc = _read_json(manifest)
    if not isinstance(doc, dict) or doc.get("format") != "radiofield-dataset":
        raise FormatError(f"{manifest}: not a dataset manifest")
    with _fields_of(manifest):
        scene = doc["scene"]
        normalization = float(scene["normalization"])
        units = scene.get("units", "linear")
        geometry = _scene_geometry(scene)
        records = []
        for rec in doc["records"]:
            records.append(DatasetRecord(
                tx_position=np.array(rec["tx_position"], dtype=np.float64),
                spectrum_path=rec["spectrum_path"],
                rssi_dbm=rec.get("rssi_dbm"),
            ))
    if not (math.isfinite(normalization) and normalization > 0):
        raise FormatError(f"{manifest}: normalization must be positive and finite")
    if not isinstance(units, str):
        raise FormatError(f"{manifest}: units must be a string")
    for i, rec in enumerate(records):
        if rec.tx_position.shape != (3,) or not np.all(np.isfinite(rec.tx_position)):
            raise FormatError(f"{manifest}: record {i} tx_position must be three "
                              f"finite numbers, got {rec.tx_position.tolist()}")
        if not isinstance(rec.spectrum_path, str) or "\0" in rec.spectrum_path:
            raise FormatError(f"{manifest}: record {i} spectrum_path must be a "
                              f"file name")
        if rec.rssi_dbm is not None and not (
                type(rec.rssi_dbm) in (int, float) and math.isfinite(rec.rssi_dbm)):
            raise FormatError(f"{manifest}: record {i} rssi_dbm must be a finite "
                              f"number, got {rec.rssi_dbm!r}")
    for rec in records:
        spath = base / rec.spectrum_path
        if not spath.is_file():
            raise FormatError(f"{manifest}: missing spectrum file {rec.spectrum_path}")
        with open(spath, "rb") as fh:
            m, n = _spectrum_dims(spath, fh.read(16))
        if (m, n) != geometry.spectrum_res:
            raise FormatError(f"{spath}: resolution {m}x{n} differs from manifest "
                              f"{geometry.spectrum_res}")
    return Dataset(geometry=geometry, normalization=normalization,
                   units=units, records=records, base_dir=base)


def generate_dataset(scene: SyntheticScene, geometry: SceneGeometry, n_tx: int,
                     seed: int, out_dir, fine_step: float | None = None,
                     rssi_noise_db: float | None = None) -> Dataset:
    """Sample transmitter positions, render ground truth, write a dataset.

    Ground truth comes from `oracle_render_spectra` at fine_step (default:
    the bbox's smallest extent / 512): one walk over the rays, whose density
    and weights every transmitter shares. out_dir is created before any
    rendering, so an unusable target fails first. Spectra are normalized by
    the global maximum across all records (stored in the manifest so
    absolute power is recoverable). With rssi_noise_db set, each record also
    carries a ground-truth RSSI in dB of the unnormalized power sum plus
    seeded Gaussian measurement noise.
    """
    if n_tx < 1:
        raise ValueError("need at least one transmitter position")
    if fine_step is None:
        fine_step = float(geometry.bbox.extent.min()) / 512.0
    _check_fine_step(fine_step)
    if rssi_noise_db is not None and not 0 <= rssi_noise_db < math.inf:
        raise ValueError(f"rssi_noise_db must be finite and nonnegative, "
                         f"got {rssi_noise_db}")
    rng = np.random.default_rng(seed)
    tx_positions = rng.uniform(geometry.bbox.min_corner, geometry.bbox.max_corner,
                               size=(n_tx, 3))
    out_dir = Path(out_dir)
    spectra_dir = out_dir / "spectra"
    spectra_dir.mkdir(parents=True, exist_ok=True)
    raw = oracle_render_spectra(scene, geometry, tx_positions, fine_step)
    peak = float(raw.max())
    if peak <= 0:
        raise ValueError("scene produced no power anywhere; cannot normalize")
    normalized = raw / peak

    rssi = [None] * n_tx
    if rssi_noise_db is not None:
        noise = rng.normal(0.0, rssi_noise_db, size=n_tx)
        for i in range(n_tx):
            if raw[i].sum() > 0:
                rssi[i] = aggregate_rssi(raw[i], noise[i])

    records = []
    for i in range(n_tx):
        rel = f"spectra/tx_{i:05d}.vxrf"
        write_spectrum(out_dir / rel, normalized[i])
        records.append(DatasetRecord(tx_position=tx_positions[i], spectrum_path=rel,
                                     rssi_dbm=rssi[i]))
    dataset = Dataset(geometry=geometry, normalization=peak, units="linear",
                      records=records, base_dir=out_dir)
    save_manifest(dataset, out_dir / MANIFEST_NAME)
    return dataset


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_LOAD_CHUNK = 1 << 18  # float32 values per read of a checkpoint tensor (1 MiB)


def save_checkpoint(path, model: FieldModel, extra: dict | None = None) -> None:
    """Serialize a model atomically: JSON metadata + named float32 tensors."""
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "grid_dims": list(model.density_grid.dims),
        "feature_dim": model.feature_dim,
        "bbox_min": list(model.bbox.min_corner),
        "bbox_max": list(model.bbox.max_corner),
        "density_bias": model.density_bias,
        "enc_pos_levels": model.enc_pos_levels,
        "enc_dir_levels": model.enc_dir_levels,
        "deform_enabled": model.deform_enabled,
        **NET_ACTIVATIONS,
    }
    if extra:
        meta["extra"] = extra
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    params = model.parameters()
    # a fresh name beside the target, so a stray <path>.tmp cannot block the save
    target = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp",
                               dir=target.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())  # the mode open() gives
            fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                 len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(params)))
            for name, tensor in params.items():
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<I", tensor.ndim))
                fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
                # through the buffer protocol: no bytes copy of the float32 array
                fh.write(np.ascontiguousarray(tensor, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)  # a failed write or rename leaves no temporary behind
        raise


def _umask() -> int:
    """The process umask; os has no call that reads it without setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def load_checkpoint(path):
    """Rebuild a FieldModel from a checkpoint; returns (model, metadata).

    Tensors are read in chunks straight into their float64 arrays, so the
    load holds no float32 copy of the file besides the model it builds."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        off = 0

        def read(n, problem):
            nonlocal off
            data = fh.read(n) if off + n <= size else b""
            if len(data) != n:
                raise FormatError(f"{path}: {problem} at byte offset {off}")
            off += n
            return data

        magic, version, meta_len = struct.unpack("<4sII", read(12, "truncated header"))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
        meta_bytes = read(meta_len, "metadata overruns file")
        try:
            meta = json.loads(meta_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: corrupt metadata block: {e}") from e
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: metadata block is not a JSON object")

        def take(fmt):
            return struct.unpack(fmt, read(struct.calcsize(fmt), "truncated"))

        (count,) = take("<I")
        tensors = {}
        for _ in range(count):
            (name_len,) = take("<I")
            name_b = read(name_len, "truncated tensor name")
            try:
                name = name_b.decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: tensor name is not UTF-8 at byte offset "
                                  f"{off - name_len}") from e
            (rank,) = take("<I")
            shape = take(f"<{rank}I")
            n_items = math.prod(shape)  # Python integers: a huge shape cannot wrap
            if off + 4 * n_items > size:
                raise FormatError(f"{path}: truncated payload of {name!r} "
                                  f"at byte offset {off}")
            try:
                tensor = np.empty(shape, dtype=np.float64)
            except ValueError as e:  # e.g. a zero-size shape too large for numpy
                raise FormatError(f"{path}: tensor {name!r} has unusable shape {shape} "
                                  f"at byte offset {off}") from e
            flat = tensor.reshape(-1)
            for lo in range(0, n_items, _LOAD_CHUNK):
                hi = min(lo + _LOAD_CHUNK, n_items)
                flat[lo:hi] = np.frombuffer(
                    read(4 * (hi - lo), f"truncated payload of {name!r}"), dtype="<f4")
            tensors[name] = tensor
        if off != size:
            raise FormatError(f"{path}: {size - off} trailing bytes at byte offset {off}")

    with _fields_of(path):
        dims = tuple(meta["grid_dims"])
        feature_dim = int(meta["feature_dim"])
        bbox = Aabb(np.array(meta["bbox_min"], dtype=np.float64),
                    np.array(meta["bbox_max"], dtype=np.float64))
        density_bias = float(meta["density_bias"])
    if len(dims) != 3 or not all(type(d) is int for d in dims):
        raise FormatError(f"{path}: grid_dims must be three integers, got {list(dims)}")
    if not (np.all(np.isfinite(bbox.extent)) and math.isfinite(density_bias)):
        raise FormatError(f"{path}: non-finite bounding box or density bias")
    n_nodes = dims[0] * dims[1] * dims[2]
    for name, want in (("density_grid", (n_nodes, 1)),
                       ("feature_grid", (n_nodes, feature_dim))):
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != want:
            raise FormatError(f"{path}: tensor {name!r} has shape "
                              f"{tensors[name].shape}, expected {want}")

    with _fields_of(path):
        for key, act in NET_ACTIVATIONS.items():
            if meta[key] != act:
                raise ValueError(f"{key} is {meta[key]!r}; the nets have {act!r}")
        model = FieldModel(
            density_grid=VoxelGrid(dims=dims, channels=1, bbox=bbox,
                                   values=tensors["density_grid"]),
            feature_grid=VoxelGrid(dims=dims, channels=feature_dim, bbox=bbox,
                                   values=tensors["feature_grid"]),
            deform_net=FieldModel.net_from_parameters(tensors, "deform"),
            radiance_net=FieldModel.net_from_parameters(tensors, "radiance"),
            enc_pos_levels=int(meta["enc_pos_levels"]),
            enc_dir_levels=int(meta["enc_dir_levels"]),
            density_bias=density_bias,
            deform_enabled=bool(meta["deform_enabled"]),
        )
    return model, meta


def geometry_extra(geometry: SceneGeometry) -> dict:
    """The checkpoint `extra` entries that `geometry_from_checkpoint` reads."""
    return {"rx_position": list(geometry.rx_position),
            "spectrum_res": list(geometry.spectrum_res)}


def geometry_from_checkpoint(path, meta: dict) -> SceneGeometry:
    """Scene geometry recorded in the metadata of the checkpoint at path: the
    `extra` entries rx_position and spectrum_res, and the grids' box."""
    with _fields_of(path):
        return _scene_geometry({**meta.get("extra", {}), "bbox": {
            "min_corner": meta["bbox_min"], "max_corner": meta["bbox_max"]}})
