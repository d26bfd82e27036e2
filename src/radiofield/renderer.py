"""Ray generation, sampling, and front-to-back compositing of spatial spectra.

Rays leave the fixed receiver over the upper hemisphere (z up, elevation
measured from the horizon) on an M x N grid of cell-center directions. Each
ray is clipped to the scene box, sampled uniformly, and composited with the
standard emission-absorption model; samples whose density falls below a
threshold are skipped as empty space.

One ray engine serves rendering, tracing and training: a `SampleTable` holds
the samples and shared trilinear support of a set of directions, and
`forward_segments` renders any of its rays for any transmitters with the
compositing of all rays done over per-ray segments in one pass;
`backward_segments` is its adjoint. The forward is a `density_pass`, which
does everything the transmitter does not touch, followed by a `signal_pass`
for one transmitter position (or one per ray). `render_spectra` walks the
spectrum's directions in blocks of whole rays of bounded sample count, and
runs one table and one density pass per block for many transmitters and one
signal pass each; a spectrum render is its one-transmitter case, `trace_ray`
the forward over a one-direction table, and the trainer's batches the forward
over cells of its stage table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import field_model, voxel_grid
from .field_model import (
    FieldModel,
    GradientSet,
    StaticTerms,
    sigmoid,
    signal_forward,
    softplus,
    static_terms,
)
from .voxel_grid import Aabb, voxel_edge

# Samples per render block: a spectrum render's transient memory (its sample
# table, encodings and activations, ~2 KB per sample at width 64) is bounded
# by this budget, not by the spectrum.
_RENDER_BLOCK = 1 << 13


@dataclass
class SceneGeometry:
    """Fixed receiver, scene box, and spectrum resolution (M azimuth, N elevation)."""

    rx_position: np.ndarray
    bbox: Aabb
    spectrum_res: tuple[int, int]

    def __post_init__(self):
        self.rx_position = np.asarray(self.rx_position, dtype=np.float64)
        self.spectrum_res = (int(self.spectrum_res[0]), int(self.spectrum_res[1]))
        if self.rx_position.shape != (3,):
            raise ValueError("rx_position must be a 3-vector")
        if not self.bbox.contains(self.rx_position):
            raise ValueError("receiver must sit inside the scene box")
        if self.spectrum_res[0] < 1 or self.spectrum_res[1] < 1:
            raise ValueError("spectrum resolution must be at least 1 x 1")

    @property
    def n_directions(self) -> int:
        return self.spectrum_res[0] * self.spectrum_res[1]


def _cell_directions(m, n, big_m: int, big_n: int) -> np.ndarray:
    """`direction_from_angles` of cells (m, n), scalars or equal-shape arrays,
    without its range check; components on the last axis."""
    phi = 2.0 * np.pi * (m + 0.5) / big_m
    theta = 0.5 * np.pi * (n + 0.5) / big_n
    return np.stack([np.cos(theta) * np.cos(phi),
                     np.cos(theta) * np.sin(phi),
                     np.sin(theta)], axis=-1)


def direction_from_angles(m: int, n: int, res) -> np.ndarray:
    """Unit direction of spectrum cell (m, n): azimuth 2*pi*(m+0.5)/M,
    elevation (pi/2)*(n+0.5)/N above the horizon, z up."""
    big_m, big_n = int(res[0]), int(res[1])
    if not (0 <= m < big_m and 0 <= n < big_n):
        raise ValueError(f"cell ({m}, {n}) outside resolution {big_m}x{big_n}")
    return _cell_directions(m, n, big_m, big_n)


def all_directions(res) -> np.ndarray:
    """All M*N cell-center directions, azimuth-major: row m*N + n."""
    big_m, big_n = int(res[0]), int(res[1])
    m, n = np.meshgrid(np.arange(big_m), np.arange(big_n), indexing="ij")
    return _cell_directions(m.ravel(), n.ravel(), big_m, big_n)


def clip_rays(origin: np.ndarray, directions: np.ndarray, bbox: Aabb) -> np.ndarray:
    """Slab exit distance t_far >= 0 of every ray from one origin inside the box.

    directions is (B, 3); axis-parallel components get infinite slab bounds
    rather than NaN.
    """
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    moving = d != 0.0
    safe = np.where(moving, d, 1.0)
    t1 = np.where(moving, (bbox.min_corner - o) / safe, -np.inf)
    t2 = np.where(moving, (bbox.max_corner - o) / safe, np.inf)
    return np.maximum(np.min(np.maximum(t1, t2), axis=1), 0.0)


def default_step(bbox: Aabb, dims) -> float:
    """Half of the smallest voxel edge (`voxel_edge`)."""
    return voxel_edge(bbox, dims) / 2.0


def _sample_counts(geometry: SceneGeometry, dirs: np.ndarray, step: float):
    """Exit distance t_far and sample count K = floor(t_far / step) of every
    receiver ray, directions (B, 3)."""
    t_far = clip_rays(geometry.rx_position, dirs, geometry.bbox)
    return t_far, np.floor(t_far / step).astype(np.int64)


def sample_rays(geometry: SceneGeometry, directions: np.ndarray, step: float):
    """Uniform samples along receiver rays, clipped to the scene box.

    On each ray, sample i sits at distance (i + 0.5) * step, K = floor(t_far /
    step); every spacing equals `step` except the last, which covers the
    remaining distance to the box exit. Returns concatenated positions and
    spacings plus per-ray offsets (offsets[b]..offsets[b+1] indexes ray b's
    samples).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    dirs = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    t_far, counts = _sample_counts(geometry, dirs, step)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    ray_of = np.repeat(np.arange(len(dirs)), counts)
    r = (np.arange(offsets[-1]) - offsets[ray_of] + 0.5) * step
    spacings = np.full(offsets[-1], step)
    last = offsets[1:][counts > 0] - 1
    spacings[last] = t_far[counts > 0] - r[last]
    positions = geometry.rx_position + r[:, None] * dirs[ray_of]
    return positions, spacings, offsets


def composite(sigma: np.ndarray, signal: np.ndarray, spacing: np.ndarray):
    """Front-to-back emission-absorption compositing of one ray: the one-ray
    case of `segment_weights` and `accumulate`.

    Returns (R, T_K, w) where T_K is the transmittance leaving the box and w
    the per-sample contribution weights (w.sum() + T_K == 1); a ray without
    samples gives (0.0, 1.0, an empty w).
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    spacing = np.asarray(spacing, dtype=np.float64)
    if not (sigma.shape == signal.shape == spacing.shape):
        raise ValueError("sigma, signal, spacing must have equal lengths")
    if np.any(sigma < 0):
        raise ValueError("negative volume density")
    if np.any(spacing <= 0):
        raise ValueError("spacings must be positive")
    ray_of = np.zeros(sigma.size, dtype=np.int64)
    t_out, _, w = segment_weights(sigma * spacing, ray_of, 1)
    return float(accumulate(w, signal, ray_of, 1)[0]), float(t_out[0]), w


def segment_prefix(values: np.ndarray, ray_of: np.ndarray, n_rays: int):
    """Per-ray inclusive prefix sums of contiguous ray segments."""
    cs = np.cumsum(values)
    counts = np.bincount(ray_of, minlength=n_rays)
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    base = np.concatenate([[0.0], cs])[starts]
    return cs - np.repeat(base, counts)


def segment_weights(optical: np.ndarray, ray_of: np.ndarray, n_rays: int):
    """Front-to-back compositing weights of many rays at once, over contiguous
    per-ray segments: the signal-independent half of compositing, whose other
    half is `accumulate`.

    optical is sigma * delta per sample and ray_of the owning ray
    (non-decreasing). alpha_i = 1 - exp(-optical_i); the transmittance T_i
    reaching sample i is exp of the segmented exclusive prefix of optical
    depth, equal to the sequential front-to-back product, and sample i weighs
    w_i = T_i * alpha_i, so a ray accumulates R = sum w_i S_i. Returns (T_K
    per ray, exclusive prefix per sample, weights per sample); a ray without
    samples gets T_K = 1.
    """
    excl = segment_prefix(optical, ray_of, n_rays) - optical
    w = np.exp(-excl) * -np.expm1(-optical)
    t_out = np.exp(-np.bincount(ray_of, weights=optical, minlength=n_rays))
    return t_out, excl, w


def accumulate(weights: np.ndarray, signal: np.ndarray, ray_of: np.ndarray,
               n_rays: int) -> np.ndarray:
    """R = sum of w_i S_i per ray; 0 for a ray without samples."""
    # bincount of no weights is integer-typed: a pass that keeps no sample
    # still returns float R
    return np.bincount(ray_of, weights=weights * signal, minlength=n_rays).astype(
        np.float64, copy=False)


def composite_segments_backward(optical: np.ndarray, signal: np.ndarray,
                                ray_of: np.ndarray, excl: np.ndarray,
                                weights: np.ndarray, t_out: np.ndarray,
                                d_r: np.ndarray, d_t: np.ndarray):
    """Adjoint of compositing by `segment_weights` and `accumulate`, given
    their outputs and upstream dL/dR and dL/dT_K per ray.

    Uses the closed forms, per ray segment,
        dL/dS_i   = dL/dR * w_i,
        dL/dtau_i = dL/dR * (T_{i+1} S_i - sum_{j>i} w_j S_j) - dL/dT_K * T_K,
    for the optical depth tau_i = sigma_i * delta_i, which avoid dividing by
    (1 - alpha). Returns (dL/dtau, dL/dS) per sample.
    """
    n_rays = len(d_r)
    ws = weights * signal
    incl_ws = segment_prefix(ws, ray_of, n_rays)
    total_ws = np.bincount(ray_of, weights=ws, minlength=n_rays)
    tail = total_ws[ray_of] - incl_ws
    t_next = np.exp(-(excl + optical))
    d_optical = d_r[ray_of] * (t_next * signal - tail) - d_t[ray_of] * t_out[ray_of]
    return d_optical, d_r[ray_of] * weights


class SampleTable:
    """Samples of a set of receiver rays at one step, with the trilinear
    support they share in the density and feature grids.

    All rays are clipped and sampled in one `sample_rays` pass; ray b owns
    rows offsets[b]..offsets[b+1]. The step defaults to `default_step` of the
    model's grid, and directions to every spectrum direction. The samples
    depend only on the geometry and the step, their support also on the grid
    dims and box, so one table serves every transmitter and every parameter
    update, and after the grids are resampled `resupport` renews the support
    alone. A spectrum render builds one table per block of its directions.
    emission_enc holds each ray's emission-direction encoding; the samples'
    position encodings are not held, `density_pass` encodes the kept samples
    of each call.
    """

    def __init__(self, geometry: SceneGeometry, model: FieldModel,
                 step: float | None = None, directions: np.ndarray | None = None):
        if step is None:
            step = default_step(geometry.bbox, model.density_grid.dims)
        if directions is None:
            directions = all_directions(geometry.spectrum_res)
        dirs = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
        self.emission_enc = model.encode_directions(-dirs)
        self.positions, self.spacings, self.offsets = sample_rays(geometry, dirs, step)
        self.counts = np.diff(self.offsets)
        self.resupport(model)

    def resupport(self, model: FieldModel) -> None:
        """Derive the samples' trilinear support in the model's grids, keeping
        the samples (and so the step)."""
        # looked up on voxel_grid at call time, where profilers hook the layer
        self.idx, self.weights = voxel_grid.interp_support(
            model.density_grid.dims, model.bbox, self.positions)


@dataclass
class SegmentTrace:
    """Intermediates of one pass over rays of a sample table. kept and sigma
    cover every sample of the pass, the other per-sample arrays the kept
    samples only, in ray order; a pass that keeps no sample has zero rows of
    them, static included. `density_pass` fills every field but the last two,
    which belong to one transmitter's `signal_pass`."""

    kept: np.ndarray           # skip mask over the pass's samples
    sigma: np.ndarray          # density at every sample of the pass
    rows_kept: np.ndarray      # table row of each kept sample
    kept_idx: np.ndarray       # interpolation support of kept samples
    kept_weights: np.ndarray
    raw_kept: np.ndarray       # pre-activation density at kept samples
    ray_of_kept: np.ndarray    # owning ray per kept sample (non-decreasing)
    spacings_kept: np.ndarray
    optical: np.ndarray        # sigma * delta per kept sample
    excl_prefix: np.ndarray    # per-ray exclusive prefix of optical depth
    weights: np.ndarray        # compositing weight T_i * alpha_i
    t_final: np.ndarray        # per ray
    static: StaticTerms        # signal nets' static inputs, on the kept samples
    signal_kept: np.ndarray | None = None
    sig_cache: object = None   # signal_forward cache, with want_cache


def density_pass(model: FieldModel, table: SampleTable, cells: np.ndarray,
                 tau: float, keep_encodings: bool = False) -> SegmentTrace:
    """Everything of a render of rays of a sample table that the transmitter
    does not touch.

    cells picks the table ray of each rendered ray. Samples with density
    below tau are skipped; the compositing weights, the static features and
    the static first-layer terms of the signal nets (`StaticTerms`) cover the
    kept samples only, which each call encodes. keep_encodings keeps the
    encodings the backward pass needs.
    """
    cells = np.asarray(cells)
    n_rays, counts = len(cells), table.counts[cells]
    starts = table.offsets[cells] - (np.cumsum(counts) - counts)
    rows = np.repeat(starts, counts) + np.arange(counts.sum())
    # row gathers by take and compress: the same rows as fancy and boolean
    # indexing, and faster
    idx = np.take(table.idx, rows, axis=0)
    weights = np.take(table.weights, rows, axis=0)
    raw = voxel_grid.blend(model.density_grid.values, idx, weights)[:, 0]
    sigma = softplus(raw + model.density_bias)
    kept = sigma >= tau
    rows_kept = np.compress(kept, rows)
    rk = np.compress(kept, np.repeat(np.arange(n_rays), counts))
    kept_idx = np.compress(kept, idx, axis=0)
    kept_weights = np.compress(kept, weights, axis=0)
    spacings_kept = np.take(table.spacings, rows_kept)
    optical = np.compress(kept, sigma) * spacings_kept
    t_out, excl, w = segment_weights(optical, rk, n_rays)

    feat = voxel_grid.blend(model.feature_grid.values, kept_idx, kept_weights)
    enc_x = model.encode_positions(np.take(table.positions, rows_kept, axis=0))
    static = static_terms(model, feat, rk, enc_x,
                          np.take(table.emission_enc, cells, axis=0), keep_encodings)
    return SegmentTrace(kept=kept, sigma=sigma, rows_kept=rows_kept,
                        kept_idx=kept_idx, kept_weights=kept_weights,
                        raw_kept=np.compress(kept, raw), ray_of_kept=rk,
                        spacings_kept=spacings_kept, optical=optical,
                        excl_prefix=excl, weights=w, t_final=t_out, static=static)


def signal_pass(model: FieldModel, trace: SegmentTrace, tx: np.ndarray,
                want_cache: bool = False):
    """The transmitter half of a render: the signal nets on a density pass's
    kept samples for transmitter position tx, (3,) for all rays or
    (n_rays, 3) per ray, composited with the pass's weights.

    Returns (accumulated per ray, signal per kept sample, signal_forward
    cache or None).
    """
    signal_kept, sig_cache = signal_forward(model, trace.static,
                                            model.encode_positions(tx), want_cache)
    r_out = accumulate(trace.weights, signal_kept, trace.ray_of_kept,
                       len(trace.t_final))
    return r_out, signal_kept, sig_cache


def forward_segments(model: FieldModel, table: SampleTable, tx: np.ndarray,
                     cells: np.ndarray, tau: float, want_cache: bool = False):
    """Render rays of a sample table with empty-space skipping: a
    `density_pass` and one `signal_pass`.

    cells picks the table ray of each rendered ray. tx is the transmitter
    position, (3,) for all rays or (n_rays, 3) per ray. Samples with density
    below tau are skipped; the signal nets run on the kept samples only, and
    compositing runs on per-ray segments of them. Returns (accumulated per
    ray, final transmittance per ray, trace).
    """
    trace = density_pass(model, table, cells, tau, keep_encodings=want_cache)
    r_out, trace.signal_kept, trace.sig_cache = signal_pass(model, trace, tx,
                                                            want_cache)
    # spent on the one transmitter, and the adjoint does not read it
    trace.static.x_pre = None
    return r_out, trace.t_final, trace


def backward_segments(model: FieldModel, trace: SegmentTrace, d_r: np.ndarray,
                      d_t: np.ndarray, grads: GradientSet,
                      sample_scale: np.ndarray | None = None) -> None:
    """Adjoint of `forward_segments` (taken with want_cache=True): chains
    upstream dL/dR and dL/dT_K per ray back through compositing, the nets and
    the grids, accumulating into grads (at its grid rows, `grid_index`).

    Without sample_scale this is the exact adjoint; with it, each kept
    sample's dL/dsigma and dL/dS are multiplied by its entry before they
    reach the nets and grids.
    """
    d_optical, d_signal = composite_segments_backward(
        trace.optical, trace.signal_kept, trace.ray_of_kept, trace.excl_prefix,
        trace.weights, trace.t_final, d_r, d_t)
    d_sigma = trace.spacings_kept * d_optical
    if sample_scale is not None:
        d_sigma = d_sigma * sample_scale
        d_signal = d_signal * sample_scale

    # signal_backward and scatter_grid_gradient are looked up on their modules
    # at call time, where profilers hook the layers
    d_raw = d_sigma * sigmoid(trace.raw_kept + model.density_bias)
    rows = grads.grid_index(trace.kept_idx)
    voxel_grid.scatter_grid_gradient(rows, trace.kept_weights, d_raw[:, None],
                                     grads["density_grid"])
    # d_feat is in the nets' dtype; the scatter sums the grid gradient in float64
    d_feat = field_model.signal_backward(model, trace.sig_cache, d_signal, grads)
    voxel_grid.scatter_grid_gradient(rows, trace.kept_weights, d_feat,
                                     grads["feature_grid"])


@dataclass
class RayTrace:
    """Every intermediate of one ray: samples, skip mask, and compositing terms.

    Compositing arrays (alphas, transmittance, weights) cover kept samples
    only, in ray order; skipped samples contribute exactly alpha = 0.
    """

    direction: np.ndarray
    positions: np.ndarray
    spacings: np.ndarray
    kept: np.ndarray
    sigma: np.ndarray
    signal: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    transmittance: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    accumulated: float = 0.0
    final_transmittance: float = 1.0

    @property
    def n_samples(self) -> int:
        return len(self.positions)

    @property
    def n_kept(self) -> int:
        return int(self.kept.sum())


def _checked_transmitters(tx, tau: float) -> np.ndarray:
    """tx as a float array, once tau and tx pass the render checks."""
    if not tau >= 0:  # NaN too: no density would compare >= it
        raise ValueError(f"skip threshold tau must be nonnegative, got {tau}")
    tx = np.asarray(tx, dtype=np.float64)
    if not np.all(np.isfinite(tx)):
        raise ValueError("tx must be finite")
    return tx


def _one_transmitter(tx) -> np.ndarray:
    """tx as a float array, once it has the shape (3,) of one position."""
    tx = np.asarray(tx, dtype=np.float64)
    if tx.shape != (3,):
        raise ValueError(f"tx must have shape (3,), got {tx.shape}")
    return tx


def trace_ray(model: FieldModel, geometry: SceneGeometry, tx: np.ndarray,
              direction: np.ndarray, tau: float = 0.0) -> RayTrace:
    """Render one ray keeping all intermediates (for tests and diagnostics):
    `forward_segments` over a one-direction table at the grid's default step.
    tx is one position (3,), direction one finite unit 3-vector."""
    tx = _checked_transmitters(_one_transmitter(tx), tau)
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (3,):
        raise ValueError(f"direction must be one 3-vector, got shape {direction.shape}")
    field_model._check_unit(direction)
    table = SampleTable(geometry, model, directions=direction)
    r_out, t_out, trace = forward_segments(model, table, tx, np.arange(1), tau)
    signal = np.zeros(len(table.spacings))
    signal[trace.kept] = trace.signal_kept
    return RayTrace(direction=direction, positions=table.positions,
                    spacings=table.spacings, kept=trace.kept, sigma=trace.sigma,
                    signal=signal, alphas=-np.expm1(-trace.optical),
                    transmittance=np.exp(-trace.excl_prefix),
                    weights=trace.weights, accumulated=float(r_out[0]),
                    final_transmittance=float(t_out[0]))


@dataclass
class SpectrumTrace:
    """Per-ray compositing summary of a full spectrum render."""

    final_transmittance: np.ndarray  # (M*N,) azimuth-major
    n_samples: int
    n_kept: int


def _ray_blocks(geometry: SceneGeometry, directions: np.ndarray, step: float):
    """Slices of consecutive directions whose sample counts (`sample_rays`'
    floor rule) sum to at most _RENDER_BLOCK; a longer ray gets a block of
    its own, and every direction lands in exactly one block."""
    counts = _sample_counts(geometry, directions, step)[1]
    ends = np.cumsum(counts)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + _RENDER_BLOCK, side="right")),
                   start + 1)
        yield slice(start, stop)
        start = stop


def _render_spectra(model: FieldModel, geometry: SceneGeometry, txs, tau: float):
    """Spectra of transmitters txs (T, 3) at the grid's default step, over the
    spectrum's directions in blocks of whole rays (`_ray_blocks`): per block
    one `SampleTable` and `density_pass`, then one `signal_pass` per
    transmitter. Returns the (T, M, N) spectra and the render's
    `SpectrumTrace`."""
    txs = _checked_transmitters(txs, tau)
    if txs.ndim != 2 or txs.shape[1] != 3:
        raise ValueError(f"transmitters must have shape (T, 3), got {txs.shape}")
    step = default_step(geometry.bbox, model.density_grid.dims)
    dirs = all_directions(geometry.spectrum_res)
    spectra = np.empty((len(txs), len(dirs)))
    stats = SpectrumTrace(final_transmittance=np.empty(len(dirs)), n_samples=0,
                          n_kept=0)
    for block in _ray_blocks(geometry, dirs, step):
        table = SampleTable(geometry, model, step, dirs[block])
        trace = density_pass(model, table, np.arange(len(table.counts)), tau)
        for j, tx in enumerate(txs):
            spectra[j, block] = signal_pass(model, trace, tx)[0]
        stats.final_transmittance[block] = trace.t_final
        stats.n_samples += len(table.spacings)
        stats.n_kept += len(trace.ray_of_kept)
    return spectra.reshape(len(txs), *geometry.spectrum_res), stats


def render_spectra(model: FieldModel, geometry: SceneGeometry, txs: np.ndarray, *,
                   tau: float = 0.0) -> np.ndarray:
    """Spatial spectra for T transmitter positions (T, 3): a (T, M, N) array,
    entry j equal to render_spectrum of txs[j]. The rays are rendered in
    blocks of at most a fixed number of samples, so memory is bounded by the
    block and not by the spectrum; within a block, the sampling, density and
    every transmitter-independent term are computed once for all
    transmitters."""
    return _render_spectra(model, geometry, txs, tau)[0]


def render_spectrum(model: FieldModel, geometry: SceneGeometry, tx: np.ndarray, *,
                    tau: float = 0.0) -> np.ndarray:
    """Spatial spectrum for one transmitter position: (M, N) array with cell
    (m, n) holding the accumulated signal from that direction."""
    spectrum, _ = render_spectrum_traced(model, geometry, tx, tau=tau)
    return spectrum


def render_spectrum_traced(model: FieldModel, geometry: SceneGeometry,
                           tx: np.ndarray, *, tau: float = 0.0):
    """render_spectrum plus per-ray transmittance and skip statistics: the
    one-transmitter case of `render_spectra`."""
    spectra, stats = _render_spectra(model, geometry, _one_transmitter(tx)[None], tau)
    return spectra[0], stats


def aggregate_rssi(spectrum: np.ndarray, calibration_db: float = 0.0) -> float:
    """Received signal strength in dB: 10*log10 of the spectrum's total linear
    power plus a calibration offset."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if not np.all((spectrum >= 0) & np.isfinite(spectrum)):
        raise ValueError("spectrum values must be finite and nonnegative")
    if not np.isfinite(calibration_db):
        raise ValueError(f"calibration_db must be finite, got {calibration_db}")
    total = float(spectrum.sum())
    if total <= 0.0:
        raise ValueError("no received power: spectrum sums to zero")
    return float(10.0 * np.log10(total) + calibration_db)
