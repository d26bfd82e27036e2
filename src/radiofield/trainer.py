"""Training loop: Adam, exponential LR decay, progressive grids, calibration.

Batches are rendered and differentiated by the renderer's ray engine. Ray
geometry is fixed for a whole run (receiver, box, direction set, and step
size do not change at upsample events), so a run builds one sample table over
every spectrum direction, holding only the samples and their trilinear
support, and an upsample event renews only that support; each iteration
renders its (transmitter, direction-cell) rays from that table with
`forward_segments` and backpropagates with `backward_segments`.

Only grid nodes in the table's support (its reached rows, `grid_rows`) can
get a gradient, so the grid gradients and grid Adam moments of a stage live on
those rows alone, Adam updates those rows of the grids in place, and the other
nodes are never updated: with zero gradient and zero moments their dense Adam
update would be exactly zero.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset
from .field_model import (
    GRID_PARAM_NAMES,
    FieldModel,
    GradientSet,
    init_field_model,
)
from .objectives import LossReport, background_entropy, spectrum_mse, total_loss
from .renderer import (
    SampleTable,
    SceneGeometry,
    aggregate_rssi,
    backward_segments,
    default_step,
    forward_segments,
    render_spectra,
)
from .voxel_grid import upsample, voxel_edge


class NumericalError(RuntimeError):
    """Training produced a non-finite quantity."""


# training's empty-space skip threshold, and inference's and calibration's default
SKIP_TAU = 1e-4


@dataclass
class TrainConfig:
    """Hyperparameters; the defaults are the desk-scale profile.

    The desk grid learning rate is scaled down from the full-scale 0.2. The
    sharp density structure that progressive upsampling perturbs sits within
    a few voxels of the receiver, at the best-covered nodes, not at weakly
    constrained ones; train() scales the gradients there down.
    """

    final_dims: tuple = (32, 32, 32)
    feature_dim: int = 8
    mlp_width: int = 64
    stages: int = 3
    upsample_iters: tuple | None = None  # default: total/8, total/4, total/2
    total_iters: int = 5000
    batch_rays: int = 256
    lr_grid: float = 0.04
    tau: float = SKIP_TAU
    bg_weight: float = 1e-4
    seed: int = 0
    deform_enabled: bool = True
    log_interval: int = 100

    def __post_init__(self):
        self.final_dims = tuple(int(d) for d in self.final_dims)
        # every comparison below is false for NaN, so NaN fails its check
        for name, ok, need in (
                ("final_dims",
                 len(self.final_dims) == 3 and all(d >= 2 for d in self.final_dims),
                 "three node counts, each at least 2"),
                ("feature_dim", self.feature_dim >= 1, "at least 1"),
                ("mlp_width", self.mlp_width >= 1, "at least 1"),
                ("stages", self.stages >= 0, "nonnegative"),
                ("total_iters", self.total_iters >= 0, "nonnegative"),
                ("batch_rays", self.batch_rays >= 1, "at least 1"),
                ("lr_grid", 0 <= self.lr_grid < math.inf, "finite and nonnegative"),
                ("tau", self.tau >= 0, "nonnegative"),
                ("bg_weight", 0 <= self.bg_weight < math.inf, "finite and nonnegative"),
                ("seed", self.seed >= 0, "nonnegative"),
                ("log_interval", self.log_interval >= 1, "at least 1")):
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")
        derived = self.upsample_iters is None
        if derived:
            # front-loaded: the three-stage family is {T/8, T/4, T/2}; fewer
            # stages keep its leading members, more stages extend it downward
            span = max(self.stages, 3)
            self.upsample_iters = tuple(
                self.total_iters // 2 ** (span - s) for s in range(self.stages))
        else:
            self.upsample_iters = tuple(int(i) for i in self.upsample_iters)
        if len(self.upsample_iters) != self.stages:
            raise ValueError(f"need {self.stages} upsample iterations, "
                             f"got {len(self.upsample_iters)}")
        if any(i < 0 for i in self.upsample_iters):
            raise ValueError(f"upsample_iters must be nonnegative, got {self.upsample_iters!r}")
        if any(b >= a for a, b in zip(self.upsample_iters[1:], self.upsample_iters)):
            raise ValueError(
                f"total_iters {self.total_iters} is too small for {self.stages} stages"
                if derived else "upsample_iters must be strictly increasing")
        if any(i >= self.total_iters for i in self.upsample_iters):
            raise ValueError("upsample_iters must all precede total_iters")

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        return cls(**overrides)

    @classmethod
    def paper(cls, **overrides) -> "TrainConfig":
        """Full-scale profile: 160^3 grid, 24 features, 256-wide MLPs,
        1024-ray batches, grid learning rate 0.2, ~100k iterations."""
        defaults = dict(final_dims=(160, 160, 160), feature_dim=24, mlp_width=256,
                        total_iters=100_000, batch_rays=1024, lr_grid=0.2)
        defaults.update(overrides)
        return cls(**defaults)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the nets' learning rate; both rates decay to this fraction of theirs over a run
LR_MLP = 2e-3
LR_DECAY_TARGET_FRACTION = 0.1


@dataclass
class AdamState:
    """First/second moment buffers and step counter for one parameter group."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


# Elements per Adam block: six block-sized arrays (parameter, gradient, two
# moments, two scratch buffers) stay within a typical L2 cache in float64, the
# grids' dtype (the float32 nets take half of it).
_ADAM_BLOCK = 1 << 14


def _blocks(shape) -> list:
    """Leading-axis slices covering about _ADAM_BLOCK elements each, so each
    block of an array is a view of it whatever its strides."""
    if not shape:
        return [...]
    rows = max(1, _ADAM_BLOCK // max(1, math.prod(shape[1:])))
    return [slice(i, i + rows) for i in range(0, max(1, shape[0]), rows)]


def adam_step(params: dict, grads, state: AdamState, lr: float,
              rows: np.ndarray | None = None) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter arrays.

    grads maps every parameter name to an array of its shape (a dict or a
    GradientSet), and state holds moments of the same shapes. With rows (node
    indices along every parameter's leading axis), gradients and moments cover
    those rows only, row i being parameter row rows[i], and no other row is
    touched. Each tensor is walked in cache-sized blocks along its leading
    axis, through two block-sized scratch buffers, with the per-element
    arithmetic of the dense update m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g^2, p -= lr (m / bc1) / (sqrt(v / bc2) + eps), so the
    result is bit-identical to it without any tensor-sized temporary; with
    rows, each block gathers its parameter rows into a scratch buffer and
    writes them back. A tensor's gradient is checked finite in full before
    that tensor is touched; tensors earlier in params order have then already
    been updated.
    """
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        want = p.shape if rows is None else (len(rows),) + p.shape[1:]
        if g.shape != want:
            raise ValueError(f"gradient shape {g.shape} != expected {want} for {name!r}")
        blocks = _blocks(g.shape)
        if not all(np.isfinite(g[s]).all() for s in blocks):
            raise NumericalError(f"non-finite gradient in tensor {name!r}")
        m = state.m[name]
        v = state.v[name]
        scratch_a = np.empty(g[blocks[0]].shape, dtype=p.dtype)
        scratch_b = np.empty_like(scratch_a)
        for s in blocks:
            gb, mb, vb = g[s], m[s], v[s]
            a, b = scratch_a, scratch_b
            if gb.shape != a.shape:  # the last, partial block
                a, b = a[:len(gb)], b[:len(gb)]
            mb *= b1
            np.multiply(1.0 - b1, gb, out=a)
            mb += a
            vb *= b2
            np.multiply(gb, gb, out=a)
            np.multiply(1.0 - b2, a, out=a)
            vb += a
            np.divide(mb, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            # b is free again; with rows it takes the block's parameter rows
            pb = p[s] if rows is None else np.take(p, rows[s], axis=0, out=b)
            pb -= a
            if rows is not None:
                p[rows[s]] = pb
    return state


def lr_at(iteration: int, lr0: float, total_iters: int) -> float:
    """Exponential decay from lr0 to LR_DECAY_TARGET_FRACTION * lr0 over the run."""
    if not 0 <= iteration <= total_iters:
        raise ValueError("iteration outside schedule")
    if total_iters == 0:
        return lr0
    return lr0 * LR_DECAY_TARGET_FRACTION ** (iteration / total_iters)


def progressive_dims(final_dims, stage: int, m_stages: int) -> tuple:
    """Node counts of a progressive stage: the voxel count doubles per stage,
    reaching final_dims at stage == m_stages; per-axis counts scale by the
    cube root of the count ratio."""
    if not 0 <= stage <= m_stages:
        raise ValueError(f"stage {stage} outside 0..{m_stages}")
    final_dims = tuple(int(d) for d in final_dims)
    if stage == m_stages:
        return final_dims
    final_count = final_dims[0] * final_dims[1] * final_dims[2]
    target = final_count // 2 ** (m_stages - stage)
    ratio = (target / final_count) ** (1.0 / 3.0)
    return tuple(min(max(2, round(d * ratio)), d) for d in final_dims)


def _grid_stage(model: FieldModel, rows: np.ndarray):
    """A stage's grid parameters, its zeroed GradientSet and fresh grid Adam
    state; the grid gradients and moments cover the reached rows only."""
    grads = GradientSet.zeros_like(model, grid_rows=rows)
    grid_params = {k: model.parameters()[k] for k in GRID_PARAM_NAMES}
    return grid_params, grads, AdamState.for_params({k: grads[k] for k in grid_params})


def _reached_nodes(idx: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sorted node indices occurring in a trilinear support idx."""
    reached = np.zeros(n_nodes, dtype=bool)
    reached[idx] = True
    return np.flatnonzero(reached)


def near_receiver_radius(geometry: SceneGeometry, final_dims) -> float:
    """Distance from the receiver at which neighbouring ray directions are one
    final voxel apart: edge * sqrt(n_directions / 2 pi).

    Each of the n_directions cells covers 2 pi / n_directions steradians of
    the hemisphere, so at distance r neighbouring rays sit about
    r * sqrt(2 pi / n_directions) apart; the edge is the final grid's
    `voxel_edge`.
    """
    edge = voxel_edge(geometry.bbox, final_dims)
    return edge * math.sqrt(geometry.n_directions / (2.0 * math.pi))


class _StageCache(SampleTable):
    """The sample table of a training run, over every spectrum direction;
    `resupport` it after the grids are resampled.

    grid_rows holds the sorted grid nodes of the table's support, the only
    nodes a training gradient can reach and the only grid rows Adam updates.
    """

    def resupport(self, model: FieldModel) -> None:
        super().resupport(model)
        self.grid_rows = _reached_nodes(self.idx, model.density_grid.n_nodes)


# The batch forward and adjoint are the ray engine's; train() calls them by
# these names.
_forward_batch = forward_segments
_backward_batch = backward_segments


@dataclass
class TrainResult:
    model: FieldModel
    history: list  # (iteration, LossReport) pairs
    upsample_events: list = field(default_factory=list)


class _MallInfo2(ctypes.Structure):
    """glibc's struct mallinfo2 (glibc 2.33 and later)."""

    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


def _find_glibc_heap():
    """glibc's (mallinfo2, malloc_trim), or None under another C library."""
    try:
        libc = ctypes.CDLL(None)
        mallinfo2, malloc_trim = libc.mallinfo2, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    mallinfo2.restype = _MallInfo2
    return mallinfo2, malloc_trim


# A fit's temporaries of a few MB come from glibc's heap once its dynamic mmap
# threshold has risen past them, and the heap keeps their pages after they are
# freed whenever a small live allocation sits above them: 60-100 MB after a
# 96^3 x 24 fit, more or less from one run to the next, which whatever runs
# next stacks on. train() hands such free pages back once the fit's arrays are
# gone. It leaves up to 32 MiB (the ceiling of glibc's mmap threshold, so the
# most one temporary reuses) in place, since the next fit or render faults back
# in every page handed back: trimming the 11-26 MB a 32^3 desk fit leaves free
# cost its held-out renders ~15% of their throughput.
_GLIBC_HEAP = _find_glibc_heap()
_TRIM_FREE_BYTES = 32 << 20


def _trim_heap() -> None:
    if _GLIBC_HEAP is not None:
        mallinfo2, malloc_trim = _GLIBC_HEAP
        if mallinfo2().fordblks > _TRIM_FREE_BYTES:
            malloc_trim(0)


def _eval_loss(model, cache, config, txs, cells, targets):
    r_hat, t_k, _ = _forward_batch(model, cache, txs, cells, config.tau)
    sl, _ = spectrum_mse(r_hat, targets)
    bl, _ = background_entropy(t_k)
    return total_loss(sl, bl, config.bg_weight)


def train(dataset: Dataset, config: TrainConfig, log_fn=None,
          eval_rays=None) -> TrainResult:
    """Fit a field model to a dataset of (tx, spectrum) records.

    Each iteration draws batch_rays (record, direction-cell) pairs uniformly,
    renders them with empty-space skipping, and applies bias-corrected Adam
    with separate exponentially decayed rates for grids and MLPs. At each
    configured iteration both grids are trilinearly upsampled to the next
    progressive resolution and the grid Adam moments restart (their shapes
    changed); MLP moments persist. Gradients accumulate into one GradientSet
    per stage, zeroed in place before every backward pass.

    The nets train in float32: train() casts the seeded initial nets once,
    and their passes, gradients and Adam moments and the encodings they read
    follow. Grids, compositing, losses and grid Adam stay float64; the
    returned model keeps float32 nets.

    The grid gradients and grid Adam moments of a stage cover only its
    reached rows, the grid nodes in the stage table's trilinear support
    (`_StageCache.grid_rows`), and each step's Adam update touches only
    those rows of the grids, in place. Nodes no ray reaches are never
    updated, which is exactly the dense update: their gradient and moments
    would stay zero, and so would their Adam step.

    Every ray starts at the receiver, so the nodes next to it are crossed by
    all directions and can fit direction-dependent attenuation as sub-voxel
    density structure, which resampling onto the next, non-coinciding lattice
    erases. Each kept sample's dL/dsigma and dL/dS are therefore multiplied
    by min(1, (r / r0)^2) before they reach the nets and grids, r being the
    sample's distance from the receiver and r0 = near_receiver_radius(geometry,
    final_dims) the distance at which neighbouring directions are one final
    voxel apart (the gradient scaling of Philip & Deschaintre, "Floaters No
    More", EGSR 2023); the scales of all stage-table samples are computed
    once per run. Losses, eval_rays and rendering are not scaled.

    log_fn, when given, receives one CSV line per log interval:
    ``iter,spectrum_loss,bg_loss,total,lr_grid,lr_mlp``. eval_rays, when
    given as (tx_positions, direction_cells, targets), is evaluated before
    and after every upsample event into TrainResult.upsample_events.

    Once the fit's arrays are freed, train() returns the C heap's free pages
    to the operating system when they exceed 32 MiB (glibc only).
    """
    result = _fit(dataset, config, log_fn, eval_rays)
    _trim_heap()
    return result


def _fit(dataset: Dataset, config: TrainConfig, log_fn, eval_rays) -> TrainResult:
    if not dataset.records:
        raise ValueError("dataset has no records")
    geometry = dataset.geometry
    targets = dataset.load_spectra().reshape(len(dataset.records), -1)
    tx_positions = dataset.tx_positions()
    n_records, n_cells = targets.shape

    stage = 0
    model = init_field_model(
        geometry.bbox, progressive_dims(config.final_dims, 0, config.stages),
        config.feature_dim, config.mlp_width, seed=config.seed)
    model.deform_enabled = config.deform_enabled
    model.deform_net = model.deform_net.astype(np.float32)
    model.radiance_net = model.radiance_net.astype(np.float32)

    # half of the final voxel edge in every stage, so upsample events
    # change only the representation, not the quadrature
    step = default_step(geometry.bbox, config.final_dims)
    cache = _StageCache(geometry, model, step)
    r0 = near_receiver_radius(geometry, config.final_dims)
    r = np.linalg.norm(cache.positions - geometry.rx_position, axis=1)
    grad_scale = np.minimum(1.0, (r / r0) ** 2)
    grid_params, grads, adam_grid = _grid_stage(model, cache.grid_rows)
    mlp_params = {k: p for k, p in model.parameters().items() if k not in grid_params}
    adam_mlp = AdamState.for_params(mlp_params)
    upsample_at = {it: s + 1 for s, it in enumerate(config.upsample_iters)}

    rng = np.random.default_rng(config.seed)
    history = []
    events = []
    for it in range(config.total_iters):
        if it in upsample_at:
            before = (_eval_loss(model, cache, config, *eval_rays)
                      if eval_rays is not None else None)
            stage = upsample_at[it]
            new_dims = progressive_dims(config.final_dims, stage, config.stages)
            model.density_grid = upsample(model.density_grid, new_dims)
            model.feature_grid = upsample(model.feature_grid, new_dims)
            cache.resupport(model)
            grid_params, grads, adam_grid = _grid_stage(model, cache.grid_rows)
            after = (_eval_loss(model, cache, config, *eval_rays)
                     if eval_rays is not None else None)
            events.append({"iteration": it, "stage": stage, "dims": new_dims,
                           "loss_before": before, "loss_after": after})

        rec = rng.integers(0, n_records, config.batch_rays)
        cell = rng.integers(0, n_cells, config.batch_rays)
        r_hat, t_k, trace = _forward_batch(model, cache, tx_positions[rec], cell,
                                           config.tau)
        sl_loss, d_r = spectrum_mse(r_hat, targets[rec, cell])
        bg_loss, d_t = background_entropy(t_k)
        tot = total_loss(sl_loss, bg_loss, config.bg_weight)
        if not math.isfinite(tot):
            raise NumericalError(f"non-finite loss at iteration {it}")

        grads.zero()
        _backward_batch(model, trace, d_r, config.bg_weight * d_t, grads,
                        sample_scale=grad_scale[trace.rows_kept])
        lr_g = lr_at(it, config.lr_grid, config.total_iters)
        lr_m = lr_at(it, LR_MLP, config.total_iters)
        adam_step(grid_params, grads, adam_grid, lr_g, rows=cache.grid_rows)
        adam_step(mlp_params, grads, adam_mlp, lr_m)

        if it % config.log_interval == 0 or it == config.total_iters - 1:
            report = LossReport.build(sl_loss, bg_loss, config.bg_weight,
                                      ray_count=config.batch_rays)
            history.append((it, report))
            if log_fn is not None:
                log_fn(f"{it},{sl_loss:.10e},{bg_loss:.10e},{tot:.10e},"
                       f"{lr_g:.10e},{lr_m:.10e}")
    return TrainResult(model=model, history=history, upsample_events=events)


def fit_rssi_calibration(model: FieldModel, geometry: SceneGeometry, records,
                         tau: float = SKIP_TAU) -> float:
    """Least-squares constant offset between measured RSSI and the model's
    10*log10(total predicted power), over records carrying a measurement;
    their spectra are rendered together (`render_spectra`)."""
    measured = [rec for rec in records if rec.rssi_dbm is not None]
    if not measured:
        raise ValueError("no records with measured RSSI and positive predicted power")
    spectra = render_spectra(model, geometry, np.array([rec.tx_position for rec in measured]),
                             tau=tau)
    return rssi_offset([rec.rssi_dbm for rec in measured], spectra)


def rssi_offset(measured_dbm, spectra) -> float:
    """The `fit_rssi_calibration` offset from rendered spectra: the mean of
    measured RSSI minus the uncalibrated `aggregate_rssi`, over spectra with
    positive power."""
    residuals = []
    for rssi_dbm, spectrum in zip(measured_dbm, spectra):
        if float(spectrum.sum()) <= 0:
            continue
        residuals.append(rssi_dbm - aggregate_rssi(spectrum))
    if not residuals:
        raise ValueError("no records with measured RSSI and positive predicted power")
    return float(np.mean(residuals))
