"""The benchmark's workloads: train-desk, train-largegrid and infer-eval.

Each workload makes its inputs from the seed with the package's own synthesizer
(the built-in demo scene), drives the package only through its public functions,
checks the outputs, and returns its end-to-end metrics. With tracing on it runs
one fixed unit of work twice, untraced then traced, and returns the per-layer
metrics instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from radiofield import cli, dataio, field_model, renderer, trainer

import tracing

SKIP_TAU = 1e-4          # the CLI's default inference skip threshold
HELDOUT_SEED = 1_000_003  # fixed held-out transmitters, the same for every seed
MODEL_SEED = 0           # MLP weights of the infer-eval model
DENSITY_FLOOR = 0.05     # infer-eval: oracle densities below this become empty
EMPTY_RAW = -30.0        # raw density of an empty node: softplus(-33) ~ 5e-15
SETUP_REPEATS = 3
# Grid-sized float64 arrays alive at once in a training iteration: parameters,
# Adam m and v, the gradient, the previous gradient while the next is allocated,
# and three Adam temporaries; plus a fixed allowance for everything else.
GRID_COPIES = 8
BASE_BYTES = 512 << 20

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("render_noskip_ms_p50", "ms"),
    ("heldout_mse", "1"),
    ("eval_spectra_per_s", "1/s"),
]


@dataclass(frozen=True)
class TrainSize:
    dims: int
    feature_dim: int
    mlp_width: int
    batch_rays: int
    stages: int
    iters: int       # iterations of one training unit
    n_train: int     # synthesized training records
    n_heldout: int   # fixed held-out records
    heldout_per_round: int  # held-out records scored after each training unit


@dataclass(frozen=True)
class InferSize:
    dims: int
    feature_dim: int
    mlp_width: int
    n_records: int   # eval dataset: 80% calibrate RSSI, 20% are held out
    n_pairs: int     # request pairs (tau=1e-4, then tau=0) per round
    n_heldout: int   # fixed held-out records scored for heldout_mse


SIZES = {
    "full": {
        "train-desk": TrainSize(32, 8, 64, 256, 3, 32, 16, 12, 2),
        "train-largegrid": TrainSize(96, 24, 64, 256, 0, 8, 16, 8, 4),
        "infer-eval": InferSize(32, 8, 64, 15, 10, 6),
    },
    "tiny": {
        "train-desk": TrainSize(12, 4, 16, 32, 3, 16, 4, 2, 2),
        "train-largegrid": TrainSize(16, 24, 16, 32, 0, 4, 4, 2, 2),
        "infer-eval": InferSize(10, 4, 16, 5, 2, 2),
    },
}


class MemoryGuardError(RuntimeError):
    """The workload would not fit in the memory available."""


class Outcome:
    """Operations attempted and failed; a failed check counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, passed: bool, message: str) -> None:
        if passed:
            self.ok()
        else:
            self.fail(message)


def with_units(values: dict) -> dict:
    units = dict(END_TO_END)
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


@dataclass
class Result:
    metrics: dict
    outcome: Outcome
    notes: dict = field(default_factory=dict)
    tracer: object = None  # the traced run's spans


# --- statistics ----------------------------------------------------------------

def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has at
    least ten samples above it; the maximum when there are too few samples."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(s)
    if n <= 10:
        return float(s[-1]), 100.0, n
    return float(s[n - 11]), 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mem_available_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def guard_memory(size: TrainSize, available: int | None = None) -> dict:
    """Refuse a training size whose estimated peak exceeds available memory."""
    values = size.dims ** 3 * (1 + size.feature_dim)
    need = values * 8 * GRID_COPIES + BASE_BYTES
    if available is None:
        available = mem_available_bytes()
    if available is not None and need > available:
        raise MemoryGuardError(
            f"{size.dims}^3 grid with {size.feature_dim} features needs an "
            f"estimated {need / 2**20:.0f} MiB ({values} grid values x 8 B x "
            f"{GRID_COPIES} copies + {BASE_BYTES >> 20} MiB), but only "
            f"{available / 2**20:.0f} MiB is available; refusing to start")
    return {"estimated_peak_mb": need / 2**20,
            "mem_available_mb": None if available is None else available / 2**20}


# --- inputs ----------------------------------------------------------------------

def synthesize(scene, geometry, n_tx: int, seed: int, out_dir: Path, rssi: bool = False):
    """Write a dataset with the package's synthesizer and load it back."""
    dataio.generate_dataset(scene, geometry, n_tx, seed, out_dir,
                            fine_step=float(geometry.bbox.extent.min()) / 128.0,
                            rssi_noise_db=1.0 if rssi else None)
    dataset = dataio.load_dataset(out_dir)
    dataset.load_spectra()
    return dataset


def heldout_set(scene, geometry, n: int, work: Path):
    """Fixed held-out transmitters and their unnormalized ground-truth spectra."""
    held = synthesize(scene, geometry, n, HELDOUT_SEED, work / "heldout")
    return held.tx_positions(), held.load_spectra() * held.normalization


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@contextlib.contextmanager
def request(tracer, kind: str):
    """A root span around one request when tracing, nothing otherwise."""
    if tracer is None:
        yield
        return
    tracer.begin_request(kind)
    try:
        yield
    finally:
        tracer.end_request()


def spectrum_digest(spectrum) -> str:
    return hashlib.sha256(np.ascontiguousarray(spectrum).tobytes()).hexdigest()


# --- training workloads ----------------------------------------------------------

@dataclass
class TrainRun:
    lines: list
    iter_seconds: list  # per iteration; entry 0 also covers train()'s set-up
    model: object


def train_config(size: TrainSize, seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig.desk(
        final_dims=(size.dims,) * 3, feature_dim=size.feature_dim,
        mlp_width=size.mlp_width, batch_rays=size.batch_rays, stages=size.stages,
        total_iters=size.iters, seed=seed, log_interval=1)


def train_once(dataset, config, outcome: Outcome, tracer=None) -> TrainRun | None:
    """One training run; iteration times are read off the per-iteration log."""
    lines, times = [], []
    last = time.perf_counter()

    def log_fn(line):
        nonlocal last
        now = time.perf_counter()
        times.append(now - last)
        last = now
        lines.append(line)
        if tracer is not None:
            tracer.end_request()
            tracer.begin_request("iteration")

    if tracer is not None:
        tracer.begin_request("iteration")
    try:
        result = trainer.train(dataset, config, log_fn=log_fn)
    except trainer.NumericalError as e:
        outcome.ok(len(lines))
        outcome.fail(f"numerical failure: {e}")
        return None
    finally:
        if tracer is not None:
            tracer.drop_request()
    for line in lines:
        losses = [float(v) for v in line.split(",")[1:4]]
        outcome.check(all(math.isfinite(v) for v in losses),
                      f"non-finite loss in log line {line!r}")
    return TrainRun(lines=lines, iter_seconds=times, model=result.model)


@dataclass
class HeldoutScores:
    """Squared errors per held-out record, and render times with and without
    skipping; filled a few records at a time over the run."""

    errors: dict = field(default_factory=dict)
    skip_seconds: list = field(default_factory=list)
    noskip_seconds: list = field(default_factory=list)

    def mse(self) -> float:
        return float(np.mean([self.errors[i] for i in sorted(self.errors)]))


def score_heldout(model, geometry, held, indices, normalization: float, tau: float,
                  scores: HeldoutScores, outcome: Outcome, work: Path,
                  tracer=None) -> None:
    """Checkpoint round trip, then render the given held-out transmitters with
    and without skipping; the skipping renders are scored against ground truth."""
    txs, raw = held
    with request(tracer, "heldout"):
        path = work / "model.ckpt"
        dataio.save_checkpoint(path, model)
        loaded, _ = dataio.load_checkpoint(path)
        for i in indices:
            spectrum, dt = timed(renderer.render_spectrum, loaded, geometry, txs[i],
                                 tau=tau)
            scores.skip_seconds.append(dt)
            ok = bool(np.all(np.isfinite(spectrum)) and np.all(spectrum >= 0))
            outcome.check(ok, "held-out render is not finite and nonnegative")
            scores.errors[i] = float(np.mean((spectrum - raw[i] / normalization) ** 2))
            _, dt = timed(renderer.render_spectrum, loaded, geometry, txs[i], tau=0.0)
            scores.noskip_seconds.append(dt)
            outcome.ok()


def run_train(size: TrainSize, seed: int, seconds: float, trace: bool,
              work: Path) -> Result:
    notes = {"memory_guard": guard_memory(size)}
    scene, geometry = cli.builtin_scene("demo")
    held = heldout_set(scene, geometry, size.n_heldout, work)
    config = train_config(size, seed)
    outcome = Outcome()
    if trace:
        return _traced_train(size, seed, config, scene, geometry, held, outcome,
                             work, notes)

    # Rounds of synthesize, train and score a few held-out records, so that
    # every timing is sampled across the whole run. Every round trains the same
    # model, so the held-out errors of different rounds make up one model's MSE.
    setup, iters, scores = [], [], HeldoutScores()
    start = time.perf_counter()
    while len(setup) < SETUP_REPEATS or time.perf_counter() - start < seconds:
        run = None  # keep one model alive at a time
        dataset, dt = timed(synthesize, scene, geometry, size.n_train, seed,
                            work / "train")
        run = train_once(dataset, config, outcome)
        if run is None:
            raise RuntimeError("training failed: " + "; ".join(outcome.errors))
        setup.append(dt + run.iter_seconds[0])
        iters.extend(run.iter_seconds[1:])
        first = (len(setup) - 1) * size.heldout_per_round
        score_heldout(run.model, geometry, held,
                      [(first + j) % size.n_heldout
                       for j in range(size.heldout_per_round)],
                      dataset.normalization, config.tau, scores, outcome, work)
    todo = [i for i in range(size.n_heldout) if i not in scores.errors]
    if todo:
        score_heldout(run.model, geometry, held, todo, dataset.normalization,
                      config.tau, scores, outcome, work)
    step_tail, pct, n = tail(iters)
    notes.update(step="training iteration", step_samples=n, step_tail_percentile=pct,
                 rounds=len(setup))
    metrics = {
        "setup_s": float(np.median(setup)),
        "peak_rss_mb": peak_rss_mb(),
        "step_ms_p50": 1e3 * float(np.median(iters)),
        "step_ms_tail": 1e3 * step_tail,
        "render_noskip_ms_p50": 1e3 * float(np.median(scores.noskip_seconds)),
        "heldout_mse": scores.mse(),
        "eval_spectra_per_s": 1.0 / float(np.median(scores.skip_seconds)),
    }
    return Result(with_units(metrics), outcome, notes)


# ROADMAP cProfile split of 400 desk iterations, as shares of iteration time
PROFILE_SPLIT = {"mlp_backward": 0.39, "mlp_forward": 0.24,
                 "scatter_grid_gradient": 0.13, "forward_batch": 0.10,
                 "adam_step": 0.03}


def _traced_train(size, seed, config, scene, geometry, held, outcome, work, notes):
    def unit(tracer):
        with request(tracer, "setup"):
            dataset = synthesize(scene, geometry, size.n_train, seed, work / "train")
        run = train_once(dataset, config, outcome, tracer)
        if run is None:
            raise RuntimeError("training failed: " + "; ".join(outcome.errors))
        scores = HeldoutScores()
        score_heldout(run.model, geometry, held, range(size.n_heldout),
                      dataset.normalization, config.tau, scores, outcome, work, tracer)
        return run, scores.mse()

    plain_run, plain_mse = unit(None)
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        traced_run, traced_mse = unit(tracer)
    outcome.check(traced_run.lines == plain_run.lines,
                  "traced and untraced training logs differ")
    outcome.check(traced_mse == plain_mse,
                  "traced and untraced held-out MSE differ")
    overhead = (np.median(traced_run.iter_seconds[1:])
                / np.median(plain_run.iter_seconds[1:]) - 1.0)
    iterations = tracing.request_ids(tracer, "iteration")
    in_iters = tracing.span_totals(tracer.spans, iterations)
    iter_seconds = sum(s.seconds for s in tracer.spans
                       if tracer.requests.get(s.sid) == "iteration")
    notes.update(absent_hooks=hooks.absent, counter_errors=tracer.counter_errors,
                 traced_unit=f"synthesize {size.n_train} records, {size.iters} "
                             f"iterations, score {size.n_heldout} held-out records",
                 iteration_self_time_split={
                     name: {"measured": (in_iters[name].self_seconds / iter_seconds
                                         if name in in_iters else 0.0),
                            "roadmap_cprofile": share}
                     for name, share in PROFILE_SPLIT.items()})
    return Result(_trace_metrics(tracer, overhead), outcome, notes, tracer)


def _trace_metrics(tracer, overhead: float) -> dict:
    metrics = tracing.per_layer_metrics(tracer)
    metrics["bench.trace_overhead_frac"] = {"value": float(overhead), "unit": "frac"}
    metrics["bench.trace_coverage_frac"] = {"value": tracing.coverage(tracer),
                                            "unit": "frac"}
    return metrics


# --- inference workload ---------------------------------------------------------

def build_model(scene, geometry, size: InferSize, path: Path) -> None:
    """Oracle densities on the grid nodes (empty below a floor), everything else
    from init_field_model; saved as a checkpoint the CLI can evaluate."""
    model = field_model.init_field_model(
        geometry.bbox, (size.dims,) * 3, size.feature_dim, size.mlp_width,
        seed=MODEL_SEED)
    sigma, _ = dataio.oracle_density_emission(
        scene, model.density_grid.node_positions(), geometry.rx_position,
        np.array([0.0, 0.0, 1.0]))
    dense = sigma >= DENSITY_FLOOR
    raw = np.full(len(sigma), EMPTY_RAW)
    raw[dense] = np.log(np.expm1(sigma[dense])) - model.density_bias
    model.density_grid.values[:, 0] = raw
    dataio.save_checkpoint(path, model, extra={
        "rx_position": list(geometry.rx_position),
        "spectrum_res": list(geometry.spectrum_res)})


def reference_spectrum(model, geometry, tx, tau: float) -> np.ndarray:
    """Per-ray render through query_density, query_signal and the product-form
    oracle compositor, with the production sampling and skip rule."""
    step = renderer.default_step(geometry.bbox, model.density_grid.dims)
    origin = geometry.rx_position
    box = geometry.bbox
    res = geometry.spectrum_res
    out = np.zeros(res)
    for m in range(res[0]):
        for n in range(res[1]):
            d = renderer.direction_from_angles(m, n, res)
            exits = [((box.max_corner[a] if d[a] > 0 else box.min_corner[a])
                      - origin[a]) / d[a] for a in range(3) if d[a] != 0.0]
            t_far = max(min(exits), 0.0)
            k = int(np.floor(t_far / step))
            if k == 0:
                continue
            r = (np.arange(k) + 0.5) * step
            spacing = np.full(k, step)
            spacing[-1] = t_far - r[-1]
            x = origin + r[:, None] * d
            sigma = field_model.query_density(model, x)
            kept = sigma >= tau
            if kept.any():
                signal = field_model.query_signal(model, x[kept], tx, -d)
                out[m, n], _, _ = dataio.oracle_composite(sigma[kept], signal,
                                                          spacing[kept])
    return out


@dataclass
class InferSetup:
    model: object
    geometry: object
    checkpoint: Path
    data_dir: Path
    n_eval_spectra: int
    n_test: int
    request_txs: np.ndarray


def infer_setup(scene, geometry, size: InferSize, seed: int, out: Path) -> InferSetup:
    dataset = synthesize(scene, geometry, size.n_records, seed, out / "data", rssi=True)
    checkpoint = out / "model.ckpt"
    build_model(scene, geometry, size, checkpoint)
    model, _ = dataio.load_checkpoint(checkpoint)
    train_idx, test_idx = cli.split_indices(size.n_records, 0, 0.8)
    calibration = sum(dataset.records[i].rssi_dbm is not None for i in train_idx)
    return InferSetup(model=model, geometry=dataset.geometry, checkpoint=checkpoint,
                      data_dir=out / "data", n_eval_spectra=len(test_idx) + calibration,
                      n_test=len(test_idx),
                      request_txs=dataset.tx_positions()[test_idx])


def render_request(setup: InferSetup, k: int, outcome: Outcome, tracer=None):
    """Request k: held-out transmitter k // 2, with skipping when k is even."""
    tx = setup.request_txs[(k // 2) % len(setup.request_txs)]
    tau = SKIP_TAU if k % 2 == 0 else 0.0
    with request(tracer, "render"):
        spectrum, dt = timed(renderer.render_spectrum, setup.model, setup.geometry,
                             tx, tau=tau)
    ok = bool(spectrum.shape == tuple(setup.geometry.spectrum_res)
              and np.all(np.isfinite(spectrum)) and np.all(spectrum >= 0))
    outcome.check(ok, f"request {k}: spectrum is not finite and nonnegative")
    return spectrum, dt, tx, tau


def check_against_reference(setup: InferSetup, requests, outcome: Outcome) -> None:
    for spectrum, _, tx, tau in requests:
        ref = reference_spectrum(setup.model, setup.geometry, tx, tau)
        err = float(np.max(np.abs(spectrum - ref)))
        outcome.check(err <= 1e-9, f"render at tx={tx.tolist()}, tau={tau} differs "
                                   f"from the per-ray reference by {err:.3e}")


def eval_run(setup: InferSetup, out: Path, outcome: Outcome, tracer=None):
    """`radiofield eval --rssi` in-process; returns (seconds, summary)."""
    argv = ["eval", "--checkpoint", str(setup.checkpoint), "--data",
            str(setup.data_dir), "--out", str(out), "--rssi", "--tau", str(SKIP_TAU)]
    stderr = io.StringIO()
    with request(tracer, "eval"), contextlib.redirect_stderr(stderr):
        code, dt = timed(cli.main, argv)
    summary = None
    if code == 0:
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
    ok = (summary is not None and summary["n_test"] == setup.n_test
          and -1.0 <= summary["ssim"]["median"] <= 1.0
          and math.isfinite(summary["rssi_error_db"]["median"]))
    outcome.check(ok, f"eval exited {code}: {stderr.getvalue().strip()[-300:]}")
    return dt, summary


def heldout_mse(setup: InferSetup, held) -> float:
    txs, raw = held
    truth = raw / raw.max()
    return float(np.mean([np.mean((renderer.render_spectrum(
        setup.model, setup.geometry, tx, tau=SKIP_TAU) - t) ** 2)
        for tx, t in zip(txs, truth)]))


@dataclass
class InferRound:
    setup: InferSetup
    setup_seconds: float
    requests: list  # (spectrum, seconds, tx, tau) per request
    eval_seconds: float
    summary: dict | None


def infer_round(scene, geometry, size: InferSize, seed: int, first_request: int,
                out: Path, outcome: Outcome, tracer=None) -> InferRound:
    """Set up, then one closed-loop client sends size.n_pairs request pairs, then
    `radiofield eval` runs once."""
    with request(tracer, "setup"):
        setup, setup_seconds = timed(infer_setup, scene, geometry, size, seed, out)
    requests = [render_request(setup, k, outcome, tracer)
                for k in range(first_request, first_request + 2 * size.n_pairs)]
    eval_seconds, summary = eval_run(setup, out / "eval", outcome, tracer)
    return InferRound(setup, setup_seconds, requests, eval_seconds, summary)


def run_infer(size: InferSize, seed: int, seconds: float, trace: bool,
              work: Path) -> Result:
    scene, geometry = cli.builtin_scene("demo")
    held = heldout_set(scene, geometry, size.n_heldout, work)
    outcome = Outcome()
    if trace:
        return _traced_infer(size, seed, scene, geometry, held, outcome, work)

    # Rounds of set-up, requests and one eval, so that every timing is sampled
    # across the whole run.
    setup_times, skip, noskip, rates = [], [], [], []
    first = None
    start = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() - start < seconds:
        r = infer_round(scene, geometry, size, seed, 2 * size.n_pairs * len(setup_times),
                        work / "round", outcome)
        if first is None:
            first = r
        setup_times.append(r.setup_seconds)
        for _, dt, _, tau in r.requests:
            (skip if tau > 0 else noskip).append(dt)
        rates.append(r.setup.n_eval_spectra / r.eval_seconds)
    # the first request pair is rendered again through the per-ray reference
    check_against_reference(first.setup, first.requests[:2], outcome)

    step_tail, pct, n = tail(skip)
    notes = {"step": "single-spectrum render request, tau=1e-4",
             "step_samples": n, "step_tail_percentile": pct,
             "noskip_samples": len(noskip), "rounds": len(setup_times)}
    metrics = {
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": peak_rss_mb(),
        "step_ms_p50": 1e3 * float(np.median(skip)),
        "step_ms_tail": 1e3 * step_tail,
        "render_noskip_ms_p50": 1e3 * float(np.median(noskip)),
        "heldout_mse": heldout_mse(r.setup, held),
        "eval_spectra_per_s": float(np.median(rates)),
    }
    return Result(with_units(metrics), outcome, notes)


def _traced_infer(size, seed, scene, geometry, held, outcome, work):
    def unit(tracer, tag):
        r = infer_round(scene, geometry, size, seed, 0, work / tag, outcome, tracer)
        with request(tracer, "heldout"):
            mse = heldout_mse(r.setup, held)
        digests = [spectrum_digest(spectrum) for spectrum, *_ in r.requests]
        return r, (mse, digests, r.summary)

    plain, plain_out = unit(None, "plain")
    check_against_reference(plain.setup, plain.requests[:2], outcome)
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        traced, traced_out = unit(tracer, "traced")
    outcome.check(traced_out == plain_out,
                  "traced and untraced renders or eval summaries differ")
    overhead = (np.median([dt for _, dt, _, _ in traced.requests])
                / np.median([dt for _, dt, _, _ in plain.requests]) - 1.0)
    notes = {"absent_hooks": hooks.absent, "counter_errors": tracer.counter_errors,
             "traced_unit": f"set up, {2 * size.n_pairs} render requests, one eval "
                            f"run, score {size.n_heldout} held-out records"}
    return Result(_trace_metrics(tracer, overhead), outcome, notes, tracer)


WORKLOADS = {
    "train-desk": run_train,
    "train-largegrid": run_train,
    "infer-eval": run_infer,
}


def run(name: str, size_name: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Result:
    return WORKLOADS[name](SIZES[size_name][name], seed, seconds, trace, work)
