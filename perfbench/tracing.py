"""In-memory span tracing of radiofield's layers, driven from outside the package.

Spans are recorded by replacing each layer function at the module attribute its
callers look it up through (``radiofield.trainer.adam_step``,
``radiofield.field_model.mlp_forward``, ...) with a timing wrapper, and putting
the original back afterwards. Nothing in the package is edited. Every hook lives
in ``HOOKS``, keyed by span name; a site that no longer exists (a function a later
change removes, renames or inlines) is reported as absent with zero calls.

Each span records name, start, end, parent span and request id (a training
iteration, a render request, an eval run, a setup step). Spans stay in memory
until the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    counts: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder with an explicit stack of open spans (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.requests: dict[int, str] = {}  # root span id -> request kind
        self.counter_errors: dict[str, str] = {}
        self._stack: list[list] = []  # open spans: [sid, name, start, parent, request]
        self._next_sid = 0
        self._next_request = 0
        self._request: int | None = None

    def is_open(self, name: str) -> bool:
        return any(rec[1] == name for rec in self._stack)

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        rec = [self._next_sid, name, time.perf_counter(), parent, self._request]
        self._next_sid += 1
        self._stack.append(rec)
        return rec

    def close(self, rec: list, counts: dict | None = None) -> Span:
        end = time.perf_counter()
        if not self._stack or self._stack[-1] is not rec:
            raise RuntimeError(f"span {rec[1]!r} closed out of order")
        self._stack.pop()
        span = Span(sid=rec[0], name=rec[1], start=rec[2], end=end, parent=rec[3],
                    request=rec[4], counts=counts)
        self.spans.append(span)
        return span

    def begin_request(self, kind: str) -> list:
        """Open a root span; spans opened until end_request belong to it."""
        if self._stack:
            raise RuntimeError("a request must start with no span open")
        self._request = self._next_request
        self._next_request += 1
        rec = self.open(kind)
        self.requests[rec[0]] = kind
        return rec

    def end_request(self) -> None:
        self.close(self._stack[0])
        self._request = None

    def drop_request(self) -> None:
        """Discard the open root span without recording it."""
        rec = self._stack.pop()
        del self.requests[rec[0]]
        self._request = None


# --- counters: (args, kwargs, result) -> counts, computed from shapes ---------

def _mlp_macs(mlp, rows: int) -> int:
    return int(rows) * sum(int(w.size) for w in mlp.weights)


def _count_mlp_forward(args, kwargs, result):
    return {"macs": _mlp_macs(args[0], np.shape(args[1])[0])}


def _count_mlp_backward(args, kwargs, result):
    # per layer: weight gradient delta.T @ a and input gradient delta @ W
    return {"macs": 2 * _mlp_macs(args[0], np.shape(args[2])[0])}


def _count_interp_support(args, kwargs, result):
    return {"points": int(result[0].shape[0])}


def _count_scatter(args, kwargs, result):
    idx, _, upstream, grad = args[:4]
    n, corners = idx.shape
    n_nodes, channels = grad.shape
    # reads of support and upstream, the (N, 8, C) contribution written and read
    # back, and per channel a dense bincount plus a read-modify-write of the buffer
    moved = 2 * n * corners + n * channels + 2 * n * corners * channels \
        + 3 * n_nodes * channels
    return {"bytes": 8 * moved}


def _count_grad_zeros(args, kwargs, result):
    return {"bytes": sum(int(b.nbytes) for b in result.buffers.values())}


def _count_adam(args, kwargs, result):
    return {"values": sum(int(p.size) for p in args[0].values())}


def _count_sample_rays(args, kwargs, result):
    return {"samples": int(len(result[0]))}


def _count_forward_batch(args, kwargs, result):
    cache, cells = args[1], np.asarray(args[3])
    return {"samples": int(cache.counts[cells].sum()),
            "kept": int(len(result[2].ray_of_kept))}


def _count_render_traced(args, kwargs, result):
    trace = result[1]
    return {"samples": int(trace.n_samples), "kept": int(trace.n_kept)}


# span name -> (call sites "module:attribute[.attribute]", counter or None)
HOOKS = {
    "mlp_forward": (["radiofield.field_model:mlp_forward"], _count_mlp_forward),
    "mlp_backward": (["radiofield.field_model:mlp_backward"], _count_mlp_backward),
    "signal_forward": (["radiofield.trainer:signal_forward",
                        "radiofield.renderer:signal_forward",
                        "radiofield.field_model:signal_forward"], None),
    "signal_backward": (["radiofield.trainer:signal_backward",
                         "radiofield.field_model:signal_backward"], None),
    "positional_encode": (["radiofield.trainer:positional_encode",
                           "radiofield.renderer:positional_encode",
                           "radiofield.field_model:positional_encode"], None),
    "stage_cache": (["radiofield.trainer:_StageCache"], None),
    "forward_batch": (["radiofield.trainer:_forward_batch"], _count_forward_batch),
    "backward_batch": (["radiofield.trainer:_backward_batch"], None),
    "adam_step": (["radiofield.trainer:adam_step"], _count_adam),
    "grad_zeros": (["radiofield.field_model:GradientSet.zeros_like"], _count_grad_zeros),
    "interp_support": (["radiofield.trainer:interp_support",
                        "radiofield.voxel_grid:interp_support"], _count_interp_support),
    "interpolate": (["radiofield.renderer:interpolate",
                     "radiofield.field_model:interpolate"], None),
    "scatter_grid_gradient": (["radiofield.trainer:scatter_grid_gradient",
                               "radiofield.voxel_grid:scatter_grid_gradient"],
                              _count_scatter),
    "upsample": (["radiofield.trainer:upsample"], None),
    "render_spectrum": (["radiofield.renderer:render_spectrum",
                         "radiofield.trainer:render_spectrum",
                         "radiofield.cli:render_spectrum"], None),
    "render_spectrum_traced": (["radiofield.renderer:render_spectrum_traced"],
                               _count_render_traced),
    "render_directions": (["radiofield.renderer:_render_directions"], None),
    "sample_rays": (["radiofield.renderer:sample_rays",
                     "radiofield.trainer:sample_rays"], _count_sample_rays),
    "composite": (["radiofield.renderer:composite"], None),
    "query_density": (["radiofield.renderer:query_density"], None),
    "loss": (["radiofield.trainer:spectrum_mse", "radiofield.trainer:background_entropy",
              "radiofield.trainer:total_loss"], None),
    "ssim": (["radiofield.cli:ssim"], None),
    "generate_dataset": (["radiofield.dataio:generate_dataset"], None),
    "save_checkpoint": (["radiofield.dataio:save_checkpoint",
                         "radiofield.cli:save_checkpoint"], None),
    "load_checkpoint": (["radiofield.dataio:load_checkpoint",
                         "radiofield.cli:load_checkpoint"], None),
}

# Per-layer metrics: (metric name, unit, span name, statistic). Times and counts
# are totals over one traced unit of work, which is fixed per workload.
PER_LAYER = [
    ("field_model.mlp_forward.ms", "ms", "mlp_forward", "ms"),
    ("field_model.mlp_backward.ms", "ms", "mlp_backward", "ms"),
    ("field_model.mlp_forward.macs", "MAC", "mlp_forward", "count:macs"),
    ("field_model.mlp_backward.macs", "MAC", "mlp_backward", "count:macs"),
    ("field_model.signal_forward.self_ms", "ms", "signal_forward", "self_ms"),
    ("field_model.signal_backward.self_ms", "ms", "signal_backward", "self_ms"),
    ("field_model.positional_encode.ms", "ms", "positional_encode", "ms"),
    ("trainer.stage_cache.ms", "ms", "stage_cache", "ms"),
    ("trainer.forward_batch.self_ms", "ms", "forward_batch", "self_ms"),
    ("trainer.forward_batch.kept_frac", "frac", "forward_batch", "frac:kept/samples"),
    ("trainer.backward_batch.self_ms", "ms", "backward_batch", "self_ms"),
    ("trainer.adam_step.ms", "ms", "adam_step", "ms"),
    ("trainer.adam_step.values", "count", "adam_step", "count:values"),
    ("trainer.grad_zeros.ms", "ms", "grad_zeros", "ms"),
    ("trainer.grad_zeros.bytes", "B", "grad_zeros", "count:bytes"),
    ("voxel_grid.interp_support.ms", "ms", "interp_support", "ms"),
    ("voxel_grid.interp_support.points", "count", "interp_support", "count:points"),
    ("voxel_grid.interpolate.self_ms", "ms", "interpolate", "self_ms"),
    ("voxel_grid.scatter_grid_gradient.ms", "ms", "scatter_grid_gradient", "ms"),
    ("voxel_grid.scatter_grid_gradient.bytes", "B", "scatter_grid_gradient",
     "count:bytes"),
    ("voxel_grid.upsample.ms", "ms", "upsample", "ms"),
    ("renderer.render_spectrum.ms", "ms", "render_spectrum", "ms"),
    ("renderer.sample_rays.ms", "ms", "sample_rays", "ms"),
    ("renderer.sample_rays.samples", "count", "sample_rays", "count:samples"),
    ("renderer.composite.ms", "ms", "composite", "ms"),
    ("renderer.composite.calls", "count", "composite", "calls"),
    ("renderer.kept_frac", "frac", "render_spectrum_traced", "frac:kept/samples"),
    ("renderer.query_density.ms", "ms", "query_density", "ms"),
    ("objectives.loss.ms", "ms", "loss", "ms"),
    ("metrics.ssim.ms", "ms", "ssim", "ms"),
    ("metrics.ssim.calls", "count", "ssim", "calls"),
    ("dataio.generate_dataset.ms", "ms", "generate_dataset", "ms"),
    ("dataio.save_checkpoint.ms", "ms", "save_checkpoint", "ms"),
    ("dataio.load_checkpoint.ms", "ms", "load_checkpoint", "ms"),
]
COMPUTED_COUNTS = ("field_model.mlp_forward.macs", "field_model.mlp_backward.macs",
                   "voxel_grid.scatter_grid_gradient.bytes", "trainer.grad_zeros.bytes")


def _resolve(site: str):
    """(owner, attribute, raw value, own) for a site, or None if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr], attr in vars(owner)
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr), True


def _wrap(tracer: Tracer, name: str, fn, counter):
    def traced(*args, **kwargs):
        if tracer.is_open(name):  # nested call of the same layer: time it once
            return fn(*args, **kwargs)
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(rec)
            raise
        counts = None
        if counter is not None:
            try:
                counts = counter(args, kwargs, result)
            except Exception as e:  # a refactored signature must not end the run
                tracer.counter_errors[name] = f"{type(e).__name__}: {e}"
        tracer.close(rec, counts)
        return result

    traced.__wrapped__ = fn
    return traced


class Hooks:
    """Install every hook of HOOKS on enter and restore the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._restore: list = []

    def __enter__(self) -> "Hooks":
        for name, (sites, counter) in HOOKS.items():
            found = False
            for site in sites:
                resolved = _resolve(site)
                if resolved is None:
                    continue
                owner, attr, raw, own = resolved
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement = type(raw)(_wrap(self.tracer, name, raw.__func__,
                                                  counter))
                elif callable(raw):
                    replacement = _wrap(self.tracer, name, raw, counter)
                else:
                    continue
                self._restore.append((owner, attr, raw, own))
                setattr(owner, attr, replacement)
                found = True
            if not found:
                self.absent.append(name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw, own in reversed(self._restore):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._restore.clear()


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    counts: dict = field(default_factory=dict)


def span_totals(spans, requests=None) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counts.

    Self time is the span's duration minus that of its direct children. With
    `requests` given, only spans of those request ids are included.
    """
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds
    totals: dict[str, SpanTotals] = {}
    for s in spans:
        if requests is not None and s.request not in requests:
            continue
        t = totals.setdefault(s.name, SpanTotals())
        t.calls += 1
        t.seconds += s.seconds
        t.self_seconds += s.seconds - child_seconds.get(s.sid, 0.0)
        for key, value in (s.counts or {}).items():
            t.counts[key] = t.counts.get(key, 0) + value
    return totals


def coverage(tracer: Tracer) -> float:
    """Share of request time covered by the layer spans directly under it."""
    covered = {sid: 0.0 for sid in tracer.requests}
    total = 0.0
    for s in tracer.spans:
        if s.sid in tracer.requests:
            total += s.seconds
        elif s.parent in covered:
            covered[s.parent] += s.seconds
    return sum(covered.values()) / total if total > 0 else 0.0


def per_layer_metrics(tracer: Tracer) -> dict:
    """Every PER_LAYER metric from the recorded spans; absent layers read 0."""
    totals = span_totals(tracer.spans)
    out = {}
    for metric, unit, span, stat in PER_LAYER:
        t = totals.get(span, SpanTotals())
        if stat == "ms":
            value = 1e3 * t.seconds
        elif stat == "self_ms":
            value = 1e3 * t.self_seconds
        elif stat == "calls":
            value = t.calls
        elif stat.startswith("count:"):
            value = t.counts.get(stat[6:], 0)
        else:  # frac:numerator/denominator
            num, den = stat[5:].split("/")
            value = t.counts[num] / t.counts[den] if t.counts.get(den) else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def request_ids(tracer: Tracer, kind: str) -> set:
    """Request ids of the root spans of one kind."""
    return {s.request for s in tracer.spans if tracer.requests.get(s.sid) == kind}


def dump_spans(tracer: Tracer, path) -> None:
    """Write the spans as JSON lines (name, start, end, parent, request, counts)."""
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "request": s.request, "counts": s.counts}) + "\n")
