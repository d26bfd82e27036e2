"""Central finite differences that do not straddle the model's kinks.

The render-and-loss pipeline is piecewise smooth: the ReLUs of both nets and
the transmittance clamp of the background entropy switch branches at kinks.
A central difference whose +h and -h evaluations take different branches
measures the slopes on both sides, not the derivative. Each difference here
compares the branch pattern at +h and -h with the unperturbed one and, where
they differ, differences again at a step 100 times smaller, and if need be
100 times smaller again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from radiofield.field_model import GradientSet
from radiofield.objectives import (
    background_entropy,
    entropy_clamped,
    spectrum_mse,
    total_loss,
)
from radiofield.trainer import _backward_batch, _forward_batch

_SHRINK = 100.0  # step ratio between successive differences of one entry
_RETRIES = 2     # smaller steps tried before an entry counts as on a kink


def branch_pattern(trace, final_transmittance: np.ndarray) -> np.ndarray:
    """Sign of every ReLU pre-activation in a _forward_batch trace, whose
    signal cache holds every net's layer inputs, plus the set of rays the
    background entropy clamps.

    A net's cache holds each layer's input, so every input after the first is
    a hidden ReLU's output, positive exactly where its pre-activation is."""
    parts = []
    for net_cache in (trace.sig_cache or ())[:2]:  # deformation, radiance
        parts.extend((a > 0.0).ravel() for a in (net_cache or ())[1:])
    parts.append(entropy_clamped(final_transmittance))
    return np.concatenate(parts)


def pipeline_gradient(model, cache, txs, cells, targets, bg_weight: float):
    """Analytic gradients of the render-and-loss pipeline on a ray batch
    (no skipping), plus evaluate() -> (loss, branch pattern) for differencing."""
    def forward():
        r_hat, t_k, trace = _forward_batch(model, cache, txs, cells, tau=0.0)
        sl, d_r = spectrum_mse(r_hat, targets)
        bl, d_t = background_entropy(t_k)
        return total_loss(sl, bl, bg_weight), trace, t_k, d_r, d_t

    def evaluate():
        loss, trace, t_k, _, _ = forward()
        return loss, branch_pattern(trace, t_k)

    _, trace, _, d_r, d_t = forward()
    grads = GradientSet.zeros_like(model)
    _backward_batch(model, trace, d_r, bg_weight * d_t, grads)
    return grads, evaluate


@dataclass
class Difference:
    name: str        # parameter tensor
    index: int       # flat entry within the tensor
    fd: float        # central difference at `step`
    step: float
    kinked: bool     # the pattern still differs at the smallest step


def kink_aware_differences(model, evaluate, h: float, indices=None, names=None):
    """Yield one Difference per checked parameter entry.

    evaluate() returns (loss, branch pattern) at the model's current
    parameters. names, when given, limits the check to those tensors.
    indices(size), when given, picks the flat entries checked in each tensor;
    every entry is checked otherwise. A difference whose pattern changes is
    redone at h / 100, and if it still changes at h / 100**2.
    """
    _, base = evaluate()
    for name, p in model.parameters().items():
        if names is not None and name not in names:
            continue
        flat = p.reshape(-1)
        for k in (range(flat.size) if indices is None else indices(flat.size)):
            orig = flat[k]
            step = h
            for attempt in range(_RETRIES + 1):
                flat[k] = orig + step
                hi, pattern_hi = evaluate()
                flat[k] = orig - step
                lo, pattern_lo = evaluate()
                flat[k] = orig
                same = (np.array_equal(pattern_hi, base)
                        and np.array_equal(pattern_lo, base))
                if same or attempt == _RETRIES:
                    break
                step /= _SHRINK
            yield Difference(name=name, index=k, fd=(hi - lo) / (2 * step),
                             step=step, kinked=not same)
