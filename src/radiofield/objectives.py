"""Training objectives: spectrum MSE, background entropy, weighted total."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Transmittance clamp: avoids log(0); clamped rays get zero entropy gradient.
_ENTROPY_EPS = 1e-6


@dataclass
class LossReport:
    spectrum_loss: float
    bg_loss: float
    total: float
    ray_count: int

    def __post_init__(self):
        if self.spectrum_loss < 0 or self.bg_loss < 0:
            raise ValueError("losses must be nonnegative")

    @classmethod
    def build(cls, spectrum_loss: float, bg_loss: float, bg_weight: float,
              ray_count: int) -> "LossReport":
        return cls(spectrum_loss=spectrum_loss, bg_loss=bg_loss,
                   total=total_loss(spectrum_loss, bg_loss, bg_weight),
                   ray_count=ray_count)


def spectrum_mse(predicted: np.ndarray, target: np.ndarray):
    """Mean squared per-ray signal error over a mini-batch.

    Returns (loss, gradient w.r.t. each prediction): loss = mean((p - t)^2),
    grad = 2 (p - t) / B.
    """
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("empty batch")
    resid = p - t
    loss = float(np.mean(resid * resid))
    grad = 2.0 * resid / p.size
    return loss, grad


def entropy_clamped(final_transmittance: np.ndarray) -> np.ndarray:
    """Rays whose transmittance background_entropy clamps (zero gradient)."""
    t = np.asarray(final_transmittance, dtype=np.float64)
    return (t < _ENTROPY_EPS) | (t > 1.0 - _ENTROPY_EPS)


def background_entropy(final_transmittance: np.ndarray):
    """Binary entropy of per-ray final transmittance, summed over the batch.

    Pushes each ray toward a confident occluded (T ~ 0) or background (T ~ 1)
    state. Returns (loss, gradient w.r.t. each T); the gradient is
    -ln(T / (1 - T)), zero where T had to be clamped.
    """
    t = np.asarray(final_transmittance, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite transmittance")
    clamped = entropy_clamped(t)
    tc = np.clip(t, _ENTROPY_EPS, 1.0 - _ENTROPY_EPS)
    loss = float(-np.sum(tc * np.log(tc) + (1.0 - tc) * np.log(1.0 - tc)))
    grad = np.where(clamped, 0.0, -np.log(tc / (1.0 - tc)))
    return loss, grad


def total_loss(spectrum_loss: float, bg_loss: float, bg_weight: float) -> float:
    """Weighted sum of the two objectives."""
    if bg_weight < 0:
        raise ValueError("bg_weight must be nonnegative")
    return spectrum_loss + bg_weight * bg_loss
