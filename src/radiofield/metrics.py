"""Evaluation metrics: SSIM between spectra, percentile/CDF summaries, RSSI error."""

from __future__ import annotations

import numpy as np

# Standard SSIM settings: 11x11 Gaussian window (std 1.5), stabilizers
# C1 = (0.01 r)^2 and C2 = (0.03 r)^2 for the data range r = 1 of normalized
# spectra, symmetric padding.
SSIM_WINDOW_SIZE = 11
SSIM_WINDOW_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def gaussian_window(size: int, sigma: float) -> np.ndarray:
    """1-D Gaussian taps normalized to sum 1 (the 2-D window is its outer
    product, so it also sums to 1)."""
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    w = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return w / w.sum()


def _filter_symmetric(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable 2-D correlation with symmetric boundary padding."""
    r = len(taps) // 2
    padded = np.pad(img, r, mode="symmetric")
    rows, cols = img.shape
    tmp = np.zeros((padded.shape[0], cols))
    for k, w in enumerate(taps):
        tmp += w * padded[:, k:k + cols]
    out = np.zeros((rows, cols))
    for k, w in enumerate(taps):
        out += w * tmp[k:k + rows, :]
    return out


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity between two equally sized spectra."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError(f"spectra must share a 2-D shape, got {x.shape} vs {y.shape}")
    taps = gaussian_window(SSIM_WINDOW_SIZE, SSIM_WINDOW_SIGMA)
    mu_x = _filter_symmetric(x, taps)
    mu_y = _filter_symmetric(y, taps)
    var_x = _filter_symmetric(x * x, taps) - mu_x * mu_x
    var_y = _filter_symmetric(y * y, taps) - mu_y * mu_y
    cov = _filter_symmetric(x * y, taps) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
    return float(np.mean(num / den))


def percentile_summary(values) -> dict:
    """Linearly interpolated quartiles of a non-empty sample."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty sample")
    p25, median, p75 = np.percentile(v, [25, 50, 75], method="linear")
    return {"p25": float(p25), "median": float(median), "p75": float(p75)}


def cdf_table(values) -> np.ndarray:
    """Empirical CDF as (value, fraction <= value) rows, sorted by value."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("empty sample")
    frac = np.arange(1, v.size + 1) / v.size
    return np.stack([v, frac], axis=1)


def rssi_error(predicted_db, measured_db):
    """Elementwise |predicted - measured| in dB plus its quartile summary."""
    p = np.asarray(predicted_db, dtype=np.float64)
    m = np.asarray(measured_db, dtype=np.float64)
    if p.shape != m.shape:
        raise ValueError(f"length mismatch {p.shape} vs {m.shape}")
    errors = np.abs(p - m)
    return errors, percentile_summary(errors)


def write_indexed_csv(path, header: str, indices, values) -> None:
    """Two-column CSV of (index, value) rows, e.g. tx_index,ssim."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, v in zip(indices, np.asarray(values, dtype=np.float64), strict=True):
            fh.write(f"{i},{v:.10g}\n")


def write_cdf_csv(path, values, value_name: str = "value") -> None:
    """Two-column CSV of the empirical CDF for external plotting."""
    table = cdf_table(values)
    with open(path, "w") as fh:
        fh.write(f"{value_name},fraction\n")
        for v, f in table:
            fh.write(f"{v:.10g},{f:.10g}\n")
