"""Per-ray reference render, independent of the ray engine.

Each ray is clipped by its own slab formula, sampled as the renderer's
sampling rule states, queried point-wise through query_density and
query_signal, and composited by the product-form oracle. Tests compare the
engine's batched, table-driven, segmented path against it.
"""

from __future__ import annotations

import numpy as np

from radiofield.dataio import oracle_composite
from radiofield.field_model import query_density, query_signal


def reference_ray(model, geometry, tx, direction, step: float, tau: float):
    """(R, T_K) of one receiver ray with skip threshold tau."""
    origin = geometry.rx_position
    box = geometry.bbox
    d = np.asarray(direction, dtype=np.float64)
    exits = [((box.max_corner[a] if d[a] > 0 else box.min_corner[a]) - origin[a]) / d[a]
             for a in range(3) if d[a] != 0.0]
    t_far = max(min(exits), 0.0)
    k = int(np.floor(t_far / step))
    if k == 0:
        return 0.0, 1.0
    r = (np.arange(k) + 0.5) * step
    spacing = np.full(k, step)
    spacing[-1] = t_far - r[-1]
    x = origin + r[:, None] * d
    sigma = query_density(model, x)
    kept = sigma >= tau
    if not kept.any():
        return 0.0, 1.0
    signal = query_signal(model, x[kept], tx, -d)
    r_out, t_k, _ = oracle_composite(sigma[kept], signal, spacing[kept])
    return r_out, t_k
