"""Dense reference forms of the grid-sized training steps.

`reference_adam_step` applies Adam to whole tensors with one numpy expression
per moment and one for the update; given rows, it updates a gathered copy of
those rows of each parameter and writes the copy back.
`reference_scatter_grid_gradient` bincounts one channel at a time and adds
each count into its column of the gradient.
`reference_blend` gathers every corner row into one (N, 8, C) array and
contracts it with the weights in a single einsum.
The production `trainer.adam_step` (blocked, scratch buffers),
`voxel_grid.scatter_grid_gradient` (row-contiguous buffer) and
`voxel_grid.blend` (row blocks) must match them bit for bit; tests compare
against them and can substitute them into `train()`.
"""

from __future__ import annotations

import numpy as np

from radiofield.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, NumericalError


def reference_adam_step(params: dict, grads, state: AdamState, lr: float,
                        rows=None) -> AdamState:
    if rows is not None:
        gathered = {name: p[rows] for name, p in params.items()}
        reference_adam_step(gathered, grads, state, lr)
        for name, p in params.items():
            p[rows] = gathered[name]
        return state
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in tensor {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state


def reference_scatter_grid_gradient(idx: np.ndarray, w: np.ndarray,
                                    upstream: np.ndarray,
                                    grad_accum: np.ndarray) -> None:
    n_nodes = grad_accum.shape[0]
    flat_idx = idx.ravel()
    contrib = w[:, :, None] * upstream[:, None, :]
    for ch in range(grad_accum.shape[1]):
        grad_accum[:, ch] += np.bincount(flat_idx, weights=contrib[:, :, ch].ravel(),
                                         minlength=n_nodes)


def reference_blend(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.einsum("nkc,nk->nc", values[idx], w)
