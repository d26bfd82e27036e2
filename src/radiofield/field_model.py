"""The learnable field: encodings, shallow MLPs, and density/signal queries.

A field model couples a raw-density grid and a feature grid with two small
networks: a deformation net that turns the transmitter position into a
per-sample feature correction, and a radiance net that maps the corrected
feature plus emission direction to an emitted power in (0, 1). Forward and
backward passes are explicit so gradients are exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .voxel_grid import Aabb, VoxelGrid, init_grid, interpolate


def _floating(a) -> np.ndarray:
    """a as an array, keeping a floating dtype and taking anything else to
    float64."""
    a = np.asarray(a)
    return a if np.issubdtype(a.dtype, np.floating) else a.astype(np.float64)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, in z's dtype if floating and
    float64 otherwise."""
    z = _floating(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z: np.ndarray) -> np.ndarray:
    """ln(1 + e^z), stable for large |z|."""
    return np.logaddexp(0.0, np.asarray(z, dtype=np.float64))


def positional_encode(p: np.ndarray, levels: int) -> np.ndarray:
    """Sinusoidal encoding (sin(2^l pi p), cos(2^l pi p)) for l = 0..levels-1.

    Applied independently to each input component; the raw components are not
    passed through. A (D,) input yields (2*L*D,), an (N, D) batch (N, 2*L*D)
    for any N >= 0; layout is component-major, then level, sin before cos.
    A floating input keeps its dtype, any other is encoded in float64.
    """
    arr = _floating(p)
    single = arr.ndim <= 1
    arr = np.atleast_2d(arr)
    # in the input's dtype: float64 frequencies would take float32 input to
    # float64
    freqs = (np.pi * (2.0 ** np.arange(levels))).astype(arr.dtype)
    ang = arr[:, :, None] * freqs  # (N, D, L)
    # sin and cos written into their slots of one buffer, not stacked
    out = np.empty(ang.shape + (2,), dtype=ang.dtype)
    np.sin(ang, out=out[..., 0])
    np.cos(ang, out=out[..., 1])
    out = out.reshape(arr.shape[0], 2 * levels * arr.shape[1])
    return out[0] if single else out


def encoding_width(levels: int) -> int:
    """Width of the encoding of a 3-vector at `levels` levels."""
    return 2 * levels * 3


@dataclass
class Mlp:
    """Fully connected layers; weights are (out, in), biases (out,). Every
    layer but the last is followed by a ReLU; the last is linear. The net
    computes in the dtype of its parameters."""

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i} weight/bias shapes inconsistent")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i} input width {w.shape[1]} does not chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} has non-finite parameters")

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_width(self) -> int:
        return self.weights[-1].shape[0]

    def astype(self, dtype) -> "Mlp":
        """The same net with its parameters in dtype."""
        return Mlp(weights=[w.astype(dtype) for w in self.weights],
                   biases=[b.astype(dtype) for b in self.biases])


def mlp_init(layer_sizes, rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases, drawn in layer order."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights=weights, biases=biases)


# the nets' fixed activations (the sigmoid is signal_forward's), as checkpoint
# metadata records them
NET_ACTIVATIONS = {"deform_hidden_activation": "relu",
                   "deform_output_activation": "identity",
                   "radiance_hidden_activation": "relu",
                   "radiance_output_activation": "sigmoid"}
# the fixed encoding levels and raw-density offset; a checkpoint records its own
ENC_POS_LEVELS = 5
ENC_DIR_LEVELS = 4
DENSITY_BIAS = -3.0


def mlp_forward(mlp: Mlp, pre: np.ndarray, want_cache: bool = False):
    """Evaluate the network on (N, width) rows of its first layer's
    pre-activation x W0^T + b0, which the caller assembles from the parts of
    x (`signal_forward`); pre is overwritten. Returns (output, hidden): hidden
    is the cache backprop needs, every hidden ReLU's output in layer order,
    with want_cache and None without."""
    a = pre
    hidden = []
    # bias and ReLU in place on the fresh matmul output: the same values
    # without two more (N, width) temporaries per layer
    for w, b in zip(mlp.weights[1:], mlp.biases[1:]):
        np.maximum(a, 0.0, out=a)
        hidden.append(a)
        a = a @ w.T
        a += b
    return a, (hidden if want_cache else None)


def mlp_backward(mlp: Mlp, hidden, d_out: np.ndarray, grads: GradientSet,
                 tag: str, inputs) -> np.ndarray:
    """Backprop through a cached mlp_forward, adding every layer's gradients
    in place into the buffers grads[f"{tag}.w{i}"] and grads[f"{tag}.b{i}"].

    d_out is dL/doutput as an (N, out) float array, and inputs are the first
    layer's input rows as column blocks, in input order (they concatenate to
    x). Returns dL/dpre, the gradient of the first layer's pre-activation.
    """
    delta = d_out
    for i in reversed(range(1, len(mlp.weights))):
        a = hidden[i - 1]
        grad_w, grad_b = grads[f"{tag}.w{i}"], grads[f"{tag}.b{i}"]
        grad_w += delta.T @ a
        grad_b += delta.sum(axis=0)
        w = mlp.weights[i]
        # a one-column delta (a single-output layer) times w is an outer
        # product: broadcast, the same values as the k=1 matmul and faster
        delta = delta * w if w.shape[0] == 1 else delta @ w
        # a is the output of the ReLU below, so a > 0 is that ReLU's mask (a
        # boolean mask multiplies as 1.0 / 0.0)
        delta *= a > 0.0
    grad_w0, grad_b0 = grads[f"{tag}.w0"], grads[f"{tag}.b0"]
    col = 0
    for x in inputs:
        grad_w0[:, col:col + x.shape[1]] += delta.T @ x
        col += x.shape[1]
    grad_b0 += delta.sum(axis=0)
    return delta


@dataclass
class FieldModel:
    """Full learnable state: two grids, two shallow MLPs, and encodings."""

    density_grid: VoxelGrid
    feature_grid: VoxelGrid
    deform_net: Mlp
    radiance_net: Mlp
    enc_pos_levels: int = ENC_POS_LEVELS
    enc_dir_levels: int = ENC_DIR_LEVELS
    density_bias: float = DENSITY_BIAS
    deform_enabled: bool = True

    def __post_init__(self):
        if self.enc_pos_levels < 1 or self.enc_dir_levels < 1:
            raise ValueError("encodings need at least one level")
        if self.density_grid.channels != 1:
            raise ValueError("density grid must have one channel")
        if (self.feature_grid.dims != self.density_grid.dims
                or not np.array_equal(self.feature_grid.bbox.min_corner,
                                      self.density_grid.bbox.min_corner)
                or not np.array_equal(self.feature_grid.bbox.max_corner,
                                      self.density_grid.bbox.max_corner)):
            raise ValueError("feature and density grids must share dims and box")
        f = self.feature_grid.channels
        pos_w = encoding_width(self.enc_pos_levels)
        dir_w = encoding_width(self.enc_dir_levels)
        if self.deform_net.input_width != 2 * pos_w:
            raise ValueError(f"deformation net expects input {2 * pos_w}, "
                             f"got {self.deform_net.input_width}")
        if self.deform_net.output_width != f:
            raise ValueError("deformation net output width must equal feature dim")
        if self.radiance_net.input_width != f + dir_w:
            raise ValueError(f"radiance net expects input {f + dir_w}, "
                             f"got {self.radiance_net.input_width}")
        if self.radiance_net.output_width != 1:
            raise ValueError("radiance net must emit a single value")

    @property
    def feature_dim(self) -> int:
        return self.feature_grid.channels

    @property
    def bbox(self) -> Aabb:
        return self.density_grid.bbox

    @property
    def net_dtype(self) -> np.dtype:
        """The signal nets' compute dtype: that of their parameters."""
        return self.radiance_net.weights[0].dtype

    def encode_positions(self, p: np.ndarray) -> np.ndarray:
        """The nets' encoding of world positions, (3,) or (N, 3), in
        `net_dtype`: the grid box mapped onto [-1, 1]^3 in float64 (positions
        outside the box map outside the cube, which the encoding tolerates),
        then `positional_encode`."""
        box = self.bbox
        unit = 2.0 * (np.asarray(p, dtype=np.float64) - box.min_corner) / box.extent - 1.0
        return positional_encode(unit.astype(self.net_dtype, copy=False),
                                 self.enc_pos_levels)

    def encode_directions(self, d: np.ndarray) -> np.ndarray:
        """The nets' encoding of unit directions, (3,) or (N, 3), in
        `net_dtype`."""
        return positional_encode(np.asarray(d, dtype=self.net_dtype),
                                 self.enc_dir_levels)

    def parameters(self) -> dict:
        """Named parameter tensors in the fixed optimizer/checkpoint order."""
        params = {
            "density_grid": self.density_grid.values,
            "feature_grid": self.feature_grid.values,
        }
        for tag, net in (("deform", self.deform_net), ("radiance", self.radiance_net)):
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                params[f"{tag}.w{i}"] = w
                params[f"{tag}.b{i}"] = b
        return params

    @staticmethod
    def net_from_parameters(params: dict, tag: str) -> Mlp:
        """The net `tag` ("deform" or "radiance") from tensors named as in
        `parameters`; KeyError or ValueError if they do not make one."""
        n = 0
        while f"{tag}.w{n}" in params:
            n += 1
        if not n:
            raise ValueError(f"no layers found for network {tag!r}")
        return Mlp(weights=[params[f"{tag}.w{i}"] for i in range(n)],
                   biases=[params[f"{tag}.b{i}"] for i in range(n)])


GRID_PARAM_NAMES = ("density_grid", "feature_grid")


@dataclass
class GradientSet:
    """One gradient buffer per FieldModel parameter tensor.

    The grid buffers cover the grid nodes grid_rows (sorted node indices),
    row i of each being node grid_rows[i]; without grid_rows they cover every
    node, in node order. `grid_index` maps a trilinear support to these rows.
    """

    buffers: dict
    # grid buffer row of every node; a node outside grid_rows maps one past
    # the last row, so scattering to it fails instead of landing on another
    # node
    node_row: np.ndarray

    @classmethod
    def zeros_like(cls, model: FieldModel,
                   grid_rows: np.ndarray | None = None) -> "GradientSet":
        params = model.parameters()
        if grid_rows is None:
            grid_rows = np.arange(model.density_grid.n_nodes)
        node_row = np.full(model.density_grid.n_nodes, len(grid_rows), dtype=np.intp)
        node_row[grid_rows] = np.arange(len(grid_rows))
        return cls({name: (np.zeros((len(grid_rows),) + p.shape[1:], dtype=p.dtype)
                           if name in GRID_PARAM_NAMES else np.zeros_like(p))
                    for name, p in params.items()}, node_row)

    def grid_index(self, idx: np.ndarray) -> np.ndarray:
        """The grid buffer rows of the node indices idx."""
        return np.take(self.node_row, idx)

    def zero(self) -> None:
        """Reset every buffer to zero in place, for reuse while the parameter
        shapes are unchanged."""
        for g in self.buffers.values():
            g.fill(0.0)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.buffers[name]


def init_field_model(bbox: Aabb, dims, feature_dim: int, hidden_width: int,
                     seed: int, density_bias: float = DENSITY_BIAS,
                     enc_pos_levels: int = ENC_POS_LEVELS,
                     enc_dir_levels: int = ENC_DIR_LEVELS) -> FieldModel:
    """Seeded construction: zero grids, Glorot MLPs, fixed draw order."""
    rng = np.random.default_rng(seed)
    pos_w = encoding_width(enc_pos_levels)
    dir_w = encoding_width(enc_dir_levels)
    deform = mlp_init([2 * pos_w, hidden_width, feature_dim], rng)
    radiance = mlp_init([feature_dim + dir_w, hidden_width, 1], rng)
    return FieldModel(
        density_grid=init_grid(dims, 1, bbox),
        feature_grid=init_grid(dims, feature_dim, bbox),
        deform_net=deform,
        radiance_net=radiance,
        enc_pos_levels=enc_pos_levels,
        enc_dir_levels=enc_dir_levels,
        density_bias=density_bias,
    )


def query_density(model: FieldModel, x: np.ndarray) -> np.ndarray:
    """Volume density softplus(raw + bias) at one point (scalar) or a batch (N,)."""
    single = np.asarray(x).ndim == 1
    raw = interpolate(model.density_grid, np.atleast_2d(x))[:, 0]
    sig = softplus(raw + model.density_bias)
    return float(sig[0]) if single else sig


def _check_unit(dirs: np.ndarray):
    norms = np.linalg.norm(np.atleast_2d(dirs), axis=-1)
    if not np.all(np.abs(norms - 1.0) <= 1e-6):  # a NaN direction fails too
        raise ValueError(f"directions must be unit vectors, |dir| in "
                         f"[{norms.min():.8f}, {norms.max():.8f}]")


@dataclass
class StaticTerms:
    """The transmitter-independent inputs of the signal nets over N sample
    rows of R rays, to which `signal_forward` adds one transmitter's terms.

    The deformation net's first layer splits as W0 = [W_tx | W_x] over its
    input [enc(tx) | enc(x)], the radiance net's as [R_feat | R_dir] over
    [feature | enc(dir)]. The enc(x) part is held per row and the enc(dir)
    part per ray, each with its layer's bias, and serve every transmitter.
    """

    feat: np.ndarray           # (N, F) static feature per row
    ray_of: np.ndarray         # (N,) ray of each row
    x_pre: np.ndarray | None   # (N, H) enc(x) W_x^T + b0; None without deformation
    dir_pre: np.ndarray        # (R, H) enc(dir) R_dir^T + rb0
    enc_x: np.ndarray | None   # (N, pos width), kept for the backward pass
    enc_dir: np.ndarray | None  # (R, dir width), kept for the backward pass


def static_terms(model: FieldModel, feat: np.ndarray, ray_of: np.ndarray,
                 enc_x: np.ndarray, enc_dir: np.ndarray,
                 keep_encodings: bool = False) -> StaticTerms:
    """StaticTerms of rows with features feat (N, F), position encodings
    enc_x (N, width) and owning rays ray_of, on rays with emission-direction
    encodings enc_dir (R, width), the encodings in the nets' dtype. The
    features are taken to the nets' dtype. keep_encodings keeps the
    encodings for `signal_backward`."""
    feat = feat.astype(model.net_dtype, copy=False)
    x_pre = None
    if model.deform_enabled:
        w0 = model.deform_net.weights[0]
        x_pre = enc_x @ w0[:, encoding_width(model.enc_pos_levels):].T
        x_pre += model.deform_net.biases[0]
    dir_pre = enc_dir @ model.radiance_net.weights[0][:, model.feature_dim:].T
    dir_pre += model.radiance_net.biases[0]
    return StaticTerms(feat=feat, ray_of=ray_of, x_pre=x_pre, dir_pre=dir_pre,
                       enc_x=enc_x if keep_encodings else None,
                       enc_dir=enc_dir if keep_encodings else None)


def signal_forward(model: FieldModel, static: StaticTerms, enc_tx: np.ndarray,
                   want_cache: bool = False):
    """Emitted power of the rows of `static` under a transmitter, from its
    position encoding enc_tx: (width,) for every ray or (R, width) per ray.

    The deformation net corrects the static feature for the transmitter
    position; the radiance net maps corrected feature plus emission-direction
    encoding to a logit, which a sigmoid takes into (0, 1). Each first layer
    adds its one varying term to the static ones: enc(tx) W_tx^T per ray, and
    the corrected feature's term per row. Returns (signal per row, cache):
    the cache `signal_backward` takes with want_cache, None without.
    """
    ray_of = static.ray_of
    if model.deform_enabled:
        n_rays, width = len(static.dir_pre), enc_tx.shape[-1]
        # one row per ray even for a shared transmitter: the product is then
        # the per-ray transmitters' product, bit for bit
        enc_tx = np.ascontiguousarray(np.broadcast_to(enc_tx, (n_rays, width)))
        pre = np.take(enc_tx @ model.deform_net.weights[0][:, :width].T, ray_of,
                      axis=0)
        pre += static.x_pre
        dfeat, de_hidden = mlp_forward(model.deform_net, pre, want_cache=want_cache)
        feat_sum = static.feat + dfeat
    else:
        feat_sum = static.feat
    pre = feat_sum @ model.radiance_net.weights[0][:, :model.feature_dim].T
    pre += np.take(static.dir_pre, ray_of, axis=0)
    logit, rad_hidden = mlp_forward(model.radiance_net, pre, want_cache=want_cache)
    s = sigmoid(logit)[:, 0]
    if not want_cache:
        return s, None
    # per net: the first layer's varying input, then its hidden outputs
    de_cache = [enc_tx, *de_hidden] if model.deform_enabled else None
    return s, (de_cache, [feat_sum, *rad_hidden], s, static)


def signal_backward(model: FieldModel, cache, d_signal: np.ndarray, grads: GradientSet):
    """Adjoint of signal_forward (taken with want_cache=True from StaticTerms
    that kept their encodings) at the float array d_signal; adds the MLP
    gradients into grads, returns d_feat. The nets' gradients are taken in
    their dtype, and so is d_feat.

    The gradient of the corrected feature flows both to the static feature
    (returned, for the grid scatter) and through the deformation net. The
    per-ray input blocks of the first layers are gathered per row for their
    weight gradients.
    """
    de_cache, rad_cache, s, static = cache
    d_logit = (d_signal * (s * (1.0 - s))).astype(s.dtype, copy=False)
    d_feat = mlp_backward(model.radiance_net, rad_cache[1:], d_logit[:, None], grads,
                          "radiance",
                          (rad_cache[0], np.take(static.enc_dir, static.ray_of, axis=0))
                          ) @ model.radiance_net.weights[0][:, :model.feature_dim]
    if model.deform_enabled:
        mlp_backward(model.deform_net, de_cache[1:], d_feat, grads, "deform",
                     (np.take(de_cache[0], static.ray_of, axis=0), static.enc_x))
    return d_feat


def query_signal(model: FieldModel, x: np.ndarray, tx: np.ndarray,
                 direction: np.ndarray) -> np.ndarray:
    """Emitted power S in (0, 1) at sample x toward `direction` (the emission
    direction: from the sample toward the receiver, i.e. the negated ray
    direction), conditioned on transmitter position tx.

    x, tx, direction broadcast between (3,) and (N, 3), the batch size N
    taken from all three; a scalar comes out only when all three are (3,).
    """
    single = all(np.asarray(v).ndim == 1 for v in (x, tx, direction))
    _check_unit(direction)
    xs, txs, dirs = np.broadcast_arrays(*(np.atleast_2d(v) for v in (x, tx, direction)))
    n = len(xs)
    feat = interpolate(model.feature_grid, xs)
    # every point is its own ray
    static = static_terms(model, feat, np.arange(n), model.encode_positions(xs),
                          model.encode_directions(dirs))
    s, _ = signal_forward(model, static, model.encode_positions(txs))
    return float(s[0]) if single else s
