"""From-scratch neural stack: dense layers, LSTM cell, BPTT, SGD.

Parameters live in a ``Params`` mapping: named views into one flat float64
buffer, keyed by ``"<layer>.<tensor>"``.  Initialized, loaded and gradient
tensors all use this one type.  Everything runs in double precision so
analytic gradients can be verified against central finite differences.

Lexical inputs are sparse: a sentence lights a handful of the input layer's
columns.  The forward pass finds those columns once per sentence and
multiplies only them; backpropagation writes the input weight's gradient
only in those columns and records them on the gradient buffer, and SGD
updates those columns plus the rest of the buffer.  So a sentence costs
O(active columns x dense_size) in the input layer, not
O(input_dim x dense_size).

The LSTM cell uses the nonstandard state update

    s_t = tanh(cand_t * in_gate_t + s_{t-1} * forget_t),  h_t = s_t * out_gate_t

i.e. the nonlinearity wraps the state accumulation and the hidden output has
no second squashing; this exact form is reproduced deliberately.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

VARIANTS = ("FF", "LSTM", "BLSTM")

_GATES = ("c", "i", "f", "o")  # candidate, input, forget, output

_LOG_EPS = 1e-12  # clamp for log-loss of near-zero probabilities


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and optimizer settings for one tagger network."""

    variant: str
    input_dim: int
    dense_size: int = 150
    lstm_cells: int = 20
    n_classes: int = 3
    learning_rate: float = 0.005

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected {VARIANTS}")
        for name in ("input_dim", "dense_size", "lstm_cells", "n_classes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 * (tanh(x/2) + 1) == 1 / (1 + exp(-x)), stable for any magnitude
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Parameter layout


def _lstm_spec(prefix: str, in_dim: int, cells: int) -> list[tuple[str, tuple]]:
    spec = []
    for gate in _GATES:
        spec.append((f"{prefix}.wx_{gate}", (cells, in_dim)))
        spec.append((f"{prefix}.wh_{gate}", (cells, cells)))
        spec.append((f"{prefix}.b_{gate}", (cells,)))
    return spec


def param_spec(config: NetworkConfig) -> list[tuple[str, tuple]]:
    """Ordered (name, shape) list of every tensor of the configuration."""
    d, cells, k = config.dense_size, config.lstm_cells, config.n_classes
    spec: list[tuple[str, tuple]] = []
    if config.variant == "FF":
        spec += [("dense1.w", (d, config.input_dim)), ("dense1.b", (d,))]
        spec += [("dense2.w", (d, d)), ("dense2.b", (d,))]
        spec += [("dense3.w", (d, d)), ("dense3.b", (d,))]
        spec += [("out.w", (k, d)), ("out.b", (k,))]
    elif config.variant == "LSTM":
        spec += [("dense.w", (d, config.input_dim)), ("dense.b", (d,))]
        spec += _lstm_spec("lstm1", d, cells)
        spec += _lstm_spec("lstm2", cells, cells)
        spec += [("out.w", (k, cells)), ("out.b", (k,))]
    else:  # BLSTM
        spec += [("dense.w", (d, config.input_dim)), ("dense.b", (d,))]
        spec += _lstm_spec("fwd", d, cells)
        spec += _lstm_spec("bwd", d, cells)
        spec += _lstm_spec("decoder", 2 * cells, cells)
        spec += [("out.w", (k, cells)), ("out.b", (k,))]
    return spec


class Params(Mapping):
    """Read-only mapping of named float64 tensors that are views into ``flat``.

    Iteration follows the spec order, which is the model-file manifest
    order.  In the buffer, each LSTM's per-gate tensors are grouped by kind
    (``wx_c..wx_o``, then ``wh_*``, then ``b_*``), so ``fused["<lstm>.wx"]``,
    ``fused["<lstm>.wh"]`` and ``fused["<lstm>.b"]`` are ``(4*cells, ...)``
    views over all four gates.  Tensors are updated in place; entries cannot
    be replaced.

    The first tensor is the network's input weight.  ``input_columns`` indexes
    its last axis and covers every column that may be non-zero: all of them
    (``slice(None)``) until ``backward_bptt`` records the columns the forward
    pass found active in a sentence (the ``"cols"`` of its input-layer cache).
    """

    def __init__(self, spec: list[tuple[str, tuple]]):
        # "<lstm>.<kind>_<gate>" tensors are grouped under "<lstm>.<kind>";
        # every other tensor is a group of its own.
        groups: dict[str, list[tuple[str, tuple]]] = {}
        for name, shape in spec:
            prefix, _, tensor = name.rpartition(".")
            kind, _, gate = tensor.partition("_")
            key = f"{prefix}.{kind}" if gate in _GATES else name
            groups.setdefault(key, []).append((name, shape))
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in spec))
        views: dict[str, np.ndarray] = {}
        self.fused: dict[str, np.ndarray] = {}
        offset = 0
        for key, members in groups.items():
            start = offset
            for name, shape in members:
                views[name] = self.flat[offset : offset + math.prod(shape)].reshape(shape)
                offset += views[name].size
            if key not in views:
                self.fused[key] = self.flat[start:offset].reshape(-1, *members[0][1][1:])
        self._views = {name: views[name] for name, _ in spec}
        self.input_columns: slice | np.ndarray = slice(None)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def init_params(config: NetworkConfig, seed: int) -> Params:
    """Initialize parameters: uniform(-r, r) weights with
    r = sqrt(6 / (fan_in + fan_out)), zero biases, forget-gate biases 1.0.
    """
    rng = np.random.default_rng(seed)
    params = Params(param_spec(config))
    for name, tensor in params.items():
        if tensor.ndim == 1:
            if name.endswith(".b_f"):
                tensor[:] = 1.0
        else:
            fan_out, fan_in = tensor.shape
            r = np.sqrt(6.0 / (fan_in + fan_out))
            tensor[:] = rng.uniform(-r, r, tensor.shape)
    return params


def zero_gradients(config: NetworkConfig) -> Params:
    return Params(param_spec(config))


# ---------------------------------------------------------------------------
# Layers


def _dense_forward(params, prefix, xs):
    pre = xs @ params[f"{prefix}.w"].T + params[f"{prefix}.b"]
    return np.maximum(pre, 0.0), {"xs": xs, "pre": pre}


def _dense_backward(params, prefix, cache, dout, grads):
    dpre = dout * (cache["pre"] > 0)
    grads[f"{prefix}.w"][...] = dpre.T @ cache["xs"]
    grads[f"{prefix}.b"][...] = dpre.sum(axis=0)
    return dpre @ params[f"{prefix}.w"]


def _input_forward(params, prefix, xs):
    """The input layer on the columns the sentence uses: the columns where
    ``xs`` is all-zero add nothing to the product, so they are not read.
    """
    cols = np.flatnonzero(xs.any(axis=0))
    xs_cols = xs[:, cols]
    pre = xs_cols @ params[f"{prefix}.w"][:, cols].T + params[f"{prefix}.b"]
    return np.maximum(pre, 0.0), {"cols": cols, "xs_cols": xs_cols, "pre": pre}


def _input_backward(prefix, cache, dout, grads):
    """Gradients of the input layer, written only in the columns the forward
    pass used; the columns the previous sentence wrote are zeroed first.  The
    gradient w.r.t. the inputs is not computed: nothing reads it.
    """
    dpre = dout * (cache["pre"] > 0)
    cols = cache["cols"]
    weight = grads[f"{prefix}.w"]
    weight[:, grads.input_columns] = 0.0
    weight[:, cols] = dpre.T @ cache["xs_cols"]
    grads[f"{prefix}.b"][...] = dpre.sum(axis=0)
    grads.input_columns = cols


def lstm_forward(
    params: Params, prefix: str, xs: np.ndarray, reverse: bool = False
) -> tuple[np.ndarray, dict]:
    """Run one LSTM direction over a (T, in_dim) sequence.

    Returns hidden states aligned with the original positions; with
    ``reverse=True`` the sequence is processed back to front and the states
    re-reversed before returning.  Input projections for all four gates are
    batched over the whole sequence; only the recurrent term runs per step.
    """
    if reverse:
        xs = xs[::-1]
    T = xs.shape[0]
    wh_all = params.fused[f"{prefix}.wh"]
    cells = wh_all.shape[1]

    # (T, 4*cells): input projections of all four gates at once
    pre_x = xs @ params.fused[f"{prefix}.wx"].T + params.fused[f"{prefix}.b"]
    cand = np.zeros((T, cells))
    gate_in = np.zeros((T, cells))
    gate_forget = np.zeros((T, cells))
    gate_out = np.zeros((T, cells))
    state = np.zeros((T, cells))
    state_prev = np.zeros((T, cells))
    hidden_prev = np.zeros((T, cells))
    hidden = np.zeros((T, cells))

    h = np.zeros(cells)
    s = np.zeros(cells)
    for t in range(T):
        hidden_prev[t] = h
        state_prev[t] = s
        a = pre_x[t] + wh_all @ h
        cand[t] = np.tanh(a[:cells])
        gates = _sigmoid(a[cells:])
        gate_in[t] = gates[:cells]
        gate_forget[t] = gates[cells : 2 * cells]
        gate_out[t] = gates[2 * cells :]
        s = np.tanh(cand[t] * gate_in[t] + s * gate_forget[t])
        h = s * gate_out[t]
        state[t] = s
        hidden[t] = h

    cache = {
        "xs": xs,
        "cand": cand,
        "gate_in": gate_in,
        "gate_forget": gate_forget,
        "gate_out": gate_out,
        "state": state,
        "state_prev": state_prev,
        "hidden_prev": hidden_prev,
        "reverse": reverse,
    }
    return (hidden[::-1] if reverse else hidden), cache


def lstm_backward(params, prefix, cache, dhidden, grads):
    """Exact BPTT through one LSTM direction; returns gradient w.r.t. inputs.

    Per-step work covers only the recurrent dependencies; weight gradients
    are written afterwards, one sequence-level matrix product per fused block.
    """
    if cache["reverse"]:
        dhidden = dhidden[::-1]
    xs = cache["xs"]
    T, cells = dhidden.shape
    wh_all = params.fused[f"{prefix}.wh"]

    da_all = np.zeros((T, 4 * cells))
    dh_next = np.zeros(cells)
    ds_next = np.zeros(cells)
    for t in range(T - 1, -1, -1):
        cand = cache["cand"][t]
        g_in = cache["gate_in"][t]
        g_forget = cache["gate_forget"][t]
        g_out = cache["gate_out"][t]
        s = cache["state"][t]
        s_prev = cache["state_prev"][t]

        dh = dhidden[t] + dh_next
        dgate_out = dh * s
        ds = ds_next + dh * g_out
        dupdate = ds * (1.0 - s * s)  # through the tanh state wrap
        dcand = dupdate * g_in
        dgate_in = dupdate * cand
        dgate_forget = dupdate * s_prev
        ds_next = dupdate * g_forget

        da = da_all[t]
        da[:cells] = dcand * (1.0 - cand * cand)
        da[cells : 2 * cells] = dgate_in * g_in * (1.0 - g_in)
        da[2 * cells : 3 * cells] = dgate_forget * g_forget * (1.0 - g_forget)
        da[3 * cells :] = dgate_out * g_out * (1.0 - g_out)
        dh_next = wh_all.T @ da

    grads.fused[f"{prefix}.wx"][...] = da_all.T @ xs
    grads.fused[f"{prefix}.wh"][...] = da_all.T @ cache["hidden_prev"]
    grads.fused[f"{prefix}.b"][...] = da_all.sum(axis=0)
    dxs = da_all @ params.fused[f"{prefix}.wx"]
    return dxs[::-1] if cache["reverse"] else dxs


# ---------------------------------------------------------------------------
# Full stacks


def forward(
    xs: np.ndarray, config: NetworkConfig, params: Params
) -> tuple[np.ndarray, dict]:
    """Evaluate the configured stack on a (T, input_dim) sentence.

    Returns per-token class distributions (T, n_classes) and the activation
    cache needed by backward_bptt.  An empty sentence yields empty outputs.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != config.input_dim:
        raise ValueError(
            f"expected inputs of shape (T, {config.input_dim}), got {xs.shape}"
        )
    cache: dict = {}
    if xs.shape[0] == 0:
        cache["ys"] = np.zeros((0, config.n_classes))
        return cache["ys"], cache

    if config.variant == "FF":
        h1, cache["dense1"] = _input_forward(params, "dense1", xs)
        h2, cache["dense2"] = _dense_forward(params, "dense2", h1)
        h3, cache["dense3"] = _dense_forward(params, "dense3", h2)
        top = h3
    elif config.variant == "LSTM":
        h0, cache["dense"] = _input_forward(params, "dense", xs)
        h1, cache["lstm1"] = lstm_forward(params, "lstm1", h0)
        h2, cache["lstm2"] = lstm_forward(params, "lstm2", h1)
        top = h2
    else:  # BLSTM
        h0, cache["dense"] = _input_forward(params, "dense", xs)
        h_fwd, cache["fwd"] = lstm_forward(params, "fwd", h0)
        h_bwd, cache["bwd"] = lstm_forward(params, "bwd", h0, reverse=True)
        both = np.concatenate([h_fwd, h_bwd], axis=1)
        h_dec, cache["decoder"] = lstm_forward(params, "decoder", both)
        top = h_dec

    logits = top @ params["out.w"].T + params["out.b"]
    ys = softmax_rows(logits)
    cache["top"] = top
    cache["ys"] = ys
    return ys, cache


def loss(ys: np.ndarray, gold: np.ndarray) -> float:
    """Token-mean cross-entropy; probabilities clamped at 1e-12 before log."""
    gold = np.asarray(gold)
    if ys.shape[0] != gold.shape[0]:
        raise ValueError(f"{ys.shape[0]} predictions for {gold.shape[0]} labels")
    if ys.shape[0] == 0:
        return 0.0
    picked = ys[np.arange(len(gold)), gold]
    return float(-np.log(np.maximum(picked, _LOG_EPS)).mean())


def backward_bptt(
    cache: dict, gold: np.ndarray, config: NetworkConfig, params: Params, grads: Params
) -> Params:
    """Exact gradients of loss(forward(xs), gold) w.r.t. every parameter.

    The sentence is unrolled in full; no truncation.  Softmax and
    cross-entropy are fused, so dlogits = (y - onehot) / T.  Every tensor
    of ``grads`` receives exactly one contribution and is overwritten, so
    one buffer from ``zero_gradients`` serves a whole training run.  The
    input weight is the exception: only the columns ``forward`` found active
    and cached are written, the previously recorded ones are zeroed, and the
    new ones are recorded in ``grads.input_columns``.
    """
    ys = cache["ys"]
    gold = np.asarray(gold)
    T = ys.shape[0]
    if T == 0:
        grads.flat.fill(0.0)
        return grads

    dlogits = ys.copy()
    dlogits[np.arange(T), gold] -= 1.0
    dlogits /= T

    grads["out.w"][...] = dlogits.T @ cache["top"]
    grads["out.b"][...] = dlogits.sum(axis=0)
    dtop = dlogits @ params["out.w"]

    if config.variant == "FF":
        d3 = _dense_backward(params, "dense3", cache["dense3"], dtop, grads)
        d2 = _dense_backward(params, "dense2", cache["dense2"], d3, grads)
        _input_backward("dense1", cache["dense1"], d2, grads)
    elif config.variant == "LSTM":
        dh1 = lstm_backward(params, "lstm2", cache["lstm2"], dtop, grads)
        dh0 = lstm_backward(params, "lstm1", cache["lstm1"], dh1, grads)
        _input_backward("dense", cache["dense"], dh0, grads)
    else:  # BLSTM
        dboth = lstm_backward(params, "decoder", cache["decoder"], dtop, grads)
        cells = config.lstm_cells
        dh0 = lstm_backward(params, "fwd", cache["fwd"], dboth[:, :cells], grads)
        dh0 += lstm_backward(params, "bwd", cache["bwd"], dboth[:, cells:], grads)
        _input_backward("dense", cache["dense"], dh0, grads)
    return grads


def sgd_step(params: Params, grads: Params, learning_rate: float) -> Params:
    """In-place p <- p - lr * g; rejects non-finite gradients.

    Updates the input weight (the first tensor) in ``grads.input_columns``
    and every later tensor, which follow it contiguously in the buffer.  The
    input weight's gradient is zero elsewhere, so this equals the update of
    the whole buffer.  The finiteness check covers exactly the updated
    elements.
    """
    first = next(iter(grads))
    cols, rest = grads.input_columns, grads[first].size
    g_input, g_rest = grads[first][..., cols], grads.flat[rest:]
    if not (np.isfinite(g_input.sum()) and np.isfinite(g_rest.sum())):
        raise ValueError(f"non-finite gradient in {_nonfinite_tensor(grads)}")
    params[first][..., cols] -= learning_rate * g_input
    params.flat[rest:] -= learning_rate * g_rest
    return params


def _nonfinite_tensor(grads: Params) -> str:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            return name
    return "<overflow in gradient sum>"


# ---------------------------------------------------------------------------
# Finite-difference verification


@dataclass
class GradientCheckReport:
    """Outcome of comparing analytic BPTT gradients to central differences."""

    variant: str
    tolerance: float
    max_rel_error: float
    per_block: dict[str, float] = field(default_factory=dict)
    n_coordinates: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.variant}: max relative error {self.max_rel_error:.3e} "
            f"over {self.n_coordinates} coordinates "
            f"(tolerance {self.tolerance:.1e}) -> {status}"
        )


def gradient_check(
    config: NetworkConfig,
    seed: int = 0,
    tolerance: float = 1e-4,
    sequence_length: int = 5,
    corruption: float = 0.0,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Every parameter coordinate is perturbed by +/-eps and the loss
    re-evaluated; the relative error is |analytic - numeric| over
    max(|analytic|, |numeric|, 1e-5).  Draws whose relu pre-activations sit
    within 1e-4 of a kink are redrawn (central differences are invalid
    across the kink).  ``corruption`` is a negative-control knob: it is
    added to one analytic gradient entry so tests can confirm the check
    fails when gradients are wrong.
    """
    eps = 1e-6
    for attempt in range(32):
        draw_seed = seed + 1000003 * attempt
        params = init_params(config, draw_seed)
        rng = np.random.default_rng(draw_seed + 1)
        xs = rng.uniform(-1.0, 1.0, (sequence_length, config.input_dim))
        gold = rng.integers(0, config.n_classes, sequence_length)
        _, cache = forward(xs, config, params)
        if _min_relu_margin(cache) > 1e-4:
            break

    analytic = backward_bptt(cache, gold, config, params, zero_gradients(config))
    if corruption:
        first = next(iter(analytic))
        analytic[first].flat[0] += corruption

    per_block: dict[str, float] = {}
    n_coords = 0
    for name in analytic:
        block_err = 0.0
        flat = params[name].reshape(-1)
        analytic_flat = analytic[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss(forward(xs, config, params)[0], gold)
            flat[j] = orig - eps
            down = loss(forward(xs, config, params)[0], gold)
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            a = analytic_flat[j]
            rel = float(abs(a - numeric) / max(abs(a), abs(numeric), 1e-5))
            block_err = max(block_err, rel)
            n_coords += 1
        per_block[name] = block_err

    return GradientCheckReport(
        variant=config.variant,
        tolerance=tolerance,
        max_rel_error=max(per_block.values()),
        per_block=per_block,
        n_coordinates=n_coords,
    )


def _min_relu_margin(cache: dict) -> float:
    margin = np.inf
    for key in ("dense", "dense1", "dense2", "dense3"):
        layer = cache.get(key)
        if layer is not None and layer["pre"].size:
            margin = min(margin, float(np.abs(layer["pre"]).min()))
    return margin
