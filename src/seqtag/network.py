"""From-scratch neural stack: dense layers, LSTM cell, BPTT, SGD.

Parameters live in a ``Params`` mapping: named views into one flat float64
buffer, keyed by ``"<layer>.<tensor>"``.  Initialized, loaded and gradient
tensors all use this one type.  Everything runs in double precision so
analytic gradients can be verified against central finite differences.

Lexical inputs are sparse.  The input weight is stored one contiguous row per
input column.  ``forward`` reads a sentence as a ``SentenceInput`` record of the
columns it lights and its values there, and multiplies only their rows;
backpropagation writes the gradient in those rows alone and records them on the
gradient buffer, and SGD updates them plus the rest of the buffer.  A sentence
costs O(active columns x dense_size) in the input layer, not O(input_dim x
dense_size).  Batched inference needs no record: ``text_input_layer`` sums each
distinct token text's rows once, and ``forward_batch`` runs the layers above it.

The LSTM cell uses the nonstandard state update

    s_t = tanh(cand_t * in_gate_t + s_{t-1} * forget_t),  h_t = s_t * out_gate_t

i.e. the nonlinearity wraps the state accumulation and the hidden output has
no second squashing; this exact form is reproduced deliberately.  A sentence
runs as (T, ...) and B of one length as (T, B, ...) on the same lines, lanes
last inside the recurrence, so a step's blocks are contiguous for any B.  A
step costs numpy calls, not arithmetic (one took 414 ns with ``out=``, 375 ns
with a positional out, 319 ns by a local name; ``g *= 0.5`` 527-647 ns, by a
0.5 array 366 ns), so both loops update step views in place in that form.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

VARIANTS = ("FF", "LSTM", "BLSTM")

_GATES = ("c", "i", "f", "o")  # candidate, input, forget, output

_LOG_EPS = 1e-12  # clamp for log-loss of near-zero probabilities
TEXT_BLOCK = 64  # texts per block of text_input_layer's segment sums


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and optimizer settings for one tagger network."""

    variant: str
    input_dim: int
    dense_size: int = 150
    lstm_cells: int = 20
    n_classes: int = field(default=3, init=False)  # B, I and O: not a setting
    learning_rate: float = 0.005

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected {VARIANTS}")
        for name in ("input_dim", "dense_size", "lstm_cells"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Parameter layout


def _lstm_spec(prefix: str, in_dim: int, cells: int) -> list[tuple[str, tuple]]:
    shapes = {"wx": (cells, in_dim), "wh": (cells, cells), "b": (cells,)}
    return [(f"{prefix}.{kind}_{g}", shape) for g in _GATES for kind, shape in shapes.items()]


def param_spec(config: NetworkConfig) -> list[tuple[str, tuple]]:
    """Ordered (name, shape) list of every tensor of the configuration."""
    d, cells, k = config.dense_size, config.lstm_cells, config.n_classes
    if config.variant == "FF":
        return [("dense1.w", (d, config.input_dim)), ("dense1.b", (d,)),
                ("dense2.w", (d, d)), ("dense2.b", (d,)),
                ("dense3.w", (d, d)), ("dense3.b", (d,)),
                ("out.w", (k, d)), ("out.b", (k,))]
    spec = [("dense.w", (d, config.input_dim)), ("dense.b", (d,))]
    if config.variant == "LSTM":
        spec += _lstm_spec("lstm1", d, cells) + _lstm_spec("lstm2", cells, cells)
    else:  # BLSTM
        spec += _lstm_spec("fwd", d, cells) + _lstm_spec("bwd", d, cells)
        spec += _lstm_spec("decoder", 2 * cells, cells)
    return spec + [("out.w", (k, cells)), ("out.b", (k,))]


class Params(Mapping):
    """Read-only mapping of named float64 tensors that are views into ``flat``.

    Iteration follows the spec order, which is the model-file manifest
    order.  In the buffer, each LSTM's per-gate tensors are grouped by kind
    (``wx_c..wx_o``, then ``wh_*``, then ``b_*``), so ``fused["<lstm>.wx"]``,
    ``fused["<lstm>.wh"]`` and ``fused["<lstm>.b"]`` are ``(4*cells, ...)``
    views over all four gates.  Tensors are updated in place; entries cannot
    be replaced.

    The first tensor is the network's input weight.  It is stored as
    (input_dim, dense_size) rows at the start of ``flat``, one row per input
    column, and ``params[name]`` is the logical (dense_size, input_dim)
    transposed view of them; every other tensor is a C-contiguous view.
    ``input_columns`` indexes those rows and covers every row that may be
    non-zero: all of them (``slice(None)``) until ``backward_bptt`` records
    the columns of a sentence's record (the ``"cols"`` of its input-layer
    cache).
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
        offset, first = 0, spec[0][0]  # the input weight is stored as rows
        for key, members in groups.items():
            start = offset
            for name, shape in members:
                view = self.flat[offset : offset + math.prod(shape)]
                views[name] = view.reshape(shape[::-1]).T if name == first else view.reshape(shape)
                offset += view.size
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


@dataclass(frozen=True, eq=False)
class SentenceInput:
    """A sentence's sorted non-zero columns and their (T, k) values; len() is T."""

    cols: np.ndarray
    values: np.ndarray
    input_dim: int

    def __len__(self) -> int:
        return len(self.values)


def sentence_input(xs) -> SentenceInput:
    """The record of a (T, V) matrix, of width V; its all-zero columns add
    nothing.  The input layer checks the width against its own."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError(f"expected inputs of shape (T, input_dim), got {xs.shape}")
    cols = np.flatnonzero(xs.any(axis=0))
    return SentenceInput(cols, xs[:, cols], xs.shape[1])


def _input_forward(params, prefix, inputs: SentenceInput):
    """The input layer on the rows of the columns the sentence uses."""
    rows = params[f"{prefix}.w"].T
    if inputs.input_dim != len(rows):
        raise ValueError(f"inputs of width {inputs.input_dim} for input_dim {len(rows)}")
    pre = inputs.values @ rows[inputs.cols] + params[f"{prefix}.b"]
    return np.maximum(pre, 0.0), {"cols": inputs.cols, "xs_cols": inputs.values, "pre": pre}


def _input_backward(prefix, cache, dout, grads):
    """Gradients of the input layer, written only in the rows of the columns
    the forward pass used; the rows the previous sentence wrote are zeroed
    first.  The gradient w.r.t. the inputs is not computed: nothing reads it.
    """
    dpre = dout * (cache["pre"] > 0)
    cols = cache["cols"]
    rows = grads[f"{prefix}.w"].T
    rows[grads.input_columns] = 0.0
    # Computed as (dense_size, k) and written transposed: BLAS may sum
    # xs_cols.T @ dpre in another order for long sentences, and training
    # would then no longer reproduce models bit for bit across layouts.
    rows[cols] = (dpre.T @ cache["xs_cols"]).T
    grads[f"{prefix}.b"][...] = dpre.sum(axis=0)
    grads.input_columns = cols


def lstm_forward(params: Params, prefix: str, xs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run one LSTM direction over a (T, ..., in_dim) sequence, row 0 first.

    A (T, in_dim) sentence and a (T, B, in_dim) batch of B sentences of one
    length run the same lines; no sentence reads another's values.  Returns
    the (T, ..., cells) hidden states; a backward direction runs on the
    reversed view ``xs[::-1]``.  Lanes last: ``act`` (candidate, input,
    forget, output) is (T, 4*cells, ...), ``state`` and ``hidden`` (T+1,
    cells, ...) with a zero first row; the cache holds (T[+1], ..., width)
    views of them.  The projection goes into ``act``; its and ``wh``'s gate
    rows are halved in place.  Each step adds ``np.dot(wh_half, h_prev)``,
    takes the tanh and maps the gate rows z to ``z * 0.5 + 0.5`` (sigmoid(a)
    = 0.5 * tanh(a/2) + 0.5 bit for bit: halving is exact), then sets s =
    tanh(c * i + s_prev * f) and h = s * o, in the module's call form.
    """
    T, cells = xs.shape[0], params.fused[f"{prefix}.wh"].shape[1]
    wh_half = params.fused[f"{prefix}.wh"].copy()
    wh_half[cells:] *= 0.5
    act = np.empty((T, 4 * cells, *xs.shape[1:-1]))  # lanes last
    np.add(xs @ params.fused[f"{prefix}.wx"].T, params.fused[f"{prefix}.b"],
           act.swapaxes(1, -1))
    act[:, cells:] *= 0.5
    state, hidden = np.zeros((2, T + 1, cells, *xs.shape[1:-1]))
    rec, prod, half = np.empty(act.shape[1:]), np.empty(state.shape[1:]), np.array(0.5)
    add, multiply, tanh, dot = np.add, np.multiply, np.tanh, np.dot
    blocks = (act[:, k * cells : (k + 1) * cells] for k in range(4))
    for a, gates, c, i, f, o, s_prev, s, h_prev, h in zip(
            act, act[:, cells:], *blocks, state[:-1], state[1:], hidden[:-1], hidden[1:]):
        dot(wh_half, h_prev, rec)
        add(a, rec, a)
        tanh(a, a)
        multiply(gates, half, gates)
        add(gates, half, gates)
        multiply(c, i, s)
        multiply(s_prev, f, prod)
        add(s, prod, s)
        tanh(s, s)
        multiply(s, o, h)
    act, state, hidden = (v.swapaxes(1, -1) for v in (act, state, hidden))
    return hidden[1:], {"xs": xs, "act": act, "state": state, "hidden": hidden}


def lstm_backward(params, prefix, cache, dhidden, grads):
    """Exact BPTT through one LSTM direction; returns gradient w.r.t. inputs.

    Block k of the pre-activation gradient is ``((x * partner) * gate) *
    slope`` in the chain rule's order, x being the state-update gradient
    (the hidden gradient for the output gate).  The factors are computed
    first.  Each step, walking reversed views, runs the ``dh``/``ds`` chain in
    place, fills x = [dupdate, dupdate, dupdate, dh] in one buffer, builds
    the product into its row of ``da_all`` and sets ``dh_next = wh.T @ da``,
    in the module's call form.  The weight gradients are written in place.
    """
    act, state = cache["act"], cache["state"]
    T, cells = dhidden.shape
    cand, g_in, g_forget, g_out = (act[:, k * cells : (k + 1) * cells] for k in range(4))
    partner = np.concatenate([g_in, cand, state[:-1], state[1:]], axis=1)
    gate, slope = act.copy(), np.subtract(1.0, act)  # 1 - each gate
    gate[:, :cells] = 1.0
    slope[:, :cells] = 1.0 - cand * cand
    state_slope = 1.0 - state[1:] * state[1:]  # through the tanh state wrap
    wh_t = params.fused[f"{prefix}.wh"].T
    da_all, x = np.empty((T, 4 * cells)), np.zeros((4, cells))
    dupdate, copies, dh, x_flat = x[0], x[1:3], x[3], x.reshape(-1)
    dh_next, ds_next = np.zeros((2, cells))
    add, multiply, copyto, dot = np.add, np.multiply, np.copyto, np.dot
    views = (dhidden, g_out, g_forget, state_slope, partner, gate, slope, da_all)
    for dh_t, o, f, s_slope, p, g, sl, da in zip(*(v[::-1] for v in views)):
        add(dh_t, dh_next, dh)
        multiply(dh, o, dupdate)
        add(dupdate, ds_next, dupdate)
        multiply(dupdate, s_slope, dupdate)
        multiply(dupdate, f, ds_next)
        copyto(copies, dupdate)
        multiply(x_flat, p, da)
        multiply(da, g, da)
        multiply(da, sl, da)
        dot(wh_t, da, dh_next)
    np.matmul(da_all.T, cache["xs"], grads.fused[f"{prefix}.wx"])
    np.matmul(da_all.T, cache["hidden"][:-1], grads.fused[f"{prefix}.wh"])
    da_all.sum(0, out=grads.fused[f"{prefix}.b"])
    return da_all @ params.fused[f"{prefix}.wx"]


# ---------------------------------------------------------------------------
# Full stacks


def forward(
    inputs: SentenceInput, config: NetworkConfig, params: Params
) -> tuple[np.ndarray, dict]:
    """Evaluate the configured stack on the record of one sentence of T tokens.

    Returns per-token class distributions (T, n_classes) and the activation
    cache needed by backward_bptt.  An empty sentence yields empty outputs.
    """
    first = "dense1" if config.variant == "FF" else "dense"
    h, input_cache = _input_forward(params, first, inputs)
    return _upper_forward(h, config, params, {first: input_cache})


def text_input_layer(entries: list, config: NetworkConfig, params: Params) -> np.ndarray:
    """The input layer's (U, dense_size) output on U texts, each given by its code's
    ``nonzeros``: relu(bias + sum of values * rows[slots]), summed TEXT_BLOCK texts at a time."""
    first = "dense1" if config.variant == "FF" else "dense"
    rows, pre = params[f"{first}.w"].T, np.zeros((len(entries), config.dense_size))
    for lo in range(0, len(entries), TEXT_BLOCK):
        slots, values = zip(*entries[lo : lo + TEXT_BLOCK])
        sizes = np.array([*map(len, slots)])
        products = rows[np.fromiter(chain(*slots), np.intp)]
        products *= np.fromiter(chain(*values), np.float64)[:, None]
        lit = sizes > 0  # reduceat gives an empty segment the next row, not 0
        pre[lo : lo + TEXT_BLOCK][lit] = np.add.reduceat(products, (np.cumsum(sizes) - sizes)[lit])
        del products  # freed before the next block's are made
    return np.maximum(np.add(pre, params[f"{first}.b"], out=pre), 0.0, out=pre)


def forward_batch(h: np.ndarray, config: NetworkConfig, params: Params) -> np.ndarray:
    """Distributions (T, [B,] n_classes) from the input layer's (T, [B,] dense_size) output."""
    return _upper_forward(h, config, params, {})[0]


def _upper_forward(h, config: NetworkConfig, params: Params, cache: dict):
    """The layers above the input layer, on its (T, ..., dense_size) output."""
    if config.variant == "FF":
        h2, cache["dense2"] = _dense_forward(params, "dense2", h)
        top, cache["dense3"] = _dense_forward(params, "dense3", h2)
    elif config.variant == "LSTM":
        h1, cache["lstm1"] = lstm_forward(params, "lstm1", h)
        top, cache["lstm2"] = lstm_forward(params, "lstm2", h1)
    else:  # BLSTM
        h_fwd, cache["fwd"] = lstm_forward(params, "fwd", h)
        h_bwd, cache["bwd"] = lstm_forward(params, "bwd", h[::-1])  # runs back to front
        both = np.concatenate([h_fwd, h_bwd[::-1]], axis=-1)
        top, cache["decoder"] = lstm_forward(params, "decoder", both)
    cache["top"] = top
    cache["ys"] = softmax_rows(top @ params["out.w"].T + params["out.b"])
    return cache["ys"], cache


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
    """Exact gradients of loss(forward(inputs), gold) w.r.t. every parameter.

    The sentence is unrolled in full; no truncation.  Softmax and cross-entropy
    are fused, so dlogits = (y - onehot) / T.  Every tensor of ``grads`` receives
    exactly one contribution and is overwritten, so one buffer from
    ``zero_gradients`` serves a whole training run; an empty sentence's products
    over its empty time axis are zero.  The input weight is the exception: only
    the rows of the record's columns, cached by ``forward``, are written, the
    previously recorded ones are zeroed, and the new ones are recorded in
    ``grads.input_columns``.
    """
    ys = cache["ys"]
    gold = np.asarray(gold)
    T = ys.shape[0]
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
        dh0 += lstm_backward(params, "bwd", cache["bwd"], dboth[::-1, cells:], grads)[::-1]
        _input_backward("dense", cache["dense"], dh0, grads)
    return grads


def sgd_step(params: Params, grads: Params, learning_rate: float) -> Params:
    """In-place p <- p - lr * g; rejects non-finite gradients.

    Updates the rows ``grads.input_columns`` of the input weight (the first
    tensor) and every later tensor, which follow it contiguously in the
    buffer.  The input weight's gradient is zero elsewhere, so this equals
    the update of the whole buffer.  The finiteness check covers exactly the
    updated elements.
    """
    first = next(iter(grads))
    cols, rest = grads.input_columns, grads[first].size
    g_input, g_rest = grads[first].T[cols], grads.flat[rest:]
    if not (np.isfinite(g_input.sum()) and np.isfinite(g_rest.sum())):
        raise ValueError(f"non-finite gradient in {_nonfinite_tensor(grads)}")
    params[first].T[cols] -= learning_rate * g_input
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
        return (f"{self.variant}: max relative error {self.max_rel_error:.3e} over "
                f"{self.n_coordinates} coordinates (tolerance {self.tolerance:.1e}) -> "
                f"{'PASS' if self.passed else 'FAIL'}")


def gradient_check(
    config: NetworkConfig,
    seed: int = 0,
    tolerance: float = 1e-4,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    The loss is that of one random sequence of fixed length 5, every input
    column active, with random gold classes.  Every parameter coordinate is
    perturbed by +/-eps and the loss re-evaluated; the relative error is
    |analytic - numeric| over max(|analytic|, |numeric|, 1e-5).  Draws
    whose relu pre-activations sit within 1e-4 of a kink are redrawn
    (central differences are invalid across the kink).  The analytic
    gradients come from ``backward_bptt``, looked up at call time, so a test
    can wrap it to inject a fault and confirm that the check fails in that
    tensor's block.  A non-finite analytic or numeric entry counts as an
    infinite error.  The tolerance must be positive and finite.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    eps = 1e-6
    for attempt in range(32):
        draw_seed = seed + 1000003 * attempt
        params = init_params(config, draw_seed)
        rng = np.random.default_rng(draw_seed + 1)
        xs = rng.uniform(-1.0, 1.0, (5, config.input_dim))
        inputs = sentence_input(xs)  # every column active
        gold = rng.integers(0, config.n_classes, len(xs))
        _, cache = forward(inputs, config, params)
        if _min_relu_margin(cache) > 1e-4:
            break

    analytic = backward_bptt(cache, gold, config, params, zero_gradients(config))

    per_block: dict[str, float] = {}
    for name in analytic:
        block_err = 0.0
        tensor = params[name]  # perturbed by index: the input weight is a transposed view
        for j in np.ndindex(tensor.shape):
            orig = tensor[j]
            tensor[j] = orig + eps
            up = loss(forward(inputs, config, params)[0], gold)
            tensor[j] = orig - eps
            down = loss(forward(inputs, config, params)[0], gold)
            tensor[j] = orig
            numeric = (up - down) / (2.0 * eps)
            a = float(analytic[name][j])
            if math.isfinite(a) and math.isfinite(numeric):
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
            else:
                rel = math.inf
            block_err = max(block_err, rel)
        per_block[name] = block_err

    return GradientCheckReport(config.variant, tolerance, max(per_block.values()), per_block,
                               n_coordinates=analytic.flat.size)


def _min_relu_margin(cache: dict) -> float:
    pres = [cache[key]["pre"] for key in ("dense", "dense1", "dense2", "dense3") if key in cache]
    return min((float(np.abs(pre).min()) for pre in pres if pre.size), default=np.inf)
