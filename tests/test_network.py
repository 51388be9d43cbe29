import math
import tracemalloc

import numpy as np
import pytest

from seqtag.corpus import Sentence, Token
from seqtag.encoder import EmbeddingTable, build_encoder, encode_sentence, extract_trigrams
from seqtag.network import (
    TEXT_BLOCK,
    NetworkConfig,
    Params,
    SentenceInput,
    _input_forward,
    backward_bptt,
    forward,
    gradient_check,
    init_params,
    loss,
    lstm_backward,
    lstm_forward,
    param_spec,
    sentence_input,
    sgd_step,
    softmax_rows,
    text_input_layer,
    zero_gradients,
)

from helpers import corrupt_gradient

# Scalar single-cell reference trace, computed by an independent pure-Python
# evaluation of the cell equations (hand-set weights, 3-step input) before
# the array implementation was written.
SCALAR_WEIGHTS = {
    "u.wx_c": 0.5, "u.wh_c": -0.3, "u.b_c": 0.1,
    "u.wx_i": 0.4, "u.wh_i": 0.2, "u.b_i": -0.1,
    "u.wx_f": -0.2, "u.wh_f": 0.5, "u.b_f": 0.3,
    "u.wx_o": 0.7, "u.wh_o": -0.4, "u.b_o": 0.05,
}
SCALAR_INPUTS = [1.0, -0.5, 0.25]
EXPECTED_HIDDEN = [0.20312578671290782, 0.038737006597470217, 0.087399872812396612]
EXPECTED_STATE = [0.29907561435529068, 0.095452402164970931, 0.15827989576099513]


def scalar_reference_trace(weights, inputs):
    """Oracle: evaluate the cell step by step with plain floats."""
    sigm = lambda v: 1.0 / (1.0 + math.exp(-v))
    h = s = 0.0
    trace = []
    for x in inputs:
        cand = math.tanh(weights["u.wx_c"] * x + weights["u.wh_c"] * h + weights["u.b_c"])
        gi = sigm(weights["u.wx_i"] * x + weights["u.wh_i"] * h + weights["u.b_i"])
        gf = sigm(weights["u.wx_f"] * x + weights["u.wh_f"] * h + weights["u.b_f"])
        go = sigm(weights["u.wx_o"] * x + weights["u.wh_o"] * h + weights["u.b_o"])
        s = math.tanh(cand * gi + s * gf)
        h = s * go
        trace.append((s, h))
    return trace


def make_params(values):
    """Params holding the given name -> array-like values, in that order."""
    params = Params([(name, np.shape(value)) for name, value in values.items()])
    for name, value in values.items():
        params[name][...] = value
    return params


def scalar_params():
    return make_params({name: np.full((1, 1) if ".w" in name else (1,), value)
                        for name, value in SCALAR_WEIGHTS.items()})


def test_scalar_oracle_matches_frozen_constants():
    trace = scalar_reference_trace(SCALAR_WEIGHTS, SCALAR_INPUTS)
    for (s, h), s_exp, h_exp in zip(trace, EXPECTED_STATE, EXPECTED_HIDDEN):
        assert s == pytest.approx(s_exp, rel=1e-15)
        assert h == pytest.approx(h_exp, rel=1e-15)


def test_lstm_forward_reproduces_scalar_trace():
    xs = np.array([[x] for x in SCALAR_INPUTS])
    hidden, cache = lstm_forward(scalar_params(), "u", xs)
    for t in range(3):
        assert hidden[t, 0] == pytest.approx(EXPECTED_HIDDEN[t], rel=1e-12)
        assert cache["state"][t + 1, 0] == pytest.approx(EXPECTED_STATE[t], rel=1e-12)


def test_lstm_zero_params_fixpoint():
    params = make_params({name: np.zeros_like(t) for name, t in scalar_params().items()})
    hidden, cache = lstm_forward(params, "u", np.random.default_rng(0).uniform(-1, 1, (4, 1)))
    assert np.all(hidden == 0.0)  # out gate 0.5, state tanh(0) = 0
    assert np.allclose(cache["act"][:, 3:], 0.5)  # output gate column


def test_lstm_single_step_has_no_recurrence():
    xs = np.array([[0.7]])
    hidden, _ = lstm_forward(scalar_params(), "u", xs)
    (s0, h0), = scalar_reference_trace(SCALAR_WEIGHTS, [0.7])
    assert hidden[0, 0] == pytest.approx(h0, rel=1e-12)


def test_lstm_backward_direction_realigns_states():
    rng = np.random.default_rng(3)
    cfg = NetworkConfig("BLSTM", input_dim=4, dense_size=5, lstm_cells=3)
    params = init_params(cfg, 1)
    _, cache = forward(sentence_input(rng.uniform(-1, 1, (5, 4))), cfg, params)
    h = np.maximum(cache["dense"]["pre"], 0.0)
    h_fwd, _ = lstm_forward(params, "fwd", h)
    h_bwd, _ = lstm_forward(params, "bwd", h[::-1])
    both = np.concatenate([h_fwd, h_bwd[::-1]], axis=1)
    # The last token's backward state is the first step of the backward run.
    assert np.allclose(both[-1, 3:], lstm_forward(params, "bwd", h[-1:])[0][0])
    assert np.allclose(cache["top"], lstm_forward(params, "decoder", both)[0])


# ---------------------------------------------------------------------------
# the recurrence against a plain per-gate reference


def reference_lstm_forward(params, prefix, xs):
    """Step-by-step LSTM with one array per gate and explicit previous
    states; the gates are 0.5 * (tanh(0.5 * a) + 1), the logistic sigmoid."""
    T = xs.shape[0]
    wh_all = params.fused[f"{prefix}.wh"]
    cells = wh_all.shape[1]
    pre_x = xs @ params.fused[f"{prefix}.wx"].T + params.fused[f"{prefix}.b"]
    cache = {key: np.zeros((T, cells)) for key in (
        "cand", "gate_in", "gate_forget", "gate_out", "state", "state_prev",
        "hidden_prev", "hidden")}
    h = np.zeros(cells)
    s = np.zeros(cells)
    for t in range(T):
        cache["hidden_prev"][t] = h
        cache["state_prev"][t] = s
        a = pre_x[t] + wh_all @ h
        cand = cache["cand"][t] = np.tanh(a[:cells])
        gates = 0.5 * (np.tanh(0.5 * a[cells:]) + 1.0)
        g_in = cache["gate_in"][t] = gates[:cells]
        g_forget = cache["gate_forget"][t] = gates[cells : 2 * cells]
        g_out = cache["gate_out"][t] = gates[2 * cells :]
        s = cache["state"][t] = np.tanh(cand * g_in + s * g_forget)
        h = cache["hidden"][t] = s * g_out
    cache["xs"] = xs
    return cache["hidden"], cache


def reference_lstm_backward(params, prefix, cache, dhidden, grads):
    """Per-gate BPTT through ``reference_lstm_forward``."""
    T, cells = dhidden.shape
    wh_all = params.fused[f"{prefix}.wh"]
    da_all = np.zeros((T, 4 * cells))
    dh_next = np.zeros(cells)
    ds_next = np.zeros(cells)
    for t in range(T - 1, -1, -1):
        cand, g_in = cache["cand"][t], cache["gate_in"][t]
        g_forget, g_out = cache["gate_forget"][t], cache["gate_out"][t]
        s, s_prev = cache["state"][t], cache["state_prev"][t]
        dh = dhidden[t] + dh_next
        dgate_out = dh * s
        ds = ds_next + dh * g_out
        dupdate = ds * (1.0 - s * s)
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
    grads.fused[f"{prefix}.wx"][...] = da_all.T @ cache["xs"]
    grads.fused[f"{prefix}.wh"][...] = da_all.T @ cache["hidden_prev"]
    grads.fused[f"{prefix}.b"][...] = da_all.sum(axis=0)
    return da_all @ params.fused[f"{prefix}.wx"]


@pytest.mark.parametrize("length", [0, 1, 2, 7, 27, 30])  # 27: a typical annotated sentence
@pytest.mark.parametrize("reverse", [False, True])  # True: on the views xs[::-1], dhidden[::-1]
# input width 150 (fwd, bwd), 2 * cells (decoder) and cells (the LSTM variant's lstm2)
@pytest.mark.parametrize("prefix", ["fwd", "decoder", "bwd", "lstm2"])
def test_lstm_matches_per_gate_reference_bitwise(length, reverse, prefix):
    variant = "LSTM" if prefix == "lstm2" else "BLSTM"
    config = NetworkConfig(variant, input_dim=4, dense_size=150, lstm_cells=20)
    params = init_params(config, length)
    rng = np.random.default_rng(length + 50)
    in_dim = params.fused[f"{prefix}.wx"].shape[1]
    xs = rng.uniform(-2, 2, (length, in_dim))
    dhidden = rng.normal(size=(length, 20))
    if reverse:
        xs, dhidden = xs[::-1], dhidden[::-1]

    hidden, cache = lstm_forward(params, prefix, xs)
    ref_hidden, ref_cache = reference_lstm_forward(params, prefix, xs)
    assert sorted(cache) == ["act", "hidden", "state", "xs"]
    assert np.array_equal(hidden, ref_hidden)
    assert np.array_equal(cache["state"][1:], ref_cache["state"])

    grads, ref_grads = zero_gradients(config), zero_gradients(config)
    dxs = lstm_backward(params, prefix, cache, dhidden, grads)
    ref_dxs = reference_lstm_backward(params, prefix, ref_cache, dhidden, ref_grads)
    assert np.array_equal(dxs, ref_dxs)
    for kind in ("wx", "wh", "b"):
        key = f"{prefix}.{kind}"
        assert np.array_equal(grads.fused[key], ref_grads.fused[key]), key


@pytest.mark.parametrize("length", [1, 7, 27])
def test_lstm_backward_leaves_its_inputs_and_repeats_bitwise(length):
    """BPTT reads dhidden and the forward cache without writing them, so a
    second call on the same cache writes the same gradient bits."""
    config = NetworkConfig("BLSTM", input_dim=4, dense_size=150, lstm_cells=20)
    params = init_params(config, 2)
    rng = np.random.default_rng(length)
    dhidden = rng.normal(size=(length, 40))[::-1, 20:]  # a view, as the BLSTM passes it
    _, cache = lstm_forward(params, "bwd", rng.uniform(-2, 2, (length, 150))[::-1])
    before = {key: value.copy() for key, value in cache.items()}
    dhidden_before = dhidden.copy()

    grads = zero_gradients(config)
    dxs = lstm_backward(params, "bwd", cache, dhidden, grads)
    first = {kind: grads.fused[f"bwd.{kind}"].copy() for kind in ("wx", "wh", "b")}
    assert np.array_equal(dhidden, dhidden_before)
    for key, value in before.items():
        assert np.array_equal(cache[key], value), key
    grads.flat[:] = np.nan  # the second call must overwrite every entry it wrote
    assert lstm_backward(params, "bwd", cache, dhidden, grads).tobytes() == dxs.tobytes()
    for kind, value in first.items():
        assert grads.fused[f"bwd.{kind}"].tobytes() == value.tobytes(), kind


@pytest.mark.parametrize("length", [0, 1, 7])
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("reverse", [False, True])  # True: on the view xs[::-1]
def test_lstm_batch_axis_matches_one_sentence_at_a_time(length, batch, reverse):
    config = NetworkConfig("BLSTM", input_dim=4, dense_size=150, lstm_cells=20)
    params = init_params(config, 3)
    xs = np.random.default_rng(length + batch).uniform(-2, 2, (length, batch, 150))
    if reverse:
        xs = xs[::-1]
    hidden, cache = lstm_forward(params, "fwd", xs)
    assert hidden.shape == (length, batch, 20)
    assert cache["state"].shape == cache["hidden"].shape == (length + 1, batch, 20)
    for b in range(batch):
        alone, _ = lstm_forward(params, "fwd", xs[:, b])
        np.testing.assert_allclose(hidden[:, b], alone, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# gate ranges and softmax invariants


def test_gate_ranges():
    cfg = NetworkConfig("LSTM", input_dim=6, dense_size=8, lstm_cells=4)
    params = init_params(cfg, 5)
    xs = np.random.default_rng(7).uniform(-2, 2, (9, 8))
    _, cache = lstm_forward(params, "lstm1", xs)
    cells = cfg.lstm_cells
    gates, cand = cache["act"][:, cells:], cache["act"][:, :cells]
    assert np.all((gates > 0) & (gates < 1))  # input, forget and output gates
    assert np.all((cand > -1) & (cand < 1))
    assert np.all((cache["state"][1:] > -1) & (cache["state"][1:] < 1))


def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(0).normal(scale=30, size=(50, 3))
    probs = softmax_rows(logits)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# forward stacks


@pytest.fixture(params=["FF", "LSTM", "BLSTM"])
def small_config(request):
    return NetworkConfig(request.param, input_dim=6, dense_size=8, lstm_cells=4)


def test_zero_params_give_uniform_distributions(small_config):
    params = Params(param_spec(small_config))
    ys, _ = forward(sentence_input(np.ones((4, 6))), small_config, params)
    assert np.allclose(ys, 1.0 / 3.0)


def test_empty_sentence_gives_empty_outputs(small_config):
    params = init_params(small_config, 0)
    ys, cache = forward(sentence_input(np.zeros((0, 6))), small_config, params)
    assert ys.shape == (0, 3)
    grads = zero_gradients(small_config)
    grads.flat[:] = 1.0  # stale values from an earlier sentence
    backward_bptt(cache, np.zeros(0, dtype=int), small_config, params, grads)
    assert all(not g.any() for g in grads.values())


def test_ff_is_context_free():
    cfg = NetworkConfig("FF", input_dim=6, dense_size=8, lstm_cells=4)
    params = init_params(cfg, 2)
    xs = np.random.default_rng(0).uniform(-1, 1, (5, 6))
    ys, _ = forward(sentence_input(xs), cfg, params)
    perm = [4, 2, 0, 3, 1]
    ys_perm, _ = forward(sentence_input(xs[perm]), cfg, params)
    assert np.allclose(ys_perm, ys[perm])


def test_lstm_is_causal():
    cfg = NetworkConfig("LSTM", input_dim=6, dense_size=8, lstm_cells=4)
    params = init_params(cfg, 2)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1, 1, (6, 6))
    changed = xs.copy()
    changed[-1] = rng.uniform(-1, 1, 6)
    ys, _ = forward(sentence_input(xs), cfg, params)
    ys2, _ = forward(sentence_input(changed), cfg, params)
    assert np.allclose(ys[:-1], ys2[:-1])
    assert not np.allclose(ys[-1], ys2[-1])


def test_blstm_context_flows_backward():
    cfg = NetworkConfig("BLSTM", input_dim=6, dense_size=8, lstm_cells=4)
    params = init_params(cfg, 2)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1, 1, (6, 6))
    changed = xs.copy()
    changed[-1] = rng.uniform(-1, 1, 6)
    ys, _ = forward(sentence_input(xs), cfg, params)
    ys2, _ = forward(sentence_input(changed), cfg, params)
    assert not np.allclose(ys[0], ys2[0])


def test_unidirectional_variants_have_no_backward_blocks():
    for variant, expect_bwd in (("FF", False), ("LSTM", False), ("BLSTM", True)):
        cfg = NetworkConfig(variant, input_dim=6, dense_size=8, lstm_cells=4)
        names = {name for name, _ in param_spec(cfg)}
        assert any(n.startswith("bwd.") for n in names) == expect_bwd


# ---------------------------------------------------------------------------
# loss


def test_loss_uniform_is_log3():
    ys = np.full((5, 3), 1.0 / 3.0)
    assert loss(ys, np.array([0, 1, 2, 0, 1])) == pytest.approx(
        1.0986122886681098, rel=1e-12
    )


def test_loss_perfect_predictions_zero():
    ys = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert loss(ys, np.array([0, 2])) == pytest.approx(0.0, abs=1e-12)


def test_loss_hand_computed_example():
    ys = np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]])
    gold = np.array([0, 1])  # gold-class probabilities 0.5 and 0.25
    assert loss(ys, gold) == pytest.approx(1.0397207708399179, rel=1e-12)


def test_loss_clamps_zero_probability():
    ys = np.array([[0.0, 1.0, 0.0]])
    value = loss(ys, np.array([0]))
    assert value == pytest.approx(-math.log(1e-12))


def test_loss_length_mismatch():
    with pytest.raises(ValueError):
        loss(np.full((2, 3), 1 / 3), np.array([0]))


# ---------------------------------------------------------------------------
# BPTT vs an independent central-difference oracle (test-side implementation)


def numeric_gradients(xs, gold, config, params, eps=1e-6):
    grads, inputs = {}, sentence_input(xs)
    for name, tensor in params.items():
        num = np.zeros(tensor.shape)
        for j in np.ndindex(tensor.shape):  # by index: the input weight is a transposed view
            orig = tensor[j]
            tensor[j] = orig + eps
            up = loss(forward(inputs, config, params)[0], gold)
            tensor[j] = orig - eps
            down = loss(forward(inputs, config, params)[0], gold)
            tensor[j] = orig
            num[j] = (up - down) / (2 * eps)
        grads[name] = num
    return grads


def assert_matches_numeric(analytic, numeric):
    for name in analytic:
        err = np.abs(analytic[name] - numeric[name])
        scale = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric[name])), 1e-5)
        assert float((err / scale).max()) < 1e-4, name


def multi_hot(rng, length, input_dim, columns, per_token=2):
    """(length, input_dim) lexical-style inputs: each token lights
    ``per_token`` of ``columns``; every other column stays all-zero."""
    xs = np.zeros((length, input_dim))
    for row in xs:
        row[rng.choice(columns, per_token, replace=False)] = 1.0
    return xs


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
@pytest.mark.parametrize("seed", [0, 1])
def test_bptt_matches_finite_differences(variant, seed):
    config = NetworkConfig(variant, input_dim=5, dense_size=6, lstm_cells=3)
    params = init_params(config, seed)
    rng = np.random.default_rng(seed + 100)
    xs = rng.uniform(-1, 1, (4, 5))
    gold = rng.integers(0, 3, 4)
    _, cache = forward(sentence_input(xs), config, params)
    analytic = backward_bptt(cache, gold, config, params, zero_gradients(config))
    assert_matches_numeric(analytic, numeric_gradients(xs, gold, config, params))


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
def test_sparse_input_gradient_matches_finite_differences(variant):
    config = NetworkConfig(variant, input_dim=9, dense_size=6, lstm_cells=3)
    params = init_params(config, 2)
    rng = np.random.default_rng(8)
    xs = multi_hot(rng, 4, 9, np.arange(6))  # columns 6..8 stay all-zero
    gold = rng.integers(0, 3, 4)
    _, cache = forward(sentence_input(xs), config, params)
    analytic = backward_bptt(cache, gold, config, params, zero_gradients(config))
    assert_matches_numeric(analytic, numeric_gradients(xs, gold, config, params))
    weight = analytic[next(iter(analytic))]
    idle = ~xs.any(axis=0)
    assert idle.sum() >= 3 and not weight[:, idle].any()
    assert np.array_equal(analytic.input_columns, np.flatnonzero(~idle))


def input_case(kind, rng, length=5, input_dim=10):
    """Inputs of one kind: multi-hot rows over columns 0..5, the same with
    two all-zero rows, a sentence without any non-zero slot, or dense
    uniform rows as an embedding encoder gives."""
    if kind == "dense":
        return rng.uniform(-1, 1, (length, input_dim))
    xs = multi_hot(rng, length, input_dim, np.arange(6))
    if kind == "zero rows":
        xs[[1, 3]] = 0.0
    elif kind == "all zero":
        xs[:] = 0.0
    return xs


def input_layer(config):
    return "dense1" if config.variant == "FF" else "dense"


@pytest.mark.parametrize("kind", ["multi-hot", "zero rows", "all zero", "dense", "empty"])
def test_sentence_input_keeps_the_active_columns_and_their_values(kind):
    rng = np.random.default_rng(12)
    xs = np.zeros((0, 10)) if kind == "empty" else input_case(kind, rng)
    record = sentence_input(xs)
    assert isinstance(record, SentenceInput) and record.input_dim == 10
    cols = np.flatnonzero(xs.any(axis=0))
    assert record.cols.dtype == cols.dtype and record.cols.tobytes() == cols.tobytes()
    values = xs[:, cols]
    assert record.values.dtype == np.float64 and record.values.shape == values.shape
    assert record.values.tobytes() == values.tobytes()
    assert len(record) == len(xs)


@pytest.mark.parametrize("shape", [(), (5, 10, 1), (10,), (2, 5, 10)])
def test_sentence_input_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"expected inputs of shape \(T, input_dim\), got "):
        sentence_input(np.zeros(shape))


def test_forward_rejects_a_record_of_another_width(small_config):
    params = init_params(small_config, 0)
    with pytest.raises(ValueError, match="inputs of width 7 for input_dim 6"):
        forward(sentence_input(np.ones((3, 7))), small_config, params)


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
@pytest.mark.parametrize("kind", ["multi-hot", "zero rows", "all zero", "dense"])
def test_input_layer_matches_full_product(variant, kind):
    config = NetworkConfig(variant, input_dim=10, dense_size=6, lstm_cells=3)
    params = init_params(config, 3)
    rng = np.random.default_rng(9)
    layer = input_layer(config)
    params[f"{layer}.b"][:] = rng.uniform(-0.5, 0.5, 6)
    xs, gold = input_case(kind, rng), rng.integers(0, 3, 5)
    _, cache = forward(sentence_input(xs), config, params)
    full = xs @ params[f"{layer}.w"].T + params[f"{layer}.b"]
    np.testing.assert_allclose(cache[layer]["pre"], full, rtol=0, atol=1e-12)
    assert np.array_equal(cache[layer]["cols"], np.flatnonzero(xs.any(axis=0)))
    grads = zero_gradients(config)
    backward_bptt(cache, gold, config, params, grads)
    assert np.array_equal(grads.input_columns, cache[layer]["cols"])


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
@pytest.mark.parametrize("kind", ["multi-hot", "zero rows", "all zero"])
def test_forward_reads_only_active_input_columns(variant, kind):
    config = NetworkConfig(variant, input_dim=10, dense_size=6, lstm_cells=3)
    params = init_params(config, 3)
    xs = input_case(kind, np.random.default_rng(10))
    clean, _ = forward(sentence_input(xs), config, params)
    idle = ~xs.any(axis=0)
    assert idle.sum() >= 4
    params[f"{input_layer(config)}.w"][:, idle] = np.nan  # nan * 0 is nan
    poisoned, _ = forward(sentence_input(xs), config, params)
    assert np.isfinite(poisoned).all()
    assert poisoned.tobytes() == clean.tobytes()


def sentence_of(texts):
    return Sentence(tuple(Token(t, 20 * i, 20 * i + len(t)) for i, t in enumerate(texts)))


def text_encoders():
    """A TRI, a DICT and an EMB encoder.  None of them knows "-", which has no
    letter and so sets no flag: it has no entry at all."""
    words = ["Aspirin", "banana", "aaaa", "the", "PATIENT", "mAb"]
    vectors = np.random.default_rng(6).normal(size=(4, 3))
    return {"TRI": build_encoder("TRI", [sentence_of(words)]),
            "DICT": build_encoder("DICT", [sentence_of(words)]),
            "EMB": EmbeddingTable(words[:4], vectors)}


TEXT_CASES = {
    "no texts": [],
    "no entry": ["-", "Aspirin", "-"],
    "repeated trigram": ["banana", "aaaa", "the"],
    "over one block": [w + "s" * (i % 3) for i, w in enumerate(
        ["Aspirin", "banana", "-", "mAb", "Unseen"] * (TEXT_BLOCK // 5 + 2))],
}
assert len(TEXT_CASES["over one block"]) > TEXT_BLOCK


@pytest.mark.parametrize("variant", ["FF", "BLSTM"])
@pytest.mark.parametrize("method", ["TRI", "DICT", "EMB"])
@pytest.mark.parametrize("case", list(TEXT_CASES))
def test_text_input_layer_matches_the_input_layer_on_a_record(variant, method, case):
    encoder, texts = text_encoders()[method], TEXT_CASES[case]
    config = NetworkConfig(variant, input_dim=encoder.dim, dense_size=6, lstm_cells=3)
    params = init_params(config, 3)
    layer = input_layer(config)
    params[f"{layer}.b"][:] = np.random.default_rng(8).uniform(-0.5, 0.5, 6)
    record = sentence_input(encode_sentence(encoder, sentence_of(texts), {}))
    expected = _input_forward(params, layer, record)[0]
    got = text_input_layer([encoder.nonzeros(encoder.code(t)) for t in texts], config, params)
    assert got.shape == expected.shape == (len(texts), 6)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    if "-" in texts:
        assert encoder.nonzeros(encoder.code("-")) == ([], [])
        assert np.array_equal(got[texts.index("-")], np.maximum(params[f"{layer}.b"], 0.0))
    if case == "repeated trigram" and method == "TRI":
        assert extract_trigrams("banana").count("ana") == 2  # its slot is set once
        assert encoder.code("banana")[0].count(encoder.index["ana"]) == 1


def test_text_input_layer_transient_memory_does_not_grow_with_the_text_count():
    rng = np.random.default_rng(2)
    words = ["".join(rng.choice(list("abcdefghij"), 6)) for _ in range(TEXT_BLOCK)]
    encoder = build_encoder("TRI", [sentence_of(words)])
    config = NetworkConfig("BLSTM", input_dim=encoder.dim, dense_size=150, lstm_cells=3)
    params = init_params(config, 0)
    block = [encoder.nonzeros(encoder.code(w)) for w in words]

    def peak_beyond_result(entries):
        tracemalloc.start()
        try:
            out = text_input_layer(entries, config, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.nbytes

    one, eight = peak_beyond_result(block), peak_beyond_result(block * 8)
    assert one > 0
    assert abs(eight - one) <= 0.1 * one, (one, eight)


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
@pytest.mark.parametrize("lengths", [(5, 3), (4, 0), (0, 4)])
def test_reused_gradient_buffer_matches_fresh_buffer(variant, lengths):
    config = NetworkConfig(variant, input_dim=5, dense_size=6, lstm_cells=3)
    params = init_params(config, 0)
    rng = np.random.default_rng(4)
    (xs_a, gold_a), (xs_b, gold_b) = [
        (rng.uniform(-1, 1, (T, 5)), rng.integers(0, 3, T)) for T in lengths
    ]
    reused = zero_gradients(config)
    backward_bptt(forward(sentence_input(xs_a), config, params)[1], gold_a, config, params, reused)
    backward_bptt(forward(sentence_input(xs_b), config, params)[1], gold_b, config, params, reused)
    fresh = zero_gradients(config)
    backward_bptt(forward(sentence_input(xs_b), config, params)[1], gold_b, config, params, fresh)
    assert reused.flat.tobytes() == fresh.flat.tobytes()


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
def test_reused_buffer_with_disjoint_input_columns_matches_fresh(variant):
    config = NetworkConfig(variant, input_dim=10, dense_size=6, lstm_cells=3)
    params = init_params(config, 0)
    rng = np.random.default_rng(6)
    xs_a, xs_b = multi_hot(rng, 5, 10, np.arange(5)), multi_hot(rng, 3, 10, np.arange(5, 10))
    gold_a, gold_b = rng.integers(0, 3, 5), rng.integers(0, 3, 3)
    reused = zero_gradients(config)
    backward_bptt(forward(sentence_input(xs_a), config, params)[1], gold_a, config, params, reused)
    backward_bptt(forward(sentence_input(xs_b), config, params)[1], gold_b, config, params, reused)
    fresh = zero_gradients(config)
    backward_bptt(forward(sentence_input(xs_b), config, params)[1], gold_b, config, params, fresh)
    assert reused.flat.tobytes() == fresh.flat.tobytes()


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
def test_sgd_after_bptt_equals_dense_update(variant):
    config = NetworkConfig(variant, input_dim=10, dense_size=6, lstm_cells=3)
    params, grads = init_params(config, 1), zero_gradients(config)
    rng = np.random.default_rng(7)
    for columns in (np.arange(5), np.arange(4, 10)):
        xs, gold = multi_hot(rng, 4, 10, columns), rng.integers(0, 3, 4)
        backward_bptt(forward(sentence_input(xs), config, params)[1], gold, config, params, grads)
        expected = params.flat - 0.05 * grads.flat
        sgd_step(params, grads, 0.05)
        assert params.flat.tobytes() == expected.tobytes()


def test_sgd_rejects_nan_in_active_input_column():
    config = NetworkConfig("BLSTM", input_dim=10, dense_size=6, lstm_cells=3)
    params, grads = init_params(config, 1), zero_gradients(config)
    rng = np.random.default_rng(7)
    xs, gold = multi_hot(rng, 4, 10, np.arange(5)), rng.integers(0, 3, 4)
    backward_bptt(forward(sentence_input(xs), config, params)[1], gold, config, params, grads)
    grads["dense.w"][2, grads.input_columns[-1]] = np.nan
    before = params.flat.copy()
    with pytest.raises(ValueError, match=r"non-finite gradient in dense\.w"):
        sgd_step(params, grads, 0.05)
    assert params.flat.tobytes() == before.tobytes()


def test_training_step_allocates_no_full_width_temporaries():
    # Peak traced allocation of one backward_bptt + sgd_step on a wide, sparse
    # sentence: a full-width gradient or update temporary is the size of
    # dense.w (120 MB here), the sparse step needs a few hundred KB.
    config = NetworkConfig("BLSTM", input_dim=100_000)
    params = Params(param_spec(config))
    rng = np.random.default_rng(0)
    rng.random(out=params.flat)
    params.flat -= 0.5
    params.flat *= 0.1
    grads = zero_gradients(config)
    xs = multi_hot(rng, 7, config.input_dim, np.arange(config.input_dim), per_token=8)
    gold = rng.integers(0, 3, 7)
    _, cache = forward(sentence_input(xs), config, params)
    tracemalloc.start()
    try:
        backward_bptt(cache, gold, config, params, grads)
        sgd_step(params, grads, config.learning_rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * params["dense.w"].nbytes, peak


def test_fused_views_share_the_per_gate_buffer():
    config = NetworkConfig("BLSTM", input_dim=5, dense_size=6, lstm_cells=3)
    params = init_params(config, 0)
    assert list(params) == [name for name, _ in param_spec(config)]
    for kind, shape in (("wx", (12, 6)), ("wh", (12, 3)), ("b", (12,))):
        fused = params.fused[f"fwd.{kind}"]
        assert fused.shape == shape and np.shares_memory(fused, params.flat)
        stacked = np.concatenate([params[f"fwd.{kind}_{g}"] for g in "cifo"])
        assert np.array_equal(fused, stacked)
    with pytest.raises(TypeError):
        params["out.b"] = np.zeros(3)


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
def test_input_weight_is_stored_one_row_per_input_column(variant):
    config = NetworkConfig(variant, input_dim=7, dense_size=6, lstm_cells=3)
    params = init_params(config, 0)
    first, *rest = params
    rows, base = params[first].T, params.flat.ctypes.data
    assert params[first].shape == (6, 7) and rows.flags.c_contiguous
    assert rows.ctypes.data == base and rows.size == 7 * 6
    assert np.array_equal(rows.reshape(-1), params.flat[: rows.size])
    extents = [(0, rows.nbytes)]
    for name in rest:
        tensor = params[name]
        assert tensor.flags.c_contiguous and np.shares_memory(tensor, params.flat), name
        extents.append((tensor.ctypes.data - base, tensor.nbytes))
    # The views tile the buffer: no gap and no overlap.
    ends = [0]
    for start, nbytes in sorted(extents):
        assert start == ends[-1]
        ends.append(start + nbytes)
    assert ends[-1] == params.flat.nbytes


def test_saturated_perfect_predictions_have_tiny_gradients():
    config = NetworkConfig("FF", input_dim=4, dense_size=5, lstm_cells=3)
    params = Params(param_spec(config))
    params["out.b"][1] = 50.0  # saturate towards class 1 for every token
    xs = np.random.default_rng(0).uniform(-1, 1, (3, 4))
    gold = np.array([1, 1, 1])
    ys, cache = forward(sentence_input(xs), config, params)
    assert loss(ys, gold) < 1e-8
    grads = backward_bptt(cache, gold, config, params, zero_gradients(config))
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert norm < 1e-8


# ---------------------------------------------------------------------------
# SGD and initialization


def test_sgd_zero_learning_rate_keeps_params():
    params = make_params({"w": [1.0, -2.0]})
    sgd_step(params, make_params({"w": [5.0, 5.0]}), 0.0)
    assert list(params["w"]) == [1.0, -2.0]


def test_sgd_arithmetic():
    params = make_params({"w": [1.0]})
    sgd_step(params, make_params({"w": [2.0]}), 0.005)
    assert params["w"][0] == pytest.approx(0.99, rel=1e-15)


def test_sgd_rejects_nan():
    params = make_params({"v": [0.0], "w": [1.0]})
    with pytest.raises(ValueError, match="non-finite gradient in w"):
        sgd_step(params, make_params({"v": [0.0], "w": [np.nan]}), 0.1)


def test_sgd_descends_quadratic():
    # loss(w) = (w - 3)^2, gradient 2 (w - 3)
    params = make_params({"w": [10.0]})
    w = params["w"]
    for _ in range(5):
        before = float((w[0] - 3.0) ** 2)
        sgd_step(params, make_params({"w": [2.0 * (w[0] - 3.0)]}), 0.1)
        assert (w[0] - 3.0) ** 2 < before


def test_init_params_deterministic_and_shaped(small_config):
    a = init_params(small_config, 12)
    b = init_params(small_config, 12)
    c = init_params(small_config, 13)
    for name, shape in param_spec(small_config):
        assert a[name].shape == shape
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a if a[n].size)


def test_init_forget_bias_is_one_other_biases_zero(small_config):
    params = init_params(small_config, 0)
    for name, tensor in params.items():
        if tensor.ndim == 1:
            expected = 1.0 if name.endswith(".b_f") else 0.0
            assert np.all(tensor == expected), name
        else:
            fan_out, fan_in = tensor.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(tensor) <= bound)


# ---------------------------------------------------------------------------
# gradient_check harness


@pytest.mark.parametrize("variant", ["FF", "LSTM", "BLSTM"])
def test_gradient_check_passes(variant):
    config = NetworkConfig(variant, input_dim=6, dense_size=8, lstm_cells=4)
    report = gradient_check(config, seed=0, tolerance=1e-4)
    assert report.passed, report.summary()
    assert report.per_block  # per-block errors reported


def failing_blocks(report):
    return {name for name, err in report.per_block.items() if err >= report.tolerance}


def test_gradient_check_negative_control_fails(monkeypatch):
    config = NetworkConfig("FF", input_dim=5, dense_size=6, lstm_cells=3)
    for corruption in (0.1, math.nan, math.inf):
        with monkeypatch.context() as patch:
            corrupt_gradient(patch, "dense1.w", corruption)
            report = gradient_check(config, seed=0, tolerance=1e-4)
        assert not report.passed, corruption
        assert failing_blocks(report) == {"dense1.w"}, corruption


# One wx, one wh and one b tensor of each LSTM layer; together they hit all four gates.
CORRUPTED_TENSORS = {
    "FF": ["out.b"],
    "LSTM": ["out.b", "lstm1.wx_c", "lstm1.wh_i", "lstm1.b_f",
             "lstm2.wx_o", "lstm2.wh_c", "lstm2.b_i"],
    "BLSTM": ["out.b", "fwd.wx_i", "fwd.wh_f", "fwd.b_o", "bwd.wx_f", "bwd.wh_o", "bwd.b_c",
              "decoder.wx_o", "decoder.wh_c", "decoder.b_i"],
}


@pytest.mark.parametrize("variant, name", [
    (variant, name) for variant, names in CORRUPTED_TENSORS.items() for name in names
])
def test_gradient_check_fails_in_exactly_the_corrupted_block(monkeypatch, variant, name):
    config = NetworkConfig(variant, input_dim=3, dense_size=4, lstm_cells=2)
    corrupt_gradient(monkeypatch, name, 0.1)
    report = gradient_check(config, seed=0, tolerance=1e-4)
    assert failing_blocks(report) == {name}


def test_training_determinism_bit_exact():
    cfg = NetworkConfig("BLSTM", input_dim=4, dense_size=5, lstm_cells=3)
    rng = np.random.default_rng(0)
    xs = [rng.uniform(-1, 1, (3, 4)) for _ in range(4)]
    golds = [rng.integers(0, 3, 3) for _ in range(4)]

    def run():
        params, grads = init_params(cfg, 7), zero_gradients(cfg)
        for _ in range(10):
            for x, g in zip(xs, golds):
                _, cache = forward(sentence_input(x), cfg, params)
                sgd_step(params, backward_bptt(cache, g, cfg, params, grads), 0.01)
        return params

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name])
