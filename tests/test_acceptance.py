"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The corpus-reproduction test is data-gated: it runs only when the
SEQTAG_CONLL2003 environment variable points to a BIO column file with
untyped B/I/O labels.
"""
import json
import os
import random
import time

import numpy as np
import pytest

from seqtag.cli import main as cli_main
from seqtag.corpus import (
    MentionSpan,
    Sentence,
    Token,
    document_labels,
    read_bio_column_file,
    sample_split,
)
from seqtag.encoder import (
    EmbeddingTable,
    LexicalEncoder,
    encode_sentence,
)
from seqtag.evaluation import count_document, evaluate, micro_scores
from seqtag.network import NetworkConfig, Params, _gates_in, gradient_check, lstm_forward
from seqtag.synth import SynthConfig, synthetic_corpus
from seqtag.tagger import TrainingConfig, decode_spans, predict, train

from helpers import write_embeddings_file


def report(name: str, detail: str = "") -> None:
    """Print the criterion's PASS line; conftest.py repeats it in the summary."""
    suffix = f" ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE] {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# Gradient correctness


def test_gradient_correctness_all_variants():
    started = time.monotonic()
    worst = {}
    for variant in ("FF", "LSTM", "BLSTM"):
        config = NetworkConfig(variant, input_dim=10, dense_size=10, lstm_cells=5)
        result = gradient_check(config, seed=0, tolerance=1e-4)
        assert result.passed, result.summary()
        worst[variant] = result.max_rel_error
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    report(
        "gradient correctness",
        "max rel errors "
        + ", ".join(f"{v}={e:.2e}" for v, e in worst.items())
        + f"; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Equation fidelity: scalar cell trace frozen from the pre-build oracle


SCALAR_PARAMS = {
    "u.wx_c": 0.5, "u.wh_c": -0.3, "u.b_c": 0.1,
    "u.wx_i": 0.4, "u.wh_i": 0.2, "u.b_i": -0.1,
    "u.wx_f": -0.2, "u.wh_f": 0.5, "u.b_f": 0.3,
    "u.wx_o": 0.7, "u.wh_o": -0.4, "u.b_o": 0.05,
}
SCALAR_TRACE = [
    # (state, hidden) per step for inputs 1.0, -0.5, 0.25
    (0.29907561435529068, 0.20312578671290782),
    (0.095452402164970931, 0.038737006597470217),
    (0.15827989576099513, 0.087399872812396612),
]


def test_equation_fidelity_scalar_trace():
    params = Params([(name, (1, 1) if ".w" in name else (1,)) for name in SCALAR_PARAMS])
    for name, value in SCALAR_PARAMS.items():
        params[name][...] = value
    xs = np.array([[1.0], [-0.5], [0.25]])
    hidden, cache = lstm_forward(params, "u", _gates_in(params, "u", xs))
    for t, (s_exp, h_exp) in enumerate(SCALAR_TRACE):
        assert hidden[t, 0] == pytest.approx(h_exp, rel=1e-12)
        assert cache["state"][t + 1, 0] == pytest.approx(s_exp, rel=1e-12)
    report("equation fidelity", "3-step scalar trace to 12 significant digits")


# ---------------------------------------------------------------------------
# Metric oracle equivalence


def _ref_match(a, b):
    return max(a[0], b[0]) <= min(a[1], b[1])


def _ref_counts(pred, gold):
    tp = sum(1 for p in pred if any(_ref_match(p, g) for g in gold))
    fp = len(pred) - tp
    fn = sum(1 for g in gold if not any(_ref_match(p, g) for p in pred))
    return tp, fp, fn


def test_metric_oracle_equivalence_1000_documents():
    rng = random.Random(20240817)
    started = time.monotonic()
    triples = []
    counts = []
    for _ in range(1000):
        pred_pairs = []
        for _ in range(rng.randint(0, 10)):
            b = rng.randint(0, 58)
            pred_pairs.append((b, rng.randint(b + 1, 60)))
        gold_pairs = []
        cursor = 0
        while cursor < 55 and len(gold_pairs) < 10:
            if rng.random() < 0.5:
                end = rng.randint(cursor + 1, min(cursor + 8, 60))
                gold_pairs.append((cursor, end))
                cursor = end + rng.randint(1, 5)
            else:
                cursor += rng.randint(1, 6)
        predicted = [MentionSpan(b, e) for b, e in pred_pairs]
        gold = [MentionSpan(b, e) for b, e in gold_pairs]
        got = count_document(predicted, gold)
        expected = _ref_counts(pred_pairs, gold_pairs)
        assert (got.tp, got.fp, got.fn) == expected  # exact integer agreement
        counts.append(got)
        triples.append(expected)
    micro = micro_scores(counts)
    tp = sum(t[0] for t in triples)
    fp = sum(t[1] for t in triples)
    fn = sum(t[2] for t in triples)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    assert micro.precision == pytest.approx(prec, abs=1e-12)
    assert micro.recall == pytest.approx(rec, abs=1e-12)
    assert micro.f1 == pytest.approx(f1, abs=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report("metric oracle equivalence", f"1000 documents in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# BIO2 round trip


def _random_aligned_case(rng):
    n_tokens = rng.randint(1, 14)
    tokens = []
    pos = 0
    for _ in range(n_tokens):
        length = rng.randint(1, 7)
        word = "".join(rng.choice("abcdefghij") for _ in range(length))
        tokens.append(Token(word, pos, pos + length))
        pos += length + 1
    sentence = Sentence(tuple(tokens))
    mentions = []
    i = 0
    while i < n_tokens:
        if rng.random() < 0.4:
            span_len = rng.randint(1, min(3, n_tokens - i))
            mentions.append(
                MentionSpan(tokens[i].begin, tokens[i + span_len - 1].end)
            )
            i += span_len
        else:
            i += 1
    return sentence, mentions


def test_bio2_round_trip_10000():
    rng = random.Random(99)
    for _ in range(10000):
        sentence, mentions = _random_aligned_case(rng)
        labels = document_labels([sentence], mentions)[0]
        assert decode_spans(sentence, labels) == mentions
    report("BIO2 round trip", "10000 random aligned mention sets")


# ---------------------------------------------------------------------------
# Encoder robustness


def _random_word(rng):
    return "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(2, 12))
    )


def _encode_words(encoder, *words):
    """The encode_sentence rows of the words, one token each."""
    tokens, pos = [], 0
    for word in words:
        tokens.append(Token(word, pos, pos + len(word)))
        pos += len(word) + 1
    return encode_sentence(encoder, Sentence(tuple(tokens)))


def test_encoder_robustness_10000_pairs():
    rng = random.Random(7)
    pairs = []
    for _ in range(10000):
        word = _random_word(rng)
        pos = rng.randrange(len(word))
        repl = rng.choice("abcdefghijklmnopqrstuvwxyz")
        pairs.append((word, word[:pos] + repl + word[pos + 1 :]))
    all_trigrams = set()
    from seqtag.encoder import extract_trigrams

    for a, b in pairs:
        all_trigrams.update(extract_trigrams(a))
        all_trigrams.update(extract_trigrams(b))
    enc = LexicalEncoder("TRI", all_trigrams)
    n = len(enc.keys)
    for a, b in pairs:
        case_variant = a.upper() if rng.random() < 0.5 else a.capitalize()
        va, vcase, vb = _encode_words(enc, a, case_variant, b)
        assert np.array_equal(va[:n], vcase[:n])  # flags-only difference
        assert int(np.sum(va[:n] != vb[:n])) <= 6  # single-substitution locality
    report("encoder robustness", "case + locality on 10000 pairs")


def test_encoder_unseen_word_zero_vectors():
    dict_enc = LexicalEncoder("DICT", ["alpha", "beta"])
    dict_vec = _encode_words(dict_enc, "gamma")[0]
    assert not dict_vec[: len(dict_enc.keys)].any()
    table = EmbeddingTable(["alpha"], np.ones((1, 4)))
    emb_vec = _encode_words(table, "gamma")[0]
    assert not emb_vec[:4].any()
    report("unseen-word zero vectors", "DICT and EMB")


# ---------------------------------------------------------------------------
# Learning capability


def test_learning_capability_overfit():
    corpus = synthetic_corpus(SynthConfig(n_sentences=50, seed=42))
    sentences = corpus.sentences
    started = time.monotonic()
    model = train(
        sentences,
        "TRI",
        "BLSTM",
        TrainingConfig(epochs=500, seed=3),
    )
    elapsed = time.monotonic() - started
    correct = total = 0
    for sentence in sentences:
        predicted = predict(model, sentence).labels
        correct += sum(p == g for p, g in zip(predicted, sentence.labels))
        total += len(sentence)
    accuracy = correct / total
    assert accuracy >= 0.99, f"train accuracy {accuracy:.4f}"
    assert elapsed < 300.0, f"training took {elapsed:.0f}s"
    report(
        "learning capability",
        f"token accuracy {accuracy:.4f} after 500 epochs in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Ablation direction (compare-configs grid through the CLI)


def test_ablation_direction(tmp_path):
    corpus_path = tmp_path / "ablation.bio"
    assert cli_main(
        [
            "synth", "--sentences", "220", "--seed", "11",
            "--misspell-rate", "0.2", "--mention-density", "0.95",
            "--out", str(corpus_path),
        ]
    ) == 0
    corpus = read_bio_column_file(corpus_path)
    words = sorted({t.text for s in corpus.sentences for t in s.tokens})
    emb_path = tmp_path / "vectors.txt"
    write_embeddings_file(
        emb_path, words, np.random.default_rng(0).normal(size=(len(words), 30))
    )
    grid_path = tmp_path / "grid.json"
    code = cli_main(
        [
            "compare-configs", "--corpus", str(corpus_path),
            "--train-size", "100", "--test-size", "100",
            "--epochs", "140", "--seed", "5",
            "--embeddings", str(emb_path), "--report", str(grid_path),
        ]
    )
    assert code == 0
    grid = {
        (row["encoder"], row["network"]): row
        for row in json.loads(grid_path.read_text())["grid"]
    }
    assert len(grid) == 9
    assert all(row["status"] == "ok" for row in grid.values())
    tri_recall = grid[("TRI", "BLSTM")]["recall"]
    dict_recall = grid[("DICT", "BLSTM")]["recall"]
    blstm_f1 = grid[("TRI", "BLSTM")]["f1"]
    ff_f1 = grid[("TRI", "FF")]["f1"]
    assert tri_recall > dict_recall, (tri_recall, dict_recall)
    assert blstm_f1 >= ff_f1, (blstm_f1, ff_f1)
    report(
        "ablation direction",
        f"TRI recall {tri_recall:.3f} > DICT recall {dict_recall:.3f}; "
        f"BLSTM F1 {blstm_f1:.3f} >= FF F1 {ff_f1:.3f}",
    )


# ---------------------------------------------------------------------------
# Optional, data-gated: reproduction on a user-supplied corpus


@pytest.mark.skipif(
    "SEQTAG_CONLL2003" not in os.environ,
    reason="set SEQTAG_CONLL2003 to a BIO column file (untyped B/I/O labels) "
    "to run the corpus reproduction check",
)
def test_corpus_reproduction_weak_match_f1():
    corpus = read_bio_column_file(os.environ["SEQTAG_CONLL2003"])
    train_sentences, test_sentences = sample_split(corpus, 2000, 2000, seed=0)
    started = time.monotonic()
    model = train(
        train_sentences,
        "TRI",
        "BLSTM",
        TrainingConfig(epochs=100, seed=0),
    )
    elapsed = time.monotonic() - started
    result = evaluate(model, test_sentences, mode="span")
    f1 = result.ner.f1
    assert 0.81 <= f1 <= 0.97, f"weak-match micro-F1 {f1:.4f} outside expected band"
    assert elapsed < 2 * 50 * 60, f"training took {elapsed:.0f}s"
    report(
        "corpus reproduction",
        f"weak-match micro-F1 {f1:.4f} in {elapsed / 60:.0f} min",
    )
