import hashlib
import json
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.cli import main as cli_main
from seqtag.corpus import LABELS, MentionSpan, Sentence, Token
from seqtag.encoder import EmbeddingTable
from seqtag.synth import SynthConfig, synthetic_corpus
from seqtag import tagger
from seqtag.tagger import (
    TrainingConfig,
    annotate,
    decode_spans,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
)

DATA = pathlib.Path(__file__).parent / "data"


def make_sentence(words, labels=None):
    tokens = []
    pos = 0
    for w in words:
        tokens.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return Sentence(tuple(tokens), tuple(labels) if labels else None)


def test_training_holds_compact_inputs_not_dense_matrices():
    # 60 sentences of 10 random 10-letter words: almost every token brings new
    # trigrams, so the (T, V) matrices of all sentences add up to megabytes,
    # while a record keeps only the few columns its sentence lights.
    rng = np.random.default_rng(5)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    sentences = [
        make_sentence(["".join(rng.choice(letters, 10)) for _ in range(10)], ["B"] + ["O"] * 9)
        for _ in range(60)
    ]
    tracemalloc.start()
    try:
        model = train(sentences, "TRI", "FF", quick_config(epochs=1), dense_size=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense_bytes = sum(len(s.tokens) for s in sentences) * model.config.input_dim * 8
    assert model.config.input_dim > 4000
    assert peak < 0.2 * dense_bytes, (peak, dense_bytes)


@pytest.fixture(scope="module")
def tiny_sentences():
    corpus = synthetic_corpus(SynthConfig(n_sentences=12, seed=3, misspell_rate=0.0))
    return corpus.sentences


def quick_config(epochs=3, seed=0):
    return TrainingConfig(epochs=epochs, seed=seed)


def quick_train(sentences, encoder="TRI", network="BLSTM", epochs=3, seed=0, **kw):
    return train(
        sentences,
        encoder,
        network,
        quick_config(epochs, seed),
        dense_size=12,
        lstm_cells=4,
        **kw,
    )


# ---------------------------------------------------------------------------
# train


def test_train_records_loss_trace(tiny_sentences):
    model = quick_train(tiny_sentences, epochs=4)
    assert len(model.loss_trace) == 4
    assert all(np.isfinite(v) for v in model.loss_trace)


def test_train_rejects_zero_epochs():
    with pytest.raises(ValueError, match="epochs"):
        TrainingConfig(epochs=0)


def test_train_rejects_unlabeled_sentence(tiny_sentences):
    bad = [Sentence(tiny_sentences[0].tokens, None)]
    with pytest.raises(ValueError, match="gold labels"):
        quick_train(bad)


def test_train_rejects_empty_input():
    with pytest.raises(ValueError, match="training sentences"):
        quick_train([])


def test_train_names_the_step_of_a_non_finite_gradient(tiny_sentences):
    # A huge learning rate makes the weights, then a gradient, overflow.
    with np.errstate(all="ignore"), pytest.raises(ValueError) as raised:
        quick_train(tiny_sentences, network="FF", learning_rate=1e300)
    match = re.fullmatch(r"epoch (\d+), sentence (\d+): non-finite gradient in (\S+)",
                         str(raised.value))
    assert match, raised.value
    assert int(match[2]) < len(tiny_sentences)
    assert match[3] in {"dense1.w", "dense1.b", "dense2.w", "dense2.b",
                        "dense3.w", "dense3.b", "out.w", "out.b"}


def test_train_emb_requires_table(tiny_sentences):
    with pytest.raises(ValueError, match="EMB"):
        quick_train(tiny_sentences, encoder="EMB")


def test_train_deterministic(tiny_sentences):
    a = quick_train(tiny_sentences, epochs=3, seed=5)
    b = quick_train(tiny_sentences, epochs=3, seed=5)
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert a.loss_trace == b.loss_trace


def test_train_with_embedding_table(tiny_sentences):
    words = sorted({t.text for s in tiny_sentences for t in s.tokens})
    table = EmbeddingTable(words, np.random.default_rng(0).normal(size=(len(words), 7)))
    model = quick_train(tiny_sentences, encoder="EMB", embeddings=table)
    assert model.encoder.dim == 7 + 4


# ---------------------------------------------------------------------------
# predict


def test_predict_empty_sentence(tiny_sentences):
    model = quick_train(tiny_sentences)
    result = predict(model, Sentence(()))
    assert result.labels == ()
    assert result.distributions.shape == (0, 3)


def test_predict_distributions_sum_to_one(tiny_sentences):
    model = quick_train(tiny_sentences)
    result = predict(model, tiny_sentences[0])
    assert np.allclose(result.distributions.sum(axis=1), 1.0, atol=1e-9)
    assert len(result.labels) == len(tiny_sentences[0].tokens)
    for label, row in zip(result.labels, result.distributions):
        assert label == LABELS[int(np.argmax(row))]


def test_predict_is_pure(tiny_sentences):
    model = quick_train(tiny_sentences)
    s = tiny_sentences[1]
    a, b = predict(model, s), predict(model, s)
    assert a.labels == b.labels
    assert np.array_equal(a.distributions, b.distributions)


def test_grouped_prediction_builds_no_dense_matrix_and_no_record(monkeypatch, tiny_sentences):
    model = quick_train(tiny_sentences)
    alone = [predict(model, s) for s in tiny_sentences]

    def refuse(*args):
        raise AssertionError("a call of two or more sentences built a (T, V) matrix or a record")

    monkeypatch.setattr(tagger, "encode_sentence", refuse)
    monkeypatch.setattr(tagger, "sentence_input", refuse)
    for sentences in (tiny_sentences, tiny_sentences[:2]):
        grouped = predict_batch(model, sentences)
        assert [r.labels for r in grouped] == [r.labels for r in alone[:len(sentences)]]


# ---------------------------------------------------------------------------
# decode_spans


def test_decode_fig_example():
    sentence = make_sentence(["Aspirin", "has", "an", "antiplatelet", "effect", "."])
    spans = decode_spans(sentence, ["B", "O", "O", "B", "I", "O"])
    assert spans == [MentionSpan(0, 7), MentionSpan(15, 34)]


def test_decode_all_outside():
    sentence = make_sentence(["a", "b", "c"])
    assert decode_spans(sentence, ["O", "O", "O"]) == []


def test_decode_orphan_inside_opens_mention():
    sentence = make_sentence(["aa", "bb", "cc"])
    spans = decode_spans(sentence, ["O", "I", "I"])
    assert spans == [MentionSpan(3, 8)]
    # an inside label after O opens a mention of its own
    spans = decode_spans(sentence, ["B", "O", "I"])
    assert spans == [MentionSpan(0, 2), MentionSpan(6, 8)]


def test_decode_length_mismatch():
    with pytest.raises(ValueError):
        decode_spans(make_sentence(["a"]), ["B", "O"])


def test_decode_rejects_an_unknown_label():
    with pytest.raises(ValueError, match="^unknown label 'X'$"):
        decode_spans(make_sentence(["a", "b"]), ["B", "X"])


@given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=14))
@settings(max_examples=300)
def test_decode_spans_ordered_non_overlapping(labels):
    sentence = make_sentence(["tok"] * len(labels))
    spans = decode_spans(sentence, labels)
    for prev, cur in zip(spans, spans[1:]):
        assert prev.end <= cur.begin
    # every B or I token is covered by exactly one span
    covered = sum(s.end - s.begin for s in spans)
    assert covered > 0 or all(l == "O" for l in labels)


# ---------------------------------------------------------------------------
# annotate


def test_annotate_empty_text(tiny_sentences):
    model = quick_train(tiny_sentences)
    assert annotate(model, "") == []


def test_annotate_offsets_within_bounds(tiny_sentences):
    model = quick_train(tiny_sentences)
    text = "Patients received golden syrup. It failed. We retried twice."
    for span in annotate(model, text):
        assert 0 <= span.begin < span.end <= len(text)


# ---------------------------------------------------------------------------
# persistence


@pytest.mark.parametrize("encoder", ["TRI", "DICT", "EMB"])
def test_save_load_round_trip_bit_exact(tmp_path, tiny_sentences, encoder):
    kw = {}
    if encoder == "EMB":
        words = sorted({t.text for s in tiny_sentences for t in s.tokens})
        kw["embeddings"] = EmbeddingTable(
            words, np.random.default_rng(1).normal(size=(len(words), 5))
        )
    model = quick_train(tiny_sentences, encoder=encoder, **kw)
    path = tmp_path / "model.stm"
    save_model(model, path)
    loaded = load_model(path)
    for sentence in tiny_sentences[:4]:
        a, b = predict(model, sentence), predict(loaded, sentence)
        assert a.labels == b.labels
        assert np.array_equal(a.distributions, b.distributions)


@pytest.mark.parametrize("network", ["FF", "LSTM", "BLSTM"])
def test_save_load_resave_byte_identical(tmp_path, tiny_sentences, network):
    model = quick_train(tiny_sentences, network=network, epochs=1)
    saved, resaved = tmp_path / "saved.stm", tmp_path / "resaved.stm"
    save_model(model, saved)
    loaded = load_model(saved)
    save_model(loaded, resaved)
    assert resaved.read_bytes() == saved.read_bytes()
    assert loaded.params.flat.tobytes() == model.params.flat.tobytes()


def test_save_load_preserves_config(tmp_path, tiny_sentences):
    model = quick_train(tiny_sentences)
    path = tmp_path / "model.stm"
    save_model(model, path, meta={"note": "fixture"})
    loaded = load_model(path)
    assert loaded.config == model.config


def test_truncated_file_fails_checksum(tmp_path, tiny_sentences):
    model = quick_train(tiny_sentences)
    path = tmp_path / "model.stm"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="checksum"):
        load_model(path)


def test_corrupted_byte_fails_checksum(tmp_path, tiny_sentences):
    model = quick_train(tiny_sentences)
    path = tmp_path / "model.stm"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="checksum"):
        load_model(path)


def rewrite_header(path, edit):
    """Apply ``edit`` to the model file's JSON header and re-checksum the file."""
    body = path.read_bytes()[:-32]
    header_len = int.from_bytes(body[8:16], "little")
    header = edit(json.loads(body[16 : 16 + header_len]))
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    new_body = (
        body[:8]
        + len(new_header).to_bytes(8, "little")
        + new_header
        + body[16 + header_len :]
    )
    path.write_bytes(new_body + hashlib.sha256(new_body).digest())


def test_version_bump_rejected_explicitly(tmp_path, tiny_sentences):
    model = quick_train(tiny_sentences)
    path = tmp_path / "model.stm"
    save_model(model, path)
    rewrite_header(path, lambda h: {**h, "format_version": 99})
    with pytest.raises(ValueError, match="format_version"):
        load_model(path)


def _swap_shape(header, name):
    for entry in header["tensors"]:
        if entry[0] == name:
            entry[1] = entry[1][::-1]
    return header


def _set(header, section, key, value):
    header[section][key] = value
    return header


CRAFTED_HEADERS = {
    "header not an object": lambda h: [h],
    "boolean format_version": lambda h: {**h, "format_version": True},
    "no network section": lambda h: {k: v for k, v in h.items() if k != "network"},
    "string dense_size": lambda h: _set(h, "network", "dense_size", "12"),
    "boolean lstm_cells": lambda h: _set(h, "network", "lstm_cells", True),
    "unknown variant": lambda h: _set(h, "network", "variant", "GRU"),
    "zero n_classes": lambda h: _set(h, "network", "n_classes", 0),
    "no encoder section": lambda h: {k: v for k, v in h.items() if k != "encoder"},
    "trigrams not strings": lambda h: _set(h, "encoder", "trigrams", [1, 2]),
    "trigrams out of order": lambda h: _set(h, "encoder", "trigrams", h["encoder"]["trigrams"][::-1]),
    "unhashable method": lambda h: _set(h, "encoder", "method", ["TRI"]),
    "swapped tensor shape": lambda h: _swap_shape(h, "fwd.wx_c"),  # [4, 12] -> [12, 4]
    "missing tensor": lambda h: {**h, "tensors": h["tensors"][:-1]},
}


@pytest.mark.parametrize("case", sorted(CRAFTED_HEADERS))
def test_crafted_header_is_invalid_input_naming_the_file(
    tmp_path, tiny_sentences, capsys, case
):
    path = tmp_path / "model.stm"
    save_model(quick_train(tiny_sentences, epochs=1), path)
    rewrite_header(path, CRAFTED_HEADERS[case])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_model(path)
    assert cli_main(["annotate", "--model", str(path), "--text", "Aspirin helps."]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid-input: ") and str(path) in err


def test_train_rejects_embeddings_for_lexical_encoder(tiny_sentences):
    table = EmbeddingTable(["Aspirin"], np.ones((1, 3)))
    with pytest.raises(ValueError, match="read only by encoder EMB, not DICT"):
        train(tiny_sentences, "DICT", "FF", quick_config(epochs=1), embeddings=table)


def test_four_class_model_file_is_invalid_input_naming_the_file(tmp_path, tiny_sentences, capsys):
    # Consistent apart from the class count: the header's manifest matches
    # its network section and the data, and the checksum is recomputed.
    model = quick_train(tiny_sentences, epochs=1)
    path = tmp_path / "model.stm"
    save_model(model, path)
    body = path.read_bytes()[:-32]
    header = json.loads(body[16 : 16 + int.from_bytes(body[8:16], "little")])
    header["network"]["n_classes"] = 4
    data = b""
    for entry in header["tensors"]:
        tensor = model.params[entry[0]]
        if entry[0].startswith("out."):  # one more class row
            tensor = np.concatenate([tensor, np.full((1, *tensor.shape[1:]), 0.5)])
            entry[1] = list(tensor.shape)
        data += np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    new_body = body[:8] + len(new_header).to_bytes(8, "little") + new_header + data
    path.write_bytes(new_body + hashlib.sha256(new_body).digest())
    message = f"{path}: n_classes is 4, expected 3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_model(path)
    assert cli_main(["annotate", "--model", str(path), "--text", "Aspirin helps."]) == 1
    assert capsys.readouterr().err == f"ERROR invalid-input: {message}\n"


def test_emb_header_with_repeated_word_is_invalid_input_naming_the_file(
    tmp_path, tiny_sentences, capsys
):
    words = sorted({t.text for s in tiny_sentences for t in s.tokens})
    table = EmbeddingTable(words, np.random.default_rng(1).normal(size=(len(words), 5)))
    path = tmp_path / "model.stm"
    save_model(quick_train(tiny_sentences, encoder="EMB", epochs=1, embeddings=table), path)
    rewrite_header(path, lambda h: _set(h, "encoder", "words", [words[0], words[0], *words[2:]]))
    message = f"{path}: word {words[0]!r} appears more than once"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_model(path)
    assert cli_main(["annotate", "--model", str(path), "--text", "Aspirin helps."]) == 1
    assert capsys.readouterr().err == f"ERROR invalid-input: {message}\n"


# Model files written by earlier code, each next to the distributions that
# code predicted.  All were trained by
# train(synthetic_corpus(SynthConfig(n_sentences=6, seed=4)).sentences,
# METHOD, NETWORK, TrainingConfig(epochs=3, seed=2), dense_size=8,
# lstm_cells=3) and saved without meta: TRI+BLSTM by the per-tensor
# parameter code, DICT+FF by the code with one vocabulary and encoder class
# per lexical method, and EMB+BLSTM by the code whose EMB encoder wrapped
# its table, with embeddings=EmbeddingTable(words,
# np.random.default_rng(4).normal(size=(len(words), 4))) where words is
# sorted({token texts of the training sentences})[::2].
COMPAT_FIXTURES = ("compat_tri_blstm", "compat_dict_ff", "compat_emb_blstm")


@pytest.mark.parametrize("fixture", COMPAT_FIXTURES)
def test_compat_fixture_predicts_recorded_distributions(fixture):
    recorded = json.loads((DATA / f"{fixture}.json").read_text())
    model = load_model(DATA / recorded["model"])
    for case in recorded["sentences"]:
        result = predict(model, make_sentence(case["words"]))
        expected = np.array(case["distributions"]).reshape(-1, len(LABELS))
        assert result.labels == tuple(LABELS[i] for i in expected.argmax(axis=1))
        # The input layer sums only the active columns, which rounds
        # differently from the full-width product the fixture was written with.
        np.testing.assert_allclose(result.distributions, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("fixture", COMPAT_FIXTURES)
def test_compat_fixture_resaves_byte_identical(tmp_path, fixture):
    original = DATA / f"{fixture}.stm"
    save_model(load_model(original), tmp_path / "resaved.stm")
    assert (tmp_path / "resaved.stm").read_bytes() == original.read_bytes()


def test_load_rejects_non_model_file(tmp_path):
    path = tmp_path / "junk.stm"
    body = b"NOTMODEL" + b"\x00" * 32
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ValueError, match="not a seqtag model"):
        load_model(path)
