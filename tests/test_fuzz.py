"""Bounded fuzz tests of the file readers, the command line and grouped
prediction.

Every generated standoff file, BIO column file, embedding file and
re-checksummed model header must either load or raise ValueError, which the
CLI reports as ``ERROR invalid-input``; any other exception fails the test.
Every generated command line must parse or end in one ``ERROR usage`` line.
Every generated sentence list must predict the same in groups as one
sentence at a time, through ``predict``'s record path.
"""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqtag import cli
from seqtag.corpus import Sentence, Token, read_bio_column_file, read_standoff
from seqtag.encoder import EmbeddingTable, load_embeddings
from seqtag.network import VARIANTS
from seqtag.synth import SynthConfig, synthetic_corpus
from seqtag.tagger import (
    TrainingConfig,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 60)
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=8,
)


def file_content(text_strategy):
    """File content: text from ``text_strategy``, or bytes that need not be UTF-8."""
    return text_strategy | st.binary(max_size=40)


def write(path, content):
    # A new file, not one rewritten in place: replacing the contents of an
    # existing file can wait on the disk for tens of milliseconds.
    path.unlink(missing_ok=True)
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


def loads_or_value_error(read, path):
    try:
        return read(path)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# standoff records

_offsets = st.integers(-2, 45) | json_scalars
_mention = (
    st.fixed_dictionaries({}, optional={"begin": _offsets, "end": _offsets})
    | json_scalars
)
_record = st.fixed_dictionaries(
    {},
    optional={
        "doc_id": json_scalars,
        "text": st.text(alphabet="aB1 .!?-\n'()", max_size=40) | json_values,
        "mentions": st.lists(_mention, max_size=4) | json_values,
    },
) | json_values


@st.composite
def standoff_files(draw):
    records = draw(st.lists(_record, max_size=3))
    layout = draw(st.sampled_from(["array", "lines", "documents", "single"]))
    if layout == "array":
        return json.dumps(records)
    if layout == "lines":
        return "\n".join(json.dumps(r) for r in records)
    if layout == "documents":
        return json.dumps({"documents": draw(st.just(records) | json_values)})
    return json.dumps(records[0] if records else draw(json_values))


@FUZZ
@given(content=standoff_files() | file_content(st.text(max_size=40)))
def test_fuzz_standoff_loads_or_value_error(tmp_path, content):
    path = tmp_path / "corpus.json"
    write(path, content)
    loads_or_value_error(read_standoff, path)


# ---------------------------------------------------------------------------
# BIO column lines

_bio_field = st.sampled_from(["B", "I", "O", "-DOCSTART-", "", "Aspirin"]) | st.text(
    max_size=6
)
_bio_files = st.lists(st.lists(_bio_field, max_size=3).map("\t".join), max_size=12).map(
    "\n".join
)


@FUZZ
@given(content=file_content(_bio_files))
def test_fuzz_bio_lines_load_or_value_error(tmp_path, content):
    path = tmp_path / "corpus.bio"
    write(path, content)
    loads_or_value_error(read_bio_column_file, path)


# ---------------------------------------------------------------------------
# embedding lines

_number = (
    st.floats().map(repr)
    | st.integers().map(str)
    | st.sampled_from(["1e999", "-0", "1_0", "0x1", "nan"])
    | st.text(max_size=4)
)
_embedding_files = st.lists(
    st.tuples(st.text(max_size=5), st.lists(_number, max_size=4)).map(
        lambda row: " ".join([row[0], *row[1]])
    ),
    max_size=6,
).map("\n".join)


@FUZZ
@given(content=file_content(_embedding_files))
def test_fuzz_embedding_lines_load_or_value_error(tmp_path, content):
    path = tmp_path / "vectors.txt"
    write(path, content)
    loads_or_value_error(load_embeddings, path)


# ---------------------------------------------------------------------------
# model headers, re-checksummed after each mutation


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """(header, tensor bytes) of a small saved TRI, DICT and EMB model."""
    sentences = synthetic_corpus(SynthConfig(n_sentences=4, seed=1)).sentences
    words = sorted({tok.text for s in sentences for tok in s.tokens})
    table = EmbeddingTable(words, np.linspace(-1, 1, 3 * len(words)).reshape(-1, 3))
    out = []
    for method in ("TRI", "DICT", "EMB"):
        model = train(
            sentences, method, "FF", TrainingConfig(epochs=1),
            embeddings=table if method == "EMB" else None, dense_size=3, lstm_cells=2,
        )
        path = tmp_path_factory.mktemp("models") / f"{method}.stm"
        save_model(model, path)
        body = path.read_bytes()[:-32]
        header_len = int.from_bytes(body[8:16], "little")
        out.append((json.loads(body[16 : 16 + header_len]), body[16 + header_len :]))
    return out


def _nearby(value):
    """Values a careless edit might leave in place of ``value``."""
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value + 1, value - 1, 0, -value, value * 1000, float(value), str(value)]
    if isinstance(value, float):
        return [value * 2, -value, float("nan"), float("inf"), int(value)]
    if isinstance(value, str):
        return [value.upper(), value + "x", "", value[:-1]]
    if isinstance(value, list):
        return [value[::-1], value[:-1], value + value[-1:], []]
    return [{}, list(value)]


def mutate(data, value):
    """Delete, duplicate or replace one node of a JSON tree."""
    if isinstance(value, dict) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(value)))
        if data.draw(st.booleans()):
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: mutate(data, value[key])}
    if isinstance(value, list) and value and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(value) - 1))
        action = data.draw(st.sampled_from(["descend", "delete", "duplicate"]))
        if action == "delete":
            return value[:i] + value[i + 1 :]
        if action == "duplicate":
            return value[: i + 1] + value[i:]
        return value[:i] + [mutate(data, value[i])] + value[i + 1 :]
    return data.draw(st.sampled_from(_nearby(value)) | json_values)


@FUZZ
@given(data=st.data())
def test_fuzz_model_header_loads_or_value_error(tmp_path, model_files, data):
    header, tensors = data.draw(st.sampled_from(model_files))
    header_bytes = json.dumps(mutate(data, header)).encode("utf-8")
    body = b"SEQTAGM1" + len(header_bytes).to_bytes(8, "little") + header_bytes + tensors
    path = tmp_path / "model.stm"
    path.unlink(missing_ok=True)  # as in write
    path.write_bytes(body + hashlib.sha256(body).digest())
    model = loads_or_value_error(load_model, path)
    if model is not None:
        sentence = Sentence((Token("Aspirin", 0, 7), Token("helps", 8, 13)))
        assert predict(model, sentence).distributions.shape == (2, 3)


# ---------------------------------------------------------------------------
# command lines, with every command stubbed out

_COMMANDS = ["train", "annotate", "evaluate", "compare-configs", "gradcheck", "synth"]
_argv_words = st.sampled_from(
    _COMMANDS
    + [
        "--corpus", "--format", "--seed", "--model", "--report", "--encoder",
        "--network", "--epochs", "--train-size", "--test-size", "--embeddings",
        "--text", "--input", "--out", "--mode", "--tolerance", "--input-dim",
        "--dense-size", "--lstm-cells", "--corruption", "--sentences",
        "--misspell-rate", "--case-mangle-rate", "--mention-density", "--bogus",
    ]
    + ["abc", "-1", "nan", "", "0", "3", "1e-4", "TRI", "FF", "all", "bio", "x.bio"]
)


@FUZZ
@given(
    command=st.sampled_from(_COMMANDS + ["bogus"]) | st.none(),
    words=st.lists(_argv_words, max_size=8),
)
@example(command="gradcheck", words=[])
@example(command="annotate", words=["--model", "x.bio", "--text", "", "--input", "abc"])
def test_fuzz_command_line_parses_or_is_one_usage_line(
    monkeypatch, capsys, command, words
):
    for name in _COMMANDS:
        monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"), lambda args: 0)
    argv = ([command] if command else []) + words
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), argv
    if code == 2:
        assert err.startswith("ERROR usage: ") and len(err.splitlines()) == 1, err
    else:
        assert err == ""


# ---------------------------------------------------------------------------
# grouped prediction


@pytest.fixture(scope="module")
def grouped_models():
    """A small trained model per encoder and network variant.  The training
    sentences end with ``aaaa banana``, so the trigrams those words repeat
    (``aaa``, ``ana``) are in the TRI vocabulary; the EMB table has vectors
    for some words of the pool and none for the others."""
    sentences = synthetic_corpus(SynthConfig(n_sentences=6, seed=2)).sentences
    sentences += (Sentence((Token("aaaa", 0, 4), Token("banana", 5, 11)), ("B", "O")),)
    words = ["Aspirin", "PATIENT", "aaaa", "banana", "helps", "3"]
    table = EmbeddingTable(words, np.random.default_rng(4).normal(size=(len(words), 5)))
    models = {
        (encoder, variant): train(
            sentences, encoder, variant, TrainingConfig(epochs=2, seed=1),
            embeddings=table if encoder == "EMB" else None, dense_size=8, lstm_cells=3,
        )
        for encoder in ("TRI", "DICT", "EMB") for variant in VARIANTS
    }
    assert {"aaa", "ana"} <= set(models["TRI", "FF"].encoder.keys)
    return models


_WORDS = ["Aspirin", "helps", "the", "PATIENT", "ibuprofen", "mAb", "3", "-", "aaaa", "banana"]
_words = st.sampled_from(_WORDS)
# Lengths come from a small pool, so that most lists repeat a length.
_sentence_lists = st.lists(st.integers(0, 12), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(
        st.sampled_from(pool).flatmap(lambda n: st.lists(_words, min_size=n, max_size=n)),
        max_size=10,
    )
)


@FUZZ
@given(encoder=st.sampled_from(["TRI", "DICT", "EMB"]), variant=st.sampled_from(VARIANTS),
       word_lists=_sentence_lists)
@example(encoder="TRI", variant="BLSTM", word_lists=[])
@example(encoder="TRI", variant="BLSTM", word_lists=[[], [], []])
@example(encoder="TRI", variant="LSTM", word_lists=[["Aspirin"]])
@example(encoder="TRI", variant="BLSTM",
         word_lists=[["mAb", "helps"], ["the", "-", "3"], ["3", "mAb"]])
@example(encoder="TRI", variant="FF", word_lists=[["aaaa", "banana"], ["banana", "-", "aaaa"]])
@example(encoder="DICT", variant="BLSTM", word_lists=[["aaaa", "-"], ["mAb"], ["the"]])
@example(encoder="EMB", variant="LSTM", word_lists=[["banana", "the"], ["-", "Aspirin"]])
# One sentence: predict_batch's per-text path against predict's record path.
@example(encoder="TRI", variant="BLSTM", word_lists=[[]])
@example(encoder="TRI", variant="BLSTM", word_lists=[["aaaa", "banana", "mAb", "aaaa", "-"]])
@example(encoder="DICT", variant="FF", word_lists=[["the", "PATIENT", "ibuprofen", "the", "3"]])
@example(encoder="EMB", variant="BLSTM", word_lists=[["Aspirin", "-", "banana", "Aspirin"]])
# One length group of 72 sentences: more lanes than the largest benchmark evaluate group.
@example(encoder="TRI", variant="BLSTM",
         word_lists=[[_WORDS[(i + k * k) % 10] for k in range(i % 3, i % 3 + 7)] for i in range(72)])
def test_fuzz_grouped_prediction_equals_one_sentence_at_a_time(
    grouped_models, encoder, variant, word_lists
):
    model = grouped_models[encoder, variant]
    sentences = [
        Sentence(tuple(Token(w, 10 * i, 10 * i + len(w)) for i, w in enumerate(words)))
        for words in word_lists
    ]
    results = predict_batch(model, sentences)
    assert len(results) == len(sentences)
    for sentence, grouped in zip(sentences, results):
        alone = predict(model, sentence)
        assert grouped.labels == alone.labels
        assert grouped.distributions.shape == (len(sentence.tokens), 3)
        np.testing.assert_allclose(grouped.distributions, alone.distributions, rtol=0, atol=1e-12)
