import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.corpus import Sentence, Token
from seqtag.encoder import (
    FLAG_LAYOUT,
    N_FLAGS,
    EmbeddingEncoder,
    EmbeddingTable,
    SurfaceFlags,
    Vocabulary,
    build_encoder,
    encode_sentence,
    extract_trigrams,
    load_embeddings,
    surface_flags,
    write_embeddings_file,
)


def sentence_of(*words):
    tokens = []
    pos = 0
    for w in words:
        tokens.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return Sentence(tuple(tokens))


def flags_tuple(text):
    f = surface_flags(text)
    return (f.initial_capital, f.all_uppercase, f.all_lowercase, f.mixed_case)


# ---------------------------------------------------------------------------
# surface flags


def test_flags_title_case_sets_only_initial_capital():
    assert flags_tuple("Aspirin") == (True, False, False, False)


def test_flags_uppercase_ignores_digits():
    assert flags_tuple("CD15") == (True, True, False, False)


def test_flags_no_letters():
    assert flags_tuple(".") == (False, False, False, False)
    assert flags_tuple("1234") == (False, False, False, False)


def test_flags_lowercase():
    assert flags_tuple("aspirin") == (False, False, True, False)


def test_flags_mixed_case():
    assert flags_tuple("anti-CD15") == (False, False, False, True)
    assert flags_tuple("McDonald") == (True, False, False, True)


def test_flags_single_uppercase_letter():
    assert flags_tuple("A") == (True, True, False, False)


def test_flag_slots_hold_surface_flags_in_layout_order():
    assert SurfaceFlags._fields == FLAG_LAYOUT
    words = ("McDonald", "CD15", "aspirin", ".")
    encoder = build_encoder("TRI", [sentence_of(*words)])
    for word in words:
        flags = [float(bit) for bit in surface_flags(word)]
        assert encoder.encode(word)[-N_FLAGS:].tolist() == flags


@given(st.text(max_size=12))
@settings(max_examples=300)
def test_flags_case_classes_mutually_exclusive(text):
    f = surface_flags(text)
    assert sum([f.all_uppercase, f.all_lowercase, f.mixed_case]) <= 1
    if not any(c.isalpha() for c in text):
        assert not (f.all_uppercase or f.all_lowercase or f.mixed_case)


# ---------------------------------------------------------------------------
# trigrams


def test_trigrams_fig_token():
    assert extract_trigrams("Aspirin") == [
        "#as", "asp", "spi", "pir", "iri", "rin", "in#",
    ]


def test_trigrams_single_char():
    assert extract_trigrams("a") == ["#a#"]


def test_trigrams_lowercase_with_digits():
    assert extract_trigrams("CD15") == ["#cd", "cd1", "d15", "15#"]


def test_trigrams_empty_token():
    assert extract_trigrams("") == []


def test_trigram_vocab_enumeration():
    vocab = build_encoder("TRI", [sentence_of("aa")]).vocab
    assert sorted(vocab.index) == ["#aa", "aa#"]
    assert vocab.size == 2


def test_trigram_vocab_deterministic_and_set_like():
    a = build_encoder("TRI", [sentence_of("ab", "ab")]).vocab
    b = build_encoder("TRI", [sentence_of("ab")]).vocab
    assert a.index == b.index


def test_trigram_vocab_lexicographic_indices():
    vocab = Vocabulary(["zzz", "aaa", "mmm"])
    assert vocab.index == {"aaa": 0, "mmm": 1, "zzz": 2}
    assert vocab.keys == ["aaa", "mmm", "zzz"]


def test_trigram_vocab_rejects_empty():
    with pytest.raises(ValueError):
        Vocabulary([])


# ---------------------------------------------------------------------------
# encoders


def test_tri_encodes_fig_token():
    enc = build_encoder("TRI", [sentence_of("Aspirin")])
    vocab = enc.vocab
    vec = enc.encode("Aspirin")
    assert vec.shape == (vocab.size + N_FLAGS,)
    assert vec[: vocab.size].sum() == 7  # 7 distinct trigrams
    assert list(vec[vocab.size :]) == [1.0, 0.0, 0.0, 0.0]  # initial capital


def test_tri_multi_hot_clipped_to_one():
    enc = build_encoder("TRI", [sentence_of("aaaa")])
    vocab = enc.vocab
    vec = enc.encode("aaaa")
    assert set(vec[: vocab.size]) <= {0.0, 1.0}


def test_dict_unseen_word_zero_with_flags():
    enc = build_encoder("DICT", [sentence_of("strengthened", "effect")])
    vocab = enc.vocab
    vec = enc.encode("strengthnend")  # misspelled: not in the vocabulary
    assert not vec[: vocab.size].any()
    assert vec[vocab.size + 2] == 1.0  # all-lowercase flag survives


def test_dict_is_lowercased_one_hot():
    enc = build_encoder("DICT", [sentence_of("Aspirin")])
    vocab = enc.vocab
    assert enc.encode("aspirin")[vocab.index["aspirin"]] == 1.0
    assert enc.encode("ASPIRIN")[vocab.index["aspirin"]] == 1.0


def test_emb_missing_word_zero_and_counted():
    table = EmbeddingTable(["alpha", "beta"], np.arange(6.0).reshape(2, 3))
    enc = EmbeddingEncoder(table)
    vec = enc.encode("gamma")
    assert not vec[:3].any()
    assert list(enc.encode("beta")[:3]) == [3.0, 4.0, 5.0]


def test_build_encoder_validates():
    with pytest.raises(ValueError, match="EMB"):
        build_encoder("EMB")
    with pytest.raises(ValueError, match="unknown encoder"):
        build_encoder("WORD2VEC", [sentence_of("a")])


def test_encode_sentence_shape_and_empty():
    train = [sentence_of("ab", "Cd", "abc")]
    table = EmbeddingTable(["ab", "cd"], [[0.5, -1.0, 2.25], [3.0, 0.0, -0.125]])
    encoders = [build_encoder("TRI", train), build_encoder("DICT", train),
                build_encoder("EMB", table=table)]
    sentence = sentence_of("ab", "XY", "cd", "x", "Abcd", "ab")
    for enc in encoders:
        mat = encode_sentence(enc, sentence)
        assert mat.shape == (6, enc.dim) and mat.dtype == np.float64
        for tok, row in zip(sentence.tokens, mat):
            assert row.tobytes() == enc.encode(tok.text).tobytes(), (enc.method, tok.text)
        assert encode_sentence(enc, Sentence(())).shape == (0, enc.dim)


# ---------------------------------------------------------------------------
# embedding file format


def test_load_embeddings_fixture(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("alpha 1 2 3\nbeta 0.5 -1 2.25\n", encoding="utf-8")
    table = load_embeddings(path)
    assert table.dim == 3
    assert len(table.words) == 2
    assert list(table.lookup("beta")) == [0.5, -1.0, 2.25]


def test_load_embeddings_dimension_error_names_line(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("alpha 1 2 3\nbeta 1 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2"):
        load_embeddings(path)


@pytest.mark.parametrize("component", ["nan", "inf", "-Infinity", "1e999"])
def test_load_embeddings_rejects_non_finite_component(tmp_path, component):
    path = tmp_path / "vecs.txt"
    path.write_text(f"alpha 1 2\nbeta 3 {component}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: non-finite vector component$"):
        load_embeddings(path)


def test_load_embeddings_empty_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no vectors"):
        load_embeddings(path)


def test_embeddings_write_read_round_trip(tmp_path):
    path = tmp_path / "vecs.txt"
    vectors = np.array([[0.125, -3.5], [7.0, 0.0625]])
    write_embeddings_file(path, ["one", "two"], vectors)
    table = load_embeddings(path)
    assert np.array_equal(table.vectors, vectors)


# ---------------------------------------------------------------------------
# robustness properties

_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)


@given(_words.map(lambda w: w.capitalize()) | _words.map(str.upper) | _words)
@settings(max_examples=400)
def test_tri_case_robustness(word):
    enc = build_encoder("TRI", [sentence_of(word.lower())])
    vocab = enc.vocab
    upper, lower = enc.encode(word), enc.encode(word.lower())
    assert np.array_equal(upper[: vocab.size], lower[: vocab.size])


@given(_words.filter(lambda w: len(w) >= 2), st.data())
@settings(max_examples=400)
def test_tri_single_substitution_locality(word, data):
    pos = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
    repl = data.draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz"))
    other = word[:pos] + repl + word[pos + 1 :]
    enc = build_encoder("TRI", [sentence_of(word, other)])
    vocab = enc.vocab
    a, b = enc.encode(word), enc.encode(other)
    changed = int(np.sum(a[: vocab.size] != b[: vocab.size]))
    assert changed <= 6  # at most 3 trigrams removed and 3 added


def test_dimension_constant_across_tokens():
    enc = build_encoder("TRI", [sentence_of("alpha", "beta", "Gamma-7")])
    dims = {enc.encode(w).shape for w in ["alpha", "UNSEEN", "x", ""]}
    assert dims == {(enc.dim,)}
