import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqtag.corpus import Sentence, Token
from seqtag.encoder import (
    FLAG_LAYOUT,
    N_FLAGS,
    EmbeddingTable,
    LexicalEncoder,
    SurfaceFlags,
    build_encoder,
    encode_sentence,
    extract_trigrams,
    load_embeddings,
    surface_flags,
)

from helpers import write_embeddings_file


def sentence_of(*words):
    tokens = []
    pos = 0
    for w in words:
        tokens.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return Sentence(tuple(tokens))


def encode_token(encoder, text):
    row = np.zeros(encoder.dim)
    encoder.fill_row(encoder.code(text), row)
    return row


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
        assert encode_token(encoder, word)[-N_FLAGS:].tolist() == flags


def reference_flags(text):
    """The four flags by a plain loop over the characters."""
    has_upper = has_lower = upper_after_first = seen_letter = False
    for c in text:
        if c.isalpha():
            has_upper = has_upper or c.isupper()
            has_lower = has_lower or c.islower()
            upper_after_first = upper_after_first or (seen_letter and c.isupper())
            seen_letter = True
    initial = len(text) > 0 and text[0].isupper()
    if not (has_upper or has_lower):
        return (initial, False, False, False)
    title = initial and not upper_after_first
    return (initial, not has_lower, not has_upper, has_upper and has_lower and not title)


# Titlecase letters (U+01C5), caseless letters, and an uppercase character
# that is no letter (U+216B ROMAN NUMERAL TWELVE).
@given(st.text(max_size=12))
@example("\u01c5emal")
@example("a\u01c5")
@example("\u01c5A")
@example("\u4e2d\u6587")
@example("\u216b")
@example("\u216babc")
@example("\u216bAb")
@example("\u00aab")
@settings(max_examples=500)
def test_surface_flags_match_per_character_reference(text):
    assert tuple(surface_flags(text)) == reference_flags(text)


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
    enc = build_encoder("TRI", [sentence_of("aa")])
    assert sorted(enc.index) == ["#aa", "aa#"]
    assert len(enc.keys) == 2


def test_trigram_vocab_deterministic_and_set_like():
    a = build_encoder("TRI", [sentence_of("ab", "ab")])
    b = build_encoder("TRI", [sentence_of("ab")])
    assert a.index == b.index


def test_trigram_vocab_lexicographic_indices():
    enc = LexicalEncoder("TRI", ["zzz", "aaa", "mmm"])
    assert enc.index == {"aaa": 0, "mmm": 1, "zzz": 2}
    assert enc.keys == ["aaa", "mmm", "zzz"]


def test_trigram_vocab_rejects_empty():
    with pytest.raises(ValueError):
        LexicalEncoder("TRI", [])


# ---------------------------------------------------------------------------
# encoders


def test_tri_encodes_fig_token():
    enc = build_encoder("TRI", [sentence_of("Aspirin")])
    n_keys = len(enc.keys)
    vec = encode_token(enc, "Aspirin")
    assert vec.shape == (n_keys + N_FLAGS,)
    assert vec[:n_keys].sum() == 7  # 7 distinct trigrams
    assert list(vec[n_keys:]) == [1.0, 0.0, 0.0, 0.0]  # initial capital


def test_tri_multi_hot_clipped_to_one():
    enc = build_encoder("TRI", [sentence_of("aaaa")])
    n_keys = len(enc.keys)
    vec = encode_token(enc, "aaaa")
    assert set(vec[:n_keys]) <= {0.0, 1.0}


def test_dict_unseen_word_zero_with_flags():
    enc = build_encoder("DICT", [sentence_of("strengthened", "effect")])
    n_keys = len(enc.keys)
    vec = encode_token(enc, "strengthnend")  # misspelled: not in the vocabulary
    assert not vec[:n_keys].any()
    assert vec[n_keys + 2] == 1.0  # all-lowercase flag survives


def test_dict_is_lowercased_one_hot():
    enc = build_encoder("DICT", [sentence_of("Aspirin")])
    assert encode_token(enc, "aspirin")[enc.index["aspirin"]] == 1.0
    assert encode_token(enc, "ASPIRIN")[enc.index["aspirin"]] == 1.0


def test_emb_missing_word_zero_and_counted():
    enc = EmbeddingTable(["alpha", "beta"], np.arange(6.0).reshape(2, 3))
    vec = encode_token(enc, "gamma")
    assert not vec[:3].any()
    assert list(encode_token(enc, "beta")[:3]) == [3.0, 4.0, 5.0]
    assert not encode_token(enc, "Beta")[:3].any()  # looked up by exact text


def test_build_encoder_validates():
    with pytest.raises(ValueError, match="EMB"):
        build_encoder("EMB")
    with pytest.raises(ValueError, match="unknown encoder"):
        build_encoder("WORD2VEC", [sentence_of("a")])
    table = EmbeddingTable(["a"], np.ones((1, 3)))
    for method in ("TRI", "DICT"):  # only EMB reads a table
        message = f"an embedding table is read only by encoder EMB, not {method}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_encoder(method, [sentence_of("a")], table=table)


def test_encode_sentence_shape_and_empty():
    train = [sentence_of("ab", "Cd", "abc")]
    table = EmbeddingTable(["ab", "cd"], [[0.5, -1.0, 2.25], [3.0, 0.0, -0.125]])
    encoders = [build_encoder("TRI", train), build_encoder("DICT", train),
                build_encoder("EMB", table=table)]
    sentence = sentence_of("ab", "XY", "cd", "x", "Abcd", "ab")
    for enc in encoders:
        mat = encode_sentence(enc, sentence, {})
        assert mat.shape == (6, enc.dim) and mat.dtype == np.float64
        for tok, row in zip(sentence.tokens, mat):
            assert row.tobytes() == encode_token(enc, tok.text).tobytes(), (enc.method, tok.text)
        assert encode_sentence(enc, Sentence(()), {}).shape == (0, enc.dim)


_shared_words = st.text(alphabet="aAbB\u00e9\u01c5\u03a3\u03c3\u4e2d1-.", min_size=1, max_size=4)


@given(
    st.sampled_from(["TRI", "DICT", "EMB"]),
    st.lists(st.lists(_shared_words, max_size=8), max_size=8),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_shared_codes_encode_like_fresh_codes(method, word_lists, seed):
    sentences = [sentence_of(*words) for words in word_lists]
    vocabulary = sorted({w for words in word_lists[::2] for w in words} | {"ab"})
    if method == "EMB":
        vectors = np.random.default_rng(seed).normal(size=(len(vocabulary), 3))
        encoder = build_encoder("EMB", table=EmbeddingTable(vocabulary, vectors))
    else:
        encoder = build_encoder(method, [sentence_of(*vocabulary)])
    codes = {}
    for sentence in sentences:
        shared = encode_sentence(encoder, sentence, codes)
        fresh = encode_sentence(encoder, sentence, {})
        assert shared.shape == fresh.shape == (len(sentence.tokens), encoder.dim)
        assert shared.tobytes() == fresh.tobytes()
    assert set(codes) == {tok.text for sentence in sentences for tok in sentence.tokens}


# ---------------------------------------------------------------------------
# embedding file format


def test_load_embeddings_fixture(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("alpha 1 2 3\nbeta 0.5 -1 2.25\n", encoding="utf-8")
    table = load_embeddings(path)
    assert table.vectors.shape == (2, 3)
    assert len(table.words) == 2
    assert list(encode_token(table, "beta")[:3]) == [0.5, -1.0, 2.25]


def test_load_embeddings_rejects_repeated_word(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("alpha 1 2\nalpha 3 4\nbeta 5 6\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: word 'alpha' appears more than once$"):
        load_embeddings(path)


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
    n_keys = len(enc.keys)
    upper, lower = encode_token(enc, word), encode_token(enc, word.lower())
    assert np.array_equal(upper[:n_keys], lower[:n_keys])


@given(_words.filter(lambda w: len(w) >= 2), st.data())
@settings(max_examples=400)
def test_tri_single_substitution_locality(word, data):
    pos = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
    repl = data.draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz"))
    other = word[:pos] + repl + word[pos + 1 :]
    enc = build_encoder("TRI", [sentence_of(word, other)])
    n_keys = len(enc.keys)
    a, b = encode_token(enc, word), encode_token(enc, other)
    changed = int(np.sum(a[:n_keys] != b[:n_keys]))
    assert changed <= 6  # at most 3 trigrams removed and 3 added


def test_dimension_constant_across_tokens():
    enc = build_encoder("TRI", [sentence_of("alpha", "beta", "Gamma-7")])
    dims = {encode_token(enc, w).shape for w in ["alpha", "UNSEEN", "x", ""]}
    assert dims == {(enc.dim,)}
