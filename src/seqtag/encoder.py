"""Token encoders: one lexical multi-hot code and pretrained embeddings.

Every encoder turns a token's text into a code, a pure function of the text
that holds its surface flags.  ``nonzeros`` lists the distinct slots of a
token's row that a code sets, and their values, the four flag slots
(``flag_slots``) after the lexical part; it is the one place the row layout
lives.  ``encode_sentence`` fills a sentence matrix from it and from a dict of
codes shared across a ``train`` call, so each distinct text is encoded once.
The lexical encoder's vocabulary is the sorted set of the keys it is built
from, key i owning slot i; a code holds the sorted distinct slots of the
token's known keys, so a repeated trigram sets its slot once.  TRI's keys are
the token's letter trigrams (word hashing); DICT's one key is the lowercased
token, so DICT is the one-key case of TRI.  EMB is its embedding table, looked
up by the token's exact text.  Encoders are immutable.
"""
from __future__ import annotations

import math
from itertools import chain, compress
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import Sentence, _read_text

ENCODER_METHODS = ("DICT", "EMB", "TRI")

# Canonical persistence order of the flag slots.
FLAG_LAYOUT = ("initial_capital", "all_uppercase", "all_lowercase", "mixed_case")
N_FLAGS = len(FLAG_LAYOUT)

TRIGRAM_BOUNDARY = "#"


class SurfaceFlags(NamedTuple):
    """Capitalization pattern of a token, in ``FLAG_LAYOUT`` order, so an
    encoder writes it straight into a row's flag slots.

    The three case-class bits are mutually exclusive and judged over
    alphabetic characters only; a token whose sole uppercase letter is its
    first character counts as initial-capital, not mixed-case.  Tokens
    without letters set none of the case bits.
    """

    initial_capital: bool
    all_uppercase: bool
    all_lowercase: bool
    mixed_case: bool


def surface_flags(token_text: str) -> SurfaceFlags:
    """Compute the four surface-form flags for one token."""
    letters = list(filter(str.isalpha, token_text))
    initial = bool(token_text) and token_text[0].isupper()
    has_upper = any(map(str.isupper, letters))
    has_lower = any(map(str.islower, letters))
    if not (has_upper or has_lower):  # no letters, or only caseless ones
        return SurfaceFlags(initial, False, False, False)
    all_upper = not has_lower
    all_lower = not has_upper
    title = initial and not any(map(str.isupper, letters[1:]))
    mixed = has_upper and has_lower and not title
    return SurfaceFlags(initial, all_upper, all_lower, mixed)


def extract_trigrams(token_text: str) -> list[str]:
    """List the letter trigrams of a token.

    The token is lowercased and wrapped in boundary markers, then every
    window of three consecutive characters is emitted in order.
    """
    padded = TRIGRAM_BOUNDARY + token_text.lower() + TRIGRAM_BOUNDARY
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


def _lexical_keys(method: str, token_text: str) -> list[str]:
    """The vocabulary keys of a token: its letter trigrams under TRI, its
    lowercased text under DICT."""
    if method == "TRI":
        return extract_trigrams(token_text)
    return [token_text.lower()]


class EmbeddingTable:
    """The EMB encoder: pretrained vectors of distinct words, one fixed width.
    A token fills its row with the vector of the word that is exactly its
    text; a token matching no word leaves the vector slots zero."""

    method = "EMB"

    def __init__(self, words: list[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(words) != vectors.shape[0]:
            raise ValueError("embedding matrix shape does not match word list")
        self.words = list(words)
        self.vectors = vectors
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) < len(self.words):  # the index kept a repeat's last row
            word = next(w for i, w in enumerate(self.words) if self.index[w] != i)
            raise ValueError(f"word {word!r} appears more than once")
        self.dim = vectors.shape[1] + N_FLAGS
        self.flag_slots = range(vectors.shape[1], self.dim)

    def code(self, token_text: str) -> tuple[int | None, SurfaceFlags]:
        return self.index.get(token_text), surface_flags(token_text)

    def nonzeros(self, code: tuple[int | None, SurfaceFlags]) -> tuple[list, list]:
        vector = [] if code[0] is None else self.vectors[code[0]].tolist()
        lit = [*compress(self.flag_slots, code[1])]
        return [*range(len(vector)), *lit], vector + [1.0] * len(lit)


def load_embeddings(path) -> EmbeddingTable:
    """Load a text embedding file: one "word v1 v2 ... vd" line per word."""
    words: list[str] = []
    rows: list[list[float]] = []
    dim: int | None = None
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ValueError(f"{path}:{lineno}: expected 'word v1 ... vd'")
        word, values = fields[0], fields[1:]
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ValueError(
                f"{path}:{lineno}: vector of dimension {len(values)}, "
                f"expected {dim}"
            )
        try:
            row = [float(v) for v in values]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric vector component")
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: non-finite vector component")
        rows.append(row)
        words.append(word)
    if not words:
        raise ValueError(f"{path}: no vectors")
    try:
        return EmbeddingTable(words, np.array(rows, dtype=np.float64))
    except ValueError as exc:  # a repeated word
        raise ValueError(f"{path}: {exc}") from exc


class LexicalEncoder:
    """Multi-hot encoding over a key vocabulary, slot values clipped to {0, 1}.

    The vocabulary is the sorted set of the given keys: the i-th smallest
    distinct key owns slot i.  A TRI token's keys are its letter trigrams; a
    DICT token's one key is its lowercased text.  Keys outside the
    vocabulary are skipped, so a novel or misspelled word still lights up
    every trigram slot it shares with the training vocabulary, while under
    DICT it lights up none.
    """

    def __init__(self, method: str, keys: Iterable[str]):
        self.method = method
        self.keys = sorted(dict.fromkeys(keys))  # linear on already sorted keys
        if not self.keys:
            raise ValueError("empty vocabulary")
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.dim = len(self.keys) + N_FLAGS
        self.flag_slots = range(len(self.keys), self.dim)

    def code(self, token_text: str) -> tuple[tuple[int, ...], SurfaceFlags]:
        """The sorted distinct slots of the token's known keys, as a tuple of
        ints that the garbage collector stops tracking, and the token's flags."""
        keys, index = _lexical_keys(self.method, token_text), self.index
        return tuple(sorted({index[k] for k in keys if k in index})), surface_flags(token_text)

    def nonzeros(self, code: tuple[tuple[int, ...], SurfaceFlags]) -> tuple[list, list]:
        lit = [*code[0], *compress(self.flag_slots, code[1])]
        return lit, [1.0] * len(lit)


# What a model encodes its tokens with: both have ``code`` and ``nonzeros``.
TokenEncoder = LexicalEncoder | EmbeddingTable


def build_encoder(
    method: str,
    train_sentences: Iterable[Sentence] | None = None,
    table: EmbeddingTable | None = None,
) -> TokenEncoder:
    """Build the encoder for `method`: DICT/TRI from training sentences, EMB from a table."""
    method = method.upper()
    if method in ("DICT", "TRI"):
        if table is not None:
            raise ValueError(f"an embedding table is read only by encoder EMB, not {method}")
        if train_sentences is None:
            raise ValueError(f"{method} encoder needs training sentences")
        texts = (tok.text for sentence in train_sentences for tok in sentence.tokens)
        keys = (key for text in texts for key in _lexical_keys(method, text))
        return LexicalEncoder(method, keys)
    if method == "EMB":
        if table is None:
            raise ValueError("EMB encoder needs a loaded embedding table")
        return table
    raise ValueError(f"unknown encoder method {method!r}; expected DICT, EMB or TRI")


def encode_sentence(encoder: TokenEncoder, sentence: Sentence, codes: dict) -> np.ndarray:
    """Encode a sentence as a (n_tokens, encoder.dim) matrix, adding new texts to ``codes``."""
    entries = []
    for tok in sentence.tokens:
        if (code := codes.get(tok.text)) is None:
            code = codes[tok.text] = encoder.code(tok.text)
        entries.append(encoder.nonzeros(code))
    xs = np.zeros((len(entries), encoder.dim))
    if entries:  # every token's non-zeros, written in one step
        slots, values = zip(*entries)
        rows = np.repeat(np.arange(len(entries)), [*map(len, slots)])
        xs[rows, np.fromiter(chain(*slots), np.intp)] = np.fromiter(chain(*values), np.float64)
    return xs
