"""Token encoders: one lexical multi-hot code and pretrained embeddings.

Every encoder fills one dense float row per token, with four surface-form
flag slots appended after the lexical part; ``encode_sentence`` fills the
rows of one preallocated sentence matrix.  The lexical encoder turns a
token into vocabulary keys and sets the slot of each known key to 1.  TRI's
keys are the token's letter trigrams (word hashing); DICT's one key is the
lowercased token, so DICT is the one-key case of TRI.  EMB looks up a
pretrained vector instead.  Vocabularies and tables are immutable once built;
encoding is a pure function and safe to use concurrently.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import Sentence

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
    letters = [c for c in token_text if c.isalpha()]
    initial = bool(token_text) and token_text[0].isupper()
    has_upper = any(c.isupper() for c in letters)
    has_lower = any(c.islower() for c in letters)
    if not (has_upper or has_lower):  # no letters, or only caseless ones
        return SurfaceFlags(initial, False, False, False)
    all_upper = not has_lower
    all_lower = not has_upper
    title = initial and not any(c.isupper() for c in letters[1:])
    mixed = has_upper and has_lower and not title
    return SurfaceFlags(initial, all_upper, all_lower, mixed)


def extract_trigrams(token_text: str) -> list[str]:
    """List the letter trigrams of a token.

    The token is lowercased and wrapped in boundary markers, then every
    window of three consecutive characters is emitted in order.
    """
    if not token_text:
        return []
    padded = TRIGRAM_BOUNDARY + token_text.lower() + TRIGRAM_BOUNDARY
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


def _lexical_keys(method: str, token_text: str) -> list[str]:
    """The vocabulary keys of a token: its letter trigrams under TRI, its
    lowercased text under DICT."""
    if method == "TRI":
        return extract_trigrams(token_text)
    return [token_text.lower()]


class Vocabulary:
    """Sorted-set key -> index map: the i-th smallest distinct key gets index i."""

    def __init__(self, keys: Iterable[str]):
        self.keys = sorted(set(keys))
        if not self.keys:
            raise ValueError("empty vocabulary")
        self.index = {k: i for i, k in enumerate(self.keys)}

    @property
    def size(self) -> int:
        return len(self.keys)


class EmbeddingTable:
    """Pretrained word vectors of one fixed dimension; misses yield zeros."""

    def __init__(self, words: list[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(words) != vectors.shape[0]:
            raise ValueError("embedding matrix shape does not match word list")
        self.words = list(words)
        self.vectors = vectors
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def lookup(self, word: str) -> np.ndarray:
        i = self.index.get(word)
        if i is None:
            return np.zeros(self.dim)
        return self.vectors[i]


def load_embeddings(path) -> EmbeddingTable:
    """Load a text embedding file: one "word v1 v2 ... vd" line per word."""
    words: list[str] = []
    rows: list[list[float]] = []
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
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
    return EmbeddingTable(words, np.array(rows, dtype=np.float64))


def write_embeddings_file(path, words: list[str], vectors: np.ndarray) -> None:
    """Write vectors in the text format accepted by load_embeddings."""
    vectors = np.asarray(vectors)
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, vectors):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


class TokenEncoder:
    """Maps a token to a ``dim``-wide vector by filling one zeroed row."""

    dim: int

    def fill_row(self, token_text: str, row: np.ndarray) -> None:
        raise NotImplementedError

    def encode(self, token_text: str) -> np.ndarray:
        row = np.zeros(self.dim)
        self.fill_row(token_text, row)
        return row


class EmbeddingEncoder(TokenEncoder):
    """Pretrained embedding lookup; unseen words map to the zero vector."""

    method = "EMB"

    def __init__(self, table: EmbeddingTable):
        self.table = table

    @property
    def dim(self) -> int:
        return self.table.dim + N_FLAGS

    def fill_row(self, token_text: str, row: np.ndarray) -> None:
        row[: self.table.dim] = self.table.lookup(token_text)
        row[-N_FLAGS:] = surface_flags(token_text)


class LexicalEncoder(TokenEncoder):
    """Multi-hot encoding over a key vocabulary, slot values clipped to {0, 1}.

    A TRI token's keys are its letter trigrams; a DICT token's one key is its
    lowercased text.  Keys unseen at vocabulary-build time are skipped, so a
    novel or misspelled word still lights up every trigram slot it shares
    with the training vocabulary, while under DICT it lights up none.
    """

    def __init__(self, method: str, vocab: Vocabulary):
        self.method = method
        self.vocab = vocab

    @property
    def dim(self) -> int:
        return self.vocab.size + N_FLAGS

    def fill_row(self, token_text: str, row: np.ndarray) -> None:
        for key in _lexical_keys(self.method, token_text):
            i = self.vocab.index.get(key)
            if i is not None:
                row[i] = 1.0
        row[-N_FLAGS:] = surface_flags(token_text)


def build_encoder(
    method: str,
    train_sentences: Iterable[Sentence] | None = None,
    table: EmbeddingTable | None = None,
) -> TokenEncoder:
    """Build the encoder for `method` from training sentences or a table."""
    method = method.upper()
    if method in ("DICT", "TRI"):
        if train_sentences is None:
            raise ValueError(f"{method} encoder needs training sentences")
        texts = (tok.text for sentence in train_sentences for tok in sentence.tokens)
        keys = (key for text in texts for key in _lexical_keys(method, text))
        return LexicalEncoder(method, Vocabulary(keys))
    if method == "EMB":
        if table is None:
            raise ValueError("EMB encoder needs a loaded embedding table")
        return EmbeddingEncoder(table)
    raise ValueError(f"unknown encoder method {method!r}; expected DICT, EMB or TRI")


def encode_sentence(encoder: TokenEncoder, sentence: Sentence) -> np.ndarray:
    """Encode a sentence as a (n_tokens, encoder.dim) float matrix."""
    xs = np.zeros((len(sentence.tokens), encoder.dim))
    for tok, row in zip(sentence.tokens, xs):
        encoder.fill_row(tok.text, row)
    return xs
