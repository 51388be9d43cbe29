"""Text ingestion, tokenization, and the document/sentence/token data model.

Mentions are untyped character spans; token labels follow the BIO2 scheme
(every mention starts with B, continues with I, everything else is O).
All types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import json
import random
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

LABELS = ("B", "I", "O")
LABEL_TO_INDEX = {label: i for i, label in enumerate(LABELS)}

# Dotted tokens that do not end a sentence even before an uppercase word.
_ABBREVIATIONS = {
    "dr.", "mr.", "mrs.", "ms.", "prof.", "st.",
    "e.g.", "i.e.", "cf.", "vs.", "fig.", "no.", "u.s.", "u.k.",
}

# A whitespace chunk that ends in a terminal, capturing the first character
# after the whitespace that follows it.  The lookbehind anchors each match at
# a chunk start, so the engine does not retry inside every word.
_SENTENCE_END = re.compile(r"(?<!\S)\S*[.!?](?=\s+(\S))")

# One edge-punctuation character, or a run from a non-edge character to the
# last non-edge character of its whitespace chunk.  Hyphens and slashes are
# not edge punctuation, so forms like "anti-CD15" survive intact.
_EDGE = re.escape(".,;:!?()[]\"'")
_TOKEN = re.compile(rf"[{_EDGE}]|[^\s{_EDGE}](?:\S*[^\s{_EDGE}])?")


@dataclass(frozen=True)
class Token:
    """One token with half-open character offsets into its document text."""

    text: str
    begin: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.begin < self.end:
            raise ValueError(f"invalid token interval [{self.begin}, {self.end})")
        if len(self.text) != self.end - self.begin:
            raise ValueError(
                f"token text {self.text!r} does not span [{self.begin}, {self.end})"
            )


@dataclass(frozen=True)
class Sentence:
    """An ordered run of tokens, optionally carrying gold BIO2 labels."""

    tokens: tuple[Token, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.tokens):
                raise ValueError(
                    f"{len(self.labels)} labels for {len(self.tokens)} tokens"
                )
            for label in self.labels:
                if label not in LABELS:
                    raise ValueError(f"unknown label {label!r}")
        prev_end = -1
        for tok in self.tokens:
            if tok.begin < prev_end:
                raise ValueError("tokens overlap or are out of order")
            prev_end = tok.end

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, order=True)
class MentionSpan:
    """An untyped mention: half-open character interval on one document."""

    begin: int
    end: int
    doc_id: str = field(default="", compare=True)

    def __post_init__(self) -> None:
        if not 0 <= self.begin < self.end:
            raise ValueError(f"invalid mention interval [{self.begin}, {self.end})")


@dataclass(frozen=True)
class Document:
    """Full text plus its sentences and gold mention annotations."""

    doc_id: str
    text: str
    sentences: tuple[Sentence, ...]
    gold_mentions: tuple[MentionSpan, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))
        mentions = tuple(self.gold_mentions)
        if any(b.begin < a.end for a, b in zip(mentions, mentions[1:])):  # not in order and apart
            mentions = tuple(sorted(mentions))
        object.__setattr__(self, "gold_mentions", mentions)
        for sentence in self.sentences:
            for tok in sentence.tokens:
                if tok.end > len(self.text):
                    raise ValueError(
                        f"{self.doc_id}: token at [{tok.begin}, {tok.end}) "
                        f"outside text of length {len(self.text)}"
                    )
                if self.text[tok.begin : tok.end] != tok.text:
                    raise ValueError(
                        f"{self.doc_id}: token text {tok.text!r} does not match "
                        f"document slice {self.text[tok.begin:tok.end]!r}"
                    )
        _check_apart(self.gold_mentions, f"{self.doc_id}: gold mentions")
        for m in self.gold_mentions:
            if m.end > len(self.text):
                raise ValueError(
                    f"{self.doc_id}: mention [{m.begin}, {m.end}) outside "
                    f"text of length {len(self.text)}"
                )


@dataclass(frozen=True)
class Corpus:
    """A set of documents with unique ids."""

    documents: tuple[Document, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        seen: set[str] = set()
        for doc in self.documents:
            if doc.doc_id in seen:
                raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)

    @property
    def sentences(self) -> list[Sentence]:
        return [s for doc in self.documents for s in doc.sentences]


def _check_apart(ordered, what: str) -> None:
    """Raise ValueError if two of the sorted spans overlap; only neighbours can."""
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.begin < prev.end:
            raise ValueError(
                f"{what} overlap: [{prev.begin}, {prev.end}) and "
                f"[{cur.begin}, {cur.end})"
            )


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Split text into half-open (begin, end) sentence intervals.

    A sentence ends after '.', '!' or '?' that closes a whitespace chunk and
    is followed by whitespace and an uppercase character or digit, except
    when the dot closes a known abbreviation or a one-letter initial such as
    "A.".  Intervals are trimmed to the first/last non-whitespace character,
    so together they cover every non-whitespace character of the input.
    Whitespace is what ``str.isspace`` accepts.
    """
    intervals: list[tuple[int, int]] = []
    start = len(text) - len(text.lstrip())
    for m in _SENTENCE_END.finditer(text):
        chunk, following = m.group(), m.group(1)
        if not (following.isupper() or following.isdigit()):
            continue
        if chunk[-1] == "." and (
            chunk.lower() in _ABBREVIATIONS or (len(chunk) == 2 and chunk[0].isalpha())
        ):
            continue
        intervals.append((start, m.end()))
        start = m.start(1)
    end = len(text.rstrip())
    if end > start:
        intervals.append((start, end))
    return intervals


def tokenize(sentence_text: str, sentence_begin: int = 0) -> list[Token]:
    """Tokenize one sentence, producing tokens with absolute offsets.

    Each whitespace chunk yields its leading and trailing edge punctuation
    (any of ``.,;:!?()[]"'``) as single-character tokens and everything from
    its first to its last other character as one token, so in-word hyphens,
    slashes and inner punctuation are preserved.
    """
    return [
        Token(m.group(), sentence_begin + m.start(), sentence_begin + m.end())
        for m in _TOKEN.finditer(sentence_text)
    ]


def _bio2(tokens, ordered) -> list[str]:
    """The labels of a sentence's tokens under the sorted disjoint mentions."""
    labels = ["O"] * len(tokens)
    for mention in ordered:
        hit = [i for i, t in enumerate(tokens) if t.begin < mention.end and mention.begin < t.end]
        if not hit:
            continue
        if labels[hit[0]] == "O":
            labels[hit[0]] = "B"
        for i in hit[1:]:
            labels[i] = "I"
    return labels


def document_labels(sentences, mentions) -> list[list[str]]:
    """Project all of one document's character-span mentions onto each
    sentence's per-token BIO2 labels.

    A token overlapping a mention is inside it; the first overlapping token
    of each mention gets B.  A mention partially covering a token claims the
    whole token.  Overlapping mentions are rejected.  In O(n log n): the
    mentions are sorted and overlap-checked once (no sentence, no check), and
    each sentence gets those touching its tokens by bisection, as the begins
    and ends of disjoint mentions both ascend.
    """
    return _runs_labels([s.tokens for s in sentences], sorted(mentions))


def _runs_labels(runs, ordered) -> list[list[str]]:
    """``document_labels`` of sentences' token runs under sorted mentions."""
    if not runs:
        return []
    _check_apart(ordered, "mentions")
    begins, ends = [m.begin for m in ordered], [m.end for m in ordered]
    spans = [(tokens[0].begin, tokens[-1].end) if tokens else (0, 0) for tokens in runs]
    return [
        _bio2(tokens, ordered[bisect_right(ends, b) : bisect_left(begins, e)])
        for tokens, (b, e) in zip(runs, spans)
    ]


def label_runs(labels) -> list[tuple[int, int]]:
    """Return maximal mention runs as (first, last) token index pairs.

    B starts a run, I extends it, O closes it.  An I with no open run
    (after O or at position 0) starts a new run: lenient decoding keeps
    orphaned inside-labels instead of dropping them.
    """
    runs: list[tuple[int, int]] = []
    for i, label in enumerate(labels):
        if label not in LABELS:
            raise ValueError(f"unknown label {label!r}")
        if label == "I" and runs and runs[-1][1] == i - 1:
            runs[-1] = (runs[-1][0], i)
        elif label != "O":
            runs.append((i, i))
    return runs


def read_bio_column_file(path) -> Corpus:
    """Read a BIO column file into a Corpus.

    Format: UTF-8 (a leading byte order mark is dropped), one
    "token<TAB>label" line per token, a blank or whitespace-only line
    between sentences, a line whose first field is "-DOCSTART-" starting a
    new document.  Empty sentences and documents are dropped.  Document text
    is reconstructed by joining tokens with single spaces; gold mentions are
    recovered by inverting the label sequences.
    """
    docs: list[list[list[tuple[str, str]]]] = [[[]]]
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        fields = line.split("\t")
        if not line.strip():
            docs[-1].append([])
        elif fields[0] == "-DOCSTART-":
            docs.append([[]])
        elif len(fields) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected 'token<TAB>label', got {line!r}"
            )
        elif not fields[0] or fields[0].isspace():
            raise ValueError(f"{path}:{lineno}: empty token field")
        elif fields[1] not in LABELS:
            raise ValueError(f"{path}:{lineno}: unknown label {fields[1]!r}")
        else:
            docs[-1][-1].append((fields[0], fields[1]))
    documents: list[Document] = []
    for sent_rows in docs:
        sent_rows = [rows for rows in sent_rows if rows]
        if sent_rows:
            documents.append(document_from_rows(f"doc{len(documents)}", sent_rows))
    return Corpus(tuple(documents))


def _read_text(path) -> str:
    """A whole UTF-8 text file, a leading byte order mark dropped.

    Line ends are translated as in text-mode iteration (CR LF and a lone CR
    become LF), so callers split lines on LF only: ``str.splitlines`` would
    also break at U+0085, U+2028 and U+001C-U+001E.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def document_from_rows(doc_id: str, sent_rows) -> Document:
    """Build a Document from per-sentence (token, label) rows.

    Text is reconstructed by joining all tokens with single spaces; gold
    mentions are recovered by inverting the label sequences.
    """
    words: list[str] = []
    sentences: list[Sentence] = []
    mentions: list[MentionSpan] = []
    cursor = 0
    for rows in sent_rows:
        tokens: list[Token] = []
        labels: list[str] = []
        for word, label in rows:
            if words:
                cursor += 1  # single joining space
            tokens.append(Token(word, cursor, cursor + len(word)))
            cursor += len(word)
            words.append(word)
            labels.append(label)
        sentence = Sentence(tuple(tokens), tuple(labels))
        sentences.append(sentence)
        for first, last in label_runs(labels):
            mentions.append(
                MentionSpan(tokens[first].begin, tokens[last].end, doc_id)
            )
    return Document(doc_id, " ".join(words), tuple(sentences), tuple(mentions))


def write_bio_column_file(corpus: Corpus, path) -> None:
    """Write a Corpus in the BIO column format read by read_bio_column_file."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            fh.write("-DOCSTART-\tO\n\n")
            unlabeled = [s for s in doc.sentences if s.labels is None]
            projected = iter(document_labels(unlabeled, doc.gold_mentions))
            for sentence in doc.sentences:
                labels = next(projected) if sentence.labels is None else sentence.labels
                for tok, label in zip(sentence.tokens, labels):
                    fh.write(f"{tok.text}\t{label}\n")
                fh.write("\n")


def read_standoff(path) -> Corpus:
    """Read standoff-annotated documents into a Corpus.

    Accepted shapes, in UTF-8 with an optional byte order mark: a JSON array
    of records, one JSON record per line, or an object with a "documents"
    array.  Each record carries {doc_id, text, mentions: [{begin, end}]};
    doc_ids are unique and offsets are half-open character intervals.
    Sentences and tokens are produced by split_sentences/tokenize, and gold
    BIO2 labels are attached by projecting the mentions onto the tokens.
    A blank file is an empty corpus; any error in record i reads ``<path>: record <i>: ...``.
    """
    records = _standoff_records(_read_text(path), path)
    documents: dict[str, Document] = {}
    for index, record in enumerate(records):
        try:
            if not isinstance(record, dict) or not isinstance(record.get("text"), str):
                raise ValueError("expected an object with a string 'text' field")
            text, doc_id = record["text"], record.get("doc_id", f"doc{index}")
            if not isinstance(doc_id, (str, int)) or isinstance(doc_id, bool):
                raise ValueError(f"'doc_id' is not a string or an integer: {json.dumps(doc_id)}")
            doc_id = str(doc_id)
            if doc_id in documents:
                raise ValueError(f"duplicate doc_id {doc_id!r}")
            raw_mentions = record.get("mentions", [])
            if not isinstance(raw_mentions, list):
                raise ValueError("'mentions' is not a list")
            mentions = []
            for m in raw_mentions:
                try:
                    begin, end = _offset(m["begin"]), _offset(m["end"])
                except (KeyError, TypeError, ValueError, OverflowError):
                    raise ValueError(f"mention {m!r} needs integer 'begin' and 'end'") from None
                mentions.append(MentionSpan(begin, end, doc_id))
            runs = [tokenize(text[b:e], b) for b, e in split_sentences(text)]
            mentions.sort()  # once: Document keeps mentions that are in order and apart
            sentences = map(Sentence, runs, _runs_labels(runs, mentions))
            documents[doc_id] = Document(doc_id, text, sentences, mentions)
        except ValueError as exc:
            raise ValueError(f"{path}: record {index}: {exc}") from exc
    return Corpus(tuple(documents.values()))


def _offset(value) -> int:
    """A mention offset: an integer, an integral float or a numeric string.

    ``int()`` alone would truncate 7.99 to 7 and read ``true`` as 1.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer offset: {value!r}")
    return int(value)


def _standoff_records(content: str, path) -> list:
    try:
        obj = json.loads(content.strip())
    except json.JSONDecodeError:
        obj = None
    if obj is not None:
        if isinstance(obj, list):
            return obj
        if isinstance(obj, dict):
            records = obj.get("documents", [obj])
            if not isinstance(records, list):
                raise ValueError(f"{path}: 'documents' is not a list")
            return records
        raise ValueError(f"{path}: expected JSON records, got {type(obj).__name__}")
    # One JSON record per line.
    records = []
    for lineno, line in enumerate(content.split("\n"), 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON record: {exc}") from None
    return records


def sample_split(
    corpus: Corpus, n_train: int, n_test: int, seed: int
) -> tuple[list[Sentence], list[Sentence]]:
    """Draw disjoint random train/test sentence samples without replacement.

    The seed fixes one order of all sentences: train is its first n_train, whatever
    n_test is, and test the next n_test.  Raises if there are fewer than n_train + n_test.
    """
    sentences = corpus.sentences
    if n_train < 0 or n_test < 0:
        raise ValueError("sample sizes must be non-negative")
    if n_train + n_test > len(sentences):
        raise ValueError(
            f"requested {n_train} train + {n_test} test sentences, "
            f"but only {len(sentences)} are available"
        )
    order = random.Random(seed).sample(range(len(sentences)), len(sentences))
    train = [sentences[i] for i in order[:n_train]]
    test = [sentences[i] for i in order[n_train : n_train + n_test]]
    return train, test
