"""Seeded synthetic corpus generator for tests and demos.

Stands in for licensed annotated corpora.  Sentences are random filler
words with invented domain-term mentions inserted at random positions, and
every token occurrence can be independently misspelled or case-mangled.
Two properties are built in deliberately:

* misspellings hit filler and mention tokens alike, so a word unknown to a
  closed vocabulary is genuinely ambiguous between mention and filler, and
  only subword structure can separate them;
* mention continuations reuse nouns ("extract", "factor", ...) that also
  occur as ordinary filler, so labeling them needs sentence context rather
  than token identity.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from .corpus import Corpus, Document, document_from_rows

_HEAD_PREFIXES = (
    "zor", "quel", "vex", "myr", "tal", "bren",
    "dex", "cor", "fen", "lum", "gar", "nov",
)
_HEAD_MIDDLES = ("av", "ol", "ar", "ix", "ep", "ud", "an")
_HEAD_SUFFIXES = ("ium", "ase", "idine", "axol", "ene", "ortin")

# Mention continuations that are also ordinary filler words.
_AMBIGUOUS_NOUNS = ("extract", "complex", "factor", "solution", "compound")

_FILLERS = (
    "the", "a", "was", "were", "given", "daily", "after", "before",
    "patients", "received", "dose", "of", "treatment", "with", "study",
    "showed", "results", "trial", "ended", "reported", "observed",
    "stable", "reduced", "strong", "recovery", "morning", "review",
    "protocol", "standard", "mixed", "stored", "recorded", "outcomes",
) + _AMBIGUOUS_NOUNS


@dataclass(frozen=True)
class SynthConfig:
    """Generation knobs; every draw derives from the seed."""

    n_sentences: int = 200
    seed: int = 0
    misspell_rate: float = 0.2
    case_mangle_rate: float = 0.1
    mention_density: float = 0.9
    sentences_per_doc: ClassVar[int] = 4
    n_entities: ClassVar[int] = 12

    def __post_init__(self) -> None:
        if self.n_sentences < 1:
            raise ValueError("n_sentences must be >= 1")
        for name in ("misspell_rate", "case_mangle_rate", "mention_density"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")


def _entity_lexicon(rng: random.Random, n: int) -> list[tuple[str, ...]]:
    heads: set[str] = set()
    while len(heads) < n:
        heads.add(
            rng.choice(_HEAD_PREFIXES)
            + rng.choice(_HEAD_MIDDLES)
            + rng.choice(_HEAD_SUFFIXES)
        )
    lexicon: list[tuple[str, ...]] = []
    for head in sorted(heads):
        r = rng.random()
        if r < 0.40:
            lexicon.append((head,))
        elif r < 0.85:
            lexicon.append((head, rng.choice(_AMBIGUOUS_NOUNS)))
        else:
            pair = rng.sample(_AMBIGUOUS_NOUNS, 2)
            lexicon.append((head, pair[0], pair[1]))
    return lexicon


def _misspell(word: str, rng: random.Random) -> str:
    if len(word) < 3:
        return word
    pos = rng.randrange(1, len(word) - 1)
    alternatives = [c for c in "abcdefghijklmnopqrstuvwxyz" if c != word[pos]]
    return word[:pos] + rng.choice(alternatives) + word[pos + 1 :]


def _mangle_case(word: str, rng: random.Random) -> str:
    style = rng.random()
    if style < 0.5:
        return word.upper()
    if style < 0.8:
        return word.capitalize()
    return word.lower()


def _render(word: str, config: SynthConfig, rng: random.Random) -> str:
    if rng.random() < config.misspell_rate:
        word = _misspell(word, rng)
    if rng.random() < config.case_mangle_rate:
        word = _mangle_case(word, rng)
    return word


def _sentence_rows(lexicon, config, rng) -> list[tuple[str, str]]:
    n_mentions = 0
    if rng.random() < config.mention_density:
        n_mentions = 2 if rng.random() < 0.4 else 1
    n_fillers = rng.randint(3, 6)
    slots = ["F"] * n_fillers
    for _ in range(n_mentions):
        slots.insert(rng.randint(0, len(slots)), "M")
    rows: list[tuple[str, str]] = []
    for slot in slots:
        if slot == "F":
            rows.append((_render(rng.choice(_FILLERS), config, rng), "O"))
        else:
            for k, word in enumerate(rng.choice(lexicon)):
                rows.append((_render(word, config, rng), "B" if k == 0 else "I"))
    return rows


def synthetic_corpus(config: SynthConfig) -> Corpus:
    """Generate a labeled corpus; identical configs yield identical corpora."""
    rng = random.Random(config.seed)
    lexicon = _entity_lexicon(rng, config.n_entities)
    documents: list[Document] = []
    sent_rows = [
        _sentence_rows(lexicon, config, rng) for _ in range(config.n_sentences)
    ]
    for start in range(0, len(sent_rows), config.sentences_per_doc):
        chunk = sent_rows[start : start + config.sentences_per_doc]
        documents.append(document_from_rows(f"synth{len(documents)}", chunk))
    return Corpus(tuple(documents))
