"""Seeded random-lexicon corpus generator for the train-wide workload.

Every token is a fresh pseudo-word of uniformly random letters, so almost
every token brings new letter trigrams and the trigram vocabulary grows
with the token count: 300 sentences give an input width of about 9k,
where the synthetic generator of the package needs thousands of sentences
for the same width.  Labels follow the BIO2 scheme with mentions of one to
three words.
"""
from __future__ import annotations

import random

LETTERS = "abcdefghijklmnopqrstuvwxyz"
WORD_LENGTH = (4, 10)
SENTENCE_LENGTH = (5, 9)
MENTION_RATE = 0.2
SENTENCES_PER_DOC = 4


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(*WORD_LENGTH)))


def sentence_rows(rng: random.Random) -> list[tuple[str, str]]:
    """One sentence as (token, label) rows."""
    rows: list[tuple[str, str]] = []
    length = rng.randint(*SENTENCE_LENGTH)
    while len(rows) < length:
        if rng.random() < MENTION_RATE:
            n = min(rng.randint(1, 3), length - len(rows))
            rows.extend((_word(rng), "B" if k == 0 else "I") for k in range(n))
        else:
            rows.append((_word(rng), "O"))
    return rows


def bio_text(n_sentences: int, seed: int) -> str:
    """A BIO column file of ``n_sentences`` sentences, four per document."""
    rng = random.Random(seed)
    lines: list[str] = []
    for n in range(n_sentences):
        if n % SENTENCES_PER_DOC == 0:
            lines += ["-DOCSTART-\tO", ""]
        lines += [f"{token}\t{label}" for token, label in sentence_rows(rng)]
        lines.append("")
    return "\n".join(lines) + "\n"
