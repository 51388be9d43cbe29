"""File writers, fault injectors and reference implementations shared by the tests."""
import numpy as np

import seqtag.network


def write_embeddings_file(path, words: list[str], vectors: np.ndarray) -> None:
    """Write vectors in the text format accepted by load_embeddings."""
    vectors = np.asarray(vectors)
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, vectors):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def corrupt_gradient(monkeypatch, name: str, offset: float) -> None:
    """Negative control: wrap ``backward_bptt`` so that ``offset`` is added to
    the first entry of the analytic gradient of tensor ``name``."""
    exact = seqtag.network.backward_bptt

    def corrupted(*args):
        grads = exact(*args)
        grads[name].flat[0] += offset
        return grads

    monkeypatch.setattr(seqtag.network, "backward_bptt", corrupted)


def ref_bio2(sentence, mentions) -> list[str]:
    """Reference BIO2 projection: every token checked against every mention.

    The tokens a mention overlaps are inside it, and its first such token gets
    B unless an earlier mention already claimed that token.  Overlapping
    mentions raise ValueError.
    """
    ordered = sorted(mentions)
    for n, m in enumerate(ordered):
        if any(o.begin < m.end and m.begin < o.end for o in ordered[n + 1:]):
            raise ValueError("mentions overlap")
    labels = ["O"] * len(sentence.tokens)
    for m in ordered:
        hit = [i for i, t in enumerate(sentence.tokens) if t.begin < m.end and m.begin < t.end]
        if hit and labels[hit[0]] == "O":
            labels[hit[0]] = "B"
        for i in hit[1:]:
            labels[i] = "I"
    return labels
