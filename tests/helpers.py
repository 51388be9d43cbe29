"""File writers shared by the tests."""
import numpy as np


def write_embeddings_file(path, words: list[str], vectors: np.ndarray) -> None:
    """Write vectors in the text format accepted by load_embeddings."""
    vectors = np.asarray(vectors)
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, vectors):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")
