"""seqtag: robust neural mention detection and BIO2 sequence labeling.

Letter-trigram word hashing with surface-form flags feeds a stacked
bidirectional LSTM trained from scratch with full-sentence BPTT; spans are
scored with weak-match micro precision/recall/F1 and macro BIO2 metrics.
"""
from .corpus import (
    Corpus,
    Document,
    MentionSpan,
    Sentence,
    Token,
    read_bio_column_file,
    read_standoff,
    sample_split,
    split_sentences,
    tokenize,
)
from .encoder import (
    EmbeddingTable,
    build_encoder,
    extract_trigrams,
    load_embeddings,
    surface_flags,
)
from .evaluation import (
    count_document,
    evaluate,
    macro_bio,
    micro_scores,
)
from .network import NetworkConfig, gradient_check
from .synth import SynthConfig, synthetic_corpus
from .tagger import (
    TaggerModel,
    TrainingConfig,
    annotate,
    decode_spans,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "Document",
    "EmbeddingTable",
    "MentionSpan",
    "NetworkConfig",
    "Sentence",
    "SynthConfig",
    "TaggerModel",
    "Token",
    "TrainingConfig",
    "annotate",
    "build_encoder",
    "count_document",
    "decode_spans",
    "evaluate",
    "extract_trigrams",
    "gradient_check",
    "load_embeddings",
    "load_model",
    "macro_bio",
    "micro_scores",
    "predict",
    "predict_batch",
    "read_bio_column_file",
    "read_standoff",
    "sample_split",
    "save_model",
    "split_sentences",
    "surface_flags",
    "synthetic_corpus",
    "tokenize",
    "train",
]
