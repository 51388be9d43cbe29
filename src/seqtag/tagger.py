"""Model lifecycle: training with one plain-SGD step per sentence,
prediction, BIO2 span decoding, and self-contained binary persistence."""
from __future__ import annotations

import hashlib
import json
import logging
import math
import random
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import LABELS, LABEL_TO_INDEX, MentionSpan, Sentence, label_runs
from .corpus import split_sentences, tokenize
from .encoder import (
    ENCODER_METHODS,
    FLAG_LAYOUT,
    EmbeddingTable,
    LexicalEncoder,
    TokenEncoder,
    build_encoder,
    encode_sentence,
)
from .network import (
    NetworkConfig,
    Params,
    backward_bptt,
    forward,
    forward_batch,
    init_params,
    loss,
    param_spec,
    sentence_input,
    sgd_step,
    text_input_layer,
    zero_gradients,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1
_MAGIC = b"SEQTAGM1"


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of one training run; the seed drives init and shuffling."""

    epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class PredictionResult:
    """Per-token argmax labels and the underlying class distributions."""

    labels: tuple[str, ...]
    distributions: np.ndarray


@dataclass
class TaggerModel:
    """A trained tagger: encoder, network configuration and weights."""

    encoder: TokenEncoder
    config: NetworkConfig
    params: Params
    loss_trace: list[float] = field(default_factory=list, repr=False)


def train(
    train_sentences,
    encoder_method: str = "TRI",
    network_variant: str = "BLSTM",
    training: TrainingConfig | None = None,
    *,
    embeddings: EmbeddingTable | None = None,
    dense_size: int = 150,
    lstm_cells: int = 20,
    learning_rate: float = 0.005,
) -> TaggerModel:
    """Train a tagger from labeled sentences.

    Builds the encoder vocabulary from the training sentences (DICT/TRI) or
    encodes with the given embedding table (EMB), then runs ``epochs``
    passes of per-sentence forward / BPTT / SGD updates, logging every 10th
    epoch.  Fully deterministic for a fixed (seed, data, configuration).
    The per-epoch mean loss trace is recorded on the returned model.
    """
    training = training or TrainingConfig()
    sentences = [s for s in train_sentences if len(s.tokens) > 0]
    if not sentences:
        raise ValueError("no non-empty training sentences")
    for n, sentence in enumerate(sentences):
        if sentence.labels is None:
            raise ValueError(f"training sentence {n} has no gold labels")

    encoder = build_encoder(encoder_method, sentences, table=embeddings)
    config = NetworkConfig(
        variant=network_variant.upper(),
        input_dim=encoder.dim,
        dense_size=dense_size,
        lstm_cells=lstm_cells,
        learning_rate=learning_rate,
    )
    params = init_params(config, training.seed)
    grads = zero_gradients(config)

    # One dense (T, input_dim) matrix is alive at a time: each becomes a record.
    codes: dict = {}  # shared by every sentence, so each distinct text is encoded once
    inputs = [sentence_input(encode_sentence(encoder, s, codes)) for s in sentences]
    golds = [
        np.array([LABEL_TO_INDEX[lab] for lab in s.labels], dtype=np.int64)
        for s in sentences
    ]

    order = list(range(len(sentences)))
    rng = random.Random(training.seed)
    trace: list[float] = []
    started = time.monotonic()
    for epoch in range(training.epochs):
        rng.shuffle(order)
        total = 0.0
        for n in order:
            ys, cache = forward(inputs[n], config, params)
            total += loss(ys, golds[n])
            backward_bptt(cache, golds[n], config, params, grads)
            try:
                sgd_step(params, grads, config.learning_rate)
            except ValueError as exc:
                raise ValueError(
                    f"epoch {epoch}, sentence {n}: {exc}"
                ) from exc
        trace.append(total / len(sentences))
        if (epoch + 1) % 10 == 0:
            logger.info(
                "epoch %d/%d: mean loss %.6f (%.1fs)",
                epoch + 1,
                training.epochs,
                trace[-1],
                time.monotonic() - started,
            )
    return TaggerModel(encoder, config, params, loss_trace=trace)


def predict(model: TaggerModel, sentence: Sentence) -> PredictionResult:
    """Predict one sentence: the one-sentence case of ``predict_batch``."""
    return predict_batch(model, [sentence])[0]


def predict_batch(model: TaggerModel, sentences: list) -> list[PredictionResult]:
    """Pure per-token distributions and argmax labels, in input order; the sentences
    of one token count run as one batch.  Argmax ties go to the first of B < I < O."""
    config, params, encoder = model.config, model.params, model.encoder
    groups: dict[int, list[int]] = {}
    for n, sentence in enumerate(sentences):
        groups.setdefault(len(sentence.tokens), []).append(n)
    if len(sentences) == 1:  # the path benchmark/tests/test_tracer.py pins (ROADMAP item 1)
        record = sentence_input(encode_sentence(encoder, sentences[0], {}))
        batches = [forward(record, config, params)[0][:, None]]
    else:  # the input layer runs once per distinct text; h[row[text]] is its output
        texts = dict.fromkeys(tok.text for sentence in sentences for tok in sentence.tokens)
        h = text_input_layer([encoder.nonzeros(encoder.code(t)) for t in texts], config, params)
        row = {text: u for u, text in enumerate(texts)}
        ids = ([[row[t.text] for t in sentences[n].tokens] for n in ns] for ns in groups.values())
        batches = (forward_batch(h[np.array(i, dtype=np.intp).T], config, params) for i in ids)
    results: list = [None] * len(sentences)
    for members, ys in zip(groups.values(), batches):
        best = np.argmax(ys, axis=-1)
        for b, n in enumerate(members):
            results[n] = PredictionResult(tuple(LABELS[i] for i in best[:, b]), ys[:, b])
    return results


def decode_spans(sentence: Sentence, labels, doc_id: str = "") -> list[MentionSpan]:
    """Decode a BIO2 label sequence into character-offset mention spans.

    B opens a mention, I extends it, O closes it; an orphaned I (after O or
    at the start) opens a new mention rather than being dropped.
    """
    labels = list(labels)
    if len(labels) != len(sentence.tokens):
        raise ValueError(f"{len(labels)} labels for {len(sentence.tokens)} tokens")
    return [
        MentionSpan(sentence.tokens[first].begin, sentence.tokens[last].end, doc_id)
        for first, last in label_runs(labels)
    ]


def annotate(model: TaggerModel, document_text: str, doc_id: str = "") -> list[MentionSpan]:
    """Detect mentions in raw text: split, tokenize, predict as one batch, decode."""
    bounds = split_sentences(document_text)
    sentences = [Sentence(tuple(tokenize(document_text[b:e], b))) for b, e in bounds]
    spans: list[MentionSpan] = []
    for sentence, result in zip(sentences, predict_batch(model, sentences)):
        spans.extend(decode_spans(sentence, result.labels, doc_id))
    return spans


# ---------------------------------------------------------------------------
# Persistence
#
# Model file layout (all integers little-endian):
#   bytes 0..8    magic "SEQTAGM1"
#   bytes 8..16   uint64 header length H
#   bytes 16..16+H   UTF-8 JSON header: format_version, encoder section
#                    (method + vocabulary), flag layout, network config,
#                    tensor manifest [name, shape], optional meta
#   ...           tensor data, float64 little-endian, C order, manifest order
#   last 32 bytes SHA-256 of everything before them


_VOCABULARY_KEY = {"TRI": "trigrams", "DICT": "words", "EMB": "words"}


def save_model(model: TaggerModel, path, meta: dict | None = None) -> None:
    """Write the model as a single self-contained checksummed binary file."""
    encoder, tensors = model.encoder, list(model.params.items())
    section = {"method": encoder.method}
    if encoder.method == "EMB":
        section.update(words=encoder.words, dim=encoder.vectors.shape[1])
        tensors.insert(0, ("embedding.vectors", encoder.vectors))
    else:
        section[_VOCABULARY_KEY[encoder.method]] = encoder.keys
    header = {
        "format_version": FORMAT_VERSION,
        "encoder": section,
        "flag_layout": list(FLAG_LAYOUT),
        "network": asdict(model.config),
        "tensors": [[name, list(t.shape)] for name, t in tensors],
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    parts = [_MAGIC, len(header_bytes).to_bytes(8, "little"), header_bytes]
    parts.extend(np.ascontiguousarray(t, dtype="<f8").tobytes() for _, t in tensors)
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


# JSON types of the header's network section, one per NetworkConfig field.
_NETWORK_TYPES = dict(variant=str, input_dim=int, dense_size=int, lstm_cells=int,
                      n_classes=int, learning_rate=(int, float))


def _has_type(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def load_model(path) -> TaggerModel:
    """Load a model file.

    Verifies the checksum, then the header's structure and its tensor
    manifest (names and shapes) against the configuration, before copying
    each tensor from the file bytes into its parameter view.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < len(_MAGIC) + 8 + 32:
        raise ValueError(f"{path}: checksum mismatch (file truncated)")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError(f"{path}: checksum mismatch")
    if body[:8] != _MAGIC:
        raise ValueError(f"{path}: not a seqtag model file")
    header_len = int.from_bytes(body[8:16], "little")
    if 16 + header_len > len(body):
        raise ValueError(f"{path}: header extends past end of file")
    try:
        header = json.loads(bytes(body[16 : 16 + header_len]).decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: header is not UTF-8 JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if not _has_type(version, int) or version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format_version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if header.get("flag_layout") != list(FLAG_LAYOUT):
        raise ValueError(f"{path}: unknown surface-flag layout")

    enc = header.get("encoder")
    method = enc.get("method") if isinstance(enc, dict) else None
    if method not in ENCODER_METHODS:
        raise ValueError(f"{path}: unknown encoder method {method!r}")
    vocabulary = enc.get(_VOCABULARY_KEY[method])
    if not (
        isinstance(vocabulary, list)
        and set(map(type, vocabulary)) == {str}
        and (method != "EMB" or (_has_type(enc.get("dim"), int) and enc["dim"] > 0))
    ):
        raise ValueError(f"{path}: malformed encoder section in header")
    net = header.get("network")
    if not isinstance(net, dict) or not all(
        _has_type(net.get(name), types) for name, types in _NETWORK_TYPES.items()
    ):
        raise ValueError(f"{path}: malformed network section in header")
    if net["n_classes"] != NetworkConfig.n_classes:  # B, I and O
        raise ValueError(f"{path}: n_classes is {net['n_classes']}, expected 3")
    try:
        config = NetworkConfig(**{k: net[k] for k in _NETWORK_TYPES if k != "n_classes"})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    manifest = param_spec(config)
    if method == "EMB":
        manifest.insert(0, ("embedding.vectors", (len(vocabulary), enc["dim"])))
    if header.get("tensors") != [[name, list(shape)] for name, shape in manifest]:
        raise ValueError(f"{path}: tensor manifest does not match configuration")
    offset = 16 + header_len
    if len(body) - offset != 8 * sum(math.prod(shape) for _, shape in manifest):
        raise ValueError(f"{path}: tensor data does not match the manifest's size")

    params = Params(param_spec(config))
    for name, shape in manifest:
        data = np.frombuffer(body, dtype="<f8", count=math.prod(shape), offset=offset)
        if name == "embedding.vectors":
            vectors = data.reshape(shape).astype(np.float64)
        else:
            params[name][...] = data.reshape(shape)
        offset += data.nbytes

    try:  # the EMB table rejects a repeated word
        encoder: TokenEncoder = (EmbeddingTable(vocabulary, vectors) if method == "EMB"
                                 else LexicalEncoder(method, vocabulary))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if method != "EMB" and encoder.keys != vocabulary:  # each slot keeps its learned key
        raise ValueError(f"{path}: {_VOCABULARY_KEY[method]} are not sorted and distinct")
    if encoder.dim != config.input_dim:
        raise ValueError(
            f"{path}: encoder dimension {encoder.dim} does not match "
            f"network input_dim {config.input_dim}"
        )
    return TaggerModel(encoder, config, params)
