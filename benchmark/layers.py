"""Per-layer metrics of the benchmark and what each one should move.

The layers are the seqtag modules whose public functions the tracer wraps:
corpus, encoder, network, tagger and evaluation.  ``synth`` runs only in
set-up, and ``cli`` is left out because it only adds argument parsing and
JSON writing around the same calls.

Per-layer values are per iteration of the workload's closed loop, so they
stay comparable when a faster commit fits more iterations into a run.
"""
from __future__ import annotations

import numpy as np

PACKAGE = "seqtag"
TRACED_MODULES = ("corpus", "encoder", "network", "tagger", "evaluation")

# Traced function -> (workload on which it matters, end-to-end metrics it
# should move there).  Each one reports <function>.self_ms and .calls.
FUNCTIONS = {
    "encoder.encode_sentence": ("train-wide", ("train_tokens_per_s", "peak_rss_mb")),
    "network.forward": ("train-wide", ("train_tokens_per_s",)),
    "network.backward_bptt": ("train-wide", ("train_tokens_per_s",)),
    "network.zero_gradients": ("train-wide", ("train_tokens_per_s", "peak_rss_mb")),
    "network.sgd_step": ("train-wide", ("train_tokens_per_s",)),
    "network.lstm_forward": ("train-narrow", ("train_tokens_per_s",)),
    "network.lstm_backward": ("train-narrow", ("train_tokens_per_s",)),
    "network.loss": ("train-narrow", ("train_tokens_per_s",)),
    "tagger.train": ("train-narrow", ("train_tokens_per_s",)),
    "corpus.split_sentences": ("tag-eval", ("annotate_tokens_per_s",)),
    "corpus.tokenize": ("tag-eval", ("annotate_tokens_per_s",)),
    "tagger.predict": ("tag-eval", ("annotate_tokens_per_s",)),
    "tagger.decode_spans": ("tag-eval", ("annotate_tokens_per_s",)),
    "tagger.annotate": ("tag-eval", ("annotate_tokens_per_s",)),
    "evaluation.evaluate": ("tag-eval", ("evaluate_sentences_per_s",)),
    "evaluation.count_document": ("tag-eval", ("evaluate_sentences_per_s",)),
    "evaluation.macro_bio": ("tag-eval", ("evaluate_sentences_per_s",)),
    "tagger.load_model": ("tag-eval", ("load_model_ms",)),
}

# Counters computed from array sizes at the traced boundaries, not measured:
# metric -> (unit, workload, end-to-end metrics it should move, definition).
COMPUTED = {
    "encoder.encode_sentence.bytes_out_computed": (
        "B/iter", "train-wide", ("train_tokens_per_s", "peak_rss_mb"),
        "T*V*8 bytes of every (T, V) float64 matrix encode_sentence returns",
    ),
    "encoder.active_fraction": (
        "fraction", "train-wide", ("train_tokens_per_s",),
        "non-zero slots over T*V slots of the encoded matrices: the share "
        "of the dense input layer's work that is useful",
    ),
    "network.dense_in.flops_computed": (
        "flop/iter", "train-wide", ("train_tokens_per_s",),
        "2*T*input_dim*dense_size per forward call: the dense input matmul",
    ),
    "network.zero_gradients.bytes_computed": (
        "B/iter", "train-wide", ("train_tokens_per_s", "peak_rss_mb"),
        "bytes of the gradient buffer each zero_gradients call allocates",
    ),
    "network.sgd_step.bytes_computed": (
        "B/iter", "train-wide", ("train_tokens_per_s",),
        "3 * gradient bytes per sgd_step call: read parameters and "
        "gradients, write parameters",
    ),
    "network.lstm_forward.steps": (
        "1/iter", "train-narrow", ("train_tokens_per_s",),
        "time steps over all lstm_forward calls",
    ),
}


def _encode_counter(totals, args, result):
    totals["encoder.encode_sentence.bytes_out_computed"] += result.nbytes
    totals["encoder.lit_slots"] += np.count_nonzero(result)
    totals["encoder.slots"] += result.size


def _forward_counter(totals, args, result):
    xs, config = args[0], args[1]
    totals["network.dense_in.flops_computed"] += (
        2 * len(xs) * config.input_dim * config.dense_size
    )


def _zero_gradients_counter(totals, args, result):
    totals["network.zero_gradients.bytes_computed"] += sum(
        g.nbytes for g in result.values()
    )


def _sgd_counter(totals, args, result):
    totals["network.sgd_step.bytes_computed"] += 3 * sum(
        g.nbytes for g in args[1].values()
    )


def _lstm_counter(totals, args, result):
    totals["network.lstm_forward.steps"] += len(args[2])


COUNTERS = {
    "encoder.encode_sentence": _encode_counter,
    "network.forward": _forward_counter,
    "network.zero_gradients": _zero_gradients_counter,
    "network.sgd_step": _sgd_counter,
    "network.lstm_forward": _lstm_counter,
}

TRACE_METRICS = {
    "trace.coverage": ("fraction", "sum of self times over traced wall time"),
    "trace.overhead_pct": (
        "%", "median traced loop iteration time over the untraced one, minus 1",
    ),
}

DENSE_INPUT_PATH = (
    "encoder.encode_sentence",
    "network.forward",
    "network.backward_bptt",
    "network.zero_gradients",
    "network.sgd_step",
)
TRAINING_ONLY = ("network.backward_bptt", "network.zero_gradients", "network.sgd_step")

# Expected layer shares, checked on every traced run.
EXPECTATIONS = {
    "train-narrow": "LSTM forward+backward self time is the largest share",
    "train-wide": "the dense input path (" + ", ".join(DENSE_INPUT_PATH)
    + ") is the majority of self time",
    "tag-eval": "no calls to " + ", ".join(TRAINING_ONLY),
}


def expectation_holds(workload: str, layers: dict[str, dict]) -> bool:
    """Check the expected layer shares of ``workload`` on traced layers."""
    self_s = {name: layer["self_s"] for name, layer in layers.items()}
    if workload == "train-narrow":
        lstm = self_s.get("network.lstm_forward", 0.0) + self_s.get(
            "network.lstm_backward", 0.0
        )
        others = [s for n, s in self_s.items() if n not in
                  ("network.lstm_forward", "network.lstm_backward")]
        return lstm > max(others, default=0.0)
    if workload == "train-wide":
        dense = sum(self_s.get(name, 0.0) for name in DENSE_INPUT_PATH)
        return dense > 0.5 * sum(self_s.values())
    return all(layers.get(name, {}).get("calls", 0) == 0 for name in TRAINING_ONLY)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.self_ms"] = "ms/iter"
        units[f"{name}.calls"] = "1/iter"
    units.update((name, spec[0]) for name, spec in COMPUTED.items())
    units.update((name, spec[0]) for name, spec in TRACE_METRICS.items())
    return units
