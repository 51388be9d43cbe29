"""Two evaluation regimes: weak-match span-level micro precision/recall/F1
and token-level macro-averaged BIO2 scores.

All functions are pure; per-document counting order is deterministic.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .corpus import LABELS, Corpus, document_labels
# predict: asserted by test_seqtag_attributes_restored_after_traced_run until ROADMAP item 1.
from .tagger import TaggerModel, decode_spans, predict, predict_batch  # noqa: F401


@dataclass(frozen=True)
class Counts:
    """True-positive, false-positive and false-negative counts: the span
    outcomes of one scoring unit or the token outcomes of one BIO2 class.
    Records add field by field, so ``sum(records, Counts())`` pools them.
    """

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass(frozen=True)
class NerReport:
    """Micro-averaged span-level scores."""

    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class BioReport:
    """Macro-averaged token-level BIO2 scores with per-class counts."""

    per_class: dict[str, Counts]
    macro_precision: float
    macro_recall: float
    macro_f1: float


@dataclass
class EvalReport:
    """Assembled evaluation results for one configuration."""

    ner: NerReport | None = None
    bio: BioReport | None = None
    per_document: list[tuple[str, Counts]] = field(default_factory=list)
    config: dict = field(default_factory=dict)


def count_document(predicted, gold) -> Counts:
    """Count weak-match outcomes between one document's span sets.

    A prediction and a gold span match when their offsets, read as closed
    ``[begin, end]`` intervals, intersect, so [0, 5) and [5, 9) match.  A
    predicted span matching any gold span is one tp, matching none is one
    fp; each gold span matched by no prediction is one fn.  One prediction
    covering several gold spans counts once, while marking all of them
    matched.
    """
    predicted, gold = list(predicted), list(gold)
    tp = _weakly_matched(predicted, gold)
    return Counts(tp=tp, fp=len(predicted) - tp, fn=len(gold) - _weakly_matched(gold, predicted))


def _weakly_matched(spans, others) -> int:
    """How many of ``spans`` weakly match one of ``others``, in O(n log n): a span
    matches if the others beginning at or before its end reach its begin."""
    others = sorted((o.begin, o.end) for o in others)
    reach = list(accumulate((end for _, end in others), max, initial=-1))
    begins = [begin for begin, _ in others]
    return sum(reach[bisect_right(begins, s.end)] >= s.begin for s in spans)


def micro_scores(counts) -> NerReport:
    """Pool per-document counts, then compute precision, recall and F1.

    Empty denominators score 0 by convention.
    """
    total = sum(counts, Counts())
    precision = total.tp / (total.tp + total.fp) if total.tp + total.fp else 0.0
    recall = total.tp / (total.tp + total.fn) if total.tp + total.fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return NerReport(precision, recall, f1)


def macro_bio(predicted_seqs, gold_seqs) -> BioReport:
    """Macro-averaged one-vs-rest scores over the B, I, O classes.

    Inputs are aligned per-sentence label sequences.  A class absent from
    both gold and prediction contributes precision = recall = 1; a class
    absent from one side only scores 0 on the undefined ratio.  Macro F1 is
    the harmonic mean of macro precision and macro recall.  A label other
    than B, I or O is a ValueError naming the label and its sentence.
    """
    predicted_seqs = [list(seq) for seq in predicted_seqs]
    gold_seqs = [list(seq) for seq in gold_seqs]
    if len(predicted_seqs) != len(gold_seqs):
        raise ValueError(
            f"{len(predicted_seqs)} predicted sequences for "
            f"{len(gold_seqs)} gold sequences"
        )
    counts = {label: [0, 0, 0] for label in LABELS}  # tp, fp, fn
    for n, (pred, gold) in enumerate(zip(predicted_seqs, gold_seqs)):
        if len(pred) != len(gold):
            raise ValueError(
                f"sentence {n}: {len(pred)} predicted labels for {len(gold)} gold"
            )
        try:
            for p, g in zip(pred, gold):
                if p == g:
                    counts[p][0] += 1
                else:
                    counts[p][1] += 1
                    counts[g][2] += 1
        except KeyError as exc:
            raise ValueError(f"sentence {n}: label {exc.args[0]!r} is not B, I or O") from None

    per_class: dict[str, Counts] = {}
    precisions = []
    recalls = []
    for label in LABELS:
        tp, fp, fn = counts[label]
        per_class[label] = Counts(tp, fp, fn)
        absent_both = (tp + fp == 0) and (tp + fn == 0)
        precisions.append(1.0 if absent_both else (tp / (tp + fp) if tp + fp else 0.0))
        recalls.append(1.0 if absent_both else (tp / (tp + fn) if tp + fn else 0.0))
    macro_p = sum(precisions) / len(LABELS)
    macro_r = sum(recalls) / len(LABELS)
    macro_f1 = 2.0 * macro_p * macro_r / (macro_p + macro_r) if macro_p + macro_r else 0.0
    return BioReport(per_class, macro_p, macro_r, macro_f1)


def evaluate(model_or_annotations, test_data, mode: str = "both") -> EvalReport:
    """Score a model (or precomputed annotations) against gold data.

    ``test_data`` becomes a list of ``(unit_id, sentences, gold_spans)``
    scoring units, which one loop scores: a Corpus gives one unit per
    document with its gold mentions, a list of gold-labeled sentences one
    unit ``sentence{n}`` per sentence with the spans of its labels.
    Precomputed annotations, a {doc_id: [MentionSpan]} mapping, require a
    Corpus; a model predicts all sentences in one batched call.  ``mode``
    selects span scores, BIO2 scores, or both; spans are decoded, and
    annotations (disjoint per document) projected, only as needed.  Test
    data without a sentence is an error.
    """
    if mode not in ("span", "bio", "both"):
        raise ValueError(f"unknown mode {mode!r}; expected span, bio or both")
    want_span = mode in ("span", "both")
    want_bio = mode in ("bio", "both")

    model = model_or_annotations if isinstance(model_or_annotations, TaggerModel) else None
    annotations = None if model is not None else model_or_annotations
    if isinstance(test_data, Corpus):
        units = [(d.doc_id, d.sentences, d.gold_mentions) for d in test_data.documents]
    elif annotations is not None:
        raise ValueError("precomputed annotations require a Corpus of documents")
    else:
        units = []
        for n, sentence in enumerate(test_data):
            if sentence.labels is None:
                raise ValueError(f"test sentence {n} has no gold labels")
            gold = decode_spans(sentence, sentence.labels) if want_span else ()
            units.append((f"sentence{n}", (sentence,), gold))
    if not any(sentences for _, sentences, _ in units):
        raise ValueError("the test data holds no sentence")

    if model is not None:
        results = iter(predict_batch(model, [s for _, ss, _ in units for s in ss]))
    per_document: list[tuple[str, Counts]] = []
    predicted_seqs: list[list[str]] = []
    gold_seqs: list[list[str]] = []
    for unit_id, sentences, gold_spans in units:
        if model is not None:
            pred_labels = [list(next(results).labels) for _ in sentences]
            pairs = zip(sentences, pred_labels) if want_span else ()
            predicted = [m for s, labels in pairs for m in decode_spans(s, labels, unit_id)]
        else:
            predicted = list(annotations.get(unit_id, []))
            pred_labels = document_labels(sentences, predicted) if want_bio else []
        if want_bio:
            if any(sentence.labels is None for sentence in sentences):
                raise ValueError(
                    f"{unit_id}: sentence without gold labels (required for BIO2 scoring)"
                )
            gold_seqs.extend(list(sentence.labels) for sentence in sentences)
            predicted_seqs.extend(pred_labels)
        if want_span:
            per_document.append((unit_id, count_document(predicted, gold_spans)))

    report = EvalReport(config={"mode": mode})
    if want_span:
        report.per_document = per_document
        report.ner = micro_scores(c for _, c in per_document)
    if want_bio:
        report.bio = macro_bio(predicted_seqs, gold_seqs)
    return report


def format_report(report: EvalReport) -> str:
    """Render a report as a small human-readable table."""
    lines = []
    if report.ner is not None:
        total = sum((c for _, c in report.per_document), Counts())
        lines.append("span-level weak match (micro average)")
        lines.append(
            f"  precision {report.ner.precision:.4f}  "
            f"recall {report.ner.recall:.4f}  f1 {report.ner.f1:.4f}"
        )
        lines.append(
            f"  documents {len(report.per_document)}  "
            f"tp {total.tp}  fp {total.fp}  fn {total.fn}"
        )
    if report.bio is not None:
        lines.append("BIO2 token labels (macro average over B, I, O)")
        lines.append(
            f"  precision {report.bio.macro_precision:.4f}  "
            f"recall {report.bio.macro_recall:.4f}  f1 {report.bio.macro_f1:.4f}"
        )
        for label in LABELS:
            c = report.bio.per_class[label]
            lines.append(f"  class {label}: tp {c.tp}  fp {c.fp}  fn {c.fn}")
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    """Machine-readable report record with P/R/F1 fields per regime."""
    out: dict = {"config": report.config}
    if report.ner is not None:
        out["span"] = {
            "precision": report.ner.precision,
            "recall": report.ner.recall,
            "f1": report.ner.f1,
            "per_document": [
                {"doc_id": doc_id, "tp": c.tp, "fp": c.fp, "fn": c.fn}
                for doc_id, c in report.per_document
            ],
        }
    if report.bio is not None:
        out["bio"] = {
            "precision": report.bio.macro_precision,
            "recall": report.bio.macro_recall,
            "f1": report.bio.macro_f1,
            "per_class": {
                label: {"tp": c.tp, "fp": c.fp, "fn": c.fn}
                for label, c in report.bio.per_class.items()
            },
        }
    return out
