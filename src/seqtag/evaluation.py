"""Two evaluation regimes: weak-match span-level micro precision/recall/F1
and token-level macro-averaged BIO2 scores.

All functions are pure; per-document counting order is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import LABELS, Corpus, MentionSpan, Sentence, mentions_to_bio2
from .tagger import TaggerModel, decode_spans, predict


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


def weak_match(p: MentionSpan, g: MentionSpan) -> bool:
    """Weak annotation match: do the spans' character intervals intersect?

    Implemented as the four endpoint-containment clauses, evaluated on the
    stored (begin, end) offsets as closed intervals; equivalent to
    max(begins) <= min(ends).
    """
    return (
        (p.begin <= g.begin <= p.end)
        or (p.begin <= g.end <= p.end)
        or (g.begin <= p.begin <= g.end)
        or (g.begin <= p.end <= g.end)
    )


def count_document(predicted, gold) -> Counts:
    """Count weak-match outcomes between one document's span sets.

    A predicted span matching any gold span is one tp, matching none is one
    fp; each gold span matched by no prediction is one fn.  One prediction
    covering several gold spans counts once, while marking all of them
    matched.
    """
    predicted = list(predicted)
    gold = list(gold)
    tp = sum(1 for p in predicted if any(weak_match(p, g) for g in gold))
    fp = len(predicted) - tp
    fn = sum(1 for g in gold if not any(weak_match(p, g) for p in predicted))
    return Counts(tp=tp, fp=fp, fn=fn)


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
    the harmonic mean of macro precision and macro recall.
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
        for p, g in zip(pred, gold):
            if p == g:
                counts[p][0] += 1
            else:
                counts[p][1] += 1
                counts[g][2] += 1

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
    Precomputed annotations are a {doc_id: [MentionSpan]} mapping and
    require a Corpus.  ``mode`` selects span scores, BIO2 scores, or both;
    spans are decoded only for span scores.  Test data without a sentence
    is an error: it has nothing to score.
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

    per_document: list[tuple[str, Counts]] = []
    predicted_seqs: list[list[str]] = []
    gold_seqs: list[list[str]] = []
    for unit_id, sentences, gold_spans in units:
        predicted = [] if model is not None else list(annotations.get(unit_id, []))
        for sentence in sentences:
            if model is not None:
                pred_labels = list(predict(model, sentence).labels)
                if want_span:
                    predicted.extend(decode_spans(sentence, pred_labels, unit_id))
            elif want_bio:
                spans_here = [m for m in predicted if _touches_sentence(m, sentence)]
                pred_labels = mentions_to_bio2(sentence, spans_here)
            if want_bio:
                if sentence.labels is None:
                    raise ValueError(
                        f"{unit_id}: sentence without gold labels "
                        "(required for BIO2 scoring)"
                    )
                predicted_seqs.append(pred_labels)
                gold_seqs.append(list(sentence.labels))
        if want_span:
            per_document.append((unit_id, count_document(predicted, gold_spans)))

    report = EvalReport(config={"mode": mode})
    if want_span:
        report.per_document = per_document
        report.ner = micro_scores(c for _, c in per_document)
    if want_bio:
        report.bio = macro_bio(predicted_seqs, gold_seqs)
    return report


def _touches_sentence(mention: MentionSpan, sentence: Sentence) -> bool:
    if not sentence.tokens:
        return False
    return (
        mention.begin < sentence.tokens[-1].end
        and sentence.tokens[0].begin < mention.end
    )


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
