import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.corpus import (
    Corpus,
    Document,
    MentionSpan,
    Sentence,
    document_from_rows,
    split_sentences,
    tokenize,
)
from seqtag.synth import SynthConfig, synthetic_corpus
from seqtag.tagger import TrainingConfig, decode_spans, predict, train
from seqtag.evaluation import (
    NerReport,
    Counts,
    count_document,
    evaluate,
    format_report,
    macro_bio,
    micro_scores,
    report_to_dict,
)

from helpers import ref_bio2

# ---------------------------------------------------------------------------
# Brute-force reference evaluator (independent of the implementation): a
# literal translation of the count definitions over raw (begin, end) pairs.


def ref_match(a, b):
    return max(a[0], b[0]) <= min(a[1], b[1])  # closed intervals intersect


def ref_counts(predicted, gold):
    p = [(m.begin, m.end) for m in predicted]
    g = [(m.begin, m.end) for m in gold]
    tp = len([x for x in p if any(ref_match(x, y) for y in g)])
    fp = len([x for x in p if not any(ref_match(x, y) for y in g)])
    fn = len([y for y in g if not any(ref_match(x, y) for x in p)])
    return tp, fp, fn


def ref_micro(count_triples):
    tp = sum(c[0] for c in count_triples)
    fp = sum(c[1] for c in count_triples)
    fn = sum(c[2] for c in count_triples)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def ref_macro_bio(pred_seqs, gold_seqs):
    scores = []
    for label in ("B", "I", "O"):
        tp = fp = fn = 0
        for pred, gold in zip(pred_seqs, gold_seqs):
            for p, g in zip(pred, gold):
                tp += p == label and g == label
                fp += p == label and g != label
                fn += p != label and g == label
        if tp + fp == 0 and tp + fn == 0:
            scores.append((1.0, 1.0))
        else:
            scores.append(
                (tp / (tp + fp) if tp + fp else 0.0, tp / (tp + fn) if tp + fn else 0.0)
            )
    prec = sum(s[0] for s in scores) / 3
    rec = sum(s[1] for s in scores) / 3
    return prec, rec


def random_spans(rng, max_spans=10, width=60):
    spans = []
    for _ in range(rng.randint(0, max_spans)):
        begin = rng.randint(0, width - 2)
        end = rng.randint(begin + 1, width)
        spans.append(MentionSpan(begin, end))
    return spans


# ---------------------------------------------------------------------------
# weak matching: one span a side, so a match is Counts(tp=1) and none is
# Counts(fp=1, fn=1)

MATCH, NO_MATCH = Counts(tp=1), Counts(fp=1, fn=1)


def test_weak_match_exact():
    assert count_document([MentionSpan(0, 7)], [MentionSpan(0, 7)]) == MATCH


def test_weak_match_partial_overlap():
    assert count_document([MentionSpan(0, 5)], [MentionSpan(3, 10)]) == MATCH


def test_weak_match_disjoint():
    assert count_document([MentionSpan(0, 3)], [MentionSpan(5, 9)]) == NO_MATCH


def test_weak_match_nested():
    assert count_document([MentionSpan(0, 20)], [MentionSpan(5, 9)]) == MATCH
    assert count_document([MentionSpan(5, 9)], [MentionSpan(0, 20)]) == MATCH


def test_weak_match_touching_endpoints_count_as_match():
    # endpoints are compared as closed intervals on the stored offsets
    assert count_document([MentionSpan(0, 5)], [MentionSpan(5, 9)]) == MATCH


spans_strategy = st.builds(
    lambda b, width: MentionSpan(b, b + width),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=20),
)


@given(spans_strategy, spans_strategy)
@settings(max_examples=500)
def test_weak_match_symmetric_and_equals_interval_intersection(p, g):
    counts = count_document([p], [g])
    assert counts == count_document([g], [p])
    assert counts == (MATCH if ref_match((p.begin, p.end), (g.begin, g.end)) else NO_MATCH)


# ---------------------------------------------------------------------------
# count_document


def test_count_exact_match():
    counts = count_document([MentionSpan(0, 7)], [MentionSpan(0, 7)])
    assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)


def test_count_mixed_example():
    counts = count_document(
        [MentionSpan(0, 5), MentionSpan(30, 35)],
        [MentionSpan(0, 7), MentionSpan(10, 20)],
    )
    assert (counts.tp, counts.fp, counts.fn) == (1, 1, 1)


def test_count_no_predictions():
    counts = count_document([], [MentionSpan(0, 7)])
    assert (counts.tp, counts.fp, counts.fn) == (0, 0, 1)


def test_count_one_prediction_covering_two_golds():
    counts = count_document(
        [MentionSpan(0, 30)], [MentionSpan(1, 5), MentionSpan(10, 20)]
    )
    assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)


# ---------------------------------------------------------------------------
# micro_scores


def test_micro_balanced():
    report = micro_scores([Counts(tp=1, fp=1, fn=1)])
    assert report.precision == report.recall == report.f1 == 0.5


def test_micro_empty_counts_score_zero():
    report = micro_scores([Counts()])
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_micro_pools_documents():
    report = micro_scores([Counts(tp=2), Counts(fp=1, fn=1)])
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)


def test_micro_f1_bounded_by_max():
    report = micro_scores([Counts(tp=3, fp=1, fn=2)])
    assert report.f1 <= max(report.precision, report.recall) + 1e-12


# ---------------------------------------------------------------------------
# macro_bio


def test_macro_perfect_all_classes():
    seqs = [["B", "I", "O"]]
    report = macro_bio(seqs, seqs)
    assert report.macro_precision == report.macro_recall == report.macro_f1 == 1.0


def test_macro_hand_example():
    report = macro_bio([["O", "O"]], [["B", "O"]])
    assert report.macro_recall == pytest.approx(2 / 3)
    assert report.macro_precision == pytest.approx(0.5)
    assert report.macro_f1 == pytest.approx(4 / 7)
    assert report.per_class["B"].fn == 1
    assert report.per_class["O"].fp == 1


def test_macro_absent_classes_score_one():
    report = macro_bio([["O", "O", "O"]], [["O", "O", "O"]])
    assert report.macro_precision == report.macro_recall == report.macro_f1 == 1.0


def test_macro_length_mismatch():
    with pytest.raises(ValueError):
        macro_bio([["O", "O"]], [["O"]])
    with pytest.raises(ValueError):
        macro_bio([["O"], ["O"]], [["O"]])
    with pytest.raises(ValueError, match="sentence 0: label 'X' is not B, I or O"):
        macro_bio([["X"]], [["O"]])
    with pytest.raises(ValueError, match="sentence 1: label 'Y'"):
        macro_bio([["O"], ["O"]], [["O"], ["Y"]])


@given(
    st.lists(
        st.lists(st.sampled_from(["B", "I", "O"]), min_size=1, max_size=8),
        min_size=1,
        max_size=6,
    ),
    st.data(),
)
@settings(max_examples=300)
def test_macro_matches_reference(gold_seqs, data):
    pred_seqs = [
        [data.draw(st.sampled_from(["B", "I", "O"])) for _ in seq] for seq in gold_seqs
    ]
    report = macro_bio(pred_seqs, gold_seqs)
    prec, rec = ref_macro_bio(pred_seqs, gold_seqs)
    assert report.macro_precision == pytest.approx(prec, abs=1e-12)
    assert report.macro_recall == pytest.approx(rec, abs=1e-12)


# ---------------------------------------------------------------------------
# randomized oracle equivalence for span counting


def test_count_document_matches_brute_force_on_random_documents():
    rng = random.Random(1234)
    for _ in range(300):
        predicted = random_spans(rng)
        gold = _non_overlapping(random_spans(rng))
        counts = count_document(predicted, gold)
        assert (counts.tp, counts.fp, counts.fn) == ref_counts(predicted, gold)


def _non_overlapping(spans):
    picked = []
    for span in sorted(spans):
        if all(span.end <= p.begin or p.end <= span.begin for p in picked):
            picked.append(span)
    return picked


def test_count_document_scores_10k_spans_a_side_in_seconds():
    gold = [MentionSpan(10 * i, 10 * i + 5) for i in range(10_000)]
    predicted = [  # odd i inside gold i, even i in the gap after it
        MentionSpan(10 * i + 2, 10 * i + 4) if i % 2 else MentionSpan(10 * i + 6, 10 * i + 9)
        for i in range(10_000)
    ]
    predicted.append(MentionSpan(0, 30))  # overlaps predictions and matches golds 0-2
    started = time.perf_counter()
    counts = count_document(predicted, gold)
    assert time.perf_counter() - started < 5
    assert counts == Counts(tp=5001, fp=5000, fn=4998)


# ---------------------------------------------------------------------------
# evaluate() orchestration


def _gold_corpus():
    rows = [
        [("alpha", "B"), ("works", "O")],
        [("beta", "B"), ("factor", "I"), ("rests", "O")],
    ]
    return Corpus((document_from_rows("d0", rows),))


def test_evaluate_with_perfect_precomputed_annotations():
    corpus = _gold_corpus()
    annotations = {"d0": list(corpus.documents[0].gold_mentions)}
    report = evaluate(annotations, corpus, mode="both")
    assert report.ner == NerReport(1.0, 1.0, 1.0)
    assert report.bio.macro_f1 == 1.0


def test_evaluate_zero_span_annotator_has_zero_recall():
    corpus = _gold_corpus()
    report = evaluate({"d0": []}, corpus, mode="span")
    assert report.ner.recall == 0.0
    assert report.bio is None


def test_evaluate_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        evaluate({}, _gold_corpus(), mode="banana")


def test_evaluate_precomputed_requires_corpus():
    with pytest.raises(ValueError, match="Corpus"):
        evaluate({}, _gold_corpus().sentences, mode="span")


def test_evaluate_missing_gold_labels_for_bio():
    from seqtag.corpus import Document, Sentence

    doc = _gold_corpus().documents[0]
    unlabeled = Document(
        doc.doc_id,
        doc.text,
        tuple(Sentence(s.tokens, None) for s in doc.sentences),
        doc.gold_mentions,
    )
    with pytest.raises(ValueError, match="gold labels"):
        evaluate({doc.doc_id: []}, Corpus((unlabeled,)), mode="bio")


def test_evaluate_model_rejects_an_unlabeled_test_sentence(tagged_sentences):
    model, held_out = tagged_sentences
    sentence = held_out.sentences[0]
    with pytest.raises(ValueError, match="^test sentence 1 has no gold labels$"):
        evaluate(model, [sentence, Sentence(sentence.tokens, None)])


def test_report_formats_agree():
    corpus = _gold_corpus()
    report = evaluate({"d0": list(corpus.documents[0].gold_mentions)}, corpus)
    text = format_report(report)
    payload = report_to_dict(report)
    assert f"{payload['span']['f1']:.4f}" in text
    assert f"{payload['bio']['precision']:.4f}" in text
    assert payload["span"]["per_document"][0]["doc_id"] == "d0"


@pytest.fixture(scope="module")
def tagged_sentences():
    """A small trained model and a Corpus of one-sentence held-out documents."""
    corpus = synthetic_corpus(SynthConfig(n_sentences=30, seed=4, misspell_rate=0.1))
    config = TrainingConfig(epochs=60, seed=1)
    model = train(corpus.sentences[:20], "TRI", "FF", config)
    held_out = Corpus(
        tuple(
            document_from_rows(
                f"sentence{n}", [zip((t.text for t in s.tokens), s.labels)]
            )
            for n, s in enumerate(corpus.sentences[20:])
        )
    )
    return model, held_out


@pytest.mark.parametrize(
    "test_data",
    [Corpus(()), Corpus((Document("d0", "", ()),)), []],
    ids=["no-document", "document-without-sentence", "no-sentence"],
)
@pytest.mark.parametrize("mode", ["span", "bio", "both"])
def test_evaluate_rejects_test_data_without_sentences(
    tagged_sentences, test_data, mode
):
    # An empty test set would otherwise score a perfect macro BIO2 F1.
    model, _ = tagged_sentences
    with pytest.raises(ValueError, match="holds no sentence"):
        evaluate(model, test_data, mode=mode)
    if isinstance(test_data, Corpus):
        with pytest.raises(ValueError, match="holds no sentence"):
            evaluate({}, test_data, mode=mode)


@pytest.mark.parametrize("mode", ["span", "bio", "both"])
def test_evaluate_sentence_list_equals_one_sentence_documents(tagged_sentences, mode):
    model, held_out = tagged_sentences
    by_sentence = evaluate(model, held_out.sentences, mode=mode)
    by_document = evaluate(model, held_out, mode=mode)
    assert by_sentence.ner == by_document.ner
    assert by_sentence.bio == by_document.bio
    assert by_sentence.per_document == by_document.per_document
    if mode != "bio":
        assert len(by_sentence.per_document) == len(held_out.documents)
        total = sum((c for _, c in by_sentence.per_document), Counts())
        assert total.tp > 0 and total.fp + total.fn > 0  # a non-trivial case


def test_evaluate_model_equals_its_precomputed_annotations(tagged_sentences):
    model, held_out = tagged_sentences
    annotations = {
        doc.doc_id: decode_spans(s, predict(model, s).labels, doc.doc_id)
        for doc in held_out.documents
        for s in doc.sentences
    }
    from_model = evaluate(model, held_out, mode="span")
    assert evaluate(annotations, held_out, mode="span") == from_model


def test_evaluate_bio_rejects_overlapping_annotations_anywhere_in_a_document():
    text = "Alpha works.   Beta rests."
    sentences = [Sentence(tokenize(text[b:e], b)) for b, e in split_sentences(text)]
    labeled = tuple(Sentence(s.tokens, ["O"] * len(s)) for s in sentences)
    corpus = Corpus((Document("d0", text, labeled),))
    annotations = {"d0": [MentionSpan(0, 13), MentionSpan(12, 18)]}  # they share whitespace
    assert evaluate(annotations, corpus, mode="span").per_document == [("d0", Counts(fp=2))]
    for mode in ("bio", "both"):
        with pytest.raises(ValueError, match=r"^mentions overlap: \[0, 13\) and \[12, 18\)$"):
            evaluate(annotations, corpus, mode=mode)


def test_evaluate_bio_projects_a_10k_sentence_document_in_seconds():
    rows = [[(f"Word{i}", "B"), ("sits", "O"), (".", "O")] for i in range(10_000)]
    corpus = Corpus((document_from_rows("d0", rows),))
    started = time.perf_counter()
    report = evaluate({"d0": list(corpus.documents[0].gold_mentions)}, corpus, mode="bio")
    assert time.perf_counter() - started < 5
    assert report.bio.per_class["B"] == Counts(tp=10_000)
    assert report.bio.macro_f1 == 1.0


_WORDS = st.sampled_from(["ab", "Cd", "efg", "h-Ij", "(kl)"])


@given(
    st.lists(
        st.lists(
            st.lists(st.tuples(_WORDS, st.sampled_from("BIO")), max_size=4), min_size=1, max_size=4
        ),
        min_size=1,
        max_size=3,
    ),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_evaluate_disjoint_annotations_equals_per_sentence_reference(docs, data):
    corpus = Corpus(tuple(document_from_rows(f"d{n}", rows) for n, rows in enumerate(docs)))
    annotations = {}
    for doc in corpus.documents[: data.draw(st.integers(0, len(corpus.documents)))]:
        raw = data.draw(st.lists(st.tuples(st.integers(0, len(doc.text) + 3), st.integers(1, 6))))
        spans = [MentionSpan(begin, begin + size, doc.doc_id) for begin, size in raw]
        annotations[doc.doc_id] = _non_overlapping(spans)[::-1]
    report = evaluate(annotations, corpus, mode="both")
    pred_seqs, gold_seqs, per_document = [], [], []
    for doc in corpus.documents:
        predicted = annotations.get(doc.doc_id, [])
        pred_seqs += [ref_bio2(s, predicted) for s in doc.sentences]
        gold_seqs += [list(s.labels) for s in doc.sentences]
        per_document.append((doc.doc_id, Counts(*ref_counts(predicted, doc.gold_mentions))))
    assert report.per_document == per_document
    assert report.bio == macro_bio(pred_seqs, gold_seqs)
    assert (report.bio.macro_precision, report.bio.macro_recall) == pytest.approx(
        ref_macro_bio(pred_seqs, gold_seqs), abs=1e-12
    )
