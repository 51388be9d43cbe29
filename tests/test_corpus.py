import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.corpus import (
    _ABBREVIATIONS,
    Corpus,
    Document,
    MentionSpan,
    Sentence,
    Token,
    document_from_rows,
    document_labels,
    mentions_to_bio2,
    read_bio_column_file,
    read_standoff,
    sample_split,
    split_sentences,
    tokenize,
    write_bio_column_file,
)
from seqtag.tagger import decode_spans

from helpers import ref_bio2

FIG_SENTENCE = "Aspirin has an antiplatelet effect."


def make_sentence(words, labels=None, start=0):
    tokens = []
    pos = start
    for w in words:
        tokens.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return Sentence(tuple(tokens), tuple(labels) if labels else None)


# ---------------------------------------------------------------------------
# Domain type invariants


def test_token_rejects_bad_interval():
    with pytest.raises(ValueError):
        Token("x", 3, 3)
    with pytest.raises(ValueError):
        Token("xy", 0, 1)  # length mismatch


def test_sentence_rejects_label_mismatch():
    tok = Token("a", 0, 1)
    with pytest.raises(ValueError):
        Sentence((tok,), ("B", "O"))
    with pytest.raises(ValueError):
        Sentence((tok,), ("X",))


def test_sentence_rejects_overlapping_tokens():
    with pytest.raises(ValueError):
        Sentence((Token("ab", 0, 2), Token("b", 1, 2)))


def test_document_validates_token_slices():
    tok = Token("xyz", 0, 3)
    with pytest.raises(ValueError):
        Document("d", "abc", (Sentence((tok,)),))
    with pytest.raises(ValueError, match=r"^d: token at \[0, 4\) outside text of length 3$"):
        Document("d", "abc", (Sentence((Token("abcd", 0, 4),)),))


def test_document_rejects_out_of_bounds_mention():
    sent = make_sentence(["ab"])
    with pytest.raises(ValueError):
        Document("d", "ab", (sent,), (MentionSpan(0, 99, "d"),))


def test_corpus_rejects_duplicate_ids():
    doc = Document("d", "ab", (make_sentence(["ab"]),))
    with pytest.raises(ValueError):
        Corpus((doc, doc))


# ---------------------------------------------------------------------------
# split_sentences


def test_split_empty_text():
    assert split_sentences("") == []


def test_split_single_sentence():
    assert split_sentences(FIG_SENTENCE) == [(0, 35)]


def test_split_two_sentences():
    text = "It failed. We retried."
    assert split_sentences(text) == [(0, 10), (11, 22)]
    assert text[0:10] == "It failed."
    assert text[11:22] == "We retried."
    # U+3000 and U+2028 are whitespace, as str.isspace has it
    assert split_sentences("It failed.\u3000We retried.") == [(0, 10), (11, 22)]
    assert split_sentences("It failed.\u2028We retried.") == [(0, 10), (11, 22)]


def test_split_respects_abbreviations():
    assert split_sentences("Dr. Smith left early.") == [(0, 21)]
    assert split_sentences("See e.g. Table 4.") == [(0, 17)]
    assert split_sentences("The U.S. Senate met.") == [(0, 20)]


def test_split_respects_single_letter_initials():
    assert split_sentences("He met A. Smith today.") == [(0, 22)]
    assert split_sentences("É. X") == [(0, 4)]
    # U+2168 is a number, not a letter, so "Ⅸ." is no initial
    assert split_sentences("Ⅸ. X") == [(0, 2), (3, 4)]


def test_split_requires_following_capital_or_digit():
    # lowercase after the period: no boundary
    assert split_sentences("it ended. then we left") == [(0, 22)]
    # digit after the period: boundary
    assert split_sentences("It ended. 24 left.") == [(0, 9), (10, 18)]


def test_split_exclamation_and_question():
    assert split_sentences("Really?! Yes.") == [(0, 8), (9, 13)]


@given(st.text(min_size=0, max_size=200))
@settings(max_examples=200)
def test_split_covers_non_whitespace(text):
    intervals = split_sentences(text)
    prev_end = -1
    for begin, end in intervals:
        assert begin < end
        assert begin > prev_end
        prev_end = end
        assert not text[begin].isspace()
        assert not text[end - 1].isspace()
    covered = set()
    for begin, end in intervals:
        covered.update(range(begin, end))
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert i in covered


# Characters the two rule tests below draw from: ASCII and Unicode
# whitespace, terminals and edge punctuation, and characters that str
# methods class apart (U+2168 "Ⅸ" is not alphabetic, "٣" is a digit).
RULE_ALPHABET = " \t\n\x85\xa0\u2028\u3000\x1c\x1f.!?,;:()[]\"'aZÉßⅨ٣7_-/"
EDGE_PUNCT = ".,;:!?()[]\"'"


def sentence_end_candidates(text):
    """Offsets right after '.', '!' or '?' followed by whitespace and then an
    uppercase character or a digit."""
    for j, ch in enumerate(text):
        rest = text[j + 1 :].lstrip()
        if ch in ".!?" and text[j + 1 : j + 2].isspace() and rest:
            if rest[0].isupper() or rest[0].isdigit():
                yield j + 1


def ends_abbreviation_or_initial(text, end):
    begin = end
    while begin > 0 and not text[begin - 1].isspace():
        begin -= 1
    chunk = text[begin:end]
    return chunk[-1] == "." and (
        chunk.lower() in _ABBREVIATIONS or (len(chunk) == 2 and chunk[0].isalpha())
    )


SPLIT_PIECES = list(RULE_ALPHABET) + ["Dr.", "e.g.", "U.S.", "A.", "É.", "Ⅸ.", "x."]


@given(st.lists(st.sampled_from(SPLIT_PIECES), max_size=30).map("".join))
@settings(max_examples=300)
def test_split_ends_sentences_exactly_at_the_boundary_rule(text):
    intervals = split_sentences(text)
    candidates = set(sentence_end_candidates(text))
    for _, end in intervals[:-1]:
        assert end in candidates
        assert not ends_abbreviation_or_initial(text, end)
    for end in candidates:
        if any(b < end < e for b, e in intervals):
            assert ends_abbreviation_or_initial(text, end)


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_fig_sentence():
    tokens = tokenize(FIG_SENTENCE)
    assert [t.text for t in tokens] == [
        "Aspirin", "has", "an", "antiplatelet", "effect", ".",
    ]
    for tok in tokens:
        assert FIG_SENTENCE[tok.begin : tok.end] == tok.text


def test_tokenize_keeps_inword_hyphens():
    assert [t.text for t in tokenize("anti-CD15 cross-linked")] == [
        "anti-CD15", "cross-linked",
    ]


def test_tokenize_splits_edge_punctuation():
    assert [t.text for t in tokenize("(CD15)")] == ["(", "CD15", ")"]
    assert [t.text for t in tokenize('"stop."')] == ['"', "stop", ".", '"']


def test_tokenize_offsets_shift_with_sentence_begin():
    tokens = tokenize("We retried.", 11)
    assert (tokens[0].begin, tokens[0].end) == (11, 13)
    assert (tokens[-1].begin, tokens[-1].end) == (21, 22)


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
@settings(max_examples=200)
def test_tokenize_slices_match(text):
    for tok in tokenize(text):
        assert text[tok.begin : tok.end] == tok.text


def whitespace_chunks(text):
    """Maximal runs of characters that are not str.isspace, as (begin, end)."""
    chunks, begin = [], None
    for i, ch in enumerate(text + " "):
        if not ch.isspace() and begin is None:
            begin = i
        elif ch.isspace() and begin is not None:
            chunks.append((begin, i))
            begin = None
    return chunks


@given(st.text(alphabet=RULE_ALPHABET, max_size=60))
@settings(max_examples=300)
def test_tokenize_splits_chunks_exactly_at_edge_punctuation(text):
    tokens = tokenize(text)
    covered = 0
    for begin, end in whitespace_chunks(text):
        inside = [t for t in tokens if begin <= t.begin < end]
        covered += len(inside)
        # the chunk's tokens tile it
        assert [t.begin for t in inside] == [begin] + [t.end for t in inside[:-1]]
        assert inside[-1].end == end
        words = [t.text for t in inside if not (len(t.text) == 1 and t.text in EDGE_PUNCT)]
        assert len(words) <= 1
        for word in words:
            assert word[0] not in EDGE_PUNCT and word[-1] not in EDGE_PUNCT
    assert covered == len(tokens)


# ---------------------------------------------------------------------------
# mentions_to_bio2


def fig_sentence_with_mentions():
    sentence = make_sentence(["Aspirin", "has", "an", "antiplatelet", "effect", "."])
    mentions = [MentionSpan(0, 7), MentionSpan(15, 34)]
    return sentence, mentions


def test_bio2_fig_example():
    sentence, mentions = fig_sentence_with_mentions()
    assert mentions_to_bio2(sentence, mentions) == ["B", "O", "O", "B", "I", "O"]


def test_bio2_no_mentions_all_outside():
    sentence, _ = fig_sentence_with_mentions()
    assert mentions_to_bio2(sentence, []) == ["O"] * 6


def test_bio2_adjacent_mentions_each_get_begin():
    sentence = make_sentence(["aa", "bb"])
    labels = mentions_to_bio2(sentence, [MentionSpan(0, 2), MentionSpan(3, 5)])
    assert labels == ["B", "B"]


def test_bio2_partial_overlap_claims_whole_token():
    sentence = make_sentence(["abcdef"])
    assert mentions_to_bio2(sentence, [MentionSpan(2, 4)]) == ["B"]


def test_bio2_rejects_overlapping_mentions():
    sentence = make_sentence(["aa", "bb"])
    with pytest.raises(ValueError, match="overlap"):
        mentions_to_bio2(sentence, [MentionSpan(0, 4), MentionSpan(3, 5)])


def test_bio2_never_starts_with_inside():
    sentence = make_sentence(["aa", "bb", "cc"])
    labels = mentions_to_bio2(sentence, [MentionSpan(0, 5)])
    assert labels[0] == "B"
    assert labels == ["B", "I", "O"]


# ---------------------------------------------------------------------------
# BIO column format


def test_read_bio_single_mention(tmp_path):
    path = tmp_path / "tiny.bio"
    path.write_text("Aspirin\tB\n.\tO\n\n", encoding="utf-8")
    corpus = read_bio_column_file(path)
    assert len(corpus.documents) == 1
    doc = corpus.documents[0]
    assert len(doc.sentences) == 1
    assert doc.text == "Aspirin ."
    assert doc.gold_mentions == (MentionSpan(0, 7, doc.doc_id),)


def test_read_bio_empty_file(tmp_path):
    path = tmp_path / "empty.bio"
    path.write_text("", encoding="utf-8")
    assert len(read_bio_column_file(path).documents) == 0


def test_read_bio_unknown_label_names_line(tmp_path):
    path = tmp_path / "bad.bio"
    path.write_text("foo\tX\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1"):
        read_bio_column_file(path)


def test_read_bio_wrong_column_count(tmp_path):
    path = tmp_path / "bad.bio"
    path.write_text("token\tB\textra\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1"):
        read_bio_column_file(path)


def test_read_bio_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.bio"
    path.write_text("\ufeffzoravium\tB\nhelps\tO\n\n", encoding="utf-8")
    doc = read_bio_column_file(path).documents[0]
    assert doc.sentences[0].tokens[0].text == "zoravium"
    assert doc.text == "zoravium helps"


def test_read_bio_docstart_separates_documents(tmp_path):
    path = tmp_path / "multi.bio"
    path.write_text(
        "-DOCSTART-\tO\n\none\tO\n\n-DOCSTART-\tO\n\ntwo\tB\nthings\tI\n\n",
        encoding="utf-8",
    )
    corpus = read_bio_column_file(path)
    assert [d.text for d in corpus.documents] == ["one", "two things"]
    assert len(corpus.documents[1].gold_mentions) == 1


def test_bio_write_read_round_trip(tmp_path):
    path = tmp_path / "rt.bio"
    rows = [
        [("Aspirin", "B"), ("works", "O")],
        [("antiplatelet", "B"), ("effect", "I"), (".", "O")],
    ]
    original = Corpus((document_from_rows("doc0", rows),))
    write_bio_column_file(original, path)
    reread = read_bio_column_file(path)
    assert reread == original


def test_read_bio_lenient_inside_after_outside(tmp_path):
    path = tmp_path / "orphan.bio"
    path.write_text("a\tO\nb\tI\nc\tI\n\n", encoding="utf-8")
    doc = read_bio_column_file(path).documents[0]
    assert doc.sentences[0].labels == ("O", "I", "I")
    assert doc.gold_mentions == (MentionSpan(2, 5, doc.doc_id),)


# ---------------------------------------------------------------------------
# standoff format


def test_read_standoff_fig_fixture(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"doc_id": "d1", "text": "%s", "mentions": [{"begin": 0, "end": 7}]}'
        % FIG_SENTENCE,
        encoding="utf-8",
    )
    corpus = read_standoff(path)
    doc = corpus.documents[0]
    assert doc.text[0:7] == "Aspirin"
    assert doc.gold_mentions == (MentionSpan(0, 7, "d1"),)
    assert doc.sentences[0].labels[0] == "B"


def test_read_standoff_accepts_integral_offsets(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps({"doc_id": "d1", "text": FIG_SENTENCE,
                    "mentions": [{"begin": 0.0, "end": "7"}]}),
        encoding="utf-8",
    )
    assert read_standoff(path).documents[0].gold_mentions == (MentionSpan(0, 7, "d1"),)


def test_read_standoff_rejects_out_of_bounds(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"doc_id": "d1", "text": "%s", "mentions": [{"begin": 30, "end": 99}]}'
        % FIG_SENTENCE,
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="outside text"):
        read_standoff(path)


def test_read_standoff_zero_mentions(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"doc_id": "d1", "text": "Hello there."}', encoding="utf-8")
    corpus = read_standoff(path)
    assert corpus.documents[0].gold_mentions == ()
    assert corpus.documents[0].sentences[0].labels == ("O", "O", "O")


def test_read_standoff_json_lines_and_array(tmp_path):
    record = '{"doc_id": "%s", "text": "One thing."}'
    jsonl = tmp_path / "docs.jsonl"
    jsonl.write_text(record % "a" + "\n" + record % "b" + "\n", encoding="utf-8")
    array = tmp_path / "docs.json"
    array.write_text("[" + record % "a" + "," + record % "b" + "]", encoding="utf-8")
    assert read_standoff(jsonl) == read_standoff(array)


def test_read_standoff_json_lines_split_only_at_line_feeds(tmp_path):
    texts = ["One\u2028thing.", "Two\x85things\x1e."]
    path = tmp_path / "docs.jsonl"
    path.write_text(
        "".join(json.dumps({"text": t}, ensure_ascii=False) + "\n" for t in texts),
        encoding="utf-8",
    )
    assert [d.text for d in read_standoff(path).documents] == texts


@pytest.mark.parametrize("content", ["", " \n\t\r\n  \n"])
def test_read_standoff_blank_file_is_an_empty_corpus(tmp_path, content):
    path = tmp_path / "docs.json"
    path.write_text(content, encoding="utf-8")
    assert read_standoff(path) == Corpus(())


def test_read_standoff_rejects_overlaps(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"doc_id": "d", "text": "abcdef ghij", '
        '"mentions": [{"begin": 0, "end": 5}, {"begin": 3, "end": 8}]}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="overlap"):
        read_standoff(path)


def test_read_standoff_accepts_string_and_integer_doc_ids(tmp_path):
    path = tmp_path / "docs.json"
    path.write_text(json.dumps([{"doc_id": "a", "text": "One."}, {"doc_id": 7, "text": "Two."}]),
                    encoding="utf-8")
    assert [d.doc_id for d in read_standoff(path).documents] == ["a", "7"]


def _long_record(path, n_sentences):
    """Write one standoff record of n one-mention sentences to ``path``."""
    parts, mentions, length = [], [], 0
    for i in range(n_sentences):
        prefix = f"Patient {i} received "
        mentions.append({"begin": length + len(prefix), "end": length + len(prefix) + 8})
        parts.append(prefix + "Zoravium today. ")
        length += len(parts[-1])
    path.write_text(json.dumps({"text": "".join(parts), "mentions": mentions}), encoding="utf-8")
    return path


def test_read_standoff_reads_a_10k_sentence_record_in_seconds(tmp_path):
    path = _long_record(tmp_path / "long.json", 10_000)
    started = time.perf_counter()
    doc = read_standoff(path).documents[0]
    assert time.perf_counter() - started < 5
    assert len(doc.sentences) == len(doc.gold_mentions) == 10_000
    assert {s.labels for s in doc.sentences} == {("O", "O", "O", "B", "O", "O")}


def test_read_standoff_builds_each_sentence_once_and_sorts_mentions_once(tmp_path, monkeypatch):
    path = _long_record(tmp_path / "long.json", 10_000)
    calls = {"sentence": 0, "compare": 0}
    build, less = Sentence.__post_init__, MentionSpan.__lt__

    def counted_build(self):
        calls["sentence"] += 1
        build(self)

    def counted_less(self, other):
        calls["compare"] += 1
        return less(self, other)

    monkeypatch.setattr(Sentence, "__post_init__", counted_build)
    monkeypatch.setattr(MentionSpan, "__lt__", counted_less)
    doc = read_standoff(path).documents[0]
    assert len(doc.sentences) == calls["sentence"] == 10_000
    assert calls["compare"] == 9_999  # one pass over the mentions, which come in order


@given(
    st.lists(st.lists(st.sampled_from(["ab", "Cd", "efg", "h-Ij", "(kl)"]), max_size=4), max_size=6),
    st.lists(st.tuples(st.integers(0, 90), st.integers(1, 7)), max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_document_labels_project_all_mentions(word_lists, spans):
    """Each sentence's labels equal the projection of every mention of its document."""
    sentences, start = [], 0
    for words in word_lists:  # an empty word list is an empty sentence
        sentences.append(make_sentence(words, start=start))
        start += sum(len(w) + 1 for w in words) + 1  # a two-character gap between sentences
    mentions, end = [], 0
    for begin, size in sorted(spans):  # a disjoint subset, some across sentence gaps
        if begin >= end:
            mentions.append(MentionSpan(begin, begin + size))
            end = begin + size
    labels = document_labels(sentences, mentions[::-1])
    assert labels == [ref_bio2(sentence, mentions) for sentence in sentences]


def test_document_labels_reject_overlap_anywhere_in_the_document():
    first, second = make_sentence(["Alpha", "works."]), make_sentence(["Beta"], start=15)
    overlapping = [MentionSpan(0, 13), MentionSpan(12, 18)]  # they share only whitespace
    assert [mentions_to_bio2(s, [m]) for s, m in zip((first, second), overlapping)] == [
        ["B", "I"], ["B"]]
    with pytest.raises(ValueError, match=r"^mentions overlap: \[0, 13\) and \[12, 18\)$"):
        document_labels([first, second], overlapping)
    assert document_labels([], overlapping) == []  # with no sentence, the caller checks


def test_write_bio_column_file_projects_a_10k_sentence_document_in_seconds(tmp_path):
    rows = [[(f"Word{i}", "B"), ("sits", "O"), (".", "O")] for i in range(10_000)]
    labeled = document_from_rows("doc0", rows)  # the id read_bio_column_file gives
    unlabeled = Document("doc0", labeled.text, tuple(Sentence(s.tokens) for s in labeled.sentences),
                         labeled.gold_mentions)
    path = tmp_path / "long.bio"
    started = time.perf_counter()
    write_bio_column_file(Corpus((unlabeled,)), path)
    assert time.perf_counter() - started < 5
    assert read_bio_column_file(path) == Corpus((labeled,))


# ---------------------------------------------------------------------------
# sample_split


def _corpus_of(n_sentences):
    rows = [[(f"w{i}", "O"), ("x", "O")] for i in range(n_sentences)]
    return Corpus((document_from_rows("d", rows),))


def test_sample_split_disjoint_cover():
    corpus = _corpus_of(40)
    train, test = sample_split(corpus, 20, 20, seed=9)
    assert len(train) == 20 and len(test) == 20
    ids = {id(s) for s in train} | {id(s) for s in test}
    assert len(ids) == 40


def test_sample_split_empty_train():
    corpus = _corpus_of(5)
    train, test = sample_split(corpus, 0, 3, seed=1)
    assert train == []
    assert len(test) == 3


def test_sample_split_deterministic():
    corpus = _corpus_of(30)
    assert sample_split(corpus, 10, 5, seed=4) == sample_split(corpus, 10, 5, seed=4)
    assert sample_split(corpus, 10, 5, seed=4) != sample_split(corpus, 10, 5, seed=5)


@pytest.mark.parametrize("n_sentences", [40, 220, 1000])
def test_sample_split_train_set_does_not_depend_on_test_size(n_sentences):
    # evaluate --train-size N --test-size M must test only on sentences
    # that train --train-size N (a split of (N, 0)) left out.
    corpus = _corpus_of(n_sentences)
    for n_train, n_test, seed in itertools.product((1, 5, 20), (1, 5, 20), range(8)):
        train, test = sample_split(corpus, n_train, n_test, seed)
        train_only, _ = sample_split(corpus, n_train, 0, seed)
        assert [id(s) for s in train] == [id(s) for s in train_only]
        assert not {id(s) for s in test} & {id(s) for s in train_only}


@pytest.mark.parametrize("sizes", [(-1, 3), (3, -1)])
def test_sample_split_rejects_a_negative_size(sizes):
    with pytest.raises(ValueError, match="^sample sizes must be non-negative$"):
        sample_split(_corpus_of(10), *sizes, seed=0)


def test_sample_split_reports_available_count():
    corpus = _corpus_of(10)
    with pytest.raises(ValueError, match="10"):
        sample_split(corpus, 8, 8, seed=0)


# ---------------------------------------------------------------------------
# Round trip: mentions -> labels -> spans


@st.composite
def aligned_mention_sets(draw):
    n_tokens = draw(st.integers(min_value=1, max_value=12))
    words = [
        draw(st.text(alphabet="abcdefgh", min_size=1, max_size=6))
        for _ in range(n_tokens)
    ]
    sentence = make_sentence(words)
    mentions = []
    i = 0
    while i < n_tokens:
        if draw(st.booleans()):
            length = draw(st.integers(min_value=1, max_value=min(3, n_tokens - i)))
            mentions.append(
                MentionSpan(sentence.tokens[i].begin, sentence.tokens[i + length - 1].end)
            )
            i += length
        else:
            i += 1
    return sentence, mentions


@given(aligned_mention_sets())
@settings(max_examples=300)
def test_bio2_round_trip(case):
    sentence, mentions = case
    labels = mentions_to_bio2(sentence, mentions)
    assert decode_spans(sentence, labels) == mentions
