import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docner.corpus import (ParseError, Span, TagScheme, convert_scheme, format_conll,
                           parse_conll, spans_from_tags, tags_from_spans)

TYPES = ["LOC", "MISC", "ORG", "PER"]


def without_type(corpus, etype):
    """`corpus` with every `etype` entity tagged O."""
    return parse_conll(re.sub(rf"\b[BIES]-{etype}\b", "O", format_conll(corpus)),
                       split=corpus.split)


@st.composite
def bio_sequences(draw, max_len=12):
    """Random valid BIO tag sequences built as a state walk."""
    n = draw(st.integers(0, max_len))
    tags, open_type = [], None
    for _ in range(n):
        moves = ["B", "O"] if open_type is None else ["B", "I", "O"]
        move = draw(st.sampled_from(moves))
        if move == "B":
            open_type = draw(st.sampled_from(TYPES))
            tags.append(f"B-{open_type}")
        elif move == "I":
            tags.append(f"I-{open_type}")
        else:
            tags.append("O")
            open_type = None
    return tags


# letters, digits and punctuation: never whitespace, so one token per column
TOKEN_TEXTS = st.text(st.characters(whitelist_categories=("L", "N", "P")),
                      min_size=1, max_size=6).filter(lambda t: t != "-DOCSTART-")


@st.composite
def conll_texts(draw, max_docs=3, extra_columns=0):
    """CoNLL text of 0 to `max_docs` documents of BIO-tagged sentences, each
    token line with `extra_columns` columns between the token and the tag."""
    blocks = []
    for _ in range(draw(st.integers(0, max_docs))):
        sentences = []
        for tags in draw(st.lists(bio_sequences().filter(bool), min_size=1, max_size=3)):
            sentences.append("\n".join(
                " ".join([draw(TOKEN_TEXTS)] + draw(st.lists(
                    TOKEN_TEXTS, min_size=extra_columns, max_size=extra_columns))
                    + [tag])
                for tag in tags))
        docstart = " ".join(["-DOCSTART-"] + ["-X-"] * extra_columns + ["O"])
        blocks.append(f"{docstart}\n\n" + "\n\n".join(sentences))
    return "\n\n".join(blocks) + "\n"


def brute_force_bio_spans(tags):
    """Independent segmenter: scan for B starts, extend over matching I."""
    spans = []
    i = 0
    while i < len(tags):
        if tags[i].startswith("B-"):
            etype = tags[i][2:]
            j = i
            while j + 1 < len(tags) and tags[j + 1] == f"I-{etype}":
                j += 1
            spans.append(Span(etype, i, j))
            i = j + 1
        else:
            i += 1
    return spans


def convert_logging_repairs(tags, scheme):
    """`convert_scheme(tags, scheme, scheme)` and whether it logged a repair."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("docner.corpus")
    logger.addHandler(handler)
    try:
        out = convert_scheme(tags, scheme, scheme)
    finally:
        logger.removeHandler(handler)
    return out, any("repair" in rec.getMessage() for rec in records)


class TestParseConll:
    def test_no_docstart_single_document(self):
        text = "a O\nb B-LOC\n\nc O\n"
        corpus = parse_conll(text)
        assert len(corpus.documents) == 1
        assert [len(s) for s in corpus.documents[0].sentences] == [2, 1]

    def test_docstart_marks_documents(self):
        text = "-DOCSTART- O\n\nI O\nlove O\nParis B-LOC\n\nThe O\ncity O\nis O"
        corpus = parse_conll(text)
        assert len(corpus.documents) == 1
        doc = corpus.documents[0]
        assert len(doc.sentences) == 2
        paris = doc.sentences[0].tokens[2]
        assert (paris.text, paris.gold_tag) == ("Paris", "B-LOC")

    def test_two_docstart_blocks_positions(self):
        blocks = ["\n\n".join(f"w{i}{j} O" for j in range(n)) for i, n in
                  enumerate([3, 2])]
        text = "-DOCSTART- O\n\n" + blocks[0] + "\n\n-DOCSTART- O\n\n" + blocks[1]
        corpus = parse_conll(text)
        assert len(corpus.documents) == 2
        assert [s.position_in_doc for s in corpus.documents[0].sentences] == [0, 1, 2]
        assert [s.position_in_doc for s in corpus.documents[1].sentences] == [0, 1]
        assert all(s.doc_index == 1 for s in corpus.documents[1].sentences)

    def test_token_count_preserved(self, two_doc_corpus):
        from conftest import TWO_DOC_TEXT

        content_lines = [ln for ln in TWO_DOC_TEXT.splitlines()
                         if ln.strip() and not ln.startswith("-DOCSTART-")]
        assert two_doc_corpus.num_tokens == len(content_lines)

    def test_short_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_conll("ok O\nbroken\n", token_column=0, tag_column=1)

    def test_bad_tag_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_conll("word X-LOC\n")
        with pytest.raises(ParseError):
            parse_conll("word B\n")

    def test_bad_tag_reported_at_its_first_line(self):
        """Tags are validated once each; a bad one still names the first
        line it is on, after many lines of valid (and repeated) tags."""
        valid = ["w B-LOC", "w I-LOC", "w O", "", "w S-PER"] * 200
        text = "\n".join(valid + ["w X-LOC", "w O", "w X-LOC"]) + "\n"
        with pytest.raises(ParseError, match=r"^line 1001: tag 'X-LOC' does not match"):
            parse_conll(text)

    @pytest.mark.parametrize("token_column,tag_column,message", [
        (3, -1, "expected at least 4 columns for the token column, got 3"),
        (-4, -1, "expected at least 4 columns for the token column, got 3"),
        (0, 3, "expected at least 4 columns for the tag column, got 3"),
        (0, -4, "expected at least 4 columns for the tag column, got 3"),
        (5, -6, "expected at least 6 columns for the token column, got 3"),
    ])
    def test_out_of_range_columns(self, token_column, tag_column, message):
        """A short line names the line and the first column it lacks; the
        lines before it have enough columns for both."""
        text = "S-X S-X S-X S-X S-X S-X\nO O O O O O\n\nc NN O\n"
        with pytest.raises(ParseError) as err:
            parse_conll(text, token_column=token_column, tag_column=tag_column)
        assert str(err.value) == f"line 4: {message}"

    @pytest.mark.parametrize("last", ["E-ORG", "S-ORG"])
    def test_end_or_single_tag_only_on_the_last_line_makes_bioes(self, last):
        text = "\n".join(["a B-ORG", "b I-ORG", "c O", ""] * 50 + [f"d {last}"])
        corpus = parse_conll(text)
        assert corpus.scheme is TagScheme.BIOES
        assert corpus.label_set == {"ORG"}
        assert list(corpus.sentences())[-1].gold_tags == [last]

    def test_negative_tag_column(self):
        corpus = parse_conll("word NN extra B-PER\n", tag_column=-1)
        assert next(corpus.sentences()).tokens[0].gold_tag == "B-PER"

    def test_scheme_detection(self):
        assert parse_conll("a B-LOC\nb I-LOC\n").scheme is TagScheme.BIO
        assert parse_conll("a S-LOC\n").scheme is TagScheme.BIOES

    def test_label_set(self, two_doc_corpus):
        assert two_doc_corpus.label_set == {"LOC", "ORG"}


    @settings(max_examples=200, deadline=None)
    @given(conll_texts())
    def test_format_then_parse_is_identity(self, text):
        corpus = parse_conll(text)
        assert parse_conll(format_conll(corpus)) == corpus


class TestSpansFromTags:
    def test_outside_only(self):
        assert spans_from_tags(["O", "O"]) == []

    def test_bio_spans(self):
        spans = spans_from_tags(["B-PER", "I-PER", "O", "B-LOC"])
        assert spans == [Span("PER", 0, 1), Span("LOC", 3, 3)]

    def test_bioes_spans(self):
        spans = spans_from_tags(["S-ORG", "B-ORG", "E-ORG"])
        assert spans == [Span("ORG", 0, 0), Span("ORG", 1, 2)]

    def test_span_at_sequence_end(self):
        assert spans_from_tags(["O", "B-LOC", "I-LOC"]) == \
            [Span("LOC", 1, 2)]

    @settings(max_examples=200)
    @given(bio_sequences())
    def test_matches_brute_force_segmenter(self, tags):
        assert spans_from_tags(tags) == brute_force_bio_spans(tags)


class TestConvertScheme:
    def test_outside_only_invariant(self):
        assert convert_scheme(["O", "O", "O"], TagScheme.BIO, TagScheme.BIOES) == \
            ["O", "O", "O"]

    def test_single_token_span(self):
        assert convert_scheme(["B-LOC"], TagScheme.BIO, TagScheme.BIOES) == ["S-LOC"]

    def test_multi_token_span(self):
        out = convert_scheme(["B-ORG", "I-ORG", "I-ORG", "O"],
                             TagScheme.BIO, TagScheme.BIOES)
        assert out == ["B-ORG", "I-ORG", "E-ORG", "O"]
        assert spans_from_tags(out) == spans_from_tags(["B-ORG", "I-ORG", "I-ORG", "O"])

    def test_repair_promotes_and_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="docner.corpus"):
            out = convert_scheme(["O", "I-LOC"], TagScheme.BIO, TagScheme.BIO)
        assert out == ["O", "B-LOC"]
        assert any("repair" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("tags,expected", [
        (["B-LOC", "O"], ["S-LOC", "O"]),
        (["B-LOC", "B-ORG"], ["S-LOC", "S-ORG"]),
        (["O", "B-LOC"], ["O", "S-LOC"]),
        (["B-LOC", "I-LOC"], ["B-LOC", "E-LOC"]),
    ])
    def test_open_bioes_span_is_closed_and_warns(self, tags, expected, caplog):
        with caplog.at_level(logging.WARNING, logger="docner.corpus"):
            out = convert_scheme(tags, TagScheme.BIOES, TagScheme.BIOES)
        assert out == expected
        assert any("repair" in rec.message for rec in caplog.records)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(["O", "B-LOC", "I-LOC", "E-LOC", "S-LOC",
                                     "B-ORG", "I-ORG"]), max_size=6),
           st.sampled_from(list(TagScheme)))
    def test_warns_exactly_when_the_sequence_is_not_canonical(self, tags, scheme):
        # a well-formed sequence is the one its own spans re-encode to
        out, warned = convert_logging_repairs(tags, scheme)
        assert warned == (out != tags)

    @settings(max_examples=300)
    @given(bio_sequences())
    def test_round_trip(self, tags):
        there = convert_scheme(tags, TagScheme.BIO, TagScheme.BIOES)
        back = convert_scheme(there, TagScheme.BIOES, TagScheme.BIO)
        assert back == tags

    @settings(max_examples=300)
    @given(bio_sequences())
    def test_span_preservation(self, tags):
        converted = convert_scheme(tags, TagScheme.BIO, TagScheme.BIOES)
        assert spans_from_tags(converted) == spans_from_tags(tags)


class TestTagsFromSpans:
    def test_emission_round_trip(self):
        spans = [Span("PER", 0, 2), Span("LOC", 4, 4)]
        for scheme in TagScheme:
            tags = tags_from_spans(spans, 6, scheme)
            assert spans_from_tags(tags) == spans
