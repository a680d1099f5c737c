"""CoNLL column-format corpora: documents, sentences, tag schemes, spans.

Corpora are immutable after parsing. Tags follow either the BIO or BIOES
scheme; malformed sequences are repaired (an inside tag with no open span
is promoted to a begin tag) rather than rejected, matching the tolerant
behavior of the standard span scorer.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

logger = logging.getLogger(__name__)

DOCSTART = "-DOCSTART-"
OUTSIDE = "O"


class TagScheme(enum.Enum):
    BIO = "bio"
    BIOES = "bioes"

    def __init__(self, value: str):
        self.prefixes = frozenset(value.upper())


class ParseError(ValueError):
    """Raised on malformed CoNLL input; message carries the line number."""


@dataclass(frozen=True)
class Span:
    """A typed entity mention, inclusive token indices within one sentence."""

    entity_type: str
    start: int
    end: int


@dataclass
class Token:
    text: str
    gold_tag: str
    predicted_tag: str | None = None


@dataclass
class Sentence:
    tokens: list[Token]
    doc_index: int
    position_in_doc: int

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    @property
    def gold_tags(self) -> list[str]:
        return [t.gold_tag for t in self.tokens]

    @property
    def predicted_tags(self) -> list[str]:
        return [t.predicted_tag if t.predicted_tag is not None else t.gold_tag
                for t in self.tokens]


@dataclass
class Document:
    sentences: list[Sentence]
    id: str


@dataclass
class Corpus:
    documents: list[Document]
    split: str
    label_set: frozenset[str]
    scheme: TagScheme

    def sentences(self):
        for doc in self.documents:
            yield from doc.sentences

    @property
    def num_sentences(self) -> int:
        return sum(len(d.sentences) for d in self.documents)

    @property
    def num_tokens(self) -> int:
        return sum(len(s) for s in self.sentences())


def split_tag(tag: str) -> tuple[str, str]:
    """Split 'B-LOC' into ('B', 'LOC'); the outside tag yields ('O', '')."""
    if tag == OUTSIDE:
        return OUTSIDE, ""
    prefix, _, etype = tag.partition("-")
    return prefix, etype


def _check_column(fields: list[str], column: int, line_no: int, what: str) -> None:
    n = len(fields)
    idx = column if column >= 0 else n + column
    if idx < 0 or idx >= n:
        raise ParseError(
            f"line {line_no}: expected at least {abs(column) if column < 0 else column + 1} "
            f"columns for the {what} column, got {n}")


def parse_conll(text: str, token_column: int = 0, tag_column: int = -1,
                split: str = "train") -> Corpus:
    """Parse whitespace-separated CoNLL columns into a document-aware corpus.

    Blank lines separate sentences; a line whose first column is -DOCSTART-
    opens a new document (the line itself is not a sentence). Files without
    any -DOCSTART- become a single document. Negative column indices count
    from the right, so ``tag_column=-1`` reads the last column.
    """
    min_fields = max(c + 1 if c >= 0 else -c for c in (token_column, tag_column))
    documents: list[Document] = []
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    valid_tags: set[str] = set()

    # the closing -DOCSTART- ends the last sentence and document
    for line_no, line in enumerate([*text.splitlines(), DOCSTART], start=1):
        fields = line.split()
        if fields and fields[0] != DOCSTART:
            if len(fields) < min_fields:  # raises, naming the first short column
                _check_column(fields, token_column, line_no, "token")
                _check_column(fields, tag_column, line_no, "tag")
            tag = fields[tag_column]
            if tag not in valid_tags:
                _validate_tag(tag, line_no)
                valid_tags.add(tag)
            tokens.append(Token(fields[token_column], tag))
            continue
        if tokens:  # a blank line or -DOCSTART- ends the sentence
            sentences.append(Sentence(tokens, len(documents), len(sentences)))
            tokens = []
        if fields and sentences:  # -DOCSTART- also ends the document
            documents.append(Document(sentences, f"doc{len(documents)}"))
            sentences = []

    label_set = frozenset(split_tag(t)[1] for t in valid_tags if t != OUTSIDE)
    return Corpus(documents=documents, split=split, label_set=label_set,
                  scheme=detect_scheme(valid_tags))


def _validate_tag(tag: str, line_no: int) -> None:
    prefix, etype = split_tag(tag)
    if tag == OUTSIDE:
        return
    if prefix not in TagScheme.BIOES.prefixes or not etype:
        raise ParseError(f"line {line_no}: tag {tag!r} does not match "
                         f"<prefix>-<type> with prefix in B/I/O/E/S")


def detect_scheme(tags) -> TagScheme:
    """BIOES if any E-/S- prefix occurs, else BIO."""
    for tag in tags:
        if split_tag(tag)[0] in ("E", "S"):
            return TagScheme.BIOES
    return TagScheme.BIO


def spans_from_tags(tags: list[str]) -> list[Span]:
    """Extract maximal non-overlapping typed spans, scorer-compatible.

    One tolerant reader serves BIO and BIOES alike: an inside/end tag that
    does not continue an open span of the same type starts a new span (the
    standard repair), and E-/S- close the span they end.
    """
    spans: list[Span] = []
    start = None
    current_type = None
    for i, tag in enumerate(tags):
        prefix, etype = split_tag(tag)
        continues = prefix in ("I", "E") and current_type == etype and start is not None
        if start is not None and not continues:
            spans.append(Span(current_type, start, i - 1))
            start, current_type = None, None
        if prefix == OUTSIDE:
            continue
        if not continues:
            start, current_type = i, etype
        if prefix in ("E", "S"):
            spans.append(Span(current_type, start, i))
            start, current_type = None, None
    if start is not None:
        spans.append(Span(current_type, start, len(tags) - 1))
    return spans


def tags_from_spans(spans: list[Span], length: int, scheme: TagScheme) -> list[str]:
    """Emit a tag sequence realizing `spans` under `scheme`."""
    tags = [OUTSIDE] * length
    for span in spans:
        if scheme is TagScheme.BIO:
            tags[span.start] = f"B-{span.entity_type}"
            for i in range(span.start + 1, span.end + 1):
                tags[i] = f"I-{span.entity_type}"
        else:
            if span.start == span.end:
                tags[span.start] = f"S-{span.entity_type}"
            else:
                tags[span.start] = f"B-{span.entity_type}"
                for i in range(span.start + 1, span.end):
                    tags[i] = f"I-{span.entity_type}"
                tags[span.end] = f"E-{span.entity_type}"
    return tags


def convert_scheme(tags: list[str], source: TagScheme, target: TagScheme) -> list[str]:
    """Re-encode a tag sequence in another scheme, preserving the span set.

    Invalid sequences (e.g. I-X after O, or a BIOES span left open) are
    repaired by promotion to a span start or by closing the span; a
    warning is logged.
    """
    if _needs_repair(tags, source):
        logger.warning("repairing malformed %s tag sequence %s", source.name, tags)
    spans = spans_from_tags(tags)
    return tags_from_spans(spans, len(tags), target)


_BOUNDARY = (OUTSIDE, "")


def may_follow(prev: tuple[str, str], tag: tuple[str, str], scheme: TagScheme) -> bool:
    """Whether split tag `tag` may follow split tag `prev` under `scheme`.

    Tags are ``split_tag`` pairs; the start and end of a sequence count as
    the outside tag. An inside/end tag must continue an open span of its
    type, and under BIOES an open (B/I) span must continue.
    """
    prev_prefix, prev_type = prev
    prefix, etype = tag
    if prefix not in scheme.prefixes:
        return False
    if prefix in ("I", "E"):
        return prev_prefix in ("B", "I") and prev_type == etype
    # a scheme with end tags closes every span explicitly
    return "E" not in scheme.prefixes or prev_prefix not in ("B", "I")


def _needs_repair(tags: list[str], scheme: TagScheme) -> bool:
    prev = _BOUNDARY
    for tag in tags:
        split = split_tag(tag)
        if not may_follow(prev, split, scheme):
            return True
        prev = split
    return not may_follow(prev, _BOUNDARY, scheme)


def with_predictions(corpus: Corpus, predictions: list[list[str]]) -> Corpus:
    """A copy of `corpus` with one predicted tag per token, in sentence order."""
    sentences = list(corpus.sentences())
    if len(predictions) != len(sentences):
        raise ValueError(f"expected {len(sentences)} prediction sequences, "
                         f"got {len(predictions)}")
    documents = []
    it = iter(predictions)
    for doc in corpus.documents:
        new_sents = []
        for sent in doc.sentences:
            tags = next(it)
            if len(tags) != len(sent):
                raise ValueError("prediction length mismatch for sentence "
                                 f"{sent.doc_index}:{sent.position_in_doc}")
            new_tokens = [Token(tok.text, tok.gold_tag, tag)
                          for tok, tag in zip(sent.tokens, tags)]
            new_sents.append(Sentence(new_tokens, sent.doc_index, sent.position_in_doc))
        documents.append(Document(new_sents, doc.id))
    return Corpus(documents, corpus.split, corpus.label_set, corpus.scheme)


def format_conll(corpus: Corpus, include_predictions: bool = False) -> str:
    """Render a corpus back to CoNLL columns (token, gold[, predicted])."""
    lines = []
    multi_doc = len(corpus.documents) > 1
    for doc in corpus.documents:
        if multi_doc:
            lines.append(f"{DOCSTART} {OUTSIDE}")
            lines.append("")
        for sent in doc.sentences:
            for tok in sent.tokens:
                cols = [tok.text, tok.gold_tag]
                if include_predictions:
                    cols.append(tok.predicted_tag if tok.predicted_tag is not None
                                else OUTSIDE)
                lines.append(" ".join(cols))
            lines.append("")
    return "\n".join(lines)
