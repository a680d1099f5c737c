"""Per-sentence document-level context assembly.

Each sentence to tag is flanked by up to `window` subtokens of left and
right context: the subtokens on either side of it in the corpus's
concatenated subtoken stream. With boundary enforcement the slice stops at
the sentence's own document; without it, context continues into adjacent
documents in corpus order (the boundary itself contributes no subtokens).
The assembled transformer input is always

    [BOS] + left_ids + core_ids + right_ids + [EOS]

and contexts may cut neighboring sentences mid-way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .corpus import Document, Sentence
from .tokenizer import SubwordEncoding, SubwordVocab, encode

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ContextConfig:
    window: int = 64
    enforce_boundaries: bool = False

    def __post_init__(self):
        if self.window < 0:
            raise ValueError("context window must be >= 0")


@dataclass
class ContextualizedSentence:
    """Core sentence subtokens plus flanking context and offset bookkeeping."""

    left_ids: list[int]
    core: SubwordEncoding
    right_ids: list[int]
    bos_id: int
    eos_id: int

    @property
    def core_start(self) -> int:
        """Offset of the first core subtoken in the assembled input."""
        return len(self.left_ids) + 1

    def assembled_ids(self) -> list[int]:
        return ([self.bos_id] + self.left_ids + self.core.ids
                + self.right_ids + [self.eos_id])

    @property
    def assembled_length(self) -> int:
        return 2 + len(self.left_ids) + len(self.core.ids) + len(self.right_ids)

    def shifted_alignment(self) -> list[int]:
        """Token -> first-subtoken positions within the assembled input."""
        return [self.core_start + a for a in self.core.first_subtoken_of_token]


class SubtokenStream:
    """Every sentence of a corpus encoded once and concatenated in corpus order.

    Holds the concatenated subtoken ids, each sentence's start offset and
    encoding (indexed by document, then position in the document), and
    each document's ``(lo, hi)`` range of the ids.
    """

    def __init__(self, documents: list[Document], vocab: SubwordVocab):
        self.documents = documents
        self.vocab = vocab
        self.ids: list[int] = []
        self.sentences: list[list[tuple[int, SubwordEncoding]]] = []
        self.doc_ranges: list[tuple[int, int]] = []
        for document in documents:
            lo = len(self.ids)
            encoded = []
            for sentence in document.sentences:
                enc = encode(sentence.texts, vocab)
                encoded.append((len(self.ids), enc))
                self.ids.extend(enc.ids)
            self.sentences.append(encoded)
            self.doc_ranges.append((lo, len(self.ids)))


def build_context(sentence: Sentence, stream: SubtokenStream,
                  config: ContextConfig) -> ContextualizedSentence:
    """Attach up to `window` subtokens of left/right context to a sentence.

    The context is the stream slice on each side of the core, bounded by the
    sentence's document under enforcement and by the whole stream otherwise.
    """
    start, core = stream.sentences[sentence.doc_index][sentence.position_in_doc]
    end = start + len(core.ids)
    lo, hi = (stream.doc_ranges[sentence.doc_index] if config.enforce_boundaries
              else (0, len(stream.ids)))
    left = stream.ids[max(lo, start - config.window):start]
    right = stream.ids[end:min(hi, end + config.window)]
    return ContextualizedSentence(
        left_ids=left, core=core, right_ids=right,
        bos_id=stream.vocab.bos_id, eos_id=stream.vocab.eos_id)


def fit_to_length(ctx: ContextualizedSentence, max_length: int) -> ContextualizedSentence:
    """Symmetrically trim context so the assembled input fits `max_length`.

    Core subtokens are never trimmed; if the core alone exceeds the budget
    this raises instead.
    """
    if ctx.assembled_length <= max_length:
        return ctx
    core_only = 2 + len(ctx.core.ids)
    if core_only > max_length:
        raise ValueError(
            f"core sentence needs {core_only} positions but the model allows "
            f"{max_length}; shrink the context window or raise max positions")
    # trim the longer side first, ties from the left: the left side keeps half
    # the budget, more when the right side is short, and never more than it has
    budget = max_length - core_only
    keep_left = min(len(ctx.left_ids), max(budget - len(ctx.right_ids), budget // 2))
    left = ctx.left_ids[len(ctx.left_ids) - keep_left:]
    right = ctx.right_ids[:budget - keep_left]
    logger.warning("truncated context from %d to %d subtokens to fit %d positions",
                   ctx.assembled_length, 2 + len(left) + len(ctx.core.ids) + len(right),
                   max_length)
    return ContextualizedSentence(left_ids=left, core=ctx.core, right_ids=right,
                                  bos_id=ctx.bos_id, eos_id=ctx.eos_id)
