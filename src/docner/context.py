"""Per-sentence document-level context assembly.

Each sentence to tag is flanked by up to `window` subtokens of left and
right context: the subtokens on either side of it in the corpus's subtoken
stream, one id array of which its window is a view. With boundary
enforcement the window stops at the sentence's own document; without it,
context continues into adjacent documents in corpus order (the boundary
itself contributes no subtokens). The assembled transformer input is always

    [BOS] + left_ids + core_ids + right_ids + [EOS]

and contexts may cut neighboring sentences mid-way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Document, Sentence
from .tokenizer import SubwordEncoding, SubwordVocab, encode

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ContextConfig:
    window: int = 64
    enforce_boundaries: bool = False

    def __post_init__(self):
        if self.window < 0:
            raise ValueError(f"context window must be >= 0, got {self.window!r}")


@dataclass(eq=False)  # windows are arrays: a context equals only itself
class ContextualizedSentence:
    """A sentence's window: a view of `SubtokenStream.ids`, its core at ``core_offset``."""

    window: np.ndarray
    core_offset: int
    core: SubwordEncoding
    bos_id: int
    eos_id: int

    @property
    def left_ids(self) -> list[int]:
        return self.window[:self.core_offset].tolist()

    @property
    def right_ids(self) -> list[int]:
        return self.window[self.core_offset + len(self.core.ids):].tolist()

    @property
    def core_start(self) -> int:
        """Offset of the first core subtoken in the assembled input."""
        return self.core_offset + 1

    def assembled_ids(self) -> list[int]:
        return [self.bos_id, *self.window.tolist(), self.eos_id]

    @property
    def assembled_length(self) -> int:
        return 2 + len(self.window)

    def shifted_alignment(self) -> list[int]:
        """Token -> first-subtoken positions within the assembled input."""
        start = self.core_start
        return [start + a for a in self.core.first_subtoken_of_token]


class SubtokenStream:
    """Every sentence of a corpus encoded once and concatenated in corpus order.

    Holds the concatenated subtoken ids as one integer array, each
    sentence's start offset and encoding (indexed by document, then position
    in the document), and each document's ``(lo, hi)`` range of the ids.
    """

    def __init__(self, documents: list[Document], vocab: SubwordVocab):
        self.documents = documents
        self.vocab = vocab
        ids: list[int] = []
        self.sentences: list[list[tuple[int, SubwordEncoding]]] = []
        self.doc_ranges: list[tuple[int, int]] = []
        for document in documents:
            lo = len(ids)
            encoded = []
            for sentence in document.sentences:
                enc = encode(sentence.texts, vocab)
                encoded.append((len(ids), enc))
                ids.extend(enc.ids)
            self.sentences.append(encoded)
            self.doc_ranges.append((lo, len(ids)))
        self.ids = np.asarray(ids, dtype=np.intp)


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
    left = max(lo, start - config.window)
    return ContextualizedSentence(
        window=stream.ids[left:min(hi, end + config.window)], core_offset=start - left,
        core=core, bos_id=stream.vocab.bos_id, eos_id=stream.vocab.eos_id)


def fit_to_length(ctx: ContextualizedSentence, max_length: int) -> ContextualizedSentence:
    """Symmetrically trim context so the assembled input fits `max_length`.

    Core subtokens are never trimmed; if the core alone exceeds the budget
    this raises instead. The trimmed window is a narrower view of the same ids.
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
    start = max(0, min(ctx.core_offset - budget // 2, ctx.assembled_length - max_length))
    fitted = replace(ctx, window=ctx.window[start:start + max_length - 2],
                     core_offset=ctx.core_offset - start)
    logger.warning("truncated context from %d to %d subtokens to fit %d positions",
                   ctx.assembled_length, fitted.assembled_length, max_length)
    return fitted
