import itertools
import logging

import numpy as np
import pytest

from docner.context import (ContextConfig, ContextualizedSentence, SubtokenStream,
                            build_context, fit_to_length)
from docner.corpus import parse_conll
from docner.encoder import TransformerConfig
from docner.model import NerModel
from docner.tokenizer import SubwordEncoding, encode, train_vocab


def slice_oracle(sentence, document, documents, vocab, config):
    """Concatenate the whole (document or corpus) subtoken stream, slice
    around the core's offsets. Independent of SubtokenStream."""
    if config.enforce_boundaries:
        scope = document.sentences
    else:
        scope = [s for d in documents for s in d.sentences]
    stream, core_start = [], None
    for s in scope:
        if s is sentence:
            core_start = len(stream)
        stream.extend(encode(s.texts, vocab).ids)
    core_len = len(encode(sentence.texts, vocab).ids)
    left = stream[max(0, core_start - config.window):core_start]
    right = stream[core_start + core_len:core_start + core_len + config.window]
    return left, right


def trim_one_at_a_time(left, right, budget):
    """Reference trim: drop one subtoken at a time from the longer side
    (the far end of it), ties from the left, until `budget` remain."""
    left, right = list(left), list(right)
    while len(left) + len(right) > budget:
        if len(left) >= len(right):
            left.pop(0)
        else:
            right.pop()
    return left, right


def corpus_and_stream(text, char_level=True):
    corpus = parse_conll(text)
    if char_level:  # predictable subtoken counts: one per character
        alphabet = {c for s in corpus.sentences() for t in s.texts for c in t}
        vocab = train_vocab(corpus, len(alphabet) + 4)
    else:
        vocab = train_vocab(corpus, 120)
    return corpus, vocab, SubtokenStream(corpus.documents, vocab)


def coverage(sentence, stream, config):
    ctx = build_context(sentence, stream, config)
    return len(ctx.left_ids), len(ctx.right_ids)


MID_DOC_TEXT = "\n\n".join(
    "\n".join(f"w{i}x{j} O" for j in range(6)) for i in range(8)
)
OTHER_TEXT = "\n\n".join(
    "\n".join(f"x{i}w{j} O" for j in range(3 + i)) for i in range(5)
)


def contextualize_alternating(sentence, corpus, vocab, config):
    """Context of `sentence` from a model that tags another corpus in between."""
    other = parse_conll(OTHER_TEXT)
    model = NerModel(vocab, corpus.label_set,
                     TransformerConfig(layers=1, heads=1, model_dim=4, ff_dim=4,
                                       max_positions=256), context=config)
    model.contextualize(next(other.sentences()), other)
    model.contextualize(sentence, corpus)
    model.contextualize(list(other.sentences())[-1], other)
    return model.contextualize(sentence, corpus)


class TestBuildContext:
    def test_window_zero(self, two_doc_corpus, small_vocab):
        doc = two_doc_corpus.documents[0]
        ctx = build_context(doc.sentences[1],
                            SubtokenStream(two_doc_corpus.documents, small_vocab),
                            ContextConfig(window=0))
        assert ctx.left_ids == [] and ctx.right_ids == []
        assert ctx.core_start == 1
        assert ctx.assembled_ids() == [small_vocab.bos_id] + ctx.core.ids + \
            [small_vocab.eos_id]

    def test_document_start_enforced_ignores_previous_document(
            self, two_doc_corpus, small_vocab):
        doc = two_doc_corpus.documents[1]
        ctx = build_context(doc.sentences[0],
                            SubtokenStream(two_doc_corpus.documents, small_vocab),
                            ContextConfig(64, enforce_boundaries=True))
        assert ctx.left_ids == []

    def test_unenforced_crosses_document_boundary(self, two_doc_corpus, small_vocab):
        doc = two_doc_corpus.documents[1]
        stream = SubtokenStream(two_doc_corpus.documents, small_vocab)
        ctx = build_context(doc.sentences[0], stream, ContextConfig(64, False))
        prev_doc_ids = [i for s in two_doc_corpus.documents[0].sentences
                        for i in encode(s.texts, small_vocab).ids]
        assert ctx.left_ids == prev_doc_ids

    def test_mid_document_window_filled_and_matches_oracle(self):
        corpus, vocab, stream = corpus_and_stream(MID_DOC_TEXT)
        doc = corpus.documents[0]
        sentence = doc.sentences[4]
        config = ContextConfig(window=64)
        left, right = slice_oracle(sentence, doc, corpus.documents, vocab, config)
        for ctx in (build_context(sentence, stream, config),
                    contextualize_alternating(sentence, corpus, vocab, config)):
            assert len(ctx.left_ids) == len(ctx.right_ids) == 64
            assert ctx.left_ids == left and ctx.right_ids == right

    def test_contexts_may_cut_sentences_midway(self):
        corpus, vocab, stream = corpus_and_stream(MID_DOC_TEXT)
        doc = corpus.documents[0]
        sentence = doc.sentences[4]
        prev_len = len(encode(doc.sentences[3].texts, vocab).ids)
        config = ContextConfig(window=prev_len + 3)
        ctx = build_context(sentence, stream, config)
        expected_tail = encode(doc.sentences[2].texts, vocab).ids[-3:] + \
            encode(doc.sentences[3].texts, vocab).ids
        assert ctx.left_ids == expected_tail

    def test_core_preserved_across_windows(self, two_doc_corpus, small_vocab):
        doc = two_doc_corpus.documents[0]
        sentence = doc.sentences[1]
        encodings = []
        for window in (0, 1, 5, 64):
            ctx = build_context(sentence,
                                SubtokenStream(two_doc_corpus.documents, small_vocab),
                                ContextConfig(window))
            encodings.append((ctx.core.ids, ctx.core.first_subtoken_of_token))
            ids = ctx.assembled_ids()
            core_slice = ids[ctx.core_start:ctx.core_start + len(ctx.core.ids)]
            assert core_slice == ctx.core.ids
            shifted = ctx.shifted_alignment()
            assert shifted == [ctx.core_start + a
                               for a in ctx.core.first_subtoken_of_token]
        assert all(e == encodings[0] for e in encodings)

    def test_slice_identity(self):
        corpus, vocab, subtokens = corpus_and_stream(MID_DOC_TEXT)
        doc = corpus.documents[0]
        stream = [i for s in doc.sentences for i in encode(s.texts, vocab).ids]
        for sentence in doc.sentences:
            ctx = build_context(sentence, subtokens,
                                ContextConfig(7, enforce_boundaries=True))
            inner = ctx.assembled_ids()[1:-1]
            assert _find_sublist(inner, stream) is not None


def _find_sublist(needle, haystack):
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i:i + len(needle)] == needle:
            return i
    return None


class TestContextCoverage:
    def test_single_sentence_corpus(self):
        corpus, vocab, stream = corpus_and_stream("only O\nsentence O\n")
        doc = corpus.documents[0]
        assert coverage(doc.sentences[0], stream, ContextConfig(64)) == (0, 0)

    def test_left_limited_by_short_predecessor(self):
        corpus, vocab, stream = corpus_and_stream(MID_DOC_TEXT)
        doc = corpus.documents[0]
        prev_len = len(encode(doc.sentences[0].texts, vocab).ids)
        left, _ = coverage(doc.sentences[1], stream,
                           ContextConfig(64, enforce_boundaries=True))
        assert left == prev_len

    def test_window_sweep_values(self):
        corpus, vocab, stream = corpus_and_stream(MID_DOC_TEXT)
        doc = corpus.documents[0]
        mid = doc.sentences[4]
        for window in (48, 64):
            cov = coverage(mid, stream, ContextConfig(window))
            assert cov == (window, window)

    def test_monotonic_in_window(self):
        corpus, vocab, stream = corpus_and_stream(MID_DOC_TEXT)
        doc = corpus.documents[0]
        for sentence in doc.sentences:
            prev = (0, 0)
            for window in (0, 1, 4, 16, 64, 256):
                cov = coverage(sentence, stream, ContextConfig(window))
                assert cov[0] >= prev[0] and cov[1] >= prev[1]
                prev = cov

    def test_enforcement_dominance(self, two_doc_corpus, small_vocab):
        stream = SubtokenStream(two_doc_corpus.documents, small_vocab)
        for doc in two_doc_corpus.documents:
            for sentence in doc.sentences:
                for window in (0, 3, 64):
                    on = coverage(sentence, stream, ContextConfig(window, True))
                    off = coverage(sentence, stream, ContextConfig(window, False))
                    assert on[0] <= off[0] and on[1] <= off[1]


class TestFitToLength:
    def test_noop_when_fitting(self, two_doc_corpus, small_vocab):
        doc = two_doc_corpus.documents[0]
        ctx = build_context(doc.sentences[1],
                            SubtokenStream(two_doc_corpus.documents, small_vocab),
                            ContextConfig(4))
        assert fit_to_length(ctx, 512) is ctx

    def test_truncates_context_never_core(self, two_doc_corpus, small_vocab, caplog):
        doc = two_doc_corpus.documents[0]
        ctx = build_context(doc.sentences[1],
                            SubtokenStream(two_doc_corpus.documents, small_vocab),
                            ContextConfig(64))
        budget = len(ctx.core.ids) + 2 + 4
        with caplog.at_level(logging.WARNING, logger="docner.context"):
            trimmed = fit_to_length(ctx, budget)
        assert trimmed.assembled_length == budget
        assert trimmed.core.ids == ctx.core.ids
        assert abs(len(trimmed.left_ids) - len(trimmed.right_ids)) <= 1
        assert any("truncated context" in r.message for r in caplog.records)

    def test_matches_one_at_a_time_trimming(self, caplog):
        core = SubwordEncoding(ids=[7], first_subtoken_of_token=[0],
                               subtoken_count_per_token=[1])
        with caplog.at_level(logging.ERROR, logger="docner.context"):
            for n_left, n_right in itertools.product(range(16), repeat=2):
                ctx = ContextualizedSentence(
                    window=np.r_[np.arange(n_left), 7, np.arange(100, 100 + n_right)],
                    core_offset=n_left, core=core, bos_id=0, eos_id=1)
                for budget in range(n_left + n_right):
                    fitted = fit_to_length(ctx, 3 + budget)
                    assert (fitted.left_ids, fitted.right_ids) == trim_one_at_a_time(
                        ctx.left_ids, ctx.right_ids, budget)
                    assert fitted.core_start == len(fitted.left_ids) + 1

    @pytest.mark.parametrize("enforce", [False, True])
    def test_windows_are_views_of_the_stream(self, two_doc_corpus, small_vocab, caplog,
                                            enforce):
        stream = SubtokenStream(two_doc_corpus.documents, small_vocab)
        trimmed = 0
        with caplog.at_level(logging.ERROR, logger="docner.context"):
            for sentence in two_doc_corpus.sentences():
                ctx = build_context(sentence, stream, ContextConfig(64, enforce))
                assert np.shares_memory(ctx.window, stream.ids)
                if ctx.assembled_length > len(ctx.core.ids) + 2:
                    fitted = fit_to_length(ctx, ctx.assembled_length - 1)
                    assert fitted is not ctx and np.shares_memory(fitted.window, stream.ids)
                    trimmed += 1
        assert trimmed > 0

    def test_oversized_core_raises(self, two_doc_corpus, small_vocab):
        doc = two_doc_corpus.documents[0]
        ctx = build_context(doc.sentences[1],
                            SubtokenStream(two_doc_corpus.documents, small_vocab),
                            ContextConfig(0))
        with pytest.raises(ValueError, match="shrink the context window"):
            fit_to_length(ctx, 3)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ContextConfig(window=-1)
