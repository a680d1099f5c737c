import numpy as np
import pytest

from docner import autodiff as ad
from docner.autodiff import Tensor
from docner.context import (ContextConfig, ContextualizedSentence, SubtokenStream,
                            build_context)
from docner.corpus import parse_conll
from docner.encoder import (StaticEmbeddingTable, TransformerConfig,
                            TransformerEncoder, concat_word_embeddings,
                            encode_transformer, extract_core_tokens, pool_layers)
from docner.tokenizer import train_vocab

TINY = dict(layers=2, heads=2, model_dim=8, ff_dim=16, max_positions=64)


def make_ctx(core_ids, left=(), right=(), bos=0, eos=1,
             firsts=None, counts=None):
    from docner.tokenizer import SubwordEncoding

    firsts = firsts if firsts is not None else list(range(len(core_ids)))
    counts = counts if counts is not None else [1] * len(core_ids)
    enc = SubwordEncoding(ids=list(core_ids), first_subtoken_of_token=firsts,
                          subtoken_count_per_token=counts)
    return ContextualizedSentence(left_ids=list(left), core=enc,
                                  right_ids=list(right),
                                  core_start=len(left) + 1, bos_id=bos, eos_id=eos)


@pytest.fixture
def encoder(rng):
    return TransformerEncoder(TransformerConfig(vocab_size=30, **TINY), rng)


class TestTransformerConfig:
    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            TransformerConfig(heads=3, model_dim=8, vocab_size=10)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=10, dropout=1.0)


class TestEncodeTransformer:
    def test_right_context_changes_core_rows(self, encoder):
        core = [5, 6, 7]
        a = make_ctx(core, right=[8, 9])
        b = make_ctx(core, right=[9, 8])
        with ad.no_grad():
            ha = encode_transformer(a, encoder)[-1].data
            hb = encode_transformer(b, encoder)[-1].data
        core_rows = slice(1, 4)
        assert not np.allclose(ha[core_rows], hb[core_rows])

    def test_zero_layer_model_position_independent(self, rng):
        enc = TransformerEncoder(
            TransformerConfig(layers=0, heads=2, model_dim=8, ff_dim=16,
                              max_positions=32, vocab_size=30), rng)
        a, b = make_ctx([5, 6], right=[7]), make_ctx([5, 6], right=[9])
        with ad.no_grad():
            ha = enc.forward(a.assembled_ids())
            hb = enc.forward(b.assembled_ids())
        assert len(ha) == 1
        np.testing.assert_array_equal(ha[0].data[:3], hb[0].data[:3])

    def test_zero_position_embeddings_make_context_order_irrelevant(self, encoder):
        encoder.params["pos_emb"].data[:] = 0.0
        a = make_ctx([5, 6, 7], left=[10, 11])
        b = make_ctx([5, 6, 7], left=[11, 10])
        with ad.no_grad():
            ha = encode_transformer(a, encoder)[-1].data
            hb = encode_transformer(b, encoder)[-1].data
        np.testing.assert_allclose(ha[3:6], hb[3:6], atol=1e-12)

    def test_with_position_embeddings_order_matters(self, encoder):
        a = make_ctx([5, 6, 7], left=[10, 11])
        b = make_ctx([5, 6, 7], left=[11, 10])
        with ad.no_grad():
            ha = encode_transformer(a, encoder)[-1].data
            hb = encode_transformer(b, encoder)[-1].data
        assert not np.allclose(ha[3:6], hb[3:6])

    def test_over_length_input_errors(self, encoder):
        ctx = make_ctx(list(range(5)) * 20)
        with pytest.raises(ValueError, match="context window"):
            encode_transformer(ctx, encoder)

    def test_deterministic(self, rng):
        cfg = TransformerConfig(vocab_size=30, **TINY)
        e1 = TransformerEncoder(cfg, np.random.default_rng(3))
        e2 = TransformerEncoder(cfg, np.random.default_rng(3))
        ctx = make_ctx([4, 5, 6], left=[2], right=[3])
        with ad.no_grad():
            h1 = encode_transformer(ctx, e1)[-1].data
            h2 = encode_transformer(ctx, e2)[-1].data
        np.testing.assert_array_equal(h1, h2)

    def test_returns_layers_plus_embeddings(self, encoder):
        ctx = make_ctx([3, 4])
        with ad.no_grad():
            hidden = encode_transformer(ctx, encoder)
        assert len(hidden) == encoder.config.layers + 1
        assert all(h.shape == (4, 8) for h in hidden)


class TestPoolLayers:
    def test_last_layer_identity(self, encoder):
        with ad.no_grad():
            hidden = encode_transformer(make_ctx([3, 4, 5]), encoder)
        assert pool_layers(hidden, "last_layer") is hidden[-1]

    def test_two_term_mean(self, rng):
        enc = TransformerEncoder(
            TransformerConfig(layers=1, heads=2, model_dim=8, ff_dim=16,
                              max_positions=32, vocab_size=30), rng)
        with ad.no_grad():
            hidden = encode_transformer(make_ctx([3, 4]), enc)
            pooled = pool_layers(hidden, "all_layer_mean")
        np.testing.assert_allclose(pooled.data,
                                   (hidden[0].data + hidden[1].data) / 2.0,
                                   atol=1e-12)

    def test_last_four_concat_width(self, rng):
        enc = TransformerEncoder(
            TransformerConfig(layers=4, heads=2, model_dim=8, ff_dim=16,
                              max_positions=32, vocab_size=30), rng)
        with ad.no_grad():
            hidden = encode_transformer(make_ctx([3, 4]), enc)
            pooled = pool_layers(hidden, "last_four_concat")
        assert pooled.shape == (4, 32)  # 4 * model_dim

    def test_strategies_match_direct_arithmetic(self, rng):
        hidden = [Tensor(rng.normal(size=(5, 4))) for _ in range(6)]
        np.testing.assert_array_equal(pool_layers(hidden, "last_layer").data,
                                      hidden[-1].data)
        np.testing.assert_allclose(
            pool_layers(hidden, "all_layer_mean").data,
            np.mean([h.data for h in hidden], axis=0), atol=1e-12)
        np.testing.assert_array_equal(
            pool_layers(hidden, "last_four_concat").data,
            np.concatenate([h.data for h in hidden[-4:]], axis=1))

    def test_too_few_layers_for_last_four(self, rng):
        hidden = [Tensor(rng.normal(size=(3, 4))) for _ in range(3)]
        with pytest.raises(ValueError, match="at least 4"):
            pool_layers(hidden, "last_four_concat")

    def test_unknown_strategy(self, rng):
        with pytest.raises(ValueError, match="unknown pooling"):
            pool_layers([Tensor(rng.normal(size=(2, 2)))], "middle")


class TestExtractCoreTokens:
    def test_window_zero_single_subtokens(self, rng):
        pooled = Tensor(rng.normal(size=(5, 3)))  # BOS + 3 tokens + EOS
        ctx = make_ctx([10, 11, 12])
        out = extract_core_tokens(pooled, ctx)
        np.testing.assert_array_equal(out.data, pooled.data[1:4])

    def test_row_count_independent_of_context(self, rng):
        ctx = make_ctx([10, 11, 12], left=[1] * 7, right=[2] * 9)
        pooled = Tensor(rng.normal(size=(ctx.assembled_length, 4)))
        assert extract_core_tokens(pooled, ctx).shape == (3, 4)

    def test_index_bookkeeping_oracle(self, rng):
        # multi-subtoken tokens: alignment [0, 2, 3] within the core
        ctx = make_ctx([4, 5, 6, 7, 8], left=[1, 2], right=[3],
                       firsts=[0, 2, 3], counts=[2, 1, 2])
        pooled = Tensor(rng.normal(size=(ctx.assembled_length, 4)))
        out = extract_core_tokens(pooled, ctx)
        offset = 1 + 2  # BOS + left context
        expected_rows = [offset + 0, offset + 2, offset + 3]
        np.testing.assert_array_equal(out.data, pooled.data[expected_rows])

    def test_offset_mismatch_errors(self, rng):
        ctx = make_ctx([10, 11])
        with pytest.raises(ValueError, match="assembled"):
            extract_core_tokens(Tensor(rng.normal(size=(99, 3))), ctx)


class TestStaticEmbeddings:
    def test_zero_dim_table_is_identity(self, rng):
        reps = Tensor(rng.normal(size=(3, 4)))
        table = StaticEmbeddingTable(["a", "b"], 0, rng)
        assert concat_word_embeddings(reps, ["a", "b", "c"], table) is reps
        assert concat_word_embeddings(reps, ["a", "b", "c"], None) is reps

    def test_all_oov_tokens_share_oov_vector(self, rng):
        table = StaticEmbeddingTable(["known"], 5, rng)
        reps = Tensor(rng.normal(size=(3, 2)))
        out = concat_word_embeddings(reps, ["never", "seen", "words"], table).data
        oov = table.vectors.data[0]
        for row in out:
            np.testing.assert_array_equal(row[2:], oov)

    def test_mixed_lookups_match_table(self, rng):
        table = StaticEmbeddingTable(["Paris", "city"], 3, rng)
        reps = Tensor(rng.normal(size=(4, 2)))
        out = concat_word_embeddings(reps, ["Paris", "city", "venus", "Paris"],
                                     table).data
        vecs = table.vectors.data
        np.testing.assert_array_equal(out[0, 2:], vecs[table.index["Paris"]])
        np.testing.assert_array_equal(out[1, 2:], vecs[table.index["city"]])
        np.testing.assert_array_equal(out[2, 2:], vecs[0])
        np.testing.assert_array_equal(out[3, 2:], out[0, 2:])
        np.testing.assert_array_equal(out[:, :2], reps.data)

    def test_lowercase_fallback(self, rng):
        table = StaticEmbeddingTable(["paris"], 3, rng)
        assert table.row_of("Paris") == table.index["paris"]
        assert table.row_of("PARIS") == table.index["paris"]
        assert table.row_of("Venus") == 0  # exact and lowercase both miss -> OOV

    def test_row_count_mismatch(self, rng):
        table = StaticEmbeddingTable(["a"], 2, rng)
        with pytest.raises(ValueError):
            concat_word_embeddings(Tensor(rng.normal(size=(2, 3))), ["a"], table)


class TestContextLocality:
    def test_enforced_doc_start_ignores_previous_document_content(self):
        text_a = "-DOCSTART- O\n\nalpha O\nbeta O\n\n-DOCSTART- O\n\ntarget B-LOC\nhere O\n"
        text_b = "-DOCSTART- O\n\ngamma O\ndelta O\nextra O\n\n-DOCSTART- O\n\ntarget B-LOC\nhere O\n"
        ca, cb = parse_conll(text_a), parse_conll(text_b)
        vocab = train_vocab(ca, 60)  # alphabet covers both variants
        cfg = TransformerConfig(vocab_size=len(vocab), **TINY)
        enc = TransformerEncoder(cfg, np.random.default_rng(0))
        outs = []
        for corpus in (ca, cb):
            doc = corpus.documents[1]
            ctx = build_context(doc.sentences[0],
                                SubtokenStream(corpus.documents, vocab),
                                ContextConfig(window=16, enforce_boundaries=True))
            with ad.no_grad():
                hidden = encode_transformer(ctx, enc)
                outs.append(extract_core_tokens(
                    pool_layers(hidden, "last_layer"), ctx).data)
        np.testing.assert_array_equal(outs[0], outs[1])
