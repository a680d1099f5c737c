import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docner import autodiff as ad
from docner.autodiff import Tensor
from docner.context import (ContextConfig, ContextualizedSentence, SubtokenStream,
                            build_context)
from docner.corpus import parse_conll
from docner.encoder import (POOL_STRATEGIES, PaddedBatch, StaticEmbeddingTable,
                            TransformerConfig, TransformerEncoder,
                            concat_word_embeddings, encode_transformer,
                            extract_core_tokens, pool_layers)
from docner.tokenizer import train_vocab
from oracle_ops import grad_check, transpose, transformer_forward

TINY = dict(layers=2, heads=2, model_dim=8, ff_dim=16, max_positions=64)
PAD = 3  # the pad id of these tests' 30-symbol vocabularies


def make_ctx(core_ids, left=(), right=(), bos=0, eos=1,
             firsts=None, counts=None):
    from docner.tokenizer import SubwordEncoding

    firsts = firsts if firsts is not None else list(range(len(core_ids)))
    counts = counts if counts is not None else [1] * len(core_ids)
    enc = SubwordEncoding(ids=list(core_ids), first_subtoken_of_token=firsts,
                          subtoken_count_per_token=counts)
    return ContextualizedSentence(window=np.asarray([*left, *core_ids, *right]),
                                  core_offset=len(left), core=enc, bos_id=bos, eos_id=eos)


@st.composite
def windows_over_a_pool(draw):
    """A context over one of three small windows, its core a drawn span of
    it whose tokens are 1-2 subtokens long, so that drawn lists hold equal
    windows with cores in different places."""
    window = draw(st.sampled_from([[5], [5, 6, 7, 8], [8, 5, 6, 7, 9, 4]]))
    start = draw(st.integers(0, len(window) - 1))
    end = draw(st.integers(start + 1, len(window)))
    counts, left = [], end - start
    while left:
        counts.append(draw(st.integers(1, min(2, left))))
        left -= counts[-1]
    return make_ctx(window[start:end], left=window[:start], right=window[end:],
                    firsts=[sum(counts[:t]) for t in range(len(counts))], counts=counts)


def batch_of(*ctxs):
    return PaddedBatch(list(ctxs), PAD)


@pytest.fixture
def encoder(rng):
    return TransformerEncoder(TransformerConfig(**TINY), 30, rng)


class TestTransformerConfig:
    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            TransformerConfig(heads=3, model_dim=8)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            TransformerConfig(dropout=1.0)

    def test_positions_fit_bos_one_subtoken_and_eos(self):
        with pytest.raises(ValueError, match="max_positions"):
            TransformerConfig(max_positions=2)
        assert TransformerConfig(max_positions=3).max_positions == 3


class TestEncodeTransformer:
    def test_right_context_changes_core_rows(self, encoder):
        core = [5, 6, 7]
        a = make_ctx(core, right=[8, 9])
        b = make_ctx(core, right=[9, 8])
        with ad.no_grad():
            ha = encode_transformer(batch_of(a), encoder)[-1].data
            hb = encode_transformer(batch_of(b), encoder)[-1].data
        assert ha.shape == (3, 8)  # the last layer holds the core rows only
        assert not np.allclose(ha, hb)

    def test_zero_layer_model_position_independent(self, rng):
        enc = TransformerEncoder(
            TransformerConfig(layers=0, heads=2, model_dim=8, ff_dim=16,
                              max_positions=32), 30, rng)
        a, b = make_ctx([5, 6], right=[7]), make_ctx([5, 6], right=[9])
        with ad.no_grad():
            ha = enc.forward(np.asarray([a.assembled_ids()]), [a.assembled_length],
                             np.asarray([0]), np.asarray([[1, 2]]))
            hb = enc.forward(np.asarray([b.assembled_ids()]), [b.assembled_length],
                             np.asarray([0]), np.asarray([[1, 2]]))
        assert len(ha) == 1
        np.testing.assert_array_equal(ha[0].data[:3], hb[0].data[:3])

    def test_zero_position_embeddings_make_context_order_irrelevant(self, encoder):
        encoder.params["pos_emb"].data[:] = 0.0
        a = make_ctx([5, 6, 7], left=[10, 11])
        b = make_ctx([5, 6, 7], left=[11, 10])
        with ad.no_grad():
            ha = encode_transformer(batch_of(a), encoder)[-1].data
            hb = encode_transformer(batch_of(b), encoder)[-1].data
        assert ha.shape == (3, 8)
        np.testing.assert_allclose(ha, hb, atol=1e-12)

    def test_with_position_embeddings_order_matters(self, encoder):
        a = make_ctx([5, 6, 7], left=[10, 11])
        b = make_ctx([5, 6, 7], left=[11, 10])
        with ad.no_grad():
            ha = encode_transformer(batch_of(a), encoder)[-1].data
            hb = encode_transformer(batch_of(b), encoder)[-1].data
        assert ha.shape == (3, 8)
        assert not np.allclose(ha, hb)

    def test_over_length_input_errors(self, encoder):
        ctx = make_ctx(list(range(5)) * 20)
        with pytest.raises(ValueError, match="context window"):
            encode_transformer(batch_of(ctx), encoder)

    def test_deterministic(self, rng):
        cfg = TransformerConfig(**TINY)
        e1 = TransformerEncoder(cfg, 30, np.random.default_rng(3))
        e2 = TransformerEncoder(cfg, 30, np.random.default_rng(3))
        ctx = make_ctx([4, 5, 6], left=[2], right=[3])
        with ad.no_grad():
            h1 = encode_transformer(batch_of(ctx), e1)[-1].data
            h2 = encode_transformer(batch_of(ctx), e2)[-1].data
        np.testing.assert_array_equal(h1, h2)

    def test_returns_layers_plus_embeddings(self, encoder):
        ctx = make_ctx([3, 4])
        with ad.no_grad():
            hidden = encode_transformer(batch_of(ctx), encoder)
        assert len(hidden) == encoder.config.layers + 1
        assert all(h.shape == (4, 8) for h in hidden[:-1])
        assert hidden[-1].shape == (2, 8)  # the core rows only


def reference_forward(encoder, ids):
    """The per-sentence forward pass the batched encoder replaced, kept as
    its oracle: one unpadded [n, D] sequence, no attention mask."""
    c = encoder.config
    n = len(ids)
    p = encoder.params
    x = ad.take_rows(p["tok_emb"], np.asarray(ids, dtype=np.intp)) + \
        ad.narrow(p["pos_emb"], 0, 0, n)
    hidden = [x]
    head_dim = c.model_dim // c.heads
    inv_sqrt = 1.0 / math.sqrt(head_dim)
    for i in range(c.layers):
        a = ad.layer_norm(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
        q = a @ p[f"l{i}.wq"] + p[f"l{i}.wq_b"]
        k = a @ p[f"l{i}.wk"] + p[f"l{i}.wk_b"]
        v = a @ p[f"l{i}.wv"] + p[f"l{i}.wv_b"]
        q3 = transpose(ad.reshape(q, (n, c.heads, head_dim)), (1, 0, 2))
        k3 = transpose(ad.reshape(k, (n, c.heads, head_dim)), (1, 0, 2))
        v3 = transpose(ad.reshape(v, (n, c.heads, head_dim)), (1, 0, 2))
        att = ad.softmax((q3 @ transpose(k3, (0, 2, 1))) * inv_sqrt, axis=-1)
        o = ad.reshape(transpose(att @ v3, (1, 0, 2)), (n, c.model_dim))
        x = x + (o @ p[f"l{i}.wo"] + p[f"l{i}.wo_b"])
        f = ad.layer_norm(x, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
        x = x + (ad.gelu(f @ p[f"l{i}.w1"] + p[f"l{i}.w1_b"]) @ p[f"l{i}.w2"]
                 + p[f"l{i}.w2_b"])
        if i == c.layers - 1:
            x = ad.layer_norm(x, p["final_ln_g"], p["final_ln_b"])
        hidden.append(x)
    return hidden


def mixed_length_batch(rng, max_positions):
    """A 1-subtoken core without context, a short and a long input with
    multi-subtoken tokens, and one of exactly `max_positions`."""
    def ctx(core_tokens, left, right=None):
        counts = list(rng.integers(1, 3, core_tokens))
        firsts = list(np.cumsum([0] + counts[:-1]))
        core = list(rng.integers(4, 30, sum(counts)))
        if right is None:  # fill the positions up
            right = max_positions - 2 - left - len(core)
        return make_ctx(core, left=rng.integers(4, 30, left),
                        right=rng.integers(4, 30, right), firsts=firsts, counts=counts)

    return [make_ctx([7]), ctx(4, 3, 4), ctx(10, 20, 20), ctx(20, 10)]


def assert_close_to(actual, reference):
    """Equal within 1e-10 of the reference's largest magnitude."""
    scale = np.abs(reference).max()
    np.testing.assert_allclose(actual, reference, rtol=0, atol=1e-10 * scale)


class TestBatchedForward:
    @pytest.mark.parametrize("strategy", POOL_STRATEGIES)
    def test_rows_match_per_sentence_reference(self, rng, strategy):
        enc = TransformerEncoder(
            TransformerConfig(layers=4, heads=2, model_dim=8, ff_dim=16,
                              max_positions=64), 30, rng)
        ctxs = mixed_length_batch(rng, 64)
        lengths = [c.assembled_length for c in ctxs]
        assert lengths[0] == 3 and lengths[-1] == 64 and len(set(lengths)) == 4
        batch = batch_of(*ctxs)
        m = batch.core_width
        with ad.no_grad():
            hidden = encode_transformer(batch, enc)
            core = pool_layers(extract_core_tokens(hidden, batch, strategy), strategy).data
            assert all(h.shape[0] == 4 * 64 for h in hidden[:-1])
            assert hidden[-1].shape[0] == 4 * m
            start = 0
            for b, ctx in enumerate(ctxs):
                ref = reference_forward(enc, ctx.assembled_ids())
                for h, r in zip(hidden[:-1], ref[:-1]):
                    assert_close_to(h.data[b * 64:b * 64 + lengths[b]], r.data)
                aligned = ctx.shifted_alignment()
                assert_close_to(hidden[-1].data[b * m:b * m + len(aligned)],
                                ref[-1].data[aligned])
                ref_core = pool_layers(ref, strategy).data[aligned]
                assert_close_to(core[start:start + len(ref_core)], ref_core)
                start += len(ref_core)
        assert start == core.shape[0]

    def test_padding_does_not_reach_real_rows(self, encoder, rng):
        ctxs = mixed_length_batch(rng, 64)
        batch = batch_of(*ctxs)
        ids = np.asarray(batch.assembled_ids()).reshape(4, 64)
        queries = batch.queries
        m = batch.core_width
        with ad.no_grad():
            before = [h.data.copy() for h in encode_transformer(batch, encoder)]
        for b, ctx in enumerate(ctxs):
            n, tokens = ctx.assembled_length, len(ctx.shifted_alignment())
            saved = [encoder.params["tok_emb"].data.copy(),
                     encoder.params["pos_emb"].data.copy()]
            encoder.params["tok_emb"].data[PAD] += rng.normal(size=8) * 10.0
            encoder.params["pos_emb"].data[n:] += rng.normal(size=(64 - n, 8)) * 10.0
            # the padded query slots of every sentence read other positions
            moved = queries.copy()
            for c, other in enumerate(ctxs):
                spare = m - len(other.shifted_alignment())
                moved[c, m - spare:] = rng.integers(0, 64, spare)
            with ad.no_grad():
                after = encoder.forward(ids, batch.lengths, batch.owner, moved)
            encoder.params["tok_emb"].data, encoder.params["pos_emb"].data = saved
            rows = slice(b * 64, b * 64 + n)
            for h0, h1 in zip(before[:-1], after[:-1]):
                np.testing.assert_array_equal(h1.data[rows], h0[rows])
            core_rows = slice(b * m, b * m + tokens)
            np.testing.assert_array_equal(after[-1].data[core_rows], before[-1][core_rows])

    @settings(max_examples=60, deadline=None)
    @given(ctxs=st.lists(windows_over_a_pool(), min_size=1, max_size=6))
    @example(ctxs=[make_ctx([5]), make_ctx([5, 6, 7], left=[8]),
                   make_ctx([8, 5], right=[6, 7])])
    def test_pad_slots_are_listed_and_counted(self, ctxs):
        batch = batch_of(make_ctx([5]), make_ctx([5, 6, 7], left=[8]))
        assert batch.width == 6
        assert batch.assembled_ids() == [0, 5, 1, PAD, PAD, PAD, 0, 8, 5, 6, 7, 1]
        assert batch.core_rows().tolist() == [1, 8, 9, 10]
        assert batch.core_width == 3
        np.testing.assert_array_equal(batch.queries, [[1, 0, 0], [2, 3, 4]])
        assert batch.core.tolist() == [0, 3, 4, 5]
        # in a recorded batch and in one whose equal windows share a row: rows
        # in order of first use, each sentence's row its assembled ids, then
        # pads, and its query slots its core first subtokens, then BOS
        recorded = batch_of(*ctxs)
        with ad.no_grad():
            shared = batch_of(*ctxs)
        windows = [ctx.window.tobytes() for ctx in ctxs]
        assert recorded.owner.tolist() == list(range(len(ctxs)))
        assert shared.owner.tolist() == [list(dict.fromkeys(windows)).index(w)
                                         for w in windows]
        aligned = [ctx.shifted_alignment() for ctx in ctxs]
        m = max(map(len, aligned))
        for batch in (recorded, shared):
            assert len(batch.ids) == batch.owner.max() + 1
            assert batch.core_width == m and batch.queries.shape == (len(ctxs), m)
            assert batch.core_rows().tolist() == [batch.owner[b] * batch.width + p
                                                  for b, a in enumerate(aligned) for p in a]
            assert batch.core.tolist() == [b * m + j for b, a in enumerate(aligned)
                                           for j in range(len(a))]
            for b, (ctx, r) in enumerate(zip(ctxs, batch.owner)):
                pads = [PAD] * (batch.width - ctx.assembled_length)
                assert batch.ids[r].tolist() == ctx.assembled_ids() + pads
                assert batch.queries[b].tolist() == aligned[b] + [0] * (m - len(aligned[b]))

    def test_equal_inputs_share_a_row_only_without_a_graph(self, encoder):
        ctxs = [make_ctx([5, 6], right=[7]), make_ctx([5]), make_ctx([6, 7], left=[5])]
        assert ctxs[0].assembled_ids() == ctxs[2].assembled_ids()
        recorded = batch_of(*ctxs)
        assert (recorded.owner.tolist(), len(recorded.ids)) == ([0, 1, 2], 3)
        with ad.no_grad():
            batch = batch_of(*ctxs)
            hidden = encode_transformer(batch, encoder)
        assert batch.owner.tolist() == [0, 1, 0] and batch.lengths == [5, 3]
        assert batch.assembled_ids() == [0, 5, 6, 7, 1, 0, 5, 1, PAD, PAD]
        assert batch.core_rows().tolist() == [1, 2, 6, 2, 3]
        np.testing.assert_array_equal(batch.queries, [[1, 2], [1, 0], [2, 3]])
        assert hidden[0].shape[0] == 2 * 5 and hidden[-1].shape[0] == 3 * 2
        with pytest.raises(ValueError, match="no_grad"):
            encode_transformer(batch, encoder)


def padded_encoder_case(rng, dropout):
    """An encoder deep enough for every pooling strategy, its parameters at
    a scale that keeps every gradient well above rounding, and a padded
    batch whose shorter cores repeat the BOS query slot."""
    enc = TransformerEncoder(TransformerConfig(layers=4, heads=2, model_dim=8, ff_dim=16,
                                               max_positions=64, dropout=dropout), 30, rng)
    for param in enc.parameters():
        param.data = rng.normal(0.0, 0.5, param.data.shape)
    batch = batch_of(*mixed_length_batch(rng, 64))
    return enc, batch, np.asarray(batch.assembled_ids()).reshape(4, 64)


def run_encoder(forward, enc, batch, ids, strategy, upstream, seed):
    """Layer outputs, their gradients and every parameter gradient of a
    weighted sum of the pooled core rows plus one of every last-layer query
    slot, the repeated BOS slots included; dropout drawn from `seed`."""
    for param in enc.parameters():
        param.grad = None
    hidden = forward(ids, batch.lengths, batch.owner, batch.queries, train=True,
                     rng=np.random.default_rng(seed))
    pooled = pool_layers(extract_core_tokens(hidden, batch, strategy), strategy)
    slots = np.cos(np.arange(hidden[-1].data.size)).reshape(hidden[-1].shape)
    (ad.tsum(pooled * upstream) + ad.tsum(hidden[-1] * slots)).backward()
    return ([h.data for h in hidden], [h.grad for h in hidden],
            {name: param.grad for name, param in enc.params.items()})


def assert_within(actual, reference):
    """Within 1e-10 of the reference, relative to its largest magnitude or 1."""
    scale = max(np.abs(reference).max(), 1.0)
    np.testing.assert_allclose(actual, reference, rtol=0, atol=1e-10 * scale)


class TestFusedLayer:
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("strategy", POOL_STRATEGIES)
    def test_matches_op_by_op_oracle(self, rng, strategy, dropout):
        enc, batch, ids = padded_encoder_case(rng, dropout)
        width = 8 * (4 if strategy == "last_four_concat" else 1)
        upstream = rng.normal(size=(len(batch.core), width))
        fused = run_encoder(enc.forward, enc, batch, ids, strategy, upstream, 5)
        oracle = run_encoder(lambda *args, **kw: transformer_forward(enc, *args, **kw),
                             enc, batch, ids, strategy, upstream, 5)
        for out, ref in zip(fused[0], oracle[0]):
            np.testing.assert_array_equal(out, ref)
        for grad, ref in zip(fused[1], oracle[1]):
            if ref is None:  # a layer the strategy does not read
                assert grad is None
            else:
                assert_within(grad, ref)
        assert fused[2].keys() == oracle[2].keys()
        for name, ref in oracle[2].items():
            assert_within(fused[2][name], ref)

    def test_passes_finite_differences(self, rng):
        enc = TransformerEncoder(TransformerConfig(layers=2, heads=2, model_dim=4, ff_dim=8,
                                                   max_positions=8, dropout=0.3), 6, rng)
        for param in enc.parameters():
            param.data = rng.normal(0.0, 0.5, param.data.shape)
        # a 1-token core pads the batch and repeats its BOS query slot
        batch = PaddedBatch([make_ctx([4]), make_ctx([2, 5, 4], left=[5], right=[2])], 3)
        ids = np.asarray(batch.assembled_ids()).reshape(2, batch.width)
        upstream = rng.normal(size=(4, 4))

        def objective():
            hidden = enc.forward(ids, batch.lengths, batch.owner, batch.queries,
                                 train=True, rng=np.random.default_rng(11))
            core = extract_core_tokens(hidden, batch, "all_layer_mean")
            return ad.tsum(pool_layers(core, "all_layer_mean") * upstream) * 1e-4

        assert grad_check(objective, enc.parameters(), epsilon=1e-5) < 1e-5

    def test_eval_mode_draws_no_dropout(self, rng):
        enc = TransformerEncoder(TransformerConfig(**TINY, dropout=0.5), 30, rng)
        batch = batch_of(make_ctx([3, 4]))
        ids = np.asarray(batch.assembled_ids()).reshape(1, -1)
        generator = np.random.default_rng(0)
        state = generator.bit_generator.state
        with ad.no_grad():
            enc.forward(ids, batch.lengths, batch.owner, batch.queries, rng=generator)
        assert generator.bit_generator.state == state


class TestPoolLayers:
    def test_last_layer_identity(self, encoder):
        with ad.no_grad():
            hidden = encode_transformer(batch_of(make_ctx([3, 4, 5])), encoder)
        assert pool_layers(hidden, "last_layer") is hidden[-1]

    def test_two_term_mean(self, rng):
        enc = TransformerEncoder(
            TransformerConfig(layers=1, heads=2, model_dim=8, ff_dim=16,
                              max_positions=32), 30, rng)
        batch = batch_of(make_ctx([3, 4]))
        with ad.no_grad():
            core = extract_core_tokens(encode_transformer(batch, enc), batch,
                                       "all_layer_mean")
            pooled = pool_layers(core, "all_layer_mean")
        np.testing.assert_allclose(pooled.data,
                                   (core[0].data + core[1].data) / 2.0,
                                   atol=1e-12)

    def test_last_four_concat_width(self, rng):
        enc = TransformerEncoder(
            TransformerConfig(layers=4, heads=2, model_dim=8, ff_dim=16,
                              max_positions=32), 30, rng)
        batch = batch_of(make_ctx([3, 4]))
        with ad.no_grad():
            core = extract_core_tokens(encode_transformer(batch, enc), batch,
                                       "last_four_concat")
            pooled = pool_layers(core, "last_four_concat")
        assert pooled.shape == (2, 32)  # 2 core tokens, 4 * model_dim

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
        [out] = extract_core_tokens([pooled], batch_of(ctx), "last_layer")
        np.testing.assert_array_equal(out.data, pooled.data[1:4])

    def test_row_count_independent_of_context(self, rng):
        ctx = make_ctx([10, 11, 12], left=[1] * 7, right=[2] * 9)
        pooled = Tensor(rng.normal(size=(ctx.assembled_length, 4)))
        [out] = extract_core_tokens([pooled], batch_of(ctx), "last_layer")
        assert out.shape == (3, 4)

    def test_index_bookkeeping_oracle(self, rng):
        # multi-subtoken tokens: alignment [0, 2, 3] within the core
        ctx = make_ctx([4, 5, 6, 7, 8], left=[1, 2], right=[3],
                       firsts=[0, 2, 3], counts=[2, 1, 2])
        pooled = Tensor(rng.normal(size=(ctx.assembled_length, 4)))
        [out] = extract_core_tokens([pooled], batch_of(ctx), "last_layer")
        offset = 1 + 2  # BOS + left context
        expected_rows = [offset + 0, offset + 2, offset + 3]
        np.testing.assert_array_equal(out.data, pooled.data[expected_rows])

    def test_last_layer_rows_come_from_its_query_slots(self, rng):
        batch = batch_of(make_ctx([10]), make_ctx([4, 5, 6, 7, 8], left=[1, 2],
                                                  firsts=[0, 2, 3], counts=[2, 1, 2]))
        assert (batch.width, batch.core_width) == (9, 3)
        full = Tensor(rng.normal(size=(2 * 9, 4)))
        last = Tensor(rng.normal(size=(2 * 3, 4)))
        [out] = extract_core_tokens([full, last], batch, "last_layer")
        np.testing.assert_array_equal(out.data, last.data[[0, 3, 4, 5]])
        first, second = extract_core_tokens([full, last], batch, "all_layer_mean")
        np.testing.assert_array_equal(first.data, full.data[[1, 12, 14, 15]])
        np.testing.assert_array_equal(second.data, out.data)

    @pytest.mark.parametrize("strategy,layers", [("last_layer", [4]),
                                                 ("all_layer_mean", [0, 1, 2, 3, 4]),
                                                 ("last_four_concat", [1, 2, 3, 4])])
    def test_gathers_only_the_pooled_layers(self, strategy, layers):
        batch = batch_of(make_ctx([10, 11]))
        hidden = [Tensor(np.full((4, 2), float(i))) for i in range(4)]
        hidden.append(Tensor(np.full((2, 2), 4.0)))  # the last layer's query slots
        core = extract_core_tokens(hidden, batch, strategy)
        assert [float(c.data[0, 0]) for c in core] == layers
        assert all(c.shape == (2, 2) for c in core)

    def test_offset_mismatch_errors(self, rng):
        ctx = make_ctx([10, 11])
        with pytest.raises(ValueError, match="assembled"):
            extract_core_tokens([Tensor(rng.normal(size=(99, 3)))], batch_of(ctx),
                                "last_layer")


class TestStaticEmbeddings:
    def test_zero_dim_table_rejected(self, rng):
        with pytest.raises(ValueError, match="word_dim"):
            StaticEmbeddingTable(["a", "b"], 0, rng)

    def test_no_table_is_identity(self, rng):
        reps = Tensor(rng.normal(size=(3, 4)))
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
        enc = TransformerEncoder(TransformerConfig(**TINY), len(vocab),
                                 np.random.default_rng(0))
        outs = []
        for corpus in (ca, cb):
            doc = corpus.documents[1]
            ctx = build_context(doc.sentences[0],
                                SubtokenStream(corpus.documents, vocab),
                                ContextConfig(window=16, enforce_boundaries=True))
            with ad.no_grad():
                batch = PaddedBatch([ctx], vocab.pad_id)
                core = extract_core_tokens(encode_transformer(batch, enc), batch,
                                           "last_layer")
                outs.append(pool_layers(core, "last_layer").data)
        np.testing.assert_array_equal(outs[0], outs[1])
