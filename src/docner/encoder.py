"""Subtoken encoders: a small trainable transformer and static word embeddings.

The transformer is a standard pre-norm encoder with learned absolute
position embeddings over the full assembled input (context included),
trained from scratch. It encodes a batch of sentences in one pass, their
assembled inputs right-padded to the longest with padded keys masked out
of attention, and returns the output of every layer, embedding layer
included, so downstream code can pool layers the way the two training
regimes need (last layer, all-layer mean, last-four concat).

A batch is query slots over distinct windows: each encoder row is one
window's assembled input, and each sentence a set of query slots on its row,
its core tokens' first subtokens, the only positions read downstream. The
last layer, which no later layer reads as keys, is computed at the slots
only, against the keys and values of the sentence's row; callers take each
layer's core rows first and pool them after. While no graph is recorded,
sentences with equal assembled inputs (those of one document when the window
covers it whole under enforced boundaries) are slots on one row, so each
distinct input is encoded once, with the bits of a row per sentence (a batch
of one may differ in the last bits: BLAS blocks the matmuls by shape); while
one is, each sentence has its own row.

Each layer is one graph node with a hand-written backward. The attention
backward uses FlashAttention's identity rowsum(dP * P) = rowsum(dO * O)
(Dao et al. 2022), so the only [B, H, n, n] array a layer keeps is the
attention itself.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .context import ContextualizedSentence

POOL_STRATEGIES = ("last_layer", "all_layer_mean", "last_four_concat")
# one layer's parameters, in the order its graph node lists them
LAYER_PARAMS = ("ln1_g", "ln1_b", "wq", "wq_b", "wk", "wk_b", "wv", "wv_b",
                "wo", "wo_b", "ln2_g", "ln2_b", "w1", "w1_b", "w2", "w2_b")


@dataclass(frozen=True)
class TransformerConfig:
    layers: int = 4
    heads: int = 4
    model_dim: int = 128
    ff_dim: int = 512
    max_positions: int = 512
    dropout: float = 0.0

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if self.layers < 0 or self.heads < 1 or self.model_dim < 1:
            raise ValueError("invalid transformer dimensions")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.max_positions < 3:
            raise ValueError("max_positions must be at least 3: BOS, one subtoken "
                             f"and EOS, got {self.max_positions}")


class TransformerEncoder:
    """Pre-norm self-attention encoder returning all layer outputs; its
    embedding table has one row per subword id of a `vocab_size` vocabulary."""

    def __init__(self, config: TransformerConfig, vocab_size: int,
                 rng: np.random.Generator):
        self.config = config
        c = config
        scale = 0.02

        def normal(*shape):
            return Tensor(rng.normal(0.0, scale, size=shape))

        self.params: dict[str, Tensor] = {}
        p = self.params
        p["tok_emb"] = normal(vocab_size, c.model_dim)
        p["pos_emb"] = normal(c.max_positions, c.model_dim)
        for i in range(c.layers):
            p[f"l{i}.ln1_g"] = Tensor(np.ones(c.model_dim))
            p[f"l{i}.ln1_b"] = Tensor(np.zeros(c.model_dim))
            for name in ("wq", "wk", "wv", "wo"):
                p[f"l{i}.{name}"] = normal(c.model_dim, c.model_dim)
                p[f"l{i}.{name}_b"] = Tensor(np.zeros(c.model_dim))
            p[f"l{i}.ln2_g"] = Tensor(np.ones(c.model_dim))
            p[f"l{i}.ln2_b"] = Tensor(np.zeros(c.model_dim))
            p[f"l{i}.w1"] = normal(c.model_dim, c.ff_dim)
            p[f"l{i}.w1_b"] = Tensor(np.zeros(c.ff_dim))
            p[f"l{i}.w2"] = normal(c.ff_dim, c.model_dim)
            p[f"l{i}.w2_b"] = Tensor(np.zeros(c.model_dim))
        if c.layers > 0:
            p["final_ln_g"] = Tensor(np.ones(c.model_dim))
            p["final_ln_b"] = Tensor(np.zeros(c.model_dim))
        # each layer's graph-node parameters, the last with the final layer norm
        self._layer_params = [[p[f"l{i}.{name}"] for name in LAYER_PARAMS]
                             for i in range(c.layers)]
        if c.layers > 0:
            self._layer_params[-1] += [p["final_ln_g"], p["final_ln_b"]]

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def forward(self, ids: np.ndarray, lengths: Sequence[int], owner: np.ndarray,
                queries: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> list[Tensor]:
        """Encode a [R, n] batch of right-padded subtoken ids, one window per
        row, the first ``lengths[r]`` of row r real, for S sentences: sentence
        b is the query slots ``queries[b]`` [m] on row ``owner[b]``.

        Returns [embeddings, layer 1, ..., layer L]. Each is [R*n, D] with
        row r in rows r*n to r*n + n - 1, except layer L: it is computed only
        at the slots and is [S*m, D], row b*m + j holding position
        ``queries[b, j]`` of row ``owner[b]``. Its keys and values still come
        from every position of that row, and no later layer reads it, so
        those rows equal the full layer's. Padded keys get a -inf attention
        score, so a sentence's rows do not depend on the padding. While a
        graph is recorded `owner` must be the identity: a shared row has no
        backward.
        """
        c = self.config
        batch, n = ids.shape
        if ad.recording() and not np.array_equal(owner, np.arange(batch)):
            raise ValueError("sentences share encoder rows only under no_grad: "
                             "the shared layout has no backward")
        if n > c.max_positions:
            raise ValueError(
                f"assembled input of {n} subtokens exceeds max positions "
                f"{c.max_positions}; shrink the context window")
        p = self.params
        d = c.model_dim
        tokens = ad.reshape(ad.take_rows(p["tok_emb"], ids.reshape(-1)), (batch, n, d))
        x = ad.reshape(tokens + ad.narrow(p["pos_emb"], 0, 0, n), (batch * n, d))
        key_mask = None
        if min(lengths) < n:
            padded = np.arange(n) >= np.asarray(lengths)[:, None]
            key_mask = np.where(padded, -np.inf, 0.0).astype(x.dtype)[:, None, None, :]
        drop = (c.dropout, rng) if train and c.dropout > 0.0 else None
        hidden = [x]
        for i in range(c.layers):
            last = i == c.layers - 1
            slots = ((owner[:, None] * n + queries).reshape(-1), owner) if last else None
            x = self._layer(i, x, batch, key_mask, drop, slots)
            hidden.append(x)
        return hidden

    def _layer(self, i: int, x: Tensor, batch: int, key_mask: np.ndarray | None,
               drop, slots: tuple[np.ndarray, np.ndarray] | None) -> Tensor:
        """Transformer layer i over x [R*n, D] as one graph node over x and
        the layer's parameters, the last layer's final layer norm included.

        `slots` (last layer only) is (rows, owner): the flat rows of x the
        queries, the feed-forward block and the final layer norm are computed
        at, and the encoder row of each sentence, whose keys, values and key
        mask the sentence's queries read. `drop` is (rate, generator)
        in training with dropout, else None. The forward hands the matmuls
        and the softmax plain arrays, constants, so they record nothing; the
        layer norm and GELU nodes take their inputs as Tensors and keep the
        closures the backward calls.
        """
        c = self.config
        heads, head_dim = c.heads, c.model_dim // c.heads
        inv_sqrt = 1.0 / math.sqrt(head_dim)
        params = self._layer_params[i]
        (ln1_g, ln1_b, wq, wq_b, wk, wk_b, wv, wv_b, wo, wo_b,
         ln2_g, ln2_b, w1, w1_b, w2, w2_b, *final_ln) = params

        def split(t):  # [B*rows, D] -> [B, H, rows, d_head]
            return t.reshape(batch, -1, heads, head_dim).transpose(0, 2, 1, 3)

        def merge(t):  # [B, H, rows, d_head] -> [B*rows, D]
            return t.transpose(0, 2, 1, 3).reshape(-1, c.model_dim)

        def affine(t, w, b):  # t @ w + b, the bias added in place
            y = ad.matmul(t, w.data).data
            y += b.data
            return y

        def dropped(t):  # in place; the mask in t's dtype keeps the backward in it
            if drop is None:
                return t, None
            rate, rng = drop
            mask = np.divide(rng.random(t.shape) >= rate, 1.0 - rate, dtype=t.dtype)
            t *= mask
            return t, mask

        ln1 = ad.layer_norm(x, ln1_g, ln1_b)
        a = ln1.data
        k, v = affine(a, wk, wk_b), affine(a, wv, wv_b)
        xq, aq = x.data, a
        if slots is not None:  # each sentence's keys, values and key mask from its row
            rows, owner = slots
            k, v = (t.reshape(batch, -1, c.model_dim)[owner].reshape(-1, c.model_dim)
                    for t in (k, v))
            key_mask = None if key_mask is None else key_mask[owner]
            batch = len(owner)
            xq, aq = x.data[rows], a[rows]
        k, v = split(k), split(v)
        q = split(affine(aq, wq, wq_b))
        scores = ad.matmul(q, k.transpose(0, 1, 3, 2)).data
        scores *= inv_sqrt
        if key_mask is not None:
            scores += key_mask
        att = ad.softmax(scores, axis=-1).data
        ctx = merge(ad.matmul(att, v).data)
        x1, mask1 = dropped(affine(ctx, wo, wo_b))
        x1 += xq  # the residual
        ln2 = ad.layer_norm(Tensor(x1), ln2_g, ln2_b)
        f = ln2.data
        act = ad.gelu(Tensor(affine(f, w1, w1_b)))
        out, mask2 = dropped(affine(act.data, w2, w2_b))
        out += x1  # the residual
        if slots is not None:
            final = ad.layer_norm(Tensor(out), *final_ln)
            out = final.data

        def back(g):
            final_grads = []
            if slots is not None:
                g, *final_grads = final._backward(g)
            d_ff = g if mask2 is None else g * mask2
            d_pre = act._backward(d_ff @ w2.data.T)[0]
            d_x1, d_ln2_g, d_ln2_b = ln2._backward(d_pre @ w1.data.T)
            d_x1 += g
            d_o = d_x1 if mask1 is None else d_x1 * mask1
            d_ctx = d_o @ wo.data.T
            # FlashAttention's identity: rowsum(dP * P) = rowsum(dctx * ctx)
            delta = (d_ctx * ctx).reshape(batch, -1, heads, head_dim).sum(axis=-1)
            d_ctx = split(d_ctx)
            d_v = merge(np.matmul(att.transpose(0, 1, 3, 2), d_ctx))
            d_scores = np.matmul(d_ctx, v.transpose(0, 1, 3, 2))
            d_scores -= delta.transpose(0, 2, 1)[..., None]
            d_scores *= att
            d_q = merge(np.matmul(d_scores, k))
            d_q *= inv_sqrt
            d_k = merge(np.matmul(d_scores.transpose(0, 1, 3, 2), q))
            d_k *= inv_sqrt
            grads = [aq.T @ d_q, d_q.sum(axis=0), a.T @ d_k, d_k.sum(axis=0),
                     a.T @ d_v, d_v.sum(axis=0), ctx.T @ d_o, d_o.sum(axis=0),
                     d_ln2_g, d_ln2_b, f.T @ d_pre, d_pre.sum(axis=0),
                     act.data.T @ d_ff, d_ff.sum(axis=0), *final_grads]
            d_a = d_k @ wk.data.T
            d_a += d_v @ wv.data.T
            d_aq = d_q @ wq.data.T
            if slots is None:
                d_a += d_aq
                d_x = d_x1
            else:  # query slots may repeat a row
                ad.scatter_add_rows(d_a, rows, d_aq)
                d_x = np.zeros_like(x.data)
                ad.scatter_add_rows(d_x, rows, d_x1)
            d_x_ln, d_ln1_g, d_ln1_b = ln1._backward(d_a)
            d_x += d_x_ln
            return [d_x, d_ln1_g, d_ln1_b, *grads]

        return Tensor(out, (x, *params), back)


class PaddedBatch:
    """Sentences as query slots over distinct windows, the encoder's rows.

    ``ids[r]`` is row r: one window's assembled ids, ``lengths[r]`` of them,
    then ``pad_id`` up to ``width``; a full-width encoder output holds it in
    rows r*width onwards. Sentence b is the query slots ``queries[b]`` on row
    ``owner[b]``: its core first subtokens, then position 0 (BOS) up to
    ``core_width``. ``core`` indexes the real slots of the flat [S*core_width]
    slot layout. Built while no graph is recorded, the batch has one row per
    distinct window, in order of first use (BOS and EOS are the vocabulary's);
    built while one is, one row per sentence in order, as the backward needs.
    """

    def __init__(self, ctxs: list[ContextualizedSentence], pad_id: int):
        self.ctxs = ctxs
        shared = not ad.recording()
        row: dict[bytes | int, tuple[int, ContextualizedSentence]] = {}
        self.owner = np.asarray(
            [row.setdefault(ctx.window.tobytes() if shared else b, (len(row), ctx))[0]
             for b, ctx in enumerate(ctxs)], dtype=np.intp)
        firsts = [ctx for _, ctx in row.values()]
        self.lengths = [ctx.assembled_length for ctx in firsts]
        self.width = max(self.lengths)
        self.ids = np.full((len(firsts), self.width), pad_id, dtype=np.intp)
        for r, ctx in enumerate(firsts):
            self.ids[r, 1:len(ctx.window) + 1] = ctx.window
            self.ids[r, [0, len(ctx.window) + 1]] = ctx.bos_id, ctx.eos_id
        aligned = [ctx.shifted_alignment() for ctx in ctxs]
        self.core_width = max(map(len, aligned))
        self.queries = np.zeros((len(ctxs), self.core_width), dtype=np.intp)
        for b, positions in enumerate(aligned):
            self.queries[b, :len(positions)] = positions
        self.core = np.asarray([b * self.core_width + j for b, positions in enumerate(aligned)
                                for j in range(len(positions))], dtype=np.intp)

    def assembled_ids(self) -> list[int]:
        """Every row of the padded input, pad slots included, row after row."""
        return self.ids.ravel().tolist()

    def core_rows(self) -> np.ndarray:
        """Row of each core token's first subtoken in a full-width output:
        the position of its query slot on its sentence's row."""
        return (self.owner[:, None] * self.width + self.queries).ravel()[self.core]


def encode_transformer(batch: PaddedBatch, model: TransformerEncoder,
                       train: bool = False,
                       rng: np.random.Generator | None = None) -> list[Tensor]:
    """Run the encoder once over the padded rows of a batch, its last layer
    at the query slots of each sentence only."""
    return model.forward(batch.ids, batch.lengths, batch.owner, batch.queries,
                         train=train, rng=rng)


def check_pool_strategy(strategy: str, layers: int) -> None:
    """Raise unless `strategy` can pool an encoder of `layers` transformer layers."""
    if strategy not in POOL_STRATEGIES:
        raise ValueError(f"unknown pooling strategy {strategy!r}; "
                         f"expected one of {POOL_STRATEGIES}")
    if strategy == "last_four_concat" and layers < 4:
        raise ValueError("last_four_concat needs at least 4 transformer layers")


def extract_core_tokens(hidden: list[Tensor], batch: PaddedBatch,
                        strategy: str) -> list[Tensor]:
    """The core-token rows of each layer output `strategy` pools, in layer
    order, one gather per layer: every sentence's first subtoken of each core
    token, sentence after sentence (first-subword pooling).

    `hidden` is the encoder's [embeddings, layer 1, ..., layer L], the last
    layer holding only the batch's query slots.
    """
    top = len(hidden) - 1
    check_pool_strategy(strategy, top)
    first = {"last_layer": top, "all_layer_mean": 0, "last_four_concat": top - 3}[strategy]
    core = []
    for i in range(first, top + 1):
        queried = 0 < i == top
        rows = batch.queries.size if queried else batch.ids.size
        if hidden[i].shape[0] != rows:
            raise ValueError(f"layer {i} output covers {hidden[i].shape[0]} rows but the "
                             f"padded {'core' if queried else 'assembled input'} has {rows}")
        core.append(ad.take_rows(hidden[i], batch.core if queried else batch.core_rows()))
    return core


def pool_layers(layers: list[Tensor], strategy: str) -> Tensor:
    """Combine layer outputs, in layer order, into one matrix of subtoken
    representations: the last, the mean of all, or the concat of the last four."""
    check_pool_strategy(strategy, len(layers))
    if strategy == "last_layer":
        return layers[-1]
    if strategy == "all_layer_mean":
        total = layers[0]
        for h in layers[1:]:
            total = total + h
        return total * (1.0 / len(layers))
    return ad.concat(layers[-4:], axis=1)


class StaticEmbeddingTable:
    """Token string -> fixed-size vector, with lowercase fallback then OOV.

    Stands in for pretrained word vectors: rows are randomly initialized
    and trainable in the fine-tuning regime, frozen in the feature-based
    one. Row 0 is the OOV vector.
    """

    def __init__(self, tokens: list[str], dim: int, rng: np.random.Generator):
        if dim < 1:
            raise ValueError(f"word_dim must be a positive size, got {dim}")
        ordered = sorted(set(tokens))
        self.index = {tok: i + 1 for i, tok in enumerate(ordered)}
        self.vectors = Tensor(rng.normal(0.0, 0.1, size=(len(ordered) + 1, dim)))

    def row_of(self, token: str) -> int:
        idx = self.index.get(token)
        if idx is None:
            idx = self.index.get(token.lower(), 0)
        return idx

    def lookup_rows(self, tokens: list[str]) -> np.ndarray:
        return np.asarray([self.row_of(t) for t in tokens], dtype=np.intp)


def concat_word_embeddings(token_reps: Tensor, tokens: list[str],
                           table: StaticEmbeddingTable | None) -> Tensor:
    """Append static word vectors to each token representation row."""
    if table is None:
        return token_reps
    if token_reps.shape[0] != len(tokens):
        raise ValueError("token representation rows do not match the token count")
    rows = ad.take_rows(table.vectors, table.lookup_rows(tokens))
    return ad.concat([token_reps, rows], axis=1)
