"""Subtoken encoders: a small trainable transformer and static word embeddings.

The transformer is a standard pre-norm encoder with learned absolute
position embeddings over the full assembled input (context included),
trained from scratch. It encodes a batch of sentences in one pass, their
assembled inputs right-padded to the longest with padded keys masked out
of attention, and returns the output of every layer, embedding layer
included, so downstream code can pool layers the way the two training
regimes need (last layer, all-layer mean, last-four concat).
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


@dataclass(frozen=True)
class TransformerConfig:
    layers: int = 4
    heads: int = 4
    model_dim: int = 128
    ff_dim: int = 512
    max_positions: int = 512
    vocab_size: int = 0  # filled in from the subword vocab
    dropout: float = 0.0

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if self.layers < 0 or self.heads < 1 or self.model_dim < 1:
            raise ValueError("invalid transformer dimensions")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


class TransformerEncoder:
    """Pre-norm self-attention encoder returning all layer outputs."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        if config.vocab_size < 1:
            raise ValueError("vocab_size must be set before building the encoder")
        self.config = config
        c = config
        scale = 0.02

        def normal(*shape):
            return Tensor(rng.normal(0.0, scale, size=shape))

        self.params: dict[str, Tensor] = {}
        p = self.params
        p["tok_emb"] = normal(c.vocab_size, c.model_dim)
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

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def forward(self, ids: np.ndarray, lengths: Sequence[int], train: bool = False,
                rng: np.random.Generator | None = None) -> list[Tensor]:
        """Encode a [B, n] batch of right-padded subtoken ids, of which the
        first ``lengths[b]`` of row b are real.

        Returns [embeddings, layer 1, ..., layer L], each [B*n, D] with
        sentence b in rows b*n to b*n + n - 1. Padded keys get a -inf
        attention score, so a sentence's rows do not depend on the padding.
        """
        c = self.config
        batch, n = ids.shape
        if n > c.max_positions:
            raise ValueError(
                f"assembled input of {n} subtokens exceeds max positions "
                f"{c.max_positions}; shrink the context window")
        p = self.params
        d, heads = c.model_dim, c.heads
        head_dim = d // heads
        tokens = ad.reshape(ad.take_rows(p["tok_emb"], ids.reshape(-1)), (batch, n, d))
        x = ad.reshape(tokens + ad.narrow(p["pos_emb"], 0, 0, n), (batch * n, d))
        key_mask = None
        if min(lengths) < n:
            padded = np.arange(n) >= np.asarray(lengths)[:, None]
            key_mask = np.where(padded, -np.inf, 0.0)[:, None, None, :]
        hidden = [x]
        inv_sqrt = 1.0 / math.sqrt(head_dim)

        def split_heads(t: Tensor) -> Tensor:  # [B*n, D] -> [B, H, n, d_head]
            return ad.transpose(ad.reshape(t, (batch, n, heads, head_dim)), (0, 2, 1, 3))

        for i in range(c.layers):
            a = ad.layer_norm(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
            q = split_heads(a @ p[f"l{i}.wq"] + p[f"l{i}.wq_b"])
            k = split_heads(a @ p[f"l{i}.wk"] + p[f"l{i}.wk_b"])
            v = split_heads(a @ p[f"l{i}.wv"] + p[f"l{i}.wv_b"])
            scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * inv_sqrt
            if key_mask is not None:
                scores = scores + key_mask
            att = ad.softmax(scores, axis=-1)
            o = ad.reshape(ad.transpose(att @ v, (0, 2, 1, 3)), (batch * n, d))
            o = o @ p[f"l{i}.wo"] + p[f"l{i}.wo_b"]
            o = ad.dropout(o, c.dropout, rng, train)
            x = x + o
            f = ad.layer_norm(x, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
            f = ad.gelu(f @ p[f"l{i}.w1"] + p[f"l{i}.w1_b"]) @ p[f"l{i}.w2"] + p[f"l{i}.w2_b"]
            f = ad.dropout(f, c.dropout, rng, train)
            x = x + f
            if i == c.layers - 1:
                x = ad.layer_norm(x, p["final_ln_g"], p["final_ln_b"])
            hidden.append(x)
        return hidden


class PaddedBatch:
    """The assembled inputs of several sentences, right-padded to the longest.

    Row b of the encoder input is sentence b's assembled ids followed by
    ``pad_id`` up to ``width``; the encoder output holds sentence b in
    rows b*width onwards.
    """

    def __init__(self, ctxs: list[ContextualizedSentence], pad_id: int):
        self.ctxs = ctxs
        self.pad_id = pad_id
        self.lengths = [ctx.assembled_length for ctx in ctxs]
        self.width = max(self.lengths)

    def assembled_ids(self) -> list[int]:
        """Every row of the padded input, pad slots included, row after row."""
        ids: list[int] = []
        for ctx, n in zip(self.ctxs, self.lengths):
            ids += ctx.assembled_ids()
            ids += [self.pad_id] * (self.width - n)
        return ids

    def core_rows(self) -> list[int]:
        """Output row of each core token's first subtoken, sentence after sentence."""
        return [b * self.width + row for b, ctx in enumerate(self.ctxs)
                for row in ctx.shifted_alignment()]


def encode_transformer(batch: PaddedBatch, model: TransformerEncoder,
                       train: bool = False,
                       rng: np.random.Generator | None = None) -> list[Tensor]:
    """Run the encoder once over the padded assembled inputs of a batch."""
    ids = np.asarray(batch.assembled_ids(), dtype=np.intp)
    return model.forward(ids.reshape(len(batch.lengths), batch.width), batch.lengths,
                         train=train, rng=rng)


def check_pool_strategy(strategy: str, layers: int) -> None:
    """Raise unless `strategy` can pool an encoder of `layers` transformer layers."""
    if strategy not in POOL_STRATEGIES:
        raise ValueError(f"unknown pooling strategy {strategy!r}; "
                         f"expected one of {POOL_STRATEGIES}")
    if strategy == "last_four_concat" and layers < 4:
        raise ValueError("last_four_concat needs at least 4 transformer layers")


def pool_layers(hidden: list[Tensor], strategy: str) -> Tensor:
    """Combine per-layer outputs into one matrix of subtoken representations."""
    check_pool_strategy(strategy, len(hidden) - 1)
    if strategy == "last_layer":
        return hidden[-1]
    if strategy == "all_layer_mean":
        total = hidden[0]
        for h in hidden[1:]:
            total = total + h
        return total * (1.0 / len(hidden))
    return ad.concat(hidden[-4:], axis=1)


def extract_core_tokens(pooled: Tensor, batch: PaddedBatch) -> Tensor:
    """One row per core token of every sentence of the batch, in one gather:
    the row of each core token's first subtoken (first-subword pooling)."""
    rows = len(batch.lengths) * batch.width
    if pooled.shape[0] != rows:
        raise ValueError(f"pooled matrix covers {pooled.shape[0]} positions but the "
                         f"padded assembled input has {rows}")
    return ad.take_rows(pooled, batch.core_rows())


class StaticEmbeddingTable:
    """Token string -> fixed-size vector, with lowercase fallback then OOV.

    Stands in for pretrained word vectors: rows are randomly initialized
    and trainable in the fine-tuning regime, frozen in the feature-based
    one. Row 0 is the OOV vector.
    """

    def __init__(self, tokens: list[str], dim: int, rng: np.random.Generator):
        self.dim = dim
        ordered = sorted(set(tokens))
        self.index = {tok: i + 1 for i, tok in enumerate(ordered)}
        self.vectors = Tensor(rng.normal(0.0, 0.1, size=(len(ordered) + 1, dim))
                              if dim > 0 else np.zeros((len(ordered) + 1, 0)))

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
    if table is None or table.dim == 0:
        return token_reps
    if token_reps.shape[0] != len(tokens):
        raise ValueError("token representation rows do not match the token count")
    rows = ad.take_rows(table.vectors, table.lookup_rows(tokens))
    return ad.concat([token_reps, rows], axis=1)
