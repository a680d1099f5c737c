"""Assembled sequence tagger and checkpoint I/O.

A model bundles the subword vocab, the transformer encoder, the optional
static word-embedding table, the optional BiLSTM (feature-based regime),
and a linear or CRF head. Training always happens in the BIOES scheme;
corpora in BIO are converted on the way in and predictions are converted
back to the corpus scheme on the way out.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .context import (ContextConfig, ContextualizedSentence, SubtokenStream,
                      build_context, fit_to_length)
from .corpus import (Corpus, Sentence, TagScheme, convert_scheme, spans_from_tags,
                     tags_from_spans, with_predictions)
from .encoder import (StaticEmbeddingTable, TransformerConfig, TransformerEncoder,
                      concat_word_embeddings, encode_transformer,
                      extract_core_tokens, pool_layers)
from .tagger import (BiLstmParams, CrfParams, bilstm_forward, crf_nll,
                     greedy_decode, linear_head, softmax_nll, viterbi)
from .tokenizer import SubwordVocab

CHECKPOINT_VERSION = 1

MODES = ("finetune", "feature")
HEADS = ("linear", "crf")
DEFAULT_STRATEGY = {"finetune": "last_layer", "feature": "all_layer_mean"}


def bioes_labels(entity_types) -> list[str]:
    """Deterministic BIOES tag inventory: O first, then sorted types x B/I/E/S."""
    labels = ["O"]
    for etype in sorted(entity_types):
        labels.extend(f"{p}-{etype}" for p in ("B", "I", "E", "S"))
    return labels


class NerModel:
    """Sequence tagger over document-contextualized sentences."""

    def __init__(self, vocab: SubwordVocab, entity_types,
                 transformer: TransformerConfig,
                 context: ContextConfig = ContextConfig(),
                 mode: str = "finetune", head: str = "linear",
                 layer_strategy: str | None = None,
                 use_word_embeddings: bool = False, word_dim: int = 32,
                 word_tokens: list[str] | None = None,
                 bilstm_hidden: int = 256,
                 constrain_transitions: bool = False,
                 seed: int = 0):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}")
        self.vocab = vocab
        self.labels = bioes_labels(entity_types)
        self.label_to_id = {t: i for i, t in enumerate(self.labels)}
        self.context = context
        self.mode = mode
        self.head = head
        self.strategy = layer_strategy or DEFAULT_STRATEGY[mode]
        self.seed = seed
        self._stream: SubtokenStream | None = None
        rng = np.random.default_rng(seed)

        cfg = transformer
        if cfg.vocab_size != len(vocab):
            cfg = replace(cfg, vocab_size=len(vocab))
        self.encoder = TransformerEncoder(cfg, rng)

        width = cfg.model_dim
        if self.strategy == "last_four_concat":
            width *= 4
        self.word_table = None
        if use_word_embeddings:
            self.word_table = StaticEmbeddingTable(word_tokens or [], word_dim, rng)
            width += word_dim

        self.bilstm = None
        if mode == "feature":
            self.bilstm = BiLstmParams(width, bilstm_hidden, rng)
            width = 2 * bilstm_hidden

        num_labels = len(self.labels)
        k = 1.0 / np.sqrt(width)
        self.head_w = Tensor(rng.uniform(-k, k, size=(width, num_labels)))
        self.head_b = Tensor(np.zeros(num_labels))
        self.crf = None
        if head == "crf":
            self.crf = CrfParams(num_labels, rng)
            if constrain_transitions:
                self.crf.constrain(self.labels)
        self.constrained = constrain_transitions

    # -- parameter plumbing ------------------------------------------------

    def encoder_parameters(self) -> list[Tensor]:
        return self.encoder.parameters()

    def head_parameters(self) -> list[Tensor]:
        params = [self.head_w, self.head_b]
        if self.bilstm is not None:
            params = self.bilstm.parameters() + params
        if self.crf is not None:
            params.append(self.crf.transitions)
        return params

    def all_parameters(self) -> list[Tensor]:
        params = self.encoder_parameters()
        if self.word_table is not None:
            params = params + [self.word_table.vectors]
        return params + self.head_parameters()

    def trainable_parameters(self) -> list[Tensor]:
        """Everything in fine-tuning; encoder and word table frozen otherwise."""
        if self.mode == "finetune":
            return self.all_parameters()
        return self.head_parameters()

    # -- forward paths -----------------------------------------------------

    def contextualize(self, sentence: Sentence, corpus: Corpus,
                      context: ContextConfig | None = None) -> ContextualizedSentence:
        """The sentence with its context, fitted to the encoder's positions.

        The subtoken stream of the last corpus served is kept, so a corpus
        tagged sentence by sentence has each sentence encoded once.
        """
        if self._stream is None or self._stream.documents is not corpus.documents:
            self._stream = SubtokenStream(corpus.documents, self.vocab)
        ctx = build_context(sentence, self._stream,
                            context if context is not None else self.context)
        return fit_to_length(ctx, self.encoder.config.max_positions)

    def token_features(self, tokens: list[str], ctx: ContextualizedSentence,
                       train: bool = False,
                       rng: np.random.Generator | None = None) -> Tensor:
        """Encoder -> layer pooling -> core-token extraction -> (+WE)."""
        hidden = encode_transformer(ctx, self.encoder, train=train, rng=rng)
        pooled = pool_layers(hidden, self.strategy)
        reps = extract_core_tokens(pooled, ctx)
        return concat_word_embeddings(reps, tokens, self.word_table)

    def frozen_features(self, tokens: list[str],
                        ctx: ContextualizedSentence) -> np.ndarray:
        """Feature-based regime: encoder output as a plain array, no graph."""
        with ad.no_grad():
            return self.token_features(tokens, ctx).data

    def emissions_from_features(self, features: Tensor) -> Tensor:
        features = ad.as_tensor(features)
        if self.bilstm is not None:
            features = bilstm_forward(features, self.bilstm)
        return linear_head(features, self.head_w, self.head_b)

    def sentence_loss(self, tokens: list[str], ctx: ContextualizedSentence,
                      gold_ids: list[int], rng: np.random.Generator | None = None,
                      frozen_features: np.ndarray | None = None) -> Tensor:
        if self.mode == "feature":
            if frozen_features is None:
                frozen_features = self.frozen_features(tokens, ctx)
            features: Tensor = ad.constant(frozen_features)
        else:
            features = self.token_features(tokens, ctx, train=True, rng=rng)
        loss = self._head_loss(self.emissions_from_features(features), gold_ids)
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite training loss")
        return loss

    def _head_loss(self, emissions: Tensor, gold_ids: list[int]) -> Tensor:
        if self.crf is not None:
            return crf_nll(emissions, gold_ids, self.crf)
        return softmax_nll(emissions, gold_ids)

    def decode_ids(self, tokens: list[str], ctx: ContextualizedSentence,
                   frozen_features: np.ndarray | None = None) -> list[int]:
        with ad.no_grad():
            features = (ad.constant(frozen_features) if frozen_features is not None
                        else self.token_features(tokens, ctx))
            emissions = self.emissions_from_features(features)
            if self.crf is not None:
                ids, _ = viterbi(emissions, self.crf)
                return ids
            return greedy_decode(emissions)

    def decode_tags(self, tokens: list[str], ctx: ContextualizedSentence,
                    scheme: TagScheme = TagScheme.BIOES,
                    frozen_features: np.ndarray | None = None) -> list[str]:
        """Predicted tags re-encoded in `scheme` (repairs silently)."""
        tags = [self.labels[i] for i in self.decode_ids(tokens, ctx, frozen_features)]
        return tags_from_spans(spans_from_tags(tags, TagScheme.BIOES),
                               len(tags), scheme)

    def gold_ids(self, sentence: Sentence, scheme: TagScheme) -> list[int]:
        tags = convert_scheme(sentence.gold_tags, scheme, TagScheme.BIOES)
        return [self.label_to_id[t] for t in tags]

    # -- checkpoint I/O ------------------------------------------------------

    def _named_parameters(self) -> dict[str, Tensor]:
        named = {f"encoder.{k}": v for k, v in self.encoder.params.items()}
        if self.word_table is not None:
            named["word_table.vectors"] = self.word_table.vectors
        if self.bilstm is not None:
            named.update({f"bilstm.{k}": v for k, v in self.bilstm.params.items()})
        named["head_w"] = self.head_w
        named["head_b"] = self.head_b
        if self.crf is not None:
            named["crf.transitions"] = self.crf.transitions
        return named

    def save(self, path) -> None:
        """Write a self-describing .npz: a JSON `meta` entry plus parameter arrays."""
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "vocab": self.vocab.dumps(),
            "entity_types": sorted({t.split("-", 1)[1] for t in self.labels
                                    if t != "O"}),
            "mode": self.mode,
            "head": self.head,
            "layer_strategy": self.strategy,
            "context": {"window": self.context.window,
                        "enforce_boundaries": self.context.enforce_boundaries},
            "transformer": asdict(self.encoder.config),
            "use_word_embeddings": self.word_table is not None,
            "word_dim": self.word_table.dim if self.word_table else 0,
            "word_tokens": sorted(self.word_table.index) if self.word_table else [],
            "bilstm_hidden": self.bilstm.hidden if self.bilstm else 0,
            "constrain_transitions": self.constrained,
            "seed": self.seed,
        }
        arrays = {f"param/{k}": v.data for k, v in self._named_parameters().items()}
        buf = io.BytesIO()
        np.savez(buf, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path) -> "NerModel":
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta["format_version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version "
                                 f"{meta['format_version']}")
            model = cls(
                vocab=SubwordVocab.loads(meta["vocab"]),
                entity_types=meta["entity_types"],
                transformer=TransformerConfig(**meta["transformer"]),
                context=ContextConfig(**meta["context"]),
                mode=meta["mode"], head=meta["head"],
                layer_strategy=meta["layer_strategy"],
                use_word_embeddings=meta["use_word_embeddings"],
                word_dim=meta["word_dim"],
                word_tokens=meta["word_tokens"],
                bilstm_hidden=meta["bilstm_hidden"] or 256,
                constrain_transitions=meta["constrain_transitions"],
                seed=meta["seed"],
            )
            for name, tensor in model._named_parameters().items():
                stored = data[f"param/{name}"]
                if stored.shape != tensor.data.shape:
                    raise ValueError(f"checkpoint parameter {name} has shape "
                                     f"{stored.shape}, expected {tensor.data.shape}")
                tensor.data = stored.astype(np.float64)
        return model


def predict_corpus(model: NerModel, corpus: Corpus,
                   context: ContextConfig | None = None) -> Corpus:
    """Tag every sentence; returns a corpus copy with predictions attached.

    Predictions are converted from the model's internal BIOES scheme back
    to the corpus scheme. Frozen-feature models reuse the same path; the
    encoder runs without recording a graph either way.
    """
    predictions = []
    for sentence in corpus.sentences():
        ctx = model.contextualize(sentence, corpus, context)
        predictions.append(model.decode_tags(sentence.texts, ctx, corpus.scheme))
    return with_predictions(corpus, predictions)
