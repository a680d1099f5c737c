"""Assembled sequence tagger and checkpoint I/O.

A model bundles the subword vocab, the transformer encoder, the optional
static word-embedding table, the optional BiLSTM (feature-based regime),
and a linear or CRF head. Training always happens in the BIOES scheme;
corpora in BIO are converted on the way in and predictions are converted
back to the corpus scheme on the way out.
"""

from __future__ import annotations

import inspect
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
from .encoder import (PaddedBatch, StaticEmbeddingTable, TransformerConfig,
                      TransformerEncoder, check_pool_strategy, concat_word_embeddings,
                      encode_transformer, extract_core_tokens, pool_layers)
from .tagger import (BiLstmParams, CrfParams, bilstm_forward, crf_nll,
                     greedy_decode, linear_head, softmax_nll, viterbi)
from .tokenizer import SubwordVocab

CHECKPOINT_VERSION = 1

MODES = ("finetune", "feature")
HEADS = ("linear", "crf")
DEFAULT_STRATEGY = {"finetune": "last_layer", "feature": "all_layer_mean"}
FROZEN_IN_FEATURE_MODE = ("encoder.", "word_table.")
# Padded encoder rows per graph-free batch (predict_corpus, frozen features).
# Larger batches amortise more per-op overhead but raise peak memory: in
# trials on the short-input benchmark, 1024 rows added 15% to peak RSS and
# 256 rows 2%.
ENCODE_ROW_BUDGET = 256


def bioes_labels(entity_types) -> list[str]:
    """Deterministic BIOES tag inventory: O first, then sorted types x B/I/E/S."""
    labels = ["O"]
    for etype in sorted(entity_types):
        labels.extend(f"{p}-{etype}" for p in ("B", "I", "E", "S"))
    return labels


class NerModel:
    """Sequence tagger over document-contextualized sentences.

    `settings` holds the arguments the model was built with; `save` writes
    them and `load` passes them back to the constructor.
    """

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
        # the constructor's arguments, as `save` writes them for `load`; read
        # before any other local variable is bound
        self.settings = dict(locals(), entity_types=sorted(entity_types),
                             layer_strategy=layer_strategy or DEFAULT_STRATEGY[mode],
                             word_tokens=sorted(set(word_tokens or [])))
        del self.settings["self"]
        self.vocab = vocab
        self.labels = bioes_labels(self.settings["entity_types"])
        self.label_to_id = {t: i for i, t in enumerate(self.labels)}
        self.context = context
        self.mode = mode
        self.head = head
        self.strategy = self.settings["layer_strategy"]
        try:
            check_pool_strategy(self.strategy, transformer.layers)
        except ValueError as err:
            raise ValueError(f"layer_strategy: {err}") from None
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

    # -- parameter plumbing ------------------------------------------------

    def all_parameters(self) -> list[Tensor]:
        return list(self._named_parameters().values())

    def trainable_parameters(self) -> list[Tensor]:
        """Everything in fine-tuning; encoder and word table frozen otherwise."""
        return [p for name, p in self._named_parameters().items()
                if self.mode == "finetune" or not name.startswith(FROZEN_IN_FEATURE_MODE)]

    def _named_parameters(self) -> dict[str, Tensor]:
        """Every parameter by checkpoint name, in optimizer order."""
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

    def token_features(self, tokens: list[list[str]], ctxs: list[ContextualizedSentence],
                       train: bool = False,
                       rng: np.random.Generator | None = None) -> Tensor:
        """One padded encoder pass over a batch -> layer pooling -> the core-token
        rows of every sentence, sentence after sentence -> (+WE)."""
        batch = PaddedBatch(ctxs, self.vocab.pad_id)
        hidden = encode_transformer(batch, self.encoder, train=train, rng=rng)
        reps = extract_core_tokens(pool_layers(hidden, self.strategy), batch)
        return concat_word_embeddings(reps, [t for ts in tokens for t in ts],
                                      self.word_table)

    def frozen_features(self, tokens: list[list[str]],
                        ctxs: list[ContextualizedSentence]) -> list[np.ndarray]:
        """Each sentence's encoder features as a plain array, no graph.

        Sentences are encoded longest first, in batches of at most
        ENCODE_ROW_BUDGET padded rows; the result is in input order.
        """
        order = sorted(range(len(ctxs)), key=lambda i: -ctxs[i].assembled_length)
        features: list[np.ndarray] = [np.empty(0)] * len(ctxs)
        start = 0
        with ad.no_grad():
            while start < len(order):
                # longest first, so a batch's first sentence sets its width
                size = max(1, ENCODE_ROW_BUDGET // ctxs[order[start]].assembled_length)
                picked = order[start:start + size]
                start += size
                rows = self.token_features([tokens[i] for i in picked],
                                           [ctxs[i] for i in picked]).data
                bounds = np.cumsum([len(tokens[i]) for i in picked])[:-1]
                for i, part in zip(picked, np.split(rows, bounds)):
                    features[i] = part
        return features

    def emissions_from_features(self, features: list[Tensor]) -> Tensor:
        """Label scores of the core tokens of a batch, from its feature rows in
        blocks, block after block; with a BiLSTM each block is one sentence."""
        if self.bilstm is not None:
            features = [bilstm_forward(f, self.bilstm) for f in features]
        joined = ad.concat(features) if len(features) > 1 else features[0]
        return linear_head(joined, self.head_w, self.head_b)

    def batch_loss(self, tokens: list[list[str]], ctxs: list[ContextualizedSentence],
                   gold_ids: list[list[int]], rng: np.random.Generator | None = None,
                   frozen_features: list[np.ndarray] | None = None) -> Tensor:
        """Mean sentence loss of a minibatch, its encoder run once over the batch.

        The linear head's loss is one softmax cross-entropy over every core
        token of the batch; the CRF scores each sentence on its own.
        """
        if self.mode == "feature":
            if frozen_features is None:
                frozen_features = self.frozen_features(tokens, ctxs)
            features = [Tensor(f) for f in frozen_features]
        else:
            features = [self.token_features(tokens, ctxs, train=True, rng=rng)]
        emissions = self.emissions_from_features(features)
        if self.crf is None:
            total = softmax_nll(emissions, [i for gold in gold_ids for i in gold])
        else:
            total, start = None, 0
            for gold in gold_ids:
                loss = crf_nll(ad.narrow(emissions, 0, start, len(gold)), gold, self.crf)
                total = loss if total is None else total + loss
                start += len(gold)
        loss = total * (1.0 / len(gold_ids))
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite training loss")
        return loss

    def decode_tags(self, tokens: list[str], ctx: ContextualizedSentence,
                    scheme: TagScheme = TagScheme.BIOES,
                    frozen_features: np.ndarray | None = None) -> list[str]:
        """Predicted tags re-encoded in `scheme` (repairs silently)."""
        with ad.no_grad():
            features = (Tensor(frozen_features) if frozen_features is not None
                        else self.token_features([tokens], [ctx]))
            scores = self.emissions_from_features([features]).data
            ids = (viterbi(scores, self.crf)[0] if self.crf is not None
                   else greedy_decode(scores))
        tags = [self.labels[i] for i in ids]
        return tags_from_spans(spans_from_tags(tags, TagScheme.BIOES),
                               len(tags), scheme)

    def gold_ids(self, sentence: Sentence, scheme: TagScheme) -> list[int]:
        tags = convert_scheme(sentence.gold_tags, scheme, TagScheme.BIOES)
        return [self.label_to_id[t] for t in tags]

    # -- checkpoint I/O ------------------------------------------------------

    def save(self, path) -> None:
        """Write a self-describing .npz: a JSON `meta` entry holding the
        constructor's arguments, plus the parameter arrays."""
        meta = dict(self.settings, format_version=CHECKPOINT_VERSION,
                    vocab=self.vocab.dumps(),
                    transformer=asdict(self.settings["transformer"]),
                    context=asdict(self.settings["context"]))
        arrays = {f"param/{k}": v.data for k, v in self._named_parameters().items()}
        buf = io.BytesIO()
        np.savez(buf, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path) -> "NerModel":
        """Rebuild a saved model; malformed checkpoints fail with a message
        that names the offending meta key or parameter."""
        with np.load(path) as data:
            settings = json.loads(bytes(data["meta"]).decode())
            version = settings.pop("format_version", None)
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            unknown = sorted(set(settings) - set(inspect.signature(cls).parameters))
            if unknown:
                raise ValueError(f"unknown checkpoint meta keys: {', '.join(unknown)}")
            settings.update(vocab=SubwordVocab.loads(settings["vocab"]),
                            transformer=TransformerConfig(**settings["transformer"]),
                            context=ContextConfig(**settings["context"]))
            model = cls(**settings)
            named = model._named_parameters()
            saved = {k[len("param/"):] for k in data.files if k.startswith("param/")}
            for problem, names in (("has no slot for", saved - set(named)),
                                   ("lacks parameters", set(named) - saved)):
                if names:
                    raise ValueError(f"checkpoint {problem}: " + ", ".join(sorted(names)))
            for name, tensor in named.items():
                stored = data[f"param/{name}"]
                if stored.shape != tensor.data.shape:
                    raise ValueError(f"checkpoint parameter {name} has shape "
                                     f"{stored.shape}, expected {tensor.data.shape}")
                if not np.isfinite(stored).all():
                    raise ValueError(f"checkpoint parameter {name} has non-finite values")
                tensor.data = stored.astype(np.float64)
        return model


def predict_corpus(model: NerModel, corpus: Corpus,
                   context: ContextConfig | None = None) -> Corpus:
    """Tag every sentence; returns a corpus copy with predictions attached.

    The whole corpus is contextualized, encoded without a graph in
    length-sorted batches (`NerModel.frozen_features`), then decoded
    sentence by sentence in corpus order. Predictions are converted from
    the model's internal BIOES scheme back to the corpus scheme.
    """
    sentences = list(corpus.sentences())
    texts = [sentence.texts for sentence in sentences]
    ctxs = [model.contextualize(sentence, corpus, context) for sentence in sentences]
    features = model.frozen_features(texts, ctxs)
    return with_predictions(corpus, [
        model.decode_tags(tokens, ctx, corpus.scheme, frozen_features=f)
        for tokens, ctx, f in zip(texts, ctxs, features)])

