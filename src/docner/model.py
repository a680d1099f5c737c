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
import itertools
import json
import zipfile
from dataclasses import asdict, fields

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
from .tagger import (BiLstmParams, CrfParams, Packing, bilstm_forward, crf_nll,
                     greedy_decode, linear_head, softmax_nll, viterbi)
from .tokenizer import SubwordVocab

CHECKPOINT_VERSION = 1

MODES = ("finetune", "feature")
HEADS = ("linear", "crf")
DEFAULT_STRATEGY = {"finetune": "last_layer", "feature": "all_layer_mean"}
FROZEN_IN_FEATURE_MODE = ("encoder.", "word_table.")
# Padded rows per graph-free batch: encoder rows for frozen features,
# tagger steps x sentences for decoding. Larger batches amortise more per-op
# overhead but raise peak memory: in trials on the short-input benchmark,
# 1024 encoder rows added 15% to peak RSS and 256 rows 2%.
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

    A model computes in the dtype of its parameters; every activation,
    gradient and optimizer moment follows it. The constructor draws the
    parameters in float64 and rounds them to float32 once, at its end. A
    checkpoint loads in the dtype it was saved in.
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
        if isinstance(entity_types, str):
            raise ValueError("entity_types must be a collection of type names, "
                             f"not the string {entity_types!r}")
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
        self.strategy = self.settings["layer_strategy"]
        try:
            check_pool_strategy(self.strategy, transformer.layers)
        except ValueError as err:
            raise ValueError(f"layer_strategy: {err}") from None
        self._stream: SubtokenStream | None = None
        rng = np.random.default_rng(seed)

        self.encoder = TransformerEncoder(transformer, len(vocab), rng)

        width = transformer.model_dim
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
        for p in self.all_parameters():
            p.data = p.data.astype(np.float32)

    # -- parameter plumbing ------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters, which inputs must share."""
        return self.head_w.dtype

    def _check_dtype(self, features) -> None:
        if features.dtype != self.dtype:
            raise ValueError(f"{features.dtype} features for a model whose "
                             f"parameters are {self.dtype}")

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

    def contextualize(self, sentence: Sentence, corpus: Corpus) -> ContextualizedSentence:
        """The sentence with its `context`, fitted to the encoder's positions.

        The subtoken stream of the last corpus served is kept, so a corpus
        tagged sentence by sentence has each sentence encoded once.
        """
        if self._stream is None or self._stream.documents is not corpus.documents:
            self._stream = SubtokenStream(corpus.documents, self.vocab)
        ctx = build_context(sentence, self._stream, self.context)
        return fit_to_length(ctx, self.encoder.config.max_positions)

    def token_features(self, tokens: list[list[str]], ctxs: list[ContextualizedSentence],
                       train: bool = False,
                       rng: np.random.Generator | None = None) -> Tensor:
        """One padded encoder pass over a batch -> the core-token rows of every
        sentence, sentence after sentence, in each pooled layer -> layer
        pooling -> (+WE)."""
        batch = PaddedBatch(ctxs, self.vocab.pad_id)
        hidden = encode_transformer(batch, self.encoder, train=train, rng=rng)
        reps = pool_layers(extract_core_tokens(hidden, batch, self.strategy),
                           self.strategy)
        return concat_word_embeddings(reps, [t for ts in tokens for t in ts],
                                      self.word_table)

    def frozen_features(self, tokens: list[list[str]],
                        ctxs: list[ContextualizedSentence]) -> list[np.ndarray]:
        """Each sentence's encoder features as a plain array, no graph.

        Sentences are encoded longest first, in batches of at most
        ENCODE_ROW_BUDGET padded rows; the result is in input order.
        """
        features: list[np.ndarray] = [np.empty(0)] * len(ctxs)
        with ad.no_grad():
            for picked in _longest_first([c.assembled_length for c in ctxs]):
                rows = self.token_features([tokens[i] for i in picked],
                                           [ctxs[i] for i in picked]).data
                bounds = np.cumsum([len(tokens[i]) for i in picked])[:-1]
                for i, part in zip(picked, np.split(rows, bounds)):
                    features[i] = part
        return features

    def emissions_from_features(self, features: Tensor | np.ndarray,
                                packing: Packing | None) -> Tensor:
        """Label scores of a batch's core tokens from its flat feature rows,
        sentence after sentence: a Tensor when a fine-tuning loss trains the
        encoder, a constant array otherwise. A BiLSTM steps the sentences
        together in `packing`, which only it reads."""
        if self.bilstm is not None:
            features = bilstm_forward(features, packing, self.bilstm)
        return linear_head(features, self.head_w, self.head_b)

    def batch_loss(self, features: Tensor | np.ndarray,
                   gold_ids: list[list[int]]) -> Tensor:
        """Mean sentence loss of a minibatch from its flat feature rows,
        sentence after sentence: `token_features(..., train=True)` in
        fine-tuning, the concatenated `frozen_features` otherwise. The
        BiLSTM and CRF each run once over the batch.

        The linear head's loss is one softmax cross-entropy over every core
        token of the batch, the CRF's one batched negative log-likelihood.
        Features of another dtype than the parameters are a ValueError: they
        would promote the whole graph.
        """
        self._check_dtype(features)
        packing = (None if self.bilstm is None and self.crf is None
                   else Packing([len(gold) for gold in gold_ids]))
        emissions = self.emissions_from_features(features, packing)
        if self.crf is None:
            total = softmax_nll(emissions, [i for gold in gold_ids for i in gold])
        else:
            total = crf_nll(emissions, gold_ids, packing, self.crf)
        loss = total * (1.0 / len(gold_ids))
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite training loss")
        return loss

    def tag_features(self, features: list[np.ndarray],
                     scheme: TagScheme = TagScheme.BIOES) -> list[list[str]]:
        """Predicted tags of sentences from their feature rows, re-encoded in
        `scheme` (repairs silently).

        Sentences are decoded longest first, in batches of at most
        ENCODE_ROW_BUDGET padded rows: the CRF runs Viterbi over a whole
        batch, the linear head one argmax over its rows. The result is in
        input order. Features must be in the parameters' dtype.
        """
        for f in features:
            self._check_dtype(f)
        tags: list[list[str]] = [[] for _ in features]
        sizes = [len(f) for f in features]
        for picked in _longest_first(sizes):
            lengths = [sizes[i] for i in picked]
            packing = (None if self.bilstm is None and self.crf is None
                       else Packing(lengths))
            with ad.no_grad():
                scores = self.emissions_from_features(
                    np.concatenate([features[i] for i in picked]), packing).data
            if self.crf is not None:
                ids = viterbi(scores, packing, self.crf)[0]
            else:
                flat = greedy_decode(scores)
                ids = [flat[end - n:end]
                       for n, end in zip(lengths, itertools.accumulate(lengths))]
            for i, sentence_ids in zip(picked, ids):
                labels = [self.labels[j] for j in sentence_ids]
                tags[i] = tags_from_spans(spans_from_tags(labels), len(labels), scheme)
        return tags

    def decode_tags(self, tokens: list[str], ctx: ContextualizedSentence,
                    scheme: TagScheme = TagScheme.BIOES) -> list[str]:
        """Predicted tags of one sentence re-encoded in `scheme` (repairs
        silently): `tag_features` on a batch of one."""
        with ad.no_grad():
            features = self.token_features([tokens], [ctx]).data
        return self.tag_features([features], scheme)[0]

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
        """Rebuild a saved model in the dtype its parameters were saved in
        (float64 for checkpoints written before models computed in float32);
        malformed checkpoints, mixed float dtypes included, fail with a
        ValueError that names the file, or the offending meta key or
        parameter."""
        try:
            data = np.load(path)
        except (ValueError, EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path} is not a checkpoint archive: {err}") from None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{path} is not a checkpoint archive: it holds one array")
        with data:
            if "meta" not in data.files:
                raise ValueError(f"checkpoint {path} has no meta entry")
            try:
                settings = json.loads(bytes(data["meta"]).decode())
            except ValueError as err:
                raise ValueError(f"checkpoint meta is not JSON text: {err}") from None
            if not isinstance(settings, dict):
                raise ValueError(f"checkpoint meta must hold an object, got {settings!r}")
            version = settings.pop("format_version", None)
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            parameters = inspect.signature(cls).parameters
            unknown = sorted(set(settings) - set(parameters))
            if unknown:
                raise ValueError(f"unknown checkpoint meta keys: {', '.join(unknown)}")
            missing = [name for name, p in parameters.items()
                       if p.default is p.empty and name not in settings]
            if missing:
                raise ValueError(f"checkpoint meta lacks keys: {', '.join(missing)}")
            types = settings["entity_types"]
            if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
                raise ValueError("checkpoint meta entity_types must hold a list of "
                                 f"strings, got {types!r}")
            if not isinstance(settings["vocab"], str):
                raise ValueError("checkpoint meta vocab must hold the vocabulary text")
            if isinstance(settings.get("transformer"), dict):
                # earlier versions also saved the embedding rows, always len(vocab)
                settings["transformer"].pop("vocab_size", None)
            try:
                vocab = SubwordVocab.loads(settings["vocab"])
            except ValueError as err:
                raise ValueError(f"checkpoint meta vocab: {err}") from None
            settings.update(
                vocab=vocab,
                **{key: config_block(f"checkpoint meta {key}", sub, settings.get(key))
                   for key, sub in (("transformer", TransformerConfig),
                                    ("context", ContextConfig))})
            model = cls(**settings)
            named = model._named_parameters()
            saved = {k[len("param/"):] for k in data.files if k.startswith("param/")}
            for problem, names in (("has no slot for", saved - set(named)),
                                   ("lacks parameters", set(named) - saved)):
                if names:
                    raise ValueError(f"checkpoint {problem}: " + ", ".join(sorted(names)))
            stored = {}
            for name, tensor in named.items():
                array = stored[name] = data[f"param/{name}"]
                if not isinstance(array, np.ndarray) or array.dtype.kind not in "biuf":
                    raise ValueError(f"checkpoint parameter {name} is not a numeric array")
                if array.shape != tensor.data.shape:
                    raise ValueError(f"checkpoint parameter {name} has shape "
                                     f"{array.shape}, expected {tensor.data.shape}")
                if not np.isfinite(array).all():
                    raise ValueError(f"checkpoint parameter {name} has non-finite values")
        # the model computes in the saved float dtype, which must be one
        floats = [(name, a.dtype) for name, a in stored.items() if a.dtype.kind == "f"]
        first, dtype = floats[0] if floats else (None, np.dtype(np.float64))
        for name, other in floats:
            if other != dtype:
                raise ValueError(f"checkpoint parameter {name} is {other}, but {first} "
                                 f"is {dtype}: its float parameters must share a dtype")
        for name, tensor in named.items():
            tensor.data = stored[name].astype(dtype, copy=False)
        return model


def config_block(key: str, cls, value):
    """The dataclass `cls` built from the JSON object `value` stored under
    `key`; a value that is not an object, or that holds a key `cls` has no
    field for, is a ValueError naming `key`."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must hold an object, got {value!r}")
    unknown = sorted(set(value) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown keys in {key}: {unknown}")
    return cls(**value)


def _longest_first(lengths: list[int]):
    """Indices of `lengths`, longest first, in batches of at most
    ENCODE_ROW_BUDGET padded rows: a batch's first length times its size."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    start = 0
    while start < len(order):
        size = max(1, ENCODE_ROW_BUDGET // lengths[order[start]])
        yield order[start:start + size]
        start += size


def predict_corpus(model: NerModel, corpus: Corpus) -> Corpus:
    """Tag every sentence; returns a corpus copy with predictions attached.

    The whole corpus is contextualized under `model.context`, encoded
    without a graph in length-sorted batches (`NerModel.frozen_features`),
    then decoded in length-sorted batches (`NerModel.tag_features`).
    Predictions are converted from the model's internal BIOES scheme back
    to the corpus scheme.
    """
    sentences = list(corpus.sentences())
    texts = [sentence.texts for sentence in sentences]
    ctxs = [model.contextualize(sentence, corpus) for sentence in sentences]
    features = model.frozen_features(texts, ctxs)
    return with_predictions(corpus, model.tag_features(features, corpus.scheme))
