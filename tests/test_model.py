import dataclasses
import inspect
import json
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import docner.context
import docner.model
from docner import autodiff as ad
from docner.context import ContextConfig
from docner.corpus import TagScheme, parse_conll, spans_from_tags
from docner.encoder import (LAYER_PARAMS, TransformerConfig, concat_word_embeddings,
                            encode_transformer, pool_layers)
from docner.experiments import ExperimentConfig, build_model
from docner.model import NerModel, bioes_labels, predict_corpus
from docner.synthetic import corpus_from_documents, overfit_corpus
from docner.tagger import Packing, crf_gold_score, crf_nll, linear_head, softmax_nll
from docner.tokenizer import encode, train_vocab
from docner.training import FineTuneConfig, train_finetune

import oracle_ops
from test_acceptance import _mini_tagging_model
from test_corpus import without_type
from test_encoder import assert_close_to, reference_forward

TINY = TransformerConfig(layers=1, heads=2, model_dim=16, ff_dim=32,
                         max_positions=96)
FOUR_LAYERS = TransformerConfig(layers=4, heads=2, model_dim=8, ff_dim=16,
                                max_positions=96, dropout=0.1)
# every setting an ExperimentConfig shares with NerModel but the transformer,
# each away from its default in both
NON_DEFAULT_SETTINGS = dict(context=ContextConfig(window=5, enforce_boundaries=True),
                            mode="feature", head="crf",
                            layer_strategy="last_four_concat",
                            use_word_embeddings=True, word_dim=3, bilstm_hidden=6,
                            constrain_transitions=True)


@pytest.fixture(scope="module")
def setup():
    corpus = overfit_corpus(10, seed=2)
    vocab = train_vocab(corpus, 150)
    return corpus, vocab


class TestLabelInventory:
    def test_bioes_labels_deterministic_order(self):
        labels = bioes_labels({"PER", "LOC"})
        assert labels == ["O", "B-LOC", "I-LOC", "E-LOC", "S-LOC",
                          "B-PER", "I-PER", "E-PER", "S-PER"]

    def test_gold_ids_convert_to_bioes(self, setup):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY, seed=0)
        sentence = next(s for s in corpus.sentences()
                        if any(t.gold_tag.startswith("B-") for t in s.tokens))
        ids = model.gold_ids(sentence, corpus.scheme)
        tags = [model.labels[i] for i in ids]
        assert spans_from_tags(tags) == spans_from_tags(sentence.gold_tags)


class TestForwardPaths:
    @pytest.mark.parametrize("mode,head", [("finetune", "linear"),
                                           ("finetune", "crf"),
                                           ("feature", "crf"),
                                           ("feature", "linear")])
    def test_loss_and_decode_all_architectures(self, setup, mode, head):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY, mode=mode, head=head,
                         bilstm_hidden=8, use_word_embeddings=True, word_dim=4,
                         word_tokens=["went", "to"], seed=0)
        sentence = next(corpus.sentences())
        ctx = model.contextualize(sentence, corpus)
        if mode == "feature":
            features = model.frozen_features([sentence.texts], [ctx])[0]
        else:
            features = model.token_features([sentence.texts], [ctx], train=True)
        loss = model.batch_loss(features, [model.gold_ids(sentence, corpus.scheme)])
        assert np.isfinite(loss.data)
        tags = model.decode_tags(sentence.texts, ctx)
        assert len(tags) == len(sentence)
        assert set(tags) <= set(model.labels)

    def test_feature_loss_graph_does_not_grow_with_length(self, setup):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY, mode="feature",
                         head="crf", bilstm_hidden=8, seed=0)
        rng = np.random.default_rng(0)
        sizes = []
        for n in (5, 50):
            features = rng.normal(size=(n, TINY.model_dim)).astype(model.dtype)
            gold = list(rng.integers(0, len(model.labels), n))
            loss = model.batch_loss(features, [gold])
            sizes.append(graph_size(loss))
        assert sizes[0] == sizes[1]

    def test_finetune_loss_graph_holds_one_node_per_encoder_layer(self, setup):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, FOUR_LAYERS, head="crf",
                         context=ContextConfig(window=6), seed=0)
        sentences = list(corpus.sentences())[:3]
        features = model.token_features([s.texts for s in sentences],
                                        [model.contextualize(s, corpus) for s in sentences],
                                        train=True, rng=np.random.default_rng(0))
        loss = model.batch_loss(features,
                                [model.gold_ids(s, corpus.scheme) for s in sentences])
        nodes = graph_nodes(loss)
        p = model.encoder.params
        readers = {}
        for i in range(FOUR_LAYERS.layers):
            names = [f"l{i}.{name}" for name in LAYER_PARAMS]
            if i == FOUR_LAYERS.layers - 1:
                names += ["final_ln_g", "final_ln_b"]
            layer = {id(p[name]) for name in names}
            [node] = [n for n in nodes if layer & {id(q) for q in n._parents}]
            assert [id(q) for q in node._parents[1:]] == [id(p[name]) for name in names]
            readers[i] = node
        for i in range(1, FOUR_LAYERS.layers):  # each layer reads the one below
            assert readers[i]._parents[0] is readers[i - 1]

    def test_feature_mode_needs_a_bilstm(self, setup):
        corpus, vocab = setup
        with pytest.raises(ValueError, match="bilstm_hidden"):
            NerModel(vocab, corpus.label_set, TINY, mode="feature", bilstm_hidden=0)


def graph_nodes(root):
    """Distinct nodes reachable from `root` through `_parents`."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def graph_size(root):
    return len(graph_nodes(root))


def reference_sentence_loss(model, tokens, ctx, gold):
    """A fine-tune sentence's loss through the per-sentence reference encoder."""
    hidden = reference_forward(model.encoder, ctx.assembled_ids())
    reps = ad.take_rows(pool_layers(hidden, model.strategy), ctx.shifted_alignment())
    emissions = linear_head(concat_word_embeddings(reps, tokens, model.word_table),
                            model.head_w, model.head_b)
    if model.crf is not None:
        return crf_nll(emissions, [gold], Packing([len(gold)]), model.crf)
    return softmax_nll(emissions, gold)


def assert_batch_matches_reference(model, corpus, picked):
    """The batched loss of the sentences at `picked`, and every parameter
    gradient, equal the mean of their reference sentence losses."""
    sentences = [list(corpus.sentences())[i] for i in picked]
    tokens = [s.texts for s in sentences]
    ctxs = [model.contextualize(s, corpus) for s in sentences]
    gold = [model.gold_ids(s, corpus.scheme) for s in sentences]
    if len(sentences) > 1:
        assert len({c.assembled_length for c in ctxs}) == 3  # the batch is padded

    def reference():
        total = reference_sentence_loss(model, tokens[0], ctxs[0], gold[0])
        for args in zip(tokens[1:], ctxs[1:], gold[1:]):
            total = total + reference_sentence_loss(model, *args)
        return total * (1.0 / len(sentences))

    loss, grads = loss_and_gradients(
        model, lambda: model.batch_loss(
            model.token_features(tokens, ctxs, train=True), gold))
    ref_loss, ref_grads = loss_and_gradients(model, reference)
    assert loss == pytest.approx(ref_loss, rel=1e-10, abs=0)
    largest = max(np.abs(ref).max() for ref in ref_grads)
    for name, g, ref in zip(model._named_parameters(), grads, ref_grads):
        if name.endswith(".wk_b"):
            # a key bias shifts every score of a query alike, which softmax
            # ignores: its gradient is zero up to rounding on both paths
            assert max(np.abs(g).max(), np.abs(ref).max()) < 1e-15 * largest
        else:
            assert_close_to(g, ref)


def loss_and_gradients(model, loss_fn):
    for p in model.all_parameters():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    return float(loss.data), [np.zeros_like(p.data) if p.grad is None else p.grad
                              for p in model.all_parameters()]


class TestBatchedLoss:
    @pytest.mark.parametrize("head,we", [("linear", False), ("crf", False),
                                         ("linear", True)])
    def test_matches_mean_of_reference_sentence_losses(self, setup, head, we):
        corpus, vocab = setup
        model = oracle_ops.as_float64(
            NerModel(vocab, corpus.label_set, TINY, context=ContextConfig(window=6),
                     head=head, use_word_embeddings=we, word_dim=4,
                     word_tokens=["went", "to", "Group"], seed=0))
        assert_batch_matches_reference(model, corpus, (0, 1, 5, 9))

    @pytest.mark.parametrize("strategy", ["all_layer_mean", "last_four_concat"])
    def test_pooled_layers_match_reference(self, setup, strategy):
        corpus, vocab = setup
        model = oracle_ops.as_float64(
            NerModel(vocab, corpus.label_set,
                     dataclasses.replace(FOUR_LAYERS, dropout=0.0),
                     context=ContextConfig(window=6), layer_strategy=strategy,
                     seed=0))
        assert_batch_matches_reference(model, corpus, (0, 1, 5, 9))

    def test_embeddings_only_batch_of_one_matches_reference(self, setup):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, dataclasses.replace(TINY, layers=0),
                         context=ContextConfig(window=6), seed=0)
        assert_batch_matches_reference(model, corpus, (5,))

    @pytest.mark.parametrize("constrained", [False, True])
    def test_ragged_feature_batch_matches_mean_of_oracle_sentence_losses(
            self, setup, constrained):
        corpus, vocab = setup
        model = oracle_ops.as_float64(
            NerModel(vocab, corpus.label_set, TINY, mode="feature", head="crf",
                     bilstm_hidden=8, constrain_transitions=constrained, seed=0))
        rng = np.random.default_rng(3)
        lengths = [3, 1, 7, 3, 5, 1]  # unsorted, with ties and single tokens
        features = [rng.normal(size=(n, TINY.model_dim)) for n in lengths]
        gold = [list(rng.integers(0, len(model.labels), n)) for n in lengths]

        def oracle_sentence_loss(f, g):
            emissions = linear_head(oracle_ops.bilstm_forward(ad.Tensor(f), model.bilstm),
                                    model.head_w, model.head_b)
            return (oracle_ops.crf_log_z(emissions, model.crf)
                    - crf_gold_score(emissions, [g], model.crf))

        def reference():
            total = oracle_sentence_loss(features[0], gold[0])
            for f, g in zip(features[1:], gold[1:]):
                total = total + oracle_sentence_loss(f, g)
            return total * (1.0 / len(lengths))

        loss, grads = loss_and_gradients(
            model, lambda: model.batch_loss(np.concatenate(features), gold))
        ref_loss, ref_grads = loss_and_gradients(model, reference)
        assert loss == pytest.approx(ref_loss, rel=1e-10, abs=0)
        for g, ref in zip(grads, ref_grads):
            if np.abs(ref).max() > 0:  # the frozen encoder gets no gradient
                assert_close_to(g, ref)

    @pytest.mark.parametrize("head", ["linear", "crf"])
    def test_padded_batch_passes_finite_differences(self, head):
        corpus, model = _mini_tagging_model(seed=200, head=head)
        sentences = list(corpus.sentences())
        ctxs = [model.contextualize(s, corpus) for s in sentences]
        assert len({c.assembled_length for c in ctxs}) > 1  # the batch is padded
        tokens = [s.texts for s in sentences]
        gold = [model.gold_ids(s, corpus.scheme) for s in sentences]
        err = oracle_ops.grad_check(
            lambda: model.batch_loss(model.token_features(tokens, ctxs, train=True),
                                     gold) * 1e-4,
            model.all_parameters(), epsilon=1e-5)
        assert err < 1e-5


class TestParameters:
    def test_feature_mode_trains_only_bilstm_and_head(self, setup):
        corpus, vocab = setup
        kwargs = dict(use_word_embeddings=True, word_dim=4, word_tokens=["went"],
                      bilstm_hidden=8, seed=0)
        feature = NerModel(vocab, corpus.label_set, TINY, mode="feature", head="crf",
                           **kwargs)
        finetune = NerModel(vocab, corpus.label_set, TINY, **kwargs)
        assert feature.trainable_parameters() == (
            feature.bilstm.parameters()
            + [feature.head_w, feature.head_b, feature.crf.transitions])
        assert finetune.trainable_parameters() == finetune.all_parameters() == (
            finetune.encoder.parameters()
            + [finetune.word_table.vectors, finetune.head_w, finetune.head_b])


class TestSubtokenStream:
    def test_corpus_sentences_are_encoded_once(self, setup, monkeypatch):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY, seed=0)
        encoded = []

        def counting(tokens, vocab):
            encoded.append(tokens)
            return encode(tokens, vocab)

        monkeypatch.setattr(docner.context, "encode", counting)
        for sentence in corpus.sentences():
            model.contextualize(sentence, corpus)
        assert len(encoded) == corpus.num_sentences


class TestCheckpoint:
    @pytest.mark.parametrize("mode,head,we", [("finetune", "linear", False),
                                              ("feature", "crf", True)])
    def test_round_trip(self, setup, tmp_path, mode, head, we):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY,
                         context=ContextConfig(window=5, enforce_boundaries=True),
                         mode=mode, head=head, bilstm_hidden=8,
                         use_word_embeddings=we, word_dim=4,
                         word_tokens=["went"], seed=4)
        assert_round_trip(model, corpus, tmp_path)

    def test_every_setting_round_trips(self, setup, tmp_path):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, FOUR_LAYERS, **NON_DEFAULT_SETTINGS,
                         word_tokens=["went", "to", "went"], seed=7)
        defaults = {name: p.default
                    for name, p in inspect.signature(NerModel).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        assert all(model.settings[name] != value for name, value in defaults.items())
        assert model.crf.transitions.data.min() == -1e4  # constrained
        assert_round_trip(model, corpus, tmp_path)

    def test_version_check(self, setup, tmp_path):
        path = saved_then_edited(setup, tmp_path,
                                 edit_meta=lambda meta: meta.update(format_version=999))
        with pytest.raises(ValueError, match="version"):
            NerModel.load(path)

    def test_unknown_meta_key_rejected(self, setup, tmp_path):
        path = saved_then_edited(setup, tmp_path,
                                 edit_meta=lambda meta: meta.update(dropout_rate=0.5))
        with pytest.raises(ValueError, match="dropout_rate"):
            NerModel.load(path)

    @pytest.mark.parametrize("key", ["transformer", "context"])
    def test_non_object_config_meta_rejected(self, setup, tmp_path, key):
        path = saved_then_edited(setup, tmp_path,
                                 edit_meta=lambda meta: meta.update({key: None}))
        with pytest.raises(ValueError, match=f"{key} must hold an object"):
            NerModel.load(path)

    @pytest.mark.parametrize("key", ["transformer", "context"])
    def test_unknown_key_in_config_meta_rejected(self, setup, tmp_path, key):
        path = saved_then_edited(setup, tmp_path,
                                 edit_meta=lambda meta: meta[key].update(windw=3))
        with pytest.raises(ValueError, match=rf"unknown keys in checkpoint meta "
                                             rf"{key}: \['windw'\]"):
            NerModel.load(path)

    @pytest.mark.parametrize("field,value", [("enforce_boundaries", "false"),
                                             ("window", 3.5), ("window", "8"),
                                             ("window", False)])
    def test_mistyped_context_meta_rejected(self, setup, tmp_path, field, value):
        path = saved_then_edited(setup, tmp_path,
                                 edit_meta=lambda meta: meta["context"].update({field: value}))
        with pytest.raises(ValueError, match=f"context {field} must be"):
            NerModel.load(path)

    @pytest.mark.parametrize("key,field,value,expected", [
        ("transformer", "layers", 2.0, "int"), ("transformer", "heads", True, "int"),
        ("transformer", "max_positions", "64", "int"),
        ("transformer", "dropout", "0.1", "float"), ("transformer", "dropout", None, "float"),
        ("context", "enforce_boundaries", 1, "bool"), ("context", "window", [4], "int")])
    def test_mistyped_config_meta_value_rejected(self, setup, tmp_path, key, field, value,
                                                 expected):
        path = saved_then_edited(setup, tmp_path,
                                 edit_meta=lambda meta: meta[key].update({field: value}))
        with pytest.raises(ValueError, match=f"^checkpoint meta {key} {field} must be "
                                             f"{expected}, got "):
            NerModel.load(path)

    def test_non_finite_parameter_rejected(self, setup, tmp_path):
        def poison(arrays):
            arrays["param/head_b"] = arrays["param/head_b"].copy()
            arrays["param/head_b"][1] = np.nan
        path = saved_then_edited(setup, tmp_path, edit_arrays=poison)
        with pytest.raises(ValueError, match="head_b.*non-finite"):
            NerModel.load(path)

    def test_non_numeric_parameter_rejected(self, setup, tmp_path):
        def as_text(arrays):
            arrays["param/head_b"] = arrays["param/head_b"].astype(str)
        path = saved_then_edited(setup, tmp_path, edit_arrays=as_text)
        with pytest.raises(ValueError, match="head_b is not a numeric array"):
            NerModel.load(path)
        garbled = tmp_path / "garbled.npz"
        with zipfile.ZipFile(path) as source, zipfile.ZipFile(garbled, "w") as target:
            for member in source.namelist():
                target.writestr(member, b"garbage" if member == "param/head_b.npy"
                                else source.read(member))
        with pytest.raises(ValueError, match="head_b is not a numeric array"):
            NerModel.load(garbled)

    def test_head_width_must_match_label_set(self, setup, tmp_path):
        def drop_label(arrays):
            arrays["param/head_w"] = arrays["param/head_w"][:, :-1]
        path = saved_then_edited(setup, tmp_path, edit_arrays=drop_label)
        with pytest.raises(ValueError, match="head_w has shape"):
            NerModel.load(path)

    def test_zero_sizes_of_absent_parts_load(self, setup, tmp_path):
        # what a fine-tune model without word embeddings has always recorded
        path = saved_then_edited(
            setup, tmp_path,
            edit_meta=lambda meta: meta.update(bilstm_hidden=0, word_dim=0))
        loaded = NerModel.load(path)
        assert loaded.bilstm is None and loaded.word_table is None
        corpus, _ = setup
        assert predict_corpus(loaded, corpus).num_tokens == corpus.num_tokens

    def test_array_without_a_slot_rejected(self, setup, tmp_path):
        def add_crf(arrays):
            arrays["param/crf.transitions"] = np.zeros((11, 11))
        path = saved_then_edited(setup, tmp_path, edit_arrays=add_crf)
        with pytest.raises(ValueError, match="no slot for: crf.transitions"):
            NerModel.load(path)

    def test_missing_array_rejected(self, setup, tmp_path):
        path = saved_then_edited(setup, tmp_path,
                                 edit_arrays=lambda arrays: arrays.pop("param/head_b"))
        with pytest.raises(ValueError, match="lacks parameters: head_b"):
            NerModel.load(path)

    def test_non_archive_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "notes.npz"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError, match=r"notes\.npz is not a checkpoint archive"):
            NerModel.load(path)

    def test_archive_without_meta_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, **{"param/head_b": np.zeros(3)})
        with pytest.raises(ValueError, match="model.npz has no meta entry"):
            NerModel.load(path)

    @pytest.mark.parametrize("meta,message", [(b"[1, 2]", "must hold an object"),
                                              (b"{", "is not JSON text")])
    def test_meta_that_is_not_an_object_rejected(self, tmp_path, meta, message):
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(ValueError, match=f"checkpoint meta {message}"):
            NerModel.load(path)

    @pytest.mark.parametrize("key", ["vocab", "entity_types"])
    def test_missing_required_meta_key_named(self, setup, tmp_path, key):
        path = saved_then_edited(setup, tmp_path, edit_meta=lambda meta: meta.pop(key))
        with pytest.raises(ValueError, match=f"checkpoint meta lacks keys: {key}$"):
            NerModel.load(path)

    def test_entity_types_string_rejected(self, setup, tmp_path):
        corpus, vocab = setup
        assert len(corpus.label_set) == len("PER")  # the label count would match
        path = saved_then_edited(
            setup, tmp_path, edit_meta=lambda meta: meta.update(entity_types="PER"))
        with pytest.raises(ValueError, match="entity_types must hold a list of strings"):
            NerModel.load(path)
        with pytest.raises(ValueError, match="entity_types"):
            NerModel(vocab, "PER", TINY)

    def test_malformed_vocab_meta_gives_the_line(self, setup, tmp_path):
        path = saved_then_edited(
            setup, tmp_path,
            edit_meta=lambda meta: meta.update(vocab=meta["vocab"].replace(
                "#merges\n", "#merges\na b c\n")))
        with pytest.raises(ValueError, match=r"checkpoint meta vocab: vocab line \d+ "
                                             r"'a b c'"):
            NerModel.load(path)

    def test_vocab_meta_that_is_not_text_rejected(self, setup, tmp_path):
        path = saved_then_edited(setup, tmp_path,
                                 edit_meta=lambda meta: meta.update(vocab=["a"]))
        with pytest.raises(ValueError, match="checkpoint meta vocab must hold"):
            NerModel.load(path)

    @pytest.mark.parametrize("strategy", ["bogus", "last_four_concat"])
    def test_invalid_layer_strategy_rejected(self, setup, tmp_path, strategy):
        path = saved_then_edited(
            setup, tmp_path, edit_meta=lambda meta: meta.update(layer_strategy=strategy))
        with pytest.raises(ValueError, match="layer_strategy"):
            NerModel.load(path)

    def test_feature_mode_without_bilstm_size_rejected(self, setup, tmp_path):
        path = saved_then_edited(
            setup, tmp_path,
            edit_meta=lambda meta: meta.update(mode="feature", bilstm_hidden=0))
        with pytest.raises(ValueError, match="bilstm_hidden"):
            NerModel.load(path)

    def test_word_embeddings_without_width_rejected(self, setup, tmp_path):
        path = saved_then_edited(
            setup, tmp_path,
            edit_meta=lambda meta: meta.update(use_word_embeddings=True, word_dim=0))
        with pytest.raises(ValueError, match="word_dim"):
            NerModel.load(path)

    def test_encoder_vocab_size_of_earlier_versions_ignored(self, setup, tmp_path):
        # earlier versions saved the embedding row count in the transformer meta
        corpus, vocab = setup
        path = saved_then_edited(
            setup, tmp_path,
            edit_meta=lambda meta: meta["transformer"].update(vocab_size=len(vocab)))
        loaded = NerModel.load(path)
        assert loaded.settings["transformer"] == TINY
        assert_same_model(NerModel(vocab, corpus.label_set, TINY, seed=0), loaded, corpus)

    def test_hash_tokens_round_trip(self, tmp_path):
        corpus = parse_conll("#1 B-NUM\nrose O\n\n#2 B-NUM\nfell O\n")
        vocab = train_vocab(corpus, 20)
        assert "#" in vocab.alphabet
        model = NerModel(vocab, corpus.label_set, TINY, seed=0)
        train_finetune(model, corpus, FineTuneConfig(max_epochs=1), seed=0)
        assert_round_trip(model, corpus, tmp_path)


def assert_round_trip(model, corpus, tmp_path):
    """Save then load `model`: same arguments, parameters and predictions."""
    path = tmp_path / "model.npz"
    model.save(path)
    assert_same_model(model, NerModel.load(path), corpus)


def assert_same_model(model, loaded, corpus):
    assert loaded.settings.keys() == set(inspect.signature(NerModel).parameters)
    for name, value in model.settings.items():
        if name == "vocab":
            assert loaded.vocab.dumps() == value.dumps()
        else:
            assert loaded.settings[name] == value, name
    assert loaded.labels == model.labels
    for (name_a, a), (name_b, b) in zip(model._named_parameters().items(),
                                        loaded._named_parameters().items()):
        assert name_a == name_b
        np.testing.assert_array_equal(a.data, b.data)
    same = predict_corpus(model, corpus)
    again = predict_corpus(loaded, corpus)
    assert [t.predicted_tag for s in same.sentences() for t in s.tokens] == \
        [t.predicted_tag for s in again.sentences() for t in s.tokens]


class TestBuildModel:
    def test_shared_defaults_match_the_constructor(self):
        parameters = inspect.signature(NerModel).parameters
        shared = [f.name for f in dataclasses.fields(ExperimentConfig)
                  if f.name in parameters and f.name != "transformer"]
        assert len(shared) == 8
        defaults = ExperimentConfig()
        for name in shared:
            assert getattr(defaults, name) == parameters[name].default, name

    def test_forwards_every_shared_config_field(self, setup):
        corpus, vocab = setup
        shared = dict(NON_DEFAULT_SETTINGS, transformer=FOUR_LAYERS)
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert shared.keys() == fields & set(inspect.signature(NerModel).parameters)
        defaults = ExperimentConfig()
        assert all(getattr(defaults, name) != value for name, value in shared.items())
        model = build_model(ExperimentConfig(**shared), vocab, corpus, seed=7)
        assert {name: model.settings[name] for name in shared} == shared
        assert model.settings["seed"] == 7
        assert model.settings["entity_types"] == sorted(corpus.label_set)
        assert model.settings["word_tokens"] == \
            sorted({t for s in corpus.sentences() for t in s.texts})

    def test_include_dev_takes_the_dev_entity_types(self, setup):
        corpus, vocab = setup
        train = without_type(corpus, "LOC")
        dev = overfit_corpus(6, seed=8, split="dev")
        cfg = ExperimentConfig(transformer=TINY, finetune=FineTuneConfig(max_epochs=1))
        assert build_model(cfg, vocab, train, 0, dev).settings["entity_types"] == \
            sorted(train.label_set)
        cfg.finetune.include_dev = True
        model = build_model(cfg, vocab, train, 0, dev)
        assert model.settings["entity_types"] == sorted(train.label_set | {"LOC"})
        _, log = train_finetune(model, train, cfg.finetune, seed=1, dev_corpus=dev)
        assert len(log.records) == 1


def saved_then_edited(setup, tmp_path, edit_meta=None, edit_arrays=None):
    """Save a fine-tune model, then rewrite its checkpoint through the edits."""
    corpus, vocab = setup
    path = tmp_path / "model.npz"
    NerModel(vocab, corpus.label_set, TINY, seed=0).save(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        arrays = {k: data[k] for k in data.files if k != "meta"}
    for edit, target in ((edit_meta, meta), (edit_arrays, arrays)):
        if edit is not None:
            edit(target)
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)
    return path


class TestPredictCorpus:
    def test_predictions_in_corpus_scheme(self, setup):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY, seed=0)
        predicted = predict_corpus(model, corpus)
        assert predicted.scheme is TagScheme.BIO
        for sent in predicted.sentences():
            for tok in sent.tokens:
                assert tok.predicted_tag is not None
                prefix = tok.predicted_tag.split("-")[0]
                assert prefix in ("B", "I", "O")

    def test_deterministic(self, setup):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY, seed=0)
        a = predict_corpus(model, corpus)
        b = predict_corpus(model, corpus)
        assert [t.predicted_tag for s in a.sentences() for t in s.tokens] == \
            [t.predicted_tag for s in b.sentences() for t in s.tokens]

    def test_invalid_mode_or_head_rejected(self, setup):
        corpus, vocab = setup
        with pytest.raises(ValueError):
            NerModel(vocab, corpus.label_set, TINY, mode="distill")
        with pytest.raises(ValueError):
            NerModel(vocab, corpus.label_set, TINY, head="biaffine")

    @pytest.mark.parametrize("strategy", ["bogus", "last_four_concat"])
    def test_invalid_layer_strategy_rejected(self, setup, strategy):
        corpus, vocab = setup
        two_layers = dataclasses.replace(TINY, layers=2)
        with pytest.raises(ValueError, match="layer_strategy"):
            NerModel(vocab, corpus.label_set, two_layers, layer_strategy=strategy)


WORDS = ["Tevin", "went", "to", "Ostia", ".", "Nordex", "Group", "qz", "x"]


@st.composite
def mixed_length_corpora(draw):
    """Corpora of 0 to 4 documents whose sentences have 1 to 20 tokens."""
    documents = []
    for _ in range(draw(st.integers(0, 4))):
        sentences = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1,
                                           max_size=20), min_size=1, max_size=5))
        documents.append("\n\n".join("\n".join(f"{w} O" for w in sentence)
                                       for sentence in sentences))
    return corpus_from_documents(documents, split="test")


class TestPredictCorpusBatching:
    @pytest.mark.parametrize("mode,head", [("finetune", "linear"), ("feature", "crf")])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corpus=mixed_length_corpora(), window=st.sampled_from([0, 5, 40]),
           enforce=st.booleans(), budget=st.sampled_from([1, 40, 256]))
    def test_equals_tagging_each_sentence(self, setup, mode, head, corpus, window,
                                          enforce, budget):
        train, vocab = setup
        model = NerModel(vocab, train.label_set, TINY, mode=mode, head=head,
                         bilstm_hidden=8, context=ContextConfig(window, enforce),
                         seed=0)
        with mock.patch("docner.model.ENCODE_ROW_BUDGET", budget):
            predicted = predict_corpus(model, corpus)
        expected = [model.decode_tags(s.texts, model.contextualize(s, corpus),
                                      corpus.scheme)
                    for s in corpus.sentences()]
        assert [s.predicted_tags for s in predicted.sentences()] == expected
        assert predicted.num_tokens == corpus.num_tokens


def shared_window_corpus():
    """Documents of 2 and 3 sentences, one of them a single token and one
    document twice, that fit 30 positions whole, then a document of five
    sentences that `fit_to_length` trims to 30 positions, the last two alike."""
    def sentence(words):
        return "\n".join(f"{w} O" for w in words.split())

    first = "\n\n".join([sentence("Tevin went to Ostia ."), sentence("qz"),
                          sentence("Nordex Group .")])
    second = "\n\n".join([sentence("x went"), sentence("Tevin .")])
    long = "\n\n".join([sentence("Tevin went to Ostia . x qz"),
                         sentence("Nordex Group went to x ."),
                         sentence("qz x Tevin went to Ostia"), sentence("Group x qz ."),
                         sentence("Ostia went x Tevin .")])
    return corpus_from_documents([first, second, first, long], split="test")


def encoder_rows(monkeypatch):
    """Record, for each encoder call of the model, its encoder row count
    and the number of distinct assembled inputs of its sentences, and keep
    the last call's layer outputs."""
    calls = []

    def recording(batch, *args, **kwargs):
        hidden = encode_transformer(batch, *args, **kwargs)
        calls.append((hidden[0].shape[0] // batch.width,
                      len({tuple(c.assembled_ids()) for c in batch.ctxs}), hidden))
        return hidden

    monkeypatch.setattr(docner.model, "encode_transformer", recording)
    return calls


class TestSharedWindows:
    @pytest.mark.parametrize("we", [False, True])
    @pytest.mark.parametrize("layers,strategy", [(0, "last_layer"), (1, "all_layer_mean"),
                                                 (4, "all_layer_mean"),
                                                 (4, "last_four_concat")])
    def test_frozen_features_equal_a_row_per_sentence(self, setup, monkeypatch, layers,
                                                      strategy, we):
        train, vocab = setup
        corpus = shared_window_corpus()
        transformer = dataclasses.replace(FOUR_LAYERS, layers=layers, max_positions=30)
        model = NerModel(vocab, train.label_set, transformer,
                         context=ContextConfig(64, enforce_boundaries=True),
                         mode="feature", layer_strategy=strategy,
                         use_word_embeddings=we, word_dim=4, word_tokens=WORDS, seed=0)
        sentences = list(corpus.sentences())
        tokens = [s.texts for s in sentences]
        ctxs = [model.contextualize(s, corpus) for s in sentences]
        windows = [tuple(c.assembled_ids()) for c in ctxs]
        assert len(set(windows)) == 6 and windows[:3] == windows[5:8]
        trimmed = windows[8:]
        assert len(set(trimmed)) == 4 and {len(w) for w in trimmed} == {30}
        calls = encoder_rows(monkeypatch)
        model.frozen_features(tokens, ctxs)
        assert [rows for rows, _, _ in calls] == [distinct for _, distinct, _ in calls]
        assert sum(rows for rows, _, _ in calls) < len(ctxs)
        # one batch, against the same batch encoded while a graph is recorded,
        # a row per sentence: a padded batch and a batch of one may differ in
        # the last bit, whether rows are shared or not
        monkeypatch.setattr(docner.model, "ENCODE_ROW_BUDGET", 30 * len(ctxs))
        shared = model.frozen_features(tokens, ctxs)
        assert calls[-1][0] == 6
        per_sentence = model.token_features(tokens, ctxs).data
        assert calls[-1][0] == len(ctxs)
        bounds = np.cumsum([len(t) for t in tokens])[:-1]
        for f, expected in zip(shared, np.split(per_sentence, bounds)):
            assert f.tobytes() == expected.tobytes()

    def test_a_recorded_batch_keeps_a_row_and_a_mask_per_sentence(self, setup,
                                                                  monkeypatch):
        train, vocab = setup
        corpus = shared_window_corpus()
        model = NerModel(vocab, train.label_set, FOUR_LAYERS,
                         context=ContextConfig(64, enforce_boundaries=True), seed=0)
        assert FOUR_LAYERS.dropout > 0
        sentences = corpus.documents[1].sentences
        ctxs = [model.contextualize(s, corpus) for s in sentences]
        assert ctxs[0].assembled_ids() == ctxs[1].assembled_ids()
        calls = encoder_rows(monkeypatch)
        model.token_features([s.texts for s in sentences], ctxs, train=True,
                             rng=np.random.default_rng(0))
        [(rows, distinct, hidden)] = calls
        assert (rows, distinct) == (2, 1)
        width = ctxs[0].assembled_length
        embeddings, layer1 = hidden[0].data, hidden[1].data
        np.testing.assert_array_equal(embeddings[:width], embeddings[width:])
        assert not np.array_equal(layer1[:width], layer1[width:])  # two dropout masks

    @pytest.mark.parametrize("head", ["linear", "crf"])
    def test_recorded_batch_of_one_window_passes_finite_differences(self, head):
        corpus, model = _mini_tagging_model(seed=200, head=head)
        model.context = ContextConfig(window=24, enforce_boundaries=True)
        sentences = list(corpus.sentences())
        ctxs = [model.contextualize(s, corpus) for s in sentences]
        assert len({tuple(c.assembled_ids()) for c in ctxs}) == 1 < len(ctxs)
        tokens = [s.texts for s in sentences]
        gold = [model.gold_ids(s, corpus.scheme) for s in sentences]
        err = oracle_ops.grad_check(
            lambda: model.batch_loss(model.token_features(tokens, ctxs, train=True),
                                     gold) * 1e-4,
            model.all_parameters(), epsilon=1e-5)
        assert err < 1e-5
