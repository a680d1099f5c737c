import numpy as np
import pytest

import docner.context
from docner.context import ContextConfig
from docner.corpus import TagScheme, spans_from_tags
from docner.encoder import TransformerConfig
from docner.model import NerModel, bioes_labels, predict_corpus
from docner.synthetic import overfit_corpus
from docner.tokenizer import encode, train_vocab

TINY = TransformerConfig(layers=1, heads=2, model_dim=16, ff_dim=32,
                         max_positions=96)


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
        assert spans_from_tags(tags, TagScheme.BIOES) == \
            spans_from_tags(sentence.gold_tags, corpus.scheme)


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
        loss = model.sentence_loss(sentence.texts, ctx,
                                   model.gold_ids(sentence, corpus.scheme))
        assert np.isfinite(loss.data)
        ids = model.decode_ids(sentence.texts, ctx)
        assert len(ids) == len(sentence)
        assert all(0 <= i < len(model.labels) for i in ids)

    def test_feature_mode_accepts_precomputed_features(self, setup):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY, mode="feature",
                         head="crf", bilstm_hidden=8, seed=0)
        sentence = next(corpus.sentences())
        ctx = model.contextualize(sentence, corpus)
        feats = model.frozen_features(sentence.texts, ctx)
        direct = model.decode_ids(sentence.texts, ctx)
        cached = model.decode_ids(sentence.texts, ctx, frozen_features=feats)
        assert direct == cached


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
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = NerModel.load(path)
        assert loaded.labels == model.labels
        assert loaded.context == model.context
        assert loaded.mode == model.mode and loaded.head == model.head
        for (name_a, a), (name_b, b) in zip(model._named_parameters().items(),
                                            loaded._named_parameters().items()):
            assert name_a == name_b
            np.testing.assert_array_equal(a.data, b.data)
        same = predict_corpus(model, corpus)
        again = predict_corpus(loaded, corpus)
        assert [t.predicted_tag for s in same.sentences() for t in s.tokens] == \
            [t.predicted_tag for s in again.sentences() for t in s.tokens]

    def test_version_check(self, setup, tmp_path):
        import json

        import numpy as np

        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY, seed=0)
        path = tmp_path / "model.npz"
        model.save(path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta["format_version"] = 999
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(),
                                          dtype=np.uint8), **arrays)
        with pytest.raises(ValueError, match="version"):
            NerModel.load(path)


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

    def test_context_override_restores_model_default(self, setup):
        corpus, vocab = setup
        model = NerModel(vocab, corpus.label_set, TINY,
                         context=ContextConfig(window=7), seed=0)
        predict_corpus(model, corpus, ContextConfig(window=0))
        assert model.context.window == 7

    def test_invalid_mode_or_head_rejected(self, setup):
        corpus, vocab = setup
        with pytest.raises(ValueError):
            NerModel(vocab, corpus.label_set, TINY, mode="distill")
        with pytest.raises(ValueError):
            NerModel(vocab, corpus.label_set, TINY, head="biaffine")
