"""A model computes in float32; the oracles, and checkpoints saved in float64,
in float64. These tests hold a float32 model to a float64 copy with the same
weights, check that training keeps every array in float32, check the dtype
rules of the model's inputs and checkpoints, and check that only a float64
path loads scipy."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from docner.context import ContextConfig
from docner.encoder import TransformerConfig
from docner.model import NerModel, predict_corpus
from docner.synthetic import overfit_corpus
from docner.tokenizer import train_vocab
from docner.training import AdamW, Sgd

import oracle_ops
from test_model import assert_round_trip, saved_then_edited

TWO_LAYERS = TransformerConfig(layers=2, heads=2, model_dim=16, ff_dim=32,
                               max_positions=96)
KINDS = [dict(mode="finetune", head="linear"), dict(mode="finetune", head="crf"),
         dict(mode="feature", head="crf")]
# float32 against float64 with the same weights, over seeds 0-4 of each kind:
# loss within 1.1e-7 relative, every gradient within 6.1e-7 of its parameter's
# largest gradient. The bounds leave about 10x.
LOSS_REL = 1e-6
GRAD_REL = 1e-5


@pytest.fixture(scope="module")
def setup():
    corpus = overfit_corpus(10, seed=2)
    vocab = train_vocab(corpus, 150)
    return corpus, vocab


def build(setup, kind, transformer=TWO_LAYERS, seed=0, bilstm_hidden=8):
    corpus, vocab = setup
    return NerModel(vocab, corpus.label_set, transformer, context=ContextConfig(window=6),
                    bilstm_hidden=bilstm_hidden, seed=seed, **kind)


def batch_loss(model, corpus, sentences, rng=None):
    """The model's training loss over `sentences`, with its features built
    the way its training recipe builds them."""
    tokens = [s.texts for s in sentences]
    ctxs = [model.contextualize(s, corpus) for s in sentences]
    gold = [model.gold_ids(s, corpus.scheme) for s in sentences]
    if model.mode == "feature":
        features = np.concatenate(model.frozen_features(tokens, ctxs))
    else:
        features = model.token_features(tokens, ctxs, train=True, rng=rng)
    return model.batch_loss(features, gold)


def loss_and_gradients(model, corpus, sentences):
    for p in model.all_parameters():
        p.grad = None
    loss = batch_loss(model, corpus, sentences)
    loss.backward()
    return float(loss.data), {name: p.grad for name, p in model._named_parameters().items()}


def assert_float32_agrees(setup, make):
    """The loss and gradients of model `make()` on six sentences against a
    float64 copy with the same weights, within LOSS_REL and GRAD_REL."""
    corpus, _ = setup
    sentences = list(corpus.sentences())[:6]
    single = make()
    double = oracle_ops.as_float64(make())
    for a, b in zip(single.all_parameters(), double.all_parameters()):
        np.testing.assert_array_equal(a.data, b.data)  # the same weights
    loss, grads = loss_and_gradients(single, corpus, sentences)
    ref_loss, ref_grads = loss_and_gradients(double, corpus, sentences)
    assert loss == pytest.approx(ref_loss, rel=LOSS_REL, abs=0)
    largest = max(np.abs(g).max() for g in ref_grads.values() if g is not None)
    for name, ref in ref_grads.items():
        if ref is None:  # frozen
            assert grads[name] is None
            continue
        assert grads[name].dtype == np.float32
        # a key bias's gradient is zero up to rounding: hold it to the largest
        scale = largest if name.endswith(".wk_b") else np.abs(ref).max()
        assert np.abs(grads[name] - ref).max() <= GRAD_REL * scale, name


class TestFloat32AgainstFloat64:
    def test_built_in_float32_from_the_float64_draws(self, setup):
        model = build(setup, KINDS[2])
        assert model.dtype == np.float32
        assert all(p.dtype == np.float32 for p in model.all_parameters())
        assert model.crf.transitions.dtype == np.float32

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k['mode']}-{k['head']}")
    def test_loss_and_gradients_agree(self, setup, kind):
        assert_float32_agrees(setup, lambda: build(setup, kind))

    @pytest.mark.parametrize("seed", range(5))
    def test_bilstm_crf_on_the_tanh_gates_agrees(self, setup, seed):
        """float32 BiLSTM gates are one tanh (sigmoid as 1/2 + 1/2 tanh(x / 2)),
        float64 gates scipy's expit: the float32 loss and gradients stay
        within the float64 copy's bounds."""
        assert_float32_agrees(setup, lambda: build(setup, KINDS[2], seed=seed,
                                                   bilstm_hidden=32))

    @pytest.mark.parametrize("optimizer", [AdamW, Sgd])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k['mode']}-{k['head']}")
    def test_a_step_with_dropout_keeps_float32(self, setup, kind, optimizer):
        corpus, _ = setup
        model = build(setup, kind, dataclasses.replace(TWO_LAYERS, dropout=0.2))
        params = model.trainable_parameters()
        opt = optimizer(params)
        opt.zero_grad()
        # a float64 dropout mask or buffer would reach the backward, which
        # raises on a gradient of another dtype than its operand
        batch_loss(model, corpus, list(corpus.sentences())[:4],
                   rng=np.random.default_rng(0)).backward()
        opt.step(0.01)
        assert all(p.dtype == np.float32 for p in model.all_parameters())
        assert all(p.grad.dtype == np.float32 for p in params)
        if isinstance(opt, AdamW):  # Sgd keeps no moments
            assert opt.m.dtype == opt.v.dtype == np.float32


class TestInputDtype:
    def test_batch_loss_rejects_features_of_another_dtype(self, setup):
        corpus, _ = setup
        model = build(setup, KINDS[2])
        features = np.zeros((3, TWO_LAYERS.model_dim))
        with pytest.raises(ValueError, match="float64 features for a model whose "
                                             "parameters are float32"):
            model.batch_loss(features, [[0, 0, 0]])
        model.batch_loss(features.astype(np.float32), [[0, 0, 0]])

    def test_tag_features_rejects_features_of_another_dtype(self, setup):
        model = build(setup, KINDS[2])
        features = [np.zeros((2, TWO_LAYERS.model_dim), np.float32),
                    np.zeros((3, TWO_LAYERS.model_dim))]
        with pytest.raises(ValueError, match="float64 features"):
            model.tag_features(features)
        assert len(model.tag_features(features[:1])[0]) == 2


class TestCheckpointDtype:
    def test_float32_round_trip_is_exact(self, setup, tmp_path):
        corpus, _ = setup
        model = build(setup, KINDS[2])
        assert_round_trip(model, corpus, tmp_path)
        loaded = NerModel.load(tmp_path / "model.npz")
        assert all(p.dtype == np.float32 for p in loaded.all_parameters())

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k['mode']}-{k['head']}")
    def test_float64_checkpoint_round_trips_bit_for_bit(self, setup, tmp_path, kind):
        corpus, _ = setup
        model = build(setup, kind)
        rng = np.random.default_rng(5)
        for p in model.all_parameters():  # float64 weights no float32 can hold
            p.data = p.data + rng.normal(0.0, 1e-3, p.data.shape)
        assert model.dtype == np.float64
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = NerModel.load(path)
        for a, b in zip(model.all_parameters(), loaded.all_parameters()):
            assert b.dtype == np.float64
            assert a.data.tobytes() == b.data.tobytes()
        same = predict_corpus(model, corpus)
        again = predict_corpus(loaded, corpus)
        assert [s.predicted_tags for s in same.sentences()] == \
            [s.predicted_tags for s in again.sentences()]
        loaded.save(path)
        assert all(a.data.tobytes() == b.data.tobytes() for a, b in
                   zip(loaded.all_parameters(), NerModel.load(path).all_parameters()))

    def test_mixed_float_dtypes_rejected_naming_the_parameter(self, setup, tmp_path):
        def widen(arrays):
            arrays["param/head_b"] = arrays["param/head_b"].astype(np.float64)
        path = saved_then_edited(setup, tmp_path, edit_arrays=widen)
        with pytest.raises(ValueError, match="checkpoint parameter head_b is float64, "
                                             "but encoder.tok_emb is float32"):
            NerModel.load(path)

    def test_integer_parameters_take_the_float_dtype(self, setup, tmp_path):
        def as_integers(arrays):
            arrays["param/head_b"] = np.zeros(arrays["param/head_b"].shape, np.int64)
        loaded = NerModel.load(saved_then_edited(setup, tmp_path,
                                                 edit_arrays=as_integers))
        assert loaded.head_b.dtype == np.float32
        assert not loaded.head_b.data.any()



SRC = Path(__file__).resolve().parents[1] / "src"

# trains and predicts one float32 fine-tuning model (linear head) and one
# float32 feature model (BiLSTM-CRF), then runs `docner --help`
FLOAT32_RUN = """
import contextlib, io
from docner.cli import main
from docner.encoder import TransformerConfig
from docner.model import NerModel, predict_corpus
from docner.synthetic import overfit_corpus
from docner.tokenizer import train_vocab
from docner.training import (FeatureBasedConfig, FineTuneConfig, train_feature_based,
                             train_finetune)

corpus = overfit_corpus(6, seed=1)
vocab = train_vocab(corpus, 120)
tiny = TransformerConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_positions=96)
for kind, train, config in (
        (dict(mode="finetune", head="linear"), train_finetune,
         FineTuneConfig(max_epochs=1)),
        (dict(mode="feature", head="crf"), train_feature_based,
         FeatureBasedConfig(max_epochs=2))):
    model = NerModel(vocab, corpus.label_set, tiny, bilstm_hidden=8, seed=0, **kind)
    assert str(model.dtype) == "float32"
    model, _ = train(model, corpus, config, seed=0, dev_corpus=corpus)
    assert predict_corpus(model, corpus).num_tokens == corpus.num_tokens
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(["--help"])
"""


def loads_scipy_special(code: str) -> bool:
    """Whether running `code` in a fresh interpreter imports scipy.special."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "\nimport sys\nprint('scipy.special' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code) + probe],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()[-1] == "True"


class TestScipyOnlyForFloat64:
    """scipy.special costs about 25 MB of resident memory: a float32 model
    never imports it, and a float64 op imports it on first use."""

    def test_float32_training_prediction_and_cli_do_not_load_it(self):
        assert not loads_scipy_special(FLOAT32_RUN)

    def test_float64_gelu_loads_it(self):
        assert loads_scipy_special("""
            import numpy as np
            from docner import autodiff as ad
            ad.gelu(np.linspace(-3.0, 3.0, 7))
            """)
