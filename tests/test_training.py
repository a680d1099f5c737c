import logging
import math

import numpy as np
import pytest

from docner.autodiff import Tensor
from docner.context import ContextConfig
from docner.corpus import parse_conll
from docner.encoder import TransformerConfig
from docner.model import NerModel
from docner.synthetic import overfit_corpus
from docner.tokenizer import train_vocab
from docner.training import (AdamW, EpochRecord, FeatureBasedConfig, FineTuneConfig,
                             Sgd, TrainLog, one_cycle_lr, train_feature_based,
                             train_finetune)
from oracle_ops import annealing_epochs

SMALL = dict(layers=2, heads=2, model_dim=32, ff_dim=64, max_positions=128)


def small_model(corpus, vocab, mode="finetune", head="linear", window=0, seed=0,
                **kwargs):
    return NerModel(vocab, corpus.label_set, TransformerConfig(**SMALL),
                    context=ContextConfig(window=window), mode=mode, head=head,
                    bilstm_hidden=16, seed=seed, **kwargs)


@pytest.fixture(scope="module")
def train_setup():
    corpus = overfit_corpus(20, seed=3)
    vocab = train_vocab(corpus, 200)
    return corpus, vocab


def zero_entity_dev():
    text = "\n\n".join("\n".join(f"w{i}{j} O" for j in range(3)) for i in range(4))
    return parse_conll(text + "\n", split="dev")


class TestOneCycle:
    def test_first_step_is_peak(self):
        assert one_cycle_lr(0, 100, 0.5) == 0.5

    def test_linear_formula(self):
        assert one_cycle_lr(19, 20, 1.0) == pytest.approx(1.0 / 20)

    def test_reaches_zero_after_last_update(self):
        assert one_cycle_lr(20, 20, 0.3) == 0.0

    def test_zero_total_steps_errors(self):
        with pytest.raises(ValueError):
            one_cycle_lr(0, 0, 0.1)

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            one_cycle_lr(21, 20, 0.1)


class TestOptimizers:
    def test_adamw_minimizes_quadratic(self):
        x = Tensor([10.0])
        opt = AdamW([x], weight_decay=0.0)
        for _ in range(500):
            opt.zero_grad()
            x.grad = 2.0 * (x.data - 3.0)
            opt.step(0.1)
        assert x.data[0] == pytest.approx(3.0, abs=1e-3)

    def test_adamw_decoupled_weight_decay(self):
        x = Tensor([2.0])
        opt = AdamW([x], weight_decay=0.5)
        x.grad = np.zeros(1)
        opt.step(0.1)
        # pure decay: update term is 0 (m=v=0), so x -= lr * wd * x
        assert x.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-12)

    def test_params_without_grad_untouched(self):
        x = Tensor([1.0])
        opt = Sgd([x])
        opt.step(0.1)
        assert x.data[0] == 1.0

    def test_sgd_step(self):
        x = Tensor([1.0])
        x.grad = np.array([0.5])
        Sgd([x]).step(0.2)
        assert x.data[0] == pytest.approx(0.9)


class TestTrainLog:
    def test_epochs_strictly_increasing(self):
        log = TrainLog()
        log.append(EpochRecord(1, 0.1, 1.0, None, 0.0))
        with pytest.raises(ValueError):
            log.append(EpochRecord(1, 0.1, 0.9, None, 0.0))

    def test_csv_round_trip(self, tmp_path):
        log = TrainLog()
        log.append(EpochRecord(1, 0.1, 1.25, None, 0.5))
        log.append(EpochRecord(2, 0.05, 0.75, 88.1234, 0.4))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss,dev_f1,seconds"
        assert lines[1].startswith("1,0.1,1.25,,")
        assert lines[2].startswith("2,0.05,0.75,88.1234,")


class TestTrainFinetune:
    def test_zero_epochs_leaves_parameters_identical(self, train_setup):
        corpus, vocab = train_setup
        model = small_model(corpus, vocab)
        before = [p.data.copy() for p in model.all_parameters()]
        model, log = train_finetune(model, corpus,
                                    FineTuneConfig(max_epochs=0), seed=1)
        assert log.records == []
        for p, b in zip(model.all_parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_equal_seeds_bitwise_identical(self, train_setup):
        corpus, vocab = train_setup
        cfg = FineTuneConfig(max_epochs=2)
        logs, params = [], []
        for _ in range(2):
            model = small_model(corpus, vocab, seed=5)
            model, log = train_finetune(model, corpus, cfg, seed=9)
            logs.append(log.losses)
            params.append(b"".join(p.data.tobytes()
                                   for p in model.all_parameters()))
        assert logs[0] == logs[1]
        assert params[0] == params[1]

    def test_runs_exactly_max_epochs(self, train_setup):
        corpus, vocab = train_setup
        model = small_model(corpus, vocab)
        _, log = train_finetune(model, corpus, FineTuneConfig(max_epochs=3), seed=1)
        assert [r.epoch for r in log.records] == [1, 2, 3]

    def test_loss_decreases_early_for_most_seeds(self):
        corpus = overfit_corpus(50, seed=0)
        vocab = train_vocab(corpus, 250)
        cfg = FineTuneConfig(max_epochs=5)
        wins = 0
        for seed in range(1, 6):
            model = small_model(corpus, vocab, seed=seed)
            _, log = train_finetune(model, corpus, cfg, seed=seed)
            losses = log.losses
            if all(a > b for a, b in zip(losses, losses[1:])):
                wins += 1
        assert wins >= 4

    def test_lr_schedule_decays_within_run(self, train_setup):
        corpus, vocab = train_setup
        model = small_model(corpus, vocab)
        _, log = train_finetune(model, corpus, FineTuneConfig(max_epochs=4), seed=1)
        lrs = [r.lr for r in log.records]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))
        assert lrs[0] < FineTuneConfig().peak_lr  # first logged lr is mid-epoch

    def test_include_dev_grows_pool_by_dev_size(self, train_setup, monkeypatch):
        corpus, vocab = train_setup
        dev = overfit_corpus(7, seed=11, split="dev")
        model = small_model(corpus, vocab)
        calls = {"n": 0}
        original = model.batch_loss

        def counting(features, gold):
            calls["n"] += len(gold)
            return original(features, gold)

        monkeypatch.setattr(model, "batch_loss", counting)
        cfg = FineTuneConfig(max_epochs=1, include_dev=True)
        train_finetune(model, corpus, cfg, seed=1, dev_corpus=dev)
        assert calls["n"] == corpus.num_sentences + dev.num_sentences

    def test_include_dev_requires_dev_corpus(self, train_setup):
        corpus, vocab = train_setup
        model = small_model(corpus, vocab)
        with pytest.raises(ValueError, match="dev"):
            train_finetune(model, corpus,
                           FineTuneConfig(max_epochs=1, include_dev=True), seed=1)

    def test_wrong_mode_rejected(self, train_setup):
        corpus, vocab = train_setup
        model = small_model(corpus, vocab, mode="feature", head="crf")
        with pytest.raises(ValueError, match="feature-based"):
            train_finetune(model, corpus, FineTuneConfig(max_epochs=1), seed=1)

    def test_over_length_context_truncated_with_warning(self, train_setup, caplog):
        corpus, vocab = train_setup
        model = NerModel(vocab, corpus.label_set,
                         TransformerConfig(layers=1, heads=2, model_dim=16,
                                           ff_dim=32, max_positions=40),
                         context=ContextConfig(window=64), seed=0)
        with caplog.at_level(logging.WARNING, logger="docner.context"):
            train_finetune(model, corpus, FineTuneConfig(max_epochs=1), seed=1)
        assert any("truncated context" in r.message for r in caplog.records)


class TestTrainFeatureBased:
    def test_missing_dev_errors(self, train_setup):
        corpus, vocab = train_setup
        model = small_model(corpus, vocab, mode="feature", head="crf")
        with pytest.raises(ValueError, match="dev split"):
            train_feature_based(model, corpus, FeatureBasedConfig(), seed=1)

    def test_encoder_bytes_identical(self, train_setup):
        corpus, vocab = train_setup
        dev = overfit_corpus(6, seed=8, split="dev")
        model = small_model(corpus, vocab, mode="feature", head="crf")
        before = b"".join(p.data.tobytes() for p in model.encoder.parameters())
        model, _ = train_feature_based(model, corpus,
                                       FeatureBasedConfig(max_epochs=3), seed=1,
                                       dev_corpus=dev)
        after = b"".join(p.data.tobytes() for p in model.encoder.parameters())
        assert before == after

    def test_changed_word_table_is_caught(self, train_setup, monkeypatch):
        corpus, vocab = train_setup
        dev = overfit_corpus(6, seed=8, split="dev")
        model = small_model(corpus, vocab, mode="feature", head="crf",
                            use_word_embeddings=True, word_dim=4, word_tokens=["went"])
        step = Sgd.step

        def leaky_step(opt, lr):
            step(opt, lr)
            model.word_table.vectors.data = model.word_table.vectors.data + 1.0

        monkeypatch.setattr(Sgd, "step", leaky_step)
        with pytest.raises(AssertionError, match="frozen parameters changed"):
            train_feature_based(model, corpus, FeatureBasedConfig(max_epochs=1),
                                seed=1, dev_corpus=dev)

    def test_frozen_dev_f1_anneals_on_schedule(self, train_setup):
        corpus, vocab = train_setup
        model = small_model(corpus, vocab, mode="feature", head="crf")
        cfg = FeatureBasedConfig()
        model, log = train_feature_based(model, corpus, cfg, seed=1,
                                         dev_corpus=zero_entity_dev())
        assert all(r.dev_f1 == 0.0 for r in log.records)
        assert len(log.records) == annealing_epochs(cfg)  # lr floor, not max_epochs
        lrs = [r.lr for r in log.records]
        # constant for `patience` epochs after the initial best, then halving
        assert lrs[:4] == [0.1, 0.1, 0.1, 0.1]
        assert lrs[4] == pytest.approx(0.05)
        distinct = sorted(set(lrs), reverse=True)
        for a, b in zip(distinct, distinct[1:]):
            assert b == pytest.approx(a * cfg.anneal_factor)
        assert distinct[-1] >= cfg.min_lr

    def test_lr_constant_while_improving(self, train_setup):
        corpus, vocab = train_setup
        dev = overfit_corpus(6, seed=8, split="dev")
        model = small_model(corpus, vocab, mode="feature", head="crf")
        model, log = train_feature_based(model, corpus,
                                         FeatureBasedConfig(max_epochs=12), seed=1,
                                         dev_corpus=dev)
        best = -math.inf
        for current, nxt in zip(log.records, log.records[1:]):
            if current.dev_f1 > best:
                best = current.dev_f1
                assert nxt.lr == current.lr

    def test_returns_best_dev_model(self, train_setup):
        corpus, vocab = train_setup
        dev = overfit_corpus(6, seed=8, split="dev")
        model = small_model(corpus, vocab, mode="feature", head="crf")
        model, log = train_feature_based(model, corpus,
                                         FeatureBasedConfig(max_epochs=6), seed=1,
                                         dev_corpus=dev)
        from docner.evaluation import score
        from docner.model import predict_corpus

        best_logged = max(r.dev_f1 for r in log.records)
        final = score(dev, predict_corpus(model, dev)).micro.f1
        assert final == pytest.approx(best_logged, abs=1e-9)

    def test_wrong_mode_rejected(self, train_setup):
        corpus, vocab = train_setup
        model = small_model(corpus, vocab)
        with pytest.raises(ValueError, match="fine-tuning"):
            train_feature_based(model, corpus, FeatureBasedConfig(), seed=1,
                                dev_corpus=zero_entity_dev())


class TestAnnealingClosedForm:
    def test_default_schedule(self):
        cfg = FeatureBasedConfig()
        # 10 halvings take 0.1 below 1e-4; first improvement at epoch 1
        assert annealing_epochs(cfg) == 1 + cfg.patience * 10

    def test_other_factor(self):
        cfg = FeatureBasedConfig(learning_rate=0.2, anneal_factor=0.1,
                                 min_lr=1e-3, patience=2)
        # 0.2 -> 0.02 -> 0.002 -> 0.0002 < 1e-3 after 3 anneals
        assert annealing_epochs(cfg) == 1 + 2 * 3


class TestConfigValidation:
    def test_finetune_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FineTuneConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            FineTuneConfig(batch_size=0)

    def test_feature_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FeatureBasedConfig(anneal_factor=1.5)
        with pytest.raises(ValueError):
            FeatureBasedConfig(min_lr=0.2)

    @pytest.mark.parametrize("field,value", [
        ("lr_scale", 0.0), ("lr_scale", -100.0), ("weight_decay", -1.0),
        ("learning_rate", math.nan)])
    def test_finetune_names_the_field_that_breaks_training(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FineTuneConfig(**{field: value})

    @pytest.mark.parametrize("values,field", [
        ({"learning_rate": -0.5, "min_lr": -1.0}, "learning_rate"),
        ({"min_lr": 0.0}, "min_lr")])
    def test_feature_names_the_field_that_breaks_training(self, values, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FeatureBasedConfig(**values)
