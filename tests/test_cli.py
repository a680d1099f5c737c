import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import docner.model
from docner.cli import main
from docner.context import ContextConfig
from docner.corpus import format_conll, parse_conll
from docner.encoder import TransformerConfig
from docner.model import NerModel
from docner.synthetic import cue_corpus, overfit_corpus
from docner.tokenizer import SubwordVocab, train_vocab
from test_corpus import conll_texts, without_type

TINY_TRANSFORMER = {"layers": 1, "heads": 2, "model_dim": 16, "ff_dim": 32,
                    "max_positions": 96}


def write_corpus_files(tmp_path):
    train = overfit_corpus(12, seed=1)
    dev = overfit_corpus(6, seed=2, split="dev")
    paths = {}
    for split, corpus in (("train", train), ("dev", dev)):
        p = tmp_path / f"{split}.conll"
        p.write_text(format_conll(corpus), encoding="utf-8")
        paths[split] = str(p)
    return paths


def write_config(tmp_path, paths, **overrides):
    cfg = {
        "name": "tiny",
        "mode": "finetune",
        "head": "linear",
        "seeds": [1],
        "train_path": paths["train"],
        "dev_path": paths.get("dev"),
        "vocab_size": 200,
        "transformer": TINY_TRANSFORMER,
        "context": {"window": 0, "enforce_boundaries": False},
        "finetune": {"max_epochs": 2},
        "feature": {"max_epochs": 3},
        "out_dir": str(tmp_path / "runs"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestTrainVocab:
    def test_writes_loadable_vocab(self, tmp_path, capsys):
        paths = write_corpus_files(tmp_path)
        out = tmp_path / "vocab.txt"
        assert main(["train-vocab", "--train", paths["train"],
                     "--vocab-size", "150", "--out", str(out)]) == 0
        assert "trained vocab" in capsys.readouterr().out
        vocab = SubwordVocab.load(out)
        assert len(vocab) <= 150


class TestEvaluate:
    def test_known_scores_and_json(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        pred = tmp_path / "pred.conll"
        gold.write_text("a B-PER\nb I-PER\n\nc B-LOC\n", encoding="utf-8")
        pred.write_text("a B-PER B-PER\nb I-PER O\n\nc B-LOC B-LOC\n",
                        encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--gold", str(gold), "--pred", str(pred),
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        # 2 gold spans, 2 predicted, 1 correct -> P = R = F1 = 50.00
        assert "precision:  50.00%" in out
        assert "recall:  50.00%" in out
        assert "FB1:  50.00" in out
        blob = json.loads(report_path.read_text())
        assert blob["micro"]["f1"] == 50.0

    def test_gold_column_override(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        pred = tmp_path / "pred.conll"
        gold.write_text("a B-PER x\n", encoding="utf-8")
        pred.write_text("a B-PER\n", encoding="utf-8")
        with pytest.raises(Exception):
            main(["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert main(["evaluate", "--gold", str(gold), "--pred", str(pred),
                     "--tag-column", "1"]) == 0


class TestTrainAndPredict:
    def test_train_then_overfit_predictions_match_gold(self, tmp_path, capsys):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths,
                              finetune={"max_epochs": 30, "lr_scale": 200.0})
        assert main(["train", "--config", str(config), "--seed", "1"]) == 0
        run_dir = tmp_path / "runs" / "tiny" / "1"
        assert (run_dir / "checkpoint.npz").exists()
        assert (run_dir / "trainlog.csv").exists()

        predictions = tmp_path / "pred.conll"
        assert main(["predict", "--checkpoint", str(run_dir / "checkpoint.npz"),
                     "--input", paths["train"], "--output", str(predictions)]) == 0
        pred_corpus = parse_conll(predictions.read_text(encoding="utf-8"),
                                  tag_column=-1)
        gold_corpus = parse_conll(Path(paths["train"]).read_text(encoding="utf-8"))
        pred_tags = [t.gold_tag for s in pred_corpus.sentences()
                     for t in s.tokens]
        gold_tags = [t.gold_tag for s in gold_corpus.sentences()
                     for t in s.tokens]
        assert pred_tags == gold_tags

    def test_predict_empty_input(self, tmp_path):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths)
        main(["train", "--config", str(config), "--seed", "1"])
        ckpt = tmp_path / "runs" / "tiny" / "1" / "checkpoint.npz"
        empty_in = tmp_path / "empty.conll"
        empty_in.write_text("", encoding="utf-8")
        out = tmp_path / "empty_out.conll"
        assert main(["predict", "--checkpoint", str(ckpt),
                     "--input", str(empty_in), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").strip() == ""

    def test_enforce_flag_is_noop_for_single_document(self, tmp_path):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths,
                              context={"window": 8, "enforce_boundaries": False})
        main(["train", "--config", str(config), "--seed", "1"])
        ckpt = tmp_path / "runs" / "tiny" / "1" / "checkpoint.npz"
        outs = []
        for flag in ("true", "false"):
            out = tmp_path / f"pred_{flag}.conll"
            main(["predict", "--checkpoint", str(ckpt), "--input", paths["train"],
                  "--output", str(out), "--enforce-boundaries", flag])
            outs.append(out.read_text(encoding="utf-8"))
        assert outs[0] == outs[1]

    def test_include_dev_rejected_for_feature_mode(self, tmp_path):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths, mode="feature", head="crf",
                              bilstm_hidden=8)
        with pytest.raises(SystemExit, match="include-dev"):
            main(["train", "--config", str(config), "--seed", "1",
                  "--include-dev"])

    def test_include_dev_in_config_rejected_for_feature_mode(self, tmp_path):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths, mode="feature", head="crf",
                              bilstm_hidden=8,
                              finetune={"max_epochs": 1, "include_dev": True})
        with pytest.raises(ValueError, match="include_dev"):
            main(["train", "--config", str(config), "--seed", "1"])


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    corpus = overfit_corpus(6, seed=1)
    path = tmp_path_factory.mktemp("predict") / "model.npz"
    NerModel(train_vocab(corpus, 100), corpus.label_set,
             TransformerConfig(**TINY_TRANSFORMER), context=ContextConfig(window=4),
             seed=0).save(path)
    return path


class TestPredictKeepsInput:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2).flatmap(lambda k: conll_texts(extra_columns=k)))
    def test_every_column_and_docstart_line_kept(self, untrained_checkpoint, text):
        source = untrained_checkpoint.with_name("input.conll")
        output = untrained_checkpoint.with_name("output.conll")
        source.write_text(text, encoding="utf-8")
        assert main(["predict", "--checkpoint", str(untrained_checkpoint),
                     "--input", str(source), "--output", str(output)]) == 0
        lines = text.splitlines()
        tagged = output.read_text(encoding="utf-8").splitlines()
        assert len(tagged) == len(lines)
        for line, out in zip(lines, tagged):
            if not line:
                assert out == ""
            elif line.startswith("-DOCSTART-"):
                assert out == f"{line} O"
            else:
                assert out.startswith(f"{line} ")
                assert re.fullmatch(r"O|[BI]-\w+", out[len(line) + 1:])


class TestPredictContextFlags:
    def test_context_window_flag_sets_the_model_context(self, untrained_checkpoint,
                                                        monkeypatch):
        corpus = cue_corpus(2, seed=5, split="test")
        assert len(corpus.documents) == 2
        source = untrained_checkpoint.with_name("two_docs.conll")
        source.write_text(format_conll(corpus), encoding="utf-8")
        saved = untrained_checkpoint.read_bytes()
        windows = []
        build_context = docner.model.build_context

        def spy(sentence, stream, config):
            windows.append(config.window)
            return build_context(sentence, stream, config)

        monkeypatch.setattr(docner.model, "build_context", spy)
        for flags in ([], ["--context-window", "0"]):
            windows.clear()
            assert main(["predict", "--checkpoint", str(untrained_checkpoint),
                         "--input", str(source),
                         "--output", str(source.with_suffix(".out")), *flags]) == 0
            assert len(windows) == corpus.num_sentences
            assert set(windows) == {0 if flags else 4}
        assert untrained_checkpoint.read_bytes() == saved


class TestRunExperiment:
    def test_single_seed_reports_zero_std(self, tmp_path, capsys):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths)
        assert main(["run-experiment", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "± 0.00" in out
        results = (tmp_path / "runs" / "tiny" / "results.csv").read_text()
        assert results.splitlines()[0] == "name,window,split,mean_f1,std_f1,n_runs"
        assert ",dev," in results

    def test_identical_configs_identical_outputs(self, tmp_path):
        paths = write_corpus_files(tmp_path)
        outputs = []
        for run in ("a", "b"):
            config = write_config(tmp_path, paths,
                                  out_dir=str(tmp_path / f"runs_{run}"))
            main(["run-experiment", "--config", str(config)])
            outputs.append(
                (tmp_path / f"runs_{run}" / "tiny" / "results.csv").read_text())
        assert outputs[0] == outputs[1]

    def test_encoder_vocab_size_in_config_rejected(self, tmp_path):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths,
                              transformer=dict(TINY_TRANSFORMER, vocab_size=300))
        with pytest.raises(ValueError, match=r"transformer: \['vocab_size'\]"):
            main(["run-experiment", "--config", str(config)])

    def test_unknown_key_in_a_config_block_rejected(self):
        from docner.experiments import ExperimentConfig
        with pytest.raises(ValueError, match=r"unknown keys in context: \['windw'\]"):
            ExperimentConfig.from_json('{"context": {"windw": 3}}')

    @pytest.mark.parametrize("key", ["context", "transformer", "finetune", "feature"])
    @pytest.mark.parametrize("value", ["null", "[1]", "3"])
    def test_non_object_config_block_rejected(self, key, value):
        from docner.experiments import ExperimentConfig
        with pytest.raises(ValueError, match=f"^{key} must hold an object"):
            ExperimentConfig.from_json(f'{{"{key}": {value}}}')

    @pytest.mark.parametrize("value", ["[]", "3", "null"])
    def test_non_object_config_rejected(self, value):
        from docner.experiments import ExperimentConfig
        with pytest.raises(ValueError, match="^config must hold an object"):
            ExperimentConfig.from_json(value)

    @pytest.mark.parametrize("field,value", [("enforce_boundaries", '"false"'),
                                             ("enforce_boundaries", "1"),
                                             ("window", "3.5"), ("window", '"8"'),
                                             ("window", "true")])
    def test_mistyped_context_field_rejected(self, field, value):
        from docner.experiments import ExperimentConfig
        with pytest.raises(ValueError, match=f"context {field} must be"):
            ExperimentConfig.from_json(f'{{"context": {{"{field}": {value}}}}}')

    def test_dev_type_that_train_lacks_reported_at_recall_zero(self, tmp_path):
        paths = write_corpus_files(tmp_path)
        train = parse_conll(Path(paths["train"]).read_text(encoding="utf-8"))
        Path(paths["train"]).write_text(format_conll(without_type(train, "LOC")),
                                        encoding="utf-8")
        config = write_config(tmp_path, paths, mode="feature", head="crf",
                              bilstm_hidden=8)
        assert main(["run-experiment", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "runs" / "tiny" / "1" / "report_dev.json")
                            .read_text(encoding="utf-8"))
        assert report["per_type"]["LOC"]["gold"] > 0
        assert report["per_type"]["LOC"]["recall"] == 0.0


class TestSweepContext:
    def test_single_window_matches_run_experiment(self, tmp_path, capsys):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths)
        main(["run-experiment", "--config", str(config)])
        base = json.loads((tmp_path / "runs" / "tiny" / "1" /
                           "report_dev.json").read_text())

        main(["sweep-context", "--config", str(config), "--windows", "0"])
        swept = json.loads((tmp_path / "runs" / "tiny-w0" / "1" /
                            "report_dev.json").read_text())
        assert swept == base
        sweep_table = (tmp_path / "runs" / "tiny" / "sweep.txt").read_text()
        assert sweep_table.splitlines()[1].strip().startswith("0")

    def test_duplicate_windows_identical_rows(self, tmp_path):
        paths = write_corpus_files(tmp_path)
        config = write_config(tmp_path, paths)
        main(["sweep-context", "--config", str(config), "--windows", "0,0"])
        lines = (tmp_path / "runs" / "tiny" / "sweep.csv").read_text().splitlines()
        assert lines[1] == lines[2]


class TestStageErrors:
    def test_failures_carry_stage_labels(self, tmp_path):
        from docner.experiments import ExperimentConfig, StageError, run_experiment

        cfg = ExperimentConfig(train_path=str(tmp_path / "missing.conll"),
                               seeds=[1], out_dir=str(tmp_path / "runs"))
        with pytest.raises(StageError, match="load corpora"):
            run_experiment(cfg)

    def test_train_command_failures_carry_stage_labels(self, tmp_path):
        from docner.experiments import StageError

        config = write_config(tmp_path, {"train": str(tmp_path / "missing.conll")})
        with pytest.raises(StageError, match="load corpora"):
            main(["train", "--config", str(config)])

