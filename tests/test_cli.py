import json
from pathlib import Path

import pytest

from docner.cli import main
from docner.corpus import format_conll, parse_conll
from docner.synthetic import overfit_corpus
from docner.tokenizer import SubwordVocab

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


class TestVariantGrid:
    def test_eight_rows_cover_the_table_axes(self, tmp_path):
        from docner.experiments import ExperimentConfig, variant_grid

        paths = write_corpus_files(tmp_path)
        base = ExperimentConfig(train_path=paths["train"], seeds=[1])
        grid = variant_grid(base)
        assert len(grid) == 8
        names = [g.name for g in grid]
        assert len(set(names)) == 8
        assert sum(g.head == "crf" for g in grid) == 4
        assert sum(g.use_word_embeddings for g in grid) == 4
        assert sum(g.context.window > 0 for g in grid) == 4
        for g in grid:
            assert (g.context.window > 0) == g.name.endswith("+doc")
