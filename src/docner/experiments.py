"""Experiment orchestration: multi-seed runs, aggregation, context sweeps.

One experiment = one configuration trained once per seed, evaluated on the
dev and test splits, and aggregated as mean +/- sample std. Every number in
an emitted table is backed by artifacts persisted under
``<out_dir>/<name>/<seed>/``: config snapshot, checkpoint, training log,
predictions, and per-split score reports.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .context import ContextConfig
from .corpus import Corpus, format_conll, parse_conll
from .encoder import TransformerConfig
from .evaluation import EvalReport, RunAggregate, aggregate_runs, round2, score
from .model import NerModel, config_block, predict_corpus
from .tokenizer import SubwordVocab, train_vocab
from .training import (FeatureBasedConfig, FineTuneConfig, train_feature_based,
                       train_finetune)


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    mode: str = "finetune"
    head: str = "linear"
    layer_strategy: str | None = None
    use_word_embeddings: bool = False
    word_dim: int = 32
    context: ContextConfig = field(default_factory=ContextConfig)
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    train_path: str = ""
    dev_path: str | None = None
    test_path: str | None = None
    vocab_path: str | None = None
    vocab_size: int = 300
    token_column: int = 0
    tag_column: int = -1
    transformer: TransformerConfig = field(default_factory=TransformerConfig)
    finetune: FineTuneConfig = field(default_factory=FineTuneConfig)
    feature: FeatureBasedConfig = field(default_factory=FeatureBasedConfig)
    bilstm_hidden: int = 256
    constrain_transitions: bool = False
    out_dir: str = "runs"

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"config must hold an object, got {raw!r}")
        for key, sub in (("context", ContextConfig),
                         ("transformer", TransformerConfig),
                         ("finetune", FineTuneConfig),
                         ("feature", FeatureBasedConfig)):
            if key in raw:
                raw[key] = config_block(key, sub, raw[key])
        return config_block("config", cls, raw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SeedResult:
    seed: int
    dev: EvalReport | None
    test: EvalReport | None
    run_dir: str


@dataclass
class ExperimentResult:
    name: str
    window: int
    seeds: list[SeedResult]
    dev: RunAggregate | None
    test: RunAggregate | None

    def row(self) -> str:
        dev = str(self.dev) if self.dev else "--"
        test = str(self.test) if self.test else "--"
        return f"{self.name:<32} {dev:>16} {test:>16}"


def load_corpus(path: str, cfg: ExperimentConfig, split: str) -> Corpus:
    text = Path(path).read_text(encoding="utf-8")
    return parse_conll(text, token_column=cfg.token_column,
                       tag_column=cfg.tag_column, split=split)


def ensure_vocab(cfg: ExperimentConfig, train: Corpus, exp_dir: Path) -> SubwordVocab:
    if cfg.vocab_path and Path(cfg.vocab_path).exists():
        return SubwordVocab.load(cfg.vocab_path)
    vocab = train_vocab(train, cfg.vocab_size)
    target = Path(cfg.vocab_path) if cfg.vocab_path else exp_dir / "vocab.txt"
    target.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(target)
    return vocab


def build_model(cfg: ExperimentConfig, vocab: SubwordVocab, train: Corpus,
                seed: int, dev: Corpus | None = None) -> NerModel:
    """The model of `cfg`: every config field that is a `NerModel` parameter
    is passed under its own name. Its entity types are those of every split
    it trains on: `train`, and `dev` under ``include_dev``."""
    parameters = inspect.signature(NerModel).parameters
    shared = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
              if f.name in parameters}
    word_tokens = sorted({t for s in train.sentences() for t in s.texts}) \
        if cfg.use_word_embeddings else None
    entity_types = train.label_set
    if cfg.finetune.include_dev and dev is not None:
        entity_types |= dev.label_set
    return NerModel(vocab=vocab, entity_types=entity_types,
                    word_tokens=word_tokens, seed=seed, **shared)


class StageError(RuntimeError):
    """An experiment stage failed; the message names the stage."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(f"stage '{name}' failed: {exc}") from exc


def run_seed(cfg: ExperimentConfig, vocab: SubwordVocab, train: Corpus,
             dev: Corpus | None, test: Corpus | None, seed: int,
             exp_dir: Path) -> SeedResult:
    if cfg.mode == "feature" and cfg.finetune.include_dev:
        raise ValueError("include_dev is only valid for fine-tuning; "
                         "feature-based training needs dev for annealing")
    run_dir = exp_dir / str(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps({**cfg.to_dict(), "seed": seed}, indent=2), encoding="utf-8")

    with _stage(f"train seed {seed}"):
        model = build_model(cfg, vocab, train, seed, dev)
        if cfg.mode == "finetune":
            model, log = train_finetune(model, train, cfg.finetune, seed,
                                        dev_corpus=dev)
        else:
            model, log = train_feature_based(model, train, cfg.feature, seed,
                                             dev_corpus=dev)
        log.write_csv(run_dir / "trainlog.csv")
        model.save(run_dir / "checkpoint.npz")

    reports: dict[str, EvalReport | None] = {"dev": None, "test": None}
    for split, corpus in (("dev", dev), ("test", test)):
        if corpus is None:
            continue
        with _stage(f"evaluate {split} seed {seed}"):
            predicted = predict_corpus(model, corpus)
            (run_dir / f"predictions_{split}.conll").write_text(
                format_conll(predicted, include_predictions=True),
                encoding="utf-8")
            report = score(corpus, predicted)
            (run_dir / f"report_{split}.json").write_text(report.to_json(),
                                                          encoding="utf-8")
        reports[split] = report
    return SeedResult(seed=seed, dev=reports["dev"], test=reports["test"],
                      run_dir=str(run_dir))


def load_inputs(cfg: ExperimentConfig) -> tuple[Path, SubwordVocab, Corpus,
                                                Corpus | None, Corpus | None]:
    """Experiment directory, vocabulary and train/dev/test corpora of `cfg`."""
    exp_dir = Path(cfg.out_dir) / cfg.name
    exp_dir.mkdir(parents=True, exist_ok=True)
    with _stage("load corpora"):
        train = load_corpus(cfg.train_path, cfg, "train")
        if train.num_sentences == 0:
            raise ValueError(f"{cfg.train_path} holds no sentence to train on")
        dev = load_corpus(cfg.dev_path, cfg, "dev") if cfg.dev_path else None
        test = load_corpus(cfg.test_path, cfg, "test") if cfg.test_path else None
    with _stage("vocabulary"):
        vocab = ensure_vocab(cfg, train, exp_dir)
    return exp_dir, vocab, train, dev, test


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train once per seed, evaluate, and aggregate mean +/- std per split."""
    exp_dir, vocab, train, dev, test = load_inputs(cfg)
    seed_results = [run_seed(cfg, vocab, train, dev, test, seed, exp_dir)
                    for seed in cfg.seeds]
    dev_agg = (aggregate_runs([r.dev.micro.f1 for r in seed_results])
               if dev is not None else None)
    test_agg = (aggregate_runs([r.test.micro.f1 for r in seed_results])
                if test is not None else None)
    result = ExperimentResult(name=cfg.name, window=cfg.context.window,
                              seeds=seed_results, dev=dev_agg, test=test_agg)
    _write_result_files(exp_dir, [result])
    return result


def _write_result_files(out_dir: Path, results: list[ExperimentResult]) -> None:
    header = f"{'variant':<32} {'dev F1':>16} {'test F1':>16}"
    table = "\n".join([header] + [r.row() for r in results]) + "\n"
    (out_dir / "results.txt").write_text(table, encoding="utf-8")
    lines = ["name,window,split,mean_f1,std_f1,n_runs"]
    for r in results:
        for split, agg in (("dev", r.dev), ("test", r.test)):
            if agg is not None:
                lines.append(f"{r.name},{r.window},{split},{round2(agg.mean):.2f},"
                             f"{round2(agg.std):.2f},{agg.n_runs}")
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def sweep_context(cfg: ExperimentConfig, windows: list[int]) -> list[ExperimentResult]:
    """Rerun the experiment for each window size, holding all else fixed."""
    if not windows:
        raise ValueError("sweep needs at least one window size")
    if any(w < 0 for w in windows):
        raise ValueError("window sizes must be non-negative")
    results = []
    for window in windows:
        sub = dataclasses.replace(
            cfg, name=f"{cfg.name}-w{window}",
            context=dataclasses.replace(cfg.context, window=window))
        results.append(run_experiment(sub))
    _write_sweep_files(Path(cfg.out_dir) / cfg.name, results)
    return results


def _write_sweep_files(out_dir: Path, results: list[ExperimentResult]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [f"{'window':>6} {'dev F1':>16} {'test F1':>16} {'avg':>8}"]
    csv_lines = ["window,dev_mean,test_mean,avg"]
    for r in results:
        means = [agg.mean for agg in (r.dev, r.test) if agg is not None]
        avg = sum(means) / len(means) if means else float("nan")
        rows.append(f"{r.window:>6} {str(r.dev) if r.dev else '--':>16} "
                    f"{str(r.test) if r.test else '--':>16} {round2(avg):>8.2f}")
        dev = f"{round2(r.dev.mean):.2f}" if r.dev else ""
        test = f"{round2(r.test.mean):.2f}" if r.test else ""
        csv_lines.append(f"{r.window},{dev},{test},{round2(avg):.2f}")
    (out_dir / "sweep.txt").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (out_dir / "sweep.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

