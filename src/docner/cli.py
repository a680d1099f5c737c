"""Command-line interface: train, predict, evaluate, experiments, sweeps.

Commands operate on CoNLL column files and JSON experiment configs; see
the README for the config schema and output directory layout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .context import ContextConfig
from .corpus import DOCSTART, OUTSIDE, parse_conll
from .evaluation import score
from .experiments import (ExperimentConfig, load_inputs, run_experiment, run_seed,
                          sweep_context)
from .model import NerModel, predict_corpus
from .tokenizer import train_vocab


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _add_column_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--token-column", type=int, default=0,
                        help="column index of the token text (default 0)")
    parser.add_argument("--tag-column", type=int, default=-1,
                        help="column index of the tag; negative counts from "
                             "the right (default -1, the last column)")


def _add_context_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--context-window", type=int, default=None,
                        help="subtokens of context per side (default 64 or "
                             "the checkpoint's setting)")
    parser.add_argument("--enforce-boundaries", type=_bool_flag, default=None,
                        metavar="{true,false}",
                        help="restrict context to the sentence's own document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docner",
        description="Sequence labeling with document-level context windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-vocab", help="train a subword vocabulary")
    p.add_argument("--train", required=True, help="CoNLL training file")
    p.add_argument("--vocab-size", type=int, default=300)
    p.add_argument("--out", required=True, help="output vocab file")
    _add_column_args(p)

    p = sub.add_parser("train", help="train one model (one seed)")
    p.add_argument("--mode", choices=("finetune", "feature"), default=None,
                   help="training regime (overrides the config file)")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--include-dev", action="store_true",
                   help="merge the dev split into training (fine-tuning only)")
    p.add_argument("--lr-scale", type=float, default=None,
                   help="multiplier on the fine-tuning learning rate")
    p.add_argument("--dropout", type=float, default=None,
                   help="residual dropout rate for the transformer (default 0)")
    p.add_argument("--out-dir", default=None)
    _add_context_args(p)

    p = sub.add_parser("predict", help="tag a CoNLL file with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_column_args(p)
    _add_context_args(p)

    p = sub.add_parser("evaluate", help="score predictions against gold spans")
    p.add_argument("--gold", required=True, help="gold CoNLL file")
    p.add_argument("--pred", required=True,
                   help="CoNLL file whose last column is the prediction")
    p.add_argument("--json", dest="json_out", default=None,
                   help="also write the report as JSON to this path")
    _add_column_args(p)

    p = sub.add_parser("run-experiment",
                       help="train over all configured seeds and aggregate")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("sweep-context",
                       help="rerun an experiment across context window sizes")
    p.add_argument("--config", required=True)
    p.add_argument("--windows", default="48,64,96,128",
                   help="comma-separated window sizes")
    p.add_argument("--out-dir", default=None)

    return parser


def _override_context(context: ContextConfig, args) -> ContextConfig:
    """`context` with any --context-window/--enforce-boundaries flag applied."""
    flags = {"window": getattr(args, "context_window", None),
             "enforce_boundaries": getattr(args, "enforce_boundaries", None)}
    return dataclasses.replace(
        context, **{k: v for k, v in flags.items() if v is not None})


def _load_config(path: str, args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(Path(path).read_text(encoding="utf-8"))
    if getattr(args, "out_dir", None):
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
    return dataclasses.replace(cfg, context=_override_context(cfg.context, args))


def cmd_train_vocab(args) -> int:
    text = Path(args.train).read_text(encoding="utf-8")
    corpus = parse_conll(text, token_column=args.token_column,
                         tag_column=args.tag_column)
    vocab = train_vocab(corpus, args.vocab_size)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    vocab.save(args.out)
    print(f"trained vocab with {len(vocab)} symbols "
          f"({len(vocab.merges)} merges) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args)
    if args.mode:
        cfg = dataclasses.replace(cfg, mode=args.mode)
    if args.include_dev:
        if cfg.mode != "finetune":
            raise SystemExit("--include-dev is only valid for fine-tuning; "
                             "feature-based training needs dev for annealing")
        cfg = dataclasses.replace(
            cfg, finetune=dataclasses.replace(cfg.finetune, include_dev=True))
    if args.lr_scale is not None:
        cfg = dataclasses.replace(
            cfg, finetune=dataclasses.replace(cfg.finetune, lr_scale=args.lr_scale))
    if args.dropout is not None:
        cfg = dataclasses.replace(
            cfg, transformer=dataclasses.replace(cfg.transformer,
                                                 dropout=args.dropout))

    exp_dir, vocab, train, dev, test = load_inputs(cfg)
    result = run_seed(cfg, vocab, train, dev, test, args.seed, exp_dir)
    print(f"seed {args.seed}: artifacts in {result.run_dir}")
    for split, report in (("dev", result.dev), ("test", result.test)):
        if report is not None:
            print(f"{split} micro F1: {report.micro.f1:.2f}")
    return 0


def cmd_predict(args) -> int:
    model = NerModel.load(args.checkpoint)
    text = Path(args.input).read_text(encoding="utf-8")
    corpus = parse_conll(text, token_column=args.token_column,
                         tag_column=args.tag_column)
    model.context = _override_context(model.context, args)
    predicted = predict_corpus(model, corpus)
    tag_iter = (tok.predicted_tag for sent in predicted.sentences()
                for tok in sent.tokens)
    out_lines = []
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            out_lines.append("")
        elif fields[0] == DOCSTART:
            out_lines.append(f"{line} {OUTSIDE}")
        else:
            out_lines.append(f"{line} {next(tag_iter)}")
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    Path(args.output).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    print(f"tagged {corpus.num_tokens} tokens -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    gold = parse_conll(Path(args.gold).read_text(encoding="utf-8"),
                       token_column=args.token_column, tag_column=args.tag_column)
    pred = parse_conll(Path(args.pred).read_text(encoding="utf-8"),
                       token_column=args.token_column, tag_column=-1)
    report = score(gold, pred)
    print(report.format_table())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json(), encoding="utf-8")
    return 0


def cmd_run_experiment(args) -> int:
    cfg = _load_config(args.config, args)
    result = run_experiment(cfg)
    print(result.row())
    return 0


def cmd_sweep_context(args) -> int:
    cfg = _load_config(args.config, args)
    windows = [int(w) for w in args.windows.split(",") if w.strip() != ""]
    sweep_context(cfg, windows)
    sweep_file = Path(cfg.out_dir) / cfg.name / "sweep.txt"
    print(sweep_file.read_text(encoding="utf-8"), end="")
    return 0


_COMMANDS = {
    "train-vocab": cmd_train_vocab,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "run-experiment": cmd_run_experiment,
    "sweep-context": cmd_sweep_context,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
