"""Rounds, correctness checks and metrics of one benchmark run.

A run replays a small fixed-seed instance of the workload against
``reference.json``, then repeats rounds until its time is used. A round is
several timed set-ups, one full training call, and a few ``predict_corpus``
calls on the held-out corpus, each followed by a single-sentence tagging
pass over it; every round must reproduce the first exactly. A traced run
alternates untraced and traced rounds. A failed check or an
exception counts as a failed operation and is reported, not raised.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from docner import evaluation
from docner import model as model_mod
from spec import HIGHER_IS_BETTER
from tracer import Tracer

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
# The final training loss must match the reference within this relative
# error: loose enough for reordered float64 sums (a batched encoder that
# agrees to 1e-10), tight enough that a change to the arithmetic shows.
LOSS_RTOL = 1e-6
SETUP_REPS = 12  # set-ups per untraced round; the last one feeds the round
# Calls per "expected slowest" figure; a full-size run makes at least this
# many (three training calls on long-finetune and feature-bilstm-crf).
SLOWEST_OF = {"train": 3, "predict": 6, "tag_pass": 6}
# Traced training, predict_corpus and tagging calls together must take
# their untraced wall time within this share. The measured overhead is up
# to about a third on single calls (predict_corpus on feature-bilstm-crf)
# and less on the total; the rest is room for the host's noise.
TRACE_ALLOWANCE = 0.5

AUTODIFF_OPS = ("matmul", "softmax", "gelu", "layer_norm", "take_rows", "narrow",
                "log_sum_exp", "concat")
TAGGER_FNS = ("linear_head", "bilstm_forward", "crf_nll", "viterbi", "greedy_decode")


class Ops:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Round:
    traced: bool
    setup_s: list[float]
    train_s: float
    train_sentences: int
    epochs: int
    final_loss: float
    test_f1: float = math.nan
    predict_s: list[float] = field(default_factory=list)
    predict_rates: list[float] = field(default_factory=list)
    latency_ms: list[list[float]] = field(default_factory=list)  # one list per pass
    predictions: list[list[str]] = field(default_factory=list)

    @property
    def train_rate(self) -> float:
        return self.train_sentences * self.epochs / self.train_s


def _span(tracer, trace_id: str, name: str):
    return tracer.trace(trace_id, name) if tracer is not None else nullcontext()


def run_round(workload, seed: int, ops: Ops, tracer=None, label: str = "") -> Round:
    """Set-ups, one training call, then predict and tagging passes; raises on error.

    Predict and single-sentence tagging passes alternate so that each
    metric samples the whole round, not one stretch of it.
    """
    setup_s = []
    for _ in range(1 if tracer else SETUP_REPS):
        t0 = perf_counter()
        with _span(tracer, f"setup{label}", "setup"):
            inputs = workloads.setup(workload, seed)
        setup_s.append(perf_counter() - t0)
        ops.record(True, "setup")

    t0 = perf_counter()
    with _span(tracer, f"train{label}", "train"):
        model, log = workloads.train(workload, inputs)
    rnd = Round(traced=tracer is not None, setup_s=setup_s,
                train_s=perf_counter() - t0,
                train_sentences=inputs.train.num_sentences,
                epochs=len(log.records), final_loss=log.losses[-1])
    ops.record(math.isfinite(rnd.final_loss), "training loss must be finite")

    test = inputs.test
    for i in range(workload.predict_passes):
        t0 = perf_counter()
        with _span(tracer, f"predict{label}.{i}", "predict"):
            predicted = model_mod.predict_corpus(model, test)
        elapsed = perf_counter() - t0
        rnd.predict_s.append(elapsed)
        rnd.predict_rates.append(test.num_tokens / elapsed)
        tags = [s.predicted_tags for s in predicted.sentences()]
        ops.record(len(predicted.documents) == len(test.documents)
                   and predicted.num_sentences == test.num_sentences
                   and predicted.num_tokens == test.num_tokens
                   and all(t.predicted_tag is not None
                           for s in predicted.sentences() for t in s.tokens)
                   and (not rnd.predictions or tags == rnd.predictions),
                   "predict_corpus must keep the document, sentence and token "
                   "counts, tag every token, and repeat exactly")
        rnd.predictions = tags
        if i == 0:
            with _span(tracer, f"score{label}", "score"):
                rnd.test_f1 = evaluation.score(test, predicted).micro.f1
            ops.record(0.0 <= rnd.test_f1 <= 100.0, "test F1 must lie in [0, 100]")

        latency = []
        for j, sentence in enumerate(test.sentences()):
            t0 = perf_counter()
            with _span(tracer, f"tag{label}.{i}.{j}", "tag_sentence"):
                ctx = model.contextualize(sentence, test)
                tags = model.decode_tags(sentence.texts, ctx, test.scheme)
            latency.append(1e3 * (perf_counter() - t0))
            ops.record(tags == rnd.predictions[j],
                       "single-sentence tags must equal the predict_corpus tags")
        rnd.latency_ms.append(latency)
    return rnd


def reference_run(workload) -> dict:
    """Test F1 and final loss of the workload's toy instance at the reference seed."""
    toy = workload.toy()
    inputs = workloads.setup(toy, REFERENCE_SEED)
    model, log = workloads.train(toy, inputs)
    predicted = model_mod.predict_corpus(model, inputs.test)
    return {"test_f1": evaluation.score(inputs.test, predicted).micro.f1,
            "final_loss": log.losses[-1]}


def check_reference(workload, ops: Ops) -> None:
    expected = json.loads(REFERENCE.read_text()).get(workload.name)
    got = reference_run(workload)
    ops.record(expected is not None and got["test_f1"] == expected["test_f1"]
               and math.isclose(got["final_loss"], expected["final_loss"],
                                rel_tol=LOSS_RTOL, abs_tol=0.0),
               f"reference replay gave {got}, expected {expected} "
               f"(loss within {LOSS_RTOL:g} relative)")


def check_repeat(ops: Ops, first: Round, rnd: Round) -> None:
    ops.record(rnd.test_f1 == first.test_f1 and rnd.final_loss == first.final_loss
               and rnd.epochs == first.epochs and rnd.predictions == first.predictions,
               f"round must repeat round 1 exactly: F1 {rnd.test_f1!r} vs "
               f"{first.test_f1!r}, loss {rnd.final_loss!r} vs {first.final_loss!r}")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def expected_slowest(values: list[float], k: int, slow_is_high: bool) -> float:
    """The expected slowest of `k` values drawn without replacement from `values`.

    An average over every k-subset, so unlike the slowest of all values it
    does not drift with how many there are (given at least `k`; with fewer
    it is the slowest of all).
    """
    ordered = sorted(values, reverse=slow_is_high)  # slowest first
    n, k = len(ordered), min(k, len(ordered))
    return sum(x * math.comb(n - 1 - i, k - 1)
               for i, x in enumerate(ordered)) / math.comb(n, k)


def end_to_end(rounds: list[Round]) -> dict:
    """name -> (value, sample count).

    The shared hosts this runs on switch, for seconds to tens of seconds at
    a time, between a slow state and a fast one up to 1.7x faster. The slow
    state repeats from run to run and the mix of the two does not, so the
    timings lean towards the slow state: training and ``predict_corpus``
    rates and each tagging pass's median latency report the expected
    slowest of a few calls (``SLOWEST_OF``); set-up time and the passes'
    95th percentile latency (a pass has at least 200 sentences at full
    size) report the upper quartile. Neither drifts with the number of
    calls, so a faster program that fits more rounds into the run is not
    penalised. Over ten seeds these spread about half as much as medians.
    """
    passes = [p for r in rounds for p in r.latency_ms]
    samples = sum(len(p) for p in passes)
    predict = [x for r in rounds for x in r.predict_rates]
    setups = [x for r in rounds for x in r.setup_s]
    return {
        "train_sents_per_s": (expected_slowest([r.train_rate for r in rounds],
                                               SLOWEST_OF["train"], False),
                              len(rounds)),
        "predict_tokens_per_s": (expected_slowest(predict, SLOWEST_OF["predict"], False),
                                 len(predict)),
        "tag_sentence_p50_ms": (expected_slowest([percentile(p, 50) for p in passes],
                                                 SLOWEST_OF["tag_pass"], True),
                                samples),
        "tag_sentence_p95_ms": (percentile([percentile(p, 95) for p in passes], 75),
                                samples),
        "setup_s": (percentile(setups, 75), len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "test_f1": (rounds[0].test_f1, len(rounds)),
    }


def layer_metrics(tracer: Tracer, traced: list[Round]) -> dict:
    """Every per-layer metric, averaged per traced round.

    This is more than BENCHMARK.json lists: self times of layers that some
    workload never calls (narrow, concat, BiLSTM, CRF, Viterbi, greedy
    decoding, frozen features, dev scoring) would read 0 there on every
    run, so the spec carries only their call counts.
    """
    n = len(traced)
    table = tracer.layer_table()
    c = tracer.counters

    def self_s(span):
        return table.get(span, {}).get("self_s", 0.0) / n

    def calls(span):
        return table.get(span, {}).get("calls", 0) / n

    def share(num, den):
        return num / den if den else 0.0

    contextualized = calls("context.contextualize") * n
    metrics = {
        "context.contextualize_s": self_s("context.contextualize"),
        "context.contextualize_calls": calls("context.contextualize"),
        "context.assembled_len_mean": share(c["context.assembled_len"], contextualized),
        "context.coverage_left": share(c["context.left"],
                                       contextualized * workloads.WINDOW),
        "context.coverage_right": share(c["context.right"],
                                        contextualized * workloads.WINDOW),
        "context.truncated": c["context.truncated"] / n,
        "tokenizer.encode_s": self_s("tokenizer.encode"),
        "tokenizer.encode_calls": calls("tokenizer.encode"),
        "tokenizer.token_cache_hit_ratio": share(c["tokenizer.token_cache_hits"],
                                                 c["tokenizer.token_lookups"]),
        "tokenizer.train_vocab_s": self_s("tokenizer.train_vocab"),
        "encoder.forward_s": self_s("encoder.forward"),
        "encoder.forward_calls": calls("encoder.forward"),
        "encoder.rows": c["encoder.rows"] / n,
        "encoder.rows_per_call": share(c["encoder.rows"], calls("encoder.forward") * n),
        "encoder.useful_row_ratio": share(c["encoder.useful_rows"], c["encoder.rows"]),
        "encoder.pool_s": self_s("encoder.pool"),
        "encoder.extract_s": self_s("encoder.extract"),
        "autodiff.tape_nodes_per_sent": share(
            c["autodiff.tape_nodes"], sum(r.train_sentences * r.epochs for r in traced)),
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.backward_calls": calls("autodiff.backward"),
        "training.optimizer_s": self_s("training.optimizer"),
        "training.steps": calls("training.optimizer"),
        "training.frozen_features_s": self_s("training.frozen_features"),
        "training.frozen_features_calls": calls("training.frozen_features"),
        "training.dev_eval_s": tracer.dev_eval_seconds() / n,
        "training.epochs": sum(r.epochs for r in traced) / n,
        "evaluation.score_s": self_s("evaluation.score"),
        "corpus.parse_conll_s": self_s("corpus.parse_conll"),
        "corpus.with_predictions_s": self_s("corpus.with_predictions"),
    }
    for op in AUTODIFF_OPS:
        metrics[f"autodiff.{op}_s"] = self_s(f"autodiff.{op}")
        metrics[f"autodiff.{op}_calls"] = calls(f"autodiff.{op}")
    for fn in TAGGER_FNS:
        metrics[f"tagger.{fn}_s"] = self_s(f"tagger.{fn}")
        metrics[f"tagger.{fn}_calls"] = calls(f"tagger.{fn}")
    return metrics


def tracing_overhead(untraced: list[Round], traced: list[Round]) -> dict:
    """Relative slowdown of each timed end-to-end metric under tracing."""
    base, slow = end_to_end(untraced), end_to_end(traced)
    out = {}
    for name in ("train_sents_per_s", "predict_tokens_per_s", "tag_sentence_p50_ms",
                 "tag_sentence_p95_ms", "setup_s"):
        a, b = base[name][0], slow[name][0]
        out[name] = a / b - 1.0 if name in HIGHER_IS_BETTER else b / a - 1.0
    return out


def check_trace(ops: Ops, tracer: Tracer, untraced: list[Round],
                traced: list[Round]) -> float:
    """Returns the overall tracing overhead and checks it, and the hooks.

    The overhead compares, per round, the traced root spans of training,
    ``predict_corpus`` and single-sentence tagging (each root span's
    duration is the sum of its trace's self times) with the untraced wall
    time of the same calls. Rounds alternate, so both sides see the same
    mix of the host's states.
    """
    roots = tracer.root_durations()
    traced_s = sum(sum(roots[name]) for name in ("train", "predict", "tag_sentence"))
    untraced_s = sum(r.train_s + sum(r.predict_s) + sum(map(sum, r.latency_ms)) / 1e3
                     for r in untraced)
    overhead = (traced_s / len(traced)) / (untraced_s / len(untraced)) - 1.0
    ops.record(abs(overhead) <= TRACE_ALLOWANCE,
               f"traced calls took {overhead:+.0%} against the untraced ones, "
               f"beyond the {TRACE_ALLOWANCE:.0%} tracing allowance")
    for hook in tracer.missing:
        ops.record(False, f"tracer hook {hook} found nothing to wrap or count")
    return overhead


def measure(workload, seed: int, seconds: float,
            trace: bool) -> tuple[dict, Tracer | None]:
    """Run one workload for about `seconds`; returns its results and tracer."""
    start = perf_counter()
    ops = Ops()
    rounds: list[Round] = []
    tracer = Tracer() if trace else None
    try:
        check_reference(workload, ops)
        while True:
            t0 = perf_counter()
            for traced_round in ((False, True) if trace else (False,)):
                if traced_round:
                    tracer.install()
                try:
                    rnd = run_round(workload, seed, ops,
                                    tracer if traced_round else None,
                                    label=f"#{len(rounds) + 1}")
                finally:
                    if traced_round:
                        tracer.uninstall()
                if rounds:
                    check_repeat(ops, rounds[0], rnd)
                rounds.append(rnd)
            if 2 * perf_counter() - t0 > start + seconds:
                break
    except Exception:
        traceback.print_exc()
        ops.record(False, "exception")

    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    result: dict = {"workload": workload.name, "seed": seed, "trace": int(trace),
                    "rounds": len(rounds)}
    if untraced:
        result["end_to_end"] = end_to_end(untraced)
        result["samples"] = {
            "train_sents_per_s": [r.train_rate for r in untraced],
            "predict_tokens_per_s": [r.predict_rates for r in untraced],
            "tag_sentence_p50_ms": [[percentile(p, 50) for p in r.latency_ms]
                                    for r in untraced],
            "tag_sentence_p95_ms": [[percentile(p, 95) for p in r.latency_ms]
                                    for r in untraced],
            "setup_s": [r.setup_s for r in untraced],
        }
    if traced:
        result["tracing_overhead"] = tracing_overhead(untraced, traced)
        result["tracing_overhead"]["all_calls"] = check_trace(ops, tracer, untraced,
                                                              traced)
        result["layers"] = layer_metrics(tracer, traced)
        result["span_table"] = tracer.layer_table()
        result["missing_hooks"] = tracer.missing
    result.update(attempted=ops.attempted, failed=ops.failed,
                  failed_ratio=ops.failed / max(ops.attempted, 1))
    return result, tracer
