"""Span-level scoring with exact-match semantics, plus multi-run aggregation.

A predicted span counts as correct only when its (type, start, end) triple
matches a gold span exactly, per the classic shared-task scorer. Scores
are percentages; formatted output rounds half-up to two decimals.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .corpus import Corpus, TagScheme, spans_from_tags, tags_from_spans


@dataclass(frozen=True)
class TypeScore:
    gold: int
    predicted: int
    correct: int

    @property
    def precision(self) -> float:
        return 100.0 * self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class EvalReport:
    per_type: dict[str, TypeScore]
    micro: TypeScore
    token_accuracy: float
    token_count: int

    def as_dict(self) -> dict:
        return {
            "micro": {"precision": round2(self.micro.precision),
                      "recall": round2(self.micro.recall),
                      "f1": round2(self.micro.f1),
                      "gold": self.micro.gold, "predicted": self.micro.predicted,
                      "correct": self.micro.correct},
            "per_type": {
                t: {"precision": round2(s.precision), "recall": round2(s.recall),
                    "f1": round2(s.f1), "gold": s.gold, "predicted": s.predicted,
                    "correct": s.correct}
                for t, s in sorted(self.per_type.items())
            },
            "token_accuracy": round2(self.token_accuracy),
            "token_count": self.token_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def format_table(self) -> str:
        lines = [
            f"processed {self.token_count} tokens with {self.micro.gold} phrases; "
            f"found: {self.micro.predicted} phrases; correct: {self.micro.correct}.",
            f"accuracy: {self.token_accuracy:6.2f}%; "
            f"precision: {self.micro.precision:6.2f}%; "
            f"recall: {self.micro.recall:6.2f}%; "
            f"FB1: {self.micro.f1:6.2f}",
        ]
        for etype, s in sorted(self.per_type.items()):
            lines.append(f"{etype:>17}: precision: {s.precision:6.2f}%; "
                         f"recall: {s.recall:6.2f}%; FB1: {s.f1:6.2f}  {s.predicted}")
        return "\n".join(lines)


def round2(x: float) -> float:
    """Half-up rounding to two decimals, as the reference tables report."""
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def score(gold: Corpus, predicted: Corpus) -> EvalReport:
    """Compare two structurally identical corpora span by span.

    The predicted corpus supplies each token's `predicted_tag` when set,
    otherwise its `gold_tag` (covers files whose last column holds the
    prediction). Token accuracy compares BIO tags rebuilt from the span
    sets, so it is stable across schemes.
    """
    gold_sents = list(gold.sentences())
    pred_sents = list(predicted.sentences())
    if len(gold_sents) != len(pred_sents):
        raise ValueError(f"corpora differ: {len(gold_sents)} vs {len(pred_sents)} "
                         f"sentences")
    for i, (gs, ps) in enumerate(zip(gold_sents, pred_sents)):
        if gs.texts != ps.texts:
            raise ValueError(f"sentence {i} differs between gold and prediction")

    counts: dict[str, list[int]] = {}  # type -> [gold, predicted, correct]
    correct_tokens = 0
    total_tokens = 0
    for gs, ps in zip(gold_sents, pred_sents):
        gold_spans = set(spans_from_tags(gs.gold_tags))
        pred_spans = set(spans_from_tags(ps.predicted_tags))
        for span in gold_spans:
            counts.setdefault(span.entity_type, [0, 0, 0])[0] += 1
        for span in pred_spans:
            counts.setdefault(span.entity_type, [0, 0, 0])[1] += 1
        for span in gold_spans & pred_spans:
            counts[span.entity_type][2] += 1
        gold_bio = tags_from_spans(gold_spans, len(gs), TagScheme.BIO)
        pred_bio = tags_from_spans(pred_spans, len(ps), TagScheme.BIO)
        correct_tokens += sum(g == p for g, p in zip(gold_bio, pred_bio))
        total_tokens += len(gold_bio)

    per_type = {t: TypeScore(*c) for t, c in counts.items()}
    micro = TypeScore(gold=sum(c[0] for c in counts.values()),
                      predicted=sum(c[1] for c in counts.values()),
                      correct=sum(c[2] for c in counts.values()))
    accuracy = 100.0 * correct_tokens / total_tokens if total_tokens else 0.0
    return EvalReport(per_type=per_type, micro=micro,
                      token_accuracy=accuracy, token_count=total_tokens)


def per_type_delta(a: EvalReport, b: EvalReport) -> dict[str, float]:
    """Signed per-type F1 change (percentage points) from report a to b."""
    if set(a.per_type) != set(b.per_type):
        raise ValueError(f"entity type sets differ: {sorted(a.per_type)} vs "
                         f"{sorted(b.per_type)}")
    return {t: b.per_type[t].f1 - a.per_type[t].f1 for t in sorted(a.per_type)}


@dataclass(frozen=True)
class RunAggregate:
    mean: float
    std: float
    n_runs: int

    def __str__(self) -> str:
        return f"{round2(self.mean):.2f} ± {round2(self.std):.2f}"


def aggregate_runs(f1s: list[float]) -> RunAggregate:
    """Mean and sample (n-1) standard deviation over repeated runs."""
    if not f1s:
        raise ValueError("aggregate_runs needs at least one value")
    mean = statistics.fmean(f1s)
    std = statistics.stdev(f1s) if len(f1s) > 1 else 0.0
    return RunAggregate(mean=mean, std=std, n_runs=len(f1s))
