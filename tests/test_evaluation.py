import logging

import numpy as np
import pytest

from docner.corpus import parse_conll, with_predictions
from docner.evaluation import (EvalReport, RunAggregate, TypeScore, aggregate_runs,
                               per_type_delta, round2, score)


def corpus_pair(gold_tags_per_sentence, pred_tags_per_sentence, tokens=None):
    """Build structurally identical corpora carrying gold and predicted tags."""
    if tokens is None:
        tokens = [[f"t{i}{j}" for j in range(len(s))]
                  for i, s in enumerate(gold_tags_per_sentence)]
    gold_text = "\n\n".join(
        "\n".join(f"{w} {t}" for w, t in zip(ws, ts))
        for ws, ts in zip(tokens, gold_tags_per_sentence))
    gold = parse_conll(gold_text + "\n")
    predicted = with_predictions(gold, [list(p) for p in pred_tags_per_sentence])
    return gold, predicted


class TestScoreFixtures:
    def test_perfect_prediction_is_100(self):
        tags = [["B-PER", "I-PER", "O"], ["B-LOC", "O", "B-ORG"]]
        gold, pred = corpus_pair(tags, tags)
        report = score(gold, pred)
        assert round2(report.micro.f1) == 100.00
        assert report.token_accuracy == 100.0

    def test_boundary_error_scores_zero(self):
        # gold span PER(0,1); predicted PER(0,0): exact match required
        gold, pred = corpus_pair([["B-PER", "I-PER"]], [["B-PER", "O"]])
        report = score(gold, pred)
        per = report.per_type["PER"]
        assert (per.gold, per.predicted, per.correct) == (1, 1, 0)
        assert per.f1 == 0.0
        assert report.token_accuracy == 50.0

    def test_hand_counted_micro(self):
        # 5 gold spans, 4 predicted, 3 correct -> P 75.00, R 60.00, F1 66.67
        gold_tags = [["B-PER", "O", "B-LOC"],
                     ["B-ORG", "I-ORG", "O", "B-LOC"],
                     ["B-MISC", "O"]]
        pred_tags = [["B-PER", "O", "B-LOC"],       # both correct
                     ["B-ORG", "I-ORG", "O", "O"],  # ORG correct, LOC missed
                     ["O", "B-MISC"]]               # MISC shifted: wrong span
        gold, pred = corpus_pair(gold_tags, pred_tags)
        report = score(gold, pred)
        assert (report.micro.gold, report.micro.predicted,
                report.micro.correct) == (5, 4, 3)
        assert round2(report.micro.precision) == 75.00
        assert round2(report.micro.recall) == 60.00
        assert round2(report.micro.f1) == 66.67

    def test_type_error_counts_for_neither(self):
        gold, pred = corpus_pair([["B-LOC"]], [["B-ORG"]])
        report = score(gold, pred)
        assert report.per_type["LOC"] == TypeScore(gold=1, predicted=0, correct=0)
        assert report.per_type["ORG"] == TypeScore(gold=0, predicted=1, correct=0)
        assert report.micro.f1 == 0.0

    def test_empty_predictions_no_division_errors(self):
        gold, pred = corpus_pair([["B-PER", "I-PER", "O"]], [["O", "O", "O"]])
        report = score(gold, pred)
        assert report.micro.precision == 0.0
        assert report.micro.recall == 0.0
        assert report.micro.f1 == 0.0

    def test_scheme_mix_scores_by_spans(self):
        # BIOES prediction of the same spans as BIO gold -> perfect
        gold_tags = [["B-LOC", "O", "B-ORG", "I-ORG"]]
        pred_tags = [["S-LOC", "O", "B-ORG", "E-ORG"]]
        gold, _ = corpus_pair(gold_tags, gold_tags)
        pred_corpus = parse_conll("a S-LOC\nb O\nc B-ORG\nd E-ORG\n")
        for g_sent, p_sent in zip(gold.sentences(), pred_corpus.sentences()):
            for g_tok, p_tok in zip(g_sent.tokens, p_sent.tokens):
                p_tok.text = g_tok.text
        report = score(gold, pred_corpus)
        assert round2(report.micro.f1) == 100.00

    def test_structure_mismatch_reports_first_divergence(self):
        gold, _ = corpus_pair([["O"], ["O", "O"]], [["O"], ["O", "O"]])
        other, _ = corpus_pair([["O"], ["B-LOC"]], [["O"], ["B-LOC"]])
        with pytest.raises(ValueError, match="sentence 1"):
            score(gold, other)

    def test_swapping_corpora_swaps_precision_and_recall(self):
        gold_tags = [["B-PER", "O", "B-LOC", "O"]]
        pred_tags = [["B-PER", "I-PER", "O", "B-LOC"]]
        a, b = corpus_pair(gold_tags, pred_tags)
        fwd = score(a, b)
        # move predictions into gold position for the reverse direction
        rev_gold, rev_pred = corpus_pair(pred_tags, gold_tags)
        rev = score(rev_gold, rev_pred)
        assert fwd.micro.precision == pytest.approx(rev.micro.recall)
        assert fwd.micro.recall == pytest.approx(rev.micro.precision)

    def test_sentence_order_invariance(self):
        gold_tags = [["B-PER"], ["B-LOC", "O"], ["O"]]
        pred_tags = [["B-PER"], ["O", "B-LOC"], ["O"]]
        a1, b1 = corpus_pair(gold_tags, pred_tags)
        a2, b2 = corpus_pair(gold_tags[::-1], pred_tags[::-1])
        assert score(a1, b1).micro.f1 == score(a2, b2).micro.f1

    def test_token_accuracy_uses_bio_view(self):
        # same spans in different schemes count as per-token agreement
        gold = parse_conll("a B-LOC\nb I-LOC\n")
        pred = parse_conll("a B-LOC\nb E-LOC\n")
        assert score(gold, pred).token_accuracy == 100.0

    def test_iob1_gold_scores_without_repair_warnings(self, caplog):
        # IOB1 (original CoNLL-03 files): I- opens a span, B- only splits two
        # adjacent spans of one type
        gold_tags = [["I-PER", "I-PER", "O", "I-LOC"], ["O", "I-ORG", "B-ORG"]]
        pred_tags = [["B-PER", "I-PER", "O", "O"], ["O", "B-ORG", "I-ORG"]]
        gold, pred = corpus_pair(gold_tags, pred_tags)
        with caplog.at_level(logging.WARNING, logger="docner"):
            report = score(gold, pred)
            score(gold, pred)
        assert not caplog.records
        # gold PER(0,1) LOC(3,3) ORG(1,1) ORG(2,2); predicted PER(0,1) ORG(1,2)
        assert report.per_type["PER"] == TypeScore(gold=1, predicted=1, correct=1)
        assert report.per_type["LOC"] == TypeScore(gold=1, predicted=0, correct=0)
        assert report.per_type["ORG"] == TypeScore(gold=2, predicted=1, correct=0)
        assert (round2(report.micro.precision), round2(report.micro.recall),
                round2(report.micro.f1)) == (50.00, 25.00, 33.33)
        # BIO views differ at LOC (B-LOC vs O) and at the second ORG token
        # (B-ORG vs I-ORG): 5 of 7 tokens agree
        assert report.token_count == 7
        assert report.token_accuracy == pytest.approx(100.0 * 5 / 7)

    def test_micro_f1_invariant_to_scheme_reencoding(self):
        from docner.corpus import TagScheme, convert_scheme

        gold_tags = [["B-PER", "I-PER", "O"], ["B-LOC", "O", "B-ORG", "I-ORG"]]
        pred_tags = [["B-PER", "O", "O"], ["B-LOC", "O", "B-ORG", "I-ORG"]]
        gold, pred = corpus_pair(gold_tags, pred_tags)
        base = score(gold, pred).micro.f1

        reencode = lambda seqs: [convert_scheme(t, TagScheme.BIO, TagScheme.BIOES)
                                 for t in seqs]
        gold_text = "\n\n".join(
            "\n".join(f"t{i}{j} {tag}" for j, tag in enumerate(ts))
            for i, ts in enumerate(reencode(gold_tags)))
        gold_bioes = parse_conll(gold_text + "\n")
        pred_bioes = with_predictions(gold_bioes, reencode(pred_tags))
        assert score(gold_bioes, pred_bioes).micro.f1 == pytest.approx(base)


class TestReportFormatting:
    def test_report_table_shape(self):
        gold, pred = corpus_pair([["B-PER", "O"]], [["B-PER", "O"]])
        table = score(gold, pred).format_table()
        assert "processed 2 tokens with 1 phrases" in table
        assert "FB1: 100.00" in table
        assert "PER" in table

    def test_json_round_trip(self):
        import json

        gold, pred = corpus_pair([["B-PER", "O"]], [["O", "O"]])
        blob = json.loads(score(gold, pred).to_json())
        assert blob["micro"]["f1"] == 0.0
        assert blob["per_type"]["PER"]["gold"] == 1

    def test_round2_half_up(self):
        assert round2(66.665) == 66.67
        assert round2(96.644) == 96.64
        assert round2(0.125) == 0.13


class TestPerTypeDelta:
    def _report(self, f1_by_type):
        per_type = {}
        for etype, f1 in f1_by_type.items():
            correct = round(f1 * 100)  # gold = predicted = 10000 -> P = R = F1
            per_type[etype] = TypeScore(gold=10000, predicted=10000,
                                        correct=correct)
        micro = TypeScore(1, 1, 1)
        return EvalReport(per_type=per_type, micro=micro, token_accuracy=0.0,
                          token_count=0)

    def test_identical_reports_zero_delta(self):
        a = self._report({"LOC": 80.0, "ORG": 90.0})
        assert per_type_delta(a, a) == {"LOC": 0.0, "ORG": 0.0}

    def test_org_improvement(self):
        a = self._report({"ORG": 80.00})
        b = self._report({"ORG": 81.21})
        delta = per_type_delta(a, b)
        assert delta["ORG"] == pytest.approx(1.21, abs=1e-9)

    def test_type_mismatch_errors(self):
        a = self._report({"LOC": 1.0})
        b = self._report({"ORG": 1.0})
        with pytest.raises(ValueError, match="type sets differ"):
            per_type_delta(a, b)

    def test_direct_subtraction_oracle(self, rng):
        types = ["LOC", "MISC", "ORG", "PER"]
        fa = {t: float(rng.uniform(0, 100)) for t in types}
        fb = {t: float(rng.uniform(0, 100)) for t in types}
        a, b = self._report(fa), self._report(fb)
        delta = per_type_delta(a, b)
        for t in types:
            assert delta[t] == pytest.approx(b.per_type[t].f1 - a.per_type[t].f1,
                                             abs=1e-12)


class TestAggregateRuns:
    def test_single_run(self):
        agg = aggregate_runs([90.0])
        assert agg == RunAggregate(mean=90.0, std=0.0, n_runs=1)

    def test_reported_format_triple(self):
        agg = aggregate_runs([96.64 + 0.14, 96.64 - 0.14, 96.64])
        assert agg.mean == pytest.approx(96.64, abs=1e-12)
        assert agg.std == pytest.approx(0.14, abs=1e-12)
        assert str(agg) == "96.64 ± 0.14"

    def test_two_pass_formula_oracle(self, rng):
        xs = [float(x) for x in rng.uniform(50, 100, size=3)]
        agg = aggregate_runs(xs)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert agg.mean == pytest.approx(mean, abs=1e-12)
        assert agg.std == pytest.approx(np.sqrt(var), abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            aggregate_runs([])
