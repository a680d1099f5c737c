import itertools
import math

import numpy as np
import pytest

from docner import autodiff as ad
from docner.autodiff import Tensor
from docner.tagger import (BiLstmParams, CrfParams, _lstm_direction,
                           bilstm_forward, crf_log_z, crf_nll, greedy_decode,
                           linear_head, path_score, softmax_nll, viterbi)
from oracle_ops import sigmoid, tanh


def enumerate_paths(scores, crf):
    """Brute-force scores of every label path (vectorized over paths)."""
    n, num_labels = scores.shape
    trans = crf.transitions.data
    paths = np.array(list(itertools.product(range(num_labels), repeat=n)),
                     dtype=np.intp)
    s = scores[np.arange(n), paths].sum(axis=1)
    s = s + trans[crf.start, paths[:, 0]] + trans[paths[:, -1], crf.stop]
    for t in range(n - 1):
        s = s + trans[paths[:, t], paths[:, t + 1]]
    return paths, s


def random_crf(rng, num_labels, lo=-2.0, hi=2.0):
    crf = CrfParams(num_labels)
    crf.transitions.data = rng.uniform(lo, hi, crf.transitions.data.shape)
    return crf


class TestLinearHead:
    def test_zero_weights_zero_emissions(self, rng):
        reps = Tensor(rng.normal(size=(3, 4)))
        out = linear_head(reps, Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_identity_weights_copy_inputs(self):
        reps = Tensor([[1.5], [-2.0], [0.25]])
        w = Tensor([[1.0, 0.0]])
        out = linear_head(reps, w, Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data[:, 0], reps.data[:, 0])
        np.testing.assert_array_equal(out.data[:, 1], np.zeros(3))

    def test_matches_direct_matmul(self, rng):
        reps, w, b = (rng.normal(size=(5, 6)), rng.normal(size=(6, 3)),
                      rng.normal(size=3))
        out = linear_head(Tensor(reps), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, reps @ w + b, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            linear_head(Tensor(rng.normal(size=(2, 3))),
                        Tensor(rng.normal(size=(4, 2))), Tensor(np.zeros(2)))


class TestGreedyDecode:
    def test_basic(self):
        assert greedy_decode(np.array([[1.0, 0.0], [0.0, 1.0]])) == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        assert greedy_decode(np.zeros((3, 4))) == [0, 0, 0]

    def test_row_max_oracle(self, rng):
        e = rng.normal(size=(6, 5))
        assert greedy_decode(e) == [int(r.argmax()) for r in e]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            greedy_decode(np.zeros((0, 3)))


class TestCrfNll:
    def test_single_token_single_label_zero_transitions(self):
        crf = CrfParams(1)
        loss = crf_nll(Tensor([[2.5]]), [0], crf)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_zero_transitions_factorizes_into_softmax(self, rng):
        e = rng.normal(size=(2, 2))
        crf = CrfParams(2)
        gold = [1, 0]
        loss = float(crf_nll(Tensor(e), gold, crf).data)
        expected = float(softmax_nll(Tensor(e), gold).data)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_log_z_matches_enumeration(self, rng):
        for _ in range(25):
            n, num_labels = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            e = rng.uniform(-2, 2, (n, num_labels))
            crf = random_crf(rng, num_labels)
            _, s = enumerate_paths(e, crf)
            expected = float(np.logaddexp.reduce(np.sort(s)))
            with ad.no_grad():
                got = float(crf_log_z(Tensor(e), crf).data)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_loss_nonnegative_and_prob_in_unit_interval(self, rng):
        for _ in range(20):
            n, num_labels = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            e = rng.uniform(-2, 2, (n, num_labels))
            crf = random_crf(rng, num_labels)
            gold = list(rng.integers(0, num_labels, n))
            loss = float(crf_nll(Tensor(e), gold, crf).data)
            assert loss >= -1e-12
            assert 0.0 < math.exp(-loss) <= 1.0 + 1e-12

    def test_path_probabilities_sum_to_one(self, rng):
        e = rng.uniform(-2, 2, (3, 3))
        crf = random_crf(rng, 3)
        with ad.no_grad():
            log_z = float(crf_log_z(Tensor(e), crf).data)
        _, s = enumerate_paths(e, crf)
        assert np.exp(s - log_z).sum() == pytest.approx(1.0, abs=1e-6)

    def test_label_out_of_range(self, rng):
        crf = CrfParams(2)
        with pytest.raises(ValueError):
            crf_nll(Tensor(rng.normal(size=(2, 2))), [0, 5], crf)

    def test_gradients_pass_finite_difference_check(self, rng):
        e = Tensor(rng.uniform(-2, 2, (4, 5)))
        crf = random_crf(rng, 5)
        gold = list(rng.integers(0, 5, 4))
        err = ad.grad_check(lambda: crf_nll(e, gold, crf),
                            [e, crf.transitions], epsilon=1e-5)
        assert err < 1e-6

    def test_shift_equivariance(self, rng):
        e = rng.uniform(-1, 1, (3, 4))
        crf = random_crf(rng, 4)
        gold = [1, 0, 3]
        shifted = e.copy()
        shifted[1] += 0.7
        with ad.no_grad():
            dz = float(crf_log_z(Tensor(shifted), crf).data) - \
                float(crf_log_z(Tensor(e), crf).data)
            assert dz == pytest.approx(0.7, abs=1e-9)
        assert path_score(shifted, gold, crf) - path_score(e, gold, crf) == \
            pytest.approx(0.7, abs=1e-12)
        assert viterbi(shifted, crf)[0] == viterbi(e, crf)[0]


class TestViterbi:
    def test_zero_transitions_equals_greedy(self, rng):
        e = rng.normal(size=(5, 4))
        crf = CrfParams(4)
        assert viterbi(e, crf)[0] == greedy_decode(e)

    def test_avoids_forbidden_bigram(self, rng):
        crf = CrfParams(2)
        crf.transitions.data[0, 1] = -1e9
        for _ in range(20):
            e = rng.uniform(-2, 2, (4, 2))
            best, _ = viterbi(e, crf)
            assert not any(a == 0 and b == 1 for a, b in zip(best, best[1:]))

    def test_matches_enumeration(self, rng):
        for _ in range(200):
            n, num_labels = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            e = rng.uniform(-2, 2, (n, num_labels))
            crf = random_crf(rng, num_labels)
            paths, s = enumerate_paths(e, crf)
            best_path, best_score = viterbi(e, crf)
            idx = int(s.argmax())
            assert best_path == list(paths[idx])
            assert best_score == pytest.approx(float(s[idx]), abs=1e-9)

    def test_score_dominates_gold(self, rng):
        for _ in range(30):
            n, num_labels = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            e = rng.uniform(-2, 2, (n, num_labels))
            crf = random_crf(rng, num_labels)
            gold = list(rng.integers(0, num_labels, n))
            _, best_score = viterbi(e, crf)
            assert best_score >= path_score(e, gold, crf) - 1e-12

    def test_all_equal_scores_decode_to_label_zero(self):
        crf = CrfParams(3)
        assert viterbi(np.zeros((4, 3)), crf)[0] == [0, 0, 0, 0]


class TestConstrainedTransitions:
    def test_invalid_bioes_bigrams_penalized(self, rng):
        labels = ["O", "B-LOC", "I-LOC", "E-LOC", "S-LOC"]
        crf = CrfParams(len(labels), rng)
        crf.constrain(labels)
        t = crf.transitions.data
        by = {lab: i for i, lab in enumerate(labels)}
        assert t[by["O"], by["I-LOC"]] == -1e4       # I must follow B/I
        assert t[by["B-LOC"], by["O"]] == -1e4       # open span cannot drop
        assert t[by["B-LOC"], by["I-LOC"]] > -1e4
        assert t[by["E-LOC"], by["S-LOC"]] > -1e4
        assert t[crf.start, by["E-LOC"]] == -1e4
        assert t[by["I-LOC"], crf.stop] == -1e4
        assert t[by["S-LOC"], crf.stop] > -1e4


def scalar_lstm_reference(x, w, u, b, hidden, reverse=False):
    """Unrolled scalar implementation with explicit per-gate loops."""
    n = len(x)
    h = [0.0] * hidden
    c = [0.0] * hidden
    out = [None] * n
    order = range(n - 1, -1, -1) if reverse else range(n)
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    for t in order:
        pre = [sum(x[t][k] * w[k][j] for k in range(len(x[t])))
               + sum(h[k] * u[k][j] for k in range(hidden)) + b[j]
               for j in range(4 * hidden)]
        new_c, new_h = [], []
        for j in range(hidden):
            i_g = sig(pre[j])
            f_g = sig(pre[hidden + j])
            g_g = math.tanh(pre[2 * hidden + j])
            o_g = sig(pre[3 * hidden + j])
            cj = f_g * c[j] + i_g * g_g
            new_c.append(cj)
            new_h.append(o_g * math.tanh(cj))
        c, h = new_c, new_h
        out[t] = list(h)
    return out


class TestBiLstm:
    def test_zero_weights_zero_outputs(self, rng):
        params = BiLstmParams(3, 4)
        for t in params.params.values():
            t.data[:] = 0.0
        out = bilstm_forward(Tensor(rng.normal(size=(3, 3))), params)
        np.testing.assert_array_equal(out.data, np.zeros((3, 8)))

    def test_output_width_is_twice_hidden(self, rng):
        params = BiLstmParams(8, 256, rng)
        out = bilstm_forward(Tensor(rng.normal(size=(1, 8))), params)
        assert out.shape == (1, 512)

    def test_matches_scalar_reference(self, rng):
        hidden, idim, n = 3, 2, 3
        params = BiLstmParams(idim, hidden, rng)
        x = rng.normal(size=(n, idim))
        out = bilstm_forward(Tensor(x), params).data
        p = params.params
        fw = scalar_lstm_reference(x.tolist(), p["fw.w"].data.tolist(),
                                   p["fw.u"].data.tolist(), p["fw.b"].data.tolist(),
                                   hidden)
        bw = scalar_lstm_reference(x.tolist(), p["bw.w"].data.tolist(),
                                   p["bw.u"].data.tolist(), p["bw.b"].data.tolist(),
                                   hidden, reverse=True)
        expected = np.array([f + b for f, b in zip(fw, bw)])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_gradients_pass_finite_difference_check(self, rng):
        params = BiLstmParams(2, 3, rng)
        x = Tensor(rng.normal(size=(3, 2)))
        err = ad.grad_check(
            lambda: ad.tsum(bilstm_forward(x, params) *
                            bilstm_forward(x, params)),
            [x] + params.parameters(), epsilon=1e-5)
        assert err < 1e-5

    def test_empty_sequence_errors(self, rng):
        with pytest.raises(ValueError):
            bilstm_forward(Tensor(np.zeros((0, 2))), BiLstmParams(2, 3, rng))


# -- fused sequence ops against per-timestep autodiff references -------------


def reference_crf_log_z(emissions, crf):
    """Forward algorithm as one autodiff node per timestep (the reference)."""
    emissions = ad.as_tensor(emissions)
    n, num_labels = emissions.shape
    trans = crf.transitions
    core = ad.narrow(ad.narrow(trans, 0, 0, num_labels), 1, 0, num_labels)
    start_row = ad.narrow(ad.take_rows(trans, [crf.start]), 1, 0, num_labels)
    stop_col = ad.reshape(
        ad.take_at(trans, np.arange(num_labels), np.full(num_labels, crf.stop)),
        (1, num_labels))
    alpha = start_row + ad.take_rows(emissions, [0])
    for t in range(1, n):
        scores = ad.reshape(alpha, (num_labels, 1)) + core
        alpha = ad.reshape(ad.log_sum_exp(scores, axis=0), (1, num_labels)) \
            + ad.take_rows(emissions, [t])
    return ad.log_sum_exp(alpha + stop_col)


def reference_lstm_direction(features, w, u, b, hidden, order):
    """One LSTM direction as per-timestep autodiff ops (the reference)."""
    pre_all = features @ w
    h = Tensor(np.zeros((1, hidden)))
    c = Tensor(np.zeros((1, hidden)))
    outputs = {}
    for t in order:
        pre = ad.take_rows(pre_all, [t]) + h @ u + b
        i = sigmoid(ad.narrow(pre, 1, 0, hidden))
        f = sigmoid(ad.narrow(pre, 1, hidden, hidden))
        g = tanh(ad.narrow(pre, 1, 2 * hidden, hidden))
        o = sigmoid(ad.narrow(pre, 1, 3 * hidden, hidden))
        c = f * c + i * g
        h = o * tanh(c)
        outputs[t] = h
    return ad.concat([outputs[t] for t in range(len(outputs))], axis=0)


def value_and_grads(f, inputs):
    """f()'s value and the gradients of a fixed weighted sum of its output."""
    for x in inputs:
        x.grad = None
    out = f()
    weights = np.random.default_rng(99).normal(size=out.shape)
    ad.tsum(out * Tensor(weights)).backward()
    return out.data, [x.grad for x in inputs]


def assert_fused_matches_reference(fused, reference, inputs):
    out, grads = value_and_grads(fused, inputs)
    ref_out, ref_grads = value_and_grads(reference, inputs)
    assert np.array_equal(out, ref_out)
    for grad, ref in zip(grads, ref_grads):
        assert np.abs(grad - ref).max() <= 1e-10 * np.abs(ref).max()


LENGTHS = [1, 2, 13, 60]


class TestFusedCrfLogZ:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_per_timestep_reference(self, rng, n):
        e = Tensor(rng.uniform(-2, 2, (n, 5)))
        crf = random_crf(rng, 5)
        assert_fused_matches_reference(lambda: crf_log_z(e, crf),
                                       lambda: reference_crf_log_z(e, crf),
                                       [e, crf.transitions])

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_reference_under_constrained_transitions(self, rng, n):
        labels = ["O", "B-LOC", "I-LOC", "E-LOC", "S-LOC", "B-PER", "I-PER",
                  "E-PER", "S-PER"]
        crf = CrfParams(len(labels), rng)
        crf.constrain(labels)
        e = Tensor(rng.uniform(-3, 3, (n, len(labels))))
        assert_fused_matches_reference(lambda: crf_log_z(e, crf),
                                       lambda: reference_crf_log_z(e, crf),
                                       [e, crf.transitions])


class TestFusedLstmDirection:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_timestep_reference(self, rng, n, reverse):
        hidden = 6
        params = BiLstmParams(4, hidden, rng)
        w, u, b = (params.params[f"fw.{k}"] for k in "wub")
        x = Tensor(rng.normal(size=(n, 4)))
        order = range(n - 1, -1, -1) if reverse else range(n)
        assert_fused_matches_reference(
            lambda: _lstm_direction(x, w, u, b, hidden, order),
            lambda: reference_lstm_direction(x, w, u, b, hidden, order),
            [x, w, u, b])

    def test_bilstm_joins_both_directions(self, rng):
        params = BiLstmParams(3, 5, rng)
        p = params.params
        x = Tensor(rng.normal(size=(7, 3)))
        expected = np.concatenate(
            [reference_lstm_direction(x, p["fw.w"], p["fw.u"], p["fw.b"], 5,
                                      range(7)).data,
             reference_lstm_direction(x, p["bw.w"], p["bw.u"], p["bw.b"], 5,
                                      range(6, -1, -1)).data], axis=1)
        assert np.array_equal(bilstm_forward(x, params).data, expected)
