import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from docner import autodiff as ad
from docner.autodiff import Tensor
from docner.tagger import (BiLstmParams, CrfParams, Packing, _activate_gates,
                           bilstm_forward, crf_gold_score, crf_log_z, crf_nll,
                           greedy_decode, linear_head, path_transitions, softmax_nll,
                           viterbi)

import oracle_ops
from oracle_ops import grad_check, path_score, sigmoid, tanh


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


def one_sentence_log_z(e, crf):
    e = oracle_ops.as_tensor(e)
    return crf_log_z(e, Packing([e.shape[0]]), crf)


def decode_one(scores, crf):
    [path], [score] = viterbi(scores, Packing([len(scores)]), crf)
    return path, score


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
        loss = crf_nll(Tensor([[2.5]]), [[0]], Packing([1]), crf)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_zero_transitions_factorizes_into_softmax(self, rng):
        e = rng.normal(size=(2, 2))
        crf = CrfParams(2)
        gold = [1, 0]
        loss = float(crf_nll(Tensor(e), [gold], Packing([len(gold)]), crf).data)
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
                got = float(one_sentence_log_z(e, crf).data)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_loss_nonnegative_and_prob_in_unit_interval(self, rng):
        for _ in range(20):
            n, num_labels = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            e = rng.uniform(-2, 2, (n, num_labels))
            crf = random_crf(rng, num_labels)
            gold = list(rng.integers(0, num_labels, n))
            loss = float(crf_nll(Tensor(e), [gold], Packing([len(gold)]), crf).data)
            assert loss >= -1e-12
            assert 0.0 < math.exp(-loss) <= 1.0 + 1e-12

    def test_path_probabilities_sum_to_one(self, rng):
        e = rng.uniform(-2, 2, (3, 3))
        crf = random_crf(rng, 3)
        with ad.no_grad():
            log_z = float(one_sentence_log_z(e, crf).data)
        _, s = enumerate_paths(e, crf)
        assert np.exp(s - log_z).sum() == pytest.approx(1.0, abs=1e-6)

    def test_label_out_of_range(self, rng):
        crf = CrfParams(2)
        with pytest.raises(ValueError):
            crf_nll(Tensor(rng.normal(size=(2, 2))), [[0, 5]], Packing([2]), crf)

    def test_packing_must_hold_the_gold_lengths(self, rng):
        crf = CrfParams(2)
        e = Tensor(rng.normal(size=(5, 2)))
        with pytest.raises(ValueError, match="packing"):
            crf_nll(e, [[0, 1], [1, 0, 1]], Packing([3, 2]), crf)

    @pytest.mark.parametrize("lengths", [[1], [4], [3, 1, 2], [1, 1], [2, 5, 1, 5]])
    def test_path_transitions_match_insert_construction(self, rng, lengths):
        crf = CrfParams(3)
        gold = rng.integers(0, 3, sum(lengths))
        ends = np.cumsum(lengths)
        rows, cols = path_transitions(gold, lengths, crf)
        np.testing.assert_array_equal(rows, np.insert(gold, ends - lengths, crf.start))
        np.testing.assert_array_equal(cols, np.insert(gold, ends, crf.stop))

    def test_gradients_pass_finite_difference_check(self, rng):
        e = Tensor(rng.uniform(-2, 2, (4, 5)))
        crf = random_crf(rng, 5)
        gold = list(rng.integers(0, 5, 4))
        err = grad_check(lambda: crf_nll(e, [gold], Packing([len(gold)]), crf),
                         [e, crf.transitions], epsilon=1e-5)
        assert err < 1e-6

    def test_shift_equivariance(self, rng):
        e = rng.uniform(-1, 1, (3, 4))
        crf = random_crf(rng, 4)
        gold = [1, 0, 3]
        shifted = e.copy()
        shifted[1] += 0.7
        with ad.no_grad():
            dz = float(one_sentence_log_z(shifted, crf).data) - \
                float(one_sentence_log_z(e, crf).data)
            assert dz == pytest.approx(0.7, abs=1e-9)
        assert path_score(shifted, gold, crf) - path_score(e, gold, crf) == \
            pytest.approx(0.7, abs=1e-12)
        assert decode_one(shifted, crf)[0] == decode_one(e, crf)[0]


class TestViterbi:
    def test_zero_transitions_equals_greedy(self, rng):
        e = rng.normal(size=(5, 4))
        crf = CrfParams(4)
        assert decode_one(e, crf)[0] == greedy_decode(e)

    def test_avoids_forbidden_bigram(self, rng):
        crf = CrfParams(2)
        crf.transitions.data[0, 1] = -1e9
        for _ in range(20):
            e = rng.uniform(-2, 2, (4, 2))
            best, _ = decode_one(e, crf)
            assert not any(a == 0 and b == 1 for a, b in zip(best, best[1:]))

    def test_matches_enumeration(self, rng):
        for _ in range(200):
            n, num_labels = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            e = rng.uniform(-2, 2, (n, num_labels))
            crf = random_crf(rng, num_labels)
            paths, s = enumerate_paths(e, crf)
            best_path, best_score = decode_one(e, crf)
            idx = int(s.argmax())
            assert best_path == list(paths[idx])
            assert best_score == pytest.approx(float(s[idx]), abs=1e-9)

    def test_score_dominates_gold(self, rng):
        for _ in range(30):
            n, num_labels = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            e = rng.uniform(-2, 2, (n, num_labels))
            crf = random_crf(rng, num_labels)
            gold = list(rng.integers(0, num_labels, n))
            _, best_score = decode_one(e, crf)
            assert best_score >= path_score(e, gold, crf) - 1e-12

    def test_all_equal_scores_decode_to_label_zero(self):
        crf = CrfParams(3)
        assert decode_one(np.zeros((4, 3)), crf)[0] == [0, 0, 0, 0]

    @pytest.mark.parametrize("width", [3, 7])
    def test_score_width_must_match_the_label_count(self, rng, width):
        """Two columns short or over 5 labels: a wider matrix would decode
        the START and STOP states as labels."""
        crf = random_crf(rng, 5)
        scores = rng.normal(size=(4, width))
        for run in (lambda: decode_one(scores, crf),
                    lambda: one_sentence_log_z(scores, crf),
                    lambda: path_score(scores, [0, 1, 2, 0], crf)):
            with pytest.raises(ValueError, match="CRF label count"):
                run()


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


def _gates_of(values: np.ndarray, hidden: int = 3) -> np.ndarray:
    """The gate kernel on every value in every gate column: [values, 4, H]."""
    pre = np.repeat(values[:, None], 4 * hidden, axis=1)
    act = np.empty_like(pre)
    _activate_gates(pre, act)
    return act.reshape(-1, 4, hidden)


class TestGateKernel:
    """float32 gates are one `np.tanh`, sigmoid as 1/2 + 1/2 tanh(x / 2): the
    i, f and o gates within 6.5e-8 of the float64 sigmoid and g within 6.5e-8
    of tanh (6.02e-8 on a strided sweep of the float32 values in [-20, 20];
    scipy's float32 expit reaches 8.9e-8). float64 is scipy's expit."""

    BOUND = 6.5e-8

    def test_float32_is_within_its_bound(self):
        top = np.finfo(np.float32)
        extremes = np.float32([1e-30, top.tiny, 1e-7, 44.0, 89.0, 1e4, 1e30, top.max])
        x = np.concatenate([np.linspace(-30, 30, 600_001, dtype=np.float32),
                            extremes, -extremes])
        with np.errstate(all="raise"):
            gates = _gates_of(x)
        wide = x.astype(np.float64)[:, None]
        assert gates.dtype == np.float32
        assert np.abs(gates[:, [0, 1, 3]] - expit(wide)[..., None]).max() <= self.BOUND
        assert np.abs(gates[:, 2] - np.tanh(wide)).max() <= self.BOUND
        assert gates[:, [0, 1, 3]].min() >= 0.0 and gates.max() <= 1.0

    def test_special_values(self):
        top = np.finfo(np.float32).max
        x = np.float32([np.inf, -np.inf, np.nan, 0.0, -0.0, top, -top])
        with np.errstate(all="raise"):
            gates = _gates_of(x)
        sigmoid = np.float32([1, 0, np.nan, 0.5, 0.5, 1, 0])
        for gate in (0, 1, 3):
            np.testing.assert_array_equal(gates[:, gate], sigmoid[:, None].repeat(3, 1))
        np.testing.assert_array_equal(
            gates[:, 2], np.float32([1, -1, np.nan, 0, -0.0, 1, -1])[:, None].repeat(3, 1))

    def test_float64_is_scipy_expit_and_tanh_bit_for_bit(self, rng):
        hidden = 4
        pre = rng.normal(size=(5, 2, 4 * hidden)) * 6
        expected = expit(pre)
        expected[..., 2 * hidden:3 * hidden] = np.tanh(pre[..., 2 * hidden:3 * hidden])
        act = np.empty_like(pre)
        _activate_gates(pre.copy(), act)
        assert act.tobytes() == expected.tobytes()


class TestBiLstm:
    def test_zero_weights_zero_outputs(self, rng):
        params = BiLstmParams(3, 4, rng)
        for t in params.params.values():
            t.data[:] = 0.0
        out = bilstm_forward(rng.normal(size=(3, 3)), Packing([3]), params)
        np.testing.assert_array_equal(out.data, np.zeros((3, 8)))

    def test_output_width_is_twice_hidden(self, rng):
        params = BiLstmParams(8, 256, rng)
        out = bilstm_forward(rng.normal(size=(1, 8)), Packing([1]), params)
        assert out.shape == (1, 512)

    def test_matches_scalar_reference(self, rng):
        hidden, idim, n = 3, 2, 3
        params = BiLstmParams(idim, hidden, rng)
        x = rng.normal(size=(n, idim))
        out = bilstm_forward(x, Packing([n]), params).data
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
        x = rng.normal(size=(3, 2))
        err = grad_check(
            lambda: ad.tsum(bilstm_forward(x, Packing([3]), params) *
                            bilstm_forward(x, Packing([3]), params)),
            params.parameters(), epsilon=1e-5)
        assert err < 1e-5

    def test_empty_sequence_errors(self, rng):
        with pytest.raises(ValueError):
            bilstm_forward(np.zeros((0, 2)), Packing([0]), BiLstmParams(2, 3, rng))

    def test_rows_must_match_the_packing(self, rng):
        with pytest.raises(ValueError, match="rows"):
            bilstm_forward(np.zeros((3, 2)), Packing([2]),
                           BiLstmParams(2, 3, rng))

    def test_decode_batch_allocates_little_beyond_its_gate_block(self, rng):
        """A 256-row decode batch keeps the gates, cells and outputs it
        returns or reads, not a second [rows, 2, 4H] block of inputs."""
        hidden, lengths = 64, [31, 24, 20, 18, 17, 16, 16, 15, 14, 13, 12, 11,
                               10, 9, 8, 8, 7, 5, 2]
        params = BiLstmParams(64, hidden, rng)
        features = rng.normal(size=(sum(lengths), 64))
        packing = Packing(lengths)
        gate_block = sum(lengths) * 2 * 4 * hidden * 8
        tracemalloc.start()
        try:
            with ad.no_grad():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                bilstm_forward(features, packing, params)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sum(lengths) == 256
        assert peak < 2.5 * gate_block


# -- fused sequence ops against per-timestep autodiff references -------------


def reference_crf_log_z(emissions, crf):
    """Forward algorithm as one autodiff node per timestep (the reference)."""
    emissions = oracle_ops.as_tensor(emissions)
    n, num_labels = emissions.shape
    trans = crf.transitions
    core = ad.narrow(ad.narrow(trans, 0, 0, num_labels), 1, 0, num_labels)
    start_row = ad.narrow(ad.take_rows(trans, [crf.start]), 1, 0, num_labels)
    stop_col = ad.reshape(
        ad.take_at(trans, np.arange(num_labels), np.full(num_labels, crf.stop)),
        (1, num_labels))
    alpha = start_row + ad.take_rows(emissions, [0])
    for t in range(1, n):
        # [from, to]: alpha repeated along `to` as a full-size operand
        scores = ad.concat([ad.reshape(alpha, (num_labels, 1))] * num_labels, axis=1) + core
        alpha = ad.reshape(ad.log_sum_exp(scores, axis=0), (1, num_labels)) \
            + ad.take_rows(emissions, [t])
    return ad.tsum(ad.log_sum_exp(alpha + stop_col, axis=1))


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
        assert_fused_matches_reference(lambda: one_sentence_log_z(e, crf),
                                       lambda: reference_crf_log_z(e, crf),
                                       [e, crf.transitions])

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_reference_under_constrained_transitions(self, rng, n):
        labels = ["O", "B-LOC", "I-LOC", "E-LOC", "S-LOC", "B-PER", "I-PER",
                  "E-PER", "S-PER"]
        crf = CrfParams(len(labels), rng)
        crf.constrain(labels)
        e = Tensor(rng.uniform(-3, 3, (n, len(labels))))
        assert_fused_matches_reference(lambda: one_sentence_log_z(e, crf),
                                       lambda: reference_crf_log_z(e, crf),
                                       [e, crf.transitions])


class TestFusedLstmDirection:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_timestep_reference(self, rng, n, reverse):
        """Each direction's half of the BiLSTM output, and the gradients
        reaching that direction's weights through it."""
        hidden = 6
        params = BiLstmParams(4, hidden, rng)
        d = "bw" if reverse else "fw"
        w, u, b = (params.params[f"{d}.{k}"] for k in "wub")
        x = rng.normal(size=(n, 4))
        order = range(n - 1, -1, -1) if reverse else range(n)
        assert_fused_matches_reference(
            lambda: ad.narrow(bilstm_forward(x, Packing([n]), params), 1,
                              hidden if reverse else 0, hidden),
            lambda: reference_lstm_direction(Tensor(x), w, u, b, hidden, order),
            [w, u, b])

    def test_bilstm_joins_both_directions(self, rng):
        params = BiLstmParams(3, 5, rng)
        p = params.params
        x = rng.normal(size=(7, 3))
        expected = np.concatenate(
            [reference_lstm_direction(Tensor(x), p["fw.w"], p["fw.u"], p["fw.b"], 5,
                                      range(7)).data,
             reference_lstm_direction(Tensor(x), p["bw.w"], p["bw.u"], p["bw.b"], 5,
                                      range(6, -1, -1)).data], axis=1)
        assert np.array_equal(bilstm_forward(x, Packing([7]), params).data, expected)


# -- batched ops against the per-sentence oracle ops -------------------------


class TestPacking:
    def test_layout(self):
        packing = Packing([2, 3, 1, 3])  # flat rows 0-1, 2-4, 5, 6-8
        assert packing.order == [1, 3, 0, 2]  # longest first, ties in input order
        assert packing.sorted_lengths == [3, 3, 2, 1]
        assert packing.bounds == [0, 4, 7, 9]
        assert packing.forward.tolist() == [2, 6, 0, 5, 3, 7, 1, 4, 8]
        assert packing.backward.tolist() == [4, 8, 1, 5, 3, 7, 0, 2, 6]
        assert packing.rank.tolist() == [0, 1, 2, 3, 0, 1, 2, 0, 1]
        assert packing.previous.tolist() == [0, 1, 2, 4, 5]
        assert packing.last.tolist() == [7, 8, 6, 3]
        assert packing.rows == 9

    def test_single_sentence_layout(self):
        packing = Packing([4])
        rows = np.arange(4)
        assert rows[packing.forward].tolist() == [0, 1, 2, 3]
        assert rows[packing.backward].tolist() == [3, 2, 1, 0]
        assert packing.bounds == [0, 1, 2, 3, 4]
        assert packing.rank.tolist() == [0, 0, 0, 0]
        assert packing.previous.tolist() == [0, 1, 2]
        assert packing.last.tolist() == [3]

    @pytest.mark.parametrize("lengths", [[], [0], [2, 0]])
    def test_empty_batch_or_sentence_rejected(self, lengths):
        with pytest.raises(ValueError, match="at least one"):
            Packing(lengths)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=8))
    def test_matches_the_grid_without_padding(self, lengths):
        """Every field equals a brute-force build from the definition: the
        [n_max, B] grid of (step, sentence) read time major, padding skipped."""
        order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
        starts = [sum(lengths[:i]) for i in order]
        cells = [(t, r) for t in range(max(lengths)) for r in range(len(order))
                 if t < lengths[order[r]]]
        row = {cell: k for k, cell in enumerate(cells)}
        packing = Packing(lengths)
        assert packing.order == order
        assert packing.sorted_lengths == [lengths[i] for i in order]
        assert packing.bounds == [sum(step < t for step, _ in cells)
                                  for t in range(max(lengths) + 1)]
        assert packing.rows == len(cells)
        assert packing.forward.tolist() == [starts[r] + t for t, r in cells]
        assert packing.backward.tolist() == [starts[r] + lengths[order[r]] - 1 - t
                                             for t, r in cells]
        assert packing.rank.tolist() == [r for _, r in cells]
        assert packing.previous.tolist() == [row[t - 1, r] for t, r in cells if t]
        assert packing.last.tolist() == [row[lengths[i] - 1, r]
                                         for r, i in enumerate(order)]


RAGGED = [[1], [3, 1], [1, 1, 1], [2, 5, 5, 1, 3], [4, 1, 7, 2, 7, 3, 1, 6],
          [6, 6, 6, 6, 6, 6, 6, 6]]


def per_sentence(lengths, op, *tensors):
    """op applied to each sentence's rows of `tensors`, results in a list."""
    bounds = np.cumsum([0] + list(lengths))
    return [op(*(ad.narrow(t, 0, int(a), int(z - a)) for t in tensors))
            for a, z in zip(bounds[:-1], bounds[1:])]


def sum_of(tensors):
    total = tensors[0]
    for t in tensors[1:]:
        total = total + t
    return total


def assert_batch_matches_oracle(batched, oracle, inputs, exact):
    out, grads = value_and_grads(batched, inputs)
    ref_out, ref_grads = value_and_grads(oracle, inputs)
    if exact:
        assert np.array_equal(out, ref_out)
        for grad, ref in zip(grads, ref_grads):
            assert np.array_equal(grad, ref)
    else:
        assert np.abs(out - ref_out).max() <= 1e-10 * max(1.0, np.abs(ref_out).max())
        for grad, ref in zip(grads, ref_grads):
            assert np.abs(grad - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def bioes_crf(rng, constrained):
    labels = ["O", "B-LOC", "I-LOC", "E-LOC", "S-LOC", "B-PER", "I-PER",
              "E-PER", "S-PER"]
    if constrained:
        crf = CrfParams(len(labels), rng)
        crf.constrain(labels)
        return crf
    return random_crf(rng, len(labels))


class TestBatchOfOne:
    """A batch of one sentence is the per-sentence op, bit for bit."""

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("constrained", [False, True])
    def test_crf_log_z_and_viterbi(self, rng, n, constrained):
        crf = bioes_crf(rng, constrained)
        e = Tensor(rng.uniform(-3, 3, (n, crf.num_labels)))
        assert_batch_matches_oracle(lambda: one_sentence_log_z(e, crf),
                                    lambda: oracle_ops.crf_log_z(e, crf),
                                    [e, crf.transitions], exact=True)
        path, score = decode_one(e.data, crf)
        assert (path, score) == oracle_ops.viterbi(e.data, crf)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_bilstm(self, rng, n):
        params = BiLstmParams(4, 6, rng)
        x = rng.normal(size=(n, 4))
        assert_batch_matches_oracle(lambda: bilstm_forward(x, Packing([n]), params),
                                    lambda: oracle_ops.bilstm_forward(Tensor(x), params),
                                    params.parameters(), exact=True)


class TestRaggedBatch:
    """Ragged batches match the per-sentence ops run sentence by sentence."""

    @pytest.mark.parametrize("lengths", RAGGED)
    @pytest.mark.parametrize("constrained", [False, True])
    def test_crf_log_z(self, rng, lengths, constrained):
        crf = bioes_crf(rng, constrained)
        e = Tensor(rng.uniform(-3, 3, (sum(lengths), crf.num_labels)))
        assert_batch_matches_oracle(
            lambda: crf_log_z(e, Packing(lengths), crf),
            lambda: sum_of(per_sentence(lengths,
                                        lambda s: oracle_ops.crf_log_z(s, crf), e)),
            [e, crf.transitions], exact=False)

    @pytest.mark.parametrize("lengths", RAGGED)
    @pytest.mark.parametrize("constrained", [False, True])
    def test_viterbi(self, rng, lengths, constrained):
        crf = bioes_crf(rng, constrained)
        e = rng.uniform(-3, 3, (sum(lengths), crf.num_labels))
        paths, scores = viterbi(e, Packing(lengths), crf)
        bounds = np.cumsum([0] + lengths)
        expected = [oracle_ops.viterbi(e[a:z], crf) for a, z in zip(bounds, bounds[1:])]
        assert list(zip(paths, scores)) == expected

    @pytest.mark.parametrize("lengths", RAGGED)
    def test_crf_nll(self, rng, lengths):
        crf = random_crf(rng, 4)
        e = Tensor(rng.uniform(-2, 2, (sum(lengths), 4)))
        golds = [list(rng.integers(0, 4, n)) for n in lengths]
        assert_batch_matches_oracle(
            lambda: crf_nll(e, golds, Packing(lengths), crf),
            lambda: sum_of([
                oracle_ops.crf_log_z(s, crf) - crf_gold_score(s, [gold], crf)
                for s, gold in zip(per_sentence(lengths, lambda s: s, e), golds)]),
            [e, crf.transitions], exact=False)

    @pytest.mark.parametrize("lengths", RAGGED)
    def test_bilstm(self, rng, lengths):
        params = BiLstmParams(3, 5, rng)
        x = rng.normal(size=(sum(lengths), 3))
        assert_batch_matches_oracle(
            lambda: bilstm_forward(x, Packing(lengths), params),
            lambda: ad.concat(per_sentence(
                lengths, lambda s: oracle_ops.bilstm_forward(s, params), Tensor(x))),
            params.parameters(), exact=False)
