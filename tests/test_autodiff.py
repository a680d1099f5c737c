import itertools
import math

import numpy as np
import pytest

from docner import autodiff as ad
from docner.autodiff import Tensor
from oracle_ops import sigmoid, tanh, tmean


class TestLogSumExp:
    def test_two_zeros(self):
        assert float(ad.log_sum_exp(Tensor([0.0, 0.0])).data) == \
            pytest.approx(math.log(2.0), abs=1e-12)

    def test_no_overflow_at_large_values(self):
        out = float(ad.log_sum_exp(Tensor([1000.0, 1000.0])).data)
        assert out == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)

    def test_direct_formula_oracle(self, rng):
        for _ in range(50):
            v = rng.uniform(-10, 10, size=5)
            ours = float(ad.log_sum_exp(Tensor(v)).data)
            direct = math.log(np.exp(v).sum())
            assert ours == pytest.approx(direct, abs=1e-12)

    def test_empty_vector_errors(self):
        with pytest.raises(ValueError):
            ad.log_sum_exp(Tensor(np.zeros(0)))

    def test_axis_variant(self, rng):
        m = rng.normal(size=(3, 4))
        out = ad.log_sum_exp(Tensor(m), axis=1)
        expected = np.log(np.exp(m).sum(axis=1))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestGradCheck:
    def test_square_at_three(self):
        x = Tensor([3.0])
        err = ad.grad_check(lambda: ad.tsum(x * x), [x])
        assert err < 1e-9
        assert x.grad is not None and x.grad[0] == pytest.approx(6.0, abs=1e-9)

    def test_constant_function(self):
        x = Tensor([1.0, 2.0])
        c = Tensor([5.0])
        assert ad.grad_check(lambda: ad.tsum(c * c), [x]) == 0.0

    def test_non_finite_objective_errors(self):
        x = Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            ad.grad_check(lambda: ad.tsum(x * x * x), [x])

    def test_bad_epsilon(self):
        x = Tensor([1.0])
        with pytest.raises(ValueError):
            ad.grad_check(lambda: ad.tsum(x), [x], epsilon=0.0)


def _op_cases(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(4, 5)))
    bias = Tensor(rng.normal(size=5))
    gain = Tensor(rng.uniform(0.5, 1.5, size=4))
    shift = Tensor(rng.normal(size=4))
    stack = Tensor(rng.normal(size=(2, 3, 4)))
    cases = {
        "add": (lambda: ad.tsum(a + b), [a, b]),
        "add_broadcast_bias": (lambda: ad.tsum((a @ w) + bias), [a, w, bias]),
        "mul": (lambda: ad.tsum(a * b * 0.5), [a, b]),
        "matmul": (lambda: ad.tsum(a @ w), [a, w]),
        "batched_matmul": (lambda: ad.tsum(stack @ w), [stack, w]),
        "reshape_transpose": (
            lambda: ad.tsum(ad.transpose(ad.reshape(a, (2, 2, 3)), (1, 0, 2)) * 2.0),
            [a]),
        "concat": (lambda: ad.tsum(ad.concat([a, b], axis=1) *
                                   ad.concat([b, a], axis=1)), [a, b]),
        "narrow": (lambda: ad.tsum(ad.narrow(a, 1, 1, 2) * ad.narrow(b, 1, 0, 2)),
                   [a, b]),
        "take_rows": (lambda: ad.tsum(ad.take_rows(a, [2, 0, 2])), [a]),
        "take_at": (lambda: ad.tsum(ad.take_at(a, [0, 2, 2], [3, 1, 1])), [a]),
        "sum_axis": (lambda: ad.tsum(ad.tsum(a * a, axis=0, keepdims=True)), [a]),
        "mean": (lambda: tmean(a * a), [a]),
        "sigmoid": (lambda: ad.tsum(sigmoid(a)), [a]),
        "tanh": (lambda: ad.tsum(tanh(a) * b), [a, b]),
        "gelu": (lambda: ad.tsum(ad.gelu(a)), [a]),
        "softmax": (lambda: ad.tsum(ad.softmax(a, axis=1) * b), [a, b]),
        "log_sum_exp_axis": (lambda: ad.tsum(ad.log_sum_exp(a, axis=1)), [a]),
        "log_sum_exp_all": (lambda: ad.log_sum_exp(a), [a]),
        "layer_norm": (lambda: ad.tsum(ad.layer_norm(a, gain, shift) * b),
                       [a, b, gain, shift]),
        "dropout": (lambda: ad.tsum(ad.dropout(
            a, 0.4, np.random.default_rng(7), train=True)), [a]),
    }
    return cases


class TestOperationGradients:
    def test_every_op_passes_grad_check(self, rng):
        for name, (f, params) in _op_cases(rng).items():
            err = ad.grad_check(f, params, epsilon=1e-5)
            assert err < 1e-5, f"{name}: max relative error {err}"

    def test_diamond_graph_accumulates_once(self):
        x = Tensor([3.0])
        y = x + x
        z = ad.tsum(y * y)  # z = 4x^2, dz/dx = 8x = 24
        z.backward()
        assert x.grad[0] == pytest.approx(24.0, abs=1e-12)


class TestTakeRows:
    def test_selects_rows(self, rng):
        states = rng.normal(size=(7, 3))
        out = ad.take_rows(Tensor(states), [0, 1, 4])
        np.testing.assert_array_equal(out.data, states[[0, 1, 4]])

    def test_identity_when_every_row_taken_in_order(self, rng):
        states = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(ad.take_rows(Tensor(states), [0, 1, 2, 3]).data,
                                      states)

    def test_direct_indexing_oracle(self, rng):
        states = rng.normal(size=(7, 3))
        rows = [5, 0, 2, 5]  # out of order, one row twice
        out = ad.take_rows(Tensor(states), rows)
        for i, r in enumerate(rows):
            np.testing.assert_array_equal(out.data[i], states[r])

    def test_out_of_range_errors(self, rng):
        with pytest.raises(IndexError):
            ad.take_rows(Tensor(rng.normal(size=(3, 2))), [0, 3])

    def test_commutes_with_scaling(self, rng):
        states = rng.normal(size=(6, 4))
        rows = [1, 3]
        np.testing.assert_array_equal(ad.take_rows(Tensor(states * 2.5), rows).data,
                                      ad.take_rows(Tensor(states), rows).data * 2.5)

    def test_gradient_scatter_adds_into_taken_rows(self, rng):
        states = Tensor(rng.normal(size=(5, 2)))
        ad.tsum(ad.take_rows(states, [0, 4, 0])).backward()
        expected = np.zeros((5, 2))
        expected[0] = 2.0  # taken twice
        expected[4] = 1.0
        np.testing.assert_array_equal(states.grad, expected)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        m = rng.normal(size=(6, 9)) * 10
        y = ad.softmax(Tensor(m), axis=1).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self, rng):
        m = rng.normal(size=(4, 5))
        base = ad.softmax(Tensor(m), axis=1).data
        shifted = ad.softmax(Tensor(m + 123.45), axis=1).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestConcatBackward:
    def test_gradient_splits_exactly(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 2)))
        upstream = rng.normal(size=(2, 5))
        out = ad.concat([a, b], axis=1)
        loss = ad.tsum(out * Tensor(upstream))
        loss.backward()
        np.testing.assert_array_equal(a.grad, upstream[:, :3])
        np.testing.assert_array_equal(b.grad, upstream[:, 3:])
        assert np.linalg.norm(a.grad) ** 2 + np.linalg.norm(b.grad) ** 2 == \
            pytest.approx(np.linalg.norm(upstream) ** 2, rel=1e-12)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        assert ad.dropout(x, 0.5, np.random.default_rng(0), train=False) is x
        assert ad.dropout(x, 0.0, np.random.default_rng(0), train=True) is x

    def test_train_mode_masks_and_scales(self, rng):
        x = Tensor(np.ones((50, 50)))
        y = ad.dropout(x, 0.25, np.random.default_rng(0), train=True).data
        assert set(np.unique(y)) <= {0.0, 1.0 / 0.75}
        assert 0.6 < (y > 0).mean() < 0.9


class TestNoGrad:
    def test_no_graph_recorded(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with ad.no_grad():
            y = x @ x + x
        assert y._parents == () and y._backward is None

    def test_nested_restores(self):
        assert ad.grad_enabled()
        with ad.no_grad():
            assert not ad.grad_enabled()
            with ad.no_grad():
                assert not ad.grad_enabled()
            assert not ad.grad_enabled()
        assert ad.grad_enabled()


class TestBackwardContract:
    def test_requires_scalar(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            (x + x).backward()

    def test_unbroadcast_bias_gradient(self, rng):
        bias = Tensor(np.zeros(4))
        m = Tensor(rng.normal(size=(5, 4)))
        ad.tsum(m + bias).backward()
        np.testing.assert_array_equal(bias.grad, np.full(4, 5.0))

    def test_every_gradient_has_its_own_buffer(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 5)))
        bias = Tensor(rng.normal(size=5))
        gain = Tensor(rng.uniform(0.5, 1.5, size=4))
        shift = Tensor(rng.normal(size=4))
        h = ad.layer_norm(a + b + a, gain, shift)
        h = ad.dropout(ad.gelu(h @ w + bias), 0.3, np.random.default_rng(0), train=True)
        h = ad.softmax(h, axis=1) * h
        t = ad.transpose(ad.reshape(h, (5, 3)), (1, 0))
        c = ad.concat([t, ad.narrow(h, 1, 1, 2)], axis=1)
        r = ad.take_rows(c, [2, 0, 2])
        loss = (ad.tsum(ad.log_sum_exp(r, axis=1)) + ad.tsum(ad.take_at(r, [0, 1], [6, 3]))
                + ad.log_sum_exp(c) + tmean(sigmoid(c) * tanh(c)))
        loss.backward()
        nodes, stack = {id(loss): loss}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in nodes:
                    nodes[id(parent)] = parent
                    stack.append(parent)
        for node in nodes.values():
            assert node.grad is not None and node.grad.shape == node.data.shape
        for x, y in itertools.combinations(nodes.values(), 2):
            assert not np.shares_memory(x.grad, y.grad)
