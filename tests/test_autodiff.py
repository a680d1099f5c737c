import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from docner import autodiff as ad
from docner.autodiff import Tensor
from oracle_ops import dropout, grad_check, sigmoid, tanh, tmean, transpose


class TestLogSumExp:
    def test_two_zeros(self):
        assert float(ad.log_sum_exp(Tensor([0.0, 0.0]), axis=0).data) == \
            pytest.approx(math.log(2.0), abs=1e-12)

    def test_no_overflow_at_large_values(self):
        out = float(ad.log_sum_exp(Tensor([1000.0, 1000.0]), axis=0).data)
        assert out == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)

    def test_direct_formula_oracle(self, rng):
        for _ in range(50):
            v = rng.uniform(-10, 10, size=5)
            ours = float(ad.log_sum_exp(Tensor(v), axis=0).data)
            direct = math.log(np.exp(v).sum())
            assert ours == pytest.approx(direct, abs=1e-12)

    def test_empty_vector_errors(self):
        with pytest.raises(ValueError):
            ad.log_sum_exp(Tensor(np.zeros(0)), axis=0)

    def test_axis_variant(self, rng):
        m = rng.normal(size=(3, 4))
        out = ad.log_sum_exp(Tensor(m), axis=1)
        expected = np.log(np.exp(m).sum(axis=1))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestGradCheck:
    def test_square_at_three(self):
        x = Tensor([3.0])
        err = grad_check(lambda: ad.tsum(x * x), [x])
        assert err < 1e-9
        assert x.grad is not None and x.grad[0] == pytest.approx(6.0, abs=1e-9)

    def test_constant_function(self):
        x = Tensor([1.0, 2.0])
        c = Tensor([5.0])
        assert grad_check(lambda: ad.tsum(c * c), [x]) == 0.0

    def test_non_finite_objective_errors(self):
        x = Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            grad_check(lambda: ad.tsum(x * x * x), [x])

    def test_bad_epsilon(self):
        x = Tensor([1.0])
        with pytest.raises(ValueError):
            grad_check(lambda: ad.tsum(x), [x], epsilon=0.0)


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
            lambda: ad.tsum(transpose(ad.reshape(a, (2, 2, 3)), (1, 0, 2)) * 2.0),
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
        "log_sum_exp_axis0": (lambda: ad.tsum(ad.log_sum_exp(a, axis=0)), [a]),
        "layer_norm": (lambda: ad.tsum(ad.layer_norm(a, gain, shift) * b),
                       [a, b, gain, shift]),
        "dropout": (lambda: ad.tsum(dropout(
            a, 0.4, np.random.default_rng(7), train=True)), [a]),
    }
    return cases


class TestOperationGradients:
    def test_every_op_passes_grad_check(self, rng):
        for name, (f, params) in _op_cases(rng).items():
            err = grad_check(f, params, epsilon=1e-5)
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
        for rows in ([0, 3], [0, -1]):
            with pytest.raises(IndexError):
                ad.take_rows(Tensor(rng.normal(size=(3, 2))), rows)

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


class TestScatterAddRows:
    @settings(max_examples=60, deadline=None)
    @given(table=st.integers(1, 9), width=st.sampled_from([(1,), (3,), (2, 3)]),
           picks=st.lists(st.integers(0, 8), min_size=0, max_size=40),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_bit_for_bit_the_row_wise_add_at(self, table, width, picks, dtype, seed):
        """Repeated rows sum in order of occurrence, as `np.add.at` by rows:
        float addition does not associate, so another order shows in the bits."""
        rng = np.random.default_rng(seed)
        rows = np.array([r % table for r in picks], dtype=np.intp)
        start = (rng.normal(size=(table, *width)) * 1e3).astype(dtype)
        shape = (rows.size, *width)  # magnitudes 1e-3 to 1e3: sums that round
        values = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape))
        values = values.astype(dtype)
        expected = start.copy()
        np.add.at(expected, rows, values)
        got = start.copy()
        ad.scatter_add_rows(got, rows, values)
        assert got.tobytes() == expected.tobytes()

    def test_refuses_a_strided_target(self):
        target = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            ad.scatter_add_rows(target, np.array([0, 0]), np.ones((2, 3)))


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


def _float32_grid() -> np.ndarray:
    """A dense float32 grid over [-10, 10], every float32 within 2^17 steps
    of the cdf's clip, and the far tails."""
    clip = np.float32(ad._CDF_CLIP).view(np.int32)
    near_clip = np.arange(clip - 2**17, clip + 2**17, dtype=np.int32).view(np.float32)
    big = np.float32([30.0, 1e3, 1e19, 1e30, np.finfo(np.float32).max])
    half = np.concatenate([near_clip, big])
    return np.concatenate([np.linspace(-10, 10, 400_001, dtype=np.float32), half, -half])


class TestGelu:
    """The float32 GELU's cdf, 1/2 + a P(a^2) / Q(a^2), is within 2.4e-7 of
    the float64 cdf (2.31e-7 on this grid; scipy's float32 erf path reaches
    6.2e-8), and its backward within 3e-7 of the float64 analytic gradient
    cdf + a pdf (2.59e-7 on this grid); float64 GELU is scipy's erf formula
    bit for bit."""

    def test_float32_cdf_is_within_its_bound(self):
        a = _float32_grid()
        out, cdf = ad._gelu_float32(a)
        assert out.dtype == cdf.dtype == np.float32  # the gradient: TestDtype
        exact = special.ndtr(a.astype(np.float64))
        assert np.abs(cdf - exact).max() <= 2.4e-7
        assert cdf.min() == 0.0 and cdf.max() == 1.0
        beyond = np.abs(a) >= np.float32(ad._CDF_CLIP)
        np.testing.assert_array_equal(cdf[beyond], (a[beyond] > 0).astype(np.float32))

    def test_special_values(self):
        top = np.finfo(np.float32).max
        a = np.float32([np.inf, -np.inf, np.nan, 0.0, -0.0, top, -top])
        with np.errstate(all="raise"):
            out, cdf = ad._gelu_float32(a)
            np.testing.assert_array_equal(ad.gelu(a).data, out)
        np.testing.assert_array_equal(out, np.float32([np.inf, 0, np.nan, 0, 0, top, 0]))
        np.testing.assert_array_equal(np.signbit(out), [0, 1, 0, 0, 1, 0, 1])
        np.testing.assert_array_equal(cdf, np.float32([1, 0, np.nan, 0.5, 0.5, 1, 0]))

    def test_float64_is_the_scipy_formula(self, rng):
        a = np.concatenate([rng.normal(size=1000) * 3, np.linspace(-10, 10, 2001)])
        expected = a * ((special.erf(a / math.sqrt(2.0)) + 1.0) * 0.5)
        np.testing.assert_array_equal(ad.gelu(a).data, expected)

    def test_float32_backward_matches_the_float64_gradient(self):
        a = _float32_grid()  # its tails reach the largest float32
        x = Tensor(a)
        ad.tsum(ad.gelu(x)).backward()
        wide = a.astype(np.float64)
        exact = special.ndtr(wide) + wide * np.exp(-0.5 * wide * wide) / math.sqrt(2 * math.pi)
        assert np.abs(x.grad - exact).max() <= 3e-7

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extremes_do_not_warn_and_take_the_limit_gradient(self, dtype):
        """Past +-40 the pdf term is 0 in either dtype: the gradient is g
        towards +inf and 0 towards -inf, and the square does not overflow."""
        a = np.array([1e20, -1e20, np.inf, -np.inf], dtype)
        g = np.array([3.0, 5.0, 7.0, 11.0], dtype)
        with np.errstate(all="raise"):
            y = ad.gelu(Tensor(a))
            grad = y._backward(g)[0]
        np.testing.assert_array_equal(y.data, np.array([1e20, 0, np.inf, 0], dtype))
        np.testing.assert_array_equal(np.signbit(y.data), [0, 1, 0, 1])
        assert grad.dtype == dtype
        np.testing.assert_array_equal(grad, np.array([3.0, 0.0, 7.0, 0.0], dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_is_the_unclipped_formula_within_40(self, rng, dtype):
        a = np.concatenate([rng.normal(size=500) * 10, [-40.0, 40.0, -39.5, 39.5]])
        a = a.astype(dtype)
        g = rng.normal(size=a.size).astype(dtype)
        if dtype == np.float32:
            cdf = ad._gelu_float32(a)[1]
        else:
            cdf = (special.erf(a / math.sqrt(2.0)) + 1.0) * 0.5
        d = a * dtype(-0.5)
        d *= a
        d = np.exp(d) * dtype(1.0 / math.sqrt(2.0 * math.pi))
        expected = (d * a + cdf) * g
        got = ad.gelu(Tensor(a))._backward(g)[0]
        assert got.tobytes() == expected.tobytes()

    def test_a_row_does_not_depend_on_its_batch(self, rng):
        a = (rng.normal(size=(37, 29)) * 4).astype(np.float32)
        whole = ad.gelu(a).data
        for i in (0, 5, 36):
            np.testing.assert_array_equal(ad.gelu(a[i:i + 1]).data, whole[i:i + 1])
            np.testing.assert_array_equal(ad.gelu(a[i, 3:]).data, whole[i, 3:])


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(532, 64), (14, 64), (3, 7), (5, 1)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_the_np_var_formula_bit_for_bit(self, rng, shape, scale):
        a = rng.normal(size=shape) * scale + scale
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        mu = a.mean(axis=-1, keepdims=True)
        var = a.var(axis=-1, keepdims=True)
        expected = (a - mu) * (1.0 / np.sqrt(var + 1e-5)) * gain + bias
        out = ad.layer_norm(Tensor(a), Tensor(gain), Tensor(bias)).data
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("shape", [(532, 64), (14, 64), (3, 7), (5, 1)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_backward_matches_the_np_mean_formula_bit_for_bit(self, rng, shape, scale):
        a = rng.normal(size=shape) * scale + scale
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        g = rng.normal(size=shape)
        inv = 1.0 / np.sqrt(a.var(axis=-1, keepdims=True) + 1e-5)
        xhat = (a - a.mean(axis=-1, keepdims=True)) * inv
        gxhat = g * gain
        expected_dx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                             - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        out = ad.layer_norm(Tensor(a), Tensor(gain), Tensor(bias))
        dx, dgain, dbias = out._backward(g)
        assert np.array_equal(dx, expected_dx)
        assert np.array_equal(dgain, (g * xhat).sum(axis=0))
        assert np.array_equal(dbias, g.sum(axis=0))


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
        assert dropout(x, 0.5, np.random.default_rng(0), train=False) is x
        assert dropout(x, 0.0, np.random.default_rng(0), train=True) is x

    def test_train_mode_masks_and_scales(self, rng):
        x = Tensor(np.ones((50, 50)))
        y = dropout(x, 0.25, np.random.default_rng(0), train=True).data
        assert set(np.unique(y)) <= {0.0, 1.0 / 0.75}
        assert 0.6 < (y > 0).mean() < 0.9


class TestNoGrad:
    def test_no_graph_recorded(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with ad.no_grad():
            y = x @ x + x
        assert y._parents == () and y._backward is None

    def test_nested_restores(self):
        x = Tensor([1.0])

        def records():
            return (x * 2.0)._parents == (x,)

        assert records()
        with ad.no_grad():
            assert not records()
            with ad.no_grad():
                assert not records()
            assert not records()
        assert records()


class TestDtype:
    def test_float_input_keeps_its_dtype(self):
        for dtype in (np.float32, np.float64):
            assert Tensor(np.zeros(3, dtype)).dtype == dtype
        assert Tensor([1, 2]).dtype == np.float64
        assert Tensor(np.arange(3)).dtype == np.float64

    def test_float32_graph_stays_float32(self, rng):
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
        out = ad.tsum(ad.layer_norm(ad.gelu(x @ w), np.ones(2, np.float32),
                                    np.zeros(2, np.float32)) * 0.5)
        assert out.dtype == np.float32
        out.backward()
        assert x.grad.dtype == w.grad.dtype == np.float32

    def test_mixed_dtypes_raise_in_backward(self, rng):
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        out = ad.tsum(x * rng.normal(size=(3, 4)))  # a float64 constant promotes
        assert out.dtype == np.float64
        with pytest.raises(TypeError, match="float64 gradient for a float32 operand"):
            out.backward()


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

    @pytest.mark.parametrize("shape", [(1, 4), (5, 1), (1, 1)])
    def test_size_one_broadcast_raises(self, rng, shape):
        # only prepended axes are summed back; no op of the program
        # broadcasts along a size-1 axis
        operand = Tensor(rng.normal(size=shape))
        loss = ad.tsum(Tensor(rng.normal(size=(5, 4))) + operand)
        with pytest.raises(ValueError, match="size-1 axes"):
            loss.backward()
        assert operand.grad is None

    def test_plain_array_operand_is_a_constant(self, rng):
        x = rng.normal(size=(3, 4))
        w = Tensor(rng.normal(size=(4, 5)))
        out = ad.matmul(x, w)
        assert out._parents == (w,)
        upstream = rng.normal(size=(3, 5))
        assert len(out._backward(upstream)) == 1
        ad.tsum(out * Tensor(upstream)).backward()
        np.testing.assert_array_equal(w.grad, x.T @ upstream)
        assert ad.softmax(x)._parents == ()

    def test_every_gradient_has_its_own_buffer(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 5)))
        bias = Tensor(rng.normal(size=5))
        gain = Tensor(rng.uniform(0.5, 1.5, size=4))
        shift = Tensor(rng.normal(size=4))
        h = ad.layer_norm(a + b + a, gain, shift)
        h = dropout(ad.gelu(h @ w + bias), 0.3, np.random.default_rng(0), train=True)
        h = ad.softmax(h, axis=1) * h
        t = transpose(ad.reshape(h, (5, 3)), (1, 0))
        c = ad.concat([t, ad.narrow(h, 1, 1, 2)], axis=1)
        r = ad.take_rows(c, [2, 0, 2])
        loss = (ad.tsum(ad.log_sum_exp(r, axis=1)) + ad.tsum(ad.take_at(r, [0, 1], [6, 3]))
                + ad.tsum(ad.log_sum_exp(c, axis=0)) + tmean(sigmoid(c) * tanh(c)))
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
