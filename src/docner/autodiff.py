"""Reverse-mode automatic differentiation over float numpy arrays.

Every operation builds a node graph: each :class:`Tensor` produced by an op
keeps references to its parents together with a gradient closure. Calling
``backward()`` on a scalar walks the recorded graph once, in reverse
topological order, accumulating gradients into ``.grad``.

The engine is deliberately small: dense float arrays only, no views into
shared storage, no in-place ops on tracked tensors. The one exception is
an optimizer's leaves: `docner.training`'s optimizers rebind each
parameter's ``data`` and ``grad`` to views of one flat array each, and
``backward`` adds into an existing ``grad`` in place. A Tensor keeps the
dtype of a float input, so a graph computes in the dtype of its variables
(a model's parameters are float32, the oracles' inputs float64); any other
input becomes float64. A graph holds one dtype: an op over two promotes to
the wider, and the backward raises on the gradient it would cast back.
Only float64 GELU uses scipy (its `erf`, which the float64 oracles' bits
come from), and it imports `scipy.special` on first use: a float32 graph
runs on numpy alone and never loads it, about 25 MB of resident memory.

A variable, trainable or frozen, is ``Tensor(array)``. An operand passed as
a plain array is a constant: the op records it as no parent and computes
no gradient for it, so code that needs no gradient for an input passes its
array. Inference code should run inside ``no_grad()`` so no graph is
recorded.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (forward-only mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def recording() -> bool:
    """Whether ops record a graph: False inside `no_grad()`."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the leading axes numpy prepended when broadcasting an
    operand of `shape`; broadcasting along a size-1 axis is not supported."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    if grad.shape != shape:
        raise ValueError(f"cannot reduce a {grad.shape} gradient to an operand of "
                         f"shape {shape}: size-1 axes do not broadcast")
    return grad


class Tensor:
    """A float array node in the autodiff graph: a float input keeps its
    dtype, any other input becomes float64.

    `_backward` maps the upstream gradient of this node to a tuple of
    gradients for `_parents` (one entry per parent, same order).
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents: tuple = (), _backward: Callable | None = None):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        if _GRAD_ENABLED:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable parent.

        Visits each node exactly once, in reverse topological order. A
        gradient whose dtype is not its operand's is a TypeError.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            parent_grads = node._backward(node.grad)
            for parent, g in zip(node._parents, parent_grads):
                if g.dtype != parent.data.dtype:  # storing it would hide an upcast
                    raise TypeError(f"a {g.dtype} gradient for a {parent.data.dtype} "
                                    "operand: the graph mixes dtypes")
                if parent.grad is None:
                    # copied, never aliased: `add` hands one array to both parents
                    parent.grad = np.empty_like(parent.data)
                    np.copyto(parent.grad, g)
                else:
                    parent.grad += g

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)


def _data(x) -> np.ndarray:
    """A Tensor's array, or the constant `x` as given."""
    return x.data if isinstance(x, Tensor) else x


def _node(data, *operands) -> Tensor:
    """An op's output over `operands`, (operand, gradient function) pairs.

    While recording, its parents are the operands that are Tensors, and its
    backward maps the upstream gradient through their gradient functions.
    A plain-array operand is a constant: no parent, and its gradient
    function is never called.
    """
    out = Tensor(data)
    if _GRAD_ENABLED:
        variables = [(t, grad) for t, grad in operands if isinstance(t, Tensor)]
        if variables:
            out._parents = tuple(t for t, _ in variables)
            grads = [grad for _, grad in variables]
            out._backward = lambda g: [grad(g) for grad in grads]
    return out


# -- elementwise and shape ops ------------------------------------------


def add(a, b) -> Tensor:
    a_data, b_data = _data(a), _data(b)
    return _node(a_data + b_data,
                 (a, lambda g: _unbroadcast(g, a_data.shape)),
                 (b, lambda g: _unbroadcast(g, b_data.shape)))


def mul(a, b) -> Tensor:
    a_data, b_data = _data(a), _data(b)
    return _node(a_data * b_data,
                 (a, lambda g: _unbroadcast(g * b_data, a_data.shape)),
                 (b, lambda g: _unbroadcast(g * a_data, b_data.shape)))


def matmul(a, b) -> Tensor:
    a_data, b_data = _data(a), _data(b)
    return _node(np.matmul(a_data, b_data),
                 (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)),
                                            a_data.shape)),
                 (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g),
                                            b_data.shape)))


def reshape(a, shape) -> Tensor:
    a_data = _data(a)
    return _node(a_data.reshape(shape), (a, lambda g: g.reshape(a_data.shape)))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    datas = [_data(t) for t in tensors]
    ends = np.cumsum([d.shape[axis] for d in datas]).tolist()
    pieces = [(slice(None),) * (axis % datas[0].ndim) + (slice(end - d.shape[axis], end),)
              for d, end in zip(datas, ends)]
    return _node(np.concatenate(datas, axis=axis),
                 *[(t, lambda g, piece=piece: np.ascontiguousarray(g[piece]))
                   for t, piece in zip(tensors, pieces)])


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; backward pads the complement with zeros."""
    a_data = _data(a)
    idx = [slice(None)] * a_data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def back(g):
        full = np.zeros_like(a_data)
        full[idx] = g
        return full

    return _node(a_data[idx].copy(), (a, back))


def scatter_add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """target[rows[i]] += values[i] for every i, in place; a repeated row sums
    its values in order of occurrence, bit for bit as row-wise `np.add.at`.

    The rows go in as flat element indices, which take numpy's 1-D `ufunc.at`
    loop: 680 rows into a 260 x 64 float32 table take 0.17-0.19 ms against
    0.77-0.80 ms row by row. `target` must be C-contiguous.
    """
    if not target.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous target")
    width = math.prod(target.shape[1:])
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


def take_rows(a, indices) -> Tensor:
    """Row gather: out[i] = a[indices[i]]. Backward scatter-adds."""
    a_data = _data(a)
    idx = np.asarray(indices, dtype=np.intp)
    # one check for both ends: a negative index reads as a huge unsigned one
    if idx.size and np.maximum.reduce(idx.view(np.uintp)) >= a_data.shape[0]:
        raise IndexError(f"row index out of range for shape {a_data.shape}")

    def back(g):
        full = np.zeros_like(a_data)
        scatter_add_rows(full, idx, g)
        return full

    return _node(a_data[idx], (a, back))


def take_at(a, rows, cols) -> Tensor:
    """Elementwise gather from a 2-D tensor: out[i] = a[rows[i], cols[i]]."""
    a_data = _data(a)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def back(g):
        full = np.zeros_like(a_data)
        np.add.at(full, (rows, cols), g)
        return full

    return _node(a_data[rows, cols], (a, back))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a_data = _data(a)

    def back(g):
        if axis is None:
            return np.broadcast_to(g, a_data.shape).copy()
        g2 = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g2, a_data.shape).copy()

    return _node(a_data.sum(axis=axis, keepdims=keepdims), (a, back))


# -- nonlinearities ------------------------------------------------------


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# from here on exp(-a^2 / 2) is exactly 0 in float32 and in float64
_PDF_CLIP = 40.0

# The float32 erf rational of Eigen and XLA, erf(z) = z p(z^2) / q(z^2),
# highest power first.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


def _float32_constants(values) -> list[np.ndarray]:
    """0-d float32 arrays: a ufunc takes one in about 0.5 us against 0.75-0.95
    us for a numpy or Python scalar, and on a few rows the float32 GELU's 27
    ufunc calls are its cost."""
    return [np.array(v, np.float32) for v in values]


# The same rational in a = z sqrt(2), as the cdf 1/2 + a P(a^2) / Q(a^2):
# the power k of z^2 gains 2^-k, Q is made monic, and P carries 1/(2 sqrt(2))
# and Q's leading coefficient.
_Q_LEAD = _ERF_Q[0] * 0.5 ** (len(_ERF_Q) - 1)
_CDF_Q = _float32_constants(q * 0.5 ** (len(_ERF_Q) - 1 - i) / _Q_LEAD
                            for i, q in enumerate(_ERF_Q))
_CDF_P = _float32_constants(p * 0.5 ** (len(_ERF_P) - 1 - i) / (2.0 * _SQRT2 * _Q_LEAD)
                            for i, p in enumerate(_ERF_P))
# |a| is clipped at the largest float32 at which a P(a^2) / Q(a^2), evaluated
# in float32, equals 1/2 before it first exceeds 1/2 (at 5.099789): the cdf
# stays in [0, 1] and is exactly 0 and 1 beyond. The normal tail at the clip,
# 1.7e-7, is below the rational's own error.
_CDF_CLIP = 5.0997643
_LOW, _HIGH, _HALF = _float32_constants((-_CDF_CLIP, _CDF_CLIP, 0.5))


def _gelu_float32(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of a float32 array and its cdf, by the rational above, Horner in
    place: the output array and one a^2 array are the only scratch."""
    out = np.maximum(a, _LOW)
    np.minimum(out, _HIGH, out=out)
    sq = np.multiply(out, out)
    cdf = np.add(sq, _CDF_Q[1])
    for q in _CDF_Q[2:]:
        cdf *= sq
        cdf += q
    out /= cdf
    np.multiply(sq, _CDF_P[0], out=cdf)
    for p in _CDF_P[1:-1]:
        cdf += p
        cdf *= sq
    cdf += _CDF_P[-1]
    cdf *= out
    cdf += _HALF
    # below -_CDF_CLIP the cdf is 0; the clip turns -inf * 0 into -0, not NaN
    np.maximum(a, _LOW, out=out)
    out *= cdf
    return out, cdf


def gelu(a) -> Tensor:
    """Gaussian-error-function GELU, x Phi(x) (Hendrycks & Gimpel 2016).

    A float64 input takes its cdf from `scipy.special.erf`, so the float64
    oracles (finite differences, exhaustive CRF, the op-by-op encoder) keep
    its bits; scipy is imported there, on first use, so a float32 model never
    loads it. A float32 input takes its cdf from the float32 erf rational of
    Eigen and XLA, in numpy, because scipy's float32 erf widens to double and
    runs a scalar loop: on [rows, 256] inputs the rational is 3-5x faster
    from 133 to 2176 rows, breaks even at about 6 rows and is 2x slower on
    one row. It runs at every size, so a value does not depend on the rows
    sharing its call. Its cdf is no longer exact: it is within 2.4e-7 of the
    float64 cdf (scipy's float32 path: 6.2e-8) and stays in [0, 1]. In both
    dtypes GELU is +inf and -0 at +-inf and no value warns. The backward is
    the analytic formula in the input's dtype, its pdf term taken at the
    input clipped to +-40, where that term is 0 in either dtype: the
    gradient is 1 and 0 at +-inf and the square does not overflow.
    """
    a_data = _data(a)
    if a_data.dtype == np.float32:
        out, cdf = _gelu_float32(a_data)
    else:
        from scipy.special import erf

        cdf = a_data / _SQRT2
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        # below -40 the cdf is 0; the clip turns -inf * 0 into -0, not NaN
        out = np.maximum(a_data, -_PDF_CLIP) * cdf

    def back(g):  # g * (cdf + a * pdf), pdf = exp(-a * a / 2) / sqrt(2 pi)
        a_in = np.maximum(a_data, -_PDF_CLIP)
        np.minimum(a_in, _PDF_CLIP, out=a_in)
        d = np.multiply(a_in, -0.5)
        d *= a_in
        with np.errstate(under="ignore"):  # a pdf that rounds to 0 is no error
            np.exp(d, out=d)
            d *= _INV_SQRT_2PI
            d *= a_in
        d += cdf
        d *= g
        return d

    return _node(out, (a, back))


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`."""
    a_data = _data(a)
    y = a_data - np.maximum.reduce(a_data, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return y * (g - dot)

    return _node(y, (a, back))


def log_sum_exp(a, axis: int) -> Tensor:
    """log(sum(exp(a))) along `axis`, which is dropped from the result;
    computed as m + log(sum(exp(a - m))), m = max(a) along `axis`."""
    a_data = _data(a)
    if a_data.size == 0:
        raise ValueError("log_sum_exp of an empty tensor")
    m = a_data.max(axis=axis, keepdims=True)
    e = np.exp(a_data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = np.squeeze(m + np.log(s), axis=axis)
    return _node(out, (a, lambda g: e / s * np.expand_dims(g, axis)))


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Each mean is one add-reduction divided in place by the row width, the
    steps of np.mean and np.var without their Python wrappers.
    """
    a_data, gain_data, bias_data = _data(a), _data(gain), _data(bias)
    width = a_data.shape[-1]
    mean = np.add.reduce(a_data, axis=-1, keepdims=True)
    mean /= width
    xhat = a_data - mean
    # the variance, then 1 / sqrt(variance + eps), in one buffer
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    inv /= width
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    y = xhat * gain_data
    y += bias_data

    def back_a(g):
        gxhat = g * gain_data
        mean_g = np.add.reduce(gxhat, axis=-1, keepdims=True)
        mean_g /= width
        mean_gx = np.add.reduce(gxhat * xhat, axis=-1, keepdims=True)
        mean_gx /= width
        gxhat -= mean_g
        gxhat -= xhat * mean_gx
        gxhat *= inv
        return gxhat

    return _node(y, (a, back_a),
                 (gain, lambda g: _unbroadcast(g * xhat, gain_data.shape)),
                 (bias, lambda g: _unbroadcast(g, bias_data.shape)))
