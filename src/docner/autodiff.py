"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation builds a node graph: each :class:`Tensor` produced by an op
keeps references to its parents together with a gradient closure. Calling
``backward()`` on a scalar walks the recorded graph once, in reverse
topological order, accumulating gradients into ``.grad``.

The engine is deliberately small: dense float64 arrays only, no views into
shared storage, no in-place ops on tracked tensors. A leaf, trainable or
frozen, is ``Tensor(array)``; ops also accept plain arrays and wrap them
as leaves. Inference code should run inside ``no_grad()`` so no graph is
recorded.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as _special

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


def grad_enabled() -> bool:
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
    """A float64 array node in the autodiff graph.

    `_backward` maps the upstream gradient of this node to a tuple of
    gradients for `_parents` (one entry per parent, same order).
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents: tuple = (), _backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable parent.

        Visits each node exactly once, in reverse topological order.
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- elementwise and shape ops ------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data * b.data, (a, b),
                  lambda g: (_unbroadcast(g * b.data, a.data.shape),
                             _unbroadcast(g * a.data, b.data.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return Tensor(np.matmul(a.data, b.data), (a, b), back)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), back)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; backward pads the complement with zeros."""
    a = as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def back(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return Tensor(a.data[idx].copy(), (a,), back)


def take_rows(a: Tensor, indices) -> Tensor:
    """Row gather: out[i] = a[indices[i]]. Backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"row index out of range for shape {a.data.shape}")

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor(a.data[idx], (a,), back)


def take_at(a: Tensor, rows, cols) -> Tensor:
    """Elementwise gather from a 2-D tensor: out[i] = a[rows[i], cols[i]]."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, cols), g)
        return (full,)

    return Tensor(a.data[rows, cols], (a,), back)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).copy(),)

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


# -- nonlinearities ------------------------------------------------------


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-function GELU."""
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + _special.erf(a.data / _SQRT2))
    y = a.data * cdf

    def back(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return (g * (cdf + a.data * pdf),)

    return Tensor(y, (a,), back)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, (a,), back)


def log_sum_exp(a: Tensor, axis: int) -> Tensor:
    """log(sum(exp(a))) along `axis`, which is dropped from the result;
    computed as m + log(sum(exp(a - m))), m = max(a) along `axis`."""
    a = as_tensor(a)
    if a.data.size == 0:
        raise ValueError("log_sum_exp of an empty tensor")
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = np.squeeze(m + np.log(s), axis=axis)
    return Tensor(out, (a,), lambda g: (e / s * np.expand_dims(g, axis),))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    d = a.data - a.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((d * d).mean(axis=-1, keepdims=True) + eps)  # np.var's steps
    xhat = d * inv
    y = xhat * gain.data + bias.data

    def back(g):
        gxhat = g * gain.data
        dx = inv * (gxhat
                    - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        ggain = _unbroadcast(g * xhat, gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        return dx, ggain, gbias

    return Tensor(y, (a, gain, bias), back)


# -- gradient checking ---------------------------------------------------


def grad_check(f: Callable[[], Tensor], params: Iterable[Tensor],
               epsilon: float = 1e-5) -> float:
    """Compare tape gradients of scalar `f()` to central finite differences.

    Perturbs every element of every parameter by ±epsilon and returns the
    maximum relative error, with denominator max(|analytic|, |numeric|, 1e-8).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    params = list(params)
    out = f()
    if not np.isfinite(out.data).all():
        raise FloatingPointError("grad_check: objective is not finite")
    for p in params:
        p.grad = None
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    max_err = 0.0
    with no_grad():
        for p, ana in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = ana.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                f_plus = float(f().data)
                flat[i] = orig - epsilon
                f_minus = float(f().data)
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * epsilon)
                denom = max(abs(aflat[i]), abs(numeric), 1e-8)
                err = abs(aflat[i] - numeric) / denom
                if err > max_err:
                    max_err = err
    return max_err
