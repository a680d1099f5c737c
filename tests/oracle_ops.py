"""Autodiff ops that only the test oracles use.

The fused LSTM op in `docner.tagger` computes its gates in numpy, so the
program itself needs no sigmoid, tanh or mean node; the per-timestep
reference LSTM and the gradient-check table build their graphs from these.
"""

import numpy as np
from scipy import special

from docner import autodiff as ad
from docner.autodiff import Tensor


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = ad.as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return ad.mul(ad.tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def sigmoid(a: Tensor) -> Tensor:
    a = ad.as_tensor(a)
    y = special.expit(a.data)
    return Tensor(y, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    a = ad.as_tensor(a)
    y = np.tanh(a.data)
    return Tensor(y, (a,), lambda g: (g * (1.0 - y * y),))
