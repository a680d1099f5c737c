"""Tag prediction heads: linear, linear-chain CRF, and a BiLSTM feature layer.

Emission matrices are [tokens x labels]. The CRF keeps a learned transition
matrix over labels plus virtual START/STOP states; its negative
log-likelihood is built from autodiff primitives, so gradients come from
the same tape as the rest of the network.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import OUTSIDE, TagScheme, may_follow, split_tag


def _scores(emissions) -> np.ndarray:
    return emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions)


class CrfParams:
    """Label-transition scores with virtual START/STOP states.

    transitions[i, j] scores moving from label i to label j; row START
    scores path starts and column STOP scores path ends. Transitions into
    START and out of STOP are never read.
    """

    def __init__(self, num_labels: int, rng: np.random.Generator | None = None):
        self.num_labels = num_labels
        size = num_labels + 2
        if rng is None:
            data = np.zeros((size, size))
        else:
            data = rng.uniform(-0.1, 0.1, size=(size, size))
        self.transitions = Tensor(data)

    @property
    def start(self) -> int:
        return self.num_labels

    @property
    def stop(self) -> int:
        return self.num_labels + 1

    def constrain(self, labels: list[str], penalty: float = -1e4) -> None:
        """Mask transition scores for label bigrams invalid under BIOES."""
        split = [split_tag(label) for label in labels]
        boundary = split_tag(OUTSIDE)
        sources = [(self.start, boundary)] + list(enumerate(split))
        targets = list(enumerate(split)) + [(self.stop, boundary)]
        t = self.transitions.data
        for i, src in sources:
            for j, dst in targets:
                if not may_follow(src, dst, TagScheme.BIOES):
                    t[i, j] = penalty


def linear_head(token_reps: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map from token representations to per-label emission scores."""
    if token_reps.shape[-1] != weights.shape[0]:
        raise ValueError(f"representation width {token_reps.shape[-1]} does not "
                         f"match head weights {weights.shape}")
    return token_reps @ weights + bias


def greedy_decode(emissions) -> list[int]:
    """Per-token argmax labels; ties resolve to the lowest label index."""
    scores = _scores(emissions)
    if scores.shape[0] == 0:
        raise ValueError("cannot decode an empty emission matrix")
    return [int(i) for i in scores.argmax(axis=1)]


def softmax_nll(emissions: Tensor, gold: list[int]) -> Tensor:
    """Sum of per-token softmax cross-entropies against the gold labels."""
    n, num_labels = emissions.shape
    gold = _check_gold(gold, n, num_labels)
    lse = ad.log_sum_exp(emissions, axis=1)
    picked = ad.take_at(emissions, np.arange(n), gold)
    return ad.tsum(lse) - ad.tsum(picked)


def crf_log_z(emissions: Tensor, crf: CrfParams) -> Tensor:
    """Log partition over all label paths (forward algorithm, log space)."""
    emissions = ad.as_tensor(emissions)
    n, num_labels = emissions.shape
    if n == 0:
        raise ValueError("forward algorithm needs a non-empty sequence")
    if num_labels != crf.num_labels:
        raise ValueError("emission width does not match the CRF label count")
    trans = crf.transitions
    core = ad.narrow(ad.narrow(trans, 0, 0, num_labels), 1, 0, num_labels)
    start_row = ad.narrow(ad.take_rows(trans, [crf.start]), 1, 0, num_labels)
    stop_col = ad.reshape(
        ad.take_at(trans, np.arange(num_labels), np.full(num_labels, crf.stop)),
        (1, num_labels))

    alpha = start_row + ad.take_rows(emissions, [0])  # [1, L]
    for t in range(1, n):
        scores = ad.reshape(alpha, (num_labels, 1)) + core
        alpha = ad.reshape(ad.log_sum_exp(scores, axis=0), (1, num_labels)) \
            + ad.take_rows(emissions, [t])
    return ad.log_sum_exp(alpha + stop_col)


def crf_gold_score(emissions: Tensor, gold, crf: CrfParams) -> Tensor:
    """Unnormalized score of one path: emissions plus START->...->STOP transitions."""
    emissions = ad.as_tensor(emissions)
    n, num_labels = emissions.shape
    gold = _check_gold(gold, n, num_labels)
    rows = np.concatenate([[crf.start], gold])
    cols = np.concatenate([gold, [crf.stop]])
    return ad.tsum(ad.take_at(emissions, np.arange(n), gold)) \
        + ad.tsum(ad.take_at(crf.transitions, rows, cols))


def crf_nll(emissions: Tensor, gold: list[int], crf: CrfParams) -> Tensor:
    """CRF negative log-likelihood: log Z - score(gold path)."""
    return crf_log_z(emissions, crf) - crf_gold_score(emissions, gold, crf)


def path_score(emissions, path: list[int], crf: CrfParams) -> float:
    """Plain-float path score for oracles and decoding checks."""
    with ad.no_grad():
        return float(crf_gold_score(ad.as_tensor(_scores(emissions)), path, crf).data)


def viterbi(emissions, crf: CrfParams) -> tuple[list[int], float]:
    """Highest-scoring label path and its score.

    Ties break toward the lowest label index at every backtracking step.
    """
    scores = _scores(emissions)
    n, num_labels = scores.shape
    if n == 0:
        raise ValueError("cannot decode an empty emission matrix")
    trans = crf.transitions.data
    core = trans[:num_labels, :num_labels]

    delta = trans[crf.start, :num_labels] + scores[0]
    backptr = np.empty((n, num_labels), dtype=np.intp)
    for t in range(1, n):
        cand = delta[:, None] + core  # [from, to]
        backptr[t] = cand.argmax(axis=0)
        delta = cand.max(axis=0) + scores[t]
    final = delta + trans[:num_labels, crf.stop]
    last = int(final.argmax())
    best = [last]
    for t in range(n - 1, 0, -1):
        last = int(backptr[t, last])
        best.append(last)
    best.reverse()
    return best, float(final.max())


def _check_gold(gold, n: int, num_labels: int) -> np.ndarray:
    gold = np.asarray(gold, dtype=np.intp)
    if gold.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {gold.shape}")
    if gold.size and (gold.min() < 0 or gold.max() >= num_labels):
        raise ValueError("label index out of range")
    return gold


class BiLstmParams:
    """Gate weights for a single-layer bidirectional LSTM.

    Each direction packs its input/recurrent weights as [*, 4H] with gate
    order (input, forget, cell, output). Output width is 2H.
    """

    def __init__(self, input_dim: int, hidden: int = 256,
                 rng: np.random.Generator | None = None):
        self.input_dim = input_dim
        self.hidden = hidden
        k = 1.0 / np.sqrt(hidden)

        def init(*shape):
            if rng is None:
                return Tensor(np.zeros(shape))
            return Tensor(rng.uniform(-k, k, size=shape))

        self.params: dict[str, Tensor] = {}
        for d in ("fw", "bw"):
            self.params[f"{d}.w"] = init(input_dim, 4 * hidden)
            self.params[f"{d}.u"] = init(hidden, 4 * hidden)
            bias = np.zeros(4 * hidden)
            bias[hidden:2 * hidden] = 1.0  # forget-gate bias
            self.params[f"{d}.b"] = Tensor(bias)

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())


def _lstm_direction(features: Tensor, w: Tensor, u: Tensor, b: Tensor,
                    hidden: int, order: range) -> list[Tensor]:
    pre_all = features @ w  # input contributions, computed in one matmul
    h = ad.constant(np.zeros((1, hidden)))
    c = ad.constant(np.zeros((1, hidden)))
    outputs: dict[int, Tensor] = {}
    for t in order:
        pre = ad.take_rows(pre_all, [t]) + h @ u + b
        i = ad.sigmoid(ad.narrow(pre, 1, 0, hidden))
        f = ad.sigmoid(ad.narrow(pre, 1, hidden, hidden))
        g = ad.tanh(ad.narrow(pre, 1, 2 * hidden, hidden))
        o = ad.sigmoid(ad.narrow(pre, 1, 3 * hidden, hidden))
        c = f * c + i * g
        h = o * ad.tanh(c)
        outputs[t] = h
    return [outputs[t] for t in range(len(outputs))]


def bilstm_forward(features: Tensor, params: BiLstmParams) -> Tensor:
    """Run both LSTM directions from zero states; concatenate per token."""
    n = features.shape[0]
    if n == 0:
        raise ValueError("bilstm_forward needs a non-empty sequence")
    p = params.params
    fw = _lstm_direction(features, p["fw.w"], p["fw.u"], p["fw.b"],
                         params.hidden, range(n))
    bw = _lstm_direction(features, p["bw.w"], p["bw.u"], p["bw.b"],
                         params.hidden, range(n - 1, -1, -1))
    return ad.concat([ad.concat(fw, axis=0), ad.concat(bw, axis=0)], axis=1)
