"""Tag prediction heads: linear, linear-chain CRF, and a BiLSTM feature layer.

Emission matrices are [tokens x labels]. The CRF keeps a learned transition
matrix over labels plus virtual START/STOP states. Two sequence ops are
single graph nodes with a hand-written backward: the CRF log partition
(forward algorithm; its gradient is the label marginals from the
forward-backward algorithm) and each LSTM direction (backpropagation
through time). The gold-path score, the linear head and the joins around
them are ordinary autodiff ops on the same tape.

Losses take emission Tensors and record a graph; the decoders
(`greedy_decode`, `viterbi`, `path_score`) take plain score arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import OUTSIDE, TagScheme, may_follow, split_tag


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


def greedy_decode(scores: np.ndarray) -> list[int]:
    """Per-token argmax labels; ties resolve to the lowest label index."""
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
    """Log partition over all label paths (forward algorithm, log space).

    One graph node over (emissions, transitions). Its backward runs the beta
    recursion and writes the label marginals: unary ones into the emission
    gradient, pairwise ones into transitions[:L, :L], first-token ones into
    row START and last-token ones into column STOP.
    """
    n, num_labels = emissions.shape
    if n == 0:
        raise ValueError("forward algorithm needs a non-empty sequence")
    if num_labels != crf.num_labels:
        raise ValueError("emission width does not match the CRF label count")
    e = emissions.data
    trans = crf.transitions.data
    core = trans[:num_labels, :num_labels]
    stop = trans[:num_labels, crf.stop]

    alphas = np.empty((n, num_labels))
    alphas[0] = trans[crf.start, :num_labels] + e[0]
    for t in range(1, n):
        scores = alphas[t - 1][:, None] + core  # [from, to]
        m = scores.max(axis=0)
        alphas[t] = m + np.log(np.exp(scores - m).sum(axis=0)) + e[t]
    final = alphas[-1] + stop
    m = final.max()
    log_z = m + np.log(np.exp(final - m).sum())

    def back(g):
        betas = np.empty((n, num_labels))
        betas[-1] = stop
        ahead = np.empty((n - 1, num_labels))  # e[t + 1] + betas[t + 1]
        for t in range(n - 2, -1, -1):
            ahead[t] = e[t + 1] + betas[t + 1]
            scores = core + ahead[t]  # [from, to]
            m = scores.max(axis=1)
            betas[t] = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
        unary = np.exp(alphas + betas - log_z)
        d_trans = np.zeros_like(trans)
        d_trans[:num_labels, :num_labels] = np.exp(
            alphas[:-1, :, None] + core + ahead[:, None, :] - log_z).sum(axis=0)
        d_trans[crf.start, :num_labels] = unary[0]
        d_trans[:num_labels, crf.stop] = unary[-1]
        return g * unary, g * d_trans

    return Tensor(log_z, (emissions, crf.transitions), back)


def crf_gold_score(emissions: Tensor, gold, crf: CrfParams) -> Tensor:
    """Unnormalized score of one path: emissions plus START->...->STOP transitions."""
    n, num_labels = emissions.shape
    gold = _check_gold(gold, n, num_labels)
    rows = np.concatenate([[crf.start], gold])
    cols = np.concatenate([gold, [crf.stop]])
    return ad.tsum(ad.take_at(emissions, np.arange(n), gold)) \
        + ad.tsum(ad.take_at(crf.transitions, rows, cols))


def crf_nll(emissions: Tensor, gold: list[int], crf: CrfParams) -> Tensor:
    """CRF negative log-likelihood: log Z - score(gold path)."""
    return crf_log_z(emissions, crf) - crf_gold_score(emissions, gold, crf)


def path_score(scores: np.ndarray, path: list[int], crf: CrfParams) -> float:
    """Plain-float path score for oracles and decoding checks."""
    with ad.no_grad():
        return float(crf_gold_score(Tensor(scores), path, crf).data)


def viterbi(scores: np.ndarray, crf: CrfParams) -> tuple[list[int], float]:
    """Highest-scoring label path and its score.

    Ties break toward the lowest label index at every backtracking step.
    """
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
        if hidden < 1:
            raise ValueError(f"bilstm_hidden must be a positive size, got {hidden}")
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
                    hidden: int, order: range) -> Tensor:
    """One LSTM direction from zero states, stepping through `order`.

    A single graph node over (features @ w, u, b) whose backward is
    backpropagation through time; row t of the output is the hidden state
    after step t. Under no_grad the node drops its backward and the
    activations it stored with it.
    """
    pre_all = features @ w  # input contributions, computed in one matmul
    n = pre_all.shape[0]
    x, u_data, b_data = pre_all.data, u.data, b.data
    h = np.zeros((1, hidden))
    c = np.zeros((1, hidden))
    gates = np.empty((n, 4 * hidden))  # activations, gate order (i, f, g, o)
    cells = np.empty((n, hidden))
    out = np.empty((n, hidden))
    cell_gate = slice(2 * hidden, 3 * hidden)
    for t in order:
        pre = x[t:t + 1] + h @ u_data + b_data
        act = expit(pre)
        act[:, cell_gate] = np.tanh(pre[:, cell_gate])
        i, f, g, o = (act[:, k * hidden:(k + 1) * hidden] for k in range(4))
        c = f * c + i * g
        h = o * np.tanh(c)
        gates[t], cells[t], out[t] = act, c, h

    def back(d_out):
        h_prev = np.zeros_like(out)
        c_prev = np.zeros_like(cells)
        h_prev[order[1:]] = out[order[:-1]]
        c_prev[order[1:]] = cells[order[:-1]]
        i, f, g, o = (gates[:, k * hidden:(k + 1) * hidden] for k in range(4))
        tanh_c = np.tanh(cells)
        # d pre = d act * act'(pre): the i, f, g columns scale with d c,
        # the o columns with d h
        by_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                          i * (1.0 - g * g)], axis=1)  # [n, 3, H]
        by_dh = tanh_c * o * (1.0 - o)
        dc_by_dh = o * (1.0 - tanh_c * tanh_c)
        d_pre = np.empty((n, 4 * hidden))
        u_t = u_data.T
        dh_rec = np.zeros(hidden)
        dc = np.zeros(hidden)
        f_next = np.zeros(hidden)
        for t in reversed(order):
            dh = d_out[t] + dh_rec
            dc = dc * f_next + dh * dc_by_dh[t]
            d_pre[t, :3 * hidden] = (by_dc[t] * dc).reshape(-1)
            d_pre[t, 3 * hidden:] = dh * by_dh[t]
            dh_rec = d_pre[t] @ u_t
            f_next = f[t]
        return d_pre, h_prev.T @ d_pre, d_pre.sum(axis=0)

    return Tensor(out, (pre_all, u, b), back)


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
    return ad.concat([fw, bw], axis=1)
