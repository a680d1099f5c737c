"""Tag prediction heads: linear, linear-chain CRF, and a BiLSTM feature layer.

Emission matrices are [tokens x labels]; a batch holds its sentences' rows
one after another, in input order. The CRF keeps a learned transition
matrix over labels plus virtual START/STOP states.

The sequence ops step all sentences of a batch together, in the packed
layout of a `Packing` built once per batch from the sentence lengths.
Sentences are sorted longest first (stable), so the sentences still
running at step t are the first k_t of that order. Packed rows are time
major: step 0's k_0 rows, then step 1's k_1 rows, and so on, which is the
[n_max, B] grid of (step, sentence) without its padding. Each op gathers
its inputs into that layout once, steps through contiguous slices of it,
and scatters its results back to the flat rows. Every recursion carries
its state one way: the k_t sentences of step t are the first k_t rows of
step t - 1, so a step reads its predecessor (going backward, its
successor) from the packed array it writes, and each sentence's last step
sits at its `Packing.last` row. No row of a running sentence ever reads a
row of one that has ended, so there are no masks. A batch of one sentence
is the per-sentence arithmetic, bit for bit.

The CRF log partition (forward algorithm; its gradient is the label
marginals from the forward-backward algorithm) and the BiLSTM (both
directions stepped together; backpropagation through time) are one graph
node per batch with a hand-written backward, and Viterbi decodes a batch
in one pass. The BiLSTM projects each direction's gathered input rows
straight into that direction's packed gate rows, which the activations
then overwrite; its input is a constant, so its node's parents are the two
directions' w, u and b. In float32 the gate activations are one `np.tanh`
per step, the sigmoid gates as 1/2 + 1/2 tanh(x / 2), so a float32 model
runs on numpy alone; float64 gates use `scipy.special.expit`, imported on
first use, bit for bit as the per-timestep oracle. The gold-path score and
the linear head are ordinary autodiff ops on the same tape.

Losses take emission Tensors and record a graph; the decoders
(`greedy_decode`, `viterbi`) take plain score arrays.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

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


def linear_head(token_reps, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map from token representations, a Tensor or a constant array,
    to per-label emission scores."""
    if token_reps.shape[-1] != weights.shape[0]:
        raise ValueError(f"representation width {token_reps.shape[-1]} does not "
                         f"match head weights {weights.shape}")
    return ad.matmul(token_reps, weights) + bias


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


class Packing:
    """The sentences of one batch, stepped together longest first.

    `lengths` are the sentences' token counts in input order; each one's
    rows are consecutive in the flat [T, ...] inputs. `order` lists the
    input indices longest first (ties keep input order) and `sorted_lengths`
    their lengths. Step t runs the first bounds[t + 1] - bounds[t] sentences
    of that order, at packed rows bounds[t]:bounds[t + 1], so the sentences
    of step t are the first rows of step t - 1: a recursion reads the step
    before (or after) a row from the packed array it writes.

    For every packed row, `forward` holds the flat row it reads going
    forward and `backward` the one it reads going backward, where each
    sentence starts at its own last token. `last[r]` is the packed row of
    the last step of sentence `order[r]`. Only a backward pass reads `rank`,
    the place in `order` of each packed row's sentence, and `previous`, the
    packed row of the same sentence one step earlier for each packed row
    after step 0, so they are built on first use.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        order = np.argsort(-lengths, kind="stable")
        sorted_lengths = lengths[order]
        if not len(order) or sorted_lengths[-1] < 1:
            raise ValueError("a batch needs at least one sentence, and every "
                             "sentence at least one token")
        # the [n_max, B] grid of (step, sentence), time major; a sentence
        # runs at the steps before its length
        steps = np.arange(sorted_lengths[0])[:, None]
        running = steps < sorted_lengths
        ends = np.add.accumulate(lengths)[order]  # one past each sentence's last flat row
        self.forward = (steps + (ends - sorted_lengths))[running]
        self.backward = (ends - 1 - steps)[running]
        sizes = np.add.reduce(running, axis=1)
        starts = np.add.accumulate(sizes) - sizes  # of each step's packed rows
        self.last = starts[sorted_lengths - 1] + np.arange(len(order))
        self.order, self.sorted_lengths = order.tolist(), sorted_lengths.tolist()
        self.bounds = [*starts.tolist(), len(self.forward)]

    @property
    def rows(self) -> int:
        return self.bounds[-1]

    @cached_property
    def rank(self) -> np.ndarray:
        bounds = np.asarray(self.bounds)
        return np.arange(self.rows) - np.repeat(bounds[:-1], np.diff(bounds))

    @cached_property
    def previous(self) -> np.ndarray:
        bounds = np.asarray(self.bounds)
        return np.repeat(bounds[:-2], np.diff(bounds[1:])) + self.rank[self.bounds[1]:]


def _check_shape(x: np.ndarray, rows: int, crf: CrfParams | None = None) -> None:
    """Raise unless `x` has `rows` rows and, given a CRF, one column per
    label: a wider matrix would decode START/STOP as labels."""
    if x.shape[0] != rows:
        raise ValueError(f"{x.shape[0]} rows do not match the batch's {rows} tokens")
    if crf is not None and x.shape[1] != crf.num_labels:
        raise ValueError("emission width does not match the CRF label count")


def crf_log_z(emissions: Tensor, packing: Packing, crf: CrfParams) -> Tensor:
    """Summed log partition of a batch's sentences over all their label
    paths (forward algorithm, log space).

    One graph node over (emissions, transitions). Its backward runs the beta
    recursion and writes the label marginals: unary ones into the emission
    gradient, pairwise ones into transitions[:L, :L], first-token ones into
    row START and last-token ones into column STOP.
    """
    _check_shape(emissions.data, packing.rows, crf)
    num_labels = crf.num_labels
    e = emissions.data[packing.forward]  # packed
    trans = crf.transitions.data
    core = trans[:num_labels, :num_labels]
    stop = trans[:num_labels, crf.stop]
    bounds, last = packing.bounds, packing.last
    first = bounds[1]  # rows of step 0: one per sentence

    alphas = np.empty_like(e)
    alphas[:first] = trans[crf.start, :num_labels] + e[:first]
    for before, a, z in zip(bounds, bounds[1:-1], bounds[2:]):
        scores = alphas[before:before + z - a, :, None] + core  # [sentence, from, to]
        m = scores.max(axis=1)
        alphas[a:z] = m + np.log(np.exp(scores - m[:, None]).sum(axis=1)) + e[a:z]
    final = alphas[last] + stop
    m = final.max(axis=1)
    log_z = m + np.log(np.exp(final - m[:, None]).sum(axis=1))  # per sentence

    def back(g):
        betas = np.empty_like(e)
        betas[last] = stop
        for t in range(len(bounds) - 3, -1, -1):
            a, z = bounds[t + 1], bounds[t + 2]
            ahead = e[a:z] + betas[a:z]
            scores = core + ahead[:, None]  # [sentence, from, to]
            m = scores.max(axis=2)
            betas[bounds[t]:bounds[t] + z - a] = \
                m + np.log(np.exp(scores - m[:, :, None]).sum(axis=2))
        row_log_z = log_z[packing.rank][:, None]
        unary = np.exp(alphas + betas - row_log_z)
        ahead = e[first:] + betas[first:]
        d_trans = np.zeros_like(trans)
        d_trans[:num_labels, :num_labels] = np.exp(
            alphas[packing.previous][:, :, None] + core + ahead[:, None, :]
            - row_log_z[first:, :, None]).sum(axis=0)
        d_trans[crf.start, :num_labels] = unary[:first].sum(axis=0)
        d_trans[:num_labels, crf.stop] = unary[last].sum(axis=0)
        d_emissions = np.empty_like(e)
        d_emissions[packing.forward] = g * unary
        return d_emissions, g * d_trans

    return Tensor(log_z.sum(), (emissions, crf.transitions), back)


def path_transitions(gold: np.ndarray, lengths, crf: CrfParams):
    """(from, to) labels of every transition on the paths of sentences whose
    labels `gold` holds one after another: sentence after sentence, START ->
    its first label, ..., its last label -> STOP."""
    # token t of sentence i moves to slot t + i, after the i transitions
    # into STOP of the sentences before it
    slots = np.arange(len(gold)) + np.repeat(np.arange(len(lengths)), lengths)
    rows = np.full(len(gold) + len(lengths), crf.start)
    rows[slots + 1] = gold
    cols = np.full(len(gold) + len(lengths), crf.stop)
    cols[slots] = gold
    return rows, cols


def crf_gold_score(emissions: Tensor, golds, crf: CrfParams) -> Tensor:
    """Summed unnormalized score of each sentence's path in `golds`:
    emissions plus START->...->STOP transitions."""
    n = sum(len(path) for path in golds)
    _check_shape(emissions.data, n, crf)
    gold = _check_gold([i for path in golds for i in path], n, crf.num_labels)
    rows, cols = path_transitions(gold, [len(path) for path in golds], crf)
    return ad.tsum(ad.take_at(emissions, np.arange(n), gold)) \
        + ad.tsum(ad.take_at(crf.transitions, rows, cols))


def crf_nll(emissions: Tensor, golds: list[list[int]], packing: Packing,
            crf: CrfParams) -> Tensor:
    """Summed CRF negative log-likelihood of a batch: log Z - score(gold
    path) of each sentence, the rows of sentence i holding `golds[i]`;
    `packing` is the batch's, built from the lengths of `golds`."""
    if [len(golds[i]) for i in packing.order] != packing.sorted_lengths:
        raise ValueError("the packing does not hold the gold paths' lengths")
    return crf_log_z(emissions, packing, crf) - crf_gold_score(emissions, golds, crf)


def viterbi(scores: np.ndarray, packing: Packing,
            crf: CrfParams) -> tuple[list[list[int]], list[float]]:
    """Each sentence's highest-scoring label path and its score, in input order.

    Like `crf_log_z`, a step reads its predecessors' deltas from the packed
    rows it writes, and the STOP transition reads each sentence's last
    step at `packing.last`. Ties break toward the lowest label index at
    every backtracking step.
    """
    _check_shape(scores, packing.rows, crf)
    num_labels = crf.num_labels
    trans = crf.transitions.data
    into = trans[:num_labels, :num_labels].T.copy()  # [to, from], contiguous
    s = scores[packing.forward]  # packed
    bounds = packing.bounds

    deltas = np.empty_like(s)
    deltas[:bounds[1]] = trans[crf.start, :num_labels] + s[:bounds[1]]
    from_rows = deltas[:, None, :]
    backptr = np.empty(s.shape, dtype=np.intp)
    for before, a, z in zip(bounds, bounds[1:-1], bounds[2:]):
        # [sentence, to, from]: max and argmax run along contiguous rows
        cand = from_rows[before:before + z - a] + into
        backptr[a:z] = cand.argmax(axis=2)
        np.add(np.maximum.reduce(cand, axis=2), s[a:z], out=deltas[a:z])
    final = deltas[packing.last] + trans[:num_labels, crf.stop]

    pointers = backptr.tolist()
    paths: list[list[int]] = [[] for _ in packing.order]
    best = [0.0] * len(paths)
    for r, (i, n, last, row) in enumerate(zip(packing.order, packing.sorted_lengths,
                                              final.argmax(axis=1).tolist(),
                                              final.tolist())):
        best[i] = row[last]
        path = paths[i]
        path.append(last)
        for t in range(n - 1, 0, -1):
            last = pointers[bounds[t] + r][last]
            path.append(last)
        path.reverse()
    return paths, best


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

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator):
        if hidden < 1:
            raise ValueError(f"bilstm_hidden must be a positive size, got {hidden}")
        self.hidden = hidden
        k = 1.0 / np.sqrt(hidden)

        def init(*shape):
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


@cache
def _sigmoid_as_tanh(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, shift) over the [4H] gate columns: sigmoid(x) = 1/2 +
    1/2 tanh(x / 2) on the i, f and o gates, and the cell gate g is tanh(x)."""
    scale = np.full(4 * hidden, 0.5, np.float32)
    shift = np.full(4 * hidden, 0.5, np.float32)
    scale[2 * hidden:3 * hidden] = 1.0
    shift[2 * hidden:3 * hidden] = 0.0
    scale.flags.writeable = shift.flags.writeable = False  # shared by every call
    return scale, shift


def _activate_gates(pre: np.ndarray, act: np.ndarray) -> None:
    """The LSTM gate activations of pre-activations [..., 4H] (gate order i,
    f, g, o) into `act`: sigmoid on i, f and o, tanh on g. `pre` is scratch.

    float32 takes one `np.tanh` over every gate, sigmoid as 1/2 + 1/2
    tanh(x / 2): within 6.5e-8 of the float64 sigmoid and tanh, exactly 0 and
    1 at -inf and +inf, and on a [42, 2, 256] step 2.5-4x faster than scipy's
    float32 `expit`, which widens to double and runs a scalar loop. float64
    keeps `scipy.special.expit`, bit for bit the per-timestep oracle's; scipy
    is imported there, on first use.
    """
    hidden = pre.shape[-1] // 4
    if pre.dtype == np.float32:
        scale, shift = _sigmoid_as_tanh(hidden)
        pre *= scale
        np.tanh(pre, out=act)
        act *= scale
        act += shift
    else:
        from scipy.special import expit

        cell_gate = slice(2 * hidden, 3 * hidden)
        expit(pre, out=act)
        np.tanh(pre[..., cell_gate], out=act[..., cell_gate])


def bilstm_forward(features: np.ndarray, packing: Packing, params: BiLstmParams) -> Tensor:
    """Both LSTM directions from zero states over every sentence of a batch;
    a token's output row is its forward then its backward hidden state.

    The forward direction reads the packed rows `packing.forward`, the
    backward one `packing.backward`; both step together, since step t runs
    the same sentences in each. Packed arrays are [packed row, direction,
    ...], so a step's rows, and the rows of the step before it that it
    reads, are one contiguous block for both directions. Each direction
    projects its gathered input rows straight into its own gate columns; a
    step adds them to h @ u in a scratch block, and the activations then
    overwrite them. A step reads its predecessors' hidden states and cells
    from the packed rows it writes, and backpropagation through time reads
    its successors' gradients the same way; step 0 starts from zero states.
    A single graph node over (w, u, b) of both directions; `features` is a
    constant array, with no gradient. Under no_grad the node drops its
    backward and the activations it stored with it.
    """
    p, hidden = params.params, params.hidden
    _check_shape(features, packing.rows)
    rows = (packing.forward, packing.backward)
    bounds, size = packing.bounds, packing.rows
    w_fw, w_bw = p["fw.w"].data, p["bw.w"].data
    dtype = w_fw.dtype  # of every buffer below
    # the inputs' projections, until the activations (gate order i, f, g, o)
    # overwrite them
    gates = np.empty((size, 2, 4 * hidden), dtype)
    np.matmul(features[rows[0]], w_fw, out=gates[:, 0])
    np.matmul(features[rows[1]], w_bw, out=gates[:, 1])
    # one matmul per direction and step: stacking the recurrent weights would
    # copy [2, H, 4H] per call, which costs a short sentence more
    u_fw, u_bw = p["fw.u"].data, p["bw.u"].data
    b_data = np.array([p["fw.b"].data, p["bw.b"].data])
    scratch = np.empty((bounds[1], 2, 4 * hidden), dtype)  # one step's pre-activations
    cells = np.empty((size, 2, hidden), dtype)
    out = np.empty((size, 2, hidden), dtype)
    cell_gate = slice(2 * hidden, 3 * hidden)
    for t in range(len(bounds) - 1):
        a, z = bounds[t], bounds[t + 1]
        act = gates[a:z]
        pre = scratch[:z - a]
        if t:
            before = slice(bounds[t - 1], bounds[t - 1] + z - a)
            np.matmul(out[before, 0], u_fw, out=pre[:, 0])
            np.matmul(out[before, 1], u_bw, out=pre[:, 1])
            pre += act
            pre += b_data
        else:
            np.add(act, b_data, out=pre)
        _activate_gates(pre, act)
        c = np.multiply(act[..., :hidden], act[..., cell_gate], out=cells[a:z])
        if t:
            c += act[..., hidden:2 * hidden] * cells[before]
        np.multiply(act[..., 3 * hidden:], np.tanh(c), out=out[a:z])
    flat_out = np.empty((size, 2 * hidden), dtype)
    flat_out[rows[0], :hidden] = out[:, 0]
    flat_out[rows[1], hidden:] = out[:, 1]

    def back(d_flat):
        first = bounds[1]
        h_prev = np.zeros_like(out)
        c_prev = np.zeros_like(cells)
        h_prev[first:] = out[packing.previous]
        c_prev[first:] = cells[packing.previous]
        by_gate = gates.reshape(size, 2, 4, hidden)
        i, f, g, o = (by_gate[:, :, j] for j in range(4))
        tanh_c = np.tanh(cells)
        # d pre = d act * act'(pre): the i, f, g columns scale with d c,
        # the o columns with d h
        by_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                          i * (1.0 - g * g)], axis=2)  # [rows, 2, 3, H]
        by_dh = tanh_c * o * (1.0 - o)
        dc_by_dh = o * (1.0 - tanh_c * tanh_c)
        dh = np.empty_like(out)
        dh[:, 0] = d_flat[rows[0], :hidden]
        dh[:, 1] = d_flat[rows[1], hidden:]
        dc = np.empty_like(cells)
        d_pre = np.empty_like(gates)
        d_by_gate = d_pre.reshape(by_gate.shape)
        ends = bounds[2:] + [size]  # step t + 1 ends at ends[t]; none follows the last
        for t in range(len(bounds) - 2, -1, -1):
            a, z = bounds[t], bounds[t + 1]
            # step t + 1 runs on with the first rows of step t
            after, on = slice(z, ends[t]), slice(a, a + ends[t] - z)
            dh[on, 0] += d_pre[after, 0] @ u_fw.T
            dh[on, 1] += d_pre[after, 1] @ u_bw.T
            np.multiply(dh[a:z], dc_by_dh[a:z], out=dc[a:z])
            dc[on] += dc[after] * f[after]
            np.multiply(by_dc[a:z], dc[a:z, :, None], out=d_by_gate[a:z, :, :3])
            np.multiply(dh[a:z], by_dh[a:z], out=d_by_gate[a:z, :, 3])
        grads = []
        for d in range(2):
            # back to token order, so the weight gradients sum tokens in that order
            d_pre_flat = np.empty((size, 4 * hidden), dtype)
            d_pre_flat[rows[d]] = d_pre[:, d]
            h_prev_flat = np.empty((size, hidden), dtype)
            h_prev_flat[rows[d]] = h_prev[:, d]
            grads += [features.T @ d_pre_flat, h_prev_flat.T @ d_pre_flat,
                      d_pre_flat.sum(axis=0)]
        return grads

    return Tensor(flat_out, tuple(params.parameters()), back)
