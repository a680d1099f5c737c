"""Reference ops that only the tests use.

The sigmoid, tanh and mean nodes build the per-timestep reference LSTM and
the gradient-check table; the fused LSTM op in `docner.tagger` computes its
gates in numpy, so the program itself needs none of them.

`crf_log_z`, `lstm_direction`, `bilstm_forward` and `viterbi` are the
per-sentence sequence ops that `docner.tagger` replaced with batched ones.
A batched op run on a batch of one must equal them bit for bit, and on a
ragged batch it must match them run sentence by sentence. `path_score` is
one label path's score as a plain float, for the CRF checks.

`grad_check` compares a graph's gradients with central finite differences,
the oracle every op and hand-written backward is checked against.

`reference_train_vocab` is BPE training as one loop that recounts every
pair on every merge; `docner.tokenizer.train_vocab` keeps its counts
across merges and must take the same merges.

`as_float64` casts a model's parameters to float64. A model computes in
float32; the oracles compute in float64, and a test that holds a model to
an oracle's bound builds the model through it.

`ReferenceAdamW` and `ReferenceSgd` step each parameter's arrays on their
own, skipping a parameter without a gradient. `docner.training`'s
optimizers step one flat arena; on parameters that all have gradients
they must give the same bits.

`annealing_epochs` is the closed form of the feature recipe's learning-rate
schedule, which the training tests and criterion 8 check a run against.

`transformer_forward` is the encoder built op by op, one graph node per
head split, matmul, mask, dropout and residual, with the `transpose` and
`dropout` nodes it needs. Each layer of `TransformerEncoder.forward` is one
node with a hand-written backward; its outputs must equal this oracle's bit
for bit and its gradients match within 1e-10.
"""

import math
from collections import Counter
from typing import Callable, Iterable

import numpy as np
from scipy import special
from scipy.special import expit

from docner import autodiff as ad
from docner.autodiff import Tensor
from docner.tagger import crf_gold_score


def as_tensor(x) -> Tensor:
    """`x` as a graph variable: a Tensor stays itself, an array becomes a leaf."""
    return x if isinstance(x, Tensor) else Tensor(x)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return ad.mul(ad.tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    y = special.expit(a.data)
    return Tensor(y, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    return Tensor(y, (a,), lambda g: (g * (1.0 - y * y),))


def transpose(a: Tensor, axes) -> Tensor:
    a = as_tensor(a)
    inv = np.argsort(axes)
    return Tensor(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def dropout(a: Tensor, rate: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate) in train mode."""
    a = as_tensor(a)
    if not train or rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    return Tensor(a.data * mask, (a,), lambda g: (g * mask,))


def transformer_forward(encoder, ids: np.ndarray, lengths, queries: np.ndarray,
                        train: bool = False, rng: np.random.Generator | None = None):
    """`TransformerEncoder.forward` op by op: the same arguments, the same
    [embeddings, layer 1, ..., layer L] and the same dropout draws."""
    c = encoder.config
    batch, n = ids.shape
    p = encoder.params
    d, heads = c.model_dim, c.heads
    head_dim = d // heads
    tokens = ad.reshape(ad.take_rows(p["tok_emb"], ids.reshape(-1)), (batch, n, d))
    x = ad.reshape(tokens + ad.narrow(p["pos_emb"], 0, 0, n), (batch * n, d))
    key_mask = None
    if min(lengths) < n:
        padded = np.arange(n) >= np.asarray(lengths)[:, None]
        key_mask = np.where(padded, -np.inf, 0.0)[:, None, None, :]
    hidden = [x]
    inv_sqrt = 1.0 / math.sqrt(head_dim)

    def split_heads(t: Tensor) -> Tensor:  # [B*rows, D] -> [B, H, rows, d_head]
        return transpose(ad.reshape(t, (batch, -1, heads, head_dim)), (0, 2, 1, 3))

    for i in range(c.layers):
        last = i == c.layers - 1
        a = ad.layer_norm(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
        k = split_heads(a @ p[f"l{i}.wk"] + p[f"l{i}.wk_b"])
        v = split_heads(a @ p[f"l{i}.wv"] + p[f"l{i}.wv_b"])
        if last:  # keys and values from every row, the rest at the queries only
            rows = (np.arange(batch)[:, None] * n + queries).reshape(-1)
            x, a = ad.take_rows(x, rows), ad.take_rows(a, rows)
        q = split_heads(a @ p[f"l{i}.wq"] + p[f"l{i}.wq_b"])
        scores = (q @ transpose(k, (0, 1, 3, 2))) * inv_sqrt
        if key_mask is not None:  # a full-size constant: no size-1 broadcast
            scores = scores + np.broadcast_to(key_mask, scores.shape)
        att = ad.softmax(scores, axis=-1)
        o = ad.reshape(transpose(att @ v, (0, 2, 1, 3)), x.shape)
        o = o @ p[f"l{i}.wo"] + p[f"l{i}.wo_b"]
        o = dropout(o, c.dropout, rng, train)
        x = x + o
        f = ad.layer_norm(x, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
        f = ad.gelu(f @ p[f"l{i}.w1"] + p[f"l{i}.w1_b"]) @ p[f"l{i}.w2"] + p[f"l{i}.w2_b"]
        f = dropout(f, c.dropout, rng, train)
        x = x + f
        if last:
            x = ad.layer_norm(x, p["final_ln_g"], p["final_ln_b"])
        hidden.append(x)
    return hidden


def crf_log_z(emissions: Tensor, crf) -> Tensor:
    """Log partition of one sentence over all label paths (forward algorithm,
    log space); one graph node whose backward writes the label marginals."""
    n, num_labels = emissions.shape
    if n == 0:
        raise ValueError("forward algorithm needs a non-empty sequence")
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


def path_score(scores: np.ndarray, path: list[int], crf) -> float:
    """The score of one label path through `scores`, as a plain float."""
    with ad.no_grad():
        return float(crf_gold_score(Tensor(scores), [path], crf).data)


def viterbi(scores: np.ndarray, crf) -> tuple[list[int], float]:
    """One sentence's highest-scoring label path and its score; ties break
    toward the lowest label index at every backtracking step."""
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


def lstm_direction(features: Tensor, w: Tensor, u: Tensor, b: Tensor,
                   hidden: int, order: range) -> Tensor:
    """One LSTM direction over one sentence from zero states, stepping
    through `order`; one graph node whose backward is backpropagation
    through time."""
    pre_all = features @ w
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


def bilstm_forward(features: Tensor, params) -> Tensor:
    """Both LSTM directions over one sentence, concatenated per token."""
    n = features.shape[0]
    if n == 0:
        raise ValueError("bilstm_forward needs a non-empty sequence")
    p = params.params
    fw = lstm_direction(features, p["fw.w"], p["fw.u"], p["fw.b"],
                        params.hidden, range(n))
    bw = lstm_direction(features, p["bw.w"], p["bw.u"], p["bw.b"],
                        params.hidden, range(n - 1, -1, -1))
    return ad.concat([fw, bw], axis=1)


class ReferenceAdamW:
    """Adam with decoupled weight decay, one parameter array at a time."""

    def __init__(self, params: list[Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= lr * (update + self.weight_decay * p.data)


class ReferenceSgd:
    """Plain SGD, one parameter array at a time."""

    def __init__(self, params: list[Tensor]):
        self.params = params

    def step(self, lr: float) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data -= lr * p.grad


def annealing_epochs(config) -> int:
    """Epoch at which feature-based training (`FeatureBasedConfig`) stops if
    dev F1 never improves after epoch 1."""
    n_anneals = 0
    lr = config.learning_rate
    while lr >= config.min_lr:
        lr *= config.anneal_factor
        n_anneals += 1
    return 1 + config.patience * n_anneals


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
    with ad.no_grad():
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


def reference_train_vocab(corpus, vocab_size: int) -> list[tuple[str, str]]:
    """The merges of greedy BPE, every pair recounted on every merge.

    The most frequent pair wins, ties broken lexicographically, until
    `vocab_size` symbols or no pair occurs twice. Unlike `train_vocab` it
    takes a merge even when the result spells a symbol it already has, so
    it returns the merges and builds no vocabulary.
    """
    token_counts: Counter[str] = Counter()
    for sent in corpus.sentences():
        token_counts.update(sent.texts)

    alphabet = sorted({c for token in token_counts for c in token})
    base = len(alphabet) + 4  # the four specials
    if vocab_size < base:
        raise ValueError(f"vocab_size {vocab_size} is below alphabet "
                         f"size + specials ({base})")

    words: dict[str, tuple[list[str], int]] = {
        tok: ([*tok], cnt) for tok, cnt in sorted(token_counts.items())
    }
    merges: list[tuple[str, str]] = []
    while base + len(merges) < vocab_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for parts, cnt in words.values():
            for i in range(len(parts) - 1):
                pair_counts[(parts[i], parts[i + 1])] += cnt
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), count = best
        if count < 2:
            break
        merges.append((a, b))
        merged = a + b
        for tok, (parts, cnt) in words.items():
            i = 0
            while i < len(parts) - 1:
                if parts[i] == a and parts[i + 1] == b:
                    parts[i:i + 2] = [merged]
                else:
                    i += 1
    return merges


def as_float64(model):
    """`model` with its parameters cast to float64, in place: the precision
    of the oracles, which a float32 model cannot match to their bounds."""
    for p in model.all_parameters():
        p.data = p.data.astype(np.float64)
    return model
