"""Linear-chain CRF mechanics: forward algorithm, Viterbi, learned transitions.

The sequence ops take a batch of sentences, their emission rows one after
another, and a `Packing` of the sentence lengths; a single sentence is a
batch of one.

Run:  python demos/04_crf_inference.py
"""

import itertools

import numpy as np

from docner import CrfParams, Packing, crf_nll, viterbi
from docner.autodiff import Tensor, no_grad
from docner.tagger import crf_gold_score, crf_log_z

rng = np.random.default_rng(0)
labels = ["O", "B-X", "I-X"]
emissions = rng.uniform(-1, 1, (4, 3))
crf = CrfParams(num_labels=3, rng=rng)

# The forward algorithm's log partition matches brute-force enumeration
# over all 3^4 label paths.
with no_grad():
    log_z = float(crf_log_z(Tensor(emissions), Packing([4]), crf).data)
    paths = list(itertools.product(range(3), repeat=4))
    scores = np.array([float(crf_gold_score(Tensor(emissions), [list(p)], crf).data)
                       for p in paths])
print(f"log Z forward algorithm: {log_z:.10f}")
print(f"log Z enumeration      : {float(np.logaddexp.reduce(scores)):.10f}")
print(f"sum of path probabilities: {np.exp(scores - log_z).sum():.10f}")

# Viterbi returns the argmax path; enumeration agrees.
[best], [best_score] = viterbi(emissions, Packing([4]), crf)
brute = paths[int(scores.argmax())]
print(f"\nviterbi path {[labels[i] for i in best]} score {best_score:.4f}")
print(f"brute  path {[labels[i] for i in brute]} score {scores.max():.4f}")

# The negative log-likelihood of the gold path is log Z - score(gold).
gold = [1, 2, 0, 1]  # B-X I-X O B-X
with no_grad():
    gold_score = float(crf_gold_score(Tensor(emissions), [gold], crf).data)
loss = crf_nll(Tensor(emissions), [gold], Packing([4]), crf)
print(f"\nNLL of gold {[labels[i] for i in gold]}: {float(loss.data):.4f} "
      f"(= {log_z:.4f} - {gold_score:.4f})")

# Gradients flow through both terms; transitions are ordinary parameters.
loss.backward()
print(f"transition gradient norm: {np.linalg.norm(crf.transitions.grad):.4f}")

# Optional hard masking of label bigrams that are invalid under BIOES
# (the scheme models train in): I-X may only continue B-X/I-X, and an
# open span must be closed by E-X before the sequence may end.
bioes = ["O", "B-X", "I-X", "E-X", "S-X"]
constrained = CrfParams(num_labels=5, rng=np.random.default_rng(1))
constrained.constrain(bioes)
tempting = np.zeros((4, 5))
tempting[:, 2] = 5.0  # try hard to emit I-X everywhere
[decoded], _ = viterbi(tempting, Packing([4]), constrained)
print(f"\nwith constraints, an I-X flood decodes to "
      f"{[bioes[i] for i in decoded]}")
print("the span opens with B-X and closes with E-X; bare I-X runs are masked")

# A batch steps its sentences together, longest first, and returns each
# sentence's path in input order: the same paths as decoding one at a time.
batch = np.concatenate([tempting[:2], tempting, tempting[:1]])
paths, _ = viterbi(batch, Packing([2, 4, 1]), constrained)
alone = [viterbi(tempting[:n], Packing([n]), constrained)[0][0] for n in (2, 4, 1)]
print(f"\nbatch of lengths 2, 4, 1 decodes as one at a time: {paths == alone}")
