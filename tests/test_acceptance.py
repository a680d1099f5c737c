"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them). Criteria cover oracle
equivalence, gradient fidelity, context exactness, scorer parity, training
contracts, and directional effects on synthetic corpora.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from docner import autodiff as ad
from docner.autodiff import Tensor
from docner.context import ContextConfig, SubtokenStream, build_context
from docner.corpus import (TagScheme, convert_scheme, parse_conll,
                           spans_from_tags, with_predictions)
from docner.encoder import TransformerConfig
from docner.evaluation import round2, score
from docner.model import NerModel, predict_corpus
from docner.synthetic import (adversarial_boundary_corpus, corpus_from_documents,
                              cue_corpus, cue_documents, overfit_corpus)
from docner.tagger import (BiLstmParams, CrfParams, Packing, bilstm_forward, crf_log_z,
                           crf_nll, viterbi)
from docner.tokenizer import encode, train_vocab
from docner.training import (FeatureBasedConfig, FineTuneConfig, one_cycle_lr,
                             train_feature_based, train_finetune)
from oracle_ops import annealing_epochs, grad_check


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number}: FAIL - {description}")
                raise
            print(f"\ncriterion {number}: PASS - {description}")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------


def enumerate_paths(scores, crf):
    n, num_labels = scores.shape
    trans = crf.transitions.data
    paths = np.array(list(itertools.product(range(num_labels), repeat=n)),
                     dtype=np.intp)
    s = scores[np.arange(n), paths].sum(axis=1)
    s = s + trans[crf.start, paths[:, 0]] + trans[paths[:, -1], crf.stop]
    for t in range(n - 1):
        s = s + trans[paths[:, t], paths[:, t + 1]]
    return paths, s


@criterion(1, "Viterbi and log Z match exhaustive enumeration on 1000 instances")
def test_criterion_1_crf_exactness():
    rng = np.random.default_rng(20240601)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        num_labels = int(rng.integers(1, 6))
        emissions = rng.uniform(-2.0, 2.0, (n, num_labels))
        crf = CrfParams(num_labels)
        crf.transitions.data = rng.uniform(-2.0, 2.0, crf.transitions.data.shape)

        paths, path_scores = enumerate_paths(emissions, crf)
        best = int(path_scores.argmax())
        [decoded], [decoded_score] = viterbi(emissions, Packing([n]), crf)
        assert decoded == list(paths[best])
        assert abs(decoded_score - float(path_scores[best])) < 1e-9
        brute_log_z = float(np.logaddexp.reduce(np.sort(path_scores)))
        with ad.no_grad():
            log_z = float(crf_log_z(Tensor(emissions), Packing([n]), crf).data)
        assert abs(log_z - brute_log_z) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"enumeration comparison took {elapsed:.1f}s"


def _mini_tagging_model(seed, head):
    text = "\n\n".join(["ab B-X\ncd O", "cd O\nab B-X\nba O", "ba O\ncd O"])
    corpus = parse_conll(text + "\n")
    vocab = train_vocab(corpus, 4 + 4)  # char-level over {a,b,c,d}
    model = NerModel(vocab, corpus.label_set,
                     TransformerConfig(layers=1, heads=2, model_dim=8, ff_dim=16,
                                       max_positions=24),
                     context=ContextConfig(window=2), head=head, seed=seed)
    # moderate parameter scale keeps layer-norm variances near 1; the 0.02
    # training init makes normalization curvature dominate eps^2 truncation
    reinit = np.random.default_rng(seed + 1000)
    for p in model.all_parameters():
        p.data = reinit.normal(0.0, 0.5, p.data.shape)
    return corpus, model


@criterion(2, "crf_nll, BiLSTM, and transformer losses pass finite differences")
def test_criterion_2_gradient_fidelity():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0

    for _ in range(20):
        n, num_labels = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        emissions = Tensor(rng.uniform(-2, 2, (n, num_labels)))
        crf = CrfParams(num_labels)
        crf.transitions.data = rng.uniform(-2, 2, crf.transitions.data.shape)
        gold = list(rng.integers(0, num_labels, n))
        err = grad_check(lambda: crf_nll(emissions, [gold], Packing([n]), crf),
                         [emissions, crf.transitions], epsilon=1e-5)
        worst = max(worst, err)

    # central differences at eps=1e-5 resolve gradients only down to about
    # |loss|*1e-6 in float64, and recurrent/attention weight matrices always
    # contain smaller entries. Scaling the objective moves those under the
    # 1e-8 denominator floor while exercising the identical backward graph.
    for i in range(20):
        params = BiLstmParams(2, 3, np.random.default_rng(100 + i))
        x = Tensor(rng.normal(size=(int(rng.integers(1, 4)), 2)))
        weights = Tensor(rng.normal(size=(6, 1)))
        err = grad_check(
            lambda: ad.tsum(bilstm_forward(x, Packing([x.shape[0]]), params)
                            @ weights) * 1e-4,
            [x, weights] + params.parameters(), epsilon=1e-5)
        worst = max(worst, err)

    for i in range(20):
        head = "crf" if i % 2 else "linear"
        corpus, model = _mini_tagging_model(seed=200 + i, head=head)
        sentences = list(corpus.sentences())
        sentence = sentences[i % len(sentences)]
        ctx = model.contextualize(sentence, corpus)
        gold = model.gold_ids(sentence, corpus.scheme)
        err = grad_check(
            lambda: model.batch_loss([sentence.texts], [ctx], [gold]) * 1e-4,
            model.all_parameters(), epsilon=1e-5)
        worst = max(worst, err)

    # ragged batches: sentences of different lengths stepped together
    ragged = np.random.default_rng(11)
    for i in range(6):
        lengths = ragged.integers(1, 5, int(ragged.integers(2, 6))).tolist()
        num_labels = int(ragged.integers(2, 5))
        emissions = Tensor(ragged.uniform(-2, 2, (sum(lengths), num_labels)))
        crf = CrfParams(num_labels)
        crf.transitions.data = ragged.uniform(-2, 2, crf.transitions.data.shape)
        golds = [ragged.integers(0, num_labels, n).tolist() for n in lengths]
        err = grad_check(lambda: crf_nll(emissions, golds, Packing(lengths), crf),
                         [emissions, crf.transitions], epsilon=1e-5)
        worst = max(worst, err)

        params = BiLstmParams(2, 3, np.random.default_rng(300 + i))
        x = Tensor(ragged.normal(size=(sum(lengths), 2)))
        weights = Tensor(ragged.normal(size=(6, 1)))
        err = grad_check(
            lambda: ad.tsum(bilstm_forward(x, Packing(lengths), params) @ weights) * 1e-4,
            [x, weights] + params.parameters(), epsilon=1e-5)
        worst = max(worst, err)

    elapsed = time.perf_counter() - start
    assert worst < 1e-5, f"max relative error {worst}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def _random_corpus_text(rng, n_docs):
    docs = []
    for _ in range(n_docs):
        sentences = []
        for _ in range(int(rng.integers(1, 5))):
            tokens = []
            for _ in range(int(rng.integers(1, 9))):
                length = int(rng.integers(1, 6))
                tokens.append("".join(rng.choice(list("abcdefgh"), size=length)))
            sentences.append("\n".join(f"{t} O" for t in tokens))
        docs.append("\n\n".join(sentences))
    parts = []
    for block in docs:
        parts.append("-DOCSTART- O\n")
        parts.append(block + "\n")
    return "\n".join(parts)


def _slice_oracle(sentence, document, documents, vocab, config):
    scope = (document.sentences if config.enforce_boundaries
             else [s for d in documents for s in d.sentences])
    stream, core_start = [], None
    for s in scope:
        if s is sentence:
            core_start = len(stream)
        stream.extend(encode(s.texts, vocab).ids)
    core_len = len(encode(sentence.texts, vocab).ids)
    left = stream[max(0, core_start - config.window):core_start]
    right = stream[core_start + core_len:core_start + core_len + config.window]
    return left, right


@criterion(3, "context assembly is bit-exact against the slice oracle on 500 docs")
def test_criterion_3_context_exactness():
    rng = np.random.default_rng(99)
    windows = (0, 1, 48, 64)
    docs_checked = 0
    while docs_checked < 500:
        corpus = parse_conll(_random_corpus_text(rng, 20))
        vocab = train_vocab(corpus, 8 + 4 + int(rng.integers(0, 20)))
        stream = SubtokenStream(corpus.documents, vocab)
        docs_checked += len(corpus.documents)
        for doc in corpus.documents:
            for sentence in doc.sentences:
                coverage = {}
                for enforce in (True, False):
                    previous = (-1, -1)
                    for window in windows:
                        config = ContextConfig(window, enforce)
                        ctx = build_context(sentence, stream, config)
                        left, right = _slice_oracle(sentence, doc,
                                                    corpus.documents, vocab, config)
                        assert ctx.left_ids == left
                        assert ctx.right_ids == right
                        assert ctx.assembled_ids() == (
                            [vocab.bos_id] + left + ctx.core.ids + right
                            + [vocab.eos_id])
                        used = (len(left), len(right))
                        assert used[0] >= previous[0] and used[1] >= previous[1], \
                            "coverage must be monotone in the window"
                        previous = used
                        coverage[(enforce, window)] = used
                for window in windows:
                    on = coverage[(True, window)]
                    off = coverage[(False, window)]
                    assert on[0] <= off[0] and on[1] <= off[1], \
                        "enforcement can only shrink context"


SCORER_FIXTURES = [
    # (gold tags, predicted tags, micro precision, recall, f1)
    ("perfect", [["B-PER", "I-PER", "O"], ["B-LOC", "O"]],
     [["B-PER", "I-PER", "O"], ["B-LOC", "O"]], 100.00, 100.00, 100.00),
    ("empty-prediction", [["B-PER", "I-PER", "O", "B-LOC"]],
     [["O", "O", "O", "O"]], 0.00, 0.00, 0.00),
    ("boundary-error", [["B-PER", "I-PER"]], [["B-PER", "O"]], 0.00, 0.00, 0.00),
    ("type-error", [["B-LOC"]], [["B-ORG"]], 0.00, 0.00, 0.00),
    ("hand-counted-5-4-3", [["B-PER", "O", "B-LOC"], ["B-ORG", "I-ORG", "O", "B-LOC"],
                            ["B-MISC", "O"]],
     [["B-PER", "O", "B-LOC"], ["B-ORG", "I-ORG", "O", "O"], ["O", "B-MISC"]],
     75.00, 60.00, 66.67),
    ("false-positive", [["B-LOC", "O", "O"]], [["B-LOC", "O", "B-ORG"]],
     50.00, 100.00, 66.67),
    ("missed-entity", [["B-LOC", "O", "B-ORG"]], [["B-LOC", "O", "O"]],
     100.00, 50.00, 66.67),
    ("adjacent-singletons", [["B-LOC", "B-LOC"]], [["B-LOC", "I-LOC"]],
     0.00, 0.00, 0.00),
    ("repair-matches-gold", [["O", "B-PER"]], [["O", "I-PER"]],
     100.00, 100.00, 100.00),
    ("multi-type-mix", [["B-LOC", "O", "B-LOC", "O", "B-ORG"]],
     [["B-LOC", "O", "O", "B-ORG", "I-ORG"]], 50.00, 33.33, 40.00),
    ("eighth-recall", [["B-PER"], ["B-PER"], ["B-PER"], ["B-PER"],
                       ["B-PER"], ["B-PER"], ["B-PER"], ["B-PER"]],
     [["B-PER"], ["B-LOC"], ["O"], ["O"], ["O"], ["O"], ["O"], ["O"]],
     50.00, 12.50, 20.00),
]


@criterion(4, "scorer matches hand-computed exact-span values on fixtures")
def test_criterion_4_scorer_parity():
    assert len(SCORER_FIXTURES) >= 10
    for name, gold_tags, pred_tags, precision, recall, f1 in SCORER_FIXTURES:
        tokens = [[f"w{i}{j}" for j in range(len(s))]
                  for i, s in enumerate(gold_tags)]
        text = "\n\n".join("\n".join(f"{w} {t}" for w, t in zip(ws, ts))
                           for ws, ts in zip(tokens, gold_tags))
        gold = parse_conll(text + "\n")
        predicted = with_predictions(gold, [list(p) for p in pred_tags])
        report = score(gold, predicted)
        assert round2(report.micro.precision) == precision, name
        assert round2(report.micro.recall) == recall, name
        assert round2(report.micro.f1) == f1, name
        if name == "perfect":
            assert round2(report.micro.f1) == 100.00


@criterion(5, "fine-tuning overfits a 50-sentence corpus to >= 99 F1")
def test_criterion_5_overfit_sanity():
    start = time.perf_counter()
    corpus = overfit_corpus(50, seed=0)
    vocab = train_vocab(corpus, 300)
    config = FineTuneConfig(max_epochs=40)  # well under the 200-epoch budget
    assert config.peak_lr == pytest.approx(5e-4)  # lr-scale default
    model = NerModel(vocab, corpus.label_set,
                     TransformerConfig(layers=4, heads=4, model_dim=128,
                                       ff_dim=512, max_positions=512),
                     context=ContextConfig(window=0), mode="finetune",
                     head="linear", seed=7)
    model, log = train_finetune(model, corpus, config, seed=1)
    f1 = score(corpus, predict_corpus(model, corpus)).micro.f1
    elapsed = time.perf_counter() - start
    assert len(log.records) <= 200
    assert f1 >= 99.0, f"train-on-train F1 {f1:.2f}"
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"


CUE_TRANSFORMER = TransformerConfig(layers=2, heads=2, model_dim=64, ff_dim=256,
                                    max_positions=192)


def _train_and_score(train, test, vocab, window, enforce, seed, epochs=5):
    model = NerModel(vocab, train.label_set, CUE_TRANSFORMER,
                     context=ContextConfig(window=window,
                                           enforce_boundaries=enforce),
                     mode="finetune", head="linear", seed=seed)
    model, _ = train_finetune(model, train, FineTuneConfig(max_epochs=epochs),
                              seed=seed)
    return model, score(test, predict_corpus(model, test)).micro.f1


@criterion(6, "window 64 beats window 0 by >= 20 F1 on the cue-ambiguity corpus")
def test_criterion_6_document_feature_benefit():
    start = time.perf_counter()
    train = cue_corpus(250, seed=10, split="train")
    test = cue_corpus(100, seed=20, split="test")
    assert train.num_sentences == 500 and test.num_sentences == 200
    vocab = train_vocab(train, 260)
    means = {}
    for window in (64, 0):
        f1s = [_train_and_score(train, test, vocab, window, True, seed)[1]
               for seed in (1, 2, 3)]
        means[window] = float(np.mean(f1s))
    elapsed = time.perf_counter() - start
    assert means[64] - means[0] >= 20.0, means
    assert elapsed < 1800.0, f"took {elapsed:.1f}s"


@criterion(7, "boundary enforcement helps when cross-document context misleads")
def test_criterion_7_boundary_enforcement():
    train = adversarial_boundary_corpus(150, seed=30, split="train")
    test = adversarial_boundary_corpus(60, seed=40, split="test")
    vocab = train_vocab(train, 260)
    means = {}
    enforced_model = None
    for enforce in (True, False):
        f1s = []
        for seed in (1, 2, 3):
            model, f1 = _train_and_score(train, test, vocab, 64, enforce, seed)
            f1s.append(f1)
            if enforce and enforced_model is None:
                enforced_model = model
        means[enforce] = float(np.mean(f1s))
    assert means[True] >= means[False], means

    # replacing a preceding document must not change enforced predictions
    blocks = cue_documents(8, seed=50, entity_first=True)
    replacement = cue_documents(1, seed=51, entity_first=True)[0]
    corpus_a = corpus_from_documents(blocks, split="test")
    corpus_b = corpus_from_documents(blocks[:3] + [replacement] + blocks[4:],
                                     split="test")
    pred_a = predict_corpus(enforced_model, corpus_a)
    pred_b = predict_corpus(enforced_model, corpus_b)
    for d_idx, (doc_a, doc_b) in enumerate(zip(pred_a.documents,
                                               pred_b.documents)):
        if d_idx == 3:
            continue  # the replaced document itself
        tags_a = [t.predicted_tag for s in doc_a.sentences for t in s.tokens]
        tags_b = [t.predicted_tag for s in doc_b.sentences for t in s.tokens]
        assert tags_a == tags_b, f"document {d_idx} changed"


@criterion(8, "training recipes honor their contracts (epochs, schedule, freeze)")
def test_criterion_8_training_recipes():
    corpus = overfit_corpus(12, seed=6)
    vocab = train_vocab(corpus, 200)
    small = TransformerConfig(layers=1, heads=2, model_dim=16, ff_dim=32,
                              max_positions=96)

    # fine-tuning: exactly 20 epochs, lr linearly to zero
    config = FineTuneConfig()  # max_epochs 20, batch 4, AdamW defaults
    model = NerModel(vocab, corpus.label_set, small,
                     context=ContextConfig(window=0), seed=0)
    model, log = train_finetune(model, corpus, config, seed=1)
    assert [r.epoch for r in log.records] == list(range(1, 21))
    steps_per_epoch = -(-corpus.num_sentences // config.batch_size)
    total = 20 * steps_per_epoch
    for record in log.records:
        last_step_of_epoch = record.epoch * steps_per_epoch - 1
        expected = config.peak_lr * (1.0 - last_step_of_epoch / total)
        assert record.lr == pytest.approx(expected, rel=1e-12)
    assert one_cycle_lr(total, total, config.peak_lr) == 0.0

    # feature-based: frozen encoder, lr-floor termination on schedule
    feature_cfg = FeatureBasedConfig()  # lr .1, halving, patience 3, floor 1e-4
    model = NerModel(vocab, corpus.label_set, small,
                     context=ContextConfig(window=0), mode="feature",
                     head="crf", bilstm_hidden=8, seed=0)
    before = b"".join(p.data.tobytes() for p in model.encoder.parameters())
    dev_text = "\n\n".join("\n".join(f"w{i}{j} O" for j in range(3))
                           for i in range(4))
    frozen_dev = parse_conll(dev_text + "\n", split="dev")
    model, log = train_feature_based(model, corpus, feature_cfg, seed=1,
                                     dev_corpus=frozen_dev)
    after = b"".join(p.data.tobytes() for p in model.encoder.parameters())
    assert before == after, "encoder must stay byte-identical"
    assert all(r.dev_f1 == 0.0 for r in log.records)
    predicted_stop = annealing_epochs(feature_cfg)
    assert len(log.records) == predicted_stop == 31
    assert len(log.records) < feature_cfg.max_epochs  # floor, not epoch cap
    lrs = sorted({r.lr for r in log.records}, reverse=True)
    assert lrs == [pytest.approx(0.1 * 0.5 ** k) for k in range(10)]
    assert lrs[-1] * feature_cfg.anneal_factor < feature_cfg.min_lr


def _random_bio(rng, max_len=14):
    n = int(rng.integers(0, max_len))
    tags, open_type = [], None
    types = ["LOC", "MISC", "ORG", "PER"]
    for _ in range(n):
        move = rng.integers(0, 3)
        if move == 0 or (move == 1 and open_type is None):
            open_type = types[rng.integers(len(types))]
            tags.append(f"B-{open_type}")
        elif move == 1:
            tags.append(f"I-{open_type}")
        else:
            tags.append("O")
            open_type = None
    return tags


@criterion(9, "scheme round-trip and span preservation on 10000 sequences")
def test_criterion_9_scheme_properties():
    rng = np.random.default_rng(123)
    for trial in range(10000):
        tags = _random_bio(rng)
        if trial % 2 == 0:
            source, target = TagScheme.BIO, TagScheme.BIOES
        else:
            tags = convert_scheme(tags, TagScheme.BIO, TagScheme.BIOES)
            source, target = TagScheme.BIOES, TagScheme.BIO
        converted = convert_scheme(tags, source, target)
        assert spans_from_tags(converted) == spans_from_tags(tags)
        assert convert_scheme(converted, target, source) == tags
