"""Training regimes: AdamW fine-tuning and SGD feature-based with annealing.

Fine-tuning updates every parameter for a fixed number of epochs under a
one-cycle schedule (linear decay to zero, no warmup) with no stopping
criterion. Feature-based training freezes the encoder, precomputes token
features once, and anneals the SGD learning rate against dev micro-F1
until it falls below a floor.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .context import ContextualizedSentence
from .corpus import Corpus, with_predictions
from .evaluation import score
from .model import NerModel


@dataclass
class FineTuneConfig:
    learning_rate: float = 5e-6
    lr_scale: float = 100.0  # from-scratch toy models need far more than 5e-6
    batch_size: int = 4
    max_epochs: int = 20
    weight_decay: float = 0.01
    include_dev: bool = False

    def __post_init__(self):
        _check_positive(self, "learning_rate", "lr_scale", "batch_size")
        _check_positive(self, "weight_decay", "max_epochs", zero_ok=True)

    @property
    def peak_lr(self) -> float:
        return self.learning_rate * self.lr_scale


@dataclass
class FeatureBasedConfig:
    learning_rate: float = 0.1
    batch_size: int = 16
    max_epochs: int = 500
    anneal_factor: float = 0.5
    patience: int = 3
    min_lr: float = 1e-4

    def __post_init__(self):
        _check_positive(self, "learning_rate", "min_lr", "batch_size", "max_epochs",
                        "patience")
        if not 0.0 < self.anneal_factor < 1.0:
            raise ValueError("anneal_factor must be in (0, 1)")
        if self.min_lr >= self.learning_rate:
            raise ValueError("min_lr must be below the learning_rate")


def _check_positive(config, *names: str, zero_ok: bool = False) -> None:
    """Raise a ValueError naming the first of `config`'s fields `names` whose
    value is not a finite number above zero (or, with `zero_ok`, at least
    zero)."""
    for name in names:
        value = getattr(config, name)
        if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
            raise ValueError(f"{name} must be a finite number "
                             f"{'>= 0' if zero_ok else '> 0'}, got {value!r}")


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    dev_f1: float | None
    seconds: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        if self.records and record.epoch <= self.records[-1].epoch:
            raise ValueError("epoch numbers must be strictly increasing")
        self.records.append(record)

    @property
    def losses(self) -> list[float]:
        return [r.train_loss for r in self.records]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "lr", "loss", "dev_f1", "seconds"])
            for r in self.records:
                writer.writerow([r.epoch, f"{r.lr:.8g}", f"{r.train_loss:.8g}",
                                 "" if r.dev_f1 is None else f"{r.dev_f1:.4f}",
                                 f"{r.seconds:.3f}"])


def one_cycle_lr(step: int, total_steps: int, peak_lr: float) -> float:
    """Linear decay from peak to zero: peak * (1 - step/total_steps)."""
    if total_steps == 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return peak_lr * (1.0 - step / total_steps)


class _Arena:
    """An optimizer's parameters adopted into one flat `data` array and one
    flat `grad` array (a missing gradient adopted as zeros): each
    parameter's `data` and `grad` become reshaped views of them, so a step
    is one pass over the flat arrays, `zero_grad` is one fill, and
    `Tensor.backward` adds into the views. Write into a view
    (`p.data[...] = x`); `step` raises on a rebound one."""

    def __init__(self, params: list[Tensor]):
        if len({id(p) for p in params}) < len(params):
            raise ValueError("a parameter is listed twice")
        dtypes = {str(p.dtype) for p in params}
        if len(dtypes) > 1:  # one flat array would widen the narrower ones
            raise ValueError(f"parameters of mixed dtypes {sorted(dtypes)}")
        self.params = params
        self.data = np.concatenate([p.data.ravel() for p in params])
        self.grad = np.zeros_like(self.data)
        self._views = []
        start = 0
        for p in params:
            shape, stop = p.shape, start + p.data.size
            grad = self.grad[start:stop].reshape(shape)
            if p.grad is not None:
                grad[...] = p.grad
            p.data, p.grad = self.data[start:stop].reshape(shape), grad
            self._views.append((p.data, p.grad))
            start = stop

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def _check_views(self) -> None:
        for i, (p, (data, grad)) in enumerate(zip(self.params, self._views)):
            if p.data is not data or p.grad is not grad:
                raise ValueError(f"parameter {i} no longer holds its optimizer's "
                                 "view: write into p.data[...] and p.grad[...]")


class AdamW(_Arena):
    """Adam with decoupled weight decay.

    Every adopted parameter is stepped: one whose gradient stays zero still
    has its moments decayed and its weight decay applied. After a step the
    gradient views hold scratch values until `zero_grad`.
    """

    def __init__(self, params: list[Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.01):
        super().__init__(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self._scratch = np.empty_like(self.data)
        self.t = 0

    def step(self, lr: float) -> None:
        self._check_views()
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        # Adam's operations in their usual order, into preallocated buffers (a
        # temporary per operation would be mapped and unmapped each time); `g`
        # is scratch once `v` has read it
        m, v, g, s, data = self.m, self.v, self.grad, self._scratch, self.data
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=s)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s)
        v += np.multiply(s, g, out=s)
        # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.sqrt(np.divide(v, bc2, out=g), out=g)
        g += self.eps
        np.divide(np.divide(m, bc1, out=s), g, out=s)
        # data -= lr * (update + weight_decay * data)
        s += np.multiply(data, self.weight_decay, out=g)
        s *= lr
        data -= s


class Sgd(_Arena):
    """Plain SGD; after a step the gradient views hold `lr` times the gradient."""

    def step(self, lr: float) -> None:
        self._check_views()
        self.grad *= lr
        self.data -= self.grad


@dataclass
class _Item:
    tokens: list[str]
    ctx: ContextualizedSentence
    gold: list[int] | None
    features: np.ndarray | None = None


def _prepare_items(model: NerModel, corpus: Corpus, gold: bool = True) -> list[_Item]:
    """Each sentence of `corpus` with its context and, with `gold`, its gold
    label ids: a gold tag outside the model's labels is a ValueError that
    names the tag and the split."""
    items = []
    for sentence in corpus.sentences():
        try:
            ids = model.gold_ids(sentence, corpus.scheme) if gold else None
        except KeyError as err:
            raise ValueError(f"gold tag {err.args[0]!r} of the {corpus.split} split is "
                             f"not a label of the model, whose entity types are "
                             f"{model.settings['entity_types']}") from None
        items.append(_Item(tokens=sentence.texts, ctx=model.contextualize(sentence, corpus),
                           gold=ids))
    return items


def _run_epoch(model: NerModel, items: list[_Item], batch_size: int,
               opt: AdamW | Sgd, rng: np.random.Generator,
               next_lr: Callable[[], float]) -> tuple[float, float]:
    """One pass over `items` in a fresh random order, one optimizer step per
    minibatch at `next_lr()` on its mean sentence loss (`NerModel.batch_loss`)
    over the items' frozen features, or else a training pass of the encoder.

    Returns the mean batch loss and the last learning rate.
    """
    order = rng.permutation(len(items))
    losses = []
    lr = 0.0
    for i in range(0, len(order), batch_size):
        batch = [items[j] for j in order[i:i + batch_size]]
        lr = next_lr()
        opt.zero_grad()
        if batch[0].features is None:
            features = model.token_features([it.tokens for it in batch],
                                            [it.ctx for it in batch], train=True, rng=rng)
        else:
            features = np.concatenate([it.features for it in batch])  # a constant
        batch_loss = model.batch_loss(features, [it.gold for it in batch])
        batch_loss.backward()
        opt.step(lr)
        losses.append(float(batch_loss.data))
    return float(np.mean(losses)), lr


def train_finetune(model: NerModel, corpus: Corpus, config: FineTuneConfig,
                   seed: int, dev_corpus: Corpus | None = None
                   ) -> tuple[NerModel, TrainLog]:
    """Fine-tune the whole model for exactly `max_epochs` epochs.

    Sentences are shuffled each epoch with a seeded generator; there is no
    early stopping and the final model is returned. With ``include_dev``
    the dev sentences are shuffled uniformly into the training pool.
    """
    if model.mode != "finetune":
        raise ValueError("model was built for feature-based training")
    items = _prepare_items(model, corpus)
    if config.include_dev:
        if dev_corpus is None:
            raise ValueError("include_dev requires a dev corpus")
        items += _prepare_items(model, dev_corpus)

    rng = np.random.default_rng(seed)
    opt = AdamW(model.trainable_parameters(), weight_decay=config.weight_decay)
    total_steps = config.max_epochs * math.ceil(len(items) / config.batch_size)
    steps = itertools.count()

    def next_lr() -> float:
        return one_cycle_lr(next(steps), total_steps, config.peak_lr)

    log = TrainLog()
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        loss, lr = _run_epoch(model, items, config.batch_size, opt, rng, next_lr)
        log.append(EpochRecord(epoch=epoch, lr=lr, train_loss=loss,
                               dev_f1=None, seconds=time.perf_counter() - t0))
    return model, log


def train_feature_based(model: NerModel, corpus: Corpus,
                        config: FeatureBasedConfig, seed: int,
                        dev_corpus: Corpus | None = None
                        ) -> tuple[NerModel, TrainLog]:
    """SGD over the head with dev-set annealing; encoder stays frozen.

    Token features are precomputed once. After each epoch the dev micro-F1
    is measured; `patience` epochs without improvement halve the learning
    rate (anneal factor), and training stops once it drops below `min_lr`
    or `max_epochs` is reached. Returns the model with the best dev F1.
    """
    if model.mode != "feature":
        raise ValueError("model was built for fine-tuning")
    if dev_corpus is None:
        raise ValueError("feature-based training needs a dev split for annealing")

    items = _prepare_items(model, corpus)
    dev_items = _prepare_items(model, dev_corpus, gold=False)  # scored by spans
    everything = items + dev_items
    features = model.frozen_features([it.tokens for it in everything],
                                     [it.ctx for it in everything])
    for it, f in zip(everything, features):
        it.features = f
    frozen_before = _frozen_digest(model)

    def dev_micro_f1() -> float:
        predictions = model.tag_features([it.features for it in dev_items],
                                         dev_corpus.scheme)
        return score(dev_corpus, with_predictions(dev_corpus, predictions)).micro.f1

    rng = np.random.default_rng(seed)
    opt = Sgd(model.trainable_parameters())
    log = TrainLog()
    lr = config.learning_rate
    best_f1 = -math.inf
    best = opt.data.copy()
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        loss, _ = _run_epoch(model, items, config.batch_size, opt, rng,
                             lambda: lr)
        dev_f1 = dev_micro_f1()
        log.append(EpochRecord(epoch=epoch, lr=lr, train_loss=loss,
                               dev_f1=dev_f1, seconds=time.perf_counter() - t0))
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best = opt.data.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                lr *= config.anneal_factor
                stale = 0
                if lr < config.min_lr:
                    break
    opt.data[...] = best
    if _frozen_digest(model) != frozen_before:
        raise AssertionError("frozen parameters changed during feature-based training")
    return model, log


def _frozen_digest(model: NerModel) -> bytes:
    """The bytes of every parameter the model does not train."""
    trainable = {id(p) for p in model.trainable_parameters()}
    return b"".join(p.data.tobytes() for p in model.all_parameters()
                    if id(p) not in trainable)
