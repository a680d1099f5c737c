"""The benchmark's workloads: seeded inputs, the model, and the training recipe.

Every workload has a train phase, which records autodiff graphs, and a tag
phase, which runs under ``no_grad``, so each uses the encoder both ways.
Why each workload was chosen is recorded in BENCHMARK.json.

Inputs come from the generators in ``docner.synthetic``. The workload seed
picks the held-out corpus; the training and dev corpora and the model and
training seeds are fixed, so every run trains the same model and the test
F1 varies across seeds only by the held-out sample. With seeded training
data these small models' F1 moved by a quarter across seeds, which would
hide a real quality change.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import docner.synthetic as synthetic
import docner.tokenizer as tokenizer
import docner.training as training
from docner.context import ContextConfig
from docner.corpus import Corpus
from docner.encoder import TransformerConfig
from docner.model import NerModel

# The acceptance suite's cue-corpus transformer (criteria 6 and 7).
TRANSFORMER = TransformerConfig(layers=2, heads=2, model_dim=64, ff_dim=256,
                                max_positions=192)
VOCAB_SIZE = 260
WINDOW = 64
MODEL_SEED = 1
TRAIN_SEED = 1
TRAIN_CORPUS_SEED = 7
DEV_CORPUS_SEED = 8


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "cue" or "adversarial"
    train_docs: int
    test_docs: int
    dev_docs: int  # 0: no dev split
    enforce_boundaries: bool
    mode: str  # "finetune" or "feature"
    head: str
    epochs: int  # fine-tuning epochs, or the feature recipe's epoch cap
    predict_passes: int  # predict_corpus calls per round

    def toy(self) -> "Workload":
        """The same code paths on a few documents: for smoke tests and the reference replay.

        At least two epochs, so that every toy model tags some entity right.
        """
        return dataclasses.replace(self, train_docs=40, test_docs=20,
                                   dev_docs=10 if self.dev_docs else 0,
                                   epochs=max(self.epochs, 2), predict_passes=1)


# Sized so that a run of BENCHMARK.json's run_seconds makes at least four
# rounds on a 2-vCPU host (nine, four and six today): enough training calls
# for measure.SLOWEST_OF, spread over the run's time.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="short-finetune",
        corpus="cue", train_docs=250, test_docs=100, dev_docs=0,
        enforce_boundaries=True, mode="finetune", head="linear", epochs=2,
        predict_passes=3),
    Workload(
        name="long-finetune",
        corpus="adversarial", train_docs=150, test_docs=120, dev_docs=0,
        enforce_boundaries=False, mode="finetune", head="linear", epochs=1,
        predict_passes=2),
    Workload(
        name="feature-bilstm-crf",
        corpus="cue", train_docs=70, test_docs=120, dev_docs=40,
        enforce_boundaries=True, mode="feature", head="crf", epochs=4,
        predict_passes=2),
]}


@dataclass
class Inputs:
    train: Corpus
    test: Corpus
    dev: Corpus | None
    model: NerModel


def setup(workload: Workload, seed: int) -> Inputs:
    """Generate and parse the corpora, train the vocab, build the model.

    Held-out seeds (1000 * seed + 2) never equal the fixed training seeds.
    """
    make = (synthetic.cue_corpus if workload.corpus == "cue"
            else synthetic.adversarial_boundary_corpus)
    train = make(workload.train_docs, seed=TRAIN_CORPUS_SEED, split="train")
    test = make(workload.test_docs, seed=1000 * seed + 2, split="test")
    dev = (make(workload.dev_docs, seed=DEV_CORPUS_SEED, split="dev")
           if workload.dev_docs else None)
    vocab = tokenizer.train_vocab(train, VOCAB_SIZE)
    feature = workload.mode == "feature"
    model = NerModel(vocab, train.label_set, TRANSFORMER,
                     context=ContextConfig(WINDOW, workload.enforce_boundaries),
                     mode=workload.mode, head=workload.head,
                     layer_strategy="all_layer_mean" if feature else "last_layer",
                     bilstm_hidden=64, seed=MODEL_SEED)
    return Inputs(train=train, test=test, dev=dev, model=model)


def train(workload: Workload, inputs: Inputs):
    """Run the workload's recipe; returns (model, TrainLog)."""
    if workload.mode == "finetune":
        return training.train_finetune(
            inputs.model, inputs.train,
            training.FineTuneConfig(max_epochs=workload.epochs), seed=TRAIN_SEED)
    config = training.FeatureBasedConfig(learning_rate=0.1, batch_size=4,
                                          max_epochs=workload.epochs)
    return training.train_feature_based(inputs.model, inputs.train, config,
                                        seed=TRAIN_SEED, dev_corpus=inputs.dev)
