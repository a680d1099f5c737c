"""Fine-tuning recipe on a synthetic corpus: AdamW + one-cycle, fixed epochs.

Run:  python demos/05_finetune_training.py    (about half a minute)
"""

import os
import tempfile

from docner import (ContextConfig, FineTuneConfig, NerModel, TransformerConfig,
                    one_cycle_lr, predict_corpus, score, train_finetune, train_vocab)
from docner.synthetic import overfit_corpus

train = overfit_corpus(n_sentences=40, seed=0)
vocab = train_vocab(train, vocab_size=280)
print(f"corpus: {train.num_sentences} sentences, vocab: {len(vocab)} symbols")

# The one-cycle schedule decays linearly from the peak to exactly zero.
config = FineTuneConfig(max_epochs=25)
print(f"peak lr {config.peak_lr} (base {config.learning_rate} x scale {config.lr_scale})")
print("schedule samples:", [round(one_cycle_lr(s, 100, config.peak_lr), 5)
                            for s in (0, 25, 50, 75, 100)])

model = NerModel(
    vocab, train.label_set,
    TransformerConfig(layers=2, heads=2, model_dim=64, ff_dim=256,
                      max_positions=128),
    context=ContextConfig(window=16),
    mode="finetune", head="linear", seed=7)
print(f"parameters: {sum(p.data.size for p in model.all_parameters()):,}")

model, log = train_finetune(model, train, config, seed=1)
print("\nepoch  lr        loss")
for r in log.records[::4] + [log.records[-1]]:
    print(f"{r.epoch:>5}  {r.lr:.6f}  {r.train_loss:.4f}")

report = score(train, predict_corpus(model, train))
print("\ntrain-on-train scores (memorization check):")
print(report.format_table())

# Checkpoints are single .npz files carrying config, vocab and parameters.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.npz")
    model.save(path)
    reloaded = NerModel.load(path)
again = score(train, predict_corpus(reloaded, train))
print(f"\nreloaded checkpoint reproduces F1: {again.micro.f1:.2f}")
