"""Feature-based recipe: frozen encoder, BiLSTM-CRF head, dev-set annealing.

Run:  python demos/06_feature_based_training.py    (about half a minute)
"""

from docner import (ContextConfig, FeatureBasedConfig, NerModel, TransformerConfig,
                    predict_corpus, score, train_feature_based, train_vocab)
from docner.synthetic import overfit_corpus

train = overfit_corpus(n_sentences=40, seed=0)
dev = overfit_corpus(n_sentences=16, seed=9, split="dev")
vocab = train_vocab(train, vocab_size=280)

# The encoder only provides features here: its layers are mean-pooled,
# frozen, and a BiLSTM-CRF is trained on top with plain SGD.
model = NerModel(
    vocab, train.label_set,
    TransformerConfig(layers=2, heads=2, model_dim=64, ff_dim=256,
                      max_positions=128),
    context=ContextConfig(window=16),
    mode="feature", head="crf", layer_strategy="all_layer_mean",
    bilstm_hidden=64, seed=7)

encoder_bytes = b"".join(p.data.tobytes() for p in model.encoder.parameters())

config = FeatureBasedConfig(max_epochs=30)
print(f"SGD lr {config.learning_rate}, anneal x{config.anneal_factor} after "
      f"{config.patience} stale epochs, floor {config.min_lr}")

model, log = train_feature_based(model, train, config, seed=2, dev_corpus=dev)

print("\nepoch  lr        loss      dev F1")
for r in log.records:
    print(f"{r.epoch:>5}  {r.lr:<8.5g}  {r.train_loss:<8.4f}  {r.dev_f1:6.2f}")

frozen = encoder_bytes == b"".join(p.data.tobytes()
                                   for p in model.encoder.parameters())
print(f"\nencoder byte-identical after training: {frozen}")
print(f"best dev F1 (model returned at this point): "
      f"{score(dev, predict_corpus(model, dev)).micro.f1:.2f}")
