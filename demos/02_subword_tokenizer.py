"""Subword tokenizer walkthrough: BPE training, alignment, first-subword pooling.

Run:  python demos/02_subword_tokenizer.py
"""

import numpy as np

from docner import encode, parse_conll, train_vocab

# Train a byte-pair vocabulary on a tiny corpus. Merges are greedy by pair
# frequency with lexicographic tie-breaks, so training is deterministic.
words = ("the tower stands tall . the tunnel runs deep . "
         "towers and tunnels , the builders build .").split()
corpus = parse_conll("\n".join(f"{w} O" for w in words) + "\n")

vocab = train_vocab(corpus, vocab_size=40)
print(f"vocabulary: {len(vocab)} symbols, {len(vocab.merges)} merges")
print("first merges:", vocab.merges[:6])

# Each token is segmented independently, so token boundaries are exact.
for token in ["the", "towers", "builders", "xylophone"]:
    ids = vocab.encode_token(token)
    pieces = [vocab.id_to_symbol[i] for i in ids]
    print(f"  {token!r:14} -> {pieces}")

# Sentence encoding records where each token's first subtoken sits.
sentence = ["the", "builders", "build"]
enc = encode(sentence, vocab)
print(f"\nsentence {sentence}")
print(f"  subtoken ids        : {enc.ids}")
print(f"  subtokens per token : {enc.subtoken_count_per_token}")
print(f"  first-subtoken index: {enc.first_subtoken_of_token}")

# First-subword pooling turns per-subtoken vectors into per-token vectors
# by pure row selection (the encoder gathers these rows with
# autodiff.take_rows); here with a toy 2-d state per subtoken.
states = np.arange(len(enc.ids) * 2, dtype=float).reshape(len(enc.ids), 2)
pooled = states[enc.first_subtoken_of_token]
print(f"\nsubtoken states shape {states.shape} -> token states shape {pooled.shape}")
for tok, row in zip(sentence, pooled):
    print(f"  {tok!r:12} uses state {row}")

# The vocabulary serializes to a plain text file and loads back losslessly.
print("\nserialized vocab header:")
print("\n".join(vocab.dumps().splitlines()[:5]))
