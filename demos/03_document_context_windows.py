"""Document-level context as a slice of the corpus's subtoken stream:
windows, coverage, boundary enforcement.

Run:  python demos/03_document_context_windows.py
"""

from docner import ContextConfig, SubtokenStream, build_context, parse_conll, train_vocab

text = """-DOCSTART- O

market O
news O
arrived O
early O

Veltan B-ORG
shares O
rose O

analysts O
were O
surprised O

-DOCSTART- O

Veltan B-LOC
valley O
is O
quiet O
"""

corpus = parse_conll(text)
vocab = train_vocab(corpus, 80)
docs = corpus.documents
# Every sentence is encoded once; context is a slice of the concatenation.
stream = SubtokenStream(docs, vocab)
print(f"stream: {len(stream.ids)} subtokens, document ranges {stream.doc_ranges}")

# The middle sentence of document 0, with growing context windows. The
# assembled input is always [BOS] + left + core + right + [EOS].
target = docs[0].sentences[1]
print("core sentence:", " ".join(target.texts))
for window in (0, 4, 16, 64):
    ctx = build_context(target, stream, ContextConfig(window))
    print(f"  window {window:>3}: left={len(ctx.left_ids):>2} right={len(ctx.right_ids):>2} "
          f"assembled={ctx.assembled_length:>3} core offset={ctx.core_start}")

# Coverage: how much of the window was actually available.
cfg = ContextConfig(window=64)
for doc in docs:
    for sent in doc.sentences:
        ctx = build_context(sent, stream, cfg)
        print(f"doc{sent.doc_index} sent{sent.position_in_doc}: "
              f"left_used={len(ctx.left_ids):>2} right_used={len(ctx.right_ids):>2}")

# Boundary enforcement: the first sentence of document 1 sees document 0
# only when enforcement is off.
first = docs[1].sentences[0]
for enforce in (False, True):
    ctx = build_context(first, stream, ContextConfig(64, enforce_boundaries=enforce))
    print(f"doc1 sent0 enforce={enforce!s:5}: left context = {len(ctx.left_ids)} subtokens")

# Context slices neighbors mid-sentence when the window is tight: the
# nearest part of the neighboring sentence is kept.
tight = build_context(target, stream, ContextConfig(3))
_, previous = stream.sentences[0][0]  # (start offset, encoding) of doc 0 sent 0
print(f"\nwindow 3 left ids {tight.left_ids} == tail of previous sentence "
      f"{previous.ids[-3:]}")
