"""Corpus I/O walkthrough: documents, tag schemes, and span extraction.

Run:  python demos/01_corpus_io_and_tag_schemes.py
"""

from docner import TagScheme, convert_scheme, parse_conll, spans_from_tags

# A CoNLL column file. Blank lines separate sentences; -DOCSTART- lines
# separate documents (files without them become a single document).
text = """-DOCSTART- O

I O
love O
Paris B-LOC

The O
city O
is O
charming O

-DOCSTART- O

Nordex B-ORG
Group I-ORG
opened O
in O
Berlin B-LOC
"""

corpus = parse_conll(text)
print(f"documents: {len(corpus.documents)}")
print(f"sentences: {corpus.num_sentences}, tokens: {corpus.num_tokens}")
print(f"entity types: {sorted(corpus.label_set)}, scheme: {corpus.scheme.name}")

for doc in corpus.documents:
    print(f"\n{doc.id}:")
    for sent in doc.sentences:
        pairs = " ".join(f"{t.text}/{t.gold_tag}" for t in sent.tokens)
        print(f"  [{sent.position_in_doc}] {pairs}")

# Span extraction is exact-match oriented: (type, start, end) triples.
tags = ["B-ORG", "I-ORG", "O", "B-LOC"]
print(f"\nspans of {tags}:")
for span in spans_from_tags(tags):
    print(f"  {span.entity_type} @ tokens {span.start}..{span.end}")

# Training happens in BIOES internally; conversion preserves the span set
# exactly and round-trips.
bioes = convert_scheme(tags, TagScheme.BIO, TagScheme.BIOES)
back = convert_scheme(bioes, TagScheme.BIOES, TagScheme.BIO)
print(f"\nBIO    : {tags}")
print(f"BIOES  : {bioes}")
print(f"back   : {back}  (round trip exact: {back == tags})")

# Malformed sequences are repaired rather than rejected, like the scorer.
print(f"\nrepair [O, I-PER] -> {convert_scheme(['O', 'I-PER'], TagScheme.BIO, TagScheme.BIO)}")
