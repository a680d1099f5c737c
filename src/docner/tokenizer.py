"""Trainable byte-pair-encoding subword tokenizer with token alignment.

Tokens are encoded independently (merges never cross whitespace), so the
token -> first-subtoken alignment needed for first-subword pooling is exact
by construction. Training is deterministic: the most frequent adjacent pair
wins each round, ties broken lexicographically.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .corpus import Corpus

BOS, EOS, UNK, PAD = "<s>", "</s>", "<unk>", "<pad>"
_SPECIALS = (BOS, EOS, UNK, PAD)


@dataclass
class SubwordVocab:
    """Alphabet + ordered merges, with dense ids (specials first)."""

    alphabet: list[str]
    merges: list[tuple[str, str]]
    symbol_to_id: dict[str, int] = field(init=False, repr=False)
    id_to_symbol: list[str] = field(init=False, repr=False)
    merge_rank: dict[tuple[str, str], int] = field(init=False, repr=False)

    def __post_init__(self):
        symbols = list(_SPECIALS) + list(self.alphabet)
        for a, b in self.merges:
            symbols.append(a + b)
        self.id_to_symbol = symbols
        self.symbol_to_id = {s: i for i, s in enumerate(symbols)}
        if len(self.symbol_to_id) != len(symbols):
            raise ValueError("duplicate symbols in vocabulary")
        self.merge_rank = {pair: i for i, pair in enumerate(self.merges)}
        self._known = set(self.alphabet)
        self._cache: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.id_to_symbol)

    @property
    def bos_id(self) -> int:
        return self.symbol_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self.symbol_to_id[EOS]

    @property
    def unk_id(self) -> int:
        return self.symbol_to_id[UNK]

    @property
    def pad_id(self) -> int:
        return self.symbol_to_id[PAD]

    def encode_token(self, token: str) -> list[int]:
        """Segment one token by applying merges in training order."""
        cached = self._cache.get(token)
        if cached is not None:
            return list(cached)
        parts: list[str] = [c if c in self._known else UNK for c in token]
        while len(parts) > 1:
            best_rank, best_idx = None, None
            for i in range(len(parts) - 1):
                rank = self.merge_rank.get((parts[i], parts[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank, best_idx = rank, i
            if best_idx is None:
                break
            parts[best_idx:best_idx + 2] = [parts[best_idx] + parts[best_idx + 1]]
        ids = [self.symbol_to_id[p] for p in parts]
        self._cache[token] = ids
        return list(ids)

    def decode(self, ids: list[int]) -> str:
        return "".join(self.id_to_symbol[i] for i in ids)

    # -- text serialization: alphabet, then merges in training order,
    # -- then special-token declarations ---------------------------------

    def dumps(self) -> str:
        lines = ["#alphabet"]
        lines += [_escape(c) for c in self.alphabet]
        lines.append("#merges")
        lines += [f"{_escape(a)} {_escape(b)}" for a, b in self.merges]
        lines.append("#specials")
        lines += [f"{name} {self.symbol_to_id[sym]}"
                  for name, sym in zip(("BOS", "EOS", "UNK", "PAD"), _SPECIALS)]
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "SubwordVocab":
        """Parse `dumps` text. A malformed line, or a merge of anything but
        two symbols defined above it, is a ValueError giving the line."""
        alphabet: list[str] = []
        merges: list[tuple[str, str]] = []
        symbols: set[str] = set()
        section = None
        for number, line in enumerate(text.splitlines(), 1):
            if line.startswith("#"):
                section = line[1:].strip()
                continue
            if not line or section == "specials":
                continue  # special ids are positional, declarations are informative
            try:
                if section == "alphabet":
                    alphabet.append(_unescape(line))
                    symbols.add(alphabet[-1])
                elif section != "merges":
                    raise ValueError("unexpected line outside a section")
                else:
                    parts = [_unescape(part) for part in line.split(" ")]
                    if len(parts) != 2:
                        raise ValueError("a merge line holds two symbols")
                    if not symbols.issuperset(parts):
                        raise ValueError("a merge part is not a symbol defined above it")
                    merges.append((parts[0], parts[1]))
                    symbols.add(parts[0] + parts[1])
            except ValueError as err:
                raise ValueError(f"vocab line {number} {line!r}: {err}") from None
        return cls(alphabet=alphabet, merges=merges)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "SubwordVocab":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())


def _escape(s: str) -> str:
    """`unicode_escape` text with `#` written as `\\x23`, so that no symbol
    line reads as a section header."""
    return s.encode("unicode_escape").decode("ascii").replace("#", r"\x23")


def _unescape(s: str) -> str:
    return s.encode("ascii").decode("unicode_escape")


@dataclass
class SubwordEncoding:
    """Subtoken ids for a sentence plus token alignment bookkeeping."""

    ids: list[int]
    first_subtoken_of_token: list[int]
    subtoken_count_per_token: list[int]

    def __post_init__(self):
        if sum(self.subtoken_count_per_token) != len(self.ids):
            raise ValueError("subtoken counts do not sum to the id count")
        if any(c < 1 for c in self.subtoken_count_per_token):
            raise ValueError("every token needs at least one subtoken")

    @property
    def num_tokens(self) -> int:
        return len(self.first_subtoken_of_token)


def train_vocab(corpus: Corpus, vocab_size: int) -> SubwordVocab:
    """Greedy BPE over characters of the corpus tokens.

    Repeatedly merges the most frequent adjacent symbol pair (lexicographic
    tie-break) until `vocab_size` total symbols are reached or no pair
    occurs twice. A pair whose merge would spell a symbol the vocabulary
    already has (a special such as ``<s>``, or an earlier merge) is never
    taken. Deterministic for a fixed corpus, independent of sentence order.

    The pair counts are kept across merges (Sennrich et al. 2016): an index
    from each pair to the words holding it names the words a merge
    rewrites, and only their pairs are recounted. The best pair comes off
    a heap of (-count, pair) entries; an entry whose count is no longer
    the pair's is stale and skipped.
    """
    token_counts = Counter(tok.text for sent in corpus.sentences()
                           for tok in sent.tokens)
    alphabet = sorted({c for token in token_counts for c in token})
    base = len(alphabet) + len(_SPECIALS)
    if vocab_size < base:
        raise ValueError(f"vocab_size {vocab_size} is below alphabet "
                         f"size + specials ({base})")

    words = [[*tok] for tok in token_counts]
    counts = list(token_counts.values())
    pair_counts: dict[tuple[str, str], int] = {}
    holders: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for w, parts in enumerate(words):
        for pair in zip(parts, parts[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + counts[w]
            holders[pair].add(w)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    symbols = set(_SPECIALS) | set(alphabet)
    merges: list[tuple[str, str]] = []
    while heap and base + len(merges) < vocab_size:
        neg_count, (a, b) = heapq.heappop(heap)
        count = -neg_count
        if pair_counts.get((a, b)) != count or a + b in symbols:
            continue  # a stale entry, or a merge spelling an existing symbol
        if count < 2:
            break
        merged = a + b
        merges.append((a, b))
        symbols.add(merged)
        delta: dict[tuple[str, str], int] = {}
        for w in holders.pop((a, b)):
            parts, cnt = words[w], counts[w]
            new, i, last = [], 0, len(parts) - 1
            while i <= last:
                if parts[i] == a and i < last and parts[i + 1] == b:
                    new.append(merged)
                    i += 2
                else:
                    new.append(parts[i])
                    i += 1
            if len(new) == len(parts):
                continue  # the pair left this word in an earlier merge
            for pair in zip(parts, parts[1:]):
                delta[pair] = delta.get(pair, 0) - cnt
            for pair in zip(new, new[1:]):
                delta[pair] = delta.get(pair, 0) + cnt
                holders[pair].add(w)
            words[w] = new
        for pair, d in delta.items():
            if d:
                total = pair_counts.get(pair, 0) + d
                if total:
                    pair_counts[pair] = total
                    heapq.heappush(heap, (-total, pair))
                else:
                    del pair_counts[pair]
    return SubwordVocab(alphabet=alphabet, merges=merges)


def encode(tokens: list[str], vocab: SubwordVocab) -> SubwordEncoding:
    """Encode a token sequence; alignment records the first subtoken of each."""
    ids: list[int] = []
    firsts: list[int] = []
    counts: list[int] = []
    for token in tokens:
        piece = vocab.encode_token(token)
        firsts.append(len(ids))
        counts.append(len(piece))
        ids.extend(piece)
    return SubwordEncoding(ids=ids, first_subtoken_of_token=firsts,
                           subtoken_count_per_token=counts)

