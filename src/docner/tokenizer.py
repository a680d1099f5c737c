"""Trainable byte-pair-encoding subword tokenizer with token alignment.

Tokens are encoded independently (merges never cross whitespace), so the
token -> first-subtoken alignment needed for first-subword pooling is exact
by construction. Training is deterministic: the most frequent adjacent pair
wins each round, ties broken lexicographically.
"""

from __future__ import annotations

from collections import Counter
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
        known = set(self.alphabet)
        parts: list[str] = [c if c in known else UNK for c in token]
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
        alphabet: list[str] = []
        merges: list[tuple[str, str]] = []
        section = None
        for line in text.splitlines():
            if line.startswith("#"):
                section = line[1:].strip()
                continue
            if not line:
                continue
            if section == "alphabet":
                alphabet.append(_unescape(line))
            elif section == "merges":
                a, b = line.split(" ")
                merges.append((_unescape(a), _unescape(b)))
            elif section == "specials":
                pass  # ids are positional, declarations are informative
            else:
                raise ValueError(f"unexpected line outside a section: {line!r}")
        return cls(alphabet=alphabet, merges=merges)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "SubwordVocab":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())


def _escape(s: str) -> str:
    return s.encode("unicode_escape").decode("ascii")


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
    occurs twice. Deterministic for a fixed corpus, independent of sentence
    order.
    """
    token_counts: Counter[str] = Counter()
    for sent in corpus.sentences():
        token_counts.update(sent.texts)

    alphabet = sorted({c for token in token_counts for c in token})
    base = len(alphabet) + len(_SPECIALS)
    if vocab_size < base:
        raise ValueError(f"vocab_size {vocab_size} is below alphabet "
                         f"size + specials ({base})")

    words: dict[str, tuple[list[str], int]] = {
        tok: ([*tok], cnt) for tok, cnt in sorted(token_counts.items())
    }
    merges: list[tuple[str, str]] = []
    while base + len(merges) < vocab_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for parts, cnt in words.values():
            for i in range(len(parts) - 1):
                pair_counts[(parts[i], parts[i + 1])] += cnt
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), count = best
        if count < 2:
            break
        merges.append((a, b))
        merged = a + b
        for tok, (parts, cnt) in words.items():
            i = 0
            while i < len(parts) - 1:
                if parts[i] == a and parts[i + 1] == b:
                    parts[i:i + 2] = [merged]
                else:
                    i += 1
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

