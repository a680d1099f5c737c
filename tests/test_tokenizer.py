import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docner import synthetic
from docner.corpus import parse_conll
from docner.tokenizer import SubwordEncoding, SubwordVocab, encode, train_vocab

from oracle_ops import reference_train_vocab

SPECIALS = ("<s>", "</s>", "<unk>", "<pad>")


def corpus_of(text):
    lines = "\n".join(f"{tok} O" for tok in text.split())
    return parse_conll(lines + "\n")


class TestTrainVocab:
    def test_single_merge(self):
        corpus = corpus_of("aaab aaab")
        base = 2 + 4  # alphabet {a, b} + specials
        vocab = train_vocab(corpus, base + 1)
        assert vocab.merges == [("a", "a")]
        assert len(vocab) == base + 1

    def test_zero_merges_is_character_level(self):
        corpus = corpus_of("abc cba")
        vocab = train_vocab(corpus, 3 + 4)
        assert vocab.merges == []
        assert len(vocab.encode_token("abc")) == 3

    def test_sentence_order_independence(self):
        a = parse_conll("x O\ny O\n\nfoo O\nbar O\n")
        b = parse_conll("foo O\nbar O\n\nx O\ny O\n")
        va, vb = train_vocab(a, 20), train_vocab(b, 20)
        assert va.merges == vb.merges
        assert va.alphabet == vb.alphabet

    def test_vocab_size_below_alphabet_errors(self):
        with pytest.raises(ValueError, match="below alphabet"):
            train_vocab(corpus_of("abcdef"), 5)

    def test_stops_when_no_pair_repeats(self):
        corpus = corpus_of("ab cd")
        vocab = train_vocab(corpus, 50)
        assert len(vocab) < 50  # nothing occurs twice, no merges possible

    def test_tie_break_lexicographic(self):
        # all pairs occur exactly twice; (a,b) is the lexicographic minimum
        corpus = corpus_of("abq abq baz baz")
        vocab = train_vocab(corpus, 4 + 4 + 1)  # alphabet + specials + 1 merge
        assert vocab.merges == [("a", "b")]

    @pytest.mark.parametrize("special", SPECIALS)
    def test_token_spelling_a_special_trains(self, special):
        """BPE would merge the token's characters into the special's own
        string; that merge is skipped, and the token still round-trips."""
        tokens = [special] * 3 + [f"x{special}", "ab", "ab"]
        vocab = train_vocab(corpus_of(" ".join(tokens)), 100)
        assert special not in {a + b for a, b in vocab.merges}
        assert ("a", "b") in vocab.merges
        enc = encode(tokens, vocab)
        assert vocab.unk_id not in enc.ids
        assert [vocab.decode(enc.ids[f:f + n]) for f, n in
                zip(enc.first_subtoken_of_token, enc.subtoken_count_per_token)] == tokens


def assert_reference_merges(corpus, vocab_size):
    """`train_vocab` takes the reference loop's merges. The reference also
    takes a merge that spells a symbol it already has, which `train_vocab`
    skips, so from there on the two may differ."""
    expected = reference_train_vocab(corpus, vocab_size)
    got = train_vocab(corpus, vocab_size).merges
    symbols = set(SPECIALS) | {c for sent in corpus.sentences() for t in sent.texts
                               for c in t}
    for k, (a, b) in enumerate(expected):
        if a + b in symbols:
            assert got[:k] == expected[:k]
            assert (a, b) not in got
            return
        symbols.add(a + b)
    assert got == expected


class TestTrainVocabAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_merges_match_the_reference_loop(self, data):
        """Small alphabets make counts tie often; runs of one character
        make pairs overlap; tokens that spell a special exercise the skipped
        merges; vocab sizes run from the alphabet floor to past the last
        possible merge."""
        alphabet = data.draw(st.sampled_from(["a", "ab", "abc", "abcdefgh", "<s>/a"]))
        char = st.sampled_from(alphabet)
        token = st.one_of(st.text(char, min_size=1, max_size=8),
                          st.builds(lambda c, n: c * n, char, st.integers(1, 9)),
                          st.sampled_from(SPECIALS) if "<" in alphabet else st.nothing())
        tokens = data.draw(st.lists(token, min_size=1, max_size=30))
        base = len(set("".join(tokens))) + len(SPECIALS)
        size = base + data.draw(st.integers(0, 120))
        assert_reference_merges(corpus_of(" ".join(tokens)), size)

    @pytest.mark.parametrize("make,docs", [(synthetic.cue_corpus, 250),
                                           (synthetic.adversarial_boundary_corpus, 150),
                                           (synthetic.cue_corpus, 70)])
    def test_benchmark_training_corpora(self, make, docs):
        """The training corpora of the three benchmark workloads, at their
        vocab size and at one large enough to run out of pairs."""
        corpus = make(docs, seed=7, split="train")
        for size in (260, 1000):
            assert_reference_merges(corpus, size)


def eiffel_vocab():
    """Hand-built merges splitting 'Eiffel' into E + iff + el."""
    alphabet = sorted(set("TheEiffelTower"))
    merges = [("T", "h"), ("Th", "e"), ("o", "w"), ("e", "r"),
              ("T", "ow"), ("Tow", "er"), ("i", "f"), ("if", "f"), ("e", "l")]
    return SubwordVocab(alphabet=alphabet, merges=merges)


class TestEncode:
    def test_first_subword_alignment_structure(self):
        vocab = eiffel_vocab()
        enc = encode(["The", "Eiffel", "Tower"], vocab)
        assert enc.subtoken_count_per_token == [1, 3, 1]
        assert enc.first_subtoken_of_token == [0, 1, 4]
        assert vocab.decode(enc.ids) == "TheEiffelTower"

    def test_single_known_token(self):
        vocab = eiffel_vocab()
        enc = encode(["The"], vocab)
        assert len(enc.ids) == 1
        assert enc.first_subtoken_of_token == [0]

    def test_unknown_characters_map_to_unk(self):
        vocab = eiffel_vocab()
        enc = encode(["zzz"], vocab)
        assert enc.ids == [vocab.unk_id] * 3

    def test_alignment_strictly_increasing(self, two_doc_corpus, small_vocab):
        for sent in two_doc_corpus.sentences():
            enc = encode(sent.texts, small_vocab)
            firsts = enc.first_subtoken_of_token
            assert all(a < b for a, b in zip(firsts, firsts[1:]))
            assert sum(enc.subtoken_count_per_token) == len(enc.ids)

    def test_tokens_never_merge_across_whitespace(self, small_vocab):
        joint = encode(["love", "Paris"], small_vocab)
        solo = encode(["love"], small_vocab).ids + encode(["Paris"], small_vocab).ids
        assert joint.ids == solo

    def test_lossless_for_in_alphabet_text(self, two_doc_corpus, small_vocab):
        for sent in two_doc_corpus.sentences():
            for token in sent.texts:
                assert small_vocab.decode(small_vocab.encode_token(token)) == token


class TestSerialization:
    def test_round_trip(self, small_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        small_vocab.save(path)
        loaded = SubwordVocab.load(path)
        assert loaded.merges == small_vocab.merges
        assert loaded.alphabet == small_vocab.alphabet
        assert loaded.symbol_to_id == small_vocab.symbol_to_id
        assert loaded.encode_token("Paris") == small_vocab.encode_token("Paris")

    def test_sections_ordered_merges_then_specials(self, small_vocab):
        text = small_vocab.dumps()
        assert text.index("#merges") < text.index("#specials")

    def test_non_ascii_symbols(self):
        corpus = corpus_of("née née")
        vocab = train_vocab(corpus, 20)
        loaded = SubwordVocab.loads(vocab.dumps())
        assert loaded.encode_token("née") == vocab.encode_token("née")

    def test_hash_symbols_round_trip(self):
        vocab = train_vocab(corpus_of("#1 #1 #1 a#b"), 10)
        assert "#" in vocab.alphabet and ("#", "1") in vocab.merges
        loaded = SubwordVocab.loads(vocab.dumps())
        assert loaded.alphabet == vocab.alphabet
        assert loaded.merges == vocab.merges
        assert loaded.encode_token("a#1") == vocab.encode_token("a#1")


class TestMalformedVocabText:
    @pytest.mark.parametrize("text,line", [
        ("#alphabet\na\nb\n#merges\na\n", "5 'a'"),
        ("#alphabet\na\nb\n#merges\na b a\n", "5 'a b a'"),
        ("#alphabet\na\n#merges\na b\n", "4 'a b'"),
        ("#alphabet\na\nb\n#merges\nab a\na b\n", "5 'ab a'"),
        ("#alphabet\n\\x\n", r"2 '\\\\x'"),
    ], ids=["one-symbol", "three-symbols", "unknown-part", "part-defined-below",
            "broken-escape"])
    def test_error_gives_the_line(self, text, line):
        with pytest.raises(ValueError, match=f"^vocab line {line}"):
            SubwordVocab.loads(text)

    @pytest.mark.parametrize("make,docs", [(synthetic.cue_corpus, 250),
                                           (synthetic.adversarial_boundary_corpus, 150),
                                           (synthetic.cue_corpus, 70)])
    def test_benchmark_training_vocabs_round_trip(self, make, docs):
        vocab = train_vocab(make(docs, seed=7, split="train"), 260)
        loaded = SubwordVocab.loads(vocab.dumps())
        assert (loaded.alphabet, loaded.merges) == (vocab.alphabet, vocab.merges)
        assert loaded.id_to_symbol == vocab.id_to_symbol


class TestSubwordEncodingInvariants:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            SubwordEncoding(ids=[1, 2], first_subtoken_of_token=[0],
                            subtoken_count_per_token=[1])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            SubwordEncoding(ids=[], first_subtoken_of_token=[0],
                            subtoken_count_per_token=[0])
