import pytest

from docner.corpus import parse_conll
from docner.tokenizer import SubwordEncoding, SubwordVocab, encode, train_vocab


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


class TestSubwordEncodingInvariants:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            SubwordEncoding(ids=[1, 2], first_subtoken_of_token=[0],
                            subtoken_count_per_token=[1])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            SubwordEncoding(ids=[], first_subtoken_of_token=[0],
                            subtoken_count_per_token=[0])
