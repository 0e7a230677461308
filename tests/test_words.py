import copy
import gc
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import xoverlab
import xoverlab.words as words_mod
from xoverlab.crossover import (
    closure,
    lex_extreme_path_vertices,
    rset,
    rset_recursive,
)
from xoverlab.graphs import hamming_graph
from xoverlab.words import (
    AlphabetSpec,
    BudgetExceededError,
    IncompatibleWordsError,
    Word,
    WordSet,
    hamming_distance,
    interval,
    phi,
)


def spec_of(*sizes):
    return AlphabetSpec(tuple(sizes))


class TestAlphabetSpec:
    def test_parse_forms(self):
        assert AlphabetSpec.parse("2^4") == spec_of(2, 2, 2, 2)
        assert AlphabetSpec.parse("3,3") == spec_of(3, 3)
        assert AlphabetSpec.parse("2^3,3") == spec_of(2, 2, 2, 3)
        assert AlphabetSpec.parse("4") == spec_of(4)

    def test_parse_rejects_garbage(self):
        for bad in ("", "2^0", "1,2", "2^-1", "a", "2^^3", "2^-1,2", "2^0,3"):
            with pytest.raises(ValueError):
                AlphabetSpec.parse(bad)

    def test_size_and_str(self):
        s = spec_of(2, 3, 4)
        assert s.n == 3
        assert s.size == 24
        assert str(s) == "2,3,4"

    def test_sizes_below_two_rejected(self):
        with pytest.raises(ValueError):
            spec_of(2, 1, 2)

    def test_budget(self):
        s = spec_of(2, 2, 2)
        s.check_budget(8)
        with pytest.raises(BudgetExceededError):
            s.check_budget(7)

    def test_iter_words_is_lex_and_matches_index(self):
        s = spec_of(2, 3)
        words = list(s.iter_words())
        assert [w.letters for w in words] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert [w.index for w in words] == list(range(6))


class TestWord:
    def test_index_roundtrip(self):
        s = spec_of(3, 2, 4)
        for i in range(s.size):
            assert Word.from_index(i, s).index == i

    def test_binary_index_is_bit_packing(self):
        s = spec_of(2, 2, 2, 2)
        assert Word.parse("1011", s).index == 0b1011

    def test_index_is_stored_at_construction(self):
        # a stored slot, read through the slot descriptor itself, not a
        # property computed on read
        assert "index" in Word.__slots__
        s = spec_of(3, 2, 4)
        w = Word((2, 1, 3), s)
        assert Word.index.__get__(w) == s.index_of((2, 1, 3)) == s.size - 1
        decoded = WordSet.from_indices([5], s).members[0]
        assert Word.index.__get__(decoded) == 5
        # the index is derived, so it takes no part in equality, hash or repr
        assert decoded == Word.from_index(5, s)
        assert hash(decoded) == hash(Word.from_index(5, s))
        assert "index" not in repr(w)

    def test_slotted_words_survive_pickle_and_deepcopy(self):
        s = spec_of(3, 2, 4)
        for w in (Word((2, 1, 3), s), WordSet.from_indices([5], s).members[0]):
            assert not hasattr(w, "__dict__")
            for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
                assert twin == w and hash(twin) == hash(w)
                assert Word.index.__get__(twin) == w.index
                assert twin.spec == s

    def test_parse_compact_and_comma(self):
        s = spec_of(2, 2, 2)
        assert Word.parse("011", s) == Word((0, 1, 1), s)
        assert Word.parse("0,1,1", s) == Word((0, 1, 1), s)

    def test_invalid_letter_message_is_positional(self):
        s = spec_of(2, 2)
        with pytest.raises(ValueError, match="position 2"):
            Word((0, 5), s)

    @pytest.mark.parametrize("letters,message", [
        ((0, -1, 0), "invalid letter -1 at position 2"),
        ((2, 0, 9), "invalid letter 2 at position 1"),
        ((1, 0, 4), "invalid letter 4 at position 3"),
        ((0, 0), "word has 2 letters, alphabet has 3 positions"),
    ])
    def test_first_invalid_letter_is_reported(self, letters, message):
        with pytest.raises(ValueError, match=message):
            Word(letters, spec_of(2, 3, 4))

    def test_cross_spec_comparison_rejected(self):
        a = Word((0,), spec_of(2))
        b = Word((0,), spec_of(3))
        for compare in (lambda: a < b, lambda: a <= b, lambda: a > b,
                        lambda: a >= b):
            with pytest.raises(IncompatibleWordsError):
                compare()

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_order_matches_index_order(self, i, j):
        s = spec_of(2, 2, 2)
        a, b = Word.from_index(i, s), Word.from_index(j, s)
        assert (a < b) == (i < j)
        assert (a <= b) == (i <= j)
        assert (a > b) == (i > j)
        assert (a >= b) == (i >= j)
        assert (a == b) == (i == j)


class TestWordSet:
    def test_canonical_order_and_dedup(self):
        s = spec_of(2, 2)
        ws = WordSet([Word.parse("10", s), Word.parse("01", s), Word.parse("10", s)])
        assert ws.to_text() == ["01", "10"]
        assert len(ws) == 2

    def test_empty_needs_explicit_spec(self):
        with pytest.raises(ValueError):
            WordSet([])
        ws = WordSet([], spec=spec_of(2, 2))
        assert len(ws) == 0

    def test_equality_and_hash(self):
        s = spec_of(2, 2)
        a = WordSet([Word.parse("00", s), Word.parse("11", s)])
        b = WordSet([Word.parse("11", s), Word.parse("00", s)])
        assert a == b and hash(a) == hash(b)

    def test_indices_frozenset(self):
        s = spec_of(2, 2)
        ws = WordSet([Word.parse("01", s), Word.parse("11", s)])
        assert ws.indices == frozenset({1, 3})


def reference_letters(index, sizes):
    """Mixed-radix digits by repeated division, position 1 most significant."""
    out = []
    for a in reversed(sizes):
        index, r = divmod(index, a)
        out.append(r)
    return tuple(reversed(out))


# 2^20 and (300, 2, 300) decode through three runs; 300 > 256 has no table
DECODER_SPECS = [(2,) * n for n in range(1, 11)] + [
    (3, 3, 3), (2, 3, 4) * 2, (300, 2), (2,) * 20, (300, 2, 300),
]


class TestDecoder:
    @pytest.mark.parametrize(
        "sizes", DECODER_SPECS, ids=lambda t: ",".join(map(str, t)))
    def test_decoded_letters_match_enumeration(self, sizes):
        s = AlphabetSpec(sizes)
        if s.size <= 4096:
            idxs = list(range(s.size))
            want = [w.letters for w in s.iter_words()]
            assert want == [reference_letters(i, sizes) for i in idxs]
        else:
            rng = random.Random(len(sizes))
            idxs = sorted({0, s.size - 1, *rng.sample(range(s.size), 2000)})
            want = [reference_letters(i, sizes) for i in idxs]
        ws = WordSet.from_indices(reversed(idxs), s)
        assert [w.letters for w in ws] == want
        assert [w.index for w in ws] == list(ws.sorted_indices) == idxs
        assert all(w.spec is s for w in ws)
        assert [Word.from_index(i, s).letters for i in idxs] == want

    @pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2, 4), (2,) * 20])
    def test_out_of_range_indices_rejected(self, sizes):
        s = AlphabetSpec(sizes)
        for bad in (-1, s.size, s.size + 5):
            with pytest.raises(ValueError, match="out of range"):
                Word.from_index(bad, s)
            with pytest.raises(ValueError, match="out of range"):
                WordSet.from_indices([0, bad, 1], s)

    def test_out_of_range_rejected_under_optimize(self):
        src = str(Path(xoverlab.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from xoverlab.words import AlphabetSpec, Word, WordSet\n"
            "s = AlphabetSpec((2, 3))\n"
            "for call in (lambda: Word.from_index(-1, s),\n"
            "             lambda: Word.from_index(6, s),\n"
            "             lambda: WordSet.from_indices([-1, 0], s),\n"
            "             lambda: WordSet.from_indices([6], s)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError:\n"
            "        continue\n"
            "    sys.exit('accepted')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_left_as_found(self, enabled):
        s = spec_of(2, 3)
        was = gc.isenabled()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert len(WordSet.from_indices(range(s.size), s).members) == s.size
            assert gc.isenabled() is enabled
            for bad in ([-1, 0], [s.size]):
                with pytest.raises(ValueError, match="out of range"):
                    WordSet.from_indices(bad, s)
                assert gc.isenabled() is enabled
        finally:
            if was:
                gc.enable()
            else:
                gc.disable()

    def test_duplicate_indices_collapse(self):
        s = spec_of(2, 3)
        ws = WordSet.from_indices([4, 1, 4, 1, 1], s)
        assert ws.indices == frozenset({1, 4}) and ws.to_text() == ["01", "11"]
        assert len(WordSet.from_indices([], s)) == 0

    @pytest.mark.parametrize("sizes", [(2,) * 6, (3, 2, 4), (2,) * 12])
    def test_agrees_with_word_constructor(self, sizes):
        s = AlphabetSpec(sizes)
        idxs = random.Random(7).sample(range(s.size), min(s.size, 40))
        built = WordSet([Word(reference_letters(i, sizes), s) for i in idxs])
        decoded = WordSet.from_indices(idxs, s)
        assert decoded.members == built.members
        assert [w.letters for w in decoded] == [w.letters for w in built]
        assert decoded.indices == built.indices
        assert decoded == built and hash(decoded) == hash(built)
        for w in decoded:
            assert w == Word(w.letters, s) and hash(w) == hash(Word(w.letters, s))


@pytest.fixture
def decodes(monkeypatch):
    """Calls of the set decoder, counted: one per WordSet whose words are built."""
    calls = []
    real = words_mod._decode_words

    def counting(indices, spec):
        calls.append(len(indices))
        return real(indices, spec)

    monkeypatch.setattr(words_mod, "_decode_words", counting)
    return calls


def _binary(text):
    return Word.parse(text, spec_of(*[2] * len(text)))


LAZY_PRODUCERS = {
    "rset": lambda: rset(3, _binary("0000000000"), _binary("1011011101")).members,
    "rset_n12": lambda: rset(3, _binary("0" * 12), _binary("1" * 12)).members,
    "rset_n16": lambda: rset(
        4, _binary("0110100110010110"), _binary("1001011011101001")).members,
    "rset_recursive": lambda: rset_recursive(
        3, _binary("0000000000"), _binary("1011011101")).members,
    "closure": lambda: closure(2, _binary("00000000"), _binary("11101110")),
    "lex_paths": lambda: lex_extreme_path_vertices(
        _binary("0110100"), _binary("1011001")),
    "interval": lambda: interval(Word((0, 1, 2), spec_of(3, 3, 4)),
                                 Word((2, 1, 0), spec_of(3, 3, 4))),
}


class TestLazyDecoding:
    @pytest.mark.parametrize("name", sorted(LAZY_PRODUCERS))
    def test_producers_decode_on_first_read_and_once(self, name, decodes):
        ws = LAZY_PRODUCERS[name]()
        assert decodes == []
        assert len(ws) > 1 and len(ws.indices) == len(ws.sorted_indices) == len(ws)
        assert decodes == []
        first = ws.members
        assert decodes == [len(ws)]
        assert ws.members is first
        for i, w in zip(ws.sorted_indices, first, strict=True):
            assert w.index == i and w.spec is ws.spec
            assert w.letters == reference_letters(i, ws.spec.sizes)
        assert list(ws) == list(first) and ws.to_text() == [str(w) for w in first]
        hash(ws), repr(ws)
        assert decodes == [len(ws)]

    def test_hamming_graph_decodes_its_set_once(self, decodes):
        # word_graph is the set's first and only reader
        g = hamming_graph(spec_of(2, 3, 2))
        assert g.n == 12 and decodes == [12]

    def test_empty_set_decodes_to_nothing(self, decodes):
        ws = WordSet.from_indices([], spec_of(2, 3))
        assert len(ws) == 0 and ws.indices == frozenset() and decodes == []
        assert ws.members == () and list(ws) == [] and ws.to_text() == []
        assert ws == WordSet([], spec=spec_of(2, 3))

    def test_out_of_range_raises_at_construction(self, decodes):
        s = spec_of(2, 3)
        for bad in ([0, -1], [s.size], [2, s.size + 3, 1]):
            with pytest.raises(ValueError, match="out of range"):
                WordSet.from_indices(bad, s)
        assert decodes == []

    def test_words_given_are_kept_as_members(self, decodes):
        s = spec_of(2, 3)
        given_words = [Word((1, 2), s), Word((0, 1), s)]
        ws = WordSet(given_words)
        assert all(a is b for a, b in zip(ws.members, given_words[::-1]))
        assert decodes == []


class TestWordSetEquality:
    @pytest.mark.parametrize("sizes", [(2,) * 6, (3, 2, 4), (300, 2)])
    def test_built_from_words_or_indices_equal_and_hash_equal(self, sizes, decodes):
        s = AlphabetSpec(sizes)
        idxs = random.Random(3).sample(range(s.size), 20)
        packed = WordSet.from_indices(idxs, s)
        built = WordSet([Word(reference_letters(i, sizes), s) for i in idxs])
        assert packed == built and built == packed and not packed != built
        assert decodes == []  # equality reads the indices only
        assert hash(packed) == hash(built) == hash(built.members)

    def test_same_indices_over_other_specs_unequal(self):
        a = WordSet.from_indices([1, 5], spec_of(2, 2, 2))
        b = WordSet.from_indices([1, 5], spec_of(2, 4))
        c = WordSet.from_indices([1, 5], spec_of(2, 2, 2))
        assert a != b and a == c and a.indices == b.indices
        assert WordSet.from_indices([1], spec_of(2, 2, 2)) != a

    @pytest.mark.parametrize("sizes", [(2,) * 5, (3, 2, 4)])
    def test_len_and_membership_agree_with_the_members(self, sizes):
        s = AlphabetSpec(sizes)
        ws = WordSet.from_indices(random.Random(5).sample(range(s.size), 11), s)
        inside = set(ws.members)
        assert len(ws) == len(ws.members) == len(inside)
        for w in s.iter_words():
            assert (w in ws) == (w in inside)
        other = AlphabetSpec(sizes + (2,))
        assert Word.from_index(ws.sorted_indices[0], other) not in ws
        assert ws.sorted_indices[0] not in ws and "0" not in ws


def test_hamming_distance_basic():
    s = spec_of(3, 3)
    assert hamming_distance(Word.parse("0,0", s), Word.parse("2,0", s)) == 1
    assert hamming_distance(Word.parse("0,1", s), Word.parse("1,2", s)) == 2


@given(st.integers(0, 15), st.integers(0, 15))
def test_hamming_distance_is_popcount_of_xor(i, j):
    s = spec_of(2, 2, 2, 2)
    a, b = Word.from_index(i, s), Word.from_index(j, s)
    assert hamming_distance(a, b) == bin(i ^ j).count("1")


def test_interval_is_product_of_pairs():
    s = spec_of(3, 3)
    iv = interval(Word.parse("0,0", s), Word.parse("1,2", s))
    # digits stay compact while every alphabet size is at most ten
    assert iv.to_text() == ["00", "02", "10", "12"]


def test_large_alphabet_words_render_comma_separated():
    s = spec_of(12, 2)
    assert str(Word((11, 1), s)) == "11,1"


@given(st.integers(0, 31), st.integers(0, 31))
def test_interval_size_is_two_power_distance(i, j):
    s = spec_of(2, 2, 2, 2, 2)
    a, b = Word.from_index(i, s), Word.from_index(j, s)
    assert len(interval(a, b)) == 2 ** hamming_distance(a, b)


def test_phi_values():
    # partial binomial sums
    assert phi(0, 5) == 1
    assert phi(1, 4) == 5
    assert phi(2, 4) == 11
    assert phi(7, 5) == 32
    with pytest.raises(ValueError):
        phi(-1, 3)
