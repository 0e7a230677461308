"""Recombination sets: the fast switch-pattern route is pinned against the
literal cut-enumeration definition before anything else trusts it."""

import itertools
import operator
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import xoverlab.crossover as crossover_mod
from xoverlab.crossover import (
    CutSet,
    closure,
    find_parents,
    is_closed,
    lex_extreme_path_vertices,
    recombine,
    rset,
    rset_by_cut_enumeration,
    rset_recursive,
    rset_size_formula,
    transit_graph,
)
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


def bspec(n):
    return AlphabetSpec((2,) * n)


def bword(text):
    return Word.parse(text, bspec(len(text)))


def block_count(w, reference):
    """Maximal constant runs of the binary word w XOR reference."""
    bits = [a ^ b for a, b in zip(w.letters, reference.letters)]
    return 1 + sum(cur != prev for prev, cur in zip(bits, bits[1:]))


def median(x, y, z):
    """Coordinatewise majority of three binary words."""
    return Word(tuple(int(a + b + c >= 2) for a, b, c in
                      zip(x.letters, y.letters, z.letters)), x.spec)


def all_pairs(spec):
    words = list(spec.iter_words())
    return itertools.combinations(words, 2)


class TestCutSet:
    def test_positions_validated(self):
        with pytest.raises(ValueError):
            CutSet((0,))
        with pytest.raises(ValueError):
            CutSet((2, 2))
        with pytest.raises(ValueError):
            CutSet((3, 1))
        with pytest.raises(ValueError):
            CutSet((1,), order="third")

    def test_recombine_segments(self):
        x, y = bword("0000"), bword("1111")
        assert str(recombine(x, y, CutSet((2,)))) == "0011"
        assert str(recombine(x, y, CutSet((2,), order="second"))) == "1100"
        assert str(recombine(x, y, CutSet((1, 3)))) == "0110"

    def test_cut_position_range_is_checked_against_length(self):
        x, y = bword("00"), bword("11")
        with pytest.raises(ValueError):
            recombine(x, y, CutSet((2,)))


class TestRSetAgainstDefinition:
    """The one check everything else leans on."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_binary_exhaustive(self, n):
        spec = bspec(n)
        for k in range(1, min(n, 4) + 1):
            for x, y in all_pairs(spec):
                assert rset(k, x, y).members == rset_by_cut_enumeration(k, x, y)

    @pytest.mark.parametrize("sizes", [(3, 3), (2, 3), (3, 2, 2), (2, 3, 4), (3, 3, 3)])
    def test_mixed_alphabets_exhaustive(self, sizes):
        spec = AlphabetSpec(sizes)
        for k in (1, 2, 3):
            for x, y in all_pairs(spec):
                assert rset(k, x, y).members == rset_by_cut_enumeration(k, x, y)

    def test_oracle_does_not_decode_packed_indices(self, monkeypatch):
        # the oracle must not share the fast path's decoder
        x, y = bword("00000"), bword("10110")
        want = rset(2, x, y).members

        def refuse(cls, indices, spec):
            raise AssertionError("oracle decoded packed indices")

        monkeypatch.setattr(WordSet, "from_indices", classmethod(refuse))
        assert rset_by_cut_enumeration(2, x, y) == want

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_binary_sampled_large(self, n):
        rng = random.Random(n)
        spec = bspec(n)
        for _ in range(25):
            x = Word.from_index(rng.randrange(spec.size), spec)
            y = Word.from_index(rng.randrange(spec.size), spec)
            k = rng.randint(1, 4)
            assert rset(k, x, y).members == rset_by_cut_enumeration(k, x, y)

    def test_ternary_sampled_past_two_mask_bytes(self):
        # t >= 17 differing positions put bits in a third byte of the mask,
        # so the scatter sums three byte tables
        rng = random.Random(18)
        spec = AlphabetSpec((3,) * 18)
        for trial in range(12):
            x = [rng.randrange(3) for _ in range(18)]
            y = [(a + rng.randrange(1, 3)) % 3 for a in x]
            if trial % 2:
                p = rng.randrange(18)
                y[p] = x[p]
            x, y = Word(tuple(x), spec), Word(tuple(y), spec)
            assert hamming_distance(x, y) == 18 - trial % 2
            k = rng.randint(1, 4)
            assert rset(k, x, y).members == rset_by_cut_enumeration(k, x, y)

    @pytest.mark.parametrize("t", range(13))
    def test_patterns_are_the_masks_with_at_most_k_switches(self, t):
        # D(w) = w ^ (w >> 1) on the low t - 1 bits marks w's switches
        low = (1 << t >> 1) - 1
        switches = [((w ^ w >> 1) & low).bit_count() for w in range(2 ** t)]
        for k in (*range(1, t + 3), 10 ** 6):
            expected = tuple(w for w, s in enumerate(switches) if s <= k)
            assert crossover_mod._patterns(k, t) == expected, (k, t)

    def test_patterns_are_cached_per_k_and_distance(self):
        # parents at the same distance share one pattern entry, whatever
        # their positions and alphabet
        crossover_mod._patterns.cache_clear()
        try:
            rset(2, bword("0011010"), bword("1010011"))
            misses = crossover_mod._patterns.cache_info().misses
            assert misses == 1
            spec = AlphabetSpec((3, 2, 4, 3, 2))
            rset(2, Word((0, 1, 3, 2, 0), spec), Word((2, 1, 1, 2, 1), spec))
            info = crossover_mod._patterns.cache_info()
            assert (info.misses, info.hits) == (misses, 1)
        finally:
            crossover_mod._patterns.cache_clear()

    def test_translation_invariance(self):
        # shifting both parents by the same mask shifts the whole set
        spec = bspec(6)
        rng = random.Random(7)
        for _ in range(50):
            xi, yi, m = (rng.randrange(64) for _ in range(3))
            base = {w.index for w in rset(2, Word.from_index(xi, spec),
                                          Word.from_index(yi, spec)).members}
            shifted = {w.index for w in rset(2, Word.from_index(xi ^ m, spec),
                                             Word.from_index(yi ^ m, spec)).members}
            assert shifted == {b ^ m for b in base}


class TestRSetStructure:
    def test_one_point_triple(self):
        r = rset(1, bword("000"), bword("111")).members
        assert r.to_text() == ["000", "001", "011", "100", "110", "111"]

    def test_two_point_four(self):
        r = rset(2, bword("0000"), bword("1111")).members
        assert len(r) == 14
        missing = set(bspec(4).iter_words()) - set(r)
        assert sorted(str(w) for w in missing) == ["0101", "1010"]

    def test_result_carries_parents_and_k(self):
        x, y = bword("01"), bword("10")
        res = rset(3, x, y)
        assert res.parents == (x, y) and res.k == 3

    def test_contained_in_interval(self):
        spec = bspec(5)
        for x, y in all_pairs(spec):
            assert set(rset(2, x, y).members) <= set(interval(x, y))

    def test_full_interval_iff_close(self):
        spec = bspec(6)
        for k in (1, 2, 3):
            for x, y in all_pairs(spec):
                full = rset(k, x, y).members == interval(x, y)
                assert full == (hamming_distance(x, y) <= k + 1)

    @given(st.integers(1, 4), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60)
    def test_symmetry_and_extensivity(self, k, i, j):
        spec = bspec(8)
        x, y = Word.from_index(i, spec), Word.from_index(j, spec)
        r = rset(k, x, y).members
        assert r == rset(k, y, x).members
        assert x in r and y in r

    def test_monotone_in_k(self):
        spec = bspec(6)
        x, y = Word.from_index(0, spec), Word.from_index(63, spec)
        prev = set(rset(1, x, y).members)
        for k in range(2, 6):
            cur = set(rset(k, x, y).members)
            assert prev <= cur
            prev = cur


class TestSizeFormula:
    def test_closed_form_values(self):
        assert rset_size_formula(1, 3) == 6
        assert rset_size_formula(2, 4) == 14
        assert rset_size_formula(2, 5) == 22
        assert rset_size_formula(3, 3) == 8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_enumeration(self, k):
        for t in range(0, 8):
            if t == 0:
                assert rset_size_formula(k, 0) == 1
                continue
            spec = bspec(t)
            x = Word((0,) * t, spec)
            y = Word((1,) * t, spec)
            assert len(rset(k, x, y).members) == rset_size_formula(k, t)

    def test_formula_cases(self):
        # full interval below the threshold, twice a binomial tail above
        assert rset_size_formula(4, 3) == 8
        assert rset_size_formula(2, 6) == 2 * phi(2, 5)

    def test_size_depends_only_on_distance(self):
        spec = bspec(6)
        rng = random.Random(3)
        for _ in range(40):
            i, j = rng.randrange(64), rng.randrange(64)
            x, y = Word.from_index(i, spec), Word.from_index(j, spec)
            t = hamming_distance(x, y)
            assert len(rset(2, x, y).members) == rset_size_formula(2, t)


class TestBlockRule:
    def test_example(self):
        assert block_count(bword("0110"), bword("0000")) == 3

    def test_membership_rule(self):
        # z belongs to R_k(0..0, 1..1) iff its run count is at most k+1
        spec = bspec(6)
        zero, one = Word((0,) * 6, spec), Word((1,) * 6, spec)
        for k in (1, 2, 3):
            r = set(rset(k, zero, one).members)
            for z in spec.iter_words():
                assert (z in r) == (block_count(z, zero) <= k + 1)


def literal_one_point_union(k, t):
    """R_k's masks as the union of R_1(0, z) and R_1(z, full) over R_{k-1},
    one cut side at a time over every member."""
    full = (1 << t) - 1
    lows = [(1 << c) - 1 for c in range(1, t)]
    sides = lows + [full ^ low for low in lows]
    zs = crossover_mod._patterns(k - 1, t)
    acc = {0, full}
    for side in sides:
        acc.update(map(side.__and__, zs))
        acc.update(map(side.__or__, zs))
    return acc


class TestRecursion:
    # the recursion asks the kernel for R_{k-1} only, so it is checked
    # against the literal oracle as well as against the kernel at k

    @pytest.mark.parametrize("k", range(2, 7))
    def test_nested_union_equals_literal_union(self, k):
        # from the all-zero to the all-one binary word the packed index of
        # an offspring is its mask, so the members' indices are the masks;
        # t = 0 is the one word 0 against itself
        for t in range(13):
            spec = bspec(max(t, 1))
            x, y = Word((0,) * spec.n, spec), Word((1,) * t or (0,), spec)
            members = rset_recursive(k, x, y).members
            assert members.indices == literal_one_point_union(k, t)

    def test_pairs_workload_shape(self):
        # n = t = 16, k = 6: the largest sets the pairs benchmark requests
        spec = bspec(16)
        rng = random.Random(16)
        x = Word(tuple(rng.randrange(2) for _ in range(16)), spec)
        y = Word(tuple(1 - a for a in x.letters), spec)
        members = rset_recursive(6, x, y).members
        assert members == rset(6, x, y).members
        assert len(members) == rset_size_formula(6, 16)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_direct(self, n):
        spec = bspec(n)
        for k in (2, 3):
            for x, y in all_pairs(spec):
                members = rset_recursive(k, x, y).members
                assert members == rset(k, x, y).members
                assert members == rset_by_cut_enumeration(k, x, y)

    def test_mixed_alphabet(self):
        for sizes in ((3, 3, 2), (2, 3, 4)):
            for k in (2, 3):
                for x, y in all_pairs(AlphabetSpec(sizes)):
                    members = rset_recursive(k, x, y).members
                    assert members == rset(k, x, y).members
                    assert members == rset_by_cut_enumeration(k, x, y)

    @pytest.mark.parametrize("size,n", [(2, 70), (3, 66)])
    def test_long_words_past_int64(self, size, n):
        # every position differs, so the masks need more than 63 bits
        spec = AlphabetSpec((size,) * n)
        rng = random.Random(n)
        x = [rng.randrange(size) for _ in range(n)]
        y = [(a + rng.randrange(1, size)) % size for a in x]
        x, y = Word(tuple(x), spec), Word(tuple(y), spec)
        members = rset_recursive(2, x, y).members
        assert len(members) == rset_size_formula(2, n)
        assert members == rset_by_cut_enumeration(2, x, y)

    @pytest.mark.parametrize("x,y", [("0110", "0110"), ("0110", "0100")])
    def test_edge_distances(self, x, y):
        # t = 0 leaves the one parent, t = 1 the two parents
        x, y = bword(x), bword(y)
        for k in (2, 3):
            members = rset_recursive(k, x, y).members
            assert members == WordSet([x, y])
            assert members == rset(k, x, y).members

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_one_kernel_lookup(self, k):
        # only R_{k-1} comes from the kernel; the one-point step is literal
        patterns = crossover_mod._patterns
        spec = bspec(14)
        x, y = Word.parse("01101100101101", spec), Word.parse("10010101010010", spec)
        assert hamming_distance(x, y) == 12
        patterns.cache_clear()
        try:
            rset_recursive(k, x, y)
            info = patterns.cache_info()
            assert (info.misses, info.currsize) == (1, 1)
            patterns(k - 1, 12)
            assert patterns.cache_info().hits == info.hits + 1
        finally:
            patterns.cache_clear()

    def test_needs_k_at_least_two(self):
        with pytest.raises(ValueError):
            rset_recursive(1, bword("0"), bword("1"))


@lru_cache(maxsize=None)
def _literal_rset(k, u, v, spec):
    return frozenset(
        w.letters for w in rset_by_cut_enumeration(k, Word(u, spec), Word(v, spec))
    )


def literal_closure(k, x, y):
    """Closure by the plain pairwise fixpoint over letter tuples.

    Every pair of members is recombined by the literal cut enumeration until
    no pair adds a word; no relabelling to difference positions and no stop
    at the parents' box.
    """
    spec = x.spec
    members = {x.letters, y.letters}
    pending = [(x.letters, y.letters)]
    while pending:
        u, v = pending.pop()
        for w in _literal_rset(k, u, v, spec):
            if w not in members:
                pending.extend((w, s) for s in members)
                members.add(w)
    return WordSet((Word(t, spec) for t in members), spec)


class TestClosure:
    @pytest.mark.parametrize("sizes", [
        (2,), (2, 2), (2, 2, 2), (2,) * 4, (2,) * 5, (3, 3), (3, 3, 3), (2, 3, 4),
    ])
    def test_equals_literal_closure(self, sizes):
        words = list(AlphabetSpec(sizes).iter_words())
        for k in range(1, 5):
            for x, y in itertools.combinations_with_replacement(words, 2):
                assert closure(k, x, y) == literal_closure(k, x, y), (k, x, y)

    @pytest.mark.parametrize("sizes,x,y", [
        ((2,) * 6, "010011", "101110"),
        ((2,) * 3, "000", "111"),
        ((3, 3, 3), "0,1,2", "2,1,0"),
        ((2, 3, 4), "0,0,0", "1,2,3"),
    ])
    def test_budget_binds_exactly_above_closure_size(self, sizes, x, y):
        spec = AlphabetSpec(sizes)
        x, y = Word.parse(x, spec), Word.parse(y, spec)
        for k in (1, 2):
            size = len(literal_closure(k, x, y))
            assert len(closure(k, x, y, budget=size)) == size
            message = f"space too large: closure exceeded budget {size - 1}"
            with pytest.raises(BudgetExceededError) as err:
                closure(k, x, y, budget=size - 1)
            assert str(err.value) == message

    def test_budget_counts_the_parents(self):
        spec = AlphabetSpec((2, 3))
        x, y = Word((0, 0), spec), Word((0, 2), spec)
        assert len(closure(1, x, x, budget=1)) == 1
        assert len(closure(1, x, y, budget=2)) == 2
        for budget, (u, v) in ((0, (x, x)), (1, (x, y))):
            with pytest.raises(BudgetExceededError, match=f"budget {budget}$"):
                closure(1, u, v, budget=budget)

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (2, 3, 4), (2, 2, 3, 3)])
    def test_is_closed_matches_literal_scan(self, sizes):
        spec = AlphabetSpec(sizes)
        for k in (1, 2, 3):
            for x, y in all_pairs(spec):
                members = {w.letters for w in rset_by_cut_enumeration(k, x, y)}
                literal = all(
                    _literal_rset(k, u, v, spec) <= members
                    for u, v in itertools.combinations(sorted(members), 2)
                )
                assert is_closed(k, x, y) == literal, (k, x, y)

    def test_equals_interval(self):
        for n in range(2, 6):
            spec = bspec(n)
            for k in (1, 2):
                for x, y in all_pairs(spec):
                    assert closure(k, x, y) == interval(x, y)

    def test_mixed_alphabet_closure_is_interval(self):
        spec = AlphabetSpec((3, 3))
        for x, y in all_pairs(spec):
            assert closure(1, x, y) == interval(x, y)

    def test_frozen_example(self):
        c = closure(1, bword("0101"), bword("1010"))
        assert len(c) == 16

    def test_budget_guard(self):
        spec = bspec(10)
        x = Word((0,) * 10, spec)
        y = Word((1,) * 10, spec)
        with pytest.raises(BudgetExceededError):
            closure(1, x, y, budget=100)

    def test_is_closed_iff_full_interval(self):
        spec = bspec(6)
        for k in (1, 2):
            for x, y in all_pairs(spec):
                assert is_closed(k, x, y) == (hamming_distance(x, y) <= k + 1)


    @pytest.mark.parametrize("sizes", [(2,) * 16, (2, 3, 4) * 5 + (3,)])
    def test_is_closed_on_boxes_and_one_cut_short_of_them(self, sizes):
        # R_{t-1} is the whole box; R_{t-2} misses the two words with t - 1
        # switches, which two of its members recombine into
        spec = AlphabetSpec(sizes)
        x = Word((0,) * 16, spec)
        for t in range(17):
            y = Word(tuple(a - 1 for a in sizes[:t]) + (0,) * (16 - t), spec)
            for k in {max(t - 1, 1), max(t - 2, 1)}:
                assert is_closed(k, x, y) == (t <= k + 1), (k, t)

    def test_is_closed_at_64_positions(self):
        # a size test: nothing of the 2^64-word box is enumerated
        spec = bspec(64)
        x, y = Word((0,) * 64, spec), Word((1,) * 64, spec)
        assert not is_closed(2, x, y)
        assert is_closed(63, x, y)

    @pytest.mark.parametrize("k", [4, 6])
    def test_closure_of_the_16_bit_box(self, k):
        spec = bspec(16)
        box = closure(k, Word.from_index(0, spec), Word.from_index(2**16 - 1, spec))
        assert box.indices == frozenset(range(2**16))


def half_box_kernel(k, t, patterns=crossover_mod._patterns):
    """The (k, t) patterns whose two lowest bits agree: closed under
    complement, but they span only half of the box for t >= 2."""
    return tuple(m for m in patterns(k, t) if not (m ^ m >> 1) & 1)


class TestClosureWalk:
    """The closure walk of ``verify closure`` fills the box because the
    kernel is closed under complement and holds the t suffix masks, a basis
    of the box."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_patterns_hold_the_premise(self, k):
        for t in range(17):
            full = (1 << t) - 1
            patterns = set(crossover_mod._patterns(k, t))
            assert {full ^ m for m in patterns} == patterns, (k, t)
            assert {(1 << c) - 1 for c in range(t + 1)} <= patterns, (k, t)

    def test_walk_stops_short_of_the_box(self):
        from xoverlab import verify

        walk = verify._closure_walk
        assert walk(frozenset(half_box_kernel(1, 1)), 1) == {0, 1}
        for k, t in ((1, 2), (2, 5), (3, 8)):
            assert len(walk(frozenset(half_box_kernel(k, t)), t)) == 2 ** (t - 1)
            kernel = frozenset(crossover_mod._patterns(k, t))
            assert walk(kernel, t) == set(range(2 ** t)), (k, t)

    def test_walk_short_of_the_box_fails_verify(self, monkeypatch):
        from xoverlab import verify

        monkeypatch.setattr(crossover_mod, "_patterns", half_box_kernel)
        result = verify.check_closure(max_n=4, max_k=2)
        assert not result.passed
        assert [line for line in result.details
                if line.startswith("FAIL closure:")] == [
            f"FAIL closure: k={k} t={t}" for t in (2, 3, 4) for k in (1, 2)]


def letters_find_parents(k, s):
    """Reference scan on letters: parents of s differ exactly where s varies,
    each taking one of the two letters there, so u's only candidate partner
    is u with every varying position flipped, and a position with three
    letters rules out every pair."""
    target = s if isinstance(s, WordSet) else WordSet(s)
    columns = [set(letters) for letters in zip(*(w.letters for w in target))]
    if any(len(col) > 2 for col in columns):
        return []
    sums = [min(col) + max(col) for col in columns]
    by_letters = {w.letters: w for w in target}
    out = []
    for u in target:
        v = by_letters.get(tuple(map(operator.sub, sums, u.letters)))
        if v is not None and u.index <= v.index and rset(k, u, v).members == target:
            out.append((u, v))
    return out


class TestParentsAgainstLetters:
    """find_parents pairs indices summing to the set's least plus greatest
    index; the letters-based scan above is its reference."""

    @pytest.mark.parametrize("sizes", [(2,) * n for n in range(1, 9)] + [
        (3, 3, 3), (2, 3, 4), (3, 2, 3, 2), (5, 2)])
    def test_recombination_sets_and_neighbours(self, sizes):
        spec = AlphabetSpec(sizes)
        rng = random.Random(str(sizes))
        found = 0
        for _ in range(12):
            x, y = (Word.from_index(rng.randrange(spec.size), spec) for _ in "xy")
            for k in range(1, min(spec.n, 4) + 1):
                members = rset(k, x, y).members.sorted_indices
                less = list(members)
                del less[rng.randrange(len(less))]
                outside = sorted(set(range(spec.size)) - set(members))
                more = [members + (rng.choice(outside),)] if outside else []
                for indices in [members, less] + more:
                    target = WordSet.from_indices(indices, spec)
                    want = letters_find_parents(k, target)
                    assert find_parents(k, target) == want, (k, x, y, indices)
                    found += bool(want)
        assert found >= 12 * min(spec.n, 4)

    def test_random_small_subsets(self):
        rng = random.Random(29)
        for sizes in ((2,) * 4, (3, 3), (2, 3, 4), (3, 2, 3, 2), (5, 2)):
            spec = AlphabetSpec(sizes)
            for _ in range(150):
                count = rng.randint(1, min(8, spec.size))
                target = WordSet.from_indices(rng.sample(range(spec.size), count), spec)
                for k in (1, 2):
                    assert find_parents(k, target) == letters_find_parents(k, target)

    def test_empty_set(self):
        empty = WordSet.from_indices([], bspec(3))
        assert find_parents(1, empty) == letters_find_parents(1, empty) == []


class TestParents:
    def test_unique_above_threshold(self):
        # distance above k+1 pins the generating pair exactly
        spec = bspec(6)
        rng = random.Random(11)
        for k in (1, 2):
            for _ in range(30):
                i, j = rng.randrange(64), rng.randrange(64)
                x, y = Word.from_index(i, spec), Word.from_index(j, spec)
                if hamming_distance(x, y) <= k + 1:
                    continue
                ps = find_parents(k, rset(k, x, y).members)
                assert ps == [tuple(sorted((x, y)))]

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (2, 3, 4)])
    def test_matches_pairwise_rset_comparison(self, sizes):
        spec = AlphabetSpec(sizes)
        words = list(spec.iter_words())
        rng = random.Random(5)
        for k in (1, 2):
            for _ in range(6):
                target = rset(k, rng.choice(words), rng.choice(words)).members
                want = [
                    (u, v)
                    for i, u in enumerate(target.members)
                    for v in target.members[i:]
                    if rset(k, u, v).members == target
                ]
                assert find_parents(k, target) == want
                assert find_parents(k, list(target)) == want

    def test_repeated_words_give_each_pair_once(self):
        x, y = bword("0000"), bword("1111")
        target = rset(1, x, y).members
        assert find_parents(1, list(target) * 2) == [(x, y)]

    def test_three_letters_at_a_position_rule_out_every_pair(self):
        spec = AlphabetSpec((3, 2))
        target = WordSet([Word((0, 0), spec), Word((1, 0), spec),
                          Word((2, 0), spec), Word((2, 1), spec)])
        assert not any(rset(1, u, v).members == target
                       for u, v in itertools.combinations_with_replacement(target, 2))
        assert find_parents(1, target) == []

    def test_ambiguous_at_or_below_threshold(self):
        x, y = bword("0011"), bword("0000")  # distance 2 with k = 1
        ps = find_parents(1, rset(1, x, y).members)
        assert len(ps) == 2


class TestMedian:
    def test_examples(self):
        assert str(median(bword("000"), bword("011"), bword("110"))) == "010"
        x, z = bword("0101"), bword("1110")
        assert median(x, x, z) == x

    @pytest.mark.parametrize("k", [1, 2])
    def test_unique_point_of_triple_closure_intersection(self, k):
        spec = bspec(4)
        words = list(spec.iter_words())
        for a, b, c in itertools.combinations(words, 3):
            inter = (set(closure(k, a, b)) & set(closure(k, b, c))
                     & set(closure(k, c, a)))
            assert inter == {median(a, b, c)}


class TestLexPaths:
    def test_examples(self):
        assert lex_extreme_path_vertices(bword("000"), bword("111")) == \
            rset(1, bword("000"), bword("111")).members
        assert lex_extreme_path_vertices(bword("01"), bword("10")).to_text() == \
            ["00", "01", "10", "11"]
        w = bword("0110")
        assert lex_extreme_path_vertices(w, w) == WordSet([w])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_one_point_rset(self, n):
        spec = bspec(n)
        for x, y in all_pairs(spec):
            assert lex_extreme_path_vertices(x, y) == rset(1, x, y).members

    def test_greedy_agrees_with_path_enumeration(self):
        # compare against brute force over every shortest path, ordering
        # vertex sequences in the labeling that zeroes the smaller endpoint
        def paths(x, y):
            spec = x.spec
            out = []

            def rec(cur, acc):
                if cur == y:
                    out.append(tuple(acc))
                    return
                for pos, (a, b) in enumerate(zip(cur.letters, y.letters)):
                    if a != b:
                        ls = list(cur.letters)
                        ls[pos] = b
                        nxt = Word(tuple(ls), spec)
                        rec(nxt, acc + [nxt])

            rec(x, [x])
            return out

        spec = bspec(5)
        rng = random.Random(5)
        for _ in range(40):
            i, j = rng.sample(range(32), 2)
            x, y = Word.from_index(i, spec), Word.from_index(j, spec)
            start, goal = (x, y) if x < y else (y, x)
            seqs = paths(start, goal)
            key = lambda p: tuple(w.index ^ start.index for w in p)
            lo, hi = min(seqs, key=key), max(seqs, key=key)
            assert lex_extreme_path_vertices(x, y) == WordSet(set(lo) | set(hi), spec)

    def test_mixed_alphabets_raise(self):
        # equal letters under different alphabets: the words share no spec
        x = Word((0, 0), bspec(2))
        y = Word((0, 0), AlphabetSpec((3, 3)))
        with pytest.raises(IncompatibleWordsError):
            lex_extreme_path_vertices(x, y)

    def test_ternary_words_raise(self):
        spec = AlphabetSpec((3, 3))
        with pytest.raises(ValueError, match="binary"):
            lex_extreme_path_vertices(Word((0, 1), spec), Word((2, 0), spec))


def test_transit_graph_is_distance_one_graph():
    g = transit_graph(2, bword("0000"), bword("1111"))
    assert g.n == 14
    for u, v in g.edges:
        assert hamming_distance(g.vertices[u], g.vertices[v]) == 1
