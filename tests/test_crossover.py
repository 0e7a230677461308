"""Recombination sets: the fast switch-pattern route is pinned against the
literal cut-enumeration definition before anything else trusts it."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import xoverlab.crossover as crossover_mod
from xoverlab.crossover import (
    CutSet,
    block_count,
    closure,
    find_parents,
    generate_convexity,
    is_closed,
    lex_extreme_path_vertices,
    median,
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

    def test_patterns_are_cached_per_k_and_distance(self):
        # parents at the same distance share one pattern entry, whatever
        # their positions and alphabet
        crossover_mod._ymask_patterns.cache_clear()
        try:
            rset(2, bword("0011010"), bword("1010011"))
            misses = crossover_mod._ymask_patterns.cache_info().misses
            assert misses == 1
            spec = AlphabetSpec((3, 2, 4, 3, 2))
            rset(2, Word((0, 1, 3, 2, 0), spec), Word((2, 1, 1, 2, 1), spec))
            info = crossover_mod._ymask_patterns.cache_info()
            assert (info.misses, info.hits) == (misses, 1)
        finally:
            crossover_mod._ymask_patterns.cache_clear()

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


class TestRecursion:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_direct(self, n):
        spec = bspec(n)
        for k in (2, 3):
            for x, y in all_pairs(spec):
                assert rset_recursive(k, x, y).members == rset(k, x, y).members

    def test_mixed_alphabet(self):
        for sizes in ((3, 3, 2), (2, 3, 4)):
            for k in (2, 3):
                for x, y in all_pairs(AlphabetSpec(sizes)):
                    assert rset_recursive(k, x, y).members == rset(k, x, y).members

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


def _toy_kernel(seed):
    """Random masks inside each difference mask, closed under complement.

    Unlike crossover, whose closure is always the whole box, these kernels
    mostly leave the box partly empty.
    """
    @lru_cache(maxsize=None)
    def patterns(k, diff, t):
        rng = random.Random(seed * 1_000_003 + diff)
        subs = [m for m in range(diff + 1) if m & diff == m]
        out = {0, diff}
        if rng.random() < 0.5:
            for m in rng.sample(subs, min(k, len(subs))):
                out |= {m, diff ^ m}
        return tuple(sorted(out))
    return patterns


def pairwise_pattern_closure(kernel, k, t):
    members = {0, (1 << t) - 1}
    pending = [(0, (1 << t) - 1)]
    while pending:
        u, v = pending.pop()
        for w in (u ^ m for m in kernel(k, u ^ v, t)):
            if w not in members:
                pending.extend((w, s) for s in members)
                members.add(w)
    return members


class TestClosureFixpoint:
    """The pattern-space fixpoint is exact for any kernel inside the box, so
    its result is the closure whether or not the box fills."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        crossover_mod._closure_patterns.cache_clear()
        yield
        crossover_mod._closure_patterns.cache_clear()

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_fixpoint_on_toy_kernels(self, monkeypatch, seed):
        kernel = _toy_kernel(seed)
        monkeypatch.setattr(crossover_mod, "_ymask_patterns", kernel)
        filled = 0
        for k in (1, 2):
            for t in range(0, 8):
                expect = pairwise_pattern_closure(kernel, k, t)
                got = crossover_mod._closure_patterns(k, t, 1 << t)
                assert sorted(got) == sorted(expect), (k, t)
                filled += len(expect) == 1 << t
                if len(expect) > 1:
                    with pytest.raises(BudgetExceededError):
                        crossover_mod._closure_patterns(k, t, len(expect) - 1)
        assert 0 < filled < 16


class TestConvexity:
    def test_small_space_family(self):
        spec = bspec(2)
        fam = generate_convexity(1, spec)
        texts = [tuple(s.to_text()) for s in fam]
        # empty set, singletons, edges, and the whole square
        assert () in texts
        assert ("00",) in texts
        assert ("00", "01") in texts
        assert ("00", "01", "10", "11") in texts
        # diagonals close to the whole square, so they do not appear
        assert ("00", "11") not in texts
        # empty set, 4 singletons, 4 edges, the square
        assert len(fam) == 10

    def test_members_closed_under_intersection(self):
        spec = AlphabetSpec((2, 3))
        fam = generate_convexity(1, spec)
        idx = {s.indices for s in fam}
        for a in idx:
            for b in idx:
                assert a & b in idx

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            generate_convexity(1, bspec(10), budget=100)


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

    def test_rejects_non_binary(self):
        spec = AlphabetSpec((3, 3))
        w = Word((0, 0), spec)
        with pytest.raises(ValueError, match="binary"):
            median(w, w, w)

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
