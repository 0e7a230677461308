"""Oriented matroid layer.

Every count here (covector totals, lattice levels, cocircuit numbers) was
frozen from a brute-force enumeration run before these tests were written;
none is taken from a closed-form formula.  Where two formulas disagree, the
enumerated value is the arbiter and the test pins it.
"""

import itertools
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xoverlab import matroid
from xoverlab.crossover import rset, transit_graph
from xoverlab.graphs import SimpleGraph
from xoverlab.matroid import (
    FaceAxiomReport,
    FaceLattice,
    OrientedMatroidData,
    SignVector,
    check_face_axioms,
    covectors_from_topes,
    face_lattice,
    is_uniform,
    om_from_rset,
    tope_graph,
    uniform_tope_check,
    word_to_sign,
)
from xoverlab.partialcube import is_partial_cube, is_planar_quadrangulation
from xoverlab.words import AlphabetSpec, BudgetExceededError, Word, phi


def sv(text):
    """Sign vector from its text, + - 0, coordinate 1 first."""
    def mask(ch):
        return sum(1 << len(text) - 1 - i for i, c in enumerate(text) if c == ch)

    return SignVector(len(text), mask("+"), mask("-"))


def svs(*texts):
    return [sv(t) for t in texts]


def entry(x, e):
    """Sign of x at 1-based position e as an integer in {-1, 0, 1}."""
    return x.entries()[e - 1]


def bspec(n):
    return AlphabetSpec((2,) * n)


def word_of(x):
    """The binary word of a full-support sign vector, + as 1 and - as 0."""
    return Word.from_index(x.pos, bspec(x.n))


def antipodal_topes(k, n):
    spec = bspec(n)
    lo = Word.from_index(0, spec)
    hi = Word.from_index(2**n - 1, spec)
    return [word_to_sign(w) for w in rset(k, lo, hi).members]


def literal_face_axioms(vectors):
    """Pairwise F0-F3 scan by the definitions, in canonical order."""
    family = sorted(set(vectors), key=lambda x: x.key)
    if not family:
        return FaceAxiomReport(False, "F0", ())
    n = family[0].n
    members = set(family)
    if SignVector.zero(n) not in members:
        return FaceAxiomReport(False, "F0", ())
    for x in family:
        if -x not in members:
            return FaceAxiomReport(False, "F1", (x,))
    for x in family:
        for y in family:
            if x.compose(y) not in members:
                return FaceAxiomReport(False, "F2", (x, y))
    # restrictions off the separator of the Z with Z_e = 0, per (separator, e)
    eliminators = {}
    for x in family:
        for y in family:
            sep = x.separation(y)
            if not sep:
                continue
            kept = [f for f in range(1, n + 1) if f not in sep]
            composed = x.compose(y)
            target = tuple(entry(composed, f) for f in kept)
            for e in sorted(sep):
                if (sep, e) not in eliminators:
                    eliminators[sep, e] = {
                        tuple(entry(z, f) for f in kept)
                        for z in family if entry(z, e) == 0
                    }
                if target not in eliminators[sep, e]:
                    return FaceAxiomReport(False, "F3", (x, y, e))
    return FaceAxiomReport(True, None, None)


def pair_lookup_decide_f2_f3(pos, neg, table, n):
    """matroid._decide_f2_f3 with F2 decided by lookups, not counts: each X
    of support S, joined with every distinct restriction of the family off
    S, is looked up in the member table, sum |L_S| * |L off S| pairs, and
    the first row, in the given order, with a failed lookup is returned.
    F3 is decided as the library does."""
    support = pos | neg
    order = np.argsort(support, kind="stable")
    pos, neg, support = pos[order], neg[order], support[order]
    pending = np.zeros_like(table)
    ends = np.searchsorted(support, support, side="right")
    for rows, cols in matroid._pairs(np.arange(1, len(support) + 1), ends,
                                     matroid._BLOCK):
        xp, xn, yp, yn = pos[rows], neg[rows], pos[cols], neg[cols]
        d = (xp & yn) | (xn & yp)
        settled = table[((xp & ~d) << n) | (xn & ~d)]
        pending[(((xp | d) << n) | (xn | d))[~settled]] = True
    queries = np.flatnonzero(pending)
    sep = (queries >> n) & queries
    wanted = (sep << 2 * n) | (queries & ~(sep << n | sep))
    failing = np.zeros(len(table), dtype=np.int8)
    popcount = matroid._bits(n).sum(axis=1)
    size, sep_size = popcount[support], popcount[sep]
    codes = (1 << 2 * n) - 1
    short = np.zeros(len(support), dtype=bool)
    for p, (keys, zeros, _) in enumerate(matroid._layers(pos, neg, n)):
        members = np.flatnonzero(size == p)
        s = support[members] << 2 * n
        lo, hi = np.searchsorted(keys, s), np.searchsorted(keys, s + (1 << 2 * n))
        x = (pos[members] << n) | neg[members]
        for rows, cols in matroid._pairs(lo, hi, matroid._BLOCK):
            found = table[x[rows] | (keys[cols] & codes)]
            short[members[rows[~found]]] = True
        asked = np.flatnonzero(sep_size == p)
        missing = sep[asked] & ~zeros[np.searchsorted(keys, wanted[asked])]
        failing[queries[asked]] = np.where(missing, n + 1 - np.frexp(missing)[1], 0)
    return (int(order[short].min()) if short.any() else None), failing


def pair_lookup_face_axioms(vectors):
    """check_face_axioms with pair_lookup_decide_f2_f3 in place of the
    counts; the F2 witness comes from the row it returns, the F3 witness
    from the same canonical rescan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matroid, "_decide_f2_f3", pair_lookup_decide_f2_f3)
        return check_face_axioms(vectors)


def literal_covectors(topes):
    """Every sign vector X with X o T a tope for every tope T, canonically."""
    tope_set = set(topes)
    n = next(iter(tope_set)).n
    grid = (sv("".join(c)) for c in itertools.product("-0+", repeat=n))
    return tuple(x for x in grid if all(x.compose(t) in tope_set for t in tope_set))


def literal_tope_filter(topes):
    """OM data by the tope-by-tope filter: every sign vector of the 3^n grid
    survives while its composition with each tope in turn is a tope, then
    heights by the longest-chain table over the grid's support layers."""
    tope_list = sorted(set(topes), key=lambda x: x.key)
    n = tope_list[0].n
    pos = neg = size = np.zeros(1, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        bit = 1 << b
        pos = np.stack([pos, pos, pos | bit], axis=1).ravel()
        neg = np.stack([neg | bit, neg, neg], axis=1).ravel()
        size = np.stack([size + 1, size, size + 1], axis=1).ravel()
    grid = (pos << n) | neg
    is_tope = np.zeros(1 << 2 * n, dtype=bool)
    for t in tope_list:
        is_tope[(t.pos << n) | t.neg] = True
    live = np.arange(len(grid))
    for t in tope_list:
        free = ~(pos | neg)
        keep = is_tope[((pos | (t.pos & free)) << n) | (neg | (t.neg & free))]
        pos, neg, live = pos[keep], neg[keep], live[keep]
    covectors = [SignVector(n, p, q) for p, q in zip(pos.tolist(), neg.tolist())]
    is_covector = np.zeros(len(grid), dtype=np.int8)
    is_covector[live] = 1
    best = np.zeros(1 << 2 * n, dtype=np.int8)
    for s in range(1, n + 1):
        layer = np.flatnonzero(size == s)
        codes = grid[layer]
        below = np.zeros(len(layer), dtype=np.int8)
        for b in range(n):
            np.maximum(below, best[codes & ~((1 << b) << n | 1 << b)], out=below)
        best[codes] = below + is_covector[layer]
    heights = best[grid[live]].tolist()
    return OrientedMatroidData(
        ground_size=n,
        covectors=tuple(covectors),
        topes=tuple(x for x in covectors if x.support_size == n),
        cocircuits=tuple(x for x, h in zip(covectors, heights) if h == 1),
        rank=max(heights),
    )


# Literal face-order oracles: the pairwise conforms scans that the library's
# one submask pass replaced.  They must agree with it exactly.


def literal_minimal_nonzero(covectors):
    """Minimal nonzero covectors by pairwise conforms, canonically."""
    nonzero = sorted(
        (x for x in covectors if not x.is_zero),
        key=lambda x: (x.support_size, x.key),
    )
    mins = []
    for x in nonzero:
        if not any(c.conforms(x) for c in mins):
            mins.append(x)
    return tuple(sorted(mins, key=lambda x: x.key))


def literal_heights(covectors):
    """Longest-chain height of each covector, with the strictly-below lists
    it was read from: pairwise conforms, then chains in support order.
    The covectors must be distinct."""
    cov = list(covectors)
    m = len(cov)
    below = [[j for j in range(m) if j != i and cov[j].conforms(cov[i])]
             for i in range(m)]
    heights = [0] * m
    for i in sorted(range(m), key=lambda i: cov[i].support_size):
        heights[i] = 1 + max((heights[j] for j in below[i]), default=-1)
    return heights, below


def literal_face_lattice(om):
    """(covers, heights, rank) of the face order with a synthetic top, or
    None where face_lattice must reject it.

    Heights come from literal_heights, covers are the maximal elements of
    each strictly-below set, and gradedness is checked by walking every
    chain up to a maximal element.  The covectors must be distinct.
    """
    cov = list(om.covectors)
    if not any(x.is_zero for x in cov):
        return None
    m = len(cov)
    heights, below = literal_heights(cov)
    rank = max(heights)
    covers = [
        (j, i)
        for i, bel in enumerate(below)
        for j in bel
        if not any(z != j and cov[j].conforms(cov[z]) for z in bel)
    ]
    top = m
    covers += [(i, top) for i in range(m) if cov[i].support_size == om.ground_size]
    full = heights + [rank + 1]
    if any(full[hi] - full[lo] != 1 for lo, hi in covers):
        return None
    ups = [[] for _ in range(top + 1)]
    for lo, hi in covers:
        ups[lo].append(hi)
    depth = [0] * (top + 1)
    for i in sorted(range(top + 1), key=lambda i: -full[i]):
        depth[i] = 1 + max((depth[j] for j in ups[i]), default=-1)
    if any(full[i] + depth[i] != rank + 1 for i in range(top + 1)):
        return None
    return tuple(sorted(covers)), tuple(heights), rank


def dict_walk_face_lattice(om):
    """(covers, heights, rank) by the submask walk over a dict from (pos,
    neg) to the index of the last copy, or None where face_lattice must
    reject it.  Unlike literal_face_lattice, it takes repeated vectors: a
    repeated vector is its last copy wherever it lies below another."""
    cov = list(om.covectors)
    if not any(x.is_zero for x in cov):
        return None
    index = {(x.pos, x.neg): i for i, x in enumerate(cov)}
    below, heights, covers = {}, [0] * len(cov), []
    for i in sorted(range(len(cov)), key=lambda i: cov[i].support_size):
        x, bel = cov[i], []
        sub = sup = x.support
        while sub:
            sub = (sub - 1) & sup
            j = index.get((x.pos & sub, x.neg & sub))
            if j is not None:
                bel.append(j)
        inner = set().union(*(below[z] for z in bel))
        covers += [(j, i) for j in bel if j not in inner]
        below[i] = bel
        heights[i] = 1 + max((heights[j] for j in bel), default=-1)
    rank, top = max(heights), len(cov)
    covers += [(i, top) for i, x in enumerate(cov)
               if x.support_size == om.ground_size]
    full = heights + [rank + 1]
    if len({lo for lo, _ in covers}) != top or any(
            full[hi] != full[lo] + 1 for lo, hi in covers):
        return None
    return tuple(sorted(covers)), tuple(heights), rank


def assert_rank_matches_literal(om):
    """om.rank and om.cocircuits agree with literal_heights; True when the
    face order is also a graded lattice."""
    heights, _ = literal_heights(om.covectors)
    assert om.rank == max(heights)
    assert om.cocircuits == tuple(
        x for x, h in zip(om.covectors, heights) if h == 1)
    return literal_face_lattice(om) is not None


def assert_lattice_matches_literal(om):
    """face_lattice agrees with the literal oracle; True when it is a lattice."""
    want = literal_face_lattice(om)
    if want is None:
        with pytest.raises(ValueError, match="not a valid OM lattice"):
            face_lattice(om)
        return False
    lat = face_lattice(om)
    assert (lat.covers, lat.heights, lat.rank) == want
    return True


def closed_families(seed, count):
    """Seeded families over n <= 5 closed under composition and negation,
    zero included: the closure of one to four random sign vectors."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        family = {SignVector.zero(n)}
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(1 << n)
            x = SignVector(n, pos, rng.randrange(1 << n) & ~pos)
            family |= {x, -x}
        while grown := {x.compose(y) for x in family for y in family} - family:
            family |= grown
        yield family


def broken_families(seed, count):
    """Closed families with one random nonzero member removed, mostly with
    its negation too, so F1, F2 and F3 can each fail."""
    rng = random.Random(seed)
    for family in closed_families(seed, count):
        nonzero = sorted((x for x in family if not x.is_zero), key=lambda x: x.key)
        if nonzero:
            x = rng.choice(nonzero)
            family.discard(x)
            if rng.random() < 0.8:
                family.discard(-x)
        yield family


def hand_built_oms(seed, count):
    """Seeded families of distinct sign vectors over n <= 4, in canonical
    order: raw random sets, and sets closed downward under restriction, each
    with the zero vector added or not."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        grid = [sv("".join(c)) for c in itertools.product("-0+", repeat=n)]
        family = set(rng.sample(grid, rng.randint(1, min(12, len(grid)))))
        if rng.random() < 0.5:  # every restriction, so the order is a poset
            family = {
                SignVector(n, x.pos & sub, x.neg & sub)
                for x in family
                for sub in range(1 << n)
                if sub & x.support == sub
            }
        if rng.random() < 0.8:
            family.add(SignVector.zero(n))
        yield hand_built_om(n, family)


def hand_built_om(n, family):
    """OM data around any family; face_lattice reads only its ground size
    and covectors."""
    covectors = tuple(sorted(family, key=lambda x: x.key))
    return OrientedMatroidData(
        n, covectors, tuple(x for x in covectors if x.support_size == n),
        literal_minimal_nonzero(covectors), 0,
    )


signs_st = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.sampled_from("+-0"), min_size=n, max_size=n
    ).map(lambda cs: sv("".join(cs)))
)


class TestSignVector:
    def test_string_round_trip(self):
        for text in ("+", "-", "0", "+-0", "0000", "++--00+-"):
            assert str(sv(text)) == text

    def test_masks_and_entries(self):
        x = sv("+-0")
        assert (x.pos, x.neg) == (0b100, 0b010)
        assert x.entries() == (1, -1, 0)
        assert (-x).entries() == (-1, 1, 0)

    def test_overlapping_masks_rejected(self):
        with pytest.raises(ValueError):
            SignVector(2, 0b10, 0b10)

    def test_negative_ground_size_rejected(self):
        with pytest.raises(ValueError, match="ground size -1"):
            SignVector(-1, 0, 0)

    def test_support(self):
        assert sv("+0-0").support == 0b1010
        assert sv("+0-0").support_size == 2
        assert SignVector.zero(3).is_zero

    def test_negation_involution(self):
        x = sv("+-0+")
        assert str(-x) == "-+0-"
        assert -(-x) == x

    def test_compose_identity_and_rule(self):
        x = sv("+0-")
        assert x.compose(SignVector.zero(3)) == x
        assert SignVector.zero(3).compose(x) == x
        # first nonzero wins coordinate-wise
        assert str(sv("+0-").compose(sv("--+"))) == "+--"

    def test_separation(self):
        assert sv("+0-").separation(sv("-0-")) == frozenset({1})
        assert sv("++").separation(sv("--")) == frozenset({1, 2})
        assert sv("+0").separation(sv("0-")) == frozenset()

    def test_conforms(self):
        assert sv("0-0").conforms(sv("+-0"))
        assert not sv("+-0").conforms(sv("0-0"))
        assert not sv("+0").conforms(sv("-+"))
        assert SignVector.zero(2).conforms(sv("-+"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sv("+").compose(sv("++"))
        with pytest.raises(ValueError):
            sv("+").separation(sv("++"))
        with pytest.raises(ValueError):
            sv("+").conforms(sv("++"))

    def test_canonical_order(self):
        got = sorted(svs("00", "0+", "+0", "-0", "0-", "++", "--"), key=lambda v: v.key)
        assert [str(v) for v in got] == ["--", "-0", "0-", "00", "0+", "+0", "++"]

    def test_key_numbers_the_grid_in_order(self):
        for n in range(1, 7):
            grid = itertools.product("-0+", repeat=n)
            assert [sv("".join(c)).key for c in grid] == list(range(3 ** n))

    @given(signs_st, signs_st.map(str))
    def test_compose_absorbs_right_composition(self, x, other_text):
        y = sv(other_text[: x.n].ljust(x.n, "0"))
        assert x.compose(x) == x
        assert x.compose(y).compose(y) == x.compose(y)
        assert x.conforms(x.compose(y))

    @given(signs_st)
    def test_negation_distributes(self, x):
        assert (-x).key != x.key or x.is_zero
        assert x.separation(-x) == frozenset(
            e for e in range(1, x.n + 1) if entry(x, e) != 0
        )


@st.composite
def families_st(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(st.sampled_from("+-0"), min_size=n, max_size=n).map(
        lambda cs: sv("".join(cs))
    )
    family = draw(st.sets(vector, max_size=40))
    if draw(st.booleans()):  # close up F0 and F1 so F2 and F3 are reached
        family |= {-x for x in family} | {SignVector.zero(n)}
    return family


@st.composite
def tope_sets_st(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    half = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1))
    full = (1 << n) - 1
    return [SignVector(n, p, full & ~p) for q in half for p in (q, full & ~q)]


class TestWordSignBridge:
    def test_examples(self):
        w = Word.parse("1010", bspec(4))
        assert str(word_to_sign(w)) == "+-+-"
        assert str(word_to_sign(Word.parse("0000", bspec(4)))) == "----"

    def test_round_trip_all_length_six(self):
        for w in bspec(6).iter_words():
            assert word_of(word_to_sign(w)) == w

    def test_non_binary_rejected(self):
        w = Word.parse("0,2,1", AlphabetSpec((3, 3, 3)))
        with pytest.raises(ValueError):
            word_to_sign(w)


class TestCovectorsFromTopes:
    def test_one_element(self):
        om = covectors_from_topes(svs("+", "-"))
        assert sorted(str(c) for c in om.covectors) == ["+", "-", "0"]
        assert om.rank == 1
        assert [str(c) for c in om.cocircuits] == ["-", "+"]

    def test_free_rank_three(self):
        topes = [sv("".join(c)) for c in itertools.product("+-", repeat=3)]
        om = covectors_from_topes(topes)
        assert len(om.covectors) == 27
        assert om.rank == 3
        assert {str(c) for c in om.cocircuits} == {
            "+00", "-00", "0+0", "0-0", "00+", "00-"
        }

    def test_rhombododecahedron_counts(self):
        om = covectors_from_topes(antipodal_topes(2, 4))
        assert len(om.covectors) == 51
        assert len(om.topes) == 14
        assert len(om.cocircuits) == 12
        assert om.rank == 3
        # 51 = 1 zero + 12 cocircuits + 24 middle + 14 topes
        by_size = {}
        for c in om.covectors:
            by_size[c.support_size] = by_size.get(c.support_size, 0) + 1
        assert by_size == {0: 1, 2: 12, 3: 24, 4: 14}

    def test_unchecked_covectors_equal_validated_ones(self):
        # the covectors skip SignVector's checks; rebuilding each through
        # them must give an equal vector of plain ints
        for n in range(2, 8):
            for k in range(1, n):
                om = om_from_rset(k, n)
                for c in om.covectors:
                    assert {type(c.n), type(c.pos), type(c.neg)} == {int}
                    checked = SignVector(n, c.pos, c.neg)
                    assert c == checked and hash(c) == hash(checked), (k, n, c)
                    assert c.key == checked.key and str(c) == str(checked)
                assert set(om.topes) | set(om.cocircuits) <= set(om.covectors)

    def test_not_centrally_symmetric(self):
        with pytest.raises(ValueError, match="not centrally symmetric"):
            covectors_from_topes(svs("++", "--", "+-"))

    def test_partial_support_topes(self):
        with pytest.raises(ValueError, match="full support"):
            covectors_from_topes(svs("+0", "-0"))

    def test_empty(self):
        with pytest.raises(ValueError):
            covectors_from_topes([])

    def test_budget(self):
        n = 11
        full = (1 << n) - 1
        with pytest.raises(BudgetExceededError):
            covectors_from_topes([SignVector(n, full, 0), SignVector(n, 0, full)])

    def test_covector_criterion_holds(self):
        om = covectors_from_topes(antipodal_topes(1, 3))
        tope_set = set(om.topes)
        for x in om.covectors:
            for t in om.topes:
                assert x.compose(t) in tope_set

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 6) for k in range(1, n)])
    def test_matches_literal_criterion_on_crossover_topes(self, k, n):
        topes = antipodal_topes(k, n)
        assert covectors_from_topes(topes).covectors == literal_covectors(topes)

    @given(tope_sets_st())
    @settings(deadline=None)
    def test_matches_literal_criterion_on_symmetric_tope_sets(self, topes):
        assert covectors_from_topes(topes).covectors == literal_covectors(topes)

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 8) for k in range(1, n)])
    def test_face_counts_of_crossover_oms(self, k, n):
        # covectors with j zeros: C(n, j) * 2 phi_{k-j}(n-j-1) for j <= k,
        # then only the zero vector
        want = {j: comb(n, j) * 2 * phi(k - j, n - j - 1) for j in range(k + 1)}
        want[n] = 1
        om = om_from_rset(k, n)
        assert Counter(n - x.support_size for x in om.covectors) == want

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 9) for k in range(1, n)])
    def test_matches_tope_filter_on_crossover_topes(self, k, n):
        assert om_from_rset(k, n) == literal_tope_filter(antipodal_topes(k, n))

    def test_matches_tope_filter_on_seeded_tope_sets(self):
        rng = random.Random(1919)
        for _ in range(300):
            n = rng.randint(1, 7)
            full = (1 << n) - 1
            half = rng.sample(range(1 << n), rng.randint(1, 1 << n - 1))
            topes = [SignVector(n, p, full & ~p) for q in half for p in (q, full & ~q)]
            assert covectors_from_topes(topes) == literal_tope_filter(topes)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_topes_come_from_the_indices_in_word_order(self, n, monkeypatch):
        # om_from_rset reads the set's sorted indices; the topes must be the
        # word_to_sign images of its words, in the same order
        seen = []
        monkeypatch.setattr(matroid, "covectors_from_topes", seen.append)
        for k in range(1, n):
            om_from_rset(k, n)
            assert seen.pop() == antipodal_topes(k, n), k

    def test_zero_set_blocks_do_not_change_the_result(self, monkeypatch):
        want = om_from_rset(3, 6)
        for size in (1, 50):  # one zero set per block, and a few per block
            monkeypatch.setattr(matroid, "_BLOCK", size)
            assert om_from_rset(3, 6) == want

    def test_topes_sorted_canonically(self):
        om = covectors_from_topes(antipodal_topes(2, 4))
        keys = [t.key for t in om.topes]
        assert keys == sorted(keys)


class TestFaceAxioms:
    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (2, 6)])
    def test_rset_topes_pass(self, k, n):
        om = om_from_rset(k, n)
        report = check_face_axioms(om.covectors)
        assert report == FaceAxiomReport(True, None, None)

    def test_missing_zero(self):
        report = check_face_axioms(svs("+", "-"))
        assert not report.holds
        assert report.axiom == "F0"

    def test_missing_negation(self):
        report = check_face_axioms([SignVector.zero(1), sv("+")])
        assert (report.axiom, report.witness) == ("F1", (sv("+"),))

    def test_composition_violation(self):
        # first failing ordered pair in canonical scan order
        report = check_face_axioms([SignVector.zero(2), sv("+0"), sv("0+"),
                                    sv("-0"), sv("0-")])
        assert report.axiom == "F2"
        assert report.witness == (sv("-0"), sv("0-"))

    def test_negation_reported_before_composition(self):
        # {0, +0, 0+} misses both negations and the composition ++; the
        # axioms are checked in order, so F1 wins
        report = check_face_axioms([SignVector.zero(2), sv("+0"), sv("0+")])
        assert (report.axiom, report.witness) == ("F1", (sv("0+"),))

    def test_elimination_violation(self):
        # four opposite topes with no covector on either hyperplane
        report = check_face_axioms(svs("00", "++", "--", "+-", "-+"))
        assert report.axiom == "F3"
        x, y, e = report.witness
        assert (x, y, e) == (sv("--"), sv("-+"), 2)

    def test_free_family_passes(self):
        family = [sv("".join(c)) for c in itertools.product("+-0", repeat=2)]
        assert check_face_axioms(family).holds

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_face_axioms(svs("+", "++"))

    def test_empty_family(self):
        assert check_face_axioms([]).axiom == "F0"

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            check_face_axioms([SignVector.zero(11)])

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 7) for k in range(1, n)])
    def test_matches_literal_scan_on_crossover_oms(self, k, n):
        # removing a tope pair breaks F2, a cocircuit pair F3, a lone one F1
        om = om_from_rset(k, n)
        cocircuit, tope = om.cocircuits[0], om.topes[0]

        def without(*xs):
            return [y for y in om.covectors if y not in xs]

        families = {
            None: om.covectors,
            "F1": without(cocircuit),
            "F2": without(tope, -tope),
            "F3": without(cocircuit, -cocircuit),
        }
        for axiom, family in families.items():
            report = check_face_axioms(family)
            assert report.axiom == axiom
            assert report == literal_face_axioms(family)

    @given(families_st())
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_scan_on_random_families(self, family):
        assert check_face_axioms(family) == literal_face_axioms(family)

    def test_matches_literal_scan_on_closed_families(self):
        # F0-F2 hold, so only the equal-support elimination decision and
        # the F3 rescan separate these
        outcomes = Counter()
        for family in closed_families(1515, 200):
            report = check_face_axioms(family)
            assert report == literal_face_axioms(family)
            outcomes[report.axiom] += 1
        assert set(outcomes) == {None, "F3"}
        assert outcomes[None] >= 20 and outcomes["F3"] >= 20

    @pytest.mark.parametrize("size", [None, 1, 3])
    def test_seeded_sweep_matches_literal_scan_whatever_the_blocks(
            self, monkeypatch, size):
        # one pair or one layer mask per block, and blocks that split the
        # pairs of one support class and group a few masks
        if size is not None:
            monkeypatch.setattr(matroid, "_BLOCK", size)
        outcomes = Counter()
        for family in itertools.chain(closed_families(1515, 200),
                                      broken_families(1919, 300)):
            report = check_face_axioms(family)
            assert report == literal_face_axioms(family)
            outcomes[report.axiom] += 1
        assert outcomes["F2"] >= 60 and outcomes["F3"] >= 100
        assert outcomes[None] >= 150 and outcomes["F1"] >= 30

    @pytest.mark.parametrize("n", range(2, 10))
    def test_f2_counts_match_the_pair_lookups_on_crossover_oms(self, n):
        for k in range(1, n):
            family = om_from_rset(k, n).covectors
            report = check_face_axioms(family)
            assert report == FaceAxiomReport(True, None, None)
            assert pair_lookup_face_axioms(family) == report

    @pytest.mark.parametrize("n,ks", [(8, range(1, 8)), (9, range(1, 7)),
                                      (10, range(1, 8))])
    def test_f2_counts_match_the_pair_lookups_where_only_f2_breaks(self, n, ks):
        # removing one composition Z = X o Y and -Z breaks F2 at (X, Y)
        # while F0 and F1 still hold
        rng = random.Random(2323 + n)
        for k in ks:
            covectors = om_from_rset(k, n).covectors
            for _ in range(2):
                while True:
                    x, y = rng.sample(covectors, 2)
                    z = x.compose(y)
                    if not z.is_zero and z not in (x, -x, y, -y):
                        break
                family = [w for w in covectors if w not in (z, -z)]
                report = check_face_axioms(family)
                assert report.axiom == "F2", (k, x, y)
                a, b = report.witness
                assert a.compose(b) not in family
                assert pair_lookup_face_axioms(family) == report

    def test_memory_does_not_grow_with_the_pair_count(self):
        covectors = om_from_rset(8, 9).covectors
        tracemalloc.start()
        try:
            assert check_face_axioms(covectors).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_pipeline_does_not_import_numpy_ma(self):
        # numpy.ma, which np.unique imports, adds about 1 MB of memory
        code = (
            "import sys\n"
            "from xoverlab.matroid import check_face_axioms, face_lattice, om_from_rset\n"
            "om = om_from_rset(3, 6)\n"
            "check_face_axioms(om.covectors)\n"
            "check_face_axioms(om.covectors[1:])\n"
            "face_lattice(om)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_first_elimination_witness_has_unequal_supports(self):
        # closed under composition and negation; -0+ is missing, so (--0,
        # -++) at e = 2 comes first, before the equal-support pair
        # (--+, -++) that raises the same demand
        family = svs("---", "--0", "--+", "-0-", "-+-", "-++", "0--", "000",
                     "0++", "+--", "+-+", "+0+", "++-", "++0", "+++")
        assert {x.compose(y) for x in family for y in family} == set(family)
        report = check_face_axioms(family)
        assert report == FaceAxiomReport(False, "F3", (sv("--0"), sv("-++"), 2))
        assert report == literal_face_axioms(family)


class TestFaceLattice:
    def test_rhombododecahedron_levels(self):
        om = om_from_rset(2, 4)
        lat = face_lattice(om)
        assert lat.rank == 3
        assert lat.level_sizes() == (1, 12, 24, 14, 1)

    def test_atoms_are_cocircuits(self):
        om = om_from_rset(2, 4)
        lat = face_lattice(om)
        atoms = tuple(x for x, h in zip(lat.covectors, lat.heights) if h == 1)
        assert atoms == om.cocircuits

    def test_one_element_levels(self):
        om = covectors_from_topes(svs("+", "-"))
        assert face_lattice(om).level_sizes() == (1, 2, 1)

    def test_hexagon_levels(self):
        om = om_from_rset(1, 3)
        assert face_lattice(om).level_sizes() == (1, 6, 6, 1)

    def test_negation_preserves_height(self):
        om = om_from_rset(2, 4)
        lat = face_lattice(om)
        height_of = {lat.covectors[i]: h for i, h in enumerate(lat.heights)}
        for x in lat.covectors:
            assert height_of[-x] == height_of[x]

    def test_cover_heights_step_by_one(self):
        om = om_from_rset(1, 3)
        lat = face_lattice(om)
        full = lat.heights + (lat.rank + 1,)
        for lo, hi in lat.covers:
            assert full[hi] == full[lo] + 1

    def test_zero_is_unique_minimum(self):
        om = om_from_rset(2, 4)
        lat = face_lattice(om)
        bottoms = [i for i, h in enumerate(lat.heights) if h == 0]
        assert len(bottoms) == 1
        assert lat.covectors[bottoms[0]].is_zero

    def test_non_graded_rejected(self):
        bad = OrientedMatroidData(
            2, tuple(svs("00", "+0", "++", "--")), tuple(svs("++", "--")),
            tuple(svs("+0", "--")), 2,
        )
        with pytest.raises(ValueError, match="not a valid OM lattice"):
            face_lattice(bad)

    def test_dangling_maximal_rejected(self):
        bad = OrientedMatroidData(2, tuple(svs("00", "+0")), (), tuple(svs("+0")), 1)
        with pytest.raises(ValueError, match="not a valid OM lattice"):
            face_lattice(bad)

    def test_missing_zero_rejected(self):
        bad = OrientedMatroidData(2, tuple(svs("+0", "++")), tuple(svs("++")),
                                  tuple(svs("+0")), 1)
        with pytest.raises(ValueError, match="not a valid OM lattice"):
            face_lattice(bad)

    def test_dot_output(self):
        om = covectors_from_topes(svs("+", "-"))
        assert face_lattice(om).to_dot() == "\n".join([
            "digraph face_lattice {",
            "  rankdir=BT;",
            '  n0 [label="-"];',
            '  n1 [label="0"];',
            '  n2 [label="+"];',
            '  n3 [label="1^"];',
            "  n0 -> n3;",
            "  n1 -> n0;",
            "  n1 -> n2;",
            "  n2 -> n3;",
            "}",
        ])


class TestFaceOrderAgainstLiteral:
    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 7) for k in range(1, n)])
    def test_crossover_oms(self, k, n):
        om = om_from_rset(k, n)
        assert om.cocircuits == literal_minimal_nonzero(om.covectors)
        assert assert_rank_matches_literal(om)
        assert assert_lattice_matches_literal(om)

    @given(tope_sets_st())
    @settings(deadline=None)
    def test_symmetric_tope_sets(self, topes):
        # most such sets are not OMs, so the lattice may rightly be rejected
        om = covectors_from_topes(topes)
        assert om.cocircuits == literal_minimal_nonzero(om.covectors)
        assert_rank_matches_literal(om)
        assert_lattice_matches_literal(om)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_crossover_lattices_at_n7(self, k):
        assert assert_lattice_matches_literal(om_from_rset(k, 7))

    def test_hand_built_families(self):
        outcomes = Counter(
            assert_lattice_matches_literal(om) for om in hand_built_oms(808, 400)
        )
        # both branches are exercised: accepted lattices and rejections
        assert outcomes[True] >= 20 and outcomes[False] >= 20

    @pytest.mark.parametrize("size", [None, 1, 3])
    def test_repeated_vectors_match_the_dict_walk(self, monkeypatch, size):
        # a repeated vector stands for its last copy below others, as a
        # dict from masks to indices has it; blocks of one or three rows
        # of submasks must not change that
        if size is not None:
            monkeypatch.setattr(matroid, "_BLOCK", size)
        rng = random.Random(2222)
        outcomes = Counter()
        for om in hand_built_oms(2121, 300):
            family = list(om.covectors)
            family += rng.choices(family, k=rng.randint(1, 3))
            rng.shuffle(family)
            om = OrientedMatroidData(om.ground_size, tuple(family), (), (), 0)
            want = dict_walk_face_lattice(om)
            if want is None:
                with pytest.raises(ValueError, match="not a valid OM lattice"):
                    face_lattice(om)
            else:
                lat = face_lattice(om)
                assert (lat.covers, lat.heights, lat.rank) == want
            outcomes[want is None] += 1
        assert outcomes[True] >= 20 and outcomes[False] >= 20

    def test_repeated_tope_is_a_second_element(self):
        # each copy of + covers 0 and lies under the top, which keeps the
        # first copy, below nothing else, in a graded order
        om = hand_built_om(1, svs("0", "+", "-"))
        om = OrientedMatroidData(1, om.covectors + (sv("+"),), (), (), 0)
        lat = face_lattice(om)
        assert lat.covers == ((0, 4), (1, 0), (1, 2), (1, 3), (2, 4), (3, 4))
        assert lat.heights == (1, 0, 1, 1) and lat.rank == 1
        assert lat.covers == dict_walk_face_lattice(om)[0]

    @pytest.mark.parametrize("size", [1, 3, 50])
    def test_blocks_do_not_change_the_lattice(self, monkeypatch, size):
        want = [face_lattice(om_from_rset(k, 6)) for k in range(1, 6)]
        monkeypatch.setattr(matroid, "_BLOCK", size)
        assert [face_lattice(om_from_rset(k, 6)) for k in range(1, 6)] == want

    def test_free_om_at_the_ground_budget(self):
        # free: every sign vector is a covector and its height is its
        # support size, so level h holds 2^h * C(10, h) covectors
        lat = face_lattice(om_from_rset(9, 10))
        assert lat.rank == 10
        assert lat.level_sizes() == tuple(
            2 ** h * comb(10, h) for h in range(11)) + (1,)
        assert len(lat.covers) == 10 * 2 * 3 ** 9 + 2 ** 10

    @pytest.mark.parametrize("texts", [
        ("00", "+0", "++", "--"),  # a cover that skips a height
        ("00", "+0"),  # a maximal element below the top
        ("000", "+00", "++0", "+++", "---"),  # a tope of height 1
        ("000", "+00", "++0", "+++", "0-0"),  # steps of one, one dangles
    ])
    def test_non_graded_and_dangling_families(self, texts):
        om = hand_built_om(len(texts[0]), svs(*texts))
        assert not assert_lattice_matches_literal(om)


class TestRank:
    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
                                     (3, 4), (3, 5), (3, 6), (4, 6)])
    def test_crossover_rank_is_k_plus_one(self, k, n):
        om = om_from_rset(k, n)
        assert om.rank == k + 1

    def test_six_bit_three_point(self):
        assert om_from_rset(3, 6).rank == 4

    def test_free_rank_equals_ground_size(self):
        for n in (2, 3, 4):
            assert om_from_rset(n - 1, n).rank == n

    def test_rank_matches_literal_on_seeded_tope_sets(self):
        # the height table must hold off OMs too, where the face order is
        # not a graded lattice
        rng = random.Random(1616)
        graded = Counter()
        for _ in range(300):
            n = rng.randint(2, 5)
            full = (1 << n) - 1
            half = rng.sample(range(1 << n), rng.randint(1, 1 << n - 1))
            om = covectors_from_topes(
                [SignVector(n, p, full & ~p) for q in half for p in (q, full & ~q)])
            graded[assert_rank_matches_literal(om)] += 1
        assert graded[True] >= 20 and graded[False] >= 20


class TestUniformity:
    def test_rhombododecahedron(self):
        om = om_from_rset(2, 4)
        assert is_uniform(om) == (True, 2)
        assert len(om.cocircuits) == 12

    def test_cocircuit_count_adjudication(self):
        # two closed forms circulate for the cocircuit count; enumeration
        # agrees with 2*C(n,k) and refutes 2*C(n,k-1) whenever they differ
        for k, n in ((2, 4), (2, 5), (3, 6)):
            om = om_from_rset(k, n)
            assert len(om.cocircuits) == 2 * comb(n, k)
            assert len(om.cocircuits) != 2 * comb(n, k - 1)

    def test_five_bit_two_point(self):
        om = om_from_rset(2, 5)
        assert is_uniform(om) == (True, 3)
        assert len(om.cocircuits) == 20

    def test_support_size_complements_rank(self):
        for k, n in ((1, 4), (2, 4), (2, 5), (3, 6)):
            om = om_from_rset(k, n)
            uniform, s = is_uniform(om)
            assert uniform and s == n - om.rank + 1 == n - k

    def test_duplicated_coordinate_not_uniform(self):
        # interval function of a 6-cycle, embedded and then one cut
        # coordinate doubled: still an OM, no longer uniform
        c6 = SimpleGraph(list(range(6)), [(i, (i + 1) % 6) for i in range(6)])
        emb = is_partial_cube(c6)
        texts = [f"{m:0{emb.word_length}b}" for m in emb.labels]
        topes = [sv("".join("+" if ch == "1" else "-" for ch in t + t[-1])) for t in texts]
        om = covectors_from_topes(topes)
        assert check_face_axioms(om.covectors).holds
        assert is_uniform(om) == (False, None)
        assert {c.support_size for c in om.cocircuits} == {2, 3}


class TestUniformTopeCheck:
    def test_five_bit_two_point(self):
        topes = antipodal_topes(2, 5)
        assert len(topes) == 22 == 2 * phi(2, 4)
        assert uniform_tope_check(topes)

    def test_four_bit_one_point(self):
        topes = antipodal_topes(1, 4)
        assert len(topes) == 8 == 2 * phi(1, 3)
        assert uniform_tope_check(topes)

    def test_missing_partner(self):
        assert not uniform_tope_check(svs("++", "--", "+-"))

    def test_singleton(self):
        assert not uniform_tope_check(svs("+-"))

    def test_empty_family_raises_as_covectors_from_topes_does(self):
        # both callers of the shared validator refuse the empty family
        for check in (uniform_tope_check, covectors_from_topes):
            with pytest.raises(ValueError, match="empty tope set"):
                check([])
            with pytest.raises(ValueError, match="empty tope set"):
                check(iter(()))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_count_passes_the_cube_less_one_antipodal_pair(self, n):
        # the documented blind spot: 2^n - 2 = 2 phi_{n-2}(n-1), and the
        # VC dimension drops from n to n - 1
        full = (1 << n) - 1
        topes = [SignVector(n, m, full ^ m) for m in range(1, full)]
        assert len(topes) == 2 * phi(n - 2, n - 1)
        assert uniform_tope_check(topes)

    def test_partial_support_rejected(self):
        with pytest.raises(ValueError):
            uniform_tope_check(svs("+0"))

    @pytest.mark.parametrize("texts,fault", [
        (("++", "--", "+++", "---"), "length mismatch"),
        (("+++", "---", "+-", "-+"), "length mismatch"),
        (("+0", "-0", "+++", "---"), "full support"),
        (("++", "--", "+0-", "-0+"), "length mismatch"),
        (("++", "+0", "--"), "full support"),
    ])
    def test_faults_named_as_covectors_from_topes_names_them(self, texts, fault):
        """One validator: the first offender in canonical order, shortest
        length first and then by key, names the fault in either input
        order."""
        for order in (texts, texts[::-1]):
            for check in (uniform_tope_check, covectors_from_topes):
                with pytest.raises(ValueError, match=fault):
                    check(svs(*order))

    @pytest.mark.parametrize("k,n", [(1, 2), (1, 5), (2, 6), (3, 7), (4, 8), (7, 8)])
    def test_crossover_topes_pass(self, k, n):
        assert uniform_tope_check(antipodal_topes(k, n))


class TestOmFromRset:
    def test_pre_validation(self):
        for k, n in ((0, 3), (3, 3), (4, 2), (1, 11)):
            with pytest.raises((ValueError, BudgetExceededError)):
                om_from_rset(k, n)

    def test_failed_tope_check_raises(self, monkeypatch):
        monkeypatch.setattr(matroid, "uniform_tope_check", lambda topes: False)
        with pytest.raises(RuntimeError, match="tope count"):
            om_from_rset(2, 4)

    def test_ground_size_carried(self):
        om = om_from_rset(2, 5)
        assert om.ground_size == 5
        assert all(t.n == 5 for t in om.topes)


class TestTopeGraph:
    @pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 6)])
    def test_matches_rset_graph(self, k, n):
        om = om_from_rset(k, n)
        tg = tope_graph(om)
        spec = bspec(n)
        rg = transit_graph(
            k, Word.from_index(0, spec), Word.from_index(2**n - 1, spec)
        )
        t_edges = {
            frozenset((str(word_of(tg.vertices[i])), str(word_of(tg.vertices[j]))))
            for i, j in tg.edges
        }
        r_edges = {
            frozenset((str(rg.vertices[i]), str(rg.vertices[j])))
            for i, j in rg.edges
        }
        assert t_edges == r_edges

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_pair_scan(self, n):
        # the all-pairs scan that the one-bit flips replaced
        for k in range(1, n):
            om = om_from_rset(k, n)
            topes = om.topes
            edges = [(i, j) for i in range(len(topes))
                     for j in range(i + 1, len(topes))
                     if (topes[i].pos ^ topes[j].pos).bit_count() == 1]
            tg = tope_graph(om)
            assert tg.vertices == topes
            assert tg.edges == SimpleGraph(topes, edges).edges == tuple(edges)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_the_bit_flips(self, n):
        # the one-bit flip of each tope's mask, tope_graph's own loop before
        # it shared the word graphs' edge finder
        for k in range(1, n):
            om = om_from_rset(k, n)
            index = {t.pos: i for i, t in enumerate(om.topes)}
            edges = [(i, j) for i, t in enumerate(om.topes) for b in range(n)
                     if (j := index.get(t.pos ^ 1 << b, i)) > i]
            assert tope_graph(om).edges == SimpleGraph(om.topes, edges).edges

    def test_empty_ground_set(self):
        om = covectors_from_topes([SignVector(0, 0, 0)])
        assert tope_graph(om).n == 1 and tope_graph(om).m == 0

    @pytest.mark.parametrize("t", [4, 5, 6])
    def test_two_point_quadrangles_count_cocircuits(self, t):
        om = om_from_rset(2, t)
        ok, quads = is_planar_quadrangulation(tope_graph(om))
        assert ok
        assert quads == len(om.cocircuits) == t * t - t
