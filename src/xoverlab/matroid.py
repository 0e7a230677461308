"""Sign vectors, tope-driven covector reconstruction, and face lattices.

Covectors are rebuilt from topes by the elementary criterion: X is a
covector exactly when its composition with every tope is again a tope.
Cocircuits, rank, uniformity, and the big face lattice are all derived from
the resulting covector set by enumeration; no closed-form counting formula
is ever trusted for these.

A sign vector is a pair of disjoint bitmasks (positive and negative
positions) with coordinate 1 in the most significant bit, mirroring the
binary word encoding.  The bulk scans hold a family as two numpy int64
arrays of those masks, in the order of the canonical key computed on them,
and test membership in one bool table of 4^n entries indexed by
(pos << n) | neg, 1 MiB at the ground budget n = 10.  The criterion splits
by zero set: X o T is X off the zero set Z of X and T on Z, so X is a
covector exactly when the topes that agree with X off Z are as many as the
distinct restrictions of topes to Z, 2^n |T| log |T| work in all.

The face axioms F0-F3 (Bjorner, Las Vergnas, Sturmfels, White, Ziegler,
*Oriented Matroids*, section 4.1) are decided per support class L_S, the
members with support S, instead of over all ordered pairs.  F2: X o Y is X
on S = supp X plus Y off S, and the members that agree with X on S are
X o R for distinct restrictions R of the family off S, so F2 holds at X
exactly when they are as many as those restrictions, two counts.  F3,
given F2: for any pair X, Y the compositions W = X o Y and W' = Y o X are
members with one support, W and W' are opposite exactly where X and Y are,
since off supp X & supp Y both copy the one vector defined there, and
W o W' = X o Y.  So (W, W') makes the elimination demand of (X, Y), and
the unordered pairs of equal support raise every demand.  Both axioms read
the restrictions of the family off a mask s from one table per popcount of
s, so two layers are alive at once, and pairs go in blocks of about 2^12
gathered across classes.  A failing family is scanned in canonical order,
for F2 from the first member whose two counts differ, for F3 pair by pair,
so the reported witness is the first in that order.

The order on sign vectors is the face order: X <= Y when X agrees with Y on
the support of X.  Canonical sorting is lexicographic per coordinate with
- < 0 < +, so every serialization is reproducible.  Covector heights come
from one dynamic program over the support-size layers of the 3^n grid:
best[x] is the largest number of nonzero covectors on a chain below or at
x, the maximum of best[x - e] over e in supp x, plus one when x is itself
a covector.  Every covector strictly below x conforms to some x - e, so
for a covector this is its longest-chain height above the zero vector.
The rank is the largest height and the cocircuits are the covectors of
height 1, the atoms of the face lattice.  The lattice looks up the
restrictions of x to the submasks of its support in a 4^n index table, one
matrix per support-size layer, and x covers those with no other one above
them: n 5^n work, in blocks of about 2^12 restrictions.  The tope graph
takes its edges from ``graphs._hamming_edges``, the word graphs' edge
finder, on the topes' positive masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

# vc_dimension stays bound here: perfbench's spans rebind it in this namespace
from .partialcube import _largest_full_projection, vc_dimension  # noqa: F401
from .words import AlphabetSpec, BudgetExceededError, Word, _unchecked, phi

DEFAULT_GROUND_BUDGET = 10
# pairs, masked topes or restrictions per block; larger ones raise the peak
# memory, and 2^14-2^18 ran face_lattice at n = 10 about 10-25 % faster
_BLOCK = 1 << 12

_CHARS = {1: "+", 0: "0", -1: "-"}


def _check_ground(n: int) -> None:
    if n > DEFAULT_GROUND_BUDGET:
        raise BudgetExceededError(f"space too large: ground set {n} exceeds "
                                  f"budget {DEFAULT_GROUND_BUDGET}")


def _check_k(k: int, n: int) -> None:
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")


@dataclass(frozen=True, slots=True)
class SignVector:
    """Vector over {+, 0, -}; pos and neg are disjoint position bitmasks."""

    n: int
    pos: int
    neg: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ground size {self.n} is negative")
        full = (1 << self.n) - 1
        if self.pos & self.neg:
            raise ValueError("positive and negative positions overlap")
        if self.pos & ~full or self.neg & ~full:
            raise ValueError("position mask outside ground set")

    @classmethod
    def zero(cls, n: int) -> "SignVector":
        return cls(n, 0, 0)

    @property
    def support(self) -> int:
        return self.pos | self.neg

    @property
    def support_size(self) -> int:
        return (self.pos | self.neg).bit_count()

    @property
    def is_zero(self) -> bool:
        return not (self.pos | self.neg)

    @property
    def key(self) -> int:
        """Canonical sort key: base-3 code with - < 0 < +, coordinate 1
        most significant."""
        # digit 1 + pos_b - neg_b at 3^b: each mask read as a base-3 numeral
        return ((3 ** self.n - 1) // 2
                + int(f"{self.pos:b}", 3) - int(f"{self.neg:b}", 3))

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.neg, self.pos)

    def _check(self, other: "SignVector") -> None:
        if self.n != other.n:
            raise ValueError("length mismatch")

    def compose(self, other: "SignVector") -> "SignVector":
        self._check(other)
        free = ~self.support
        return SignVector(
            self.n, self.pos | (other.pos & free), self.neg | (other.neg & free)
        )

    def separation(self, other: "SignVector") -> frozenset[int]:
        """1-based positions where the two vectors carry opposite signs."""
        self._check(other)
        d = (self.pos & other.neg) | (self.neg & other.pos)
        return frozenset(self.n - b for b in range(self.n) if d >> b & 1)

    def conforms(self, other: "SignVector") -> bool:
        """Face order: every nonzero entry of self agrees with other."""
        self._check(other)
        return self.pos & ~other.pos == 0 and self.neg & ~other.neg == 0

    def entries(self) -> tuple[int, ...]:
        return tuple(
            1 if self.pos >> b & 1 else -1 if self.neg >> b & 1 else 0
            for b in range(self.n - 1, -1, -1)
        )

    def __str__(self) -> str:
        return "".join(_CHARS[v] for v in self.entries())

    def __repr__(self) -> str:
        return f"SignVector({str(self)!r})"


def word_to_sign(w: Word) -> SignVector:
    """Binary word to full-support sign vector, 1 as + and 0 as -."""
    if not w.spec.is_binary:
        raise ValueError("sign vectors encode binary words only")
    return SignVector(w.spec.n, w.index, ((1 << w.spec.n) - 1) & ~w.index)


@dataclass(frozen=True)
class OrientedMatroidData:
    """Covector set with its derived topes, cocircuits, and rank."""

    ground_size: int
    covectors: tuple[SignVector, ...]
    topes: tuple[SignVector, ...]
    cocircuits: tuple[SignVector, ...]
    rank: int


def _bits(n: int) -> np.ndarray:
    """The 2^n by n table of bit b of each mask below 2^n."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def _keys(pos: np.ndarray, neg: np.ndarray, n: int) -> np.ndarray:
    """SignVector.key of each (pos, neg) pair, which numbers the 3^n grid."""
    base3 = _bits(n) @ 3 ** np.arange(n)
    return (3 ** n - 1) // 2 + base3[pos] - base3[neg]


def _pairs(lo: np.ndarray, hi: np.ndarray,
           size: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield (rows, cols) for every row i against every col in lo[i] ..
    hi[i] - 1, row by row, in blocks of about size pairs, each row's pairs
    in one block, which may then hold more."""
    counts = hi - lo
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    cuts = starts[np.searchsorted(ends, np.arange(0, total, size), side="right")]
    cuts = cuts[np.diff(cuts, prepend=-1) != 0]
    for t0, t1 in zip(cuts.tolist(), cuts[1:].tolist() + [total]):
        t = np.arange(t0, t1)
        rows = np.searchsorted(ends, t, side="right")
        yield rows, lo[rows] + (t - starts[rows])


def _zero_set_covectors(tope: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pos, neg) of the covectors of full-support topes with positive masks
    tope.  Per zero set Z, the distinct values of the sorted row tope & Z
    are the restrictions to Z, and each run of the sorted row tope & ~Z is
    a sign vector with zero set Z, its length the topes agreeing with it."""
    full = (1 << n) - 1
    m = len(tope)
    step = max(1, _BLOCK // m)
    parts = []
    for lo in range(0, 1 << n, step):
        z = np.arange(lo, min(lo + step, 1 << n))[:, None]
        inner = np.sort(tope & z, axis=1)
        restrictions = np.count_nonzero(np.diff(inner, axis=1, prepend=-1), axis=1)
        outer = np.sort(tope & ~z, axis=1)
        starts = np.flatnonzero(np.diff(outer, axis=1, prepend=-1))
        rows = starts // m
        hit = np.diff(starts, append=outer.size) == restrictions[rows]
        pos = outer.ravel()[starts[hit]]
        parts.append((pos, full & ~(z.ravel()[rows[hit]] | pos)))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _tope_length(topes: set[SignVector]) -> int:
    """The length of a non-empty family of full-support sign vectors of one
    length.  Otherwise the first offender in canonical order, shortest first
    and then by key, names the fault."""
    if not topes:
        raise ValueError("empty tope set")
    n = min(t.n for t in topes)
    bad = [t for t in topes if t.n != n or t.support_size != n]
    if bad:
        first = min(bad, key=lambda t: (t.n, t.key))
        raise ValueError("length mismatch" if first.n != n
                         else "topes must have full support")
    return n


def covectors_from_topes(topes: Iterable[SignVector]) -> OrientedMatroidData:
    """All sign vectors whose composition with every tope is a tope.

    Input topes must have full support and be closed under negation; the
    derived maximal covectors are checked to reproduce the input exactly.
    """
    tope_set = set(topes)
    n = _tope_length(tope_set)
    full = (1 << n) - 1
    masks = {t.pos for t in tope_set}
    if any(full ^ p not in masks for p in masks):
        raise ValueError("tope set not centrally symmetric")
    _check_ground(n)

    # the 3^n grid in canonical order, so that the key of a vector is its
    # index: each coordinate, most significant first, splits every vector
    # so far into its -, 0 and + extensions
    gpos = gneg = size = np.zeros(1, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        bit = 1 << b
        gpos = np.stack([gpos, gpos, gpos | bit], axis=1).ravel()
        gneg = np.stack([gneg | bit, gneg, gneg], axis=1).ravel()
        size = np.stack([size + 1, size, size + 1], axis=1).ravel()
    grid = (gpos << n) | gneg

    tope = np.sort(np.fromiter(masks, dtype=np.int64, count=len(masks)))
    is_covector = np.zeros(len(grid), dtype=np.int8)
    is_covector[_keys(*_zero_set_covectors(tope, n), n)] = 1
    live = np.flatnonzero(is_covector)
    pos, neg = gpos[live], gneg[live]
    maximal = (pos | neg) == full  # in the order of their positive masks
    if not np.array_equal(pos[maximal], tope):
        raise RuntimeError("derived topes differ from input")

    # longest chains, one support-size layer at a time: a layer reads only
    # the layer below, and a coordinate outside supp x reads x itself,
    # which is still 0
    best = np.zeros(1 << 2 * n, dtype=np.int8)
    for s in range(1, n + 1):
        layer = np.flatnonzero(size == s)
        codes = grid[layer]
        below = np.zeros(len(layer), dtype=np.int8)
        for b in range(n):
            np.maximum(below, best[codes & ~((1 << b) << n | 1 << b)], out=below)
        best[codes] = below + is_covector[layer]
    heights = best[(pos << n) | neg]
    # valid masks from the grid, so the vectors skip their checks
    covectors = _unchecked(SignVector, len(pos), lambda: {
        "n": repeat(n), "pos": pos.tolist(), "neg": neg.tolist()})
    return OrientedMatroidData(
        ground_size=n,
        covectors=covectors,
        topes=tuple(covectors[i] for i in np.flatnonzero(maximal).tolist()),
        cocircuits=tuple(covectors[i] for i in np.flatnonzero(heights == 1).tolist()),
        rank=int(heights.max()),
    )


@dataclass(frozen=True)
class FaceAxiomReport:
    """First violation of the covector axioms, if any.

    axiom is one of F0..F3 when holds is false.  The F2 witness is the
    offending ordered pair; the F3 witness carries the pair plus the
    1-based separating position with no eliminator.
    """

    holds: bool
    axiom: str | None
    witness: tuple | None


def _masks(vectors: list[SignVector]) -> tuple[int, np.ndarray, np.ndarray]:
    """Ground size and (pos, neg) arrays of a non-empty family of one
    length within the ground budget."""
    count = len(vectors)
    lengths = np.fromiter((x.n for x in vectors), np.int64, count)
    pos = np.fromiter((x.pos for x in vectors), np.int64, count)
    neg = np.fromiter((x.neg for x in vectors), np.int64, count)
    if (lengths != lengths[0]).any():
        raise ValueError("length mismatch")
    _check_ground(int(lengths[0]))
    return int(lengths[0]), pos, neg


def _first_pair(pos: np.ndarray, neg: np.ndarray, start: int,
                flag: Callable[..., np.ndarray]) -> tuple[int, int, int]:
    """(row, column, value) of the first ordered pair, row by row from row
    ``start``, for which flag(X o Y masks, D) is nonzero."""
    m = len(pos)
    step = max(1, _BLOCK // m)
    for lo in range(start, m, step):
        xp, xn = pos[lo:lo + step, None], neg[lo:lo + step, None]
        free = ~(xp | xn)
        value = flag(xp | (pos & free), xn | (neg & free), (xp & neg) | (xn & pos))
        if value.any():
            i, j = divmod(int(np.argmax(value != 0)), m)
            return lo + i, j, int(value[i, j])
    raise RuntimeError("violation vanished on rescan")


def _layers(pos: np.ndarray, neg: np.ndarray,
            n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Restriction tables of the popcount layers p = 0, 1, ..., n: for each
    mask s with p bits, the distinct restrictions of the family off s as
    sorted keys (s << 2n) | (pos << n) | neg, and for each the coordinates
    of s where some member with that restriction is 0 and how many members
    have it.  Those off s come from those off s less its lowest bit b, a
    member being 0 at b exactly when its restriction is, so a layer is
    built from the one below, a block of masks at a time."""
    keys = np.sort((pos << n) | neg)
    zeros = np.zeros(len(keys), dtype=np.int32)
    counts = np.ones(len(keys), dtype=np.int32)
    popcount = _bits(n).sum(axis=1)
    codes = (1 << 2 * n) - 1
    for p in range(1, n + 1):
        yield keys, zeros, counts
        layer = np.flatnonzero(popcount == p)
        parent = (layer & (layer - 1)) << 2 * n
        lo = np.searchsorted(keys, parent)
        hi = np.searchsorted(keys, parent + (1 << 2 * n))
        parts = []
        for rows, cols in _pairs(lo, hi, _BLOCK):
            s = layer[rows]
            b = s & -s
            spread = b << n | b
            code = keys[cols] & codes
            k = (s << 2 * n) | (code & ~spread)
            order = np.argsort(k)
            k = k[order]
            first = np.flatnonzero(np.diff(k, prepend=-1))
            z = zeros[cols] | np.where(code & spread, 0, b)
            parts.append((k[first],
                          np.bitwise_or.reduceat(z[order], first, dtype=np.int32),
                          np.add.reduceat(counts[cols][order], first, dtype=np.int32)))
        keys, zeros, counts = (np.concatenate(arrays) for arrays in zip(*parts))
    yield keys, zeros, counts


def _decide_f2_f3(pos: np.ndarray, neg: np.ndarray, table: np.ndarray,
                  n: int) -> tuple[int | None, np.ndarray]:
    """The first row failing F2, or None, and a 4^n table holding, at each F3
    query, the first coordinate e of its separator D with no eliminator, or 0.

    F2 holds at X of support S when the count at key (~S, X) of layer
    n - |S| equals the number of keys of S in layer |S|.

    F3 for e separating X and Y asks for Z with Z_e = 0 that agrees with
    X o Y off D.  For distinct X and Y of one support, X o Y = X, D is not
    empty, and X and Y agree off D, so both orders make one demand.  Unless
    the Z that zeroes all of D settles it, it is a query ((P | D) << n) |
    (N | D), P and N the masks of X, which lacks an eliminator exactly at
    the coordinates of D missing from the zeros recorded for X off D.
    """
    support = pos | neg
    order = np.argsort(support, kind="stable")
    pos, neg, support = pos[order], neg[order], support[order]
    pending = np.zeros_like(table)
    ends = np.searchsorted(support, support, side="right")
    for rows, cols in _pairs(np.arange(1, len(support) + 1), ends, _BLOCK):
        xp, xn, yp, yn = pos[rows], neg[rows], pos[cols], neg[cols]
        d = (xp & yn) | (xn & yp)
        settled = table[((xp & ~d) << n) | (xn & ~d)]
        pending[(((xp | d) << n) | (xn | d))[~settled]] = True
    queries = np.flatnonzero(pending)
    sep = (queries >> n) & queries
    wanted = (sep << 2 * n) | (queries & ~(sep << n | sep))
    failing = np.zeros(len(table), dtype=np.int8)
    popcount = _bits(n).sum(axis=1)
    size, sep_size = popcount[support], popcount[sep]
    unmet = np.zeros(len(support), dtype=np.int32)
    own = ((support ^ ((1 << n) - 1)) << 2 * n) | (pos << n) | neg
    for p, (keys, zeros, counts) in enumerate(_layers(pos, neg, n)):
        unmet[size == p] += np.bincount(
            keys >> 2 * n, minlength=1 << n)[support[size == p]]
        unmet[size == n - p] -= counts[np.searchsorted(keys, own[size == n - p])]
        asked = np.flatnonzero(sep_size == p)
        missing = sep[asked] & ~zeros[np.searchsorted(keys, wanted[asked])]
        # e sits at bit n - e, so the first missing e is the top bit
        failing[queries[asked]] = np.where(missing, n + 1 - np.frexp(missing)[1], 0)
    return (int(order[unmet != 0].min()) if unmet.any() else None), failing


def check_face_axioms(vectors: Iterable[SignVector]) -> FaceAxiomReport:
    """F0/F1 by lookup, then F2 and F3 decided per support class, one
    support-size layer at a time.

    The report, witness included, is the first violation in canonical
    order: pairs (X, Y) row by row, then separating positions ascending.
    A family that fails F2 is rescanned from the first row failing it, one
    that fails F3 pair by pair.
    """
    given = list(vectors)
    if not given:
        return FaceAxiomReport(False, "F0", ())
    n, pos, neg = _masks(given)
    key = _keys(pos, neg, n)
    # the family in canonical order, one index into given per member
    order = np.argsort(key, kind="stable")
    order = order[np.diff(key[order], prepend=-1) != 0]
    pos, neg = pos[order], neg[order]
    table = np.zeros(1 << 2 * n, dtype=bool)
    table[(pos << n) | neg] = True
    if not table[0]:
        return FaceAxiomReport(False, "F0", ())
    negated = table[(neg << n) | pos]
    if not negated.all():
        return FaceAxiomReport(False, "F1", (given[order[np.argmin(negated)]],))

    row, failing = _decide_f2_f3(pos, neg, table, n)
    if row is not None:
        i, j, _ = _first_pair(pos, neg, row, lambda cp, cn, d: ~table[(cp << n) | cn])
        return FaceAxiomReport(False, "F2", (given[order[i]], given[order[j]]))
    if not failing.any():
        return FaceAxiomReport(True, None, None)

    # a violation exists; rescan all pairs in canonical order so the
    # witness does not depend on the reduction above
    i, j, e = _first_pair(
        pos, neg, 0, lambda cp, cn, d: failing[((cp | d) << n) | (cn | d)])
    return FaceAxiomReport(False, "F3", (given[order[i]], given[order[j]], e))


@dataclass(frozen=True)
class FaceLattice:
    """Covectors plus a synthetic maximum, graded by chain height.

    heights[i] is the height of covectors[i]; the synthetic top has height
    rank + 1.  covers lists Hasse pairs (lower, upper) as indices into
    covectors, with len(covectors) standing for the top.
    """

    covectors: tuple[SignVector, ...]
    heights: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    rank: int

    def level_sizes(self) -> tuple[int, ...]:
        levels = np.bincount(self.heights, minlength=self.rank + 1)
        return tuple(levels.tolist()) + (1,)

    def to_dot(self) -> str:
        return "\n".join(
            ["digraph face_lattice {", "  rankdir=BT;"]
            + [f'  n{i} [label="{x}"];' for i, x in enumerate(self.covectors)]
            + [f'  n{len(self.covectors)} [label="1^"];']
            + [f"  n{lo} -> n{hi};" for lo, hi in self.covers] + ["}"])


def face_lattice(om: OrientedMatroidData) -> FaceLattice:
    """Hasse diagram of the face order with an adjoined maximum.

    The covectors below x, its restrictions to proper subsets of its
    support, are read off a 4^n index table in which a repeated vector is
    its last copy.  Heights are recomputed here, not trusted from the
    construction.  Raises when the order is not graded.
    """
    covectors = list(om.covectors)
    if not any(x.is_zero for x in covectors):
        raise ValueError("not a valid OM lattice")
    n, pos, neg = _masks(covectors)
    top = len(covectors)
    code, support = (pos << n) | neg, pos | neg
    index = np.full(1 << 2 * n, -1, dtype=np.int32)
    np.maximum.at(index, code, np.arange(top, dtype=np.int32))  # last copy wins
    popcount = _bits(n).sum(axis=1)
    size = popcount[support]
    # heights[top] = -1 stands for an absent restriction, at index -1, until
    # it becomes the height of the top
    heights = np.full(top + 1, -1, dtype=np.int64)
    maximal = np.flatnonzero(size == om.ground_size)
    lows, highs = [maximal], [np.full(len(maximal), top)]
    for s in range(n + 1):
        layer = np.flatnonzero(size == s)
        # the row of support S lists its submasks ascending, so bit j of a
        # column picks the j-th lowest bit of S
        supports = np.flatnonzero(popcount == s)
        subs = np.nonzero((np.arange(1 << n) & ~supports[:, None]) == 0)[1]
        spread = (subs << n | subs).reshape(-1, 1 << s)
        which = np.searchsorted(supports, support[layer])
        step = max(1, _BLOCK >> s)
        for start in range(0, len(layer), step):
            rows = layer[start:start + step]
            below = index[code[rows, None] & spread[which[start:start + step]]]
            below[:, -1] = -1  # x itself
            heights[rows] = heights[below].max(axis=1) + 1
            # x covers x|S' when no x|S'' with S' < S'' < supp x is a
            # covector: count those over each one, itself included
            above = (below >= 0).astype(np.int32)
            for b in range(s):
                half = above.reshape(len(rows), -1, 2, 1 << b)
                half[:, :, 0] += half[:, :, 1]
            r, p = np.nonzero((below >= 0) & (above == 1))
            lows.append(below[r, p])
            highs.append(rows[r])
    rank = int(heights[:top].max())
    heights[top] = rank + 1
    lo, hi = np.concatenate(lows), np.concatenate(highs)
    # graded with the top at rank + 1: every cover steps up one height and
    # every covector lies under some cover, so each chain ends at the top
    if (not np.bincount(lo, minlength=top).all()
            or (heights[hi] != heights[lo] + 1).any()):
        raise ValueError("not a valid OM lattice")
    order = np.lexsort((hi, lo))
    covers = tuple(zip(lo[order].tolist(), hi[order].tolist()))
    return FaceLattice(tuple(covectors), tuple(heights[:top].tolist()), covers, rank)


def is_uniform(om: OrientedMatroidData) -> tuple[bool, int | None]:
    """Whether all cocircuit supports share one size covering all subsets.

    Decided purely by enumeration of the cocircuits.
    """
    sizes = {c.support_size for c in om.cocircuits}
    supports = {c.support for c in om.cocircuits}
    if len(sizes) != 1 or len(supports) != comb(om.ground_size, min(sizes)):
        return False, None
    return True, min(sizes)


def uniform_tope_check(topes: Iterable[SignVector]) -> bool:
    """Tope count and symmetry test: T = -T and |T| = 2 phi_{d-1}(|E|-1),
    with d the VC dimension of the topes read as binary words.  The count is
    necessary only: R_{n-1}'s topes (the whole cube) less one antipodal pair
    pass, since 2^n - 2 = 2 phi_{n-2}(n-1)."""
    tope_set = set(topes)
    n = _tope_length(tope_set)
    masks = [t.pos for t in tope_set]
    if set(masks) != {p ^ ((1 << n) - 1) for p in masks}:
        return False
    d = _largest_full_projection(masks, n)
    return d >= 1 and len(masks) == 2 * phi(d - 1, n - 1)


def om_from_rset(k: int, n: int) -> OrientedMatroidData:
    """Oriented matroid of the k-point crossover set on an antipodal pair."""
    _check_k(k, n)
    _check_ground(n)
    from .crossover import rset

    spec, full = AlphabetSpec((2,) * n), (1 << n) - 1
    pair = rset(k, Word.from_index(0, spec), Word.from_index(full, spec))
    # a binary word's packed index is its + mask, so no word is decoded
    topes = [SignVector(n, i, full ^ i) for i in pair.members.sorted_indices]
    if not uniform_tope_check(topes):
        raise RuntimeError("crossover topes failed the tope count test")
    return covectors_from_topes(topes)


def tope_graph(om: OrientedMatroidData):
    """Graph on topes with edges at separation exactly one; topes have full
    support, so they are separated exactly where their positive masks differ,
    and ``graphs._hamming_edges`` reads the edges off those masks as binary
    packed indices."""
    from .graphs import SimpleGraph, _hamming_edges

    topes = om.topes
    return SimpleGraph(topes, _hamming_edges([t.pos for t in topes],
                                             (2,) * om.ground_size))
