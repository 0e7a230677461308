"""Sign vectors, tope-driven covector reconstruction, and face lattices.

Covectors are rebuilt from topes by the elementary criterion: X is a
covector exactly when its composition with every tope is again a tope.
Cocircuits, rank, uniformity, and the big face lattice are all derived from
the resulting covector set by enumeration; no closed-form counting formula
is ever trusted for these.

A sign vector is a pair of disjoint bitmasks (positive and negative
positions) with coordinate 1 in the most significant bit, mirroring the
binary word encoding.  The bulk scans hold a family as two numpy int64
arrays of those masks and test membership in one bool table of 4^n entries
indexed by (pos << n) | neg, which is 1 MiB at the ground budget n = 10.
Composition, separation and elimination candidates are then a few bitwise
array operations and one table lookup.  The covector scan filters the 3^n
sign vectors tope by tope.  Pair scans run in blocks of about 2^17 pairs,
so their memory does not grow with the square of the family size.

The face axioms F0-F3 (Bjorner, Las Vergnas, Sturmfels, White, Ziegler,
*Oriented Matroids*, section 4.1) are decided per support class L_S, the
members with support S, instead of over all ordered pairs.  F2: X o Y is X
on S = supp X plus Y off S, so composition closure holds exactly when every
X in L_S, joined with every distinct restriction of the family to the
complement of S, is a member; that is sum |L_S| * |L off S| lookups.  F3,
given F2: for any pair X, Y the compositions W = X o Y and W' = Y o X are
members with one support, W and W' are opposite exactly where X and Y are,
since off supp X & supp Y both copy the one vector defined there, and
W o W' = X o Y.  So (W, W') makes the elimination demand of (X, Y), and
the pairs of equal support raise every demand, in sum |L_S|^2 pairs.  Only
a family that fails is scanned pair by pair in canonical order, so the
reported witness is the first in that order whichever way it was found.

The order on sign vectors is the face order: X <= Y when X agrees with Y on
the support of X.  Canonical sorting is lexicographic per coordinate with
- < 0 < +, so every serialization is reproducible.  Covector heights come
from one dynamic program over the support-size layers of the 3^n grid:
best[x] is the largest number of nonzero covectors on a chain below or at
x, the maximum of best[x - e] over e in supp x, plus one when x is itself
a covector.  Every covector strictly below x conforms to some x - e, so
for a covector this is its longest-chain height above the zero vector.
The rank is the largest height and the cocircuits are the covectors of
height 1, the atoms of the face lattice.  The lattice itself walks the
submasks of each covector's support to list the covectors below it and
its covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# vc_dimension stays bound here: perfbench's spans rebind it in this namespace
from .partialcube import _largest_full_projection, vc_dimension  # noqa: F401
from .words import AlphabetSpec, BudgetExceededError, Word, phi

DEFAULT_GROUND_BUDGET = 10
_BLOCK_PAIRS = 1 << 17

# coordinate mask -> (sorted restriction codes, zero coordinates per code)
_Restrictions = Callable[[int], tuple[np.ndarray, np.ndarray]]

_CHARS = {1: "+", 0: "0", -1: "-"}
_VALUES = {"+": 1, "0": 0, "-": -1}


def _check_ground(n: int, budget: int = DEFAULT_GROUND_BUDGET) -> None:
    if n > budget:
        raise BudgetExceededError(
            f"space too large: ground set {n} exceeds budget {budget}")


@dataclass(frozen=True)
class SignVector:
    """Vector over {+, 0, -}; pos and neg are disjoint position bitmasks."""

    n: int
    pos: int
    neg: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.pos & self.neg:
            raise ValueError("positive and negative positions overlap")
        if self.pos & ~full or self.neg & ~full:
            raise ValueError("position mask outside ground set")

    @classmethod
    def zero(cls, n: int) -> "SignVector":
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        n = len(text)
        pos = neg = 0
        for i, ch in enumerate(text):
            if ch not in _VALUES:
                raise ValueError(f"bad sign character {ch!r} at position {i + 1}")
            bit = 1 << (n - 1 - i)
            if ch == "+":
                pos |= bit
            elif ch == "-":
                neg |= bit
        return cls(n, pos, neg)

    def entry(self, e: int) -> int:
        """Sign at 1-based position e as an integer in {-1, 0, 1}."""
        if not 1 <= e <= self.n:
            raise ValueError(f"position {e} outside 1..{self.n}")
        bit = 1 << (self.n - e)
        return 1 if self.pos & bit else -1 if self.neg & bit else 0

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

    def negate(self) -> "SignVector":
        return SignVector(self.n, self.neg, self.pos)

    __neg__ = negate

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
    for size in w.spec.sizes:
        if size != 2:
            raise ValueError("sign vectors encode binary words only")
    n = w.spec.n
    full = (1 << n) - 1
    return SignVector(n, w.index, full & ~w.index)


def sign_to_word(x: SignVector, spec: AlphabetSpec | None = None) -> Word:
    if x.support_size != x.n:
        raise ValueError("only full-support sign vectors encode words")
    if spec is None:
        spec = AlphabetSpec((2,) * x.n)
    return Word.from_index(x.pos, spec)


@dataclass(frozen=True)
class OrientedMatroidData:
    """Covector set with its derived topes, cocircuits, and rank."""

    ground_size: int
    covectors: tuple[SignVector, ...]
    topes: tuple[SignVector, ...]
    cocircuits: tuple[SignVector, ...]
    rank: int


def _canonical(vectors: Iterable[SignVector]) -> list[SignVector]:
    return sorted(vectors, key=lambda x: x.key)


def _masks(vectors: Sequence[SignVector]) -> tuple[np.ndarray, np.ndarray]:
    """The pos and neg masks of vectors as two int64 arrays."""
    pos = np.fromiter((v.pos for v in vectors), dtype=np.int64, count=len(vectors))
    neg = np.fromiter((v.neg for v in vectors), dtype=np.int64, count=len(vectors))
    return pos, neg


def _table(pos: np.ndarray, neg: np.ndarray, n: int) -> np.ndarray:
    """Membership table of 4^n entries, indexed by (pos << n) | neg."""
    table = np.zeros(1 << 2 * n, dtype=bool)
    table[(pos << n) | neg] = True
    return table


def covectors_from_topes(
    topes: Iterable[SignVector], budget: int = DEFAULT_GROUND_BUDGET
) -> OrientedMatroidData:
    """All sign vectors whose composition with every tope is a tope.

    Input topes must have full support and be closed under negation; the
    derived maximal covectors are checked to reproduce the input exactly.
    """
    tope_list = _canonical(set(topes))
    if not tope_list:
        raise ValueError("empty tope set")
    n = tope_list[0].n
    for t in tope_list:
        if t.n != n:
            raise ValueError("length mismatch")
        if t.support_size != n:
            raise ValueError("topes must have full support")
    tope_keys = {(t.pos, t.neg) for t in tope_list}
    for t in tope_list:
        if (t.neg, t.pos) not in tope_keys:
            raise ValueError("tope set not centrally symmetric")
    _check_ground(n, budget)

    # the 3^n grid in canonical order: each coordinate, most significant
    # first, splits every vector so far into its -, 0 and + extensions
    pos = neg = size = np.zeros(1, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        bit = 1 << b
        pos = np.stack([pos, pos, pos | bit], axis=1).ravel()
        neg = np.stack([neg | bit, neg, neg], axis=1).ravel()
        size = np.stack([size + 1, size, size + 1], axis=1).ravel()
    grid = (pos << n) | neg
    tope_pos, tope_neg = _masks(tope_list)
    is_tope = _table(tope_pos, tope_neg, n)
    live = np.arange(len(grid))
    for tp, tn in zip(tope_pos.tolist(), tope_neg.tolist()):
        free = ~(pos | neg)
        keep = is_tope[((pos | (tp & free)) << n) | (neg | (tn & free))]
        pos, neg, live = pos[keep], neg[keep], live[keep]
    covectors = [SignVector(n, p, q) for p, q in zip(pos.tolist(), neg.tolist())]

    maximal = [x for x in covectors if x.support_size == n]
    if maximal != tope_list:
        raise RuntimeError("derived topes differ from input")

    # longest chains, one support-size layer at a time: a layer reads only
    # the layer below, and a coordinate outside supp x reads x itself,
    # which is still 0
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
        topes=tuple(tope_list),
        cocircuits=tuple(x for x, h in zip(covectors, heights) if h == 1),
        rank=max(heights),
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


def _pair_blocks(
    xpos: np.ndarray, xneg: np.ndarray, ypos: np.ndarray, yneg: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (first row, X o Y masks, separator D) for blocks of rows X
    against every column Y; a block holds about _BLOCK_PAIRS pairs."""
    step = max(1, _BLOCK_PAIRS // len(ypos))
    for lo in range(0, len(xpos), step):
        xp, xn = xpos[lo:lo + step, None], xneg[lo:lo + step, None]
        free = ~(xp | xn)
        yield lo, xp | (ypos & free), xn | (yneg & free), (xp & yneg) | (xn & ypos)


def _first_pair(
    pos: np.ndarray, neg: np.ndarray,
    flag: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[int, int, int]:
    """(row, column, value) of the first ordered pair, row by row, for
    which flag(X o Y masks, D) is nonzero."""
    m = len(pos)
    for lo, cp, cn, d in _pair_blocks(pos, neg, pos, neg):
        value = flag(cp, cn, d)
        if value.any():
            i, j = divmod(int(np.argmax(value != 0)), m)
            return lo + i, j, int(value[i, j])
    raise RuntimeError("violation vanished on rescan")


def _restrictions(pos: np.ndarray, neg: np.ndarray, n: int) -> _Restrictions:
    """A memoised map from a coordinate mask s to the distinct restrictions
    of the family off s, as sorted codes (pos << n) | neg, and for each the
    coordinates of s where some member with that restriction is 0.

    The restrictions off s come from those off s less its lowest bit b, a
    member being 0 at b exactly when its restriction is, so each step sorts
    at most 3^(n - |s| + 1) codes instead of the whole family.
    """
    memo = {0: (np.sort((pos << n) | neg), np.zeros(len(pos), dtype=np.int64))}

    def off(s: int) -> tuple[np.ndarray, np.ndarray]:
        if s not in memo:
            b = s & -s
            codes, zeros = off(s ^ b)
            spread = b << n | b
            zeros = zeros | np.where(codes & spread, 0, b)
            codes = codes & ~spread
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
            memo[s] = codes[first], np.bitwise_or.reduceat(zeros[order], first)
        return memo[s]

    return off


def _first_uneliminated(off: _Restrictions, n: int, queries: np.ndarray) -> np.ndarray:
    """For each elimination query, the first coordinate e of D with no
    eliminator, or 0 when every e in D has one.

    A query ((P | D) << n) | (N | D) stands for the separator D (bits set in
    both halves) and X o Y off D, given by P and N.  The eliminators for e
    are the vectors with Z_e = 0 whose restriction off D is (P, N), so the
    query lacks one exactly at the coordinates of D missing from the zeros
    that off(D) records for (P, N).  F2 puts X o Y in the family, so (P, N)
    is one of its restrictions off D.
    """
    first = np.zeros(len(queries), dtype=np.int8)
    if not len(queries):
        return first
    high, low = queries >> n, queries & ((1 << n) - 1)
    sep = high & low
    keys = ((high & ~sep) << n) | (low & ~sep)
    order = np.argsort(sep, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(sep[order])) + 1):
        d = int(sep[group[0]])
        codes, zeros = off(d)
        missing = d & ~zeros[np.searchsorted(codes, keys[group])]
        # e sits at bit n - e, so the first missing e is the top bit
        first[group] = np.where(missing > 0, n + 1 - np.frexp(missing)[1], 0)
    return first


def _class_queries(
    pos: np.ndarray, neg: np.ndarray, table: np.ndarray, n: int, off: _Restrictions
) -> np.ndarray | None:
    """Table of the F3 elimination queries, or None when F2 fails.

    Per support S, F2 joins L_S with the distinct restrictions off S, and
    the pairs within L_S raise every F3 demand.  F3 for e separating X and
    Y asks for Z with Z_e = 0 that agrees with X o Y off the separator D.
    Most pairs are settled by the candidate that zeroes all of D; the rest
    depend only on D and X o Y off D, so they are collected once each as
    queries ((P | D) << n) | (N | D), with (P, N) the masks of X o Y.
    """
    support = pos | neg
    order = np.argsort(support, kind="stable")
    pending = np.zeros_like(table)
    for cls in np.split(order, np.flatnonzero(np.diff(support[order])) + 1):
        xpos, xneg = pos[cls], neg[cls]
        rest, _ = off(int(support[cls[0]]))
        blocks = _pair_blocks(xpos, xneg, rest >> n, rest & (1 << n) - 1)
        if not all(table[(cp << n) | cn].all() for _, cp, cn, _ in blocks):
            return None
        for _, cp, cn, d in _pair_blocks(xpos, xneg, xpos, xneg):
            settled = table[((cp & ~d) << n) | (cn & ~d)]
            pending[(((cp | d) << n) | (cn | d))[(d != 0) & ~settled]] = True
    return pending


def check_face_axioms(vectors: Iterable[SignVector]) -> FaceAxiomReport:
    """F0/F1 by lookup, then F2 and F3 decided per support class.

    The report, witness included, is the first violation in canonical
    order: pairs (X, Y) row by row, then separating positions ascending.
    A family that fails F2 or F3 is rescanned pair by pair for it.
    """
    family = _canonical(set(vectors))
    if not family:
        return FaceAxiomReport(False, "F0", ())
    n = family[0].n
    for x in family:
        if x.n != n:
            raise ValueError("length mismatch")
    _check_ground(n)
    pos, neg = _masks(family)
    table = _table(pos, neg, n)
    if not table[0]:
        return FaceAxiomReport(False, "F0", ())
    negated = table[(neg << n) | pos]
    if not negated.all():
        return FaceAxiomReport(False, "F1", (family[int(np.argmin(negated))],))

    off = _restrictions(pos, neg, n)
    pending = _class_queries(pos, neg, table, n, off)
    if pending is None:
        i, j, _ = _first_pair(pos, neg, lambda cp, cn, d: ~table[(cp << n) | cn])
        return FaceAxiomReport(False, "F2", (family[i], family[j]))
    queries = np.flatnonzero(pending)
    first = _first_uneliminated(off, n, queries)
    if not first.any():
        return FaceAxiomReport(True, None, None)

    # a violation exists; rescan all pairs in canonical order so the
    # witness does not depend on the reduction above
    failing = np.zeros(len(table), dtype=np.int8)
    failing[queries] = first
    i, j, e = _first_pair(
        pos, neg, lambda cp, cn, d: failing[((cp | d) << n) | (cn | d)])
    return FaceAxiomReport(False, "F3", (family[i], family[j], e))


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

    @property
    def top_index(self) -> int:
        return len(self.covectors)

    def level_sizes(self) -> tuple[int, ...]:
        counts = [0] * (self.rank + 2)
        for h in self.heights:
            counts[h] += 1
        counts[self.rank + 1] = 1
        return tuple(counts)

    def atoms(self) -> tuple[SignVector, ...]:
        return tuple(
            self.covectors[i] for i, h in enumerate(self.heights) if h == 1
        )

    def to_dot(self) -> str:
        lines = ["digraph face_lattice {", "  rankdir=BT;"]
        for i, x in enumerate(self.covectors):
            lines.append(f'  n{i} [label="{x}"];')
        lines.append(f'  n{self.top_index} [label="1^"];')
        for lo, hi in self.covers:
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines)


def face_lattice(om: OrientedMatroidData) -> FaceLattice:
    """Hasse diagram of the face order with an adjoined maximum.

    Raises when the order is not graded; heights are recomputed here rather
    than trusted from the construction.
    """
    covectors = list(om.covectors)
    if not any(x.is_zero for x in covectors):
        raise ValueError("not a valid OM lattice")
    # the covectors below x are exactly its restrictions to proper subsets
    # of its support, so submask enumeration finds them all; they have
    # smaller supports, so their heights and below lists are known when x
    # is reached.  x covers each one that lies below no other one.
    index = {(x.pos, x.neg): i for i, x in enumerate(covectors)}
    below: dict[int, list[int]] = {}
    heights = [0] * len(covectors)
    covers: list[tuple[int, int]] = []
    for i in sorted(range(len(covectors)), key=lambda i: covectors[i].support_size):
        x = covectors[i]
        bel: list[int] = []
        sub = sup = x.support
        while sub:
            sub = (sub - 1) & sup
            j = index.get((x.pos & sub, x.neg & sub))
            if j is not None:
                bel.append(j)
        inner = set().union(*(below[z] for z in bel))
        covers.extend((j, i) for j in bel if j not in inner)
        below[i] = bel
        heights[i] = 1 + max((heights[j] for j in bel), default=-1)
    rank = max(heights)
    top = len(covectors)
    covers.extend(
        (i, top) for i, x in enumerate(covectors) if x.support_size == om.ground_size
    )

    # graded with the top at rank + 1: every cover steps up one height and
    # every covector lies under some cover, so each chain ends at the top
    full_heights = heights + [rank + 1]
    if len({lo for lo, _ in covers}) != top or any(
        full_heights[hi] != full_heights[lo] + 1 for lo, hi in covers
    ):
        raise ValueError("not a valid OM lattice")

    return FaceLattice(
        covectors=tuple(covectors),
        heights=tuple(heights),
        covers=tuple(sorted(covers)),
        rank=rank,
    )


def is_uniform(om: OrientedMatroidData) -> tuple[bool, int | None]:
    """Whether all cocircuit supports share one size covering all subsets.

    Decided purely by enumeration of the cocircuits.
    """
    sizes = {c.support_size for c in om.cocircuits}
    if len(sizes) != 1:
        return False, None
    s = sizes.pop()
    supports = {c.support for c in om.cocircuits}
    if len(supports) != comb(om.ground_size, s):
        return False, None
    return True, s


def uniform_tope_check(topes: Iterable[SignVector]) -> bool:
    """Tope count and symmetry test: T = -T and |T| = 2 phi_{d-1}(|E|-1),
    with d the VC dimension of the topes read as binary words."""
    tope_list = list(set(topes))
    if not tope_list:
        return False
    n = tope_list[0].n
    for t in tope_list:
        if t.n != n or t.support_size != n:
            raise ValueError("topes must have full support")
    keys = {(t.pos, t.neg) for t in tope_list}
    if any((t.neg, t.pos) not in keys for t in tope_list):
        return False
    d = _largest_full_projection([t.pos for t in tope_list], n)
    if d < 1:
        return False
    return len(tope_list) == 2 * phi(d - 1, n - 1)


def om_from_rset(k: int, n: int, budget: int = DEFAULT_GROUND_BUDGET) -> OrientedMatroidData:
    """Oriented matroid of the k-point crossover set on an antipodal pair."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    _check_ground(n, budget)
    from .crossover import rset

    spec = AlphabetSpec((2,) * n)
    pair = rset(k, Word.from_index(0, spec), Word.from_index((1 << n) - 1, spec))
    topes = [word_to_sign(w) for w in pair.members]
    if not uniform_tope_check(topes):
        raise RuntimeError("crossover topes failed the tope count test")
    return covectors_from_topes(topes, budget=budget)


def tope_graph(om: OrientedMatroidData):
    """Graph on topes with edges at separation exactly one; topes have full
    support, so they are separated exactly where their positive masks differ."""
    from .graphs import SimpleGraph

    topes = om.topes
    edges = [
        (i, j)
        for i in range(len(topes))
        for j in range(i + 1, len(topes))
        if (topes[i].pos ^ topes[j].pos).bit_count() == 1
    ]
    return SimpleGraph(topes, edges)
