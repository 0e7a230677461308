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
sign vectors tope by tope; the face-axiom scan visits all ordered pairs in
blocks of about 2^17, so its memory does not grow with the square of the
family size.

The order on sign vectors is the face order: X <= Y when X agrees with Y on
the support of X.  Canonical sorting is lexicographic per coordinate with
- < 0 < +, so every serialization is reproducible.  One face-order pass
walks the submasks of each covector's support to list the covectors
strictly below it, and gives each covector its longest-chain height.  The
rank is the largest height, the cocircuits are the covectors of height 1
(the atoms of the face lattice), and the lattice covers follow from the
same below lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .partialcube import vc_dimension
from .words import AlphabetSpec, BudgetExceededError, Word, phi

DEFAULT_GROUND_BUDGET = 10
_BLOCK_PAIRS = 1 << 17

_CHARS = {1: "+", 0: "0", -1: "-"}
_VALUES = {"+": 1, "0": 0, "-": -1}


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
        code = 0
        for b in range(self.n - 1, -1, -1):
            digit = 2 if self.pos >> b & 1 else 0 if self.neg >> b & 1 else 1
            code = code * 3 + digit
        return code

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


def _face_order(covectors: Sequence[SignVector]) -> tuple[list[list[int]], list[int]]:
    """Indices strictly below each covector in the face order, and each
    covector's longest-chain height above the zero vector.

    The candidates below x are exactly the restrictions of x to proper
    subsets of its support, so submask enumeration is complete.
    """
    index = {(x.pos, x.neg): i for i, x in enumerate(covectors)}
    below: list[list[int]] = []
    for x in covectors:
        out: list[int] = []
        sub = sup = x.support
        while sub:
            sub = (sub - 1) & sup
            idx = index.get((x.pos & sub, x.neg & sub))
            if idx is not None:
                out.append(idx)
        below.append(out)
    heights = [0] * len(covectors)
    for i in sorted(range(len(covectors)), key=lambda i: covectors[i].support_size):
        heights[i] = 1 + max((heights[j] for j in below[i]), default=-1)
    return below, heights


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
    if n > budget:
        raise BudgetExceededError(
            f"space too large: ground set {n} exceeds budget {budget}"
        )

    # the 3^n grid in canonical order: each coordinate, most significant
    # first, splits every vector so far into its -, 0 and + extensions
    pos = neg = np.zeros(1, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        bit = 1 << b
        pos = np.stack([pos, pos, pos | bit], axis=1).ravel()
        neg = np.stack([neg | bit, neg, neg], axis=1).ravel()
    tope_pos, tope_neg = _masks(tope_list)
    is_tope = _table(tope_pos, tope_neg, n)
    for tp, tn in zip(tope_pos.tolist(), tope_neg.tolist()):
        free = ~(pos | neg)
        keep = is_tope[((pos | (tp & free)) << n) | (neg | (tn & free))]
        pos, neg = pos[keep], neg[keep]
    covectors = [SignVector(n, p, q) for p, q in zip(pos.tolist(), neg.tolist())]

    maximal = [x for x in covectors if x.support_size == n]
    if maximal != tope_list:
        raise RuntimeError("derived topes differ from input")

    # the cocircuits are the atoms: only the zero vector lies below them
    _, heights = _face_order(covectors)
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
    pos: np.ndarray, neg: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (first row, X o Y masks, separator D) for blocks of rows X
    against every Y; a block holds about _BLOCK_PAIRS pairs."""
    step = max(1, _BLOCK_PAIRS // len(pos))
    for lo in range(0, len(pos), step):
        xp, xn = pos[lo:lo + step, None], neg[lo:lo + step, None]
        free = ~(xp | xn)
        yield lo, xp | (pos & free), xn | (neg & free), (xp & neg) | (xn & pos)


def _first_uneliminated(
    pos: np.ndarray, neg: np.ndarray, n: int, queries: np.ndarray
) -> np.ndarray:
    """For each elimination query, the first coordinate e of D with no
    eliminator, or 0 when every e in D has one.

    A query ((P | D) << n) | (N | D) stands for the separator D (bits set in
    both halves) and X o Y off D, given by P and N.  The eliminators for e
    are the vectors with Z_e = 0 whose restriction off D is (P, N), so each
    (D, e) marks those restrictions in a scratch table and looks the
    queries up in it.
    """
    first = np.zeros(len(queries), dtype=np.int8)
    if not len(queries):
        return first
    high, low = queries >> n, queries & ((1 << n) - 1)
    sep = high & low
    keys = ((high & ~sep) << n) | (low & ~sep)
    support = pos | neg
    scratch = np.zeros(1 << 2 * n, dtype=bool)
    order = np.argsort(sep, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(sep[order])) + 1):
        d = int(sep[group[0]])
        bad = np.zeros(len(group), dtype=np.int8)
        for e in range(1, n + 1):
            bit = 1 << (n - e)
            if not d & bit:
                continue
            zero = (support & bit) == 0
            marks = ((pos[zero] & ~d) << n) | (neg[zero] & ~d)
            scratch[marks] = True
            bad[~scratch[keys[group]] & (bad == 0)] = e
            scratch[marks] = False
        first[group] = bad
    return first


def check_face_axioms(vectors: Iterable[SignVector]) -> FaceAxiomReport:
    """Exhaustive F0/F1/F2 check and pairwise F3 elimination check.

    The report, witness included, is the first violation in canonical
    order: pairs (X, Y) row by row, then separating positions ascending.
    """
    family = _canonical(set(vectors))
    if not family:
        return FaceAxiomReport(False, "F0", ())
    n = family[0].n
    for x in family:
        if x.n != n:
            raise ValueError("length mismatch")
    if n > DEFAULT_GROUND_BUDGET:
        raise BudgetExceededError(
            f"space too large: ground set {n} exceeds budget {DEFAULT_GROUND_BUDGET}"
        )
    pos, neg = _masks(family)
    table = _table(pos, neg, n)
    if not table[0]:
        return FaceAxiomReport(False, "F0", ())
    negated = table[(neg << n) | pos]
    if not negated.all():
        return FaceAxiomReport(False, "F1", (family[int(np.argmin(negated))],))

    # F2 on every pair; F3 for e separating X and Y asks for Z with Z_e = 0
    # that agrees with X o Y off the separator D.  Most pairs are settled by
    # the candidate that zeroes all of D; the rest depend only on D and
    # X o Y off D, so they are collected once each as elimination queries.
    m = len(family)
    pending = np.zeros_like(table)
    for lo, cp, cn, d in _pair_blocks(pos, neg):
        ok = table[(cp << n) | cn]
        if not ok.all():
            i, j = divmod(int(np.argmin(ok)), m)
            return FaceAxiomReport(False, "F2", (family[lo + i], family[j]))
        settled = table[((cp & ~d) << n) | (cn & ~d)]
        pending[(((cp | d) << n) | (cn | d))[(d != 0) & ~settled]] = True
    queries = np.flatnonzero(pending)
    first = _first_uneliminated(pos, neg, n, queries)
    if not first.any():
        return FaceAxiomReport(True, None, None)

    # a violation exists; rescan the pairs in canonical order so the
    # witness does not depend on the deduplication above
    failing = np.zeros(len(table), dtype=np.int8)
    failing[queries] = first
    for lo, cp, cn, d in _pair_blocks(pos, neg):
        e = failing[((cp | d) << n) | (cn | d)]
        if e.any():
            i, j = divmod(int(np.argmax(e != 0)), m)
            return FaceAxiomReport(
                False, "F3", (family[lo + i], family[j], int(e[i, j]))
            )
    raise RuntimeError("violation vanished on rescan")


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
    below, heights = _face_order(covectors)
    rank = max(heights)

    # i covers each j in below(i) that lies below no other z in below(i)
    covers: list[tuple[int, int]] = []
    for i, bel in enumerate(below):
        inner = set().union(*(below[z] for z in bel))
        covers.extend((j, i) for j in bel if j not in inner)
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
    d = vc_dimension([sign_to_word(t) for t in tope_list])
    if d < 1:
        return False
    return len(tope_list) == 2 * phi(d - 1, n - 1)


def om_from_rset(k: int, n: int, budget: int = DEFAULT_GROUND_BUDGET) -> OrientedMatroidData:
    """Oriented matroid of the k-point crossover set on an antipodal pair."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    if n > budget:
        raise BudgetExceededError(
            f"space too large: ground set {n} exceeds budget {budget}"
        )
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
