"""k-point crossover recombination sets and their closure geometry.

``recombine`` applies one explicit cut set to two parent words.  Everything
else runs on one kernel.  A recombination set R_k(x, y) and the closure of x
and y depend only on k and on the t positions where the parents differ, so
both are computed in the canonical pattern space of those positions: a
t-bit mask whose bit j stands for the j-th differing position counted from
the last, a set bit meaning the second parent's letter, so the parents are 0
and 2**t - 1.  ``_ymask_patterns(k, mask, t)`` lists the offspring of the
masks 0 and ``mask``; it is cached on (k, mask, t), so every pair of parents
at distance t, at any positions and over any alphabet, shares the one entry
(k, 2**t - 1, t).  ``_closure_patterns`` closes the parents under it once per
(k, t).

``_scatter`` maps masks back to packed indices over any alphabet.  Position
p contributes the index step (y_p - x_p) * stride_p, and one 256-entry
subset-sum table per byte of the mask adds a byte's steps in one lookup.
``rset``, ``rset_recursive``, ``closure`` and ``find_parents`` all go through
these two functions, and so do the axiom tables, which take the packed
indices as they are.  ``rset_by_cut_enumeration`` (the literal
all-cut-subsets definition) shares none of it, and the test suite checks the
two routes against each other before anything else relies on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import sub, xor
from typing import Iterable, Sequence

from .graphs import SimpleGraph, word_graph
from .words import (
    AlphabetSpec,
    BudgetExceededError,
    DEFAULT_BUDGET,
    SMALL_SPACE_BUDGET,
    Word,
    WordSet,
    hamming_distance,
    phi,
    require_same_spec,
)


@dataclass(frozen=True)
class CutSet:
    """Strictly increasing cut positions plus which parent leads.

    A cut at position p separates letter p from letter p + 1 (1-based), so
    valid positions lie in [1, n - 1].  ``order`` is "first" when the first
    parent supplies the leading segment and "second" otherwise.
    """

    positions: tuple[int, ...]
    order: str = "first"

    def __post_init__(self) -> None:
        positions = tuple(int(p) for p in self.positions)
        if any(p < 1 for p in positions):
            raise ValueError("cut positions start at 1")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ValueError("cut positions must be strictly increasing")
        if self.order not in ("first", "second"):
            raise ValueError("order must be 'first' or 'second'")
        object.__setattr__(self, "positions", positions)


@dataclass(frozen=True)
class RSetResult:
    """A recombination set together with the generating parents and k."""

    members: WordSet
    parents: tuple[Word, Word]
    k: int


def _splice(lead: tuple[int, ...], other: tuple[int, ...],
            positions: tuple[int, ...]) -> tuple[int, ...]:
    """Alternating segments of two letter tuples, lead first, cut at positions."""
    bounds = (0,) + positions + (len(lead),)
    parents = (lead, other)
    letters: tuple[int, ...] = ()
    for seg in range(len(bounds) - 1):
        letters += parents[seg % 2][bounds[seg]:bounds[seg + 1]]
    return letters


def recombine(x: Word, y: Word, cuts: CutSet) -> Word:
    """Copy alternating segments from the two parents at the given cuts."""
    spec = require_same_spec(x, y)
    n = spec.n
    if any(p > n - 1 for p in cuts.positions):
        raise ValueError(f"cut positions must lie in [1, {n - 1}]")
    lead, other = (x, y) if cuts.order == "first" else (y, x)
    return Word(_splice(lead.letters, other.letters, cuts.positions), spec)


def _validate_k(k: int) -> int:
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    return k


def rset_by_cut_enumeration(k: int, x: Word, y: Word) -> WordSet:
    """Literal definition: every offspring of every cut set with <= k cuts.

    Runs on raw letter tuples and builds its result through the validating
    ``Word`` constructor, never through the packed-index decoder, so it stays
    independent of the fast path it is checked against.
    """
    k = _validate_k(k)
    spec = require_same_spec(x, y)
    gaps = range(1, spec.n)
    members: set[tuple[int, ...]] = set()
    for count in range(0, min(k, spec.n - 1) + 1):
        for positions in combinations(gaps, count):
            members.add(_splice(x.letters, y.letters, positions))
            members.add(_splice(y.letters, x.letters, positions))
    return WordSet((Word(t, spec) for t in members), spec)


@lru_cache(maxsize=65536)
def _ymask_patterns(k: int, mask: int, t: int) -> tuple[int, ...]:
    """Offspring of the t-bit masks 0 and ``mask`` by at most k cuts.

    Only a parent switch between consecutive set bits of ``mask`` matters: a
    cut in a gap where the parents agree either side is a no-op.  The switch
    just above set bit b flips the part of ``mask`` at b and below, so an
    offspring is the XOR of at most k such parts, or its complement in
    ``mask``.
    """
    # the part at the top set bit and below is mask itself: no switch
    lows = [mask & ((2 << b) - 1) for b in range(t) if mask >> b & 1][:-1]
    out: set[int] = set()
    for count in range(min(k, len(lows)) + 1):
        for switches in combinations(lows, count):
            m = reduce(xor, switches, 0)
            out.add(m)
            out.add(mask ^ m)
    return tuple(sorted(out))


def _steps(x: Word, y: Word) -> list[int]:
    """Index steps (y_p - x_p) * stride_p of the positions where x and y differ."""
    return [(b - a) * stride for a, b, stride
            in zip(x.letters, y.letters, x.spec._strides) if a != b]


def _scatter(base: int, steps: list[int], masks: Sequence[int]) -> list[int]:
    """Packed indices of the masks' words: base plus the steps of their set bits.

    Bit j of a mask stands for ``steps[-1 - j]``.  The steps are summed one
    byte of the mask at a time, through a 256-entry subset-sum table per
    byte, so no table outgrows 256 entries whatever the distance.
    """
    bits = steps[::-1]
    tables = []
    for lo in range(0, max(len(bits), 1), 8):
        sums = [0 if tables else base]
        for step in bits[lo:lo + 8]:
            sums += [s + step for s in sums]
        tables.append(sums)
    if len(tables) == 1:
        return list(map(tables[0].__getitem__, masks))
    low, high, *rest = tables
    out = [low[m & 255] + high[m >> 8 & 255] for m in masks]
    for byte, table in enumerate(rest, 2):
        out = [i + table[m >> 8 * byte & 255] for i, m in zip(out, masks)]
    return out


def _rset_packed(k: int, x: Word, y: Word) -> list[int]:
    """Packed indices of rset(k, x, y): the (k, t) patterns, scattered."""
    k = _validate_k(k)
    steps = _steps(x, y)
    t = len(steps)
    return _scatter(x.index, steps, _ymask_patterns(k, (1 << t) - 1, t))


def rset(k: int, x: Word, y: Word) -> RSetResult:
    """All offspring of x and y reachable with at most k cut points."""
    spec = require_same_spec(x, y)
    members = WordSet.from_indices(_rset_packed(k, x, y), spec)
    return RSetResult(members, (x, y), int(k))


def rset_recursive(k: int, x: Word, y: Word) -> RSetResult:
    """R_k built from R_{k-1} by one-point recombination through each member.

    The union is taken in pattern space, where every inner one-point set is
    a cached lookup, and scattered to packed indices once.
    """
    k = _validate_k(k)
    if k < 2:
        raise ValueError("the recursion needs k >= 2")
    spec = require_same_spec(x, y)
    steps = _steps(x, y)
    t = len(steps)
    full = (1 << t) - 1
    acc: set[int] = set()
    for z in _ymask_patterns(k - 1, full, t):
        acc.update(_ymask_patterns(1, z, t))
        acc.update(map(z.__xor__, _ymask_patterns(1, z ^ full, t)))
    members = WordSet.from_indices(_scatter(x.index, steps, tuple(acc)), spec)
    return RSetResult(members, (x, y), k)


def rset_size_formula(k: int, t: int) -> int:
    """Closed-form size of a recombination set for parents at distance t."""
    k = _validate_k(k)
    if t < 0:
        raise ValueError("distance must be non-negative")
    if t <= k:
        return 2 ** t
    return 2 * phi(k, t - 1)


def _over_budget(limit: int) -> BudgetExceededError:
    return BudgetExceededError(f"space too large: closure exceeded budget {limit}")


@lru_cache(maxsize=256)
def _closure_patterns(k: int, t: int, limit: int) -> range | tuple[int, ...]:
    """Closure of the parents 0 and 2**t - 1 in the canonical pattern space.

    Every kernel pattern is a subset of its pair's difference mask, so every
    offspring lies in the parents' box, here the 2**t masks.  Once the box
    is full no pending pair can add a member, so the fixpoint stops there;
    until then every member is reached by an actual recombination of two
    members.  Each member is first paired with its box antipode, which
    differs from it everywhere and so has the largest recombination set;
    then every pair is taken in discovery order.  Raises as soon as the
    closure has more than ``limit`` members, which the member list never
    holds.
    """
    size = 1 << t
    full = size - 1
    members = [0, full] if t else [0]
    if len(members) > limit:
        raise _over_budget(limit)
    seen = bytearray(size)
    seen[0] = seen[full] = 1

    def grow(u: int, v: int) -> None:
        fresh = [w for w in map(u.__xor__, _ymask_patterns(k, u ^ v, t))
                 if not seen[w]]
        if len(members) + len(fresh) > limit:
            raise _over_budget(limit)
        for w in fresh:
            seen[w] = 1
        members.extend(fresh)

    for u in members:
        if len(members) == size:
            return range(size)
        if seen[full ^ u] == 1:
            # 2 marks a member whose antipode pair has been taken
            seen[u] = 2
            grow(u, full ^ u)
    for i, u in enumerate(members):
        for v in members[:i]:
            if len(members) == size:
                return range(size)
            grow(u, v)
    return range(size) if len(members) == size else tuple(members)


def _closure_packed(k: int, x: Word, y: Word, budget: int) -> list[int]:
    """Packed indices of closure(k, x, y): the (k, t) closure, scattered."""
    k = _validate_k(k)
    steps = _steps(x, y)
    t = len(steps)
    return _scatter(x.index, steps, _closure_patterns(k, t, min(budget, 1 << t)))


def closure(k: int, x: Word, y: Word, budget: int = DEFAULT_BUDGET) -> WordSet:
    """Least set containing x, y and closed under k-point recombination.

    Only which positions differ matters, so the closure is computed once per
    (k, t) in the canonical pattern space (``_closure_patterns``) and
    scattered to packed indices like any recombination set.  The cache holds
    256 (k, t, limit) entries; ``limit`` is the budget capped at 2**t, the
    largest possible closure, so budgets that cannot bind share one entry,
    and a full box is stored as a ``range``.  Raises ``BudgetExceededError``
    exactly when the closure has more than ``budget`` members.
    """
    spec = require_same_spec(x, y)
    return WordSet.from_indices(_closure_packed(k, x, y, budget), spec)


def is_closed(k: int, x: Word, y: Word) -> bool:
    """Whether the recombination set of x and y is recombination-closed.

    Scanned in the canonical pattern space, where the parents are 0 and
    2**t - 1, until the first pair with an offspring outside the set.
    """
    k = _validate_k(k)
    require_same_spec(x, y)
    t = hamming_distance(x, y)
    members = _ymask_patterns(k, (1 << t) - 1, t)
    mset = set(members)
    return all(u ^ m in mset for u, v in combinations(members, 2)
               for m in _ymask_patterns(k, u ^ v, t))


def generate_convexity(
    k: int, spec: AlphabetSpec, budget: int = SMALL_SPACE_BUDGET
) -> tuple[WordSet, ...]:
    """All intersections of recombination closures over a small space."""
    k = _validate_k(k)
    spec.check_budget(budget)
    words = list(spec.iter_words())
    family: set[frozenset[int]] = set()
    for i, x in enumerate(words):
        for y in words[i:]:
            family.add(frozenset(closure(k, x, y, budget=spec.size).indices))
    worklist = list(family)
    while worklist:
        nxt: list[frozenset[int]] = []
        for a in worklist:
            for b in family:
                c = a & b
                if c not in family and c not in nxt:
                    nxt.append(c)
        for c in nxt:
            family.add(c)
        worklist = nxt
    sets = [WordSet.from_indices(idxs, spec) for idxs in family]
    return tuple(sorted(sets, key=lambda s: (len(s), tuple(w.letters for w in s))))


def find_parents(k: int, s: WordSet | Iterable[Word]) -> list[tuple[Word, Word]]:
    """All unordered pairs inside s whose recombination set is exactly s.

    A recombination set contains its parents and lies in their box, so
    parents of s differ exactly where s varies, each taking one of the two
    letters there: u's only candidate partner is u with every varying
    position flipped, and a position with three letters rules out all.
    """
    k = _validate_k(k)
    target = s if isinstance(s, WordSet) else WordSet(s)
    columns = [set(letters) for letters in zip(*(w.letters for w in target))]
    if any(len(col) > 2 for col in columns):
        return []
    # u_p + v_p is the same for every antipodal pair u, v
    sums = [min(col) + max(col) for col in columns]
    by_letters = {w.letters: w for w in target}
    out: list[tuple[Word, Word]] = []
    for u in target:
        v = by_letters.get(tuple(map(sub, sums, u.letters)))
        if (v is not None and u.index <= v.index
                and frozenset(_rset_packed(k, u, v)) == target.indices):
            out.append((u, v))
    return out


def median(x: Word, y: Word, z: Word) -> Word:
    """Coordinatewise majority of three binary words."""
    spec = require_same_spec(x, y)
    require_same_spec(x, z)
    if not spec.is_binary:
        raise ValueError("median is defined for binary words only")
    letters = tuple(
        1 if a + b + c >= 2 else 0 for a, b, c in zip(x.letters, y.letters, z.letters)
    )
    return Word(letters, spec)


def _greedy_lex_path(start: int, goal: int, pick_max: bool) -> list[int]:
    """Shortest start-goal path of packed binary indices, greedily extreme
    in the start-based labels ``index ^ start``.

    Each step flips one bit of ``cur ^ goal``.  Those bits are all clear in
    ``cur ^ start``, so the least (greatest) next label flips the lowest
    (highest) of them.
    """
    path = [start]
    while path[-1] != goal:
        rest = path[-1] ^ goal
        step = 1 << rest.bit_length() - 1 if pick_max else rest & -rest
        path.append(path[-1] ^ step)
    return path


def lex_extreme_path_vertices(x: Word, y: Word) -> WordSet:
    """Vertices of the lexicographically least and greatest shortest paths.

    Path labels are normalized so the smaller endpoint reads as the all-zero
    word; sequences are then compared positionwise, coordinate 1 most
    significant.  Comparing raw labels instead would let a path dip through
    words outside the one-point recombination set whenever the smaller
    endpoint has a 1 in a differing position.
    """
    spec = require_same_spec(x, y)
    if not spec.is_binary:
        raise ValueError("lexicographic extreme paths are defined for binary words")
    start, goal = sorted((x.index, y.index))
    lo = _greedy_lex_path(start, goal, pick_max=False)
    hi = _greedy_lex_path(start, goal, pick_max=True)
    return WordSet.from_indices(lo + hi, spec)


def block_count(w: Word, reference: Word) -> int:
    """Number of maximal constant runs of w after relabeling by a parent.

    The relabeling sends the reference word to the all-zero word; for binary
    words this is positionwise XOR.
    """
    spec = require_same_spec(w, reference)
    if not spec.is_binary:
        raise ValueError("block counting is defined for binary words")
    bits = [a ^ b for a, b in zip(w.letters, reference.letters)]
    runs = 1
    for prev, cur in zip(bits, bits[1:]):
        if cur != prev:
            runs += 1
    return runs


def transit_graph(k: int, x: Word, y: Word) -> SimpleGraph:
    """Graph induced by the Hamming graph on the recombination set of x, y."""
    return word_graph(rset(k, x, y).members)
