"""k-point crossover recombination sets and their closure geometry.

``recombine`` applies one explicit cut set to two parent words.  Everything
else runs on one kernel.  A recombination set R_k(x, y) and the closure of x
and y depend only on k and on the t positions where the parents differ, so
both are computed in the canonical box of those positions: a t-bit mask
whose bit j stands for the j-th differing position counted from the last, a
set bit meaning the second parent's letter, so the parents are 0 and
2**t - 1.  ``_patterns(k, t)`` lists the offspring of those two masks; it is
cached on (k, t), so every pair of parents at distance t, at any positions
and over any alphabet, shares the one entry.  An offspring by j cuts
switches parent j times, so under the switch map D(w) = w ^ (w >> 1) on
the low t - 1 bits (linear, 2-to-1, kernel {0, 2**t - 1}) the table is
D⁻¹(B(0, k)), the preimage of the Hamming ball of radius k about 0.  The
closure of the parents is their whole box, every t-bit mask, so
``closure`` scatters ``range(2**t)`` and ``is_closed`` asks whether the
closed-form size of R_k is 2**t.

``_scatter`` maps masks back to packed indices over any alphabet.  Position
p contributes the index step (y_p - x_p) * stride_p, and one 256-entry
subset-sum table per byte of the mask adds a byte's steps in one lookup.
``rset``, ``rset_recursive``, ``find_parents`` and the ``rset:k`` axiom
tables, which take the packed indices as they are, go through both
functions, and ``closure``, their only caller on the whole box, through
``_scatter`` alone; a returned ``WordSet`` decodes its words on first read.
``find_parents`` reads no letters: a packed index is linear in them, so in
the parents' box the antipode of index i is K - i, K their index sum.
``rset_recursive`` asks the kernel for R_{k-1} only and takes its one-point
step as literal prefix/suffix splits of the masks, read off nested prefix
and suffix sets, so comparing it with ``rset`` checks the kernel at k
against the kernel at k - 1.  ``rset_by_cut_enumeration`` (the literal
all-cut-subsets definition) shares none of it, and the test suite checks
the two routes against each other before anything else relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import SimpleGraph, word_graph
from .words import (
    BudgetExceededError,
    DEFAULT_BUDGET,
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
def _patterns(k: int, t: int) -> tuple[int, ...]:
    """Offspring of the t-bit masks 0 and 2**t - 1 by at most k cuts, ascending.

    The switch of parent between the c lowest bits and the rest flips the
    suffix mask 2**c - 1, so an offspring is a mask with at most k switches
    (bits j and j - 1 differ); with k >= t - 1 that is every mask.  The
    table is built by its highest switch.  Let lo[j] hold the ascending
    masks below 2**(s - 1) with at most j switches among s bits.  At s + 1
    bits, lo[j] gains the masks with bit s - 1 set, a switch below the top
    bit: the complements within s bits of lo[j - 1], reversed so that they
    stay ascending.  The upper half of the table complements the lower.
    """
    full = (1 << t) - 1
    if k >= t - 1:
        return tuple(range(full + 1))
    lo = [[0] for _ in range(k + 1)]
    for s in range(1, t):
        flip = (1 << s) - 1
        for j in range(k, 0, -1):
            lo[j] += [flip ^ w for w in reversed(lo[j - 1])]
    low = lo[k]
    return tuple(low + [full ^ w for w in reversed(low)])


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
    return _scatter(x.index, steps, _patterns(k, t))


def rset(k: int, x: Word, y: Word) -> RSetResult:
    """All offspring of x and y reachable with at most k cut points."""
    spec = require_same_spec(x, y)
    members = WordSet.from_indices(_rset_packed(k, x, y), spec)
    return RSetResult(members, (x, y), int(k))


def rset_recursive(k: int, x: Word, y: Word) -> RSetResult:
    """R_k built from R_{k-1} by one-point recombination through each member.

    The union is taken in pattern space, where the parents are 0 and
    ``full``, and scattered to packed indices once.  Each one-point set is
    its literal single-cut definition, not a kernel lookup: a cut leaves the
    last c bits ``low`` (0 < c < t) on one side and ``high = full ^ low`` on
    the other, so R_1(0, z) = {z & low, z & high} and
    R_1(z, full) = {z | low, z | high}, plus the parents.  Only R_{k-1}
    comes from the kernel.  Each ``low`` lies inside the next longer one,
    so the suffix set {z & low} is read off the next longer suffix set, the
    prefix set {z & high} likewise, and z | low = (z & high) | low,
    z | high = (z & low) | high: each side walks a deduplicated set.
    """
    k = _validate_k(k)
    if k < 2:
        raise ValueError("the recursion needs k >= 2")
    spec = require_same_spec(x, y)
    steps = _steps(x, y)
    t = len(steps)
    full = (1 << t) - 1
    lows = [(1 << c) - 1 for c in range(t - 1, 0, -1)]
    zs = _patterns(k - 1, t)
    acc = {0, full}
    for sides in (lows, [full ^ low for low in reversed(lows)]):
        part = zs
        for side in sides:
            part = set(map(side.__and__, part))
            acc.update(part, map((full ^ side).__or__, part))
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


def closure(k: int, x: Word, y: Word, budget: int = DEFAULT_BUDGET) -> WordSet:
    """Least set containing x, y and closed under k-point recombination.

    It is the parents' box, their geodesic interval, for every k: the (k, t)
    patterns are closed under complement and hold the t suffix masks, a
    basis of the box, so recombining members with their antipodes spans
    it, as ``verify closure`` re-derives.  Raises ``BudgetExceededError``
    exactly when the box has more than ``budget`` members.
    """
    spec = require_same_spec(x, y)
    _validate_k(k)
    steps = _steps(x, y)
    if 1 << len(steps) > budget:
        raise BudgetExceededError(f"space too large: closure exceeded budget {budget}")
    return WordSet.from_indices(_scatter(x.index, steps, range(1 << len(steps))), spec)


def is_closed(k: int, x: Word, y: Word) -> bool:
    """Whether the recombination set R of x and y is recombination-closed:
    the closure contains R and is the box, so whether |R| is 2**t."""
    t = hamming_distance(x, y)
    return rset_size_formula(k, t) == 1 << t


def find_parents(k: int, s: WordSet | Iterable[Word]) -> list[tuple[Word, Word]]:
    """All unordered pairs inside s whose recombination set is exactly s.

    A recombination set lies in its parents' box and holds, with each
    member, its antipode there.  A packed index is linear in the letters,
    so the antipode of index i is K - i, K the set's least plus greatest
    index, and the j-th least member pairs with the j-th greatest; a set
    that is no recombination set fails every comparison with R_k.
    """
    k = _validate_k(k)
    target = s if isinstance(s, WordSet) else WordSet(s)
    order, members = target.sorted_indices, target.members
    half = (len(order) + 1) // 2
    return [
        (u, v) for u, v, i, j in zip(members[:half], members[::-1], order, order[::-1])
        if i + j == order[0] + order[-1]
        and frozenset(_rset_packed(k, u, v)) == target.indices
    ]


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


def transit_graph(k: int, x: Word, y: Word) -> SimpleGraph:
    """Graph induced by the Hamming graph on the recombination set of x, y."""
    return word_graph(rset(k, x, y).members)
