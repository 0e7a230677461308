"""Finite-model checking of transit-function axioms with first witnesses.

A TransitTable materializes a symmetric set-valued function on a finite
carrier.  Every axiom in the catalog is decided as if by exhaustive
enumeration in canonical nested order (carrier indices ascending, variables
in the order they appear in the axiom statement), so the first
counterexample is reproducible.  The finders skip premise-false tuples only,
which cannot change the first witness; the tests hold the literal axiom
bodies and compare the finders against a full scan of them.

Entry sets are stored as integer bitmasks over carrier indices; subset,
intersection and membership tests are single integer operations.  The table
owns these mask rows and every row derived from them (entry sizes,
two-member adjacency, cols, holders, larger, the value set and each value's
member tuple, the closed table, the interval rows of its underlying graph),
each built on first use and kept, so every check on one table shares them.
The costliest finders read bitset rows, so that an inner variable scan
becomes a few row operations plus a lowest-set-bit lookup:

- cols[a][m], the set of z whose entry with a contains m, serves CG, B1,
  B3, S1, S2 and (on the closure) CGp;
- holders[m] packs cols[a][m] for every a, one block per a: H3 reads it as
  the ordered pairs whose entry holds m (an entry lies inside e when its
  pair is in no holders[m] with m outside e), Pa ORs it once per mask;
- larger[u][s], the set of z whose entry with u has more than s members,
  serves GW3 and GW4;
- AX numbers the ordered edges (pairs whose entry has two members) in
  canonical order and gives each edge ab the row of edges cd with
  par(a, b, c, d); the first e f of a premise-true (ab, cd) is the lowest
  bit of row(cd) outside row(ab);
- Pa concatenates the rows of one carrier element into a single integer, one
  block per partner b >= a (by symmetry no first witness has b < a), so a
  whole (p, a) prefix is tested at once;
- MM compares distinct entry masks, each keyed to the first pair carrying
  it, instead of all pairs of pairs.  M, GW3, B2, B3, C4, CG and Pa read a
  mask's members from its shared tuple.

The closure of two words is their box for every k, their interval in the
Hamming graph, so ``table_from_closure`` is the interval table of
``hamming_graph(spec)``; only ``table_from_rset`` calls the crossover kernel.

``table_closure`` (once per distinct mask) and ``convex_sets`` share one
hull: the least superset of a mask holding the entry of each pair in it.
A table that is already closed is its own closed table, so CGp on it reads
the table's own rows.

Base point.  Over a whole word space every catalog table (``rset:k``,
``closure:k`` and ``interval``, any alphabet) is invariant under the
translations of the space: the cyclic letter shift of one position,
letter -> letter + 1 mod a, maps E(x, y) onto E(g x, g y).  These shifts
generate Z_{a_1} x ... x Z_{a_n}, which moves any word to any other, and
every axiom is stated through E alone, so a violating tuple moves to one
whose first variable is the all-zero word, index 0.  Canonical order
minimises the first variable first, so the first witness, if any, starts
at index 0, and each finder scans first variables below ``_head`` only:
1 on such a table, v on any other.  ``_head`` checks the invariance on the
table's rows, one shift per position, and trusts nothing else.  The
closure keeps every automorphism of the table, so CGp uses the table's
``_head``; MM and AX stop at the first mask or edge that starts at
``_head``, and AX builds its rows only as the scan reaches them.

AX and AXp are the same predicate as written: AXp spells out the three
parallelism tests of AX entry by entry, so both catalog entries share one
finder and always give the same verdict and witness; ``check_all`` runs it
once for both.

The six-variable axioms A4, AX and AXp are refused on carriers above
DEFAULT_SIX_VAR_LIMIT = 256 elements, the 2^8 binary space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from itertools import accumulate
from math import prod
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import SimpleGraph, _bits, _low, hamming_graph, is_connected
from .words import AlphabetSpec, DEFAULT_BUDGET, Word
from . import crossover

AXIOM_IDS = (
    "A1", "A2", "A2p", "A3", "A4", "AX", "AXp",
    "B1", "B2", "B3", "C4", "CG", "CGp",
    "GW3", "GW4", "H3", "M", "MG", "MM", "MO",
    "Pa", "S1", "S2", "T1", "T2", "T3",
)

SIX_VAR_AXIOMS = ("A4", "AX", "AXp")
DEFAULT_SIX_VAR_LIMIT = 256
_PA_BLOCK_BYTES = 1 << 22


class SixVarLimitError(ValueError):
    """A six-variable axiom was asked of a carrier above the limit."""


def _transpose(rows: Sequence[int], v: int) -> list[int]:
    """Columns of a v-by-v bit matrix: bit i of out[j] is bit j of rows[i]."""
    width = (v + 7) // 8
    packed = b"".join([r.to_bytes(width, "little") for r in rows])
    matrix = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(v, width), axis=1,
        bitorder="little",
    )[:, :v]
    out = np.packbits(matrix.T, axis=1, bitorder="little").tobytes()
    return [
        int.from_bytes(out[j * width:(j + 1) * width], "little")
        for j in range(v)
    ]


def _packed(masks: Iterable[int], width: int) -> int:
    """One integer holding each mask in its own block of width bytes."""
    return int.from_bytes(
        b"".join([m.to_bytes(width, "little") for m in masks]), "little")


class TransitTable:
    """Total symmetric map from unordered carrier pairs to carrier subsets.

    The table owns its mask rows and every row derived from them; each
    derived row is built on first use and kept.
    """

    def __init__(
        self,
        carrier: Sequence[Hashable],
        entries: Mapping[tuple[int, int], Iterable[int]],
        name: str = "R",
    ):
        carrier = tuple(carrier)
        v = len(carrier)
        if v == 0:
            raise ValueError("empty carrier")
        entry = [[0] * v for _ in range(v)]
        seen = 0
        for (i, j), members in entries.items():
            if not (0 <= i <= j < v):
                raise ValueError(f"bad entry key ({i}, {j})")
            mask = 0
            for m in members:
                if not 0 <= m < v:
                    raise ValueError(f"entry ({i}, {j}) member {m} outside carrier")
                mask |= 1 << m
            entry[i][j] = entry[j][i] = mask
            seen += 1
        if seen != v * (v + 1) // 2:
            raise ValueError("table must define every unordered pair")
        self._carrier, self._entry, self._name = carrier, entry, name

    @classmethod
    def _from_rows(cls, carrier: tuple, entry: list[list[int]], name: str) -> TransitTable:
        """Table on trusted mask rows: a symmetric v-by-v matrix of masks
        over a nonempty carrier of v elements."""
        table = cls.__new__(cls)
        table._carrier, table._entry, table._name = carrier, entry, name
        return table

    @property
    def carrier(self) -> tuple:
        return self._carrier

    @property
    def name(self) -> str:
        return self._name

    def __len__(self) -> int:
        return len(self._carrier)

    def underlying_graph(self) -> SimpleGraph:
        """Edges are exactly the distinct pairs whose entry is the pair itself."""
        v = len(self._carrier)
        edges = [
            (i, j)
            for i in range(v)
            for j in range(i + 1, v)
            if self._entry[i][j] == (1 << i) | (1 << j)
        ]
        return SimpleGraph(self._carrier, edges)

    def renamed(self, name: str) -> "TransitTable":
        return TransitTable._from_rows(self._carrier, self._entry, name)

    @cached_property
    def _size(self) -> list[list[int]]:
        return [[m.bit_count() for m in row] for row in self._entry]

    @cached_property
    def _adj(self) -> list[int]:
        """Adjacency in the sense of two-member entries."""
        return [sum(1 << j for j, s in enumerate(row) if s == 2) for row in self._size]

    @cached_property
    def _cols(self) -> list[list[int]]:
        """_cols[a][m] is the set of z whose entry with a contains m."""
        return [_transpose(row, len(self)) for row in self._entry]

    @cached_property
    def _holders(self) -> list[int]:
        """_holders[m] packs _cols[a][m] for every a, in blocks of width bytes."""
        return [_packed(col, (len(self) + 7) // 8) for col in zip(*self._cols)]

    @cached_property
    def _members(self) -> dict[int, tuple[int, ...]]:
        """Each distinct entry mask mapped to its member indices, ascending."""
        return {m: tuple(_bits(m)) for m in self._value_set}

    @cached_property
    def _larger(self) -> list[list[int]]:
        """_larger[u][s]: the z whose entry with u has more than s members."""
        out = []
        for row in self._size:
            by_size = [0] * (len(row) + 1)
            for z, s in enumerate(row):
                by_size[s] |= 1 << z
            out.append(list(accumulate(by_size[:0:-1], or_))[::-1] + [0])
        return out

    @cached_property
    def _value_set(self) -> frozenset[int]:
        return frozenset().union(*self._entry)

    @cached_property
    def _closure(self) -> "TransitTable":
        """The closed table; the table itself when it is already closed."""
        closed = table_closure(self)
        return self if closed._entry == self._entry else closed

    @cached_property
    def _head(self) -> int:
        """How many first-variable values a finder scans, from index 0.

        1 when the carrier is every word of one alphabet in index order and
        each position's cyclic letter shift g (letter -> letter + 1 mod a)
        is an automorphism, E(g x, g y) = g E(x, y); otherwise v.  Packed
        row x holds E(x, y) in block y, so g acts on it twice by the same
        two shifts, on the bits of every block and on the blocks.
        """
        carrier, v = self._carrier, len(self._carrier)
        spec = getattr(carrier[0], "spec", None)
        if not (isinstance(spec, AlphabetSpec) and spec.size == v and all(
                isinstance(w, Word) and w.index == i and w.spec == spec
                for i, w in enumerate(carrier))):
            return v
        width = (v + 7) // 8
        stride = 8 * width
        rows = [_packed(row, width) for row in self._entry]
        ones = _packed([1] * v, width)
        full = (1 << v) - 1
        every = full * ones
        for a, s in zip(spec.sizes, spec._strides):
            # top: the words whose letter at this position is a - 1
            top = sum(1 << i for i in range(v) if i // s % a == a - 1)
            back = (a - 1) * s
            bits_top = top * ones
            blocks_top = _packed([full * (top >> y & 1) for y in range(v)], width)
            bits_rest, blocks_rest = every ^ bits_top, every ^ blocks_top
            for x, row in enumerate(rows):
                row = (row & bits_rest) << s | (row & bits_top) >> back
                row = ((row & blocks_rest) << s * stride
                       | (row & blocks_top) >> back * stride)
                if row != rows[x - back if top >> x & 1 else x + s]:
                    return v
        return 1

    @cached_property
    def _intervals(self) -> list[list[int]]:
        """Geodesic-interval masks of the underlying graph, unreachable -> 0."""
        return table_from_interval(self.underlying_graph())._entry

    @cached_property
    def _delta(self) -> int:
        return max(m.bit_count() for m in self._adj)


def table_from_rset(
    k: int, spec: AlphabetSpec, budget: int = DEFAULT_BUDGET
) -> TransitTable:
    """Recombination sets of every pair of words over the given alphabet.

    ``iter_words`` yields words in index order, so a carrier index is a
    packed index, and packed indices from the crossover kernel are members.
    """
    spec.check_budget(budget)
    words = tuple(spec.iter_words())
    v = len(words)
    entry = [[0] * v for _ in range(v)]
    for i, x in enumerate(words):
        entry[i][i] = 1 << i
        for j in range(i + 1, v):
            mask = 0
            for m in crossover._rset_packed(k, x, words[j]):
                mask |= 1 << m
            entry[i][j] = entry[j][i] = mask
    return TransitTable._from_rows(words, entry, f"rset:{k} on {spec}")


def table_from_closure(
    k: int, spec: AlphabetSpec, budget: int = DEFAULT_BUDGET
) -> TransitTable:
    """Recombination closures of every pair of words over the given alphabet:
    the interval table of ``hamming_graph(spec)``, since a closure is the
    pair's box (``crossover.closure``), named ``closure:k``."""
    graph = hamming_graph(spec, budget)
    crossover._validate_k(k)
    return table_from_interval(graph).renamed(f"closure:{k} on {spec}")


def table_from_interval(graph: SimpleGraph) -> TransitTable:
    """Geodesic intervals of a graph; empty entries for unreachable pairs.

    z lies on a geodesic between i and j at distance d exactly when it is
    at some distance r from i and d - r from j, so an entry is a union of
    intersections of the graph's distance spheres.
    """
    if not graph.n:
        raise ValueError("empty carrier")
    spheres = graph.distances()
    entry = [[0] * graph.n for _ in spheres]
    for i, si in enumerate(spheres):
        for d, sphere in enumerate(si):
            for j in _bits(sphere >> i << i):
                sj = spheres[j]
                entry[i][j] = entry[j][i] = reduce(
                    or_, (si[r] & sj[d - r] for r in range(d + 1)), 0
                )
    return TransitTable._from_rows(graph.vertices, entry, "interval")


def _hull(rows: Sequence[Sequence[int]], mask: int) -> int:
    """Least superset of mask that holds the entry of every pair of its members."""
    while True:
        grown = mask
        live = list(_bits(mask))
        for a_pos, a in enumerate(live):
            row = rows[a]
            for b in live[a_pos:]:
                grown |= row[b]
        if grown == mask:
            return mask
        mask = grown


def table_closure(table: TransitTable) -> TransitTable:
    """Least fixed point closing every entry under the table itself."""
    rows = table._entry
    hull = {m: _hull(rows, m) for m in table._value_set}
    entry = [list(map(hull.__getitem__, row)) for row in rows]
    return TransitTable._from_rows(table.carrier, entry, f"closure of {table.name}")


def convex_sets(table: TransitTable) -> Iterator[int]:
    """Every convex set of the table as a carrier-index mask, in lectic order.

    A set is convex when it holds the entry of every pair of its members.
    Ganter's NextClosure (*Two basic algorithms in concept analysis*, 1984)
    steps from one hull to the next: the first index i from the top that is
    not in the current set, whose hull with the current members below i
    adds no index below i, gives the successor.  The sets are yielded one
    at a time, so a caller can stop once it has seen enough of them.
    """
    rows = table._entry
    full = (1 << len(rows)) - 1
    current = _hull(rows, 0)
    yield current
    while current != full:
        for i in reversed(range(len(rows))):
            bit = 1 << i
            if current & bit:
                continue
            below = current & (bit - 1)
            grown = _hull(rows, below | bit)
            if grown & (bit - 1) == below:
                current = grown
                yield current
                break


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check.

    witness is None when the axiom holds; a (possibly empty) tuple of carrier
    elements otherwise.  function names the set function actually evaluated,
    which differs from the input table only for the closure-gated axiom CGp.
    """

    axiom: str
    holds: bool
    witness: tuple | None
    universe: int
    function: str


def _resolve_sizes(t: TransitTable, sizes) -> tuple[int, ...] | None:
    """The given alphabet sizes, else the first sizes in ascending order
    whose product is the carrier size and whose degrees sum to the table's."""
    if sizes is not None:
        return tuple(sizes)

    def search(remaining: int, smallest: int, budget: int) -> tuple[int, ...] | None:
        if remaining == 1:
            return () if budget == 0 else None
        for f in range(smallest, remaining + 1):
            if remaining % f == 0 and budget >= f - 1:
                rest = search(remaining // f, f, budget - (f - 1))
                if rest is not None:
                    return (f,) + rest
        return None

    return search(len(t), 2, t._delta)


# ---------------------------------------------------------------------------
# finders: first violating tuple in canonical nested order, or None.
# Loops skip premise-false tuples only, so the first witness matches a full
# scan of the axiom's body; the tests keep the bodies and check this.

def _find_T1(t: TransitTable):
    for x, row in enumerate(t._entry[:t._head]):
        for y, e in enumerate(row):
            if not (e >> x & 1 and e >> y & 1):
                return (x, y)
    return None


def _find_T2(t: TransitTable):
    entry = t._entry
    for x, row in enumerate(entry[:t._head]):
        for y, e in enumerate(row):
            if e != entry[y][x]:
                return (x, y)
    return None


def _find_T3(t: TransitTable):
    for x, row in enumerate(t._entry[:t._head]):
        if row[x] != 1 << x:
            return (x,)
    return None


def _find_GW4(t: TransitTable):
    # bad z: in E(x, y), with |E(x, z)| above |E(x, y)|.
    for x, (ex, sx, lx) in enumerate(
            zip(t._entry[:t._head], t._size, t._larger)):
        for y, e in enumerate(ex):
            bad = e & lx[sx[y]]
            if bad:
                return (x, y, _low(bad))
    return None


def _find_GW3(t: TransitTable):
    # bad v: in E(x, y), with |E(u, v)| above |E(x, y)|.
    larger, members = t._larger, t._members
    for x, (ex, sx) in enumerate(zip(t._entry[:t._head], t._size)):
        for y, e in enumerate(ex):
            for u in members[e]:
                bad = e & larger[u][sx[y]]
                if bad:
                    return (x, y, u, _low(bad))
    return None


def _find_B1(t: TransitTable):
    # y in E(x, z) is z in cols[x][y], so bad z = E(x, y) & cols[x][y] - y.
    for x, (ex, colx) in enumerate(zip(t._entry[:t._head], t._cols)):
        for y, e in enumerate(ex):
            bad = e & colx[y] & ~(1 << y)
            if bad:
                return (x, y, _low(bad))
    return None


def _find_B2(t: TransitTable):
    members = t._members
    for x, ex in enumerate(t._entry[:t._head]):
        for y, e in enumerate(ex):
            for z in members[e]:
                if ex[z] & ~e:
                    return (x, y, z)
    return None


def _find_B3(t: TransitTable):
    # z in E(w, y) is w in cols[y][z], so bad w = E(x, z) & ~cols[y][z].
    cols, members = t._cols, t._members
    for x, ex in enumerate(t._entry[:t._head]):
        for y, e in enumerate(ex):
            for z in members[e]:
                bad = ex[z] & ~cols[y][z]
                if bad:
                    return (x, y, z, _low(bad))
    return None


def _find_M(t: TransitTable):
    entry = t._entry
    for x, ex in enumerate(entry[:t._head]):
        for y, e in enumerate(ex):
            members = t._members[e]
            for u in members:
                eu = entry[u]
                if reduce(or_, map(eu.__getitem__, members)) & ~e:
                    return (x, y, u, next(v for v in members if eu[v] & ~e))
    return None


def _find_MM(t: TransitTable):
    # The verdict depends only on the two entry masks, and a tuple can be
    # reordered within each pair, so the first witness is the least pair
    # whose mask has a failing partner, followed by that partner's least
    # pair.  Masks are taken in order of their first pair; a failing partner
    # met before mask i would already have been reported, so mask i is
    # tested against the later masks only.  The scan stops at the first
    # mask whose first pair starts at _head: every mask before it starts
    # below _head too.
    first: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(t._entry):
        for j in range(i, len(row)):
            first.setdefault(row[j], (i, j))
    masks = list(first)
    allowed = t._value_set | {0}
    for i, m in enumerate(masks):
        if first[m][0] >= t._head:
            break
        later = masks[i + 1:]
        if all(map(allowed.__contains__, map(m.__and__, later))):
            continue
        partner = next(m2 for m2 in later if m & m2 not in allowed)
        return first[m] + first[partner]
    return None


def _find_MG(t: TransitTable):
    iv = t._intervals
    for x, ex in enumerate(t._entry[:t._head]):
        for y, e in enumerate(ex):
            if e & ~iv[x][y]:
                return (x, y)
    return None


def _find_CG(t: TransitTable):
    # Per a, S[x] = {z : E(a,x) <= E(a,z)} is the meet of cols[a] over
    # E(a,x), and T[y] = {z : E(a,z) <= E(a,y)} is its transpose.  The
    # premise is y in S[x]; the first failing z is the lowest bit of the
    # chain set S[x] & T[y] that disagrees with E(x,y).
    v, members = len(t), t._members
    full = (1 << v) - 1
    for a, (ea, col) in enumerate(zip(t._entry[:t._head], t._cols)):
        S = [reduce(and_, map(col.__getitem__, members[mask]), full) for mask in ea]
        T = _transpose(S, v)
        for x, (sx, ex) in enumerate(zip(S, t._entry)):
            for y in _bits(sx):
                bad = (sx & T[y]) ^ ex[y]
                if bad:
                    return (a, x, y, _low(bad))
    return None


def _find_CGp(t: TransitTable):
    # On the closure, with col = cols[a]: the premise x in E'(a,y) is
    # y in col[x], and the first failing z is the lowest bit where
    # col[x] & E'(a,y) and E'(x,y) disagree.
    cc = t._closure
    for a, (ea, col) in enumerate(zip(cc._entry[:t._head], cc._cols)):
        for x, (cx, ex) in enumerate(zip(col, cc._entry)):
            for y in _bits(cx):
                bad = (cx & ea[y]) ^ ex[y]
                if bad:
                    return (a, x, y, _low(bad))
    return None


def _find_Pa(t: TransitTable):
    # Pa fails at (p, a, b, a1, b1) when a1 is in E(p, a), b1 in E(p, b) and
    # E(a1, b) & E(b1, a) is empty.  Block a of hits[m], the union of
    # holders[z] over z in m, is the set of b1 whose entry with a meets m,
    # and good[a1] packs it, block b, for m = E(a1, b).  Row p packs E(p, b)
    # the same way, so (p, a) fails where row p leaves the meet of good over
    # E(p, a), and the lowest such bit is the first failing b.  The table is
    # symmetric, so (p, a, b, a1, b1) fails exactly when (p, b, a, b1, a1)
    # does: a failing b < a would make (p, b) fail first, so good and row p
    # start at block a.  Each a scans only the p below the least failing p
    # so far, which keeps the canonical first witness, and no p from _head
    # on.  hits is built for as many a at a time as fit in _PA_BLOCK_BYTES,
    # and only one block of it is alive at a time.
    v = len(t)
    entry, members = t._entry, t._members
    width = (v + 7) // 8
    stride = 8 * width
    rows = [_packed(row, width) for row in entry]
    full = (1 << v * stride) - 1
    span = min(v, max(1, _PA_BLOCK_BYTES // (len(members) * width)))
    keep = (1 << span * stride) - 1
    number = {m: i for i, m in enumerate(members)}
    ids = np.array([list(map(number.__getitem__, row)) for row in entry])
    best = None
    limit = t._head
    for a0 in range(0, v, span):
        hits = None  # the last block goes before the next is filled
        part = [h >> a0 * stride & keep for h in t._holders]
        hits = np.fromiter(
            (reduce(or_, map(part.__getitem__, zs), 0).to_bytes(span * width, "little")
             for zs in members.values()), f"S{span * width}", len(members),
        ).view(np.uint8).reshape(len(members), span, width)
        for a in range(a0, min(a0 + span, v)):
            size = (v - a) * width
            packed = hits[ids[:, a:], a - a0].tobytes()
            good = [int.from_bytes(packed[i:i + size], "little")
                    for i in range(0, v * size, size)]
            for p in range(limit):
                bad = rows[p] >> a * stride & ~reduce(
                    and_, map(good.__getitem__, members[entry[a][p]]), full)
                if bad:
                    best = (p, a, a + _low(bad) // stride, good)
                    limit = p
                    break
    if best is None:
        return None
    p, a, b, good = best
    epb = entry[p][b]
    block = (b - a) * stride
    a1 = next(x for x in members[entry[p][a]] if epb & ~(good[x] >> block))
    return (p, a, b, a1, _low(epb & ~(good[a1] >> block)))


def _find_C4(t: TransitTable):
    entry, members = t._entry, t._members
    for x, ex in enumerate(entry[:t._head]):
        for y, e in enumerate(ex):
            for z in members[e]:
                if ex[z] & entry[z][y] != 1 << z:
                    return (x, y, z)
    return None


def _find_MO(t: TransitTable):
    entry = t._entry
    for x, ex in enumerate(entry[:t._head]):
        for y, exy in enumerate(ex):
            ey = entry[y]
            for z, exz in enumerate(ex):
                if not exy & ey[z] & exz:
                    return (x, y, z)
    return None


def _find_S1(t: TransitTable):
    # z: y in E(x, z), that is cols[x][y].  bad w: a neighbour of z in
    # E(x, z) with x in E(y, w) (cols[y][x]) and z not (cols[y][z]).
    entry, adj, cols = t._entry, t._adj, t._cols
    for x, (ex, colx) in enumerate(zip(entry[:t._head], cols)):
        for y in _bits(adj[x]):
            coly = cols[y]
            for z in _bits(colx[y]):
                bad = adj[z] & ex[z] & coly[x] & ~coly[z]
                if bad:
                    return (x, y, z, _low(bad))
    return None


def _find_S2(t: TransitTable):
    # bad w: a neighbour of y with y not in E(x, w) (outside cols[x][y]),
    # w not in E(x, z) and z not in E(y, w) (outside cols[y][z]).
    entry, adj, cols = t._entry, t._adj, t._cols
    for x, (ex, colx) in enumerate(zip(entry[:t._head], cols)):
        for y in _bits(adj[x]):
            open_w = adj[y] & ~colx[y]
            if not (open_w and ex[y] >> y & 1):
                continue
            for z, (exz, colyz) in enumerate(zip(ex, cols[y])):
                bad = open_w & ~exz & ~colyz
                if bad:
                    return (x, y, z, _low(bad))
    return None


def _find_A1(t: TransitTable):
    adj, size = t._adj, t._size
    for x, ax in enumerate(adj[:t._head]):
        nx = list(_bits(ax))
        for u in nx:
            au = adj[u]
            for v in nx:
                if u == v or size[u][v] == 2:
                    continue
                others = au & adj[v] & ~(1 << x)
                if others.bit_count() != 1:
                    return (x, u, v)
    return None


def _find_A2(t: TransitTable):
    return None if len(t) == 2 ** t._delta else ()


def _find_A2p(t: TransitTable, sizes):
    sizes = _resolve_sizes(t, sizes)
    if (
        sizes is not None
        and len(t) == prod(sizes)
        and t._delta == sum(s - 1 for s in sizes)
    ):
        return None
    return ()


def _find_A3(t: TransitTable):
    s, adj = t._size, t._adj
    for x, ax in enumerate(adj[:t._head]):
        for y in _bits(ax):
            common = ax & adj[y]
            members = list(_bits(common))
            for u in members:
                su = s[u]
                for v in members:
                    if su[v] > 2:
                        return (x, y, u, v)
    return None


def _find_A4(t: TransitTable):
    s, adj = t._size, t._adj
    for x, (ax, sx) in enumerate(zip(adj[:t._head], s)):
        for y, sxy in enumerate(sx):
            if sxy <= 2:
                continue
            common_xy = ax & adj[y]
            sy = s[y]
            for u in _bits(common_xy):
                su = s[u]
                for v in _bits(common_xy):
                    if su[v] <= 2:
                        continue
                    for w in _bits(ax & adj[v]):
                        if su[w] <= 2 or sy[w] <= 2:
                            continue
                        for z in _bits(adj[y] & adj[w]):
                            if su[z] > 2 and sx[z] > 2 and s[v][z] > 2:
                                return (x, y, u, v, w, z)
    return None


def _find_AX(t: TransitTable):
    # par(a, b, c, d) says b, c lie in E(a, d) and a, d lie in E(b, c).  For
    # an edge ab and a d with b in E(a, d), the c completing it are
    # cols[b][a] & cols[b][d] & E(a, d), cut to the neighbours of d.  row(i)
    # is the set of edge numbers cd parallel to edge i, built on first use.
    # Only the edges ab with a below _head are scanned.
    v = len(t)
    adj = t._adj
    entry = t._entry
    cols = t._cols
    edges = [(a, b) for a in range(v) for b in _bits(adj[a])]
    number = {e: i for i, e in enumerate(edges)}
    rows: list[int | None] = [None] * len(edges)

    def row_of(i: int) -> int:
        if rows[i] is None:
            a, b = edges[i]
            colb = cols[b]
            ea = entry[a]
            from_b = colb[a]
            row = 0
            for d in _bits(cols[a][b]):
                for cc in _bits(from_b & colb[d] & ea[d] & adj[d]):
                    row |= 1 << number[cc, d]
            rows[i] = row
        return rows[i]

    for i in range(sum(m.bit_count() for m in adj[:t._head])):
        row = row_of(i)
        for j in _bits(row):
            bad = row_of(j) & ~row
            if bad:
                return edges[i] + edges[j] + edges[_low(bad)]
    return None


def _find_H3(t: TransitTable):
    # Pair (u, w) is bit u * stride + w; it can fail when u != w, its entry
    # is not the edge {u, w} (open_pairs) and it lies inside E(x, y).
    v = len(t)
    entry, holders = t._entry, t._holders
    width = (v + 7) // 8
    stride = 8 * width
    open_pairs = _packed([
        sum(1 << w for w, m in enumerate(row) if w != u and m != 1 << u | 1 << w)
        for u, row in enumerate(entry)
    ], width)
    full = (1 << v) - 1
    for x, (ex, sx) in enumerate(zip(entry[:t._head], t._size)):
        for y, e in enumerate(ex):
            if x == y or sx[y] <= 4:
                continue
            inside = open_pairs & ~reduce(
                or_, map(holders.__getitem__, _bits(full & ~e)), 0)
            bad = inside & ~(1 << x * stride + y | 1 << y * stride + x)
            if bad:
                return (x, y) + divmod(_low(bad), stride)
    return None


_FINDERS: dict[str, Callable[..., tuple | None]] = {
    "T1": _find_T1, "T2": _find_T2, "T3": _find_T3,
    "GW3": _find_GW3, "GW4": _find_GW4,
    "B1": _find_B1, "B2": _find_B2, "B3": _find_B3,
    "M": _find_M, "MM": _find_MM, "MG": _find_MG,
    "CG": _find_CG, "CGp": _find_CGp,
    "Pa": _find_Pa, "C4": _find_C4, "MO": _find_MO,
    "S1": _find_S1, "S2": _find_S2,
    "A1": _find_A1, "A2": _find_A2, "A2p": _find_A2p,
    "A3": _find_A3, "A4": _find_A4,
    "AX": _find_AX, "AXp": _find_AX,
    "H3": _find_H3,
}


def check_axiom(
    table: TransitTable,
    axiom: str,
    *,
    sizes: Sequence[int] | None = None,
) -> AxiomReport:
    """Exhaustively check one axiom, returning the first counterexample.

    A2 counts against the table's degree; sizes, when given, are the
    alphabet sizes A2p counts against, and any other axiom given them
    raises ValueError.  Six-variable axioms raise SixVarLimitError on
    carriers larger than DEFAULT_SIX_VAR_LIMIT.
    """
    if axiom not in _FINDERS:
        raise ValueError(f"unknown axiom {axiom!r}; known: {', '.join(AXIOM_IDS)}")
    if sizes is not None and axiom != "A2p":
        raise ValueError(f"{axiom} takes no sizes; only A2p counts against them")
    if axiom in SIX_VAR_AXIOMS and len(table) > DEFAULT_SIX_VAR_LIMIT:
        raise SixVarLimitError(f"{axiom} on a carrier of {len(table)} exceeds "
                               f"the six-variable limit {DEFAULT_SIX_VAR_LIMIT}")
    counts = (sizes,) if axiom == "A2p" else ()
    witness_idx = _FINDERS[axiom](table, *counts)
    function = f"closure of {table.name}" if axiom == "CGp" else table.name
    if witness_idx is None:
        return AxiomReport(axiom, True, None, len(table), function)
    witness = tuple(table.carrier[i] for i in witness_idx)
    return AxiomReport(axiom, False, witness, len(table), function)


_IMPLICATIONS = (
    ("M", "GW3"),
    ("M", "B2"),
    ("Pa", "B3"),
    ("Pa", "C4"),
    ("C4", "B1"),
    ("CG", "B2"),
)


def check_all(table: TransitTable) -> list[AxiomReport]:
    """Run the whole catalog, sorted by axiom id.

    Known implications between axioms are re-verified on transit tables
    (those satisfying T1, T2, T3); a violated implication means the checker
    itself is wrong, so it raises instead of reporting.
    """
    reports: dict[str, AxiomReport] = {}
    for ax in sorted(AXIOM_IDS):
        if ax == "AXp":  # AX's own predicate, so AX's report
            reports[ax] = replace(reports["AX"], axiom=ax)
        else:
            reports[ax] = check_axiom(table, ax)
    verdict = {ax: r.holds for ax, r in reports.items()}
    if verdict["T1"] and verdict["T2"] and verdict["T3"]:
        for premise, consequence in _IMPLICATIONS:
            if verdict[premise] and not verdict[consequence]:
                raise RuntimeError(
                    f"internal error: {premise} holds but {consequence} fails "
                    f"on {table.name}"
                )
    return list(reports.values())


def _connectivity_gate(table: TransitTable) -> None:
    # T1 is required alongside Pa: tables with empty entries satisfy Pa
    # vacuously, and Pa forces connectivity only for genuine transit
    # functions.
    if is_connected(table.underlying_graph()):
        return
    closed = table._closure
    if not (check_axiom(closed, "T1").holds and check_axiom(closed, "Pa").holds):
        raise ValueError("connectivity precondition unmet")


def recognize_hypercube(table: TransitTable) -> bool:
    """Whether the underlying graph is a binary Hamming graph, of dimension
    the maximal degree of the underlying graph."""
    _connectivity_gate(table)
    return check_axiom(table, "A1").holds and check_axiom(table, "A2").holds


def recognize_hamming(table: TransitTable, *, sizes: Sequence[int] | None = None) -> bool:
    """Whether the underlying graph is a product of complete graphs.

    Sizes may be given per position, or omitted, in which case a
    factorization matching carrier size and degree is searched for.
    """
    _connectivity_gate(table)
    if not check_axiom(table, "A2p", sizes=sizes).holds:
        return False
    return (
        check_axiom(table, "A1").holds
        and check_axiom(table, "A3").holds
        and check_axiom(table, "A4").holds
    )
