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
two-member adjacency, cols, the value set, the closed table, the interval
rows of its underlying graph), each built on first use and kept, so every
check on one table shares them.  The costliest finders read bitset rows, so
that an inner variable scan becomes a few row operations plus a
lowest-set-bit lookup:

- cols[a][m], the set of z whose entry with a contains m, serves Pa, CG and
  (on the closure) CGp;
- AX numbers the ordered edges (pairs whose entry has two members) in
  canonical order and gives each edge ab the row of edges cd with
  par(a, b, c, d); the first e f of a premise-true (ab, cd) is the lowest
  bit of row(cd) outside row(ab);
- Pa concatenates the rows of one carrier element into a single integer, one
  block per partner, so a whole (p, a) prefix is tested at once;
- MM compares distinct entry masks, each keyed to the first pair carrying
  it, instead of all pairs of pairs.

``table_closure`` and ``convex_sets`` share one hull: the least superset of
a mask that holds the entry of every pair of its members.

AX and AXp are the same predicate as written: AXp spells out the three
parallelism tests of AX entry by entry, so both catalog entries share one
finder and always give the same verdict and witness.

The six-variable axioms A4, AX and AXp are refused on carriers above
DEFAULT_SIX_VAR_LIMIT = 256 elements (the 2^8 binary space) unless the
caller raises the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import SimpleGraph, is_connected
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


class SixVarLimitError(ValueError):
    """A six-variable axiom was asked of a carrier above the limit."""


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _low(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


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

    def entry_mask(self, i: int, j: int) -> int:
        return self._entry[i][j]

    def entry_indices(self, i: int, j: int) -> frozenset[int]:
        return frozenset(_bits(self._entry[i][j]))

    def size_of(self, i: int, j: int) -> int:
        return self._size[i][j]

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
    def _value_set(self) -> frozenset[int]:
        return frozenset().union(*self._entry)

    @cached_property
    def _closure(self) -> "TransitTable":
        return table_closure(self)

    @cached_property
    def _intervals(self) -> list[list[int]]:
        """Geodesic-interval masks of the underlying graph, unreachable -> 0."""
        return table_from_interval(self.underlying_graph())._entry

    @cached_property
    def _delta(self) -> int:
        return max(m.bit_count() for m in self._adj)


def _pair_table(
    name: str, spec: AlphabetSpec, budget: int,
    pair_indices: Callable[[Word, Word], Iterable[int]],
) -> TransitTable:
    """Entries pair_indices(x, y) for every pair of words over the alphabet.

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
            for m in pair_indices(x, words[j]):
                mask |= 1 << m
            entry[i][j] = entry[j][i] = mask
    return TransitTable._from_rows(words, entry, f"{name} on {spec}")


def table_from_rset(
    k: int, spec: AlphabetSpec, budget: int = DEFAULT_BUDGET
) -> TransitTable:
    """Recombination sets of every pair of words over the given alphabet."""
    return _pair_table(f"rset:{k}", spec, budget,
                       lambda x, y: crossover._rset_packed(k, x, y))


def table_from_closure(
    k: int, spec: AlphabetSpec, budget: int = DEFAULT_BUDGET
) -> TransitTable:
    """Recombination closures of every pair of words over the given alphabet."""
    return _pair_table(f"closure:{k}", spec, budget,
                       lambda x, y: crossover._closure_packed(k, x, y, budget))


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
    v = len(rows)
    entry = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i, v):
            entry[i][j] = entry[j][i] = _hull(rows, rows[i][j])
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


def _resolve_sizes(t: TransitTable, n, a, sizes) -> tuple[int, ...] | None:
    """Alphabet sizes consistent with carrier size and degree, if any."""
    if sizes is not None:
        return tuple(sizes)
    if n is not None and a is not None:
        return (a,) * n

    def search(remaining: int, smallest: int, budget: int) -> tuple[int, ...] | None:
        if remaining == 1:
            return () if budget == 0 else None
        f = smallest
        while f <= remaining:
            if remaining % f == 0 and budget >= f - 1:
                rest = search(remaining // f, f, budget - (f - 1))
                if rest is not None:
                    return (f,) + rest
            f += 1
        return None

    return search(len(t), 2, t._delta)


# ---------------------------------------------------------------------------
# finders: first violating tuple in canonical nested order, or None.
# Loops skip premise-false tuples only, so the first witness matches a full
# scan of the axiom's body; the tests keep the bodies and check this.

def _find_T1(t: TransitTable):
    for x, row in enumerate(t._entry):
        for y, e in enumerate(row):
            if not (e >> x & 1 and e >> y & 1):
                return (x, y)
    return None


def _find_T2(t: TransitTable):
    entry = t._entry
    for x, row in enumerate(entry):
        for y, e in enumerate(row):
            if e != entry[y][x]:
                return (x, y)
    return None


def _find_T3(t: TransitTable):
    for x, row in enumerate(t._entry):
        if row[x] != 1 << x:
            return (x,)
    return None


def _find_GW4(t: TransitTable):
    for x, (ex, sx) in enumerate(zip(t._entry, t._size)):
        for y, bound in enumerate(sx):
            for z in _bits(ex[y]):
                if sx[z] > bound:
                    return (x, y, z)
    return None


def _find_GW3(t: TransitTable):
    size = t._size
    for x, (ex, sx) in enumerate(zip(t._entry, size)):
        for y, e in enumerate(ex):
            bound = sx[y]
            members = list(_bits(e))
            for u in members:
                su = size[u]
                for v in members:
                    if su[v] > bound:
                        return (x, y, u, v)
    return None


def _find_B1(t: TransitTable):
    for x, ex in enumerate(t._entry):
        for y, e in enumerate(ex):
            for z in _bits(e):
                if z != y and ex[z] >> y & 1:
                    return (x, y, z)
    return None


def _find_B2(t: TransitTable):
    for x, ex in enumerate(t._entry):
        for y, e in enumerate(ex):
            for z in _bits(e):
                if ex[z] & ~e:
                    return (x, y, z)
    return None


def _find_B3(t: TransitTable):
    entry = t._entry
    for x, ex in enumerate(entry):
        for y, e in enumerate(ex):
            for z in _bits(e):
                for w in _bits(ex[z]):
                    if not entry[w][y] >> z & 1:
                        return (x, y, z, w)
    return None


def _find_M(t: TransitTable):
    entry = t._entry
    for x, ex in enumerate(entry):
        for y, e in enumerate(ex):
            members = list(_bits(e))
            for u in members:
                eu = entry[u]
                for v in members:
                    if eu[v] & ~e:
                        return (x, y, u, v)
    return None


def _find_MM(t: TransitTable):
    # The verdict depends only on the two entry masks, and a tuple can be
    # reordered within each pair, so the first witness is the least pair
    # whose mask has a failing partner, followed by that partner's least
    # pair.  Masks are taken in order of their first pair; a failing partner
    # met before mask i would already have been reported, so mask i is
    # tested against the later masks only.
    first: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(t._entry):
        for j in range(i, len(row)):
            first.setdefault(row[j], (i, j))
    masks = list(first)
    allowed = t._value_set | {0}
    for i, m in enumerate(masks):
        later = masks[i + 1:]
        if all(map(allowed.__contains__, map(m.__and__, later))):
            continue
        partner = next(m2 for m2 in later if m & m2 not in allowed)
        return first[m] + first[partner]
    return None


def _find_MG(t: TransitTable):
    iv = t._intervals
    for x, ex in enumerate(t._entry):
        for y, e in enumerate(ex):
            if e & ~iv[x][y]:
                return (x, y)
    return None


def _find_CG(t: TransitTable):
    # Per a, S[x] = {z : E(a,x) <= E(a,z)} is the meet of cols[a] over
    # E(a,x), and T[y] = {z : E(a,z) <= E(a,y)} is its transpose.  The
    # premise is y in S[x]; the first failing z is the lowest bit of the
    # chain set S[x] & T[y] that disagrees with E(x,y).
    v = len(t)
    full = (1 << v) - 1
    for a, (ea, col) in enumerate(zip(t._entry, t._cols)):
        S = []
        for mask in ea:
            meet = full
            for m in _bits(mask):
                meet &= col[m]
            S.append(meet)
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
    for a, (ea, col) in enumerate(zip(cc._entry, cc._cols)):
        for x, (cx, ex) in enumerate(zip(col, cc._entry)):
            for y in _bits(cx):
                bad = (cx & ea[y]) ^ ex[y]
                if bad:
                    return (a, x, y, _low(bad))
    return None


def _find_Pa(t: TransitTable):
    # Pa fails at (p, a, b, a1, b1) when a1 is in E(p, a), b1 in E(p, b) and
    # E(a1, b) & E(b1, a) is empty.  For each a, good[a1] packs, block b,
    # the set of b1 meeting E(a1, b): the union of cols[a] over that mask,
    # computed once per (a, mask).  Row p packs E(p, b) the same way, so a
    # (p, a) prefix fails exactly where row p leaves the meet of good over
    # E(p, a), and the lowest such bit names the first failing b.  Each a
    # is scanned only over the p below the least failing p found so far,
    # which keeps the canonical first witness.
    v = len(t)
    entry = t._entry
    width = (v + 7) // 8
    stride = 8 * width

    def packed(masks) -> int:
        return int.from_bytes(b"".join(masks), "little")

    members = {m: list(_bits(m)) for row in entry for m in row}
    rows = [packed([m.to_bytes(width, "little") for m in row]) for row in entry]
    full = (1 << v * stride) - 1
    best = None
    limit = v
    for a in range(v):
        cola = t._cols[a]
        meets = {
            m: reduce(or_, map(cola.__getitem__, bits), 0).to_bytes(width, "little")
            for m, bits in members.items()
        }
        good = [packed(map(meets.__getitem__, row)) for row in entry]
        ea = entry[a]
        for p in range(limit):
            bad = rows[p] & ~reduce(and_, map(good.__getitem__, members[ea[p]]), full)
            if bad:
                best = (p, a, _low(bad) // stride, good)
                limit = p
                break
    if best is None:
        return None
    p, a, b, good = best
    epb = entry[p][b]
    block = b * stride
    a1 = next(x for x in _bits(entry[p][a]) if epb & ~(good[x] >> block))
    return (p, a, b, a1, _low(epb & ~(good[a1] >> block)))


def _find_C4(t: TransitTable):
    entry = t._entry
    for x, ex in enumerate(entry):
        for y, e in enumerate(ex):
            for z in _bits(e):
                if ex[z] & entry[z][y] != 1 << z:
                    return (x, y, z)
    return None


def _find_MO(t: TransitTable):
    entry = t._entry
    for x, ex in enumerate(entry):
        for y, exy in enumerate(ex):
            ey = entry[y]
            for z, exz in enumerate(ex):
                if not exy & ey[z] & exz:
                    return (x, y, z)
    return None


def _find_S1(t: TransitTable):
    entry, adj = t._entry, t._adj
    for x, ex in enumerate(entry):
        for y in _bits(adj[x]):
            ey = entry[y]
            for z, exz in enumerate(ex):
                if not (exz >> y & 1):
                    continue
                for w in _bits(adj[z]):
                    if not (exz >> w & 1):
                        continue
                    eyw = ey[w]
                    if eyw >> x & 1 and not eyw >> z & 1:
                        return (x, y, z, w)
    return None


def _find_S2(t: TransitTable):
    entry, adj = t._entry, t._adj
    for x, ex in enumerate(entry):
        for y in _bits(adj[x]):
            if not ex[y] >> y & 1:
                continue
            ey = entry[y]
            for z, exz in enumerate(ex):
                for w in _bits(adj[y]):
                    if exz >> w & 1 or ey[w] >> z & 1:
                        continue
                    if not ex[w] >> y & 1:
                        return (x, y, z, w)
    return None


def _find_A1(t: TransitTable):
    adj, size = t._adj, t._size
    for x, ax in enumerate(adj):
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


def _find_A2(t: TransitTable, n, a, sizes):
    n = n if n is not None else t._delta
    return None if t._delta == n and len(t) == 2 ** n else ()


def _find_A2p(t: TransitTable, n, a, sizes):
    sizes = _resolve_sizes(t, n, a, sizes)
    if (
        sizes is not None
        and len(t) == prod(sizes)
        and t._delta == sum(s - 1 for s in sizes)
    ):
        return None
    return ()


def _find_A3(t: TransitTable):
    s, adj = t._size, t._adj
    for x, ax in enumerate(adj):
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
    for x, (ax, sx) in enumerate(zip(adj, s)):
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
    # cols[b][a] & cols[b][d] & E(a, d), cut to the neighbours of d.  rows[i]
    # is the set of edge numbers cd parallel to edge i; whether every cd in
    # a row has its own row inside it depends on the row alone, so a row
    # found closed is not scanned again.
    v = len(t)
    adj = t._adj
    entry = t._entry
    cols = t._cols
    edges = [(a, b) for a in range(v) for b in _bits(adj[a])]
    number = {e: i for i, e in enumerate(edges)}
    rows = []
    for a, b in edges:
        colb = cols[b]
        ea = entry[a]
        from_b = colb[a]
        row = 0
        for d in _bits(cols[a][b]):
            for cc in _bits(from_b & colb[d] & ea[d] & adj[d]):
                row |= 1 << number[cc, d]
        rows.append(row)
    closed: set[int] = set()
    for i, row in enumerate(rows):
        if row in closed:
            continue
        rest = row
        while rest:
            j = _low(rest)
            bad = rows[j] & ~row
            if bad:
                return edges[i] + edges[j] + edges[_low(bad)]
            rest &= rest - 1
        closed.add(row)
    return None


def _find_H3(t: TransitTable):
    entry = t._entry
    for x, (ex, sx) in enumerate(zip(entry, t._size)):
        for y, exy in enumerate(ex):
            if x == y or sx[y] <= 4:
                continue
            for u, eu in enumerate(entry):
                for v, euv in enumerate(eu):
                    if u == v or euv & ~exy:
                        continue
                    if euv == (1 << u) | (1 << v) or {u, v} == {x, y}:
                        continue
                    return (x, y, u, v)
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
    n: int | None = None,
    a: int | None = None,
    sizes: Sequence[int] | None = None,
    six_var_limit: int = DEFAULT_SIX_VAR_LIMIT,
) -> AxiomReport:
    """Exhaustively check one axiom, returning the first counterexample.

    n/a/sizes parametrize the two counting conditions A2 and A2p; everything
    else ignores them.  Six-variable axioms raise SixVarLimitError on
    carriers larger than six_var_limit; raise the limit explicitly to
    override.
    """
    if axiom not in _FINDERS:
        raise ValueError(f"unknown axiom {axiom!r}; known: {', '.join(AXIOM_IDS)}")
    if axiom in SIX_VAR_AXIOMS and len(table) > six_var_limit:
        raise SixVarLimitError(
            f"{axiom} on a carrier of {len(table)} exceeds the six-variable "
            f"limit {six_var_limit}; pass six_var_limit to override"
        )
    counts = (n, a, sizes) if axiom in ("A2", "A2p") else ()
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


def check_all(
    table: TransitTable,
    *,
    n: int | None = None,
    a: int | None = None,
    sizes: Sequence[int] | None = None,
    six_var_limit: int = DEFAULT_SIX_VAR_LIMIT,
) -> list[AxiomReport]:
    """Run the whole catalog, sorted by axiom id.

    Known implications between axioms are re-verified on transit tables
    (those satisfying T1, T2, T3); a violated implication means the checker
    itself is wrong, so it raises instead of reporting.
    """
    reports = [
        check_axiom(table, ax, n=n, a=a, sizes=sizes, six_var_limit=six_var_limit)
        for ax in sorted(AXIOM_IDS)
    ]
    verdict = {r.axiom: r.holds for r in reports}
    if verdict["T1"] and verdict["T2"] and verdict["T3"]:
        for premise, consequence in _IMPLICATIONS:
            if verdict[premise] and not verdict[consequence]:
                raise RuntimeError(
                    f"internal error: {premise} holds but {consequence} fails "
                    f"on {table.name}"
                )
    return reports


def _connectivity_gate(table: TransitTable) -> None:
    # T1 is required alongside Pa: tables with empty entries satisfy Pa
    # vacuously, and Pa forces connectivity only for genuine transit
    # functions.
    if is_connected(table.underlying_graph()):
        return
    closed = table._closure
    if not (check_axiom(closed, "T1").holds and check_axiom(closed, "Pa").holds):
        raise ValueError("connectivity precondition unmet")


def recognize_hypercube(table: TransitTable, n: int | None = None) -> bool:
    """Whether the underlying graph is an n-dimensional binary Hamming graph.

    With n omitted, the maximal degree of the underlying graph is used.
    """
    _connectivity_gate(table)
    if n is None:
        n = table._delta
    return (
        check_axiom(table, "A1").holds
        and check_axiom(table, "A2", n=n).holds
    )


def recognize_hamming(
    table: TransitTable,
    n: int | None = None,
    a: int | None = None,
    sizes: Sequence[int] | None = None,
    six_var_limit: int = DEFAULT_SIX_VAR_LIMIT,
) -> bool:
    """Whether the underlying graph is a product of complete graphs.

    Sizes may be given per position, as a uniform (n, a) pair, or omitted,
    in which case a factorization matching carrier size and degree is
    searched for.
    """
    _connectivity_gate(table)
    if not check_axiom(table, "A2p", n=n, a=a, sizes=sizes).holds:
        return False
    return (
        check_axiom(table, "A1").holds
        and check_axiom(table, "A3").holds
        and check_axiom(table, "A4", six_var_limit=six_var_limit).holds
    )
