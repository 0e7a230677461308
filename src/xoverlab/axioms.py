"""Finite-model checking of transit-function axioms with first witnesses.

A TransitTable materializes a symmetric set-valued function on a finite
carrier.  Every axiom in the catalog is decided as if by exhaustive
enumeration in canonical nested order (carrier indices ascending, variables
in the order they appear in the axiom statement), so the first
counterexample is reproducible.  The finders skip premise-false tuples only,
which cannot change the first witness; the tests hold the literal axiom
bodies and compare the finders against a full scan of them.

Entry sets are stored as integer bitmasks over carrier indices; subset,
intersection and membership tests are single integer operations.  The
costliest finders go one step further and precompute bitset rows, so that
an inner variable scan becomes a few row operations plus a lowest-set-bit
lookup:

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

AX and AXp are the same predicate as written: AXp spells out the three
parallelism tests of AX entry by entry, so both catalog entries share one
finder and always give the same verdict and witness.

The six-variable axioms A4, AX and AXp are refused on carriers above
DEFAULT_SIX_VAR_LIMIT = 256 elements (the 2^8 binary space) unless the
caller raises the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Mapping, Sequence

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
    """Total symmetric map from unordered carrier pairs to carrier subsets."""

    __slots__ = ("_carrier", "_entry", "_size", "_name")

    def __init__(
        self,
        carrier: Sequence[Hashable],
        entries: Mapping[tuple[int, int], Iterable[int]],
        name: str = "R",
    ):
        self._carrier = tuple(carrier)
        v = len(self._carrier)
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
        self._entry = entry
        self._size = [[m.bit_count() for m in row] for row in entry]
        self._name = name

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

    def entry_elements(self, i: int, j: int) -> tuple:
        return tuple(self._carrier[b] for b in _bits(self._entry[i][j]))

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
        t = TransitTable.__new__(TransitTable)
        t._carrier = self._carrier
        t._entry = self._entry
        t._size = self._size
        t._name = name
        return t


def _pair_table(
    name: str, spec: AlphabetSpec, budget: int,
    pair_indices: Callable[[Word, Word], Iterable[int]],
) -> TransitTable:
    """Entries pair_indices(x, y) for every pair of words over the alphabet.

    ``iter_words`` yields words in index order, so a carrier index is a
    packed index, and packed indices from the crossover kernel are entries.
    """
    spec.check_budget(budget)
    words = list(spec.iter_words())
    entries = {}
    for i, x in enumerate(words):
        entries[(i, i)] = (i,)
        for j in range(i + 1, len(words)):
            entries[(i, j)] = pair_indices(x, words[j])
    return TransitTable(words, entries, name=f"{name} on {spec}")


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
    """Geodesic intervals of a graph; empty entries for unreachable pairs."""
    dist = graph.distances()
    v = graph.n
    entries = {}
    for i in range(v):
        entries[(i, i)] = (i,)
        for j in range(i + 1, v):
            d = dist[i][j]
            if d < 0:
                entries[(i, j)] = ()
            else:
                entries[(i, j)] = tuple(
                    z for z in range(v)
                    if dist[i][z] >= 0 and dist[z][j] >= 0
                    and dist[i][z] + dist[z][j] == d
                )
    return TransitTable(graph.vertices, entries, name="interval")


def table_closure(table: TransitTable, name: str | None = None) -> TransitTable:
    """Least fixed point closing every entry under the table itself."""
    v = len(table)
    entries = {}
    for i in range(v):
        for j in range(i, v):
            current = table.entry_mask(i, j)
            while True:
                grown = current
                live = list(_bits(current))
                for a_pos, a in enumerate(live):
                    row = table._entry[a]
                    for b in live[a_pos:]:
                        grown |= row[b]
                if grown == current:
                    break
                current = grown
            entries[(i, j)] = tuple(_bits(current))
    return TransitTable(
        table.carrier, entries, name=name or f"closure of {table.name}"
    )


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


class _Ctx:
    """Shared precomputation for the axiom finders."""

    def __init__(self, table: TransitTable, n=None, a=None, sizes=None):
        self.table = table
        self.v = len(table)
        self.entry = table._entry
        self.size = table._size
        self.n = n
        self.a = a
        self.sizes = sizes
        v = self.v
        size = self.size
        # adjacency in the sense of two-element entries
        self.adj = [0] * v
        for i in range(v):
            row = size[i]
            m = 0
            for j in range(v):
                if row[j] == 2:
                    m |= 1 << j
            self.adj[i] = m
        self._value_set: frozenset[int] | None = None
        self._closure: _Ctx | None = None
        self._intervals: list[list[int]] | None = None
        self._cols: list[list[int]] | None = None

    @property
    def cols(self) -> list[list[int]]:
        """cols[a][m] is the set of z whose entry with a contains m."""
        if self._cols is None:
            self._cols = [_transpose(row, self.v) for row in self.entry]
        return self._cols

    @property
    def value_set(self) -> frozenset[int]:
        if self._value_set is None:
            v = self.v
            self._value_set = frozenset(
                self.entry[i][j] for i in range(v) for j in range(i, v)
            )
        return self._value_set

    @property
    def closure(self) -> "_Ctx":
        if self._closure is None:
            self._closure = _Ctx(table_closure(self.table))
        return self._closure

    @property
    def intervals(self) -> list[list[int]]:
        """Geodesic-interval masks of the underlying graph, unreachable -> 0."""
        if self._intervals is None:
            self._intervals = table_from_interval(self.table.underlying_graph())._entry
        return self._intervals

    def delta(self) -> int:
        return max(m.bit_count() for m in self.adj)


def _resolve_sizes(c: _Ctx) -> tuple[int, ...] | None:
    """Alphabet sizes consistent with carrier size and degree, if any."""
    if c.sizes is not None:
        return tuple(c.sizes)
    if c.n is not None and c.a is not None:
        return (c.a,) * c.n
    target_count, target_delta = c.v, c.delta()

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

    return search(target_count, 2, target_delta)


# ---------------------------------------------------------------------------
# finders: first violating tuple in canonical nested order, or None.
# Loops skip premise-false tuples only, so the first witness matches a full
# scan of the axiom's body; the tests keep the bodies and check this.

def _find_T1(c: _Ctx):
    for x in range(c.v):
        row = c.entry[x]
        for y in range(c.v):
            e = row[y]
            if not (e >> x & 1 and e >> y & 1):
                return (x, y)
    return None


def _find_T2(c: _Ctx):
    for x in range(c.v):
        for y in range(c.v):
            if c.entry[x][y] != c.entry[y][x]:
                return (x, y)
    return None


def _find_T3(c: _Ctx):
    for x in range(c.v):
        if c.entry[x][x] != 1 << x:
            return (x,)
    return None


def _find_GW4(c: _Ctx):
    for x in range(c.v):
        sx = c.size[x]
        for y in range(c.v):
            bound = sx[y]
            for z in _bits(c.entry[x][y]):
                if sx[z] > bound:
                    return (x, y, z)
    return None


def _find_GW3(c: _Ctx):
    for x in range(c.v):
        for y in range(c.v):
            e = c.entry[x][y]
            bound = c.size[x][y]
            members = list(_bits(e))
            for u in members:
                su = c.size[u]
                for v in members:
                    if su[v] > bound:
                        return (x, y, u, v)
    return None


def _find_B1(c: _Ctx):
    for x in range(c.v):
        for y in range(c.v):
            for z in _bits(c.entry[x][y]):
                if z != y and c.entry[x][z] >> y & 1:
                    return (x, y, z)
    return None


def _find_B2(c: _Ctx):
    for x in range(c.v):
        for y in range(c.v):
            e = c.entry[x][y]
            for z in _bits(e):
                if c.entry[x][z] & ~e:
                    return (x, y, z)
    return None


def _find_B3(c: _Ctx):
    for x in range(c.v):
        for y in range(c.v):
            for z in _bits(c.entry[x][y]):
                exz = c.entry[x][z]
                for w in _bits(exz):
                    if not c.entry[w][y] >> z & 1:
                        return (x, y, z, w)
    return None


def _find_M(c: _Ctx):
    for x in range(c.v):
        for y in range(c.v):
            e = c.entry[x][y]
            members = list(_bits(e))
            for u in members:
                eu = c.entry[u]
                for v in members:
                    if eu[v] & ~e:
                        return (x, y, u, v)
    return None


def _find_MM(c: _Ctx):
    # The verdict depends only on the two entry masks, and a tuple can be
    # reordered within each pair, so the first witness is the least pair
    # whose mask has a failing partner, followed by that partner's least
    # pair.  Masks are taken in order of their first pair; a failing partner
    # met before mask i would already have been reported, so mask i is
    # tested against the later masks only.
    first: dict[int, tuple[int, int]] = {}
    for i in range(c.v):
        row = c.entry[i]
        for j in range(i, c.v):
            first.setdefault(row[j], (i, j))
    masks = list(first)
    allowed = c.value_set | {0}
    for i, m in enumerate(masks):
        later = masks[i + 1:]
        if all(map(allowed.__contains__, map(m.__and__, later))):
            continue
        partner = next(m2 for m2 in later if m & m2 not in allowed)
        return first[m] + first[partner]
    return None


def _find_MG(c: _Ctx):
    iv = c.intervals
    for x in range(c.v):
        for y in range(c.v):
            if c.entry[x][y] & ~iv[x][y]:
                return (x, y)
    return None


def _find_CG(c: _Ctx):
    # Per a, S[x] = {z : E(a,x) <= E(a,z)} is the meet of cols[a] over
    # E(a,x), and T[y] = {z : E(a,z) <= E(a,y)} is its transpose.  The
    # premise is y in S[x]; the first failing z is the lowest bit of the
    # chain set S[x] & T[y] that disagrees with E(x,y).
    v = c.v
    full = (1 << v) - 1
    for a in range(v):
        ea = c.entry[a]
        col = c.cols[a]
        S = []
        for mask in ea:
            meet = full
            for m in _bits(mask):
                meet &= col[m]
            S.append(meet)
        T = _transpose(S, v)
        for x in range(v):
            sx = S[x]
            ex = c.entry[x]
            for y in _bits(sx):
                bad = (sx & T[y]) ^ ex[y]
                if bad:
                    return (a, x, y, _low(bad))
    return None


def _find_CGp(c: _Ctx):
    # On the closure, with col = cols[a]: the premise x in E'(a,y) is
    # y in col[x], and the first failing z is the lowest bit where
    # col[x] & E'(a,y) and E'(x,y) disagree.
    cc = c.closure
    for a in range(cc.v):
        ea = cc.entry[a]
        col = cc.cols[a]
        for x in range(cc.v):
            cx = col[x]
            ex = cc.entry[x]
            for y in _bits(cx):
                bad = (cx & ea[y]) ^ ex[y]
                if bad:
                    return (a, x, y, _low(bad))
    return None


def _find_Pa(c: _Ctx):
    # Pa fails at (p, a, b, a1, b1) when a1 is in E(p, a), b1 in E(p, b) and
    # E(a1, b) & E(b1, a) is empty.  For each a, good[a1] packs, block b,
    # the set of b1 meeting E(a1, b): the union of cols[a] over that mask,
    # computed once per (a, mask).  Row p packs E(p, b) the same way, so a
    # (p, a) prefix fails exactly where row p leaves the meet of good over
    # E(p, a), and the lowest such bit names the first failing b.  Each a
    # is scanned only over the p below the least failing p found so far,
    # which keeps the canonical first witness.
    v = c.v
    entry = c.entry
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
        cola = c.cols[a]
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


def _find_C4(c: _Ctx):
    for x in range(c.v):
        for y in range(c.v):
            for z in _bits(c.entry[x][y]):
                if c.entry[x][z] & c.entry[z][y] != 1 << z:
                    return (x, y, z)
    return None


def _find_MO(c: _Ctx):
    for x in range(c.v):
        for y in range(c.v):
            exy = c.entry[x][y]
            ey = c.entry[y]
            ex = c.entry[x]
            for z in range(c.v):
                if not exy & ey[z] & ex[z]:
                    return (x, y, z)
    return None


def _find_S1(c: _Ctx):
    for x in range(c.v):
        for y in _bits(c.adj[x]):
            eyw_row = c.entry[y]
            for z in range(c.v):
                exz = c.entry[x][z]
                if not (exz >> y & 1):
                    continue
                for w in _bits(c.adj[z]):
                    if not (exz >> w & 1):
                        continue
                    eyw = eyw_row[w]
                    if eyw >> x & 1 and not eyw >> z & 1:
                        return (x, y, z, w)
    return None


def _find_S2(c: _Ctx):
    for x in range(c.v):
        for y in _bits(c.adj[x]):
            if not c.entry[x][y] >> y & 1:
                continue
            ey = c.entry[y]
            for z in range(c.v):
                exz = c.entry[x][z]
                for w in _bits(c.adj[y]):
                    if exz >> w & 1 or ey[w] >> z & 1:
                        continue
                    if not c.entry[x][w] >> y & 1:
                        return (x, y, z, w)
    return None


def _find_A1(c: _Ctx):
    for x in range(c.v):
        nx = list(_bits(c.adj[x]))
        for u in nx:
            au = c.adj[u]
            for v in nx:
                if u == v or c.size[u][v] == 2:
                    continue
                others = au & c.adj[v] & ~(1 << x)
                if others.bit_count() != 1:
                    return (x, u, v)
    return None


def _find_A2(c: _Ctx):
    n = c.n if c.n is not None else c.delta()
    return None if c.delta() == n and c.v == 2 ** n else ()


def _find_A2p(c: _Ctx):
    sizes = _resolve_sizes(c)
    if (
        sizes is not None
        and c.v == prod(sizes)
        and c.delta() == sum(s - 1 for s in sizes)
    ):
        return None
    return ()


def _find_A3(c: _Ctx):
    s = c.size
    for x in range(c.v):
        ax = c.adj[x]
        for y in _bits(ax):
            common = ax & c.adj[y]
            members = list(_bits(common))
            for u in members:
                su = s[u]
                for v in members:
                    if su[v] > 2:
                        return (x, y, u, v)
    return None


def _find_A4(c: _Ctx):
    s = c.size
    adj = c.adj
    for x in range(c.v):
        ax = adj[x]
        sx = s[x]
        for y in range(c.v):
            if sx[y] <= 2:
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
                        sw = s[w]
                        for z in _bits(adj[y] & adj[w]):
                            if su[z] > 2 and sx[z] > 2 and s[v][z] > 2:
                                return (x, y, u, v, w, z)
    return None


def _find_AX(c: _Ctx):
    # par(a, b, c, d) says b, c lie in E(a, d) and a, d lie in E(b, c).  For
    # an edge ab and a d with b in E(a, d), the c completing it are
    # cols[b][a] & cols[b][d] & E(a, d), cut to the neighbours of d.  rows[i]
    # is the set of edge numbers cd parallel to edge i; whether every cd in
    # a row has its own row inside it depends on the row alone, so a row
    # found closed is not scanned again.
    v = c.v
    adj = c.adj
    entry = c.entry
    cols = c.cols
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


def _find_H3(c: _Ctx):
    for x in range(c.v):
        sx = c.size[x]
        for y in range(c.v):
            if x == y or sx[y] <= 4:
                continue
            exy = c.entry[x][y]
            for u in range(c.v):
                eu = c.entry[u]
                for v in range(c.v):
                    if u == v:
                        continue
                    euv = eu[v]
                    if euv & ~exy:
                        continue
                    if euv == (1 << u) | (1 << v) or {u, v} == {x, y}:
                        continue
                    return (x, y, u, v)
    return None


_FINDERS: dict[str, Callable[[_Ctx], tuple | None]] = {
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
    ctx = _Ctx(table, n=n, a=a, sizes=sizes)
    witness_idx = _FINDERS[axiom](ctx)
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
    closed = table_closure(table)
    if not (check_axiom(closed, "T1").holds and check_axiom(closed, "Pa").holds):
        raise ValueError("connectivity precondition unmet")


def recognize_hypercube(table: TransitTable, n: int | None = None) -> bool:
    """Whether the underlying graph is an n-dimensional binary Hamming graph.

    With n omitted, the maximal degree of the underlying graph is used.
    """
    _connectivity_gate(table)
    if n is None:
        n = _Ctx(table).delta()
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
