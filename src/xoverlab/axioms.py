"""Finite-model checking of transit-function axioms with first witnesses.

A TransitTable materializes a symmetric set-valued function on a finite
carrier.  Every axiom in the catalog is evaluated by exhaustive enumeration
in canonical nested order (carrier indices ascending, variables in the order
they appear in the axiom statement), so the first counterexample is
reproducible.  The enumerators prune on premise-false tuples only, which
cannot change the first witness.

Entry sets are stored as integer bitmasks over carrier indices; subset,
intersection and membership tests are single integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Iterable, Mapping, Sequence

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
DEFAULT_SIX_VAR_LIMIT = 64


class SixVarLimitError(ValueError):
    """A six-variable axiom was asked of a carrier above the limit."""


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    def degrees(self) -> tuple[int, ...]:
        """Per-element count of partners whose entry has exactly two members."""
        size = self._size
        v = len(self._carrier)
        return tuple(sum(1 for j in range(v) if size[i][j] == 2) for i in range(v))

    def max_degree(self) -> int:
        return max(self.degrees())

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


def table_from_rset(
    k: int, spec: AlphabetSpec, budget: int = DEFAULT_BUDGET
) -> TransitTable:
    """Recombination sets of every pair of words over the given alphabet."""
    spec.check_budget(budget)
    words = list(spec.iter_words())
    lookup = {w: i for i, w in enumerate(words)}
    entries = {}
    for i, x in enumerate(words):
        entries[(i, i)] = (i,)
        for j in range(i + 1, len(words)):
            members = crossover.rset(k, x, words[j]).members
            entries[(i, j)] = tuple(lookup[w] for w in members)
    return TransitTable(words, entries, name=f"rset:{k} on {spec}")


def table_from_closure(
    k: int, spec: AlphabetSpec, budget: int = DEFAULT_BUDGET
) -> TransitTable:
    """Recombination closures of every pair of words over the given alphabet."""
    spec.check_budget(budget)
    words = list(spec.iter_words())
    lookup = {w: i for i, w in enumerate(words)}
    entries = {}
    for i, x in enumerate(words):
        entries[(i, i)] = (i,)
        for j in range(i + 1, len(words)):
            members = crossover.closure(k, x, words[j], budget=budget)
            entries[(i, j)] = tuple(lookup[w] for w in members)
    return TransitTable(words, entries, name=f"closure:{k} on {spec}")


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
    """Shared precomputation for the axiom bodies and enumerators."""

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
            g = self.table.underlying_graph()
            dist = g.distances()
            v = self.v
            out = [[0] * v for _ in range(v)]
            for i in range(v):
                for j in range(i, v):
                    d = dist[i][j]
                    if d >= 0:
                        mask = 0
                        for z in range(v):
                            dz = dist[i][z]
                            if 0 <= dz and dist[z][j] >= 0 and dz + dist[z][j] == d:
                                mask |= 1 << z
                        out[i][j] = out[j][i] = mask
            self._intervals = out
        return self._intervals

    def delta(self) -> int:
        return max(
            sum(1 for j in range(self.v) if self.size[i][j] == 2)
            for i in range(self.v)
        )

    def par(self, u: int, v: int, x: int, y: int) -> bool:
        """Edge-parallelism witness pattern: v,x between u,y and u,y between v,x."""
        euy = self.entry[u][y]
        evx = self.entry[v][x]
        return bool(
            euy >> v & 1 and euy >> x & 1 and evx >> u & 1 and evx >> y & 1
        )


# ---------------------------------------------------------------------------
# axiom bodies: total boolean functions of one variable tuple, used directly
# by the brute-force cross-checks in the tests and to re-verify witnesses

def _body_T1(c: _Ctx, t) -> bool:
    x, y = t
    e = c.entry[x][y]
    return bool(e >> x & 1 and e >> y & 1)


def _body_T2(c: _Ctx, t) -> bool:
    x, y = t
    return c.entry[x][y] == c.entry[y][x]


def _body_T3(c: _Ctx, t) -> bool:
    (x,) = t
    return c.entry[x][x] == 1 << x


def _body_GW4(c: _Ctx, t) -> bool:
    x, y, z = t
    if not c.entry[x][y] >> z & 1:
        return True
    return c.size[x][z] <= c.size[x][y]


def _body_GW3(c: _Ctx, t) -> bool:
    x, y, u, v = t
    e = c.entry[x][y]
    if not (e >> u & 1 and e >> v & 1):
        return True
    return c.size[u][v] <= c.size[x][y]


def _body_B1(c: _Ctx, t) -> bool:
    x, y, z = t
    if not (c.entry[x][y] >> z & 1 and z != y):
        return True
    return not c.entry[x][z] >> y & 1


def _body_B2(c: _Ctx, t) -> bool:
    x, y, z = t
    if not c.entry[x][y] >> z & 1:
        return True
    return c.entry[x][z] & ~c.entry[x][y] == 0


def _body_B3(c: _Ctx, t) -> bool:
    x, y, z, w = t
    if not (c.entry[x][y] >> z & 1 and c.entry[x][z] >> w & 1):
        return True
    return bool(c.entry[w][y] >> z & 1)


def _body_M(c: _Ctx, t) -> bool:
    x, y, u, v = t
    e = c.entry[x][y]
    if not (e >> u & 1 and e >> v & 1):
        return True
    return c.entry[u][v] & ~e == 0


def _body_MM(c: _Ctx, t) -> bool:
    u, v, x, y = t
    inter = c.entry[u][v] & c.entry[x][y]
    return inter == 0 or inter in c.value_set


def _body_MG(c: _Ctx, t) -> bool:
    x, y = t
    return c.entry[x][y] & ~c.intervals[x][y] == 0


def _body_CG(c: _Ctx, t) -> bool:
    a, x, y, z = t
    ea = c.entry[a]
    if ea[x] & ~ea[y]:
        return True
    chain = ea[x] & ~ea[z] == 0 and ea[z] & ~ea[y] == 0
    return chain == bool(c.entry[x][y] >> z & 1)


def _body_CGp(c: _Ctx, t) -> bool:
    # evaluated on the closure; gated on x lying between a and y there
    a, x, y, z = t
    cc = c.closure
    if not cc.entry[a][y] >> x & 1:
        return True
    left = bool(cc.entry[a][z] >> x & 1 and cc.entry[a][y] >> z & 1)
    return left == bool(cc.entry[x][y] >> z & 1)


def _body_Pa(c: _Ctx, t) -> bool:
    p, a, b, a1, b1 = t
    if not (c.entry[p][a] >> a1 & 1 and c.entry[p][b] >> b1 & 1):
        return True
    return c.entry[a1][b] & c.entry[b1][a] != 0


def _body_C4(c: _Ctx, t) -> bool:
    x, y, z = t
    if not c.entry[x][y] >> z & 1:
        return True
    return c.entry[x][z] & c.entry[z][y] == 1 << z


def _body_MO(c: _Ctx, t) -> bool:
    x, y, z = t
    return c.entry[x][y] & c.entry[y][z] & c.entry[z][x] != 0


def _body_S1(c: _Ctx, t) -> bool:
    x, y, z, w = t
    if c.size[x][y] != 2 or c.size[z][w] != 2:
        return True
    exz = c.entry[x][z]
    if not (c.entry[y][w] >> x & 1 and exz >> y & 1 and exz >> w & 1):
        return True
    return bool(c.entry[y][w] >> z & 1)


def _body_S2(c: _Ctx, t) -> bool:
    x, y, z, w = t
    if c.size[x][y] != 2 or c.size[y][w] != 2:
        return True
    if not c.entry[x][y] >> y & 1:
        return True
    if c.entry[x][z] >> w & 1 or c.entry[y][w] >> z & 1:
        return True
    return bool(c.entry[x][w] >> y & 1)


def _body_A1(c: _Ctx, t) -> bool:
    x, u, v = t
    if c.size[x][u] != 2 or c.size[x][v] != 2:
        return True
    if u == v or c.size[u][v] == 2:
        return True
    others = c.adj[u] & c.adj[v] & ~(1 << x)
    return others.bit_count() == 1


def _body_A2(c: _Ctx, t) -> bool:
    n = c.n if c.n is not None else c.delta()
    return c.delta() == n and c.v == 2 ** n


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


def _body_A2p(c: _Ctx, t) -> bool:
    sizes = _resolve_sizes(c)
    if sizes is None:
        return False
    prod = 1
    for s in sizes:
        prod *= s
    return c.v == prod and c.delta() == sum(s - 1 for s in sizes)


def _body_A3(c: _Ctx, t) -> bool:
    x, y, u, v = t
    s = c.size
    pattern = (
        s[x][u] == 2 and s[x][v] == 2 and s[y][u] == 2 and s[y][v] == 2
        and s[x][y] == 2 and s[u][v] > 2
    )
    return not pattern


def _body_A4(c: _Ctx, t) -> bool:
    x, y, u, v, w, z = t
    s = c.size
    pattern = (
        s[x][u] == 2 and s[x][v] == 2 and s[y][u] == 2 and s[y][v] == 2
        and s[v][w] == 2 and s[y][z] == 2 and s[w][z] == 2 and s[x][w] == 2
        and s[u][v] > 2 and s[u][w] > 2 and s[u][z] > 2 and s[x][y] > 2
        and s[x][z] > 2 and s[v][z] > 2 and s[y][w] > 2
    )
    return not pattern


def _body_AX(c: _Ctx, t) -> bool:
    a, b, cc, d, e, f = t
    s = c.size
    if s[a][b] != 2 or s[cc][d] != 2 or s[e][f] != 2:
        return True
    if not (c.par(a, b, cc, d) and c.par(cc, d, e, f)):
        return True
    return c.par(a, b, e, f)


def _body_AXp(c: _Ctx, t) -> bool:
    a, b, cc, d, e, f = t
    s = c.size
    if s[a][b] != 2 or s[cc][d] != 2 or s[e][f] != 2:
        return True
    ead = c.entry[a][d]
    ebc = c.entry[b][cc]
    ecf = c.entry[cc][f]
    ede = c.entry[d][e]
    if not (ead >> b & 1 and ead >> cc & 1 and ebc >> a & 1 and ebc >> d & 1):
        return True
    if not (ecf >> d & 1 and ecf >> e & 1 and ede >> cc & 1 and ede >> f & 1):
        return True
    eaf = c.entry[a][f]
    ebe = c.entry[b][e]
    return bool(eaf >> b & 1 and eaf >> e & 1 and ebe >> a & 1 and ebe >> f & 1)


def _body_H3(c: _Ctx, t) -> bool:
    x, y, u, v = t
    if u == v or x == y or c.size[x][y] <= 4:
        return True
    euv = c.entry[u][v]
    if euv & ~c.entry[x][y]:
        return True
    if euv == (1 << u) | (1 << v):
        return True
    return {u, v} == {x, y}


AXIOM_BODIES: dict[str, tuple[int, Callable[[_Ctx, tuple], bool]]] = {
    "T1": (2, _body_T1), "T2": (2, _body_T2), "T3": (1, _body_T3),
    "GW3": (4, _body_GW3), "GW4": (3, _body_GW4),
    "B1": (3, _body_B1), "B2": (3, _body_B2), "B3": (4, _body_B3),
    "M": (4, _body_M), "MM": (4, _body_MM), "MG": (2, _body_MG),
    "CG": (4, _body_CG), "CGp": (4, _body_CGp),
    "Pa": (5, _body_Pa), "C4": (3, _body_C4), "MO": (3, _body_MO),
    "S1": (4, _body_S1), "S2": (4, _body_S2),
    "A1": (3, _body_A1), "A2": (0, _body_A2), "A2p": (0, _body_A2p),
    "A3": (4, _body_A3), "A4": (6, _body_A4),
    "AX": (6, _body_AX), "AXp": (6, _body_AXp),
    "H3": (4, _body_H3),
}


# ---------------------------------------------------------------------------
# enumerators: first violating tuple in canonical nested order, or None.
# Loops skip premise-false tuples only, so the first witness matches a full
# scan with the body functions above; the tests verify this agreement.

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
    # the verdict depends only on the two unordered pairs, so scan those and
    # map the earliest failing combination back to its least ordered tuple
    pair_keys = [(i, j) for i in range(c.v) for j in range(i, c.v)]
    values = c.value_set
    best = None
    for (i, j) in pair_keys:
        e1 = c.entry[i][j]
        for (k, l) in pair_keys:
            inter = e1 & c.entry[k][l]
            if inter and inter not in values:
                for cand in ((i, j, k, l), (k, l, i, j)):
                    if best is None or cand < best:
                        best = cand
    return best


def _find_MG(c: _Ctx):
    iv = c.intervals
    for x in range(c.v):
        for y in range(c.v):
            if c.entry[x][y] & ~iv[x][y]:
                return (x, y)
    return None


def _find_CG(c: _Ctx):
    for a in range(c.v):
        ea = c.entry[a]
        for x in range(c.v):
            eax = ea[x]
            for y in range(c.v):
                if eax & ~ea[y]:
                    continue
                eay = ea[y]
                exy = c.entry[x][y]
                for z in range(c.v):
                    eaz = ea[z]
                    chain = eax & ~eaz == 0 and eaz & ~eay == 0
                    if chain != bool(exy >> z & 1):
                        return (a, x, y, z)
    return None


def _find_CGp(c: _Ctx):
    cc = c.closure
    for a in range(cc.v):
        ea = cc.entry[a]
        for x in range(cc.v):
            for y in range(cc.v):
                if not ea[y] >> x & 1:
                    continue
                eay = ea[y]
                exy = cc.entry[x][y]
                for z in range(cc.v):
                    left = bool(ea[z] >> x & 1 and eay >> z & 1)
                    if left != bool(exy >> z & 1):
                        return (a, x, y, z)
    return None


def _find_Pa(c: _Ctx):
    # col[a][z] is the set of b1 whose entry with a contains z, so
    # meets[a][b][a1], the union of col[a] over E(a1, b), is the set of b1
    # with E(a1, b) & E(b1, a) nonempty.  The first failing b1 of a
    # (p, a, b, a1) prefix is the lowest bit of E(p, b) outside it.
    v = c.v
    entry = c.entry
    col = [[0] * v for _ in range(v)]
    for a in range(v):
        cola = col[a]
        for b1 in range(v):
            for z in _bits(entry[b1][a]):
                cola[z] |= 1 << b1
    meets = [[None] * v for _ in range(v)]
    for p in range(v):
        ep = entry[p]
        for a in range(v):
            epa = ep[a]
            if not epa:
                continue
            a1s = list(_bits(epa))
            cola = col[a]
            meets_a = meets[a]
            for b in range(v):
                epb = ep[b]
                if not epb:
                    continue
                row = meets_a[b]
                if row is None:
                    row = meets_a[b] = [0] * v
                    for a1 in range(v):
                        m = 0
                        for z in _bits(entry[a1][b]):
                            m |= cola[z]
                        row[a1] = m
                for a1 in a1s:
                    bad = epb & ~row[a1]
                    if bad:
                        return (p, a, b, a1, (bad & -bad).bit_length() - 1)
    return None


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


def _find_global(body):
    def find(c: _Ctx):
        return None if body(c, ()) else ()
    return find


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


def _iter_ordered_edges(c: _Ctx):
    for a in range(c.v):
        for b in _bits(c.adj[a]):
            yield a, b


def _find_AX(c: _Ctx):
    edges = list(_iter_ordered_edges(c))
    par = c.par
    for a, b in edges:
        for cc, d in edges:
            if not par(a, b, cc, d):
                continue
            for e, f in edges:
                if par(cc, d, e, f) and not par(a, b, e, f):
                    return (a, b, cc, d, e, f)
    return None


def _find_AXp(c: _Ctx):
    edges = list(_iter_ordered_edges(c))
    for a, b in edges:
        for cc, d in edges:
            ead = c.entry[a][d]
            ebc = c.entry[b][cc]
            if not (ead >> b & 1 and ead >> cc & 1 and ebc >> a & 1 and ebc >> d & 1):
                continue
            for e, f in edges:
                ecf = c.entry[cc][f]
                ede = c.entry[d][e]
                if not (ecf >> d & 1 and ecf >> e & 1
                        and ede >> cc & 1 and ede >> f & 1):
                    continue
                eaf = c.entry[a][f]
                ebe = c.entry[b][e]
                if not (eaf >> b & 1 and eaf >> e & 1
                        and ebe >> a & 1 and ebe >> f & 1):
                    return (a, b, cc, d, e, f)
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
    "A1": _find_A1, "A2": _find_global(_body_A2), "A2p": _find_global(_body_A2p),
    "A3": _find_A3, "A4": _find_A4,
    "AX": _find_AX, "AXp": _find_AXp,
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
    if axiom not in AXIOM_BODIES:
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
