"""Axiom checker tests.

The optimized per-axiom witness finders are validated against the literal
axiom bodies below, scanned over every tuple in canonical order on small
carriers.  The battery verdicts on the standard crossover tables are then
frozen exactly: on the n = 4 binary tables the verdict lists and first
witnesses were cross-checked by hand against independent enumeration, and
beyond the reach of brute force (2^5, 3,3 and 2,3,3) the reports of the
costliest finders are frozen as the nested-loop finders gave them.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_graphs import (
    any_graphs, bfs_distances, connected_graphs, seeded_graphs)
from xoverlab import AlphabetSpec, BudgetExceededError, Word
from xoverlab.axioms import (
    AXIOM_IDS,
    DEFAULT_SIX_VAR_LIMIT,
    SIX_VAR_AXIOMS,
    SixVarLimitError,
    TransitTable,
    _resolve_sizes,
    check_all,
    check_axiom,
    convex_sets,
    recognize_hamming,
    recognize_hypercube,
    table_closure,
    table_from_closure,
    table_from_interval,
    table_from_rset,
)
from xoverlab.crossover import closure, rset
from xoverlab.graphs import SimpleGraph, hamming_graph

B2X2 = AlphabetSpec.parse("2^2")
B3 = AlphabetSpec.parse("2^3")
B4 = AlphabetSpec.parse("2^4")
TT = AlphabetSpec.parse("3,3")


def cycle_graph(m):
    return SimpleGraph(list(range(m)), [(i, (i + 1) % m) for i in range(m)])


def texts(witness):
    return tuple(str(w) if isinstance(w, Word) else w for w in witness)


class TestTableBasics:
    def test_totality_required(self):
        with pytest.raises(ValueError, match="every unordered pair"):
            TransitTable([0, 1], {(0, 0): {0}, (1, 1): {1}})

    def test_member_range_checked(self):
        entries = {(0, 0): {0}, (1, 1): {1}, (0, 1): {0, 1, 5}}
        with pytest.raises(ValueError, match="outside carrier"):
            TransitTable([0, 1], entries)

    def test_bad_key(self):
        entries = {(0, 0): {0}, (1, 1): {1}, (1, 0): {0, 1}}
        with pytest.raises(ValueError, match="bad entry key"):
            TransitTable([0, 1], entries)

    def test_diagonal_entries_are_singletons_on_factories(self):
        table = table_from_rset(2, B3)
        for i in range(len(table)):
            assert table.entry_indices(i, i) == {i}

    def test_rset_factory_matches_rset(self):
        table = table_from_rset(1, B3)
        i = table.carrier.index(Word.parse("000", B3))
        j = table.carrier.index(Word.parse("111", B3))
        assert table.size_of(i, j) == 6

    def test_closure_factory_equals_interval_table(self):
        closed = table_from_closure(1, B3)
        cube = table_from_interval(hamming_graph(B3))
        assert closed.carrier == cube.carrier
        v = len(closed)
        for i in range(v):
            for j in range(i, v):
                assert closed.entry_mask(i, j) == cube.entry_mask(i, j)

    def test_interval_table_of_disconnected_graph_has_empty_entries(self):
        g = SimpleGraph([0, 1, 2, 3], [(0, 1), (2, 3)])
        table = table_from_interval(g)
        assert table.entry_indices(0, 2) == frozenset()
        assert table.entry_indices(0, 1) == frozenset({0, 1})

    def test_underlying_graph_edges_are_size_two_pairs(self):
        table = table_from_rset(1, B3)
        g = table.underlying_graph()
        cube = hamming_graph(B3)
        assert set(g.edges) == set(cube.edges)

    def test_names(self):
        assert table_from_rset(1, B2X2).name == "rset:1 on 2,2"
        assert table_from_closure(2, TT).name == "closure:2 on 3,3"
        assert table_from_interval(cycle_graph(4)).name == "interval"
        t = table_from_rset(1, B2X2)
        assert table_closure(t).name == "closure of rset:1 on 2,2"
        assert t.renamed("foo").name == "foo"


# ---------------------------------------------------------------------------
# The literal oracle: each axiom body is a total boolean function of one
# variable tuple, written straight from the axiom's statement.  brute_force
# scans them over every tuple in canonical order and witness_refails
# re-evaluates them on reported witnesses; the library's finders must agree.

def par(c: TransitTable, u: int, v: int, x: int, y: int) -> bool:
    """Edge-parallelism witness pattern: v,x between u,y and u,y between v,x."""
    euy = c._entry[u][y]
    evx = c._entry[v][x]
    return bool(
        euy >> v & 1 and euy >> x & 1 and evx >> u & 1 and evx >> y & 1
    )


def _body_T1(c: TransitTable, t) -> bool:
    x, y = t
    e = c._entry[x][y]
    return bool(e >> x & 1 and e >> y & 1)


def _body_T2(c: TransitTable, t) -> bool:
    x, y = t
    return c._entry[x][y] == c._entry[y][x]


def _body_T3(c: TransitTable, t) -> bool:
    (x,) = t
    return c._entry[x][x] == 1 << x


def _body_GW4(c: TransitTable, t) -> bool:
    x, y, z = t
    if not c._entry[x][y] >> z & 1:
        return True
    return c._size[x][z] <= c._size[x][y]


def _body_GW3(c: TransitTable, t) -> bool:
    x, y, u, v = t
    e = c._entry[x][y]
    if not (e >> u & 1 and e >> v & 1):
        return True
    return c._size[u][v] <= c._size[x][y]


def _body_B1(c: TransitTable, t) -> bool:
    x, y, z = t
    if not (c._entry[x][y] >> z & 1 and z != y):
        return True
    return not c._entry[x][z] >> y & 1


def _body_B2(c: TransitTable, t) -> bool:
    x, y, z = t
    if not c._entry[x][y] >> z & 1:
        return True
    return c._entry[x][z] & ~c._entry[x][y] == 0


def _body_B3(c: TransitTable, t) -> bool:
    x, y, z, w = t
    if not (c._entry[x][y] >> z & 1 and c._entry[x][z] >> w & 1):
        return True
    return bool(c._entry[w][y] >> z & 1)


def _body_M(c: TransitTable, t) -> bool:
    x, y, u, v = t
    e = c._entry[x][y]
    if not (e >> u & 1 and e >> v & 1):
        return True
    return c._entry[u][v] & ~e == 0


def _body_MM(c: TransitTable, t) -> bool:
    u, v, x, y = t
    inter = c._entry[u][v] & c._entry[x][y]
    return inter == 0 or inter in c._value_set


def _body_MG(c: TransitTable, t) -> bool:
    x, y = t
    return c._entry[x][y] & ~c._intervals[x][y] == 0


def _body_CG(c: TransitTable, t) -> bool:
    a, x, y, z = t
    ea = c._entry[a]
    if ea[x] & ~ea[y]:
        return True
    chain = ea[x] & ~ea[z] == 0 and ea[z] & ~ea[y] == 0
    return chain == bool(c._entry[x][y] >> z & 1)


def _body_CGp(c: TransitTable, t) -> bool:
    # evaluated on the closure; gated on x lying between a and y there
    a, x, y, z = t
    cc = c._closure
    if not cc._entry[a][y] >> x & 1:
        return True
    left = bool(cc._entry[a][z] >> x & 1 and cc._entry[a][y] >> z & 1)
    return left == bool(cc._entry[x][y] >> z & 1)


def _body_Pa(c: TransitTable, t) -> bool:
    p, a, b, a1, b1 = t
    if not (c._entry[p][a] >> a1 & 1 and c._entry[p][b] >> b1 & 1):
        return True
    return c._entry[a1][b] & c._entry[b1][a] != 0


def _body_C4(c: TransitTable, t) -> bool:
    x, y, z = t
    if not c._entry[x][y] >> z & 1:
        return True
    return c._entry[x][z] & c._entry[z][y] == 1 << z


def _body_MO(c: TransitTable, t) -> bool:
    x, y, z = t
    return c._entry[x][y] & c._entry[y][z] & c._entry[z][x] != 0


def _body_S1(c: TransitTable, t) -> bool:
    x, y, z, w = t
    if c._size[x][y] != 2 or c._size[z][w] != 2:
        return True
    exz = c._entry[x][z]
    if not (c._entry[y][w] >> x & 1 and exz >> y & 1 and exz >> w & 1):
        return True
    return bool(c._entry[y][w] >> z & 1)


def _body_S2(c: TransitTable, t) -> bool:
    x, y, z, w = t
    if c._size[x][y] != 2 or c._size[y][w] != 2:
        return True
    if not c._entry[x][y] >> y & 1:
        return True
    if c._entry[x][z] >> w & 1 or c._entry[y][w] >> z & 1:
        return True
    return bool(c._entry[x][w] >> y & 1)


def _body_A1(c: TransitTable, t) -> bool:
    x, u, v = t
    if c._size[x][u] != 2 or c._size[x][v] != 2:
        return True
    if u == v or c._size[u][v] == 2:
        return True
    others = c._adj[u] & c._adj[v] & ~(1 << x)
    return others.bit_count() == 1


def _body_A2(c: TransitTable, t) -> bool:
    return len(c) == 2 ** c._delta


def _body_A2p(c: TransitTable, t) -> bool:
    sizes = _resolve_sizes(c, None, None, None)
    if sizes is None:
        return False
    prod = 1
    for s in sizes:
        prod *= s
    return len(c) == prod and c._delta == sum(s - 1 for s in sizes)


def _body_A3(c: TransitTable, t) -> bool:
    x, y, u, v = t
    s = c._size
    pattern = (
        s[x][u] == 2 and s[x][v] == 2 and s[y][u] == 2 and s[y][v] == 2
        and s[x][y] == 2 and s[u][v] > 2
    )
    return not pattern


def _body_A4(c: TransitTable, t) -> bool:
    x, y, u, v, w, z = t
    s = c._size
    pattern = (
        s[x][u] == 2 and s[x][v] == 2 and s[y][u] == 2 and s[y][v] == 2
        and s[v][w] == 2 and s[y][z] == 2 and s[w][z] == 2 and s[x][w] == 2
        and s[u][v] > 2 and s[u][w] > 2 and s[u][z] > 2 and s[x][y] > 2
        and s[x][z] > 2 and s[v][z] > 2 and s[y][w] > 2
    )
    return not pattern


def _body_AX(c: TransitTable, t) -> bool:
    a, b, cc, d, e, f = t
    s = c._size
    if s[a][b] != 2 or s[cc][d] != 2 or s[e][f] != 2:
        return True
    if not (par(c, a, b, cc, d) and par(c, cc, d, e, f)):
        return True
    return par(c, a, b, e, f)


def _body_AXp(c: TransitTable, t) -> bool:
    a, b, cc, d, e, f = t
    s = c._size
    if s[a][b] != 2 or s[cc][d] != 2 or s[e][f] != 2:
        return True
    ead = c._entry[a][d]
    ebc = c._entry[b][cc]
    ecf = c._entry[cc][f]
    ede = c._entry[d][e]
    if not (ead >> b & 1 and ead >> cc & 1 and ebc >> a & 1 and ebc >> d & 1):
        return True
    if not (ecf >> d & 1 and ecf >> e & 1 and ede >> cc & 1 and ede >> f & 1):
        return True
    eaf = c._entry[a][f]
    ebe = c._entry[b][e]
    return bool(eaf >> b & 1 and eaf >> e & 1 and ebe >> a & 1 and ebe >> f & 1)


def _body_H3(c: TransitTable, t) -> bool:
    x, y, u, v = t
    if u == v or x == y or c._size[x][y] <= 4:
        return True
    euv = c._entry[u][v]
    if euv & ~c._entry[x][y]:
        return True
    if euv == (1 << u) | (1 << v):
        return True
    return {u, v} == {x, y}


AXIOM_BODIES = {
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


def brute_force(table, axiom):
    """First witness by unpruned lexicographic scan of the full prefix."""
    arity, body = AXIOM_BODIES[axiom]
    if axiom == "CGp":
        table = table_closure(table)
    for tup in itertools.product(range(len(table.carrier)), repeat=arity):
        if not body(table, tup):
            return tup
    return None


def random_table(rng, v):
    """Arbitrary symmetric total table, no transit axioms guaranteed."""
    entries = {}
    for i in range(v):
        for j in range(i, v):
            if i == j and rng.random() < 0.7:
                entries[(i, j)] = {i}
            else:
                base = {i, j} if rng.random() < 0.8 else set()
                extra = {m for m in range(v) if rng.random() < 0.3}
                entries[(i, j)] = base | extra
    return TransitTable(list(range(v)), entries, name="random")


class TestFinderSoundness:
    """Optimized finders must agree with the plain reference evaluator."""

    STRUCTURED = [
        lambda: table_from_rset(1, B2X2),
        lambda: table_from_rset(2, B2X2),
        lambda: table_from_closure(1, AlphabetSpec.parse("2,3")),
        lambda: table_from_interval(cycle_graph(5)),
        lambda: table_from_interval(cycle_graph(6)),
        lambda: table_from_interval(
            SimpleGraph(list(range(5)), [(0, 1), (0, 2), (0, 3), (0, 4)])
        ),
    ]

    @pytest.mark.parametrize("axiom", sorted(AXIOM_IDS))
    def test_structured_tables(self, axiom):
        for build in self.STRUCTURED:
            table = build()
            expect = brute_force(table, axiom)
            got = check_axiom(table, axiom)
            if expect is None:
                assert got.holds, (table.name, axiom)
            else:
                assert not got.holds, (table.name, axiom)
                expect_elems = tuple(table.carrier[i] for i in expect)
                assert got.witness == expect_elems, (table.name, axiom)

    @pytest.mark.parametrize("axiom", sorted(AXIOM_IDS))
    def test_random_tables(self, axiom):
        rng = random.Random(20240817)
        for trial in range(6):
            v = rng.randint(3, 5)
            table = random_table(rng, v)
            expect = brute_force(table, axiom)
            got = check_axiom(table, axiom)
            if expect is None:
                assert got.holds, (trial, axiom)
            else:
                assert not got.holds, (trial, axiom)
                assert got.witness == tuple(table.carrier[i] for i in expect)

    # axiom: (largest carrier, least holding count, least failing count) over
    # 200 random tables; the six-variable axioms stop at v = 5 so that the
    # brute-force scan stays small.
    SWEEPS = {
        "AX": (5, 140, 30),
        "AXp": (5, 140, 30),
        "CG": (6, 25, 140),
        "CGp": (6, 40, 130),
        "MM": (6, 80, 90),
        "Pa": (6, 20, 100),
    }

    @pytest.mark.parametrize("axiom", sorted(SWEEPS))
    def test_row_finders_on_many_random_tables(self, axiom):
        vmax, min_holds, min_fails = self.SWEEPS[axiom]
        rng = random.Random(20261018)
        verdicts = []
        for trial in range(200):
            table = random_table(rng, rng.randint(2, vmax))
            expect = brute_force(table, axiom)
            got = check_axiom(table, axiom)
            assert got.holds == (expect is None), trial
            if expect is not None:
                assert got.witness == tuple(table.carrier[i] for i in expect), trial
            verdicts.append(got.holds)
        assert verdicts.count(True) >= min_holds
        assert verdicts.count(False) >= min_fails

    def test_ax_and_axp_are_one_predicate(self):
        rng = random.Random(20261018)
        tables = [build() for build in self.STRUCTURED]
        tables += [random_table(rng, rng.randint(2, 5)) for _ in range(200)]
        rng = random.Random(20240817)
        tables += [random_table(rng, rng.randint(3, 5)) for _ in range(6)]
        fails = 0
        for table in tables:
            ax = check_axiom(table, "AX")
            axp = check_axiom(table, "AXp")
            assert (ax.holds, ax.witness) == (axp.holds, axp.witness), table.name
            fails += not ax.holds
        assert fails >= 30

    def test_global_axioms_have_empty_witness_when_failing(self):
        table = table_from_interval(cycle_graph(6))
        rep = check_axiom(table, "A2")
        assert not rep.holds and rep.witness == ()


def witness_refails(table, report):
    """Re-evaluate the axiom body on the reported witness."""
    if report.axiom == "CGp":
        table = table_closure(table)
    arity, body = AXIOM_BODIES[report.axiom]
    if arity == 0:
        return not body(table, ())
    lookup = {w: i for i, w in enumerate(table.carrier)}
    tup = tuple(lookup[w] for w in report.witness)
    return not body(table, tup)


class TestBattery:
    """Frozen verdicts on the n = 4 binary tables."""

    def test_rset1_verdicts(self):
        reports = {r.axiom: r for r in check_all(table_from_rset(1, B4))}
        holds = {a for a, r in reports.items() if r.holds}
        assert holds == {
            "A1", "A2", "A2p", "A3", "A4", "B1", "B3", "C4", "CGp",
            "GW3", "GW4", "H3", "MG", "Pa", "S1", "S2", "T1", "T2", "T3",
        }
        assert texts(reports["B2"].witness) == ("0000", "0111", "0011")
        assert texts(reports["M"].witness) == ("0000", "0111", "0000", "0011")
        assert texts(reports["MM"].witness) == ("0000", "0011", "0000", "0111")
        assert texts(reports["MO"].witness) == ("0000", "0010", "0101")
        assert texts(reports["CG"].witness) == ("0000", "0000", "0111", "0011")
        assert texts(reports["AX"].witness) == (
            "0000", "0010", "0001", "0011", "0101", "0111",
        )
        for r in reports.values():
            if not r.holds:
                assert witness_refails(table_from_rset(1, B4), r), r.axiom

    def test_rset2_verdicts(self):
        table = table_from_rset(2, B4)
        reports = {r.axiom: r for r in check_all(table)}
        fails = {a for a, r in reports.items() if not r.holds}
        assert fails == {"B2", "CG", "H3", "M", "MM", "MO"}
        assert reports["Pa"].holds
        b2 = reports["B2"]
        assert texts(b2.witness) == ("0000", "1111", "0111")
        # the first B2 counterexample sits at maximal distance
        from xoverlab import hamming_distance

        assert hamming_distance(b2.witness[0], b2.witness[1]) == 4
        for r in reports.values():
            if not r.holds:
                assert witness_refails(table, r), r.axiom

    def test_closure1_verdicts(self):
        reports = {r.axiom: r for r in check_all(table_from_closure(1, B4))}
        fails = {a for a, r in reports.items() if not r.holds}
        assert fails == {"H3"}
        assert texts(reports["H3"].witness) == ("0000", "0111", "0000", "0011")

    def test_uniform_crossover_is_monotone(self):
        table = table_from_rset(3, B4)
        assert check_axiom(table, "M").holds
        assert check_axiom(table, "B2").holds

    def test_ternary_closure_fails_mo(self):
        rep = check_axiom(table_from_closure(1, TT), "MO")
        assert not rep.holds
        assert texts(rep.witness) == ("00", "01", "02")

    def test_binary_closure_satisfies_mo(self):
        assert check_axiom(table_from_closure(1, B4), "MO").holds

    def test_interval_tables_satisfy_t_axioms_and_b2(self):
        for g in (cycle_graph(6), hamming_graph(TT), cycle_graph(5)):
            table = table_from_interval(g)
            for axiom in ("T1", "T2", "T3", "B2"):
                assert check_axiom(table, axiom).holds, (g.vertex_count, axiom)

    def test_interval_tables_satisfy_mm(self):
        assert check_axiom(table_from_interval(hamming_graph(TT)), "MM").holds
        assert check_axiom(table_from_interval(hamming_graph(B4)), "MM").holds


def table_of(source, spec):
    kind, _, k = source.partition(":")
    if kind == "rset":
        return table_from_rset(int(k), spec)
    if kind == "closure":
        return table_from_closure(int(k), spec)
    return table_from_interval(hamming_graph(spec))


class TestBatteryBeyondBruteForce:
    """Frozen reports of the row finders on the larger catalog tables.

    Recorded with the nested-loop finders that scanned every variable
    directly; every axiom not listed for a table holds on it.
    """

    AXIOMS = ("AX", "AXp", "CG", "CGp", "MM", "Pa")
    FAILS = {
        ("rset:1", "2^5"): {
            "AX": "00000 00010 00001 00011 00101 00111",
            "AXp": "00000 00010 00001 00011 00101 00111",
            "CG": "00000 00000 00111 00011",
            "MM": "00000 00011 00000 00111",
        },
        ("rset:2", "2^5"): {
            "CG": "00000 00000 01111 00111",
            "MM": "00000 00011 00100 01011",
        },
        ("rset:1", "2,3,3"): {
            "AX": "000 010 001 011 101 111",
            "AXp": "000 010 001 011 101 111",
            "CG": "000 000 111 011",
            "MM": "000 011 000 111",
        },
    }

    @pytest.mark.parametrize("spec", ["2^5", "3,3", "2,3,3"])
    @pytest.mark.parametrize(
        "source", ["rset:1", "rset:2", "closure:1", "closure:2", "interval"]
    )
    def test_frozen_reports(self, source, spec):
        table = table_of(source, AlphabetSpec.parse(spec))
        fails = self.FAILS.get((source, spec), {})
        for axiom in self.AXIOMS:
            rep = check_axiom(table, axiom)
            if axiom in fails:
                assert not rep.holds, axiom
                assert " ".join(texts(rep.witness)) == fails[axiom], axiom
                assert witness_refails(table, rep), axiom
            else:
                assert rep.holds, axiom


def validated_copy(table, entry_of):
    """The same table rebuilt through the validating public constructor."""
    v = len(table)
    entries = {(i, j): entry_of(i, j) for i in range(v) for j in range(i, v)}
    return TransitTable(table.carrier, entries, table.name)


def literal_interval(graph):
    """Geodesic intervals straight from BFS distances, per member."""
    dist = bfs_distances(graph)

    def entry_of(i, j):
        d = dist[i][j]
        return [] if d < 0 else [
            z for z in range(graph.n)
            if dist[i][z] >= 0 and dist[z][j] >= 0 and dist[i][z] + dist[z][j] == d
        ]

    return entry_of


class TestTableRows:
    """Tables built on trusted mask rows, and the rows they keep."""

    def assert_same_table(self, got, want):
        assert got.carrier == want.carrier and got.name == want.name
        v = len(want)
        for i in range(v):
            for j in range(v):
                assert got.entry_mask(i, j) == want.entry_mask(i, j), (i, j)
                assert got.size_of(i, j) == want.size_of(i, j), (i, j)

    @pytest.mark.parametrize("spec", ["2^4", "3,3", "2,3,3"])
    @pytest.mark.parametrize(
        "source", ["rset:1", "rset:2", "closure:1", "closure:2", "interval"]
    )
    def test_trusted_rows_equal_validated_tables(self, source, spec):
        spec = AlphabetSpec.parse(spec)
        table = table_of(source, spec)
        words = table.carrier
        kind, _, k = source.partition(":")
        if kind == "rset":
            def entry_of(i, j):
                return [w.index for w in rset(int(k), words[i], words[j]).members]
        elif kind == "closure":
            def entry_of(i, j):
                return [w.index for w in closure(int(k), words[i], words[j])]
        else:
            entry_of = literal_interval(hamming_graph(spec))
        self.assert_same_table(table, validated_copy(table, entry_of))
        closed = table_closure(table)
        self.assert_same_table(closed, validated_copy(closed, closed.entry_indices))
        renamed = table.renamed("other")
        self.assert_same_table(renamed, validated_copy(renamed, table.entry_indices))

    def test_interval_tables_equal_literal_intervals(self):
        graphs = [cycle_graph(m) for m in (3, 4, 5, 6)] + [
            SimpleGraph([0], []),
            SimpleGraph([0, 1, 2, 3, 4], [(0, 1), (2, 3), (3, 4)]),
            SimpleGraph(list(range(5)), [(0, 1), (0, 2), (0, 3), (0, 4)]),
        ]
        for g in graphs + seeded_graphs():
            table = table_from_interval(g)
            self.assert_same_table(table, validated_copy(table, literal_interval(g)))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(connected_graphs(), any_graphs()))
    def test_interval_tables_of_random_graphs(self, g):
        table = table_from_interval(g)
        self.assert_same_table(table, validated_copy(table, literal_interval(g)))

    def test_catalog_rows_are_built_once(self, monkeypatch):
        import xoverlab.axioms as ax

        calls = {"transpose": 0, "closure": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ax, "_transpose", counted("transpose", ax._transpose))
        monkeypatch.setattr(ax, "table_closure", counted("closure", ax.table_closure))
        table = table_from_rset(1, AlphabetSpec.parse("2^5"))
        check_all(table)
        assert calls["closure"] == 1
        before = dict(calls)
        for axiom in ("Pa", "AX", "CGp"):
            check_axiom(table, axiom)
        assert calls == before


def literal_convex_sets(table):
    """Every carrier subset holding the entry of each pair of its members."""
    v = len(table)
    pairs = [(a, b) for a in range(v) for b in range(a, v)]
    return [s for s in range(1 << v)
            if all(table.entry_mask(a, b) & ~s == 0
                   for a, b in pairs if s >> a & s >> b & 1)]


def mask_texts(table, mask):
    return tuple(str(table.carrier[i]) for i in range(len(table)) if mask >> i & 1)


class TestConvexity:
    """NextClosure over the table's hull against the literal subset filter."""

    def assert_literal(self, table):
        got = tuple(convex_sets(table))
        assert len(set(got)) == len(got)
        assert set(got) == set(literal_convex_sets(table))
        # lectic order: the lowest index where neighbours differ joins the later
        for a, b in zip(got, got[1:]):
            assert (a ^ b) & -(a ^ b) & b

    @pytest.mark.parametrize("spec", ["2", "2^2", "2^3", "3", "2,3", "3,3"])
    @pytest.mark.parametrize(
        "source", ["rset:1", "rset:2", "rset:3", "closure:1", "interval"]
    )
    def test_equal_to_literal_filter(self, source, spec):
        self.assert_literal(table_of(source, AlphabetSpec.parse(spec)))

    def test_equal_to_literal_filter_on_random_tables(self):
        rng = random.Random(5)
        for _ in range(20):
            self.assert_literal(random_table(rng, rng.randint(1, 7)))

    def test_small_space_family(self):
        table = table_from_rset(1, B2X2)
        fam = [mask_texts(table, m) for m in convex_sets(table)]
        # empty set, singletons, edges, and the whole square
        assert () in fam
        assert ("00",) in fam
        assert ("00", "01") in fam
        assert ("00", "01", "10", "11") in fam
        # diagonals close to the whole square, so they do not appear
        assert ("00", "11") not in fam
        # empty set, 4 singletons, 4 edges, the square
        assert len(fam) == 10

    def test_members_closed_under_intersection(self):
        fam = set(convex_sets(table_from_rset(1, AlphabetSpec((2, 3)))))
        for a in fam:
            for b in fam:
                assert a & b in fam

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            convex_sets(table_from_rset(1, AlphabetSpec((2,) * 10), budget=100))

    @pytest.mark.parametrize(
        "spec,count", [("3", 8), ("3,3", 50), ("2,3,4", 316), ("3,3,3", 344)]
    )
    def test_counts_off_the_binary_alphabet(self, spec, count):
        # prod(2^a - 1) + 1 for R_1, R_2 and the interval function alike
        spec = AlphabetSpec.parse(spec)
        for table in (table_from_rset(1, spec), table_from_rset(2, spec),
                      table_from_interval(hamming_graph(spec))):
            assert len(tuple(convex_sets(table))) == count, table.name


class TestReportMechanics:
    def test_determinism(self):
        a = check_all(table_from_rset(2, B4))
        b = check_all(table_from_rset(2, B4))
        assert a == b

    def test_universe_is_carrier_size(self):
        rep = check_axiom(table_from_rset(1, B3), "Pa")
        assert rep.universe == 8

    def test_cgp_reports_closure_function(self):
        rep = check_axiom(table_from_rset(1, B2X2), "CGp")
        assert rep.function == "closure of rset:1 on 2,2"
        plain = check_axiom(table_from_rset(1, B2X2), "T1")
        assert plain.function == "rset:1 on 2,2"

    def test_unknown_axiom_lists_catalog(self):
        with pytest.raises(ValueError, match="T1"):
            check_axiom(table_from_rset(1, B2X2), "B9")

    def test_six_var_guard(self):
        table = table_from_closure(1, B3)
        for axiom in SIX_VAR_AXIOMS:
            with pytest.raises(ValueError, match="six"):
                check_axiom(table, axiom, six_var_limit=4)
            assert check_axiom(table, axiom, six_var_limit=8).holds
        assert len(table) <= DEFAULT_SIX_VAR_LIMIT

    def test_six_var_axioms_run_on_2_7_at_default_limit(self):
        spec = AlphabetSpec.parse("2^7")
        assert spec.size <= DEFAULT_SIX_VAR_LIMIT
        for table, want in (
            (table_from_rset(1, spec),
             ("0000000", "0000010", "0000001", "0000011", "0000101", "0000111")),
            (table_from_closure(1, spec), None),
        ):
            for axiom in SIX_VAR_AXIOMS:
                rep = check_axiom(table, axiom)
                expect = None if axiom == "A4" else want
                assert rep.holds == (expect is None), (table.name, axiom)
                assert rep.witness is None or texts(rep.witness) == expect

    def test_six_var_limit_has_its_own_error(self):
        table = table_from_closure(1, B3)
        assert issubclass(SixVarLimitError, ValueError)
        with pytest.raises(SixVarLimitError, match="AX on a carrier of 8"):
            check_axiom(table, "AX", six_var_limit=7)
        with pytest.raises(SixVarLimitError):
            check_all(table, six_var_limit=7)

    def test_implication_violation_raises_internal_error(self, monkeypatch):
        # no real table can violate M => GW3, so force a fake GW3 failure
        import xoverlab.axioms as ax

        fake = dict(ax._FINDERS)
        fake["GW3"] = lambda table: (0, 0, 0, 0)
        monkeypatch.setattr(ax, "_FINDERS", fake)
        with pytest.raises(RuntimeError, match="internal error"):
            check_all(table_from_rset(3, B4))


class TestRecognizers:
    def test_hypercube_on_rset_tables(self):
        for n in range(1, 5):
            spec = AlphabetSpec.parse(f"2^{n}")
            for k in range(1, n + 1):
                assert recognize_hypercube(table_from_rset(k, spec)), (n, k)

    def test_hypercube_on_closure_table(self):
        assert recognize_hypercube(table_from_closure(1, B4))
        assert recognize_hypercube(table_from_closure(1, B4), n=4)

    def test_hypercube_rejects_wrong_n(self):
        assert not recognize_hypercube(table_from_rset(1, B4), n=3)

    def test_cycle_is_not_a_hypercube(self):
        table = table_from_interval(cycle_graph(6))
        assert not recognize_hypercube(table)
        # |X| = 6 is not a power of two matching the degree
        assert not check_axiom(table, "A2").holds

    def test_hamming_recognition(self):
        table = table_from_interval(hamming_graph(TT))
        assert recognize_hamming(table)
        assert recognize_hamming(table, n=2, a=3)
        assert recognize_hamming(table, sizes=(3, 3))
        mixed = table_from_interval(hamming_graph(AlphabetSpec.parse("2,3")))
        assert recognize_hamming(mixed)
        assert recognize_hamming(mixed, sizes=(2, 3))

    def test_hamming_on_rset_table(self):
        assert recognize_hamming(table_from_rset(1, TT), n=2, a=3)

    def test_hamming_rejects_cycle(self):
        assert not recognize_hamming(table_from_interval(cycle_graph(6)))

    def test_path_is_not_a_hypercube(self):
        g = SimpleGraph([0, 1, 2], [(0, 1), (1, 2)])
        assert not recognize_hypercube(table_from_interval(g))

    def test_disconnected_interval_table_raises(self):
        g = SimpleGraph([0, 1, 2, 3], [(0, 1), (2, 3)])
        table = table_from_interval(g)
        with pytest.raises(ValueError, match="connectivity precondition unmet"):
            recognize_hypercube(table)
        with pytest.raises(ValueError, match="connectivity precondition unmet"):
            recognize_hamming(table)

    def test_disconnected_sparse_table_raises(self):
        entries = {
            (0, 0): {0}, (1, 1): {1}, (2, 2): {2}, (3, 3): {3},
            (0, 1): {0, 1}, (2, 3): {2, 3},
            (0, 2): {1}, (0, 3): set(), (1, 2): set(), (1, 3): set(),
        }
        table = TransitTable([0, 1, 2, 3], entries)
        with pytest.raises(ValueError, match="connectivity precondition unmet"):
            recognize_hypercube(table)


def random_poset_table(rng, n):
    """Interval function of a random partial order, padded to satisfy T1."""
    le = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                le[i][j] = True
    for m in range(n):  # transitive closure
        for i in range(n):
            for j in range(n):
                le[i][j] = le[i][j] or (le[i][m] and le[m][j])
    entries = {}
    for i in range(n):
        for j in range(i, n):
            between = {
                z
                for z in range(n)
                if (le[i][z] and le[z][j]) or (le[j][z] and le[z][i])
            }
            entries[(i, j)] = between | {i, j}
    return TransitTable(list(range(n)), entries, name="poset")


class TestCgImpliesConnected:
    def test_on_random_posets_and_graphs(self):
        rng = random.Random(7)
        tables = [random_poset_table(rng, rng.randint(3, 6)) for _ in range(12)]
        for _ in range(6):
            n = rng.randint(3, 6)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = SimpleGraph(list(range(n)), edges)
            tables.append(table_from_interval(g))
        tables.append(table_from_rset(1, B3))
        tables.append(table_from_closure(2, B3))
        seen_cg = 0
        for table in tables:
            if check_axiom(table, "CG").holds:
                seen_cg += 1
                from xoverlab.graphs import is_connected

                assert is_connected(table.underlying_graph()), table.name
        assert seen_cg >= 1  # the sweep must actually exercise the implication
