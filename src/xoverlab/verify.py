"""Named verification suites re-deriving every advertised exact result.

Each suite recomputes one claim from scratch at desk scale and reports an
exact pass/fail with detail lines; nothing is sampled where enumeration is
affordable, and nothing carries a tolerance.

The crossover kernel builds R_k(x, y) from (k, t) patterns spread onto the
t positions where x and y differ.  ``sizes`` alone holds it to the literal
definition, in ``_kernel_failures``: for every binary n <= max_n, every
difference mask, one seeded x per mask and every k <= max_k,
``rset(k, x, x XOR mask)`` must be x XOR the literal cut enumeration on 0^t
and 1^t, spread onto the mask.  Its default bounds cover those of
``partialcube`` and ``vc``, so the claims those suites, ``closure`` and
``recursion`` decide once per (k, t), on 0^t and 1^t or on the literal set,
hold for the sets the fast path returns.  ``parents`` decides t beyond that
bound, so it compares rset on 0^t and 1^t with the literal set at each
(k, t) itself.

The library's ``closure`` returns the parents' box without recombining.
Only ``closure`` re-derives that box: ``_closure_walk`` recombines members
of rset(k, 0^t, 1^t) from the parents, and must fill the t-bit box.
"""

from __future__ import annotations

import inspect
import json
import os
import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from math import comb, prod
from pathlib import Path

from .axioms import (
    check_axiom,
    convex_sets,
    recognize_hamming,
    recognize_hypercube,
    table_from_closure,
    table_from_interval,
    table_from_rset,
)
from .crossover import (
    closure,
    lex_extreme_path_vertices,
    rset,
    rset_by_cut_enumeration,
    rset_recursive,
    rset_size_formula,
    transit_graph,
)
from .graphs import SimpleGraph, hamming_graph
from .matroid import (
    _check_ground,
    check_face_axioms,
    face_lattice,
    is_uniform,
    om_from_rset,
    tope_graph,
    uniform_tope_check,
)
from .partialcube import (
    cut_sizes,
    degree_profile,
    is_antipodal,
    is_partial_cube,
    is_planar_quadrangulation,
    largest_cube_minor_dim,
    vc_dimension,
)
from .words import DEFAULT_BUDGET, AlphabetSpec, Word, phi


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    details: tuple[str, ...]


def _result(name: str, notes: list[str], failures: list[str],
            checked: int | None = None) -> CheckResult:
    """A suite's outcome; ``checked`` counts the cases its bounds admitted,
    and a suite whose bounds admitted none fails instead of passing."""
    if checked == 0:
        failures = failures + [
            f"FAIL {name}: checked nothing within the requested bounds"
        ]
    return CheckResult(name, not failures, tuple(notes + failures))


def _bspec(n: int) -> AlphabetSpec:
    return AlphabetSpec((2,) * n)


@lru_cache(maxsize=1 << 16)
def _w(i: int, spec: AlphabetSpec) -> Word:
    return Word.from_index(i, spec)


def _deposits(mask: int) -> list[int]:
    """Entry p is pattern p spread onto the set bits of mask, bit j of p on
    the j-th lowest set bit; together the 2**t entries are the geodesic
    interval of 0 and mask."""
    out = [0]
    rest = mask
    while rest:
        low = rest & -rest
        out += [d | low for d in out]
        rest ^= low
    return out


@lru_cache(maxsize=None)
def _literal(k: int, t: int) -> frozenset[int]:
    """Packed indices of rset_by_cut_enumeration(k, 0^t, 1^t); over 2^t a
    word's packed index is its pattern."""
    if t == 0:
        return frozenset({0})
    spec = _bspec(t)
    return rset_by_cut_enumeration(
        k, Word((0,) * t, spec), Word((1,) * t, spec)).indices


def _kernel_failures(max_n: int, max_k: int,
                     rng: random.Random) -> tuple[list[str], int]:
    """Compare rset with the literal cut enumeration on every binary
    difference mask, n <= max_n, k <= max_k, from one seeded x per mask;
    returns the failures and the number of comparisons."""
    failures = []
    checked = 0
    for n in range(1, max_n + 1):
        spec = _bspec(n)
        for mask in range(1 << n):
            xi = rng.randrange(1 << n)
            deposits, t = _deposits(mask), mask.bit_count()
            for k in range(1, max_k + 1):
                checked += 1
                got = rset(k, _w(xi, spec), _w(xi ^ mask, spec)).members.indices
                if got != frozenset(xi ^ deposits[p] for p in _literal(k, t)):
                    failures.append(f"FAIL kernel: n={n} k={k} x={xi:0{n}b} "
                                    f"y={xi ^ mask:0{n}b}")
    return failures, checked


_KERNEL_BACKING = ("rset is checked against the literal sets by "
                   "`verify sizes`, n<=10, k<=6")
_SAMPLES = 10  # random pairs per (alphabet, k) in check_recursion


def check_sizes(max_n: int = 10, max_k: int = 6, seed: int = 0) -> CheckResult:
    """rset is the literal set on every mask; sizes match the closed form."""
    failures, checked = _kernel_failures(max_n, max_k, random.Random(seed))
    for k in range(1, max_k + 1):
        for t in range(max_n + 1):
            size = len(_literal(k, t))
            expect = 2**t if t <= k else 2 * phi(k, t - 1)
            if size != expect or rset_size_formula(k, t) != expect:
                failures.append(f"FAIL size: k={k} t={t} got {size} "
                                f"want {expect}")
    notes = [
        f"rset equals the literal cut enumeration on {checked} "
        f"(n, mask, k), one seeded x per mask, n<={max_n}, k<={max_k}",
        f"literal set sizes equal the closed form and rset_size_formula "
        f"for every t<={max_n}, k<={max_k}",
    ]
    return _result("sizes", notes, failures, checked)


def check_recursion(max_n: int = 16, max_k: int = 4, seed: int = 0) -> CheckResult:
    """The one-point recursion reproduces every recombination set."""
    failures: list[str] = []
    checked = 0
    # both place the (k, t) patterns by one scatter, so 0^t, 1^t decide them
    for t in range(max_n + 1):
        spec = _bspec(max(t, 1))
        x, y = _w(0, spec), _w((1 << t) - 1, spec)
        for k in range(2, max_k + 1):
            checked += 1
            if rset_recursive(k, x, y).members != rset(k, x, y).members:
                failures.append(f"FAIL recursion: k={k} t={t}")
    rng = random.Random(seed)
    mixed = [AlphabetSpec((3, 3, 3)), AlphabetSpec((2, 3, 4))]
    for spec in [_bspec(n) for n in range(2, max_n + 1)] + mixed:
        for k in range(2, max_k + 1):
            for _ in range(_SAMPLES):
                x, y = (_w(rng.randrange(spec.size), spec) for _ in range(2))
                if rset_recursive(k, x, y).members != rset(k, x, y).members:
                    failures.append(
                        f"FAIL recursion sample: spec={spec} k={k} x={x} y={y}"
                    )
    notes = [
        f"rset_recursive equals rset on 0^t, 1^t for {checked} (k, t), "
        f"t<={max_n}, 2<=k<={max_k} (the recursion is defined from k=2 up)",
        _KERNEL_BACKING,
        f"plus {_SAMPLES} random direct pairs per (n, k)",
        f"plus {len(mixed) * max(max_k - 1, 0) * _SAMPLES} random pairs "
        f"over 3,3,3 and 2,3,4, {_SAMPLES} per (alphabet, k)",
    ]
    return _result("recursion", notes, failures, checked)


_CONVEXITY_SPACES = tuple(
    [_bspec(n) for n in range(1, 6)]
    + [AlphabetSpec(sizes) for sizes in ((2, 3), (3, 3), (2, 3, 4), (3, 3, 3))]
)


def _closure_walk(patterns: frozenset[int], t: int) -> set[int]:
    """Masks that recombination reaches from the parents 0 and 2**t - 1,
    whose offspring are ``patterns``: each member u whose antipode
    u ^ (2**t - 1) is a member adds their offspring u ^ patterns, until no
    offspring is new or the box, which holds every offspring, is full."""
    full = (1 << t) - 1
    members, stack = {0, full}, [0]
    while stack and len(members) <= full:
        u = stack.pop()
        if full ^ u in members:
            fresh = set(map(u.__xor__, patterns)) - members
            members |= fresh
            stack += fresh
    return members


def check_closure(max_n: int = 8, max_k: int = 3) -> CheckResult:
    """Closures equal geodesic intervals; sets equal intervals iff d <= k+1;
    R_k and the interval function generate the same convex sets."""
    failures: list[str] = []
    checked = 0
    for t in range(1, max_n + 1):
        spec = _bspec(t)
        x, y = _w(0, spec), _w((1 << t) - 1, spec)
        box = frozenset(range(1 << t))
        for k in range(1, max_k + 1):
            checked += 1
            patterns = rset(k, x, y).members.indices
            if (_closure_walk(patterns, t) != box
                    or closure(k, x, y).indices != box):
                failures.append(f"FAIL closure: k={k} t={t}")
            if (patterns == box) != (t <= k + 1):
                failures.append(f"FAIL interval cutoff: k={k} t={t}")
    notes = [
        f"closure(k, 0^t, 1^t) is the t-bit box, t<={max_n}, k<={max_k}: R_k "
        "and the interval function have the same convex sets over every "
        f"alphabet with at most {max_n} positions",
        "R_k(0^t, 1^t) is the whole box exactly when t<=k+1",
    ]
    spaces = [spec for spec in _CONVEXITY_SPACES if spec.size <= 2 ** max_n]
    for spec in spaces:
        family = tuple(convex_sets(table_from_interval(hamming_graph(spec))))
        if len(family) != prod((1 << a) - 1 for a in spec.sizes) + 1:
            failures.append(f"FAIL convexity count: {spec} has {len(family)}")
        for k in range(1, max_k + 1):
            checked += 1
            # one set past the family is enough to tell a larger family
            got = islice(convex_sets(table_from_rset(k, spec)), len(family) + 1)
            if tuple(got) != family:
                failures.append(f"FAIL convexity: {spec} k={k}")
    notes += [
        "convexity sweep: R_k and the interval function have the same "
        "prod(2^a - 1) + 1 convex sets on "
        f"{' '.join(f'({spec})' for spec in spaces)} for k<={max_k}, "
        "although R_k != I past distance k+1: Mulder's question has a "
        "negative answer",
        "R_k here allows at most k cuts, and under that reading the convexity "
        "claim also holds at k=1, while the abstract states it for k>1",
    ]
    return _result("closure", notes, failures, checked)


def check_axioms_battery() -> CheckResult:
    """Frozen axiom verdicts for the four-coordinate tables."""
    failures: list[str] = []

    def expect(table, axiom, holds, **kw):
        report = check_axiom(table, axiom, **kw)
        if report.holds != holds:
            failures.append(
                f"FAIL {table.name}: {axiom} expected "
                f"{'holds' if holds else 'fails'}"
            )

    b4 = _bspec(4)
    r1 = table_from_rset(1, b4)
    r2 = table_from_rset(2, b4)
    for ax in ("T1", "T2", "T3", "Pa", "C4", "B1", "S1", "S2", "GW3", "GW4"):
        expect(r1, ax, True)
    for ax in ("B2", "M"):
        expect(r1, ax, False)
    expect(r2, "Pa", True)
    expect(r2, "B2", False)
    c33 = table_from_closure(1, AlphabetSpec((3, 3)))
    expect(c33, "MO", False)
    c24 = table_from_closure(1, b4)
    expect(c24, "MO", True)

    # unique median: the three pairwise intervals meet in one point
    bad_triples = 0
    for u, v, w in product(range(16), repeat=3):
        meet = [z for z in range(16) if (z ^ u) & (z ^ v) == 0
                and (z ^ v) & (z ^ w) == 0 and (z ^ u) & (z ^ w) == 0]
        if meet != [(u & v) | (u & w) | (v & w)]:
            bad_triples += 1
    if bad_triples:
        failures.append(f"FAIL median uniqueness: {bad_triples} triples")
    notes = [
        "one-point sets over 2^4: T1-T3, Pa, C4, B1, S1, S2, GW3, GW4 hold; "
        "B2, M fail",
        "two-point sets over 2^4: Pa holds, B2 fails",
        "closures over 3,3 fail MO; closures over 2^4 satisfy MO",
        "all 4096 triples in 2^4 have the majority word as unique median",
    ]
    return _result("axioms", notes, failures)


def check_hamming(max_n: int = 5) -> CheckResult:
    """Hypercube and Hamming-graph recognition on crossover tables."""
    failures: list[str] = []
    checked = 0
    for n in range(1, max_n + 1):
        spec = _bspec(n)
        for k in (1, 2, 3):
            checked += 1
            if not recognize_hypercube(table_from_rset(k, spec)):
                failures.append(f"FAIL hypercube: rset:{k} over 2^{n}")
    for sizes in ((3, 3), (2, 3)):
        spec = AlphabetSpec(sizes)
        table = table_from_closure(1, spec)
        if not recognize_hamming(table):
            failures.append(f"FAIL hamming: closure:1 over {spec}")
        if not recognize_hamming(table, sizes=sizes):
            failures.append(f"FAIL hamming with sizes: {spec}")
    c6 = SimpleGraph(list(range(6)), [(i, (i + 1) % 6) for i in range(6)])
    t6 = table_from_interval(c6)
    if recognize_hypercube(t6) or recognize_hamming(t6):
        failures.append("FAIL negative control: C_6 accepted")
    notes = [
        f"hypercube recognition passes for rset tables, n<={max_n}, k in 1..3",
        "hamming recognition passes for closure tables over 3,3 and 2,3",
        "the 6-cycle interval table is rejected by both recognizers",
    ]
    return _result("hamming", notes, failures, checked)


def _stabiliser(patterns: frozenset[int]) -> list[int]:
    """The translations d with d XOR patterns = patterns, ascending.  Such
    a d maps min(patterns) onto a member p, so d is p XOR min(patterns):
    only those |patterns| candidates are tried."""
    low = min(patterns)
    return sorted(d for d in (p ^ low for p in patterns)
                  if all(q ^ d in patterns for q in patterns))


def check_parents(max_n: int = 16, max_k: int = 4) -> CheckResult:
    """Parents farther apart than k+1 are the only pair with their set."""
    failures: list[str] = []
    examined = 0
    for k in range(1, max_k + 1):
        for t in range(k + 2, max_n + 1):
            full = (1 << t) - 1
            examined += 1 << t - 1
            literal, spec = _literal(k, t), _bspec(t)
            if rset(k, _w(0, spec), _w(full, spec)).members.indices != literal:
                failures.append(f"FAIL kernel: k={k} t={t} rset(0^t, 1^t) "
                                "differs from the literal set")
            # R_k(u, u XOR full) = u XOR P, so the pairs of u and u XOR d
            # share a set exactly when d fixes P; name each pair once
            shared = {min(d, d ^ full) for d in _stabiliser(literal)}
            failures += [f"FAIL parents: k={k} t={t} pairs {0:0{t}b} and "
                         f"{d:0{t}b} share a set" for d in sorted(shared - {0})]
    notes = [
        "a recombination set contains its parents and lies in their box, so "
        "pairs sharing a set are antipodal pairs of one box, which maps onto "
        "the canonical t-bit box over any alphabet and length",
        f"all {examined} antipodal pairs of the t-bit boxes, k+2<=t<={max_n}, "
        f"k<={max_k}, have distinct sets: the only translations fixing the "
        "literal set R_k(0^t, 1^t) are 0^t and 1^t",
        "rset(0^t, 1^t) equals that literal set at each of these (k, t), so "
        "the claim holds for the sets the kernel returns",
    ]
    return _result("parents", notes, failures, examined)


def _representative_graph(k: int, d: int) -> SimpleGraph:
    spec = _bspec(d)
    return transit_graph(k, _w(0, spec), _w((1 << d) - 1, spec))


def check_partialcube(max_n: int = 7, max_k: int = 6) -> CheckResult:
    """Every recombination-set graph is an antipodal partial cube."""
    failures: list[str] = []
    reps = 0
    for d in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            g = _representative_graph(k, d)
            reps += 1
            emb = is_partial_cube(g)
            if emb is None:
                failures.append(f"FAIL partial cube: k={k} d={d}")
                continue
            anti = is_antipodal(g)
            if anti is None:
                failures.append(f"FAIL antipodal: k={k} d={d}")
                continue
            full = (1 << d) - 1
            if any(g.vertices[j].index != w.index ^ full
                   for w, j in zip(g.vertices, anti)):
                failures.append(f"FAIL antipodal map: k={k} d={d}")
    k23 = SimpleGraph(
        list(range(5)), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    )
    c5 = SimpleGraph(list(range(5)), [(i, (i + 1) % 5) for i in range(5)])
    if is_partial_cube(k23) is not None:
        failures.append("FAIL negative control: K_{2,3} accepted")
    if is_partial_cube(c5) is not None:
        failures.append("FAIL negative control: C_5 accepted")
    notes = [
        f"{reps} (k, distance) representative graphs embed as partial cubes "
        "with the complement antipodal map",
        _KERNEL_BACKING,
        "K_{2,3} and C_5 are rejected",
    ]
    return _result("partialcube", notes, failures, reps)


def check_vc(max_n: int = 7, max_k: int = 6) -> CheckResult:
    """VC dimension is min(k+1, d) and matches the largest cube minor."""
    failures: list[str] = []
    reps = 0
    for d in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            reps += 1
            g = _representative_graph(k, d)
            vc = vc_dimension(list(g.vertices))
            if vc != min(k + 1, d):
                failures.append(f"FAIL vc: k={k} d={d} got {vc} "
                                f"want {min(k + 1, d)}")
            emb = is_partial_cube(g)
            if emb is None or largest_cube_minor_dim(emb) != vc:
                failures.append(f"FAIL cube minor: k={k} d={d}")
    failures += [f"FAIL vc control: weight<={d} words of 2^6" for d in range(4)
                 if vc_dimension([_w(i, _bspec(6)) for i in range(64)
                                  if i.bit_count() <= d]) != d]
    notes = [
        f"vc = min(k+1, d) = largest cube minor on every representative, "
        f"d<={max_n}, k<={max_k}",
        "control without crossover: the words of weight <= d in 2^6 have "
        "vc = d for d<=3",
        _KERNEL_BACKING,
    ]
    return _result("vc", notes, failures, reps)


def check_r2(ts: tuple[int, ...] = (4, 5, 6, 7)) -> CheckResult:
    """Two-point graphs on antipodal pairs: counts, cuts, degrees, faces."""
    failures: list[str] = []
    for t in ts:
        g = _representative_graph(2, t)
        emb = is_partial_cube(g)
        problems = []
        if g.n != t * t - t + 2:
            problems.append(f"vertices {g.n}")
        if g.m != 2 * t * t - 2 * t:
            problems.append(f"edges {g.m}")
        if emb is None or cut_sizes(emb) != (2 * t - 2,) * t:
            problems.append("cut sizes")
        want_degrees = {}
        for deg, cnt in ((t, 2), (4, t * t - 3 * t), (3, 2 * t)):
            if cnt:
                want_degrees[deg] = want_degrees.get(deg, 0) + cnt
        if degree_profile(g) != want_degrees:
            problems.append(f"degrees {degree_profile(g)}")
        quad, faces = is_planar_quadrangulation(g)
        if not quad or faces != t * t - t:
            problems.append(f"quadrangulation ({quad}, {faces})")
        if problems:
            failures.append(f"FAIL r2 t={t}: " + ", ".join(problems))
    notes = [
        f"t in {list(ts)}: t^2-t+2 vertices, 2t^2-2t edges, t cuts of size "
        "2t-2, degree histogram {t: 2, 4: t^2-3t, 3: 2t}, planar "
        "quadrangulation with t^2-t faces",
    ]
    return _result("r2", notes, failures, len(ts))


# (k, n) where R_k's OM less one antipodal pair is refused three ways; at
# k = n - 1, say, every tope set of its size passes the tope count test
_OM_CONTROLS = ((2, 4), (2, 5), (2, 6), (3, 6), (2, 8))


def check_om(max_n: int = 8) -> CheckResult:
    """Tope recognition, face axioms, rank, uniformity, cocircuit counts."""
    failures: list[str] = []
    cases = 0
    mismatch_example = None
    for n in range(2, max_n + 1):
        for k in range(1, n):
            cases += 1
            try:
                om = om_from_rset(k, n)
            except RuntimeError as err:
                failures.append(f"FAIL tope check: k={k} n={n}: {err}")
                continue
            if len(om.topes) != 2 * phi(k, n - 1):
                failures.append(f"FAIL tope count: k={k} n={n}")
            if not check_face_axioms(om.covectors).holds:
                failures.append(f"FAIL face axioms: k={k} n={n}")
            rank = om.rank
            if rank != k + 1 or om.ground_size - rank != n - k - 1:
                failures.append(f"FAIL rank: k={k} n={n} rank={rank}")
            uniform, s = is_uniform(om)
            if not uniform or s != n - k:
                failures.append(f"FAIL uniformity: k={k} n={n}")
            if len(om.cocircuits) != 2 * comb(n, k):
                failures.append(
                    f"FAIL cocircuit count: k={k} n={n} "
                    f"got {len(om.cocircuits)}"
                )
            if 2 * comb(n, k) != 2 * comb(n, k - 1) and mismatch_example is None:
                mismatch_example = (
                    f"n={n} k={k}: enumerated {len(om.cocircuits)}, "
                    f"2*C(n,k-1) gives {2 * comb(n, k - 1)}"
                )
            if k == 2:
                quad, faces = is_planar_quadrangulation(tope_graph(om))
                if not quad or faces != len(om.cocircuits):
                    failures.append(f"FAIL quad count: n={n}")
                if faces != n * n - n:
                    failures.append(f"FAIL quad formula: n={n} faces={faces}")
            if (k, n) in _OM_CONTROLS:
                drop = om.topes[0]
                for x, axiom in ((om.cocircuits[0], "F3"), (drop, "F2")):
                    less = [v for v in om.covectors if v not in (x, -x)]
                    if check_face_axioms(less).axiom != axiom:
                        failures.append(f"FAIL control: k={k} n={n} covectors "
                                        f"less {x} and {-x} do not fail {axiom}")
                if uniform_tope_check(t for t in om.topes if t not in (drop, -drop)):
                    failures.append(f"FAIL control: k={k} n={n} topes less "
                                    f"{drop} and {-drop} pass the tope check")
    lat = face_lattice(om_from_rset(2, 4))
    if lat.level_sizes() != (1, 12, 24, 14, 1):
        failures.append(f"FAIL lattice levels: {lat.level_sizes()}")
    controls = [f"k={k} n={n}" for k, n in _OM_CONTROLS if n <= max_n]
    notes = [
        f"{cases} cases k < n <= {max_n}: tope count 2*phi(k, n-1) with "
        "central symmetry, face axioms hold, rank k+1, corank n-k-1, "
        "uniform with cocircuit support size n-k",
        f"controls at {', '.join(controls) or 'no case'}: the covectors less "
        "one antipodal cocircuit pair fail F3, less one antipodal tope pair "
        "fail F2, and the topes less one antipodal pair fail the tope check",
        "cocircuit count: enumeration gives 2*C(n, k) in every case; the "
        "alternative closed form 2*C(n, k-1) is inconsistent with "
        f"enumeration wherever the two differ ({mismatch_example})",
        "two-point tope graphs are planar quadrangulations with n^2-n "
        "faces, one per cocircuit",
        "the k=2, n=4 face lattice has level sizes (1, 12, 24, 14, 1)",
    ]
    return _result("om", notes, failures, cases)


def check_lexpaths(max_n: int = 6) -> CheckResult:
    """Extreme shortest paths carry exactly the one-point sets, all pairs."""
    failures: list[str] = []
    checked = 0
    for n in range(1, max_n + 1):
        spec = _bspec(n)
        words = [_w(i, spec) for i in range(1 << n)]
        for x in words:
            for y in words:
                checked += 1
                if (lex_extreme_path_vertices(x, y).indices
                        != rset(1, x, y).members.indices):
                    failures.append(f"FAIL lexpaths: n={n} x={x} y={y}")
    notes = [
        f"all {checked} ordered pairs, n<={max_n}: extreme path vertices "
        "equal the one-point recombination set",
    ]
    return _result("lexpaths", notes, failures, checked)


# Reads a JSON list of command lines on stdin and writes their documents,
# as a JSON list of strings, on stdout.
_RENDER_SCRIPT = (
    "import json, sys\n"
    "from xoverlab import cli\n"
    "json.dump([cli.render_command(a) for a in json.load(sys.stdin)], sys.stdout)\n"
)


def _render_fresh(commands: list[list[str]], hash_seed: str) -> list[str]:
    """Documents of the command lines, rendered by a new interpreter with
    the given PYTHONHASHSEED; raises RuntimeError if it fails."""
    # Imported here, not at the top: only this suite starts a process, and
    # every CLI start would pay for the import.
    import subprocess

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    package_root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _RENDER_SCRIPT],
            input=json.dumps(commands), capture_output=True, text=True,
            env=env, timeout=600, check=False,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        raise RuntimeError(str(err)) from err
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(tail)}")
    return json.loads(proc.stdout)


def check_determinism() -> CheckResult:
    """Command invocations emit byte-identical documents, repeated in this
    process and in a new interpreter with a different hash seed."""
    from . import cli

    commands = [
        ["rset", "-k", "2", "-x", "0000", "-y", "1111"],
        ["rset", "-k", "1", "-x", "0", "-y", "1", "--spec", "2"],
        ["rset", "-k", "2", "-x", "00000", "-y", "11111", "--format", "table"],
        ["closure", "-k", "1", "-x", "000", "-y", "111"],
        ["axioms", "--source", "rset:1", "--spec", "2^4", "--check", "Pa"],
        ["axioms", "--source", "closure:1", "--spec", "3,3", "--check", "MO"],
        ["graph", "-k", "2", "-x", "0000", "-y", "1111", "--format", "dot"],
        ["graph", "-k", "1", "-x", "000", "-y", "111"],
        ["om", "-k", "2", "-n", "4"],
        ["om", "-k", "1", "-n", "3", "--format", "table"],
    ]
    failures = []
    firsts = []
    for argv in commands:
        first = cli.render_command(argv)
        second = cli.render_command(argv)
        firsts.append(first)
        if first != second:
            failures.append(f"FAIL determinism: {' '.join(argv)}")
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    try:
        fresh = _render_fresh(commands, hash_seed)
    except RuntimeError as err:
        failures.append(f"FAIL determinism: new interpreter failed: {err}")
    else:
        for argv, first, doc in zip(commands, firsts, fresh):
            if doc != first:
                failures.append(
                    f"FAIL determinism across hash seeds: {' '.join(argv)}"
                )
    notes = [
        f"{len(commands)} command lines rendered twice, byte-identical",
        "the same documents, byte for byte, from a new interpreter with "
        "a different PYTHONHASHSEED",
    ]
    return _result("determinism", notes, failures)


SUITES = {
    "sizes": check_sizes,
    "recursion": check_recursion,
    "closure": check_closure,
    "axioms": check_axioms_battery,
    "hamming": check_hamming,
    "parents": check_parents,
    "partialcube": check_partialcube,
    "vc": check_vc,
    "r2": check_r2,
    "om": check_om,
    "lexpaths": check_lexpaths,
    "determinism": check_determinism,
}


def run_suite(name: str, budget: int = DEFAULT_BUDGET,
              **bounds) -> list[CheckResult]:
    """Run one suite by name, or all of them, each with the bounds it takes.

    A named suite given a bound it does not take, other than ``seed``,
    raises ``ValueError``; ``all`` gives each suite the bounds it takes.  A
    suite's sweeps enumerate binary spaces of up to max_n positions, or of t
    positions for each t in ts, so every selected suite's largest max_n or
    t, requested or default, is checked against the budget before any suite
    runs, and so is ``om``'s max_n against its ground-set limit;
    ``BudgetExceededError`` otherwise.  A t below 3, where r2's degree
    histogram has no meaning, raises ``ValueError`` before any suite runs.
    """
    if name != "all" and name not in SUITES:
        known = ", ".join(list(SUITES) + ["all"])
        raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    calls = []
    for suite, fn in SUITES.items() if name == "all" else [(name, SUITES[name])]:
        accepted = inspect.signature(fn).parameters
        foreign = sorted(bounds.keys() - accepted.keys() - {"seed"})
        if name != "all" and foreign:
            flags = ("--t" if bound == "ts" else "--" + bound.replace("_", "-")
                     for bound in foreign)
            raise ValueError(f"{suite} takes no {', '.join(flags)}")
        kwargs = {k: v for k, v in bounds.items() if k in accepted}
        given = {k: kwargs.get(k, p.default) for k, p in accepted.items()}
        ts = given.get("ts", ())
        if min(ts, default=3) < 3:
            raise ValueError(f"{suite} needs every t >= 3; got t={min(ts)}")
        width = max([given.get("max_n", 0), *ts])
        if suite == "om":
            _check_ground(width)
        if width >= 1:
            _bspec(width).check_budget(budget)
        calls.append((fn, kwargs))
    return [fn(**kwargs) for fn, kwargs in calls]
