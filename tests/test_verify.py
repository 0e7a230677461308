"""Verification suites at reduced bounds; full bounds live in the acceptance tests."""

import inspect
import itertools
import json

import pytest

from xoverlab import axioms, cli, verify, words
from xoverlab.axioms import TransitTable
from xoverlab.matroid import FaceAxiomReport
from xoverlab.verify import CheckResult, run_suite


REDUCED = [
    ("sizes", {"max_n": 5, "max_k": 3}),
    ("recursion", {"max_n": 5, "max_k": 3}),
    ("closure", {"max_n": 5, "max_k": 2}),
    ("axioms", {}),
    ("hamming", {"max_n": 3}),
    ("parents", {"max_n": 4, "max_k": 2}),
    ("partialcube", {"max_n": 4, "max_k": 3}),
    ("vc", {"max_n": 4, "max_k": 3}),
    ("r2", {"ts": (4,)}),
    ("om", {"max_n": 5}),
    ("lexpaths", {"max_n": 4}),
    ("determinism", {}),
]


@pytest.mark.parametrize("name,kwargs", REDUCED, ids=[r[0] for r in REDUCED])
def test_suite_passes_at_reduced_bounds(name, kwargs):
    result = verify.SUITES[name](**kwargs)
    assert isinstance(result, CheckResult)
    assert result.name == name
    assert result.passed, "\n".join(result.details)
    assert result.details


BOUNDED = [
    ("sizes", {"max_n": 0}),
    ("sizes", {"max_k": 0, "max_n": 3}),
    ("recursion", {"max_k": 1, "max_n": 3}),
    ("closure", {"max_n": 0}),
    ("closure", {"max_n": -1}),
    ("hamming", {"max_n": 0}),
    ("parents", {"max_n": 2, "max_k": 1}),
    ("partialcube", {"max_n": 0}),
    ("vc", {"max_k": 0, "max_n": 3}),
    ("r2", {"ts": ()}),
    ("om", {"max_n": 1}),
    ("lexpaths", {"max_n": 0}),
]


@pytest.mark.parametrize("name,kwargs", BOUNDED,
                         ids=[f"{n}-{'-'.join(map(str, k.values()))}"
                              for n, k in BOUNDED])
def test_suite_that_checks_nothing_fails(name, kwargs):
    result = verify.SUITES[name](**kwargs)
    assert not result.passed
    assert result.details[-1] == (
        f"FAIL {name}: checked nothing within the requested bounds")


class TestClosureConvexity:
    def test_note_names_every_space(self):
        result = verify.check_closure(max_n=8, max_k=1)
        assert result.passed, "\n".join(result.details)
        assert result.details[2] == (
            "convexity sweep: R_k and the interval function have the same "
            "prod(2^a - 1) + 1 convex sets on (2) (2,2) (2,2,2) (2,2,2,2) "
            "(2,2,2,2,2) (2,3) (3,3) (2,3,4) (3,3,3) for k<=1, although "
            "R_k != I past distance k+1: Mulder's question has a negative "
            "answer")

    def test_table_with_every_subset_convex_fails(self, monkeypatch):
        def endpoints_only(k, spec):
            v = spec.size
            entries = {(i, j): {i, j} for i in range(v) for j in range(i, v)}
            return TransitTable(tuple(spec.iter_words()), entries)

        monkeypatch.setattr(verify, "table_from_rset", endpoints_only)
        # default bounds: every subset of 2^5 would be 2^32 sets, but the
        # comparison stops one set past the interval family
        result = verify.check_closure()
        assert not result.passed
        # on the 2-word space every subset is an interval-convex set too
        assert [line for line in result.details if line.startswith("FAIL")] == [
            f"FAIL convexity: {spec} k={k}"
            for spec in ("2,2", "2,2,2", "2,2,2,2", "2,2,2,2,2",
                         "2,3", "3,3", "2,3,4", "3,3,3")
            for k in (1, 2, 3)
        ]


class TestDeterminism:
    def test_new_interpreter_renders_the_same_bytes(self):
        from xoverlab import cli

        argv = [["rset", "-k", "2", "-x", "0000", "-y", "1111"],
                ["axioms", "--source", "closure:1", "--spec", "3,3"]]
        assert verify._render_fresh(argv, "7") == [
            cli.render_command(a) for a in argv]

    def test_hash_seed_differs_from_this_process(self, monkeypatch):
        seeds = []

        def fake(commands, hash_seed):
            from xoverlab import cli
            seeds.append(hash_seed)
            return [cli.render_command(a) for a in commands]

        monkeypatch.setattr(verify, "_render_fresh", fake)
        for current in ("1", "0", "random"):
            monkeypatch.setenv("PYTHONHASHSEED", current)
            assert verify.check_determinism().passed
        monkeypatch.delenv("PYTHONHASHSEED")
        assert verify.check_determinism().passed
        assert seeds == ["2", "1", "1", "1"]

    def test_differing_document_fails(self, monkeypatch):
        def fake(commands, hash_seed):
            from xoverlab import cli
            docs = [cli.render_command(a) for a in commands]
            docs[3] += " "
            return docs

        monkeypatch.setattr(verify, "_render_fresh", fake)
        result = verify.check_determinism()
        assert not result.passed
        assert result.details[-1] == (
            "FAIL determinism across hash seeds: "
            "closure -k 1 -x 000 -y 111")

    def test_failing_interpreter_fails(self, monkeypatch):
        def fake(commands, hash_seed):
            raise RuntimeError("exit 1: boom")

        monkeypatch.setattr(verify, "_render_fresh", fake)
        result = verify.check_determinism()
        assert not result.passed
        assert "new interpreter failed: exit 1: boom" in result.details[-1]


def test_registry_names():
    assert list(verify.SUITES) == [
        "sizes", "recursion", "closure", "axioms", "hamming", "parents",
        "partialcube", "vc", "r2", "om", "lexpaths", "determinism",
    ]


def test_run_suite_dispatch():
    (result,) = run_suite("lexpaths", max_n=3)
    assert result.name == "lexpaths" and result.passed


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("frobnicate")


def test_om_flags_wrong_closed_form():
    result = verify.check_om(max_n=4)
    flagged = [line for line in result.details if "inconsistent" in line]
    assert flagged
    assert "2*C(n, k-1)" in flagged[0]
    assert "enumeration" in flagged[0]


class TestPlantedFinderFaults:
    """A finder that reports a witness where its axiom holds, or none where
    it fails, makes its suite exit 1 with the suite's FAIL lines."""

    @staticmethod
    def fail_lines(argv, capsys):
        assert cli.main(argv) == 1
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert not result["passed"]
        return [line for line in result["details"] if line.startswith("FAIL")]

    def test_false_witness_fails_axioms(self, monkeypatch, capsys):
        monkeypatch.setitem(axioms._FINDERS, "Pa", lambda t: (0, 0, 0, 0, 0))
        assert self.fail_lines(["verify", "axioms"], capsys) == [
            "FAIL rset:1 on 2,2,2,2: Pa expected holds",
            "FAIL rset:2 on 2,2,2,2: Pa expected holds",
        ]

    def test_missed_witness_fails_axioms(self, monkeypatch, capsys):
        monkeypatch.setitem(axioms._FINDERS, "MO", lambda t: None)
        assert self.fail_lines(["verify", "axioms"], capsys) == [
            "FAIL closure:1 on 3,3: MO expected fails"]

    def test_false_witness_fails_hamming(self, monkeypatch, capsys):
        monkeypatch.setitem(axioms._FINDERS, "A3", lambda t: (0, 0, 0, 0))
        assert self.fail_lines(["verify", "hamming", "--max-n", "2"], capsys) == [
            "FAIL hamming: closure:1 over 3,3",
            "FAIL hamming with sizes: 3,3",
            "FAIL hamming: closure:1 over 2,3",
            "FAIL hamming with sizes: 2,3",
        ]

    def test_missed_witnesses_fail_hamming(self, monkeypatch, capsys):
        # the 6-cycle fails both A1 and A2; with neither found it passes
        # as a hypercube
        for axiom in ("A1", "A2"):
            monkeypatch.setitem(axioms._FINDERS, axiom, lambda t, *counts: None)
        assert self.fail_lines(["verify", "hamming", "--max-n", "2"], capsys) == [
            "FAIL negative control: C_6 accepted"]


class TestPlantedSuiteFaults:
    """A library call that says yes where the answer is no, or no where it
    is yes, makes the suite that relies on it fail."""

    @staticmethod
    def fail_lines(result):
        assert not result.passed
        return [line for line in result.details if line.startswith("FAIL")]

    def test_partial_cube_accepting_everything_fails_partialcube(self, monkeypatch):
        monkeypatch.setattr(verify, "is_partial_cube", lambda g: ())
        assert self.fail_lines(verify.check_partialcube(max_n=3, max_k=2)) == [
            "FAIL negative control: K_{2,3} accepted",
            "FAIL negative control: C_5 accepted",
        ]

    def test_vc_never_below_one_fails_vc(self, monkeypatch):
        # every representative has dimension at least 1, so only the
        # weight-0 control, a single word, can tell
        real = verify.vc_dimension
        monkeypatch.setattr(verify, "vc_dimension", lambda words: max(1, real(words)))
        assert self.fail_lines(verify.check_vc(max_n=3, max_k=2)) == [
            "FAIL vc control: weight<=0 words of 2^6"]

    def test_no_quadrangulation_fails_r2(self, monkeypatch):
        monkeypatch.setattr(verify, "is_planar_quadrangulation",
                            lambda g: (False, None))
        assert self.fail_lines(verify.check_r2(ts=(4,))) == [
            "FAIL r2 t=4: quadrangulation (False, None)"]

    def test_face_axioms_always_holding_fail_om(self, monkeypatch):
        monkeypatch.setattr(verify, "check_face_axioms",
                            lambda vectors: FaceAxiomReport(True, None, None))
        lines = self.fail_lines(verify.check_om(max_n=5))
        assert [(line.split(" covectors less ")[0], line[-7:]) for line in lines] == [
            (f"FAIL control: k=2 n={n}", f"fail {axiom}")
            for n in (4, 5) for axiom in ("F3", "F2")]

    def test_tope_check_always_passing_fails_om(self, monkeypatch):
        monkeypatch.setattr(verify, "uniform_tope_check", lambda topes: True)
        lines = self.fail_lines(verify.check_om(max_n=6))
        assert [line.split(" topes less ")[0] for line in lines] == [
            f"FAIL control: k={k} n={n}" for k, n in ((2, 4), (2, 5), (2, 6), (3, 6))]
        assert all(line.endswith(" pass the tope check") for line in lines)

    def test_paths_that_never_leave_x_fail_lexpaths(self, monkeypatch):
        real = verify.lex_extreme_path_vertices
        monkeypatch.setattr(verify, "lex_extreme_path_vertices",
                            lambda x, y: real(x, x))
        assert self.fail_lines(verify.check_lexpaths(max_n=2)) == [
            f"FAIL lexpaths: n={n} x={x} y={y}"
            for n in (1, 2) for x, y in itertools.product(
                [format(i, f"0{n}b") for i in range(1 << n)], repeat=2) if x != y]


class TestHelpers:
    def test_deposits_spread_patterns_onto_the_mask(self):
        # bit j of the pattern lands on the j-th lowest set bit of the mask
        assert verify._deposits(0b1010) == [0b0000, 0b0010, 0b1000, 0b1010]
        assert verify._deposits(0b111) == list(range(8))
        assert verify._deposits(0) == [0]

    def test_deposits_are_the_interval(self):
        mask = 0b101101
        assert sorted(verify._deposits(mask)) == [
            z for z in range(1 << 6) if z & ~mask == 0]

    def test_literal_sets(self):
        assert verify._literal(1, 0) == frozenset({0})
        assert verify._literal(1, 3) == frozenset(
            {0b000, 0b001, 0b011, 0b100, 0b110, 0b111})
        assert verify._literal(2, 3) == frozenset(range(8))

    def test_kernel_check_counts_every_comparison(self):
        import random

        failures, checked = verify._kernel_failures(4, 3, random.Random(0))
        assert failures == []
        assert checked == (2 + 4 + 8 + 16) * 3


def _swap_one_member(monkeypatch, k, n, t):
    """Make verify's rset swap one member of every R_k over 2^n at distance
    t for the least word of 2^n outside it, so the set keeps its size."""
    from xoverlab.crossover import RSetResult
    from xoverlab.words import WordSet

    real = verify.rset

    def fake(kk, x, y):
        result = real(kk, x, y)
        if (kk, len(x.spec.sizes), (x.index ^ y.index).bit_count()) != (k, n, t):
            return result
        members = result.members.indices
        outside = min(set(range(1 << n)) - members)
        inside = min(members - {x.index, y.index})
        swapped = WordSet.from_indices(members - {inside} | {outside}, x.spec)
        return RSetResult(swapped, (x, y), kk)

    monkeypatch.setattr(verify, "rset", fake)


@pytest.mark.parametrize("name", ["sizes"])
def test_same_size_swap_fails_the_kernel_check(name, monkeypatch):
    _swap_one_member(monkeypatch, k=2, n=5, t=5)
    result = verify.SUITES[name](max_n=5, max_k=2)
    assert not result.passed
    assert any(line.startswith("FAIL kernel: n=5 k=2")
               for line in result.details)


def test_same_size_swap_at_k6_fails_sizes_at_its_defaults(monkeypatch):
    # partialcube and vc build their k <= 6, n <= 7 graphs through rset;
    # R_6 at distance 6 is its whole box, so the swap leaves the box
    _swap_one_member(monkeypatch, k=6, n=7, t=6)
    result = verify.check_sizes()
    assert not result.passed
    fails = [line for line in result.details if line.startswith("FAIL")]
    # one seeded x for each of the 7 six-bit masks over 2^7
    assert len(fails) == 7
    assert all(line.startswith("FAIL kernel: n=7 k=6 ") for line in fails)


def test_only_sizes_sweeps_the_kernel(monkeypatch):
    real = verify._kernel_failures
    callers = []

    def counting(*args):
        callers.append(name)
        return real(*args)

    monkeypatch.setattr(verify, "_kernel_failures", counting)
    for name, kwargs in REDUCED:
        assert verify.SUITES[name](**kwargs).passed, name
    assert callers == ["sizes"]


def test_kernel_sweeps_decode_no_words(monkeypatch):
    # sizes and recursion compare packed index sets; decoding a set's words
    # there would cost more than the comparisons themselves
    calls = []
    monkeypatch.setattr(words, "_decode_words",
                        lambda indices, spec: calls.append(len(indices)))
    assert verify.check_sizes(max_n=6, max_k=3).passed
    assert verify.check_recursion(max_n=8, max_k=3).passed
    assert calls == []


def test_graph_suites_stay_within_the_kernel_sweep():
    # partialcube and vc build their graphs through rset, which only sizes
    # holds to the literal sets; their notes cite sizes' default bounds
    def defaults(fn):
        params = inspect.signature(fn).parameters
        return params["max_n"].default, params["max_k"].default

    max_n, max_k = defaults(verify.check_sizes)
    assert verify._KERNEL_BACKING.endswith(f"n<={max_n}, k<={max_k}")
    for fn in (verify.check_partialcube, verify.check_vc):
        n, k = defaults(fn)
        assert n <= max_n and k <= max_k, fn.__name__


def test_recursion_missing_a_member_fails(monkeypatch):
    from xoverlab.crossover import RSetResult
    from xoverlab.words import WordSet, hamming_distance

    real = verify.rset_recursive

    def drop_one(k, x, y):
        result = real(k, x, y)
        if (k, hamming_distance(x, y)) != (3, 6):
            return result
        members = result.members.indices
        kept = members - {min(members - {x.index, y.index})}
        return RSetResult(WordSet.from_indices(kept, x.spec), (x, y), k)

    monkeypatch.setattr(verify, "rset_recursive", drop_one)
    result = verify.check_recursion()
    assert not result.passed
    fails = [line for line in result.details if line.startswith("FAIL")]
    assert fails[0] == "FAIL recursion: k=3 t=6"


def test_shared_set_fails_parents(monkeypatch):
    real = verify._literal

    def with_translate(k, t):
        patterns = real(k, t)
        if (k, t) != (1, 3):
            return patterns
        return patterns | {p ^ 0b001 for p in patterns}

    monkeypatch.setattr(verify, "_literal", with_translate)
    result = verify.check_parents(max_n=4, max_k=1)
    assert not result.passed
    # P | (P ^ 001) is the whole 3-bit box here, so every d fixes it
    assert [line for line in result.details
            if line.startswith("FAIL parents")] == [
        f"FAIL parents: k=1 t=3 pairs 000 and {d:03b} share a set"
        for d in (1, 2, 3)]


def test_kernel_wrong_at_t12_fails_parents(monkeypatch):
    # beyond sizes' n <= 10 sweep, parents alone ties rset to the literal set
    _swap_one_member(monkeypatch, k=3, n=12, t=12)
    result = verify.check_parents()
    assert not result.passed
    assert [line for line in result.details if line.startswith("FAIL")] == [
        "FAIL kernel: k=3 t=12 rset(0^t, 1^t) differs from the literal set"]
    assert verify.check_sizes().passed


def test_closure_missing_a_member_fails(monkeypatch):
    real = verify._closure_walk
    monkeypatch.setattr(verify, "_closure_walk",
                        lambda patterns, t: real(patterns, t) - {1})
    result = verify.check_closure(max_n=3, max_k=1)
    assert not result.passed
    assert [line for line in result.details if line.startswith("FAIL")] == [
        f"FAIL closure: k=1 t={t}" for t in (1, 2, 3)]


def test_library_closure_short_of_the_box_fails(monkeypatch):
    # the walk fills the box, but the library's closure drops the mask 1
    real = verify.closure
    monkeypatch.setattr(verify, "closure", lambda k, x, y: (
        words.WordSet.from_indices(real(k, x, y).indices - {1}, x.spec)))
    result = verify.check_closure(max_n=3, max_k=1)
    assert not result.passed
    assert [line for line in result.details if line.startswith("FAIL")] == [
        f"FAIL closure: k=1 t={t}" for t in (1, 2, 3)]


def _sweep_collisions(t, members):
    """The per-pair oracle: each antipodal pair (u, u XOR 1^t) of the t-bit
    box with u < 2^(t-1) whose set, ``members(u, u XOR 1^t)``, equals that
    of an earlier pair, as (earlier u, u)."""
    full = (1 << t) - 1
    seen = {}
    out = []
    for u in range(1 << t - 1):
        first = seen.setdefault(members(u, u ^ full), u)
        if first != u:
            out.append((first, u))
    return out


def _stabiliser_collisions(patterns, t):
    """The same list read off the stabiliser: u XOR patterns is shared by
    the pairs u XOR d, each named by its member below 2^(t-1)."""
    full = (1 << t) - 1
    stab = verify._stabiliser(patterns)
    out = []
    for u in range(1 << t - 1):
        first = min(min(u ^ d, u ^ d ^ full) for d in stab)
        if first != u:
            out.append((first, u))
    return out


def _brute_stabiliser(patterns, t):
    return [d for d in range(1 << t) if {p ^ d for p in patterns} == patterns]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stabiliser_matches_the_pair_sweep(k):
    from xoverlab.crossover import rset
    from xoverlab.words import AlphabetSpec, Word

    for t in range(k + 2, 10):
        spec = AlphabetSpec((2,) * t)

        def members(xi, yi):
            x, y = Word.from_index(xi, spec), Word.from_index(yi, spec)
            return rset(k, x, y).members.indices

        patterns = verify._literal(k, t)
        assert _sweep_collisions(t, members) == _stabiliser_collisions(
            patterns, t) == []
        assert verify._stabiliser(patterns) == [0, (1 << t) - 1]


def test_stabiliser_of_the_literal_sets_is_brute_force():
    for k in range(1, 5):
        for t in range(1, 9):
            patterns = verify._literal(k, t)
            assert verify._stabiliser(patterns) == _brute_stabiliser(patterns, t)


def test_stabiliser_finds_a_planted_translate():
    import random

    rng = random.Random(20)
    for _ in range(200):
        t = rng.randrange(2, 9)
        full = (1 << t) - 1
        base = {rng.randrange(1 << t) for _ in range(rng.randrange(1, 12))}
        # closed under complement, as every recombination set's patterns are
        base |= {p ^ full for p in base}
        d = rng.randrange(1, 1 << t)
        planted = frozenset(base | {p ^ d for p in base})
        stab = verify._stabiliser(planted)
        assert stab == _brute_stabiliser(planted, t)
        assert d in stab
        assert _sweep_collisions(
            t, lambda u, v: frozenset(u ^ p for p in planted)
        ) == _stabiliser_collisions(planted, t)
        lonely = frozenset(base)
        assert verify._stabiliser(lonely) == _brute_stabiliser(lonely, t)


class TestRunSuite:
    @staticmethod
    def _stubs(monkeypatch, calls):
        def wide(max_n=3, max_k=2, seed=0):
            calls.append(("wide", max_n, max_k, seed))
            return CheckResult("wide", True, ())

        def narrow(ts=(4,)):
            calls.append(("narrow", ts))
            return CheckResult("narrow", True, ())

        def big(max_n=10):
            calls.append(("big", max_n))
            return CheckResult("big", True, ())

        monkeypatch.setattr(verify, "SUITES",
                            {"wide": wide, "narrow": narrow, "big": big})

    def test_each_suite_gets_the_bounds_it_takes(self, monkeypatch):
        calls = []
        self._stubs(monkeypatch, calls)
        run_suite("all", max_n=4, seed=7, ts=(5,))
        assert calls == [("wide", 4, 2, 7), ("narrow", (5,)), ("big", 4)]

    def test_named_suite_refuses_a_bound_it_does_not_take(self, monkeypatch):
        calls = []
        self._stubs(monkeypatch, calls)
        for name, bounds, foreign in (
                ("big", {"max_k": 3}, "--max-k"),
                ("narrow", {"max_n": 4, "max_k": 2}, "--max-k, --max-n"),
                ("big", {"ts": (5,), "seed": 1}, "--t")):
            with pytest.raises(ValueError, match=f"^{name} takes no {foreign}$"):
                run_suite(name, **bounds)
        assert calls == []
        # seed is passed by every CLI run; all drops what a suite does not take
        run_suite("narrow", seed=3)
        run_suite("all", max_k=3)
        assert calls == [("narrow", (4,)), ("wide", 3, 3, 0), ("narrow", (4,)),
                         ("big", 10)]

    def test_budget_is_checked_before_any_suite_runs(self, monkeypatch):
        from xoverlab.words import BudgetExceededError

        calls = []
        self._stubs(monkeypatch, calls)
        # big's default max_n = 10 needs 1024 words
        with pytest.raises(BudgetExceededError, match="exceeds budget 512"):
            run_suite("all", budget=512)
        assert calls == []
        run_suite("all", budget=1024)
        assert [c[0] for c in calls] == ["wide", "narrow", "big"]

    def test_largest_t_is_checked_before_any_suite_runs(self, monkeypatch):
        from xoverlab.words import BudgetExceededError

        calls = []
        self._stubs(monkeypatch, calls)
        with pytest.raises(BudgetExceededError, match="exceeds budget 16"):
            run_suite("narrow", budget=16, ts=(4, 5))
        with pytest.raises(BudgetExceededError, match="exceeds budget 1024"):
            run_suite("all", budget=1024, max_n=3, ts=(11,))
        assert calls == []
        run_suite("narrow", budget=16, ts=(3, 4))
        assert calls == [("narrow", (3, 4))]

    def test_t_below_3_is_refused_before_any_suite_runs(self, monkeypatch):
        calls = []
        self._stubs(monkeypatch, calls)
        for ts in ((2,), (4, 1), (0,), (-1, 5)):
            for name in ("narrow", "all"):
                with pytest.raises(ValueError, match=(
                        f"narrow needs every t >= 3; got t={min(ts)}")):
                    run_suite(name, ts=ts)
        assert calls == []

    def test_om_ground_set_limit_is_checked_before_any_suite_runs(
            self, monkeypatch):
        from xoverlab.matroid import DEFAULT_GROUND_BUDGET
        from xoverlab.words import BudgetExceededError

        calls = []
        self._stubs(monkeypatch, calls)

        def om(max_n=8):
            calls.append(("om", max_n))
            return CheckResult("om", True, ())

        monkeypatch.setitem(verify.SUITES, "om", om)
        assert DEFAULT_GROUND_BUDGET == 10
        for name in ("om", "all"):
            with pytest.raises(BudgetExceededError,
                               match="ground set 11 exceeds budget 10"):
                run_suite(name, max_n=11)
        assert calls == []
        run_suite("om", max_n=10)
        assert calls == [("om", 10)]

    def test_requested_max_n_is_checked(self, monkeypatch):
        from xoverlab.words import BudgetExceededError

        calls = []
        self._stubs(monkeypatch, calls)
        with pytest.raises(BudgetExceededError):
            run_suite("wide", budget=16, max_n=5)
        run_suite("wide", budget=16, max_n=4)
        assert calls == [("wide", 4, 2, 0)]
