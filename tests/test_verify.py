"""Verification suites at reduced bounds; full bounds live in the acceptance tests."""

import pytest

from xoverlab import verify
from xoverlab.axioms import TransitTable
from xoverlab.verify import CheckResult, run_suite


REDUCED = [
    ("sizes", {"max_n": 5, "max_k": 3}),
    ("recursion", {"max_n": 5, "max_k": 3, "samples": 5}),
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


def _swap_one_member(monkeypatch, k=2, t=5):
    """Make verify's rset swap one member of every R_k at distance t for a
    non-member of the parents' box, so the set keeps its size."""
    from xoverlab.crossover import RSetResult
    from xoverlab.words import WordSet

    real = verify.rset

    def fake(kk, x, y):
        result = real(kk, x, y)
        mask = x.index ^ y.index
        if kk != k or mask.bit_count() != t:
            return result
        members = result.members.indices
        outside = min(x.index ^ d for d in verify._deposits(mask)
                      if x.index ^ d not in members)
        inside = min(members - {x.index, y.index})
        swapped = WordSet.from_indices(members - {inside} | {outside}, x.spec)
        return RSetResult(swapped, (x, y), kk)

    monkeypatch.setattr(verify, "rset", fake)


@pytest.mark.parametrize("name", ["sizes", "partialcube", "vc", "parents"])
def test_same_size_swap_fails_the_kernel_check(name, monkeypatch):
    _swap_one_member(monkeypatch)
    result = verify.SUITES[name](max_n=5, max_k=2)
    assert not result.passed
    assert any(line.startswith("FAIL kernel: n=5 k=2")
               for line in result.details)


def test_shared_set_fails_parents(monkeypatch):
    monkeypatch.setattr(verify, "_member_indices",
                        lambda k, xi, yi, spec: frozenset())
    result = verify.check_parents(max_n=4, max_k=1)
    assert not result.passed
    assert "FAIL parents: k=1 t=3 pairs 000 and 001 share a set" in (
        result.details)


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
