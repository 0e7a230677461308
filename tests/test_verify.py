"""Verification suites at reduced bounds; full bounds live in the acceptance tests."""

import pytest

from xoverlab import verify
from xoverlab.verify import CheckResult, run_suite


REDUCED = [
    ("sizes", {"max_n": 5, "max_k": 3, "samples": 5}),
    ("recursion", {"max_n": 5, "max_k": 3, "samples": 5}),
    ("closure", {"max_n": 5, "max_k": 2}),
    ("axioms", {}),
    ("hamming", {"max_n": 3}),
    ("parents", {"max_n": 4, "max_k": 2}),
    ("partialcube", {"max_n": 4, "max_k": 3, "samples": 3}),
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
    def test_restrict_compresses_masked_bits(self):
        # mask 1101 keeps positions 1, 2, 4; word 1011 reads 1, 0, 1 there
        assert verify._restrict(0b1011, 0b1101, 4) == 0b101
        assert verify._restrict(0b1111, 0b0000, 4) == 0
        assert verify._restrict(0b0101, 0b1111, 4) == 0b0101

    def test_interval_indices_are_submasks(self):
        assert verify._interval_indices(0b101) == frozenset({0, 1, 4, 5})
        assert verify._interval_indices(0) == frozenset({0})

    def test_translation_samples_clean(self):
        import random

        assert verify._translation_samples(random.Random(0), 5, 2, 20) == []
