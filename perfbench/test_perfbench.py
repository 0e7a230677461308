"""Tests of the benchmark's own checks and span bookkeeping.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from xoverlab.crossover import rset  # noqa: E402
from xoverlab.words import AlphabetSpec, Word, WordSet  # noqa: E402


def _pair(x: str, y: str, spec=None):
    spec = spec or AlphabetSpec((2,) * len(x))
    return Word.parse(x, spec), Word.parse(y, spec)


def test_rset_check_accepts_the_library_result():
    for x, y, k in (("00000000", "11111111", 3), ("0110", "0110", 2),
                    ("10101", "01011", 1)):
        px, py = _pair(x, y)
        assert workloads.rset_failures(k, px, py, rset(k, px, py).members) == []
    px, py = _pair("012012", "120201", AlphabetSpec((3,) * 6))
    assert workloads.rset_failures(2, px, py, rset(2, px, py).members) == []


def test_rset_check_catches_wrong_results():
    x, y = _pair("00000000", "11111111")
    good = list(rset(2, x, y).members)
    spec = x.spec
    three_switches = Word.parse("01010000", spec)
    assert three_switches not in good
    wrong = [good[1:], good + [three_switches], good[1:] + [three_switches],
             good + [good[0]]]
    for members in wrong:
        assert workloads.rset_failures(2, x, y, members), members
    # a letter taken from neither parent
    x3, y3 = _pair("0000", "1111", AlphabetSpec((3,) * 4))
    members = list(rset(1, x3, y3).members)
    members[0] = Word.parse("2000", x3.spec)
    assert workloads.rset_failures(1, x3, y3, members)


def test_pairs_item_catches_a_wrong_recursion_and_lex_path():
    x, y = _pair("0011010110", "1100101001")
    item = workloads._pairs_binary(2, x, y)
    r, rec, lex = item.run()
    assert item.check((r, rec, lex)) == []
    assert item.check((r, WordSet(list(rec)[1:], x.spec), lex))
    item1 = workloads._pairs_binary(1, x, y)
    r1, _, lex1 = item1.run()
    assert item1.check((r1, None, lex1)) == []
    assert item1.check((r1, None, WordSet(list(lex1)[:-1], x.spec)))


def test_find_parents_check_wants_exactly_the_parents():
    x, y = _pair("000000", "110111")
    item = workloads._pairs_parents(2, x, y)
    found = item.run()
    assert item.check(found) == []
    assert item.check(found + found)
    assert item.check([(x, x)])


def test_om_check_catches_a_wrong_rank_and_lattice():
    spec = AlphabetSpec((2,) * 4)
    item = workloads._om_item(2, 4, Word.parse("0110", spec))
    out = item.run()
    assert item.check(out) == []

    class WrongRank:
        def __init__(self, om):
            self.__dict__.update(vars(om))
            self.rank = om.rank + 1

    assert item.check({**out, "om": WrongRank(out["om"])})
    assert item.check({**out, "quad": (True, 11)})
    assert item.check({**out, "uniform": (False, None)})


def test_doc_check_compares_bytes_and_digests():
    argv = ["rset", "-k", "1", "-x", "0", "-y", "1", "--spec", "2"]
    from xoverlab.cli import render_command

    text = render_command(argv)
    item = workloads._doc_item(argv, text.encode(), "bytes")
    assert item.check(item.run()) == []
    assert item.check(text.replace("0", "1", 1))
    item = workloads._doc_item(argv, workloads.sha(text), "sha256")
    assert item.check(text) == []
    assert item.check(text + "\n")


def test_docs_digests_cover_every_pool_variant():
    digests = json.loads(workloads.DIGESTS.read_text())
    for slot, build in workloads.docs_slots():
        for v in range(workloads.POOL):
            assert " ".join(workloads.docs_variant_argv(slot, build, v)) in digests
    for argv in workloads.docs_fixed():
        assert " ".join(argv) in digests


def test_seed_fixes_the_inputs():
    a = [i.label for i in workloads.items_for("pairs", 5, ROOT)]
    b = [i.label for i in workloads.items_for("pairs", 5, ROOT)]
    c = [i.label for i in workloads.items_for("pairs", 6, ROOT)]
    assert a == b and a != c and len(a) == len(c)


def test_normalize_scales_by_the_probes_around_and_inside_an_item():
    ref = worker.REFERENCE_PROBE_S
    # item 0 ran at half the reference speed throughout, item 1 sped up
    # from half speed to reference speed halfway through
    out = worker.normalize([2.0, 3.0], [2 * ref, 2 * ref, ref],
                           [[2 * ref] * 3, [2 * ref, ref]])
    assert out[0] == 1.0
    assert abs(out[1] - 3.0 * 4 / 6) < 1e-12
    assert worker.calibrate() > 0


def test_summarize_self_time_and_errors():
    # cli.render [0, 100] > crossover.rset [10, 60] > words.wordset [20, 50];
    # crossover.find_parents [70, 90] > crossover.rset [72, 88] (raised)
    rows = [  # (id, parent, name, t0, t1, count, raised), in closing order
        (2, 1, "words.wordset", 20, 50, None, 0),
        (1, 0, "crossover.rset", 10, 60, 7, 0),
        (4, 3, "crossover.rset", 72, 88, None, 1),
        (3, 0, "crossover.find_parents", 70, 90, None, 1),
        (0, -1, "cli.render", 0, 100, 9, 0),
    ]
    lines = [json.dumps({"id": i, "parent": p, "name": name,
                         "layer": name.split(".")[0], "item": 0, "t0": t0 * 10**9,
                         "t1": t1 * 10**9, "n": n, "err": err, "nested": False})
             for i, p, name, t0, t1, n, err in rows]
    lines.append(json.dumps({"item": 0, "words_built": 11}))
    m = spans.summarize(lines)
    assert m["words.word.built"] == 11
    assert m["crossover.rset.calls"] == 2
    assert m["crossover.rset.busy_s"] == 50 + 16
    assert m["crossover.rset.self_s"] == 50 - 30 + 16
    assert m["cli.render.self_s"] == 100 - 50 - 20
    assert m["words.self_s"] == 30
    assert m["crossover.self_s"] == (50 - 30) + 16 + (20 - 16)
    assert m["crossover.errors"] == 1  # the inner raise stays inside the layer
    assert m["cli.errors"] == 0


def test_install_rebinds_every_namespace_and_keeps_outputs():
    code = """
import sys
sys.path.insert(0, "perfbench")
import spans, workloads
from xoverlab import cli, crossover, verify, matroid, partialcube
import xoverlab
argv = ["graph", "-k", "2", "-x", "00000", "-y", "11111"]
before = cli.render_command(argv), cli.render_command(["verify", "r2", "--t", "4"])
rec = spans.Recorder()
spans.install(rec)
after = cli.render_command(argv), cli.render_command(["verify", "r2", "--t", "4"])
assert before == after
names = {s[2] for s in rec.spans}
for want in ("cli.render", "crossover.rset", "graphs.word_graph", "words.wordset",
             "partialcube.is_partial_cube", "partialcube.vc_dimension",
             "graphs.distances", "verify.suite"):
    assert want in names, want
assert rec.words_built > 0
for space in (cli, crossover, verify, xoverlab):
    assert space.rset.__wrapped__ is not None
assert matroid.vc_dimension is partialcube.vc_dimension
assert cli.vc_dimension is partialcube.vc_dimension
assert verify.SUITES["r2"] is verify.check_r2
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, env={"PYTHONPATH": str(ROOT / "src"),
                                          "PATH": "/usr/bin:/bin"}, timeout=120)
    assert proc.stdout.strip() == "ok", proc.stderr
