"""The CLI contract on generated command lines: exit status 0, 1 or 2, never
a traceback, and stderr starting with ``error:`` whenever the status is 2.

Every generated line parses, so argparse's own usage errors stay out of it.
Budgets stay at or below 2^16, words at or below 12 letters and verify
bounds at or below 4.  A ``--spec`` repeat count is either at most 12 or at
least 2^63, a count that fails without allocating, so no example can
allocate more than a few MiB whether or not the CLI refuses it in time.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from xoverlab import cli

small = st.integers(-1, 4).map(str)
ks = st.one_of(st.integers(1, 4), st.integers(-1, 4)).map(str)
counts = st.one_of(st.integers(-1, 12), st.integers(2 ** 63, 2 ** 64))
tokens = st.one_of(
    st.integers(0, 4).map(str),
    st.builds("{}^{}".format, st.integers(0, 4), counts),
    st.just(""),
)
specs = st.one_of(
    st.builds("2^{}".format, st.integers(1, 6)),
    st.sampled_from(["3,3", "2,3", "2,3,4"]),
    st.lists(tokens, min_size=1, max_size=3).map(",".join),
)


def powers(top):
    """Budgets up to 2^top: mostly powers of two, sometimes any integer."""
    return st.one_of(st.sampled_from([2 ** e for e in range(top, -1, -1)]),
                     st.integers(-1, 2 ** top))


budgets = powers(16)


@st.composite
def options(draw, budgets=budgets):
    out = []
    if draw(st.integers(0, 3)) == 0:
        out += ["--spec", draw(specs)]
    # always a budget: the default, 2^20, would admit a million-word axiom
    # carrier
    out += ["--budget", str(draw(budgets))]
    if draw(st.booleans()):
        out += ["--format", draw(st.sampled_from(["json", "table", "dot"]))]
    return out


@st.composite
def pair_command(draw):
    cmd = draw(st.sampled_from(["rset", "closure", "graph"]))
    n = draw(st.integers(1, 12))
    # mostly binary words of one length, sometimes any text
    if draw(st.integers(0, 3)):
        word = st.text("01", min_size=n, max_size=n)
    else:
        word = st.text("012,", max_size=12)
    return [cmd, "-k", draw(ks), "-x", draw(word), "-y", draw(word)]


@st.composite
def axioms_command(draw):
    argv = ["axioms", "--spec", draw(specs), "--source", draw(st.sampled_from(
        ["rset:1", "rset:2", "closure:0", "closure:2", "interval", "rset"]))]
    if draw(st.booleans()):
        argv += ["--check", draw(st.sampled_from(["Pa", "B2,MO", "ZZ", ""]))]
    return argv


@st.composite
def om_command(draw):
    n = st.one_of(st.sampled_from(range(7, 1, -1)), st.integers(-1, 7))
    return ["om", "-k", draw(ks), "-n", str(draw(n))]


@st.composite
def verify_command(draw):
    suite = draw(st.sampled_from([
        "sizes", "recursion", "closure", "axioms", "hamming", "parents",
        "partialcube", "vc", "r2", "om", "lexpaths", "nope"]))
    argv = ["verify", suite]
    # a suite's default bounds reach past 4, so pass the one it takes
    if suite == "r2":
        argv += ["--t", draw(st.sampled_from(["3..4", "4", "2", "", "4..3"]))]
    elif suite != "axioms":
        argv += ["--max-n", draw(small)]
    extra = draw(st.sampled_from([None, "--max-k", "--max-n", "--t"]))
    if extra == "--t":
        argv += ["--t", "3"]
    elif extra is not None:
        argv += [extra, draw(small)]
    return argv


command_lines = st.one_of(
    st.tuples(pair_command(), options()),
    # an axiom table costs |carrier|^2 sets, so its carriers stay small
    st.tuples(axioms_command(), options(budgets=powers(6))),
    st.tuples(om_command(), options()),
    st.tuples(verify_command(), options()),
).map(lambda parts: parts[0] + parts[1])


@settings(max_examples=300, deadline=None)
@given(command_lines)
def test_exit_status_and_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
        assert out.getvalue() == "", argv
    else:
        assert err.getvalue() == "", argv
