"""Command-line behavior: golden bytes, header fields, errors, file output.

The golden files were produced by the listed invocations and are compared
byte for byte; a second layer of spot checks keeps them honest against the
library so a regenerated file cannot silently freeze a wrong answer.
"""

import functools
import json
import os
import re
import subprocess
import sys

import pytest

from golden_manifest import GOLDEN, GOLDEN_DIR

from xoverlab import cli
from xoverlab.matroid import face_lattice, om_from_rset
from xoverlab.verify import SUITES, CheckResult


@pytest.mark.parametrize("argv,name", GOLDEN, ids=[g[1] for g in GOLDEN])
def test_golden_bytes(argv, name):
    assert cli.render_command(argv) == (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("argv,name", GOLDEN, ids=[g[1] for g in GOLDEN])
def test_rerender_identical(argv, name):
    assert cli.render_command(argv) == cli.render_command(argv)


def test_benchmark_documents_match_their_recorded_digests(monkeypatch):
    """The benchmark's fixed ``docs`` invocations render to the sha256 digests
    recorded in ``perfbench/docs_digests.json``."""
    import hashlib

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import workloads

    digests = json.loads(workloads.DIGESTS.read_text())
    argvs = workloads.docs_fixed()
    assert argvs
    for argv in argvs:
        text = cli.render_command(argv)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            digests[" ".join(argv)]), " ".join(argv)


class TestGoldenSpotChecks:
    """The frozen files agree with the library, not just with themselves."""

    def test_rset_golden_content(self):
        doc = json.loads((GOLDEN_DIR / "rset_k2_0000_1111.json").read_text())
        assert doc["size"] == 14
        assert doc["closed"] is False
        assert doc["members"][0] == "0000" and doc["members"][-1] == "1111"
        assert len(doc["members"]) == 14

    def test_table_golden_row_count(self):
        lines = (GOLDEN_DIR / "rset_k2_antipodal5.table").read_text().splitlines()
        assert len(lines) - 2 == 22

    def test_b2_witness_recorded(self):
        doc = json.loads((GOLDEN_DIR / "axioms_rset2_b2.json").read_text())
        report = doc["reports"][0]
        assert report["holds"] is False
        assert len(report["witness"]) == 3

    def test_om_golden_content(self):
        doc = json.loads((GOLDEN_DIR / "om_k2_n4.json").read_text())
        assert doc["rank"] == 3
        assert doc["tope_count"] == 14
        assert doc["cocircuit_count"] == 12
        assert doc["uniform"] is True

    def test_graph_dot_colors_every_edge(self):
        lines = (GOLDEN_DIR / "graph_k2_0000_1111.dot").read_text().splitlines()
        edges = [l for l in lines if "--" in l]
        assert len(edges) == 24
        assert all("color=" in l for l in edges)

    def test_c6_golden_content(self):
        doc = json.loads((GOLDEN_DIR / "graph_k1_000_111.json").read_text())
        assert doc["stats"]["vertices"] == 6
        assert doc["stats"]["degrees"] == {"2": 6}


class TestHeaders:
    @pytest.mark.parametrize("argv", [g[0] for g in GOLDEN
                                      if g[1].endswith(".json")])
    def test_json_header_fields(self, argv):
        doc = json.loads(cli.render_command(argv))
        assert set(doc) >= {"tool_version", "config", "command"}
        assert set(doc["config"]) == {"spec", "budget", "format", "seed", "out"}
        assert doc["config"]["budget"] == 1 << 20
        assert doc["config"]["seed"] == 0

    def test_config_echoes_flags(self):
        doc = json.loads(cli.render_command(
            ["rset", "-k", "1", "-x", "00", "-y", "11",
             "--budget", "64", "--seed", "7"]
        ))
        assert doc["config"]["budget"] == 64
        assert doc["config"]["seed"] == 7


class TestErrors:
    @pytest.mark.parametrize("argv,fragment", [
        (["verify", "nope"], "known suites"),
        (["axioms", "--source", "rset:1", "--spec", "2^3", "--check", "ZZ"],
         "known:"),
        (["axioms", "--source", "magic", "--spec", "2^3"], "bad source"),
        (["rset", "-k", "2", "-x", "0a00", "-y", "1111"], "pass --spec"),
        (["rset", "-k", "2", "-x", "002", "-y", "111", "--spec", "2^3"],
         "position 3"),
        (["rset", "-k", "0", "-x", "00", "-y", "11"], "k must be"),
        (["om", "-k", "3", "-n", "2"], "need 1 <= k < n"),
        (["om", "-k", "2", "-n", "12"], "exceeds budget"),
        (["rset", "-k", "1", "-x", "000", "-y", "111", "--budget", "4"],
         "exceeds budget"),
        (["rset", "-k", "1", "-x", "00", "-y", "11", "--format", "dot"],
         "not available"),
        (["axioms", "--source", "rset:1"], "needs --spec"),
        (["rset", "-k", "1", "-x", "0", "-y", "1", "--spec", "2^-1,2"],
         "repeat count"),
        (["rset", "-k", "1", "-x", "0", "-y", "1", "--spec", "2^0,3"],
         "repeat count"),
        (["verify", "axioms", "--spec", "2^3"], "verify takes no --spec"),
        (["om", "-k", "1", "-n", "0"], "need 1 <= k < n"),
        (["axioms", "--source", "interval:", "--spec", "2^3"], "bad source"),
    ])
    def test_exit_2_with_message(self, argv, fragment, capsys):
        assert cli.main(argv) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["axioms", "--source", "rset:1", "--spec", "2^10000000000000000000"],
        ["rset", "-k", "1", "-x", "01", "-y", "10",
         "--spec", f"2^{2 ** 63},3", "--budget", str(2 ** 64)],
    ])
    def test_huge_repeat_count_exits_2_before_parse(self, argv, capsys):
        # the count alone exceeds the budget; listing its positions would
        # overflow or exhaust memory
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: space too large: --spec ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (["rset", "-k", "1", "-x", "0a", "-y", "11", "--spec", "2^2"],
         "-x: 'a' is not a number in word '0a'"),
        (["rset", "-k", "1", "-x", "0,x", "-y", "1,1", "--spec", "3,3"],
         "-x: 'x' is not a number in word '0,x'"),
        (["axioms", "--source", "rset:1", "--spec", "2^"],
         "--spec: '' is not a number in alphabet spec '2^'"),
        (["axioms", "--source", "rset:1", "--spec", "x,2"],
         "--spec: 'x' is not a number in alphabet spec 'x,2'"),
        (["verify", "sizes", "--t", "3..x"],
         "'x' is not a number in --t '3..x'"),
    ])
    def test_malformed_number_names_flag_and_text(self, argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["rset", "-k", "1", "-x", "0", "-y", "1", "--spec", "1"],
        ["axioms", "--source", "rset:1", "--spec", "2,1"],
        ["graph", "-k", "1", "-x", "00", "-y", "11", "--spec", "2^1,0"],
    ])
    def test_alphabet_errors_name_the_flag(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --spec: every alphabet size must be at least 2\n")
        assert captured.out == ""

    @pytest.mark.parametrize("spec", ["x", "2^3"])
    def test_om_refuses_spec(self, spec, capsys):
        # -n alone sets the ground set, so any --spec, even a well-formed
        # one, would be ignored
        assert cli.main(["om", "-k", "1", "-n", "3", "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: om takes no --spec: -n sets the binary ground set\n")
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["all", "axioms"])
    def test_verify_refuses_spec_before_any_suite_runs(self, suite, capsys,
                                                       monkeypatch):
        import xoverlab.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "run_suite", refuse)
        assert cli.main(["verify", suite, "--spec", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: verify takes no --spec: each suite sets its own alphabets\n")
        assert captured.out == ""

    def test_unknown_axiom_lists_catalog(self, capsys):
        cli.main(["axioms", "--source", "rset:1", "--spec", "2^2",
                  "--check", "QQ"])
        err = capsys.readouterr().err
        for axiom in ("T1", "MO", "GW4", "A2p"):
            assert axiom in err

    @pytest.mark.parametrize("check", [",", "", " , "])
    def test_check_naming_no_axiom_exits_2(self, check, capsys):
        assert cli.main(["axioms", "--source", "rset:1", "--spec", "2^2",
                         "--check", check]) == 2
        captured = capsys.readouterr()
        assert "names no axiom" in captured.err
        assert captured.out == ""

    def test_unknown_axiom_refused_before_the_table(self, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("the table was built before the name check")

        monkeypatch.setattr(cli, "_build_table", no_table)
        assert cli.main(["axioms", "--source", "rset:1", "--spec", "2^2",
                         "--check", "T1,QQ"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown axiom 'QQ'; known: A1, A2, ")

    def test_six_variable_limit_names_the_cli_way_out(self, capsys, monkeypatch):
        argv = ["axioms", "--source", "rset:1", "--spec", "2^9"]

        def no_table(*args):
            raise AssertionError("the table was built before the limit check")

        with monkeypatch.context() as m:
            m.setattr(cli, "_build_table", no_table)
            assert cli.main(argv) == 2
            assert cli.main([*argv, "--check", "T1,AXp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: A4, AX, AXp are checked only on carriers of at most 256 words"
        )
        assert "--check" in err and "--spec" in err
        assert "six_var_limit" not in err
        assert cli.main([*argv, "--check", "T1,A1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["axiom"] for r in doc["reports"]] == ["T1", "A1"]


def test_parser_is_built_once():
    parser = cli._build_parser()
    hits = cli._build_parser.cache_info().hits
    cli.render_command(["rset", "-k", "1", "-x", "00", "-y", "11"])
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().hits == hits + 2


class TestMain:
    def test_stdout_document(self, capsys):
        assert cli.main(["rset", "-k", "1", "-x", "0", "-y", "1",
                         "--spec", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["members"] == ["0", "1"]

    def test_rset_over_64_positions_with_a_raised_budget(self, capsys):
        # is_closed is a size test, so the 2^64-word box is never enumerated
        assert cli.main(["rset", "-k", "2", "-x", "0" * 64, "-y", "1" * 64,
                         "--budget", str(2 ** 64)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["closed"], doc["size"]) == (False, 4034)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "doc.json"
        assert cli.main(["rset", "-k", "1", "-x", "00", "-y", "11",
                         "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["size"] == 4

    def test_lattice_flag_writes_dot(self, tmp_path, capsys):
        target = tmp_path / "lat.dot"
        assert cli.main(["om", "-k", "2", "-n", "4",
                         "--lattice", str(target)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["face_lattice"]["level_sizes"] == [1, 12, 24, 14, 1]
        text = target.read_text()
        assert text.startswith("digraph face_lattice")
        assert '"1^"' in text

    def test_lattice_dot_golden_bytes(self, tmp_path, capsys):
        # kept out of GOLDEN: that list renders stdout documents only
        target = tmp_path / "lat.dot"
        assert cli.main(["om", "-k", "2", "-n", "4",
                         "--lattice", str(target)]) == 0
        capsys.readouterr()
        golden = GOLDEN_DIR / "om_k2_n4_lattice.dot"
        assert target.read_bytes() == golden.read_bytes()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "doc.json"
        assert cli.main(["rset", "-k", "1", "-x", "00", "-y", "11",
                         "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in captured.err

    def test_unwritable_lattice_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "lat.dot"
        assert cli.main(["om", "-k", "2", "-n", "4",
                         "--lattice", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in captured.err

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "adir"
        target.mkdir()
        assert cli.main(["rset", "-k", "1", "-x", "00", "-y", "11",
                         "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}")
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]

    def test_lattice_replaces_file_atomically(self, tmp_path, capsys):
        target = tmp_path / "lat.dot"
        target.write_text("stale")
        assert cli.main(["om", "-k", "1", "-n", "3",
                         "--lattice", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text() == face_lattice(om_from_rset(1, 3)).to_dot()
        assert [p.name for p in tmp_path.iterdir()] == ["lat.dot"]

    def test_lattice_not_written_when_render_fails(self, tmp_path, capsys):
        target = tmp_path / "lat.dot"
        assert cli.main(["om", "-k", "2", "-n", "4", "--format", "dot",
                         "--lattice", str(target)]) == 2
        assert "not available" in capsys.readouterr().err
        assert not target.exists()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from xoverlab.cli import main; "
             "sys.exit(main(['om', '-k', '1', '-n', '3']))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["tope_count"] == 6

    def test_no_module_loads_networkx(self):
        # networkx is a test-only planarity oracle; one stray import puts its
        # load time back on every CLI start
        code = (
            "import importlib, pkgutil, sys, xoverlab\n"
            "for mod in pkgutil.iter_modules(xoverlab.__path__):\n"
            "    importlib.import_module('xoverlab.' + mod.name)\n"
            "from xoverlab import cli\n"
            "for argv in (['graph', '-k', '2', '-x', '00000', '-y', '11111'],\n"
            "             ['om', '-k', '2', '-n', '5'], ['verify', 'r2']):\n"
            "    cli.render_command(argv)\n"
            "sys.exit('networkx' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestColdStart:
    """Each command imports only the layers it runs: numpy comes in with
    axioms and matroid, and only the commands that use them load them."""

    LAZY = ("numpy", "xoverlab.axioms", "xoverlab.matroid", "xoverlab.verify")

    @staticmethod
    def _loaded_after(argv) -> set[str]:
        code = (
            "import contextlib, io, sys\n"
            "from xoverlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        code = cli.main({argv!r})\n"
            "    except SystemExit as exit:\n"
            "        code = exit.code\n"
            "print(code, *sorted(sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        status, *modules = proc.stdout.split()
        assert status == "0", proc.stderr
        return set(modules)

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["rset", "-k", "2", "-x", "0000", "-y", "1111"],
        ["closure", "-k", "1", "-x", "000", "-y", "111"],
        ["graph", "-k", "2", "-x", "0000", "-y", "1111", "--format", "dot"],
        ["graph", "-k", "2", "-x", "0000", "-y", "1111"],
    ])
    def test_pair_commands_load_no_numpy(self, argv):
        loaded = self._loaded_after(argv)
        assert "xoverlab.cli" in loaded
        assert not loaded & set(self.LAZY)

    @pytest.mark.parametrize("argv,needed", [
        (["axioms", "--source", "rset:1", "--spec", "2^3"], "xoverlab.axioms"),
        (["om", "-k", "1", "-n", "3"], "xoverlab.matroid"),
    ])
    def test_numpy_commands_load_only_their_layer(self, argv, needed):
        loaded = self._loaded_after(argv)
        assert {"numpy", needed} <= loaded
        assert not loaded & (set(self.LAZY) - {"numpy", needed})


class TestVerifyCommand:
    def test_named_suite_passes(self):
        code, text, _ = cli._run(["verify", "r2", "--t", "4..5"])
        assert code == 0
        doc = json.loads(text)
        assert doc["passed"] is True
        assert doc["results"][0]["name"] == "r2"

    def test_t_range_parsing(self):
        assert cli._parse_t_range("4..7") == (4, 5, 6, 7)
        assert cli._parse_t_range("4,6") == (4, 6)
        assert cli._parse_t_range("5") == (5,)
        with pytest.raises(cli.CliError):
            cli._parse_t_range(" , ")

    def test_failing_suite_exits_nonzero(self, monkeypatch):
        def stub():
            return CheckResult("stub", False, ("FAIL forced",))

        monkeypatch.setitem(SUITES, "stub", stub)
        code, text, _ = cli._run(["verify", "stub"])
        assert code == 1
        assert json.loads(text)["passed"] is False

    def test_bounds_reach_suite(self):
        code, text, _ = cli._run(["verify", "lexpaths", "--max-n", "3"])
        assert code == 0
        doc = json.loads(text)
        assert "n<=3" in doc["results"][0]["details"][0]

    @pytest.mark.parametrize("argv", [
        ["sizes", "--max-n", "0"],
        ["lexpaths", "--max-n", "0"],
        ["recursion", "--max-k", "1"],
    ])
    def test_suite_that_checks_nothing_fails(self, argv, capsys):
        assert cli.main(["verify", *argv]) == 1
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert result["passed"] is False
        assert any(line.startswith("FAIL") and "checked nothing" in line
                   for line in result["details"])

    @pytest.mark.parametrize("argv", [
        ["sizes", "--max-n", "30"],
        ["lexpaths"],  # default max_n = 6: 64 words
        ["all"],
        ["r2", "--t", "30"],
    ])
    def test_bounds_beyond_budget_exit_2(self, argv, capsys):
        assert cli.main(["verify", *argv, "--budget", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: space too large")
        assert captured.out == ""

    def test_t_values_within_budget_pass(self):
        assert cli.main(["verify", "r2", "--t", "4..7", "--budget", "128",
                         "--out", os.devnull]) == 0

    @staticmethod
    def _refusing(fn):
        # same signature, so the precheck sees the same bounds
        @functools.wraps(fn)
        def refuse(**bounds):
            raise AssertionError(f"{fn.__name__} ran")
        return refuse

    @pytest.mark.parametrize("suite", ["om", "all"])
    def test_om_ground_set_limit_exits_2_before_any_suite(self, suite, capsys,
                                                           monkeypatch):
        for name, fn in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, self._refusing(fn))
        assert cli.main(["verify", suite, "--max-n", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: space too large: ground set 11 exceeds budget 10\n")

    @pytest.mark.parametrize("suite,t,least", [
        ("r2", "2", 2), ("r2", "1", 1), ("r2", "0", 0), ("r2", "2..5", 2),
        ("all", "2", 2),
    ])
    def test_t_below_3_exits_2_before_any_suite(self, suite, t, least, capsys,
                                                 monkeypatch):
        for name, fn in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, self._refusing(fn))
        assert cli.main(["verify", suite, "--t", t]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: r2 needs every t >= 3; got t={least}\n"
        assert captured.out == ""

    def test_parents_default_bound_needs_2_to_the_16(self, capsys):
        assert cli.main(["verify", "parents", "--budget", "32768"]) == 2
        assert "exceeds budget 32768" in capsys.readouterr().err

    def test_bound_a_named_suite_does_not_take_exits_2(self, capsys,
                                                      monkeypatch):
        for name, fn in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, self._refusing(fn))
        assert cli.main(["verify", "om", "--max-k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: om takes no --max-k\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv,flags", [
        (["parents", "--t", "5"], "--t"),
        (["r2", "--max-n", "5", "--max-k", "2"], "--max-k, --max-n"),
    ])
    def test_refused_bound_is_named_by_its_flag(self, capsys, monkeypatch,
                                                argv, flags):
        for name, fn in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, self._refusing(fn))
        assert cli.main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[0]} takes no {flags}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["r2", "hamming", "axioms"])
    def test_seed_passes_to_a_suite_without_samples(self, suite):
        # the CLI always passes --seed; these suites take none
        assert cli.main(["verify", suite, "--out", os.devnull]) == 0

    def test_bounds_within_budget_pass(self):
        code, text, _ = cli._run(
            ["verify", "sizes", "--max-n", "4", "--budget", "16"])
        assert code == 0
        assert json.loads(text)["passed"] is True

    def test_closure_convexity_spaces_follow_max_n(self):
        code, text, _ = cli._run(
            ["verify", "closure", "--max-n", "3", "--budget", "8"])
        assert code == 0
        (result,) = json.loads(text)["results"]
        (note,) = [line for line in result["details"]
                   if line.startswith("convexity sweep")]
        assert re.findall(r"\(([\d,]+)\)", note) == ["2", "2,2", "2,2,2", "2,3"]

    def test_table_format(self):
        code, text, _ = cli._run(["verify", "axioms", "--format", "table"])
        assert code == 0
        assert text.splitlines()[0].split() == ["suite", "status"]
        assert "pass" in text


class TestSources:
    def test_interval_source(self):
        doc = json.loads(cli.render_command(
            ["axioms", "--source", "interval", "--spec", "2^3",
             "--check", "M,MO"]
        ))
        verdicts = {r["axiom"]: r["holds"] for r in doc["reports"]}
        assert verdicts == {"M": True, "MO": True}

    def test_full_catalog_when_check_omitted(self):
        doc = json.loads(cli.render_command(
            ["axioms", "--source", "rset:1", "--spec", "2^2"]
        ))
        ids = [r["axiom"] for r in doc["reports"]]
        assert len(ids) == 26 and ids == sorted(ids)

    def test_nonbinary_graph_stats_skip_vc(self):
        doc = json.loads(cli.render_command(
            ["graph", "-k", "1", "-x", "00", "-y", "22", "--spec", "3,3"]
        ))
        assert doc["stats"]["vc_dimension"] is None
        assert doc["stats"]["vertices"] == 4

    @pytest.mark.parametrize("argv,digest", [
        (["graph", "-k", "1", "-x", "0,1", "-y", "1,2", "--spec", "3,3"],
         "0f4fed4b7ded52d3529dab6e2f7c7c00cdb8ec54bec1c9afa9d35ec8b2b1c633"),
        (["graph", "-k", "1", "-x", "0,1", "-y", "1,2", "--spec", "3,3",
          "--format", "table"],
         "fe1731477489035ed36193047b6261a421b4867b4e3a24e0b21b4deb9681f5e0"),
        (["graph", "-k", "2", "-x", "0,0,0,0", "-y", "1,2,1,2", "--spec", "3,3,3,3"],
         "853d4ca01aef3cfe2e578adf8de8ddf8cdcef73676dee841cb896b2ac3203c7f"),
        (["graph", "-k", "2", "-x", "0,0,0,0,0", "-y", "1,2,3,1,2",
          "--spec", "2,3,4,3,3"],
         "fe69276d5bcda42b0d85a38fa23bd5c46f33fa302d565eeb66eff7ead70d99ea"),
    ], ids=["3,3-json", "3,3-table", "3^4-k2", "2,3,4,3,3-k2"])
    def test_nonbinary_graph_documents_are_pinned(self, argv, digest):
        """Only a non-binary graph reads cube_minor_dim off the partial-cube
        labels.  The digests were recorded from the payload-keyed string
        labels and antipodal dict that the index-based results replace."""
        import hashlib

        text = cli.render_command(argv)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("k,t,digest", [
        (4, 16, "a93f1f84e2be0d47fd56099235129d159d7b3d174b9e254093979d434ac1db3b"),
        (3, 20, "3b9e448e51ed1aa07bb050a38383b714a26e7ed076ee5ae243fedf0bd076d4bc"),
    ], ids=["k4-t16", "k3-t20"])
    def test_long_binary_graph_documents_are_pinned(self, k, t, digest):
        """Graph documents over long strings, where the VC search is most of
        the work.  The digests were recorded from the subset-scan search
        that projected every member onto every position subset."""
        import hashlib

        text = cli.render_command(["graph", "-k", str(k), "-x", "0" * t, "-y", "1" * t])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("x,y,text,label_searches", [
        ("0,1", "1,2", "3,3", 1),
        ("000110", "111001", "2^6", 0),
    ])
    def test_cube_minor_dim_searches_the_labels_off_binary(
            self, x, y, text, label_searches, monkeypatch):
        # a binary graph reports its one VC search for both fields
        from xoverlab.crossover import transit_graph
        from xoverlab.partialcube import is_partial_cube, largest_cube_minor_dim
        from xoverlab.words import AlphabetSpec, Word

        calls = []

        def counted(emb):
            calls.append(emb)
            return largest_cube_minor_dim(emb)

        monkeypatch.setattr(cli, "largest_cube_minor_dim", counted)
        stats = json.loads(cli.render_command(
            ["graph", "-k", "1", "-x", x, "-y", y, "--spec", text]))["stats"]
        assert len(calls) == label_searches
        spec = AlphabetSpec.parse(text)
        g = transit_graph(1, Word.parse(x, spec), Word.parse(y, spec))
        assert stats["cube_minor_dim"] == largest_cube_minor_dim(is_partial_cube(g))
