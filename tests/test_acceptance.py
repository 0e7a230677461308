"""Advertised exact results, one test per claim, at full advertised bounds.

Every check is an integer equality; a failing suite dumps its detail lines.
Bounds here are the contract; reduce them only in test_verify.py.
"""

import pytest

from golden_manifest import GOLDEN, GOLDEN_DIR

from xoverlab import cli, verify
from xoverlab.crossover import rset_recursive
from xoverlab.words import AlphabetSpec, Word


def _passed(result):
    assert result.passed, result.name + "\n" + "\n".join(result.details)


def test_01_size_formula_all_pairs_n10_k5():
    _passed(verify.check_sizes(max_n=10, max_k=5))


def test_02_recursion_matches_direct_n8_k4():
    _passed(verify.check_recursion(max_n=8, max_k=4))
    spec = AlphabetSpec((2, 2))
    with pytest.raises(ValueError, match="k >= 2"):
        rset_recursive(1, Word((0, 0), spec), Word((1, 1), spec))


def test_03_closure_is_interval_n8_k3():
    _passed(verify.check_closure(max_n=8, max_k=3))


def test_04_axiom_battery_four_coordinates():
    _passed(verify.check_axioms_battery())


def test_05_hypercube_and_hamming_recognition():
    _passed(verify.check_hamming(max_n=5))


def test_06_distant_parents_are_unique_t10():
    _passed(verify.check_parents(max_n=10, max_k=4))


def test_07_antipodal_partial_cubes_n7():
    _passed(verify.check_partialcube(max_n=7))


def test_08_vc_dimension_and_cube_minor_n7():
    _passed(verify.check_vc(max_n=7))


def test_09_two_point_graph_structure_t4_to_7():
    _passed(verify.check_r2(ts=(4, 5, 6, 7)))


def test_10_oriented_matroid_pipeline_n8():
    result = verify.check_om(max_n=8)
    _passed(result)
    flagged = [line for line in result.details if "inconsistent" in line]
    assert flagged, "missing the cocircuit closed-form discrepancy note"
    assert "2*C(n, k-1)" in flagged[0]


def test_11_lex_extreme_paths_all_pairs_n6():
    _passed(verify.check_lexpaths(max_n=6))


def test_12_cli_byte_determinism_and_goldens():
    _passed(verify.check_determinism())
    for argv, name in GOLDEN:
        rendered = cli.render_command(argv)
        assert rendered == (GOLDEN_DIR / name).read_text(), name
        assert rendered == cli.render_command(argv), name
