"""The ten acceptance criteria, one test each.

Each test runs one `zetaforge verify` suite, so this file and
`zetaforge verify --suite all` check the same cases over the same ranges.
A suite prints a `MISMATCH ...` line naming the failing case before it
returns False.  The conftest hook prints a one-line PASS/FAIL verdict per
criterion at the end of the run.
"""

from zetaforge.cli import SUITES


def test_criterion_01_signed_permutation_identity():
    assert SUITES["bm-identity"]()


def test_criterion_02_sublemma():
    assert SUITES["sublemma"]()


def test_criterion_03_bruhat_collapse():
    assert SUITES["bruhat"]()


def test_criterion_04_functional_equation_table():
    assert SUITES["funceq"]()


def test_criterion_05_weight_conjecture():
    assert SUITES["weights"]()


def test_criterion_06_bk_reduced_ratio():
    assert SUITES["bk-ratio"]()


def test_criterion_07_cross_family_identity():
    assert SUITES["cross-family"]()


def test_criterion_08_oracle_agreement():
    assert SUITES["oracle"]()


def test_criterion_09_abscissa_agreement():
    assert SUITES["abscissa"]()


def test_criterion_10_number_field_pipeline():
    assert SUITES["numberfield"]()
