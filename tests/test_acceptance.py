"""The ten acceptance criteria, one test each.

Each test runs one `zetaforge verify` suite, so this file and
`zetaforge verify --suite all` check the same cases over the same ranges.
A suite prints a `MISMATCH ...` line naming the failing case before it
returns False.  Each test also pins the sha256 of its suite's stdout, so the
`verify` output stays byte-identical.  The conftest hook prints a one-line
PASS/FAIL verdict per criterion at the end of the run.
"""

import hashlib

from zetaforge.cli import SUITES

STDOUT_SHA256 = {
    "bm-identity": "19736527681d0dd450122714842319e16ffa1dfcfe8999e0c7bfef42bf248fcd",
    "sublemma": "13ad792feae5e23464c9b03b5a80af29f052fc5aea680e184641f5c7327d54bb",
    "bruhat": "43682e8b465d892b158c960b2e2ae89b962a42a9342b5a84d7c36850b13f22d8",
    "funceq": "ee9e39bd6a9bfdaea868a5bf581f12f4bf497884a6a4bcd97cb3b93aab4b53b5",
    "weights": "ab1ff60915a50f35b22633b8886a6d1ba18c7f945157999add6ce2a131fd91a0",
    "bk-ratio": "2d2894d11eb90c1c03c622fc4f2fb18271253bd40f924c8848f50c5299f805dc",
    "cross-family": "5278dd576ff5737cde393f9b66a743620d1b00624d57a16609afa83d3f346e38",
    "oracle": "b94410e8f5c9f2118580ba400222e0bdd26697a57fd1eb7e18e0deecfac42777",
    "abscissa": "186a2d9e3de89a73603e0f7e728d5d0202818b4c06e42c11b4386dc045a21931",
    "numberfield": "b140ee6df8fd7db061765ed3ccbd5f09dad2dfee4da209d832d26f8924ef9f24",
}


def run_suite(name, capsys):
    passed = SUITES[name]()
    stdout = capsys.readouterr().out
    assert passed, stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[name], stdout


def test_criterion_01_signed_permutation_identity(capsys):
    run_suite("bm-identity", capsys)


def test_criterion_02_sublemma(capsys):
    run_suite("sublemma", capsys)


def test_criterion_03_bruhat_collapse(capsys):
    run_suite("bruhat", capsys)


def test_criterion_04_functional_equation_table(capsys):
    run_suite("funceq", capsys)


def test_criterion_05_weight_conjecture(capsys):
    run_suite("weights", capsys)


def test_criterion_06_bk_reduced_ratio(capsys):
    run_suite("bk-ratio", capsys)


def test_criterion_07_cross_family_identity(capsys):
    run_suite("cross-family", capsys)


def test_criterion_08_oracle_agreement(capsys):
    run_suite("oracle", capsys)


def test_criterion_09_abscissa_agreement(capsys):
    run_suite("abscissa", capsys)


def test_criterion_10_number_field_pipeline(capsys):
    run_suite("numberfield", capsys)
