"""Per-criterion summary lines for the acceptance gate, and fresh per-field
caches for each test."""

import re

import pytest

from zetaforge import numberfield

CRITERIA = {
    1: "signed-permutation identity, m <= 6",
    2: "sublemma one-of-two property and monomial shift, m <= 5",
    3: "B-form/S-form collapse, m <= 4, d <= 3",
    4: "functional-equation regression table, d <= 4",
    5: "weight conjecture b = wt(L), d <= 4",
    6: "reduced leading ratio (102, 1/2)",
    7: "cross-family identity free:2:2 = heisenberg:1 = maxclass:2",
    8: "oracle counts match series coefficients",
    9: "abscissa closed forms match shape maxima",
    10: "number-field pipeline over the Gaussian field",
}


def _clear_field_caches():
    """Forget every field the session has met: certificates, discriminants
    and single decomposed primes."""
    for cache in (
        numberfield._certified,
        numberfield._field_discriminant,
        numberfield._unramified_degrees,
    ):
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_field_caches():
    # a test that patches the factorization mod p sees every construction
    # and every decomposition use it
    _clear_field_caches()


@pytest.fixture
def clear_field_caches():
    """For a test that warms the caches and then patches what they spare."""
    return _clear_field_caches


_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_results = {}


def pytest_runtest_logreport(report):
    hit = _PATTERN.search(report.nodeid)
    if hit is None:
        return
    num = int(hit.group(1))
    if report.failed:
        _results[num] = False
    elif report.when == "call" and report.passed:
        _results.setdefault(num, True)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        verdict = "PASS" if _results[num] else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:02d} ({CRITERIA[num]}): {verdict}"
        )
