"""Closed-form W constructors, weights, and abscissae, pinned numerically."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforge import (
    UnsupportedFamilyError,
    abelian,
    abscissa,
    bk,
    bruhat_gsp_sum,
    f4,
    free,
    heisenberg,
    heisenberg_from_bruhat,
    lmn,
    make_W,
    maxclass,
    parse_family,
    predicted_symmetry,
    q5,
    weight,
)
from zetaforge import families, signed_perms
from zetaforge.families import (
    MAX_LMN_TOTAL,
    descent_form,
    free_alpha_beta,
    heisenberg_monomials,
    lmn_monomials,
    witt_rank,
)
from zetaforge.laurent import InputError, LaurentPoly, ResourceGuardError
from zetaforge.signed_perms import descent_sum, descent_tally


def test_parse_family_round_trips():
    for text in ("abelian:3", "free:3:2", "heisenberg:2", "lmn:1:2",
                 "maxclass:4", "f4", "q5", "bk"):
        assert str(parse_family(text)) == text
    assert parse_family("  HEISENBERG:2 ") == heisenberg(2)


def test_parse_family_rejects_garbage():
    with pytest.raises(ValueError, match="unknown family"):
        parse_family("borel:2")
    with pytest.raises(ValueError, match="parameter"):
        parse_family("heisenberg")
    with pytest.raises(ValueError, match="parameter"):
        parse_family("f4:1")


def test_constructor_domain_checks():
    for bad in (lambda: abelian(0), lambda: free(1, 2), lambda: free(2, 0),
                lambda: heisenberg(0), lambda: lmn(0, 2), lambda: lmn(1, 1),
                lambda: maxclass(1)):
        with pytest.raises(ValueError):
            bad()


@pytest.mark.parametrize("make", [
    lambda: abelian(3.0), lambda: free(2, "2"), lambda: heisenberg(2.0),
    lambda: heisenberg(True), lambda: lmn(1, 2.5), lambda: maxclass(None),
])
def test_constructors_refuse_non_integer_parameters(make):
    with pytest.raises(InputError, match="must be integers"):
        make()


def test_resource_guards():
    with pytest.raises(ResourceGuardError):
        heisenberg(9)
    with pytest.raises(ResourceGuardError):
        free(7, 2)
    with pytest.raises(ResourceGuardError):
        lmn(5, 6)
    with pytest.raises(ResourceGuardError):
        bruhat_gsp_sum(6)


def test_witt_ranks():
    assert [witt_rank(2, i) for i in (1, 2, 3, 6)] == [2, 1, 2, 9]
    assert witt_rank(3, 2) == 3
    # dimension count: sum over i <= c of m_i equals the rank of the free
    # class-c quotient; for g=2, c=3 that is 2 + 1 + 2 = 5
    assert sum(witt_rank(2, i) for i in (1, 2, 3)) == 5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_free_alpha_beta(d):
    assert free_alpha_beta(2, 2, d) == (2, 2 * d)
    assert free_alpha_beta(3, 2, d) == (5, 2 + 6 * d)


def test_abelian_form_and_carlitz_series():
    w = make_W(abelian(5), 1)
    assert w.numerator == LaurentPoly.one()
    assert w.denominator == ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1))
    # sublattice counts of Z^5 at p = 2: the Gaussian binomials C(4+k, k)_2
    series = make_W(abelian(5), 1).expand_series(2, 3)
    assert [series[k] for k in range(4)] == [1, 31, 651, 11811]


def test_heisenberg_forms():
    w1 = make_W(heisenberg(1), 1)
    assert w1.numerator == LaurentPoly.one()
    assert w1.denominator == ((2, 2), (3, 2))

    w2 = make_W(heisenberg(2), 1)
    assert w2.denominator == ((4, 3), (6, 3), (7, 3))
    assert w2.numerator == LaurentPoly({(0, 0): 1, (5, 3): 1})


def test_heisenberg_collapse_to_symmetric_form():
    for m in (1, 2, 3):
        for d in (1, 2):
            assert heisenberg_from_bruhat(m, d).ratfunc_equal(
                make_W(heisenberg(m), d)
            )


def test_bruhat_sum_m1_by_hand():
    form = bruhat_gsp_sum(1)
    assert form.numerator == LaurentPoly({(0, 0): 1, (0, 1): 1})
    assert form.denominator == ((0, 2), (1, 1))


def _enumerated(monomials):
    return descent_sum(len(monomials) - 1, monomials, signed=False)


DESCENT_FAMILIES = [heisenberg(m) for m in range(1, 8)] + [
    lmn(m, n) for n in range(2, 8) for m in range(1, 11 - n)
]


def _family_monomials(family, d):
    if family.kind == "heisenberg":
        return heisenberg_monomials(*family.params, d)
    return lmn_monomials(*family.params, d)


@pytest.mark.parametrize("family", DESCENT_FAMILIES, ids=str)
def test_descent_recurrence_matches_enumeration(family):
    for d in (1, 2, 3):
        monomials = _family_monomials(family, d)
        w = make_W(family, d)
        assert w.denominator == tuple(sorted(monomials))
        assert w.numerator == _enumerated(monomials)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, 12), st.integers(-4, 4)),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
)
def test_descent_recurrence_on_random_tables(monomials):
    assert descent_form(monomials).numerator == _enumerated(monomials)


def test_descent_form_does_not_enumerate(monkeypatch):
    def refuse(*args):
        raise AssertionError("descent_form must not enumerate windows")

    for name in ("enumerate_S", "enumerate_B", "stats", "descent_tally"):
        monkeypatch.setattr(signed_perms, name, refuse)
    monkeypatch.setattr(families, "descent_sum", refuse)
    assert make_W(heisenberg(8), 1).numerator
    assert make_W(lmn(1, 9), 2).numerator


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_table_is_the_s_n_walk_by_descent_set(n):
    table = families._descent_table(n)
    got = Counter({(e, mask): c for mask, poly in table for e, c in poly})
    assert got == descent_tally(n, False)
    assert sum(got.values()) == factorial(n)


def test_descent_table_is_built_once_per_n(monkeypatch):
    # a fresh cache around the same builder, counting each build
    builds = Counter()
    build = families._descent_table.__wrapped__

    def counting(n):
        builds[n] += 1
        return build(n)

    monkeypatch.setattr(families, "_descent_table", lru_cache(maxsize=None)(counting))
    for family in DESCENT_FAMILIES + [heisenberg(8), lmn(1, 8), lmn(2, 8), lmn(1, 9)]:
        for d in (1, 2, 3, 4):
            make_W(family, d)
    assert builds == {n: 1 for n in range(1, MAX_LMN_TOTAL)}


def test_descent_form_refuses_n_above_the_family_guards(monkeypatch):
    def refuse(n):
        raise AssertionError("no table may be built for a refused size")

    monkeypatch.setattr(families, "_descent_table", refuse)
    # lmn(1, 9) reaches n = MAX_LMN_TOTAL - 1, heisenberg(8) n = 8
    cap = f"descent sums capped at n <= {MAX_LMN_TOTAL - 1}, got {MAX_LMN_TOTAL}"
    with pytest.raises(ResourceGuardError, match=cap):
        descent_form([(1, 1)] * (MAX_LMN_TOTAL + 1))
    with pytest.raises(InputError, match="needs the monomials"):
        descent_form([])


def test_lmn_small_instance():
    assert lmn_monomials(1, 2, 1) == [(6, 3), (5, 2), (8, 4)]
    w = make_W(lmn(1, 2), 1)
    assert w.denominator == ((5, 2), (6, 3), (8, 4))
    assert w.numerator == LaurentPoly({(0, 0): 1, (4, 2): 1})
    assert not w.is_formal or all(b >= 1 for _, b in w.denominator)


def _lmn_monomials_by_fractions(m, n, d):
    """The lmn exponent table as the formula states it, beta_i summed in
    Fractions term by term: the reference for `lmn_monomials`."""
    r1 = comb(m + n - 2, m - 1)
    r2 = comb(m + n - 1, m)
    out = []
    for i in range(n + 1):
        if i == 0:
            beta = Fraction(d * n * (r1 + r2))
            gamma = r1 + n
        elif i == n:
            beta = Fraction(d * n * (r1 + r2) + comb(2 * m + n - 2, 2 * m - 1))
            gamma = r2 + n
        else:
            beta = Fraction(i * (n - i) + d * (r1 + r2) * ((m - 1) * n + i))
            for j in range(1, i + 1):
                beta += (
                    (1 + Fraction((m - 1) * (i - j + 1), n - j + 1))
                    * comb(m + j - 2, m - 1)
                    * comb(m + n - j - 1, m - 1)
                )
            gamma = (1 + r1) * ((m - 1) * n + i) - m * (m - 1) * r1
        assert beta.denominator == 1, (m, n, i)
        out.append((int(beta), gamma))
    return out


def test_lmn_monomials_match_the_fraction_formula():
    for m in range(1, MAX_LMN_TOTAL):
        for n in range(2, MAX_LMN_TOTAL - m + 1):
            for d in range(1, 6):
                assert lmn_monomials(m, n, d) == _lmn_monomials_by_fractions(m, n, d), (m, n, d)


def test_lmn_large_instance_is_formal():
    # the interior exponent pair of lmn(4, 2) has negative Y-degree; the
    # rational function is still exact, but has no Dirichlet expansion
    w = make_W(lmn(4, 2), 1)
    assert w.is_formal
    assert (74, -13) in w.denominator
    with pytest.raises(ValueError, match="series expansion undefined"):
        w.expand_series(2, 2)


def test_maxclass_forms():
    w = make_W(maxclass(3), 1)
    assert w.numerator == LaurentPoly.one()
    assert w.denominator == ((5, 3), (6, 4))
    # c = 2 coincides with the first Heisenberg factor
    assert make_W(maxclass(2), 2).ratfunc_equal(make_W(heisenberg(1), 2))


def test_rigid_forms():
    assert make_W(f4(), 1).denominator == ((26, 15),)
    assert make_W(f4(), 3).denominator == ((46, 15),)
    assert make_W(q5(), 1).denominator == ((6, 3), (12, 6))

    w = make_W(bk(), 1)
    assert w.denominator == ((285, 102), (573, 204))
    assert w.numerator == LaurentPoly(
        {(0, 0): 1, (285, 102): 1, (286, 102): 2, (572, 204): 2}
    )


def test_make_W_rejects_bad_degree():
    with pytest.raises(ValueError):
        make_W(heisenberg(1), 0)


@pytest.mark.parametrize("d", [1.5, 2.0, True, "2"])
def test_make_W_refuses_non_integer_degree(d):
    with pytest.raises(InputError, match="must be an integer"):
        make_W(heisenberg(1), d)


# Both used to answer: predicted_symmetry(heisenberg(1), 1.5) gave a = 7.0
# and heisenberg_from_bruhat(1, 1.5) float denominator exponents.
@pytest.mark.parametrize("build", [heisenberg_from_bruhat, predicted_symmetry],
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("d, message", [
    (0, "must be >= 1"), (-1, "must be >= 1"), (1.5, "must be an integer"),
    (2.0, "must be an integer"), (True, "must be an integer"), ("2", "must be an integer"),
])
def test_degree_checks_match_make_W(build, d, message):
    with pytest.raises(InputError, match=message):
        build(1 if build is heisenberg_from_bruhat else heisenberg(1), d)


def test_weights():
    assert weight(heisenberg(3)) == 8
    assert weight(free(2, 2)) == 4
    assert weight(lmn(1, 2)) == 7
    assert weight(maxclass(3)) == 7
    assert (weight(f4()), weight(q5()), weight(bk())) == (15, 9, 102)
    with pytest.raises(UnsupportedFamilyError):
        weight(abelian(2))


def test_abscissa_values():
    assert abscissa(abelian(5), 1) == 5
    assert abscissa(free(2, 2), 1) == 2
    assert abscissa(heisenberg(2), 1) == Fraction(8, 3)
    assert abscissa(lmn(1, 2), 1) == 3
    assert all(abscissa(maxclass(c), 1) == 2 for c in (2, 3, 4, 5))
    assert abscissa(maxclass(3), 2) == Fraction(11, 4)
    assert abscissa(f4(), 2) == Fraction(37, 15)
    assert abscissa(q5(), 1) == Fraction(7, 3)
    assert abscissa(bk(), 1) == Fraction(287, 102)


def test_abscissa_refuses_formal_lmn():
    with pytest.raises(ValueError, match="abscissa undefined"):
        abscissa(lmn(4, 2), 1)


def test_abscissa_rejects_bad_degree():
    with pytest.raises(ValueError):
        abscissa(q5(), 0)


@pytest.mark.parametrize("d", [1.5, 2.0, True, "2"])
def test_abscissa_refuses_non_integer_degree(d):
    with pytest.raises(InputError, match="must be an integer"):
        abscissa(heisenberg(1), d)
