"""Exact Laurent-polynomial and Euler-form arithmetic.

Expected values here are frozen from hand computation (difference of squares,
geometric-series coefficients, sigma(2) = 3, ...) before the implementation
was consulted.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforge import EulerForm, LaurentPoly, TruncatedSeries, make_W, parse_family
from zetaforge.laurent import InputError


def P(terms):
    return LaurentPoly(terms)


X = LaurentPoly.monomial(1, 1, 0)
Y = LaurentPoly.monomial(1, 0, 1)
ONE = LaurentPoly.one()


def random_poly(rng, span=3, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        key = (rng.randint(-span, span), rng.randint(-span, span))
        terms[key] = terms.get(key, 0) + rng.randint(-9, 9)
    return LaurentPoly(terms)


# -- LaurentPoly ---------------------------------------------------------


def test_product_difference_of_squares():
    assert (ONE + X * Y) * (ONE - X * Y) == P({(0, 0): 1, (2, 2): -1})


def test_product_identity():
    p = P({(-1, 2): 3, (0, 0): -1})
    assert p * ONE == p


def test_product_monomial_shift():
    # (X^{-1} + Y) * X = 1 + XY
    assert (P({(-1, 0): 1, (0, 1): 1})) * X == ONE + X * Y


def test_zero_coefficients_pruned():
    assert not P({(1, 1): 0}).terms
    assert (X - X) == LaurentPoly.zero()
    assert not bool(X - X)


def test_ring_axioms_random_sweep():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero() == a
        assert a * ONE == a


def test_invert_is_an_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng)
        assert p.invert().invert() == p


def test_substitutions_add_colliding_terms():
    # Y -> 1 sends 1 + Y to 2; Y -> X sends X - Y to 0
    assert P({(0, 0): 1, (0, 1): 1}).substitute_y_monomial(0, 0) == P({(0, 0): 2})
    assert P({(1, 0): 1, (0, 1): -1}).substitute_y_monomial(1, 0) == LaurentPoly.zero()


# -- ring laws, property-based --------------------------------------------

# derandomized so every run draws the same examples
ring_laws = settings(max_examples=60, deadline=None, derandomize=True)

polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-9, 9),
    max_size=5,
).map(LaurentPoly)



@ring_laws
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero()
    assert a * ONE == a


@ring_laws
@given(polys, polys)
def test_invert_is_a_multiplicative_involution(a, b):
    assert a.invert().invert() == a
    assert (a * b).invert() == a.invert() * b.invert()


def test_evaluate_x_collects_y_exponents():
    p = P({(2, 1): 1, (0, 1): 1, (1, 0): 5})  # X^2 Y + Y + 5X
    assert p.evaluate_x(2) == {1: Fraction(5), 0: Fraction(10)}
    with pytest.raises(ValueError):
        p.evaluate_x(0)


def test_lex_extremes():
    p = P({(1, 5): 2, (-2, 0): 1, (1, -1): 7})
    assert p.lex_extremes() == ((-2, 0), (1, 5))
    with pytest.raises(ValueError):
        LaurentPoly.zero().lex_extremes()


def test_rendering_round_trips_signs():
    p = P({(0, 0): -1, (2, 1): 3, (0, 2): -1})
    assert str(p) == "-1 - Y^2 + 3*X^2*Y"
    assert str(ONE - X) == "1 - X"
    assert str(P({(2, 2): -1, (0, 0): 1})) == "1 - X^2*Y^2"
    assert P({(1, 1): 2}).latex() == "2 X Y"


# -- EulerForm -----------------------------------------------------------


def test_denominator_validation():
    with pytest.raises(ValueError, match="bad denominator factor"):
        EulerForm(ONE, [(2, 0)])
    with pytest.raises(ValueError, match="bad denominator factor"):
        EulerForm(ONE, [(-1, 2)])
    # negative X-exponents stay forbidden even for formal forms
    with pytest.raises(ValueError, match="bad denominator factor"):
        EulerForm(ONE, [(-1, 2)], formal=True)


def test_formal_forms_permit_nonpositive_y():
    w = EulerForm(ONE, [(5, -2), (1, 1)], formal=True)
    assert w.is_formal
    assert not EulerForm.from_denominator([(1, 1)]).is_formal
    with pytest.raises(ValueError, match="series expansion undefined"):
        w.expand_series(2, 4)


def test_formal_flag_survives_algebra():
    w = EulerForm(ONE, [(5, -2)], formal=True)
    assert w.to_json_dict() == {"numerator": [["1", 0, 0]], "denominator": [[5, -2]]}
    assert w.invert_variables() == (-1, 5, -2)
    assert w.ratfunc_equal(w)


def test_denominator_canonical_order():
    w = EulerForm(ONE, [(3, 2), (2, 2), (2, 1)])
    assert w.denominator == ((2, 1), (2, 2), (3, 2))


def test_expand_series_hnf_counts():
    # 1/((1-Y)(1-XY)) at X=2 counts sublattices of Z^2: 1, sigma(2)=3, ...
    w = EulerForm.from_denominator([(0, 1), (1, 1)])
    s = w.expand_series(2, 3)
    assert list(s.coefficients) == [1, 3, 7, 15]
    assert s[0] == 1 and s.order == 3


def test_expand_series_numerator_negative_x_is_fine():
    # negative X-exponents in the numerator are evaluated away first
    w = EulerForm(P({(0, 0): 1, (-1, 1): 4}), [(0, 2)])
    s = w.expand_series(2, 2)
    assert list(s.coefficients) == [1, 2, 1]


def test_expand_series_rejects_negative_y_numerator():
    w = EulerForm(P({(0, -1): 1}), [(0, 1)])
    with pytest.raises(ValueError):
        w.expand_series(2, 1)


@pytest.mark.parametrize("order, message", [
    (True, "order must be an integer"),
    (2.0, "order must be an integer"),
    ("2", "order must be an integer"),
    (-1, "order must be >= 0"),
])
def test_expand_series_refuses_a_bad_order(order, message):
    # True would expand to order 1, 2.0 fail on range(): both are refused
    w = EulerForm.from_denominator([(0, 1), (1, 1)])
    with pytest.raises(InputError, match=message):
        w.expand_series(2, order)


def expand_everything(w, xval, order):
    """Reference for expand_series: evaluate every numerator term at X =
    xval, then truncate, and multiply by each factor's geometric series."""
    xval = Fraction(xval)
    coeffs = {}
    for (x, y), c in w.numerator.terms.items():
        coeffs[y] = coeffs.get(y, 0) + c * xval**x
    coeffs = {y: c for y, c in coeffs.items() if c and y <= order}
    if min(coeffs, default=0) < 0:
        raise ValueError("numerator has negative Y-exponents; series is not a power series")
    series = [coeffs.get(e, Fraction(0)) for e in range(order + 1)]
    for a, b in w.denominator:
        geometric = [xval ** (a * (e // b)) if e % b == 0 else 0 for e in range(order + 1)]
        series = [sum(series[i] * geometric[e - i] for i in range(e + 1)) for e in range(order + 1)]
    return series


def _outcome(fn):
    try:
        return list(fn())
    except ValueError as exc:
        return type(exc), str(exc)


signed_forms = st.builds(
    EulerForm,
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-2, 6)), st.integers(-9, 9), max_size=5
    ).map(LaurentPoly),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    signed_forms,
    st.sampled_from([2, 3, Fraction(1, 2), Fraction(-2, 3)]),
    st.integers(0, 7),
)
def test_expand_series_matches_evaluate_then_truncate(w, xval, order):
    got = _outcome(lambda: w.expand_series(xval, order).coefficients)
    assert got == _outcome(lambda: expand_everything(w, xval, order))


def test_expand_series_cut_keeps_the_negative_y_refusal():
    # Y^-1 is below the cut and refused; Y^-1 terms cancelling at X = 2 are not
    w = EulerForm(P({(0, -1): 1, (0, 5): 1}), [(0, 1)])
    for xval in (2, 3):
        with pytest.raises(ValueError, match="negative Y-exponents"):
            w.expand_series(xval, 1)
        with pytest.raises(ValueError, match="negative Y-exponents"):
            expand_everything(w, xval, 1)
    w = EulerForm(P({(0, -1): 2, (1, -1): -1, (0, 0): 1}), [(0, 1)])
    assert list(w.expand_series(2, 2).coefficients) == [1, 1, 1]
    with pytest.raises(ValueError, match="nonzero value"):
        w.expand_series(0, 2)


# The closed-forms benchmark pool: every family it draws, descent sums up to S_7.
SERIES_FAMILIES = (
    [f"abelian:{n}" for n in range(1, 7)]
    + [f"free:{c}:{g}" for c in range(2, 7) for g in range(1, 7)]
    + [f"maxclass:{c}" for c in range(2, 7)]
    + ["f4", "q5", "bk"]
    + [f"heisenberg:{n}" for n in range(1, 8)]
    + [f"lmn:{m}:{n}" for n in range(2, 8) for m in range(1, 11 - n)]
)


@pytest.mark.parametrize("family_id", SERIES_FAMILIES)
def test_expand_series_matches_the_reference_on_family_forms(family_id):
    # every non-formal W of the pool, at integer and fractional X, against the
    # term-by-term Fraction reference; a factor of Y-degree past the order
    # must leave every coefficient as it is.  The reference is given only the
    # numerator terms of Y-degree <= order: it sums per Y-degree, so the rest
    # cannot reach its result, and they reach X^80000 in lmn:4:6 at d = 4.
    order = 8
    for d in range(1, 5):
        w = make_W(parse_family(family_id), d)
        if w.is_formal:
            continue
        low = LaurentPoly({k: c for k, c in w.numerator.terms.items() if k[1] <= order})
        reference = EulerForm(low, w.denominator)
        padded = EulerForm(w.numerator, w.denominator + ((10**5, order + 1),))
        for xval in (2, 3, 5, Fraction(1, 2), Fraction(-2, 3)):
            got = list(w.expand_series(xval, order).coefficients)
            assert got == expand_everything(reference, xval, order), (d, xval)
            assert list(padded.expand_series(xval, order).coefficients) == got, (d, xval)


def test_invert_variables_single_factor():
    w = EulerForm.from_denominator([(2, 2)])
    assert w.invert_variables() == (-1, 2, 2)


def test_invert_variables_two_factors():
    w = EulerForm.from_denominator([(2, 2), (3, 2)])
    assert w.invert_variables() == (1, 5, 4)


def test_ratfunc_equal_common_factor_extension():
    lhs = EulerForm.from_denominator([(1, 1)])
    rhs = EulerForm(ONE + X * Y, [(2, 2)])
    assert lhs.ratfunc_equal(rhs)
    assert rhs.ratfunc_equal(lhs)
    assert lhs.ratfunc_equal(lhs)
    third = EulerForm(P({(0, 2): -1, (0, 0): 1}), [(1, 1), (0, 2)])
    assert lhs.ratfunc_equal(third)
    assert not lhs.ratfunc_equal(EulerForm.from_denominator([(1, 2)]))




def test_json_round_trip():
    # every term survives JSON text: coefficients as decimal strings, sorted
    w = EulerForm(P({(0, 0): 3, (1, 0): -12, (1, 1): 1}), [(4, 3), (0, 1)])
    data = json.loads(json.dumps(w.to_json_dict()))
    assert data == {
        "numerator": [["3", 0, 0], ["-12", 1, 0], ["1", 1, 1]],
        "denominator": [[0, 1], [4, 3]],
    }


def test_truncated_series_is_immutable_prefix():
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 2 and s[2] == 3
    with pytest.raises(Exception):
        s.coefficients = ()
