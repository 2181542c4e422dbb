"""Local factors at rational primes and exact global Dirichlet coefficients."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_runner import run
from zetaforge import (
    DegreeMismatchError,
    GlobalExpansionError,
    LocalFactor,
    NumberField,
    ShapeAbscissa,
    UnsupportedFamilyError,
    abelian,
    abscissa_from_shape,
    bk,
    free,
    global_coefficients,
    heisenberg,
    lmn,
    local_factor,
    make_W,
    rationals,
)
from zetaforge import cli, dirichlet, families, numberfield
from zetaforge.dirichlet import _local_series, _type_series
from zetaforge.laurent import EulerForm, InputError, LaurentPoly, ResourceGuardError
from zetaforge.numberfield import UnsupportedRamifiedPrimeError, decomposition_type
from zetaforge.primes import primes_upto

GAUSS = NumberField((1, 0, 1))
EISEN = NumberField((3, 0, 1))
# W = 1/(1 - Y) gives the Dedekind zeta function, whose b_p counts the
# primes of degree 1 above p: every prime up to the limit is decomposed
DEDEKIND = EulerForm(LaurentPoly({(0, 0): 1}), [(0, 1)])


def test_local_factor_override_shapes():
    # abelian(2) has W = 1/((1 - Y)(1 - X Y)); each prime above p = 3 gives
    # (1 - t^f)(1 - 3^f t^f), whatever type a field itself has at 3
    w = make_W(abelian(2), 2)
    inert = LocalFactor.from_euler(w, 3, [(1, 2)])
    assert inert.denominator == ((1, 2), (9, 2))
    split = LocalFactor.from_euler(w, 3, [(1, 1), (1, 1)])
    assert split.denominator == ((1, 1), (1, 1), (3, 1), (3, 1))
    ramified = LocalFactor.from_euler(w, 3, [(2, 1)])
    assert ramified.denominator == ((1, 1), (3, 1))
    assert inert.numerator == split.numerator == ramified.numerator == ((0, 1),)


@pytest.mark.parametrize("family", [free(2, 1), free(3, 1), abelian(2)], ids=str)
def test_z_n_beyond_d1_is_refused(family):
    message = f"{family} at d=2: abelian families are supported only at d=1"
    for call in (
        lambda: local_factor(family, 2, GAUSS, 5),
        lambda: local_factor(family, 2, GAUSS, 2, pairs=[(2, 1)]),
        lambda: global_coefficients(family, 2, GAUSS, 10),
    ):
        with pytest.raises(UnsupportedFamilyError) as caught:
            call()
        assert str(caught.value) == message
    rank = 1 if family.kind == "free" else family.params[0]
    q = rationals()
    assert global_coefficients(family, 1, q, 50) == global_coefficients(abelian(rank), 1, q, 50)


def test_local_factor_from_euler():
    lf = LocalFactor.from_euler(make_W(heisenberg(1), 1), 2, [(1, 1)])
    assert lf.denominator == ((4, 2), (8, 2))
    assert lf.numerator == ((0, 1),)
    assert lf.expand(4) == [1, 0, 12, 0, 112]

    lf3 = LocalFactor.from_euler(make_W(heisenberg(1), 1), 3, [(1, 1)])
    assert lf3.expand(4) == [1, 0, 36, 0, 1053]


def test_local_factor_numerator_by_hand():
    # W = (1 + X^5 Y^3) / ... (heisenberg(2)); two primes of degree 1 above
    # p = 2 give (1 + 32 t^3)^2 = 1 + 64 t^3 + 1024 t^6
    lf = LocalFactor.from_euler(make_W(heisenberg(2), 1), 2, [(1, 1), (1, 1)])
    assert lf.numerator == ((0, 1), (3, 64), (6, 1024))
    # one prime of degree 2: 1 + (2^2)^5 t^6
    lf = LocalFactor.from_euler(make_W(heisenberg(2), 1), 2, [(1, 2)])
    assert lf.numerator == ((0, 1), (6, 1024))


def test_local_factor_negative_x_exponents():
    # 1 + 2 X^-1 Y at q = 2 is 1 + t; at q = 4 the coefficient 2/4 is refused
    w = EulerForm(LaurentPoly({(0, 0): 1, (-1, 1): 2}), [(0, 1)])
    assert LocalFactor.from_euler(w, 2, [(1, 1)]).numerator == ((0, 1), (1, 1))
    with pytest.raises(ValueError, match="non-integral"):
        LocalFactor.from_euler(w, 2, [(1, 2)])


def test_local_factor_refuses_formal_forms():
    with pytest.raises(ValueError, match="no Dirichlet expansion"):
        LocalFactor.from_euler(make_W(lmn(4, 2), 1), 2, [(1, 1)])


@pytest.mark.parametrize("order, message", [
    (True, "order must be an integer"),
    (2.0, "order must be an integer"),
    (None, "order must be an integer"),
    (-1, "order must be >= 0"),
])
def test_local_expand_refuses_a_bad_order(order, message):
    # True used to expand to [1, 0], -1 to [], 2.0 to a bare TypeError
    lf = LocalFactor.from_euler(make_W(heisenberg(1), 1), 2, [(1, 1)])
    with pytest.raises(InputError, match=message):
        lf.expand(order)


def test_local_expand_matches_bivariate_series():
    w = make_W(abelian(3), 1)
    series = w.expand_series(2, 5)
    assert LocalFactor.from_euler(w, 2, [(1, 1)]).expand(5) == [series[k] for k in range(6)]


# -- from_euler against a bivariate product, property-based ---------------

forms = st.builds(
    EulerForm,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9), max_size=4
    ).map(LaurentPoly),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=3),
)
types = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)


def specialise_product(w, p, pairs):
    """Build prod over pairs of W(X^f, Y^f) as one bivariate numerator and
    denominator, then set X = p, Y = t."""
    numerator = LaurentPoly.one()
    denominator = []
    for _, f in pairs:
        numerator = numerator * LaurentPoly(
            {(f * i, f * j): c for (i, j), c in w.numerator.terms.items()}
        )
        denominator += [(f * a, f * b) for a, b in w.denominator]
    coeffs = {}
    for (i, j), c in numerator.terms.items():
        coeffs[j] = coeffs.get(j, 0) + c * p**i
    return (
        tuple(sorted((j, c) for j, c in coeffs.items() if c)),
        tuple(sorted((p**a, b) for a, b in denominator)),
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(forms, st.sampled_from([2, 3, 5, 7]), types)
def test_from_euler_specialises_the_bivariate_product(w, p, pairs):
    lf = LocalFactor.from_euler(w, p, pairs)
    assert (lf.numerator, lf.denominator) == specialise_product(w, p, pairs)


# -- the cut at the expanded order -----------------------------------------

# The families and fields of the benchmark's `dirichlet` pools.
POOL_FAMILIES = [
    "free:2:3", "free:3:2", "maxclass:3", "maxclass:4", "f4", "q5", "bk",
    "heisenberg:1", "heisenberg:2", "heisenberg:3", "heisenberg:4", "heisenberg:5",
    "lmn:1:2", "lmn:2:2", "lmn:1:3", "lmn:2:3",
]
POOL_FIELDS = {1: (0, 1), 2: (1, 0, 1), 3: (-2, 0, 0, 1), 4: (1, 1, 1, 1, 1)}


@pytest.mark.parametrize("d", sorted(POOL_FIELDS))
@pytest.mark.parametrize("family_id", POOL_FAMILIES)
def test_global_coefficients_match_the_uncut_factors(family_id, d):
    field = NumberField(POOL_FIELDS[d])
    family = families.parse_family(family_id)
    w = make_W(family, d)
    coeffs = global_coefficients(family, d, field, 200)
    for p in primes_upto(200):
        full = LocalFactor.from_euler(w, p, decomposition_type(field, p))
        k, pk = 1, p
        while pk <= 200:
            assert coeffs[pk - 1] == full.expand(k)[k], (p, k)
            k, pk = k + 1, pk * p


def _outcome(fn):
    """The value of fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


# About half the coefficients are multiples of 2^12 3^6 5^6, so that terms
# with negative X-exponents are integral at most of the drawn q.
signed_forms = st.builds(
    EulerForm,
    st.dictionaries(
        st.tuples(st.integers(-2, 3), st.integers(-2, 4)),
        st.builds(
            lambda c, m: c * m,
            st.integers(-9, 9),
            st.sampled_from([1, 2**12 * 3**6 * 5**6]),
        ),
        max_size=5,
    ).map(LaurentPoly),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(signed_forms, st.sampled_from([2, 3, 5]), types, st.integers(0, 8))
def test_cut_factor_expands_as_the_full_factor(w, p, pairs, order):
    # the per-type series, cut at `order` and evaluated at p, with the
    # checks of the global loop, against the full factor at p
    fs = tuple(sorted(f for _, f in pairs))
    cut = _outcome(lambda: _local_series(w, p, fs, order, {}))
    full = _outcome(lambda: LocalFactor.from_euler(w, p, pairs).expand(order))
    assert cut == full


def _kmax(p, limit):
    k, pk = 0, p
    while pk <= limit:
        k, pk = k + 1, pk * p
    return k


def per_prime_coefficients(w, field, limit):
    """b_1 .. b_limit from the full local factor at each prime, expanded and
    multiplied into every n by the p-adic valuation of n: the reference for
    the per-type series of `global_coefficients`."""
    coeffs = [1] * (limit + 1)
    for p in primes_upto(limit):
        try:
            pairs = decomposition_type(field, p)
        except UnsupportedRamifiedPrimeError as exc:
            raise GlobalExpansionError(
                f"cannot expand to {limit}: prime {p} refused ({exc})"
            ) from exc
        series = LocalFactor.from_euler(w, p, pairs).expand(_kmax(p, limit))
        for n in range(p, limit + 1, p):
            v, m = 0, n
            while m % p == 0:
                v, m = v + 1, m // p
            coeffs[n] *= series[v]
    return coeffs[1:]


# The pool fields, Q(sqrt 5), Q(sqrt -3), whose equation order the index
# test refuses at 2, Q(sqrt -5) (discriminant -20: 2 and 5 ramify in the
# maximal order Z[sqrt -5]), and the quintic x^5 - x - 1 (discriminant
# 19 * 151, certified irreducible without sympy).
DIFFERENTIAL_FIELDS = [NumberField(c) for c in POOL_FIELDS.values()] + [
    NumberField((-1, -1, 1)), EISEN,
    NumberField((5, 0, 1)), NumberField((-1, -1, 0, 0, 0, 1)),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(signed_forms, st.sampled_from(DIFFERENTIAL_FIELDS), st.integers(2, 60))
def test_global_coefficients_match_the_per_prime_reference(w, field, limit):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet, "make_W", lambda family, d: w)
        got = _outcome(lambda: global_coefficients(heisenberg(1), field.degree, field, limit))
    assert got == _outcome(lambda: per_prime_coefficients(w, field, limit))


@pytest.mark.parametrize("coeffs, family, full_type_at", [
    ((0, 1), heisenberg(2), []),
    ((-2, 0, 0, 1), heisenberg(2), [2, 3]),
    ((1, 1, 1, 1, 1), heisenberg(1), [5]),
    ((-1, -1, 0, 0, 0, 1), heisenberg(1), [19, 151]),
])
def test_full_type_runs_only_at_primes_dividing_the_discriminant(
    monkeypatch, coeffs, family, full_type_at
):
    # every other prime reads its residue degrees off x^p mod f
    field = NumberField(coeffs)
    assert numberfield._certified(coeffs)
    seen = []
    original = numberfield._decomposition_type

    def counting_decomposition_type(field, p):
        seen.append(p)
        return original(field, p)

    monkeypatch.setattr(numberfield, "_decomposition_type", counting_decomposition_type)
    got = global_coefficients(family, field.degree, field, 1000)
    assert seen == full_type_at
    assert got == per_prime_coefficients(make_W(family, field.degree), field, 1000)


def test_odd_primes_below_degree_5_need_no_composition(monkeypatch, clear_field_caches):
    # the parity of the number of factors settles degree 3 after x^p and
    # degree 4 after one gcd; p = 2, where no parity is read, may compose
    zeta5, cube2 = NumberField((1, 1, 1, 1, 1)), NumberField((-2, 0, 0, 1))
    odd_primes = [p for p in primes_upto(1000) if p not in (2, 5)]
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: DEDEKIND)
    want = (
        global_coefficients(heisenberg(1), 4, zeta5, 1000),
        global_coefficients(heisenberg(1), 3, cube2, 1500),
        [decomposition_type(zeta5, p) for p in odd_primes],
    )
    clear_field_caches()  # so that every prime is decomposed again below
    original = numberfield._compose
    composed = []

    def compose_at_2(g, h, f, p):
        if p % 2:
            raise AssertionError(f"composition at p = {p}")
        composed.append(p)
        return original(g, h, f, p)

    monkeypatch.setattr(numberfield, "_compose", compose_at_2)
    assert (
        global_coefficients(heisenberg(1), 4, zeta5, 1000),
        global_coefficients(heisenberg(1), 3, cube2, 1500),
        [decomposition_type(zeta5, p) for p in odd_primes],
    ) == want
    # 2 is inert in Q(zeta_5) and its factor of degree 4 is composed for,
    # so the primes were decomposed again with the patch in place
    assert composed


def test_quadratic_fields_take_no_frobenius_images(monkeypatch, clear_field_caches):
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: DEDEKIND)
    want = global_coefficients(heisenberg(1), 2, GAUSS, 2000)
    clear_field_caches()  # so that every prime is decomposed again below
    decomposed = _counting(monkeypatch, "_residue_degrees")
    original = numberfield._x_power

    def x_power_at_2(n, f, p):
        if p % 2:
            raise AssertionError(f"x^{n} mod f at p = {p}: the parity decides degree 2")
        return original(n, f, p)

    monkeypatch.setattr(numberfield, "_x_power", x_power_at_2)
    assert global_coefficients(heisenberg(1), 2, GAUSS, 2000) == want
    assert decomposed == primes_upto(2000)[1:]  # every prime but 2, which ramifies


def test_cut_is_widened_by_negative_t_exponents(monkeypatch):
    # W = (3 - X) Y^-1 + Y^3 over 1 - Y at p = 3, type (1,1),(1,2): the first
    # factor is t^3 (its t^-1 cancels), the second -6 t^-2 + t^6, so the
    # t^1 coefficient comes from t^3, beyond the order 1 that is expanded
    w = EulerForm(LaurentPoly({(0, -1): 3, (1, -1): -1, (0, 3): 1}), [(0, 1)])
    assert LocalFactor.from_euler(w, 3, [(1, 1), (1, 2)]).expand(1) == [0, -6]
    assert _local_series(w, 3, (1, 2), 1, {}) == [0, -6]
    # The t^-3 coefficient (3 - X)(3 - X^2) of the type series is not zero;
    # it vanishes at X = 3 only, so the check is made on the value at each p.
    _, tail, _ = _type_series(w, (1, 2), 1)
    assert [sorted(poly) for poly in tail] == [[(0, 9), (1, -3), (2, -3), (3, 1)]]
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: w)
    with pytest.raises(ValueError, match="negative t-exponent"):
        global_coefficients(heisenberg(1), 1, rationals(), 2)
    # The same case at p = 2, which every global run meets first: over
    # Q(x^3 + x^2 + x + 2), 2 has type (1,1),(1,2) and 3 is inert.
    w = EulerForm(LaurentPoly({(0, -1): 2, (1, -1): -1, (0, 3): 1}), [(0, 1)])
    cubic = NumberField((2, 1, 1, 1))
    assert global_coefficients(heisenberg(1), 3, cubic, 2) == [1, -2]
    with pytest.raises(ValueError, match="negative t-exponent"):
        global_coefficients(heisenberg(1), 3, cubic, 3)
    # a t^-1 that survives is refused with or without the cut
    w = EulerForm(LaurentPoly({(0, -1): 1, (0, 0): 1}), [(0, 1)])
    with pytest.raises(ValueError, match="negative t-exponent"):
        _local_series(w, 2, (1,), 1, {})


def test_cut_checks_integrality_of_dropped_terms(monkeypatch):
    # 1 / X Y^5 at q = 2 is dropped by the cut at t^1, and still refused
    w = EulerForm(LaurentPoly({(0, 0): 1, (-1, 5): 1}), [(0, 1)])
    with pytest.raises(ValueError, match="non-integral"):
        _local_series(w, 2, (1,), 1, {})
    # 2 / X Y^5 is integral at 2 but not at 3, which shares the type series
    # of 2 at the limit 3: the check is made at every prime, not per type
    w = EulerForm(LaurentPoly({(0, 0): 1, (-1, 5): 2}), [(0, 1)])
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: w)
    assert global_coefficients(heisenberg(1), 1, rationals(), 2) == [1, 1]
    with pytest.raises(ValueError, match="non-integral"):
        global_coefficients(heisenberg(1), 1, rationals(), 3)


class _Exponent(int):
    """An X-exponent that records every power or multiple it is raised into."""

    raised = []

    def __rpow__(self, base):
        _Exponent.raised.append(int(self))
        return int(base) ** int(self)

    def __rmul__(self, factor):
        _Exponent.raised.append(int(self))
        return int(factor) * int(self)


def test_only_terms_through_the_cut_are_specialised(monkeypatch):
    # Each X-exponent tags one term: 10 + j for the numerator term X^(10+j) Y^j
    # and 20 + b for the denominator factor (1 - X^(20+b) Y^b).
    w = EulerForm(
        LaurentPoly({(_Exponent(10 + j), j): 1 for j in range(6)}),
        [(_Exponent(20 + b), b) for b in (1, 2, 3, 5)],
    )
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: w)
    _Exponent.raised = []
    coeffs = global_coefficients(heisenberg(1), 2, GAUSS, 30)
    # Each X-exponent is raised once per key (fs, kmax) and factor f of fs,
    # to X^(f i), and only through the cut; no prime raises one again.
    want, keys = [], set()
    for p in primes_upto(30):
        kmax = _kmax(p, 30)
        fs = tuple(sorted(f for _, f in decomposition_type(GAUSS, p)))
        if (fs, kmax) not in keys:
            keys.add((fs, kmax))
            for f in fs:
                want += [10 + j for j in range(6) if f * j <= kmax]
                want += [20 + b for b in (1, 2, 3, 5) if f * b <= kmax]
    assert len(keys) < len(primes_upto(30))
    assert sorted(_Exponent.raised) == sorted(want)
    # no product past t^kmax is kept, and the coefficients are those of the
    # full factors
    for fs, kmax in keys:
        _, tail, series = _type_series(w, fs, kmax)
        assert not tail and len(series) == kmax + 1
    for p in primes_upto(30):
        full = LocalFactor.from_euler(w, p, decomposition_type(GAUSS, p)).expand(4)
        k, pk = 1, p
        while pk <= 30:
            assert coeffs[pk - 1] == full[k]
            k, pk = k + 1, pk * p


def test_type_series_is_built_once_per_type(monkeypatch):
    field = NumberField(POOL_FIELDS[4])
    calls = []
    original = dirichlet._type_series

    def counting_type_series(w, fs, order):
        calls.append((fs, order))
        return original(w, fs, order)

    monkeypatch.setattr(dirichlet, "_type_series", counting_type_series)
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: DEDEKIND)
    coeffs = global_coefficients(heisenberg(2), 4, field, 1000)
    keys = [
        (tuple(sorted(f for _, f in decomposition_type(field, p))), _kmax(p, 1000))
        for p in primes_upto(1000)
    ]
    assert sorted(calls) == sorted(set(keys))
    assert len(calls) == 10 and len(keys) == 168
    assert coeffs == per_prime_coefficients(DEDEKIND, field, 1000)


def _counting(monkeypatch, name):
    """Patch numberfield.<name> to record the prime of every call."""
    seen, original = [], getattr(numberfield, name)

    def counting(*args):
        seen.append(args[1])
        return original(*args)

    monkeypatch.setattr(numberfield, name, counting)
    return seen


def test_primes_above_the_root_are_decomposed_only_where_refusable(monkeypatch):
    # b_p of heisenberg:1 is its t^1 coefficient, 0 at every type, for each
    # p > 31 = isqrt(1000); of those only the primes dividing disc = 125,
    # none, could be refused, so only p <= 31 are decomposed, 5 in full
    zeta5 = NumberField(POOL_FIELDS[4])
    residue = _counting(monkeypatch, "_residue_degrees")
    full = _counting(monkeypatch, "_decomposition_type")
    coeffs = global_coefficients(heisenberg(1), 4, zeta5, 1000)
    assert residue == [p for p in primes_upto(31) if p != 5]
    assert full == [5]
    assert coeffs == per_prime_coefficients(make_W(heisenberg(1), 4), zeta5, 1000)


def test_a_refusable_prime_above_the_root_is_still_decomposed():
    # Z[13i] has index 13 in Z[i]: the index test refuses 13, above the
    # square root of 100, and a limit below 13 never reaches it
    field = NumberField((169, 0, 1))
    got = _outcome(lambda: global_coefficients(heisenberg(1), 2, field, 100))
    assert got == _index_refusal(100, 13)
    coeffs = global_coefficients(heisenberg(1), 2, field, 12)
    assert coeffs == per_prime_coefficients(make_W(heisenberg(1), 2), field, 12)


@pytest.mark.parametrize(
    "coeffs, limit", [((1, 1, 1, 1, 1), 1000), ((169, 0, 1), 12)], ids=["zeta5", "13i"]
)
def test_only_the_decomposed_primes_are_read(monkeypatch, coeffs, limit):
    # one local series per prime whose type is read, and none past them
    field = NumberField(coeffs)
    seen, original = [], dirichlet._local_series

    def counting_local_series(w, p, *args):
        seen.append(p)
        return original(w, p, *args)

    monkeypatch.setattr(dirichlet, "_local_series", counting_local_series)
    global_coefficients(heisenberg(1), field.degree, field, limit)
    decomposed = numberfield._primes_to_decompose(field, primes_upto(limit), isqrt(limit))
    assert seen == decomposed


def _powerful(n):
    return all(n % (p * p) == 0 for p in primes_upto(n) if n % p == 0)


@pytest.mark.parametrize("d", sorted(POOL_FIELDS))
@pytest.mark.parametrize("family_id", POOL_FAMILIES)
def test_coefficients_live_on_the_powerful_numbers(family_id, d):
    # no local factor of these W has a t^1 term, so b_p = 0 at every p and
    # the multiplicative b_n vanishes unless p | n implies p^2 | n
    field = NumberField(POOL_FIELDS[d])
    family = families.parse_family(family_id)
    w = make_W(family, d)
    assert dirichlet._linear_t_vanishes(w)
    limit = 3000 if d == 1 else 1000
    coeffs = global_coefficients(family, d, field, limit)
    assert [n for n, b in enumerate(coeffs, 1) if b and not _powerful(n)] == []
    assert coeffs == per_prime_coefficients(w, field, limit)


def test_dense_coefficients_match_the_per_prime_reference():
    # Z^3 over Q reads every prime, and no b_n vanishes
    coeffs = global_coefficients(abelian(3), 1, rationals(), 3000)
    assert all(coeffs)
    assert coeffs == per_prime_coefficients(make_W(abelian(3), 1), rationals(), 3000)


def test_a_cofactor_divisible_by_p_is_not_extended(monkeypatch):
    # the local factor 1 + p t + t^2 has b_{p^3} = 0, though b_p b_{p^2} is
    # not: m p^3 must not be written from the cofactor m p of b_{p^2}
    w = EulerForm(LaurentPoly({(0, 0): 1, (1, 1): 1, (0, 2): 1}), [])
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: w)
    coeffs = global_coefficients(heisenberg(1), 1, rationals(), 1000)
    assert coeffs[8 - 1] == coeffs[3 * 27 - 1] == 0
    assert coeffs == per_prime_coefficients(w, rationals(), 1000)


# W with every clause of `_linear_t_vanishes` but one.  Over Q(i) the
# q = p^f of the primes up to 10 are 2, 9, 5 and 49, and 11 is inert, so
# the first two W pass every check below 11 and are refused at 11 only.
OUTSIDE_THE_SHAPE = {
    "negative-x": EulerForm(LaurentPoly({(0, 0): 1, (-1, 2): 2 * 9 * 5 * 49}), [(1, 2)]),
    # (X - 2)(X - 5)(X - 9)(X - 49) Y^-1
    "negative-t": EulerForm(
        LaurentPoly({(0, 0): 1, (4, -1): 1, (3, -1): -65, (2, -1): 857, (1, -1): -3667, (0, -1): 4410}),
        [(1, 2)],
    ),
    "linear-t": EulerForm(LaurentPoly({(0, 0): 1, (1, 1): 1}), [(1, 2)]),
    "dedekind": DEDEKIND,
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_THE_SHAPE))
def test_a_W_outside_the_shape_decomposes_every_prime(monkeypatch, name):
    w = OUTSIDE_THE_SHAPE[name]
    assert not dirichlet._linear_t_vanishes(w)
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: w)
    got = _outcome(lambda: global_coefficients(heisenberg(1), 2, GAUSS, 100))
    assert got == _outcome(lambda: per_prime_coefficients(w, GAUSS, 100))
    # the negative W are refused by a prime above the square root alone
    refused = name.startswith("negative")
    assert isinstance(got, tuple) is refused
    assert isinstance(_outcome(lambda: global_coefficients(heisenberg(1), 2, GAUSS, 10)), list)


def test_global_limit_is_capped_before_any_work():
    with pytest.raises(ResourceGuardError, match="primes capped"):
        global_coefficients(heisenberg(1), 1, rationals(), 10**6 + 1)


# -- the pairs override on arbitrary input ----------------------------------

junk = st.one_of(
    st.integers(-3, 6), st.text(max_size=3), st.none(), st.floats(allow_nan=True),
    st.booleans(),
)
override_items = st.one_of(
    st.tuples(st.integers(-3, 6), st.integers(-3, 6)),
    st.lists(st.one_of(st.integers(-3, 6), junk), max_size=3),
    st.tuples(junk, junk),
    junk,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(override_items, max_size=4), st.integers(-3, 40))
def test_pairs_override_returns_or_refuses(pairs, p):
    try:
        lf = local_factor(heisenberg(1), 2, GAUSS, p, pairs=pairs)
    except (InputError, ResourceGuardError):
        return
    assert lf.p == p and lf.denominator


def test_pairs_override_checks_the_prime():
    with pytest.raises(InputError, match="4 is not prime"):
        local_factor(heisenberg(1), 2, GAUSS, 4, pairs=[(1, 2)])
    with pytest.raises(InputError, match="e, f >= 1"):
        local_factor(heisenberg(1), 2, GAUSS, 5, pairs=[5])
    # bools are not integers here, as everywhere else: (True, True) is not (1, 1)
    with pytest.raises(InputError, match="e, f >= 1"):
        local_factor(heisenberg(1), 1, rationals(), 5, pairs=[(True, True)])
    with pytest.raises(InputError, match="p must be an integer"):
        local_factor(heisenberg(1), 2, GAUSS, 5.0, pairs=[(1, 2)])


def test_inert_prime_local_factor():
    lf = local_factor(heisenberg(1), 2, GAUSS, 3)
    assert lf.denominator == ((6561, 4), (59049, 4))
    assert lf.expand(4) == [1, 0, 0, 0, 65610]


def test_ramified_prime_local_factor():
    lf = local_factor(heisenberg(1), 2, GAUSS, 2)
    assert lf.denominator == ((16, 2), (32, 2))
    assert lf.expand(4) == [1, 0, 48, 0, 1792]


def test_explicit_type_override():
    forced = local_factor(heisenberg(1), 2, EISEN, 2, pairs=[(2, 1)])
    assert forced == local_factor(heisenberg(1), 2, GAUSS, 2)


@pytest.mark.parametrize("pairs,message", [
    ([(1, 5)], "sum of e.f = 5"),
    ([(1, 1)], "sum of e.f = 1"),
    ([(0, 2)], "e, f >= 1"),
    ([(-1, -2)], "e, f >= 1"),
    ([(2, 1.0)], "e, f >= 1"),
    ([(1, 1, 1)], "e, f >= 1"),
    ([], "sum of e.f = 0"),
])
def test_type_override_is_validated(pairs, message):
    with pytest.raises(ValueError, match=message):
        local_factor(heisenberg(1), 2, GAUSS, 5, pairs=pairs)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        local_factor(heisenberg(1), 1, GAUSS, 3)
    with pytest.raises(DegreeMismatchError):
        global_coefficients(heisenberg(1), 2, rationals(), 10)


def test_non_integer_degree_is_refused():
    # 2.0 == GAUSS.degree, so only the type check stands between it and floats
    with pytest.raises(InputError, match="must be an integer"):
        global_coefficients(heisenberg(1), 2.0, GAUSS, 12)


def test_global_coefficients_over_gauss_field():
    coeffs = global_coefficients(heisenberg(1), 2, GAUSS, 20)
    expected = [0] * 20
    expected[0], expected[3], expected[15] = 1, 48, 1792  # n = 1, 4, 16
    assert coeffs == expected


def test_global_coefficients_are_multiplicative():
    coeffs = global_coefficients(heisenberg(1), 1, rationals(), 30)
    assert coeffs[0] == 1
    assert all(isinstance(c, int) for c in coeffs)
    for m in range(1, 31):
        for n in range(1, 31):
            if m * n <= 30 and gcd(m, n) == 1:
                assert coeffs[m * n - 1] == coeffs[m - 1] * coeffs[n - 1]
    # prime-power columns agree with the local expansions
    lf = LocalFactor.from_euler(make_W(heisenberg(1), 1), 2, [(1, 1)])
    assert coeffs[3] == lf.expand(2)[2]


def test_global_coefficients_build_W_once(monkeypatch):
    from zetaforge import dirichlet

    calls = []

    def counting_make_W(family, d):
        calls.append((family, d))
        return make_W(family, d)

    monkeypatch.setattr(dirichlet, "make_W", counting_make_W)
    coeffs = global_coefficients(heisenberg(1), 2, GAUSS, 50)
    assert calls == [(heisenberg(1), 2)]
    assert coeffs[:20] == global_coefficients(heisenberg(1), 2, GAUSS, 20)


def test_global_expansion_refuses_bad_prime_loudly():
    with pytest.raises(GlobalExpansionError, match="prime 2 refused"):
        global_coefficients(heisenberg(1), 2, EISEN, 10)


def _index_refusal(limit, p):
    return GlobalExpansionError, (
        f"cannot expand to {limit}: prime {p} refused "
        f"(unsupported ramified prime {p}: it divides the index of the equation order)"
    )


@pytest.mark.parametrize("reverse", [False, True])
def test_refusals_do_not_depend_on_the_order_of_requests(monkeypatch, reverse):
    # The W of test_cut_is_widened_by_negative_t_exponents: over the cubic
    # x^3 + x^2 + x + 2 the limit 2 expands and 3 is refused by the series.
    # x^3 - 54, the polynomial of 3 cbrt 2, passes the index test at 2 and
    # fails it at 3, each time it is asked; Q(sqrt -3) fails it at 2, so
    # only the limit 1 expands.
    w = EulerForm(LaurentPoly({(0, -1): 2, (1, -1): -1, (0, 3): 1}), [(0, 1)])
    monkeypatch.setattr(dirichlet, "make_W", lambda family, d: w)
    cases = [
        ((2, 1, 1, 1), [(2, [1, -2]), (3, (ValueError, "negative t-exponent in local numerator"))]),
        ((-54, 0, 0, 1), [
            (2, [1, 0]),
            (3, _index_refusal(3, 3)),
            (4, _index_refusal(4, 3)),
        ]),
        ((3, 0, 1), [
            (10, _index_refusal(10, 2)),
            (1, [1]),
        ]),
    ]
    for coeffs, runs in cases:
        field = NumberField(coeffs)
        for limit, want in runs[::-1] if reverse else runs:
            got = _outcome(lambda: global_coefficients(heisenberg(1), field.degree, field, limit))
            assert got == want, (coeffs, limit)


# The benchmark's fields, x^5 - x - 1 and Q(sqrt -3), which the index test
# refuses at 2.
SESSION_FIELDS = [NumberField(c) for c in POOL_FIELDS.values()] + [
    NumberField((-1, -1, 0, 0, 0, 1)), EISEN,
]


@st.composite
def session_calls(draw):
    """Up to 12 calls over one or two fields, so that caches are met again."""
    fields = st.sampled_from(draw(st.lists(st.sampled_from(SESSION_FIELDS), min_size=1, max_size=2)))
    primes = st.sampled_from(primes_upto(600))
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("global"), fields, st.integers(1, 400)),
            st.tuples(st.just("decompose"), fields, primes),
            st.tuples(st.just("local"), fields, primes),
        ),
        min_size=1,
        max_size=12,
    ))


def _session_call(kind, field, n):
    if kind == "global":
        return global_coefficients(heisenberg(1), field.degree, field, n)
    if kind == "decompose":
        return decomposition_type(field, n)
    return local_factor(heisenberg(1), field.degree, field, n)


# the fixture hands over a function that keeps no state of its own
@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(session_calls())
def test_warm_answers_are_the_cold_answers(clear_field_caches, calls):
    # Limits grow and shrink and single primes fall inside and outside the
    # caches; every returned list is then mutated, which no later answer
    # may see.  The W of heisenberg(1) has no Y^1 term, so no p above the
    # square root of the limit is decomposed unless it divides the
    # discriminant; the Dedekind W decomposes every prime.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet, "make_W", lambda family, d: DEDEKIND)
        clear_field_caches()
        warm = []
        for call in calls:
            got = _outcome(lambda: _session_call(*call))
            warm.append(list(got) if isinstance(got, list) else got)
            if isinstance(got, list):
                got[:] = [None]
        for call, got in zip(calls, warm):
            clear_field_caches()
            assert got == _outcome(lambda: _session_call(*call)), call


def test_abscissa_from_shape_verification_flags():
    plain = abscissa_from_shape(make_W(heisenberg(1), 1))
    assert plain == ShapeAbscissa(Fraction(2), True)

    descent = abscissa_from_shape(make_W(heisenberg(2), 1))
    assert descent.value == Fraction(8, 3)
    assert descent.shape_verified

    opaque = abscissa_from_shape(make_W(bk(), 1))
    assert opaque.value == Fraction(287, 102)
    assert not opaque.shape_verified


def _shape(terms, denominator=((1, 1), (4, 3))):
    # v = max(2/1, 5/3) = 2 for the default denominator
    return abscissa_from_shape(EulerForm(LaurentPoly(terms), denominator))


def test_shape_verified_is_read_off_the_numerator():
    assert _shape({(0, 0): 1}) == ShapeAbscissa(Fraction(2), True)
    assert _shape({(0, 0): 1, (2, 2): 3, (-1, 1): 1}).shape_verified
    # a negative coefficient could cancel the pole
    assert not _shape({(0, 0): 1, (0, 1): -1}).shape_verified
    # X^4 Y^2 sits at (4+1)/2 > 2, so the numerator moves the abscissa
    assert not _shape({(0, 0): 1, (4, 2): 1}).shape_verified
    # X^3 Y^2 sits at (3+1)/2 = 2 exactly: a tie is not verified
    assert not _shape({(0, 0): 1, (3, 2): 1}).shape_verified
    # the constant term must be 1, and no other term may have Y-degree <= 0
    assert not _shape({(0, 0): 2}).shape_verified
    assert not _shape({(0, 1): 1}).shape_verified
    assert not _shape({(0, 0): 1, (-2, 0): 1}).shape_verified


def _cli_families():
    return (
        [f"abelian:{n}" for n in range(1, 7)]
        + [f"heisenberg:{m}" for m in range(1, families.MAX_HEISENBERG_M + 1)]
        + [f"lmn:{m}:{n}" for n in range(2, families.MAX_LMN_TOTAL)
           for m in range(1, families.MAX_LMN_TOTAL + 1 - n)]
        + [f"free:{c}:{g}" for c in range(2, families.MAX_FREE_C + 1)
           for g in range(1, families.MAX_FREE_G + 1)]
        + [f"maxclass:{c}" for c in range(2, 12)]
        + ["f4", "q5", "bk"]
    )


def test_shape_verified_on_every_cli_family():
    # every non-formal (family, d) the CLI admits at d = 1..4: the numerator
    # proves the abscissa everywhere but bk, whose X^(85+201d) Y^102 ties v
    pairs = 0
    for text in _cli_families():
        for d in range(1, 5):
            try:
                family = cli._parse_family(text, d)
            except InputError:
                assert families.is_abelian(families.parse_family(text)) and d > 1
                continue
            w = make_W(family, d)
            if w.is_formal:
                continue
            shape = abscissa_from_shape(w)
            assert shape.shape_verified == (family.kind != "bk"), (text, d)
            assert families.abscissa(family, d) == shape.value, (text, d)
            pairs += 1
    assert pairs == 6 + 289  # Z^n only at d = 1; formal lmn left out


def test_abscissa_builds_the_descent_sum_once(monkeypatch):
    calls = []
    original = families.descent_form

    def counting_descent_form(monomials):
        calls.append(monomials)
        return original(monomials)

    monkeypatch.setattr(families, "descent_form", counting_descent_form)
    result = run("abscissa", "--family", "heisenberg:3")
    assert result.exit_code == 0, result.output
    assert '"shape_verified":true' in result.output
    assert len(calls) == 1


def test_abscissa_from_shape_refusals():
    with pytest.raises(ValueError, match="no pole"):
        abscissa_from_shape(EulerForm(LaurentPoly.one(), ()))
    with pytest.raises(ValueError, match="abscissa undefined"):
        abscissa_from_shape(make_W(lmn(4, 2), 1))


def test_global_limit_validation():
    with pytest.raises(ValueError):
        global_coefficients(heisenberg(1), 1, rationals(), 0)
    for limit in (10.5, 10.0, "10", True):
        with pytest.raises(InputError, match="limit must be an integer"):
            global_coefficients(heisenberg(1), 1, rationals(), limit)
