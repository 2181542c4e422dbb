"""Prime decomposition in monogenic fields, pinned on classical examples and
checked against sympy's complete factorization over F_p."""

import random

import pytest
from sympy import primerange
from sympy.polys.densearith import dup_mul, dup_pow, dup_sub
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_degree, gf_factor, gf_from_int_poly, gf_gcd

from zetaforge import (
    NumberField,
    UnsupportedRamifiedPrimeError,
    decomposition_type,
    dedekind_zeta_local,
    discriminant,
    rationals,
)
from zetaforge import numberfield
from zetaforge.laurent import ResourceGuardError

GAUSS = NumberField((1, 0, 1))        # x^2 + 1
CUBE2 = NumberField((-2, 0, 0, 1))    # x^3 - 2
GOLDEN = NumberField((-1, -1, 1))     # x^2 - x - 1
EISEN = NumberField((3, 0, 1))        # x^2 + 3, index 2 at p = 2


def test_field_validation():
    assert rationals().degree == 1
    assert GAUSS.degree == 2
    with pytest.raises(ValueError, match="monic"):
        NumberField((1, 2))
    with pytest.raises(ValueError, match="monic"):
        NumberField((5,))
    with pytest.raises(ValueError, match="x divides"):
        NumberField((0, 3, 1))
    with pytest.raises(ValueError, match="integer root"):
        NumberField((-1, 0, 1))
    with pytest.raises(ValueError, match="squarefree"):
        NumberField((1, 0, 2, 0, 1))  # (x^2 + 1)^2


def test_discriminants():
    assert discriminant((1, 0, 1)) == -4
    assert discriminant((-2, 0, 0, 1)) == -108
    assert discriminant((-1, -1, 1)) == 5
    with pytest.raises(ValueError):
        discriminant((7,))


def test_integer_roots_are_found_among_divisors(monkeypatch):
    calls = []
    original = numberfield._eval_int_poly

    def counting_eval(coeffs, v):
        calls.append(v)
        return original(coeffs, v)

    monkeypatch.setattr(numberfield, "_eval_int_poly", counting_eval)
    # x^2 + 10^12: 10^12 has 169 divisors, each tried with both signs
    assert NumberField((10**12, 0, 1)).degree == 2
    assert len(calls) == 2 * 169
    with pytest.raises(ValueError, match="integer root 1000000$"):
        NumberField((-(10**12), 0, 1))


def reference_type(coeffs, p):
    """(type, index coprime to p) from sympy's complete factorization of f
    mod p; the index test runs on the product over Z of the factors' lifts."""
    f = ZZ.map(list(reversed(coeffs)))
    _, factors = gf_factor(gf_from_int_poly(f, p), p, ZZ)
    g, h = [ZZ(1)], [ZZ(1)]
    for fac, k in factors:
        g = dup_mul(g, fac, ZZ)
        h = dup_mul(h, dup_pow(fac, k - 1, ZZ), ZZ)
    big_f = [c // p for c in dup_sub(dup_mul(g, h, ZZ), f, ZZ)]
    gcd = gf_gcd(gf_from_int_poly(big_f, p), gf_from_int_poly(g, p), p, ZZ)
    gcd = gf_gcd(gcd, gf_from_int_poly(h, p), p, ZZ)
    return sorted((k, len(fac) - 1) for fac, k in factors), gf_degree(gcd) <= 0


def test_types_match_complete_factorization():
    rng = random.Random(20)
    fields = []
    while len(fields) < 30:
        degree = rng.randint(2, 6)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(degree)) + (1,)
        try:
            fields.append(NumberField(coeffs))
        except ValueError:
            continue
    ramified = refused = 0
    for field in fields:
        disc = discriminant(field.minpoly)
        for p in primerange(2, 200):
            want, coprime = reference_type(field.minpoly, p)
            ramified += disc % p == 0
            if not coprime:
                refused += 1
                with pytest.raises(UnsupportedRamifiedPrimeError):
                    decomposition_type(field, p)
                continue
            got = decomposition_type(field, p)
            assert got == want, (field.minpoly, p)
            assert any(e > 1 for e, _ in got) == (disc % p == 0), (field.minpoly, p)
    # the sample reaches both branches of the index test
    assert ramified > refused > 0


def test_gaussian_field_types():
    assert decomposition_type(GAUSS, 2) == [(2, 1)]
    assert decomposition_type(GAUSS, 3) == [(1, 2)]
    assert decomposition_type(GAUSS, 5) == [(1, 1), (1, 1)]
    # split iff p = 1 mod 4, inert iff p = 3 mod 4
    for p in (7, 11, 13, 17, 97):
        t = decomposition_type(GAUSS, p)
        assert t == ([(1, 1), (1, 1)] if p % 4 == 1 else [(1, 2)])


def test_cubic_field_types():
    assert decomposition_type(CUBE2, 5) == [(1, 1), (1, 2)]
    assert decomposition_type(CUBE2, 3) == [(3, 1)]
    assert decomposition_type(CUBE2, 31) == [(1, 1), (1, 1), (1, 1)]


def test_degree_sum_invariant():
    for field in (GAUSS, CUBE2, GOLDEN, rationals()):
        for p in (7, 11, 13, 29):
            assert sum(e * f for e, f in decomposition_type(field, p)) == field.degree


def test_ramified_prime_with_coprime_index():
    assert decomposition_type(GOLDEN, 5) == [(2, 1)]
    assert decomposition_type(EISEN, 3) == [(2, 1)]


def test_index_divisible_prime_is_refused():
    with pytest.raises(UnsupportedRamifiedPrimeError, match="unsupported ramified prime 2"):
        decomposition_type(EISEN, 2)


def test_rationals_are_trivial():
    for p in (2, 3, 101):
        assert decomposition_type(rationals(), p) == [(1, 1)]


def test_dedekind_zeta_local():
    assert dedekind_zeta_local(rationals(), 7).denominator == ((0, 1),)
    assert dedekind_zeta_local(GAUSS, 5).denominator == ((0, 1), (0, 1))
    assert dedekind_zeta_local(GAUSS, 3).denominator == ((0, 2),)
    assert dedekind_zeta_local(GAUSS, 2).denominator == ((0, 1),)


def test_prime_guards():
    with pytest.raises(ValueError, match="not prime"):
        decomposition_type(GAUSS, 6)
    with pytest.raises(ResourceGuardError):
        decomposition_type(GAUSS, 1000003)
