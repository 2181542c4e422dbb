"""Prime decomposition in monogenic fields, pinned on classical examples and
checked against sympy (a test-only reference): its complete factorization
over F_p (against which the factorization type and radical are checked),
its discriminant, primes and Möbius function."""

import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, discriminant, isprime, primerange, symbols
from sympy import mobius as sympy_mobius
from sympy.polys.densearith import dup_mul, dup_pow, dup_sub
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_degree,
    gf_factor,
    gf_from_int_poly,
    gf_gcd,
    gf_mul,
)

from zetaforge import (
    NumberField,
    UnsupportedRamifiedPrimeError,
    decomposition_type,
    dedekind_zeta_local,
    rationals,
)
from zetaforge import numberfield
from zetaforge.laurent import InputError, ResourceGuardError
from zetaforge.primes import is_prime, mobius, primes_upto

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
    # a repeated factor is named before an integer root
    with pytest.raises(ValueError, match="^not squarefree$"):
        NumberField((1, -1, -1, 1))  # (x - 1)^2 (x + 1)


REPEATED_FACTOR_SCRIPT = textwrap.dedent("""
    import sys
    from zetaforge.laurent import InputError
    from zetaforge.numberfield import NumberField

    for coeffs in ((1, 2, 1), (1, 0, 2, 0, 1), (1, -1, -1, 1)):
        try:
            NumberField(coeffs)
        except InputError as exc:
            assert str(exc) == "not squarefree", exc
        else:
            raise AssertionError(f"{coeffs} was accepted")
    assert "sympy" not in sys.modules, "sympy was imported"
""")


def test_repeated_factor_is_refused_without_sympy():
    # the zero discriminant decides; pytest has imported sympy already, so
    # this runs in a fresh interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", REPEATED_FACTOR_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("coeffs", [(1, 0, 1.5), ("1", "0", "1"), (1, 0, True), (1.0, 0, 1)])
def test_non_integer_coefficients_are_refused(coeffs):
    # before any other check: a truncated (1, 0, 1.5) would be Q(i)
    with pytest.raises(InputError, match="must be integers"):
        NumberField(coeffs)


def test_integer_roots_are_found_without_divisors():
    assert NumberField((10**12, 0, 1)).degree == 2
    with pytest.raises(ValueError, match="integer root 1000000$"):
        NumberField((-(10**12), 0, 1))
    # the least |r| is named, positive before negative
    with pytest.raises(ValueError, match="integer root 2$"):
        NumberField((-6, 1, 1))  # (x - 2)(x + 3)
    with pytest.raises(ValueError, match="integer root -2$"):
        NumberField((6, 5, 1))  # (x + 2)(x + 3)
    # nothing factors |c0| = 10^18 + 3: the mod-l patterns decide at once
    start = time.perf_counter()
    assert NumberField((10**18 + 3, 0, 1)).degree == 2
    assert time.perf_counter() - start < 0.25


def test_reducible_without_integer_root_is_refused():
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
    with pytest.raises(ValueError, match="reducible: factor 2,-2,1 divides"):
        NumberField((4, 0, 0, 0, 1))
    # (x^2 + 1)(x^2 + 2): reducible but also squarefree
    with pytest.raises(ValueError, match="reducible: factor 1,0,1 divides"):
        NumberField((2, 0, 3, 0, 1))
    # (x^2 - 2)(x^2 - 6) keeps a factor of degree 2 mod every l where it is
    # squarefree; mod 2 it is x^4, whose type, read without multiplicities,
    # would rule degree 2 out and certify a reducible polynomial
    with pytest.raises(ValueError, match="reducible: factor -6,0,1 divides the polynomial$"):
        NumberField((12, 0, -8, 0, 1))


# x^4 + 1 and x^4 - 10x^2 + 1 split into factors of degree <= 2 mod every
# prime, so only the exact factorization can accept them; x^4 + x^2 + 3 is
# irreducible mod 7.  Types at p < 30 as the sympy-based code computed them.
PINNED = {
    (1, 0, 0, 0, 1): (False, {
        2: [(4, 1)], 17: [(1, 1)] * 4,
        **{p: [(1, 2), (1, 2)] for p in (3, 5, 7, 11, 13, 19, 23, 29)},
    }),
    (1, 0, -10, 0, 1): (False, {
        2: None, 3: [(2, 2)], 23: [(1, 1)] * 4,
        **{p: [(1, 2), (1, 2)] for p in (5, 7, 11, 13, 17, 19, 29)},
    }),
    (3, 0, 1, 0, 1): (True, {
        2: [(2, 2)], 3: [(1, 2), (2, 1)], 5: [(1, 1), (1, 1), (1, 2)],
        11: [(2, 1), (2, 1)], 13: [(1, 2), (1, 2)], 23: [(1, 1)] * 4,
        **{p: [(1, 4)] for p in (7, 17, 19, 29)},
    }),
}


@pytest.mark.parametrize("coeffs", sorted(PINNED))
def test_irreducible_quartics_keep_their_types(coeffs):
    certified, types = PINNED[coeffs]
    assert numberfield._certified_irreducible(list(reversed(coeffs))) is certified
    field = NumberField(coeffs)
    for p, want in types.items():
        if want is None:
            with pytest.raises(UnsupportedRamifiedPrimeError):
                decomposition_type(field, p)
        else:
            assert decomposition_type(field, p) == want


def test_certificate_decides_the_small_fields():
    for coeffs in ((1, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1, 1), (10**18 + 3, 0, 1)):
        f = list(reversed(coeffs))
        assert numberfield._certified_irreducible(f)


def test_a_repeat_field_reuses_its_certificate(monkeypatch):
    calls = []
    factor_type = numberfield._factor_type

    def counted(*args):
        calls.append(args)
        return factor_type(*args)

    monkeypatch.setattr(numberfield, "_factor_type", counted)
    assert NumberField((-2, 0, 0, 1)).degree == 3
    assert calls
    calls.clear()
    assert NumberField((-2, 0, 0, 1)).degree == 3
    assert not calls
    # a refusal is raised at every construction
    for _ in range(2):
        with pytest.raises(InputError, match="integer root 2"):
            NumberField((-6, 1, 1))


def random_monic(rng, p, degree):
    return [1] + [rng.randrange(p) for _ in range(degree)]


def powers_and_products(rng, p):
    """A monic polynomial of degree <= 8 built from repeated factors, raised
    to the p-th power where p is small, so that factors of multiplicity
    divisible by p are covered."""
    f = [1]
    for _ in range(rng.randint(1, 3)):
        g = random_monic(rng, p, rng.randint(1, 2))
        fits = [k for k in (1, 2, p) if len(f) - 1 + k * (len(g) - 1) <= 8]
        for _ in range(rng.choice(fits or [0])):
            f = numberfield._reduce(numberfield._mul(f, g), p)
    return f


def test_factor_type_matches_sympy():
    rng = random.Random(6)
    p_powers = 0
    for p in list(primerange(2, 60)) + [10007, 999983]:
        for trial in range(40):
            if trial % 2:
                f = random_monic(rng, p, rng.randint(1, 8))
            else:
                f = powers_and_products(rng, p)
            _, factors = gf_factor(ZZ.map(f), p, ZZ)
            radical = [ZZ(1)]
            for fac, _ in factors:
                radical = gf_mul(radical, fac, p, ZZ)
            want = sorted((k, len(fac) - 1) for fac, k in factors)
            assert numberfield._factor_type(f, p) == (want, radical), (f, p)
            p_powers += any(k % p == 0 for _, k in factors)
    assert p_powers > 20


def test_x_power_matches_repeated_multiplication_by_x():
    rng = random.Random(5)
    for p in (2, 3, 7, 101):
        for trial in range(12):
            # trial 0 is f = x^k, which x^n for n >= k reduces to zero
            tail = [0 if trial == 0 else rng.randrange(p) for _ in range(rng.randint(1, 5))]
            f = [1] + tail
            power = [1]  # x^n mod f
            for n in range(40):
                assert numberfield._x_power(n, f, p) == power, (f, p, n)
                power = numberfield._rem(power + [0], f, p)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=7),
    st.sampled_from(primes_upto(400)),
)
def test_residue_degrees_match_the_factor_type(tail, p):
    # at p not dividing disc(f), f mod p is squarefree and every e is 1
    f = [1] + tail
    disc = numberfield._discriminant(f[::-1])
    assume(disc % p)
    fp = numberfield._reduce(f, p)
    want = tuple(sorted(deg for _, deg in numberfield._factor_type(fp, p)[0]))
    assert numberfield._residue_degrees(fp, p, disc) == want


def test_cubic_residue_degrees_power_x_only_at_odd_parity(monkeypatch):
    # over x^3 - 2 (disc -108, so p > 3) an even number r of factors mod p
    # is two, (1, 2): (disc / p) = (-1)^(3 - r) says so with no x^p
    f, disc = [1, 0, 0, -2], -108
    powered, original = [], numberfield._x_power

    def recording_x_power(n, g, p):
        powered.append(p)
        return original(n, g, p)

    monkeypatch.setattr(numberfield, "_x_power", recording_x_power)
    seen = set()
    for p in primes_upto(199)[2:]:
        fp = numberfield._reduce(f, p)
        want = tuple(sorted(deg for _, deg in numberfield._factor_type(fp, p)[0]))
        del powered[:]  # `_factor_type` powers x itself
        assert numberfield._residue_degrees(fp, p, disc) == want, p
        r_is_odd = pow(disc % p, (p - 1) // 2, p) == 1
        assert powered == ([p] if r_is_odd else []), p
        seen.add(want)
    assert seen == {(1, 1, 1), (1, 2), (3,)}


def test_residue_degrees_of_products_of_known_factors():
    # f mod p is a product of distinct irreducibles of chosen degrees, up to
    # degree 15, so that one or two factors are left at steps i >= 3 too
    # (odd p: F_2 has too few irreducibles of degree 1 and 2 to draw from)
    rng = random.Random(31)
    for p in (3, 5, 7, 101):
        for _ in range(40):
            degrees = sorted(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
            f, factors = [1], []
            for k in degrees:
                g = random_monic(rng, p, k)
                while numberfield._factor_type(g, p)[0] != [(1, k)] or g in factors:
                    g = random_monic(rng, p, k)
                factors.append(g)
                f = numberfield._reduce(numberfield._mul(f, g), p)
            disc = numberfield._discriminant(f[::-1])
            assert numberfield._residue_degrees(f, p, disc) == tuple(degrees), (f, p)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=7),
    st.sampled_from(primes_upto(400)[1:]),
)
def test_stickelberger_parity_of_the_factor_count(tail, p):
    # (disc f / p) = (-1)^(d - r) for the r factors of a squarefree f mod an
    # odd p: the theorem `_residue_degrees` rests on, checked on its own
    f = [1] + tail
    disc = numberfield._discriminant(f[::-1])
    assume(disc % p)
    r = len(numberfield._factor_type(numberfield._reduce(f, p), p)[0])
    legendre = pow(disc % p, (p - 1) // 2, p)
    assert legendre == (1 if (len(tail) - r) % 2 == 0 else p - 1), (f, p)


def _outcome(fn):
    """The value of fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except InputError as exc:
        return type(exc), str(exc)


def test_decomposition_type_matches_the_full_type():
    # the public route reads residue degrees wherever p does not divide
    # disc(f); the full type, kept for the other primes, is the reference
    rng = random.Random(30)
    fields = []
    while len(fields) < 24:
        degree = rng.randint(2, 7)
        coeffs = tuple(rng.randint(-30, 30) for _ in range(degree)) + (1,)
        if coeffs[0] and numberfield._certified(coeffs):
            fields.append(NumberField(coeffs))
    refused = 0
    for field in fields:
        for p in primes_upto(1500):
            want = _outcome(lambda: numberfield._decomposition_type(field, p))
            assert _outcome(lambda: decomposition_type(field, p)) == want, (field.minpoly, p)
            refused += isinstance(want[0], type)
    assert refused > 0


@pytest.mark.parametrize("coeffs, disc", [
    ((1, 0, 1), -4),
    ((-2, 0, 0, 1), -108),
    ((1, 1, 1, 1, 1), 125),
    ((-1, -1, 1), 5),
    ((3, 0, 1), -12),
    ((5, 0, 1), -20),
    ((-1, -1, 0, 0, 0, 1), 2869),
])
def test_discriminant_by_hand(coeffs, disc):
    assert numberfield._discriminant(coeffs) == disc


def test_discriminant_matches_sympy():
    rng = random.Random(25)
    x = symbols("x")
    for trial in range(200):
        degree = rng.randint(1, 7)
        lead = 1 if trial % 2 else rng.choice([-3, -2, 2, 5])
        coeffs = [rng.randint(-20, 20) for _ in range(degree)] + [lead]
        poly = Poly(coeffs[::-1], x)
        if trial % 10 == 0:  # times (x - 1)^2: discriminant 0
            poly = poly.mul(Poly([1, -2, 1], x))
            coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        want = discriminant(poly)
        assert numberfield._discriminant(coeffs) == want, coeffs
    assert numberfield._discriminant((7,)) == 0


def test_prime_helpers_match_sympy():
    for n in (0, 1, 2, 3, 97, 100, 10**4):
        assert primes_upto(n) == list(primerange(2, n + 1))
    for n in list(range(-3, 5000)) + list(range(999_000, 1_000_100)):
        assert is_prime(n) == isprime(n), n
    for n in range(1, 3000):
        assert mobius(n) == sympy_mobius(n), n
    with pytest.raises(ValueError):
        mobius(0)


def test_broken_invariants_are_assertions():
    with pytest.raises(AssertionError):
        numberfield._inverse(0, 5)
    with pytest.raises(AssertionError):
        numberfield._divmod([1, 2], [], 5)
    with pytest.raises(AssertionError):
        numberfield._divmod([1, 2], [0, 1], 5)


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
    x = symbols("x")
    for field in fields:
        disc = Poly(list(reversed(field.minpoly)), x).discriminant()
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


def test_dedekind_zeta_local_refuses_an_index_divisible_prime():
    with pytest.raises(UnsupportedRamifiedPrimeError, match="unsupported ramified prime 2"):
        dedekind_zeta_local(EISEN, 2)


def test_prime_guards():
    with pytest.raises(ValueError, match="not prime"):
        decomposition_type(GAUSS, 6)
    with pytest.raises(ResourceGuardError):
        decomposition_type(GAUSS, 1000003)
    for p in (5.0, "5", True):
        with pytest.raises(InputError, match="p must be an integer"):
            decomposition_type(GAUSS, p)


coefficients = st.one_of(st.integers(-30, 30), st.integers(-(10**30), 10**30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(coefficients, max_size=6),
    st.lists(coefficients, max_size=5).map(lambda c: c + [1]),
))
def test_number_field_returns_or_refuses(coeffs):
    try:
        field = NumberField(tuple(coeffs))
    except InputError:
        return
    assert field.minpoly == tuple(coeffs) and field.degree == len(coeffs) - 1
