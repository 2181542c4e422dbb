"""Specializing Euler factors at primes and expanding Dirichlet series.

A bivariate factor W(X, Y) becomes the local factor at a rational prime p of
a base-extended zeta function by taking the product over the primes above p,
one for each pair (e, f) of the decomposition type, of W(X^f, Y^f) at X = p
and Y = t = p^{-s}.  Each factor is specialised on its own and the univariate
results are multiplied.  Multiplying local expansions out to the needed prime
powers yields the global coefficients, which stay exact all the way (integers
in every case we generate, enforced loudly).  The coefficients up to N read
the factor at p only through t^k with p^k <= N, so there only the terms
through t^k are specialised; `euler` prints the whole factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .laurent import InputError, LaurentPoly, ResourceGuardError, _divide_geometric
from .families import make_W
from .numberfield import (
    MAX_PRIME,
    UnsupportedRamifiedPrimeError,
    _check_prime,
    _decomposition_type,
    _frobenius_images,
    decomposition_type,
)
from .primes import primes_upto


class DegreeMismatchError(InputError):
    """The field degree does not match the base-extension parameter d."""


class GlobalExpansionError(InputError):
    """A prime in range could not be handled; the whole expansion is refused."""


@dataclass(frozen=True)
class LocalFactor:
    """A local Euler factor at p, univariate in t = p^{-s}.

    numerator maps t-exponent -> integer coefficient; each denominator entry
    (c, b) stands for a factor (1 - c t^b) with c a power of p.
    """

    p: int
    numerator: tuple
    denominator: tuple

    @classmethod
    def from_euler(cls, w, p, pairs, order=None):
        """The product over (e, f) in `pairs` of W(X^f, Y^f) at X = p, Y = t,
        in full or, with `order`, through t^order (see `_specialise`)."""
        return cls(p, *_specialise(w, p, pairs, order))

    def expand(self, order):
        """Coefficients of t^0 .. t^order of the full rational function."""
        series = [0] * (order + 1)
        for j, c in self.numerator:
            if j < 0:
                raise ValueError("negative t-exponent in local numerator")
            if j <= order:
                series[j] += c
        _divide_geometric(series, self.denominator)
        return series


def _specialise(w, p, pairs, order=None):
    """Numerator and denominator, as `LocalFactor` stores them, of the
    product over (e, f) in `pairs` of W(q, t^f) with q = p^f.

    The term c X^i Y^j becomes c q^i t^(f j), and (1 - X^a Y^b) becomes
    (1 - q^a t^(f b)).  With `order` only what can reach t^0 .. t^order is
    specialised: numerator terms and partial products past the cut are
    dropped before q^i is formed, and so are the denominator factors with
    f b > order, which cannot touch those coefficients.  The cut is `order`
    widened by the negative t-exponents the factors can contribute, so the
    result expands through t^order exactly as the full factor does.  Every
    term with i < 0 is checked for integrality, dropped or not.
    """
    if w.is_formal:
        raise InputError(
            "local factor undefined: a denominator factor does not vanish "
            "in positive Y-degree, so the form has no Dirichlet expansion"
        )
    limit = inf if order is None else order
    low = min((j for _, j in w.numerator.terms), default=0)
    cut = limit - sum(min(0, f * low) for _, f in pairs)
    numerator = {0: 1}
    denominator = []
    for _, f in pairs:
        q = p**f
        factor = {}
        for (i, j), c in w.numerator.terms.items():
            if i < 0 and c % q ** (-i):
                raise ValueError("non-integral local numerator coefficient")
            if f * j > cut:
                continue
            c = c // q ** (-i) if i < 0 else c * q**i
            factor[f * j] = factor.get(f * j, 0) + c
        product = {}
        for j1, c1 in numerator.items():
            for j2, c2 in factor.items():
                if j1 + j2 <= cut:
                    product[j1 + j2] = product.get(j1 + j2, 0) + c1 * c2
        numerator = product
        denominator += [(q**a, f * b) for a, b in w.denominator if f * b <= limit]
    numerator = tuple(sorted((j, c) for j, c in numerator.items() if c))
    return numerator, tuple(sorted(denominator))


def local_factor(family, d, field, p, pairs=None):
    """The local factor of the pro-isomorphic zeta function of the family's
    lattice base-extended along `field`, at the rational prime p.

    `pairs` overrides the computed decomposition type (for primes the index
    test refuses): integers e, f >= 1 with sum of e*f equal to the degree.
    p is checked to be a prime up to MAX_PRIME either way."""
    if field.degree != d:
        raise DegreeMismatchError(
            f"field degree {field.degree} != extension parameter d={d}"
        )
    if pairs is None:
        pairs = decomposition_type(field, p)
    else:
        _check_prime(p)
        for pair in pairs:
            if not (
                isinstance(pair, (tuple, list))
                and len(pair) == 2
                and all(type(x) is int and x >= 1 for x in pair)
            ):
                raise InputError(
                    f"decomposition type wants pairs of integers e, f >= 1, got {pair!r}"
                )
        total = sum(e * f for e, f in pairs)
        if total != field.degree:
            raise InputError(
                f"decomposition type has sum of e*f = {total}, "
                f"but the field degree is {field.degree}"
            )
    return LocalFactor.from_euler(make_W(family, d), p, pairs)


def global_coefficients(family, d, field, limit):
    """Dirichlet coefficients b_1 .. b_limit, exact, by multiplicativity.

    W is built once and specialized at each prime p, through t^kmax only,
    where p^kmax is the largest power of p up to the limit (see
    `_specialise`): kmax = 1 for every p above the square root of the limit.
    The decomposition types take x^p mod the minimal polynomial from
    `_frobenius_images`, one step per integer up to the limit rather than a
    powering per prime.
    Every prime up to the limit must admit a decomposition type; a refused
    ramified prime aborts the whole computation with a clear message.
    """
    if type(limit) is not int:
        raise InputError(f"limit must be an integer, got {limit!r}")
    if limit < 1:
        raise InputError("limit must be >= 1")
    if limit > MAX_PRIME:
        raise ResourceGuardError(
            f"cannot expand to {limit}: primes capped at {MAX_PRIME}"
        )
    if field.degree != d:
        raise DegreeMismatchError(
            f"field degree {field.degree} != extension parameter d={d}"
        )
    w = make_W(family, d)
    coeffs = [1] * (limit + 1)  # index 0 unused
    primes = primes_upto(limit)
    images = _frobenius_images(list(reversed(field.minpoly)), primes)
    for p, xp in zip(primes, images):
        kmax = 0
        q = p
        while q <= limit:
            kmax += 1
            q *= p
        try:
            pairs = _decomposition_type(field, p, xp)
        except UnsupportedRamifiedPrimeError as exc:
            raise GlobalExpansionError(
                f"cannot expand to {limit}: prime {p} refused ({exc})"
            ) from exc
        series = LocalFactor.from_euler(w, p, pairs, kmax).expand(kmax)
        for n in range(p, limit + 1, p):
            v = 0
            m = n
            while m % p == 0:
                v += 1
                m //= p
            coeffs[n] *= series[v]
    return coeffs[1:]


@dataclass(frozen=True)
class ShapeAbscissa:
    """Abscissa read off the denominator shape: max (a+1)/b over its factors.

    shape_verified is True when the numerator is 1, or when the form is a
    stored descent sum (built by `families.descent_form`, which keeps its
    monomial table in `descent_data`).  It records where the form came from:
    the descent sum is not rebuilt, since rebuilding it with the same routine
    could only agree with itself.  When False the value is advisory only.
    """

    value: Fraction
    shape_verified: bool


def abscissa_from_shape(w):
    if not w.denominator:
        raise InputError("no denominator factors: no pole to read off")
    if w.is_formal:
        raise InputError(
            "abscissa undefined: a denominator factor does not vanish in "
            "positive Y-degree, so the series does not converge anywhere"
        )
    value = max(Fraction(a + 1, b) for a, b in w.denominator)
    verified = w.numerator == LaurentPoly.one() or w.descent_data is not None
    return ShapeAbscissa(value, verified)
