"""Specializing Euler factors at primes and expanding Dirichlet series.

A bivariate factor W(X, Y) becomes the local factor at a rational prime p of
a base-extended zeta function by taking the product over the primes above p,
one for each pair (e, f) of the decomposition type, of W(X^f, Y^f) at X = p
and Y = t = p^{-s}.  Each factor is specialised on its own and the univariate
results are multiplied.  Multiplying local expansions out to the needed prime
powers yields the global coefficients, which stay exact all the way (integers
in every case we generate, enforced loudly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import InputError, LaurentPoly, _divide_geometric
from .families import make_W
from .numberfield import UnsupportedRamifiedPrimeError, decomposition_type
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
    def from_euler(cls, w, p, pairs):
        """The product over (e, f) in `pairs` of W(X^f, Y^f) at X = p, Y = t.

        Each factor is W(q, t^f) with q = p^f: the term c X^i Y^j becomes
        c q^i t^(f j), and (1 - X^a Y^b) becomes (1 - q^a t^(f b)).
        """
        if w.is_formal:
            raise InputError(
                "local factor undefined: a denominator factor does not vanish "
                "in positive Y-degree, so the form has no Dirichlet expansion"
            )
        numerator = {0: 1}
        denominator = []
        for _, f in pairs:
            q = p**f
            factor = {}
            for (i, j), c in w.numerator.terms.items():
                if i < 0:
                    if c % q ** (-i):
                        raise ValueError("non-integral local numerator coefficient")
                    c //= q ** (-i)
                else:
                    c *= q**i
                factor[f * j] = factor.get(f * j, 0) + c
            product = {}
            for j1, c1 in numerator.items():
                for j2, c2 in factor.items():
                    product[j1 + j2] = product.get(j1 + j2, 0) + c1 * c2
            numerator = product
            denominator += [(q**a, f * b) for a, b in w.denominator]
        numerator = tuple(sorted((j, c) for j, c in numerator.items() if c))
        return cls(p, numerator, tuple(sorted(denominator)))

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


def local_factor(family, d, field, p, pairs=None):
    """The local factor of the pro-isomorphic zeta function of the family's
    lattice base-extended along `field`, at the rational prime p.

    `pairs` overrides the computed decomposition type (for primes the index
    test refuses): integers e, f >= 1 with sum of e*f equal to the degree."""
    if field.degree != d:
        raise DegreeMismatchError(
            f"field degree {field.degree} != extension parameter d={d}"
        )
    if pairs is None:
        pairs = decomposition_type(field, p)
    else:
        for pair in pairs:
            if len(pair) != 2 or not all(isinstance(x, int) and x >= 1 for x in pair):
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

    W is built once and specialized at each prime.  Every prime up to the
    limit must admit a decomposition type; a refused ramified prime aborts
    the whole computation with a clear message.
    """
    if limit < 1:
        raise InputError("limit must be >= 1")
    if field.degree != d:
        raise DegreeMismatchError(
            f"field degree {field.degree} != extension parameter d={d}"
        )
    w = make_W(family, d)
    coeffs = [1] * (limit + 1)  # index 0 unused
    for p in primes_upto(limit):
        kmax = 0
        q = p
        while q <= limit:
            kmax += 1
            q *= p
        try:
            pairs = decomposition_type(field, p)
        except UnsupportedRamifiedPrimeError as exc:
            raise GlobalExpansionError(
                f"cannot expand to {limit}: prime {p} refused ({exc})"
            ) from exc
        series = LocalFactor.from_euler(w, p, pairs).expand(kmax)
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
