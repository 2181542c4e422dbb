"""Specializing Euler factors at primes and expanding Dirichlet series.

A bivariate factor W(X, Y) becomes the local factor at a rational prime p of
a base-extended zeta function by taking the product over the primes above p,
one for each pair (e, f) of the decomposition type, of W(X^f, Y^f) at X = p
and Y = t = p^{-s}.  `LocalFactor.from_euler` specialises each factor on its
own and multiplies the univariate results; `euler` prints the whole factor.

The global coefficients use the uniformity of that product instead: before
X = p is put in, it depends only on the residue degrees f.  So
`global_coefficients` builds, once per decomposition type and t-order, the
truncated series of prod_f W(X^f, t^f) with coefficients Laurent polynomials
in X (`_type_series`), and each prime evaluates it at X = p.  The values stay
exact all the way (integers in every case we generate, enforced loudly).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt

from .laurent import (
    InputError,
    Record,
    ResourceGuardError,
    _check_order,
    _divide_geometric,
)
from .families import check_base_extension, make_W
from .numberfield import (
    MAX_PRIME,
    UnsupportedRamifiedPrimeError,
    _check_prime,
    _primes_to_decompose,
    _sieve_degrees,
    decomposition_type,
)
from .primes import primes_upto

class DegreeMismatchError(InputError):
    """The field degree does not match the base-extension parameter d."""


class GlobalExpansionError(InputError):
    """A prime in range could not be handled; the whole expansion is refused."""


def _refuse_formal(w):
    """A formal W has no power series in t, so no local factor to expand."""
    if w.is_formal:
        raise InputError(
            "local factor undefined: a denominator factor does not vanish "
            "in positive Y-degree, so the form has no Dirichlet expansion"
        )


class LocalFactor(Record):
    """A local Euler factor at p, univariate in t = p^{-s}.

    numerator maps t-exponent -> integer coefficient; each denominator entry
    (c, b) stands for a factor (1 - c t^b) with c a power of p.
    """

    __slots__ = _fields = ("p", "numerator", "denominator")

    def __init__(self, p, numerator, denominator):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def from_euler(cls, w, p, pairs):
        """The product over (e, f) in `pairs` of W(X^f, Y^f) at X = p, Y = t
        (see `_specialise`)."""
        return cls(p, *_specialise(w, p, pairs))

    def expand(self, order):
        """Coefficients of t^0 .. t^order of the full rational function."""
        _check_order(order)
        series = [0] * (order + 1)
        for j, c in self.numerator:
            if j < 0:
                raise ValueError("negative t-exponent in local numerator")
            if j <= order:
                series[j] += c
        _divide_geometric(series, self.denominator)
        return series


def _specialise(w, p, pairs):
    """Numerator and denominator, as `LocalFactor` stores them, of the
    product over (e, f) in `pairs` of W(q, t^f) with q = p^f.

    The term c X^i Y^j becomes c q^i t^(f j), and (1 - X^a Y^b) becomes
    (1 - q^a t^(f b)).  The factor is built in full, with integers from the
    start; the global expansion cuts its series once per decomposition type
    instead (see `_type_series`).
    """
    _refuse_formal(w)
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
    return numerator, tuple(sorted(denominator))


def _type_series(w, fs, order):
    """prod over f in `fs` of W(X^f, t^f), through t^order, before X = p.

    Returns (negative_x, tail, series).  series[k] is the t^k coefficient and
    tail the t^j coefficients with j < 0, each a Laurent polynomial in X as a
    tuple of (exponent, coefficient) pairs; negative_x lists (-i, c) for the
    numerator terms c X^i Y^j of W with i < 0.  Only what can reach t^0 ..
    t^order is formed: numerator terms and partial products past the cut are
    dropped, and so are the denominator factors with f b > order.  The cut is
    `order` widened by the negative t-exponents the factors can contribute,
    so series and tail agree with the full product.  A prime p of this type
    reads its local factor off by `_local_series`.
    """
    low = min((j for _, j in w.numerator.terms), default=0)
    cut = order - sum(min(0, f * low) for f in fs)
    numerator = {0: {0: 1}}  # t-exponent -> {X-exponent: coefficient}
    for f in fs:
        factor = {}
        for (i, j), c in w.numerator.terms.items():
            if f * j <= cut:
                factor.setdefault(f * j, {})[f * i] = c
        product = {}
        for j1, poly1 in numerator.items():
            for j2, poly2 in factor.items():
                if j1 + j2 <= cut:
                    out = product.setdefault(j1 + j2, {})
                    for m1, c1 in poly1.items():
                        for m2, c2 in poly2.items():
                            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
        numerator = product
    series = [numerator.get(k, {}) for k in range(order + 1)]
    # divide by each (1 - X^(f a) t^(f b)) that reaches t^order, in place
    for fa, fb in [(f * a, f * b) for f in fs for a, b in w.denominator if f * b <= order]:
        for k in range(fb, order + 1):
            out = series[k]
            for m, c in series[k - fb].items():
                out[m + fa] = out.get(m + fa, 0) + c

    def terms(poly):
        return tuple((m, c) for m, c in poly.items() if c)

    negative_x = tuple((-i, c) for (i, _), c in w.numerator.terms.items() if i < 0)
    tail = [terms(poly) for j, poly in numerator.items() if j < 0]
    return negative_x, tail, [terms(poly) for poly in series]


def _evaluate(terms, p):
    """A Laurent polynomial in X, as (exponent, coefficient) pairs, at X = p.

    A negative exponent is taken by exact division: once the integrality of
    W's terms at p is checked, every coefficient of X^-m is a multiple of p^m.
    """
    return sum(c * p**m if m >= 0 else c // p ** (-m) for m, c in terms)


def _local_series(w, p, fs, order, by_type):
    """The coefficients of t^0 .. t^order of the local factor at a prime p
    with residue degrees `fs`, as `LocalFactor.from_euler(...).expand(order)`
    gives them, with its checks in its order.

    The `_type_series` of (fs, order) is taken from `by_type` or built into
    it, so it is built once per type however many primes share it.
    """
    key = fs, order
    if key not in by_type:
        by_type[key] = _type_series(w, fs, order)
    negative_x, tail, series = by_type[key]
    q = p ** fs[-1]  # (p^f)^-i | c for the largest f covers every f
    if any(c % q**i for i, c in negative_x):
        raise ValueError("non-integral local numerator coefficient")
    if any(_evaluate(poly, p) for poly in tail):
        raise ValueError("negative t-exponent in local numerator")
    return [_evaluate(poly, p) for poly in series]


def _linear_t_vanishes(w):
    """True when no local factor of W, at any p and type, has a t^1 term or
    fails a check of `_local_series`: no numerator term c X^i Y^j has i < 0
    (integral at p or not), j < 0 (refused at p or not, and able to reach
    t^1) or j = 1, and no denominator factor is (1 - X^a Y)."""
    terms, factors = w.numerator.terms, w.denominator
    return all(i >= 0 and j >= 0 and j != 1 for i, j in terms) and all(b != 1 for _, b in factors)


def local_factor(family, d, field, p, pairs=None):
    """The local factor of the pro-isomorphic zeta function of the family's
    lattice base-extended along `field`, at the rational prime p.

    `pairs` overrides the computed decomposition type (for primes the index
    test refuses): integers e, f >= 1 with sum of e*f equal to the degree.
    p is checked to be a prime up to MAX_PRIME either way.  The Z^n
    families are refused at d >= 2 (`families.check_base_extension`)."""
    if field.degree != d:
        raise DegreeMismatchError(
            f"field degree {field.degree} != extension parameter d={d}"
        )
    check_base_extension(family, d)
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

    W is built once.  The factor at p is read through t^kmax only, where
    p^kmax is the largest power of p up to the limit: kmax = 1 for every p
    above the square root of the limit.  By uniformity that series is one
    Laurent polynomial in X per power of t for all primes with the same
    residue degrees fs and the same kmax, so it is built and cut once per
    key (fs, kmax), and each prime evaluates it at X = p (see
    `_local_series`).  That memo lives for this call only, since the series
    depend on the family.
    The coefficients are built on their support: b_1 = 1 and every other b_n
    starts at 0.  The primes are read in increasing order, and for each
    nonzero b_{p^k} every n = m p^k up to the limit, with m prime to p and
    b_m nonzero, is written once, as b_m b_{p^k}.  So n is written when its
    largest prime p is read, from the cofactor m, whose primes are all below
    p and which is therefore already final.  An n never written stays 0.
    For a W with no t^1 term at any prime (`_linear_t_vanishes`: every
    family but the Z^n ones, abelian:n and free:c:1), a p above the square
    root has b_p = 0 whatever its type, so no multiple of it is written; it
    is read only where the index test may refuse it
    (`numberfield._primes_to_decompose`), and b_n is nonzero only where
    p | n implies p^2 | n.
    The Z^n families read every prime, but they are refused at d >= 2
    (`families.check_base_extension`), and over Q every type is (1,).
    The other primes take their residue degrees fs from
    `numberfield._sieve_degrees`, by the route of `decomposition_type`.
    A formal W is refused before any prime is looked at.  Every prime up to
    the limit must admit a decomposition type; a refused ramified prime
    aborts the whole computation with a clear message.
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
    check_base_extension(family, d)
    w = make_W(family, d)
    _refuse_formal(w)
    coeffs = [0] * (limit + 1)  # index 0 unused
    coeffs[1] = 1
    decomposed = primes_upto(limit)
    if _linear_t_vanishes(w):
        decomposed = _primes_to_decompose(field, decomposed, isqrt(limit))
    degrees = _sieve_degrees(field, decomposed)
    by_type = {}
    for p in decomposed:
        kmax = 0
        q = p
        while q <= limit:
            kmax += 1
            q *= p
        try:
            fs = next(degrees)
        except UnsupportedRamifiedPrimeError as exc:
            raise GlobalExpansionError(
                f"cannot expand to {limit}: prime {p} refused ({exc})"
            ) from exc
        pk = 1
        for value in _local_series(w, p, fs, kmax, by_type)[1:]:
            pk *= p
            if value:
                # n = m p^k is written once, at its largest prime, from b_m:
                # an m prime to p is final if its primes are below p, else 0
                top = limit // pk
                for m in compress(range(1, top + 1), coeffs[1 : top + 1]):
                    if m % p:
                        coeffs[m * pk] = coeffs[m] * value
    return coeffs[1:]


class ShapeAbscissa(Record):
    """Abscissa read off the denominator shape: v = max (a+1)/b over its factors.

    shape_verified is True when the numerator proves v is the abscissa of
    the Euler product of W(p, p^-s): its constant term is 1 and every other
    term c X^i Y^j has c > 0, j >= 1 and (i+1)/j < v.  Then every factor
    has nonnegative coefficients, so the product converges exactly where its
    denominator and numerator parts do, for s > v and s > each (i+1)/j (du
    Sautoy-Woodward, LNM 1925).  A negative coefficient could cancel the
    pole and a term above v moves it; a term at v (bk's) shares the pole,
    and the strict rule leaves that unverified too.  When False the value
    is advisory only.
    """

    __slots__ = _fields = ("value", "shape_verified")

    def __init__(self, value, shape_verified):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "shape_verified", shape_verified)


def abscissa_from_shape(w):
    if not w.denominator:
        raise InputError("no denominator factors: no pole to read off")
    if w.is_formal:
        raise InputError(
            "abscissa undefined: a denominator factor does not vanish in "
            "positive Y-degree, so the series does not converge anywhere"
        )
    value = max(Fraction(a + 1, b) for a, b in w.denominator)
    top, bottom = value.numerator, value.denominator
    terms = w.numerator.terms
    verified = terms.get((0, 0)) == 1 and all(
        c > 0 and j >= 1 and (i + 1) * bottom < top * j
        for (i, j), c in terms.items()
        if i or j
    )
    return ShapeAbscissa(value, verified)
