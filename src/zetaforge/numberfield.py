"""Decomposition of rational primes in monogenic number fields.

The field is presented by a monic integer polynomial f.  Squarefree and
distinct-degree factorization of f modulo p give the ramification/inertia
pairs (e_i, f_i) whenever p does not divide the index of the equation order;
that holds whenever every e_i is 1, and otherwise Dedekind's index test
decides.  Primes where the test fails are refused — callers may override
with an explicit decomposition type.

Polynomials over F_p are lists of ints in [0, p), leading coefficient first
and without leading zeros (the zero polynomial is []), as in sympy's
galoistools; `_sqf_list` and `_ddf` are step-for-step ports of its
`gf_sqf_list` and `gf_ddf_zassenhaus`.  sympy itself is imported only by
`_factor_over_q`, for fields whose mod-l factorization patterns cannot
certify irreducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import EulerForm, ResourceGuardError
from .primes import is_prime, primes_upto

MAX_PRIME = 10**6

# The primes l whose factorization patterns mod l may certify irreducibility.
_CERTIFICATE_PRIMES = primes_upto(100)


class UnsupportedRamifiedPrimeError(ValueError):
    """The prime divides the index of the equation order; no type is computed."""


def _check_prime(p):
    if p > MAX_PRIME:
        raise ResourceGuardError(f"primes capped at {MAX_PRIME}, got {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# F_p[x]


def _reduce(f, p):
    """f mod p without leading zeros; f may have any integer coefficients."""
    f = [c % p for c in f]
    while f and not f[0]:
        f.pop(0)
    return f


def _mul(f, g):
    """The product over Z; reduce it for the product over F_p."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _inverse(a, p):
    if not a % p:
        raise AssertionError(f"{a} is not a unit mod {p}")
    return pow(a, -1, p)


def _monic(f, p):
    if not f:
        return []
    inv = _inverse(f[0], p)
    return [c * inv % p for c in f]


def _divmod(f, g, p):
    """Quotient and remainder of f by g != 0.  f may be any integer list (an
    unreduced product, say); the quotient is reduced when f is."""
    if not g:
        raise AssertionError("division by the zero polynomial")
    inv = 1 if g[0] == 1 else _inverse(g[0], p)
    shift = len(f) - len(g)
    if shift < 0:
        return [], _reduce(f, p)
    r = list(f)
    for i in range(shift + 1):
        c = r[i] = r[i] * inv % p
        if c:
            for j in range(1, len(g)):
                r[i + j] -= c * g[j]  # reduced mod p once it leads, or by _reduce
    return r[: shift + 1], _reduce(r[shift + 1 :], p)


def _rem(f, g, p):
    return _divmod(f, g, p)[1]


def _quo(f, g, p):
    return _divmod(f, g, p)[0]


def _gcd(f, g, p):
    """The monic gcd ([] when both are zero)."""
    while g:
        f, g = g, _rem(f, g, p)
    return _monic(f, p)


def _diff(f, p):
    n = len(f) - 1
    return _reduce([c * (n - i) for i, c in enumerate(f[:-1])], p)


def _xpow(n, g, p):
    """x^n mod g, by left-to-right squaring: a multiplication by x is a shift."""
    out = [1]
    for bit in bin(n)[2:]:
        out = _rem(_mul(out, out), g, p)
        if bit == "1":
            out = _rem(out + [0], g, p)
    return out


def _sqf_list(f, p):
    """Squarefree decomposition of f != 0: pairs (part, k), the parts monic,
    squarefree and pairwise coprime, f = lc(f) * prod part^k.  When f' = 0,
    f is a polynomial in x^p and its p-th root is decomposed instead, with
    every multiplicity times p."""
    f = _monic(f, p)
    if len(f) < 2:
        return []
    n, factors = 1, []
    while True:
        df = _diff(f, p)
        if df:
            g = _gcd(f, df, p)
            h = _quo(f, g, p)
            i = 1
            while h != [1]:
                common = _gcd(g, h, p)
                part = _quo(h, common, p)
                if len(part) > 1:
                    factors.append((part, i * n))
                g, h, i = _quo(g, common, p), common, i + 1
            if g == [1]:
                return factors
            f = g
        f, n = f[::p], n * p  # a^(1/p) = a in F_p


def _frobenius_base(g, p):
    """x^(i*p) mod g for i = 0 .. deg g - 1."""
    n = len(g) - 1
    if n < 1:
        return []
    base = [[1]]
    if p < n:
        for _ in range(1, n):
            base.append(_rem(base[-1] + [0] * p, g, p))
    elif n > 1:
        base.append(_xpow(p, g, p))
        for _ in range(2, n):
            base.append(_rem(_mul(base[-1], base[1]), g, p))
    return base


def _frobenius_map(f, g, base, p):
    """f^p mod g, as sum_i f_i (x^(i*p) mod g) over the coefficients f_i."""
    if len(f) >= len(g):
        f = _rem(f, g, p)
    out = [0] * (len(g) - 1)
    for i, c in enumerate(reversed(f)):
        row = base[i]
        offset = len(out) - len(row)
        for j, b in enumerate(row):
            out[offset + j] += c * b
    return _reduce(out, p)


def _minus_x(g, p):
    g = [0] * (2 - len(g)) + g
    g[-2] -= 1
    return _reduce(g, p)


def _ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f: pairs
    (block, i) with i increasing, each block the product of the irreducible
    factors of f of degree i; a last block of degree > i/2 of what remains is
    irreducible and comes with its own degree."""
    i, g, factors = 1, [1, 0], []
    base = _frobenius_base(f, p)
    while 2 * i <= len(f) - 1:
        g = _frobenius_map(g, f, base, p)
        h = _gcd(f, _minus_x(g, p), p)
        if h != [1]:
            factors.append((h, i))
            f = _quo(f, h, p)
            g = _rem(g, f, p)
            base = _frobenius_base(f, p)
        i += 1
    if f != [1]:
        factors.append((f, len(f) - 1))
    return factors


# ---------------------------------------------------------------------------
# Polynomials over Z


def _det(rows):
    """Exact determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination."""
    m = [list(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def discriminant(coeffs):
    """Exact discriminant of an integer polynomial (constant term first):
    (-1)^(n(n-1)/2) Res(f, f') / lc(f), with the resultant the determinant of
    the Sylvester matrix of f and f'.  0 when f is constant."""
    coeffs = [int(c) for c in coeffs]
    if len(coeffs) < 2:
        raise ValueError("polynomial must be nonconstant")
    f = list(reversed(coeffs))
    while f and not f[0]:
        f.pop(0)
    n = len(f) - 1
    if n < 1:
        return 0
    df = [c * (n - i) for i, c in enumerate(f[:-1])]
    size = 2 * n - 1
    rows = [[0] * i + f + [0] * (size - n - 1 - i) for i in range(n - 1)]
    rows += [[0] * i + df + [0] * (size - n - i) for i in range(n)]
    quotient, remainder = divmod(_det(rows), f[0])
    if remainder:
        raise AssertionError("Res(f, f') should be divisible by lc(f)")
    return -quotient if n * (n - 1) // 2 % 2 else quotient


def _certified_irreducible(f, disc):
    """True when the factorization patterns of f mod the primes l < 100 not
    dividing disc leave no degree for a proper factor over Q: such a factor
    reduces mod l to a product of some of the irreducible factors mod l, so
    its degree is a sum of some of their degrees for every l.  False means
    undecided.  f is monic, leading coefficient first, with disc != 0, so f
    mod l is squarefree."""
    possible = set(range(1, len(f) - 1))
    for ell in _CERTIFICATE_PRIMES:
        if disc % ell:
            sums = {0}
            for block, i in _ddf(_reduce(f, ell), ell):
                for _ in range((len(block) - 1) // i):
                    sums |= {s + i for s in sums}
            possible &= sums
            if not possible:
                return True
    return False


def _factor_over_q(coeffs):
    """The irreducible factors over Q of the monic polynomial, each monic and
    constant term first (sympy's exact factorization)."""
    from sympy import Poly, factor_list, symbols

    _, factors = factor_list(Poly(list(reversed(coeffs)), symbols("x")))
    return [tuple(int(c) for c in reversed(fac.all_coeffs())) for fac, _ in factors]


@dataclass(frozen=True)
class NumberField:
    """A number field Q[x]/(minpoly); coefficients constant term first.

    The minimal polynomial must be monic, squarefree (nonzero discriminant)
    and irreducible over Q.  Irreducibility is certified by factorization
    patterns mod small primes and, when those cannot decide, by an exact
    factorization; reducible input is refused, naming an integer root (the
    least in absolute value, positive first) when there is one.
    """

    minpoly: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.minpoly)
        object.__setattr__(self, "minpoly", coeffs)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        if self.degree > 1:
            if coeffs[0] == 0:
                raise ValueError("reducible: x divides the polynomial")
            disc = discriminant(coeffs)
            if disc == 0:
                raise ValueError("not squarefree")
            if not _certified_irreducible(list(reversed(coeffs)), disc):
                factors = _factor_over_q(coeffs)
                roots = [-fac[0] for fac in factors if len(fac) == 2]
                if roots:
                    root = min(roots, key=lambda r: (abs(r), r < 0))
                    raise ValueError(f"reducible: integer root {root}")
                if len(factors) > 1:
                    least = min(factors, key=lambda fac: (len(fac), fac))
                    csv = ",".join(map(str, least))
                    raise ValueError(f"reducible: factor {csv} divides the polynomial")

    @property
    def degree(self):
        return len(self.minpoly) - 1


def rationals():
    """Q presented by the polynomial x."""
    return NumberField((0, 1))


def _index_coprime(f, p, parts):
    """True iff p does not divide [O_K : Z[x]/(f)], by Dedekind's index test.

    `f` is the polynomial over Z, leading coefficient first, and `parts` its
    squarefree decomposition mod p, [(g_k, k), ...].  The radical of f mod p
    is g = prod g_k and its cofactor is h = prod g_k^(k-1); with both lifted
    to Z[x] (here: the products over Z of the parts) and F = (g*h - f)/p, the
    test asks gcd(Fbar, g, h) = 1.  The answer does not depend on the lifts.
    """
    g, h = [1], [1]
    for part, k in parts:
        g = _mul(g, part)
        for _ in range(k - 1):
            h = _mul(h, part)
    gh = _mul(g, h)
    diff = [a - b for a, b in zip(gh, f)]
    if len(gh) != len(f) or any(c % p for c in diff):
        raise AssertionError("g*h - f should vanish mod p by construction")
    big_f = _reduce([c // p for c in diff], p)
    return len(_gcd(_gcd(big_f, _reduce(g, p), p), _reduce(h, p), p)) <= 1


def decomposition_type(field, p):
    """The sorted (e_i, f_i) pairs of the primes above p.

    A squarefree part of multiplicity e whose distinct-degree part of degree
    f has n*f roots contributes n pairs (e, f).  Valid whenever p does not
    divide the index of the equation order: either every e is 1 (for monic f
    that is exactly p not dividing the discriminant), or the index test
    certifies it.  Other primes raise UnsupportedRamifiedPrimeError
    ("unsupported ramified prime").
    """
    _check_prime(p)
    poly = list(reversed(field.minpoly))
    parts = _sqf_list(_reduce(poly, p), p)
    pairs = sorted(
        (e, i)
        for part, e in parts
        for block, i in _ddf(part, p)
        for _ in range((len(block) - 1) // i)
    )
    if pairs[-1][0] > 1 and not _index_coprime(poly, p, parts):
        raise UnsupportedRamifiedPrimeError(
            f"unsupported ramified prime {p}: it divides the index of the equation order"
        )
    assert sum(e * f for e, f in pairs) == field.degree
    return pairs


def dedekind_zeta_local(field, p):
    """The local factor prod_i (1 - t^{f_i})^{-1} as an EulerForm in Y = t."""
    pairs = decomposition_type(field, p)
    return EulerForm.from_denominator([(0, f) for _, f in pairs])
