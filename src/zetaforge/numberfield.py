"""Decomposition of rational primes in monogenic number fields.

The field is presented by a monic integer polynomial f.  The factorization
type of f modulo p, the multiplicity e and degree of each irreducible factor,
gives the ramification/inertia pairs (e_i, f_i) whenever p does not divide
the index of the equation order; that holds whenever every e_i is 1, and
otherwise Dedekind's index test decides on the radical of f mod p.  Primes
where the test fails are refused — callers may override with an explicit
decomposition type.

Polynomials over F_p are lists of ints in [0, p), leading coefficient first
and without leading zeros (the zero polynomial is []).  `_factor_type` reads
the type from the gcds of f with x^(p^i) - x, one degree i at a time, and
needs neither the complete factors nor a squarefree split.  At a prime p not
dividing disc(f), f mod p is squarefree, every e is 1, and the residue
degrees are all that `decomposition_type` and an expansion need:
`_residue_degrees` reads them off the same gcds with no multiplicities and
no radical.  At an odd such p, Stickelberger's theorem, (disc f / p) =
(-1)^(d - r), gives the parity of the number r of factors from one modular
power; once at most two factors can be left, it mostly settles their
degrees, so degree 2 needs no x^p, degree 3 no gcd (and no x^p when r is
even) and degree 4 no composition.  `_discriminant`, Res(f, f') by a
fraction-free (Bareiss) determinant, tells those primes apart; it is kept
per minimal polynomial (`_field_discriminant`).  Only at the primes dividing
it can the index test refuse, so an expansion that reads no type above a
bound decomposes only the primes up to it and those
(`_primes_to_decompose`).  Every other prime is decomposed once per session
(`_unramified_degrees`), whether a single-prime request or an expansion
asks for it.

A repeated factor is refused by the same discriminant, which is 0 exactly
then.  The factorization types at the primes l < 100 where f mod l is
squarefree certify that f is irreducible over Q; the answer is kept per
polynomial (`_certified`), since a run builds the same fields again and
again.  sympy is imported only by `_factor_over_q`, for squarefree
polynomials they cannot certify, and a refusal is raised at every
construction.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import EulerForm, InputError, Record, ResourceGuardError
from .primes import is_prime, primes_upto

MAX_PRIME = 10**6

# The primes l whose factorization patterns mod l may certify irreducibility.
_CERTIFICATE_PRIMES = primes_upto(100)


class UnsupportedRamifiedPrimeError(InputError):
    """The prime divides the index of the equation order; no type is computed."""


def _check_prime(p):
    if type(p) is not int:
        raise InputError(f"p must be an integer, got {p!r}")
    if p > MAX_PRIME:
        raise ResourceGuardError(f"primes capped at {MAX_PRIME}, got {p}")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")


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


def _x_power(n, f, p):
    """x^n mod f, by left-to-right squaring.  Each bit squares from symmetric
    products, multiplies by x for a 1-bit by appending a 0, and then reduces
    once."""
    out = [1]
    for bit in bin(n)[2:]:
        size = len(out)
        square = [0] * (2 * size - 1) if out else []
        for i, a in enumerate(out):
            square[2 * i] += a * a
            twice = a + a
            for j in range(i + 1, size):
                square[i + j] += twice * out[j]
        if bit == "1":
            square.append(0)
        out = _rem(square, f, p)
    return out


def _compose(g, h, f, p):
    """g(h) mod f, by Horner's rule."""
    out = []
    for c in g:
        out = _mul(out, h) or [0]
        out[-1] += c
        out = _rem(out, f, p)
    return out


def _minus_x(g, p):
    g = [0] * (2 - len(g)) + g
    g[-2] -= 1
    return _reduce(g, p)


def _factor_type(f, p):
    """The factorization type of a monic f over F_p: the sorted pairs
    (e, deg phi) over its irreducible factors phi^e, and its radical, the
    product of the phi.

    x^(p^i) - x is the product of the monic irreducibles of degree dividing
    i, so once the factors of degree < i are divided out, a = gcd(f,
    x^(p^i) - x) is the product of the phi of degree i.  It is squarefree
    whether f is or not, so no derivative and no p-th root are needed:
    after f <- f/a, b = gcd(f, a) keeps the phi of multiplicity > e, and the
    other (deg a - deg b)/i have multiplicity e.  Once 2i > deg f, what is
    left of f is 1 or irreducible.  When x^(p^i) = x mod f, a is f itself:
    what is left is squarefree, every phi of degree i.
    """
    pairs, radical, i = [], [1], 1
    while 2 * i < len(f):
        if i == 1:
            xq = xp = _x_power(p, f, p)  # x^p and x^(p^i) mod f
        else:
            xq = _compose(xq, xp, f, p)
        if xq == [1, 0]:
            pairs += [(1, i)] * ((len(f) - 1) // i)
            radical, f = _reduce(_mul(radical, f), p), [1]
            break
        a = _gcd(f, _minus_x(xq, p), p)
        if len(a) > 1:
            radical = _reduce(_mul(radical, a), p)
            e = 1
            while len(a) > 1:
                f = _quo(f, a, p)
                b = _gcd(f, a, p)
                pairs += [(e, i)] * ((len(a) - len(b)) // i)
                a, e = b, e + 1
            xp, xq = _rem(xp, f, p), _rem(xq, f, p)
        i += 1
    if len(f) > 1:
        pairs.append((1, len(f) - 1))
        radical = _reduce(_mul(radical, f), p)
    return sorted(pairs), radical


def _residue_degrees(f, p, disc):
    """The sorted degrees of the irreducible factors of a monic f over F_p,
    given disc = disc(f) over Z, which p must not divide (so f is
    squarefree).

    At an odd p, Stickelberger's theorem gives the parity of the number r of
    factors: (disc / p) = (-1)^(d - r), one `pow` for the Legendre symbol.
    With the factors of degree < i divided out of f, let D (`size`) be the
    degree of what is left; every factor left has degree >= i.  When D < 3i,
    what is left has one or two factors, and an odd number gives [D].  When
    D <= 2i + 1, an even number is two factors (at i = 1 and D = 3, three
    would be odd), [i, D - i].  Only else does the step run: it first asks
    whether x^(p^i) = x mod f, when every factor left has degree i; at D = 3,
    i = 1, where r is odd by then, a no leaves one factor; else g = gcd(f,
    x^(p^i) - x), the product of the factors of degree i, is divided out.
    So degree 2 needs no x^p, degree 3 no gcd and no x^p at even r, and
    degree 4 at most one gcd and no composition.  At p = 2 no parity is
    read: at D = 2i after the first test, what is left is irreducible (a
    factor of degree i would leave a cofactor of degree i and pass it), and
    once D < 2i it is irreducible too.
    """
    if not disc % p:
        raise AssertionError(f"{p} divides the discriminant: f mod {p} is not squarefree")
    # r mod 2, for r the number of factors of f; None at p = 2
    parity = None if p == 2 else (len(f) - (pow(disc % p, (p - 1) // 2, p) == 1)) % 2
    degrees, i = [], 1
    while True:
        size = len(f) - 1
        if size < 2 * i:
            return tuple(degrees + [size])
        if parity is not None:
            odd = (parity - len(degrees)) % 2  # of the number of factors left
            if odd and size < 3 * i:
                return tuple(degrees + [size])
            if not odd and size <= 2 * i + 1:
                return tuple(degrees + [i, size - i])
        if i == 1:
            xq = xp = _x_power(p, f, p)
        else:
            xp = _rem(xp, f, p)
            xq = _compose(_rem(xq, f, p), xp, f, p)
        if xq == [1, 0]:
            return tuple(degrees + [i] * (size // i))
        if size == 2 * i:
            return tuple(degrees + [size])
        if parity and i == 1 and size == 3:
            return (3,)
        g = _gcd(f, _minus_x(xq, p), p)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            f = _quo(f, g, p)
        i += 1


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


def _discriminant(coeffs):
    """Exact discriminant of an integer polynomial (constant term first):
    (-1)^(n(n-1)/2) Res(f, f') / lc(f), with the resultant the determinant of
    the Sylvester matrix of f and f'.  0 when f is constant."""
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


def _certified_irreducible(f):
    """True when the factorization patterns of f mod the primes l < 100
    where f is squarefree leave no degree for a proper factor over Q: such a
    factor reduces mod l to a product of some of the irreducible factors mod
    l, so its degree is a sum of some of their degrees for every such l.
    One squarefree reduction shows f squarefree over Q as well.  False means
    undecided.  f is monic, leading coefficient first."""
    possible = set(range(1, len(f) - 1))
    for ell in _CERTIFICATE_PRIMES:
        pairs = _factor_type(_reduce(f, ell), ell)[0]
        if pairs[-1][0] == 1:
            sums = {0}
            for _, i in pairs:
                sums |= {s + i for s in sums}
            possible &= sums
            if not possible:
                return True
    return False


@lru_cache(maxsize=32)
def _certified(minpoly):
    """`_certified_irreducible` of a minimal polynomial, constant term first,
    kept for the fields a run builds again and again."""
    return _certified_irreducible(list(reversed(minpoly)))


@lru_cache(maxsize=32)
def _field_discriminant(minpoly):
    """`_discriminant` of a minimal polynomial, constant term first, kept
    like `_certified` for the fields a run meets again and again."""
    return _discriminant(minpoly)


def _primes_to_decompose(field, primes, bound):
    """The `primes` up to `bound`, in order, and those above it that divide
    the discriminant: only there can the index test refuse a prime."""
    disc = _field_discriminant(field.minpoly)
    return [p for p in primes if p <= bound or not disc % p]


def _sieve_degrees(field, primes):
    """Yield the sorted residue degrees of each of the increasing `primes`,
    one prime at a time, by the route of `decomposition_type`.

    At a p dividing the discriminant the full type runs, with the index
    test, and a refusal raises UnsupportedRamifiedPrimeError when that prime
    is reached; every other p reads `_unramified_degrees`, so a prime that
    an expansion and a single-prime request share is decomposed once.
    Degree 1 gives (1,) without the cache: Z^n over Q reads every prime up
    to the limit and would fill it.
    """
    d, disc = field.degree, _field_discriminant(field.minpoly)
    if not disc:
        raise AssertionError("a certified minimal polynomial has a nonzero discriminant")
    for p in primes:
        if not disc % p:
            yield tuple(sorted(f for _, f in _decomposition_type(field, p)))
        elif d == 1:
            yield (1,)
        else:
            yield _unramified_degrees(field.minpoly, p)


@lru_cache(maxsize=1024)
def _unramified_degrees(minpoly, p):
    """`_residue_degrees` of a minimal polynomial (constant term first) at a
    prime p not dividing its discriminant, kept for the session per
    (minpoly, p), for at most 1024 pairs.  `decomposition_type` reads it,
    and so does every expansion (`_sieve_degrees`); above degree 1 an
    expansion meets it only at the primes up to the square root of its
    limit, at most 168 of them."""
    disc = _field_discriminant(minpoly)
    return _residue_degrees(_reduce(list(reversed(minpoly)), p), p, disc)


def _factor_over_q(coeffs):
    """The irreducible factors over Q of the squarefree monic polynomial,
    each monic and constant term first (sympy's exact factorization)."""
    from sympy import Poly, factor_list, symbols

    _, factors = factor_list(Poly(list(reversed(coeffs)), symbols("x")))
    return [tuple(int(c) for c in reversed(fac.all_coeffs())) for fac, _ in factors]


class NumberField(Record):
    """A number field Q[x]/(minpoly); coefficients constant term first.

    The minimal polynomial must be monic, squarefree and irreducible over
    Q.  A repeated factor is refused first, by a zero discriminant.
    Irreducibility is then certified by factorization patterns mod small
    primes and, when those cannot decide, by an exact factorization;
    reducible input is refused naming an integer root (the least in absolute
    value, positive first) when there is one.
    """

    __slots__ = _fields = ("minpoly",)

    def __init__(self, minpoly):
        coeffs = tuple(minpoly)
        # integers only: a bool, float or string is refused, never truncated
        for c in coeffs:
            if type(c) is not int:
                raise InputError(f"minimal polynomial coefficients must be integers, got {c!r}")
        object.__setattr__(self, "minpoly", coeffs)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise InputError("minimal polynomial must be monic of degree >= 1")
        if self.degree > 1:
            if coeffs[0] == 0:
                raise InputError("reducible: x divides the polynomial")
            if not _field_discriminant(coeffs):
                raise InputError("not squarefree")
            if not _certified(coeffs):
                factors = _factor_over_q(coeffs)
                roots = [-fac[0] for fac in factors if len(fac) == 2]
                if roots:
                    root = min(roots, key=lambda r: (abs(r), r < 0))
                    raise InputError(f"reducible: integer root {root}")
                if len(factors) > 1:
                    least = min(factors, key=lambda fac: (len(fac), fac))
                    csv = ",".join(map(str, least))
                    raise InputError(f"reducible: factor {csv} divides the polynomial")

    @property
    def degree(self):
        return len(self.minpoly) - 1


def rationals():
    """Q presented by the polynomial x."""
    return NumberField((0, 1))


def _index_coprime(f, p, g):
    """True iff p does not divide [O_K : Z[x]/(f)], by Dedekind's index test.

    `f` is the monic polynomial over Z, leading coefficient first, and `g`
    the radical of f mod p, with cofactor h = (f mod p)/g.  With both lifted
    to Z[x] (here: coefficients in [0, p)) and F = (g*h - f)/p, the test asks
    gcd(Fbar, g, h) = 1.  The answer does not depend on the lifts.
    """
    h = _quo(_reduce(f, p), g, p)
    gh = _mul(g, h)
    diff = [a - b for a, b in zip(gh, f)]
    if len(gh) != len(f) or any(c % p for c in diff):
        raise AssertionError("g*h - f should vanish mod p by construction")
    big_f = _reduce([c // p for c in diff], p)
    return len(_gcd(_gcd(big_f, g, p), h, p)) <= 1


def decomposition_type(field, p):
    """The sorted (e_i, f_i) pairs of the primes above p.

    An irreducible factor phi^e of the polynomial mod p contributes the pair
    (e, deg phi).  Valid whenever p does not divide the index of the
    equation order: either every e is 1 (for monic f that is exactly p not
    dividing the discriminant), or the index test certifies it.  At such a
    p every pair is (1, f) and the residue degrees f are all that is read
    (`_residue_degrees`, where the parity of the number of factors often
    decides without x^p); the discriminant is computed once per minimal
    polynomial, and the degrees once per (minpoly, p) in a session, in
    `_unramified_degrees`, which the expansions share (an `lru_cache` of at
    most 1024 pairs; each call returns a fresh list).  At a p dividing the
    discriminant the full type runs, with the index test, on every call,
    and primes it fails raise UnsupportedRamifiedPrimeError ("unsupported
    ramified prime").
    """
    _check_prime(p)
    if field.degree == 1:
        return [(1, 1)]
    if _field_discriminant(field.minpoly) % p:
        return [(1, f) for f in _unramified_degrees(field.minpoly, p)]
    return _decomposition_type(field, p)


def _decomposition_type(field, p):
    """`decomposition_type` for a p already known to be a prime <= MAX_PRIME
    (a sieve prime), without the primality test."""
    poly = list(reversed(field.minpoly))
    pairs, radical = _factor_type(_reduce(poly, p), p)
    if pairs[-1][0] > 1 and not _index_coprime(poly, p, radical):
        raise UnsupportedRamifiedPrimeError(
            f"unsupported ramified prime {p}: it divides the index of the equation order"
        )
    assert sum(e * f for e, f in pairs) == field.degree
    return pairs


def dedekind_zeta_local(field, p):
    """The local factor prod_i (1 - t^{f_i})^{-1} as an EulerForm in Y = t."""
    pairs = decomposition_type(field, p)
    return EulerForm.from_denominator([(0, f) for _, f in pairs])
