"""Functional-equation extraction and the weight conjecture check.

A form W satisfies a functional equation when inverting both variables
reproduces W up to a sign and a monomial:

    W(X^{-1}, Y^{-1}) = sign * X^a * Y^b * W(X, Y).

The denominator factors always transform this way; existence therefore
reduces to sign-antipalindromicity of the numerator, which is decided
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .families import UnsupportedFamilyError, _check_degree, free_alpha_beta, make_W, weight
from .laurent import DegenerateSpecializationError, LaurentPoly, Record


class SymmetryFactor(Record):
    __slots__ = _fields = ("sign", "a", "b")

    def __init__(self, sign, a, b):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _numerator_antipalindrome(num):
    """Find (eps, u, v) with N(X^{-1},Y^{-1}) = eps * X^{-u} Y^{-v} N(X,Y),
    or None.  The candidate monomial is pinned by the lexicographic extreme
    terms; every term is then checked against its mirror."""
    if not num.terms:
        return None
    kmin, kmax = num.lex_extremes()
    u, v = kmin[0] + kmax[0], kmin[1] + kmax[1]
    c_lo, c_hi = num.terms[kmin], num.terms[kmax]
    if abs(c_lo) != abs(c_hi):
        return None
    eps = 1 if c_lo == c_hi else -1
    for (i, j), c in num.terms.items():
        if num.terms.get((u - i, v - j)) != eps * c:
            return None
    return eps, u, v


def extract_functional_equation(w):
    """The SymmetryFactor of w, or None when no functional equation exists."""
    sign0, a_total, b_total = w.invert_variables()
    hit = _numerator_antipalindrome(w.numerator)
    if hit is None:
        return None
    eps, u, v = hit
    return SymmetryFactor(sign=sign0 * eps, a=a_total - u, b=b_total - v)


def verify_functional_equation(w, factor):
    """Confirm W(X^{-1},Y^{-1}) = sign X^a Y^b W(X,Y) as exact rational
    functions.  Clearing each inverted denominator factor against its upright
    twin leaves a plain polynomial identity."""
    lhs = w.numerator.invert() * LaurentPoly.monomial(*w.invert_variables())
    rhs = w.numerator * LaurentPoly.monomial(factor.sign, factor.a, factor.b)
    return lhs == rhs


def predicted_symmetry(family, d):
    """The closed-form symmetry factor each family is known to satisfy,
    or None for the one family without a functional equation."""
    _check_degree(d)
    kind, p = family.kind, family.params
    if kind == "abelian":
        raise UnsupportedFamilyError("no closed symmetry form for abelian lattices")
    if kind == "free":
        c, g = p
        alpha, beta = free_alpha_beta(c, g, d)
        return SymmetryFactor((-1) ** g, g * beta + comb(g, 2), g * alpha)
    if kind == "heisenberg":
        m = p[0]
        return SymmetryFactor((-1) ** (m + 1), m * m + 4 * m * d, 2 * (m + 1))
    if kind == "lmn":
        m, n = p
        r1 = comb(m + n - 2, m - 1)
        r2 = comb(m + n - 1, m)
        return SymmetryFactor(
            (-1) ** (n + 1),
            comb(n, 2) + comb(2 * m + n - 2, 2 * m - 1) + 2 * d * n * (r1 + r2),
            r1 + r2 + 2 * n,
        )
    if kind == "maxclass":
        # X-exponent is the sum of the two denominator X-exponents,
        # (c-1)(2d+c-2) + (2d+2c-3) = c(2d+c-1) - 1; at c = 2 this agrees
        # with the heisenberg m=1 value 4d+1, as the cross-family identity
        # requires.
        c = p[0]
        return SymmetryFactor(1, c * (2 * d + c - 1) - 1, comb(c + 1, 2) + 1)
    if kind == "f4":
        return SymmetryFactor(-1, 16 + 10 * d, 15)
    if kind == "q5":
        return SymmetryFactor(1, 9 + 9 * d, 9)
    if kind == "bk":
        return None
    raise UnsupportedFamilyError(kind)


def check_weight_conjecture(family, d):
    """True iff the extracted Y-exponent b equals wt(L) for this family."""
    if family.kind in ("abelian", "bk"):
        raise UnsupportedFamilyError(
            f"weight conjecture is not applicable to {family.kind}"
        )
    factor = extract_functional_equation(make_W(family, d))
    return factor is not None and factor.b == weight(family)


def reduced_leading_ratio(w):
    """(e, c) with W(1, Y^{-1}) / W(1, Y) ~ c * Y^e as Y grows.

    At X=1 every denominator factor becomes 1 - Y^b and contributes -Y^b to
    the ratio; the numerator contributes its trailing term against its
    leading term.  c keeps its sign; callers wanting the absolute constant
    compare |c|.
    """
    spec = w.numerator.evaluate_x(1)
    if not spec:
        raise DegenerateSpecializationError("numerator vanishes at X = 1")
    e_min, e_max = min(spec), max(spec)
    sign, _, b_total = w.invert_variables()
    exponent = b_total - e_min - e_max
    constant = Fraction(spec[e_min], spec[e_max]) * sign
    return exponent, constant
