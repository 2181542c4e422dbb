"""Decomposition of rational primes in monogenic number fields.

The field is presented by a monic integer polynomial f.  Squarefree and
distinct-degree factorization of f modulo p give the ramification/inertia
pairs (e_i, f_i) whenever p does not divide the index of the equation order;
that holds whenever every e_i is 1, and otherwise Dedekind's index test
decides.  Primes where the test fails are refused — callers may override
with an explicit decomposition type.
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy import Poly, divisors, isprime
from sympy import symbols as _symbols
from sympy.polys.densearith import dup_mul, dup_sub
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_ddf_zassenhaus,
    gf_degree,
    gf_from_int_poly,
    gf_gcd,
    gf_mul,
    gf_pow,
    gf_sqf_list,
)

from .laurent import EulerForm, ResourceGuardError

MAX_PRIME = 10**6

_x = _symbols("x")


class UnsupportedRamifiedPrimeError(ValueError):
    """The prime divides the index of the equation order; no type is computed."""


def _check_prime(p):
    if p > MAX_PRIME:
        raise ResourceGuardError(f"primes capped at {MAX_PRIME}, got {p}")
    if not isprime(p):
        raise ValueError(f"{p} is not prime")


def _ascending_to_poly(coeffs):
    # sympy's dense representation is leading-first
    return Poly(list(reversed(coeffs)), _x)


@dataclass(frozen=True)
class NumberField:
    """A number field Q[x]/(minpoly); coefficients constant term first.

    The minimal polynomial must be monic and is *assumed* irreducible; only
    cheap necessary conditions (squarefree, no integer root) are checked here,
    the rest is the caller's obligation.
    """

    minpoly: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.minpoly)
        object.__setattr__(self, "minpoly", coeffs)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic of degree >= 1")
        if self.degree > 1:
            c0 = coeffs[0]
            if c0 == 0:
                raise ValueError("reducible: x divides the polynomial")
            for d in divisors(abs(c0)):
                for r in (d, -d):
                    if _eval_int_poly(coeffs, r) == 0:
                        raise ValueError(f"reducible: integer root {r}")
            poly = _ascending_to_poly(coeffs)
            if poly.gcd(poly.diff(_x)).degree() > 0:
                raise ValueError("not squarefree")

    @property
    def degree(self):
        return len(self.minpoly) - 1


def rationals():
    """Q presented by the polynomial x."""
    return NumberField((0, 1))


def _eval_int_poly(coeffs, v):
    out = 0
    for c in reversed(coeffs):
        out = out * v + c
    return out


def discriminant(coeffs):
    """Exact discriminant of an integer polynomial (constant term first)."""
    coeffs = [int(c) for c in coeffs]
    if len(coeffs) < 2:
        raise ValueError("polynomial must be nonconstant")
    return int(_ascending_to_poly(coeffs).discriminant())


def _index_coprime(f, p, parts):
    """True iff p does not divide [O_K : Z[x]/(f)], by Dedekind's index test.

    `f` is the polynomial over Z, leading coefficient first, and `parts` its
    squarefree decomposition mod p, [(g_k, k), ...].  The radical of f mod p
    is g = prod g_k and its cofactor is h = prod g_k^(k-1); with both lifted
    to Z[x] and F = (g*h - f)/p, the test asks gcd(Fbar, g, h) = 1.  The
    answer does not depend on the lifts.
    """
    g, h = [1], [1]
    for part, k in parts:
        g = gf_mul(g, part, p, ZZ)
        h = gf_mul(h, gf_pow(part, k - 1, p, ZZ), p, ZZ)
    diff = dup_sub(dup_mul(g, h, ZZ), f, ZZ)
    if any(c % p for c in diff):
        raise AssertionError("g*h - f should vanish mod p by construction")
    big_f = gf_from_int_poly([c // p for c in diff], p)
    return gf_degree(gf_gcd(gf_gcd(big_f, g, p, ZZ), h, p, ZZ)) <= 0


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
    poly = ZZ.map(list(reversed(field.minpoly)))
    _, parts = gf_sqf_list(gf_from_int_poly(poly, p), p, ZZ)
    pairs = sorted(
        (int(e), int(deg))
        for part, e in parts
        for block, deg in gf_ddf_zassenhaus(part, p, ZZ)
        for _ in range(gf_degree(block) // deg)
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
