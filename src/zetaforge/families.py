"""Closed-form local factors W(X, Y) for the supported lattice families.

Each constructor returns the rational function exactly as displayed, with the
denominator kept as a factor multiset and no simplification.  The heisenberg
and lmn numerators are symmetric-group descent sums with a per-descent
monomial table; `descent_form` builds them from one cached table per n of
the windows counted by descent set and length, itself built from
q-multinomials without visiting any permutation, and shared by every family
and degree d of that size.  Enumeration is kept for the checks: the
pre-collapse hyperoctahedral sum, `bruhat_gsp_sum`, walks all of B_m through
signed_perms.descent_sum, with its bookkeeping variable exposed separately so
the collapse can be confirmed against the symmetric-group form by
cross-multiplication, and the tests compare `descent_form` with the S_n walk.

Degree-d base extension enters only through the X-exponents; d >= 1 always.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .laurent import EulerForm, InputError, LaurentPoly, Record, ResourceGuardError
from .primes import mobius
from .signed_perms import _check_m, b_monomials, descent_sum

MAX_HEISENBERG_M = 8
MAX_FREE_C = 6
MAX_FREE_G = 6
MAX_LMN_TOTAL = 10
MAX_BRUHAT_M = 5

KINDS = ("abelian", "free", "heisenberg", "lmn", "maxclass", "f4", "q5", "bk")


class UnsupportedFamilyError(InputError):
    pass


class Family(Record):
    __slots__ = _fields = ("kind", "params")

    def __init__(self, kind, params=()):
        params = tuple(params)
        # integers only: a bool, float or string is refused, never truncated
        for x in params:
            if type(x) is not int:
                raise InputError(f"family parameters must be integers, got {x!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def __str__(self):
        return ":".join([self.kind, *map(str, self.params)])


# Each maker builds its Family first, which refuses non-integer parameters
# before the range checks compare them.
def abelian(n):
    family = Family("abelian", (n,))
    if n < 1:
        raise InputError("abelian rank must be >= 1")
    return family


def free(c, g):
    family = Family("free", (c, g))
    if c < 2 or g < 1:
        raise InputError("free nilpotent family needs class >= 2, generators >= 1")
    if c > MAX_FREE_C or g > MAX_FREE_G:
        raise ResourceGuardError(
            f"free family capped at c <= {MAX_FREE_C}, g <= {MAX_FREE_G}"
        )
    return family


def heisenberg(m):
    family = Family("heisenberg", (m,))
    if m < 1:
        raise InputError("heisenberg index must be >= 1")
    if m > MAX_HEISENBERG_M:
        raise ResourceGuardError(f"heisenberg family capped at m <= {MAX_HEISENBERG_M}")
    return family


def lmn(m, n):
    family = Family("lmn", (m, n))
    if m < 1 or n < 2:
        raise InputError("lmn family needs m >= 1, n >= 2")
    if m + n > MAX_LMN_TOTAL:
        raise ResourceGuardError(f"lmn family capped at m + n <= {MAX_LMN_TOTAL}")
    return family


def maxclass(c):
    family = Family("maxclass", (c,))
    if c < 2:
        raise InputError("maximal-class family needs c >= 2")
    return family


def f4():
    return Family("f4")


def q5():
    return Family("q5")


def bk():
    return Family("bk")


_ARITY = {"abelian": 1, "free": 2, "heisenberg": 1, "lmn": 2, "maxclass": 1,
          "f4": 0, "q5": 0, "bk": 0}
_MAKERS = {"abelian": abelian, "free": free, "heisenberg": heisenberg,
           "lmn": lmn, "maxclass": maxclass, "f4": f4, "q5": q5, "bk": bk}


def parse_family(text):
    """Parse a CLI identifier like "heisenberg:2" or "free:3:2" or "q5"."""
    parts = text.strip().lower().split(":")
    kind, args = parts[0], parts[1:]
    if kind not in _MAKERS:
        raise InputError(f"unknown family {kind!r}; expected one of {', '.join(KINDS)}")
    if len(args) != _ARITY[kind]:
        raise InputError(f"family {kind!r} takes {_ARITY[kind]} parameter(s), got {len(args)}")
    try:
        params = [int(a) for a in args]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _MAKERS[kind](*params)


def is_abelian(family):
    """True when the family's lattice is Z^n: abelian:n, or free:c:1, the
    free nilpotent ring on one generator, which is Z."""
    return family.kind == "abelian" or family.kind == "free" and family.params[1] == 1


def check_base_extension(family, d):
    """Refuse a Z^n family at d >= 2: there make_W gives the O_K-submodule
    zeta function, not the subring count of O_K^n over Z."""
    if d > 1 and is_abelian(family):
        raise UnsupportedFamilyError(
            f"{family} at d={d}: abelian families are supported only at d=1"
        )


# ---------------------------------------------------------------------------
# Building blocks


def witt_rank(g, i):
    """Rank of the i-th lower-central quotient of the free Lie ring on g
    generators: (1/i) * sum over j | i of mu(j) g^(i/j)."""
    if g < 1 or i < 1:
        raise ValueError("witt_rank needs g >= 1, i >= 1")
    total = sum(mobius(j) * g ** (i // j) for j in range(1, i + 1) if i % j == 0)
    assert total % i == 0
    return total // i


def free_alpha_beta(c, g, d):
    """(alpha, beta(d)) for the free nilpotent family of class c on g generators.

    alpha = (1/g) sum_{i=1}^{c} i*m_i and
    beta(d) = 2 m_2 + ... + (c-1) m_{c-1} + d*c*m_c, with m_i the Witt ranks.
    """
    ranks = {i: witt_rank(g, i) for i in range(1, c + 1)}
    alpha_num = sum(i * ranks[i] for i in range(1, c + 1))
    assert alpha_num % g == 0, "g divides every i*m_i, so alpha is integral"
    alpha = alpha_num // g
    beta = sum(i * ranks[i] for i in range(2, c)) + d * c * ranks[c]
    return alpha, beta


def descent_form(monomials):
    """Euler form with numerator sum_{w in S_n} X^{-l(w)} prod_{i in Des(w)} M_i
    and denominator prod_{i=0}^{n} (1 - M_i), for M_i = X^{a_i} Y^{b_i}.

    `monomials` is the ordered list (a_0, b_0), ..., (a_n, b_n); descents of
    S_n only ever touch indices 1..n-1.  With q = X^{-1} the numerator is
    sum_T beta_n(T)(X^{-1}) prod_{i in T} M_i, where beta_n(T) is the
    inversion generating function of the windows with descent set exactly T.
    Those polynomials depend on n alone, so `_descent_table(n)` builds them
    once, without visiting any permutation, and every family and degree d of
    that size shares them; the sum then costs one monomial per nonzero
    coefficient (766 of them at n = 7).  n is capped at MAX_LMN_TOTAL - 1,
    the largest size the heisenberg and lmn guards admit, before any table
    is built.  `signed_perms.descent_sum` over S_n is the enumerating
    reference.  Only the form is returned: `heisenberg_monomials` and
    `lmn_monomials` give a family's table.
    """
    n = len(monomials) - 1
    if n < 0:
        raise InputError("descent_form needs the monomials M_0, ..., M_n")
    if n > MAX_LMN_TOTAL - 1:
        raise ResourceGuardError(f"descent sums capped at n <= {MAX_LMN_TOTAL - 1}, got {n}")
    terms = {}
    for mask, poly in _descent_table(n):
        x = y = 0
        for i in range(1, n):
            if mask >> i & 1:
                a, b = monomials[i]
                x += a
                y += b
        for e, c in poly:
            key = (x - e, y)
            terms[key] = terms.get(key, 0) + c
    # formal=True: interior exponents of some large instances leave the
    # series-expandable cone (Y-exponent <= 0); the descent sum is still a
    # well-defined rational function and is stored verbatim.
    return EulerForm(LaurentPoly(terms), monomials, formal=True)


@lru_cache(maxsize=None)
def _descent_table(n):
    """The S_n descent-set table: (mask, ((e, c), ...)) for each descent set
    T, bit i of mask set iff i is in T, with c the number of windows of
    length e whose descent set is exactly T; zero coefficients are left out.

    By the descent-set formula (Stanley, EC1 1.4) the windows whose descent
    set lies in S have inversion generating function the q-multinomial
    alpha(S) = [n; comp(S)]_q.  It is taken by last cut: the compositions of
    j that end with a part j - i are those of i followed by a cut at i, so
    alpha_j(S + {i}) = alpha_i(S) [j choose i]_q (no cut when i = 0).  Then
    beta(T) = sum over S within T of (-1)^{|T - S|} alpha(S), one subset
    Moebius inversion over the bits 1..n-1.
    """
    top = n * (n - 1) // 2
    cuts = [{0: [1]}]
    for j in range(1, n + 1):
        row = {}
        for i in range(j):
            binom = _q_binomial(j, i)
            bit = 1 << i if i else 0
            for mask, poly in cuts[i].items():
                out = [0] * (len(poly) + len(binom) - 1)
                for s, c in enumerate(poly):
                    for e, b in binom:
                        out[s + e] += c * b
                row[mask | bit] = out
        cuts.append(row)
    beta = {mask: poly + [0] * (top + 1 - len(poly)) for mask, poly in cuts[n].items()}
    for i in range(1, n):
        bit = 1 << i
        for mask in beta:
            if mask & bit:
                beta[mask] = [c - s for c, s in zip(beta[mask], beta[mask ^ bit])]
    return tuple(
        (mask, tuple((e, c) for e, c in enumerate(beta[mask]) if c))
        for mask in sorted(beta)
    )


@lru_cache(maxsize=None)
def _q_binomial(n, k):
    """[n choose k]_q as pairs (e, coefficient of q^e), by q-Pascal."""
    if k == 0 or k == n:
        return ((0, 1),)
    coeffs = [0] * (k * (n - k) + 1)
    for e, c in _q_binomial(n - 1, k - 1):
        coeffs[e] += c
    for e, c in _q_binomial(n - 1, k):
        coeffs[e + k] += c
    return tuple(enumerate(coeffs))


def heisenberg_monomials(m, d):
    """The exponent pairs of Z_j = X^(C(m+1,2) - C(j+1,2) + 2md) Y^(m+1),
    j = 0..m, of the heisenberg family."""
    return [(comb(m + 1, 2) - comb(j + 1, 2) + 2 * m * d, m + 1) for j in range(m + 1)]


def lmn_monomials(m, n, d):
    """The exponent pairs (beta_i, gamma_i), i = 0..n, of the lmn family.

    The inner beta_i carry the sum over j of (1 + (m-1)(i-j+1)/(n-j+1))
    C(m+j-2, m-1) C(m+n-j-1, m-1); it is summed in integers over
    L = lcm(n-j+1), j = 1..n-1, and divided by L once, exactly.
    """
    r1 = comb(m + n - 2, m - 1)
    r2 = comb(m + n - 1, m)
    lcm_all = lcm(*range(2, n + 1))
    out = [(d * n * (r1 + r2), r1 + n)]
    for i in range(1, n):
        total = 0
        for j in range(1, i + 1):
            k = n - j + 1
            total += (k + (m - 1) * (i - j + 1)) * (lcm_all // k) * (
                comb(m + j - 2, m - 1) * comb(m + n - j - 1, m - 1)
            )
        q, rem = divmod(total, lcm_all)
        if rem:
            raise AssertionError(f"beta_{i} is not integral for (m,n)=({m},{n})")
        beta = i * (n - i) + d * (r1 + r2) * ((m - 1) * n + i) + q
        out.append((beta, (1 + r1) * ((m - 1) * n + i) - m * (m - 1) * r1))
    out.append((d * n * (r1 + r2) + comb(2 * m + n - 2, 2 * m - 1), r2 + n))
    return out


# ---------------------------------------------------------------------------
# The W constructors


def _check_degree(d):
    """Refuse an extension degree that is not an integer >= 1."""
    if type(d) is not int:
        raise InputError(f"extension degree d must be an integer, got {d!r}")
    if d < 1:
        raise InputError("extension degree d must be >= 1")


def make_W(family, d):
    """The exact local factor W(X, Y) of the given family at extension degree d."""
    _check_degree(d)
    kind, p = family.kind, family.params
    if kind == "abelian":
        n = p[0]
        return EulerForm.from_denominator([(i, 1) for i in range(n)])
    if kind == "free":
        c, g = p
        alpha, beta = free_alpha_beta(c, g, d)
        return EulerForm.from_denominator([(beta + j, alpha) for j in range(g)])
    if kind == "heisenberg":
        return descent_form(heisenberg_monomials(p[0], d))
    if kind == "lmn":
        return descent_form(lmn_monomials(*p, d))
    if kind == "maxclass":
        c = p[0]
        return EulerForm.from_denominator(
            [((c - 1) * (2 * d + c - 2), comb(c, 2) + 1), (2 * d + 2 * c - 3, c)]
        )
    if kind == "f4":
        return EulerForm.from_denominator([(16 + 10 * d, 15)])
    if kind == "q5":
        return EulerForm.from_denominator([(6 + 6 * d, 6), (3 + 3 * d, 3)])
    if kind == "bk":
        num = LaurentPoly(
            {
                (0, 0): 1,
                (84 + 201 * d, 102): 1,
                (85 + 201 * d, 102): 2,
                (170 + 402 * d, 204): 2,
            }
        )
        return EulerForm(num, [(84 + 201 * d, 102), (171 + 402 * d, 204)])
    raise UnsupportedFamilyError(kind)


def bruhat_gsp_sum(m):
    """The full hyperoctahedral sum over B_m, in variables (X, T):

        sum_{w in B_m} X^{-l(w)} prod_{i in Des(w)} Xt_i
        / prod_{i=0}^{m} (1 - Xt_i),

    with Xt_0 = X^{C(m+1,2)} T and Xt_i = X^{2(C(m+1,2)-C(i+1,2))} T^2: the
    `signed_perms.b_monomials` table, summed by `signed_perms.descent_sum`.
    Descents live in {0, ..., m-1}, so Xt_m appears only in the denominator.
    """
    _check_m(m)
    if m > MAX_BRUHAT_M:
        raise ResourceGuardError(f"bruhat sum capped at m <= {MAX_BRUHAT_M}")
    monos = b_monomials(m)
    return EulerForm(descent_sum(m, monos, signed=True), monos)


def heisenberg_from_bruhat(m, d):
    """Substitute T -> X^{2md} Y^{m+1} into bruhat_gsp_sum(m).

    This sends Xt_0 to Z_0 and Xt_i to Z_i^2, so the result should equal
    make_W(heisenberg(m), d) as a rational function (the B_m sum collapses).
    """
    _check_degree(d)
    form = bruhat_gsp_sum(m)
    shift, ypow = 2 * m * d, m + 1
    num = form.numerator.substitute_y_monomial(shift, ypow)
    den = [(a + shift * b, ypow * b) for a, b in form.denominator]
    return EulerForm(num, den)


# ---------------------------------------------------------------------------
# Weights and abscissae


def weight(family):
    """The grading weight wt(L): minimal sum of i * rank(L_i) over gradings."""
    kind, p = family.kind, family.params
    if kind == "abelian":
        raise UnsupportedFamilyError("no functional-equation weight for abelian lattices")
    if kind == "free":
        c, g = p
        alpha, _ = free_alpha_beta(c, g, 1)
        return g * alpha
    if kind == "heisenberg":
        return 2 * (p[0] + 1)
    if kind == "lmn":
        m, n = p
        return comb(m + n - 2, m - 1) + comb(m + n - 1, m) + 2 * n
    if kind == "maxclass":
        return comb(p[0] + 1, 2) + 1
    return {"f4": 15, "q5": 9, "bk": 102}[kind]


def abscissa(family, d):
    """Abscissa of convergence of the global zeta function, as an exact rational."""
    _check_degree(d)
    kind, p = family.kind, family.params
    if kind == "abelian":
        return Fraction(p[0])
    if kind == "free":
        c, g = p
        alpha, beta = free_alpha_beta(c, g, d)
        return Fraction(beta + g, alpha)
    if kind == "heisenberg":
        m = p[0]
        return Fraction(m, 2) + Fraction(2 * m * d + 1, m + 1)
    if kind == "lmn":
        pairs = lmn_monomials(*p, d)
        if any(g <= 0 for _, g in pairs):
            raise InputError(
                f"abscissa undefined for {family}: denominator exponent data "
                "includes a non-positive Y-exponent, so the series does not converge"
            )
        return max(Fraction(b + 1, g) for b, g in pairs)
    if kind == "maxclass":
        # Stated as "2 when d = 1" plus a c >= 3 branch; both are values of
        # the same two-term maximum, which is also correct at c = 2.
        c = p[0]
        return max(
            Fraction(2 * (d + c - 1), c),
            Fraction((c - 1) * (2 * d + c - 2) + 1, comb(c, 2) + 1),
        )
    if kind == "f4":
        return Fraction(17 + 10 * d, 15)
    if kind == "q5":
        return d + Fraction(4, 3)
    if kind == "bk":
        # the larger of (85 + 201d)/102 and (172 + 402d)/204
        return Fraction(86 + 201 * d, 102)
    raise UnsupportedFamilyError(kind)
