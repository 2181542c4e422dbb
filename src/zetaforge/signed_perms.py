"""Signed permutations, their descent statistics and descent sums, and
exhaustive identity checks.

Elements of the hyperoctahedral group B_m are handled in window notation as
tuples of nonzero integers whose absolute values permute 1..m.  The symmetric
group S_m sits inside B_m as the all-positive windows and shares its
statistics.  `descent_sum` is the one routine that turns group elements and a
per-descent monomial table into a polynomial.  The two exhaustive verifiers at
the bottom confirm, by direct enumeration, the polynomial identity that
collapses a B_m descent sum to an S_m descent sum times a product of
binomial-exponent factors, and the involution bookkeeping it rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import comb

from .laurent import LaurentPoly, ResourceGuardError

MAX_ENUM_M = 8
MAX_IDENTITY_M = 6
MAX_SUBLEMMA_M = 5


def signed_permutation(values):
    """Validate window notation: nonzero entries, |values| a permutation of 1..m."""
    w = tuple(int(v) for v in values)
    m = len(w)
    if m < 1:
        raise ValueError("empty window")
    if any(v == 0 for v in w):
        raise ValueError("window entries must be nonzero")
    if sorted(abs(v) for v in w) != list(range(1, m + 1)):
        raise ValueError(f"|window| must be a permutation of 1..{m}: {w}")
    return w


def enumerate_B(m):
    """Yield all 2^m * m! windows of B_m, sign-major, windows in lex order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_ENUM_M:
        raise ResourceGuardError(f"B_m enumeration capped at m={MAX_ENUM_M}, got {m}")
    for signs in product((1, -1), repeat=m):
        for perm in permutations(range(1, m + 1)):
            yield tuple(s * v for s, v in zip(signs, perm))


def enumerate_S(m):
    """The all-positive windows: a copy of the symmetric group S_m."""
    return permutations(range(1, m + 1))


@dataclass(frozen=True)
class BStats:
    inv: int
    npr: int
    length: int
    des_mask: int  # bit i set iff position i is a descent; bit 0 is type-B legal
    des: int
    eps1: int
    sigma_c: int


def stats(w):
    """Type-B statistics of a window: inv, npr, length, descents, eps1, sigma_C."""
    m = len(w)
    inv = sum(1 for i in range(m) for j in range(i + 1, m) if w[i] > w[j])
    npr = sum(1 for i in range(m) for j in range(i, m) if w[i] + w[j] < 0)
    des_mask = 0
    if w[0] < 0:
        des_mask |= 1
    for i in range(1, m):  # descent at position i iff w(i) > w(i+1)
        if w[i - 1] > w[i]:
            des_mask |= 1 << i
    eps1 = 1 if w[0] < 0 else 0
    sigma_c = comb(m + 1, 2) * eps1
    for i in range(1, m):
        if des_mask >> i & 1:
            sigma_c += (m - i) * (m + i + 1)
    return BStats(
        inv=inv,
        npr=npr,
        length=inv + npr,
        des_mask=des_mask,
        des=bin(des_mask).count("1"),
        eps1=eps1,
        sigma_c=sigma_c,
    )


def eta(j, w):
    """The involution swapping sign patterns on the j leftmost entries.

    Take the j leftmost entries of the window, ignoring signs; pair the
    largest with the smallest, the second largest with the second smallest,
    and so on; then flip the sign of each of the first j positions relative
    to w.  Extended to the rest of the window as the identity.
    """
    m = len(w)
    if not 1 <= j <= m:
        raise ValueError(f"j must lie in 1..{m}")
    support = sorted(abs(w[k]) for k in range(j))
    # c_k -> -c_{j+1-k}, extended oddly: w_j(-x) = -w_j(x).
    move = {c: -support[j - 1 - idx] for idx, c in enumerate(support)}
    out = []
    for k in range(m):
        v = w[k]
        if abs(v) in move:
            out.append(move[abs(v)] if v > 0 else -move[abs(v)])
        else:
            out.append(v)
    return tuple(out)


def satisfies_property_p(j, w):
    """Property (P_j): for j < m, w(j) < 0 iff w(j+1) lies strictly between
    w(j) and (eta_j w)(j); property (P_m) is simply w(m) > 0."""
    m = len(w)
    if j == m:
        return w[m - 1] > 0
    a, c = w[j - 1], w[j]
    b = eta(j, w)[j - 1]
    between = min(a, b) < c < max(a, b)
    return (a < 0) == between


def descent_sum(windows, monomials):
    """Sum over the windows w of X^{-l(w)} prod_{i in Des(w)} M_i, where
    M_i = X^{a_i} Y^{b_i} is entry i of `monomials` and Des(w) is the descent
    set of `stats` (position 0 is a descent iff the first entry is negative)."""
    return LaurentPoly.collect((_descent_monomial(w, monomials), 1) for w in windows)


def _descent_monomial(w, monomials):
    st = stats(w)
    xe, ye = -st.length, 0
    for i in range(len(w)):
        if st.des_mask >> i & 1:
            xe += monomials[i][0]
            ye += monomials[i][1]
    return xe, ye


def b_monomials(m):
    """The B_m table, (C(m+1,2), 1) at 0 and (2(C(m+1,2)-C(i+1,2)), 2) at i >= 1:
    it gives w the monomial X^{(sigma_C - l)(w)} Y^{(2 des - eps1)(w)}.  Entry
    m is never a descent; the Bruhat sum needs it for its denominator."""
    top = comb(m + 1, 2)
    return [(top, 1)] + [(2 * (top - comb(i + 1, 2)), 2) for i in range(1, m + 1)]


def s_monomials(m):
    """The S_m table, (i(m-i) + C(m-i+1,2), 1) at i: it gives sigma the
    monomial X^{(sigma_A - l + rbin)(sigma)} Y^{des(sigma)}."""
    return [(i * (m - i) + comb(m - i + 1, 2), 1) for i in range(m)]


def b_descent_sum(m):
    """Sum over B_m of X^{(sigma_C - length)(w)} Y^{(2 des - eps1)(w)}."""
    return descent_sum(enumerate_B(m), b_monomials(m))


def s_descent_sum(m):
    """Sum over S_m of X^{(sigma_A - length + rbin)(sigma)} Y^{des(sigma)}."""
    return descent_sum(enumerate_S(m), s_monomials(m))


def verify_bm_identity(m):
    """Exhaustively check that the B_m descent sum factors through S_m:

        sum_{w in B_m} X^{(sigma_C-l)(w)} Y^{(2des-eps1)(w)}
          = prod_{j=1}^{m} (1 + X^{C(m+1,2)-C(j+1,2)} Y)
            * sum_{sigma in S_m} X^{(sigma_A-l+rbin)(sigma)} Y^{des(sigma)}
    """
    if m > MAX_IDENTITY_M:
        raise ResourceGuardError(
            f"identity verification capped at m={MAX_IDENTITY_M}, got {m}"
        )
    lhs = b_descent_sum(m)
    rhs = s_descent_sum(m)
    for j in range(1, m + 1):
        factor = LaurentPoly({(0, 0): 1, (comb(m + 1, 2) - comb(j + 1, 2), 1): 1})
        rhs = rhs * factor
    return lhs == rhs


def verify_sublemma(m):
    """Check, for every w in B_m and j in [m], that exactly one of {w, eta_j w}
    satisfies (P_j), and that when w does, the monomial of eta_j w is the
    monomial of w shifted by X^{C(m+1,2)-C(j+1,2)} Y."""
    if m > MAX_SUBLEMMA_M:
        raise ResourceGuardError(
            f"sublemma verification capped at m={MAX_SUBLEMMA_M}, got {m}"
        )
    table = b_monomials(m)
    for w in enumerate_B(m):
        for j in range(1, m + 1):
            v = eta(j, w)
            pw, pv = satisfies_property_p(j, w), satisfies_property_p(j, v)
            if pw == pv:
                return False
            good = w if pw else v
            other = eta(j, good)
            gx, gy = _descent_monomial(good, table)
            ox, oy = _descent_monomial(other, table)
            if (ox - gx, oy - gy) != (comb(m + 1, 2) - comb(j + 1, 2), 1):
                return False
    return True
