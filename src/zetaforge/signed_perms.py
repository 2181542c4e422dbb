"""Signed permutations, their descent statistics and descent sums, and
exhaustive identity checks.

Elements of the hyperoctahedral group B_m are handled in window notation as
tuples of nonzero integers whose absolute values permute 1..m.  The symmetric
group S_m sits inside B_m as the all-positive windows and shares its
statistics.  `descent_sum(m, monomials, signed)` turns a whole B_m (or S_m)
and a per-descent monomial table into a polynomial: one depth-first walk over
the group tallies the windows by (length, descent set), extending each prefix
by one entry (the last two entries are placed inline, straight into a flat
tally), and the table is applied once per distinct tally key.  `stats` is
the per-window definition of the same statistics.  It and the per-window
monomial `_descent_monomial` read them from one loop over the pairs of
positions, `_pair_counts`.  The walk still visits every window, so the two
exhaustive verifiers at the bottom remain brute-force checks of the
polynomial identity that collapses a B_m descent sum to an S_m descent sum
times a product of binomial-exponent factors, and of the involution
bookkeeping it rests on.  `verify_sublemma` checks every window against
every eta_j, calling eta once per distinct head w[:j]: the windows with that
head form one block in lex order, and the block of the image head holds
their partners in the same order.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product
from math import comb, factorial

from .laurent import InputError, LaurentPoly, Record, ResourceGuardError

MAX_ENUM_M = 8
MAX_IDENTITY_M = 6
MAX_SUBLEMMA_M = 5


def signed_permutation(values):
    """Validate window notation: nonzero entries, |values| a permutation of 1..m."""
    w = tuple(values)
    # integers only: a bool, float or string is refused, never truncated
    for v in w:
        if type(v) is not int:
            raise InputError(f"window entries must be integers, got {v!r}")
    m = len(w)
    if m < 1:
        raise InputError("empty window")
    if any(v == 0 for v in w):
        raise InputError("window entries must be nonzero")
    if sorted(abs(v) for v in w) != list(range(1, m + 1)):
        raise InputError(f"|window| must be a permutation of 1..{m}: {w}")
    return w


def _check_m(m):
    # an int m >= 1: a bool or float is refused, never truncated
    if type(m) is not int:
        raise InputError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise InputError("m must be >= 1")


def enumerate_B(m):
    """All 2^m * m! windows of B_m, sign-major, windows in lex order; m is
    checked at the call, before the first window."""
    _check_m(m)
    if m > MAX_ENUM_M:
        raise ResourceGuardError(f"B_m enumeration capped at m={MAX_ENUM_M}, got {m}")
    return (
        tuple(s * v for s, v in zip(signs, perm))
        for signs in product((1, -1), repeat=m)
        for perm in permutations(range(1, m + 1))
    )


def enumerate_S(m):
    """The all-positive windows: a copy of the symmetric group S_m."""
    _check_m(m)
    return permutations(range(1, m + 1))


class BStats(Record):
    # des_mask: bit i set iff position i is a descent; bit 0 is type-B legal
    __slots__ = _fields = ("inv", "npr", "length", "des_mask", "des", "eps1", "sigma_c")

    def __init__(self, inv, npr, length, des_mask, des, eps1, sigma_c):
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "npr", npr)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "des_mask", des_mask)
        object.__setattr__(self, "des", des)
        object.__setattr__(self, "eps1", eps1)
        object.__setattr__(self, "sigma_c", sigma_c)


def stats(w):
    """Type-B statistics of a window: inv, npr, length, descents, eps1, sigma_C.

    inv, npr and the descent set come from `_pair_counts`; eps1 is bit 0 of
    the descent set and sigma_C sums C(m+1,2) at 0 and (m-j)(m+j+1) at each
    other descent j.
    """
    m = len(w)
    inv, npr, des_mask = _pair_counts(w)
    eps1 = des_mask & 1
    sigma_c = comb(m + 1, 2) * eps1 + sum(
        (m - j) * (m + j + 1) for j in range(1, m) if des_mask >> j & 1
    )
    return BStats(
        inv=inv,
        npr=npr,
        length=inv + npr,
        des_mask=des_mask,
        des=bin(des_mask).count("1"),
        eps1=eps1,
        sigma_c=sigma_c,
    )


def _pair_counts(w):
    """(inv, npr, des_mask) of a window, in one loop over the pairs i <= j:
    a pair counts towards inv when w(i) > w(j), towards npr when
    w(i) + w(j) < 0 (i = j included), and position j is a descent when the
    entry before it (0 before position 0) exceeds w(j)."""
    inv = npr = des_mask = 0
    last = 0
    for j, b in enumerate(w):
        if last > b:
            des_mask |= 1 << j
        last = b
        if b < 0:
            npr += 1
        for a in w[:j]:
            if a > b:
                inv += 1
            if a + b < 0:
                npr += 1
    return inv, npr, des_mask


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
    head = w[:j]
    support = sorted(map(abs, head))
    # c_k -> -c_{j+1-k}, extended oddly: w_j(-x) = -w_j(x).  The support is
    # exactly the first j absolute values, so later positions stay put.
    move = dict(zip(support, [-c for c in reversed(support)]))
    return tuple([move[v] if v > 0 else -move[-v] for v in head]) + tuple(w[j:])


def satisfies_property_p(j, w):
    """Property (P_j): for j < m, w(j) < 0 iff w(j+1) lies strictly between
    w(j) and (eta_j w)(j); property (P_m) is simply w(m) > 0."""
    return _property_p(j, w, eta(j, w))


def _property_p(j, w, eta_w):
    """(P_j) of w, given its partner eta_w = eta_j(w)."""
    if j == len(w):
        return w[j - 1] > 0
    a, b, c = w[j - 1], eta_w[j - 1], w[j]
    return (a < 0) == (a < c < b or b < c < a)


def descent_tally(m, signed):
    """Counter of (length, des_mask) over the windows of B_m (signed=True) or
    S_m (signed=False), with the statistics of `stats`.

    A depth-first walk places the window left to right and visits every
    window.  Appending v = +a or -a at position k adds the pairs it closes
    with the prefix: its inversions, and its negative-sum pairs (itself
    included).  Their number depends only on a, k and the count i of unused
    values below a: +a adds the prefix entries of absolute value above a,
    that is (m - a) - (unused values above a); -a adds every prefix entry
    once, those of absolute value below a once more, and itself, that is
    k + (a - 1 - i) + 1.  Bit k is set when the previous entry (0 before
    position 0) exceeds v.  The last two values are placed inline, without
    a further call, and each window adds one to a flat list indexed by
    length * 2^m + mask, which becomes the Counter at the end.
    """
    _check_m(m)
    if m > MAX_ENUM_M:
        raise ResourceGuardError(f"B_m enumeration capped at m={MAX_ENUM_M}, got {m}")
    top = m * m if signed else m * (m - 1) // 2
    flat = [0] * ((top + 1) << m)

    def extend(k, unused, last, length, mask):
        if k == m - 2:
            # the last two values, a < b: i = 0 places a then b, i = 1 b then a
            for i, (a, b) in enumerate((unused, unused[::-1])):
                # +a at position k, then +b or -b at k + 1
                run = length + (m - a) - (1 - i)
                vmask = mask | (last > a) << k
                flat[(run + m - b) << m | vmask | (a > b) << (k + 1)] += 1
                if signed:
                    flat[(run + k + 1 + b) << m | vmask | (a > -b) << (k + 1)] += 1
                    # -a at position k (-a > +b never holds), then +b or -b
                    run = length + k + a - i
                    vmask = mask | (last > -a) << k
                    flat[(run + m - b) << m | vmask] += 1
                    flat[(run + k + 1 + b) << m | vmask | (-a > -b) << (k + 1)] += 1
            return
        others = m - k - 1  # unused values besides a; others - i lie above it
        for i, a in enumerate(unused):
            rest = unused[:i] + unused[i + 1:]
            up = (m - a) - (others - i)
            extend(k + 1, rest, a, length + up, mask | (last > a) << k)
            if signed:
                extend(k + 1, rest, -a, length + k + a - i, mask | (last > -a) << k)

    if m == 1:
        flat[0] += 1
        if signed:
            flat[1 << m | 1] += 1
    else:
        extend(0, tuple(range(1, m + 1)), 0, 0, 0)
    full = (1 << m) - 1
    return Counter({(key >> m, key & full): c for key, c in enumerate(flat) if c})


def descent_sum(m, monomials, signed):
    """Sum over the windows w of B_m (signed=True) or S_m (signed=False) of
    X^{-l(w)} prod_{i in Des(w)} M_i, where M_i = X^{a_i} Y^{b_i} is entry i
    of `monomials` and Des(w) is the descent set of `stats` (position 0 is a
    descent iff the first entry is negative)."""
    return LaurentPoly.collect(
        (_mask_monomial(length, mask, monomials), count)
        for (length, mask), count in descent_tally(m, signed).items()
    )


def _mask_monomial(length, mask, monomials):
    xe, ye = -length, 0
    for i, (a, b) in enumerate(monomials):
        if mask >> i & 1:
            xe += a
            ye += b
    return xe, ye


def _descent_monomial(w, monomials):
    inv, npr, des_mask = _pair_counts(w)
    return _mask_monomial(inv + npr, des_mask, monomials)


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
    return descent_sum(m, b_monomials(m), signed=True)


def s_descent_sum(m):
    """Sum over S_m of X^{(sigma_A - length + rbin)(sigma)} Y^{des(sigma)}."""
    return descent_sum(m, s_monomials(m), signed=False)


def verify_bm_identity(m):
    """Exhaustively check that the B_m descent sum factors through S_m:

        sum_{w in B_m} X^{(sigma_C-l)(w)} Y^{(2des-eps1)(w)}
          = prod_{j=1}^{m} (1 + X^{C(m+1,2)-C(j+1,2)} Y)
            * sum_{sigma in S_m} X^{(sigma_A-l+rbin)(sigma)} Y^{des(sigma)}
    """
    _check_m(m)
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
    monomial of w shifted by X^{C(m+1,2)-C(j+1,2)} Y.

    The windows are walked in lexicographic order, so those that share a
    head w[:j] form one block of 2^(m-j) (m-j)! windows, which lists every
    signed arrangement of the values off the head's support.  eta_j fixes
    the rest of the window and keeps the head's support, so the block of
    the image head lists the same tails in the same order.  For each j in
    turn, eta is called once per block, on its head; one lookup of the image
    head with the block's first tail must land on the start of a block, or
    the check fails, and the partner of the window at offset t in the block
    is the window at offset t in that block.  The partner of a partner is
    read from the same table.  Each window's monomial is computed once, and
    every window is checked both for exclusivity and, when it satisfies
    (P_j), for the monomial shift.
    """
    _check_m(m)
    if m > MAX_SUBLEMMA_M:
        raise ResourceGuardError(
            f"sublemma verification capped at m={MAX_SUBLEMMA_M}, got {m}"
        )
    table = b_monomials(m)
    windows = sorted(enumerate_B(m))
    position = {w: i for i, w in enumerate(windows)}
    monomial = [_descent_monomial(w, table) for w in windows]
    top = comb(m + 1, 2)
    for j in range(1, m + 1):
        size = 2 ** (m - j) * factorial(m - j)
        partner = []
        for start in range(0, len(windows), size):
            w = windows[start]
            i = position.get(eta(j, w[:j]) + w[j:])
            if i is None or i % size:
                return False
            partner.extend(range(i, i + size))
        holds = [_property_p(j, w, windows[i]) for w, i in zip(windows, partner)]
        shift = (top - comb(j + 1, 2), 1)
        for (gx, gy), i, pw in zip(monomial, partner, holds):
            if pw == holds[i]:
                return False
            if pw:
                ox, oy = monomial[i]
                if (ox - gx, oy - gy) != shift:
                    return False
    return True
