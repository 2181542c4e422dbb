"""Hyperoctahedral statistics and the exhaustive descent-sum identities."""

from collections import Counter
from math import comb, factorial

import pytest

from zetaforge import (
    enumerate_B,
    enumerate_S,
    eta,
    satisfies_property_p,
    signed_permutation,
    stats,
    verify_bm_identity,
    verify_sublemma,
)
from zetaforge import bruhat_gsp_sum, signed_perms
from zetaforge.laurent import InputError, LaurentPoly, ResourceGuardError
from zetaforge.signed_perms import (
    BStats,
    _descent_monomial,
    b_descent_sum,
    b_monomials,
    descent_sum,
    descent_tally,
    s_monomials,
)


def test_window_validation():
    assert signed_permutation([2, -1]) == (2, -1)
    with pytest.raises(ValueError):
        signed_permutation([])
    with pytest.raises(ValueError):
        signed_permutation([1, 0])
    with pytest.raises(ValueError):
        signed_permutation([1, 3])
    with pytest.raises(ValueError):
        signed_permutation([1, 1])


@pytest.mark.parametrize("window", [[1.5, -2], [1.0, -2], [True, -2], ["1", -2], [2, -1.0]])
def test_window_refuses_non_integer_entries(window):
    # int() would truncate [1.5, -2] to the valid window (1, -2)
    with pytest.raises(InputError, match="window entries must be integers"):
        signed_permutation(window)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_group_orders(m):
    seen = set(enumerate_B(m))
    assert len(seen) == 2**m * factorial(m)
    assert len(set(enumerate_S(m))) == len(seen) >> m


def test_enumeration_is_sign_major():
    first = next(iter(enumerate_B(2)))
    assert first == (1, 2)
    windows = list(enumerate_B(2))
    assert windows[:2] == [(1, 2), (2, 1)]  # all-positive block first, lex inside


def test_stats_by_hand():
    # w = (2, -1): one inversion (2 > -1), one negative pair (-1 + -1 < 0),
    # descent at position 1 only, first entry positive.
    st = stats((2, -1))
    assert (st.inv, st.npr, st.length) == (1, 1, 2)
    assert st.des_mask == 0b10 and st.des == 1
    assert st.eps1 == 0
    assert st.sigma_c == 4  # (m - 1)(m + 2) at the single descent

    st = stats((-1,))
    assert (st.inv, st.npr, st.length) == (0, 1, 1)
    assert st.des_mask == 0b1 and st.eps1 == 1
    assert st.sigma_c == 1

    assert stats((1, 2, 3)).length == 0
    assert stats((-3, -2, -1)).des_mask == 0b001  # only the type-B descent at 0


def test_perm_stats_by_hand():
    # an all-positive window: type-A length and descents, no negative pairs
    st = stats((3, 1, 2))
    assert st.length == 2
    assert st.des_mask == 0b010
    assert st.npr == 0


def test_length_decomposes():
    for m in (1, 2, 3, 4, 5):
        for w in enumerate_B(m):
            st = stats(w)
            assert st.length == st.inv + st.npr


def _reference_stats(w):
    """The statistics straight from their definitions, one count at a time."""
    m = len(w)
    inv = sum(1 for i in range(m) for j in range(i + 1, m) if w[i] > w[j])
    npr = sum(1 for i in range(m) for j in range(i, m) if w[i] + w[j] < 0)
    des = [0] * (w[0] < 0) + [i for i in range(1, m) if w[i - 1] > w[i]]
    eps1 = 1 if w[0] < 0 else 0
    sigma_c = comb(m + 1, 2) * eps1 + sum((m - i) * (m + i + 1) for i in des if i)
    return BStats(inv, npr, inv + npr, sum(1 << i for i in des), len(des), eps1, sigma_c)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_one_pass_stats_match_the_definitions(m):
    for w in enumerate_B(m):
        assert stats(w) == _reference_stats(w), w


def test_eta_window_example():
    assert eta(5, (3, -5, -1, 6, 2, 7, -4)) == (-3, 2, 6, -1, -5, 7, -4)
    with pytest.raises(ValueError):
        eta(0, (1,))
    with pytest.raises(ValueError):
        eta(8, (3, -5, -1, 6, 2, 7, -4))


def test_eta_is_an_involution_and_commutes():
    for w in enumerate_B(3):
        for i in (1, 2, 3):
            assert eta(i, eta(i, w)) == w
            for j in (1, 2, 3):
                assert eta(i, eta(j, w)) == eta(j, eta(i, w))


def test_orbits_have_full_size_with_one_positive_window():
    m = 3
    seen = set()
    for w in enumerate_B(m):
        if w in seen:
            continue
        orbit = {w}
        frontier = [w]
        while frontier:
            v = frontier.pop()
            for j in range(1, m + 1):
                u = eta(j, v)
                if u not in orbit:
                    orbit.add(u)
                    frontier.append(u)
        assert len(orbit) == 2**m
        assert sum(1 for u in orbit if all(x > 0 for x in u)) == 1
        seen |= orbit


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_eta_acts_on_the_head_only(m):
    # verify_sublemma calls eta once per head w[:j] and appends the tail
    for w in enumerate_B(m):
        for j in range(1, m + 1):
            assert eta(j, w) == eta(j, w[:j]) + w[j:]


def test_property_p_splits_eta_pairs():
    for w in enumerate_B(3):
        for j in (1, 2, 3):
            assert satisfies_property_p(j, w) != satisfies_property_p(j, eta(j, w))


def test_s3_descent_sum_by_hand():
    # M_1 = X^5 Y, M_2 = X^7 Y^2; M_0 is never a descent of S_3.
    table = [(100, 100), (5, 1), (7, 2)]
    expected = LaurentPoly(
        {
            (0, 0): 1,  # 123
            (-1 + 7, 2): 1,  # 132: Des {2}
            (-1 + 5, 1): 1,  # 213: Des {1}
            (-2 + 7, 2): 1,  # 231: Des {2}
            (-2 + 5, 1): 1,  # 312: Des {1}
            (-3 + 5 + 7, 3): 1,  # 321: Des {1, 2}
        }
    )
    assert descent_sum(3, table, signed=False) == expected


def _q_int(k):
    """[k]_q = 1 + q + ... + q^{k-1} with q = X^{-1}."""
    return LaurentPoly({(-j, 0): 1 for j in range(k)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_descent_sum_with_trivial_monomials_is_the_poincare_polynomial(n):
    s_side, b_side = LaurentPoly.one(), LaurentPoly.one()
    for k in range(1, n + 1):
        s_side = s_side * _q_int(k)
        b_side = b_side * _q_int(2 * k)
    zeros = [(0, 0)] * (n + 1)
    assert descent_sum(n, zeros, signed=False) == s_side
    assert descent_sum(n, zeros, signed=True) == b_side


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_monomial_tables_give_the_paper_statistics(m):
    for w in enumerate_B(m):
        st = stats(w)
        assert _descent_monomial(w, b_monomials(m)) == (
            st.sigma_c - st.length,
            2 * st.des - st.eps1,
        )
    for sigma in enumerate_S(m):
        des = [i for i in range(1, m) if sigma[i - 1] > sigma[i]]
        sigma_a = sum(i * (m - i) for i in des)
        rbin = sum(comb(m - i + 1, 2) for i in des)
        length = stats(sigma).length
        assert _descent_monomial(sigma, s_monomials(m)) == (
            sigma_a - length + rbin,
            len(des),
        )


def test_b1_descent_sum_by_hand():
    assert b_descent_sum(1) == LaurentPoly({(0, 0): 1, (0, 1): 1})


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bm_identity(m):
    assert verify_bm_identity(m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sublemma(m):
    assert verify_sublemma(m)


@pytest.mark.parametrize(
    "signed, m",
    [(signed, m) for signed in (True, False) for m in range(1, 7)] + [(False, 7)],
)
def test_walk_tally_matches_per_window_stats(signed, m):
    windows = enumerate_B(m) if signed else enumerate_S(m)
    want = Counter((st.length, st.des_mask) for st in map(stats, windows))
    got = descent_tally(m, signed)
    assert got == want
    assert sum(got.values()) == (2**m if signed else 1) * factorial(m)


def _counting_tally(monkeypatch):
    """Patch descent_tally to record how many windows each walk visits."""
    visited = []
    original = signed_perms.descent_tally

    def counting(m, signed):
        tally = original(m, signed)
        visited.append(sum(tally.values()))
        return tally

    monkeypatch.setattr(signed_perms, "descent_tally", counting)
    return visited


@pytest.mark.parametrize("m", [1, 4, 6])
def test_bm_identity_visits_every_window(monkeypatch, m):
    visited = _counting_tally(monkeypatch)
    assert verify_bm_identity(m)
    assert sorted(visited) == [factorial(m), 2**m * factorial(m)]


@pytest.mark.parametrize("m", [1, 5])
def test_bruhat_sum_visits_every_window(monkeypatch, m):
    visited = _counting_tally(monkeypatch)
    bruhat_gsp_sum(m)
    assert visited == [2**m * factorial(m)]


@pytest.mark.parametrize("m", [1, 5])
def test_sublemma_visits_every_window(monkeypatch, m):
    seen = []
    original = signed_perms._descent_monomial

    def counting(w, monomials):
        seen.append(w)
        return original(w, monomials)

    monkeypatch.setattr(signed_perms, "_descent_monomial", counting)
    assert verify_sublemma(m)
    assert len(seen) == len(set(seen)) == 2**m * factorial(m)


def _shift_entry(table_fn, index):
    """table_fn with the X-exponent of entry `index` raised by one."""

    def shifted(m):
        table = list(table_fn(m))
        a, b = table[index]
        table[index] = (a + 1, b)
        return table

    return shifted


@pytest.mark.parametrize("m", [2, 4])
def test_bm_identity_fails_on_a_shifted_s_table(monkeypatch, m):
    # entry 0 is never a descent of S_m, so shift entry 1
    monkeypatch.setattr(signed_perms, "s_monomials", _shift_entry(s_monomials, 1))
    assert not verify_bm_identity(m)


@pytest.mark.parametrize("m", [2, 4])
def test_sublemma_fails_when_eta_is_the_identity(monkeypatch, m):
    monkeypatch.setattr(signed_perms, "eta", lambda j, w: tuple(w))
    assert not verify_sublemma(m)


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("index", [0, 1])
def test_sublemma_fails_on_a_shifted_b_table(monkeypatch, m, index):
    monkeypatch.setattr(signed_perms, "b_monomials", _shift_entry(b_monomials, index))
    assert not verify_sublemma(m)


def _reference_sublemma(m):
    """The verifier as one loop over (w, j): eta_j is called on the whole
    window w and again on its partner v, and u = eta_j(v) closes the pair."""
    table = signed_perms.b_monomials(m)
    monomial = {w: _descent_monomial(w, table) for w in enumerate_B(m)}
    top = comb(m + 1, 2)
    for w in monomial:
        for j in range(1, m + 1):
            v = signed_perms.eta(j, w)
            u = signed_perms.eta(j, v)
            pw = signed_perms._property_p(j, w, v)
            pv = signed_perms._property_p(j, v, u)
            if pw == pv:
                return False
            gx, gy = monomial[w] if pw else monomial[v]
            ox, oy = monomial[v] if pw else monomial[u]
            if (ox - gx, oy - gy) != (top - comb(j + 1, 2), 1):
                return False
    return True


def _eta_first_entry_negative(j, w):
    """eta_j with the sign of its first entry then forced negative: each image
    is a window, but the map is no longer an involution."""
    v = eta(j, w)
    return (-abs(v[0]),) + v[1:]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sublemma_agrees_with_the_per_window_loop(m):
    assert verify_sublemma(m) is _reference_sublemma(m) is True


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "mutant",
    [lambda j, w: tuple(w), _eta_first_entry_negative],
    ids=["identity", "not-involutive"],
)
def test_sublemma_agrees_with_the_per_window_loop_on_a_broken_eta(
    monkeypatch, m, mutant
):
    monkeypatch.setattr(signed_perms, "eta", mutant)
    assert verify_sublemma(m) is _reference_sublemma(m) is False


def _eta_head_reversed(j, w):
    """eta_j with its head image reversed: the head keeps its support, so the
    partner is still a window at the start of a block, but not the one of
    eta_j; at j = 1 it is eta_1 itself."""
    v = eta(j, w[:j])
    return v[::-1] + tuple(w[j:])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sublemma_agrees_with_the_per_window_loop_on_a_reordered_eta(monkeypatch, m):
    monkeypatch.setattr(signed_perms, "eta", _eta_head_reversed)
    # B_1 has only j = 1, where the mutant is eta
    assert verify_sublemma(m) is _reference_sublemma(m) is (m == 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sublemma_agrees_with_the_per_window_loop_on_each_shifted_b_entry(
    monkeypatch, m
):
    for index in range(m + 1):
        monkeypatch.setattr(signed_perms, "b_monomials", _shift_entry(b_monomials, index))
        # entry m is never a descent, so its shift changes no monomial
        assert verify_sublemma(m) is _reference_sublemma(m) is (index == m)


def test_sublemma_fails_when_a_partner_is_not_a_window(monkeypatch):
    monkeypatch.setattr(signed_perms, "eta", lambda j, w: (0,) * len(w))
    assert not verify_sublemma(3)


# Each entry that takes a size m refuses a non-int (bool included) or an
# m < 1 at the call, before any window is made.
SIZED = [
    pytest.param(enumerate_B, id="enumerate_B"),
    pytest.param(enumerate_S, id="enumerate_S"),
    pytest.param(lambda m: descent_tally(m, True), id="descent_tally"),
    pytest.param(verify_bm_identity, id="verify_bm_identity"),
    pytest.param(verify_sublemma, id="verify_sublemma"),
    pytest.param(bruhat_gsp_sum, id="bruhat_gsp_sum"),
]


@pytest.mark.parametrize("sized", SIZED)
@pytest.mark.parametrize("m,message", [
    (0, "m must be >= 1"),
    (-1, "m must be >= 1"),
    (1.5, "m must be an integer, got 1.5"),
    (2.0, "m must be an integer, got 2.0"),
    (True, "m must be an integer, got True"),
    ("2", "m must be an integer, got '2'"),
])
def test_sizes_are_refused_at_the_call(sized, m, message):
    with pytest.raises(InputError) as refused:
        sized(m)
    assert str(refused.value) == message


def test_resource_guards():
    with pytest.raises(ResourceGuardError):
        list(enumerate_B(9))
    with pytest.raises(ResourceGuardError):
        descent_tally(9, False)
    with pytest.raises(ResourceGuardError):
        verify_bm_identity(7)
    with pytest.raises(ResourceGuardError):
        verify_sublemma(6)
