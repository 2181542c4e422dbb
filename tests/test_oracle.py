"""Ground-truth enumeration: subring counts against the closed-form series."""

import hashlib
import json
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from zetaforge import (
    LieLattice,
    abelian,
    abelian_lattice,
    count_proisomorphic,
    enumerate_sublattices,
    enumerate_subrings,
    heisenberg,
    heisenberg_lattice,
    is_proisomorphic,
    is_subring,
    lattice_from_json,
    make_W,
    maxclass,
)
from zetaforge.laurent import InputError, ResourceGuardError
from zetaforge import oracle
from zetaforge.oracle import lattice_from_dict

H1 = heisenberg_lattice(1)
H2 = heisenberg_lattice(2)
# class-3 filiform: [e1, e2] = e3, [e1, e3] = e4
M3 = lattice_from_dict({
    "rank": 4,
    "brackets": [[1, 2, [0, 0, 1, 0]], [1, 3, [0, 0, 0, 1]]],
})
H1_PLUS_Z = lattice_from_dict({"rank": 4, "brackets": [[1, 2, [0, 0, 1, 0]]]})
H1_ORDERS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _dense(n, table):
    """The rank^3 structure tensor of a bracket table: t[a][b] = [e_a, e_b],
    with the pairs a > b filled in by antisymmetry."""
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, vec in table:
        for l, c in vec:
            t[a][b][l] = c
            t[b][a][l] = -c
    return t


def _expanded(n, terms):
    """The dense coordinates of span terms ((l, c), ...), after checking that
    they are in the table form: l increasing and every c nonzero."""
    ls = [l for l, _ in terms]
    assert ls == sorted(set(ls)) and all(c for _, c in terms)
    out = [0] * n
    for l, c in terms:
        out[l] = c
    return out


def _from_dense(t):
    n = len(t)
    return LieLattice(n, tuple(
        (a, b, tuple((l, c) for l, c in enumerate(t[a][b]) if c))
        for a in range(n) for b in range(a + 1, n) if any(t[a][b])
    ))


def _permuted(lat, perm):
    """The same Lie ring in the reordered basis e'_a = e_perm[a]."""
    n = lat.rank
    t = _dense(n, lat.brackets)
    return _from_dense([
        [[t[perm[a]][perm[b]][perm[c]] for c in range(n)] for b in range(n)]
        for a in range(n)
    ])


def _scaled(lat, s):
    return LieLattice(lat.rank, tuple(
        (a, b, tuple((l, s * c) for l, c in vec)) for a, b, vec in lat.brackets
    ))


def _dense_refusal(t):
    """The dense reference validation of a structure tensor: antisymmetry,
    then the Jacobi identity on every triple i < j < k in lexicographic
    order.  The refusal message, or None."""
    n = len(t)
    for i in range(n):
        for j in range(n):
            if any(t[i][j][l] != -t[j][i][l] for l in range(n)):
                return "structure tensor is not antisymmetric"
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = [0] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l in range(n):
                        for r in range(n):
                            jac[r] += t[a][b][l] * t[l][c][r]
                if any(jac):
                    return f"Jacobi identity fails on ({i},{j},{k})"
    return None


def test_tensor_validation():
    with pytest.raises(ValueError, match=r"Jacobi identity fails on \(0,1,2\)"):
        lattice_from_dict(
            {"rank": 3, "brackets": [[1, 2, [0, 0, 1]], [2, 3, [0, 1, 0]]]}
        )
    for rank, table in [
        (3, ((1, 0, ((2, 1),)),)),                       # a > b
        (3, ((0, 3, ((2, 1),)),)),                       # b out of range
        (3, ((0, 2, ((1, 1),)), (0, 1, ((2, 1),)))),     # pairs out of order
        (3, ((0, 1, ((2, 1),)), (0, 1, ((2, 2),)))),     # a pair twice
    ]:
        with pytest.raises(ValueError, match="bracket pairs"):
            LieLattice(rank, table)
    for table in [
        ((0, 1, ()),),                                   # a zero bracket
        ((0, 1, ((2, 0),)),),                            # a zero coefficient
        ((0, 1, ((2, 1), (1, 1))),),                     # coordinates out of order
        ((0, 1, ((3, 1),)),),                            # coordinate out of range
        ((0, 1, ((2, 0.5),)),),                          # not an integer
        ((0, 1, ((2, True),)),),                         # a bool, not an integer
    ]:
        with pytest.raises(ValueError, match="bracket terms"):
            LieLattice(3, table)
    with pytest.raises(ValueError, match="rank must be at least 1"):
        LieLattice(0, ())


def test_jacobi_check_reads_only_the_table_at_large_rank():
    # [e1, e2] = e3 and [e1, e3] = e4 in rank 3000: the check tries the one
    # triple (e1, e2, e3) and builds no vector of the rank's length
    table = ((0, 1, ((2, 1),)), (0, 2, ((3, 1),)))
    start = time.perf_counter()
    assert LieLattice(3000, table).brackets == table
    assert time.perf_counter() - start < 0.1
    # adding [e2, e4] = e4 gives [[e1, e3], e2] = -e4 on the triple (e1, e2, e3)
    with pytest.raises(InputError, match=r"Jacobi identity fails on \(0,1,2\)$"):
        LieLattice(3000, table + ((1, 3, ((3, 1),)),))


@pytest.mark.parametrize("build", [
    lambda: LieLattice(True, ()),
    lambda: LieLattice(3.0, ((0, 1, ((2, 1),)),)),
    lambda: LieLattice("3", ()),
    lambda: abelian_lattice(2.0),
    lambda: heisenberg_lattice(1.5),
    lambda: heisenberg_lattice(True),
])
def test_a_rank_that_is_not_an_int_is_refused(build):
    with pytest.raises(InputError, match="must be an integer"):
        build()


@st.composite
def bracket_tables(draw):
    """(rank, table): a well-formed bracket table with small coefficients,
    mostly zero, so that some draws satisfy the Jacobi identity and some
    do not."""
    n = draw(st.integers(1, 5))
    table = []
    for a in range(n):
        for b in range(a + 1, n):
            vec = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=n, max_size=n))
            terms = tuple((l, c) for l, c in enumerate(vec) if c)
            if terms:
                table.append((a, b, terms))
    return n, tuple(table)


def test_bracket_dict_validation():
    with pytest.raises(ValueError, match="indices"):
        lattice_from_dict({"rank": 3, "brackets": [[2, 2, [0, 0, 1]]]})
    with pytest.raises(ValueError, match="indices"):
        lattice_from_dict({"rank": 3, "brackets": [[1, 4, [0, 0, 1]]]})
    with pytest.raises(ValueError, match="duplicate"):
        lattice_from_dict(
            {"rank": 3, "brackets": [[1, 2, [0, 0, 1]], [1, 2, [0, 0, 2]]]}
        )
    with pytest.raises(ValueError, match="length rank"):
        lattice_from_dict({"rank": 3, "brackets": [[1, 2, [0, 1]]]})


def test_constructors_and_recognition():
    assert abelian_lattice(3).is_abelian()
    assert abelian_lattice(3).brackets == ()
    assert H1.brackets == ((0, 1, ((2, 1),)),)
    assert H2.brackets == ((0, 2, ((4, 1),)), (1, 3, ((4, 1),)))
    assert not H1.is_abelian()
    assert H1.heisenberg_m() == 1
    assert H2.heisenberg_m() == 2
    assert M3.heisenberg_m() is None
    assert H1.bracket((1, 0, 0), (0, 1, 0)) == [0, 0, 1]
    assert H1.bracket((0, 1, 0), (1, 0, 0)) == [0, 0, -1]
    # a negated bracket is another table, so it is searched, not recognised
    assert _scaled(H1, -1).heisenberg_m() is None
    for m in (0, -1):
        with pytest.raises(ValueError, match="heisenberg index must be >= 1"):
            heisenberg_lattice(m)


def test_lattice_from_json_round_trip():
    lat = lattice_from_json(
        '{"rank": 3, "brackets": [[1, 2, [0, 0, 1]]]}'
    )
    assert lat == H1


def test_enumeration_counts_match_gaussian_binomials():
    # sublattices of Z^3 of index 2^k, counted by C(k+2, k)_2
    assert sum(1 for _ in enumerate_sublattices(3, 2, 0)) == 1
    assert sum(1 for _ in enumerate_sublattices(3, 2, 1)) == 7
    assert sum(1 for _ in enumerate_sublattices(3, 2, 2)) == 35
    assert sum(1 for _ in enumerate_sublattices(2, 3, 2)) == 13


def test_enumeration_yields_distinct_hnf_bases():
    seen = set(enumerate_sublattices(3, 2, 2))
    assert len(seen) == 35
    for basis in seen:
        assert all(basis[i][j] == 0 for i in range(3) for j in range(i))
        assert basis[0][0] * basis[1][1] * basis[2][2] == 4


def test_enumeration_guards():
    with pytest.raises(ResourceGuardError):
        list(enumerate_sublattices(7, 2, 1))
    with pytest.raises(ResourceGuardError):
        list(enumerate_sublattices(3, 7, 1))
    with pytest.raises(ResourceGuardError):
        list(enumerate_sublattices(3, 2, 5))
    with pytest.raises(ValueError):
        list(enumerate_sublattices(3, 2, -1))


@pytest.mark.parametrize("n,p,k", [(3.0, 2, 1), (3, 2.0, 1), (3, 2, 1.0), (3, True, 1)])
def test_enumeration_refuses_numbers_that_are_not_ints(n, p, k):
    with pytest.raises(InputError, match="must be an integer"):
        list(enumerate_sublattices(n, p, k))
    # a lattice's rank is an int by construction
    if type(n) is int:
        for lat in (abelian_lattice(n), H1, _permuted(H1, (0, 2, 1))):
            with pytest.raises(InputError, match="must be an integer"):
                count_proisomorphic(lat, p, k)


def test_sublattice_count_guard():
    # S(5, 3, 4) = 75,913,222 is the largest count the caps leave
    oracle._check_enum_guards(5, 3, 4)
    with pytest.raises(ResourceGuardError, match="320327931 sublattices"):
        oracle._check_enum_guards(4, 5, 4)
    # refused before the first sublattice: the walk would take about a minute
    with pytest.raises(ResourceGuardError):
        count_proisomorphic(H2, 5, 3)
    with pytest.raises(ResourceGuardError):
        next(enumerate_sublattices(6, 5, 4))


def test_is_subring():
    assert is_subring(H1, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert not is_subring(H1, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert is_subring(abelian_lattice(2), ((4, 1), (0, 2)))


# Bases a rank-3 lattice refuses
BAD_BASES = [
    # not upper triangular: [x, x + y] = z is outside this span
    ((0, 0, 2), (1, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
    # a zero pivot
    ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
    # wrong shape: two rows, or short rows, for a rank-3 lattice
    ((1, 0), (0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)),
    # entries that are not ints, and a basis that is not rows at all
    ((1, 0, 0), (0, 1.0, 0), (0, 0, 1)),
    ((True, 0, 0), (0, 1, 0), (0, 0, 1)),
    (1, 2, 3),
]


@pytest.mark.parametrize("basis", BAD_BASES)
def test_is_subring_refuses_a_basis_of_the_wrong_shape(basis):
    with pytest.raises(InputError):
        is_subring(H1, basis)


SUBRING_CASES = [
    pytest.param(lat, p, kmax, id=f"{name}-p{p}")
    for name, lat, kmax in [
        ("Z3", abelian_lattice(3), 3), ("H1", H1, 3), ("H2", H2, 2), ("M3", M3, 3),
        ("H1+Z", H1_PLUS_Z, 3),
    ] + [(f"perm{''.join(map(str, q))}", _permuted(H1, q), 3) for q in H1_ORDERS]
    for p in (2, 3)
]


@pytest.mark.parametrize("lat,p,kmax", SUBRING_CASES)
def test_subring_walk_matches_filtered_sublattices(lat, p, kmax):
    for k in range(kmax + 1):
        walked = list(enumerate_subrings(lat, p, k))
        assert len(walked) == len(set(walked))
        assert set(walked) == {
            b for b in enumerate_sublattices(lat.rank, p, k) if is_subring(lat, b)
        }


def _pinned_members(rows, t):
    """The bases a walked subring stands for: its entries in rows 0..t-1 and
    columns t..n-1, pinned to 0 by the walk, each run over the residues
    modulo the pivot below it."""
    n = len(rows)
    cells = [(i, j) for i in range(t) for j in range(t, n)]
    for values in product(*(range(rows[j][j]) for _, j in cells)):
        basis = [list(row) for row in rows]
        for (i, j), v in zip(cells, values):
            basis[i][j] = v
        yield tuple(map(tuple, basis))


def _check_weighted_walk(lat, p, k):
    """The count's walk, with the lattice's central tail pinned, hands over
    one (weight, table) per class of subrings:
    - the count is the sum of weight * verdict(table), for a recording
      verdict patched in through `_verdict` (the abelian lattices included)
      whose answers vary along the walk;
    - expanding each walked basis over its pinned entries gives exactly the
      bases of `enumerate_subrings`, `weight` of them per class;
    - each expanded basis has `_structure_constants` equal to the table;
    - the weights sum to the number of subrings."""
    prefixes, subrings = oracle._walk(lat, p, k, lat.t)
    classes = [
        (weight, tuple(rows), table)
        for left, weight in prefixes for rows, table in subrings(left)
    ]
    handed = []

    def record(table):
        handed.append(table)
        return len(handed) % 3 != 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_verdict", lambda *args: record)
        count = count_proisomorphic(lat, p, k)
    assert handed == [table for _, _, table in classes]
    assert count == sum(
        weight * (x % 3 != 1) for x, (weight, _, _) in enumerate(classes, 1)
    )
    members = []
    for weight, rows, table in classes:
        expanded = list(_pinned_members(rows, lat.t))
        assert len(expanded) == weight
        assert all(oracle._structure_constants(lat, b) == table for b in expanded)
        members += expanded
    bases = list(enumerate_subrings(lat, p, k))
    assert sorted(members) == sorted(bases)
    assert sum(weight for weight, _, _ in classes) == len(bases)


@pytest.mark.parametrize("lat,p,kmax", SUBRING_CASES)
def test_walk_hands_the_verdict_the_structure_constants(lat, p, kmax):
    for k in range(kmax + 1):
        _check_weighted_walk(lat, p, k)


@pytest.mark.parametrize("lat,t", [
    pytest.param(H1, 2, id="H1"),
    pytest.param(H2, 4, id="H2"),
    pytest.param(heisenberg_lattice(3), 6, id="H3"),
    pytest.param(H1_PLUS_Z, 2, id="H1+Z"),
    pytest.param(_scaled(H1, 3), 2, id="scale3"),
    pytest.param(_scaled(H1, -2), 2, id="scale-2"),
    pytest.param(M3, 4, id="M3"),
    # z stays last only in the order (1, 0, 2)
    *(pytest.param(_permuted(H1, q), 2 if q[2] == 2 else 3, id=f"perm{''.join(map(str, q))}")
      for q in H1_ORDERS),
    # the tail starts at e_3 (e4 in the 1-indexed data), the least coordinate
    # a bracket reaches, whether e_2 is central or brackets into e_3
    pytest.param(lattice_from_dict({"rank": 4, "brackets": [[1, 2, [0, 0, 0, 1]]]}), 3,
                 id="Z-before-the-centre"),
    pytest.param(lattice_from_dict({
        "rank": 4, "brackets": [[1, 2, [0, 0, 0, 1]], [1, 3, [0, 0, 0, 2]]],
    }), 3, id="e3-brackets-into-the-centre"),
    # every coordinate of an abelian lattice is central and no bracket needs
    # spanning: the tail starts at e_1
    *(pytest.param(abelian_lattice(n), 1, id=f"Z{n}") for n in (1, 3, 5)),
])
def test_central_tail_start(lat, t):
    assert lat.t == t


@st.composite
def presentations(draw):
    """Rank <= 4: H1, M3 or H1+Z under a basis permutation and a nonzero
    bracket scale, or a class-2 tensor whose brackets land in a drawn set of
    central coordinates, where the Jacobi identity holds."""
    if draw(st.booleans()):
        lat = draw(st.sampled_from([H1, M3, H1_PLUS_Z]))
        perm = draw(st.permutations(range(lat.rank)))
        return _scaled(_permuted(lat, perm), draw(st.integers(-3, 3).filter(bool)))
    n = draw(st.integers(2, 4))
    central = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    brackets = [
        [a + 1, b + 1, [draw(st.integers(-2, 2)) if l in central else 0 for l in range(n)]]
        for a in range(n) for b in range(a + 1, n)
        if a not in central and b not in central
    ]
    return lattice_from_dict({"rank": n, "brackets": brackets})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presentations(), st.sampled_from([2, 3]), st.integers(0, 2))
def test_subring_walk_matches_filtered_sublattices_on_random_presentations(lat, p, k):
    walked = list(enumerate_subrings(lat, p, k))
    assert len(walked) == len(set(walked))
    assert set(walked) == {
        b for b in enumerate_sublattices(lat.rank, p, k) if is_subring(lat, b)
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presentations(), st.sampled_from([2, 3]), st.integers(0, 2))
def test_walk_hands_the_structure_constants_on_random_presentations(lat, p, k):
    _check_weighted_walk(lat, p, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(bracket_tables(), presentations().map(lambda lat: (lat.rank, lat.brackets))))
def test_table_validation_matches_the_dense_reference(drawn):
    n, table = drawn
    refusal = _dense_refusal(_dense(n, table))
    if refusal is None:
        assert LieLattice(n, table).brackets == table
    else:
        with pytest.raises(ValueError) as refused:
            LieLattice(n, table)
        assert str(refused.value) == refusal


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presentations(), st.data())
def test_bracket_is_the_dense_tensor_sum(lat, data):
    n = lat.rank
    u, w = (data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)) for _ in "uw")
    t = _dense(n, lat.brackets)
    assert lat.bracket(u, w) == [
        sum(u[i] * w[j] * t[i][j][l] for i in range(n) for j in range(n)) for l in range(n)
    ]


def test_subring_walk_guards():
    for lat, p, k, error in [
        (abelian_lattice(7), 2, 1, ResourceGuardError),
        (H1, 7, 1, ResourceGuardError),
        (H1, 2, 5, ResourceGuardError),
        (H1, 2, -1, ValueError),
    ]:
        with pytest.raises(error) as walked:
            list(enumerate_subrings(lat, p, k))
        with pytest.raises(error) as reference:
            list(enumerate_sublattices(lat.rank, p, k))
        assert str(walked.value) == str(reference.value)


@pytest.mark.parametrize("lat, p, k", [(H1, 7, 1), (abelian_lattice(7), 2, 1), (H1, 2, -1)],
                         ids=["H1 p=7", "Z^7", "H1 k=-1"])
def test_enumerators_refuse_at_the_call(lat, p, k):
    # no basis is drawn: the guards run before a generator is handed out
    with pytest.raises((InputError, ResourceGuardError)):
        enumerate_subrings(lat, p, k)
    with pytest.raises((InputError, ResourceGuardError)):
        enumerate_sublattices(lat.rank, p, k)


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_sublattices_refuses_a_rank_below_one_at_the_call(n):
    with pytest.raises(InputError, match=f"^rank must be at least 1, got {n}$"):
        enumerate_sublattices(n, 2, 1)


def test_heisenberg_verdicts_by_hand():
    # index p: the derived subring shrinks but the center does not
    assert not is_proisomorphic(H1, ((2, 0, 0), (0, 1, 0), (0, 0, 1)), 2)
    # index p^2 with both shrunk in step: still the full Heisenberg shape
    assert is_proisomorphic(H1, ((2, 0, 0), (0, 1, 0), (0, 0, 2)), 2)
    assert is_proisomorphic(H1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5)


def _reference_heisenberg_verdict(lattice, basis, p, m):
    """The verdict from all (2m)^2 brackets: the Gram matrix divided by its
    entry gcd g must be invertible mod p, by its determinant (sympy)."""
    n = 2 * m + 1
    rows = basis[:2 * m]
    gram = [[lattice.bracket(u, w)[-1] for w in rows] for u in rows]
    g = 0
    for row in gram:
        for x in row:
            g = gcd(g, x)
    if g == 0 or oracle._vp(g, p) != oracle._vp(basis[n - 1][n - 1], p):
        return False
    reduced = [[x // g for x in row] for row in gram]
    return Matrix(reduced).det() % p != 0


# (m, p, kmax): the sizes the benchmark's exact workload counts
HEISENBERG_SIZES = [(1, 2, 4), (1, 3, 4), (1, 5, 3), (2, 2, 3), (2, 3, 2), (2, 5, 1)]


@pytest.mark.parametrize("m,p,kmax", HEISENBERG_SIZES)
def test_heisenberg_verdict_matches_elimination_on_every_subring(m, p, kmax):
    lat = heisenberg_lattice(m)
    verdicts = set()
    for k in range(kmax + 1):
        verdict = oracle._verdict(lat, p, k)
        for basis in enumerate_subrings(lat, p, k):
            got = verdict(oracle._structure_constants(lat, basis))
            assert got == _reference_heisenberg_verdict(lat, basis, p, m), basis
            verdicts.add(got)
    assert verdicts == {True, False}


@st.composite
def heisenberg_bases(draw):
    """(m, p, basis): an upper-triangular basis with positive diagonal.
    Pivots are mostly 1 and small prime powers.  The z pivot is usually a
    divisor of the gcd of the z-brackets of the non-central rows, so that
    the basis spans a subring and every test of the reference verdict
    (valuations of g, then the determinant) decides some draws; otherwise
    it is drawn like the other pivots and may not span a subring."""
    m = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    n = 2 * m + 1
    pivots = st.sampled_from([1, 1, 1, 2, 3, 4, 5, 8, 9, 25])
    rows = [
        tuple(
            draw(pivots) if i == j else draw(st.integers(-12, 12)) if j > i else 0
            for j in range(n)
        )
        for i in range(2 * m)
    ]
    lat = heisenberg_lattice(m)
    g = 0
    for a in range(2 * m):
        for b in range(a + 1, 2 * m):
            g = gcd(g, lat.bracket(rows[a], rows[b])[-1])
    if g and draw(st.integers(0, 3)):
        z_gen = draw(st.sampled_from([d for d in range(1, g + 1) if g % d == 0]))
    else:
        z_gen = draw(pivots)
    return m, p, tuple(rows) + ((0,) * (n - 1) + (z_gen,),)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(heisenberg_bases())
def test_heisenberg_verdict_matches_elimination_on_random_bases(drawn):
    m, p, basis = drawn
    lat = heisenberg_lattice(m)
    closed = all(
        oracle._span_coefficients(basis, lat.bracket(u, w)) is not None
        for u in basis for w in basis
    )
    if closed:
        verdict = oracle._verdict(lat, p, sum(oracle._vp(row[i], p) for i, row in enumerate(basis)))
        assert verdict(oracle._structure_constants(lat, basis)) == (
            _reference_heisenberg_verdict(lat, basis, p, m)
        )
    else:
        with pytest.raises(ValueError, match="not span a subring"):
            is_proisomorphic(lat, basis, p)


# Of the m(2m - 1) pairs of non-central rows, the m(m - 1)/2 pairs of two
# y-rows never bracket to nonzero on a triangular basis: 1, 5 and 12 remain.
# The walk brackets each of them once, and the verdict reads its table.
@pytest.mark.parametrize("m", [1, 2, 3])
def test_heisenberg_count_brackets_each_pair_once(m, monkeypatch):
    lat = heisenberg_lattice(m)
    calls = []
    in_verdict = []
    bracket = oracle._bracket
    set_up = oracle._elementary_divisor_verdict

    def counted(table, u, w):
        calls.append((u, w))
        return bracket(table, u, w)

    def watched_set_up(*args):
        verdict = set_up(*args)

        def watched(table):
            before = len(calls)
            got = verdict(table)
            in_verdict.append(len(calls) - before)
            return got

        return watched

    monkeypatch.setattr(oracle, "_bracket", counted)
    monkeypatch.setattr(oracle, "_elementary_divisor_verdict", watched_set_up)
    # H_3 has rank 7, one above the rank cap; at k = 0 there is one subring
    monkeypatch.setattr(oracle, "MAX_ENUM_RANK", 7)
    assert count_proisomorphic(lat, 2, 0) == 1
    assert len(calls) == {1: 1, 2: 5, 3: 12}[m]
    assert in_verdict == [0]


@st.composite
def alternating_forms(draw):
    """(size, omega): an alternating integer form of size <= 6 as
    `_pair_valuations` takes it, {(a, b): c} for a < b with c nonzero.
    Entries are mostly small multiples of 2, 3 and 5, so that pivots of
    every valuation and long eliminations both occur."""
    size = draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 5, 6, -8, 9, 12, -18, 25, 27, 50])
    omega = {}
    for a in range(size):
        for b in range(a + 1, size):
            c = draw(entry)
            if c:
                omega[a, b] = c
    return size, omega


# The invariant factors of an alternating form come in equal pairs d_1, d_1,
# d_2, d_2, ... (sympy lists them ascending by divisibility, zeros last):
# one valuation per pair, and with q = p^cap only the pairs below the cap.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(alternating_forms(), st.sampled_from([2, 3, 5]), st.integers(1, 4))
def test_pair_valuations_match_the_invariant_factors(drawn, p, cap):
    size, omega = drawn
    full = Matrix(size, size, lambda a, b: omega.get((a, b), 0) - omega.get((b, a), 0))
    factors = [int(d) for d in invariant_factors(full, domain=ZZ) if d] if size else []
    assert factors[0::2] == factors[1::2]
    pairs = [oracle._vp(d, p) for d in factors[0::2]]
    assert oracle._pair_valuations(omega, p) == pairs
    assert oracle._pair_valuations(omega, p, p**cap) == [v for v in pairs if v < cap]


@st.composite
def triangular_bases_and_vectors(draw):
    """(basis, vec): an upper-triangular integer basis of rank <= 5 with
    nonzero pivots, and either an integer combination of its rows, in the
    span, or a vector drawn freely, in the span or not."""
    n = draw(st.integers(1, 5))
    basis = tuple(
        (0,) * i + (draw(st.integers(-6, 6).filter(bool)),)
        + tuple(draw(st.integers(-6, 6)) for _ in range(i + 1, n))
        for i in range(n)
    )
    if draw(st.booleans()):
        coeffs = [draw(st.integers(-4, 4)) for _ in range(n)]
        vec = [sum(c * row[col] for c, row in zip(coeffs, basis)) for col in range(n)]
    else:
        vec = [draw(st.integers(-20, 20)) for _ in range(n)]
    return basis, vec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(triangular_bases_and_vectors())
def test_span_coefficients_match_exact_back_substitution(drawn):
    basis, vec = drawn
    n = len(basis)
    # x basis = vec over Q, solved column by column
    x = []
    for j in range(n):
        x.append((vec[j] - sum(x[i] * basis[i][j] for i in range(j))) / Fraction(basis[j][j]))
    terms = oracle._span_coefficients(basis, vec)
    if any(c.denominator != 1 for c in x):
        assert terms is None
    else:
        assert terms == tuple((l, int(c)) for l, c in enumerate(x) if c)
        ls = [l for l, _ in terms]
        assert ls == sorted(set(ls)) and all(c for _, c in terms)


@pytest.mark.parametrize("lat,p,kmax", [(M3, 2, 2), (H1_PLUS_Z, 2, 2), (H2, 2, 2)])
def test_structure_constants_match_all_ordered_pairs(lat, p, kmax):
    for k in range(kmax + 1):
        for basis in enumerate_subrings(lat, p, k):
            full = [
                [_expanded(lat.rank, oracle._span_coefficients(basis, lat.bracket(u, w)))
                 for w in basis]
                for u in basis
            ]
            assert _dense(lat.rank, oracle._structure_constants(lat, basis)) == full
    # [e1, e2] = e3 is not in span(e1, e2, 2 e3, e4)
    basis = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))
    assert oracle._structure_constants(M3, basis) is None
    assert not is_subring(M3, basis)
    with pytest.raises(ValueError, match="not span a subring"):
        is_proisomorphic(M3, basis, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presentations(), st.data())
def test_pairs_left_out_bracket_to_zero_on_triangular_rows(lat, data):
    n = lat.rank
    rows = [
        [data.draw(st.integers(-5, 5)) if j >= i else 0 for j in range(n)]
        for i in range(n)
    ]
    kept = {(i, j): terms for i, j, terms in lat._pairs}
    for i in range(n):
        for j in range(i + 1, n):
            full = lat.bracket(rows[i], rows[j])
            if (i, j) in kept:
                assert oracle._bracket(kept[i, j], rows[i], rows[j]) == full
            else:
                assert full == [0] * n


def test_abelian_counts_are_all_sublattices():
    assert [count_proisomorphic(abelian_lattice(3), 2, k) for k in range(3)] == [
        1, 7, 35,
    ]


def _admissible(n, p, k):
    try:
        oracle._check_enum_guards(n, p, k)
    except ResourceGuardError:
        return False
    return True


# An abelian count adds the number of row-0 tails of each prefix, without
# walking them; the reference is the series and, where it is small enough
# to list, enumerate_sublattices.  Z^5 at 3^4 is the largest admissible count.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_abelian_counts_are_the_last_row_counts(n):
    for p in oracle.ENUM_PRIMES:
        series = make_W(abelian(n), 1).expand_series(p, oracle.MAX_ENUM_K)
        for k in range(oracle.MAX_ENUM_K + 1):
            if not _admissible(n, p, k):
                continue
            count = count_proisomorphic(abelian_lattice(n), p, k)
            assert count == series[k]
            if count <= 20000:
                assert count == sum(1 for _ in enumerate_sublattices(n, p, k))


@pytest.mark.parametrize("lat", [
    pytest.param(abelian_lattice(1), id="abelian1"),
    pytest.param(lattice_from_dict({"rank": 1}), id="rank1-dict"),
])
def test_rank_one_counts_one_at_every_k(lat):
    for p in oracle.ENUM_PRIMES:
        for k in range(oracle.MAX_ENUM_K + 1):
            assert count_proisomorphic(lat, p, k) == 1
            assert list(enumerate_subrings(lat, p, k)) == [((p**k,),)]


@pytest.mark.parametrize("n,p,kmax", [(4, 3, 3), (5, 2, 3)])
def test_abelian_counts_match_series_without_verdicts(n, p, kmax, monkeypatch):
    def no_verdict(*args, **kwargs):
        raise AssertionError("an abelian count called is_proisomorphic")

    monkeypatch.setattr(oracle, "is_proisomorphic", no_verdict)
    series = make_W(abelian(n), 1).expand_series(p, kmax)
    lat = abelian_lattice(n)
    assert [count_proisomorphic(lat, p, k) for k in range(kmax + 1)] == [
        series[k] for k in range(kmax + 1)
    ]


def test_heisenberg_counts_match_series():
    w = make_W(heisenberg(1), 1)
    series = w.expand_series(2, 4)
    counts = [count_proisomorphic(H1, 2, k) for k in range(5)]
    assert counts == [series[k] for k in range(5)]
    assert counts == [1, 0, 12, 0, 112]
    assert count_proisomorphic(H1, 3, 2) == 36


def test_second_heisenberg_count():
    w = make_W(heisenberg(2), 1)
    series = w.expand_series(2, 3)
    assert series[3] == 240
    assert count_proisomorphic(H2, 2, 3) == 240


def test_generic_rank4_counts_match_series():
    w = make_W(maxclass(3), 1)
    series = w.expand_series(2, 3)
    counts = [count_proisomorphic(M3, 2, k) for k in range(4)]
    assert counts == [series[k] for k in range(4)]
    assert counts == [1, 0, 0, 32]


# Pinned counts of presentations that no other test counts.  M3 at p = 2 is
# derived-saturated (one rank mod p per subring), the others are of
# Heisenberg type (elementary divisors per subring).
@pytest.mark.parametrize("lat,p,counts", [
    pytest.param(_scaled(H1, 2), 2, [1, 0, 12, 0, 112], id="scale2-p2"),
    pytest.param(_scaled(H1, 2), 3, [1, 0], id="scale2-p3"),
    pytest.param(_scaled(H1, -3), 2, [1, 0, 12, 0], id="scale-3-p2"),
    pytest.param(H1_PLUS_Z, 2, [1, 4, 40, 160], id="H1+Z-p2"),
    pytest.param(H1_PLUS_Z, 3, [1, 9, 189], id="H1+Z-p3"),
    pytest.param(M3, 2, [1, 0, 0, 32, 64], id="M3-p2"),
    pytest.param(_permuted(H1, (0, 2, 1)), 3, [1, 0, 36, 0], id="perm021-p3"),
    # the bracket is invisible modulo 2^(k + C_SAFETY), which only the search reads
    pytest.param(_scaled(H1, 10**23), 2, [1, 0, 12, 0], id="scale10^23-p2"),
    # z in the middle, bracket scaled by -3: seconds per subring for the search
    pytest.param(LieLattice(3, ((0, 2, ((1, -3),)),)), 3, [1, 0, 36], id="z-middle-scale-3-p3"),
    # rank 5, above MAX_GENERIC_RANK: the t^k coefficients of heisenberg:2
    pytest.param(_permuted(H2, (4, 0, 1, 2, 3)), 2, [1, 0, 0, 240], id="H2-z-first-p2"),
])
def test_pinned_counts(lat, p, counts):
    assert [count_proisomorphic(lat, p, k) for k in range(len(counts))] == counts


# Presentations of H1 over Z_p that are not the standard tensor, so their
# verdicts are read off elementary divisors: the five other basis orders,
# and (at p = 2, where 3 is a unit) the bracket scaled by 3.
H1_PRESENTATIONS = [
    pytest.param(_permuted(H1, q), p, kmax, id=f"perm{''.join(map(str, q))}-p{p}")
    for q in H1_ORDERS
    for p, kmax in ((2, 3), (3, 2))
] + [pytest.param(_scaled(H1, 3), 2, 3, id="scale3-p2")]


@pytest.mark.parametrize("lat,p,kmax", H1_PRESENTATIONS)
def test_generic_search_matches_heisenberg_series(lat, p, kmax):
    assert lat.heisenberg_m() is None
    series = make_W(heisenberg(1), 1).expand_series(p, kmax)
    counts = [count_proisomorphic(lat, p, k) for k in range(kmax + 1)]
    assert counts == [series[k] for k in range(kmax + 1)]


def _rebased(lat, rows, inverse):
    """The lattice in the basis f_a = sum_i rows[a][i] e_i: [f_a, f_b] is
    L's bracket of two rows, read in f-coordinates through the inverse."""
    n = lat.rank
    table = []
    for a in range(n):
        for b in range(a + 1, n):
            v = lat.bracket(rows[a], rows[b])
            x = [sum(v[i] * inverse[i][l] for i in range(n)) for l in range(n)]
            if any(x):
                table.append((a, b, tuple((l, c) for l, c in enumerate(x) if c)))
    return LieLattice(n, tuple(table))


@pytest.mark.parametrize("lat,kind", [
    *(pytest.param(_permuted(H1, q), "heisenberg-type", id=f"perm{''.join(map(str, q))}")
      for q in H1_ORDERS),
    pytest.param(_scaled(H1, -3), "heisenberg-type", id="scale-3"),
    pytest.param(H1, "heisenberg-type", id="H1"),
    pytest.param(H2, "heisenberg-type", id="H2"),
    # f_2 = e_0 + e_2: [f_0, f_1] = f_2 - f_0 lands on f_0, a bracketed
    # coordinate, so the kind is read off the brackets of units
    pytest.param(_rebased(H1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]], [[1, 0, 0], [0, 1, 0], [-1, 0, 1]]),
                 "heisenberg-type", id="H1-rebased"),
    pytest.param(H1_PLUS_Z, "heisenberg-type", id="H1+Z"),
    pytest.param(_permuted(H2, (4, 0, 1, 2, 3)), "heisenberg-type", id="H2-z-first"),
    pytest.param(M3, "n4", id="M3"),
    pytest.param(_scaled(_permuted(M3, (3, 1, 0, 2)), 2), "n4", id="M3-permuted-scaled"),
    # class 2 with [L, L] of rank 2
    pytest.param(lattice_from_dict(
        {"rank": 5, "brackets": [[1, 2, [0, 0, 0, 1, 0]], [1, 3, [0, 0, 0, 0, 1]]]}
    ), None, id="rank5-class2"),
    # not nilpotent: [e1, e2] = e2, alone and beside a central Z^2
    pytest.param(lattice_from_dict({"rank": 2, "brackets": [[1, 2, [0, 1]]]}), None, id="ax+b"),
    pytest.param(lattice_from_dict({"rank": 4, "brackets": [[1, 2, [0, 1, 0, 0]]]}), None,
                 id="ax+b+Z2"),
])
def test_lattice_kind(lat, kind):
    assert lat._kind == kind


# The exact verdicts against the level-limited search, their reference, on
# every walked subring.  H1 in its five other basis orders, H1 scaled by +-2
# and +-3, and H1+Z are of Heisenberg type; M3 is derived-saturated at 2.
# H1 scaled by +-3 stays at k = 0 for p = 3, where the search takes seconds a
# subring.
DIFFERENTIAL_CASES = [
    pytest.param(_permuted(H1, q), ((2, 3), (3, 1)), id=f"perm{''.join(map(str, q))}")
    for q in H1_ORDERS
] + [
    pytest.param(_scaled(H1, s), ((2, 3), (3, 1) if s % 3 else (3, 0)), id=f"scale{s}")
    for s in (2, -2, 3, -3)
] + [
    pytest.param(H1_PLUS_Z, ((2, 2),), id="H1+Z"),
    pytest.param(M3, ((2, 3),), id="M3"),
]


@pytest.mark.parametrize("lat,sizes", DIFFERENTIAL_CASES)
def test_exact_verdicts_match_the_search(lat, sizes, monkeypatch):
    searched = oracle._searched_verdict

    def no_search(*args):
        raise AssertionError("the verdict took the search")

    monkeypatch.setattr(oracle, "_searched_verdict", no_search)
    verdicts = set()
    for p, kmax in sizes:
        for k in range(kmax + 1):
            exact, reference = oracle._verdict(lat, p, k), searched(lat, p, k)
            for basis in enumerate_subrings(lat, p, k):
                table = oracle._structure_constants(lat, basis)
                got = exact(table)
                assert got == reference(table), (p, k, basis)
                verdicts.add(got)
    assert verdicts == {True, False}


@st.composite
def unimodular(draw, n):
    """An n x n integer matrix of determinant +-1, a signed permutation
    matrix after a few row additions, and its inverse."""
    rows = [
        [sign * int(i == j) for j in range(n)]
        for i, sign in zip(draw(st.permutations(range(n))), draw(st.lists(
            st.sampled_from([1, -1]), min_size=n, max_size=n)))
    ]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    inverse = Matrix(rows).inv()
    return rows, [[int(inverse[i, j]) for j in range(n)] for i in range(n)]


REBASED = {"H1": H1, "H1+Z": H1_PLUS_Z, "H2": H2, "M3": M3}


# Each basis is counted at p = 2 up to k = 3 (M3's first nonzero count, 32)
# and at p = 3 up to k = 2 (H1's 36).
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(REBASED)), st.data())
def test_a_unimodular_change_of_basis_keeps_the_count(name, data):
    lat = REBASED[name]
    rows, inverse = data.draw(unimodular(lat.rank))
    rebased = _rebased(lat, rows, inverse)
    assert rebased._kind == lat._kind
    for p, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        assert count_proisomorphic(rebased, p, k) == count_proisomorphic(lat, p, k)


def test_generic_search_refuses_over_budget(monkeypatch):
    monkeypatch.setattr(oracle, "NODE_BUDGET", 100)
    basis = ((8, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    # a False verdict needs the whole search, which exceeds the budget
    with pytest.raises(ResourceGuardError, match="100 nodes"):
        oracle._isomorphism_search(M3, oracle._structure_constants(M3, basis), 2, 3 + 2)
    # the abelianizations differ modulo 2^5, so the verdict needs no search
    assert not is_proisomorphic(M3, basis, 2)
    # a True verdict stops at the first base map that lifts
    assert is_proisomorphic(M3, ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), 2)


def _m3_deep(c):
    """M3 with [e1, e3] = c e4: for c divisible by p its table vectors have
    rank 1 mod p, so it is not derived-saturated at p and is searched."""
    return lattice_from_dict({
        "rank": 4, "brackets": [[1, 2, [0, 0, 1, 0]], [1, 3, [0, 0, 0, c]]],
    })


def test_generic_verdict_refuses_bracket_invisible_at_the_search_level():
    big = _m3_deep(10**23)
    basis = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    # v_2(10^23) = 23 >= 2 + C_SAFETY: the bracket vanishes modulo 2^4
    with pytest.raises(ValueError, match="vanishes modulo 2\\^4"):
        is_proisomorphic(big, basis, 2)
    with pytest.raises(ValueError, match="vanishes modulo 2\\^2"):
        count_proisomorphic(_m3_deep(4), 2, 0)
    # one level further up v_2(4) = 2 is below 1 + C_SAFETY, and the count stands
    assert count_proisomorphic(_m3_deep(4), 2, 1) == 0


def _reference_abelianization_type(n, table, p, cap):
    """The abelianization type from the integer invariant factors of the
    dense bracket matrix (sympy): Z/s becomes Z/p^min(v_p(s), cap), and a
    zero or missing factor Z/p^cap."""
    t = _dense(n, table)
    rows = [t[a][b] for a in range(n) for b in range(a + 1, n)]
    factors = list(invariant_factors(Matrix(rows), domain=ZZ)) if rows else []
    factors += [0] * (n - len(factors))
    return sorted(
        min(oracle._vp(s, p), cap) if s else cap for s in map(int, factors[:n])
    )


# M3 and H1+Z at p = 3 are left out: their unfiltered searches take minutes.
@pytest.mark.parametrize("lat,p,kmax,rejected", [
    pytest.param(_permuted(H1, (2, 0, 1)), 2, 3, 53, id="perm201-p2"),
    pytest.param(M3, 2, 1, 3, id="M3-p2"),
    pytest.param(H1_PLUS_Z, 2, 1, 3, id="H1+Z-p2"),
])
def test_abelianization_prefilter_rejects_only_false_verdicts(lat, p, kmax, rejected):
    n = lat.rank
    seen = 0
    for k in range(kmax + 1):
        target = k + 2
        ambient = oracle._abelianization_type(lat.brackets, n, p, target)
        assert ambient == _reference_abelianization_type(n, lat.brackets, p, target)
        for basis in enumerate_subrings(lat, p, k):
            cm = oracle._structure_constants(lat, basis)
            sub = oracle._abelianization_type(cm, n, p, target)
            assert sub == _reference_abelianization_type(n, cm, p, target)
            if ambient != sub:
                seen += 1
                assert not oracle._isomorphism_search(lat, cm, p, target)
    assert seen == rejected


# The presentations of the benchmark's oracle-generic workload, each at its
# (p, kmax).  The sha256 of their verdict sequence was recorded from the
# dense-tensor oracle that the bracket tables replaced.
GENERIC_CASES = (
    [("M3", M3, ((2, 1),)), ("H1+Z", H1_PLUS_Z, ((2, 1),))]
    + [(f"perm{q}", _permuted(H1, q), ((2, 3), (3, 1)))
       for q in [(0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]]
    + [(f"scale{s}", _scaled(H1, s), ((2, 3), (3, 1))) for s in (2, -2)]
    + [(f"scale{s}", _scaled(H1, s), ((2, 3), (3, 0))) for s in (3, -3)]
)
GENERIC_VERDICTS_SHA256 = "0dbe1230c2aa8b070a2ffda61443a849e1b23bb9e07bdac052d3434fb5b101c6"


def test_generic_verdicts_match_pin():
    verdicts = [
        [label, p, k, [
            int(is_proisomorphic(lat, basis, p)) for basis in enumerate_subrings(lat, p, k)
        ]]
        for label, lat, sizes in GENERIC_CASES
        for p, kmax in sizes
        for k in range(kmax + 1)
    ]
    assert sum(len(v[3]) for v in verdicts) == 676
    text = json.dumps(verdicts, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERIC_VERDICTS_SHA256


# The checks of `is_proisomorphic`, on an abelian, a standard and a permuted H1
CHECKED_LATTICES = [
    pytest.param(abelian_lattice(3), id="Z3"),
    pytest.param(H1, id="H1"),
    pytest.param(_permuted(H1, (0, 2, 1)), id="perm021"),
]
GOOD_BASIS = ((2, 0, 0), (0, 2, 0), (0, 0, 4))


@pytest.mark.parametrize("lat", CHECKED_LATTICES)
@pytest.mark.parametrize("p,error", [
    (0, ResourceGuardError), (4, ResourceGuardError), (7, ResourceGuardError),
    (2.0, InputError), (True, InputError),
])
def test_is_proisomorphic_refuses_a_bad_prime(lat, p, error):
    assert is_subring(lat, GOOD_BASIS)
    with pytest.raises(error):
        is_proisomorphic(lat, GOOD_BASIS, p)
    # the prime is checked before the basis
    with pytest.raises(error):
        is_proisomorphic(lat, ((1, 0), (0, 1)), p)


@pytest.mark.parametrize("lat", CHECKED_LATTICES)
@pytest.mark.parametrize("basis", BAD_BASES)
def test_is_proisomorphic_refuses_a_basis_of_the_wrong_shape(lat, basis):
    with pytest.raises(InputError):
        is_proisomorphic(lat, basis, 2)


@pytest.mark.parametrize("lat,basis", [
    # Z^3 has no non-subring: each sublattice is one
    pytest.param(H1, ((1, 0, 0), (0, 1, 0), (0, 0, 2)), id="H1"),
    pytest.param(_permuted(H1, (0, 2, 1)), ((1, 0, 0), (0, 2, 0), (0, 0, 1)), id="perm021"),
])
def test_is_proisomorphic_refuses_a_basis_that_spans_no_subring(lat, basis):
    assert not is_subring(lat, basis)
    with pytest.raises(InputError, match="does not span a subring"):
        is_proisomorphic(lat, basis, 2)


# After the other refusal tests: p = 1 made the searched verdict's valuation
# loop forever, so a regression hangs here, in one named test.
@pytest.mark.parametrize("lat", CHECKED_LATTICES)
def test_is_proisomorphic_refuses_p_1(lat):
    with pytest.raises(ResourceGuardError):
        is_proisomorphic(lat, GOOD_BASIS, 1)


COUNT_CASES = [
    pytest.param(lat, p, kmax, id=f"{label}-p{p}")
    for label, lat, sizes in GENERIC_CASES
    for p, kmax in sizes
] + [
    pytest.param(heisenberg_lattice(m), p, kmax, id=f"H{m}-p{p}")
    for m, p, kmax in HEISENBERG_SIZES
]


@pytest.mark.parametrize("lat,p,kmax", COUNT_CASES)
def test_counts_are_the_sum_of_checked_verdicts(lat, p, kmax):
    for k in range(kmax + 1):
        assert count_proisomorphic(lat, p, k) == sum(
            is_proisomorphic(lat, basis, p) for basis in enumerate_subrings(lat, p, k)
        )


# On `presentations()`: H1 and H1+Z with z last, and the class-2 tables with
# the central coordinates last, have central tails of width 1 or 2.  A
# searched verdict that fails can take the whole search, so the test stays
# short with p = 3 only up to k = 1 and a lowered node budget.  A count must
# then be refused exactly when a checked verdict of one of its subrings is,
# since each weighted class shares one table.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(presentations(), st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]))
def test_counts_are_the_sum_of_checked_verdicts_on_random_presentations(lat, pk):
    p, k = pk

    def outcome(count):
        try:
            return count()
        except ResourceGuardError:
            return "refused"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "NODE_BUDGET", 256)
        assert outcome(lambda: count_proisomorphic(lat, p, k)) == outcome(lambda: sum(
            is_proisomorphic(lat, basis, p) for basis in enumerate_subrings(lat, p, k)
        ))


@pytest.mark.parametrize("lat,p,k,count", [
    pytest.param(abelian_lattice(3), 2, 2, 35, id="Z3"),
    pytest.param(H1, 2, 2, 12, id="H1"),
    pytest.param(_permuted(H1, (0, 2, 1)), 2, 2, 12, id="perm021"),
])
def test_a_count_sets_its_verdict_up_once(lat, p, k, count, monkeypatch):
    calls = []
    verdict = oracle._verdict

    def counted(*args):
        calls.append(args)
        return verdict(*args)

    def no_entry(*args):
        raise AssertionError("a count called is_proisomorphic")

    monkeypatch.setattr(oracle, "_verdict", counted)
    monkeypatch.setattr(oracle, "is_proisomorphic", no_entry)
    assert count_proisomorphic(lat, p, k) == count
    assert calls == [(lat, p, k)]


def test_enumeration_guards_refuse_before_the_verdict():
    rank5 = lattice_from_dict(
        {"rank": 5, "brackets": [[1, 2, [0, 0, 0, 1, 0]], [1, 3, [0, 0, 0, 0, 1]]]}
    )
    with pytest.raises(InputError, match="no exact criterion"):
        count_proisomorphic(rank5, 2, 1)
    with pytest.raises(ResourceGuardError, match="primes restricted"):
        count_proisomorphic(rank5, 7, 1)
    with pytest.raises(ResourceGuardError, match="exponent capped"):
        count_proisomorphic(_scaled(H1, 2**30), 2, 5)


def test_generic_rank_guard():
    # rank 5, neither abelian nor a standard Heisenberg tensor
    lat = lattice_from_dict(
        {"rank": 5, "brackets": [[1, 2, [0, 0, 0, 1, 0]], [1, 3, [0, 0, 0, 0, 1]]]}
    )
    basis = tuple(tuple(2 if i == j == 0 else int(i == j) for j in range(5)) for i in range(5))
    with pytest.raises(ValueError, match="no exact criterion"):
        is_proisomorphic(lat, basis, 2)
