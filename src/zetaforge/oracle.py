"""Brute-force subring counts for small Lie lattices over the integers.

Everything here is ground truth by enumeration: list the finite-index
subrings of Z^n in Hermite normal form, and decide whether each is
pro-isomorphic to the ambient lattice at p.  The subrings are enumerated with
closure pruning, for every presentation: the basis is built from its last row
up, and each bracket [row_i, row_j] is tested as soon as the rows that span
the subring on the columns the bracket can reach are placed; a branch is cut
at the first bracket outside that span.  Every bracket reads one sparse table
of the nonzero [e_a, e_b] per lattice.  The decision is exact for abelian and
Heisenberg-type lattices.  Every subring of an abelian lattice is
pro-isomorphic to it, so abelian counts make no verdict call.  A subring of
the Heisenberg lattice of rank 2m+1 is decided by valuations: its non-central
rows bracket to an alternating Gram matrix G on the z axis, with entry gcd g,
and the answer is True iff g != 0, v_p(g) = v_p(z_gen) and
v_p(Pf(G)) = m v_p(g) with Pf(G) != 0 (G/g invertible mod p).

For anything else (rank at most 4) the verdict is level-limited.  It is
pre-filtered by abelianization: when M/[M,M] and L/[L,L] differ modulo
p^(k + c_safety) the answer is False without a search.  Otherwise
bracket-preserving basis maps mod p are searched depth first, and each is
lifted towards level p^(k + c_safety) as soon as it is found.  True is
returned as soon as one base map lifts that far; False only after the whole
search has failed.  A search that exceeds NODE_BUDGET nodes is refused with
ResourceGuardError, never truncated into a verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd

from .laurent import InputError, ResourceGuardError

MAX_ENUM_RANK = 6
ENUM_PRIMES = (2, 3, 5)
MAX_ENUM_K = 4
MAX_GENERIC_RANK = 4
NODE_BUDGET = 2**20


@dataclass(frozen=True)
class LieLattice:
    """Free Z-Lie ring of rank n given by its structure tensor.

    tensor[i][j] is the coordinate vector of the bracket of basis elements
    i and j (0-indexed).  Antisymmetry and the Jacobi identity are enforced
    at construction.
    """

    rank: int
    tensor: tuple

    def __post_init__(self):
        n = self.rank
        t = self.tensor
        if n < 1:
            raise InputError(f"rank must be at least 1, got {n}")
        if len(t) != n or any(len(row) != n for row in t):
            raise InputError("structure tensor must be rank x rank")
        for i in range(n):
            for j in range(n):
                if len(t[i][j]) != n:
                    raise InputError("bracket vectors must have length rank")
                if any(t[i][j][l] != -t[j][i][l] for l in range(n)):
                    raise InputError("structure tensor is not antisymmetric")
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    jac = [0] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = t[a][b]
                        for l in range(n):
                            if inner[l]:
                                for r in range(n):
                                    jac[r] += inner[l] * t[l][c][r]
                    if any(jac):
                        raise InputError(f"Jacobi identity fails on ({i},{j},{k})")

    def bracket(self, u, w):
        return _bracket(self._table, u, w)

    def is_abelian(self):
        return not self._table

    def heisenberg_m(self):
        """m if this is the standard Heisenberg tensor of rank 2m+1, else None."""
        return self._heisenberg_m

    # Built once per instance: every bracket reads the table, and
    # recognising Heisenberg builds and validates a whole heisenberg_lattice(m).
    @cached_property
    def _table(self):
        """The nonzero [e_a, e_b], a < b, as (a, b, ((l, c), ...)) with
        [e_a, e_b] = sum of c e_l."""
        n = self.rank
        return tuple(
            (a, b, tuple((l, c) for l, c in enumerate(self.tensor[a][b]) if c))
            for a in range(n) for b in range(a + 1, n) if any(self.tensor[a][b])
        )

    @cached_property
    def _heisenberg_m(self):
        n = self.rank
        if n % 2 == 0 or n < 3:
            return None
        m = (n - 1) // 2
        if self.tensor == heisenberg_lattice(m).tensor:
            return m
        return None


def _bracket(table, u, w):
    """[u, w] through `table`, part of a bracket table (see
    `LieLattice._table`) holding every entry (a, b, vec) with u[a] w[b] or
    u[b] w[a] nonzero."""
    out = [0] * len(u)
    for a, b, vec in table:
        c = u[a] * w[b] - u[b] * w[a]
        if c:
            for l, x in vec:
                out[l] += c * x
    return out


def _freeze(tensor):
    return tuple(tuple(tuple(v) for v in row) for row in tensor)


def abelian_lattice(n):
    zero = [[[0] * n for _ in range(n)] for _ in range(n)]
    return LieLattice(n, _freeze(zero))


def heisenberg_lattice(m):
    """Rank 2m+1 with [x_i, y_i] = z; basis order x_1..x_m, y_1..y_m, z."""
    n = 2 * m + 1
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(m):
        t[i][m + i][n - 1] = 1
        t[m + i][i][n - 1] = -1
    return LieLattice(n, _freeze(t))


def _lattice_fields(data):
    """(rank, [(i, j, vec), ...]) read from lattice data, 0-indexed, without
    building the rank^3 structure tensor."""
    try:
        n = int(data["rank"])
        brackets = [
            (int(i) - 1, int(j) - 1, [int(c) for c in vec])
            for i, j, vec in data.get("brackets", ())
        ]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed lattice data: {exc!r}") from exc
    return n, brackets


def lattice_from_dict(data):
    """{"rank": n, "brackets": [[i, j, [c_1..c_n]], ...]} with 1-indexed i<j;
    omitted brackets are zero, antisymmetry is filled in."""
    n, brackets = _lattice_fields(data)
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    for i, j, vec in brackets:
        if not (0 <= i < j < n):
            raise InputError(f"bracket indices must satisfy 1 <= i < j <= {n}")
        if (i, j) in seen:
            raise InputError(f"duplicate bracket ({i + 1},{j + 1})")
        seen.add((i, j))
        if len(vec) != n:
            raise InputError("bracket coefficient vectors must have length rank")
        t[i][j] = vec
        t[j][i] = [-c for c in vec]
    return LieLattice(n, _freeze(t))


def lattice_from_json(text):
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return lattice_from_dict(data)


def _check_enum_guards(n, p, k):
    if n > MAX_ENUM_RANK:
        raise ResourceGuardError(f"sublattice enumeration capped at rank {MAX_ENUM_RANK}")
    if p not in ENUM_PRIMES:
        raise ResourceGuardError(f"enumeration primes restricted to {ENUM_PRIMES}")
    if k > MAX_ENUM_K:
        raise ResourceGuardError(f"enumeration index exponent capped at {MAX_ENUM_K}")
    if k < 0:
        raise InputError("index exponent must be nonnegative")


def _compositions_colex(total, parts):
    out = []

    def rec(remaining, slots, acc):
        if slots == 1:
            out.append(acc + [remaining])
            return
        for v in range(remaining + 1):
            rec(remaining - v, slots - 1, acc + [v])

    rec(total, parts, [])
    out.sort(key=lambda c: tuple(reversed(c)))
    return out


def enumerate_sublattices(n, p, k):
    """All row-HNF bases of sublattices of Z^n of index p^k, each once.

    Diagonals run through the exponent compositions of k in colexicographic
    order; for each diagonal the above-pivot entries run through
    `itertools.product` (last position fastest), every entry reduced modulo
    the pivot below it.
    """
    _check_enum_guards(n, p, k)
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for comp in _compositions_colex(k, n):
        diag = [p**e for e in comp]
        for entries in product(*(range(diag[j]) for _, j in positions)):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = diag[i]
            for (i, j), v in zip(positions, entries):
                m[i][j] = v
            yield tuple(tuple(row) for row in m)


def _span_coefficients(basis, vec):
    """Integer coordinates of vec in the row span of an upper-triangular
    basis, or None if vec is not in the span.  A row is read only where vec
    has a nonzero coordinate on its pivot, so rows of a partial basis that
    vec cannot involve may be None."""
    n = len(basis)
    v = list(vec)
    coeffs = []
    for j in range(n):
        if not v[j]:
            coeffs.append(0)
            continue
        row = basis[j]
        q, r = divmod(v[j], row[j])
        if r:
            return None
        coeffs.append(q)
        for col in range(j, n):
            v[col] -= q * row[col]
    return coeffs


def is_subring(lattice, basis):
    """True iff the row span is closed under the lattice bracket."""
    n = lattice.rank
    for a in range(n):
        for b in range(a + 1, n):
            w = lattice.bracket(basis[a], basis[b])
            if _span_coefficients(basis, w) is None:
                return False
    return True


def enumerate_subrings(lattice, p, k):
    """All row-HNF bases of subrings of index p^k, each once.

    The basis is built bottom-up, row n-1 first and row 0 last, each row
    running through its pivot p^e and its entries reduced modulo the pivots
    below.  The basis spans a subring iff each bracket [row_i, row_j] (i < j)
    lies in the span.  That bracket lives on the columns >= l, the least
    column the bracket table reaches from rows i and j, and the subring's
    part on the columns >= s = min(i, l) is the span of rows s..n-1.  So the
    bracket is tested as soon as row s is placed, and a branch that fails is
    cut there; pairs whose bracket is identically zero are never tested.
    When every tail span(e_i, ...) of the lattice is a subring, s = i.
    `enumerate_sublattices` filtered by `is_subring` is the reference.
    """
    n = lattice.rank
    _check_enum_guards(n, p, k)
    checks = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # row_i lives on columns >= i and row_j on columns >= j
            terms = [(a, b, vec) for a, b, vec in lattice._table if a >= i and b >= j]
            if terms:
                s = min([i] + [l for _, _, vec in terms for l, _ in vec])
                checks[s].append((i, j, terms))
    rows = [None] * n

    def closed(s):
        for i, j, terms in checks[s]:
            if _span_coefficients(rows, _bracket(terms, rows[i], rows[j])) is None:
                return False
        return True

    def place(i, left):
        tested = bool(checks[i])
        for e in (left,) if i == 0 else range(left + 1):
            head = (0,) * i + (p**e,)
            for tail in product(*(range(rows[j][j]) for j in range(i + 1, n))):
                rows[i] = head + tail
                if tested and not closed(i):
                    continue
                if i == 0:
                    yield tuple(rows)
                else:
                    yield from place(i - 1, left - e)

    yield from place(n - 1, k)


def _vp(x, p):
    if x == 0:
        raise ValueError("infinite valuation")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _pfaffian(upper, idx=None):
    """Pfaffian of the alternating matrix whose entries above the diagonal
    are upper[a][b] (a < b), restricted to the indices `idx` (all of them by
    default), by Laplace expansion along the first row.  Pf(A)^2 = det(A)."""
    if idx is None:
        idx = tuple(range(len(upper)))
    if not idx:
        return 1
    a, rest = idx[0], idx[1:]
    total = 0
    for pos, b in enumerate(rest):
        if upper[a][b]:
            sign = -1 if pos % 2 else 1
            total += sign * upper[a][b] * _pfaffian(upper, rest[:pos] + rest[pos + 1:])
    return total


def _heisenberg_verdict(lattice, basis, p, m):
    """Exact verdict for a subring of the standard Heisenberg lattice of rank
    2m+1.  The brackets of the 2m non-central rows land on the z axis and
    form an alternating Gram matrix G with entry gcd g.  The completion is
    Heisenberg iff g != 0, v_p(g) = v_p(z_gen) (derived sublattice and
    centre agree over Z_p) and G/g is invertible mod p, i.e. p does not
    divide det(G/g) = Pf(G)^2 / g^(2m): Pf(G) != 0 and v_p(Pf(G)) = m v_p(g).
    """
    n = 2 * m + 1
    z_gen = basis[n - 1][n - 1]
    gram = [[0] * (2 * m) for _ in range(2 * m)]
    g = 0
    for a in range(2 * m):
        for b in range(a + 1, 2 * m):
            w = lattice.bracket(basis[a], basis[b])
            # brackets land on the z axis only
            assert not any(w[:-1])
            gram[a][b] = w[-1]
            g = gcd(g, w[-1])
    if g == 0:
        return False
    # derived sublattice = (g z); central intersection = (z_gen z); they must
    # agree over Z_p, i.e. have the same p-valuation
    vg = _vp(g, p)
    if vg != _vp(z_gen, p):
        return False
    pf = _pfaffian(gram)
    return pf != 0 and _vp(pf, p) == m * vg


def _structure_constants(lattice, basis):
    """out[a][b] = coordinates of [basis[a], basis[b]] in the basis.  Only
    the pairs a < b are bracketed; antisymmetry fills in the rest."""
    n = lattice.rank
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            w = lattice.bracket(basis[a], basis[b])
            coeffs = _span_coefficients(basis, w)
            if coeffs is None:
                raise ValueError("basis does not span a subring")
            out[a][b] = coeffs
            out[b][a] = [-c for c in coeffs]
    return out


def _solve_mod_p(rows, rhs, p):
    """Solve A u = b over F_p.  Returns (particular, kernel_basis) or None."""
    neq = len(rows)
    nvar = len(rows[0]) if neq else 0
    aug = [[rows[r][c] % p for c in range(nvar)] + [rhs[r] % p] for r in range(neq)]
    pivots = []
    row = 0
    for col in range(nvar):
        sel = None
        for r in range(row, neq):
            if aug[r][col]:
                sel = r
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = pow(aug[row][col], -1, p)
        aug[row] = [(x * inv) % p for x in aug[row]]
        for r in range(neq):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, neq):
        if aug[r][nvar]:
            return None
    particular = [0] * nvar
    for r, col in enumerate(pivots):
        particular[col] = aug[r][nvar]
    free = [c for c in range(nvar) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [0] * nvar
        vec[fc] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-aug[r][fc]) % p
        kernel.append(vec)
    return particular, kernel


class _Budget:
    def __init__(self, limit):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceGuardError(
                f"level-limited isomorphism search exceeded {NODE_BUDGET} nodes"
            )


def _bracket_residual(cl, cm, t, i, j, modulus):
    """Coordinates of [T e_i, T e_j] - T [e_i, e_j] mod modulus."""
    n = len(t)
    out = [0] * n
    for a in range(n):
        ta = t[a][i]
        if not ta:
            continue
        for b in range(n):
            tb = t[b][j]
            if not tb:
                continue
            vec = cl[a][b]
            for r in range(n):
                if vec[r]:
                    out[r] += ta * tb * vec[r]
    for l in range(n):
        c = cm[i][j][l]
        if c:
            for r in range(n):
                out[r] -= c * t[r][l]
    return [x % modulus for x in out]


def _base_solutions(cl, cm, p, budget):
    """Invertible bracket-preserving maps mod p, yielded column by column.

    Lazy, so the caller lifts each map to level p^(k + c_safety) as soon as
    it is found and stops at the first that lifts (True); False means every
    map was yielded and failed to lift.  Each node spends one unit of
    `budget`, which refuses a search past NODE_BUDGET, never truncates it.
    A trial column is kept only outside the F_p-span of the columns before it.
    """
    n = len(cl)
    needed = {}
    for i in range(n):
        for j in range(i + 1, n):
            top = max(i, j)
            for l in range(n):
                if cm[i][j][l]:
                    top = max(top, l)
            needed.setdefault(top, []).append((i, j))
    vectors = [tuple((v // p**r) % p for r in range(n)) for v in range(p**n)]

    def place(col, cols):
        budget.spend()
        if col == n:
            yield [list(row) for row in zip(*cols)]
            return
        span = {
            tuple(sum(c * v[r] for c, v in zip(coeffs, cols)) % p for r in range(n))
            for coeffs in product(range(p), repeat=col)
        }
        for vec in vectors:
            if vec in span:
                continue
            trial = cols + [vec]
            t = [list(row) for row in zip(*(trial + [[0] * n] * (n - col - 1)))]
            ok = True
            for i, j in needed.get(col, ()):
                if any(_bracket_residual(cl, cm, t, i, j, p)):
                    ok = False
                    break
            if ok:
                yield from place(col + 1, trial)

    yield from place(0, [])


def _lift(cl, cm, t, p, level, target, budget):
    """Depth-first Hensel-style lifting of a mod-p solution to mod p^target."""
    budget.spend()
    if level >= target:
        return True
    n = len(t)
    modulus = p**level
    rows = []
    rhs = []
    eqs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in eqs:
        residual = _bracket_residual(cl, cm, t, i, j, modulus * p)
        for r in range(n):
            coeff_row = [0] * (n * n)
            for a in range(n):
                acc = 0
                for b in range(n):
                    acc += t[b][j] * cl[a][b][r]
                coeff_row[a * n + i] += acc
            for b in range(n):
                acc = 0
                for a in range(n):
                    acc += t[a][i] * cl[a][b][r]
                coeff_row[b * n + j] += acc
            for l in range(n):
                coeff_row[r * n + l] -= cm[i][j][l]
            assert residual[r] % modulus == 0
            rows.append(coeff_row)
            rhs.append((-residual[r] // modulus) % p)
    solved = _solve_mod_p(rows, rhs, p)
    if solved is None:
        return False
    particular, kernel = solved
    # walk the affine solution space, last kernel vector fastest, budget permitting
    for counters in product(range(p), repeat=len(kernel)):
        s = list(particular)
        for vec, c in zip(kernel, counters):
            if c:
                for idx in range(len(s)):
                    s[idx] = (s[idx] + c * vec[idx]) % p
        lifted = [
            [t[r][c] + modulus * s[r * n + c] for c in range(n)] for r in range(n)
        ]
        if _lift(cl, cm, lifted, p, level + 1, target, budget):
            return True
    return False


def _abelianization_type(tensor, p, cap):
    """The abelianization modulo p^cap, (Z/p^cap)^n over the span of the
    brackets tensor[a][b], as the sorted exponents e_i of its cyclic factors
    Z/p^e_i.  Lie rings isomorphic modulo p^cap have equal types.  Smith
    normal form over Z_p, least valuation first."""
    n = len(tensor)
    q = p**cap
    rows = [[c % q for c in tensor[a][b]] for a in range(n) for b in range(a + 1, n)]
    exps = []
    while True:
        rows = [row for row in rows if any(row)]
        if not rows:
            break
        v, r, c = min(
            (_vp(x, p), r, c)
            for r, row in enumerate(rows) for c, x in enumerate(row) if x
        )
        pivot = rows.pop(r)
        scale = pow(pivot[c] // p**v, -1, q)
        # clearing column c in the other rows; the pivot row then drops out
        for row in rows:
            if row[c]:
                f = (row[c] // p**v) * scale
                row[:] = [(x - f * y) % q for x, y in zip(row, pivot)]
        exps.append(v)
    return sorted(exps + [cap] * (n - len(exps)))


def _isomorphism_search(cl, cm, p, target):
    """Is some bracket-preserving base map mod p liftable to level p^target?"""
    budget = _Budget(NODE_BUDGET)
    for base in _base_solutions(cl, cm, p, budget):
        if _lift(cl, cm, base, p, 1, target, budget):
            return True
    return False


def _generic_verdict(lattice, basis, p, k, c_safety):
    n = lattice.rank
    if n > MAX_GENERIC_RANK:
        raise InputError(
            f"no exact criterion for this lattice and rank > {MAX_GENERIC_RANK}"
        )
    target = k + c_safety
    cl = lattice.tensor
    cm = _structure_constants(lattice, basis)
    # an isomorphism modulo p^target carries one abelianization onto the
    # other, so unequal types answer False without a search
    if _abelianization_type(cl, p, target) != _abelianization_type(cm, p, target):
        return False
    return _isomorphism_search(cl, cm, p, target)


def is_proisomorphic(lattice, basis, p, c_safety=2):
    """Is the subring spanned by `basis`, p-adically completed, isomorphic to
    the completed ambient lattice?

    Exact for abelian and standard Heisenberg tensors.  Otherwise (rank <= 4)
    the verdict means "isomorphic at level p^(k + c_safety)" where p^k is the
    index: a False is certain, a True is heuristic.  False is returned
    without a search when the abelianizations differ modulo p^(k + c_safety).
    Otherwise True is returned as soon as one base map mod p lifts to level
    p^(k + c_safety); False only after the whole search.  A search that
    exceeds NODE_BUDGET nodes raises ResourceGuardError: it is refused, never
    truncated.
    """
    if lattice.is_abelian():
        return True
    m = lattice.heisenberg_m()
    if m is not None:
        return _heisenberg_verdict(lattice, basis, p, m)
    det = 1
    for i in range(lattice.rank):
        det *= basis[i][i]
    return _generic_verdict(lattice, basis, p, _vp(det, p), c_safety)


def count_proisomorphic(lattice, p, k, c_safety=2):
    """Number of index-p^k subrings whose completion at p is isomorphic to
    the ambient lattice's.

    Every subring of an abelian lattice is pro-isomorphic to it, so an
    abelian count is the number of subrings and makes no verdict call.
    """
    subrings = enumerate_subrings(lattice, p, k)
    if lattice.is_abelian():
        return sum(1 for _ in subrings)
    return sum(
        1 for basis in subrings
        if is_proisomorphic(lattice, basis, p, c_safety=c_safety)
    )
