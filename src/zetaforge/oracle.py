"""Brute-force subring counts for small Lie lattices over the integers.

Everything here is ground truth by enumeration.  A lattice is its sparse
bracket table, the nonzero [e_a, e_b] for a < b (see `LieLattice`), and every
bracket is computed from a table by `_bracket`.  `_walk` lists the subrings
of index p^k in Hermite normal form from the last row up, rows n-1..1 depth
first and row 0 as a flat loop, and cuts a branch at the first bracket
outside the span.  It brackets only the pairs in `LieLattice._pairs`, the
ones that can be nonzero on upper-triangular bases, each once, and keeps
their span coefficients: the subring's structure constants.

A count walks one subring per class.  When the last coordinates
e_t..e_{n-1} are central and span every bracket (`LieLattice.t`, the
class-2 decomposition of Grunewald-Segal-Smith), the entries of rows
0..t-1 in columns t..n-1 change neither the closure tests nor the
structure constants.  The walk pins them to 0 and gives the subring it
places the weight prod_{j >= t} pivot_j^t, the number of subrings they
range over.  `enumerate_subrings` pins nothing and lists every basis.

`count_proisomorphic` sets the verdict up once per lattice (`_verdict`) and
adds up weight * verdict(structure constants) over the classes.  A subring
M of finite index spans the same Q-Lie algebra as L and differs from it only
in its Z_p-form, so invariants of that form can decide whether M_p and L_p
are isomorphic.  The first path that applies decides:
- abelian: every subring is pro-isomorphic and every coordinate central, so
  t = 1; the count adds up the weights, with no verdict and no row-0 loop;
- Heisenberg type, exact (elementary divisors): class 2 with [L, L] of rank
  1 in any basis (H_m standard, permuted or scaled, H_m + Z^r), of any
  rank.  The bracket is omega(u, v) z0 for z0 primitive on the derived
  line, and the subring is pro-isomorphic iff its form has the p-adic
  invariant factors of L's (`_elementary_divisor_verdict`);
- n_4 forms derived-saturated at p, exact (derived saturation): rank 4,
  class 3, and L's table vectors of rank 2 mod p; the subring is
  pro-isomorphic iff its table vectors have rank 2 mod p too;
- anything else, level-limited search (non-nilpotent tables, n_4 forms not
  derived-saturated at p, class 2 with [L, L] of rank 2): False without a
  search if the abelianization differs from L's modulo p^(k + C_SAFETY),
  else a bracket-preserving map is searched up to that level
  (`_isomorphism_search`).  A True is heuristic, a False certain, and a
  weighted class shares its one searched verdict: a count that rests on a
  True is level-limited too, never exact.

Refused, never truncated: an enumeration past the guards, before any verdict
refusal, and a search past NODE_BUDGET nodes (ResourceGuardError); on the
searched path only, a lattice of rank above MAX_GENERIC_RANK, or with a
bracket constant divisible by p^(k + C_SAFETY), which the search would read
as zero (InputError).  `is_proisomorphic` is the checked entry for one
basis: it refuses a bad p or basis, then applies the same verdict.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import product

from .laurent import InputError, Record, ResourceGuardError, _divide_geometric

MAX_ENUM_RANK = 6
ENUM_PRIMES = (2, 3, 5)
MAX_ENUM_K = 4
MAX_SUBLATTICES = 2**27
MAX_GENERIC_RANK = 4
NODE_BUDGET = 2**20
# levels past the index p^k to which a searched verdict is checked
C_SAFETY = 2


class LieLattice(Record):
    """Free Z-Lie ring of rank n given by its sparse bracket table.

    `brackets` lists the nonzero [e_a, e_b], a < b, as (a, b, ((l, c), ...))
    with [e_a, e_b] = sum of c e_l (0-indexed): pairs in increasing order,
    each once, and in each entry the coordinates l increasing with every c a
    nonzero int.  [e_b, e_a] is the negative of [e_a, e_b], so antisymmetry
    holds by construction; the Jacobi identity is enforced at construction.
    The `__dict__` slot holds the cached properties.
    """

    _fields = ("rank", "brackets")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, rank, brackets):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "brackets", brackets)
        n = rank
        if type(n) is not int:
            raise InputError(f"rank must be an integer, got {n!r}")
        if n < 1:
            raise InputError(f"rank must be at least 1, got {n}")
        pairs = [(a, b) for a, b, _ in self.brackets]
        if pairs != sorted(set(pairs)) or any(not 0 <= a < b < n for a, b in pairs):
            raise InputError(
                f"bracket pairs must satisfy 0 <= a < b < {n}, each once, in increasing order"
            )
        for _, _, vec in self.brackets:
            ls = [l for l, _ in vec]
            if not vec or ls != sorted(set(ls)) or not 0 <= ls[0] <= ls[-1] < n or not all(
                type(c) is int and c for _, c in vec
            ):
                raise InputError(
                    "bracket terms must be nonzero integers on increasing coordinates < rank"
                )
        failing = _jacobi_failure(self.brackets)
        if failing:
            raise InputError("Jacobi identity fails on ({},{},{})".format(*failing))

    def bracket(self, u, w):
        return _bracket(self.brackets, u, w)

    def is_abelian(self):
        return not self.brackets

    def heisenberg_m(self):
        """m if this is the standard Heisenberg table of rank 2m+1, else None."""
        n = self.rank
        if n % 2 == 0 or n < 3:
            return None
        m = (n - 1) // 2
        return m if self.brackets == _heisenberg_brackets(m) else None

    @cached_property
    def _pairs(self):
        """(i, j, terms) for each i < j with `terms`, the table entries
        (a, b, vec) with a >= i and b >= j, not empty: on an upper-triangular
        basis only these can make [row_i, row_j] nonzero."""
        table = self.brackets
        if not table:
            return ()
        # i <= a and j <= b for some entry: a is largest in the last entry
        top = max(b for _, b, _ in table)
        pairs = (
            (i, j, tuple(t for t in table if t[0] >= i and t[1] >= j))
            for i in range(table[-1][0] + 1) for j in range(i + 1, top + 1)
        )
        return tuple(pair for pair in pairs if pair[2])

    @cached_property
    def _kind(self):
        """Of a nonabelian lattice: "heisenberg-type" for class 2 with [L, L]
        of rank 1, "n4" for rank 4 and class 3, else None: the kinds with an
        exact verdict from invariants (see `_verdict`).  Read off the lower
        central series, whose terms are spanned by the table vectors, then
        by their brackets with each e_i, and so on.  When no table vector
        lands on a coordinate of a table pair (the test of `_jacobi_failure`),
        every bracket is central and the class is 2.  Over Q every nilpotent
        Lie algebra of dimension 4 and class 3 is the filiform n_4, with
        [L, L] of rank 2."""
        table = self.brackets
        touched = {x for a, b, _ in table for x in (a, b)}
        if not touched.isdisjoint(l for _, _, vec in table for l, _ in vec):
            n = self.rank
            units = [[int(i == j) for j in range(n)] for i in range(n)]

            def bracketed(vecs):
                out = [_bracket(table, e, v) for e in units for v in vecs]
                return [w for w in out if any(w)]

            derived = [[dict(vec).get(l, 0) for l in range(n)] for _, _, vec in table]
            third = bracketed(derived)
            if third:
                return "n4" if n == 4 and not bracketed(third) else None
        # class 2: [L, L] has rank 1 iff every vector is a multiple of the first
        ref = table[0][2]
        r0 = ref[0][1]
        rank1 = all(
            [(l, c * r0) for l, c in vec] == [(l, r * vec[0][1]) for l, r in ref]
            for _, _, vec in table[1:]
        )
        return "heisenberg-type" if rank1 else None

    @cached_property
    def t(self):
        """Where the central tail starts: the least coordinate any bracket
        reaches, when every table entry (a, b, vec) has b below it, so that
        e_t..e_{n-1} are central and span every bracket; else the rank (no
        tail).  An abelian lattice has t = 1: e_1..e_{n-1} are central and
        there is no bracket to span."""
        if not self.brackets:
            return 1
        top = max(b for _, b, _ in self.brackets)
        low = min(vec[0][0] for _, _, vec in self.brackets)
        return low if top < low else self.rank


def _bracket(table, u, w):
    """[u, w] through `table`, part of a bracket table (see `LieLattice`)
    holding every entry (a, b, vec) with u[a] w[b] or u[b] w[a] nonzero."""
    out = [0] * len(u)
    for a, b, vec in table:
        c = u[a] * w[b] - u[b] * w[a]
        if c:
            for l, x in vec:
                out[l] += c * x
    return out


def _jacobi_failure(table):
    """The first triple i < j < k, in lexicographic order, whose Jacobiator
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] - [[e_i, e_k], e_j] is nonzero, or
    None, read off the bracket `table` alone.  A coordinate in no pair of
    the table is central, so the Jacobiators of a triple holding it vanish:
    only a pair of the table with a third coordinate from some pair is
    tried.  When no bracket lands on a coordinate of a pair in the table,
    every double bracket is zero and nothing is tried."""
    vecs = {(a, b): vec for a, b, vec in table}
    touched = {x for pair in vecs for x in pair}
    if touched.isdisjoint(l for vec in vecs.values() for l, _ in vec):
        return None
    triples = sorted({
        tuple(sorted((a, b, c))) for a, b in vecs for c in touched if c not in (a, b)
    })
    for i, j, k in triples:
        jac = {}
        for a, b, c, sign in ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1)):
            for l, x in vecs.get((a, b), ()):
                # [e_l, e_c] is the entry (l, c), or minus the entry (c, l)
                s, pair = (sign * x, (l, c)) if l < c else (-sign * x, (c, l))
                for r, y in vecs.get(pair, ()):
                    jac[r] = jac.get(r, 0) + s * y
        if any(jac.values()):
            return i, j, k
    return None


def abelian_lattice(n):
    return LieLattice(n, ())


def _heisenberg_brackets(m):
    n = 2 * m + 1
    return tuple((i, m + i, ((n - 1, 1),)) for i in range(m))


def heisenberg_lattice(m):
    """Rank 2m+1 with [x_i, y_i] = z; basis order x_1..x_m, y_1..y_m, z."""
    if type(m) is not int:
        raise InputError(f"heisenberg index must be an integer, got {m!r}")
    if m < 1:
        raise InputError("heisenberg index must be >= 1")
    return LieLattice(2 * m + 1, _heisenberg_brackets(m))


def _lattice_int(x):
    # JSON integers only: a bool, float or string is refused, never truncated
    if type(x) is not int:
        raise InputError(f"lattice data must be integers, got {x!r}")
    return x


def _lattice_fields(data):
    """(rank, [(i, j, vec), ...]) read from lattice data, 0-indexed, without
    building the lattice.  Data of another shape is refused, and named."""
    seq, shape = (list, tuple), "[i, j, [c_1, ..., c_rank]]"
    if not isinstance(data, dict) or "rank" not in data:
        raise InputError(f'lattice data must be {{"rank": n, "brackets": [...]}}, got {data!r}')
    n = _lattice_int(data["rank"])
    entries = data.get("brackets", [])
    if not isinstance(entries, seq):
        raise InputError(f"lattice brackets must be a list of {shape}, got {entries!r}")
    brackets = []
    for entry in entries:
        if not (isinstance(entry, seq) and len(entry) == 3 and isinstance(entry[2], seq)):
            raise InputError(f"bracket entries must be {shape}, got {entry!r}")
        i, j, vec = entry
        brackets.append((_lattice_int(i) - 1, _lattice_int(j) - 1, [_lattice_int(c) for c in vec]))
    return n, brackets


def lattice_from_dict(data):
    """{"rank": n, "brackets": [[i, j, [c_1..c_n]], ...]} with 1-indexed i<j;
    omitted brackets are zero.  Only the nonzero ones are kept, as the
    lattice's sparse bracket table."""
    n, brackets = _lattice_fields(data)
    entries = {}
    for i, j, vec in brackets:
        if not (0 <= i < j < n):
            raise InputError(f"bracket indices must satisfy 1 <= i < j <= {n}")
        if (i, j) in entries:
            raise InputError(f"duplicate bracket ({i + 1},{j + 1})")
        if len(vec) != n:
            raise InputError("bracket coefficient vectors must have length rank")
        entries[i, j] = tuple((l, c) for l, c in enumerate(vec) if c)
    return LieLattice(n, tuple((a, b, vec) for (a, b), vec in sorted(entries.items()) if vec))


def lattice_from_json(text):
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return lattice_from_dict(data)


def _check_enum_prime(p):
    if type(p) is not int:
        raise InputError(f"p must be an integer, got {p!r}")
    if p not in ENUM_PRIMES:
        raise ResourceGuardError(f"enumeration primes restricted to {ENUM_PRIMES}")


def _check_enum_guards(n, p, k):
    for name, x in (("rank", n), ("index exponent", k)):
        if type(x) is not int:
            raise InputError(f"{name} must be an integer, got {x!r}")
    if n < 1:
        raise InputError(f"rank must be at least 1, got {n}")
    if n > MAX_ENUM_RANK:
        raise ResourceGuardError(f"sublattice enumeration capped at rank {MAX_ENUM_RANK}")
    _check_enum_prime(p)
    if k > MAX_ENUM_K:
        raise ResourceGuardError(f"enumeration index exponent capped at {MAX_ENUM_K}")
    if k < 0:
        raise InputError("index exponent must be nonnegative")
    # Z^n has as many sublattices of index p^k as the t^k coefficient of
    # prod_{i < n} 1/(1 - p^i t)
    count = [1] + [0] * k
    _divide_geometric(count, [(p**i, 1) for i in range(n)])
    if count[k] > MAX_SUBLATTICES:
        raise ResourceGuardError(
            f"Z^{n} has {count[k]} sublattices of index {p}^{k}; "
            f"enumeration capped at {MAX_SUBLATTICES}"
        )


def enumerate_sublattices(n, p, k):
    """All row-HNF bases of sublattices of Z^n of index p^k, each once.

    Diagonals run through the exponent compositions of k in colexicographic
    order; for each diagonal the above-pivot entries run through
    `itertools.product` (last position fastest), every entry reduced modulo
    the pivot below it.  The guards are checked at the call, before the
    first basis.
    """
    _check_enum_guards(n, p, k)
    return _sublattices(n, p, k)


def _sublattices(n, p, k):
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    compositions = (c for c in product(range(k + 1), repeat=n) if sum(c) == k)
    for comp in sorted(compositions, key=lambda c: c[::-1]):
        diag = [p**e for e in comp]
        for entries in product(*(range(diag[j]) for _, j in positions)):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = diag[i]
            for (i, j), v in zip(positions, entries):
                m[i][j] = v
            yield tuple(tuple(row) for row in m)


def _span_coefficients(basis, vec):
    """The integer coordinates of vec in the row span of an upper-triangular
    basis as its nonzero terms ((l, c), ...), l increasing, the form of a
    bracket table entry (see `LieLattice`); None if vec is not in the span.
    A row is read only where vec has a nonzero coordinate on its pivot, so
    rows of a partial basis that vec cannot involve may be None."""
    n = len(basis)
    v = list(vec)
    terms = []
    for j in range(n):
        if v[j]:
            row = basis[j]
            q, r = divmod(v[j], row[j])
            if r:
                return None
            terms.append((j, q))
            for col in range(j, n):
                v[col] -= q * row[col]
    return tuple(terms)


def _checked_basis(lattice, basis):
    """`basis` as a tuple of rows, refused with InputError unless it is n
    rows of n ints (n the rank), upper triangular with nonzero pivots: the
    shape the span and bracket routines assume."""
    n = lattice.rank
    shape = f"basis must be {n} rows of {n} integers"
    try:
        rows = tuple(tuple(row) for row in basis)
    except TypeError as exc:
        raise InputError(shape) from exc
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InputError(shape)
    for i, row in enumerate(rows):
        if any(type(x) is not int for x in row):
            raise InputError(shape)
        if any(row[:i]) or not row[i]:
            raise InputError(
                f"basis must be upper triangular with nonzero pivots: row {i + 1}"
            )
    return rows


def is_subring(lattice, basis):
    """True iff the row span of `basis` is closed under the lattice bracket;
    a basis of another shape (see `_checked_basis`) is refused."""
    return _structure_constants(lattice, _checked_basis(lattice, basis)) is not None


def _walk(lattice, p, k, t):
    """The subring walk, unguarded, as (prefixes, subrings), with the
    entries of rows 0..t-1 in columns t..n-1 pinned to 0: e_t..e_{n-1} are a
    central tail that spans every bracket (`LieLattice.t`), or t = n and
    nothing is pinned.  A bracket of rows then reads only columns < t and
    lands on columns >= t, where only rows t..n-1 have pivots, so the
    pinned entries change no closure test and no table.  The subring placed
    stands for the `weight` = prod_{j >= t} pivot_j^t subrings its pinned
    entries range over, all with its table.

    `prefixes` places rows n-1..1 depth first and yields (left, weight) per
    prefix that passes: row 0 has pivot p^left.  `subrings(left)` loops over
    row 0's unpinned entries and yields (rows, table) per subring, `table`
    as `_structure_constants` gives it; read the shared `rows` at once.
    [row_i, row_j] lives on the columns >= l, the least its terms reach,
    where the subring is the span of rows s..n-1, s = min(i, l): it is
    tested, and its span coefficients kept, once row s is placed.
    """
    n = lattice.rank
    checks = [[] for _ in range(n)]
    for x, (i, j, terms) in enumerate(lattice._pairs):
        checks[min([i] + [l for _, _, vec in terms for l, _ in vec])].append((x, i, j, terms))
    rows = [None] * n
    entries = [None] * len(lattice._pairs)

    def closed(s):
        for x, i, j, terms in checks[s]:
            vec = _span_coefficients(rows, _bracket(terms, rows[i], rows[j]))
            if vec is None:
                return False
            entries[x] = (i, j, vec) if vec else None
        return True

    pins = [(0,)] * (n - t)

    def place(i, left, weight):
        if i == 0:
            yield left, weight
            return
        # row i's entries, each reduced modulo the pivot below it; in a row
        # above t, those in the tail columns are pinned
        stop = t if i < t else n
        ranges = [range(rows[j][j]) for j in range(i + 1, stop)] + pins[: n - stop]
        for e in range(left + 1):
            q = p**e
            head = (0,) * i + (q,)
            below = weight if i < t else weight * q**t
            for tail in product(*ranges):
                rows[i] = head + tail
                if not checks[i] or closed(i):
                    yield from place(i - 1, left - e, below)

    def subrings(left):
        head = (p**left,)
        for tail in product(*(range(rows[j][j]) for j in range(1, t)), *pins):
            rows[0] = head + tail
            if closed(0):
                yield rows, tuple(filter(None, entries))

    return place(n - 1, k, 1), subrings


def enumerate_subrings(lattice, p, k):
    """All row-HNF bases of subrings of index p^k, each once, in `_walk`'s
    order; `enumerate_sublattices` filtered by `is_subring` is the reference.
    The guards are checked at the call, before the first basis."""
    _check_enum_guards(lattice.rank, p, k)
    prefixes, subrings = _walk(lattice, p, k, lattice.rank)
    return (tuple(rows) for left, _ in prefixes for rows, _ in subrings(left))


def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _structure_constants(lattice, basis):
    """The bracket table (see `LieLattice`) of the subring spanned by the
    upper-triangular `basis`, in that basis: the nonzero coordinates of
    [basis[a], basis[b]], a < b.  None if the basis does not span a
    subring."""
    table = []
    for a, b, terms in lattice._pairs:
        vec = _span_coefficients(basis, _bracket(terms, basis[a], basis[b]))
        if vec is None:
            return None
        if vec:
            table.append((a, b, vec))
    return tuple(table)


def _bracket_residual(cl, t, i, j, mij, modulus):
    """Coordinates of [T e_i, T e_j] - T [e_i, e_j]_M mod modulus, where the
    bracket is L's table `cl`, t[c] is the column T e_c and mij, the terms
    ((l, c), ...) of [e_i, e_j]_M, is an entry of M's table or empty."""
    out = _bracket(cl, t[i], t[j])
    for l, c in mij:
        for r, x in enumerate(t[l]):
            out[r] -= c * x
    return [x % modulus for x in out]


def _abelianization_type(table, n, p, cap):
    """The abelianization modulo p^cap, (Z/p^cap)^n over the span of the
    brackets in the rank-n bracket `table`, as the sorted exponents e_i of
    its cyclic factors Z/p^e_i.  Lie rings isomorphic modulo p^cap have
    equal types.  Smith normal form over Z_p, least valuation first."""
    q = p**cap
    rows = [[dict(vec).get(l, 0) % q for l in range(n)] for _, _, vec in table]
    exps = []
    while rows := [row for row in rows if any(row)]:
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


def _isomorphism_search(lattice, cm, p, target):
    """Is there a map T from the subring with bracket table `cm` to
    `lattice`, invertible mod p, with [T e_i, T e_j] = T [e_i, e_j]_M modulo
    p^target for every i < j?

    T is built depth first as its columns T e_c, one level at a time.  At
    level 1 column c runs over F_p^n outside the span of the columns before
    it; at level L + 1 over T_L e_c + p^L s for s in F_p^n, where T_L is the
    map placed at level L.  Each pair is checked modulo p^level as soon as
    the columns it reads are placed.  True once all n columns are placed at
    level `target`; False only after the whole search has failed.  A search
    past NODE_BUDGET nodes is refused, never truncated.
    """
    n = lattice.rank
    cl = lattice.brackets
    entries = {(a, b): vec for a, b, vec in cm}
    # needed[c]: the pairs whose check reads no column after c
    needed = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mij = entries.get((i, j), ())
            needed[max([j] + [l for l, _ in mij])].append((i, j, mij))
    vectors = [tuple((v // p**r) % p for r in range(n)) for v in range(p**n)]
    nodes = 0

    def place(level, below, cols):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise ResourceGuardError(
                f"level-limited isomorphism search exceeded {NODE_BUDGET} nodes"
            )
        col = len(cols)
        if col == n:
            return level == target or place(level + 1, cols, [])
        step = p ** (level - 1)
        span = () if level > 1 else {
            tuple(sum(c * v[r] for c, v in zip(coeffs, cols)) % p for r in range(n))
            for coeffs in product(range(p), repeat=col)
        }
        for s in vectors:
            if s in span:
                continue
            trial = cols + [tuple(x + step * y for x, y in zip(below[col], s))]
            if not any(
                any(_bracket_residual(cl, trial, i, j, mij, step * p))
                for i, j, mij in needed[col]
            ) and place(level, below, trial):
                return True
        return False

    return place(1, [(0,) * n] * n, [])


def _pair_valuations(omega, p, q=None):
    """The p-adic valuations of the invariant factors of the alternating
    form omega, {(a, b): c} for a < b with every c nonzero, one per
    hyperbolic pair of its symplectic normal form over Z_p (the factors come
    in equal pairs; Newman, Integral Matrices, ch. IV), ascending.

    Each step takes an entry (a, b) of least valuation v, c = u p^v, the
    first unit if there is one, splits off its plane and leaves on the other
    coordinates the form
    u (omega(c, d) + (omega(c, a) omega(b, d) - omega(c, b) omega(a, d)) / (u p^v)),
    scaled by the unit u so that it stays integral.  The quotient vanishes
    unless both c and d meet the plane (omega(c, a) or omega(c, b) nonzero),
    so only their pairs get one; a last entry leaves nothing.  With
    q = p^cap the entries are read modulo q and only the pairs of valuation
    below cap are found: the residues carry the form to that precision."""
    out = []
    while omega := {pair: r for pair, c in omega.items() if (r := c % q if q else c)}:
        for (a, b), x in omega.items():
            if x % p:
                v = 0
                break
        else:
            (a, b), x = min(omega.items(), key=lambda item: _vp(item[1], p))
            v = _vp(x, p)
        out.append(v)
        if len(omega) == 1:
            break
        pv = p**v
        u = x // pv
        # cols[c] = [omega(c, a), omega(c, b)] for each c that meets the plane
        left, cols = {}, {}
        for (c, d), y in omega.items():
            if c == a or c == b:
                if d != b:
                    cols.setdefault(d, [0, 0])[c == b] = -y
            elif d == a or d == b:
                cols.setdefault(c, [0, 0])[d == b] = y
            else:
                left[c, d] = u * y
        rest = sorted(cols)
        for i, c in enumerate(rest):
            ca, cb = cols[c]
            for d in rest[i + 1:]:
                da, db = cols[d]
                left[c, d] = left.get((c, d), 0) + (cb * da - ca * db) // pv
        omega = left
    return out


def _line_form(table, p):
    """The alternating form of a bracket `table` whose vectors all lie on
    one line, up to a p-adic unit: [e_a, e_b] = omega(a, b) z0 for z0
    primitive on the line, and on a coordinate l where z0 is a unit at p,
    the entry's term at l is omega(a, b) z0[l].  Such an l is where the
    first vector, a multiple of z0, has its least valuation, and every
    vector, a nonzero multiple of z0 too, has z0's support: its term at l
    is at the same place i as the first one's."""
    first = table[0][2]
    i = 0 if len(first) == 1 else first.index(min(first, key=lambda term: _vp(term[1], p)))
    return {(a, b): vec[i][1] for a, b, vec in table}


def _elementary_divisor_verdict(lattice, p):
    """The exact verdict for a lattice of Heisenberg type: its bracket is
    omega(u, v) z0 with z0 primitive on the derived line and central, and a
    subring M has the same shape over its own primitive vector.  Two such
    Z_p-forms are isomorphic iff their forms have the same p-adic invariant
    factors: a map carries z0 to a unit multiple of z0 and so one form to a
    unit multiple of the other, and the symplectic normal form, with z0 in
    a basis of the radical, builds a map from equal factors.  L's factors
    are found exactly; M's modulo p^(e + 1), e the largest of them, which
    tells them apart since M's form has L's rank over Q."""
    ambient = _pair_valuations(_line_form(lattice.brackets, p), p)
    q = p ** (ambient[-1] + 1)
    return lambda table: _pair_valuations(_line_form(table, p), p, q) == ambient


def _verdict(lattice, p, k):
    """The verdict on the subrings of `lattice` of index p^k, its lattice
    work done once: None for an abelian lattice, else a function of a
    subring's bracket table as `_structure_constants` gives it, from the
    first path of the module docstring that applies.  A lattice left to the
    search may be refused here (`_searched_verdict`)."""
    if lattice.is_abelian():
        return None
    if lattice._kind == "heisenberg-type":
        return _elementary_divisor_verdict(lattice, p)
    # an n_4 form whose table vectors span a rank-2 space mod p is generated
    # by two elements (the Burnside basis theorem), so it is F_{3,2}(Z_p)
    # over a primitive line in the third term, and GL_2(Z_p) is transitive
    # on those lines: a subring is isomorphic to it iff it is saturated too
    saturated = [0, 0, 1, 1]
    if lattice._kind == "n4" and _abelianization_type(lattice.brackets, 4, p, 1) == saturated:
        return lambda table: _abelianization_type(table, 4, p, 1) == saturated
    return _searched_verdict(lattice, p, k)


def _searched_verdict(lattice, p, k):
    """The level-limited verdict, a function of a subring's bracket table:
    False without a search if the abelianizations differ modulo
    p^(k + C_SAFETY), else the answer of `_isomorphism_search` to that
    level.  A lattice of rank above MAX_GENERIC_RANK, or with a bracket
    constant that vanishes at that level, is refused here."""
    n = lattice.rank
    if n > MAX_GENERIC_RANK:
        raise InputError(
            f"no exact criterion for this lattice and rank > {MAX_GENERIC_RANK}"
        )
    target = k + C_SAFETY
    # such a bracket is zero at the search level, where L would look abelian
    deep = [c for _, _, vec in lattice.brackets for _, c in vec if c % p**target == 0]
    if deep:
        raise InputError(
            f"bracket constant {deep[0]} vanishes modulo {p}^{target}, the level "
            "of the search (k + C_SAFETY)"
        )
    ambient = _abelianization_type(lattice.brackets, n, p, target)

    def searched(cm):
        # an isomorphism modulo p^target carries one abelianization onto the
        # other, so unequal types answer False without a search
        same = _abelianization_type(cm, n, p, target) == ambient
        return same and _isomorphism_search(lattice, cm, p, target)

    return searched


def is_proisomorphic(lattice, basis, p):
    """Is the subring spanned by `basis`, p-adically completed, isomorphic to
    the completed ambient lattice?

    The checked entry for one basis.  It refuses a p outside ENUM_PRIMES
    (ResourceGuardError), then a basis of the wrong shape (see
    `_checked_basis`) or one that spans no subring (InputError).  The
    structure constants of that subring check go to the verdict of
    `count_proisomorphic`, set up with k read off the pivots.
    """
    _check_enum_prime(p)
    rows = _checked_basis(lattice, basis)
    table = _structure_constants(lattice, rows)
    if table is None:
        raise InputError("basis does not span a subring")
    verdict = _verdict(lattice, p, sum(_vp(row[i], p) for i, row in enumerate(rows)))
    return verdict is None or verdict(table)


def count_proisomorphic(lattice, p, k):
    """Number of index-p^k subrings whose completion at p is isomorphic to
    the ambient lattice's.

    The guards refuse before the verdict is set up, once, and applied to
    the bracket table of each class of subrings from `_walk`, weighted by
    the size of the class (see `LieLattice.t`).  An abelian count makes no
    call and skips row 0's loop: with t = 1, each prefix stands for one
    class and adds its weight.
    """
    _check_enum_guards(lattice.rank, p, k)
    verdict = _verdict(lattice, p, k)
    prefixes, subrings = _walk(lattice, p, k, lattice.t)
    if verdict is None:
        return sum(weight for _, weight in prefixes)
    return sum(
        weight * sum(verdict(table) for _, table in subrings(left))
        for left, weight in prefixes
    )
