"""The four benchmark workloads: seeded request lists, request execution,
and the per-request correctness checks.

A request is a small JSON-able list, for example ``["closed", "lmn:2:6", 3]``.
Its canonical JSON text is the key under which ``reference.json`` stores the
sha256 of the request's output, so every request a generator can draw must
come from the finite pools defined here.

Each workload is a list of strata.  A stratum draws a fixed number of
requests from its own pool, and pools are kept narrow enough that their
members cost about the same.  Different seeds therefore carry comparable
mixes, while the same seed always yields the same list.  See NOTES.md for
why each workload exists and which sizes are left out.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from math import gcd

SCHEMA = "zetaforge/1"

FIELDS = {  # one field per degree; every equation order is maximal
    1: "0,1",  # Q
    2: "1,0,1",  # Q(i)
    3: "-2,0,0,1",  # Q(cbrt 2)
    4: "1,1,1,1,1",  # Q(zeta_5)
}
# The series is expanded at X = 2: at larger p the exact rationals of the big
# descent sums cost several times more, which would make the cost of a
# request depend on the draw far more than on the family.
SERIES_PRIME = 2
SERIES_ORDER = 8


def canonical(obj):
    """Sorted keys, compact separators: the CLI's byte format."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def list_hash(specs):
    return digest(canonical(specs))[:16]


# ---------------------------------------------------------------------------
# Pools


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


def prime_bands():
    """Three fixed prime pools up to MAX_PRIME = 10**6: all primes below 100,
    then 16 primes spread over [100, 10**4) and 16 over [10**4, 10**6)."""
    small = [p for p in range(2, 100) if _is_prime(p)]
    mid = [_next_prime(100 + (10**4 - 100) * i // 16) for i in range(16)]
    large = [_next_prime(10**4 + (10**6 - 10**4) * i // 16) for i in range(16)]
    return small, mid, large


def _closed_pool(families):
    return [["closed", f, d] for f in families for d in (1, 2, 3, 4)]


def _descent_families(n):
    """heisenberg:n and lmn:m:n share the symmetric-group sum over S_n."""
    return [f"heisenberg:{n}"] + [f"lmn:{m}:{n}" for m in range(1, 11 - n) if n >= 2]


def closed_forms_strata():
    denominator_only = (
        [f"free:{c}:{g}" for c in range(2, 7) for g in range(1, 7)]
        + [f"maxclass:{c}" for c in range(2, 7)]
        + ["f4", "q5", "bk"]
        + [f"abelian:{n}" for n in range(1, 7)]
    )
    # The families with n <= 4 are the cheap requests that set the p50.  A
    # draw of them moved the p50 by 10-16% from seed to seed, so every one of
    # them is requested at every d.
    cheap = _closed_pool(denominator_only + [f for n in (1, 2, 3, 4) for f in _descent_families(n)])
    strata = [("n<=4", cheap, len(cheap)), ("n5", _closed_pool(_descent_families(5)), 4)]
    # S_6 and S_7 sums set the tail; their cost depends on the family far
    # more than on d, so each family is its own stratum.
    strata += [(f"n6/{f}", _closed_pool([f]), 2) for f in ["heisenberg:6", "lmn:1:6", "lmn:2:6", "lmn:3:6", "lmn:4:6"]]
    strata += [(f"n7/{f}", _closed_pool([f]), 1) for f in ["heisenberg:7", "lmn:1:7", "lmn:2:7", "lmn:3:7"]]
    identities = (
        [["bm_identity", m] for m in range(1, 7)]
        + [["sublemma", m] for m in range(1, 6)]
        + [["bruhat", m, d] for m in range(1, 5) for d in range(1, 4)]
    )
    strata.append(("identities", identities, len(identities)))
    return strata


# b_1..b_N: N shrinks as the degree grows, so that each field costs about the
# same; the descent families get smaller N because their W is larger.
GLOBAL_LIMITS = {1: 3000, 2: 2000, 3: 1500, 4: 1000}


def dirichlet_strata():
    small, mid, large = prime_bands()
    strata = []
    for d, field in FIELDS.items():
        n = GLOBAL_LIMITS[d]

        def glob(families, limit):
            return [["global", f, field, limit] for f in families]

        strata += [
            (f"d{d}/denominator", glob(["free:2:3", "free:3:2", "maxclass:3", "maxclass:4", "f4", "q5"], n), 2),
            (f"d{d}/bk", glob(["bk"], n // 3), 1),
            (f"d{d}/heisenberg", glob(["heisenberg:1", "heisenberg:2", "heisenberg:3"], n), 1),
            (f"d{d}/heisenberg-large", glob(["heisenberg:4"], n) + glob(["heisenberg:5"], n // 4), 1),
            (f"d{d}/lmn", glob(["lmn:1:2", "lmn:2:2", "lmn:1:3", "lmn:2:3"], n // 2), 1),
        ]
        # Every prime of every band, once decomposed and once with a local
        # factor: the cost of a single-prime request depends on how the
        # polynomial splits mod p far more than on the family, and these
        # cheap requests set the p50, so only the family is drawn.
        for p in small + mid + large:
            strata.append((f"d{d}/decompose/{p}", [["decompose", field, p]], 1))
            # bk is left out: above p ~ 700 its local factor has integers
            # longer than Python's 4300-digit str() limit (see NOTES.md).
            euler = [["euler", f, field, p] for f in ("heisenberg:1", "heisenberg:2", "free:3:2", "maxclass:3", "q5", "f4")]
            strata.append((f"d{d}/euler/{p}", euler, 1))
    return strata


# -- lattices ----------------------------------------------------------------


def _tensor(rank, brackets):
    t = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, j, vec in brackets:
        t[i - 1][j - 1] = list(vec)
        t[j - 1][i - 1] = [-c for c in vec]
    return t


def _brackets(t):
    n = len(t)
    return [[i + 1, j + 1, t[i][j]] for i in range(n) for j in range(i + 1, n) if any(t[i][j])]


def lattice(rank, brackets):
    return {"rank": rank, "brackets": [list(b) for b in brackets]}


def permuted(lat, perm):
    """The same Lie ring in the reordered basis e'_a = e_perm[a]."""
    t = _tensor(lat["rank"], lat["brackets"])
    n = lat["rank"]
    new = [[[t[perm[a]][perm[b]][perm[c]] for c in range(n)] for b in range(n)] for a in range(n)]
    return lattice(n, _brackets(new))


def scaled(lat, s):
    return lattice(lat["rank"], [[i, j, [s * c for c in vec]] for i, j, vec in lat["brackets"]])


def abelian_dict(n):
    return lattice(n, [])


def heisenberg_dict(m):
    n = 2 * m + 1
    return lattice(n, [[i, m + i, [int(r == n - 1) for r in range(n)]] for i in range(1, m + 1)])


H1 = heisenberg_dict(1)
M3 = lattice(4, [[1, 2, [0, 0, 1, 0]], [1, 3, [0, 0, 0, 1]]])
H1_PLUS_Z = lattice(4, [[1, 2, [0, 0, 1, 0]]])
ENUM_CAP = 50_000


def sublattice_count(n, p, k):
    """Row-HNF bases of index p^k in Z^n: a diagonal p^e_0..p^e_{n-1} admits
    prod_j p^(j * e_j) choices above it."""
    def rec(j, left):
        if j == n - 1:
            return p ** (j * left)
        return sum(p ** (j * e) * rec(j + 1, left - e) for e in range(left + 1))

    return rec(0, k)


def oracle_exact_strata():
    strata = []
    named = [(f"Z^{n}", abelian_dict(n)) for n in range(2, 6)]
    named += [("H1", H1), ("H2", heisenberg_dict(2))]
    for label, lat in named:
        cases = [
            ["oracle", label, lat, p, k]
            for p in (2, 3, 5)
            for k in range(0, 5)
            if sublattice_count(lat["rank"], p, k) <= ENUM_CAP
        ]
        strata.append((label, cases, len(cases)))
    return strata


# Basis orders of H1 that leave the standard tensor, so the verdict is
# searched.  (1, 0, 2), which only flips the bracket's sign, is left out: at
# p = 3 its search costs three times that of the others.
H1_PERMS = [(0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def oracle_generic_strata():
    def cases(label, lat, sizes):
        return [["oracle", label, lat, p, k] for p, kmax in sizes for k in range(kmax + 1)]

    h1_sizes = ((2, 3), (3, 1))
    perm_pool = [cases(f"H1-perm:{''.join(map(str, q))}", permuted(H1, q), h1_sizes) for q in H1_PERMS]
    scale2 = [cases(f"H1-scale:{s}", scaled(H1, s), h1_sizes) for s in (2, -2)]
    scale3 = [cases(f"H1-scale:{s}", scaled(H1, s), ((2, 3), (3, 0))) for s in (3, -3)]
    # A stratum here is a whole presentation: the seed picks which sign is
    # used, and every (p, k) of it is requested.  All four basis orders are
    # requested: a draw of two of them moved the p50 by 12% between seeds.
    return [
        ("M3", [cases("M3", M3, ((2, 1),))], 1),
        ("H1+Z", [cases("H1+Z", H1_PLUS_Z, ((2, 1),))], 1),
        ("H1-perm", perm_pool, len(perm_pool)),
        ("H1-scale:2", scale2, 1),
        ("H1-scale:3", scale3, 1),
    ]


STRATA = {
    "closed-forms": closed_forms_strata,
    "dirichlet": dirichlet_strata,
    "oracle-exact": oracle_exact_strata,
    "oracle-generic": oracle_generic_strata,
}
WORKLOADS = tuple(STRATA)


def _flatten(item):
    """Pool members are requests, or (oracle-generic) groups of requests."""
    return item if isinstance(item[0], list) else [item]


# One small request per traced layer.  A traced pass runs these after its
# request list, so that every per-layer metric is measured on every workload,
# including the layers that the workload itself bypasses.
PROBE = [
    ["closed", "heisenberg:2", 1],
    ["bm_identity", 2],
    ["sublemma", 2],
    ["bruhat", 1, 1],
    ["global", "heisenberg:1", FIELDS[2], 30],
    ["oracle", "H1", H1, 2, 2],
    ["oracle", "H1-perm:021", permuted(H1, (0, 2, 1)), 2, 2],
]


def generate(workload, seed):
    """The request list for one workload and seed: a fixed draw per stratum,
    then one seeded shuffle of the whole list."""
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for _, pool, count in STRATA[workload]():
        for item in rng.sample(pool, count):
            specs += _flatten(item)
    rng.shuffle(specs)
    return specs


def universe(workload):
    """Every request any seed can draw; reference.json covers all of them."""
    out = []
    for _, pool, _ in STRATA[workload]():
        for item in pool:
            out += _flatten(item)
    return out


# ---------------------------------------------------------------------------
# Execution: each request returns the canonical JSON the CLI would print.


def _frac(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


class RequestFailed(Exception):
    """The program returned something its own contract forbids."""


def _closed(zf, family_id, d):
    fam = zf.families
    family = fam.parse_family(family_id)
    w = fam.make_W(family, d)
    out = {"families": {"schema": SCHEMA, "family": str(family), "d": d, **w.to_json_dict()}}
    if family.kind != "abelian":
        factor = zf.symmetry.extract_functional_equation(w)
        if factor is None:
            out["funceq"] = {
                "schema": SCHEMA, "exists": False, "sign": None, "a": None,
                "b": None, "weight": None, "conjecture_holds": None,
            }
        else:
            if not zf.symmetry.verify_functional_equation(w, factor):
                raise RequestFailed("extracted functional equation does not verify")
            wt = fam.weight(family)
            out["funceq"] = {
                "schema": SCHEMA, "exists": True, "sign": factor.sign, "a": factor.a,
                "b": factor.b, "weight": wt, "conjecture_holds": factor.b == wt,
            }
    if not w.is_formal:  # formal forms have no series, hence no abscissa
        value = fam.abscissa(family, d)
        shape = zf.dirichlet.abscissa_from_shape(w)
        out["abscissa"] = {
            "schema": SCHEMA, "abscissa": _frac(value), "shape_abscissa": _frac(shape.value),
            "shape_verified": shape.shape_verified,
        }
        out["series"] = [_frac(c) for c in w.expand_series(SERIES_PRIME, SERIES_ORDER).coefficients]
    return out


def _bruhat(zf, m, d):
    fam = zf.families
    return fam.heisenberg_from_bruhat(m, d).ratfunc_equal(fam.make_W(fam.heisenberg(m), d))


def _field(zf, minpoly):
    return zf.numberfield.NumberField(tuple(int(c) for c in minpoly.split(",")))


def _global(zf, family_id, minpoly, limit):
    field = _field(zf, minpoly)
    family = zf.families.parse_family(family_id)
    coeffs = zf.dirichlet.global_coefficients(family, field.degree, field, limit)
    return {"schema": SCHEMA, "coefficients": [str(c) for c in coeffs]}


def _decompose(zf, minpoly, p):
    pairs = zf.numberfield.decomposition_type(_field(zf, minpoly), p)
    return {"schema": SCHEMA, "pairs": [[e, f] for e, f in pairs], "qp": [str(p**f) for _, f in pairs]}


def _euler(zf, family_id, minpoly, p):
    field = _field(zf, minpoly)
    lf = zf.dirichlet.local_factor(zf.families.parse_family(family_id), field.degree, field, p)
    return {
        "schema": SCHEMA,
        "p": str(lf.p),
        "numerator": [[str(c), j] for j, c in lf.numerator],
        "denominator": [[str(c), b] for c, b in lf.denominator],
    }


def _oracle(zf, label, lat, p, k):
    lattice_ = zf.oracle.lattice_from_dict(lat)
    return {"schema": SCHEMA, "count": zf.oracle.count_proisomorphic(lattice_, p, k)}


_EXECUTORS = {
    "closed": _closed,
    "bm_identity": lambda zf, m: {"ok": zf.signed_perms.verify_bm_identity(m)},
    "sublemma": lambda zf, m: {"ok": zf.signed_perms.verify_sublemma(m)},
    "bruhat": lambda zf, m, d: {"ok": _bruhat(zf, m, d)},
    "global": _global,
    "decompose": _decompose,
    "euler": _euler,
    "oracle": _oracle,
}


def execute(zf, spec):
    """Run one request against the imported package ``zf``; returns the
    canonical JSON text of its result."""
    return canonical(_EXECUTORS[spec[0]](zf, *spec[1:]))


# ---------------------------------------------------------------------------
# Checks, run after the timed loop.  Each returns a reason string or None.


def _check_closed(zf, spec, out):
    _, family_id, d = spec
    family = zf.families.parse_family(family_id)
    funceq = out.get("funceq")
    if funceq is not None:
        want = zf.symmetry.predicted_symmetry(family, d)
        got = (funceq["sign"], funceq["a"], funceq["b"]) if funceq["exists"] else None
        if got != (None if want is None else (want.sign, want.a, want.b)):
            return f"symmetry {got} != predicted {want}"
        if funceq["exists"] and not funceq["conjecture_holds"]:
            return "weight conjecture fails"
    absc = out.get("abscissa")
    if absc is not None and absc["abscissa"] != absc["shape_abscissa"]:
        return "closed-form abscissa differs from shape abscissa"
    return None


def _check_global(zf, spec, out):
    b = [int(c) for c in out["coefficients"]]
    if len(b) != spec[3] or b[0] != 1:
        return "b_1 != 1 or wrong length"
    n = len(b)
    for x in range(2, n + 1):
        for y in range(x + 1, n // x + 1):
            if gcd(x, y) == 1 and b[x * y - 1] != b[x - 1] * b[y - 1]:
                return f"not multiplicative at {x}*{y}"
    return None


def _check_decompose(zf, spec, out):
    degree = len(spec[1].split(",")) - 1
    if sum(e * f for e, f in out["pairs"]) != degree:
        return "sum of e*f differs from the field degree"
    return None


def _matching_family(label, p):
    """The closed-form family whose series counts this lattice's subrings,
    or None when no independent cross-check exists."""
    if label.startswith("Z^"):
        return "abelian:" + label[2:]
    if label in ("H1", "H2"):
        return "heisenberg:" + label[1:]
    if label == "M3":
        return "maxclass:3"
    if label.startswith("H1-perm:"):
        return "heisenberg:1"
    if label.startswith("H1-scale:") and int(label.split(":")[1]) % p:
        return "heisenberg:1"  # scaling by a p-adic unit is an isomorphism
    return None


def _check_oracle(zf, spec, out):
    _, label, _, p, k = spec
    family_id = _matching_family(label, p)
    if family_id is None:
        return None
    w = zf.families.make_W(zf.families.parse_family(family_id), 1)
    want = w.expand_series(p, k)[k]
    if out["count"] != want:
        return f"count {out['count']} != series coefficient {want} of {family_id}"
    return None


def _check_identity(zf, spec, out):
    return None if out["ok"] is True else "identity returned False"


_CHECKS = {
    "closed": _check_closed,
    "bm_identity": _check_identity,
    "sublemma": _check_identity,
    "bruhat": _check_identity,
    "global": _check_global,
    "decompose": _check_decompose,
    "euler": lambda zf, spec, out: None,
    "oracle": _check_oracle,
}


def check(zf, spec, text, reference):
    """Why the output ``text`` of ``spec`` is wrong, or None when it is right:
    its digest must equal the recorded one and the cross-check must hold."""
    want = reference.get(canonical(spec))
    if want is None:
        return "no reference digest recorded"
    if digest(text) != want:
        return "digest differs from reference"
    return _CHECKS[spec[0]](zf, spec, json.loads(text))


# ---------------------------------------------------------------------------
# One pass


def run_pass(zf, specs, tracer=None, first=0, between=None):
    """Closed loop, one client: each request is issued after the previous one
    returns.  Returns ([(text, error), ...], latencies in seconds, wall seconds).
    Spans of request i carry the request id ``first + i``.  ``between()``, if
    given, runs before each request, and its time is left out of the wall."""
    outputs, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.request = first + i
        if between is not None:
            t0 = clock()
            between()
            start += clock() - t0
        t0 = clock()
        try:
            outputs.append((execute(zf, spec), None))
        except Exception as exc:  # a raising request is a failed request
            outputs.append((None, f"raised {type(exc).__name__}: {exc}"))
        latencies.append(clock() - t0)
    return outputs, latencies, clock() - start


def check_outputs(zf, specs, outputs, reference, first=0):
    """Digests, and [request id, key, reason] for each failed request."""
    digests, failures = [], []
    for i, (spec, (text, error)) in enumerate(zip(specs, outputs), first):
        digests.append(None if text is None else digest(text))
        reason = error or check(zf, spec, text, reference)
        if reason is not None:
            failures.append([i, canonical(spec), reason])
    return digests, failures
