"""Command-line surface: JSON payloads over the library plus a verify command.

Every command is pure input -> output and returns its payload; `main` alone
parses the arguments, prints the payload and maps errors to exit codes.  A dict
prints as one byte-deterministic JSON line with the schema added (sorted keys,
compact separators, canonical term order, big integers as decimal strings), a
string as is.  Exit codes: 0 success, 1 refused input (an `InputError`, which
every domain error derives from, a resource guard, or a usage error such as a
missing option), 2 any other exception, which is a fault of the program, 141
(128 + SIGPIPE, with nothing on stderr) when stdout is closed before the
output is written, as `zetaforge verify | head -1` closes it.

`verify` is the acceptance gate: `SUITES` holds one suite per acceptance
criterion, each over the criterion's full range, and tests/test_acceptance.py
calls those same suites.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import gcd

from . import families as fam
from .dirichlet import abscissa_from_shape, global_coefficients, local_factor
from .families import UnsupportedFamilyError, make_W, parse_family, weight
from .laurent import InputError, ResourceGuardError
from .numberfield import NumberField, decomposition_type
from .oracle import (
    _check_enum_guards,
    _lattice_fields,
    abelian_lattice,
    count_proisomorphic,
    heisenberg_lattice,
    lattice_from_dict,
)
from .primes import primes_upto
from .signed_perms import verify_bm_identity, verify_sublemma
from .symmetry import (
    check_weight_conjecture,
    extract_functional_equation,
    predicted_symmetry,
    reduced_leading_ratio,
    verify_functional_equation,
)

SCHEMA = "zetaforge/1"


class _Parser(argparse.ArgumentParser):
    """A usage error is a refusal, only `--help` asks for help, and option
    names are never abbreviated."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        # a token such as -2,0,0,1 is the value of --minpoly, not an option
        self._negative_number_matcher = re.compile(r"-\d")
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise InputError(message)

    def format_help(self):
        return super().format_help().replace("usage:", "Usage:", 1)


_COMMANDS = {}


def _command(name, *options):
    """Register a command; each option is the (flags, settings) of an `add_argument`."""

    def register(func):
        _COMMANDS[name] = func, options
        return func

    return register


def _option(*flags, **settings):
    return flags, settings


_FAMILY = _option("--family", dest="family_id", required=True,
                  help="e.g. heisenberg:2, free:3:2, q5")
_D = _option("--d", type=int, default=1, help="base-extension degree (default: 1)")
_MINPOLY = _option("--minpoly", required=True, help="integer coefficients, constant term first")
_P = _option("--p", type=int, required=True)


def _parser():
    parser = _Parser(prog="zetaforge", description=main.__doc__)
    commands = parser.add_subparsers(required=True, metavar="COMMAND")
    for name, (func, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=func.__doc__, description=func.__doc__)
        command.set_defaults(run=func)
        for flags, settings in options:
            command.add_argument(*flags, **settings)
    return parser


def main(argv=None):
    """Exact local factors of pro-isomorphic zeta functions under base extension."""
    # exact coefficients can exceed the 4300-digit int-to-str limit that newer
    # Pythons set by default; the output is decimal strings, so lift it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = vars(_parser().parse_args(argv))
        payload = args.pop("run")(**args)
        if isinstance(payload, dict):
            payload = json.dumps({"schema": SCHEMA, **payload}, sort_keys=True,
                                 separators=(",", ":"))
        if payload is not None:
            print(payload)
        sys.stdout.flush()  # so that a closed stdout is met here, not at exit
        return
    except BrokenPipeError:
        # the flush at exit would meet the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    except (InputError, ResourceGuardError) as exc:
        code, message = 1, f"refused: {exc}"
    except KeyboardInterrupt:
        # the blank line ends the ^C that the terminal echoed
        code, message = 1, "\nAborted!"
    except AssertionError as exc:
        code, message = 2, f"internal assertion failure: {exc}"
    except Exception as exc:
        import traceback  # only here: it stays off the import path of every command

        trace = traceback.format_exc().removesuffix("\n")
        code, message = 2, f"internal error: {type(exc).__name__}: {exc}\n{trace}"
    print(message, file=sys.stderr)
    sys.exit(code)


def _parse_family(text, d):
    """The family, refusing the Z^n ones, abelian:n and free:c:1, at d >= 2
    (`families.check_base_extension`)."""
    family = parse_family(text)
    fam.check_base_extension(family, d)
    return family


def _parse_field(text):
    try:
        coeffs = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise InputError(f"--minpoly wants comma-separated integers, got {text!r}")
    return NumberField(coeffs)


def _parse_type(text):
    pairs = []
    for chunk in text.split(";"):
        try:
            e, f = (int(x) for x in chunk.split(","))
        except ValueError:
            raise InputError(
                f"--type wants semicolon-separated e,f integer pairs, got {chunk!r}"
            )
        pairs.append((e, f))
    return pairs


def _parse_lattice(text, p, k):
    """The --lattice lattice.  The enumeration guards see its rank first,
    so an oversized lattice is refused before its brackets are read into a
    table and Jacobi-checked."""
    if text.startswith("file:"):
        try:
            with open(text[5:], encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise InputError(str(exc)) from exc
        make, rank = lattice_from_dict, _lattice_fields(data)[0]
    else:
        parts = text.split(":")
        makers = {"heisenberg": heisenberg_lattice, "abelian": abelian_lattice}
        if parts[0] not in makers or len(parts) != 2:
            raise InputError(
                f"--lattice wants heisenberg:m, abelian:n or file:<path>, got {text!r}"
            )
        try:
            data = int(parts[1])
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        make = makers[parts[0]]
        # an index below 1 passes the guards as rank 1, for heisenberg_lattice to refuse
        rank = 2 * max(data, 0) + 1 if parts[0] == "heisenberg" else data
    _check_enum_guards(rank, p, k)
    return make(data)


def _frac_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


@_command("families", _FAMILY, _D,
          _option("--latex", action="store_true", help="emit LaTeX instead of JSON"))
def families_cmd(family_id, d, latex):
    """Print W_{L,d}(X, Y) for a family."""
    family = _parse_family(family_id, d)
    w = make_W(family, d)
    if latex:
        return w.latex()
    return {"family": str(family), "d": d, **w.to_json_dict()}


@_command("funceq", _FAMILY, _D)
def funceq_cmd(family_id, d):
    """Extract the functional equation W(1/X, 1/Y) = sign X^a Y^b W(X, Y)."""
    family = parse_family(family_id)
    if family.kind == "abelian":
        raise UnsupportedFamilyError(
            "abelian lattices are outside the functional-equation table"
        )
    fam.check_base_extension(family, d)
    w = make_W(family, d)
    factor = extract_functional_equation(w)
    if factor is None:
        none = dict.fromkeys(("sign", "a", "b", "weight", "conjecture_holds"))
        return {"exists": False, **none}
    assert verify_functional_equation(w, factor)
    wt = weight(family)
    return {
        "exists": True,
        "sign": factor.sign,
        "a": factor.a,
        "b": factor.b,
        "weight": wt,
        "conjecture_holds": factor.b == wt,
    }


@_command("decompose", _MINPOLY, _P)
def decompose_cmd(minpoly, p):
    """Decomposition type (e_i, f_i) of p in the field, with residue sizes."""
    pairs = decomposition_type(_parse_field(minpoly), p)
    return {"pairs": [[e, f] for e, f in pairs], "qp": [str(p**f) for _, f in pairs]}


@_command("euler", _FAMILY, _D, _MINPOLY, _P,
          _option("--type", dest="type_override",
                  help="semicolon-separated e,f pairs overriding the computed type"))
def euler_cmd(family_id, d, minpoly, p, type_override):
    """Local Euler factor at p of the base-extended zeta function, in t = p^-s."""
    family = _parse_family(family_id, d)
    field = _parse_field(minpoly)
    pairs = None if type_override is None else _parse_type(type_override)
    lf = local_factor(family, d, field, p, pairs=pairs)
    return {
        "p": str(lf.p),
        "numerator": [[str(c), j] for j, c in lf.numerator],
        "denominator": [[str(c), b] for c, b in lf.denominator],
    }


@_command("dirichlet", _FAMILY, _D, _MINPOLY,
          _option("--n", "--N", dest="limit", type=int, required=True, help="expand b_1..b_N"))
def dirichlet_cmd(family_id, d, minpoly, limit):
    """Global Dirichlet coefficients b_1..b_N, exactly."""
    family = _parse_family(family_id, d)
    field = _parse_field(minpoly)
    return {"coefficients": [str(c) for c in global_coefficients(family, d, field, limit)]}


@_command("abscissa", _FAMILY, _D)
def abscissa_cmd(family_id, d):
    """Abscissa of convergence as an exact rational "num/den"."""
    family = _parse_family(family_id, d)
    value = fam.abscissa(family, d)
    shape = abscissa_from_shape(make_W(family, d))
    assert value == shape.value
    return {"abscissa": _frac_str(value), "shape_verified": shape.shape_verified}


@_command("oracle",
          _option("--lattice", dest="lattice_id", required=True,
                  help="heisenberg:m, abelian:n, or file:<path> with a JSON bracket list"),
          _P, _option("--k", type=int, required=True))
def oracle_cmd(lattice_id, p, k):
    """Count index-p^k subrings pro-isomorphic to the lattice, by brute force."""
    return {"count": count_proisomorphic(_parse_lattice(lattice_id, p, k), p, k)}


# ---------------------------------------------------------------------------
# verify suites


def _mismatch(what):
    print(f"MISMATCH {what}")
    return False


def _fe_table_families():
    return [
        *(fam.free(c, g) for c in range(2, 5) for g in range(1, 5)),
        *(fam.heisenberg(m) for m in range(1, 7)),
        *(fam.lmn(m, n) for m in range(1, 7) for n in range(2, 9) if m + n <= 8),
        *(fam.maxclass(c) for c in range(2, 6)),
        fam.f4(),
        fam.q5(),
    ]


def _suite_bm_identity():
    for m in range(1, 7):
        if not verify_bm_identity(m):
            return _mismatch(f"bm-identity m={m}")
        print(f"ok bm-identity m={m}")
    return True


def _suite_sublemma():
    for m in range(1, 6):
        if not verify_sublemma(m):
            return _mismatch(f"sublemma m={m}")
        print(f"ok sublemma m={m}")
    return True


def _suite_bruhat():
    for m in range(1, 5):
        for d in range(1, 4):
            collapsed = fam.heisenberg_from_bruhat(m, d)
            direct = make_W(fam.heisenberg(m), d)
            if not collapsed.ratfunc_equal(direct):
                return _mismatch(f"bruhat m={m} d={d}")
        print(f"ok bruhat m={m} d=1..3")
    return True


def _suite_funceq():
    for family in _fe_table_families():
        for d in range(1, 5):
            w = make_W(family, d)
            got = extract_functional_equation(w)
            want = predicted_symmetry(family, d)
            if got != want or not verify_functional_equation(w, got):
                return _mismatch(f"funceq {family} d={d}: {got} != {want}")
        print(f"ok funceq {family}")
    for d in range(1, 5):
        if extract_functional_equation(make_W(fam.bk(), d)) is not None:
            return _mismatch(f"funceq bk d={d}: unexpected symmetry")
    print("ok funceq bk (none exists)")
    return True


def _suite_weights():
    for family in _fe_table_families():
        for d in range(1, 5):
            if not check_weight_conjecture(family, d):
                return _mismatch(f"weight {family} d={d}")
        print(f"ok weight {family}")
    return True


def _suite_bk_ratio():
    for d in range(1, 5):
        got = reduced_leading_ratio(make_W(fam.bk(), d))
        if got != (102, Fraction(1, 2)):
            return _mismatch(f"bk-ratio d={d}: {got}")
    print("ok bk-ratio d=1..4 -> (102, 1/2)")
    return True


def _suite_cross_family():
    for d in range(1, 5):
        h = make_W(fam.heisenberg(1), d)
        for other in (fam.free(2, 2), fam.maxclass(2)):
            if not make_W(other, d).ratfunc_equal(h):
                return _mismatch(f"cross-family {other} d={d}")
    print("ok cross-family free:2:2 = heisenberg:1 = maxclass:2, d=1..4")
    return True


def _series_int(form, p, k):
    c = form.expand_series(p, k)[k]
    assert c.denominator == 1
    return int(c)


def _suite_oracle():
    for n in (2, 3):
        w = make_W(fam.abelian(n), 1)
        for p in (2, 3):
            for k in range(0, 4):
                got = count_proisomorphic(abelian_lattice(n), p, k)
                want = _series_int(w, p, k)
                if got != want:
                    return _mismatch(f"oracle Z^{n} p={p} k={k}: {got} != {want}")
        print(f"ok oracle Z^{n} p=2,3 k<=3")
    w1 = make_W(fam.heisenberg(1), 1)
    for p in (2, 3):
        for k in range(0, 5):
            got = count_proisomorphic(heisenberg_lattice(1), p, k)
            want = _series_int(w1, p, k)
            if got != want or ((p, k) == (2, 2) and got != 12):
                return _mismatch(f"oracle H1 p={p} k={k}: {got} != {want}")
    print("ok oracle H1 p=2,3 k<=4")
    w2 = make_W(fam.heisenberg(2), 1)
    got = count_proisomorphic(heisenberg_lattice(2), 2, 3)
    want = _series_int(w2, 2, 3)
    if got != want or got != 240:
        return _mismatch(f"oracle H2 p=2 k=3: {got} != {want} (expect 240)")
    print("ok oracle H2 p=2 k=3 -> 240")
    return True


def _suite_abscissa():
    families = [family for family in _fe_table_families() if family.kind != "lmn"]
    cases = [(family, d) for family in families for d in range(1, 5)]
    for family, d in cases:
        closed = fam.abscissa(family, d)
        shape = abscissa_from_shape(make_W(family, d))
        if closed != shape.value:
            return _mismatch(f"abscissa {family} d={d}: {closed} != {shape.value}")
        if family.kind == "maxclass" and d == 1 and closed != 2:
            return _mismatch(f"abscissa {family} d=1 should be 2, got {closed}")
    print(f"ok abscissa on {len(cases)} family/d pairs")
    return True


def _suite_numberfield():
    gaussian = NumberField((1, 0, 1))
    expected = {2: [(2, 1)], 3: [(1, 2)], 5: [(1, 1), (1, 1)]}
    for p, want in expected.items():
        got = decomposition_type(gaussian, p)
        if got != want:
            return _mismatch(f"decomposition p={p}: {got} != {want}")
    print("ok gaussian decomposition types p=2,3,5")
    family = fam.heisenberg(1)
    for p in primes_upto(50):
        lf = local_factor(family, 2, gaussian, p)
        want = [(p ** (e * f), 2 * f)
                for _, f in decomposition_type(gaussian, p) for e in (4, 5)]
        if lf.numerator != ((0, 1),) or sorted(lf.denominator) != sorted(want):
            return _mismatch(f"local factor at p={p}")
    print("ok H1 x gaussian local factors match shifted zeta products, p<=50")
    coeffs = global_coefficients(family, 2, gaussian, 200)
    if coeffs[0] != 1 or any(not isinstance(c, int) or c < 0 for c in coeffs):
        return _mismatch("global coefficients: b_1 != 1, or negative or non-int")
    for a in range(1, 201):
        for b in range(1, 200 // a + 1):
            if gcd(a, b) == 1 and coeffs[a * b - 1] != coeffs[a - 1] * coeffs[b - 1]:
                return _mismatch(f"multiplicativity at {a}*{b}")
    print("ok global coefficients to 200: nonnegative, multiplicative")
    return True


SUITES = {
    "bm-identity": _suite_bm_identity,
    "sublemma": _suite_sublemma,
    "bruhat": _suite_bruhat,
    "funceq": _suite_funceq,
    "weights": _suite_weights,
    "bk-ratio": _suite_bk_ratio,
    "cross-family": _suite_cross_family,
    "oracle": _suite_oracle,
    "abscissa": _suite_abscissa,
    "numberfield": _suite_numberfield,
}


@_command("verify", _option("--suite", default="all", choices=sorted(SUITES) + ["all"],
                             help="one suite, or all (default: all)"))
def verify_cmd(suite):
    """Run the acceptance suites, each over its criterion's full range;
    exit 0 iff everything matches."""
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if not SUITES[name]():
            print(f"FAIL {name}")
            sys.exit(1)
        print(f"PASS {name}")


if __name__ == "__main__":
    main()
