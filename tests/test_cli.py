"""End-to-end CLI checks: byte-deterministic JSON, refusals, exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import run
from zetaforge import cli, numberfield
from zetaforge.cli import SUITES
from zetaforge.laurent import InputError
from zetaforge.symmetry import SymmetryFactor


def test_families_json_is_byte_deterministic():
    result = run("families", "--family", "q5")
    assert result.exit_code == 0
    assert result.output == (
        '{"d":1,"denominator":[[6,3],[12,6]],"family":"q5",'
        '"numerator":[["1",0,0]],"schema":"zetaforge/1"}\n'
    )


def test_families_latex():
    result = run("families", "--family", "heisenberg:1", "--latex")
    assert result.exit_code == 0
    assert result.output == (
        "\\frac{1}{\\left(1 - X^{2} Y^{2}\\right)"
        "\\left(1 - X^{3} Y^{2}\\right)}\n"
    )


def test_families_unknown_family_is_refused():
    result = run("families", "--family", "borel:3")
    assert result.exit_code == 1
    assert "refused:" in result.output


def test_funceq_heisenberg2():
    result = run("funceq", "--family", "heisenberg:2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {
        "schema": "zetaforge/1",
        "exists": True,
        "sign": -1,
        "a": 12,
        "b": 6,
        "weight": 6,
        "conjecture_holds": True,
    }


def test_funceq_bk_reports_absence():
    result = run("funceq", "--family", "bk")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["exists"] is False
    assert payload["sign"] is None and payload["conjecture_holds"] is None


def test_funceq_abelian_is_refused():
    result = run("funceq", "--family", "abelian:2")
    assert result.exit_code == 1
    assert "refused: abelian lattices" in result.output


def test_funceq_formal_lmn_instance_works():
    result = run("funceq", "--family", "lmn:4:2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["exists"] is True and payload["conjecture_holds"] is True


def test_decompose_split_prime():
    result = run("decompose", "--minpoly", "1,0,1", "--p", "5")
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "schema": "zetaforge/1",
        "pairs": [[1, 1], [1, 1]],
        "qp": ["5", "5"],
    }


def test_decompose_refuses_index_divisible_prime():
    result = run("decompose", "--minpoly", "3,0,1", "--p", "2")
    assert result.exit_code == 1
    assert "unsupported ramified prime 2" in result.output


def test_decompose_refuses_reducible_field():
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2) has no integer root
    result = run("decompose", "--minpoly", "4,0,0,0,1", "--p", "5")
    assert result.exit_code == 1
    assert "refused: reducible: factor 2,-2,1 divides the polynomial" in result.output


def test_broken_polynomial_invariant_is_internal(monkeypatch):
    # a polynomial with a zero leading coefficient breaks the F_p[x] invariant
    monkeypatch.setattr(numberfield, "_minus_x", lambda g, p: [0, 1])
    result = run("decompose", "--minpoly", "1,0,1", "--p", "5")
    assert result.exit_code == 2
    assert "internal assertion failure" in result.output


# The benchmark's fields: Q, Q(i), Q(cbrt 2), Q(zeta_5).
# sympy and click are never needed at run time; dataclasses, inspect and
# traceback would cost every command's cold start.  The snapshot comes first,
# so a module that site already loaded does not count.
NO_SYMPY_SCRIPT = textwrap.dedent("""
    import sys
    before = set(sys.modules)
    import zetaforge.cli
    STARTUP = {"dataclasses", "inspect", "traceback"}
    loaded = STARTUP & (set(sys.modules) - before)
    assert not loaded, f"import zetaforge.cli loaded {sorted(loaded)}"
    from zetaforge import families, oracle
    from zetaforge.dirichlet import global_coefficients
    from zetaforge.numberfield import NumberField, decomposition_type

    families.make_W(families.heisenberg(2), 2)
    oracle.count_proisomorphic(oracle.heisenberg_lattice(1), 2, 2)
    for coeffs in ((0, 1), (1, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1, 1)):
        field = NumberField(coeffs)
        global_coefficients(families.heisenberg(1), field.degree, field, 30)
        decomposition_type(field, 7)
    assert "sympy" not in sys.modules, "sympy was imported"
    assert "click" not in sys.modules, "click was imported"
    loaded = STARTUP & (set(sys.modules) - before)
    assert not loaded, f"the request path loaded {sorted(loaded)}"
""")


def test_runtime_path_imports_no_sympy():
    # pytest has imported sympy already, so this runs in a fresh interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # the read end is closed before the child writes, as `| head -1` closes
    # it: unbuffered, the print meets the closed pipe, buffered, the flush
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "zetaforge.cli", "abscissa", "--family", "q5"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_euler_inert_prime():
    result = run("euler", "--family", "heisenberg:1", "--d", "2",
                 "--minpoly", "1,0,1", "--p", "3")
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "schema": "zetaforge/1",
        "p": "3",
        "numerator": [["1", 0]],
        "denominator": [["6561", 4], ["59049", 4]],
    }


def test_euler_type_override_unblocks_refused_prime():
    plain = run("euler", "--family", "heisenberg:1", "--d", "2",
                "--minpoly", "3,0,1", "--p", "2")
    assert plain.exit_code == 1
    forced = run("euler", "--family", "heisenberg:1", "--d", "2",
                 "--minpoly", "3,0,1", "--p", "2", "--type", "2,1")
    assert forced.exit_code == 0
    assert json.loads(forced.output)["denominator"] == [["16", 2], ["32", 2]]


@pytest.mark.parametrize("override,message", [
    ("1,5", "sum of e*f = 5, but the field degree is 2"),
    ("0,2", "e, f >= 1, got (0, 2)"),
    ("abc", "e,f integer pairs, got 'abc'"),
    ("1,1;x", "e,f integer pairs, got 'x'"),
    ("1,2,3", "e,f integer pairs, got '1,2,3'"),
    ("", "got ''"),
])
def test_euler_refuses_bad_type_override(override, message):
    result = run("euler", "--family", "heisenberg:1", "--d", "2",
                 "--minpoly", "1,0,1", "--p", "5", "--type", override)
    assert result.exit_code == 1
    assert result.output.startswith("refused:")
    assert message in result.output


# Well-formed --type text, text near its grammar, and arbitrary text.
type_texts = st.one_of(
    st.lists(st.tuples(st.integers(-2, 5), st.integers(-2, 5)), min_size=1, max_size=3).map(
        lambda pairs: ";".join(f"{e},{f}" for e, f in pairs)
    ),
    st.text(alphabet="0123456789,;- +_x\u0661", max_size=12),
    st.text(max_size=12),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(type_texts)
def test_parse_type_returns_pairs_or_refuses(text):
    try:
        pairs = cli._parse_type(text)
    except InputError:
        return
    assert pairs and all(
        len(pair) == 2 and all(isinstance(x, int) for x in pair) for pair in pairs
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(type_texts, st.integers(-3, 30))
def test_euler_type_override_exits_0_or_1(text, p):
    result = run("euler", "--family", "heisenberg:1", "--d", "2",
                 "--minpoly", "1,0,1", "--p", str(p), "--type", text)
    assert result.exit_code in (0, 1), result.output
    if result.exit_code == 1:
        assert result.output.startswith("refused:")


def test_euler_type_override_refuses_a_non_prime():
    result = run("euler", "--family", "heisenberg:1", "--d", "2",
                 "--minpoly", "1,0,1", "--p", "4", "--type", "1,2")
    assert result.exit_code == 1
    assert "4 is not prime" in result.output


def test_euler_prints_coefficients_past_the_str_digit_limit():
    # bk over Q(zeta_5) at p = 701 has denominator constants of over 4300 digits
    result = run("euler", "--family", "bk", "--d", "4",
                 "--minpoly", "1,1,1,1,1", "--p", "701")
    assert result.exit_code == 0
    denominator = json.loads(result.output)["denominator"]
    assert all(c.isdigit() for c, _ in denominator)
    assert max(len(c) for c, _ in denominator) > 4300


def test_dirichlet_over_gauss_field():
    result = run("dirichlet", "--family", "heisenberg:1", "--d", "2",
                 "--minpoly", "1,0,1", "--n", "20")
    assert result.exit_code == 0
    coeffs = json.loads(result.output)["coefficients"]
    assert len(coeffs) == 20
    assert coeffs[0] == "1" and coeffs[3] == "48" and coeffs[15] == "1792"
    assert all(c == "0" for i, c in enumerate(coeffs) if i not in (0, 3, 15))


def test_dirichlet_refuses_unsupported_prime_in_range():
    result = run("dirichlet", "--family", "heisenberg:1", "--d", "2",
                 "--minpoly", "3,0,1", "--n", "10")
    assert result.exit_code == 1
    assert "prime 2 refused" in result.output


def test_dirichlet_formal_lmn_is_refused():
    result = run("dirichlet", "--family", "lmn:4:2", "--minpoly", "0,1", "--n", "5")
    assert result.exit_code == 1
    assert "no Dirichlet expansion" in result.output


def test_abscissa_values_and_flags():
    result = run("abscissa", "--family", "maxclass:3")
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "schema": "zetaforge/1",
        "abscissa": "2/1",
        "shape_verified": True,
    }
    f4 = run("abscissa", "--family", "f4", "--d", "2")
    assert json.loads(f4.output)["abscissa"] == "37/15"
    bad = run("abscissa", "--family", "lmn:4:2")
    assert bad.exit_code == 1
    assert "refused:" in bad.output


def test_oracle_counts():
    result = run("oracle", "--lattice", "heisenberg:1", "--p", "2", "--k", "2")
    assert result.exit_code == 0
    assert json.loads(result.output)["count"] == 12
    abelian = run("oracle", "--lattice", "abelian:2", "--p", "3", "--k", "2")
    assert json.loads(abelian.output)["count"] == 13


def test_oracle_lattice_from_file(tmp_path):
    path = tmp_path / "h1.json"
    path.write_text('{"rank": 3, "brackets": [[1, 2, [0, 0, 1]]]}')
    result = run("oracle", "--lattice", f"file:{path}", "--p", "2", "--k", "2")
    assert result.exit_code == 0
    assert json.loads(result.output)["count"] == 12


def test_oracle_counts_one_subring_of_rank_one(tmp_path):
    path = tmp_path / "rank1.json"
    path.write_text('{"rank": 1}')
    for lattice in ("abelian:1", f"file:{path}"):
        for k in ("0", "2", "4"):
            result = run("oracle", "--lattice", lattice, "--p", "3", "--k", k)
            assert result.exit_code == 0
            assert result.output == '{"count":1,"schema":"zetaforge/1"}\n'


def test_oracle_refuses_rank_zero_lattice(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"rank": 0}')
    result = run("oracle", "--lattice", f"file:{path}", "--p", "2", "--k", "1")
    assert result.exit_code == 1
    assert "refused: rank must be at least 1" in result.output


def test_oracle_refuses_bracket_invisible_at_the_search_level(tmp_path):
    # M3 with [e1, e3] = 10^23 e4: not derived-saturated at 2, so searched,
    # and modulo 2^(2 + C_SAFETY) that bracket is zero
    path = tmp_path / "big.json"
    path.write_text(
        '{"rank":4,"brackets":[[1,2,[0,0,1,0]],[1,3,[0,0,0,100000000000000000000000]]]}'
    )
    for k in ("1", "2"):
        result = run("oracle", "--lattice", f"file:{path}", "--p", "2", "--k", k)
        assert result.exit_code == 1
        assert result.output.startswith("refused: bracket constant 10")


def test_oracle_refuses_oversized_lattice_before_building_it(monkeypatch, tmp_path):
    def build(*args):
        raise AssertionError("lattice built before the rank guard")

    for maker in ("heisenberg_lattice", "abelian_lattice", "lattice_from_dict"):
        monkeypatch.setattr(cli, maker, build)
    path = tmp_path / "rank7.json"
    path.write_text('{"rank": 7, "brackets": [[1, 2, [0, 0, 0, 0, 0, 0, 1]]]}')
    for lattice in ("heisenberg:4", "abelian:7", f"file:{path}"):
        result = run("oracle", "--lattice", lattice, "--p", "2", "--k", "1")
        assert result.exit_code == 1
        assert result.output == "refused: sublattice enumeration capped at rank 6\n"


_AT_D2 = {
    "families": [],
    "euler": ["--minpoly", "1,0,1", "--p", "5"],
    "dirichlet": ["--minpoly", "1,0,1", "--n", "4"],
    "abscissa": [],
    "funceq": [],
}


@pytest.mark.parametrize("command, family", [
    *(pytest.param(command, family, id=command) for command, family in (
        ("families", "abelian:2"), ("euler", "abelian:2"), ("dirichlet", "abelian:2"),
        ("abscissa", "abelian:3"))),
    *(pytest.param(command, family, id=f"{command}-{family}")
      for family in ("free:2:1", "free:3:1") for command in _AT_D2),
])
def test_abelian_beyond_d1_is_refused(command, family):
    # Z^4 = O_K^2 for K = Q(i) has 15 subgroups of index 2, but the abelian
    # W at d = 2 counts O_K-submodules and would print b_2 = 3; free:c:1,
    # the free nilpotent ring on one generator, is Z
    result = run(command, "--family", family, "--d", "2", *_AT_D2[command])
    assert result.exit_code == 1
    assert result.output == f"refused: {family} at d=2: abelian families are supported only at d=1\n"


def test_free_on_one_generator_at_d1_is_abelian_1():
    base = ["--d", "1", "--minpoly", "0,1", "--p", "5"]
    free = run("euler", "--family", "free:2:1", *base)
    assert free.exit_code == 0
    assert free.output == run("euler", "--family", "abelian:1", *base).output


def test_internal_value_error_is_not_a_refusal(monkeypatch):
    def broken(f, p):
        raise ValueError("boom")

    monkeypatch.setattr(numberfield, "_factor_type", broken)
    result = run("decompose", "--minpoly", "1,0,1", "--p", "5")
    assert result.exit_code == 2
    assert "internal error: ValueError: boom" in result.output
    assert "Traceback (most recent call last)" in result.stderr
    assert "refused" not in result.output


def test_interrupt_prints_aborted(monkeypatch):
    def interrupted(f, p):
        raise KeyboardInterrupt

    monkeypatch.setattr(numberfield, "_factor_type", interrupted)
    result = run("decompose", "--minpoly", "1,0,1", "--p", "5")
    assert result.exit_code == 1
    assert result.stdout == "" and result.stderr.endswith("Aborted!\n")


REFUSED_INPUT = [
    (["families", "--family", "heisenberg:x"], "invalid literal for int()"),
    (["families", "--family", "heisenberg:2", "--d", "0"], "extension degree d must be >= 1"),
    (["families", "--family", "lmn:1:1"], "lmn family needs m >= 1, n >= 2"),
    (["abscissa", "--family", "lmn:4:2"], "abscissa undefined"),
    (["decompose", "--minpoly", "1,0,2", "--p", "5"], "monic"),
    (["decompose", "--minpoly", "1,0,1", "--p", "4"], "4 is not prime"),
    (["dirichlet", "--family", "heisenberg:1", "--minpoly", "0,1", "--n", "0"], "limit must be >= 1"),
    # a formal W is refused before the primes, so also where no prime is in range
    (["dirichlet", "--family", "lmn:4:2", "--minpoly", "0,1", "--n", "1"], "no Dirichlet expansion"),
    (["oracle", "--lattice", "heisenberg:x", "--p", "2", "--k", "1"], "invalid literal for int()"),
    (["oracle", "--lattice", "abelian:2", "--p", "2", "--k", "-1"], "index exponent must be nonnegative"),
    (["oracle", "--lattice", "heisenberg:0", "--p", "2", "--k", "2"], "heisenberg index must be >= 1"),
    (["oracle", "--lattice", "heisenberg:-1", "--p", "2", "--k", "2"], "heisenberg index must be >= 1"),
]


@pytest.mark.parametrize("command, message", REFUSED_INPUT,
                         ids=[" ".join(command) for command, _ in REFUSED_INPUT])
def test_validators_refuse_with_exit_1(command, message):
    result = run(*command)
    assert result.exit_code == 1
    assert result.output.startswith("refused:")
    assert message in result.output


COMMANDS = ["families", "funceq", "decompose", "euler", "dirichlet", "abscissa", "oracle", "verify"]

USAGE_ERRORS = [
    # a missing required option, or a missing option value
    ["families"],
    ["families", "--family"],
    ["funceq", "--d", "2"],
    ["decompose", "--minpoly", "1,0,1"],
    ["decompose", "--p", "5"],
    ["euler", "--family", "heisenberg:1", "--minpoly", "1,0,1"],
    ["euler", "--family", "heisenberg:1", "--p", "5"],
    ["dirichlet", "--family", "heisenberg:1", "--minpoly", "0,1"],
    ["dirichlet", "--family", "heisenberg:1", "--n", "5"],
    ["abscissa", "--d", "2"],
    ["oracle", "--lattice", "heisenberg:1", "--p", "2"],
    ["oracle", "--p", "2", "--k", "1"],
    # a non-integer --p, --k, --d or --n
    ["decompose", "--minpoly", "1,0,1", "--p", "x"],
    ["euler", "--family", "heisenberg:1", "--minpoly", "1,0,1", "--p", "2.5"],
    ["oracle", "--lattice", "heisenberg:1", "--p", "two", "--k", "1"],
    ["oracle", "--lattice", "heisenberg:1", "--p", "2", "--k", "x"],
    ["families", "--family", "q5", "--d", "x"],
    ["funceq", "--family", "q5", "--d", "1.5"],
    ["euler", "--family", "heisenberg:1", "--d", "x", "--minpoly", "1,0,1", "--p", "5"],
    ["dirichlet", "--family", "heisenberg:1", "--d", "x", "--minpoly", "0,1", "--n", "5"],
    ["abscissa", "--family", "q5", "--d", ""],
    ["dirichlet", "--family", "heisenberg:1", "--minpoly", "0,1", "--n", "ten"],
    # an unknown suite, option or command, and no command at all
    ["verify", "--suite", "bogus"],
    # an abbreviated option, and -h: only --help asks for help
    ["families", "--fam", "q5"],
    ["families", "-h"],
    *([command, "--bogus"] for command in COMMANDS),
    ["bogus"],
    [],
]


@pytest.mark.parametrize("command", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_are_refusals(command):
    result = run(*command)
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("refused:")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [[], *([c] for c in COMMANDS)], ids=" ".join)
def test_help_exits_0(command):
    result = run(*command, "--help")
    assert result.exit_code == 0
    assert result.stdout.startswith("Usage:") and result.stderr == ""


# The last six hold a rank, index or coefficient that is not a JSON integer;
# truncated by int(), the first would be read as Z^3 and counted.
@pytest.mark.parametrize("content", ["{not json", '{"brackets": []}', "[1, 2]",
                                     '{"rank": 2, "brackets": [[1, 2]]}', b'\xff{"rank": 3}',
                                     '{"rank": 3, "brackets": [[1, 2, [0, 0, 0.5]]]}',
                                     '{"rank": 2.7}', '{"rank": true}',
                                     '{"rank": 3, "brackets": [[1.9, 2, [0, 0, 1]]]}',
                                     '{"rank": 3, "brackets": [[1, 2, [0, 0, true]]]}',
                                     '{"rank": 3, "brackets": [[1, "2", [0, 0, 1]]]}',
                                     '{"rank": 3, "brackets": [[1, 2, [0, 0, 1], 4]]}',
                                     '{"rank": 3, "brackets": [[1, 2, 5]]}',
                                     '{"rank": 3, "brackets": {"a": 1}}'])
def test_malformed_lattice_file_is_refused(tmp_path, content):
    path = tmp_path / "lattice.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    result = run("oracle", "--lattice", f"file:{path}", "--p", "2", "--k", "1")
    assert result.exit_code == 1
    assert result.output.startswith("refused:")


# data of the wrong shape is refused by naming the shape, not by a Python
# error about unpacking or iterating it
@pytest.mark.parametrize("content, message", [
    ('[1, 2]', 'lattice data must be {"rank": n, "brackets": [...]}, got [1, 2]'),
    ('{"brackets": []}',
     'lattice data must be {"rank": n, "brackets": [...]}, got {\'brackets\': []}'),
    ('{"rank": 3, "brackets": {"a": 1}}',
     "lattice brackets must be a list of [i, j, [c_1, ..., c_rank]], got {'a': 1}"),
    ('{"rank": 2, "brackets": [[1, 2]]}',
     "bracket entries must be [i, j, [c_1, ..., c_rank]], got [1, 2]"),
    ('{"rank": 3, "brackets": [[1, 2, [0, 0, 1], 4]]}',
     "bracket entries must be [i, j, [c_1, ..., c_rank]], got [1, 2, [0, 0, 1], 4]"),
    ('{"rank": 3, "brackets": [[1, 2, 5]]}',
     "bracket entries must be [i, j, [c_1, ..., c_rank]], got [1, 2, 5]"),
    ('{"rank": 3, "brackets": [[1, 2, [0, 0, 0.5]]]}', "lattice data must be integers, got 0.5"),
])
def test_malformed_lattice_file_names_the_shape(tmp_path, content, message):
    path = tmp_path / "lattice.json"
    path.write_text(content)
    result = run("oracle", "--lattice", f"file:{path}", "--p", "2", "--k", "1")
    assert result.exit_code == 1
    assert result.output == f"refused: {message}\n"


def test_missing_lattice_file_is_refused(tmp_path):
    result = run("oracle", "--lattice", f"file:{tmp_path / 'absent.json'}", "--p", "2", "--k", "1")
    assert result.exit_code == 1
    assert result.output.startswith("refused:")


def test_oracle_guard_is_a_refusal():
    result = run("oracle", "--lattice", "abelian:2", "--p", "7", "--k", "1")
    assert result.exit_code == 1
    assert "refused:" in result.output


def test_oracle_refuses_an_enumeration_too_large_to_finish():
    result = run("oracle", "--lattice", "abelian:6", "--p", "5", "--k", "4")
    assert result.exit_code == 1
    assert result.output.startswith("refused:")


def test_verify_single_suite():
    result = run("verify", "--suite", "bm-identity")
    assert result.exit_code == 0
    assert "ok bm-identity m=1" in result.output
    assert "ok bm-identity m=6" in result.output
    assert result.output.rstrip().endswith("PASS bm-identity")


def test_verify_reports_a_mismatch(monkeypatch, capsys):
    predicted = cli.predicted_symmetry

    def flipped(family, d):
        factor = predicted(family, d)
        return SymmetryFactor(-factor.sign, factor.a, factor.b)

    monkeypatch.setattr(cli, "predicted_symmetry", flipped)
    assert SUITES["funceq"]() is False
    assert "MISMATCH funceq free:2:1 d=1" in capsys.readouterr().out

    monkeypatch.setattr(cli, "verify_bm_identity", lambda m: m < 3)
    result = run("verify", "--suite", "all")
    assert result.exit_code == 1
    assert "MISMATCH bm-identity m=3" in result.output
    assert result.output.rstrip().endswith("FAIL bm-identity")
    assert "PASS" not in result.output


def test_verify_cross_family_suite():
    result = run("verify", "--suite", "cross-family")
    assert result.exit_code == 0
    assert "PASS cross-family" in result.output
