import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

import pytest

import segre.cli
import segre.polynomial
from segre.cli import main
from segre.forms import parse_quadratic_form
from segre.pencil import QuadricPencil, det_poly
from segre.symbol import build_normal_form, canonicalize, random_instance

DIAG_FORMS = "X0^2 + 2*X1^2 + 3*X2^2 + 4*X3^2 + 5*X4^2 ; X0^2 + X1^2 + X2^2 + X3^2 + X4^2"
DEGENERATE_FORMS = "2*X0*X1 + 5*X3^2 + 7*X4^2 ; 2*X1*X2 + X3^2 + X4^2"
# 3000-digit coefficients: the determinant's leading coefficient has about
# 6000 digits, past Python's default int->str limit of 4300
BIG = "7" * 3000
BIG_FORMS = f"{BIG}*X0^2 + {BIG}*X1^2 + 2*X2^2 + 3*X3^2 + 4*X4^2 ; X0^2+X1^2+X2^2+X3^2+X4^2"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_diagonal_pencil(self, capsys):
        code, out = run(capsys, "analyze", "--poly", DIAG_FORMS)
        doc = json.loads(out)
        assert code == 0
        assert doc["symbol"] == "[11111]"
        assert doc["is_segre"] is True
        assert doc["class_degree"] == 12
        assert doc["lines_total"] == 16
        assert doc["minitwistor"] == {
            "genus": 1,
            "embedding_degree": 4,
            "hyperplane_class": "anticanonical",
        }

    def test_tabulated_normal_equations(self, capsys):
        forms = "4*X0*X1 + X1^2 + 3*X2^2 + 4*X3^2 + 5*X4^2 ; 2*X0*X1 + X2^2 + X3^2 + X4^2"
        code, out = run(capsys, "analyze", "--poly", forms)
        doc = json.loads(out)
        assert code == 0
        assert doc["symbol"] == "[2111]"
        assert doc["singularities"] == ["A1"]
        assert doc["class_degree"] == 10

    def test_degenerate_pair_exits_3(self, capsys):
        code, out = run(capsys, "analyze", "--poly", DEGENERATE_FORMS)
        doc = json.loads(out)
        assert code == 3
        assert doc["is_segre"] is False
        assert doc["degenerate_pencil"] is True
        assert doc["verdict"] == "not a Segre quartic surface"

    def test_parse_error_exits_2(self, capsys):
        code = main(["analyze", "--poly", "X0^3 ; X1^2"])
        capsys.readouterr()
        assert code == 2

    def test_needs_exactly_one_input(self, capsys):
        code = main(["analyze"])
        capsys.readouterr()
        assert code == 2

    def test_file_input(self, capsys, tmp_path):
        code, out = run(capsys, "random", "--symbol", "[113]", "--seed", "7")
        doc = json.loads(out)
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"U": doc["U"], "V": doc["V"]}))
        code, out = run(capsys, "analyze", "--file", str(path))
        assert code == 0
        assert json.loads(out)["symbol"] == "[311]"

    def test_strict_flags_non_catalog(self, capsys, tmp_path):
        code, out = run(capsys, "normal-form", "[(32)]", "--roots", "2")
        doc = json.loads(out)
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"U": doc["U"], "V": doc["V"]}))
        code, out = run(capsys, "analyze", "--file", str(path))
        assert code == 0
        assert json.loads(out)["reason"] == "cone"
        code, _ = run(capsys, "analyze", "--file", str(path), "--strict")
        assert code == 3

    def test_coefficients_past_int_str_limit(self, capsys, monkeypatch):
        code, out = run(capsys, "analyze", "--poly", BIG_FORMS)
        assert code == 0
        doc = json.loads(out)
        assert doc["symbol"] == "[(11)111]"
        f, g = (parse_quadratic_form(t) for t in BIG_FORMS.split(";"))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            monkeypatch.setattr(segre.polynomial, "_PLAIN_STR_BITS", math.inf)
            want = str(det_poly(QuadricPencil(f.matrix, g.matrix)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(want) > 12000
        assert doc["determinant"] == want

    @pytest.mark.parametrize("form", [
        "X0^2 X1^2" + " + X0*X1" * 1250,
        "0*X0^2" + " + 0*X1^2" * 1250,
        "X0^2 + X0^2*X1" + " + X1^2" * 1427,
    ], ids=["syntax", "zero", "degree"])
    def test_long_bad_form_quotes_40_characters(self, capsys, form):
        assert len(form) >= 9998
        code = main(["analyze", "--poly", f"{form} ; X0^2 + X1^2"])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err) < 150
        assert form[:40] in err and form[:41] not in err

    def test_entry_past_int_str_limit_exits_2(self, capsys):
        forms = "7" * 4400 + "*X0^2 + X1^2 + X2^2 + X3^2 + X4^2 ; X0^2 + X1^2"
        code = main(["analyze", "--poly", forms])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"U": 5, "V": 5},
        {"U": [1, 2, 3, 4, 5], "V": [1, 2, 3, 4, 5]},
        {"U": [["1e5000"] * 5] * 5, "V": [["1"] * 5] * 5},
        {"U": [["1"] * 4] * 4, "V": [["1"] * 4] * 4},
        {"U": [["1"] * 6] * 6, "V": [["1"] * 6] * 6},
    ])
    def test_bad_file_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", "--file", str(path)])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 2

    def test_non_symmetric_file_exits_2(self, capsys, tmp_path):
        # the pencil's PencilError reaches the CLI as the reader's ParseError
        u = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
        u[0][1] = "2"
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"U": u, "V": u}))
        code = main(["analyze", "--file", str(path)])
        assert capsys.readouterr().err == "input error: U is not symmetric\n"
        assert code == 2

    @pytest.mark.parametrize("text", [
        "[" * 200_000,  # deeper than the JSON reader recurses
        '{"U": ' + "1" * 5001 + ', "V": 1}',  # past the int<->str digit limit
    ], ids=["deep", "long-integer"])
    def test_json_reader_errors_exit_2(self, tmp_path, text):
        path = tmp_path / "pencil.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "segre.cli", "analyze", "--file", str(path)],
            env=_src_env(), capture_output=True, timeout=60,
        )
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert err.startswith("input error: invalid JSON: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_variable_past_x4_exits_2(self, capsys):
        code = main(["analyze", "--poly", "X5^2 + X0^2 ; X1^2"])
        capsys.readouterr()
        assert code == 2

    def test_byte_identical_reports(self, capsys):
        _, first = run(capsys, "analyze", "--poly", DIAG_FORMS)
        _, second = run(capsys, "analyze", "--poly", DIAG_FORMS)
        assert first == second


class TestCatalog:
    def test_json_records(self, capsys):
        code, out = run(capsys, "catalog")
        rows = json.loads(out)
        assert code == 0
        assert len(rows) == 16
        smooth = next(r for r in rows if r["symbol"] == "[11111]")
        assert smooth["class_degree"] == 12

    def test_pretty_table(self, capsys):
        code, out = run(capsys, "catalog", "--pretty")
        assert code == 0
        assert "[(41)]" in out and "D5" in out


class TestNormalForm:
    def test_emits_matrices_and_equations(self, capsys):
        code, out = run(capsys, "normal-form", "[2111]", "--roots", "2,3,4,5")
        doc = json.loads(out)
        assert code == 0
        assert doc["equations"] == [
            "4*X0*X1 + X1^2 + 3*X2^2 + 4*X3^2 + 5*X4^2",
            "2*X0*X1 + X2^2 + X3^2 + X4^2",
        ]
        assert doc["U"][0][1] == "2"

    def test_fractional_roots(self, capsys):
        code, out = run(capsys, "normal-form", "[5]", "--roots", "1/2")
        assert code == 0
        assert json.loads(out)["U"][0][4] == "1/2"

    def test_bad_roots_exit_2(self, capsys):
        code = main(["normal-form", "[2111]", "--roots", "2,2,3,4"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("roots", ["1e5000", "1e-5000", "7" * 4400, "1/" + "7" * 4400])
    def test_root_past_digit_limit_exits_2(self, capsys, roots):
        code = main(["normal-form", "[5]", "--roots", roots])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 2

    @pytest.mark.parametrize(
        "roots",
        ["1/" + "x" * 9998, "x" * 10000, "1" * 4000 + "/0" + " " * 5998],
        ids=["slash", "letters", "zero-denominator"],
    )
    def test_long_bad_root_quotes_40_characters(self, capsys, roots):
        code = main(["normal-form", "[5]", "--roots", roots])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err) < 300
        assert roots[:40] in err and roots[:41] not in err

    def test_huge_exponent_root_exits_2_promptly(self):
        # read like a JSON entry: the exponent is refused before 10^999999999 is built
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "segre.cli", "normal-form", "[5]", "--roots", "1e999999999"],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert done.returncode == 2
        assert "out of range" in done.stderr

    def test_root_at_digit_limit_renders(self, capsys):
        # a 4300-digit root is accepted; its doubled cross term has 4301 digits
        code, out = run(capsys, "normal-form", "[2111]", "--roots", "9e4299,1,2,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["roots"][0] == "9" + "0" * 4299
        assert doc["equations"][0].startswith("18" + "0" * 4299 + "*X0*X1 + X1^2 + X2^2")

    def test_weight_past_five_exits_2(self, capsys):
        code = main(["normal-form", "[111111]", "--roots", "1,2,3,4,5,6"])
        assert "weight 6" in capsys.readouterr().err
        assert code == 2


class TestRandom:
    def test_deterministic_and_feedable(self, capsys):
        _, a = run(capsys, "random", "--symbol", "[41]", "--seed", "5")
        _, b = run(capsys, "random", "--symbol", "[41]", "--seed", "5")
        assert a == b
        doc = json.loads(a)
        assert doc["symbol"] == "[41]"
        assert doc["seed"] == 5

    def test_entries_are_those_of_random_instance(self, capsys):
        _, out = run(capsys, "random", "--symbol", "[(21)2]", "--seed", "4")
        doc = json.loads(out)
        p = random_instance("[(21)2]", 4)
        assert doc["U"] == [[str(c) for c in row] for row in p.u]
        assert doc["V"] == [[str(c) for c in row] for row in p.v]

    def test_entries_past_int_str_limit_render(self, capsys, monkeypatch):
        # the same writer as pencil_to_json: no ValueError from str() past the limit
        monkeypatch.setattr(
            segre.cli, "random_instance", lambda sym, seed: build_normal_form(sym, [10**4400])
        )
        code, out = run(capsys, "random", "--symbol", "[5]", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["symbol"] == "[5]"
        assert sum(row.count("1" + "0" * 4400) for row in doc["U"]) == 5

    @pytest.mark.parametrize("symbol", [
        "[111111]", "[999999]", pytest.param("[" + "9" * 10**4 + "]", id="10000-nines"),
    ])
    def test_weight_past_five_exits_2(self, capsys, symbol):
        code = main(["random", "--symbol", symbol, "--seed", "1"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("symbol", ["", "[", "[]", "[0]", "[x1]", "11"])
    @pytest.mark.parametrize("command", [
        ["random", "--seed", "1", "--symbol"], ["normal-form", "--roots", "1", "--"],
    ], ids=["random", "normal-form"])
    def test_malformed_symbol_exits_2(self, capsys, command, symbol):
        code = main(command + [symbol])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_weights_up_to_five(self, capsys):
        for symbol in ("[1]", "[(11)]", "[21]", "[(11)11]", "[(11111)]"):
            code, out = run(capsys, "random", "--symbol", symbol, "--seed", "3")
            assert code == 0
            assert json.loads(out)["symbol"] == canonicalize(symbol).render()


class TestVerify:
    @pytest.mark.parametrize("fails, code", [(False, 0), (True, 1)], ids=["pass", "fail"])
    def test_lines_and_exit_code(self, capsys, monkeypatch, fails, code):
        # fast stand-ins for the eleven criteria; run_all reads CRITERIA at the call
        import segre.acceptance
        from segre.acceptance import CriterionResult

        monkeypatch.setattr(segre.acceptance, "CRITERIA", (
            lambda: CriterionResult(1, "first", True, "all agree"),
            lambda: CriterionResult(10, "second", not fails, "1/2 refused" if fails else "2/2 agree"),
        ))
        got, out = run(capsys, "verify")
        assert got == code
        assert out.splitlines() == [
            "PASS criterion  1 (first): all agree",
            "FAIL criterion 10 (second): 1/2 refused" if fails else "PASS criterion 10 (second): 2/2 agree",
            f"{1 if fails else 2}/2 criteria passed",
        ]


@pytest.mark.parametrize("argv", [
    ["random", "--symbol", "[5]", "--seed=--"],
    ["random", "--symbol=--", "--seed", "1"],
    ["normal-form", "[5]", "--roots=--"],
])
def test_double_dash_option_value_exits_2(capsys, argv):
    # argparse hands an option written "--name=--" over as [], not as text
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert "Traceback" not in capsys.readouterr().err
    assert exc.value.code == 2


def test_cli_import_leaves_acceptance_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import segre.cli, sys; assert 'segre.acceptance' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return env


# Without site (-S) nothing is preloaded, so the check sees segre's own
# import closure; a site hook may import typing or random before segre does.
CLOSURE_CODE = f"""
import sys
import segre.cli
COLD = ("dataclasses", "inspect", "typing", "random", "numpy", "segre.numeric", "segre.acceptance")
assert not [m for m in COLD if m in sys.modules], [m for m in COLD if m in sys.modules]
assert segre.cli.main(["analyze", "--poly", {DIAG_FORMS!r}]) == 0
assert not [m for m in COLD if m in sys.modules], [m for m in COLD if m in sys.modules]
import segre
from segre import *
assert numeric_exponent_partitions is segre.numeric_exponent_partitions
assert numeric_exponent_partitions is sys.modules["segre.numeric"].numeric_exponent_partitions
assert "numpy" not in sys.modules
"""


def test_analyze_import_closure_stays_lean():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CLOSURE_CODE], env=_src_env(), capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["symbol"] == "[11111]"


@pytest.mark.parametrize("argv", [
    ["catalog"],  # 23 kB: a write inside print fails
    ["analyze", "--poly", DIAG_FORMS],  # 3 kB: the final flush fails
])
def test_closed_stdout_exits_1_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "segre.cli", *argv],
            env=_src_env(), stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == segre.cli.EXIT_FAILURE == 1
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_1_with_one_line():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "segre.cli", "analyze", "--poly", DIAG_FORMS],
            env=_src_env(), stdout=full, stderr=subprocess.PIPE, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == ["output error: [Errno 28] No space left on device"]


# JSON values of any shape: the leaves a pencil file may hold, nested in lists
LEAVES = (
    st.none()
    | st.integers(-3, 3)
    | st.floats()
    | st.text(alphabet="0123456789-/.e_ ", max_size=6)
)
SHAPES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=6), max_leaves=40)
# square matrices, 0x0 to 6x6, and symmetric 5x5 ones that reach the analysis
SQUARE = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(LEAVES, min_size=n, max_size=n), min_size=n, max_size=n)
)
SYMMETRIC = st.lists(st.integers(-2, 2), min_size=15, max_size=15).map(
    lambda e: [[str(e[max(i, j) * (max(i, j) + 1) // 2 + min(i, j)]) for j in range(5)]
               for i in range(5)]
)
MATRICES = SHAPES | SQUARE | SYMMETRIC
DOCS = (
    st.fixed_dictionaries({"U": SYMMETRIC, "V": SYMMETRIC})
    | st.fixed_dictionaries({"U": MATRICES, "V": MATRICES})
    | st.dictionaries(st.sampled_from(["U", "V", "W"]), MATRICES, max_size=3)
    | SHAPES
)
# --poly text: any string over the grammar's alphabet, token soup, and two
# well-formed sums of quadratic terms
TERM = st.tuples(
    st.sampled_from(["+", "-"]), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4)
).map(lambda t: f"{t[0]} {t[1]}*X{t[2]}*X{t[3]}")
FORM = st.lists(TERM, min_size=1, max_size=6).map(" ".join)
FORM_TEXT = (
    st.text(alphabet="X0123456789+-*/^ ;", max_size=60)
    | st.lists(
        st.sampled_from(["X0", "X1", "X4", "X5", "^2", "^3", "*", "+", "-", "/", "2", "0", " ", ";"]),
        max_size=30,
    ).map("".join)
    | st.tuples(FORM, FORM).map(" ; ".join)
)


# symbol text: any string over the notation's alphabet, and bracketed runs
# of groups and long digit runs
DIGIT_RUN = st.tuples(st.sampled_from("0123456789"), st.integers(1, 300)).map(lambda t: t[0] * t[1])
SYMBOL_TEXT = (
    st.text(alphabet="[]()0123456789 ,", max_size=16)
    | st.lists(
        st.sampled_from(["1", "2", "3", "5", "(11)", "(21)", "(", ")", "0"]) | DIGIT_RUN, max_size=6
    ).map(lambda parts: "[" + "".join(parts) + "]")
    | st.sampled_from(["[5]", "[2111]", "[(11)3]", "[11111]", "[(11111)]"])
)
# root lists: integers, fractions, decimals and exponent forms up to 10^+-99999
ROOT = (
    st.integers(-10**6, 10**6).map(str)
    | st.fractions(max_denominator=10**6).map(str)
    | st.tuples(
        st.sampled_from(["1", "9", "-2", "0", "1.5", ".5", "7_0"]),
        st.sampled_from(["e", "E"]),
        st.integers(-99999, 99999),
    ).map(lambda t: f"{t[0]}{t[1]}{t[2]}")
    | DIGIT_RUN
    | st.text(alphabet="0123456789-+/.eE_ ", max_size=8)
)
ROOTS = st.lists(ROOT, max_size=6).map(",".join)
SEED = st.integers(-2**80, 2**80).map(str) | DIGIT_RUN | st.text(alphabet="0123456789-+_ x", max_size=6)


WALL_CAP_S = 2.0


def _expire(signum, frame):
    raise TimeoutError(f"example ran past {WALL_CAP_S} s")


def run_quietly(argv) -> int:
    """``main(argv)``'s exit code; an example running past ``WALL_CAP_S``
    is interrupted with ``TimeoutError``."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, WALL_CAP_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as exc:  # argparse refusing the command line
        return exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestFuzz:
    """Every subcommand exits 0, 2, 3 or 4 on any input, never with an
    exception and within ``WALL_CAP_S`` per example."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(DOCS)
    def test_json_file(self, tmp_path, doc):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(doc))
        assert run_quietly(["analyze", "--file", str(path)]) in {0, 2, 3, 4}

    @settings(max_examples=60, deadline=None)
    @given(FORM_TEXT)
    def test_poly_text(self, text):
        assert run_quietly(["analyze", f"--poly={text}"]) in {0, 2, 3, 4}

    @settings(max_examples=150, deadline=None)
    @given(SYMBOL_TEXT, ROOTS)
    @example("[5]", "1e5000")
    @example("[2111]", "9e4299,1,2,3")
    def test_normal_form(self, symbol, roots):
        assert run_quietly(["normal-form", symbol, f"--roots={roots}"]) in {0, 2, 3, 4}

    @settings(max_examples=100, deadline=None)
    @given(SYMBOL_TEXT, SEED)
    @example("[99999999]", "1")
    def test_random(self, symbol, seed):
        assert run_quietly(["random", f"--symbol={symbol}", f"--seed={seed}"]) in {0, 2, 3, 4}

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(["--pretty", "--strict", "-x", "[5]", "", "--pretty=1"]), max_size=3))
    def test_catalog(self, tail):
        assert run_quietly(["catalog", *tail]) in {0, 2, 3, 4}
