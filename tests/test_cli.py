import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import pytest

import segre.polynomial
from segre.cli import main
from segre.forms import parse_quadratic_form
from segre.pencil import QuadricPencil, det_poly

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

    def test_entry_past_int_str_limit_exits_2(self, capsys):
        forms = "7" * 4400 + "*X0^2 + X1^2 + X2^2 + X3^2 + X4^2 ; X0^2 + X1^2"
        code = main(["analyze", "--poly", forms])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"U": 5, "V": 5},
        {"U": [1, 2, 3, 4, 5], "V": [1, 2, 3, 4, 5]},
        {"U": [["1e5000"] * 5] * 5, "V": [["1"] * 5] * 5},
    ])
    def test_bad_file_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", "--file", str(path)])
        assert "Traceback" not in capsys.readouterr().err
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


class TestRandom:
    def test_deterministic_and_feedable(self, capsys):
        _, a = run(capsys, "random", "--symbol", "[41]", "--seed", "5")
        _, b = run(capsys, "random", "--symbol", "[41]", "--seed", "5")
        assert a == b
        doc = json.loads(a)
        assert doc["symbol"] == "[41]"
        assert doc["seed"] == 5


def test_cli_import_leaves_acceptance_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import segre.cli, sys; assert 'segre.acceptance' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)


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


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestFuzz:
    """``segre analyze`` exits 0, 2, 3 or 4 on any input, never with an exception."""

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
