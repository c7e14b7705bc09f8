"""The textual front end: parsing, dispatch, output and exit codes."""

import json
import sys

import pytest

from flagstab import groebner
from flagstab.cli import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_TERMS,
    MAX_VARIABLES,
    ParseError,
    main,
    parse_document,
    parse_polynomial,
)

from conftest import V, flag_corpus


CONIC_DOC = """\
ring x, y, z
command: flat-limit
ideal: x*z - y^2
weights: 2, -1, -1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePolynomial:
    def test_conic(self):
        f = parse_polynomial("x*z - y^2", ["x", "y", "z"])
        assert f == V(3, 0) * V(3, 2) - V(3, 1) ** 2

    def test_rational_coefficients(self):
        f = parse_polynomial("1/2*x^2 - 3*x*y", ["x", "y"])
        from fractions import Fraction

        assert f.coefficient((2, 0)) == Fraction(1, 2)
        assert f.coefficient((1, 1)) == -3

    def test_parentheses_and_signs(self):
        f = parse_polynomial("x*(x + y) - (-y)^2", ["x", "y"])
        assert f == V(2, 0) ** 2 + V(2, 0) * V(2, 1) - V(2, 1) ** 2

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x*w", ["x", "y"], line=3)
        assert err.value.line == 3
        assert "undeclared" in str(err.value)


class TestParseDocument:
    def test_conic_document(self):
        doc = parse_document(CONIC_DOC)
        assert doc.names == ["x", "y", "z"]
        assert doc.command == "flat-limit"
        assert doc.weights == [2, -1, -1]
        assert len(doc.ideal_gens) == 1

    def test_comments_and_blank_lines(self):
        doc = parse_document("# header\nring x, y\n\nideal: x*y  # conic\n")
        assert len(doc.ideal_gens) == 1

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_document("ring x\nfoo: bar\n")

    def test_ideal_before_ring(self):
        with pytest.raises(ParseError):
            parse_document("ideal: x\n")


class TestInputCaps:
    """Oversized input is refused while parsing, before anything expands."""

    def test_exponent_cap(self):
        assert parse_polynomial(f"x^{MAX_EXPONENT}", ["x"]).degree() == MAX_EXPONENT
        with pytest.raises(ParseError, match="exponent"):
            parse_polynomial("x^100000000", ["x", "y"])
        with pytest.raises(ParseError, match="exponent"):
            parse_polynomial("2^100000000*x", ["x"])

    def test_generator_degree_cap(self):
        half = MAX_DEGREE // 2
        with pytest.raises(ParseError, match="degree"):
            parse_polynomial(f"x^{half}*y^{half}*x", ["x", "y"])
        with pytest.raises(ParseError, match="degree"):
            parse_polynomial(f"(x*y)^{half + 1}", ["x", "y"])

    def test_term_cap(self):
        names = [f"x{i}" for i in range(8)]
        with pytest.raises(ParseError, match=str(MAX_TERMS)):
            parse_polynomial(f"({' + '.join(names)})^{MAX_EXPONENT}", names)

    def test_variable_cap(self):
        names = ", ".join(f"x{i}" for i in range(MAX_VARIABLES + 1))
        with pytest.raises(ParseError, match="variables"):
            parse_document(f"ring {names}\nideal: x0\n")

    def test_cli_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("ring x, y\nideal: x^100000000\n")
        code, out, err = run(capsys, "hilbert", str(path))
        assert (code, out) == (1, "")
        assert "exceeds the cap" in err


class TestCommands:
    def test_flat_limit_conic(self, tmp_path, capsys):
        path = tmp_path / "conic.txt"
        path.write_text(CONIC_DOC)
        code, out, _ = run(capsys, "flat-limit", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["generators"] == ["y^2"]

    def test_check_flag(self, tmp_path, capsys):
        path = tmp_path / "conic.txt"
        path.write_text(CONIC_DOC)
        code, out, _ = run(capsys, "flat-limit", str(path), "--check")
        assert code == 0

    def test_chow_points_unstable_with_witness(self, tmp_path, capsys):
        path = tmp_path / "pts.txt"
        path.write_text(
            "ring x, y, z\npoints: (1,0,0); (0,1,0); (1,1,0); (0,0,1)\n"
        )
        code, out, _ = run(capsys, "chow-points", str(path))
        assert code == 0  # computed, even though the verdict is negative
        payload = json.loads(out)
        assert payload["results"]["verdict"] == "unstable"
        assert payload["results"]["witness_indices"] == [0, 1]

    def test_admissible_false_with_reason(self, tmp_path, capsys):
        path = tmp_path / "adm.txt"
        path.write_text("ring x, y, z\nflag: n=1 d=2 dimv=3\n")
        code, out, _ = run(capsys, "admissible", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["admissible"] is False
        assert payload["results"]["reasons"]

    def test_gb_and_hilbert(self, tmp_path, capsys):
        path = tmp_path / "tc.txt"
        path.write_text(
            "ring x, y, z, w\n"
            "ideal: x*z - y^2; y*w - z^2; x*w - y*z\n"
        )
        code, out, _ = run(capsys, "hilbert", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["dimension"] == 1
        assert payload["results"]["degree"] == 3
        assert payload["results"]["hilbert_polynomial"] == ["1", "3"]

    def test_flag_check_stable(self, tmp_path, capsys):
        path = tmp_path / "flag.txt"
        path.write_text(
            "ring x, y, v1\n"
            "ideal: x^2*y + x*y^2 + v1^3\n"
            "points: (1,0); (0,1); (1,-1)\n"
            "flag: n=1 a0=5\n"
            "beta: 1, -2\n"
            "mults: 2, 1\n"
        )
        code, out, _ = run(capsys, "flag-check", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["verdict"] == "stable"
        assert payload["results"]["stages"][0]["weight"] == "16"

    def test_batch_aggregates(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text(CONIC_DOC)
        b = tmp_path / "b.txt"
        b.write_text("ring x, y, z\ncommand: gb\nideal: x*y\n")
        code, out, _ = run(capsys, "batch", str(a), str(b))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["runs"]) == 2


class TestExitCodes:
    def test_input_error_on_arity_mismatch(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring x, y, z\ncommand: flat-limit\nideal: x*y\nweights: 1, 1\n")
        code, _, err = run(capsys, "flat-limit", str(path))
        assert code == 1
        assert "error" in err

    def test_input_error_on_inhomogeneous_generator(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring x, y\ncommand: gb\nideal: x*y - y\n")
        code, _, _ = run(capsys, "gb", str(path))
        assert code == 1

    def test_input_error_on_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("ring x\nideal: x + w\n")
        code, _, err = run(capsys, "gb", str(path))
        assert code == 1
        assert "undeclared" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "gb", "/nonexistent/nope.txt")
        assert code == 1

    def test_inconclusive_flag_validate(self, tmp_path, capsys):
        # no points certificate: the stability leg is inconclusive
        path = tmp_path / "flag.txt"
        path.write_text(
            "ring x, y, v1\n"
            "ideal: x^2*y + x*y^2 + v1^3\n"
            "flag: n=1\n"
        )
        code, out, _ = run(capsys, "flag-validate", str(path))
        assert code == 2


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path, capsys):
        path = tmp_path / "conic.txt"
        path.write_text(CONIC_DOC)
        _, out1, _ = run(capsys, "flat-limit", str(path))
        _, out2, _ = run(capsys, "flat-limit", str(path))
        assert out1 == out2

    def test_text_output_mode(self, tmp_path, capsys):
        path = tmp_path / "conic.txt"
        path.write_text(CONIC_DOC)
        code, out, _ = run(capsys, "flat-limit", str(path), "--output", "text")
        assert code == 0
        assert "results.generators = y^2" in out


README_FLAG_DOC = """\
ring x, y, v1
command: flag-check
ideal: x^2*y + x*y^2 + v1^3
points: (1,0); (0,1); (1,-1)
flag: n=1 a0=5
beta: 1, -2
mults: 2, 1
"""


def _flag_corpus_docs() -> list[str]:
    docs = [README_FLAG_DOC]
    for _, _, flag in flag_corpus():
        (top,) = flag.top_ideal.generators
        points = "; ".join(f"({a},{b})" for a, b in flag.points0.points)
        docs.append(f"ring x, y, v1\nideal: {top.to_str(['x', 'y', 'v1'])}\npoints: {points}\nflag: n=1\n")
    return docs


def test_flag_pipeline_runs_without_the_degreewise_oracle(tmp_path, capsys, monkeypatch):
    """flag-check and flag-validate without --check never reach
    degree_echelon: with it rebound to raise in every flagstab module
    that binds it, their exit codes and output are unchanged."""
    paths = []
    for k, text in enumerate(_flag_corpus_docs()):
        paths.append(tmp_path / f"flag-{k}.txt")
        paths[-1].write_text(text)
    runs = [(command, str(p)) for p in paths for command in ("flag-check", "flag-validate")]
    expected = [run(capsys, *argv) for argv in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("degree_echelon reached")

    original = groebner.degree_echelon
    rebound = 0
    for name, module in list(sys.modules.items()):
        if name == "flagstab" or name.startswith("flagstab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
                    rebound += 1
    assert rebound >= 2  # groebner itself and at least one importer
    for argv, (code, out, err) in zip(runs, expected):
        assert code == 0, argv
        assert run(capsys, *argv) == (code, out, err)
