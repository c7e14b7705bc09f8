"""The textual front end: parsing, dispatch, output and exit codes."""

import argparse
import contextlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flagstab
from flagstab import (
    GradedOnePS,
    Polynomial,
    buchberger,
    check_flag_stability,
    cli,
    gb_memo,
    groebner,
    hilbert,
    validate_flag,
)
from flagstab.cli import (
    COMMANDS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_POINT_WORK,
    MAX_TERMS,
    MAX_VARIABLES,
    ParseError,
    main,
    parse_document,
    parse_polynomial,
)

from conftest import V, flag_corpus, twisted_cubic


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


# Random expression trees over x, y, z: a leaf is a variable name or a
# literal, a node is (op, child, child), ("neg", child), ("()", child)
# or ("^", child, exponent).
NAMES3 = ["x", "y", "z"]
_leaves = st.one_of(
    st.sampled_from(NAMES3),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*"), kids, kids),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("()"), kids),
        st.tuples(st.just("^"), kids, st.integers(0, 3)),
    ),
    max_leaves=10,
)


def _render(node) -> tuple[str, int]:
    """Text of a tree and its grammar level: 0 a sum, 1 a product,
    2 a factor (unary minus or power), 3 an atom."""
    if isinstance(node, str):
        return node, 3
    op = node[0]
    if op == "()":
        return f"({_render(node[1])[0]})", 3
    if op == "neg":
        return "-" + _operand(node[1], 2), 2
    if op == "^":
        return f"{_operand(node[1], 3)}^{node[2]}", 2
    if op == "*":
        return f"{_operand(node[1], 1)}*{_operand(node[2], 2)}", 1
    return f"{_operand(node[1], 0)} {op} {_operand(node[2], 1)}", 0


def _operand(node, level: int) -> str:
    text, got = _render(node)
    return text if got >= level else f"({text})"


def _evaluate(node) -> Polynomial:
    if isinstance(node, str):
        if node in NAMES3:
            return Polynomial.variable(3, NAMES3.index(node))
        num, _, den = node.partition("/")
        return Polynomial.constant(3, Fraction(int(num), int(den or 1)))
    op = node[0]
    if op == "()":
        return _evaluate(node[1])
    if op == "neg":
        return -_evaluate(node[1])
    if op == "^":
        return _evaluate(node[1]) ** node[2]
    a, b = _evaluate(node[1]), _evaluate(node[2])
    return a + b if op == "+" else a - b if op == "-" else a * b


def _within_caps(node) -> tuple[int, int, bool]:
    """Upper bounds on the degree and term count of the tree's value, and
    whether every size check the parser makes stays within the caps."""
    if isinstance(node, str):
        return (1 if node in NAMES3 else 0), 1, True
    op = node[0]
    if op in ("()", "neg"):
        return _within_caps(node[1])
    if op == "^":
        d, t, ok = _within_caps(node[1])
        d, t = d * node[2], comb(t + node[2], node[2])
        return d, t, ok and d <= MAX_DEGREE and t <= MAX_TERMS
    (da, ta, oka), (db, tb, okb) = _within_caps(node[1]), _within_caps(node[2])
    if op == "*":
        d, t = da + db, ta * tb
        return d, t, oka and okb and d <= MAX_DEGREE and t <= MAX_TERMS
    return max(da, db), ta + tb, oka and okb


@settings(deadline=None, max_examples=200)
@given(tree=_trees)
def test_parse_matches_polynomial_arithmetic(tree):
    assume(_within_caps(tree)[2])
    text, _ = _render(tree)
    assert parse_polynomial(text, NAMES3) == _evaluate(tree), text


# Malformed input and the exact error, as recorded from the parser that
# built every intermediate value as a Polynomial:
# (text, number of variables, line, first column, message).
PARSE_ERRORS = [
    ("x*w", 2, 1, 1, "line 1, column 3: undeclared variable 'w'"),
    ("1/0*x", 2, 2, 8, "line 2, column 10: zero denominator"),
    ("(x + y", 2, 3, 1, "line 3, column 7: expected ')'"),
    ("x*(x + y", 2, 1, 1, "line 1, column 9: expected ')'"),
    ("x +", 2, 1, 1, "line 1, column 4: expected a number, variable or '('"),
    ("x - y *", 2, 5, 10, "line 5, column 17: expected a number, variable or '('"),
    ("x^65", 2, 1, 1, "line 1, column 3: exponent 65 exceeds the cap of 64"),
    ("x^40*y^30", 2, 1, 1, "line 1, column 10: degree 70 exceeds the cap of 64"),
    ("(x*y)^33", 2, 1, 1, "line 1, column 9: degree 66 exceeds the cap of 64"),
    (
        "(x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7)^64", 8, 1, 1,
        "line 1, column 43: a product of more than 10000 terms",
    ),
    (
        "(x0 + x1 + x2 + x3)^7*(x0 + x1 + x2 + x3)^7", 4, 1, 1,
        "line 1, column 44: a product of more than 10000 terms",
    ),
    ("x $ y", 2, 1, 1, "line 1, column 3: unexpected character '$'"),
    ("x*#", 2, 1, 1, "line 1, column 3: expected a number, variable or '('"),
    ("x^", 2, 1, 1, "line 1, column 3: expected an integer"),
    ("3/x", 2, 1, 1, "line 1, column 3: expected an integer"),
    ("", 2, 1, 1, "line 1, column 1: expected a number, variable or '('"),
    ("2 x", 2, 1, 1, "line 1, column 3: unexpected character 'x'"),
]


@pytest.mark.parametrize("text, nvars, line, col0, message", PARSE_ERRORS)
def test_parse_error_text(text, nvars, line, col0, message):
    names = ["x", "y"] if nvars == 2 else [f"x{i}" for i in range(nvars)]
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, names, line, col0)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("ring x, y\nideal: x*y; y + z\n", "line 2, column 17: undeclared variable 'z'"),
        (
            "ring x, y\n\nideal:  x^2 ;  x*)\n",
            "line 3, column 18: expected a number, variable or '('",
        ),
        # the body's first column counts from the colon, not from the
        # first match of the body's text, which may lie inside the key
        ("ring x\nideal: )\n", "line 2, column 8: expected a number, variable or '('"),
        ("ring x\nideal: a\n", "line 2, column 8: undeclared variable 'a'"),
        ("ring x\nideal:    a\n", "line 2, column 11: undeclared variable 'a'"),
        ("stage: 1, 7\n", "line 1, column 1: stage needs exactly one integer"),
        (
            "flag: n=1 d=4 a0=5 a0=7\n",
            "line 1, column 1: repeated flag parameter 'a0'",
        ),
    ],
)
def test_document_error_columns(text, message):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert str(err.value) == message


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

    def test_caps_measure_after_cancellation(self):
        assert parse_polynomial("(x^40 - x^40)*y^30", ["x", "y"]).is_zero
        with pytest.raises(ParseError, match="degree 70"):
            parse_polynomial("(x^40 - x^40 + y^40)*y^30", ["x", "y"])
        # the base has 3 terms, not 4 with x*y: C(3 + 32, 32) <= MAX_TERMS < C(4 + 32, 32)
        xyz = ["x", "y", "z"]
        assert len(parse_polynomial("((x + y)*(x - y) + z^2)^32", xyz).terms) == 561
        with pytest.raises(ParseError, match=str(MAX_TERMS)):
            parse_polynomial("((x + y)*(x - y) + z^2 + x*z)^32", xyz)

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

    def test_flag_parameter_cap(self, tmp_path, capsys):
        # admissible lists one excluded ratio per stage; n = 10^6 ran past 20 s
        path = tmp_path / "huge-flag.txt"
        cap = f"exceeds the cap of {MAX_VARIABLES}"
        for params, refused in [
            ("n=1000000 d=1000000 dimv=10000000", "n = 1000000"),
            (f"n=1 d=40 dimv={MAX_VARIABLES + 1}", f"dimv = {MAX_VARIABLES + 1}"),
        ]:
            path.write_text(f"flag: {params}\n")
            code, out, err = run(capsys, "admissible", str(path))
            assert (code, out) == (1, "")
            assert f"flag parameter {refused} {cap}" in err
        path.write_text(f"flag: n={MAX_VARIABLES - 2} d=40 dimv={MAX_VARIABLES}\n")
        assert run(capsys, "admissible", str(path))[0] == 0

    def test_degree_bound_cap(self, tmp_path, capsys):
        path = tmp_path / "conic.txt"
        path.write_text(CONIC_DOC)
        argv = ("flat-limit", str(path), "--check", "--degree-bound", str(MAX_DEGREE + 1))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "exceeds the cap" in err

    def test_degree_bound_below_the_generators(self, tmp_path, capsys):
        """A bound of 0 is checked as any other bound, not replaced by the
        default: below the conic's degree 2 it is refused, as 1 is."""
        path = tmp_path / "conic.txt"
        path.write_text(CONIC_DOC)
        for bound in ("0", "1"):
            argv = ("flat-limit", str(path), "--check", "--degree-bound", bound)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert "degree bound below the maximum generator degree" in err

    def test_point_work_cap(self, tmp_path, capsys):
        def points_doc(n: int, k: int) -> str:
            ring = ", ".join(f"x{i}" for i in range(k))
            pts = "; ".join(f"({','.join(str((p + 1) ** i) for i in range(k))})" for p in range(n))
            return f"ring {ring}\npoints: {pts}\n"

        # 12 points in P^4: 12 * (C(12,1) + ... + C(12,4)) = 9516
        assert len(parse_document(points_doc(12, 5)).points) == 12
        # 14 points in P^5: 14 * (C(14,1) + ... + C(14,5)) = 48608
        with pytest.raises(ParseError, match=f"48608 exceeds the cap of {MAX_POINT_WORK}"):
            parse_document(points_doc(14, 6))
        path = tmp_path / "points.txt"
        path.write_text(points_doc(14, 6))
        code, out, err = run(capsys, "chow-points", str(path))
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

    def test_rational_normal_quartic_flag(self, tmp_path, capsys):
        # the 2x2 minors of [[x0 x1 x2 x3], [x1 x2 x3 v1]]: six quadrics cut
        # out a curve that is no complete intersection, and its smoothness
        # check takes the 200 3x3 minors of their Jacobian
        top, bottom = ["x0", "x1", "x2", "x3"], ["x1", "x2", "x3", "v1"]
        minors = [
            f"{top[i]}*{bottom[j]} - {top[j]}*{bottom[i]}" for i, j in combinations(range(4), 2)
        ]
        path = tmp_path / "quartic.txt"
        path.write_text("ring x0, x1, x2, x3, v1\nideal: " + "; ".join(minors) + "\nflag: n=1\n")
        code, out, _ = run(capsys, "flag-validate", str(path))
        results = json.loads(out)["results"]
        assert code == 2  # no points certificate
        assert results["smooth"] == {"1": True}
        assert results["degree"] == 4
        assert results["hilbert_type"] == [["4"], ["1", "4"]]
        assert results["nondegenerate"] is True

    def test_flag_check_stage_out_of_range(self, tmp_path, capsys):
        # the stage range is checked before the grading and the flag limit
        # are built, worded as by flag-limit and flag-weight
        path = tmp_path / "flag.txt"
        path.write_text("ring x, y, v1\nideal: x^2*y + x*y^2 + v1^3\nflag: n=1\nstage: 5\n")
        code, out, err = run(capsys, "flag-check", str(path))
        assert (code, out) == (1, "")
        assert err == "flagstab: error: stage must be between 1 and 1\n"


FLAG_HEAD = "ring x, y, v1\nideal: x^2*y + x*y^2 + v1^3\n"

# (command, document, the sections its error names): every command once,
# and a `beta:` without `mults:`, which is refused, not read as no grading.
MISSING_SECTIONS = [
    ("gb", "ring x, y\n", ["ideal"]),
    ("flat-limit", "ring x, y\nideal: x*y\n", ["weights"]),
    ("hilbert", "", ["ring", "ideal"]),
    ("chow-weight", "ring x, y\nideal: x*y\n", ["weights"]),
    ("chow-points", "ring x, y\n", ["points"]),
    ("join", "ring x, y, u\nideal: x*y\n", ["usplit"]),
    ("verify-limit-join", "ring x, y, u\nideal: x*y\nusplit: u\n", ["ab"]),
    ("grading", "beta: 1, -1\n", ["mults"]),
    ("admissible", "flag: n=1 d=3\n", ["flag: dimv="]),
    ("flag-validate", "flag: n=1\n", ["ring", "ideal"]),
    ("flag-limit", FLAG_HEAD + "flag: n=1\nstage: 1\nbeta: 1, -2\n", ["mults"]),
    ("flag-weight", "flag: n=1 d=3\nbeta: 1, -2\nmults: 2, 1\n", ["flag: a0=", "stage"]),
    ("flag-check", FLAG_HEAD + "flag: n=1\nbeta: 1, -2\n", ["mults"]),
    ("flag-check", FLAG_HEAD + "mults: 2, 1\n", ["flag: n="]),
]


@pytest.mark.parametrize("command, text, missing", MISSING_SECTIONS)
def test_missing_sections(tmp_path, capsys, command, text, missing):
    path = tmp_path / "doc.txt"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    named = ", ".join(f"'{s}'" for s in missing)
    assert err == f"flagstab: error: command '{command}' is missing {named}\n"


def test_missing_sections_cover_every_command():
    assert {command for command, _, _ in MISSING_SECTIONS} == set(COMMANDS)


# One document per command, plus the inconclusive flag-validate path and
# a single-stage flag-check. Beside each are the json and text stdout the
# CLI printed for it before its commands became one table (recorded at
# commit 0988743). Reports are serialised by their dataclass field names,
# so these files also pin those names.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_DOCS = sorted(GOLDEN.glob("*.in"))
GOLDEN_EXIT = {"flag-validate-inconclusive": 2}


@pytest.mark.parametrize("mode", ["json", "text"])
@pytest.mark.parametrize("doc", GOLDEN_DOCS, ids=lambda p: p.stem)
def test_golden_stdout(capsys, doc, mode):
    command = parse_document(doc.read_text()).command
    code, out, err = run(capsys, command, str(doc), "--output", mode)
    assert (out, err) == (doc.with_suffix(f".{mode}").read_text(), "")
    assert code == GOLDEN_EXIT.get(doc.stem, 0)


def test_golden_documents_cover_every_command():
    assert {parse_document(p.read_text()).command for p in GOLDEN_DOCS} == set(COMMANDS)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(deadline=None, max_examples=100)
@given(value=json_values)
def test_json_writer_matches_json_dumps(value):
    """`render` writes what `json.dumps(sort_keys=True, indent=2)` writes:
    empty containers, true/false/null and non-ASCII escapes included."""
    out = {"v": value, "w": [value, {}], "\u00e9": []}
    assert cli.render(out, "json") == json.dumps(out, sort_keys=True, indent=2) + "\n"
    assert cli.render({}, "json") == "{}\n"


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


def _refuse_everywhere(monkeypatch, function) -> int:
    """Rebind `function` to raise in every flagstab module that binds it;
    returns the number of bindings replaced."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{function.__name__} reached")

    rebound = 0
    for name, module in list(sys.modules.items()):
        if name == "flagstab" or name.startswith("flagstab."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, refuse)
                    rebound += 1
    return rebound


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
    # groebner itself and at least one importer
    assert _refuse_everywhere(monkeypatch, groebner.degree_echelon) >= 2
    for argv, (code, out, err) in zip(runs, expected):
        assert code == 0, argv
        assert run(capsys, *argv) == (code, out, err)


def test_flag_commands_compare_reduced_bases_without_ideal_equal(capsys, monkeypatch):
    """Flag configurations and the limit-join check hold reduced bases
    and compare them with ==: with ideal_equal rebound to raise in every
    flagstab module that binds it, these goldens print the same bytes."""
    runs = [
        ("flag-check",),
        ("flag-check", "--check"),
        ("flag-check-stage", "--check"),
        ("flag-limit", "--check"),
        ("flag-validate",),
        ("verify-limit-join",),
    ]
    argvs = []
    for stem, *options in runs:
        doc = GOLDEN / f"{stem}.in"
        argvs.append((parse_document(doc.read_text()).command, str(doc), *options))
    expected = [run(capsys, *argv) for argv in argvs]
    assert _refuse_everywhere(monkeypatch, groebner.ideal_equal) >= 2
    for argv, (code, out, err) in zip(argvs, expected):
        assert code == 0, argv
        assert run(capsys, *argv) == (code, out, err)


def test_flag_commands_read_the_series_without_hilbert_data(tmp_path, capsys, monkeypatch):
    """Flag validation and the stage checks read dimensions, degrees and
    Hilbert polynomials off `hilbert_series`, and smoothness off the
    Jacobian ideal's leads: with hilbert_data rebound to raise in every
    flagstab module that binds it, the flag goldens, the surface flag and
    the library reports on the flag corpus are unchanged."""
    surface = tmp_path / "surface.in"
    surface.write_text(SURFACE_FLAG_DOC)
    argvs = [
        ("flag-check", str(GOLDEN / "flag-check.in")),
        ("flag-check", str(GOLDEN / "flag-check.in"), "--check"),
        ("flag-check", str(GOLDEN / "flag-check-stage.in"), "--check"),
        ("flag-validate", str(GOLDEN / "flag-validate.in")),
        ("flag-validate", str(GOLDEN / "flag-validate-inconclusive.in")),
        ("flag-check", str(surface)),
        ("flag-validate", str(surface)),
    ]
    expected = [run(capsys, *argv) for argv in argvs]
    grading = GradedOnePS((1, -2), (2, 1))
    flags = [flag for _, _, flag in flag_corpus()]
    reports = [(validate_flag(f), check_flag_stability(f, grading, 5)) for f in flags]
    # the hilbert module and at least one importer
    assert _refuse_everywhere(monkeypatch, hilbert.hilbert_data) >= 2
    for argv, (code, out, err) in zip(argvs, expected):
        assert code in (0, 2), argv
        assert run(capsys, *argv) == (code, out, err)
    assert [(validate_flag(f), check_flag_stability(f, grading, 5)) for f in flags] == reports


def test_parser_builds_no_intermediate_polynomials(monkeypatch):
    """parse_document does its arithmetic on term dicts: with Polynomial
    arithmetic rebound to raise it gives the same documents."""
    texts = [CONIC_DOC, *_flag_corpus_docs()]
    expected = [parse_document(t) for t in texts]

    def refuse(*args, **kwargs):
        raise AssertionError("Polynomial arithmetic reached")

    for op in ("add", "sub", "neg", "mul", "pow", "radd", "rsub", "rmul"):
        monkeypatch.setattr(Polynomial, f"__{op}__", refuse)
    assert [parse_document(t) for t in texts] == expected


def test_main_reuses_one_argument_parser(tmp_path, capsys, monkeypatch):
    """main builds no ArgumentParser, and one call's options do not reach
    the next: after flat-limit --check, plain flat-limit prints what a
    fresh process prints."""
    path = tmp_path / "conic.txt"
    path.write_text(CONIC_DOC)
    src = str(Path(flagstab.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "flagstab.cli", "flat-limit", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("ArgumentParser built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert run(capsys, "flat-limit", str(path), "--check")[0] == 0
    assert run(capsys, "flat-limit", str(path)) == (0, fresh.stdout, "")


# -- the per-command Groebner-basis memo --------------------------------


SURFACE_FLAG_DOC = """\
ring x, y, v1, v2
command: flag-check
ideal: x*y*(x - y)*(x - 2*y) + v1^4 - 2*v2^4
points: (1,0); (0,1); (1,1); (1,2)
flag: n=2 a0=5
beta: 3, -2, -4
mults: 2, 1, 1
"""


@pytest.fixture
def computed(monkeypatch) -> list:
    """The (ideal, order) of every basis `buchberger` computes rather
    than finds in its memo, in order."""
    out = []
    compute = groebner._buchberger

    def counting(ideal, order):
        out.append((ideal, order))
        return compute(ideal, order)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    return out


class TestGroebnerMemo:
    @pytest.mark.parametrize("options", [(), ("--check",)])
    @pytest.mark.parametrize("source", ["golden", "surface"])
    def test_each_basis_computed_once_per_command(
        self, tmp_path, capsys, monkeypatch, computed, source, options
    ):
        path = GOLDEN / "flag-check.in"
        if source == "surface":
            path = tmp_path / "surface.in"
            path.write_text(SURFACE_FLAG_DOC)
        argv = ("flag-check", str(path), *options)
        expected = run(capsys, *argv)
        assert expected[0] == 0
        assert computed and len(set(computed)) == len(computed)
        # without the memo the same command computes more, and prints the same
        memoised = len(computed)
        computed.clear()
        monkeypatch.setattr(cli, "gb_memo", contextlib.nullcontext)
        assert run(capsys, *argv) == expected
        assert len(computed) > memoised

    @pytest.mark.parametrize(
        "command, bases", [("chow-weight", 1), ("flat-limit", 1), ("flag-check", 3)]
    )
    def test_bases_computed_per_golden_command(self, capsys, computed, command, bases):
        # chow-weight reads fixedness and the weight-space split off the
        # graded-lex basis of the ideal; flat-limit reads the limit's
        # graded-lex basis off the weight-order basis of the ideal;
        # flag-check reads the degree of X^0 off the basis of its Chow weight
        assert run(capsys, command, str(GOLDEN / f"{command}.in"))[0] == 0
        assert len(computed) == bases

    def test_memo_lasts_one_command(self, tmp_path, capsys, computed):
        path = tmp_path / "surface.in"
        path.write_text(SURFACE_FLAG_DOC)
        copy = tmp_path / "copy.in"
        copy.write_text(SURFACE_FLAG_DOC)
        assert run(capsys, "flag-check", str(path))[0] == 0
        once = list(computed)
        assert groebner._MEMO.get() is None
        computed.clear()
        assert run(capsys, "flag-check", str(path))[0] == 0
        assert computed == once
        computed.clear()
        assert run(capsys, "batch", str(path), str(copy))[0] == 0
        assert computed == once + once
        assert groebner._MEMO.get() is None

    def test_no_state_outside_a_block(self, computed):
        ideal = twisted_cubic()
        assert buchberger(ideal) == buchberger(ideal)
        assert len(computed) == 2
        with gb_memo():
            assert buchberger(ideal) == buchberger(ideal)
        assert len(computed) == 3
        assert groebner._MEMO.get() is None

    def test_reports_equal_with_and_without_memo(self):
        grading = GradedOnePS((1, -2), (2, 1))
        for _, _, flag in flag_corpus():
            plain = (check_flag_stability(flag, grading, 5), validate_flag(flag))
            with gb_memo():
                memoised = (check_flag_stability(flag, grading, 5), validate_flag(flag))
            assert memoised == plain
