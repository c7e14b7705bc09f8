"""Command-line front end: a small line-oriented input format, command
dispatch onto the library, and deterministic JSON/text output.

Exit codes: 0 computed (even when a verdict is negative), 1 input error,
2 inconclusive verdict, 3 a `--check` cross-check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import add

from . import __version__
from .flags import (
    FlagLimitMismatch,
    HyperplanarFlag,
    check_flag_stability,
    degree_admissible,
    flag_limit,
    flag_stage_weight,
    nrgit_stage_check,
    validate_flag,
)
from .geometry import Splitting, flat_limit, flat_limit_oracle, join_ideal, verify_limit_is_join
from .groebner import buchberger, canonical_generators, ideal_equal, restrict_to_variables
from .hilbert import (
    InternalLimitError,
    PointConfiguration,
    chow_points_stability,
    chow_weight_numeric,
    hilbert_data,
)
from .parabolic import GradedOnePS, stage_data
from .poly import (
    GRLEX,
    DimensionError,
    HomogeneousIdeal,
    OnePS,
    Polynomial,
    TermOrder,
    weight_order,
)

COMMANDS = (
    "gb",
    "flat-limit",
    "hilbert",
    "chow-weight",
    "chow-points",
    "join",
    "verify-limit-join",
    "grading",
    "flag-validate",
    "flag-limit",
    "flag-weight",
    "flag-check",
    "admissible",
)


# Caps on input size: past them an input is refused as an input error
# rather than left to exhaust memory in the parser or the computations.
MAX_VARIABLES = 32
MAX_EXPONENT = 64
MAX_DEGREE = 64  # total degree of a generator, of every product in it and --degree-bound
MAX_TERMS = 10_000  # terms of a product, bounded before it is expanded
MAX_POINT_WORK = 20_000  # point stability: subsets enumerated times points counted


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# -- polynomial expression parsing ------------------------------------


class _Tokens:
    def __init__(self, text: str, line: int, col0: int):
        self.text = text
        self.line = line
        self.col0 = col0  # column of text[0] in the source line
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.line, self.col0 + self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            self.error("expected a variable name")
        return self.text[start : self.pos]


def _terms_mul(a: dict, b: dict) -> dict:
    """Product of two term dicts, zero coefficients dropped."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _terms_degree(terms: dict) -> int:
    """Total degree of a term dict; -1 for the empty one, as for the zero polynomial."""
    return max(map(sum, terms), default=-1)


def parse_polynomial(text: str, names: list[str], line: int = 1, col0: int = 1) -> Polynomial:
    """Parse an infix expression with +, -, *, ^, parentheses and
    integer/rational coefficients over the declared variables.

    Intermediate values are term dicts {exponent tuple: int | Fraction}
    holding no zero coefficient, so their degree and term count are the
    final polynomial's; only the result is built as a `Polynomial`.
    """
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)
    one = (0,) * nvars
    toks = _Tokens(text, line, col0)

    def atom() -> dict:
        c = toks.peek()
        if c == "(":
            toks.take()
            inner = expr()
            if toks.peek() != ")":
                toks.error("expected ')'")
            toks.take()
            return inner
        if c.isdigit():
            num = toks.integer()
            if toks.peek() == "/":
                toks.take()
                den = toks.integer()
                if den == 0:
                    toks.error("zero denominator")
                num = Fraction(num, den)
            return {one: num} if num else {}
        if c.isalpha() or c == "_":
            name = toks.name()
            if name not in index:
                toks.error(f"undeclared variable '{name}'")
            exps = [0] * nvars
            exps[index[name]] = 1
            return {tuple(exps): 1}
        toks.error("expected a number, variable or '('")

    def check_size(degree: int, terms: int) -> None:
        if degree > MAX_DEGREE:
            toks.error(f"degree {degree} exceeds the cap of {MAX_DEGREE}")
        if terms > MAX_TERMS:
            toks.error(f"a product of more than {MAX_TERMS} terms")

    def factor() -> dict:
        sign = 1
        while toks.peek() == "-":
            toks.take()
            sign = -sign
        base = atom()
        if toks.peek() == "^":
            toks.take()
            e = toks.integer()
            if e > MAX_EXPONENT:
                toks.error(f"exponent {e} exceeds the cap of {MAX_EXPONENT}")
            check_size(_terms_degree(base) * e, comb(len(base) + e, e))
            power = {one: 1}
            while e:  # square and multiply
                if e & 1:
                    power = _terms_mul(power, base)
                e >>= 1
                if e:
                    base = _terms_mul(base, base)
            base = power
        return base if sign > 0 else {m: -c for m, c in base.items()}

    def term() -> dict:
        out = factor()
        while toks.peek() == "*":
            toks.take()
            f = factor()
            check_size(_terms_degree(out) + _terms_degree(f), len(out) * len(f))
            out = _terms_mul(out, f)
        return out

    def expr() -> dict:
        out = term()
        while True:
            c = toks.peek()
            if c == "+":
                sign = 1
            elif c == "-":
                sign = -1
            else:
                return out
            toks.take()
            for m, v in term().items():
                v = out.get(m, 0) + sign * v
                if v:
                    out[m] = v
                else:
                    del out[m]

    result = expr()
    if toks.peek():
        toks.error(f"unexpected character '{toks.peek()}'")
    return Polynomial(nvars, result)


# -- input documents ---------------------------------------------------


@dataclass
class InputDocument:
    names: list[str] = field(default_factory=list)
    command: str | None = None
    ideal_gens: list[Polynomial] = field(default_factory=list)
    weights: list[int] | None = None
    usplit: list[str] | None = None
    ab: tuple[int, int] | None = None
    points: list[tuple[Fraction, ...]] | None = None
    flag_params: dict[str, int] = field(default_factory=dict)
    beta: list[int] | None = None
    mults: list[int] | None = None
    stage: int | None = None


def _ints(body: str, line: int) -> list[int]:
    out = []
    for part in body.split(","):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise ParseError(f"malformed integer '{part}'", line, 1) from None
    return out


def _fraction(text: str, line: int) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed rational '{text}'", line, 1) from None


def parse_document(text: str) -> InputDocument:
    doc = InputDocument()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("ring"):
            body = stripped[4:].lstrip(":").strip()
            names = [n.strip() for n in body.split(",") if n.strip()]
            if not names:
                raise ParseError("empty ring declaration", lineno, 1)
            if len(set(names)) != len(names):
                raise ParseError("repeated variable name", lineno, 1)
            if len(names) > MAX_VARIABLES:
                raise ParseError(f"more than {MAX_VARIABLES} variables", lineno, 1)
            doc.names = names
            continue
        if ":" not in stripped:
            raise ParseError(f"expected 'key: value', got '{stripped}'", lineno, 1)
        key, body = (s.strip() for s in stripped.split(":", 1))
        if key == "command":
            if body not in COMMANDS:
                raise ParseError(f"unknown command '{body}'", lineno, 1)
            doc.command = body
        elif key == "ideal":
            if not doc.names:
                raise ParseError("ideal section before ring declaration", lineno, 1)
            col = raw.index(body) + 1 if body else 1
            for gen_text in body.split(";"):
                if gen_text.strip():
                    doc.ideal_gens.append(
                        parse_polynomial(gen_text, doc.names, lineno, col)
                    )
                col += len(gen_text) + 1
        elif key == "weights":
            doc.weights = _ints(body, lineno)
        elif key == "usplit":
            doc.usplit = [n.strip() for n in body.split(",") if n.strip()]
        elif key == "ab":
            vals = _ints(body, lineno)
            if len(vals) != 2:
                raise ParseError("ab needs exactly two integers", lineno, 1)
            doc.ab = (vals[0], vals[1])
        elif key == "points":
            pts = []
            for chunk in body.split(";"):
                chunk = chunk.strip().strip("()")
                if not chunk:
                    continue
                pts.append(
                    tuple(_fraction(c.strip(), lineno) for c in chunk.split(","))
                )
            if not pts:
                raise ParseError("empty point list", lineno, 1)
            n, k = len(pts), max(map(len, pts))
            work = n * sum(comb(n, j) for j in range(1, min(n, k - 1) + 1))
            if work > MAX_POINT_WORK:
                raise ParseError(
                    f"{n} points with {k} coordinates: point stability work {work} "
                    f"exceeds the cap of {MAX_POINT_WORK}",
                    lineno,
                    1,
                )
            doc.points = pts
        elif key == "flag":
            for piece in body.split():
                if "=" not in piece:
                    raise ParseError(f"flag parameter '{piece}' needs '='", lineno, 1)
                k, v = piece.split("=", 1)
                if k not in ("n", "d", "a0", "dimv"):
                    raise ParseError(f"unknown flag parameter '{k}'", lineno, 1)
                try:
                    doc.flag_params[k] = int(v)
                except ValueError:
                    raise ParseError(f"malformed integer '{v}'", lineno, 1) from None
        elif key == "beta":
            doc.beta = _ints(body, lineno)
        elif key == "mults":
            doc.mults = _ints(body, lineno)
        elif key == "stage":
            doc.stage = _ints(body, lineno)[0]
        else:
            raise ParseError(f"unknown section '{key}'", lineno, 1)
    return doc


# -- serialization -----------------------------------------------------


def fmt_q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _poly_strings(ideal: HomogeneousIdeal, names, order: TermOrder) -> list[str]:
    gens = sorted(
        ideal.generators, key=lambda g: (g.degree(), order.key(g.leading(order)[0]))
    )
    return [g.to_str(names, order) for g in gens]


def _doc_order(doc: InputDocument) -> TermOrder:
    if doc.weights is not None:
        return weight_order(OnePS(tuple(doc.weights)))
    return GRLEX


def render(out: dict, mode: str) -> str:
    if mode == "json":
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    lines: list[str] = []

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                lines.append(f"{prefix} = {', '.join(str(v) for v in value)}")
            else:
                for i, v in enumerate(value):
                    walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix} = {value}")

    walk("", out)
    return "\n".join(lines) + "\n"


# -- command implementations ------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _ideal(doc: InputDocument) -> HomogeneousIdeal:
    _require(bool(doc.names), "a ring declaration is required")
    _require(bool(doc.ideal_gens), "an ideal section is required")
    return HomogeneousIdeal(len(doc.names), doc.ideal_gens)


def _weights(doc: InputDocument) -> OnePS:
    _require(doc.weights is not None, "a weights section is required")
    _require(
        len(doc.weights) == len(doc.names),
        f"{len(doc.weights)} weights for {len(doc.names)} variables",
    )
    return OnePS(tuple(doc.weights))


def _splitting(doc: InputDocument) -> Splitting:
    _require(doc.usplit is not None, "a usplit section is required")
    index = {n: i for i, n in enumerate(doc.names)}
    for n in doc.usplit:
        _require(n in index, f"undeclared variable '{n}' in usplit")
    u = tuple(sorted(index[n] for n in doc.usplit))
    w = tuple(i for i in range(len(doc.names)) if i not in u)
    return Splitting(len(doc.names), u, w)


def _grading(doc: InputDocument) -> GradedOnePS:
    _require(doc.beta is not None and doc.mults is not None, "beta and mults required")
    return GradedOnePS(tuple(doc.beta), tuple(doc.mults))


def _flag(doc: InputDocument) -> HyperplanarFlag:
    _require("n" in doc.flag_params, "flag parameter n is required")
    n = doc.flag_params["n"]
    pts = None
    if doc.points is not None:
        pts = PointConfiguration.from_coords(doc.points)
    return HyperplanarFlag(n, len(doc.names), _ideal(doc), pts)


def _stage(doc: InputDocument, n: int) -> int:
    _require(doc.stage is not None, "a stage section is required")
    _require(1 <= doc.stage <= n, f"stage must be between 1 and {n}")
    return doc.stage


def run_command(command: str, doc: InputDocument, args) -> tuple[dict, int]:
    """Execute one command; returns (results, exit_code)."""
    order = _doc_order(doc)
    names = doc.names
    code = 0
    if command == "gb":
        gb = buchberger(_ideal(doc), order)
        results = {"basis": [g.to_str(names, order) for g in gb.basis]}
    elif command == "flat-limit":
        ideal, lam = _ideal(doc), _weights(doc)
        limit = flat_limit(ideal, lam)
        if args.check:
            bound = args.degree_bound or max(6, ideal.max_generator_degree())
            oracle = flat_limit_oracle(ideal, lam, bound)
            if not ideal_equal(limit, oracle):
                raise InternalLimitError("flat limit disagrees with the degreewise oracle")
        results = {"generators": _poly_strings(limit, names, order)}
    elif command == "hilbert":
        hd = hilbert_data(_ideal(doc))
        results = {
            "dimension": hd.dimension,
            "degree": hd.degree,
            "stabilization_degree": hd.stabilization_degree,
            "hilbert_polynomial": [fmt_q(c) for c in hd.coefficients],
            "hilbert_function": {str(m): v for m, v in hd.hilbert_function.items()},
        }
    elif command == "chow-weight":
        results = {"chow_weight": fmt_q(chow_weight_numeric(_ideal(doc), _weights(doc)))}
    elif command == "chow-points":
        _require(doc.points is not None, "a points section is required")
        verdict = chow_points_stability(PointConfiguration.from_coords(doc.points))
        results = {
            "verdict": verdict.verdict,
            "witness_indices": list(verdict.witness_indices),
            "witness_dim": verdict.witness_dim,
            "witness_count": verdict.witness_count,
            "margin": fmt_q(verdict.margin),
        }
    elif command == "join":
        split = _splitting(doc)
        ideal = _ideal(doc)
        for g in ideal.generators:
            _require(
                g.variables_used() <= set(split.w_vars),
                "join generators must only use W-variables",
            )
        y = restrict_to_variables(ideal, split.w_vars)
        joined = canonical_generators(join_ideal(y, split))
        results = {"generators": _poly_strings(joined, names, order)}
    elif command == "verify-limit-join":
        _require(doc.ab is not None, "an ab section is required")
        a, b = doc.ab
        report = verify_limit_is_join(_ideal(doc), _splitting(doc), a, b)
        results = {
            "ok": report.ok,
            "dominant": report.dominant,
            "reason": report.reason,
            "limit": _poly_strings(report.limit, names, order) if report.limit else None,
            "join": _poly_strings(report.join, names, order) if report.join else None,
        }
    elif command == "grading":
        g = _grading(doc)
        stages = [doc.stage] if doc.stage is not None else list(range(1, g.ell))
        per_stage = {}
        for i in stages:
            sd = stage_data(g, i)
            per_stage[str(i)] = {
                "beta_le": fmt_q(sd.beta_le),
                "beta_gt": fmt_q(sd.beta_gt),
                "scale": sd.scale,
                "lambda_bracket": list(sd.lambda_bracket.weights),
                "lambda_paren": list(sd.lambda_paren.weights),
            }
        results = {"expanded": list(g.expand()), "stages": per_stage}
    elif command == "admissible":
        for k in ("n", "d", "dimv"):
            _require(k in doc.flag_params, f"flag parameter {k} is required")
        adm = degree_admissible(
            doc.flag_params["n"], doc.flag_params["d"], doc.flag_params["dimv"]
        )
        results = {
            "admissible": adm.ok,
            "reasons": list(adm.reasons),
            "excluded_degrees": [fmt_q(e) for e in adm.excluded],
        }
    elif command == "flag-validate":
        report = validate_flag(_flag(doc))
        results = {
            "degree": report.degree,
            "dimensions_ok": report.dimensions_ok,
            "nondegenerate": report.nondegenerate,
            "smooth": {str(i): v for i, v in report.smooth.items()},
            "points_reduced": report.points_reduced,
            "point_stability": report.point_stability,
            "connectedness": report.connectedness,
            "hilbert_type": [[fmt_q(c) for c in hp] for hp in report.hilbert_type],
            "ok": report.ok,
        }
        if report.ok is None:
            code = 2
    elif command == "flag-limit":
        flag = _flag(doc)
        i = _stage(doc, flag.n)
        g = _grading(doc) if doc.beta is not None else None
        limit = flag_limit(flag, i, g, check=args.check)
        results = {
            "strata": [_poly_strings(s, names, order) for s in limit.strata]
        }
    elif command == "flag-weight":
        for k in ("n", "d", "a0"):
            _require(k in doc.flag_params, f"flag parameter {k} is required")
        g = _grading(doc)
        i = _stage(doc, doc.flag_params["n"])
        w = flag_stage_weight(
            doc.flag_params["n"], doc.flag_params["d"], g, i, doc.flag_params["a0"]
        )
        results = {"weight": fmt_q(w), "scale": stage_data(g, i).scale}
    elif command == "flag-check":
        flag = _flag(doc)
        g = _grading(doc) if doc.beta is not None else None
        a0 = doc.flag_params.get("a0")
        if doc.stage is not None:
            checks = [nrgit_stage_check(flag, doc.stage, g, a0, check=args.check)]
            verdict = (
                "stable"
                if checks[0].passed
                else ("inconclusive" if checks[0].passed is None else "unstable")
            )
        else:
            report = check_flag_stability(flag, g, a0, check=args.check)
            checks, verdict = list(report.stages), report.verdict
        results = {
            "verdict": verdict,
            "stages": [
                {
                    "stage": c.stage,
                    "weight": fmt_q(c.weight),
                    "expected_weight": fmt_q(c.expected_weight),
                    "weight_matches_family_constant": c.weight_matches_family_constant,
                    "lie_stabilizer_dim": c.lie_stabilizer_dim,
                    "point_stability": c.point_stability,
                    "sweep_excluded": c.sweep_excluded,
                    "passed": c.passed,
                }
                for c in checks
            ],
        }
        if verdict == "inconclusive":
            code = 2
    else:
        raise ValueError(f"unknown command '{command}'")
    return results, code


def _echo(doc: InputDocument) -> dict:
    order = _doc_order(doc)
    echo: dict = {"ring": list(doc.names)}
    if doc.ideal_gens:
        echo["ideal"] = [g.to_str(doc.names, order) for g in doc.ideal_gens]
    if doc.weights is not None:
        echo["weights"] = list(doc.weights)
    if doc.usplit is not None:
        echo["usplit"] = list(doc.usplit)
    if doc.ab is not None:
        echo["ab"] = list(doc.ab)
    if doc.points is not None:
        echo["points"] = [[fmt_q(c) for c in p] for p in doc.points]
    if doc.flag_params:
        echo["flag"] = dict(sorted(doc.flag_params.items()))
    if doc.beta is not None:
        echo["beta"] = list(doc.beta)
    if doc.mults is not None:
        echo["mults"] = list(doc.mults)
    if doc.stage is not None:
        echo["stage"] = doc.stage
    return echo


def run_file(command: str | None, path: str, args) -> tuple[dict, int]:
    with open(path, encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    command = command or doc.command
    if command is None:
        raise ValueError(f"{path}: no command given and none declared in the document")
    results, code = run_command(command, doc, args)
    out = {
        "command": command,
        "inputs": _echo(doc),
        "results": results,
        "version": __version__,
    }
    return out, code


# Built once per process: `main` only calls `parse_args`, which leaves
# the parser unchanged, so one document's options never reach the next.
_PARSER = argparse.ArgumentParser(
    prog="flagstab",
    description="Exact flat limits, Chow weights and staged stability checks.",
)
_PARSER.add_argument("command", choices=COMMANDS + ("batch",))
_PARSER.add_argument("files", nargs="+", metavar="FILE")
_PARSER.add_argument("--check", action="store_true", help="enable cross-checks")
_PARSER.add_argument("--degree-bound", type=int, default=None)
_PARSER.add_argument("--output", choices=("json", "text"), default="json")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        if args.degree_bound is not None and args.degree_bound > MAX_DEGREE:
            raise ValueError(
                f"--degree-bound {args.degree_bound} exceeds the cap of {MAX_DEGREE}"
            )
        if args.command == "batch":
            outputs, code = [], 0
            for path in args.files:
                out, c = run_file(None, path, args)
                out["file"] = path
                outputs.append(out)
                code = max(code, c)
            sys.stdout.write(render({"runs": outputs, "version": __version__}, args.output))
            return code
        if len(args.files) != 1:
            raise ValueError("exactly one input file expected (use batch for several)")
        out, code = run_file(args.command, args.files[0], args)
        sys.stdout.write(render(out, args.output))
        return code
    except (InternalLimitError, FlagLimitMismatch) as exc:
        print(f"flagstab: cross-check failed: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, DimensionError, OSError) as exc:
        print(f"flagstab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
