"""Command-line front end: a small line-oriented input format, a table
mapping each command onto the library, and deterministic JSON/text output.

Exit codes: 0 computed (even when a verdict is negative), 1 input error,
2 inconclusive verdict, 3 a `--check` cross-check failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb
from operator import add

from . import __version__
from .flags import (
    FlagLimitMismatch,
    FlagValidationReport,
    HyperplanarFlag,
    StabilityReport,
    check_flag_stability,
    degree_admissible,
    flag_limit,
    flag_stage_weight,
    nrgit_stage_check,
    validate_flag,
)
from .geometry import (
    JoinCheckReport,
    Splitting,
    flat_limit,
    flat_limit_oracle,
    join_ideal,
    verify_limit_is_join,
)
from .groebner import (
    buchberger,
    canonical_generators,
    gb_memo,
    ideal_equal,
    restrict_to_variables,
)
from .hilbert import (
    InternalLimitError,
    PointConfiguration,
    StabilityVerdict,
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
        self.start = 0  # where the last integer or name began

    def error(self, message: str, pos: int | None = None):
        """Raise at `pos` in the text, by default the current position."""
        raise ParseError(message, self.line, self.col0 + (self.pos if pos is None else pos))

    def peek(self) -> str:
        """Skip white space; the next character, or "" at the end."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < len(text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def integer(self) -> int:
        self.peek()
        start = self.start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def name(self) -> str:
        self.peek()
        start = self.start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            self.error("expected a variable name")
        return self.text[start : self.pos]


def _terms_mul(a: dict, b: dict) -> dict:
    """Product of two term dicts, without zero coefficients."""
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
                    toks.error("zero denominator", toks.start)
                num = Fraction(num, den)
            return {one: num} if num else {}
        if c.isalpha() or c == "_":
            name = toks.name()
            if name not in index:
                toks.error(f"undeclared variable '{name}'", toks.start)
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
                toks.error(f"exponent {e} exceeds the cap of {MAX_EXPONENT}", toks.start)
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
            after = raw[raw.index(":") + 1 :]
            col = len(raw) - len(after.lstrip()) + 1  # the body's first column
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
                if k in doc.flag_params:
                    raise ParseError(f"repeated flag parameter '{k}'", lineno, 1)
                try:
                    doc.flag_params[k] = int(v)
                except ValueError:
                    raise ParseError(f"malformed integer '{v}'", lineno, 1) from None
                if k in ("n", "dimv") and doc.flag_params[k] > MAX_VARIABLES:
                    raise ParseError(
                        f"flag parameter {k} = {v} exceeds the cap of {MAX_VARIABLES}", lineno, 1
                    )
        elif key == "beta":
            doc.beta = _ints(body, lineno)
        elif key == "mults":
            doc.mults = _ints(body, lineno)
        elif key == "stage":
            vals = _ints(body, lineno)
            if len(vals) != 1:
                raise ParseError("stage needs exactly one integer", lineno, 1)
            doc.stage = vals[0]
        else:
            raise ParseError(f"unknown section '{key}'", lineno, 1)
    return doc


# -- serialization -----------------------------------------------------


def fmt_q(x) -> str:
    """An int or `Fraction` as "p/q", or "p" when q = 1."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _plain(value, names: list[str], order: TermOrder):
    """`value` in JSON types: a Fraction as `fmt_q`, a polynomial as its
    string, a tuple as a list, dict keys as strings, an ideal as its
    generators sorted under `order` and a dataclass as the dict of its
    fields."""
    if value is None or isinstance(value, (str, int)):  # most values; bool is an int
        return value
    if isinstance(value, Fraction):
        return fmt_q(value)
    if isinstance(value, Polynomial):
        return value.to_str(names, order)
    if isinstance(value, dict):
        return {str(k): _plain(v, names, order) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, names, order) for v in value]
    if isinstance(value, HomogeneousIdeal):
        gens = sorted(value.generators, key=lambda g: max(map(order.key, g.ints)))
        return _plain(gens, names, order)
    return _plain({f.name: getattr(value, f.name) for f in fields(value)}, names, order)


def _doc_order(doc: InputDocument) -> TermOrder:
    if doc.weights is not None:
        return weight_order(OnePS(tuple(doc.weights)))
    return GRLEX


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for the JSON types
    `_plain` gives, with strings through the C encoder; with an indent,
    `json.dumps` runs the pure-Python one."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value))
        return "{" + inner + sep.join(items) + indent + "}"
    if not value:
        return "[]"
    return "[" + inner + sep.join(_json(v, inner) for v in value) + indent + "]"


def render(out: dict, mode: str) -> str:
    if mode == "json":
        return _json(out) + "\n"
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


# -- commands ------------------------------------------------------------
#
# Each handler takes a document holding every section its command needs
# and returns the results in any form `_plain` accepts.


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _ideal(doc: InputDocument) -> HomogeneousIdeal:
    return HomogeneousIdeal(len(doc.names), doc.ideal_gens)


def _weights(doc: InputDocument) -> OnePS:
    _require(
        len(doc.weights) == len(doc.names),
        f"{len(doc.weights)} weights for {len(doc.names)} variables",
    )
    return OnePS(tuple(doc.weights))


def _splitting(doc: InputDocument) -> Splitting:
    index = {n: i for i, n in enumerate(doc.names)}
    for n in doc.usplit:
        _require(n in index, f"undeclared variable '{n}' in usplit")
    u = tuple(sorted(index[n] for n in doc.usplit))
    w = tuple(i for i in range(len(doc.names)) if i not in u)
    return Splitting(len(doc.names), u, w)


def _grading(doc: InputDocument) -> GradedOnePS | None:
    """The document's graded 1PS; None where it has no `beta:` section."""
    return None if doc.beta is None else GradedOnePS(tuple(doc.beta), tuple(doc.mults))


def _flag(doc: InputDocument) -> HyperplanarFlag:
    pts = None
    if doc.points is not None:
        pts = PointConfiguration.from_coords(doc.points)
    return HyperplanarFlag(doc.flag_params["n"], len(doc.names), _ideal(doc), pts)


def _stage(doc: InputDocument, n: int) -> int:
    _require(1 <= doc.stage <= n, f"stage must be between 1 and {n}")
    return doc.stage


def _gb(doc: InputDocument, args) -> dict:
    return {"basis": buchberger(_ideal(doc), _doc_order(doc)).basis}


def _flat_limit(doc: InputDocument, args) -> dict:
    ideal, lam = _ideal(doc), _weights(doc)
    limit = flat_limit(ideal, lam)
    if args.check:
        bound = args.degree_bound
        if bound is None:
            bound = max(6, ideal.max_generator_degree())
        if not ideal_equal(limit, flat_limit_oracle(ideal, lam, bound)):
            raise InternalLimitError("flat limit disagrees with the degreewise oracle")
    return {"generators": limit}


def _hilbert(doc: InputDocument, args) -> dict:
    hd = hilbert_data(_ideal(doc))
    return {
        "dimension": hd.dimension,
        "degree": hd.degree,
        "stabilization_degree": hd.stabilization_degree,
        "hilbert_polynomial": hd.coefficients,
        "hilbert_function": hd.hilbert_function,
    }


def _chow_weight(doc: InputDocument, args) -> dict:
    return {"chow_weight": chow_weight_numeric(_ideal(doc), _weights(doc))}


def _chow_points(doc: InputDocument, args) -> StabilityVerdict:
    return chow_points_stability(PointConfiguration.from_coords(doc.points))


def _join(doc: InputDocument, args) -> dict:
    split, ideal = _splitting(doc), _ideal(doc)
    for g in ideal.generators:
        _require(
            g.variables_used() <= set(split.w_vars),
            "join generators must only use W-variables",
        )
    y = restrict_to_variables(ideal, split.w_vars)
    return {"generators": canonical_generators(join_ideal(y, split))}


def _verify_limit_join(doc: InputDocument, args) -> JoinCheckReport:
    return verify_limit_is_join(_ideal(doc), _splitting(doc), *doc.ab)


def _grading_stages(doc: InputDocument, args) -> dict:
    g = _grading(doc)
    stages = [doc.stage] if doc.stage is not None else range(1, g.ell)
    per_stage = {}
    for i in stages:
        sd = stage_data(g, i)
        per_stage[i] = {
            "beta_le": sd.beta_le,
            "beta_gt": sd.beta_gt,
            "scale": sd.scale,
            "lambda_bracket": sd.lambda_bracket.weights,
            "lambda_paren": sd.lambda_paren.weights,
        }
    return {"expanded": g.expand(), "stages": per_stage}


def _admissible(doc: InputDocument, args) -> dict:
    p = doc.flag_params
    adm = degree_admissible(p["n"], p["d"], p["dimv"])
    return {"admissible": adm.ok, "reasons": adm.reasons, "excluded_degrees": adm.excluded}


def _flag_validate(doc: InputDocument, args) -> FlagValidationReport:
    return validate_flag(_flag(doc))


def _flag_limit(doc: InputDocument, args) -> dict:
    flag = _flag(doc)
    limit = flag_limit(flag, _stage(doc, flag.n), _grading(doc), check=args.check)
    return {"strata": limit.strata}


def _flag_weight(doc: InputDocument, args) -> dict:
    p, g = doc.flag_params, _grading(doc)
    i = _stage(doc, p["n"])
    weight = flag_stage_weight(p["n"], p["d"], g, i, p["a0"])
    return {"weight": weight, "scale": stage_data(g, i).scale}


def _flag_check(doc: InputDocument, args) -> StabilityReport:
    flag, a0 = _flag(doc), doc.flag_params.get("a0")
    if doc.stage is None:
        return check_flag_stability(flag, _grading(doc), a0, check=args.check)
    i = _stage(doc, flag.n)
    return StabilityReport.of((nrgit_stage_check(flag, i, _grading(doc), a0, check=args.check),))


# command -> (the sections it needs, its handler). "mults if beta" needs
# `mults:` only in a document with `beta:`: flag-limit and flag-check read
# a grading where one is given, and a grading takes both sections.
COMMANDS = {
    "gb": (("ring", "ideal"), _gb),
    "flat-limit": (("ring", "ideal", "weights"), _flat_limit),
    "hilbert": (("ring", "ideal"), _hilbert),
    "chow-weight": (("ring", "ideal", "weights"), _chow_weight),
    "chow-points": (("points",), _chow_points),
    "join": (("ring", "ideal", "usplit"), _join),
    "verify-limit-join": (("ring", "ideal", "usplit", "ab"), _verify_limit_join),
    "grading": (("beta", "mults"), _grading_stages),
    "flag-validate": (("ring", "ideal", "flag: n="), _flag_validate),
    "flag-limit": (("ring", "ideal", "flag: n=", "stage", "mults if beta"), _flag_limit),
    "flag-weight": (
        ("flag: n=", "flag: d=", "flag: a0=", "beta", "mults", "stage"),
        _flag_weight,
    ),
    "flag-check": (("ring", "ideal", "flag: n=", "mults if beta"), _flag_check),
    "admissible": (("flag: n=", "flag: d=", "flag: dimv="), _admissible),
}

# InputDocument fields whose input key has another name.
_SECTION_KEYS = {"names": "ring", "ideal_gens": "ideal", "flag_params": "flag"}


def _sections(doc: InputDocument) -> dict:
    """{input key: value} for every section the document sets, that is,
    every field but `command` that differs from its default."""
    blank = vars(InputDocument())
    return {
        _SECTION_KEYS.get(name, name): value
        for name, value in vars(doc).items()
        if name != "command" and value != blank[name]
    }


def run_command(command: str, doc: InputDocument, args) -> tuple[dict, int]:
    """Execute one command; returns (results, exit_code). Exit code 2
    marks an inconclusive answer: a `verdict` of "inconclusive" or an
    `ok` of None."""
    needs, handler = COMMANDS[command]
    present = {*_sections(doc), *(f"flag: {k}=" for k in doc.flag_params)}
    missing = [
        need
        for need, _, given in (n.partition(" if ") for n in needs)
        if need not in present and (not given or given in present)
    ]
    if missing:
        raise ValueError(f"command '{command}' is missing " + ", ".join(f"'{s}'" for s in missing))
    with gb_memo():  # one command's Groebner bases, computed once each
        value = handler(doc, args)
    results = _plain(value, doc.names, _doc_order(doc))
    inconclusive = results.get("verdict") == "inconclusive" or results.get("ok", False) is None
    return results, 2 if inconclusive else 0


def _echo(doc: InputDocument) -> dict:
    """The ring and every other section the document sets."""
    return {"ring": list(doc.names), **_plain(_sections(doc), doc.names, _doc_order(doc))}


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
_PARSER.add_argument("command", choices=(*COMMANDS, "batch"))
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
