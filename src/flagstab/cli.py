"""Command-line front end: a small line-oriented input format, a table
mapping each command onto the library, and deterministic JSON/text output.

Exit codes: 0 computed (even when a verdict is negative), 1 input error,
2 inconclusive verdict, 3 a `--check` cross-check failed.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb

from . import __version__
from .flags import (
    FlagConfiguration,
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
    LimitMismatch,
    Splitting,
    flat_limit,
    flat_limit_oracle,
    verify_limit_is_join,
)
from .groebner import buchberger, canonical_generators, gb_memo, ideal_equal
from .hilbert import (
    HilbertData,
    PointConfiguration,
    StabilityVerdict,
    chow_points_stability,
    chow_weight_numeric,
    hilbert_data,
    hilbert_series,
)
from .parabolic import GradedOnePS, stage_data
from .poly import (
    HomogeneousIdeal,
    OnePS,
    Polynomial,
    terms_add,
    terms_degree,
    terms_mul,
    terms_pow,
)

# Caps on input size: past them an input is refused as an input error
# rather than left to exhaust memory in the parser or the computations.
MAX_VARIABLES = 32
MAX_EXPONENT = 64
MAX_NESTING = 64  # of parentheses: each level is four frames of the recursive parser
MAX_DEGREE = 64  # total degree of a generator and of every product in it
MAX_TERMS = 10_000  # terms of a product, bounded before it is expanded
MAX_POINT_WORK = 20_000  # point stability: subsets enumerated times points counted
MAX_DIGITS = 4300  # of an integer: CPython's default limit on `int()` of a string


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# -- tokens and polynomial expressions ---------------------------------
#
# A token is a run of decimal digits, a word (letters, digits and "_") or
# any other character but white space, which only separates tokens. A name
# is a word that starts with a letter or "_" (`re` has no class of letters
# alone, and "²" is a digit but not a decimal one). An integer is one
# digit token, after an optional sign in a section's value.
_TOKEN = re.compile(r"(\d+)|(\w+)|(\S)")


def _is_name(text: str) -> bool:
    """Whether `text` is one name token."""
    token = _TOKEN.fullmatch(text)
    return bool(token and token[2]) and (text[0].isalpha() or text[0] == "_")


def _integer(text: str, line: int, malformed: str) -> int:
    """`text` as an integer; where it is none, a `ParseError` saying `malformed`."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    token = _TOKEN.fullmatch(digits)
    if not (token and token[1]):
        raise ParseError(malformed, line, 1)
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"an integer of more than {MAX_DIGITS} digits", line, 1)
    return int(text)


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
    # (digits, word, other character), one of them set; then the end of the text
    tokens = _TOKEN.findall(text) + [("", "", "")]
    at = 0  # the next token
    depth = 0  # of the parentheses open at the next token

    def error(message: str, token: int | None = None, end: bool = False):
        """Raise at the start of a token, by default the next one, or with `end` past it."""
        spans = [t.span() for t in _TOKEN.finditer(text)] + [(len(text), len(text))]
        raise ParseError(message, line, col0 + spans[at if token is None else token][end])

    def take(char: str) -> bool:
        """Step past the next token if it is `char`."""
        nonlocal at
        hit = tokens[at][2] == char
        at += hit
        return hit

    def integer() -> int:
        nonlocal at
        digits = tokens[at][0]
        if not digits:
            error("expected an integer")
        if len(digits) > MAX_DIGITS:
            error(f"an integer of more than {MAX_DIGITS} digits")
        at += 1
        return int(digits)

    def atom() -> dict:
        nonlocal at, depth
        if take("("):
            if depth == MAX_NESTING:
                error(f"parentheses nested deeper than {MAX_NESTING}", at - 1)
            depth += 1
            inner = expr()
            if not take(")"):
                error("expected ')'")
            depth -= 1
            return inner
        digits, word, _ = tokens[at]
        if digits:
            num = integer()
            if take("/"):
                den = integer()
                if den == 0:
                    error("zero denominator", at - 1)
                num = Fraction(num, den)
            return {one: num} if num else {}
        if word[:1].isalpha() or word[:1] == "_":
            if word not in index:
                error(f"undeclared variable '{word}'")
            at += 1
            exps = [0] * nvars
            exps[index[word]] = 1
            return {tuple(exps): 1}
        error("expected a number, variable or '('")

    def check_size(degree: int, terms: int) -> None:
        """Raise when the product of the factor last read breaks a cap: just
        past the factor's exponent where it has one, else at the next token."""
        past = tokens[at - 2][2] == "^"
        if degree > MAX_DEGREE:
            error(f"degree {degree} exceeds the cap of {MAX_DEGREE}", at - past, past)
        if terms > MAX_TERMS:
            error(f"a product of more than {MAX_TERMS} terms", at - past, past)

    def factor() -> dict:
        sign = 1
        while take("-"):
            sign = -sign
        base = atom()
        if take("^"):
            e = integer()
            if e > MAX_EXPONENT:
                error(f"exponent {e} exceeds the cap of {MAX_EXPONENT}", at - 1)
            check_size(terms_degree(base) * e, comb(len(base) + e, e))
            base = terms_pow(base, e, nvars)
        return base if sign > 0 else {m: -c for m, c in base.items()}

    def term() -> dict:
        out = factor()
        while take("*"):
            f = factor()
            check_size(terms_degree(out) + terms_degree(f), len(out) * len(f))
            out = terms_mul(out, f)
        return out

    def expr() -> dict:
        out = term()
        while (op := tokens[at][2]) in ("+", "-"):
            take(op)
            terms_add(out, term(), 1 if op == "+" else -1)
        return out

    result = expr()
    if at < len(tokens) - 1:
        error(f"unexpected character '{''.join(tokens[at])[0]}'")
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
    parts = [part.strip() for part in body.split(",")]
    return [_integer(part, line, f"malformed integer '{part}'") for part in parts]


def _fraction(text: str, line: int) -> Fraction:
    """A rational "p" or "p/q", white space allowed around the "/"."""
    malformed = f"malformed rational '{text}'"
    parts = [_integer(part.strip(), line, malformed) for part in text.split("/")]
    if len(parts) > 2 or 0 in parts[1:]:
        raise ParseError(malformed, line, 1)
    return Fraction(*parts)


def parse_document(text: str) -> InputDocument:
    """The document's sections. Each appears at most once, but `ideal:`
    and `flag:` lines accumulate."""
    doc = InputDocument()
    seen = set()  # the sections read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.partition(":")[0].split()[:1] == ["ring"]:  # the first word is "ring"
            key, body = "ring", stripped[4:].lstrip().removeprefix(":")
        elif ":" not in stripped:
            raise ParseError(f"expected 'key: value', got '{stripped}'", lineno, 1)
        else:
            key, body = (s.strip() for s in stripped.split(":", 1))
        if key in seen and key not in ("ideal", "flag"):
            raise ParseError(f"repeated section '{key}'", lineno, 1)
        seen.add(key)
        if key == "ring":
            names = [n.strip() for n in body.split(",") if n.strip()]
            if not names:
                raise ParseError("empty ring declaration", lineno, 1)
            for n in names:
                if not _is_name(n):
                    raise ParseError(f"malformed variable name '{n}'", lineno, 1)
            if len(set(names)) != len(names):
                raise ParseError("repeated variable name", lineno, 1)
            if len(names) > MAX_VARIABLES:
                raise ParseError(f"more than {MAX_VARIABLES} variables", lineno, 1)
            doc.names = names
        elif key == "command":
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
                    g = parse_polynomial(gen_text, doc.names, lineno, col)
                    if not g.is_homogeneous:
                        start = col + len(gen_text) - len(gen_text.lstrip())
                        message = f"non-homogeneous generator '{gen_text.strip()}'"
                        raise ParseError(message, lineno, start)
                    doc.ideal_gens.append(g)
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
                doc.flag_params[k] = _integer(v, lineno, f"malformed integer '{v}'")
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


def _plain(value, names: list[str], order: OnePS):
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


def _doc_order(doc: InputDocument) -> OnePS:
    return OnePS(tuple(doc.weights or ()))  # GRLEX without a `weights:` section


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
    _require(len(set(doc.usplit)) == len(doc.usplit), "repeated variable name in usplit")
    u = tuple(sorted(index[n] for n in doc.usplit))
    w = tuple(i for i in range(len(doc.names)) if i not in u)
    return Splitting(len(doc.names), u, w)


def _grading(doc: InputDocument) -> GradedOnePS | None:
    """The document's graded 1PS; None where it has no `beta:` section."""
    if doc.beta is None:
        return None
    g = GradedOnePS(tuple(doc.beta), tuple(doc.mults))
    _require(
        g.size <= MAX_VARIABLES, f"grading dimension {g.size} exceeds the cap of {MAX_VARIABLES}"
    )
    return g


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
        # The oracle up to the top generator degree shows limit <= in(I);
        # a Groebner degeneration is flat, so in(I) has the Hilbert series
        # of I, and an equal series of the limit makes the two equal.
        bound = max(limit.max_generator_degree(), ideal.max_generator_degree())
        if not ideal_equal(limit, flat_limit_oracle(ideal, lam, bound)):
            raise LimitMismatch("flat limit disagrees with the degreewise oracle")
        if hilbert_series(limit) != hilbert_series(ideal):
            raise LimitMismatch("flat limit's Hilbert series differs from the ideal's")
    return {"generators": limit}


def _hilbert(doc: InputDocument, args) -> HilbertData:
    return hilbert_data(_ideal(doc))


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
    return {"generators": canonical_generators(ideal)}  # the ideal of Y, read in the full ring


def _verify_limit_join(doc: InputDocument, args) -> JoinCheckReport:
    return verify_limit_is_join(_ideal(doc), _splitting(doc), *doc.ab)


def _grading_stages(doc: InputDocument, args) -> dict:
    g = _grading(doc)
    stages = [_stage(doc, g.ell - 1)] if doc.stage is not None else range(1, g.ell)
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


def _flag_limit(doc: InputDocument, args) -> FlagConfiguration:
    flag = _flag(doc)
    return flag_limit(flag, _stage(doc, flag.n), _grading(doc), check=args.check)


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


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an input error (exit 1); argparse's 2 means "inconclusive"."""
        raise ValueError(message)


# Built once per process: `main` only calls `parse_args`, which leaves
# the parser unchanged, so one document's options never reach the next.
_PARSER = _ArgumentParser(
    prog="flagstab",
    description="Exact flat limits, Chow weights and staged stability checks.",
)
_PARSER.add_argument("command", choices=(*COMMANDS, "batch"))
_PARSER.add_argument("files", nargs="+", metavar="FILE")
_PARSER.add_argument("--check", action="store_true", help="enable cross-checks")
_PARSER.add_argument("--output", choices=("json", "text"), default="json")


def main(argv=None) -> int:
    # exact answers can have integers past the interpreter's int-to-str
    # digit limit (4300 by default; no limit exists before 3.10.7), so it
    # is lifted for the run and restored for the caller
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        args = _PARSER.parse_args(argv)
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
    except LimitMismatch as exc:
        print(f"flagstab: cross-check failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"flagstab: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
