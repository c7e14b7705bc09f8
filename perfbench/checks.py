"""Independent checks of each document's JSON output.

They run after the timed region. Each returns None when the output is
right, else a one-line reason.

- `gb`: sympy's reduced `grlex` basis (sympy is a benchmark-only
  dependency).
- `flat-limit`: flagstab's Groebner-free `flat_limit_oracle`; for every
  degree up to FLAT_LIMIT_DEGREE_BOUND the limit's graded piece must
  contain the oracle's and have the same dimension (acceptance
  criterion 1).
- the other commands: closed forms carried by the document.
"""

from __future__ import annotations

import re
from fractions import Fraction

from workloads import fmt_q

FLAT_LIMIT_DEGREE_BOUND = 6


def check_flag_check(doc, results: dict) -> str | None:
    if results["verdict"] != "stable":
        return f"verdict {results['verdict']}, expected stable"
    stages = {s["stage"]: s for s in results["stages"]}
    if set(stages) != set(doc.expect["stages"]):
        return f"stages {sorted(stages)}"
    for i, want in doc.expect["stages"].items():
        s = stages[i]
        if s["lie_stabilizer_dim"] != 0:
            return f"stage {i}: lie_stabilizer_dim {s['lie_stabilizer_dim']}"
        if s["weight"] != fmt_q(want) or s["expected_weight"] != fmt_q(want):
            return f"stage {i}: weight {s['weight']}, closed form {fmt_q(want)}"
        if s["passed"] is not True or s["weight_matches_family_constant"] is not True:
            return f"stage {i}: not passed"
    return None


def check_flag_validate(doc, results: dict) -> str | None:
    if results["ok"] is not True:
        return f"ok {results['ok']}"
    if results["degree"] != doc.expect["degree"]:
        return f"degree {results['degree']}, expected {doc.expect['degree']}"
    return None


def check_hilbert(doc, results: dict) -> str | None:
    want = doc.expect
    for key in ("dimension", "degree", "hilbert_polynomial", "stabilization_degree"):
        if results[key] != want[key]:
            return f"{key} {results[key]}, closed form {want[key]}"
    for m, value in results["hilbert_function"].items():
        if value != want["hf"](int(m)):
            return f"HF({m}) = {value}, closed form {want['hf'](int(m))}"
    return None


def check_chow_weight(doc, results: dict) -> str | None:
    if results["chow_weight"] != doc.expect["chow_weight"]:
        return f"chow_weight {results['chow_weight']}, closed form {doc.expect['chow_weight']}"
    return None


def parse_output_polynomial(text: str, names: list[str]) -> dict[tuple, Fraction]:
    """Read a polynomial as flagstab prints it: signed terms
    `c*x^e*y` joined by ' + ' and ' - ', c an integer or p/q."""
    index = {n: i for i, n in enumerate(names)}
    terms: dict[tuple, Fraction] = {}
    for sign, body in _TERM.findall(" + " + text if text[0] != "-" else " - " + text[1:]):
        coeff, exps = Fraction(1), [0] * len(names)
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff = Fraction(factor)
            else:
                var, _, power = factor.partition("^")
                exps[index[var]] += int(power or 1)
        terms[tuple(exps)] = -coeff if sign == "-" else coeff
    return terms


_TERM = re.compile(r" ([+-]) ([^ ]+)")


def _monic_terms(terms: dict[tuple, Fraction]) -> tuple:
    """Terms sorted by graded lex, scaled so the leading one is 1."""
    ordered = sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    lead = ordered[0][1]
    return tuple((m, c / lead) for m, c in ordered)


class GroebnerChecker:
    """`gb` against sympy and `flat-limit` against the degreewise oracle."""

    def __init__(self, flagstab_cli, flagstab):
        import sympy

        self.sympy = sympy
        self.cli = flagstab_cli
        self.fs = flagstab

    def check_gb(self, doc, results: dict) -> str | None:
        sp = self.sympy
        names = [n.strip() for n in doc.text.split("\n", 1)[0][4:].split(",")]
        xs = sp.symbols(names)
        local = dict(zip(names, xs))
        ideal_line = doc.text.split("ideal:", 1)[1].splitlines()[0]
        gens = [sp.sympify(g.replace("^", "**"), locals=local) for g in ideal_line.split(";")]
        reference = sp.groebner(gens, *xs, order="grlex", domain="QQ")
        want = sorted(_monic_terms({
            exps: Fraction(int(c.numerator), int(c.denominator))
            for exps, c in p.as_dict(native=True).items()
        }) for p in reference.polys)
        got = sorted(_monic_terms(parse_output_polynomial(g, names)) for g in results["basis"])
        if want != got:
            return f"basis differs from sympy grlex ({len(got)} vs {len(want)} elements)"
        return None

    def check_flat_limit(self, doc, results: dict) -> str | None:
        fs, cli = self.fs, self.cli
        from flagstab.groebner import degree_echelon, poly_to_row
        from flagstab.linalg import row_from_fractions

        parsed = cli.parse_document(doc.text)
        ideal = fs.HomogeneousIdeal(len(parsed.names), parsed.ideal_gens)
        lam = fs.OnePS(tuple(parsed.weights))
        limit = fs.HomogeneousIdeal(
            ideal.nvars,
            [cli.parse_polynomial(g, parsed.names) for g in results["generators"]],
        )
        oracle = fs.flat_limit_oracle(ideal, lam, FLAT_LIMIT_DEGREE_BOUND)
        for d in range(FLAT_LIMIT_DEGREE_BOUND + 1):
            columns, ech = degree_echelon(limit, d)
            # the oracle's degree-d generators are a basis of in(I)_d
            slice_d = [g for g in oracle.generators if g.degree() == d]
            if ech.rank != len(slice_d):
                return f"degree {d}: dim {ech.rank}, oracle {len(slice_d)}"
            for g in slice_d:
                if not ech.contains(row_from_fractions(poly_to_row(g, columns))):
                    return f"degree {d}: oracle generator not in the limit"
        return None


CLOSED_FORM_CHECKS = {
    "flag-check": check_flag_check,
    "flag-validate": check_flag_validate,
    "hilbert": check_hilbert,
    "chow-weight": check_chow_weight,
}
