"""Buchberger's algorithm and normal forms, both over the integers through
one fraction-free division kernel; elimination; and the degreewise
linear-algebra membership oracle.

Inside a `gb_memo()` block `buchberger` computes each (ideal, order)
basis once; the CLI opens one block per command. Outside one it keeps
no state.

The membership oracle is deliberately independent of Buchberger: for a
homogeneous ideal and a degree d it spans I_d by monomial multiples of
the generators and row-reduces. The test suite uses it as ground truth
for everything the Groebner machinery computes.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, le

from .linalg import Echelon, row_from_fractions
from .poly import (
    GRLEX,
    HomogeneousIdeal,
    Monomial,
    Polynomial,
    TermOrder,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder = GRLEX) -> Polynomial:
    """S-polynomial of f and g with respect to their leading terms."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of a zero polynomial")
    (mf, cf), (mg, cg) = f.leading(order), g.leading(order)
    l = monomial_lcm(mf, mg)
    lf = Polynomial.from_monomial(monomial_div(l, mf), 1 / cf)
    return lf * f - Polynomial.from_monomial(monomial_div(l, mg), 1 / cg) * g


def normal_form(f: Polynomial, basis, order: TermOrder = GRLEX) -> Polynomial:
    """Remainder of f on full division by the basis.

    No term of the result is divisible by any basis leading monomial,
    and f minus the result lies in the ideal generated by the basis.
    """
    return normal_forms([f], basis, order)[0]


def normal_forms(fs, basis, order: TermOrder = GRLEX) -> list[Polynomial]:
    """`normal_form` of each polynomial in fs, with the basis turned into
    integer divisors once for all of them."""
    keys = _OrderKeys(order)
    divisors = [_divisor(_integer_terms(b)[0], keys) for b in basis if not b.is_zero]
    out = []
    for f in fs:
        work, den = _integer_terms(f)
        r, scale = _divide(work, divisors, keys)
        out.append(Polynomial(f.nvars, {m: Fraction(c, den * scale) for m, c in r.items()}))
    return out


class _OrderKeys(dict):
    """Order keys of the monomials met in one call, computed on first lookup."""

    def __init__(self, order: TermOrder):
        self.key = order.key

    def __missing__(self, m: Monomial):
        k = self[m] = self.key(m)
        return k


def _integer_terms(f: Polynomial) -> tuple[dict[Monomial, int], int]:
    """D*f as an integer term dict, with D the lcm of f's denominators."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}, den


def _divisor(terms: dict[Monomial, int], keys: _OrderKeys) -> tuple:
    """(lead, lead coefficient, tail) of the primitive multiple with a
    positive lead coefficient: the form `_divide` takes divisors in."""
    lead = max(terms, key=keys.__getitem__)
    h = gcd(*terms.values()) if terms[lead] > 0 else -gcd(*terms.values())
    return lead, terms[lead] // h, [(m, c // h) for m, c in terms.items() if m != lead]


def _divide(work: dict[Monomial, int], divisors: list, keys: _OrderKeys) -> tuple[dict, int]:
    """Full division of an integer term dict, free of fractions (primitive
    pseudo-division; Geddes, Czapor and Labahn, "Algorithms for Computer
    Algebra", 1992). Returns (r, k) with k > 0 and r = k*f - sum q_i*b_i,
    so r/k is the rational remainder, reached on the same division path.
    """
    remainder: dict[Monomial, int] = {}
    scale = 1
    while work:
        m = max(work, key=keys.__getitem__)
        c = work.pop(m)
        for mb, cb, tail in divisors:
            if all(map(le, mb, m)):
                h = gcd(c, cb)
                if h != cb:  # scale so that cb divides the coefficient
                    s = cb // h
                    scale *= s
                    work = {t: v * s for t, v in work.items()}
                    remainder = {t: v * s for t, v in remainder.items()}
                q = c // h
                shift = monomial_div(m, mb)
                for mt, ct in tail:
                    t = tuple(map(add, mt, shift))
                    v = work.get(t, 0) - q * ct
                    if v:
                        work[t] = v
                    else:
                        del work[t]
                break
        else:
            remainder[m] = c
    return remainder, scale


@dataclass(frozen=True)
class GroebnerBasis:
    basis: tuple[Polynomial, ...]
    order: TermOrder

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading(self.order)[0] for g in self.basis]

    def reduce(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero


# {(ideal, order): reduced basis} of the innermost `gb_memo()` block
_MEMO: ContextVar[dict | None] = ContextVar("gb_memo", default=None)


@contextmanager
def gb_memo():
    """Within the block, `buchberger` computes each (ideal, order) basis
    once and returns that basis on every later call with equal arguments."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def buchberger(ideal: HomogeneousIdeal, order: TermOrder = GRLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order, looked
    up in the active `gb_memo()` block, if any, before it is computed."""
    memo = _MEMO.get()
    if memo is None:
        return _buchberger(ideal, order)
    gb = memo.get((ideal, order))
    if gb is None:
        gb = memo[ideal, order] = _buchberger(ideal, order)
    return gb


def _buchberger(ideal: HomogeneousIdeal, order: TermOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.

    Pairs are pruned by the Gebauer-Moeller criteria ("On an installation
    of Buchberger's algorithm", J. Symbolic Comput. 6, 1988) and reduced
    by ascending lcm degree; on homogeneous input that is the sugar
    strategy. Elements are held as primitive integer divisors and
    S-polynomials reduced fraction-free; only the monic result is rational.
    """
    keys = _OrderKeys(order)
    basis: list[tuple] = []  # (lead, lead coefficient, tail), as `_divisor` gives
    leads: list[Monomial] = []
    pairs: list[tuple[int, Monomial, int, int]] = []  # (deg lcm, lcm, i, j), largest first
    for g in ideal.generators:
        _add_to_basis(_divisor(_integer_terms(g)[0], keys), basis, leads, pairs)
    while pairs:
        _, l, i, j = pairs.pop()
        # dividing x^(l - lead i)*basis[i] by basis[j] first forms their S-polynomial
        mi, ci, tail = basis[i]
        shift = monomial_div(l, mi)
        work = {monomial_mul(m, shift): c for m, c in [(mi, ci), *tail]}
        r, _ = _divide(work, [basis[j], *basis], keys)
        if r:
            _add_to_basis(_divisor(r, keys), basis, leads, pairs)
    return GroebnerBasis(tuple(_interreduce(basis, leads, keys)), order)


def _add_to_basis(g: tuple, basis: list, leads: list, pairs: list) -> None:
    """Append g to the basis and apply the Gebauer-Moeller update to the pairs."""
    k = len(basis)
    lk = g[0]
    basis.append(g)
    leads.append(lk)
    # old pair (i, j) whose lcm lead(k) divides, unless lcm(i, k) or
    # lcm(j, k) equals lcm(i, j): (i, k) and (j, k) cover it
    pairs[:] = [
        (d, l, i, j)
        for d, l, i, j in pairs
        if not monomial_divides(lk, l)
        or monomial_lcm(leads[i], lk) == l
        or monomial_lcm(leads[j], lk) == l
    ]
    new = [monomial_lcm(leads[i], lk) for i in range(k)]
    groups: dict[Monomial, list[int]] = {}
    for i, l in enumerate(new):
        # drop (i, k) when another new pair's lcm properly divides its lcm
        if not any(m != l and monomial_divides(m, l) for m in new):
            groups.setdefault(l, []).append(i)
    for l, members in groups.items():
        d = sum(l)
        # one pair per lcm; none when a pair of the group has coprime leads
        if all(d < sum(leads[i]) + sum(lk) for i in members):
            pairs.append((d, l, members[0], k))
    pairs.sort(reverse=True)


def _interreduce(basis: list[tuple], leads: list[Monomial], keys: _OrderKeys) -> list[Polynomial]:
    # drop members whose lead is divisible by another lead
    kept = [
        g
        for i, (g, mg) in enumerate(zip(basis, leads))
        if not any(
            j != i and monomial_divides(mh, mg) and (mh != mg or j < i)
            for j, mh in enumerate(leads)
        )
    ]
    kept.sort(key=lambda g: (sum(g[0]), keys[g[0]]))  # reducing keeps each lead
    out = []
    for i, (mg, cg, tail) in enumerate(kept):
        r, _ = _divide(dict([(mg, cg), *tail]), kept[:i] + kept[i + 1 :], keys)
        out.append(Polynomial(len(mg), {m: Fraction(c, r[mg]) for m, c in r.items()}))
    return out


def eliminate(ideal: HomogeneousIdeal, keep) -> HomogeneousIdeal:
    """Generators of the intersection with the subring in the kept variables.

    Uses a two-block order making the dropped variables largest; the
    result lives in the full ring but mentions only kept variables.
    """
    keep = set(keep)
    if not keep:
        raise ValueError("must keep at least one variable")
    dropped = tuple(i for i in range(ideal.nvars) if i not in keep)
    if not dropped:
        return ideal
    gb = buchberger(ideal, TermOrder(dropped=dropped))
    gens = [g for g in gb.basis if g.variables_used() <= keep]
    return HomogeneousIdeal(ideal.nvars, gens)


def restrict_to_variables(ideal: HomogeneousIdeal, keep) -> HomogeneousIdeal:
    """Move an ideal whose generators only use `keep` into the small ring."""
    keep = sorted(keep)
    mapping = {v: i for i, v in enumerate(keep)}
    gens = [g.map_variables(mapping, len(keep)) for g in ideal.generators]
    return HomogeneousIdeal(len(keep), gens)


def ideal_equal(a: HomogeneousIdeal, b: HomogeneousIdeal) -> bool:
    """Exact equality of ideals via reduced graded-lex Groebner bases."""
    if a.nvars != b.nvars:
        return False
    return buchberger(a, GRLEX).basis == buchberger(b, GRLEX).basis


def canonical_generators(ideal: HomogeneousIdeal) -> HomogeneousIdeal:
    """Canonical form: the reduced graded-lex Groebner basis as generators."""
    return HomogeneousIdeal(ideal.nvars, buchberger(ideal, GRLEX).basis)


# -- degreewise membership oracle -------------------------------------


def degree_columns(nvars: int, d: int, colkey=None) -> dict[Monomial, int]:
    """Column index for each degree-d monomial, under an optional key."""
    monos = monomials_of_degree(nvars, d)
    if colkey is not None:
        monos = sorted(monos, key=colkey)
    return {m: i for i, m in enumerate(monos)}


def poly_to_row(f: Polynomial, columns: dict[Monomial, int]) -> dict[int, Fraction]:
    return {columns[m]: c for m, c in f.terms.items()}


def degree_echelon(
    ideal: HomogeneousIdeal, d: int, columns: dict[Monomial, int] | None = None
) -> tuple[dict[Monomial, int], Echelon]:
    """Echelon form of the space I_d, spanned by monomial multiples of
    the generators. This is the brute-force membership oracle."""
    if columns is None:
        columns = degree_columns(ideal.nvars, d)
    ech = Echelon()
    for g in ideal.generators:
        e = g.degree()
        if e > d:
            continue
        for m in monomials_of_degree(ideal.nvars, d - e):
            prod = Polynomial.from_monomial(m) * g
            ech.insert(row_from_fractions(poly_to_row(prod, columns)))
    return columns, ech


def contains_oracle(ideal: HomogeneousIdeal, f: Polynomial) -> bool:
    """Degreewise linear-algebra ideal membership for homogeneous f."""
    if f.is_zero:
        return True
    if not f.is_homogeneous:
        raise ValueError("membership oracle requires homogeneous input")
    if f.nvars != ideal.nvars:
        raise ValueError("membership test in a different ring")
    columns, ech = degree_echelon(ideal, f.degree())
    return ech.contains(row_from_fractions(poly_to_row(f, columns)))


def degree_dimension(ideal: HomogeneousIdeal, d: int) -> int:
    """dim of the vector space I_d."""
    _, ech = degree_echelon(ideal, d)
    return ech.rank
