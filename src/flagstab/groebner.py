"""Buchberger's algorithm, normal forms, elimination and the degreewise
linear-algebra membership oracle.

The membership oracle is deliberately independent of Buchberger: for a
homogeneous ideal and a degree d it spans I_d by monomial multiples of
the generators and row-reduces. The test suite uses it as ground truth
for everything the Groebner machinery computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    mf, cf = f.leading(order)
    mg, cg = g.leading(order)
    l = monomial_lcm(mf, mg)
    terms: dict[Monomial, Fraction] = {}
    for p, mp, q in ((f, mf, 1 / cf), (g, mg, -1 / cg)):
        shift = monomial_div(l, mp)
        for m, c in p.terms.items():
            t = monomial_mul(m, shift)
            terms[t] = terms.get(t, 0) + q * c
    return Polynomial(f.nvars, terms)


def normal_form(f: Polynomial, basis, order: TermOrder = GRLEX) -> Polynomial:
    """Remainder of f on full division by the basis.

    No term of the result is divisible by any basis leading monomial,
    and f minus the result lies in the ideal generated by the basis.
    """
    divisors = []
    for b in basis:
        if not b.is_zero:
            mb, cb = b.leading(order)
            divisors.append((mb, cb, [t for t in b.terms.items() if t[0] != mb]))
    work = dict(f.terms)
    remainder: dict[Monomial, Fraction] = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for mb, cb, tail in divisors:
            if monomial_divides(mb, m):
                q = c / cb
                shift = monomial_div(m, mb)
                for mt, ct in tail:
                    t = monomial_mul(mt, shift)
                    v = work.get(t, 0) - q * ct
                    if v:
                        work[t] = v
                    else:
                        del work[t]
                break
        else:
            remainder[m] = c
    return Polynomial(f.nvars, remainder)


@dataclass(frozen=True)
class GroebnerBasis:
    basis: tuple[Polynomial, ...]
    order: TermOrder
    reduced: bool = True

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading(self.order)[0] for g in self.basis]

    def reduce(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero


def buchberger(ideal: HomogeneousIdeal, order: TermOrder = GRLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.

    Pairs are pruned by the Gebauer-Moeller criteria ("On an installation
    of Buchberger's algorithm", J. Symbolic Comput. 6, 1988) and reduced
    by ascending lcm degree; on homogeneous input that is the sugar
    strategy.
    """
    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    pairs: list[tuple[int, Monomial, int, int]] = []  # (deg lcm, lcm, i, j), largest first
    for g in ideal.generators:
        _add_to_basis(g.monic(order), basis, leads, pairs, order)
    while pairs:
        _, _, i, j = pairs.pop()
        s = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if not s.is_zero:
            _add_to_basis(s.monic(order), basis, leads, pairs, order)
    return GroebnerBasis(tuple(_interreduce(basis, leads, order)), order, reduced=True)


def _add_to_basis(g: Polynomial, basis: list, leads: list, pairs: list, order: TermOrder) -> None:
    """Append g to the basis and apply the Gebauer-Moeller update to the pairs."""
    k = len(basis)
    lk = g.leading(order)[0]
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


def _interreduce(
    basis: list[Polynomial], leads: list[Monomial], order: TermOrder
) -> list[Polynomial]:
    # drop members whose lead is divisible by another lead
    kept = [
        g
        for i, (g, mg) in enumerate(zip(basis, leads))
        if not any(
            j != i and monomial_divides(mh, mg) and (mh != mg or j < i)
            for j, mh in enumerate(leads)
        )
    ]
    out = [normal_form(g, kept[:i] + kept[i + 1 :], order).monic(order) for i, g in enumerate(kept)]
    out.sort(key=lambda g: (g.degree(), order.key(g.leading(order)[0])))
    return out


def eliminate(
    ideal: HomogeneousIdeal, keep, weights: tuple[int, ...] | None = None
) -> HomogeneousIdeal:
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
    order = TermOrder(weights=weights, dropped=dropped)
    gb = buchberger(ideal, order)
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
