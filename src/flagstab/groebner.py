"""Buchberger's algorithm and normal forms, both over the integers through
one fraction-free division kernel; elimination; and the degreewise
linear-algebra membership oracle.

Inside a `gb_memo()` block `buchberger` computes each (ideal, order)
basis once; the CLI opens one block per command. Outside one it keeps
no bases, only the monomial packing of each (order, ring size) met.

The membership oracle is deliberately independent of Buchberger: for a
homogeneous ideal and a degree d it spans I_d by monomial multiples of
the generators and row-reduces. The test suite uses it as ground truth
for everything the Groebner machinery computes.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd
from operator import add, mul

from .linalg import Echelon, row_from_fractions
from .poly import (
    GRLEX,
    DimensionError,
    HomogeneousIdeal,
    Monomial,
    Polynomial,
    TermOrder,
    monomial_div,
    monomial_lcm,
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
    integer divisors once for all of them. The packing bound is checked on
    the inputs only, as division under a graded order never raises a degree."""
    if not fs:
        return []
    packing = _packing(order, fs[0].nvars)
    divisors = [_divisor(packing.terms(b)) for b in basis if not b.is_zero]
    out = []
    for f in fs:
        r, scale = _divide(packing.terms(f), divisors, packing.mask)
        out.append(packing.polynomial(r, f.num, f.den * scale))
    return out


class _Packing:
    """Each monomial as one int (Monagan and Pearce, ISSAC 2007): the fields
    of `order.key` (degree, -weight, exponents), `width` bits each with a
    guard bit on top. Packing is linear, int comparison is the order, and
    x^b divides x^a iff a - b sets no guard bit in `mask`."""

    BOUND = 1 << 32  # of the total degree; below it the packing is exact

    def __init__(self, order: TermOrder, nvars: int):
        w = order.weights or (0,) * nvars
        if len(w) != nvars:
            raise DimensionError("weight vector length mismatch")
        # below degree 2^32 each field is under 2^(width - 2) in size
        self.width = width = 34 + max(map(abs, w), default=0).bit_length()
        self.shifts = tuple(range(width * (nvars - 1), -1, -width))  # of the exponent fields
        self.mask = (1 << width * nvars) // ((1 << width) - 1) << width - 1
        top = width * nvars  # the weight field; the degree field is above it
        self.units = [(1 << top + width) - (wi << top) + (1 << s) for wi, s in zip(w, self.shifts)]

    def check(self, degree: int) -> None:
        if degree >= self.BOUND:
            raise ValueError(f"degree {degree} is past the 2^32 a packed monomial holds")

    def pack(self, m: Monomial) -> int:
        self.check(sum(m))
        return sum(map(mul, m, self.units))

    def unpack(self, p: int) -> Monomial:
        low = (1 << self.width) - 1
        return tuple([p >> s & low for s in self.shifts])

    def terms(self, f: Polynomial) -> dict[int, int]:
        """f's primitive integer part as a packed term dict."""
        self.check(f.degree())
        units = self.units
        return {sum(map(mul, m, units)): c for m, c in f.ints.items()}

    def polynomial(self, terms: dict[int, int], num: int, den: int) -> Polynomial:
        """num/den times the packed integer term dict; `unpack` inlined for speed."""
        low, shifts = (1 << self.width) - 1, self.shifts
        t = {tuple([m >> s & low for s in shifts]): c for m, c in terms.items()}
        return Polynomial.from_ints(len(shifts), t, num, den)


# a packing depends on (order, nvars) alone, and a command meets few of them
_packing = lru_cache(maxsize=64)(_Packing)


def _divisor(terms: dict[int, int]) -> tuple:
    """(lead, lead coefficient, tail) of the primitive multiple with a
    positive lead coefficient: the form `_divide` takes divisors in."""
    lead = max(terms)
    h = gcd(*terms.values()) if terms[lead] > 0 else -gcd(*terms.values())
    return lead, terms[lead] // h, [(m, c // h) for m, c in terms.items() if m != lead]


def _divide(work: dict[int, int], divisors: list, mask: int) -> tuple[dict, int]:
    """Full division of a packed integer term dict, free of fractions
    (primitive pseudo-division; Geddes, Czapor and Labahn, "Algorithms for
    Computer Algebra", 1992). Returns (r, k) with k > 0 and
    r = k*f - sum q_i*b_i, so r/k is the rational remainder, reached on the
    same division path.
    """
    remainder: dict[int, int] = {}
    scale = 1
    while work:
        m = max(work)
        c = work.pop(m)
        for mb, cb, tail in divisors:
            shift = m - mb
            if not shift & mask:
                h = gcd(c, cb)
                if h != cb:  # scale so that cb divides the coefficient
                    s = cb // h
                    scale *= s
                    work = {t: v * s for t, v in work.items()}
                    remainder = {t: v * s for t, v in remainder.items()}
                q = c // h
                for mt, ct in tail:
                    t = mt + shift
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
        return [max(g.ints, key=self.order.key) for g in self.basis]

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
    packing = _packing(order, ideal.nvars)
    if len(ideal.generators) == 1:  # a principal ideal's basis is its generator
        (f,) = ideal.generators
        packing.check(f.degree())
        return GroebnerBasis((f.monic(order),), order)
    basis: list[tuple] = []  # packed (lead, lead coefficient, tail), as `_divisor` gives
    leads: list[Monomial] = []  # the same leads as exponent tuples
    # (deg lcm, lcm, i, j, packed lcm), largest first
    pairs: list[tuple[int, Monomial, int, int, int]] = []
    for g in ideal.generators:
        _add_to_basis(_divisor(packing.terms(g)), basis, leads, pairs, packing)
    while pairs:
        *_, i, j, pl = pairs.pop()
        # dividing x^(l - lead i)*basis[i] by basis[j] first forms their S-polynomial
        mi, ci, tail = basis[i]
        shift = pl - mi
        work = {m + shift: c for m, c in [(mi, ci), *tail]}
        r, _ = _divide(work, [basis[j], *basis], packing.mask)
        if r:
            _add_to_basis(_divisor(r), basis, leads, pairs, packing)
    return GroebnerBasis(tuple(_interreduce(basis, packing)), order)


def _add_to_basis(g: tuple, basis: list, leads: list, pairs: list, packing: _Packing) -> None:
    """Append g to the basis and apply the Gebauer-Moeller update to the
    pairs, testing divisibility on packed lcms as `_divide` does."""
    k, mk, mask = len(basis), g[0], packing.mask
    lk = packing.unpack(mk)
    new = [monomial_lcm(lead, lk) for lead in leads]
    packed = [packing.pack(l) for l in new]
    basis.append(g)
    leads.append(lk)
    # old pair (i, j) whose lcm lead(k) divides, unless lcm(i, k) or
    # lcm(j, k) equals lcm(i, j): (i, k) and (j, k) cover it
    pairs[:] = [
        (d, l, i, j, pl)
        for d, l, i, j, pl in pairs
        if (pl - mk) & mask or packed[i] == pl or packed[j] == pl
    ]
    groups: dict[int, list[int]] = {}
    for i, pl in enumerate(packed):
        # drop (i, k) when another new pair's lcm properly divides its lcm
        if not any(pm != pl and not (pl - pm) & mask for pm in packed):
            groups.setdefault(pl, []).append(i)
    for pl, members in groups.items():
        l = new[members[0]]
        d = sum(l)
        # one pair per lcm; none when a pair of the group has coprime leads
        if all(d < sum(leads[i]) + sum(lk) for i in members):
            pairs.append((d, l, members[0], k, pl))
    pairs.sort(reverse=True)


def _interreduce(basis: list[tuple], packing: _Packing) -> list[Polynomial]:
    # drop members whose lead is divisible by another lead
    mask, heads = packing.mask, [g[0] for g in basis]
    kept = [
        i
        for i, mg in enumerate(heads)
        if not any(
            j != i and not (mg - mh) & mask and (mh != mg or j < i)
            for j, mh in enumerate(heads)
        )
    ]
    kept.sort(key=lambda i: basis[i][0])  # reducing keeps each lead
    kept = [basis[i] for i in kept]
    out = []
    for i, (mg, cg, tail) in enumerate(kept):
        r, _ = _divide(dict([(mg, cg), *tail]), kept[:i] + kept[i + 1 :], mask)
        out.append(packing.polynomial(r, 1, r[mg]))
    return out


def eliminate(ideal: HomogeneousIdeal, keep) -> HomogeneousIdeal:
    """Generators of the intersection with the subring in the kept variables.

    Under weight -1 on the eliminated variables and 0 on the kept ones, a
    homogeneous basis element led by a kept-only monomial uses only kept
    variables, so those elements generate the intersection. The result
    lives in the full ring but mentions only kept variables.
    """
    keep = set(keep)
    if not keep:
        raise ValueError("must keep at least one variable")
    weights = tuple(0 if i in keep else -1 for i in range(ideal.nvars))
    if not any(weights):
        return ideal
    gb = buchberger(ideal, TermOrder(weights))
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
        terms = g.ints.items()  # `insert` normalises each shifted row
        for m in monomials_of_degree(ideal.nvars, d - e):
            ech.insert({columns[tuple(map(add, m, t))]: c for t, c in terms})
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
