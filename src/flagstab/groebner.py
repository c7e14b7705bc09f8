"""Buchberger's algorithm and normal forms, both over the integers through
one fraction-free division kernel; elimination; and the degreewise
linear-algebra membership oracle.

Inside a `gb_memo()` block `buchberger` computes each (ideal, order)
basis once; the CLI opens one block per command. Outside one it keeps
no bases, only the monomial packing of each (order, ring size) met.

When an ideal enters Buchberger with no more generators than variables,
the S-pairs of a degree are dropped once the leads have as few standard
monomials in that degree as a complete intersection of those generator
degrees would; every such pair would reduce to zero, so this never
changes a basis (`_buchberger` gives the argument).

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

from .linalg import Echelon
from .poly import (
    GRLEX,
    DimensionError,
    HomogeneousIdeal,
    Monomial,
    OnePS,
    Polynomial,
    monomial_lcm,
    monomials_of_degree,
    series_coefficient,
)


def normal_form(f: Polynomial, basis, order: OnePS = GRLEX) -> Polynomial:
    """Remainder of f on full division by the basis.

    No term of the result is divisible by any basis leading monomial,
    and f minus the result lies in the ideal generated by the basis.
    """
    return normal_forms([f], basis, order)[0]


def normal_forms(fs, basis, order: OnePS = GRLEX) -> list[Polynomial]:
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

    def __init__(self, order: OnePS, nvars: int):
        w = order.weights or (0,) * nvars
        if len(w) != nvars:
            raise DimensionError(f"{len(w)} weights for {nvars} variables")
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
    order: OnePS

    def leading_monomials(self) -> list[Monomial]:
        return [max(g.ints, key=self.order.key) for g in self.basis]


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


def buchberger(ideal: HomogeneousIdeal, order: OnePS = GRLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order, looked
    up in the active `gb_memo()` block, if any, before it is computed."""
    memo = _MEMO.get()
    if memo is None:
        return _buchberger(ideal, order)
    gb = memo.get((ideal, order))
    if gb is None:
        gb = memo[ideal, order] = _buchberger(ideal, order)
    return gb


def _buchberger(ideal: HomogeneousIdeal, order: OnePS) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal under the given order.

    Pairs are pruned by the Gebauer-Moeller criteria ("On an installation
    of Buchberger's algorithm", J. Symbolic Comput. 6, 1988) and reduced
    by ascending lcm degree; on homogeneous input that is the sugar
    strategy. Elements are held as primitive integer divisors and
    S-polynomials reduced fraction-free; only the monic result is rational.

    When the r generators inserted on entry, of degrees d_i, are at most
    n = nvars in number, the remaining S-pairs of degree d are dropped once
    the current leads have floor(d) standard monomials of degree d, floor
    being Prod (1 - t^d_i) / (1 - t)^n (Traverso, "Hilbert functions and the
    Buchberger algorithm", J. Symbolic Comput. 22, 1996). This is exact:
    - dim (S/I)_d >= floor(d): the rank of the map (+) S_(d - d_i) -> S_d
      that the generators define is lower semicontinuous in their
      coefficients, and r <= n generic forms, a regular sequence, reach
      floor(d) (Froeberg, Math. Scand. 56, 1985);
    - the ideal L of the current leads lies in in(I), so
      dim (S/L)_d >= dim (S/I)_d;
    - so when dim (S/L)_d = floor(d), L_d = in(I)_d, and the remainder of a
      degree-d S-polynomial, which lies in I_d with no term in L, is zero.
    It never changes a basis. With r > n, or once `_Floor` stops counting,
    every pair is reduced.
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
        r = packing.terms(g)
        if basis:  # g less its remainder on the basis so far lies in the ideal
            r, _ = _divide(r, basis, packing.mask)
        if r:
            _add_to_basis(_divisor(r), basis, leads, pairs, packing)
    floor = _Floor(basis, leads, packing) if pairs and len(basis) <= ideal.nvars else None
    while pairs:
        d, _, i, j, pl = pairs.pop()
        if floor is not None and floor.met(d):
            continue
        # dividing x^(l - lead i)*basis[i] by basis[j] first forms their S-polynomial
        mi, ci, tail = basis[i]
        shift = pl - mi
        work = {m + shift: c for m, c in [(mi, ci), *tail]}
        r, _ = _divide(work, [basis[j], *basis], packing.mask)
        if r:
            g = _divisor(r)
            _add_to_basis(g, basis, leads, pairs, packing)
            if floor is not None:
                floor.add(g)
    return GroebnerBasis(tuple(_interreduce(basis, packing)), order)


class _Floor:
    """std(d), the standard monomials of degree d of the current leads, for
    the pair degree d `_buchberger` has reached, and floor(d) for it.

    std(d + 1) is built only from a std(d) with no more monomials than the
    basis has terms, so building it costs about as much as the divisions
    that made the basis; past that the count stops and every later pair is
    reduced (two quadrics in 32 variables leave at least 51 305 standard
    monomials of degree 4)."""

    def __init__(self, basis: list[tuple], leads: list[Monomial], packing: _Packing):
        q = [1]
        for e in map(sum, leads):  # times 1 - t^e
            q = [a - b for a, b in zip(q + [0] * e, [0] * e + q)]
        self.q, self.heads = q, {g[0] for g in basis}
        self.terms = len(basis) + sum(len(g[2]) for g in basis)
        self.units, self.mask = packing.units, packing.mask
        # packed monomial: its last variable. No lead is constant (a constant
        # generator comes first and leaves no pairs); were one, std would
        # only overcount, and an overcount only skips less.
        self.degree, self.bound, self.std = 0, None, {0: 0}

    def met(self, d: int) -> bool:
        """True iff #std(d) = floor(d); then every degree-d S-pair reduces to
        zero. False once the count has stopped."""
        while self.std is not None and self.degree < d:
            self._grow()
        if self.std is None:
            return False
        if self.bound is None:
            self.bound = series_coefficient(self.q, len(self.units), d)
        return len(self.std) == self.bound

    def add(self, g: tuple) -> None:
        """Record a new basis element, of degree `self.degree`."""
        self.heads.add(g[0])
        self.terms += 1 + len(g[2])
        if self.std is not None:
            self.std.pop(g[0], None)

    def _grow(self) -> None:
        """std(d + 1) from std(d) by the order-ideal rule: x^a is standard iff
        it is no lead and each x^a/x_j is standard. Each x^a is formed once,
        from x^a/x_k for k its last variable; x_j divides x^a iff x^a - x_j
        sets no guard bit."""
        units, mask, heads, std = self.units, self.mask, self.heads, self.std
        if len(std) > self.terms:
            self.std = None
            return
        grown = {}
        for b, last in std.items():
            divisors = units[:last]  # the x_j, j < k, that may divide x^a
            for k, unit in enumerate(units[last:], last):
                m = b + unit
                if m not in heads:
                    for u in divisors:
                        if not (m - u) & mask and m - u not in std:
                            break
                    else:
                        grown[m] = k
                divisors = units[: last + 1]
        self.std, self.degree, self.bound = grown, self.degree + 1, None


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
    kept.sort(key=lambda i: basis[i][0])
    reduced: list[tuple] = []  # the elements before this one, as divisors
    out = []
    for mg, cg, tail in (basis[i] for i in kept):
        # a tail term lies below mg, and under a graded order only a lead
        # below a term divides it: the reduced elements hold all such leads
        r, scale = _divide(dict(tail), reduced, mask)
        r = {mg: cg * scale, **r}
        reduced.append(_divisor(r))
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
    gb = buchberger(ideal, OnePS(weights))
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
