"""Hilbert functions and polynomials, Chow-weight extraction and Chow
stability of point configurations.

Hilbert data comes from one exact kernel: the Hilbert series
HS(S/I) = N(t)/(1-t)^nvars of the initial monomial ideal of the reduced
graded-lex Groebner basis (Bayer-Stillman, "Computation of Hilbert
functions", J. Symbolic Comput. 14, 1992). Cancelling (1-t) factors from
N gives the dimension, degree, Hilbert polynomial, every value of the
Hilbert function and the exact stabilization degree; there is no
degree search and no cap. `hilbert_series` stops at the cancelled
series, which holds the dimension, degree and Hilbert polynomial;
`hilbert_data` adds the Hilbert function and its stabilization degree.
`hilbert_function` keeps the degreewise linear-algebra computation as an
independent oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, factorial, prod
from typing import NamedTuple

from .linalg import Echelon, row_from_fractions
from .groebner import buchberger, degree_echelon
from .poly import (
    GRLEX,
    HomogeneousIdeal,
    Monomial,
    OnePS,
    monomial_divides,
    series_coefficient,
)


class PreconditionError(ValueError):
    """An operation was called outside its stated hypotheses."""


def hilbert_function(ideal: HomogeneousIdeal, m: int) -> int:
    """dim (S/I)_m, computed from the rank of the membership-oracle matrix."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    _, ech = degree_echelon(ideal, m)
    return comb(m + ideal.nvars - 1, ideal.nvars - 1) - ech.rank


def eval_poly(coeffs, t: int):
    """The polynomial with these coefficients (ascending powers) at t;
    exact for integer and `Fraction` coefficients alike."""
    total = 0
    for c in reversed(coeffs):
        total = total * t + c
    return total


# -- the Hilbert-series kernel -----------------------------------------
#
# Integer polynomials in t are coefficient lists, ascending powers,
# without trailing zeros; [] is zero.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return _trim(out)


def _scale(a: list[int], c: int, shift: int = 0) -> list[int]:
    """c * t^shift * a."""
    return _trim([0] * shift + [c * v for v in a])


def _minimalize(gens) -> tuple[Monomial, ...]:
    """Minimal generators of a monomial ideal, sorted by (degree, exponents)."""
    out: list[Monomial] = []
    for g in sorted(set(gens), key=lambda g: (sum(g), g)):
        if not any(monomial_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


def _monomial_numerator(gens: tuple[Monomial, ...], memo: dict) -> list[int]:
    """N(t) for S/M, M minimally generated by `gens`, by the recursion
    K(S/(M+(m))) = K(S/M) - t^deg(m) * K(S/(M:m))."""
    if not gens:
        return [1]
    if gens not in memo:
        m, rest = gens[-1], gens[:-1]
        colon = _minimalize(tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest)
        memo[gens] = _add(
            _monomial_numerator(rest, memo),
            _scale(_monomial_numerator(colon, memo), -1, sum(m)),
        )
    return memo[gens]


def _numerator(leads) -> list[int]:
    """N(t) with HS(S/M) = N(t)/(1-t)^nvars, M the monomial ideal of the
    leads; for the leading monomials of the reduced graded-lex Groebner
    basis of I, HS(S/I) has the same N(t)."""
    return _monomial_numerator(_minimalize(leads), {})


def _cancel(num: list[int], pole: int) -> tuple[list[int], int]:
    """Cancel (1-t) factors from num/(1-t)^pole; the zero series has pole 0."""
    while pole and num and sum(num) == 0:
        num = list(accumulate(num))[:-1]  # num = (1-t) * prefix sums
        pole -= 1
    return num, pole if num else 0


class HilbertSeries(NamedTuple):
    """HS(S/I) = numerator(t)/(1-t)^pole with every (1-t) factor cancelled."""

    numerator: list[int]
    pole: int

    @property
    def dimension(self) -> int:
        return self.pole - 1

    @property
    def degree(self) -> int:
        """numerator(1); 0 for the empty scheme."""
        return sum(self.numerator) if self.pole else 0

    def polynomial(self) -> tuple[Fraction, ...]:
        """The Hilbert polynomial, ascending powers: the polynomial in m
        equal to series_coefficient(q, d, m) for m >= len(q) - d, that is
        the sum of q_k * (m - k + 1)...(m - k + d - 1) over (d - 1)!. With
        no (1-t) factor left, its top coefficient q(1)/(d - 1)! is nonzero."""
        q, d = self
        total = [0] * max(d, 1)
        for k, c in enumerate(q if d else ()):
            term = [c]
            for j in range(1, d):  # times (m - k + j)
                term = [a + (j - k) * b for a, b in zip([0, *term], [*term, 0])]
            total = [a + b for a, b in zip(total, term)]
        den = factorial(max(d - 1, 0))
        return tuple(Fraction(c, den) for c in total)


def hilbert_series(ideal: HomogeneousIdeal) -> HilbertSeries:
    """The cancelled Hilbert series of S/I: dimension, degree and Hilbert
    polynomial without the Hilbert function or its stabilization degree."""
    leads = buchberger(ideal, GRLEX).leading_monomials()
    return HilbertSeries(*_cancel(_numerator(leads), ideal.nvars))


@dataclass(frozen=True)
class HilbertData:
    hilbert_function: dict[int, int]
    hilbert_polynomial: tuple[Fraction, ...]  # coefficients, ascending powers
    stabilization_degree: int
    dimension: int
    degree: int


def hilbert_data(ideal: HomogeneousIdeal) -> HilbertData:
    """Hilbert polynomial, dimension, degree, stabilization degree (1 + the
    largest m with HF(m) != HP(m), or 0) and the Hilbert function on a
    window of degrees reaching past stabilization."""
    series = hilbert_series(ideal)
    q, d = series
    hp = series.polynomial()
    differs = lambda m: series_coefficient(q, d, m) != eval_poly(hp, m)
    stab = next((m + 1 for m in reversed(range(len(q) - d)) if differs(m)), 0)
    # the reported window: from a generator-degree bound (or just below
    # stabilization) to 3*nvars + 1 past the first step start + k*nvars
    # at or beyond stabilization
    n = ideal.nvars
    gen_degs = [g.degree() for g in ideal.generators]
    start = max(sum(gen_degs), 2 * max(gen_degs, default=0), 1)
    s = start + max(0, -((start - stab) // n)) * n
    window = range(min(start, max(stab - 1, 0)), s + 3 * n + 2)
    hf = {m: series_coefficient(q, d, m) for m in window}
    return HilbertData(hf, hp, stab, series.dimension, series.degree)


# -- Chow weights ------------------------------------------------------


def chow_weight_numeric(ideal: HomogeneousIdeal, lam: OnePS) -> Fraction:
    """Chow weight a_X of a lam-fixed subscheme, from the blockwise slice
    weights.

    Both preconditions are read off the reduced graded-lex basis. The
    ideal is lam-fixed iff every basis element is lam-homogeneous. It is
    cut out within the weight spaces iff every element uses one weight
    space's variables; then the coordinate ring is the (degreewise)
    tensor product of one factor per weight space, whose basis is the
    elements of that space.

    The degree-m slice splits over weight-space degree distributions
    (i_1, ..., i_s); each distribution on which every factor's Hilbert
    function h_t is nonzero contributes sum_t i_t*c_t*h_t(i_t), and the
    slice weight is minus the total. In series form the total is
    sum_t c_t * t*G_t'(t) * prod_{s != t} E_s(t), with G_t = q_t/(1-t)^p_t
    the factor's cancelled Hilbert series and E_s the series of the
    indicator h_s(i) != 0: 1/(1-t) when p_s > 0, else 1 + t + ... +
    t^(len(q_s) - 1). The weight polynomial has degree at most n+1, with
    n+2 = 1 + sum_s p_s, and a_X is -(n+1)! times its coefficient of
    m^(n+1): the total's numerator over (1-t)^(n+2), evaluated at t = 1.

    In closed form: for p_t > 0 term t has a pole of order
    p_t + 1 + #{s != t : p_s > 0} at t = 1 and numerator c_t*p_t*q_t(1)
    times prod_{p_s = 0} len(q_s) there (E_s(1), the number of degrees
    where h_s is nonzero); for p_t = 0 the order is lower. It reaches
    n+2 only when every other p_s <= 1. So any two factors of positive
    dimension (p >= 2) make a_X = 0: this is why a join of two
    positive-dimensional factors reads 0.
    """
    if not lam.sl_normalized:
        raise PreconditionError("weight vector must sum to zero")
    gb = buchberger(ideal, GRLEX)
    if any(len({lam.weight(m) for m in g.ints}) > 1 for g in gb.basis):
        raise PreconditionError("ideal is not fixed by the weight vector")
    leads = gb.leading_monomials()
    if _cancel(_numerator(leads), ideal.nvars)[1] == 0:
        raise PreconditionError("empty subscheme has no Chow weight")
    # a factor's N(t) does not depend on the variables its leads omit
    space_leads: dict[int, list] = {c: [] for c in set(lam.weights)}
    for g, lead in zip(gb.basis, leads):
        space = {lam.weights[i] for i in g.variables_used()}
        if len(space) > 1:
            raise PreconditionError("ideal is not cut out within the weight spaces of the 1PS")
        space_leads[space.pop()].append(lead)
    spaces = [(c, *_cancel(_numerator(space_leads[c]), lam.weights.count(c))) for c in space_leads]
    wide = sum(p > 1 for _, _, p in spaces)  # factors of positive dimension
    # term t reaches order n+2 iff p_t > 0 and no other factor is wide
    total = sum(c * p * sum(q) for c, q, p in spaces if p and wide == (p > 1))
    return Fraction(total * prod(len(q) for _, q, p in spaces if not p))


# -- Chow stability of point configurations ---------------------------


def normalize_point(coords) -> tuple[Fraction, ...]:
    vals = tuple(Fraction(c) for c in coords)
    lead = next((v for v in vals if v != 0), None)
    if lead is None:
        raise ValueError("zero coordinate vector is not a projective point")
    return tuple(v / lead for v in vals)


@dataclass(frozen=True)
class PointConfiguration:
    """Multiset of points of P(W) with exact rational coordinates."""

    dim_w: int
    points: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_coords(cls, coords) -> "PointConfiguration":
        pts = tuple(normalize_point(p) for p in coords)
        if not pts:
            raise ValueError("a point configuration needs at least one point")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("points of different coordinate lengths")
        (dim_w,) = dims
        if dim_w < 2:
            raise ValueError("ambient space must have dim W >= 2")
        return cls(dim_w, pts)

    @property
    def length(self) -> int:
        return len(self.points)

    def support(self) -> list[tuple[int, tuple[Fraction, ...]]]:
        """Distinct points with the index of their first occurrence."""
        seen = {}
        for i, p in enumerate(self.points):
            if p not in seen:
                seen[p] = i
        return [(i, p) for p, i in seen.items()]


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "strictly_semistable" | "unstable"
    witness_indices: tuple[int, ...]
    witness_dim: int  # projective dimension of the witness subspace
    witness_count: int  # points of the configuration in the subspace
    margin: Fraction  # count/d - (dim+1)/dim W for the witness


def chow_points_stability(cfg: PointConfiguration) -> StabilityVerdict:
    """Chow (semi)stability of a zero cycle of points.

    Stability holds iff every proper linear subspace Z satisfies
    #(Y cap Z)/d < (dim Z + 1)/dim W; the maximum of the left side at
    fixed dimension is attained on spans of configuration points, so
    spans of support subsets are enumerated. Points are counted with
    multiplicity. Ties in the witness break toward the subset enumerated
    first: smallest size, then lexicographic order of support positions;
    a span already met keeps the subset that first reached it.

    A span is the span of the support points it contains, so it is kept
    as their bitmask. Spans are met by increasing rank, so a subset inside
    a span already met spans that span (or one met before it) and is
    skipped without elimination; any other subset is independent.
    """
    d, w = cfg.length, cfg.dim_w
    support = cfg.support()
    max_size = min(len(support), w - 1)
    # single points need no rows
    rows = [row_from_fractions(dict(enumerate(p))) for _, p in support] if max_size > 1 else []
    mults = Counter(cfg.points)
    counts = [mults[p] for _, p in support]
    # (margin * d * w, witness indices, dim Z, count)
    best: tuple[int, tuple[int, ...], int, int] | None = None
    spans: list[int] = []
    for size in range(1, max_size + 1):
        for subset in combinations(range(len(support)), size):
            bits = sum(1 << k for k in subset)
            if any(bits & span == bits for span in spans):
                continue
            if size > 1:
                ech = Echelon()
                for k in subset:
                    ech.insert(rows[k])
                bits |= sum(
                    1 << k for k, row in enumerate(rows) if not bits >> k & 1 and ech.contains(row)
                )
            spans.append(bits)
            count = sum(c for k, c in enumerate(counts) if bits >> k & 1)
            excess = count * w - size * d
            if best is None or excess > best[0]:
                best = (excess, tuple(support[k][0] for k in subset), size - 1, count)
    assert best is not None
    excess, indices, dim_z, count = best
    if excess > 0:
        verdict = "unstable"
    elif excess == 0:
        verdict = "strictly_semistable"
    else:
        verdict = "stable"
    margin = Fraction(excess, d * w)
    return StabilityVerdict(verdict, indices, dim_z, count, margin)
