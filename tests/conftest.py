"""Shared test corpus: ideals with weight vectors, and rational flags.

Everything here is deterministic (seeded RNG) so golden values and the
byte-determinism checks stay stable across runs.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from flagstab import (
    GRLEX,
    DimensionError,
    GradedOnePS,
    HomogeneousIdeal,
    Monomial,
    OnePS,
    Polynomial,
    PreconditionError,
    buchberger,
    monomials_of_degree,
)
from flagstab.flags import HyperplanarFlag
from flagstab.geometry import Splitting
from flagstab.groebner import degree_echelon, poly_to_row, restrict_to_variables
from flagstab.hilbert import (
    PointConfiguration,
    _add,
    _cancel,
    _minimalize,
    _numerator,
    _scale,
    _trim,
    normalize_point,
)
from flagstab.linalg import rank_of_rows, row_from_fractions
from flagstab.poly import monomial_divides, monomial_lcm


def V(nvars: int, i: int) -> Polynomial:
    return Polynomial.variable(nvars, i)


def poly(nvars: int, *terms) -> Polynomial:
    """Build a polynomial from (coeff, exponents) pairs."""
    out = Polynomial.zero(nvars)
    for c, exps in terms:
        out = out + Polynomial(nvars, {tuple(exps): c})
    return out


def twisted_cubic() -> HomogeneousIdeal:
    x, y, z, w = (V(4, i) for i in range(4))
    return HomogeneousIdeal(4, [x * z - y * y, y * w - z * z, x * w - y * z])



# -- test-only oracles and closed forms --------------------------------
#
# Nothing in the library calls these; the tests check the library against
# them.


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent-wise a - b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def compare(a: Monomial, b: Monomial, order: OnePS = GRLEX) -> int:
    """-1, 0 or 1 as a is below, equal to or above b in the order."""
    if len(a) != len(b):
        raise DimensionError("monomials of different length")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def s_polynomial(f: Polynomial, g: Polynomial, order: OnePS = GRLEX) -> Polynomial:
    """S-polynomial of f and g with respect to their leading terms."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of a zero polynomial")
    mf, mg = max(f.ints, key=order.key), max(g.ints, key=order.key)
    l = monomial_lcm(mf, mg)
    lf = Polynomial(f.nvars, {monomial_div(l, mf): 1 / f.terms[mf]})
    return lf * f - Polynomial(g.nvars, {monomial_div(l, mg): 1 / g.terms[mg]}) * g


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


def weighted_slice_weight(ideal: HomogeneousIdeal, lam: OnePS, m: int) -> int:
    """Weight of the degree-m slice of the coordinate ring.

    The basis is the set of standard monomials; coordinate functions
    dual to weight-r basis vectors carry weight -r, whence the sign.
    """
    if len(lam) != ideal.nvars:
        raise ValueError("weight vector length mismatch")
    if m < 0:
        raise ValueError("degree must be nonnegative")
    leads = buchberger(ideal, lam).leading_monomials()
    total = 0
    for mono in monomials_of_degree(ideal.nvars, m):
        if not any(monomial_divides(l, mono) for l in leads):
            total += lam.weight(mono)
    return -total


def chow_weight_single_space(b: int, d: int, r: int) -> int:
    """Chow weight of an r-dimensional degree-d subvariety lying in the
    weight-b summand of a two-weight splitting: b*d*(r+1)."""
    if b == 0:
        raise PreconditionError("weight b must be nonzero")
    if d <= 0:
        raise PreconditionError("degree must be positive")
    if r < 0:
        raise PreconditionError("dimension must be nonnegative")
    return b * d * (r + 1)


def chow_weight_join(a: int, b: int, d: int, dim_y: int, dim_pu: int) -> int:
    """Closed-form Chow weight of the join of Y (dim_y, degree d, in the
    weight-b summand) with the linear space P(U) (dim_pu, weight a)."""
    if a == 0 or b == 0:
        raise PreconditionError("weights a, b must be nonzero")
    if d <= 0:
        raise PreconditionError("degree must be positive")
    if dim_y < 0 or dim_pu < 0:
        raise PreconditionError("dimensions must be nonnegative")
    if dim_y < dim_pu:
        return a * (dim_pu + 1)
    if dim_y > dim_pu:
        return b * d * (dim_y + 1)
    if a + b * d == 0:
        raise PreconditionError("equal-dimension case requires a + b*d != 0")
    return (a + b * d) * (dim_y + 1)


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _trim(out)


def chow_weight_series(ideal: HomogeneousIdeal, lam: OnePS) -> Fraction:
    """`chow_weight_numeric` as series arithmetic: the per-weight-space
    series are multiplied out, and the total's numerator is read at t = 1.

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
    sum_t c_t * t*G_t'(t) * prod_{s != t} E_s(t), with G_t the factor's
    Hilbert series and E_s the series of the indicator h_s(i) != 0. The
    weight polynomial has degree at most n+1, and a_X is -(n+1)! times its
    coefficient of m^(n+1): the numerator of the total's series over
    (1-t)^(n+2), evaluated at t = 1.
    """
    if not lam.sl_normalized:
        raise PreconditionError("weight vector must sum to zero")
    gb = buchberger(ideal, GRLEX)
    if any(len({lam.weight(m) for m in g.ints}) > 1 for g in gb.basis):
        raise PreconditionError("ideal is not fixed by the weight vector")
    leads = gb.leading_monomials()
    num = _numerator(leads)
    n = _cancel(num, ideal.nvars)[1] - 1
    if n < 0:
        raise PreconditionError("empty subscheme has no Chow weight")
    # a factor's N(t) does not depend on the variables its leads omit
    space_leads: dict[int, list] = {c: [] for c in sorted(set(lam.weights), reverse=True)}
    for g, lead in zip(gb.basis, leads):
        space = {lam.weights[i] for i in g.variables_used()}
        if len(space) > 1:
            raise PreconditionError("ideal is not cut out within the weight spaces of the 1PS")
        space_leads[space.pop()].append(lead)
    factors = [(c, lam.weights.count(c), _numerator(space_leads[c])) for c in space_leads]
    # E_s = e_s/(1-t): e_s = 1 for a nonempty factor, 1 - t^(k+1) when its
    # Hilbert function vanishes after degree k
    indicators = []
    for _, k, num_t in factors:
        q, d = _cancel(num_t, k)
        indicators.append([1] if d else _add([1], [0] * len(q) + [-1]))
    # t*G_t' = t*(N_t'*(1-t) + k_t*N_t)/(1-t)^(k_t+1), so term t is over
    # (1-t)^(k_t + len(factors)); bring every term to (1-t)^(nvars + len(factors))
    total: list[int] = []
    for t, (c, k, num_t) in enumerate(factors):
        deriv = [i * v for i, v in enumerate(num_t)][1:]
        term = _scale(_add(_mul(deriv, [1, -1]), _scale(num_t, k)), c, 1)
        for s, e in enumerate(indicators):
            if s != t:
                term = _mul(term, e)
        for _ in range(ideal.nvars - k):
            term = _mul(term, [1, -1])
        total = _add(total, term)
    # the pole order is at most n+2, and below it the weight is 0
    q, d = _cancel(total, ideal.nvars + len(factors))
    return Fraction(sum(q)) if d == n + 2 else Fraction(0)


def mumford_weight(ideal: HomogeneousIdeal, lam: OnePS) -> int:
    """Mumford's Chow weight of X under lam ("Stability of projective
    varieties", 1977, section 2): -(n+1)! times the coefficient of m^(n+1)
    in `weighted_slice_weight`, n = dim X. It is read off the leads of the
    weight-order basis, so X need not be lam-fixed; it is then the weight
    of X's flat limit (Bayer and Morrison, J. Symbolic Comput. 6, 1988).

    Give x_i the bidegree (1, w_i). The numerator K(t, s) of the bigraded
    Hilbert series obeys K(M + (m)) = K(M) - t^deg(m) s^w(m) K(M : m), so
    A = K(t, 1) and B = dK/ds(t, 1) obey
    B(M + (m)) = B(M) - t^deg(m) (w(m) A(M : m) + B(M : m)). As the weights
    sum to 0, the weight sum of the degree-m standard monomials is the
    coefficient of t^m in B/(1-t)^N; with B cancelled to q_B/(1-t)^(n+2)
    the weight is q_B(1), and below that pole order it is 0.
    """
    memo: dict = {}

    def kernel(gens):
        if not gens:
            return [1], []
        if gens not in memo:
            m, rest = gens[-1], gens[:-1]
            colon = _minimalize(tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest)
            (a, b), (ac, bc), d = kernel(rest), kernel(colon), sum(m)
            shifted = _add(_scale(ac, lam.weight(m)), bc)
            memo[gens] = _add(a, _scale(ac, -1, d)), _add(b, _scale(shifted, -1, d))
        return memo[gens]

    if not lam.sl_normalized:
        raise PreconditionError("weight vector must sum to zero")
    a, b = kernel(_minimalize(buchberger(ideal, lam).leading_monomials()))
    q, pole = _cancel(b, ideal.nvars)
    return sum(q) if pole == _cancel(a, ideal.nvars)[1] + 1 else 0


def join_ideal(ideal_y: HomogeneousIdeal, split: Splitting) -> HomogeneousIdeal:
    """Ideal of the join of Y in P(W) with the linear space P(U):
    the generators of Y, reinterpreted in the full ring."""
    if ideal_y.nvars != len(split.w_vars):
        raise ValueError("ideal of Y must live in the W-variables")
    mapping = {i: v for i, v in enumerate(split.w_vars)}
    gens = [g.map_variables(mapping, split.nvars) for g in ideal_y.generators]
    return HomogeneousIdeal(split.nvars, gens)


def linear_section(ideal: HomogeneousIdeal, forms) -> HomogeneousIdeal:
    """Cut by linear forms: the ideal generated by I and the forms."""
    for f in forms:
        if f.is_zero or f.degree() != 1:
            raise ValueError("section forms must be nonzero linear forms")
    return HomogeneousIdeal(ideal.nvars, list(ideal.generators) + list(forms))


def coordinate_section(
    ideal: HomogeneousIdeal, cut_vars
) -> tuple[HomogeneousIdeal, HomogeneousIdeal]:
    """Cut by coordinate hyperplanes x_i = 0 for i in cut_vars.

    Returns (full, image): the section ideal in the full ring, and its
    image in the subring of the remaining variables. For coordinate
    forms the image is exact, obtained by substituting the cut
    variables by zero in each generator.
    """
    cut = sorted(set(cut_vars))
    forms = [Polynomial.variable(ideal.nvars, i) for i in cut]
    substituted = [g.substitute_zero(cut) for g in ideal.generators]
    full = HomogeneousIdeal(ideal.nvars, substituted + forms)
    keep = [i for i in range(ideal.nvars) if i not in cut]
    image = restrict_to_variables(HomogeneousIdeal(ideal.nvars, substituted), keep)
    return full, image


def tangent_space_dim(ideal: HomogeneousIdeal, coords) -> int:
    """Dimension of the projective tangent space of the scheme at the
    point with these coordinates, not all zero."""
    p = normalize_point(coords)
    if len(p) != ideal.nvars:
        raise ValueError("point length mismatch")
    if any(g.evaluate(p) for g in ideal.generators):
        raise PreconditionError("point does not lie on the subscheme")
    rows = [{j: g.partial(j).evaluate(p) for j in range(ideal.nvars)} for g in ideal.generators]
    return (ideal.nvars - 1) - rank_of_rows(rows)


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det *= m[j][j]
        inv = m[j][j]
        for i in range(j + 1, n):
            if m[i][j] != 0:
                f = m[i][j] / inv
                for k in range(j, n):
                    m[i][k] -= f * m[j][k]
    return det


@dataclass(frozen=True)
class BlockProfile:
    """Membership of a matrix in the block-pattern subgroups of SL(V)."""

    in_p: bool
    in_l: bool
    in_t: bool
    in_r: bool
    in_u: bool
    in_u_bracket: dict[int, bool]
    in_u_paren: dict[int, bool]


def block_profile(matrix, g: GradedOnePS) -> BlockProfile:
    """Classify a square rational matrix against the parabolic block patterns."""
    n = g.size
    m = [[Fraction(v) for v in row] for row in matrix]
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"matrix must be {n} x {n}")
    blk = [g.block_of(k) for k in range(n)]
    det1 = determinant(m) == 1

    def zero_block(pred) -> bool:
        return all(
            m[r][c] == 0 for r in range(n) for c in range(n) if pred(blk[r], blk[c])
        )

    def diag_identity() -> bool:
        return all(
            m[r][c] == (1 if r == c else 0)
            for r in range(n)
            for c in range(n)
            if blk[r] == blk[c]
        )

    block_upper = zero_block(lambda p, q: p > q)
    block_diag = zero_block(lambda p, q: p != q)
    in_p = block_upper and det1
    in_l = block_diag and det1
    in_u = block_upper and diag_identity()

    starts = [sum(g.multiplicities[:b]) for b in range(g.ell)]

    in_t = in_l
    if in_t:
        for s, mult in zip(starts, g.multiplicities):
            t = m[s][s]
            if any(
                m[s + r][s + c] != (t if r == c else 0)
                for r in range(mult)
                for c in range(mult)
            ):
                in_t = False
                break

    in_r = block_diag
    if in_r:
        for s, mult in zip(starts, g.multiplicities):
            sub = [[m[s + r][s + c] for c in range(mult)] for r in range(mult)]
            if determinant(sub) != 1:
                in_r = False
                break

    in_u_bracket = {}
    in_u_paren = {}
    for i in range(1, g.ell):
        in_u_bracket[i] = in_u and zero_block(
            lambda p, q, i=i: p < q and not (p < i <= q)
        )
        in_u_paren[i] = in_u and zero_block(lambda p, q, i=i: p < q and p >= i)
    return BlockProfile(in_p, in_l, in_t, in_r, in_u, in_u_bracket, in_u_paren)


CORPUS_WEIGHTS = {
    2: [(1, -1), (2, -1), (0, 0)],
    3: [(2, -1, -1), (1, 0, -1), (3, 1, -2)],
    4: [(1, 1, -1, -1), (2, 0, -1, -1), (1, 0, 0, -1)],
    5: [(2, 1, 0, -1, -2), (1, 1, 1, -1, -2), (1, 0, 0, 0, -1)],
}


def _random_homogeneous(rng: random.Random, nvars: int, degree: int) -> Polynomial:
    monos = monomials_of_degree(nvars, degree)
    picked = rng.sample(monos, min(4, len(monos)))
    out = Polynomial.zero(nvars)
    for m in picked:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + Polynomial(nvars, {m: c})
    return out


def corpus_ideals() -> list[tuple[str, HomogeneousIdeal]]:
    """>= 20 homogeneous ideals in <= 5 variables: principal, monomial,
    twisted cubic, conics and seeded random complete intersections."""
    x, y, z = (V(3, i) for i in range(3))
    x4, y4, z4, w4 = (V(4, i) for i in range(4))
    out: list[tuple[str, HomogeneousIdeal]] = [
        ("principal-x", HomogeneousIdeal(3, [x])),
        ("conic", HomogeneousIdeal(3, [x * z - y * y])),
        ("principal-quadric", HomogeneousIdeal(3, [x * x + y * y + z * z])),
        ("two-lines", HomogeneousIdeal(3, [x * y])),
        ("linear-pair", HomogeneousIdeal(3, [x, y])),
        ("fermat-cubic", HomogeneousIdeal(3, [x ** 3 + y ** 3 + z ** 3])),
        ("nodal-cubic", HomogeneousIdeal(3, [y * y * z - x * x * (x + z)])),
        ("monomial-mixed", HomogeneousIdeal(3, [x * x, y * z])),
        ("four-points", HomogeneousIdeal(3, [x * y - x * z, x * z - y * z])),
        ("twisted-cubic", twisted_cubic()),
        ("quadric-surface", HomogeneousIdeal(4, [x4 * w4 - y4 * z4])),
        ("cone-over-conic", HomogeneousIdeal(4, [y4 * w4 - z4 * z4])),
        ("two-quadrics", HomogeneousIdeal(4, [x4 * y4 - z4 * w4, x4 * z4 - y4 * w4])),
        ("line-in-p3", HomogeneousIdeal(4, [x4, y4])),
        ("monomial-p3", HomogeneousIdeal(4, [x4 * y4, z4 ** 2])),
    ]
    rng = random.Random(20260824)
    for k, (nvars, degrees) in enumerate(
        [(3, (2, 2)), (3, (2, 3)), (4, (2, 2)), (4, (1, 2)), (5, (1, 2)), (5, (2, 2))]
    ):
        gens = [_random_homogeneous(rng, nvars, d) for d in degrees]
        gens = [g for g in gens if not g.is_zero]
        out.append((f"random-ci-{k}", HomogeneousIdeal(nvars, gens)))
    return out


@st.composite
def small_ideals_with_weights(draw) -> tuple[HomogeneousIdeal, OnePS]:
    """1-3 generators of 1-3 terms and degree <= 3 in 2-4 variables, with
    an sl-normalized weight vector. Weights in [-2, 2] often give two
    terms one weight, so fixed ideals that are not monomial come up."""
    n = draw(st.integers(2, 4))
    head = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(n, draw(st.integers(1, 3)))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coeffs = st.sampled_from([-2, -1, 1, 2])
        gens.append(Polynomial(n, {m: draw(coeffs) for m in support}))
    return HomogeneousIdeal(n, gens), OnePS((*head, -sum(head)))


def corpus_pairs() -> list[tuple[str, HomogeneousIdeal, OnePS]]:
    """Every corpus ideal crossed with >= 3 weight vectors."""
    out = []
    for name, ideal in corpus_ideals():
        for w in CORPUS_WEIGHTS[ideal.nvars]:
            out.append((f"{name}/{w}", ideal, OnePS(w)))
    return out


# -- flag corpus -------------------------------------------------------
#
# Flags at (n, dimV, d) in {(1,3,3), (1,3,4)}: plane curves in variables
# (x, y, v1) meeting the line v1 = 0 in d distinct rational points in
# general position.  f = (product of distinct binary forms in x, y) + v1^d.


def _binary_product(roots: list[tuple[int, int]]) -> Polynomial:
    """Product of the linear forms b*x - a*y for each root (a : b)."""
    x, y = V(3, 0), V(3, 1)
    out = Polynomial.constant(3, 1)
    for a, b in roots:
        out = out * (b * x - a * y)
    return out


def make_curve_flag(roots: list[tuple[int, int]]) -> HyperplanarFlag:
    d = len(roots)
    v1 = V(3, 2)
    f = _binary_product(roots) + v1 ** d
    pts = PointConfiguration.from_coords([(a, b) for a, b in roots])
    return HyperplanarFlag(1, 3, HomogeneousIdeal(3, [f]), pts)


CUBIC_ROOTS = [
    [(1, 0), (0, 1), (1, -1)],
    [(1, 0), (0, 1), (1, 1)],
    [(1, 0), (0, 1), (2, -1)],
]
QUARTIC_ROOTS = [
    [(1, 0), (0, 1), (1, 1), (1, -1)],
    [(1, 0), (0, 1), (1, -1), (1, -2)],
    [(1, 0), (0, 1), (1, 1), (2, -1)],
]


def flag_corpus() -> list[tuple[str, int, HyperplanarFlag]]:
    out = []
    for k, roots in enumerate(CUBIC_ROOTS):
        out.append((f"cubic-{k}", 3, make_curve_flag(roots)))
    for k, roots in enumerate(QUARTIC_ROOTS):
        out.append((f"quartic-{k}", 4, make_curve_flag(roots)))
    return out


@pytest.fixture(scope="session")
def cubic_flag() -> HyperplanarFlag:
    return make_curve_flag(CUBIC_ROOTS[0])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line-per-criterion acceptance results."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
