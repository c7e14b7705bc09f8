"""Flat limits, joins, linear sections, tangent spaces and the smoothness
and non-degeneracy predicates.

Weight-vector sign convention: `flat_limit` keeps the terms of minimal
weight under the stored weights. When a degeneration is specified by
weights on *vectors* (a on U, b on W, with a < b pulling the limit onto
the join), the corresponding stored weights are the negatives; the
helpers here perform that negation at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import rank_of_rows
from .groebner import (
    buchberger,
    canonical_generators,
    degree_columns,
    degree_echelon,
    eliminate,
    restrict_to_variables,
)
from .hilbert import PreconditionError, hilbert_series, normalize_point
from .poly import (
    GRLEX,
    HomogeneousIdeal,
    OnePS,
    Polynomial,
    initial_part,
    weight_order,
)


@dataclass(frozen=True)
class Splitting:
    """Decomposition of the variable index set into U- and W-blocks."""

    nvars: int
    u_vars: tuple[int, ...]
    w_vars: tuple[int, ...]

    def __post_init__(self) -> None:
        u, w = set(self.u_vars), set(self.w_vars)
        if not u or not w:
            raise ValueError("both blocks of a splitting must be nonempty")
        if u & w or u | w != set(range(self.nvars)):
            raise ValueError("splitting blocks must partition the variables")


@dataclass(frozen=True)
class ProjectivePoint:
    coords: tuple[Fraction, ...]

    @classmethod
    def of(cls, coords) -> "ProjectivePoint":
        return cls(normalize_point(coords))


def flat_limit(ideal: HomogeneousIdeal, lam: OnePS) -> HomogeneousIdeal:
    """Ideal of the limit subscheme: the initial parts of the reduced
    Groebner basis under the weight-refined order.

    They are the reduced graded-lex basis of the limit, already in
    canonical form (Sturmfels, "Groebner bases and convex polytopes",
    1996, Prop. 1.13). Each initial part keeps its element's leading
    term, and its other terms are terms of a reduced basis element.
    """
    gb = buchberger(ideal, weight_order(lam))
    return HomogeneousIdeal(ideal.nvars, [initial_part(g, lam) for g in gb.basis])


def flat_limit_oracle(
    ideal: HomogeneousIdeal, lam: OnePS, degree_bound: int
) -> HomogeneousIdeal:
    """Groebner-free degreewise ground truth for flat_limit.

    For each degree, row-reduces I_d with columns sorted by ascending
    weight; the initial parts of the fully reduced rows span the
    degree-d slice of the initial ideal.
    """
    if degree_bound < ideal.max_generator_degree():
        raise ValueError("degree bound below the maximum generator degree")
    gens = []
    for d in range(degree_bound + 1):
        colkey = lambda m: (lam.weight(m), GRLEX.key(m))
        columns = degree_columns(ideal.nvars, d, colkey=colkey)
        by_index = {i: m for m, i in columns.items()}
        _, ech = degree_echelon(ideal, d, columns=columns)
        for row in ech.reduced_rows():
            poly = Polynomial(ideal.nvars, {by_index[c]: v for c, v in row.items()})
            gens.append(initial_part(poly, lam))
    return HomogeneousIdeal(ideal.nvars, gens)


def join_ideal(ideal_y: HomogeneousIdeal, split: Splitting) -> HomogeneousIdeal:
    """Ideal of the join of Y in P(W) with the linear space P(U):
    the generators of Y, reinterpreted in the full ring."""
    if ideal_y.nvars != len(split.w_vars):
        raise ValueError("ideal of Y must live in the W-variables")
    mapping = {i: v for i, v in enumerate(split.w_vars)}
    gens = [g.map_variables(mapping, split.nvars) for g in ideal_y.generators]
    return HomogeneousIdeal(split.nvars, gens)


def projection_dominant(ideal: HomogeneousIdeal, split: Splitting) -> bool:
    """True iff the projection away from P(W) onto P(U) is dominant,
    i.e. the ideal meets the U-subring trivially."""
    if ideal.is_zero:
        return True
    return eliminate(ideal, keep=split.u_vars).is_zero


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


@dataclass(frozen=True)
class JoinCheckReport:
    ok: bool
    dominant: bool
    limit: HomogeneousIdeal | None
    join: HomogeneousIdeal | None
    reason: str


def verify_limit_is_join(
    ideal: HomogeneousIdeal, split: Splitting, a: int, b: int
) -> JoinCheckReport:
    """Check that the two-weight flat limit equals the join of the
    W-section with P(U).

    a and b are the weights on vectors of U and W; a < b makes the limit
    collapse onto the join, so the degeneration order stores -a and -b.
    """
    if a >= b:
        return JoinCheckReport(False, False, None, None, "requires a < b")
    if not projection_dominant(ideal, split):
        return JoinCheckReport(
            False, False, None, None, "projection onto P(U) is not dominant"
        )
    _, y_ideal = coordinate_section(ideal, split.u_vars)
    join = canonical_generators(join_ideal(y_ideal, split))
    stored = [0] * split.nvars
    for i in split.u_vars:
        stored[i] = -a
    for i in split.w_vars:
        stored[i] = -b
    limit = flat_limit(ideal, OnePS(tuple(stored)))
    ok = limit == join  # two reduced graded-lex bases
    return JoinCheckReport(ok, True, limit, join, "" if ok else "limit differs from join")


def tangent_space_dim(ideal: HomogeneousIdeal, p: ProjectivePoint) -> int:
    """Dimension of the projective tangent space at a point of the scheme."""
    if len(p.coords) != ideal.nvars:
        raise ValueError("point length mismatch")
    for g in ideal.generators:
        if g.evaluate(p.coords) != 0:
            raise PreconditionError("point does not lie on the subscheme")
    rows = []
    for g in ideal.generators:
        row = {
            j: g.partial(j).evaluate(p.coords) for j in range(ideal.nvars)
        }
        rows.append({j: v for j, v in row.items() if v != 0})
    return (ideal.nvars - 1) - rank_of_rows(rows)


def _jacobian_minors(ideal: HomogeneousIdeal, c: int) -> list[Polynomial]:
    """All c x c minors of the Jacobian matrix of the generators."""
    from itertools import combinations

    gens = ideal.generators
    jac = [[g.partial(j) for j in range(ideal.nvars)] for g in gens]
    minors = []
    for rows in combinations(range(len(gens)), c):
        for cols in combinations(range(ideal.nvars), c):
            minors.append(_poly_det([[jac[r][j] for j in cols] for r in rows]))
    return [m for m in minors if not m.is_zero]


def _poly_det(matrix: list[list[Polynomial]]) -> Polynomial:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    nvars = matrix[0][0].nvars
    total = Polynomial.zero(nvars)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero:
            continue
        sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        cofactor = entry * _poly_det(sub)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def singular_locus_empty(ideal: HomogeneousIdeal, expected_dim: int) -> bool:
    """Jacobian criterion: True iff I plus the c x c minors of the Jacobian
    (c the codimension) cuts out the empty scheme, that is iff the leads of
    its reduced basis hold a power of every variable (a constant lead, the
    unit ideal, is a power of each; Cox-Little-O'Shea, "Ideals, Varieties,
    and Algorithms", ch. 5 par. 3, the finiteness theorem)."""
    dimension = hilbert_series(ideal).dimension
    if dimension != expected_dim:
        raise PreconditionError(f"ideal has dimension {dimension}, expected {expected_dim}")
    c = (ideal.nvars - 1) - expected_dim
    minors = _jacobian_minors(ideal, c)
    j_ideal = HomogeneousIdeal(ideal.nvars, list(ideal.generators) + minors)
    leads = buchberger(j_ideal, GRLEX).leading_monomials()
    supports = [{v for v, e in enumerate(lead) if e} for lead in leads]
    return all(any(s <= {v} for s in supports) for v in range(ideal.nvars))


def is_nondegenerate(ideal: HomogeneousIdeal) -> bool:
    """True iff the ideal contains no nonzero linear form. Generators
    are homogeneous, so I_1 is spanned by those of degree 1, or is
    everything when one is a nonzero constant."""
    return all(g.degree() > 1 for g in ideal.generators)
