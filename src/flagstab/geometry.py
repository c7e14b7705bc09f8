"""Flat limits, the limit-equals-join check, and the smoothness and
non-degeneracy predicates.

Weight-vector sign convention: `flat_limit` keeps the terms of minimal
weight under the stored weights. When a degeneration is specified by
weights on *vectors* (a on U, b on W, with a < b pulling the limit onto
the join), the corresponding stored weights are the negatives; the
helpers here perform that negation at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .groebner import (
    buchberger,
    canonical_generators,
    degree_columns,
    degree_echelon,
    eliminate,
)
from .hilbert import hilbert_series
from .poly import (
    GRLEX,
    HomogeneousIdeal,
    OnePS,
    Polynomial,
    initial_part,
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


class LimitMismatch(RuntimeError):
    """A cross-check of a flat limit failed: two independent computations
    of the same limit disagreed."""


def flat_limit(ideal: HomogeneousIdeal, lam: OnePS) -> HomogeneousIdeal:
    """Ideal of the limit subscheme: the initial parts of the reduced
    Groebner basis under the weight-refined order.

    They are the reduced graded-lex basis of the limit, already in
    canonical form (Sturmfels, "Groebner bases and convex polytopes",
    1996, Prop. 1.13). Each initial part keeps its element's leading
    term, and its other terms are terms of a reduced basis element.
    """
    gb = buchberger(ideal, lam)
    return HomogeneousIdeal(ideal.nvars, [initial_part(g, lam) for g in gb.basis])


# Columns of the degreewise oracle over all its degrees: 4 variables up
# to degree 6 take 210, 8 variables up to degree 20 take 3 108 105
MAX_ORACLE_COLUMNS = 100_000


def flat_limit_oracle(
    ideal: HomogeneousIdeal, lam: OnePS, degree_bound: int
) -> HomogeneousIdeal:
    """Groebner-free degreewise ground truth for flat_limit.

    For each degree, row-reduces I_d with columns sorted by ascending
    weight; the initial parts of the fully reduced rows span the
    degree-d slice of the initial ideal. The degrees 0, ..., B have
    sum_d C(N + d - 1, d) = C(N + B, B) columns in N variables, refused
    with a `ValueError` past `MAX_ORACLE_COLUMNS`.
    """
    if degree_bound < ideal.max_generator_degree():
        raise ValueError("degree bound below the maximum generator degree")
    count = comb(ideal.nvars + degree_bound, degree_bound)
    if count > MAX_ORACLE_COLUMNS:
        bound = f"up to degree {degree_bound}"
        raise ValueError(f"{count} oracle columns {bound} exceed the cap of {MAX_ORACLE_COLUMNS}")
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


def projection_dominant(ideal: HomogeneousIdeal, split: Splitting) -> bool:
    """True iff the projection away from P(W) onto P(U) is dominant,
    i.e. the ideal meets the U-subring trivially."""
    if ideal.is_zero:
        return True
    return eliminate(ideal, keep=split.u_vars).is_zero


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
    # the join's ideal: the generators with U set to zero, in the full ring
    y_gens = [g.substitute_zero(split.u_vars) for g in ideal.generators]
    join = canonical_generators(HomogeneousIdeal(split.nvars, y_gens))
    stored = [0] * split.nvars
    for i in split.u_vars:
        stored[i] = -a
    for i in split.w_vars:
        stored[i] = -b
    limit = flat_limit(ideal, OnePS(tuple(stored)))
    ok = limit == join  # two reduced graded-lex bases
    return JoinCheckReport(ok, True, limit, join, "" if ok else "limit differs from join")


# Jacobian minors: C(m, c) * C(nvars, c) for m generators, counted before
# any is built; the rational normal sextic flag asks for 63 063 of them
MAX_MINORS = 100_000


def _jacobian_minors(ideal: HomogeneousIdeal, c: int) -> list[Polynomial]:
    """The nonzero c x c minors of the Jacobian matrix of the generators,
    refused with a `ValueError` when there are more than `MAX_MINORS`.

    One Laplace sweep per set of c rows r_0, ..., r_(c-1) builds the
    minors on every column set S from M(()) = 1, expanding along row r_k:
    M(S) = sum_p (-1)^(k+p) J[r_k][S_p] M(S minus S_p) for |S| = k + 1.
    """
    n = ideal.nvars
    count = comb(len(ideal.generators), c) * comb(n, c)
    if count > MAX_MINORS:
        raise ValueError(f"{count} Jacobian minors of size {c} exceed the cap of {MAX_MINORS}")
    jac = [[g.partial(j) for j in range(n)] for g in ideal.generators]
    minors = []
    for rows in combinations(jac, c):
        level = {(): Polynomial.constant(n, 1)}  # the nonzero minors on the rows so far
        for k, row in enumerate(rows):
            below, level = level, {}
            for s in combinations(range(n), k + 1):
                m = Polynomial.zero(n)
                for p, j in enumerate(s):
                    rest = below.get(s[:p] + s[p + 1 :])
                    if rest is not None and not row[j].is_zero:
                        m = m + row[j] * rest * (-1) ** (k + p)
                if not m.is_zero:
                    level[s] = m
        minors += level.values()
    return minors


def singular_locus_empty(ideal: HomogeneousIdeal) -> bool:
    """Jacobian criterion: True iff I plus the c x c minors of the Jacobian
    (c the codimension) cuts out the empty scheme, that is iff the leads of
    its reduced basis hold a power of every variable (a constant lead, the
    unit ideal, is a power of each; Cox-Little-O'Shea, "Ideals, Varieties,
    and Algorithms", ch. 5 par. 3, the finiteness theorem)."""
    c = (ideal.nvars - 1) - hilbert_series(ideal).dimension
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
