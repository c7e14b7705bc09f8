"""Hyperplanar admissible flags, their validation, flag limits under the
staged degenerations, stage weights, and the per-stage stability checks.

A flag is stored by its top ideal together with the standard coordinate
flag: the last n variables of the ring are the flag coordinates
v_1, ..., v_n, and the i-th stratum is cut out by v_{i+1} = ... = v_n = 0.
Lower strata are always derived from the top ideal, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import LimitMismatch, flat_limit, is_nondegenerate, singular_locus_empty
from .groebner import canonical_generators, restrict_to_variables
from .hilbert import (
    PointConfiguration,
    chow_points_stability,
    chow_weight_numeric,
    hilbert_series,
)
from .parabolic import GradedOnePS, configuration_unipotent_stabilizer_dim, stage_data
from .poly import HomogeneousIdeal, OnePS, Polynomial


def _check_length(n: int, dim_v: int) -> None:
    if n < 1:
        raise ValueError("flag length must be at least 1")
    if n + 1 >= dim_v:
        raise ValueError("requires n + 1 < dim V")


@dataclass(frozen=True)
class HyperplanarFlag:
    """Chain X^0 subset ... subset X^n cut from X^n by coordinate
    hyperplanes; the last n variables are the flag coordinates."""

    n: int
    dim_v: int
    top_ideal: HomogeneousIdeal
    points0: PointConfiguration | None = None

    def __post_init__(self) -> None:
        _check_length(self.n, self.dim_v)
        if self.top_ideal.nvars != self.dim_v:
            raise ValueError("top ideal must live in dim V variables")
        if self.points0 is not None and self.points0.dim_w != self.dim_v - self.n:
            raise ValueError("points of X^0 must have dim W coordinates")

    @property
    def dim_w(self) -> int:
        return self.dim_v - self.n

    def cut_vars(self, i: int) -> tuple[int, ...]:
        """Variable indices of v_{i+1}, ..., v_n."""
        if not 0 <= i <= self.n:
            raise ValueError(f"stratum must satisfy 0 <= i <= {self.n}")
        return tuple(range(self.dim_w + i, self.dim_v))

    def stratum_ideal(self, i: int) -> HomogeneousIdeal:
        """I(X^i) in the full ring: the top generators with the high flag
        coordinates set to zero, plus those coordinates themselves."""
        cut = self.cut_vars(i)
        if not cut:
            return self.top_ideal
        gens = [g.substitute_zero(cut) for g in self.top_ideal.generators]
        gens += [Polynomial.variable(self.dim_v, v) for v in cut]
        return HomogeneousIdeal(self.dim_v, gens)

    def stratum_subring_ideal(self, i: int) -> HomogeneousIdeal:
        """I(X^i) as an ideal of the coordinate ring of P(Z^i)."""
        cut = self.cut_vars(i)
        gens = [g.substitute_zero(cut) for g in self.top_ideal.generators]
        keep = [v for v in range(self.dim_v) if v not in cut]
        return restrict_to_variables(HomogeneousIdeal(self.dim_v, gens), keep)

    def configuration(self) -> "FlagConfiguration":
        return FlagConfiguration(tuple(self.stratum_ideal(i) for i in range(self.n + 1)))


@dataclass(frozen=True)
class FlagConfiguration:
    """A tuple of n+1 stratum ideals in the full ring, each held by its
    reduced graded-lex basis, so equal configurations compare equal; limits
    of flags live here, since they are generally no longer of the derived form."""

    strata: tuple[HomogeneousIdeal, ...]

    def __post_init__(self) -> None:
        if len(self.strata) < 2:
            raise ValueError("a configuration needs at least two strata")
        if len({s.nvars for s in self.strata}) != 1:
            raise ValueError("strata must share one ambient ring")
        object.__setattr__(self, "strata", tuple(map(canonical_generators, self.strata)))


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    reasons: tuple[str, ...]
    excluded: tuple[Fraction, ...]


def degree_admissible(n: int, d: int, dim_v: int) -> AdmissibilityResult:
    """d must exceed dim V - n and avoid the finitely many ratios
    (dim V - n - 1 + i)/(n + 1 - i) for i = 1..n."""
    _check_length(n, dim_v)
    excluded = tuple(
        sorted({Fraction(dim_v - n - 1 + i, n + 1 - i) for i in range(1, n + 1)})
    )
    reasons = []
    if d <= dim_v - n:
        reasons.append(f"d = {d} must exceed dim V - n = {dim_v - n}")
    if Fraction(d) in excluded:
        reasons.append(f"d = {d} lies in the excluded set {[str(e) for e in excluded]}")
    return AdmissibilityResult(not reasons, tuple(reasons), excluded)


def standard_grading(flag: HyperplanarFlag) -> GradedOnePS:
    return GradedOnePS.standard((flag.dim_w,) + (1,) * flag.n)


def _flag_grading(flag: HyperplanarFlag, g: GradedOnePS | None) -> GradedOnePS:
    """g, by default the standard grading, once its shape fits the flag."""
    if g is None:
        g = standard_grading(flag)
    if g.multiplicities != (flag.dim_w,) + (1,) * flag.n:
        raise ValueError("grading multiplicities must be (dim W, 1, ..., 1)")
    return g


def flag_limit(
    flag: HyperplanarFlag,
    i: int,
    g: GradedOnePS | None = None,
    check: bool = False,
) -> FlagConfiguration:
    """Limit configuration at stage i: strata below i are unchanged,
    stratum j >= i becomes the join of X^{i-1} with the coordinate span
    of v_i, ..., v_j.

    With check=True each stratum is recomputed as a flat limit under the
    stage-i two-weight degeneration; a mismatch is a hard error.
    """
    sd = stage_data(_flag_grading(flag, g), i)  # checks 1 <= i <= n
    base = flag.stratum_ideal
    strata = [base(j) for j in range(i)]
    section = [g_.substitute_zero(flag.cut_vars(i - 1)) for g_ in flag.top_ideal.generators]
    for j in range(i, flag.n + 1):
        gens = section + [Polynomial.variable(flag.dim_v, v) for v in flag.cut_vars(j)]
        strata.append(HomogeneousIdeal(flag.dim_v, gens))
    limit = FlagConfiguration(tuple(strata))
    if check:
        # vector weights b on Z^{i-1} and a on the v's, a < b; the
        # degeneration order stores the negatives
        lam = OnePS(tuple(-w for w in sd.lambda_bracket.weights))
        # the flat limit is a reduced graded-lex basis, like each stratum
        for j in range(flag.n + 1):
            if flat_limit(base(j), lam) != limit.strata[j]:
                raise LimitMismatch(f"stage {i}, stratum {j}: flat limit disagrees with the join")
    return limit


def flag_stage_weight(n: int, d: int, g: GradedOnePS, i: int, a0: int) -> Fraction:
    """Closed-form stage-i weight of any flag with these parameters."""
    if a0 <= 0:
        raise ValueError("a0 must be positive")
    adm = degree_admissible(n, d, g.size)
    if not adm.ok:
        raise ValueError("inadmissible degree: " + "; ".join(adm.reasons))
    sd = stage_data(g, i)
    b_le, b_gt = sd.beta_le, sd.beta_gt

    def caseweight(j: int) -> Fraction:
        if j > 2 * i - 1:
            return b_gt * (j - i + 1)
        if j < 2 * i - 1:
            return b_le * d * i
        return i * (b_gt + d * b_le)

    total = a0 * b_le * d
    total += sum((b_le * d * (j + 1) for j in range(1, i)), Fraction(0))
    total += sum((caseweight(j) for j in range(i, n + 1)), Fraction(0))
    return total


@dataclass(frozen=True)
class FlagValidationReport:
    degree: int
    dimensions_ok: bool
    nondegenerate: bool
    smooth: dict[int, bool]  # strata 1..n
    points_reduced: bool | None  # None: no point certificate supplied
    point_stability: str | None  # verdict, or None when inconclusive
    connectedness: str  # always "unchecked"
    hilbert_type: tuple[tuple[Fraction, ...], ...]
    ok: bool | None


def _conjunction(legs) -> bool | None:
    """Three-valued and, with None for undecided: the least leg under False < None < True."""
    return min(legs, key=(False, None, True).index, default=True)


def validate_flag(flag: HyperplanarFlag) -> FlagValidationReport:
    """Check the defining predicates of an admissible flag stratumwise."""
    strata = [flag.stratum_subring_ideal(i) for i in range(flag.n + 1)]
    data = [hilbert_series(ideal) for ideal in strata]
    degree = data[-1].degree
    dimensions_ok = all(hs.dimension == i for i, hs in enumerate(data)) and all(
        hs.degree == degree for hs in data
    )
    nondeg = all(is_nondegenerate(ideal) for ideal in strata)
    smooth = {
        i: data[i].dimension == i and singular_locus_empty(strata[i]) for i in range(1, flag.n + 1)
    }

    points_reduced: bool | None = None
    point_stability: str | None = None
    if data[0].dimension != 0:
        points_reduced = False
    elif flag.points0 is not None:
        pts = flag.points0
        on_scheme = all(
            g.evaluate(p) == 0 for g in strata[0].generators for p in pts.points
        )
        distinct = len(set(pts.points)) == pts.length
        points_reduced = on_scheme and distinct and pts.length == degree
        if points_reduced:
            point_stability = chow_points_stability(pts).verdict

    hilbert_type = tuple(hs.polynomial() for hs in data)
    legs = [dimensions_ok, nondeg, *smooth.values(), points_reduced]
    legs.append(None if point_stability is None else point_stability == "stable")
    return FlagValidationReport(
        degree,
        dimensions_ok,
        nondeg,
        smooth,
        points_reduced,
        point_stability,
        "unchecked",
        hilbert_type,
        _conjunction(legs),
    )


@dataclass(frozen=True)
class StageCheck:
    stage: int
    weight: Fraction
    expected_weight: Fraction
    weight_matches_family_constant: bool
    lie_stabilizer_dim: int
    point_stability: str | None  # only consulted at stage 1
    sweep_excluded: bool
    passed: bool | None


@dataclass(frozen=True)
class StabilityReport:
    stages: tuple[StageCheck, ...]
    verdict: str  # "stable" | "unstable" | "inconclusive"

    @classmethod
    def of(cls, stages: tuple[StageCheck, ...]) -> "StabilityReport":
        """The report whose verdict is the conjunction of the stages."""
        passed = _conjunction(s.passed for s in stages)
        return cls(stages, {True: "stable", None: "inconclusive", False: "unstable"}[passed])


def nrgit_stage_check(
    flag: HyperplanarFlag,
    i: int,
    g: GradedOnePS | None = None,
    a0: int | None = None,
    check: bool = False,
) -> StageCheck:
    """The three stage-i conditions: the limit's weight matches the
    family constant; the limit configuration has trivial infinitesimal
    unipotent stabilizer (and, at stage 1, X^0 is a Chow-stable cycle);
    and the flag is not fixed by the stage retraction."""
    g = _flag_grading(flag, g)
    sd = stage_data(g, i)
    limit = flag_limit(flag, i, g, check=check)
    # X^0 is the same at every stage; the Chow weight reads its basis too
    d = hilbert_series(limit.strata[0]).degree
    if a0 is None:
        a0 = 10 * flag.n * d
    lam = sd.lambda_bracket
    numeric = a0 * chow_weight_numeric(limit.strata[0], lam)
    for j in range(1, flag.n + 1):
        numeric += chow_weight_numeric(limit.strata[j], lam)
    numeric = Fraction(numeric, sd.scale)
    expected = flag_stage_weight(flag.n, d, g, i, a0)
    weight_ok = numeric == expected

    stab_dim = configuration_unipotent_stabilizer_dim(limit.strata, g, i)

    point_stability: str | None = None
    if i == 1 and flag.points0 is not None:
        point_stability = chow_points_stability(flag.points0).verdict

    sweep_excluded = limit != flag.configuration()

    legs = [weight_ok, stab_dim == 0, sweep_excluded]
    if i == 1:
        legs.append(None if point_stability is None else point_stability == "stable")
    passed = _conjunction(legs)
    return StageCheck(
        i, numeric, expected, weight_ok, stab_dim, point_stability, sweep_excluded, passed
    )


def check_flag_stability(
    flag: HyperplanarFlag,
    g: GradedOnePS | None = None,
    a0: int | None = None,
    check: bool = False,
) -> StabilityReport:
    """Run every stage check; the verdict is their conjunction."""
    return StabilityReport.of(
        tuple(nrgit_stage_check(flag, i, g, a0, check=check) for i in range(1, flag.n + 1))
    )
