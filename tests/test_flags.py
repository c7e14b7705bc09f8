"""Hyperplanar flags: admissibility, validation, limits, stage weights
and the per-stage stability checks."""

import random
from fractions import Fraction

import pytest

from flagstab import (
    GradedOnePS,
    HomogeneousIdeal,
    HyperplanarFlag,
    Polynomial,
    check_flag_stability,
    degree_admissible,
    flag_limit,
    flag_stage_weight,
    nrgit_stage_check,
    standard_grading,
    validate_flag,
)
from flagstab.hilbert import PointConfiguration

from conftest import V, make_curve_flag, CUBIC_ROOTS, QUARTIC_ROOTS


G = GradedOnePS((1, -2), (2, 1))  # the standard grading for n = 1, dim V = 3


class TestDegreeAdmissible:
    def test_cubic_in_p2(self):
        adm = degree_admissible(1, 3, 3)
        assert adm.ok
        assert adm.excluded == (Fraction(2),)

    def test_degree_too_small(self):
        adm = degree_admissible(1, 2, 3)
        assert not adm.ok
        assert any("must exceed" in r for r in adm.reasons)

    def test_excluded_degree(self):
        adm = degree_admissible(2, 3, 4)
        assert not adm.ok
        assert Fraction(3) in adm.excluded
        assert any("excluded" in r for r in adm.reasons)

    def test_quartic_in_p2(self):
        assert degree_admissible(1, 4, 3).ok

    def test_structural_preconditions(self):
        with pytest.raises(ValueError):
            degree_admissible(0, 3, 3)
        with pytest.raises(ValueError):
            degree_admissible(2, 3, 3)


class TestHyperplanarFlag:
    def test_requires_room_for_the_flag(self):
        with pytest.raises(ValueError):
            HyperplanarFlag(2, 3, HomogeneousIdeal(3, [V(3, 0) ** 2]))

    def test_strata_of_the_cubic_flag(self, cubic_flag):
        x, y, v1 = (V(3, i) for i in range(3))
        assert cubic_flag.stratum_ideal(1) == cubic_flag.top_ideal
        s0 = cubic_flag.stratum_ideal(0)
        assert s0 == HomogeneousIdeal(3, [x * y * (x + y), v1])
        small = cubic_flag.stratum_subring_ideal(0)
        assert small == HomogeneousIdeal(2, [V(2, 0) * V(2, 1) * (V(2, 0) + V(2, 1))])

    @pytest.mark.parametrize("i", [-1, 2])
    def test_stratum_index_out_of_range(self, cubic_flag, i):
        for stratum in (cubic_flag.stratum_ideal, cubic_flag.stratum_subring_ideal):
            with pytest.raises(ValueError, match="stratum must satisfy 0 <= i <= 1"):
                stratum(i)


class TestValidateFlag:
    def test_cubic_flag_passes(self, cubic_flag):
        report = validate_flag(cubic_flag)
        assert report.ok is True
        assert report.degree == 3
        assert report.dimensions_ok
        assert report.nondegenerate
        assert report.smooth == {1: True}
        assert report.points_reduced is True
        assert report.point_stability == "stable"
        assert report.connectedness == "unchecked"
        assert report.hilbert_type[0] == (Fraction(3),)

    def test_quartic_flag_passes(self):
        report = validate_flag(make_curve_flag(QUARTIC_ROOTS[0]))
        assert report.ok is True
        assert report.degree == 4

    def test_tangent_section_fails(self):
        # x^2*y + v1^3 meets v1 = 0 in a double point: X^0 not reduced
        x, y, v1 = (V(3, i) for i in range(3))
        flag = HyperplanarFlag(
            1,
            3,
            HomogeneousIdeal(3, [x * x * y + v1 ** 3]),
            PointConfiguration.from_coords([(1, 0), (0, 1)]),
        )
        report = validate_flag(flag)
        assert report.points_reduced is False
        assert report.ok is False

    def test_surface_given_as_curve_flag(self):
        # x0^5 + x1^5 + x2^5 + v1^5 with n = 1: X^0 is the plane quintic
        # curve, not points, so the points are refused without being read
        x0, x1, x2, v1 = (V(4, i) for i in range(4))
        flag = HyperplanarFlag(
            1,
            4,
            HomogeneousIdeal(4, [x0**5 + x1**5 + x2**5 + v1**5]),
            PointConfiguration.from_coords([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        )
        report = validate_flag(flag)
        assert report.hilbert_type[0] == (Fraction(-5), Fraction(5))  # 5m - 5
        assert report.dimensions_ok is False
        assert report.points_reduced is False
        assert report.point_stability is None
        assert report.ok is False

    def test_degenerate_stratum_fails_nondegeneracy(self):
        flag = HyperplanarFlag(1, 3, HomogeneousIdeal(3, [V(3, 0)]))
        report = validate_flag(flag)
        assert not report.nondegenerate
        assert report.ok is False

    def test_missing_points_is_inconclusive(self):
        x, y, v1 = (V(3, i) for i in range(3))
        flag = HyperplanarFlag(1, 3, HomogeneousIdeal(3, [x * x * y + x * y * y + v1 ** 3]))
        report = validate_flag(flag)
        assert report.point_stability is None
        assert report.ok is None


class TestFlagLimit:
    def test_cubic_limit_is_three_concurrent_lines(self, cubic_flag):
        x, y, v1 = (V(3, i) for i in range(3))
        limit = flag_limit(cubic_flag, 1)
        assert limit.strata[0] == HomogeneousIdeal(3, [x * y * (x + y), v1])
        assert limit.strata[1] == HomogeneousIdeal(3, [x * y * (x + y)])

    def test_cross_check_against_flat_limit(self, cubic_flag):
        flag_limit(cubic_flag, 1, check=True)  # raises on mismatch

    def test_idempotence(self, cubic_flag):
        limit = flag_limit(cubic_flag, 1)
        # the limit's top stratum is again of derived form; degenerating
        # it once more changes nothing
        again = HyperplanarFlag(1, 3, limit.strata[1])
        assert flag_limit(again, 1) == limit

    def test_join_configuration_is_fixed(self):
        x, y = V(3, 0), V(3, 1)
        joinflag = HyperplanarFlag(1, 3, HomogeneousIdeal(3, [x * y * (x + y)]))
        assert flag_limit(joinflag, 1) == joinflag.configuration()

    def test_stage_out_of_range(self, cubic_flag):
        with pytest.raises(ValueError):
            flag_limit(cubic_flag, 2)


class TestFlagStageWeight:
    def test_worked_value(self):
        assert flag_stage_weight(1, 3, G, 1, 5) == 16

    def test_quartic_value(self):
        # a0*b_le*d + i*(b_gt + d*b_le) = 5*4 + (-2 + 4) = 22
        assert flag_stage_weight(1, 4, G, 1, 5) == 22

    def test_two_stage_assembly(self):
        # n = 2: caseweight(1) is the equal case, caseweight(2) the
        # j > 2i-1 case
        g = GradedOnePS.standard((3, 1, 1))
        d = 5
        assert degree_admissible(2, d, 5).ok
        w = flag_stage_weight(2, d, g, 1, 7)
        from flagstab.parabolic import stage_data

        sd = stage_data(g, 1)
        expected = (
            7 * sd.beta_le * d
            + 1 * (sd.beta_gt + d * sd.beta_le)
            + sd.beta_gt * 2
        )
        assert w == expected

    def test_inadmissible_degree_rejected(self):
        with pytest.raises(ValueError):
            flag_stage_weight(1, 2, G, 1, 5)

    def test_requires_positive_a0(self):
        with pytest.raises(ValueError):
            flag_stage_weight(1, 3, G, 1, 0)

    def test_constancy_across_flags(self):
        # same (n, d, dimV, beta, a0): the numeric stage weight agrees
        # for different flags
        checks = [
            nrgit_stage_check(make_curve_flag(roots), 1, G, 5)
            for roots in CUBIC_ROOTS[:2]
        ]
        assert checks[0].weight == checks[1].weight == 16


class TestNrgitStageCheck:
    def test_cubic_flag_passes(self, cubic_flag):
        check = nrgit_stage_check(cubic_flag, 1, G, 5)
        assert check.passed is True
        assert check.weight == check.expected_weight == 16
        assert check.lie_stabilizer_dim == 0
        assert check.point_stability == "stable"
        assert check.sweep_excluded

    def test_default_a0(self, cubic_flag):
        check = nrgit_stage_check(cubic_flag, 1)
        # a0 defaults to 10*n*d = 30; weight = 30*3 + 1
        assert check.expected_weight == 91
        assert check.passed is True

    def test_coincident_points_fail(self):
        x, y, v1 = (V(3, i) for i in range(3))
        flag = HyperplanarFlag(
            1,
            3,
            HomogeneousIdeal(3, [x * x * y + v1 ** 3]),
            PointConfiguration.from_coords([(1, 0), (1, 0), (0, 1)]),
        )
        check = nrgit_stage_check(flag, 1, G, 5)
        assert check.point_stability == "unstable"
        assert check.passed is False

    def test_join_configuration_is_in_the_sweep(self):
        x, y = V(3, 0), V(3, 1)
        joinflag = HyperplanarFlag(
            1,
            3,
            HomogeneousIdeal(3, [x * y * (x + y)]),
            PointConfiguration.from_coords([(1, 0), (0, 1), (1, -1)]),
        )
        check = nrgit_stage_check(joinflag, 1, G, 5)
        assert check.sweep_excluded is False
        assert check.passed is False

    def test_wrong_multiplicities_rejected(self, cubic_flag):
        with pytest.raises(ValueError):
            nrgit_stage_check(cubic_flag, 1, GradedOnePS((1, -1), (1, 2)), 5)


class TestCheckFlagStability:
    def test_cubic_flag_stable(self, cubic_flag):
        report = check_flag_stability(cubic_flag, G, 5)
        assert report.verdict == "stable"
        assert len(report.stages) == 1

    def test_missing_points_inconclusive(self):
        x, y, v1 = (V(3, i) for i in range(3))
        flag = HyperplanarFlag(1, 3, HomogeneousIdeal(3, [x * x * y + x * y * y + v1 ** 3]))
        report = check_flag_stability(flag, G, 5)
        assert report.verdict == "inconclusive"



# -- the stage pipeline under a change of coordinates that keeps the flag


def _solve(a: list[list[int]], b) -> list[Fraction] | None:
    """The p with a p = b over Q, by Gauss-Jordan elimination; None when
    a is singular."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(c)] for row, c in zip(a, b)]
    for j in range(n):
        p = next((i for i in range(j, n) if m[i][j]), None)
        if p is None:
            return None
        m[j], m[p] = m[p], m[j]
        m[j] = [v / m[j][j] for v in m[j]]
        for i in range(n):
            if i != j:
                m[i] = [u - m[i][j] * v for u, v in zip(m[i], m[j])]
    return [row[n] for row in m]


def _substitute(f: Polynomial, images: list[Polynomial]) -> Polynomial:
    """f with each variable replaced by its image."""
    out = Polynomial.zero(f.nvars)
    for m, c in f.terms.items():
        term = Polynomial.constant(f.nvars, c)
        for image, e in zip(images, m):
            term = term * image**e
        out = out + term
    return out


def _moved_flag(flag: HyperplanarFlag, rng: random.Random) -> HyperplanarFlag:
    """The flag under a seeded linear change of coordinates that keeps
    every stratum's coordinate subspace: each x_i goes to a linear form in
    all the variables, with an invertible W block, and each v_k to a form
    in v_k, ..., v_n with a nonzero v_k coefficient. The points of X^0
    move by the inverse of the W block."""
    nv, w = flag.dim_v, flag.dim_w
    small = (-2, -1, 0, 1, 2)
    while True:
        rows = [[rng.choice(small) for _ in range(nv)] for _ in range(w)]
        block = [row[:w] for row in rows]
        if _solve(block, [0] * w) is not None:
            break
    for k in range(w, nv):
        tail = [rng.choice(small) for _ in range(k + 1, nv)]
        rows.append([0] * k + [rng.choice((-2, -1, 1, 2))] + tail)
    images = [sum((c * V(nv, j) for j, c in enumerate(row)), Polynomial.zero(nv)) for row in rows]
    top = HomogeneousIdeal(nv, [_substitute(g, images) for g in flag.top_ideal.generators])
    points = None
    if flag.points0 is not None:
        points = PointConfiguration.from_coords([_solve(block, p) for p in flag.points0.points])
    return HyperplanarFlag(flag.n, nv, top, points)


def _metamorphic_cases() -> list:
    """(flag, grading, a0, number of coordinate changes): the golden plane
    cubic, a quartic surface flag and an n = 3 cubic threefold flag."""
    cubic = make_curve_flag(CUBIC_ROOTS[0])  # x^2*y + x*y^2 + v1^3
    x, y, v1, v2 = (V(4, i) for i in range(4))
    surface = HyperplanarFlag(
        2, 4, HomogeneousIdeal(4, [x * y * (x - y) * (x - 2 * y) + v1**4 - 2 * v2**4]),
        PointConfiguration.from_coords([(1, 0), (0, 1), (1, 1), (1, 2)]),
    )
    x0, x1, v1, v2, v3 = (V(5, i) for i in range(5))
    threefold = HyperplanarFlag(
        3, 5, HomogeneousIdeal(5, [x0**3 + x1**3 + v1**3 + v2**3 + v3**3 + x0 * v1 * v3])
    )
    return [
        pytest.param(cubic, G, 5, 30, id="cubic-n1"),
        pytest.param(surface, GradedOnePS((3, -2, -4), (2, 1, 1)), 5, 8, id="quartic-n2"),
        pytest.param(threefold, None, None, 8, id="cubic-n3"),
    ]


@pytest.mark.parametrize("flag, g, a0, count", _metamorphic_cases())
def test_stage_checks_keep_under_flag_coordinate_changes(flag, g, a0, count):
    """Verdict, stage weights, stabilizer dimensions, point verdicts and
    sweep flags do not depend on the coordinates the flag is written in."""
    base = check_flag_stability(flag, g, a0, check=True)
    rng = random.Random(20261020 + flag.n)
    for _ in range(count):
        moved = _moved_flag(flag, rng)
        assert check_flag_stability(moved, g, a0, check=True) == base, moved.top_ideal


def test_standard_grading(cubic_flag):
    g = standard_grading(cubic_flag)
    assert g.multiplicities == (2, 1)
    assert g.weights == (1, -2)
