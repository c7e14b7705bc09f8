"""Flat limits, joins, dominance, smoothness and non-degeneracy."""

import random
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings

from flagstab import (
    GRLEX,
    HomogeneousIdeal,
    HyperplanarFlag,
    OnePS,
    Polynomial,
    buchberger,
    flat_limit,
    flat_limit_oracle,
    hilbert_data,
    hilbert_function,
    ideal_equal,
    is_nondegenerate,
    monomials_of_degree,
    singular_locus_empty,
    validate_flag,
    verify_limit_is_join,
)
from flagstab import flags as flags_module
from flagstab import geometry, groebner
from flagstab.geometry import (
    MAX_MINORS,
    MAX_ORACLE_COLUMNS,
    Splitting,
    _jacobian_minors,
    projection_dominant,
)
from flagstab.cli import parse_document

from conftest import (
    V,
    coordinate_section,
    corpus_ideals,
    corpus_pairs,
    degree_dimension,
    flag_corpus,
    join_ideal,
    linear_section,
    small_ideals_with_weights,
    tangent_space_dim,
    twisted_cubic,
)

GOLDEN = Path(__file__).parent / "golden"


CONIC = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])


class TestFlatLimit:
    def test_equal_weights_fix_everything(self):
        for ideal in [CONIC, twisted_cubic()]:
            lam = OnePS((1,) * ideal.nvars)
            assert flat_limit(ideal, lam) == ideal

    def test_conic_degenerates_to_double_line(self):
        limit = flat_limit(CONIC, OnePS((2, -1, -1)))
        assert limit == HomogeneousIdeal(3, [V(3, 1) ** 2])

    def test_twisted_cubic_matches_oracle(self):
        lam = OnePS((1, 1, -1, -1))
        limit = flat_limit(twisted_cubic(), lam)
        oracle = flat_limit_oracle(twisted_cubic(), lam, 4)
        assert ideal_equal(limit, oracle)

    def test_fixed_point_law(self):
        lam = OnePS((2, -1, -1))
        limit = flat_limit(CONIC, lam)
        assert flat_limit(limit, lam) == limit

    def test_generators_are_the_reduced_grlex_basis_on_corpus(self):
        for name, ideal, lam in corpus_pairs():
            limit = flat_limit(ideal, lam)
            assert limit.generators == buchberger(limit, GRLEX).basis, name

    @settings(deadline=None, max_examples=40)
    @given(case=small_ideals_with_weights())
    def test_generators_are_the_reduced_grlex_basis(self, case):
        limit = flat_limit(*case)
        assert limit.generators == buchberger(limit, GRLEX).basis

    def test_preserves_hilbert_function(self):
        lam = OnePS((1, 1, -1, -1))
        limit = flat_limit(twisted_cubic(), lam)
        for m in range(7):
            assert hilbert_function(limit, m) == hilbert_function(twisted_cubic(), m)


class TestFlatLimitOracle:
    def test_conic_agreement(self):
        lam = OnePS((2, -1, -1))
        assert ideal_equal(flat_limit_oracle(CONIC, lam, 4), flat_limit(CONIC, lam))

    def test_equal_weights(self):
        lam = OnePS((1, 1, 1))
        assert ideal_equal(flat_limit_oracle(CONIC, lam, 4), CONIC)

    def test_monomial_ideal_is_its_own_limit(self):
        ideal = HomogeneousIdeal(3, [V(3, 0)])
        for w in [(2, -1, -1), (1, 0, -1)]:
            assert ideal_equal(flat_limit_oracle(ideal, OnePS(w), 3), ideal)

    def test_column_cap(self, monkeypatch):
        # sum over d <= 20 of C(8 + d - 1, d) = C(28, 20) columns, refused
        # before the first echelon
        def refuse(*args, **kwargs):
            raise AssertionError("echelon built")

        monkeypatch.setattr(geometry, "degree_echelon", refuse)
        ideal = HomogeneousIdeal(8, [V(8, 0) ** 2])
        message = f"3108105 oracle columns up to degree 20 exceed the cap of {MAX_ORACLE_COLUMNS}"
        with pytest.raises(ValueError, match=message):
            flat_limit_oracle(ideal, OnePS((1,) * 8), 20)


class TestJoinIdeal:
    def test_point_joined_with_a_point(self):
        # point <y2> in P^1, one U variable: a line in P^2
        split = Splitting(3, (0,), (1, 2))
        small = HomogeneousIdeal(2, [V(2, 1)])
        joined = join_ideal(small, split)
        assert joined == HomogeneousIdeal(3, [V(3, 2)])
        hd = hilbert_data(joined)
        assert (hd.dimension, hd.degree) == (1, 1)

    def test_cone_over_conic(self):
        split = Splitting(4, (0,), (1, 2, 3))
        conic = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])
        cone = join_ideal(conic, split)
        hd = hilbert_data(cone)
        assert (hd.dimension, hd.degree) == (2, 2)

    def test_two_concurrent_lines(self):
        split = Splitting(3, (0,), (1, 2))
        two_points = HomogeneousIdeal(2, [V(2, 0) * V(2, 1)])
        lines = join_ideal(two_points, split)
        hd = hilbert_data(lines)
        assert (hd.dimension, hd.degree) == (1, 2)

    def test_join_dimension_law(self):
        # dim J(Y, P(U)) = dim Y + dim P(U) + 1, degree preserved
        split = Splitting(5, (0, 1), (2, 3, 4))
        conic = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])
        hd = hilbert_data(join_ideal(conic, split))
        assert hd.dimension == 1 + 1 + 1
        assert hd.degree == 2

    def test_rejects_u_variables(self):
        split = Splitting(3, (0,), (1, 2))
        with pytest.raises(ValueError):
            join_ideal(HomogeneousIdeal(3, [V(3, 0)]), split)


class TestProjectionDominant:
    def test_contained_in_pw_not_dominant(self):
        split = Splitting(3, (0,), (1, 2))
        assert not projection_dominant(HomogeneousIdeal(3, [V(3, 0)]), split)

    def test_plane_conic_dominant(self):
        x, y1, y2 = (V(3, i) for i in range(3))
        split = Splitting(3, (0,), (1, 2))
        assert projection_dominant(HomogeneousIdeal(3, [x * y2 - y1 * y1]), split)

    def test_zero_ideal_dominant(self):
        split = Splitting(3, (0,), (1, 2))
        assert projection_dominant(HomogeneousIdeal(3, []), split)


class TestVerifyLimitIsJoin:
    def test_conic_meeting_u_hyperplane(self):
        # conic x^2 - y1*y2 meets {x = 0} in two points; limit = two lines
        x, y1, y2 = (V(3, i) for i in range(3))
        ideal = HomogeneousIdeal(3, [x * x - y1 * y2])
        split = Splitting(3, (0,), (1, 2))
        report = verify_limit_is_join(ideal, split, -3, 1)
        assert report.ok
        assert report.dominant
        assert report.limit == HomogeneousIdeal(3, [y1 * y2])

    def test_already_a_join_is_fixed(self):
        y1, y2 = V(3, 1), V(3, 2)
        ideal = HomogeneousIdeal(3, [y1 * y2])
        split = Splitting(3, (0,), (1, 2))
        report = verify_limit_is_join(ideal, split, -1, 1)
        assert report.ok
        assert report.limit == ideal

    def test_twisted_cubic_projection_from_a_point(self):
        split = Splitting(4, (0,), (1, 2, 3))
        report = verify_limit_is_join(twisted_cubic(), split, -3, 1)
        assert report.ok

    def test_order_of_the_w_block(self):
        # W = (3, 2, 1) names the same block as (1, 2, 3)
        x0, x1, x2, x3 = (V(4, i) for i in range(4))
        ideal = HomogeneousIdeal(4, [x1 * x2 - x0 * x3 + x1**2, x2 * x3 + x0**2 - x1**2])
        sorted_w = verify_limit_is_join(ideal, Splitting(4, (0,), (1, 2, 3)), -1, 2)
        assert sorted_w.ok
        assert verify_limit_is_join(ideal, Splitting(4, (0,), (3, 2, 1)), -1, 2) == sorted_w

    def test_requires_a_less_than_b(self):
        split = Splitting(3, (0,), (1, 2))
        report = verify_limit_is_join(HomogeneousIdeal(3, [V(3, 1) * V(3, 2)]), split, 1, -1)
        assert not report.ok
        assert "a < b" in report.reason


class TestSections:
    def test_conic_cut_by_coordinate(self):
        conic = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])
        full, image = coordinate_section(conic, [2])
        assert ideal_equal(full, linear_section(conic, [V(3, 2)]))
        assert image == HomogeneousIdeal(2, [V(2, 1) ** 2])

    def test_cut_by_no_forms(self):
        assert linear_section(CONIC, []) == CONIC

    def test_zero_ideal_cut_by_coordinate(self):
        out = linear_section(HomogeneousIdeal(3, []), [V(3, 2)])
        assert out == HomogeneousIdeal(3, [V(3, 2)])

    def test_rejects_nonlinear_form(self):
        with pytest.raises(ValueError):
            linear_section(CONIC, [V(3, 0) ** 2])


class TestTangentSpace:
    def test_cone_vertex(self):
        # quadric cone in P^3; the vertex sees the whole ambient space
        x, y1, y2, y3 = (V(4, i) for i in range(4))
        cone = HomogeneousIdeal(4, [y1 * y3 - y2 * y2])
        assert tangent_space_dim(cone, (1, 0, 0, 0)) == 3

    def test_smooth_conic_point(self):
        assert tangent_space_dim(CONIC, (1, 0, 0)) == 1

    def test_line_point(self):
        line = HomogeneousIdeal(3, [V(3, 2)])
        assert tangent_space_dim(line, (1, 1, 0)) == 1

    def test_rejects_off_scheme_point(self):
        with pytest.raises(ValueError):
            tangent_space_dim(CONIC, (1, 1, 0))

    def test_rejects_the_zero_vector(self):
        with pytest.raises(ValueError, match="zero coordinate vector"):
            tangent_space_dim(CONIC, (0, 0, 0))


def _cofactor_det(matrix: list[list[Polynomial]], nvars: int) -> Polynomial:
    """Determinant by cofactor expansion along the first row, c! products
    for a c x c matrix; 1 for the 0 x 0 matrix."""
    if not matrix:
        return Polynomial.constant(nvars, 1)
    total = Polynomial.zero(nvars)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero:
            continue
        sub = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        cofactor = entry * _cofactor_det(sub, nvars)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def _cofactor_minors(ideal: HomogeneousIdeal, c: int) -> list[Polynomial]:
    """The nonzero c x c Jacobian minors, each expanded on its own."""
    n, gens = ideal.nvars, ideal.generators
    jac = [[g.partial(j) for j in range(n)] for g in gens]
    minors = [
        _cofactor_det([[jac[r][j] for j in cols] for r in rows], n)
        for rows in combinations(range(len(gens)), c)
        for cols in combinations(range(n), c)
    ]
    return [m for m in minors if not m.is_zero]


def _rational_normal_curve(k: int) -> HomogeneousIdeal:
    """The 2 x 2 minors of [[x0 ... x(k-1)], [x1 ... xk]]: the rational
    normal curve of degree k in P^k."""
    x = [V(k + 1, i) for i in range(k + 1)]
    return HomogeneousIdeal(
        k + 1, [x[i] * x[j + 1] - x[j] * x[i + 1] for i, j in combinations(range(k), 2)]
    )


class TestSingularLocus:
    def test_smooth_conic(self):
        assert singular_locus_empty(CONIC) is True

    def test_whole_space_is_smooth(self):
        # codimension 0: the one 0 x 0 minor is 1
        assert _jacobian_minors(HomogeneousIdeal(3, []), 0) == [Polynomial.constant(3, 1)]
        assert singular_locus_empty(HomogeneousIdeal(3, [])) is True

    def test_nodal_cubic(self):
        y1, y2, y3 = (V(3, i) for i in range(3))
        nodal = HomogeneousIdeal(3, [y2 * y2 * y3 - y1 * y1 * (y1 + y3)])
        assert singular_locus_empty(nodal) is False

    def test_crossing_lines(self):
        crossing = HomogeneousIdeal(3, [V(3, 0) * V(3, 1)])
        assert singular_locus_empty(crossing) is False

    @pytest.mark.parametrize("cut, dim", [((0,), 1), ((0, 1), 0)])
    def test_linear_strata_are_smooth(self, cut, dim):
        # the line x = 0 and the point x = y = 0 in P^2: the minors hold a
        # nonzero constant, so the Jacobian ideal is the unit ideal
        linear = HomogeneousIdeal(3, [V(3, i) for i in cut])
        assert singular_locus_empty(linear) is True

    def test_matches_the_dimension_of_the_jacobian_ideal(self):
        y1, y2, y3 = (V(3, i) for i in range(3))
        cases = [
            (CONIC, 1),
            (HomogeneousIdeal(3, [y2 * y2 * y3 - y1 * y1 * (y1 + y3)]), 1),
            (HomogeneousIdeal(3, [y1 * y2]), 1),
            (HomogeneousIdeal(3, [y1 * y1]), 1),
            (HomogeneousIdeal(3, [y2 * y2 * y3 - y1 ** 3]), 1),
            (HomogeneousIdeal(3, [y1]), 1),
            (HomogeneousIdeal(3, [y1, y2]), 0),
            (twisted_cubic(), 1),
        ]
        flags = [flag for _, _, flag in flag_corpus()]
        x, y, v1, v2 = (V(4, i) for i in range(4))
        surface = x * y * (x - y) * (x - 2 * y) + v1 ** 4 - 2 * v2 ** 4
        flags.append(HyperplanarFlag(2, 4, HomogeneousIdeal(4, [surface])))
        for path in sorted(GOLDEN.glob("flag-*.in")):
            doc = parse_document(path.read_text())
            if not doc.ideal_gens:
                continue  # flag-weight reads no flag
            top = HomogeneousIdeal(len(doc.names), doc.ideal_gens)
            flags.append(HyperplanarFlag(doc.flag_params["n"], top.nvars, top))
        for flag in flags:
            for i in range(flag.n + 1):
                cases.append((flag.stratum_subring_ideal(i), i))
        verdicts = set()
        for ideal, dim in cases:
            minors = _jacobian_minors(ideal, ideal.nvars - 1 - dim)
            jacobian = HomogeneousIdeal(ideal.nvars, list(ideal.generators) + minors)
            verdict = singular_locus_empty(ideal)
            assert verdict == (hilbert_data(jacobian).dimension < 0), ideal
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_minors_match_cofactor_expansion(self):
        """The sweep's nonzero minors are the cofactor expansion's, as a
        multiset and with signs, at every c: the rational normal curves of
        degree 3, 4 and 5, the ideals above and 40 seeded ideals."""
        y1, y2, y3 = (V(3, i) for i in range(3))
        ideals = [_rational_normal_curve(k) for k in (3, 4, 5)]
        ideals += [
            CONIC,
            HomogeneousIdeal(3, [y2 * y2 * y3 - y1 * y1 * (y1 + y3)]),
            HomogeneousIdeal(3, [y1 * y2]),
            HomogeneousIdeal(3, [y1 * y1]),
            HomogeneousIdeal(3, [y2 * y2 * y3 - y1**3]),
            HomogeneousIdeal(3, [y1]),
            HomogeneousIdeal(3, [y1, y2]),
        ]
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 4)
            gens = []
            for _ in range(rng.randint(1, 4)):
                monos = monomials_of_degree(n, rng.randint(1, 3))
                picked = rng.sample(monos, min(rng.randint(1, 4), len(monos)))
                gens.append(Polynomial(n, {m: rng.choice((-3, -1, 1, 2)) for m in picked}))
            ideals.append(HomogeneousIdeal(n, gens))
        for ideal in ideals:
            for c in range(ideal.nvars + 1):
                expected = Counter(_cofactor_minors(ideal, c))
                assert Counter(_jacobian_minors(ideal, c)) == expected, (ideal, c)

    def test_rational_normal_quintic_jacobian_counts(self, monkeypatch):
        """The quintic's ten quadrics and 2 795 nonzero 4 x 4 minors are
        2 075 distinct generators; reducing each by the basis so far, the
        basis takes 31 insertions."""
        quintic = _rational_normal_curve(5)
        minors = _jacobian_minors(quintic, 4)
        jacobian = HomogeneousIdeal(6, list(quintic.generators) + minors)
        assert len(jacobian.generators) == 2075
        add, inserted = groebner._add_to_basis, []
        monkeypatch.setattr(
            groebner, "_add_to_basis", lambda g, *rest: (inserted.append(g), add(g, *rest))
        )
        groebner._buchberger(jacobian, GRLEX)
        assert len(inserted) == 31
        assert singular_locus_empty(quintic) is True


    def test_minors_cap_counts_before_any_minor(self, monkeypatch):
        """The rational normal septic asks for C(21, 6) * C(8, 6) minors and
        is refused before a partial derivative is taken; the sextic's
        C(15, 5) * C(7, 5) pass the cap and reach the sweep."""
        assert comb(15, 5) * comb(7, 5) == 63_063 <= MAX_MINORS
        assert comb(21, 6) * comb(8, 6) == 1_519_392 > MAX_MINORS

        class Swept(Exception):
            pass

        def refuse(*args):
            raise Swept

        monkeypatch.setattr(Polynomial, "partial", refuse)
        with pytest.raises(ValueError, match="1519392 Jacobian minors of size 6 exceed the cap"):
            _jacobian_minors(_rational_normal_curve(7), 6)
        with pytest.raises(Swept):
            _jacobian_minors(_rational_normal_curve(6), 5)

    def test_validate_flag_checks_each_stratum(self, monkeypatch):
        """`validate_flag` runs the public smoothness check on each stratum
        of positive dimension, a curve in P^2 and a surface in P^3 here."""
        seen, check = [], geometry.singular_locus_empty

        def recording(ideal):
            seen.append(ideal.nvars)
            return check(ideal)

        monkeypatch.setattr(flags_module, "singular_locus_empty", recording)
        x, y, v1, v2 = (V(4, i) for i in range(4))
        surface = x * y * (x - y) * (x - 2 * y) + v1**4 - 2 * v2**4
        report = validate_flag(HyperplanarFlag(2, 4, HomogeneousIdeal(4, [surface])))
        assert seen == [3, 4]
        assert report.smooth == {1: True, 2: True}


class TestNondegeneracy:
    def test_conic(self):
        assert is_nondegenerate(CONIC)

    def test_line_in_p2(self):
        assert not is_nondegenerate(HomogeneousIdeal(3, [V(3, 2)]))

    def test_twisted_cubic(self):
        assert is_nondegenerate(twisted_cubic())

    def test_matches_degree_one_slice(self):
        ideals = [ideal for _, ideal in corpus_ideals()]
        for _, _, flag in flag_corpus():
            for i in range(flag.n + 1):
                ideals += [flag.stratum_ideal(i), flag.stratum_subring_ideal(i)]
        ideals += [HomogeneousIdeal(3, []), HomogeneousIdeal(3, [Polynomial.constant(3, 1)])]
        verdicts = set()
        for ideal in ideals:
            verdict = is_nondegenerate(ideal)
            assert verdict == (degree_dimension(ideal, 1) == 0), ideal
            verdicts.add(verdict)
        assert verdicts == {True, False}
