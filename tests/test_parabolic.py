"""Graded 1PS block bookkeeping and unipotent Lie stabilizers."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab import (
    GRLEX,
    GradedOnePS,
    HomogeneousIdeal,
    HyperplanarFlag,
    Polynomial,
    buchberger,
    configuration_unipotent_stabilizer_dim,
    flag_limit,
    monomials_of_degree,
    stage_data,
    standard_grading,
)
from flagstab.groebner import degree_echelon, normal_form, poly_to_row
from flagstab.linalg import rank_of_rows

from conftest import V, block_profile, contains_oracle, flag_corpus


G211 = GradedOnePS((2, -1, -3), (2, 1, 1))  # size 4, ell 3
G21 = GradedOnePS((1, -2), (2, 1))  # size 3, ell 2


class TestGradedOnePS:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GradedOnePS((1, 1), (1, 1))  # not strictly decreasing
        with pytest.raises(ValueError):
            GradedOnePS((1, -1), (1, 2))  # weighted sum nonzero
        with pytest.raises(ValueError):
            GradedOnePS((1,), (1,))  # ell < 2

    def test_expand_and_blocks(self):
        assert G211.expand() == (2, 2, -1, -3)
        assert [G211.block_of(i) for i in range(4)] == [0, 0, 1, 2]

    def test_standard_default(self):
        g = GradedOnePS.standard((2, 1))
        assert g.multiplicities == (2, 1)
        assert sum(w * m for w, m in zip(g.weights, g.multiplicities)) == 0
        assert g.weights[0] > g.weights[1]


class TestStageData:
    def test_stage_one(self):
        sd = stage_data(G211, 1)
        assert (sd.beta_le, sd.beta_gt) == (2, -2)
        assert sd.lambda_bracket.weights == (2, 2, -2, -2)

    def test_stage_two(self):
        sd = stage_data(G211, 2)
        assert (sd.beta_le, sd.beta_gt) == (1, -3)
        assert sd.lambda_bracket.weights == (1, 1, 1, -3)
        assert sd.lambda_paren.weights == (2, 2, -1, -3)
        assert sd.scale == 1

    def test_two_block_grading_is_its_own_stage(self):
        sd = stage_data(G21, 1)
        assert sd.lambda_bracket.weights == G21.expand()

    def test_sl_balance_every_stage(self):
        for g in [G211, G21, GradedOnePS((3, 1, -1, -2), (1, 2, 3, 1))]:
            for i in range(1, g.ell):
                sd = stage_data(g, i)
                assert sd.m_le * sd.beta_le + sd.m_gt * sd.beta_gt == 0
                assert len(set(sd.lambda_bracket.weights)) == 2
                assert len(set(sd.lambda_paren.weights)) == i + 1

    def test_stage_out_of_range(self):
        with pytest.raises(ValueError):
            stage_data(G211, 3)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class TestBlockProfile:
    def test_identity_in_everything(self):
        bp = block_profile(_identity(4), G211)
        assert bp.in_p and bp.in_l and bp.in_t and bp.in_r and bp.in_u
        assert all(bp.in_u_bracket.values())
        assert all(bp.in_u_paren.values())

    def test_elementary_matrix(self):
        # entry in block (1,2) (rows block 1, columns block 2, 1-based)
        m = _identity(4)
        m[0][2] = 7
        bp = block_profile(m, G211)
        assert bp.in_u
        assert bp.in_u_bracket == {1: True, 2: False}
        # entry in block (2,3): in U^[2] only
        m = _identity(4)
        m[2][3] = 5
        bp = block_profile(m, G211)
        assert bp.in_u
        assert bp.in_u_bracket == {1: False, 2: True}
        assert bp.in_u_paren == {1: False, 2: True}

    def test_block_diagonal_det_one(self):
        m = _identity(4)
        m[0][0], m[0][1], m[1][0], m[1][1] = 2, 1, 1, 1  # det 1 in the W block
        bp = block_profile(m, G211)
        assert bp.in_r and bp.in_l and bp.in_p
        assert not bp.in_u
        assert not bp.in_t  # diagonal blocks are not scalar

    def test_containments(self):
        samples = [_identity(4)]
        m = _identity(4)
        m[1][3] = 2
        samples.append(m)
        m = [[1, 2, 3, 4], [0, 1, 5, 6], [0, 0, 1, 7], [0, 0, 0, 1]]
        samples.append(m)
        for m in samples:
            bp = block_profile(m, G211)
            for i in (1, 2):
                assert not bp.in_u_bracket[i] or bp.in_u
                assert not bp.in_u_paren[i] or bp.in_u
            assert not bp.in_l or bp.in_p
            assert not bp.in_t or bp.in_l

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            block_profile(_identity(3), G211)


class TestLieStabilizer:
    def test_cone_over_three_points_is_rigid(self):
        # three distinct points on the line P(W), coned to the vertex:
        # nothing in Lie U^[1] fixes the ideal
        x, y = V(3, 0), V(3, 1)
        cone = HomogeneousIdeal(3, [x * y * (x + y)])
        assert configuration_unipotent_stabilizer_dim([cone], G21, 1) == 0

    def test_ideal_from_late_blocks_is_annihilated(self):
        # generators involve only variables of blocks > 1: every
        # derivation of Lie U^[1] kills them
        ideal = HomogeneousIdeal(3, [V(3, 2) ** 2])
        assert configuration_unipotent_stabilizer_dim([ideal], G21, 1) == 2

    def test_zero_ideal(self):
        assert configuration_unipotent_stabilizer_dim([HomogeneousIdeal(3, [])], G21, 1) == 2
        assert configuration_unipotent_stabilizer_dim([HomogeneousIdeal(4, [])], G211, 1) == 4
        assert configuration_unipotent_stabilizer_dim([HomogeneousIdeal(4, [])], G211, 2) == 3

    def test_partial_stabilizer_detected(self):
        # <x> is moved by nu_{02} but fixed by nu_{12}: dimension 1
        ideal = HomogeneousIdeal(3, [V(3, 0)])
        assert configuration_unipotent_stabilizer_dim([ideal], G21, 1) == 1

    def test_configuration_intersects_stabilizers(self):
        x, y = V(3, 0), V(3, 1)
        cone = HomogeneousIdeal(3, [x * y * (x + y)])
        free = HomogeneousIdeal(3, [])
        assert configuration_unipotent_stabilizer_dim([free, cone], G21, 1) == 0

    def test_stage_out_of_range(self):
        with pytest.raises(ValueError):
            configuration_unipotent_stabilizer_dim([HomogeneousIdeal(3, [])], G21, 2)

    def test_mixed_degree_generators_match_brute_force(self):
        # the degree-2 generator's residuals must be a full linear normal
        # form modulo I_2, or the constraints come out too strict
        x0, x1, x2, x3 = (V(4, i) for i in range(4))
        ideal = HomogeneousIdeal(4, [x2 - x3, x0 + x1, x0 * x1 - x1 * x2])
        g = GradedOnePS.standard((2, 2))
        assert _brute_force_stabilizer_dim(ideal, g, 1) == 2
        assert configuration_unipotent_stabilizer_dim([ideal], g, 1) == 2


def _entries(g: GradedOnePS, j: int) -> list[tuple[int, int]]:
    blk = [g.block_of(k) for k in range(g.size)]
    return [(r, c) for r in range(g.size) for c in range(g.size) if blk[r] < j <= blk[c]]


def _brute_force_stabilizer_dim(ideal: HomogeneousIdeal, g: GradedOnePS, j: int) -> int:
    """Rank of the nu in {-2..2}^entries of Lie U^[j] whose derivation
    sum nu_rc * x_c * d/dx_r maps every generator into the ideal."""
    n = g.size
    entries = _entries(g, j)
    fixing = []
    for nu in product(range(-2, 3), repeat=len(entries)):
        if all(
            contains_oracle(
                ideal,
                sum(
                    (v * V(n, c) * f.partial(r) for v, (r, c) in zip(nu, entries)),
                    Polynomial.zero(n),
                ),
            )
            for f in ideal.generators
        ):
            fixing.append(dict(enumerate(nu)))
    return rank_of_rows(fixing)


def _degreewise_stabilizer_dim(ideals, g: GradedOnePS, j: int) -> int:
    """The stabilizer dimension by degreewise linear algebra, free of
    Buchberger. Each generator f of each ideal has its own column block,
    holding the rows of I_(deg f) and, in the row of entry (r, c), the
    moved generator x_c * d/dx_r f. The entry rows add to the rank of the
    ideal rows exactly the rank of nu -> (moved f mod I_(deg f))_f, whose
    kernel is the stabilizer."""
    entries = _entries(g, j)
    entry_rows: list[dict] = [{} for _ in entries]
    ideal_rows: list[dict] = []
    ideal_rank = 0
    for a, ideal in enumerate(ideals):
        for b, f in enumerate(ideal.generators):
            columns, ech = degree_echelon(ideal, f.degree())
            ideal_rank += ech.rank
            ideal_rows += [{(a, b, c): v for c, v in row.items()} for row in ech.pivots.values()]
            for row, (r, c) in zip(entry_rows, entries):
                moved = V(g.size, c) * f.partial(r)
                row.update({(a, b, k): v for k, v in poly_to_row(moved, columns).items()})
    return len(entries) - (rank_of_rows(ideal_rows + entry_rows) - ideal_rank)


def _fraction_row_stabilizer_dim(ideals, g: GradedOnePS, j: int) -> int:
    """The stabilizer dimension from rows of `Fraction` normal-form
    coefficients, ranked by `rank_of_rows`."""
    entries = _entries(g, j)
    rows: list[dict] = [{} for _ in entries]
    for a, ideal in enumerate(ideals):
        basis = buchberger(ideal, GRLEX).basis
        for b, f in enumerate(ideal.generators):
            for row, (r, c) in zip(rows, entries):
                nf = normal_form(V(g.size, c) * f.partial(r), basis)
                row.update({(a, b, m): v for m, v in nf.terms.items()})
    columns: dict = {}
    keyed = [{columns.setdefault(k, len(columns)): v for k, v in row.items()} for row in rows]
    return len(entries) - rank_of_rows(keyed)


def _n3_flag() -> HyperplanarFlag:
    x0, x1, v1, v2, v3 = (V(5, i) for i in range(5))
    top = x0**3 + x1**3 + v1**3 + v2**3 + v3**3 + x0 * v1 * v3
    return HyperplanarFlag(3, 5, HomogeneousIdeal(5, [top]))


def _random_graded_ideal(rng: random.Random):
    """As `_graded_ideals`, with coefficients up to +-3."""
    mults = rng.choice([(2, 1), (1, 2), (1, 1, 1), (3, 1), (1, 3), (2, 2), (2, 1, 1)])
    g = GradedOnePS.standard(mults)
    j = rng.randint(1, g.ell - 1)
    gens = []
    for d in [1, 2] + rng.sample([1, 2], rng.randint(0, 1)):
        monos = rng.sample(monomials_of_degree(g.size, d), rng.randint(1, 3))
        gens.append(Polynomial(g.size, {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in monos}))
    return HomogeneousIdeal(g.size, gens), g, j


class TestStabilizerAgainstDegreewiseOracle:
    def test_oracle_on_known_cases(self):
        x, y = V(3, 0), V(3, 1)
        cone = HomogeneousIdeal(3, [x * y * (x + y)])
        assert _degreewise_stabilizer_dim([cone], G21, 1) == 0
        assert _degreewise_stabilizer_dim([HomogeneousIdeal(3, [x])], G21, 1) == 1
        assert _degreewise_stabilizer_dim([HomogeneousIdeal(4, [])], G211, 2) == 3
        # a stabilizer direction with no entries in -2..2, so the grid misses it
        x0, x1, x2 = (V(3, i) for i in range(3))
        ideal = HomogeneousIdeal(3, [x0 + x1 + x2, x0 - 2 * x1, x0 * x0])
        g = GradedOnePS.standard((1, 2))
        assert _brute_force_stabilizer_dim(ideal, g, 1) == 0
        assert _degreewise_stabilizer_dim([ideal], g, 1) == 1
        assert configuration_unipotent_stabilizer_dim([ideal], g, 1) == 1

    def test_flag_limits(self):
        flags = [flag for _, _, flag in flag_corpus()] + [_n3_flag()]
        for flag in flags:
            g = standard_grading(flag)
            for i in range(1, flag.n + 1):
                strata = flag_limit(flag, i).strata
                for j in range(1, g.ell):
                    assert configuration_unipotent_stabilizer_dim(
                        strata, g, j
                    ) == _degreewise_stabilizer_dim(strata, g, j), (flag.top_ideal, i, j)

    def test_integer_rows_match_fraction_rows(self):
        """Rows brought to one denominator per row keep the rank of the
        rational rows, on the flag limits and on rational generators."""
        flags = [flag for _, _, flag in flag_corpus()] + [_n3_flag()]
        cases = []
        for flag in flags:
            g = standard_grading(flag)
            for i in range(1, flag.n + 1):
                strata = flag_limit(flag, i).strata
                cases += [(strata, g, j) for j in range(1, g.ell)]
        rng = random.Random(2026)
        for _ in range(300):  # in 3 of these the rank depends on the cells' scales
            ideal, g, j = _random_graded_ideal(rng)
            q = lambda: Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 9))
            # the same supports with rational coefficients
            gens = [Polynomial(g.size, {m: q() for m in f.terms}) for f in ideal.generators]
            cases.append(([HomogeneousIdeal(g.size, gens)], g, j))
        for ideals, g, j in cases:
            assert configuration_unipotent_stabilizer_dim(
                ideals, g, j
            ) == _fraction_row_stabilizer_dim(ideals, g, j), (ideals, j)

    def test_seeded_ideals_with_larger_coefficients(self):
        rng = random.Random(20261018)
        dims = []
        for _ in range(40):
            ideal, g, j = _random_graded_ideal(rng)
            dim = configuration_unipotent_stabilizer_dim([ideal], g, j)
            assert dim == _degreewise_stabilizer_dim([ideal], g, j), (ideal, g, j)
            dims.append(dim)
        assert any(dims) and not all(dims)


@st.composite
def _graded_ideals(draw):
    """A grading of 3 or 4 variables, a stage, and an ideal with a
    linear and a quadric generator (a third of either degree optional).

    Coefficients are +-1: the brute force sees a stabilizer direction only
    if it has entries in -2..2, and larger coefficients make directions
    that do not, as (3, 1) for (x0 + x1 + x2, x0 - 2*x1, x0^2) at mults
    (1, 2), where the library's 1 is right and the grid finds 0.
    """
    mults = draw(st.sampled_from([(2, 1), (1, 2), (1, 1, 1), (3, 1), (1, 3), (2, 2), (2, 1, 1)]))
    g = GradedOnePS.standard(mults)
    j = draw(st.integers(1, g.ell - 1))
    gens = []
    for d in [1, 2] + draw(st.lists(st.integers(1, 2), max_size=1)):
        terms = draw(
            st.dictionaries(
                st.sampled_from(monomials_of_degree(g.size, d)),
                st.sampled_from([-1, 1]),
                min_size=1,
                max_size=3,
            )
        )
        gens.append(Polynomial(g.size, terms))
    return HomogeneousIdeal(g.size, gens), g, j


@settings(deadline=None, max_examples=12)
@given(case=_graded_ideals())
def test_unipotent_stabilizer_matches_brute_force(case):
    ideal, g, j = case
    assert configuration_unipotent_stabilizer_dim([ideal], g, j) == _brute_force_stabilizer_dim(
        ideal, g, j
    )


@settings(deadline=None, max_examples=50)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
        max_size=4,
    )
)
def test_unipotent_membership_random(entries):
    m = _identity(4)
    blk = [0, 0, 1, 2]
    for r, c, v in entries:
        if r < c and blk[r] != blk[c]:
            m[r][c] = v
    bp = block_profile(m, G211)
    assert bp.in_u  # strictly-upper block entries, unit diagonal
    assert bp.in_p
