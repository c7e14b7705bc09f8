"""Hilbert data, weighted slice weights, Chow weights and point stability."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings

from flagstab import (
    HomogeneousIdeal,
    OnePS,
    Polynomial,
    chow_points_stability,
    chow_weight_numeric,
    flat_limit,
    hilbert_data,
    hilbert_function,
    hilbert_series,
    ideal_equal,
)
from flagstab.hilbert import (
    PointConfiguration,
    PreconditionError,
    StabilityVerdict,
    eval_poly,
)
from flagstab.linalg import Echelon, row_from_fractions
from flagstab.poly import series_coefficient

from conftest import (
    V,
    _random_homogeneous,
    chow_weight_join,
    chow_weight_series,
    chow_weight_single_space,
    corpus_ideals,
    mumford_weight,
    small_ideals_with_weights,
    twisted_cubic,
    weighted_slice_weight,
)
from test_acceptance import _join_instances, _single_space_instances


CONIC = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])


class TestHilbertFunction:
    def test_zero_ideal(self):
        assert hilbert_function(HomogeneousIdeal(3, []), 2) == 6

    def test_conic(self):
        assert hilbert_function(CONIC, 3) == 7

    def test_irrelevant_ideal(self):
        irr = HomogeneousIdeal(3, [V(3, 0), V(3, 1), V(3, 2)])
        assert hilbert_function(irr, 1) == 0


class TestHilbertData:
    def test_twisted_cubic(self):
        hd = hilbert_data(twisted_cubic())
        assert hd.hilbert_polynomial == (Fraction(1), Fraction(3))  # 3t + 1
        assert hd.dimension == 1
        assert hd.degree == 3

    def test_full_ring(self):
        hd = hilbert_data(HomogeneousIdeal(3, []))
        # binom(t+2, 2) = 1 + 3t/2 + t^2/2
        assert hd.hilbert_polynomial == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
        assert hd.dimension == 2
        assert hd.degree == 1

    def test_four_points(self):
        four = HomogeneousIdeal(
            3, [V(3, 0) * V(3, 1) - V(3, 0) * V(3, 2), V(3, 0) * V(3, 2) - V(3, 1) * V(3, 2)]
        )
        hd = hilbert_data(four)
        assert hd.hilbert_polynomial == (Fraction(4),)
        assert hd.dimension == 0
        assert hd.degree == 4

    def test_function_matches_polynomial_past_stabilization(self):
        hd = hilbert_data(CONIC)
        for m in range(hd.stabilization_degree, hd.stabilization_degree + 4):
            assert hilbert_function(CONIC, m) == eval_poly(hd.hilbert_polynomial, m)

    def test_complete_intersection_in_p4(self):
        # a hyperplane and a quadric: a quadric surface, HP = (m + 1)^2
        ideal = dict(corpus_ideals())["random-ci-4"]
        hd = hilbert_data(ideal)
        assert hd.hilbert_polynomial == (Fraction(1), Fraction(2), Fraction(1))
        assert (hd.dimension, hd.degree, hd.stabilization_degree) == (2, 2, 0)
        for m in range(5):
            assert hd.hilbert_function[m] == hilbert_function(ideal, m)

    def test_rational_normal_quartic(self):
        x = [V(5, i) for i in range(5)]
        minors = [x[i] * x[j + 1] - x[j] * x[i + 1] for i, j in combinations(range(4), 2)]
        hd = hilbert_data(HomogeneousIdeal(5, minors))
        assert hd.hilbert_polynomial == (Fraction(1), Fraction(4))  # 4m + 1
        assert (hd.dimension, hd.degree, hd.stabilization_degree) == (1, 4, 0)
        assert hd.hilbert_function[3] == 13

    def test_series_matches_echelon_oracle_on_corpus(self):
        for name, ideal in corpus_ideals():
            hd = hilbert_data(ideal)
            stab = hd.stabilization_degree
            for m in range(9):
                hf = hilbert_function(ideal, m)
                if m in hd.hilbert_function:
                    assert hd.hilbert_function[m] == hf, (name, m)
                if m >= stab:
                    assert eval_poly(hd.hilbert_polynomial, m) == hf, (name, m)
            if stab:
                assert hd.hilbert_function[stab - 1] != eval_poly(hd.hilbert_polynomial, stab - 1), name

    def test_series_holds_what_the_data_reads(self):
        ideals = [ideal for _, ideal in corpus_ideals()]
        ideals += [CONIC, twisted_cubic(), HomogeneousIdeal(3, []), HomogeneousIdeal(3, [V(3, 0)])]
        ideals.append(HomogeneousIdeal(3, [Polynomial.constant(3, 1)]))
        ideals.append(HomogeneousIdeal(2, [V(2, 0) ** 2, V(2, 1) ** 3]))  # empty, length 6
        for ideal in ideals:
            hs, hd = hilbert_series(ideal), hilbert_data(ideal)
            assert (hs.dimension, hs.degree) == (hd.dimension, hd.degree), ideal
            assert hs.polynomial() == hd.hilbert_polynomial, ideal
            # from stabilization on the window is the polynomial's value
            for m, value in hd.hilbert_function.items():
                assert value == series_coefficient(*hs, m), (ideal, m)


class TestWeightedSliceWeight:
    def test_point_in_p1(self):
        ideal = HomogeneousIdeal(2, [V(2, 1)])
        assert weighted_slice_weight(ideal, OnePS((1, -1)), 3) == -3

    def test_sl_symmetry_on_zero_ideal(self):
        zero = HomogeneousIdeal(3, [])
        for lam in [OnePS((2, -1, -1)), OnePS((1, 0, -1)), OnePS((3, -1, -2))]:
            assert lam.sl_normalized
            for m in range(5):
                assert weighted_slice_weight(zero, lam, m) == 0

    def test_conic_uniform_weights(self):
        conic = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])
        assert weighted_slice_weight(conic, OnePS((-1, -1, -1)), 2) == 10


class TestChowWeightNumeric:
    def test_point_in_p1(self):
        ideal = HomogeneousIdeal(2, [V(2, 1)])
        assert chow_weight_numeric(ideal, OnePS((1, -1))) == 1

    def test_cone_over_conic(self):
        # conic in P(W), dim U = 1, weights 3 on U and -1 on W
        u, w1, w2, w3 = (V(4, i) for i in range(4))
        ideal = HomogeneousIdeal(4, [u, w1 * w3 - w2 * w2])
        assert chow_weight_numeric(ideal, OnePS((3, -1, -1, -1))) == -4
        assert chow_weight_single_space(-1, 2, 1) == -4

    def test_join_of_two_points(self):
        # 2 points in P^1 joined with P(U), dim U = 2, weights (1,1,-1,-1)
        y3, y4 = V(4, 2), V(4, 3)
        ideal = HomogeneousIdeal(4, [y3 * y4])
        assert chow_weight_numeric(ideal, OnePS((1, 1, -1, -1))) == 2
        assert chow_weight_join(1, -1, 2, 0, 1) == 2

    def test_requires_sl_normalized(self):
        with pytest.raises(PreconditionError):
            chow_weight_numeric(HomogeneousIdeal(2, [V(2, 1)]), OnePS((1, 0)))

    def test_requires_fixed_ideal(self):
        conic = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])
        with pytest.raises(PreconditionError):
            chow_weight_numeric(conic, OnePS((2, -1, -1)))

    def test_fixed_ideal_with_redundant_generators(self):
        x, y = V(3, 0), V(3, 1)
        lam = OnePS((1, 0, -1))
        assert chow_weight_numeric(HomogeneousIdeal(3, [x, x + y]), lam) == -1
        assert chow_weight_numeric(HomogeneousIdeal(3, [x, y]), lam) == -1

    def test_requires_cut_out_within_weight_spaces(self):
        # u*a is fixed, but is neither u-only nor (a, b)-only
        u, a = V(3, 0), V(3, 1)
        with pytest.raises(PreconditionError, match="within the weight spaces"):
            chow_weight_numeric(HomogeneousIdeal(3, [u * a]), OnePS((2, -1, -1)))
        # x*y*w - z^3 is fixed and its Hilbert series is the product of the
        # weight spaces' series, yet it mixes three weight spaces
        x, y, z, w = (V(4, i) for i in range(4))
        with pytest.raises(PreconditionError, match="within the weight spaces"):
            chow_weight_numeric(HomogeneousIdeal(4, [x * y * w - z**3]), OnePS((2, -1, 0, -1)))

    @settings(deadline=None, max_examples=40)
    @given(case=small_ideals_with_weights())
    def test_fixedness_verdict_matches_the_flat_limit(self, case):
        ideal, lam = case
        # a flat limit is always fixed, so both verdicts are exercised
        for candidate in (ideal, flat_limit(ideal, lam)):
            try:
                chow_weight_numeric(candidate, lam)
                fixed = True
            except PreconditionError as exc:
                fixed = "not fixed" not in str(exc)
            assert fixed == ideal_equal(flat_limit(candidate, lam), candidate)

    @pytest.mark.xfail(
        strict=True,
        reason="blockwise slice weight is 0 when two weight-space factors have positive dimension",
    )
    @pytest.mark.parametrize(
        "nvars, gens, weights, join, closed",
        [
            # a line in P(W), dim W = 3, joined with P(U), dim U = 2
            (5, lambda v: [v[4]], (3, 3, -2, -2, -2), (3, -2, 1, 1, 1), 2),
            # the quadric surface in P(W) = P(x2..x5) joined with the line P(x0, x1)
            (6, lambda v: [v[2] * v[5] - v[3] * v[4]],
             (2, 2, -1, -1, -1, -1), (2, -1, 2, 2, 1), -6),
        ],
        ids=["line-line", "surface-line"],
    )
    def test_join_of_two_positive_dimensional_factors(self, nvars, gens, weights, join, closed):
        ideal = HomogeneousIdeal(nvars, gens([V(nvars, i) for i in range(nvars)]))
        assert chow_weight_join(*join) == closed
        assert chow_weight_numeric(ideal, OnePS(weights)) == closed

    def test_closed_form_matches_the_series_form(self):
        kinds = Counter()
        for ideal, lam, finite in _ideals_within_weight_spaces(random.Random(1977), 600):
            try:
                expected = chow_weight_series(ideal, lam)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as got:
                    chow_weight_numeric(ideal, lam)
                assert str(got.value) == str(exc)
                continue
            assert chow_weight_numeric(ideal, lam) == expected, (ideal, lam)
            kinds["zero" if expected == 0 else "finite factor" if finite else "nonzero"] += 1
        # weights with and without a finite factor, and the vanishing case
        assert min(kinds["zero"], kinds["finite factor"], kinds["nonzero"]) >= 50, kinds



def _weight_by_differences(ideal: HomogeneousIdeal, lam: OnePS, start: int = 12) -> int:
    """Minus the (n+1)-th finite difference of `weighted_slice_weight` in m
    from `start` on, n = dim X: -(n+1)! times its coefficient of m^(n+1)."""
    k = hilbert_series(ideal).dimension + 1
    values = [weighted_slice_weight(ideal, lam, start + j) for j in range(k + 1)]
    return -sum((-1) ** (k - j) * comb(k, j) * v for j, v in enumerate(values))


class TestMumfordWeight:
    """The test-only kernel `mumford_weight` against finite differences of
    the slice weight, and against `chow_weight_numeric` where they agree."""

    def test_positive_dimensional_joins_read_two(self):
        # the strict xfail's line-line and surface-line joins
        v5, v6 = [V(5, i) for i in range(5)], [V(6, i) for i in range(6)]
        for ideal, weights in [
            (HomogeneousIdeal(5, [v5[4]]), (3, 3, -2, -2, -2)),
            (HomogeneousIdeal(6, [v6[2] * v6[5] - v6[3] * v6[4]]), (2, 2, -1, -1, -1, -1)),
        ]:
            lam = OnePS(weights)
            assert mumford_weight(ideal, lam) == _weight_by_differences(ideal, lam) == 2
            assert chow_weight_numeric(ideal, lam) == 0

    def test_conic_in_one_weight_space(self):
        u, a, b, c = (V(4, i) for i in range(4))
        ideal = HomogeneousIdeal(4, [u, a**2 + b**2 - c**2 + 2 * u * a])
        lam = OnePS((3, -1, -1, -1))
        assert mumford_weight(ideal, lam) == _weight_by_differences(ideal, lam) == -4
        assert chow_weight_numeric(ideal, lam) == -4

    def test_criterion_3_instances(self):
        for ideal, weights, *_ in _single_space_instances():
            lam = OnePS(weights)
            assert mumford_weight(ideal, lam) == chow_weight_numeric(ideal, lam), (ideal, lam)

    def test_criterion_4_joins(self):
        # Mumford's weight of a join is d*(a*(u + 1) + b*(y + 1))
        for ideal, weights, (a, b, d, y, u), _ in _join_instances():
            lam = OnePS(weights)
            expected = d * (a * (u + 1) + b * (y + 1))
            assert mumford_weight(ideal, lam) == _weight_by_differences(ideal, lam) == expected

    def test_ideals_not_fixed_by_the_weights(self):
        rng, unfixed = random.Random(1988), 0
        for _ in range(40):
            gens = [_random_homogeneous(rng, 4, 2) for _ in range(rng.randint(1, 2))]
            ideal = HomogeneousIdeal(4, gens)
            head = [rng.randint(-3, 3) for _ in range(3)]
            lam = OnePS((*head, -sum(head)))
            limit = flat_limit(ideal, lam)
            unfixed += not ideal_equal(limit, ideal)
            weight = mumford_weight(ideal, lam)
            assert weight == mumford_weight(limit, lam) == _weight_by_differences(ideal, lam)
        assert unfixed == 40


def _ideals_within_weight_spaces(rng: random.Random, count: int):
    """`count` nonempty fixed ideals (and the empty ones drawn on the way),
    with sl-normalized weights: 2-3 weight spaces of 1-3 variables, at
    shuffled positions, each free or cut by up to one form more than its
    variables, of degree 1-3. Yields (ideal, lam, whether some space's
    factor has finite length)."""
    nonempty = 0
    while nonempty < count:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        nvars = sum(sizes)
        positions = rng.sample(range(nvars), nvars)
        raw = rng.sample(range(-4, 5), len(sizes))
        shift = sum(w * k for w, k in zip(raw, sizes))
        weights, gens, finite = [0] * nvars, [], False
        for w, k in zip(raw, sizes):
            block, positions = positions[:k], positions[k:]
            count_k = rng.randint(0, k + 1)
            forms = [_random_homogeneous(rng, k, rng.randint(1, 3)) for _ in range(count_k)]
            finite |= hilbert_series(HomogeneousIdeal(k, forms)).pole == 0
            gens += [f.map_variables(dict(enumerate(block)), nvars) for f in forms]
            for v in block:
                weights[v] = nvars * w - shift
        ideal = HomogeneousIdeal(nvars, gens)
        nonempty += hilbert_series(ideal).pole > 0
        yield ideal, OnePS(tuple(weights)), finite


class TestClosedForms:
    def test_single_space_values(self):
        assert chow_weight_single_space(-1, 2, 1) == -4
        assert chow_weight_single_space(1, 1, 0) == 1
        assert chow_weight_single_space(-3, 2, 0) == -6

    def test_single_space_rejects_zero_weight(self):
        with pytest.raises(PreconditionError):
            chow_weight_single_space(0, 2, 1)

    def test_join_three_cases(self):
        assert chow_weight_join(2, -3, 2, 0, 2) == 6
        assert chow_weight_join(3, -1, 2, 1, 0) == -4
        assert chow_weight_join(2, -1, 3, 0, 0) == -1

    def test_join_preconditions(self):
        with pytest.raises(PreconditionError):
            chow_weight_join(0, -1, 2, 0, 1)
        with pytest.raises(PreconditionError):
            chow_weight_join(2, -1, 2, 0, 0)  # a + b*d = 0 in the equal case


def _plane_configurations() -> list[list[tuple[int, int, int]]]:
    """Seeded configurations in P^2 with coordinates in {-2..2}, with
    repeated points (also written as proportional vectors) and collinear
    triples."""
    rng = random.Random(1977)
    grid = [p for p in product(range(-2, 3), repeat=3) if any(p)]
    out = [
        [(1, 0, 0)] * 3,
        [(1, 1, 0), (-2, -2, 0), (0, 0, 1)],  # one point twice, as proportional vectors
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1), (1, 1, 1)],
    ]
    while len(out) < 30:
        pts = rng.sample(grid, rng.randint(1, 3))
        size = rng.randint(2, 8)
        while len(pts) < size:
            p, q = rng.sample(pts, 2) if len(pts) > 1 else (pts[0], pts[0])
            k = rng.choice((-1, 1))
            on_line = tuple(a + k * b for a, b in zip(p, q))
            if rng.random() < 0.15:
                pts.append(rng.choice(pts))  # repeat
            elif any(on_line) and all(-2 <= c <= 2 for c in on_line) and rng.random() < 0.6:
                pts.append(on_line)  # collinear with p and q
            else:
                pts.append(rng.choice(grid))
        out.append(pts)
    return out


def _brute_force_margin(pts) -> Fraction:
    """max of count/d - (dim Z + 1)/3 over single points Z and over every
    line a*x + b*y + c*z = 0 with (a, b, c) in {-8..8}^3; a line through
    two points with coordinates in {-2..2} has a normal (their cross
    product) with entries of size at most 8, so no spanned line is missed."""
    d = len(pts)

    def same(p, q):  # proportional vectors: zero cross product
        return all(p[i] * q[j] == p[j] * q[i] for i, j in ((0, 1), (0, 2), (1, 2)))

    best = max(Fraction(sum(same(p, q) for q in pts), d) - Fraction(1, 3) for p in pts)
    for line in product(range(-8, 9), repeat=3):
        if any(line):
            count = sum(sum(map(mul, line, p)) == 0 for p in pts)
            best = max(best, Fraction(count, d) - Fraction(2, 3))
    return best


def _chow_points_by_echelon(cfg: PointConfiguration) -> StabilityVerdict:
    """The subset enumeration with one `Echelon` per support subset, every
    point tested against each span and spans told apart by their pivot
    rows: an independent oracle for `chow_points_stability`."""
    d = cfg.length
    support = cfg.support()
    rows = [row_from_fractions(dict(enumerate(p))) for p in cfg.points]
    best = None
    seen_spans = set()
    for size in range(1, min(len(support), cfg.dim_w - 1) + 1):
        for subset in combinations(range(len(support)), size):
            ech = Echelon()
            for k in subset:
                ech.insert(rows[support[k][0]])
            signature = frozenset((c, tuple(sorted(r.items()))) for c, r in ech.pivots.items())
            if signature in seen_spans:
                continue
            seen_spans.add(signature)
            count = sum(1 for row in rows if ech.contains(row))
            margin = Fraction(count, d) - Fraction(ech.rank, cfg.dim_w)
            if best is None or margin > best[0]:
                best = (margin, tuple(support[k][0] for k in subset), ech.rank - 1, count)
    margin, indices, dim_z, count = best
    verdict = "unstable" if margin > 0 else "stable" if margin < 0 else "strictly_semistable"
    return StabilityVerdict(verdict, indices, dim_z, count, margin)


def _configurations(dim_w: int, count: int, seed: int) -> list[list[tuple[int, ...]]]:
    """Seeded configurations in P(W) with coordinates in {-2..2}, with
    repeated points (some as proportional vectors) and points on the span
    of two or three earlier ones."""
    rng = random.Random(seed)
    grid = [p for p in product(range(-2, 3), repeat=dim_w) if any(p)]
    out = []
    while len(out) < count:
        pts = rng.sample(grid, rng.randint(1, dim_w))
        size = rng.randint(2, 8)
        while len(pts) < size:
            roll = rng.random()
            if roll < 0.25:
                pts.append(tuple(rng.choice((1, -2)) * c for c in rng.choice(pts)))
            elif roll < 0.8:
                picked = [rng.choice(pts) for _ in range(rng.randint(2, 3))]
                signs = [rng.choice((-1, 1)) for _ in picked]
                combo = tuple(sum(map(mul, signs, coords)) for coords in zip(*picked))
                pts.append(combo if any(combo) else rng.choice(grid))
            else:
                pts.append(rng.choice(grid))
        out.append(pts)
    return out


class TestChowPointsStability:
    def test_three_generic_points_in_p1(self):
        cfg = PointConfiguration.from_coords([(1, 0), (0, 1), (1, 1)])
        verdict = chow_points_stability(cfg)
        assert verdict.verdict == "stable"
        assert verdict.margin < 0

    def test_four_points_three_collinear(self):
        cfg = PointConfiguration.from_coords(
            [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        )
        verdict = chow_points_stability(cfg)
        assert verdict.verdict == "unstable"
        assert verdict.witness_indices == (0, 1)  # spans the collinear line
        assert verdict.witness_count == 3
        assert verdict.witness_dim == 1
        assert verdict.margin == Fraction(3, 4) - Fraction(2, 3)

    def test_doubled_point_in_p1(self):
        cfg = PointConfiguration.from_coords([(1, 0), (1, 0), (0, 1)])
        verdict = chow_points_stability(cfg)
        assert verdict.verdict == "unstable"
        assert verdict.witness_count == 2
        assert verdict.margin == Fraction(2, 3) - Fraction(1, 2)

    def test_strictly_semistable(self):
        # 2 distinct points in P^1: each point gives 1/2 = 1/2 exactly
        cfg = PointConfiguration.from_coords([(1, 0), (0, 1)])
        assert chow_points_stability(cfg).verdict == "strictly_semistable"

    def test_witness_ties_break_by_size_before_lex_order(self):
        # the doubled point (0,1,0) and the line z = 0 through points 0, 1
        # both reach margin 0; the single point is enumerated first, so it
        # wins over the lexicographically smaller (0, 1)
        cfg = PointConfiguration.from_coords(
            [(1, 0, 0), (0, 1, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)]
        )
        verdict = chow_points_stability(cfg)
        assert verdict.verdict == "strictly_semistable"
        assert verdict.witness_indices == (1,)
        assert (verdict.witness_dim, verdict.witness_count, verdict.margin) == (0, 2, 0)

    def test_projective_invariance(self):
        base = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        # apply an invertible change of coordinates (x,y,z) -> (x+z, y-x, z)
        moved = [(x + z, y - x, z) for x, y, z in base]
        a = chow_points_stability(PointConfiguration.from_coords(base))
        b = chow_points_stability(PointConfiguration.from_coords(moved))
        assert a.verdict == b.verdict

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            PointConfiguration.from_coords([(0, 0)])

    @pytest.mark.parametrize("pts", _plane_configurations())
    def test_against_brute_force(self, pts):
        margin = _brute_force_margin(pts)
        verdict = chow_points_stability(PointConfiguration.from_coords(pts))
        assert verdict.margin == margin
        want = "unstable" if margin > 0 else "stable" if margin < 0 else "strictly_semistable"
        assert verdict.verdict == want

    @pytest.mark.parametrize("dim_w", [2, 3, 4])
    def test_against_the_echelon_enumeration(self, dim_w):
        configs = _configurations(dim_w, 60, 1977 + dim_w)
        if dim_w == 3:  # the tie-break case above
            configs.append([(1, 0, 0), (0, 1, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)])
        verdicts = set()
        for pts in configs:
            cfg = PointConfiguration.from_coords(pts)
            verdict = chow_points_stability(cfg)
            assert verdict == _chow_points_by_echelon(cfg), pts
            verdicts.add(verdict.verdict)
        assert verdicts == {"stable", "strictly_semistable", "unstable"}
