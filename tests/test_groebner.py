"""Buchberger, normal forms, elimination and the membership oracle."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagstab import (
    GRLEX,
    HomogeneousIdeal,
    OnePS,
    Polynomial,
    TermOrder,
    buchberger,
    contains_oracle,
    degree_dimension,
    eliminate,
    ideal_equal,
    monomials_of_degree,
    normal_form,
    s_polynomial,
    weight_order,
)
from flagstab import groebner
from flagstab.groebner import _Packing, restrict_to_variables
from flagstab.poly import monomial_divides

from conftest import V, twisted_cubic


class TestSPolynomial:
    def test_identical_inputs_cancel(self):
        f = V(3, 0) * V(3, 2) - V(3, 1) ** 2
        assert s_polynomial(f, f).is_zero

    def test_coprime_leads_reduce_to_zero(self):
        f, g = V(2, 0) ** 2, V(2, 1) ** 2
        s = s_polynomial(f, g)
        assert normal_form(s, [f, g]).is_zero

    def test_hand_expansion(self):
        # f = xz - y^2 leads with xz, g = yw - z^2 leads with yw (graded lex);
        # lcm = xyzw, S = yw*f - xz*g = xz^3 - y^3 w
        x, y, z, w = (V(4, i) for i in range(4))
        s = s_polynomial(x * z - y * y, y * w - z * z)
        assert s == x * z ** 3 - y ** 3 * w

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            s_polynomial(Polynomial.zero(2), V(2, 0))


class TestNormalForm:
    def test_membership_gives_zero(self):
        gb = buchberger(twisted_cubic())
        x, y, z, w = (V(4, i) for i in range(4))
        f = (x * w - y * z) * z + (y * w - z * z) * y
        assert normal_form(f, gb.basis).is_zero

    def test_remainder_avoids_leading_monomials(self):
        lam = OnePS((2, -1, -1))
        order = weight_order(lam)
        basis = [V(3, 0) * V(3, 2) - V(3, 1) ** 2]  # lead -y^2 under the order
        r = normal_form(V(3, 1) ** 3, basis, order)
        assert all(m[1] < 2 for m in r.terms)
        assert contains_oracle(HomogeneousIdeal(3, basis), V(3, 1) ** 3 - r)

    def test_no_divisible_term(self):
        assert normal_form(V(2, 0), [V(2, 1)]) == V(2, 0)

    def test_idempotent(self):
        gb = buchberger(twisted_cubic())
        x, y, z, w = (V(4, i) for i in range(4))
        f = x ** 2 * w - y * z * w + z ** 3
        r = normal_form(f, gb.basis)
        assert normal_form(r, gb.basis) == r


class TestBuchberger:
    def test_principal_ideal(self):
        f = V(3, 0) * V(3, 2) - V(3, 1) ** 2
        gb = buchberger(HomogeneousIdeal(3, [f]))
        assert gb.basis == (f.monic(GRLEX),)

    def test_linear_monomials(self):
        gb = buchberger(HomogeneousIdeal(3, [V(3, 0), V(3, 1)]))
        assert set(gb.basis) == {V(3, 0), V(3, 1)}

    def test_twisted_cubic_s_pairs_reduce(self):
        gb = buchberger(twisted_cubic())
        for i, f in enumerate(gb.basis):
            for g in gb.basis[:i]:
                assert normal_form(s_polynomial(f, g), gb.basis).is_zero

    def test_twisted_cubic_membership_vs_oracle(self):
        ideal = twisted_cubic()
        gb = buchberger(ideal)
        for d in range(1, 6):
            for m in monomials_of_degree(4, d):
                f = Polynomial.from_monomial(m)
                assert gb.contains(f) == contains_oracle(ideal, f)

    def test_input_generators_reduce_to_zero(self):
        ideal = twisted_cubic()
        gb = buchberger(ideal, weight_order(OnePS((1, 1, -1, -1))))
        for g in ideal.generators:
            assert gb.reduce(g).is_zero

    def test_deterministic(self):
        a = buchberger(twisted_cubic())
        b = buchberger(twisted_cubic())
        assert a.basis == b.basis


def _elimination_order(nvars: int, eliminated) -> TermOrder:
    """The order `eliminate` takes its basis under: weight -1 on the
    eliminated variables, 0 on the others."""
    return weight_order(OnePS(tuple(-1 if i in eliminated else 0 for i in range(nvars))))


SMALL = [-3, -2, -1, 1, 2, 3]
# non-integer rationals and integers of size >= 10^6: the integer division
# kernel scales, clears denominators and takes contents on these
WIDE = [Fraction(k, d) for k in (-5, -2, 1, 4) for d in (3, 5, 7)] + [
    -1_000_003, 1_000_000, 2_718_281, -31_415_926_535
]


def _random_form(
    rng: random.Random, nvars: int, degree: int, nterms: int, coeffs=SMALL
) -> Polynomial:
    monos = monomials_of_degree(nvars, degree)
    picked = rng.sample(monos, min(nterms, len(monos)))
    return Polynomial(nvars, {m: rng.choice(coeffs) for m in picked})


def _random_ideals() -> list[HomogeneousIdeal]:
    """Three 5-term quadrics in 4 variables, and 3-variable ideals of
    mixed degree, from a fixed seed."""
    rng = random.Random(1988)
    out = [
        HomogeneousIdeal(4, [_random_form(rng, 4, 2, 5) for _ in range(3)])
        for _ in range(10)
    ]
    for degrees in [(1, 2), (2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3), (1, 2, 4)]:
        out.append(HomogeneousIdeal(3, [_random_form(rng, 3, d, 3) for d in degrees]))
    return out


def _wide_ideals() -> list[HomogeneousIdeal]:
    """Ideals in 3-4 variables whose coefficients are non-integer
    rationals (denominators 3, 5, 7) and integers of size >= 10^6."""
    rng = random.Random(1992)
    shapes = [(4, (2, 2, 2), 4), (4, (1, 2, 2), 4), (4, (2, 2, 2), 3)]
    shapes += [(3, (2, 2), 4), (3, (1, 3, 3), 3), (3, (2, 2, 3), 3), (3, (2, 3), 4)]
    return [
        HomogeneousIdeal(n, [_random_form(rng, n, d, t, WIDE) for d in degrees])
        for n, degrees, t in shapes
    ]


RANDOM_IDEALS = _random_ideals()
WIDE_IDEALS = _wide_ideals()
RANDOM_IDS = [f"{ideal.nvars}vars-{k}" for k, ideal in enumerate(RANDOM_IDEALS)]
RANDOM_IDS += [f"{ideal.nvars}vars-wide-{k}" for k, ideal in enumerate(WIDE_IDEALS)]


class TestAgainstIndependentChecks:
    """Pair pruning and integer arithmetic must not change the basis:
    GRLEX bases are compared with sympy; weight and elimination orders are
    checked by Buchberger's criterion over all pairs of the returned basis."""

    @pytest.mark.parametrize("ideal", RANDOM_IDEALS + WIDE_IDEALS, ids=RANDOM_IDS)
    def test_grlex_basis_matches_sympy(self, ideal):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"x0:{ideal.nvars}")
        gens = [
            sympy.Poly.from_dict(
                {m: sympy.Rational(c.numerator, c.denominator) for m, c in g.terms.items()},
                *xs,
            ).as_expr()
            for g in ideal.generators
        ]
        reference = sympy.groebner(gens, *xs, order="grlex", domain="QQ")
        want = {
            Polynomial(
                ideal.nvars,
                {
                    m: Fraction(int(c.numerator), int(c.denominator))
                    for m, c in p.as_dict(native=True).items()
                },
            ).monic(GRLEX)
            for p in reference.polys
        }
        assert {g.monic(GRLEX) for g in buchberger(ideal).basis} == want

    @pytest.mark.parametrize("ideal", RANDOM_IDEALS + WIDE_IDEALS, ids=RANDOM_IDS)
    def test_weight_and_block_orders_satisfy_buchberger_criterion(self, ideal):
        n = ideal.nvars
        weights = (3,) + (-1,) * (n - 1)
        orders = [
            weight_order(OnePS(weights)),
            weight_order(OnePS(weights[::-1])),
            _elimination_order(n, {0}),
            _elimination_order(n, {n - 2, n - 1}),
        ]
        for order in orders:
            basis = buchberger(ideal, order).basis
            for i, f in enumerate(basis):
                for g in basis[:i]:
                    assert normal_form(s_polynomial(f, g, order), basis, order).is_zero
            for g in ideal.generators:
                assert normal_form(g, basis, order).is_zero


NF_ORDERS = [GRLEX, weight_order(OnePS((2, -1, -1))), _elimination_order(3, {0})]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32), order=st.sampled_from(NF_ORDERS))
def test_normal_form_of_rational_input_by_any_basis(seed, order):
    """On a basis that is not a Groebner basis, the remainder of a rational
    f still has no term divisible by a basis lead, and f minus it lies in
    the ideal (the degreewise oracle decides membership)."""
    rng = random.Random(seed)
    basis = [_random_form(rng, 3, d, 3, WIDE) for d in rng.choice([(1, 2), (2, 2), (2, 2, 3)])]
    pairs = combinations(basis, 2)
    assume(any(not normal_form(s_polynomial(a, b, order), basis, order).is_zero for a, b in pairs))
    f = _random_form(rng, 3, 3, 6, WIDE)
    r = normal_form(f, basis, order)
    leads = [b.leading(order)[0] for b in basis]
    assert not any(monomial_divides(mb, m) for m in r.terms for mb in leads)
    assert contains_oracle(HomogeneousIdeal(3, basis), f - r)


class TestEliminate:
    def test_monomial_restriction(self):
        out = eliminate(HomogeneousIdeal(3, [V(3, 0), V(3, 1)]), {1, 2})
        assert out == HomogeneousIdeal(3, [V(3, 1)])

    def test_difference_of_variables(self):
        out = eliminate(HomogeneousIdeal(2, [V(2, 0) - V(2, 1)]), {1})
        assert out.is_zero
        # cross-check by degree-bounded linear algebra
        ideal = HomogeneousIdeal(2, [V(2, 0) - V(2, 1)])
        for d in range(1, 4):
            assert not contains_oracle(ideal, V(2, 1) ** d)

    def test_conic_dominance(self):
        # plane conic in (x, y1, y2), no polynomial in x alone
        x, y1, y2 = (V(3, i) for i in range(3))
        out = eliminate(HomogeneousIdeal(3, [x * y2 - y1 * y1]), {0})
        assert out.is_zero

    def test_requires_kept_variable(self):
        with pytest.raises(ValueError):
            eliminate(HomogeneousIdeal(2, [V(2, 0)]), set())


def _eliminated_dimension(ideal: HomogeneousIdeal, keep, d: int) -> int:
    """dim (I ∩ k[keep])_d from the degreewise oracle: with the monomials
    that use an eliminated variable as the first columns, the echelon rows
    pivoting on a kept-only monomial span the degree-d part of I ∩ k[keep]."""
    columns = groebner.degree_columns(
        ideal.nvars, d, colkey=lambda m: all(e == 0 for i, e in enumerate(m) if i not in keep)
    )
    _, ech = groebner.degree_echelon(ideal, d, columns)
    first_kept = sum(1 for m in columns if any(m[i] for i in range(ideal.nvars) if i not in keep))
    return sum(1 for c in ech.pivots if c >= first_kept)


@pytest.mark.parametrize("seed", range(30))
def test_eliminate_matches_the_degreewise_oracle(seed):
    """`eliminate` against linear algebra on seeded ideals in 2-5 variables:
    every degree up to 4 of the eliminated ideal has the oracle's dimension.
    One or two generators more than eliminated variables keep most
    intersections nonzero."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    keep = set(rng.sample(range(n), rng.randint(1, n - 1)))
    degrees = sorted(rng.choice((1, 2, 2)) for _ in range(n - len(keep) + rng.randint(1, 2)))
    ideal = HomogeneousIdeal(n, [_random_form(rng, n, d, 3) for d in degrees])
    small = restrict_to_variables(eliminate(ideal, keep), keep)
    for d in range(1, 5):
        assert degree_dimension(small, d) == _eliminated_dimension(ideal, keep, d), d


class TestOracle:
    def test_degree_dimension_conic(self):
        # I_3 of a conic in P^2 has dimension 10 - 7 = 3
        conic = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])
        assert degree_dimension(conic, 3) == 3

    def test_restrict_to_variables(self):
        ideal = HomogeneousIdeal(3, [V(3, 1) * V(3, 2)])
        small = restrict_to_variables(ideal, [1, 2])
        assert small == HomogeneousIdeal(2, [V(2, 0) * V(2, 1)])

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            contains_oracle(twisted_cubic(), V(4, 0) + V(4, 1) ** 2)


@settings(deadline=None, max_examples=40)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=4, max_size=10))
def test_ideal_equal_under_generator_shuffle(coeffs):
    x, y, z, w = (V(4, i) for i in range(4))
    gens = [x * z - y * y, y * w - z * z, x * w - y * z]
    mixed = [
        gens[0] + coeffs[0] * gens[1],
        gens[1],
        gens[2] + coeffs[1] * gens[0],
    ]
    assert ideal_equal(HomogeneousIdeal(4, gens), HomogeneousIdeal(4, mixed))


@st.composite
def _packed_case(draw):
    """An order on up to 6 variables and three monomials under it, with
    exponents up to 64 or within 64 of the degree bound over n."""
    n = draw(st.integers(1, 6))
    top = draw(st.sampled_from([64, (_Packing.BOUND - 1) // n]))
    weight = draw(st.sampled_from([3, 10**18]))
    weights = draw(st.none() | st.tuples(*[st.integers(-weight, weight)] * n))
    monomials = st.tuples(*[st.integers(top - 64, top)] * n)
    return TermOrder(weights), draw(monomials), draw(monomials), draw(monomials)


@settings(deadline=None, max_examples=200)
@given(case=_packed_case())
def test_packed_monomials_follow_the_order(case):
    order, a, b, c = case
    packing = _Packing(order, len(a))
    pa, pb, ka = packing.pack(a), packing.pack(b), order.key(a)
    for m in (b, a[::-1], a[1:] + a[:1]):  # the permutations of a tie on degree
        pm, km = packing.pack(m), order.key(m)
        assert (pa > pm) - (pa < pm) == (ka > km) - (ka < km)
    ab = tuple(x + y for x, y in zip(a, b))
    if sum(ab) < _Packing.BOUND:
        assert pa + pb == packing.pack(ab)
    assert packing.unpack(pa) == a
    divisor = tuple(max(x - y, 0) for x, y in zip(a, c))  # divides a
    for m in (b, c, divisor, (0,) * len(a)):
        assert (not (pa - packing.pack(m)) & packing.mask) == monomial_divides(m, a)


def test_degree_past_the_packing_bound_raises():
    packing = _Packing(weight_order(OnePS((10**18, -1))), 2)
    assert packing.unpack(packing.pack((_Packing.BOUND - 2, 1))) == (_Packing.BOUND - 2, 1)
    with pytest.raises(ValueError, match="degree"):
        packing.pack((_Packing.BOUND - 1, 1))
    past = Polynomial.from_monomial((_Packing.BOUND, 0))
    with pytest.raises(ValueError, match="degree"):
        normal_form(past, [V(2, 0)])
    with pytest.raises(ValueError, match="degree"):
        buchberger(HomogeneousIdeal(2, [past]))
    # every generator is below the bound, the lcm of their leads is not
    e = _Packing.BOUND // 2 + 5
    ideal = HomogeneousIdeal(
        2, [Polynomial.from_monomial((e, 1)), Polynomial.from_monomial((1, e))]
    )
    with pytest.raises(ValueError, match="degree"):
        buchberger(ideal)


@pytest.mark.parametrize(
    "order",
    [weight_order(OnePS((3, -1, -1))), _elimination_order(3, {2})],
    ids=["weight", "elimination"],
)
def test_principal_ideal_skips_the_division_kernel(order, monkeypatch):
    """A one-generator basis is the generator made monic under the order,
    here with another lead than under graded lex."""

    def refuse(*args):
        raise AssertionError("_divide entered on a principal ideal")

    monkeypatch.setattr(groebner, "_divide", refuse)
    x, y, z = (V(3, i) for i in range(3))
    (f,) = HomogeneousIdeal(3, [x**2 + 3 * x * y - 2 * y * z]).generators
    assert f.leading(order)[0] != f.leading(GRLEX)[0]
    assert buchberger(HomogeneousIdeal(3, [f]), order).basis == (f.monic(order),)
    assert f.monic(order).leading(order)[1] == 1


# `_divide` calls of one basis computation, final interreduction included,
# under GRLEX, a weight order and the order eliminating x0, as pair pruning
# on exponent tuples made them: the packed criteria prune the same pairs
DIVIDE_CALLS = [
    (35, 10, 35), (38, 14, 38), (23, 18, 23), (19, 19, 19), (38, 14, 38), (29, 14, 29),
    (34, 18, 34), (23, 18, 23), (38, 15, 38), (30, 15, 30), (3, 3, 3), (2, 5, 2),
    (10, 9, 10), (17, 19, 17), (21, 17, 21), (8, 8, 8), (19, 18, 19), (11, 8, 11),
    (33, 6, 33), (8, 6, 8), (10, 10, 10), (15, 15, 15), (8, 5, 8),
]  # fmt: skip


@pytest.mark.parametrize(
    "ideal, calls", zip(RANDOM_IDEALS + WIDE_IDEALS, DIVIDE_CALLS), ids=RANDOM_IDS
)
def test_pair_pruning_keeps_the_division_count(ideal, calls, monkeypatch):
    divide, count = groebner._divide, [0]

    def counting(*args):
        count[0] += 1
        return divide(*args)

    monkeypatch.setattr(groebner, "_divide", counting)
    weights = (3,) + (-1,) * (ideal.nvars - 1)
    got = []
    for order in (GRLEX, weight_order(OnePS(weights)), _elimination_order(ideal.nvars, {0})):
        count[0] = 0
        groebner._buchberger(ideal, order)
        got.append(count[0])
    assert tuple(got) == calls


@pytest.mark.parametrize("ideal", RANDOM_IDEALS[:6] + WIDE_IDEALS[:3])
def test_scaled_weights_give_the_same_basis(ideal):
    """λ and 10^12·λ define one order, though they pack to other widths."""
    lam = OnePS((3, -2) + (1,) * (ideal.nvars - 3) + (-2,))
    basis = buchberger(ideal, weight_order(lam)).basis
    assert buchberger(ideal, weight_order(lam.scale(10**12))).basis == basis


@pytest.mark.parametrize("ideal", RANDOM_IDEALS + WIDE_IDEALS, ids=RANDOM_IDS)
def test_normal_form_matches_sympy(ideal):
    """The remainder by a reduced GRLEX basis is unique, so it must equal
    sympy's `reduced` by sympy's basis."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{ideal.nvars}")

    def expr(f):
        terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in f.terms.items()}
        return sympy.Poly.from_dict(terms, *xs).as_expr()

    reference = sympy.groebner([expr(g) for g in ideal.generators], *xs, order="grlex", domain="QQ")
    basis = buchberger(ideal).basis
    rng = random.Random(ideal.generators[0].to_str())
    for degree in (2, 3, 4):
        f = _random_form(rng, ideal.nvars, degree, 6, WIDE)
        _, r = sympy.reduced(expr(f), list(reference.exprs), *xs, order="grlex", domain="QQ")
        want = {
            m: Fraction(int(c.numerator), int(c.denominator))
            for m, c in sympy.Poly(r, *xs).as_dict(native=True).items()
            if c
        }
        assert normal_form(f, basis) == Polynomial(ideal.nvars, want)
