"""Polynomial arithmetic, weights, term orders and initial parts."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagstab import (
    GRLEX,
    DimensionError,
    HomogeneousIdeal,
    OnePS,
    Polynomial,
    buchberger,
    gb_memo,
    initial_part,
    monomials_of_degree,
)
from flagstab import groebner, poly

from conftest import V, compare


W211 = OnePS((2, -1, -1))


class TestMonomialWeight:
    def test_direct_sum(self):
        assert W211.weight((1, 0, 1)) == 1

    def test_negative(self):
        assert W211.weight((0, 2, 0)) == -2

    def test_constant_monomial(self):
        assert W211.weight((0, 0, 0)) == 0
        assert OnePS((5, -7)).weight((0, 0)) == 0

    def test_length_mismatch(self):
        # worded alike by the weight and the order key
        for method in (W211.weight, W211.key):
            with pytest.raises(DimensionError, match="^3 weights for 2 variables$"):
                method((1, 0))

    def test_empty_vector_is_graded_lex(self):
        assert GRLEX == OnePS(())
        assert GRLEX.weight((4, 0, 1)) == 0
        assert GRLEX.key((4, 0, 1)) == (5, 0, (4, 0, 1))


class TestCompare:
    def test_degree_first(self):
        # x vs y^2: lower degree is smaller
        assert compare((1, 0, 0), (0, 2, 0), GRLEX) < 0

    def test_weight_descending_within_degree(self):
        # xz (weight 1) vs y^2 (weight -2): minimal weight is order-maximal
        ordw = W211
        assert compare((1, 0, 1), (0, 2, 0), ordw) < 0
        assert compare((0, 2, 0), (1, 0, 1), ordw) > 0

    def test_zero_weights_fall_back_to_exponents(self):
        ordw = OnePS((0, 0, 0))
        assert compare((1, 0, 1), (0, 2, 0), ordw) > 0

    def test_equal(self):
        assert compare((1, 2, 3), (1, 2, 3), GRLEX) == 0


class TestInitialPart:
    def test_conic(self):
        f = V(3, 0) * V(3, 2) - V(3, 1) ** 2
        assert initial_part(f, W211) == -(V(3, 1) ** 2)

    def test_all_weights_equal(self):
        f = V(3, 0) * V(3, 2) - V(3, 1) ** 2
        assert initial_part(f, OnePS((1, 1, 1))) == f

    def test_single_term(self):
        f = V(3, 0)
        assert initial_part(f, W211) == f

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            initial_part(Polynomial.zero(3), W211)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            initial_part(V(3, 0) + V(3, 1) ** 2, W211)


monomials3 = st.tuples(*([st.integers(0, 4)] * 3))
weights3 = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))


@settings(deadline=None, max_examples=200)
@given(a=monomials3, b=monomials3, c=monomials3, w=weights3)
def test_order_multiplicative(a, b, c, w):
    order = OnePS(w)
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    assert compare(a, b, order) == compare(ac, bc, order)


@settings(deadline=None, max_examples=200)
@given(a=monomials3, b=monomials3, w=weights3)
def test_order_total_and_antisymmetric(a, b, w):
    order = OnePS(w)
    s = compare(a, b, order)
    assert s in (-1, 0, 1)
    assert s == -compare(b, a, order)
    assert (s == 0) == (a == b)


@settings(deadline=None, max_examples=100)
@given(w=weights3, coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=6))
def test_initial_part_idempotent(w, coeffs):
    lam = OnePS(w)
    monos = monomials_of_degree(3, 3)
    f = Polynomial.zero(3)
    for m, c in zip(monos, coeffs):
        f = f + Polynomial(3, {m: c})
    if f.is_zero:
        return
    g = initial_part(f, lam)
    assert initial_part(g, lam) == g


@settings(deadline=None, max_examples=100)
@given(
    c1=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    c2=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_homogeneity_closure(c1, c2):
    f = sum((c * V(3, i) for i, c in enumerate(c1)), Polynomial.zero(3))
    g = sum((c * V(3, i) for i, c in enumerate(c2)), Polynomial.zero(3))
    assert (f + g).is_homogeneous
    assert (f * g).is_homogeneous
    assert (f ** 2).is_homogeneous


@pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (5, 4), (32, 6), (33, 7)])
def test_power_by_squaring(monkeypatch, k, products):
    """f**k squares once per bit after the first and multiplies once per
    set bit, with no square past the highest bit: f**32 never builds f**64.
    It counts the term-dict products that the parser shares."""
    f = V(2, 0) + 2 * V(2, 1)
    expected = Polynomial.constant(2, 1)
    for _ in range(k):
        expected = expected * f
    count = 0
    multiply = poly.terms_mul

    def counted(a, b):
        nonlocal count
        count += 1
        return multiply(a, b)

    monkeypatch.setattr(poly, "terms_mul", counted)
    assert f**k == expected
    assert count == products


@pytest.mark.parametrize("k", range(10))
def test_power_of_a_rational_polynomial(k):
    """(x/2 + 3y/4)^k takes the power of the primitive part 2x + 3y and
    the content (1/4)^k: it equals k repeated products and is canonical."""
    f = Fraction(1, 2) * V(2, 0) + Fraction(3, 4) * V(2, 1)
    expected = Polynomial.constant(2, 1)
    for _ in range(k):
        expected = expected * f
    power = f**k
    assert power == expected
    assert power == Polynomial(2, power.terms)  # canonical, as a fresh build is
    assert (power.num, power.den) == (1, 4**k)
    assert gcd(*power.ints.values()) == 1


def test_powers_of_zero():
    zero = Polynomial.zero(3)
    assert zero**0 == Polynomial.constant(3, 1)
    for k in (1, 2, 7):
        assert zero**k == zero
        assert (zero**k).is_zero


@settings(deadline=None, max_examples=100)
@given(p=st.integers(-50, 50), q=st.integers(1, 50))
def test_scalar_exactness(p, q):
    if p == 0:
        return
    r = Fraction(p, q)
    assert r * (1 / r) == 1


class TestOnePS:
    def test_sl_normalized(self):
        assert OnePS((2, -1, -1)).sl_normalized
        assert not OnePS((1, 0, 0)).sl_normalized

    def test_weight_method(self):
        assert W211.weight((1, 1, 0)) == 1


class TestHomogeneousIdeal:
    def test_rejects_inhomogeneous_generator(self):
        with pytest.raises(ValueError):
            HomogeneousIdeal(3, [V(3, 0) + V(3, 1) ** 2])

    def test_canonical_form_deduplicates(self):
        f = V(3, 0) * V(3, 2) - V(3, 1) ** 2
        a = HomogeneousIdeal(3, [f, 2 * f, -f])
        b = HomogeneousIdeal(3, [f])
        assert a == b
        assert len(a.generators) == 1

    def test_generator_order_is_canonical(self):
        f = V(3, 0) ** 2
        g = V(3, 1) * V(3, 2)
        assert HomogeneousIdeal(3, [g, f]) == HomogeneousIdeal(3, [f, g])

    def test_generators_of_equal_support_order_by_coefficients(self):
        # x0^2 + a*x0*x1 + b*x1*x2 and x0^2 + c*x0*x1 + d*x1*x2 tie on
        # degree, lead and support
        x0, x1, x2 = (V(3, i) for i in range(3))
        rng = random.Random(2007)
        for _ in range(300):
            a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
            f = x0**2 + a * x0 * x1 + b * x1 * x2
            g = x0**2 + c * x0 * x1 + d * x1 * x2
            one, other = HomogeneousIdeal(3, [f, g]), HomogeneousIdeal(3, [g, f])
            assert one == other and hash(one) == hash(other)
            with gb_memo():
                assert buchberger(one) == buchberger(other)
                assert len(groebner._MEMO.get()) == 1

    def test_same_support_ideals_stay_distinct_memo_keys(self):
        x0, x1, x2 = (V(3, i) for i in range(3))
        one = HomogeneousIdeal(3, [x0**2 + x1 * x2])
        other = HomogeneousIdeal(3, [x0**2 + 2 * x1 * x2])
        assert one != other and hash(one) == hash(other)  # same support
        with gb_memo():
            bases = buchberger(one), buchberger(other)
            assert len(groebner._MEMO.get()) == 2
        assert bases[0].basis == one.generators
        assert bases[1].basis == other.generators

    def test_to_str_roundtrip_shape(self):
        f = V(3, 0) * V(3, 2) - V(3, 1) ** 2
        assert f.to_str(["x", "y", "z"]) == "x*z - y^2"


# -- content times primitive part, against a Fraction-dict reference ----
#
# The reference holds a polynomial as {monomial: nonzero Fraction} and
# computes each operation the schoolbook way.

rationals = st.one_of(
    st.integers(-40, 40), st.fractions(min_value=-40, max_value=40, max_denominator=12)
).filter(bool)
polys3 = st.dictionaries(monomials3, rationals, max_size=5)
orders3 = st.one_of(st.just(GRLEX), weights3.map(OnePS))


def _ref(terms: dict) -> dict:
    return {m: Fraction(c) for m, c in terms.items() if c}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _ref(out)


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _ref(out)


def _ref_to_str(a: dict, names, order) -> str:
    if not a:
        return "0"
    parts = []
    for m, c in sorted(a.items(), key=lambda t: order.key(t[0]), reverse=True):
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e)
        coef = str(abs(c))
        body = coef if not mono else mono if coef == "1" else f"{coef}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in parts[1:])


def assert_canonical(f: Polynomial) -> None:
    """Content num/den > 0 in lowest terms, primitive nonzero integer
    terms, and content 1 for zero."""
    assert f.num > 0 and f.den > 0 and gcd(f.num, f.den) == 1
    assert all(type(c) is int and c for c in f.ints.values())
    if f.ints:
        assert gcd(*f.ints.values()) == 1
    else:
        assert (f.num, f.den) == (1, 1)


@settings(deadline=None, max_examples=100)
@given(a=polys3, b=polys3, k=rationals)
def test_arithmetic_matches_reference(a, b, k):
    f, g = Polynomial(3, a), Polynomial(3, b)
    ra, rb = _ref(a), _ref(b)
    k = Fraction(k)
    negb = {m: -c for m, c in rb.items()}
    for got, want in [
        (f, ra),
        (f + g, _ref_add(ra, rb)),
        (f - g, _ref_add(ra, negb)),
        (f * g, _ref_mul(ra, rb)),
        (-f, {m: -c for m, c in ra.items()}),
        (f * k, {m: c * k for m, c in ra.items()}),
        (k * f, {m: c * k for m, c in ra.items()}),
        (f + k, _ref_add(ra, {(0, 0, 0): k})),
        (k - f, _ref_add({(0, 0, 0): k}, {m: -c for m, c in ra.items()})),
        (f * 0, {}),
        (f - f, {}),
    ]:
        assert_canonical(got)
        assert got.terms == want


@settings(deadline=None, max_examples=100)
@given(
    a=polys3,
    order=orders3,
    i=st.integers(0, 2),
    cut=st.sets(st.integers(0, 2)),
    image=st.permutations(range(4)),
    m=monomials3,
    point=st.tuples(*[st.fractions(-5, 5, max_denominator=6) | st.integers(-5, 5)] * 3),
)
def test_structure_matches_reference(a, order, i, cut, image, m, point):
    f, ra = Polynomial(3, a), _ref(a)
    want_partial = {
        tuple(e - (j == i) for j, e in enumerate(t)): c * t[i] for t, c in ra.items() if t[i]
    }
    mapping = dict(enumerate(image[:3]))
    want_mapped = {
        tuple(next((t[s] for s, d in mapping.items() if d == v), 0) for v in range(4)): c
        for t, c in ra.items()
    }
    for got, want in [
        (f.partial(i), want_partial),
        (f.substitute_zero(cut), {t: c for t, c in ra.items() if not any(t[j] for j in cut)}),
        (f.map_variables(mapping, 4), want_mapped),
    ]:
        assert_canonical(got)
        assert got.terms == want
    assert f.terms.get(m, 0) == ra.get(m, 0)
    assert f.evaluate(point) == sum(c * prod(v**e for v, e in zip(point, t)) for t, c in ra.items())
    assert f.to_str(["x", "y", "z"], order) == _ref_to_str(ra, ["x", "y", "z"], order)
    if not ra:
        assert f.is_zero and f.monic(order) == f
        return
    lead = max(ra, key=order.key)
    assert max(f.ints, key=order.key) == lead
    monic = f.monic(order)
    assert_canonical(monic)
    assert monic.terms == {t: c / ra[lead] for t, c in ra.items()}


@settings(deadline=None, max_examples=100)
@given(d=st.integers(0, 3), data=st.data(), w=weights3)
def test_initial_part_matches_reference(d, data, w):
    monomials = st.sampled_from(monomials_of_degree(3, d))
    terms = data.draw(st.dictionaries(monomials, rationals, min_size=1, max_size=5))
    lam, ra = OnePS(w), _ref(terms)
    wmin = min(lam.weight(t) for t in ra)
    got = initial_part(Polynomial(3, terms), lam)
    assert_canonical(got)
    assert got.terms == {t: c for t, c in ra.items() if lam.weight(t) == wmin}


@settings(deadline=None, max_examples=100)
@given(a=polys3, b=polys3, k=rationals, t=st.integers(1, 12))
def test_equal_polynomials_hash_equal(a, b, k, t):
    """Equal polynomials reached by other arithmetic, with their terms in
    another order or from a non-primitive integer dict, hash equal, and
    every route ends in the canonical form."""
    f, g = Polynomial(3, a), Polynomial(3, b)
    routes = [
        Polynomial(3, dict(reversed(a.items()))) * k * (1 / Fraction(k)),
        (f + g) - g,
        -(-f),
        f * Polynomial.constant(3, 1),
        Polynomial.from_ints(3, {m: c * t for m, c in f.ints.items()}, f.num, f.den * t),
        Polynomial(3, f.terms),
    ]
    if not f.is_zero:
        c = f.terms[max(f.ints, key=GRLEX.key)]
        routes.append(f.monic(GRLEX) * c)
    for h in routes:
        assert_canonical(h)
        assert h == f and hash(h) == hash(f)
    assert Polynomial(3, {}) == f - f == f * 0 == Polynomial.zero(3)


def test_constructor_checks():
    with pytest.raises(DimensionError):
        Polynomial(3, {(1, 0): 1})
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})
    f = Polynomial(2, {(1, 0): Fraction(4, 6), (0, 1): -2})
    assert (f.ints, f.num, f.den) == ({(1, 0): 1, (0, 1): -3}, 2, 3)
