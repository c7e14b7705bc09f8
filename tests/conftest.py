"""Shared test corpus: ideals with weight vectors, and rational flags.

Everything here is deterministic (seeded RNG) so golden values and the
byte-determinism checks stay stable across runs.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import strategies as st

from flagstab import HomogeneousIdeal, OnePS, Polynomial, monomials_of_degree
from flagstab.hilbert import PointConfiguration
from flagstab.flags import HyperplanarFlag


def V(nvars: int, i: int) -> Polynomial:
    return Polynomial.variable(nvars, i)


def poly(nvars: int, *terms) -> Polynomial:
    """Build a polynomial from (coeff, exponents) pairs."""
    out = Polynomial.zero(nvars)
    for c, exps in terms:
        out = out + Polynomial.from_monomial(tuple(exps), c)
    return out


def twisted_cubic() -> HomogeneousIdeal:
    x, y, z, w = (V(4, i) for i in range(4))
    return HomogeneousIdeal(4, [x * z - y * y, y * w - z * z, x * w - y * z])


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
        out = out + Polynomial.from_monomial(m, c)
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
