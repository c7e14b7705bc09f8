"""Acceptance suite: the nine primary criteria.

Each test prints a single pass/fail line (bypassing pytest capture) so a
plain `pytest -v` run shows per-criterion outcomes at a glance.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from flagstab import (
    GradedOnePS,
    HomogeneousIdeal,
    OnePS,
    Polynomial,
    buchberger,
    chow_points_stability,
    chow_weight_numeric,
    flag_limit,
    flat_limit,
    flat_limit_oracle,
    hilbert_function,
    monomials_of_degree,
    normal_form,
    nrgit_stage_check,
    verify_limit_is_join,
)
from flagstab.cli import main
from flagstab.geometry import Splitting
from flagstab.hilbert import PointConfiguration

from conftest import (
    CUBIC_ROOTS,
    QUARTIC_ROOTS,
    V,
    chow_weight_join,
    chow_weight_single_space,
    contains_oracle,
    corpus_pairs,
    degree_dimension,
    join_ideal,
    make_curve_flag,
    s_polynomial,
    twisted_cubic,
)

DEGREE_BOUND = 6

# one line per criterion; echoed in the pytest terminal summary (see conftest)
CRITERION_LINES: list[str] = []


@contextmanager
def report(num: int, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        CRITERION_LINES.append(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    CRITERION_LINES.append(f"criterion {num} ({name}): PASS ({elapsed:.1f}s)")


_LIMITS: dict[str, tuple[HomogeneousIdeal, OnePS, HomogeneousIdeal]] = {}


def _corpus_limits():
    if not _LIMITS:
        for name, ideal, lam in corpus_pairs():
            _LIMITS[name] = (ideal, lam, flat_limit(ideal, lam))
    return _LIMITS


def test_criterion_1_flat_limit_oracle_equivalence():
    with report(1, "flat-limit oracle equivalence"):
        t0 = time.perf_counter()
        limits = _corpus_limits()
        assert len({name.split("/")[0] for name in limits}) >= 20
        assert len(limits) >= 20 * 3
        for name, (ideal, lam, limit) in limits.items():
            oracle = flat_limit_oracle(ideal, lam, DEGREE_BOUND)
            for g in oracle.generators:
                assert contains_oracle(limit, g), f"{name}: oracle gen not in limit"
            for m in range(DEGREE_BOUND + 1):
                assert degree_dimension(limit, m) == degree_dimension(oracle, m), (
                    f"{name}: dimension mismatch in degree {m}"
                )
        assert time.perf_counter() - t0 < 120


def test_criterion_2_flatness():
    with report(2, "flat limits preserve Hilbert functions"):
        for name, (ideal, lam, limit) in _corpus_limits().items():
            for m in range(DEGREE_BOUND + 1):
                assert hilbert_function(limit, m) == hilbert_function(ideal, m), (
                    f"{name}: Hilbert function changed in degree {m}"
                )


def _single_space_instances():
    """Subvarieties contained in one weight space of an sl-normalized
    two-block 1PS, with the expected (b, d, r)."""
    u, w1, w2 = (V(3, i) for i in range(3))
    u4, x1, x2, x3 = (V(4, i) for i in range(4))
    conic3 = x1 * x3 - x2 * x2
    tc = twisted_cubic()
    tc5 = HomogeneousIdeal(
        5,
        [V(5, 0)]
        + [g.map_variables({i: i + 1 for i in range(4)}, 5) for g in tc.generators],
    )
    conic5 = HomogeneousIdeal(
        5, [V(5, 0), V(5, 1), V(5, 2) * V(5, 4) - V(5, 3) ** 2]
    )
    return [
        (HomogeneousIdeal(2, [V(2, 1)]), (1, -1), 1, 1, 0),
        (HomogeneousIdeal(2, [V(2, 0)]), (1, -1), -1, 1, 0),
        (HomogeneousIdeal(2, [V(2, 1)]), (2, -2), 2, 1, 0),
        (HomogeneousIdeal(3, [u, w1 * w2]), (2, -1, -1), -1, 2, 0),
        (HomogeneousIdeal(3, [u, w1 * w2 * (w1 + w2)]), (2, -1, -1), -1, 3, 0),
        (HomogeneousIdeal(3, [u, w1]), (2, -1, -1), -1, 1, 0),
        (HomogeneousIdeal(3, [u]), (2, -1, -1), -1, 1, 1),
        (HomogeneousIdeal(4, [u4, conic3]), (3, -1, -1, -1), -1, 2, 1),
        (HomogeneousIdeal(4, [u4, conic3]), (-3, 1, 1, 1), 1, 2, 1),
        (tc5, (4, -1, -1, -1, -1), -1, 3, 1),
        (conic5, (3, 3, -2, -2, -2), -2, 2, 1),
    ]


def test_criterion_3_single_weight_space_closed_form():
    with report(3, "single-weight-space Chow weights match b*d*(r+1)"):
        t0 = time.perf_counter()
        instances = _single_space_instances()
        assert len(instances) >= 10
        for ideal, weights, b, d, r in instances:
            lam = OnePS(weights)
            assert lam.sl_normalized
            assert chow_weight_numeric(ideal, lam) == chow_weight_single_space(b, d, r)
        assert time.perf_counter() - t0 < 60


def _join_instances():
    """Joins J(Y, P(U)) with sl-normalized (a on U, b on W) weights and
    the Lemma parameters (a, b, d, dimY, dimPU)."""
    out = []
    # case dimY < dimPU
    two_pts = HomogeneousIdeal(2, [V(2, 0) * V(2, 1)])
    out.append(
        (join_ideal(two_pts, Splitting(5, (0, 1, 2), (3, 4))), (2, 2, 2, -3, -3),
         (2, -3, 2, 0, 2), 6)
    )
    out.append(
        (join_ideal(two_pts, Splitting(4, (0, 1), (2, 3))), (1, 1, -1, -1),
         (1, -1, 2, 0, 1), 2)
    )
    # case dimY > dimPU
    conic = HomogeneousIdeal(3, [V(3, 0) * V(3, 2) - V(3, 1) ** 2])
    out.append(
        (join_ideal(conic, Splitting(4, (0,), (1, 2, 3))), (3, -1, -1, -1),
         (3, -1, 2, 1, 0), -4)
    )
    out.append(
        (join_ideal(twisted_cubic(), Splitting(5, (0,), (1, 2, 3, 4))),
         (4, -1, -1, -1, -1), (4, -1, 3, 1, 0), -6)
    )
    # equal-dimension case
    w1, w2 = V(2, 0), V(2, 1)
    three_pts = HomogeneousIdeal(2, [w1 * w2 * (w1 + w2)])
    four_pts = HomogeneousIdeal(2, [w1 * w2 * (w1 + w2) * (w1 - 2 * w2)])
    out.append(
        (join_ideal(three_pts, Splitting(3, (0,), (1, 2))), (2, -1, -1),
         (2, -1, 3, 0, 0), -1)
    )
    out.append(
        (join_ideal(four_pts, Splitting(3, (0,), (1, 2))), (2, -1, -1),
         (2, -1, 4, 0, 0), -2)
    )
    return out


def test_criterion_4_join_closed_form():
    with report(4, "join Chow weights match the three-case closed form"):
        seen = set()
        for ideal, weights, params, expected in _join_instances():
            a, b, d, dim_y, dim_pu = params
            closed = chow_weight_join(a, b, d, dim_y, dim_pu)
            assert closed == expected
            assert chow_weight_numeric(ideal, OnePS(weights)) == closed
            if dim_y < dim_pu:
                seen.add("lt")
            elif dim_y > dim_pu:
                seen.add("gt")
            else:
                seen.add("eq")
        assert seen == {"lt", "gt", "eq"}
        values = {e for _, _, _, e in _join_instances()}
        assert {6, -4, -1} <= values


def test_criterion_5_limit_is_join():
    with report(5, "two-weight limits equal joins"):
        x, y1, y2 = (V(3, i) for i in range(3))
        x4, z1, z2, z3 = (V(4, i) for i in range(4))
        instances = [
            (HomogeneousIdeal(3, [x * x - y1 * y2]), Splitting(3, (0,), (1, 2)), -3, 1),
            (HomogeneousIdeal(3, [x * x - y1 * y2]), Splitting(3, (0,), (1, 2)), -1, 2),
            (HomogeneousIdeal(3, [x * y2 - y1 * y1]), Splitting(3, (0,), (1, 2)), -2, 1),
            (HomogeneousIdeal(4, [x4 * x4 - z1 * z2]), Splitting(4, (0,), (1, 2, 3)), -2, 1),
            (twisted_cubic(), Splitting(4, (0,), (1, 2, 3)), -3, 1),
        ]
        for ideal, split, a, b in instances:
            rep = verify_limit_is_join(ideal, split, a, b)
            assert rep.ok, rep.reason


def test_criterion_6_point_stability():
    with report(6, "zero-cycle Chow stability verdicts"):
        stable1 = PointConfiguration.from_coords([(1, 0), (0, 1), (1, 1)])
        assert chow_points_stability(stable1).verdict == "stable"

        stable2 = PointConfiguration.from_coords(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        )
        assert chow_points_stability(stable2).verdict == "stable"

        collinear = PointConfiguration.from_coords(
            [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        )
        v = chow_points_stability(collinear)
        assert v.verdict == "unstable"
        assert v.witness_indices == (0, 1)
        assert v.witness_count == 3 and v.witness_dim == 1

        doubled = PointConfiguration.from_coords([(1, 0), (1, 0), (0, 1)])
        v = chow_points_stability(doubled)
        assert v.verdict == "unstable"
        assert v.witness_count == 2 and v.witness_dim == 0


def test_criterion_7_flag_pipeline():
    with report(7, "flag limit / stabilizer / stage-weight pipeline"):
        t0 = time.perf_counter()
        g = GradedOnePS((1, -2), (2, 1))
        a0 = 5
        weights_by_degree: dict[int, set[Fraction]] = {3: set(), 4: set()}
        flags = [(3, make_curve_flag(r)) for r in CUBIC_ROOTS]
        flags += [(4, make_curve_flag(r)) for r in QUARTIC_ROOTS]
        assert len(flags) >= 5
        for d, flag in flags:
            flag_limit(flag, 1, g, check=True)  # join formula == flat limit
            check = nrgit_stage_check(flag, 1, g, a0)
            assert check.lie_stabilizer_dim == 0
            assert check.weight == check.expected_weight
            assert check.passed is True
            weights_by_degree[d].add(check.weight)
        # the stage weight is a family constant per parameter set
        assert weights_by_degree[3] == {Fraction(16)}
        assert weights_by_degree[4] == {Fraction(22)}
        assert time.perf_counter() - t0 < 300


def test_criterion_8_buchberger_soundness():
    with report(8, "Buchberger bases are sound against the oracle"):
        rng = random.Random(1234)
        seen = set()
        for name, (ideal, _, _) in _corpus_limits().items():
            base = name.split("/")[0]
            if base in seen or ideal.is_zero:
                continue
            seen.add(base)
            gb = buchberger(ideal)
            for i, f in enumerate(gb.basis):
                for h in gb.basis[:i]:
                    assert normal_form(s_polynomial(f, h), gb.basis).is_zero
            for d in range(1, DEGREE_BOUND + 1):
                monos = monomials_of_degree(ideal.nvars, d)
                # known members: monomial multiples of the generators
                for gen in ideal.generators:
                    if gen.degree() <= d:
                        m = rng.choice(monomials_of_degree(ideal.nvars, d - gen.degree()))
                        prod = Polynomial(ideal.nvars, {m: 1}) * gen
                        assert normal_form(prod, gb.basis).is_zero
                        assert contains_oracle(ideal, prod)
                # random probes: Buchberger and the oracle must agree
                for _ in range(3):
                    f = Polynomial.zero(ideal.nvars)
                    for m in rng.sample(monos, min(3, len(monos))):
                        f = f + Polynomial(ideal.nvars, {m: rng.choice([-2, -1, 1, 2])})
                    if f.is_zero:
                        continue
                    assert normal_form(f, gb.basis).is_zero == contains_oracle(ideal, f), (
                        f"{base}: membership disagreement in degree {d}"
                    )


CLI_DOCS = {
    "conic.txt": (
        "ring x, y, z\ncommand: flat-limit\nideal: x*z - y^2\nweights: 2, -1, -1\n"
    ),
    "tc-gb.txt": (
        "ring x, y, z, w\ncommand: gb\nideal: x*z - y^2; y*w - z^2; x*w - y*z\n"
    ),
    "tc-hilbert.txt": (
        "ring x, y, z, w\ncommand: hilbert\nideal: x*z - y^2; y*w - z^2; x*w - y*z\n"
    ),
    "points.txt": (
        "ring x, y, z\ncommand: chow-points\n"
        "points: (1,0,0); (0,1,0); (1,1,0); (0,0,1)\n"
    ),
    "admissible.txt": "ring x, y, z\ncommand: admissible\nflag: n=1 d=3 dimv=3\n",
    "grading.txt": "ring a, b, c, d\ncommand: grading\nbeta: 2, -1, -3\nmults: 2, 1, 1\n",
    "flag-check.txt": (
        "ring x, y, v1\ncommand: flag-check\nideal: x^2*y + x*y^2 + v1^3\n"
        "points: (1,0); (0,1); (1,-1)\nflag: n=1 a0=5\nbeta: 1, -2\nmults: 2, 1\n"
    ),
}


def test_criterion_9_determinism(tmp_path, capsys):
    with report(9, "byte-identical corpus runs"):
        paths = []
        for fname, text in sorted(CLI_DOCS.items()):
            p = tmp_path / fname
            p.write_text(text)
            paths.append(str(p))

        def run_once() -> tuple[int, str]:
            code = main(["batch", *paths])
            out = capsys.readouterr().out
            return code, out

        code1, out1 = run_once()
        code2, out2 = run_once()
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()
        json.loads(out1)  # valid JSON
