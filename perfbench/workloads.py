"""Seeded document generators for the three benchmark workloads.

Every document is the text of one flagstab input file plus the CLI
command that runs it, and carries the answer it must produce. Expected
answers come from closed forms written out here (Hilbert series, Chow
weights, the flag stage weight) and not from flagstab; the two
workload checks that need computer algebra (`gb` against sympy,
`flat-limit` against the degreewise oracle) run in `checks.py` after
the timed region.

Each workload is an endless stream of groups: a pass of documents for
`flag-check` and `hilbert-chow`, one ideal's documents for `gb-limits`.
The same seed gives the same stream. Within a stream no input text
repeats while its class has unused variants, so a process-wide cache
in flagstab sees no more reuse than one user's document would give.
Variants change coefficients, roots, signs and the order of the ring's
variables, never the shape of an input class, so the cost of a pass
stays comparable across passes and seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

MAX_REDRAWS = 200  # draws per document before a used variant is accepted


@dataclass(frozen=True)
class Document:
    """One CLI input file and its command.

    `doc_id` names the document's class within a group; `expect` holds
    the independent answer, which `checks.py` compares with the
    command's JSON output.
    """

    doc_id: str
    command: str
    options: tuple[str, ...]
    text: str
    expect: dict = field(default_factory=dict, compare=False)


class Draws:
    """Seeded documents whose input texts do not repeat within a stream."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seen: set[str] = set()

    def fresh(self, make) -> Document:
        """`make(rng)` until it gives an unseen text; after MAX_REDRAWS
        tries the class has run out of variants and a repeat is taken."""
        for _ in range(MAX_REDRAWS):
            doc = make(self.rng)
            if doc.text not in self.seen:
                break
        self.seen.add(doc.text)
        return doc


# -- input text -----------------------------------------------------------


def _nonzero(rng: random.Random, span: int = 3) -> int:
    return rng.choice([k for k in range(-span, span + 1) if k])


def _pm(rng: random.Random, magnitude: int) -> int:
    """+magnitude or -magnitude. The costly classes take only a seeded
    sign, since coefficient size moves their cost."""
    return rng.choice([magnitude, -magnitude])


def _signed(coeff: int, term: str) -> str:
    """' + 2*b' or ' - b' for appending a term to a sum."""
    mag = abs(coeff)
    body = term if mag == 1 else f"{mag}*{term}"
    return f" {'-' if coeff < 0 else '+'} {body}"


def _binary_roots(rng: random.Random, count: int, pool) -> list[tuple[int, int]]:
    """`count` distinct points (p : q) of P^1: (1 : 0), (0 : 1) and
    `count` - 2 seeded points of `pool`, in a fixed order so that one
    point set gives one text."""
    return [(1, 0), (0, 1)] + sorted(rng.sample(pool, count - 2))


def _binary_form(roots, x: str, y: str) -> str:
    """Product of the linear forms q*x - p*y, one per root (p : q)."""
    factors = []
    for p, q in roots:
        if p == 0:
            factors.append(x)
        elif q == 0:
            factors.append(y)
        else:
            lead = {1: x, -1: f"-{x}"}.get(q, f"{q}*{x}")
            factors.append(f"({lead}{_signed(-p, y)})")
    return "*".join(factors)


def _points_section(roots) -> str:
    return "; ".join(f"({p},{q})" for p, q in roots)


def _ring(names: str, weights=None, rng: random.Random | None = None) -> str:
    """The `ring` line, and the `weights` line when given. With `rng` the
    variables come in a seeded order: relabelling gives the program
    another ideal of the same shape, and each weight stays with its
    variable."""
    order = names.split(", ")
    by_name = dict(zip(order, weights or ()))
    if rng is not None:
        rng.shuffle(order)
    text = f"ring {', '.join(order)}\n"
    if weights is not None:
        text += f"weights: {', '.join(str(by_name[v]) for v in order)}\n"
    return text


# points of small height besides (1 : 0) and (0 : 1); larger roots make
# costlier flags, so these keep a pass's cost close across seeds
SMALL_ROOTS = [(1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)]


# -- flag-check -----------------------------------------------------------

CURVE_GRADING = ((1, -2), (2, 1))
SURFACE_GRADING = ((3, -2, -4), (2, 1, 1))
A0 = 5
# coefficients c of the c*v^d terms; measured not to move a flag's cost
CURVE_COEFFS = [c for c in range(-6, 7) if c]
SURFACE_COEFFS = [1, -1, 2, -2]
FLAG_COMMANDS = (("flag-check", ("--check",)), ("flag-validate", ()))


def stage_weight(n: int, d: int, weights, mults, i: int, a0: int) -> Fraction:
    """Closed-form stage-i weight of a hyperplanar flag of length n and
    degree d under the grading (weights, mults): the benchmark's own copy
    of the paper's formula, so a change to flagstab's copy shows."""
    m_le, m_gt = sum(mults[:i]), sum(mults[i:])
    b_le = Fraction(sum(w * m for w, m in zip(weights[:i], mults[:i])), m_le)
    b_gt = Fraction(sum(w * m for w, m in zip(weights[i:], mults[i:])), m_gt)
    total = a0 * b_le * d
    for j in range(1, i):
        total += b_le * d * (j + 1)
    for j in range(i, n + 1):
        if j > 2 * i - 1:
            total += b_gt * (j - i + 1)
        elif j < 2 * i - 1:
            total += b_le * d * i
        else:
            total += i * (b_gt + d * b_le)
    return total



def _flag_doc(tag: str, command: str, options, n: int, d: int, grading):
    """A maker of one seeded flag document: f = B(x, y) + c1*v1^d
    (+ c2*v2^d), B a product of d distinct linear forms."""

    def make(rng: random.Random) -> Document:
        if n == 1:
            roots = _binary_roots(rng, d, SMALL_ROOTS)
            coeffs = [rng.choice(CURVE_COEFFS)]
        else:
            # the surface flag is most of a pass, so its roots vary only
            # by the mirror y -> -y and the swap x <-> y, which keep its cost
            s = rng.choice([1, -1])
            roots = [(1, 0), (0, 1), (1, s), rng.choice([(1, 2 * s), (2, s)])]
            coeffs = [rng.choice(SURFACE_COEFFS) for _ in range(n)]
        flag_vars = ["v1", "v2"][:n]
        names = ["x", "y"] + flag_vars
        f = _binary_form(roots, "x", "y") + "".join(
            _signed(c, f"{v}^{d}") for c, v in zip(coeffs, flag_vars)
        )
        weights, mults = grading
        text = (
            f"ring {', '.join(names)}\n"
            f"ideal: {f}\n"
            f"points: {_points_section(roots)}\n"
            f"flag: n={n} a0={A0}\n"
            f"beta: {', '.join(map(str, weights))}\n"
            f"mults: {', '.join(map(str, mults))}\n"
        )
        if command == "flag-validate":
            return Document(tag, command, options, text, {"degree": d})
        family = (n, d, weights, mults, A0)
        stages = {i: stage_weight(n, d, weights, mults, i, A0) for i in range(1, n + 1)}
        return Document(tag, command, options, text, {"family": family, "stages": stages})

    return make


def flag_check_passes(seed: int):
    """Passes of 14 documents: six curve flags (n=1, dim V=3, three with
    d=3 and three with d=4) and one surface flag (n=2, dim V=4, d=4),
    each run through `flag-check --check` and `flag-validate`. Every
    document has its own flag. B is a product of distinct rational
    linear forms, so every stratum is smooth and X^0 is d distinct,
    Chow-stable points."""
    draws = Draws(seed)
    makers = []
    for k in range(3):
        for d in (3, 4):
            for command, options in FLAG_COMMANDS:
                tag = f"curve-d{d}-{k}/{command}"
                makers.append(_flag_doc(tag, command, options, 1, d, CURVE_GRADING))
    for command, options in FLAG_COMMANDS:
        makers.append(_flag_doc(f"surface-d4/{command}", command, options, 2, 4, SURFACE_GRADING))
    while True:
        yield [draws.fresh(make) for make in makers]


# -- hilbert-chow -----------------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binom_poly(shift: int, r: int) -> list[Fraction]:
    """Coefficients (ascending in m) of binomial(m + shift, r)."""
    out = [Fraction(1)]
    for j in range(r):
        out = [Fraction(0)] + out  # times m
        for k in range(len(out) - 1):
            out[k] += (shift - j) * out[k + 1]
    return [c / factorial(r) for c in out]


def hilbert_expectation(numerator: list[int], nvars: int) -> dict:
    """Everything `hilbert` reports, from the series N(t)/(1-t)^nvars.

    HF(m) = sum_k N_k binom(m - k + nvars - 1, nvars - 1); the Hilbert
    polynomial is the same sum read as a polynomial in m.
    """
    r = nvars - 1
    hp = [Fraction(0)] * (r + 1)
    for k, nk in enumerate(numerator):
        for i, c in enumerate(_binom_poly(r - k, r)):
            hp[i] += nk * c
    while len(hp) > 1 and hp[-1] == 0:
        hp.pop()
    if hp == [0]:
        dim, deg = -1, 0
    else:
        dim = len(hp) - 1
        deg = int(hp[-1] * factorial(dim))

    def hf(m: int) -> int:
        return sum(nk * comb(m - k + r, r) for k, nk in enumerate(numerator) if m >= k)

    def hp_at(m: int) -> Fraction:
        return sum((c * m**i for i, c in enumerate(hp)), Fraction(0))

    # HF and HP agree from degree len(numerator) - nvars + 1 on at the latest
    last_gap = max(
        (m for m in range(len(numerator) + 1) if hf(m) != hp_at(m)), default=-1
    )
    return {
        "dimension": dim,
        "degree": deg,
        "hilbert_polynomial": [fmt_q(c) for c in hp],
        "stabilization_degree": last_gap + 1,
        "hf": hf,
    }


def fmt_q(x) -> str:
    """A rational as flagstab prints it: "p/q", or "p" for integers."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _ci_numerator(degrees) -> list[int]:
    out = [1]
    for d in degrees:
        out = _poly_mul(out, [1] + [0] * (d - 1) + [-1])
    return out


def _hilbert_doc(doc_id: str, names: str, gens, numerator, nvars: int):
    """A maker of one `hilbert` document; `gens(rng)` draws the generators."""
    expect = hilbert_expectation(numerator, nvars)

    def make(rng: random.Random) -> Document:
        text = f"ideal: {'; '.join(gens(rng))}\n"
        return Document(doc_id, "hilbert", (), _ring(names, rng=rng) + text, expect)

    return make


def _chow_doc(doc_id: str, names: str, gens, weights, expected: int, known_defect=False):
    """A maker of one `chow-weight` document; `gens(rng)` draws the
    generators. Known-defect documents keep the ring's order, so every
    variant meets the defect the same way."""
    expect = {"chow_weight": str(expected), "known_defect": known_defect}

    def make(rng: random.Random) -> Document:
        text = f"ideal: {'; '.join(gens(rng))}\n"
        ring = _ring(names, weights, None if known_defect else rng)
        return Document(doc_id, "chow-weight", (), ring + text, expect)

    return make


def single_space_weight(b: int, d: int, r: int) -> int:
    """Chow weight of an r-dimensional degree-d subvariety lying in the
    weight-b space of a two-weight 1PS."""
    return b * d * (r + 1)


def join_weight(a: int, b: int, d: int, dim_y: int, dim_pu: int) -> int:
    """Chow weight of the join of Y (dim_y, degree d, weight b) with the
    linear space P(U) (dim_pu, weight a): the three-case closed form."""
    if dim_y < dim_pu:
        return a * (dim_pu + 1)
    if dim_y > dim_pu:
        return b * d * (dim_y + 1)
    return (a + b * d) * (dim_y + 1)


def hilbert_chow_passes(seed: int):
    """Passes of 19 `hilbert` and `chow-weight` documents with answers in
    closed form.

    Hilbert inputs are integer coordinate changes of regular sequences
    x_i^{d_i} and rational normal curves. Chow-weight inputs are
    subvarieties of one weight space and joins with a linear space; their
    coordinate changes act inside single weight spaces, so each ideal
    stays fixed by the 1PS. The two `*-redundant` documents are the same
    classes written with redundant, non-reduced generators.
    """
    def points3(rng):
        return _binary_form(_binary_roots(rng, 3, SMALL_ROOTS), "a", "b")

    makers = [
        # regular sequences under coordinate changes: N(t) = prod (1 - t^d_i)
        _hilbert_doc("ci3-2-2", "a, b, c", lambda r: [
            f"(a{_signed(_pm(r, 1), 'c')})^2", f"(b{_signed(_pm(r, 2), 'c')})^2"],
            _ci_numerator([2, 2]), 3),
        _hilbert_doc("ci3-2-3", "a, b, c", lambda r: [
            f"(a{_signed(_pm(r, 1), 'b')})^2", f"(b{_signed(_pm(r, 2), 'c')})^3"],
            _ci_numerator([2, 3]), 3),
        _hilbert_doc("ci4-2-2", "a, b, c, d", lambda r: [
            f"(a{_signed(_pm(r, 2), 'b')})^2", f"(c{_signed(_pm(r, 1), 'd')})^2"],
            _ci_numerator([2, 2]), 4),
        _hilbert_doc("ci4-3", "a, b, c, d", lambda r: [
            f"(a{_signed(_pm(r, 1), 'b')}{_signed(_pm(r, 1), 'd')})^3"],
            _ci_numerator([3]), 4),
        # the shape of the corpus ideal random-ci-4: one linear, one quadric
        _hilbert_doc("ci5-1-2", "a, b, c, d, e", lambda r: [
            f"a{_signed(_pm(r, 2), 'b')}", "c^2"],
            _ci_numerator([1, 2]), 5),
        # rational normal curves of degree r, coordinates rescaled:
        # N(t) = (1 + (r - 1) t) (1 - t)^(r - 1)
        _hilbert_doc("rnc2", "a, b, c", lambda r: [
            f"{abs(_nonzero(r))}*a*c - {abs(_nonzero(r))}*b^2"],
            _poly_mul([1, 1], [1, -1]), 3),
        _hilbert_doc("rnc3", "a, b, c, d", _twisted_cubic, _poly_mul([1, 2], [1, -2, 1]), 4),
        # single weight space: b * d * (r + 1)
        _chow_doc("points3-in-w", "u, a, b", lambda r: ["u", points3(r)],
                  (2, -1, -1), single_space_weight(-1, 3, 0)),
        _chow_doc("conic-in-w", "u, a, b, c", lambda r: ["u", _conic(r)],
                  (3, -1, -1, -1), single_space_weight(-1, 2, 1)),
        _chow_doc("cubic-in-w", "u, a, b, c", lambda r: ["u", _plane_cubic(r)],
                  (3, -1, -1, -1), single_space_weight(-1, 3, 1)),
        # joins J(Y, P(U)): U carries weight a, W carries weight b
        _chow_doc("join-conic-gt", "u, a, b, c", lambda r: [_conic(r)],
                  (3, -1, -1, -1), join_weight(3, -1, 2, 1, 0)),
        _chow_doc("join-points3-eq", "u, a, b", lambda r: [points3(r)],
                  (2, -1, -1), join_weight(2, -1, 3, 0, 0)),
    ]
    # five scalings of one join: with ci3-2-3 they make the cluster of
    # equal-cost documents in the middle of a pass, where the median falls
    for t in (1, 2, 3, 4, 5):
        makers.append(_chow_doc(f"join-points2-lt-{t}", "u, v, a, b", lambda r: ["a*b"],
                                (t, t, -t, -t), join_weight(t, -t, 2, 0, 1)))
    # the same classes as users also write them: redundant, non-reduced
    # generators; flagstab rejects these at this commit (ROADMAP 1(b))
    makers.append(_chow_doc("conic-in-w-redundant", "u, a, b, c",
                            lambda r: ["u", f"{_conic(r)}{_signed(_nonzero(r), 'u*a')}"],
                            (3, -1, -1, -1), single_space_weight(-1, 2, 1), known_defect=True))
    makers.append(_chow_doc("points3-in-w-redundant", "u, a, b",
                            lambda r: ["u", f"u*{r.choice('ab')}", points3(r)],
                            (2, -1, -1), single_space_weight(-1, 3, 0), known_defect=True))
    draws = Draws(seed)
    while True:
        yield [draws.fresh(make) for make in makers]


def _conic(rng: random.Random) -> str:
    """a*c - b^2 under a seeded triangular change of (a, b, c)."""
    return f"(a{_signed(_pm(rng, 2), 'b')})*c - b^2"


def _plane_cubic(rng: random.Random) -> str:
    """Three distinct lines of the (a, b, c) plane: a, b and a +- b +- c."""
    return f"a*b*(a{_signed(_pm(rng, 1), 'b')}{_signed(_pm(rng, 1), 'c')})"


def _twisted_cubic(rng: random.Random) -> list[str]:
    """Ideal of the curve [s^3 : al s^2 t : be s t^2 : ga t^3]."""
    al, be, ga = rng.sample([1, 1, 2], 3)
    return [
        f"{al * al}*a*c - {be}*b^2",
        f"{be * be}*b*d - {al * ga}*c^2",
        f"{al * be}*a*d - {ga}*b*c",
    ]


# -- gb-limits -------------------------------------------------------------

GB_LIMIT_WEIGHTS = ((3, -1, -1, -1), (-1, -1, -1, 3), (-1, 3, -1, -1))
_QUADRIC_MONOMIALS = [
    (i, j) for i in range(4) for j in range(i, 4)
]


def _random_quadric(rng: random.Random) -> str:
    terms = []
    for i, j in rng.sample(_QUADRIC_MONOMIALS, 5):
        mono = f"x{i}^2" if i == j else f"x{i}*x{j}"
        terms.append(_signed(_nonzero(rng), mono))
    text = "".join(terms).strip()
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def gb_limits_groups(seed: int):
    """Groups of three documents on one ideal of three 5-term quadrics in
    4 variables: `gb`, and `flat-limit` under two of the weight vectors.
    The ideals are all distinct, so no (ideal, order) pair repeats."""
    rng = random.Random(seed)
    seen: set[tuple[str, ...]] = set()
    while True:
        gens = tuple(sorted(_random_quadric(rng) for _ in range(3)))
        if gens in seen or len(set(gens)) < 3:
            continue
        seen.add(gens)
        k = len(seen) - 1
        head = f"ring x0, x1, x2, x3\nideal: {'; '.join(gens)}\n"
        group = [Document("gb", "gb", (), head)]
        for w in (GB_LIMIT_WEIGHTS[k % 3], GB_LIMIT_WEIGHTS[(k + 1) % 3]):
            text = head + f"weights: {', '.join(map(str, w))}\n"
            group.append(Document(f"flat-limit{w}", "flat-limit", (), text))
        yield group
