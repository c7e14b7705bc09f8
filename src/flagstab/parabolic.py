"""Block bookkeeping for graded one-parameter subgroups of SL(V): the
staged two-weight 1PS data, and infinitesimal unipotent stabilizers of
ideals, read off normal forms against their reduced graded-lex bases.

Weights of a `GradedOnePS` are weights on basis *vectors*; block 1
carries the largest weight. Staged weight averages are exact rationals,
cleared to integers (with the scaling factor recorded) whenever an
integer weight vector is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import Echelon
from .groebner import buchberger, normal_forms
from .poly import GRLEX, OnePS, Polynomial


@dataclass(frozen=True)
class GradedOnePS:
    """Distinct integer weights with multiplicities, summing to zero."""

    weights: tuple[int, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.multiplicities):
            raise ValueError("weights and multiplicities differ in length")
        if len(self.weights) < 2:
            raise ValueError("need at least two distinct weights")
        if any(self.weights[i] <= self.weights[i + 1] for i in range(len(self.weights) - 1)):
            raise ValueError("weights must be strictly decreasing")
        if any(m <= 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if sum(w * m for w, m in zip(self.weights, self.multiplicities)) != 0:
            raise ValueError("weighted sum of the grading must vanish")

    @property
    def ell(self) -> int:
        return len(self.weights)

    @property
    def size(self) -> int:
        return sum(self.multiplicities)

    def block_of(self, index: int) -> int:
        acc = 0
        for b, m in enumerate(self.multiplicities):
            acc += m
            if index < acc:
                return b
        raise IndexError(index)

    def expand(self) -> tuple[int, ...]:
        """Full vector-weight list, one entry per basis vector."""
        out: list[int] = []
        for w, m in zip(self.weights, self.multiplicities):
            out.extend([w] * m)
        return tuple(out)

    @classmethod
    def standard(cls, multiplicities) -> "GradedOnePS":
        """Default grading for given multiplicities: tail weights
        -2*m1, -3*m1, ... with the head weight balancing the sum."""
        mults = tuple(int(m) for m in multiplicities)
        m1 = mults[0]
        tail = [-j * m1 for j in range(2, len(mults) + 1)]
        head = -sum(t * m for t, m in zip(tail, mults[1:])) // m1
        weights = [head] + tail
        g = gcd(*weights)
        weights = [w // g for w in weights]
        return cls(tuple(weights), mults)


@dataclass(frozen=True)
class StageData:
    """Averaged two-weight data for one stage of quotienting-in-stages."""

    stage: int
    beta_le: Fraction
    beta_gt: Fraction
    m_le: int
    m_gt: int
    scale: int  # denominator clearing factor applied to the 1PS below
    lambda_bracket: OnePS  # two distinct integer weights (scaled vector weights)
    lambda_paren: OnePS  # stage+1 distinct integer weights


def stage_data(g: GradedOnePS, i: int) -> StageData:
    """Averages below/above stage i and the derived staged 1PS."""
    if not 1 <= i < g.ell:
        raise ValueError(f"stage must satisfy 1 <= i < {g.ell}")
    m_le = sum(g.multiplicities[:i])
    m_gt = sum(g.multiplicities[i:])
    beta_le = Fraction(
        sum(w * m for w, m in zip(g.weights[:i], g.multiplicities[:i])), m_le
    )
    beta_gt = Fraction(
        sum(w * m for w, m in zip(g.weights[i:], g.multiplicities[i:])), m_gt
    )
    scale = lcm(beta_le.denominator, beta_gt.denominator)
    bracket = [int(beta_le * scale)] * m_le + [int(beta_gt * scale)] * m_gt
    paren: list[int] = []
    for w, m in zip(g.weights[:i], g.multiplicities[:i]):
        paren.extend([w * scale] * m)
    paren.extend([int(beta_gt * scale)] * m_gt)
    return StageData(
        i, beta_le, beta_gt, m_le, m_gt, scale, OnePS(tuple(bracket)), OnePS(tuple(paren))
    )


def _bracket_entries(g: GradedOnePS, j: int) -> list[tuple[int, int]]:
    """Matrix entry positions spanning Lie U^[j]: rows in blocks <= j,
    columns in blocks > j (1-based block stage j)."""
    n = g.size
    blk = [g.block_of(k) for k in range(n)]
    return [
        (r, c)
        for r in range(n)
        for c in range(n)
        if blk[r] < j <= blk[c]
    ]


def configuration_unipotent_stabilizer_dim(ideals, g: GradedOnePS, j: int) -> int:
    """Dimension of the common Lie-algebra stabilizer in Lie U^[j] of a
    tuple of homogeneous ideals.

    An element nu of the Lie algebra moves the basis vector v_c by
    sum_r nu_rc v_r; on coordinate functions this is the derivation
    sending x_r to -sum_c nu_rc x_c. The stabilizer condition is that
    the derivation maps every generator f into the ideal. Normal forms
    against the reduced basis are linear with kernel the ideal, so nu
    stabilizes iff sum_rc nu_rc NF(x_c d_r f) = 0 for every f: the
    dimension is the number of entries less the rank of their normal
    form rows. In characteristic zero the group stabilizer is trivial
    iff this dimension is zero.
    """
    if not 1 <= j < g.ell:
        raise ValueError(f"stage must satisfy 1 <= j < {g.ell}")
    entries = _bracket_entries(g, j)
    rows: list[list] = [[] for _ in entries]  # per entry, (num, den, {column: int}) per cell
    columns: dict[tuple, int] = {}  # (ideal index, generator index, monomial)
    for a, ideal in enumerate(ideals):
        if ideal.nvars != g.size:
            raise ValueError("ideal ring size must match the grading")
        cells = [
            (b, row, Polynomial.variable(g.size, c) * f.partial(r))
            for b, f in enumerate(ideal.generators)
            for row, (r, c) in zip(rows, entries)
        ]
        reduced = normal_forms([moved for _, _, moved in cells], buchberger(ideal, GRLEX).basis)
        for (b, row, _), nf in zip(cells, reduced):
            part = {columns.setdefault((a, b, m), len(columns)): v for m, v in nf.ints.items()}
            row.append((nf.num, nf.den, part))
    ech = Echelon()
    for row in rows:
        # over one common denominator: the row is scaled, its rank kept
        den = lcm(*(d for _, d, _ in row))
        ech.insert({k: v * num * (den // d) for num, d, part in row for k, v in part.items()})
    return len(entries) - ech.rank
