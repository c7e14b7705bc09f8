"""Exact linear algebra over Q.

Rows are sparse integer dicts mapping column index -> nonzero value.
Rational input rows are cleared to integers first; ranks, membership
tests and row spaces over Q are unchanged by the scaling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = dict[int, int]


def row_from_fractions(entries: dict[int, Fraction]) -> Row:
    """Clear denominators and remove common factors."""
    entries = {c: Fraction(v) for c, v in entries.items() if v != 0}
    mult = lcm(*(v.denominator for v in entries.values()))
    return normalize_row({c: int(v * mult) for c, v in entries.items()})


def normalize_row(row: Row) -> Row:
    row = {c: v for c, v in row.items() if v != 0}
    if not row:
        return {}
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _combine(row: Row, piv: Row, col: int) -> Row:
    """Eliminate `col` from `row` using pivot row `piv` (piv[col] != 0)."""
    a, b = piv[col], row[col]
    out = {}
    for c, v in row.items():
        w = a * v - b * piv.get(c, 0)
        if w:
            out[c] = w
    for c, v in piv.items():
        if c not in row:
            w = -b * v
            if w:
                out[c] = w
    return normalize_row(out)


class Echelon:
    """Incremental row echelon form; pivot columns are the smallest indices."""

    def __init__(self) -> None:
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Forward-reduce `row`; the result is zero iff row is in the span.

        The result may be rescaled by a nonzero rational factor.
        """
        row = normalize_row(dict(row))
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                return row
            row = _combine(row, piv, c)
        return row

    def insert(self, row: Row) -> bool:
        """Add a row; returns True if it increased the rank."""
        r = self.reduce(row)
        if not r:
            return False
        self.pivots[min(r)] = r
        return True

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)


def rank_of_rows(rows: list[dict[int, Fraction]] | list[Row]) -> int:
    ech = Echelon()
    for row in rows:
        ech.insert(row_from_fractions(row))
    return ech.rank
