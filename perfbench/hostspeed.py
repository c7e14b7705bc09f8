"""The host's current speed, read from a fixed reference computation.

On a shared host the same code can run 30 % slower for seconds or
minutes at a time, which moves the timings of a run together. The
runner times `kernel` just before every document (and once after the
last one) and scales the document's latency by REFERENCE_MS / (mean of
the samples before and after it): the latency the document would have
had on a host where the kernel takes REFERENCE_MS.

The kernel is the benchmark's own code, not flagstab's, so a change to
flagstab cannot move it. It does the kind of work flagstab's hot loops
do: products of sparse polynomials held as dicts of exponent tuples
with `Fraction` coefficients, and row reduction over `Fraction`.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter_ns

# kernel time on a 2-core host running nothing else, Python 3.11.7
REFERENCE_MS = 4.6
KERNEL_REPEATS = 3  # a sample is the median of this many kernel times
WARM_UP_CALLS = 10

_A = {(i, j, 3 - i - j): Fraction(i - 2 * j + 1, j + 2) for i in range(4) for j in range(4 - i)}
_B = {(i, 2 - i - j, j): Fraction(3 * i + j - 4, i + 1) for i in range(3) for j in range(3 - i)}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _rank(rows: list[dict]) -> int:
    pivots: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            if c not in pivots:
                pivots[c] = r
                break
            p = pivots[c]
            f = r[c] / p[c]
            for k, v in p.items():
                x = r.get(k, 0) - f * v
                if x:
                    r[k] = x
                else:
                    r.pop(k, None)
    return len(pivots)


def kernel() -> tuple[int, int]:
    """A fixed computation; returns (terms of the product, rank), which
    are (45, 10)."""
    p = _poly_mul(_poly_mul(_A, _B), _A)
    cols = sorted(p)
    rows = [
        {j: p[cols[(5 * i + 3 * j) % len(cols)]] + Fraction(i * j, 7) for j in range(14)}
        for i in range(12)
    ]
    return len(p), _rank(rows)


def warm_up() -> None:
    """Run the kernel until the interpreter has specialised its code; a
    fresh process runs the first few calls slower."""
    for _ in range(WARM_UP_CALLS):
        kernel()


def sample_ms() -> float:
    """The kernel's time now, in ms: the median of KERNEL_REPEATS runs."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = perf_counter_ns()
        kernel()
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / 1e6
