"""Exact-rational multivariate polynomials, weight vectors and term orders.

Monomials are exponent tuples. Coefficients are `fractions.Fraction`
throughout; nothing is ever rounded.

A weight vector (`OnePS`) assigns an integer to each variable and the
weight of a monomial x^a is the literal sum a_i * r_i. The initial part
of a homogeneous polynomial collects its terms of *minimal* weight; this
is the degeneration convention used everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

Monomial = tuple[int, ...]
Scalar = Fraction


class DimensionError(ValueError):
    """Lengths of monomials / weight vectors / rings do not match."""


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent-wise a - b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


@lru_cache(maxsize=256)
def monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in nvars variables, lexicographically sorted
    (descending). Cached, so the result is an immutable tuple."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []
    for bars in combinations(range(d + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        out.append(tuple(exps))
    out.sort(reverse=True)
    return tuple(out)


@dataclass(frozen=True)
class OnePS:
    """Integer weight vector, one weight per variable."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(w, int) for w in self.weights):
            raise ValueError("weights must be integers")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def sl_normalized(self) -> bool:
        return sum(self.weights) == 0

    def weight(self, m: Monomial) -> int:
        if len(m) != len(self.weights):
            raise DimensionError(
                f"monomial length {len(m)} != weight vector length {len(self.weights)}"
            )
        return sum(a * r for a, r in zip(m, self.weights))

    def negate(self) -> "OnePS":
        return OnePS(tuple(-w for w in self.weights))

    def scale(self, k: int) -> "OnePS":
        return OnePS(tuple(k * w for w in self.weights))


@dataclass(frozen=True)
class TermOrder:
    """Total multiplicative monomial order; the leading term is the maximum.

    The comparison key is (degree, -weight, exponents) compared
    lexicographically, so within a fixed degree the *minimal-weight*
    terms are the largest, and ties break on the first differing
    exponent (larger exponent wins). With `weights=None` this is plain
    graded lex. A nonempty `dropped` block turns this into a
    two-block elimination order with the dropped variables largest.
    """

    weights: tuple[int, ...] | None = None
    dropped: tuple[int, ...] | None = None

    def _block_key(self, m: Monomial, indices: tuple[int, ...]):
        exps = tuple(m[i] for i in indices)
        if self.weights is None:
            w = 0
        else:
            w = sum(m[i] * self.weights[i] for i in indices)
        return (sum(exps), -w, exps)

    def key(self, m: Monomial):
        if self.weights is not None and len(self.weights) != len(m):
            raise DimensionError("weight vector length mismatch")
        if self.dropped:
            kept = tuple(i for i in range(len(m)) if i not in self.dropped)
            return self._block_key(m, self.dropped) + self._block_key(m, kept)
        if self.weights is None:
            return (sum(m), 0, m)
        return (sum(m), -sum(a * r for a, r in zip(m, self.weights)), m)


GRLEX = TermOrder()


def weight_order(lam: OnePS) -> TermOrder:
    return TermOrder(weights=lam.weights)


def compare(a: Monomial, b: Monomial, order: TermOrder = GRLEX) -> int:
    """-1, 0 or 1 as a is below, equal to or above b in the order."""
    if len(a) != len(b):
        raise DimensionError("monomials of different length")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def _as_scalar(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not an exact scalar: {v!r}")


class Polynomial:
    """Multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if len(m) != nvars:
                raise DimensionError(f"monomial {m} does not have {nvars} exponents")
            c = _as_scalar(c)
            if c != 0:
                clean[tuple(m)] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: _as_scalar(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def from_monomial(cls, m: Monomial, c=1) -> "Polynomial":
        return cls(len(m), {tuple(m): _as_scalar(c)})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    @property
    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(tuple(m), Fraction(0))

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for m in self.terms:
            used.update(i for i, e in enumerate(m) if e)
        return used

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionError("polynomials over different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -_as_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            return Polynomial(self.nvars, {m: c * v for m, v in self.terms.items()})
        self._check(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.constant(self.nvars, 1)
        base = self
        while k:  # square and multiply; no square after the last bit
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        # by support: hashing `Fraction`s is slow; equality checks coefficients
        return hash((self.nvars, frozenset(self.terms)))

    # -- structure -----------------------------------------------------

    def leading(self, order: TermOrder = GRLEX) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order: TermOrder = GRLEX) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading(order)
        return self if c == 1 else self * (1 / c)

    def sorted_terms(self, order: TermOrder = GRLEX) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def partial(self, i: int) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = list(m)
                m2[i] -= 1
                terms[tuple(m2)] = terms.get(tuple(m2), Fraction(0)) + c * m[i]
        return Polynomial(self.nvars, terms)

    def substitute_zero(self, indices) -> "Polynomial":
        """Set the given variables to zero (result stays in the same ring)."""
        idx = set(indices)
        terms = {m: c for m, c in self.terms.items() if all(m[i] == 0 for i in idx)}
        return Polynomial(self.nvars, terms)

    def map_variables(self, mapping: dict[int, int], new_nvars: int) -> "Polynomial":
        """Reinterpret in a ring with new_nvars variables via an index map."""
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            exps = [0] * new_nvars
            for i, e in enumerate(m):
                if e:
                    if i not in mapping:
                        raise DimensionError(f"variable {i} has no image")
                    exps[mapping[i]] = e
            terms[tuple(exps)] = c
        return Polynomial(new_nvars, terms)

    def evaluate(self, point) -> Fraction:
        vals = [_as_scalar(v) for v in point]
        if len(vals) != self.nvars:
            raise DimensionError("evaluation point length mismatch")
        total = Fraction(0)
        for m, c in self.terms.items():
            prod = c
            for v, e in zip(vals, m):
                if e:
                    prod *= v**e
            total += prod
        return total

    def min_weight(self, lam: OnePS) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no weight")
        return min(lam.weight(m) for m in self.terms)

    def to_str(self, names=None, order: TermOrder = GRLEX) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for m, c in self.sorted_terms(order):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            a, den = abs(c.numerator), c.denominator
            coef = f"{a}/{den}" if den != 1 else str(a)  # as `str(abs(c))` writes it
            if not mono:
                body = coef
            elif coef == "1":
                body = mono
            else:
                body = f"{coef}*{mono}"
            sign = "-" if c.numerator < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self.to_str()})"


def initial_part(f: Polynomial, lam: OnePS) -> Polynomial:
    """Sum of the terms of f with minimal weight under lam.

    Requires f nonzero and homogeneous.
    """
    if f.is_zero:
        raise ValueError("initial part of the zero polynomial")
    if not f.is_homogeneous:
        raise ValueError("initial part requires a homogeneous polynomial")
    wmin = f.min_weight(lam)
    return Polynomial(
        f.nvars, {m: c for m, c in f.terms.items() if lam.weight(m) == wmin}
    )


def _generator_sort_key(f: Polynomial):
    lead = f.leading(GRLEX)[0]
    terms = sorted(f.terms.items())  # coefficients break ties of equal support
    return (f.degree(), GRLEX.key(lead), [m for m, _ in terms], terms)


class HomogeneousIdeal:
    """Ideal given by nonzero homogeneous generators in canonical form.

    Generators are made monic under graded lex, deduplicated and sorted
    by (degree, lead, support, coefficients): equal generating sets are equal.
    """

    __slots__ = ("nvars", "generators", "_hash")

    def __init__(self, nvars: int, generators=()):
        gens = []
        for g in generators:
            if g.nvars != nvars:
                raise DimensionError("generator in a different ring")
            if g.is_zero:
                continue
            if not g.is_homogeneous:
                raise ValueError(f"non-homogeneous generator: {g!r}")
            gens.append(g.monic(GRLEX))
        uniq = sorted(set(gens), key=_generator_sort_key)
        self.nvars = nvars
        self.generators = tuple(uniq)
        self._hash = None

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def max_generator_degree(self) -> int:
        return max((g.degree() for g in self.generators), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousIdeal)
            and self.nvars == other.nvars
            and self.generators == other.generators
        )

    def __hash__(self):
        # computed once: hashing every generator's terms is what a lookup
        # keyed by the ideal would otherwise repeat
        if self._hash is None:
            self._hash = hash((self.nvars, self.generators))
        return self._hash

    def __repr__(self):
        gens = ", ".join(g.to_str() for g in self.generators)
        return f"HomogeneousIdeal({self.nvars}; {gens})"
