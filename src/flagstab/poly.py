"""Exact-rational multivariate polynomials, weight vectors and term orders.

Monomials are exponent tuples. A polynomial is held as a positive
rational content num/den times a primitive integer term dict, so its
arithmetic runs on integers and nothing is ever rounded; `terms` shows
the coefficients as `fractions.Fraction`s.

A weight vector (`OnePS`) assigns an integer to each variable and the
weight of a monomial x^a is the literal sum a_i * r_i. The initial part
of a homogeneous polynomial collects its terms of *minimal* weight; this
is the degeneration convention used everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, prod
from operator import add, mul

Monomial = tuple[int, ...]


class DimensionError(ValueError):
    """Lengths of monomials / weight vectors / rings do not match."""


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


@lru_cache(maxsize=256)
def monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in nvars variables, lexicographically sorted
    (descending): the multisets of d variable indices, in lex order, are
    their exponent vectors in that order. Cached, so the result is an
    immutable tuple."""
    multisets = combinations_with_replacement(range(nvars), d)
    return tuple(tuple(map(c.count, range(nvars))) for c in multisets)


def series_coefficient(q: list[int], d: int, m: int) -> int:
    """Coefficient of t^m in q(t)/(1-t)^d, q an integer coefficient list in
    ascending powers of t."""
    if d == 0:
        return q[m] if m < len(q) else 0
    return sum(c * comb(m - k + d - 1, d - 1) for k, c in enumerate(q[: m + 1]))


# A term dict maps monomials to nonzero ints or Fractions: the CLI's parser
# computes on them, and `Polynomial` on its primitive integer part.


def terms_add(out: dict, b: dict, c=1) -> dict:
    """out + c*b, computed in place in `out`, which is returned."""
    for m, v in b.items():
        v = out.get(m, 0) + c * v
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def terms_mul(a: dict, b: dict) -> dict:
    """The product of two term dicts, in a fresh dict."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def terms_pow(base: dict, k: int, nvars: int) -> dict:
    """base^k in nvars variables by square and multiply; no square after the last bit."""
    out = {(0,) * nvars: 1}
    while k:
        if k & 1:
            out = terms_mul(out, base)
        k >>= 1
        if k:
            base = terms_mul(base, base)
    return out


def terms_degree(terms: dict) -> int:
    """Total degree; -1 for the empty term dict, the zero polynomial's."""
    return max(map(sum, terms), default=-1)


@dataclass(frozen=True)
class OnePS:
    """Integer weight vector, one weight per variable, and the term order
    it refines; the leading term is the maximum.

    The comparison key is (degree, -weight, exponents) compared
    lexicographically, so within a fixed degree the *minimal-weight*
    terms are the largest, and ties break on the first differing
    exponent (larger exponent wins). The empty vector gives every
    monomial weight 0: that order, `GRLEX`, is plain graded lex. Every
    order is graded, so division never raises a term's degree.
    """

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
        if self.weights and len(m) != len(self.weights):
            raise DimensionError(f"{len(self.weights)} weights for {len(m)} variables")
        return sum(map(mul, m, self.weights))

    def key(self, m: Monomial):
        return (sum(m), -self.weight(m), m)


GRLEX = OnePS(())


class Polynomial:
    """Multivariate polynomial with exact rational coefficients, held as
    content times primitive part: `ints` maps monomials to nonzero integers
    with gcd 1, and the content num/den is positive and in lowest terms.
    The form is canonical; zero has no terms and content 1. Polynomials
    are immutable, so they may share their `ints` dicts.
    """

    __slots__ = ("nvars", "ints", "num", "den")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for m, c in (terms or {}).items():
            if len(m) != nvars:
                raise DimensionError(f"monomial {m} does not have {nvars} exponents")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"not an exact scalar: {c!r}")
            if c:
                clean[tuple(m)] = c
        den = lcm(*(c.denominator for c in clean.values()))
        ints = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._normalize(nvars, ints, 1, den)

    def _normalize(self, nvars: int, ints: dict, num: int, den: int) -> None:
        if not ints:
            num = den = 1
        else:
            g = gcd(*ints.values())
            if g != 1:
                ints = {m: c // g for m, c in ints.items()}
                num *= g
            h = gcd(num, den)
            num, den = num // h, den // h
        self.nvars, self.ints, self.num, self.den = nvars, ints, num, den

    @classmethod
    def from_ints(cls, nvars: int, ints: dict, num: int = 1, den: int = 1) -> "Polynomial":
        """(num/den) * ints, for integer terms without zeros and num, den > 0;
        trusted, so nothing is checked and `ints` is kept, not copied."""
        p = cls.__new__(cls)
        p._normalize(nvars, ints, num, den)
        return p

    @classmethod
    def _canonical(cls, nvars: int, ints: dict, num: int, den: int) -> "Polynomial":
        """Wrap fields already in canonical form."""
        p = cls.__new__(cls)
        p.nvars, p.ints, p.num, p.den = nvars, ints, num, den
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._canonical(nvars, {}, 1, 1)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        exps = [0] * nvars
        exps[i] = 1
        return cls._canonical(nvars, {tuple(exps): 1}, 1, 1)

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The coefficients as `Fraction`s, in a fresh dict."""
        num, den = self.num, self.den
        return {m: Fraction(c * num, den) for m, c in self.ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return terms_degree(self.ints)

    @property
    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.ints))) <= 1

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for m in self.ints:
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
        if not other.ints:
            return self
        if not self.ints:
            return other
        den = lcm(self.den, other.den)
        a, b = self.num * (den // self.den), other.num * (den // other.den)
        ints = terms_add({m: a * c for m, c in self.ints.items()}, other.ints, b)
        return Polynomial.from_ints(self.nvars, ints, 1, den)

    __radd__ = __add__

    def __neg__(self):
        ints = {m: -c for m, c in self.ints.items()}
        return Polynomial._canonical(self.nvars, ints, self.num, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.ints:
                return Polynomial.zero(self.nvars)
            ints = self.ints if other > 0 else (-self).ints
            num, den = self.num * abs(other.numerator), self.den * other.denominator
            h = gcd(num, den)
            return Polynomial._canonical(self.nvars, ints, num // h, den // h)
        self._check(other)
        ints = terms_mul(self.ints, other.ints)
        if not ints:
            return Polynomial.zero(self.nvars)
        # a product of primitive parts is primitive (Gauss's lemma)
        g, h = gcd(self.num, other.den), gcd(other.num, self.den)
        num = (self.num // g) * (other.num // h)
        return Polynomial._canonical(self.nvars, ints, num, (self.den // h) * (other.den // g))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        ints = terms_pow(self.ints, k, self.nvars)
        if not ints:
            return Polynomial.zero(self.nvars)
        # a power of a primitive part is primitive (Gauss's lemma), and
        # num^k/den^k is in lowest terms as num/den is
        return Polynomial._canonical(self.nvars, ints, self.num**k, self.den**k)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.num == other.num
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        # by support: cheap, and equal polynomials have equal supports
        return hash((self.nvars, frozenset(self.ints)))

    # -- structure -----------------------------------------------------

    def monic(self, order: OnePS = GRLEX) -> "Polynomial":
        if not self.ints:
            return self
        return self._monic(max(self.ints, key=order.key))

    def _monic(self, lead: Monomial) -> "Polynomial":
        """Made monic at the given monomial of the support."""
        c = self.ints[lead]
        if c < 0:
            return Polynomial._canonical(self.nvars, (-self).ints, 1, -c)
        if self.num == 1 and self.den == c:
            return self
        return Polynomial._canonical(self.nvars, self.ints, 1, c)

    def partial(self, i: int) -> "Polynomial":
        ints = {}  # m -> m - e_i is one-to-one, so no two terms meet
        for m, c in self.ints.items():
            e = m[i]
            if e:
                ints[m[:i] + (e - 1,) + m[i + 1 :]] = c * e
        return Polynomial.from_ints(self.nvars, ints, self.num, self.den)

    def substitute_zero(self, indices) -> "Polynomial":
        """Set the given variables to zero (result stays in the same ring)."""
        idx = set(indices)
        ints = {m: c for m, c in self.ints.items() if all(m[i] == 0 for i in idx)}
        return Polynomial.from_ints(self.nvars, ints, self.num, self.den)

    def map_variables(self, mapping: dict[int, int], new_nvars: int) -> "Polynomial":
        """Reinterpret in a ring with new_nvars variables via an index map."""
        ints = {}
        for m, c in self.ints.items():
            exps = [0] * new_nvars
            for i, e in enumerate(m):
                if e:
                    if i not in mapping:
                        raise DimensionError(f"variable {i} has no image")
                    exps[mapping[i]] = e
            ints[tuple(exps)] = c
        return Polynomial.from_ints(new_nvars, ints, self.num, self.den)

    def evaluate(self, point) -> Fraction:
        if not all(isinstance(v, (int, Fraction)) for v in point):
            raise TypeError(f"not an exact point: {point!r}")
        if len(point) != self.nvars:
            raise DimensionError("evaluation point length mismatch")
        # the point as integers a over one denominator q; each term of
        # degree e is brought to q^top by q^(top - e)
        q = lcm(*(v.denominator for v in point))
        a = [v.numerator * (q // v.denominator) for v in point]
        top = max(self.degree(), 0)
        total = sum(
            c * prod(v**e for v, e in zip(a, m) if e) * q ** (top - sum(m))
            for m, c in self.ints.items()
        )
        return Fraction(total * self.num, self.den * q**top)

    def to_str(self, names=None, order: OnePS = GRLEX) -> str:
        if not self.ints:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        num, den = self.num, self.den
        parts = []
        for m in sorted(self.ints, key=order.key, reverse=True):
            c = self.ints[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            h = gcd(c, den)  # = gcd(c*num, den), as num/den is in lowest terms
            a, d = abs(c) * num // h, den // h
            coef = f"{a}/{d}" if d != 1 else str(a)
            if not mono:
                body = coef
            elif coef == "1":
                body = mono
            else:
                body = f"{coef}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
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
    weights = {m: lam.weight(m) for m in f.ints}
    wmin = min(weights.values())
    ints = {m: c for m, c in f.ints.items() if weights[m] == wmin}
    return Polynomial.from_ints(f.nvars, ints, f.num, f.den)


class HomogeneousIdeal:
    """Ideal given by nonzero homogeneous generators in canonical form.

    Generators are made monic under graded lex, deduplicated and sorted
    by (degree, lead, support, coefficients): equal generating sets are equal.
    """

    __slots__ = ("nvars", "generators", "_hash")

    def __init__(self, nvars: int, generators=()):
        keys = {}  # monic generator -> (degree, lead, support)
        for g in generators:
            if g.nvars != nvars:
                raise DimensionError("generator in a different ring")
            if g.is_zero:
                continue
            if not g.is_homogeneous:
                raise ValueError(f"non-homogeneous generator: {g!r}")
            lead = max(g.ints)  # g is homogeneous, so graded lex is lex
            g = g._monic(lead)
            keys[g] = (sum(lead), lead, tuple(sorted(g.ints)))
        gens = sorted(keys, key=keys.__getitem__)
        if len(set(keys.values())) < len(keys):  # coefficients break ties of equal support
            gens.sort(key=lambda g: (keys[g], sorted(g.terms.items())))
        self.nvars = nvars
        self.generators = tuple(gens)
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
