"""Exact scalar arithmetic underlying every algebra in the package.

Three kinds of coefficient field are supported:

* ``RationalFunctionField(variables)``: fractions of multivariate Laurent
  polynomials over Q, kept in a unique canonical form,
* ``Rationals()``: plain ``fractions.Fraction`` values,
* ``PrimeField(p)``: integers modulo a prime.

Canonical form of a rational function: numerator and denominator share no
non-unit common factor, the denominator is an ordinary polynomial (no
negative exponents, not divisible by any variable) with coprime integer
coefficients and positive leading coefficient under graded-lexicographic
order.  A pure-monomial denominator is a unit and gets absorbed into the
numerator, so "denominator 1" is the common case and equality of values is
plain structural comparison.

Laurent polynomials are stored sparsely as ``{exponent tuple: coefficient}``,
each coefficient an ``int`` when it is integral and a ``Fraction`` otherwise;
every division in this module is exact and keeps that rule.
For gcd purposes every Laurent polynomial factors uniquely as
(monomial unit) * (ordinary polynomial); gcds are computed on the ordinary
parts by a primitive pseudo-remainder sequence, one variable at a time.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Union


class CoefficientError(ValueError):
    """Base class for scalar-arithmetic errors."""


class ContextMismatchError(CoefficientError):
    """Operands belong to different coefficient fields."""


class SpecializationError(CoefficientError):
    """A substitution hit a vanishing denominator or an unassigned variable."""


Exponents = tuple[int, ...]


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _div(a, b) -> int | Fraction:
    """The exact quotient a / b of two rationals (int / int is a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class LaurentPoly:
    """A multivariate Laurent polynomial with rational coefficients.

    ``variables`` is the fixed, ordered tuple of variable names; every
    exponent tuple has that length.  No stored coefficient is zero, and each
    is an ``int`` when integral and a ``Fraction`` otherwise.  Any other
    coefficient type, ``float`` included, raises :class:`CoefficientError`.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, int | Fraction]):
        vs = tuple(variables)
        clean: dict[Exponents, int | Fraction] = {}
        for exps, coeff in terms.items():
            if type(coeff) is not int:
                if not isinstance(coeff, (int, Fraction)):
                    raise CoefficientError(f"{coeff!r} is not an int or a Fraction")
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if coeff:
                e = tuple(exps)
                if len(e) != len(vs):
                    raise CoefficientError(
                        f"exponent tuple {e} does not match variables {vs}"
                    )
                clean[e] = coeff
        self.variables = vs
        self.terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(
        cls, variables: tuple[str, ...], terms: dict[Exponents, int | Fraction]
    ) -> LaurentPoly:
        """Adopt ``terms``, whose keys are valid exponent tuples and whose
        values are nonzero ints or Fractions, as arithmetic on valid
        polynomials leaves them; only an integral Fraction is still made an
        int."""
        for e, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[e] = c.numerator
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls, variables: Iterable[str]) -> LaurentPoly:
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> LaurentPoly:
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str, power: int = 1) -> LaurentPoly:
        vs = tuple(variables)
        if name not in vs:
            raise CoefficientError(f"unknown variable {name!r}; have {vs}")
        exps = tuple(power if v == name else 0 for v in vs)
        return cls(vs, {exps: 1})

    @classmethod
    def monomial(cls, variables: Iterable[str], exps: Exponents, coeff=1) -> LaurentPoly:
        return cls(variables, {tuple(exps): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        return len(self.terms) == 1 and not any(next(iter(self.terms)))

    def constant_value(self) -> int | Fraction:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise CoefficientError(f"{self.render()} is not constant")
        return next(iter(self.terms.values()))

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get((0,) * len(self.variables)) == 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- structure ---------------------------------------------------------

    def leading(self) -> tuple[Exponents, int | Fraction]:
        """Leading (exponents, coefficient) under graded-lex order."""
        if not self.terms:
            raise CoefficientError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def split_unit(self) -> tuple[Exponents, LaurentPoly]:
        """Factor as monomial * ordinary where the ordinary part touches
        exponent 0 in every variable."""
        if not self.terms:
            return (0,) * len(self.variables), self
        mins = tuple(
            min(exps[i] for exps in self.terms) for i in range(len(self.variables))
        )
        if not any(mins):
            return mins, self
        return mins, self._shifted(tuple(-m for m in mins))

    def _shifted(self, shift: Exponents) -> LaurentPoly:
        """x^shift * self."""
        terms = {tuple(map(operator.add, e, shift)): c for e, c in self.terms.items()}
        return LaurentPoly._trusted(self.variables, terms)

    def content(self) -> int | Fraction:
        """The positive rational c with self/c having coprime integer
        coefficients.  Zero polynomial has content 1."""
        if not self.terms:
            return 1
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return num if den == 1 else Fraction(num, den)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(exps[index] for exps in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: LaurentPoly) -> None:
        if self.variables != other.variables:
            raise ContextMismatchError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return LaurentPoly._trusted(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        negated = {e: -c for e, c in self.terms.items()}
        return LaurentPoly._trusted(self.variables, negated)

    def __sub__(self, other) -> LaurentPoly:
        return self + (-other)

    def __rsub__(self, other) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check(other)
        terms: dict[Exponents, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return LaurentPoly._trusted(self.variables, terms)

    __rmul__ = __mul__

    def scale(self, factor: int | Fraction) -> LaurentPoly:
        if not factor:
            return LaurentPoly.zero(self.variables)
        return LaurentPoly(self.variables, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, k: int) -> LaurentPoly:
        if k < 0:
            # Only monomials are units here.
            if not self.is_monomial():
                raise CoefficientError("negative power of a non-monomial polynomial")
            exps, coeff = next(iter(self.terms.items()))
            return LaurentPoly(
                self.variables, {tuple(e * k for e in exps): _div(1, coeff ** (-k))}
            )
        result = LaurentPoly.constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, LaurentPoly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, object], field: Field):
        """Image under the ring homomorphism sending each variable to the
        given field element.  Negative exponents require the assigned value
        to be invertible."""
        values = [
            field.coerce(assignment[name]) if name in assignment else None
            for name in self.variables
        ]
        total = field.zero()
        for exps, coeff in self.terms.items():
            val = field.from_fraction(coeff)
            for name, value, e in zip(self.variables, values, exps):
                if e == 0:
                    continue
                if value is None:
                    raise SpecializationError(f"variable {name!r} is not assigned")
                val = val * value ** e
            total = total + val
        return total

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                piece = str(coeff)
            elif coeff == 1:
                piece = mono
            elif coeff == -1:
                piece = "-" + mono
            else:
                piece = f"{coeff}*{mono}"
            if pieces and not piece.startswith("-"):
                pieces.append("+" + piece)
            else:
                pieces.append(piece)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r})"


# -- ordinary-polynomial gcd machinery ---------------------------------------
#
# All helpers below require ordinary (nonnegative-exponent) operands.  They
# return polynomials normalized to coprime integer coefficients with a
# positive graded-lex leading coefficient, which makes gcds unique.


def poly_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division of ordinary polynomials; raises if b does not divide a."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return a
    variables = a.variables
    lead_b, lcb = b.leading()
    rem = dict(a.terms)
    quo: dict[Exponents, int | Fraction] = {}
    while rem:
        exps = max(rem, key=_grlex_key)
        coeff = rem[exps]
        qe = tuple(e - f for e, f in zip(exps, lead_b))
        if any(e < 0 for e in qe):
            raise CoefficientError("inexact polynomial division")
        qc = _div(coeff, lcb)
        quo[qe] = qc
        for be, bc in b.terms.items():
            te = tuple(x + y for x, y in zip(qe, be))
            s = rem.get(te, 0) - qc * bc
            if s:
                rem[te] = s
            else:
                rem.pop(te, None)
    return LaurentPoly(variables, quo)


def _primitive(p: LaurentPoly) -> tuple[int | Fraction, LaurentPoly]:
    """(c, p / c) for the rational c that leaves p / c with coprime integer
    coefficients and a positive graded-lex lead; p must be nonzero."""
    c = p.content()
    if p.leading()[1] < 0:
        c = -c
    return c, p if c == 1 else p.scale(_div(1, c))


def _normalize_poly(p: LaurentPoly) -> LaurentPoly:
    """Scale to coprime integer coefficients, positive graded-lex lead."""
    return _primitive(p)[1] if p else p


def _univariate_view(p: LaurentPoly, index: int) -> dict[int, LaurentPoly]:
    """View p as a polynomial in variable #index with polynomial coefficients
    (the coefficients keep the full exponent tuples, with entry #index zeroed)."""
    out: dict[int, dict[Exponents, int | Fraction]] = {}
    for exps, coeff in p.terms.items():
        d = exps[index]
        rest = exps[:index] + (0,) + exps[index + 1 :]
        out.setdefault(d, {})[rest] = coeff
    return {d: LaurentPoly(p.variables, t) for d, t in out.items()}


def _content_and_primitive(p: LaurentPoly, index: int) -> tuple[LaurentPoly, LaurentPoly]:
    view = _univariate_view(p, index)
    content = LaurentPoly.zero(p.variables)
    for poly in view.values():
        content = poly_gcd(content, poly)
    return content, poly_divexact(p, content)


def _prem(f: LaurentPoly, g: LaurentPoly, index: int) -> LaurentPoly:
    """Pseudo-remainder of f by g with respect to variable #index.

    The rational content of the intermediate remainders is stripped after
    every elimination step; it is a unit, and keeping it would make the
    coefficients grow exponentially along the remainder sequence.
    """
    dg = g.degree_in(index)
    lcg = _univariate_view(g, index)[dg]
    shift_one = [0] * len(f.variables)
    while not f.is_zero():
        df = f.degree_in(index)
        if df < dg:
            break
        lcf = _univariate_view(f, index)[df]
        shift = shift_one[:]
        shift[index] = df - dg
        mono = LaurentPoly.monomial(f.variables, tuple(shift))
        f = lcg * f - lcf * mono * g
        c = f.content()
        if c != 1:
            f = f.scale(_div(1, c))
    return f


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd of ordinary polynomials, normalized; gcd(0, p) = normalized p."""
    if a.is_zero():
        return _normalize_poly(b)
    if b.is_zero():
        return _normalize_poly(a)
    if a.is_constant() or b.is_constant():
        return LaurentPoly.constant(a.variables, 1)
    index = max(
        i
        for i in range(len(a.variables))
        if a.degree_in(i) > 0 or b.degree_in(i) > 0
    )
    ca, pa = _content_and_primitive(a, index)
    cb, pb = _content_and_primitive(b, index)
    cg = poly_gcd(ca, cb)
    f, g = pa, pb
    if f.degree_in(index) < g.degree_in(index):
        f, g = g, f
    while not g.is_zero():
        r = _prem(f, g, index)
        if r.is_zero():
            f, g = g, r
        else:
            f, g = g, _content_and_primitive(r, index)[1]
    if f.degree_in(index) > 0:
        f = _content_and_primitive(f, index)[1]
    else:
        # The inputs were coprime in the main variable; the primitive parts
        # contribute nothing beyond the content gcd.
        f = LaurentPoly.constant(a.variables, 1)
    return _normalize_poly(cg * f)


# -- rational functions -------------------------------------------------------


class RationalFunction:
    """A fraction of Laurent polynomials in canonical form.

    Do not call the constructor directly with un-normalized parts; use
    :func:`canonicalize` or the classmethod constructors.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        self.num = num
        self.den = den
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, num: LaurentPoly) -> RationalFunction:
        return cls(num, LaurentPoly.constant(num.variables, 1))

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> RationalFunction:
        return cls.from_poly(LaurentPoly.constant(variables, value))

    @classmethod
    def variable(cls, variables: Iterable[str], name: str, power: int = 1) -> RationalFunction:
        return cls.from_poly(LaurentPoly.variable(variables, name, power))

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.den.is_one() and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise CoefficientError(f"{self.render()} is not constant")
        return self.num.constant_value()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> RationalFunction | None:
        if isinstance(other, RationalFunction):
            self.num._check(other.num)
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.variables, other)
        return None

    def __add__(self, other) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one() and o.den.is_one():
            return RationalFunction(self.num + o.num, self.den)
        if self.den == o.den:
            return canonicalize(self.num + o.num, self.den)
        return canonicalize(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> RationalFunction:
        return (-self) + other

    def __mul__(self, other) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one() and o.den.is_one():
            return RationalFunction(self.num * o.num, self.den)
        return canonicalize(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def invert(self) -> RationalFunction:
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero")
        return canonicalize(self.den, self.num)

    def __truediv__(self, other) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other) -> RationalFunction:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, k: int) -> RationalFunction:
        if k < 0:
            return self.invert() ** (-k)
        # Powers of coprime parts stay coprime, and by Gauss's lemma a power of
        # a primitive denominator with a positive lead is again one, so the
        # powered parts are already canonical.
        return RationalFunction(self.num ** k, self.den ** k)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"{self.num.render()} / {self.den.render()}"

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()!r})"


def canonicalize(num: LaurentPoly, den: LaurentPoly) -> RationalFunction:
    """Reduce a fraction of Laurent polynomials to canonical form.

    The gcd of the ordinary parts is removed, any unit (monomial) part of the
    denominator migrates into the numerator, and the result is scaled so the
    denominator has coprime integer coefficients with a positive graded-lex
    leading coefficient.  Idempotent by construction.
    """
    if num.variables != den.variables:
        raise ContextMismatchError("numerator and denominator variables differ")
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return RationalFunction(num, LaurentPoly.constant(num.variables, 1))
    unit_n, pn = num.split_unit()
    unit_d, pd = den.split_unit()
    g = poly_gcd(pn, pd)
    if not g.is_one():
        pn = poly_divexact(pn, g)
        pd = poly_divexact(pd, g)
    return _canonical_coprime(tuple(a - b for a, b in zip(unit_n, unit_d)), pn, pd)


def _canonical_coprime(shift: Exponents, pn: LaurentPoly, pd: LaurentPoly) -> RationalFunction:
    """The canonical form of x^shift * pn / pd for coprime ordinary parts:
    both are scaled so that pd has coprime integer coefficients and a
    positive leading coefficient."""
    c, pd = _primitive(pd)
    pn = pn._shifted(shift)
    return RationalFunction(pn if c == 1 else pn.scale(_div(1, c)), pd)


def divide_by_power(x, base, k: int):
    """x / base**k for k >= 0, dividing the known factor out exactly.

    For a rational function and a base with denominator one, the ordinary
    part of the base is divided out of the numerator's ordinary part as often
    as it goes in, up to k times; ``canonicalize`` removes whatever common
    factor is left.  Three cases skip it, their result already canonical:
    k = 0 returns x; if all k factors go in, the numerator only lost factors
    and stays prime to x's denominator; and an ordinary part of total degree
    one, such as q1 + q2 or q - 1, is irreducible, so once it stops going in
    the numerator, a factor of x's, is prime to it and to x's denominator.
    """
    if k == 0:
        return x
    exact = isinstance(x, RationalFunction) and isinstance(base, RationalFunction)
    if not (exact and x and base and base.den.is_one() and k >= 0):
        return x / base ** k
    unit_n, pn = x.num.split_unit()
    unit_b, pb = base.num.split_unit()
    m = 0
    while m < k:
        try:
            pn = poly_divexact(pn, pb)
        except CoefficientError:
            break
        m += 1
    shift = tuple(a - k * b for a, b in zip(unit_n, unit_b))
    den = x.den * pb ** (k - m) if m < k else x.den
    if m == k or sum(pb.leading()[0]) == 1:
        return _canonical_coprime(shift, pn, den)
    return canonicalize(pn._shifted(shift), den)


# -- prime fields -------------------------------------------------------------


_PRIME_BOUND = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin over the first twelve prime bases, which no composite
    below ``_PRIME_BOUND`` passes; callers refuse larger p."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> set[int]:
    """The prime factors of 0 < m < ``_PRIME_BOUND``: the ``_WITNESSES`` by
    trial division, then Pollard's rho with Floyd's cycle on the rest."""
    factors = {a for a in _WITNESSES if m % a == 0}
    m //= math.gcd(m, math.prod(factors) ** 63)  # no exponent of m exceeds 63
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            factors.add(m)
            continue
        c, d = 0, m
        while d == m:  # a walk that meets itself retries with the next constant
            c, x, y, d = c + 1, 2, 2, 1
            while d == 1:
                x = (x * x + c) % m
                y = (((y * y + c) % m) ** 2 + c) % m
                d = math.gcd(x - y, m)
        pending += [d, m // d]
    return factors


class PrimeFieldElement:
    """An element of F_p with the usual operator interface."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> PrimeFieldElement | None:
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ContextMismatchError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        if isinstance(other, Fraction):
            return _fp_image(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0 and self.value == 0:
            raise ZeroDivisionError(f"inverting zero in F_{self.p}")
        return PrimeFieldElement(pow(self.value, k, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.p))

    def __repr__(self) -> str:
        return f"PrimeFieldElement({self.value}, p={self.p})"


def _fp_image(value: Fraction, p: int) -> PrimeFieldElement:
    """The image of a rational in F_p."""
    if value.denominator % p == 0:
        raise SpecializationError(f"rational {value} has no image in F_{p}")
    return PrimeFieldElement(value.numerator * pow(value.denominator, -1, p), p)


# -- fields -------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunctionField:
    """The field Q(variables) of rational functions."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if not self.variables:
            raise CoefficientError("a rational function field needs variables")
        if len(set(self.variables)) != len(self.variables):
            raise CoefficientError(f"duplicate variables in {self.variables}")

    def zero(self) -> RationalFunction:
        return self._constants[0]

    def one(self) -> RationalFunction:
        return self._constants[1]

    @cached_property
    def _constants(self) -> tuple[RationalFunction, RationalFunction]:
        return tuple(RationalFunction.constant(self.variables, c) for c in (0, 1))

    def from_fraction(self, value) -> RationalFunction:
        return RationalFunction.constant(self.variables, value)

    from_int = from_fraction

    def variable(self, name: str) -> RationalFunction:
        return RationalFunction.variable(self.variables, name)

    def coerce(self, x) -> RationalFunction:
        if isinstance(x, LaurentPoly):
            x = RationalFunction.from_poly(x)
        if isinstance(x, RationalFunction):
            if x.variables != self.variables:
                raise ContextMismatchError(
                    f"value over {x.variables} does not live in Q{self.variables}"
                )
            return x
        if isinstance(x, (int, Fraction)):
            return self.from_fraction(x)
        raise ContextMismatchError(f"cannot coerce {x!r} into Q{self.variables}")

    def parse(self, text: str) -> RationalFunction:
        """Parse ``num`` or ``num / den``, inverse to rendering."""
        num_text, sep, den_text = text.partition(" / ")
        num = parse_laurent(num_text, self.variables)
        if not sep:
            return RationalFunction.from_poly(num)
        return canonicalize(num, parse_laurent(den_text, self.variables))

    def describe(self) -> str:
        return "Q(" + ",".join(self.variables) + ")"


@dataclass(frozen=True)
class Rationals:
    """The field Q, realized as ``fractions.Fraction``."""

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_fraction(self, value) -> Fraction:
        return Fraction(value)

    from_int = from_fraction

    def coerce(self, x) -> Fraction:
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise ContextMismatchError(f"cannot coerce {x!r} into Q")

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise CoefficientError(f"cannot parse rational {text!r}") from exc

    def describe(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p."""

    p: int

    def __post_init__(self):
        if self.p >= _PRIME_BOUND:
            raise CoefficientError(f"p = {self.p} is not below the bound 2^64")
        if not _is_prime(self.p):
            raise CoefficientError(f"{self.p} is not prime")

    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(0, self.p)

    def one(self) -> PrimeFieldElement:
        return PrimeFieldElement(1, self.p)

    def from_fraction(self, value) -> PrimeFieldElement:
        return _fp_image(Fraction(value), self.p)

    from_int = from_fraction

    def coerce(self, x) -> PrimeFieldElement:
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise ContextMismatchError(
                    f"element of F_{x.p} does not live in F_{self.p}"
                )
            return x
        if isinstance(x, (int, Fraction)):
            return self.from_fraction(x)
        raise ContextMismatchError(f"cannot coerce {x!r} into F_{self.p}")

    def parse(self, text: str) -> PrimeFieldElement:
        try:
            return PrimeFieldElement(int(text.strip()), self.p)
        except ValueError as exc:
            raise CoefficientError(f"cannot parse F_{self.p} element {text!r}") from exc

    def describe(self) -> str:
        return f"F_{self.p}"


Field = Union[RationalFunctionField, Rationals, PrimeField]


# -- field contexts -----------------------------------------------------------


@dataclass(frozen=True)
class FieldContext:
    """A coefficient field together with the two unit parameters of the
    quadratic relation.  ``delta`` is the extra-component factor
    (1 + q1*q2)/(q1 + q2), defined only when q1 + q2 is a unit.  ``q_sum``,
    ``q_prod`` and ``one_plus_q_prod`` are built on first use and shared, as
    are a rational function field's 0 and 1: values are immutable."""

    field: Field
    q1: object
    q2: object

    def __post_init__(self):
        q1 = self.field.coerce(self.q1)
        q2 = self.field.coerce(self.q2)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        if not q1 or not q2:
            raise CoefficientError("q1 and q2 must be units")

    @cached_property
    def q_sum(self):
        return self.q1 + self.q2

    @cached_property
    def q_prod(self):
        return self.q1 * self.q2

    @cached_property
    def one_plus_q_prod(self):
        return self.field.one() + self.q_prod

    def delta(self):
        s = self.q_sum
        if not s:
            raise CoefficientError("q1 + q2 is not a unit in this context")
        return self.one_plus_q_prod / s

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def describe(self) -> str:
        return (
            f"{self.field.describe()} with q1={render_scalar(self.q1)}, "
            f"q2={render_scalar(self.q2)}"
        )


def generic_field_context() -> FieldContext:
    """Q(q1, q2) with the parameters as free variables."""
    field = RationalFunctionField(("q1", "q2"))
    return FieldContext(field, field.variable("q1"), field.variable("q2"))


def one_parameter_context(field: Field, q_value) -> FieldContext:
    """The one-parameter convention (q1, q2) = (-1, q)."""
    return FieldContext(field, field.from_int(-1), field.coerce(q_value))


def generic_one_parameter_context() -> FieldContext:
    field = RationalFunctionField(("q",))
    return one_parameter_context(field, field.variable("q"))


# -- specialization -----------------------------------------------------------


def specialize(x, assignment: Mapping[str, object], target: Field):
    """Apply the ring homomorphism determined by ``assignment`` to x.

    Works on Laurent polynomials, rational functions, Fractions and prime
    field elements.  Raises :class:`SpecializationError` when the denominator
    of a rational function vanishes under the assignment, or when a needed
    variable is missing.
    """
    if isinstance(x, RationalFunction):
        num = x.num.evaluate(assignment, target)
        den = x.den.evaluate(assignment, target)
        if not den:
            raise SpecializationError(
                f"denominator {x.den.render()} vanishes under the assignment"
            )
        return num / den
    if isinstance(x, LaurentPoly):
        return x.evaluate(assignment, target)
    if isinstance(x, (int, Fraction)):
        return target.from_fraction(Fraction(x))
    if isinstance(x, PrimeFieldElement):
        return target.coerce(x)
    raise CoefficientError(f"cannot specialize {x!r}")


# -- the e of a parameter -----------------------------------------------------


def quantum_e(q) -> int | float:
    """Smallest e >= 1 with 1 + q + ... + q^(e-1) = 0, or ``math.inf``.

    Over characteristic zero the partial geometric sums vanish only for
    q = -1 (giving e = 2): the only roots of unity in Q and in Q(vars) are
    +-1, and q = 1 sums to e != 0.  Over F_p the sum is e when q = 1, so
    e = p, and (q^e - 1)/(q - 1) otherwise, so e is the multiplicative
    order of q.  That order divides p - 1, so it is read off the prime
    factors r of p - 1: from e = p - 1, divide e by r while q^(e/r) = 1.
    """
    if not isinstance(q, (PrimeFieldElement, int, Fraction, RationalFunction)):
        raise CoefficientError(f"unsupported scalar {q!r}")
    if not q:
        raise CoefficientError("q must be a unit")
    if not isinstance(q, PrimeFieldElement):
        return 2 if q == -1 else math.inf
    e = q.p - 1
    for r in _prime_factors(e):
        while e % r == 0 and pow(q.value, e // r, q.p) == 1:
            e //= r
    return e if e > 1 else q.p  # q = 1 has order 1, but its sums vanish at p


# -- parsing ------------------------------------------------------------------


def _split_terms(text: str) -> list[str]:
    """Split a polynomial string into terms, each keeping the sign that
    opens it, with "+-" read as "-"; a sign directly after '^' belongs to an
    exponent, not to a new term.  A sign with no term after it is left as a
    term of its own, which ``parse_laurent`` refuses."""
    terms: list[str] = []
    current = ""
    for i, ch in enumerate(text):
        if ch not in "+-" or current and text[i - 1] == "^":
            current += ch
            continue
        if current and (current, ch) != ("+", "-"):
            terms.append(current)
        current = ch
    if current:
        terms.append(current)
    return terms


def parse_laurent(text: str, variables: Iterable[str]) -> LaurentPoly:
    """Parse the textual polynomial grammar produced by ``render``."""
    vs = tuple(variables)
    text = text.replace(" ", "")
    if not text:
        raise CoefficientError("empty polynomial text")
    if text == "0":
        return LaurentPoly.zero(vs)
    result = LaurentPoly.zero(vs)
    for term in _split_terms(text):
        sign = -1 if term[0] == "-" else 1
        body = term[1:] if term[0] in "+-" else term
        if not body:
            raise CoefficientError(f"dangling sign in {text!r}")
        coeff = Fraction(1)
        exps = [0] * len(vs)
        for factor in body.split("*"):
            if not factor:
                raise CoefficientError(f"empty factor in term {term!r}")
            if factor[0].isdigit():
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError) as exc:
                    raise CoefficientError(f"bad coefficient {factor!r}") from exc
                continue
            name, _, exp_text = factor.partition("^")
            if name not in vs:
                raise CoefficientError(f"unknown variable {name!r} in {text!r}")
            try:
                e = int(exp_text) if exp_text else 1
            except ValueError as exc:
                raise CoefficientError(f"bad exponent in {factor!r}") from exc
            exps[vs.index(name)] += e
        result = result + LaurentPoly.monomial(vs, tuple(exps), sign * coeff)
    return result


def render_scalar(x) -> str:
    if isinstance(x, (RationalFunction, LaurentPoly)):
        return x.render()
    if isinstance(x, PrimeFieldElement):
        return str(x.value)
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    raise CoefficientError(f"cannot render {x!r}")
