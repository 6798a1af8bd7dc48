"""Exact scalar arithmetic: canonical forms, gcds, specialization."""

import math
import random
import time
from fractions import Fraction

import pytest

from heckelink.coefficients import (
    CoefficientError,
    ContextMismatchError,
    FieldContext,
    LaurentPoly,
    PrimeField,
    PrimeFieldElement,
    RationalFunction,
    RationalFunctionField,
    Rationals,
    SpecializationError,
    _is_prime,
    canonicalize,
    divide_by_power,
    generic_field_context,
    parse_laurent,
    poly_divexact,
    poly_gcd,
    quantum_e,
    render_scalar,
    specialize,
)

Q12 = ("q1", "q2")


def lp(text, variables=Q12):
    return parse_laurent(text, variables)


def rf(text, variables=Q12):
    return RationalFunctionField(variables).parse(text)


class TestLaurentPoly:
    def test_ring_identity(self):
        # (q1+q2)*(q1-q2) = q1^2 - q2^2
        assert lp("q1+q2") * lp("q1-q2") == lp("q1^2-q2^2")

    def test_zero_pruning(self):
        assert (lp("q1") - lp("q1")).is_zero()
        assert lp("q1+q2") + lp("-q2") == lp("q1")

    def test_random_ring_axioms(self):
        rng = random.Random(7)
        polys = [_random_poly(rng) for _ in range(12)]
        for _ in range(40):
            a, b, c = rng.sample(polys, 3)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_is_one(self):
        assert lp("1").is_one() and RationalFunction.constant(Q12, 1).den.is_one()
        for text in ("0", "2", "-1", "q1", "1+q1", "q1*q2^-1"):
            assert not lp(text).is_one()

    def test_split_unit(self):
        unit, ordinary = lp("q1*q2+q1^2*q2").split_unit()
        assert unit == (1, 1)
        assert ordinary == lp("1+q1")

    def test_negative_power_of_monomial(self):
        m = lp("q1*q2")
        assert m ** -1 == lp("q1^-1*q2^-1")
        with pytest.raises(CoefficientError):
            lp("q1+q2") ** -1

    def test_variable_mismatch(self):
        with pytest.raises(ContextMismatchError):
            lp("q1") + lp("q", ("q",))
        with pytest.raises(ContextMismatchError, match="variable mismatch"):
            RationalFunction.from_poly(lp("q1")) + RationalFunction.from_poly(lp("q", ("q",)))
        # foreign operands: no equality, and no sum
        assert not lp("1") == PrimeField(5).one()
        assert not RationalFunction.constant(Q12, 1) == PrimeField(5).one()
        with pytest.raises(TypeError):
            lp("q1") + "x"


class TestGcd:
    def test_common_factor(self):
        # (q^2-1)/(q-1) -> q+1
        g = poly_gcd(lp("q^2-1", ("q",)), lp("q-1", ("q",)))
        assert g == lp("q-1", ("q",))

    def test_divexact(self):
        a = lp("q1^2-q2^2")
        assert poly_divexact(a, lp("q1+q2")) == lp("q1-q2")
        with pytest.raises(CoefficientError):
            poly_divexact(lp("q1^2+1"), lp("q1+q2"))

    def test_gcd_of_products(self):
        rng = random.Random(11)
        for _ in range(25):
            u = _random_poly(rng, ordinary=True)
            v = _random_poly(rng, ordinary=True)
            w = _random_poly(rng, ordinary=True)
            if w.is_zero():
                continue
            g = poly_gcd(u * w, v * w)
            if (u * w).is_zero() and (v * w).is_zero():
                continue
            # w divides the gcd
            poly_divexact(g, poly_gcd(g, w))  # no exception
            assert poly_gcd(g, w) == poly_gcd(w, w)

    def test_gcd_coprime_in_main_variable(self):
        a = lp("q1*q2+1")
        b = lp("q2+q1")
        g = poly_gcd(a, b)
        assert g.is_one()


class TestRationalFunction:
    def test_canonicalize_factor(self):
        r = canonicalize(lp("q1*q2+q1^2*q2"), lp("1+q1"))
        assert r == RationalFunction.from_poly(lp("q1*q2"))
        assert r.den.is_one()

    def test_canonicalize_zero(self):
        r = canonicalize(LaurentPoly.zero(("q",)), lp("q-1", ("q",)))
        assert r.is_zero()
        assert r.den.is_one()

    def test_canonicalize_sign(self):
        r = canonicalize(lp("q-1", ("q",)), lp("1-q", ("q",)))
        assert r == RationalFunction.constant(("q",), -1)

    def test_canonicalize_idempotent_and_representation_free(self):
        rng = random.Random(3)
        for _ in range(30):
            num = _random_poly(rng, ordinary=True)
            den = _random_poly(rng, ordinary=True)
            k = _random_poly(rng, ordinary=True)
            if den.is_zero() or k.is_zero():
                continue
            r = canonicalize(num, den)
            assert canonicalize(r.num, r.den) == r
            assert canonicalize(num * k, den * k) == r

    def test_field_axioms(self):
        rng = random.Random(5)
        vals = [_random_rf(rng) for _ in range(10)]
        one = RationalFunction.constant(Q12, 1)
        for _ in range(30):
            a, b, c = rng.sample(vals, 3)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if a:
                assert a * a.invert() == one

    def test_cancellation_in_arithmetic(self):
        # (q^2-1)/(q-1) reduced on construction
        r = canonicalize(lp("q^2-1", ("q",)), lp("q-1", ("q",)))
        assert r == RationalFunction.from_poly(lp("q+1", ("q",)))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            canonicalize(lp("q1"), LaurentPoly.zero(Q12))
        with pytest.raises(ZeroDivisionError):
            RationalFunction.constant(Q12, 0).invert()

    def test_scalar_divided_by_rational_function(self):
        x = rf("q1+q2 / q1")
        assert 1 / x == x.invert()
        assert Fraction(1, 2) / x == rf("q1 / 2*q1+2*q2")

    def test_power_matches_repeated_product(self):
        # the k-fold product canonicalizes after every step; ** does not
        rng = random.Random(18)
        one = RationalFunction.constant(Q12, 1)
        checked = 0
        while checked < 20:
            x = _random_rf(rng)
            if x.is_polynomial():
                continue
            checked += 1
            for k in range(-2, 5):
                base = x if k >= 0 else x.invert()
                expected = one
                for _ in range(abs(k)):
                    expected = expected * base
                assert x ** k == expected


class TestExactCoefficients:
    X = ("x",)

    def test_divexact_quotient_is_an_exact_fraction(self):
        x = LaurentPoly.variable(self.X, "x")
        quotient = poly_divexact(x, x * 3)
        assert quotient == Fraction(1, 3)
        assert type(quotient.constant_value()) is Fraction

    def test_canonicalize_by_a_constant(self):
        x = LaurentPoly.variable(self.X, "x")
        assert canonicalize(x, LaurentPoly.constant(self.X, 3)).render() == "1/3*x"

    def test_integer_arithmetic_stores_ints(self):
        a, b = lp("3*q1^2-q1*q2+2"), lp("q2^-1-5*q1")
        r = canonicalize(a * b * lp("q1+1"), b * lp("q1^2-1"))
        for p in (a + b, a - b, a * b, a * b * b - a, -a, a * 4, a ** 3, r.num, r.den):
            assert p and all(type(c) is int for c in p.terms.values())

    def test_integral_fractions_are_stored_as_ints(self):
        p = LaurentPoly(self.X, {(1,): Fraction(6, 3), (0,): Fraction(1, 2)})
        assert type(p.terms[(1,)]) is int and type(p.terms[(0,)]) is Fraction
        assert p == LaurentPoly(self.X, {(1,): 2, (0,): Fraction(1, 2)})
        assert hash(p) == hash(LaurentPoly(self.X, {(1,): 2, (0,): Fraction(1, 2)}))

    def test_float_coefficient_rejected(self):
        with pytest.raises(CoefficientError):
            LaurentPoly(self.X, {(1,): 1 / 3})
        with pytest.raises(CoefficientError):
            LaurentPoly.constant(self.X, 0.5)


class TestCanonicalizeAgainstSympy:
    def test_cancel_equals_the_canonical_form(self):
        sp = pytest.importorskip("sympy")
        names = {v: sp.Symbol(v) for v in Q12}

        def to_sympy(p):
            return sp.sympify(p.render().replace("^", "**"), locals=names)

        rng = random.Random(29)
        checked = 0
        while checked < 40:
            common = _random_poly(rng, ordinary=True)
            num = _random_poly(rng) * common * Fraction(rng.randrange(1, 4), 2)
            den = _random_poly(rng, ordinary=True) * common * rng.randrange(1, 4)
            if den.is_zero():
                continue
            checked += 1
            r = canonicalize(num, den)
            expected = sp.cancel(to_sympy(num) / to_sympy(den))
            rendered = sp.sympify(
                "(" + r.render().replace("^", "**").replace(" / ", ")/(") + ")",
                locals=names,
            )
            assert sp.cancel(expected - rendered) == 0
            # no common factor left: sympy finds none either
            ordinary_num, _ = sp.fraction(sp.together(to_sympy(r.num)))
            assert sp.gcd(ordinary_num, to_sympy(r.den)).is_number


class TestDivideByPower:
    # (variables, base) pairs: reducible, non-primitive, monomial-times,
    # constant and unit bases, over Q(q1,q2) and Q(s).
    BASES = [
        (Q12, "q1+q2"),
        (Q12, "2*q1+2*q2"),
        (Q12, "q1*q2+q1"),
        (Q12, "q1^2-q2^2"),
        (Q12, "3"),
        (Q12, "-2*q1^2*q2^-1"),
        (("s",), "s^3-s"),
        (("s",), "s-1"),
        (("s",), "4*s^2-4"),
    ]

    @staticmethod
    def _check(x, base, k):
        expected = x / base ** k
        got = divide_by_power(x, base, k)
        assert got == expected
        assert render_scalar(got) == render_scalar(expected)

    def test_matches_division_by_the_power(self):
        rng = random.Random(44)
        for variables, text in self.BASES:
            base = rf(text, variables)
            for _ in range(4):
                p = _random_poly(rng, variables)
                k = rng.randrange(0, 4)
                # j < k leaves a power of the base in the denominator,
                # j = k cancels exactly, j = k + 1 leaves one in the numerator.
                for j in range(k + 2):
                    self._check(RationalFunction.from_poly(p) * base ** j, base, k)
                x = _random_rf(rng, variables)
                while x.is_polynomial():
                    x = _random_rf(rng, variables)
                self._check(x * base ** rng.randrange(0, k + 2), base, k)
            self._check(RationalFunctionField(variables).zero(), base, 2)

    def test_base_with_a_denominator(self):
        rng = random.Random(45)
        base = rf("q1+q2 / q1-q2")
        for k in range(4):
            self._check(_random_rf(rng) * base ** rng.randrange(0, 3), base, k)

    def test_scalars(self):
        for field in (Rationals(), PrimeField(7)):
            for x, base in ((3, -2), (5, 4), (0, 6)):
                for k in range(4):
                    self._check(field.from_int(x), field.from_int(base), k)
        self._check(Fraction(3, 4), Fraction(-2, 3), 3)


class TestLinearBaseSkipsGcd:
    # A base whose ordinary part is linear is irreducible: its remainder
    # needs no gcd.  Bases with a monomial unit and a non-unit content too.
    LINEAR = [
        (Q12, "q1+q2"),
        (Q12, "2*q1-3*q2"),
        (Q12, "q1*q2+q1"),
        (Q12, "q1^-1*q2+1"),
        (("q",), "q-1"),
        (("s",), "3*s+2"),
    ]
    NONLINEAR = [(Q12, "q1^2-q2^2"), (("s",), "s^3-s")]

    @staticmethod
    def _run(monkeypatch, x, base, k):
        """divide_by_power(x, base, k), the full canonicalize of x / base^k,
        and the number of gcds divide_by_power ran."""
        from heckelink import coefficients

        calls = []

        def counted(a, b):
            calls.append(1)
            return poly_gcd(a, b)

        monkeypatch.setattr(coefficients, "poly_gcd", counted)
        got = divide_by_power(x, base, k)
        monkeypatch.undo()
        return got, canonicalize(x.num, x.den * base.num ** k), len(calls)

    def _cases(self, rng, variables, base):
        for _ in range(6):
            k = rng.randrange(0, 4)
            p = _random_poly(rng, variables)
            for j in range(k + 2):
                yield RationalFunction.from_poly(p) * base ** j, k
            x = _random_rf(rng, variables)
            while x.is_polynomial():
                x = _random_rf(rng, variables)
            yield x * base ** rng.randrange(0, k + 2), k

    def test_linear_base_matches_full_canonicalize(self, monkeypatch):
        rng = random.Random(46)
        denominators = 0
        for variables, text in self.LINEAR:
            base = rf(text, variables)
            for x, k in self._cases(rng, variables, base):
                if not x:
                    continue
                got, full, gcds = self._run(monkeypatch, x, base, k)
                assert (got.num, got.den) == (full.num, full.den)
                assert gcds == 0
                denominators += not got.den.is_one()
        assert denominators >= 10

    @staticmethod
    def _divides_out(x, base, k):
        """Whether the ordinary part of base^k divides that of x's numerator."""
        try:
            poly_divexact(x.num.split_unit()[1], base.num.split_unit()[1] ** k)
        except CoefficientError:
            return False
        return True

    def test_nonlinear_base_still_runs_the_gcd(self, monkeypatch):
        # Only a power of the base left in the denominator can share a factor
        # with the numerator.  At k = 0, or once every factor divides out, the
        # numerator is still prime to x's denominator, so no gcd runs.
        rng = random.Random(47)
        left = divided = 0
        for variables, text in self.NONLINEAR:
            base = rf(text, variables)
            for x, k in self._cases(rng, variables, base):
                if not x:
                    continue
                got, full, gcds = self._run(monkeypatch, x, base, k)
                assert (got.num, got.den) == (full.num, full.den)
                if self._divides_out(x, base, k):
                    assert gcds == 0
                    divided += 1
                else:
                    assert gcds > 0
                    left += 1
        assert min(left, divided) >= 10

    @pytest.mark.parametrize("variables, text", LINEAR + NONLINEAR)
    def test_zero_power_and_full_division_skip_the_gcd(self, monkeypatch, variables, text):
        # k = 0 returns x itself.  When base^k divides out, x's denominator,
        # one or not, is left as it was, with no gcd.
        rng = random.Random(48)
        base = rf(text, variables)
        over_one = 0
        for _ in range(8):
            p = RationalFunction.from_poly(_random_poly(rng, variables))
            for x in (p, _random_rf(rng, variables)):
                if not x:
                    continue
                assert divide_by_power(x, base, 0) is x
                k = rng.randrange(1, 4)
                value = x * base ** k
                got, full, gcds = self._run(monkeypatch, value, base, k)
                assert (got.num, got.den) == (full.num, full.den)
                if self._divides_out(value, base, k):
                    assert gcds == 0
                    over_one += value.den.is_one()
        assert over_one >= 5


class TestPrimeField:
    def test_invert(self):
        f5 = PrimeField(5)
        two = f5.from_int(2)
        assert 1 / two == f5.from_int(3)
        assert two * (1 / two) == f5.one()

    def test_not_prime(self):
        with pytest.raises(CoefficientError):
            PrimeField(6)

    @pytest.mark.parametrize("n", [561, 41041, 3215031751])
    def test_pseudoprimes_rejected(self, n):
        # Carmichael numbers, and the smallest strong pseudoprime to the
        # bases 2, 3, 5 and 7
        assert not _is_prime(n)
        with pytest.raises(CoefficientError, match="not prime"):
            PrimeField(n)

    @pytest.mark.parametrize("p", [2**61 - 1, 10**16 + 61, 2**64 - 59])
    def test_large_primes_accepted_quickly(self, p):
        start = time.perf_counter()
        assert PrimeField(p).p == p
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("p", [2**64, 2**64 + 13, 2**89 - 1])
    def test_bound_refused(self, p):
        with pytest.raises(CoefficientError, match=r"2\^64"):
            PrimeField(p)

    def test_trial_division_reference(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(-3, 10**4) if _is_prime(n)] == [
            n for n in range(-3, 10**4) if trial(n)
        ]

    def test_fraction_image(self):
        f5 = PrimeField(5)
        assert f5.from_fraction(Fraction(1, 2)) == f5.from_int(3)
        with pytest.raises(SpecializationError, match=r"^rational 1/5 has no image in F_5$"):
            f5.from_fraction(Fraction(1, 5))
        with pytest.raises(SpecializationError, match=r"^rational 1/5 has no image in F_5$"):
            f5.one() + Fraction(1, 5)

    def test_mixed_characteristic(self):
        with pytest.raises(ContextMismatchError):
            PrimeField(5).from_int(1) + PrimeField(7).from_int(1)


class TestSpecialize:
    def test_sum_vanishes(self):
        ctx = generic_field_context()
        target = Rationals()
        value = specialize(ctx.q_sum, {"q1": Fraction(1), "q2": Fraction(-1)}, target)
        assert value == 0

    def test_jones_substitution_of_product(self):
        field_s = RationalFunctionField(("s",))
        s = field_s.variable("s")
        ctx = generic_field_context()
        value = specialize(ctx.q_prod, {"q1": -s, "q2": s ** 3}, field_s)
        assert value == -(s ** 4)

    def test_delta_under_jones_substitution(self):
        # (1+q1*q2)/(q1+q2) at q1=-s, q2=s^3 cancels to -(s + 1/s):
        # (1-s^4)/(s^3-s) = -(1+s^2)/s.
        field_s = RationalFunctionField(("s",))
        s = field_s.variable("s")
        ctx = generic_field_context()
        value = specialize(ctx.delta(), {"q1": -s, "q2": s ** 3}, field_s)
        assert value == -(s + s ** -1)

    def test_homomorphism_property(self):
        rng = random.Random(13)
        field_s = RationalFunctionField(("s",))
        s = field_s.variable("s")
        assignment = {"q1": s + 1, "q2": s ** 2}
        for _ in range(25):
            x = _random_rf(rng)
            y = _random_rf(rng)
            try:
                sx = specialize(x, assignment, field_s)
                sy = specialize(y, assignment, field_s)
                sxy = specialize(x * y, assignment, field_s)
                sxpy = specialize(x + y, assignment, field_s)
            except SpecializationError:
                continue
            assert sxy == sx * sy
            assert sxpy == sx + sy

    def test_unassigned_variable(self):
        with pytest.raises(SpecializationError):
            specialize(rf("q1"), {"q2": Fraction(1)}, Rationals())

    def test_negative_exponents_stay_in_the_target_field(self):
        x = lp("q1^-1*q2^-2+3")
        value = specialize(x, {"q1": 2, "q2": 3}, Rationals())
        assert type(value) is Fraction
        assert value == Fraction(55, 18)
        f7 = PrimeField(7)
        assert specialize(x, {"q1": 2, "q2": 3}, f7) == f7.from_int(5)

    def test_vanishing_denominator_reported(self):
        value = rf("1 / q1+q2")
        with pytest.raises(SpecializationError):
            specialize(value, {"q1": Fraction(1), "q2": Fraction(-1)}, Rationals())

    def test_constants(self):
        f7 = PrimeField(7)
        assert specialize(3, {}, Rationals()) == Fraction(3)
        assert specialize(Fraction(1, 2), {}, f7) == f7.from_int(4)
        assert specialize(f7.from_int(3), {}, f7) == f7.from_int(3)
        with pytest.raises(CoefficientError):
            specialize("q1", {}, Rationals())


class TestQuantumE:
    def test_minus_one_over_rationals(self):
        assert quantum_e(Fraction(-1)) == 2

    def test_one_over_f3(self):
        assert quantum_e(PrimeField(3).from_int(1)) == 3
        # at once: the partial sums of q = 1 are 1, 2, ..., first 0 at e = p
        assert quantum_e(PrimeField(2**61 - 1).from_int(1)) == 2**61 - 1

    def test_two_over_f5(self):
        # independent oracle: direct partial sums, for every unit q of every
        # prime p <= 31 (the sums are periodic with period dividing p(p - 1))
        def first_vanishing_sum(p, q):
            acc, power = 0, 1
            for e in range(1, p * (p - 1) + 2):
                acc = (acc + power) % p
                power = power * q % p
                if acc == 0:
                    return e

        assert first_vanishing_sum(5, 2) == 4
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for q in range(1, p):
                assert quantum_e(PrimeField(p).from_int(q)) == first_vanishing_sum(p, q)

    def test_generic_variable_is_infinite(self):
        field = RationalFunctionField(("q",))
        assert quantum_e(field.variable("q")) == math.inf
        assert quantum_e(Fraction(1)) == math.inf

    def test_targets_for_e_2_3_4(self):
        assert quantum_e(PrimeField(3).from_int(2)) == 2
        assert quantum_e(PrimeField(7).from_int(2)) == 3
        assert quantum_e(PrimeField(5).from_int(2)) == 4
        assert quantum_e(PrimeField(2**61 - 1).from_int(-1)) == 2

    @pytest.mark.parametrize(
        "p, q",
        [
            (2**61 - 1, 2),
            (2**61 - 1, 3),
            (2**61 - 1, 37),
            (18446744073709551557, 5),
            # p - 1 = 2 * 2147483693 * 2147483713, two large primes for rho
            (9223372509301184219, 37),
        ],
    )
    def test_order_in_a_large_field_matches_sympy(self, p, q):
        n_order = pytest.importorskip("sympy").ntheory.n_order
        start = time.perf_counter()
        e = quantum_e(PrimeField(p).from_int(q))
        assert time.perf_counter() - start < 1.0
        assert e == n_order(q, p)


class TestFieldContext:
    def test_delta(self):
        ctx = generic_field_context()
        assert ctx.delta() == rf("1+q1*q2 / q1+q2")

    def test_nonunit_parameters_rejected(self):
        with pytest.raises(CoefficientError):
            FieldContext(Rationals(), Fraction(0), Fraction(1))

    def test_delta_requires_unit_sum(self):
        ctx = FieldContext(Rationals(), Fraction(1), Fraction(-1))
        with pytest.raises(CoefficientError):
            ctx.delta()


class TestSharedConstants:
    # zero(), one() and 1 + q1*q2 are built once and then shared by every
    # caller, so no operation that reads them may change them.
    def test_built_once(self):
        field = RationalFunctionField(Q12)
        assert field.one() is field.one()
        assert field.zero() is field.zero()
        ctx = generic_field_context()
        assert ctx.one_plus_q_prod is ctx.one_plus_q_prod
        assert ctx.one_plus_q_prod == rf("1+q1*q2")

    def test_arithmetic_leaves_them_unchanged(self):
        from heckelink.braid import BraidWord
        from heckelink.hecke import HeckeContext, from_braid_word
        from heckelink.trace import markov_trace

        x_field = RationalFunctionField(("x",))
        x = x_field.variable("x")
        contexts = [generic_field_context(), FieldContext(x_field, x + 1, x)]
        for ctx in contexts:
            field = ctx.field
            zero, one, one_plus = field.zero(), field.one(), ctx.one_plus_q_prod
            y = ctx.q1 / ctx.q_sum
            assert (one + y) - one == y and y + one == one + y
            assert one * y == y and one / y * y == one and -one + one == zero
            assert y * zero == zero and zero + y == y and sum([one] * 3, zero) == 3
            assert one ** 4 == one and one_plus ** 2 == one_plus * one_plus
            assert divide_by_power(one_plus, ctx.q_sum, 2) == ctx.delta() / ctx.q_sum
            # folds start from one() and sum into dicts of shared values
            h = from_braid_word(BraidWord(3, [1, -2, 1]), HeckeContext(3, ctx))
            assert markov_trace(h * h) == markov_trace(h * h)
            fresh = [
                RationalFunction.constant(field.variables, 0),
                RationalFunction.constant(field.variables, 1),
                RationalFunction.constant(field.variables, 1) + ctx.q1 * ctx.q2,
            ]
            for shared, built in zip((zero, one, one_plus), fresh):
                assert (shared.num.terms, shared.den.terms) == (built.num.terms, built.den.terms)
            assert (field.zero(), field.one()) == (zero, one)


class TestRendering:
    def test_graded_lex_order(self):
        assert lp("q2+q1").render() == "q1+q2"
        assert lp("q1*q2^2+q1^2").render() == "q1*q2^2+q1^2"
        t = ("t",)
        assert lp("t+t^3-t^4", t).render() == "-t^4+t^3+t"

    def test_fraction_rendering(self):
        assert rf("1+q1*q2 / q1+q2").render() == "q1*q2+1 / q1+q2"

    def test_negative_exponent(self):
        assert lp("s^-1+s", ("s",)).render() == "s+s^-1"

    def test_round_trip(self):
        rng = random.Random(17)
        field = RationalFunctionField(Q12)
        for _ in range(40):
            x = _random_rf(rng)
            assert field.parse(x.render()) == x

    def test_prime_field_round_trip(self):
        f7 = PrimeField(7)
        assert f7.parse(render_scalar(f7.from_int(12))) == f7.from_int(5)

    def test_leading_and_separating_plus_accepted(self):
        assert lp("+q1") == lp("q1")
        assert lp("q1+-q2") == lp("q1-q2")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty polynomial"),
            ("-", "dangling sign"),
            ("q1+", "dangling sign"),
            ("+", "dangling sign"),
            ("q1++q2", "dangling sign"),
            ("q1**q2", "empty factor"),
            ("1/0*q1", "bad coefficient"),
            ("x", "unknown variable"),
            ("q1^a", "bad exponent"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(CoefficientError, match=message):
            lp(text)


def _random_poly(rng, variables=Q12, ordinary=False):
    terms = {}
    lo = 0 if ordinary else -2
    for _ in range(rng.randrange(4)):
        exps = tuple(rng.randrange(lo, 3) for _ in variables)
        terms[exps] = Fraction(rng.randrange(-3, 4))
    return LaurentPoly(variables, terms)


def _random_rf(rng, variables=Q12):
    num = _random_poly(rng, variables)
    den = _random_poly(rng, variables, ordinary=True)
    while den.is_zero():
        den = _random_poly(rng, variables, ordinary=True)
    return canonicalize(num, den)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RationalFunctionField(()), CoefficientError, "needs variables"),
        (lambda: RationalFunctionField(("q", "q")), CoefficientError, "duplicate variables"),
        (lambda: quantum_e("2"), CoefficientError, "unsupported scalar"),
        (lambda: quantum_e(0), CoefficientError, "q must be a unit"),
        (lambda: PrimeField(5).one() / 0, ZeroDivisionError, "division by zero in F_5"),
        (lambda: PrimeField(5).zero() ** -1, ZeroDivisionError, "inverting zero in F_5"),
        (
            lambda: RationalFunctionField(("q",)).coerce(
                RationalFunctionField(("t",)).variable("t")
            ),
            ContextMismatchError,
            "does not live in",
        ),
        (lambda: RationalFunctionField(("q",)).coerce(0.5), ContextMismatchError, "cannot coerce"),
        (lambda: Rationals().coerce(0.5), ContextMismatchError, "cannot coerce"),
        (
            lambda: PrimeField(5).coerce(PrimeField(7).one()),
            ContextMismatchError,
            "F_7 does not live in F_5",
        ),
        (lambda: PrimeField(5).coerce(0.5), ContextMismatchError, "cannot coerce"),
    ],
)
def test_typed_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()
