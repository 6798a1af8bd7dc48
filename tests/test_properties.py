"""Property tests for the Hecke product (the prefix-tree walk against the
per-term reference fold, associativity, star as an antiautomorphism) and for
the scalar layer (canonical forms, parse after render, exact coefficients)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from heckelink.braid import Permutation
from heckelink.coefficients import (
    LaurentPoly,
    PrimeField,
    RationalFunctionField,
    Rationals,
    canonicalize,
    parse_scalar,
)
from heckelink.hecke import HeckeContext, HeckeElement
from test_hecke import FIELDS, _reference_product

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def elements(ctx, max_terms=6):
    """Elements with up to ``max_terms`` terms and coefficients a + b*q2."""
    fc = ctx.field
    coefficients = st.builds(
        lambda a, b: fc.field.from_int(a) + fc.field.from_int(b) * fc.q2,
        st.integers(-3, 3),
        st.integers(-2, 2),
    )
    perms = st.permutations(range(1, ctx.n + 1)).map(Permutation)
    return st.dictionaries(perms, coefficients, max_size=max_terms).map(
        lambda terms: HeckeElement(ctx, terms)
    )


@st.composite
def triples(draw, max_n=4):
    """Three elements of one H_n, n <= max_n, over one of the test fields."""
    ctx = HeckeContext(
        draw(st.integers(1, max_n)), FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    )
    elems = elements(ctx)
    return draw(elems), draw(elems), draw(elems)


@PROPERTY
@given(triples(max_n=5))
def test_product_is_the_reference_fold(abc):
    a, b, _ = abc
    assert a * b == _reference_product(a, b)


@PROPERTY
@given(triples())
def test_associativity(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(triples())
def test_star_reverses_products(abc):
    a, b, _ = abc
    assert (a * b).star() == b.star() * a.star()


# -- the scalar layer ------------------------------------------------------------

Q12 = ("q1", "q2")
RATIONALS = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
NONZERO = RATIONALS.filter(bool)


def laurent(ordinary=False, max_terms=4):
    """Laurent polynomials over Q(q1,q2) with int and Fraction coefficients."""
    low = 0 if ordinary else -2
    exps = st.tuples(st.integers(low, 2), st.integers(low, 2))
    return st.dictionaries(exps, RATIONALS, max_size=max_terms).map(
        lambda terms: LaurentPoly(Q12, terms)
    )


MULTIPLIERS = st.one_of(
    NONZERO.map(lambda c: LaurentPoly.constant(Q12, c)),
    st.builds(
        lambda e, c: LaurentPoly.monomial(Q12, e, c),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        NONZERO,
    ),
    laurent().filter(bool),
)


def _int_or_proper_fraction(p):
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in p.terms.values()
    )


@PROPERTY
@given(laurent(), laurent(ordinary=True).filter(bool), MULTIPLIERS)
def test_canonical_form_ignores_a_common_factor(num, den, k):
    assert canonicalize(k * num, k * den) == canonicalize(num, den)


@PROPERTY
@given(laurent(), laurent(ordinary=True).filter(bool))
def test_parse_inverts_render_over_q12(num, den):
    x = canonicalize(num, den)
    assert parse_scalar(x.render(), RationalFunctionField(Q12)) == x


@PROPERTY
@given(RATIONALS, st.integers(-50, 50), st.sampled_from([2, 3, 5, 7, 101]))
def test_parse_inverts_render_over_q_and_fp(r, n, p):
    q = Rationals()
    assert q.parse(q.render(r)) == r
    fp = PrimeField(p)
    assert fp.parse(fp.render(fp.from_int(n))) == fp.from_int(n)


@PROPERTY
@given(laurent(), laurent(), laurent(ordinary=True).filter(bool))
def test_stored_coefficients_are_int_or_proper_fraction(a, b, den):
    x = canonicalize(a, den)
    for p in (a, b, a + b, a - b, a * b, x.num, x.den):
        assert _int_or_proper_fraction(p)
