"""Property tests for the Hecke product: the prefix-tree walk against the
per-term reference fold, associativity, and star as an antiautomorphism."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from heckelink.braid import Permutation
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
