"""The shipped verification oracles."""

import random
from fractions import Fraction

import pytest

from heckelink.braid import BraidWord, Permutation, random_word
from heckelink.coefficients import FieldContext, Rationals
from heckelink.hecke import HeckeContext, from_braid_word, to_symmetric_group
from heckelink.oracles import (
    OracleError,
    exhaustive_word_closure,
    faulty_braid_image,
    sga_delta,
    sga_mul,
)


def symmetric_ctx(n):
    return HeckeContext(n, FieldContext(Rationals(), Fraction(1), Fraction(-1)))


class TestSymmetricGroupAlgebra:
    def test_involution(self):
        s1 = Permutation.transposition(2, 1)
        a = sga_delta(s1, Fraction(1))
        assert sga_mul(a, a) == {Permutation.identity(2): Fraction(1)}

    def test_composition(self):
        s1 = Permutation.transposition(3, 1)
        s2 = Permutation.transposition(3, 2)
        prod = sga_mul(sga_delta(s1, Fraction(1)), sga_delta(s2, Fraction(1)))
        assert prod == {s1 * s2: Fraction(1)}

    def test_matches_hecke_at_symmetric_point(self):
        rng = random.Random(50)
        for n in (2, 3, 4):
            ctx = symmetric_ctx(n)
            for _ in range(25):
                u = random_word(rng, n, rng.randrange(0, 6))
                v = random_word(rng, n, rng.randrange(0, 6))
                xu = from_braid_word(u, ctx)
                xv = from_braid_word(v, ctx)
                hecke_product = to_symmetric_group(xu * xv)
                oracle_product = sga_mul(
                    to_symmetric_group(xu), to_symmetric_group(xv)
                )
                assert hecke_product == oracle_product

    def test_degree_mismatch(self):
        with pytest.raises(OracleError):
            sga_mul(
                sga_delta(Permutation.identity(2), Fraction(1)),
                sga_delta(Permutation.identity(3), Fraction(1)),
            )


class TestExhaustiveClosure:
    def test_two_strands(self):
        report = exhaustive_word_closure(2, 4)
        assert report["violations"] == []
        assert report["checked"] > 0

    def test_three_strands(self):
        report = exhaustive_word_closure(3, 5)
        assert report["violations"] == []
        # every braid-relation, commutation, and cancellation site was visited
        assert report["checked"] > 1000

    def test_guard(self):
        with pytest.raises(OracleError):
            exhaustive_word_closure(5, 3)
        with pytest.raises(OracleError):
            exhaustive_word_closure(3, 9)
        with pytest.raises(OracleError):
            exhaustive_word_closure(3, -1)

    def test_fault_injection_detected(self):
        report = exhaustive_word_closure(2, 4, image_fn=faulty_braid_image)
        assert report["violations"] != []

    def test_faulty_image_differs(self):
        b = BraidWord(2, [1, 1])
        from heckelink.coefficients import generic_field_context

        good = from_braid_word(b, HeckeContext(2, generic_field_context()))
        assert faulty_braid_image(b) != good
