"""The shipped verification oracles."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import heckelink.hecke as hecke
from heckelink import clear_caches
from heckelink.braid import BraidWord, Permutation, random_word
from heckelink.coefficients import FieldContext, Rationals, generic_field_context
from heckelink.hecke import (
    HeckeContext,
    fold_letter,
    from_braid_word,
    to_symmetric_group,
)
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
        assert report["checked"] == 1480

    @pytest.mark.parametrize("n, max_len", [(3, 5), (4, 4)])
    def test_walk_equals_per_word_images(self, n, max_len):
        ctx = HeckeContext(n, generic_field_context())
        reference = exhaustive_word_closure(
            n, max_len, image_fn=lambda b: from_braid_word(b, ctx)
        )
        assert exhaustive_word_closure(n, max_len) == reference

    @pytest.mark.parametrize("n, max_len", [(2, 4), (3, 3), (3, 5), (4, 4)])
    def test_walk_finds_a_faulty_fold_like_the_per_word_path(
        self, monkeypatch, n, max_len
    ):
        # the packed fold with the sign of the q1*q2 term flipped, every
        # letter folded as T_i, as faulty_braid_image does over Q(q1, q2)
        def faulty_fold(terms, letter, ring, keys):
            flipped = SimpleNamespace(q_sum=ring.q_sum, q_prod=-ring.q_prod)
            return fold_letter(terms, abs(letter), flipped, keys)

        reference = exhaustive_word_closure(n, max_len, image_fn=faulty_braid_image)
        monkeypatch.setattr(hecke, "fold_letter", faulty_fold)
        report = exhaustive_word_closure(n, max_len)
        assert report == reference
        if (n, max_len) == (2, 4):
            assert len(report["violations"]) == 34
        if (n, max_len) == (3, 3):
            assert report["checked"] == 40
            assert len(report["violations"]) == 36
        # the per-word path checks every rewrite, so it is the independent
        # check of the verdicts the walk inherits from the parent word
        if (n, max_len) == (3, 5):
            assert report["checked"] == 1480
            assert len(report["violations"]) == 1252
        if (n, max_len) == (4, 4):
            assert report["checked"] == 1798
            assert len(report["violations"]) == 726

    def test_walk_folds_each_shared_prefix_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return fold_letter(*args, **kwargs)

        monkeypatch.setattr(hecke, "fold_letter", counted)
        exhaustive_word_closure(3, 4)
        # 340 folds for the nonempty words and 60 for the 264 rewrites: none
        # for the 160 that keep the parent word's verdict, none for the 84
        # cancellations at the end, three for each of the 20 braid triples at
        # the end.  Folding every word from the identity takes 1,808.
        assert len(calls) == 400

    def test_an_injected_map_is_called_once_per_word(self):
        words = []
        ctx = HeckeContext(3, generic_field_context())

        def counted(b):
            words.append(b.letters)
            return from_braid_word(b, ctx)

        report = exhaustive_word_closure(3, 3, image_fn=counted)
        # the 85 words of up to 3 letters on 3 strands, then every rewrite:
        # an injected map inherits no verdict from the parent word
        assert len(words) == 85 + report["checked"] == 125

    def test_a_walk_without_folds_builds_no_rank_table(self):
        clear_caches()
        assert exhaustive_word_closure(4, 0)["checked"] == 0
        assert exhaustive_word_closure(1, 3)["checked"] == 0
        exhaustive_word_closure(3, 3, image_fn=faulty_braid_image)
        assert hecke._rank_keys.cache_info().currsize == 0

    def test_a_walk_builds_the_rank_keys_whole(self):
        clear_caches()
        exhaustive_word_closure(3, 3)
        assert hecke._rank_keys.cache_info().currsize == 1
        # every step and ascent lookup, on either side, reads a built tuple
        keys = hecke._rank_keys(3)
        for i, left in itertools.product((1, 2), (False, True)):
            step, ascent = keys.generator(i, left)
            assert type(step.__self__) is tuple and type(ascent.__self__) is tuple

    def test_guard(self):
        with pytest.raises(OracleError):
            exhaustive_word_closure(5, 3)
        for n in (0, -1):
            with pytest.raises(OracleError):
                exhaustive_word_closure(n, 3)
        assert exhaustive_word_closure(1, 3)["checked"] == 0
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
