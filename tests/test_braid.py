"""Braid words, the symmetric-group projection, and Markov moves."""

import itertools
import random

import pytest

from heckelink.braid import (
    BraidError,
    BraidSyntaxError,
    BraidWord,
    Permutation,
    bennequin,
    closure_components,
    conjugate,
    destabilize,
    free_reduce,
    parse_braid_word,
    random_word,
    stabilize,
    underlying_permutation,
    writhe,
)


class TestParsing:
    def test_plain(self):
        assert parse_braid_word("1 1 1", 2).letters == (1, 1, 1)

    def test_signed(self):
        assert parse_braid_word("1 -2 1", 3).letters == (1, -2, 1)

    def test_out_of_range(self):
        with pytest.raises(BraidSyntaxError):
            parse_braid_word("3", 2)

    def test_commas_and_inline_declaration(self):
        w = parse_braid_word("B3: 1, -2, 1")
        assert w.strands == 3 and w.letters == (1, -2, 1)

    def test_strand_count_is_checked_before_letters(self):
        for strands, message in ((-1, "must be >= 1, got -1"), (65, "limit of 64")):
            with pytest.raises(BraidError, match=message):
                parse_braid_word("1 70", strands)
        with pytest.raises(BraidError, match="must be >= 1, got 0"):
            parse_braid_word("B0: 1")

    def test_inline_conflict(self):
        with pytest.raises(BraidSyntaxError):
            parse_braid_word("B3: 1", 2)

    def test_syntax_error_position(self):
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid_word("1 x 2", 3)
        assert err.value.position == 2

    def test_empty(self):
        assert parse_braid_word("", 1).letters == ()

    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(30):
            w = random_word(rng, rng.randrange(1, 6), rng.randrange(0, 9))
            assert parse_braid_word(w.render(), w.strands) == w


class TestProjection:
    def test_generator_is_transposition(self):
        assert underlying_permutation(BraidWord(2, [1])).images == (2, 1)

    def test_empty_word(self):
        assert underlying_permutation(BraidWord(3)).images == (1, 2, 3)

    def test_two_letter_word(self):
        # s1 o s2 sends 1->2, 2->3, 3->1
        assert underlying_permutation(BraidWord(3, [1, 2])).images == (2, 3, 1)

    def test_sign_ignored(self):
        rng = random.Random(1)
        for _ in range(20):
            w = random_word(rng, 4, 6)
            positive = BraidWord(4, [abs(j) for j in w.letters])
            assert underlying_permutation(w) == underlying_permutation(positive)

    def test_multiplicative(self):
        rng = random.Random(2)
        for _ in range(50):
            u = random_word(rng, 5, rng.randrange(0, 8))
            v = random_word(rng, 5, rng.randrange(0, 8))
            assert underlying_permutation(u.concat(v)) == underlying_permutation(
                u
            ) * underlying_permutation(v)


class TestPermutation:
    def test_length_by_inversion_oracle(self):
        w = Permutation([2, 3, 1])
        imgs = w.images
        inversions = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if imgs[i] > imgs[j]
        )
        assert inversions == 2
        assert w.length() == 2
        # every permutation on up to 7 points against the pair count
        for n in range(8):
            for imgs in itertools.permutations(range(1, n + 1)):
                pairs = sum(imgs[i] > imgs[j] for i in range(n) for j in range(i + 1, n))
                assert Permutation(imgs).length() == pairs, imgs

    def test_reduced_word_simple(self):
        assert Permutation([2, 1]).reduced_word() == (1,)

    def test_inverse(self):
        assert Permutation([2, 3, 1]).inverse().images == (3, 1, 2)

    def test_reduced_word_round_trip(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randrange(1, 7)
            imgs = list(range(1, n + 1))
            rng.shuffle(imgs)
            w = Permutation(imgs)
            word = w.reduced_word()
            assert len(word) == w.length()
            assert underlying_permutation(BraidWord(n, word)) == w

    def test_group_axioms(self):
        rng = random.Random(4)
        for _ in range(30):
            imgs = list(range(1, 6))
            rng.shuffle(imgs)
            w = Permutation(imgs)
            assert w * w.inverse() == Permutation.identity(5)
            assert Permutation.identity(5) * w == w

    def test_degree_mismatch(self):
        with pytest.raises(BraidError):
            Permutation([2, 1]) * Permutation([1, 2, 3])

    def test_steps_equal_the_checked_constructor(self):
        # both steps build their result unchecked
        for images in itertools.permutations(range(1, 6)):
            w = Permutation(images)
            for i in range(1, 5):
                right = list(images)
                right[i - 1], right[i] = right[i], right[i - 1]
                left = [i + 1 if v == i else i if v == i + 1 else v for v in images]
                for step, expected in (
                    (w.times_transposition(i), Permutation(right)),
                    (w.transposition_times(i), Permutation(left)),
                ):
                    assert step == expected
                    assert step.images == expected.images
                    assert type(step.images) is tuple
                    assert hash(step) == hash(expected)


class TestMarkovMoves:
    def test_stabilize(self):
        w = stabilize(BraidWord(2, [1, 1, 1]), +1)
        assert w.strands == 3 and w.letters == (1, 1, 1, 2)

    def test_destabilize(self):
        assert destabilize(BraidWord(3, [1, 1, 1, 2])) == BraidWord(2, [1, 1, 1])

    def test_destabilize_rejects_reuse(self):
        with pytest.raises(BraidError):
            destabilize(BraidWord(3, [2, 1, 2]))
        with pytest.raises(BraidError):
            destabilize(BraidWord(3, [2, 1]))

    def test_conjugate_round_trip(self):
        b = BraidWord(3, [1, -2])
        a = BraidWord(3, [2, 1])
        back = conjugate(conjugate(b, a), a.inverse())
        assert free_reduce(back) == free_reduce(b)

    def test_free_reduce_preserves_projection(self):
        rng = random.Random(5)
        for _ in range(30):
            w = random_word(rng, 4, 8)
            assert underlying_permutation(free_reduce(w)) == underlying_permutation(w)

    def test_free_reduce_preserves_writhe_parity_and_image(self):
        from heckelink.coefficients import generic_field_context
        from heckelink.hecke import HeckeContext, from_braid_word

        rng = random.Random(7)
        ctx = HeckeContext(3, generic_field_context())
        for _ in range(20):
            w = random_word(rng, 3, 8)
            reduced = free_reduce(w)
            assert (writhe(w) - len(w)) % 2 == (writhe(reduced) - len(reduced)) % 2
            assert from_braid_word(w, ctx) == from_braid_word(reduced, ctx)


class TestMoveRecords:
    def test_each_kind_applies(self):
        from heckelink.braid import MarkovMoveRecord

        b = BraidWord(2, [1, 1, 1])
        a = BraidWord(2, [1])
        assert MarkovMoveRecord("conjugate", a).apply(b) == conjugate(b, a)
        up = MarkovMoveRecord("stabilize+").apply(b)
        assert up == BraidWord(3, [1, 1, 1, 2])
        assert MarkovMoveRecord("destabilize+").apply(up) == b
        down = MarkovMoveRecord("stabilize-").apply(b)
        assert MarkovMoveRecord("destabilize-").apply(down) == b

    def test_destabilize_sign_checked(self):
        from heckelink.braid import MarkovMoveRecord

        up = stabilize(BraidWord(2, [1]), -1)
        with pytest.raises(BraidError):
            MarkovMoveRecord("destabilize+").apply(up)

    def test_validation(self):
        from heckelink.braid import MarkovMoveRecord

        with pytest.raises(BraidError):
            MarkovMoveRecord("twist")
        with pytest.raises(BraidError):
            MarkovMoveRecord("conjugate")
        with pytest.raises(BraidError):
            MarkovMoveRecord("stabilize+", BraidWord(2, [1]))


class TestCounts:
    def test_writhe_and_bennequin(self):
        assert (writhe(BraidWord(2, [1])), bennequin(BraidWord(2, [1]))) == (1, -1)
        assert (writhe(BraidWord(2, [1, 1, 1])), bennequin(BraidWord(2, [1, 1, 1]))) == (3, 1)
        assert (writhe(BraidWord(2, [1, -1])), bennequin(BraidWord(2, [1, -1]))) == (0, -2)

    def test_bennequin_under_moves(self):
        rng = random.Random(6)
        for _ in range(40):
            b = random_word(rng, 4, 6)
            a = random_word(rng, 4, 3)
            assert bennequin(conjugate(b, a)) == bennequin(b)
            assert bennequin(stabilize(b, +1)) == bennequin(b)
            assert bennequin(stabilize(b, -1)) == bennequin(b) - 2

    def test_closure_components(self):
        assert closure_components(BraidWord(3)) == 3
        assert closure_components(BraidWord(2, [1])) == 1
        # the braid attached to the partition (2,1) of 3
        assert closure_components(BraidWord(3, [1])) == 2
