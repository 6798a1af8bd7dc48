"""The Hecke algebra: relations, the braid-group homomorphism, star."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from heckelink.braid import BraidWord, Permutation, random_word
from heckelink.coefficients import (
    FieldContext,
    PrimeField,
    RationalFunctionField,
    Rationals,
    generic_field_context,
    generic_one_parameter_context,
    one_parameter_context,
)
from heckelink import hecke, invariants
from heckelink.hecke import (
    HeckeContext,
    HeckeElement,
    HeckeError,
    HeckeSizeError,
    _prefix_products,
    _right_product,
    from_braid_word,
    to_symmetric_group,
)
from reference import FIELDS, reference_product, star


_X = RationalFunctionField(("x",))
_x = _X.variable("x")


def generic_ctx(n):
    return HeckeContext(n, generic_field_context())


def scalar(text):
    return generic_field_context().field.parse(text)


def random_element(rng, ctx, size):
    """``size`` random terms, with coefficients a + b*q2 for small a, b."""
    fc = ctx.field
    perms = list(itertools.permutations(range(1, ctx.n + 1)))
    terms = {}
    for _ in range(size):
        a, b = rng.randrange(-3, 4), rng.randrange(-2, 3)
        terms[Permutation(rng.choice(perms))] = (
            fc.field.from_int(a) + fc.field.from_int(b) * fc.q2
        )
    return HeckeElement(ctx, terms)


class TestLinearStructure:
    def test_identity_is_basis_element_of_identity(self):
        ctx = generic_ctx(3)
        assert ctx.basis_element(Permutation.identity(3)) == ctx.identity()

    def test_cancellation(self):
        ctx = generic_ctx(3)
        t = ctx.basis_element(Permutation.transposition(3, 1))
        assert (t + t.scalar_mul(scalar("-1"))).is_zero()

    def test_scalar_mul(self):
        ctx = generic_ctx(2)
        x = ctx.identity().scalar_mul(scalar("q1*q2"))
        assert x.coefficient(Permutation.identity(2)) == scalar("q1*q2")

    def test_degree_mismatch(self):
        ctx = generic_ctx(3)
        with pytest.raises(HeckeError):
            ctx.basis_element(Permutation.identity(4))


class TestMultiplication:
    def test_quadratic_relation(self):
        ctx = generic_ctx(2)
        t = ctx.generator_image(1)
        sq = t * t
        assert sq.coefficient(Permutation.transposition(2, 1)) == scalar("q1+q2")
        assert sq.coefficient(Permutation.identity(2)) == scalar("-q1*q2")

    def test_lengths_add(self):
        ctx = generic_ctx(3)
        t1 = ctx.generator_image(1)
        t2 = ctx.generator_image(2)
        prod = t1 * t2
        assert prod == ctx.basis_element(Permutation([2, 3, 1]))

    def test_braid_relation(self):
        ctx = generic_ctx(3)
        t1 = ctx.generator_image(1)
        t2 = ctx.generator_image(2)
        assert (t1 * t2) * t1 == (t2 * t1) * t2

    def test_quadratic_for_every_generator(self):
        for n in (2, 3, 4):
            ctx = generic_ctx(n)
            for i in range(1, n):
                t = ctx.generator_image(i)
                lhs = t * t - t.scalar_mul(scalar("q1+q2")) + ctx.identity().scalar_mul(
                    scalar("q1*q2")
                )
                assert lhs.is_zero()

    def test_far_commutation(self):
        ctx = generic_ctx(4)
        t1 = ctx.generator_image(1)
        t3 = ctx.generator_image(3)
        assert t1 * t3 == t3 * t1

    def test_associativity_random(self):
        rng = random.Random(8)
        for n in (2, 3, 4):
            ctx = generic_ctx(n)
            for _ in range(15):
                a = from_braid_word(random_word(rng, n, 4), ctx)
                b = from_braid_word(random_word(rng, n, 4), ctx)
                c = from_braid_word(random_word(rng, n, 4), ctx)
                assert (a * b) * c == a * (b * c)

    def test_support_length_bound(self):
        rng = random.Random(9)
        for _ in range(20):
            k = rng.randrange(0, 7)
            w = BraidWord(4, [rng.randrange(1, 4) for _ in range(k)])
            x = from_braid_word(w, generic_ctx(4))
            assert all(u.length() <= k for u in x.terms)


class TestRightProducts:
    """The prefix-tree walk against the per-term reference fold."""

    @pytest.mark.parametrize("name", FIELDS)
    def test_product_matches_reference(self, name):
        rng = random.Random(13)
        for n in (1, 2, 3, 4, 5):
            ctx = HeckeContext(n, FIELDS[name])
            for _ in range(12):
                x = random_element(rng, ctx, rng.randrange(0, 7))
                y = random_element(rng, ctx, rng.randrange(0, 7))
                assert x * y == reference_product(x, y)

    @staticmethod
    def _walk_cases(name):
        """(left, right) pairs over n <= 5, with empty, identity, single-term
        and overlapping right supports."""
        rng = random.Random(14)
        for n in (1, 2, 3, 4, 5):
            ctx = HeckeContext(n, FIELDS[name])
            for _ in range(4):
                left = random_element(rng, ctx, rng.randrange(1, 8))
                y = random_element(rng, ctx, 8)
                z = random_element(rng, ctx, 5)
                single = random_element(rng, ctx, 1)
                part = HeckeElement(ctx, dict(list(y.terms.items())[::2]))
                rights = [
                    ctx.zero_element(), ctx.identity(), single, y, part, y + z, z, y
                ]
                for lhs in (left, ctx.zero_element(), ctx.identity()):
                    for r in rights:
                        yield lhs, r

    @pytest.mark.parametrize("name", FIELDS)
    def test_shared_walk_matches_reference(self, name):
        for lhs, r in self._walk_cases(name):
            fc = lhs.context.field
            product = _right_product(lhs.terms, r.terms, fc)
            assert HeckeElement(lhs.context, product) == reference_product(lhs, r)

    @pytest.mark.parametrize("name", FIELDS)
    def test_prefix_products_match_reference(self, name):
        # the walk yields left * T_v once for every v of the support
        for lhs, r in self._walk_cases(name):
            ctx = lhs.context
            fc = ctx.field
            support = set(r.terms)
            walked = dict(_prefix_products(lhs.terms, support, fc))
            assert walked.keys() == support
            for v, terms in walked.items():
                basis = HeckeElement(ctx, {v: fc.one()})
                assert HeckeElement(ctx, terms) == reference_product(lhs, basis)

    def test_no_right_factors(self):
        # a right factor without terms: the walk has no tree and yields zero
        ctx = generic_ctx(3)
        fc = ctx.field
        x = ctx.generator_image(1)
        assert _right_product(x.terms, {}, fc) == {}


# Fields whose braid images fold on their own scalars, not on packed ints.
FIELD_SCALAR_FIELDS = {
    "Q at q=1/2": one_parameter_context(Rationals(), Fraction(1, 2)),
    "F_7 at q=3": one_parameter_context(PrimeField(7), 3),
    "Q(x) at (x+1,x)": FieldContext(_X, _x + 1, _x),
}


class TestGeneratorInverse:
    @pytest.mark.parametrize("name", FIELD_SCALAR_FIELDS)
    def test_inverse_rule_on_field_scalars(self, name):
        # the closed form ((q1 + q2) - T_i) / (q1 q2), built without the fold
        field = FIELD_SCALAR_FIELDS[name]
        assert hecke._packing_units(field) is None
        n = 4
        ctx = HeckeContext(n, field)
        images = {}
        for i in range(1, n):
            t = ctx.basis_element(Permutation.transposition(n, i))
            inverse = ctx.generator_image(i, -1)
            assert t * inverse == ctx.identity() == inverse * t
            images[i] = t
            images[-i] = (ctx.identity().scalar_mul(field.q_sum) - t).scalar_mul(
                field.one() / field.q_prod
            )
        rng = random.Random(27)
        for _ in range(20):
            b = random_word(rng, n, rng.randrange(0, 9))
            expected = ctx.identity()
            for letter in b.letters:
                expected = expected * images[letter]
            assert from_braid_word(b, ctx) == expected, b

    def test_inverse_cancels(self):
        ctx = generic_ctx(3)
        for i in (1, 2):
            prod = ctx.generator_image(i, +1) * ctx.generator_image(i, -1)
            assert prod == ctx.identity()

    def test_inverse_coefficients(self):
        ctx = generic_ctx(2)
        inv = ctx.generator_image(1, -1)
        assert inv.coefficient(Permutation.identity(2)) == scalar("q1+q2 / q1*q2")
        assert inv.coefficient(Permutation.transposition(2, 1)) == scalar("-1 / q1*q2")

    def test_inverse_at_symmetric_point(self):
        # at (1,-1) the generators are involutions, so T_i^{-1} = T_i
        field = FieldContext(Rationals(), Fraction(1), Fraction(-1))
        ctx = HeckeContext(2, field)
        assert ctx.generator_image(1, -1) == ctx.generator_image(1, +1)


class TestBraidWordImages:
    def test_free_cancellation(self):
        ctx = generic_ctx(2)
        assert from_braid_word(BraidWord(2, [1, -1]), ctx) == ctx.identity()

    def test_square_expands(self):
        ctx = generic_ctx(2)
        x = from_braid_word(BraidWord(2, [1, 1]), ctx)
        s1 = Permutation.transposition(2, 1)
        assert x.coefficient(s1) == scalar("q1+q2")
        assert x.coefficient(Permutation.identity(2)) == scalar("-q1*q2")

    def test_braid_relation_on_words(self):
        ctx = generic_ctx(3)
        a = from_braid_word(BraidWord(3, [1, 2, 1]), ctx)
        b = from_braid_word(BraidWord(3, [2, 1, 2]), ctx)
        assert a == b

    def test_multiplicative_on_random_words(self):
        rng = random.Random(10)
        for n in (2, 3, 4):
            ctx = generic_ctx(n)
            for _ in range(20):
                u = random_word(rng, n, rng.randrange(0, 6))
                v = random_word(rng, n, rng.randrange(0, 6))
                assert from_braid_word(u.concat(v), ctx) == from_braid_word(
                    u, ctx
                ) * from_braid_word(v, ctx)

    def test_strand_mismatch(self):
        with pytest.raises(HeckeError):
            from_braid_word(BraidWord(3, [1]), generic_ctx(2))


FULL_TWIST_6 = BraidWord(6, [1, 2, 3, 4, 5] * 6)


class TestSupportBudget:
    def test_no_word_on_8_strands_reaches_the_limit(self):
        assert hecke.MAX_SUPPORT == math.factorial(8)
        assert issubclass(HeckeSizeError, HeckeError)

    def test_full_twist_has_every_term(self):
        assert len(from_braid_word(FULL_TWIST_6, generic_ctx(6)).terms) == 720

    def test_a_fold_past_the_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(hecke, "MAX_SUPPORT", 100)
        with pytest.raises(HeckeSizeError, match="more than 100 terms"):
            from_braid_word(FULL_TWIST_6, generic_ctx(6))


def field_fold(b, ctx):
    """The image of b folded letter by letter on the scalars of ctx's field:
    an inverse letter folds q_prod T_i^{-1}, so the fold is divided by
    q_prod^m for its m inverse letters."""
    terms = ctx.identity().terms
    for letter in b.letters:
        terms = hecke.fold_letter(terms, letter, ctx.field)
    m = sum(letter < 0 for letter in b.letters)
    return HeckeElement(ctx, terms).scalar_mul(ctx.field.q_prod ** -m)


# Fields whose braid images fold on packed ints: -q1 and q = -q2/q1 are
# signed monomials, with each combination of signs.
PACKED_FIELDS = {
    "Q(q1,q2)": generic_field_context(),
    "Q(q) at (-1,q)": generic_one_parameter_context(),
    "Q(s) at (-s,s^3)": invariants._S_CONTEXT,
    "Q(x) at (x^2,-1/x)": FieldContext(_X, _x**2, -_x ** -1),
    "Q(x) at (-x,-x^2)": FieldContext(_X, -_x, -_x**2),
    "Q(x) at (1,x)": FieldContext(_X, _X.one(), _x),
}


class TestPackedFold:
    @pytest.mark.parametrize("name", PACKED_FIELDS)
    def test_equals_the_field_fold(self, name):
        field = PACKED_FIELDS[name]
        assert hecke._packing_units(field) is not None
        rng = random.Random(40)
        for k in range(24):
            n = 2 + k % 6
            b = random_word(rng, n, rng.randrange(0, 11))
            ctx = HeckeContext(n, field)
            assert from_braid_word(b, ctx) == field_fold(b, ctx), b

    @pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
    def test_rank_keys_fold_like_permutation_keys(self, left):
        # every prefix of random signed words on 1-5 strands, folded on
        # packed ints from the identity with both kinds of key
        rng = random.Random(44)
        for n in range(1, 6):
            keys = hecke._rank_keys(n)
            assert keys.permutation(0) == Permutation.identity(n)
            for _ in range(12):
                b = random_word(rng, n, rng.randrange(0, 13))
                packed = hecke._Packed(len(b.letters))
                ranked = {0: packed.one()}
                permuted = {Permutation.identity(n): packed.one()}
                for letter in b.letters:
                    ranked = hecke.fold_letter(ranked, letter, packed, keys, left)
                    permuted = hecke.fold_letter(
                        permuted, letter, packed, hecke.PERMUTATION_KEYS, left
                    )
                    assert {keys.permutation(r): c for r, c in ranked.items()} == permuted, b
                    assert ranked == {keys.rank(w): c for w, c in permuted.items()}, b

    def test_other_fields_are_not_packed(self):
        # Q and F_p, a parameter that is no signed monomial, and a constant
        # q = -q2/q1, whose powers would share one monomial
        fields = [
            one_parameter_context(Rationals(), 2),
            one_parameter_context(PrimeField(7), 3),
            FieldContext(_X, _X.from_int(2), _x),
            FieldContext(_X, _x + 1, _x),
            FieldContext(_X, _x, -_x),
        ]
        for field in fields:
            assert hecke._packing_units(field) is None

    def test_digits_round_trip(self):
        rng = random.Random(42)
        for letters in (0, 1, 5, 56):
            packed = hecke._Packed(letters)
            top = (1 << (packed.bits - 1)) - 1
            assert 3**letters <= top
            assert packed.digits(0) == []
            for _ in range(20):
                digits = [
                    rng.choice((top, -top, rng.randint(-top, top)))
                    for _ in range(rng.randrange(1, 12))
                ]
                digits[-1] = digits[-1] or top
                value = sum(d << (packed.bits * k) for k, d in enumerate(digits))
                assert packed.digits(value) == digits


class TestStar:
    def test_on_basis(self):
        ctx = generic_ctx(3)
        w = Permutation([2, 3, 1])  # s1 s2
        assert star(ctx.basis_element(w)) == ctx.basis_element(w.inverse())
        assert star(ctx.identity()) == ctx.identity()

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(11)
        ctx = generic_ctx(3)
        for _ in range(20):
            a = from_braid_word(random_word(rng, 3, 4), ctx)
            b = from_braid_word(random_word(rng, 3, 4), ctx)
            assert star(star(a)) == a
            assert star(a * b) == star(b) * star(a)


class TestLeftMultiplication:
    def test_matches_full_product(self):
        # the left fold of a letter i is T_i * x, and of -i, which divides
        # nothing, q_prod T_i^{-1} * x
        rng = random.Random(12)
        for name, field in FIELDS.items():
            ctx = HeckeContext(4, field)
            for _ in range(20):
                x = from_braid_word(random_word(rng, 4, 5), ctx)
                i = rng.randrange(1, 4)
                folded = hecke.fold_letter(x.terms, i, field, left=True)
                assert HeckeElement(ctx, folded) == ctx.generator_image(i) * x, name
                folded = hecke.fold_letter(x.terms, -i, field, left=True)
                inverse = ctx.generator_image(i, -1).scalar_mul(field.q_prod)
                assert HeckeElement(ctx, folded) == inverse * x, name


class TestSymmetricGroupSpecialization:
    def ctx(self, n):
        return HeckeContext(n, FieldContext(Rationals(), Fraction(1), Fraction(-1)))

    def test_involution(self):
        ctx = self.ctx(2)
        t = ctx.generator_image(1)
        assert to_symmetric_group(t * t) == {Permutation.identity(2): Fraction(1)}

    def test_word_image_is_group_element(self):
        ctx = self.ctx(3)
        x = from_braid_word(BraidWord(3, [1, 2]), ctx)
        assert to_symmetric_group(x) == {Permutation([2, 3, 1]): Fraction(1)}

    def test_wrong_parameters_rejected(self):
        with pytest.raises(HeckeError):
            to_symmetric_group(generic_ctx(2).identity())


class TestRendering:
    def test_square(self):
        ctx = generic_ctx(2)
        x = from_braid_word(BraidWord(2, [1, 1]), ctx)
        assert x.render() == "(q1+q2)*T[2,1] + (-q1*q2)*T[1,2]"

    def test_identity(self):
        ctx = generic_ctx(2)
        assert from_braid_word(BraidWord(2, [1, -1]), ctx).render() == "T[1,2]"

    def test_zero(self):
        assert generic_ctx(2).zero_element().render() == "0"

    def test_json(self):
        ctx = generic_ctx(2)
        x = from_braid_word(BraidWord(2, [1, 1]), ctx)
        assert x.to_json() == [
            {"perm": [2, 1], "coeff": "q1+q2"},
            {"perm": [1, 2], "coeff": "-q1*q2"},
        ]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HeckeContext(0, generic_field_context()), "strand count must be >= 1"),
        (
            lambda: HeckeContext(3, generic_field_context()).generator_image(5),
            "generator index 5 out of range for n=3",
        ),
        (
            lambda: HeckeContext(2, generic_field_context()).identity()
            + HeckeContext(3, generic_field_context()).identity(),
            "context mismatch",
        ),
    ],
)
def test_typed_errors(build, message):
    with pytest.raises(HeckeError, match=message):
        build()
