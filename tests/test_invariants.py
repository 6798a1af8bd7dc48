"""Link invariants: trace route, bracket oracle, and their agreement."""

import itertools
import random

import pytest

from heckelink.braid import (
    BraidWord,
    closure_components,
    conjugate,
    destabilize,
    random_word,
    stabilize,
)
from heckelink.coefficients import (
    RationalFunctionField,
    generic_field_context,
    parse_laurent,
    specialize,
)
from heckelink.invariants import (
    BracketCapError,
    InvariantError,
    JonesPolynomial,
    homflypt,
    jones,
    jones_via_bracket,
    kauffman_bracket_oracle,
)
from reference import torus_knot_jones

FIELD = generic_field_context()


def rf(text):
    return FIELD.field.parse(text)


class TestHomflypt:
    def test_unknot(self):
        assert homflypt(BraidWord(1)) == FIELD.field.one()

    def test_hopf_square(self):
        # tr(T_1^2) = (q1+q2) - q1 q2 (1+q1 q2)/(q1+q2)
        expected = FIELD.q_sum - FIELD.q_prod * FIELD.delta()
        assert homflypt(BraidWord(2, [1, 1])) == expected

    def test_trefoil(self):
        # expand T_1^3 = ((q1+q2)^2 - q1 q2) T_1 - q1 q2 (q1+q2) and trace
        expected = (
            FIELD.q_sum * FIELD.q_sum
            - FIELD.q_prod
            - FIELD.q_prod * (FIELD.field.one() + FIELD.q_prod)
        )
        assert homflypt(BraidWord(2, [1, 1, 1])) == expected

    def test_markov_move_invariance(self):
        rng = random.Random(40)
        for _ in range(15):
            n = rng.randrange(2, 5)
            b = random_word(rng, n, rng.randrange(0, 6))
            value = homflypt(b)
            assert homflypt(conjugate(b, random_word(rng, n, 3))) == value
            assert homflypt(stabilize(b, +1)) == value
            assert homflypt(stabilize(b, -1)) == value


class TestTorusKnots:
    # The closed form checks the trace route above the bracket's 16-crossing
    # cap: T(7, 8) has 48 crossings on 7 strands.
    @pytest.mark.parametrize(
        "p, q", [(2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6), (6, 7), (7, 8)]
    )
    def test_jones_matches_the_closed_form(self, p, q):
        j = jones(BraidWord(p, list(range(1, p)) * q))
        assert j.components == 1
        assert j.in_t() == torus_knot_jones(p, q)


class TestJones:
    def test_unknot(self):
        j = jones(BraidWord(1))
        assert j.render() == "1"
        assert j.components == 1

    def test_right_trefoil(self):
        j = jones(BraidWord(2, [1, 1, 1]))
        assert j.render() == "-t^4+t^3+t"
        assert j.in_t() == parse_laurent("-t^4+t^3+t", ("t",))

    def test_two_component_unlink(self):
        j = jones(BraidWord(2))
        assert j.in_t() is None
        assert j.spoly == parse_laurent("-s-s^-1", ("s",))

    def test_component_parity(self):
        rng = random.Random(41)
        for _ in range(25):
            b = random_word(rng, rng.randrange(2, 5), rng.randrange(0, 8))
            j = jones(b)
            k = closure_components(b)
            assert j.components == k
            assert all(e[0] % 2 == (k - 1) % 2 for e in j.spoly.terms)

    def test_unlink_powers(self):
        # n-component unlink: (-(s + 1/s))^(n-1)
        s_minus = parse_laurent("-s-s^-1", ("s",))
        acc = parse_laurent("1", ("s",))
        for n in range(1, 5):
            assert jones(BraidWord(n)).spoly == acc
            acc = acc * s_minus

    def test_matches_the_substitution_into_homflypt(self):
        # The reference route: specialize the two-variable invariant.
        s_field = RationalFunctionField(("s",))
        s = s_field.variable("s")
        rng = random.Random(46)
        components = set()
        longest = 0
        for i in range(20):
            n = 2 + i % 5
            length = rng.randrange(17, 21) if i % 4 == 3 else rng.randrange(0, 9)
            b = random_word(rng, n, length)
            old = specialize(homflypt(b), {"q1": -s, "q2": s ** 3}, s_field)
            assert old.den.is_one()
            k = closure_components(b)
            assert jones(b) == JonesPolynomial(old.num, k)
            components.add(k)
            longest = max(longest, length)
        assert len(components) > 2 and longest > 16


class TestBracketOracle:
    def test_unknot(self):
        assert kauffman_bracket_oracle(BraidWord(1)) == parse_laurent("1", ("A",))

    def test_two_strand_identity(self):
        # two loops: d = -A^2 - A^-2
        assert kauffman_bracket_oracle(BraidWord(2)) == parse_laurent(
            "-A^2-A^-2", ("A",)
        )

    def test_single_positive_kink(self):
        # A-state keeps the strands parallel (two loops), B-state merges them:
        # A d + A^{-1} = -A^3
        assert kauffman_bracket_oracle(BraidWord(2, [1])) == parse_laurent(
            "-A^3", ("A",)
        )

    def test_single_negative_kink(self):
        assert kauffman_bracket_oracle(BraidWord(2, [-1])) == parse_laurent(
            "-A^-3", ("A",)
        )

    def test_cap(self):
        with pytest.raises(BracketCapError):
            kauffman_bracket_oracle(BraidWord(2, [1] * 17))
        kauffman_bracket_oracle(BraidWord(2, [1] * 5), cap=5)
        with pytest.raises(BracketCapError):
            kauffman_bracket_oracle(BraidWord(2, [1] * 6), cap=5)


class TestAgreement:
    def test_kink_normalizes_to_unknot(self):
        assert jones_via_bracket(BraidWord(2, [1])).render() == "1"

    def test_trefoil_both_routes(self):
        direct = jones(BraidWord(2, [1, 1, 1]))
        oracle = jones_via_bracket(BraidWord(2, [1, 1, 1]))
        assert direct == oracle

    def test_exhaustive_two_strands(self):
        for length in range(0, 7):
            for signs in itertools.product((1, -1), repeat=length):
                b = BraidWord(2, signs)
                assert jones(b) == jones_via_bracket(b)

    def test_random_words(self):
        rng = random.Random(42)
        for _ in range(60):
            b = random_word(rng, rng.randrange(2, 5), rng.randrange(0, 11))
            assert jones(b) == jones_via_bracket(b)

    def test_invariance_under_random_move_sequences(self):
        rng = random.Random(43)
        for _ in range(10):
            b = random_word(rng, rng.randrange(2, 4), rng.randrange(1, 5))
            value = jones(b)
            current = b
            for _ in range(6):
                move = rng.randrange(3)
                if move == 0:
                    current = conjugate(current, random_word(rng, current.strands, 2))
                elif move == 1:
                    current = stabilize(current, rng.choice((1, -1)))
                else:
                    try:
                        current = destabilize(current)
                    except Exception:
                        current = stabilize(current, rng.choice((1, -1)))
            assert jones(current) == value


class TestRendering:
    def test_json(self):
        data = jones(BraidWord(2, [1, 1, 1])).to_json()
        assert data == {
            "variable": "t",
            "components": 1,
            "coefficients": {"4": "-1", "3": "1", "1": "1"},
        }

    def test_json_half_powers(self):
        data = jones(BraidWord(2)).to_json()
        assert data["variable"] == "s"
        assert data["coefficients"] == {"1": "-1", "-1": "-1"}
