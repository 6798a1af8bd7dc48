"""Partitions, the braids attached to them, and the Markov trace."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from heckelink.braid import BraidWord, Permutation, conjugate, random_word, stabilize
from heckelink.coefficients import (
    CoefficientError,
    FieldContext,
    PrimeField,
    RationalFunctionField,
    Rationals,
    divide_by_power,
    generic_field_context,
    generic_one_parameter_context,
    render_scalar,
    specialize,
)
from heckelink import hecke, trace
from heckelink.hecke import HeckeContext, HeckeElement, from_braid_word
from heckelink.trace import (
    ClosureDecomposition,
    Partition,
    PartitionError,
    _class_polynomial,
    _closure_factors,
    _cyclically_reduced,
    b_lambda,
    decompose_closure,
    dominates,
    e_restricted,
    markov_trace,
    partitions_of,
    strictly_dominates,
    trace_of_braid,
)

FIELD = generic_field_context()
DELTA = FIELD.delta()


class TestPartitions:
    def test_small_enumerations(self):
        assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
        assert [p.parts for p in partitions_of(0)] == [()]

    def test_count_against_brute_force(self):
        # oracle: count weakly decreasing positive tuples summing to 6
        def brute(n, cap):
            if n == 0:
                return 1
            return sum(brute(n - p, p) for p in range(min(cap, n), 0, -1))

        assert brute(6, 6) == 11
        assert len(partitions_of(6)) == 11

    def test_descending_lex_refines_dominance(self):
        parts = partitions_of(6)
        for i, mu in enumerate(parts):
            for lam in parts[i + 1 :]:
                assert not strictly_dominates(lam, mu)

    def test_validation(self):
        with pytest.raises(PartitionError):
            Partition((1, 2))
        with pytest.raises(PartitionError):
            Partition((2, 0))


class TestDominance:
    def test_examples(self):
        assert dominates(Partition((3, 1)), Partition((2, 2)))
        assert not dominates(Partition((2, 2)), Partition((3, 1)))
        lam = Partition((2, 1))
        assert dominates(lam, lam)
        assert not strictly_dominates(lam, lam)

    def test_size_mismatch(self):
        with pytest.raises(PartitionError):
            dominates(Partition((2,)), Partition((3,)))


class TestERestricted:
    def test_examples(self):
        assert not e_restricted(Partition((2,)), 2)
        assert e_restricted(Partition((1, 1)), 2)
        assert e_restricted(Partition((7, 3)), math.inf)

    def test_trailing_part_counts(self):
        # (3,) has difference 3 against the trailing zero
        assert not e_restricted(Partition((3,)), 3)
        assert e_restricted(Partition((2, 1)), 2)


class TestBLambda:
    def test_one_part(self):
        assert b_lambda(Partition((3,))) == BraidWord(3, [2, 1])

    def test_all_ones(self):
        assert b_lambda(Partition((1, 1, 1))) == BraidWord(3, [])

    def test_two_blocks(self):
        assert b_lambda(Partition((2, 1))) == BraidWord(3, [1])
        assert b_lambda(Partition((2, 2))) == BraidWord(4, [1, 3])

    def test_component_count_is_part_count(self):
        from heckelink.braid import closure_components

        for n in range(1, 7):
            for lam in partitions_of(n):
                assert closure_components(b_lambda(lam)) == lam.k


class TestMarkovTrace:
    def test_identity_traces(self):
        for n in (1, 2, 3, 4):
            ctx = HeckeContext(n, FIELD)
            assert markov_trace(ctx.identity()) == DELTA ** (n - 1)

    def test_generator_trace(self):
        ctx = HeckeContext(2, FIELD)
        assert markov_trace(ctx.generator_image(1)) == FIELD.field.one()

    def test_square_trace(self):
        # expand T_1^2 by the quadratic relation and trace termwise
        ctx = HeckeContext(2, FIELD)
        t1 = ctx.generator_image(1)
        expected = FIELD.q_sum - FIELD.q_prod * DELTA
        assert markov_trace(t1 * t1) == expected

    def test_commutativity(self):
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randrange(2, 6)
            ctx = HeckeContext(n, FIELD)
            a = from_braid_word(random_word(rng, n, 4), ctx)
            b = from_braid_word(random_word(rng, n, 4), ctx)
            assert markov_trace(a * b) == markov_trace(b * a)

    def test_strand_addition(self):
        rng = random.Random(21)
        one_plus = FIELD.field.one() + FIELD.q_prod
        for _ in range(30):
            n = rng.randrange(1, 5)
            b = random_word(rng, n, rng.randrange(0, 7))
            lhs = one_plus * trace_of_braid(b)
            rhs = FIELD.q_sum * trace_of_braid(BraidWord(n + 1, b.letters))
            assert lhs == rhs

    def test_stabilization_both_signs(self):
        rng = random.Random(22)
        for _ in range(30):
            n = rng.randrange(1, 5)
            b = random_word(rng, n, rng.randrange(0, 7))
            tr = trace_of_braid(b)
            assert trace_of_braid(stabilize(b, +1)) == tr
            assert trace_of_braid(stabilize(b, -1)) == tr

    def test_conjugation_invariance(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randrange(2, 5)
            b = random_word(rng, n, rng.randrange(0, 6))
            a = random_word(rng, n, 3)
            assert trace_of_braid(conjugate(b, a)) == trace_of_braid(b)

    def test_b_lambda_traces(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert trace_of_braid(b_lambda(lam)) == DELTA ** (lam.k - 1)

    def test_requires_unit_parameter_sum(self):
        symmetric = FieldContext(Rationals(), 1, -1)
        ctx = HeckeContext(2, symmetric)
        with pytest.raises(CoefficientError):
            markov_trace(ctx.identity())


def _random_braids(seed):
    """20 braids on 2-5 strands with up to 6 letters of both signs."""
    rng = random.Random(seed)
    return [random_word(rng, rng.randrange(2, 6), rng.randrange(0, 7)) for _ in range(20)]


class TestScaledTrace:
    @pytest.mark.parametrize("field", [Rationals(), PrimeField(11)], ids=["Q", "F11"])
    def test_specialized_field_matches_generic_trace(self, field):
        ctx = FieldContext(field, 2, 3)
        assignment = {"q1": field.from_int(2), "q2": field.from_int(3)}
        for b in _random_braids(26):
            value = markov_trace(from_braid_word(b, HeckeContext(b.strands, ctx)))
            assert value == specialize(trace_of_braid(b), assignment, field)

    def test_scaled_trace_is_a_laurent_polynomial(self):
        for b in _random_braids(27):
            scaled = trace_of_braid(b) * FIELD.q_sum ** (b.strands - 1)
            assert scaled.is_polynomial()


def full_twist_image(n, field):
    """The image of the full twist (sigma_1 ... sigma_{n-1})^n in H_n."""
    return from_braid_word(BraidWord(n, list(range(1, n)) * n), HeckeContext(n, field))


def reference_trace(h):
    """The Markov trace by the per-basis recursion on the scaled trace
    tau_n(T_w) = (q1 + q2)^(n-1) tr_n(T_w), divided once at the end:
    tau_n(T_w) = (1 + q1 q2) tau_{n-1}(T_x) when w fixes n, and otherwise
    (q1 + q2) tau_{n-1}(T_y T_x), with x = w minus the entry n and
    y = s_{n-2} ... s_p for p = w^{-1}(n)."""
    field = h.context.field
    cache = {}

    def tau(w):
        n = w.degree
        if n == 1:
            return field.one()
        if w not in cache:
            p = w.images.index(n) + 1
            x = Permutation(w.images[: p - 1] + w.images[p:])
            if p == n:
                cache[w] = (field.one() + field.q_prod) * tau(x)
            else:
                y = Permutation(tuple(range(1, p)) + (n - 1,) + tuple(range(p, n - 1)))
                sub = HeckeContext(n - 1, field)
                product = sub.basis_element(y) * sub.basis_element(x)
                cache[w] = field.q_sum * tau_sum(product.terms)
        return cache[w]

    def tau_sum(terms):
        total = field.zero()
        for w, c in terms.items():
            total = total + c * tau(w)
        return total

    return tau_sum(h.terms) / field.q_sum ** (h.context.n - 1)


def _s_context():
    s_field = RationalFunctionField(("s",))
    s = s_field.variable("s")
    return FieldContext(s_field, -s, s**3)


REFERENCE_CONTEXTS = [
    pytest.param(FIELD, id="Q(q1,q2)"),
    pytest.param(_s_context(), id="Q(s)"),
    pytest.param(FieldContext(Rationals(), 2, 3), id="Q"),
    pytest.param(FieldContext(PrimeField(11), 2, 3), id="F11"),
]


class TestAgainstReferenceTrace:
    @pytest.mark.parametrize("field", REFERENCE_CONTEXTS)
    def test_every_basis_element(self, field):
        for n in range(1, 6):
            ctx = HeckeContext(n, field)
            for images in itertools.permutations(range(1, n + 1)):
                t_w = ctx.basis_element(Permutation(images))
                assert markov_trace(t_w) == reference_trace(t_w)

    @pytest.mark.parametrize("field", REFERENCE_CONTEXTS)
    def test_random_elements(self, field):
        # Arbitrary integer coefficients: these are not braid images.
        rng = random.Random(28)
        sizes = set()
        for i in range(30):
            n = 1 + i % 6
            perms = list(itertools.permutations(range(1, n + 1)))
            support = rng.sample(perms, min(len(perms), rng.randrange(0, 9)))
            terms = {
                Permutation(w): field.field.from_int(rng.randint(-3, 3))
                for w in support
            }
            h = HeckeElement(HeckeContext(n, field), terms)
            sizes.add(len(h.terms))
            assert markov_trace(h) == reference_trace(h)
        assert 0 in sizes and max(sizes) >= 6

    # Dense images: every bucket is nonempty, so the Horner sums merge terms.
    @pytest.mark.parametrize("field", REFERENCE_CONTEXTS)
    def test_full_twist_on_six_strands(self, field):
        h = full_twist_image(6, field)
        assert {w.images.index(6) for w in h.terms} == set(range(6))
        assert markov_trace(h) == reference_trace(h)

    @pytest.mark.parametrize("field", REFERENCE_CONTEXTS[2:])
    def test_full_twist_on_seven_strands(self, field):
        h = full_twist_image(7, field)
        assert {w.images.index(7) for w in h.terms} == set(range(7))
        assert markov_trace(h) == reference_trace(h)

    def test_one_chain_of_left_folds_per_step(self, monkeypatch):
        # n - 2 left folds per step, C(n - 1, 2) in all; one chain per bucket
        # would make C(n, 3).
        folds = []
        fold = hecke.fold_letter

        def counting(terms, letter, ring, keys=hecke.PERMUTATION_KEYS, left=False):
            if left:
                folds.append(letter)
            return fold(terms, letter, ring, keys, left)

        monkeypatch.setattr(hecke, "fold_letter", counting)
        field = FieldContext(Rationals(), 2, 3)
        for n, expected in ((6, 10), (7, 15)):
            folds.clear()
            markov_trace(full_twist_image(n, field))
            assert len(folds) == expected


def whole_trace(b, field=FIELD):
    """The trace of the braid's whole Hecke image, without factoring."""
    return markov_trace(from_braid_word(b, HeckeContext(b.strands, field)))


def _shifted(word, j):
    return [l + j if l > 0 else l - j for l in word]


def _letters(rng, strands, length):
    return list(random_word(rng, strands, length).letters)


def _factoring_words(seed, count=70):
    """Words on 1-7 strands whose closures split or cut: an unused index, a
    letter used once, stabilizations of both signs, pairs i, -i cancelling
    across the wrap-around, and connected sums with interleaved factors."""
    rng = random.Random(seed)
    words = []
    for t in range(count):
        n = 1 + t % 7
        kind = t // 7 % 5
        if n == 1:
            words.append(BraidWord(1))
            continue
        if kind == 0:  # an unused index
            j = rng.randrange(1, n)
            words.append(BraidWord(n, [l for l in _letters(rng, n, 7) if abs(l) != j]))
        elif kind == 1:  # one letter used once
            j = rng.randrange(1, n)
            rest = [l for l in _letters(rng, n, 6) if abs(l) != j]
            rest.insert(rng.randrange(len(rest) + 1), rng.choice((j, -j)))
            words.append(BraidWord(n, rest))
        elif kind == 2:  # a stabilization
            b = random_word(rng, n - 1, rng.randrange(0, 6))
            words.append(stabilize(b, rng.choice((1, -1))))
        elif kind == 3:  # i ... -i, and i, -i inside
            i = rng.randrange(1, n)
            middle = _letters(rng, n, 4)
            k = rng.randrange(len(middle) + 1)
            middle[k:k] = [i, -i]
            words.append(BraidWord(n, [-i] + middle + [i]))
        else:  # a connected sum x # y, its factors interleaved
            j = rng.randrange(1, n)
            x = _letters(rng, j, 3)
            y = _shifted(_letters(rng, n - j, 3), j)
            merged = []
            while x or y:
                merged.append((x if x and (not y or rng.random() < 0.5) else y).pop(0))
            merged.insert(rng.randrange(len(merged) + 1), rng.choice((j, -j)))
            words.append(BraidWord(n, merged))
    return words


def _x_context():
    """Q(x) at (x + 1, x): q1 is no signed monomial, so braid words fold over
    ``RationalFunction`` scalars, not packed ints."""
    x_field = RationalFunctionField(("x",))
    x = x_field.variable("x")
    return FieldContext(x_field, x + 1, x)


FACTOR_CONTEXTS = REFERENCE_CONTEXTS[:2] + [
    pytest.param(generic_one_parameter_context(), id="Q(q)"),
    pytest.param(_x_context(), id="Q(x) at (x+1,x)"),
] + REFERENCE_CONTEXTS[2:] + [
    pytest.param(FieldContext(Rationals(), Fraction(2, 3), 5), id="Q at (2/3,5)"),
    pytest.param(FieldContext(PrimeField(7), 3, 2), id="F7 at (3,2)"),
]


def _closure_factors_reference(strands, letters):
    """``_closure_factors`` without its early exit on one strand."""
    word = _cyclically_reduced(letters)
    uses = [0] * strands
    for letter in word:
        uses[abs(letter)] += 1
    j = min(range(1, strands), key=uses.__getitem__, default=None)
    if j is None or uses[j] > 1:
        return 0, [(strands, word)]
    if uses[j]:
        i = next(i for i, letter in enumerate(word) if abs(letter) == j)
        word = word[i + 1 :] + word[:i]
    below = [a for a in word if abs(a) < j]
    above = [a - j if a > 0 else a + j for a in word if abs(a) > j]
    kx, x = _closure_factors_reference(j, below)
    ky, y = _closure_factors_reference(strands - j, above)
    return (not uses[j]) + kx + ky, x + y


class TestFactoredTrace:
    @pytest.mark.parametrize("field", FACTOR_CONTEXTS)
    def test_matches_whole_braid_trace(self, field):
        for b in _factoring_words(30):
            got, whole = trace_of_braid(b, field), whole_trace(b, field)
            assert got == whole
            assert render_scalar(got) == render_scalar(whole)

    def test_random_words_match_whole_braid_trace(self):
        for context in FACTOR_CONTEXTS:
            (field,) = context.values
            rng = random.Random(31)
            for _ in range(40):
                b = random_word(rng, rng.randrange(1, 8), rng.randrange(0, 9))
                assert trace_of_braid(b, field) == whole_trace(b, field), context.id

    def test_words_exercise_every_rule(self):
        unused = once = wrapped = split = 0
        for b in _factoring_words(30):
            word = _cyclically_reduced(b.letters)
            uses = [sum(abs(l) == j for l in word) for j in range(1, b.strands)]
            unused += 0 in uses
            once += 1 in uses
            wrapped += bool(b.letters) and b.letters[0] == -b.letters[-1]
            split += _closure_factors(b.strands, b.letters)[0] > 0
        assert min(unused, once, wrapped, split) >= 5

    def test_closure_factors_match_the_reference_without_early_exit(self):
        rng = random.Random(38)
        one_strand = 0
        for _ in range(300):
            b = random_word(rng, rng.randrange(1, 9), rng.randrange(0, 12))
            got = _closure_factors(b.strands, b.letters)
            assert got == _closure_factors_reference(b.strands, b.letters)
            one_strand += any(m == 1 for m, _ in got[1])
        assert one_strand >= 100

    @pytest.mark.parametrize("field", FACTOR_CONTEXTS)
    def test_division_by_the_zeroth_power_returns_the_value(self, field):
        for b in _factoring_words(32, count=10):
            x = trace_of_braid(b, field)
            for base in (field.q_sum, field.q_prod, x):
                assert divide_by_power(x, base, 0) is x

    def test_cyclic_reduction(self):
        assert _cyclically_reduced([2, 1, -1, 3, 2, -3, -2]) == [2]
        assert _cyclically_reduced([1, -2, 2, -1]) == []
        assert _cyclically_reduced([1, 2, -1]) == [2]
        assert _cyclically_reduced([1, 2, -1, 2]) == [1, 2, -1, 2]
        assert _cyclically_reduced([-1, 2, 1, 2, 1]) == [2, 1, 2]

    def test_short_word_on_many_strands_traces_two_strands(self):
        # 28 split unions, cuts at -2 and at 3, and sigma_1^2 on 2 strands
        k, pieces = _closure_factors(32, [1, -2, 3, 1])
        assert k == 28
        assert [piece for piece in pieces if piece[0] > 1] == [(2, [1, 1])]
        assert sum(m for m, _ in pieces) == 32

    def test_unit_check_comes_before_factoring(self):
        symmetric = FieldContext(Rationals(), 1, -1)
        with pytest.raises(CoefficientError) as expected:
            markov_trace(HeckeContext(1, symmetric).identity())
        for b in (BraidWord(1), BraidWord(4, [1, -2, 3])):
            assert all(m == 1 for m, _ in _closure_factors(b.strands, b.letters)[1])
            with pytest.raises(CoefficientError) as err:
                trace_of_braid(b, symmetric)
            assert str(err.value) == str(expected.value)


class TestWholeBraidMarkovAxioms:
    """The Markov axioms and the split and cut rules on unfactored images."""

    def test_strand_addition(self):
        rng = random.Random(32)
        one_plus = FIELD.field.one() + FIELD.q_prod
        for _ in range(20):
            n = rng.randrange(1, 5)
            b = random_word(rng, n, rng.randrange(0, 7))
            lhs = one_plus * whole_trace(b)
            assert lhs == FIELD.q_sum * whole_trace(BraidWord(n + 1, b.letters))

    def test_stabilization_both_signs(self):
        rng = random.Random(33)
        for _ in range(20):
            b = random_word(rng, rng.randrange(1, 5), rng.randrange(0, 7))
            tr = whole_trace(b)
            assert whole_trace(stabilize(b, +1)) == tr
            assert whole_trace(stabilize(b, -1)) == tr

    def test_conjugation_invariance(self):
        rng = random.Random(34)
        for _ in range(20):
            n = rng.randrange(2, 5)
            b = random_word(rng, n, rng.randrange(0, 6))
            assert whole_trace(conjugate(b, random_word(rng, n, 3))) == whole_trace(b)

    def test_b_lambda_traces(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert whole_trace(b_lambda(lam)) == DELTA ** (lam.k - 1)

    def test_split_union_and_connected_sum(self):
        # tr(x split y) = delta tr(x) tr(y) and tr(x # y) = tr(x) tr(y)
        rng = random.Random(35)
        for _ in range(20):
            j, m = rng.randrange(1, 4), rng.randrange(1, 4)
            x, y = random_word(rng, j, 4), random_word(rng, m, 4)
            letters = list(x.letters) + _shifted(y.letters, j)
            product = whole_trace(x) * whole_trace(y)
            assert whole_trace(BraidWord(j + m, letters)) == DELTA * product
            for sign in (1, -1):
                cut = BraidWord(j + m, letters + [sign * j])
                assert whole_trace(cut) == product


# a mixed-sign word on 9 strands, folded on permutations like every closure
# on more than 5 strands
NINE_STRAND_WORD = [1, -2, 3, -4, 5, -6, 7, -8, 1, 2, -3, 4, -5, 6, -7, 8]


def _field_closure(b):
    """sum_w c_w f_w over Q(q) at (-1, q), term by term, from the image of b
    and the class polynomials computed over that field."""
    field = generic_one_parameter_context()
    memo, totals = {}, {}
    for w, c in from_braid_word(b, HeckeContext(b.strands, field)).terms.items():
        for lam, f in _class_polynomial(w, field, memo, hecke.PERMUTATION_KEYS).items():
            hecke._add_term(totals, lam, c * f)
    return totals


class TestDecomposeClosure:
    def test_basis_braids_are_unit_vectors(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                dec = decompose_closure(b_lambda(lam))
                one = next(iter(dec.coefficients.values()))
                assert dec.coefficients == {lam: one}
                assert one == 1

    def test_one_shape_on_64_strands_lists_no_partitions(self, monkeypatch):
        # p(64) = 1,741,630 partitions, none of which the answer needs
        def refuse(n):
            raise AssertionError(f"partitions_of({n}) was called")

        monkeypatch.setattr(trace, "partitions_of", refuse)
        dec = decompose_closure(BraidWord(64, [1, 2]))
        lam = Partition((3,) + (1,) * 61)
        assert dec.render() == f"{lam.render()}: 1"
        assert dec.to_json() == {lam.render(): "1"}

    def test_shift_lengths_come_from_ascents(self, monkeypatch):
        # each key whose class polynomial is computed has its length counted
        # at most once, on either kind of key; its shifts' lengths come from
        # ascent tests.  Closures on 5 strands take rank keys, on 6
        # permutations.
        calls, entered = [], set()
        counted_length = Permutation.length
        explore = trace._class_polynomial

        def length(w):
            calls.append(w)
            return counted_length(w)

        def recording(w, *args):
            entered.add(w)
            return explore(w, *args)

        monkeypatch.setattr(Permutation, "length", length)
        monkeypatch.setattr(trace, "_class_polynomial", recording)
        for n, key_type in ((5, int), (6, Permutation)):
            calls.clear()
            entered.clear()
            decompose_closure(BraidWord(n, [1, 2, 3, 4, 3, 2, 1, -2, 3, -4, 1, 2, 3, 4, 2]))
            assert entered and all(type(w) is key_type for w in entered)
            assert len(calls) <= len(entered)

    def test_only_closures_on_up_to_five_strands_build_rank_keys(self, monkeypatch):
        # the rank tables cost 5-460 ms on 6-8 strands, more than a short
        # word saves, so a closure there keeps permutation keys
        built, rank_keys = [], hecke._rank_keys
        monkeypatch.setattr(hecke, "_rank_keys", lambda n: built.append(n) or rank_keys(n))
        for n in range(2, 10):
            decompose_closure(BraidWord(n, [1]))
        assert built == [2, 3, 4, 5]

    def test_items_come_in_partitions_of_order(self):
        shapes = partitions_of(6)
        shuffled = random.Random(36).sample(shapes, len(shapes))
        assert shuffled != shapes
        dec = ClosureDecomposition(6, {lam: k + 1 for k, lam in enumerate(shuffled)})
        assert [lam for lam, _ in dec.items()] == shapes

    def test_hand_solved_two_strand_square(self):
        # characters of H_2 at (-1, q): chi_(2)(T_1) = q, chi_(1,1)(T_1) = -1;
        # T_1^2 = (q-1) T_1 + q gives the 2x2 system with solution
        # c_(2) = q-1, c_(1,1) = q.
        dec = decompose_closure(BraidWord(2, [1, 1]))
        items = {lam.parts: c for lam, c in dec.items()}
        from heckelink.specht import SpechtContext

        q = SpechtContext.generic(2).q
        assert items == {(2,): q - 1, (1, 1): q}

    def test_conjugation_invariance(self):
        rng = random.Random(24)
        for _ in range(15):
            n = rng.randrange(2, 5)
            b = random_word(rng, n, rng.randrange(0, 5))
            a = random_word(rng, n, 3)
            assert decompose_closure(conjugate(b, a)).coefficients == decompose_closure(
                b
            ).coefficients

    def test_class_polynomials_are_conjugation_invariant(self):
        # sum c_w f_w over images that are not cyclically reduced, term by
        # term over Q(q): it agrees for b and a b a^{-1}, and with the
        # packed-int totals of decompose_closure
        rng = random.Random(30)
        for _ in range(15):
            n = rng.randrange(2, 6)
            b = random_word(rng, n, rng.randrange(0, 6))
            a = random_word(rng, n, rng.randrange(1, 4))
            assert _field_closure(conjugate(b, a)) == _field_closure(b)
            assert decompose_closure(b).coefficients == _field_closure(b)

    def test_packed_route_equals_the_field_route(self):
        # decompose_closure sums c_w f_w on packed ints and decodes once per
        # partition; the field route sums the same products over Q(q) on
        # permutation keys
        rng = random.Random(37)
        braids = [
            BraidWord(n, [rng.randrange(1, n) for _ in range(rng.randrange(20, 41))])
            for n in (2, 2, 3, 3, 3)
        ]
        braids += [BraidWord(n, list(range(1, n)) * n) for n in (4, 5, 6)]
        braids += [
            BraidWord(n, [-rng.randrange(1, n) for _ in range(rng.randrange(6, 11))])
            for n in (5, 6)
        ]
        braids += [random_word(rng, n, rng.randrange(6, 11)) for n in (5, 5, 6, 6)]
        braids += [BraidWord(3, []), BraidWord(3, [1, 2, -2, 1, -1, -1])]
        # signed words on 2-8 strands, folded and explored on rank keys up
        # to 5 strands and on permutations above, and one on 9 strands; the
        # field route keeps permutations
        braids += [random_word(rng, n, rng.randrange(4, 11)) for n in range(2, 9) for _ in (0, 1)]
        braids.append(BraidWord(9, NINE_STRAND_WORD))
        for b in braids:
            assert decompose_closure(b).coefficients == _field_closure(b), b

    def test_per_class_sums_equal_the_term_by_term_sum(self, monkeypatch):
        # the packed totals before decoding: the c_w summed per class, then
        # multiplied by the class polynomial, equal sum_w c_w f_w term by
        # term, folded and explored on permutation keys
        captured = []
        unpack = hecke._unpack

        def capture(terms, field, packed, letters):
            captured.append((dict(terms), packed))
            return unpack(terms, field, packed, letters)

        monkeypatch.setattr(hecke, "_unpack", capture)
        rng = random.Random(39)
        braids = [random_word(rng, n, rng.randrange(4, 11)) for n in range(2, 9)]
        braids += [BraidWord(6, list(range(1, 6)) * 6), BraidWord(9, NINE_STRAND_WORD)]
        for b in braids:
            captured.clear()
            decompose_closure(b)
            ((totals, packed),) = captured
            terms = {Permutation.identity(b.strands): packed.one()}
            for letter in _cyclically_reduced(b.letters):
                terms = hecke.fold_letter(terms, letter, packed)
            memo, expected = {}, {}
            for w, c in terms.items():
                for lam, f in _class_polynomial(w, packed, memo, hecke.PERMUTATION_KEYS).items():
                    hecke._add_term(expected, lam, c * f)
            assert totals == expected, b

    def test_budget_counts_each_permutation_once(self, monkeypatch):
        # S_7 has 7! elements, so a budget of 7! holds every closure on 7
        # strands once no permutation is counted twice
        full_twist = BraidWord(7, list(range(1, 7)) * 7)
        expected = decompose_closure(full_twist)
        monkeypatch.setattr(hecke, "MAX_SUPPORT", math.factorial(7))
        assert decompose_closure(full_twist) == expected

    def test_folds_the_cyclically_reduced_word(self, monkeypatch):
        # a class function: conjugation and free cancellation are dropped
        # before the fold, which sees only the cyclically reduced word
        folded, fold = [], hecke.fold_letter

        def recording(terms, letter, *args, **kwargs):
            folded.append(letter)
            return fold(terms, letter, *args, **kwargs)

        monkeypatch.setattr(hecke, "fold_letter", recording)
        for letters, reduced in (([2, 1, 3, 1, -2], (1, 3, 1)), ([1, 2, -2, 3], (1, 3))):
            folded.clear()
            dec = decompose_closure(BraidWord(4, letters))
            assert tuple(folded) == reduced
            assert dec == decompose_closure(BraidWord(4, list(reduced)))

    def test_recombination_matches_direct_trace(self):
        # over the one-parameter field delta = (1-q)/(q-1) = -1
        from heckelink.specht import SpechtContext

        rng = random.Random(25)
        braids = [
            random_word(rng, rng.randrange(2, 5), rng.randrange(0, 5)) for _ in range(10)
        ]
        braids += [random_word(rng, n, rng.randrange(0, 9)) for n in (1, 5, 6, 7, 7)]
        for b in braids:
            dec = decompose_closure(b)
            sctx = SpechtContext.generic(b.strands)
            field = sctx.field_context.field
            total = field.zero()
            for lam, c in dec.items():
                total = total + c * field.from_int(-1) ** (lam.k - 1)
            assert total == trace_of_braid(b, sctx.field_context)

    def test_class_polynomials_give_the_generic_trace(self):
        # A second route to the trace over Q(q1, q2), sharing only the fold:
        # T_{w_lambda} traces to delta^(k(lambda)-1).
        rng = random.Random(28)
        for k in range(40):
            n = 1 + k % 7
            image = from_braid_word(
                random_word(rng, n, rng.randrange(0, 10)), HeckeContext(n, FIELD)
            )
            memo = {}
            total = FIELD.field.zero()
            for w, c in image.terms.items():
                for lam, f in _class_polynomial(w, FIELD, memo, hecke.PERMUTATION_KEYS).items():
                    total = total + c * f * DELTA ** (lam.k - 1)
            assert total == markov_trace(image)

    def test_character_system(self):
        # chi_mu(b) = sum_lambda c_lambda chi_mu(b_lambda) for every cell
        # module; the character matrix is invertible, so this pins the
        # coefficients.
        from heckelink.specht import SpechtContext, specht_module

        def chi(module, braid, sctx):
            total = sctx.field_context.field.zero()
            for w, c in from_braid_word(braid, sctx.hecke_context()).terms.items():
                total = total + c * module.character(w)
            return total

        rng = random.Random(29)
        for k in range(12):
            n = 2 + k % 4
            b = random_word(rng, n, rng.randrange(0, 7))
            sctx = SpechtContext.generic(n)
            dec = decompose_closure(b)
            for mu in partitions_of(n):
                module = specht_module(mu, sctx)
                expected = sctx.field_context.field.zero()
                for lam, c in dec.items():
                    expected = expected + c * chi(module, b_lambda(lam), sctx)
                assert chi(module, b, sctx) == expected

    def test_rendering(self):
        dec = ClosureDecomposition(2, {Partition((2,)): 1})
        assert dec.render() == "(2): 1"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: partitions_of(-1), "cannot partition -1"),
        (lambda: e_restricted(Partition((2, 1)), 1), "e must be >= 2"),
        (
            lambda: ClosureDecomposition(3, {Partition((2,)): 1}),
            "is not a partition of 3",
        ),
    ],
)
def test_typed_errors(build, message):
    with pytest.raises(PartitionError, match=message):
        build()
