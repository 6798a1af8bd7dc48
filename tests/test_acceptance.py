"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion (failures surface as ordinary assertion errors).  Every check is
seeded, so repeated runs are identical.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from heckelink.braid import (
    BraidWord,
    closure_components,
    conjugate,
    destabilize,
    random_word,
    stabilize,
)
from heckelink.cli import main as cli_main
from heckelink.coefficients import (
    FieldContext,
    PrimeField,
    Rationals,
    generic_field_context,
    quantum_e,
)
from heckelink.hecke import HeckeContext, from_braid_word, to_symmetric_group
from heckelink.invariants import homflypt, jones, jones_via_bracket
from heckelink.linalg import triangulate
from heckelink.oracles import sga_mul
from heckelink.specht import (
    SpechtContext,
    count_standard_tableaux,
    dim_D_lambda,
    ideal_I,
    specht_module,
)
from heckelink.trace import (
    b_lambda,
    decompose_closure,
    e_restricted,
    markov_trace,
    partitions_of,
    trace_of_braid,
)
from reference import m_lambda, reduce_element

GENERIC = generic_field_context()


def _report(number: int, description: str, started: float) -> None:
    print(f"PASS criterion {number} ({time.time() - started:.1f}s): {description}")


def test_criterion_01_basis_and_relations():
    started = time.time()
    rng = random.Random(101)
    for n in (2, 3, 4, 5):
        ctx = HeckeContext(n, GENERIC)
        for _ in range(500):
            u = random_word(rng, n, rng.randrange(0, 5))
            v = random_word(rng, n, rng.randrange(0, 5))
            # a random defining relation spliced between u and v
            kind = rng.randrange(3) if n >= 3 else rng.randrange(2)
            if kind == 0:
                j = rng.randrange(1, n)
                left, right = (j, -j), (-j, j)
            elif kind == 1 and n >= 3:
                j = rng.randrange(1, n - 1)
                left, right = (j, j + 1, j), (j + 1, j, j + 1)
            else:
                pairs = [
                    (i, j)
                    for i in range(1, n)
                    for j in range(i + 2, n)
                ]
                if pairs:
                    i, j = rng.choice(pairs)
                    left, right = (i, j), (j, i)
                else:
                    j = rng.randrange(1, n)
                    left, right = (j, -j), (-j, j)
            lhs = BraidWord(n, u.letters + left + v.letters)
            rhs = BraidWord(n, u.letters + right + v.letters)
            assert from_braid_word(lhs, ctx) == from_braid_word(rhs, ctx)
            # multiplicativity on the same pair
            assert from_braid_word(u.concat(v), ctx) == from_braid_word(
                u, ctx
            ) * from_braid_word(v, ctx)
        for _ in range(200):
            a = from_braid_word(random_word(rng, n, rng.randrange(0, 4)), ctx)
            b = from_braid_word(random_word(rng, n, rng.randrange(0, 4)), ctx)
            c = from_braid_word(random_word(rng, n, rng.randrange(0, 4)), ctx)
            assert (a * b) * c == a * (b * c)
    _report(1, "braid relations, multiplicativity, associativity (n <= 5)", started)


def test_criterion_02_symmetric_group_specialization():
    started = time.time()
    rng = random.Random(102)
    field = FieldContext(Rationals(), Fraction(1), Fraction(-1))
    for _ in range(500):
        n = rng.randrange(2, 6)
        ctx = HeckeContext(n, field)
        a = from_braid_word(random_word(rng, n, rng.randrange(0, 6)), ctx)
        b = from_braid_word(random_word(rng, n, rng.randrange(0, 6)), ctx)
        assert to_symmetric_group(a * b) == sga_mul(
            to_symmetric_group(a), to_symmetric_group(b)
        )
    _report(2, "Hecke product matches the symmetric-group oracle at (1,-1)", started)


def test_criterion_03_markov_trace_axioms():
    started = time.time()
    rng = random.Random(103)
    for _ in range(500):
        n = rng.randrange(2, 6)
        ctx = HeckeContext(n, GENERIC)
        a = from_braid_word(random_word(rng, n, rng.randrange(0, 5)), ctx)
        b = from_braid_word(random_word(rng, n, rng.randrange(0, 5)), ctx)
        assert markov_trace(a * b) == markov_trace(b * a)
    one_plus = GENERIC.field.one() + GENERIC.q_prod
    for _ in range(200):
        n = rng.randrange(1, 6)
        b = random_word(rng, n, rng.randrange(0, 7))
        assert one_plus * trace_of_braid(b) == GENERIC.q_sum * trace_of_braid(
            BraidWord(n + 1, b.letters)
        )
    for _ in range(200):
        n = rng.randrange(1, 6)
        b = random_word(rng, n, rng.randrange(0, 7))
        assert trace_of_braid(stabilize(b, +1)) == trace_of_braid(b)
    for _ in range(200):
        n = rng.randrange(1, 6)
        b = random_word(rng, n, rng.randrange(0, 7))
        assert trace_of_braid(stabilize(b, -1)) == trace_of_braid(b)
    _report(3, "trace commutativity, strand addition, both stabilizations", started)


def test_criterion_04_partition_braid_traces():
    started = time.time()
    delta = GENERIC.delta()
    count = 0
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert trace_of_braid(b_lambda(lam)) == delta ** (lam.k - 1)
            count += 1
    assert count == sum(len(partitions_of(n)) for n in range(1, 8))
    _report(4, f"trace of the {count} partition braids equals delta^(k-1), n <= 7", started)


def test_criterion_05_jones_cross_validation():
    started = time.time()
    assert jones(BraidWord(2, [1, 1, 1])).render() == "-t^4+t^3+t"
    for length in range(0, 7):
        for signs in itertools.product((1, -1), repeat=length):
            b = BraidWord(2, signs)
            assert jones(b) == jones_via_bracket(b)
    rng = random.Random(105)
    for _ in range(300):
        b = random_word(rng, rng.randrange(2, 5), rng.randrange(0, 11))
        j = jones(b)
        assert j == jones_via_bracket(b)
        k = closure_components(b)
        assert all(e[0] % 2 == (k - 1) % 2 for e in j.spoly.terms)
        if k == 1:
            assert j.in_t() is not None
    _report(5, "Jones agrees with the state-sum oracle bit for bit", started)


def _random_move_sequence(rng, b: BraidWord, moves: int, max_strands: int) -> BraidWord:
    current = b
    for _ in range(moves):
        choice = rng.randrange(4)
        if choice == 0 and current.strands >= 2:
            current = conjugate(current, random_word(rng, current.strands, rng.randrange(1, 3)))
        elif choice == 1 and current.strands < max_strands:
            current = stabilize(current, +1)
        elif choice == 2 and current.strands < max_strands:
            current = stabilize(current, -1)
        else:
            try:
                current = destabilize(current)
            except Exception:
                if current.strands < max_strands:
                    current = stabilize(current, rng.choice((1, -1)))
    return current


def test_criterion_06_markov_move_invariance():
    started = time.time()
    rng = random.Random(106)
    for _ in range(100):
        n = rng.randrange(2, 4)
        b = random_word(rng, n, rng.randrange(0, 5))
        h0 = homflypt(b)
        j0 = jones(b)
        moved = _random_move_sequence(rng, b, 20, max_strands=n + 4)
        assert homflypt(moved) == h0
        assert jones(moved) == j0
    _report(6, "invariants unchanged under 100 x 20 random Markov moves", started)


def test_criterion_07_v_basis_witness():
    started = time.time()
    for n in (2, 3, 4, 5):
        sctx = SpechtContext.generic(n)
        parts = partitions_of(n)
        modules = [specht_module(lam, sctx) for lam in parts]
        ctx = sctx.hecke_context()
        images = [from_braid_word(b_lambda(lam), ctx) for lam in parts]
        field = sctx.field_context.field
        matrix = []
        for module in modules:
            row = []
            for img in images:
                total = field.zero()
                for w, c in img.terms.items():
                    total = total + c * module.character(w)
                row.append(total)
            matrix.append(row)
        assert triangulate(matrix, field.zero(), field.one())[0] != 0
        for lam in parts:
            dec = decompose_closure(b_lambda(lam))
            assert set(dec.coefficients) == {lam}
            assert dec.coefficient(lam) == 1
    rng = random.Random(107)
    for _ in range(100):
        n = rng.randrange(2, 5)
        b = random_word(rng, n, rng.randrange(0, 5))
        a = random_word(rng, n, rng.randrange(1, 4))
        assert decompose_closure(conjugate(b, a)).coefficients == decompose_closure(
            b
        ).coefficients
    _report(7, "character matrix invertible; decompositions conjugation-fixed", started)


def test_criterion_08_specht_dimensions():
    started = time.time()
    for n in (2, 3, 4, 5):
        sctx = SpechtContext.generic(n)
        square_sum = 0
        for lam in partitions_of(n):
            module = specht_module(lam, sctx)
            expected = count_standard_tableaux(lam)
            assert module.dimension == expected
            assert module.gram_rank() == expected
            square_sum += expected * expected
        assert square_sum == math.factorial(n)
    _report(8, "cell dimensions match tableaux counts; generic Gram ranks full", started)


def test_criterion_09_murphy_proportionality():
    started = time.time()
    rng = random.Random(109)
    checks = 0
    for _ in range(100):
        n = rng.randrange(2, 5)
        sctx = SpechtContext.generic(n)
        lam = rng.choice(partitions_of(n))
        imgs = list(range(1, n + 1))
        rng.shuffle(imgs)
        from heckelink.braid import Permutation

        w = Permutation(imgs)
        ctx = sctx.hecke_context()
        m = m_lambda(lam, sctx)
        sandwich = m * ctx.basis_element(w) * m
        ideal = ideal_I(lam, sctx)
        reduced = reduce_element(ideal, sctx, sandwich)
        m_bar = reduce_element(ideal, sctx, m)
        # proportionality: reduced == r * m_bar for the scalar at the pivot
        if m_bar.is_zero():
            assert reduced.is_zero()
        else:
            pivot = m_bar.support()[0]
            ratio = reduced.coefficient(pivot) / m_bar.coefficient(pivot)
            assert reduced == m_bar.scalar_mul(ratio)
        checks += 1
    assert checks == 100
    _report(9, "m T_w m stays proportional to m modulo the ideal (100 samples)", started)


def test_criterion_10_e_restricted_theorem():
    started = time.time()
    targets = ((3, 2, 2), (7, 2, 3), (5, 2, 4))
    for p, qv, expected_e in targets:
        field = PrimeField(p)
        e = quantum_e(field.from_int(qv))
        assert e == expected_e
        for n in (2, 3, 4, 5):
            sctx = SpechtContext.at_value(n, field, qv)
            for lam in partitions_of(n):
                positive = dim_D_lambda(lam, sctx) > 0
                assert positive == e_restricted(lam, e), (p, qv, lam.parts)
    _report(10, "head nonvanishing matches e-restriction for e in {2,3,4}", started)


def test_criterion_11_cli_contract(capsys):
    started = time.time()
    cases = [
        (["reduce", "--strands", "2", "1 1"], 0, "(q1+q2)*T[2,1] + (-q1*q2)*T[1,2]\n"),
        (["reduce", "--strands", "2", "1 -1"], 0, "T[1,2]\n"),
        (["jones", "--strands", "2", "1 1 1"], 0, "-t^4+t^3+t\n"),
        (["jones", "--strands", "1", ""], 0, "1\n"),
        (
            ["homfly", "--strands", "2", "1 1"],
            0,
            "-q1^2*q2^2+q1^2+q1*q2+q2^2 / q1+q2\n",
        ),
        (["decompose", "--strands", "3", "2 1"], 0, "(3): 1\n"),
        (["decompose", "--strands", "2", "1 1"], 0, "(2): q-1\n(1,1): q\n"),
        (
            ["specht", "--n", "3"],
            0,
            "partition\tdim_S\tdim_D\tgram_det\n"
            "(3)\t1\t1\tq^3+2*q^2+2*q+1\n"
            "(2,1)\t2\t2\tq^3+q^2+q\n"
            "(1,1,1)\t1\t1\t1\n",
        ),
        (
            ["specht", "--n", "2", "--field", "Fp", "--p", "3", "--q", "2"],
            0,
            "partition\tdim_S\tdim_D\tgram_det\n(2)\t1\t0\t0\n(1,1)\t1\t1\t1\n",
        ),
        (["specht", "--n", "0"], 0, "partition\tdim_S\tdim_D\tgram_det\n"),
        (
            ["specht", "--n", "5", "--field", "fp", "--p", "3", "--q", "2"],
            0,
            "partition\tdim_S\tdim_D\tgram_det\n"
            "(5)\t1\t0\t0\n"
            "(4,1)\t4\t0\t0\n"
            "(3,2)\t5\t0\t0\n"
            "(3,1,1)\t6\t0\t0\n"
            "(2,2,1)\t5\t5\t1\n"
            "(2,1,1,1)\t4\t4\t1\n"
            "(1,1,1,1,1)\t1\t1\t1\n",
        ),
        (
            ["specht", "--n", "5", "--field", "rationals", "--q", "-1"],
            0,
            "partition\tdim_S\tdim_D\tgram_det\n"
            "(5)\t1\t0\t0\n"
            "(4,1)\t4\t0\t0\n"
            "(3,2)\t5\t0\t0\n"
            "(3,1,1)\t6\t0\t0\n"
            "(2,2,1)\t5\t5\t-2\n"
            "(2,1,1,1)\t4\t4\t1\n"
            "(1,1,1,1,1)\t1\t1\t1\n",
        ),
        (
            # non-integral Gram determinants: echelon rows over Q with row
            # scales other than one
            ["specht", "--n", "5", "--field", "rationals", "--q", "1/2"],
            0,
            "partition\tdim_S\tdim_D\tgram_det\n"
            "(5)\t1\t1\t9765/1024\n"
            "(4,1)\t4\t4\t5793783471/1073741824\n"
            "(3,2)\t5\t5\t258339375/4294967296\n"
            "(3,1,1)\t6\t6\t21717639/1073741824\n"
            "(2,2,1)\t5\t5\t12005/8388608\n"
            "(2,1,1,1)\t4\t4\t31/1024\n"
            "(1,1,1,1,1)\t1\t1\t1\n",
        ),
    ]
    for argv, expected_code, expected_out in cases:
        for _ in range(2):  # byte-identical repeats
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == expected_code, argv
            assert out == expected_out, argv
    # error-path exit codes
    assert cli_main(["reduce", "--strands", "2", "3"]) == 2
    capsys.readouterr()
    assert (
        cli_main(["decompose", "--strands", "2", "--field", "fp", "--p", "3", "--q", "2", "1 1"])
        == 3
    )
    capsys.readouterr()
    assert cli_main(["verify", "--quick"]) == 0
    capsys.readouterr()
    assert cli_main(["verify", "--exhaustive", "--n", "3", "--max-len", "4"]) == 0
    capsys.readouterr()
    assert cli_main(["verify", "--exhaustive", "--n", "2", "--max-len", "4", "--inject-fault"]) == 4
    capsys.readouterr()
    _report(11, "golden CLI outputs reproduced byte for byte", started)
