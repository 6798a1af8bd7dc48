"""Exact linear algebra: echelon bases and one-pass triangulation, with ranks,
kernels and determinants read off them."""

import random
from fractions import Fraction

import pytest

from heckelink.coefficients import (
    ContextMismatchError,
    PrimeField,
    RationalFunctionField,
    Rationals,
    render_scalar,
)
from heckelink.linalg import EchelonBasis, LinearAlgebraError, triangulate
from reference import cofactor, kernel_basis, matrix_rank

Q = Rationals()
QQ = RationalFunctionField(("q",))


def fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


def vec(*entries):
    """A vector over Q as an echelon basis takes it: a dict of its nonzero
    entries."""
    return {j: Fraction(x) for j, x in enumerate(entries) if x}


class TestEchelonBasis:
    def test_insert_and_reduce(self):
        eb = EchelonBasis(3, Fraction(0), Fraction(1))
        assert eb.insert(vec(2, 0, 2)) is not None
        assert eb.insert(vec(0, 1, 1)) is not None
        assert eb.insert(vec(2, 1, 3)) is None  # dependent
        assert len(eb) == 2
        assert eb.pivots == [0, 1]
        # rows are normalized and mutually reduced
        assert eb.sparse_rows() == [vec(1, 0, 1), vec(0, 1, 1)]
        assert eb.reduce(vec(2, 1, 3)) == {}
        assert eb.reduce(vec(0, 0, 4)) == vec(0, 0, 4)

    def test_coordinates(self):
        eb = EchelonBasis(3, Fraction(0), Fraction(1))
        eb.insert(vec(1, 0, 1))
        eb.insert(vec(0, 1, 1))
        coords = eb.coordinates(vec(2, 3, 5))
        assert coords == [Fraction(2), Fraction(3)]
        assert eb.coordinates(vec(0, 3, 3)) == [Fraction(0), Fraction(3)]
        assert eb.coordinates(vec(0, 0, 1)) is None

    def test_contains(self):
        eb = EchelonBasis(2, Fraction(0), Fraction(1))
        eb.insert(vec(1, 1))
        assert eb.coordinates(vec(3, 3)) is not None
        assert eb.coordinates(vec(1, 0)) is None

    def test_coordinates_modulo_a_basis_with_row_scales(self):
        # the ideal's rows are stored as primitive integer rows with scales
        # 3 and 5, so the remainder carries their lcm into the denominator
        ideal = EchelonBasis(4, Fraction(0), Fraction(1))
        ideal.insert({0: Fraction(1), 3: Fraction(2, 3)})
        ideal.insert({1: Fraction(1), 2: Fraction(2, 5)})
        assert sorted(ideal._scales.values()) == [3, 5]
        quotient = EchelonBasis(4, Fraction(0), Fraction(1))
        quotient.insert({2: Fraction(1), 3: Fraction(1, 7)})
        rows = [vec(1, 0, 0, Fraction(2, 3)), vec(0, 1, Fraction(2, 5), 0)]
        for c in (Fraction(4), Fraction(1, 3), Fraction(0)):
            v = {j: 2 * rows[0].get(j, 0) - 3 * rows[1].get(j, 0) for j in range(4)}
            v[2] += c
            v[3] += c / 7
            assert quotient.coordinates(v, ideal) == [c]
            assert quotient.coordinates(ideal.reduce(v)) == [c]
            v[3] += 1
            assert quotient.coordinates(v, ideal) is None
        assert quotient.coordinates(rows[1], ideal) == [Fraction(0)]

    def test_coordinates_modulo_another_space_refused(self):
        f3, f5 = PrimeField(3), PrimeField(5)
        eb = EchelonBasis(2, Fraction(0), Fraction(1))
        with pytest.raises(LinearAlgebraError):
            eb.coordinates(vec(1, 0), EchelonBasis(3, Fraction(0), Fraction(1)))
        for zero, one in [(f3.zero(), f3.one()), (QQ.zero(), QQ.one())]:
            with pytest.raises(ContextMismatchError):
                eb.coordinates(vec(1, 0), EchelonBasis(2, zero, one))
        e3 = EchelonBasis(2, f3.zero(), f3.one())
        with pytest.raises(ContextMismatchError):
            e3.coordinates({0: f3.one()}, EchelonBasis(2, f5.zero(), f5.one()))

    def test_mixed_characteristics_refused(self):
        f3, f5 = PrimeField(3), PrimeField(5)
        eb = EchelonBasis(2, f3.zero(), f3.one())
        with pytest.raises(ContextMismatchError):
            eb.insert({0: f5.one()})


class TestSolveAndDeterminant:
    def test_non_square_rejected(self):
        with pytest.raises(LinearAlgebraError):
            triangulate(fr([[1, 2]]), Fraction(0), Fraction(1))

    def test_determinant_matches_cofactor_oracle(self):
        rng = random.Random(60)
        for _ in range(20):
            n = rng.randrange(1, 5)
            m = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
            assert triangulate(m, Fraction(0), Fraction(1))[0] == cofactor(m, Fraction(0))

    def test_determinant_with_pivots_out_of_column_order(self):
        # Shuffled rows of an upper-triangular matrix: row k leads in column
        # order[k], so the pivots arrive in that order and the sign of the
        # shuffle must come out of the elimination.
        f7 = PrimeField(7)
        rng = random.Random(62)
        shuffled = 0
        for _ in range(40):
            n = rng.randrange(2, 6)
            upper = [
                [f7.from_int(rng.randrange(1 if c == r else 0, 7) if c >= r else 0)
                 for c in range(n)]
                for r in range(n)
            ]
            if rng.random() < 0.2:
                k = rng.randrange(n)
                upper[k][k] = f7.zero()
            order = list(range(n))
            rng.shuffle(order)
            shuffled += order != sorted(order)
            m = [upper[k] for k in order]
            assert triangulate(m, f7.zero(), f7.one())[0] == cofactor(m, f7.zero())
        assert shuffled > 20

    def test_determinant_over_function_field(self):
        q = QQ.variable("q")
        m = [[q, QQ.one()], [QQ.one(), q]]
        assert triangulate(m, QQ.zero(), QQ.one())[0] == q * q - 1


class TestRank:
    def test_rank_rational(self):
        m = fr([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert matrix_rank(m, Q) == 2

    def test_rank_prime_field(self):
        f5 = PrimeField(5)
        m = [[f5.from_int(a) for a in row] for row in [[1, 2], [3, 6]]]
        # second row is 3x the first mod 5
        assert matrix_rank(m, f5) == 1

    def test_rational_function_rank_matches_specializations(self):
        rng = random.Random(61)
        for _ in range(15):
            n = rng.randrange(1, 4)
            rows = []
            for _ in range(n):
                rows.append(
                    [
                        QQ.parse(
                            f"{rng.randrange(-2, 3)}*q^{rng.randrange(0, 3)}"
                            if rng.random() < 0.8
                            else "0"
                        )
                        for _ in range(n)
                    ]
                )
            # duplicate a row sometimes to force rank drops
            if n > 1 and rng.random() < 0.5:
                rows[-1] = [x * QQ.variable("q") for x in rows[0]]
            rank = matrix_rank(rows, QQ)
            # oracle: generic rank >= rank at any sample point; equality at a
            # random point certifies the lower bound, minors the upper
            from heckelink.coefficients import specialize

            best = 0
            for sample in (Fraction(7), Fraction(11), Fraction(13, 2)):
                num = [
                    [specialize(x, {"q": sample}, Q) for x in row] for row in rows
                ]
                best = max(best, matrix_rank(num, Q))
            assert rank >= best
            assert rank <= n

    def test_known_rank_drop_only_at_special_point(self):
        one = QQ.one()
        qplus1 = QQ.parse("q+1")
        m = [[qplus1, one], [one * 0, qplus1]]
        assert matrix_rank(m, QQ) == 2

    def test_laurent_entries(self):
        qinv = QQ.parse("q^-1")
        m = [[qinv, QQ.one()], [QQ.one(), QQ.variable("q")]]
        # rows are proportional: q^-1 * (1, q) = (q^-1, 1)
        assert matrix_rank(m, QQ) == 1


class TestKernel:
    def test_kernel_dimension(self):
        m = fr([[1, 2, 3], [2, 4, 6]])
        basis = kernel_basis(m, Fraction(0), Fraction(1))
        assert len(basis) == 2
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0

    def test_full_rank_kernel_empty(self):
        m = fr([[1, 0], [0, 1]])
        assert kernel_basis(m, Fraction(0), Fraction(1)) == []

    def test_kernel_over_prime_field(self):
        f3 = PrimeField(3)
        m = [[f3.from_int(1), f3.from_int(2)], [f3.from_int(2), f3.from_int(1)]]
        # det = 1 - 4 = -3 = 0 mod 3, so the kernel is one-dimensional
        basis = kernel_basis(m, f3.zero(), f3.one())
        assert len(basis) == 1
        v = basis[0]
        for row in m:
            total = f3.zero()
            for a, b in zip(row, v):
                total = total + a * b
            assert not total


class TestAgainstSympy:
    """Exact rank and determinant over Q(q) against sympy's
    DomainMatrix, an elimination that shares no code with this package."""

    @pytest.fixture
    def sp(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def random_entry(rng):
        if rng.random() < 0.15:
            return "0"
        num = f"{rng.randrange(-3, 4)}*q^{rng.randrange(-1, 3)}+{rng.randrange(-2, 3)}"
        if rng.random() < 0.3:
            return f"{num} / q+{rng.randrange(1, 3)}"
        return num

    def random_matrix(self, rng, n):
        text = [[self.random_entry(rng) for _ in range(n)] for _ in range(n)]
        m = [[QQ.parse(t) for t in row] for row in text]
        if n > 1 and rng.random() < 0.4:
            # force a rank drop: the last row is a Q(q)-combination of others
            a, b = QQ.parse("q^2-1"), QQ.parse("1 / q+2")
            m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % (n - 1)])]
        return m

    @staticmethod
    def to_sympy(sp, x):
        num, sep, den = render_scalar(x).partition(" / ")
        expr = sp.sympify(num.replace("^", "**"))
        if sep:
            expr = expr / sp.sympify(den.replace("^", "**"))
        return expr

    def domain_matrix(self, sp, m):
        from sympy.polys.matrices import DomainMatrix

        rows = [[self.to_sympy(sp, x) for x in row] for row in m]
        return DomainMatrix.from_Matrix(sp.Matrix(rows)).to_field()

    def test_rank_and_determinant(self, sp):
        rng = random.Random(63)
        drops = 0
        for _ in range(40):
            n = rng.randrange(1, 5)
            m = self.random_matrix(rng, n)
            dm = self.domain_matrix(sp, m)
            rank = matrix_rank(m, QQ)
            assert rank == dm.rank()
            drops += rank < n
            det = triangulate(m, QQ.zero(), QQ.one())[0]
            expected = dm.det()
            assert sp.cancel(self.to_sympy(sp, det) - dm.domain.to_sympy(expected)) == 0
        assert drops > 5
