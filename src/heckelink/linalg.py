"""Exact linear algebra over the supported coefficient fields.

Vectors and matrices are plain Python lists of scalars.  Everything here
divides exactly and never touches floating point.  There is one elimination
routine, the reduced-row-echelon basis ``EchelonBasis``; ranks, kernels and
determinants insert the rows of their matrix into one and read the answer off
the echelon rows, on every field alike.
"""

from __future__ import annotations

from typing import Sequence


class LinearAlgebraError(ValueError):
    """Singular systems and malformed input."""


class EchelonBasis:
    """A growing reduced-row-echelon basis of a fixed-dimension vector space.

    Rows are kept fully reduced with pivot entries normalized to one and
    pivot columns strictly increasing, so membership testing and coordinate
    extraction are plain reduction sweeps.
    """

    def __init__(self, dimension: int, zero, one):
        self.dimension = dimension
        self.zero = zero
        self.one = one
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence) -> list:
        """Fully reduce a copy of ``vector`` against the basis."""
        v = list(vector)
        for pivot, row in zip(self.pivots, self.rows):
            c = v[pivot]
            if c:
                for j in range(pivot, self.dimension):
                    rj = row[j]
                    if rj:
                        v[j] = v[j] - c * rj
        return v

    def coordinates(self, vector: Sequence) -> list | None:
        """Coordinates of ``vector`` in the basis rows, or None if it is not
        in the span.

        Each row is the only one nonzero in its pivot column, where it holds
        one, so a vector in the span has its own pivot entries as coordinates.
        """
        if any(self.reduce(vector)):
            return None
        return [vector[pivot] or self.zero for pivot in self.pivots]

    def insert(self, vector: Sequence) -> list | None:
        """Reduce and insert; returns the stored normalized row when the span
        grew, None when the vector was already in the span."""
        v = self.reduce(vector)
        pivot = next((j for j, c in enumerate(v) if c), None)
        if pivot is None:
            return None
        lead = v[pivot]
        if lead != self.one:
            inv = self.one / lead
            v = [c * inv if c else c for c in v]
        # Back-substitute into the existing rows to keep the basis reduced.
        for row in self.rows:
            c = row[pivot]
            if c:
                for j in range(pivot, self.dimension):
                    vj = v[j]
                    if vj:
                        row[j] = row[j] - c * vj
        at = next(
            (k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots)
        )
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return v

    def contains(self, vector: Sequence) -> bool:
        return not any(self.reduce(vector))


def _echelon(rows: Sequence[Sequence], ncols: int, zero, one) -> EchelonBasis:
    basis = EchelonBasis(ncols, zero, one)
    for row in rows:
        basis.insert(row)
    return basis


def determinant(matrix: Sequence[Sequence], zero, one):
    """Exact determinant: the product of the pivot leads, signed by the order
    in which the pivots arrive.

    Each row is reduced against the rows before it, which leaves the
    determinant alone; its lead is its first nonzero entry, and the reduced
    rows form a triangular matrix once the columns are put in arrival order.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise LinearAlgebraError("matrix is not square")
    basis = EchelonBasis(n, zero, one)
    det = one
    for row in matrix:
        v = basis.reduce(row)
        pivot = next((j for j, c in enumerate(v) if c), None)
        if pivot is None:
            return zero
        det = det * v[pivot]
        if sum(p > pivot for p in basis.pivots) % 2:
            det = -det
        basis.insert(v)
    return det


def kernel_basis(matrix: Sequence[Sequence], zero, one) -> list[list]:
    """A basis of the right kernel, one vector per free column of the RREF."""
    ncols = len(matrix[0]) if matrix else 0
    basis = _echelon(matrix, ncols, zero, one)
    pivot_set = set(basis.pivots)
    kernel = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for pcol, row in zip(basis.pivots, basis.rows):
            v[pcol] = zero - row[free]
        kernel.append(v)
    return kernel


def matrix_rank(matrix: Sequence[Sequence], field) -> int:
    """Rank over the given field: the number of echelon rows."""
    if not matrix:
        return 0
    return len(_echelon(matrix, len(matrix[0]), field.zero(), field.one()))
