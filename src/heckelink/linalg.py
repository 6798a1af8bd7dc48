"""Exact linear algebra over the supported coefficient fields.

Matrices are plain Python lists of scalars; vectors are lists too, or sparse
``{column: value}`` dicts where they are long.  Everything here divides
exactly and never touches floating point.  There is one elimination routine,
the reduced-row-echelon basis ``EchelonBasis``; ranks, kernels and
determinants insert the rows of their matrix into one and read the answer off
the echelon rows, on every field alike.
"""

from __future__ import annotations

import bisect
from typing import Sequence


class LinearAlgebraError(ValueError):
    """Singular systems and malformed input."""


class EchelonBasis:
    """A growing reduced-row-echelon basis of a fixed-dimension vector space.

    Rows are stored sparsely, as ``{column: value}`` dicts of their nonzero
    entries, with pivot entries normalized to one and pivot columns strictly
    increasing.  Every row is zero in the pivot columns of the others, so a
    vector v reduces in one pass, v - sum over pivots p of v[p] * row_p with
    each v[p] read before any subtraction, and touches no column outside
    the rows it meets.

    Vectors go in dense, as sequences of length ``dimension``, or sparse, as
    ``{column: value}`` dicts; ``reduce`` and ``insert`` answer in the form
    they were given.  ``rows`` is a dense view for small matrices.
    """

    def __init__(self, dimension: int, zero, one):
        self.dimension = dimension
        self.zero = zero
        self.one = one
        self.pivots: list[int] = []
        self._rows: dict[int, dict] = {}  # pivot column -> row

    def __len__(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[list]:
        """The rows as dense lists, in pivot order."""
        return [self._dense(self._rows[p]) for p in self.pivots]

    def sparse_rows(self) -> list[dict]:
        """Copies of the rows as ``{column: value}`` dicts, in pivot order."""
        return [dict(self._rows[p]) for p in self.pivots]

    def _dense(self, v: dict) -> list:
        out = [self.zero] * self.dimension
        for j, c in v.items():
            out[j] = c
        return out

    def reduce(self, vector: Sequence | dict) -> list | dict:
        """Fully reduce a copy of ``vector`` against the basis."""
        v = _sparse(vector)
        rows = self._rows
        for row, c in [(rows[p], -c) for p, c in v.items() if p in rows]:
            _add_multiple(v, c, row)
        return v if isinstance(vector, dict) else self._dense(v)

    def coordinates(self, vector: Sequence | dict) -> list | None:
        """Coordinates of ``vector`` in the basis rows, or None if it is not
        in the span.

        Each row is the only one nonzero in its pivot column, where it holds
        one, so a vector in the span has its own pivot entries as coordinates.
        """
        v = _sparse(vector)
        if self.reduce(v):
            return None
        return [v.get(pivot, self.zero) for pivot in self.pivots]

    def insert(self, vector: Sequence | dict) -> list | dict | None:
        """Reduce and insert; returns a copy of the stored normalized row
        when the span grew, None when the vector was already in the span."""
        v = _sparse(self.reduce(vector))
        if not v:
            return None
        pivot = min(v)
        lead = v[pivot]
        if lead != self.one:
            inv = self.one / lead
            v = {j: c * inv for j, c in v.items()}
        # Back-substitute into the existing rows to keep the basis reduced;
        # only the new row's support changes.
        for row in self._rows.values():
            c = row.get(pivot)
            if c:
                _add_multiple(row, -c, v)
        self._rows[pivot] = v
        bisect.insort(self.pivots, pivot)
        return dict(v) if isinstance(vector, dict) else self._dense(v)

    def contains(self, vector: Sequence | dict) -> bool:
        return not self.reduce(_sparse(vector))


def _add_multiple(v: dict, c, row: dict) -> None:
    """v += c * row in place, for a nonzero c; entries that cancel are
    dropped."""
    for j, r in row.items():
        x = v.get(j)
        if x is None:
            v[j] = c * r
        else:
            x = x + c * r
            if x:
                v[j] = x
            else:
                del v[j]


def _sparse(vector: Sequence | dict) -> dict:
    """The nonzero entries of a dense or sparse vector as a new dict."""
    items = vector.items() if isinstance(vector, dict) else enumerate(vector)
    return {j: c for j, c in items if c}


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
