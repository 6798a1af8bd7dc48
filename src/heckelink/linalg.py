"""Exact linear algebra over the supported coefficient fields.

Matrices are plain Python lists of scalars; vectors are sparse
``{column: value}`` dicts of their nonzero entries.  Everything here divides
exactly and never touches floating point.  There is one elimination routine,
the reduced-row-echelon basis ``EchelonBasis``, on every field alike, and one
way to eliminate a matrix: ``triangulate`` yields a square matrix's
determinant and echelon basis from one pass, and its rank is the number of
echelon rows.

Over Q and F_p the basis computes on plain integers, since every operation on
a scalar object costs a type check and an allocation: field scalars become
integers where a vector enters the basis and field scalars again where one
leaves it, so coordinates modulo a second basis over the same field are read
in one pass on those integers.  Over Q(q) it computes on the scalars
themselves.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .coefficients import ContextMismatchError, PrimeFieldElement


class LinearAlgebraError(ValueError):
    """Singular systems and malformed input."""


class EchelonBasis:
    """A growing reduced-row-echelon basis of a fixed-dimension vector space.

    Rows are stored sparsely, as ``{column: value}`` dicts of their nonzero
    entries, with pivot columns strictly increasing.  Every row is zero in
    the pivot columns of the others, so a vector v reduces in one pass,
    v - sum over pivots p of v[p] * row_p with each v[p] read before any
    subtraction, and touches no column outside the rows it meets.  Inserting
    a row back-substitutes it into the others by the same pass.

    What a row holds depends on the field, read once from the type of
    ``zero``:

    * over F_p, ints in [0, p), with pivot entries one;
    * over Q, a primitive integer vector (the gcd of its entries divided
      out) whose pivot entry a_p is positive, the row scale: the echelon row
      is row / a_p.  A vector enters as integers u over a common denominator
      d, and the pass clears the row scales too: with A the lcm of the a_p it
      meets, A*u - sum over p of (A / a_p) * u[p] * row_p is A*d times the
      remainder;
    * over any other field, the field scalars, with pivot entries one.

    Vectors go in as ``{column: value}`` dicts of field scalars, with columns
    below ``dimension``, and ``reduce``, ``insert`` and ``sparse_rows``
    answer with such dicts; ``coordinates`` answers with a list, one entry
    per row.  Every value handed out is a field scalar again.
    """

    def __init__(self, dimension: int, zero, one):
        self.dimension = dimension
        self.zero = zero
        self.one = one
        self.pivots: list[int] = []
        self._rows: dict[int, dict] = {}  # pivot column -> row
        self._scales: dict[int, int] = {}  # pivot column -> a_p, one off Q
        self._rational = isinstance(zero, Fraction)
        self._p = zero.p if isinstance(zero, PrimeFieldElement) else None

    def __len__(self) -> int:
        return len(self.pivots)

    def sparse_rows(self) -> list[dict]:
        """The rows as ``{column: value}`` dicts, in pivot order."""
        return [self._export(self._rows[p], self._scales[p]) for p in self.pivots]

    def reduce(self, vector: dict) -> dict:
        """Fully reduce a copy of ``vector`` against the basis."""
        v, d = self._import(vector)
        scale = self._eliminate(v)
        return self._export(v, scale * d)

    def coordinates(self, vector: dict, modulo: EchelonBasis | None = None) -> list | None:
        """Coordinates of ``vector`` in the basis rows, or None if it is not
        in the span; with ``modulo``, of its remainder modulo that basis.

        Each row is the only one nonzero in its pivot column, where the echelon
        row holds one, so a vector in the span has its own pivot entries as
        coordinates.  A remainder keeps its stored values, its scale folded
        into the denominator.
        """
        v, d = self._import(vector)
        if modulo is not None:
            if modulo.dimension != self.dimension:
                raise LinearAlgebraError("the bases have different dimensions")
            if type(modulo.zero) is not type(self.zero) or modulo._p != self._p:
                raise ContextMismatchError("the bases are over different fields")
            d *= modulo._eliminate(v)
        coords = {k: v[p] for k, p in enumerate(self.pivots) if p in v}
        self._eliminate(v)
        if v:
            return None
        coords = self._export(coords, d)
        return [coords.get(k, self.zero) for k in range(len(self.pivots))]

    def insert(self, vector: dict) -> dict | None:
        """Reduce in one pass and insert; returns a copy of the stored echelon
        row when the span grew, None when the vector was already in the span."""
        v, _ = self._import(vector)
        self._eliminate(v)
        if not v:
            return None
        pivot = min(v)
        row, scale = self._normalize(v, pivot)
        rows, scales = self._rows, self._scales
        rows[pivot], scales[pivot] = row, scale
        # Back-substitute into the existing rows to keep the basis reduced.
        for q, other in rows.items():
            if q != pivot and pivot in other:
                self._eliminate(other, [pivot])
                rows[q], scales[q] = self._normalize(other, q)
        bisect.insort(self.pivots, pivot)
        return self._export(row, scale)

    def _eliminate(self, w: dict, pivots: list[int] | None = None) -> int:
        """The one elimination pass, in place: w becomes
        A*w - sum over the pivots p of (A / a_p) * w[p] * row_p, with A the
        lcm of their row scales a_p (one off Q), without zero entries and
        reduced mod p over F_p.  The pivots default to those of the basis in
        the support of w.  Returns A."""
        rows, scales = self._rows, self._scales
        if pivots is None:
            pivots = [p for p in w if p in rows]
        a = lcm(*(scales[p] for p in pivots)) if self._rational else 1
        terms = [
            (rows[p], -w[p] if a == scales[p] else -(a // scales[p]) * w[p])
            for p in pivots
        ]
        if a != 1:
            for j in w:
                w[j] *= a
        get = w.get
        for row, m in terms:
            for j, r in row.items():
                x = get(j)
                w[j] = m * r if x is None else x + m * r
        # Only the columns of the rows met can change; past one row, one
        # sweep over w is cheaper than the union of their columns.
        p = self._p
        for j in terms[0][0] if len(terms) == 1 else list(w):
            x = w[j] if p is None else w[j] % p
            if x:
                w[j] = x
            else:
                del w[j]
        return a

    def _normalize(self, w: dict, pivot: int) -> tuple[dict, int]:
        """The stored row for the nonzero vector w with the given pivot, and
        its row scale."""
        lead = w[pivot]
        if self._rational:
            g = gcd(*w.values())
            g = -g if lead < 0 else g
            return (w if g == 1 else {j: x // g for j, x in w.items()}), lead // g
        p = self._p
        if p is not None:
            if lead != 1:
                inv = pow(lead, -1, p)
                w = {j: x * inv % p for j, x in w.items()}
        elif lead != self.one:
            inv = self.one / lead
            w = {j: c * inv for j, c in w.items()}
        return w, 1

    def _import(self, vector: dict) -> tuple[dict, int]:
        """The nonzero entries of a vector of field scalars as a new dict of
        stored values, and their common denominator over Q (one elsewhere)."""
        v = {j: c for j, c in vector.items() if c}
        if self._rational:
            d = lcm(*(c.denominator for c in v.values()))
            return {j: c.numerator * (d // c.denominator) for j, c in v.items()}, d
        p = self._p
        if p is None:
            return v, 1
        for c in v.values():
            if c.p != p:
                raise ContextMismatchError(f"mixed characteristics {p} and {c.p}")
        return {j: c.value for j, c in v.items()}, 1

    def _export(self, w: dict, d: int) -> dict:
        """w / d as a dict of field scalars."""
        if self._rational:
            return {j: Fraction(x, d) for j, x in w.items()}
        p = self._p
        if p is not None:
            return {j: PrimeFieldElement(x, p) for j, x in w.items()}
        return dict(w)


def triangulate(matrix: Sequence[Sequence], zero, one) -> tuple[object, EchelonBasis]:
    """One elimination of a square matrix: its exact determinant and the
    echelon basis of its rows.

    Each row is reduced against the rows before it, which leaves the
    determinant alone; its lead is its first nonzero entry, and the reduced
    rows form a triangular matrix once the columns are put in arrival order,
    so the determinant is the product of the leads, signed by the order in
    which the pivots arrive.  A row that reduces to zero makes it zero, and
    the rows after it are still inserted, so the basis always spans the
    row space.  Each row enters the basis as a dict of its entries.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise LinearAlgebraError("matrix is not square")
    basis = EchelonBasis(n, zero, one)
    det = one
    for row in matrix:
        v = basis.reduce(dict(enumerate(row)))
        pivot = min(v, default=None)
        if pivot is None:
            det = zero
            continue
        det = det * v[pivot]
        if sum(p > pivot for p in basis.pivots) % 2:
            det = -det
        basis.insert(v)
    return det, basis
