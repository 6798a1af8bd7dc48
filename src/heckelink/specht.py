"""Cell modules of the one-parameter Hecke algebra and their Gram forms.

Everything here fixes the one-parameter convention (q1, q2) = (-1, q); q may
be the generic variable or any specialized field value.  For a partition
``lam`` of n:

* the Young subgroup consists of the permutations fixing each consecutive
  block of sizes lam_1, lam_2, ... setwise, and m_lam is the sum of T_w over
  that subgroup;
* M^lam is the left ideal generated by m_lam.  For a minimal coset
  representative d the product T_d m_lam is a sum of distinct basis elements
  T_{du} with unit coefficients, and distinct cosets have disjoint supports,
  so these products form a ready-made echelon basis of M^lam;
* I^lam is the two-sided ideal generated by the m_mu over all mu strictly
  dominating lam.  Murphy's basis (J. Algebra 173, 1995; Mathas, AMS ULS
  15, ch. 3) spans it directly: m_st = T_{d(s)} m_mu T_{d(t)^{-1}} over
  those mu and the pairs of standard tableaux s, t of shape mu, where the
  coset representative d(t) lists t row by row; one prefix-tree walk over
  the d(t)^{-1} yields the m_st of one s;
* the cell module is M^lam modulo M^lam intersect I^lam, spanned by the
  images of T_{d(s)} m_lam over the standard tableaux s of shape lam (m_lam
  itself for d(s) = 1) and realized by reducing them modulo I^lam;
* the bilinear form evaluates star(x) * y modulo I^lam, which by Murphy's
  proportionality is always a scalar multiple of m_lam; the scalar is the
  form value.  The Gram matrix is solved in the module's own coordinates:
  the form is symmetric and invariant, <T_i x, y> = <x, T_i y>, and
  m_lam y = <m_lam, y> m_lam modulo I^lam, so the action matrices and the
  coordinates of m_lam determine it with no product in the algebra.  Per
  block, m_lam factors over the distinguished right coset representatives
  of S_j in S_{j+1}, D_j = 1 + T_j D_{j-1}, whose lengths add (Geck and
  Pfeiffer 2000, Prop. 2.1.1);
* the Gram matrix is eliminated once, by ``triangulate``, and its
  determinant, rank and head character are all read off that one echelon
  basis.  The head is the module modulo the radical, the kernel of the Gram
  matrix; its dimension is the rank, nonzero exactly for e-restricted
  shapes.  The echelon rows P of the Gram matrix vanish exactly on the
  radical and P E = 1 for E the inclusion of their pivot columns, so T_w
  acts on the head by P A(w) E, with no basis of the radical.

A build computes in ranks: its vectors are ``{rank: scalar}`` dicts over
the coordinate order of ``hecke._rank_keys``, the sparse rows
``EchelonBasis`` stores, and the fold runs on them with its rank keys,
per-n tables of the generator steps and ascent bits, all built in one call,
so a step is a tuple lookup.
What depends on the shape alone, the supports of the coset rows and the
d(s)^{-1}, is built once per partition by ``_shape`` and shared by every
field, the d(s) by one filter of the n! permutations.  Permutations appear
only at the boundary, in the module's public basis.

A cell module is built with its basis and generator action only.  The form
is evaluated on first use, since characters never read the Gram matrix.
``specht_module`` keeps the last 64 modules in an lru cache and hands them
out frozen.  It also holds the ideal of the last module it built, never
handed out, and grows it for the next shape when that shape's dominating
set contains the held one, as it does along ``partitions_of`` order; so a
table inserts each Murphy vector once.  ``ideal_I`` rebuilds its subspace on
every call.  Both refuse a partition of another n with ``SpechtError``, and
above n = ``MAX_N`` both raise ``SpechtSizeError`` (``check_size``, which
``specht --n`` calls first) before any n!-length work.

Both spans are built with no closure, so each insert grows them; their
dimensions, sum (f^mu)^2 over mu strictly dominating lam and f^lam, are
validated against an independent standard-tableaux count, never assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from typing import Sequence

from .braid import Permutation, _last_letter
from .coefficients import (
    Field,
    FieldContext,
    RationalFunction,
    generic_one_parameter_context,
    one_parameter_context,
)
from . import hecke
from .hecke import HeckeContext, HeckeElement
from .linalg import EchelonBasis, triangulate
from .trace import Partition, _blocks, partitions_of, strictly_dominates


class SpechtError(ValueError):
    """Wrong parameter convention or malformed input."""


class SpechtSizeError(SpechtError):
    """A cell module above the size budget, refused before any work: vectors
    in H_n have n! coordinates."""


MAX_N = 7
"""The largest n whose cell modules ``specht_module`` and ``ideal_I`` build
(7! = 5040 coordinates per vector)."""


def check_size(n: int) -> None:
    """Refuse n > MAX_N with ``SpechtSizeError``, before any n!-length work.
    Past n = 20 the message writes n! as such: its digits are slow to compute
    and, for n in the thousands, more than ``str`` converts by default."""
    if n > MAX_N:
        size = math.factorial(n) if n <= 20 else f"{n}!"
        raise SpechtSizeError(
            f"cell modules are limited to n <= {MAX_N}: n = {n} needs "
            f"{size} coordinates per vector"
        )


def _check_shape(lam: Partition, sctx: SpechtContext) -> None:
    """Refuse a partition of another n than the context's, and n > MAX_N."""
    if lam.n != sctx.n:
        raise SpechtError(f"{lam.render()} is not a partition of {sctx.n}")
    check_size(sctx.n)


class ProportionalityError(ArithmeticError):
    """The form's defining identities failed: a product m h m did not reduce
    to a multiple of m modulo the ideal, or the Gram matrix came out not
    symmetric or not invariant under the generators; or a Murphy span came
    out with another dimension than the standard tableaux count gives.

    This signals an internal inconsistency, never a user error.
    """


@dataclass(frozen=True)
class SpechtContext:
    """Strand count plus a coefficient context pinned to (q1, q2) = (-1, q)."""

    n: int
    field_context: FieldContext

    def __post_init__(self):
        if self.n < 1:
            raise SpechtError(f"strand count must be >= 1, got {self.n}")
        fc = self.field_context
        if fc.q1 != fc.field.from_int(-1):
            raise SpechtError(
                "cell modules use the one-parameter convention q1 = -1, got "
                + fc.describe()
            )

    @classmethod
    def generic(cls, n: int) -> SpechtContext:
        return cls(n, generic_one_parameter_context())

    @classmethod
    def at_value(cls, n: int, field: Field, q_value) -> SpechtContext:
        return cls(n, one_parameter_context(field, q_value))

    @property
    def q(self):
        return self.field_context.q2

    def hecke_context(self) -> HeckeContext:
        return HeckeContext(self.n, self.field_context)


# -- coordinates ----------------------------------------------------------------


def _from_sparse(vec: dict[int, object], sctx: SpechtContext) -> HeckeElement:
    permutation = hecke._rank_keys(sctx.n).permutation
    return HeckeElement(sctx.hecke_context(), {permutation(j): c for j, c in vec.items()})


# -- generators ------------------------------------------------------------------


def young_subgroup(lam: Partition) -> list[Permutation]:
    """All permutations fixing each block {k_i+1, ..., k_i+lam_i} setwise."""
    blocks = _blocks(lam)
    n = lam.n
    out = []
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        images = [0] * n
        for block, values in zip(blocks, choice):
            for pos, val in zip(block, values):
                images[pos - 1] = val
        out.append(Permutation(images))
    return out


# -- subspaces -------------------------------------------------------------------


def _subspace(sctx: SpechtContext) -> EchelonBasis:
    """The zero subspace of the algebra, as an echelon basis whose rows are
    ``{rank: scalar}`` dicts over the coordinate order of
    ``hecke._rank_keys``."""
    field = sctx.field_context.field
    return EchelonBasis(math.factorial(sctx.n), field.zero(), field.one())


def _standard_representatives(lam: Partition) -> list[Permutation]:
    """The permutations whose images, cut into the rows of lam, increase along
    rows and down columns, listing a standard tableau row by row: all n! are
    filtered (n <= MAX_N) in lexicographic order, so the identity comes first."""
    rows = [range(block.start - 1, block.stop - 1) for block in _blocks(lam)]
    pairs = [(j - 1, j) for row in rows for j in row[1:]]
    pairs += [cells for above, below in zip(rows, rows[1:]) for cells in zip(above, below)]
    return [
        Permutation(d)
        for d in itertools.permutations(range(1, lam.n + 1))
        if all(d[i] < d[j] for i, j in pairs)
    ]


def _check_dimension(what: str, found: int, expected: int) -> None:
    if found != expected:
        raise ProportionalityError(
            f"{what} has dimension {found}, but the standard tableaux count "
            f"gives {expected}"
        )


@lru_cache(maxsize=64)
def _shape(lam: Partition) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The combinatorics of lam that every field shares, in ranks: the
    support of each standard coset row T_{d(s)} m_lam, d = 1 first, and each
    d(s)^{-1}, both in the order of ``_standard_representatives``."""
    rank = hecke._rank_keys(lam.n).rank
    standard = _standard_representatives(lam)
    subgroup = young_subgroup(lam)
    rows = tuple(tuple(rank(d * u) for u in subgroup) for d in standard)
    return rows, tuple(rank(d.inverse()) for d in standard)


def _insert_murphy(
    basis: EchelonBasis, sctx: SpechtContext, shapes: Sequence[Partition]
) -> None:
    """Insert Murphy's vectors m_st = T_{d(s)} m_mu T_{d(t)^{-1}} of each mu in
    ``shapes``, over the pairs s, t of standard tableaux of shape mu.

    T_{d(s)} m_mu is a coset row, and one prefix-tree walk in rank keys over
    the d(t)^{-1} gives all its right products.  ``partitions_of`` order
    lists the most dominant shapes first, which keeps the echelon rows
    sparse: at n = 6 over F_3, reversed or sorted insertion orders took 2 to
    11 times as long for the same RREF."""
    keys = hecke._rank_keys(sctx.n)
    fc = sctx.field_context
    one = fc.field.one()
    for mu in shapes:
        rows, inverses = _shape(mu)
        support = dict.fromkeys(inverses)
        for row in rows:
            products = dict(
                hecke._prefix_products(dict.fromkeys(row, one), support, fc, keys)
            )
            for v in inverses:
                basis.insert(products[v])


def _grow_ideal(
    lam: Partition, sctx: SpechtContext, basis: EchelonBasis, held: frozenset
) -> tuple[frozenset, EchelonBasis]:
    """Grow ``basis``, which spans the Murphy vectors of the shapes in
    ``held``, to I^lam; return the shapes strictly dominating lam with it.
    The dimension is checked against sum (f^mu)^2 from the tableaux count."""
    shapes = [mu for mu in partitions_of(lam.n) if strictly_dominates(mu, lam)]
    _insert_murphy(basis, sctx, [mu for mu in shapes if mu not in held])
    expected = sum(count_standard_tableaux(mu) ** 2 for mu in shapes)
    _check_dimension(f"I^{lam.render()}", len(basis), expected)
    return frozenset(shapes), basis


def ideal_I(lam: Partition, sctx: SpechtContext) -> EchelonBasis:
    """Echelon basis of the two-sided ideal generated by the m_mu with mu
    strictly dominating lam.

    The ideal has Murphy's basis m_st over those mu and the pairs s, t of
    standard tableaux of shape mu, so each m_st is inserted once and no
    closure runs.  The dimension is checked against sum (f^mu)^2 from the
    tableaux count.  Its rows are ``{rank: scalar}`` dicts over the
    coordinate order of ``hecke._rank_keys``.  Built anew on each call, so
    the caller owns it.
    """
    _check_shape(lam, sctx)
    return _grow_ideal(lam, sctx, _subspace(sctx), frozenset())[1]


# The ideal of the last cell module built, as (sctx, its shapes, its basis),
# grown in place for the next shape; one slot, never handed out.
_held_ideal: list[tuple[SpechtContext, frozenset, EchelonBasis]] = []


def _take_ideal(lam: Partition, sctx: SpechtContext) -> tuple[frozenset, EchelonBasis]:
    """``_grow_ideal`` from the held ideal when each of its shapes strictly
    dominates lam, else from an empty one.  The entry leaves its slot while
    in use, so concurrent builds never share it; the echelon form is unique,
    so the rows equal those of ``ideal_I``."""
    try:
        held_sctx, held, basis = _held_ideal.pop()
    except IndexError:
        held_sctx = None
    if held_sctx != sctx or not all(strictly_dominates(mu, lam) for mu in held):
        held, basis = frozenset(), _subspace(sctx)
    return _grow_ideal(lam, sctx, basis, held)


# -- cell modules -----------------------------------------------------------------


def _memo():
    return dataclass_field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SpechtModule:
    """A cell module: quotient basis, generator action, and the Gram form.

    Frozen, since ``specht_module`` shares one instance among its callers.
    The memos below and the cached properties fill in on use; they take no
    part in equality or the repr."""

    lam: Partition
    sctx: SpechtContext
    basis: tuple[HeckeElement, ...]
    action: tuple  # action[i-1] is the matrix of T_i, column convention
    seed: tuple  # coordinates of m_lam modulo the ideal; it generates the module
    _matrices: dict[Permutation, tuple] = _memo()

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def generator_matrix(self, i: int) -> tuple:
        return self.action[i - 1]

    def matrix(self, w: Permutation) -> tuple:
        """Action matrix of T_w, the product of the generator matrices along
        the canonical reduced word of w, memoized by prefix."""
        if w.degree != self.sctx.n:
            raise SpechtError(
                f"T_w acts on the cell module {self.lam.render()} for w of "
                f"degree {self.sctx.n}, got degree {w.degree}"
            )
        cached = self._matrices.get(w)
        if cached is not None:
            return cached
        i = _last_letter(w.images)
        field = self.sctx.field_context.field
        if not i:
            one, zero = field.one(), field.zero()
            rows = range(self.dimension)
            mat = tuple(tuple(one if r == c else zero for c in rows) for r in rows)
        else:
            prefix = self.matrix(w.times_transposition(i))
            mat = _mat_mul(prefix, self.action[i - 1], field.zero())
        self._matrices[w] = mat
        return mat

    def character(self, w: Permutation):
        """Trace of the action of T_w."""
        return _trace(self.matrix(w), self.sctx.field_context.field.zero())

    @cached_property
    def gram(self) -> tuple:
        """The form on the basis, each element b scaled by
        ``_denominator_factor(b)`` to clear denominators.

        Solved in module coordinates from the action and the seed u alone.
        The action of m_lam sends b_k to phi_k u, where phi_k = <m_lam, b_k>.
        On each block o+1..o+k its matrix is E_{o+1} ... E_{o+k-1}, with
        E_j = I + A_j E_{j-1} the sum over the distinguished right coset
        representatives d of S_j in S_{j+1}, where lengths add: T_u T_d = T_{ud}.
        For h in H, v = A(h) u holds the coordinates of h m_lam and
        rho = phi A(star h) the values <h m_lam, b_k>, so v G = rho; a
        closure over h -> T_i h collects rows [v | rho] until their echelon
        form reads [I | G].  G and every G A_i must come out symmetric, which
        is <x, y> = <y, x> and <T_i x, y> = <x, T_i y>."""
        dim = self.dimension
        if not dim:
            return ()
        field = self.sctx.field_context.field
        zero, one = field.zero(), field.one()
        shape = self.lam.render()
        ident = self.matrix(Permutation.identity(self.sctx.n))
        m_action = ident
        for block in _blocks(self.lam):
            coset = ident
            for j in block[:-1]:
                coset = _mat_mul(self.action[j - 1], coset, zero)
                coset = tuple(
                    tuple(x + one if r == c else x for c, x in enumerate(row))
                    for r, row in enumerate(coset)
                )
                m_action = _mat_mul(m_action, coset, zero)
        pivot = next(k for k, c in enumerate(self.seed) if c)
        phi = [c / self.seed[pivot] for c in m_action[pivot]]
        if m_action != tuple(tuple(p * s for p in phi) for s in self.seed):
            raise ProportionalityError(
                f"m_{shape} * b is not proportional to m_{shape} modulo the ideal"
            )
        span = EchelonBasis(2 * dim, zero, one)
        queue = [span.insert(dict(enumerate([*self.seed, *phi])))]
        while queue and len(span) < dim:
            row = queue.pop()
            v = [row.get(k, zero) for k in range(dim)]
            rho = [row.get(k, zero) for k in range(dim, 2 * dim)]
            for gen in self.action:
                image = [_dot_row(r, v, zero) for r in gen]
                image += [_dot_row(c, rho, zero) for c in zip(*gen)]
                grown = span.insert(dict(enumerate(image)))
                if grown is not None:
                    queue.append(grown)
        if span.pivots != list(range(dim)):
            raise ProportionalityError(f"the action on {shape} determines no form")
        gram = [
            [row.get(k, zero) for k in range(dim, 2 * dim)] for row in span.sparse_rows()
        ]
        for mat in [gram] + [_mat_mul(gram, gen, zero) for gen in self.action]:
            if any(mat[r][c] != mat[c][r] for r in range(dim) for c in range(r)):
                raise ProportionalityError(
                    f"the form on {shape} is not symmetric and invariant"
                )
        factors = [_denominator_factor(b, one) for b in self.basis]
        return tuple(
            tuple(fr * fc * g for fc, g in zip(factors, row))
            for fr, row in zip(factors, gram)
        )

    @cached_property
    def _elimination(self) -> tuple:
        """The one elimination of the Gram matrix: its determinant and the
        echelon basis of its rows, which every reader below shares."""
        field = self.sctx.field_context.field
        return triangulate(self.gram, field.zero(), field.one())

    def gram_determinant(self):
        return self._elimination[0]

    def gram_rank(self) -> int:
        return len(self._elimination[1])

    def head_character(self, w: Permutation):
        """Trace of T_w on the head, the module modulo the Gram radical: the
        trace of P A(w) E, the sum over echelon rows a and columns c of
        P[a][c] A(w)[c][p_a].  The radical is invariant, since ``gram``
        checks that each G A_i is symmetric: G v = 0 gives
        G A_i v = A_i^T G v = 0."""
        mat = self.matrix(w)
        echelon = self._elimination[1]
        total = self.sctx.field_context.field.zero()
        for pivot, row in zip(echelon.pivots, echelon.sparse_rows()):
            for c, x in row.items():
                total = total + x * mat[c][pivot]
        return total


def _trace(mat: tuple, zero):
    total = zero
    for i in range(len(mat)):
        total = total + mat[i][i]
    return total


def _dot_row(row: Sequence, vec: Sequence, zero):
    total = zero
    for x, y in zip(row, vec):
        if x and y:
            total = total + x * y
    return total


def _mat_mul(a: tuple, b: tuple, zero) -> tuple:
    n = len(a)
    out = []
    for r in range(n):
        row_a = a[r]
        row = []
        for c in range(n):
            s = zero
            for k in range(n):
                x = row_a[k]
                if x:
                    y = b[k][c]
                    if y:
                        s = s + x * y
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _denominator_factor(x: HeckeElement, one):
    """The unit that scales x to Laurent-polynomial coefficients: the product
    of their denominators, or ``one`` when there are none (always, off a
    rational function field)."""
    common = None
    for c in x.terms.values():
        if isinstance(c, RationalFunction) and not c.den.is_one():
            common = c.den if common is None else common * c.den
    return one if common is None else RationalFunction.from_poly(common)


@lru_cache(maxsize=64)
def specht_module(lam: Partition, sctx: SpechtContext) -> SpechtModule:
    """Build the cell module of shape lam over the given context: its basis
    and generator action.

    The basis is the echelon form of the images modulo I^lam of the coset
    rows T_{d(s)} m_lam over the standard tableaux s, Murphy's basis of the
    cell module; its dimension is checked against the tableaux count.  The
    module is cached and shared.  I^lam grows the held ideal of the previous
    build when it can (``_take_ideal``) and is held in turn, never handed
    out; ``clear_caches`` drops it."""
    _check_shape(lam, sctx)
    shapes, ideal = _take_ideal(lam, sctx)
    fc = sctx.field_context
    one = fc.field.one()
    quotient = _subspace(sctx)
    reduced = [ideal.reduce(dict.fromkeys(row, one)) for row in _shape(lam)[0]]
    for vec in reduced:
        quotient.insert(vec)
    _check_dimension(
        f"the cell module {lam.render()}", len(quotient), count_standard_tableaux(lam)
    )
    seed = tuple(quotient.coordinates(reduced[0]))  # m_lam: d = 1 is first
    keys = hecke._rank_keys(sctx.n)
    rows = quotient.sparse_rows()
    action = []
    for i in range(1, sctx.n):
        columns = [
            quotient.coordinates(hecke.fold_letter(b, i, fc, keys, left=True), ideal)
            for b in rows
        ]
        if None in columns:
            raise ProportionalityError(
                f"generator action left the cell module for {lam.render()}"
            )
        action.append(tuple(zip(*columns)))
    _held_ideal[:] = [(sctx, shapes, ideal)]
    basis = tuple(_from_sparse(row, sctx) for row in rows)
    return SpechtModule(lam, sctx, basis, tuple(action), seed)


def dim_D_lambda(lam: Partition, sctx: SpechtContext) -> int:
    """Dimension of the irreducible head: the rank of the Gram matrix."""
    return specht_module(lam, sctx).gram_rank()


def count_standard_tableaux(lam: Partition) -> int:
    """Exact count of standard fillings by backtracking enumeration."""
    parts = lam.parts
    rows = len(parts)

    def rec(filled: tuple[int, ...]) -> int:
        if sum(filled) == lam.n:
            return 1
        total = 0
        for r in range(rows):
            if filled[r] < parts[r] and (r == 0 or filled[r - 1] > filled[r]):
                total += rec(filled[:r] + (filled[r] + 1,) + filled[r + 1 :])
        return total

    return rec((0,) * rows)
