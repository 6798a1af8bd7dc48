"""The slow, direct routes that the tests compare the library against: the
Gram form from products in the algebra (``gram_entry``), the ideal and the
cell module as closures under the generators, products folded one term at a
time, ranks, kernels and determinants without ``triangulate``, and the Jones
polynomial of a torus knot in closed form.  Elements meet a
``SubspaceBasis`` through ``to_sparse``, in the ranks of
``hecke._rank_keys``."""

import itertools

from heckelink import hecke, specht
from heckelink.braid import Permutation
from heckelink.coefficients import (
    LaurentPoly, PrimeField, Rationals, generic_field_context, one_parameter_context,
)
from heckelink.hecke import HeckeElement, fold_letter, left_multiply_generator
from heckelink.linalg import EchelonBasis
from heckelink.specht import (
    ProportionalityError, SpechtError, SubspaceBasis, ideal_I, young_subgroup,
)
from heckelink.trace import partitions_of, strictly_dominates

# The fields that products are checked over.
FIELDS = {
    "Q(q1,q2)": generic_field_context(),
    "Q at q=2": one_parameter_context(Rationals(), 2),
    "F_7 at q=3": one_parameter_context(PrimeField(7), 3),
}


def reference_product(x, y):
    """x * y by folding all of x along the reduced word of every term T_v of
    y, one term at a time: the product before the shared prefix walk."""
    field = x.context.field
    result = {}
    for v, d in y.terms.items():
        cur = x.terms
        for i in v.reduced_word():
            cur = fold_letter(cur, i, field)
        for u, c in cur.items():
            s = result.get(u)
            s = c * d if s is None else s + c * d
            if s:
                result[u] = s
            else:
                result.pop(u, None)
    return HeckeElement(x.context, result)


def cofactor(m, zero):
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = zero
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor(minor, zero)
        total = total + term if j % 2 == 0 else total - term
    return total


def _echelon(matrix, zero, one):
    basis = EchelonBasis(len(matrix[0]) if matrix else 0, zero, one)
    for row in matrix:
        basis.insert(row)
    return basis


def matrix_rank(matrix, field):
    """Rank over the given field: the number of echelon rows."""
    return len(_echelon(matrix, field.zero(), field.one()))


def kernel_basis(matrix, zero, one):
    """A basis of the right kernel, one vector per free column of the RREF."""
    basis = _echelon(matrix, zero, one)
    ncols = basis.dimension
    kernel = []
    for free in range(ncols):
        if free in basis.pivots:
            continue
        v = [zero] * ncols
        v[free] = one
        for pcol, row in zip(basis.pivots, basis.rows):
            v[pcol] = zero - row[free]
        kernel.append(v)
    return kernel


def to_sparse(x, sctx):
    index = hecke._rank_keys(sctx.n)[1]
    return {index[w]: c for w, c in x.terms.items()}


def insert_element(basis, x):
    return basis.echelon.insert(to_sparse(x, basis.sctx))


def reduce_element(basis, x):
    reduced = basis.echelon.reduce(to_sparse(x, basis.sctx))
    return specht._from_sparse(reduced, basis.sctx)


def contains(basis, x):
    return not basis.echelon.reduce(to_sparse(x, basis.sctx))


def rows_as_elements(basis):
    return [specht._from_sparse(row, basis.sctx) for row in basis.echelon.sparse_rows()]


def m_lambda(lam, sctx):
    """Sum of the basis elements over the Young subgroup of lam."""
    specht._check_shape(lam, sctx)
    one = sctx.field_context.field.one()
    return HeckeElement(sctx.hecke_context(), {w: one for w in young_subgroup(lam)})


def coset_representatives(lam):
    """Minimal-length representatives of the left cosets w S_lam: the
    permutations whose images increase within each row block of lam."""
    starts = list(itertools.accumulate(lam.parts, initial=0))
    steps = [j for a, b in zip(starts, starts[1:]) for j in range(a + 1, b)]
    return [
        Permutation(d)
        for d in itertools.permutations(range(1, lam.n + 1))
        if all(d[j - 1] < d[j] for j in steps)
    ]


def coset_rows(lam, sctx, reps):
    """The products T_d m_lam over minimal coset representatives d in reps.

    Lengths add across the coset split, so each product is a sum of distinct
    basis elements with unit coefficients and the supports of distinct
    cosets are disjoint; the rows are independent."""
    one = sctx.field_context.field.one()
    ctx = sctx.hecke_context()
    subgroup = young_subgroup(lam)
    return [HeckeElement(ctx, {d * u: one for u in subgroup}) for d in reps]


def module_basis_M(lam, sctx):
    """Echelon basis of the left ideal generated by m_lam."""
    specht._check_shape(lam, sctx)
    basis = SubspaceBasis(sctx)
    for row in coset_rows(lam, sctx, coset_representatives(lam)):
        insert_element(basis, row)
    return basis


def bilinear_form(lam, sctx):
    """The bilinear form as a function of the product star(x) * y: the
    scalar r with star(x) * y = r * m_lam modulo the ideal."""
    ideal = ideal_I(lam, sctx).echelon
    m_bar = ideal.reduce(to_sparse(m_lambda(lam, sctx), sctx))
    pivot = min(m_bar, default=None)
    zero = sctx.field_context.field.zero()

    def form(product):
        reduced = ideal.reduce(to_sparse(product, sctx))
        if pivot is None:
            if reduced:
                raise ProportionalityError(
                    f"form value undefined: m_{lam.render()} lies in the ideal "
                    "but the product does not"
                )
            return zero
        ratio = reduced.get(pivot, zero) / m_bar[pivot]
        if reduced != {j: ratio * c for j, c in m_bar.items() if ratio}:
            raise ProportionalityError(
                f"star(x)*y is not proportional to m_{lam.render()} modulo the ideal"
            )
        return ratio

    return form


def gram_entry(x, y, lam, sctx):
    """Bilinear form value <x, y> for x, y in the left ideal of m_lam; it
    builds M^lam and I^lam on every call."""
    module_m = module_basis_M(lam, sctx)
    if not contains(module_m, x) or not contains(module_m, y):
        raise SpechtError("form arguments must lie in the left ideal of m_lambda")
    return bilinear_form(lam, sctx)(x.star() * y)


def close(basis, seeds, step):
    """Grow ``basis`` to the span of ``seeds`` closed under x -> step(x, i)
    for i = 1, ..., n-1, with a worklist of the rows that grew it."""
    n = basis.sctx.n
    queue = [x for x in seeds if insert_element(basis, x) is not None]
    while queue:
        x = queue.pop()
        for i in range(1, n):
            image = step(x, i)
            if insert_element(basis, image) is not None:
                queue.append(image)


def closure_ideal(lam, sctx):
    """The reference I^lam: the left ideals H m_mu, mu strictly dominating
    lam, closed under right multiplication by the generators."""
    ctx = sctx.hecke_context()
    basis = SubspaceBasis(sctx)
    seeds = [
        row
        for mu in partitions_of(sctx.n)
        if strictly_dominates(mu, lam)
        for row in coset_rows(mu, sctx, coset_representatives(mu))
    ]
    close(basis, seeds, lambda x, i: HeckeElement(ctx, fold_letter(x.terms, i, ctx.field)))
    return basis


def closure_quotient(lam, sctx, ideal):
    """The reference cell module: m_lam modulo the ideal, closed under left
    multiplication by the generators modulo the ideal."""
    quotient = SubspaceBasis(sctx)
    m_bar = reduce_element(ideal, m_lambda(lam, sctx))
    close(
        quotient, [m_bar],
        lambda x, i: reduce_element(ideal, left_multiply_generator(x, i)),
    )
    return quotient


def torus_knot_jones(p, q):
    """V(T(p, q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2),
    the Jones polynomial of the closure of (sigma_1 ... sigma_{p-1})^q for
    coprime p, q >= 2 (Jones, Ann. Math. 126, 1987), as a Laurent
    polynomial in t."""
    numerator = [0] * (p + q + 1)
    for e, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        numerator[e] += c
    # divide by 1 - t^2: the quotient's coefficients satisfy c_k = a_k + c_{k-2}
    quotient = numerator[:2] + [0] * (p + q - 1)
    for k in range(2, p + q + 1):
        quotient[k] = numerator[k] + quotient[k - 2]
    assert quotient[p + q - 1] == quotient[p + q] == 0, "1 - t^2 does not divide"
    shift = (p - 1) * (q - 1) // 2
    return LaurentPoly(("t",), {(k + shift,): c for k, c in enumerate(quotient) if c})
