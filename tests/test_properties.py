"""Property tests for the Hecke product (the prefix-tree walk against the
per-term reference fold, associativity, star as an antiautomorphism), for
the scalar layer (canonical forms, parse after render, exact coefficients),
for the sparse echelon basis (sympy's RREF and a dense sweep) and for the
command line (malformed input exits 2 or 3, never 1)."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from heckelink.braid import Permutation
from heckelink.cli import main
from heckelink.coefficients import (
    LaurentPoly,
    PrimeField,
    PrimeFieldElement,
    RationalFunctionField,
    Rationals,
    canonicalize,
    render_scalar,
)
from heckelink.hecke import HeckeContext, HeckeElement
from heckelink.linalg import EchelonBasis, triangulate
from reference import FIELDS, kernel_basis, reference_product, star

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def elements(ctx, max_terms=6):
    """Elements with up to ``max_terms`` terms and coefficients a + b*q2."""
    fc = ctx.field
    coefficients = st.builds(
        lambda a, b: fc.field.from_int(a) + fc.field.from_int(b) * fc.q2,
        st.integers(-3, 3),
        st.integers(-2, 2),
    )
    perms = st.permutations(range(1, ctx.n + 1)).map(Permutation)
    return st.dictionaries(perms, coefficients, max_size=max_terms).map(
        lambda terms: HeckeElement(ctx, terms)
    )


@st.composite
def triples(draw, max_n=4):
    """Three elements of one H_n, n <= max_n, over one of the test fields."""
    ctx = HeckeContext(
        draw(st.integers(1, max_n)), FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    )
    elems = elements(ctx)
    return draw(elems), draw(elems), draw(elems)


@PROPERTY
@given(triples(max_n=5))
def test_product_is_the_reference_fold(abc):
    a, b, _ = abc
    assert a * b == reference_product(a, b)


@PROPERTY
@given(triples())
def test_associativity(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(triples())
def test_star_reverses_products(abc):
    a, b, _ = abc
    assert star(a * b) == star(b) * star(a)


# -- the scalar layer ------------------------------------------------------------

Q12 = ("q1", "q2")
RATIONALS = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
NONZERO = RATIONALS.filter(bool)


def laurent(ordinary=False, max_terms=4):
    """Laurent polynomials over Q(q1,q2) with int and Fraction coefficients."""
    low = 0 if ordinary else -2
    exps = st.tuples(st.integers(low, 2), st.integers(low, 2))
    return st.dictionaries(exps, RATIONALS, max_size=max_terms).map(
        lambda terms: LaurentPoly(Q12, terms)
    )


MULTIPLIERS = st.one_of(
    NONZERO.map(lambda c: LaurentPoly.constant(Q12, c)),
    st.builds(
        lambda e, c: LaurentPoly.monomial(Q12, e, c),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        NONZERO,
    ),
    laurent().filter(bool),
)


def _int_or_proper_fraction(p):
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in p.terms.values()
    )


@PROPERTY
@given(laurent(), laurent(ordinary=True).filter(bool), MULTIPLIERS)
def test_canonical_form_ignores_a_common_factor(num, den, k):
    assert canonicalize(k * num, k * den) == canonicalize(num, den)


@PROPERTY
@given(laurent(), laurent(ordinary=True).filter(bool))
def test_parse_inverts_render_over_q12(num, den):
    x = canonicalize(num, den)
    assert RationalFunctionField(Q12).parse(x.render()) == x


@PROPERTY
@given(RATIONALS, st.integers(-50, 50), st.sampled_from([2, 3, 5, 7, 101]))
def test_parse_inverts_render_over_q_and_fp(r, n, p):
    q = Rationals()
    assert q.parse(render_scalar(r)) == r
    fp = PrimeField(p)
    assert fp.parse(render_scalar(fp.from_int(n))) == fp.from_int(n)


@PROPERTY
@given(laurent(), laurent(), laurent(ordinary=True).filter(bool))
def test_stored_coefficients_are_int_or_proper_fraction(a, b, den):
    x = canonicalize(a, den)
    for p in (a, b, a + b, a - b, a * b, x.num, x.den):
        assert _int_or_proper_fraction(p)


@PROPERTY
@given(laurent(), laurent(), RATIONALS)
def test_arithmetic_results_equal_the_checked_constructor(a, b, r):
    # sums, products and negations skip the exponent checks of the public
    # constructor, yet store exactly what it would
    for p in (a + b, a - b, a * b, -a, a + r, r - a):
        checked = LaurentPoly(p.variables, p.terms)
        assert p.variables == checked.variables
        assert [(e, type(c), c) for e, c in p.terms.items()] == [
            (e, type(c), c) for e, c in checked.terms.items()
        ]
        assert all(p.terms.values())
        assert _int_or_proper_fraction(p)


# -- the sparse echelon basis ----------------------------------------------------

ECHELON_FIELDS = {
    "Q": Rationals(),
    "F_3": PrimeField(3),
    "F_7": PrimeField(7),
    "F_10007": PrimeField(10007),
}
ENTRIES = st.integers(-3, 3) | st.just(0)
# Entries with denominators, so that the echelon rows over Q have row scales
# other than one.
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=7) | st.just(0)


@st.composite
def matrices(draw, square=False, probes=0):
    """A small matrix over one of the test fields, as rows, and ``probes``
    more vectors of its width: entries are small fractions over Q and small
    integers read in F_p."""
    name = draw(st.sampled_from(sorted(ECHELON_FIELDS)))
    field = ECHELON_FIELDS[name]
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))
    values = draw(st.lists(
        st.lists(FRACTIONS if name == "Q" else ENTRIES, min_size=ncols, max_size=ncols),
        min_size=nrows + probes, max_size=nrows + probes,
    ))
    rows = [[field.from_fraction(a) for a in row] for row in values]
    return (name, rows) if not probes else (name, rows[:nrows], rows[nrows:])


def assert_field_scalars(name, values):
    """Every value is a scalar of the named field: a Fraction over Q, an
    element of F_p with the right p, never a bare int."""
    field = ECHELON_FIELDS[name]
    for x in values:
        if name == "Q":
            assert type(x) is Fraction, repr(x)
        else:
            assert type(x) is PrimeFieldElement and x.p == field.p, repr(x)


def sympy_rref(name, m):
    """The nonzero RREF rows and the pivots, computed by sympy: Matrix.rref
    over Q, a DomainMatrix over GF(p) for F_p."""
    sympy = pytest.importorskip("sympy")
    field = ECHELON_FIELDS[name]
    if name == "Q":
        rows = [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]
        rref, pivots = sympy.Matrix(rows).rref()
        rows = rref.tolist()
        read = lambda x: Fraction(int(x.p), int(x.q))  # noqa: E731
    else:
        from sympy.polys.matrices import DomainMatrix

        gf = sympy.GF(field.p)
        ints = [[gf(x.value) for x in row] for row in m]
        dm = DomainMatrix(ints, (len(m), len(m[0])), gf)
        rref, pivots = dm.rref()
        rows = rref.to_list()
        read = lambda x: field.from_int(int(x))  # noqa: E731
    return [[read(x) for x in row] for row in rows[: len(pivots)]], list(pivots)


def sweep_reduce(rows, pivots, v):
    """Dense sequential sweep: clear each pivot column in turn with the value
    it holds at that moment; returns the remainder and the multipliers."""
    v = list(v)
    used = []
    for pivot, row in zip(pivots, rows):
        c = v[pivot]
        used.append(c)
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v, used


def sweep_determinant(m, zero, one):
    """Dense Gaussian elimination with row swaps."""
    m = [list(row) for row in m]
    det = one
    for col in range(len(m)):
        r = next((r for r in range(col, len(m)) if m[r][col]), None)
        if r is None:
            return zero
        if r != col:
            m[col], m[r] = m[r], m[col]
            det = -det
        det = det * m[col][col]
        inv = one / m[col][col]
        for k in range(col + 1, len(m)):
            f = m[k][col] * inv
            if f:
                m[k] = [a - f * b for a, b in zip(m[k], m[col])]
    return det


def sparse(v):
    """The nonzero entries of a dense vector, as an echelon basis takes it."""
    return {j: c for j, c in enumerate(v) if c}


def _insert_all(name, m, with_zeros):
    """Insert the rows of m, each as a dict of its nonzero entries or, where
    ``with_zeros`` says so, of all its entries."""
    field = ECHELON_FIELDS[name]
    basis = EchelonBasis(len(m[0]), field.zero(), field.one())
    for row, zeros in zip(m, with_zeros):
        grown = basis.insert(dict(enumerate(row)) if zeros else sparse(row))
        if grown is not None:
            assert all(grown.values())
            assert_field_scalars(name, grown.values())
    return field, basis


def dense_rows(basis):
    """The basis rows as dense lists, as the dense sweep reads them."""
    return [
        [row.get(j, basis.zero) for j in range(basis.dimension)]
        for row in basis.sparse_rows()
    ]


@PROPERTY
@given(matrices(), st.lists(st.booleans(), min_size=5, max_size=5))
def test_echelon_rows_are_sympy_rref(named, with_zeros):
    name, m = named
    _, basis = _insert_all(name, m, with_zeros)
    rows, pivots = sympy_rref(name, m)
    assert basis.pivots == pivots
    assert basis.sparse_rows() == [sparse(r) for r in rows]
    for row in basis.sparse_rows():
        assert_field_scalars(name, row.values())


@PROPERTY
@given(matrices(probes=3), st.lists(ENTRIES, min_size=5, max_size=5))
def test_echelon_reduce_and_coordinates_match_a_dense_sweep(named, mix):
    name, m, probes = named
    field, basis = _insert_all(name, m, [True, False] * 3)
    inside = [field.zero()] * len(m[0])
    for c, row in zip(mix, m):
        inside = [a + field.from_int(c) * b for a, b in zip(inside, row)]
    for v in probes + [inside]:
        rest, used = sweep_reduce(dense_rows(basis), basis.pivots, v)
        assert basis.reduce(sparse(v)) == sparse(rest)
        assert basis.reduce(dict(enumerate(v))) == sparse(rest)
        assert_field_scalars(name, basis.reduce(sparse(v)).values())
        expected = None if any(rest) else used
        assert basis.coordinates(sparse(v)) == expected
        assert basis.coordinates(dict(enumerate(v))) == expected
        if expected is not None:
            assert_field_scalars(name, basis.coordinates(sparse(v)))
    assert basis.coordinates(sparse(inside)) is not None
    # coordinates modulo a second basis, spanned by the first probe, in the
    # span of the rows reduced modulo it; the last vector lies in the span of
    # both bases together
    other = EchelonBasis(len(m[0]), field.zero(), field.one())
    other.insert(sparse(probes[0]))
    quotient = EchelonBasis(len(m[0]), field.zero(), field.one())
    for row in m:
        quotient.insert(other.reduce(sparse(row)))
    shifted = [a + field.from_int(mix[0] - 2) * b for a, b in zip(inside, probes[0])]
    for v in probes + [inside, shifted]:
        expected = quotient.coordinates(other.reduce(sparse(v)))
        assert quotient.coordinates(sparse(v), other) == expected
        assert quotient.coordinates(dict(enumerate(v)), other) == expected
        if expected is not None:
            assert_field_scalars(name, expected)
    assert quotient.coordinates(sparse(shifted), other) is not None


@PROPERTY
@given(matrices(square=True))
def test_determinant_matches_a_dense_sweep(named):
    name, m = named
    field = ECHELON_FIELDS[name]
    expected = sweep_determinant(m, field.zero(), field.one())
    det = triangulate(m, field.zero(), field.one())[0]
    assert det == expected
    assert_field_scalars(name, [det])
    # one pass gives the determinant and the whole RREF, singular or not
    det, basis = triangulate(m, field.zero(), field.one())
    assert det == expected
    rows, pivots = sympy_rref(name, m)
    assert basis.pivots == pivots
    assert basis.sparse_rows() == [sparse(r) for r in rows]


@PROPERTY
@given(matrices())
def test_kernel_basis_spans_the_null_space(named):
    name, m = named
    field = ECHELON_FIELDS[name]
    kernel = kernel_basis(m, field.zero(), field.one())
    _, pivots = sympy_rref(name, m)
    free = [j for j in range(len(m[0])) if j not in pivots]
    assert len(kernel) == len(free)
    for k, v in enumerate(kernel):
        assert_field_scalars(name, v)
        assert [v[j] for j in free] == [field.one() if i == k else field.zero()
                                        for i in range(len(free))]
        for row in m:
            total = field.zero()
            for a, b in zip(row, v):
                total = total + a * b
            assert not total


# -- command line -------------------------------------------------------------

# Every input is kept small: at most 5 strands and 6 letters, specht tables up
# to n = 4, and the exhaustive checker only up to 3 strands and length 3.
FIELD_FLAGS = st.sampled_from(
    [("--field", v) for v in ("generic", "rationals", "fp", "Fp", "FP", "q")]
    + [("--p", v) for v in ("2", "3", "5", "4", "1", "-3", "x", str(2**64 + 13))]
    + [("--q", v) for v in ("2", "1/2", "-1", "0", "1/0", "abc", "3")]
)
HECKELINK_FIELD = st.sampled_from(
    [None] * 6 + ["", "generic", "generic:2", "rationals:2", "rationals:1/0",
                  "fp:3:2", "FP:5:3", "fp:4:2", "fp:x:2", "fp:3", "bogus"]
)
LETTERS = st.lists(
    st.sampled_from([str(i) for i in range(-6, 7) if i] + ["0", "x", "1/0"]),
    max_size=6,
).map(" ".join)


@st.composite
def cli_argv(draw):
    argv = draw(st.sampled_from([[], [], ["--format", "json"], ["--format", "xml"]]))
    command = draw(
        st.sampled_from(["reduce", "homfly", "jones", "decompose", "specht", "verify", "x"])
    )
    argv.append(command)
    if command == "verify":
        argv += ["--exhaustive", "--n", str(draw(st.integers(-1, 3)))]
        argv += ["--max-len", str(draw(st.integers(-1, 3)))]
        return argv + draw(st.sampled_from([[], ["--inject-fault"]]))
    if command == "specht":
        argv += draw(st.sampled_from([[], ["--n"]] + [["--n", str(n)] for n in range(-1, 5)]))
    for flag, value in draw(st.lists(FIELD_FLAGS, max_size=3)):
        argv += [flag, value]
    if command == "specht":
        return argv
    strands = draw(st.sampled_from(["1", "2", "3", "5", "0", "-1", "x", "B3:", "B5:", "B:"]))
    if strands.startswith("B"):
        return argv + [f"{strands} {draw(LETTERS)}"]
    return argv + ["--strands", strands, draw(LETTERS)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_argv(), HECKELINK_FIELD)
def test_malformed_cli_input_never_exits_1(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("HECKELINK_FIELD", None)
        if env is not None:
            os.environ["HECKELINK_FIELD"] = env
        try:
            code, from_main = main(argv), True
        except SystemExit as exc:
            code, from_main = exc.code, False
    # a fault injected on purpose is the one way to exit 4
    assert code in ({0, 2, 3, 4} if "--inject-fault" in argv else {0, 2, 3})
    assert "Traceback" not in err.getvalue()
    if code == 2 and from_main:
        assert len(err.getvalue().splitlines()) == 1
