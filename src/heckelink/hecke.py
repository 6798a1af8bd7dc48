"""The Iwahori-Hecke algebra on n strands over an exact coefficient field.

Elements are finitely supported maps from permutations to scalars: the map
IS the coordinate vector in the natural basis T_w indexed by the symmetric
group.  Right multiplication by a generator is the folding rule

    T_w * T_i = T_{w s_i}                              if length goes up,
    T_w * T_i = (q1+q2) T_w - q1 q2 T_{w s_i}          otherwise,

which is the quadratic relation (T_i - q1)(T_i - q2) = 0 in action.  Right
products walk a prefix tree: each T_v of a support hangs off T_{v s_i}, and
x is folded once per edge, so the x * T_v share their common prefixes.  The
product x * y sums them over y; the cell modules read Murphy's vectors off
the same walk.  The tree's paths are reduced words chosen per support, so
associativity of the product doubles as a confluence check and is exercised
heavily by the test suite.

The generators are units:

    T_i^{-1} = ((q1 + q2) - T_i) / (q1 q2),

the unique element with T_i T_i^{-1} = 1 under the quadratic relation, so
braid words map to units and the assignment sigma_i -> T_i extends to a
homomorphism from the braid group.  Every ring folds an inverse letter as
q_prod T_i^{-1} = q_sum - T_i, which divides nothing: a word with m inverse
letters folds to q_prod^m times its image, divided once at the end.

One loop, ``fold_letter``, applies both rules on either side: braid words,
the product walk, the Markov trace steps, the cell modules, the word-closure
oracle and the closure decomposition all call it as ``hecke.fold_letter``,
so the quadratic relation is written down once.
Its ``ring``, a ``FieldContext`` or packed ints, carries q1 + q2 and q1 q2.
It runs over either kind of key, given as ``Keys``: permutations, as in
``HeckeElement``, or the ranks of a fixed coordinate order (``_rank_keys``),
on which a step is a list lookup; ``Keys.rank`` and ``Keys.permutation``
convert between a permutation and its key.  The cell modules, the
word-closure oracle and the closure decomposition on up to 5 strands fold on
ranks, whose tables are built on first use: right ones from the permutation
steps, left ones through the inverses, s_i w = (w^{-1} s_i)^{-1}.  A fold is
refused once its support exceeds ``MAX_SUPPORT``.  Every coordinate map
adds through one rule, ``_add_term``, which drops a key whose sum vanishes,
so no stored coefficient is zero; the fold's split shares the moved term's
update.

Over a field of rational functions in which q1 and q2 are signed monomials,
such as Q(q1, q2), Q(q) at (-1, q) and Q(s) at (-s, s^3), ``from_braid_word``
folds on Python ints through the same loop.  Put q = -q2/q1 and
T_i = -q1 T'_i.  Then

    (T_i - q1)(T_i - q2) = q1^2 (T'_i + 1)(T'_i - q),

so the T'_i satisfy the quadratic relation at (-1, q), with q_sum = q - 1
and q_prod = -q, and T_w = (-q1)^l(w) T'_w.  A braid word b with exponent
sum e(b) maps to (-q1)^e(b) times its image under sigma_i -> T'_i, so the
coefficient of T_w is (-q1)^(e(b) - l(w)) c'_w(q), and the inverse rule
keeps every folded coefficient a polynomial in q over Z.  One letter sends a
term c to c (q - 1) plus c q or -c, or moves it as c or c q, so it at most
triples the dict's 1-norm, the sum of the absolute values of all integer
coefficients.  After L letters every integer coefficient is below 3^L in
absolute value, so with K = bitlength(3^L) + 1 each polynomial is one int,
its value at q = 2^K (Kronecker substitution; von zur Gathen and Gerhard,
Modern Computer Algebra, 8.4), read back once at the end by balanced
base-2^K digits.

At (q1, q2) = (1, -1) the quadratic relation collapses to T_i^2 = 1 and the
algebra becomes the group algebra of the symmetric group; ``to_symmetric_group``
exposes the coordinates for comparison against plain permutation composition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add, attrgetter, gt, methodcaller
from typing import Callable, Mapping, NamedTuple

from .braid import BraidWord, Permutation
from .coefficients import (
    FieldContext,
    LaurentPoly,
    RationalFunction,
    RationalFunctionField,
    Rationals,
    render_scalar,
)


class HeckeError(ValueError):
    """Context mismatches and malformed elements."""


class HeckeSizeError(HeckeError):
    """A fold whose support outgrew ``MAX_SUPPORT``, or a closure
    decomposition that explored more permutations than that."""


MAX_SUPPORT = 40_320
"""The most terms any fold may leave (``fold_letter`` checks it), so
braid letters, products and the Markov trace steps are all bounded.  It is
8!, which no fold on 8 strands or fewer reaches; on more strands the full
twist and the trace steps of w0 pass it and are refused.
``trace.decompose_closure`` bounds the permutations it explores by it too."""


class Keys(NamedTuple):
    """A coordinate system for the basis elements T_w.

    ``generator(i, left)`` gives the pair (step, ascent) of one-argument
    lookups for the generator i on the right (w -> w s_i) or on the left
    (w -> s_i w), the ascent being whether that step raises the length;
    ``last_letter(w)`` is the last letter of the canonical reduced word of w,
    0 for the identity alone; ``permutation(w)`` is the permutation w
    stands for, and its inverse ``rank(w)`` the key of a permutation w."""

    generator: Callable
    last_letter: Callable
    permutation: Callable
    rank: Callable


@lru_cache(maxsize=128)
def _permutation_generator(i: int, left: bool) -> tuple:
    """The Permutation methods for generator i, bound once per (i, side)."""
    if left:
        return methodcaller("transposition_times", i), methodcaller("left_ascent", i)
    return methodcaller("times_transposition", i), methodcaller("right_ascent", i)


def _permutation_last_letter(w: Permutation) -> int:
    word = w.reduced_word()
    return word[-1] if word else 0


def _itself(w):
    return w


PERMUTATION_KEYS = Keys(_permutation_generator, _permutation_last_letter, _itself, _itself)
"""Keys that are the permutations themselves, as in ``HeckeElement``."""


_images = attrgetter("images")


class _RankTables:
    """The lookups of the rank keys, each a list built on first use from
    ``PERMUTATION_KEYS``: per generator and side, the ranks of the steps and
    the ascent bits (``steps``), and the last letter of each rank's reduced
    word (``last_letters``).  Ranks run by length and a step changes it by
    one, so a step is an ascent exactly when it raises the rank.  A
    permutation's rank is found by its one-line notation (``ranks``, the
    one table built up front, which ``rank`` reads); a left step is read
    off the right one through the rank of each inverse (``inverses``), as
    s_i w = (w^{-1} s_i)^{-1}.  Two threads may both build a missing
    table; they build equal lists, and either is kept."""

    __slots__ = ("perms", "ranks", "steps", "last_letters", "inverses")

    def __init__(self, perms: tuple):
        self.perms = perms
        self.ranks = dict(zip(map(_images, perms), range(len(perms))))
        self.steps: dict = {}
        self.last_letters: list | None = None
        self.inverses: list | None = None

    def generator(self, i: int, left: bool) -> tuple:
        table = self.steps.get((i, left))
        if table is None:
            if not left:
                step = PERMUTATION_KEYS.generator(i, False)[0]
                steps = list(map(self.ranks.__getitem__, map(_images, map(step, self.perms))))
            else:
                if self.inverses is None:
                    self.inverses = [self.ranks[w.inverse().images] for w in self.perms]
                right, inverses = self.generator(i, False)[0], self.inverses
                steps = [inverses[right(r)] for r in inverses]
            ascents = list(map(gt, steps, range(len(steps))))
            table = self.steps[i, left] = (steps.__getitem__, ascents.__getitem__)
        return table

    def rank(self, w: Permutation) -> int:
        return self.ranks[w.images]

    def last_letter(self, r: int) -> int:
        if self.last_letters is None:
            self.last_letters = [PERMUTATION_KEYS.last_letter(w) for w in self.perms]
        return self.last_letters[r]


@lru_cache(maxsize=8)
def _rank_keys(n: int) -> Keys:
    """The rank keys on n strands: the permutations of n sorted by
    (length, one-line), the coordinate order, keyed by their positions in
    it, so that rank 0 is the identity.  Their tables (``_RankTables``)
    are built per generator and side on first use."""
    # Lehmer codes, the counts of smaller values right of each position, list
    # in the same lexicographic order as the permutations, and the length of
    # a permutation is the sum of its code
    lengths = map(sum, itertools.product(*map(range, range(n, 0, -1))))
    ordered = sorted(zip(lengths, itertools.permutations(range(1, n + 1))))
    tables = _RankTables(tuple(Permutation._trusted(images) for _, images in ordered))
    return Keys(tables.generator, tables.last_letter, tables.perms.__getitem__, tables.rank)


@dataclass(frozen=True)
class HeckeContext:
    """Strand count plus the coefficient field carrying q1, q2."""

    n: int
    field: FieldContext

    def __post_init__(self):
        if self.n < 1:
            raise HeckeError(f"strand count must be >= 1, got {self.n}")

    def zero_element(self) -> HeckeElement:
        return HeckeElement(self, {})

    def identity(self) -> HeckeElement:
        return HeckeElement(self, {Permutation.identity(self.n): self.field.one()})

    def basis_element(self, w: Permutation) -> HeckeElement:
        return HeckeElement(self, {w: self.field.one()})

    def generator_image(self, i: int, sign: int = 1) -> HeckeElement:
        """T_i for positive sign, T_i^{-1} for negative."""
        if not 1 <= i <= self.n - 1:
            raise HeckeError(f"generator index {i} out of range for n={self.n}")
        return from_braid_word(BraidWord(self.n, [-i if sign < 0 else i]), self)


class HeckeElement:
    """A linear combination of basis elements T_w, stored sparsely.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so elements are safe to share and to use as cache values.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: HeckeContext, terms: Mapping[Permutation, object]):
        clean: dict[Permutation, object] = {}
        for w, c in terms.items():
            if w.degree != context.n:
                raise HeckeError(
                    f"permutation degree {w.degree} != strand count {context.n}"
                )
            if c:
                clean[w] = c
        self.context = context
        self.terms = clean

    # -- linear structure ----------------------------------------------------

    def _check(self, other: HeckeElement) -> None:
        if self.context != other.context:
            raise HeckeError(
                f"context mismatch: {self.context} vs {other.context}"
            )

    def __add__(self, other: HeckeElement) -> HeckeElement:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(terms, w, c)
        return HeckeElement(self.context, terms)

    def __neg__(self) -> HeckeElement:
        return HeckeElement(self.context, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: HeckeElement) -> HeckeElement:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def scalar_mul(self, scalar) -> HeckeElement:
        if not scalar:
            return HeckeElement(self.context, {})
        return HeckeElement(
            self.context, {w: scalar * c for w, c in self.terms.items()}
        )

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other: HeckeElement) -> HeckeElement:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check(other)
        product = _right_product(self.terms, other.terms, self.context.field)
        return HeckeElement(self.context, product)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, w: Permutation):
        return self.terms.get(w, self.context.field.zero())

    def support(self) -> list[Permutation]:
        return sorted(self.terms, key=lambda w: (w.length(), w.images))

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.context, frozenset(self.terms.items())))

    # -- rendering ------------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        one = self.context.field.one()
        for w in _render_order(self.terms):
            c = self.terms[w]
            tw = "T[" + ",".join(str(i) for i in w.images) + "]"
            if c == one:
                pieces.append(tw)
            else:
                pieces.append(f"({render_scalar(c)})*{tw}")
        return " + ".join(pieces)

    def to_json(self) -> list[dict]:
        return [
            {"perm": list(w.images), "coeff": render_scalar(self.terms[w])}
            for w in _render_order(self.terms)
        ]

    def __repr__(self) -> str:
        return f"HeckeElement({self.render()})"


def _render_order(terms: Mapping[Permutation, object]) -> list[Permutation]:
    """Longest elements first, one-line lexicographic among equals."""
    return sorted(terms, key=lambda w: (-w.length(), w.images))


def _add_term(terms: dict, key, value) -> None:
    """terms[key] += value, dropping the key when the sum vanishes."""
    s = terms.get(key)
    s = value if s is None else s + value
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def fold_letter(
    terms: Mapping,
    letter: int,
    ring,
    keys: Keys = PERMUTATION_KEYS,
    left: bool = False,
) -> dict:
    """Multiply a coordinate dict by the image of one signed braid letter:
    T_i for a letter i, q_prod T_i^{-1} for -i, on the right, or on the left
    when ``left``; terms that cancel are pruned.  ``ring``, a
    ``FieldContext`` or ``_Packed`` ints, carries q_sum and q_prod, and the
    dict's keys are those of ``keys``.

    T_w moves to T_{w s_i} (T_{s_i w} on the left) when the length goes the
    letter's way: up for T_i, and down for q_prod T_i^{-1}, which scales it
    by q_prod.  Otherwise the quadratic relation splits it:

        T_w T_i             = q_sum T_w - q_prod T_{w s_i},
        T_w q_prod T_i^{-1} = q_sum T_w - T_{w s_i}.

    Nothing is divided, so the packed ints, where q_prod has no inverse,
    fold alike; the caller divides by q_prod once per inverse letter.
    """
    q_sum, q_prod = ring.q_sum, ring.q_prod
    inverse = letter < 0
    swapped = -1 if inverse else -q_prod
    step, ascent = keys.generator(abs(letter), left)
    out: dict = {}
    for w, c in terms.items():
        if ascent(w) == inverse:  # the split keeps c * q_sum at w
            _add_term(out, w, c * q_sum)
            c *= swapped
        elif inverse:
            c *= q_prod
        _add_term(out, step(w), c)
    if len(out) > MAX_SUPPORT:
        raise HeckeSizeError(
            f"a fold grew to more than {MAX_SUPPORT} terms, the limit on its support"
        )
    return out


def _prefix_products(left: Mapping, support, ring, keys: Keys = PERMUTATION_KEYS):
    """Yield (v, left * T_v), a dict not to be mutated, for each v in
    ``support``, a collection of ``keys``.  Each v hangs off v s_i, i the
    last letter of its reduced word, down to the identity, the one key
    without a last letter; a depth-first walk folds once per edge."""
    if not support:
        return
    last_letter, generator = keys.last_letter, keys.generator
    children: dict = {}
    linked = set()
    root = None
    for v in support:
        while v not in linked:
            linked.add(v)
            i = last_letter(v)
            if not i:
                root = v
                break
            parent = generator(i, False)[0](v)
            children.setdefault(parent, []).append((i, v))
            v = parent
    stack = [(root, 0, left)]
    while stack:
        v, i, cur = stack.pop()
        if i:
            cur = fold_letter(cur, i, ring, keys)
        if v in support:
            yield v, cur
        stack.extend((child, j, cur) for j, child in children.get(v, ()))


def _right_product(left: Mapping, right: Mapping, ring) -> dict:
    """left * right over ``ring``: the sum of d (left * T_v) over the terms
    d T_v of right."""
    product: dict[Permutation, object] = {}
    for v, cur in _prefix_products(left, right, ring):
        d = right[v]
        for u, c in cur.items():
            _add_term(product, u, c * d)
    return product


class _Packed:
    """Z[q] at q = 2^bits: a polynomial whose integer coefficients, its
    digits, are below 2^(bits-1) in absolute value is the int it takes there.
    Like a ``FieldContext`` it hands ``fold_letter`` the quadratic relation at
    (q1, q2) = (-1, q): q_sum = q - 1 and q_prod = -q."""

    __slots__ = ("bits", "q_sum", "q_prod")

    def __init__(self, letters: int):
        """Slots for any polynomial of 1-norm at most 3^letters, the sum
        of its digits' absolute values, as a fold of ``letters`` letters is."""
        self.bits = (3**letters).bit_length() + 1
        self.q_sum = (1 << self.bits) - 1
        self.q_prod = -1 << self.bits

    def one(self) -> int:
        return 1

    def digits(self, value: int) -> list[int]:
        """The balanced base-2^bits digits of ``value``, lowest first."""
        bits, mask, half = self.bits, (1 << self.bits) - 1, 1 << (self.bits - 1)
        out = []
        while value:
            d = value & mask
            value >>= bits
            if d >= half:
                d -= mask + 1
                value += 1
            out.append(d)
        return out


@lru_cache(maxsize=16)
def _packing_units(field: FieldContext) -> tuple | None:
    """The signed monomials -q1 and q = -q2/q1 of ``field``, each as
    (exponents, sign), when both are and q is not constant; then a braid
    word folds over ``field`` on packed ints.  None otherwise."""
    if not isinstance(field.field, RationalFunctionField):
        return None
    units = []
    for x in (-field.q1, -field.q2 / field.q1):
        if not x.den.is_one() or len(x.num.terms) != 1:
            return None
        ((exps, sign),) = x.num.terms.items()
        if sign not in (1, -1):
            return None
        units.append((exps, sign))
    return tuple(units) if any(units[1][0]) else None


def _unpack(terms: Mapping, field: FieldContext, packed: _Packed, letters) -> dict:
    """The image over ``field``, which ``_packing_units`` packs, of the
    packed fold of the signed ``letters``: with m of them inverse and
    exponent sum e, the coefficient of T_w is (-q1)^(e - l(w)) (-q)^(-m)
    sum_k a_k q^k over the digits a_k of T_w's int.  When -q1 = 1 no key is
    read, so the keys may be partitions."""
    (eu, su), (eq, sq) = _packing_units(field)
    m = sum(letter < 0 for letter in letters)
    e = len(letters) - 2 * m
    graded = any(eu) or su < 0  # whether (-q1)^(e - l(w)) depends on w
    variables, den = field.field.variables, field.q1.den  # q1's den is 1
    rows: dict[int, list] = {}  # t -> (exponents, sign) of (-q1)^t (-q)^(-m) q^k
    out = {}
    for w, value in terms.items():
        t = e - w.length() if graded else 0
        row = rows.get(t)
        if row is None:
            sign = (-sq) ** (m % 2) * su ** (t % 2)
            row = rows[t] = [(tuple(t * a - m * b for a, b in zip(eu, eq)), sign)]
        digits = packed.digits(value)
        while len(row) < len(digits):
            exps, sign = row[-1]
            row.append((tuple(map(add, exps, eq)), sign * sq))
        poly = {exps: sign * d for (exps, sign), d in zip(row, digits) if d}
        out[w] = RationalFunction(LaurentPoly._trusted(variables, poly), den)
    return out


def from_braid_word(b: BraidWord, ctx: HeckeContext) -> HeckeElement:
    """Image of a braid word under sigma_i -> T_i, extended to inverses,
    folded on packed ints where ``_packing_units`` allows.  The fold of m
    inverse letters is divided by q_prod^m once, by ``_unpack`` if packed.

    Raises ``HeckeSizeError`` from the first letter whose fold has more than
    ``MAX_SUPPORT`` terms."""
    if b.strands != ctx.n:
        raise HeckeError(
            f"word on {b.strands} strands does not live in H_{ctx.n}"
        )
    units = _packing_units(ctx.field)
    ring = ctx.field if units is None else _Packed(len(b.letters))
    cur: Mapping = {Permutation.identity(ctx.n): ring.one()}
    for letter in b.letters:
        cur = fold_letter(cur, letter, ring)
    m = sum(letter < 0 for letter in b.letters)
    if units is not None:
        cur = _unpack(cur, ctx.field, ring, b.letters)
    elif m:
        scale = ring.q_prod ** -m
        cur = {w: c * scale for w, c in cur.items()}
    return HeckeElement(ctx, cur)


def to_symmetric_group(x: HeckeElement) -> dict[Permutation, object]:
    """Coordinates of x read in the group algebra of the symmetric group.

    Only valid at (q1, q2) = (1, -1), where T_i^2 = 1 and the T_w multiply
    exactly like the permutations w.
    """
    field = x.context.field
    if not isinstance(field.field, Rationals) or field.q1 != 1 or field.q2 != -1:
        raise HeckeError(
            "symmetric-group coordinates need the rational context with "
            "(q1, q2) = (1, -1), got " + field.describe()
        )
    return dict(x.terms)
