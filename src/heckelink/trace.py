"""Partitions, their braids, and the normalized Markov trace.

The trace is the unique family of linear maps tr: H_n -> R with

    tr(ab) = tr(ba),      tr(b) = tr(T_n iota(b)) = tr(T_n^{-1} iota(b)),

normalized by tr(identity of H_1) = 1; it requires q1 + q2 to be a unit.
Each extra closure component multiplies the trace by
delta = (1 + q1 q2)/(q1 + q2), so on the braid attached to a partition with
k parts the trace is delta^(k-1).

The trace factors through the conditional expectation E: H_n -> H_{n-1},
tr_n = tr_{n-1} o E.  For a basis element T_w let p = w^{-1}(n) and let x be
w with the entry n deleted.  If p = n, then E(T_w) = delta * T_x.  Otherwise
split off the descending chain d_p = s_{n-1} s_{n-2} ... s_p, a minimal coset
representative: w = x d_p, with x fixing n and lengths adding, hence

    T_w = T_x T_{n-1} T_y,   y = s_{n-2} ... s_p,

and E(T_w) = T_x T_y, whose trace is tr_{n-1}(T_y T_x) by cyclicity.

``markov_trace`` takes n - 1 such steps on the whole element.  Each step
sums the terms c_w T_w with p = w^{-1}(n) into X_p = sum c_w T_x (w -> x is
injective there).  The chains T_{n-2} ... T_p share their left factors, so
it sums the X_p, p < n, by Horner's rule, C = T_{p-1} C + X_p from C = X_1,
and returns (q1 + q2) C + (1 + q1 q2) X_n, whose tau_{n-1} is tau_n(h) for
tau_n = (q1 + q2)^(n-1) tr_n; no step divides or stores anything.  The trace
is the coefficient left on one strand divided once by (q1 + q2)^(n-1).

On a braid the trace is an invariant of the closure (Jones, Ann. Math. 126,
1987), so ``trace_of_braid`` factors the closure before any Hecke
arithmetic.  It cancels adjacent letters i, -i, also across the end of the
word.  An unused index j splits the closure into the letters below j on j
strands and those above j on n - j strands, and tr = delta * tr * tr.  An
index j used once is a connected sum (a destabilization when j = 1 or
n - 1): rotate that letter to the end, drop it and split the rest the same
way, and tr = tr * tr.  Each side is factored again until every index of a
piece is used at least twice.  With k split unions and final pieces b_j on
n_j strands,

    tr_n(b) = (1 + q1 q2)^k prod_j tau_{n_j}(b_j) / (q1 + q2)^(k + sum_j (n_j - 1)).

Either way the power of q1 + q2 is known in advance and divided out once,
so over a rational function field it leaves the numerator by exact
polynomial division.  What does not divide needs a gcd only when the
ordinary part of q1 + q2 is not linear: a linear one, as over Q(q1, q2) or
over Q(q) at (-1, q), is irreducible, so the remaining numerator is prime
to it; over Q(s) at (-s, s^3) it is s^2 - 1 and the gcd runs.

Closed braids decompose over the basis T_{w_lambda} of H_n / [H_n, H_n],
the images of the braids b_lambda at (q1, q2) = (-1, q).  The coordinates
of T_w are its class polynomials (Geck-Pfeiffer, Adv. Math. 102, 1993;
Characters of Finite Coxeter Groups and Iwahori-Hecke Algebras, 2000,
Thm 3.2.9 and 8.2).  Equal-length cyclic shifts x -> s x s keep them; a
shift that lowers the length gives T_x = T_s T_{sxs} T_s, hence
f_x = (q1 + q2) f_{sx} - q1 q2 f_{sxs}; and an element with neither has
minimal length in its class, where f is the unit vector at its cycle type.
``decompose_closure`` runs this on the fold's packed ints at (-1, q), on the
rank keys of ``hecke._rank_keys`` on up to 5 strands, whose tables cost
under a millisecond, and on permutations above.  It sums the c_w of each
class, adds each sum times the class polynomial into one int per partition,
and decodes each sum once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .braid import BraidWord, Permutation, free_reduced
from .coefficients import (
    CoefficientError,
    FieldContext,
    divide_by_power,
    generic_field_context,
    generic_one_parameter_context,
    render_scalar,
)
from . import hecke
from .hecke import HeckeContext, HeckeElement, from_braid_word


# the default contexts of trace_of_braid and decompose_closure, built once
_GENERIC = generic_field_context()
_ONE_PARAMETER = generic_one_parameter_context()


class PartitionError(ValueError):
    """Malformed partitions or size mismatches."""


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing sequence of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        parts = tuple(parts)
        if any(p <= 0 for p in parts):
            raise PartitionError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise PartitionError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def render(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order (so any
    partition appears before everything it dominates)."""
    if n < 0:
        raise PartitionError(f"cannot partition {n}")
    out: list[Partition] = []
    prefix: list[int] = []

    def rec(remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part)
            prefix.pop()

    rec(n, n if n > 0 else 1)
    return out


def dominates(mu: Partition, lam: Partition) -> bool:
    """True when every prefix sum of mu is >= the matching prefix sum of lam."""
    if mu.n != lam.n:
        raise PartitionError(f"{mu.render()} and {lam.render()} partition different n")
    total_mu = 0
    total_lam = 0
    for j in range(max(mu.k, lam.k)):
        total_mu += mu.parts[j] if j < mu.k else 0
        total_lam += lam.parts[j] if j < lam.k else 0
        if total_mu < total_lam:
            return False
    return True


def strictly_dominates(mu: Partition, lam: Partition) -> bool:
    return mu != lam and dominates(mu, lam)


def e_restricted(lam: Partition, e: int | float) -> bool:
    """Every consecutive part difference (with a trailing zero) is < e."""
    if e != math.inf and e < 2:
        raise PartitionError(f"e must be >= 2 or infinity, got {e}")
    parts = lam.parts + (0,)
    return all(parts[i] - parts[i + 1] < e for i in range(len(parts) - 1))


def b_lambda(lam: Partition) -> BraidWord:
    """The braid whose closure splits into one descending cycle per part.

    Part m sitting at offset k contributes the block
    sigma_{k+m-1} ... sigma_{k+1}; one-part partitions give the standard
    (m)-cycle braid, and parts of size one contribute straight strands.
    """
    letters: list[int] = []
    offset = 0
    for part in lam.parts:
        letters.extend(range(offset + part - 1, offset, -1))
        offset += part
    return BraidWord(max(lam.n, 1), letters)


# -- the normalized Markov trace -----------------------------------------------


def _expectation(terms: Mapping, n: int, field: FieldContext) -> dict:
    """One scaled trace step H_n -> H_{n-1} on coordinate dicts: tau_n of
    ``terms`` is tau_{n-1} of the result.

    With p = w^{-1}(n) and x = w with the entry n deleted, T_w goes to
    (1 + q1 q2) T_x when p = n and to (q1 + q2) T_{n-2} ... T_p T_x
    otherwise.  That is (q1 + q2) times the conditional expectation up to a
    commutator, which the trace does not see.  The Horner chain folds on the
    left, and one pass scales the chain and the p = n bucket.
    """
    buckets: dict[int, dict[Permutation, object]] = {}
    for w, c in terms.items():
        p = w.images.index(n) + 1
        buckets.setdefault(p, {})[Permutation(w.images[: p - 1] + w.images[p:])] = c
    q_sum, q_prod = field.q_sum, field.q_prod
    chain: dict = {}
    for p in range(1, n):
        if chain:
            chain = hecke.fold_letter(chain, p - 1, field, left=True)
        for x, c in buckets.get(p, {}).items():
            hecke._add_term(chain, x, c)
    out: dict = {}
    for scale, part in ((q_sum, chain), (field.one() + q_prod, buckets.get(n, {}))):
        for x, c in part.items():
            hecke._add_term(out, x, c * scale)
    return out


def _q_sum(field: FieldContext) -> object:
    """q1 + q2, which the trace divides by; it must be a unit."""
    if not field.q_sum:
        raise CoefficientError(
            "the Markov trace needs q1 + q2 to be a unit; context "
            + field.describe()
        )
    return field.q_sum


def _scaled_trace(h: HeckeElement) -> object:
    """tau_n(h) = (q1 + q2)^(n-1) tr_n(h), by n - 1 expectation steps."""
    terms, field = h.terms, h.context.field
    for n in range(h.context.n, 1, -1):
        terms = _expectation(terms, n, field)
    return terms.get(Permutation.identity(1), field.zero())


def markov_trace(h: HeckeElement) -> object:
    """The normalized Markov trace, extended linearly over the support."""
    q_sum = _q_sum(h.context.field)
    return divide_by_power(_scaled_trace(h), q_sum, h.context.n - 1)


def _cyclically_reduced(letters: Sequence[int]) -> list[int]:
    """The word with adjacent pairs i, -i cancelled, also across the wrap."""
    word = free_reduced(letters)
    start, stop = 0, len(word)
    while stop - start > 1 and word[start] == -word[stop - 1]:
        start, stop = start + 1, stop - 1
    return word[start:stop]


def _closure_factors(strands: int, letters: Sequence[int]) -> tuple[int, list]:
    """(k, pieces): the closure is k split unions and connected sums of the
    closures of the pieces (m, word), in each of which every index 1..m-1
    is used at least twice."""
    word = _cyclically_reduced(letters)
    uses = [0] * strands
    for letter in word:
        uses[abs(letter)] += 1
    j = min(range(1, strands), key=uses.__getitem__, default=None)
    if j is None or uses[j] > 1:
        return 0, [(strands, word)]
    if uses[j]:  # a connected sum: rotate the one letter j to the end, drop it
        i = next(i for i, letter in enumerate(word) if abs(letter) == j)
        word = word[i + 1 :] + word[:i]
    below = [a for a in word if abs(a) < j]
    above = [a - j if a > 0 else a + j for a in word if abs(a) > j]
    kx, x = _closure_factors(j, below)
    ky, y = _closure_factors(strands - j, above)
    return (not uses[j]) + kx + ky, x + y


def trace_of_braid(b: BraidWord, field: FieldContext | None = None) -> object:
    """Trace of the Hecke image of a braid word, generic field by default,
    from the scaled traces of the pieces its closure factors into."""
    if field is None:
        field = _GENERIC
    q_sum = _q_sum(field)
    k, pieces = _closure_factors(b.strands, b.letters)
    value, power = (field.one() + field.q_prod) ** k, k
    for m, word in pieces:
        if m > 1:
            image = from_braid_word(BraidWord(m, word), HeckeContext(m, field))
            value, power = value * _scaled_trace(image), power + m - 1
    return divide_by_power(value, q_sum, power)


# -- closure decomposition -------------------------------------------------------


@dataclass(frozen=True)
class ClosureDecomposition:
    """Coordinates of a closed braid in the basis indexed by partitions."""

    n: int
    coefficients: Mapping[Partition, object]

    def __post_init__(self):
        for lam in self.coefficients:
            if lam.n != self.n:
                raise PartitionError(
                    f"{lam.render()} is not a partition of {self.n}"
                )

    def items(self) -> list[tuple[Partition, object]]:
        # Descending parts is ``partitions_of`` order: that order is descending
        # lexicographic, and no partition of n is a proper prefix of another.
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].parts, reverse=True)

    def coefficient(self, lam: Partition):
        return self.coefficients.get(lam)

    def render(self) -> str:
        return ", ".join(f"{lam.render()}: {render_scalar(c)}" for lam, c in self.items())

    def to_json(self) -> dict[str, str]:
        return {lam.render(): render_scalar(c) for lam, c in self.items()}


def _class_polynomial(w, ring, memo: dict, keys: hecke.Keys) -> dict:
    """Coordinates of T_w modulo [H, H] in the basis T_{w_lambda}, w one of
    ``keys``.  Stores (representative, value), one tuple shared by all, for
    every key of the explored shift class of w.  A shift already in the memo
    belongs to the same class, so its entry is the class's and the
    exploration stops there.  ``ring``, a ``FieldContext`` or
    ``hecke._Packed``, carries q_sum, q_prod and one(), as in
    ``hecke.fold_letter``; a missing key counts as 0.  Over packed ints the
    1-norm |f_x| <= 2 |f_sx| + |f_sxs| is at most 3^l(x).

    The shift y = s_i (x s_i) has length l(x) - 2 + 2 a, a the number of
    ascents among x at i on the right and x s_i at i on the left, so no
    length is computed.  The steps and ascents are looked up once per call,
    and a key's permutation is read for n and, at a leaf, its cycle type.

    Raises ``HeckeSizeError`` once the memo and the class being explored
    hold more than ``hecke.MAX_SUPPORT`` keys, each counted once."""
    if w in memo:
        return memo[w][1]
    n = keys.permutation(w).degree
    generators = [(keys.generator(i, False), keys.generator(i, True)) for i in range(1, n)]

    def explore(w) -> dict:
        if w in memo:
            return memo[w][1]
        shift_class, seen, entry = [w], {w}, None
        for x in shift_class:  # the list grows as the class is explored
            for (right, right_ascent), (left, left_ascent) in generators:
                xs = right(x)
                y = left(xs)
                ascents = right_ascent(x) + left_ascent(xs)
                if not ascents:
                    sx, sxs = explore(left(x)), explore(y)
                    entry = w, {
                        lam: ring.q_sum * sx.get(lam, 0) - ring.q_prod * sxs.get(lam, 0)
                        for lam in sx.keys() | sxs.keys()
                    }
                    break
                if ascents == 1 and y not in seen:
                    if y in memo:
                        entry = memo[y]
                        break
                    shift_class.append(y)
                    seen.add(y)
                    if len(memo) + len(shift_class) > hecke.MAX_SUPPORT:
                        raise hecke.HeckeSizeError(
                            "the class polynomials of this closure need more than "
                            f"{hecke.MAX_SUPPORT} permutations, the limit on a fold's support"
                        )
            if entry is not None:
                break
        else:
            cycle_type = sorted(map(len, keys.permutation(w).cycles()), reverse=True)
            entry = w, {Partition(cycle_type): ring.one()}
        for x in shift_class:
            memo[x] = entry
        return entry[1]

    return explore(w)


def decompose_closure(b: BraidWord) -> ClosureDecomposition:
    """Decompose the closure of b over the partition basis at (-1, q) over
    Q(q): fold the cyclically reduced word (a class function does not see
    the rest) on packed ints, on rank keys on up to 5 strands, sum the c_w
    of each class, add each sum times its class polynomial into one int per
    partition, and decode each once.  The fold of L letters has 1-norm at
    most 3^L and l(w) <= min(L, n(n-1)/2) =: M, so sum_w c_w f_w has 1-norm
    at most 3^(L+M), the bound ``_Packed(L + M)`` holds."""
    n = b.strands
    word = _cyclically_reduced(b.letters)
    ring = hecke._Packed(len(word) + min(len(word), n * (n - 1) // 2))
    # rank tables cost 0.7 ms on 5 strands but 5, 60 and 600 ms on 6-8, more
    # than a call saves (~12 us a key) unless it touches most of S_n
    keys, identity = hecke.PERMUTATION_KEYS, Permutation.identity(n)
    if n <= 5:
        keys, identity = hecke._rank_keys(n)[2], 0
    terms = {identity: ring.one()}
    for letter in word:
        terms = hecke.fold_letter(terms, letter, ring, keys)
    memo, sums, totals = {}, {}, {}
    for w, c in terms.items():
        _class_polynomial(w, ring, memo, keys)
        hecke._add_term(sums, memo[w][0], c)
    for representative, c in sums.items():
        for lam, f in memo[representative][1].items():
            hecke._add_term(totals, lam, c * f)
    m = sum(letter < 0 for letter in word)
    units = hecke._packing_units(_ONE_PARAMETER)
    totals = hecke._unpack(totals, _ONE_PARAMETER, units, ring, m, len(word) - 2 * m)
    return ClosureDecomposition(n, totals)
