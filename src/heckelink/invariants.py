"""Link invariants of braid closures.

The two-variable invariant of a closed braid is simply the normalized Markov
trace of its Hecke image over the generic field; the substitution

    q1 -> -s,   q2 -> s^3,        s = t^(1/2)

turns it into the Jones polynomial.  Jones is computed as the trace over
Q(s) at (q1, q2) = (-s, s^3), which equals that substitution: specialization
is a ring homomorphism, the trace recursion is polynomial in q1 and q2, and
q1 + q2 = s^3 - s is still a unit in Q(s).  For knots (one-component
closures) only even powers of s survive, so the result is rendered in t;
multi-component links may keep half-integer t-powers and are rendered in s.

As an independent check the Jones polynomial is recomputed from scratch by a
Kauffman bracket state sum.  The oracle shares nothing with the trace
pipeline: its scalars are bare integer Laurent polynomials in the smoothing
variable A, and its loop counting is union-find over strand segments.  Each
crossing is smoothed two ways (for a positive crossing the A-smoothing lets
the strands pass straight through, the B-smoothing caps them off; mirrored
for negative crossings), every state contributes

    A^(#A - #B) * d^(loops - 1),        d = -A^2 - A^{-2},

and the writhe normalization (-A^3)^(-w) times the substitution t = A^(-4)
must reproduce the trace-side Jones polynomial bit for bit.  The smoothing
convention is calibrated so the right-handed trefoil comes out with positive
t-powers and is then frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, closure_components, writhe
from .coefficients import (
    FieldContext,
    LaurentPoly,
    RationalFunction,
    RationalFunctionField,
)
from .trace import trace_of_braid


class InvariantError(ArithmeticError):
    """An internal consistency requirement failed (never a user error)."""


class BracketCapError(ValueError):
    """The state sum was asked to enumerate too many crossings."""


_S_FIELD = RationalFunctionField(("s",))
_S_CONTEXT = FieldContext(
    _S_FIELD, -_S_FIELD.variable("s"), _S_FIELD.variable("s") ** 3
)
_T_VARS = ("t",)


@dataclass(frozen=True)
class JonesPolynomial:
    """A Laurent polynomial in s = t^(1/2) plus the closure component count.

    For one component only even s-powers occur; in general every s-power is
    congruent to (components - 1) mod 2.
    """

    spoly: LaurentPoly
    components: int

    def in_t(self) -> LaurentPoly | None:
        """The same polynomial in t when only even s-powers occur."""
        if any(e[0] % 2 for e in self.spoly.terms):
            return None
        return LaurentPoly(
            _T_VARS, {(e[0] // 2,): c for e, c in self.spoly.terms.items()}
        )

    def render(self) -> str:
        t_form = self.in_t()
        if t_form is not None:
            return t_form.render()
        return self.spoly.render()

    def to_json(self) -> dict:
        t_form = self.in_t()
        poly = t_form if t_form is not None else self.spoly
        coeffs = {
            str(exps[0]): str(coeff)
            for exps, coeff in sorted(
                poly.terms.items(), key=lambda kv: kv[0], reverse=True
            )
        }
        return {
            "variable": poly.variables[0],
            "components": self.components,
            "coefficients": coeffs,
        }


def homflypt(b: BraidWord, field: FieldContext | None = None) -> RationalFunction:
    """The two-variable invariant: the trace of the braid's Hecke image."""
    return trace_of_braid(b, field)


def jones(b: BraidWord) -> JonesPolynomial:
    """The one-variable invariant: the trace over Q(s) at q1=-s, q2=s^3,
    equal to the substitution q1=-s, q2=s^3 into ``homflypt(b)``."""
    value = homflypt(b, _S_CONTEXT)
    if not value.den.is_one():
        raise InvariantError(
            "Jones substitution left a denominator "
            f"{value.den.render()}; the trace pipeline is inconsistent"
        )
    return JonesPolynomial(value.num, closure_components(b))


# -- the state-sum oracle ------------------------------------------------------


def _bracket_add(acc: dict[int, int], shift: int, poly: dict[int, int]) -> None:
    for e, c in poly.items():
        e2 = e + shift
        s = acc.get(e2, 0) + c
        if s:
            acc[e2] = s
        else:
            del acc[e2]


def _loop_powers(max_power: int) -> list[dict[int, int]]:
    """Powers of d = -A^2 - A^{-2} as integer exponent maps."""
    powers = [{0: 1}]
    for _ in range(max_power):
        negated = {e: -c for e, c in powers[-1].items()}
        nxt: dict[int, int] = {}
        _bracket_add(nxt, 2, negated)
        _bracket_add(nxt, -2, negated)
        powers.append(nxt)
    return powers


def _state_loops(b: BraidWord, state: int) -> int:
    """Loop count of one smoothing state, closed around the annulus.

    Bit k of ``state`` picks the cap-cup smoothing for letter k.  Strand
    segments are tracked by union-find; joining two endpoints that already
    share a component closes a loop.
    """
    n = b.strands
    parent = list(range(n))
    frontier = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    loops = 0
    for k, letter in enumerate(b.letters):
        if not (state >> k) & 1:
            continue
        i = abs(letter) - 1
        ra, rb = find(frontier[i]), find(frontier[i + 1])
        if ra == rb:
            loops += 1
        else:
            parent[ra] = rb
        fresh = len(parent)
        parent.append(fresh)
        frontier[i] = frontier[i + 1] = fresh
    for j in range(n):
        ra, rb = find(frontier[j]), find(j)
        if ra == rb:
            loops += 1
        else:
            parent[ra] = rb
    return loops


def kauffman_bracket_oracle(b: BraidWord, cap: int = 16) -> LaurentPoly:
    """The bracket of the closed braid as an integer Laurent polynomial in A.

    Enumerates all 2^c smoothing states, so the crossing count is capped.
    """
    c = len(b.letters)
    if c > cap:
        raise BracketCapError(
            f"{c} crossings exceed the state-sum cap of {cap}"
        )
    d_powers = _loop_powers(b.strands + c)
    acc: dict[int, int] = {}
    # Per-letter exponent contribution of choosing the cap-cup smoothing:
    # for a positive crossing cap-cup is the B-smoothing (A-exponent -2
    # relative to the all-A baseline), for a negative crossing it is the
    # A-smoothing (+2).
    base = 0
    swing = []
    for letter in b.letters:
        if letter > 0:
            base += 1
            swing.append(-2)
        else:
            base -= 1
            swing.append(2)
    for state in range(1 << c):
        shift = base
        s = state
        k = 0
        while s:
            if s & 1:
                shift += swing[k]
            s >>= 1
            k += 1
        loops = _state_loops(b, state)
        _bracket_add(acc, shift, d_powers[loops - 1])
    return LaurentPoly(("A",), {(e,): c for e, c in acc.items()})


def jones_via_bracket(b: BraidWord, cap: int = 16) -> JonesPolynomial:
    """Jones polynomial from the bracket: writhe-normalize, then t = A^(-4)."""
    bracket = kauffman_bracket_oracle(b, cap=cap)
    w = writhe(b)
    sign = -1 if w % 2 else 1
    terms: dict[tuple[int, ...], int] = {}
    for exps, coeff in bracket.terms.items():
        m = exps[0] - 3 * w
        if m % 2:
            raise InvariantError(
                "normalized bracket produced an odd A-power; "
                "the smoothing bookkeeping is inconsistent"
            )
        # s = t^(1/2) = A^(-2)
        terms[(-m // 2,)] = coeff * sign
    return JonesPolynomial(LaurentPoly(("s",), terms), closure_components(b))
