"""Independent brute-force references, shipped so builds can re-certify
themselves from the command line.

``sga_mul`` multiplies elements of the symmetric-group algebra by plain
permutation composition, with no quadratic parameters anywhere; at
(q1, q2) = (1, -1) the Hecke product must agree with it coordinatewise.
Nothing in this module calls the Hecke multiplication to produce oracle
values.

``exhaustive_word_closure`` enumerates every braid word up to a length bound
and checks that each single rewrite (free cancellation, far commutation, or
a braid-relation triple) leaves the algebra image unchanged.  The image map
is injectable so a corrupted pipeline can be shown to fail;
``faulty_braid_image`` provides one with the quadratic sign flipped.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .braid import BraidWord, Permutation
from .coefficients import generic_field_context
from .hecke import HeckeContext, HeckeElement, _multiply_generator, from_braid_word


class OracleError(ValueError):
    pass


# -- the symmetric-group algebra ------------------------------------------------


def sga_mul(
    a: Mapping[Permutation, object], b: Mapping[Permutation, object]
) -> dict[Permutation, object]:
    """Convolution product under permutation composition."""
    degrees = {w.degree for w in a} | {w.degree for w in b}
    if len(degrees) > 1:
        raise OracleError(f"mixed degrees {sorted(degrees)}")
    out: dict[Permutation, object] = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = u * v
            c = cu * cv
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def sga_delta(w: Permutation, one) -> dict[Permutation, object]:
    """The basis element supported on a single permutation."""
    return {w: one}


# -- exhaustive word checking -----------------------------------------------------


def _single_rewrites(letters: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """All words one move away: cancellation, far commutation, braid triple."""
    out = []
    for k in range(len(letters) - 1):
        x, y = letters[k], letters[k + 1]
        if x == -y:
            out.append(("cancel", letters[:k] + letters[k + 2 :]))
        if abs(abs(x) - abs(y)) >= 2:
            out.append(("commute", letters[:k] + (y, x) + letters[k + 2 :]))
    for k in range(len(letters) - 2):
        x, y, z = letters[k], letters[k + 1], letters[k + 2]
        if (
            x == z
            and abs(abs(x) - abs(y)) == 1
            and (x > 0) == (y > 0)
        ):
            out.append(("braid", letters[:k] + (y, x, y) + letters[k + 3 :]))
    return out


def exhaustive_word_closure(
    n: int,
    max_len: int,
    image_fn: Callable[[BraidWord], HeckeElement] | None = None,
) -> dict:
    """Check every single-move rewrite on every word up to the length bound.

    Exponential by nature and guarded accordingly; the report carries the
    number of checks and any violating pairs.
    """
    if n > 4 or not 0 <= max_len <= 8:
        raise OracleError(
            f"exhaustive closure is capped at n <= 4, 0 <= max_len <= 8 "
            f"(asked for n={n}, max_len={max_len})"
        )
    ctx = HeckeContext(n, generic_field_context())
    if image_fn is None:
        image_fn = lambda b: from_braid_word(b, ctx)

    alphabet = [j for i in range(1, n) for j in (i, -i)]
    checked = 0
    violations: list[dict] = []

    def visit(letters: tuple[int, ...]) -> None:
        nonlocal checked
        word_image = image_fn(BraidWord(n, letters))
        for move, rewritten in _single_rewrites(letters):
            checked += 1
            if image_fn(BraidWord(n, rewritten)) != word_image:
                violations.append(
                    {
                        "word": list(letters),
                        "move": move,
                        "rewritten": list(rewritten),
                    }
                )
        if len(letters) < max_len:
            for j in alphabet:
                visit(letters + (j,))

    visit(())
    return {
        "n": n,
        "max_len": max_len,
        "checked": checked,
        "violations": violations,
    }


def faulty_braid_image(b: BraidWord, field=None) -> HeckeElement:
    """A deliberately corrupted braid image: every letter, inverse or not,
    is folded as T_i with the sign of the q1*q2 term in the quadratic rewrite
    flipped.  Exists so the exhaustive checker can demonstrate that it
    detects a broken pipeline.  (Flipping the sign for T_i^{-1} as well would
    give the image in another Hecke algebra, which no rewrite can tell
    apart.)"""
    if field is None:
        field = generic_field_context()
    q_sum, flipped = field.q_sum, -field.q_prod
    cur = {Permutation.identity(b.strands): field.one()}
    for letter in b.letters:
        cur = _multiply_generator(cur, abs(letter), False, False, q_sum, flipped)
    return HeckeElement(HeckeContext(b.strands, field), cur)
