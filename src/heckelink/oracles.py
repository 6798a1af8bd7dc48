"""Independent brute-force references, shipped so builds can re-certify
themselves from the command line.

``sga_mul`` multiplies elements of the symmetric-group algebra by plain
permutation composition, with no quadratic parameters anywhere; at
(q1, q2) = (1, -1) the Hecke product must agree with it coordinatewise.
Nothing in this module calls the Hecke multiplication to produce oracle
values.

``exhaustive_word_closure`` enumerates every braid word up to a length bound
and checks that each single rewrite (free cancellation, far commutation, or
a braid-relation triple) leaves the algebra image unchanged.  Each letter's
image is a unit and folding a letter is linear, so a rewrite inside the
parent word keeps a passing verdict: only the rewrites at a word's end, and
any that failed in the parent, are folded, on packed ints over the rank keys
of ``hecke._rank_keys``.  The image map is injectable so a corrupted
pipeline can be shown to fail; ``faulty_braid_image`` provides one with the
quadratic sign flipped.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Mapping

from .braid import BraidWord, Permutation
from .coefficients import generic_field_context
from . import hecke
from .hecke import HeckeContext, HeckeElement, _Packed


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


def _single_rewrites(
    letters: tuple[int, ...],
) -> list[tuple[str, int, tuple[int, ...]]]:
    """All words one move away: cancellation, far commutation, braid triple.

    Each comes as (move, k, rewritten), where the rewritten word keeps the
    first k letters of ``letters`` and differs at position k.
    """
    out = []
    for k in range(len(letters) - 1):
        x, y = letters[k], letters[k + 1]
        if x == -y:
            out.append(("cancel", k, letters[:k] + letters[k + 2 :]))
        if abs(abs(x) - abs(y)) >= 2:
            out.append(("commute", k, letters[:k] + (y, x) + letters[k + 2 :]))
    for k in range(len(letters) - 2):
        x, y, z = letters[k], letters[k + 1], letters[k + 2]
        if (
            x == z
            and abs(abs(x) - abs(y)) == 1
            and (x > 0) == (y > 0)
        ):
            out.append(("braid", k, letters[:k] + (y, x, y) + letters[k + 3 :]))
    return out


def exhaustive_word_closure(
    n: int,
    max_len: int,
    image_fn: Callable[[BraidWord], HeckeElement] | None = None,
) -> dict:
    """Check every single-move rewrite on every word up to the length bound.

    The walk is depth-first: a visited word's image is its parent's with the
    last letter folded.  A move inside the parent word rewrites this word to
    the parent's rewrite with that letter appended.  The fold is linear over
    the integers, so if the parent's two images agreed (up to the power of
    q_prod that ``same`` allows) these agree too, and are neither folded nor
    compared.  Any other rewrite keeps the word's first k letters, and the
    rest are folded onto the stored image of those k letters.  An injected
    ``image_fn`` inherits nothing: it is called once per word, visited or
    rewritten.

    Without one, an image is (D, m): the packed fold D of a word with m
    inverse letters, which is q_prod^m times its image under
    sigma_i -> T'_i (see ``hecke``).  A rewrite keeps the exponent sum, so
    it keeps the image under sigma_i -> T_i exactly when it keeps this one.
    D is keyed by the ranks of ``hecke._rank_keys``; a walk that folds no
    letter builds no table.  Two images compare after the one with fewer
    inverse letters is multiplied by the missing power of q_prod = -2^K, a
    shift and a sign.

    Exponential by nature and guarded accordingly; the report carries the
    number of checks and any violating pairs.
    """
    if not 1 <= n <= 4 or not 0 <= max_len <= 8:
        raise OracleError(
            f"exhaustive closure is capped at 1 <= n <= 4, 0 <= max_len <= 8 "
            f"(asked for n={n}, max_len={max_len})"
        )
    packed = _Packed(max_len)
    alphabet = [j for i in range(1, n) for j in (i, -i)]
    checked = 0
    violations: list[dict] = []
    # rank keys only for a walk that folds a packed letter
    keys = hecke._rank_keys(n) if image_fn is None and n > 1 and max_len else None
    # prefixes[k] is the image of the visited word's first k letters; rank 0
    # is the identity.
    prefixes = [({0: packed.one()}, 0)]

    def image(word: tuple[int, ...], k: int):
        """Image of ``word``, whose first k letters are the visited word's."""
        if image_fn is not None:
            return image_fn(BraidWord(n, word))
        terms, m = prefixes[k]
        for letter in word[k:]:
            terms = hecke.fold_letter(terms, letter, packed, keys)
            m += letter < 0
        return terms, m

    def same(a, b) -> bool:
        if image_fn is not None:
            return a == b
        (x, mx), (y, my) = sorted((a, b), key=lambda image: image[1])
        if mx == my:
            return x == y
        scale = packed.q_prod ** (my - mx)
        return {w: c * scale for w, c in x.items()} == y

    def visit(letters: tuple[int, ...], inherited: set) -> None:
        """``inherited`` holds the (move, k) of each rewrite of the parent
        word whose image agreed; the same move rewrites ``letters`` to that
        rewrite with the last letter appended, so it agrees too."""
        nonlocal checked
        depth = len(letters)
        word_image = image(letters, max(depth - 1, 0))
        prefixes[depth:] = [word_image]
        agreed = set()
        for move, k, rewritten in _single_rewrites(letters):
            checked += 1
            if (move, k) in inherited or same(image(rewritten, k), word_image):
                agreed.add((move, k))
            else:
                violations.append(
                    {
                        "word": list(letters),
                        "move": move,
                        "rewritten": list(rewritten),
                    }
                )
        if depth < max_len:
            inherit = agreed if image_fn is None else set()
            for j in alphabet:
                visit(letters + (j,), inherit)

    visit((), set())
    return {
        "n": n,
        "max_len": max_len,
        "checked": checked,
        "violations": violations,
    }


def faulty_braid_image(b: BraidWord) -> HeckeElement:
    """A deliberately corrupted braid image: every letter, inverse or not,
    is folded as T_i over a ring whose q1*q2 has the wrong sign.  Exists so
    the exhaustive checker can demonstrate that it detects a broken
    pipeline.  (Flipping the sign for T_i^{-1} as well would give the image
    in another Hecke algebra, which no rewrite can tell apart.)"""
    field = generic_field_context()
    flipped = SimpleNamespace(q_sum=field.q_sum, q_prod=-field.q_prod)
    cur = {Permutation.identity(b.strands): field.one()}
    for letter in b.letters:
        cur = hecke.fold_letter(cur, abs(letter), flipped)
    return HeckeElement(HeckeContext(b.strands, field), cur)
