"""Independent brute-force references, shipped so builds can re-certify
themselves from the command line.

``sga_mul`` multiplies elements of the symmetric-group algebra by plain
permutation composition, with no quadratic parameters anywhere; at
(q1, q2) = (1, -1) the Hecke product must agree with it coordinatewise.
Nothing in this module calls the Hecke multiplication to produce oracle
values.

``exhaustive_word_closure`` enumerates every braid word up to a length bound
and checks that each single rewrite (free cancellation, far commutation, or
a braid-relation triple) leaves the algebra image unchanged.  Images are
folded along the depth-first walk: a word's image is its parent's with one
more letter folded, and a rewrite's is folded onto the image of the longest
prefix it shares with a word or rewrite already folded.  They are folded on
packed ints, as ``from_braid_word`` folds over Q(q1, q2), on the rank keys
that the cell modules use (``hecke._rank_keys``), so a step is a list
lookup, and compared packed.  The image map is injectable so a corrupted
pipeline can be shown to fail; an injected map is called once per word, and
``faulty_braid_image`` provides one with the quadratic sign flipped.
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

    By default images are folded along the depth-first walk.  A visited
    word's image is its parent's with its last letter folded.  When a move
    lies inside the parent word, the rewritten word is the parent's rewrite
    with that letter appended, so its image is the parent's rewrite image
    with one fold.  Any other rewrite keeps the word's first k letters, and
    its remaining letters are folded onto the image of those k letters,
    kept on a prefix stack.  ``from_braid_word`` folds the same letters from
    the identity in the same order and passes through each of these
    starting images, so every image equals the one it builds.  An injected
    ``image_fn`` is called once per word, visited or rewritten.

    Without one, an image is (D, m): the packed fold D of a word with m
    inverse letters, which is q_prod^m times its image under
    sigma_i -> T'_i (see ``hecke``).  A rewrite keeps the exponent sum, so
    it keeps the image under sigma_i -> T_i exactly when it keeps this one.
    Slots wide enough for ``max_len`` letters serve every word, and D is
    keyed by the ranks of ``hecke._rank_keys``, whose tables the first fold
    builds; a walk that folds no letter builds none.  Two images
    compare after the one with fewer inverse letters is multiplied by the
    missing power of q_prod = -2^K, a shift and a sign.

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

    def image(word: tuple[int, ...], k: int, start):
        """Image of ``word``, given the image ``start`` of its first k letters."""
        if image_fn is not None:
            return image_fn(BraidWord(n, word))
        terms, m = start
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

    def visit(letters: tuple[int, ...], parent_images: dict) -> None:
        """``parent_images`` maps the (move, k) of each rewrite of the parent
        word to its image; the same move rewrites ``letters`` to that rewrite
        with the last letter appended."""
        nonlocal checked
        depth = len(letters)
        last = max(depth - 1, 0)
        word_image = image(letters, last, prefixes[last])
        prefixes[depth:] = [word_image]
        images = {}
        for move, k, rewritten in _single_rewrites(letters):
            checked += 1
            shared = parent_images.get((move, k))
            if shared is None:
                images[move, k] = image(rewritten, k, prefixes[k])
            else:
                images[move, k] = image(rewritten, len(rewritten) - 1, shared)
            if not same(images[move, k], word_image):
                violations.append(
                    {
                        "word": list(letters),
                        "move": move,
                        "rewritten": list(rewritten),
                    }
                )
        if depth < max_len:
            for j in alphabet:
                visit(letters + (j,), images)

    visit((), {})
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
