"""Braid words, permutations, and the moves that preserve braid closures.

A braid word on n strands is a sequence of nonzero integers j with
1 <= |j| <= n-1; the letter j > 0 is the positive crossing between strands
j and j+1, and j < 0 its inverse.  Words multiply by concatenation, and the
projection to the symmetric group sends each letter to the transposition
(|j|, |j|+1).

Composition convention: reading a word left to right multiplies bottom-up,
so the projection of a concatenation uv is the function composition
phi(u) o phi(v), i.e. phi(uv)(i) = phi(u)(phi(v)(i)).  The strand entering
at position i leaves at position phi(b)(i).

Permutations are stored in one-line notation (1-based).  The canonical
reduced word of a permutation is selection-sort form: repeatedly move the
largest remaining value into place.  Any reduced word serves equally well
downstream; the canonical one just makes output reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


# Braid words on more strands are refused: the T_w basis has n! elements and
# the permutation kernels are quadratic in n, so larger counts only run out of
# time or memory.
MAX_STRANDS = 64


class BraidError(ValueError):
    """Invalid braid word or illegal move."""


class BraidSyntaxError(BraidError):
    """A braid word failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class Permutation:
    """An element of the symmetric group on {1, ..., n}, one-line notation."""

    __slots__ = ("images", "_hash", "_word")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise BraidError(f"{images} is not a permutation of 1..{n}")
        self.images = images
        self._hash = hash(images)
        self._word: tuple[int, ...] | None = None

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """Wrap a tuple already known to be a permutation, unchecked."""
        w = object.__new__(cls)
        w.images = images
        w._hash = hash(images)
        w._word = None
        return w

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int) -> Permutation:
        """The simple transposition swapping i and i+1."""
        if not 1 <= i <= n - 1:
            raise BraidError(f"transposition index {i} out of range for degree {n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Function composition: (self * other)(i) = self(other(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise BraidError("degree mismatch in permutation product")
        s = self.images
        return Permutation(s[j - 1] for j in other.images)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def length(self) -> int:
        """Coxeter length: the number of inversions, counted value by value."""
        unseen = list(range(1, len(self.images) + 1))
        count = 0
        for v in self.images:
            count += unseen.index(v)  # the smaller values still to come
            unseen.remove(v)
        return count

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word (selection-sort form).

        For each target value n, n-1, ... the value is marched right into its
        slot by adjacent swaps; undoing the accumulated right-multiplications
        yields a positive word whose letter count equals the length.
        """
        if self._word is not None:
            return self._word
        v = list(self.images)
        n = len(v)
        rev: list[int] = []
        for target in range(n, 1, -1):
            p = v.index(target) + 1
            for i in range(p, target):
                v[i - 1], v[i] = v[i], v[i - 1]
                rev.append(i)
        word = tuple(reversed(rev))
        self._word = word
        return word

    def right_ascent(self, i: int) -> bool:
        """True when multiplying by the transposition (i, i+1) on the right
        increases the length."""
        return self.images[i - 1] < self.images[i]

    def times_transposition(self, i: int) -> Permutation:
        """Right multiplication by (i, i+1): swaps positions i, i+1."""
        imgs = list(self.images)
        imgs[i - 1], imgs[i] = imgs[i], imgs[i - 1]
        return Permutation._trusted(tuple(imgs))

    def left_ascent(self, i: int) -> bool:
        """True when multiplying by (i, i+1) on the left increases length."""
        return self.images.index(i) < self.images.index(i + 1)

    def transposition_times(self, i: int) -> Permutation:
        """Left multiplication by (i, i+1): swaps the values i, i+1."""
        imgs = list(self.images)
        a, b = imgs.index(i), imgs.index(i + 1)
        imgs[a], imgs[b] = i + 1, i
        return Permutation._trusted(tuple(imgs))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out: list[tuple[int, ...]] = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cycle = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cycle.append(i)
                i = self(i)
            out.append(tuple(cycle))
        return out

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def _check_strands(strands: int) -> None:
    """Refuse a strand count below 1 or above MAX_STRANDS."""
    if strands < 1:
        raise BraidError(f"strand count must be >= 1, got {strands}")
    if strands > MAX_STRANDS:
        raise BraidError(f"strand count {strands} exceeds the limit of {MAX_STRANDS}")


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid generators with a declared strand count."""

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        _check_strands(strands)
        letters = tuple(letters)
        for pos, j in enumerate(letters):
            if j == 0 or not 1 <= abs(j) <= strands - 1:
                raise BraidError(
                    f"letter {j} at position {pos} out of range for {strands} strands"
                )
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple(-j for j in reversed(self.letters)))

    def concat(self, other: BraidWord) -> BraidWord:
        if self.strands != other.strands:
            raise BraidError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def render(self) -> str:
        return " ".join(str(j) for j in self.letters)

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {list(self.letters)})"


def parse_braid_word(text: str, strands: int | None = None) -> BraidWord:
    """Parse a braid word: separators are whitespace or commas, with an
    optional inline strand declaration like ``B3: 1 -2 1``."""
    body = text
    offset = 0
    stripped = text.lstrip()
    if stripped[:1] in ("B", "b"):
        head, sep, rest = stripped.partition(":")
        if sep:
            try:
                declared = int(head[1:])
            except ValueError:
                raise BraidSyntaxError(
                    f"bad strand declaration {head!r}", position=0
                ) from None
            if strands is not None and strands != declared:
                raise BraidSyntaxError(
                    f"inline declaration B{declared} conflicts with strands={strands}",
                    position=0,
                )
            strands = declared
            offset = len(text) - len(rest)
            body = rest
    if strands is None:
        raise BraidSyntaxError("no strand count given", position=0)
    _check_strands(strands)
    letters = []
    pos = 0
    for chunk in body.replace(",", " ").split():
        at = body.index(chunk, pos)
        pos = at + len(chunk)
        try:
            j = int(chunk)
        except ValueError:
            raise BraidSyntaxError(
                f"bad letter {chunk!r} at position {offset + at}", position=offset + at
            ) from None
        if j == 0 or abs(j) > strands - 1:
            raise BraidSyntaxError(
                f"generator {j} out of range for {strands} strands "
                f"(position {offset + at})",
                position=offset + at,
            )
        letters.append(j)
    return BraidWord(strands, letters)


def underlying_permutation(b: BraidWord) -> Permutation:
    """The projection to the symmetric group; letter signs are ignored."""
    images = list(range(1, b.strands + 1))
    # The word l1..lk denotes s_{l1} o ... o s_{lk}; appending a letter
    # multiplies on the right, which swaps two positions in one-line notation.
    for j in b.letters:
        i = abs(j)
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(images)


def free_reduced(letters: Iterable[int]) -> list[int]:
    """The letters with adjacent pairs j, -j cancelled."""
    stack: list[int] = []
    for j in letters:
        if stack and stack[-1] == -j:
            stack.pop()
        else:
            stack.append(j)
    return stack


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent letter pairs j, -j."""
    return BraidWord(b.strands, free_reduced(b.letters))


def conjugate(b: BraidWord, a: BraidWord) -> BraidWord:
    """The word a b a^{-1} on the same strand count."""
    if a.strands != b.strands:
        raise BraidError("conjugating braids must share the strand count")
    return a.concat(b).concat(a.inverse())


def stabilize(b: BraidWord, sign: int = 1) -> BraidWord:
    """Add a strand and one crossing with it: b -> iota(b) * sigma_n^{+-1}."""
    if sign not in (1, -1):
        raise BraidError(f"stabilization sign must be +-1, got {sign}")
    return BraidWord(b.strands + 1, b.letters + (sign * b.strands,))


def destabilize(b: BraidWord) -> BraidWord:
    """Inverse of stabilize; requires the final letter to be the only use of
    the last generator."""
    n = b.strands
    if n < 2 or not b.letters:
        raise BraidError("word is too short to destabilize")
    last = b.letters[-1]
    if abs(last) != n - 1:
        raise BraidError(f"final letter {last} is not +-{n - 1}")
    if any(abs(j) == n - 1 for j in b.letters[:-1]):
        raise BraidError(f"generator {n - 1} occurs before the final letter")
    return BraidWord(n - 1, b.letters[:-1])


@dataclass(frozen=True)
class MarkovMoveRecord:
    """One closure-preserving move: conjugation or a (de)stabilization.

    ``kind`` is one of "conjugate", "stabilize+", "stabilize-",
    "destabilize+", "destabilize-"; conjugation carries the conjugating
    word.  Destabilization records only apply to words whose final letter is
    the sole use of the last generator, with the matching sign.
    """

    kind: str
    by: BraidWord | None = None

    _KINDS = ("conjugate", "stabilize+", "stabilize-", "destabilize+", "destabilize-")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise BraidError(f"unknown move kind {self.kind!r}")
        if (self.kind == "conjugate") != (self.by is not None):
            raise BraidError("exactly the conjugate move carries a word")

    def apply(self, b: BraidWord) -> BraidWord:
        if self.kind == "conjugate":
            return conjugate(b, self.by)
        if self.kind == "stabilize+":
            return stabilize(b, +1)
        if self.kind == "stabilize-":
            return stabilize(b, -1)
        wanted = 1 if self.kind == "destabilize+" else -1
        if not b.letters or (1 if b.letters[-1] > 0 else -1) != wanted:
            raise BraidError(f"final letter does not match {self.kind}")
        return destabilize(b)


def writhe(b: BraidWord) -> int:
    """Sum of the letter signs (the exponent sum)."""
    return sum(1 if j > 0 else -1 for j in b.letters)


def bennequin(b: BraidWord) -> int:
    """Exponent sum minus strand count."""
    return writhe(b) - b.strands


def closure_components(b: BraidWord) -> int:
    """Number of components of the closed braid: cycles of the projection."""
    return len(underlying_permutation(b).cycles())


def random_word(rng, strands: int, length: int) -> BraidWord:
    """A uniformly random word; shared by the verification suites."""
    if strands < 2:
        return BraidWord(strands)
    letters = []
    for _ in range(length):
        j = rng.randrange(1, strands)
        letters.append(j if rng.random() < 0.5 else -j)
    return BraidWord(strands, letters)
