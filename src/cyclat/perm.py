"""Words, circular permutations, and the graded cover relation.

A permutation of {1, ..., n} is handled as a word: a tuple listing its
letters in one-line order.  A circular permutation (an n-cycle) is the
class of a word under rotation; it is stored canonically as the unique
rotation beginning with 1.

>>> sigma = CircularPermutation.from_word((3, 4, 5, 1, 2))
>>> sigma.canon
(1, 2, 3, 4, 5)
>>> covers_up(sigma)[0]
(DescentLabel(r=1, s=5), (1,5,2,3,4))
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from cyclat import kernels
from cyclat.errors import InvalidWordError

_LETTER = re.compile(r"[0-9]+")

Word = tuple[int, ...]


def check_word(letters: Sequence[int]) -> Word:
    """Validate that `letters` is a permutation of {1, ..., n}, n >= 1."""
    word = tuple(letters)
    n = len(word)
    if n < 1 or sorted(word) != list(range(1, n + 1)):
        raise InvalidWordError(f"not a permutation of 1..{n}: {word!r}")
    return word


def inversion_bit(word: Sequence[int], i: int, j: int) -> int:
    """1 if j appears before i in `word` (an inversion by value), else 0.

    Requires 1 <= i < j <= n.
    """
    n = len(word)
    if not (1 <= i < j <= n):
        raise IndexError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    for letter in word:
        if letter == j:
            return 1
        if letter == i:
            return 0
    raise InvalidWordError(f"{i} and {j} not both present in {word!r}")


def word_rank(word: Sequence[int]) -> int:
    """Rank of the word: k(n-k)-weighted adjacent inversions minus all
    inversions by value.  Rotation-invariant; 0 on 12..n, C(n,3) on n..21."""
    return kernels.word_rank(check_word(word))


def word_text(word: Sequence[int]) -> str:
    """The cycle literal "(a1,a2,...,an)" of a word."""
    return "(" + ",".join(map(str, word)) + ")"


@dataclass(frozen=True, order=True)
class DescentLabel:
    """Transposition (r, s) with r + 1 < s labelling a Hasse edge."""

    r: int
    s: int

    def __post_init__(self) -> None:
        if not (1 <= self.r and self.r + 1 < self.s):
            raise ValueError(f"need 1 <= r, r+1 < s; got ({self.r}, {self.s})")

    def as_pair(self) -> tuple[int, int]:
        return (self.r, self.s)


@dataclass(frozen=True)
class CircularPermutation:
    """An n-cycle, stored as the unique cyclic word beginning with 1."""

    canon: Word

    def __post_init__(self) -> None:
        check_word(self.canon)
        if self.canon[0] != 1:
            raise InvalidWordError(f"canonical word must start with 1: {self.canon!r}")

    @classmethod
    def from_word(cls, letters: Sequence[int]) -> "CircularPermutation":
        """The cycle (w) of any representative word w."""
        return cls(kernels.canonical_rotation(check_word(letters)))

    @classmethod
    def from_text(cls, text: str) -> "CircularPermutation":
        """Parse "(a1,a2,...,an)"; any rotation is accepted."""
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise InvalidWordError(f"expected parenthesized cycle, got {text!r}")
        parts = [part.strip(" ") for part in body[1:-1].split(",")]
        for part in parts:
            if not _LETTER.fullmatch(part):
                raise InvalidWordError(
                    f"bad cycle literal {text!r}: {part!r} is not an ASCII-digit letter")
        return cls.from_word([int(part) for part in parts])

    @classmethod
    def smallest(cls, n: int) -> "CircularPermutation":
        """(1, 2, ..., n), the bottom of the order."""
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def largest(cls, n: int) -> "CircularPermutation":
        """(1, n, n-1, ..., 2), the top of the order."""
        return cls((1,) + tuple(range(n, 1, -1)))

    @property
    def n(self) -> int:
        return len(self.canon)

    @property
    def rank(self) -> int:
        return kernels.word_rank(self.canon)

    def successor(self, x: int) -> int:
        """The image of x under the cycle."""
        k = self.canon.index(x)
        return self.canon[(k + 1) % self.n]

    def as_text(self) -> str:
        return word_text(self.canon)

    def __repr__(self) -> str:
        return word_text(self.canon)


def large_circular_descents(sigma: CircularPermutation) -> set[DescentLabel]:
    """Labels (r, s): letters r whose cyclic predecessor s satisfies s > r + 1.

    These are exactly the labels of the covers above `sigma`.
    """
    return {DescentLabel(r, s) for r, s in kernels.word_descent_labels(sigma.canon)}


def large_circular_ascents(sigma: CircularPermutation) -> set[DescentLabel]:
    """Labels (r, s): letters r whose cyclic successor s satisfies s > r + 1.

    These are exactly the labels of the covers below `sigma`.
    """
    return {DescentLabel(r, s) for r, s in kernels.word_ascent_labels(sigma.canon)}


def covers_up(
    sigma: CircularPermutation,
) -> list[tuple[DescentLabel, CircularPermutation]]:
    """The covers above `sigma`: each circular factor s r with s > r + 1
    replaced by r s.  The cover labelled (r, s) equals (r s) o sigma o (r s)."""
    return [
        (DescentLabel(r, s), CircularPermutation(word))
        for r, s, word in kernels.word_covers_up(sigma.canon)
    ]


def covers_down(
    sigma: CircularPermutation,
) -> list[tuple[DescentLabel, CircularPermutation]]:
    """The covers below `sigma`: each circular factor r s with s > r + 1
    replaced by s r."""
    return [
        (DescentLabel(r, s), CircularPermutation(word))
        for r, s, word in kernels.word_covers_down(sigma.canon)
    ]


def invert(sigma: CircularPermutation) -> CircularPermutation:
    """The inverse cycle; the reversal of any representative word."""
    return CircularPermutation.from_word(sigma.canon[::-1])


def complement(sigma: CircularPermutation) -> CircularPermutation:
    """Conjugation by the longest permutation: each letter k becomes n+1-k."""
    n = sigma.n
    return CircularPermutation.from_word(tuple(n + 1 - a for a in sigma.canon))


def all_cycles(n: int) -> Iterator[CircularPermutation]:
    """All (n-1)! circular permutations, in lexicographic canonical order."""
    from itertools import permutations

    for rest in permutations(range(2, n + 1)):
        yield CircularPermutation((1,) + rest)
