"""Affine permutation windows and the interval incarnation of the order.

An affine permutation of order n is a bijection f of the integers with
f(x + n) = f(x) + n and f(1) + ... + f(n) = n(n+1)/2; it is stored as
the window [f(1), ..., f(n)].  The admitted vectors of order n are in
bijection with the interval [identity, interval_top(n)] of the left
weak order, via `window_of_vector` and `vector_of_window`.

A window lies in that interval iff it is strictly increasing and every
two consecutive entries differ by less than n, that is, v[i,i+1] = 0.
Increasing alone is not enough: [-2,2,6] is increasing but outside.
`vector_of_window` and `project` refuse any other window with
NotInIntervalError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from cyclat.errors import (
    InvalidWindowError,
    NotAChainError,
    NotInIntervalError,
)
from cyclat.perm import CircularPermutation, DescentLabel
from cyclat.vectors import AdmittedVector

_ENTRY = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class AffineWindow:
    """Window [f(1), ..., f(n)] of an affine permutation."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InvalidWindowError("empty window")
        if len({a % n for a in self.entries}) != n:
            raise InvalidWindowError(
                f"entries not pairwise distinct mod {n}: {list(self.entries)}")
        if sum(self.entries) != n * (n + 1) // 2:
            raise InvalidWindowError(
                f"entries sum to {sum(self.entries)}, expected {n * (n + 1) // 2}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "AffineWindow":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "AffineWindow":
        """Parse "[a1,a2,...,an]"."""
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise InvalidWindowError(f"expected bracketed window, got {text!r}")
        parts = [part.strip(" ") for part in body[1:-1].split(",")]
        for part in parts:
            if not _ENTRY.fullmatch(part):
                raise InvalidWindowError(
                    f"bad window literal {text!r}: {part!r} is not an ASCII-digit integer")
        return cls(tuple(int(part) for part in parts))

    def __call__(self, x: int) -> int:
        """f(x), extended n-periodically from the window."""
        n = self.n
        p = (x - 1) % n + 1
        return self.entries[p - 1] + (x - p)

    def is_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.entries, self.entries[1:]))

    def as_text(self) -> str:
        return "[" + ",".join(str(a) for a in self.entries) + "]"

    def __repr__(self) -> str:
        return self.as_text()


def compose(f: AffineWindow, g: AffineWindow) -> AffineWindow:
    """The window of f o g (apply g first)."""
    if f.n != g.n:
        raise InvalidWindowError(f"mixed orders {f.n} and {g.n}")
    return AffineWindow(tuple(f(g(x)) for x in range(1, f.n + 1)))


def left_multiply(k: int, f: AffineWindow) -> AffineWindow:
    """The window of s_k o f for a generator s_k, 0 <= k <= n-1.

    The entry congruent to k+1 drops by one and the entry congruent to k
    rises by one.
    """
    n = f.n
    if not (0 <= k <= n - 1):
        raise InvalidWindowError(f"generator index {k} out of range 0..{n - 1}")
    out = list(f.entries)
    for t, a in enumerate(out):
        if a % n == (k + 1) % n:
            out[t] = a - 1
        elif a % n == k % n:
            out[t] = a + 1
    return AffineWindow(tuple(out))


def _spread_bound(f: AffineWindow) -> int:
    return (max(f.entries) - min(f.entries)) // f.n + 2


def inversions(f: AffineWindow) -> set[tuple[int, int]]:
    """The position inversions {(i, j) : 1 <= i <= n, i < j, f(i) > f(j)}.

    Finite; enumerated up to j <= i + n * (spread bound).
    """
    n = f.n
    bound = _spread_bound(f)
    out = set()
    for i in range(1, n + 1):
        fi = f(i)
        for j in range(i + 1, i + n * bound + 1):
            if fi > f(j):
                out.add((i, j))
    return out


def length(f: AffineWindow) -> int:
    """Coxeter length: the number of position inversions.

    For increasing windows this is the closed count
    sum over p < i of floor((a_i - a_p) / n).
    """
    n = f.n
    a = f.entries
    if f.is_increasing():
        return sum((a[i] - a[p]) // n
                   for p in range(n) for i in range(p + 1, n))
    return len(inversions(f))


def weak_leq(f: AffineWindow, g: AffineWindow) -> bool:
    """Left weak order: containment of position-inversion sets.

    Increasing windows compare by the per-pair counts floor((a_j - a_i)/n);
    anything else falls back to explicit set containment (slower).
    """
    if f.n != g.n:
        raise InvalidWindowError(f"mixed orders {f.n} and {g.n}")
    n = f.n
    if f.is_increasing() and g.is_increasing():
        a, b = f.entries, g.entries
        return all((a[j] - a[i]) // n <= (b[j] - b[i]) // n
                   for i in range(n) for j in range(i + 1, n))
    return inversions(f) <= inversions(g)


def interval_top(n: int) -> AffineWindow:
    """The top window: first entry -n(n-3)/2, common difference n-1."""
    if n < 1:
        raise InvalidWindowError(f"order must be >= 1, got {n}")
    c1 = -(n * (n - 3)) // 2
    return AffineWindow(tuple(c1 + i * (n - 1) for i in range(n)))


def window_of_vector(v: AdmittedVector) -> AffineWindow:
    """Window with a_i = i + sum over p<i of v[p,i] - sum over p>i of v[i,p].

    Strictly increasing; ranges over [identity, interval_top] as v ranges
    over admitted vectors.
    """
    a = list(range(1, v.n + 1))
    # v.flat is row-major over the pairs, as combinations lists them
    for (i, j), x in zip(combinations(range(v.n), 2), v.flat):
        a[i] -= x
        a[j] += x
    return AffineWindow(tuple(a))


def _require_in_interval(f: AffineWindow) -> None:
    """Raise NotInIntervalError unless f is strictly increasing with every
    consecutive difference below n: the windows of the interval."""
    n = f.n
    for a, b in zip(f.entries, f.entries[1:]):
        if not 0 < b - a < n:
            raise NotInIntervalError(
                f"window {f.as_text()} is outside the interval: consecutive "
                f"entries {a}, {b} must increase by 1 to {n - 1}")


def window_counts(f: AffineWindow) -> tuple[int, ...]:
    """floor((a_j - a_i) / n) over i < j, row-major; no interval check."""
    a, n = f.entries, f.n
    return tuple((a[j] - a[i]) // n for i in range(n) for j in range(i + 1, n))


def vector_of_window(f: AffineWindow) -> AdmittedVector:
    """Inverse of `window_of_vector`: v[i,j] = floor((a_j - a_i) / n).

    Only windows inside the interval are accepted: strictly increasing,
    with every consecutive difference below n.
    """
    _require_in_interval(f)
    return AdmittedVector(f.n, window_counts(f))


def project(f: AffineWindow) -> CircularPermutation:
    """The circular permutation of vector_of_window(f), read off directly.

    Reduce the window entries to representatives in {1..n}; the inverse
    of that residue word, taken as a cycle, is the projection.  Only
    windows inside the interval are accepted, as for `vector_of_window`.
    """
    n = f.n
    _require_in_interval(f)
    residues = tuple((a - 1) % n + 1 for a in f.entries)
    word = [0] * n
    for i, r in enumerate(residues, start=1):
        word[r - 1] = i
    return CircularPermutation.from_word(tuple(word))


def window_selfcheck(f: AffineWindow) -> bool:
    """Identity satisfied by every window:
    a_i = i - sum over p>i of floor((a_p - a_i)/n)
            + sum over p<i of floor((a_i - a_p)/n)."""
    n = f.n
    a = f.entries
    for i in range(n):
        rhs = (i + 1
               - sum((a[p] - a[i]) // n for p in range(i + 1, n))
               + sum((a[i] - a[p]) // n for p in range(i)))
        if a[i] != rhs:
            return False
    return True


@dataclass(frozen=True)
class SijkFactor:
    """The affine reflection swapping i -> j - k*n and j -> i + k*n."""

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if not (1 <= self.i < self.j):
            raise InvalidWindowError(f"need 1 <= i < j, got ({self.i}, {self.j})")

    def window(self, n: int) -> AffineWindow:
        out = list(range(1, n + 1))
        out[self.i - 1] = self.j - self.k * n
        out[self.j - 1] = self.i + self.k * n
        return AffineWindow(tuple(out))


def chain_factors(n: int, chain: Sequence[DescentLabel]) -> list[SijkFactor]:
    """Reflection factors of a saturated chain from the zero vector.

    The chain must list the edge labels of an upward path starting at the
    zero vector; each label (i, j) raises v[i,j] by one and every
    intermediate vector must be admitted.  The multiplicity k of a factor
    is the running count of its label along the chain.
    """
    flat = list(AdmittedVector.zero(n).flat)
    seen: dict[tuple[int, int], int] = {}
    factors = []
    from cyclat import kernels

    for label in chain:
        i, j = label.as_pair()
        if j > n:
            raise NotAChainError(f"label ({i},{j}) out of range for order {n}")
        flat[kernels.pair_index(n, i, j)] += 1
        if not kernels.is_admitted_flat(n, tuple(flat)):
            raise NotAChainError(
                f"step ({i},{j}) leaves the admitted region")
        seen[i, j] = seen.get((i, j), 0) + 1
        factors.append(SijkFactor(i, j, seen[i, j]))
    return factors


def evaluate_factors(n: int, factors: Iterable[SijkFactor]) -> AffineWindow:
    """Compose the factors left to right (rightmost applied first)."""
    result = AffineWindow.identity(n)
    for factor in reversed(list(factors)):
        result = compose(factor.window(n), result)
    return result


def window_of_chain(n: int, chain: Sequence[DescentLabel]) -> AffineWindow:
    """Evaluate the reflection factorization of a saturated chain."""
    return evaluate_factors(n, chain_factors(n, chain))
