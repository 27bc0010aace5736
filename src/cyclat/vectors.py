"""Admitted vectors and their structure.

An admitted vector of order n assigns a natural number v[i,j] to every
pair 1 <= i < j <= n such that adjacent entries v[i,i+1] vanish and

    v[i,j] + v[j,k]  <=  v[i,k]  <=  v[i,j] + v[j,k] + 1   (i < j < k).

The triple defect delta(v, i, j, k) = v[i,k] - v[i,j] - v[j,k] is then a
bit.  Admitted vectors, ordered componentwise, are isomorphic to the
circular-permutation order: `cycle_to_vector` and `vector_to_cycle` are
the two directions.  The componentwise order is a lattice; `join` and
`meet` compute bounds by the triangular recursions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, NoReturn, Sequence

from cyclat import kernels
from cyclat.errors import (
    InvalidTriangulationError,
    NotAdmittedError,
    NotAnInversionSetError,
    PtolemyViolationError,
    QuadNotFlippableError,
)
from cyclat.perm import CircularPermutation, Word


def vector_size(n: int) -> int:
    return n * (n - 1) // 2


@dataclass(frozen=True)
class AdmittedVector:
    """Upper-triangular natural vector satisfying the admissibility bounds.

    Stored dense and row-major over pairs (i, j), i < j, adjacent zeros
    included, so lookups are O(1) at desk scale.
    """

    n: int
    flat: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.flat) != vector_size(self.n):
            raise NotAdmittedError(
                f"flat length {len(self.flat)} does not match order {self.n}",
                kind="shape", where=(self.n,))
        _check_admitted(self.n, self.flat)

    @classmethod
    def zero(cls, n: int) -> "AdmittedVector":
        """The null vector, the bottom of the order."""
        return cls(n, (0,) * vector_size(n))

    @classmethod
    def maximum(cls, n: int) -> "AdmittedVector":
        """The top: v[i,j] = j - i - 1, with every triple defect 1."""
        flat = tuple(j - i - 1
                     for i in range(1, n + 1) for j in range(i + 1, n + 1))
        return cls(n, flat)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "AdmittedVector":
        """Build from rows [[v12..v1n], [v23..v2n], ..., [v(n-1)n]]."""
        n = len(rows) + 1
        expected = [n - i for i in range(1, n)]
        if [len(r) for r in rows] != expected:
            raise NotAdmittedError(
                f"ragged rows {[len(r) for r in rows]}, expected {expected}",
                kind="shape", where=(n,))
        flat = tuple(x if type(x) is int else _not_an_integer(rows)
                     for row in rows for x in row)
        return cls(n, flat)

    def rows(self) -> list[list[int]]:
        """Inverse of `from_rows`."""
        return [list(row) for row in _rows(self.n, self.flat)]

    def __getitem__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        if i == j:
            return 0
        if not (1 <= i < j <= self.n):
            raise IndexError(f"pair {pair} out of range for order {self.n}")
        return self.flat[kernels.pair_index(self.n, i, j)]

    @property
    def rank(self) -> int:
        """Sum of the components; transports the word rank."""
        return sum(self.flat)

    def __le__(self, other: "AdmittedVector") -> bool:
        _same_order(self, other)
        return kernels.leq_flat(self.flat, other.flat)

    def __ge__(self, other: "AdmittedVector") -> bool:
        return other.__le__(self)

    def __lt__(self, other: "AdmittedVector") -> bool:
        return self.flat != other.flat and self.__le__(other)

    def __gt__(self, other: "AdmittedVector") -> bool:
        return other.__lt__(self)


def _same_order(u: AdmittedVector, v: AdmittedVector) -> None:
    if u.n != v.n:
        raise NotAdmittedError(f"mixed orders {u.n} and {v.n}",
                               kind="shape", where=(u.n, v.n))


def _not_an_integer(rows: Sequence[Sequence[object]]) -> NoReturn:
    """Name the first entry of `rows` that is not an int (bools included)."""
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=i + 1):
            if type(x) is not int:
                raise NotAdmittedError(f"entry v[{i},{j}] = {x!r} is not an integer",
                                       kind="not_integer", where=(i, j))
    raise AssertionError("every entry is an integer")


def _rows(n: int, flat: Sequence[int]) -> list[Sequence[int]]:
    """The rows of a flat vector: row i, 1 <= i < n, is v[i, i+1..n],
    the slice of `flat` from the offset of (i, i+1) onwards, n - i long."""
    out, t = [], 0
    for i in range(1, n):
        out.append(flat[t:t + n - i])
        t += n - i
    return out


def _check_admitted(n: int, flat: Sequence[int]) -> None:
    rows = _rows(n, flat)
    for i, row in enumerate(rows, start=1):
        if row[0] != 0:
            raise NotAdmittedError(
                f"adjacent entry v[{i},{i + 1}] = {row[0]} must be 0",
                kind="adjacent_nonzero", where=(i, i + 1))
    if any(x < 0 for x in flat):
        raise NotAdmittedError("negative entry", kind="negative", where=(n,))
    # v[i,k] and v[j,k] for k = j+1..n: row i from (i, j+1) on, zipped
    # against the whole of row j
    for i, ri in enumerate(rows, start=1):
        for j, vij, rj in zip(range(i + 1, n), ri, rows[i:]):
            for k, vik, vjk in zip(range(j + 1, n + 1), ri[j - i:], rj):
                d = vik - vij - vjk
                if d not in (0, 1):
                    raise NotAdmittedError(
                        f"triple ({i},{j},{k}) has defect {d}, must be 0 or 1",
                        kind="delta_out_of_range", where=(i, j, k))


def validate(rows: Sequence[Sequence[int]]) -> AdmittedVector:
    """Validate raw triangular rows, naming the first violation on failure."""
    return AdmittedVector.from_rows(rows)


def delta(v: AdmittedVector, i: int, j: int, k: int) -> int:
    """The bit v[i,k] - v[i,j] - v[j,k], for 1 <= i <= j <= k <= n."""
    if not (1 <= i <= j <= k <= v.n):
        raise IndexError(f"need 1 <= i <= j <= k <= {v.n}, got ({i},{j},{k})")
    return v[i, k] - v[i, j] - v[j, k]


def cycle_to_vector(sigma: CircularPermutation) -> AdmittedVector:
    """The vector of a circular permutation (independent of representative).

    Component (i, j) counts adjacent inversions (k, k+1), i <= k < j, of
    any representative word, minus its (i, j) inversion bit.
    """
    return AdmittedVector(sigma.n, kernels.word_vector(sigma.canon))


def word_from_inversion_set(n: int, inversions: Iterable[tuple[int, int]]) -> Word:
    """The unique word on {1..n} whose inversions by value are `inversions`.

    Letters are inserted in increasing order; letter k must go immediately
    before the block of already-placed letters it is inverted with, which
    exists iff the set satisfies the two closure conditions.

    >>> word_from_inversion_set(4, {(2, 3)})
    (1, 3, 2, 4)
    """
    inv = set()
    for i, j in inversions:
        if not (1 <= i < j <= n):
            raise NotAnInversionSetError(f"pair ({i},{j}) out of range")
        inv.add((i, j))
    word: list[int] = []
    for k in range(1, n + 1):
        after = {i for i in range(1, k) if (i, k) in inv}
        cut = len(word) - len(after)
        if set(word[cut:]) != after:
            raise NotAnInversionSetError(
                f"letters inverted with {k} ({sorted(after)}) are not a "
                f"suffix of {word}")
        word.insert(cut, k)
    return tuple(word)


def vector_to_cycle(v: AdmittedVector) -> CircularPermutation:
    """Inverse of `cycle_to_vector`: the inversion bits of the representative
    word starting with 1 are the defects delta(v, 1, i, j), 2 <= i < j,
    read off row 1 and row i as v[1,j] - v[1,i] - v[i,j]."""
    rows = _rows(v.n, v.flat)
    inv = set()
    for i, ri in enumerate(rows[1:], start=2):
        v1i = rows[0][i - 2]
        for j, v1j, vij in zip(range(i + 1, v.n + 1), rows[0][i - 1:], ri):
            if v1j - v1i - vij == 1:
                inv.add((i, j))
    return CircularPermutation(word_from_inversion_set(v.n, inv))


def join(u: AdmittedVector, v: AdmittedVector) -> AdmittedVector:
    """Least upper bound."""
    _same_order(u, v)
    return AdmittedVector(u.n, kernels.join_flat(u.n, u.flat, v.flat))


def meet(u: AdmittedVector, v: AdmittedVector) -> AdmittedVector:
    """Greatest lower bound."""
    _same_order(u, v)
    return AdmittedVector(u.n, kernels.meet_flat(u.n, u.flat, v.flat))


def invert_vector(u: AdmittedVector) -> AdmittedVector:
    """Order-reversing involution matching cycle inversion: j - i - 1 - u[i,j]."""
    n = u.n
    flat = tuple(j - i - 1 - u[i, j]
                 for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return AdmittedVector(n, flat)


def complement_vector(u: AdmittedVector) -> AdmittedVector:
    """Order-reversing involution matching letter complement:
    j - i - 1 - u[n+1-j, n+1-i]."""
    n = u.n
    flat = tuple(j - i - 1 - u[n + 1 - j, n + 1 - i]
                 for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return AdmittedVector(n, flat)


@lru_cache(maxsize=None)
def _triples(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(combinations(range(1, n + 1), 3))


@lru_cache(maxsize=None)
def _triple_index(n: int) -> Mapping[tuple[int, int, int], int]:
    return {t: x for x, t in enumerate(_triples(n))}


@dataclass(frozen=True)
class DeltaSequence:
    """Bits over triples i < j < k obeying the quadruple exchange relation
    a[i,j,k] + a[i,k,l] = a[i,j,l] + a[j,k,l]."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != len(_triples(self.n)):
            raise PtolemyViolationError(
                f"expected {len(_triples(self.n))} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise PtolemyViolationError("entries must be bits")
        for i, j, k, l in combinations(range(1, self.n + 1), 4):
            if (self[i, j, k] + self[i, k, l]) != (self[i, j, l] + self[j, k, l]):
                raise PtolemyViolationError(
                    f"exchange relation fails on ({i},{j},{k},{l})")

    def __getitem__(self, triple: tuple[int, int, int]) -> int:
        return self.bits[_triple_index(self.n)[triple]]


def delta_sequence_of(v: AdmittedVector) -> DeltaSequence:
    """All triple defects of v, in lexicographic triple order."""
    return DeltaSequence(v.n, tuple(delta(v, *t) for t in _triples(v.n)))


def vector_from_deltas(a: DeltaSequence) -> AdmittedVector:
    """Rebuild the vector: v[i,j] = v[i,i+1] + v[i+1,j] + a[i,i+1,j].

    The choice of intermediate point does not matter; tests pin that down.
    """
    n = a.n
    v = {}
    for d in range(1, n):
        for i in range(1, n - d + 1):
            j = i + d
            if d == 1:
                v[i, j] = 0
            else:
                v[i, j] = v[i, i + 1] + v[i + 1, j] + a[i, i + 1, j]
    flat = tuple(v[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return AdmittedVector(n, flat)


Triangle = tuple[int, int, int]


def _edges_of(tri: Triangle) -> list[tuple[int, int]]:
    i, j, k = tri
    return [(i, j), (j, k), (i, k)]


def _chords_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (p, q), (r, s) = sorted(a), sorted(b)
    return p < r < q < s or r < p < s < q


@dataclass(frozen=True)
class Triangulation:
    """A maximal set of pairwise non-crossing triangles of the convex n-gon.

    Validity is purely combinatorial: n - 2 triangles, each polygon side in
    exactly one triangle, each diagonal in exactly two, no crossing chords.
    """

    n: int
    triangles: frozenset[Triangle]

    def __post_init__(self) -> None:
        n = self.n
        if n < 3:
            raise InvalidTriangulationError(f"polygon needs n >= 3, got {n}")
        for tri in self.triangles:
            if len(set(tri)) != 3 or tuple(sorted(tri)) != tri:
                raise InvalidTriangulationError(f"bad triangle {tri!r}")
            if not all(1 <= x <= n for x in tri):
                raise InvalidTriangulationError(f"vertex out of range in {tri!r}")
        if len(self.triangles) != n - 2:
            raise InvalidTriangulationError(
                f"expected {n - 2} triangles, got {len(self.triangles)}")
        sides = {(i, i + 1) for i in range(1, n)} | {(1, n)}
        counts: dict[tuple[int, int], int] = {}
        for tri in self.triangles:
            for e in _edges_of(tri):
                counts[e] = counts.get(e, 0) + 1
        for e, c in counts.items():
            want = 1 if e in sides else 2
            if c != want:
                raise InvalidTriangulationError(
                    f"edge {e} lies in {c} triangles, expected {want}")
        diagonals = [e for e in counts if e not in sides]
        for a, b in combinations(diagonals, 2):
            if _chords_cross(a, b):
                raise InvalidTriangulationError(f"diagonals {a} and {b} cross")

    @classmethod
    def of(cls, n: int, triangles: Iterable[Sequence[int]]) -> "Triangulation":
        return cls(n, frozenset(tuple(sorted(t)) for t in triangles))


def fan_triangulation(n: int) -> Triangulation:
    """All triangles through vertex 1."""
    return Triangulation.of(n, [(1, k, k + 1) for k in range(2, n)])


def all_triangulations(n: int) -> list[Triangulation]:
    """Every triangulation of the n-gon (Catalan(n-2) of them)."""
    if n < 3:
        raise InvalidTriangulationError(f"polygon needs n >= 3, got {n}")

    def rec(poly: tuple[int, ...]) -> list[frozenset[Triangle]]:
        if len(poly) < 3:
            return [frozenset()]
        first, last = poly[0], poly[-1]
        out = []
        for t in range(1, len(poly) - 1):
            tri = tuple(sorted((first, poly[t], last)))
            for left in rec(poly[: t + 1]):
                for right in rec(poly[t:]):
                    out.append(left | right | {tri})
        return out

    return [Triangulation(n, ts) for ts in rec(tuple(range(1, n + 1)))]


def triangulation_sum(v: AdmittedVector, t: Triangulation) -> int:
    """Sum of the triple defects of v over the triangles of t.

    Equal to v[1, n] for every triangulation; invariant under flips.
    """
    if v.n != t.n:
        raise InvalidTriangulationError(f"orders differ: {v.n} vs {t.n}")
    return sum(delta(v, *tri) for tri in t.triangles)


def mutate(t: Triangulation, quad: Sequence[int]) -> Triangulation:
    """Flip the diagonal of the quadrilateral `quad` inside t."""
    a, b, c, d = sorted(quad)
    if len({a, b, c, d}) != 4:
        raise QuadNotFlippableError(f"not a 4-set: {quad!r}")
    ac_pair = {(a, b, c), (a, c, d)}
    bd_pair = {(a, b, d), (b, c, d)}
    tris = set(t.triangles)
    if ac_pair <= tris:
        new = (tris - ac_pair) | bd_pair
    elif bd_pair <= tris:
        new = (tris - bd_pair) | ac_pair
    else:
        raise QuadNotFlippableError(
            f"quad {quad!r} is not triangulated by a diagonal in t")
    return Triangulation(t.n, frozenset(new))
