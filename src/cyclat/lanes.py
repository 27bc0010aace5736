"""Byte lanes: many vectors of one order at once, one byte a vector.

A column holds one coordinate of a batch of vectors, one byte a vector
(a lane), read as one int, so that one int operation acts on every
lane.  The vector columns of `poset._vector_columns(n)` hold node t in
lane t, and the batches of the lane recursion one pair a lane.  A lane
that holds 0 or 1, or stays below the guard bit 0x80, borrows nothing
from the lane above (L. Lamport, *Multiple byte processing with
full-word instructions*, CACM 18(8), 1975), so every difference and
comparison here runs on whole columns.
"""

from __future__ import annotations

import io
import struct
from functools import lru_cache, reduce
from itertools import chain, combinations
from math import factorial
from operator import itemgetter, or_
from typing import Callable, Iterator, Sequence

from cyclat._pykernels import _fill_plan
from cyclat.errors import CyclatError


def _lane_ints(n: int, columns: Sequence[bytes]) -> dict[tuple[int, int], int]:
    """The columns keyed by their pairs (i, j), each read as one int, one
    byte a lane, little-endian: lane t is node t, and borrows run from
    the lower lanes up."""
    return {pair: int.from_bytes(column, "little")
            for pair, column in zip(combinations(range(1, n + 1), 2), columns)}


def _triple_defects(n: int, v: dict[tuple[int, int], int]
                    ) -> Iterator[tuple[tuple[int, int, int], int]]:
    """Each triple i < j < k with D = v[i,k] - v[i,j] - v[j,k], on the
    columns v of `_lane_ints`.  Lane t of D is node t's defect whenever
    every lane below it holds 0 or 1, since those lanes borrow nothing."""
    for i, j, k in combinations(range(1, n + 1), 3):
        yield (i, j, k), v[i, k] - v[i, j] - v[j, k]


def _word_bits(n: int, size: int, columns: Sequence[int]) -> list[int] | None:
    """The inversion bits B(i, j) = v[1,j] - v[1,i] - v[i,j],
    2 <= i < j <= n in lexicographic order, of the lanes of the columns
    v, each column one int, a byte a lane, in the pair order of
    `poset._vector_columns`; None unless every lane is the vector of a
    canonical word of order n.

    A lane is one exactly when its entries are below 0x80, its adjacent
    entries v[i,i+1] are 0, every B(i, j) is 0 or 1, and every
    B(i,j) + B(j,k) - B(i,k), i < j < k, is 0 or 1.  For B is then a
    tournament on 2..n with no 3-cycle (the sum is -1 or 2 on those),
    so it is transitive, and B(i, j) = [j before i] for exactly one
    canonical word w.  The adjacent entries being 0, v[1,j] is the sum
    of B(k, k+1) over k < j (B(1, 2) = 0), and so v[i,j], which is
    v[1,j] - v[1,i] - B(i, j), is w's by `poset._vector_columns`'
    formula.  Conversely a word's vector has entries at most n - 2 and
    passes.  These sums are v's triple defects (B(i, j) those at
    (1, i, j)), so a lane passes iff it is admitted.  Below the lowest
    failing lane every lane holds 0 or 1 and borrows nothing, so that
    lane shows a bit of 0xfe, and one AND a difference tests every lane.
    """
    v = dict(zip(combinations(range(1, n + 1), 2), columns))
    ones = int.from_bytes(b"\1" * size, "big")
    every = reduce(or_, columns, 0)
    if every < 0 or every >> 8 * size or every & 0x80 * ones or any(
            v[i, i + 1] for i in range(1, n)):
        return None
    letters = range(2, n + 1)
    b = {(i, j): v[1, j] - v[1, i] - v[i, j] for i, j in combinations(letters, 2)}
    not_bits = 0xfe * ones
    if any(d & not_bits for d in chain(b.values(), (
            b[i, j] + b[j, k] - b[i, k] for i, j, k in combinations(letters, 3)))):
        return None
    return list(b.values())


def _split_rows(size: int, columns: Sequence[bytes | int]) -> Iterator[bytes]:
    """Each of the `size` lanes of the C columns as a row: written at
    stride C, cut every C.  A column is its bytes or, as the lane
    recursion holds it, those bytes read as one int; the buffer starts
    zeroed, so a zero int column is not written.  At n = 1 there is no
    column, and every row is the empty vector."""
    width = len(columns)
    if not width:
        return iter([b""] * size)
    lanes = bytearray(width * size)
    for c, column in enumerate(columns):
        if column:
            lanes[c::width] = (column if isinstance(column, bytes)
                               else column.to_bytes(size, "big"))
    return map(itemgetter(0), struct.iter_unpack(f"{width}s", lanes))


def _gather(n: int, rows: Sequence[bytes], ids: Sequence[int]) -> list[int]:
    """The C columns of the node rows at ids in turn, each read as one
    int, a byte a lane: the rows are written into one buffer, and each
    column the recursion reads (`_fill_plan(n)`) is cut from it at
    stride C.  (`bytes.join` would hold 80 bytes a part.)  The adjacent
    columns (i, i+1) are read by none, and are 0 in every node, so they
    stay the int 0."""
    buffer = io.BytesIO()
    buffer.writelines(map(rows.__getitem__, ids))
    lanes, width = buffer.getvalue(), len(rows[0])
    columns = [0] * width
    for ij, _ in _fill_plan(n):
        columns[ij] = int.from_bytes(lanes[ij::width], "big")
    return columns


def _cut_lanes(n: int, columns: Sequence[bytes], ids: Sequence[int]) -> list[int]:
    """`_gather` of the nodes at ids in turn, cut from the columns
    instead of the rows: each column the recursion reads, its bytes at
    ids, taken by one `itemgetter`, read as one int, the first id in the
    highest lane.  For one id `itemgetter` returns that byte, which is
    the one-lane int."""
    pick = itemgetter(*ids)
    lanes = [0] * len(columns)
    for ij, _ in _fill_plan(n):
        picked = pick(columns[ij])
        lanes[ij] = picked if len(ids) == 1 else int.from_bytes(bytes(picked), "big")
    return lanes


def _triangle_lanes(n: int, columns: Sequence[bytes], xs: Sequence[int]) -> tuple[list[int], ...]:
    """`_gather` of the pairs (x, y) for each x of xs in turn and each
    node y >= x in id order, cut from the columns instead of the rows:
    a column's x side is x's byte repeated once per such y, and its y
    side the column from x on."""
    us, vs = [0] * len(columns), [0] * len(columns)
    for ij, _ in _fill_plan(n):
        column = columns[ij]
        us[ij] = int.from_bytes(b"".join(column[x:x + 1] * (len(column) - x) for x in xs), "big")
        vs[ij] = int.from_bytes(b"".join(column[x:] for x in xs), "big")
    return us, vs


_LANE_MAX_N = 65  # the largest order whose lane sums stay below the guard bit


def _column_joins(n: int, size: int, us: Sequence[int],
                  vs: Sequence[int]) -> list[int]:
    """The coordinate columns of `join_flat(n, u, v)` for `size` pairs at
    once, each column one int, one byte a lane: lane k holds the pair
    whose u and v have coordinate c in lane k of us[c] and vs[c], and
    the result's coordinate c is in lane k of column c.

    The kernel's recursion runs on whole columns, as in
    `poset._vector_columns`: X[i,j] is the max of u[i,j], v[i,j] and
    X[i,p] + X[p,j], i < p < j, filled by increasing j - i, and
    X[i,i+1] is 0.  With H the 0x80 of every lane, ((a | H) - b) & H
    flags the lanes where a >= b, provided no lane of a or b reaches
    0x80: each lane then subtracts at most 0x7f from at least 0x80, so
    nothing borrows across lanes.  For admitted u and v every entry is
    at most n - 2, so each sum is at most 2(n - 2): below 0x80 while
    n <= 65, and a larger order is refused.
    """
    if n > _LANE_MAX_N:
        raise CyclatError(f"order {n} exceeds {_LANE_MAX_N}: its lane sums "
                          "could reach the guard bit")
    pick = _lane_max(size)
    out = [0] * len(us)
    for ij, splits in _fill_plan(n):
        best = pick(us[ij], vs[ij])
        for ip, pj in splits:
            best = pick(best, out[ip] + out[pj])
        out[ij] = best
    return out


def _lane_max(size: int) -> Callable[[int, int], int]:
    """The lane-wise max of two columns of `size` lanes whose lanes are
    all below 0x80, as `_column_joins` describes."""
    guard = int.from_bytes(b"\x80" * size, "big")

    def pick(a: int, b: int) -> int:
        ge = ((a | guard) - b) & guard
        ge |= ge - (ge >> 7)  # 0xff in the lanes where a >= b
        return (a ^ b) & ge ^ b
    return pick


def _column_tight(n: int, size: int, us: Sequence[int], vs: Sequence[int],
                  xs: Sequence[int]) -> bool:
    """Whether the columns xs are tight for the pairs of us, vs on every
    lane: X[i,j] is the max of u[i,j], v[i,j] and X[i,p] + X[p,j],
    i < p < j, for every j - i >= 2, on lanes as `_column_joins`.  Each
    side is read from X itself, so the recursion is not rerun."""
    pick = _lane_max(size)
    for ij, splits in _fill_plan(n):
        best = pick(us[ij], vs[ij])
        for ip, pj in splits:
            best = pick(best, xs[ip] + xs[pj])
        if best != xs[ij]:
            return False
    return True


def _dual_lanes(n: int, size: int, columns: Sequence[int]) -> list[int]:
    """M - v in every lane of the columns, on lanes as `_column_joins`,
    with M[i,j] = j - i - 1, the top's vector: v -> M - v is
    `vectors.invert_vector`, which reverses the order.  No entry of an
    admitted vector, or of the join of two, exceeds M's, so no lane
    borrows."""
    ones = int.from_bytes(b"\1" * size, "big")
    return [(j - i - 1) * ones - column
            for (i, j), column in zip(combinations(range(1, n + 1), 2), columns)]


def _column_meets(n: int, size: int, us: Sequence[int],
                  vs: Sequence[int]) -> list[int]:
    """The columns of `meet_flat(n, u, v)`, on lanes as `_column_joins`:
    M - join(M - u, M - v) (`_dual_lanes`), where
    M[i,j] - M[i,p] - M[p,j] = 1 is the meet recursion's + 1."""
    return _dual_lanes(n, size, _column_joins(n, size, _dual_lanes(n, size, us),
                                              _dual_lanes(n, size, vs)))


_FLAG_DIGITS = bytes.maketrans(b"\0\x80", b"01")


def _lane_up_sets(n: int, columns: Sequence[bytes]) -> Callable[[int], int]:
    """The up-set of a node x of order n, bit z set iff x <= z, on the
    vector columns: the AND over the columns c with c[x] > 0 of the
    lanes z with c[z] >= c[x].  Column c is read once, on first use, as
    one int a byte a lane with H, the 0x80 of every lane, set; c[x]
    taken from every lane leaves H where c[z] >= c[x], as in
    `_lane_max`.  The flags are read back as a node bitmask by one
    translate of their bytes."""
    size = factorial(n - 1)
    guard = int.from_bytes(b"\x80" * size, "little")
    ones = guard >> 7

    @lru_cache(maxsize=None)
    def lanes(c: int) -> int:
        return int.from_bytes(columns[c], "little") | guard

    def up_set(x: int) -> int:
        above = guard
        for c, column in enumerate(columns):
            if v := column[x]:
                above &= lanes(c) - v * ones
        return int(above.to_bytes(size, "big").translate(_FLAG_DIGITS), 2)
    return up_set
