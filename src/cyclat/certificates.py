"""Certificates of the cover claims of the `lattice` check.

`checks._check_lattice` claims that the order is the closure of its
covers and that every two upper covers of a node have a join.
`covers_certified` proves both from the diagram's columns and rows,
holding no up-set but those of one path of the diagram:
`nodes_are_words` proves node t's row the vector of the t-th canonical
word, `unit_steps` every edge on its two rows read as ints,
`closure_holds` every node along a spanning tree, and
`cover_joins_tight` the cover pairs' joins a batch at a time
(`HasseDiagram.tight_joins`).  The lane arithmetic stays in
`cyclat.poset`; this module holds the argument.
The check's third claim, on the bounds of its tested pairs, rests on
the same tightness, with the meets on the dual lanes
(`HasseDiagram.tight_bounds`).

"Is a node" is a lane test, not a lookup.  `poset._word_bits` passes
a batch of lanes exactly when each is the vector of some canonical
word, and returns the inversion bits B(i, j) it reads from them.  It
passes on the diagram's columns, and the B it reads there equal
`poset._inversion_columns(n)` column for column, so node t's row is the
t-th word's vector: no two rows are equal, and every word's vector is
a row.  A result lane that passes `_word_bits` is therefore some node's
row, and the certificates never build `vec_index`.
A certificate that declines proves nothing: the check then walks the
claims node by node (`checks._cover_failure`), which decides and names
the witness.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import partial
from itertools import combinations, islice
from math import comb
from operator import gt, sub
from typing import Sequence

from cyclat import poset

# Nodes whose cover pairs are joined in one batch.  On a 2-vCPU host the
# cover pass at n = 9 takes 0.34 s at 256 and 0.32 s at 1024, and one
# unbatched run 0.34 s at a 29 MB traced peak; at n = 8 the peak is
# 0.20 MB at 256 and 0.53 MB at 1024.
COVER_CHUNK = 256


def covers_certified(diagram: poset.HasseDiagram) -> bool:
    """Whether the certificates prove the two cover claims of
    `checks._check_lattice`: every node the word of its id
    (`nodes_are_words`), the edges sorted by their lower ends, every
    edge a unit step, the closure identity at every node, and every
    cover pair's join a tight node.  False proves nothing."""
    size, lo = len(diagram.ranks), diagram.lo
    if not nodes_are_words(diagram) or any(map(gt, lo, islice(lo, 1, None))):
        return False
    steps = unit_steps(diagram)
    if steps is None:
        return False
    starts = array("q", (bisect_left(diagram.lo, t) for t in range(size + 1)))
    return closure_holds(diagram, steps, starts) and cover_joins_tight(diagram, starts)


def nodes_are_words(diagram: poset.HasseDiagram) -> bool:
    """Whether every node t's row is the vector of the t-th canonical
    word: the columns, one byte a node, pass `poset._word_bits`, and the
    inversion bits it reads are `poset._inversion_columns(n)`.  Word
    vectors are admitted, their triple defects being those bits and
    their sums."""
    n, size = diagram.n, len(diagram.ranks)
    if list(map(len, diagram.columns)) != [size] * comb(n, 2):
        return False
    found = poset._word_bits(n, size, [int.from_bytes(c, "big") for c in diagram.columns])
    return found == [int.from_bytes(c, "big") for c in poset._inversion_columns(n).values()]


def unit_steps(diagram: poset.HasseDiagram) -> bytes | None:
    """The coordinate k of each edge whose upper row is its lower row
    plus 1 at k, in edge order; None if some edge is no such step.  The
    rows are read as ints, a byte a coordinate, so the step is their
    difference, 256 ** (C - 1 - k); no admitted entry is 255, so it
    carries nothing."""
    width = len(diagram.rows[0])
    unit = {256 ** (width - 1 - k): k for k in range(width)}
    rows = diagram.rows.__getitem__
    as_int = partial(int.from_bytes, byteorder="big")
    highs, lows = map(as_int, map(rows, diagram.hi)), map(as_int, map(rows, diagram.lo))
    try:
        return bytes(map(unit.__getitem__, map(sub, highs, lows)))
    except KeyError:
        return None


def closure_holds(diagram: poset.HasseDiagram, steps: bytes, starts: Sequence[int]) -> bool:
    """Whether the closure identity holds at every node x, the edges of
    x being `starts[x]:starts[x + 1]` and their coordinates `steps`:
    Up(x) & ~OR{at_least[k][x_k + 1] : k in K(x)} == bit x.  Up(x) is
    Up(p) & at_least[k][x_k] for the first lower cover p = x - e_k, the
    lower end of the first edge up to x, and above_mask at a node with
    none; the tree of first lower covers is walked depth first, so only
    the up-sets of one path are held."""
    at_least, columns, hi = diagram.at_least, diagram.columns, diagram.hi
    first = bytearray(len(hi))  # first[e]: edge e is the first edge up to hi[e]
    reached = bytearray(len(diagram.ranks))
    for e, t in enumerate(hi):
        if not reached[t]:
            reached[t] = first[e] = 1
    stack = [(t, None, diagram.above_mask(t)) for t, seen in enumerate(reached) if not seen]
    while stack:
        x, k, up = stack.pop()
        if k is not None:
            up &= at_least[k][columns[k][x]]
        higher = 0
        for c in steps[starts[x]:starts[x + 1]]:
            higher |= at_least[c][columns[c][x] + 1]
        if up ^ (up & higher) != 1 << x:  # up & ~higher, with no negative int
            return False
        stack += [(hi[e], steps[e], up) for e in range(starts[x], starts[x + 1]) if first[e]]
    return True


def cover_joins_tight(diagram: poset.HasseDiagram, starts: Sequence[int]) -> bool:
    """Whether the `poset._column_joins` result of every two upper
    covers of every node is a node and tight
    (`HasseDiagram.tight_joins`), in batches of the cover pairs of
    `COVER_CHUNK` nodes."""
    hi, size = diagram.hi, len(diagram.ranks)
    for first in range(0, size, COVER_CHUNK):
        covers = [hi[starts[x]:starts[x + 1]] for x in range(first, min(first + COVER_CHUNK, size))]
        ys = [y for up in covers for y, _ in combinations(up, 2)]
        zs = [z for up in covers for _, z in combinations(up, 2)]
        if not diagram.tight_joins(ys, zs):
            return False
    return True
