"""Certificates of the `lattice`, `grading`, `mobius`,
`semidistributive` and `alpha` claims.

Every certificate that proves the lanes the words' vectors
(`nodes_are_words`) compares them with the inversion bits of
`poset._inversion_columns(n)`, handed in by the caller, which in a
check is the run's (`checks.CheckRun.inversions`), the bits its columns
were joined from.

`checks._check_lattice` claims that the order is the closure of its
covers and that every two upper covers of a node have a join.
`covers_certified` proves both from the diagram's columns and rows,
holding no up-set and no threshold mask: `nodes_are_words` proves node
t's row the vector of the t-th canonical word, `unit_steps` every edge
a unit step on its two rows read as ints, `steps_are_covers` the edges
exactly the admitted unit steps x + e_k, which the exchange lemma below
makes the closure, and `cover_joins_tight` the cover pairs' joins a
batch at a time (`HasseDiagram.tight_joins`).  The lane readers stay
in `cyclat.poset`; this module holds the argument.
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

The exchange lemma: for admitted vectors x < z (componentwise) some
x + e_k is admitted and lies below z.  Write D(i, p, j) =
x[i,j] - x[i,p] - x[p,j], i < p < j, for the triple defects of x, each
0 or 1, and a for `affine.window_of_vector(x)`:
a_i = i + sum_{p<i} x[p,i] - sum_{p>i} x[i,p].  The references are to
A. Bjorner and F. Brenti, *Combinatorics of Coxeter Groups*, Springer,
2005.
1. For i < j, a_j - a_i - n x[i,j] = (j - i) - sum_{i<p<j} D(i,p,j)
   + sum_{p<i} D(p,i,j) + sum_{p>j} D(i,j,p).  Expand a_j - a_i and
   write each x[i,p] + x[p,j] (i < p < j) as x[i,j] - D(i,p,j), each
   x[p,j] - x[p,i] (p < i) as x[i,j] + D(p,i,j) and each
   x[i,p] - x[j,p] (p > j) as x[i,j] + D(i,j,p): x[i,j] is counted
   2 + (j - i - 1) + (i - 1) + (n - j) = n times.  The j - i - 1 inner
   defects take off at most j - i - 1, and the n - 1 - (j - i) outer
   ones add at most as many, so the residue lies in [1, n - 1].
2. So a is the window of an affine permutation (§8.3): its entries sum
   to n(n + 1)/2, each x[p,i] entering once with each sign, and by 1
   they are distinct mod n.  It is increasing, its consecutive gaps
   a_{i+1} - a_i are below n (x[i,i+1] = 0), and its counts
   floor((a_j - a_i)/n) are x[i,j].
3. The position inversions of an increasing window, the pairs (p, q)
   with 1 <= p <= n, p < q and a(p) > a(q), are the (j, i + m n),
   i < j, 1 <= m <= floor((a_j - a_i)/n), a(i + m n) being a_i + m n.
   So between increasing windows inversion containment is count
   containment, and the length is the sum of the counts.  The windows
   that are increasing with consecutive gaps below n are exactly those
   whose inversion sets avoid every (p, q), 1 <= p < q <= n, and every
   (i + 1, i + n), 1 <= i < n.  The left weak order is containment of
   position-inversion sets (§3.1, §8.3), so these windows form a lower
   set of it.
4. The counts c of a window of that lower set are admitted:
   c[i,i+1] = 0, and c[i,j] - c[i,p] - c[p,j] is
   floor(A + B) - floor(A) - floor(B), 0 or 1, for
   A = (a_p - a_i)/n and B = (a_j - a_p)/n.
5. Let u and w be the windows of x < z.  By 2 and 3, u < w in the left
   weak order: w = s_1 ... s_m u with the lengths adding, m >= 1, and
   s = s_m has u < s u <= w (the chain property, §3.1).  s u lies in
   the lower set, and its inversion set is u's with one pair more and
   within w's.  So by 3 its counts are x + e_k for one k, below z, and
   by 4 they are admitted.
6. An admitted vector's entries are at most n - 2, so x + e_k is a
   canonical word's vector by `poset._word_bits`' argument, hence a
   node's row (`nodes_are_words`), and by `steps_are_covers` an upper
   cover of x through an edge.  So every node z > x lies above a cover
   of x.  By induction on the sum of z - x, Up(x) is bit x OR the
   up-sets of x's covers, and every edge is a unit step up: the order
   is the closure of the edges.
A certificate that declines proves nothing: the check then walks the
claims node by node (`checks._cover_failure`), which decides and names
the witness.  `checks._check_grading` reads the lemma too: every cover
is a unit step, and on the dual lanes M - v every node above a minimal
one has an admitted step down, so `step_ends` counts the extremes.

Chain conjugators by a closed-form potential (`cyclic_steps`, for
`checks._check_alpha`).  A cover of x swaps a large circular descent
j i of x's word w, j > i + 1, the wrap-around factor j 1 included, and
is labelled (i j) (`poset._cover_rows`).  Let A(x) be w rotated by
m(x) = (sum_j x[1,j]) mod n, A(x)(p) = w[(p + m(x)) mod n], positions
from 0 (`poset.conjugator_potential`).  B(p, q) = [q before p],
2 <= p < q <= n, are the inversion bits, and S[q] the sum of
B(k, k+1) over k < q, so that x[p,q] = S[q] - S[p] - B(p, q)
(`poset._vector_columns`).
1. `nodes_are_words` holds, so lane t is the t-th word's vector; B is
   read off the same blocks (`_word_blocks`).
2. By the exchange lemma the covers of x are exactly the admitted
   x + e_(i,j), i < j: every z > x lies above one, and each raises the
   coordinate sum by 1.  An adjacent coordinate is 0 in every node, so
   j > i + 1.
3. Wherever x + e_(i,j) is admitted, j is the cyclic predecessor of i
   in w: for i = 1, j is the last letter; for i >= 2, B(i, j) = 1 and
   no letter c stands between j and i.  Each is one AND of 0-or-1 lanes
   per (i, j, c) (`_stray_steps`).  So j i is a large circular descent
   of w.  Its swap w' has the vector x + e_(i,j): for i >= 2 it flips
   B(i, j) alone, no B(k, k+1) since j > i + 1, so only x[i,j] moves,
   up by 1; for i = 1 it moves j from the end to the front, which turns
   B(a, j) to 1 for a < j and B(j, b) to 0 for b > j, so S[j] alone
   grows by 1 and only x[1,j] moves, up by 1.  The cover x + e_(i,j) is
   thus labelled (i j), its step's letters.  The same computation holds
   for every large circular descent, so these are all the covers `build`
   lists.
4. So A(x + e_(i,j)) = (i j) o A(x) on every cover: (i j) o A(x) is w
   with the letters i and j swapped, rotated by m(x).  For i >= 2 that
   is w' rotated by m(x), and m does not change.  For i = 1 the swapped
   word is w' rotated by 1, j having moved to the front, and m grows
   by 1.
5. A(bottom) is the identity: node 0 is the word 1 2 ... n, whose
   vector is 0, so m = 0.  It is read at that node.
6. The product of a chain's labels telescopes: every chain from x up
   to y has the conjugator A(y) o A(x)^-1, and every maximal chain
   A(top), read at the last node and compared with
   `poset.conjugator_formula(n)`.
A certificate that declines proves nothing: the check then walks the
diagram's edges and labels (`checks._alpha_walk`), which decides and
names the witness.

Cover independence (`covers_independent`, for `checks._check_mobius`).
Let node x have the upper covers a_1, ..., a_k, and let O_i be the join
of those other than a_i.  By Rota's crosscut theorem (G.-C. Rota, *On
the foundations of combinatorial theory I*, Z. Wahrscheinlichkeitstheorie
2, 1964), mu(x, y) is the sum of (-1)^|S| over the sets S of covers of
x whose join is y, the empty set's join being x.
1. If no a_i lies below O_i, the 2^k joins are distinct.  Two sets
   S != T differ in some a_i, say a_i in S only.  T's covers are among
   the others and x lies below each, so T's join lies below O_i, and
   a_i, which lies below S's join, does not: the joins differ.  Then
   each y is the join of at most one S, and mu(x, y) is 0, 1 or -1.
   Conversely, if a_i <= O_i, the covers other than a_i and all k covers
   have one join, so the test fails exactly where two joins agree.
2. With k <= 2 there is nothing to test: distinct covers of x are
   incomparable, so x, a_1, a_2 and a_1 v a_2 are distinct.
3. The test reads lanes, and a lane O needs only be a node above every
   cover other than a_i: the join O_i then lies below it, and a_i not
   below O puts a_i not below O_i.  So every join the certificate takes
   is tested, a batch at a time, to be a node (`poset._word_bits`) and
   to lie above both of its sides, lane by lane; the lane recursion
   need not give the least bound.  The order is componentwise on the
   lanes.
4. The covers are read off the columns, with no diagram: the lanes are
   first proved the words' vectors (`nodes_are_words`), so every
   admitted vector is a node's lane, and by the exchange lemma the
   covers of x are then exactly its admitted unit steps x + e_k, each
   x's lane plus 1 in column k (`_step_lanes`).  They are taken in the
   order of k.  Where the lanes are not the words' vectors, the
   certificate declines every node.
5. In a meet-semidistributive lattice the test passes at every node:
   a_i ^ a_j = x for j != i, so a_i ^ O_i = x by the law, one cover at
   a time, and a_i is not below O_i.  `semidistributive` checks the
   law; the certificate does not rely on it.

Semidistributivity as a matching of irreducibles (`kappa_matching`, for
`checks._check_semidistributive`).  Let J be the nodes with exactly one
lower cover and M those with exactly one upper cover.  A finite lattice
is meet-semidistributive iff for every j in J, with lower cover j_, the
set K(j) = {x : x >= j_, x not >= j} has a greatest element, and
join-semidistributive iff the dual holds for every m in M (R. Freese,
J. Jezek and J. B. Nation, *Free Lattices*, AMS, 1995, Theorem 2.56).
1. By the exchange lemma the upper covers of a node x are the admitted
   x + e_l.  Applied to M - v (M[i,j] = j - i - 1; v -> M - v maps
   admitted vectors to admitted vectors and reverses the order), it
   makes the lower covers the admitted x - e_l, and every node but the
   bottom has one (bottom < x).  So j in J has one step k down,
   j_ = j - e_k, and m in M one step k up, to m + e_k.
2. The order is componentwise and j = j_ + e_k, so
   K(j) = {x >= j_ : x_k = (j_)_k}.
3. x in K(j) is maximal there iff none of its upper covers x + e_l is
   in K(j).  Each lies above j_, and it keeps x_k iff l != k.  So x is
   maximal iff k is its one step up, or it has none; the top has none
   and lies above j.  The maximal elements of K(j) are thus the m in M
   of step k with m_k = (j_)_k and m >= j_: write R(j, m).
4. K(j) is finite and holds j_, so it has a greatest element iff it
   has exactly one maximal element: j has exactly one R-partner.
5. Dually, for m in M of step k the set {x : x <= m + e_k, x not <= m}
   is {x <= m + e_k : x_k = m_k + 1}, whose minimal elements are the j
   in J of step k with j_k = m_k + 1 and j <= m + e_k.  With
   j_ = j - e_k that is m_k = (j_)_k and m >= j_: the same R(j, m).
6. So the lattice is semidistributive iff every j in J and every m in
   M has exactly one R-partner: R is a perfect matching of J and M,
   the kappa bijection, and |J| = |M|.
The argument rests on two proofs, not on another check's verdict: the
nodes are exactly the admitted vectors (`nodes_are_words`, whose words'
vectors are admitted), and the exchange lemma.  That the order is a
lattice, which the theorem presumes, is the claim of `lattice`; the mask
walk `poset.kappa_failure` presumes it too.
On lanes, `_step_lanes` reads the steps down beside the steps up, off
one pass over the triple defects: x - e_k is admitted iff the defects
with long side k are 1 and those with k a short side 0.  A reader of
one direction asks for that one alone (`UP`, `BOTH`).
Over k, one accumulator holds the lanes with a step, a second those
with two, and a third the OR of k + 1 over the steps, so their bytes
name J and M and each one's step (`_single_steps`).  The lanes are cut
in blocks of `LANE_BLOCK` nodes, and the irreducibles found by scanning
each block's bytes.  The m are
grouped by (k, m_k), and each j is tested against its group, m >= j_
by guard bits on the two rows read as ints.  A certificate that
declines proves nothing: the check then runs the mask walk, which
decides and names the witness.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import partial, reduce
from itertools import combinations, islice
from math import comb, factorial
from operator import itemgetter, lt, or_, sub
from typing import Iterator, Sequence

from cyclat import poset
from cyclat._pykernels import _fill_plan

Inversions = dict[tuple[int, int], bytes]  # `poset._inversion_columns(n)`

# Nodes whose cover pairs are joined in one batch.  On a 2-vCPU host the
# cover pass at n = 9 takes 0.34 s at 256 and 0.32 s at 1024, and one
# unbatched run 0.34 s at a 29 MB traced peak; at n = 8 the peak is
# 0.20 MB at 256 and 0.53 MB at 1024.
COVER_CHUNK = 256

# Lanes that `nodes_are_words`, `irreducibles` and `cyclic_steps` read
# in one block.
LANE_BLOCK = 1 << 15


def covers_certified(diagram: poset.HasseDiagram, inversions: Inversions) -> bool:
    """Whether the certificates prove the two cover claims of
    `checks._check_lattice`: every node the word of its id
    (`nodes_are_words`, against the inversion bits `inversions`), every
    edge a unit step (`unit_steps`), the edges exactly the admitted unit
    steps (`steps_are_covers`), and every cover pair's join a tight
    node.  False proves nothing."""
    if not nodes_are_words(diagram.n, diagram.columns, inversions):
        return False
    steps = unit_steps(diagram)
    if steps is None or not steps_are_covers(diagram, steps):
        return False
    return cover_joins_tight(diagram)


def nodes_are_words(n: int, columns: Sequence[bytes], inversions: Inversions) -> bool:
    """Whether lane t of the order-n vector columns, one byte a node, is
    the vector of the t-th canonical word for every t: the columns pass
    `poset._word_bits`, and the inversion bits it reads are
    `inversions`, the words' bits as `poset._inversion_columns(n)`
    enumerates them, `LANE_BLOCK` lanes at a time (`_word_blocks`).
    Word vectors are admitted, their triple defects being those bits and
    their sums."""
    return _sized(n, columns) and all(
        bits is not None for *_, bits in _word_blocks(n, columns, inversions))


def _sized(n: int, columns: Sequence[bytes]) -> bool:
    """Whether there are C(n, 2) columns of (n-1)! lanes each."""
    return list(map(len, columns)) == [factorial(n - 1)] * comb(n, 2)


def _word_blocks(n: int, columns: Sequence[bytes], inversions: Inversions
                 ) -> Iterator[tuple[int, int, list[int], list[int] | None]]:
    """The order-n columns in blocks (`_spans`): for each, its first
    node, its width, its columns read as ints (`_block`), and the
    inversion bits `poset._word_bits` reads from them where they are
    those of `inversions`, else None."""
    expected = list(inversions.values())
    for first, width in _spans(factorial(n - 1)):
        lanes = _block(columns, first, width)
        bits = poset._word_bits(n, width, lanes)
        yield first, width, lanes, bits if bits == _block(expected, first, width) else None


def _spans(size: int) -> Iterator[tuple[int, int]]:
    """The first lane and the width of each block of `LANE_BLOCK` of the
    size lanes."""
    return ((first, min(LANE_BLOCK, size - first)) for first in range(0, size, LANE_BLOCK))


def _block(columns: Sequence[bytes], first: int, width: int) -> list[int]:
    """Lanes first to first + width - 1 of each column, read as one int
    as `poset._lane_ints` reads a column: lane first + t at byte t."""
    return [int.from_bytes(column[first:first + width], "little") for column in columns]


def unit_steps(diagram: poset.HasseDiagram) -> bytes | None:
    """The coordinate k of each edge whose upper row is its lower row
    plus 1 at k, in edge order; None if some edge is no such step.  The
    rows are read as ints, a byte a coordinate, once a node, so the step
    is their difference, 256 ** (C - 1 - k); no admitted entry is 255,
    so it carries nothing."""
    width = len(diagram.rows[0])
    unit = {256 ** (width - 1 - k): k for k in range(width)}
    row_int = list(map(partial(int.from_bytes, byteorder="big"), diagram.rows)).__getitem__
    highs, lows = map(row_int, diagram.hi), map(row_int, diagram.lo)
    try:
        return bytes(map(unit.__getitem__, map(sub, highs, lows)))
    except KeyError:
        return None


# The directions `_step_lanes` reads, each True for the steps down.
UP, BOTH = (False,), (False, True)


def _step_lanes(n: int, ones: int, v: dict[tuple[int, int], int],
                directions: tuple[bool, ...]) -> list[list[int]]:
    """For each direction, up (False) or down (True), and each coordinate
    k in the pair order of the columns, the lanes of the x with x + e_k
    admitted, or x - e_k, on the lanes v of `poset._lane_ints`, ones the
    1 of each lane; one pass over the triple defects reads every
    direction asked for.  Read where `nodes_are_words` holds, so every
    lane of every `poset._triple_defects` D is 0 or 1 and borrows
    nothing.  Raising x[i,j] raises D by 1 where (i, j) is the long side
    of the triple and lowers it where it is a short side: x + e_k is
    admitted iff the first D are 0 and the others 1, x - e_k iff the
    reverse.  An adjacent k, a long side of no triple and 0 in every
    node, has none."""
    start = {(i, j): ones if j > i + 1 else 0 for i, j in combinations(range(1, n + 1), 2)}
    steps = [(dict(start), down) for down in directions]
    for (i, p, j), d in poset._triple_defects(n, v):
        e = ones - d  # the lanes where D is 0, as d holds those where it is 1
        for lanes, down in steps:
            long, short = (d, e) if down else (e, d)
            lanes[i, j] &= long
            lanes[i, p] &= short
            lanes[p, j] &= short
    return [list(lanes.values()) for lanes, _ in steps]


def _block_steps(n: int, columns: Sequence[bytes], directions: tuple[bool, ...]
                 ) -> Iterator[tuple[int, int, list[list[int]]]]:
    """The order-n columns in blocks (`_spans`): for each, its first
    node, its width, and `_step_lanes`' steps in the directions on it."""
    for first, width in _spans(factorial(n - 1)):
        v = poset._lane_ints(n, [column[first:first + width] for column in columns])
        yield first, width, _step_lanes(n, int.from_bytes(b"\1" * width, "little"), v, directions)


def steps_are_covers(diagram: poset.HasseDiagram, steps: bytes) -> bool:
    """Whether the edges, the coordinate k of each edge's step being
    `steps`, are exactly the admitted unit steps x + e_k of the nodes:
    the edges strictly increase in (lo, hi), so none repeats, and for
    each k the lanes of the steps up (`_block_steps`) are as many as the
    edges whose step is k.  An edge of step k from x has x + e_k as its
    upper row, so x is one of those lanes; two such edges from one x
    would end at one row, which is one node (`nodes_are_words`), and so
    repeat.  The edges of step k then take each lane once, and equal
    counts leave no admitted step without its edge.  The module
    docstring's exchange lemma makes that the closure."""
    edges = zip(diagram.lo, diagram.hi)
    if not all(map(lt, edges, islice(zip(diagram.lo, diagram.hi), 1, None))):
        return False
    counts = [0] * len(diagram.columns)
    for _, _, (up,) in _block_steps(diagram.n, diagram.columns, UP):
        counts = [count + lanes.bit_count() for count, lanes in zip(counts, up)]
    return counts == list(map(steps.count, range(len(diagram.columns))))


def cover_joins_tight(diagram: poset.HasseDiagram) -> bool:
    """Whether the `poset._column_joins` result of every two upper
    covers of every node is a node and tight
    (`HasseDiagram.tight_joins`), in batches of the cover pairs of
    `COVER_CHUNK` nodes."""
    hi, starts, size = diagram.hi, diagram.starts, len(diagram.ranks)
    for first in range(0, size, COVER_CHUNK):
        covers = [hi[starts[x]:starts[x + 1]] for x in range(first, min(first + COVER_CHUNK, size))]
        ys = [y for up in covers for y, _ in combinations(up, 2)]
        zs = [z for up in covers for _, z in combinations(up, 2)]
        if not diagram.tight_joins(ys, zs):
            return False
    return True


def covers_independent(n: int, columns: Sequence[bytes], inversions: Inversions
                       ) -> tuple[list[int], int]:
    """The nodes at which the cover-independence certificate declines,
    in id order, and the lane joins it took, on the order-n vector
    columns.  It proves, at every other node x, that no upper cover of x
    lies below the join of x's other covers, so that mu(x, y) is 0, 1 or
    -1 for every y (module docstring).  Where the columns are not the
    words' vectors (`nodes_are_words`), it declines every node.

    Otherwise the covers of x are its admitted unit steps x + e_k, by
    the exchange lemma, in the order of k: `_step_labels` numbers them
    on the lanes of each block, and `_cover_lanes` adds them to the
    block's lanes, held as rows.  A node of k <= 2 covers needs no
    join.  The nodes of k >= 3 are taken `COVER_CHUNK` ids at a time
    and sorted by k, so that the nodes of at least j covers are the
    lowest lanes of every batch: the last node in lane 0.  A_j holds cover j of those nodes,
    and on the lanes of the nodes that need it, the prefix joins
    P_i = A_1 v ... v A_i and the suffix joins S_i = A_i v ... v A_k
    take k - 2 joins each, and so do the interior
    O_i = P_(i-1) v S_(i+1), with O_1 = S_2 and O_k = P_(k-1): O_i is
    the join of the covers other than cover i.  A lane where A_i <= O_i
    declines its node.  So does every node of a block where some join
    lane is no node (`poset._word_bits`) or not above both of its sides,
    and no lane of that block is read further."""
    size = factorial(n - 1)
    if not nodes_are_words(n, columns, inversions):
        return list(range(size)), 0
    declined: list[int] = []
    joins = 0
    for first, width, (up,) in _block_steps(n, columns, UP):
        counts, labels = _step_labels(up, width)
        rows = list(poset._split_rows(width, [column[first:first + width] for column in columns]))
        label_rows = list(poset._split_rows(width, labels))
        for start in range(0, width, COVER_CHUNK):
            nodes = sorted([t for t in range(start, min(start + COVER_CHUNK, width))
                            if counts[t] >= 3], key=counts.__getitem__)
            if not nodes:
                continue
            flags, taken = _dependent_lanes(n, *_cover_lanes(n, rows, label_rows, nodes,
                                                             [counts[t] for t in nodes]))
            joins += taken
            if flags:
                declined += (first + nodes[len(nodes) - 1 - lane] for lane in range(len(nodes))
                             if flags >> 8 * lane & 0xff)
    return sorted(declined), joins


def _step_labels(up: Sequence[int], width: int) -> tuple[bytes, list[bytes]]:
    """The count of the steps up of each of the width lanes of a block,
    and for each coordinate k, the lanes of x where x + e_k is x's j-th
    step, in the order of k, holding j, and 0 elsewhere; each as bytes,
    a byte a lane.  No lane has 256 steps, so the running count of the
    0-or-1 lanes of `up` carries nothing, and 0xff in the lanes of a
    step cuts it to them."""
    count, labels = 0, []
    for lanes in up:
        count += lanes
        labels.append((count & lanes * 0xff).to_bytes(width, "little"))
    return count.to_bytes(width, "little"), labels


def _cover_lanes(n: int, rows: Sequence[bytes], label_rows: Sequence[bytes],
                 nodes: list[int], counts: list[int]) -> tuple[list[list[int] | None], list[int]]:
    """A_1, ..., A_k of `covers_independent` for one batch of a block,
    its nodes given by their place in the block and sorted by their
    counts of covers, k the most; and at_least[j], the lanes of the
    nodes with at least j covers.  A_j is x plus 1 in column c on the
    lowest at_least[j] lanes, c the coordinate of x's j-th step
    (`_step_labels`).  The block's lanes and labels are held as rows, a
    byte a coordinate, and the batch's rows joined end to end, so that
    one translation of the labels gives the 1s of A_j and one sum adds
    them to x: no entry reaches 256, so nothing carries.  Each column
    the recursion reads is then cut from that sum at stride C, as
    `poset._gather` cuts it; the adjacent columns, which no step raises,
    stay 0."""
    most, size, width = counts[-1], len(nodes), len(rows[0])
    at_least = [size - bisect_left(counts, j) for j in range(most + 2)]
    base = int.from_bytes(b"".join(map(rows.__getitem__, nodes)), "big")
    steps = b"".join(map(label_rows.__getitem__, nodes))
    a: list[list[int] | None] = [None]
    for j in range(1, most + 1):
        ones = int.from_bytes(steps.translate(_ONE_AT[j]), "big")
        cover = (base + ones).to_bytes(len(steps), "big")
        lanes = cover[(size - at_least[j]) * width:]
        a.append([0] * width)
        for ij, _ in _fill_plan(n):
            a[j][ij] = int.from_bytes(lanes[ij::width], "big")
    return a, at_least


# _ONE_AT[j]: the translation of byte j to 1 and of every other byte to 0
_ONE_AT = [bytes(j) + b"\1" + bytes(255 - j) for j in range(256)]


def _dependent_lanes(n: int, a: list[list[int] | None], at_least: list[int]) -> tuple[int, int]:
    """`covers_independent` on one batch of nodes, given as the covers
    A_j of `_cover_lanes` and the counts at_least[j] of their lanes, the
    node of the most covers in lane 0: a nonzero byte in each lane that
    declines, and the lane joins taken.  Round i joins P_i and
    S_(k+1-i) in one batch, and one last batch every interior O_i; each
    batch holds its parts one above the other (`_stack`)."""
    most = len(a) - 1
    taken, sound = 0, True  # sound: every join lane a node above both its sides

    def join(*pairs: tuple[list[int], list[int], int]) -> list[list[int]]:
        nonlocal taken, sound
        lanes = [count for _, _, count in pairs]
        us, vs = (_stack([(pair[side], count) for pair, count in zip(pairs, lanes)])
                  for side in (0, 1))
        size = sum(lanes)
        out = poset._column_joins(n, size, us, vs)
        taken += size
        guard = int.from_bytes(b"\x80" * size, "big")
        sound = sound and poset._word_bits(n, size, out) is not None and \
            _lanes_above(out, us, size) == _lanes_above(out, vs, size) == guard
        return _unstack(out, lanes)

    prefix, suffix = {1: a[1]}, {most: a[most]}  # P_i, S_i on the lanes of >= i + 1, >= i covers
    for i in range(2, most):
        j = most + 1 - i
        prefix[i], joined = join((prefix[i - 1], a[i], at_least[i + 1]),
                                 (a[j], suffix[j + 1], at_least[j + 1]))
        suffix[j] = _splice(a[j], joined, at_least[j + 1])
    interior = join(*((prefix[i - 1], suffix[i + 1], at_least[i + 1]) for i in range(2, most)))
    if not sound:
        return (1 << 8 * at_least[1]) - 1, taken
    others = [None, suffix[2], *(_splice(prefix[i - 1], joined, at_least[i + 1])
                                 for i, joined in zip(range(2, most), interior)), prefix[most - 1]]
    flags = 0  # the lanes are aligned at lane 0, so the ORs line up
    for i in range(1, most + 1):
        flags |= _lanes_above(others[i], a[i], at_least[i])
    return flags, taken


def _lanes_above(highs: Sequence[int], lows: Sequence[int], lanes: int) -> int:
    """0x80 in each of the lanes where highs lies above lows in every
    column, on lanes below 0x80 as `poset._column_joins`."""
    guard = int.from_bytes(b"\x80" * lanes, "big")
    above = guard
    for high, low in zip(highs, lows):
        above &= (high | guard) - low
    return above


def _stack(parts: list[tuple[list[int], int]]) -> list[int]:
    """One batch of the parts, each given as its columns and the count
    of their lowest lanes it takes: the first part in the highest lanes."""
    out = [0] * len(parts[0][0])
    for columns, lanes in parts:
        low = (1 << 8 * lanes) - 1
        out = [o << 8 * lanes | c & low for o, c in zip(out, columns)]
    return out


def _unstack(columns: list[int], lanes: list[int]) -> list[list[int]]:
    """The parts of a `_stack` batch, of these counts of lanes."""
    parts = []
    for count in reversed(lanes):
        low = (1 << 8 * count) - 1
        parts.append([c & low for c in columns])
        columns = [c >> 8 * count for c in columns]
    return parts[::-1]


def _splice(high: list[int], low: list[int], lanes: int) -> list[int]:
    """high's columns with their lowest lanes those of low."""
    return [h >> 8 * lanes << 8 * lanes | c for h, c in zip(high, low)]


def kappa_matching(n: int, columns: Sequence[bytes], inversions: Inversions
                   ) -> tuple[int, int] | None:
    """|J|, and the nodes of J and M with other than one R-partner, on
    the order-n vector columns (module docstring); None unless the
    columns are the words' vectors (`nodes_are_words`).  The order is
    semidistributive iff the second count is 0: R is then a perfect
    matching of J and M."""
    if not nodes_are_words(n, columns, inversions):
        return None
    joins, meets = irreducibles(n, columns)
    partners = kappa_partners(columns, joins, meets)
    matched = Counter(m for found in partners.values() for m in found)
    declined = sum(len(found) != 1 for found in partners.values())
    return len(joins), declined + sum(matched[m] != 1 for m in meets)


def irreducibles(n: int, columns: Sequence[bytes]) -> tuple[dict[int, int], dict[int, int]]:
    """J and M: the nodes with exactly one admitted step down, and those
    with exactly one up, each as {node: the coordinate k of that step},
    in id order.  Read where `nodes_are_words` holds (`_block_steps`,
    `_single_steps`)."""
    joins: dict[int, int] = {}
    meets: dict[int, int] = {}
    for first, width, (up, down) in _block_steps(n, columns, BOTH):
        for found, lanes in ((joins, down), (meets, up)):
            found.update((first + t, k) for t, k in _single_steps(lanes, width))
    return joins, meets


def step_ends(n: int, columns: Sequence[bytes]) -> tuple[int, int]:
    """The counts of the nodes with no admitted step down and of those
    with none up.  Read where `nodes_are_words` holds, so the OR of the
    step lanes (`_block_steps`) holds 1 in each lane that has a step."""
    bottoms = tops = 0
    for _, width, (up, down) in _block_steps(n, columns, BOTH):
        bottoms += width - reduce(or_, down, 0).bit_count()
        tops += width - reduce(or_, up, 0).bit_count()
    return bottoms, tops


def cyclic_steps(n: int, columns: Sequence[bytes], inversions: Inversions) -> int | None:
    """The admitted unit steps of the order-n vector columns, counted,
    where every lane is the word of its id and every step x + e_(i,j)
    has j the cyclic predecessor of i in x's word; None elsewhere.  The
    inversion bits are those each block's `poset._word_bits` read
    (`_word_blocks`), and the steps `_step_lanes`' on the same lanes
    (module docstring, for `checks._check_alpha`)."""
    if not _sized(n, columns):
        return None
    steps = 0
    for _, width, lanes, bits in _word_blocks(n, columns, inversions):
        if bits is None:
            return None
        ones = int.from_bytes(b"\1" * width, "little")
        (up,) = _step_lanes(n, ones, dict(zip(combinations(range(1, n + 1), 2), lanes)), UP)
        if _stray_steps(n, ones, bits, up):
            return None
        steps += sum(map(int.bit_count, up))
    return steps


def _stray_steps(n: int, ones: int, bits: Sequence[int], up: Sequence[int]) -> int:
    """The lanes with an admitted step (i, j), up in the pair order of
    the columns, whose j is not the cyclic predecessor of i in the
    lane's word: for i = 1, some letter c stands after j; for i >= 2,
    j stands after i, or some c between j and i.  bits holds
    B(p, q) = [q before p], 2 <= p < q <= n, one byte a lane, so each
    test is one AND of 0-or-1 lanes per (i, j, c)."""
    letters = range(2, n + 1)
    before = {}  # before[p, q]: the lanes where letter p precedes q
    for (p, q), bit in zip(combinations(letters, 2), bits):
        before[p, q], before[q, p] = ones - bit, bit
    stray = 0
    for (i, j), lanes in zip(combinations(range(1, n + 1), 2), up):
        if not lanes:
            continue
        if i > 1:
            stray |= lanes & before[i, j]
        for c in letters:
            if c != i and c != j:  # c after j, and for i >= 2 before i
                stray |= lanes & before[j, c] & (before[c, i] if i > 1 else ones)
    return stray


def _single_steps(lanes: Sequence[int], width: int) -> Iterator[tuple[int, int]]:
    """Each lane set in exactly one of `lanes`, width lanes of a byte
    each holding 0 or 1, with the index k of that one.  `once` holds the
    lanes set so far, `twice` those set twice, and `steps` the OR of
    k + 1 over the lanes[k] set, k + 1 itself where only lanes[k] is;
    the bytes of once ^ twice are scanned for the lanes, with no int
    shifted."""
    once = twice = steps = 0
    for k, lane in enumerate(lanes, 1):
        steps |= lane * k
        twice |= once & lane
        once |= lane
    single, step = (flags.to_bytes(width, "little") for flags in (once ^ twice, steps))
    t = single.find(1)
    while t >= 0:
        yield t, step[t] - 1
        t = single.find(1, t + 1)


def kappa_partners(columns: Sequence[bytes], joins: dict[int, int],
                   meets: dict[int, int]) -> dict[int, list[int]]:
    """The R-partners of each j of J, in id order: the m of M of j's
    step k whose coordinate k is one below j's, and m >= j - e_k.  The m
    are grouped by (k, m_k); each row is read as an int, a byte a
    coordinate, so m >= j - e_k is one guard-bit test on entries below
    0x80, as `_lanes_above`."""
    width = len(columns)
    guard = int.from_bytes(b"\x80" * width, "big")
    rows = {t: int.from_bytes(bytes(map(itemgetter(t), columns)), "big") for t in [*joins, *meets]}
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m, k in meets.items():
        groups.setdefault((k, columns[k][m]), []).append((m, rows[m]))
    partners = {}
    for j, k in joins.items():
        low = rows[j] - 256 ** (width - 1 - k)
        partners[j] = [m for m, high in groups.get((k, columns[k][j] - 1), ())
                       if (high | guard) - low & guard == guard]
    return partners
