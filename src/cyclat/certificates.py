"""Certificates of the `lattice`, `grading`, `mobius`,
`semidistributive` and `alpha` claims.

The certificates read the vector columns in blocks of `LANE_BLOCK`
nodes, and read no step lane off a block before they prove it the
words' vectors (`_proved_blocks`).  `lanes._word_bits` passes a batch
of lanes exactly when each is the vector of some canonical word, and
returns the inversion bits B(i, j) it reads from them.  Where it passes
on every block and the B equal `poset._inversion_columns(n)`, handed
in by the caller (in a check the run's, `checks.CheckRun.inversions`,
the bits its columns were joined from), node t's row is the t-th
word's vector: no two rows are equal, and every word's vector is a
row.  So "is a node" is a lane test, not a lookup: a result lane that
passes `lanes._word_bits` is some node's row, and the certificates
never build `vec_index`.  The lane format and its readers are in
`cyclat.lanes`; this module holds the argument.

`checks._check_lattice` claims that the order is the closure of its
covers and that it is a lattice.  `covers_certified` proves both,
holding no up-set and no threshold mask: one pass over the proved
blocks (`_step_totals`) finds one node with no admitted step up, which
makes the nodes an interval of the affine weak order, a lattice
(point 7 below), and counts the admitted unit steps x + e_k of each k;
`unit_steps` and `steps_are_covers` prove the edges exactly those
steps, which the exchange lemma below makes the closure.  The check's
third claim, on the bounds of its tested pairs, is about the code and
not the order: the lane recursion's joins are tight nodes, and so are
its meets on the dual lanes (`HasseDiagram.tight_bounds`).

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
   canonical word's vector by `lanes._word_bits`' argument, hence a
   node's row (`_proved_blocks`), and by `steps_are_covers` an upper
   cover of x through an edge.  So every node z > x lies above a cover
   of x.  By induction on the sum of z - x, Up(x) is bit x OR the
   up-sets of x's covers, and every edge is a unit step up: the order
   is the closure of the edges.
7. The nodes form an interval of the left weak order, so they form a
   lattice.  By 2-4 and 6, x -> the window of x maps the nodes one to
   one onto the lower set L of 3, the increasing windows whose
   consecutive gaps are below n, and by 3 it maps the componentwise
   order onto the left weak order.  L is finite.  Where `step_ends`
   counts one node with no admitted step up, every other node x has an
   admitted x + e_k, a node above it, so climbing by such steps from
   any node ends at that one node.  Its window w lies above every
   window of L, and L, a lower set, is the interval [e, w].  The weak
   order of a Coxeter group is a meet-semilattice (A. Bjorner,
   *Orderings of Coxeter groups*, Contemp. Math. 34, 1984; Bjorner and
   Brenti, §3.2).  So two elements u, v of [e, w] have a meet, which
   lies in [e, w], and their upper bounds in [e, w], w among them, have
   a meet, which lies in [e, w] above u and v: their join there.  This
   is the paper's statement that the order "is isomorphic to an
   interval in the affine symmetric group with the weak order".  So no
   join of two covers need be tested, as a bounded poset of finite
   length would need (A. Bjorner, P. Edelman and G. Ziegler,
   *Hyperplane arrangements with a lattice of regions*, Discrete
   Comput. Geom. 5, 1990, Lemma 2.1).
A certificate that declines proves nothing: the check then walks the
claims node by node (`checks._cover_failure`), and the tested pairs one
by one (`checks._pair_failure`), which decides and names the witness.
`checks._check_grading` reads the lemma too: every cover is a unit
step, and on the dual lanes M - v every node above a minimal one has
an admitted step down, so `step_ends` counts the extremes.

Chain conjugators by a closed-form potential (`cyclic_steps`, for
`checks._check_alpha`).  A cover of x swaps a large circular descent
j i of x's word w, j > i + 1, the wrap-around factor j 1 included, and
is labelled (i j) (`poset._cover_rows`).  Let A(x) be w rotated by
m(x) = (sum_j x[1,j]) mod n, A(x)(p) = w[(p + m(x)) mod n], positions
from 0 (`poset.conjugator_potential`).  B(p, q) = [q before p],
2 <= p < q <= n, are the inversion bits, and S[q] the sum of
B(k, k+1) over k < q, so that x[p,q] = S[q] - S[p] - B(p, q)
(`poset._vector_columns`).
1. Each block is proved the words' vectors, so lane t is the t-th
   word's vector, and B is read off the same block (`_proved_blocks`).
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

Cover independence (for `checks._check_mobius`).  Let node x have the
upper covers a_1, ..., a_k, and let O_i be the join of those other
than a_i.  By Rota's crosscut theorem (G.-C. Rota, *On the foundations
of combinatorial theory I*, Z. Wahrscheinlichkeitstheorie 2, 1964),
mu(x, y) is the sum of (-1)^|S| over the sets S of covers of x whose
join is y, the empty set's join being x.
1. If no a_i lies below O_i, the 2^k joins are distinct.  Two sets
   S != T differ in some a_i, say a_i in S only.  T's covers are among
   the others and x lies below each, so T's join lies below O_i, and
   a_i, which lies below S's join, does not: the joins differ.  Then
   each y is the join of at most one S, and mu(x, y) is 0, 1 or -1.
2. In a meet-semidistributive lattice no a_i lies below O_i.  Two
   distinct covers of x meet at x, so a_i ^ a_j = x for j != i, and the
   law (a ^ b = a ^ c = x implies a ^ (b v c) = x) gives a_i ^ O_i = x,
   one cover at a time.  a_i is not x, so it is not below O_i.
3. `kappa_matching` proves the law where it declines no node: by its
   step 4 every j in J then has exactly one R-partner, so every K(j)
   has a greatest element, which is meet-semidistributivity (Theorem
   2.56, below).  So `mobius` rests on that certificate, run on the
   run's columns (`checks.CheckRun.matching`), and not on the verdict
   of `semidistributive`; the crosscut
   theorem and the law's theorem presume a lattice, the claim of
   `lattice`.  Where `kappa_matching` declines, or the lanes are not
   the words' vectors, nothing is proved: the check then runs the
   crosscut at every node (`poset.mobius_from`), which decides and
   names the witness.

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
nodes are exactly the admitted vectors (`_proved_blocks`, whose words'
vectors are admitted), and the exchange lemma.  That the order is a
lattice, which the theorem presumes, is the claim of `lattice`; the mask
walk `poset.kappa_failure` presumes it too.
On lanes, `_step_lanes` reads the steps down beside the steps up of a
proved block, off one pass over its triple defects: x - e_k is
admitted iff the defects with long side k are 1 and those with k a
short side 0.  `_single_steps` names J and M and each one's step, and
`kappa_partners` tests each j against the m of its (k, m_k).  A
certificate that declines proves nothing: the check then runs the mask
walk, which decides and names the witness.
"""

from __future__ import annotations

from collections import Counter
from functools import partial, reduce
from itertools import combinations, islice
from math import comb, factorial
from operator import itemgetter, lt, or_, sub
from typing import Iterator, Sequence

from cyclat import lanes, poset

Inversions = dict[tuple[int, int], bytes]  # `poset._inversion_columns(n)`

# Lanes that the certificates read in one block.
LANE_BLOCK = 1 << 15


def covers_certified(diagram: poset.HasseDiagram, inversions: Inversions) -> bool:
    """Whether the certificates prove the two cover claims of
    `checks._check_lattice`: one pass over the proved blocks
    (`_step_totals`, against the inversion bits `inversions`) finds one
    node with no admitted step down and one with none up, which makes
    the order an interval of the affine weak order, a lattice (module
    docstring, point 7) and counts the admitted unit steps; every edge
    is a unit step (`unit_steps`); and the edges are exactly those steps
    (`steps_are_covers`).  False proves nothing."""
    totals = _step_totals(diagram.n, diagram.columns, inversions)
    if totals is None or totals[:2] != (1, 1):
        return False
    steps = unit_steps(diagram)
    return steps is not None and steps_are_covers(diagram, steps, totals[2])


def nodes_are_words(n: int, columns: Sequence[bytes], inversions: Inversions) -> bool:
    """Whether lane t of the order-n vector columns, one byte a node, is
    the vector of the t-th canonical word for every t: every block of
    `_word_blocks` is proved, and no step lane is read.  Word vectors
    are admitted, their triple defects being those bits and their
    sums."""
    return sum(width for _, width, _, _ in _word_blocks(n, columns, inversions)) == \
        factorial(n - 1)


def _sized(n: int, columns: Sequence[bytes]) -> bool:
    """Whether there are C(n, 2) columns of (n-1)! lanes each."""
    return list(map(len, columns)) == [factorial(n - 1)] * comb(n, 2)


def _word_blocks(n: int, columns: Sequence[bytes], inversions: Inversions
                 ) -> Iterator[tuple[int, int, dict[tuple[int, int], int], list[int]]]:
    """The order-n columns in blocks of `LANE_BLOCK` lanes, up to the
    first block whose lanes are not the words' vectors, and none unless
    the columns are sized (`_sized`): for each, its first node, its
    width, its columns read as ints (`lanes._lane_ints`), and the
    inversion bits `lanes._word_bits` reads from them, which are those
    of `inversions`, `poset._inversion_columns(n)`, on the same lanes."""
    if not _sized(n, columns):
        return
    size = factorial(n - 1)
    for first in range(0, size, LANE_BLOCK):
        width = min(LANE_BLOCK, size - first)
        v = lanes._lane_ints(n, (column[first:first + width] for column in columns))
        bits = lanes._word_bits(n, width, list(v.values()))
        if bits != [int.from_bytes(column[first:first + width], "little")
                    for column in inversions.values()]:
            return
        yield first, width, v, bits


def _proved_blocks(n: int, columns: Sequence[bytes], inversions: Inversions
                   ) -> Iterator[tuple[int, int, list[int], tuple[list[int], list[int]]]]:
    """The blocks of `_word_blocks`, each proved the words' vectors
    before any step is read off it: its first node, its width, its
    inversion bits and its steps up and down (`_step_lanes`).  The pass
    stops at the first block that fails, so a reader has proved every
    lane iff its blocks cover the (n-1)! nodes."""
    for first, width, v, bits in _word_blocks(n, columns, inversions):
        yield first, width, bits, _step_lanes(n, int.from_bytes(b"\1" * width, "little"), v)


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


def _step_lanes(n: int, ones: int, v: dict[tuple[int, int], int]
                ) -> tuple[list[int], list[int]]:
    """The lanes of the x with x + e_k admitted, and those of the x with
    x - e_k admitted, for each coordinate k in the pair order of the
    columns, on the lanes v of a proved block (`_proved_blocks`), ones
    the 1 of each lane.  Every lane of every `lanes._triple_defects` D
    is then 0 or 1 and borrows nothing.  Raising x[i,j] raises D by 1
    where (i, j) is the long side of the triple and lowers it where it
    is a short side: x + e_k is admitted iff the first D are 0 and the
    others 1, x - e_k iff the reverse.  An adjacent k, a long side of no
    triple and 0 in every node, has none."""
    up = {(i, j): ones if j > i + 1 else 0 for i, j in combinations(range(1, n + 1), 2)}
    down = dict(up)
    for (i, p, j), d in lanes._triple_defects(n, v):
        e = ones - d  # the lanes where D is 0, as d holds those where it is 1
        up[i, j] &= e
        up[i, p] &= d
        up[p, j] &= d
        down[i, j] &= d
        down[i, p] &= e
        down[p, j] &= e
    return list(up.values()), list(down.values())


def steps_are_covers(diagram: poset.HasseDiagram, steps: bytes, counts: list[int]) -> bool:
    """Whether the edges, the coordinate k of each edge's step being
    `steps`, are exactly the admitted unit steps x + e_k of the nodes,
    counts[k] of them at each k (`_step_totals`): the edges strictly
    increase in (lo, hi), so none repeats, and the edges of step k are
    counts[k].  An edge of step k from x has x + e_k as its upper row,
    so x is one of the lanes counted; two such edges from one x would
    end at one row, which is one node (`_proved_blocks`), and so repeat.
    The edges of step k then take each lane once, and equal counts
    leave no admitted step without its edge.  The module docstring's
    exchange lemma makes that the closure."""
    edges = zip(diagram.lo, diagram.hi)
    if not all(map(lt, edges, islice(zip(diagram.lo, diagram.hi), 1, None))):
        return False
    return counts == list(map(steps.count, range(len(diagram.columns))))


def kappa_matching(n: int, columns: Sequence[bytes], inversions: Inversions
                   ) -> tuple[int, int] | None:
    """|J|, and the nodes of J and M with other than one R-partner, on
    the order-n vector columns (module docstring); None unless the
    columns are the words' vectors (`irreducibles`).  The order is
    semidistributive iff the second count is 0: R is then a perfect
    matching of J and M."""
    if (irreducible := irreducibles(n, columns, inversions)) is None:
        return None
    joins, meets = irreducible
    partners = kappa_partners(columns, joins, meets)
    matched = Counter(m for found in partners.values() for m in found)
    declined = sum(len(found) != 1 for found in partners.values())
    return len(joins), declined + sum(matched[m] != 1 for m in meets)


def irreducibles(n: int, columns: Sequence[bytes], inversions: Inversions
                 ) -> tuple[dict[int, int], dict[int, int]] | None:
    """J and M: the nodes with exactly one admitted step down, and those
    with exactly one up, each as {node: the coordinate k of that step},
    in id order (`_single_steps`); None where the lanes are not the
    words' vectors (`_proved_blocks`)."""
    joins: dict[int, int] = {}
    meets: dict[int, int] = {}
    covered = 0
    for first, width, _, (up, down) in _proved_blocks(n, columns, inversions):
        covered += width
        for found, steps in ((joins, down), (meets, up)):
            found.update((first + t, k) for t, k in _single_steps(steps, width))
    return (joins, meets) if covered == factorial(n - 1) else None


def step_ends(n: int, columns: Sequence[bytes], inversions: Inversions
              ) -> tuple[int, int] | None:
    """The counts of the nodes with no admitted step down and of those
    with none up (`_step_totals`); None where the lanes are not the
    words' vectors."""
    totals = _step_totals(n, columns, inversions)
    return None if totals is None else totals[:2]


def _step_totals(n: int, columns: Sequence[bytes], inversions: Inversions
                 ) -> tuple[int, int, list[int]] | None:
    """`step_ends`' two counts and, for each coordinate k, the count of
    the x + e_k admitted, in one pass over the proved blocks
    (`_proved_blocks`); None where the lanes are not the words' vectors.
    The OR of a block's step lanes holds 1 in each lane that has a
    step."""
    bottoms = tops = covered = 0
    counts = [0] * len(columns)
    for _, width, _, (up, down) in _proved_blocks(n, columns, inversions):
        covered += width
        bottoms += width - reduce(or_, down, 0).bit_count()
        tops += width - reduce(or_, up, 0).bit_count()
        counts = [count + steps.bit_count() for count, steps in zip(counts, up)]
    return (bottoms, tops, counts) if covered == factorial(n - 1) else None


def cyclic_steps(n: int, columns: Sequence[bytes], inversions: Inversions) -> int | None:
    """The admitted unit steps of the order-n vector columns, counted,
    where every lane is the word of its id and every step x + e_(i,j)
    has j the cyclic predecessor of i in x's word; None elsewhere.  The
    inversion bits and the steps are those of each proved block
    (`_proved_blocks`; module docstring, for `checks._check_alpha`)."""
    steps = covered = 0
    for _, width, bits, (up, _) in _proved_blocks(n, columns, inversions):
        if _stray_steps(n, int.from_bytes(b"\1" * width, "little"), bits, up):
            return None
        covered += width
        steps += sum(map(int.bit_count, up))
    return steps if covered == factorial(n - 1) else None


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
    for (i, j), admitted in zip(combinations(range(1, n + 1), 2), up):
        if not admitted:
            continue
        if i > 1:
            stray |= admitted & before[i, j]
        for c in letters:
            if c != i and c != j:  # c after j, and for i >= 2 before i
                stray |= admitted & before[j, c] & (before[c, i] if i > 1 else ones)
    return stray


def _single_steps(columns: Sequence[int], width: int) -> Iterator[tuple[int, int]]:
    """Each lane set in exactly one of the columns, width lanes of a
    byte each holding 0 or 1, with the index k of that one.  `once`
    holds the lanes set so far, `twice` those set twice, and `steps` the
    OR of k + 1 over the columns[k] set, k + 1 itself where only
    columns[k] is; the bytes of once ^ twice are scanned for the lanes,
    with no int shifted."""
    once = twice = steps = 0
    for k, lane in enumerate(columns, 1):
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
    0x80, as `lanes._lane_max` compares lanes."""
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
