"""The full order on circular permutations of a given order.

`build` materializes the labelled Hasse diagram: node t is the t-th
canonical word (1, p) with p running over the permutations of 2..n in
lexicographic order, and the covers are held as flat edge columns
sorted by (lower, upper) index, so exports are byte-for-byte
reproducible.  The covers come from one rule, `_cover_blocks`, which
yields the edges (lo, hi, r, s) in that order as flat blocks of
`EXPORT_BLOCK` edges; the ranks, the inversion bits and the vector
columns come from the same enumeration (`_prefix_ranks`,
`_inversion_columns`, `_vector_columns`), and the byte lanes of those
columns are read in `cyclat.lanes`.  One serializer renders the DOT
and JSON exports as pieces, each section formatted in blocks of
`EXPORT_BLOCK` rows by one % call: `to_dot` and `to_json` from a built
diagram's columns, cut into the same edge blocks, and `export_pieces`,
whose blocks `cyclat poset` writes out one by one, from `_prefix_ranks`
and `_cover_blocks`, with no diagram.  Eulerian cover statistics are
counted by transfer matrix over (set of letters placed, last letter),
with no diagram (`cover_histogram`).  Rank truncations against the
partition order and the modularity scan read the ranks and the vector
columns, with no diagram, and so does the conjugator of the chains up
to a node, its word rotated (`conjugator_potential`).  Everything else
queries the diagram: the Moebius function, the semidistributivity walk
and maximal chains.
"""

from __future__ import annotations

import os
import re
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, islice, permutations, product
from math import factorial
from operator import or_
from typing import Iterable, Iterator, Sequence

from cyclat import kernels, lanes
from cyclat.errors import (
    CapExceededError,
    CyclatError,
    NotAChainError,
    NotComparableError,
)
from cyclat.perm import CircularPermutation, DescentLabel, Word, word_text

DEFAULT_MAX_N = 10
_ENV_CAP = "CYCLAT_MAX_N"


def enumeration_cap() -> int:
    """Largest order `build` accepts; override with CYCLAT_MAX_N.

    It bounds diagram construction: (n-1)! nodes, 362880 at the default
    of 10.  The default is the largest order whose `check all` runs in
    under 5 minutes and 600 MB: `check all 10` takes 3.2 s at a 189 MB
    peak in a fresh process on a shared 2-vCPU host, `lattice` 1.7 s of
    it, the build included, and `check all 11` 37.5 s but at 1,968 MB,
    1,745 MB of it `lattice`'s diagram (`BENCH_theorem_covers.json`);
    `build(11)` alone peaks at about 1.2 GB.  `eulerian n` builds no
    diagram and is refused for n > cap.
    An empty CYCLAT_MAX_N means the default; anything but ASCII digits
    is refused.
    """
    raw = os.environ.get(_ENV_CAP)
    if not raw:
        return DEFAULT_MAX_N
    if not re.fullmatch(r"[0-9]+", raw):
        raise CyclatError(f"{_ENV_CAP} must be a decimal integer, got {raw!r}")
    return int(raw)


def refuse_over_cap(n: int) -> None:
    """Raise CapExceededError if order n is below 1 or above
    `enumeration_cap()`."""
    if n < 1:
        raise CapExceededError(f"order must be >= 1, got {n}")
    cap = enumeration_cap()
    if n > cap:
        raise CapExceededError(
            f"order {n} exceeds the cap {cap}; raise {_ENV_CAP} to override")


def bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, in increasing order."""
    return [t for t, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _value_masks(values: Sequence[int]) -> list[int]:
    """masks[v] has bit t set iff values[t] == v, for values in 0..255.

    bytes() holds each value in one byte, reversed so that node 0 is the
    last, least significant digit; translate writes "1" where the value
    is v and "0" elsewhere, and int() reads the digits in base 2.
    """
    digits = bytes(values)[::-1]
    return [int(digits.translate(b"0" * v + b"1" + b"0" * (255 - v)), 2)
            for v in range(max(values, default=-1) + 1)]


class Comparison(Enum):
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


def compare(sigma: CircularPermutation, tau: CircularPermutation) -> Comparison:
    """Order comparison through the componentwise order of the vectors."""
    if sigma.n != tau.n:
        raise NotComparableError(f"mixed orders {sigma.n} and {tau.n}")
    u = kernels.word_vector(sigma.canon)
    v = kernels.word_vector(tau.canon)
    if u == v:
        return Comparison.EQ
    le = kernels.leq_flat(u, v)
    ge = kernels.leq_flat(v, u)
    if le:
        return Comparison.LT
    if ge:
        return Comparison.GT
    return Comparison.INCOMPARABLE


@dataclass
class HasseDiagram:
    """Labelled cover graph of the order for one n, held as columns.

    The fields are what `build` computes: ranks[t] grades node t, and
    edge k runs from node lo[k] up to node hi[k], labelled (r[k], s[k]);
    edges are sorted by (lo, hi).  Node t is the t-th canonical word of
    order n in lexicographic order (`_words`), so the words, their ids
    and the extremes follow from n: `bottom` (1, 2, ..., n) is node 0
    and `top` (1, n, ..., 2) the last node.  `name(t)` unranks node t's
    word from t alone, so a witness names its nodes with no view.  The
    views (words, nodes, edges, columns, rows, vec_index, starts, up,
    down, at_least) are built on first use and never mutated.  The order
    and the lattice operations (leq, joins, bounds) take and return node
    ids.

    The vectors depend on n alone too: `columns` holds coordinate c of
    every node as one byte per node, from `_vector_columns(n)`, and
    `rows[t]` node t's vector as one byte string.  `joins` runs the
    recursion of `join_flat` (`lanes._column_joins`) on lanes gathered
    from the rows, one byte a pair, and `bounds` also takes the meets,
    as the joins of the dual lanes (`lanes._column_meets`); each result
    row is read back through `vec_index`.  `tight_bounds` runs the same
    recursions as a certificate, on the result lanes with no row and no
    `vec_index`: each result lane is a word's vector
    (`lanes._word_bits`), so a node's row once the certificates have
    tied the rows to the words, and each result is tight for its pair
    (`lanes._column_tight`).

    The order is componentwise on the vectors, an intersection of one
    chain per coordinate, so it is held as threshold masks read off the
    columns: for each coordinate c and value v, the nodes with
    coordinate c at least v (`at_least`), as bitmasks over node ids.
    The up-set of a node is the AND of C(n, 2) such masks
    (`above_mask`), and its down-set the complement of the OR of as
    many (`below_mask`).  Only the walks where a certificate declines
    read them; a passing check reads up-sets off the lanes
    (`lanes._lane_up_sets`).
    """

    n: int
    ranks: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.ranks) != factorial(self.n - 1):
            raise CyclatError(f"{len(self.ranks)} ranks for order {self.n}; "
                              "a diagram holds all (n-1)! canonical words")
        if not len(self.lo) == len(self.hi) == len(self.r) == len(self.s):
            raise CyclatError("edge columns differ in length")

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """words[t]: the canonical word of node t."""
        return tuple(_words(self.n))

    def name(self, t: int) -> str:
        """The cycle literal of node t, `word_text(words[t])`."""
        return node_name(self.n, t)

    @cached_property
    def nodes(self) -> tuple[CircularPermutation, ...]:
        return tuple(map(CircularPermutation, _words(self.n)))

    @cached_property
    def edges(self) -> tuple[tuple[int, int, DescentLabel], ...]:
        return tuple((a, b, DescentLabel(r, s))
                     for a, b, r, s in zip(self.lo, self.hi, self.r, self.s))

    @cached_property
    def columns(self) -> tuple[bytes, ...]:
        """columns[c][t]: coordinate c, in row-major pair order, of the
        vector of node t."""
        return _vector_columns(self.n)

    @cached_property
    def rows(self) -> tuple[bytes, ...]:
        """rows[t][c] = columns[c][t]: node t's vector as one byte string."""
        return tuple(lanes._split_rows(len(self.ranks), self.columns))

    @cached_property
    def starts(self) -> array:
        """starts[t], the position of node t's first edge, for every node
        t, then the edge count: the running sums of the up-degrees.  The
        edges are sorted by lo, so node t's are those from starts[t]
        up to starts[t + 1]."""
        counts = [0] * (len(self.ranks) + 1)
        for t in self.lo:
            counts[t + 1] += 1
        return array("q", accumulate(counts))

    @cached_property
    def up(self) -> tuple[tuple[int, ...], ...]:
        """up[t]: node t's upper covers, hi[starts[t]:starts[t + 1]]."""
        starts = self.starts
        return tuple(map(self.hi.__getitem__, map(slice, starts, islice(starts, 1, None))))

    @cached_property
    def down(self) -> tuple[tuple[int, ...], ...]:
        down = [[] for _ in self.ranks]
        for a, b in zip(self.lo, self.hi):
            down[b].append(a)
        return tuple(map(tuple, down))

    def edges_above(self, t: int) -> range:
        """Positions in the edge columns of the covers above node t."""
        return range(self.starts[t], self.starts[t + 1])

    @cached_property
    def vec_index(self) -> dict[bytes, int]:
        """Node id of each admitted vector, keyed by its row."""
        return {row: t for t, row in enumerate(self.rows)}

    @cached_property
    def at_least(self) -> tuple[tuple[int, ...], ...]:
        """at_least[c][v]: the mask of the nodes whose coordinate c is >= v."""
        return tuple(tuple(accumulate(reversed(_value_masks(column)), or_))[::-1]
                     for column in self.columns)

    def above_mask(self, x: int) -> int:
        """Bit z set iff x <= z: the componentwise order is the AND over
        the coordinates c of the nodes at least as high as x in c."""
        mask = (1 << len(self.ranks)) - 1
        for masks, column in zip(self.at_least, self.columns):
            if v := column[x]:  # masks[0] holds every node
                mask &= masks[v]
        return mask

    def below_mask(self, y: int) -> int:
        """Bit z set iff z <= y: no coordinate c of z exceeds y's, so z
        is in none of the masks of the nodes above y in c."""
        higher = 0
        for masks, column in zip(self.at_least, self.columns):
            if (v := column[y] + 1) < len(masks):  # no node is above the top value
                higher |= masks[v]
        return ((1 << len(self.ranks)) - 1) ^ higher

    def leq(self, x: int, y: int) -> bool:
        return all(column[x] <= column[y] for column in self.columns)

    def joins(self, xs: Sequence[int], ys: Sequence[int]) -> list[int | None]:
        """The node id of `join_flat` of the vectors of x and y, for each
        x, y of xs, ys in turn; None where the result is not a node."""
        return self._bounds(xs, ys, lanes._column_joins)[0]

    def bounds(self, xs: Sequence[int], ys: Sequence[int]) -> tuple[list[int | None], ...]:
        """`joins` of the pairs and, likewise, the node ids of their
        `meet_flat`, from lanes gathered once a side."""
        return self._bounds(xs, ys, lanes._column_joins, lanes._column_meets)

    def _bounds(self, xs: Sequence[int], ys: Sequence[int], *ops):
        size, us, vs = len(xs), self._lanes(xs), self._lanes(ys)
        return tuple(list(map(self.vec_index.get,
                              lanes._split_rows(size, op(self.n, size, us, vs))))
                     for op in ops)

    def tight_bounds(self, xs: Sequence[int], ys: Sequence[int]) -> bool:
        """Whether the `lanes._column_joins` and the `lanes._column_meets`
        result of every pair x, y of xs, ys are nodes and tight
        (`_tight_bounds`)."""
        return self._tight_bounds(len(xs), self._lanes(xs), self._lanes(ys))

    def square_tight_bounds(self) -> bool:
        """`tight_bounds` of every ordered pair (x, y) of the square,
        proved on its triangle x <= y (`lanes._triangle_lanes`).

        The lane-wise max `pick` of `lanes._lane_max` is symmetric, so the
        joins of (us, vs) equal those of (vs, us) lane for lane, the meets
        likewise (they join the dual lanes), and `lanes._column_tight`
        reads the two sides only through `pick`.  A certified lane (x, y)
        therefore proves the bounds of both (x, y) and (y, x): N(N + 1)/2
        lanes prove the N * N ordered pairs."""
        nodes = range(len(self.ranks))
        return self._tight_bounds(len(nodes) * (len(nodes) + 1) // 2,
                                  *lanes._triangle_lanes(self.n, self.columns, nodes))

    def _lanes(self, ids: Sequence[int]) -> list[int]:
        return lanes._gather(self.n, self.rows, ids)

    def _tight_bounds(self, size: int, us: Sequence[int], vs: Sequence[int]) -> bool:
        """The lane test: whether the `lanes._column_joins` result on
        these lanes is a node's row in every lane and is tight for them,
        and the same of the `lanes._column_meets` result as the join of
        the dual lanes: a node's row in every lane, and M - meet tight for
        M - us and M - vs (`lanes._dual_lanes`)."""
        joins = lanes._column_joins(self.n, size, us, vs)
        if not (self._nodes(size, joins) and lanes._column_tight(self.n, size, us, vs, joins)):
            return False
        meets = lanes._column_meets(self.n, size, us, vs)
        return self._nodes(size, meets) and lanes._column_tight(
            self.n, size, *(lanes._dual_lanes(self.n, size, c) for c in (us, vs, meets)))

    def _nodes(self, size: int, columns: Sequence[int]) -> bool:
        """Whether every lane of the columns is a node's row: the vector
        of a canonical word (`lanes._word_bits`), which is a node's row
        where the certificates have tied the rows to the words."""
        return lanes._word_bits(self.n, size, columns) is not None

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.ranks) - 1


def _words(n: int) -> Iterator[Word]:
    """The canonical words of order n in lexicographic order, node t the
    t-th: (1, p) for p over the permutations of 2..n."""
    return map((1,).__add__, permutations(range(2, n + 1)))


def node_word(n: int, t: int) -> Word:
    """The canonical word of node t of order n: the digits of t in the
    factorial number system pick each letter of p, in turn, from the
    letters of 2..n not yet placed."""
    letters = list(range(2, n + 1))
    word = [1]
    for k in reversed(range(len(letters))):
        d, t = divmod(t, factorial(k))
        word.append(letters.pop(d))
    return tuple(word)


def node_name(n: int, t: int) -> str:
    """The cycle literal of node t of order n, `word_text(node_word(n, t))`."""
    return word_text(node_word(n, t))


def build(n: int) -> HasseDiagram:
    """Materialize the diagram of order n: `_diagram` with the ranks of
    `_prefix_ranks`.  No step calls a kernel, so
    `oracle.diagram_by_search`, which does, is an independent reference.
    """
    refuse_over_cap(n)
    return _diagram(n, _prefix_ranks(n))


def _diagram(n: int, ranks: Sequence[int]) -> HasseDiagram:
    """The diagram of order n with these ranks, its edge columns read
    off the blocks of `_cover_blocks` a slice a column; `lo` and `hi`
    share one int object per node id."""
    ids = list(range(factorial(n - 1)))
    lo: list[int] = []
    hi: list[int] = []
    rs: list[int] = []
    ss: list[int] = []
    for block in _cover_blocks(n):
        lo += map(ids.__getitem__, block[0::4])
        hi += map(ids.__getitem__, block[1::4])
        rs += block[2::4]
        ss += block[3::4]
    return HasseDiagram(n, tuple(ranks), tuple(lo), tuple(hi), tuple(rs), tuple(ss))


def _cover_blocks(n: int) -> Iterator[tuple[int, ...]]:
    """The covers of order n as flat blocks of edges, lo, hi, r, s in
    turn, sorted by (lo, hi): `EXPORT_BLOCK` edges a block, the last
    block holding the rest.  Node t is the word (1, p_0, ..., p_{m-1}),
    m = n - 1, for the t-th permutation p of 2..n in lexicographic
    order.  The Lehmer digit c_j of p counts the k > j with p_k < p_j,
    and with G[j] = (m-1-j)! and G[m] = 0, t = sum of c_j G[j].  The
    codes come from `itertools.product`, in the same order as the
    permutations, so every cover id is arithmetic on the digits of the
    lower node:

    - an internal factor p_j = s > p_{j+1} + 1 = r + 1 swaps to r s, at
      id t - d G[j] + (d - 1) G[j+1] with d = c_j - c_{j+1};
    - the wrap-around factor s 1, s = p_{m-1} > 2, swaps to the
      canonical word (1, s, p_0, ..., p_{m-2}), at id
      (s - 2) G[0] + sum over j < m-1 of (c_j - [p_j > s]) G[j+1].  The
      sum is the lexicographic rank of (p_0, ..., p_{m-2}) among the
      arrangements of the letters other than 1 and s, which is the
      number of earlier nodes ending in s; a running count per last
      letter gives it in O(1).

    A swap at a later factor keeps more of p, so the internal covers
    come by ascending id, and the wrap-around cover is placed among them
    by its letters: its word starts (1, s), the internal cover's at
    j >= 1 (1, p_0) and at j = 0 (1, p_1), so it goes after them all if
    s > p_0, else after the one at j = 0 if that cover exists and
    s > p_1, else first.  (At m = 2, where s = p_1, the two never meet:
    they need p_1 > 2 and p_0 > p_1 + 1, past n = 3.)

    `build` and the exports read these blocks; the tests count them
    against `cover_histogram`, which counts the same covers with no
    pass over the words.
    """
    m = n - 1
    weight = [factorial(m - 1 - j) for j in range(m)] + [0]  # G above
    # (j, j + 1, drop): drop[d] is t minus the id of the internal cover
    # at j, d = c_j - c_{j+1}
    factors = [(j, j + 1, [d * weight[j] - (d - 1) * weight[j + 1] for d in range(m - j)])
               for j in range(m - 1)]
    # wrap[s]: the id of the next wrap-around cover of a node ending in s
    wrap = [(s - 2) * weight[0] for s in range(n + 1)]
    size = 4 * EXPORT_BLOCK
    flat: list[int] = []
    codes = product(*(range(m - j) for j in range(m)))
    for t, (p, c) in enumerate(zip(permutations(range(2, n + 1)), codes)):
        start = len(flat)
        for j, k, drop in factors:
            if p[j] > p[k] + 1:
                flat += t, t - drop[c[j] - c[k]], p[k], p[j]
        if p and (s := p[-1]) > 2:
            at = (len(flat) if s > p[0] else
                  start + 4 if p[0] > p[1] + 1 and s > p[1] else start)
            flat[at:at] = t, wrap[s], 1, s
            wrap[s] += 1
        while len(flat) >= size:  # the list, cut and frozen, is the block
            block, flat = flat, flat[size:]
            del block[size:]
            block = tuple(block)
            yield block
    if flat:
        yield tuple(flat)


def _prefix_ranks(n: int) -> list[int]:
    """`word_rank` of every canonical word of order n, in lexicographic
    order, from the prefix tree of the words.

    Placing letter a after the set P of letters already placed adds -1
    for each b in P above a (the inversion b..a) and a(n - a) if a + 1
    is in P (the adjacent inversion a+1..a).  The ranks below a prefix
    depend only on its set P, so `below[P]` lists them once per set, in
    lexicographic order of the completions.  below[P] is read by the
    sets with one letter of P other than 1 removed.  The sets are filled
    by decreasing size, so every list a set reads is filled before it,
    and each list is dropped at its last reading: about two sizes of
    sets are held at once.
    """
    below: dict[int, list[int]] = {}
    unread: dict[int, int] = {}  # readers of below[P] still to fill
    for rest in sorted(range(1 << (n - 1)), key=int.bit_count, reverse=True):
        placed = rest << 2 | 2  # bit a is letter a; 1 is always placed
        ranks: list[int] = []
        for a in range(2, n + 1):
            if not placed >> a & 1:
                higher = placed >> (a + 1)
                step = (a * (n - a) if higher & 1 else 0) - higher.bit_count()
                child = placed | 1 << a
                unread[child] -= 1
                ranks += [step + x for x in
                          (below[child] if unread[child] else below.pop(child))]
        below[placed] = ranks or [0]  # every letter placed: the word itself
        unread[placed] = rest.bit_count()
    return below[2]


def _inversion_columns(n: int) -> dict[tuple[int, int], bytes]:
    """The inversion bits of the canonical words of order n, in
    lexicographic order: for each pair of letters 2 <= i < j <= n, one
    byte per node, B(i, j) = [j before i] of node t at [t].  (Letter 1
    comes first, so B(1, j) is 0 and is not held.)

    Over the permutations of m letters in lexicographic order, B of the
    letters of ranks a < b is a block per first letter: all 0 under a,
    all 1 under b, and under any other letter the same column on the
    m - 1 letters left, so each size's columns are joined from the
    previous size's.
    """
    blocks: dict[tuple[int, int], bytes] = {}  # B by the ranks a < b, m letters
    for m in range(2, n):
        zeros, ones = bytes(factorial(m - 1)), b"\1" * factorial(m - 1)
        blocks = {(a, b): b"".join(zeros if x == a else ones if x == b
                                   else blocks[a - (x < a), b - (x < b)]
                                   for x in range(m))
                  for a, b in combinations(range(m), 2)}
    return {(a + 2, b + 2): column for (a, b), column in blocks.items()}


def _vector_columns(n: int, inversions: dict[tuple[int, int], bytes] | None = None
                    ) -> tuple[bytes, ...]:
    """The coordinate columns of the vectors of the canonical words of
    order n, in lexicographic order: for each pair (i, j), 1 <= i < j <= n,
    in row-major order, one byte per node, v[i,j] of node t at [t].

    v[i,j] = S[j] - S[i] - B(i, j), with B the `_inversion_columns`,
    given as `inversions` where the caller holds them, and S[j] the sum
    of B(k, k+1) over k < j.  The sums run on whole columns read as
    integers, one byte a digit: 0 <= v[i,j] <= n - 2, so no digit
    carries or borrows.
    """
    blocks = _inversion_columns(n) if inversions is None else inversions

    def bit(i: int, j: int) -> int:
        return 0 if i == 1 else int.from_bytes(blocks[i, j], "big")

    sums = [0, 0]  # sums[j] = S[j], from j = 1
    for k in range(1, n):
        sums.append(sums[k] + bit(k, k + 1))
    size = factorial(n - 1)
    return tuple((sums[j] - sums[i] - bit(i, j)).to_bytes(size, "big")
                 for i in range(1, n) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def eulerian(n: int, k: int) -> int:
    """Eulerian number a(n, k): permutations of S_n with k descents.

    a(n, k) = (k+1) a(n-1, k) + (n-k) a(n-1, k-1); a(n, 0) = 1; a(0, k) = 0
    for k >= 1.
    """
    if n < 0 or k < 0:
        return 0
    if k == 0:
        return 1
    if n == 0:
        return 0
    return (k + 1) * eulerian(n - 1, k) + (n - k) * eulerian(n - 1, k - 1)


def eulerian_row(n: int) -> tuple[int, ...]:
    return tuple(eulerian(n, k) for k in range(max(n, 1)))


def cover_histogram(n: int) -> dict[int, int]:
    """How many cycles of order n+1 have k large circular descents, by k.

    The cycles are the words (1, p), p a permutation of 2..n+1, and a
    large circular descent is a factor l b with l > b + 1, the
    wrap-around factor s 1 included: the covers above the cycle in
    `_cover_blocks(n + 1)`.  The count is a transfer matrix over the
    states (set P of letters placed, last letter l), with no pass over
    the n! words.  The value of a state is the polynomial sum of x^k
    over the prefixes that reach it, k their descents so far; the
    empty prefix sits at l = 1.  Placing b after l multiplies by x when
    l > b + 1, so the state (P + b, b) sums the states (P, l) split at
    l = b + 1, and closing the word with its 1 is placing b = 1 after
    the whole set.  Each set keeps its values as sums over l <= j, so
    every transition is two lookups.

    A polynomial is one int, coefficient k in the k-th field of
    `factorial(n).bit_length()` bits.  No coefficient of any value, or
    of any partial sum over l, counts more than the n! words, which is
    below 2^width, so no field ever carries into the next and adding
    and subtracting the ints adds and subtracts the polynomials.
    """
    width = factorial(n).bit_length()
    top = n + 2  # sums[j] adds the values of last letters <= j, so b + 1 <= top

    def placed_after(sums: list[int], b: int) -> int:
        low = sums[b + 1]  # the prefixes whose last letter is at most b + 1
        return low + ((sums[top] - low) << width)

    layer = {0: [0] + [1] * top}  # the sets of one size; {} holds 1 at l = 1
    for size in range(1, n + 1):
        sums = {}
        for letters in combinations(range(2, n + 2), size):
            placed = sum(1 << b for b in letters)
            row = [0] * (top + 1)
            for b in letters:
                row[b] = placed_after(layer[placed ^ 1 << b], b)
            sums[placed] = list(accumulate(row))
        layer = sums
    (whole,) = layer.values()
    poly = placed_after(whole, 1)
    field = (1 << width) - 1
    return {k: count for k in range(n + 1) if (count := poly >> k * width & field)}


def verify_descent_distribution(n: int) -> dict:
    """Check the cover statistics of the order on cycles in S_{n+1}.

    `cover_histogram(n)` counts each cycle's covers above, with no
    diagram, no kernel and no pass over the cycles: the histogram must
    equal the Eulerian row a(n, .), so the edge total is
    sum k * a(n, k).  A cover is a large circular descent, the
    predicate of `kernels.descent_count`, so this is the descent
    histogram too.  The tests tie the count to the stream of
    `_cover_blocks(n + 1)` and to `oracle.descents_by_scan`.
    """
    refuse_over_cap(n or 1)  # the cap holds n itself; n = 0 counts order 1
    row = {k: eulerian(n, k) for k in range(max(n, 1)) if eulerian(n, k)}
    updeg = cover_histogram(n)
    return {
        "n": n,
        "pass": updeg == row,
        "eulerian_row": row,
        "cover_histogram": updeg,
        "edges": sum(k * a for k, a in updeg.items()),
        "expected_edges": sum(k * a for k, a in row.items()),
    }


def _require_leq(diagram: HasseDiagram, x: int, y: int) -> None:
    if not diagram.leq(x, y):
        raise NotComparableError(f"{diagram.name(x)} is not below {diagram.name(y)}")


def interval(diagram: HasseDiagram, x: int, y: int) -> list[int]:
    """Node ids z with x <= z <= y, sorted by rank then id."""
    _require_leq(diagram, x, y)
    # bits() is in id order and the sort is stable: rank, then id
    return sorted(bits(diagram.above_mask(x) & diagram.below_mask(y)),
                  key=diagram.ranks.__getitem__)


def mobius(diagram: HasseDiagram, x: int, y: int) -> int:
    """Moebius function of the closed interval [x, y]."""
    _require_leq(diagram, x, y)
    return next(mobius_from(diagram, [x])).get(y, 0)


def mobius_from(diagram: HasseDiagram, xs: Iterable[int]) -> Iterator[dict[int, int]]:
    """For each node id x of xs in turn, the nonzero values mu(x, y)
    over y >= x; every other y has mu 0.  If some join is no node, the
    dict also has the key None, and x's table grows no further.

    Rota's crosscut theorem: mu(x, y) is the sum of (-1)^|S| over the
    sets S of upper covers of x whose join is y.  x's table lists the
    joins of the subsets of its covers by subset mask, and doubles once
    per cover: the joins of the subsets of the first k + 1 covers are
    those of the first k, then each of those joined with cover k.  The
    ids are taken in blocks of `_ROW_CHUNK`, and one `joins` batch
    doubles every table of a block that has a cover k.
    """
    xs = iter(xs)
    while block := list(islice(xs, _ROW_CHUNK)):
        tables = [[x] for x in block]  # tables[i][mask]: join of the covers in mask
        covers = [diagram.up[x] for x in block]
        for k in range(max(map(len, covers))):
            grow = [(table, up[k]) for table, up in zip(tables, covers)
                    if len(up) > k and None not in table]
            joined = iter(diagram.joins([y for table, _ in grow for y in table],
                                        [c for table, c in grow for _ in table]))
            for table, _ in grow:
                table += islice(joined, len(table))
        for table in tables:
            mu: dict[int, int] = {}
            for mask, y in enumerate(table):
                mu[y] = mu.get(y, 0) + (-1 if mask.bit_count() % 2 else 1)
            yield {y: value for y, value in mu.items() if value or y is None}


def kappa_failure(diagram: HasseDiagram, law: str) -> tuple[int, int, int] | None:
    """The first irreducible whose kappa set has no greatest element,
    by the walk on threshold masks that decides the law where
    `certificates.kappa_matching` declines.

    For "SD-meet", each j with one lower cover j_ has the set
    K = {x : x >= j_, x not >= j} = above(j_) minus above(j); it must
    have a greatest element g, one whose down-set holds all of K.  The
    candidate is the lowest id of highest rank in K; it is greatest iff
    K & ~below_mask(g) == 0.  "SD-join" is the dual, over the m with one
    upper cover.  Returns None, or (j, a, b) with a and b two maximal
    (for SD-join, minimal) elements of K: a the candidate, b the
    candidate among the elements of K that are not below a.
    """
    layers = _value_masks(diagram.ranks)
    if law == "SD-meet":
        covers, up, down = diagram.down, diagram.above_mask, diagram.below_mask
        layers.reverse()
    else:  # the dual order: up-sets and down-sets trade places
        covers, up, down = diagram.up, diagram.below_mask, diagram.above_mask

    def candidate(mask: int) -> int:  # lowest id in the first layer met
        layer = next(mask & layer for layer in layers if mask & layer)
        return (layer & -layer).bit_length() - 1

    for j, near in enumerate(covers):
        if len(near) == 1:
            rest = up(near[0]) & ~up(j)
            a = candidate(rest)
            beyond = rest & ~down(a)
            if beyond:
                return j, a, candidate(beyond)
    return None


def check_semidistributive(diagram: HasseDiagram) -> dict:
    """Test the two semidistributive laws by the kappa test, walking
    the irreducibles on threshold masks: the decline path of
    `checks._check_semidistributive`, run where
    `certificates.kappa_matching` proves nothing, so that the verdict
    is decided and the witness named.

    It tests each irreducible's kappa set (Theorem 2.56 of *Free
    Lattices*, as in `cyclat.certificates`) on a few up-set masks, with
    no join or meet.  SD-join is tested first; the witness of a failure is
    the first failing irreducible of the first law to fail, "m" for
    SD-join and "j" for SD-meet, with two minimal (maximal) elements of
    its set.
    """
    for law, key, ends in (("SD-join", "m", "minimal"), ("SD-meet", "j", "maximal")):
        if found := kappa_failure(diagram, law):
            j, a, b = map(diagram.name, found)
            witness = {"law": law, key: j, ends: [a, b]}
            return {"n": diagram.n, "pass": False, "witness": witness}
    return {"n": diagram.n, "pass": True, "witness": None}


_ROW_CHUNK = 4096  # pairs per batch of the modularity scan, ids per Moebius block


def check_modular(n: int, ranks: Sequence[int], columns: Sequence[bytes]) -> dict:
    """Rank-additivity scan: rank x + rank y = rank meet + rank join, on
    the ranks and the vector columns of order n, with no diagram.

    Returns the first violating quadruple, if any, as a witness, over
    the pairs x < y of node ids in order, with their joins and meets
    from `_row_bounds`.  The columns are read where
    `certificates.prove` has proved them the words' vectors and each
    lane's coordinate sum is its rank, as `checks._check_modularity`
    proves first: a result that passes `lanes._word_bits` is then a
    node's row, and its sum that node's rank.  `modular` is None where
    the scan cannot decide, at the first pair whose join or meet is no
    node, which is then the witness.
    The meet and join of a failing quadruple are named from their rows.
    """
    for x, y, join, meet in _row_bounds(n, len(ranks), columns):
        if None in (join, meet):
            pair = {"x": node_name(n, x), "y": node_name(n, y)}
            return {"n": n, "modular": None, "witness": pair}
        if ranks[x] + ranks[y] != sum(meet) + sum(join):
            witness = {"x": node_name(n, x), "y": node_name(n, y),
                       "meet": _row_name(n, meet), "join": _row_name(n, join),
                       "ranks": [ranks[x], ranks[y], sum(meet), sum(join)]}
            return {"n": n, "modular": False, "witness": witness}
    return {"n": n, "modular": True, "witness": None}


def _row_bounds(n: int, size: int, columns: Sequence[bytes]
                ) -> Iterator[tuple[int, int, bytes | None, bytes | None]]:
    """(x, y, the row of their join, that of their meet) for the pairs
    x < y of the `size` nodes of the order-n columns in order, but for
    the pairs with x <= y in the order, whose meet is x and join is y:
    each row x reads x's up-set once, on the lanes
    (`lanes._lane_up_sets`), which skips the bottom's whole row.  A join
    or meet that is no node (`lanes._word_bits`) is None.

    The rest of row x is joined and met in batches of up to
    `_ROW_CHUNK` pairs, so a scan that stops early in a long row reads
    one batch: x's byte repeated is one side of the lanes, and the
    bytes of the batch's nodes, cut from the columns, the other.  The
    joins and the meets are stacked, the joins in the higher lanes, and
    tested whole by `lanes._word_bits`; only where that fails is each
    result tested alone.
    """
    up_set = lanes._lane_up_sets(n, columns)
    for x in range(size):
        later = ((1 << size) - 1) ^ ((1 << (x + 1)) - 1)  # the ids after x
        row = bits(later & ~up_set(x))
        for start in range(0, len(row), _ROW_CHUNK):
            ys = row[start:start + _ROW_CHUNK]
            width = len(ys)
            ones = int.from_bytes(b"\1" * width, "big")
            us, vs = [column[x] * ones for column in columns], lanes._cut_lanes(n, columns, ys)
            stacked = [j << 8 * width | m for j, m in zip(lanes._column_joins(n, width, us, vs),
                                                          lanes._column_meets(n, width, us, vs))]
            if lanes._word_bits(n, 2 * width, stacked) is None:
                # each lane alone, its bytes those of the columns in two's complement
                mask = (1 << 16 * width) - 1
                bounds = [lane if lanes._word_bits(n, 1, list(lane)) is not None else None
                          for lane in lanes._split_rows(2 * width, [c & mask for c in stacked])]
            else:
                bounds = list(lanes._split_rows(2 * width, stacked))
            yield from zip([x] * width, ys, bounds, bounds[width:])


def _row_name(n: int, row: bytes) -> str:
    """The cycle literal of the canonical word whose vector is row, a
    lane that passes `lanes._word_bits`, from the position of each
    letter i in it: 1 stands first, and before i stand the letters
    2 <= b < i that i does not precede and the letters b > i that
    precede it,
    (i - 1) - sum over 2 <= b < i of B(b, i) + sum over b > i of B(i, b),
    with B(b, i) = v[1,i] - v[1,b] - v[b,i]."""
    v = dict(zip(combinations(range(1, n + 1), 2), row))
    place = list(range(n))  # place[i - 1]: the position of letter i
    for b, i in combinations(range(2, n + 1), 2):
        bit = v[1, i] - v[1, b] - v[b, i]
        place[b - 1] += bit
        place[i - 1] -= bit
    return word_text(tuple(sorted(range(1, n + 1), key=lambda a: place[a - 1])))


# --- rank truncations and the partition order ---------------------------

Partition = tuple[int, ...]


def partitions_up_to(k: int) -> list[Partition]:
    """All partitions of weight <= k, sorted by (weight, lex)."""

    def parts(total: int, largest: int) -> Iterable[Partition]:
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    out: list[Partition] = []
    for w in range(k + 1):
        out.extend(sorted(parts(w, w)))
    return out


def partition_leq(lam: Partition, mu: Partition) -> bool:
    """Containment of Young diagrams."""
    if len(lam) > len(mu):
        return False
    return all(a <= b for a, b in zip(lam, mu))


def shuffle_partition(sigma: CircularPermutation, rank: int) -> Partition:
    """The partition encoding a low-rank circular permutation.

    Valid for rank <= n/2: exactly one rotation of the cycle keeps both
    letter blocks {1.. n/2} and {n/2+1 .. n} increasing while its
    statistic (for each small letter, the count of large letters to its
    right) sums to the rank; that statistic, weakly decreasing, is the
    partition.
    """
    n = sigma.n
    half = n // 2
    low = set(range(1, half + 1))
    found = []
    word = sigma.canon
    for t in range(n):
        rot = word[t:] + word[:t]
        lows = [a for a in rot if a in low]
        highs = [a for a in rot if a not in low]
        if lows != sorted(lows) or highs != sorted(highs):
            continue
        stat = []
        for a in range(1, half + 1):
            p = rot.index(a)
            stat.append(sum(1 for b in rot[p + 1:] if b not in low))
        if sum(stat) != rank or any(x < y for x, y in zip(stat, stat[1:])):
            continue
        found.append(tuple(x for x in stat if x))
    if len(found) != 1:
        raise CyclatError(
            f"{sigma} has {len(found)} shuffle encodings at rank {rank}")
    return found[0]


def check_young_limit(n: int, k: int, ranks: Sequence[int],
                      columns: Sequence[bytes]) -> dict:
    """Rank-<=k truncation against the partition order (needs n >= 2k),
    read off `_prefix_ranks(n)` and `_vector_columns(n)`, with no
    diagram.

    The shuffle statistic must biject the truncation onto partitions of
    weight <= k and carry the order to containment: each element's
    up-set (`lanes._lane_up_sets`), cut to the truncation, must be the
    mask of the elements whose partitions contain its own.  Only the
    words of the truncation are decoded (`node_word`).
    """
    if n < 2 * k:
        raise CyclatError(f"need n >= 2k, got n={n}, k={k}")
    ids = [t for t, rank in enumerate(ranks) if rank <= k]
    encoding = {t: shuffle_partition(CircularPermutation(node_word(n, t)), ranks[t])
                for t in ids}
    target = set(partitions_up_to(k))
    bijective = (len(set(encoding.values())) == len(ids)
                 and set(encoding.values()) == target)
    truncation = sum(1 << t for t in ids)
    up_set = lanes._lane_up_sets(n, columns)
    order_ok = all(
        up_set(a) & truncation
        == sum(1 << b for b in ids if partition_leq(encoding[a], encoding[b]))
        for a in ids)
    sizes = {r: sum(1 for t in ids if ranks[t] == r) for r in range(k + 1)}
    return {
        "n": n,
        "k": k,
        "pass": bijective and order_ok,
        "rank_sizes": sizes,
        "partition_counts": {w: sum(1 for p in target if sum(p) == w)
                             for w in range(k + 1)},
    }


# --- conjugating permutation of an upward path ---------------------------


@dataclass(frozen=True)
class PathConjugator:
    """alpha with target = alpha o source o alpha^{-1}, as a word."""

    alpha: Word
    source: CircularPermutation
    target: CircularPermutation


def path_conjugator(
    sigma: CircularPermutation, chain: Sequence[DescentLabel]
) -> PathConjugator:
    """Multiply the chain's transpositions right-to-left from `sigma`.

    Each label must be a large circular descent of the current element
    (so the chain is an upward path in the diagram); the result depends
    only on the endpoints.
    """
    current = sigma
    alpha = tuple(range(1, sigma.n + 1))  # alpha[x - 1] = image of x
    for label in chain:
        steps = {(r, s): word for r, s, word in kernels.word_covers_up(current.canon)}
        key = label.as_pair()
        if key not in steps:
            raise NotAChainError(
                f"({label.r},{label.s}) is not a large circular descent "
                f"of {current}")
        current = CircularPermutation(steps[key])
        alpha = compose_transposition(alpha, *key)
    return PathConjugator(alpha, sigma, current)


def compose_transposition(alpha: Word, r: int, s: int) -> Word:
    """(r s) o alpha: the word of images with the values r and s swapped."""
    return tuple(s if a == r else r if a == s else a for a in alpha)


def conjugator_potential(word: Word, first_row: Iterable[int]) -> Word:
    """A(x), the conjugator of every chain from the bottom up to x: x's
    canonical word rotated by m(x) = (sum_j x[1, j]) mod n, so that
    A(x)(p) = word[(p + m(x)) mod n], positions from 0; first_row holds
    x[1, 2], ..., x[1, n].  A(hi) = (r s) o A(lo) on every cover
    (`certificates`, for `checks._check_alpha`)."""
    m = sum(first_row) % len(word)
    return word[m:] + word[:m]


def maximal_chain(diagram: HasseDiagram) -> list[DescentLabel]:
    """One saturated chain from bottom to top (first label at each step)."""
    chain = []
    t = diagram.bottom
    while above := diagram.edges_above(t):
        k = above[0]
        chain.append(DescentLabel(diagram.r[k], diagram.s[k]))
        t = diagram.hi[k]
    return chain


def conjugator_formula(n: int) -> Word:
    """Expected conjugator of a bottom-to-top path: the reversal word for
    odd n, its half-shifted variant for even n."""
    if n % 2 == 1:
        return tuple(range(n, 0, -1))
    half = n // 2
    return tuple(range(half, 0, -1)) + tuple(range(n, half, -1))


# --- exports -------------------------------------------------------------


EXPORT_BLOCK = 1024  # rows formatted by one % call, a piece of the export


def _blocks(width: int, values: Iterable) -> Iterator[tuple]:
    """`values` cut into blocks of `EXPORT_BLOCK` rows of `width`."""
    values = iter(values)
    while block := tuple(islice(values, width * EXPORT_BLOCK)):
        yield block


def _formatted(item: str, width: int, blocks: Iterable[Sequence]) -> Iterator[str]:
    """`item % row` for each row of `width` values of each block, a
    piece a block: one % call formats a block on `item` repeated once
    per row.  `map` holds no block once it is formatted, so the next is
    drawn with only the text of this one held."""
    return map(lambda block: item * (len(block) // width) % tuple(block), blocks)


def _listed(pieces: Iterator[str]) -> Iterator[str]:
    """The pieces of a list whose items each start with the separator
    ",", which the first item goes without."""
    first = next(pieces, None)
    if first is not None:
        yield first[1:]
        yield from pieces


def _label_tails(n: int) -> Iterator[str]:
    """The cycle literal of each node of order n in id order, less its
    "(1" and ")": the letters of p, each after a comma ("" at n = 1)."""
    return map("".join, permutations(["," + str(a) for a in range(2, n + 1)]))


def _export(n: int, ranks: Sequence[int], edges: Iterable[Sequence[int]],
            fmt: str) -> Iterator[str]:
    """The text of `to_dot` (fmt "dot") or `to_json` (fmt "json") of the
    diagram of order n with these ranks in id order and these edges, in
    the flat blocks of `_cover_blocks`, as pieces: the fixed parts, one
    piece per rank line of DOT, and a `_formatted` piece a block.  The
    node labels follow from n.  Only the DOT rank groups are held; the
    rest is formatted as it is drawn from the inputs."""
    if fmt != "dot":
        return chain(
            ('{"edges":[',),
            _listed(_formatted(",[%d,%d,[%d,%d]]", 4, edges)),
            ('],"n":%d,"nodes":[' % n,),
            _listed(_formatted(',"(1%s)"', 1, _blocks(1, _label_tails(n)))),
            ('],"ranks":[',),
            _listed(_formatted(",%d", 1, _blocks(1, ranks))),
            ("]}\n",))
    # each rank's ids as unsigned machine ints, 4 bytes a node, not 36
    # (an id is below 12! < 2^32 up to n = 13); the arrays made once a
    # rank, not once a node
    by_rank = {rank: array("I") for rank in set(ranks)}
    for t, rank in enumerate(ranks):
        by_rank[rank].append(t)
    return chain(
        ("digraph CP%d {\n  rankdir=BT;\n  node [shape=box];\n" % n,),
        _formatted('  n%d [label="(1%s)"];\n', 2,
                   _blocks(2, chain.from_iterable(enumerate(_label_tails(n))))),
        ("  { rank=same; " + "n%d; " * len(ids) % tuple(ids) + "}\n"
         for ids in map(by_rank.pop, sorted(by_rank))),
        _formatted('  n%d -> n%d [label="(%d,%d)"];\n', 4, edges),
        ("}\n",))


def export_pieces(n: int, fmt: str) -> Iterator[str]:
    """The text of `to_dot(build(n))` (fmt "dot") or `to_json(build(n))`
    (fmt "json") as pieces, straight from the enumeration with no
    diagram: the ranks from `_prefix_ranks` and the edge blocks of
    `_cover_blocks`, each formatted as it is drawn, so only the ranks
    are held, two bytes a node (a rank is at most C(n, 3)).  The order
    is refused here, before the first piece is asked for.
    """
    refuse_over_cap(n)
    return _export(n, array("H", _prefix_ranks(n)), _cover_blocks(n), fmt)


def _edge_blocks(diagram: HasseDiagram) -> Iterator[list[int]]:
    """The diagram's edges in the blocks of `_cover_blocks`: each block
    of `EXPORT_BLOCK` edges cut from the four columns into one flat list
    by slice assignment, a block at a time."""
    columns = (diagram.lo, diagram.hi, diagram.r, diagram.s)
    for start in range(0, len(diagram.lo), EXPORT_BLOCK):
        parts = [column[start:start + EXPORT_BLOCK] for column in columns]
        block = [0] * (4 * len(parts[0]))
        for k, part in enumerate(parts):
            block[k::4] = part
        yield block


def _diagram_text(diagram: HasseDiagram, fmt: str) -> str:
    return "".join(_export(diagram.n, diagram.ranks, _edge_blocks(diagram), fmt))


def to_dot(diagram: HasseDiagram) -> str:
    """Deterministic Graphviz rendering with same-rank grouping.

    Lines, each ending in a newline: the header, one `nT [label=...]`
    line per node in id order, one `{ rank=same; ... }` line per rank in
    ascending order listing its nodes in id order, one `nLO -> nHI
    [label="(r,s)"]` line per edge in column order, and "}".
    """
    return _diagram_text(diagram, "dot")


def to_json(diagram: HasseDiagram) -> str:
    """Deterministic JSON rendering: nodes, ranks, labelled edges.

    The text is `json.dumps(payload, sort_keys=True,
    separators=(",", ":"))` plus a newline, for the payload with keys
    "edges" ([lo, hi, [r, s]] per edge), "n", "nodes" (the `word_text`
    of each word) and "ranks".  `_export` writes that text directly:
    every value is an int, a list or a node label, and a label holds
    only ASCII digits, commas and parentheses, so no string needs
    escaping.
    """
    return _diagram_text(diagram, "json")
