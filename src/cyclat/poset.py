"""The full order on circular permutations of a given order.

`build` materializes the labelled Hasse diagram: node t is the t-th
canonical word (1, p) with p running over the permutations of 2..n in
lexicographic order, and the covers are held as flat edge columns
sorted by (lower, upper) index, so exports are byte-for-byte
reproducible.  Everything else queries the diagram: rank grading,
Eulerian cover statistics, the Moebius function, semidistributivity and
modularity scans, rank truncations against the partition order, and
conjugating permutations of upward paths.
"""

from __future__ import annotations

import json
import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import permutations
from math import comb, factorial
from typing import Iterable, Sequence

from cyclat import kernels
from cyclat.errors import (
    CapExceededError,
    CyclatError,
    NotAChainError,
    NotComparableError,
)
from cyclat.perm import CircularPermutation, DescentLabel, Word, all_cycles, word_text

DEFAULT_MAX_N = 9
_ENV_CAP = "CYCLAT_MAX_N"


def enumeration_cap() -> int:
    """Largest order `build` accepts; override with CYCLAT_MAX_N.

    Memory grows like (n-1)! nodes of n letters plus four ints per
    edge; the default cap of 9 keeps the diagram around 40320 nodes.
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

    words[t] is the canonical word of node t, sorted lexicographically;
    ranks[t] grades node t.  Edge k runs from node lo[k] up to node hi[k]
    and is labelled (r[k], s[k]); edges are sorted by (lo, hi).  The
    object views (nodes, edges, vecs, vec_index, up, down) are built on
    first use and never mutated.  The order and the lattice operations
    (leq, join, meet, above) take and return node ids.
    """

    n: int
    words: tuple[Word, ...]
    ranks: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]
    index: dict[Word, int] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.ranks) != len(self.words):
            raise CyclatError(f"{len(self.ranks)} ranks for {len(self.words)} nodes")
        if not len(self.lo) == len(self.hi) == len(self.r) == len(self.s):
            raise CyclatError("edge columns differ in length")

    @cached_property
    def nodes(self) -> tuple[CircularPermutation, ...]:
        return tuple(CircularPermutation(w) for w in self.words)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, DescentLabel], ...]:
        return tuple((a, b, DescentLabel(r, s))
                     for a, b, r, s in zip(self.lo, self.hi, self.r, self.s))

    @cached_property
    def vecs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(kernels.word_vector(w) for w in self.words)

    @cached_property
    def up(self) -> tuple[tuple[int, ...], ...]:
        up = [[] for _ in self.words]
        for a, b in zip(self.lo, self.hi):
            up[a].append(b)
        return tuple(map(tuple, up))

    @cached_property
    def down(self) -> tuple[tuple[int, ...], ...]:
        down = [[] for _ in self.words]
        for a, b in zip(self.lo, self.hi):
            down[b].append(a)
        return tuple(map(tuple, down))

    def edges_above(self, t: int) -> range:
        """Positions in the edge columns of the covers above node t."""
        return range(bisect_left(self.lo, t), bisect_right(self.lo, t))

    def label(self, k: int) -> DescentLabel:
        return DescentLabel(self.r[k], self.s[k])

    def node_id(self, sigma: CircularPermutation) -> int:
        return self.index[sigma.canon]

    @cached_property
    def vec_index(self) -> dict[tuple[int, ...], int]:
        """Node id of each admitted vector; the inverse of `vecs`."""
        return {v: t for t, v in enumerate(self.vecs)}

    def leq(self, x: int, y: int) -> bool:
        return kernels.leq_flat(self.vecs[x], self.vecs[y])

    def join(self, x: int, y: int) -> int:
        return self.vec_index[kernels.join_flat(self.n, self.vecs[x], self.vecs[y])]

    def meet(self, x: int, y: int) -> int:
        return self.vec_index[kernels.meet_flat(self.n, self.vecs[x], self.vecs[y])]

    def above(self, x: int) -> list[int]:
        """Node ids z with x <= z, in id order."""
        return [z for z in range(len(self.words)) if self.leq(x, z)]

    @property
    def bottom(self) -> int:
        return self.index[CircularPermutation.smallest(self.n).canon]

    @property
    def top(self) -> int:
        return self.index[CircularPermutation.largest(self.n).canon]


def build(n: int) -> HasseDiagram:
    """Materialize the diagram of order n by direct enumeration.

    The nodes are the (n-1)! canonical words in lexicographic order;
    each node's covers come from one `word_covers_up` call and are
    appended to the edge columns in upper-index order.  Ranks come from
    `word_rank`, independently of the edges.
    """
    refuse_over_cap(n)
    words = tuple((1,) + p for p in permutations(range(2, n + 1)))
    index = {w: t for t, w in enumerate(words)}
    lo: list[int] = []
    hi: list[int] = []
    rs: list[int] = []
    ss: list[int] = []
    for t, word in enumerate(words):
        for b, r, s in sorted([(index[u], r, s)
                               for r, s, u in kernels.word_covers_up(word)]):
            lo.append(t)
            hi.append(b)
            rs.append(r)
            ss.append(s)
    ranks = tuple(map(kernels.word_rank, words))
    return HasseDiagram(n, words, ranks, tuple(lo), tuple(hi), tuple(rs),
                        tuple(ss), index)


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


def descent_histogram(n: int) -> dict[int, int]:
    """Histogram of large-circular-descent counts over cycles in S_{n+1}."""
    hist: dict[int, int] = {}
    for sigma in all_cycles(n + 1):
        d = kernels.descent_count(sigma.canon)
        hist[d] = hist.get(d, 0) + 1
    return hist


def verify_descent_distribution(n: int) -> dict:
    """Check the cover statistics of the order on cycles in S_{n+1}.

    The descent histogram must equal the Eulerian row a(n, .); the number
    of elements with k covers above, read off the built diagram, must be
    a(n, k) as well; the edge total must be sum k * a(n, k).
    """
    diagram = build(n + 1)  # first, so the cap refuses n before any enumeration
    row = {k: eulerian(n, k) for k in range(max(n, 1)) if eulerian(n, k)}
    hist = descent_histogram(n)
    updeg: dict[int, int] = {}
    for above in diagram.up:
        updeg[len(above)] = updeg.get(len(above), 0) + 1
    edge_total = sum(k * a for k, a in row.items())
    ok = hist == row and updeg == row and len(diagram.lo) == edge_total
    return {
        "n": n,
        "pass": ok,
        "eulerian_row": row,
        "descent_histogram": hist,
        "cover_histogram": updeg,
        "edges": len(diagram.lo),
        "expected_edges": edge_total,
    }


def _require_leq(diagram: HasseDiagram, x: int, y: int) -> None:
    if not diagram.leq(x, y):
        raise NotComparableError(f"{word_text(diagram.words[x])} is not below "
                                 f"{word_text(diagram.words[y])}")


def interval(diagram: HasseDiagram, x: int, y: int) -> list[int]:
    """Node ids z with x <= z <= y, sorted by rank then id."""
    _require_leq(diagram, x, y)
    # above(x) is in id order and the sort is stable: rank, then id
    return sorted((z for z in diagram.above(x) if diagram.leq(z, y)),
                  key=diagram.ranks.__getitem__)


def mobius(diagram: HasseDiagram, x: int, y: int) -> int:
    """Moebius function of the closed interval [x, y]."""
    _require_leq(diagram, x, y)
    return mobius_from(diagram, x).get(y, 0)


def mobius_from(diagram: HasseDiagram, x: int) -> dict[int, int]:
    """The nonzero values mu(x, y) over y >= x; every other y has mu 0.

    Rota's crosscut theorem: mu(x, y) is the sum of (-1)^|S| over the
    sets S of upper covers of x whose join is y.  Each subset's join is
    one `join` of the subset without its last cover with that cover.
    """
    covers = diagram.up[x]
    joins = [x] * (1 << len(covers))  # joins[mask]: join of the covers in mask
    mu = {x: 1}
    for mask in range(1, len(joins)):
        last = mask.bit_length() - 1
        y = joins[mask] = diagram.join(joins[mask ^ (1 << last)], covers[last])
        mu[y] = mu.get(y, 0) + (-1 if mask.bit_count() % 2 else 1)
    return {y: value for y, value in mu.items() if value}


def _lattice_tables(diagram: HasseDiagram):
    size = len(diagram.words)
    joins = [[0] * size for _ in range(size)]
    meets = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            joins[a][b] = joins[b][a] = diagram.join(a, b)
            meets[a][b] = meets[b][a] = diagram.meet(a, b)
    return tuple(map(tuple, joins)), tuple(map(tuple, meets))


def check_semidistributive(diagram: HasseDiagram) -> dict:
    """Test the two semidistributive laws through join and meet classes.

    SD-join holds at x iff for every value c of x v y the meet m of the
    class {y : x v y = c} has x v m = c; SD-meet is the dual (Freese,
    Jezek and Nation, Free Lattices, 1995).  That costs O(N^2) table
    reads; at the first x that fails, `sd_scan` finds the witness triple
    in lexicographic order.
    """
    joins, meets = _lattice_tables(diagram)
    found = None
    for x, (jx, mx) in enumerate(zip(joins, meets)):
        low: dict[int, int] = {}   # x v y -> meet of its class
        high: dict[int, int] = {}  # x ^ y -> join of its class
        for y, (c, d) in enumerate(zip(jx, mx)):
            low[c] = meets[low[c]][y] if c in low else y
            high[d] = joins[high[d]][y] if d in high else y
        if (any(jx[m] != c for c, m in low.items())
                or any(mx[j] != d for d, j in high.items())):
            found = kernels.sd_scan(joins, meets)
            break
    witness = None
    if found is not None:
        x, y, z, law = found
        witness = {"law": law,
                   "x": word_text(diagram.words[x]),
                   "y": word_text(diagram.words[y]),
                   "z": word_text(diagram.words[z])}
    return {"n": diagram.n, "pass": witness is None, "witness": witness}


def check_modular(diagram: HasseDiagram) -> dict:
    """Rank-additivity scan: rank x + rank y = rank meet + rank join.

    Returns the first violating quadruple, if any, as a witness.
    """
    size = len(diagram.words)
    for x in range(size):
        for y in range(x + 1, size):
            m = diagram.meet(x, y)
            j = diagram.join(x, y)
            if diagram.ranks[x] + diagram.ranks[y] != diagram.ranks[m] + diagram.ranks[j]:
                witness = {
                    "x": word_text(diagram.words[x]),
                    "y": word_text(diagram.words[y]),
                    "meet": word_text(diagram.words[m]),
                    "join": word_text(diagram.words[j]),
                    "ranks": [diagram.ranks[x], diagram.ranks[y],
                              diagram.ranks[m], diagram.ranks[j]],
                }
                return {"n": diagram.n, "modular": False, "witness": witness}
    return {"n": diagram.n, "modular": True, "witness": None}


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


def check_young_limit(n: int, k: int) -> dict:
    """Rank-<=k truncation against the partition order (needs n >= 2k).

    The shuffle statistic must biject the truncation onto partitions of
    weight <= k and carry the order to containment.
    """
    if n < 2 * k:
        raise CyclatError(f"need n >= 2k, got n={n}, k={k}")
    diagram = build(n)
    ids = [t for t in range(len(diagram.words)) if diagram.ranks[t] <= k]
    encoding = {t: shuffle_partition(CircularPermutation(diagram.words[t]),
                                     diagram.ranks[t])
                for t in ids}
    target = set(partitions_up_to(k))
    bijective = (len(set(encoding.values())) == len(ids)
                 and set(encoding.values()) == target)
    order_ok = all(
        diagram.leq(a, b) == partition_leq(encoding[a], encoding[b])
        for a in ids for b in ids)
    sizes = {r: sum(1 for t in ids if diagram.ranks[t] == r)
             for r in range(k + 1)}
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


def maximal_chain(diagram: HasseDiagram) -> list[DescentLabel]:
    """One saturated chain from bottom to top (first label at each step)."""
    chain = []
    t = diagram.bottom
    while above := diagram.edges_above(t):
        k = above[0]
        chain.append(diagram.label(k))
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


def to_dot(diagram: HasseDiagram) -> str:
    """Deterministic Graphviz rendering with same-rank grouping."""
    lines = [f"digraph CP{diagram.n} {{", "  rankdir=BT;", "  node [shape=box];"]
    for t, word in enumerate(diagram.words):
        lines.append(f'  n{t} [label="{word_text(word)}"];')
    by_rank: dict[int, list[str]] = {}
    for t, rank in enumerate(diagram.ranks):
        by_rank.setdefault(rank, []).append(f"n{t}")
    for rank in sorted(by_rank):
        lines.append(f"  {{ rank=same; {'; '.join(by_rank[rank])}; }}")
    for lo, hi, r, s in zip(diagram.lo, diagram.hi, diagram.r, diagram.s):
        lines.append(f'  n{lo} -> n{hi} [label="({r},{s})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(diagram: HasseDiagram) -> str:
    """Deterministic JSON rendering: nodes, ranks, labelled edges."""
    payload = {
        "n": diagram.n,
        "nodes": [word_text(word) for word in diagram.words],
        "ranks": list(diagram.ranks),
        "edges": [[lo, hi, [r, s]] for lo, hi, r, s
                  in zip(diagram.lo, diagram.hi, diagram.r, diagram.s)],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def grading_report(n: int) -> dict:
    """Node count, rank image, and per-edge rank increments of build(n)."""
    diagram = build(n)
    image = sorted(set(diagram.ranks))
    increments_ok = all(diagram.ranks[hi] == diagram.ranks[lo] + 1
                        for lo, hi in zip(diagram.lo, diagram.hi))
    size = len(diagram.words)
    has_down, has_up = set(diagram.hi), set(diagram.lo)
    bottoms = [t for t in range(size) if t not in has_down]
    tops = [t for t in range(size) if t not in has_up]
    ok = (size == factorial(n - 1)
          and image == list(range(comb(n, 3) + 1))
          and increments_ok and len(bottoms) == 1 and len(tops) == 1)
    return {
        "n": n,
        "pass": ok,
        "nodes": size,
        "expected_nodes": factorial(n - 1),
        "max_rank": image[-1],
        "expected_max_rank": comb(n, 3),
        "rank_image_complete": image == list(range(comb(n, 3) + 1)),
        "unit_increments": increments_ok,
        "bottoms": len(bottoms),
        "tops": len(tops),
    }
