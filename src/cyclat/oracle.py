"""Brute-force reference implementations.

Everything here recomputes a quantity from its bare definition, sharing
no code with the module it cross-checks: the diagram is found by
breadth-first search over covers, the order is taken as the
reflexive-transitive closure of the cover graph, bounds are found by
search over that closure, the Moebius function comes from its defining
recursion, descents are counted through the cycle's
successor map, affine lengths by direct pair enumeration and by
breadth-first search over generator applications.  Slow on purpose;
used by the test suite and the `check` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from cyclat import kernels
from cyclat.errors import NotALatticeError
from cyclat.perm import Word
from cyclat.poset import HasseDiagram


def diagram_by_search(n: int) -> tuple[tuple[Word, ...],
                                       tuple[tuple[int, int, tuple[int, int]], ...],
                                       tuple[int, ...]]:
    """The diagram as (words, edges, ranks), by breadth-first search over
    covers from (1, 2, ..., n).

    Words are sorted, edges are sorted (lower, upper, (r, s)) index
    triples, ranks come from `word_rank`.  `poset.build` calls neither
    `word_covers_up` nor `word_rank` (its cover ids and ranks are
    arithmetic on the lexicographic order), so the search is an
    independent reference for every column of the diagram.  The search
    also shows that every node is reachable from the bottom; a directly
    enumerated diagram keeps that guarantee through the `grading`
    check's single-bottom test, since a finite poset with one minimal
    element is connected through covers.
    """
    bottom = tuple(range(1, n + 1))
    seen = {bottom}
    frontier = [bottom]
    edge_set = set()
    while frontier:
        nxt = set()
        for word in frontier:
            for r, s, upper in kernels.word_covers_up(word):
                edge_set.add((word, upper, (r, s)))
                if upper not in seen:
                    nxt.add(upper)
        seen |= nxt
        frontier = list(nxt)
    words = tuple(sorted(seen))
    index = {w: t for t, w in enumerate(words)}
    edges = tuple(sorted((index[a], index[b], rs) for a, b, rs in edge_set))
    return words, edges, tuple(kernels.word_rank(w) for w in words)


@dataclass(frozen=True)
class ClosureOrder:
    """Reachability of the cover relation, as bitmasks over node ids."""

    above: tuple[int, ...]   # above[x] has bit y set iff x <= y
    below: tuple[int, ...]   # below[y] has bit x set iff x <= y
    layers: tuple[int, ...]  # layers[r] has bit z set iff z has rank r
    ranks: tuple[int, ...]

    def leq(self, x: int, y: int) -> bool:
        return bool(self.above[x] >> y & 1)


def order_by_closure(diagram: HasseDiagram) -> ClosureOrder:
    """The order as the reflexive-transitive closure of the edges."""
    size = len(diagram.ranks)
    succ = [[] for _ in range(size)]
    pred = [[] for _ in range(size)]
    for lo, hi in zip(diagram.lo, diagram.hi):
        succ[lo].append(hi)
        pred[hi].append(lo)
    by_rank = sorted(range(size), key=diagram.ranks.__getitem__)
    above = [0] * size
    for x in reversed(by_rank):
        mask = 1 << x
        for y in succ[x]:
            mask |= above[y]
        above[x] = mask
    below = [0] * size
    layers = [0] * (max(diagram.ranks, default=-1) + 1)
    for y in by_rank:
        mask = 1 << y
        for x in pred[y]:
            mask |= below[x]
        below[y] = mask
        layers[diagram.ranks[y]] |= 1 << y
    return ClosureOrder(tuple(above), tuple(below), tuple(layers), diagram.ranks)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def join_by_search(closure: ClosureOrder, x: int, y: int) -> int:
    """The common upper bound of least rank and id, if it is below all
    the others; unique for this order."""
    common = closure.above[x] & closure.above[y]
    if not common:
        raise NotALatticeError(f"nodes {x} and {y} have no upper bound")
    best = next(_lowest_bit(common & layer) for layer in closure.layers
                if common & layer)
    if common & ~closure.above[best]:
        raise NotALatticeError(f"no least upper bound for {x}, {y}")
    return best


def meet_by_search(closure: ClosureOrder, x: int, y: int) -> int:
    """The common lower bound of greatest rank and least id, if it is
    above all the others; unique for this order."""
    common = closure.below[x] & closure.below[y]
    if not common:
        raise NotALatticeError(f"nodes {x} and {y} have no lower bound")
    best = next(_lowest_bit(common & layer) for layer in reversed(closure.layers)
                if common & layer)
    if common & ~closure.below[best]:
        raise NotALatticeError(f"no greatest lower bound for {x}, {y}")
    return best


def mobius_by_recursion(closure: ClosureOrder, x: int) -> dict[int, int]:
    """mu(x, y) for every y >= x by the defining recursion
    mu(x, y) = -sum of mu(x, z) over x <= z < y; quadratic in the size
    of the up-set."""
    members = sorted(_bits(closure.above[x]), key=lambda z: (closure.ranks[z], z))
    mu: dict[int, int] = {}
    for t, z in enumerate(members):
        mu[z] = 1 if t == 0 else -sum(mu[w] for w in members[:t] if closure.leq(w, z))
    return mu


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mobius_by_chain_count(closure: ClosureOrder, x: int, y: int) -> int:
    """Moebius value as the alternating sum over all chains from x to y.

    Enumerates every chain x = z0 < z1 < ... < zk = y explicitly and adds
    (-1)^k; exponential, only for small intervals.
    """
    if not closure.leq(x, y):
        raise NotALatticeError(f"{x} is not below {y}")
    members = [z for z in range(len(closure.above))
               if closure.leq(x, z) and closure.leq(z, y)]

    def walk(z: int, sign: int) -> int:
        if z == y:
            return sign
        return sum(walk(w, -sign) for w in members
                   if w != z and closure.leq(z, w))

    return walk(x, 1)


def descents_by_scan(n: int) -> dict[int, int]:
    """Histogram of large-circular-descent counts over cycles in S_{n+1},
    counted through the successor map of each cycle."""
    hist: dict[int, int] = {}
    m = n + 1
    for rest in permutations(range(2, m + 1)):
        word = (1,) + rest
        pred = {}
        for t, a in enumerate(word):
            pred[word[(t + 1) % m]] = a
        count = sum(1 for b in range(1, m + 1) if pred[b] > b + 1)
        hist[count] = hist.get(count, 0) + 1
    return hist


def enumerate_admitted(n: int) -> list[tuple[int, ...]]:
    """All flat admitted vectors of order n, by bounded product search.

    Any admitted entry satisfies v[i,j] <= j - i - 1 (induction on j - i
    from the defining inequalities), so the search space is finite.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pos = {p: t for t, p in enumerate(pairs)}
    ranges = [range(j - i) if j - i >= 2 else range(1) for i, j in pairs]
    out = []
    for flat in product(*ranges):
        ok = True
        for i, j, k in combinations(range(1, n + 1), 3):
            d = flat[pos[i, k]] - flat[pos[i, j]] - flat[pos[j, k]]
            if d != 0 and d != 1:
                ok = False
                break
        if ok:
            out.append(flat)
    return out


def affine_length_by_enumeration(entries: tuple[int, ...]) -> int:
    """Inversion count of the window by direct enumeration of pairs
    (i, j), i < j <= i + n * bound, on the periodic extension."""
    n = len(entries)

    def f(x: int) -> int:
        p = (x - 1) % n
        return entries[p] + (x - 1 - p)

    bound = (max(entries) - min(entries)) // n + 2
    return sum(1
               for i in range(1, n + 1)
               for j in range(i + 1, i + n * bound + 1)
               if f(i) > f(j))


def generator_ball(n: int, depth: int) -> dict[tuple[int, ...], int]:
    """Every window reachable from the identity by at most `depth` left
    generator applications, mapped to its breadth-first distance."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    frontier = [start]
    for d in range(1, depth + 1):
        nxt = []
        for win in frontier:
            for k in range(n):
                new = list(win)
                for t, a in enumerate(new):
                    if a % n == (k + 1) % n:
                        new[t] = a - 1
                    elif a % n == k % n:
                        new[t] = a + 1
                cand = tuple(new)
                if cand not in dist:
                    dist[cand] = d
                    nxt.append(cand)
        frontier = nxt
    return dist
