"""Named structural verifications, runnable from the CLI or tests.

Each check reproduces one finite claim about the order at a given n and
returns a CheckReport.  Exhaustive scans are used whenever the element
count allows; otherwise sampling is seeded and reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from math import factorial
from operator import or_
from typing import Callable

from cyclat import affine, oracle, poset, vectors
from cyclat.errors import QuadNotFlippableError, UnknownCheckError
from cyclat.perm import CircularPermutation, all_cycles, word_text
from cyclat.poset import build
from cyclat.vectors import AdmittedVector

_SEED = 283465


@dataclass
class CheckReport:
    check: str
    n: int
    passed: bool
    witness: dict | None
    elapsed: float

    def to_payload(self) -> dict:
        payload = {"check": self.check, "n": self.n, "pass": self.passed,
                   "elapsed": round(self.elapsed, 3)}
        if self.witness is not None:
            payload["witness"] = self.witness
        return payload

    def human(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  witness: {self.witness}" if self.witness else ""
        return f"[{status}] {self.check} n={self.n} ({self.elapsed:.2f}s){extra}"


def _check_grading(n: int) -> tuple[bool, dict | None]:
    report = poset.grading_report(n)
    ok = report.pop("pass")
    return ok, None if ok else report


def _check_eulerian(n: int) -> tuple[bool, dict | None]:
    report = poset.verify_descent_distribution(n)
    ok = report.pop("pass")
    closed_form = poset.eulerian(n, 1) == 2 ** n - n - 1 if n >= 1 else True
    scan = oracle.descents_by_scan(n)
    ok = ok and closed_form and scan == report["eulerian_row"]
    return ok, None if ok else report


def _check_mobius(n: int) -> tuple[bool, dict | None]:
    diagram = build(n)
    for x in range(len(diagram.words)):
        mu = poset.mobius_from(diagram, x)
        bad = [y for y, value in mu.items() if value not in (-1, 0, 1)]
        if bad:
            y = min(bad, key=lambda t: (diagram.ranks[t], t))
            return False, {"x": word_text(diagram.words[x]),
                           "y": word_text(diagram.words[y]),
                           "mu": mu[y]}
    return True, None


def _check_lattice(n: int) -> tuple[bool, dict | None]:
    """The order is a lattice, and `join`/`meet` compute its bounds.

    Three claims, each read off the threshold masks of the order:

    - The order is the closure of the covers: for every node x,
      above_mask(x) is bit x OR the up-sets of its upper covers.  The
      nodes are taken rank by rank from the top, so only the masks of
      a few ranks are held at once.
    - The order is a lattice.  A bounded poset of finite length in which
      every two upper covers of an element have a join is a lattice
      (Bjorner, Edelman and Ziegler, *Hyperplane arrangements with a
      lattice of regions*, Discrete Comput. Geom. 5, 1990, Lemma 2.1),
      and `grading` proves the bounds.  So `join` runs on every two
      upper covers of every node, exhaustively at every n.
    - `join` and `meet` give the least and greatest bounds on every
      ordered pair up to 120 nodes, and on 10,000 seeded pairs above.

    j is the least upper bound of x and y iff
    above_mask(x) & above_mask(y) == above_mask(j): j lies in its own
    up-set, so it is then a common upper bound, and every common upper
    bound lies in the up-set of j, above it.  Meets are the dual, with
    the down-sets.  A result that is not a node, or not the bound,
    fails with the pair as the witness.
    """
    diagram = build(n)
    failure = _cover_failure(diagram)
    if failure:
        return False, failure
    size = len(diagram.words)
    if size <= 120:
        count, pairs = size * size, product(range(size), repeat=2)
    else:
        rng = random.Random(_SEED)
        count = 10_000
        pairs = ((rng.randrange(size), rng.randrange(size)) for _ in range(count))
    up_set = lru_cache(maxsize=1024)(diagram.above_mask)
    down_set = lru_cache(maxsize=1024)(diagram.below_mask)
    for x, y in pairs:
        for op, sets in (("join", up_set), ("meet", down_set)):
            if not _is_bound(diagram, op, sets, x, y):
                return False, _pair_witness(diagram, op, x, y)
    return True, {"pairs": count}


def _is_bound(diagram: poset.HasseDiagram, op: str, sets: Callable[[int], int],
              x: int, y: int) -> bool:
    """Whether diagram.op(x, y) is a node whose `sets` mask (the up-set
    for "join", the down-set for "meet") is those of x and y ANDed."""
    try:
        z = getattr(diagram, op)(x, y)
    except KeyError:  # the kernel's result is not a node
        return False
    return sets(z) == sets(x) & sets(y)


def _pair_witness(diagram: poset.HasseDiagram, op: str, x: int, y: int) -> dict:
    return {"op": op, "pair": [word_text(diagram.words[x]),
                               word_text(diagram.words[y])]}


def _cover_failure(diagram: poset.HasseDiagram) -> dict | None:
    """The witness of the first cover claim of `_check_lattice` to fail.

    A node x whose up-set is not the closure of its covers' fails as
    {"op": "order", "pair": [x, z]}, z the lowest node on which the two
    differ; two upper covers whose `join` is not their least upper bound
    fail as that pair's join.  The walk goes down from the top rank and
    holds the up-sets of the three ranks above: in this order the join
    of two covers of x lies two or three ranks above x, so it is read
    from them, and any other up-set is computed.
    """
    by_rank: dict[int, list[int]] = {}
    for t, rank in enumerate(diagram.ranks):
        by_rank.setdefault(rank, []).append(t)
    held: dict[int, int] = {}  # the up-sets of the nodes up to 3 ranks above

    def up_set(t: int) -> int:
        return held[t] if t in held else diagram.above_mask(t)

    for rank in sorted(by_rank, reverse=True):
        for x in by_rank[rank]:
            mask = diagram.above_mask(x)
            closure = reduce(or_, map(up_set, diagram.up[x]), 1 << x)
            if mask != closure:
                return _pair_witness(diagram, "order", x,
                                     poset.bits(mask ^ closure)[0])
            for y, z in combinations(diagram.up[x], 2):
                if not _is_bound(diagram, "join", up_set, y, z):
                    return _pair_witness(diagram, "join", y, z)
            held[x] = mask
        for t in by_rank.get(rank + 3, ()):
            del held[t]
    return None


def _check_semidistributive(n: int) -> tuple[bool, dict | None]:
    report = poset.check_semidistributive(build(n))
    return report["pass"], report["witness"]


def _check_modularity(n: int) -> tuple[bool, dict | None]:
    report = poset.check_modular(build(n))
    expected_modular = n <= 4
    ok = report["modular"] == expected_modular
    if n == 5 and ok:
        # the canonical witness quadruple must violate rank additivity
        u = vectors.cycle_to_vector(CircularPermutation.from_text("(1,4,2,3,5)"))
        v = vectors.cycle_to_vector(CircularPermutation.from_text("(1,3,4,2,5)"))
        lo, hi = vectors.meet(u, v), vectors.join(u, v)
        quad = {
            "x": "(1,4,2,3,5)", "y": "(1,3,4,2,5)",
            "meet": vectors.vector_to_cycle(lo).as_text(),
            "join": vectors.vector_to_cycle(hi).as_text(),
            "ranks": [u.rank, v.rank, lo.rank, hi.rank],
        }
        ok = (quad["meet"] == "(1,4,2,5,3)" and quad["join"] == "(1,3,5,4,2)"
              and quad["ranks"] == [4, 4, 3, 6])
        return ok, quad
    return ok, report["witness"]


def _check_young(n: int) -> tuple[bool, dict | None]:
    from math import comb
    poset.refuse_over_cap(n)  # before comb, which rejects a negative n
    k = min(n // 2, comb(n, 3))  # truncation depth cannot exceed the top rank
    report = poset.check_young_limit(n, k)
    ok = report.pop("pass")
    return ok, report if not ok else {"k": k, "rank_sizes": report["rank_sizes"]}


def _sample_vectors(n: int, count: int, rng: random.Random) -> list[AdmittedVector]:
    out = []
    for _ in range(count):
        rest = list(range(2, n + 1))
        rng.shuffle(rest)
        out.append(vectors.cycle_to_vector(CircularPermutation((1, *rest))))
    return out


def _check_triangulation(n: int) -> tuple[bool, dict | None]:
    poset.refuse_over_cap(n)
    if n < 3:
        return True, {"triangulations": 0, "vectors": 0}
    rng = random.Random(_SEED)
    if factorial(n - 1) <= 24:
        vecs = [AdmittedVector(n, flat) for flat in oracle.enumerate_admitted(n)]
    else:
        vecs = _sample_vectors(n, 500, rng)
    tris = vectors.all_triangulations(n)
    for v in vecs:
        target = v[1, n]
        for t in tris:
            if vectors.triangulation_sum(v, t) != target:
                return False, {"vector": v.rows(), "triangles": sorted(t.triangles)}
    # flips preserve the sum
    quads = list(combinations(range(1, n + 1), 4))
    for t in tris:
        for q in quads:
            try:
                flipped = vectors.mutate(t, q)
            except QuadNotFlippableError:
                continue
            for v in vecs[:20]:
                if vectors.triangulation_sum(v, flipped) != v[1, n]:
                    return False, {"flip": list(q)}
    return True, {"triangulations": len(tris), "vectors": len(vecs)}


def _check_interval(n: int) -> tuple[bool, dict | None]:
    """Each cycle's vector and window round-trip, project back to the
    cycle and agree on rank; so the window map is an order embedding.

    An increasing window f = [a_1, ..., a_n] with distinct residues has
    the position inversions
        {(j, i + kn) : 1 <= i < j <= n, 1 <= k <= floor((a_j - a_i)/n)},
    one initial run of k per pair i < j.  So Inv(f) is contained in Inv(g)
    iff every count floor((a_j - a_i)/n) of f is at most the same count of
    g, and the length of f is the sum of the counts (Bjorner and Brenti,
    *Combinatorics of Coxeter Groups*, section 8.3).  Those counts are
    `vector_of_window(f)`, which refuses any window outside the interval.
    Once the window stage passes, `vector_of_window(window_of_vector(v))
    == v` for every v, so v <= u iff the window of v lies below the
    window of u in the left weak order, and the grading stage's
    `length(w) == v.rank` is the same sum.  No pair of elements is
    compared: one pass, each element converted, checked and dropped.
    """
    poset.refuse_over_cap(n)
    for s in all_cycles(n):
        v = vectors.cycle_to_vector(s)
        w = affine.window_of_vector(v)
        if affine.vector_of_window(w) != v:
            return False, {"stage": "window roundtrip", "cycle": s.as_text()}
        if vectors.vector_to_cycle(v) != s:
            return False, {"stage": "vector roundtrip", "cycle": s.as_text()}
        if affine.project(w) != s:
            return False, {"stage": "projection", "cycle": s.as_text()}
        if not (s.rank == v.rank == affine.length(w)):
            return False, {"stage": "grading", "cycle": s.as_text()}
    return True, None


def _check_alpha(n: int) -> tuple[bool, dict | None]:
    """The conjugator of an upward chain depends only on its endpoints.

    A chain whose covers are labelled (r1 s1), ..., (rm sm) has the
    conjugator (rm sm) o ... o (r1 s1).  If a map A from nodes to
    permutations has A(hi) = (r s) o A(lo) on every edge, the product
    telescopes: every chain from x to y has the conjugator
    A(y) o A(x)^-1.  Conversely, if conjugators depend only on
    endpoints, the conjugator from the bottom to each node is such a
    map, since `grading` proves every node lies above the one bottom.
    So A(bottom) = identity, and walking the nodes in rank order, the
    first edge into each node fixes A there and every other edge tests
    it: exact at every n, in O(edges).  Once every edge agrees, A(top) is
    the conjugator of every maximal chain.
    """
    diagram = build(n)
    bottom = diagram.bottom
    potential = {bottom: tuple(range(1, n + 1))}
    for x in sorted(range(len(diagram.words)), key=diagram.ranks.__getitem__):
        for k in diagram.edges_above(x):
            y = diagram.hi[k]
            alpha = poset.compose_transposition(potential[x], diagram.r[k],
                                                diagram.s[k])
            if potential.setdefault(y, alpha) != alpha:
                return False, {"stage": "chain independence",
                               "pair": [word_text(diagram.words[bottom]),
                                        word_text(diagram.words[y])]}
    alpha = potential[diagram.top]
    if alpha != poset.conjugator_formula(n):
        return False, {"stage": "maximal chain",
                       "alpha": list(alpha),
                       "expected": list(poset.conjugator_formula(n))}
    return True, None


CHECKS: dict[str, Callable[[int], tuple[bool, dict | None]]] = {
    "grading": _check_grading,
    "eulerian": _check_eulerian,
    "lattice": _check_lattice,
    "mobius": _check_mobius,
    "semidistributive": _check_semidistributive,
    "modularity": _check_modularity,
    "young": _check_young,
    "triangulation": _check_triangulation,
    "interval": _check_interval,
    "alpha": _check_alpha,
}


def run_check(name: str, n: int) -> CheckReport:
    if name not in CHECKS:
        raise UnknownCheckError(
            f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}")
    start = time.perf_counter()
    passed, witness = CHECKS[name](n)
    return CheckReport(name, n, passed, witness, time.perf_counter() - start)


def run_all(n: int) -> list[CheckReport]:
    return [run_check(name, n) for name in CHECKS]
