"""Named structural verifications, runnable from the CLI or tests.

Each check reproduces one finite claim about the order at a given n and
returns a CheckReport.  Every claim is checked exhaustively at every n
but one: from n = 7 on, `lattice` tests the joins and meets against the
bounds on 10,000 seeded pairs instead of on every ordered pair.

The checks prove their claims by certificates on the vector columns,
one byte a lane (node), and `lattice` and `mobius` also by theorems
whose hypotheses the certificates prove: an interval of the affine
weak order is a lattice, and in a meet-semidistributive lattice every
node's upper covers are independent.  The arguments are in
`cyclat.certificates` and in each check's docstring, `_check_lattice`'s
for the lane recursion that gives the joins and meets of `lattice`,
`modularity` and the `mobius` walk.
A walk on threshold masks runs only where a certificate declines, to
decide and name the witness: no passing check computes a mask, and
`modularity` and `young` read their few up-sets off the lanes
(`lanes._lane_up_sets`).

Every check but `lattice` builds no diagram where it passes: each
reads the vector columns, their inversion bits and the ranks alone,
every node at once (`eulerian` counts by transfer matrix and reads
none of them).  `mobius` reads the kappa matching of
`semidistributive`, `modularity` joins and meets its pairs on lanes
cut from the columns, `young` decodes only the words of its
truncation, `alpha` only two nodes' words and `modularity` only its
witness's.

`run_all` computes the order-n inversion bits (`CheckRun.inversions`),
the vector columns joined from them (`CheckRun.columns`), the ranks
(`CheckRun.ranks`) and the kappa matching on those columns
(`CheckRun.matching`) once, for every check that reads them, and
builds the diagram once, on first use, in `lattice`, with those
columns; a later check reads it only in a walk where its certificate
declines.  `run_check` computes its own.  Each check still proves its
claim from the columns, so no check relies on another's verdict.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, factorial
from operator import or_
from typing import Callable, Sequence

from cyclat import lanes, poset, vectors
from cyclat.certificates import (Inversions, covers_certified, cyclic_steps, kappa_matching,
                                 nodes_are_words, step_ends)
from cyclat.errors import QuadNotFlippableError, UnknownCheckError
from cyclat.perm import CircularPermutation
from cyclat.poset import build
from cyclat.vectors import AdmittedVector

_SEED = 283465
_PHASES = ("build", "masks", "scan")


@dataclass
class CheckReport:
    """What a check verified and what that took.

    `witness` is set only on a failure, or where the check pins one (the
    modularity quadruple from n = 5 on).  `stats` counts what was
    checked, and `phases` splits `elapsed` into the seconds spent
    building the diagram, computing its threshold masks (only a walk
    where a certificate declines reads them) and scanning, the vector
    columns and ranks included; a check that read what an earlier check
    of the same `run_all` built spends no time building it.
    """

    check: str
    n: int
    passed: bool
    witness: dict | None
    stats: dict
    phases: dict[str, float]
    elapsed: float

    def to_payload(self) -> dict:
        payload = {"check": self.check, "n": self.n, "pass": self.passed}
        if self.witness is not None:
            payload["witness"] = self.witness
        payload["stats"] = self.stats
        payload["phases"] = {name: round(seconds, 3)
                             for name, seconds in self.phases.items()}
        payload["elapsed"] = round(self.elapsed, 3)
        return payload

    def human(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  witness: {self.witness}" if self.witness else ""
        stats = f"  stats: {self.stats}" if self.stats else ""
        return f"[{status}] {self.check} n={self.n} ({self.elapsed:.2f}s){extra}{stats}"


@dataclass
class CheckRun:
    """What one check reads, and the counts and times it reports.

    `shared` holds what the checks of one `run_all` read, each part
    computed once, on first use: the inversion bits, the vector columns
    joined from them, the ranks, the kappa matching and the diagram of
    `build`, which takes the run's columns for its own.  On a pass, only
    `lattice` builds and reads the diagram; a walk where a certificate
    declines reads it too.  The run that builds the diagram, or first
    computes its threshold masks, has those seconds in its `phases`.
    """

    n: int
    shared: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=lambda: dict.fromkeys(_PHASES, 0.0))

    def diagram(self, masks: bool = False) -> poset.HasseDiagram:
        """The order-n diagram, its columns the run's unless it holds its
        own; with `masks`, its `at_least` threshold masks computed as
        well."""
        if "diagram" not in self.shared:
            start = time.perf_counter()
            self.shared["diagram"] = build(self.n)
            self.phases["build"] += time.perf_counter() - start
        diagram = self.shared["diagram"]
        if "columns" not in vars(diagram):  # a view of n alone: no second copy
            diagram.columns = self.columns()
        if masks and "masks" not in self.shared:
            start = time.perf_counter()
            # cached on the diagram, read off its columns
            self.shared["masks"] = diagram.at_least
            self.phases["masks"] += time.perf_counter() - start
        return diagram

    def inversions(self) -> Inversions:
        """`poset._inversion_columns(n)`, the inversion bits the columns
        are joined from and the certificates compare the lanes with."""
        if "inversions" not in self.shared:
            self.shared["inversions"] = poset._inversion_columns(self.n)
        return self.shared["inversions"]

    def columns(self) -> tuple[bytes, ...]:
        """`poset._vector_columns(n)`, joined from the run's
        `inversions`, building nothing."""
        if "columns" not in self.shared:
            self.shared["columns"] = poset._vector_columns(self.n, self.inversions())
        return self.shared["columns"]

    def ranks(self) -> Sequence[int]:
        """`poset._prefix_ranks(n)`, the ranks in id order."""
        if "ranks" not in self.shared:
            self.shared["ranks"] = poset._prefix_ranks(self.n)
        return self.shared["ranks"]

    def matching(self) -> tuple[int, int] | None:
        """`certificates.kappa_matching` on the run's columns."""
        if "matching" not in self.shared:
            self.shared["matching"] = kappa_matching(self.n, self.columns(), self.inversions())
        return self.shared["matching"]


def _check_grading(run: CheckRun) -> tuple[bool, dict | None]:
    """The order is graded by the word rank, 0..C(n, 3), with one bottom
    and one top, proved on the vector columns and the ranks of
    `poset._prefix_ranks` (`grading_report`), with no diagram:
    - lane t is the t-th word's vector, so the lanes are distinct and
      admitted, and, every admitted vector being a word's
      (`lanes._word_bits`), all of them; and one lane has no admitted
      step down, and one none up (`certificates.step_ends`, which proves
      each block before it reads a step off it);
    - each lane's coordinate sum is its rank (`_rank_off`): an admitted
      v[i,j] is at most j - i - 1, so no lane exceeds C(n, 3), and none
      carries up to n = 12 (beyond, `bytes` refuses the ranks).
    By the exchange lemma (`cyclat.certificates`) every z > x lies above
    an admitted x + e_k, a node, so every cover is a unit step and
    raises the rank by exactly 1; on the dual lanes M - v, every z < x
    below an admitted x - e_k, so the lanes with no step down are the
    minimal nodes, and those with none up the maximal ones.
    """
    poset.refuse_over_cap(run.n)
    report = grading_report(run.n, run.ranks(), run.columns(), run.inversions())
    ok = report.pop("pass")
    return ok, None if ok else report


def grading_report(n: int, ranks: Sequence[int], columns: Sequence[bytes],
                   inversions: Inversions) -> dict:
    """What `_check_grading` proves, in the keys of the per-edge scan
    the tests keep as a reference.  Where the lanes are not the words'
    vectors (`step_ends`, against `inversions`), `bottoms` and `tops`
    are None."""
    ends = step_ends(n, columns, inversions)
    unit = ends is not None and not _rank_off(ranks, columns)
    bottoms, tops = ends or (None, None)
    image = sorted(set(ranks))
    complete = image == list(range(comb(n, 3) + 1))
    ok = len(ranks) == factorial(n - 1) and complete and unit and bottoms == tops == 1
    return {"n": n, "pass": ok, "nodes": len(ranks), "expected_nodes": factorial(n - 1),
            "max_rank": image[-1], "expected_max_rank": comb(n, 3),
            "rank_image_complete": complete, "unit_increments": unit,
            "bottoms": bottoms, "tops": tops}


def _rank_off(ranks: Sequence[int], columns: Sequence[bytes]) -> int:
    """Nonzero in the byte of each lane whose coordinate sum is not its
    rank, zero elsewhere: the sum of the columns and the ranks, read as
    ints, a byte a lane, XORed; no lane carries (`_check_grading`)."""
    return sum(int.from_bytes(column, "little") for column in columns) ^ \
        int.from_bytes(bytes(ranks), "little")


def _check_eulerian(run: CheckRun) -> tuple[bool, dict | None]:
    n = run.n
    report = poset.verify_descent_distribution(n)
    ok = report.pop("pass") and (n < 1 or poset.eulerian(n, 1) == 2 ** n - n - 1)
    return ok, None if ok else report


def _check_mobius(run: CheckRun) -> tuple[bool, dict | None]:
    """mu(x, y) is 0, 1 or -1 for every two nodes x <= y.

    By Rota's crosscut theorem it is in range at every node whose upper
    covers are independent, as in a meet-semidistributive lattice
    (argued in `cyclat.certificates`, cover independence), and
    `certificates.kappa_matching` proves the law on the vector columns,
    with no diagram, where it declines no node.  Otherwise the crosscut
    itself decides on the diagram (`poset.mobius_from`), at every node
    in id order: x's table of joins, one per set of covers.  The first
    x whose table holds a join that is no node fails with y None; the
    first with a value out of range, with the lowest such y by rank,
    then id, and its mu.  `stats` counts the certificate's
    `irreducibles` and `declined`, as `semidistributive`'s, where the
    lanes are the words' vectors, and the nodes walked (`crosscut`)."""
    poset.refuse_over_cap(run.n)
    matched = run.matching()
    if matched is not None:
        run.stats.update(irreducibles=matched[0], declined=matched[1])
        if not matched[1]:
            run.stats["crosscut"] = 0
            return True, None
    diagram = run.diagram()
    ids = range(len(diagram.ranks))
    run.stats["crosscut"] = len(ids)
    for x, mu in zip(ids, poset.mobius_from(diagram, ids)):
        if None in mu:
            return False, {"x": diagram.name(x), "y": None}
        bad = [y for y, value in mu.items() if value not in (-1, 0, 1)]
        if bad:
            y = min(bad, key=lambda t: (diagram.ranks[t], t))
            return False, {"x": diagram.name(x), "y": diagram.name(y), "mu": mu[y]}
    return True, None


_SAMPLE_PAIRS = 10_000  # pairs tested above 120 nodes


def _check_lattice(run: CheckRun) -> tuple[bool, dict | None]:
    """The order is a lattice, and the lane recursion computes its bounds.

    Three claims, on the up-sets Up(x), the nodes z >= x (which the
    walks compute as above_mask(x), the AND over the coordinates k of
    the threshold masks at_least[k][x_k]):

    - The order is the closure of the covers: for every node x, Up(x)
      is bit x OR the up-sets of its upper covers.
    - The order is a lattice, exhaustively at every n.
    - The joins and meets are the least and greatest bounds on every
      ordered pair up to 120 nodes, x-major, and on 10,000 seeded pairs
      above.

    All three are proved from certificates, holding no up-set and no
    threshold mask (`certificates.covers_certified` for the first two,
    argued in `cyclat.certificates`):
    - Node t's row is the vector of the t-th canonical word, so the
      nodes are admitted and "is a node" below is a lane test, with no
      lookup (`lanes._word_bits`).
    - Every edge is a unit step on its two rows, not its labels, and the
      edges are exactly the admitted unit steps x + e_k.  The exchange
      lemma gives every two nodes x < z an admitted x + e_k <= z, a
      cover of x: the order is the closure of the covers.
    - One node has no admitted step up (the counts of
      `certificates.step_ends`, which `grading` reads too).  With the
      exchange lemma that makes the nodes an interval [e, w] of the left
      weak order of the affine symmetric group, and the weak order is a
      meet-semilattice (A. Bjorner, *Orderings of Coxeter groups*,
      1984), so the interval is a lattice.
    - The `lanes._column_joins` result X of every pair of the third
      claim, y, z, is a node and is tight:
      X[i,j] == max(y[i,j], z[i,j], X[i,p] + X[p,j], i < p < j) on every
      lane (`HasseDiagram.tight_bounds`).  By induction on j - i, a
      tight X lies below every admitted w >= y, z, since
      w[i,j] >= w[i,p] + w[p,j], and X[i,i+1] = 0; it lies above y and
      z, so it is their least upper bound among the nodes.  Tightness
      reads X's own entries, not the recursion that produced X, so a
      wrong X that is a node above y and z still fails it.
    - Dually, the `lanes._column_meets` result m of every pair of the
      third claim is a node, and M - m is tight for M - y and M - z,
      M[i,j] = j - i - 1: v -> M - v maps admitted vectors to admitted
      vectors and reverses the order, so m is the greatest lower bound
      among the nodes.  The sample's lanes are gathered from the node
      rows.  The square's are cut from the columns, one lane for each
      unordered pair, which proves both of its ordered pairs
      (`HasseDiagram.square_tight_bounds`), and `stats.pairs` counts
      the N * N ordered pairs.
    The bound certificate rests on the first of these, that the rows
    are the words' vectors, so it is read only where the cover
    certificates hold.  If any certificate declines, the walks decide
    and name the witness: `_cover_failure` node by node from the top
    rank, closure and cover-pair joins, then `_pair_failure` pair by
    pair on the up-sets and down-sets of the tested pairs, x-major, so
    the verdict and the witness are those of the walks alone.

    So the check proves that the lane recursion of `join_flat`, and of
    the meets on the dual lanes, gives the bounds; no per-pair kernel
    runs.  The tests tie `join_flat` and `meet_flat`, which
    `vectors.join`/`meet` call, to the lane recursion on every pair the
    check reads up to n = 8.
    """
    diagram = run.diagram()
    size = len(diagram.ranks)
    square = size <= 120
    if not (covers_certified(diagram, run.inversions())
            and (diagram.square_tight_bounds() if square
                 else diagram.tight_bounds(*_tested_pairs(size)))):
        failure = _cover_failure(diagram) or _pair_failure(diagram, *_tested_pairs(size))
        if failure:
            return False, failure
    run.stats["pairs"] = size * size if square else _SAMPLE_PAIRS
    return True, None


def _tested_pairs(size: int) -> tuple[list[int], list[int]]:
    """The pairs of the bound claim, as their xs and their ys: every
    ordered pair, x-major, up to 120 nodes; above, `_SAMPLE_PAIRS`
    seeded pairs, pair k the draws 2k and 2k + 1."""
    if size <= 120:
        return [x for x in range(size) for _ in range(size)], list(range(size)) * size
    rng = random.Random(_SEED)
    draws = [rng.randrange(size) for _ in range(2 * _SAMPLE_PAIRS)]
    return draws[::2], draws[1::2]


def _pair_failure(diagram: poset.HasseDiagram, xs: Sequence[int],
                  ys: Sequence[int]) -> dict | None:
    """The witness of the first pair x, y of xs, ys whose join, or else
    its meet, is no node or not the bound; None if every pair holds.
    j is the least upper bound of x and y iff Up(x) & Up(y) == Up(j): j
    lies in its own up-set, so it is then a common upper bound, and
    every common upper bound lies in the up-set of j, above it; meets
    are the dual, with the down-sets."""
    up, down = (lru_cache(maxsize=1024)(mask) for mask in (diagram.above_mask, diagram.below_mask))
    for x, y, j, m in zip(xs, ys, *diagram.bounds(xs, ys)):
        if j is None or up(j) != up(x) & up(y):
            return _pair_witness(diagram, "join", x, y)
        if m is None or down(m) != down(x) & down(y):
            return _pair_witness(diagram, "meet", x, y)
    return None


def _pair_witness(diagram: poset.HasseDiagram, op: str, x: int, y: int) -> dict:
    return {"op": op, "pair": [diagram.name(x), diagram.name(y)]}


def _cover_failure(diagram: poset.HasseDiagram) -> dict | None:
    """The witness of the first cover claim of `_check_lattice` to fail,
    by the walk that names it when a certificate declines.

    A node x whose up-set is not the closure of its covers' fails as
    {"op": "order", "pair": [x, z]}, z the lowest node on which the two
    differ; two upper covers whose join is not their least upper bound
    fail as that pair's join.  The walk goes down from the top rank, the
    nodes of a rank in id order, and tests each node's closure, then
    the joins of its cover pairs; every up-set is computed where it is
    read.  The joins of the cover pairs of one rank are one
    `HasseDiagram.joins` batch, taken before the rank's nodes are walked
    in turn, so the first failure is the one a pair-by-pair walk meets.
    """
    by_rank: dict[int, list[int]] = {}
    for t, rank in enumerate(diagram.ranks):
        by_rank.setdefault(rank, []).append(t)
    up_set = diagram.above_mask
    for rank in sorted(by_rank, reverse=True):
        nodes = by_rank[rank]
        ys = [y for x in nodes for y, _ in combinations(diagram.up[x], 2)]
        zs = [z for x in nodes for _, z in combinations(diagram.up[x], 2)]
        joins = iter(diagram.joins(ys, zs))
        for x in nodes:
            mask = up_set(x)
            closure = reduce(or_, map(up_set, diagram.up[x]), 1 << x)
            if mask != closure:
                return _pair_witness(diagram, "order", x,
                                     poset.bits(mask ^ closure)[0])
            # zip takes one join per pair of x's covers, and no more
            for (y, z), j in zip(combinations(diagram.up[x], 2), joins):
                if j is None or up_set(j) != up_set(y) & up_set(z):
                    return _pair_witness(diagram, "join", y, z)
    return None


def _check_semidistributive(run: CheckRun) -> tuple[bool, dict | None]:
    """The order is semidistributive: both laws, by the kappa test.

    `certificates.kappa_matching` proves it on the vector columns, with
    no diagram and no threshold mask: R, the relation of each j of the
    join-irreducibles J to the maximal elements of its kappa set, is a
    perfect matching of J and the meet-irreducibles M (argued in
    `cyclat.certificates`).  `stats` counts J (`irreducibles`, |J| = |M| on a pass) and the nodes of J
    and M with other than one R-partner (`declined`).  Where the
    certificate declines, `poset.check_semidistributive` walks the
    irreducibles on the threshold masks, which decides and names the
    witness."""
    poset.refuse_over_cap(run.n)
    matched = run.matching()
    if matched is not None:
        run.stats.update(irreducibles=matched[0], declined=matched[1])
        if not matched[1]:
            return True, None
    report = poset.check_semidistributive(run.diagram(masks=True))
    return report["pass"], report["witness"]


def _check_modularity(run: CheckRun) -> tuple[bool, dict | None]:
    """The order is modular up to n = 4 and not from n = 5 on, by the
    rank-additivity scan on the ranks and the vector columns, with no
    diagram (`poset.check_modular`): a scan that cannot decide fails.
    The scan reads a join or meet lane that passes `lanes._word_bits`
    as a node, and its coordinate sum as that node's rank, so the lanes
    are first proved the words' vectors (`certificates.nodes_are_words`,
    which reads no step) and each lane's sum its rank (`_rank_off`, as
    `grading_report`); the lowest node whose sum is not its rank
    fails.  At n = 5 the canonical witness quadruple is pinned instead
    of the scan's."""
    n = run.n
    poset.refuse_over_cap(n)
    columns, ranks = run.columns(), run.ranks()
    if not nodes_are_words(n, columns, run.inversions()):
        return False, {"n": n, "nodes_are_words": False}
    if (t := _lowest_lane(_rank_off(ranks, columns))) is not None:
        return False, {"node": poset.node_name(n, t), "rank": ranks[t]}
    report = poset.check_modular(n, ranks, columns)
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


def _check_young(run: CheckRun) -> tuple[bool, dict | None]:
    n = run.n
    poset.refuse_over_cap(n)  # the cap first: comb rejects a negative n
    k = min(n // 2, comb(n, 3))  # truncation depth cannot exceed the top rank
    report = poset.check_young_limit(n, k, run.ranks(), run.columns())
    if not report.pop("pass"):
        return False, report
    run.stats.update(k=k, rank_sizes=report["rank_sizes"])
    return True, None


def _signed_edge_counts(t: vectors.Triangulation) -> dict[tuple[int, int], int]:
    """The nonzero counts over the triangles (i, j, k), i < j < k, of t
    of +1 on the edge (i, k) and -1 on each of (i, j) and (j, k)."""
    counts: dict[tuple[int, int], int] = {}
    for i, j, k in t.triangles:
        for edge, sign in (((i, k), 1), ((i, j), -1), ((j, k), -1)):
            counts[edge] = counts.get(edge, 0) + sign
    return {edge: c for edge, c in counts.items() if c}


def _flip_quads(t: vectors.Triangulation) -> list[list[int]]:
    """The quadrilaterals of t's flips, sorted: for each interior
    diagonal, the four vertices of the two triangles that share it."""
    sides: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for tri in t.triangles:
        for edge in combinations(tri, 2):
            sides.setdefault(edge, []).append(tri)
    return sorted(sorted(set(a + b)) for a, b in
                  (pair for pair in sides.values() if len(pair) == 2))


def _lowest_lane(flags: int, width: int = 1) -> int | None:
    """The lowest lane, of `width` bytes, with a set bit in flags; None
    if none is set.  A negative int reads as its two's complement."""
    return ((flags & -flags).bit_length() - 1) // (8 * width) if flags else None


def _first(*lanes: int | None) -> int | None:
    """The lowest of the lanes that are set; None if none is."""
    return min((k for k in lanes if k is not None), default=None)


def _check_triangulation(run: CheckRun) -> tuple[bool, dict | None]:
    """`triangulation_sum(v, t) == v[1, n]` for every vector v and every
    triangulation t of the n-gon, so every flip keeps the sum.

    The sum telescopes.  `delta(v, i, j, k)` is v[i,k] - v[i,j] - v[j,k],
    so the sum over the triangles of t is the sum over the edges e of
    c(e) v[e], c the signed edge counts of t (`_signed_edge_counts`).
    An interior diagonal (a, b) borders two triangles: the one whose
    third vertex lies between a and b has it as its long edge, +1, and
    the other as a short edge, -1, so it cancels.  The side (1, n) is
    the long edge of its one triangle and every other side (i, i+1) a
    short edge.  So c is +1 on (1, n), -1 on each (i, i+1) and 0
    elsewhere, and the sum is v[1, n] minus the adjacent entries, which
    are 0 in an admitted vector.

    The check tests each step instead of trusting the argument:
    - the counts of each of the Catalan(n-2) triangulations;
    - each flip of each, one per interior diagonal, which `mutate` must
      perform, is one of them, so its counts are tested too and a flip
      keeps the sum of every vector;
    - each of the (n-1)! vectors of order n, admitted and summed over
      one triangulation, node t over triangulation t mod Catalan(n-2),
      so every triangle of every triangulation is summed.

    The vectors are the columns of `poset._vector_columns(n)`
    (`CheckRun.columns`) read as ints, one byte a lane (node).  A node
    is admitted iff its adjacent entries are 0 and D & 0xfe is 0 in its
    lane of every triple defect D (`lanes._triple_defects`); its sum
    adds the D of the triples its triangulation holds.  The lowest
    failing node is reported as a loop over the nodes meets it:
    `AdmittedVector`'s NotAdmittedError if it is not admitted, else the
    vector and the triangles.
    """
    n = run.n
    poset.refuse_over_cap(n)
    if n < 3:
        run.stats.update(triangulations=0, vectors=0)
        return True, None
    expected = {(1, n): 1} | {(i, i + 1): -1 for i in range(1, n)}
    tris = vectors.all_triangulations(n)
    valid = {t.triangles for t in tris}
    for t in tris:
        if _signed_edge_counts(t) != expected:
            return False, {"triangles": sorted(t.triangles)}
        for q in _flip_quads(t):
            try:
                flipped = vectors.mutate(t, q)
            except QuadNotFlippableError:
                return False, {"flip": q}
            if flipped.triangles not in valid:
                return False, {"flip": q}
    columns = run.columns()
    size = len(columns[0])
    v = lanes._lane_ints(n, columns)
    not_bits = int.from_bytes(b"\xfe" * size, "little")
    rejected = reduce(or_, (v[i, i + 1] for i in range(1, n)))
    repeats = -(-size // len(tris))
    sums = 0
    for triple, d in lanes._triple_defects(n, v):
        rejected |= d & not_bits
        held = bytes(0xff * (triple in t.triangles) for t in tris)
        sums += d & int.from_bytes((held * repeats)[:size], "little")
    k = _first(_lowest_lane(rejected), _lowest_lane(sums ^ v[1, n]))
    if k is not None:  # AdmittedVector raises if node k is not admitted
        vector = AdmittedVector(n, tuple(column[k] for column in columns))
        return False, {"vector": vector.rows(),
                       "triangles": sorted(tris[k % len(tris)].triangles)}
    run.stats.update(triangulations=len(tris), vectors=size)
    return True, None


_STAGES = ("window roundtrip", "vector roundtrip", "projection", "grading")


def _wide(column: bytes) -> int:
    """A byte column read as one int, two bytes a lane, lane t byte t."""
    lanes = bytearray(2 * len(column))
    lanes[::2] = column
    return int.from_bytes(lanes, "little")


def _window_columns(n: int, v: dict[tuple[int, int], int], ones: int) -> list[int]:
    """a_i = i + sum over p < i of v[p,i] - sum over p > i of v[i,p], for
    i = 1..n at [i - 1], on the columns v held two bytes a lane; the
    lanes are signed, each int the sum of lane t's value times 2^(16t)."""
    window = [i * ones for i in range(1, n + 1)]
    for (i, j), column in v.items():
        window[i - 1] -= column
        window[j - 1] += column
    return window


def _letter_positions(n: int, inversions: dict[tuple[int, int], bytes],
                      ones: int) -> list[int]:
    """The position of letter i in each node's canonical word, for
    i = 1..n at [i - 1], two bytes a lane, from the inversion bits of
    `poset._inversion_columns(n)`.  Before letter i stand 1, the letters
    2 <= b < i that i does not precede and the letters b > i that
    precede it:
    (i - 1) - sum over 2 <= b < i of B(b, i) + sum over b > i of B(i, b)."""
    positions = [i * ones for i in range(n)]
    for (b, i), column in inversions.items():
        bit = _wide(column)
        positions[b - 1] += bit
        positions[i - 1] -= bit
    return positions


def _check_interval(run: CheckRun) -> tuple[bool, dict | None]:
    """Each cycle's vector and window round-trip, project back to the
    cycle and agree on rank; so the window map is an order embedding.

    An increasing window f = [a_1, ..., a_n] with distinct residues has
    the position inversions
        {(j, i + kn) : 1 <= i < j <= n, 1 <= k <= floor((a_j - a_i)/n)},
    one initial run of k per pair i < j.  So Inv(f) is contained in Inv(g)
    iff every count floor((a_j - a_i)/n) of f is at most the same count of
    g, and the length of f is the sum of the counts (Bjorner and Brenti,
    *Combinatorics of Coxeter Groups*, section 8.3).  Those counts are
    `window_counts(f)`; equal to an admitted v, they put f in the
    interval (v[i,i+1] = 0).  Once the window stage passes,
    `vector_of_window(window_of_vector(v)) == v` for every v, so v <= u
    iff the window of v lies below the window of u in the left weak
    order, and `length(w)`, the sum of the counts, is the rank of v.  No
    pair of elements is compared.

    The window is linear in v, so each stage runs on whole columns read
    as ints, two bytes a lane (node): the vectors of
    `poset._vector_columns(n)` (`CheckRun.columns`) and the inversion
    bits B of `poset._inversion_columns(n)`.  Node t passes
    - the window stage iff 0 <= a_j - a_i - n v[i,j] <= n - 1, i < j;
    - the vector round trip iff v[1,j] - v[1,i] - v[i,j], the defect
      `vector_to_cycle` reads, is B(i, j), 2 <= i < j;
    - the projection iff a_i - a_1 - n v[1,i], the residue `project`
      reads, is the position of letter i in its word;
    - the grading iff its entries sum to `_prefix_ranks(n)[t]`.
    Below the lowest failing lane no lane borrows or carries, so that
    lane shows its own failure; it is reported with the first stage it
    fails.  `triangulation` admits the same vectors.
    """
    n = run.n
    poset.refuse_over_cap(n)
    size = factorial(n - 1)
    ones = int.from_bytes(b"\1\0" * size, "little")
    v = {pair: _wide(column) for pair, column in
         zip(combinations(range(1, n + 1), 2), run.columns())}
    a = _window_columns(n, v, ones)
    inversions = run.inversions()
    positions = _letter_positions(n, inversions, ones)
    sign = int.from_bytes(b"\0\x80" * size, "little")
    shift = (0x8000 - n) * ones  # (e | e + shift) & sign flags e < 0 or e >= n
    window = vertex = projection = 0
    for (i, j), column in v.items():
        e = a[j - 1] - a[i - 1] - n * column
        window |= (e | e + shift) & sign
        if i > 1:
            vertex |= v[1, j] - v[1, i] - column - _wide(inversions[i, j])
    for i in range(2, n + 1):
        projection |= a[i - 1] - a[0] - n * v[1, i] - positions[i - 1]
    grading = sum(v.values()) - _wide(bytes(run.ranks()))
    lanes = [_lowest_lane(flags, 2) for flags in (window, vertex, projection, grading)]
    k = _first(*lanes)
    if k is not None:
        return False, {"stage": _STAGES[lanes.index(k)], "cycle": poset.node_name(n, k)}
    return True, None


def _check_alpha(run: CheckRun) -> tuple[bool, dict | None]:
    """The conjugator of an upward chain depends only on its endpoints.

    A chain whose covers are labelled (r1 s1), ..., (rm sm) has the
    conjugator (rm sm) o ... o (r1 s1).  If a map A from nodes to
    permutations has A(hi) = (r s) o A(lo) on every edge, the product
    telescopes: every chain from x to y has the conjugator
    A(y) o A(x)^-1.  Conversely, if conjugators depend only on
    endpoints, the conjugator from the bottom to each node is such a
    map, since `grading` proves every node lies above the one bottom.
    Once A(bottom) is the identity, A(top) is the conjugator of every
    maximal chain, and it must equal `poset.conjugator_formula(n)`.

    A is x's word rotated by m(x) = (sum_j x[1, j]) mod n
    (`poset.conjugator_potential`): `certificates.cyclic_steps` proves
    A(hi) = (i j) o A(lo) on every cover on the vector columns, with no
    diagram (argued in `cyclat.certificates`).  A is read at two nodes
    only: it must be the identity at the bottom, node 0, and A(top) the
    formula at the last node.  `stats` counts the admitted steps read
    (`steps`), the edges of the order.  Where the certificate declines,
    `_alpha_walk` decides on the diagram and names the witness.
    """
    n = run.n
    poset.refuse_over_cap(n)
    columns = run.columns()
    steps = cyclic_steps(n, columns, run.inversions())
    if steps is None or _potential(n, columns, 0) != tuple(range(1, n + 1)):
        return _alpha_walk(run.diagram())
    run.stats["steps"] = steps
    return _maximal_chain(n, _potential(n, columns, factorial(n - 1) - 1))


def _potential(n: int, columns: Sequence[bytes], t: int) -> tuple[int, ...]:
    """`poset.conjugator_potential` of node t, read off the columns."""
    return poset.conjugator_potential(poset.node_word(n, t),
                                      (column[t] for column in columns[:n - 1]))


def _maximal_chain(n: int, alpha: tuple[int, ...]) -> tuple[bool, dict | None]:
    """The verdict on the conjugator alpha of every maximal chain."""
    expected = poset.conjugator_formula(n)
    if alpha != expected:
        return False, {"stage": "maximal chain", "alpha": list(alpha), "expected": list(expected)}
    return True, None


def _alpha_walk(diagram: poset.HasseDiagram) -> tuple[bool, dict | None]:
    """`_check_alpha` on the diagram's edges and labels, in O(edges): a
    failure names the bottom and the first node whose edges disagree
    (`_walk_potential`), or else A(top)."""
    potential, y = _walk_potential(diagram)
    if y is not None:
        return False, {"stage": "chain independence",
                       "pair": [diagram.name(diagram.bottom), diagram.name(y)]}
    return _maximal_chain(diagram.n, potential[diagram.top])


def _walk_potential(diagram: poset.HasseDiagram) -> tuple[dict[int, tuple[int, ...]], int | None]:
    """A with A(bottom) the identity, walking the nodes in rank order:
    the first edge into each node fixes A there, and every other edge
    tests it.  Returns A and the first node y at which an edge into y
    disagrees, or None."""
    potential = {diagram.bottom: tuple(range(1, diagram.n + 1))}
    for x in sorted(range(len(diagram.ranks)), key=diagram.ranks.__getitem__):
        for k in diagram.edges_above(x):
            y = diagram.hi[k]
            alpha = poset.compose_transposition(potential[x], diagram.r[k], diagram.s[k])
            if potential.setdefault(y, alpha) != alpha:
                return potential, y
    return potential, None


CHECKS: dict[str, Callable[[CheckRun], tuple[bool, dict | None]]] = {
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


def _run(name: str, run: CheckRun) -> CheckReport:
    start = time.perf_counter()
    passed, witness = CHECKS[name](run)
    elapsed = time.perf_counter() - start
    run.phases["scan"] = elapsed - run.phases["build"] - run.phases["masks"]
    return CheckReport(name, run.n, passed, witness, run.stats, run.phases, elapsed)


def run_check(name: str, n: int) -> CheckReport:
    """Run one check on its own diagram."""
    if name not in CHECKS:
        raise UnknownCheckError(
            f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}")
    return _run(name, CheckRun(n))


def run_all(n: int) -> list[CheckReport]:
    """Every check in `CHECKS` order, on one order-n diagram."""
    shared: dict = {}
    return [_run(name, CheckRun(n, shared)) for name in CHECKS]
