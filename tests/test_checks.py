"""The `alpha` check's edge potential against chain enumeration, the
`interval` check's single pass, the `lattice` check's claims against
the bound search, the `mobius` check against the subset joins of the
bound search and the crosscut of every node,
the `triangulation` check against the direct loops, and the diagram
`run_all` shares among the checks."""

import random
import tracemalloc
from bisect import bisect_left
from dataclasses import replace
from functools import cached_property, lru_cache
from itertools import combinations, islice
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cyclat import affine, certificates, checks, kernels, lanes, oracle, perm, poset, vectors
from cyclat.errors import NotAdmittedError, QuadNotFlippableError
from cyclat.oracle import join_by_search, order_by_closure
from cyclat.perm import CircularPermutation, word_text
from cyclat.poset import bits, build, compose_transposition, eulerian_row
from cyclat.vectors import AdmittedVector, cycle_to_vector


def lane_bit(k, width=1):
    """The unit of lane k of an int column, lanes `width` bytes."""
    return 1 << 8 * width * k


def block_steps(n, columns):
    """The steps up and down that `certificates.prove` reads, of the
    order-n columns taken as one block: for each coordinate k, bit 8t
    set iff node t's x + e_k, or x - e_k, is admitted."""
    size = len(columns[0]) if columns else 1
    ones = int.from_bytes(b"\1" * size, "little")
    defects = lanes._word_bits(n, size, [int.from_bytes(column, "little") for column in columns])
    holes = [ones - d for d in defects]
    return (certificates._step_lanes(n, ones, holes, defects),
            certificates._step_lanes(n, ones, defects, holes))


def proved(diagram):
    """`certificates.prove` of the diagram's columns."""
    return certificates.prove(diagram.n, diagram.columns, poset._inversion_columns(diagram.n))


def triangulation_by_vectors(n):
    """The vector stage of `triangulation` one node at a time, the
    reference of the lane form: node k's vector admitted as an
    `AdmittedVector`, then summed over triangulation k mod Catalan(n-2)."""
    tris = vectors.all_triangulations(n)
    for k, flat in enumerate(zip(*poset._vector_columns(n))):
        v = AdmittedVector(n, flat)
        t = tris[k % len(tris)]
        if vectors.triangulation_sum(v, t) != v[1, n]:
            return False, {"vector": v.rows(), "triangles": sorted(t.triangles)}
    return True, None


def interval_by_cycles(n):
    """`interval` one cycle at a time, the reference of the lane form."""
    for s in perm.all_cycles(n):
        v = vectors.cycle_to_vector(s)
        w = affine.window_of_vector(v)
        if affine.window_counts(w) != v.flat:
            return False, {"stage": "window roundtrip", "cycle": s.as_text()}
        if vectors.vector_to_cycle(v) != s:
            return False, {"stage": "vector roundtrip", "cycle": s.as_text()}
        if affine.project(w) != s:
            return False, {"stage": "projection", "cycle": s.as_text()}
        if not (s.rank == v.rank == affine.length(w)):
            return False, {"stage": "grading", "cycle": s.as_text()}
    return True, None


def outcome(check, *args):
    """What check(*args) returns or, if it raises a NotAdmittedError,
    that error's message, kind and place."""
    try:
        return check(*args)
    except NotAdmittedError as exc:
        return str(exc), exc.kind, exc.where


def check_outcome(name, n):
    """`outcome` of `run_check(name, n)`, as (verdict, witness)."""
    def verdict():
        report = checks.run_check(name, n)
        return report.passed, report.witness
    return outcome(verdict)


def window_off_by_one(monkeypatch, n, k):
    """a_n one too high in lane k of the window columns."""
    window_columns = checks._window_columns

    def off(n, v, ones):
        out = window_columns(n, v, ones)
        return [*out[:-1], out[-1] + lane_bit(k, 2)]

    monkeypatch.setattr(checks, "_window_columns", off)


def wrong_inversion_bit(monkeypatch, n, k):
    """B(2, 3) flipped in lane k of the inversion bits that `interval`
    reads; the vector columns stay those of the true bits."""
    columns, inversion_columns = poset._vector_columns(n), poset._inversion_columns

    def flipped(n):
        out = inversion_columns(n)
        column = bytearray(out[2, 3])
        column[k] ^= 1
        return out | {(2, 3): bytes(column)}

    monkeypatch.setattr(poset, "_vector_columns", lambda n, inversions=None: columns)
    monkeypatch.setattr(poset, "_inversion_columns", flipped)


def wrong_residue(monkeypatch, n, k):
    """Letter 2 one place late in lane k of the letter positions."""
    letter_positions = checks._letter_positions

    def late(n, inversions, ones):
        out = letter_positions(n, inversions, ones)
        return [out[0], out[1] + lane_bit(k, 2), *out[2:]]

    monkeypatch.setattr(checks, "_letter_positions", late)


def wrong_rank(monkeypatch, n, k):
    """Node k's rank one too high."""
    prefix_ranks = poset._prefix_ranks

    def off(n):
        ranks = prefix_ranks(n)
        ranks[k] += 1
        return ranks

    monkeypatch.setattr(poset, "_prefix_ranks", off)


class RawWindow(affine.AffineWindow):
    """A window whose entries are not validated, as a corrupted lane
    holds them."""

    def __post_init__(self):
        pass


def wrong_on_node(monkeypatch, n, k, module, name, wrong):
    """Patch module.name to give wrong(its result) where its argument is
    node k's vector or window."""
    right = getattr(module, name)
    v = AdmittedVector(n, kernels.word_vector(next(islice(poset._words(n), k, None))))
    inputs = (v, affine.window_of_vector(v))
    monkeypatch.setattr(module, name,
                        lambda arg: wrong(right(arg)) if arg in inputs else right(arg))


def other_cycle(s):
    """A cycle of the same order other than s."""
    n = s.n
    return CircularPermutation.largest(n) if s == CircularPermutation.smallest(n) \
        else CircularPermutation.smallest(n)


# The faults of LANE_MUTANTS, one node at a time: `interval_by_cycles`
# meets them at node k, the lane form in lane k.
NODE_MUTANTS = {
    "window roundtrip": lambda monkeypatch, n, k: wrong_on_node(
        monkeypatch, n, k, affine, "window_of_vector",
        lambda w: RawWindow(w.entries[:-1] + (w.entries[-1] + 1,))),
    "vector roundtrip": lambda monkeypatch, n, k: wrong_on_node(
        monkeypatch, n, k, vectors, "vector_to_cycle", other_cycle),
    "projection": lambda monkeypatch, n, k: wrong_on_node(
        monkeypatch, n, k, affine, "project", other_cycle),
    "grading": lambda monkeypatch, n, k: wrong_on_node(
        monkeypatch, n, k, affine, "length", lambda x: x + 1),
}


LANE_MUTANTS = {"window roundtrip": window_off_by_one,
                "vector roundtrip": wrong_inversion_bit,
                "projection": wrong_residue, "grading": wrong_rank}


def all_chains(diagram, lo, hi):
    """Edge positions of every saturated chain from node lo up to hi."""
    if lo == hi:
        yield []
        return
    for k in diagram.edges_above(lo):
        up = diagram.hi[k]
        if diagram.leq(up, hi):
            for rest in all_chains(diagram, up, hi):
                yield [k] + rest


def conjugators(diagram, x, y):
    """The distinct conjugators of the chains from x up to y."""
    found = set()
    for chain in all_chains(diagram, x, y):
        alpha = tuple(range(1, diagram.n + 1))
        for k in chain:
            alpha = compose_transposition(alpha, diagram.r[k], diagram.s[k])
        found.add(alpha)
    return found


def chains_agree(diagram):
    """Reference verdict: one conjugator for every comparable pair."""
    return all(len(conjugators(diagram, x, y)) == 1
               for x in range(len(diagram.words))
               for y in bits(diagram.above_mask(x)))


def mutants(n):
    """build(n) with one edge relabelled: (1,3), or (2,4) where it is (1,3)."""
    diagram = build(n)
    for k in range(len(diagram.lo)):
        label = (2, 4) if (diagram.r[k], diagram.s[k]) == (1, 3) else (1, 3)
        r, s = list(diagram.r), list(diagram.s)
        r[k], s[k] = label
        yield replace(diagram, r=tuple(r), s=tuple(s))


def corrupt_lane(monkeypatch, n, k):
    """Coordinate (1, n) of node k's vector one too high in the columns
    `run_check` reads: no canonical word's vector."""
    columns = list(poset._vector_columns(n))
    column = bytearray(columns[n - 2])
    column[k] += 1
    columns[n - 2] = bytes(column)
    monkeypatch.setattr(poset, "_vector_columns", lambda n, inversions=None: tuple(columns))
    return columns


def changed_steps(monkeypatch, n, side, change):
    """`certificates._step_lanes` with `change` made to the order-n steps
    up (side 0) or down (side 1) of `block_steps`, which it tells by
    their lanes; the lanes are one block."""
    target = block_steps(n, poset._vector_columns(n))[side]
    step_lanes = certificates._step_lanes

    def changed(n, ones, zero, one):
        steps = step_lanes(n, ones, zero, one)
        return change(steps) if steps == target else steps

    monkeypatch.setattr(certificates, "_step_lanes", changed)


def stray_step(monkeypatch, n, pair, k):
    """An admitted step at pair added in lane k of the steps up."""
    index = list(combinations(range(1, n + 1), 2)).index(pair)
    changed_steps(monkeypatch, n, 0, lambda up: [
        steps | lane_bit(k) * (c == index) for c, steps in enumerate(up)])


class TestAlphaPotential:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_built_diagram_agrees_with_enumeration(self, n):
        assert chains_agree(build(n))
        assert checks.run_check("alpha", n).passed

    def test_every_single_edge_mutant(self):
        # the walk decides where the certificate declines; it reads the
        # labels, which the certificate does not
        cases = [m for n in (4, 5) for m in mutants(n)]
        assert len(cases) == 42
        failed = 0
        for mutant in cases:
            passed, witness = checks._alpha_walk(mutant)
            dependent = not passed and witness["stage"] == "chain independence"
            assert dependent == (not chains_agree(mutant))
            if dependent:
                failed += 1
                x, y = (mutant.words.index(CircularPermutation.from_text(text).canon)
                        for text in witness["pair"])
                assert x == mutant.bottom
                assert len(conjugators(mutant, x, y)) > 1
        assert failed == 38

    def test_mutant_fails_at_chain_independence(self):
        # edge 0 leaves the bottom, its only cover, so that mutant keeps
        # independence; edge 1 does not
        mutant = list(mutants(5))[1]
        passed, witness = checks._alpha_walk(mutant)
        assert not passed
        assert witness["stage"] == "chain independence"
        assert witness["pair"][0] == word_text(mutant.words[mutant.bottom])

    def test_wrong_formula_fails_at_maximal_chain(self, monkeypatch):
        monkeypatch.setattr(checks.poset, "conjugator_formula",
                            lambda n: tuple(range(1, n + 1)))
        expected = {"stage": "maximal chain", "alpha": [5, 4, 3, 2, 1],
                    "expected": [1, 2, 3, 4, 5]}
        assert checks.run_check("alpha", 5).witness == expected
        assert checks._alpha_walk(build(5)) == (False, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_is_the_walks_potential(self, n):
        diagram = build(n)
        potential, disagrees = checks._walk_potential(diagram)
        assert disagrees is None and len(potential) == len(diagram.ranks)
        assert all(potential[t] == checks._potential(n, diagram.columns, t)
                   for t in range(len(diagram.ranks)))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_steps_are_the_edges(self, n):
        report = checks.run_check("alpha", n)
        steps = report.stats["steps"]
        assert steps == poset.verify_descent_distribution(n - 1)["expected_edges"]
        if n <= 7:
            assert steps == len(build(n).lo)

    @pytest.mark.parametrize("n, k", [(4, 0), (4, 5), (6, 0), (6, 119), (6, 77)])
    def test_non_word_lane_declines(self, monkeypatch, n, k):
        columns = corrupt_lane(monkeypatch, n, k)
        assert certificates.prove(n, columns, poset._inversion_columns(n)) is None
        report = checks.run_check("alpha", n)
        assert (report.passed, report.witness) == checks._alpha_walk(build(n)) == (True, None)
        assert "steps" not in report.stats and report.phases["build"] > 0

    # each case fails one test of `_stray_steps` alone, so the proof is
    # not `cyclic`: (1, 3) where n is
    # last in the bottom's word, (2, 4) where 4 stands after 2 in it, and
    # (2, 4) where 3 stands between 4 and 2 in the top's
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("pair, node", [((1, 3), "bottom"), ((2, 4), "bottom"),
                                            ((2, 4), "top")],
                             ids=["last-letter", "after-i", "between"])
    def test_dropped_predecessor_lane_declines(self, monkeypatch, n, pair, node):
        k = 0 if node == "bottom" else factorial(n - 1) - 1
        stray_step(monkeypatch, n, pair, k)
        diagram = build(n)
        assert proved(diagram).cyclic is False
        report = checks.run_check("alpha", n)
        assert (report.passed, report.witness) == checks._alpha_walk(diagram) == (True, None)
        assert "steps" not in report.stats and report.phases["build"] > 0

    def test_bottom_off_the_identity_declines(self, monkeypatch):
        potential = checks._potential

        def reversed_at_bottom(n, columns, t):
            alpha = potential(n, columns, t)
            return alpha[::-1] if t == 0 else alpha

        monkeypatch.setattr(checks, "_potential", reversed_at_bottom)
        report = checks.run_check("alpha", 5)
        assert (report.passed, report.witness) == (True, None)
        assert "steps" not in report.stats and report.phases["build"] > 0

    @pytest.mark.parametrize("case", [1, 5, 20])
    def test_forced_decline_fails_with_the_walks_witness(self, monkeypatch, case):
        mutant = list(mutants(5))[case]
        prove = certificates.prove
        monkeypatch.setattr(checks, "prove", lambda n, columns, inversions:
                            prove(n, columns, inversions)._replace(cyclic=False))
        monkeypatch.setattr(checks, "_diagram", lambda n, ranks: mutant)
        report = checks.run_check("alpha", 5)
        passed, witness = checks._alpha_walk(mutant)
        assert not passed
        assert (report.passed, report.witness) == (passed, witness)


class TestIntervalPass:
    def test_passes_without_weak_leq(self, monkeypatch):
        def compare_anyway(f, g):
            raise AssertionError("interval compared a pair of windows")

        monkeypatch.setattr(affine, "weak_leq", compare_anyway)
        assert checks.run_check("interval", 6).passed

    def test_admits_each_element_once(self, monkeypatch):
        # the window stage reads every lane: a window off in any one lane
        # fails there, and nowhere else
        window_columns = checks._window_columns
        for k in range(120):
            def off_at_k(n, v, ones, k=k):
                a = window_columns(n, v, ones)
                return [a[0] + n * lane_bit(k, 2)] + a[1:]

            monkeypatch.setattr(checks, "_window_columns", off_at_k)
            report = checks.run_check("interval", 6)
            assert report.witness == {"stage": "window roundtrip",
                                      "cycle": poset.node_name(6, k)}

    def test_wrong_window_fails_at_window_roundtrip(self, monkeypatch):
        # the top cycle gets the identity window, which lies in the
        # interval but maps back to the zero vector
        top = CircularPermutation.largest(6)
        top_vector = cycle_to_vector(top)
        window_of_vector = affine.window_of_vector

        def wrong_for_top(v):
            if v == top_vector:
                return window_of_vector(AdmittedVector.zero(6))
            return window_of_vector(v)

        monkeypatch.setattr(affine, "window_of_vector", wrong_for_top)
        expected = {"stage": "window roundtrip", "cycle": top.as_text()}
        assert interval_by_cycles(6) == (False, expected)
        window_columns = checks._window_columns

        def identity_on_top(n, v, ones):
            # the top's window is interval_top(n); the identity's is 1..n
            top_lane = lane_bit(len(poset._prefix_ranks(n)) - 1, 2)
            return [column + (i - a) * top_lane for i, (column, a) in enumerate(
                zip(window_columns(n, v, ones), affine.interval_top(n).entries), start=1)]

        monkeypatch.setattr(checks, "_window_columns", identity_on_top)
        report = checks.run_check("interval", 6)
        assert (report.passed, report.witness) == (False, expected)


class TestEulerianStream:
    @pytest.mark.parametrize("n", range(8))
    def test_builds_and_enumerates_no_cycle(self, monkeypatch, n):
        def forbidden(*args, **kwargs):
            raise AssertionError("eulerian built a diagram or a cycle")

        monkeypatch.setattr(poset, "build", forbidden)
        monkeypatch.setattr(checks, "_diagram", forbidden)
        monkeypatch.setattr(perm, "all_cycles", forbidden)
        monkeypatch.setattr(CircularPermutation, "__post_init__", forbidden)
        report = checks.run_check("eulerian", n)
        assert report.passed and report.witness is None

    @pytest.mark.parametrize("n", range(7))
    def test_calls_no_kernel(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("eulerian called a kernel")

        monkeypatch.setattr(kernels, "descent_count", refuse)
        assert checks.run_check("eulerian", n).passed

    @pytest.mark.parametrize("n", range(11))
    def test_counts_with_no_pass_over_the_cycles(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("eulerian enumerated the cycles")

        # the stream and the scan are the tests' cross-checks of the count
        monkeypatch.setattr(poset, "_cover_blocks", refuse)
        monkeypatch.setattr(oracle, "descents_by_scan", refuse)
        report = checks.run_check("eulerian", n)
        assert report.passed and report.witness is None

    def test_failure_reports_the_counts(self, monkeypatch):
        wrong = {0: 1, 1: 25, 2: 67, 3: 26, 4: 1}
        monkeypatch.setattr(poset, "cover_histogram", lambda n: wrong)
        report = checks.run_check("eulerian", 5)
        assert not report.passed
        assert report.witness == {"n": 5, "eulerian_row": dict(enumerate(eulerian_row(5))),
                                  "cover_histogram": wrong, "edges": 241,
                                  "expected_edges": 240}


def without_edge(diagram, k):
    """The diagram with edge k deleted."""
    keep = [t for t in range(len(diagram.lo)) if t != k]
    return replace(diagram, **{column: tuple(getattr(diagram, column)[t] for t in keep)
                               for column in ("lo", "hi", "r", "s")})


def vector(diagram, t):
    """The vector of node t, from its word rather than the columns."""
    return kernels.word_vector(diagram.words[t])


def lane_vectors(size, columns):
    """The vector in each of the `size` lanes of these int columns."""
    return [tuple(row) for row in lanes._split_rows(size, columns)]


def lane_columns(vectors):
    """The int columns of these vectors, one byte lane each."""
    return [int.from_bytes(bytes(column), "big") for column in zip(*vectors)]


def wrong_lanes_at(diagram, x, y, z, meet=False):
    """lanes._column_joins (with `meet`, lanes._column_meets), but the
    result for nodes x and y is node z, or the vector z, in every lane
    that holds the pair."""
    column_op = lanes._column_meets if meet else lanes._column_joins
    pair = {vector(diagram, x), vector(diagram, y)}
    wrong = z if isinstance(z, tuple) else vector(diagram, z)

    def bounds(n, size, us, vs):
        out = column_op(n, size, us, vs)
        return lane_columns(
            wrong if {u, v} == pair else lane
            for u, v, lane in zip(*(lane_vectors(size, c) for c in (us, vs, out))))
    return bounds


def corrupt_square_lanes(diagram, op, corrupted):
    """lanes._column_joins (for op "meet", lanes._column_meets), but
    wrong on the pairs of `corrupted`: for each (op, k) in it, the pair
    of lane k of the square, divmod(k, nodes), holds a wrong node, the
    bottom for a join and the top for a meet.  In the square's
    certificate, one batch of the triangle's nodes * (nodes + 1) / 2
    lanes, that is the lane of the unordered pair; in the walk's batch
    of the whole square, lane k, so the walk meets the same first
    failure as before the triangle.  The joins also see the meets' dual
    lanes, so a corrupted join lane also makes that lane's meet the
    top."""
    column_op = lanes._column_meets if op == "meet" else lanes._column_joins
    nodes = len(diagram.ranks)
    wrong = vector(diagram, diagram.top if op == "meet" else diagram.bottom)
    pairs = {(bound, tuple(sorted(divmod(k, nodes)))) for bound, k in corrupted}
    triangle = [(x, y) for x in range(nodes) for y in range(x, nodes)]

    def bounds(n, size, us, vs):
        out = column_op(n, size, us, vs)
        if size == len(triangle):
            wrong_at = [(op, pair) in pairs for pair in triangle]
        elif size == nodes * nodes:
            wrong_at = [(op, k) in corrupted for k in range(size)]
        else:
            return out
        return lane_columns(wrong if bad else lane
                            for bad, lane in zip(wrong_at, lane_vectors(size, out)))
    return bounds


def lattice_by_pairs(diagram):
    """The `lattice` check as it ran before its certificates and blocks,
    the reference of both: the cover walk `_cover_failure`, then each
    pair of the square, or above 120 nodes of the seeded sample, in
    turn, its join before its meet, tested on its own up-sets and
    down-sets."""
    failure = checks._cover_failure(diagram)
    if failure:
        return False, failure
    size = len(diagram.ranks)
    if size <= 120:
        xs = [x for x in range(size) for _ in range(size)]
        ys = list(range(size)) * size
    else:
        rng = random.Random(checks._SEED)
        draws = [rng.randrange(size) for _ in range(20_000)]
        xs, ys = draws[::2], draws[1::2]
    up, down = diagram.above_mask, diagram.below_mask
    for x, y, j, m in zip(xs, ys, *diagram.bounds(xs, ys)):
        if j is None or up(j) != up(x) & up(y):
            return False, {"op": "join", "pair": [diagram.name(x), diagram.name(y)]}
        if m is None or down(m) != down(x) & down(y):
            return False, {"op": "meet", "pair": [diagram.name(x), diagram.name(y)]}
    return True, None


def with_edge(diagram, lo, hi):
    """The diagram with one more edge, lo to hi, in its place in the
    (lo, hi) order, labelled (0, 0): `lattice` reads no label."""
    edges = sorted([*zip(diagram.lo, diagram.hi, diagram.r, diagram.s), (lo, hi, 0, 0)])
    return replace(diagram, **dict(zip(("lo", "hi", "r", "s"), zip(*edges))))


def lattice_outcome(monkeypatch, diagram):
    """`run_check("lattice", n)` on this diagram, as (verdict, witness)."""
    monkeypatch.setattr(checks, "_diagram", lambda n, ranks: diagram)
    report = checks.run_check("lattice", diagram.n)
    return report.passed, report.witness


class TestLatticeCheck:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cover_pairs_agree_with_bound_search(self, n):
        diagram = build(n)
        closure = order_by_closure(diagram)
        assert checks._cover_failure(diagram) is None
        pairs = [pair for up in diagram.up for pair in combinations(up, 2)]
        ys, zs = [y for y, _ in pairs], [z for _, z in pairs]
        assert diagram.joins(ys, zs) == [join_by_search(closure, y, z) for y, z in pairs]
        assert checks.run_check("lattice", n).passed

    def test_wrong_cover_join_fails(self, monkeypatch):
        diagram = build(5)
        x = next(t for t, up in enumerate(diagram.up) if len(up) > 1)
        y, z = diagram.up[x][:2]
        monkeypatch.setattr(lanes, "_column_joins",
                            wrong_lanes_at(diagram, y, z, diagram.top))
        report = checks.run_check("lattice", 5)
        assert not report.passed
        assert report.witness["op"] == "join"
        assert sorted(report.witness["pair"]) == \
            sorted(word_text(diagram.words[t]) for t in (y, z))

    def test_wrong_join_of_one_pair_fails(self, monkeypatch):
        # the bottom and the top are not two covers of one node, so only
        # the pair claim sees this join
        diagram = build(5)
        bottom, top = diagram.bottom, diagram.top
        monkeypatch.setattr(lanes, "_column_joins",
                            wrong_lanes_at(diagram, bottom, top, bottom))
        assert checks._cover_failure(diagram) is None
        report = checks.run_check("lattice", 5)
        assert not report.passed
        assert report.witness == {"op": "join",
                                  "pair": [word_text(diagram.words[bottom]),
                                           word_text(diagram.words[top])]}

    @pytest.mark.parametrize("corrupted, op, k, n", [
        pytest.param({("join", 301), ("meet", 300), ("join", 470)}, "meet", 300, 5,
                     id="corrupted0-meet-300"),
        pytest.param({("meet", 300), ("join", 300), ("meet", 301)}, "join", 300, 5,
                     id="corrupted1-join-300"),
        pytest.param({("meet", 9000), ("join", 5000)}, "join", 5000, 6, id="n6-join-5000"),
        pytest.param({("join", 9001), ("meet", 3001)}, "meet", 3001, 6, id="n6-meet-3001")])
    def test_first_failing_lane_of_the_square(self, monkeypatch, corrupted, op, k, n):
        # the certificate proves each unordered pair once, in one batch of
        # the triangle (300 lanes at n = 5, 7,260 at n = 6), and declines
        # on a corrupted pair; the walk then takes the whole square as one
        # batch (576 and 14,400 lanes), the pair (x, y) in lane
        # (nodes) x + y: the first corrupted pair fails, at its join
        # before its meet, also when a later lane holds another.  The
        # meets run the patched join on the dual lanes, which only makes
        # more meets wrong, and no earlier one.
        diagram = build(n)
        for name, bound in (("_column_meets", "meet"), ("_column_joins", "join")):
            monkeypatch.setattr(lanes, name, corrupt_square_lanes(diagram, bound, corrupted))
        assert checks._cover_failure(diagram) is None
        assert not diagram.square_tight_bounds()
        report = checks.run_check("lattice", n)
        assert not report.passed
        assert report.witness == {"op": op, "pair": [
            word_text(diagram.words[t]) for t in divmod(k, len(diagram.ranks))]}
        assert lattice_by_pairs(diagram) == (False, report.witness)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lattice_calls_no_pair_kernel(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("lattice called a per-pair kernel")

        monkeypatch.setattr(kernels, "join_flat", refuse)
        monkeypatch.setattr(kernels, "meet_flat", refuse)
        assert checks.run_check("lattice", n).passed

    def test_missing_cover_fails_the_closure(self, monkeypatch):
        diagram = build(5)
        k = 10
        mutant = without_edge(diagram, k)
        monkeypatch.setattr(checks, "_diagram", lambda n, ranks: mutant)
        report = checks.run_check("lattice", 5)
        assert not report.passed
        assert report.witness["op"] == "order"
        assert report.witness["pair"][0] == word_text(diagram.words[diagram.lo[k]])


class TestLatticeCertificates:
    """The certificates of the cover claims against the walk they
    replace, the mutants each part declines, and the fast path."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_certificates_agree_with_the_walk(self, n):
        diagram = build(n)
        assert certificates.covers_certified(diagram, proved(diagram))
        assert checks._cover_failure(diagram) is None

    def test_edge_to_a_comparable_non_cover(self, monkeypatch):
        # an edge from the bottom to a node two ranks up is no unit step,
        # but the order is still the closure of the edges
        diagram = build(5)
        w = diagram.ranks.index(2)
        mutant = with_edge(diagram, diagram.bottom, w)
        assert certificates.unit_steps(mutant) is None
        assert not certificates.covers_certified(mutant, proved(mutant))
        expected = lattice_by_pairs(with_edge(diagram, diagram.bottom, w))
        assert lattice_outcome(monkeypatch, mutant) == expected == (True, None)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_admitted_steps_are_the_admitted_vectors(self, n):
        # lane t of coordinate k is set iff node t's vector plus e_k is
        # admitted, on every node and coordinate
        diagram = build(n)
        steps = block_steps(n, diagram.columns)[0]
        assert len(steps) == len(diagram.columns)
        for k, mask in enumerate(steps):
            for t, row in enumerate(diagram.rows):
                raised = tuple(x + (c == k) for c, x in enumerate(row))
                assert (mask >> 8 * t) & 0xff == kernels.is_admitted_flat(n, raised)

    def test_repeated_edge_in_place_of_a_missing_one(self, monkeypatch):
        # one edge doubled and another of the same step dropped: every
        # edge is still a unit step and each step's edges are as many as
        # its admitted lanes, but the edges repeat, so the certificate
        # declines and the walk names the node that lost its cover
        diagram = build(5)
        steps = certificates.unit_steps(diagram)
        dropped = max(e for e in range(len(steps)) if steps[e] == steps[0] and e)
        mutant = with_edge(without_edge(diagram, dropped), diagram.lo[0], diagram.hi[0])
        mutant_steps = certificates.unit_steps(mutant)
        assert sorted(mutant_steps) == sorted(steps)
        counts = [steps.bit_count() for steps in block_steps(5, mutant.columns)[0]]
        assert counts == [mutant_steps.count(k) for k in range(len(diagram.columns))]
        assert not certificates.steps_are_covers(mutant, mutant_steps, counts)
        assert not certificates.covers_certified(mutant, proved(mutant))
        expected = lattice_by_pairs(mutant)
        assert expected[1]["op"] == "order"
        assert expected[1]["pair"][0] == diagram.name(diagram.lo[dropped])
        assert lattice_outcome(monkeypatch, mutant) == expected

    def test_non_tight_join_lane(self, monkeypatch):
        # a cover pair's join is an upper cover of the true join: a node
        # above both covers, but not tight and not the least
        diagram = build(5)
        x = next(t for t, up in enumerate(diagram.up) if len(up) > 1)
        y, z = diagram.up[x][:2]
        (j,) = diagram.joins([y], [z])
        monkeypatch.setattr(lanes, "_column_joins",
                            wrong_lanes_at(diagram, y, z, diagram.up[j][0]))
        # the cover certificates hold, and the square's bound certificate
        # declines on the lane of the pair
        assert certificates.covers_certified(diagram, proved(diagram))
        assert not diagram.square_tight_bounds()
        expected = lattice_by_pairs(diagram)
        assert expected == (False, {"op": "join", "pair": [diagram.name(y), diagram.name(z)]})
        assert lattice_outcome(monkeypatch, diagram) == expected

    @pytest.mark.parametrize("n", [5, 7])
    def test_non_tight_meet_lane(self, monkeypatch, n):
        # the dual: one pair's meet is a lower cover of the true meet, a
        # node below both ends, but not the greatest, and M minus it is
        # not tight on the dual lanes.  At n = 5 two lower covers of a
        # node, a pair of the square; at n = 7 the last sampled pair
        diagram = build(n)
        size = len(diagram.ranks)
        if n == 5:
            x, y, m = next((a, b, m) for w in range(size) for a, b in combinations(diagram.down[w], 2)
                           for m in diagram.bounds([a], [b])[1] if diagram.down[m])
        else:
            rng = random.Random(checks._SEED)
            draws = [rng.randrange(size) for _ in range(20_000)]
            xs, ys = draws[::2], draws[1::2]
            x, y = xs[-1], ys[-1]
            (m,) = diagram.bounds([x], [y])[1]
        monkeypatch.setattr(lanes, "_column_meets",
                            wrong_lanes_at(diagram, x, y, diagram.down[m][0], meet=True))
        assert certificates.covers_certified(diagram, proved(diagram))
        assert not (diagram.square_tight_bounds() if n == 5 else diagram.tight_bounds(xs, ys))
        expected = lattice_by_pairs(diagram)
        assert expected[1]["op"] == "meet" and set(expected[1]["pair"]) == {
            diagram.name(x), diagram.name(y)}
        assert lattice_outcome(monkeypatch, diagram) == expected

    def test_negative_triple_defect(self, monkeypatch):
        # the top's v[1,5] lowered from 3 to 1: its defect at (1, 3, 5)
        # is 1 - 1 - 1 = -1, so it is no admitted vector
        def mutant():
            diagram = build(5)
            columns = list(diagram.columns)
            c = kernels.pair_index(5, 1, 5)
            columns[c] = columns[c][:-1] + b"\1"
            diagram.columns = tuple(columns)  # the cached view, set before any use
            return diagram

        diagram = mutant()
        assert [diagram.columns[kernels.pair_index(5, *ij)][diagram.top]
                for ij in ((1, 3), (3, 5), (1, 5))] == [1, 1, 1]
        assert proved(diagram) is None
        assert not certificates.covers_certified(diagram, proved(diagram))
        expected = lattice_by_pairs(mutant())
        assert not expected[0]
        assert lattice_outcome(monkeypatch, diagram) == expected

    @pytest.mark.parametrize("tie", ["repeat", "swap"])
    def test_rows_that_are_not_the_words_in_id_order(self, monkeypatch, tie):
        # every row is still some word's vector, so the columns pass the
        # lane test, but the rows are not the words' in id order: one
        # node of rank 2 holds the other's row, or the two swap rows.
        # Only the inversion bits read from the columns tell, and the
        # check's verdict and witness are the walk's
        x, y = [t for t, rank in enumerate(build(5).ranks) if rank == 2][:2]

        def mutant():
            rows = list(build(5).rows)
            rows[x], rows[y] = (rows[y], rows[y]) if tie == "repeat" else (rows[y], rows[x])
            diagram = build(5)
            diagram.columns = tuple(map(bytes, zip(*rows)))  # set before any use
            return diagram

        diagram = mutant()
        columns = [int.from_bytes(column, "big") for column in diagram.columns]
        assert lanes._word_bits(5, len(diagram.ranks), columns) is not None
        assert proved(diagram) is None
        assert not certificates.covers_certified(diagram, proved(diagram))
        expected = lattice_by_pairs(mutant())
        assert not expected[0]
        assert lattice_outcome(monkeypatch, diagram) == expected

    @pytest.mark.parametrize("n", [5, 7])
    def test_second_top_declines_to_the_walks(self, monkeypatch, n):
        # the lattice claim rests on one node with no admitted step up:
        # with two counted, the cover certificates decline, and the walks
        # pass the real order over the same pairs
        pairs = checks.run_check("lattice", n).stats["pairs"]
        walked = []
        cover_failure = checks._cover_failure
        prove = certificates.prove
        monkeypatch.setattr(checks, "prove", lambda n, columns, inversions:
                            prove(n, columns, inversions)._replace(tops=2))
        monkeypatch.setattr(checks, "_cover_failure",
                            lambda diagram: walked.append(diagram.n) or cover_failure(diagram))
        diagram = build(n)
        assert not certificates.covers_certified(
            diagram, checks.prove(n, diagram.columns, poset._inversion_columns(n)))
        report = checks.run_check("lattice", n)
        assert report.passed and report.stats["pairs"] == pairs
        assert walked == [n]

    @pytest.mark.parametrize("n", [5, 7])
    def test_declined_covers_walk_the_pairs(self, monkeypatch, n):
        # the bound certificate rests on the nodes' admission, which the
        # cover certificates prove: where they decline and the cover walk
        # finds no failure, every tested pair is walked on its masks
        walked = []
        pair_failure = checks._pair_failure
        monkeypatch.setattr(checks, "covers_certified", lambda diagram, proof: False)
        monkeypatch.setattr(checks, "_pair_failure",
                            lambda diagram, xs, ys: walked.append(len(xs)) or
                            pair_failure(diagram, xs, ys))
        report = checks.run_check("lattice", n)
        assert report.passed and walked == [report.stats["pairs"]]

    def test_tightness_is_the_join(self):
        # on every ordered pair at n = 5 the lane join is tight, and on
        # every seventh pair no other node above both ends is
        diagram = build(5)
        size = len(diagram.ranks)
        xs = [x for x in range(size) for _ in range(size)]
        ys = list(range(size)) * size
        us, vs = (lanes._gather(5, diagram.rows, ids) for ids in (xs, ys))
        joins = lanes._column_joins(5, len(xs), us, vs)
        assert lanes._column_tight(5, len(xs), us, vs, joins)
        (js,) = diagram._bounds(xs, ys, lanes._column_joins)
        for x, y, j in zip(xs[::7], ys[::7], js[::7]):
            above = bits(diagram.above_mask(x) & diagram.above_mask(y))
            tight = [w for w in above if lanes._column_tight(
                5, 1, lanes._gather(5, diagram.rows, [x]), lanes._gather(5, diagram.rows, [y]),
                lanes._gather(5, diagram.rows, [w]))]
            assert tight == [j]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_passing_run_takes_the_fast_path(self, monkeypatch, n):
        # neither walk runs, no down-set is computed (the meets are
        # proved on the dual lanes), no row is looked up ("is a node" is
        # tested on the lanes), and no threshold mask is built (the
        # closure is proved by the admitted steps)
        def refuse(*args):
            raise AssertionError("a passing run left the fast path")

        below = []
        below_mask = poset.HasseDiagram.below_mask
        monkeypatch.setattr(checks, "_cover_failure", refuse)
        monkeypatch.setattr(checks, "_pair_failure", refuse)
        monkeypatch.setattr(poset.HasseDiagram, "vec_index", property(refuse))
        monkeypatch.setattr(poset.HasseDiagram, "at_least", property(refuse))
        monkeypatch.setattr(poset.HasseDiagram, "below_mask",
                            lambda self, y: below.append(y) or below_mask(self, y))
        assert checks.run_check("lattice", n).passed
        assert below == []

    def test_cover_pass_holds_no_up_sets(self):
        # beyond the diagram and the views it reads, the n = 8 block pass
        # and cover pass allocate less than 512 KB at their peak; a walk
        # that holds the up-sets of three ranks, rank by rank from the
        # top, takes 0.89 MB.  The passes read no vec_index and no
        # threshold mask, so neither is built
        diagram = build(8)
        diagram.rows
        inversions = poset._inversion_columns(8)
        tracemalloc.start()
        try:
            proof = certificates.prove(8, diagram.columns, inversions)
            assert certificates.covers_certified(diagram, proof)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        assert "vec_index" not in vars(diagram)
        assert "at_least" not in vars(diagram)


class TestLatticeBlocks:
    """The pairs of the square and of the sample, tested a block at a
    time."""

    @pytest.mark.parametrize("n", [7, 8])
    def test_last_sampled_pair_is_tested(self, monkeypatch, n):
        # the join of the last of the 10,000 sampled pairs is wrong: the
        # blocks reach it and fail where the pair-by-pair walk does
        diagram = build(n)
        rng = random.Random(checks._SEED)
        draws = [rng.randrange(len(diagram.ranks)) for _ in range(20_000)]
        x, y = draws[-2:]
        (j,) = diagram.joins([x], [y])
        wrong = diagram.top if j != diagram.top else diagram.bottom
        monkeypatch.setattr(lanes, "_column_joins", wrong_lanes_at(diagram, x, y, wrong))
        expected = lattice_by_pairs(diagram)
        assert not expected[0]
        report = checks.run_check("lattice", n)
        assert (report.passed, report.witness) == expected

    @pytest.mark.parametrize("n, meet", [(5, False), (5, True), (7, False), (7, True)])
    def test_bound_that_is_no_node_fails(self, monkeypatch, n, meet):
        # one pair's join (meet) is the zero vector but v[1,3] = 1, whose
        # defect at (1, 3, 4) is -1, so no node has it (and it stays below
        # M, which the dual meets subtract it from): in the square the
        # bottom and the top, in the sample its last pair; neither is a
        # cover pair
        diagram = build(n)
        if n == 5:
            x, y = diagram.bottom, diagram.top
        else:
            rng = random.Random(checks._SEED)
            x, y = [rng.randrange(len(diagram.ranks)) for _ in range(20_000)][-2:]
        zero = vector(diagram, diagram.bottom)
        assert not any(zero)
        no_node = zero[:1] + (1,) + zero[2:]
        name = "_column_meets" if meet else "_column_joins"
        monkeypatch.setattr(lanes, name, wrong_lanes_at(diagram, x, y, no_node, meet=meet))
        expected = lattice_by_pairs(diagram)
        assert expected[1]["op"] == ("meet" if meet else "join")
        report = checks.run_check("lattice", n)
        assert (report.passed, report.witness) == expected


def mobius_by_scan(diagram):
    """The `mobius` check as it ran before its certificate, the reference
    of the walk: the crosscut table of every node, in id order, a join
    that is no node failing as the walk's does."""
    ids = range(len(diagram.ranks))
    for x, mu in zip(ids, poset.mobius_from(diagram, ids)):
        if None in mu:
            return False, {"x": diagram.name(x), "y": None}
        bad = [y for y, value in mu.items() if value not in (-1, 0, 1)]
        if bad:
            y = min(bad, key=lambda t: (diagram.ranks[t], t))
            return False, {"x": diagram.name(x), "y": diagram.name(y), "mu": mu[y]}
    return True, None


def repeated_subset_joins(diagram):
    """The nodes x two of whose sets of upper covers have one join, the
    joins found by `oracle.join_by_search` (the empty set's is x)."""
    closure = order_by_closure(diagram)
    found = []
    for x, up in enumerate(diagram.up):
        joins = []
        for size in range(len(up) + 1):
            for subset in combinations(up, size):
                join = x
                for cover in subset:
                    join = join_by_search(closure, join, cover)
                joins.append(join)
        if len(set(joins)) < len(joins):
            found.append(x)
    return found


def cover_join_mutant(monkeypatch, n, x, pair, subset):
    """`_column_joins` with the join of covers `pair` of node x (by
    position among its covers) the true join of its covers `subset`, x
    for the empty set."""
    diagram = build(n)
    up = diagram.up[x]
    wrong = x
    for k in subset:
        (wrong,) = diagram.joins([wrong], [up[k]])
    monkeypatch.setattr(lanes, "_column_joins",
                        wrong_lanes_at(diagram, up[pair[0]], up[pair[1]], wrong))
    return diagram


def forced_decline(monkeypatch):
    """`checks.kappa_matching` with one declined node: `mobius` proves
    nothing by it and walks the crosscut of every node."""
    kappa_matching = checks.kappa_matching
    monkeypatch.setattr(checks, "kappa_matching", lambda columns, proof:
                        (kappa_matching(columns, proof)[0], 1))


class TestMobiusCheck:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_mobius_calls_no_pair_kernel(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("mobius called a per-pair kernel")

        monkeypatch.setattr(kernels, "join_flat", refuse)
        monkeypatch.setattr(kernels, "meet_flat", refuse)
        assert checks.run_check("mobius", n).passed


class TestCoverIndependence:
    """The claim of `mobius` against the subset joins of the bound
    search and the crosscut of every node, the mutants its walk meets
    where the certificate declines, and the fast path."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_declines_where_subset_joins_repeat(self, n):
        # no node has two sets of covers with one join, as the law
        # predicts, and the certificate of the law declines no node
        diagram = build(n)
        assert repeated_subset_joins(diagram) == []
        assert checks.kappa_matching(diagram.columns, proved(diagram))[1] == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lanes_agree_with_the_diagram(self, n):
        # the check on the columns and the crosscut of every node on the
        # diagram: the same verdict, with no node walked
        report = checks.run_check("mobius", n)
        assert (report.passed, report.witness) == mobius_by_scan(build(n)) == (True, None)
        assert report.stats["crosscut"] == 0

    def test_non_word_lane_declines_every_node(self, monkeypatch):
        # a lane that is no word's vector: the certificate proves nothing,
        # and the crosscut of every node passes the real order
        columns = corrupt_lane(monkeypatch, 5, 7)
        proof = certificates.prove(5, columns, poset._inversion_columns(5))
        assert proof is None and checks.kappa_matching(columns, proof) is None
        report = checks.run_check("mobius", 5)
        assert (report.passed, report.witness) == mobius_by_scan(build(5))
        assert report.stats == {"crosscut": 24}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_edge_starts_are_the_first_edges(self, n):
        diagram = build(n)
        expected = [bisect_left(diagram.lo, t) for t in range(len(diagram.ranks) + 1)]
        assert list(diagram.starts) == expected
        mutant = with_edge(diagram, diagram.bottom, diagram.top)
        assert list(mutant.starts) == [
            bisect_left(mutant.lo, t) for t in range(len(mutant.ranks) + 1)]

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_up_and_edges_above_scan_the_edges(self, n):
        # on build(n) and on a mutant whose first edge repeats, node t's
        # covers and edge positions are those a scan of lo finds
        diagram = build(n)
        mutant = with_edge(diagram, diagram.lo[0], diagram.hi[0])
        for d in (diagram, mutant):
            for t in range(len(d.ranks)):
                above = [k for k, lo in enumerate(d.lo) if lo == t]
                assert list(d.edges_above(t)) == above
                assert d.up[t] == tuple(d.hi[k] for k in above)
        assert mutant.up[0] == (diagram.hi[0], *diagram.up[0])

    def test_dependent_cover_the_crosscut_passes(self, monkeypatch):
        # at n = 5 the one node of three covers: the join of its first two
        # is that of all three, a node above both, so cover 3 lies below
        # it.  Where the certificate declines, the crosscut of every node
        # finds the values in range: x's table holds that join twice,
        # with opposite signs
        x = next(t for t, up in enumerate(build(5).up) if len(up) == 3)
        diagram = cover_join_mutant(monkeypatch, 5, x, (0, 1), (0, 1, 2))
        forced_decline(monkeypatch)
        report = checks.run_check("mobius", 5)
        assert (report.passed, report.witness) == mobius_by_scan(diagram) == (True, None)
        assert report.stats == {"irreducibles": 11, "declined": 1, "crosscut": 24}

    def test_dependent_cover_the_crosscut_fails(self, monkeypatch):
        # at n = 6, node (1,6,4,2,5,3) of four covers: the join of its
        # last two by step, its second and last by id, is that of all
        # four, so its first two by step lie below the others'.  Where
        # the certificate declines, the crosscut counts that join once
        # for each of the two sets, +2
        x = [build(6).name(t) for t in range(120)].index("(1,6,4,2,5,3)")
        diagram = cover_join_mutant(monkeypatch, 6, x, (1, 3), (0, 1, 2, 3))
        forced_decline(monkeypatch)
        expected = mobius_by_scan(diagram)
        assert expected[1]["x"] == diagram.name(x) and expected[1]["mu"] == 2
        report = checks.run_check("mobius", 6)
        assert (report.passed, report.witness) == expected
        assert report.stats["crosscut"] == 120

    def test_join_below_its_sides_declines_the_block(self, monkeypatch):
        # the join of covers 1 and 2 of the n = 5 node is the node itself,
        # below both: where the certificate declines, the crosscut counts
        # the node twice, +2
        x = next(t for t, up in enumerate(build(5).up) if len(up) == 3)
        diagram = cover_join_mutant(monkeypatch, 5, x, (0, 1), ())
        forced_decline(monkeypatch)
        expected = mobius_by_scan(diagram)
        assert expected[1] == {"x": diagram.name(x), "y": diagram.name(x), "mu": 2}
        report = checks.run_check("mobius", 5)
        assert (report.passed, report.witness) == expected
        assert report.stats["crosscut"] == 24

    def test_join_that_is_no_node_fails(self, monkeypatch):
        # 0x7f in the last column of the first pair of every batch, its
        # highest lane: that join is no node.  Where the certificate
        # declines, the crosscut meets the join and fails, naming its
        # node; before, the crosscut counted the lookup's None as one
        # more join, and the check passed
        column_joins = lanes._column_joins

        def corrupt(n, size, us, vs):
            out = column_joins(n, size, us, vs)
            first = 8 * (size - 1)
            return [*out[:-1], out[-1] & ~(0xff << first) | 0x7f << first] if size else out

        monkeypatch.setattr(lanes, "_column_joins", corrupt)
        forced_decline(monkeypatch)
        expected = mobius_by_scan(build(5))
        assert not expected[0] and expected[1]["y"] is None
        report = checks.run_check("mobius", 5)
        assert (report.passed, report.witness) == expected
        assert report.stats["crosscut"] == 24

    @pytest.mark.parametrize("n", range(1, 9))
    def test_passing_run_takes_the_fast_path(self, monkeypatch, n):
        # no crosscut table, no row looked up, and no cover read off a
        # diagram: vec_index, mobius_from and up are refused
        def refuse(*args):
            raise AssertionError("a passing run left the fast path")

        monkeypatch.setattr(poset, "mobius_from", refuse)
        monkeypatch.setattr(poset.HasseDiagram, "vec_index", property(refuse))
        monkeypatch.setattr(poset.HasseDiagram, "up", property(refuse))
        report = checks.run_check("mobius", n)
        assert report.passed and report.stats["crosscut"] == 0


def kappa_by_masks(diagram, dual=False):
    """For each node j of one lower cover j_, the greatest element of its
    kappa set {x : x >= j_, x not >= j}, by the up-sets and down-sets:
    the element of the set of highest rank, asserted to lie above the
    whole set.  With `dual`, the least element of the dual set of each
    node of one upper cover."""
    covers, up, down, sign = (diagram.up, diagram.below_mask, diagram.above_mask, -1) if dual \
        else (diagram.down, diagram.above_mask, diagram.below_mask, 1)
    kappa = {}
    for j, near in enumerate(covers):
        if len(near) == 1:
            rest = up(near[0]) & ~up(j)
            g = max(bits(rest), key=lambda x: sign * diagram.ranks[x])
            assert rest & ~down(g) == 0
            kappa[j] = g
    return kappa


def step_of(diagram, lower, upper):
    """The coordinate k in which the rows of the two nodes differ."""
    (k,) = [c for c, (a, b) in enumerate(zip(diagram.rows[lower], diagram.rows[upper])) if a != b]
    return k


class TestKappaMatching:
    """The certificate of `semidistributive` against the mask walk's
    kappa, its blocks, the fast path and a forced decline."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_irreducibles_are_the_one_cover_nodes(self, n):
        # J and M are the nodes of one lower and of one upper cover, each
        # with the coordinate of that cover's step
        diagram = build(n)
        proof = proved(diagram)
        joins, meets = proof.joins, proof.meets
        assert joins == {t: step_of(diagram, near[0], t)
                         for t, near in enumerate(diagram.down) if len(near) == 1}
        assert meets == {t: step_of(diagram, t, near[0])
                         for t, near in enumerate(diagram.up) if len(near) == 1}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_direction_is_that_half_of_both(self, n):
        # the steps up of the lanes and those of the dual lanes, the steps
        # down, hold each node's covers in that direction
        diagram = build(n)
        for steps, near in zip(block_steps(n, diagram.columns), (diagram.up, diagram.down)):
            assert [sum(column >> 8 * t & 1 for column in steps) for t in range(len(near))] == \
                list(map(len, near))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partners_are_the_kappas(self, n):
        # each j's one R-partner is kappa(j) by the masks, and each m's one
        # R-partner the dual kappa(m)
        diagram = build(n)
        proof = proved(diagram)
        joins, meets = proof.joins, proof.meets
        partners = certificates.kappa_partners(diagram.columns, joins, meets)
        kappa, dual = kappa_by_masks(diagram), kappa_by_masks(diagram, dual=True)
        assert partners == {j: [g] for j, g in kappa.items()}
        assert {m: j for j, (m,) in partners.items()} == dual
        assert certificates.kappa_matching(diagram.columns, proof) == (len(joins), 0)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_irreducibles_count(self, n):
        report = checks.run_check("semidistributive", n)
        assert report.passed
        assert report.stats == {"irreducibles": 2 ** (n - 1) - n, "declined": 0}

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocks_find_the_same_lanes(self, monkeypatch, block):
        # the n = 7 lanes cut in blocks, one lane, a few lanes and an
        # uneven hundred: the proof, its irreducibles among it, is that
        # of one block
        columns, inversions = poset._vector_columns(7), poset._inversion_columns(7)
        whole = certificates.prove(7, columns, inversions)
        monkeypatch.setattr(certificates, "LANE_BLOCK", block)
        assert certificates.prove(7, columns, inversions) == whole

    def test_many_steps_leave_the_next_lane_alone(self):
        # lane 0 has a step in each of 40 coordinates, lane 1 only in the
        # last: nothing of lane 0's carries into lane 1's step
        lanes = [1] * 39 + [1 | 1 << 8]
        assert list(certificates._single_steps(lanes, 2)) == [(1, 39)]

    def test_columns_not_the_words_decline(self):
        # two nodes of rank 2 swap rows: every lane is still a word's
        # vector, but not the word of its id, so nothing is proved
        diagram = build(5)
        x, y = [t for t, rank in enumerate(diagram.ranks) if rank == 2][:2]
        rows = list(diagram.rows)
        rows[x], rows[y] = rows[y], rows[x]
        columns = tuple(map(bytes, zip(*rows)))
        proof = certificates.prove(5, columns, poset._inversion_columns(5))
        assert proof is None and certificates.kappa_matching(columns, proof) is None

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_unmatched_m_declines(self, monkeypatch, n):
        # the first j dropped from J: every j left has its one partner,
        # but that j's partner now has none, so the certificate declines
        # on that m alone, and the walk passes the real order
        prove = certificates.prove

        def without_first_j(n, columns, inversions):
            proof = prove(n, columns, inversions)
            return proof._replace(joins=dict(list(proof.joins.items())[1:]))

        monkeypatch.setattr(checks, "prove", without_first_j)
        report = checks.run_check("semidistributive", n)
        assert report.passed
        assert report.stats == {"irreducibles": 2 ** (n - 1) - n - 1, "declined": 1}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_passing_run_builds_nothing(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("a passing run built the order or its masks")

        monkeypatch.setattr(checks, "_diagram", refuse)
        monkeypatch.setattr(poset.HasseDiagram, "at_least", property(refuse))
        report = checks.run_check("semidistributive", n)
        assert report.passed and report.stats["declined"] == 0
        assert report.phases["build"] == report.phases["masks"] == 0

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_forced_decline_walks_the_masks(self, monkeypatch, n):
        # the up-steps in coordinate (1, 3) dropped: some m leave M and
        # others enter it, so some lanes lose their partner and the
        # certificate declines.  The walk on the masks then decides, and
        # the real order passes
        walked = []
        check = poset.check_semidistributive
        changed_steps(monkeypatch, n, 0, lambda up: [
            steps * (k != 1) for k, steps in enumerate(up)])
        monkeypatch.setattr(poset, "check_semidistributive",
                            lambda diagram: walked.append(diagram.n) or check(diagram))
        report = checks.run_check("semidistributive", n)
        assert report.passed and report.witness is None
        assert report.stats["declined"] > 0 and walked == [n]
        assert report.phases["masks"] > 0


class TestProvedBlocks:
    """No step lane is read off lanes not yet proved the words' vectors."""

    def test_readers_stop_at_the_first_unproved_block(self, monkeypatch):
        # n = 5 in blocks of 7 lanes, lane 9 of block 1 no word's vector:
        # the pass declines, and its folds are handed the defects of
        # block 0 alone, as the lanes where they are 0 and 1 for each
        # direction and as the inversion bits, and no lane of block 1,
        # the first that fails
        monkeypatch.setattr(certificates, "LANE_BLOCK", 7)
        columns = corrupt_lane(monkeypatch, 5, 9)
        ones = int.from_bytes(b"\1" * 7, "little")
        defects = lanes._word_bits(5, 7, [int.from_bytes(column[:7], "little")
                                          for column in columns])
        handed = []
        step_lanes, stray_steps = certificates._step_lanes, certificates._stray_steps
        monkeypatch.setattr(certificates, "_step_lanes", lambda n, ones, zero, one: step_lanes(
            n, ones, *(handed.append(list(given)) or handed[-1] for given in (zero, one))))
        monkeypatch.setattr(certificates, "_stray_steps", lambda n, bits, up:
                            handed.append(list(bits)) or stray_steps(n, bits, up))
        proof = certificates.prove(5, columns, poset._inversion_columns(5))
        assert proof is None
        holes = [ones - d for d in defects]
        assert sorted(handed) == sorted([defects, holes, holes, defects, defects[:6]])
        assert not certificates.covers_certified(build(5), proof)
        assert certificates.kappa_matching(columns, proof) is None


def flips(t):
    """Every flip of t, found by trying `mutate` on every 4-set."""
    for quad in combinations(range(1, t.n + 1), 4):
        try:
            yield vectors.mutate(t, quad)
        except QuadNotFlippableError:
            pass


class TestTriangulationCheck:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_agrees_with_direct_loops(self, n):
        vs = [AdmittedVector(n, kernels.word_vector(w)) for w in build(n).words]
        tris = vectors.all_triangulations(n)
        for t in tris:
            for v in vs:
                assert vectors.triangulation_sum(v, t) == v[1, n]
        flipped = [f for t in tris for f in flips(t)]
        assert len(flipped) == len(tris) * (n - 3)  # one per interior diagonal
        for f in flipped:
            for v in vs:
                assert vectors.triangulation_sum(v, f) == v[1, n]
        report = checks.run_check("triangulation", n)
        assert report.passed and report.witness is None
        assert report.stats == {"triangulations": len(tris), "vectors": len(vs)}

    @pytest.mark.parametrize("triple", [(1, 2, 3), (2, 3, 4), (2, 4, 5)])
    def test_corrupted_delta_fails(self, monkeypatch, triple):
        # (1, 2, 3) lies in the fan from vertex 1, the other two do not;
        # the defect of the triple is raised from 0 to 1 in one lane,
        # the first whose triangulation holds it, so the lane stays
        # admitted and only its sum is wrong
        tris = vectors.all_triangulations(5)
        columns = poset._vector_columns(5)
        defects = dict(lanes._triple_defects(5, {
            pair: int.from_bytes(column, "little")
            for pair, column in zip(combinations(range(1, 6), 2), columns)}))
        k = next(k for k in range(24) if triple in tris[k % 5].triangles
                 and not defects[triple] >> 8 * k & 0xff)
        flat = tuple(column[k] for column in columns)
        triple_defects = lanes._triple_defects

        def off_by_one(n, v):
            for t, d in triple_defects(n, v):
                yield t, d + (t == triple) * lane_bit(k)

        delta = vectors.delta

        def off_by_one_at_k(v, i, j, k):
            return delta(v, i, j, k) + (v.flat == flat and (i, j, k) == triple)

        monkeypatch.setattr(lanes, "_triple_defects", off_by_one)
        monkeypatch.setattr(vectors, "delta", off_by_one_at_k)
        report = checks.run_check("triangulation", 5)
        assert not report.passed
        assert set(report.witness) == {"vector", "triangles"}
        assert triple in report.witness["triangles"]
        assert report.witness == {"vector": AdmittedVector(5, flat).rows(),
                                  "triangles": sorted(tris[k % 5].triangles)}
        assert triangulation_by_vectors(5) == (False, report.witness)

    def test_flip_that_loses_a_triangle_fails(self, monkeypatch):
        mutate = vectors.mutate

        def lossy(t, quad):
            flipped = mutate(t, quad)
            return SimpleNamespace(n=t.n, triangles=flipped.triangles
                                   - {max(flipped.triangles)})

        monkeypatch.setattr(vectors, "mutate", lossy)
        report = checks.run_check("triangulation", 6)
        assert not report.passed
        assert report.witness == {"flip": min(checks._flip_quads(
            vectors.all_triangulations(6)[0]))}

    def test_refused_flip_fails(self, monkeypatch):
        def refuse(t, quad):
            raise QuadNotFlippableError("refused")

        monkeypatch.setattr(vectors, "mutate", refuse)
        report = checks.run_check("triangulation", 5)
        assert not report.passed and list(report.witness) == ["flip"]
        assert len(report.witness["flip"]) == 4


def corrupted_columns(n, corruptions):
    """`poset._vector_columns(n)` with entry (i, j) of node k set to x,
    for each (i, j, k, x) of corruptions."""
    pairs = list(combinations(range(1, n + 1), 2))
    columns = [bytearray(column) for column in poset._vector_columns(n)]
    for i, j, k, x in corruptions:
        columns[pairs.index((i, j))][k] = x
    return tuple(map(bytes, columns))


def entry(n, flat, i, j):
    return flat[list(combinations(range(1, n + 1), 2)).index((i, j))]


def defect(n, flat, i, j, k):
    return entry(n, flat, i, k) - entry(n, flat, i, j) - entry(n, flat, j, k)


def adjacent_alone(n, flat):
    """(i, i + 1, 1) for the first i where that entry set to 1 leaves
    every triple defect 0 or 1, so only the adjacent test fails; else
    None."""
    pairs = list(combinations(range(1, n + 1), 2))
    for i in range(1, n):
        set_ = list(flat)
        set_[pairs.index((i, i + 1))] = 1
        if all(defect(n, set_, *t) in (0, 1) for t in combinations(range(1, n + 1), 3)):
            return i, i + 1, 1
    return None


# Each kind picks a node, lowest or highest, and one entry of it to
# corrupt, as (i, j, value), or None where the node does not qualify.
TRIANGULATION_MUTANTS = {
    "adjacent nonzero": lambda n, flat: (2, 3, 1),
    "adjacent alone": adjacent_alone,
    "defect 2": lambda n, flat: (1, 3, 2) if defect(n, flat, 1, 2, 3) == 1 else None,
    "defect -1": lambda n, flat: (
        (1, n, entry(n, flat, 1, n) - 1)
        if entry(n, flat, 1, n) and 0 in [defect(n, flat, 1, j, n) for j in range(2, n)]
        else None),
}


class TestLaneChecks:
    """The lane forms of `triangulation` and `interval` against their
    per-node references, on the true columns and on corrupted lanes."""

    @pytest.mark.parametrize("name", ["triangulation", "interval"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_builds_no_object(self, monkeypatch, name, n):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} built a diagram or an element")

        monkeypatch.setattr(poset, "build", forbidden)
        monkeypatch.setattr(checks, "_diagram", forbidden)
        for cls in (AdmittedVector, affine.AffineWindow, CircularPermutation):
            monkeypatch.setattr(cls, "__post_init__", forbidden)
        report = checks.run_check(name, n)
        assert report.passed and report.witness is None
        assert report.phases["build"] == report.phases["masks"] == 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_with_the_node_loops(self, n):
        assert triangulation_by_vectors(n) == (True, None)
        assert interval_by_cycles(n) == (True, None)
        for name in ("triangulation", "interval"):
            report = checks.run_check(name, n)
            assert (report.passed, report.witness) == (True, None)

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("which", ["lowest", "highest"])
    @pytest.mark.parametrize("kind", sorted(TRIANGULATION_MUTANTS))
    def test_triangulation_mutant(self, monkeypatch, n, which, kind):
        flats = list(zip(*poset._vector_columns(n)))
        lanes = range(len(flats)) if which == "lowest" else reversed(range(len(flats)))
        k = next(k for k in lanes if TRIANGULATION_MUTANTS[kind](n, flats[k]))
        i, j, x = TRIANGULATION_MUTANTS[kind](n, flats[k])
        columns = corrupted_columns(n, [(i, j, k, x)])
        monkeypatch.setattr(poset, "_vector_columns", lambda n, inversions=None: columns)
        expected = outcome(triangulation_by_vectors, n)
        assert check_outcome("triangulation", n) == expected
        message, error_kind, where = expected
        if kind.startswith("adjacent"):
            assert error_kind == "adjacent_nonzero"
        else:
            assert error_kind == "delta_out_of_range"
            assert f"defect {kind.split()[1]}," in message

    def test_triangulation_lowest_corrupted_lane(self, monkeypatch):
        # a defect of 2 in one node and an adjacent entry in the next:
        # the lower lane is reported
        flats = list(zip(*poset._vector_columns(6)))
        k = next(k for k in range(90, 120) if defect(6, flats[k], 1, 2, 3) == 1)
        columns = corrupted_columns(6, [(1, 3, k, 2), (4, 5, k + 1, 1)])
        monkeypatch.setattr(poset, "_vector_columns", lambda n, inversions=None: columns)
        expected = outcome(triangulation_by_vectors, 6)
        assert expected[1:] == ("delta_out_of_range", (1, 2, 3))
        assert check_outcome("triangulation", 6) == expected

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(list(combinations(range(1, 6), 2))),
                              st.integers(0, 23), st.integers(0, 255)),
                    min_size=1, max_size=3))
    def test_triangulation_on_any_corrupted_bytes(self, corruptions):
        # bytes from 0x80 up and several lanes at once: the lowest
        # failing lane still shows its own failure
        columns = corrupted_columns(5, [(i, j, k, x) for (i, j), k, x in corruptions])
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(poset, "_vector_columns", lambda n, inversions=None: columns)
            assert check_outcome("triangulation", 5) == outcome(triangulation_by_vectors, 5)

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("stage", sorted(LANE_MUTANTS))
    def test_interval_mutant(self, monkeypatch, n, where, stage):
        size = len(poset._prefix_ranks(n))
        k = {"first": 0, "middle": size // 2, "last": size - 1}[where]
        NODE_MUTANTS[stage](monkeypatch, n, k)
        LANE_MUTANTS[stage](monkeypatch, n, k)
        expected = {"stage": stage, "cycle": poset.node_name(n, k)}
        assert interval_by_cycles(n) == (False, expected)
        report = checks.run_check("interval", n)
        assert (report.passed, report.witness) == (False, expected)

    @pytest.mark.parametrize("stages, lanes, expected", [
        (("grading", "window roundtrip"), (3, 10), ("grading", 3)),
        (("grading", "projection"), (7, 7), ("projection", 7)),
        (("vector roundtrip", "window roundtrip"), (11, 11), ("window roundtrip", 11))])
    def test_interval_lowest_lane_first_stage(self, monkeypatch, stages, lanes, expected):
        for stage, k in zip(stages, lanes):
            NODE_MUTANTS[stage](monkeypatch, 5, k)
            LANE_MUTANTS[stage](monkeypatch, 5, k)
        stage, k = expected
        witness = {"stage": stage, "cycle": poset.node_name(5, k)}
        assert interval_by_cycles(5) == (False, witness)
        assert checks.run_check("interval", 5).witness == witness


class TestWitnessBranches:
    """One mutant at n = 5 per failure branch that no other test reaches;
    every node a witness names is the `word_text` of that node's word."""

    @staticmethod
    def text(t):
        return word_text(build(5).words[t])

    def test_mobius_value_out_of_range_fails(self, monkeypatch):
        x, top = 3, build(5).top
        mobius_from = poset.mobius_from
        forced_decline(monkeypatch)  # so that the crosscut runs at x

        def wrong_at_x(diagram, ts):
            ts = list(ts)
            for t, mu in zip(ts, mobius_from(diagram, ts)):
                if t == x:
                    mu[top] = 2
                yield mu

        monkeypatch.setattr(poset, "mobius_from", wrong_at_x)
        report = checks.run_check("mobius", 5)
        assert not report.passed
        assert report.witness == {"x": self.text(x), "y": self.text(top), "mu": 2}
        assert (report.passed, report.witness) == mobius_by_scan(build(5))
        assert report.stats["crosscut"] == 24

    def test_wrong_meet_of_one_pair_fails(self, monkeypatch):
        # every join is right, so the pair (bottom, top) fails at its meet
        diagram = build(5)
        bottom, top = diagram.bottom, diagram.top
        monkeypatch.setattr(lanes, "_column_meets",
                            wrong_lanes_at(diagram, bottom, top, top, meet=True))
        report = checks.run_check("lattice", 5)
        assert not report.passed
        assert report.witness == {"op": "meet",
                                  "pair": [self.text(bottom), self.text(top)]}

    def test_wrong_partition_order_fails_young(self, monkeypatch):
        monkeypatch.setattr(poset, "partition_leq", lambda lam, mu: True)
        report = checks.run_check("young", 5)
        assert not report.passed and report.stats == {}
        assert report.witness == {"n": 5, "k": 2, "rank_sizes": {0: 1, 1: 1, 2: 2},
                                  "partition_counts": {0: 1, 1: 1, 2: 2}}

    def test_triangulation_missing_a_triangle_fails(self, monkeypatch):
        all_triangulations = vectors.all_triangulations
        first = all_triangulations(5)[0]
        lossy = SimpleNamespace(n=5, triangles=first.triangles - {max(first.triangles)})
        monkeypatch.setattr(vectors, "all_triangulations",
                            lambda n: [lossy] + all_triangulations(n)[1:])
        report = checks.run_check("triangulation", 5)
        assert not report.passed
        assert report.witness == {"triangles": sorted(lossy.triangles)}

    @pytest.mark.parametrize("module, name, stage", [
        (vectors, "vector_to_cycle", "vector roundtrip"),
        (affine, "project", "projection"),
        (affine, "length", "grading")])
    def test_interval_stage_fails_on_the_top(self, monkeypatch, module, name, stage):
        # every earlier stage passes on the top cycle, and every stage
        # passes on the cycles before it: the per-cycle loop with
        # `module.name` wrong on the top, and the lane form with the
        # lane input of that stage wrong in the top lane
        top = CircularPermutation.largest(5)
        top_vector = cycle_to_vector(top)
        top_inputs = (top_vector, affine.window_of_vector(top_vector))
        right = getattr(module, name)

        def wrong_for_top(arg):
            if arg not in top_inputs:
                return right(arg)
            return right(arg) + 1 if name == "length" else CircularPermutation.smallest(5)

        monkeypatch.setattr(module, name, wrong_for_top)
        expected = {"stage": stage, "cycle": self.text(build(5).top)}
        assert interval_by_cycles(5) == (False, expected)
        LANE_MUTANTS[stage](monkeypatch, 5, build(5).top)
        report = checks.run_check("interval", 5)
        assert not report.passed
        assert report.witness == expected


class TestModularityLanes:
    """`modularity` on the columns and the ranks: the scan's failures
    that leave it undecided, each failing the check."""

    @staticmethod
    def first_pair(n):
        """The first pair the scan reads: the first row x with a node
        after x and not above it, and that node."""
        columns, size = poset._vector_columns(n), factorial(n - 1)
        up_set = lanes._lane_up_sets(n, columns)
        for x in range(size):
            row = bits(((1 << size) - (1 << (x + 1))) & ~up_set(x))
            if row:
                return x, row[0]

    @pytest.mark.parametrize("n", [4, 6])
    def test_join_that_is_no_node_fails(self, monkeypatch, n):
        # 0x7f in the last column of the highest lane of every batch, its
        # first pair: that join, and the meet of the dual lanes, is no
        # node.  The scan names the pair; before, it looked the join up
        # as a node and indexed the ranks with None
        column_joins = lanes._column_joins

        def corrupt(n, size, us, vs):
            out = column_joins(n, size, us, vs)
            first = 8 * (size - 1)
            return [*out[:-1], out[-1] & ~(0xff << first) | 0x7f << first]

        monkeypatch.setattr(lanes, "_column_joins", corrupt)
        x, y = self.first_pair(n)
        report = checks.run_check("modularity", n)
        assert not report.passed
        assert report.witness == {"x": poset.node_name(n, x), "y": poset.node_name(n, y)}

    @pytest.mark.parametrize("n", [4, 6])
    def test_rank_not_the_coordinate_sum_fails(self, monkeypatch, n):
        wrong_rank(monkeypatch, n, 3)
        report = checks.run_check("modularity", n)
        assert not report.passed
        assert report.witness == {"node": poset.node_name(n, 3),
                                  "rank": poset._prefix_ranks(n)[3]}

    @pytest.mark.parametrize("n", [4, 6])
    def test_columns_not_the_words_fail(self, monkeypatch, n):
        corrupt_lane(monkeypatch, n, 5)
        report = checks.run_check("modularity", n)
        assert (report.passed, report.witness) == (False, {"n": n, "nodes_are_words": False})


def built_diagrams(monkeypatch):
    """The diagrams that `checks._diagram` returns from now on, in order."""
    built = []

    def keeping_build(n, ranks):
        built.append(poset._diagram(n, ranks))
        return built[-1]

    monkeypatch.setattr(checks, "_diagram", keeping_build)
    return built


@lru_cache(maxsize=None)
def per_node_steps(n):
    """The reference of `certificates.prove`'s steps, one node at a time:
    for each node of order n in id order, the coordinates k whose
    x - e_k is admitted, then for each those whose x + e_k is."""
    return tuple([tuple(k for k in range(len(row)) if kernels.is_admitted_flat(
        n, tuple(x + sign * (c == k) for c, x in enumerate(row)))) for row in build(n).rows]
        for sign in (-1, 1))


GRADING_KEYS = ["n", "nodes", "expected_nodes", "max_rank", "expected_max_rank",
                "rank_image_complete", "unit_increments", "bottoms", "tops"]


def without_lane_steps(monkeypatch, n, lane, side):
    """The order-n steps with node `lane`'s steps up (side 0) or down
    (side 1) dropped (`changed_steps`)."""
    changed_steps(monkeypatch, n, side, lambda steps: [
        column & ~(0xff << 8 * lane) for column in steps])


class TestGradingLanes:
    """`grading` on the columns and the ranks, against mutants of each
    of its inputs; every failure reports the keys of the per-edge scan."""

    def test_wrong_rank_in_one_lane(self, monkeypatch):
        prefix_ranks = poset._prefix_ranks
        lane = prefix_ranks(5).index(2)
        monkeypatch.setattr(poset, "_prefix_ranks", lambda n: [
            rank + (t == lane) for t, rank in enumerate(prefix_ranks(n))])
        report = checks.run_check("grading", 5)
        assert not report.passed and list(report.witness) == GRADING_KEYS
        assert report.witness["unit_increments"] is False
        assert report.witness["rank_image_complete"] is True
        assert (report.witness["bottoms"], report.witness["tops"]) == (1, 1)

    def test_triple_defect_of_two(self, monkeypatch):
        # the bottom's v[1,3] raised to 2: D(1, 2, 3) is 2 in lane 0
        vector_columns = poset._vector_columns

        def raised(n, inversions=None):
            columns = list(vector_columns(n, inversions))
            columns[1] = b"\2" + columns[1][1:]
            return tuple(columns)
        monkeypatch.setattr(poset, "_vector_columns", raised)
        report = checks.run_check("grading", 5)
        assert not report.passed and list(report.witness) == GRADING_KEYS
        assert report.witness["unit_increments"] is False
        assert (report.witness["bottoms"], report.witness["tops"]) == (None, None)

    @pytest.mark.parametrize("side, lane, key", [(0, 0, "tops"), (1, 23, "bottoms")])
    def test_second_end_lane(self, monkeypatch, side, lane, key):
        # the bottom (node 0) loses its steps up, or the top (node 23)
        # its steps down
        without_lane_steps(monkeypatch, 5, lane, side)
        report = checks.run_check("grading", 5)
        assert not report.passed and list(report.witness) == GRADING_KEYS
        assert report.witness["unit_increments"] is True
        assert report.witness[key] == 2

    @pytest.mark.parametrize("block", [1, 7, 32, 1 << 15])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_step_ends_are_the_lanes_without_steps(self, monkeypatch, n, block):
        # every field of the proof against the nodes one at a time, in
        # blocks of `block` lanes: a node has no step down (up) iff no
        # x - e_k (x + e_k) is admitted, counts[k] nodes have x + e_k,
        # J and M are the nodes of one lower and of one upper cover, and
        # every step is a cyclic predecessor's
        monkeypatch.setattr(certificates, "LANE_BLOCK", block)
        diagram = build(n)
        down, up = per_node_steps(n)
        proof = proved(diagram)
        assert (proof.bottoms, proof.tops) == (down.count(()), up.count(())) == (1, 1)
        assert proof.counts == [sum(k in found for found in up)
                                for k in range(len(diagram.columns))]
        assert certificates.steps_are_covers(diagram, certificates.unit_steps(diagram),
                                             proof.counts)
        assert proof.joins == {t: found[0] for t, found in enumerate(down) if len(found) == 1} \
            == {t: step_of(diagram, near[0], t)
                for t, near in enumerate(diagram.down) if len(near) == 1}
        assert proof.meets == {t: found[0] for t, found in enumerate(up) if len(found) == 1} \
            == {t: step_of(diagram, t, near[0])
                for t, near in enumerate(diagram.up) if len(near) == 1}
        assert proof.cyclic

    def test_young_fails_on_an_up_set_missing_one_element(self, monkeypatch):
        # every up-set loses the truncation's last node by id, which
        # lies above the bottom, so the bottom's cut up-set is wrong
        lane_up_sets = lanes._lane_up_sets
        ranks = poset._prefix_ranks(5)
        dropped = max(t for t, rank in enumerate(ranks) if rank <= 2)
        monkeypatch.setattr(lanes, "_lane_up_sets", lambda n, columns: (
            lambda x, up_set=lane_up_sets(n, columns): up_set(x) & ~(1 << dropped)))
        report = checks.run_check("young", 5)
        assert not report.passed and report.stats == {}
        assert list(report.witness) == ["n", "k", "rank_sizes", "partition_counts"]


class TestSharedDiagram:
    @pytest.mark.parametrize("n", [5, 7])
    def test_run_all_builds_the_order_once(self, monkeypatch, n):
        built = []

        def counting_build(order, ranks):
            built.append(order)
            return poset._diagram(order, ranks)

        monkeypatch.setattr(checks, "_diagram", counting_build)
        # eulerian counts order n + 1 and builds no diagram, and grading
        # reads the columns and ranks alone, so lattice builds it; no
        # passing check computes a threshold mask
        reports = checks.run_all(n)
        assert built == [n]
        assert all(r.passed for r in reports)
        assert [r.check for r in reports if r.phases["build"]] == ["lattice"]
        assert [r.check for r in reports if r.phases["masks"]] == []

    def test_run_all_computes_the_ranks_once(self, monkeypatch):
        # grading computes them, and lattice's diagram takes the run's
        calls = []
        prefix_ranks = poset._prefix_ranks

        def counting_ranks(n):
            calls.append(n)
            return prefix_ranks(n)

        monkeypatch.setattr(poset, "_prefix_ranks", counting_ranks)
        reports = checks.run_all(6)
        assert all(r.passed for r in reports)
        assert calls == [6]
        assert [r.check for r in reports if r.phases["build"]] == ["lattice"]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_passing_run_all_reads_no_mask(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("a passing check read a threshold mask")

        monkeypatch.setattr(poset.HasseDiagram, "at_least", property(refuse))
        assert all(r.passed for r in checks.run_all(n))

    @pytest.mark.parametrize("name", ["eulerian", "semidistributive", "young",
                                      "triangulation", "interval", "alpha", "grading",
                                      "mobius", "modularity"])
    def test_check_builds_no_diagram(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError(f"{name} built a diagram")

        monkeypatch.setattr(checks, "_diagram", refuse)
        monkeypatch.setattr(poset, "build", refuse)
        # alpha at every order whose potential the walk's is tested
        # against, mobius and modularity at every order their references
        # are
        wide = ("alpha", "mobius", "modularity")
        for n in range(1, 9) if name in wide else (1, 2, 6):
            report = checks.run_check(name, n)
            assert report.passed and report.phases["build"] == report.phases["masks"] == 0

    def test_run_all_shares_the_columns_and_edge_offsets(self, monkeypatch):
        # the vector columns are computed once, for the shared diagram,
        # and read by every check that reads them; no passing check reads
        # the edge offsets, which only the walks do
        computed, counted = [], []
        vector_columns, starts = poset._vector_columns, poset.HasseDiagram.starts.func
        monkeypatch.setattr(poset, "_vector_columns",
                            lambda n, inversions=None: computed.append(n) or
                            vector_columns(n, inversions))
        counting = cached_property(lambda diagram: counted.append(diagram.n) or starts(diagram))
        counting.__set_name__(poset.HasseDiagram, "starts")
        monkeypatch.setattr(poset.HasseDiagram, "starts", counting)
        assert all(r.passed for r in checks.run_all(6))
        assert computed == [6] and counted == []

    def test_inversion_columns_computed_once_a_run(self, monkeypatch):
        # the inversion bits the columns are joined from are the ones the
        # certificates and interval read: once in run_all, at most once
        # in each run_check, lattice's included
        computed = []
        inversion_columns = poset._inversion_columns
        monkeypatch.setattr(poset, "_inversion_columns",
                            lambda n: computed.append(n) or inversion_columns(n))
        assert all(r.passed for r in checks.run_all(6))
        assert computed == [6]
        for name in checks.CHECKS:
            computed.clear()
            assert checks.run_check(name, 6).passed
            assert computed == ([] if name == "eulerian" else [6])

    def test_kappa_matching_computed_once_a_run(self, monkeypatch):
        # mobius and semidistributive read one matching of the run's
        # columns: once in run_all, once in each run_check that reads it
        computed = []
        kappa_matching = checks.kappa_matching
        monkeypatch.setattr(checks, "kappa_matching", lambda columns, proof:
                            computed.append(len(columns)) or kappa_matching(columns, proof))
        assert all(r.passed for r in checks.run_all(6))
        assert computed == [15]
        for name in checks.CHECKS:
            computed.clear()
            assert checks.run_check(name, 6).passed
            assert computed == ([15] if name in ("mobius", "semidistributive") else [])

    def test_block_pass_runs_once_a_run(self, monkeypatch):
        # grading, lattice, mobius, semidistributive, modularity and alpha
        # read one proof of the run's columns: once in run_all, once in
        # each run_check of those, and none in the others
        computed = []
        prove = checks.prove
        monkeypatch.setattr(checks, "prove", lambda n, columns, inversions:
                            computed.append(n) or prove(n, columns, inversions))
        assert all(r.passed for r in checks.run_all(6))
        assert computed == [6]
        proved = ("grading", "lattice", "mobius", "semidistributive", "modularity", "alpha")
        for name in checks.CHECKS:
            computed.clear()
            assert checks.run_check(name, 6).passed
            assert computed == ([6] if name in proved else [])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_run_all_matches_run_check(self, n):
        for shared in checks.run_all(n):
            alone = checks.run_check(shared.check, n)
            assert (shared.passed, shared.witness, shared.stats) == \
                (alone.passed, alone.witness, alone.stats)

    def test_run_all_builds_no_object_view(self, monkeypatch):
        built = built_diagrams(monkeypatch)
        assert all(r.passed for r in checks.run_all(6))
        (diagram,) = built
        assert not {"words", "nodes", "edges"} & vars(diagram).keys()

    @pytest.mark.parametrize("name, view", [
        ("modularity", "words"), ("triangulation", "vec_index"),
        ("triangulation", "rows"), ("semidistributive", "rows"),
        ("semidistributive", "vec_index"), ("young", "rows"), ("young", "vec_index"),
        ("lattice", "vec_index")])
    def test_check_leaves_a_view_unbuilt(self, monkeypatch, name, view):
        built = built_diagrams(monkeypatch)
        assert checks.run_check(name, 6).passed
        assert not any(view in vars(diagram) for diagram in built)

    def test_phases_split_elapsed(self):
        for report in checks.run_all(6):
            assert list(report.phases) == ["build", "masks", "scan"]
            assert min(report.phases.values()) >= 0
            assert sum(report.phases.values()) == pytest.approx(report.elapsed)
