"""Brute-force references against the production implementations."""

import random
from itertools import product

import pytest

from cyclat import kernels, poset
from cyclat.affine import AffineWindow, interval_top, length, window_of_vector
from cyclat.errors import NotALatticeError
from cyclat.oracle import (
    ClosureOrder,
    affine_length_by_enumeration,
    descents_by_scan,
    diagram_by_search,
    enumerate_admitted,
    generator_ball,
    join_by_search,
    meet_by_search,
    mobius_by_chain_count,
    mobius_by_recursion,
    order_by_closure,
)
from cyclat.perm import CircularPermutation, DescentLabel
from cyclat.poset import Comparison, bits, build, compare, eulerian, mobius_from
from cyclat.vectors import AdmittedVector, cycle_to_vector, join, meet


class TestDiagramBySearch:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_build_matches_search(self, n):
        diagram = build(n)
        words, edges, ranks = diagram_by_search(n)
        assert diagram.words == words
        assert tuple(zip(diagram.lo, diagram.hi, zip(diagram.r, diagram.s))) == edges
        assert diagram.ranks == ranks

    @pytest.mark.parametrize("n", [1, 3, 5, 6])
    def test_object_views_match_search(self, n):
        diagram = build(n)
        words, edges, _ = diagram_by_search(n)
        size = len(words)
        assert diagram.nodes == tuple(CircularPermutation(w) for w in words)
        assert diagram.edges == tuple((a, b, DescentLabel(r, s))
                                      for a, b, (r, s) in edges)
        assert diagram.up == tuple(tuple(sorted(b for a, b, _ in edges if a == t))
                                   for t in range(size))
        assert diagram.down == tuple(tuple(sorted(a for a, b, _ in edges if b == t))
                                     for t in range(size))
        vecs = [cycle_to_vector(CircularPermutation(w)).flat for w in words]
        assert diagram.columns == tuple(map(bytes, zip(*vecs)))


class TestClosureOrder:
    def test_tiny_order(self):
        closure = order_by_closure(build(3))
        comparable = sum(closure.leq(x, y)
                         for x in range(2) for y in range(2))
        assert comparable == 3  # two reflexive pairs plus bottom < top

    def test_matches_vector_comparison(self):
        diagram = build(5)
        closure = order_by_closure(diagram)
        for x in range(24):
            for y in range(24):
                expected = compare(diagram.nodes[x], diagram.nodes[y]) in \
                    (Comparison.LT, Comparison.EQ)
                assert closure.leq(x, y) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diagram_above_is_the_up_set(self, n):
        diagram = build(n)
        closure = order_by_closure(diagram)
        size = len(diagram.words)
        for x in range(size):
            assert bits(diagram.above_mask(x)) == \
                [z for z in range(size) if closure.leq(x, z)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_threshold_masks_are_the_closure(self, n):
        diagram = build(n)
        closure = order_by_closure(diagram)
        for x in range(len(diagram.words)):
            assert diagram.above_mask(x) == closure.above[x]
            assert diagram.below_mask(x) == closure.below[x]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_extremes_bound_everything(self, n):
        diagram = build(n)
        closure = order_by_closure(diagram)
        for t in range(len(diagram.nodes)):
            assert closure.leq(diagram.bottom, t)
            assert closure.leq(t, diagram.top)


class TestBoundSearch:
    def test_matches_recursive_bounds_exhaustively(self):
        diagram = build(5)
        closure = order_by_closure(diagram)
        vecs = [kernels.word_vector(w) for w in diagram.words]
        rev = {v: t for t, v in enumerate(vecs)}
        for x in range(24):
            u = AdmittedVector(5, vecs[x])
            for y in range(24):
                v = AdmittedVector(5, vecs[y])
                assert join_by_search(closure, x, y) == rev[join(u, v).flat]
                assert meet_by_search(closure, x, y) == rev[meet(u, v).flat]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_diagram_bounds_match_search(self, n):
        diagram = build(n)
        closure = order_by_closure(diagram)
        xs, ys = zip(*product(range(len(diagram.words)), repeat=2))
        assert diagram.bounds(xs, ys) == \
            ([join_by_search(closure, x, y) for x, y in zip(xs, ys)],
             [meet_by_search(closure, x, y) for x, y in zip(xs, ys)])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_upset_equality_is_the_bound_search(self, n):
        # the node whose up-set is the common up-set of x and y, if any,
        # is the least upper bound; dually for down-sets
        diagram = build(n)
        closure = order_by_closure(diagram)
        size = len(diagram.words)
        ups = [diagram.above_mask(t) for t in range(size)]
        downs = [diagram.below_mask(t) for t in range(size)]
        by_up = {mask: t for t, mask in enumerate(ups)}
        by_down = {mask: t for t, mask in enumerate(downs)}
        for x in range(size):
            for y in range(size):
                assert by_up.get(ups[x] & ups[y]) == join_by_search(closure, x, y)
                assert by_down.get(downs[x] & downs[y]) == meet_by_search(closure, x, y)

    def test_known_supremum(self):
        diagram = build(5)
        closure = order_by_closure(diagram)
        x = diagram.words.index(CircularPermutation.from_text("(1,4,2,3,5)").canon)
        y = diagram.words.index(CircularPermutation.from_text("(1,3,4,2,5)").canon)
        top = join_by_search(closure, x, y)
        assert diagram.nodes[top].as_text() == "(1,3,5,4,2)"

    def test_bottom_is_neutral(self):
        diagram = build(4)
        closure = order_by_closure(diagram)
        for t in range(len(diagram.nodes)):
            assert join_by_search(closure, t, diagram.bottom) == t
            assert meet_by_search(closure, t, diagram.top) == t


def _join_by_enumeration(closure, x, y):
    # the bound search before the masks, kept verbatim as a reference
    common = closure.above[x] & closure.above[y]
    if not common:
        raise NotALatticeError(f"nodes {x} and {y} have no upper bound")
    candidates = [z for z in _bits(common)]
    best = min(candidates, key=lambda z: (closure.ranks[z], z))
    if not all(closure.leq(best, z) for z in candidates):
        raise NotALatticeError(f"no least upper bound for {x}, {y}")
    return best


def _meet_by_enumeration(closure, x, y):
    size = len(closure.above)
    candidates = [z for z in range(size)
                  if closure.leq(z, x) and closure.leq(z, y)]
    if not candidates:
        raise NotALatticeError(f"nodes {x} and {y} have no lower bound")
    best = max(candidates, key=lambda z: (closure.ranks[z], -z))
    if not all(closure.leq(z, best) for z in candidates):
        raise NotALatticeError(f"no greatest lower bound for {x}, {y}")
    return best


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Two minimal nodes 0, 1 below two maximal nodes 2, 3: every pair of
# opposite nodes has two incomparable minimal upper (maximal lower) bounds.
_BOWTIE = ClosureOrder(above=(0b1101, 0b1110, 0b0100, 0b1000),
                       below=(0b0001, 0b0010, 0b0111, 0b1011),
                       layers=(0b0011, 0b1100),
                       ranks=(0, 0, 1, 1))


class TestMaskSearch:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_enumeration_search(self, n):
        closure = order_by_closure(build(n))
        size = len(closure.above)
        for x in range(size):
            for y in range(size):
                assert join_by_search(closure, x, y) == _join_by_enumeration(closure, x, y)
                assert meet_by_search(closure, x, y) == _meet_by_enumeration(closure, x, y)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_masks_describe_the_order(self, n):
        diagram = build(n)
        closure = order_by_closure(diagram)
        size = len(diagram.words)
        for x in range(size):
            for y in range(size):
                assert bool(closure.below[y] >> x & 1) == closure.leq(x, y)
        for rank, layer in enumerate(closure.layers):
            assert list(_bits(layer)) == [t for t in range(size)
                                          if diagram.ranks[t] == rank]

    @pytest.mark.parametrize("search, x, y", [
        (join_by_search, 0, 1), (_join_by_enumeration, 0, 1),
        (meet_by_search, 2, 3), (_meet_by_enumeration, 2, 3)])
    def test_bowtie_has_no_least_bound(self, search, x, y):
        with pytest.raises(NotALatticeError, match="no (least|greatest)"):
            search(_BOWTIE, x, y)

    def test_bowtie_missing_bounds(self):
        with pytest.raises(NotALatticeError, match="no upper bound"):
            join_by_search(_BOWTIE, 2, 3)
        with pytest.raises(NotALatticeError, match="no lower bound"):
            meet_by_search(_BOWTIE, 0, 1)


def nonzero_mobius(closure, x):
    """The nonzero values mu(x, .) of the defining recursion."""
    return {y: value for y, value in mobius_by_recursion(closure, x).items() if value}


class TestMobiusCrosscut:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_crosscut_matches_recursion(self, n):
        diagram = build(n)
        closure = order_by_closure(diagram)
        ids = range(len(diagram.words))
        for x, mu in zip(ids, mobius_from(diagram, ids)):
            assert mu == nonzero_mobius(closure, x)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("n", [5, 6])
    def test_blocks_match_recursion(self, monkeypatch, n, chunk):
        # one id a block, and blocks of 7 ids, which divide neither 24
        # nor 120, so the last block is short
        monkeypatch.setattr(poset, "_ROW_CHUNK", chunk)
        diagram = build(n)
        closure = order_by_closure(diagram)
        size = len(diagram.words)
        assert list(mobius_from(diagram, range(size))) == \
            [nonzero_mobius(closure, x) for x in range(size)]

    def test_rows_come_in_the_order_given(self):
        diagram = build(5)
        closure = order_by_closure(diagram)
        assert list(mobius_from(diagram, [5, 0, 3])) == \
            [nonzero_mobius(closure, x) for x in (5, 0, 3)]


class TestMobiusByChains:
    def test_matches_recursion_exhaustively_small(self):
        from cyclat.poset import mobius
        diagram = build(4)
        closure = order_by_closure(diagram)
        for x in range(len(diagram.nodes)):
            for y in range(len(diagram.nodes)):
                if closure.leq(x, y):
                    assert mobius_by_chain_count(closure, x, y) == \
                        mobius(diagram, x, y)

    def test_matches_recursion_on_small_intervals(self):
        from cyclat.poset import interval, mobius
        diagram = build(5)
        closure = order_by_closure(diagram)
        checked = 0
        for x in range(len(diagram.nodes)):
            for y in range(len(diagram.nodes)):
                if closure.leq(x, y) and len(interval(diagram, x, y)) <= 10:
                    assert mobius_by_chain_count(closure, x, y) == \
                        mobius(diagram, x, y)
                    checked += 1
        assert checked > 100


class TestDescentScan:
    def test_tiny_histogram(self):
        assert descents_by_scan(3) == {0: 1, 1: 4, 2: 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_totals_and_rows(self, n):
        from math import factorial
        hist = descents_by_scan(n)
        assert sum(hist.values()) == factorial(n)
        assert hist == {k: eulerian(n, k) for k in range(max(n, 1))
                        if eulerian(n, k)}


class TestAdmittedEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts(self, n):
        from math import factorial
        assert len(enumerate_admitted(n)) == factorial(n - 1)

    def test_all_entries_validate(self):
        for flat in enumerate_admitted(5):
            AdmittedVector(5, flat)  # must not raise

    def test_matches_cycle_images(self):
        from cyclat.perm import all_cycles
        images = {cycle_to_vector(s).flat for s in all_cycles(5)}
        assert images == set(enumerate_admitted(5))


class TestAffineLength:
    def test_identity(self):
        assert affine_length_by_enumeration(tuple(range(1, 6))) == 0

    def test_top_window(self):
        assert affine_length_by_enumeration((-2, 1, 4, 7)) == 4

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_interval_lengths(self, n):
        for flat in enumerate_admitted(n):
            window = window_of_vector(AdmittedVector(n, flat))
            assert affine_length_by_enumeration(window.entries) == length(window)

    def test_matches_on_random_windows(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 6)
            residues = list(range(1, n + 1))
            rng.shuffle(residues)
            offsets = [rng.randint(-2, 2) for _ in range(n - 1)]
            offsets.append(-sum(offsets))
            window = AffineWindow(
                tuple(r + n * k for r, k in zip(residues, offsets)))
            assert affine_length_by_enumeration(window.entries) == length(window)


class TestGeneratorBall:
    def test_lengths_match_bfs_distance(self):
        ball = generator_ball(4, 7)
        assert len(ball) > 100
        for entries, dist in ball.items():
            assert length(AffineWindow(entries)) == dist

    def test_top_of_small_interval_is_close(self):
        ball = generator_ball(3, 3)
        assert ball[interval_top(3).entries] == 1
