"""Acceptance suite: the ten structural criteria, at their stated scales.

Each test prints one PASS line (visible with `pytest -s`) and enforces
its time budget.  Everything here is exact; no tolerances.

Run:  pytest tests/test_acceptance.py -v
"""

import random
import time
from math import comb, factorial

import pytest

from cyclat import affine, kernels, oracle, poset, vectors
from cyclat.perm import CircularPermutation, all_cycles
from cyclat.poset import build
from cyclat.vectors import AdmittedVector


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"


def test_01_grading():
    with Budget("1 grading n=4..7", 10.0):
        for n in (4, 5, 6, 7):
            diagram = build(n)
            assert len(diagram.nodes) == factorial(n - 1)
            assert sorted(set(diagram.ranks)) == list(range(comb(n, 3) + 1))
            for lo, hi, _ in diagram.edges:
                assert diagram.ranks[hi] == diagram.ranks[lo] + 1


def test_02_isomorphism_triple():
    with Budget("2 isomorphism triple n<=6", 30.0):
        for n in range(1, 7):
            sigmas = list(all_cycles(n))
            vecs = [vectors.cycle_to_vector(s) for s in sigmas]
            wins = [affine.window_of_vector(v) for v in vecs]
            # mutual inverses, both directions
            for s, v, w in zip(sigmas, vecs, wins):
                assert vectors.vector_to_cycle(v) == s
                assert affine.vector_of_window(w) == v
                assert v.rank == s.rank == affine.length(w)
            if n >= 2:
                admitted = {flat for flat in oracle.enumerate_admitted(n)}
                assert {v.flat for v in vecs} == admitted
            # order preservation across all three incarnations
            for a in range(len(sigmas)):
                for b in range(len(sigmas)):
                    forward = vecs[a] <= vecs[b]
                    assert affine.weak_leq(wins[a], wins[b]) == forward
                    assert (poset.compare(sigmas[a], sigmas[b])
                            in (poset.Comparison.LT, poset.Comparison.EQ)) \
                        == forward


def test_03_lattice_against_oracle():
    with Budget("3 lattice vs closure search n=5 exhaustive, n=7 sampled", 60.0):
        diagram = build(5)
        closure = oracle.order_by_closure(diagram)
        vecs = [kernels.word_vector(w) for w in diagram.words]
        rev = {v: t for t, v in enumerate(vecs)}
        for x in range(24):
            u = AdmittedVector(5, vecs[x])
            for y in range(24):
                v = AdmittedVector(5, vecs[y])
                assert oracle.join_by_search(closure, x, y) == \
                    rev[vectors.join(u, v).flat]
                assert oracle.meet_by_search(closure, x, y) == \
                    rev[vectors.meet(u, v).flat]

        diagram = build(7)
        closure = oracle.order_by_closure(diagram)
        vecs = [kernels.word_vector(w) for w in diagram.words]
        rev = {v: t for t, v in enumerate(vecs)}
        rng = random.Random(424242)
        size = len(diagram.nodes)
        for _ in range(10_000):
            x, y = rng.randrange(size), rng.randrange(size)
            u = AdmittedVector(7, vecs[x])
            v = AdmittedVector(7, vecs[y])
            assert oracle.join_by_search(closure, x, y) == \
                rev[vectors.join(u, v).flat]
            assert oracle.meet_by_search(closure, x, y) == \
                rev[vectors.meet(u, v).flat]


def test_04_eulerian():
    with Budget("4 Eulerian descent histograms n<=7", 30.0):
        for n in range(1, 8):
            row = {k: poset.eulerian(n, k) for k in range(n)
                   if poset.eulerian(n, k)}
            assert poset.verify_descent_distribution(n)["cover_histogram"] == row
            assert oracle.descents_by_scan(n) == row
            assert poset.eulerian(n, 1) == 2 ** n - n - 1


def test_05_mobius_values():
    with Budget("5 Moebius values in {-1,0,1} n<=6", 60.0):
        for n in range(2, 7):
            diagram = build(n)
            for mu in poset.mobius_from(diagram, range(len(diagram.nodes))):
                for value in mu.values():
                    assert value in (-1, 0, 1)


def test_06_semidistributive_not_modular():
    with Budget("6 semidistributivity and the modularity witness n=5", 30.0):
        diagram = build(5)
        assert poset.check_semidistributive(diagram)["pass"]
        report = poset.check_modular(5, diagram.ranks, diagram.columns)
        assert not report["modular"]
        u = vectors.cycle_to_vector(CircularPermutation.from_text("(1,4,2,3,5)"))
        v = vectors.cycle_to_vector(CircularPermutation.from_text("(1,3,4,2,5)"))
        lo, hi = vectors.meet(u, v), vectors.join(u, v)
        assert vectors.vector_to_cycle(lo).as_text() == "(1,4,2,5,3)"
        assert vectors.vector_to_cycle(hi).as_text() == "(1,3,5,4,2)"
        assert [u.rank, v.rank, lo.rank, hi.rank] == [4, 4, 3, 6]
        assert u.rank + v.rank != lo.rank + hi.rank


def test_07_triangulation_sums():
    with Budget("7 triangulation sums n=5 exhaustive, n=7 sampled", 60.0):
        tris5 = vectors.all_triangulations(5)
        assert len(tris5) == 5
        for flat in oracle.enumerate_admitted(5):
            v = AdmittedVector(5, flat)
            for t in tris5:
                assert vectors.triangulation_sum(v, t) == v[1, 5]

        tris7 = vectors.all_triangulations(7)
        assert len(tris7) == 42
        rng = random.Random(77)
        sample = []
        for _ in range(500):
            rest = list(range(2, 8))
            rng.shuffle(rest)
            sample.append(vectors.cycle_to_vector(CircularPermutation((1, *rest))))
        for v in sample:
            for t in tris7:
                assert vectors.triangulation_sum(v, t) == v[1, 7]

        # flips preserve the sum
        from itertools import combinations
        from cyclat.errors import QuadNotFlippableError
        for t in tris7[:10]:
            for quad in combinations(range(1, 8), 4):
                try:
                    flipped = vectors.mutate(t, quad)
                except QuadNotFlippableError:
                    continue
                for v in sample[:25]:
                    assert vectors.triangulation_sum(v, flipped) == v[1, 7]


def test_08_young_limit():
    with Budget("8 Young truncation isomorphism (2,4),(3,6),(4,8)", 120.0):
        for k, n in ((2, 4), (3, 6), (4, 8)):
            report = poset.check_young_limit(n, k, poset._prefix_ranks(n),
                                             poset._vector_columns(n))
            assert report["pass"], report


def test_09_path_conjugator():
    with Budget("9 conjugator chain independence and maximal values", 60.0):
        # exhaustive at n=4: every comparable pair, every saturated chain
        diagram = build(4)

        def chains(lo, hi):
            if lo == hi:
                yield []
                return
            for l2, up, label in diagram.edges:
                if l2 == lo and diagram.leq(up, hi):
                    for rest in chains(up, hi):
                        yield [label] + rest

        for x in range(len(diagram.nodes)):
            for y in range(len(diagram.nodes)):
                if not diagram.leq(x, y):
                    continue
                alphas = {poset.path_conjugator(diagram.nodes[x], c).alpha
                          for c in chains(x, y)}
                assert len(alphas) == 1

        # sampled at n=5: 1000 random pairs, two random chains each
        diagram = build(5)
        rng = random.Random(5150)
        size = len(diagram.nodes)

        def random_chain(lo, hi):
            chain, current = [], lo
            while current != hi:
                options = [(label, up) for l2, up, label in diagram.edges
                           if l2 == current and diagram.leq(up, hi)]
                label, current = rng.choice(options)
                chain.append(label)
            return chain

        for _ in range(1000):
            x = rng.randrange(size)
            above = [y for y in range(size) if diagram.leq(x, y)]
            y = rng.choice(above)
            r1 = poset.path_conjugator(diagram.nodes[x], random_chain(x, y))
            r2 = poset.path_conjugator(diagram.nodes[x], random_chain(x, y))
            assert r1.alpha == r2.alpha and r1.target == r2.target

        # maximal-chain conjugators
        for n, expected in ((5, (5, 4, 3, 2, 1)), (6, (3, 2, 1, 6, 5, 4))):
            diagram = build(n)
            result = poset.path_conjugator(
                diagram.nodes[diagram.bottom], poset.maximal_chain(diagram))
            assert result.alpha == expected
            assert result.target == CircularPermutation.largest(n)


def test_10_interval_top():
    with Budget("10 top windows and involution parity", 10.0):
        assert affine.interval_top(4) == affine.AffineWindow((-2, 1, 4, 7))
        assert affine.interval_top(5) == affine.AffineWindow((-5, -1, 3, 7, 11))
        for n in (1, 2):
            assert affine.interval_top(n) == affine.AffineWindow.identity(n)
        for n in range(3, 9):
            fc = affine.interval_top(n)
            squared = affine.compose(fc, fc)
            assert (squared == affine.AffineWindow.identity(n)) == (n % 2 == 1)
