"""Admitted vectors: validation, the bijection, lattice ops, deltas,
triangulations."""

import random
from itertools import combinations

import pytest

from cyclat.errors import (
    InvalidTriangulationError,
    NotAdmittedError,
    NotAnInversionSetError,
    PtolemyViolationError,
    QuadNotFlippableError,
)
from cyclat.oracle import enumerate_admitted
from cyclat.perm import CircularPermutation, all_cycles, covers_up
from cyclat.vectors import (
    AdmittedVector,
    DeltaSequence,
    Triangulation,
    all_triangulations,
    complement_vector,
    cycle_to_vector,
    delta,
    delta_sequence_of,
    fan_triangulation,
    invert_vector,
    join,
    meet,
    mutate,
    triangulation_sum,
    validate,
    vector_from_deltas,
    vector_to_cycle,
    word_from_inversion_set,
)
from cyclat import perm


def all_vectors(n):
    return [AdmittedVector(n, flat) for flat in enumerate_admitted(n)]


class TestValidation:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_vector_is_admitted(self, n):
        assert AdmittedVector.zero(n).rank == 0

    def test_maximum_is_admitted_and_unique_maximum(self):
        for n in range(2, 6):
            top = AdmittedVector.maximum(n)
            assert all(v <= top for v in all_vectors(n))

    def test_delta_out_of_range_diagnostic(self):
        with pytest.raises(NotAdmittedError) as info:
            validate([[0, 2], [0]])
        assert info.value.kind == "delta_out_of_range"
        assert info.value.where == (1, 2, 3)

    def test_adjacent_nonzero_diagnostic(self):
        with pytest.raises(NotAdmittedError) as info:
            validate([[1, 1], [0]])
        assert info.value.kind == "adjacent_nonzero"
        assert info.value.where == (1, 2)

    def test_negative_entry_diagnostic(self):
        with pytest.raises(NotAdmittedError) as info:
            validate([[0, -1], [0]])
        assert info.value.kind == "negative"
        assert str(info.value) == "negative entry"

    def test_rows_roundtrip(self):
        v = AdmittedVector.maximum(5)
        assert AdmittedVector.from_rows(v.rows()) == v

    def test_ragged_rows_rejected(self):
        with pytest.raises(NotAdmittedError):
            AdmittedVector.from_rows([[0, 0], [0, 0], [0]])

    @pytest.mark.parametrize("entry", [1.0, 1.5, True, "1", None])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(NotAdmittedError) as info:
            AdmittedVector.from_rows([[0, entry], [0]])
        assert info.value.kind == "not_integer"
        assert info.value.where == (1, 3)


def _check_admitted_by_pair(n, flat):
    # the per-pair validation before rows, as a reference
    from cyclat.kernels import pair_index
    for i in range(1, n):
        t = pair_index(n, i, i + 1)
        if flat[t] != 0:
            raise NotAdmittedError(
                f"adjacent entry v[{i},{i + 1}] = {flat[t]} must be 0",
                kind="adjacent_nonzero", where=(i, i + 1))
    if any(x < 0 for x in flat):
        raise NotAdmittedError("negative entry", kind="negative", where=(n,))
    for i, j, k in combinations(range(1, n + 1), 3):
        d = (flat[pair_index(n, i, k)]
             - flat[pair_index(n, i, j)]
             - flat[pair_index(n, j, k)])
        if d not in (0, 1):
            raise NotAdmittedError(
                f"triple ({i},{j},{k}) has defect {d}, must be 0 or 1",
                kind="delta_out_of_range", where=(i, j, k))


def _vector_to_cycle_by_delta(v):
    # the per-pair inverse before rows, as a reference
    inv = {(i, j)
           for i, j in combinations(range(2, v.n + 1), 2)
           if delta(v, 1, i, j) == 1}
    return CircularPermutation(word_from_inversion_set(v.n, inv))


def _node_vectors(n):
    """Every admitted vector of order n: by the oracle up to 6, as the
    diagram's node columns at 7 and 8."""
    if n <= 6:
        return enumerate_admitted(n)
    from cyclat.poset import _vector_columns
    return list(zip(*_vector_columns(n)))


def _corruptions(n, flat):
    """Single-entry corruptions of `flat`: a nonzero adjacent entry, a
    negative entry, and defects 2 and -1 at the first and last triples."""
    from cyclat.kernels import pair_index

    def put(i, j, x):
        out = list(flat)
        out[pair_index(n, i, j)] = x
        return tuple(out)

    if n < 2:
        return
    yield put(1, 2, 1)
    yield put(n - 1, n, 2)
    yield put(1, n, -1)
    for i, j, k in ((1, 2, 3), (n - 2, n - 1, n)) if n >= 3 else ():
        ij, jk = flat[pair_index(n, i, j)], flat[pair_index(n, j, k)]
        yield put(i, k, ij + jk + 2)
        yield put(i, k, ij + jk - 1)


def _outcome(check, n, flat):
    try:
        check(n, flat)
    except NotAdmittedError as e:
        return type(e), e.kind, e.where, str(e)
    return None


class TestRowsAgainstPairs:
    """`_check_admitted` and `vector_to_cycle` read rows; the per-pair
    forms they replaced must agree with them on every input."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_check_admitted(self, n):
        from cyclat.vectors import _check_admitted
        kinds = set()
        for flat in _node_vectors(n):
            assert _outcome(_check_admitted, n, flat) is None
            assert _outcome(_check_admitted_by_pair, n, flat) is None
            for bad in _corruptions(n, flat):
                got = _outcome(_check_admitted, n, bad)
                assert got == _outcome(_check_admitted_by_pair, n, bad)
                kinds.add(got[1])
        if n >= 3:
            assert kinds == {"adjacent_nonzero", "negative", "delta_out_of_range"}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_vector_to_cycle(self, n):
        for flat in _node_vectors(n):
            v = AdmittedVector(n, flat)
            assert vector_to_cycle(v) == _vector_to_cycle_by_delta(v)


class TestDelta:
    def test_zero_vector_has_zero_deltas(self):
        v = AdmittedVector.zero(5)
        assert all(delta(v, i, j, k) == 0
                   for i, j, k in combinations(range(1, 6), 3))

    def test_maximum_has_all_one_deltas(self):
        v = AdmittedVector.maximum(6)
        assert all(delta(v, i, j, k) == 1
                   for i, j, k in combinations(range(1, 7), 3))

    def test_degenerate_indices_give_zero(self):
        v = AdmittedVector.maximum(5)
        assert delta(v, 2, 2, 4) == 0
        assert delta(v, 2, 4, 4) == 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_quadruple_exchange_relation(self, n):
        for v in all_vectors(n):
            for i, j, k, l in combinations(range(1, n + 1), 4):
                assert (delta(v, i, j, k) + delta(v, i, k, l)
                        == delta(v, i, j, l) + delta(v, j, k, l))


class TestBijection:
    def test_bottom_maps_to_zero(self):
        for n in range(1, 7):
            v = cycle_to_vector(CircularPermutation.smallest(n))
            assert v == AdmittedVector.zero(n)

    def test_top_maps_to_maximum(self):
        for n in range(2, 7):
            v = cycle_to_vector(CircularPermutation.largest(n))
            assert v == AdmittedVector.maximum(n)

    def test_known_six_cycle(self):
        v = cycle_to_vector(CircularPermutation.from_text("(1,6,4,2,3,5)"))
        assert v.rows() == [[0, 0, 1, 1, 2], [0, 0, 1, 1], [0, 1, 1], [0, 0], [0]]

    def test_known_six_cycle_against_chain_descent(self):
        # walk down to the bottom; the vector must be the sum of the edge
        # labels' unit vectors, independently of the walk
        from cyclat.perm import covers_down
        sigma = CircularPermutation.from_text("(1,6,4,2,3,5)")
        totals = {}
        current = sigma
        while True:
            downs = perm.covers_down(current)
            if not downs:
                break
            label, current = downs[0]
            totals[label.as_pair()] = totals.get(label.as_pair(), 0) + 1
        assert current == CircularPermutation.smallest(6)
        v = cycle_to_vector(sigma)
        for (i, j), count in totals.items():
            assert v[i, j] == count
        assert sum(totals.values()) == v.rank

    @pytest.mark.parametrize("n", range(1, 8))
    def test_roundtrip_from_cycles(self, n):
        for s in all_cycles(n):
            assert vector_to_cycle(cycle_to_vector(s)) == s

    @pytest.mark.parametrize("n", [4, 5])
    def test_roundtrip_from_vectors(self, n):
        for v in all_vectors(n):
            assert cycle_to_vector(vector_to_cycle(v)) == v

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_vector_counts_match_cycle_counts(self, n):
        from math import factorial
        if n <= 5:
            assert len(all_vectors(n)) == factorial(n - 1)
        assert len({cycle_to_vector(s) for s in all_cycles(n)}) == factorial(n - 1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_rank_transport(self, n):
        for s in all_cycles(n):
            assert cycle_to_vector(s).rank == s.rank

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cover_transport(self, n):
        for s in all_cycles(n):
            v = cycle_to_vector(s)
            for label, t in covers_up(s):
                w = cycle_to_vector(t)
                diff = [b - a for a, b in zip(v.flat, w.flat)]
                assert sum(diff) == 1
                from cyclat.kernels import pair_index
                assert diff[pair_index(n, label.r, label.s)] == 1


class TestWordFromInversionSet:
    def test_empty_set_gives_identity(self):
        assert word_from_inversion_set(5, set()) == (1, 2, 3, 4, 5)

    def test_full_tail_set_gives_top_word(self):
        n = 5
        inv = {(i, j) for i in range(2, n + 1) for j in range(i + 1, n + 1)}
        word = word_from_inversion_set(n, inv)
        assert word == (1, 5, 4, 3, 2)

    def test_single_inversion(self):
        word = word_from_inversion_set(4, {(2, 3)})
        assert word == (1, 3, 2, 4)
        assert perm.inversion_bit(word, 2, 3) == 1
        assert all(perm.inversion_bit(word, i, j) == 0
                   for i, j in combinations(range(1, 5), 2) if (i, j) != (2, 3))

    def test_transitivity_violation_rejected(self):
        with pytest.raises(NotAnInversionSetError):
            word_from_inversion_set(3, {(1, 2), (2, 3)})

    def test_betweenness_violation_rejected(self):
        with pytest.raises(NotAnInversionSetError):
            word_from_inversion_set(3, {(1, 3)})

    def test_all_words_reconstruct(self):
        from itertools import permutations
        for letters in permutations(range(1, 6)):
            inv = {(i, j) for i, j in combinations(range(1, 6), 2)
                   if perm.inversion_bit(letters, i, j)}
            assert word_from_inversion_set(5, inv) == letters


class TestLattice:
    def test_bottom_is_neutral_for_join(self):
        zero = AdmittedVector.zero(5)
        for v in all_vectors(5):
            assert join(v, zero) == v

    def test_top_is_neutral_for_meet(self):
        top = AdmittedVector.maximum(5)
        for v in all_vectors(5):
            assert meet(v, top) == v

    def test_known_join_meet(self):
        u = cycle_to_vector(CircularPermutation.from_text("(1,4,2,3,5)"))
        v = cycle_to_vector(CircularPermutation.from_text("(1,3,4,2,5)"))
        assert vector_to_cycle(join(u, v)).as_text() == "(1,3,5,4,2)"
        assert vector_to_cycle(meet(u, v)).as_text() == "(1,4,2,5,3)"
        assert [u.rank, v.rank, meet(u, v).rank, join(u, v).rank] == [4, 4, 3, 6]

    def test_strict_and_reversed_comparisons(self):
        zero, top = AdmittedVector.zero(5), AdmittedVector.maximum(5)
        u = cycle_to_vector(CircularPermutation.from_text("(1,4,2,3,5)"))
        v = cycle_to_vector(CircularPermutation.from_text("(1,3,4,2,5)"))
        assert top >= zero and zero >= zero and not zero >= top
        assert zero < top and not zero < zero and not top < zero
        assert top > zero and not top > top and not zero > top
        # u and v are incomparable
        assert not (u >= v or v >= u or u < v or v < u or u > v or v > u)

    @pytest.mark.parametrize("n", [4, 5])
    def test_join_meet_are_bounds(self, n):
        vs = all_vectors(n)
        for u in vs:
            for v in vs:
                hi, lo = join(u, v), meet(u, v)
                assert u <= hi and v <= hi
                assert lo <= u and lo <= v

    @pytest.mark.parametrize("n", [4, 5])
    def test_lattice_axioms(self, n):
        vs = all_vectors(n)
        rng = random.Random(7)
        for u in vs:
            assert join(u, u) == u and meet(u, u) == u
            for v in vs:
                assert join(u, v) == join(v, u)
                assert meet(u, v) == meet(v, u)
                assert join(u, meet(u, v)) == u    # absorption
                assert meet(u, join(u, v)) == u
        for _ in range(300):
            u, v, w = (rng.choice(vs) for _ in range(3))
            assert join(join(u, v), w) == join(u, join(v, w))
            assert meet(meet(u, v), w) == meet(u, meet(v, w))


class TestAntiAutomorphisms:
    def test_endpoints(self):
        for n in range(2, 7):
            assert invert_vector(AdmittedVector.zero(n)) == AdmittedVector.maximum(n)
            assert complement_vector(AdmittedVector.zero(n)) == \
                AdmittedVector.maximum(n)

    @pytest.mark.parametrize("op", [invert_vector, complement_vector])
    def test_involution(self, op):
        for v in all_vectors(5):
            assert op(op(v)) == v

    def test_matches_cycle_inversion(self):
        for s in all_cycles(5):
            assert cycle_to_vector(perm.invert(s)) == \
                invert_vector(cycle_to_vector(s))

    def test_matches_letter_complement(self):
        for s in all_cycles(5):
            assert cycle_to_vector(perm.complement(s)) == \
                complement_vector(cycle_to_vector(s))

    def test_composition_is_index_reversal(self):
        n = 5
        for v in all_vectors(n):
            w = invert_vector(complement_vector(v))
            assert all(w[i, j] == v[n + 1 - j, n + 1 - i]
                       for i, j in combinations(range(1, n + 1), 2))

    @pytest.mark.parametrize("op", [invert_vector, complement_vector])
    def test_order_reversing(self, op):
        vs = all_vectors(5)
        for u in vs:
            for v in vs:
                assert (u <= v) == (op(v) <= op(u))


class TestCoverCharacterization:
    """A unit bump is admitted exactly when the local delta pattern holds."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_up_bump(self, n):
        from cyclat.kernels import is_admitted_flat, pair_index
        for v in all_vectors(n):
            for i, j in combinations(range(1, n + 1), 2):
                bumped = list(v.flat)
                bumped[pair_index(n, i, j)] += 1
                if j == i + 1:
                    # adjacent coordinates must stay zero
                    assert not is_admitted_flat(n, tuple(bumped))
                    continue
                predicted = (
                    all(delta(v, i, p, j) == 0 for p in range(i + 1, j))
                    and all(delta(v, p, i, j) == 1 for p in range(1, i))
                    and all(delta(v, i, j, p) == 1 for p in range(j + 1, n + 1)))
                assert is_admitted_flat(n, tuple(bumped)) == predicted

    @pytest.mark.parametrize("n", [4, 5])
    def test_down_bump(self, n):
        from cyclat.kernels import is_admitted_flat, pair_index
        for v in all_vectors(n):
            for i, j in combinations(range(1, n + 1), 2):
                if v[i, j] == 0:
                    continue
                lowered = list(v.flat)
                lowered[pair_index(n, i, j)] -= 1
                predicted = (
                    all(delta(v, i, p, j) == 1 for p in range(i + 1, j))
                    and all(delta(v, p, i, j) == 0 for p in range(1, i))
                    and all(delta(v, i, j, p) == 0 for p in range(j + 1, n + 1)))
                assert is_admitted_flat(n, tuple(lowered)) == predicted


class TestDeltaSequences:
    def test_zero_bits_give_zero_vector(self):
        n = 5
        a = DeltaSequence(n, (0,) * len(list(combinations(range(1, n + 1), 3))))
        assert vector_from_deltas(a) == AdmittedVector.zero(n)

    def test_one_bits_give_maximum(self):
        n = 5
        a = DeltaSequence(n, (1,) * len(list(combinations(range(1, n + 1), 3))))
        assert vector_from_deltas(a) == AdmittedVector.maximum(n)

    def test_roundtrip_over_all_vectors(self):
        for v in all_vectors(5):
            assert vector_from_deltas(delta_sequence_of(v)) == v

    def test_reconstruction_is_pivot_independent(self):
        n = 5
        for v in all_vectors(n):
            a = delta_sequence_of(v)
            for p_choice in range(1, n - 1):
                rebuilt = {}
                for d in range(1, n):
                    for i in range(1, n - d + 1):
                        j = i + d
                        if d == 1:
                            rebuilt[i, j] = 0
                        else:
                            p = min(i + p_choice, j - 1)
                            rebuilt[i, j] = (rebuilt[i, p] + rebuilt[p, j]
                                             + a[tuple(sorted((i, p, j)))])
                assert all(rebuilt[i, j] == v[i, j]
                           for i, j in combinations(range(1, n + 1), 2))

    def test_exchange_violation_rejected(self):
        # flip one bit of a valid sequence: some quadruple must break
        v = AdmittedVector.maximum(4)
        bits = list(delta_sequence_of(v).bits)
        bits[0] ^= 1
        with pytest.raises(PtolemyViolationError):
            DeltaSequence(4, tuple(bits))

    def test_non_bit_rejected(self):
        with pytest.raises(PtolemyViolationError):
            DeltaSequence(3, (2,))


class TestTriangulations:
    def test_counts_are_catalan(self):
        assert [len(all_triangulations(n)) for n in (3, 4, 5, 6, 7)] == \
            [1, 2, 5, 14, 42]

    def test_fan_is_valid(self):
        for n in range(3, 9):
            assert len(fan_triangulation(n).triangles) == n - 2

    def test_wrong_count_rejected(self):
        with pytest.raises(InvalidTriangulationError):
            Triangulation.of(5, [(1, 2, 3), (1, 3, 4)])

    def test_crossing_rejected(self):
        # {1,3} and {2,4} cross; edge counts alone cannot pass either
        with pytest.raises(InvalidTriangulationError):
            Triangulation.of(4, [(1, 2, 3), (1, 2, 4)])

    def test_max_vector_sums(self):
        v = AdmittedVector.maximum(4)
        assert triangulation_sum(v, Triangulation.of(4, [(1, 2, 3), (1, 3, 4)])) == 2
        assert triangulation_sum(v, Triangulation.of(4, [(1, 2, 4), (2, 3, 4)])) == 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_sum_is_corner_component(self, n):
        for v in all_vectors(n):
            for t in all_triangulations(n):
                assert triangulation_sum(v, t) == v[1, n]

    def test_mutate_square(self):
        t = Triangulation.of(4, [(1, 2, 3), (1, 3, 4)])
        flipped = mutate(t, (1, 2, 3, 4))
        assert flipped.triangles == frozenset({(1, 2, 4), (2, 3, 4)})
        assert mutate(flipped, (1, 2, 3, 4)) == t

    def test_unflippable_quad_rejected(self):
        t = fan_triangulation(6)
        with pytest.raises(QuadNotFlippableError):
            mutate(t, (2, 3, 4, 5))

    def test_flip_graph_is_connected(self):
        n = 6
        frontier = [fan_triangulation(n)]
        seen = {frontier[0].triangles}
        while frontier:
            nxt = []
            for t in frontier:
                for quad in combinations(range(1, n + 1), 4):
                    try:
                        flipped = mutate(t, quad)
                    except QuadNotFlippableError:
                        continue
                    if flipped.triangles not in seen:
                        seen.add(flipped.triangles)
                        nxt.append(flipped)
            frontier = nxt
        assert len(seen) == 14

    def test_flips_preserve_sums(self):
        n = 6
        vs = [cycle_to_vector(s) for s in list(all_cycles(n))[:30]]
        for t in all_triangulations(n):
            for quad in combinations(range(1, n + 1), 4):
                try:
                    flipped = mutate(t, quad)
                except QuadNotFlippableError:
                    continue
                for v in vs:
                    assert triangulation_sum(v, flipped) == \
                        triangulation_sum(v, t)
