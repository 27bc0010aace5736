"""Diagram construction, grading, Eulerian statistics, Moebius values,
lattice laws, truncations, and path conjugators."""

import hashlib
import json
import random
import tracemalloc
from dataclasses import fields
from functools import reduce
from itertools import accumulate, chain, combinations, permutations, product
from math import comb, factorial
from operator import and_, or_

import pytest
from hypothesis import given, settings, strategies as st

from cyclat import _pykernels, checks, kernels, oracle, poset
from cyclat.errors import CapExceededError, CyclatError, NotAChainError, NotComparableError
from cyclat.perm import (
    CircularPermutation,
    DescentLabel,
    complement,
    inversion_bit,
    invert,
    word_text,
)
from cyclat.poset import (
    Comparison,
    HasseDiagram,
    build,
    check_modular,
    check_semidistributive,
    compare,
    conjugator_formula,
    eulerian,
    eulerian_row,
    grading_report,
    kappa_failure,
    maximal_chain,
    mobius,
    mobius_from,
    partition_leq,
    partitions_up_to,
    path_conjugator,
    shuffle_partition,
    to_dot,
    to_json,
    verify_descent_distribution,
    check_young_limit,
)
from cyclat.vectors import AdmittedVector, invert_vector


class TestBuild:
    def test_two_element_order(self):
        diagram = build(3)
        assert len(diagram.nodes) == 2
        assert len(diagram.edges) == 1
        lo, hi, label = diagram.edges[0]
        assert label == DescentLabel(1, 3)
        assert diagram.nodes[lo] == CircularPermutation.smallest(3)
        assert diagram.nodes[hi] == CircularPermutation.largest(3)

    def test_order_four_figure(self):
        diagram = build(4)
        assert len(diagram.nodes) == 6
        assert len(diagram.edges) == 6
        assert sorted(set(diagram.ranks)) == [0, 1, 2, 3, 4]
        sizes = [diagram.ranks.count(r) for r in range(5)]
        assert sizes == [1, 1, 2, 1, 1]

    def test_order_five_counts(self):
        diagram = build(5)
        assert len(diagram.nodes) == 24
        assert max(diagram.ranks) == 10
        assert len(diagram.edges) == 36

    def test_degenerate_orders(self):
        for n in (1, 2):
            diagram = build(n)
            assert len(diagram.nodes) == 1
            assert diagram.edges == ()
            assert diagram.lo == diagram.hi == diagram.r == diagram.s == ()
            assert diagram.ranks == (0,)

    def test_worker_counts_agree(self):
        # build has a single code path and takes no worker count: the
        # deleted option is refused, and independent builds agree column
        # for column and view for view.
        base = build(5)
        other = build(5)
        assert other is not base
        for column in ("words", "ranks", "lo", "hi", "r", "s"):
            assert getattr(other, column) == getattr(base, column)
        assert other.nodes == base.nodes
        assert other.edges == base.edges
        with pytest.raises(TypeError):
            build(5, workers=2)

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_edges_above_is_the_up_slice(self, n):
        diagram = build(n)
        for t in range(len(diagram.words)):
            above = diagram.edges_above(t)
            assert [diagram.hi[k] for k in above] == list(diagram.up[t])
            assert all(diagram.lo[k] == t for k in above)
            assert [DescentLabel(diagram.r[k], diagram.s[k]) for k in above] == \
                [label for lo, _, label in diagram.edges if lo == t]

    def test_ragged_columns_rejected(self):
        d = build(4)
        with pytest.raises(CyclatError):
            HasseDiagram(4, d.ranks, d.lo, d.hi[1:], d.r, d.s)
        with pytest.raises(CyclatError):
            HasseDiagram(4, d.ranks, d.lo, d.hi, d.r, d.s[1:])

    def test_rank_count_must_be_the_order_factorial(self):
        # the words and the vector columns depend on n alone: they hold
        # only for all (n-1)! canonical words, one rank each
        d = build(4)
        with pytest.raises(CyclatError):
            HasseDiagram(4, d.ranks[1:], d.lo, d.hi, d.r, d.s)
        with pytest.raises(CyclatError):
            HasseDiagram(5, d.ranks, d.lo, d.hi, d.r, d.s)
        with pytest.raises(CyclatError):
            HasseDiagram(0, (0,), (), (), (), ())

    def test_fields_are_what_build_computes(self):
        names = [f.name for f in fields(HasseDiagram)]
        assert names == ["n", "ranks", "lo", "hi", "r", "s"]
        diagram = build(6)
        assert not {"words", "rows", "vec_index"} & vars(diagram).keys()
        assert diagram.words.index(CircularPermutation.largest(6).canon) == diagram.top
        assert "words" in vars(diagram)
        assert not {"rows", "vec_index"} & vars(diagram).keys()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_name_unranks_the_word(self, n):
        diagram = build(n)
        names = [diagram.name(t) for t in range(len(diagram.ranks))]
        assert "words" not in vars(diagram)
        assert names == [word_text(w) for w in diagram.words]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_words_and_extremes_follow_from_n(self, n):
        diagram = build(n)
        words = tuple((1,) + p for p in permutations(range(2, n + 1)))
        assert diagram.words == words
        assert diagram.bottom == words.index(CircularPermutation.smallest(n).canon)
        assert diagram.top == words.index(CircularPermutation.largest(n).canon)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("CYCLAT_MAX_N", "3")
        with pytest.raises(CapExceededError):
            build(4)
        monkeypatch.delenv("CYCLAT_MAX_N")
        build(4)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_rank_increments(self, n):
        diagram = build(n)
        for lo, hi, _ in diagram.edges:
            assert diagram.ranks[hi] == diagram.ranks[lo] + 1

    @pytest.mark.parametrize("n", [5, 6])
    def test_anti_automorphisms_reverse_edges(self, n):
        diagram = build(n)
        edge_set = {(diagram.nodes[lo], diagram.nodes[hi], label.as_pair())
                    for lo, hi, label in diagram.edges}
        for sigma, tau, (r, s) in edge_set:
            assert (invert(tau), invert(sigma), (r, s)) in edge_set
            assert (complement(tau), complement(sigma),
                    (n + 1 - s, n + 1 - r)) in edge_set

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_maximal_chain_length(self, n):
        from math import comb
        assert len(maximal_chain(build(n))) == comb(n, 3)


def _lehmer(letters):
    """c_j: the letters after position j that are smaller than letters[j]."""
    return [sum(b < a for b in letters[j + 1:]) for j, a in enumerate(letters)]


def _lex_rank(word):
    """Position of the canonical word (1, p) among the arrangements of
    the letters of p in lexicographic order: at each place j, the
    arrangements that agree before j and put a smaller letter at j."""
    p = word[1:]
    return sum(c * factorial(len(p) - 1 - j) for j, c in enumerate(_lehmer(p)))


class TestLehmerBuild:
    """`build` derives cover ids and ranks from the lexicographic order
    instead of calling `word_covers_up` and `word_rank`."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), n=st.integers(3, 12))
    def test_cover_id_formulas_above_the_cap(self, data, n):
        p = tuple(data.draw(st.permutations(range(2, n + 1))))
        m = n - 1
        weight = [factorial(m - 1 - j) for j in range(m)] + [0]
        c = _lehmer(p)
        t = _lex_rank((1,) + p)
        for r, s, upper in kernels.word_covers_up((1,) + p):
            if r == 1:
                assert s == p[-1]
                wrap = (s - 2) * weight[0] + sum((cj - (q > s)) * g
                                                 for q, cj, g in zip(p, c, weight[1:]))
                # the sum ranks the rest of p among the other letters'
                # arrangements: the count of earlier words ending in s
                assert wrap == (s - 2) * weight[0] + _lex_rank((1,) + p[:-1])
                assert _lex_rank(upper) == wrap
            else:
                j = p.index(s)
                assert p[j + 1] == r
                d = c[j] - c[j + 1]
                assert _lex_rank(upper) == t - d * weight[j] + (d - 1) * weight[j + 1]

    def test_order_nine_matches_the_kernels(self):
        diagram = build(9)
        index = {w: t for t, w in enumerate(diagram.words)}
        assert diagram.ranks == tuple(map(kernels.word_rank, diagram.words))
        reference = [(t, b, r, s) for t, word in enumerate(diagram.words)
                     for b, r, s in sorted((index[u], r, s)
                                           for r, s, u in kernels.word_covers_up(word))]
        assert list(zip(diagram.lo, diagram.hi, diagram.r, diagram.s)) == reference
        # lo and hi hold one int object per node id, not copies
        ids: dict[int, int] = {}
        assert all(ids.setdefault(t, t) is t for t in chain(diagram.lo, diagram.hi))
        assert len(ids) == len(diagram.ranks)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_build_calls_no_word_kernel(self, monkeypatch, n):
        def refuse(word):
            raise AssertionError("build called a word kernel")

        monkeypatch.setattr(kernels, "word_rank", refuse)
        monkeypatch.setattr(kernels, "word_covers_up", refuse)
        diagram = build(n)
        assert len(diagram.words) == len(diagram.ranks) == factorial(n - 1)


class TestCoverRows:
    """`_cover_rows` is the one cover rule: `build`, the exports and
    `verify_descent_distribution` read its rows."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_are_the_kernel_covers_by_upper_id(self, n):
        words = list(permutations(range(2, n + 1)))
        index = {(1,) + p: t for t, p in enumerate(words)}
        rows = list(poset._cover_rows(n))
        assert len(rows) == len(words)
        for t, (p, ups) in enumerate(zip(words, rows)):
            uppers = [u for _, u, _, _ in ups]
            assert uppers == sorted(set(uppers))
            assert ups == sorted((t, index[upper], r, s)
                                 for r, s, upper in kernels.word_covers_up((1,) + p))


class TestVectorColumns:
    """`HasseDiagram.columns` and `rows` come from the lexicographic
    enumeration, not from one `word_vector` call per node."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_vecs_are_the_word_vectors(self, n):
        diagram = build(n)
        assert len(diagram.columns) == n * (n - 1) // 2
        assert all(len(column) == factorial(n - 1) for column in diagram.columns)
        vecs = tuple(kernels.word_vector(w) for w in diagram.words)
        assert diagram.columns == tuple(map(bytes, zip(*vecs)))
        # at n = 1 the one row is empty, as the one vector is
        assert diagram.rows == tuple(map(bytes, vecs))
        assert diagram.vec_index == {bytes(v): t for t, v in enumerate(vecs)}
        assert all(type(row) is bytes for row in diagram.vec_index)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inversion_columns_are_the_words_bits(self, n):
        words = list(poset._words(n))
        assert poset._inversion_columns(n) == {
            (i, j): bytes(inversion_bit(w, i, j) for w in words)
            for i, j in combinations(range(2, n + 1), 2)}
        assert [poset.node_name(n, t) for t in range(len(words))] == \
            list(map(word_text, words))

    def test_degenerate_orders(self):
        assert build(1).columns == () and build(1).rows == (b"",)
        assert build(1).vec_index == {b"": 0}
        assert build(2).columns == build(2).rows == (b"\0",)
        assert build(2).vec_index == {b"\0": 0}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_masks_match_the_masks_of_the_word_vectors(self, n):
        diagram = build(n)
        vecs = tuple(kernels.word_vector(w) for w in diagram.words)
        at_least = tuple(tuple(accumulate(reversed(poset._value_masks(column)), or_))[::-1]
                         for column in zip(*vecs))
        at_most = tuple(tuple(accumulate(poset._value_masks(column), or_))
                        for column in zip(*vecs))
        assert diagram.at_least == at_least
        every = (1 << len(vecs)) - 1
        for y, v in enumerate(vecs):
            assert diagram.below_mask(y) == reduce(
                and_, (masks[c] for masks, c in zip(at_most, v)), every)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_leq_reads_the_columns(self, monkeypatch, n):
        vecs = [kernels.word_vector(w) for w in build(n).words]
        expected = [kernels.leq_flat(u, v) for u in vecs for v in vecs]

        def refuse(*args):
            raise AssertionError("leq read rows or vec_index or called a kernel")

        monkeypatch.setattr(HasseDiagram, "rows", property(refuse))
        monkeypatch.setattr(HasseDiagram, "vec_index", property(refuse))
        monkeypatch.setattr(kernels, "leq_flat", refuse)
        diagram = build(n)
        size = len(diagram.ranks)
        assert [diagram.leq(x, y) for x in range(size) for y in range(size)] == expected

    @pytest.mark.parametrize("name", ["semidistributive", "young", "lattice"])
    def test_checks_call_no_word_vector(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("computed a vector per node")

        monkeypatch.setattr(kernels, "word_vector", refuse)
        assert build(6).at_least
        if name != "lattice":  # the lattice check's bounds read both
            monkeypatch.setattr(HasseDiagram, "rows", property(refuse))
            monkeypatch.setattr(HasseDiagram, "vec_index", property(refuse))
        assert checks.run_check(name, 6).passed


def _top_vector(n):
    """The vector of the top: v[i,j] = j - i - 1, the largest entries."""
    return tuple(j - i - 1 for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _kernel_bounds(diagram, xs, ys):
    """`join_flat` and `meet_flat` of each pair, as node ids or None, from
    the word vectors rather than the columns."""
    n = diagram.n
    vecs = [kernels.word_vector(w) for w in diagram.words]
    index = {v: t for t, v in enumerate(vecs)}
    return ([index.get(kernels.join_flat(n, vecs[x], vecs[y])) for x, y in zip(xs, ys)],
            [index.get(kernels.meet_flat(n, vecs[x], vecs[y])) for x, y in zip(xs, ys)])


def _columns(lanes):
    """The int columns of these vectors, one byte lane each, as the lane
    recursion holds them."""
    return [int.from_bytes(bytes(column), "big") for column in zip(*lanes)]


def _lanes(size, columns):
    """The vector in each of the `size` lanes of these int columns."""
    return list(zip(*(column.to_bytes(size, "big") for column in columns)))


class TestColumnBounds:
    """`joins` and `bounds` run the recursion of `join_flat` on int
    columns gathered from the rows, one byte lane a pair, and the meets
    as the joins of the dual lanes."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_ordered_pair(self, n):
        diagram = build(n)
        xs, ys = zip(*product(range(len(diagram.ranks)), repeat=2))
        joins, meets = diagram.bounds(xs, ys)
        assert (joins, meets) == _kernel_bounds(diagram, xs, ys)
        assert diagram.joins(xs, ys) == joins
        assert None not in joins + meets
        if n <= 2:  # one node; at n = 2 its one coordinate is adjacent, so 0
            assert joins == meets == [0]

    @pytest.mark.parametrize("n", [7, 8])
    def test_cover_pairs_and_seeded_pairs(self, n):
        diagram = build(n)
        size = len(diagram.ranks)
        rng = random.Random(checks._SEED)
        pairs = [pair for up in diagram.up for pair in combinations(up, 2)]
        pairs += [(rng.randrange(size), rng.randrange(size)) for _ in range(10_000)]
        xs, ys = zip(*pairs)
        joins, meets = diagram.bounds(xs, ys)
        assert (joins, meets) == _kernel_bounds(diagram, xs, ys)
        assert diagram.joins(xs, ys) == joins
        assert None not in joins + meets

    def test_batches_of_one_and_none(self):
        diagram = build(5)
        assert diagram.bounds([3], [7]) == _kernel_bounds(diagram, [3], [7])
        assert diagram.joins([3], [7]) == _kernel_bounds(diagram, [3], [7])[0]
        assert diagram.bounds([], []) == ([], []) and diagram.joins([], []) == []

    def test_bounds_gathers_each_side_once(self, monkeypatch):
        gathered = []
        gather = poset._gather

        def counting_gather(n, rows, ids):
            gathered.append(list(ids))
            return gather(n, rows, ids)

        monkeypatch.setattr(poset, "_gather", counting_gather)
        diagram = build(5)
        xs, ys = [0, 3, 23, 7], [5, 3, 0, 11]
        assert diagram.bounds(xs, ys) == _kernel_bounds(diagram, xs, ys)
        assert gathered == [xs, ys]

    @pytest.mark.parametrize("meet", [False, True])
    def test_adjacent_coordinate_reads_back_as_no_node(self, monkeypatch, meet):
        # every node's adjacent coordinates (i, i+1) are 0, so a result
        # row with one of them 1 is no node's; the other lanes still are.
        # The meets run the join too, so a wrong join is read by `joins`.
        name = "_column_meets" if meet else "_column_joins"
        column_op = getattr(poset, name)
        adjacent = kernels.pair_index(5, 2, 3)

        def set_adjacent(n, size, us, vs):
            out = column_op(n, size, us, vs)
            out[adjacent] |= 1 << 8 * (size - 1)  # lane 0 only
            return out

        monkeypatch.setattr(poset, name, set_adjacent)
        diagram = build(5)
        xs, ys = [0, 3, 23], [5, 7, 11]
        expected = _kernel_bounds(diagram, xs, ys)
        expected[meet][0] = None
        assert None not in expected[not meet] + expected[meet][1:]
        if meet:
            assert diagram.bounds(xs, ys) == expected
        else:
            assert diagram.joins(xs, ys) == expected[0]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), n=st.integers(3, 24))
    def test_lanes_are_isolated(self, data, n):
        # the top's entries are the largest, so its lanes have the least
        # headroom; each pair takes two neighbouring lanes, (a, b) then
        # (b, a), so lanes where a >= b and a < b alternate
        words = data.draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4))
        vecs = [_top_vector(n)] + [kernels.word_vector(tuple(w)) for w in words]
        lanes = [lane for a, b in combinations(vecs, 2) for lane in ((a, b), (b, a))]
        size = len(lanes)
        us, vs = _columns(a for a, _ in lanes), _columns(b for _, b in lanes)
        assert _lanes(size, poset._column_joins(n, size, us, vs)) == \
            [kernels.join_flat(n, a, b) for a, b in lanes]
        assert _lanes(size, poset._column_meets(n, size, us, vs)) == \
            [kernels.meet_flat(n, a, b) for a, b in lanes]

    def test_refuses_an_order_past_the_guard_bit(self, monkeypatch):
        def refuse(n):
            raise AssertionError("built a diagram")

        monkeypatch.setattr(poset, "build", refuse)
        top, zero = _top_vector(65), (0,) * comb(65, 2)
        us, vs = _columns([top, zero]), _columns([top, top])
        # the compiled kernels refuse n > 64, so the reference is pure
        assert _lanes(2, poset._column_joins(65, 2, us, vs)) == \
            [_pykernels.join_flat(65, top, top), _pykernels.join_flat(65, zero, top)]
        assert _lanes(2, poset._column_meets(65, 2, us, vs)) == \
            [_pykernels.meet_flat(65, top, top), _pykernels.meet_flat(65, zero, top)]
        for column_op in (poset._column_joins, poset._column_meets):
            with pytest.raises(CyclatError, match="order 66 exceeds 65"):
                column_op(66, 2, us, vs)


class TestAdjacentLanes:
    """Every node's adjacent coordinates (i, i+1) are 0 and the recursion
    reads none of them, so they stay the int 0 from gather to split."""

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_gather_converts_only_the_read_columns(self, n):
        diagram = build(n)
        ids = list(range(len(diagram.ranks))) * 3
        size = len(ids)
        us = poset._gather(n, diagram.rows, ids)
        adjacent = [kernels.pair_index(n, i, i + 1) for i in range(1, n)]
        read = [ij for ij, _ in _pykernels._fill_plan(n)]
        assert sorted(adjacent + read) == list(range(comb(n, 2)))
        assert [us[c] for c in adjacent] == [0] * (n - 1)
        assert [us[c].to_bytes(size, "big") for c in read] == \
            [bytes(diagram.columns[c][t] for t in ids) for c in read]
        for column_op in (poset._column_joins, poset._column_meets):
            out = column_op(n, size, us, us)
            assert [out[c] for c in adjacent] == [0] * (n - 1)
            assert _lanes(size, out) == _lanes(size, us)


class TestDualDiagram:
    """Cycle inversion, `vectors.invert_vector`, is the order-reversing
    involution that `_column_meets` reads the meets through."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_inversion_reverses_every_edge(self, n):
        diagram = build(n)
        dual = [diagram.vec_index.get(bytes(invert_vector(AdmittedVector(n, tuple(row))).flat))
                for row in diagram.rows]
        assert sorted(dual) == list(range(len(diagram.ranks)))
        edges = set(zip(diagram.lo, diagram.hi))
        assert {(dual[hi], dual[lo]) for lo, hi in edges} == edges


class TestPrefixRanks:
    def test_peak_memory_is_near_the_result(self):
        # dropping each set's list at its last reading peaks at about
        # 1.2x the result at n = 9; holding every list to the end, 2.7x
        tracemalloc.start()
        try:
            ranks = poset._prefix_ranks(9)
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ranks) == factorial(8)
        assert peak <= 1.6 * result


class TestEulerian:
    def test_first_column_is_one(self):
        assert all(eulerian(n, 0) == 1 for n in range(10))

    def test_empty_row_vanishes(self):
        assert all(eulerian(0, k) == 0 for k in range(1, 5))

    def test_negative_arguments_vanish(self):
        assert eulerian(-1, 0) == eulerian(3, -1) == eulerian(-2, -2) == 0

    def test_small_values(self):
        assert eulerian(3, 1) == 4
        assert eulerian_row(4) == (1, 11, 11, 1)
        assert eulerian_row(5) == (1, 26, 66, 26, 1)

    def test_second_column_closed_form(self):
        for n in range(1, 11):
            assert eulerian(n, 1) == 2 ** n - n - 1

    def test_rows_sum_to_factorials(self):
        from math import factorial
        for n in range(1, 9):
            assert sum(eulerian(n, k) for k in range(n)) == factorial(n)


class TestDescentDistribution:
    def test_histogram_small(self):
        assert verify_descent_distribution(3)["cover_histogram"] == {0: 1, 1: 4, 2: 1}
        assert oracle.descents_by_scan(3) == {0: 1, 1: 4, 2: 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_distribution_report_passes(self, n):
        report = verify_descent_distribution(n)
        assert report["pass"], report

    def test_row_five(self):
        for hist in (verify_descent_distribution(5)["cover_histogram"],
                     oracle.descents_by_scan(5)):
            assert [hist[k] for k in range(5)] == [1, 26, 66, 26, 1]

    @pytest.mark.parametrize("n", range(8))
    def test_streamed_counts_match_the_diagram(self, n):
        report = verify_descent_distribution(n)
        diagram = build(n + 1)
        updeg = {}
        for above in diagram.up:
            updeg[len(above)] = updeg.get(len(above), 0) + 1
        assert report["cover_histogram"] == updeg
        assert report["edges"] == len(diagram.lo)
        assert report["cover_histogram"] == oracle.descents_by_scan(n)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_irreducible_counts(self, n):
        diagram = build(n)
        meet_irr = sum(1 for t in range(len(diagram.nodes))
                       if len(diagram.up[t]) == 1)
        join_irr = sum(1 for t in range(len(diagram.nodes))
                       if len(diagram.down[t]) == 1)
        assert meet_irr == eulerian(n - 1, 1) == 2 ** (n - 1) - n
        assert join_irr == eulerian(n - 1, 1)


class TestMobius:
    def test_reflexive_value(self):
        diagram = build(5)
        for t in range(len(diagram.nodes)):
            assert mobius(diagram, t, t) == 1

    def test_cover_value(self):
        diagram = build(5)
        for lo, hi, _ in diagram.edges:
            assert mobius(diagram, lo, hi) == -1

    def test_all_values_bounded(self):
        diagram = build(5)
        ids = range(len(diagram.nodes))
        for x, mu in zip(ids, mobius_from(diagram, ids)):
            for y, value in mu.items():
                assert value in (-1, 0, 1)
                assert mobius(diagram, x, y) == value

    def test_incomparable_rejected(self):
        diagram = build(5)
        x = diagram.words.index(CircularPermutation.from_text("(1,4,2,3,5)").canon)
        y = diagram.words.index(CircularPermutation.from_text("(1,3,4,2,5)").canon)
        with pytest.raises(NotComparableError):
            mobius(diagram, x, y)


class _TableLattice:
    """A small lattice given by its cover pairs on nodes 0..size-1, with
    the members of HasseDiagram that the semidistributivity test reads."""

    def __init__(self, covers):
        size = 1 + max(max(pair) for pair in covers)
        self.n = size
        self.words = tuple((t + 1,) for t in range(size))
        self.above = [{t} for t in range(size)]
        for _ in range(size):
            for lo, hi in covers:
                self.above[lo] |= self.above[hi]
        self.up = tuple(tuple(hi for lo, hi in covers if lo == t) for t in range(size))
        self.down = tuple(tuple(lo for lo, hi in covers if hi == t) for t in range(size))
        # the kappa test needs a rank that rises along every cover; the
        # size of the down-set does
        self.ranks = tuple(sum(t in up for up in self.above) - 1 for t in range(size))

    def above_mask(self, x):
        return sum(1 << z for z in self.above[x])

    def below_mask(self, y):
        return sum(1 << z for z, up in enumerate(self.above) if y in up)

    def name(self, t):
        return word_text(self.words[t])

    def bounds(self, xs, ys):
        joins, meets = [], []
        for x, y in zip(xs, ys):
            common = self.above[x] & self.above[y]
            (least,) = [z for z in common if common <= self.above[z]]
            joins.append(least)
            common = {z for z, up in enumerate(self.above) if x in up and y in up}
            (greatest,) = [z for z in common if all(z in self.above[w] for w in common)]
            meets.append(greatest)
        return joins, meets


# M3: three atoms 1, 2, 3 between 0 and 4
_M3 = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))
# M3 over a two-element chain, so the first failing element is not node 0
_M3_OVER_CHAIN = ((0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5))
# join-semidistributive but not meet-semidistributive, and its dual
_SD_JOIN_ONLY = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 6), (5, 6))
_SD_MEET_ONLY = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6))


# N5, the pentagon: semidistributive but not modular
_N5 = ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4))

LAWS = ("SD-join", "SD-meet")


def _lattice_tables(lattice):
    """The N x N join and meet tables of a lattice, as tuple rows, from
    its `bounds` of the whole square: the input of `sd_scan`."""
    size = len(lattice.ranks)
    xs, ys = zip(*product(range(size), repeat=2))

    def rows(square):
        return tuple(tuple(square[a * size:(a + 1) * size]) for a in range(size))
    return tuple(map(rows, lattice.bounds(xs, ys)))


def refuse_sd_scan(monkeypatch):
    def scan(joins, meets):
        raise AssertionError("sd_scan called by the kappa test")

    monkeypatch.setattr(kernels, "sd_scan", scan)


def join_class_failures(joins, meets):
    """The laws that fail, by join and meet classes: SD-join holds at x
    iff for every value c of x v y the meet m of the class
    {y : x v y = c} has x v m = c; SD-meet is the dual.  O(N^2) table
    reads; the semidistributivity test before the kappa test."""
    failed = set()
    for x, (jx, mx) in enumerate(zip(joins, meets)):
        low: dict[int, int] = {}   # x v y -> meet of its class
        high: dict[int, int] = {}  # x ^ y -> join of its class
        for y, (c, d) in enumerate(zip(jx, mx)):
            low[c] = meets[low[c]][y] if c in low else y
            high[d] = joins[high[d]][y] if d in high else y
        if any(jx[m] != c for c, m in low.items()):
            failed.add("SD-join")
        if any(mx[j] != d for d, j in high.items()):
            failed.add("SD-meet")
    return failed


def triple_failures(joins, meets):
    """The laws that fail on some triple: the definitions, cubic."""
    size = len(joins)
    failed = set()
    for x, y, z in product(range(size), repeat=3):
        if joins[x][y] == joins[x][z] != joins[x][meets[y][z]]:
            failed.add("SD-join")
        if meets[x][y] == meets[x][z] != meets[x][joins[y][z]]:
            failed.add("SD-meet")
    return failed


def kappa_failures(lattice):
    return {law for law in LAWS if kappa_failure(lattice, law)}


def union_closed(ground, sets):
    """The cover pairs of the unions of `sets`, subsets of range(ground)
    as bitmasks, with the empty set, ordered by inclusion."""
    family = {0}
    for s in sets:
        family |= {f | s for f in family}
    members = sorted(family)
    covers = [(a, b) for a, x in enumerate(members) for b, y in enumerate(members)
              if x != y and x & y == x
              and not any(z not in (x, y) and x & z == x and z & y == z
                          for z in members)]
    return covers


class TestLatticeLaws:
    @pytest.mark.parametrize("n", [4, 5])
    def test_semidistributive(self, n):
        assert check_semidistributive(build(n))["pass"]

    def test_pass_needs_no_triple_scan(self, monkeypatch):
        def scan(joins, meets):
            raise AssertionError("sd_scan called on a semidistributive lattice")

        monkeypatch.setattr(kernels, "sd_scan", scan)
        assert check_semidistributive(build(5))["pass"]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_join_classes_agree_with_sd_scan(self, n):
        diagram = build(n)
        tables = _lattice_tables(diagram)
        found = kernels.sd_scan(*tables)
        assert check_semidistributive(diagram)["pass"] == (found is None)
        assert kappa_failures(diagram) == join_class_failures(*tables) == set()
        assert found is None

    @pytest.mark.parametrize("covers, failed", [
        (_M3, {"SD-join", "SD-meet"}), (_M3_OVER_CHAIN, {"SD-join", "SD-meet"}),
        (_SD_JOIN_ONLY, {"SD-meet"}), (_SD_MEET_ONLY, {"SD-join"}), (_N5, set())],
        ids=["M3", "M3-over-chain", "SD-join-only", "SD-meet-only", "N5"])
    def test_kappa_agrees_law_by_law(self, covers, failed):
        lattice = _TableLattice(covers)
        tables = _lattice_tables(lattice)
        assert kappa_failures(lattice) == triple_failures(*tables) == \
            join_class_failures(*tables) == failed
        found = kernels.sd_scan(*tables)
        assert (found is None) == (not failed)
        assert found is None or found[3] in failed
        assert check_semidistributive(lattice)["pass"] == (not failed)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(ground=st.integers(3, 4), dual=st.booleans(), data=st.data())
    def test_kappa_on_union_closed_families(self, ground, dual, data):
        sets = data.draw(st.lists(st.integers(1, 2 ** ground - 1),
                                  min_size=3, max_size=8, unique=True))
        covers = union_closed(ground, sets)
        # the dual order, read upside down, trades the two laws
        lattice = _TableLattice([(b, a) for a, b in covers] if dual else covers)
        tables = _lattice_tables(lattice)
        failed = triple_failures(*tables)
        assert kappa_failures(lattice) == failed
        found = kernels.sd_scan(*tables)
        assert (found is None) == (not failed)
        assert found is None or found[3] in failed

    @pytest.mark.parametrize("covers", [_M3, _M3_OVER_CHAIN, _SD_JOIN_ONLY, _SD_MEET_ONLY],
                             ids=["M3", "M3-over-chain", "SD-join-only", "SD-meet-only"])
    def test_large_lattice_witness_names_two_extremes(self, monkeypatch, covers):
        refuse_sd_scan(monkeypatch)
        lattice = _TableLattice(covers)
        report = check_semidistributive(lattice)
        assert not report["pass"]
        witness = report["witness"]
        law = witness["law"]
        assert law == sorted(kappa_failures(lattice))[0]
        ids = {word_text(w): t for t, w in enumerate(lattice.words)}
        if law == "SD-meet":
            j, ends = ids[witness["j"]], [ids[t] for t in witness["maximal"]]
            (lower,) = lattice.down[j]
            rest = {x for x in lattice.above[lower] if x not in lattice.above[j]}
            beyond = [{z for z in rest if z in lattice.above[x]} for x in ends]
        else:
            j, ends = ids[witness["m"]], [ids[t] for t in witness["minimal"]]
            (upper,) = lattice.up[j]
            rest = {x for x, up in enumerate(lattice.above)
                    if upper in up and j not in up}
            beyond = [{z for z in rest if x in lattice.above[z]} for x in ends]
        # two distinct elements of the set, each its own only bound there
        assert ends[0] != ends[1] and set(ends) <= rest
        assert beyond == [{ends[0]}, {ends[1]}]

    @pytest.mark.parametrize("covers, first, witness", [
        (_M3, (1, 2, 3, "SD-join"),
         {"law": "SD-join", "m": "(2)", "minimal": ["(3)", "(4)"]}),
        (_M3_OVER_CHAIN, (2, 3, 4, "SD-join"),
         {"law": "SD-join", "m": "(3)", "minimal": ["(4)", "(5)"]}),
        (_SD_JOIN_ONLY, (2, 1, 3, "SD-meet"),
         {"law": "SD-meet", "j": "(3)", "maximal": ["(2)", "(4)"]}),
        (_SD_MEET_ONLY, (4, 3, 5, "SD-join"),
         {"law": "SD-join", "m": "(5)", "minimal": ["(4)", "(6)"]})],
        ids=["M3", "M3-over-chain", "SD-join-only", "SD-meet-only"])
    def test_failure_witness_is_the_scan_witness(self, monkeypatch, covers, first,
                                                 witness):
        # the triple scan finds a failing law, and the kappa scan, which
        # calls no `sd_scan`, reports its pinned witness
        lattice = _TableLattice(covers)
        assert kernels.sd_scan(*_lattice_tables(lattice)) == first
        refuse_sd_scan(monkeypatch)
        report = check_semidistributive(lattice)
        assert not report["pass"]
        assert report["witness"] == witness

    def test_modular_at_four(self):
        report = check_modular(build(4))
        assert report["modular"] and report["witness"] is None

    def test_not_modular_at_five(self):
        report = check_modular(build(5))
        assert not report["modular"]
        ranks = report["witness"]["ranks"]
        assert ranks[0] + ranks[1] != ranks[2] + ranks[3]

    def test_canonical_witness_quadruple(self):
        from cyclat.vectors import cycle_to_vector, join, meet, vector_to_cycle
        u = cycle_to_vector(CircularPermutation.from_text("(1,4,2,3,5)"))
        v = cycle_to_vector(CircularPermutation.from_text("(1,3,4,2,5)"))
        assert vector_to_cycle(meet(u, v)).as_text() == "(1,4,2,5,3)"
        assert vector_to_cycle(join(u, v)).as_text() == "(1,3,5,4,2)"
        assert [u.rank, v.rank, meet(u, v).rank, join(u, v).rank] == [4, 4, 3, 6]
        # distributivity fails with the same elements (modularity implies it)
        assert not check_modular(build(5))["modular"]


class TestCompare:
    def test_extremes(self):
        assert compare(CircularPermutation.smallest(5),
                       CircularPermutation.largest(5)) == Comparison.LT

    def test_incomparable_pair(self):
        assert compare(CircularPermutation.from_text("(1,4,2,3,5)"),
                       CircularPermutation.from_text("(1,3,4,2,5)")) == \
            Comparison.INCOMPARABLE

    def test_equal(self):
        s = CircularPermutation.from_text("(1,5,2,3,4)")
        assert compare(s, s) == Comparison.EQ


class TestTruncations:
    def test_partition_counts(self):
        assert [len([p for p in partitions_up_to(4) if sum(p) == w])
                for w in range(5)] == [1, 1, 2, 3, 5]

    def test_partition_containment(self):
        assert partition_leq((2, 1), (3, 1))
        assert not partition_leq((2, 1), (2,))
        assert not partition_leq((3,), (2, 2))

    def test_shuffle_statistic_example(self):
        sigma = CircularPermutation.from_word((4, 1, 5, 2, 6, 3))
        assert shuffle_partition(sigma, sigma.rank) == (2, 1)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
    def test_young_limit(self, n, k):
        assert check_young_limit(build(n), k)["pass"]

    def test_young_limit_compares_masks_not_pairs(self, monkeypatch):
        def leq(self, x, y):
            raise AssertionError("compared a pair of elements")

        monkeypatch.setattr(HasseDiagram, "leq", leq)
        report = check_young_limit(build(6), 3)
        assert report["pass"]
        assert report["rank_sizes"] == {0: 1, 1: 1, 2: 2, 3: 3}

    def test_young_limit_fails_on_a_wrong_order(self, monkeypatch):
        monkeypatch.setattr(poset, "partition_leq", lambda lam, mu: True)
        assert not check_young_limit(build(6), 3)["pass"]

    def test_young_limit_requires_large_order(self):
        with pytest.raises(CyclatError):
            check_young_limit(build(6), 4)


class TestPathConjugator:
    def test_empty_chain_gives_identity(self):
        sigma = CircularPermutation.smallest(5)
        result = path_conjugator(sigma, [])
        assert result.alpha == (1, 2, 3, 4, 5)
        assert result.target == sigma

    @pytest.mark.parametrize("n,expected", [
        (5, (5, 4, 3, 2, 1)),
        (6, (3, 2, 1, 6, 5, 4)),
    ])
    def test_maximal_chain_formula(self, n, expected):
        diagram = build(n)
        chain = maximal_chain(diagram)
        result = path_conjugator(diagram.nodes[diagram.bottom], chain)
        assert result.alpha == expected == conjugator_formula(n)
        assert result.target == CircularPermutation.largest(n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_formula_against_any_maximal_chain(self, n):
        diagram = build(n)
        result = path_conjugator(diagram.nodes[diagram.bottom],
                                 maximal_chain(diagram))
        assert result.alpha == conjugator_formula(n)

    def test_conjugation_identity(self):
        diagram = build(5)
        chain = maximal_chain(diagram)
        result = path_conjugator(diagram.nodes[diagram.bottom], chain)
        alpha = result.alpha
        inverse = [0] * (len(alpha) + 1)
        for x, image in enumerate(alpha, start=1):
            inverse[image] = x
        src, dst = result.source, result.target
        for x in range(1, 6):
            assert dst.successor(x) == alpha[src.successor(inverse[x]) - 1]

    def test_bad_label_rejected(self):
        with pytest.raises(NotAChainError):
            path_conjugator(CircularPermutation.smallest(5),
                            [DescentLabel(1, 3)])


# SHA-256 of (to_json, to_dot) of build(n), as the breadth-first build
# wrote them; any change to the diagram or its rendering breaks these.
EXPORT_DIGESTS = {
    1: ("003c67f106c7afcf01034b97b9af5e4a09ec176fdb0206a5605d353ac498d114",
        "5e03e9250e9fc4da6b0ba81301b79f43bbc7861b7c7eb8a1276f2d677f2f9f47"),
    2: ("f9f3a28263827e39cbc6181f042be2c343b4a690a54cf1a23e7da06032eb37fa",
        "ff2dc03c3163f1c336c329b9855ad3a77357bfeef3a835d1d6f6bff95a5866a0"),
    3: ("640c48283c0e28e1d4ef4450f958df978a59de31c0f35de2b428ed8272145a46",
        "f1d8b852a36169a6157aeea9f456b45df7e99c0052e1b8f3bbea07649915399c"),
    4: ("b86f093f9b683db45c6e937a5162710d536e4b0118b53ca51b03cb1a08bd7fa1",
        "3639c2ca483df6b04d6f163888f488f2b1aca781fad99d3429064ce8268e930e"),
    5: ("adc32b34b0d6219dcf913de7cfc7e6435bc87606255cef0bb071aaebf6937be0",
        "141306d2fdd5ed89995729439ffe894cba8c62e71e2cede659c32f6d57093f2a"),
    6: ("3ce76df54e55bcfcdacd687a7e85f6f434a2d8ae5b7d742f01a4f72c54a2c1bf",
        "18690f78bd3e42990baa4d7412b52e0dca7b416a63408891f3095bbac72ac503"),
    7: ("01b5e757fd0ef1b12233e01cca9678ed00a030591dede45e3944b26e886caadf",
        "939ac3dfcd7d9eff4aeca0cafdeaa94273d333f9dea0d42d762316eb923d3238"),
}


def reference_dot(diagram: HasseDiagram) -> str:
    """The whole-string DOT rendering `to_dot` must reproduce."""
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


def reference_json(diagram: HasseDiagram) -> str:
    """The `json.dumps` rendering `to_json` must reproduce."""
    payload = {
        "n": diagram.n,
        "nodes": [word_text(word) for word in diagram.words],
        "ranks": list(diagram.ranks),
        "edges": [[lo, hi, [r, s]] for lo, hi, r, s
                  in zip(diagram.lo, diagram.hi, diagram.r, diagram.s)],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class TestExports:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_streamed_exports_match_reference(self, n):
        diagram = build(n)
        assert to_dot(diagram) == reference_dot(diagram)
        text = to_json(diagram)
        assert text == reference_json(diagram)
        assert json.dumps(json.loads(text), sort_keys=True,
                          separators=(",", ":")) + "\n" == text

    def test_dot_content(self):
        dot = to_dot(build(4))
        assert dot.startswith("digraph CP4 {")
        assert dot.count(" -> ") == 6
        assert "(1,2,3,4)" in dot
        assert "rank=same" in dot

    def test_json_content(self):
        payload = json.loads(to_json(build(5)))
        assert payload["n"] == 5
        assert len(payload["nodes"]) == 24
        assert len(payload["edges"]) == 36
        assert payload["nodes"] == sorted(payload["nodes"])

    @pytest.mark.parametrize("n", sorted(EXPORT_DIGESTS))
    def test_pinned_export_digests(self, n):
        diagram = build(n)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                        for text in (to_json(diagram), to_dot(diagram)))
        assert digests == EXPORT_DIGESTS[n]

    def test_byte_determinism(self):
        # Fresh interpreters with different string-hash seeds write the
        # same bytes as this one, so no export depends on set or dict
        # iteration order.
        import os
        import subprocess
        import sys

        import cyclat
        diagram = build(5)
        here = tuple(hashlib.sha256(text.encode()).hexdigest()
                     for text in (to_json(diagram), to_dot(diagram)))
        assert here == EXPORT_DIGESTS[5]
        paths = [os.path.dirname(os.path.dirname(cyclat.__file__))]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        code = ("import hashlib\n"
                "from cyclat.poset import build, to_dot, to_json\n"
                "d = build(5)\n"
                "for text in (to_json(d), to_dot(d)):\n"
                "    print(hashlib.sha256(text.encode()).hexdigest())\n")
        for seed in ("0", "1", "4242"):
            env = {"PATH": "/usr/bin:/bin",
                   "PYTHONPATH": os.pathsep.join(paths),
                   "PYTHONHASHSEED": seed}
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert out.returncode == 0, out.stderr
            assert tuple(out.stdout.split()) == here


class TestExportBlocks:
    """`to_json`, `to_dot` and `export_pieces` share one serializer that
    formats each section in blocks of `poset.EXPORT_BLOCK` rows."""

    @pytest.mark.parametrize("block", [1, 2, 7, poset.EXPORT_BLOCK])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_block_size_writes_the_reference(self, monkeypatch, n, block):
        # block 1 puts every item first in its piece, and a size that
        # divides a section ends a block at its end; n = 1 has no edges
        monkeypatch.setattr(poset, "EXPORT_BLOCK", block)
        diagram = build(n)
        references = {"json": reference_json(diagram), "dot": reference_dot(diagram)}
        assert to_json(diagram) == references["json"]
        assert to_dot(diagram) == references["dot"]
        for fmt, reference in references.items():
            pieces = list(poset.export_pieces(n, fmt))
            assert "".join(pieces) == reference
        # JSON: four fixed pieces, then each section's rows in blocks
        rows = (len(diagram.lo), len(diagram.ranks), len(diagram.ranks))
        assert len(list(poset.export_pieces(n, "json"))) == \
            4 + sum(-(-k // block) for k in rows)


class TestGradingReport:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pass(self, n):
        assert grading_report(build(n))["pass"]
