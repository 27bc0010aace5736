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
from hypothesis import assume, given, settings, strategies as st

from cyclat import _pykernels, checks, kernels, lanes, oracle, poset
from cyclat.errors import CapExceededError, CyclatError, NotAChainError, NotComparableError
from cyclat.perm import (
    CircularPermutation,
    DescentLabel,
    complement,
    covers_up,
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
    compose_transposition,
    conjugator_formula,
    conjugator_potential,
    cover_histogram,
    eulerian,
    eulerian_row,
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
from cyclat.vectors import AdmittedVector, cycle_to_vector, invert_vector


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
    """`_cover_rows` is the one cover rule: `build` and the exports read
    its rows, and its stream is the tests' reference for the count of
    `cover_histogram`."""

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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lane_up_sets_are_the_masks(self, n):
        diagram = build(n)
        up_set = lanes._lane_up_sets(n, diagram.columns)
        assert [up_set(x) for x in range(len(diagram.ranks))] == \
            [diagram.above_mask(x) for x in range(len(diagram.ranks))]

    @pytest.mark.parametrize("n", [8, 9])
    def test_lane_up_sets_of_seeded_nodes(self, n):
        diagram = build(n)
        up_set = lanes._lane_up_sets(n, diagram.columns)
        rng = random.Random(n)
        for x in [diagram.bottom, diagram.top] + rng.sample(range(len(diagram.ranks)), 12):
            assert up_set(x) == diagram.above_mask(x)

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
        monkeypatch.setattr(HasseDiagram, "vec_index", property(refuse))
        if name != "lattice":  # the lattice check gathers its lanes from the rows
            monkeypatch.setattr(HasseDiagram, "rows", property(refuse))
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
        gather = lanes._gather

        def counting_gather(n, rows, ids):
            gathered.append(list(ids))
            return gather(n, rows, ids)

        monkeypatch.setattr(lanes, "_gather", counting_gather)
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
        column_op = getattr(lanes, name)
        adjacent = kernels.pair_index(5, 2, 3)

        def set_adjacent(n, size, us, vs):
            out = column_op(n, size, us, vs)
            out[adjacent] |= 1 << 8 * (size - 1)  # lane 0 only
            return out

        monkeypatch.setattr(lanes, name, set_adjacent)
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
        pairs = [lane for a, b in combinations(vecs, 2) for lane in ((a, b), (b, a))]
        size = len(pairs)
        us, vs = _columns(a for a, _ in pairs), _columns(b for _, b in pairs)
        assert _lanes(size, lanes._column_joins(n, size, us, vs)) == \
            [kernels.join_flat(n, a, b) for a, b in pairs]
        assert _lanes(size, lanes._column_meets(n, size, us, vs)) == \
            [kernels.meet_flat(n, a, b) for a, b in pairs]

    def test_refuses_an_order_past_the_guard_bit(self, monkeypatch):
        def refuse(n):
            raise AssertionError("built a diagram")

        monkeypatch.setattr(poset, "build", refuse)
        top, zero = _top_vector(65), (0,) * comb(65, 2)
        us, vs = _columns([top, zero]), _columns([top, top])
        # the compiled kernels refuse n > 64, so the reference is pure
        assert _lanes(2, lanes._column_joins(65, 2, us, vs)) == \
            [_pykernels.join_flat(65, top, top), _pykernels.join_flat(65, zero, top)]
        assert _lanes(2, lanes._column_meets(65, 2, us, vs)) == \
            [_pykernels.meet_flat(65, top, top), _pykernels.meet_flat(65, zero, top)]
        for column_op in (lanes._column_joins, lanes._column_meets):
            with pytest.raises(CyclatError, match="order 66 exceeds 65"):
                column_op(66, 2, us, vs)


class TestSquareLanes:
    """The square certificate proves each unordered pair once, on the
    lanes of its triangle x <= y cut from the columns."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_square_lanes_are_the_gathered_lanes(self, n):
        diagram = build(n)
        size = len(diagram.ranks)
        rows = range(size // 3, size // 3 + min(size, 24) // 2 + 1)
        xs = [x for x in rows for _ in range(x, size)]
        ys = [y for x in rows for y in range(x, size)]
        assert lanes._triangle_lanes(n, diagram.columns, rows) == \
            (lanes._gather(n, diagram.rows, xs), lanes._gather(n, diagram.rows, ys))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cut_lanes_are_the_gathered_lanes(self, n):
        # the lanes `check_modular` cuts from the columns, one id or many,
        # in any order and with repeats
        diagram = build(n)
        size = len(diagram.ranks)
        for ids in ([size - 1], [0, size - 1], list(range(size))[::-1], [size // 2] * 3):
            assert lanes._cut_lanes(n, diagram.columns, ids) == lanes._gather(n, diagram.rows, ids)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lane_bounds_are_symmetric_in_the_pair(self, n):
        # what lets the triangle stand for the square: on every ordered
        # pair, swapping the sides gives the same join and meet columns,
        # and the same tightness, on the bounds and on a wrong result
        diagram = build(n)
        size = len(diagram.ranks)
        xs = [x for x in range(size) for _ in range(size)]
        ys = list(range(size)) * size
        us, vs = (lanes._gather(n, diagram.rows, ids) for ids in (xs, ys))
        width = len(xs)
        joins = lanes._column_joins(n, width, us, vs)
        meets = lanes._column_meets(n, width, us, vs)
        assert lanes._column_joins(n, width, vs, us) == joins
        assert lanes._column_meets(n, width, vs, us) == meets
        duals = [lanes._dual_lanes(n, width, c) for c in (us, vs, meets)]
        for side, other, result, tight in ((us, vs, joins, True), (*duals, True),
                                           (us, vs, meets, n < 3)):
            assert lanes._column_tight(n, width, side, other, result) == tight
            assert lanes._column_tight(n, width, other, side, result) == tight

    @pytest.mark.parametrize("n", range(1, 6))
    def test_square_bounds_are_the_gathered_bounds(self, monkeypatch, n):
        # the square certificate, on lanes cut from the columns, decides
        # as `tight_bounds` on the gathered pairs, where `bounds` gives
        # the kernels' bounds; a meet replaced by the join, a node above
        # both ends, declines both from n = 3 on (the bottom and the top)
        diagram = build(n)
        size = len(diagram.ranks)
        xs = [x for x in range(size) for _ in range(size)]
        ys = list(range(size)) * size
        assert list(diagram.bounds(xs, ys)) == list(_kernel_bounds(diagram, xs, ys))
        assert diagram.square_tight_bounds() and diagram.tight_bounds(xs, ys)
        monkeypatch.setattr(lanes, "_column_meets", lanes._column_joins)
        assert diagram.square_tight_bounds() == diagram.tight_bounds(xs, ys) == (n < 3)


class TestAdjacentLanes:
    """Every node's adjacent coordinates (i, i+1) are 0 and the recursion
    reads none of them, so they stay the int 0 from gather to split."""

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_gather_converts_only_the_read_columns(self, n):
        diagram = build(n)
        ids = list(range(len(diagram.ranks))) * 3
        size = len(ids)
        us = lanes._gather(n, diagram.rows, ids)
        adjacent = [kernels.pair_index(n, i, i + 1) for i in range(1, n)]
        read = [ij for ij, _ in _pykernels._fill_plan(n)]
        assert sorted(adjacent + read) == list(range(comb(n, 2)))
        assert [us[c] for c in adjacent] == [0] * (n - 1)
        assert [us[c].to_bytes(size, "big") for c in read] == \
            [bytes(diagram.columns[c][t] for t in ids) for c in read]
        for column_op in (lanes._column_joins, lanes._column_meets):
            out = column_op(n, size, us, us)
            assert [out[c] for c in adjacent] == [0] * (n - 1)
            assert _lanes(size, out) == _lanes(size, us)


def _box(n):
    """Every vector of order n with 0 <= v[i,j] <= j - i - 1, so with the
    adjacent entries 0: the nodes' vectors and many that are none."""
    return list(product(*(range(j - i) for i, j in combinations(range(1, n + 1), 2))))


class TestNodeLanes:
    """The certificates' "is a node", `HasseDiagram._nodes`, is a lane
    test on int columns (`lanes._word_bits`), with no row and no
    `vec_index`."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_vec_index_on_the_box(self, n):
        # 34,560 lanes at n = 6; a one-lane column is the entry itself
        diagram = build(n)
        box = _box(n)
        verdicts = [diagram._nodes(1, list(v)) for v in box]
        assert verdicts == [bytes(v) in diagram.vec_index for v in box]
        assert diagram._nodes(len(box), _columns(box)) == all(verdicts) == (n < 4)
        nodes = [v for v, ok in zip(box, verdicts) if ok]
        assert len(nodes) == len(diagram.ranks)
        assert diagram._nodes(len(nodes), _columns(nodes))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), n=st.integers(4, 9),
           kind=st.sampled_from(["negative", "cycle", "adjacent", "0x7f", "0x80"]))
    def test_one_failing_lane_fails_the_batch(self, data, n, kind):
        # the failing lane sits between word vectors, in both lane
        # orders: the lanes below it lend it no borrow, and the lanes
        # above may take its borrow
        def word():
            return (1, *data.draw(st.permutations(range(2, n + 1))))

        pairs = list(combinations(range(1, n + 1), 2))
        v = dict(zip(pairs, kernels.word_vector(word())))
        b = {(i, j): v[1, j] - v[1, i] - v[i, j] for i, j in pairs if i > 1}
        if kind == "negative":  # B(i, j) = -1
            i, j = data.draw(st.sampled_from([(i, j) for i, j in b if j > i + 1]))
            v[i, j] = v[1, j] - v[1, i] + 1
        elif kind == "cycle":  # B(i,j) = B(j,k) != B(i,k), each 0 or 1
            i, j, k = data.draw(st.sampled_from(list(combinations(range(2, n + 1), 3))))
            assume(b[i, j] == b[j, k] and v[1, k] - v[1, i] >= 1 - b[i, j])
            v[i, k] = v[1, k] - v[1, i] - (1 - b[i, j])
        elif kind == "adjacent":
            i = data.draw(st.integers(1, n - 1))
            v[i, i + 1] = 1
        else:
            v[data.draw(st.sampled_from(pairs))] = int(kind, 16)
        bad = tuple(v.values())
        below, above = ([kernels.word_vector(word()) for _ in range(data.draw(st.integers(1, 3)))]
                        for _ in range(2))
        rows = [*below, bad, *above]
        alone = [lanes._word_bits(n, 1, list(lane)) is not None for lane in rows]
        assert alone == [lane is not bad for lane in rows]
        for order in (rows, rows[::-1]):
            assert (lanes._word_bits(n, len(order), _columns(order)) is not None) == all(alone)


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


class TestCoverHistogram:
    """`cover_histogram` counts by transfer matrix what the stream of
    `_cover_rows` and the scan of `oracle.descents_by_scan` count one
    cycle at a time; `TestDescentDistribution` ties it to the diagram's
    up-degrees."""

    @pytest.mark.parametrize("n", range(9))
    def test_matches_the_stream_of_cover_rows(self, n):
        streamed = {}
        for ups in poset._cover_rows(n + 1):
            streamed[len(ups)] = streamed.get(len(ups), 0) + 1
        assert cover_histogram(n) == streamed

    @pytest.mark.parametrize("n", range(9))
    def test_matches_the_descent_scan(self, n):
        assert cover_histogram(n) == oracle.descents_by_scan(n)

    @pytest.mark.parametrize("n", range(13))
    def test_is_the_eulerian_row(self, n):
        assert cover_histogram(n) == {k: a for k, a in enumerate(eulerian_row(n)) if a}

    def test_counts_past_the_cap_with_no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated the cycles")

        monkeypatch.setattr(poset, "_cover_rows", refuse)
        monkeypatch.setattr(poset, "permutations", refuse)
        monkeypatch.setenv("CYCLAT_MAX_N", "4")
        assert cover_histogram(14) == dict(enumerate(eulerian_row(14)))


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


def modular_by_diagram(diagram):
    """`check_modular` on the diagram, the reference of the lane form:
    the same rows on the lane up-sets, each pair's join and meet by
    `HasseDiagram.bounds`, read back through `vec_index`, and the ranks
    of those nodes looked up."""
    size, ranks = len(diagram.ranks), diagram.ranks
    up_set = lanes._lane_up_sets(diagram.n, diagram.columns)
    for x in range(size):
        later = ((1 << size) - 1) ^ ((1 << (x + 1)) - 1)
        ys = poset.bits(later & ~up_set(x))
        for y, j, m in zip(ys, *diagram.bounds([x] * len(ys), ys)):
            if ranks[x] + ranks[y] != ranks[m] + ranks[j]:
                witness = {"x": diagram.name(x), "y": diagram.name(y), "meet": diagram.name(m),
                           "join": diagram.name(j),
                           "ranks": [ranks[x], ranks[y], ranks[m], ranks[j]]}
                return {"n": diagram.n, "modular": False, "witness": witness}
    return {"n": diagram.n, "modular": True, "witness": None}


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
        report = check_modular(4, poset._prefix_ranks(4), poset._vector_columns(4))
        assert report["modular"] and report["witness"] is None

    def test_not_modular_at_five(self):
        report = check_modular(5, poset._prefix_ranks(5), poset._vector_columns(5))
        assert not report["modular"]
        ranks = report["witness"]["ranks"]
        assert ranks[0] + ranks[1] != ranks[2] + ranks[3]

    @pytest.mark.parametrize("n, witness", [
        (5, ["(1,2,3,5,4)", "(1,3,2,4,5)", "(1,2,5,3,4)", "(1,3,5,2,4)", [3, 5, 2, 7]]),
        (6, ["(1,2,3,4,6,5)", "(1,2,4,3,5,6)", "(1,2,3,6,4,5)", "(1,2,4,6,3,5)",
             [4, 8, 3, 11]]),
        (7, ["(1,2,3,4,5,7,6)", "(1,2,3,5,4,6,7)", "(1,2,3,4,7,5,6)", "(1,2,3,5,7,4,6)",
             [5, 11, 4, 15]]),
        (8, ["(1,2,3,4,5,6,8,7)", "(1,2,3,4,6,5,7,8)", "(1,2,3,4,5,8,6,7)",
             "(1,2,3,4,6,8,5,7)", [6, 14, 5, 19]])])
    def test_pinned_scan_witnesses(self, monkeypatch, n, witness):
        # the first failing pair of the scan, row by row on lane up-sets
        def refuse(*args):
            raise AssertionError("the scan read a threshold mask")

        monkeypatch.setattr(HasseDiagram, "at_least", property(refuse))
        report = check_modular(n, poset._prefix_ranks(n), poset._vector_columns(n))
        assert not report["modular"]
        assert report["witness"] == dict(zip(["x", "y", "meet", "join", "ranks"], witness))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lanes_agree_with_the_diagram(self, n):
        # verdict and witness, the names and ranks of the join and meet
        # read off the lanes, are those of the bounds looked up as nodes
        assert check_modular(n, poset._prefix_ranks(n), poset._vector_columns(n)) == \
            modular_by_diagram(build(n))

    def test_canonical_witness_quadruple(self):
        from cyclat.vectors import cycle_to_vector, join, meet, vector_to_cycle
        u = cycle_to_vector(CircularPermutation.from_text("(1,4,2,3,5)"))
        v = cycle_to_vector(CircularPermutation.from_text("(1,3,4,2,5)"))
        assert vector_to_cycle(meet(u, v)).as_text() == "(1,4,2,5,3)"
        assert vector_to_cycle(join(u, v)).as_text() == "(1,3,5,4,2)"
        assert [u.rank, v.rank, meet(u, v).rank, join(u, v).rank] == [4, 4, 3, 6]
        # distributivity fails with the same elements (modularity implies it)
        assert not check_modular(5, poset._prefix_ranks(5), poset._vector_columns(5))["modular"]


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


def young_by_masks(diagram, k):
    """The Young truncation check on a built diagram and its threshold
    masks, as the program ran it before it read the lanes: every word
    encoded, each up-set `above_mask`, cut to the truncation."""
    n = diagram.n
    if n < 2 * k:
        raise CyclatError(f"need n >= 2k, got n={n}, k={k}")
    encoding = {t: shuffle_partition(CircularPermutation(word), rank)
                for t, (word, rank) in enumerate(zip(poset._words(n), diagram.ranks))
                if rank <= k}
    ids = list(encoding)
    target = set(partitions_up_to(k))
    bijective = (len(set(encoding.values())) == len(ids)
                 and set(encoding.values()) == target)
    truncation = sum(1 << t for t in ids)
    order_ok = all(
        diagram.above_mask(a) & truncation
        == sum(1 << b for b in ids if partition_leq(encoding[a], encoding[b]))
        for a in ids)
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


def young(n, k):
    """`check_young_limit` on the order-n ranks and columns."""
    return check_young_limit(n, k, poset._prefix_ranks(n), poset._vector_columns(n))


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
        assert young(n, k)["pass"]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_mask_reference(self, n):
        k = min(n // 2, comb(n, 3))
        assert young(n, k) == young_by_masks(build(n), k)

    def test_young_limit_compares_masks_not_pairs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("compared a pair of elements or read a threshold mask")

        monkeypatch.setattr(HasseDiagram, "leq", refuse)
        monkeypatch.setattr(HasseDiagram, "at_least", property(refuse))
        monkeypatch.setattr(kernels, "leq_flat", refuse)
        report = young(6, 3)
        assert report["pass"]
        assert report["rank_sizes"] == {0: 1, 1: 1, 2: 2, 3: 3}

    def test_young_limit_fails_on_a_wrong_order(self, monkeypatch):
        monkeypatch.setattr(poset, "partition_leq", lambda lam, mu: True)
        assert not young(6, 3)["pass"]

    def test_young_limit_requires_large_order(self):
        with pytest.raises(CyclatError):
            young(6, 4)


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

    @pytest.mark.parametrize("n", [8, 12, 16, 24])
    def test_closed_form_potential_past_the_cap(self, n):
        # a seeded random maximal chain, C(n, 3) covers, with no diagram:
        # the product of the labels so far is the word rotated by m(x)
        rng = random.Random(n)
        x, alpha = CircularPermutation.smallest(n), tuple(range(1, n + 1))
        while covers := covers_up(x):
            label, x = rng.choice(covers)
            alpha = compose_transposition(alpha, label.r, label.s)
            v = cycle_to_vector(x)
            assert alpha == conjugator_potential(x.canon, [v[1, j] for j in range(2, n + 1)])
        assert x == CircularPermutation.largest(n)
        assert alpha == conjugator_formula(n)

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

    @pytest.mark.parametrize("n", range(3, 9))
    def test_edge_labels_are_the_step_letters(self, n):
        # each edge's label {r, s} is the letters {i, j} of the one
        # coordinate in which its two rows differ; `alpha` reads the
        # steps off the vector columns, not these labels
        diagram = build(n)
        pairs = list(combinations(range(1, n + 1), 2))
        for lo, hi, r, s in zip(diagram.lo, diagram.hi, diagram.r, diagram.s):
            (k,) = [c for c, (a, b) in enumerate(zip(diagram.rows[lo], diagram.rows[hi]))
                    if a != b]
            assert {r, s} == set(pairs[k])

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


def grading_by_edges(diagram):
    """Node count, rank image, and per-edge rank increments of a built
    diagram, as the program checked them before it read the lanes."""
    n = diagram.n
    image = sorted(set(diagram.ranks))
    increments_ok = all(diagram.ranks[hi] == diagram.ranks[lo] + 1
                        for lo, hi in zip(diagram.lo, diagram.hi))
    size = len(diagram.ranks)
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


class TestGradingReport:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pass(self, n):
        assert checks.grading_report(n, poset._prefix_ranks(n), poset._vector_columns(n),
                                     poset._inversion_columns(n))["pass"]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_the_edge_reference(self, n):
        diagram = build(n)
        assert checks.grading_report(n, diagram.ranks, diagram.columns,
                                     poset._inversion_columns(n)) == \
            grading_by_edges(diagram)
