"""Words, cycles, descents, covers, and the two anti-automorphisms."""

import pytest
from hypothesis import given, strategies as st

from cyclat.errors import InvalidWordError
from cyclat.perm import (
    CircularPermutation,
    DescentLabel,
    all_cycles,
    complement,
    covers_down,
    covers_up,
    inversion_bit,
    invert,
    large_circular_ascents,
    large_circular_descents,
    word_rank,
)
from cyclat.poset import compare, Comparison


def cycle(*letters):
    return CircularPermutation.from_word(letters)


class TestInversionBit:
    def test_identity_word_has_no_inversions(self):
        assert inversion_bit((1, 2, 3, 4), 1, 2) == 0

    def test_reversed_word_has_all_inversions(self):
        assert inversion_bit((4, 3, 2, 1), 1, 4) == 1

    def test_direct_scan(self):
        assert inversion_bit((5, 2, 3, 4, 1), 2, 5) == 1

    def test_rejects_bad_indices(self):
        with pytest.raises(IndexError):
            inversion_bit((1, 2, 3), 2, 2)
        with pytest.raises(IndexError):
            inversion_bit((1, 2, 3), 1, 4)


class TestWordRank:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_identity_has_rank_zero(self, n):
        assert word_rank(tuple(range(1, n + 1))) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reversal_has_binomial_rank(self, n):
        from math import comb
        assert word_rank(tuple(range(n, 0, -1))) == comb(n, 3)

    def test_cover_of_bottom(self):
        assert word_rank((5, 2, 3, 4, 1)) == 1

    @given(st.permutations(list(range(1, 7))))
    def test_rotation_invariance(self, letters):
        word = tuple(letters)
        ranks = {word_rank(word[k:] + word[:k]) for k in range(len(word))}
        assert len(ranks) == 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_rank_image_is_initial_segment(self, n):
        from math import comb
        image = {s.rank for s in all_cycles(n)}
        assert image == set(range(comb(n, 3) + 1))

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidWordError):
            word_rank((1, 1, 2))


class TestCanonicalForm:
    def test_any_rotation_canonicalizes(self):
        assert cycle(3, 4, 5, 1, 2) == cycle(1, 2, 3, 4, 5)

    def test_parser_accepts_any_rotation(self):
        assert CircularPermutation.from_text("(4,2,3,1)") == cycle(1, 4, 2, 3)

    def test_text_roundtrip(self):
        s = cycle(1, 6, 4, 2, 3, 5)
        assert CircularPermutation.from_text(s.as_text()) == s

    @pytest.mark.parametrize("text", ["(1,2,\u0663)", "(1,+2,3)", "(1,0_2,3)", "(1,-2,3)"])
    def test_parser_takes_only_ascii_digit_letters(self, text):
        with pytest.raises(InvalidWordError):
            CircularPermutation.from_text(text)

    def test_parser_strips_spaces_around_letters(self):
        assert CircularPermutation.from_text("( 1, 3 ,2 )") == cycle(1, 3, 2)

    def test_rejects_word_not_starting_with_one(self):
        with pytest.raises(InvalidWordError):
            CircularPermutation((2, 1, 3))

    def test_singleton(self):
        assert cycle(1).n == 1
        assert cycle(1).rank == 0


class TestDescentsAndAscents:
    def test_known_six_cycle_descents(self):
        labels = large_circular_descents(cycle(1, 4, 2, 6, 5, 3))
        assert labels == {DescentLabel(1, 3), DescentLabel(2, 4), DescentLabel(3, 5)}

    def test_increasing_cycle_has_single_descent(self):
        for n in range(3, 8):
            labels = large_circular_descents(CircularPermutation.smallest(n))
            assert labels == {DescentLabel(1, n)}

    def test_top_has_no_descents(self):
        for n in range(2, 8):
            assert large_circular_descents(CircularPermutation.largest(n)) == set()

    def test_three_cycle_ascent(self):
        assert large_circular_ascents(cycle(1, 3, 2)) == {DescentLabel(1, 3)}

    def test_bottom_has_no_ascents(self):
        for n in range(1, 8):
            assert large_circular_ascents(CircularPermutation.smallest(n)) == set()

    def test_no_labels_exist_below_order_three(self):
        assert large_circular_descents(cycle(1)) == set()
        assert large_circular_descents(cycle(1, 2)) == set()
        assert large_circular_ascents(cycle(1, 2)) == set()


class TestCovers:
    def test_bottom_cover(self):
        assert covers_up(cycle(1, 2, 3, 4, 5)) == [
            (DescentLabel(1, 5), cycle(1, 5, 2, 3, 4))
        ]

    def test_same_cover_from_other_representative(self):
        # (34512) -> (34152) is the same edge seen from another rotation
        lhs = CircularPermutation.from_word((3, 4, 5, 1, 2))
        rhs = CircularPermutation.from_word((3, 4, 1, 5, 2))
        assert (DescentLabel(1, 5), rhs) in covers_up(lhs)

    def test_top_has_no_covers_above(self):
        for n in range(1, 8):
            assert covers_up(CircularPermutation.largest(n)) == []

    def test_bottom_has_no_covers_below(self):
        for n in range(1, 8):
            assert covers_down(CircularPermutation.smallest(n)) == []

    def test_down_inverts_up(self):
        assert covers_down(CircularPermutation.from_word((5, 2, 3, 4, 1))) == [
            (DescentLabel(1, 5), cycle(1, 2, 3, 4, 5))
        ]

    @pytest.mark.parametrize("n", [4, 5])
    def test_up_down_globally_consistent(self, n):
        ups = {(s, label, t) for s in all_cycles(n)
               for label, t in covers_up(s)}
        downs = {(s, label, t) for t in all_cycles(n)
                 for label, s in covers_down(t)}
        assert ups == downs

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cover_raises_rank_by_one(self, n):
        for s in all_cycles(n):
            for _, t in covers_up(s):
                assert t.rank == s.rank + 1

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cover_count_is_descent_count(self, n):
        for s in all_cycles(n):
            assert len(covers_up(s)) == len(large_circular_descents(s))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cover_is_conjugation_by_label(self, n):
        for s in all_cycles(n):
            for label, t in covers_up(s):
                r, q = label.r, label.s
                swap = {r: q, q: r}
                for x in range(1, n + 1):
                    image = swap.get(s.successor(swap.get(x, x)),
                                     s.successor(swap.get(x, x)))
                    assert t.successor(x) == image

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_label_duality_with_upper_neighbour(self, n):
        for s in all_cycles(n):
            for label, t in covers_up(s):
                assert label in large_circular_ascents(t)
                assert label in large_circular_descents(s)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_unique_bottom_and_top(self, n):
        bottoms = [s for s in all_cycles(n) if not covers_down(s)]
        tops = [s for s in all_cycles(n) if not covers_up(s)]
        assert bottoms == [CircularPermutation.smallest(n)]
        assert tops == [CircularPermutation.largest(n)]


class TestAntiAutomorphisms:
    def test_invert_bottom_gives_top(self):
        for n in range(1, 8):
            assert invert(CircularPermutation.smallest(n)) == \
                CircularPermutation.largest(n)

    def test_complement_bottom_gives_top(self):
        for n in range(1, 8):
            assert complement(CircularPermutation.smallest(n)) == \
                CircularPermutation.largest(n)

    @pytest.mark.parametrize("op", [invert, complement])
    def test_involution(self, op):
        for s in all_cycles(5):
            assert op(op(s)) == s

    @pytest.mark.parametrize("op", [invert, complement])
    def test_order_reversing(self, op):
        flips = {Comparison.LT: Comparison.GT, Comparison.GT: Comparison.LT,
                 Comparison.EQ: Comparison.EQ,
                 Comparison.INCOMPARABLE: Comparison.INCOMPARABLE}
        elements = list(all_cycles(5))
        for s in elements:
            for t in elements:
                assert compare(op(s), op(t)) == flips[compare(s, t)]
