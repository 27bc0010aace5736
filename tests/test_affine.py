"""Affine windows, the weak order, the interval bijection, factorizations."""

import itertools
import random
from math import factorial

import pytest

from cyclat.errors import InvalidWindowError, NotAChainError, NotInIntervalError
from cyclat.affine import (
    AffineWindow,
    SijkFactor,
    chain_factors,
    compose,
    evaluate_factors,
    interval_top,
    inversions,
    left_multiply,
    length,
    project,
    vector_of_window,
    weak_leq,
    window_of_chain,
    window_of_vector,
    window_selfcheck,
)
from cyclat.oracle import enumerate_admitted
from cyclat.perm import CircularPermutation, DescentLabel, all_cycles
from cyclat.vectors import AdmittedVector, cycle_to_vector


def all_vectors(n):
    return [AdmittedVector(n, flat) for flat in enumerate_admitted(n)]


def random_window(n, rng):
    residues = list(range(1, n + 1))
    rng.shuffle(residues)
    offsets = [rng.randint(-3, 3) for _ in range(n - 1)]
    offsets.append(-sum(offsets))
    return AffineWindow(tuple(r + n * k for r, k in zip(residues, offsets)))


def assert_weak_leq_is_containment(wins):
    """weak_leq and length against the definition, on every pair."""
    invs = [inversions(f) for f in wins]
    for f, inv_f in zip(wins, invs):
        assert length(f) == len(inv_f)
        for g, inv_g in zip(wins, invs):
            assert weak_leq(f, g) == (inv_f <= inv_g)


class TestWindowBasics:
    def test_residue_collision_rejected(self):
        with pytest.raises(InvalidWindowError):
            AffineWindow((-3, 5, 0, 8))

    def test_wrong_sum_rejected(self):
        with pytest.raises(InvalidWindowError):
            AffineWindow((2, 3, 4, 5))

    def test_identity_applies_as_identity(self):
        f = AffineWindow.identity(5)
        assert [f(x) for x in range(-7, 8)] == list(range(-7, 8))

    def test_generator_window_application(self):
        s0 = AffineWindow((0, 2, 3, 5))
        assert s0(1) == 0
        assert s0(4) == 5

    def test_periodicity(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_window(5, rng)
            x = rng.randint(-30, 30)
            assert f(x + 5) == f(x) + 5

    def test_text_roundtrip(self):
        f = AffineWindow((-2, 1, 4, 7))
        assert AffineWindow.from_text(f.as_text()) == f

    @pytest.mark.parametrize("text", ["[-2,+1,4,7]", "[-2,1,4,0_7]", "[-2,1,4,\u0667]",
                                      "[-2,1,4,7.0]"])
    def test_parser_takes_only_ascii_digit_integers(self, text):
        with pytest.raises(InvalidWindowError):
            AffineWindow.from_text(text)

    def test_parser_strips_spaces_around_entries(self):
        assert AffineWindow.from_text("[ -2, 1 ,4,7 ]") == AffineWindow((-2, 1, 4, 7))


class TestGeneratorAction:
    def test_s1_on_identity(self):
        assert left_multiply(1, AffineWindow.identity(4)) == \
            AffineWindow((2, 1, 3, 4))

    def test_s0_on_identity(self):
        assert left_multiply(0, AffineWindow.identity(4)) == \
            AffineWindow((0, 2, 3, 5))

    def test_involution(self):
        rng = random.Random(23)
        for _ in range(40):
            f = random_window(4, rng)
            for k in range(4):
                assert left_multiply(k, left_multiply(k, f)) == f

    def test_inversion_count_changes_by_one(self):
        rng = random.Random(31)
        for _ in range(25):
            f = random_window(4, rng)
            for k in range(4):
                g = left_multiply(k, f)
                assert abs(len(inversions(g)) - len(inversions(f))) == 1
                assert len(inversions(g) ^ inversions(f)) == 1


class TestLengthAndOrder:
    def test_identity_has_length_zero(self):
        for n in range(1, 7):
            assert length(AffineWindow.identity(n)) == 0

    def test_top_length_is_binomial(self):
        from math import comb
        for n in range(2, 8):
            assert length(interval_top(n)) == comb(n, 3)

    def test_length_equals_inversion_count_on_random_windows(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_window(5, rng)
            assert length(f) == len(inversions(f))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_length_grades_the_interval(self, n):
        for v in all_vectors(n):
            assert length(window_of_vector(v)) == v.rank

    def test_identity_below_whole_interval(self):
        for v in all_vectors(4):
            assert weak_leq(AffineWindow.identity(4), window_of_vector(v))

    @pytest.mark.parametrize("n", [4, 5])
    def test_order_embedding(self, n):
        vs = all_vectors(n)
        wins = [window_of_vector(v) for v in vs]
        for a in range(len(vs)):
            for b in range(len(vs)):
                assert weak_leq(wins[a], wins[b]) == (vs[a] <= vs[b])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_weak_leq_is_inversion_containment_on_the_interval(self, n):
        assert_weak_leq_is_containment([window_of_vector(v) for v in all_vectors(n)])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_weak_leq_is_inversion_containment_off_the_interval(self, n):
        # sorted windows are increasing; keep those with a consecutive
        # gap of n or more, which lie outside the interval
        rng = random.Random(1000 + n)
        wins = []
        while len(wins) < 25:
            f = AffineWindow(tuple(sorted(random_window(n, rng).entries)))
            a = f.entries
            if any(a[i + 1] - a[i] >= n for i in range(n - 1)):
                wins.append(f)
        assert_weak_leq_is_containment(wins)

    def test_known_incomparable_pair(self):
        f = window_of_vector(cycle_to_vector(
            CircularPermutation.from_text("(1,4,2,3,5)")))
        g = window_of_vector(cycle_to_vector(
            CircularPermutation.from_text("(1,3,4,2,5)")))
        assert not weak_leq(f, g) and not weak_leq(g, f)

    def test_general_window_comparison_falls_back_to_sets(self):
        s1 = AffineWindow((2, 1, 3, 4))
        assert weak_leq(AffineWindow.identity(4), s1)
        assert not weak_leq(s1, AffineWindow.identity(4))

    @pytest.mark.parametrize("n", [4, 5])
    def test_inversions_nest_along_chains(self, n):
        from cyclat.perm import covers_up
        sigma = CircularPermutation.smallest(n)
        seen = inversions(window_of_vector(cycle_to_vector(sigma)))
        while True:
            ups = covers_up(sigma)
            if not ups:
                break
            _, sigma = ups[-1]
            nxt = inversions(window_of_vector(cycle_to_vector(sigma)))
            assert seen < nxt
            seen = nxt


class TestIntervalBijection:
    def test_zero_maps_to_identity(self):
        for n in range(1, 7):
            assert window_of_vector(AdmittedVector.zero(n)) == \
                AffineWindow.identity(n)

    def test_maximum_maps_to_top(self):
        for n in range(2, 8):
            assert window_of_vector(AdmittedVector.maximum(n)) == interval_top(n)

    def test_top_windows(self):
        assert interval_top(4) == AffineWindow((-2, 1, 4, 7))
        assert interval_top(5) == AffineWindow((-5, -1, 3, 7, 11))

    def test_degenerate_top_windows(self):
        assert interval_top(1) == AffineWindow.identity(1)
        assert interval_top(2) == AffineWindow.identity(2)

    def test_top_involution_parity(self):
        for n in range(3, 9):
            fc = interval_top(n)
            assert (compose(fc, fc) == AffineWindow.identity(n)) == (n % 2 == 1)

    def test_images_are_increasing(self):
        for v in all_vectors(5):
            assert window_of_vector(v).is_increasing()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_roundtrip(self, n):
        for v in all_vectors(n):
            assert vector_of_window(window_of_vector(v)) == v

    def test_non_increasing_rejected(self):
        # (-2, 2, 6) is increasing, but its consecutive entries are 4 apart
        # and n = 3
        for entries in ((2, 1, 3, 4), (-2, 2, 6)):
            with pytest.raises(NotInIntervalError):
                vector_of_window(AffineWindow(entries))
            with pytest.raises(NotInIntervalError):
                project(AffineWindow(entries))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_membership_rule_names_exactly_the_images(self, n):
        # every window with consecutive differences d_i in 1..n-1: the
        # sum n(n+1)/2 fixes the first entry
        ruled = set()
        for d in itertools.product(range(1, n), repeat=n - 1):
            first, rest = divmod(n * (n + 1) // 2
                                 - sum((n - 1 - i) * d_i for i, d_i in enumerate(d)), n)
            entries = tuple(itertools.accumulate(d, initial=first))
            if rest == 0 and len({a % n for a in entries}) == n:
                ruled.add(entries)
        images = {window_of_vector(v).entries for v in all_vectors(n)}
        assert ruled == images
        assert len(images) == factorial(n - 1)

    def test_projection_endpoints(self):
        for n in range(2, 7):
            assert project(AffineWindow.identity(n)) == \
                CircularPermutation.smallest(n)
            assert project(interval_top(n)) == CircularPermutation.largest(n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_projection_roundtrip(self, n):
        for s in all_cycles(n):
            assert project(window_of_vector(cycle_to_vector(s))) == s


class TestSelfcheck:
    def test_identity_window(self):
        assert window_selfcheck(AffineWindow.identity(6))

    def test_legal_example_window(self):
        assert window_selfcheck(AffineWindow((-3, 6, 0, 7)))

    def test_thousand_random_windows(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 7)
            assert window_selfcheck(random_window(n, rng))


class TestCoverAction:
    """Bumping one admitted coordinate is a left generator step with
    k = a_j mod n, and the length rises by one."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_cover_is_generator_step(self, n):
        from cyclat.kernels import is_admitted_flat, pair_index
        from itertools import combinations
        for v in all_vectors(n):
            f = window_of_vector(v)
            for i, j in combinations(range(1, n + 1), 2):
                bumped = list(v.flat)
                bumped[pair_index(n, i, j)] += 1
                if not is_admitted_flat(n, tuple(bumped)):
                    continue
                v2 = AdmittedVector(n, tuple(bumped))
                k = f.entries[j - 1] % n
                assert window_of_vector(v2) == left_multiply(k, f)
                assert length(window_of_vector(v2)) == length(f) + 1


class TestFactorization:
    def test_empty_chain(self):
        assert window_of_chain(4, []) == AffineWindow.identity(4)

    def test_single_step(self):
        n = 5
        factors = chain_factors(n, [DescentLabel(1, n)])
        assert factors == [SijkFactor(1, n, 1)]
        flat = [0] * (n * (n - 1) // 2)
        flat[n - 2] = 1  # component (1, n)
        assert evaluate_factors(n, factors) == \
            window_of_vector(AdmittedVector(n, tuple(flat)))

    def test_all_maximal_chains_evaluate_to_top(self):
        from cyclat.poset import build
        diagram = build(4)

        def chains(t):
            if not diagram.up[t]:
                yield []
                return
            for lo, hi, label in diagram.edges:
                if lo == t:
                    for rest in chains(hi):
                        yield [label] + rest

        count = 0
        for chain in chains(diagram.bottom):
            count += 1
            assert window_of_chain(4, chain) == interval_top(4)
        assert count > 1

    def test_factor_multiplicities_count_repeats(self):
        chain = [DescentLabel(1, 4), DescentLabel(2, 4),
                 DescentLabel(1, 3), DescentLabel(1, 4)]
        ks = [f.k for f in chain_factors(4, chain)]
        assert ks == [1, 1, 1, 2]

    def test_bad_chain_rejected(self):
        with pytest.raises(NotAChainError):
            chain_factors(4, [DescentLabel(1, 3), DescentLabel(1, 3)])

    def test_out_of_range_label_rejected(self):
        with pytest.raises(NotAChainError):
            chain_factors(4, [DescentLabel(1, 5)])

    @pytest.mark.parametrize("n", [4, 5])
    def test_factorization_reaches_every_element(self, n):
        # greedy chain to each vector; product must equal its window
        from cyclat.kernels import is_admitted_flat, pair_index
        for v in all_vectors(n):
            chain = []
            flat = [0] * len(v.flat)
            while tuple(flat) != v.flat:
                for (i, j) in [(i, j) for i in range(1, n + 1)
                               for j in range(i + 1, n + 1)]:
                    t = pair_index(n, i, j)
                    if flat[t] < v.flat[t]:
                        flat[t] += 1
                        if is_admitted_flat(n, tuple(flat)):
                            chain.append(DescentLabel(i, j))
                            break
                        flat[t] -= 1
                else:
                    pytest.fail("no admissible step found")
            assert window_of_chain(n, chain) == window_of_vector(v)
