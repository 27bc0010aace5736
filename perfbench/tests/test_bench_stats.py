import pytest

from perfbench import stats


@pytest.mark.parametrize("count, expected", [
    (0, None), (99, None),           # fewer than 10 samples beyond p90
    (100, 90.0), (999, 90.0),        # 9.99 beyond p99 is not enough
    (1000, 99.0), (9999, 99.0),
    (10000, 99.9), (100000, 99.99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert stats.percentile(values, 50.0) == 500
    assert stats.percentile(values, 99.0) == 990
    assert stats.percentile(values, 99.9) == 999
    assert stats.percentile([5.0], 99.0) == 5.0


def test_percentile_label():
    assert stats.percentile_label(99.0) == "p99"
    assert stats.percentile_label(99.9) == "p99.9"
