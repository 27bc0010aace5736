import pytest

from perfbench.speed import REFERENCE_CAL_S, HostSpeed


def test_samples_scale_by_the_calibrations_around_them():
    now = [0.0]
    durations = iter([REFERENCE_CAL_S, 2 * REFERENCE_CAL_S, 4 * REFERENCE_CAL_S])

    def loop():
        now[0] += next(durations)
    speed = HostSpeed(clock=lambda: now[0], loop=loop)
    for gap in (0.0, 1.0, 1.0):
        now[0] += gap
        speed.sample()
    first, second, third = speed.at
    # between the 1x and 2x calibrations: 1.5x slower than the reference
    assert speed.scaled(first + 0.1, 0.3) == pytest.approx(0.2)
    # between the 2x and 4x calibrations: 3x
    assert speed.scaled(second + 0.1, 0.3) == pytest.approx(0.1)
    # before the first or after the last, only the one neighbour counts
    assert speed.scaled(first - 0.5, 0.2) == pytest.approx(0.2)
    assert speed.scaled(third + 0.5, 0.4) == pytest.approx(0.1)
    assert speed.slowdown() == pytest.approx(2.0)
