import math

import pytest

import stats


@pytest.mark.parametrize("n, expected", [
    (11, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (420, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    pct = stats.tail_percentile(n)
    assert pct == expected
    if pct is not None:
        beyond = n - stats._rank(n, pct)
        assert beyond >= stats.TAIL_MIN_BEYOND
        assert beyond == n - math.ceil(round(pct * 10) * n / 1000)
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        assert all(n - stats._rank(n, p) < stats.TAIL_MIN_BEYOND for p in higher)


def test_tail_value_has_ten_samples_above_it():
    values = [float(v) for v in range(1, 101)]  # 1..100
    t = stats.tail(values)
    assert t == {"value": 90.0, "percentile": 90.0, "samples": 100}
    assert sum(v > t["value"] for v in values) >= 10


def test_tail_of_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100.0, "samples": 3}


def test_nearest_rank():
    assert stats.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert stats.nearest_rank([5.0, 1.0], 1) == 1.0
