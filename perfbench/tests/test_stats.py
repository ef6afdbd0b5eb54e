import pytest

from perfbench.stats import percentile, tail_percentile, worse_by


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize("n, expected", [
    (19, None),      # 9.5 samples above the median: nothing is supported
    (20, 50.0),
    (99, 75.0),      # p90 would leave 9.9 samples beyond it
    (100, 90.0),     # exactly 10 beyond p90
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_worse_by_follows_the_metric_direction():
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
