import pytest

from perfbench.stats import MIN_SAMPLES_BEYOND, percentile, samples_needed


def test_samples_needed_leaves_ten_beyond():
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90


def test_percentile_exact_rank_at_the_boundary():
    # 0.99 * 1000 is rank 990 exactly, leaving ten samples beyond it.
    values = list(range(1000))
    assert percentile(values, 99) == 989


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile([], 50)
    assert MIN_SAMPLES_BEYOND == 10


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 100)

