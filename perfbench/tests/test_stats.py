import pytest

from perfbench.stats import percentile


def test_nearest_rank_with_sample_count():
    values = [float(v) for v in range(100, 0, -1)]
    p50, p90 = percentile(values, 50), percentile(values, 90)
    assert (p50.value, p50.samples, p50.beyond) == (50.0, 100, 50)
    assert (p90.value, p90.samples, p90.beyond) == (90.0, 100, 10)


def test_small_sample_reports_how_little_lies_beyond():
    p90 = percentile([3.0, 1.0, 2.0], 90)
    assert (p90.value, p90.samples, p90.beyond) == (3.0, 3, 0)
    assert percentile([5.0], 50).as_dict() == {"value": 5.0, "samples": 1, "beyond": 0}


@pytest.mark.parametrize("values, q", [([], 50), ([1.0], 0), ([1.0], 101)])
def test_rejects_empty_samples_and_bad_ranks(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)
