"""The tail-percentile rule: the highest percentile with at least ten
samples beyond it, reported with the sample count."""

from perfbench.harness import tail
from repro.bench.stats import percentile


def ramp(n):
    return [float(i) for i in range(n)]


def test_too_few_samples_have_no_tail():
    assert tail([]) is None
    assert tail([1.0] * 20) is None


def test_median_is_the_tail_from_21_samples():
    assert tail(ramp(21)) == (50.0, 10.0)


def test_each_percentile_needs_ten_samples_beyond_it():
    assert tail(ramp(100))[0] == 75.0
    assert tail(ramp(101))[0] == 90.0
    assert tail(ramp(200))[0] == 90.0
    assert tail(ramp(201))[0] == 95.0
    assert tail(ramp(1000))[0] == 95.0
    assert tail(ramp(1001))[0] == 99.0


def test_tail_value_has_ten_samples_beyond_it():
    for n in (21, 57, 101, 333, 1001):
        samples = ramp(n)
        p, value = tail(samples)
        assert value == percentile(samples, p)
        assert sum(1 for s in samples if s > value) >= 10
