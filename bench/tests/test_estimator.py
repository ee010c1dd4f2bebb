"""The estimator on synthetic timings, and the queue replay by hand."""

import random

import pytest

from bench.estimator import clean_time, lindley_sojourns, percentile, spread


def test_clean_time_survives_slow_phases():
    """Step times with 30 % slow phases injected: a raw median is off by
    the share of slow executions, the clean time stays within 2 %."""
    rng = random.Random(7)
    true_steps = [rng.uniform(0.002, 0.006) for _ in range(140)] + [0.120, 0.250]
    truth = sum(true_steps)
    repetitions = []
    for repetition in range(16):
        slow_until = -1
        times = []
        for index, step in enumerate(true_steps):
            # A slow phase starts now and then and lasts a while; one
            # repetition in four is slow from end to end.
            if rng.random() < 0.03:
                slow_until = index + rng.randint(5, 60)
            slow = index <= slow_until or repetition % 4 == 3
            jitter = 1.0 + abs(rng.gauss(0.0, 0.01))
            times.append(step * jitter * (1.3 if slow else 1.0))
        repetitions.append(times)
    estimate = clean_time(repetitions)
    assert estimate.clean_s >= truth
    assert estimate.clean_s == pytest.approx(truth, rel=0.02)
    assert estimate.raw_median_s > truth * 1.05
    assert estimate.raw_fastest_s >= estimate.clean_s
    assert 0.0 <= estimate.confirmed_share <= 1.0
    assert estimate.repetitions == 16 and len(estimate.steps) == 142


def test_clean_time_refuses_a_sequence_that_changes_length():
    with pytest.raises(ValueError, match="not fixed"):
        clean_time([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        clean_time([])


def test_confirmed_share_counts_minima_seen_twice():
    estimate = clean_time([[1.00, 2.0], [1.02, 3.0], [1.50, 4.0]])
    assert estimate.steps == [1.00, 2.0]
    assert estimate.confirmed_share == 0.5


def test_lindley_matches_a_hand_computed_queue():
    # Jobs due every 2 s needing 1, 5, 1, 1, 1 s at one server:
    #   job 0 starts 0, ends 1            -> 1
    #   job 1 due 2, starts 2, ends 7     -> 5
    #   job 2 due 4, starts 7, ends 8     -> 4
    #   job 3 due 6, starts 8, ends 9     -> 3
    #   job 4 due 8, starts 9, ends 10    -> 2
    assert lindley_sojourns([1, 5, 1, 1, 1], 2.0) == [1, 5, 4, 3, 2]
    assert lindley_sojourns([1, 1, 1], 5.0) == [1, 1, 1]
    with pytest.raises(ValueError):
        lindley_sojourns([1.0], 0.0)


def test_percentile_and_spread():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([3.0], 0.99) == 3.0
    assert spread([5.0] * 10) == 0.0
    # quantiles(n=4) of 1..10 are 2.75 and 8.25 around a median of 5.5.
    assert spread(list(range(1, 11))) == pytest.approx(1.0)
