"""Figure 5: expected contention phases vs group size (analytic recurrence,
p = 0.9), cross-checked against a direct Monte-Carlo simulation of the
batch process -- the paper notes these curves 'coincide with the lines of
the average number of contention phases in Figure 9(a) very well'."""

import random

from repro.analysis.recurrence import expected_batch_rounds
from repro.experiments.figures import figure5

from conftest import report


def test_figure5(benchmark):
    result = benchmark(figure5, 20, 0.9)
    report(result, "BMW linear in n; BMMM/LAMM sublinear, < 3 phases even at n=20")

    assert result.series["BMW"][-1] > 20
    assert result.series["BMMM"][-1] < 3
    assert result.series["BMMM"] == result.series["LAMM"]

    # Monte-Carlo cross-check of the recurrence at a few points.
    rng = random.Random(0)
    for n in (5, 15):
        trials = 4000
        total = 0
        for _ in range(trials):
            remaining, rounds = n, 0
            while remaining:
                rounds += 1
                remaining = sum(rng.random() >= 0.9 for _ in range(remaining))
            total += rounds
        mc = total / trials
        assert abs(expected_batch_rounds(n, 0.9) - mc) / mc < 0.05
