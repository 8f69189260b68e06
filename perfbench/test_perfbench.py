"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import math
import time

import pytest

from spans import Recorder
from stats import (least_squares_slope, quartile_spread, refit_slopes,
                   self_times, typical_op)


def test_typical_op_averages_the_median_of_each_kind():
    samples = [("fast", 1.0), ("slow", 100.0), ("fast", 1.0), ("slow", 100.0),
               ("fast", 2.0), ("slow", 90.0)]
    assert typical_op(samples) == pytest.approx(50.5)


def test_typical_op_of_one_kind_is_its_median():
    assert typical_op([("a", 3.0), ("a", 1.0), ("a", 2.0)]) == 2.0


def test_quartile_spread_of_constant_is_zero():
    assert quartile_spread([2.0] * 10) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_self_time_subtracts_direct_children_only():
    spans = [("op", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("b", 2.0, 3.0, 1),
             ("c", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_recorder_totals_follow_nesting():
    rec = Recorder()

    def inner():
        time.sleep(0.002)

    wrapped = rec.wrap(inner, "inner")
    for _ in range(2):
        with rec.span("op"):
            wrapped()
            wrapped()
    wrapped()                                  # outside any op: ignored
    ops, op_time, totals = rec.layer_totals()
    assert ops == 2
    assert totals["inner"][1] == 4
    assert totals["op"][0] + totals["inner"][0] == pytest.approx(op_time)


def test_patch_and_restore():
    import stats
    original = stats.least_squares_slope
    rec = Recorder()
    seen = []
    rec.patch("stats", "least_squares_slope", "stats.slope",
              after=lambda r, arguments, result: seen.append((arguments, result)))
    assert stats.least_squares_slope([0.0, 1.0], ys=[0.0, 2.0]) == 2.0
    rec.restore()
    assert stats.least_squares_slope is original
    assert [s[0] for s in rec.spans] == ["stats.slope"]
    assert seen == [({"xs": [0.0, 1.0], "ys": [0.0, 2.0]}, 2.0)]


def test_slope_of_exact_line():
    assert least_squares_slope([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]) == pytest.approx(2.0)


def test_refit_recovers_exact_power_law():
    deltas = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    rows = []
    for d in deltas:
        for seed_scale in (0.5, 1.5):          # mean over seeds is 1.0 * law
            rows.append((d, seed_scale * 3.0 * d**0.25, seed_scale * 7.0 * d**0.5))
    s2, s1 = refit_slopes(rows, set())
    assert s2 == pytest.approx(0.25, abs=1e-12)
    assert s1 == pytest.approx(0.5, abs=1e-12)


def test_refit_honours_excluded_deltas():
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    rows = [(d, d**0.6, d**0.6) for d in deltas[1:]]
    rows.append((1e-2, 1.0, 1.0))              # saturated head
    s2, _ = refit_slopes(rows, {1e-2})
    assert s2 == pytest.approx(0.6, abs=1e-12)
    assert not math.isclose(refit_slopes(rows, set())[0], 0.6, abs_tol=1e-3)
