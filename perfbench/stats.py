"""Plain-Python statistics shared by the benchmark and its self-tests.

Nothing here imports the program under test: the slope refit and the
quantile rules are the benchmark's own, so they can judge the program's
outputs independently.
"""

from __future__ import annotations

import math
import statistics


def typical_op(samples: list[tuple[object, float]]) -> float:
    """Mean over op kinds of each kind's median latency, from (kind,
    latency) samples: what one op of a round costs.  A plain median over
    ops of unequal cost falls in the gap between two kinds and jumps
    between runs."""
    by_kind: dict[object, list[float]] = {}
    for kind, latency in samples:
        by_kind.setdefault(kind, []).append(latency)
    return sum(statistics.median(v) for v in by_kind.values()) / len(by_kind)


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    A span is (name, start, end, parent index or -1).  Spans come from one
    thread and nest, so the children of a span cover disjoint parts of it.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def least_squares_slope(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    if n < 2:
        raise ValueError("a slope needs at least two points")
    xm, ym = sum(xs) / n, sum(ys) / n
    sxx = sum((x - xm) ** 2 for x in xs)
    sxy = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    return sxy / sxx


def refit_slopes(rows: list[tuple[float, float, float]],
                 excluded: set[float]) -> tuple[float, float]:
    """(L2 slope, H1 slope) of log mean error against log delta.

    ``rows`` holds (delta, err_l2, err_h1) for every cell; errors are
    averaged per delta and the deltas in ``excluded`` are left out.
    """
    by_delta: dict[float, list[tuple[float, float]]] = {}
    for delta, e2, e1 in rows:
        by_delta.setdefault(delta, []).append((e2, e1))
    xs, y2, y1 = [], [], []
    for delta, errs in by_delta.items():
        if delta in excluded:
            continue
        xs.append(math.log(delta))
        y2.append(math.log(sum(e for e, _ in errs) / len(errs)))
        y1.append(math.log(sum(e for _, e in errs) / len(errs)))
    return least_squares_slope(xs, y2), least_squares_slope(xs, y1)
