from types import SimpleNamespace

import numpy as np
import pytest

from tracereg.errors import DegenerateIntersection
from tracereg.func1d import (UNIT, CurveComposite, GridFunction, Interval,
                             invert_monotone)
from tracereg.intervals import admissible_eps, intersect_images


def comp(fn, dlo, dhi, n=401):
    return CurveComposite(GridFunction.from_callable(UNIT, fn, n), dlo, dhi)


def test_shifted_images():
    c1 = comp(lambda s: s, 1.0, 1.0)
    c2 = comp(lambda s: s + 0.05, 1.0, 1.0)
    res = intersect_images(c1, c2, eta=0.05)
    assert res.common == Interval(0.05, 1.0)
    assert res.endpoint_gaps == pytest.approx((0.05, 0.05))
    pre_lo, pre_hi = invert_monotone(c2, np.array([res.common.lo, res.common.hi]))
    assert 0.0 <= pre_lo < pre_hi <= 1.0


def test_identical_composites():
    c = comp(lambda s: 2.0 * s + 1.0, 2.0, 2.0)
    res = intersect_images(c, c, eta=0.0)
    assert res.common == Interval(1.0, 3.0)
    assert res.endpoint_gaps == (0.0, 0.0)
    pre_lo, pre_hi = invert_monotone(c, np.array([res.common.lo, res.common.hi]))
    assert pre_lo == pytest.approx(0.0, abs=1e-12)
    assert pre_hi == pytest.approx(1.0, abs=1e-12)


def test_degenerate_intersection_guard():
    c1 = comp(lambda s: 0.1 * s, 0.1, 0.1)
    c2 = comp(lambda s: 0.1 * s + 0.06, 0.1, 0.1)
    with pytest.raises(DegenerateIntersection):
        intersect_images(c1, c2, eta=0.06)


def test_eta_must_cover_sup_gap():
    c1 = comp(lambda s: s, 1.0, 1.0)
    c2 = comp(lambda s: s + 0.05, 1.0, 1.0)
    with pytest.raises(ValueError):
        intersect_images(c1, c2, eta=0.01)


def test_gaps_bounded_by_eta_random():
    rng = np.random.default_rng(42)
    n = 801
    s = UNIT.grid(n)
    for _ in range(50):
        beta = rng.uniform(0.1, 0.4)
        base = s + beta * np.sin(np.pi * s) ** 2 / np.pi
        eta = float(rng.uniform(1e-4, 0.04))
        shift = rng.normal(size=2)
        phi = shift[0] * np.sin(np.pi * s) + shift[1] * np.sin(2 * np.pi * s)
        dphi = np.pi * (shift[0] * np.cos(np.pi * s)
                        + 2 * shift[1] * np.cos(2 * np.pi * s))
        phi /= max(np.abs(phi).max(), np.abs(dphi).max() / np.pi)
        c1 = comp(lambda x, b=base: np.interp(x, s, b), (1 - beta) * 0.99,
                  (1 + beta) * 1.01, n=n)
        c2v = base + eta * phi
        c2 = CurveComposite(GridFunction(UNIT, c2v),
                            (1 - beta) * 0.99 - np.pi * eta,
                            (1 + beta) * 1.01 + np.pi * eta)
        res = intersect_images(c1, c2, eta=eta * (1 + 1e-9))
        # brute-force endpoints from dense sampling
        assert res.common.lo == pytest.approx(max(base.min(), c2v.min()), abs=1e-12)
        assert res.common.hi == pytest.approx(min(base.max(), c2v.max()), abs=1e-12)
        assert max(res.endpoint_gaps) <= eta * (1 + 1e-9)


def test_gaps_shrink_with_eta():
    n = 801
    s = UNIT.grid(n)
    base = s
    phi = np.sin(np.pi * s) + 0.3   # fixed perturbation shape
    prev = np.inf
    for eta in (0.04, 0.02, 0.01, 0.005):
        c1 = comp(lambda x: x, 1.0, 1.0, n=n)
        c2 = CurveComposite(GridFunction(UNIT, base + eta * phi / 1.3),
                            1.0 - np.pi * eta, 1.0 + np.pi * eta)
        res = intersect_images(c1, c2, eta=eta)
        worst = max(res.endpoint_gaps)
        assert worst <= prev
        prev = worst


@pytest.mark.parametrize("lo,hi,c_g,expected", [
    (0.0, 1.0, 1.0, 0.25),
    (0.0, 4.0, 1.0, 0.5),
    (0.0, 1.0, 10.0, 0.25),
])
def test_admissible_eps(lo, hi, c_g, expected):
    problem = SimpleNamespace(interval=Interval(lo, hi), c_g=c_g)
    assert admissible_eps(problem) == pytest.approx(expected)
