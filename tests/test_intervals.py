from types import SimpleNamespace

import numpy as np
import pytest

from tracereg.errors import DegenerateIntersection
from tracereg.func1d import (UNIT, CurveComposite, GridFunction, Interval,
                             invert_monotone)
from tracereg.intervals import admissible_eps, intersect_images


def comp(fn, dlo, dhi, n=401):
    return CurveComposite(GridFunction(UNIT, fn(UNIT.grid(n))), dlo, dhi)


def endpoint_gaps(c1, c2):
    im1, im2 = c1.image(), c2.image()
    return abs(im1.lo - im2.lo), abs(im1.hi - im2.hi)


def test_shifted_images():
    c1 = comp(lambda s: s, 1.0, 1.0)
    c2 = comp(lambda s: s + 0.05, 1.0, 1.0)
    common = intersect_images(c1, c2, eta=0.05)
    assert common == Interval(0.05, 1.0)
    assert endpoint_gaps(c1, c2) == pytest.approx((0.05, 0.05))
    pre_lo, pre_hi = invert_monotone(c2, np.array([common.lo, common.hi]))
    assert 0.0 <= pre_lo < pre_hi <= 1.0


def test_identical_composites():
    c = comp(lambda s: 2.0 * s + 1.0, 2.0, 2.0)
    common = intersect_images(c, c, eta=0.0)
    assert common == Interval(1.0, 3.0)
    assert endpoint_gaps(c, c) == (0.0, 0.0)
    pre_lo, pre_hi = invert_monotone(c, np.array([common.lo, common.hi]))
    assert pre_lo == pytest.approx(0.0, abs=1e-12)
    assert pre_hi == pytest.approx(1.0, abs=1e-12)


def test_degenerate_intersection_guard():
    c1 = comp(lambda s: 0.1 * s, 0.1, 0.1)
    c2 = comp(lambda s: 0.1 * s + 0.06, 0.1, 0.1)
    with pytest.raises(DegenerateIntersection):
        intersect_images(c1, c2, eta=0.06)
    # one image short enough fails it, the other twice as long
    c3 = comp(lambda s: 0.2 * s - 0.05, 0.2, 0.2)
    with pytest.raises(DegenerateIntersection):
        intersect_images(c1, c3, eta=0.06)


def test_eta_must_cover_sup_gap():
    c1 = comp(lambda s: s, 1.0, 1.0)
    c2 = comp(lambda s: s + 0.05, 1.0, 1.0)
    with pytest.raises(ValueError):
        intersect_images(c1, c2, eta=0.01)


def test_measured_gap_is_the_default_bound():
    c1 = comp(lambda s: s + 0.1 * s**2, 0.9, 1.3)
    c2 = comp(lambda s: s + 0.1 * s**2 + 0.02 * np.sin(3.0 * s), 0.8, 1.4)
    gap = float(np.abs(c1.forward.values - c2.forward.values).max())
    assert intersect_images(c1, c2) == intersect_images(c1, c2, eta=gap)
    # without eta the measured gap enters the non-degeneracy condition
    c3 = comp(lambda s: 0.1 * s + 0.06, 0.1, 0.1)
    with pytest.raises(DegenerateIntersection):
        intersect_images(comp(lambda s: 0.1 * s, 0.1, 0.1), c3)


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
        common = intersect_images(c1, c2, eta=eta * (1 + 1e-9))
        # brute-force endpoints from dense sampling
        assert common.lo == pytest.approx(max(base.min(), c2v.min()), abs=1e-12)
        assert common.hi == pytest.approx(min(base.max(), c2v.max()), abs=1e-12)
        assert max(endpoint_gaps(c1, c2)) <= eta * (1 + 1e-9)


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
        intersect_images(c1, c2, eta=eta)   # eta covers the sup gap
        worst = max(endpoint_gaps(c1, c2))
        assert worst <= prev
        prev = worst


@pytest.mark.parametrize("lo,hi,c_g,expected", [
    (0.0, 1.0, 1.0, 0.25),
    (0.0, 4.0, 1.0, 0.5),
    (0.0, 1.0, 10.0, 0.25),
])
def test_admissible_eps(lo, hi, c_g, expected):
    problem = SimpleNamespace(interval=Interval(lo, hi),
                              composite=SimpleNamespace(deriv_lo=c_g))
    assert admissible_eps(problem) == pytest.approx(expected)
