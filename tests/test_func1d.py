import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracereg.errors import MonotonicityViolation, OutOfRange, StencilTooSmall
from tracereg.func1d import (UNIT, CurveComposite, GridFunction, Interval,
                             _ladder, cumulative_integral,
                             derivative, integrate, invert_monotone, norm,
                             pchip, second_derivative, sup_bound_check)


def gf(fn, n=101, interval=UNIT):
    return GridFunction(interval, fn(interval.grid(n)))


# ------------------------------------------------------------ types

def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_rejects_infinite_length():
    # finite endpoints whose difference overflows
    with pytest.raises(ValueError, match="interval length inf"):
        Interval(-1e308, 1e308)
    assert Interval(-1e308, 7e307).length() == 1.7e308


def test_gridfunction_invariants():
    with pytest.raises(ValueError):
        GridFunction(UNIT, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        GridFunction(UNIT, np.array([0.0, np.nan, 1.0]))
    f = gf(lambda x: x, 11)
    assert f.spacing == pytest.approx(0.1)
    assert not f.values.flags.writeable


def test_composite_requires_monotone_samples():
    vals = np.array([0.0, 0.5, 0.4, 0.8, 1.0])
    with pytest.raises(MonotonicityViolation):
        CurveComposite(GridFunction(UNIT, vals), 0.1, 2.0)


def test_composite_bracket_checked():
    f = gf(lambda s: s, 101)
    with pytest.raises(MonotonicityViolation):
        CurveComposite(f, deriv_lo=1.5, deriv_hi=2.0)
    c = CurveComposite(f, deriv_lo=1.0, deriv_hi=1.0)
    assert c.image() == Interval(0.0, 1.0)
    # increasing samples whose one-sided end stencil falls below zero
    kinked = GridFunction(UNIT, np.array([0.0, 0.1, 1.0, 1.1, 1.2]))
    with pytest.raises(MonotonicityViolation, match=r"observed \[-1\.2, "):
        CurveComposite(kinked, deriv_lo=0.4, deriv_hi=2.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 200), offset=st.floats(-1e3, 1e3),
       seed=st.integers(0, 10_000))
def test_image_is_the_sample_range(n, offset, seed):
    # image() reads the two end samples; the constructor's check that the
    # samples increase makes them the extremes
    steps = np.random.default_rng(seed).uniform(0.8, 1.2, size=n - 1) / n
    v = offset + np.concatenate(([0.0], np.cumsum(steps)))
    f = GridFunction(UNIT, v)
    d = np.abs(derivative(f).values)
    c = CurveComposite(f, deriv_lo=float(d.min()), deriv_hi=float(d.max()))
    assert c.image() == Interval(float(f.values.min()), float(f.values.max()))


# ------------------------------------------------------------ integrate

def test_integrate_zero():
    assert integrate(gf(lambda x: 0.0 * x)) == 0.0


def test_integrate_linear_exact():
    assert integrate(gf(lambda x: x)) == pytest.approx(0.5, abs=1e-12)


def test_integrate_quadratic_exact():
    # Simpson is exact on quadratics; oracle is the antiderivative x^3/3
    assert integrate(gf(lambda x: x**2)) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_even_node_count():
    # Simpson body plus trapezoid tail; exact for linear integrands
    f = gf(lambda x: 2.0 * x, n=100)
    assert integrate(f) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
       st.integers(2, 80))
def test_integrate_exact_on_quadratics(a, b, c, half_n):
    n = 2 * half_n + 1   # odd node counts
    f = gf(lambda x: a * x**2 + b * x + c, n=n)
    exact = a / 3.0 + b / 2.0 + c
    assert integrate(f) == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))


# ------------------------------------------------------------ norms

def test_norm_constant():
    f = gf(lambda x: np.ones_like(x))
    assert norm(f, "L2") == pytest.approx(1.0, abs=1e-12)
    assert norm(f, "H1") == pytest.approx(1.0, abs=1e-10)
    assert norm(f, "Linf") == 1.0


def test_norm_linear():
    f = gf(lambda x: x)
    assert norm(f, "L2") == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-8)
    assert norm(f, "H1") == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-8)


def test_norm_sine():
    f = gf(lambda x: np.sin(np.pi * x), n=401)
    assert norm(f, "L2") == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


def test_norm_stencil_guard():
    f = GridFunction(UNIT, np.array([0.0, 1.0, 0.5, 0.2]))
    with pytest.raises(StencilTooSmall):
        norm(f, "H1")
    with pytest.raises(ValueError):
        norm(gf(lambda x: x), "H7")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_monotonicity(seed):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=4)
    f = gf(lambda x: coef[0] + coef[1] * x + coef[2] * np.sin(3 * x)
           + coef[3] * np.cos(5 * x), n=201)
    l2, h1, h2 = norm(f, "L2"), norm(f, "H1"), norm(f, "H2")
    assert l2 <= h1 <= h2


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 400), lo=st.floats(-10.0, 10.0), length=st.floats(0.05, 20.0),
       scale=st.sampled_from((1e-100, 1e-3, 1.0, 1e3, 1e100)),
       seed=st.integers(0, 10_000))
def test_sobolev_ladder_entries_are_the_norms(n, lo, length, scale, seed):
    # every rung, whether the ladder stops there or climbs past it, and
    # whether it differentiates f itself or reads the caller's derivative
    f = GridFunction(Interval(lo, lo + length),
                     scale * np.random.default_rng(seed).normal(size=n))
    bits = [norm(f, kind).hex() for kind in ("L2", "H1", "H2")]
    # the Hilbertian sum written out: squared integrals of f, f', f'' added
    # in that order
    total, summed = 0.0, []
    for row in (f, derivative(f), second_derivative(f)):
        total += integrate(GridFunction(f.interval, row.values**2))
        summed.append(math.sqrt(total).hex())
    assert bits == summed
    first = derivative(f).values
    for top in (0, 1, 2):
        rungs = _ladder(f.values, f.spacing, top).tolist()
        assert [v.hex() for v in rungs] == bits[:top + 1]
        if top:
            handed = _ladder(f.values, f.spacing, top, first).tolist()
            assert [v.hex() for v in handed] == bits[:top + 1]


# ------------------------------------------------------------ cumulative

def test_cumulative_zero():
    F = cumulative_integral(gf(lambda x: 0.0 * x))
    assert np.abs(F.values).max() == 0.0


def test_cumulative_constant():
    F = cumulative_integral(gf(lambda x: np.ones_like(x)))
    assert np.abs(F.values - F.nodes).max() < 1e-12


def test_cumulative_linear():
    F = cumulative_integral(gf(lambda t: 1.0 - t))
    x = F.nodes
    assert np.abs(F.values - (x - x**2 / 2)).max() < 1e-10
    assert F.values[0] == 0.0


def test_cumulative_roundtrip():
    f = gf(lambda x: np.sin(2.0 * x) + x, n=401)
    back = derivative(cumulative_integral(f))
    h = f.spacing
    assert np.abs(back.values[2:-2] - f.values[2:-2]).max() <= 10.0 * h**2


# ------------------------------------------------------------ inversion

def test_invert_identity():
    c = CurveComposite(gf(lambda s: s), 1.0, 1.0)
    assert invert_monotone(c, 0.25) == pytest.approx(0.25, abs=1e-12)


def test_invert_quadratic_like():
    # strictly monotone quadratic map; algebraic root as oracle
    c = CurveComposite(gf(lambda s: s * (s + 0.2) / 1.2, n=2001),
                       deriv_lo=0.2 / 1.2, deriv_hi=2.2 / 1.2)
    z = 0.25
    oracle = (-0.2 + np.sqrt(0.04 + 4 * 1.2 * z)) / 2.0
    s = invert_monotone(c, z)
    assert s == pytest.approx(oracle, abs=1e-6)   # pwl extension is authoritative
    assert np.interp(s, c.forward.nodes, c.forward.values) == pytest.approx(
        z, abs=1e-12)


def test_invert_out_of_range():
    c = CurveComposite(gf(lambda s: s), 1.0, 1.0)
    with pytest.raises(OutOfRange):
        invert_monotone(c, 1.5)


def test_invert_roundtrip_on_nodes():
    c = CurveComposite(gf(lambda s: 0.3 + 0.5 * (s + 0.25 * s**2) / 1.25, n=301),
                       deriv_lo=0.5 / 1.25, deriv_hi=0.5 * 1.5 / 1.25)
    s_nodes = c.forward.nodes[1:-1]
    back = invert_monotone(c, c.forward.values[1:-1])
    assert np.abs(back - s_nodes).max() < 1e-10


def test_invert_decreasing_and_monotone_in_z():
    # a decreasing composite is the increasing one read backwards, so its
    # samples are rejected
    with pytest.raises(MonotonicityViolation, match="increasing"):
        CurveComposite(gf(lambda s: 1.0 - s), 1.0, 1.0)
    c = CurveComposite(gf(lambda s: 0.5 + s), 1.0, 1.0)
    z = np.linspace(0.55, 1.45, 41)
    s = invert_monotone(c, z)
    assert np.all(np.diff(s) > 0)
    assert np.abs((0.5 + s) - z).max() < 1e-12


def searchsorted_inverse(c, z):
    # the bracketing-cell formula: locate each query's cell by binary
    # search, then solve the linear piece through its two end samples
    v, s_nodes = c.forward.values, c.forward.nodes
    zc = np.clip(z, v[0], v[-1])
    idx = np.clip(np.searchsorted(v, zc, side="right") - 1, 0, v.size - 2)
    frac = (zc - v[idx]) / (v[idx + 1] - v[idx])
    return s_nodes[idx] + frac * (s_nodes[idx + 1] - s_nodes[idx])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 2001), seed=st.integers(0, 2**32 - 1),
       offset=st.floats(-1e3, 1e3), scale=st.floats(1e-3, 1e3))
def test_invert_matches_searchsorted_formula(n, seed, offset, scale):
    rng = np.random.default_rng(seed)
    # increments within a factor of 2 keep every stencil derivative positive
    steps = np.cumsum(np.r_[0.0, rng.uniform(1.0, 2.0, n - 1)])
    v = offset + scale * steps / steps[-1]
    f = GridFunction(UNIT, v)
    d = np.abs(derivative(f).values)
    c = CurveComposite(f, deriv_lo=d.min(), deriv_hi=d.max())
    lo, hi = v.min(), v.max()
    z = np.concatenate([v, [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)],
                        rng.uniform(lo, hi, 64)])
    s = invert_monotone(c, z)
    assert np.abs(s - searchsorted_inverse(c, z)).max() <= 4 * np.finfo(float).eps
    assert np.array_equal(s[:n], c.forward.nodes)
    scalar = invert_monotone(c, float(z[-1]))
    assert isinstance(scalar, np.ndarray) and scalar.shape == (1,)
    assert scalar[0] == s[-1]
    for beyond in (lo - 2e-12 * max(1.0, abs(lo)), hi + 2e-12 * max(1.0, abs(hi)),
                   -np.inf, np.inf):
        with pytest.raises(OutOfRange):
            invert_monotone(c, beyond)


def test_invert_empty_queries():
    c = CurveComposite(gf(lambda s: s), 1.0, 1.0)
    s = invert_monotone(c, np.array([]))
    assert isinstance(s, np.ndarray) and s.shape == (0,)


def out_of_range_elementwise(c, z):
    # the range rule written out query by query; an infinite query is out
    # of range whatever its (infinite) tolerance
    im = c.image()
    tol = 1e-12 * np.maximum(1.0, np.abs(z))
    return bool(np.any(np.isinf(z)) or np.any(z < im.lo - tol)
                or np.any(z > im.hi + tol))


@settings(max_examples=80, deadline=None)
@given(offset=st.one_of(st.floats(-2.0, 2.0), st.floats(-1e3, 1e3)),
       scale=st.floats(1e-3, 1e3),
       queries=st.lists(st.tuples(st.booleans(),
                                  st.one_of(st.floats(-4.0, 4.0),
                                            st.sampled_from([-1.0, 1.0])),
                                  st.integers(-2, 2)),
                        min_size=1, max_size=8),
       extra=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2))
def test_invert_range_check_matches_elementwise_rule(offset, scale, queries,
                                                     extra):
    # queries a few 1e-12 (relative) from either image end, nudged by ulps;
    # ends below 1 in magnitude take the absolute tolerance, NaN queries
    # pass the rule whatever the others do, and infinite ones fail it
    v = offset + scale * np.linspace(0.0, 1.0, 11)
    c = CurveComposite(GridFunction(UNIT, v), scale, scale)
    im = c.image()
    z = []
    for at_hi, k, ulps in queries:
        end = im.hi if at_hi else im.lo
        q = end + k * 1e-12 * max(1.0, abs(end))
        for _ in range(abs(ulps)):
            q = float(np.nextafter(q, np.inf if ulps > 0 else -np.inf))
        z.append(q)
    z = np.array(z + extra)
    if out_of_range_elementwise(c, z):
        with pytest.raises(OutOfRange):
            invert_monotone(c, z)
    else:
        s = invert_monotone(c, z)
        assert np.all((0.0 <= s[:len(queries)]) & (s[:len(queries)] <= 1.0))


# ------------------------------------------------------------ monotone cubic

def scipy_pchip(f, x):
    # the reference implementation of the same interpolant; tiny slopes
    # overflow its harmonic-mean weights, as they do in pchip
    from scipy.interpolate import PchipInterpolator
    with np.errstate(over="ignore"):
        return PchipInterpolator(f.nodes, f.values, extrapolate=True)(x)


def pchip_queries(f, rng):
    """Nodes, cell midpoints, both ends and one ulp past each, and random
    points inside."""
    x, iv = f.nodes, f.interval
    ends = [iv.lo, iv.hi, np.nextafter(iv.lo, -np.inf), np.nextafter(iv.hi, np.inf),
            np.nextafter(iv.lo, np.inf), np.nextafter(iv.hi, -np.inf)]
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]), ends,
                           rng.uniform(iv.lo, iv.hi, 64)])


PCHIP_CASES = {
    "n3_sign_change": (UNIT, lambda x, rng: np.array([0.0, 1.0, 0.5])),
    "n4_flat_runs": (UNIT, lambda x, rng: np.array([1.0, 1.0, 2.0, 2.0])),
    "n5_signs_and_flat": (UNIT, lambda x, rng: np.array([0.0, 1.0, -1.0, -1.0, 3.0])),
    "n5_monotone": (UNIT, lambda x, rng: np.array([0.0, 0.1, 0.5, 0.6, 2.0])),
    "n2001_smooth": (UNIT, lambda x, rng: np.sin(5.0 * x) + x**2),
    "n2001_rounded": (UNIT, lambda x, rng: np.round(3.0 * np.sin(9.0 * x))),
    "n2001_noise": (UNIT, lambda x, rng: rng.normal(size=x.size)),
    "n2001_shifted_interval": (Interval(-3.7, 12.25),
                               lambda x, rng: np.cos(x) + 0.01 * rng.normal(size=x.size)),
}
PCHIP_SIZES = {"n3": 3, "n4": 4, "n5": 5, "n2001": 2001}


@pytest.mark.parametrize("case", sorted(PCHIP_CASES))
def test_pchip_bit_identical_to_scipy(case):
    interval, make = PCHIP_CASES[case]
    rng = np.random.default_rng(7)
    n = PCHIP_SIZES[case.split("_")[0]]
    f = GridFunction(interval, make(interval.grid(n), rng))
    x = pchip_queries(f, rng)
    assert np.array_equal(pchip(f, x), scipy_pchip(f, x))


def test_pchip_interpolates_and_keeps_monotone_data_monotone():
    f = gf(lambda x: np.where(x < 0.5, x**3, 0.125 + 10.0 * (x - 0.5)), n=41)
    assert np.array_equal(pchip(f, f.nodes), f.values)
    assert np.all(np.diff(pchip(f, np.linspace(0.0, 1.0, 997))) >= 0.0)


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e3, 1e3),
       length=st.floats(1e-3, 1e3),
       values=st.lists(st.one_of(st.integers(-3, 3).map(float),
                                 st.floats(-1e6, 1e6)),
                       min_size=3, max_size=300),
       fractions=st.lists(st.floats(-0.01, 1.01), max_size=50))
def test_pchip_matches_scipy_property(lo, length, values, fractions):
    f = GridFunction(Interval(lo, lo + length), np.array(values))
    x = np.concatenate([f.nodes, lo + length * np.array(fractions),
                        [np.nextafter(lo, -np.inf), np.nextafter(lo + length, np.inf)]])
    assert np.array_equal(pchip(f, x), scipy_pchip(f, x))


# ------------------------------------------------------------ sup bound

def test_sup_bound_constant():
    lhs, rhs = sup_bound_check(gf(lambda x: np.ones_like(x)))
    assert lhs == 1.0
    assert rhs == pytest.approx(2.0 * 3.0 * 1.0, rel=1e-9)
    assert lhs <= rhs


def test_sup_bound_linear():
    lhs, rhs = sup_bound_check(gf(lambda x: x))
    assert lhs == 1.0
    assert rhs == pytest.approx(2.0 * 3.0 * np.sqrt(4.0 / 3.0), rel=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_sup_bound_randomized(seed):
    rng = np.random.default_rng(seed)
    length = rng.uniform(0.1, 10.0)
    lo = rng.uniform(-5.0, 5.0)
    coef = rng.normal(size=3)
    k = rng.integers(1, 9)
    interval = Interval(lo, lo + length)
    x = interval.grid(401)
    f = GridFunction(interval, coef[0] + coef[1] * (x - lo) + coef[2] * np.sin(k * (x - lo)))
    lhs, rhs = sup_bound_check(f)
    assert lhs <= rhs


def test_second_derivative_endpoints():
    f = gf(lambda x: x**2, n=51)
    d2 = second_derivative(f)
    assert np.abs(d2.values - 2.0).max() < 1e-8
