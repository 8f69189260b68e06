"""The property suite's block evaluation against single-sample loops.

Six checks evaluate their samples as (k, n) blocks through trailing-axis
kernels.  These tests hold the kernels to their 1-d calls row by row, each
batched check's per-sample quantities to a loop over single samples written
out here with the public operators, and the ten reports to their text.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tracereg import checks, func1d
from tracereg.checks import _blocks, run_all_checks
from tracereg.func1d import (UNIT, GridFunction, Interval, _first_difference,
                             _ladder, _quadrature, _right_slope,
                             _running_integral, _second_difference,
                             _sup_bound, derivative,
                             integrate, norm, second_derivative,
                             sup_bound_check)
from tracereg.operators import (_null_fit, _null_rows, apply_L, apply_T1,
                                apply_T2alpha, project_W)

# ------------------------------------------------------------ kernels


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


ROW = st.tuples(st.floats(-10.0, 10.0), st.floats(0.05, 20.0), st.floats(1e-3, 0.9))
# two spacings, 3.97/100 and 2.61/1999, whose square libm's pow (Python's
# h**2) rounds otherwise than h*h (NumPy's h**2 of an array)
POW_ROWS = [(0.0, 3.97, 0.5), (0.0, 2.61, 0.1)]


@pytest.mark.parametrize("parity", (0, 1))
@settings(max_examples=8, deadline=None)
@given(n=st.integers(6, 2001), rows=st.lists(ROW, min_size=1, max_size=5),
       scale=st.sampled_from((1e-3, 1.0, 1e3)), seed=st.integers(0, 2**32 - 1))
@example(n=101, rows=POW_ROWS, scale=1.0, seed=0)
@example(n=2001, rows=POW_ROWS, scale=1.0, seed=0)
def test_block_kernels_equal_row_kernels(parity, n, rows, scale, seed):
    n -= n % 2 != parity    # even n runs the trapezoid tail
    k = len(rows)
    intervals = [Interval(lo, lo + length) for lo, length, _ in rows]
    alphas = [alpha for *_, alpha in rows]
    # each row's spacing is its own interval's, as GridFunction.spacing reads it
    hs = [iv.length() / (n - 1) for iv in intervals]
    h = np.array(hs)
    block = scale * np.random.default_rng(seed).normal(size=(k, n))

    for kernel in (_first_difference, _second_difference, _right_slope,
                   _quadrature, _running_integral):
        got = kernel(block, h)
        for j in range(k):
            assert bits(got[j]) == bits(kernel(block[j], hs[j])), kernel.__name__
    first, second = _first_difference(block, h), _second_difference(block, h)
    for top in (0, 1, 2):
        for handed in ((None, None), (first, second)):
            rungs = _ladder(block, h, top, *handed)
            for j in range(k):
                row_handed = [None if d is None else d[j] for d in handed]
                assert bits([r[j] for r in rungs]) == bits(
                    _ladder(block[j], hs[j], top, *row_handed))
    lengths = np.array([iv.length() for iv in intervals])
    sides = _sup_bound(block, lengths, h)
    for j in range(k):
        f = GridFunction(intervals[j], block[j])
        assert bits([s[j] for s in sides]) == bits(sup_bound_check(f))

    # the null-space rows of one alpha per row, and L from them, against the
    # rows of each alpha alone and apply_L on the first row's interval
    iv, hj = intervals[0], hs[0]
    basis = _null_rows(np.array(alphas), iv, n)
    fitted = _null_fit(block, hj, basis)
    shared = _null_fit(block, hj, _null_rows(alphas[0], iv, n))
    for j, alpha in enumerate(alphas):
        assert all(bits(got[j]) == bits(want) for got, want
                   in zip(basis, _null_rows(alpha, iv, n)))
        x = GridFunction(iv, block[j])
        assert bits(fitted[j]) == bits(apply_L(alpha, x).values)
        assert bits(shared[j]) == bits(apply_L(alphas[0], x).values)


# ------------------------------------------------------------ loop references

def smooth(rng, interval, n):
    # one member of the random family, drawn and summed as a single sample
    coef = rng.normal(size=5)
    freq = rng.integers(1, 7, size=3)
    u = np.linspace(0.0, 1.0, n)
    sin, cos, shifted = (np.sin(int(freq[0]) * np.pi * u),
                         np.cos(int(freq[1]) * np.pi * u),
                         np.sin(int(freq[2]) * np.pi * u + 0.7))
    return GridFunction(interval, coef[0] + coef[1] * u + coef[2] * sin
                        + coef[3] * cos + coef[4] * shifted)


def test_t1_ratios_equal_the_loop():
    rng = np.random.default_rng(1)
    want = []
    for _ in range(200):
        w = smooth(rng, UNIT, 801)
        t = apply_T1(w)
        want.append((norm(t, "H1") / norm(w, "L2"), norm(t, "H2") / norm(w, "H1")))
    assert bits(checks._t1_ratios()) == bits(want)


def test_t2alpha_gaps_equal_the_loop():
    rng = np.random.default_rng(2)
    alphas, gaps = checks._t2alpha_gaps()
    want = [[norm(apply_T2alpha(alpha, w) - w, "L2") / norm(w, "H2")
             for w in (smooth(rng, UNIT, 801) for _ in range(60))]
            for alpha in alphas]
    assert alphas == (0.5, 0.1, 0.02)
    assert bits(gaps) == bits(want)


def test_lower_bound_ratios_equal_the_loop():
    rng = np.random.default_rng(3)
    want = []
    for i in range(200):
        alpha = (0.5, 0.1, 0.02)[i % 3]
        w = project_W(alpha, smooth(rng, UNIT, 2001))
        lhs = norm(apply_T2alpha(alpha, w), "L2")
        want.append((lhs / (alpha * norm(w, "H2")),
                     lhs / (np.sqrt(alpha) * norm(w, "H1"))))
    assert bits(checks._lower_bound_ratios()) == bits(want)


def test_nullspace_residuals_equal_the_loop():
    rng = np.random.default_rng(4)
    h, alphas, residuals = checks._nullspace_residuals()
    want = []
    for alpha in alphas:
        for _ in range(50):
            x = smooth(rng, UNIT, 2001)
            lx = apply_L(alpha, x)
            res = alpha * second_derivative(lx).values - lx.values
            w = x - lx
            want.append((
                np.abs(res[1:-1]).max() / max(norm(lx, "Linf"), 1e-12),
                abs(w.values[0]) / max(norm(x, "Linf"), 1e-12),
                abs(derivative(w).values[-1]) / max(norm(x, "H2"), 1e-12),
                norm(project_W(alpha, w) - w, "Linf") / max(norm(w, "Linf"), 1e-12)))
    assert h == UNIT.length() / 2000
    assert alphas == (0.25, 0.04)
    assert bits(residuals) == bits(want)


def test_ibp_residuals_equal_the_loop():
    rng = np.random.default_rng(6)
    want = []
    for _ in range(60):
        alpha = float(rng.uniform(0.05, 0.5))
        w1 = project_W(alpha, smooth(rng, UNIT, 2001))
        w2 = project_W(alpha, smooth(rng, UNIT, 2001))
        lhs = integrate(GridFunction(UNIT, w1.values * second_derivative(w2).values))
        rhs = -integrate(GridFunction(UNIT, derivative(w1).values * derivative(w2).values))
        scale = max(norm(w1, "H1") * norm(w2, "H2"), 1e-12)
        want.append(abs(lhs - rhs) / scale)
    h, residuals = checks._ibp_residuals()
    assert h == UNIT.length() / 2000
    assert bits(residuals) == bits(want)


def test_sup_ratios_equal_the_loop():
    rng = np.random.default_rng(7)
    want = []
    for _ in range(200):
        length = float(rng.uniform(0.1, 10.0))
        lo = float(rng.uniform(-5.0, 5.0))
        # the spacing is the interval's: its length rounds unlike the drawn one
        lhs, rhs = sup_bound_check(smooth(rng, Interval(lo, lo + length), 801))
        want.append(lhs / rhs)
    assert bits(checks._sup_ratios()) == bits(want)


def test_ibp_forms_each_second_difference_once(monkeypatch):
    calls = []

    def counted(v, h):
        calls.append(v.shape)
        return _second_difference(v, h)

    monkeypatch.setattr(func1d, "_second_difference", counted)
    monkeypatch.setattr(checks, "_second_difference", counted)
    checks._ibp_residuals()
    # one per block, for w2: the ladder reads it instead of forming it again
    assert len(calls) == len(_blocks(60, 2001))


# ------------------------------------------------------------ the reports

REPORT = (
    "PASS  T1 norm sandwich: ratio range [1.0000, 1.1685], allowed [1, 2.0000] "
    "with 1% slack",
    "PASS  damped-operator gap <= alpha: sup gaps ['0.4993', '0.0999', '0.0200'] "
    "vs alphas (0.5, 0.1, 0.02)",
    "PASS  lower bounds on the constrained space: worst ratio 1.0041 >= 0.99",
    "PASS  null-space and projection identities: a=0.25: ns=8.36e-08 b0=0.00e+00 "
    "b1'=8.01e-14 idem=9.43e-13; a=0.04: ns=5.20e-07 b0=0.00e+00 b1'=7.38e-14 "
    "idem=2.75e-13",
    "PASS  composition norm sandwich: largest lower ratio 0.9511 <= 1.02, "
    "smallest upper ratio 1.0886 >= 0.98",
    "PASS  integration by parts on the constrained space: worst residual 1.96e-06 "
    "<= 2.50e-02",
    "PASS  sup-norm embedding inequality: worst lhs/rhs = 0.0936",
    "PASS  projection orthogonality and O(h^2) rate: residual 3.1e-17, rate 2.057",
    "PASS  inverse inequality: worst lhs/rhs = 1.0000",
    "PASS  image intersection vs brute force: worst gap/eta = 1.0000",
)


def test_reports_are_pinned():
    results = run_all_checks()
    assert tuple(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}"
                 for r in results) == REPORT
    for r in results:
        assert type(r.passed) is bool, r.name

