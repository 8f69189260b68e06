"""The property suite's block evaluation against single-sample loops.

Nine checks evaluate their samples as (k, n) blocks through trailing-axis
kernels.  These tests hold the kernels to their 1-d calls row by row and to
the public functions whose rules they carry, rejections included, each
batched check's per-sample quantities to a loop over single samples written
out here with the public operators, and the ten reports to their text.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tracereg import checks, func1d
from tracereg.checks import _draw, _sampled, run_all_checks
from tracereg.errors import TracregError
from tracereg.func1d import (_BLOCK, UNIT, CurveComposite, GridFunction, Interval,
                             _blocks, _check_bracket, _first_difference, _ladder,
                             _pchip, _quadrature, _right_slope, _running_integral,
                             _Scratch, _second_difference, _sup_bound, derivative,
                             integrate, invert_monotone, norm, pchip,
                             second_derivative, sup_bound_check)
from tracereg.intervals import _common_ends, intersect_images
from tracereg.operators import (_null_fit, _null_rows, apply_L, apply_T1,
                                apply_T2alpha, apply_T3, project_W)
from tracereg.pwl import _worst_cell, inverse_inequality_check

# ------------------------------------------------------------ kernels


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


ROW = st.tuples(st.floats(-10.0, 10.0), st.floats(0.05, 20.0), st.floats(1e-3, 0.9))
# two spacings, 3.97/100 and 2.61/1999, whose square libm's pow (Python's
# h**2) rounds otherwise than h*h (NumPy's h**2 of an array)
POW_ROWS = [(0.0, 3.97, 0.5), (0.0, 2.61, 0.1)]


@pytest.mark.parametrize("parity", (0, 1))
@settings(max_examples=8, deadline=None)
@given(n=st.integers(6, 2001), rows=st.lists(ROW, min_size=1, max_size=8),
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

    # pchip of each row on the first row's grid at its own queries (half of
    # them nodes, the rest in and beyond the interval, and one ulp outside
    # either end), the last row rounded to flats and sign changes; through no
    # scratch, and twice through one that keeps its buffers and weights
    y = block.copy()
    y[-1] = np.round(y[-1])
    rng = np.random.default_rng(seed)
    queries = iv.lo + iv.length() * rng.uniform(-0.05, 1.05, size=(k, n))
    nodes = GridFunction(iv, y[0]).nodes
    queries[:, ::2] = nodes[::2]
    queries[:, 1], queries[:, -1] = np.nextafter(iv.lo, -np.inf), np.nextafter(iv.hi, np.inf)
    want = [bits(pchip(GridFunction(iv, y[j]), queries[j])) for j in range(k)]
    kept = _Scratch()
    for scratch in (None, kept, kept):
        got = _pchip(y, nodes, iv, queries, scratch)
        assert [bits(row) for row in got] == want


def outcome(call):
    # what a call returns, as bits, or the type and the text of its error
    try:
        result = call()
    except (ValueError, TracregError) as err:
        return type(err), str(err)
    return bits(result)


def agree(kernel, public, k):
    # a kernel on rows of a block against the public function on each row
    # alone: on a single row, the same result or error; on the whole block,
    # every row's result when all pass, else the error a failing row raises
    rows = [outcome(lambda: public(j)) for j in range(k)]
    assert [outcome(lambda: kernel(slice(j, j + 1))) for j in range(k)] == rows
    failed = [r for r in rows if isinstance(r, tuple)]
    got = outcome(lambda: kernel(slice(None)))
    assert got in failed if failed else got == b"".join(rows)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(5, 40), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(n=15, k=4, seed=1)   # meshes of 14 and 18 cells, whose 1/N NumPy's
@example(n=19, k=4, seed=2)   # array power rounds unlike libm's pow
def test_block_rules_equal_the_public_calls(n, k, seed):
    rng = np.random.default_rng(seed)
    h = UNIT.length() / (n - 1)
    # increasing rows with brackets [lo, hi] that some rows leave, some rows
    # then given a flat step or scaled near the float range
    v = np.cumsum(rng.uniform(0.6, 1.4, size=(k, n)) * h, axis=-1)
    d = _first_difference(v, h)
    lo = d.min(axis=-1) * rng.choice((0.95, 1.0, 1.0 + 2e-6), size=k)
    hi = np.maximum(d.max(axis=-1) * rng.choice((1.05, 1.0, 1.0 - 2e-6), size=k), lo)
    for j, row in enumerate(v):
        pick = rng.uniform()
        if pick < 0.2:
            row[rng.integers(1, n):] -= row[-1] - row[-2]   # one step flat
        elif pick < 0.3:
            scale = 1e308 / row[-1]
            row *= scale
            lo[j] *= scale
            hi[j] *= scale
    with np.errstate(all="ignore"):
        agree(lambda r: _check_bracket(v[r], h, lo[r], hi[r], 0.0) or lo[r],
              lambda j: CurveComposite(GridFunction(UNIT, v[j]), lo[j], hi[j]).deriv_lo, k)

    # pairs of increasing rows a declared eta apart, or less, or far more
    w = np.cumsum(rng.uniform(0.6, 1.4, size=(k, n)) * h, axis=-1)
    w2 = w + rng.uniform(-0.25, 0.25, size=(k, n)) * h
    comps = [[CurveComposite._certified(GridFunction(UNIT, r), 1.0, 1.0) for r in x]
             for x in (w, w2)]
    gap = np.abs(w - w2).max(axis=-1)
    for eta in (None, gap * rng.choice((0.5, 1.0, 2.0, 2.0, 1e4), size=k)):
        agree(lambda r: np.stack(_common_ends(w[r], w2[r], None if eta is None else eta[r]),
                                 axis=-1),
              lambda j: astuple(intersect_images(comps[0][j], comps[1][j],
                                                 None if eta is None else float(eta[j]))), k)

    # mesh functions of 2 to n - 1 cells, each of one sign, padded to the
    # block's widest (a padding cell, a value against a zero, would win
    # over every such cell); the first has n - 1 cells of moderate size, the
    # others some values near the float range
    cells = rng.integers(2, n, size=k)
    cells[0] = n - 1
    scale = rng.choice((-1.0, 1.0, 1e154, 1e308), size=(k, 1))
    scale[0] = 1.0
    u = rng.uniform(0.1, 1.0, size=(k, n)) * scale
    u[np.arange(n) > cells[:, None]] = 0.0
    for m in (0, 1):
        with np.errstate(all="ignore"):
            agree(lambda r: np.stack(_worst_cell(u[r], UNIT.length() / cells[r], m, cells[r]),
                                     axis=-1),
                  lambda j: inverse_inequality_check(GridFunction(UNIT, u[j, :cells[j] + 1]), m),
                  k)


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


@pytest.mark.parametrize("count, n", ((7, 2 * _BLOCK), (45, 801), (200, 2001), (1, 5121)))
def test_sampled_blocks_equal_the_loop(count, n):
    # a draw of mixed parts: a uniform, then a member of the smooth family
    def draw(rng):
        return rng.uniform(), *_draw(rng)

    rng = np.random.default_rng(count)
    want = [draw(rng) for _ in range(count)]
    blocks = list(_sampled(np.random.default_rng(count), count, n, draw))
    step = max(1, _BLOCK // n)
    assert [len(block) for block, *_ in blocks] == [
        min(step, count - i) for i in range(0, count, step)]
    assert [i for block, *_ in blocks for i in block] == list(range(count))
    for got, part in zip(zip(*(parts for _, *parts in blocks)), zip(*want)):
        assert bits(np.concatenate(got)) == bits(part)


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


def test_t3_ratios_equal_the_loop():
    rng = np.random.default_rng(5)
    u = np.linspace(0.0, 1.0, 1601)
    want = []
    for _ in range(40):
        beta = rng.uniform(0.1, 0.45)
        dlo, dhi = 1.0 - beta, 1.0 + beta
        comp = CurveComposite(GridFunction(UNIT, u + beta * np.sin(np.pi * u) ** 2 / np.pi),
                              dlo * 0.999, dhi * 1.001)
        im = comp.image()
        zeta = smooth(rng, Interval(im.lo - 1e-9, im.hi + 1e-9), 1601)
        nw2, nt2 = norm(zeta, "L2") ** 2, norm(apply_T3(comp, zeta), "L2") ** 2
        want.append((nw2 / (dhi * nt2), nw2 / (dlo * nt2)))
    assert bits(checks._t3_ratios()) == bits(want)


def test_inverse_pairs_equal_the_loop():
    rng = np.random.default_rng(9)
    want = []
    for _ in range(100):
        n_cells = int(rng.integers(4, 64))
        kind = rng.uniform()
        if kind < 0.3:
            coeffs = np.zeros(n_cells + 1)
            coeffs[rng.integers(0, n_cells + 1)] = rng.uniform(0.5, 2.0)
        elif kind < 0.4:
            coeffs = np.full(n_cells + 1, rng.uniform(0.5, 2.0))
        else:
            coeffs = np.cumsum(rng.uniform(0.0, 1.0, size=n_cells + 1))
        p = GridFunction(UNIT, coeffs)
        want.append([inverse_inequality_check(p, m) for m in (0, 1)])
    assert bits(checks._inverse_pairs()) == bits(want)


def test_intersections_equal_the_loop():
    rng = np.random.default_rng(10)
    u = np.linspace(0.0, 1.0, 1001)
    want = []
    for _ in range(100):
        beta = rng.uniform(0.1, 0.4)
        eta = float(rng.uniform(1e-4, 0.05))
        bump = rng.normal(size=3)
        base = u + beta * np.sin(np.pi * u) ** 2 / np.pi
        phi = sum(c * np.cos(k * np.pi * u) for k, c in enumerate(bump, 1))
        dphi = -sum(c * k * np.pi * np.sin(k * np.pi * u) for k, c in enumerate(bump, 1))
        phi = phi / max(np.abs(phi).max(), np.abs(dphi).max() / np.pi)
        dlo, dhi = 1.0 - beta, 1.0 + beta
        c1 = CurveComposite(GridFunction(UNIT, base), dlo * 0.99, dhi * 1.01)
        c2 = CurveComposite(GridFunction(UNIT, base + eta * phi),
                            dlo * 0.99 - eta * np.pi, dhi * 1.01 + eta * np.pi)
        common = intersect_images(c1, c2, eta=eta * (1 + 1e-9))
        im1, im2 = c1.image(), c2.image()
        pre = invert_monotone(c2, np.array([common.lo, common.hi]))
        want.append((eta, max(abs(im1.lo - im2.lo), abs(im1.hi - im2.hi)),
                     common.lo, common.hi,
                     max(base.min(), c2.forward.values.min()),
                     min(base.max(), c2.forward.values.max()),
                     *pre, *c2.forward(pre)))
    assert bits(checks._intersections()) == bits(want)


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

