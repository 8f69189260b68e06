"""Operator property suite.

Each check is a fixed recipe, with its sample count, grid size and seed
in its body.  It measures one of the norm identities or inequalities the
operator chain is built on, over a randomized family whose basis depends
only on the node count, and reports a pass/fail with the worst observed
margin.  The suite backs the `check` CLI subcommand and the acceptance tests.

Work that depends only on the grid is done once per grid: the family's
basis rows here (``_wave``), and the null-space basis of ``apply_L`` per
alpha in the operators' own cache.  A check that needs two Sobolev norms of
one function reads them off one ``_sobolev_ladder``.  Either way the
results are bit-identical to computing everything afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .func1d import (UNIT, CurveComposite, GridFunction, Interval, _fresh,
                     _sobolev_ladder, derivative, integrate, invert_monotone,
                     norm, second_derivative, sup_bound_check)
from .intervals import intersect_images
from .operators import apply_L, apply_T1, apply_T2alpha, apply_T3, project_W
from .pwl import PwlFunction, _cell_loads, inverse_inequality_check, project_L2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)   # the fixed recipes read 68 rows in all
def _wave(n: int, kind: str, k: int) -> np.ndarray:
    # a row of _random_smooth's basis on n nodes: the unit coordinate u or
    # a wave in k*pi*u, computed once per node count and k
    row = np.linspace(0.0, 1.0, n)
    if kind != "u":
        arg = k * np.pi * row
        row = np.cos(arg) if kind == "cos" else np.sin(
            arg + 0.7 if kind == "shifted_sin" else arg)
    row.flags.writeable = False   # shared by every caller
    return row


def _random_smooth(rng, interval: Interval, n: int) -> GridFunction:
    coef = rng.normal(size=5)
    freq = rng.integers(1, 7, size=3)
    vals = (coef[0] + coef[1] * _wave(n, "u", 0)
            + coef[2] * _wave(n, "sin", int(freq[0]))
            + coef[3] * _wave(n, "cos", int(freq[1]))
            + coef[4] * _wave(n, "shifted_sin", int(freq[2])))
    return _fresh(interval, vals)


def check_t1_sandwich() -> CheckResult:
    """||w||_{H^r} <= ||T1 w||_{H^{r+1}} <= (1+sqrt(|I|)) ||w||_{H^r}."""
    rng = np.random.default_rng(1)
    upper_const = 1.0 + np.sqrt(UNIT.length())
    slack = 1e-2
    worst_lo, worst_hi = np.inf, 0.0
    for _ in range(200):
        w = _random_smooth(rng, UNIT, 801)
        w_l2, w_h1 = _sobolev_ladder(w, 1)
        _, t_h1, t_h2 = _sobolev_ladder(apply_T1(w), 2)
        for lhs, mid in ((w_l2, t_h1), (w_h1, t_h2)):
            worst_lo = min(worst_lo, mid / lhs)
            worst_hi = max(worst_hi, mid / lhs)
    ok = worst_lo >= 1.0 - slack and worst_hi <= upper_const * (1.0 + slack)
    return CheckResult("T1 norm sandwich",
                       ok, f"ratio range [{worst_lo:.4f}, {worst_hi:.4f}], "
                           f"allowed [1, {upper_const:.4f}] with 1% slack")


def check_t2alpha_gap() -> CheckResult:
    """||(damped - identity) w|| / ||w||_H2 <= alpha, decreasing in alpha."""
    rng = np.random.default_rng(2)
    alphas = (0.5, 0.1, 0.02)
    sups = []
    for alpha in alphas:
        worst = 0.0
        for _ in range(60):
            w = _random_smooth(rng, UNIT, 801)
            gap = norm(apply_T2alpha(alpha, w) - w, "L2") / norm(w, "H2")
            worst = max(worst, gap)
        sups.append(worst)
    ok = all(s <= a * (1.0 + 1e-2) for s, a in zip(sups, alphas))
    ok = ok and sups[0] > sups[1] > sups[2]
    return CheckResult("damped-operator gap <= alpha",
                       ok, f"sup gaps {['%.4f' % s for s in sups]} vs alphas {alphas}")


def check_t2alpha_lower_bounds() -> CheckResult:
    """On the constrained space: ||w - a w''|| >= a ||w||_H2 and sqrt(a) ||w||_H1."""
    rng = np.random.default_rng(3)
    alphas = (0.5, 0.1, 0.02)
    margin = 1.0 - 1e-2
    worst = np.inf
    for i in range(200):
        alpha = alphas[i % len(alphas)]
        x = _random_smooth(rng, UNIT, 2001)
        w = project_W(alpha, x)
        _, h1, h2 = _sobolev_ladder(w, 2)
        lhs = norm(apply_T2alpha(alpha, w), "L2")
        worst = min(worst, lhs / (alpha * h2), lhs / (np.sqrt(alpha) * h1))
    return CheckResult("lower bounds on the constrained space",
                       worst >= margin, f"worst ratio {worst:.4f} >= {margin}")


def check_nullspace_projection() -> CheckResult:
    """alpha (Lx)'' = Lx, boundary values of x - Lx, idempotence."""
    rng = np.random.default_rng(4)
    n = 2001
    ok = True
    details = []
    h = UNIT.length() / (n - 1)
    for alpha in (0.25, 0.04):
        worst_ns, worst_b0, worst_b1, worst_idem = 0.0, 0.0, 0.0, 0.0
        for _ in range(50):
            x = _random_smooth(rng, UNIT, n)
            lx = apply_L(alpha, x)
            scale = max(norm(lx, "Linf"), 1e-12)
            res = alpha * second_derivative(lx).values - lx.values
            worst_ns = max(worst_ns, np.abs(res[1:-1]).max() / scale)
            w = x - lx
            worst_b0 = max(worst_b0, abs(w.values[0]) / max(norm(x, "Linf"), 1e-12))
            dw = derivative(w)
            worst_b1 = max(worst_b1, abs(dw.values[-1]) / max(norm(x, "H2"), 1e-12))
            w2 = project_W(alpha, w)
            worst_idem = max(worst_idem, norm(w2 - w, "Linf") / max(norm(w, "Linf"), 1e-12))
        ok_here = (worst_ns <= 10.0 * h**2 / alpha and worst_b0 <= 1e-10
                   and worst_b1 <= 50.0 * h**2 and worst_idem <= 1e-10)
        ok = ok and ok_here
        details.append(f"a={alpha}: ns={worst_ns:.2e} b0={worst_b0:.2e} "
                       f"b1'={worst_b1:.2e} idem={worst_idem:.2e}")
    return CheckResult("null-space and projection identities", ok, "; ".join(details))


def check_t3_sandwich() -> CheckResult:
    """C_g C_gam ||T3 w||^2 <= ||w||^2 <= C'_g C'_gam ||T3 w||^2."""
    rng = np.random.default_rng(5)
    n = 1601
    slack = 2e-2
    ok = True
    worst = (np.inf, 0.0)
    for _ in range(40):
        beta = rng.uniform(0.1, 0.45)
        base = _wave(n, "u", 0) + beta * _wave(n, "sin", 1) ** 2 / np.pi
        dlo, dhi = 1.0 - beta, 1.0 + beta
        comp = CurveComposite(_fresh(UNIT, base), dlo * 0.999, dhi * 1.001)
        im = comp.image()
        zeta = _random_smooth(rng, Interval(im.lo - 1e-9, im.hi + 1e-9), n)
        t3 = apply_T3(comp, zeta)
        nw2 = norm(zeta, "L2") ** 2
        nt2 = norm(t3, "L2") ** 2
        lo_ratio = nw2 / (dhi * nt2)
        hi_ratio = nw2 / (dlo * nt2)
        worst = (min(worst[0], hi_ratio), max(worst[1], lo_ratio))
        ok = ok and lo_ratio <= 1.0 + slack and hi_ratio >= 1.0 - slack
    return CheckResult("composition norm sandwich", ok,
                       f"normalized ratios within [{worst[0]:.4f}, {worst[1]:.4f}]")


def check_ibp_identity() -> CheckResult:
    """int w1 w2'' = -int w1' w2' on the constrained space."""
    rng = np.random.default_rng(6)
    n = 2001
    h = UNIT.length() / (n - 1)
    worst = 0.0
    for _ in range(60):
        alpha = float(rng.uniform(0.05, 0.5))
        w1 = project_W(alpha, _random_smooth(rng, UNIT, n))
        w2 = project_W(alpha, _random_smooth(rng, UNIT, n))
        dw1, dw2 = derivative(w1).values, derivative(w2).values
        lhs = integrate(_fresh(UNIT, w1.values * second_derivative(w2).values))
        rhs = -integrate(_fresh(UNIT, dw1 * dw2))
        scale = max(_sobolev_ladder(w1, 1, dw1)[1] * _sobolev_ladder(w2, 2, dw2)[2],
                    1e-12)
        worst = max(worst, abs(lhs - rhs) / scale)
    tol = 50.0 * h
    return CheckResult("integration by parts on the constrained space",
                       worst <= tol, f"worst residual {worst:.2e} <= {tol:.2e}")


def check_sup_bound() -> CheckResult:
    """Embedding inequality on random trig/polynomial functions."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        length = float(rng.uniform(0.1, 10.0))
        lo = float(rng.uniform(-5.0, 5.0))
        interval = Interval(lo, lo + length)
        f = _random_smooth(rng, interval, 801)
        lhs, rhs = sup_bound_check(f)
        worst = max(worst, lhs / rhs)
    return CheckResult("sup-norm embedding inequality",
                       worst <= 1.0, f"worst lhs/rhs = {worst:.4f}")


def check_galerkin_and_rate() -> CheckResult:
    """Orthogonality residual <= 1e-10 and O(h^2) projection error."""
    rng = np.random.default_rng(8)
    w = _random_smooth(rng, UNIT, 5121)
    nw = norm(w, "L2")
    worst_res = 0.0
    errs, hs = [], []
    for n_cells in (8, 16, 32, 64, 128, 256):
        p = project_L2(n_cells, w)
        diff = _fresh(UNIT, w.values - p(w.nodes))
        # residual against every hat, using the same quadrature as the loads
        res = _cell_loads(n_cells, diff)
        worst_res = max(worst_res, np.abs(res).max() / nw)
        errs.append(norm(diff, "L2"))
        hs.append(1.0 / n_cells)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok = worst_res <= 1e-10 and 1.8 <= slope <= 2.2
    return CheckResult("projection orthogonality and O(h^2) rate", ok,
                       f"residual {worst_res:.1e}, rate {slope:.3f}")


def check_inverse_inequality() -> CheckResult:
    """Inverse inequality with the hat-calibrated constants.

    The constants are sharp for hats and for cells whose endpoint values
    share a sign (the class the pipeline projects: monotone composites);
    the check draws constants, single hats, and random monotone shapes.
    """
    rng = np.random.default_rng(9)
    ok = True
    worst = 0.0
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
        p = PwlFunction(coeffs)
        for m in (0, 1):
            lhs, rhs = inverse_inequality_check(p, m)
            worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
            ok = ok and lhs <= rhs * (1.0 + 1e-12)
    return CheckResult("inverse inequality", ok, f"worst lhs/rhs = {worst:.4f}")


def check_intersection_brute() -> CheckResult:
    """Intersection endpoints and gaps versus dense-sampling brute force."""
    rng = np.random.default_rng(10)
    n = 1001
    s = _wave(n, "u", 0)
    sin, cos = ([_wave(n, kind, k) for k in (1, 2, 3)] for kind in ("sin", "cos"))
    ok = True
    worst_gap = 0.0
    for _ in range(100):
        beta = rng.uniform(0.1, 0.4)
        base = s + beta * sin[0] ** 2 / np.pi
        eta = float(rng.uniform(1e-4, 0.05))
        bump = rng.normal(size=3)
        phi = sum(c * sin[k] for k, c in enumerate(bump))
        dphi = sum(c * (k + 1) * np.pi * cos[k] for k, c in enumerate(bump))
        phi = phi / max(np.abs(phi).max(), np.abs(dphi).max() / (np.pi))
        dlo, dhi = 1.0 - beta, 1.0 + beta
        c1 = CurveComposite(GridFunction(UNIT, base), dlo * 0.99, dhi * 1.01)
        c2 = CurveComposite(GridFunction(UNIT, base + eta * phi),
                            dlo * 0.99 - eta * np.pi, dhi * 1.01 + eta * np.pi)
        common = intersect_images(c1, c2, eta=eta * (1 + 1e-9))
        lo_brute = max(base.min(), (base + eta * phi).min())
        hi_brute = min(base.max(), (base + eta * phi).max())
        ok = ok and abs(common.lo - lo_brute) < 1e-12
        ok = ok and abs(common.hi - hi_brute) < 1e-12
        im1, im2 = c1.image(), c2.image()
        gap = max(abs(im1.lo - im2.lo), abs(im1.hi - im2.hi))
        ok = ok and gap <= eta * (1 + 1e-9)
        worst_gap = max(worst_gap, gap / eta)
        # the preimage of the common interval under the perturbed map lies
        # in [0, 1] and maps back onto the common endpoints
        ends = np.array([common.lo, common.hi])
        pre = invert_monotone(c2, ends)
        ok = ok and 0.0 <= pre[0] < pre[1] <= 1.0
        ok = ok and bool(np.all(np.abs(c2(pre) - ends) < 1e-12))
    return CheckResult("image intersection vs brute force", ok,
                       f"worst gap/eta = {worst_gap:.4f}")


ALL_CHECKS = (
    check_t1_sandwich,
    check_t2alpha_gap,
    check_t2alpha_lower_bounds,
    check_nullspace_projection,
    check_t3_sandwich,
    check_ibp_identity,
    check_sup_bound,
    check_galerkin_and_rate,
    check_inverse_inequality,
    check_intersection_brute,
)


def run_all_checks() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
