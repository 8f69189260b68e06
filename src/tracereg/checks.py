"""Operator property suite.

Each check measures one of the norm identities or inequalities the
operator chain is built on, over randomized families, and reports a
pass/fail with the worst observed margin.  The suite backs the `check`
CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .func1d import (UNIT, CurveComposite, GridFunction, Interval, derivative,
                     integrate, invert_monotone, norm, second_derivative,
                     sup_bound_check)
from .intervals import intersect_images
from .operators import apply_L, apply_T1, apply_T2alpha, apply_T3, project_W
from .pwl import UniformMesh, inverse_inequality_check, project_L2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_smooth(rng, interval: Interval, n: int) -> GridFunction:
    u = (interval.grid(n) - interval.lo) / interval.length()
    coef = rng.normal(size=5)
    freq = rng.integers(1, 7, size=3)
    vals = (coef[0] + coef[1] * u + coef[2] * np.sin(freq[0] * np.pi * u)
            + coef[3] * np.cos(freq[1] * np.pi * u)
            + coef[4] * np.sin(freq[2] * np.pi * u + 0.7))
    return GridFunction(interval, vals)


def check_t1_sandwich(samples: int = 200, n: int = 801, seed: int = 1) -> CheckResult:
    """||w||_{H^r} <= ||T1 w||_{H^{r+1}} <= (1+sqrt(|I|)) ||w||_{H^r}."""
    rng = np.random.default_rng(seed)
    interval = UNIT
    upper_const = 1.0 + np.sqrt(interval.length())
    slack = 1e-2
    worst_lo, worst_hi = np.inf, 0.0
    for _ in range(samples):
        w = _random_smooth(rng, interval, n)
        t1w = apply_T1(w)
        for r, (nw, nt) in enumerate((("L2", "H1"), ("H1", "H2"))):
            lhs = norm(w, nw)
            mid = norm(t1w, nt)
            if lhs < 1e-9:
                continue
            worst_lo = min(worst_lo, mid / lhs)
            worst_hi = max(worst_hi, mid / lhs)
    ok = worst_lo >= 1.0 - slack and worst_hi <= upper_const * (1.0 + slack)
    return CheckResult("T1 norm sandwich",
                       ok, f"ratio range [{worst_lo:.4f}, {worst_hi:.4f}], "
                           f"allowed [1, {upper_const:.4f}] with 1% slack")


def check_t2alpha_gap(samples: int = 60, n: int = 801, seed: int = 2) -> CheckResult:
    """||(damped - identity) w|| / ||w||_H2 <= alpha, decreasing in alpha."""
    rng = np.random.default_rng(seed)
    alphas = (0.5, 0.1, 0.02)
    sups = []
    for alpha in alphas:
        worst = 0.0
        for _ in range(samples):
            w = _random_smooth(rng, UNIT, n)
            gap = norm(apply_T2alpha(alpha, w) - w, "L2") / norm(w, "H2")
            worst = max(worst, gap)
        sups.append(worst)
    ok = all(s <= a * (1.0 + 1e-2) for s, a in zip(sups, alphas))
    ok = ok and sups[0] > sups[1] > sups[2]
    return CheckResult("damped-operator gap <= alpha",
                       ok, f"sup gaps {['%.4f' % s for s in sups]} vs alphas {alphas}")


def check_t2alpha_lower_bounds(samples: int = 200, n: int = 2001,
                               seed: int = 3) -> CheckResult:
    """On the constrained space: ||w - a w''|| >= a ||w||_H2 and sqrt(a) ||w||_H1."""
    rng = np.random.default_rng(seed)
    alphas = (0.5, 0.1, 0.02)
    margin = 1.0 - 1e-2
    worst = np.inf
    for i in range(samples):
        alpha = alphas[i % len(alphas)]
        x = _random_smooth(rng, UNIT, n)
        w = project_W(alpha, x)
        h2, h1 = norm(w, "H2"), norm(w, "H1")
        if h2 < 1e-9:
            continue
        lhs = norm(apply_T2alpha(alpha, w), "L2")
        worst = min(worst, lhs / (alpha * h2), lhs / (np.sqrt(alpha) * h1))
    return CheckResult("lower bounds on the constrained space",
                       worst >= margin, f"worst ratio {worst:.4f} >= {margin}")


def check_nullspace_projection(samples: int = 50, n: int = 2001,
                               seed: int = 4) -> CheckResult:
    """alpha (Lx)'' = Lx, boundary values of x - Lx, idempotence."""
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    h = UNIT.length() / (n - 1)
    for alpha in (0.25, 0.04):
        worst_ns, worst_b0, worst_b1, worst_idem = 0.0, 0.0, 0.0, 0.0
        for _ in range(samples):
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


def check_t3_sandwich(samples: int = 40, n: int = 1601, seed: int = 5) -> CheckResult:
    """C_g C_gam ||T3 w||^2 <= ||w||^2 <= C'_g C'_gam ||T3 w||^2."""
    rng = np.random.default_rng(seed)
    slack = 2e-2
    ok = True
    worst = (np.inf, 0.0)
    s = UNIT.grid(n)
    for _ in range(samples):
        beta = rng.uniform(0.1, 0.45)
        base = s + beta * np.sin(np.pi * s) ** 2 / np.pi
        dlo, dhi = 1.0 - beta, 1.0 + beta
        comp = CurveComposite(GridFunction(UNIT, base), dlo * 0.999, dhi * 1.001)
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


def check_ibp_identity(samples: int = 60, n: int = 2001, seed: int = 6) -> CheckResult:
    """int w1 w2'' = -int w1' w2' on the constrained space."""
    rng = np.random.default_rng(seed)
    h = UNIT.length() / (n - 1)
    worst = 0.0
    for _ in range(samples):
        alpha = float(rng.uniform(0.05, 0.5))
        w1 = project_W(alpha, _random_smooth(rng, UNIT, n))
        w2 = project_W(alpha, _random_smooth(rng, UNIT, n))
        lhs = integrate(w1.with_values(w1.values * second_derivative(w2).values))
        rhs = -integrate(w1.with_values(derivative(w1).values * derivative(w2).values))
        scale = max(norm(w1, "H1") * norm(w2, "H2"), 1e-12)
        worst = max(worst, abs(lhs - rhs) / scale)
    tol = 50.0 * h
    return CheckResult("integration by parts on the constrained space",
                       worst <= tol, f"worst residual {worst:.2e} <= {tol:.2e}")


def check_sup_bound(samples: int = 200, seed: int = 7) -> CheckResult:
    """Embedding inequality on random trig/polynomial functions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        length = float(rng.uniform(0.1, 10.0))
        lo = float(rng.uniform(-5.0, 5.0))
        interval = Interval(lo, lo + length)
        f = _random_smooth(rng, interval, 801)
        lhs, rhs = sup_bound_check(f)
        worst = max(worst, lhs / rhs)
    return CheckResult("sup-norm embedding inequality",
                       worst <= 1.0, f"worst lhs/rhs = {worst:.4f}")


def check_galerkin_and_rate(seed: int = 8) -> CheckResult:
    """Orthogonality residual <= 1e-10 and O(h^2) projection error."""
    rng = np.random.default_rng(seed)
    n = 5121
    w = _random_smooth(rng, UNIT, n)
    nw = norm(w, "L2")
    worst_res = 0.0
    errs, hs = [], []
    for n_cells in (8, 16, 32, 64, 128, 256):
        mesh = UniformMesh(n_cells)
        p = project_L2(mesh, w)
        diff = w.values - p(w.nodes)
        # residual against every hat, using the same quadrature as the loads
        from .pwl import _cell_loads
        res = _cell_loads(mesh, w.with_values(diff))
        worst_res = max(worst_res, np.abs(res).max() / nw)
        errs.append(norm(w.with_values(diff), "L2"))
        hs.append(mesh.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok = worst_res <= 1e-10 and 1.8 <= slope <= 2.2
    return CheckResult("projection orthogonality and O(h^2) rate", ok,
                       f"residual {worst_res:.1e}, rate {slope:.3f}")


def check_inverse_inequality(samples: int = 100, seed: int = 9) -> CheckResult:
    """Inverse inequality with the hat-calibrated constants.

    The constants are sharp for hats and for cells whose endpoint values
    share a sign (the class the pipeline projects: monotone composites);
    the check draws constants, single hats, and random monotone shapes.
    """
    from .pwl import PwlFunction
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(samples):
        n_cells = int(rng.integers(4, 64))
        mesh = UniformMesh(n_cells)
        kind = rng.uniform()
        if kind < 0.3:
            coeffs = np.zeros(n_cells + 1)
            coeffs[rng.integers(0, n_cells + 1)] = rng.uniform(0.5, 2.0)
        elif kind < 0.4:
            coeffs = np.full(n_cells + 1, rng.uniform(0.5, 2.0))
        else:
            coeffs = np.cumsum(rng.uniform(0.0, 1.0, size=n_cells + 1))
        p = PwlFunction(mesh, coeffs)
        for m in (0, 1):
            lhs, rhs = inverse_inequality_check(mesh, p, m)
            worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
            ok = ok and lhs <= rhs * (1.0 + 1e-12)
    return CheckResult("inverse inequality", ok, f"worst lhs/rhs = {worst:.4f}")


def check_intersection_brute(samples: int = 100, seed: int = 10) -> CheckResult:
    """Intersection endpoints and gaps versus dense-sampling brute force."""
    rng = np.random.default_rng(seed)
    n = 1001
    s = UNIT.grid(n)
    ok = True
    worst_gap = 0.0
    for _ in range(samples):
        beta = rng.uniform(0.1, 0.4)
        base = s + beta * np.sin(np.pi * s) ** 2 / np.pi
        eta = float(rng.uniform(1e-4, 0.05))
        bump = rng.normal(size=3)
        phi = sum(c * np.sin((k + 1) * np.pi * s) for k, c in enumerate(bump))
        dphi = sum(c * (k + 1) * np.pi * np.cos((k + 1) * np.pi * s)
                   for k, c in enumerate(bump))
        phi = phi / max(np.abs(phi).max(), np.abs(dphi).max() / (np.pi))
        dlo, dhi = 1.0 - beta, 1.0 + beta
        c1 = CurveComposite(GridFunction(UNIT, base), dlo * 0.99, dhi * 1.01)
        c2 = CurveComposite(GridFunction(UNIT, base + eta * phi),
                            dlo * 0.99 - eta * np.pi, dhi * 1.01 + eta * np.pi)
        res = intersect_images(c1, c2, eta=eta * (1 + 1e-9))
        lo_brute = max(base.min(), (base + eta * phi).min())
        hi_brute = min(base.max(), (base + eta * phi).max())
        ok = ok and abs(res.common.lo - lo_brute) < 1e-12
        ok = ok and abs(res.common.hi - hi_brute) < 1e-12
        ok = ok and max(res.endpoint_gaps) <= eta * (1 + 1e-9)
        worst_gap = max(worst_gap, max(res.endpoint_gaps) / eta)
        # the preimage of the common interval under the perturbed map lies
        # in [0, 1] and maps back onto the common endpoints
        ends = np.array([res.common.lo, res.common.hi])
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
