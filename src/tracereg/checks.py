"""Operator property suite.

Each check is a fixed recipe, with its sample count, grid size and seed
in its body.  It measures one of the norm identities or inequalities the
operator chain is built on, over a randomized family whose basis depends
only on the node count, and reports a pass/fail with the worst observed
margin.  The suite backs the `check` CLI subcommand and the acceptance tests.

Nine checks run their samples as blocks of rows; the projection's
orthogonality and rate is one sample and runs as one.  ``_sampled`` is the
one home of the draw order: it draws each sample in full, in the order a
loop over single samples draws them, and stacks a block's samples into
arrays, which the package's kernels take as (k, n) rows, acting on the last
axis; the worst case is an array reduction.  A block holds at most
max(1, 16384 // n) rows (``func1d._blocks``, which the sweeps read too).
Each row gets the bits the 1-d call on it gives, so every per-sample
quantity, and so every report, equals a loop's.  Where a block needs a
rule a public function owns, the function and the block call one kernel:
the composite's samples and bracket (``_check_bracket``), the image
intersection (``_common_ends``), the inverse inequality's worst cell
(``_worst_cell``, on meshes padded to the block's widest, each row with
its own spacing) and T3's composition (``_composed``, ``apply_T3``'s
arithmetic).  Each zeta lives on its own composite's image; in this
recipe every image is exactly [0, 1], so the rows share one grid and T3
composes a block at a time: the whole check took 5.5-6.3 ms against
8.8-10.9 ms with one ``apply_T3`` call a sample.  One public call stays
per sample: ``invert_monotone`` on the two common ends.

The family's basis rows depend only on the node count, so they are
formed once per grid and kept (``_wave``).  A check forms the null-space
rows of its alphas once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .func1d import (UNIT, CurveComposite, Interval, _blocks, _check_bracket, _column, _fresh,
                     _first_difference, _ladder, _quadrature, _right_slope, _running_integral,
                     _second_difference, _sup_bound, invert_monotone, norm)
from .intervals import _common_ends
from .intervals import intersect_images  # noqa: F401  (uncalled; perfbench's CALL_SITES names it)
from .operators import _composed, _null_fit, _null_rows
from .operators import apply_L, apply_T1, apply_T2alpha, apply_T3, project_W  # noqa: F401  (uncalled; perfbench's CALL_SITES names them)
from .pwl import _cell_loads, _worst_cell, project_L2

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)   # the fixed recipes read 68 rows in all
def _wave(n: int, kind: str, k: int) -> np.ndarray:
    # a row of the random family's basis on n nodes: the unit coordinate u or
    # a wave in k*pi*u, computed once per node count and k
    row = np.linspace(0.0, 1.0, n)
    if kind != "u":
        arg = k * np.pi * row
        row = np.cos(arg) if kind == "cos" else np.sin(
            arg + 0.7 if kind == "shifted_sin" else arg)
    row.flags.writeable = False   # shared by every caller
    return row


def _draw(rng) -> tuple[np.ndarray, np.ndarray]:
    # one member of the random smooth family: 5 coefficients, 3 frequencies
    return rng.normal(size=5), rng.integers(1, 7, size=3)


def _smooth_rows(coef: np.ndarray, freq: np.ndarray, n: int) -> np.ndarray:
    # the drawn members (one coefficient and frequency row each) on n nodes
    sin, cos, shifted = (np.array([_wave(n, kind, k) for k in ks]) for kind, ks
                         in zip(("sin", "cos", "shifted_sin"), freq.T.tolist()))
    return (coef[:, :1] + coef[:, 1:2] * _wave(n, "u", 0)
            + coef[:, 2:3] * sin + coef[:, 3:4] * cos + coef[:, 4:5] * shifted)


def _sampled(rng, count: int, n: int, draw=_draw):
    # count samples, each drawn in full by draw(rng) in loop order, per
    # block of _blocks(count, n): the block's indices, then each part of
    # its samples stacked with np.array
    for block in _blocks(count, n):
        yield block, *(np.array(part) for part in zip(*(draw(rng) for _ in block)))


def _t1_ratios() -> np.ndarray:
    # per sample: ||T1 w||_H1 / ||w||_L2 and ||T1 w||_H2 / ||w||_H1
    rng = np.random.default_rng(1)
    n = 801
    h = UNIT.length() / (n - 1)
    ratios = []
    for _, coef, freq in _sampled(rng, 200, n):
        w = _smooth_rows(coef, freq, n)
        w_l2, w_h1 = _ladder(w, h, 1)
        _, t_h1, t_h2 = _ladder(_running_integral(w, h), h, 2)
        ratios.append(np.stack((t_h1 / w_l2, t_h2 / w_h1), axis=-1))
    return np.concatenate(ratios)


def check_t1_sandwich() -> CheckResult:
    """||w||_{H^r} <= ||T1 w||_{H^{r+1}} <= (1+sqrt(|I|)) ||w||_{H^r}."""
    upper_const = 1.0 + float(np.sqrt(UNIT.length()))
    slack = 1e-2
    ratios = _t1_ratios()
    worst_lo, worst_hi = float(ratios.min()), float(ratios.max())
    ok = worst_lo >= 1.0 - slack and worst_hi <= upper_const * (1.0 + slack)
    return CheckResult("T1 norm sandwich",
                       ok, f"ratio range [{worst_lo:.4f}, {worst_hi:.4f}], "
                           f"allowed [1, {upper_const:.4f}] with 1% slack")


def _t2alpha_gaps() -> tuple[tuple[float, ...], np.ndarray]:
    # the alphas, and per alpha (rows) and sample: ||(damped - id) w|| / ||w||_H2
    rng = np.random.default_rng(2)
    alphas = (0.5, 0.1, 0.02)
    n = 801
    h = UNIT.length() / (n - 1)
    gaps = []
    for alpha in alphas:
        for _, coef, freq in _sampled(rng, 60, n):
            w = _smooth_rows(coef, freq, n)
            d2 = _second_difference(w, h)
            gaps.append(_ladder((w - d2 * alpha) - w, h, 0)[0]
                        / _ladder(w, h, 2, second=d2)[2])
    return alphas, np.concatenate(gaps).reshape(len(alphas), -1)


def check_t2alpha_gap() -> CheckResult:
    """||(damped - identity) w|| / ||w||_H2 <= alpha, decreasing in alpha."""
    alphas, gaps = _t2alpha_gaps()
    sups = [float(row.max()) for row in gaps]
    ok = all(s <= a * (1.0 + 1e-2) for s, a in zip(sups, alphas))
    ok = ok and sups[0] > sups[1] > sups[2]
    return CheckResult("damped-operator gap <= alpha",
                       ok, f"sup gaps {['%.4f' % s for s in sups]} vs alphas {alphas}")


def _lower_bound_ratios() -> np.ndarray:
    # per sample w = x - Lx: ||w - a w''|| / (a ||w||_H2) and / (sqrt(a) ||w||_H1)
    rng = np.random.default_rng(3)
    alphas = (0.5, 0.1, 0.02)
    n = 2001
    h = UNIT.length() / (n - 1)
    # the null-space rows of each alpha, one a row: sample i reads row i % 3
    table = _null_rows(np.array(alphas), UNIT, n)
    ratios = []
    for block, coef, freq in _sampled(rng, 200, n):
        w = _smooth_rows(coef, freq, n)
        pick = np.array(block) % len(alphas)
        alpha = np.array(alphas)[pick]
        w -= _null_fit(w, h, [part[pick] for part in table])
        d2 = _second_difference(w, h)
        _, h1, h2 = _ladder(w, h, 2, second=d2)
        (lhs,) = _ladder(w - d2 * alpha[:, None], h, 0)
        ratios.append(np.stack((lhs / (alpha * h2), lhs / (np.sqrt(alpha) * h1)),
                               axis=-1))
    return np.concatenate(ratios)


def check_t2alpha_lower_bounds() -> CheckResult:
    """On the constrained space: ||w - a w''|| >= a ||w||_H2 and sqrt(a) ||w||_H1."""
    margin = 1.0 - 1e-2
    worst = float(_lower_bound_ratios().min())
    return CheckResult("lower bounds on the constrained space",
                       worst >= margin, f"worst ratio {worst:.4f} >= {margin}")


def _sup_floor(v: np.ndarray) -> np.ndarray:
    # each row's sup norm, at least 1e-12
    return np.maximum(np.abs(v).max(axis=-1), 1e-12)


def _nullspace_residuals() -> tuple[float, tuple[float, ...], np.ndarray]:
    # the spacing, the alphas, and per alpha, sample and identity (alpha (Lx)''
    # - Lx, the value and the end slope of x - Lx, idempotence): the scaled
    # residual
    rng = np.random.default_rng(4)
    alphas = (0.25, 0.04)
    n = 2001
    h = UNIT.length() / (n - 1)
    residuals = []
    for alpha in alphas:
        rows = _null_rows(alpha, UNIT, n)
        for _, coef, freq in _sampled(rng, 50, n):
            x = _smooth_rows(coef, freq, n)
            lx = _null_fit(x, h, rows)
            res = alpha * _second_difference(lx, h) - lx
            ns = np.abs(res[:, 1:-1]).max(axis=-1) / _sup_floor(lx)
            w = x - lx
            b0 = np.abs(w[:, 0]) / _sup_floor(x)
            b1 = np.abs(_right_slope(w, h)) / np.maximum(_ladder(x, h, 2)[2], 1e-12)
            idem = np.abs((w - _null_fit(w, h, rows)) - w).max(axis=-1) / _sup_floor(w)
            residuals.append(np.stack((ns, b0, b1, idem), axis=-1))
    return h, alphas, np.concatenate(residuals).reshape(len(alphas), -1, 4)


def check_nullspace_projection() -> CheckResult:
    """alpha (Lx)'' = Lx, boundary values of x - Lx, idempotence."""
    ok = True
    details = []
    h, alphas, residuals = _nullspace_residuals()
    for alpha, per_alpha in zip(alphas, residuals):
        worst_ns, worst_b0, worst_b1, worst_idem = (float(r) for r in per_alpha.max(axis=0))
        ok_here = (worst_ns <= 10.0 * h**2 / alpha and worst_b0 <= 1e-10
                   and worst_b1 <= 50.0 * h**2 and worst_idem <= 1e-10)
        ok = ok and ok_here
        details.append(f"a={alpha}: ns={worst_ns:.2e} b0={worst_b0:.2e} "
                       f"b1'={worst_b1:.2e} idem={worst_idem:.2e}")
    return CheckResult("null-space and projection identities", ok, "; ".join(details))


def _t3_ratios() -> np.ndarray:
    # per sample: ||zeta||^2 / (dhi ||T3 zeta||^2) and ||zeta||^2 / (dlo
    # ||T3 zeta||^2) for a drawn composite with bracket [dlo, dhi] and a
    # member zeta on its image, widened by 1e-9 at both ends
    rng = np.random.default_rng(5)
    n = 1601
    h = UNIT.length() / (n - 1)
    ratios = []
    for _, beta, coef, freq in _sampled(
            rng, 40, n, lambda rng: (rng.uniform(0.1, 0.45), *_draw(rng))):
        base = _wave(n, "u", 0) + _column(beta) * _wave(n, "sin", 1) ** 2 / np.pi
        dlo, dhi = 1.0 - beta, 1.0 + beta
        lo, hi = dlo * 0.999, dhi * 1.001
        _check_bracket(base, h, lo, hi, 0.0)
        zeta = _smooth_rows(coef, freq, n)
        z_lo, z_hi = base[:, 0] - 1e-9, base[:, -1] + 1e-9
        # every image is [0, 1], so the rows share one grid, and apply_T3's
        # containment rule holds by construction (see the module docstring)
        if np.ptp(z_lo) or np.ptp(z_hi):
            raise ValueError("the samples' composite images differ")
        grid = Interval(float(z_lo[0]), float(z_hi[0]))
        t3 = _composed(zeta, grid.grid(n), grid, base)
        # libm's pow squares the norms, as Python squares norm()'s floats
        nw2 = np.float_power(_ladder(zeta, (z_hi - z_lo) / (n - 1), 0)[0], 2)
        nt2 = np.float_power(_ladder(t3, h, 0)[0], 2)
        ratios.append(np.stack((nw2 / (dhi * nt2), nw2 / (dlo * nt2)), axis=-1))
    return np.concatenate(ratios)


def check_t3_sandwich() -> CheckResult:
    """C_g C_gam ||T3 w||^2 <= ||w||^2 <= C'_g C'_gam ||T3 w||^2."""
    slack = 2e-2
    lo_ratio, hi_ratio = _t3_ratios().T
    # the largest lo_ratio, the smallest hi_ratio
    worst_lo = float(lo_ratio.max(initial=0.0))
    worst_hi = float(hi_ratio.min(initial=np.inf))
    ok = bool((lo_ratio <= 1.0 + slack).all() and (hi_ratio >= 1.0 - slack).all())
    return CheckResult("composition norm sandwich", ok,
                       f"largest lower ratio {worst_lo:.4f} <= {1.0 + slack:g}, "
                       f"smallest upper ratio {worst_hi:.4f} >= {1.0 - slack:g}")


def _ibp_residuals() -> tuple[float, np.ndarray]:
    # the spacing, and per sample: |int w1 w2'' + int w1' w2'| /
    # (||w1||_H1 ||w2||_H2) for two members projected onto the constrained
    # space of a drawn alpha
    rng = np.random.default_rng(6)
    n = 2001
    h = UNIT.length() / (n - 1)
    residuals = []
    for _, alpha, coef1, freq1, coef2, freq2 in _sampled(
            rng, 60, n, lambda rng: (rng.uniform(0.05, 0.5), *_draw(rng), *_draw(rng))):
        w1, w2 = _smooth_rows(coef1, freq1, n), _smooth_rows(coef2, freq2, n)
        # one alpha per sample; freed before the derivatives to keep the
        # block's peak down
        rows = _null_rows(alpha, UNIT, n)
        w1 -= _null_fit(w1, h, rows)
        w2 -= _null_fit(w2, h, rows)
        del rows
        dw1, dw2 = _first_difference(w1, h), _first_difference(w2, h)
        d2w2 = _second_difference(w2, h)
        lhs = _quadrature(w1 * d2w2, h)
        rhs = -_quadrature(dw1 * dw2, h)
        scale = np.maximum(_ladder(w1, h, 1, dw1)[1] * _ladder(w2, h, 2, dw2, d2w2)[2],
                           1e-12)
        residuals.append(np.abs(lhs - rhs) / scale)
    return h, np.concatenate(residuals)


def check_ibp_identity() -> CheckResult:
    """int w1 w2'' = -int w1' w2' on the constrained space."""
    h, residuals = _ibp_residuals()
    worst = float(residuals.max())
    tol = 50.0 * h
    return CheckResult("integration by parts on the constrained space",
                       worst <= tol, f"worst residual {worst:.2e} <= {tol:.2e}")


def _sup_ratios() -> np.ndarray:
    # per sample: the sup norm over the embedding bound of a member on a
    # drawn interval J = [lo, lo + length]
    rng = np.random.default_rng(7)
    n = 801
    ratios = []
    for _, length, lo, coef, freq in _sampled(
            rng, 200, n, lambda rng: (rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0),
                                      *_draw(rng))):
        span = (lo + length) - lo   # |J| as the interval measures it
        lhs, rhs = _sup_bound(_smooth_rows(coef, freq, n), span, span / (n - 1))
        ratios.append(lhs / rhs)
    return np.concatenate(ratios)


def check_sup_bound() -> CheckResult:
    """Embedding inequality on random trig/polynomial functions."""
    worst = float(_sup_ratios().max())
    return CheckResult("sup-norm embedding inequality",
                       worst <= 1.0, f"worst lhs/rhs = {worst:.4f}")


def check_galerkin_and_rate() -> CheckResult:
    """Orthogonality residual <= 1e-10 and O(h^2) projection error."""
    rng = np.random.default_rng(8)
    [(_, coef, freq)] = _sampled(rng, 1, 5121)
    w = _fresh(UNIT, _smooth_rows(coef, freq, 5121)[0])
    nw = norm(w, "L2")
    worst_res = 0.0
    errs, hs = [], []
    for n_cells in (8, 16, 32, 64, 128, 256):
        p = project_L2(n_cells, w)
        diff = _fresh(UNIT, w.values - p(w.nodes))
        # residual against every hat, using the same quadrature as the loads
        res = _cell_loads(n_cells, diff)
        worst_res = max(worst_res, float(np.abs(res).max()) / nw)
        errs.append(norm(diff, "L2"))
        hs.append(1.0 / n_cells)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = worst_res <= 1e-10 and 1.8 <= slope <= 2.2
    return CheckResult("projection orthogonality and O(h^2) rate", ok,
                       f"residual {worst_res:.1e}, rate {slope:.3f}")


def _mesh_draw(rng) -> tuple[int, np.ndarray]:
    # a mesh of 4 to 63 cells and a single hat, a constant or a random
    # monotone shape on it, padded with zeros to the finest mesh's 64 nodes
    n_cells = int(rng.integers(4, 64))
    kind = rng.uniform()
    coeffs = np.zeros(64)
    if kind < 0.3:
        coeffs[rng.integers(0, n_cells + 1)] = rng.uniform(0.5, 2.0)
    elif kind < 0.4:
        coeffs[:n_cells + 1] = rng.uniform(0.5, 2.0)
    else:
        coeffs[:n_cells + 1] = np.cumsum(rng.uniform(0.0, 1.0, size=n_cells + 1))
    return n_cells, coeffs


def _inverse_pairs() -> np.ndarray:
    # per sample and m = 0, 1: the worst cell's (lhs, rhs) of the inverse
    # inequality for a _mesh_draw sample
    rng = np.random.default_rng(9)
    pairs = []
    for _, cells, v in _sampled(rng, 100, 64, _mesh_draw):
        v = v[:, :cells.max() + 1]   # padded to the block's widest mesh
        h = UNIT.length() / cells
        # (k, m, side): one (lhs, rhs) per sample and m
        pairs.append(np.moveaxis([_worst_cell(v, h, m, cells) for m in (0, 1)], -1, 0))
    return np.concatenate(pairs)


def check_inverse_inequality() -> CheckResult:
    """Inverse inequality with the hat-calibrated constants.

    The constants are sharp for hats and for cells whose endpoint values
    share a sign (the class the pipeline projects: monotone composites);
    the check draws constants, single hats, and random monotone shapes.
    """
    lhs, rhs = np.moveaxis(_inverse_pairs(), -1, 0)
    ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0.0)
    worst = float(ratio.max(initial=0.0))
    ok = bool((lhs <= rhs * (1.0 + 1e-12)).all())
    return CheckResult("inverse inequality", ok, f"worst lhs/rhs = {worst:.4f}")


def _intersections() -> np.ndarray:
    # per sample, five pairs: eta and the end gap max(|lo1 - lo2|, |hi1 -
    # hi2|) of the exact and the perturbed image, the common ends, the
    # brute-force ends (the larger of the two minima, the smaller of the two
    # maxima), the common ends' preimages under the perturbed map and their
    # images
    rng = np.random.default_rng(10)
    n = 1001
    h = UNIT.length() / (n - 1)
    s = _wave(n, "u", 0)
    sin, cos = ([_wave(n, kind, k) for k in (1, 2, 3)] for kind in ("sin", "cos"))
    bend = sin[0] ** 2
    samples = []
    for _, beta, eta, bump in _sampled(
            rng, 100, n, lambda rng: (rng.uniform(0.1, 0.4), rng.uniform(1e-4, 0.05),
                                      rng.normal(size=3))):
        base = s + _column(beta) * bend / np.pi
        # phi and its derivative, whose sign drops out of |phi'|
        phi = sum(bump[:, k:k + 1] * cos[k] for k in range(3))
        dphi = sum(bump[:, k:k + 1] * (k + 1) * np.pi * sin[k] for k in range(3))
        phi = phi / _column(np.maximum(np.abs(phi).max(axis=-1),
                                       np.abs(dphi).max(axis=-1) / np.pi))
        pert = base + _column(eta) * phi
        dlo, dhi = 1.0 - beta, 1.0 + beta
        lo2, hi2 = dlo * 0.99 - eta * np.pi, dhi * 1.01 + eta * np.pi
        _check_bracket(base, h, dlo * 0.99, dhi * 1.01, 0.0)
        _check_bracket(pert, h, lo2, hi2, 0.0)
        ends = np.stack(_common_ends(base, pert, eta * (1 + 1e-9)), axis=-1)
        brute = np.stack((np.maximum(base.min(axis=-1), pert.min(axis=-1)),
                          np.minimum(base.max(axis=-1), pert.max(axis=-1))), axis=-1)
        gap = np.maximum(np.abs(base[:, 0] - pert[:, 0]), np.abs(base[:, -1] - pert[:, -1]))
        pre, fwd = np.empty_like(ends), np.empty_like(ends)
        for j, (c_lo, c_hi) in enumerate(zip(lo2.tolist(), hi2.tolist())):
            c2 = CurveComposite._certified(_fresh(UNIT, pert[j]), c_lo, c_hi)
            pre[j] = invert_monotone(c2, ends[j])
            fwd[j] = c2.forward(pre[j])
        samples.append(np.stack((np.stack((eta, gap), axis=-1), ends, brute, pre, fwd),
                                axis=1))
    return np.concatenate(samples)


def check_intersection_brute() -> CheckResult:
    """Intersection endpoints and gaps versus dense-sampling brute force."""
    scale, ends, brute, pre, fwd = np.moveaxis(_intersections(), 1, 0)
    eta, gap = scale.T
    ok = bool((np.abs(ends - brute) < 1e-12).all()
              and (gap <= eta * (1 + 1e-9)).all()
              # the preimage of the common interval under the perturbed map
              # lies in [0, 1] and maps back onto the common endpoints
              and ((0.0 <= pre[:, 0]) & (pre[:, 0] < pre[:, 1]) & (pre[:, 1] <= 1.0)).all()
              and (np.abs(fwd - ends) < 1e-12).all())
    worst_gap = float((gap / eta).max(initial=0.0))
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
