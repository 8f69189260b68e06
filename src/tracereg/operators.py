"""The operator chain and its perturbed variants.

T1 integrates from the left endpoint, the damped-second-derivative
operator w - alpha*w'' replaces the ill-posed identity link, and T3
composes with the (possibly perturbed) boundary composite.  The
hyperbolic operator L spans the null space of the damped operator; id - L
projects onto the constrained space W = {w : w(g0) = 0, w'(g1) = 0}.
"""

from __future__ import annotations

import numpy as np

from .errors import ImageMismatch, StencilTooSmall
from .func1d import (_FP_SLACK, UNIT, CurveComposite, GridFunction, Interval,
                     cumulative_integral, derivative, invert_monotone, pchip,
                     second_derivative)
from .intervals import IntersectionResult


def apply_T1(w: GridFunction) -> GridFunction:
    """Cumulative integration from the left endpoint."""
    return cumulative_integral(w)


def apply_T2alpha(alpha: float, w: GridFunction) -> GridFunction:
    """Damped identity w -> w - alpha*w'', 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if w.n < 5:
        raise StencilTooSmall("w - alpha*w'' needs at least 5 nodes")
    return w - alpha * second_derivative(w)


def _exp_ratio_sinh(a: np.ndarray, b: float) -> np.ndarray:
    # sinh(a)/cosh(b) evaluated without overflow for |a| <= b, b large
    return (np.exp(a - b) - np.exp(-a - b)) / (1.0 + np.exp(-2.0 * b))


def _exp_ratio_cosh(a: np.ndarray, b: float) -> np.ndarray:
    # cosh(a)/cosh(b) without overflow for |a| <= b
    aa = np.abs(a)
    return (np.exp(aa - b) + np.exp(-aa - b)) / (1.0 + np.exp(-2.0 * b))


def _deriv_right(x: GridFunction) -> float:
    v, h = x.values, x.spacing
    return float((3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h))


def apply_L(alpha: float, x: GridFunction) -> GridFunction:
    """Evaluate the hyperbolic null-space interpolant of x.

    L x matches x(g0) and x'(g1) and satisfies alpha * (Lx)'' = Lx, so it
    spans the kernel of the damped operator.  x'(g1) is taken with the
    3-point one-sided second-order stencil; the basis coefficients are
    solved against the discrete boundary functionals (not the continuum
    ones, an O(h^2) tweak) so that id - L annihilates them exactly and
    the projection is idempotent to rounding.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if x.n < 5:
        raise StencilTooSmall("L needs at least 5 nodes for x'(g1)")
    g0, g1 = x.interval.lo, x.interval.hi
    ra = np.sqrt(alpha)
    t = x.nodes
    b = (g1 - g0) / ra
    s_vals = ra * _exp_ratio_sinh((t - g0) / ra, b)      # S(g0) = 0, S'(g1) = 1
    c_vals = _exp_ratio_cosh((t - g1) / ra, b)           # C(g0) = 1, C'(g1) = 0
    basis = x.with_values
    c2 = x.values[0]
    c1 = ((_deriv_right(x) - c2 * _deriv_right(basis(c_vals)))
          / _deriv_right(basis(s_vals)))
    return basis(c1 * s_vals + c2 * c_vals)


def project_W(alpha: float, x: GridFunction) -> GridFunction:
    """x - Lx: vanishes at g0, flat at g1, idempotent."""
    return x - apply_L(alpha, x)


def apply_T3(c: CurveComposite, zeta: GridFunction) -> GridFunction:
    """Compose zeta with the boundary composite.

    zeta is read through its monotone cubic interpolant (``pchip``) at the
    composite's samples, clipped to zeta's interval; the result lives on
    the composite's parameter grid over [0, 1].
    """
    im = c.image()
    tol = _FP_SLACK * max(1.0, abs(im.lo), abs(im.hi))
    if not zeta.interval.contains(im, tol=tol):
        raise ImageMismatch(
            f"composite image [{im.lo:.6g}, {im.hi:.6g}] is not contained in "
            f"[{zeta.interval.lo:.6g}, {zeta.interval.hi:.6g}]")
    vals = pchip(zeta, np.clip(c.forward.values, zeta.interval.lo, zeta.interval.hi))
    return GridFunction(UNIT, vals)


def apply_T3eps_pinv(c_eps: CurveComposite, common: IntersectionResult,
                     f: GridFunction, target: Interval,
                     n: int | None = None) -> GridFunction:
    """Solve the perturbed composition equation in closed form.

    The generalized inverse of composition-with-c_eps applied to trace
    data f is f evaluated at the inverse of the composite.  It is sampled
    once, at the nodes of a uniform grid over ``target`` (``n`` nodes,
    default f.n) clipped to the common interval: inversion goes through the
    piecewise-linear extension of the composite, and ``f``, which must
    live on [0, 1], is read through its monotone cubic interpolant
    (``pchip``) at the preimages, clipped to [0, 1].  Nodes outside the
    common interval carry the value at its nearest end; ``extend_by_zero``
    then weights them by their dual cells' covered fraction.
    """
    if f.interval != UNIT:
        raise ValueError("trace data must live on [0, 1]")
    z = target.grid(f.n if n is None else n)
    s = invert_monotone(c_eps, np.clip(z, common.common.lo, common.common.hi, out=z))
    vals = pchip(f, np.clip(s, 0.0, 1.0, out=s))
    return GridFunction(target, vals)


def extend_by_zero(zeta: GridFunction, source: Interval) -> GridFunction:
    """Cut a function on the target grid down to the source interval.

    ``zeta`` lives on the target interval, which must contain the source;
    its values are kept inside the source and zeroed outside.  Nodes
    whose dual cell straddles a source edge are weighted by the covered
    fraction of the cell, so the mass removed by the cut matches the
    continuum extension no matter where the edge falls relative to the
    grid (naive nodewise zeroing would widen a sub-cell cut to a full
    cell and overdrive the downstream boundary value solve).
    """
    target = zeta.interval
    tol = _FP_SLACK * max(1.0, abs(target.lo), abs(target.hi))
    if not target.contains(source, tol=tol):
        raise ImageMismatch(
            f"source [{source.lo:.6g}, {source.hi:.6g}] not contained in target "
            f"[{target.lo:.6g}, {target.hi:.6g}]")
    x, h = zeta.nodes, zeta.spacing
    cell_lo = np.maximum(x - 0.5 * h, target.lo)
    cell_hi = np.minimum(x + 0.5 * h, target.hi)
    covered = np.clip(np.minimum(cell_hi, source.hi) - np.maximum(cell_lo, source.lo),
                      0.0, None)
    return zeta.with_values(zeta.values * (covered / (cell_hi - cell_lo)))
