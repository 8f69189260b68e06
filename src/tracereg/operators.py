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
                     _column, _fresh, _pchip, _raise_first, _right_slope, _shared_grid,
                     cumulative_integral, invert_monotone, pchip, second_derivative)


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


def _null_rows(alpha, interval: Interval, n: int):
    # the rows S, C of L on n nodes and their one-sided slopes at g1, for a
    # float alpha or for one alpha per row, shape (k,)
    g0, g1 = interval.lo, interval.hi
    ra = _column(np.sqrt(alpha))
    t = interval.grid(n)
    b = (g1 - g0) / ra
    s_vals = ra * _exp_ratio_sinh((t - g0) / ra, b)      # S(g0) = 0, S'(g1) = 1
    c_vals = _exp_ratio_cosh((t - g1) / ra, b)           # C(g0) = 1, C'(g1) = 0
    h = interval.length() / (n - 1)
    return s_vals, c_vals, _right_slope(s_vals, h), _right_slope(c_vals, h)


def _null_fit(v: np.ndarray, h, rows) -> np.ndarray:
    # L of a row or of each row of a block v with spacing h, from the
    # _null_rows of one alpha or of one alpha per row
    s_vals, c_vals, s_slope, c_slope = rows
    c2 = v.T[0]
    c1 = (_right_slope(v, h) - c2 * c_slope) / s_slope
    return _column(c1) * s_vals + _column(c2) * c_vals


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
    rows = _null_rows(alpha, x.interval, x.n)
    return _fresh(x.interval, _null_fit(x.values, x.spacing, rows))


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
            f"[{zeta.interval.lo:.6g}, {zeta.interval.hi:.6g}]"
            f"{_overshoot(zeta.interval, im.lo, im.hi, tol)}")
    return _fresh(UNIT, _composed(zeta.values[None], zeta.nodes, zeta.interval,
                                  c.forward.values[None])[0])


def _overshoot(outer: Interval, lo: float, hi: float, tol: float) -> str:
    # the containment messages' tail: how far [lo, hi] leaves outer, and the
    # tolerance that it exceeds
    over = max(outer.lo - lo, hi - outer.hi)
    return f": overshoot {over:.3g}, tolerance {tol:.3g}"


def _composed(v: np.ndarray, nodes: np.ndarray, interval: Interval,
              forward: np.ndarray) -> np.ndarray:
    # apply_T3's values for each row of a block v on the nodes of interval
    # and the same row of a block of composite samples forward
    return _pchip(v, nodes, interval, np.clip(forward, interval.lo, interval.hi))


def apply_T3eps_pinv(c_eps: CurveComposite, common: Interval,
                     f: GridFunction, target: Interval) -> GridFunction:
    """Solve the perturbed composition equation in closed form.

    The generalized inverse of composition-with-c_eps applied to trace
    data f is f evaluated at the inverse of the composite.  It is sampled
    once, at the nodes of a uniform grid over ``target`` (f.n nodes)
    clipped to the common interval: inversion goes through the
    piecewise-linear extension of the composite, and ``f``, which must
    live on [0, 1], is read through its monotone cubic interpolant
    (``pchip``) at the preimages, clipped to [0, 1].  Nodes outside the
    common interval carry the value at its nearest end; ``extend_by_zero``
    then weights them by their dual cells' covered fraction.
    """
    z = target.grid(f.n)
    vals = pchip(f, _preimages(c_eps, common, f, z))
    return _fresh(target, vals)


def _preimages(c_eps: CurveComposite, common: Interval, f: GridFunction,
               z: np.ndarray) -> np.ndarray:
    # apply_T3eps_pinv's queries into f: the nodes z, clipped in place to
    # the common interval, through the composite's inverse, clipped to [0, 1]
    if f.interval != UNIT:
        raise ValueError("trace data must live on [0, 1]")
    s = invert_monotone(c_eps, np.clip(z, common.lo, common.hi, out=z))
    return np.clip(s, 0.0, 1.0, out=s)


def _preimage_rows(forward: np.ndarray, nodes: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    # _preimages for each row j of a block of composite samples forward
    # (k, n): the nodes clipped to [lo[j], hi[j]], through row j's inverse
    # (np.interp's, one a row), clipped to [0, 1].  The caller's common ends
    # lie inside each row's image, so no query leaves it.  Returns the
    # preimages and, for one row, its queries, which the caller frees after
    # the preimages; a block's are spent row by row
    unit = _shared_grid(0.0, 1.0, forward.shape[-1])
    if len(forward) == 1:
        queries = np.clip(nodes, lo[0], hi[0])
        s = np.interp(queries, forward[0], unit)[None]
    else:
        queries, s = None, np.empty(forward.shape)
        for row, f, a, b in zip(s, forward, lo.tolist(), hi.tolist()):
            row[:] = np.interp(np.clip(nodes, a, b), f, unit)
    return np.clip(s, 0.0, 1.0, out=s), queries


def extend_by_zero(zeta: GridFunction, source: Interval) -> GridFunction:
    """Cut a function on the target grid down to the source interval.

    ``zeta`` lives on the target interval, which must contain the source;
    its values are kept inside the source and zeroed outside.  Nodes
    whose dual cell straddles a source edge are weighted by the covered
    fraction of the cell, so the mass removed by the cut matches the
    continuum extension no matter where the edge falls relative to the
    grid (naive nodewise zeroing would widen a sub-cell cut to a full
    cell and overdrive the downstream boundary value solve).

    The dual cell of node x is [x - h/2, x + h/2] clipped to the target.
    Only nodes within 2h of a source edge can straddle it; the others are
    kept or zeroed without computing a fraction.  A straddling cell that has
    rounded to zero width (a grid step near the spacing of doubles) gets
    weight 1 if its node lies in the source and 0 if not.
    """
    target, lo, hi = zeta.interval, np.array([source.lo]), np.array([source.hi])
    _raise_first(_containment_rule(target, lo, hi))
    vals = zeta.values[None].copy()
    _cut(vals, zeta.nodes, zeta.spacing, target, lo, hi)
    return _fresh(target, vals[0])


def _containment_rule(target: Interval, lo: np.ndarray, hi: np.ndarray) -> tuple:
    # extend_by_zero's rule on the sources [lo[j], hi[j]] of a block's rows:
    # each lies in target up to the tolerance
    tol = _FP_SLACK * max(1.0, abs(target.lo), abs(target.hi))
    return ~((target.lo - tol <= lo) & (hi <= target.hi + tol)), lambda j: ImageMismatch(
        f"source [{lo[j]:.6g}, {hi[j]:.6g}] not contained in target "
        f"[{target.lo:.6g}, {target.hi:.6g}]{_overshoot(target, lo[j], hi[j], tol)}")


def _cut(rows: np.ndarray, x: np.ndarray, h: float, target: Interval,
         lo: np.ndarray, hi: np.ndarray) -> None:
    # extend_by_zero's cut, in place, of each row of a block (k, n) on the
    # nodes x of target with spacing h down to its own source [lo[j], hi[j]].
    # In row j, nodes below a are wholly left of the source and nodes from d
    # on wholly right; nodes from b to c are wholly inside, so only [a, b)
    # and [c, d) can straddle an edge (one window once the two overlap).
    # One pass weights every row's edge nodes
    ends = np.searchsorted(x, np.stack((lo - 2.0 * h, lo + 2.0 * h,
                                        hi - 2.0 * h, hi + 2.0 * h), axis=-1))
    which, edge = [], []   # each edge node's row and column
    for j, (row, (a, b, c, d)) in enumerate(zip(rows, ends.tolist())):
        row[:a] *= 0.0
        row[d:] *= 0.0
        cols = [*range(a, b), *range(max(b, c), d)]
        which += [j] * len(cols)
        edge += cols
    xe, src_lo, src_hi = x[edge], lo[which], hi[which]
    cell_lo = np.maximum(xe - 0.5 * h, target.lo)
    cell_hi = np.minimum(xe + 0.5 * h, target.hi)
    covered = np.maximum(np.minimum(cell_hi, src_hi) - np.maximum(cell_lo, src_lo), 0.0)
    width = cell_hi - cell_lo
    weight = ((src_lo <= xe) & (xe <= src_hi)).astype(float)
    np.divide(covered, width, out=weight, where=width > 0.0)
    rows[which, edge] *= weight
