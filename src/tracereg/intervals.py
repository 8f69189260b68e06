"""Interval bookkeeping for perturbed composites.

When the boundary data is noisy, the usable part of the coefficient's
domain is the intersection of the exact image with the perturbed image.
This module computes that intersection and the admissible noise
threshold.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateIntersection
from .func1d import _FP_SLACK, CurveComposite, Interval, _raise_first
from .func1d import invert_monotone  # noqa: F401  (uncalled; perfbench's CALL_SITES names it)


def intersect_images(phi1: CurveComposite, phi2: CurveComposite,
                     eta: float | None = None) -> Interval:
    """Intersect the images of two increasing composites.

    Requires the sup gap of the two samples to be at most ``eta`` and the
    non-degeneracy condition 2*eta < min of the image lengths; under these
    the intersection is a non-degenerate interval whose endpoints differ
    from either image's endpoints by at most eta.  The gap is measured
    here; without ``eta`` the measured gap is the bound.
    """
    if eta is not None and not eta >= 0.0:
        raise ValueError("eta must be nonnegative")
    if phi1.forward.n != phi2.forward.n:
        raise ValueError("composites must share one sampling grid")
    rule, lo, hi = _intersection_rule(phi1.forward.values[None], phi2.forward.values[None], eta)
    _raise_first(rule)
    return Interval(float(lo[0]), float(hi[0]))


def _intersection_rule(v1: np.ndarray, v2: np.ndarray, eta) -> tuple:
    # intersect_images' rule on each pair of rows of two blocks of increasing
    # composites' samples (one may be a block of one row for all), with one
    # eta a row (shape (k,)), one for all, or None for the measured gap: the
    # sup gap within eta, then 2*eta < min image length.  Returns the rule
    # and the common ends lo, hi, one a row
    gap = np.abs(v1 - v2).max(axis=-1)
    lo1, hi1, lo2, hi2 = v1[:, 0], v1[:, -1], v2[:, 0], v2[:, -1]
    len1, len2 = hi1 - lo1, hi2 - lo2
    # the first end on ties, as Python's max and min keep it
    lo, hi = np.where(lo2 > lo1, lo2, lo1), np.where(hi2 < hi1, hi2, hi1)
    if eta is None:   # the gap never exceeds itself
        eta = gap
    over = gap > eta * (1.0 + _FP_SLACK) + _FP_SLACK
    thin = (2.0 * eta >= len1) | (2.0 * eta >= len2)

    def error(j: int) -> Exception:
        eta_j, len1_j, len2_j = (np.broadcast_to(x, gap.shape)[j] for x in (eta, len1, len2))
        if over[j]:
            return ValueError(f"sup gap {gap[j]:.3e} exceeds declared eta {eta_j:.3e}")
        return DegenerateIntersection(
            "2*eta < min image length fails (noise level must stay below "
            "min{(g1-g0)/4, C_g/2}); "
            f"eta={eta_j:.3e}, lengths=({len1_j:.3e}, {len2_j:.3e})")
    return (over | thin, error), lo, hi


def admissible_eps(problem) -> float:
    """Strict upper bound for the C1 noise level of a problem instance:
    min{(g1 - g0)/4, C_g/2}.  Experiments must choose eps below this."""
    return min(problem.interval.length() / 4.0,
               problem.composite.deriv_lo / 2.0)
