"""Interval bookkeeping for perturbed composites.

When the boundary data is noisy, the usable part of the coefficient's
domain is the intersection of the exact image with the perturbed image.
This module computes that intersection and the admissible noise
threshold.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateIntersection
from .func1d import _FP_SLACK, CurveComposite, Interval, _any, _first_of
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
    lo, hi = _common_ends(phi1.forward.values, phi2.forward.values, eta)
    return Interval(float(lo), float(hi))


def _common_ends(v1: np.ndarray, v2: np.ndarray, eta) -> tuple:
    # intersect_images' rule for the samples of two increasing composites,
    # or for each pair of rows of two blocks with one eta a row (a float,
    # shape (k,) or None): the gap and non-degeneracy tests, a block with
    # failing pairs raising the error of the first, and the common ends
    # (lo, hi)
    gap, len1, len2, lo, hi = _image_margins(v1, v2)
    if eta is None:
        eta = gap
    else:
        over = gap > eta * (1.0 + _FP_SLACK) + _FP_SLACK
        if _any(over):
            gap, eta = (_first_of(x, over) for x in (gap, eta))
            raise ValueError(f"sup gap {gap:.3e} exceeds declared eta {eta:.3e}")
    thin = _thin(eta, len1, len2)
    if _any(thin):
        raise _thin_error(*(_first_of(x, thin) for x in (eta, len1, len2)))
    return lo, hi


def _image_margins(v1: np.ndarray, v2: np.ndarray) -> tuple:
    # intersect_images' measurements of two increasing composites' samples,
    # or of each pair of rows of two blocks (one may be a row for all): the
    # sup gap, both images' lengths and the common ends (lo, hi)
    gap = np.abs(v1 - v2).max(axis=-1)
    lo1, hi1, lo2, hi2 = v1.T[0], v1.T[-1], v2.T[0], v2.T[-1]
    if gap.ndim == 0:   # NumPy scalars: np.where would cost more than the rule
        lo, hi = max(lo1, lo2), min(hi1, hi2)
    else:   # the first end on ties, as Python's max and min keep it
        lo, hi = np.where(lo2 > lo1, lo2, lo1), np.where(hi2 < hi1, hi2, hi1)
    return gap, hi1 - lo1, hi2 - lo2, lo, hi


def _thin(eta, len1, len2):
    # the non-degeneracy rule 2*eta < min image length, True where it fails
    return (2.0 * eta >= len1) | (2.0 * eta >= len2)


def _thin_error(eta, len1, len2) -> DegenerateIntersection:
    return DegenerateIntersection(
        "2*eta < min image length fails (noise level must stay below "
        "min{(g1-g0)/4, C_g/2}); "
        f"eta={eta:.3e}, lengths=({len1:.3e}, {len2:.3e})")


def admissible_eps(problem) -> float:
    """Strict upper bound for the C1 noise level of a problem instance:
    min{(g1 - g0)/4, C_g/2}.  Experiments must choose eps below this."""
    return min(problem.interval.length() / 4.0,
               problem.composite.deriv_lo / 2.0)
