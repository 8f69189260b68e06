"""Interval bookkeeping for perturbed composites.

When the boundary data is noisy, the usable part of the coefficient's
domain is the intersection of the exact image with the perturbed image.
This module computes that intersection and the admissible noise
threshold.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateIntersection
from .func1d import _FP_SLACK, CurveComposite, Interval
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
    gap = float(np.abs(phi1.forward.values - phi2.forward.values).max())
    if eta is None:
        eta = gap
    elif gap > eta * (1.0 + _FP_SLACK) + _FP_SLACK:
        raise ValueError(f"sup gap {gap:.3e} exceeds declared eta {eta:.3e}")

    im1, im2 = phi1.image(), phi2.image()
    if 2.0 * eta >= min(im1.length(), im2.length()):
        raise DegenerateIntersection(
            "2*eta < min image length fails (noise level must stay below "
            "min{(g1-g0)/4, C_g/2}); "
            f"eta={eta:.3e}, lengths=({im1.length():.3e}, {im2.length():.3e})")

    return Interval(max(im1.lo, im2.lo), min(im1.hi, im2.hi))


def admissible_eps(problem) -> float:
    """Strict upper bound for the C1 noise level of a problem instance:
    min{(g1 - g0)/4, C_g/2}.  Experiments must choose eps below this."""
    return min(problem.interval.length() / 4.0,
               problem.composite.deriv_lo / 2.0)
