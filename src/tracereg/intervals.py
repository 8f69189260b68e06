"""Interval bookkeeping for perturbed composites.

When the boundary data is noisy, the usable part of the coefficient's
domain is the intersection of the exact image with the perturbed image.
This module computes that intersection and the admissible noise
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIntersection
# invert_monotone is not called here; it stays importable under this
# module's name because perfbench/workloads.py's CALL_SITES names it
from .func1d import _FP_SLACK, CurveComposite, Interval, invert_monotone  # noqa: F401


@dataclass(frozen=True)
class IntersectionResult:
    """Common interval of two sampled images.

    ``endpoint_gaps`` holds |lo1 - lo2| and |hi1 - hi2| of the two images;
    both are bounded by the sup distance of the composites.
    """

    common: Interval
    endpoint_gaps: tuple[float, float]

    def __post_init__(self) -> None:
        if min(self.endpoint_gaps) < 0.0:
            raise ValueError("endpoint gaps must be nonnegative")


def intersect_images(phi1: CurveComposite, phi2: CurveComposite,
                     eta: float) -> IntersectionResult:
    """Intersect the images of two monotone composites.

    Requires the sup gap of the two samples to be at most ``eta`` and the
    non-degeneracy condition 2*eta < min of the image lengths; under these
    the intersection is a non-degenerate interval whose endpoints differ
    from either image's endpoints by at most eta.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    if phi1.forward.n != phi2.forward.n:
        raise ValueError("composites must share one sampling grid")
    gap = float(np.abs(phi1.forward.values - phi2.forward.values).max())
    if gap > eta * (1.0 + _FP_SLACK) + _FP_SLACK:
        raise ValueError(f"sup gap {gap:.3e} exceeds declared eta {eta:.3e}")

    im1, im2 = phi1.image(), phi2.image()
    if 2.0 * eta >= min(im1.length(), im2.length()):
        raise DegenerateIntersection(
            "2*eta < min image length fails (noise level must stay below "
            "min{(g1-g0)/4, C_g/2}); "
            f"eta={eta:.3e}, lengths=({im1.length():.3e}, {im2.length():.3e})")

    lo = max(im1.lo, im2.lo)
    hi = min(im1.hi, im2.hi)
    common = Interval(lo, hi)
    gaps = (abs(im1.lo - im2.lo), abs(im1.hi - im2.hi))
    return IntersectionResult(common=common, endpoint_gaps=gaps)


def admissible_eps(problem) -> float:
    """Strict upper bound for the C1 noise level of a problem instance:
    min{(g1 - g0)/4, C_g/2}.  Experiments must choose eps below this."""
    return min(problem.interval.length() / 4.0, problem.c_g / 2.0)
