"""Exception types raised by the reconstruction pipeline.

Every exception message names the violated hypothesis so the CLI can
surface it on stderr verbatim.
"""


class TracregError(Exception):
    """Base class for all package errors."""


class ConfigError(TracregError):
    """Malformed or inconsistent experiment configuration."""


class StencilTooSmall(TracregError):
    """Grid has too few nodes for the requested difference stencil."""


class OutOfRange(TracregError):
    """Query point lies outside the image of an increasing map."""


class DegenerateIntersection(TracregError):
    """Perturbed and exact images fail the non-degeneracy condition
    2*eta < min of the image lengths (noise too large for the interval)."""


class ImageMismatch(TracregError):
    """A composite's image is not contained in the required interval."""


class SingularSystem(TracregError):
    """Tridiagonal boundary-value system could not be solved; indicates
    a grid construction bug since the operator is positive definite."""


class ShiftMismatch(TracregError):
    """Declared endpoint value of the exact coefficient disagrees with
    the shift used by the reconstruction."""


class MeshConditionViolated(TracregError):
    """Projection mesh width and noise level fail the admissibility
    inequalities coupling h to eps."""


class MonotonicityViolation(TracregError):
    """Sampled curve is not strictly increasing or breaks its declared
    derivative bracket."""


class GridTooCoarse(TracregError):
    """Sampling grid does not resolve the projection mesh."""


class InsufficientData(TracregError):
    """Not enough data points for a least-squares rate fit."""
    rows: tuple = ()   # a sweep's cells, when a sweep raised it
