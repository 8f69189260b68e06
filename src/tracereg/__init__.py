"""Coefficient recovery from boundary-curve trace data.

Reconstructs a one-dimensional coefficient from trace data along a
monotone boundary composite by damping the ill-posed link of the operator
chain with a second-derivative penalty, with rate-verified behaviour
under smooth and rough data perturbations.
"""

from .func1d import (CurveComposite, GridFunction, Interval,
                     cumulative_integral, integrate, invert_monotone, norm,
                     sup_bound_check)
from .intervals import IntersectionResult, admissible_eps, intersect_images
from .operators import (apply_L, apply_T1, apply_T2alpha, apply_T3,
                        apply_T3eps_pinv, extend_by_zero, project_W)
from .pwl import (PwlFunction, UniformMesh, check_mesh_conditions,
                  derivative_bracket, inverse_inequality_check, project_L2)
from .datagen import (NoisyData, ProblemInstance, ProblemSpec, SeedNoise,
                      draw_noise, make_noisy, make_problem, perturb_C1,
                      perturb_L2, perturb_flux, scale_noise)
from .regularizer import (Mode, Reconstruction, RegularizationParams,
                          reconstruct_exact, reconstruct_noisy, solve_ode)

__all__ = [
    "Interval", "GridFunction", "CurveComposite", "integrate", "norm",
    "cumulative_integral", "invert_monotone", "sup_bound_check",
    "IntersectionResult", "intersect_images", "admissible_eps",
    "apply_T1", "apply_T2alpha", "apply_L", "project_W", "apply_T3", "apply_T3eps_pinv", "extend_by_zero",
    "UniformMesh", "PwlFunction", "project_L2",
    "inverse_inequality_check", "check_mesh_conditions", "derivative_bracket",
    "ProblemSpec", "ProblemInstance", "NoisyData", "make_problem",
    "perturb_C1", "perturb_L2", "perturb_flux", "SeedNoise", "draw_noise",
    "scale_noise", "make_noisy",
    "Mode", "RegularizationParams", "Reconstruction", "solve_ode",
    "reconstruct_exact", "reconstruct_noisy",
]

__version__ = "0.1.0"
