"""The reconstruction engine.

Stage 1 recovers the antiderivative data on the usable interval (exactly
for clean data, through the perturbed composite's inverse for noisy
data), stage 2 solves the damped two-point boundary value problem
-alpha*b'' + b = zeta with b(g0) = 0 and b'(g1) = 0, and stage 3
differentiates.  A known nonzero endpoint value of the coefficient is
removed before stage 1 and added back after stage 3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import (DegenerateIntersection, MeshConditionViolated,
                     MonotonicityViolation, ShiftMismatch, SingularSystem)
from .func1d import CurveComposite, GridFunction, derivative
from .intervals import admissible_eps, intersect_images
from .operators import apply_T3eps_pinv, extend_by_zero
from .pwl import UniformMesh, check_mesh_conditions, derivative_bracket, project_L2
from .datagen import NoisyData, ProblemInstance


class Mode(enum.Enum):
    EXACT = "exact"
    NOISY_C1 = "noisy_c1"
    NOISY_L2 = "noisy_l2"


@dataclass(frozen=True)
class RegularizationParams:
    """Regularization strength and pipeline mode.

    ``mesh_h`` is the projection mesh width, present exactly in L2-noise
    mode; ``shift_c`` is the known endpoint value of the coefficient.
    """

    alpha: float
    mode: Mode = Mode.EXACT
    shift_c: float = 0.0
    mesh_h: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if (self.mesh_h is not None) != (self.mode is Mode.NOISY_L2):
            raise ValueError("mesh_h is required in L2-noise mode and "
                             "forbidden otherwise")
        if self.mesh_h is not None and self.mesh_h <= 0.0:
            raise ValueError("mesh_h must be positive")


@dataclass(frozen=True)
class Reconstruction:
    b_alpha: GridFunction
    a_alpha: GridFunction
    zeta_used: GridFunction
    params: RegularizationParams


def solve_ode(alpha: float, zeta: GridFunction) -> GridFunction:
    """Solve -alpha*b'' + b = zeta with b(lo) = 0 and b'(hi) = 0.

    Second-order finite differences: interior rows -alpha*D2 + I, a
    Dirichlet row at the left endpoint, and a ghost-node Neumann row at
    the right endpoint.  The tridiagonal system is strictly diagonally
    dominant for alpha > 0.  The band and the right-hand side are finite
    by construction (grid values are finite and alpha/h**2 is checked), so
    the solver skips its input scan and works in place; its output is
    checked instead.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n, h = zeta.n, zeta.spacing
    if n < 5:
        raise SingularSystem("grid too small for the boundary value solve")
    try:
        h2 = h**2
    except OverflowError:   # Python floats raise where numpy gives inf
        raise SingularSystem(f"alpha/h**2 underflows: h**2 overflows at "
                             f"h={h:.3g}") from None
    r = alpha / h2 if h2 > 0.0 else np.inf
    if not np.isfinite(2.0 * r):
        raise SingularSystem(
            f"alpha/h**2 = {r:.3g} is not finite in the band "
            f"(alpha={alpha:.3g}, h={h:.3g})")
    # the Dirichlet unknown is eliminated up front so b(lo) = 0 holds
    # exactly; the remaining system keeps interior rows -alpha*D2 + I and
    # a ghost-node Neumann row (b[n] = b[n-2]) at the far end
    m = n - 1
    ab = np.zeros((3, m))
    ab[0, 1:] = -r          # superdiagonal
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r         # subdiagonal
    ab[2, m - 2] = -2.0 * r
    b = zeta.values.copy()
    b[0] = 0.0
    try:
        # the solver may write its solution over b[1:] in place; the
        # assignment keeps b right if it copies instead
        b[1:] = solve_banded((1, 1), ab, b[1:], overwrite_ab=True,
                             overwrite_b=True, check_finite=False)
    except np.linalg.LinAlgError as exc:   # pragma: no cover - guarded
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(b)):
        raise SingularSystem("non-finite solution from the banded solve")
    return zeta.with_values(b)


def _shifted_zeta(problem: ProblemInstance, shift_c: float) -> GridFunction:
    t = problem.interval.grid(problem.b0.n)
    return problem.b0 - shift_c * GridFunction(problem.interval,
                                               t - problem.interval.lo)


def reconstruct_exact(problem: ProblemInstance,
                      params: RegularizationParams) -> Reconstruction:
    """Reconstruct from clean data: zeta is the exact antiderivative."""
    end_gap = abs(problem.a0.values[-1] - params.shift_c)
    scale = max(1.0, float(np.abs(problem.a0.values).max()))
    if end_gap > 1e-10 * scale:
        raise ShiftMismatch(
            f"a0(g1)={problem.a0.values[-1]:.6g} differs from shift_c="
            f"{params.shift_c:.6g}")
    return _solve_stages(_shifted_zeta(problem, params.shift_c), params)


def _solve_stages(zeta: GridFunction,
                  params: RegularizationParams) -> Reconstruction:
    """Stages 2 and 3: the boundary value solve, then differentiation with
    the endpoint value added back."""
    b = solve_ode(params.alpha, zeta)
    a = derivative(b) + params.shift_c
    return Reconstruction(b_alpha=b, a_alpha=a, zeta_used=zeta, params=params)


def _effective_composite(problem: ProblemInstance, noisy: NoisyData,
                         params: RegularizationParams) -> CurveComposite:
    if params.mode is Mode.NOISY_C1:
        if not isinstance(noisy.g_perturbed, CurveComposite):
            raise ValueError("C1 mode expects a CurveComposite perturbation")
        return noisy.g_perturbed

    # L2 mode: project the rough samples onto the piecewise-linear mesh.
    if isinstance(noisy.g_perturbed, CurveComposite):
        raw = noisy.g_perturbed.forward
    else:
        raw = noisy.g_perturbed
    n_cells = int(round(1.0 / params.mesh_h))
    if abs(n_cells * params.mesh_h - 1.0) > 1e-9:
        raise ValueError("mesh_h must be 1/N for an integer cell count N")
    if not check_mesh_conditions(params.mesh_h, noisy.eps,
                                 problem.g_h4_cell_sup(n_cells),
                                 problem.composite.deriv_lo):
        raise MeshConditionViolated(
            "mesh width and noise level fail the (h, eps) admissibility "
            f"inequalities: h={params.mesh_h:.3e}, eps={noisy.eps:.3e}")
    p = project_L2(UniformMesh(n_cells), raw)
    lo_req = 0.5 * problem.composite.deriv_lo
    hi_req = 2.0 * problem.composite.deriv_hi
    smin, smax = derivative_bracket(p)
    if smin < lo_req or smax > hi_req:
        raise MonotonicityViolation(
            "projected composite leaves the half/double derivative bracket: "
            f"slopes in [{smin:.3g}, {smax:.3g}], bracket [{lo_req:.3g}, {hi_req:.3g}]")
    return CurveComposite(p.as_grid_function(raw.n), deriv_lo=lo_req, deriv_hi=hi_req)


def reconstruct_noisy(problem: ProblemInstance, noisy: NoisyData,
                      params: RegularizationParams) -> Reconstruction:
    """Three-stage reconstruction from perturbed data.

    Stage 1 builds the effective composite (the C1 perturbation itself, or
    the mesh projection of rough samples), intersects images, pulls the
    trace data back through the composite's inverse at the target grid's
    nodes and zeroes it outside the common interval.
    Stages 2 and 3 are the boundary value solve and differentiation.
    """
    if params.mode is Mode.EXACT:
        raise ValueError("use reconstruct_exact for exact data")
    if noisy.eps >= admissible_eps(problem):
        raise DegenerateIntersection(
            f"eps={noisy.eps:.3e} violates eps < min{{(g1-g0)/4, C_g/2}}"
            f"={admissible_eps(problem):.3e}")

    eff = _effective_composite(problem, noisy, params)
    sup_gap = float(np.abs(problem.composite.forward.values
                           - eff.forward.values).max())
    inter = intersect_images(problem.composite, eff,
                             eta=sup_gap * (1.0 + 1e-12) + 1e-15)

    f_data = noisy.f_perturbed
    if params.shift_c != 0.0:
        f_data = f_data - params.shift_c * (eff.forward - problem.interval.lo)

    zeta_pulled = apply_T3eps_pinv(eff, inter, f_data, problem.interval,
                                   n=problem.b0.n)
    zeta = extend_by_zero(zeta_pulled, inter.common)
    return _solve_stages(zeta, params)
