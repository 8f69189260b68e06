"""Each public input check raises the error it names.

One case per check that the rest of the suite never reaches: the
exception type and a fragment of its message, so a check that starts
raising something else, or stops naming what it tests, fails here.
"""

import re

import numpy as np
import pytest

from tracereg.datagen import ProblemSpec, make_noisy, make_problem
from tracereg.errors import GridTooCoarse, SingularSystem, StencilTooSmall
from tracereg.func1d import (UNIT, CurveComposite, GridFunction, Interval,
                             norm, second_derivative, solve_tridiagonal,
                             sup_bound_check)
from tracereg.intervals import intersect_images
from tracereg.operators import apply_L, apply_T3eps_pinv
from tracereg.pwl import (PwlFunction, check_mesh_conditions,
                          inverse_inequality_check, project_L2)
from tracereg.regularizer import (RegularizationParams, reconstruct_noisy,
                                  solve_ode)

HALF = Interval(0.0, 0.5)


def line(n, interval=UNIT):
    return GridFunction(interval, interval.grid(n))


def identity(n):
    return CurveComposite(line(n), 1.0, 1.0)


def noisy_with_exact_params():
    prob = make_problem(ProblemSpec(n=41))
    reconstruct_noisy(prob, make_noisy(prob, "C1", 1e-3, 1e-3, seed=0),
                      RegularizationParams(alpha=0.1))


CASES = {
    "interval_nan_end": (lambda: Interval(0.0, float("nan")),
                         ValueError, "interval endpoints must be finite"),
    "composite_off_unit": (lambda: CurveComposite(line(11, HALF), 1.0, 1.0),
                           ValueError, "composite must be parametrized over [0, 1]"),
    "composite_bracket_reversed": (lambda: CurveComposite(line(11), 2.0, 1.0),
                                   ValueError, "need 0 < deriv_lo <= deriv_hi"),
    "second_derivative_4_nodes": (lambda: second_derivative(line(4)),
                                  StencilTooSmall, "needs at least 5 nodes"),
    "sup_bound_check_4_nodes": (lambda: sup_bound_check(line(4)),
                                StencilTooSmall, "needs at least 5 nodes"),
    "apply_L_4_nodes": (lambda: apply_L(0.5, line(4)),
                        StencilTooSmall, "needs at least 5 nodes"),
    "tridiagonal_zero_diagonal": (
        lambda: solve_tridiagonal(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3)),
        SingularSystem, "singular matrix"),
    "intersect_negative_eta": (lambda: intersect_images(identity(11), identity(11), eta=-1.0),
                               ValueError, "eta must be nonnegative"),
    "intersect_nan_eta": (lambda: intersect_images(identity(11), identity(11), eta=float("nan")),
                          ValueError, "eta must be nonnegative"),
    "intersect_other_grids": (lambda: intersect_images(identity(11), identity(21)),
                              ValueError, "composites must share one sampling grid"),
    "apply_L_alpha_1.5": (lambda: apply_L(1.5, line(11)),
                          ValueError, "alpha must lie in (0, 1)"),
    "solve_ode_alpha_1.5": (lambda: solve_ode(1.5, line(11)),
                            ValueError, "alpha must lie in (0, 1)"),
    "solve_ode_4_nodes": (lambda: solve_ode(0.5, line(4)),
                          SingularSystem, "grid too small for the boundary value solve"),
    "sum_on_other_grids": (lambda: line(11) + line(21), ValueError, "grid mismatch"),
    "pullback_data_off_unit": (lambda: apply_T3eps_pinv(identity(11), UNIT, line(11, HALF), UNIT),
                               ValueError, "trace data must live on [0, 1]"),
    "project_L2_off_unit": (lambda: project_L2(2, line(11, HALF)),
                            ValueError, "projection domain is [0, 1]"),
    "project_L2_unaligned": (lambda: project_L2(7, line(101)),
                             GridTooCoarse, "mesh breakpoints must be grid nodes"),
    "inverse_inequality_m_2": (lambda: inverse_inequality_check(PwlFunction(np.arange(3.0)), 2),
                               ValueError, "m must be 0 or 1"),
    "mesh_conditions_zero_h": (lambda: check_mesh_conditions(0.0, 0.0, 0.0, 1.0),
                               ValueError, "h, c_g must be positive"),
    "mesh_conditions_nan_h": (lambda: check_mesh_conditions(float("nan"), 0.0, 0.0, 1.0),
                              ValueError, "h, c_g must be positive"),
    "mesh_conditions_nan_eps": (lambda: check_mesh_conditions(0.1, float("nan"), 0.0, 1.0),
                                ValueError, "h, c_g must be positive"),
    "mesh_conditions_huge_h": (lambda: check_mesh_conditions(1e200, 0.0, 1e200, 1.0),
                               ValueError, "mesh width h must lie in (0, 1]"),
    "reconstruct_noisy_exact_mode": (noisy_with_exact_params,
                                     ValueError, "use reconstruct_exact for exact data"),
}


def test_norm_names_an_overflowing_square_of_finite_values():
    # the second differences (up to 4.9e154) are finite, their squares are
    # not; the lower rungs stay finite
    f = GridFunction(Interval(0.0, 0.0625),
                     1e150 * np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
    assert np.isfinite(norm(f, "L2")) and np.isfinite(norm(f, "H1"))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape("norm overflows: the square of 4.92e+154")):
        norm(f, "H2")


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_the_error_it_names(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
