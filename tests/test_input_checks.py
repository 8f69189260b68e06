"""Each public input check raises the error it names.

One case per check that the rest of the suite never reaches: the
exception type and a fragment of its message, so a check that starts
raising something else, or stops naming what it tests, fails here.
"""

import re

import numpy as np
import pytest

from tracereg.datagen import NoisyData, ProblemSpec, make_noisy, make_problem
from tracereg.errors import (DegenerateIntersection, GridTooCoarse, SingularSystem,
                             StencilTooSmall)
from tracereg.func1d import (UNIT, CurveComposite, GridFunction, Interval,
                             norm, second_derivative, solve_tridiagonal,
                             sup_bound_check)
from tracereg.intervals import intersect_images
from tracereg.operators import apply_L, apply_T2alpha, apply_T3eps_pinv
from tracereg.pwl import (check_mesh_conditions, inverse_inequality_check,
                          project_L2)
from tracereg.regularizer import (Mode, RegularizationParams,
                                  reconstruct_noisy, solve_ode)

HALF = Interval(0.0, 0.5)


def line(n, interval=UNIT):
    return GridFunction(interval, interval.grid(n))


def identity(n):
    return CurveComposite(line(n), 1.0, 1.0)


def noisy_with_exact_params():
    prob = make_problem(ProblemSpec(n=41))
    reconstruct_noisy(prob, make_noisy(prob, "C1", 1e-3, 1e-3, seed=0),
                      RegularizationParams(alpha=0.1))


def trace_data_on_another_grid():
    prob = make_problem(ProblemSpec(n=401))
    noisy = make_noisy(prob, "C1", 1e-3, 1e-3, seed=0)
    coarse = NoisyData(noisy.g_perturbed, line(201), noisy.eps)
    reconstruct_noisy(prob, coarse,
                      RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))


def composite_with_overflowing_slope():
    # finite samples whose end stencil overflows: no bracket can hold them
    with np.errstate(over="ignore", invalid="ignore"):
        CurveComposite(GridFunction(UNIT, np.linspace(0.0, 1.7e308, 5)), 1.0, 1.0)


CASES = {
    "interval_nan_end": (lambda: Interval(0.0, float("nan")),
                         ValueError, "interval endpoints must be finite"),
    "composite_off_unit": (lambda: CurveComposite(line(11, HALF), 1.0, 1.0),
                           ValueError, "composite must be parametrized over [0, 1]"),
    "composite_bracket_reversed": (lambda: CurveComposite(line(11), 2.0, 1.0),
                                   ValueError, "need 0 < deriv_lo <= deriv_hi"),
    "composite_slope_overflows": (composite_with_overflowing_slope,
                                  ValueError, "grid values must be finite"),
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
    "apply_L_alpha_1": (lambda: apply_L(1.0, line(11)),
                        ValueError, "alpha must lie in (0, 1)"),
    "apply_T2alpha_alpha_1": (lambda: apply_T2alpha(1.0, line(11)),
                              ValueError, "alpha must lie in (0, 1)"),
    "solve_ode_alpha_1": (lambda: solve_ode(1.0, line(11)),
                          ValueError, "alpha must lie in (0, 1)"),
    "params_alpha_1": (lambda: RegularizationParams(alpha=1.0),
                       ValueError, "alpha must lie in (0, 1)"),
    "intersect_thin_at_half_length": (
        lambda: intersect_images(identity(11), identity(11), eta=0.5),
        DegenerateIntersection, "2*eta < min image length fails"),
    "solve_ode_4_nodes": (lambda: solve_ode(0.5, line(4)),
                          SingularSystem, "grid too small for the boundary value solve"),
    "sum_on_other_grids": (lambda: line(11) + line(21), ValueError, "grid mismatch"),
    "pullback_data_off_unit": (lambda: apply_T3eps_pinv(identity(11), UNIT, line(11, HALF), UNIT),
                               ValueError, "trace data must live on [0, 1]"),
    "project_L2_off_unit": (lambda: project_L2(2, line(11, HALF)),
                            ValueError, "projection domain is [0, 1]"),
    "project_L2_unaligned": (lambda: project_L2(7, line(101)),
                             GridTooCoarse, "mesh breakpoints must be grid nodes"),
    "inverse_inequality_m_2": (lambda: inverse_inequality_check(line(3), 2),
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
    "reconstruct_noisy_other_grid": (
        trace_data_on_another_grid, ValueError,
        "grid mismatch: the trace data has 201 nodes, the problem's grid 401"),
}


def test_intersect_just_below_half_length_is_the_whole_image():
    # the thin-image rule 2*eta < length at its boundary: eta = 0.5 raises
    # (CASES), eta = 0.499 keeps both [0, 1] images whole
    assert intersect_images(identity(11), identity(11), eta=0.499) == UNIT


def test_norm_names_an_overflowing_square_of_finite_values():
    # the second differences (up to 4.9e154) are finite, their squares are
    # not; the lower rungs stay finite
    f = GridFunction(Interval(0.0, 0.0625),
                     1e150 * np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
    assert np.isfinite(norm(f, "L2")) and np.isfinite(norm(f, "H1"))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape("norm overflows: the square of 4.92e+154")):
        norm(f, "H2")


def test_norm_names_an_overflowing_difference_of_finite_values():
    # the squares of the values (1e300) are finite; the end differences
    # over a step of 2.5e-201 are not
    f = GridFunction(Interval(0.0, 1e-200),
                     1e150 * np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
    assert np.isfinite(norm(f, "L2"))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="norm overflows: a difference quotient of the "
                              "finite grid values exceeds the float range"):
        norm(f, "H1")


@pytest.mark.parametrize("m", (0, 1))
def test_inverse_inequality_names_an_overflowing_square_of_finite_values(m):
    # the values are finite, their squares (and the differences) are not;
    # both sides used to come back infinite, or lhs 1e308 against rhs inf
    p = GridFunction(UNIT, np.array([0.0, 1e308, -1e308, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=re.escape("norm overflows: the square of 1e+308")):
        inverse_inequality_check(p, m)


def test_inverse_inequality_names_an_overflowing_difference_of_finite_values():
    # the squares of the values (1e300) are finite; the difference quotients
    # over a step of 2.5e-201 are not
    p = GridFunction(Interval(0.0, 1e-200),
                     1e150 * np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
    assert np.isfinite(inverse_inequality_check(p, 0)).all()
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="norm overflows: a difference quotient of the "
                              "finite grid values exceeds the float range"):
        inverse_inequality_check(p, 1)


@pytest.mark.parametrize("values", ([1.0, 2.0, 3.0, 1e308], [1e308, 3.0, 2.0, 1.0]))
def test_inverse_inequality_names_an_overflowing_square_off_the_first_cell(values):
    # one cell's square overflows and another cell's finite pair has the
    # largest finite ratio; that pair used to come back, as for [1, 2, 3, 4]
    p = GridFunction(UNIT, np.array(values))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=re.escape("norm overflows: the square of 1e+308")):
        inverse_inequality_check(p, 0)


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_the_error_it_names(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
