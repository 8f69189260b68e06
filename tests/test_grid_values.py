"""Who copies and who adopts the values of a grid function.

The public constructors copy the caller's array and scan it; the
package's own operations hand the arrays they allocate to their output
without a copy.  These tests pin the errors a bad sample raises either
way, that adopted outputs are read-only and alias none of their inputs,
and that the cumulative-integral kernel is bit-identical to scipy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson

from tracereg.datagen import ProblemSpec, draw_noise, make_problem, scale_noise
from tracereg.errors import OutOfRange
from tracereg.func1d import (UNIT, CurveComposite, GridFunction, Interval,
                             cumulative_integral, derivative, norm,
                             second_derivative)
from tracereg.intervals import intersect_images
from tracereg.operators import (apply_L, apply_T1, apply_T2alpha, apply_T3,
                                apply_T3eps_pinv, extend_by_zero, project_W)
from tracereg.pwl import project_L2
from tracereg.regularizer import solve_ode

FINITE = "grid values must be finite"
ALT = GridFunction(UNIT, [1e308, -1e308, 1e308, -1e308, 1e308])


@pytest.mark.parametrize("kind", ["L2", "H2"])
def test_norm_of_overflowing_squares_raises(kind):
    # the values are finite; their squares are not, and the error says so
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="norm overflows: the square of 1e[+]200"):
        norm(GridFunction(UNIT, np.full(5, 1e200)), kind)


def test_norm_of_overflowing_sum_is_inf():
    # every square is finite, only their sum overflows
    f = GridFunction(UNIT, np.full(5, 1e154))
    with np.errstate(over="ignore"):
        assert norm(f, "L2") == np.inf


@pytest.mark.parametrize("op", [
    derivative, second_derivative, cumulative_integral, lambda f: f + f,
    lambda f: apply_T2alpha(0.5, f), lambda f: project_W(0.5, f)],
    ids=["derivative", "second_derivative", "cumulative_integral", "add",
         "apply_T2alpha", "project_W"])
def test_overflowing_outputs_raise(op):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=FINITE):
        op(ALT)


def test_projection_of_overflowing_loads_raises():
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="must not contain infs or NaNs"):
        project_L2(2, GridFunction(UNIT, np.full(11, 1.7e308)))


def test_pullback_outside_the_image_raises():
    # a common interval beyond the composite's image sends the queries
    # through invert_monotone's range scan
    comp = CurveComposite(GridFunction(UNIT, np.linspace(0.0, 1.0, 41)), 1.0, 1.0)
    wide = Interval(-0.5, 1.5)
    with pytest.raises(OutOfRange, match="outside sampled image"):
        apply_T3eps_pinv(comp, wide, GridFunction(UNIT, np.zeros(41)), wide)


@pytest.mark.parametrize("kind", ["C1", "L2"])
@pytest.mark.parametrize("eps, delta", [(0.0, 1e-3), (1e-3, 0.0),
                                        (1e-3, 1e-3), (0.0, 0.0)])
def test_scaled_noise_of_another_grid_raises(kind, eps, delta):
    noise = draw_noise(make_problem(ProblemSpec(n=41)), kind, 0)
    with pytest.raises(ValueError, match="grid mismatch"):
        scale_noise(make_problem(ProblemSpec(n=51)), noise, eps, delta)


def test_constructors_copy_and_check_the_callers_array():
    a = np.linspace(0.0, 1.0, 5)
    f = GridFunction(UNIT, a)
    g = GridFunction(f.interval, a)
    for h in (f, g):
        assert not np.shares_memory(h.values, a)
        assert not h.values.flags.writeable
    a[0] = 7.0
    assert a.flags.writeable and f.values[0] == g.values[0] == 0.0
    a[0] = np.nan
    with pytest.raises(ValueError, match=FINITE):
        GridFunction(UNIT, a)
    with pytest.raises(ValueError, match=FINITE):
        GridFunction(f.interval, a)


def test_nodes_are_shared_and_read_only():
    f = GridFunction(UNIT, np.zeros(11))
    assert f.nodes is (f + 1.0).nodes
    assert not f.nodes.flags.writeable
    assert np.array_equal(f.nodes, UNIT.grid(11))
    assert UNIT.grid(11).flags.writeable
    # a signed zero end keeps its sign
    neg = Interval(-1.0, -0.0)
    assert np.signbit(GridFunction(neg, np.zeros(5)).nodes[-1])
    assert not np.signbit(GridFunction(Interval(-1.0, 0.0), np.zeros(5)).nodes[-1])


def _adopting_ops():
    # name -> (the call, the grid functions whose memory it must not share)
    x = np.linspace(0.0, 1.0, 41)
    w = GridFunction(UNIT, np.sin(3.0 * x) + x)
    comp = CurveComposite(GridFunction(UNIT, x + 0.1 * np.sin(np.pi * x) ** 2),
                          0.6, 1.4)
    zeta = GridFunction(Interval(-0.5, 1.5), np.cos(np.linspace(-0.5, 1.5, 41)))
    common = intersect_images(comp, comp, eta=0.0)
    prob = make_problem(ProblemSpec(n=41))
    noise = draw_noise(prob, "L2", 0)
    return {
        "derivative": (lambda: derivative(w), (w,)),
        "second_derivative": (lambda: second_derivative(w), (w,)),
        "cumulative_integral": (lambda: cumulative_integral(w), (w,)),
        "add": (lambda: w + w, (w,)),
        "add_scalar": (lambda: w + 1.0, (w,)),
        "sub": (lambda: w - w, (w,)),
        "mul": (lambda: 2.0 * w, (w,)),
        "neg": (lambda: -w, (w,)),
        "apply_T1": (lambda: apply_T1(w), (w,)),
        "apply_T2alpha": (lambda: apply_T2alpha(0.3, w), (w,)),
        "apply_L": (lambda: apply_L(0.3, w), (w,)),
        "project_W": (lambda: project_W(0.3, w), (w,)),
        "apply_T3": (lambda: apply_T3(comp, zeta), (zeta, comp.forward)),
        "apply_T3eps_pinv": (lambda: apply_T3eps_pinv(comp, common, w, UNIT),
                             (w, comp.forward)),
        "extend_by_zero": (lambda: extend_by_zero(zeta, UNIT), (zeta,)),
        "solve_ode": (lambda: solve_ode(0.3, w), (w,)),
        "scale_noise_exact_L2": (
            lambda: scale_noise(prob, noise, 0.0, 0.0).g_perturbed,
            (prob.composite.forward,)),
        "scale_noise_L2": (
            lambda: scale_noise(prob, noise, 1e-3, 0.0).g_perturbed,
            (prob.composite.forward,)),
        "scale_noise_flux": (
            lambda: scale_noise(prob, noise, 0.0, 1e-3).f_perturbed, (prob.f,)),
    }


@pytest.mark.parametrize("name", sorted(_adopting_ops()))
def test_adopted_outputs_are_read_only_and_fresh(name):
    op, inputs = _adopting_ops()[name]
    out = op()
    assert not out.values.flags.writeable
    for f in inputs:
        assert not np.shares_memory(out.values, f.values)
        assert not np.shares_memory(out.values, f.nodes)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 60),
       length=st.floats(1e-3, 1e3),
       seed=st.integers(0, 10_000),
       scale=st.floats(1e-6, 1e6))
def test_cumulative_integral_matches_scipy(n, length, seed, scale):
    rng = np.random.default_rng(seed)
    f = GridFunction(Interval(-1.0, -1.0 + length), scale * rng.normal(size=n))
    want = cumulative_simpson(f.values, dx=f.spacing, initial=0.0)
    assert np.array_equal(cumulative_integral(f).values, want)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 801, 802])
def test_cumulative_integral_matches_scipy_small_and_even(n):
    f = GridFunction(UNIT, np.cos(7.0 * UNIT.grid(n)) - 0.5)
    want = cumulative_simpson(f.values, dx=f.spacing, initial=0.0)
    assert np.array_equal(cumulative_integral(f).values, want)
