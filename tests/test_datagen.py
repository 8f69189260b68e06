import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracereg.datagen import (A0_FORMULAS, COMPOSITE_FORMULAS, NoisyData,
                              ProblemSpec, make_noisy, make_problem,
                              perturb_C1, perturb_L2, perturb_flux)
from tracereg.errors import ConfigError, MonotonicityViolation
from tracereg.func1d import UNIT, CurveComposite, GridFunction, derivative, norm
from tracereg.intervals import admissible_eps
from tracereg.pwl import UniformMesh, derivative_bracket, project_L2


@pytest.fixture(scope="module")
def linear_problem():
    return make_problem(ProblemSpec())


def test_make_problem_linear_identity(linear_problem):
    prob = linear_problem
    s = prob.f.nodes
    assert np.abs(prob.f.values - (s - s**2 / 2)).max() < 1e-10
    assert prob.b0.values[0] == 0.0
    assert prob.composite.deriv_lo == prob.composite.deriv_hi == 1.0


def test_make_problem_trace_consistency():
    prob = make_problem(ProblemSpec(a0="cosine", composite="quadratic"))
    # f must equal the antiderivative composed with the composite at nodes
    from scipy.interpolate import PchipInterpolator
    interp = PchipInterpolator(prob.b0.nodes, prob.b0.values)
    assert np.abs(prob.f.values
                  - interp(prob.composite.forward.values)).max() < 1e-10
    assert abs(prob.b0.values[0]) < 1e-14


def test_make_problem_shift_identity():
    base = make_problem(ProblemSpec(a0="linear"))
    shifted = make_problem(ProblemSpec(a0="linear_plus2", c_end=2.0))
    extra = 2.0 * (shifted.composite.forward.values - shifted.interval.lo)
    assert np.abs(shifted.f.values - (base.f.values + extra)).max() < 1e-10


def test_make_problem_zero_coefficient():
    prob = make_problem(ProblemSpec(a0="zero"))
    assert np.abs(prob.f.values).max() == 0.0
    assert np.abs(prob.b0.values).max() == 0.0


def test_make_problem_validates_c_end():
    with pytest.raises(ConfigError):
        make_problem(ProblemSpec(a0="linear", c_end=1.0))
    with pytest.raises(ConfigError):
        make_problem(ProblemSpec(a0="nope"))


def test_a0_formula_registry_labels():
    # mean-free and end-pinned coefficients keep the antiderivative in the
    # constrained space at both ends
    for name in ("pw_quad", "cosine"):
        prob = make_problem(ProblemSpec(a0=name))
        assert abs(prob.b0.values[-1]) < 1e-6
        assert abs(prob.a0.values[-1]) < 1e-12


# ------------------------------------------------------------ C1 noise

def test_perturb_c1_zero_eps(linear_problem):
    noisy = perturb_C1(linear_problem, 0.0, seed=3)
    assert noisy.g_perturbed is linear_problem.composite
    assert noisy.eps == 0.0


def test_perturb_c1_budgets(linear_problem):
    eps = 1e-2
    noisy = perturb_C1(linear_problem, eps, seed=7)
    comp = noisy.g_perturbed
    assert isinstance(comp, CurveComposite)
    value_gap = np.abs(comp.forward.values
                       - linear_problem.composite.forward.values).max()
    deriv_gap = np.abs(derivative(comp.forward).values
                       - derivative(linear_problem.composite.forward).values).max()
    assert value_gap <= eps * (1 + 1e-9)
    assert deriv_gap <= eps * (1 + 1e-9)
    assert max(value_gap, deriv_gap) >= 0.9 * eps   # budget actually used


def test_perturb_c1_seeds_differ(linear_problem):
    n1 = perturb_C1(linear_problem, 1e-3, seed=0)
    n2 = perturb_C1(linear_problem, 1e-3, seed=1)
    assert not np.allclose(n1.g_perturbed.forward.values,
                           n2.g_perturbed.forward.values)
    again = perturb_C1(linear_problem, 1e-3, seed=0)
    assert np.array_equal(n1.g_perturbed.forward.values,
                          again.g_perturbed.forward.values)


def test_perturb_c1_admissibility_guard(linear_problem):
    with pytest.raises(ValueError):
        perturb_C1(linear_problem, admissible_eps(linear_problem), seed=0)


# ------------------------------------------------------------ L2 noise

@settings(max_examples=60, deadline=None)
@given(composite=st.sampled_from(sorted(COMPOSITE_FORMULAS)),
       a0=st.sampled_from(sorted(A0_FORMULAS)),
       lo=st.floats(-10.0, 10.0),
       length=st.floats(0.05, 20.0),
       n=st.integers(11, 2001),
       eps_fraction=st.floats(0.0, 0.999),
       seed=st.integers(0, 2**31 - 1))
def test_every_composite_builds_on_any_grid(composite, a0, lo, length, n,
                                            eps_fraction, seed):
    # the derivative bracket allows for the stencil's own O(h^2) error, so
    # coarse grids build, and so does their C1 perturbation
    spec = ProblemSpec(a0=a0, composite=composite, lo=lo, hi=lo + length, n=n,
                       c_end=A0_FORMULAS[a0].end_value)
    prob = make_problem(spec)
    noisy = perturb_C1(prob, eps_fraction * admissible_eps(prob), seed)
    assert noisy.g_perturbed.forward.n == n


@pytest.mark.parametrize("composite, n", [("sine_bend", 801), ("cubic", 402),
                                          ("cubic_steep", 402)])
def test_composite_outside_bracket_still_raises(composite, n):
    comp = make_problem(ProblemSpec(composite=composite, n=n)).composite
    assert 0.0 < comp.bracket_atol < 1e-5
    with pytest.raises(MonotonicityViolation):
        CurveComposite(comp.forward, comp.deriv_lo, 0.99 * comp.deriv_hi,
                       bracket_atol=comp.bracket_atol)
    with pytest.raises(MonotonicityViolation):
        CurveComposite(comp.forward, 1.01 * comp.deriv_lo, comp.deriv_hi,
                       bracket_atol=comp.bracket_atol)


def test_perturb_l2_zero(linear_problem):
    noisy = perturb_L2(linear_problem, 0.0, seed=0)
    assert isinstance(noisy.g_perturbed, GridFunction)
    assert np.array_equal(noisy.g_perturbed.values,
                          linear_problem.composite.forward.values)


def test_perturb_l2_budget(linear_problem):
    eps = 1e-3
    noisy = perturb_L2(linear_problem, eps, seed=4)
    gap = noisy.g_perturbed - GridFunction(
        noisy.g_perturbed.interval, linear_problem.composite.forward.values)
    measured = norm(gap, "L2")
    assert 0.99 * eps <= measured <= 1.01 * eps


def test_perturb_l2_projection_monotone(linear_problem):
    # under admissible (h, eps) the projected perturbation stays monotone
    eps = 1e-4
    noisy = perturb_L2(linear_problem, eps, seed=5)
    p = project_L2(UniformMesh(100), noisy.g_perturbed)
    lo, hi = derivative_bracket(p)
    assert lo >= 0.5 * linear_problem.composite.deriv_lo
    assert hi <= 2.0 * linear_problem.composite.deriv_hi


# ------------------------------------------------------------ flux noise

def test_perturb_flux_zero(linear_problem):
    assert perturb_flux(linear_problem, 0.0, seed=0) is linear_problem.f


def test_perturb_flux_budget(linear_problem):
    delta = 1e-4
    f_noisy = perturb_flux(linear_problem, delta, seed=9)
    measured = norm(f_noisy - linear_problem.f, "L2")
    assert 0.99 * delta <= measured <= 1.01 * delta


def test_perturb_flux_seeds_equal_norm(linear_problem):
    delta = 1e-3
    n1 = perturb_flux(linear_problem, delta, seed=0) - linear_problem.f
    n2 = perturb_flux(linear_problem, delta, seed=1) - linear_problem.f
    assert not np.allclose(n1.values, n2.values)
    assert norm(n1, "L2") == pytest.approx(norm(n2, "L2"), rel=1e-9)


def _dense_flux(problem, delta, seed):
    # reference: the 400-mode sine series summed as a dense 400 x n product
    rng = np.random.default_rng([seed, 2])
    s = problem.f.nodes
    xi = rng.normal(size=400)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=400)
    k = np.arange(1, 401)
    raw = (xi / np.sqrt(k)) @ np.sin(np.outer(k, np.pi * s) + theta[:, None])
    measured = norm(GridFunction(UNIT, raw), "L2")
    return problem.f + GridFunction(UNIT, (delta / measured) * raw)


@pytest.mark.parametrize("n", [5, 6, 101, 401, 402, 2001])
def test_perturb_flux_matches_dense_series(n):
    # n <= 401 puts modes past the 2(n-1) period, where they fold
    prob = make_problem(ProblemSpec(n=n))
    for seed in (0, 7):
        got = perturb_flux(prob, 1e-3, seed).values - prob.f.values
        want = _dense_flux(prob, 1e-3, seed).values - prob.f.values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_perturb_flux_repeatable(linear_problem):
    a = perturb_flux(linear_problem, 1e-4, seed=3)
    b = perturb_flux(linear_problem, 1e-4, seed=3)
    assert np.array_equal(a.values, b.values)


def test_make_noisy_combines(linear_problem):
    noisy = make_noisy(linear_problem, "C1", 1e-3, 1e-4, seed=2)
    assert isinstance(noisy, NoisyData)
    assert noisy.eps == 1e-3 and noisy.delta == 1e-4
    assert norm(noisy.f_perturbed - linear_problem.f, "L2") == pytest.approx(
        1e-4, rel=1e-2)
    with pytest.raises(ConfigError):
        make_noisy(linear_problem, "W2", 1e-3, 1e-4, seed=2)


def test_problem_cell_h4_norm():
    prob = make_problem(ProblemSpec(composite="cubic"))
    # cell-sup norm grows toward the full-interval norm (one cell) as
    # cells widen
    assert prob.g_h4_cell_sup(2) <= prob.g_h4_cell_sup(1)
    assert prob.g_h4_cell_sup(100) < prob.g_h4_cell_sup(2)


def _cell_sup_loop(prob, n_cells):
    # reference: integrate every squared derivative afresh per mesh
    s = prob.composite.forward.nodes
    breaks = np.linspace(0.0, 1.0, n_cells + 1)
    total = np.zeros(n_cells)
    for arr in (prob.composite.forward.values,) + prob.composite_derivs:
        sq = arr**2
        cum = np.concatenate(([0.0], np.cumsum(
            0.5 * (sq[1:] + sq[:-1]) * np.diff(s))))
        at_breaks = np.interp(breaks, s, cum)
        total += np.diff(at_breaks)
    return float(np.sqrt(total.max()))


def test_problem_cell_h4_norm_matches_loop():
    prob = make_problem(ProblemSpec(composite="sine_bend", n=4001))
    for n_cells in (2, 40, 100, 320, 1000):
        assert prob.g_h4_cell_sup(n_cells) == _cell_sup_loop(prob, n_cells)
