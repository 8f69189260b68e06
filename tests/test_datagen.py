import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracereg.datagen import (A0_FORMULAS, COMPOSITE_FORMULAS, NoisyData,
                              ProblemSpec, draw_noise, make_noisy,
                              make_problem, perturb_flux, scale_noise)
from tracereg.errors import (ConfigError, DegenerateIntersection,
                             MonotonicityViolation)
from tracereg.func1d import UNIT, CurveComposite, GridFunction, derivative, norm
from tracereg.intervals import admissible_eps
from tracereg.pwl import derivative_bracket, project_L2
from tracereg.regularizer import (Mode, RegularizationParams, _effective_rows,
                                  _rows_of, reconstruct_noisy)


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
    noisy = make_noisy(linear_problem, "C1", 0.0, 0.0, seed=3)
    assert np.array_equal(noisy.g_perturbed.values,
                          linear_problem.composite.forward.values)
    assert noisy.eps == 0.0


def test_perturb_c1_budgets(linear_problem):
    eps = 1e-2
    noisy = make_noisy(linear_problem, "C1", eps, 0.0, seed=7)
    g = noisy.g_perturbed
    assert isinstance(g, GridFunction)
    value_gap = np.abs(g.values
                       - linear_problem.composite.forward.values).max()
    deriv_gap = np.abs(derivative(g).values
                       - derivative(linear_problem.composite.forward).values).max()
    assert value_gap <= eps * (1 + 1e-9)
    assert deriv_gap <= eps * (1 + 1e-9)
    assert max(value_gap, deriv_gap) >= 0.9 * eps   # budget actually used


def test_perturb_c1_seeds_differ(linear_problem):
    n1 = make_noisy(linear_problem, "C1", 1e-3, 0.0, seed=0)
    n2 = make_noisy(linear_problem, "C1", 1e-3, 0.0, seed=1)
    assert not np.allclose(n1.g_perturbed.values, n2.g_perturbed.values)
    again = make_noisy(linear_problem, "C1", 1e-3, 0.0, seed=0)
    assert np.array_equal(n1.g_perturbed.values, again.g_perturbed.values)


def test_perturb_c1_admissibility_guard(linear_problem):
    # data at the bound builds; stage 1 rejects its level, as for L2 data
    noisy = make_noisy(linear_problem, "C1", admissible_eps(linear_problem),
                       0.0, seed=0)
    with pytest.raises(DegenerateIntersection):
        reconstruct_noisy(linear_problem, noisy,
                          RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))


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
    # coarse grids build, and stage 1 accepts their C1 perturbation
    spec = ProblemSpec(a0=a0, composite=composite, lo=lo, hi=lo + length, n=n,
                       c_end=A0_FORMULAS[a0].end_value)
    prob = make_problem(spec)
    noisy = make_noisy(prob, "C1", eps_fraction * admissible_eps(prob), 0.0,
                       seed)
    assert noisy.g_perturbed.n == n
    rec = reconstruct_noisy(prob, noisy, RegularizationParams(
        alpha=0.1, mode=Mode.NOISY_C1, shift_c=spec.c_end))
    assert rec.a_alpha.n == n


@pytest.mark.parametrize("composite", sorted(COMPOSITE_FORMULAS))
def test_declared_bracket_is_the_range_of_the_derivative(composite):
    # a formula's (deriv_lo, deriv_hi) is its first derivative's exact range
    # on [0, 1], read on a fine grid that holds both ends: a wider bracket
    # would pass every bracket check yet admit a composite it does not fit
    form = COMPOSITE_FORMULAS[composite]
    d = form.derivs[0](np.linspace(0.0, 1.0, 100_001))
    assert (form.deriv_lo, form.deriv_hi) == (d.min(), d.max())


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
    noisy = make_noisy(linear_problem, "L2", 0.0, 0.0, seed=0)
    assert isinstance(noisy.g_perturbed, GridFunction)
    assert np.array_equal(noisy.g_perturbed.values,
                          linear_problem.composite.forward.values)


def test_perturb_l2_budget(linear_problem):
    eps = 1e-3
    noisy = make_noisy(linear_problem, "L2", eps, 0.0, seed=4)
    gap = noisy.g_perturbed - GridFunction(
        noisy.g_perturbed.interval, linear_problem.composite.forward.values)
    measured = norm(gap, "L2")
    assert 0.99 * eps <= measured <= 1.01 * eps


def test_perturb_l2_projection_monotone(linear_problem):
    # under admissible (h, eps) the projected perturbation stays monotone
    eps = 1e-4
    noisy = make_noisy(linear_problem, "L2", eps, 0.0, seed=5)
    p = project_L2(100, noisy.g_perturbed)
    lo, hi = derivative_bracket(p)
    assert lo >= 0.5 * linear_problem.composite.deriv_lo
    assert hi <= 2.0 * linear_problem.composite.deriv_hi


# ------------------------------------------------------------ flux noise

def _flux_data(problem, delta, seed):
    # the trace data at level delta: the seed's perturb_flux draw, scaled
    return make_noisy(problem, "C1", 0.0, delta, seed).f_perturbed


def test_perturb_flux_zero(linear_problem):
    assert np.array_equal(_flux_data(linear_problem, 0.0, seed=0).values,
                          linear_problem.f.values)


def test_perturb_flux_budget(linear_problem):
    delta = 1e-4
    f_noisy = _flux_data(linear_problem, delta, seed=9)
    measured = norm(f_noisy - linear_problem.f, "L2")
    assert 0.99 * delta <= measured <= 1.01 * delta


def test_perturb_flux_seeds_equal_norm(linear_problem):
    delta = 1e-3
    n1 = _flux_data(linear_problem, delta, seed=0) - linear_problem.f
    n2 = _flux_data(linear_problem, delta, seed=1) - linear_problem.f
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
        got = _flux_data(prob, 1e-3, seed).values - prob.f.values
        want = _dense_flux(prob, 1e-3, seed).values - prob.f.values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_perturb_flux_repeatable(linear_problem):
    a = _flux_data(linear_problem, 1e-4, seed=3)
    b = _flux_data(linear_problem, 1e-4, seed=3)
    assert np.array_equal(a.values, b.values)


def test_perturb_flux_draws_unit_series(linear_problem):
    raw, measured = perturb_flux(linear_problem, seed=3)
    assert raw.shape == linear_problem.f.values.shape
    assert measured == norm(GridFunction(UNIT, raw), "L2") > 0.0


# ------------------------------------------------------------ draw, then scale

def _pre_split_noisy(problem, kind, eps, delta, seed):
    # the noise model before the draw/scale split, which redrew every cell
    fwd = problem.composite.forward
    if kind == "C1" and eps == 0.0:
        g_eps = problem.composite
    elif kind == "C1":
        coef = np.random.default_rng([seed, 0]).normal(size=3)
        s = fwd.nodes
        phi = np.zeros_like(s)
        for k, c in enumerate(coef, start=1):
            phi += c * np.sin(k * np.pi * s)
        dphi = derivative(GridFunction(UNIT, phi)).values
        phi /= max(np.abs(phi).max(), np.abs(dphi).max())
        g_eps = CurveComposite(GridFunction(UNIT, fwd.values + eps * phi),
                               deriv_lo=problem.composite.deriv_lo - eps,
                               deriv_hi=problem.composite.deriv_hi + eps,
                               bracket_atol=problem.composite.bracket_atol)
    elif eps == 0.0:
        g_eps = GridFunction(UNIT, fwd.values.copy())
    else:
        raw = np.random.default_rng([seed, 1]).uniform(-1.0, 1.0, size=fwd.n)
        scale = eps / norm(GridFunction(UNIT, raw), "L2")
        g_eps = GridFunction(UNIT, fwd.values + scale * raw)
    if delta == 0.0:
        return g_eps, problem.f
    rng = np.random.default_rng([seed, 2])
    n = problem.f.n
    xi = rng.normal(size=400)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=400)
    k = np.arange(1, 401)
    period = 2 * (n - 1)
    spectrum = np.zeros(period, dtype=complex)
    np.add.at(spectrum, k % period, (xi / np.sqrt(k)) * np.exp(1j * theta))
    raw = (period * np.fft.ifft(spectrum)).imag[:n]
    measured = norm(GridFunction(UNIT, raw), "L2")
    return g_eps, problem.f + GridFunction(UNIT, (delta / measured) * raw)


_LEVEL = st.one_of(st.just(0.0), st.floats(1e-9, 0.9))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["C1", "L2"]),
       composite=st.sampled_from(sorted(COMPOSITE_FORMULAS)),
       n=st.integers(5, 2001), seed=st.integers(0, 2**31 - 1),
       levels=st.lists(st.tuples(_LEVEL, _LEVEL), min_size=2, max_size=4))
def test_scaled_draw_matches_pre_split_noise(kind, composite, n, seed, levels):
    prob = make_problem(ProblemSpec(a0="cosine", composite=composite, n=n))
    bound = admissible_eps(prob)
    noise = draw_noise(prob, kind, seed)
    for eps, delta in levels:
        # C1 levels are fractions of the admissible bound
        eps = eps * bound if kind == "C1" else eps
        g_want, f_want = _pre_split_noisy(prob, kind, eps, delta, seed)
        for got in (scale_noise(prob, noise, eps, delta),
                    make_noisy(prob, kind, eps, delta, seed)):
            assert got.eps == eps
            assert np.array_equal(got.f_perturbed.values, f_want.values)
            if kind == "C1":
                assert np.array_equal(got.g_perturbed.values,
                                      g_want.forward.values)
                # stage 1 builds the composite the pre-split draw built
                _, lo, hi = _effective_rows(prob, next(_rows_of(prob, [got])),
                                            RegularizationParams(alpha=0.1, mode=Mode.NOISY_C1),
                                            [])
                assert (lo[0], hi[0]) == (g_want.deriv_lo, g_want.deriv_hi)
            else:
                assert np.array_equal(got.g_perturbed.values, g_want.values)
    nan, inf = float("nan"), float("inf")
    for eps, delta in ((-1e-9, 0.0), (0.0, -1e-9), (nan, 0.0), (0.0, nan),
                       (inf, 0.0), (0.0, inf)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            make_noisy(prob, kind, eps, delta, seed)


def test_make_noisy_combines(linear_problem):
    noisy = make_noisy(linear_problem, "C1", 1e-3, 1e-4, seed=2)
    assert isinstance(noisy, NoisyData)
    assert noisy.eps == 1e-3
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
