import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import solve_banded

from tracereg.datagen import (A0_FORMULAS, COMPOSITE_FORMULAS, ProblemSpec,
                              make_noisy, make_problem)
from tracereg.errors import (ConfigError, DegenerateIntersection,
                             MeshConditionViolated, MonotonicityViolation,
                             ShiftMismatch, SingularSystem, TracregError)
from tracereg.experiments import snap_cells
from tracereg.func1d import (UNIT, CurveComposite, GridFunction, Interval,
                             derivative, norm, solve_tridiagonal)
from tracereg.intervals import admissible_eps
from tracereg.operators import apply_T2alpha
from tracereg.regularizer import (Mode, RegularizationParams,
                                  _effective_composite, _solution,
                                  _solve_block, reconstruct_exact,
                                  reconstruct_noisy, solve_ode)


def gf(fn, n=2001, interval=UNIT):
    return GridFunction(interval, fn(interval.grid(n)))


def closed_form_b(x, alpha):
    # variation-of-parameters solution of -a b'' + b = x - x^2/2 with
    # b(0) = 0, b'(1) = 0
    ra = np.sqrt(alpha)
    return x - x**2 / 2 - alpha + alpha * np.cosh((x - 1) / ra) / np.cosh(1 / ra)


# ------------------------------------------------------------ solve_ode

def test_solve_ode_zero():
    b = solve_ode(0.1, gf(lambda x: 0.0 * x))
    assert np.abs(b.values).max() == 0.0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 401), log_alpha=st.floats(-6.0, -0.01),
       a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0),
       scales=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       seed=st.integers(0, 2**31 - 1))
def test_solve_ode_linear_in_zeta(n, log_alpha, a, b, scales, seed):
    rng = np.random.default_rng(seed)
    z1, z2 = (10.0**s * rng.normal(size=n) for s in scales)
    alpha = 10.0**log_alpha

    def solve(values):
        return solve_ode(alpha, GridFunction(UNIT, values)).values

    gap = np.abs(solve(a * z1 + b * z2) - (a * solve(z1) + b * solve(z2)))
    # the solve is a sup-norm contraction (discrete maximum principle), so
    # rounding is measured against the size of the inputs; below the normal
    # range (a coefficient like 1e-313) rounding is absolute
    size = abs(a) * np.abs(z1).max() + abs(b) * np.abs(z2).max()
    info = np.finfo(float)
    assert gap.max() <= 16 * info.eps * size + info.tiny


def test_solve_ode_closed_form():
    alpha = 0.01
    zeta = gf(lambda x: x - x**2 / 2)
    b = solve_ode(alpha, zeta)
    assert np.abs(b.values - closed_form_b(b.nodes, alpha)).max() < 1e-6


def test_solve_ode_recovers_manufactured():
    # zeta = w - a w'' for w in the constrained space returns w
    alpha = 0.05
    w = gf(lambda x: np.sin(np.pi * x / 2.0))
    zeta = GridFunction(w.interval, (1.0 + alpha * (np.pi / 2.0) ** 2) * w.values)
    b = solve_ode(alpha, zeta)
    h = w.spacing
    assert np.abs(b.values - w.values).max() <= 10.0 * h**2


def test_solve_ode_boundary_residuals():
    # boundary-compatible data (zeta'(1) = 0, as pipeline data always is)
    # keeps the flat-end residual at stencil accuracy for every alpha
    for alpha in (0.3, 1e-2, 1e-4):
        zeta = gf(lambda x: np.cos(np.pi * x) + 0.5)
        b = solve_ode(alpha, zeta)
        scale = max(np.abs(b.values).max(), 1e-12)
        assert abs(b.values[0]) <= 1e-12 * scale
        assert abs(derivative(b).values[-1]) <= 10.0 * b.spacing**2 \
            * max(np.abs(zeta.values).max(), 1.0)


def test_solve_ode_forward_backward():
    alpha = 0.02
    zeta = gf(lambda x: np.exp(-x) * np.sin(3.0 * x) + 1.0)
    b = solve_ode(alpha, zeta)
    back = apply_T2alpha(alpha, b)
    h = b.spacing
    resid = np.abs(back.values[1:-1] - zeta.values[1:-1]).max()
    assert resid <= 10.0 * h**2 * max(np.abs(zeta.values).max(), 1.0)


def tikhonov_minimizer(alpha, zeta):
    """Minimizer a of ||T a - zeta||^2 + alpha ||a||^2 by the dense normal
    equation (T'WT + alpha W) a = T'W zeta: T integrates cumulatively by
    the trapezoid rule from the left end, W holds the trapezoid weights.
    No difference stencil enters."""
    n, h = zeta.n, zeta.spacing
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    # (T a)_i = sum over panels j < i of h (a_j + a_{j+1}) / 2
    T = np.tril(np.full((n, n), h))
    T[:, 0] = h / 2.0
    np.fill_diagonal(T, h / 2.0)
    T[0, 0] = 0.0
    TW = T.T * w
    return np.linalg.solve(TW @ T + alpha * np.diag(w), TW @ zeta.values)


@pytest.mark.parametrize("alpha", [1e-2, 1e-1])
def test_stages_2_3_match_tikhonov_oracle(alpha):
    # b = T1 a of the Tikhonov minimizer solves -alpha b'' + b = zeta with
    # b(g0) = 0, b'(g1) = 0, so a = b'; the two discretizations share no
    # code, and their gap converges: O(h^2) inside, O(h) at g1
    inside, end = [], []
    for n in (101, 201, 401):
        zeta = gf(lambda t: np.sin(2.0 * t) + t**2, n)
        gap = np.abs(tikhonov_minimizer(alpha, zeta)
                     - derivative(solve_ode(alpha, zeta)).values)
        k = n // 10   # the middle 80% of the nodes
        inside.append(gap[k:n - k].max())
        end.append(gap[-1])
    inside_orders = np.log2(np.array(inside[:-1]) / inside[1:])
    end_orders = np.log2(np.array(end[:-1]) / end[1:])
    assert (inside_orders > 1.8).all(), inside
    assert (np.abs(end_orders - 1.0) < 0.1).all(), end


def test_solve_ode_overflowing_step_squared():
    # Python's float h**2 raises OverflowError above h ~ 1.3e154
    zeta = GridFunction(Interval(0.0, 1e300), np.zeros(5))
    with pytest.raises(SingularSystem, match=r"alpha/h\*\*2"):
        solve_ode(0.5, zeta)


def test_solve_ode_underflowing_step_squared():
    # h**2 underflows to 0; with numpy set to raise on underflow the band
    # check must still be the one that fails
    zeta = GridFunction(Interval(0.0, 1e-300), np.zeros(5))
    with np.errstate(under="raise"), \
            pytest.raises(SingularSystem, match=r"alpha/h\*\*2"):
        solve_ode(0.5, zeta)


def test_solve_ode_underflowing_alpha_over_h_squared():
    # alpha/h**2 rounds to 0: the solve would return zeta unregularized
    zeta = GridFunction(Interval(0.0, 8.0), np.arange(5.0))
    with pytest.raises(SingularSystem, match=r"alpha/h\*\*2"):
        solve_ode(5e-324, zeta)


def bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 400), log_alpha=st.floats(-6.0, -0.01),
       scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**31 - 1))
def test_tridiagonal_helper_matches_solve_banded(n, log_alpha, scale, seed):
    # the band solve_ode solves: interior rows, then the Neumann row
    # with its doubled subdiagonal entry
    alpha = 10.0**log_alpha
    zeta = GridFunction(UNIT, 10.0**scale
                        * np.random.default_rng(seed).normal(size=n))
    r = alpha / zeta.spacing**2
    m = n - 1
    ab = np.zeros((3, m))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    ab[2, m - 2] = -2.0 * r
    expected = solve_banded((1, 1), ab, zeta.values[1:])
    got = solve_tridiagonal(ab[2, :-1].copy(), ab[1].copy(), ab[0, 1:].copy(),
                            zeta.values[1:].copy())
    assert np.array_equal(bits(got), bits(expected))
    b = solve_ode(alpha, zeta).values
    assert bits(b[0]) == bits(0.0)
    assert np.array_equal(bits(b[1:]), bits(expected))


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(5, 2001),
       alpha=st.sampled_from((1e-7, 1e-4, 1e-2, 0.5, 0.99)),
       length=st.floats(0.05, 20.0), seed=st.integers(0, 2**31 - 1))
def test_block_columns_are_single_solves_bit_for_bit(k, n, alpha, length, seed):
    # gtsv eliminates the shared diagonals once and updates every column
    # with the one-column arithmetic
    rng = np.random.default_rng(seed)
    interval = Interval(-1.0, -1.0 + length)
    zetas = [GridFunction(interval, 10.0**rng.uniform(-3, 3) * rng.normal(size=n))
             for _ in range(k)]
    block = _solve_block(alpha, zetas)
    assert block.shape == (n, k)
    for j, zeta in enumerate(zetas):
        got = _solution(block, j, interval)
        assert got.interval == interval
        assert got.values.tobytes() == solve_ode(alpha, zeta).values.tobytes()


def test_solve_ode_non_finite_solution():
    # finite data whose elimination overflows: the output check catches it
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SingularSystem, match="non-finite solution"):
        solve_ode(0.5, GridFunction(UNIT, np.full(2001, 1.7e308)))


@settings(max_examples=25, deadline=None)
@given(n_cells=st.sampled_from([d for d in range(15, 161) if 800 % d == 0]),
       composite=st.sampled_from(sorted(COMPOSITE_FORMULAS)),
       log_eps=st.floats(-8.0, -5.0), seed=st.integers(0, 10_000))
@example(n_cells=100, composite="cubic", log_eps=-5.0, seed=0)
def test_l2_composite_passes_public_constructor(n_cells, composite, log_eps,
                                                seed):
    # the L2 path skips the constructor's stencil bracket, because the mesh
    # slopes it has checked bound every node's stencil; the meshes are those
    # whose breakpoints are grid nodes (N divides 800), at least 15 cells,
    # since coarser meshes fail the mesh gate
    prob = make_problem(ProblemSpec(composite=composite, n=801))
    eps = 10.0**log_eps
    eff = _effective_composite(
        prob, make_noisy(prob, "L2", eps, eps, seed),
        RegularizationParams(alpha=1e-2, mode=Mode.NOISY_L2,
                             mesh_h=1.0 / n_cells))
    checked = CurveComposite(eff.forward, deriv_lo=eff.deriv_lo,
                             deriv_hi=eff.deriv_hi)
    assert checked == eff


# ------------------------------------------------------------ exact data

def test_reconstruct_exact_linear_oracle():
    prob = make_problem(ProblemSpec())
    alpha = 0.01
    rec = reconstruct_exact(prob, RegularizationParams(alpha=alpha))
    x = prob.a0.nodes
    ra = np.sqrt(alpha)
    a_oracle = (1.0 - x) + ra * np.sinh((x - 1.0) / ra) / np.cosh(1.0 / ra)
    assert np.abs(rec.a_alpha.values - a_oracle).max() < 1e-5
    err = norm(prob.a0 - rec.a_alpha, "L2")
    assert err <= np.sqrt(alpha) * 1.05        # ||a0'|| = 1 here


def test_reconstruct_exact_zero_coefficient():
    prob = make_problem(ProblemSpec(a0="zero"))
    rec = reconstruct_exact(prob, RegularizationParams(alpha=0.05))
    assert np.abs(rec.a_alpha.values).max() < 1e-14


def test_reconstruct_exact_error_monotone_in_alpha():
    prob = make_problem(ProblemSpec())
    errs = [norm(prob.a0 - reconstruct_exact(
        prob, RegularizationParams(alpha=a)).a_alpha, "L2")
        for a in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(e1 <= e2 for e1, e2 in zip(errs, errs[1:]))


def test_reconstruct_exact_h1_error_decreases():
    # zero-noise H1 error decreases as the damping vanishes (no rate
    # asserted; the constant degrades with alpha)
    prob = make_problem(ProblemSpec(a0="cosine"))
    errs = [norm(prob.a0 - reconstruct_exact(
        prob, RegularizationParams(alpha=a)).a_alpha, "H1")
        for a in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_solve_recovery_sqrt_alpha_bound():
    # for data in the constrained space, the damped solve loses at most
    # sqrt(alpha)*||w''|| in H1
    w = gf(lambda x: np.sin(np.pi * x / 2.0))
    wpp = np.pi**2 / 4.0 * norm(w, "L2")     # |w''| = (pi/2)^2 |w|
    for alpha in (0.25, 0.04, 0.01):
        b = solve_ode(alpha, w)
        assert norm(b - w, "H1") <= np.sqrt(alpha) * wpp * (1 + 1e-2)


def test_reconstruct_exact_shift_mismatch():
    prob = make_problem(ProblemSpec())   # a0(g1) = 0
    with pytest.raises(ShiftMismatch):
        reconstruct_exact(prob, RegularizationParams(alpha=0.01, shift_c=1.0))


def test_shift_equivariance_exact():
    base = make_problem(ProblemSpec(a0="linear"))
    shifted = make_problem(ProblemSpec(a0="linear_plus2", c_end=2.0))
    r0 = reconstruct_exact(base, RegularizationParams(alpha=0.01))
    r2 = reconstruct_exact(shifted, RegularizationParams(alpha=0.01, shift_c=2.0))
    assert np.abs(r2.a_alpha.values - (r0.a_alpha.values + 2.0)).max() < 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        RegularizationParams(alpha=0.0)
    with pytest.raises(ValueError):
        RegularizationParams(alpha=0.1, mesh_h=0.01)           # not L2 mode
    with pytest.raises(ValueError):
        RegularizationParams(alpha=0.1, mode=Mode.NOISY_L2)    # missing h
    with pytest.raises(ValueError, match="1/N"):
        RegularizationParams(alpha=0.1, mode=Mode.NOISY_L2, mesh_h=0.3)
    # 1/mesh_h overflows, 0*inf is NaN, NaN has no integer: all named errors,
    # with no numpy floating-point warning on the way
    for mesh_h in (1e-320, np.float64(1e-320), np.inf, np.nan):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="mesh_h"):
            RegularizationParams(alpha=0.1, mode=Mode.NOISY_L2, mesh_h=mesh_h)


@pytest.mark.parametrize("n, target", [(2001, 10.0), (2001, 31.6), (2001, 316.0),
                                       (64001, 100.0), (64001, 560.0), (801, 7.0)])
def test_params_n_cells_round_trips(n, target):
    cells = snap_cells(n, target)
    params = RegularizationParams(alpha=0.1, mode=Mode.NOISY_L2, mesh_h=1.0 / cells)
    assert params.n_cells == cells


# ------------------------------------------------------------ noisy data

def test_zero_noise_matches_exact():
    prob = make_problem(ProblemSpec())
    noisy = make_noisy(prob, "C1", 0.0, 0.0, seed=0)
    r_noisy = reconstruct_noisy(prob, noisy,
                                RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))
    r_exact = reconstruct_exact(prob, RegularizationParams(alpha=1e-2))
    assert np.abs(r_noisy.a_alpha.values - r_exact.a_alpha.values).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(a0=st.sampled_from(sorted(A0_FORMULAS)), n=st.integers(11, 2001),
       lo=st.floats(-10.0, 10.0), length=st.floats(0.05, 20.0),
       alpha=st.floats(1e-4, 0.5), seed=st.integers(0, 2**31 - 1))
def test_zero_noise_path_is_the_exact_path_on_identity(a0, n, lo, length,
                                                       alpha, seed):
    # on the identity composite the pullback at zero noise reads the exact
    # data at its own nodes, so the two paths differ only by rounding
    end = A0_FORMULAS[a0].end_value
    prob = make_problem(ProblemSpec(a0=a0, lo=lo, hi=lo + length, n=n,
                                    c_end=end))
    noisy = make_noisy(prob, "C1", 0.0, 0.0, seed)
    r_noisy = reconstruct_noisy(prob, noisy, RegularizationParams(
        alpha=alpha, mode=Mode.NOISY_C1, shift_c=end))
    r_exact = reconstruct_exact(prob, RegularizationParams(alpha=alpha,
                                                           shift_c=end))
    scale = max(1.0, float(np.abs(r_exact.a_alpha.values).max()))
    gap = np.abs(r_noisy.a_alpha.values - r_exact.a_alpha.values).max()
    assert gap <= 1e-10 * scale


CURVED = sorted(set(COMPOSITE_FORMULAS) - {"identity"})


@settings(max_examples=10, deadline=None)
@given(composite=st.sampled_from(CURVED), a0=st.sampled_from(sorted(A0_FORMULAS)),
       n=st.integers(101, 1601), lo=st.floats(-10.0, 10.0),
       length=st.sampled_from((0.5, 2.0)), alpha=st.sampled_from((1e-2, 1e-3, 1e-4)))
@example(composite="cubic_steep", a0="pw_quad", n=101, lo=0.0, length=0.5,
         alpha=1e-4)
def test_zero_noise_path_is_second_order_close_on_curved_composites(
        composite, a0, n, lo, length, alpha):
    # a curved composite's pullback reads the exact data between its nodes,
    # through the cubic interpolant: the gap to the exact path is O(h^2),
    # amplified by the solve's 1/sqrt(alpha).  Over 360 grid cases the
    # largest gap was 0.41 of this bound (the example above)
    end = A0_FORMULAS[a0].end_value
    prob = make_problem(ProblemSpec(a0=a0, composite=composite, lo=lo,
                                    hi=lo + length, n=n, c_end=end))
    r_noisy = reconstruct_noisy(prob, make_noisy(prob, "C1", 0.0, 0.0, seed=0),
                                RegularizationParams(alpha=alpha, mode=Mode.NOISY_C1,
                                                     shift_c=end))
    r_exact = reconstruct_exact(prob, RegularizationParams(alpha=alpha,
                                                           shift_c=end))
    scale = max(1.0, float(np.abs(r_exact.a_alpha.values).max()))
    gap = np.abs(r_noisy.a_alpha.values - r_exact.a_alpha.values).max()
    h = length / (n - 1)
    assert gap <= h**2 / np.sqrt(alpha) * scale


def assert_shift_equivariant(a0, composite, n, shift, length, alpha, seed):
    # moving the interval moves the composite's samples and the data's
    # nodes, not the data's values, so a_alpha moves by rounding only
    end = A0_FORMULAS[a0].end_value
    probs = [make_problem(ProblemSpec(a0=a0, composite=composite, lo=lo,
                                      hi=lo + length, n=n, c_end=end))
             for lo in (0.0, shift)]
    level = 0.3 * min(admissible_eps(p) for p in probs)
    c1 = RegularizationParams(alpha=alpha, mode=Mode.NOISY_C1, shift_c=end)
    exact = RegularizationParams(alpha=alpha, shift_c=end)
    runs = [[reconstruct_noisy(p, make_noisy(p, "C1", level, level, seed), c1),
             reconstruct_exact(p, exact)] for p in probs]
    for at_zero, shifted in zip(*runs):
        a, b = at_zero.a_alpha.values, shifted.a_alpha.values
        assert np.abs(a - b).max() <= 1e-9 * max(1.0, float(np.abs(a).max()))


SHIFT_CASES = dict(a0=st.sampled_from(sorted(A0_FORMULAS)), n=st.integers(11, 2001),
                   shift=st.floats(-10.0, 10.0), length=st.floats(0.05, 20.0),
                   alpha=st.floats(1e-4, 0.5), seed=st.integers(0, 2**31 - 1))


@settings(max_examples=25, deadline=None)
@given(**SHIFT_CASES)
def test_interval_shift_equivariance_on_identity(a0, n, shift, length, alpha,
                                                 seed):
    assert_shift_equivariant(a0, "identity", n, shift, length, alpha, seed)


@settings(max_examples=25, deadline=None)
@given(composite=st.sampled_from(sorted(COMPOSITE_FORMULAS)), **SHIFT_CASES)
def test_interval_shift_equivariance_on_curved_composites(composite, a0, n, shift,
                                                         length, alpha, seed):
    assert_shift_equivariant(a0, composite, n, shift, length, alpha, seed)


def test_error_split_bound():
    # measured error <= sqrt(a)||a0'|| + ||zeta - b0||/sqrt(a) + slack
    prob = make_problem(ProblemSpec())
    rng = np.random.default_rng(11)
    for alpha in (1e-2, 1e-3):
        pert = 1e-3 * np.sin(7.0 * prob.b0.nodes + rng.uniform(0, 2 * np.pi))
        zeta = GridFunction(prob.b0.interval, prob.b0.values + pert)
        b = solve_ode(alpha, zeta)
        a = derivative(b)
        err = norm(prob.a0 - a, "L2")
        bound = (np.sqrt(alpha) * 1.0
                 + norm(zeta - prob.b0, "L2") / np.sqrt(alpha))
        assert err <= bound * 1.05 + 10.0 * prob.b0.spacing**2


def test_noisy_eps_admissibility():
    prob = make_problem(ProblemSpec())
    noisy = make_noisy(prob, "C1", 0.2, 0.0, seed=0)
    bad = noisy.__class__(**{**noisy.__dict__, "eps": 0.3})
    with pytest.raises(DegenerateIntersection):
        reconstruct_noisy(prob, bad,
                          RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))


def test_c1_mode_checks_the_bracket_of_rough_samples():
    # the mode decides how the samples are read: as a C1 composite, rough
    # samples leave the bracket widened by eps
    prob = make_problem(ProblemSpec(n=401))
    noisy = make_noisy(prob, "L2", 1e-4, 1e-4, seed=0)
    with pytest.raises(MonotonicityViolation,
                       match=r"\[0.9999, 1.0001\]: observed \[0.91492, 1.07723\]"):
        reconstruct_noisy(prob, noisy,
                          RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))


def test_l2_mode_projects_smooth_samples():
    # a C1 perturbation of size eps is also an L2 one, so L2 mode projects
    # it like any rough sample
    prob = make_problem(ProblemSpec(n=401))
    noisy = make_noisy(prob, "C1", 1e-4, 1e-4, seed=0)
    rec = reconstruct_noisy(prob, noisy, RegularizationParams(
        alpha=1e-2, mode=Mode.NOISY_L2, mesh_h=1.0 / 50))
    assert norm(prob.a0 - rec.a_alpha, "L2") < 0.05


def test_noisy_c1_rate_sanity():
    prob = make_problem(ProblemSpec())
    errs = []
    for d in (1e-2, 1e-4):
        noisy = make_noisy(prob, "C1", d, d, seed=3)
        rec = reconstruct_noisy(prob, noisy,
                                RegularizationParams(alpha=d, mode=Mode.NOISY_C1))
        errs.append(norm(prob.a0 - rec.a_alpha, "L2"))
    assert errs[1] < errs[0] / 5.0


def test_noisy_l2_pipeline_and_gate():
    prob = make_problem(ProblemSpec())
    d = 1e-4
    noisy = make_noisy(prob, "L2", d, d, seed=0)
    rec = reconstruct_noisy(prob, noisy, RegularizationParams(
        alpha=d, mode=Mode.NOISY_L2, mesh_h=1.0 / 100))
    assert norm(prob.a0 - rec.a_alpha, "L2") < 0.05
    # too-coarse mesh for this noise level must be rejected by the gate
    with pytest.raises(MeshConditionViolated):
        reconstruct_noisy(prob, make_noisy(prob, "L2", 1e-2, 1e-2, seed=0),
                          RegularizationParams(alpha=1e-2, mode=Mode.NOISY_L2,
                                               mesh_h=1.0 / 10))


def test_noisy_shift_matches_unshifted_plus_constant():
    # with identical trace noise and no composite noise, the shifted
    # pipeline reproduces the unshifted reconstruction plus the constant
    base = make_problem(ProblemSpec(a0="linear"))
    shifted = make_problem(ProblemSpec(a0="linear_plus2", c_end=2.0))
    for delta in (0.0, 1e-3):
        nb = make_noisy(base, "C1", 0.0, delta, seed=5)
        ns = make_noisy(shifted, "C1", 0.0, delta, seed=5)
        rb = reconstruct_noisy(base, nb,
                               RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))
        rs = reconstruct_noisy(shifted, ns,
                               RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1,
                                                    shift_c=2.0))
        assert np.abs(rs.a_alpha.values - (rb.a_alpha.values + 2.0)).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(a0=st.sampled_from(sorted(A0_FORMULAS)),
       composite=st.sampled_from(sorted(COMPOSITE_FORMULAS)),
       n=st.integers(41, 401), mode=st.sampled_from([Mode.NOISY_C1, Mode.NOISY_L2]),
       log_delta=st.floats(-6.0, -2.0), seed=st.integers(0, 2**31 - 1))
def test_reruns_are_bit_identical(a0, composite, n, mode, log_delta, seed):
    # two reconstructions of one noisy input agree bit for bit, or fail alike
    end = A0_FORMULAS[a0].end_value
    prob = make_problem(ProblemSpec(a0=a0, composite=composite, n=n, c_end=end))
    delta = 10.0**log_delta
    mesh_h = None
    if mode is Mode.NOISY_L2:
        try:
            mesh_h = 1.0 / snap_cells(n, 1.0 / np.sqrt(delta))
        except ConfigError:   # no divisor of n - 1 leaves 5 nodes a cell
            assume(False)
    kind = "C1" if mode is Mode.NOISY_C1 else "L2"
    noisy = make_noisy(prob, kind, min(delta, 0.5 * admissible_eps(prob)),
                       delta, seed)
    params = RegularizationParams(alpha=float(np.sqrt(delta)), mode=mode,
                                  shift_c=end, mesh_h=mesh_h)

    def run():
        try:
            return reconstruct_noisy(prob, noisy, params).a_alpha.values
        except (TracregError, ValueError) as err:
            return type(err), str(err)

    first, again = run(), run()
    assert type(first) is type(again)
    if isinstance(first, np.ndarray):
        assert np.array_equal(first.view(np.int64), again.view(np.int64))
    else:
        assert first == again


def test_reconstruction_boundary_invariants():
    prob = make_problem(ProblemSpec(a0="cosine"))
    noisy = make_noisy(prob, "C1", 1e-3, 1e-3, seed=1)
    rec = reconstruct_noisy(prob, noisy,
                            RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))
    scale = max(np.abs(rec.b_alpha.values).max(), 1e-12)
    assert abs(rec.b_alpha.values[0]) <= 1e-8 * scale
    assert abs(derivative(rec.b_alpha).values[-1]) <= 1e-4 * scale
    assert np.abs(rec.a_alpha.values
                  - derivative(rec.b_alpha).values).max() < 1e-14
