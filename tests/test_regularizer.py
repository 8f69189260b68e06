import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracereg.datagen import ProblemSpec, make_noisy, make_problem
from tracereg.errors import (DegenerateIntersection, MeshConditionViolated,
                             ShiftMismatch, SingularSystem)
from tracereg.func1d import UNIT, GridFunction, Interval, derivative, norm
from tracereg.operators import apply_T2alpha
from tracereg.regularizer import (Mode, RegularizationParams,
                                  reconstruct_exact, reconstruct_noisy,
                                  solve_ode)


def gf(fn, n=2001, interval=UNIT):
    return GridFunction.from_callable(interval, fn, n)


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
    zeta = w.with_values((1.0 + alpha * (np.pi / 2.0) ** 2) * w.values)
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


def test_solve_ode_overflowing_step_squared():
    # Python's float h**2 raises OverflowError above h ~ 1.3e154
    zeta = GridFunction(Interval(0.0, 1e300), np.zeros(5))
    with pytest.raises(SingularSystem, match=r"alpha/h\*\*2"):
        solve_ode(0.5, zeta)


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


# ------------------------------------------------------------ noisy data

def test_zero_noise_matches_exact():
    prob = make_problem(ProblemSpec())
    noisy = make_noisy(prob, "C1", 0.0, 0.0, seed=0)
    r_noisy = reconstruct_noisy(prob, noisy,
                                RegularizationParams(alpha=1e-2, mode=Mode.NOISY_C1))
    r_exact = reconstruct_exact(prob, RegularizationParams(alpha=1e-2))
    assert np.abs(r_noisy.a_alpha.values - r_exact.a_alpha.values).max() <= 1e-10


def test_error_split_bound():
    # measured error <= sqrt(a)||a0'|| + ||zeta - b0||/sqrt(a) + slack
    prob = make_problem(ProblemSpec())
    rng = np.random.default_rng(11)
    for alpha in (1e-2, 1e-3):
        pert = 1e-3 * np.sin(7.0 * prob.b0.nodes + rng.uniform(0, 2 * np.pi))
        zeta = prob.b0.with_values(prob.b0.values + pert)
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
