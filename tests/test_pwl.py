import importlib.util
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracereg.errors import GridTooCoarse
from tracereg.func1d import UNIT, GridFunction, norm
from tracereg.pwl import (C0_PRIME, C0_TILDE, C1_TILDE,
                          check_mesh_conditions, derivative_bracket,
                          inverse_inequality_check, mass_diagonals, project_L2)


def gf(fn, n=2001):
    return GridFunction(UNIT, fn(UNIT.grid(n)))


def dense_mass(N):
    h = 1.0 / N
    M = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        M[i, i] = 2 * h / 3 if 0 < i < N else h / 3
        if i > 0:
            M[i, i - 1] = h / 6
        if i < N:
            M[i, i + 1] = h / 6
    return M


def test_project_affine_is_exact():
    p = project_L2(4, gf(lambda s: 2.0 * s - 0.5))
    # the projection is a grid function on the mesh's 5 breakpoints
    assert p.interval == UNIT and p.n == 5
    assert np.abs(p.values - (2.0 * p.nodes - 0.5)).max() < 1e-12


def test_project_zero():
    p = project_L2(8, gf(lambda s: 0.0 * s))
    assert np.abs(p.values).max() < 1e-15


def test_project_quadratic_three_by_three():
    # N=2 oracle: dense solve of the exact mass system with symbolic loads
    # int s^2 hat_i = 1/96, 7/48, 17/96  ->  coeffs (-1/24, 5/24, 23/24)
    loads = np.array([1.0 / 96.0, 7.0 / 48.0, 17.0 / 96.0])
    oracle = np.linalg.solve(dense_mass(2), loads)
    assert np.abs(oracle - np.array([-1.0 / 24.0, 5.0 / 24.0, 23.0 / 24.0])).max() < 1e-14
    # computed loads pair against the piecewise-linear extension of the
    # samples, which perturbs the continuum integrals at O(spacing^2)
    p = project_L2(2, gf(lambda s: s**2, n=4001))
    assert np.abs(p.values - oracle).max() < 2e-8


def test_project_matches_dense_solver():
    w = gf(lambda s: np.sin(2.5 * s) + 0.3 * s)
    p = project_L2(16, w)
    from tracereg.pwl import _cell_loads
    dense = np.linalg.solve(dense_mass(16), _cell_loads(16, w))
    assert np.abs(p.values - dense).max() < 1e-12


def test_project_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        project_L2(64, gf(lambda s: s, n=101))
    # the mesh needs two cells
    for n_cells in (1, 0):
        with pytest.raises(ValueError, match="need at least 2 cells"):
            project_L2(n_cells, gf(lambda s: s, n=101))


def test_galerkin_orthogonality():
    from tracereg.pwl import _cell_loads
    w = gf(lambda s: np.cos(3.0 * s), n=4001)
    p = project_L2(20, w)
    resid = _cell_loads(20, GridFunction(w.interval, w.values - p(w.nodes)))
    assert np.abs(resid).max() <= 1e-10 * norm(w, "L2")


def test_best_approximation_beats_interpolant():
    w = gf(lambda s: np.sin(2.0 * np.pi * s), n=4001)
    p = project_L2(10, w)
    q = GridFunction(UNIT, w(UNIT.grid(11)))
    err_p = norm(GridFunction(w.interval, w.values - p(w.nodes)), "L2")
    err_q = norm(GridFunction(w.interval, w.values - q(w.nodes)), "L2")
    assert err_p <= err_q


def test_projection_rate_order_two():
    w = gf(lambda s: np.sin(2.0 * np.pi * s) + s**3, n=5121)
    errs, hs = [], []
    for n_cells in (8, 16, 32, 64, 128, 256):
        p = project_L2(n_cells, w)
        errs.append(norm(GridFunction(w.interval, w.values - p(w.nodes)), "L2"))
        hs.append(1.0 / n_cells)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([2, 4, 5, 8, 10, 16, 20, 25, 40, 50]))
def test_projection_idempotent(seed, n_cells):
    # grid nodes must hit the breakpoints (as the pipeline's mesh snapping
    # guarantees); otherwise the samples cannot represent the kinks
    rng = np.random.default_rng(seed)
    p = GridFunction(UNIT, rng.normal(size=n_cells + 1))
    again = project_L2(n_cells, gf(p))
    assert np.abs(again.values - p.values).max() < 1e-12


def union_grid_loads(n_cells, v):
    """Hat loads of the piecewise-linear extension of v by Simpson on the
    union of the grid nodes and the breakpoints, in long double.  Points
    are kept as integers in units of 1/((n - 1) n_cells), so the merged
    grid is exact."""
    ld, m, N = np.longdouble, v.size - 1, n_cells
    pts = np.union1d(np.arange(m + 1) * N, np.arange(N + 1) * m).astype(ld)
    x0, x1 = pts[:-1], pts[1:]
    xm = 0.5 * (x0 + x1)
    vl = v.astype(ld)
    k = (xm // m).astype(np.int64)

    def ext(x):
        j = np.minimum((x // N).astype(np.int64), m - 1)
        return vl[j] + (x - j * N) / N * (vl[j + 1] - vl[j])

    def u(x):
        return (x - k * m) / m

    seg = (x1 - x0) / (6 * m * N)
    parts = [(ext(x), u(x)) for x in (x0, xm, x1)]
    weights = (1, 4, 1)
    rising = seg * sum(c * f * ux for c, (f, ux) in zip(weights, parts))
    falling = seg * sum(c * f * (1 - ux) for c, (f, ux) in zip(weights, parts))
    loads = np.zeros(N + 1, dtype=ld)
    np.add.at(loads, k, falling)
    np.add.at(loads, k + 1, rising)
    return loads


def load_gap(fast, v, n_cells):
    # the relative gap is taken against the loads of |w|, the size of the
    # terms each sum adds up: random signs can cancel a load to nothing
    size = union_grid_loads(n_cells, np.abs(v)).max()
    return float(np.abs(fast - union_grid_loads(n_cells, v)).max() / size)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 24), st.integers(0, 10_000),
       st.floats(1e-3, 1e3), st.floats(-10.0, 10.0))
def test_aligned_loads_match_union_grid(n_cells, per_cell, seed, scale, offset):
    from tracereg.pwl import _cell_loads
    rng = np.random.default_rng(seed)
    v = offset + scale * rng.normal(size=n_cells * per_cell + 1)
    w = GridFunction(UNIT, v)
    assert load_gap(_cell_loads(n_cells, w), v, n_cells) <= 1e-13


@pytest.mark.parametrize("n_cells, n", [(2, 11), (5, 101), (100, 2001),
                                         (25, 2001)])
def test_projection_solve_matches_solve_banded(n_cells, n):
    # project_L2 hands the mass matrix's diagonals straight to gtsv
    from scipy.linalg import solve_banded
    from tracereg.pwl import _cell_loads
    w = gf(lambda s: np.sin(5.0 * s) + s**2, n)
    sub, diag, sup = mass_diagonals(n_cells)
    ab = np.zeros((3, n_cells + 1))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    expected = solve_banded((1, 1), ab, _cell_loads(n_cells, w))
    got = project_L2(n_cells, w).values
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_banded_layout_matches_dense():
    sub, diag, sup = mass_diagonals(6)
    M = dense_mass(6)
    assert np.allclose(diag, np.diag(M))
    assert np.allclose(sup, np.diag(M, 1))
    assert np.allclose(sub, np.diag(M, -1))


# ------------------------------------------------------------ inverse ineq

def test_inverse_inequality_constant():
    p = GridFunction(UNIT, np.ones(9))
    lhs, rhs = inverse_inequality_check(p, m=0)
    assert lhs == 1.0
    assert rhs == pytest.approx(C0_PRIME, rel=1e-12)
    assert lhs <= rhs


def test_inverse_inequality_single_hat():
    coeffs = np.zeros(9)
    coeffs[4] = 1.0
    p = GridFunction(UNIT, coeffs)
    lhs, rhs = inverse_inequality_check(p, m=0)
    # cell L2 of the ramp is sqrt(h/3); the hat extremal meets the bound
    assert lhs == 1.0
    assert rhs == pytest.approx(np.sqrt(3.0) * np.sqrt(1.0 / 3.0) * np.sqrt(8.0)
                                * np.sqrt(1.0 / 8.0), rel=1e-12)
    assert lhs <= rhs * (1 + 1e-12)


def test_inverse_inequality_ramp_slope():
    coeffs = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    p = GridFunction(UNIT, coeffs)
    lhs, rhs = inverse_inequality_check(p, m=1)
    assert lhs == pytest.approx(4.0)          # slope 1/h
    assert lhs <= rhs * (1 + 1e-12)


# ------------------------------------------------------------ mesh gate

def test_mesh_conditions_examples():
    assert check_mesh_conditions(1e-3, 1e-6, 1.0, c_g=1.0) is True
    assert check_mesh_conditions(0.5, 0.5, 1.0, c_g=1.0) is False
    assert check_mesh_conditions(1e-2, 0.0, 1.0, c_g=1.0) is True


def test_mesh_conditions_monotone_in_eps():
    h = 1e-2
    assert check_mesh_conditions(h, 0.0, 1.0, c_g=1.0)
    ok_small = check_mesh_conditions(h, 1e-5, 1.0, c_g=1.0)
    ok_large = check_mesh_conditions(h, 1e-1, 1.0, c_g=1.0)
    assert ok_small and not ok_large


def test_derivative_bracket():
    assert derivative_bracket(GridFunction(UNIT, [0.0, 0.5, 1.0])) == (1.0, 1.0)
    p = GridFunction(UNIT, [0.0, 0.25, 1.25])
    lo, hi = derivative_bracket(p)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(2.0)


# ------------------------------------------------------------ calibration

def test_calibration_script_reproduces_frozen_constants(capsys):
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "scripts" / "calibrate_pwl_constants.py")
    spec = importlib.util.spec_from_file_location("calibrate_pwl_constants", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    frozen = re.findall(r"-> freeze (\S+)", capsys.readouterr().out)
    assert frozen == [f"{C0_TILDE:.4f}", f"{C1_TILDE:.4f}"]
