import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracereg.errors import GridTooCoarse
from tracereg.func1d import UNIT, GridFunction, norm
from tracereg.pwl import (C0_PRIME, MeshConstants, PwlFunction, UniformMesh,
                          check_mesh_conditions, derivative_bracket,
                          inverse_inequality_check, mass_matrix_banded,
                          project_L2)


def gf(fn, n=2001):
    return GridFunction.from_callable(UNIT, fn, n)


def dense_mass(mesh):
    N, h = mesh.n_cells, mesh.h
    M = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        M[i, i] = 2 * h / 3 if 0 < i < N else h / 3
        if i > 0:
            M[i, i - 1] = h / 6
        if i < N:
            M[i, i + 1] = h / 6
    return M


def test_project_affine_is_exact():
    mesh = UniformMesh(4)
    p = project_L2(mesh, gf(lambda s: 2.0 * s - 0.5))
    assert np.abs(p.coeffs - (2.0 * mesh.breakpoints - 0.5)).max() < 1e-12


def test_project_zero():
    p = project_L2(UniformMesh(8), gf(lambda s: 0.0 * s))
    assert np.abs(p.coeffs).max() < 1e-15


def test_project_quadratic_three_by_three():
    # N=2 oracle: dense solve of the exact mass system with symbolic loads
    # int s^2 hat_i = 1/96, 7/48, 17/96  ->  coeffs (-1/24, 5/24, 23/24)
    mesh = UniformMesh(2)
    loads = np.array([1.0 / 96.0, 7.0 / 48.0, 17.0 / 96.0])
    oracle = np.linalg.solve(dense_mass(mesh), loads)
    assert np.abs(oracle - np.array([-1.0 / 24.0, 5.0 / 24.0, 23.0 / 24.0])).max() < 1e-14
    # computed loads pair against the piecewise-linear extension of the
    # samples, which perturbs the continuum integrals at O(spacing^2)
    p = project_L2(mesh, gf(lambda s: s**2, n=4001))
    assert np.abs(p.coeffs - oracle).max() < 2e-8


def test_project_matches_dense_solver():
    mesh = UniformMesh(16)
    w = gf(lambda s: np.sin(2.5 * s) + 0.3 * s)
    p = project_L2(mesh, w)
    from tracereg.pwl import _cell_loads
    dense = np.linalg.solve(dense_mass(mesh), _cell_loads(mesh, w))
    assert np.abs(p.coeffs - dense).max() < 1e-12


def test_project_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        project_L2(UniformMesh(64), gf(lambda s: s, n=101))


def test_galerkin_orthogonality():
    from tracereg.pwl import _cell_loads
    mesh = UniformMesh(20)
    w = gf(lambda s: np.cos(3.0 * s), n=4001)
    p = project_L2(mesh, w)
    resid = _cell_loads(mesh, w.with_values(w.values - p(w.nodes)))
    assert np.abs(resid).max() <= 1e-10 * norm(w, "L2")


def test_best_approximation_beats_interpolant():
    mesh = UniformMesh(10)
    w = gf(lambda s: np.sin(2.0 * np.pi * s), n=4001)
    p = project_L2(mesh, w)
    q = PwlFunction(mesh, np.interp(mesh.breakpoints, w.nodes, w.values))
    err_p = norm(w.with_values(w.values - p(w.nodes)), "L2")
    err_q = norm(w.with_values(w.values - q(w.nodes)), "L2")
    assert err_p <= err_q


def test_projection_rate_order_two():
    w = gf(lambda s: np.sin(2.0 * np.pi * s) + s**3, n=5121)
    errs, hs = [], []
    for n_cells in (8, 16, 32, 64, 128, 256):
        mesh = UniformMesh(n_cells)
        p = project_L2(mesh, w)
        errs.append(norm(w.with_values(w.values - p(w.nodes)), "L2"))
        hs.append(mesh.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([2, 4, 5, 8, 10, 16, 20, 25, 40, 50]))
def test_projection_idempotent(seed, n_cells):
    # grid nodes must hit the breakpoints (as the pipeline's mesh snapping
    # guarantees); otherwise the samples cannot represent the kinks
    rng = np.random.default_rng(seed)
    mesh = UniformMesh(n_cells)
    p = PwlFunction(mesh, rng.normal(size=mesh.n_cells + 1))
    again = project_L2(mesh, p.as_grid_function(2001))
    assert np.abs(again.coeffs - p.coeffs).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 24), st.integers(0, 10_000),
       st.floats(1e-3, 1e3), st.floats(-10.0, 10.0))
def test_aligned_loads_match_union_grid(n_cells, per_cell, seed, scale, offset):
    # the relative gap is taken against the loads of |w|, the size of the
    # terms each sum adds up: random signs can cancel a load to nothing
    from tracereg.pwl import _aligned_cell_loads, _union_cell_loads
    mesh = UniformMesh(n_cells)
    rng = np.random.default_rng(seed)
    w = GridFunction(UNIT, offset + scale * rng.normal(size=n_cells * per_cell + 1))
    fast = _aligned_cell_loads(n_cells, w.values)
    general = _union_cell_loads(mesh, w)
    size = _union_cell_loads(mesh, w.with_values(np.abs(w.values))).max()
    assert np.abs(fast - general).max() <= 1e-13 * size


def test_banded_layout_matches_dense():
    mesh = UniformMesh(6)
    ab = mass_matrix_banded(mesh)
    M = dense_mass(mesh)
    assert np.allclose(ab[1, :], np.diag(M))
    assert np.allclose(ab[0, 1:], np.diag(M, 1))
    assert np.allclose(ab[2, :-1], np.diag(M, -1))


# ------------------------------------------------------------ inverse ineq

def test_inverse_inequality_constant():
    mesh = UniformMesh(8)
    p = PwlFunction(mesh, np.ones(9))
    lhs, rhs = inverse_inequality_check(mesh, p, m=0)
    assert lhs == 1.0
    assert rhs == pytest.approx(C0_PRIME, rel=1e-12)
    assert lhs <= rhs


def test_inverse_inequality_single_hat():
    mesh = UniformMesh(8)
    coeffs = np.zeros(9)
    coeffs[4] = 1.0
    p = PwlFunction(mesh, coeffs)
    lhs, rhs = inverse_inequality_check(mesh, p, m=0)
    # cell L2 of the ramp is sqrt(h/3); the hat extremal meets the bound
    assert lhs == 1.0
    assert rhs == pytest.approx(np.sqrt(3.0) * np.sqrt(1.0 / 3.0) * np.sqrt(8.0)
                                * np.sqrt(1.0 / 8.0), rel=1e-12)
    assert lhs <= rhs * (1 + 1e-12)


def test_inverse_inequality_ramp_slope():
    mesh = UniformMesh(4)
    coeffs = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    p = PwlFunction(mesh, coeffs)
    lhs, rhs = inverse_inequality_check(mesh, p, m=1)
    assert lhs == pytest.approx(4.0)          # slope 1/h
    assert lhs <= rhs * (1 + 1e-12)


# ------------------------------------------------------------ mesh gate

def test_mesh_conditions_examples():
    ones = MeshConstants(c_gamma=1.0, c_g=1.0, c0_prime=1.0, c1_prime=1.0,
                         c0_tilde=1.0, c1_tilde=1.0)
    assert check_mesh_conditions(1e-3, 1e-6, 1.0, ones) is True
    assert check_mesh_conditions(0.5, 0.5, 1.0, ones) is False
    assert check_mesh_conditions(1e-2, 0.0, 1.0, ones) is True


def test_mesh_conditions_monotone_in_eps():
    consts = MeshConstants()
    h = 1e-2
    assert check_mesh_conditions(h, 0.0, 1.0, consts)
    ok_small = check_mesh_conditions(h, 1e-5, 1.0, consts)
    ok_large = check_mesh_conditions(h, 1e-1, 1.0, consts)
    assert ok_small and not ok_large


def test_derivative_bracket():
    mesh = UniformMesh(2)
    assert derivative_bracket(PwlFunction(mesh, np.array([0.0, 0.5, 1.0]))) == (1.0, 1.0)
    p = PwlFunction(mesh, np.array([0.0, 0.25, 1.25]))
    lo, hi = derivative_bracket(p)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(2.0)
