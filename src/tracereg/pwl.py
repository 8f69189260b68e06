"""Piecewise-linear L2 projection on a uniform mesh of [0, 1].

Rough (merely square-integrable) perturbations of the boundary composite
are smoothed by orthogonal projection onto continuous piecewise-linear
functions before entering the reconstruction.  A mesh is its cell count
N (cells of width h = 1/N), and a projection is the ``GridFunction`` of
its values at the N + 1 breakpoints.  A grid of n nodes is projected only
onto meshes whose breakpoints are grid nodes, N dividing n - 1, with at
least ``MIN_STEPS_PER_CELL`` grid steps a cell (``experiments.snap_cells``
picks such meshes).  The module also provides the inverse-inequality
check and the admissibility test coupling h to the noise level eps.

The projection constants live here; the mesh gate takes the composite's
bracket end C_g (``ProblemInstance.composite.deriv_lo``) as ``c_g``.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooCoarse, MeshConditionViolated
from .func1d import (UNIT, GridFunction, _check_squares, _fresh, _raise_first,
                     solve_tridiagonal)

# Calibrated constants.  C0_PRIME/C1_PRIME are sharp on the single-ramp
# cell (extremal piecewise-linear function), hence sqrt(3).  The tilde
# constants bound the projection error of smooth functions against
# h^2 * ||w||_H4 (sup norm) and h * ... (derivative sup norm); calibrated
# by scripts/calibrate_pwl_constants.py over trig/polynomial families on
# meshes h in [1/256, 1/8], recorded with a 1.5x safety factor.
C0_PRIME = float(np.sqrt(3.0))
C1_PRIME = float(np.sqrt(3.0))
C0_TILDE = 0.0853
C1_TILDE = 0.5126

MIN_STEPS_PER_CELL = 5   # a mesh cell's fewest grid steps: loads stay resolved


def is_mesh_width(h: float) -> bool:
    """Whether h is 1/N for an integer N, up to rounding (NaN is not)."""
    h = float(h)   # in floats, 1/h may overflow
    return 0.0 < h < np.inf and abs(np.rint(1.0 / h) * h - 1.0) <= 1e-9


def _cell_loads(N: int, w: GridFunction) -> np.ndarray:
    """Loads integral(w * hat_i) of the piecewise-linear extension of w on
    the mesh of N cells, whose breakpoints are grid nodes (N divides n - 1,
    as ``project_L2`` requires).

    Each cell is a row of r = (n - 1)/N grid panels.  On a panel the
    extension times a hat is quadratic, so Simpson's rule is exact (see
    ``_panel_weights``); panel k of every cell spans the same hat coordinates
    u in [k, k + 1]/r, so the loads are row sums.
    """
    loads = np.zeros((N + 1, 1), order="F")
    _row_loads(N, w.values[None], loads)
    return loads[:, 0]


def _row_loads(N: int, v: np.ndarray, loads: np.ndarray) -> None:
    # _cell_loads of each row of a block v (k, n), added into the columns of
    # the zeroed (N + 1, k) loads; a row's loads are its own BLAS products
    m = v.shape[-1] - 1
    r = m // N
    rise, fall = _panel_weights(r)
    for row, col in zip(v, loads.T):
        f0, f1 = row[:-1].reshape(N, r), row[1:].reshape(N, r)
        col[:-1] += f0 @ fall[0] + f1 @ fall[1]
        col[1:] += f0 @ rise[0] + f1 @ rise[1]
    loads *= 1.0 / (6.0 * m)


def _panel_weights(r: int):
    """Weights of a panel's end values f0, f1 in its Simpson sums against
    the rising hat u (from u0 to u1) and the falling one, 1 - u, for the r
    panels u0 = k/r, u1 = (k + 1)/r of a cell: with fm the mean of f0 and
    f1, seg * (f0*u0 + 4*fm*um + f1*u1) is f0*(u0 + 2*um) + f1*(u1 + 2*um)
    in units of seg, a sixth of the width."""
    u0, u1 = np.arange(r) / r, np.arange(1, r + 1) / r
    um = 0.5 * (u0 + u1)
    return ((u0 + 2.0 * um, u1 + 2.0 * um),
            (3.0 - u0 - 2.0 * um, 3.0 - u1 - 2.0 * um))


def mass_diagonals(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and superdiagonal of the hat-function mass matrix of the
    mesh of N cells (exact overlaps)."""
    h = 1.0 / N
    diag = np.full(N + 1, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    return np.full(N, h / 6.0), diag, np.full(N, h / 6.0)


def project_L2(n_cells: int, w: GridFunction) -> GridFunction:
    """L2-orthogonal projection of a [0, 1] grid function onto the mesh of
    ``n_cells`` cells, sampled at the mesh's N + 1 breakpoints.

    The breakpoints must be grid nodes, each cell ``MIN_STEPS_PER_CELL`` or
    more grid steps wide; ``GridTooCoarse`` names the rule a mesh breaks.
    Solves the tridiagonal mass system M c = load with exact mass entries and Simpson
    loads; Galerkin orthogonality <w - Pw, hat_i> = 0 holds to quadrature
    accuracy.
    """
    if w.interval != UNIT:
        raise ValueError("projection domain is [0, 1]")
    _check_resolves(n_cells, w.n)
    (p,), loads_rule = _projected_rows(n_cells, w.values[None])
    _raise_first(loads_rule)
    return _fresh(UNIT, p)


def _check_resolves(n_cells: int, n: int) -> None:
    # project_L2's rule on a mesh of n_cells cells and a grid of n nodes
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    if (n - 1) < MIN_STEPS_PER_CELL * n_cells:
        raise GridTooCoarse(
            f"grid with {n} nodes does not resolve {n_cells} cells "
            f"(need >= {MIN_STEPS_PER_CELL} nodes per cell)")
    if (n - 1) % n_cells:
        raise GridTooCoarse(
            f"mesh breakpoints must be grid nodes: {n_cells} cells do not "
            f"divide the {n - 1} steps of a grid with {n} nodes")


def _projected_rows(n_cells: int, v: np.ndarray) -> tuple[np.ndarray, tuple]:
    # project_L2's values of each row of a block v on [0, 1] (a mesh the grid
    # resolves), as rows (k, N + 1), and the rule that each row's loads are
    # finite (large values overflow the sums): one banded solve with a
    # column a row, each column bit-identical to a one-column solve
    loads = np.zeros((n_cells + 1, len(v)), order="F")
    _row_loads(n_cells, v, loads)
    fails = ~np.isfinite(loads).all(axis=0)
    return (solve_tridiagonal(*mass_diagonals(n_cells), loads).T,
            (fails, lambda j: ValueError("array must not contain infs or NaNs")))


def inverse_inequality_check(p: GridFunction, m: int) -> tuple[float, float]:
    """Worst-cell pair (lhs, rhs) of the inverse inequality
    ||p||_{W^{m,inf}(cell)} <= C'_m h^{-(1/2+m)} ||p||_{L2(cell)}.

    The returned pair comes from the cell with the largest lhs/rhs ratio,
    so lhs <= rhs iff the inequality holds on every cell.  Finite values
    whose square or difference quotient overflows raise ValueError, as
    ``norm`` does.
    """
    if m not in (0, 1):
        raise ValueError("m must be 0 or 1")
    lhs, rhs = _worst_cell(p.values[None], np.array([p.spacing]), m, np.array([p.n - 1]))
    return float(lhs[0]), float(rhs[0])


def _worst_cell(v: np.ndarray, h: np.ndarray, m: int, cells: np.ndarray) -> tuple:
    # inverse_inequality_check's pair for each row of a block, with one
    # spacing a row and each row padded past its own number of ``cells``
    # (both of shape (k,)): the (lhs, rhs) of the first cell with the largest
    # lhs/rhs, a padding cell never among them.  A row with a cell whose
    # side is not finite raises ValueError when a square of its values or
    # difference quotients overflows, by norm's rule (func1d._check_squares)
    hc = h[:, None]
    a, b = v[:, :-1], v[:, 1:]
    cell_l2 = np.sqrt(hc * (a**2 + a * b + b**2) / 3.0)
    if m == 0:
        lhs_cells = np.maximum(np.abs(a), np.abs(b))
        c = C0_PRIME
    else:
        lhs_cells = np.abs(np.diff(v) / hc)
        c = C1_PRIME
    # libm's pow, as Python rounds a float's h ** e.  NumPy's array power
    # (its AVX-512 loop) rounds 1/N otherwise for N = 18, 51 (m = 0) and
    # 14, 53, 56 (m = 1) among the meshes of 4 to 63 cells
    rhs_cells = (c * np.float_power(h, -(0.5 + m)))[:, None] * cell_l2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs_cells > 0.0, lhs_cells / rhs_cells, 0.0)
    ratio[np.arange(ratio.shape[1]) >= cells[:, None]] = -np.inf
    k = np.argmax(ratio, axis=1)[:, None]
    lhs, rhs = (np.take_along_axis(x, k, axis=1)[:, 0] for x in (lhs_cells, rhs_cells))
    bad = ~(np.isfinite(lhs_cells) & np.isfinite(rhs_cells)).all(axis=1)
    for j in np.flatnonzero(bad):   # the row's values; m = 1: its difference quotients
        for d in (v[j, :cells[j] + 1], lhs_cells[j, :cells[j]])[:m + 1]:
            _check_squares(d, h[j])
    return lhs, rhs


def check_mesh_conditions(h: float, eps: float, g_h4_sup: float,
                          c_g: float) -> bool:
    """Admissibility of (h, eps): both coupling inequalities must hold.

    ``g_h4_sup`` is the composite's largest per-cell H4 norm on the mesh
    and ``c_g`` the lower end of its derivative bracket.  The first
    inequality keeps the projected perturbed composite's derivative inside
    half the exact bracket; the second keeps the per-cell image
    displacement below h^(3/2)/2.  The mesh width is h = 1/N, so it lies
    in (0, 1].
    """
    eps = np.array([eps], dtype=float)
    _raise_first(_mesh_domain_rule(h, eps, g_h4_sup, c_g))
    with np.errstate(over="ignore"):   # an overflowing side is inf, as in float arithmetic
        (fails,), _ = _mesh_rule(h, eps, g_h4_sup, c_g)
    return not fails


def _mesh_domain_rule(h: float, eps: np.ndarray, g_h4_sup: float, c_g: float) -> tuple:
    # check_mesh_conditions' rule on its arguments, with one eps a row: h
    # and c_g positive, eps and g_h4_sup nonnegative, h at most 1.  It comes
    # before _mesh_rule, whose h**2 overflows as a Python float for huge h
    positive = (h > 0.0) & (c_g > 0.0) & (eps >= 0.0) & (g_h4_sup >= 0.0)
    return ~positive | (h > 1.0), lambda j: ValueError(
        "h, c_g must be positive; eps, g_h4_sup nonnegative" if not positive[j]
        else f"mesh width h must lie in (0, 1], got {h!r}")


def _mesh_rule(h: float, eps: np.ndarray, g_h4_sup: float, c_g: float) -> tuple:
    # the (h, eps) coupling on arguments that pass _mesh_domain_rule, with
    # one eps a row: the derivative inequality (<=) and the image one (<)
    lhs1, rhs1 = C1_TILDE * h**2 * g_h4_sup + C1_PRIME * eps, 0.5 * c_g * h**1.5
    lhs2, rhs2 = C0_TILDE * h**2 * g_h4_sup + C0_PRIME * eps, 0.5 * h**1.5
    return ~((lhs1 <= rhs1) & (lhs2 < rhs2)), lambda j: MeshConditionViolated(
        "mesh width and noise level fail the (h, eps) admissibility inequalities: "
        f"h={h:.3e}, eps={eps[j]:.3e}; the derivative one needs "
        f"{lhs1[j]:.3e} <= {rhs1:.3e}, the image one {lhs2[j]:.3e} < {rhs2:.3e}")


def derivative_bracket(p: GridFunction) -> tuple[float, float]:
    """Extreme absolute slopes of p's steps; certifies monotonicity before
    the projected composite enters the reconstruction."""
    smin, smax = _slope_range(p.values, p.spacing)
    return float(smin), float(smax)


def _slope_range(v: np.ndarray, h: float) -> tuple:
    # derivative_bracket of a row or of each row of a block
    s = np.abs(np.diff(v) / h)
    return s.min(axis=-1), s.max(axis=-1)
