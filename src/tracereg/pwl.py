"""Piecewise-linear L2 projection on a uniform mesh of [0, 1].

Rough (merely square-integrable) perturbations of the boundary composite
are smoothed by orthogonal projection onto continuous piecewise-linear
functions before entering the reconstruction.  A mesh is its cell count
N (cells of width h = 1/N), fixed by a function's N + 1 coefficients; a
grid of n nodes is projected only onto meshes whose breakpoints are grid
nodes, N dividing n - 1 (``experiments.snap_cells`` picks such meshes).
The module also provides the inverse-inequality check and the
admissibility test coupling the mesh width h to the noise level eps.

The projection constants live here; the mesh gate takes the composite's
bracket end C_g (``ProblemInstance.composite.deriv_lo``) as ``c_g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridTooCoarse
from .func1d import (UNIT, GridFunction, _check_sample, _freeze, _fresh,
                     _shared_grid, solve_tridiagonal)

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


@dataclass(frozen=True)
class PwlFunction:
    """Continuous piecewise-linear function on [0, 1]: its N + 1 nodal
    coefficients sit on the mesh of N = ``n_cells`` cells of width 1/N."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _freeze(self.coeffs))
        if self.coeffs.size < 3:
            raise ValueError("need at least 2 cells")
        _check_sample(self.coeffs)

    @property
    def n_cells(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return np.interp(s, _breakpoints(self.n_cells), self.coeffs)

    def slopes(self) -> np.ndarray:
        return np.diff(self.coeffs) / (1.0 / self.n_cells)

    def as_grid_function(self, n: int) -> GridFunction:
        return _fresh(UNIT, self(_shared_grid(UNIT.lo, UNIT.hi, n)))


def _cell_loads(N: int, w: GridFunction) -> np.ndarray:
    """Loads integral(w * hat_i) of the piecewise-linear extension of w on
    the mesh of N cells, whose breakpoints are grid nodes (N divides n - 1,
    as ``project_L2`` requires).

    Each cell is a row of r = (n - 1)/N grid panels.  On a panel the
    extension times a hat is quadratic, so Simpson's rule is exact (see
    ``_panel_weights``); panel k of every cell spans the same hat coordinates
    u in [k, k + 1]/r, so the loads are row sums.
    """
    v = w.values
    m = v.size - 1
    r = m // N
    rise, fall = _panel_weights(r)
    f0, f1 = v[:-1].reshape(N, r), v[1:].reshape(N, r)
    loads = np.zeros(N + 1)
    loads[:-1] += f0 @ fall[0] + f1 @ fall[1]
    loads[1:] += f0 @ rise[0] + f1 @ rise[1]
    loads *= 1.0 / (6.0 * m)
    return loads


@lru_cache(maxsize=16)
def _breakpoints(N: int) -> np.ndarray:
    # the mesh of N cells: linspace(0, 1, N + 1), shared read-only
    x = np.linspace(0.0, 1.0, N + 1)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=16)
def _panel_weights(r: int):
    """Weights of a panel's end values f0, f1 in its Simpson sums against
    the rising hat u (from u0 to u1) and the falling one, 1 - u, for the r
    panels u0 = k/r, u1 = (k + 1)/r of a cell: with fm the mean of f0 and
    f1, seg * (f0*u0 + 4*fm*um + f1*u1) is f0*(u0 + 2*um) + f1*(u1 + 2*um)
    in units of seg, a sixth of the width.  Kept read-only per r."""
    u0, u1 = np.arange(r) / r, np.arange(1, r + 1) / r
    um = 0.5 * (u0 + u1)
    rows = (u0 + 2.0 * um, u1 + 2.0 * um,
            3.0 - u0 - 2.0 * um, 3.0 - u1 - 2.0 * um)
    for row in rows:
        row.flags.writeable = False
    return rows[:2], rows[2:]


def mass_diagonals(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and superdiagonal of the hat-function mass matrix of the
    mesh of N cells (exact overlaps)."""
    h = 1.0 / N
    diag = np.full(N + 1, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    return np.full(N, h / 6.0), diag, np.full(N, h / 6.0)


def project_L2(n_cells: int, w: GridFunction) -> PwlFunction:
    """L2-orthogonal projection of a [0, 1] grid function onto the mesh of
    ``n_cells`` cells.

    The mesh's breakpoints must be grid nodes, each cell at least 5 grid
    steps wide; ``GridTooCoarse`` names the rule a mesh breaks.  Solves the
    tridiagonal mass system M c = load with exact mass entries and Simpson
    loads; Galerkin orthogonality <w - Pw, hat_i> = 0 holds to quadrature
    accuracy.
    """
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    if w.interval != UNIT:
        raise ValueError("projection domain is [0, 1]")
    if (w.n - 1) < 5 * n_cells:
        raise GridTooCoarse(
            f"grid with {w.n} nodes does not resolve {n_cells} cells "
            "(need >= 5 nodes per cell)")
    if (w.n - 1) % n_cells:
        raise GridTooCoarse(
            f"mesh breakpoints must be grid nodes: {n_cells} cells do not "
            f"divide the {w.n - 1} steps of a grid with {w.n} nodes")
    loads = _cell_loads(n_cells, w)
    if not np.isfinite(loads).all():   # large values overflow the sums
        raise ValueError("array must not contain infs or NaNs")
    return PwlFunction(solve_tridiagonal(*mass_diagonals(n_cells), loads))


def inverse_inequality_check(p: PwlFunction, m: int) -> tuple[float, float]:
    """Worst-cell pair (lhs, rhs) of the inverse inequality
    ||p||_{W^{m,inf}(cell)} <= C'_m h^{-(1/2+m)} ||p||_{L2(cell)}.

    The returned pair comes from the cell with the largest lhs/rhs ratio,
    so lhs <= rhs iff the inequality holds on every cell.
    """
    if m not in (0, 1):
        raise ValueError("m must be 0 or 1")
    h = 1.0 / p.n_cells
    a, b = p.coeffs[:-1], p.coeffs[1:]
    cell_l2 = np.sqrt(h * (a**2 + a * b + b**2) / 3.0)
    if m == 0:
        lhs_cells = np.maximum(np.abs(a), np.abs(b))
        c = C0_PRIME
    else:
        lhs_cells = np.abs(p.slopes())
        c = C1_PRIME
    rhs_cells = c * h ** (-(0.5 + m)) * cell_l2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs_cells > 0.0, lhs_cells / rhs_cells, 0.0)
    k = int(np.argmax(ratio))
    return float(lhs_cells[k]), float(rhs_cells[k])


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
    if not (h > 0.0 and c_g > 0.0 and eps >= 0.0 and g_h4_sup >= 0.0):
        raise ValueError("h, c_g must be positive; eps, g_h4_sup nonnegative")
    if h > 1.0:
        raise ValueError(f"mesh width h must lie in (0, 1], got {h!r}")
    lhs1 = C1_TILDE * h**2 * g_h4_sup + C1_PRIME * eps
    rhs1 = 0.5 * c_g * h**1.5
    lhs2 = C0_TILDE * h**2 * g_h4_sup + C0_PRIME * eps
    rhs2 = 0.5 * h**1.5
    return bool(lhs1 <= rhs1 and lhs2 < rhs2)


def derivative_bracket(p: PwlFunction) -> tuple[float, float]:
    """Extreme absolute cell slopes; certifies monotonicity before the
    projected composite enters the reconstruction."""
    s = np.abs(p.slopes())
    return float(s.min()), float(s.max())
