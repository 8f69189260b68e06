"""Piecewise-linear L2 projection on a uniform mesh of [0, 1].

Rough (merely square-integrable) perturbations of the boundary composite
are smoothed by orthogonal projection onto continuous piecewise-linear
functions before entering the reconstruction.  The module also provides
the inverse-inequality check and the admissibility test coupling the mesh
width h to the noise level eps.

The projection constants live here; the mesh gate takes the composite's
bracket end C_g (``ProblemInstance.composite.deriv_lo``) as ``c_g``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import GridTooCoarse
from .func1d import UNIT, GridFunction

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
class UniformMesh:
    """Uniform partition of [0, 1] into n_cells cells of width h = 1/n_cells."""

    n_cells: int

    def __post_init__(self) -> None:
        if self.n_cells < 2:
            raise ValueError("need at least 2 cells")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)


@dataclass(frozen=True)
class PwlFunction:
    """Continuous piecewise-linear function as nodal coefficients on a mesh."""

    mesh: UniformMesh
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float).copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        if c.size != self.mesh.n_cells + 1:
            raise ValueError("coefficient count must be n_cells + 1")

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return np.interp(s, self.mesh.breakpoints, self.coeffs)

    def slopes(self) -> np.ndarray:
        return np.diff(self.coeffs) / self.mesh.h

    def as_grid_function(self, n: int) -> GridFunction:
        return GridFunction(UNIT, self(UNIT.grid(n)))


def _cell_loads(mesh: UniformMesh, w: GridFunction) -> np.ndarray:
    """Loads integral(w * hat_i) by composite Simpson per cell.

    The subdivision is the union of the grid nodes and the breakpoints,
    so every Simpson panel sees a single polynomial piece: for the
    piecewise-linear extension of w the product with a hat is quadratic
    per panel and the loads are exact up to rounding, regardless of how
    the grid aligns with the mesh.  When every breakpoint is a grid node
    (N divides n - 1, as ``experiments.snap_cells`` arranges) the panels
    are the grid cells and the sums need no merged grid.
    """
    if (w.n - 1) % mesh.n_cells == 0:
        return _aligned_cell_loads(mesh.n_cells, w.values)
    return _union_cell_loads(mesh, w)


def _union_cell_loads(mesh: UniformMesh, w: GridFunction) -> np.ndarray:
    """``_cell_loads`` on the union of the grid nodes and the breakpoints."""
    N, h = mesh.n_cells, mesh.h
    pts = np.union1d(w.nodes, mesh.breakpoints)
    x0, x1 = pts[:-1], pts[1:]
    mid = 0.5 * (x0 + x1)
    f0 = np.interp(x0, w.nodes, w.values)
    fm = np.interp(mid, w.nodes, w.values)
    f1 = np.interp(x1, w.nodes, w.values)
    k = np.clip((mid / h).astype(int), 0, N - 1)
    u0 = (x0 - k * h) / h            # rising hat coordinate per panel
    um = (mid - k * h) / h
    u1 = (x1 - k * h) / h
    seg = (x1 - x0) / 6.0
    rising = seg * (f0 * u0 + 4.0 * fm * um + f1 * u1)
    falling = seg * (f0 * (1.0 - u0) + 4.0 * fm * (1.0 - um) + f1 * (1.0 - u1))
    loads = np.zeros(N + 1)
    np.add.at(loads, k, falling)
    np.add.at(loads, k + 1, rising)
    return loads


def _aligned_cell_loads(N: int, v: np.ndarray) -> np.ndarray:
    """``_cell_loads`` when every breakpoint is a grid node.

    The panels are the grid cells, r = (n - 1)/N to a mesh cell: panel
    j has f0 = v[j], f1 = v[j+1], fm = (f0 + f1)/2 and rising hat
    coordinates u0 = (j mod r)/r, u1 = u0 + 1/r.  With the panels laid out
    as an N x r array, each load is a row sum: since fm is the mean, the
    Simpson sum seg * (f0*u0 + 4*fm*um + f1*u1) is f0 . (u0 + 2*um) +
    f1 . (u1 + 2*um) per row, and likewise with 1 - u for the falling hat.
    """
    r = (v.size - 1) // N
    u0 = np.arange(r) / r
    u1 = np.arange(1, r + 1) / r
    um = 0.5 * (u0 + u1)
    f0 = v[:-1].reshape(N, r)
    f1 = v[1:].reshape(N, r)
    seg = 1.0 / (6.0 * (v.size - 1))
    rising = f0 @ (u0 + 2.0 * um) + f1 @ (u1 + 2.0 * um)
    falling = f0 @ (3.0 - u0 - 2.0 * um) + f1 @ (3.0 - u1 - 2.0 * um)
    loads = np.zeros(N + 1)
    loads[:-1] += falling
    loads[1:] += rising
    loads *= seg
    return loads


def mass_matrix_banded(mesh: UniformMesh) -> np.ndarray:
    """Hat-function mass matrix in solve_banded layout (exact overlaps)."""
    N, h = mesh.n_cells, mesh.h
    ab = np.zeros((3, N + 1))
    ab[0, 1:] = h / 6.0                      # superdiagonal
    ab[1, :] = 2.0 * h / 3.0
    ab[1, 0] = ab[1, -1] = h / 3.0
    ab[2, :-1] = h / 6.0                     # subdiagonal
    return ab


def project_L2(mesh: UniformMesh, w: GridFunction) -> PwlFunction:
    """L2-orthogonal projection of a [0, 1] grid function onto the mesh.

    Solves the tridiagonal mass system M c = load with exact mass entries
    and Simpson loads; Galerkin orthogonality <w - Pw, hat_i> = 0 holds to
    quadrature accuracy.
    """
    if w.interval != UNIT:
        raise ValueError("projection domain is [0, 1]")
    if (w.n - 1) < 5 * mesh.n_cells:
        raise GridTooCoarse(
            f"grid with {w.n} nodes does not resolve {mesh.n_cells} cells "
            "(need >= 5 nodes per cell)")
    loads = _cell_loads(mesh, w)
    coeffs = solve_banded((1, 1), mass_matrix_banded(mesh), loads)
    return PwlFunction(mesh, coeffs)


def inverse_inequality_check(mesh: UniformMesh, p: PwlFunction,
                             m: int) -> tuple[float, float]:
    """Worst-cell pair (lhs, rhs) of the inverse inequality
    ||p||_{W^{m,inf}(cell)} <= C'_m h^{-(1/2+m)} ||p||_{L2(cell)}.

    The returned pair comes from the cell with the largest lhs/rhs ratio,
    so lhs <= rhs iff the inequality holds on every cell.
    """
    if m not in (0, 1):
        raise ValueError("m must be 0 or 1")
    h = mesh.h
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
    displacement below h^(3/2)/2.
    """
    if h <= 0.0 or c_g <= 0.0 or eps < 0.0 or g_h4_sup < 0.0:
        raise ValueError("h, c_g must be positive; eps, g_h4_sup nonnegative")
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
