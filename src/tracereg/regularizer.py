"""The reconstruction engine.

Stage 1 recovers the antiderivative data on the usable interval (exactly
for clean data, through the perturbed composite's inverse for noisy
data), stage 2 solves the damped two-point boundary value problem
-alpha*b'' + b = zeta with b(g0) = 0 and b'(g1) = 0, and stage 3
differentiates.  A known nonzero endpoint value of the coefficient is
removed before stage 1 and added back after stage 3.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateIntersection, MeshConditionViolated,
                     MonotonicityViolation, ShiftMismatch, SingularSystem,
                     TracregError)
from .func1d import (UNIT, CurveComposite, GridFunction, Interval, _block_rows, _blocks,
                     _first_difference, _fresh, _pchip, _Scratch, derivative,
                     solve_tridiagonal)
from .intervals import admissible_eps, intersect_images
from .operators import (_check_contains, _cut, _preimages, apply_T3eps_pinv,
                        extend_by_zero)
from .pwl import (check_mesh_conditions, derivative_bracket, is_mesh_width,
                  project_L2)
from .datagen import NoisyData, ProblemInstance


class Mode(enum.Enum):
    EXACT = "exact"
    NOISY_C1 = "noisy_c1"
    NOISY_L2 = "noisy_l2"


@dataclass(frozen=True)
class RegularizationParams:
    """Regularization strength and pipeline mode.

    ``mesh_h`` is the projection mesh width 1/``n_cells``, present exactly
    in L2-noise mode; ``shift_c`` is the coefficient's known end value.
    """

    alpha: float
    mode: Mode = Mode.EXACT
    shift_c: float = 0.0
    mesh_h: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if (self.mesh_h is not None) != (self.mode is Mode.NOISY_L2):
            raise ValueError("mesh_h is required in L2-noise mode and "
                             "forbidden otherwise")
        if self.mesh_h is not None and not is_mesh_width(self.mesh_h):
            raise ValueError("mesh_h must be positive and 1/N for an integer "
                             f"cell count N, got {self.mesh_h!r}")

    @property
    def n_cells(self) -> int:
        return int(round(1.0 / self.mesh_h))


@dataclass(frozen=True)
class Reconstruction:
    b_alpha: GridFunction
    a_alpha: GridFunction
    zeta_used: GridFunction
    params: RegularizationParams


def solve_ode(alpha: float, zeta: GridFunction) -> GridFunction:
    """Solve -alpha*b'' + b = zeta with b(lo) = 0 and b'(hi) = 0.

    Second-order finite differences: interior rows -alpha*D2 + I, a
    Dirichlet row at the left endpoint, and a ghost-node Neumann row at
    the right endpoint.  The tridiagonal system is strictly diagonally
    dominant for alpha > 0.  Its diagonals and right-hand side are finite by
    construction (grid values are finite, alpha/h**2 is checked), so LAPACK's
    ``gtsv`` solves it in place unchecked; its output is checked instead.
    This is the one-column case of ``_solve_block``.
    """
    return _solution(_solve_block(alpha, (zeta,)), 0, zeta.interval)


def _solve_block(alpha: float, zetas: Sequence[GridFunction]) -> np.ndarray:
    """Stage 2 of right-hand sides on one grid, in one banded solve.

    Column j of the returned n x k Fortran-ordered block is the solution
    for ``zetas[j]``.  ``gtsv`` eliminates the shared diagonals once and
    updates each column with the arithmetic of a one-column solve, so
    every column is bit-identical to solving it alone.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n, h = zetas[0].n, zetas[0].spacing
    if n < 5:
        raise SingularSystem("grid too small for the boundary value solve")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        r = alpha / np.float64(h) ** 2
    if not 0.0 < 2.0 * r < np.inf:
        raise SingularSystem(
            f"alpha/h**2 = {r:.3g} is not positive and finite in the band "
            f"(alpha={alpha:.3g}, h={h:.3g})")
    # interior rows -alpha*D2 + I, a ghost-node Neumann row (b[n] = b[n-2])
    # at the far end, and a Dirichlet row with nothing beside its unit
    # diagonal: elimination keeps b(lo) = 0 exact and does the other rows'
    # arithmetic as if b(lo) had been eliminated.  Allocated before the
    # block, the diagonals leave a hole below it when freed, not a free heap
    # top that malloc would trim and fault back in next solve
    sub = np.full(n - 1, -r)
    sub[0] = 0.0
    sub[-1] = -2.0 * r
    diag = np.full(n, 1.0 + 2.0 * r)
    diag[0] = 1.0
    sup = np.full(n - 1, -r)
    sup[0] = 0.0
    block = np.empty((n, len(zetas)), order="F")
    block[0] = 0.0
    for j, zeta in enumerate(zetas):
        block[1:, j] = zeta.values[1:]
    # gtsv solves a Fortran-ordered block in place
    return solve_tridiagonal(sub, diag, sup, block)


def _solution(block: np.ndarray, j: int, interval: Interval) -> GridFunction:
    """Column j of a solved block, checked: a view that keeps the block."""
    try:
        return _fresh(interval, block[:, j])
    except ValueError:
        raise SingularSystem("non-finite solution from the banded solve") from None


def _shifted_zeta(problem: ProblemInstance, shift_c: float) -> GridFunction:
    x = problem.b0.nodes - problem.interval.lo
    return problem.b0 - shift_c * _fresh(problem.interval, x)


def reconstruct_exact(problem: ProblemInstance,
                      params: RegularizationParams) -> Reconstruction:
    """Reconstruct from clean data: zeta is the exact antiderivative."""
    end_gap = abs(problem.a0.values[-1] - params.shift_c)
    scale = max(1.0, float(np.abs(problem.a0.values).max()))
    if end_gap > 1e-10 * scale:
        raise ShiftMismatch(
            f"a0(g1)={problem.a0.values[-1]:.6g} differs from shift_c="
            f"{params.shift_c:.6g}")
    zeta = _shifted_zeta(problem, params.shift_c)
    return _reconstruction(solve_ode(params.alpha, zeta), zeta, params)


def _reconstruction(b: GridFunction, zeta: GridFunction,
                    params: RegularizationParams) -> Reconstruction:
    """Stage 3 on stage 2's solution b: differentiation with the endpoint
    value added back."""
    a = derivative(b)
    if params.shift_c != 0.0:
        a = a + params.shift_c
    return Reconstruction(b, a, zeta, params)


def _effective_composite(problem: ProblemInstance, noisy: NoisyData,
                         params: RegularizationParams) -> CurveComposite:
    """Stage 1's composite from the perturbed samples, as the mode says: the
    samples with the exact bracket widened by eps (C1), or their projection
    onto the mesh behind the (h, eps) gate and the half/double bracket (L2)."""
    g = noisy.g_perturbed
    if params.mode is Mode.NOISY_C1:
        return CurveComposite(g, deriv_lo=problem.composite.deriv_lo - noisy.eps,
                              deriv_hi=problem.composite.deriv_hi + noisy.eps,
                              bracket_atol=problem.composite.bracket_atol)

    if not check_mesh_conditions(params.mesh_h, noisy.eps,
                                 problem.g_h4_cell_sup(params.n_cells),
                                 problem.composite.deriv_lo):
        raise MeshConditionViolated(
            "mesh width and noise level fail the (h, eps) admissibility "
            f"inequalities: h={params.mesh_h:.3e}, eps={noisy.eps:.3e}")
    p = project_L2(params.n_cells, g)
    lo_req = 0.5 * problem.composite.deriv_lo
    hi_req = 2.0 * problem.composite.deriv_hi
    smin, smax = derivative_bracket(p)
    if smin < lo_req or smax > hi_req:
        raise MonotonicityViolation(
            "projected composite leaves the half/double derivative bracket: "
            f"slopes in [{smin:.3g}, {smax:.3g}], bracket [{lo_req:.3g}, {hi_req:.3g}]")
    # cells span >= MIN_STEPS_PER_CELL grid steps, so a node's stencil mixes
    # at most two cell slopes: the bracket holds up to rounding far below 1e-6
    return CurveComposite._certified(_fresh(UNIT, p(g.nodes)), lo_req, hi_req)


def reconstruct_noisy(problem: ProblemInstance, noisy: NoisyData,
                      params: RegularizationParams) -> Reconstruction:
    """Three-stage reconstruction from perturbed data.

    Stage 1 reads the perturbed samples as the mode says (a C1 composite,
    or their mesh projection), intersects images, pulls the
    trace data back through the composite's inverse at the target grid's
    nodes and zeroes it outside the common interval.
    Stages 2 and 3 are the boundary value solve and differentiation.
    """
    zeta = _pulled_back(problem, noisy, params)
    return _reconstruction(solve_ode(params.alpha, zeta), zeta, params)


def _pulled_back(problem: ProblemInstance, noisy: NoisyData,
                 params: RegularizationParams) -> GridFunction:
    """Stage 1 of ``reconstruct_noisy``: the data zeta of the boundary value
    solve."""
    eff, common, f_data = _gated(problem, noisy, params)
    zeta_pulled = apply_T3eps_pinv(eff, common, f_data, problem.interval)
    return extend_by_zero(zeta_pulled, common)


def _gated(problem: ProblemInstance, noisy: NoisyData, params: RegularizationParams
           ) -> tuple[CurveComposite, Interval, GridFunction]:
    """Stage 1 up to the pullback: the gates on the inputs, the effective
    composite and the common interval, which raise where cells fail, and the
    trace data to pull back."""
    if params.mode is Mode.EXACT:
        raise ValueError("use reconstruct_exact for exact data")
    if noisy.f_perturbed.n != problem.b0.n:
        raise ValueError(f"grid mismatch: the trace data has {noisy.f_perturbed.n} "
                         f"nodes, the problem's grid {problem.b0.n}")
    if noisy.eps >= admissible_eps(problem):
        raise DegenerateIntersection(
            f"eps={noisy.eps:.3e} violates eps < min{{(g1-g0)/4, C_g/2}}"
            f"={admissible_eps(problem):.3e}")

    eff = _effective_composite(problem, noisy, params)
    common = intersect_images(problem.composite, eff)

    f_data = noisy.f_perturbed
    if params.shift_c != 0.0:
        f_data = f_data - params.shift_c * (eff.forward - problem.interval.lo)
    return eff, common, f_data


def _reconstruct_seeds(problem: ProblemInstance, data: Iterable[NoisyData],
                       params: RegularizationParams, scratch: _Scratch | None = None
                       ) -> Iterator[Reconstruction | TracregError]:
    """``reconstruct_noisy`` of each of ``data`` (one problem, one params),
    in order: its reconstruction, or the ``TracregError`` its stages raised.
    Each reconstruction has the bits of ``reconstruct_noisy`` on its data.

    Stage 1's gates run on each in turn (``_pulled_back_seeds``), and the
    entries that pass them go on in row blocks.  One ``_solve_block`` then
    solves stage 2 for all of them, a column each, so their pulled-back
    functions and the n x k block are held until the last one is
    differentiated; an error of the shared solve is every such entry's
    error.  Stage 3 differentiates a row block of solved columns at a time.
    The blocks' temporaries come from ``scratch``, which a sweep keeps for
    all its deltas; without one they are fresh.
    """
    scratch = _Scratch(hold=False) if scratch is None else scratch
    zetas = _pulled_back_seeds(problem, data, params, scratch)
    passed = [z for z in zetas if isinstance(z, GridFunction)]
    solved = iter(())
    try:
        if passed:
            solved = _differentiated(_solve_block(params.alpha, passed), passed, params)
    except TracregError as exc:
        zetas = [exc if isinstance(z, GridFunction) else z for z in zetas]
    for zeta in zetas:
        yield zeta if isinstance(zeta, TracregError) else next(solved)


def _pulled_back_seeds(problem: ProblemInstance, data: Iterable[NoisyData],
                       params: RegularizationParams, scratch: _Scratch
                       ) -> list[GridFunction | TracregError]:
    """``_pulled_back`` of each of ``data``: its zeta, or its error.

    The gates run on each in turn: the effective composite, the
    intersection and the inversion with its range check, where cells fail.
    The entries that pass them go on as row blocks of ``_block_rows(n)``:
    one ``_pchip`` pulls back every row's trace data at its own preimages,
    and one ``_cut`` zeroes each row outside its own common interval.
    """
    zetas: list = []
    gated: list = []   # the block being filled: place, common interval, data, preimages
    for noisy in data:
        try:
            eff, common, f_data = _gated(problem, noisy, params)
            nodes = scratch.array("nodes", (problem.b0.n,))
            np.copyto(nodes, problem.b0.nodes)
            gated.append((len(zetas), common, f_data, _preimages(eff, common, f_data, nodes)))
            zetas.append(None)
        except TracregError as exc:
            zetas.append(exc)
        if len(gated) == _block_rows(problem.b0.n):
            _pull_back_block(problem, gated, zetas, scratch)
            gated = []
    if gated:
        _pull_back_block(problem, gated, zetas, scratch)
    return zetas


def _pull_back_block(problem: ProblemInstance, gated: list, zetas: list,
                     scratch: _Scratch) -> None:
    # the pullback and the zero extension of the gated entries as one row
    # block, each entry's outcome written to its place in zetas
    target, n = problem.interval, problem.b0.n
    y, x = scratch.array("trace data", (len(gated), n)), scratch.array("preimages", (len(gated), n))
    for row, (_, _, f_data, s) in enumerate(gated):
        y[row], x[row] = f_data.values, s
    vals = _pchip(y, f_data.nodes, f_data.interval, x, scratch)
    if not np.isfinite(vals).all():
        raise ValueError("grid values must be finite")
    _cut(vals, problem.b0.nodes, problem.b0.spacing, target,
         np.array([c.lo for _, c, _, _ in gated]), np.array([c.hi for _, c, _, _ in gated]))
    for row, (place, common, _, _) in enumerate(gated):
        try:
            _check_contains(target, common)
        except TracregError as exc:
            zetas[place] = exc
        else:
            zetas[place] = _fresh(target, vals[row])


def _differentiated(block: np.ndarray, zetas: list[GridFunction],
                    params: RegularizationParams) -> Iterator[Reconstruction | TracregError]:
    # stage 3 of the solved block's columns, one per zeta, in row blocks of
    # _block_rows(n): each column's reconstruction, or the SingularSystem of
    # a column that is not finite
    interval, h = zetas[0].interval, zetas[0].spacing
    for r in _blocks(len(zetas), block.shape[0]):
        solved = []
        for j in r:
            try:
                solved.append(_solution(block, j, interval))
            except TracregError as exc:
                solved.append(exc)
        finite = [not isinstance(b, TracregError) for b in solved]
        cols = block[:, r.start:r.stop].T
        a = _first_difference(cols if all(finite) else cols[finite], h)
        if params.shift_c != 0.0:
            a += params.shift_c
        a_rows = iter(a)
        for j, b in zip(r, solved):
            yield b if isinstance(b, TracregError) else Reconstruction(
                b, _fresh(interval, next(a_rows)), zetas[j], params)
