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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateIntersection, MeshConditionViolated,
                     MonotonicityViolation, ShiftMismatch, SingularSystem,
                     TracregError)
from .func1d import (UNIT, CurveComposite, GridFunction, Interval, _block_rows, _blocks,
                     _first_difference, _fresh, _pchip, solve_tridiagonal)
from .func1d import derivative  # noqa: F401  (uncalled; perfbench's CALL_SITES names it)
from .intervals import admissible_eps, intersect_images
from .operators import _check_contains, _cut, _preimages
from .operators import apply_T3eps_pinv, extend_by_zero  # noqa: F401  (uncalled; perfbench's CALL_SITES names them)
from .pwl import (_mesh_margins, check_mesh_conditions, derivative_bracket,
                  is_mesh_width, project_L2)
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


def reconstruct_exact(problem: ProblemInstance,
                      params: RegularizationParams) -> Reconstruction:
    """Reconstruct from clean data: zeta is the exact antiderivative, and
    stages 2 and 3 run as a block of one column (``_differentiated``)."""
    end_gap = abs(problem.a0.values[-1] - params.shift_c)
    scale = max(1.0, float(np.abs(problem.a0.values).max()))
    if end_gap > 1e-10 * scale:
        raise ShiftMismatch(
            f"a0(g1)={problem.a0.values[-1]:.6g} differs from shift_c="
            f"{params.shift_c:.6g}")
    x = _fresh(problem.interval, problem.b0.nodes - problem.interval.lo)
    zeta = problem.b0 - params.shift_c * x
    return _raised(_differentiated(_solve_block(params.alpha, [zeta]), [zeta], params))


def _raised(outcomes: list[Reconstruction | TracregError]) -> Reconstruction:
    (outcome,) = outcomes   # a block of one's outcome, raised if it is an error
    if isinstance(outcome, TracregError):
        raise outcome
    return outcome


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

    gate = (params.mesh_h, noisy.eps, problem.g_h4_cell_sup(params.n_cells),
            problem.composite.deriv_lo)
    if not check_mesh_conditions(*gate):
        (lhs1, rhs1), (lhs2, rhs2) = _mesh_margins(*gate)
        raise MeshConditionViolated(
            "mesh width and noise level fail the (h, eps) admissibility inequalities: "
            f"h={params.mesh_h:.3e}, eps={noisy.eps:.3e}; the derivative one needs "
            f"{lhs1:.3e} <= {rhs1:.3e}, the image one {lhs2:.3e} < {rhs2:.3e}")
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
    nodes and zeroes it outside the common interval.  Stages 2 and 3 are
    the boundary value solve and differentiation.  All three run as a sweep's
    delta does (``_reconstruct_seeds``), on a block of one.
    """
    return _raised(_reconstruct_seeds(problem, [noisy], params))


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
                       params: RegularizationParams, kept: dict | None = None
                       ) -> list[Reconstruction | TracregError]:
    """The three stages on each of ``data`` (one problem, one params): a
    list of each one's reconstruction, or the ``TracregError`` a stage
    raised for it, with the bits of a block of one (``reconstruct_noisy``).

    Stage 1's gates run on each in turn (``_pulled_back_seeds``), and the
    entries that pass them go on in row blocks, through one ``_solve_block``
    of a column each (their ``b_alpha`` views it) and ``_differentiated``.
    A failure at any stage is its own seed's outcome, but for an error of
    the shared solve, which is every passed entry's.  A sweep passes
    ``kept``, a dict it holds for all its deltas, where ``_pchip`` keeps its
    grid-only values; every other array is fresh and lives with the list.
    """
    zetas = _pulled_back_seeds(problem, data, params, kept)
    passed = [z for z in zetas if isinstance(z, GridFunction)]
    try:
        solved = iter(_differentiated(_solve_block(params.alpha, passed), passed, params)
                      if passed else ())
    except TracregError as exc:
        return [exc if isinstance(z, GridFunction) else z for z in zetas]
    return [z if isinstance(z, TracregError) else next(solved) for z in zetas]


def _pulled_back_seeds(problem: ProblemInstance, data: Iterable[NoisyData],
                       params: RegularizationParams, kept: dict | None
                       ) -> list[GridFunction | TracregError]:
    """Stage 1 of each of ``data``: its zeta, or its error.

    The gates run on each in turn: the effective composite, the
    intersection, the common interval's containment in the target and the
    inversion, where cells fail.  The entries that pass them go on as row
    blocks of ``_block_rows(n)`` (``_pull_back_block``), which only compute.
    """
    zetas: list = []   # each entry's error, or None until its block is pulled back
    pulled: list = []
    gated: list = []   # the block being filled: common interval, data, nodes, preimages
    for noisy in data:
        try:
            eff, common, f_data = _gated(problem, noisy, params)
            _check_contains(problem.interval, common)
            nodes = problem.b0.nodes.copy()
            gated.append((common, f_data, nodes, _preimages(eff, common, f_data, nodes)))
            del nodes   # its entry alone holds it, so the block frees it
            zetas.append(None)
        except TracregError as exc:
            zetas.append(exc)
        if len(gated) == _block_rows(problem.b0.n):
            pulled += _pull_back_block(problem, gated, kept)
    if gated:
        pulled += _pull_back_block(problem, gated, kept)
    rows = iter(pulled)
    return [next(rows) if zeta is None else zeta for zeta in zetas]


def _pull_back_block(problem: ProblemInstance, gated: list,
                     kept: dict | None) -> list[GridFunction | TracregError]:
    # the pullback and zero extension of the gated entries as one row block:
    # each entry's zeta, or its error if its row is not finite.  It empties
    # gated before the cut, and reads one row (every block at n = 64001) in
    # place and cuts its copy: otherwise reconstruct_noisy faulted glibc's
    # trimmed heap top back in at every call (550-970 minor faults, not 8-15)
    target, n, f_data = problem.interval, problem.b0.n, gated[0][1]
    if len(gated) == 1:
        y, x = f_data.values[None], gated[0][3][None]
    else:
        y, x = np.empty((len(gated), n)), np.empty((len(gated), n))
        for row, (_, f, _, s) in enumerate(gated):
            y[row], x[row] = f.values, s
    commons = [common for common, *_ in gated]
    vals = _pchip(y, f_data.nodes, f_data.interval, x, kept)
    del y, x
    gated.clear()
    finite = np.isfinite(vals).all(axis=1)
    if len(commons) == 1:
        vals = vals.copy()
    if not finite.all():
        vals[~finite] = 0.0
    _cut(vals, problem.b0.nodes, problem.b0.spacing, target,
         np.array([c.lo for c in commons]), np.array([c.hi for c in commons]))
    return [_fresh(target, row) if ok else TracregError("non-finite pullback of the trace data")
            for row, ok in zip(vals, finite)]


def _differentiated(block: np.ndarray, zetas: list[GridFunction],
                    params: RegularizationParams) -> list[Reconstruction | TracregError]:
    """Stage 3 of the solved block's columns, in row blocks: a list of each
    one's reconstruction, or the ``SingularSystem`` of a non-finite column.
    Differentiating the whole block at n = 64001 faulted 8.5 times as often."""
    interval, h = zetas[0].interval, zetas[0].spacing
    outcomes: list = []
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
        outcomes += [b if isinstance(b, TracregError) else Reconstruction(
            b, _fresh(interval, next(a_rows)), zetas[j], params) for j, b in zip(r, solved)]
    return outcomes
