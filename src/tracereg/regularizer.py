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

from .errors import (DegenerateIntersection, MonotonicityViolation, ShiftMismatch,
                     SingularSystem, TracregError)
from .func1d import (UNIT, GridFunction, Interval, _blocks, _bracket_rule, _first_difference,
                     _fresh, _increasing_rule, _pchip, _shared_grid, _stacked,
                     solve_tridiagonal)
from .func1d import derivative  # noqa: F401  (uncalled; perfbench's CALL_SITES names it)
from .intervals import _intersection_rule, admissible_eps
from .intervals import intersect_images  # noqa: F401  (uncalled; perfbench's CALL_SITES names it)
from .operators import _containment_rule, _cut, _preimage_rows
from .operators import apply_T3eps_pinv, extend_by_zero  # noqa: F401  (uncalled; perfbench's CALL_SITES names them)
from .pwl import (_check_resolves, _mesh_domain_rule, _mesh_rule, _projected_rows, _slope_range,
                  is_mesh_width)
from .pwl import check_mesh_conditions, project_L2  # noqa: F401  (uncalled; perfbench's CALL_SITES names them)
from .datagen import NoisyData, NoisyRows, ProblemInstance


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
    return _raised(_reconstruct_seeds(problem, _rows_of(problem, [noisy]), params))


def _rows_of(problem: ProblemInstance, data: Sequence[NoisyData]) -> Iterator[NoisyRows]:
    """``data`` as row blocks of ``_block_rows(n)``, after the check that
    each datum lives on the problem's grids; a lone datum's samples are
    read in place."""
    n = problem.b0.n
    for noisy in data:
        if noisy.f_perturbed.n != n:
            raise ValueError(f"grid mismatch: the trace data has {noisy.f_perturbed.n} "
                             f"nodes, the problem's grid {n}")
        if noisy.g_perturbed.interval != UNIT:
            raise ValueError("composite must be parametrized over [0, 1]")
        if noisy.g_perturbed.n != problem.composite.forward.n:
            raise ValueError("composites must share one sampling grid")
        if noisy.f_perturbed.interval != UNIT:
            raise ValueError("trace data must live on [0, 1]")
    for r in _blocks(len(data), n):
        part = data[r.start:r.stop]
        yield NoisyRows(_stacked([d.g_perturbed.values for d in part]),
                        _stacked([d.f_perturbed.values for d in part]),
                        np.array([d.eps for d in part], dtype=float))


def _reconstruct_seeds(problem: ProblemInstance, blocks: Iterable[NoisyRows],
                       params: RegularizationParams, kept: dict | None = None
                       ) -> list[Reconstruction | TracregError]:
    """The three stages on each row of each of ``blocks`` (one problem, one
    params): a list of each row's reconstruction, or the ``TracregError``
    a stage raised for it, with the bits of a block of one
    (``reconstruct_noisy``).

    Stage 1 runs on each row block in turn (``_pulled_back_seeds``), and
    the rows that pass its gates go on in row blocks, through one
    ``_solve_block`` of a column each (their ``b_alpha`` views it) and
    ``_differentiated``.  A failure at any stage is its own row's outcome,
    but for an error of the shared solve, which is every passed row's.  A
    sweep passes ``kept``, a dict it holds for all its deltas, where
    ``_pchip`` keeps its grid-only values; every other array is fresh and
    lives with the list.
    """
    zetas = _pulled_back_seeds(problem, blocks, params, kept)
    passed = [z for z in zetas if isinstance(z, GridFunction)]
    try:
        solved = iter(_differentiated(_solve_block(params.alpha, passed), passed, params)
                      if passed else ())
    except TracregError as exc:
        return [exc if isinstance(z, GridFunction) else z for z in zetas]
    return [z if isinstance(z, TracregError) else next(solved) for z in zetas]


def _pulled_back_seeds(problem: ProblemInstance, blocks: Iterable[NoisyRows],
                       params: RegularizationParams, kept: dict | None
                       ) -> list[GridFunction | TracregError]:
    """Stage 1 of each row of ``blocks``: its zeta, or its error.

    Each block is gated as one (``_gated``): the effective composites, the
    intersections and the common intervals' containment in the target,
    where cells fail.  Its rows that pass go on as one
    block (``_pull_back_block``), which only computes.  Each call takes the
    next block itself, so its arrays die inside it, as soon as they are
    spent, and before the next block is made: a plain loop over the blocks,
    which holds each to the end of its turn, ran ``smooth_sweeps``'
    ``op_p50_ms`` 6.5% slower (15.27 to 16.26 ms, ahead in 0 of 10 pairs of
    8 s runs; ROADMAP.md, item 5).
    """
    blocks = iter(blocks)
    zetas: list = []
    while (pulled := _pull_back_block(problem, blocks, params, kept)) is not None:
        zetas += pulled
    return zetas


def _pull_back_block(problem: ProblemInstance, blocks: Iterator[NoisyRows],
                     params: RegularizationParams, kept: dict | None
                     ) -> list[GridFunction | TracregError] | None:
    # stage 1 of the next row block, or None when there is none: each row's
    # zeta, or its error.  The rows that pass the gates are pulled back and
    # extended by zero as one block, and a row whose pullback is not finite
    # fails alone.  This call holds the only reference to the block, so a
    # block's composite samples die once inverted, and one block array
    # fewer lives at the pullback's peak
    rows = next(blocks, None)
    if rows is None:
        return None
    errors, passed = _gated(problem, rows, params)
    if passed is None:
        return errors
    eff, f_data, lo, hi = passed
    del rows, passed
    target, nodes = problem.interval, problem.b0.nodes
    x = _preimage_rows(eff, nodes, lo, hi)
    del eff
    with np.errstate(over="ignore", invalid="ignore"):   # a row that overflows fails
        vals = _pchip(f_data, _shared_grid(0.0, 1.0, nodes.size), UNIT, x, kept)
    del x
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        vals[~finite] = 0.0
    _cut(vals, nodes, problem.b0.spacing, target, lo, hi)
    pulled = iter(_fresh(target, row) if ok else TracregError(
        "non-finite pullback of the trace data") for row, ok in zip(vals, finite))
    return [next(pulled) if e is None else e for e in errors]


def _gated(problem: ProblemInstance, rows: NoisyRows, params: RegularizationParams
           ) -> tuple[list, tuple | None]:
    """Stage 1's gates on a row block, up to the pullback.

    Each gate measures every row of the block and flags the rows that fail
    it.  A row's outcome is the error of the first gate it fails, in the
    order a lone datum meets them, or None; an argument error (a
    ``ValueError``) raises for the whole call, the first row's.  Returned
    with the outcomes, unless no row passes, for the rows that pass: the
    effective composites' samples, the trace data to pull back and the
    common intervals' ends, each a block of those rows, read in place when
    every row passes.
    """
    if params.mode is Mode.EXACT:
        raise ValueError("use reconstruct_exact for exact data")
    f, eps = rows.f, rows.eps
    bound = admissible_eps(problem)
    gates = [(eps >= bound, lambda j: DegenerateIntersection(
        f"eps={eps[j]:.3e} violates eps < min{{(g1-g0)/4, C_g/2}}={bound:.3e}"))]
    with np.errstate(all="ignore"):   # a failing row's arithmetic may overflow
        effective = _effective_rows(problem, rows, params, gates)
        if effective is None:
            return _decided(len(eps), gates), None
        eff = effective[0]
        image_rule, lo, hi = _intersection_rule(problem.composite.forward.values[None], eff, None)
        gates.append(image_rule)
        if params.shift_c != 0.0:
            f = f - params.shift_c * (eff - problem.interval.lo)
            gates.append((~np.isfinite(f).all(axis=1),
                          lambda j: ValueError("grid values must be finite")))
        gates.append(_containment_rule(problem.interval, lo, hi))
    errors = _decided(len(eps), gates)
    passed = [e is None for e in errors]
    if not any(passed):
        return errors, None
    if not all(passed):
        eff, f, lo, hi = (x[passed] for x in (eff, f, lo, hi))
    return errors, (eff, f, lo, hi)


def _effective_rows(problem: ProblemInstance, rows: NoisyRows,
                    params: RegularizationParams, gates: list) -> tuple | None:
    """Stage 1's composites from a block of perturbed samples, as the mode
    says: the samples with the exact bracket widened by eps (C1), or their
    projections onto the mesh behind the (h, eps) gate and the half/double
    bracket (L2).  Their gates go onto ``gates``.  Returns the composites'
    samples, a row each, and their bracket (lo, hi), one a row or one for
    all; or None when no row can reach them (a mesh the grid does not
    resolve, whose error is then every row's that passes the gates before
    it)."""
    c, g, eps = problem.composite, rows.g, rows.eps
    if params.mode is Mode.NOISY_C1:
        lo, hi = c.deriv_lo - eps, c.deriv_hi + eps
        gates.append(_bracket_rule(g, 1.0 / (g.shape[-1] - 1), lo, hi, c.bracket_atol))
        return g, lo, hi

    h, n_cells, g4 = params.mesh_h, params.n_cells, problem.g_h4_cell_sup(params.n_cells)
    gates += [_mesh_domain_rule(h, eps, g4, c.deriv_lo), _mesh_rule(h, eps, g4, c.deriv_lo)]
    try:
        _check_resolves(n_cells, g.shape[-1])
    except (TracregError, ValueError) as exc:
        gates.append((np.ones(len(eps), bool), lambda j, exc=exc: exc))
        return None
    p, loads_rule = _projected_rows(n_cells, g)
    lo_req, hi_req = 0.5 * c.deriv_lo, 2.0 * c.deriv_hi
    smin, smax = _slope_range(p, 1.0 / n_cells)
    nodes, breaks = _shared_grid(0.0, 1.0, g.shape[-1]), _shared_grid(0.0, 1.0, n_cells + 1)
    eff = _stacked([np.interp(nodes, breaks, row) for row in p])
    gates += [loads_rule,
              ((smin < lo_req) | (smax > hi_req), lambda j: MonotonicityViolation(
                  "projected composite leaves the half/double derivative bracket: "
                  f"slopes in [{smin[j]:.3g}, {smax[j]:.3g}], "
                  f"bracket [{lo_req:.3g}, {hi_req:.3g}]")),
              # cells span >= MIN_STEPS_PER_CELL grid steps, so a node's
              # stencil mixes at most two cell slopes: the bracket holds up
              # to rounding far below 1e-6
              _increasing_rule(eff)]
    return eff, lo_req, hi_req


def _decided(k: int, gates: list) -> list:
    # each of k rows' error at the first of the gates (flags, error of a
    # row) that it fails, or None; the first row's argument error raises
    errors: list = [None] * k
    for fails, error in gates:
        for j in np.flatnonzero(fails).tolist():
            if errors[j] is None:
                errors[j] = error(j)
    for e in errors:
        if e is not None and not isinstance(e, TracregError):
            raise e
    return errors


def _differentiated(block: np.ndarray, zetas: list[GridFunction],
                    params: RegularizationParams) -> list[Reconstruction | TracregError]:
    """Stage 3 of the solved block's columns, in row blocks: a list of each
    one's reconstruction, the ``SingularSystem`` of a non-finite column, or
    the ``TracregError`` of a finite column whose derivative overflows.
    Differentiating the whole block at once peaked a rate_l2_h1 sweep's
    process at 74 MB against 71.1 MB when first measured; at 67.8 MB the
    two now read the same (``scripts/alloc_profile.py``, CHANGES.md)."""
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
        with np.errstate(over="ignore", invalid="ignore"):   # a row that overflows fails
            a = _first_difference(cols if all(finite) else cols[finite], h)
            if params.shift_c != 0.0:
                a += params.shift_c
        a_rows = iter(a)
        for j, b in zip(r, solved):
            if not isinstance(b, TracregError):
                try:   # _fresh's finiteness scan checks the derivative row
                    b = Reconstruction(b, _fresh(interval, next(a_rows)), zetas[j], params)
                except ValueError:
                    b = TracregError("non-finite derivative of the solution")
            outcomes.append(b)
    return outcomes
