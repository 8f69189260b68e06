"""Grid functions on a closed interval.

Everything downstream acts on uniformly sampled functions: quadrature,
Sobolev norms, differentiation, cumulative integration, inversion of
increasing sampled maps and tridiagonal solves. All types are immutable and
all operations pure, so values can be shared freely.
Values are checked where they enter: the public constructors copy and scan
the caller's array, the package's operations adopt the arrays they
allocate (``_fresh``: one scan, no copy).  ``GridFunction.nodes`` is a
shared read-only array; ``Interval.grid`` returns a fresh one.

A ``GridFunction`` called at points evaluates the piecewise-linear
interpolant of its samples, the authoritative continuous extension; the
monotone cubic of ``pchip`` is used only where explicitly documented
(compositions).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import MonotonicityViolation, OutOfRange, SingularSystem, StencilTooSmall


def _lapack_dgtsv():
    # scipy/linalg/_flapack loaded from its file, without the 330 modules
    # the scipy.linalg package imports (see solve_tridiagonal).  The
    # extension registers under its own name, so scipy.linalg.lapack finds
    # this very module, whichever of the two a process imports first.
    scipy = importlib.util.find_spec("scipy")   # finds without importing
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("tracereg needs scipy, and no scipy package was found",
                          name="scipy")
    where = [os.path.join(p, "linalg") for p in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", where)
    if spec is None:
        raise ImportError("scipy's LAPACK wrapper scipy.linalg._flapack was not "
                          f"found in {os.pathsep.join(where)}",
                          name="scipy.linalg._flapack")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgtsv


dgtsv = _lapack_dgtsv()

#: Calibrated absolute constant of the sup-norm embedding inequality
#: ||y||_inf <= C * max(3, 2|J|+1) * ||y||_H1(J).  The explicit factor
#: max(3, 2|J|+1) is kept separate; C = 2 dominates the sharp embedding
#: constant sqrt(coth|J|) for every |J| >= 0.1 (sqrt(coth 0.1) ~ 3.17 < 6).
SUP_EMBED_C = 2.0

#: Relative rounding slack for containment, gap and inversion-range checks.
_FP_SLACK = 1e-12

#: Relative slack of the composite's derivative-bracket check.
_BRACKET_RTOL = 1e-6


@dataclass(frozen=True)
class Interval:
    """Closed non-degenerate interval [lo, hi] of finite length."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"interval length {self.hi - self.lo} is not finite")

    def length(self) -> float:
        return self.hi - self.lo

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n)

    def contains(self, other: "Interval", tol: float) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol


UNIT = Interval(0.0, 1.0)


@lru_cache(maxsize=8)   # 0.5 MB per grid at n = 64001
def _shared_grid(lo: float, hi: float, n: int) -> np.ndarray:
    x = np.linspace(lo, hi, n)
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class GridFunction:
    """Real function sampled at n >= 3 uniform nodes of an interval.

    The constructor, the one public way to build one, copies and checks
    ``values``; the package's operations adopt their outputs (``_fresh``).
    ``values`` and the shared ``nodes`` are read-only."""

    interval: Interval
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _adopted(np.array(self.values, dtype=float)))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return self.interval.length() / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        if self.interval.hi == 0.0:   # -0.0 keys as 0.0; linspace ends on hi
            return self.interval.grid(self.n)
        return _shared_grid(self.interval.lo, self.interval.hi, self.n)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """Evaluate the piecewise-linear extension of the samples."""
        return np.interp(s, self.nodes, self.values)

    # Small pointwise algebra; operands must share the grid.
    def _check_same_grid(self, other: "GridFunction") -> None:
        if other.interval != self.interval or other.n != self.n:
            raise ValueError("grid mismatch")

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return _fresh(self.interval, self.values + other.values)
        return _fresh(self.interval, self.values + float(other))

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return _fresh(self.interval, self.values - other.values)
        return _fresh(self.interval, self.values - float(other))

    def __mul__(self, scalar: float):
        return _fresh(self.interval, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return _fresh(self.interval, -self.values)


def _adopted(values: np.ndarray) -> np.ndarray:
    """``values`` made read-only; ValueError unless it is a 1-d sample of at
    least 3 values, all finite."""
    if values.ndim != 1 or values.size < 3:
        raise ValueError("need a 1-d sample with at least 3 nodes")
    if not np.isfinite(values).all():
        raise ValueError("grid values must be finite")
    values.flags.writeable = False
    return values


def _fresh(interval: Interval, values: np.ndarray) -> GridFunction:
    """Adopt a float array the caller has just allocated and keeps no other
    use for: no copy, one finiteness scan."""
    f = object.__new__(GridFunction)
    f.__dict__.update(interval=interval, values=_adopted(values))
    return f


@dataclass(frozen=True)
class CurveComposite:
    """Strictly increasing C1 map of [0, 1], sampled, with derivative bracket.

    ``forward`` holds the samples of the boundary-curve composite (a
    decreasing one is the same map read backwards, s -> 1 - s); the
    bracket ``deriv_lo <= d forward/ds <= deriv_hi`` is the constructor
    contract, checked with second-order numerical derivatives at the nodes.
    The check allows ``_BRACKET_RTOL * deriv_hi + bracket_atol`` of slack for
    the O(h^2) gap between stencil and true derivative; a builder that knows
    the third derivative passes its bound h^2/3 * sup|forward'''| as
    ``bracket_atol``.
    """

    forward: GridFunction
    deriv_lo: float
    deriv_hi: float
    bracket_atol: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.forward.interval != UNIT:
            raise ValueError("composite must be parametrized over [0, 1]")
        _raise_first(_bracket_rule(self.forward.values[None], self.forward.spacing,
                                   self.deriv_lo, self.deriv_hi, self.bracket_atol))

    @classmethod
    def _certified(cls, forward: GridFunction, lo: float, hi: float) -> "CurveComposite":
        # a composite over [0, 1] whose builder has certified the bracket
        _raise_first(_increasing_rule(forward.values[None]))
        c = object.__new__(cls)
        c.__dict__.update(forward=forward, deriv_lo=lo, deriv_hi=hi, bracket_atol=0.0)
        return c

    def image(self) -> Interval:
        """The samples' range, read off the ends: the constructors made the
        read-only samples strictly increasing, so no pass over them is needed."""
        return Interval(float(self.forward.values[0]), float(self.forward.values[-1]))


def _raise_first(rule: tuple) -> None:
    # a public check's decision on a rule (rows that fail, error of row j)
    # of its block: the error of the first row that fails
    fails, error = rule
    if fails.any():
        raise error(int(np.flatnonzero(fails)[0]))


def _increasing_rule(v: np.ndarray) -> tuple:
    # the samples of each row of a block v (k, n) strictly increase
    fails = ~(v[:, 1:] > v[:, :-1]).all(axis=-1)
    return fails, lambda j: MonotonicityViolation("sampled composite is not strictly increasing")


def _bracket_rule(v: np.ndarray, h, lo, hi, atol) -> tuple:
    # CurveComposite's sample contract on each row of a block v (k, n), with
    # one bracket [lo, hi] a row (shape (k,)) or one for all: 0 < lo <= hi,
    # strictly increasing samples, and a stencil derivative that stays in
    # the bracket up to _BRACKET_RTOL * hi + atol (failing for inf and NaN)
    not_increasing, not_increasing_error = _increasing_rule(v)
    d = _first_difference(v, h)
    d_lo, d_hi = d.min(axis=-1), d.max(axis=-1)
    slack = _BRACKET_RTOL * hi + atol
    fails = not_increasing | ~((0.0 < lo) & (lo <= hi) & (d_lo >= lo - slack)
                               & (d_hi <= hi + slack))

    def error(j: int) -> Exception:
        lo_j, hi_j = (np.broadcast_to(x, fails.shape)[j] for x in (lo, hi))
        if not 0.0 < lo_j <= hi_j:
            return ValueError("need 0 < deriv_lo <= deriv_hi")
        if not_increasing[j]:
            return not_increasing_error(j)
        if not (math.isfinite(d_lo[j]) and math.isfinite(d_hi[j])):
            return ValueError("grid values must be finite")
        return MonotonicityViolation(
            "numerical derivative leaves the declared bracket "
            f"[{lo_j}, {hi_j}]: observed [{d_lo[j]:.6g}, {d_hi[j]:.6g}]")
    return fails, error


def integrate(f: GridFunction) -> float:
    """Quadrature of the samples: composite Simpson when the node count is
    odd, Simpson plus a trapezoid tail cell when it is even.

    Exact (up to rounding) for polynomials of degree <= 2 sampled on an
    odd-n grid.
    """
    return float(_quadrature(f.values, f.spacing))


# The private kernels below act on the last axis: ``v`` is one row of
# samples or a block of rows, shape (k, n), and the spacing ``h`` a float or
# one spacing per row, shape (k,).  A row and a block run the same
# arithmetic, so each row of a block gets the bits of the 1-d call on it.
# Entry i of every row is read as ``v.T[i]``: a scalar for a row, where
# ``v[..., i]`` would be a 0-d array that costs a ufunc call an operation.
# ``_pchip`` takes blocks only, each row with its own queries; the public
# ``pchip`` runs it as a block of one, as ``pwl._worst_cell`` runs the
# inverse-inequality check.

#: Floats in one block array: a block of n-node rows has max(1, _BLOCK // n)
#: rows, at most 128 KB.  In the property suite, blocks twice that size ran
#: 5% slower and raised a process's peak RSS over single samples' loops by
#: 2.6 MB (4%), against 1.5 MB.  At n = 64001 a block is one row, the shape
#: in which a stacked ``pchip`` had run 70% slower.
_BLOCK = 16384


def _block_rows(n: int) -> int:
    return max(1, _BLOCK // n)


def _stacked(rows: list[np.ndarray]) -> np.ndarray:
    # rows of one length as a (k, n) block; a lone row is read in place
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def _blocks(count: int, n: int) -> list[range]:
    # the indices 0..count-1 in blocks of at most _block_rows(n)
    step = _block_rows(n)
    return [range(i, min(i + step, count)) for i in range(0, count, step)]


def _column(x):
    # a value per row, shaped to scale the rows' entries; a scalar stays
    return x[..., None] if isinstance(x, np.ndarray) else x


def _quadrature(v: np.ndarray, h):
    w = v if v.shape[-1] % 2 else v[..., :-1]
    total = h / 3.0 * (w.T[0] + w.T[-1] + 4.0 * w[..., 1:-1:2].sum(axis=-1)
                       + 2.0 * w[..., 2:-2:2].sum(axis=-1))
    return total if v.shape[-1] % 2 else total + 0.5 * h * (v.T[-2] + v.T[-1])


def derivative(f: GridFunction) -> GridFunction:
    """Second-order first derivative: central interior, one-sided at ends."""
    return _fresh(f.interval, _first_difference(f.values, f.spacing))


def _first_difference(v: np.ndarray, h) -> np.ndarray:
    d = np.empty_like(v)
    np.subtract(v[..., 2:], v[..., :-2], out=d[..., 1:-1])
    d[..., 1:-1] /= 2.0 * _column(h)
    e = v.T
    d.T[0] = (-3.0 * e[0] + 4.0 * e[1] - e[2]) / (2.0 * h)
    d.T[-1] = _right_slope(v, h)
    return d


def _right_slope(v: np.ndarray, h):
    e = v.T
    return (3.0 * e[-1] - 4.0 * e[-2] + e[-3]) / (2.0 * h)


def second_derivative(f: GridFunction) -> GridFunction:
    """Second-order second derivative; 4-point one-sided stencils at ends."""
    if f.n < 5:
        raise StencilTooSmall("second derivative needs at least 5 nodes")
    return _fresh(f.interval, _second_difference(f.values, f.spacing))


def _second_difference(v: np.ndarray, h) -> np.ndarray:
    # libm's pow, as Python rounds a float's h**2; an array's h**2 is h*h,
    # which differs from it in the last bit for about one h in a thousand
    h2 = np.float_power(h, 2)
    d = np.empty_like(v)
    d[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / _column(h2)
    e = v.T
    d.T[0] = (2.0 * e[0] - 5.0 * e[1] + 4.0 * e[2] - e[3]) / h2
    d.T[-1] = (2.0 * e[-1] - 5.0 * e[-2] + 4.0 * e[-3] - e[-4]) / h2
    return d


_RUNGS = {"L2": 0, "H1": 1, "H2": 2}


def norm(f: GridFunction, kind: str) -> float:
    """Discrete Sobolev norms.

    L2 = sqrt(int f^2); H1, H2 stack derivative L2 norms in the Hilbertian
    (sum of squares) convention; Linf is the nodal max.  H1/H2 require
    n >= 5 for the endpoint stencils.
    """
    if kind == "Linf":
        return float(np.abs(f.values).max())
    if kind not in _RUNGS:
        raise ValueError(f"unknown norm kind {kind!r}")
    rung = _RUNGS[kind]
    if rung and f.n < 5:
        raise StencilTooSmall(f"{kind} norm needs at least 5 nodes")
    return float(_ladder(f.values, f.spacing, rung)[-1])


def _ladder(v: np.ndarray, h, top: int, first: np.ndarray | None = None,
            second: np.ndarray | None = None) -> np.ndarray:
    # the [L2, H1, H2] norms up to rung ``top`` (0, 1 or 2), one a row, of a
    # row or of each row of a block: the roots of the running sums of the
    # squared integrals of v and its differences, so a caller that needs two
    # norms of one function forms each integral once.  ``first`` and
    # ``second``, when given, are the caller's differences of v, read
    # instead of differencing again
    rungs = [v]
    totals = [_quadrature(v**2, h)]
    for given, difference in ((first, _first_difference),
                              (second, _second_difference))[:top]:
        rungs.append(difference(v, h) if given is None else given)
        totals.append(totals[-1] + _quadrature(rungs[-1]**2, h))
    roots = np.sqrt(totals)
    if not np.isfinite(roots).all():
        for d in rungs:
            _check_squares(d, h)
    return roots


def _check_squares(d: np.ndarray, h) -> None:
    # d holds finite grid values or their differences.  A sum of finite
    # squares may overflow to inf; a square or a difference that overflows
    # is an error, told apart only once a total is not finite
    sq = d**2
    if not np.isfinite(_quadrature(sq, h)).all() and not np.isfinite(sq).all():
        if not np.isfinite(d).all():
            raise ValueError("norm overflows: a difference quotient of the "
                             "finite grid values exceeds the float range")
        raise ValueError(f"norm overflows: the square of {np.abs(d).max():.3g}, "
                         "a finite value or difference quotient, exceeds the "
                         "float range")


def cumulative_integral(f: GridFunction) -> GridFunction:
    """Running integral from the left endpoint, local-quadratic rule.

    The result vanishes at the left endpoint and differentiating it
    recovers the integrand to second order away from the endpoints.
    Exact for quadratic integrands up to rounding.  Bit-identical to scipy's
    ``cumulative_simpson(v, dx=h, initial=0.0)``, whose arithmetic it
    repeats operation by operation.
    """
    return _fresh(f.interval, _running_integral(f.values, f.spacing))


def _running_integral(v: np.ndarray, h) -> np.ndarray:
    third = h / 3
    cells = np.empty(v.shape[:-1] + (v.shape[-1] - 1,))
    # cell i integrates the quadratic through nodes i..i+2 (even i) or
    # i-1..i+1 (odd i and the last cell)
    a, b, c = v[..., :-2:2], v[..., 1:-1:2], v[..., 2::2]
    np.multiply(_column(third), 5 * a / 4 + 2 * b - c / 4, out=cells[..., :-1:2])
    np.multiply(_column(third), 5 * c / 4 + 2 * b - a / 4, out=cells[..., 1::2])
    e = v.T
    cells.T[-1] = third * (5 * e[-1] / 4 + 2 * e[-2] - e[-3] / 4)
    out = np.zeros(v.shape)
    np.cumsum(cells, axis=-1, out=out[..., 1:])
    out[..., 1:] += 0.0      # scipy adds the initial value, so no -0.0 survives
    return out


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point end derivative, zeroed or capped at 3*m0 to
    # keep the end cell's shape (Moler, Numerical Computing with MATLAB)
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(f: GridFunction, x: np.ndarray) -> np.ndarray:
    """Evaluate the monotone cubic interpolant of ``f`` at ``x``.

    The interpolant is the piecewise cubic Hermite spline of Fritsch and
    Carlson (SIAM J. Numer. Anal. 17, 1980).  Its node derivatives are the
    weighted harmonic mean of the two neighbouring slopes, zero at sign
    changes and flats, with a one-sided three-point rule at the ends.
    Queries outside the interval extrapolate the end cubics.

    The arithmetic repeats scipy's ``PchipInterpolator`` operation by
    operation, so the values are bit-identical to it.  What it drops is
    generic: input validation, the binary search for the cell (the grid is
    uniform, so one division and a one-step correction find it) and the
    4 x (n - 1) coefficient table.  Temporaries share buffers, since on
    large grids touching fresh memory costs more than the arithmetic.
    ``_pchip``, the kernel a sweep runs on a block of rows, runs it as a
    block of one row with the queries in one row.
    """
    x = np.asarray(x, dtype=float)
    return _pchip(f.values[None], f.nodes, f.interval, x.reshape(1, -1)).reshape(x.shape)


def _pchip(y: np.ndarray, nodes: np.ndarray, interval: Interval, x: np.ndarray,
           kept: dict | None = None) -> np.ndarray:
    # pchip of a block: y holds k rows of samples at the uniform nodes of
    # interval, (k, n), and x a row of queries for each, (k, q).  The result
    # is a fresh (k, q) array.  Every temporary is made anew and freed once
    # it is spent, so large rows hold few at a time.  A sweep passes kept, a
    # dict it holds for all its deltas, and it keeps the grid-only values
    # there by (interval, n): the gaps and the harmonic weights, made at the
    # grid's first block where the call without kept makes them.  Made
    # together at the top, they moved the heap so that a warm rate_l2_h1
    # sweep faulted 14,900 pages instead of 1,844.  Without kept the weights
    # are written to the temporaries t, tmp and d, which the means then
    # overwrite.
    #
    # The per-node arrays are laid out as (k, n) rows, so the stencils read
    # their neighbours through views of the flat rows shifted by one entry
    # (a guard entry ends each buffer) and every operation runs on whole
    # contiguous rows: NumPy takes twice as long over the rows of a
    # column-sliced block.  An entry that mixes two rows is never read: the
    # slopes' last column and the means at the row ends are overwritten or
    # padding, and the grid-only weights carry padding at the row ends
    n = nodes.size
    rows, size = y.shape, y.size
    grid = None if kept is None else kept.get((interval, n))
    # the gaps of a linspace differ in the last bit, so no constant step
    h = _gaps(nodes) if grid is None else grid[0]
    # slopes m_i, i < n - 1, in row entries 0..n-2; slopes[i - 1] is m_{i-1}
    slopes = np.empty(size + 1)
    slopes[0] = slopes[-1] = 0.0
    m, m_before = slopes[1:].reshape(rows), slopes[:-1].reshape(rows)
    np.subtract(y.reshape(-1)[1:], y.reshape(-1)[:-1], out=slopes[1:-1])
    m /= h

    # interior derivatives: 1/d_i = (w1/m_{i-1} + w2/m_i)/(w1 + w2) with
    # w1 = 2h_i + h_{i-1}, w2 = h_i + 2h_{i-1}; zero unless m_{i-1}, m_i
    # are nonzero and of one sign (a tiny slope overflows w/m to inf, and
    # 1/inf = 0 is the mean's limit).  d_{i+1} is derivs[i + 1]
    derivs = np.empty(size + 1)
    derivs[-1] = 0.0
    d, d_after = derivs[:-1].reshape(rows), derivs[1:].reshape(rows)
    t, tmp = np.empty(rows), np.empty(rows)
    if kept is None:
        w1, w2, total = _harmonic_weights(h, t, tmp, d)
    else:
        if grid is None:
            grid = kept[interval, n] = (h, *_harmonic_weights(
                h, np.empty(n), np.empty(n), np.empty(n)))
        _, w1, w2, total = grid
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mean = np.divide(w1, m_before, out=t)
        mean += np.divide(w2, m, out=tmp)
        mean /= total
        np.divide(1.0, mean, out=d)
    del w1, w2, total, mean
    signs = np.empty(size + 1, bool), np.empty(size + 1, bool)
    zero = np.empty(rows, bool)
    for sign, test in zip(signs, (np.greater, np.less)):
        sign[0] = False
        test(m, 0.0, out=sign[1:].reshape(rows))
    up, down = (sign[1:].reshape(rows) for sign in signs)
    up_before, down_before = (sign[:-1].reshape(rows) for sign in signs)
    np.logical_and(up, up_before, out=zero)
    zero |= np.logical_and(down, down_before, out=up)
    np.logical_not(zero, out=zero)
    np.copyto(d, 0.0, where=zero)
    del signs, up, down, up_before, down_before, zero
    d.T[0] = _end_slopes(float(h[0]), float(h[1]), m.T[0], m.T[1])
    d.T[-1] = _end_slopes(float(h[-2]), float(h[-3]), m.T[-2], m.T[-3])

    # Hermite cell coefficients of cell i, in place of the slopes:
    # t = (d_i + d_{i+1} - 2m_i)/h_i, cubic t/h_i, quadratic (m_i - d_i)/h_i - t
    np.add(d, d_after, out=t)
    t -= np.multiply(m, 2.0, out=tmp)
    del tmp
    t /= h
    c1 = m
    c1 -= d
    c1 /= h
    c1 -= t
    c0 = t
    c0 /= h
    del h

    # cell i with nodes[i] <= x < nodes[i+1], the last cell closed and the
    # end cells extended beyond the interval; rounding can put the estimate
    # one cell off, and the two comparisons undo that
    out = np.subtract(x, interval.lo)
    out *= (n - 1) / interval.length()
    np.clip(out, 0, n - 2, out=out)
    i = np.empty(x.shape, np.intp)
    np.copyto(i, out, casting="unsafe")    # truncation is the floor once clipped at 0
    left = np.less(x, np.take(nodes, i, out=out, mode="clip"),
                   out=np.empty(x.shape, bool))
    i += np.greater_equal(x, np.take(nodes[1:], i, out=out, mode="clip"),
                          out=np.empty(x.shape, bool))
    i -= left
    del left
    np.clip(i, 0, n - 2, out=i)

    # power form ((y_i + d_i s) + c1 s^2) + c0 s^2 s in s = x - nodes[i]; the
    # sum starts from 0.0 as scipy's does, so it never returns -0.0.  The
    # indices are in range: mode="clip" only spares np.take a buffered copy
    s = np.subtract(x, np.take(nodes, i, out=out, mode="clip"), out=np.empty(x.shape))
    del nodes
    # row j's entries start at j * n in the flat rows
    i += n * np.arange(rows[0])[:, None]
    np.take(y, i, out=out, mode="clip")
    out += 0.0
    term = np.take(d, i, out=np.empty(x.shape), mode="clip")
    term *= s
    out += term
    z = np.multiply(s, s, out=np.empty(x.shape))
    np.take(c1, i, out=term, mode="clip")
    term *= z
    out += term
    z *= s
    np.take(c0, i, out=term, mode="clip")
    term *= z
    out += term
    return out


def _gaps(nodes: np.ndarray) -> np.ndarray:
    # the node gaps h_i, i < n - 1, and a 1.0 of padding that ends the row
    h = np.empty(nodes.size)
    np.subtract(nodes[1:], nodes[:-1], out=h[:-1])
    h[-1] = 1.0
    return h


def _harmonic_weights(h: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                      total: np.ndarray) -> tuple:
    # pchip's grid-only weights of node i's harmonic mean, written to rows
    # the length of the padded gaps h: w1 = 2h_i + h_{i-1},
    # w2 = h_i + 2h_{i-1} and their sum; the end nodes get padding
    np.multiply(h, 2.0, out=w1)
    w1[..., 1:] += h[:-1]
    w1[..., 0] = 1.0
    np.multiply(h[:-1], 2.0, out=w2[..., 1:])
    w2[..., 1:] += h[1:]
    w2[..., 0] = 1.0
    np.add(w1, w2, out=total)
    return w1, w2, total


def _end_slopes(h0: float, h1: float, m0: np.ndarray, m1: np.ndarray) -> list:
    # _edge_slope of each row's end slopes
    return [_edge_slope(h0, h1, a, b) for a, b in zip(m0.tolist(), m1.tolist())]


def invert_monotone(c: CurveComposite, z) -> np.ndarray:
    """Invert the piecewise-linear extension of an increasing composite.

    The inverse of a piecewise-linear increasing map is the piecewise-linear
    interpolant of the swapped samples, so one ``np.interp`` pass solves
    each linear piece exactly: |forward(s) - z| <= 1e-12 * max(1, |z|), a
    sample value maps back to exactly its node, and the result (an array,
    also for a scalar z) increases with z.  ``np.interp`` starts each search
    from the previous query's cell, so sorted queries cost O(1) each.
    Raises OutOfRange for infinite queries and for queries outside the
    sampled image beyond the same tolerance; in-tolerance overshoot is
    clamped to the end node, and a NaN query maps to NaN.  Both bounds
    z -/+ 1e-12 * max(1, |z|) grow with z, so only the smallest and the
    largest query are compared.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    im = c.image()
    queried = ~np.isnan(z_arr)   # NaN queries pass the rule
    lo = float(z_arr.min(initial=np.inf, where=queried))
    hi = float(z_arr.max(initial=-np.inf, where=queried))
    # an infinite query's tolerance is infinite too, so it is ruled out first
    if (lo == -math.inf or hi == math.inf
            or lo < im.lo - _FP_SLACK * max(1.0, abs(lo))
            or hi > im.hi + _FP_SLACK * max(1.0, abs(hi))):
        raise OutOfRange(f"query outside sampled image [{im.lo:.6g}, {im.hi:.6g}]; "
                         "intersect intervals before inverting")
    return np.interp(z_arr, c.forward.values, c.forward.nodes)


def solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Solve the system with sub-, main and superdiagonals ``dl``, ``d``,
    ``du`` by LAPACK's ``gtsv`` (which ``solve_banded`` calls for one band
    each side) in place and unchecked: all four must be finite, contiguous
    floats the caller has just built; the solution overwrites ``b``.

    ``gtsv`` is scipy's own wrapper, ``scipy.linalg.lapack.dgtsv``, taken
    from the extension module ``scipy/linalg/_flapack`` without importing
    the ``scipy.linalg`` package, which saves about 0.3 s and 18 MB in
    every process."""
    *_, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise SingularSystem("singular matrix")
    return x


def sup_bound_check(f: GridFunction) -> tuple[float, float]:
    """Return (sup norm, C * max(3, 2|J|+1) * H1 norm) for the embedding
    inequality check; the contract is lhs <= rhs."""
    if f.n < 5:
        raise StencilTooSmall("sup bound check needs at least 5 nodes")
    lhs, rhs = _sup_bound(f.values, f.interval.length(), f.spacing)
    return float(lhs), float(rhs)


def _sup_bound(v: np.ndarray, length, h) -> tuple:
    # sup_bound_check's two sides for a row or for each row of a block on
    # intervals of the given lengths (a float or one per row)
    c_j = SUP_EMBED_C * np.maximum(3.0, 2.0 * length + 1.0)
    return np.abs(v).max(axis=-1), c_j * _ladder(v, h, 1)[1]
