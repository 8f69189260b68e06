"""Grid functions on a closed interval.

Everything downstream acts on uniformly sampled functions: quadrature,
Sobolev norms, differentiation, cumulative integration, inversion of
increasing sampled maps and tridiagonal solves. All types are immutable and
all operations pure, so values can be shared freely.
Values are checked where they enter: the public constructors copy and scan
the caller's array, the package's operations adopt the arrays they
allocate (``_fresh``: one scan, no copy).  ``GridFunction.nodes`` is a
shared read-only array; ``Interval.grid`` returns a fresh one.

The piecewise-linear interpolant of a sampled function is the authoritative
continuous extension wherever one is needed (images, inversion); the
monotone cubic of ``pchip`` is used only where explicitly documented
(compositions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import MonotonicityViolation, OutOfRange, SingularSystem, StencilTooSmall

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

    def contains(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol


UNIT = Interval(0.0, 1.0)


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=float).copy()
    out.flags.writeable = False
    return out


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
        object.__setattr__(self, "values", _freeze(self.values))
        _check_sample(self.values)

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


def _check_sample(values: np.ndarray, checked: bool = False) -> None:
    """Raise ValueError unless ``values`` is a 1-d sample of at least 3
    values, all finite (not scanned again when already ``checked``)."""
    if values.ndim != 1 or values.size < 3:
        raise ValueError("need a 1-d sample with at least 3 nodes")
    if not (checked or np.isfinite(values).all()):
        raise ValueError("grid values must be finite")


def _fresh(interval: Interval, values: np.ndarray,
           checked: bool = False) -> GridFunction:
    """Adopt a float array the caller has just allocated and keeps no other
    use for: no copy, one finiteness scan unless already ``checked``."""
    _check_sample(values, checked)
    values.flags.writeable = False
    f = object.__new__(GridFunction)
    f.__dict__.update(interval=interval, values=values)
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
        if not (0.0 < self.deriv_lo <= self.deriv_hi):
            raise ValueError("need 0 < deriv_lo <= deriv_hi")
        _check_strictly_increasing(self.forward.values)
        d = derivative(self.forward).values
        slack = _BRACKET_RTOL * self.deriv_hi + self.bracket_atol
        if d.min() < self.deriv_lo - slack or d.max() > self.deriv_hi + slack:
            raise MonotonicityViolation(
                "numerical derivative leaves the declared bracket "
                f"[{self.deriv_lo}, {self.deriv_hi}]: observed "
                f"[{d.min():.6g}, {d.max():.6g}]")

    @classmethod
    def _certified(cls, forward: GridFunction, lo: float, hi: float) -> "CurveComposite":
        # a composite over [0, 1] whose builder has certified the bracket
        _check_strictly_increasing(forward.values)
        c = object.__new__(cls)
        c.__dict__.update(forward=forward, deriv_lo=lo, deriv_hi=hi, bracket_atol=0.0)
        return c

    def image(self) -> Interval:
        """The samples' range, read off the ends: the constructors made the
        read-only samples strictly increasing, so no pass over them is needed."""
        return Interval(float(self.forward.values[0]), float(self.forward.values[-1]))

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """Evaluate the piecewise-linear extension of the samples."""
        return np.interp(s, self.forward.nodes, self.forward.values)


def _check_strictly_increasing(v: np.ndarray) -> None:
    if not np.all(v[1:] > v[:-1]):
        raise MonotonicityViolation("sampled composite is not strictly increasing")


def integrate(f: GridFunction) -> float:
    """Quadrature of the samples: composite Simpson when the node count is
    odd, Simpson plus a trapezoid tail cell when it is even.

    Exact (up to rounding) for polynomials of degree <= 2 sampled on an
    odd-n grid.
    """
    return _quadrature(f.values, f.spacing)


def _quadrature(v: np.ndarray, h: float) -> float:
    w = v if v.size % 2 else v[:-1]
    total = float(h / 3.0 * (w[0] + w[-1] + 4.0 * w[1:-1:2].sum() + 2.0 * w[2:-2:2].sum()))
    return total if v.size % 2 else total + 0.5 * h * (v[-2] + v[-1])


def derivative(f: GridFunction) -> GridFunction:
    """Second-order first derivative: central interior, one-sided at ends."""
    return _fresh(f.interval, _first_difference(f.values, f.spacing))


def _first_difference(v: np.ndarray, h: float) -> np.ndarray:
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = _right_slope(v, h)
    return d


def _right_slope(v: np.ndarray, h: float) -> float:
    return (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)


def second_derivative(f: GridFunction) -> GridFunction:
    """Second-order second derivative; 4-point one-sided stencils at ends."""
    if f.n < 5:
        raise StencilTooSmall("second derivative needs at least 5 nodes")
    return _fresh(f.interval, _second_difference(f.values, f.spacing))


def _second_difference(v: np.ndarray, h: float) -> np.ndarray:
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    d[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    d[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
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
    return _sobolev_ladder(f, _RUNGS[kind])[-1]


def _sobolev_ladder(f: GridFunction, top: int = 2,
                    first: np.ndarray | None = None) -> list[float]:
    """[L2, H1, H2] norms of ``f`` up to rung ``top`` (0, 1 or 2).

    Each rung adds one squared-derivative integral to the running total of
    the rung below, so a caller that needs two norms of one function forms
    each integral once.  ``first``, when given, is the caller's
    ``derivative(f).values``, read instead of differentiating again.
    """
    if top and f.n < 5:
        raise StencilTooSmall(f"{('H1', 'H2')[top - 1]} norm needs at least 5 nodes")
    v, h = f.values, f.spacing
    total = _square_integral(v, h)
    norms = [math.sqrt(max(total, 0.0))]
    if top >= 1:
        total += _square_integral(_first_difference(v, h) if first is None else first, h)
        norms.append(math.sqrt(max(total, 0.0)))
    if top == 2:
        total += _square_integral(_second_difference(v, h), h)
        norms.append(math.sqrt(max(total, 0.0)))
    return norms


def _square_integral(d: np.ndarray, h: float) -> float:
    # d holds finite grid values or their differences.  A sum of finite
    # squares may overflow to inf; a square or a difference that overflows
    # is an error, told apart only once the total is not finite
    sq = d**2
    total = _quadrature(sq, h)
    if not np.isfinite(total) and not np.isfinite(sq).all():
        if not np.isfinite(d).all():
            raise ValueError("norm overflows: a difference quotient of the "
                             "finite grid values exceeds the float range")
        raise ValueError(f"norm overflows: the square of {np.abs(d).max():.3g}, "
                         "a finite value or difference quotient, exceeds the "
                         "float range")
    return total


def cumulative_integral(f: GridFunction) -> GridFunction:
    """Running integral from the left endpoint, local-quadratic rule.

    The result vanishes at the left endpoint and differentiating it
    recovers the integrand to second order away from the endpoints.
    Exact for quadratic integrands up to rounding.  Bit-identical to scipy's
    ``cumulative_simpson(v, dx=h, initial=0.0)``, whose arithmetic it
    repeats operation by operation.
    """
    v, h = f.values, f.spacing
    third = h / 3
    cells = np.empty(v.size - 1)
    # cell i integrates the quadratic through nodes i..i+2 (even i) or
    # i-1..i+1 (odd i and the last cell)
    a, b, c = v[:-2:2], v[1:-1:2], v[2::2]
    np.multiply(third, 5 * a / 4 + 2 * b - c / 4, out=cells[:-1:2])
    np.multiply(third, 5 * c / 4 + 2 * b - a / 4, out=cells[1::2])
    cells[-1] = third * (5 * v[-1] / 4 + 2 * v[-2] - v[-3] / 4)
    out = np.zeros(v.size)
    np.cumsum(cells, out=out[1:])
    out[1:] += 0.0      # scipy adds the initial value, so no -0.0 survives
    return _fresh(f.interval, out)


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
    """
    x = np.asarray(x, dtype=float)
    y = f.values
    nodes = f.nodes
    n = f.n
    # the gaps of a linspace differ in the last bit, so no constant step
    h = np.diff(nodes)
    m = np.diff(y)
    m /= h

    # interior derivatives: 1/d_k = (w1/m_{k-1} + w2/m_k)/(w1 + w2) with
    # w1 = 2h_k + h_{k-1}, w2 = h_k + 2h_{k-1}; zero unless m_{k-1}, m_k
    # are nonzero and of one sign (a tiny slope overflows w/m to inf, and
    # 1/inf = 0 is the mean's limit)
    d = np.zeros(n)
    inner = d[1:-1]
    t = np.empty(n - 1)
    tmp = np.empty(n - 1)
    w1 = np.multiply(h[1:], 2.0, out=t[1:])
    w1 += h[:-1]
    w2 = np.multiply(h[:-1], 2.0, out=tmp[1:])
    w2 += h[1:]
    np.add(w1, w2, out=inner)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w1 /= m[:-1]
        w2 /= m[1:]
        w1 += w2
        w1 /= inner
        np.divide(1.0, w1, out=inner)
    del w1, w2
    up, down = m > 0.0, m < 0.0
    inner[~((up[1:] & up[:-1]) | (down[1:] & down[:-1]))] = 0.0
    del up, down
    d[0] = _edge_slope(float(h[0]), float(h[1]), float(m[0]), float(m[1]))
    d[-1] = _edge_slope(float(h[-1]), float(h[-2]), float(m[-1]), float(m[-2]))

    # Hermite cell coefficients of cell k, in place of the slopes:
    # t = (d_k + d_{k+1} - 2m_k)/h_k, cubic t/h_k, quadratic (m_k - d_k)/h_k - t
    np.add(d[:-1], d[1:], out=t)
    t -= np.multiply(m, 2.0, out=tmp)
    del tmp
    t /= h
    c1 = m
    c1 -= d[:-1]
    c1 /= h
    c1 -= t
    c0 = t
    c0 /= h
    del h

    # cell i with nodes[i] <= x < nodes[i+1], the last cell closed and the
    # end cells extended beyond the interval; rounding can put the estimate
    # one cell off, and the two comparisons undo that
    out = np.subtract(x, f.interval.lo)
    out *= (n - 1) / f.interval.length()
    np.clip(out, 0, n - 2, out=out)
    i = out.astype(np.intp)     # truncation is the floor once clipped at 0
    left = x < np.take(nodes, i, out=out, mode="clip")
    i[x >= np.take(nodes[1:], i, out=out, mode="clip")] += 1
    i[left] -= 1
    del left
    np.clip(i, 0, n - 2, out=i)

    # power form ((y_i + d_i s) + c1 s^2) + c0 s^2 s in s = x - nodes[i]; the
    # sum starts from 0.0 as scipy's does, so it never returns -0.0.  The
    # indices are in range: mode="clip" only spares np.take a buffered copy
    s = np.subtract(x, np.take(nodes, i, out=out, mode="clip"))
    del nodes
    np.take(y, i, out=out, mode="clip")
    out += 0.0
    term = np.take(d, i)
    term *= s
    out += term
    z = s * s
    np.take(c1, i, out=term, mode="clip")
    term *= z
    out += term
    z *= s
    np.take(c0, i, out=term, mode="clip")
    term *= z
    out += term
    return out


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
    if (lo == -np.inf or hi == np.inf
            or lo < im.lo - _FP_SLACK * max(1.0, abs(lo))
            or hi > im.hi + _FP_SLACK * max(1.0, abs(hi))):
        raise OutOfRange(
            f"query outside sampled image [{im.lo:.6g}, {im.hi:.6g}]; "
            "intersect intervals before inverting")
    return np.interp(z_arr, c.forward.values, c.forward.nodes)


def solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Solve the system with sub-, main and superdiagonals ``dl``, ``d``,
    ``du`` by LAPACK's ``gtsv`` (which ``solve_banded`` calls for one band
    each side) in place and unchecked: all four must be finite, contiguous
    floats the caller has just built; the solution overwrites ``b``."""
    *_, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise SingularSystem("singular matrix")
    return x


def sup_bound_check(f: GridFunction) -> tuple[float, float]:
    """Return (sup norm, C * max(3, 2|J|+1) * H1 norm) for the embedding
    inequality check; the contract is lhs <= rhs."""
    if f.n < 5:
        raise StencilTooSmall("sup bound check needs at least 5 nodes")
    length = f.interval.length()
    c_j = SUP_EMBED_C * max(3.0, 2.0 * length + 1.0)
    return norm(f, "Linf"), c_j * norm(f, "H1")
