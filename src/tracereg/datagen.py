"""Manufactured problems and noise injection.

A problem instance is built backwards from a chosen exact coefficient:
its antiderivative supplies the trace data through composition with the
boundary-curve map, so no forward PDE solve is needed and every
reconstruction error is measurable exactly.

Noise models: smooth C1 perturbations of the composite (sup gaps of value
and derivative both within eps), rough square-integrable perturbations
(nodewise uniform, scaled to the weighted L2 budget), and smooth trace
noise of prescribed L2 size on the flux data.  Each level enters only
through one final scale, so a seed's shapes are drawn once
(``draw_noise``) and scaled per noise level (``scale_noise``; a sweep
scales a block of seeds at once, ``_scaled_rows``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .func1d import (UNIT, CurveComposite, GridFunction, Interval, _fresh,
                     derivative, norm, pchip)
from .operators import apply_T1

# keeps the trace noise broadband relative to every boundary-layer width
# 1/sqrt(alpha) the rate presets reach (alpha >= 1e-6); perturb_flux sums
# the modes with one FFT of length 2(n - 1), so a draw costs O(n log n)
# whatever the mode count
_FLUX_MODES = 400
#: Largest supported magnitude of lo, hi, shift_c and each delta.  The data
#: and its derivatives scale with these and the error norms square them, so
#: this keeps every square (and its sum over the grid) finite.
MAX_MAGNITUDE = 1e100


@dataclass(frozen=True)
class A0Formula:
    fn: Callable[[np.ndarray], np.ndarray]
    end_value: float


def _pw_quad(u: np.ndarray) -> np.ndarray:
    # C1 piecewise quadratic, curvature jump at 1/2; value 0 and mean 0 on [0,1]
    left = 1.0 - 5.0 * u**2
    v = u - 0.5
    right = -0.25 - 5.0 * v + 11.0 * v**2
    return np.where(u <= 0.5, left, right)


#: Exact-coefficient formulas on the normalized coordinate u in [0, 1].
A0_FORMULAS: dict[str, A0Formula] = {
    "zero": A0Formula(lambda u: np.zeros_like(u), 0.0),
    "linear": A0Formula(lambda u: 1.0 - u, 0.0),
    "linear_plus2": A0Formula(lambda u: 3.0 - u, 2.0),
    "pw_quad": A0Formula(_pw_quad, 0.0),
    "cosine": A0Formula(
        lambda u: np.cos(1.5 * np.pi * u) + np.cos(0.5 * np.pi * u) / 3.0,
        0.0),
}


@dataclass(frozen=True)
class CompositeFormula:
    """Base curve onto [0, 1], strictly increasing, with analytic
    derivatives up to fourth order (stacked difference stencils are too
    noisy for the H4 seminorm the mesh gate consumes)."""

    fn: Callable[[np.ndarray], np.ndarray]
    derivs: tuple[Callable[[np.ndarray], np.ndarray], ...]
    deriv_lo: float
    deriv_hi: float


_PI = np.pi

COMPOSITE_FORMULAS: dict[str, CompositeFormula] = {
    "identity": CompositeFormula(
        lambda s: s,
        (lambda s: np.ones_like(s), lambda s: np.zeros_like(s),
         lambda s: np.zeros_like(s), lambda s: np.zeros_like(s)),
        1.0, 1.0),
    "quadratic": CompositeFormula(
        lambda s: (s + 0.3 * s**2) / 1.3,
        (lambda s: (1.0 + 0.6 * s) / 1.3, lambda s: np.full_like(s, 0.6 / 1.3),
         lambda s: np.zeros_like(s), lambda s: np.zeros_like(s)),
        1.0 / 1.3, 1.6 / 1.3),
    "sine_bend": CompositeFormula(
        lambda s: s + 0.1 * np.sin(_PI * s),
        (lambda s: 1.0 + 0.1 * _PI * np.cos(_PI * s),
         lambda s: -0.1 * _PI**2 * np.sin(_PI * s),
         lambda s: -0.1 * _PI**3 * np.cos(_PI * s),
         lambda s: 0.1 * _PI**4 * np.sin(_PI * s)),
        1.0 - 0.1 * _PI, 1.0 + 0.1 * _PI),
    # cubic bend: curvature grows toward the right endpoint while the
    # fourth derivative vanishes, so the mesh admissibility gate stays easy
    "cubic": CompositeFormula(
        lambda s: (s + 0.5 * s**3) / 1.5,
        (lambda s: (1.0 + 1.5 * s**2) / 1.5, lambda s: 2.0 * s,
         lambda s: np.full_like(s, 2.0), lambda s: np.zeros_like(s)),
        1.0 / 1.5, 5.0 / 3.0),
    "cubic_steep": CompositeFormula(
        lambda s: (s + s**3) / 2.0,
        (lambda s: (1.0 + 3.0 * s**2) / 2.0, lambda s: 3.0 * s,
         lambda s: np.full_like(s, 3.0), lambda s: np.zeros_like(s)),
        0.5, 2.0),
}


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for a manufactured instance; every field is checked here."""

    a0: str = "linear"
    composite: str = "identity"
    lo: float = 0.0
    hi: float = 1.0
    n: int = 2001
    c_end: float = 0.0

    def __post_init__(self) -> None:
        for key, table in (("a0", A0_FORMULAS),
                           ("composite", COMPOSITE_FORMULAS)):
            name = getattr(self, key)
            if name not in table:
                raise ConfigError(f"unknown {key} formula {name!r} "
                                  f"(choices: {sorted(table)})")
        lo, hi = self.lo, self.hi
        if not (abs(lo) <= MAX_MAGNITUDE and abs(hi) <= MAX_MAGNITUDE
                and lo < hi):
            raise ConfigError("lo and hi must satisfy lo < hi and lie in "
                              f"[-{MAX_MAGNITUDE:g}, {MAX_MAGNITUDE:g}], "
                              f"got {lo!r} and {hi!r}")
        if self.n < 3:
            raise ConfigError(f"n must be at least 3, got {self.n!r}")
        # below half the spacing of the doubles near the interval, n grid
        # values cannot all be distinct, so no composite samples monotonically
        top = max(abs(lo), abs(hi))
        if not (hi - lo) / (self.n - 1) >= 0.5 * np.spacing(top):
            raise ConfigError(f"lo and hi are too close for n = {self.n}: "
                              "the grid step is below half the spacing of "
                              f"doubles near {top:g}")
        end = A0_FORMULAS[self.a0].end_value
        if not abs(end - self.c_end) <= 1e-12 * max(1.0, abs(end)):
            raise ConfigError(f"c_end must equal the end value {end} of a0 "
                              f"formula {self.a0!r}, got {self.c_end!r}")


def squared_running_integral(s: np.ndarray, samples) -> np.ndarray:
    """Trapezoid running integral over the nodes ``s`` of the samples'
    summed squares, read-only."""
    sq = sum(arr**2 for arr in samples)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (sq[1:] + sq[:-1]) * np.diff(s))))
    cum.flags.writeable = False
    return cum


def cell_sup_norm(s: np.ndarray, running: np.ndarray, n_cells: int) -> float:
    """Root of the largest per-cell increment of the running integral over
    the nodes ``s`` of [0, 1], on a uniform mesh of ``n_cells`` cells."""
    breaks = np.linspace(0.0, 1.0, n_cells + 1)
    return float(np.sqrt(np.diff(np.interp(breaks, s, running)).max()))


@dataclass(frozen=True)
class ProblemInstance:
    """Exact triple (a0, b0, f) and the composite g o gamma.

    The bracket C_g <= |(g o gamma)'| <= C'_g lives only on ``composite``
    (``deriv_lo``, ``deriv_hi``).  There is no C_gamma: every composite is
    parametrized over [0, 1], so the curve's speed is folded into the
    bracket.  ``h4_running`` is the running integral of the composite's
    summed squared analytic first to fourth derivatives, whose per-cell
    increments are the squared H4 seminorms the mesh gate reads.  The
    values are left out: the projection reproduces constants, so the gate
    must not move with the interval.
    """

    interval: Interval
    a0: GridFunction
    b0: GridFunction
    composite: CurveComposite
    f: GridFunction
    h4_running: np.ndarray
    _h4_sups: dict[int, float] = field(default_factory=dict, init=False,
                                       repr=False, compare=False)

    def g_h4_cell_sup(self, n_cells: int) -> float:
        """Largest per-cell H4 seminorm of the composite on a uniform mesh."""
        if n_cells not in self._h4_sups:
            self._h4_sups[n_cells] = cell_sup_norm(self.composite.forward.nodes,
                                                   self.h4_running, n_cells)
        return self._h4_sups[n_cells]


@dataclass(frozen=True)
class NoisyData:
    """Perturbed samples of the composite and the trace data at composite
    noise level ``eps``.  The reconstruction mode, not the data, decides
    whether stage 1 reads ``g_perturbed`` as a C1 composite or projects it.
    """

    g_perturbed: GridFunction
    f_perturbed: GridFunction
    eps: float


class NoisyRows(NamedTuple):
    """Noisy data of a block of seeds on one problem's grids: row j of the
    (k, n) blocks ``g`` and ``f`` and entry j of ``eps`` are the
    ``g_perturbed`` values, the ``f_perturbed`` values and the ``eps`` of
    one seed's ``NoisyData``."""

    g: np.ndarray
    f: np.ndarray
    eps: np.ndarray


def make_problem(spec: ProblemSpec) -> ProblemInstance:
    """Synthesize the exact data for a chosen coefficient and composite."""
    interval = Interval(spec.lo, spec.hi)
    form = A0_FORMULAS[spec.a0]
    length = interval.length()
    t = interval.grid(spec.n)
    a0 = GridFunction(interval, form.fn((t - interval.lo) / length))

    # b0 = integral of a0 from the left endpoint; the constant part is
    # integrated exactly so a nonzero end value costs no quadrature error.
    b0 = apply_T1(a0 - spec.c_end) + spec.c_end * GridFunction(interval, t - interval.lo)

    comp_form = COMPOSITE_FORMULAS[spec.composite]
    s = UNIT.grid(spec.n)
    fwd = GridFunction(UNIT, interval.lo + length * comp_form.fn(s))
    # the derivative stencils miss by at most h^2/3 * sup|fwd'''|, which
    # exceeds the relative slack alone on coarse grids
    third = float(np.abs(length * comp_form.derivs[2](s)).max())
    stencil_err = fwd.spacing**2 / 3.0 * third
    composite = CurveComposite(fwd, deriv_lo=length * comp_form.deriv_lo,
                               deriv_hi=length * comp_form.deriv_hi,
                               bracket_atol=stencil_err)

    if spec.composite == "identity":
        f_vals = b0.values
    else:
        f_vals = pchip(b0, fwd.values)
    f = GridFunction(UNIT, f_vals)

    return ProblemInstance(
        interval=interval, a0=a0, b0=b0, composite=composite, f=f,
        h4_running=squared_running_integral(
            s, (length * dfn(s) for dfn in comp_form.derivs)))


@dataclass(frozen=True)
class SeedNoise:
    """One seed's unit noise shapes, drawn once and scaled per cell.

    ``shape`` is the composite noise: the normalized C1 bump ``phi``
    (``shape_norm`` is 1) or the raw nodewise L2 draw with its measured
    L2 norm.  ``flux`` is the raw trace-noise series with its measured L2
    norm.  ``scale_noise`` scales both at any (eps, delta), either kind alike.
    """

    shape: np.ndarray
    shape_norm: float
    flux: np.ndarray
    flux_norm: float


def perturb_C1(problem: ProblemInstance, seed: int) -> np.ndarray:
    """Unit bump for smooth composite noise: a seeded low-frequency sine
    combination normalized so the sup of its value and of its derivative
    is 1, hence eps times it stays within the W^{1,inf} budget eps; sine
    modes pin it at the parameter endpoints."""
    rng = np.random.default_rng([seed, 0])
    coef = rng.normal(size=3)
    s = problem.composite.forward.nodes
    phi = np.zeros_like(s)
    for k, c in enumerate(coef, start=1):
        phi += c * np.sin(k * np.pi * s)
    # normalize with the same stencil the composite constructor checks,
    # so the declared bracket [lo - eps, hi + eps] holds nodewise
    dphi = derivative(GridFunction(UNIT, phi)).values
    amp = max(np.abs(phi).max(), np.abs(dphi).max())
    phi /= amp
    return phi


def perturb_L2(problem: ProblemInstance, seed: int) -> tuple[np.ndarray, float]:
    """Rough composite noise: nodewise uniform draws and their L2 norm by
    the package's own quadrature.  Scaled by eps over that norm, the
    budget ||g_eps - g||_L2 = eps holds; no smoothness is guaranteed, so
    the perturbed composite is projected before use."""
    rng = np.random.default_rng([seed, 1])
    raw = rng.uniform(-1.0, 1.0, size=problem.composite.forward.n)
    return raw, norm(GridFunction(UNIT, raw), "L2")


def perturb_flux(problem: ProblemInstance, seed: int) -> tuple[np.ndarray, float]:
    """Smooth trace noise on the data f, and its L2 norm.

    A seeded random sine series sum_k c_k sin(k pi s + theta_k), k = 1..400,
    with normal c_k scaled by 1/sqrt(k), spreads the budget over many
    scales; scaled by delta over its measured norm, the L2 gap equals
    delta.

    On the grid s_j = j/N (N = n - 1) the series is the imaginary part of
    sum_k c_k e^{i theta_k} w^{kj} with w = e^{2 pi i/(2N)}, i.e. one
    inverse FFT of length 2N: O(n log n) time and O(n) memory.  Modes past
    the period 2N fold onto index k mod 2N, where w^{kj} takes the same
    values, so small grids need no special case.  The series is returned
    read-only, as a ``GridFunction``'s values are.
    """
    rng = np.random.default_rng([seed, 2])
    n = problem.f.n
    xi = rng.normal(size=_FLUX_MODES)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=_FLUX_MODES)
    k = np.arange(1, _FLUX_MODES + 1)
    period = 2 * (n - 1)
    spectrum = np.zeros(period, dtype=complex)
    np.add.at(spectrum, k % period, (xi / np.sqrt(k)) * np.exp(1j * theta))
    # the grid function's contiguous copy, not the strided view of the
    # transform's imaginary parts, which would hold all 2N complex values
    raw = GridFunction(UNIT, (period * np.fft.ifft(spectrum)).imag[:n])
    return raw.values, norm(raw, "L2")


def draw_noise(problem: ProblemInstance, kind: str, seed: int) -> SeedNoise:
    """One seed's composite noise of ``kind`` ("C1" or "L2") and trace
    noise, one independent stream each; levels are applied by
    ``scale_noise``."""
    if kind == "C1":
        shape, shape_norm = perturb_C1(problem, seed), 1.0
    elif kind == "L2":
        shape, shape_norm = perturb_L2(problem, seed)
    else:
        raise ConfigError(f"unknown noise kind {kind!r}")
    flux, flux_norm = perturb_flux(problem, seed)
    return SeedNoise(shape, shape_norm, flux, flux_norm)


def scale_noise(problem: ProblemInstance, noise: SeedNoise, eps: float,
                delta: float) -> NoisyData:
    """Noisy data at composite level eps and trace level delta.

    The noise must have been drawn on the problem's grid, and both levels
    must be finite and nonnegative.  Every level of either kind goes
    through one formula: a zero level adds only zeros, so its half of the
    data equals the exact data.  The reconstruction checks eps.  This is
    the block-of-one case of ``_scaled_rows``.
    """
    g, f, eps_row = _scaled_rows(problem, [noise], eps, delta)
    return NoisyData(_fresh(UNIT, g[0]), _fresh(UNIT, f[0]), float(eps_row[0]))


def _scaled_rows(problem: ProblemInstance, noises: Sequence[SeedNoise], eps: float,
                 delta: float) -> NoisyRows:
    # scale_noise of a block of seeds at one (eps, delta): the levels are
    # checked once, and row j of each block is the seed's scaled noise added
    # to the exact data, by scale_noise's arithmetic
    fwd, f = problem.composite.forward.values, problem.f.values
    if any((s.shape.size, s.flux.size) != (fwd.size, f.size) for s in noises):
        raise ValueError("grid mismatch: the noise was drawn on another grid")
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps!r}")
    eps += 0.0   # a negative zero is recorded as 0.0
    g_rows = np.empty((len(noises), fwd.size))
    for row, s in zip(g_rows, noises):
        np.add(fwd, (eps / s.shape_norm) * s.shape, out=row)
    if not np.isfinite(g_rows).all():
        raise ValueError("grid values must be finite")
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta!r}")
    f_rows = np.empty((len(noises), f.size))
    for row, s in zip(f_rows, noises):
        np.add(f, (delta / s.flux_norm) * s.flux, out=row)
    if not np.isfinite(f_rows).all():
        raise ValueError("grid values must be finite")
    return NoisyRows(g_rows, f_rows, np.full(len(noises), eps))


def make_noisy(problem: ProblemInstance, kind: str, eps: float, delta: float,
               seed: int) -> NoisyData:
    """Noisy data of one seed at levels (eps, delta): ``draw_noise`` then
    ``scale_noise``."""
    return scale_noise(problem, draw_noise(problem, kind, seed), eps, delta)
