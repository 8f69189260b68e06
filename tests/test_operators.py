import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tracereg.datagen import ProblemSpec, make_noisy, make_problem
from tracereg.errors import ImageMismatch, StencilTooSmall
from tracereg.func1d import (_FP_SLACK, UNIT, CurveComposite, GridFunction,
                             Interval, derivative, invert_monotone, norm,
                             pchip, second_derivative)
from tracereg.intervals import intersect_images
from tracereg.operators import (apply_L, apply_T1, apply_T2alpha, apply_T3,
                                apply_T3eps_pinv, extend_by_zero, project_W)
from tracereg.regularizer import Mode, RegularizationParams, _effective_rows, _rows_of


def gf(fn, n=2001, interval=UNIT):
    return GridFunction(interval, fn(interval.grid(n)))


# ------------------------------------------------------------ T1

def test_t1_zero():
    out = apply_T1(gf(lambda x: 0.0 * x))
    assert np.abs(out.values).max() == 0.0


def test_t1_constant_and_sandwich_instance():
    w = gf(lambda x: np.ones_like(x))
    t1w = apply_T1(w)
    assert np.abs(t1w.values - t1w.nodes).max() < 1e-12
    # norm sandwich instance: 1 <= ||x||_H1 = sqrt(4/3) <= 2
    assert norm(w, "L2") <= norm(t1w, "H1") * (1 + 1e-9)
    assert norm(t1w, "H1") <= 2.0 * norm(w, "L2")


def test_t1_linear_integrand():
    out = apply_T1(gf(lambda t: 1.0 - t))
    x = out.nodes
    assert np.abs(out.values - (x - x**2 / 2)).max() < 1e-10


# ------------------------------------------------------------ T2^alpha

def test_t2alpha_constant():
    w = gf(lambda x: np.ones_like(x))
    assert np.abs(apply_T2alpha(0.1, w).values - 1.0).max() < 1e-9


def test_t2alpha_quadratic():
    w = gf(lambda x: x**2)
    out = apply_T2alpha(0.1, w)
    assert np.abs(out.values - (w.nodes**2 - 0.2)).max() < 1e-7


def test_t2alpha_annihilates_null_space():
    alpha = 0.25
    x = gf(lambda t: 1.0 + 0.5 * t)
    lx = apply_L(alpha, x)
    out = apply_T2alpha(alpha, lx)
    assert norm(out, "Linf") <= 1e-5 * max(norm(lx, "Linf"), 1.0)


def test_t2alpha_norm_bound():
    # the tight chain is ||w - a w''|| <= ||w|| + a ||w''||; against the
    # Hilbertian H2 norm this costs the l1->l2 factor sqrt(1 + a^2)
    rng = np.random.default_rng(0)
    for alpha in (0.5, 0.05):
        for _ in range(20):
            coef = rng.normal(size=3)
            w = gf(lambda x: coef[0] + coef[1] * np.sin(3 * x) + coef[2] * x**2)
            out = norm(apply_T2alpha(alpha, w), "L2")
            tight = norm(w, "L2") + alpha * norm(second_derivative(w), "L2")
            assert out <= tight * (1 + 1e-6)
            assert out <= np.sqrt(1 + alpha**2) * norm(w, "H2") * (1 + 1e-6)


def test_t2alpha_guards():
    with pytest.raises(ValueError):
        apply_T2alpha(1.5, gf(lambda x: x))
    with pytest.raises(StencilTooSmall):
        apply_T2alpha(0.1, GridFunction(UNIT, np.array([0.0, 1.0, 2.0, 1.0])))


# ------------------------------------------------------------ L and id - L

def test_L_vanishes_on_constrained_functions():
    # w(0) = 0 and w'(1) = 0
    w = gf(lambda t: np.sin(np.pi * t / 2.0))
    lw = apply_L(0.25, w)
    assert norm(lw, "Linf") <= 1e-6


def test_L_constant_input_matches_hyperbolic_oracle():
    x = gf(lambda t: np.ones_like(t))
    lx = apply_L(0.25, x)
    t = x.nodes
    oracle = np.cosh(2.0 * (t - 1.0)) / np.cosh(2.0)
    assert np.abs(lx.values - oracle).max() < 1e-6


def test_L_null_space_identity():
    rng = np.random.default_rng(1)
    for alpha in (0.25, 0.04):
        coef = rng.normal(size=3)
        x = gf(lambda t: coef[0] + coef[1] * t + coef[2] * np.sin(2 * t))
        lx = apply_L(alpha, x)
        res = alpha * second_derivative(lx).values - lx.values
        scale = max(norm(lx, "Linf"), 1e-12)
        h = x.spacing
        assert np.abs(res[1:-1]).max() <= 10.0 * h**2 * scale / alpha


def test_projection_boundary_values():
    x = gf(lambda t: 2.0 + np.cos(3.0 * t))
    w = project_W(0.1, x)
    assert abs(w.values[0]) < 1e-12
    assert abs(derivative(w).values[-1]) < 1e-10 * norm(x, "H2")


def test_projection_idempotent():
    x = gf(lambda t: 1.0 - t + np.sin(4.0 * t))
    w = project_W(0.07, x)
    w2 = project_W(0.07, w)
    assert norm(w2 - w, "Linf") <= 1e-10 * max(1.0, norm(w, "Linf"))


def test_projection_fixes_constrained_functions():
    w = gf(lambda t: np.sin(np.pi * t / 2.0))
    out = project_W(0.25, w)
    assert norm(out - w, "Linf") <= 1e-6


def written_out_L(alpha, x):
    # apply_L's formula written out
    g0, g1 = x.interval.lo, x.interval.hi
    t, h, v = x.nodes, x.spacing, x.values
    ra = np.sqrt(alpha)
    b = (g1 - g0) / ra
    damp = 1.0 + np.exp(-2.0 * b)
    u = (t - g0) / ra
    s = ra * ((np.exp(u - b) - np.exp(-u - b)) / damp)
    u = np.abs((t - g1) / ra)
    c = (np.exp(u - b) + np.exp(-u - b)) / damp

    def right_slope(r):
        return (3.0 * r[-1] - 4.0 * r[-2] + r[-3]) / (2.0 * h)

    c1 = (right_slope(v) - v[0] * right_slope(c)) / right_slope(s)
    return c1 * s + v[0] * c


ENDS = st.one_of(
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.05, 20.0)).map(
        lambda p: (p[0], p[0] + p[1])),
    st.tuples(st.sampled_from((0.0, -0.0)), st.floats(0.05, 10.0)),
    st.tuples(st.floats(0.05, 10.0), st.sampled_from((0.0, -0.0))).map(
        lambda p: (-p[0], p[1])))


@settings(max_examples=25, deadline=None)
@given(keys=st.lists(st.tuples(st.floats(1e-4, 0.9), ENDS, st.integers(5, 2001)),
                     min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_L_is_the_formula_written_out(keys, seed):
    rng = np.random.default_rng(seed)
    for alpha, (lo, hi), n in keys:
        x = GridFunction(Interval(lo, hi), rng.normal(size=n))
        assert apply_L(alpha, x).values.tobytes() == written_out_L(alpha, x).tobytes()


# ------------------------------------------------------------ T3

def identity_composite(n=2001):
    return CurveComposite(gf(lambda s: s, n), 1.0, 1.0)


def test_t3_constant():
    out = apply_T3(identity_composite(), gf(lambda z: np.ones_like(z)))
    assert np.abs(out.values - 1.0).max() < 1e-12


def test_t3_identity_composite():
    out = apply_T3(identity_composite(), gf(lambda z: z**2))
    assert np.abs(out.values - out.nodes**2).max() < 1e-10


def test_t3_curved_composite_matches_composition():
    c = CurveComposite(gf(lambda s: (s + 0.3 * s**2) / 1.3, 2001),
                       1.0 / 1.3, 1.6 / 1.3)
    zeta = gf(lambda z: np.sin(2.0 * z))
    out = apply_T3(c, zeta)
    oracle = np.sin(2.0 * c.forward.values)
    assert np.abs(out.values - oracle).max() < 1e-6


def test_t3_image_mismatch():
    c = CurveComposite(gf(lambda s: 2.0 * s, 101), 2.0, 2.0)
    with pytest.raises(ImageMismatch):
        apply_T3(c, gf(lambda z: z, 101))


# ------------------------------------------------------------ T3 pinv

def test_pinv_zero_data():
    c = identity_composite()
    common = intersect_images(c, c, eta=0.0)
    out = apply_T3eps_pinv(c, common, gf(lambda s: 0.0 * s), common)
    assert np.abs(out.values).max() == 0.0


def test_pinv_identity_composite():
    c = identity_composite()
    common = intersect_images(c, c, eta=0.0)
    f = gf(lambda s: s - s**2 / 2)
    out = apply_T3eps_pinv(c, common, f, common)
    z = out.nodes
    assert np.abs(out.values - (z - z**2 / 2)).max() < 1e-10


def test_pinv_curved_composite():
    c = CurveComposite(gf(lambda s: s * (s + 0.2) / 1.2, 4001),
                       0.2 / 1.2, 2.2 / 1.2)
    common = intersect_images(c, c, eta=0.0)
    # data generated by composing a known zeta with the composite
    zeta_true = lambda z: np.cos(1.5 * z)
    f = GridFunction(UNIT, zeta_true(c.forward.values))
    out = apply_T3eps_pinv(c, common, f, common)
    assert np.abs(out.values - zeta_true(out.nodes)).max() < 1e-6


def test_pinv_norm_bound():
    c = CurveComposite(gf(lambda s: (s + 0.3 * s**2) / 1.3, 2001),
                       1.0 / 1.3, 1.6 / 1.3)
    common = intersect_images(c, c, eta=0.0)
    f = gf(lambda s: np.sin(3.0 * s) + 0.2)
    out = apply_T3eps_pinv(c, common, f, common)
    c_hi = 1.6 / 1.3    # C'_g C'_gamma of this composite
    assert norm(out, "L2") <= np.sqrt(2.0 * c_hi) * norm(f, "L2") * (1 + 1e-6)


# ------------------------------------------------------------ extension

def test_extend_identity():
    z = gf(lambda x: np.sin(x), 501)
    out = extend_by_zero(z, UNIT)
    assert np.abs(out.values - z.values).max() < 1e-12


def test_extend_indicator_mass():
    src = Interval(0.1, 0.9)
    z = GridFunction(UNIT, np.ones_like(UNIT.grid(2001)))
    out = extend_by_zero(z, src)
    assert norm(out, "L2") ** 2 == pytest.approx(0.8, abs=5e-3)
    assert out.values[0] == 0.0 and out.values[-1] == 0.0


def test_extend_mismatch():
    z = GridFunction(UNIT, UNIT.grid(101))
    with pytest.raises(ImageMismatch):
        extend_by_zero(z, Interval(-0.5, 0.5))


# [1e6, 1e6 + 1]: the containment tolerance there is _FP_SLACK * 1e6 = 1e-6
FAR = Interval(1e6, 1e6 + 1.0)


def t3_overshooting(over):
    # the composite's image FAR leaves zeta's interval by ``over`` at lo
    c = CurveComposite(GridFunction(UNIT, FAR.grid(11)), 1.0, 1.0)
    return apply_T3(c, GridFunction(Interval(FAR.lo + over, FAR.hi), np.arange(11.0)))


def extension_overshooting(over):
    # the source leaves the target FAR by ``over`` at lo
    return extend_by_zero(GridFunction(FAR, np.arange(11.0)), Interval(FAR.lo - over, FAR.hi))


@pytest.mark.parametrize("call, prefix", [
    (t3_overshooting, "composite image [1e+06, 1e+06] is not contained in [1e+06, 1e+06]"),
    (extension_overshooting, "source [1e+06, 1e+06] not contained in target [1e+06, 1e+06]")],
    ids=["apply_T3", "extend_by_zero"])
def test_containment_tolerance_scales_with_the_ends(call, prefix):
    # off unit scale an overshoot inside the relative tolerance passes, and
    # one beyond it fails with a message that tells the ends' gap apart
    call(5e-7)
    with pytest.raises(ImageMismatch,
                       match=re.escape(f"{prefix}: overshoot 5e-06, tolerance 1e-06")):
        call(5e-6)


@pytest.mark.parametrize("lo", [1e3, -1e6])
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_t3_containment_tolerance_is_relative_to_the_interval(lo, side):
    # zeta lives on [lo, lo + 1] and the composite's image leaves it at one
    # end: half the tolerance _FP_SLACK * max(1, |lo|, |hi|) passes, twice
    # it fails
    zeta = GridFunction(Interval(lo, lo + 1.0), np.arange(11.0))
    tol = _FP_SLACK * max(1.0, abs(lo), abs(lo + 1.0))

    def composed(over):
        ends = (lo - over, lo + 1.0) if side == "lo" else (lo, lo + 1.0 + over)
        c = CurveComposite(GridFunction(UNIT, Interval(*ends).grid(11)), 0.5, 2.0)
        return apply_T3(c, zeta)

    composed(0.5 * tol)
    with pytest.raises(ImageMismatch):
        composed(2.0 * tol)


def test_extend_converges_as_source_grows():
    # as the cut interval approaches the target, the extension converges
    prev = np.inf
    target_fn = lambda x: np.cos(x)
    full = GridFunction(UNIT, target_fn(UNIT.grid(1001)))
    for margin in (0.05, 0.02, 0.01, 0.005):
        src = Interval(margin, 1.0 - margin)
        out = extend_by_zero(full, src)
        gap = norm(out - full, "L2")
        assert gap < prev
        prev = gap


def test_extend_cut_weights():
    # h = 0.1; the dual cells of nodes 0.2 and 0.8 are 30% inside the source
    z = GridFunction(UNIT, np.full(11, 2.0))
    out = extend_by_zero(z, Interval(0.22, 0.78))
    assert np.all(out.values[:2] == 0.0) and np.all(out.values[9:] == 0.0)
    assert out.values[2] == pytest.approx(0.6, rel=1e-12)
    assert out.values[8] == pytest.approx(0.6, rel=1e-12)
    assert np.all(out.values[3:8] == 2.0)


def test_extend_zero_width_cells():
    # a step of one double spacing: x +- h/2 ties back to x at the nodes of
    # even mantissa, so their dual cells have zero width; such a node keeps
    # its value inside the source and is cut outside
    z = GridFunction(Interval(1.0, 1.0 + 8 * np.spacing(1.0)), np.full(9, 2.0))
    out = extend_by_zero(z, Interval(z.nodes[2], z.nodes[6]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0, 0.0])


def full_cut_weights(target, n, source):
    # the covered fraction of every node's dual cell, computed at all nodes
    x = target.grid(n)
    h = (target.hi - target.lo) / (n - 1)
    cell_lo = np.maximum(x - 0.5 * h, target.lo)
    cell_hi = np.minimum(x + 0.5 * h, target.hi)
    covered = np.clip(np.minimum(cell_hi, source.hi)
                      - np.maximum(cell_lo, source.lo), 0.0, None)
    with np.errstate(invalid="ignore"):
        return covered / (cell_hi - cell_lo)


def _edge(x, h, k, kind, ulps):
    # a node, or the lower or upper end of its dual cell, moved by ulps
    e = x[k] + {"node": 0.0, "cell_lo": -0.5 * h, "cell_hi": 0.5 * h}[kind]
    for _ in range(abs(ulps)):
        e = np.nextafter(e, np.inf if ulps > 0 else -np.inf)
    return float(e)


_EDGE = st.tuples(st.floats(0, 1), st.sampled_from(["node", "cell_lo", "cell_hi"]),
                  st.integers(-1, 1))


@settings(max_examples=60, deadline=None)
@given(lo=st.floats(-1e3, 1e3), length=st.floats(1e-3, 1e3),
       ulp_steps=st.one_of(st.none(), st.floats(0.5, 4.0)),
       n=st.integers(3, 2001), seed=st.integers(0, 2**32 - 1),
       lo_edge=_EDGE, hi_edge=_EDGE)
def test_extend_matches_full_cut_weights(lo, length, ulp_steps, n, seed,
                                         lo_edge, hi_edge):
    if ulp_steps is not None:
        # a grid step near the spacing of doubles, where dual cells can
        # round to zero width
        length = ulp_steps * (n - 1) * np.spacing(max(abs(lo), 1.0))
    target = Interval(lo, lo + length)
    x = target.grid(n)
    h = (target.hi - target.lo) / (n - 1)
    (p, kind_lo, ulps_lo), (q, kind_hi, ulps_hi) = lo_edge, hi_edge
    e_lo = _edge(x, h, int(p * (n - 1)), kind_lo, ulps_lo)
    e_hi = _edge(x, h, int(q * (n - 1)), kind_hi, ulps_hi)
    source_lo, source_hi = max(min(e_lo, e_hi), target.lo), min(max(e_lo, e_hi), target.hi)
    assume(source_lo < source_hi)
    source = Interval(source_lo, source_hi)
    z = GridFunction(target, np.random.default_rng(seed).normal(size=n))
    out = extend_by_zero(z, source).values
    ref = z.values * full_cut_weights(target, n, source)
    finite = np.isfinite(ref)
    assert np.array_equal(out[finite].view(np.uint64), ref[finite].view(np.uint64))
    inside = (source.lo <= x) & (x <= source.hi)
    assert np.array_equal(out[~finite], np.where(inside, z.values, 0.0)[~finite])


def _two_pass_stage1(c_eps, common, f, target, n):
    # the pullback onto the common interval's grid, then a pchip resample
    # of it onto the target grid times the cut weights
    s = invert_monotone(c_eps, common.grid(n))
    pulled = GridFunction(common, pchip(f, np.clip(s, 0.0, 1.0)))
    vals = pchip(pulled, np.clip(target.grid(n), common.lo, common.hi))
    return vals * full_cut_weights(target, n, common)


@pytest.mark.parametrize("a0, seed", [("linear", 0), ("linear", 4), ("cosine", 3)])
def test_fused_stage1_matches_two_pass_on_c1(a0, seed):
    problem = make_problem(ProblemSpec(a0=a0, n=401))
    noisy = make_noisy(problem, "C1", 1e-3, 1e-3, seed)
    # the C1 composite stage 1 builds from the perturbed samples: their
    # bracket on a block of one
    _, lo, hi = _effective_rows(problem, next(_rows_of(problem, [noisy])),
                                RegularizationParams(alpha=1e-3, mode=Mode.NOISY_C1), [])
    eff = CurveComposite(noisy.g_perturbed, float(lo[0]), float(hi[0]),
                         problem.composite.bracket_atol)
    gap = float(np.abs(problem.composite.forward.values
                       - eff.forward.values).max())
    common = intersect_images(problem.composite, eff, eta=gap * (1 + 1e-12) + 1e-15)
    assert common == problem.interval
    fused = extend_by_zero(apply_T3eps_pinv(eff, common, noisy.f_perturbed,
                                            problem.interval),
                           common)
    old = _two_pass_stage1(eff, common, noisy.f_perturbed,
                           problem.interval, 401)
    # same bits at every node but the last, where the two-pass resample read
    # the end cubic at the far end of its cell instead of the node value
    assert np.array_equal(fused.values[:-1], old[:-1])
    assert abs(fused.values[-1] - old[-1]) <= 4 * np.finfo(float).eps * np.abs(old).max()

