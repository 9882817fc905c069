"""Constant-coefficient operator algebra, grid application, admissibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roitomo as rt
from roitomo import diffops
from roitomo.diffops import (
    PolyOp,
    apply_fd,
    compose,
    is_admissible,
    laplacian_power,
    partial_op,
    polyop_from_text,
    polyop_to_text,
    stencil_interior,
    symbol_eval,
    unit_op,
    zero_set_fraction,
)
from util import polyops


def _horner_oracle(op: PolyOp, xi) -> complex:
    # independent term-by-term evaluation with explicit repeated products
    total = 0.0 + 0.0j
    for alpha, a in op.terms.items():
        term = a
        for j, k in enumerate(alpha):
            for _ in range(k):
                term = term * xi[j]
        total += term
    return total


def test_polyop_validation():
    with pytest.raises(ValueError):
        PolyOp(2, {})  # zero operator excluded
    with pytest.raises(ValueError):
        PolyOp(2, {(1, 0): 0.0, (0, 1): -0.0})  # all coefficients vanish
    with pytest.raises(ValueError):
        PolyOp(2, {(0, 0, 1): 1.0})  # D_3 in two dimensions


def test_symbol_laplacian():
    lap = laplacian_power(2, 1)
    assert symbol_eval(lap, np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_symbol_coordinate_annihilation():
    d1 = partial_op(2, 0)
    assert symbol_eval(d1, np.array([0.0, 7.3])) == 0.0


def test_symbol_random_vs_horner_oracle():
    rng = np.random.default_rng(0)
    terms = {}
    for _ in range(8):
        alpha = tuple(rng.integers(0, 2, size=2) + rng.integers(0, 2, size=2))
        terms[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    op = PolyOp(2, terms)
    for _ in range(100):
        xi = rng.uniform(-5, 5, 2)
        got = symbol_eval(op, xi)
        want = _horner_oracle(op, xi)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_apply_fd_laplacian_on_quadratic():
    # P = D1^2 + D2^2 acts as -Laplacian under the D_j = -i d_j convention,
    # so the quadratic x^2 + y^2 maps to the constant -4 (exact for
    # second-order stencils); the sign is pinned by the Fourier-mode test.
    g = rt.Grid(2, 64, 1.0)
    mesh = g.coords()
    f = rt.ScalarField(g, mesh[0] ** 2 + mesh[1] ** 2)
    out = apply_fd(laplacian_power(2, 1), f)
    inner = stencil_interior(laplacian_power(2, 1), rt.full_mask(g))
    assert np.abs(out[inner] - (-4.0)).max() < 1e-10
    assert np.abs(out[inner].imag).max() < 1e-14


def test_apply_fd_fourier_mode_symbol_consistency():
    # apply_fd(f)(x) -> (P(xi0) e^{i xi0.x} + P(-xi0) e^{-i xi0.x})/2 for
    # f = cos(xi0.x), at second order in h
    xi0 = np.array([3.0 * np.pi, 2.0 * np.pi])
    op = PolyOp(2, {(1, 0): 1.0, (0, 2): 0.5, (1, 1): -0.25j})
    errs = []
    for size in (64, 128, 256):
        g = rt.Grid(2, size, 1.0)
        mesh = g.coords()
        phase = xi0[0] * mesh[0] + xi0[1] * mesh[1]
        f = rt.ScalarField(g, np.cos(phase))
        out = apply_fd(op, f)
        inner = stencil_interior(op, rt.full_mask(g))
        expected = 0.5 * (
            symbol_eval(op, xi0) * np.exp(1j * phase)
            + symbol_eval(op, -xi0) * np.exp(-1j * phase)
        )
        errs.append(np.abs((out - expected))[inner].max())
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 1.8 and order2 > 1.8


def test_apply_fd_locality():
    g = rt.Grid(2, 64, 1.0)
    op = laplacian_power(2, 2)  # stencil radius 2
    rng = np.random.default_rng(1)
    f = rt.ScalarField(g, rng.standard_normal(g.shape))
    base = apply_fd(op, f)
    bumped = f.values.copy()
    bumped[10, 10] += 1.0
    pert = apply_fd(op, rt.ScalarField(g, bumped))
    diff = np.abs(pert - base)
    changed = np.argwhere(diff > 1e-12)
    assert len(changed)
    assert np.abs(changed - np.array([10, 10])).max() <= 3 * op.stencil_radius()


def test_compose_identity_and_commutativity():
    p = PolyOp(2, {(2, 0): 1.0, (0, 1): -2.0})
    assert compose(p, unit_op(2)).terms == p.terms
    d1, d2 = partial_op(2, 0), partial_op(2, 1)
    assert compose(d1, d2).terms == compose(d2, d1).terms
    with pytest.raises(ValueError):
        compose(p, unit_op(3))


def test_compose_symbol_product_oracle():
    rng = np.random.default_rng(2)
    p1 = PolyOp(2, {(1, 0): 1.5, (0, 2): -0.5j, (0, 0): 0.3})
    p2 = PolyOp(2, {(2, 1): 2.0, (1, 0): 1.0j})
    prod = compose(p1, p2)
    for _ in range(100):
        xi = rng.uniform(-4, 4, 2)
        got = symbol_eval(prod, xi)
        want = symbol_eval(p1, xi) * symbol_eval(p2, xi)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_zero_set_constant_symbol():
    assert zero_set_fraction(unit_op(2), 10_000, eps=0.5) == 0.0


def test_zero_set_hyperplane_slab():
    # measure of the eps-slab around the hyperplane xi_1 = 0 in the box
    frac = zero_set_fraction(partial_op(2, 0), 1_000_000, eps=1e-6)
    assert frac < 1e-4


def test_zero_set_monotone_in_eps():
    op = PolyOp(2, {(2, 0): 1.0, (0, 2): -1.0})  # vanishes on the diagonals
    eps = 1e-2
    prev = zero_set_fraction(op, 200_000, eps=eps, seed=3)
    for _ in range(5):
        eps /= 2.0
        cur = zero_set_fraction(op, 200_000, eps=eps, seed=3)
        assert cur <= prev
        prev = cur


def test_is_admissible_harmonic_patch():
    g = rt.Grid(2, 96, 1.0)
    spec = rt.PhantomSpec.patch(rule="harmonic", degree=3, v_radius=0.25,
                                plateau_radius=0.45, support_radius=0.7)
    f = rt.sample_phantom(spec, g)
    ok, residual = is_admissible(f, spec.annihilator(2), spec.region(g))
    assert ok and residual < 1e-6


def test_is_admissible_rejects_gaussian():
    g = rt.Grid(2, 96, 1.0)
    f = rt.sample_phantom(rt.PhantomSpec.gaussian(sigma=0.2), g)
    region = rt.disk_mask(g, (0.0, 0.0), 0.25)
    ok, residual = is_admissible(f, laplacian_power(2, 1), region)
    assert not ok and residual > 1e-3


def test_is_admissible_plane_wave_within_stencil_error():
    # the real plane wave is annihilated up to the O(h^2 |xi0|^{m+2}) stencil
    # truncation, so the pass tolerance reflects that scale
    g = rt.Grid(2, 128, 1.0)
    spec = rt.PhantomSpec.patch(rule="plane_wave", xi0=(np.pi, 0.0),
                                v_radius=0.25, plateau_radius=0.45,
                                support_radius=0.7)
    f = rt.sample_phantom(spec, g)
    op = spec.annihilator(2)
    h = g.h
    xi_norm = np.pi
    stencil_tol = 10.0 * h**2 * xi_norm**4 / op.coeff_scale(h)
    ok, residual = is_admissible(f, op, spec.region(g), tol=stencil_tol)
    assert ok, residual


def test_vector_space_property_composed_annihilators():
    # sums of admissible fields are admissible for the composed operator
    g = rt.Grid(2, 96, 1.0)
    quad = rt.PhantomSpec.patch(rule="polynomial", degree=2, v_radius=0.25,
                                plateau_radius=0.45, support_radius=0.7)
    harm = rt.PhantomSpec.patch(rule="harmonic", degree=3, v_radius=0.25,
                                plateau_radius=0.45, support_radius=0.7)
    f1 = rt.sample_phantom(quad, g)
    f2 = rt.sample_phantom(harm, g)
    region = quad.region(g)
    rng = np.random.default_rng(4)
    for lam in rng.uniform(-2, 2, 3):
        combo = f1 + float(lam) * f2
        composed = compose(quad.annihilator(2), harm.annihilator(2))
        ok, residual = is_admissible(combo, composed, region)
        assert ok and residual < 1e-6


def test_polyop_text_roundtrip():
    op = PolyOp(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): -0.5 + 0.25j})
    back = polyop_from_text(polyop_to_text(op))
    assert back.n == 2
    for alpha, a in op.terms.items():
        assert back.terms[alpha] == pytest.approx(a)


@settings(max_examples=50)
@given(op=st.sampled_from([2, 3]).flatmap(polyops))
def test_polyop_text_roundtrip_property(op):
    assert polyop_from_text(polyop_to_text(op)) == op
    assert polyop_from_text(polyop_to_text(op), n=op.n) == op


@settings(max_examples=30)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
@pytest.mark.parametrize("n, size", [(2, 16), (3, 8)])
def test_prior_rows_match_fd_normal(n, size, data, seed, density):
    # random interiors reach the grid's edges, where both sides zero-extend
    op = data.draw(polyops(n))
    h = rt.Grid(n, size, 1.0).h
    rng = np.random.default_rng(seed)
    inner = rng.random((size,) * n) < density
    v = rng.standard_normal(inner.shape)
    q = diffops.prior_rows(op, inner, h)
    assert q.shape == (2 * inner.sum(), inner.size)
    ref = diffops.apply_fd_normal(op, v, inner, h)
    got = (q.T @ (q @ v.reshape(-1))).reshape(v.shape)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_wave_patch_annihilated():
    g = rt.Grid(2, 96, 1.0)
    spec = rt.PhantomSpec.patch(rule="wave", v_radius=0.25,
                                plateau_radius=0.45, support_radius=0.7)
    f = rt.sample_phantom(spec, g)
    ok, residual = is_admissible(f, spec.annihilator(2), spec.region(g))
    assert ok and residual < 1e-6
