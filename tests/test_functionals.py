import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from harmap import (
    Grid,
    HarmonicMap,
    MapStack,
    QuadratureSpec,
    area_quadrature,
    area_series,
    area_sup,
    bloch_norm,
    bloch_seminorm,
    golden_max,
    grid_sup,
    hardy_mean,
    hardy_norm,
    hyperbolic_distance,
    length_function,
    length_sup,
    lipschitz_ratio,
    r_ladder,
    wirtinger,
)

from conftest import (
    AFFINE_HALF,
    AFFINE_ROOT2,
    CONSTANT,
    IDENTITY,
    MIXED,
    SQUARE,
    disk_points,
    harmonic_maps,
)


# -- area ----------------------------------------------------------------------


def test_area_series_normalized_affine():
    # |alpha|^2 - |beta|^2 = 1 forces S(r) = r^2
    assert area_series(AFFINE_ROOT2, 0.3).value == pytest.approx(0.09, abs=1e-12)


def test_area_series_square_map():
    assert area_series(SQUARE, 0.5).value == pytest.approx(0.125, abs=1e-15)


def test_area_series_empty_disk():
    assert area_series(MIXED, 0.0).value == 0.0
    with pytest.raises(ValueError):
        area_series(MIXED, 1.5)


def test_area_quadrature_identity():
    fv = area_quadrature(IDENTITY, 0.7)
    assert fv.value == pytest.approx(0.49, abs=1e-12)
    assert fv.method == "quadrature"


def test_area_quadrature_matches_series_mixed():
    want = 0.25 - 0.18 * 0.5**4
    assert area_series(MIXED, 0.5).value == pytest.approx(want, abs=1e-15)
    assert area_quadrature(MIXED, 0.5).value == pytest.approx(want, abs=1e-10)


def test_area_quadrature_rejects_low_radial_order():
    deep = HarmonicMap(a=tuple([0] * 8 + [1.0]), b=tuple([0] * 8))
    with pytest.raises(ValueError):
        area_quadrature(deep, 0.5, QuadratureSpec(radial_nodes=4))


def test_area_sup_takes_interior_ladder_peak():
    # S(r) = r^2 - 0.7 r^4 peaks inside the disk; the sup must not fall back
    # to the smaller endpoint value.
    f = HarmonicMap(a=(0, 1, 0.1), b=(0, 0.6))
    s1 = sum(n * (abs(a) ** 2 - abs(b) ** 2) for n, (a, b) in enumerate(zip(f.a[1:], f.b), 1))
    sup = area_sup(f).value
    assert sup > s1
    rung = 1.0 - 2.0**-3
    assert sup >= area_series(f, rung).value - 1e-15


@given(harmonic_maps(max_degree=8), st.sampled_from([0.3, 0.6, 0.9]))
def test_area_series_vs_quadrature_oracle(f, r):
    assert abs(area_series(f, r).value - area_quadrature(f, r).value) <= 1e-10


def test_area_monotone_for_dominant_maps(small_corpus):
    rs = np.linspace(0.05, 0.95, 19)
    for f in small_corpus[:10]:
        vals = [area_series(f, r).value for r in rs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# -- length ----------------------------------------------------------------------


def test_length_identity_half_radius():
    assert length_function(IDENTITY, 0.5).value == pytest.approx(math.pi, abs=1e-12)


def test_length_ellipse_resolution_agreement():
    r = 1.0 - 1e-9
    lo = length_function(AFFINE_HALF, r, QuadratureSpec(angular_nodes=512))
    hi = length_function(AFFINE_HALF, r, QuadratureSpec(angular_nodes=1024))
    assert lo.value == pytest.approx(hi.value, abs=1e-8)
    # semi-axes 1.5 and 0.5: perimeter bounds sanity
    assert 2 * math.pi * 0.5 < lo.value < 2 * math.pi * 1.5


def test_length_constant_map():
    assert length_function(CONSTANT, 0.5).value == pytest.approx(0.0, abs=1e-15)


def test_length_rejects_boundary_radius():
    with pytest.raises(ValueError):
        length_function(IDENTITY, 1.0)


def test_length_sup_identity_and_square():
    assert length_sup(IDENTITY).value == pytest.approx(2 * math.pi, abs=1e-9)
    assert length_sup(SQUARE).value == pytest.approx(4 * math.pi, abs=1e-8)


def test_length_monotone_on_corpus(small_corpus):
    for f in small_corpus[:8]:
        from harmap.functionals import _circle_lengths

        vals = _circle_lengths(f, np.concatenate([[0.1, 0.3], r_ladder()]), 512)
        assert all(b >= a - 1e-9 * max(1.0, b) for a, b in zip(vals, vals[1:]))


# -- Hardy means -----------------------------------------------------------------


def test_hardy_norm_identity():
    assert hardy_norm(IDENTITY, 2).value == pytest.approx(1.0, abs=1e-10)


def test_hardy_mean_constant_any_p():
    for p in (0.7, 2.0, math.inf):
        assert hardy_mean(CONSTANT, p, 0.5).value == pytest.approx(abs(CONSTANT(0j)), abs=1e-12)


def test_hardy_mean_parseval_crosscheck():
    # Coefficient-sum oracle: M_2^2 = sum (|a_n|^2 + |b_n|^2) r^(2n)
    m2 = hardy_mean(AFFINE_HALF, 2, 0.8).value
    assert m2**2 == pytest.approx(0.8, abs=1e-12)


@given(harmonic_maps(), st.sampled_from([0.4, 0.8]))
def test_hardy_mean_parseval_property(f, r):
    coeff = abs(f.a[0]) ** 2 + sum(
        (abs(a) ** 2 + abs(b) ** 2) * r ** (2 * n)
        for n, (a, b) in enumerate(zip(f.a[1:], f.b), 1)
    )
    assert hardy_mean(f, 2, r).value ** 2 == pytest.approx(coeff, rel=1e-10, abs=1e-12)


def test_hardy_norm_sup_mode():
    fv = hardy_norm(AFFINE_HALF, math.inf)
    assert fv.method == "grid-sup"
    assert fv.value == pytest.approx(1.5, abs=1e-3)


def test_circle_max_closed_form_oracle():
    # f = a z^n + conj(b) conj(z)^m peaks at |a| r^n + |b| r^m where
    # arg a + n t = -(arg b + m t); the phases put that angle 0.37 of a
    # coarse grid spacing (2 pi / 1024) past a grid angle.
    n, m = 3, 2
    t_star = (5 + 0.37) * 2 * math.pi / 1024
    alpha = 0.4
    beta = -alpha - (n + m) * t_star
    a = 0.6 * complex(math.cos(alpha), math.sin(alpha))
    b = 0.25 * complex(math.cos(beta), math.sin(beta))
    f = HarmonicMap(a=(0,) * n + (a,), b=(0,) * (m - 1) + (b,) + (0,) * (n - m))
    for r in (0.3, 0.7, 0.95):
        fv = hardy_mean(f, math.inf, r)
        assert fv.value == pytest.approx(0.6 * r**n + 0.25 * r**m, abs=1e-12)
    fv = hardy_norm(f, math.inf)
    assert abs(fv.value - 0.85) <= fv.error_estimate + 1e-12


def test_circle_max_matches_golden_polish(small_corpus):
    import cmath

    from harmap.functionals import golden_max

    n_ang = 4 * QuadratureSpec().angular_nodes
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    dt = theta[1] - theta[0]
    for f in small_corpus[:4]:
        for r in (0.3, 0.8, 0.99):
            vals = np.abs(f(r * np.exp(1j * theta)))
            j = int(np.argmax(vals))
            ref, _ = golden_max(lambda t: abs(f(r * cmath.exp(1j * t))), theta[j] - dt, theta[j] + dt)
            ref = max(ref, float(vals[j]))
            assert hardy_mean(f, math.inf, r).value == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_hardy_norm_inf_is_batched(monkeypatch, small_corpus):
    import harmap.functionals as functionals

    ndims = []
    call = HarmonicMap.__call__

    def counting(self, z):
        ndims.append(np.ndim(z))
        return call(self, z)

    monkeypatch.setattr(HarmonicMap, "__call__", counting)
    monkeypatch.setattr(functionals, "golden_max", lambda *a, **k: pytest.fail("golden_max"))
    hardy_norm(small_corpus[0], math.inf)
    assert 0 < len(ndims) <= 12 and 0 not in ndims


@pytest.mark.parametrize("weight", [lambda z: 1.0 - np.abs(z) ** 2, lambda z: 1.0],
                         ids=["bloch-ratio", "stretch"])
def test_grid_sup_batch_equals_one_problem_runs(small_corpus, weight):
    # Mixed degrees (1, 2, 6). The weighted stretch of the identity peaks
    # at the origin, the plain stretch of z^2 at the outermost radius.
    maps = [IDENTITY, SQUARE, MIXED, AFFINE_ROOT2, *small_corpus[:8]]
    grid = Grid(n_r=24, n_theta=64)
    stack = MapStack(maps)

    def batch(z, rows):
        fz, fzbar = wirtinger(stack[rows], z)
        return weight(z) * (np.abs(fz) + np.abs(fzbar))

    def one(f):
        def fn(z):
            fz, fzbar = wirtinger(f, z)
            return weight(z) * (np.abs(fz) + np.abs(fzbar))

        return fn

    results = grid_sup(batch, grid, len(maps), (one(f)(grid.nodes) for f in maps))
    assert results == [grid_sup(lambda z, rows: one(f)(z[0])[None], grid, 1, [one(f)(grid.nodes)])[0]
                       for f in maps]
    if weight(0.5) != 1.0:
        assert results[0].argmax == 0j
    else:
        assert abs(results[1].argmax) > grid.radii[-2]


def _golden_reference(fn, a, b, tol=1e-10):
    """The scalar golden-section search, step by step, as a reference."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        return fn(0.5 * (a + b)), 0.5 * (a + b)
    n = int(math.ceil(math.log(tol / h) / math.log(inv_phi)))
    c, d = a + inv_phi2 * h, a + inv_phi * h
    yc, yd = fn(c), fn(d)
    for _ in range(n - 1):
        h *= inv_phi
        if yc > yd:
            d, yd = c, yc
            c = a + inv_phi2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            d = a + inv_phi * h
            yd = fn(d)
    return (yc, c) if yc > yd else (yd, d)


@pytest.mark.parametrize("bracket", [(0.0, 1.0), (2.0, -1.0), (0.3, 0.3 + 1e-11), (0.1, 0.1001)])
def test_golden_max_matches_the_scalar_search(bracket):
    for fn in (lambda x: -(x - 0.37) ** 2, lambda x: math.sin(3.0 * x), lambda x: abs(x)):
        assert golden_max(fn, *bracket) == _golden_reference(fn, *bracket)


# -- Bloch seminorm and hyperbolic metric ---------------------------------------


def test_bloch_identity():
    assert bloch_seminorm(IDENTITY).value == pytest.approx(1.0, abs=1e-12)


def test_bloch_square_calculus_oracle():
    # maximize (1 - x^2) * 2x at x = 1/sqrt(3)
    assert bloch_seminorm(SQUARE).value == pytest.approx(4 / (3 * math.sqrt(3)), abs=1e-9)


def test_bloch_affine_and_norm():
    assert bloch_seminorm(AFFINE_ROOT2).value == pytest.approx(math.sqrt(2) + 1, abs=1e-12)
    shifted = HarmonicMap(a=(2j, 1), b=(0.5,))
    assert bloch_norm(shifted).value == pytest.approx(2 + 1.5, abs=1e-12)


def test_hyperbolic_distance_values():
    assert hyperbolic_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    assert hyperbolic_distance(0, 0.5) == pytest.approx(math.atanh(0.5))
    with pytest.raises(ValueError):
        hyperbolic_distance(1.0, 0)


@given(disk_points(), disk_points(), st.floats(0, 2 * math.pi))
def test_hyperbolic_distance_rotation_invariant(z, w, phi):
    rot = complex(math.cos(phi), math.sin(phi))
    d1 = hyperbolic_distance(z, w)
    assert d1 == pytest.approx(hyperbolic_distance(w, z), abs=1e-12)
    assert d1 == pytest.approx(hyperbolic_distance(rot * z, rot * w), abs=1e-9)


def test_lipschitz_ratio_identity():
    got = lipschitz_ratio(IDENTITY, 0, 0.5)
    assert got == pytest.approx(0.5 / math.atanh(0.5))
    assert got <= 1.0
    with pytest.raises(ValueError):
        lipschitz_ratio(IDENTITY, 0.2, 0.2)


def test_lipschitz_ratio_below_bloch(small_corpus):
    # 10^4 random pairs across corpus maps: |f(z)-f(w)| <= (beta + tol) rho
    rng = np.random.default_rng(5)
    n = 2000
    for f in small_corpus[:5]:
        beta = bloch_seminorm(f).value
        tol = 1e-6 * beta
        z = 0.97 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        w = 0.97 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        rho = np.arctanh(np.abs((z - w) / (1.0 - np.conjugate(z) * w)))
        assert np.all(np.abs(f(z) - f(w)) <= (beta + tol) * rho + 1e-15)
    zz, ww = 0.3 + 0.1j, -0.2 + 0.5j
    f = small_corpus[0]
    assert lipschitz_ratio(f, zz, ww) <= bloch_seminorm(f).value * (1 + 1e-6)


def test_length_dominates_mean_stretch_integral(small_corpus, grid):
    # l_f(r) >= (r / K) * int Lambda dtheta for admissible maps
    from harmap import qc_constant
    from harmap.core import wirtinger

    theta = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    for f in small_corpus[:10]:
        k = qc_constant(f, grid)
        for r in (0.4, 0.8):
            fz, fzbar = wirtinger(f, r * np.exp(1j * theta))
            stretch_integral = (2 * np.pi / theta.size) * np.sum(np.abs(fz) + np.abs(fzbar))
            lf = length_function(f, r).value
            assert lf >= (r / k) * stretch_integral - 1e-9 * max(1.0, lf)


# -- error estimates --------------------------------------------------------------


def test_error_estimates_are_honest(small_corpus):
    q = QuadratureSpec(radial_nodes=16, angular_nodes=64)
    q2 = QuadratureSpec(radial_nodes=32, angular_nodes=128)
    for f in small_corpus[:5]:
        for r in (0.4, 0.8):
            base = area_quadrature(f, r, q)
            moved = area_quadrature(f, r, q2)
            assert abs(moved.value - base.value) <= base.error_estimate + 1e-13
            base = length_function(f, r, q)
            moved = length_function(f, r, q2)
            assert abs(moved.value - base.value) <= base.error_estimate + 1e-13 * (1 + base.value)


def test_functional_value_json():
    fv = area_series(IDENTITY, 0.5)
    assert fv.to_json_dict() == {"value": 0.25, "method": "series", "error_estimate": 0.0}
