import hashlib
import math
from fractions import Fraction
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from harmap import (
    FuzzSpec,
    HarmonicMap,
    area_quadrature,
    area_series,
    area_sup,
    bloch_seminorm,
    fuzz_corpus,
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

from harmap.functionals import _CIRCLE_BLOCK, FunctionalValue

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


def test_area_quadrature_takes_a_degree_1024_map():
    # N radii and 2N angles are exact at any degree: a degree-1024 map (the
    # largest a map file may have) agrees with the series within its estimate.
    from harmap.core import MAX_FILE_DEGREE

    rng = np.random.default_rng(1024)
    n = np.arange(1, MAX_FILE_DEGREE + 1)
    c = rng.standard_normal((2 * MAX_FILE_DEGREE + 1, 2)) @ [1.0, 1j]
    f = HarmonicMap(a=tuple(c[: MAX_FILE_DEGREE + 1] / np.r_[1, n]),
                    b=tuple(0.5 * c[MAX_FILE_DEGREE + 1 :] / n))
    for r in (0.5, 0.99):
        fv = area_quadrature(f, r)
        assert abs(fv.value - area_series(f, r).value) <= fv.error_estimate
        assert fv.error_estimate <= 1e-12 * max(1.0, abs(fv.value))


def test_area_sup_takes_interior_ladder_peak():
    # S(r) = r^2 - 0.7 r^4 peaks inside the disk; the sup must not fall back
    # to the smaller endpoint value.
    f = HarmonicMap(a=(0, 1, 0.1), b=(0, 0.6))
    s1 = sum(n * (abs(a) ** 2 - abs(b) ** 2) for n, (a, b) in enumerate(zip(f.a[1:], f.b), 1))
    sup = area_sup(f).value
    assert sup > s1
    rung = 1.0 - 2.0**-3
    assert sup >= area_series(f, rung).value - 1e-15


@pytest.mark.parametrize(
    "f, want",
    [(HarmonicMap(a=(0, 1, 0), b=(0, 1.2)), 25 / 288), (HarmonicMap(a=(0, 0), b=(1.0,)), 0.0)],
    ids=["interior-peak", "anti-identity"],
)
def test_area_sup_closed_forms(f, want):
    # z + 1.2 conj(z)^2: S(x) = x - 2.88 x^2 peaks at x = 1/5.76 with 25/288;
    # conj(z): S(x) = -x, whose sup over [0, 1] is S(0) = 0.
    assert area_sup(f).value == pytest.approx(want, rel=1e-15, abs=1e-300)


@given(harmonic_maps(max_degree=8))
def test_area_sup_is_the_max_of_the_area_polynomial(f):
    # S is Lipschitz in x = r^2 with constant sum n |c_n|, so a 10^4-point
    # grid comes within that / 2e4 of the sup, and no grid value exceeds it.
    n = np.arange(1, f.degree + 1)
    c = np.array([k * (abs(a) ** 2 - abs(b) ** 2) for k, (a, b) in enumerate(zip(f.a[1:], f.b), 1)])
    x = np.linspace(0.0, 1.0, 10_001)
    dense = float(np.max((c * x[:, None] ** n).sum(axis=1)))
    sup = area_sup(f).value
    assert dense - 1e-15 <= sup <= dense + float(np.sum(n * np.abs(c))) / 2e4


@given(harmonic_maps(max_degree=8), st.sampled_from([0.3, 0.6, 0.9]))
def test_area_series_vs_quadrature_oracle(f, r):
    assert abs(area_series(f, r).value - area_quadrature(f, r).value) <= 1e-10


def test_area_quadrature_matches_the_series_on_the_query_corpus():
    # The benchmark's area oracle: the builtins and the degree-32 query
    # corpora of seeds 42 and 17, each value within the quadrature's own
    # error estimate of the coefficient series, which stays at rounding level.
    from harmap.verify import builtin_maps

    maps = [*builtin_maps().values(),
            *(f for seed in (42, 17) for f in fuzz_corpus(FuzzSpec(count=32, degree=32, seed=seed)))]
    for f in maps:
        for r in (0.1, 0.5, 0.9, 0.99):
            fv = area_quadrature(f, r)
            assert abs(fv.value - area_series(f, r).value) <= fv.error_estimate
            assert fv.error_estimate <= 1e-13 * max(1.0, abs(fv.value))


def _unnormalised_degree_3_maps():
    """250 maps whose |h'|^2 and |g'|^2 may nearly cancel: standard normal
    a_0..a_3 then b_1..b_3, unscaled."""
    rng = np.random.default_rng(7)
    for _ in range(250):
        c = rng.standard_normal((7, 2)) @ [1.0, 1j]
        yield HarmonicMap(a=tuple(c[:4]), b=tuple(c[4:]))


def test_area_quadrature_estimate_covers_cancelling_terms():
    # Where the two squared moduli cancel, rounding follows their sum, not
    # the value, and so must the estimate.
    for f in _unnormalised_degree_3_maps():
        for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            fv = area_quadrature(f, r)
            assert abs(fv.value - area_series(f, r).value) <= fv.error_estimate


def test_area_quadrature_caps_its_angles_where_the_rule_is_exact():
    # On a ring the Jacobian has trigonometric degree N - 1, so N angles are
    # exact and 2N are the fine rule: a rule with twice the radii and angles
    # agrees with it within its error estimate.
    from harmap.functionals import _area_polar
    from harmap.verify import builtin_maps

    maps = [*builtin_maps().values(), *fuzz_corpus(FuzzSpec(count=32, degree=32, seed=42))]
    for f in maps:
        for r in (0.5, 0.9):
            fv = area_quadrature(f, r)
            full, _ = _area_polar(f, r, 2 * f.degree, 4 * f.degree)
            assert abs(fv.value - full) <= fv.error_estimate


def test_ring_functionals_evaluate_the_map_once(monkeypatch, degree_32_maps):
    # Each reads its coarse rule off the even nodes of its fine one: one ring
    # or grid evaluation a call.
    import harmap.functionals as functionals

    calls = []
    for name in ("_ring_fields", "_ring_values", "wirtinger"):
        def counting(*args, _fn=getattr(functionals, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(functionals, name, counting)
    f = degree_32_maps[0]
    for query in (lambda: area_quadrature(f, 0.9), lambda: length_function(f, 0.9),
                  lambda: hardy_mean(f, 2.0, 0.9), lambda: hardy_norm(f, 0.5)):
        calls.clear()
        query()
        assert len(calls) == 1, calls


def test_area_monotone_for_dominant_maps(small_corpus):
    rs = np.linspace(0.05, 0.95, 19)
    for f in small_corpus[:10]:
        vals = [area_series(f, r).value for r in rs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# -- length ----------------------------------------------------------------------


def test_length_identity_half_radius():
    assert length_function(IDENTITY, 0.5).value == pytest.approx(math.pi, abs=1e-12)


def test_length_ellipse_resolution_agreement():
    from harmap.functionals import _circle_lengths

    r = 1.0 - 1e-9
    lo, hi = (float(_circle_lengths(AFFINE_HALF, r, n)[0][0]) for n in (512, 1024))
    assert lo == pytest.approx(hi, abs=1e-8)
    assert length_function(AFFINE_HALF, r).value == pytest.approx(lo, abs=1e-8)
    # semi-axes 1.5 and 0.5: perimeter bounds sanity
    assert 2 * math.pi * 0.5 < lo < 2 * math.pi * 1.5


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

        # (1024-node, 512-node) trapezoid lengths on the same radii
        for vals in _circle_lengths(f, np.concatenate([[0.1, 0.3], r_ladder()]), 512):
            assert all(b >= a - 1e-9 * max(1.0, b) for a, b in zip(vals, vals[1:]))


def _circle_lengths_one_rule(f, rs, n_ang):
    """The trapezoid rule for l_f(r) on n_ang angles alone, its own evaluation."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    fz, fzbar = wirtinger(f, rs[:, None] * np.exp(1j * theta)[None, :])
    integrand = np.abs(fz - np.exp(-2j * theta)[None, :] * fzbar)
    return rs * (2.0 * np.pi / n_ang) * integrand.sum(axis=1)


@pytest.mark.parametrize("n_ang", [256, 512])
def test_lengths_read_the_coarse_rule_off_the_fine_nodes(n_ang):
    # _circle_lengths evaluates 2n angles once and takes the n-angle rule
    # from the even nodes; value and error must keep the bits of evaluating
    # the two rules separately. At n = 256 these are length_sup and
    # length_function of maps of degree <= 64.
    from harmap.functionals import QUADRATURE, _circle_lengths, _doubling, _error_floor, _ladder_sup
    from harmap.verify import builtin_maps

    maps = [*builtin_maps().values(), *fuzz_corpus(FuzzSpec(count=8, degree=8, seed=42))]
    for f in maps:
        rs = r_ladder()
        want = _ladder_sup(_circle_lengths_one_rule(f, rs, 2 * n_ang),
                           _circle_lengths_one_rule(f, rs, n_ang))
        assert _ladder_sup(*_circle_lengths(f, rs, n_ang)) == want
        if n_ang == 256:
            assert length_sup(f) == want
        for r in (0.3, 0.9, 1.0 - 2.0**-10):
            v1 = float(_circle_lengths_one_rule(f, r, n_ang)[0])
            v2 = float(_circle_lengths_one_rule(f, r, 2 * n_ang)[0])
            want = FunctionalValue(v2, QUADRATURE, max(abs(v2 - v1), _error_floor(v2)))
            assert _doubling(*(float(v[0]) for v in _circle_lengths(f, r, n_ang))) == want
            if n_ang == 256:
                assert length_function(f, r) == want


def test_lengths_formed_in_place_keep_the_bits_of_the_temporaries():
    # _circle_lengths multiplies and subtracts in the fields' buffers; the
    # values must be those of |f_z - e^(-2 i theta) f_zbar| formed out of place.
    from harmap.functionals import _circle_lengths, _doubling, _ladder_sup

    def out_of_place(f, rs, n_ang):
        theta = np.linspace(0.0, 2.0 * np.pi, 2 * n_ang, endpoint=False)
        fz, fzbar = wirtinger(f, rs[:, None] * np.exp(1j * theta)[None, :])
        integrand = np.abs(fz - np.exp(-2j * theta)[None, :] * fzbar)
        return [rs * (2.0 * np.pi / m) * integrand[:, ::step].sum(axis=1)
                for m, step in ((2 * n_ang, 1), (n_ang, 2))]

    n_ang = 256
    rs = np.concatenate(([0.3, 0.9], r_ladder()))
    for f in fuzz_corpus(FuzzSpec(count=32, degree=32, seed=42)):
        for got, want in zip(_circle_lengths(f, rs, n_ang), out_of_place(f, rs, n_ang)):
            assert np.array_equal(got, want)
        assert length_sup(f) == _ladder_sup(*out_of_place(f, r_ladder(), n_ang))
        fine, coarse = (float(v[1]) for v in out_of_place(f, rs, n_ang))
        assert length_function(f, 0.9) == _doubling(fine, coarse)


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


def _decaying_map(degree):
    """Standard normal coefficients of default_rng(0) over n, a_0..a_N then b_1..b_N."""
    rng = np.random.default_rng(0)
    n = np.arange(1, degree + 1)
    c = rng.standard_normal((2 * degree + 1, 2)) @ [1.0, 1j]
    return HarmonicMap(a=tuple(c[: degree + 1] / np.r_[1, n]), b=tuple(c[degree + 1 :] / n))


@pytest.mark.parametrize("degree", [128, 300, 600, 1024])
def test_hardy_mean_p2_is_exact_above_degree_64(degree):
    # |f|^2 on a ring has trigonometric degree 2N, and the circle rules take
    # at least 4N angles: M_2 meets the coefficient sum to rounding.
    f = _decaying_map(degree)
    n = np.arange(1, degree + 1)
    for r in (0.9, 1.0):
        tail = (np.abs(f._a_arr[1:]) ** 2 + np.abs(f._b_full[1:]) ** 2) @ r ** (2 * n)
        want = math.sqrt(abs(f.a[0]) ** 2 + float(tail))
        fv = hardy_mean(f, 2, r)
        assert abs(fv.value - want) <= fv.error_estimate
        assert fv.error_estimate <= 1e-12 * fv.value


def test_circle_rules_keep_256_angles_up_to_degree_64():
    # The rule derived from the degree is the 256-angle one for every map of
    # degree <= 64: the builtins and the degree-32 query corpus keep their bits.
    from harmap.functionals import _circle_lengths, _circle_nodes, _circle_pmeans, _doubling, _ladder_sup
    from harmap.verify import builtin_maps

    assert [_circle_nodes(_decaying_map(n)) for n in (1, 64, 65, 128, 129, 4096, 4097)] == [
        256, 256, 512, 512, 1024, 1 << 14, 1 << 14]
    for f in [*builtin_maps().values(), *fuzz_corpus(FuzzSpec(count=32, degree=32, seed=42))]:
        assert length_sup(f) == _ladder_sup(*_circle_lengths(f, r_ladder(), 256))
        assert length_function(f, 0.9) == _doubling(*(float(v[0]) for v in _circle_lengths(f, 0.9, 256)))
        assert hardy_norm(f, 0.5) == _ladder_sup(*_circle_pmeans(f, r_ladder(), 0.5, 256))
        assert hardy_mean(f, 2, 0.9) == _doubling(*(float(v[0]) for v in _circle_pmeans(f, 0.9, 2, 256)))


@given(harmonic_maps(), st.sampled_from([0.4, 0.8]))
def test_hardy_mean_parseval_property(f, r):
    coeff = abs(f.a[0]) ** 2 + sum(
        (abs(a) ** 2 + abs(b) ** 2) * r ** (2 * n)
        for n, (a, b) in enumerate(zip(f.a[1:], f.b), 1)
    )
    assert hardy_mean(f, 2, r).value ** 2 == pytest.approx(coeff, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 7.5, math.inf])
def test_hardy_norm_is_the_mean_at_the_boundary(small_corpus, p):
    for f in (IDENTITY, AFFINE_HALF, MIXED, SQUARE, CONSTANT, *small_corpus[:6]):
        assert hardy_norm(f, p) == hardy_mean(f, p, 1.0)


@pytest.mark.parametrize("a1, b1", [(1.0, 0.5), (0.3 - 0.4j, 0.2j), (2.0, 0.0)])
def test_hardy_norm_affine_closed_forms(a1, b1):
    # f = a1 z + conj(b1 z): M_2^2 = |a1|^2 + |b1|^2 and max |f| = |a1| + |b1|.
    f = HarmonicMap(a=(0, a1), b=(b1,))
    m2, m_inf = hardy_norm(f, 2), hardy_norm(f, math.inf)
    assert m2.value**2 == pytest.approx(abs(a1) ** 2 + abs(b1) ** 2, rel=1e-14)
    assert abs(m_inf.value - (abs(a1) + abs(b1))) <= m_inf.error_estimate


@pytest.mark.parametrize("n", [1, 3, 8])
def test_hardy_norm_of_a_power(n):
    # |z^n| = 1 on the unit circle, so every h^p norm is 1.
    f = HarmonicMap(a=(0,) * n + (1,), b=(0,) * n)
    for p in (1.0, 2.0, 4.0, math.inf):
        fv = hardy_norm(f, p)
        assert abs(fv.value - 1.0) <= fv.error_estimate


def test_hardy_means_nondecreasing_in_r(small_corpus):
    # Hardy's convexity theorem: for p >= 1, M_p(r, f) is nondecreasing.
    rs = np.linspace(0.1, 1.0, 10)
    for f in small_corpus[:8]:
        for p in (1.0, 2.0, 4.0, math.inf):
            means = [hardy_mean(f, p, r) for r in rs]
            for lo, hi in zip(means, means[1:]):
                assert hi.value >= lo.value - lo.error_estimate - hi.error_estimate


@pytest.mark.parametrize(
    "f, p, value, error",
    [(MIXED, 0.3, 1.0068801700652028, 1.176836406102666e-13),
     (MIXED, 0.9, 1.0204119428605172, 3.410605131648481e-13),
     (AFFINE_HALF, 0.3, 1.0198252423808944, 1.81157354429632e-15),
     (AFFINE_HALF, 0.9, 1.0575549591794855, 1.8785949847801318e-15)],
)
def test_hardy_norm_below_one_keeps_the_ladder(f, p, value, error):
    # 0 < p < 1 is still the ladder sup with its Richardson extrapolant; the
    # values are pinned bit for bit.
    fv = hardy_norm(f, p)
    assert (fv.value, fv.error_estimate, fv.method) == (value, error, "quadrature")


@pytest.mark.parametrize("p", [1e-310, 5e-324])
def test_hardy_means_refuse_a_subnormal_p(p):
    # p log(|f|/m) would turn subnormal and lose its digits: at 5e-324 the
    # mean of z + 0.2 conj(z) read 1.2, its circle max, for a limit of 1.
    f = HarmonicMap(a=(0, 1), b=(0.2,))
    with pytest.raises(ValueError, match="smallest normal float"):
        hardy_mean(f, p, 1.0)
    with pytest.raises(ValueError, match="smallest normal float"):
        hardy_norm(f, p)


def test_hardy_means_at_the_smallest_normal_p_read_the_geometric_mean():
    # M_p(1, f) tends to exp(mean log|f|) = 1 as p -> 0 (Jensen: 1 + 0.2 w
    # has no zero in the disk).
    f = HarmonicMap(a=(0, 1), b=(0.2,))
    for p in (sys.float_info.min, 2.3e-308):
        for fv in (hardy_mean(f, p, 1.0), hardy_norm(f, p)):
            assert abs(fv.value - 1.0) <= fv.error_estimate


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

    n_ang = 1024
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    dt = theta[1] - theta[0]
    for f in small_corpus[:4]:
        for r in (0.3, 0.8, 0.99):
            vals = np.abs(f(r * np.exp(1j * theta)))
            j = int(np.argmax(vals))
            ref, _ = _golden_reference(lambda t: abs(f(r * cmath.exp(1j * t))),
                                       theta[j] - dt, theta[j] + dt)
            ref = max(ref, float(vals[j]))
            assert hardy_mean(f, math.inf, r).value == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_hardy_norm_inf_is_batched(monkeypatch, small_corpus):
    # One ring of samples, the smallest power of two above 8N, and no
    # pointwise evaluation; the refinement's direct sums take at most
    # _CIRCLE_BLOCK centre-frequency terms a call.
    import harmap.functionals as functionals

    rings, sums = [], []
    ring_values, einsum = functionals._ring_values, np.einsum

    def counting_rings(f, rs, n_ang):
        rings.append((np.size(rs), n_ang))
        return ring_values(f, rs, n_ang)

    def counting_sums(spec, e, w):
        sums.append(e.size)
        return einsum(spec, e, w)

    monkeypatch.setattr(functionals, "_ring_values", counting_rings)
    monkeypatch.setattr(np, "einsum", counting_sums)
    f = small_corpus[0]
    hardy_norm(f, math.inf)
    assert rings == [(1, 1 << (8 * f.degree).bit_length())]
    assert sums and max(sums) <= _CIRCLE_BLOCK


def test_query_functionals_evaluate_no_full_grid_pointwise(monkeypatch, small_corpus):
    # Tensor grids go through the ring kernel, and the circle max reads its
    # refinement off the Fourier coefficients: nothing is evaluated pointwise.
    import harmap.core as core
    import harmap.functionals as functionals

    points = []
    call, wirt = HarmonicMap.__call__, core.wirtinger

    def counting_call(self, z):
        points.append(np.size(z))
        return call(self, z)

    def counting_wirtinger(f, z):
        points.append(np.size(z))
        return wirt(f, z)

    monkeypatch.setattr(HarmonicMap, "__call__", counting_call)
    monkeypatch.setattr(core, "wirtinger", counting_wirtinger)
    monkeypatch.setattr(functionals, "wirtinger", counting_wirtinger)
    f = small_corpus[0]
    area_quadrature(f, 0.9)
    hardy_norm(f, 2)
    core.coeff_from_contour(f, 1, 0.9, 4 * f.degree)
    hardy_norm(f, math.inf)
    hardy_mean(f, math.inf, 0.9)
    assert points == []


def _power(n, c=1.0):
    return HarmonicMap(a=(0,) * n + (c,), b=(0,) * n)


def _circle_max(f, r):
    from harmap.functionals import _circle_max

    return _circle_max(f, r, 1 << (8 * f.degree).bit_length())


@pytest.mark.parametrize("f", [IDENTITY, SQUARE, _power(32), _power(5, 0.3 - 0.4j), CONSTANT],
                         ids=["identity", "square", "z^32", "scaled-z^5", "constant"])
@pytest.mark.parametrize("r", [1.0, 0.7])
def test_circle_max_of_a_flat_modulus_finishes_at_once(monkeypatch, f, r):
    # |c z^n| = |c| r^n at every angle: the first bounds drop every arc, so
    # no direct sum runs, and the gap is rounding.
    sums = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: sums.append(1) or einsum(*args))
    fv, _ = _circle_max(f, r)
    n = f.degree if f.a[f.degree] else 0
    want = abs(f.a[n]) * r**n
    assert sums == []
    assert abs(fv.value - want) <= fv.error_estimate <= 1e-12 * want


@pytest.mark.parametrize("a1, b1", [(1.0, 0.5), (0.3 - 0.4j, 0.2j), (2.0, 0.0), (0.5, 1.5j)])
@pytest.mark.parametrize("r", [1.0, 0.6])
def test_circle_max_of_affine_maps(a1, b1, r):
    # |a1 z + conj(b1 z)| peaks at (|a1| + |b1|) r, once the phases align.
    fv, _ = _circle_max(HarmonicMap(a=(0, a1), b=(b1,)), r)
    want = (abs(a1) + abs(b1)) * r
    assert abs(fv.value - want) <= fv.error_estimate <= 1e-12 * want


def _exact_modulus2(f, r, angle):
    """|f|^2 at the float point r (cos angle, sin angle), in exact rationals."""
    x, y = Fraction(r) * Fraction(math.cos(angle)), Fraction(r) * Fraction(math.sin(angle))

    def horner(coeffs, sign):  # sum c_k (x + sign i y)^k as a (re, im) pair
        re, im = Fraction(0), Fraction(0)
        for c in reversed(coeffs):
            re, im = re * x - sign * im * y + Fraction(c.real), re * sign * y + im * x + Fraction(c.imag)
        return re, im

    hre, him = horner(f.a, 1)
    gre, gim = horner((0j, *f.b), 1)
    re, im = hre + gre, him - gim  # h + conj(g)
    return re * re + im * im


def test_circle_max_error_is_relative_to_the_modulus_not_the_coefficients():
    # A degree-1024 map with standard normal coefficients (the second draw
    # of default_rng(0)) cancels on the unit circle: max |f| is 0.078 of
    # s = sum |coefficients|. An error bounded relative to s^2 read 1.9e-9 of
    # the value; bounded relative to F itself it stays below 1e-12 and still
    # holds |f| at the returned angle, evaluated by mpmath at 200 bits.
    from harmap.core import MAX_FILE_DEGREE

    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    for _ in range(2):
        a = rng.standard_normal(MAX_FILE_DEGREE + 1) + 1j * rng.standard_normal(MAX_FILE_DEGREE + 1)
        b = rng.standard_normal(MAX_FILE_DEGREE) + 1j * rng.standard_normal(MAX_FILE_DEGREE)
    f = HarmonicMap(a=tuple(a), b=tuple(b))
    fv, angle = _circle_max(f, 1.0)
    s = float(np.sum(np.abs(f._a_arr)) + np.sum(np.abs(f._b_full)))
    assert fv.value < 0.08 * s
    assert fv.error_estimate <= 1e-12 * fv.value
    with mpmath.workprec(200):
        z = mpmath.expj(mpmath.mpf(angle))
        h = mpmath.polyval([mpmath.mpc(c.real, c.imag) for c in reversed(f.a)], z)
        g = mpmath.polyval([mpmath.mpc(c.real, c.imag) for c in reversed((0j, *f.b))], z)
        assert abs(abs(h + mpmath.conj(g)) - fv.value) <= fv.error_estimate


def test_circle_max_interval_holds_the_exact_modulus_at_its_angle(degree_32_maps):
    # The proved interval value +- error contains |f| at the returned angle,
    # evaluated in rationals; its relative width stays below 1e-12.
    for f in degree_32_maps:
        for r in (1.0, 0.9):
            fv, angle = _circle_max(f, r)
            lo, hi = fv.value - fv.error_estimate, fv.value + fv.error_estimate
            assert Fraction(lo) ** 2 <= _exact_modulus2(f, r, angle) <= Fraction(hi) ** 2
            assert fv.error_estimate <= 1e-12 * fv.value


@pytest.mark.parametrize("c", [1e50, 1e-50])
def test_hardy_norm_inf_scales_with_the_map(degree_32_maps, c):
    # The search runs on f / s, so c f gives c times the value and the
    # error, up to the rounding of the scaled coefficients.
    for f in degree_32_maps[:4]:
        base, scaled = hardy_norm(f, math.inf), hardy_norm(f.scaled(c), math.inf)
        assert scaled.value == pytest.approx(c * base.value, rel=1e-14)
        assert abs(scaled.error_estimate - c * base.error_estimate) <= 1e-14 * c * base.value


def test_circle_max_at_degree_1024_stays_within_the_cap():
    # A degree-1024 map (the largest a map file may have): the search ends
    # with few arcs alive, in bounded memory, and its interval holds the max
    # of 2^16 samples.
    import tracemalloc

    from harmap.core import MAX_FILE_DEGREE, _ring_values

    rng = np.random.default_rng(3)
    n = np.arange(1, MAX_FILE_DEGREE + 1)
    a = (rng.normal(size=MAX_FILE_DEGREE) + 1j * rng.normal(size=MAX_FILE_DEGREE)) / n
    b = (rng.normal(size=MAX_FILE_DEGREE) + 1j * rng.normal(size=MAX_FILE_DEGREE)) / (n + 1)
    f = HarmonicMap(a=(0.1, *a), b=tuple(b))
    tracemalloc.start()
    try:
        fv, _ = _circle_max(f, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    dense = float(np.abs(_ring_values(f, 1.0, 1 << 16)).max())
    assert dense <= fv.value + fv.error_estimate and fv.error_estimate <= 1e-9 * fv.value


def test_circle_max_reports_the_gap_at_the_cap(monkeypatch):
    # z + 0.3 conj(z)^2 peaks at 1.3 at three angles. With room for 3 arcs
    # the search stops after the first bounds, and its wider gap still
    # holds the max; with the default cap it closes to rounding.
    import harmap.functionals as functionals

    f = HarmonicMap(a=(0, 1, 0), b=(0, 0.3))
    fv, _ = _circle_max(f, 1.0)
    assert abs(fv.value - 1.3) <= fv.error_estimate <= 1e-12
    monkeypatch.setattr(functionals, "_CIRCLE_ARCS", 3)
    capped, _ = _circle_max(f, 1.0)
    assert abs(capped.value - 1.3) <= capped.error_estimate and capped.error_estimate > 1e-6


def test_circle_max_needs_the_degree_in_samples():
    from harmap.functionals import _circle_max

    with pytest.raises(ValueError, match="4N"):
        _circle_max(SQUARE, 1.0, 8)


LINEAR_HALF = HarmonicMap(a=(0, 0.5), b=(0,))
LINEAR_THREE = HarmonicMap(a=(0, 3.0), b=(0,))
ZERO = HarmonicMap(a=(0, 0), b=(0,))


@pytest.mark.parametrize(
    "f, p, scale",
    [(LINEAR_HALF, 1200, 0.5), (LINEAR_THREE, 800, 3.0), (ZERO, 1200, 0.0), (ZERO, 2, 0.0)],
    ids=["underflow", "overflow", "zero", "zero-p2"],
)
def test_hardy_means_at_large_p(f, p, scale):
    # |f| = scale r on every circle, so M_p(r, f) = scale r for every p.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = hardy_mean(f, p, 0.9)
        norm = hardy_norm(f, p)
    assert mean.value == pytest.approx(scale * 0.9, rel=1e-14, abs=0.0)
    assert norm.value == pytest.approx(scale, rel=1e-12, abs=0.0)
    assert 0.0 <= mean.error_estimate <= 1e-13 and 0.0 <= norm.error_estimate <= 1e-11


@pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-12, 1e-16])
def test_hardy_means_at_small_p_match_the_cumulant_series(p):
    # log M_p = k1 + p k2 / 2 + p^2 k3 / 6 + O(p^3), with k_j the cumulants of
    # L = log|f| on the circle. For z + 0.2 conj(z), k1 = log r (Jensen), so M_p
    # tends to r. The p^2 term is 5e-13 at p = 1e-4, above the error estimate.
    f = HarmonicMap(a=(0, 1), b=(0.2,))
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = ((0.5, hardy_mean(f, p, 0.5)), (1.0, hardy_norm(f, p)))
        zero = hardy_mean(ZERO, p, 0.5), hardy_norm(ZERO, p)
    for r, fv in values:
        logs = np.log(np.abs(f(r * np.exp(1j * theta))))
        dev = logs - logs.mean()
        cumulants = logs.mean() + p * np.mean(dev**2) / 2 + p * p * np.mean(dev**3) / 6
        assert abs(fv.value - math.exp(cumulants)) <= fv.error_estimate
        if p <= 1e-16:
            assert abs(fv.value - r) <= fv.error_estimate
    assert [fv.value for fv in zero] == [0.0, 0.0]


def test_functional_value_refuses_nan_error():
    with pytest.raises(ValueError):
        FunctionalValue(1.0, "quadrature", math.nan)
    with pytest.raises(ValueError):
        FunctionalValue(1.0, "quadrature", -1e-300)


@pytest.mark.parametrize("weight", [lambda z: 1.0 - np.abs(z) ** 2, lambda z: 1.0],
                         ids=["bloch-ratio", "stretch"])
def test_grid_sup_batch_equals_one_problem_runs(small_corpus, weight):
    # Mixed degrees (1, 2, 6). The weighted stretch of the identity peaks
    # at the origin, the plain stretch of z^2 (2|z|) on the outermost ring.
    from harmap.grids import GRID

    maps = [IDENTITY, SQUARE, MIXED, AFFINE_ROOT2, *small_corpus[:8]]

    def ratio(lam, z):
        return weight(z) * lam

    results = grid_sup(maps, ratio)
    assert results == [grid_sup([f], ratio)[0] for f in maps]
    assert {fv.method for fv in results} == {"grid-sup"}
    if weight(0.5) != 1.0:
        assert results[0].value == 1.0
    else:
        assert results[1].value == pytest.approx(2.0 * GRID.r_max, rel=1e-12)


def test_grid_sup_reads_the_origin_off_the_coefficients():
    # Lambda_f(0) = |a_1| + |b_1| a map: Horner at z = 0 returns c_0 exactly,
    # so the read-off has the bits of evaluating the stack at the origin,
    # the zero-padded columns of the short maps included.
    from harmap.core import MapStack, _stretch
    from harmap.functionals import _origin_stretch

    rng = np.random.default_rng(15)
    maps = [HarmonicMap(a=rng.standard_normal((d + 1, 2)) @ [1, 1j],
                        b=rng.standard_normal((d, 2)) @ [1, 1j]) for d in (1, 2, 5, 17, 64)]
    stack = MapStack(maps)
    got = _origin_stretch(stack)
    want = _stretch(stack, np.zeros((len(maps), 1), dtype=complex))[:, 0]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


BRACKETS = [(0.0, 1.0), (2.0, -1.0), (0.3, 0.3 + 1e-11), (0.1, 0.1001), (0.25, 0.5)]
GOLDEN_FNS = (lambda x: -(x - 0.37) ** 2, lambda x: math.sin(3.0 * x), lambda x: abs(x))


def _polish_each(problems, calls=None):
    """Run _golden_polish on (fn, a, b) problems at once, recording the shape
    of each evaluate call in ``calls``; (value, argmax) per problem."""
    from harmap.functionals import _golden_polish

    lo, hi = np.array([[a, b] for _, a, b in problems]).T

    def evaluate(xs):
        if calls is not None:
            calls.append(xs.shape)
        return np.array([[fn(x) for x in row] for (fn, _, _), row in zip(problems, xs.tolist())])

    none = np.full(len(problems), -np.inf)
    values, args = _golden_polish(evaluate, lo, hi, none, np.zeros(len(problems)))
    return list(zip(values.tolist(), args.tolist()))


@pytest.mark.parametrize("bracket", BRACKETS)
def test_golden_max_matches_the_scalar_search(bracket):
    # Each bracket on its own: the three functions share it in one array
    # search, 5 steps a call, and each also runs alone, 7 steps a call.
    # (0.25, 0.5) takes 45 steps: alone, the 38 after the first call's 7
    # are no multiple of 7, so the last call covers a shorter tree.
    problems = [(fn, *bracket) for fn in GOLDEN_FNS]
    expected = [_golden_reference(*p) for p in problems]
    assert _polish_each(problems) == expected
    assert [_polish_each([p])[0] for p in problems] == expected


def test_golden_polish_matches_the_scalar_search():
    # One batch of 5 brackets x 3 functions: mixed step counts, a reversed
    # bracket and one already within the tolerance, all run at once.
    problems = [(fn, a, b) for fn in GOLDEN_FNS for a, b in BRACKETS]
    calls = []
    assert _polish_each(problems, calls) == [_golden_reference(*p) for p in problems]
    # The widest bracket, 3, needs 51 steps: the first call evaluates the
    # pair (c, d) and the trees of the 2 steps after either outcome, 8
    # probes a problem, then 15 problems x 7 probes cover 3 steps a call.
    assert calls == [(15, 8)] + [(15, 7)] * 16


def test_golden_polish_folds_its_first_call_at_every_batch_size():
    # P = 1..40 problems cycled from the 15 of the batch above: up to 32 the
    # first call holds (c, d) and both first-decision trees of k steps,
    # 2^(k+1) P <= 128 probes, and the results are the scalar search's.
    problems = [(fn, a, b) for fn in GOLDEN_FNS for a, b in BRACKETS] * 3
    expected = [_golden_reference(*p) for p in problems]
    for count in range(1, 41):
        calls = []
        assert _polish_each(problems[:count], calls) == expected[:count]
        width = 1 << (128 // count).bit_length() - 1
        assert calls[0] == (count, width if count <= 32 else 2)
        assert max(math.prod(shape) for shape in calls) <= 128


# -- Bloch seminorm and hyperbolic metric ---------------------------------------


def test_bloch_identity():
    assert bloch_seminorm(IDENTITY).value == pytest.approx(1.0, abs=1e-12)


def test_bloch_square_calculus_oracle():
    # maximize (1 - x^2) * 2x at x = 1/sqrt(3)
    assert bloch_seminorm(SQUARE).value == pytest.approx(4 / (3 * math.sqrt(3)), abs=1e-9)


def test_bloch_seminorms_of_no_maps():
    # verify_gradient_bounds asks for an empty batch when no map meets the
    # hypotheses.
    from harmap.functionals import bloch_seminorms

    assert bloch_seminorms([]) == []


# sha256 of (value, error_estimate) as little-endian doubles, for the Bloch
# seminorms of the 8 maps of FuzzSpec(count=8, degree=32, seed=42), each
# polished alone; recorded when the polish ran one golden-section step a call.
BLOCH_DEGREE_32_DIGEST = "410f0c3fbaccf49b735ae25694a9108a2232682814cdfca4ed84063d54d36d23"


@pytest.fixture(scope="module")
def degree_32_maps():
    return fuzz_corpus(FuzzSpec(count=8, degree=32, seed=42))


def test_bloch_seminorm_of_one_degree_32_map_keeps_its_bits(degree_32_maps):
    values = [(fv.value, fv.error_estimate) for fv in map(bloch_seminorm, degree_32_maps)]
    digest = hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest()
    assert digest == BLOCH_DEGREE_32_DIGEST


def test_bloch_seminorm_of_one_map_polishes_in_few_calls(monkeypatch, degree_32_maps):
    # One problem: the first call of a stage covers its pair (c, d) and 6
    # steps after it (128 probes), each later call 7 steps (127 probes), so
    # the three stages of about 41 steps take 6 calls each, and the origin
    # is read off the coefficients: 18 calls, where one step a call took 126.
    import harmap.functionals as functionals

    shapes = []
    stretch = functionals._stretch

    def counting(f, z):
        shapes.append(np.shape(z))
        return stretch(f, z)

    monkeypatch.setattr(functionals, "_stretch", counting)
    bloch_seminorm(degree_32_maps[0])
    assert len(shapes) == 18
    assert max(math.prod(shape) for shape in shapes) <= 128


def test_bloch_seminorm_of_one_map_keeps_its_bits_at_any_probe_depth(monkeypatch, degree_32_maps):
    # A polish that evaluates one probe a call steps one-point arrays through
    # Horner: its values must keep the bits of the default 7-step depth.
    import harmap.functionals as functionals

    want = [bloch_seminorm(f) for f in degree_32_maps]
    monkeypatch.setattr(functionals, "_PROBES", 1)
    assert [bloch_seminorm(f) for f in degree_32_maps] == want


def test_bloch_affine_and_norm():
    assert bloch_seminorm(AFFINE_ROOT2).value == pytest.approx(math.sqrt(2) + 1, abs=1e-12)


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


def test_length_dominates_mean_stretch_integral(small_corpus):
    # l_f(r) >= (r / K) * int Lambda dtheta for admissible maps
    from harmap import qc_constant
    from harmap.core import wirtinger

    theta = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    for f in small_corpus[:10]:
        k = qc_constant(f)
        for r in (0.4, 0.8):
            fz, fzbar = wirtinger(f, r * np.exp(1j * theta))
            stretch_integral = (2 * np.pi / theta.size) * np.sum(np.abs(fz) + np.abs(fzbar))
            lf = length_function(f, r).value
            assert lf >= (r / k) * stretch_integral - 1e-9 * max(1.0, lf)


# -- error estimates --------------------------------------------------------------


def test_error_estimates_are_honest(small_corpus):
    from harmap.functionals import _circle_lengths, _doubling

    for f in small_corpus[:5]:
        for r in (0.4, 0.8):
            base = area_quadrature(f, r)
            assert abs(area_series(f, r).value - base.value) <= base.error_estimate + 1e-13
            base, moved = (_doubling(*(float(v[0]) for v in _circle_lengths(f, r, n)))
                           for n in (64, 128))
            assert abs(moved.value - base.value) <= base.error_estimate + 1e-13 * (1 + base.value)


def test_functional_value_json():
    fv = area_series(IDENTITY, 0.5)
    assert fv.to_json_dict() == {"value": 0.25, "method": "series", "error_estimate": 0.0}
