import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from harmap import (
    HarmonicMap,
    PowerMajorant,
    SampledMajorant,
    bloch_seminorm,
    check_scaling_lemma,
    chord_interpolation_bound,
    cond_a_constant,
    cond_b_constant,
    cond_c_constant,
    majorant_from_config,
    poisson_kernel,
    poisson_kernel_mean,
    poisson_kernel_wirtinger,
    regularity_check,
    trig_max_identity,
    verify_hl_equivalence,
)
from harmap.lipschitz import default_pair_sample
from harmap.report import PASS

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

W_HALF = PowerMajorant(0.5)
W_ONE = PowerMajorant(1.0)


# -- majorant families -----------------------------------------------------------


def test_power_majorant_values():
    assert W_HALF(4.0) == pytest.approx(2.0)
    assert W_HALF(0.0) == 0.0
    assert W_ONE(0.37) == pytest.approx(0.37)
    with pytest.raises(ValueError):
        W_HALF(-1.0)
    with pytest.raises(ValueError):
        PowerMajorant(1.5)


def test_sampled_majorant_interpolation():
    ts = np.geomspace(0.01, 10.0, 9)
    table = tuple((t, math.sqrt(t)) for t in ts)
    omega = SampledMajorant(table=table)
    # log-linear interpolation reproduces a pure power exactly
    assert omega(0.04) == pytest.approx(0.2, rel=1e-12)
    with pytest.raises(ValueError):
        omega(0.001)
    with pytest.raises(ValueError):
        omega(100.0)


def test_sampled_majorant_rejects_bad_tables():
    with pytest.raises(ValueError):
        SampledMajorant(table=((1.0, 1.0), (2.0, 3.0)))  # omega/t increasing
    with pytest.raises(ValueError):
        SampledMajorant(table=((1.0, 1.0), (0.5, 2.0)))  # t not increasing
    with pytest.raises(ValueError):
        SampledMajorant(table=((1.0, 1.0),))
    for table in (((1.0, 1.0), (math.nan, 2.0), (3.0, 2.5)),  # NaN passes a comparison
                  ((1.0, 1.0), (2.0, math.nan)),
                  ((math.nan, 1.0), (2.0, 1.5)),
                  ((1.0, 1.0), (math.inf, 2.0))):
        with pytest.raises(ValueError):
            SampledMajorant(table=table)


def test_majorant_config_round_trip():
    assert majorant_from_config({"family": "power", "alpha": 0.5}) == W_HALF
    cfg = W_HALF.config()
    assert majorant_from_config(cfg) == W_HALF
    table = [[0.1, 0.3], [1.0, 0.9]]
    omega = majorant_from_config({"family": "sampled", "table": table})
    assert omega.config()["table"] == table
    assert (W_HALF.label(), omega.label()) == ("power(0.5)", "sampled(2)")
    with pytest.raises(ValueError):
        majorant_from_config({"family": "weird"})


# -- scaling lemma and regularity -------------------------------------------------


def test_scaling_lemma_probes():
    res = check_scaling_lemma(W_HALF, [(2.0, 1.0)])
    assert res.ok
    assert math.sqrt(2.0) <= 2.0
    res = check_scaling_lemma(W_ONE, [(1.0, t) for t in (0.1, 1.0, 7.0)])
    assert res.ok and not res.witnesses
    with pytest.raises(ValueError):
        check_scaling_lemma(W_HALF, [(0.5, 1.0)])


@given(st.floats(1.0, 100.0), st.floats(1e-6, 100.0), st.floats(0.05, 1.0))
def test_scaling_lemma_power_family(lam, t, alpha):
    assert check_scaling_lemma(PowerMajorant(alpha), [(lam, t)]).ok


def test_regularity_power_constants():
    rep = regularity_check(W_HALF)
    assert rep.c_eq2 == pytest.approx(2.0, rel=1e-4)
    assert rep.c_eq3 == pytest.approx(2.0, rel=1e-4)
    rep = regularity_check(PowerMajorant(0.25))
    assert rep.c_eq2 == pytest.approx(4.0, rel=1e-4)
    assert rep.c_eq3 == pytest.approx(4.0 / 3.0, rel=1e-4)
    rep = regularity_check(W_ONE)
    assert rep.c_eq2 == pytest.approx(1.0, rel=1e-4)
    assert rep.c_eq3 is None


def test_regularity_sampled_truncation_recorded():
    ts = np.geomspace(1e-5, 1e4, 40)
    omega = SampledMajorant(table=tuple((t, t**0.5) for t in ts))
    rep = regularity_check(omega)
    assert rep.c_eq2 == pytest.approx(2.0, rel=1e-2)
    assert rep.c_eq3 is not None and rep.c_eq3_truncation >= 0.0


# -- growth-condition constants ----------------------------------------------------


def test_cond_a_closed_forms():
    assert cond_a_constant(IDENTITY, W_ONE) == pytest.approx(1.0, abs=1e-9)
    assert cond_a_constant(AFFINE_ROOT2, W_ONE) == pytest.approx(math.sqrt(2) + 1, abs=1e-9)
    assert cond_a_constant(CONSTANT, W_ONE) == pytest.approx(0.0, abs=1e-15)


def test_cond_b_closed_forms():
    assert cond_b_constant(IDENTITY, W_ONE) == pytest.approx(1.0, abs=1e-6)
    assert cond_b_constant(CONSTANT, W_ONE) == pytest.approx(0.0, abs=1e-15)


def test_cond_b_chain_below_pi_cond_a(small_corpus):
    for f in (IDENTITY, AFFINE_HALF, AFFINE_ROOT2, SQUARE, *small_corpus[:4]):
        for omega in (W_HALF, W_ONE):
            c1 = cond_a_constant(f, omega)
            c2 = cond_b_constant(f, omega)
            assert c2 <= math.pi * c1 + 1e-6


def test_cond_c_identity_oracle():
    # mean of |zeta - z| over D(z, r) is 2r/3, so the ratio is 2r/3 <= 2/3
    c3 = cond_c_constant(IDENTITY, W_ONE)
    assert c3 == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert cond_c_constant(CONSTANT, W_ONE) == pytest.approx(0.0, abs=1e-14)


def _disk_mean_one_probe(f, z0, r):
    """(1 / |D(z0, r)|) int |f - f(z0)| dA by its own evaluation of f, on the
    nodes of ``_probe_grids``."""
    from harmap.grids import _roots_legendre_01

    x, wts = _roots_legendre_01(32)
    rho = r * x
    theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    vals = np.abs(f(z0 + rho[:, None] * np.exp(1j * theta)[None, :]) - f(z0))
    return float((2.0 / r) * np.sum((wts * rho) @ vals) / 128)


def test_batched_disk_means_keep_the_per_probe_bits():
    # _disk_means evaluates f on all 18 probes' nodes in one call; each mean
    # must keep the bits of its probe evaluated on its own.
    from harmap.lipschitz import _MEAN_PROBES, _disk_means
    from harmap.verify import FuzzSpec, builtin_maps, fuzz_corpus

    for f in [*builtin_maps().values(), *fuzz_corpus(FuzzSpec(count=8, degree=8, seed=42))]:
        want = tuple((frac * (1.0 - abs(z0)), _disk_mean_one_probe(f, z0, frac * (1.0 - abs(z0))))
                     for z0, fractions in _MEAN_PROBES for frac in fractions)
        assert _disk_means(f) == want


def test_cond_c_finite_when_cond_a_finite(small_corpus):
    for f in small_corpus[:4]:
        c1 = cond_a_constant(f, W_HALF)
        c3 = cond_c_constant(f, W_HALF)
        assert math.isfinite(c1) and math.isfinite(c3) and c3 > 0.0


# -- Poisson kernel -----------------------------------------------------------------


def test_poisson_kernel_center_value():
    z = 0.1 + 0.1j
    for theta in (0.0, 1.3, 4.0):
        assert poisson_kernel(z, z, 0.5, theta) == pytest.approx(1.0)


def test_poisson_kernel_nonnegative_unit_mean():
    rng = np.random.default_rng(0)
    for _ in range(25):
        z = complex(*rng.uniform(-0.3, 0.3, 2))
        r = rng.uniform(0.2, 0.6)
        w = z + r * 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        assert np.all(poisson_kernel(w, z, r, th) >= 0.0)
        assert poisson_kernel_mean(w, z, r) == pytest.approx(1.0, abs=1e-10)


def test_poisson_kernel_pole_rejected():
    with pytest.raises(ValueError):
        poisson_kernel(0.5, 0.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        poisson_kernel_wirtinger(0.7, 0.0, 0.5, 0.1)


def test_poisson_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(50):
        z = complex(*rng.uniform(-0.2, 0.2, 2))
        r = rng.uniform(0.2, 0.6)
        w = z + (r / 2) * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        th = float(rng.uniform(0, 2 * np.pi))
        dw, dwbar = poisson_kernel_wirtinger(w, z, r, th)
        px = (poisson_kernel(w + h, z, r, th) - poisson_kernel(w - h, z, r, th)) / (2 * h)
        py = (poisson_kernel(w + 1j * h, z, r, th) - poisson_kernel(w - 1j * h, z, r, th)) / (2 * h)
        fd_dw = (px - 1j * py) / 2
        fd_dwbar = (px + 1j * py) / 2
        assert abs(fd_dw - dw) <= 1e-6 * (1 + abs(dw))
        assert abs(fd_dwbar - dwbar) <= 1e-6 * (1 + abs(dwbar))


def test_poisson_derivative_bound_half_disk():
    rng = np.random.default_rng(2)
    z = 0.05 - 0.1j
    for r in (0.2, 0.5):
        w = z + (r / 2) * np.sqrt(rng.random(2000)) * np.exp(2j * np.pi * rng.random(2000))
        th = rng.uniform(0, 2 * np.pi, 2000)
        sup = 0.0
        for wi, ti in zip(w, th):
            dw, dwbar = poisson_kernel_wirtinger(complex(wi), z, r, float(ti))
            sup = max(sup, abs(dw), abs(dwbar))
        assert sup <= 21.0 / (2.0 * r) + 1e-12


# -- trigonometric maximum and the chord bound --------------------------------------


def test_trig_max_trivial_cases():
    g, c = trig_max_identity(1.0, 0.0)
    assert g == pytest.approx(1.0, abs=1e-6) and c == pytest.approx(1.0)
    g, c = trig_max_identity(1.0, 1j)
    assert g == pytest.approx(1.0, abs=1e-6) and c == pytest.approx(1.0)


def test_trig_max_random_agreement():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = complex(*rng.uniform(-1, 1, 2))
        z = complex(*rng.uniform(-1, 1, 2))
        g, c = trig_max_identity(w, z)
        assert g == pytest.approx(c, abs=1e-6)
        assert g <= c + 1e-12  # the grid never exceeds the true maximum


@given(disk_points(0.999), disk_points(0.999), st.floats(1e-6, 1 - 1e-6))
def test_chord_bound_is_algebraic(z, w, t):
    lhs, rhs = chord_interpolation_bound(z, w, t)
    assert lhs >= rhs - 1e-12


# -- equivalence of gradient and modulus bounds --------------------------------------


def test_hl_affine_linear_majorant_exact_constants():
    fwd, rev = verify_hl_equivalence(AFFINE_ROOT2, W_ONE)
    lam = math.sqrt(2) + 1
    assert fwd.status == PASS and rev.status == PASS
    assert fwd.details["C4"] == pytest.approx(lam, abs=1e-9)
    assert fwd.details["C5"] == pytest.approx(lam, rel=1e-6)
    assert fwd.details["inflation"] <= math.pi + 1e-6
    assert rev.lhs <= 21.0 * fwd.details["C5"] / math.pi + 1e-6


def test_hl_constant_map_degenerates_to_zero():
    fwd, rev = verify_hl_equivalence(CONSTANT, W_HALF)
    assert fwd.details["C4"] == pytest.approx(0.0, abs=1e-14)
    assert fwd.details["C5"] == pytest.approx(0.0, abs=1e-14)
    assert fwd.status == PASS and rev.status == PASS


@pytest.mark.parametrize("omega", [W_HALF, W_ONE])
@pytest.mark.parametrize(
    "f", [AFFINE_ROOT2, AFFINE_HALF, SQUARE, MIXED], ids=["root2", "half", "square", "mixed"]
)
def test_hl_both_directions_pass(f, omega):
    fwd, rev = verify_hl_equivalence(f, omega)
    assert fwd.status == PASS
    assert rev.status == PASS


@pytest.mark.parametrize("omega", [W_HALF, W_ONE])
def test_hl_reverse_reads_every_grid_node(omega):
    # Every node of GRID lies at d >= 1e-3, so hl-reverse's lhs and witness
    # are the max and argmax of d Lambda_f / omega(d) over the whole grid.
    # With W_ONE the argmax lies on the outermost ring, d = 0.005.
    from harmap.core import _grid_scan
    from harmap.grids import GRID
    from harmap.verify import FuzzSpec, fuzz_corpus

    nodes = GRID.nodes.ravel()
    d = 1.0 - np.abs(nodes)
    assert np.all(d >= 1e-3)
    f = fuzz_corpus(FuzzSpec(count=1, degree=8, seed=42))[0]
    ratios = _grid_scan(f)[0].ravel() * d / omega(d)
    k = int(np.argmax(ratios))
    _, rev = verify_hl_equivalence(f, omega)
    assert rev.lhs == ratios[k]
    assert rev.witnesses == [(complex(nodes[k]), float(ratios[k]))]


# -- Bloch comparison for analytic maps ----------------------------------------------


def test_analytic_two_point_sup_comparable_to_bloch(small_corpus):
    # For analytic maps the two-point constant with the linear majorant and
    # the Bloch seminorm bound each other by absolute factors (2 and pi).
    for f in small_corpus[:5]:
        analytic = HarmonicMap(a=f.a, b=tuple(0j for _ in f.b))
        beta = bloch_seminorm(analytic).value
        c2 = cond_b_constant(analytic, W_ONE)
        assert beta <= 2.0 * c2 + 1e-9
        assert c2 <= math.pi * beta + 1e-9


def test_default_pair_sample_masks_degenerate_pairs():
    z, w = default_pair_sample()
    assert z.shape == w.shape
    assert np.all(np.abs(w) < 1.0) and np.all(np.abs(z) < 1.0)


def test_map_independent_pair_samples_are_built_once():
    from harmap.lipschitz import _hl_sample

    for sample in (default_pair_sample, _hl_sample):
        z, w = sample()
        assert sample()[0] is z
        assert not z.flags.writeable and not w.flags.writeable


def test_memoized_map_sides_are_read_only_and_shared():
    from harmap.core import _campaign_memo, _grid_scan
    from harmap.lipschitz import _hl_fields, _pair_quotients

    with _campaign_memo():
        sides = [_grid_scan(IDENTITY)[0], _pair_quotients(IDENTITY), *_hl_fields(IDENTITY)]
        assert _grid_scan(IDENTITY)[0] is sides[0] and _pair_quotients(IDENTITY) is sides[1]
    assert not any(arr.flags.writeable for arr in sides)
