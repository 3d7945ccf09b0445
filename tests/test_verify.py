import io
import json
import math

import numpy as np
import pytest

from harmap import (
    FuzzSpec,
    GenerationFailed,
    HarmonicMap,
    area_sup,
    builtin_maps,
    fuzz_corpus,
    is_sense_preserving,
    qc_constant,
    verify_area_overlap,
    verify_coeff_bound,
    verify_gradient_bound,
    verify_hardy_area,
    verify_isoperimetric,
    verify_three_circles,
    write_csv,
    write_json_lines,
)
from harmap.core import _campaign_memo
from harmap.grids import GRID
from harmap.report import FAIL, HYPOTHESIS_VIOLATED, PASS, make_report, summarize

from conftest import AFFINE_HALF, AFFINE_ROOT2, FOLD, IDENTITY, MIXED, SQUARE


# -- report plumbing -----------------------------------------------------------


def test_make_report_status_logic():
    rep = make_report("x", 1.0, 2.0, slack=0.0)
    assert rep.status == PASS and rep.margin == 1.0
    rep = make_report("x", 2.0, 1.0, slack=0.5)
    assert rep.status == FAIL
    rep = make_report("x", 1.0, 1.0 - 1e-13, slack=1e-12)
    assert rep.status == PASS
    rep = make_report("x", None, None, slack=0.0, hypotheses={"h": False})
    assert rep.status == HYPOTHESIS_VIOLATED and not rep.hypotheses_ok
    rep = make_report("x", 2.0, 1.0, slack=0.0, orientation="ge")
    assert rep.status == PASS and rep.margin == 1.0
    rep = make_report("x", 1.0, 2.0, slack=0.0, force_fail=True)
    assert rep.status == FAIL


def test_report_serialization_round_trip():
    rep = make_report(
        "demo", 1.0, 2.0, slack=1e-9, n=3,
        witnesses=[(0.5 + 0.25j, 1.0), (0.3, 2.0)],
        details={"K": 2.5},
    )
    buf = io.StringIO()
    write_json_lines([rep], buf)
    row = json.loads(buf.getvalue())
    assert row["name"] == "demo" and row["n"] == 3 and row["status"] == "pass"
    assert row["witnesses"][0] == [[0.5, 0.25], 1.0]
    buf = io.StringIO()
    write_csv([rep], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "name,n,lhs,rhs,margin,status"
    assert lines[1] == "demo,3,1.0,2.0,1.0,pass"
    assert summarize([rep]) == {PASS: 1, FAIL: 0, HYPOTHESIS_VIOLATED: 0}


# -- three circles --------------------------------------------------------------


@pytest.mark.parametrize("alpha,beta", [(math.sqrt(2), 1.0), (1.25, 0.75)])
@pytest.mark.parametrize("r1,r", [(0.1, 0.3), (0.3, 0.6), (0.3, 0.9)])
def test_three_circles_affine_equality(alpha, beta, r1, r):
    f = HarmonicMap(a=(0, alpha), b=(beta,))
    rep = verify_three_circles(f, r1, r)
    assert rep.status == PASS
    assert abs(rep.margin) <= 1e-12


def test_three_circles_rotation_equality():
    lam = complex(math.cos(1.1), math.sin(1.1))
    f = HarmonicMap(a=(0, lam), b=(0,))
    rep = verify_three_circles(f, 0.2, 0.7)
    assert rep.status == PASS and abs(rep.margin) <= 1e-12


def test_three_circles_corpus(small_corpus):
    for f in small_corpus:
        for r1, r in [(0.1, 0.3), (0.3, 0.9)]:
            rep = verify_three_circles(f, r1, r)
            assert rep.status == PASS
            assert rep.margin >= -1e-12


def test_three_circles_hypothesis_violations():
    big = HarmonicMap(a=(0, 2.0), b=(0,))  # S(1) = 4
    rep = verify_three_circles(big, 0.1, 0.5)
    assert rep.status == HYPOTHESIS_VIOLATED
    assert not rep.hypotheses["S_f(1) <= 1"]
    rep = verify_three_circles(big, 0.9, 0.95)  # m = 3.24 >= 1
    assert rep.status == HYPOTHESIS_VIOLATED
    assert not rep.hypotheses["m < 1"]
    rep = verify_three_circles(MIXED, 0.1, 0.5)  # |b_2| > |a_2| = 0
    assert rep.status == HYPOTHESIS_VIOLATED
    assert not rep.hypotheses["coefficient dominance"]


# Each witness breaks one hypothesis of verify_three_circles, meets the other
# two and the quasiconformal ones, and fails the claim at every campaign pair,
# so that hypothesis is needed. s(z + 0.2 conj(z)^2), s = 0.92^(-1/2), has
# S_f(1) = 1 up to rounding and is univalent: h = s z and |g'| <= 0.4 |h'|.
@pytest.mark.parametrize("f, violated, s1, at_0_9", [
    (HarmonicMap(a=(0, 0.92**-0.5, 0), b=(0, 0.2 * 0.92**-0.5)), "coefficient dominance",
     0.9999999999999999, (0.82338, 0.81542)),
    (HarmonicMap(a=(0, 2.0), b=(0,)), "S_f(1) <= 1", 4.0, (3.24, 0.91447)),
])
def test_three_circles_witnesses_each_hypothesis_is_needed(f, violated, s1, at_0_9):
    from harmap.cli import THREE_CIRCLES_PAIRS
    from harmap.functionals import area_series
    from harmap.verify import _distortion

    K, qc_hyp = _distortion(f)
    assert all(qc_hyp.values()) and K < 2.33
    for r1, r in THREE_CIRCLES_PAIRS:
        rep = verify_three_circles(f, r1, r)
        assert rep.status == HYPOTHESIS_VIOLATED
        assert [key for key, held in rep.hypotheses.items() if not held] == [violated]
        assert rep.details["S1"] == s1
        lhs, rhs = area_series(f, r).value, rep.details["m"] ** (math.log(r) / math.log(r1))
        assert lhs > rhs
    assert (lhs, rhs) == pytest.approx(at_0_9, abs=1e-5)  # the last pair is (0.3, 0.9)


def test_three_circles_argument_validation():
    with pytest.raises(ValueError):
        verify_three_circles(IDENTITY, 0.0, 0.5)
    with pytest.raises(ValueError):
        verify_three_circles(IDENTITY, 0.3, 1.0)
    with pytest.raises(ValueError):
        verify_three_circles(IDENTITY, 0.6, 0.3)


# -- area overlap ----------------------------------------------------------------


def test_area_overlap_scaling_family_exact():
    for t in (0.5, 0.1, 0.01):
        f = HarmonicMap(a=(0, t), b=(0,))
        rep = verify_area_overlap(f, mc_samples=100_000)
        assert rep.status == PASS
        assert rep.details["K"] == 1.0
        # constant integrand: the Monte Carlo estimate is exact
        assert rep.lhs == pytest.approx(1 + t * t, abs=1e-12)
        assert rep.margin == pytest.approx(t * t, abs=1e-12)


def test_area_overlap_identity_and_affine():
    rep = verify_area_overlap(IDENTITY, mc_samples=100_000)
    assert rep.status == PASS and rep.lhs == pytest.approx(2.0, abs=1e-12)
    rep = verify_area_overlap(AFFINE_ROOT2, mc_samples=100_000)
    assert rep.status == PASS
    assert rep.details["K"] == pytest.approx((math.sqrt(2) + 1) / (math.sqrt(2) - 1), rel=1e-9)
    assert rep.lhs >= rep.rhs - 3 * rep.details["mc_sigma"]


def test_area_overlap_affine_matches_ellipse_oracle():
    # J = 1 everywhere, so the multiplicity area of f(D_r) is r^2 and the
    # image-overlap estimate must agree with the indicator mean.
    rep = verify_area_overlap(AFFINE_ROOT2, mc_samples=200_000)
    assert rep.details["image_overlap_area"] == pytest.approx(
        rep.details["preimage_area"], abs=1e-9
    )


def test_area_overlap_hypothesis_gates():
    rep = verify_area_overlap(SQUARE, mc_samples=10_000)
    assert rep.status == HYPOTHESIS_VIOLATED
    assert not rep.hypotheses["univalence certified or assumed"]
    rep = verify_area_overlap(SQUARE, assume_univalent=True, mc_samples=10_000)
    assert rep.status == PASS
    shifted = HarmonicMap(a=(0.2, 1), b=(0,))
    rep = verify_area_overlap(shifted, mc_samples=10_000)
    assert rep.status == HYPOTHESIS_VIOLATED and not rep.hypotheses["f(0) = 0"]


@pytest.mark.parametrize("scale, hits", [(1e5, 0), (1e3, 1)])
def test_area_overlap_of_a_large_map(tmp_path, scale, hits):
    # f^-1(D) has area scale^-2. With no draw in it (1e5 z) the row carries
    # the 95% bound of what the sample cannot see and may not fail; with
    # one draw in 10^6 (1e3 z) the estimate is 1 + 1e-6 with sigma 1.
    from harmap.cli import SuiteConfig, run_config
    from harmap.core import map_json_bytes

    path = tmp_path / "large.json"
    path.write_bytes(map_json_bytes(HarmonicMap(a=(0, scale), b=(0,))))
    (rep,), _ = run_config(SuiteConfig(suites=("area-overlap",), map_files=(str(path),),
                                       include_builtin=False))
    assert rep.details["preimage_area"] == hits * 1e-6
    assert rep.status == PASS
    if hits:
        assert rep.lhs == pytest.approx(1.000001, rel=1e-12)
        assert rep.error_estimate == pytest.approx(3.0, rel=1e-6)
    else:
        assert rep.lhs == 0.0 and abs(rep.margin) <= rep.error_estimate
        assert rep.error_estimate == pytest.approx(3.0 * (scale**2 + 1.0) / 10**6, rel=1e-12)


# -- Hardy-area ------------------------------------------------------------------


def test_hardy_area_identity_equality():
    rep = verify_hardy_area(IDENTITY)
    assert rep.status == PASS
    assert rep.lhs == rep.rhs == 1.0


def test_hardy_area_affine_values():
    rep = verify_hardy_area(AFFINE_HALF)
    assert rep.lhs == pytest.approx(1.25)
    assert rep.rhs == pytest.approx(2.25, abs=1e-12)
    assert rep.status == PASS


def test_hardy_area_corpus(small_corpus):
    for f in small_corpus:
        rep = verify_hardy_area(f)
        assert rep.status == PASS
        assert rep.margin >= -1e-9 * rep.rhs


def test_hardy_area_unbounded_distortion():
    rep = verify_hardy_area(FOLD)
    assert rep.status == HYPOTHESIS_VIOLATED


def test_verifiers_report_sense_reversal_as_hypothesis():
    anti = HarmonicMap(a=(0, 0.2), b=(1.0,))  # conj-dominant, J < 0
    for rep in (
        verify_hardy_area(anti),
        verify_area_overlap(anti, mc_samples=10_000),
        *verify_coeff_bound(anti),
        *verify_gradient_bound(anti),
    ):
        assert rep.status == HYPOTHESIS_VIOLATED
        assert not rep.hypotheses["sense-preserving"]


def test_qc_verifiers_share_one_distortion_scan(monkeypatch):
    # Sense preservation and K come from one evaluation of the derivative
    # fields on the grid, core._grid_scan, shared by every verifier with
    # that hypothesis.
    import harmap.core as core

    scans = []
    original = core.wirtinger

    def counting(f, z):
        if np.shape(z) == GRID.nodes.shape:
            scans.append(f)
        return original(f, z)

    monkeypatch.setattr(core, "wirtinger", counting)
    f = HarmonicMap(a=(0, 1.0, 0.05), b=(0.1, 0.02))  # used by no other test
    with _campaign_memo():  # sharing is a property of a campaign
        reports = [
            verify_area_overlap(f, mc_samples=10_000),
            verify_hardy_area(f),
            *verify_coeff_bound(f),
            *verify_gradient_bound(f),
        ]
        scanned = [key[1:] for key in core._MEMO if key[0] is core._grid_scan.__wrapped__]
        assert scanned == [(f,)]
    assert scans == [f]
    assert all(rep.hypotheses["sense-preserving"] for rep in reports)
    assert len({rep.details["K"] for rep in reports if "K" in rep.details}) == 1


def test_sense_k_and_the_distortion_hypothesis_read_one_scan(monkeypatch):
    # In a campaign, is_sense_preserving, qc_constant and the verifiers'
    # hypothesis evaluate the map's fields on the grid once between them.
    import harmap.core as core
    from harmap.verify import _distortion

    scans = []
    original = core.wirtinger

    def counting(f, z):
        if np.shape(z) == GRID.nodes.shape:
            scans.append(f)
        return original(f, z)

    monkeypatch.setattr(core, "wirtinger", counting)
    f = HarmonicMap(a=(0, 1.0, 0.04), b=(0.2, 0.03))  # used by no other test
    with _campaign_memo():
        sense, K = is_sense_preserving(f), qc_constant(f)
        assert _distortion(f) == (K, {"sense-preserving": sense.ok,
                                            "finite distortion constant": math.isfinite(K)})
    assert scans == [f]
    assert sense.ok and 1.0 < K < math.inf


def test_outside_a_campaign_each_verifier_call_scans_and_keeps_nothing(monkeypatch):
    import harmap.core as core

    scans = []
    original = core.wirtinger
    monkeypatch.setattr(core, "wirtinger", lambda f, z: scans.append(f) or original(f, z))
    f = HarmonicMap(a=(0, 1.0, 0.05), b=(0.1, 0.02))
    assert verify_hardy_area(f) == verify_hardy_area(f)
    assert scans == [f, f]
    assert core._MEMO is None


def test_fuzz_admission_scans_each_draw_once_and_keeps_nothing(monkeypatch):
    # One evaluation of the derivative fields on the grid per draw, from
    # which both the sense and the K gate read; an open campaign memo is
    # left as it was.
    import harmap.core as core
    import harmap.verify as verify

    draws, scans = [], []
    draw, wirtinger = verify._draw_candidate, core.wirtinger

    def drawing(rng, spec):
        draws.append(draw(rng, spec))
        return draws[-1]

    def counting(f, z):
        if z is GRID.nodes:
            scans.append(f)
        return wirtinger(f, z)

    monkeypatch.setattr(verify, "_draw_candidate", drawing)
    monkeypatch.setattr(core, "wirtinger", counting)
    monkeypatch.setattr(FuzzSpec, "target_K", 1.5)  # a tight K gate, so that draws are rejected
    spec = FuzzSpec(count=6, degree=8, seed=22)
    with _campaign_memo():
        maps = fuzz_corpus(spec)
        assert core._MEMO == {}
    assert len(draws) == 37 and len(maps) == spec.count  # 31 draws rejected, one by the sense gate
    assert scans == draws
    assert maps == fuzz_corpus(spec)


def test_coeff_and_gradient_bounds_share_one_boundary_length(monkeypatch):
    # length_sup is memoized in a campaign: the two verifiers evaluate the
    # map's circle lengths once between them.
    import harmap.functionals as functionals

    calls = []
    original = functionals._circle_lengths
    monkeypatch.setattr(functionals, "_circle_lengths",
                        lambda f, rs, n: calls.append(f) or original(f, rs, n))
    f = HarmonicMap(a=(0, 1.0, 0.07), b=(0.05, 0.03))
    with _campaign_memo():  # sharing is a property of a campaign
        coeff = verify_coeff_bound(f)
        gradient = verify_gradient_bound(f)
    assert calls == [f]
    assert coeff[0].details["length_sup"] == functionals.length_sup(f).value
    assert gradient[0].error_estimate == (functionals.length_sup(f).error_estimate
                                          * math.sqrt(coeff[0].details["K"]) / (2.0 * math.pi))


# -- coefficient and gradient bounds ----------------------------------------------


def test_coeff_bound_identity_equality():
    (rep,) = verify_coeff_bound(IDENTITY)
    assert rep.n == 1
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert rep.status == PASS


def test_coeff_bound_affine():
    reps = verify_coeff_bound(AFFINE_HALF)
    assert reps[0].lhs == pytest.approx(1.5)
    assert reps[0].status == PASS and reps[0].margin >= 0


def test_coeff_bound_corpus(small_corpus):
    for f in small_corpus[:15]:
        for rep in verify_coeff_bound(f):
            assert rep.status == PASS


def test_gradient_bound_identity_equalities():
    by_name = {rep.name: rep for rep in verify_gradient_bound(IDENTITY, sample=[0j])}
    rep = by_name["gradient-bound-length"]
    assert rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(1.0, abs=1e-9)
    rep = by_name["gradient-bound-area"]
    assert rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert by_name["bloch-bound"].status == PASS


def test_gradient_bound_square_sample_point():
    reps = verify_gradient_bound(SQUARE, sample=[0.5 + 0j])
    by_name = {rep.name: rep for rep in reps}
    rep = by_name["gradient-bound-length"]
    # Lambda(0.5) (1 - 0.5) = 0.5 against 4 pi sqrt(1) / (2 pi) = 2
    assert rep.lhs == pytest.approx(0.5)
    assert rep.rhs == pytest.approx(2.0, abs=1e-8)
    assert rep.status == PASS


def test_gradient_bound_corpus(small_corpus):
    for f in small_corpus[:15]:
        for rep in verify_gradient_bound(f):
            assert rep.status == PASS


# -- isoperimetric ----------------------------------------------------------------


def test_isoperimetric_identity_equality():
    rep = verify_isoperimetric(IDENTITY, 0.6)
    assert rep.status == PASS
    assert abs(rep.margin) <= 1e-9


def test_isoperimetric_corpus(small_corpus):
    for f in small_corpus:
        for r in (0.3, 0.6, 0.9):
            rep = verify_isoperimetric(f, r)
            assert rep.status == PASS
            assert rep.margin >= -1e-9


# -- fuzzer ------------------------------------------------------------------------


def test_fuzz_determinism():
    spec = FuzzSpec(count=6, degree=5, seed=42)
    assert fuzz_corpus(spec) == fuzz_corpus(spec)


def test_fuzz_degree_one_is_affine():
    (f,) = fuzz_corpus(FuzzSpec(count=1, degree=1, seed=3))
    assert f.degree == 1
    assert abs(f.b[0]) <= abs(f.a[1])


def test_fuzz_contracts(small_corpus):
    spec = FuzzSpec(count=40, degree=6, seed=7)
    for f in small_corpus:
        assert f.degree == spec.degree
        assert is_sense_preserving(f).ok
        assert qc_constant(f) <= spec.target_K * (1 + 1e-12)
        assert area_sup(f).value <= 1.0 + 1e-12
        a = np.abs(np.asarray(f.a[1:]))
        b = np.abs(np.asarray(f.b))
        assert np.all(b <= a + 1e-12)


def test_fuzz_generation_failure(monkeypatch):
    # target_K = 1 requires b = 0 exactly; random draws never achieve it
    monkeypatch.setattr(FuzzSpec, "target_K", 1.0)
    with pytest.raises(GenerationFailed):
        fuzz_corpus(FuzzSpec(count=1, degree=2, seed=1))


def test_fuzz_spec_validation():
    with pytest.raises(ValueError):
        FuzzSpec(count=0)
    # NaN passes a comparison like count < 1.
    for kwargs in ({"count": math.nan}, {"degree": math.nan}):
        with pytest.raises(ValueError):
            FuzzSpec(**kwargs)


def test_report_moves_less_than_error_estimate(small_corpus, monkeypatch):
    # Doubling the circle rules' resolution shifts the quadrature-backed side
    # by less than the recorded error estimate.
    import harmap.functionals as functionals

    def reports(f, n):
        monkeypatch.setattr(functionals, "_circle_nodes", lambda f: n)
        return verify_coeff_bound(f), verify_isoperimetric(f, 0.8)

    for f in small_corpus[:5]:
        (base, b), (moved, m) = reports(f, 64), reports(f, 128)
        for c, d in zip(base, moved):
            assert abs(d.rhs - c.rhs) <= c.error_estimate + 1e-12 * (1 + abs(c.rhs))
        assert abs(m.rhs - b.rhs) <= b.error_estimate + 1e-12 * (1 + abs(b.rhs))


def test_grid_and_quadrature_validation():
    for count in (100, 5_000, 4_000_001):
        with pytest.raises(ValueError, match="mc_samples"):
            verify_area_overlap(IDENTITY, mc_samples=count)


def test_builtin_maps_admissible():
    maps = builtin_maps()
    assert set(maps) == {
        "identity", "affine-root2", "affine-quarters", "scale-half",
        "square", "mixed-quadratic",
    }
    for f in maps.values():
        assert is_sense_preserving(f).ok
