import io
import json
import math

import numpy as np
import pytest

from harmap import (
    DiskDomain,
    FuzzSpec,
    GenerationFailed,
    Grid,
    HarmonicMap,
    QuadratureSpec,
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


def test_three_circles_argument_validation():
    with pytest.raises(ValueError):
        verify_three_circles(IDENTITY, 0.0, 0.5)
    with pytest.raises(ValueError):
        verify_three_circles(IDENTITY, 0.3, 1.0)
    with pytest.raises(ValueError):
        verify_three_circles(IDENTITY, 0.6, 0.3)


# -- area overlap ----------------------------------------------------------------


def test_area_overlap_scaling_family_exact():
    q = QuadratureSpec(mc_samples=100_000)
    for t in (0.5, 0.1, 0.01):
        f = HarmonicMap(a=(0, t), b=(0,))
        rep = verify_area_overlap(f, q=q, K=1.0)
        assert rep.status == PASS
        # constant integrand: the Monte Carlo estimate is exact
        assert rep.lhs == pytest.approx(1 + t * t, abs=1e-12)
        assert rep.margin == pytest.approx(t * t, abs=1e-12)


def test_area_overlap_identity_and_affine():
    q = QuadratureSpec(mc_samples=100_000)
    rep = verify_area_overlap(IDENTITY, q=q)
    assert rep.status == PASS and rep.lhs == pytest.approx(2.0, abs=1e-12)
    rep = verify_area_overlap(AFFINE_ROOT2, q=q)
    assert rep.status == PASS
    assert rep.details["K"] == pytest.approx((math.sqrt(2) + 1) / (math.sqrt(2) - 1), rel=1e-9)
    assert rep.lhs >= rep.rhs - 3 * rep.details["mc_sigma"]


def test_area_overlap_affine_matches_ellipse_oracle():
    # J = 1 everywhere, so the multiplicity area of f(D_r) is r^2 and the
    # image-overlap estimate must agree with the indicator mean.
    q = QuadratureSpec(mc_samples=200_000)
    rep = verify_area_overlap(AFFINE_ROOT2, q=q)
    assert rep.details["image_overlap_area"] == pytest.approx(
        rep.details["preimage_area"], abs=1e-9
    )


def test_area_overlap_hypothesis_gates():
    q = QuadratureSpec(mc_samples=10_000)
    rep = verify_area_overlap(SQUARE, q=q)
    assert rep.status == HYPOTHESIS_VIOLATED
    assert not rep.hypotheses["univalence certified or assumed"]
    rep = verify_area_overlap(SQUARE, q=q, assume_univalent=True)
    assert rep.status == PASS
    shifted = HarmonicMap(a=(0.2, 1), b=(0,))
    rep = verify_area_overlap(shifted, q=q)
    assert rep.status == HYPOTHESIS_VIOLATED and not rep.hypotheses["f(0) = 0"]
    with pytest.raises(ValueError):
        verify_area_overlap(IDENTITY, DiskDomain(center=5 + 0j), q=q)


def test_area_overlap_general_disks():
    q = QuadratureSpec(mc_samples=100_000)
    rep = verify_area_overlap(
        IDENTITY,
        DiskDomain(center=0.2 + 0j, radius=1.5),
        DiskDomain(center=0j, radius=2.0),
        q=q,
    )
    assert rep.status == PASS


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
        verify_area_overlap(anti, q=QuadratureSpec(mc_samples=10_000)),
        *verify_coeff_bound(anti),
        *verify_gradient_bound(anti),
    ):
        assert rep.status == HYPOTHESIS_VIOLATED
        assert not rep.hypotheses["sense-preserving"]


def test_qc_verifiers_share_one_distortion_scan(monkeypatch):
    # Sense preservation and K come from one evaluation of the derivative
    # fields on the grid, shared by every verifier with that hypothesis.
    import harmap.verify as verify

    scans = []
    original = verify.wirtinger

    def counting(f, z):
        if np.shape(z) == Grid().nodes.shape:
            scans.append(f)
        return original(f, z)

    monkeypatch.setattr(verify, "wirtinger", counting)
    for name in ("is_sense_preserving", "qc_constant"):  # fuzz admission's two scans
        monkeypatch.setattr(verify, name, lambda *a, _name=name, **k: pytest.fail(_name))
    f = HarmonicMap(a=(0, 1.0, 0.05), b=(0.1, 0.02))  # used by no other test
    reports = [
        verify_area_overlap(f, q=QuadratureSpec(mc_samples=10_000)),
        verify_hardy_area(f),
        *verify_coeff_bound(f),
        *verify_gradient_bound(f),
    ]
    assert scans == [f]
    assert all(rep.hypotheses["sense-preserving"] for rep in reports)
    assert len({rep.details["K"] for rep in reports if "K" in rep.details}) == 1


def test_coeff_and_gradient_bounds_share_one_boundary_length(monkeypatch):
    import harmap.verify as verify

    calls = []
    original = verify.length_sup
    monkeypatch.setattr(verify, "length_sup", lambda f, q: calls.append(q) or original(f, q))
    verify._boundary_length.cache_clear()
    f = HarmonicMap(a=(0, 1.0, 0.07), b=(0.05, 0.03))
    coeff = verify_coeff_bound(f, QuadratureSpec(seed=1))
    verify_gradient_bound(f, q=QuadratureSpec(seed=2))
    assert len(calls) == 1
    assert coeff[0].details["length_sup"] == original(f, QuadratureSpec()).value


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


def test_fuzz_contracts(grid, small_corpus):
    spec = FuzzSpec(count=40, degree=6, seed=7)
    for f in small_corpus:
        assert f.degree == spec.degree
        assert is_sense_preserving(f, grid).ok
        assert qc_constant(f, grid) <= spec.target_K * (1 + 1e-12)
        assert area_sup(f).value <= 1.0 + 1e-12
        a = np.abs(np.asarray(f.a[1:]))
        b = np.abs(np.asarray(f.b))
        assert np.all(b <= a + 1e-12)


def test_fuzz_without_dominance_or_rescale():
    spec = FuzzSpec(count=5, degree=4, seed=11, enforce_coeff_dominance=False,
                    rescale_area=False, target_K=50.0)
    maps = fuzz_corpus(spec)
    assert len(maps) == 5


def test_fuzz_generation_failure():
    # target_K = 1 requires b = 0 exactly; random draws never achieve it
    with pytest.raises(GenerationFailed):
        fuzz_corpus(FuzzSpec(count=1, degree=2, seed=1, target_K=1.0))


def test_fuzz_spec_validation():
    with pytest.raises(ValueError):
        FuzzSpec(count=0)
    with pytest.raises(ValueError):
        FuzzSpec(coeff_decay=1.5)
    with pytest.raises(ValueError):
        FuzzSpec(target_K=0.5)
    # NaN passes a comparison like target_K < 1; a NaN target_K would turn
    # the K admission gate off (k > nan is never true).
    for kwargs in ({"target_K": math.nan}, {"count": math.nan}):
        with pytest.raises(ValueError):
            FuzzSpec(**kwargs)


def test_report_moves_less_than_error_estimate(small_corpus):
    # Doubling the quadrature resolution shifts the quadrature-backed side by
    # less than the recorded error estimate.
    q1 = QuadratureSpec(angular_nodes=64)
    q2 = QuadratureSpec(angular_nodes=128)
    for f in small_corpus[:5]:
        base = verify_coeff_bound(f, q1)
        moved = verify_coeff_bound(f, q2)
        for b, m in zip(base, moved):
            assert abs(m.rhs - b.rhs) <= b.error_estimate + 1e-12 * (1 + abs(b.rhs))
        b = verify_isoperimetric(f, 0.8, q1)
        m = verify_isoperimetric(f, 0.8, q2)
        assert abs(m.rhs - b.rhs) <= b.error_estimate + 1e-12 * (1 + abs(b.rhs))


def test_grid_and_quadrature_validation():
    with pytest.raises(ValueError):
        Grid(n_theta=4)
    with pytest.raises(ValueError):
        Grid(r_max=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(angular_nodes=15)
    with pytest.raises(ValueError):
        QuadratureSpec(mc_samples=100)


def test_builtin_maps_admissible(grid):
    maps = builtin_maps()
    assert set(maps) == {
        "identity", "affine-root2", "affine-quarters", "scale-half",
        "square", "mixed-quadratic",
    }
    for f in maps.values():
        assert is_sense_preserving(f, grid).ok
