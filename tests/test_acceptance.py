"""Acceptance gate: equality-case reproduction plus corpus property sweeps.

Each test covers one numbered criterion at its stated tolerance and prints
one pass line (run with ``pytest -s`` to see them as they go). The shared
corpus is 1000 maps of degree 8 with coefficient dominance, rescaled to
total area at most 1, generated from seed 42.
"""

import hashlib
import importlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from harmap import (
    FuzzSpec,
    HarmonicMap,
    PowerMajorant,
    area_quadrature,
    area_series,
    coeff_from_contour,
    cond_a_constant,
    cond_b_constant,
    cond_c_constant,
    chord_interpolation_bound,
    derivatives,
    directional_derivative_max,
    fuzz_corpus,
    poisson_kernel_mean,
    poisson_kernel,
    poisson_kernel_wirtinger,
    regularity_check,
    trig_max_identity,
    verify_area_overlap,
    verify_coeff_bound,
    verify_gradient_bound,
    verify_hardy_area,
    verify_hl_equivalence,
    verify_isoperimetric,
    verify_three_circles,
)
from harmap.cli import main
from harmap.core import map_json_bytes
from harmap.report import PASS
from harmap.verify import verify_gradient_bounds

CORPUS_SPEC = FuzzSpec(count=1000, degree=8, seed=42)
_STATE: dict = {}


@pytest.fixture(scope="module")
def corpus():
    if "corpus" not in _STATE:
        t0 = time.perf_counter()
        _STATE["corpus"] = fuzz_corpus(CORPUS_SPEC)
        _STATE["gen_seconds"] = time.perf_counter() - t0
    return _STATE["corpus"]


def report_line(number, label, elapsed):
    print(f"[acceptance] {number:02d} {label}: PASS ({elapsed:.2f}s)")


AFFINE_FAMILY = [
    HarmonicMap(a=(0, math.sqrt(2)), b=(1.0,)),
    HarmonicMap(a=(0, 1.25), b=(0.75,)),
]
IDENTITY = HarmonicMap(a=(0, 1), b=(0,))


def test_01_three_circles_sharpness():
    t0 = time.perf_counter()
    for f in AFFINE_FAMILY:
        for r1 in (0.1, 0.3):
            for r in (0.3, 0.5, 0.7, 0.9):
                rep = verify_three_circles(f, r1, r)
                assert rep.status == PASS
                assert abs(rep.margin) <= 1e-12
                assert rep.details["m"] == pytest.approx(r1 * r1, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_line(1, "three-circles sharpness (affine family)", elapsed)


def test_02_analytic_rotation_sharpness():
    t0 = time.perf_counter()
    for phi in (0.0, math.pi / 4, 2.0):
        lam = complex(math.cos(phi), math.sin(phi))
        f = HarmonicMap(a=(0, lam), b=(0,))
        for r1 in (0.1, 0.3):
            for r in (0.3, 0.5, 0.7, 0.9):
                rep = verify_three_circles(f, r1, r)
                assert rep.status == PASS
                assert abs(rep.margin) <= 1e-12
    report_line(2, "analytic rotation sharpness", time.perf_counter() - t0)


def test_03_three_circles_fuzz(corpus):
    t0 = time.perf_counter()
    for f in corpus:
        for r1, r in ((0.1, 0.3), (0.1, 0.5), (0.3, 0.6), (0.3, 0.9)):
            rep = verify_three_circles(f, r1, r)
            assert rep.status == PASS
            assert rep.margin >= -1e-12
    elapsed = time.perf_counter() - t0 + _STATE["gen_seconds"]
    assert elapsed < 30.0
    report_line(3, "three-circles fuzz corpus (1000 maps)", elapsed)


def test_04_oracle_agreement(corpus):
    t0 = time.perf_counter()
    for f in corpus:
        for r in (0.3, 0.6, 0.9):
            assert abs(area_series(f, r).value - area_quadrature(f, r).value) <= 1e-10
        m = 8 * f.degree
        for n in range(1, f.degree + 1):
            an, bn = coeff_from_contour(f, n, 0.7, m)
            assert abs(an - f.a[n]) <= 1e-10
            assert abs(bn - f.b[n - 1]) <= 1e-10
    report_line(4, "area and contour oracle agreement", time.perf_counter() - t0)


def test_05_length_coefficient_gradient_bounds(corpus):
    t0 = time.perf_counter()
    (rep,) = verify_coeff_bound(IDENTITY)
    assert rep.lhs == 1.0
    assert abs(rep.rhs - 1.0) <= 1e-9  # K l_f(1) / (2 pi) with l_f(1) = 2 pi
    grads = {r.name: r for r in verify_gradient_bound(IDENTITY, sample=[0j])}
    assert grads["gradient-bound-length"].lhs == pytest.approx(1.0)
    assert abs(grads["gradient-bound-length"].rhs - derivatives(IDENTITY, 0j).max_stretch) <= 1e-9
    assert abs(grads["gradient-bound-area"].rhs - 1.0) <= 1e-9
    for f in corpus:
        for rep in verify_coeff_bound(f):
            assert rep.status == PASS
    # The batched form polishes every map's Bloch sup in lockstep; on 20
    # maps it matches the one-map form bit for bit.
    defaults = [None] * len(corpus)
    for reps in verify_gradient_bounds(corpus, defaults):
        for rep in reps:
            assert rep.status == PASS
    def rows(chunks):
        return json.dumps([rep.to_json_dict() for chunk in chunks for rep in chunk])

    batched = verify_gradient_bounds(corpus[:20], defaults[:20])
    assert rows(batched) == rows(verify_gradient_bound(f) for f in corpus[:20])
    report_line(5, "length-derived coefficient and stretch bounds", time.perf_counter() - t0)


def test_06_hardy_area_bound(corpus):
    t0 = time.perf_counter()
    rep = verify_hardy_area(IDENTITY)
    assert rep.lhs == 1.0 and rep.rhs == 1.0 and rep.margin == 0.0
    for f in corpus:
        rep = verify_hardy_area(f)
        assert rep.status == PASS
        assert rep.margin >= -1e-9 * rep.rhs
    report_line(6, "Hardy-norm vs image-area bound", time.perf_counter() - t0)


def test_07_isoperimetric(corpus):
    t0 = time.perf_counter()
    for r in (0.3, 0.6, 0.9):
        rep = verify_isoperimetric(IDENTITY, r)
        assert abs(rep.margin) <= 1e-9
        for f in corpus:
            rep = verify_isoperimetric(f, r)
            assert rep.status == PASS
            assert rep.margin >= -1e-9
    report_line(7, "isoperimetric bound on the corpus", time.perf_counter() - t0)


def test_08_area_overlap_desk_scale():
    t0 = time.perf_counter()
    for t in (0.1, 0.5):
        f = HarmonicMap(a=(0, t), b=(0,))
        rep = verify_area_overlap(f, mc_samples=1_000_000)
        assert rep.details["K"] == 1.0
        sigma = rep.details["mc_sigma"]
        assert abs(rep.lhs - (1 + t * t)) <= 3 * sigma + 1e-12
        assert rep.lhs >= 1.0 - 3 * sigma
        assert rep.status == PASS
    for f in AFFINE_FAMILY:
        rep = verify_area_overlap(f, mc_samples=1_000_000)
        assert rep.status == PASS
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report_line(8, "overlap-area bound (Monte Carlo)", elapsed)


def test_09_majorant_regularity():
    t0 = time.perf_counter()
    for alpha in (0.25, 0.5, 0.75):
        rep = regularity_check(PowerMajorant(alpha))
        assert rep.c_eq2 == pytest.approx(1.0 / alpha, rel=0.05)
        assert rep.c_eq3 == pytest.approx(1.0 / (1.0 - alpha), rel=0.05)
    rep = regularity_check(PowerMajorant(1.0))
    assert rep.c_eq2 == pytest.approx(1.0, rel=0.05)
    assert rep.c_eq3 is None
    report_line(9, "majorant regularity constants", time.perf_counter() - t0)


def test_10_poisson_kernel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    z = 0.1 - 0.05j
    for r in (0.2, 0.5):
        sup = 0.0
        for _ in range(100):  # 100 centers x 100 angles = 10^4 samples per radius
            w = z + (r / 2) * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            w = complex(w)
            assert abs(poisson_kernel_mean(w, z, r) - 1.0) <= 1e-10
            th = rng.uniform(0.0, 2.0 * np.pi, 100)
            dw, dwbar = poisson_kernel_wirtinger(w, z, r, th)
            sup = max(sup, float(np.max(np.abs(dw))), float(np.max(np.abs(dwbar))))
            assert np.all(np.abs(dw) <= 21.0 / (2.0 * r) + 1e-12)
            assert np.all(np.abs(dwbar) <= 21.0 / (2.0 * r) + 1e-12)
            h = 1e-6
            ti = float(th[0])
            px = (poisson_kernel(w + h, z, r, ti) - poisson_kernel(w - h, z, r, ti)) / (2 * h)
            py = (poisson_kernel(w + 1j * h, z, r, ti) - poisson_kernel(w - 1j * h, z, r, ti)) / (2 * h)
            assert abs((px - 1j * py) / 2 - dw[0]) <= 1e-6 * (1 + abs(dw[0]))
            assert abs((px + 1j * py) / 2 - dwbar[0]) <= 1e-6 * (1 + abs(dwbar[0]))
        assert sup <= 21.0 / (2.0 * r)  # empirical maximum, recorded below
        print(f"    poisson derivative sup at r={r}: {sup:.3f} vs bound {21/(2*r):.3f}")
    report_line(10, "Poisson kernel mean, derivatives, bound", time.perf_counter() - t0)


def test_11_trig_identity_and_directional_max(corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(100):
        w = complex(*rng.uniform(-1, 1, 2))
        v = complex(*rng.uniform(-1, 1, 2))
        grid_val, closed = trig_max_identity(w, v)
        assert abs(grid_val - closed) <= 1e-6
    for f in corpus[:25]:
        for _ in range(4):
            z = complex(0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
            lam = derivatives(f, z).max_stretch
            assert abs(directional_derivative_max(f, z) - lam) <= 1e-6
    report_line(11, "trig maximum identity and directional stretch", time.perf_counter() - t0)


def test_12_growth_condition_chain():
    t0 = time.perf_counter()
    for f in AFFINE_FAMILY:
        for omega in (PowerMajorant(0.5), PowerMajorant(1.0)):
            c1 = cond_a_constant(f, omega)
            c2 = cond_b_constant(f, omega)
            c3 = cond_c_constant(f, omega)
            assert all(map(math.isfinite, (c1, c2, c3)))
            assert c2 <= math.pi * c1 + 1e-6
            print(f"    alpha={omega.alpha}: C1={c1:.4f} C2={c2:.4f} C3={c3:.4f} "
                  f"C2/C1={c2 / c1:.4f} C3/C1={c3 / c1:.4f}")
    rng = np.random.default_rng(12)
    n = 10_000
    z = 0.999 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    w = 0.999 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    t = rng.uniform(1e-9, 1 - 1e-9, n)
    lhs, rhs = chord_interpolation_bound(z, w, t)
    assert np.all(lhs >= rhs - 1e-12)
    report_line(12, "growth-condition constant chain", time.perf_counter() - t0)


def test_13_gradient_modulus_equivalence():
    t0 = time.perf_counter()
    family = AFFINE_FAMILY + [
        HarmonicMap(a=(0, 0, 1), b=(0, 0)),
        HarmonicMap(a=(0, 1, 0), b=(0, 0.3)),
    ]
    for f in family:
        for omega in (PowerMajorant(0.5), PowerMajorant(1.0)):
            fwd, rev = verify_hl_equivalence(f, omega)
            assert fwd.status == PASS
            assert rev.status == PASS
            assert rev.lhs <= 21.0 * fwd.details["C5"] / math.pi + 1e-6
    report_line(13, "gradient vs modulus-of-continuity equivalence", time.perf_counter() - t0)


DEFAULT_CAMPAIGN_SHA256 = "f804fa72d5d9fa8fac834cb3e8388ab251a7ef4f3a1867b1b50c9aa576900b62"


def test_14_full_suite_determinism(tmp_path):
    t0 = time.perf_counter()
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    t_run = time.perf_counter()
    assert main(["verify", "--out", str(out1), "--seed", "42"]) == 0
    first_run = time.perf_counter() - t_run
    assert main(["verify", "--out", str(out2), "--seed", "42"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # The seed-42 report digest, also pinned by perfbench/workloads.py: a
    # deliberate change to the report bytes updates both.
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == DEFAULT_CAMPAIGN_SHA256
    rows = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(rows) == len({(row["name"], row["n"]) for row in rows}) == 1422
    assert first_run < 60.0
    report_line(14, f"default campaign determinism ({first_run:.1f}s/run)", time.perf_counter() - t0)


def test_campaign_digest_pins_agree(monkeypatch):
    # The benchmark checks its campaign runs against its own copy of the
    # digest, and CI checks the installed entry point against a third; a
    # re-pin must update all three copies.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert workloads.CAMPAIGN_REFERENCE[42] == DEFAULT_CAMPAIGN_SHA256
    assert DEFAULT_CAMPAIGN_SHA256 in (root / ".github" / "workflows" / "tier1.yml").read_text()


# sha256 of the concatenated map file bytes of the benchmark's two fuzz
# corpora: 1000 maps of degree 8 (the `corpus` workload, CORPUS_SPEC) and
# 32 maps of degree 32 (the `query` workload), both at seed 42.
CORPUS_SHA256 = "038e4866c73bb0a3eab8956816cac5a2d27f1eb95edd2f9ca968af8798296f4a"
QUERY_CORPUS_SHA256 = "4fc8bdaebd0b9d15f305a8373c687462105238196e54189b51d87df7b87041eb"


def test_benchmark_corpora_bytes_are_pinned(corpus):
    query = fuzz_corpus(FuzzSpec(count=32, degree=32, seed=42))
    for maps, digest in ((corpus, CORPUS_SHA256), (query, QUERY_CORPUS_SHA256)):
        assert hashlib.sha256(b"".join(map(map_json_bytes, maps))).hexdigest() == digest
