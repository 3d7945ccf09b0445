"""Executable inequality checks and the constrained random-map generator.

Each verifier computes both sides of one inequality, validates its
hypotheses (the quasiconformal ones, sense preservation and a finite
distortion constant K, are read by ``_distortion`` off the map's one scan
of the fixed grid ``grids.GRID`` (64 x 256 nodes up to r = 0.995, which no
argument changes), ``core._grid_scan``, which a campaign memoizes like the
boundary length ``functionals.length_sup``), and returns a
:class:`~harmap.report.VerificationReport` (or a list of them, one per
coefficient index or sample family). Slack policy:
1e-12 absolute for closed-form sides, 1e-9 relative for quadrature-backed
sides, 1e-9 absolute plus the length's error estimate for the isoperimetric
rows, and 3 sigma + 1e-12 for the Monte Carlo overlap.

The fuzzer draws one distribution, the one the three-circles and
quasiconformal checks assume: coefficient vectors with geometric decay
0.55^n, rescaled to coefficient dominance (|b_n| <= |a_n|). It rejects
draws that fail the Jacobian sign scan or have distortion constant above
10 (both from one unmemoized grid scan per draw), and rescales accepted
maps so the total area S_f(1) is at most 1. Streams are derived from
(seed, index), so corpora are reproducible and order independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .core import (
    HarmonicMap,
    _abs2,
    _grid_scan,
    _stretch,
    wirtinger,
)
from .functionals import (
    area_series,
    area_sup,
    bloch_seminorms,
    length_function,
    length_sup,
)
from .grids import disk_sample
from .report import VerificationReport, make_report

__all__ = [
    "FuzzSpec",
    "GenerationFailed",
    "fuzz_corpus",
    "builtin_maps",
    "verify_three_circles",
    "verify_area_overlap",
    "verify_hardy_area",
    "verify_coeff_bound",
    "verify_gradient_bound",
    "verify_gradient_bounds",
    "verify_isoperimetric",
]

# Absolute slack for closed-form comparisons; relative slack for
# quadrature-backed ones.
CLOSED_FORM_SLACK = 1e-12
QUADRATURE_SLACK_REL = 1e-9

_MC_CHUNK = 1 << 16  # Monte Carlo points whose derivative fields are held at once
_GRADIENT_SAMPLES = 64  # seeded sample points of verify_gradient_bound


def _check_mc_samples(count: int) -> None:
    """Refuse a Monte Carlo size outside 10^4..4 10^6: fewer samples leave an
    area verdict no meaningful 3-sigma band, and an overlap estimate peaks at
    about 45 B a sample."""
    if not 10_000 <= count <= 4_000_000:
        raise ValueError(f"mc_samples must lie in 10000..4000000, got {count!r}")


# ---------------------------------------------------------------------------
# Constrained random maps
# ---------------------------------------------------------------------------


class GenerationFailed(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


_COEFF_DECAY = 0.55  # coefficients of degree n shrink like _COEFF_DECAY^n


@dataclass(frozen=True)
class FuzzSpec:
    """Generator settings for a reproducible corpus of admissible maps.

    Coefficients decay geometrically like 0.55^n, and b_n is rescaled onto
    |b_n| <= |a_n|. Draws failing the Jacobian sign scan on ``grids.GRID``,
    or whose distortion constant exceeds target_K = 10, are redrawn (at most
    100 attempts per map). Accepted maps are scaled so S_f(1) <= 1.
    """

    count: int = 100
    degree: int = 8
    seed: int = 42

    target_K = 10.0
    MAX_DEGREE = 64
    MAX_ATTEMPTS = 100
    MAX_COUNT = 10_000  # 10 000 maps of degree 64 peak at about 75 MB

    def __post_init__(self):
        if not 1 <= self.count <= self.MAX_COUNT:  # each check is written so that NaN fails it
            raise ValueError(f"count must lie in 1..{self.MAX_COUNT}")
        if not 1 <= self.degree <= self.MAX_DEGREE:
            raise ValueError(f"degree must lie in 1..{self.MAX_DEGREE}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def _complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def _draw_candidate(rng: np.random.Generator, spec: FuzzSpec) -> HarmonicMap:
    d = spec.degree
    a = np.zeros(d + 1, dtype=complex)
    b = np.zeros(d, dtype=complex)
    # A dominant linear term keeps most draws sense-preserving; higher
    # coefficients shrink like decay^n / n so the derivative tail stays small.
    a[1] = rng.uniform(0.7, 1.3) * np.exp(2j * np.pi * rng.random())
    if d >= 2:
        n = np.arange(2, d + 1)
        a[2:] = _COEFF_DECAY**n / (2.0 * n) * _complex_normal(rng, d - 1)
    n = np.arange(1, d + 1)
    b[:] = 0.35 * _COEFF_DECAY**n / n * _complex_normal(rng, d)
    over = np.abs(b) > np.abs(a[1:])  # rescaled onto coefficient dominance |b_n| <= |a_n|
    b[over] *= np.abs(a[1:])[over] / np.abs(b)[over]
    return HarmonicMap(a=tuple(a), b=tuple(b))


def fuzz_corpus(spec: FuzzSpec) -> list[HarmonicMap]:
    """Deterministic corpus of maps satisfying the spec's admissibility gates.

    Per-map RNG streams are derived from (seed, index), so the corpus does
    not depend on generation order and re-running with the same seed
    reproduces it exactly.
    """
    maps: list[HarmonicMap] = []
    for idx in range(spec.count):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, idx)))
        accepted = None
        last_min_j = math.nan
        last_k = math.nan
        for _ in range(spec.MAX_ATTEMPTS):
            cand = _draw_candidate(rng, spec)
            _, sense, k = _grid_scan.__wrapped__(cand)  # a draw stays out of the memo
            last_min_j = sense.min_jacobian
            if not sense.ok:
                continue
            last_k = k
            if k > spec.target_K:
                continue
            accepted = cand
            break
        if accepted is None:
            raise GenerationFailed(
                f"map {idx}: {spec.MAX_ATTEMPTS} draws rejected "
                f"(last min Jacobian {last_min_j:.3e}, last K {last_k:.3g})"
            )
        s = area_sup.__wrapped__(accepted).value  # out of the memo: it may be rescaled next
        if s > 1.0:
            accepted = accepted.scaled(1.0 / math.sqrt(s))
        maps.append(accepted)
    return maps


def builtin_maps() -> dict[str, HarmonicMap]:
    """The reference family: identity, normalized affine stretches, a
    contraction, the squaring map, and a mixed second-order term."""
    return {
        "identity": HarmonicMap(a=(0, 1), b=(0,)),
        "affine-root2": HarmonicMap(a=(0, math.sqrt(2.0)), b=(1.0,)),
        "affine-quarters": HarmonicMap(a=(0, 1.25), b=(0.75,)),
        "scale-half": HarmonicMap(a=(0, 0.5), b=(0,)),
        "square": HarmonicMap(a=(0, 0, 1), b=(0, 0)),
        "mixed-quadratic": HarmonicMap(a=(0, 1, 0), b=(0, 0.3)),
    }


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def _distortion(f: HarmonicMap) -> tuple[float, MappingProxyType]:
    """The shared quasiconformal hypothesis: (K, hypotheses) on the grid, read
    off :func:`~harmap.core._grid_scan`, the one rule for sense and K. K is the
    grid distortion constant, or inf unless J > 0 and lambda >= LAMBDA_FLOOR *
    Lambda at every node; an inf K makes a row hypothesis-violated."""
    _, sense, K = _grid_scan(f)
    return K, MappingProxyType(
        {"sense-preserving": sense.ok, "finite distortion constant": math.isfinite(K)}
    )


def verify_three_circles(f: HarmonicMap, r1: float, r: float) -> VerificationReport:
    """Log-convexity bound for the area function across concentric circles.

    Hypotheses: m := S_f(r1) < 1, S_f(1) <= 1, and coefficient dominance
    |b_n| <= |a_n| for every n. Claim: S_f(r) <= m^(log r / log r1) for
    r1 <= r < 1, with equality for the normalized affine family.

    Why it holds: S_f(r) = sum c_n r^(2n) with c_n = n (|a_n|^2 - |b_n|^2) >= 0
    under dominance, a positive sum of exponentials in log r, so log S_f is
    convex in log r; with S_f(1) <= 1 that gives the bound. A row therefore
    tests ``area_series`` and the rhs formula. The tests' witnesses, a
    univalent map breaking only dominance and 2z breaking only S_f(1) <= 1,
    fail the claim at every campaign pair: both hypotheses are needed.
    """
    if not 0.0 < r1 <= r < 1.0:
        raise ValueError("need 0 < r1 <= r < 1")
    m = max(area_series(f, r1).value, 0.0)
    s_one = area_sup(f).value
    a = np.abs(f._a_arr[1:])
    b = np.abs(f._b_full[1:])
    hyp = {
        "m < 1": m <= 1.0 - CLOSED_FORM_SLACK,
        "S_f(1) <= 1": s_one <= 1.0 + CLOSED_FORM_SLACK,
        "coefficient dominance": bool(np.all(b <= a + CLOSED_FORM_SLACK)),
    }
    name = f"three-circles(r1={r1:g},r={r:g})"
    if not all(hyp.values()):
        return make_report(name, None, None, CLOSED_FORM_SLACK, hypotheses=hyp,
                           details={"m": m, "S1": s_one})
    lhs = area_series(f, r).value
    rhs = m ** (math.log(r) / math.log(r1)) if m > 0.0 else 0.0
    return make_report(
        name, lhs, rhs, CLOSED_FORM_SLACK, hypotheses=hyp,
        witnesses=[(r, lhs)], details={"m": m, "S1": s_one},
    )


def verify_area_overlap(f: HarmonicMap, *, seed: int = 42, mc_samples: int = 200_000,
                        assume_univalent: bool = False) -> VerificationReport:
    """Overlap-area bound K A(f(D) n D) + A(f^-1(D)) >= 1 on the unit disk D.

    Areas are normalized so D has area 1; the image area counts multiplicity
    (an upper bound for the set area, exact for injective maps), and K is the
    grid distortion constant of :func:`_distortion`. Both areas come from one
    sample of ``mc_samples`` points of D (10^4..4 10^6, from the stream of
    ``seed``); the verdict allows a 3-sigma band. When no draw lands in
    f^-1(D), sigma is a third of a 95% bound on what the sample cannot see.

    Injectivity is a hypothesis this artifact cannot certify beyond degree
    one (linear sense-preserving maps are injective); for higher degree pass
    ``assume_univalent=True`` to run the estimate anyway.
    """
    _check_mc_samples(mc_samples)
    K, qc_hyp = _distortion(f)
    hyp = {"f(0) = 0": f.a[0] == 0, **qc_hyp,
           "univalence certified or assumed": f.degree == 1 or assume_univalent}
    if not all(hyp.values()):
        return make_report("area-overlap", None, None, 0.0, hypotheses=hyp)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x41524541)))
    z = disk_sample(rng, mc_samples, 1.0)  # drawn whole: a chunked draw changes the stream
    stat, overlap, inside = np.empty(mc_samples), np.empty(mc_samples), np.empty(mc_samples, bool)
    for s in range(0, mc_samples, _MC_CHUNK):  # elementwise, so chunking keeps every bit
        part = slice(s, s + _MC_CHUNK)
        fz, fzbar = wirtinger(f, z[part])
        jac = _abs2(fz) - _abs2(fzbar)
        inside[part] = np.abs(f(z[part])) < 1.0
        stat[part] = (K * jac + 1.0) * inside[part]
        overlap[part] = jac * inside[part]
    lhs = float(np.mean(stat))
    sigma = float(np.std(stat) / math.sqrt(mc_samples))
    if not inside.any():  # no hit in n draws: the hit fraction is below 3/n at 95%, and a
        # hit adds at most K sup J + 1, with J <= Lambda_f^2 <= (sum n (|a_n| + |b_n|))^2
        sup_jac = (np.abs(f._da).sum() + np.abs(f._db).sum()) ** 2
        sigma = float((K * sup_jac + 1.0) / mc_samples)
    return make_report(
        "area-overlap", lhs, 1.0, slack=3.0 * sigma + CLOSED_FORM_SLACK, hypotheses=hyp,
        orientation="ge", error_estimate=3.0 * sigma,
        details={"K": K, "image_overlap_area": float(np.mean(overlap)),
                 "preimage_area": float(np.mean(inside)), "mc_sigma": sigma},
    )


def verify_hardy_area(f: HarmonicMap) -> VerificationReport:
    """Hardy-area bound ||f||_2^2 <= K A(f(D)) for maps vanishing at 0.

    The squared h^2 norm is the coefficient sum over n >= 1 of
    |a_n|^2 + |b_n|^2; A(f(D)) counting multiplicity is S_f(1). Equality for
    the identity map.
    """
    K, qc_hyp = _distortion(f)
    hyp = {"f(0) = 0": f.a[0] == 0, **qc_hyp}
    name = "hardy-area"
    if not all(hyp.values()):
        return make_report(name, None, None, 0.0, hypotheses=hyp)
    lhs = float(np.sum(_abs2(f._a_arr[1:]) + _abs2(f._b_full[1:])))
    rhs = K * area_sup(f).value
    return make_report(
        name, lhs, rhs, QUADRATURE_SLACK_REL * abs(rhs), hypotheses=hyp,
        details={"K": K},
    )


def verify_coeff_bound(f: HarmonicMap) -> list[VerificationReport]:
    """Per-degree bound |a_n| + |b_n| <= K l_f(1) / (2 n pi), one row per n."""
    K, hyp = _distortion(f)
    if not all(hyp.values()):
        return [make_report("coeff-bound", None, None, 0.0, hypotheses=hyp, n=n)
                for n in range(1, f.degree + 1)]
    lf1 = length_sup(f)
    reports = []
    for n in range(1, f.degree + 1):
        lhs = abs(f.a[n]) + abs(f.b[n - 1])
        rhs = K * lf1.value / (2.0 * n * math.pi)
        reports.append(
            make_report(
                "coeff-bound", lhs, rhs, QUADRATURE_SLACK_REL * abs(rhs),
                hypotheses=hyp, n=n,
                error_estimate=K * lf1.error_estimate / (2.0 * n * math.pi),
                details={"K": K, "length_sup": lf1.value},
            )
        )
    return reports


def _gradient_sample(seed: int = 42) -> np.ndarray:
    """The seeded sample points of :func:`verify_gradient_bound`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x47524144)))
    return disk_sample(rng, _GRADIENT_SAMPLES, 0.95)


def verify_gradient_bounds(maps, samples) -> list[list[VerificationReport]]:
    """:func:`verify_gradient_bound` for each map, with its own entry of
    ``samples`` (None takes the default). The Bloch seminorms of the maps
    that meet the hypotheses come from one batched sup,
    :func:`~harmap.functionals.bloch_seminorms`."""
    distortion = [_distortion(f) for f in maps]
    held = [p for p, (K, hyp) in enumerate(distortion) if all(hyp.values())]
    betas = dict(zip(held, bloch_seminorms([maps[p] for p in held])))
    names = ("gradient-bound-length", "gradient-bound-area", "bloch-bound")
    out = []
    for p, (f, sample) in enumerate(zip(maps, samples)):
        K, hyp = distortion[p]
        if p not in betas:
            out.append([make_report(nm, None, None, 0.0, hypotheses=hyp) for nm in names])
            continue
        z = np.asarray(_gradient_sample() if sample is None else sample, dtype=complex)
        lam = _stretch(f, z) * (1.0 - np.abs(z))
        k = int(np.argmax(lam))
        worst = complex(z.ravel()[k])
        lf1 = length_sup(f)
        s1 = area_sup(f).value

        lhs1 = float(lam.ravel()[k])
        rhs1 = lf1.value * math.sqrt(K) / (2.0 * math.pi)
        rep1 = make_report(
            names[0], lhs1, rhs1, QUADRATURE_SLACK_REL * abs(rhs1), hypotheses=hyp,
            witnesses=[(worst, lhs1)],
            error_estimate=lf1.error_estimate * math.sqrt(K) / (2.0 * math.pi),
            details={"K": K},
        )
        lhs2 = lhs1 * lhs1
        rhs2 = s1 * K
        rep2 = make_report(
            names[1], lhs2, rhs2, QUADRATURE_SLACK_REL * abs(rhs2), hypotheses=hyp,
            witnesses=[(worst, lhs2)], details={"K": K},
        )
        beta = betas[p]
        rhs3 = 2.0 * rhs1
        rep3 = make_report(
            names[2], beta.value, rhs3, QUADRATURE_SLACK_REL * abs(rhs3), hypotheses=hyp,
            error_estimate=beta.error_estimate, details={"K": K},
        )
        out.append([rep1, rep2, rep3])
    return out


def verify_gradient_bound(f: HarmonicMap, sample=None) -> list[VerificationReport]:
    """Pointwise stretch bounds from the boundary length and total area.

    Checked in scale-free form at each sample point z:

    * ``gradient-bound-length``: Lambda(z) (1 - |z|) <= l_f(1) sqrt(K) / (2 pi)
    * ``gradient-bound-area``:  (Lambda(z) (1 - |z|))^2 <= S_f(1) K
    * ``bloch-bound``:          Bloch seminorm <= l_f(1) sqrt(K) / pi

    Equality in the first two at z = 0 for the identity map. The one-map
    case of :func:`verify_gradient_bounds`.
    """
    return verify_gradient_bounds([f], [sample])[0]


def verify_isoperimetric(f: HarmonicMap, r: float) -> VerificationReport:
    """S_f(r) <= l_f(r)^2 / (4 pi^2), equality for the identity map.

    The normalized-area convention makes the constant exactly 1/(4 pi^2).
    """
    lhs = area_series(f, r).value
    length = length_function(f, r)
    rhs = length.value**2 / (4.0 * math.pi**2)
    rhs_err = length.value * length.error_estimate / (2.0 * math.pi**2)
    return make_report(
        f"isoperimetric(r={r:g})", lhs, rhs, 1e-9 + rhs_err,
        error_estimate=rhs_err, witnesses=[(r, lhs)],
    )
