"""Executable inequality checks and the constrained random-map generator.

Each verifier computes both sides of one inequality, validates its
hypotheses (the quasiconformal ones, sense preservation and a finite
distortion constant K, come from one cached per-map preamble,
``_distortion``), and returns a :class:`~harmap.report.VerificationReport`
(or a list of them, one per coefficient index or sample family). Slack policy:
1e-12 absolute for closed-form sides, 1e-9 relative for quadrature-backed
sides, and a 3-sigma band for Monte Carlo verdicts.

The fuzzer draws coefficient vectors with geometric decay, optionally
rescaled to coefficient dominance (|b_n| <= |a_n|), rejects draws that fail
the Jacobian sign scan or exceed the target distortion constant, and
rescales accepted maps so the total area S_f(1) is at most 1. Streams are
derived from (seed, index), so corpora are reproducible and order
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .core import (
    HarmonicMap,
    _abs2,
    _qc_scan,
    _sense_scan,
    _stretch,
    is_sense_preserving,
    qc_constant,
    wirtinger,
)
from .functionals import (
    area_series,
    area_sup,
    bloch_seminorms,
    length_function,
    length_sup,
)
from .grids import Grid, QuadratureSpec, disk_sample
from .report import VerificationReport, make_report

__all__ = [
    "DiskDomain",
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


@dataclass(frozen=True)
class DiskDomain:
    """A disk D(center, radius): the desk-scale simply connected domain."""

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        c, r = complex(self.center), float(self.radius)
        if not (math.isfinite(c.real) and math.isfinite(c.imag) and math.isfinite(r)):
            raise ValueError("domain parameters must be finite")
        if r <= 0.0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    def contains(self, w):
        return np.abs(np.asarray(w, dtype=complex) - self.center) < self.radius

    def boundary_distance(self, point: complex = 0j) -> float:
        """Distance from an interior point to the boundary circle."""
        return self.radius - abs(complex(point) - self.center)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform points in the disk, drawn by :func:`~harmap.grids.disk_sample`."""
        return self.center + disk_sample(rng, count, self.radius)


# ---------------------------------------------------------------------------
# Constrained random maps
# ---------------------------------------------------------------------------


class GenerationFailed(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True)
class FuzzSpec:
    """Generator settings for a reproducible corpus of admissible maps.

    Coefficients decay geometrically like coeff_decay^n. With
    enforce_coeff_dominance, b_n is rescaled onto |b_n| <= |a_n|. Draws
    failing the Jacobian sign scan on the default grid, or whose distortion
    constant exceeds target_K, are redrawn (at most 100 attempts per map).
    With rescale_area, accepted maps are scaled so S_f(1) <= 1.
    """

    count: int = 100
    degree: int = 8
    seed: int = 42
    coeff_decay: float = 0.55
    enforce_coeff_dominance: bool = True
    target_K: float = 10.0
    rescale_area: bool = True

    MAX_DEGREE = 64
    MAX_ATTEMPTS = 100

    def __post_init__(self):
        if not self.count >= 1:  # each check is written so that NaN fails it
            raise ValueError("count must be >= 1")
        if not 1 <= self.degree <= self.MAX_DEGREE:
            raise ValueError(f"degree must lie in 1..{self.MAX_DEGREE}")
        if not 0.0 < self.coeff_decay < 1.0:
            raise ValueError("coeff_decay must lie in (0, 1)")
        if not self.target_K >= 1.0:
            raise ValueError("target_K must be >= 1")
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
        a[2:] = spec.coeff_decay**n / (2.0 * n) * _complex_normal(rng, d - 1)
    n = np.arange(1, d + 1)
    b[:] = 0.35 * spec.coeff_decay**n / n * _complex_normal(rng, d)
    if spec.enforce_coeff_dominance:
        over = np.abs(b) > np.abs(a[1:])
        scale = np.ones(d)
        nz = over & (np.abs(b) > 0)
        scale[nz] = np.abs(a[1:])[nz] / np.abs(b)[nz]
        b *= scale
    return HarmonicMap(a=tuple(a), b=tuple(b))


def fuzz_corpus(spec: FuzzSpec, grid: Grid | None = None) -> list[HarmonicMap]:
    """Deterministic corpus of maps satisfying the spec's admissibility gates.

    Per-map RNG streams are derived from (seed, index), so the corpus does
    not depend on generation order and re-running with the same seed
    reproduces it exactly.
    """
    grid = grid or Grid()
    maps: list[HarmonicMap] = []
    for idx in range(spec.count):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, idx)))
        accepted = None
        last_min_j = math.nan
        last_k = math.nan
        for _ in range(spec.MAX_ATTEMPTS):
            cand = _draw_candidate(rng, spec)
            sp = is_sense_preserving(cand, grid)
            last_min_j = sp.min_jacobian
            if not sp.ok:
                continue
            k = qc_constant(cand, grid)
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
        if spec.rescale_area:
            s = area_sup(accepted).value
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


@lru_cache(maxsize=256)
def _distortion(f: HarmonicMap, grid: Grid) -> tuple[float, MappingProxyType]:
    """The shared quasiconformal hypothesis: (K, hypotheses) on the grid.

    K is the grid distortion constant, or inf when the Jacobian scan finds
    f not sense-preserving; both read one evaluation on the grid. Cached per
    (map, grid), so the verifiers that share this hypothesis scan each map
    once; the read-only hypotheses keep one caller from editing another's.
    """
    fields = wirtinger(f, grid.nodes)
    sense_ok = _sense_scan(grid.nodes, *fields).ok
    K = _qc_scan(*fields) if sense_ok else math.inf
    return K, MappingProxyType(
        {"sense-preserving": sense_ok, "finite distortion constant": math.isfinite(K)}
    )


@lru_cache(maxsize=256)
def _boundary_length(f: HarmonicMap, angular_nodes: int):
    """l_f(1), shared by the coefficient and gradient bounds. Cached per
    (map, angular nodes), the only part of the task quadrature that
    :func:`~harmap.functionals.length_sup` reads, so each map's boundary
    length is computed once."""
    return length_sup(f, QuadratureSpec(angular_nodes=angular_nodes))


def _reset_map_memos() -> None:
    """Empty the per-map memos (:func:`_distortion`, :func:`_boundary_length`),
    so that each campaign does its own maps' scans."""
    _distortion.cache_clear()
    _boundary_length.cache_clear()


def verify_three_circles(f: HarmonicMap, r1: float, r: float) -> VerificationReport:
    """Log-convexity bound for the area function across concentric circles.

    Hypotheses: m := S_f(r1) < 1, S_f(1) <= 1, and coefficient dominance
    |b_n| <= |a_n| for every n. Claim: S_f(r) <= m^(log r / log r1) for
    r1 <= r < 1, with equality for the normalized affine family.
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


def verify_area_overlap(
    f: HarmonicMap,
    omega1: DiskDomain | None = None,
    omega2: DiskDomain | None = None,
    q: QuadratureSpec | None = None,
    K: float | None = None,
    grid: Grid | None = None,
    assume_univalent: bool = False,
) -> VerificationReport:
    """Overlap-area bound K A(f(O1) n O2) + A(f^-1(O2)) >= min d^2(0).

    Areas are normalized so the unit disk has area 1, matching the area
    function convention; the image area counts multiplicity (an upper bound
    for the set area, and exact for injective maps). The map is read on O1
    through its affine chart w -> (w - c1)/R1 and recentered so it vanishes
    at the origin. Both areas come from one Monte Carlo sample of O1; the
    verdict allows a 3-sigma band.

    Injectivity is a hypothesis this artifact cannot certify beyond degree
    one (linear sense-preserving maps are injective); for higher degree pass
    ``assume_univalent=True`` to run the estimate anyway.
    """
    omega1 = omega1 or DiskDomain()
    omega2 = omega2 or DiskDomain()
    q = q or QuadratureSpec()
    if not (omega1.contains(0j) and omega2.contains(0j)):
        raise ValueError("the origin must lie in both domains")
    grid_K, qc_hyp = _distortion(f, grid or Grid())
    K = grid_K if K is None else K
    hyp = {
        "f(0) = 0": f.a[0] == 0,
        "sense-preserving": qc_hyp["sense-preserving"],
        "finite distortion constant": math.isfinite(K),
        "univalence certified or assumed": f.degree == 1 or assume_univalent,
    }
    name = "area-overlap"
    if not all(hyp.values()):
        return make_report(name, None, None, 0.0, hypotheses=hyp)

    rng = np.random.default_rng(np.random.SeedSequence((q.seed, 0x41524541)))
    w = omega1.sample(rng, q.mc_samples)
    zeta = (w - omega1.center) / omega1.radius
    fz, fzbar = wirtinger(f, zeta)
    jac = (_abs2(fz) - _abs2(fzbar)) / omega1.radius**2
    fw = f(zeta) - f(-omega1.center / omega1.radius)
    inside = omega2.contains(fw)

    area1 = omega1.radius**2  # normalized area of a radius-R disk is R^2
    stat = (K * jac + 1.0) * inside * area1
    lhs = float(np.mean(stat))
    sigma = float(np.std(stat) / math.sqrt(q.mc_samples))
    d1 = omega1.boundary_distance(0j)
    d2 = omega2.boundary_distance(0j)
    rhs = min(d1, d2) ** 2
    return make_report(
        name,
        lhs,
        rhs,
        slack=3.0 * sigma + CLOSED_FORM_SLACK,
        hypotheses=hyp,
        orientation="ge",
        error_estimate=3.0 * sigma,
        details={
            "K": K,
            "image_overlap_area": float(np.mean(jac * inside) * area1),
            "preimage_area": float(np.mean(inside) * area1),
            "mc_sigma": sigma,
        },
    )


def verify_hardy_area(
    f: HarmonicMap,
    q: QuadratureSpec | None = None,
    grid: Grid | None = None,
) -> VerificationReport:
    """Hardy-area bound ||f||_2^2 <= K A(f(D)) for maps vanishing at 0.

    The squared h^2 norm is the coefficient sum over n >= 1 of
    |a_n|^2 + |b_n|^2; A(f(D)) counting multiplicity is S_f(1). Equality for
    the identity map.
    """
    K, qc_hyp = _distortion(f, grid or Grid())
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


def verify_coeff_bound(
    f: HarmonicMap,
    q: QuadratureSpec | None = None,
    grid: Grid | None = None,
) -> list[VerificationReport]:
    """Per-degree bound |a_n| + |b_n| <= K l_f(1) / (2 n pi), one row per n."""
    q = q or QuadratureSpec()
    K, hyp = _distortion(f, grid or Grid())
    if not all(hyp.values()):
        return [make_report("coeff-bound", None, None, 0.0, hypotheses=hyp, n=n)
                for n in range(1, f.degree + 1)]
    lf1 = _boundary_length(f, q.angular_nodes)
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


def _gradient_sample(q: QuadratureSpec, count: int = 64) -> np.ndarray:
    """The seeded default sample points of :func:`verify_gradient_bound`."""
    rng = np.random.default_rng(np.random.SeedSequence((q.seed, 0x47524144)))
    return disk_sample(rng, count, 0.95)


def verify_gradient_bounds(
    maps, samples, qs, grid: Grid | None = None
) -> list[list[VerificationReport]]:
    """:func:`verify_gradient_bound` for each map, with its own entry of
    ``samples`` and ``qs`` (None takes the default). The Bloch seminorms of
    the maps that meet the hypotheses come from one batched sup,
    :func:`~harmap.functionals.bloch_seminorms`."""
    grid = grid or Grid()
    qs = [q or QuadratureSpec() for q in qs]
    distortion = [_distortion(f, grid) for f in maps]
    held = [p for p, (K, hyp) in enumerate(distortion) if all(hyp.values())]
    betas = dict(zip(held, bloch_seminorms([maps[p] for p in held], grid)))
    names = ("gradient-bound-length", "gradient-bound-area", "bloch-bound")
    out = []
    for p, (f, sample, q) in enumerate(zip(maps, samples, qs)):
        K, hyp = distortion[p]
        if p not in betas:
            out.append([make_report(nm, None, None, 0.0, hypotheses=hyp) for nm in names])
            continue
        if sample is None:
            sample = _gradient_sample(q)
        z = np.asarray(sample, dtype=complex)
        lam = _stretch(f, z) * (1.0 - np.abs(z))
        k = int(np.argmax(lam))
        worst = complex(z.ravel()[k])
        lf1 = _boundary_length(f, q.angular_nodes)
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


def verify_gradient_bound(
    f: HarmonicMap,
    sample=None,
    q: QuadratureSpec | None = None,
    grid: Grid | None = None,
) -> list[VerificationReport]:
    """Pointwise stretch bounds from the boundary length and total area.

    Checked in scale-free form at each sample point z:

    * ``gradient-bound-length``: Lambda(z) (1 - |z|) <= l_f(1) sqrt(K) / (2 pi)
    * ``gradient-bound-area``:  (Lambda(z) (1 - |z|))^2 <= S_f(1) K
    * ``bloch-bound``:          Bloch seminorm <= l_f(1) sqrt(K) / pi

    Equality in the first two at z = 0 for the identity map. The one-map
    case of :func:`verify_gradient_bounds`.
    """
    return verify_gradient_bounds([f], [sample], [q], grid)[0]


def verify_isoperimetric(
    f: HarmonicMap, r: float, q: QuadratureSpec | None = None
) -> VerificationReport:
    """S_f(r) <= l_f(r)^2 / (4 pi^2), equality for the identity map.

    The normalized-area convention makes the constant exactly 1/(4 pi^2).
    """
    q = q or QuadratureSpec()
    lhs = area_series(f, r).value
    length = length_function(f, r, q)
    rhs = length.value**2 / (4.0 * math.pi**2)
    rhs_err = length.value * length.error_estimate / (2.0 * math.pi**2)
    return make_report(
        f"isoperimetric(r={r:g})", lhs, rhs, 1e-9 + rhs_err,
        error_estimate=rhs_err, witnesses=[(r, lhs)],
    )
