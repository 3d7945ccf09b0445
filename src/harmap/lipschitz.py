"""Majorants, Lipschitz-type constants, and the Poisson-kernel machinery.

A majorant is a continuous increasing function omega on [0, inf) with
omega(0) = 0 and omega(t)/t non-increasing. Two families are supported: the
power family t^alpha (0 < alpha <= 1) and tables with log-linear
interpolation. A majorant is *regular* when two integral conditions hold,

    int_0^delta omega(t)/t dt       <= C omega(delta)   (head),
    delta int_delta^inf omega/t^2 dt <= C omega(delta)   (tail),

whose smallest empirical constants :func:`regularity_check` estimates. Both
integrals go through one adaptive quadrature helper, the one importer of
``scipy.integrate``, on first use; the Gauss-Legendre nodes of the disk means
and hl-17's segments are scipy's (``grids._roots_legendre_01``), which loads
``scipy.special``, so that the pinned campaign digest keeps its bits.

The three equivalent growth conditions for a harmonic map f against a
majorant are estimated as empirical constants:

* ``cond_a``: sup of Lambda_f(z) / omega(1/d(z)),
* ``cond_b``: sup over pairs of (|f(z)-f(w)| / |z-w|) / omega(1/sqrt(d(z)d(w))),
* ``cond_c``: sup of disk means of |f - f(z)| over r omega(1/r),

with d(z) = 1 - |z| the boundary distance. Their sample sets are fixed, and
no argument sets them: C1 and hl-17's C4 are disk suprema on ``grids.GRID``,
C2 reads :func:`default_pair_sample`, C3 18 probe disks, and hl-17 its 512
segment pairs. Each takes a map side that no
majorant enters (Lambda_f on the grid, the pair quotients, the disk means,
the segment fields of hl-17), which a campaign's memo keeps once per map for
all its majorants (``core._memoized``), and C2 and C3 a majorant side that no
map enters (omega on the pairs and at the probe radii), cached once per
majorant value. :func:`verify_hl_equivalence`
checks the two implications between the gradient bound
Lambda_f <= C omega(d)/d and the modulus-of-continuity bound
|f(z)-f(w)| <= C omega(|z-w|) on the unit disk, using straight segments as
the connecting curves and the Poisson representation on hyperbolic-safe
sub-disks D(z, d(z)/2), where both Wirtinger derivatives of the kernel are
bounded by 21/(2r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .core import _PAIRS, HarmonicMap, _abs2, _grid_scan, _memoized, _stretch, from_json
from .core import wirtinger  # unused: the benchmark's tracer test reads this binding
from .functionals import grid_sup
from .grids import GRID, _read_only, _roots_legendre_01, disk_sample
from .report import VerificationReport, make_report

__all__ = [
    "Majorant",
    "PowerMajorant",
    "SampledMajorant",
    "OutsideTable",
    "majorant_from_config",
    "ScalingCheck",
    "check_scaling_lemma",
    "RegularityReport",
    "regularity_check",
    "cond_a_constant",
    "cond_a_constants",
    "cond_b_constant",
    "cond_c_constant",
    "default_pair_sample",
    "poisson_kernel",
    "poisson_kernel_wirtinger",
    "poisson_kernel_mean",
    "trig_max_identity",
    "chord_interpolation_bound",
    "verify_hl_equivalence",
    "verify_hl_equivalences",
]

# Pairs closer than this, or points closer to the boundary than this, are
# skipped when forming ratio suprema (the ratios degenerate numerically).
PAIR_MIN_SEPARATION = 1e-12
PAIR_MIN_BOUNDARY_DISTANCE = 1e-9


# Tail integrals truncate at this multiple of delta; the power family adds
# its exact remainder, sampled tables record the cut.
TAIL_TRUNCATION = 1e6


def _majorant_quad(omega, delta: float, u_cap: float, tail: bool = False) -> float:
    """The head int_0^delta omega(t)/t dt, cut at t = delta e^-u_cap, via t = delta e^-u;
    with ``tail``, delta int_delta^T omega(t)/t^2 dt, T = delta e^u_cap, via t = delta e^u."""
    from scipy.integrate import quad  # loaded on first use: see the module docstring
    if tail:
        return quad(lambda u: omega(delta * math.exp(u)) * math.exp(-u), 0.0, u_cap, limit=200)[0]
    return quad(lambda u: omega(delta * math.exp(-u)), 0.0, u_cap, limit=200)[0]


_CONFIG_FIELDS = {"family": str, "alpha": float, "table": _PAIRS}


class Majorant:
    """Base for majorant families; instances are callables on t >= 0.

    A family supplies ``_eval``, ``config()`` (its JSON object, whose
    "family" key names it), ``label()``, ``head_integral``, ``tail_integral``
    (None when divergent) and, optionally, ``probe_floor`` and
    ``exact_regularity()``.
    """

    probe_floor = 0.0

    def __call__(self, t):
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0.0):
            raise ValueError("majorants are defined for t >= 0")
        out = self._eval(tt)
        return float(out) if tt.ndim == 0 else out

    def _eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def exact_regularity(self) -> tuple[float, float] | None:
        """Closed-form (head, tail) regularity constants on (0, 1), the tail
        inf when it diverges; None when no closed form is known."""
        return None

    @staticmethod
    def from_json_dict(obj: dict) -> "Majorant":
        """Build a majorant from {"family": "power", "alpha": a} or
        {"family": "sampled", "table": [[t, w], ...]}, checked by
        :func:`~harmap.core.from_json`; the inverse of :meth:`config`."""
        obj = from_json(_CONFIG_FIELDS, obj)
        family = obj.get("family")
        try:
            if family == "power":
                return PowerMajorant(alpha=obj["alpha"])
            if family == "sampled":
                return SampledMajorant(table=obj["table"])
        except KeyError as exc:
            raise ValueError(f"missing key {exc}") from None
        raise ValueError(f"unknown majorant family: {family!r}")


class OutsideTable(ValueError):
    """A sampled majorant was asked for t in [t_lo, t_hi], beyond its table."""

    def __init__(self, t_lo: float, t_hi: float):
        super().__init__(f"t in [{t_lo:g}, {t_hi:g}] leaves the sampled table range")
        self.t_lo, self.t_hi = t_lo, t_hi


@dataclass(frozen=True)
class PowerMajorant(Majorant):
    """omega(t) = t^alpha with 0 < alpha <= 1 (alpha = 1 is the linear case)."""

    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    def _eval(self, t: np.ndarray) -> np.ndarray:
        return t**self.alpha

    def config(self) -> dict:
        return {"family": "power", "alpha": self.alpha}

    def label(self) -> str:
        return f"power({self.alpha:g})"

    def head_integral(self, delta: float) -> float:
        """int_0^delta omega(t)/t dt."""
        return _majorant_quad(self, delta, np.inf)

    def tail_integral(self, delta: float) -> tuple[float, float] | None:
        """delta int_delta^T omega(t)/t^2 dt with T = TAIL_TRUNCATION * delta,
        as (value including any exact remainder, recorded truncation)."""
        alpha = self.alpha
        if alpha >= 1.0:
            return None
        val = _majorant_quad(self, delta, math.log(TAIL_TRUNCATION), tail=True)
        # Exact remainder: delta^alpha T^(alpha-1) / (1 - alpha).
        tail = delta**alpha * TAIL_TRUNCATION ** (alpha - 1.0) / (1.0 - alpha)
        return val + tail, 0.0

    def exact_regularity(self) -> tuple[float, float]:
        alpha = self.alpha
        return 1.0 / alpha, (math.inf if alpha >= 1.0 else 1.0 / (1.0 - alpha))


@dataclass(frozen=True)
class SampledMajorant(Majorant):
    """Majorant given by an increasing table, log-linear in between.

    Piecewise power interpolation keeps the majorant axioms checkable at the
    knots: both coordinates must be strictly increasing and every segment
    slope d log omega / d log t must stay in (0, 1], which is exactly
    monotone omega with omega(t)/t non-increasing. A log-spaced probe sweep
    re-verifies the ratio monotonicity at construction.
    """

    table: tuple

    def __post_init__(self):
        rows = tuple((float(t), float(w)) for t, w in self.table)
        if len(rows) < 2:
            raise ValueError("table needs at least two rows")
        ts = np.array([r[0] for r in rows])
        ws = np.array([r[1] for r in rows])
        if not (np.all(np.isfinite(ts) & (ts > 0.0)) and np.all(np.isfinite(ws) & (ws > 0.0))):
            raise ValueError("table entries must be positive and finite")
        if not (np.all(np.diff(ts) > 0.0) and np.all(np.diff(ws) > 0.0)):  # NaN fails each check
            raise ValueError("table must be strictly increasing")
        slopes = np.diff(np.log(ws)) / np.diff(np.log(ts))
        if not np.all(slopes <= 1.0 + 1e-12):
            raise ValueError("omega(t)/t must be non-increasing")
        object.__setattr__(self, "table", rows)
        probes = np.geomspace(ts[0], ts[-1], 64)
        ratio = self._interp(probes) / probes
        if not np.all(np.diff(ratio) <= 1e-12 * ratio[:-1]):
            raise ValueError("omega(t)/t must be non-increasing")

    @cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray]:
        ts = np.array([r[0] for r in self.table])
        ws = np.array([r[1] for r in self.table])
        return np.log(ts), np.log(ws)

    @property
    def t_min(self) -> float:
        return self.table[0][0]

    @property
    def t_max(self) -> float:
        return self.table[-1][0]

    @property
    def probe_floor(self) -> float:
        return self.t_min * 1.000001

    def _interp(self, t: np.ndarray) -> np.ndarray:
        logt, logw = self._logs
        return np.exp(np.interp(np.log(t), logt, logw))

    def _eval(self, t: np.ndarray) -> np.ndarray:
        if np.any(t < self.t_min) or np.any(t > self.t_max):
            raise OutsideTable(float(np.min(t)), float(np.max(t)))
        return self._interp(t)

    def config(self) -> dict:
        return {"family": "sampled", "table": [[t, w] for t, w in self.table]}

    def label(self) -> str:
        return f"sampled({len(self.table)})"

    def head_integral(self, delta: float) -> float:
        # Integrate down to the table floor only; omega(t) <= t omega(t_min)/t_min
        # below it, so the missing head is bounded by omega(t_min).
        return _majorant_quad(self, delta, max(math.log(delta / self.t_min), 0.0))

    def tail_integral(self, delta: float) -> tuple[float, float]:
        u_cap = min(math.log(TAIL_TRUNCATION), math.log(self.t_max / delta))
        u_cap = max(u_cap, 0.0)
        val = _majorant_quad(self, delta, u_cap, tail=True)
        # Mass of one more e-fold at the cut, the scale of what the cut hides.
        t_cap = delta * math.exp(u_cap)
        return val, self(min(t_cap, self.t_max)) * math.exp(-u_cap)


majorant_from_config = Majorant.from_json_dict


# ---------------------------------------------------------------------------
# Majorant lemmas and regularity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingCheck:
    ok: bool
    witnesses: tuple  # (lambda, t, lhs, rhs) rows where the inequality broke


def check_scaling_lemma(omega: Majorant, pairs) -> ScalingCheck:
    """omega(lambda t) <= lambda omega(t) for every pair (lambda, t) with lambda >= 1.

    Direct consequence of omega(t)/t non-increasing; verified pointwise with
    1e-12 relative slack.
    """
    bad = []
    for lam, t in pairs:
        lam, t = float(lam), float(t)
        if lam < 1.0:
            raise ValueError("scaling factors must be >= 1")
        if t <= 0.0:
            raise ValueError("probe points must be positive")
        lhs = omega(lam * t)
        rhs = lam * omega(t)
        if lhs > rhs * (1.0 + 1e-12):
            bad.append((lam, t, lhs, rhs))
    return ScalingCheck(ok=not bad, witnesses=tuple(bad))


@dataclass(frozen=True)
class RegularityReport:
    """Empirical regularity constants; None marks a divergent integral."""

    c_eq2: float | None
    c_eq3: float | None
    c_eq3_truncation: float = 0.0


def regularity_check(omega: Majorant) -> RegularityReport:
    """Smallest empirical constants in the two regularity conditions on (0, 1).

    Both integrals are evaluated by adaptive quadrature at 24 log-spaced
    scales delta from max(1e-3, ``omega.probe_floor``) to 0.999 and divided
    by omega(delta); the suprema over those scales are reported. The linear
    majorant t^1 has a divergent tail integral and reports c_eq3 = None.
    """
    deltas = np.geomspace(max(1e-3, omega.probe_floor), 0.999, 24)
    c2 = 0.0
    c3: float | None = 0.0
    trunc = 0.0
    for d in deltas:
        wd = omega(float(d))
        c2 = max(c2, omega.head_integral(float(d)) / wd)
        tail = omega.tail_integral(float(d))
        if tail is None:
            c3 = None
        else:
            c3 = max(c3, tail[0] / wd)
            trunc = max(trunc, tail[1] / wd)
    return RegularityReport(c_eq2=c2, c_eq3=c3, c_eq3_truncation=trunc)


@lru_cache(maxsize=64)
def _regularity(omega: Majorant) -> RegularityReport:
    """The regularity probe on (0, 1) behind the majorant-regularity rows and
    verify_hl_equivalence's hypothesis. It depends on the majorant only, so
    it runs once per majorant value."""
    return regularity_check(omega)


# ---------------------------------------------------------------------------
# Growth-condition constants
# ---------------------------------------------------------------------------


def cond_a_constants(maps, omega: Majorant) -> list[float]:
    """:func:`cond_a_constant` for each map, all polished in lockstep by one
    batched :func:`~harmap.functionals.grid_sup`."""
    sups = grid_sup(maps, lambda lam, z: lam / omega(1.0 / (1.0 - np.abs(z))))
    return [fv.value for fv in sups]


def cond_a_constant(f: HarmonicMap, omega: Majorant) -> float:
    """Smallest empirical C with Lambda_f(z) <= C omega(1/d(z)) on the disk."""
    return cond_a_constants([f], omega)[0]


@cache
def default_pair_sample() -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (z, w) pairs from 4096 draws of |z| < 0.999 (seed 7),
    mixing random, local, antipodal and direction-sweep configurations (the
    sweeps at shrinking separations pin down local-stretch suprema), without
    degenerate pairs (coincident, or touching the boundary). Cached; the
    arrays are read-only."""
    count, r_cap = 4096, 0.999
    rng = np.random.default_rng(np.random.SeedSequence((7, 0x50414952)))
    half = count // 2
    quarter = count // 4
    z_parts = [disk_sample(rng, half, r_cap)]
    w_parts = [disk_sample(rng, half, r_cap)]
    z_loc = disk_sample(rng, quarter, r_cap)
    w_parts.append(z_loc + 10.0 ** rng.uniform(-6, -1, quarter) * np.exp(2j * np.pi * rng.random(quarter)))
    z_parts.append(z_loc)
    z_anti = disk_sample(rng, count - half - quarter, r_cap)
    z_parts.append(z_anti)
    w_parts.append(-z_anti)
    ang = np.exp(1j * np.linspace(0.0, np.pi, 64, endpoint=False))
    for eps in (1e-8, 1e-3, 0.3, r_cap):
        z_parts.append(eps * ang)
        w_parts.append(-eps * ang)
    z = np.concatenate(z_parts)
    w = np.concatenate(w_parts)
    keep = ((np.abs(z - w) >= PAIR_MIN_SEPARATION) & (1.0 - np.abs(z) >= PAIR_MIN_BOUNDARY_DISTANCE)
            & (1.0 - np.abs(w) >= PAIR_MIN_BOUNDARY_DISTANCE))
    return _read_only(z[keep], w[keep])


def cond_b_constant(f: HarmonicMap, omega: Majorant) -> float:
    """Smallest empirical C with |f(z)-f(w)| / |z-w| <= C omega(1/sqrt(d d'))
    over :func:`default_pair_sample`."""
    return float(np.max(_pair_quotients(f) / _pair_weights(omega)))


@lru_cache(maxsize=64)
def _pair_weights(omega: Majorant) -> np.ndarray:
    """omega(1/sqrt(d d')) on the pairs: the majorant's side of
    :func:`cond_b_constant`, once per majorant value. Cached, read-only."""
    z, w = default_pair_sample()
    return _read_only(omega(1.0 / np.sqrt((1.0 - np.abs(z)) * (1.0 - np.abs(w)))))


@_memoized
def _pair_quotients(f: HarmonicMap) -> np.ndarray:
    """|f(z)-f(w)| / |z-w| on the pairs: the map's side of :func:`cond_b_constant`."""
    z, w = default_pair_sample()
    return _read_only(np.abs(f(z) - f(w)) / np.abs(z - w))


# C3's probes: (centre z0, radii as fractions of d(z0)), 18 disks D(z0, r).
_MEAN_PROBES = tuple((z0, (0.25, 0.5, 1.0)) for z0 in
                     (0j, 0.3 + 0j, 0.25 + 0.43j, -0.7 + 0j, 0.45j, -0.2 - 0.55j))


@cache
def _probe_grids():
    """The map-independent side of :func:`_disk_means`, one entry per probe
    radius: its centre's index, the radius r, the radial weights w rho and the
    polar nodes z0 + rho e^(i theta) of D(z0, r), rho = r x for 32 Gauss-Legendre
    x on [0, 1] and 128 uniform theta. Cached; the arrays are read-only."""
    x, wts = _roots_legendre_01(32)
    ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False))
    centre, radii, weights, nodes = [], [], [], []
    for i, (z0, fractions) in enumerate(_MEAN_PROBES):
        d = 1.0 - abs(z0)
        for frac in fractions:
            r = frac * d
            rho = r * x
            centre.append(i)
            radii.append(r)
            weights.append(wts * rho)
            nodes.append(z0 + rho[:, None] * ring[None, :])
    return tuple(centre), tuple(radii), *_read_only(np.array(weights), np.array(nodes))


@_memoized
def _disk_means(f: HarmonicMap) -> tuple[tuple[float, float], ...]:
    """(r, disk mean of |f - f(z0)| over D(z0, r)) for each probe of
    :func:`cond_c_constant`, the map's side of that constant: f on every
    probe's nodes in one call, then per probe
    (2 / r^2) int_0^r rho mean_theta |f - f(z0)| drho by its quadrature."""
    centre, radii, weights, nodes = _probe_grids()
    f0 = np.array([f(z0) for z0, _ in _MEAN_PROBES])  # one evaluation per centre
    vals = np.abs(f(nodes) - f0[list(centre), None, None])
    n_ang = nodes.shape[-1]
    return tuple((r, float((2.0 / r) * np.sum(w @ v) / n_ang))
                 for r, w, v in zip(radii, weights, vals))


def cond_c_constant(f: HarmonicMap, omega: Majorant) -> float:
    """Smallest empirical C with the disk means of |f - f(z)| over D(z, r)
    bounded by C r omega(1/r), over 18 probe disks D(z, r) at 6 centres z,
    the radii a quarter, a half and all of the boundary distance."""
    scales = _mean_scales(omega)
    return max([0.0, *(mean / scale for (_, mean), scale in zip(_disk_means(f), scales))])


@lru_cache(maxsize=64)
def _mean_scales(omega: Majorant) -> tuple[float, ...]:
    """r omega(1/r) at each probe radius r: the majorant's side of
    :func:`cond_c_constant`, once per majorant value."""
    return tuple(r * omega(1.0 / r) for r in _probe_grids()[1])


# ---------------------------------------------------------------------------
# Poisson kernel on sub-disks
# ---------------------------------------------------------------------------


def _check_kernel_point(w: complex, z: complex, r: float) -> complex:
    w, z = complex(w), complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError("non-finite input")
    if not 0.0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if abs(w - z) >= r:
        raise ValueError("w must lie strictly inside D(z, r)")
    return w - z


def poisson_kernel(w: complex, z: complex, r: float, theta) -> float | np.ndarray:
    """P(w, r e^(i theta)) = (r^2 - |w-z|^2) / |w - z - r e^(i theta)|^2.

    The reproducing kernel of the disk D(z, r); nonnegative inside, unit
    angular mean. ``theta`` may be an array.
    """
    dq = _check_kernel_point(w, z, r)
    th = np.asarray(theta, dtype=float)
    e = dq - r * np.exp(1j * th)
    out = (r * r - _abs2(np.asarray(dq))) / _abs2(e)
    return float(out) if th.ndim == 0 else out


def poisson_kernel_wirtinger(w: complex, z: complex, r: float, theta):
    """Closed-form (dP/dw, dP/dwbar) of the kernel at fixed (z, r, theta).

    Both moduli stay below 21/(2r) for w in the half-radius disk D(z, r/2).
    ``theta`` may be an array; returns complex values of matching shape.
    """
    dq = _check_kernel_point(w, z, r)
    th = np.asarray(theta, dtype=float)
    e = dq - r * np.exp(1j * th)
    s2 = _abs2(e)
    p2 = r * r - abs(dq) ** 2
    dw = (-np.conjugate(dq) * s2 - p2 * (np.conjugate(dq) - r * np.exp(-1j * th))) / s2**2
    dwbar = (-dq * s2 - p2 * (dq - r * np.exp(1j * th))) / s2**2
    if th.ndim == 0:
        return complex(dw), complex(dwbar)
    return dw, dwbar


def poisson_kernel_mean(w: complex, z: complex, r: float) -> float:
    """Angular mean of the kernel (trapezoid rule on 1024 angles); equals 1 inside."""
    th = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    return float(np.mean(poisson_kernel(w, z, r, th)))


# ---------------------------------------------------------------------------
# Trigonometric maximum and the chord bound
# ---------------------------------------------------------------------------


def trig_max_identity(w: complex, z: complex) -> tuple[float, float]:
    """max over theta of |w cos theta + z sin theta|: the max on 4096 uniform
    angles and the closed form (|w + i z| + |w - i z|) / 2."""
    w, z = complex(w), complex(z)
    t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    grid_val = float(np.max(np.abs(w * np.cos(t) + z * np.sin(t))))
    closed = 0.5 * (abs(w + 1j * z) + abs(w - 1j * z))
    return grid_val, closed


def chord_interpolation_bound(z, w, t):
    """Both sides of the squared boundary-gap bound along a chord.

    For phi(t) = t z + (1 - t) w the gap 1 - |phi(t)| satisfies
    (1 - |phi(t)|)^2 >= (1 - t) t d(w) d(z); returns (lhs, rhs) of that
    squared form, vectorized. Dividing through recovers the reciprocal
    bound 1/(1 - |phi|) <= 1/sqrt((1-t) t d(w) d(z)).
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    t = np.asarray(t, dtype=float)
    phi = t * z + (1.0 - t) * w
    lhs = (1.0 - np.abs(phi)) ** 2
    rhs = (1.0 - t) * t * (1.0 - np.abs(w)) * (1.0 - np.abs(z))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Equivalence of the gradient and modulus-of-continuity bounds
# ---------------------------------------------------------------------------


@cache
def _hl_sample() -> tuple[np.ndarray, np.ndarray]:
    """hl-17's 512 pairs (z, w), kept inside |z| <= r_cap = r_max (1 - 1e-3)
    with r_max = 0.995 the reach of ``grids.GRID``, so segment points stay
    within the sup grid's reach (segments between two points of a disk stay
    in it). Cached; the arrays are read-only."""
    count, r_cap = 512, GRID.r_max * (1.0 - 1e-3)
    rng = np.random.default_rng(np.random.SeedSequence((11, 0x484C5052)))
    half = count // 2
    z = np.concatenate([disk_sample(rng, half, r_cap), disk_sample(rng, count - half, r_cap)])
    w_loc = z[half:] + 10.0 ** rng.uniform(-5, -1, count - half) * np.exp(
        2j * np.pi * rng.random(count - half)
    )
    w = np.concatenate([disk_sample(rng, half, r_cap), w_loc])
    ang = np.exp(1j * np.linspace(0.0, np.pi, 64, endpoint=False))
    for eps in (1e-8, 0.3, 0.9 * r_cap):
        z = np.concatenate([z, eps * ang])
        w = np.concatenate([w, -eps * ang])
    keep = (np.abs(w) <= r_cap) & (np.abs(z - w) >= PAIR_MIN_SEPARATION)
    return _read_only(z[keep], w[keep])


@cache
def _hl_segments():
    """:func:`_hl_sample`'s pairs (z, w), |z - w|, the nodes of the segments
    from w to z, their boundary distances and weights. Cached, read-only."""
    z, w = _hl_sample()
    x, wts = _roots_legendre_01(64)
    seg = w[:, None] + x[None, :] * (z - w)[:, None]
    return (z, w, *_read_only(np.abs(z - w), seg, 1.0 - np.abs(seg)), wts)


@_memoized
def _hl_fields(f: HarmonicMap) -> tuple[np.ndarray, np.ndarray]:
    """The map's side of :func:`verify_hl_equivalences`: |f(z) - f(w)| on the
    pairs and Lambda_f integrated along each segment."""
    z, w, sep, seg, _, wts = _hl_segments()
    return _read_only(np.abs(f(z) - f(w)), sep * (_stretch(f, seg) @ wts))


def verify_hl_equivalences(
    maps, omega: Majorant
) -> list[tuple[VerificationReport, VerificationReport]]:
    """:func:`verify_hl_equivalence` for each map, C4 from one batched
    :func:`~harmap.functionals.grid_sup`. The map sides, :func:`_hl_fields`
    and the Lambda_f grids, involve no majorant: a campaign memoizes them,
    so its majorants share one computation per map."""
    reg = _regularity(omega)
    hyp = {"majorant head-regular": reg.c_eq2 is not None and math.isfinite(reg.c_eq2)}
    if not all(hyp.values()):
        return [(make_report("hl-forward", None, None, 0.0, hypotheses=hyp),
                 make_report("hl-reverse", None, None, 0.0, hypotheses=hyp)) for _ in maps]

    def grad_ratio(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
        d = 1.0 - np.abs(z)
        return lam * d / omega(d)

    c4s = [fv.value for fv in grid_sup(maps, grad_ratio)]

    z, w, sep, _, d_seg, wts = _hl_segments()
    int_omega = sep * ((omega(d_seg) / d_seg) @ wts)
    omega_sep = omega(sep)
    c_seg = float(np.max(int_omega / omega_sep))

    nodes = GRID.nodes.ravel()

    out = []
    for f, c4 in zip(maps, c4s):
        df, int_lambda = _hl_fields(f)
        c5 = float(np.max(df / omega_sep))

        # Chain checks: the gradient theorem bound and the pointwise C4 bound
        # along each segment (quadrature tolerance 1e-6 relative).
        chain_tol = 1e-6
        ok_grad = df <= int_lambda * (1.0 + chain_tol) + 1e-12
        ok_c4 = int_lambda <= c4 * int_omega * (1.0 + chain_tol) + 1e-12
        chain_ok = bool(np.all(ok_grad) and np.all(ok_c4))
        bad_idx = int(np.argmin((ok_grad & ok_c4))) if not chain_ok else None

        fwd = make_report(
            "hl-forward", c5, c4 * c_seg, slack=1e-6 * max(1.0, c4 * c_seg), hypotheses=hyp,
            witnesses=[] if chain_ok else [(complex(z[bad_idx]), float(df[bad_idx]))],
            force_fail=not chain_ok,
            details={"C4": c4, "C5": c5, "segment_constant": c_seg,
                     "inflation": (c5 / c4) if c4 > 0.0 else 0.0},
        )

        # The reverse scan reads C4's coarse array at every node.
        ratios = grad_ratio(_grid_scan(f)[0], GRID.nodes).ravel()
        k = int(np.argmax(ratios))
        lhs_rev = float(ratios[k])
        rev = make_report("hl-reverse", lhs_rev, 21.0 * c5 / math.pi, slack=1e-6, hypotheses=hyp,
                          witnesses=[(complex(nodes[k]), lhs_rev)], details={"C5": c5})
        out.append((fwd, rev))
    return out


def verify_hl_equivalence(
    f: HarmonicMap, omega: Majorant
) -> tuple[VerificationReport, VerificationReport]:
    """Both directions of the gradient / modulus-of-continuity equivalence.

    Forward: with C4 = sup Lambda_f(z) d(z) / omega(d(z)), integrate
    Lambda_f along straight segments to certify
    |f(z)-f(w)| <= C4 * C_seg * omega(|z-w|) over sampled pairs, where C_seg
    is the empirical segment constant sup (int_seg omega(d)/d ds) / omega(|z-w|).
    The report compares the empirical two-point constant C5 against
    C4 * C_seg and records the inflation C5 / C4.

    Reverse: with C5 = sup |f(z)-f(w)| / omega(|z-w|), check at every node
    of ``grids.GRID``, all at d >= 0.005, that Lambda_f(z) d(z) / omega(d(z))
    stays below 21 C5 / pi, the constant delivered by the Poisson-kernel
    derivative bound on half-radius disks.

    Hypothesis for both directions: the majorant satisfies the head
    regularity condition (finite c_eq2). The one-map case of
    :func:`verify_hl_equivalences`.
    """
    return verify_hl_equivalences([f], omega)[0]
