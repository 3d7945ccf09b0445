"""Majorants, Lipschitz-type constants, and the Poisson-kernel machinery.

A majorant is a continuous increasing function omega on [0, inf) with
omega(0) = 0 and omega(t)/t non-increasing. Two families are supported: the
power family t^alpha (0 < alpha <= 1) and tables with log-linear
interpolation. A majorant is *regular* when two integral conditions hold,

    int_0^delta omega(t)/t dt       <= C omega(delta)   (head),
    delta int_delta^inf omega/t^2 dt <= C omega(delta)   (tail),

whose smallest empirical constants :func:`regularity_check` estimates.

The three equivalent growth conditions for a harmonic map f against a
majorant are estimated as empirical constants:

* ``cond_a``: sup of Lambda_f(z) / omega(1/d(z)),
* ``cond_b``: sup over pairs of (|f(z)-f(w)| / |z-w|) / omega(1/sqrt(d(z)d(w))),
* ``cond_c``: sup of disk means of |f - f(z)| over r omega(1/r),

with d(z) = 1 - |z| the boundary distance. :func:`verify_hl_equivalence`
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
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import quad

from .core import _PAIRS, HarmonicMap, _abs2, _grid_stretch, _stretch, from_json
from .core import wirtinger  # unused: the benchmark's tracer test reads this binding
from .functionals import _stretch_sups
from .grids import Grid, _read_only, disk_sample, gauss_legendre_01
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


def _head_quad(omega, u_cap: float, delta: float) -> float:
    """int_0^delta omega(t)/t dt, cut at t = delta e^-u_cap, via t = delta e^-u."""
    val, _ = quad(lambda u: omega(delta * math.exp(-u)), 0.0, u_cap, limit=200)
    return val


def _tail_quad(omega, u_cap: float, delta: float) -> float:
    """delta int_delta^T omega(t)/t^2 dt with T = delta e^u_cap, via t = delta e^u."""
    val, _ = quad(
        lambda u: omega(delta * math.exp(u)) * math.exp(-u), 0.0, u_cap, limit=200
    )
    return val


_CONFIG_FIELDS = {"family": str, "alpha": float, "table": _PAIRS}


class Majorant:
    """Base for majorant families; instances are callables on t >= 0.

    A family supplies ``_eval``, ``config()``, ``label()``, ``head_integral``,
    ``tail_integral`` (None when divergent) and, optionally, ``probe_floor``
    and ``exact_regularity()``.
    """

    family = "abstract"
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
    family = "power"

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
        return _head_quad(self, np.inf, delta)

    def tail_integral(self, delta: float) -> tuple[float, float] | None:
        """delta int_delta^T omega(t)/t^2 dt with T = TAIL_TRUNCATION * delta,
        as (value including any exact remainder, recorded truncation)."""
        alpha = self.alpha
        if alpha >= 1.0:
            return None
        val = _tail_quad(self, math.log(TAIL_TRUNCATION), delta)
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
    family = "sampled"

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
        return _head_quad(self, max(math.log(delta / self.t_min), 0.0), delta)

    def tail_integral(self, delta: float) -> tuple[float, float]:
        u_cap = min(math.log(TAIL_TRUNCATION), math.log(self.t_max / delta))
        u_cap = max(u_cap, 0.0)
        val = _tail_quad(self, u_cap, delta)
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


def check_scaling_lemma(omega: Majorant, probes) -> ScalingCheck:
    """omega(lambda t) <= lambda omega(t) for every probe with lambda >= 1.

    Direct consequence of omega(t)/t non-increasing; verified pointwise with
    1e-12 relative slack.
    """
    bad = []
    for lam, t in probes:
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
    delta0: float
    c_eq3_truncation: float = 0.0


def regularity_check(omega: Majorant, delta0: float, probes: int = 24) -> RegularityReport:
    """Smallest empirical constants in the two regularity conditions.

    Both integrals are evaluated by adaptive quadrature at log-spaced scales
    delta in (0, delta0) and divided by omega(delta); the suprema over the
    probe set are reported. The linear majorant t^1 has a divergent tail
    integral and reports c_eq3 = None.
    """
    if delta0 <= 0.0:
        raise ValueError("delta0 must be positive")
    if probes < 2:
        raise ValueError("need at least two probe scales")
    lo = max(delta0 * 1e-3, omega.probe_floor)
    deltas = np.geomspace(lo, delta0 * 0.999, probes)
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
    return RegularityReport(c_eq2=c2, c_eq3=c3, delta0=float(delta0),
                            c_eq3_truncation=trunc)


@lru_cache(maxsize=64)
def _regularity(omega: Majorant) -> RegularityReport:
    """The regularity probe on (0, 1) behind the majorant-regularity rows and
    verify_hl_equivalence's hypothesis. It depends on the majorant only, so
    it runs once per majorant value."""
    return regularity_check(omega, delta0=1.0)


# ---------------------------------------------------------------------------
# Growth-condition constants
# ---------------------------------------------------------------------------


def cond_a_constants(maps, omega: Majorant, grid: Grid | None = None) -> list[float]:
    """:func:`cond_a_constant` for each map, all polished in lockstep by one
    batched :func:`~harmap.functionals.grid_sup`. The map side, Lambda_f on
    the grid, is memoized per map by ``core._grid_stretch``."""
    sups = _stretch_sups(maps, lambda lam, z: lam / omega(1.0 / (1.0 - np.abs(z))),
                         grid or Grid())
    return [res.value for res in sups]


def cond_a_constant(f: HarmonicMap, omega: Majorant, grid: Grid | None = None) -> float:
    """Smallest empirical C with Lambda_f(z) <= C omega(1/d(z)) on the disk."""
    return cond_a_constants([f], omega, grid)[0]


@lru_cache(maxsize=8)
def default_pair_sample(count: int = 4096, seed: int = 7, r_cap: float = 0.999) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (z, w) pairs mixing random, local, antipodal and
    direction-sweep configurations (the sweeps at shrinking separations pin
    down local-stretch suprema), without degenerate pairs (coincident, or
    touching the boundary). Cached; the arrays are read-only."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x50414952)))
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
    over :func:`default_pair_sample`. The map side is :func:`_pair_quotients`."""
    return _pair_constant(_pair_quotients(f), omega)


def _pair_quotients(f: HarmonicMap) -> np.ndarray:
    """|f(z)-f(w)| / |z-w| on the pairs: the map's side of :func:`cond_b_constant`."""
    z, w = default_pair_sample()
    return np.abs(f(z) - f(w)) / np.abs(z - w)


def _pair_constant(quotients: np.ndarray, omega: Majorant) -> float:
    """The majorant's side of :func:`cond_b_constant`."""
    z, w = default_pair_sample()
    return float(np.max(quotients / omega(1.0 / np.sqrt((1.0 - np.abs(z)) * (1.0 - np.abs(w))))))


def _disk_mean_abs_dev(f: HarmonicMap, z0: complex, r: float, f0: complex) -> float:
    """(1 / |D(z0, r)|) int |f - f0| dA over the disk D(z0, r), f0 = f(z0)."""
    n_ang = 128
    x, wts = gauss_legendre_01(32)
    rho = r * x
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    zeta = z0 + rho[:, None] * np.exp(1j * theta)[None, :]
    vals = np.abs(f(zeta) - f0)
    # mean = (2 / r^2) int_0^r rho mean_theta(rho) drho
    return float((2.0 / r) * np.sum((wts * rho) @ vals) / n_ang)


def default_mean_probes() -> tuple[tuple[complex, tuple[float, ...]], ...]:
    centers = (0j, 0.3 + 0j, 0.25 + 0.43j, -0.7 + 0j, 0.45j, -0.2 - 0.55j)
    return tuple((z, (0.25, 0.5, 1.0)) for z in centers)


def _disk_means(f: HarmonicMap, probes=None) -> list[tuple[float, float]]:
    """(r, disk mean of |f - f(z0)| over D(z0, r)) for each probe of
    :func:`cond_c_constant`, the map's side of that constant."""
    means = []
    for z0, fractions in probes or default_mean_probes():
        z0 = complex(z0)
        d, f0 = 1.0 - abs(z0), f(z0)  # one evaluation per centre, for all its radii
        for frac in fractions:
            r = float(frac) * d
            if r <= 0.0:
                raise ValueError("probe radii must be positive")
            if r > d * (1.0 + 1e-12):
                raise ValueError("probe radius exceeds the boundary distance")
            means.append((r, _disk_mean_abs_dev(f, z0, r, f0)))
    return means


def _mean_constant(means, omega: Majorant) -> float:
    """The majorant's side of :func:`cond_c_constant`: the largest
    mean / (r omega(1/r)) over the (r, mean) pairs of :func:`_disk_means`."""
    best = 0.0
    for r, mean in means:
        best = max(best, mean / (r * omega(1.0 / r)))
    return best


def cond_c_constant(f: HarmonicMap, omega: Majorant, probes=None) -> float:
    """Smallest empirical C with the disk means of |f - f(z)| over D(z, r)
    bounded by C r omega(1/r), the radii running up to the boundary distance.

    ``probes`` lists (center, radius fractions of d(center)); absolute radii
    beyond d(center) are rejected.
    """
    return _mean_constant(_disk_means(f, probes), omega)


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


def poisson_kernel_mean(w: complex, z: complex, r: float, n_theta: int = 1024) -> float:
    """Angular mean of the kernel (trapezoid rule); equals 1 inside."""
    th = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    return float(np.mean(poisson_kernel(w, z, r, th)))


# ---------------------------------------------------------------------------
# Trigonometric maximum and the chord bound
# ---------------------------------------------------------------------------


def trig_max_identity(w: complex, z: complex, n_theta: int = 4096) -> tuple[float, float]:
    """max over theta of |w cos theta + z sin theta|: grid max and the
    closed form (|w + i z| + |w - i z|) / 2."""
    w, z = complex(w), complex(z)
    t = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
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


@lru_cache(maxsize=8)
def _hl_pairs(count: int, seed: int, r_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs kept inside |z| <= r_cap so segment points stay within the sup
    grid's reach (segments between two points of a disk stay in it).
    Cached; the arrays are read-only."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x484C5052)))
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


def _hl_map_side(maps, grid: Grid):
    """The majorant-free half of :func:`verify_hl_equivalences`: (maps, grid,
    the pairs (z, w), |z - w|, the segment nodes' boundary distances and
    weights, and per map |f(z) - f(w)| and Lambda_f integrated per segment)."""
    z, w = _hl_pairs(512, 11, grid.r_max * (1.0 - 1e-3))
    sep = np.abs(z - w)
    x, wts = gauss_legendre_01(64)
    seg = w[:, None] + x[None, :] * (z - w)[:, None]
    fields = [(np.abs(f(z) - f(w)), sep * (_stretch(f, seg) @ wts)) for f in maps]
    return maps, grid, (z, w, sep, 1.0 - np.abs(seg), wts), fields


def _hl_rows(side, omega: Majorant) -> list[tuple[VerificationReport, VerificationReport]]:
    """The majorant's side of :func:`verify_hl_equivalences` on a map side
    of :func:`_hl_map_side`: C4, the segment constant and each map's rows."""
    maps, grid, (z, w, sep, d_seg, wts), fields = side
    reg = _regularity(omega)
    hyp = {"majorant head-regular": reg.c_eq2 is not None and math.isfinite(reg.c_eq2)}
    if not all(hyp.values()):
        return [
            (make_report("hl-forward", None, None, 0.0, hypotheses=hyp),
             make_report("hl-reverse", None, None, 0.0, hypotheses=hyp))
            for _ in maps
        ]

    def grad_ratio(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
        d = 1.0 - np.abs(z)
        return lam * d / omega(d)

    c4s = _stretch_sups(maps, grad_ratio, grid)

    int_omega = sep * ((omega(d_seg) / d_seg) @ wts)
    omega_sep = omega(sep)
    c_seg = float(np.max(int_omega / omega_sep))

    nodes = grid.nodes.ravel()
    inner = 1.0 - np.abs(nodes) >= 1e-3  # hl-reverse's nodes

    out = []
    for f, sup, (df, int_lambda) in zip(maps, c4s, fields):
        c4 = sup.value
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

        # The reverse scan reads C4's coarse array at the nodes with d >= 1e-3.
        ratios = grad_ratio(_grid_stretch(f, grid), grid.nodes).ravel()[inner]
        k = int(np.argmax(ratios))
        lhs_rev = float(ratios[k])
        rev = make_report("hl-reverse", lhs_rev, 21.0 * c5 / math.pi, slack=1e-6, hypotheses=hyp,
                          witnesses=[(complex(nodes[inner][k]), lhs_rev)], details={"C5": c5})
        out.append((fwd, rev))
    return out


def verify_hl_equivalences(
    maps, omega: Majorant, grid: Grid | None = None
) -> list[tuple[VerificationReport, VerificationReport]]:
    """:func:`verify_hl_equivalence` for each map, C4 from one batched
    :func:`~harmap.functionals.grid_sup`. The map side, :func:`_hl_map_side`
    and the memoized Lambda_f grids, involves no majorant: a caller with
    several majorants builds it once and runs :func:`_hl_rows` per majorant."""
    return _hl_rows(_hl_map_side(maps, grid or Grid()), omega)


def verify_hl_equivalence(
    f: HarmonicMap, omega: Majorant, grid: Grid | None = None
) -> tuple[VerificationReport, VerificationReport]:
    """Both directions of the gradient / modulus-of-continuity equivalence.

    Forward: with C4 = sup Lambda_f(z) d(z) / omega(d(z)), integrate
    Lambda_f along straight segments to certify
    |f(z)-f(w)| <= C4 * C_seg * omega(|z-w|) over sampled pairs, where C_seg
    is the empirical segment constant sup (int_seg omega(d)/d ds) / omega(|z-w|).
    The report compares the empirical two-point constant C5 against
    C4 * C_seg and records the inflation C5 / C4.

    Reverse: with C5 = sup |f(z)-f(w)| / omega(|z-w|), check at every grid
    point with d(z) >= 1e-3 that Lambda_f(z) d(z) / omega(d(z)) stays below
    21 C5 / pi, the constant delivered by the Poisson-kernel derivative
    bound on half-radius disks.

    Hypothesis for both directions: the majorant satisfies the head
    regularity condition (finite c_eq2). The one-map case of
    :func:`verify_hl_equivalences`.
    """
    return verify_hl_equivalences([f], omega, grid)[0]
