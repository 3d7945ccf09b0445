"""Global functionals of a harmonic map, each with an honest error estimate.

Area function S_f(r) (image area counting multiplicity, against area measure
normalized so the unit disk has area 1), length l_f(r) of the image of the
circle |z| = r, Hardy means M_p(r, f) and the h^p norm, the Bloch seminorm
sup (1-|z|^2) Lambda_f(z), the hyperbolic distance on the disk, and the
two-point Lipschitz ratio.

Conventions
-----------
* Areas are normalized (the identity map has S(r) = r^2); lengths are not.
* Quadrature values report the finer of two resolutions, with the difference
  between the two as ``error_estimate`` (an a-posteriori bound, not a guess).
* Suprema start from a coarse grid max and refine it; the value never
  falls below the coarse max. Disk suprema (:func:`grid_sup`) polish by
  golden-section search in radius and angle, and the gap closed by the last
  stage is the error estimate. A batch of problems (one per map, say) is
  polished in lockstep, one array call per golden-section step, with each
  problem's result equal to its run on its own. Circle maxima of |f| (the
  p = inf Hardy mean and norm) refine every circle at once by a batched
  angular zoom, :func:`_circle_max`, and the gain over the coarse max is
  the error estimate.
* Boundary suprema over 0 < r < 1 use the dyadic ladder 1 - 2^-k, k <= 20,
  plus a Richardson extrapolant from the two finest rungs, all in one
  helper, :func:`_ladder_sup`; the bare ladder is ~1e-6 short for
  functionals still growing at the boundary and the extrapolant restores
  near machine accuracy for polynomial maps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import HarmonicMap, MapStack, _abs2, _grid_stretch, _stretch, wirtinger
from .grids import Grid, QuadratureSpec, gauss_legendre_01, r_ladder

__all__ = [
    "FunctionalValue",
    "SupResult",
    "SERIES",
    "QUADRATURE",
    "GRID_SUP",
    "area_series",
    "area_sup",
    "area_quadrature",
    "length_function",
    "length_sup",
    "hardy_mean",
    "hardy_norm",
    "bloch_seminorm",
    "bloch_seminorms",
    "bloch_norm",
    "hyperbolic_distance",
    "lipschitz_ratio",
    "golden_max",
    "grid_sup",
]

SERIES = "series"
QUADRATURE = "quadrature"
GRID_SUP = "grid-sup"

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FunctionalValue:
    """A computed functional with its method tag and a-posteriori error."""

    value: float
    method: str
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be nonnegative")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _error_floor(value: float) -> float:
    return 8.0 * _EPS * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# Area
# ---------------------------------------------------------------------------


def _area_coeffs(f: HarmonicMap) -> np.ndarray:
    """Series coefficients n (|a_n|^2 - |b_n|^2), n = 1..N."""
    n = np.arange(1, f.degree + 1)
    return n * (_abs2(f._a_arr[1:]) - _abs2(f._b_full[1:]))


def area_series(f: HarmonicMap, r: float) -> FunctionalValue:
    """S_f(r) = sum n (|a_n|^2 - |b_n|^2) r^(2n): exact for polynomial maps."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    c = _area_coeffs(f)
    n = np.arange(1, f.degree + 1)
    value = float(np.sum(c * float(r) ** (2 * n)))
    return FunctionalValue(value, SERIES, 0.0)


def area_sup(f: HarmonicMap) -> FunctionalValue:
    """S_f(1) = sup over 0 < r < 1 of S_f(r).

    For coefficient-dominant maps (|b_n| <= |a_n|) every series term is
    nonnegative, S_f is increasing and the series value at r = 1 is the
    supremum. With mixed signs the sup can sit inside, so the maximum of the
    series value and the dyadic-ladder values is returned; overestimating is
    the safe direction for every check that consumes S_f(1).
    """
    c = _area_coeffs(f)
    n = np.arange(1, f.degree + 1)
    s_one = float(np.sum(c))
    ladder = r_ladder()
    s_ladder = (c[None, :] * ladder[:, None] ** (2 * n[None, :])).sum(axis=1)
    return FunctionalValue(max(s_one, float(np.max(s_ladder))), SERIES, 0.0)


def _area_polar(f: HarmonicMap, r: float, n_rad: int, n_ang: int) -> float:
    x, w = gauss_legendre_01(n_rad)
    rho = r * x
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    z = rho[:, None] * np.exp(1j * theta)[None, :]
    fz, fzbar = wirtinger(f, z)
    jac = _abs2(fz) - _abs2(fzbar)
    # (1/pi) * int_0^{2pi} int_0^r J rho drho dtheta, trapezoid x Gauss-Legendre
    return float((2.0 * r / n_ang) * np.sum((w * rho) @ jac))


def area_quadrature(f: HarmonicMap, r: float, q: QuadratureSpec | None = None) -> FunctionalValue:
    """S_f(r) by direct integration of the Jacobian over the disk of radius r.

    Gauss-Legendre in radius and the uniform trapezoid rule in angle; both
    are exact for polynomial integrands once radial_nodes >= degree, so this
    is an independent oracle for the coefficient series.
    """
    q = q or QuadratureSpec()
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if q.radial_nodes < f.degree:
        raise ValueError("radial_nodes must be at least the map degree")
    v1 = _area_polar(f, r, q.radial_nodes, q.angular_nodes)
    v2 = _area_polar(f, r, 2 * q.radial_nodes, 2 * q.angular_nodes)
    return FunctionalValue(v2, QUADRATURE, max(abs(v2 - v1), _error_floor(v2)))


# ---------------------------------------------------------------------------
# Length
# ---------------------------------------------------------------------------


def _circle_lengths(f: HarmonicMap, rs, n_ang: int) -> np.ndarray:
    """l_f(r) for an array of radii, by the periodic trapezoid rule."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    z = rs[:, None] * np.exp(1j * theta)[None, :]
    fz, fzbar = wirtinger(f, z)
    integrand = np.abs(fz - np.exp(-2j * theta)[None, :] * fzbar)
    return rs * (2.0 * np.pi / n_ang) * integrand.sum(axis=1)


def length_function(f: HarmonicMap, r: float, q: QuadratureSpec | None = None) -> FunctionalValue:
    """Length of the image of |z| = r, counting multiplicity.

    l_f(r) = r * int |f_z - e^{-2 i theta} f_zbar| dtheta. The integrand is
    smooth and periodic so the trapezoid rule converges spectrally; the
    error estimate comes from node doubling.
    """
    q = q or QuadratureSpec()
    if not 0.0 < r <= 1.0 - 1e-9:
        raise ValueError("r must lie in (0, 1 - 1e-9]")
    v1 = float(_circle_lengths(f, r, q.angular_nodes)[0])
    v2 = float(_circle_lengths(f, r, 2 * q.angular_nodes)[0])
    return FunctionalValue(v2, QUADRATURE, max(abs(v2 - v1), _error_floor(v2)))


def _ladder_sup(fine: np.ndarray, coarse: np.ndarray | None = None) -> FunctionalValue:
    """Boundary sup of a functional sampled on the radius ladder.

    The value is the larger of the ladder maximum and the Richardson
    extrapolant in the boundary gap h = 2^-k (halves per rung),
    l(1) ~= 2 l_K - l_{K-1} with O(h^2) error, bounded by the difference of
    consecutive extrapolants. With a ``coarse`` ladder at half the angular
    resolution the quadrature gap joins the error estimate; without one the
    rungs are grid sups.
    """
    extrap = 2.0 * fine[-1] - fine[-2]
    extrap_prev = 2.0 * fine[-2] - fine[-3]
    value = max(float(np.max(fine)), float(extrap))
    err = max(abs(float(extrap - extrap_prev)), _error_floor(value))
    if coarse is None:
        return FunctionalValue(value, GRID_SUP, err)
    return FunctionalValue(value, QUADRATURE, max(float(np.max(np.abs(fine - coarse))), err))


def length_sup(f: HarmonicMap, q: QuadratureSpec | None = None) -> FunctionalValue:
    """l_f(1) = sup over 0 < r < 1 of l_f(r), via :func:`_ladder_sup`."""
    q = q or QuadratureSpec()
    rs = r_ladder()
    return _ladder_sup(
        _circle_lengths(f, rs, 2 * q.angular_nodes), _circle_lengths(f, rs, q.angular_nodes)
    )


# ---------------------------------------------------------------------------
# Hardy means
# ---------------------------------------------------------------------------


def _circle_pmeans(f: HarmonicMap, rs, p: float, n_ang: int) -> np.ndarray:
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    z = rs[:, None] * np.exp(1j * theta)[None, :]
    vals = np.abs(f(z))
    return np.mean(vals**p, axis=1) ** (1.0 / p)


def _circle_max(f: HarmonicMap, rs, n_ang: int):
    """Maximum of |f| on each circle |z| = r, r in ``rs``, all at once.

    A coarse scan on the ``len(rs) x n_ang`` tensor grid picks each
    circle's best angle; then every circle is zoomed in lockstep: each round
    evaluates 2m + 1 = 17 angles spanning +-h around the current best (h
    starts at one grid spacing, the golden-section bracket) and divides h
    by m, until h is within golden_max's tolerance 1e-10 (9 rounds at
    n_ang = 1024). Returns ``(values, coarse maxima)``; a value never
    falls below its coarse maximum.
    """
    m = 8
    rs = np.atleast_1d(np.asarray(rs, dtype=float))[:, None]
    rows = np.arange(rs.shape[0])
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    vals = np.abs(f(rs * np.exp(1j * theta)))
    j = np.argmax(vals, axis=1)
    coarse = vals[rows, j]
    best_v, best_t = coarse, theta[j]
    steps = np.arange(-m, m + 1) / m
    h = theta[1] - theta[0]
    while h > 1e-10:
        t = best_t[:, None] + h * steps
        patch = np.abs(f(rs * np.exp(1j * t)))
        k = np.argmax(patch, axis=1)
        v = patch[rows, k]
        best_t = np.where(v > best_v, t[rows, k], best_t)
        best_v = np.maximum(v, best_v)
        h /= m
    return best_v, coarse


def hardy_mean(f: HarmonicMap, p: float, r: float, q: QuadratureSpec | None = None) -> FunctionalValue:
    """Integral mean M_p(r, f); for p = inf, the maximum of |f| on |z| = r."""
    q = q or QuadratureSpec()
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if p != math.inf and not p > 0.0:
        raise ValueError("p must be positive or inf")
    if p == math.inf:
        v, coarse = _circle_max(f, r, 4 * q.angular_nodes)
        v, coarse = float(v[0]), float(coarse[0])
        return FunctionalValue(v, GRID_SUP, max(v - coarse, _error_floor(v)))
    v1 = float(_circle_pmeans(f, r, p, q.angular_nodes)[0])
    v2 = float(_circle_pmeans(f, r, p, 2 * q.angular_nodes)[0])
    return FunctionalValue(v2, QUADRATURE, max(abs(v2 - v1), _error_floor(v2)))


def hardy_norm(f: HarmonicMap, p: float, q: QuadratureSpec | None = None) -> FunctionalValue:
    """h^p norm: sup of M_p over the radius ladder (sup of |f| when p = inf),
    via :func:`_ladder_sup`."""
    q = q or QuadratureSpec()
    rs = r_ladder()
    if p == math.inf:
        return _ladder_sup(_circle_max(f, rs, 4 * q.angular_nodes)[0])
    if not p > 0.0:
        raise ValueError("p must be positive or inf")
    return _ladder_sup(
        _circle_pmeans(f, rs, p, 2 * q.angular_nodes), _circle_pmeans(f, rs, p, q.angular_nodes)
    )


# ---------------------------------------------------------------------------
# Sup-estimation protocol
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_search(a: float, b: float, tol: float):
    """Golden-section maximization on [a, b] as a coroutine: it yields each
    probe abscissa, is sent the value there, and returns (value, argmax)."""
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return (yield x), x
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = yield c
    yd = yield d
    for _ in range(n - 1):
        h *= _INV_PHI
        if yc > yd:
            d, yd = c, yc
            c = a + _INV_PHI2 * h
            yc = yield c
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * h
            yd = yield d
    return (yc, c) if yc > yd else (yd, d)


def _golden_lockstep(evaluate, brackets, tol: float = 1e-10) -> list[tuple]:
    """Golden-section maximization of P scalar functions side by side.

    ``brackets`` holds each problem's (a, b); ``evaluate(xs)`` takes one
    abscissa per problem and returns the P values from one call. Each
    problem runs its own :func:`_golden_search`; one that has finished
    rides along, its last probe evaluated again and ignored, until the
    slowest is done. Returns (value, argmax) per problem.
    """
    searches = [_golden_search(a, b, tol) for a, b in brackets]
    xs = [next(search) for search in searches]
    results = [None] * len(searches)
    live = range(len(searches))
    while live:
        ys = evaluate(xs)
        running = []
        for p in live:
            try:
                xs[p] = searches[p].send(ys[p])
                running.append(p)
            except StopIteration as done:
                results[p] = done.value
        live = running
    return results


def golden_max(fn, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on [a, b].

    Returns (value, argmax). Intended for local polishing after a coarse
    grid scan, where the bracket contains a single interior extremum. The
    one-problem case of the lockstep search :func:`grid_sup` polishes with.
    """
    return _golden_lockstep(lambda xs: [fn(xs[0])], [(a, b)], tol)[0]


@dataclass(frozen=True)
class SupResult:
    value: float
    argmax: complex
    error_estimate: float


def grid_sup(fn, grid: Grid, count: int, coarse) -> list[SupResult]:
    """Estimate the sup over the disk covered by the grid of each of
    ``count`` problems at once, one SupResult per problem.

    ``coarse`` yields each problem's values on ``grid.nodes``, say its
    memoized Lambda_f grid under a weight, and is read after ``fn`` has been
    evaluated at the origin.
    ``fn(z, rows)`` evaluates the problems ``rows`` (a slice) and returns a
    real array of z's shape, z's leading axis running over those problems.
    Protocol, per problem: coarse max over the tensor grid and the origin;
    golden-section refinement in radius at the best angle; then in angle;
    then in radius again. The value gained by the final stage is reported
    as the error estimate. The polish runs every problem in lockstep, one
    call of ``count`` points per golden-section step, and each result
    equals the run of that problem alone.
    """
    radii, angles = grid.radii, grid.angles
    best_v, best_r, best_t, lo, hi = [], [], [], [], []
    origin = np.asarray(fn(np.zeros((count, 1), dtype=complex), slice(None)), dtype=float)
    for p, vals in zip(range(count), coarse):
        i, j = divmod(int(np.argmax(vals)), grid.n_theta)
        v, r, t = float(vals[i, j]), float(radii[i]), float(angles[j])
        if float(origin[p, 0]) > v:
            v, r, t, i = float(origin[p, 0]), 0.0, 0.0, -1
        best_v.append(v)
        best_r.append(r)
        best_t.append(t)
        # The radius bracket spans the neighbouring rings; the origin's is [0, radii[0]].
        lo.append(0.0 if i <= 0 else float(radii[i - 1]))
        hi.append(grid.r_max if i >= grid.n_r - 1 else float(radii[i + 1]))

    def at(rs, ts) -> list[float]:
        z = np.asarray([r * cmath.exp(1j * t) for r, t in zip(rs, ts)])
        return fn(z[:, None], slice(None)).ravel().tolist()

    def polish(values, args, evaluate, brackets) -> list[float]:
        """One golden-section stage over every problem; returns the best
        value of each after it."""
        for p, (v, x) in enumerate(_golden_lockstep(evaluate, brackets)):
            if v > values[p]:
                values[p], args[p] = v, x
        return list(values)

    stage1 = polish(best_v, best_r, lambda xs: at(xs, best_t), list(zip(lo, hi)))
    dt = float(angles[1] - angles[0])
    stage2 = polish(best_v, best_t, lambda xs: at(best_r, xs),
                    [(t - dt, t + dt) for t in best_t])
    polish(best_v, best_r, lambda xs: at(xs, best_t), list(zip(lo, hi)))
    return [
        SupResult(
            value=v,
            argmax=complex(r * cmath.exp(1j * t)),
            error_estimate=max(v - s2, s2 - s1, _error_floor(v)),
        )
        for v, r, t, s1, s2 in zip(best_v, best_r, best_t, stage1, stage2)
    ]


def _stretch_sups(maps, ratio, grid: Grid) -> list[SupResult]:
    """:func:`grid_sup` of ratio(Lambda_f(z), z) for each map: the coarse
    scans weigh the memoized Lambda_f grids, the polish runs on the stack."""
    stack = MapStack(maps)
    coarse = (ratio(_grid_stretch(f, grid), grid.nodes) for f in maps)
    return grid_sup(lambda z, rows: ratio(_stretch(stack[rows], z), z), grid, len(stack), coarse)


# ---------------------------------------------------------------------------
# Bloch seminorm and the hyperbolic metric
# ---------------------------------------------------------------------------


def bloch_seminorms(maps, grid: Grid | None = None) -> list[FunctionalValue]:
    """sup over the disk of (1 - |z|^2) Lambda_f(z) for each map, all
    polished in lockstep by one batched :func:`grid_sup`."""
    sups = _stretch_sups(maps, lambda lam, z: (1.0 - _abs2(z)) * lam, grid or Grid())
    return [FunctionalValue(res.value, GRID_SUP, res.error_estimate) for res in sups]


def bloch_seminorm(f: HarmonicMap, grid: Grid | None = None) -> FunctionalValue:
    """sup over the disk of (1 - |z|^2) Lambda_f(z): the one-map case of
    :func:`bloch_seminorms`."""
    return bloch_seminorms([f], grid)[0]


def bloch_norm(f: HarmonicMap, grid: Grid | None = None) -> FunctionalValue:
    """|f(0)| plus the Bloch seminorm."""
    semi = bloch_seminorm(f, grid)
    return FunctionalValue(abs(f(0j)) + semi.value, GRID_SUP, semi.error_estimate)


def hyperbolic_distance(z: complex, w: complex) -> float:
    """arctanh of the pseudo-hyperbolic distance |(z - w) / (1 - conj(z) w)|."""
    z, w = complex(z), complex(w)
    for v in (z, w):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("non-finite input")
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("both points must lie strictly inside the unit disk")
    return math.atanh(abs((z - w) / (1.0 - z.conjugate() * w)))


def lipschitz_ratio(f: HarmonicMap, z: complex, w: complex) -> float:
    """|f(z) - f(w)| / rho(z, w); never exceeds the Bloch seminorm."""
    z, w = complex(z), complex(w)
    if z == w:
        raise ValueError("points must be distinct")
    return abs(f(z) - f(w)) / hyperbolic_distance(z, w)
