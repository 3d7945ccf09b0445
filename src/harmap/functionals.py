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
  between the two as ``error_estimate`` (an a-posteriori bound, not a guess),
  by one rule, :func:`_doubling`. The two share one evaluation: the n-angle
  rule reads the even nodes of the 2n-angle one (:func:`_circle_lengths`).
  No quadrature takes a resolution argument; each sizes its nodes by the
  map's degree N. The circle rules of the lengths and the finite-p Hardy
  means take n = 256 up to N = 64 and the smallest power of two >= 4N
  above, at most 2^14 (:func:`_circle_nodes`).
  The radial Gauss-Legendre nodes of :func:`area_quadrature` are
  ``grids.gauss_legendre_01``'s numpy rule, so no functional loads scipy.
* Polar tensor grids (radii times uniform angles) are evaluated one ring at
  a time by an inverse FFT, ``core._ring_fields`` and ``core._ring_values``:
  the area quadrature, the finite-p Hardy means and the samples of a circle
  max. A ring's Jacobian has trigonometric degree N - 1, so the area
  quadrature's N and 2N angles a ring are both exact, as are its N radii.
  Scattered points (the disk suprema's polish steps) go through Horner. The
  grids whose values feed the pinned campaign digest (the memoized grid scan
  ``core._grid_scan``, whose Lambda_f the disk suprema read, and the circle
  lengths) stay on Horner until that digest is re-pinned.
* Disk suprema (:func:`grid_sup`) start from a coarse grid max and refine it
  by one array golden-section search, :func:`_golden_polish`; the value
  never falls below the coarse max. They polish a batch of maps in radius
  and angle, each map's result equal to its run on its own, and the gap
  closed by the last stage is the error estimate.
  A probe's abscissa depends on the left/right decisions before it and
  not on the values, so one evaluation covers several steps: every
  abscissa they could probe, at most 128 a call, computed by the float
  operations of the step-by-step search, so with its bits. For one map a
  stage's first call holds its bracket points c, d and the trees of the 6
  steps after either outcome of their comparison (128 abscissas), and each
  later call a tree of 7 steps (127); the origin's Lambda_f = |a_1| + |b_1|
  is read off the coefficients.
* The max of |f| on a circle is proved, not polished (:func:`_circle_max`):
  there |f|^2 is a trigonometric polynomial of degree 2N, whose Fourier
  coefficients bound it on every arc to third order, and branch and bound
  on arcs closes the gap to about 1e-13 relative. The gap plus a rounding
  term relative to |f|^2 itself, bounded in a probabilistic model, is the
  error estimate.
* Boundary values follow the maximum principle: for p >= 1, |f|^p is
  subharmonic, so the h^p norm is M_p(1, f) (Hardy's convexity theorem),
  and S_f(1) is the exact maximum of a polynomial in r^2. The dyadic ladder
  1 - 2^-k, k <= 20, with a Richardson extrapolant, :func:`_ladder_sup`,
  serves l_f(1), whose bits feed the pinned campaign digest, and the h^p
  norm at 0 < p < 1, where M_p need not be monotone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .core import HarmonicMap, MapStack, _abs2, _grid_scan, _memoized, _stretch, wirtinger
from .core import _ring_fields, _ring_values
from .grids import GRID, _read_only, gauss_legendre_01, r_ladder

__all__ = [
    "FunctionalValue",
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
    "hyperbolic_distance",
    "lipschitz_ratio",
    "grid_sup",
]

SERIES = "series"
QUADRATURE = "quadrature"
GRID_SUP = "grid-sup"

_EPS = float(np.finfo(float).eps)
# Abscissa tolerance of the disk suprema's refinement, the golden-section bracket.
_SUP_TOL = 1e-10
_AREA_BLOCK = 1 << 16  # area nodes whose fields are held at once: all rings up to N = 181


@dataclass(frozen=True)
class FunctionalValue:
    """A computed functional with its method tag and a-posteriori error."""

    value: float
    method: str
    error_estimate: float = 0.0

    def __post_init__(self):
        if not self.error_estimate >= 0.0:  # NaN fails too
            raise ValueError("error_estimate must be nonnegative")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _error_floor(value: float) -> float:
    return 8.0 * _EPS * max(1.0, abs(value))


def _doubling(fine: float, coarse: float, floor: float = 0.0) -> FunctionalValue:
    """A quadrature at two resolutions: the finer value, with the gap between
    the two (at least the rounding floor of the value, and ``floor``) as its
    error estimate."""
    return FunctionalValue(fine, QUADRATURE, max(abs(fine - coarse), _error_floor(fine), floor))


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


@_memoized
def area_sup(f: HarmonicMap) -> FunctionalValue:
    """S_f(1) = sup over 0 < r < 1 of S_f(r): the exact maximum of
    S(x) = sum c_n x^n, x = r^2, on [0, 1]. If c_1 + sum_{n>=2} n min(c_n, 0)
    >= 0, then S' >= 0 there and the value is S(1); else the largest of
    S(0) = 0, S(1) and S at the roots' real parts of S', clipped to [0, 1].
    Memoized in a campaign, whose verifiers read it once per row."""
    c = _area_coeffs(f)
    n = np.arange(1, f.degree + 1)
    s_one = float(np.sum(c))
    if c[0] + n[1:] @ np.minimum(c[1:], 0.0) >= 0.0:
        return FunctionalValue(s_one, SERIES, 0.0)
    x = np.clip(np.roots((n * c)[::-1]).real, 0.0, 1.0)
    s_crit = (c[None, :] * x[:, None] ** n[None, :]).sum(axis=1)
    return FunctionalValue(max(0.0, s_one, *s_crit.tolist()), SERIES, 0.0)


def _area_polar(f: HarmonicMap, r: float, n_rad: int, n_ang: int) -> tuple[float, float]:
    """(1/pi) * int_0^{2pi} int_0^r J rho drho dtheta by Gauss-Legendre on
    n_rad radii times the trapezoid rule on n_ang and on n_ang / 2 angles,
    (fine, coarse), from one evaluation of the fields in blocks of rings of
    at most _AREA_BLOCK nodes. The coarse rule reads the even angles, as in
    :func:`_circle_lengths`."""
    x, w = gauss_legendre_01(n_rad)
    rho = r * x
    wr = w * rho
    step = max(1, _AREA_BLOCK // n_ang)
    for s in range(0, n_rad, step):
        fz, fzbar = _ring_fields(f, rho[s : s + step], n_ang)
        part = wr[s : s + step] @ (_abs2(fz) - _abs2(fzbar))
        total = part if s == 0 else total + part
    return tuple(float((2.0 * r / m) * np.sum(total[::k])) for m, k in ((n_ang, 1), (n_ang // 2, 2)))


def area_quadrature(f: HarmonicMap, r: float) -> FunctionalValue:
    """S_f(r) by direct integration of the Jacobian over the disk of radius r,
    an independent oracle for the coefficient series.

    The angular mean of J on |z| = rho is a polynomial of degree 2(N - 1) in
    rho, so Gauss-Legendre on N radii integrates J rho exactly; on a ring J is
    a trigonometric polynomial of degree N - 1, which the trapezoid rule on
    N angles integrates exactly. One evaluation on N radii times 2N angles
    gives both rules, and their difference is a rounding-level estimate.
    Where |h'|^2 and |g'|^2 nearly cancel, the rounding follows the terms,
    not the value: the estimate is at least 8 eps sum n (|a_n|^2 + |b_n|^2)
    r^(2n).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    n = np.arange(1, f.degree + 1)
    terms = float(n * (_abs2(f._a_arr[1:]) + _abs2(f._b_full[1:])) @ float(r) ** (2 * n))
    return _doubling(*_area_polar(f, r, f.degree, 2 * f.degree), 8.0 * _EPS * terms)


# ---------------------------------------------------------------------------
# Length
# ---------------------------------------------------------------------------


def _circle_nodes(f: HarmonicMap) -> int:
    """The angle count n of the coarse circle rules, whose fine rules take
    2n: the smallest power of two >= 4N, at least 256 and at most 2^14. On a
    ring |f|^2 is a trigonometric polynomial of degree 2N, so both rules of
    the p = 2 Hardy mean are exact up to N = 4096; every map of degree <= 64
    keeps n = 256."""
    return min(1 << 14, max(256, 1 << (4 * f.degree - 1).bit_length()))


def _circle_lengths(f: HarmonicMap, rs, n_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """l_f(r) for an array of radii by the periodic trapezoid rule on 2 n_ang
    and on n_ang angles, (fine, coarse), from one evaluation on the fine
    nodes. The coarse rule reads their even nodes: node 2j of 2n uniform
    angles is node j of n bit for bit, and numpy's pairwise sum over the
    strided view makes the same additions as over a copy. The integrand is
    formed in the fields' own buffers, with no temporary of their size;
    numpy's complex multiply is not symmetric in its operands' bits, so
    the phase stays the first operand."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    theta = np.linspace(0.0, 2.0 * np.pi, 2 * n_ang, endpoint=False)
    z = rs[:, None] * np.exp(1j * theta)[None, :]
    fz, fzbar = wirtinger(f, z)
    np.multiply(np.exp(-2j * theta)[None, :], fzbar, out=fzbar)
    integrand = np.abs(np.subtract(fz, fzbar, out=fz))
    return tuple(rs * (2.0 * np.pi / m) * integrand[:, ::step].sum(axis=1)
                 for m, step in ((2 * n_ang, 1), (n_ang, 2)))


def length_function(f: HarmonicMap, r: float) -> FunctionalValue:
    """Length of the image of |z| = r, counting multiplicity.

    l_f(r) = r * int |f_z - e^{-2 i theta} f_zbar| dtheta. The integrand is
    smooth and periodic so the trapezoid rule converges spectrally; the
    error estimate comes from node doubling, on :func:`_circle_nodes` angles.
    """
    if not 0.0 < r <= 1.0 - 1e-9:
        raise ValueError("r must lie in (0, 1 - 1e-9]")
    return _doubling(*(float(v[0]) for v in _circle_lengths(f, r, _circle_nodes(f))))


def _ladder_sup(fine: np.ndarray, coarse: np.ndarray) -> FunctionalValue:
    """Boundary sup of a quadrature sampled on the radius ladder at two
    angular resolutions, ``coarse`` at half the nodes of ``fine``: the larger
    of the ladder maximum and the Richardson extrapolant in the boundary gap
    h = 2^-k (halves per rung), l(1) ~= 2 l_K - l_{K-1} with O(h^2) error,
    bounded by the difference of consecutive extrapolants, plus the gap
    between the two resolutions."""
    extrap = 2.0 * fine[-1] - fine[-2]
    extrap_prev = 2.0 * fine[-2] - fine[-3]
    value = max(float(np.max(fine)), float(extrap))
    err = max(abs(float(extrap - extrap_prev)), _error_floor(value))
    return FunctionalValue(value, QUADRATURE, max(float(np.max(np.abs(fine - coarse))), err))


@_memoized
def length_sup(f: HarmonicMap) -> FunctionalValue:
    """l_f(1) = sup over 0 < r < 1 of l_f(r), via :func:`_ladder_sup`.
    Memoized in a campaign, whose coefficient and gradient bounds both read it."""
    return _ladder_sup(*_circle_lengths(f, r_ladder(), _circle_nodes(f)))


# ---------------------------------------------------------------------------
# Hardy means
# ---------------------------------------------------------------------------


def _circle_pmeans(f: HarmonicMap, rs, p: float, n_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """M_p(r, f) for an array of radii by the periodic trapezoid rule on
    2 n_ang and on n_ang angles, (fine, coarse), from one evaluation on the
    fine nodes whose even nodes the coarse rule reads (:func:`_circle_lengths`).
    Each is m exp(log1p(mean(expm1(p log(|f|/m)))) / p) with m the ring's
    maximum of |f| on the fine nodes: a large p neither underflows nor
    overflows, and a small one does not cancel (M_p tends to exp(mean log|f|)
    as p -> 0). A zero of f adds expm1(-inf) = -1 to the mean; a ring where
    f = 0 gives 0."""
    vals = np.abs(_ring_values(f, rs, 2 * n_ang))
    top = vals.max(axis=1)
    with np.errstate(divide="ignore"):  # log 0 = -inf, and log1p(-1) where f = 0 on a ring
        terms = np.expm1(p * np.log(vals / np.where(top > 0.0, top, 1.0)[:, None]))
        return tuple(top * np.exp(np.log1p(np.mean(terms[:, ::k], axis=1)) / p) for k in (1, 2))


# Below the smallest normal float, p log(|f|/m) in _circle_pmeans turns subnormal
# and loses its digits: at p = 5e-324 a Hardy mean reads the circle max.
_P_MIN = sys.float_info.min
_P_MESSAGE = f"p must be inf or at least {_P_MIN!r}, the smallest normal float"


_CIRCLE_GAP = 1e-13  # an arc whose bound is within this share of the best F is dropped
_CIRCLE_ARCS = 1 << 12  # arcs alive at most: the search stops rather than hold more
_CIRCLE_BLOCK = 1 << 16  # centres x frequencies of one direct sum (1 MiB of complex)
_ROUNDING_SIGMAS = 8.0  # the lambda of _circle_max's probabilistic rounding bound


def _circle_max(f: HarmonicMap, r: float, n: int) -> tuple[FunctionalValue, float]:
    """max |f| on |z| = r with an error proved up to rounding (which is
    bounded in a probabilistic model), and an angle where |f| is that value
    to within the error: branch and bound on arcs (Piyavskii 1972, Shubert
    1972) for F = |f / s|^2, s = sum |a_k| r^k + sum |b_k| r^k, so that
    F <= 1 cannot overflow.

    F is a real trigonometric polynomial of degree d = 2N, so one FFT of its
    values at n >= 2d + 1 uniform angles (:func:`~harmap.core._ring_values`)
    gives its coefficients F^_k, and inverse FFTs give F, F' and F'' there:
    the centres of n arcs of half-width pi / n. By Taylor's theorem F is at
    most F(c) + |F'(c)| w + max(F''(c), 0) w^2 / 2 + M3 w^3 / 6 on the arc of
    half-width w around c, with M3 = sum over |k| <= d of |k|^3 |F^_k| >=
    max |F'''|. Each round drops the arcs whose bound is within
    ``_CIRCLE_GAP`` of the best F found and trisects the others; F, F' and
    F'' at the new centres are direct sums over F^, elementwise (no BLAS
    product). The search ends when no arc is left, or with the gap it has
    proved when more than ``_CIRCLE_ARCS`` would be.

    Rounding is bounded relative to F itself, not to s^2, so a map whose
    terms cancel on the circle keeps a tight error. The centres lie on
    multiples of q = 2^(bitlen(d) - 50), where k c is exact for |k| <= d, so
    a phase e^(ikc) is off by about eps at any k: the first ones are rounded
    there, and a trisection moves them by 2t rounded to a multiple of q. A
    bound takes w = t + q, t the arc's nominal half-width, which covers
    those shifts. With A = sum |F^_k| >= max F and R = (sum
    |F^_k|^2)^(1/2), the root mean square of the samples of F, the sample and
    FFT errors leave F^ off by at most 3 eps log2 n (R + 2 sqrt(A F^_0)) in
    norm (Parseval), and the sequential sum of d terms adds u sqrt(d) A a
    standard deviation, u = eps / 2. The errors are taken as independent, as
    in the probabilistic rounding analysis of Higham and Mary (2019), and
    bounded at lambda = ``_ROUNDING_SIGMAS`` deviations: a value of F is off
    by at most delta = lambda eps (3 log2 n (R + 2 sqrt(A F^_0)) + sqrt(d) A /
    2). The same errors scaled by |k|, k^2 and |k|^3 enter the bound through
    F', F'' and M3, so a bound is off by at most delta e^(d w). The value is
    s sqrt(best F), and the error covers s sqrt(best - delta) to s
    sqrt(upper), where upper is the largest bound plus its rounding: both
    ends are linear in s."""
    d = 2 * f.degree
    if n < 2 * d + 1:
        raise ValueError("n must be at least 4N + 1 angles")
    rk = float(r) ** np.arange(f.degree + 1)
    s = float(np.sum(np.abs(f._a_arr) * rk) + np.sum(np.abs(f._b_full) * rk))
    if s == 0.0:
        return FunctionalValue(0.0, GRID_SUP, 0.0), 0.0
    k = np.arange(d + 1)
    fh = np.fft.rfft(_abs2(_ring_values(f, r, n)[0] / s), norm="forward")[: d + 1]
    rows = np.zeros((3, n // 2 + 1), dtype=complex)  # F^, (ik) F^, (ik)^2 F^ for k >= 0
    rows[:, : d + 1] = fh, 1j * k * fh, -(k * k) * fh
    arcs = np.empty((4, n))  # centre, F, F', F'' of each arc alive
    q = 2.0 ** (d.bit_length() - 50)  # |c| < 8 and |k| <= d, so |k c / q| < 2^53
    arcs[0] = np.rint(np.arange(n) * (2.0 * np.pi / n) / q) * q
    arcs[1:] = np.fft.irfft(rows, n, norm="forward")
    # At a centre c, F = F^_0 + Re sum_{k >= 1} 2 F^_k e^(ikc), and so for F' and F''.
    weights = 2.0 * rows[:, 1 : d + 1]
    ik = 1j * k[1:]
    mag = np.abs(fh)
    m3 = 2.0 * float(np.sum(k**3 * mag))
    mean, size = float(mag[0]), 2.0 * float(np.sum(mag)) - float(mag[0])  # F^_0 and A
    rms = math.sqrt(2.0 * float(mag @ mag) - mean * mean)
    delta = _ROUNDING_SIGMAS * _EPS * (3.0 * math.log2(n) * (rms + 2.0 * math.sqrt(size * mean))
                                       + math.sqrt(d) * size / 2.0)
    t = math.pi / n
    j = int(np.argmax(arcs[1]))
    best, angle = float(arcs[1, j]), float(arcs[0, j])
    upper = best + delta
    step = max(1, _CIRCLE_BLOCK // d)
    while True:
        _, F, F1, F2 = arcs
        w = t + q
        bound = F + w * (np.abs(F1) + w * (np.maximum(F2, 0.0) / 2.0 + w * (m3 / 6.0)))
        keep = bound > best * (1.0 + _CIRCLE_GAP)
        rounding = delta * math.exp(d * w)
        upper = max(upper, float(np.max(bound, where=~keep, initial=-np.inf)) + rounding)
        alive = int(np.count_nonzero(keep))
        if not alive or 3 * alive > _CIRCLE_ARCS:
            upper = max(upper, float(np.max(bound, where=keep, initial=-np.inf)) + rounding)
            break
        arcs, t = arcs[:, keep], t / 3.0
        new = np.empty((4, 2 * alive))  # the outer thirds; the middle one keeps its centre
        shift = round(2.0 * t / q) * q  # a multiple of q, so the new centres are exact
        new[0, :alive], new[0, alive:] = arcs[0] - shift, arcs[0] + shift
        for i in range(0, 2 * alive, step):
            e = np.exp(np.multiply.outer(new[0, i : i + step], ik))
            new[1:, i : i + step] = np.einsum("mk,jk->jm", e, weights).real
        new[1] += fh[0].real
        j = int(np.argmax(new[1]))
        if new[1, j] > best:
            best, angle = float(new[1, j]), float(new[0, j])
        arcs = np.concatenate((arcs, new), axis=1)
    value = s * math.sqrt(best)
    error = max(s * math.sqrt(upper) - value, value - s * math.sqrt(max(best - delta, 0.0)))
    return FunctionalValue(value, GRID_SUP, error), angle


def hardy_mean(f: HarmonicMap, p: float, r: float) -> FunctionalValue:
    """Integral mean M_p(r, f), 0 < r <= 1, by the trapezoid rule on
    :func:`_circle_nodes` and twice as many angles, whose difference is the
    error estimate. For p = inf, the max of |f| on |z| = r with an error
    proved up to rounding, :func:`_circle_max`, from the smallest power of
    two above 8N angles: the search needs 4N + 1, and twice that starts it
    narrower for about the same cost."""
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    if p != math.inf and not p >= _P_MIN:
        raise ValueError(_P_MESSAGE)
    if p == math.inf:
        return _circle_max(f, r, 1 << (8 * f.degree).bit_length())[0]
    return _doubling(*(float(v[0]) for v in _circle_pmeans(f, r, p, _circle_nodes(f))))


def hardy_norm(f: HarmonicMap, p: float) -> FunctionalValue:
    """h^p norm, sup over 0 < r < 1 of M_p(r, f): M_p(1, f) for p >= 1 and
    p = inf, where M_p is nondecreasing in r, else the ladder sup."""
    if p >= 1.0:
        return hardy_mean(f, p, 1.0)
    if not p >= _P_MIN:
        raise ValueError(_P_MESSAGE)
    return _ladder_sup(*_circle_pmeans(f, r_ladder(), p, _circle_nodes(f)))


# ---------------------------------------------------------------------------
# Disk suprema
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_PROBES = 128  # abscissas an evaluate call of a polish may take, all problems together (k > 1)


@lru_cache(maxsize=None)
def _probe_tree(k: int):
    """The k golden-section steps that one evaluate call covers, as a binary
    tree in heap order over a table with the columns [a, c, d, probe of node
    0, probe of node 1, ...]. Node 0 is the first step, whose decision is
    already known; columns 0-2 hold its (a, c, d) after it. The children
    2n + 1 and 2n + 2 of node n are the next step after the max is found in
    [a, d] (left) and in [c, b]. Returns the (a, c, d) columns of each node,
    the children of each node above the last level, and per later level the
    columns of its nodes' a, their probes' weights and the columns they fill."""
    cols = [(0, 1, 2)]
    for n in range(1, (1 << k) - 1):
        a, c, d = cols[(n - 1) // 2]
        cols.append((a, 3 + n, c) if n % 2 else (c, d, 3 + n))
    cols = np.array(cols).T
    inner = np.arange((1 << (k - 1)) - 1)
    levels = []
    for j in range(1, k):
        nodes = np.arange((1 << j) - 1, (1 << (j + 1)) - 1)
        weight = np.where(nodes % 2, _INV_PHI2, _INV_PHI)
        levels.append((*_read_only(cols[0, nodes], weight), slice(3 + nodes[0], 4 + nodes[-1])))
    return (*_read_only(cols, np.stack((2 * inner + 1, 2 * inner + 2))), levels)


def _golden_polish(evaluate, lo, hi, v, x):
    """Golden-section maximization of P scalar functions at once, each on
    its bracket [lo, hi] (either order); returns the arrays (value, argmax)
    of the better of each problem's incumbent (v, x) and its search result.

    ``evaluate(xs)`` takes a (P, M) array of abscissas, row p for problem p,
    and returns their (P, M) values. Every problem takes its own number of
    steps to shrink its bracket below ``_SUP_TOL`` (one probe at the
    midpoint of a bracket already that narrow), and each step evaluates
    every problem: one that has finished runs on, and its result is read
    off its own last step, so it equals the scalar search run alone. Ties
    go to the right probe.

    A probe's abscissa depends on the left/right decisions before it, not
    on the values, so one call evaluates every abscissa that the next k
    steps could probe: the 2^k - 1 nodes of :func:`_probe_tree` a problem,
    with k >= 1 the largest such that (2^k - 1) P <= ``_PROBES``. The tree
    repeats the float operations of a step (h = h * phi once a step, then
    the probe a + w * h), so each abscissa has the bits the step would give
    it, and the step's comparison picks the next node. At k = 1 a call is
    one step. The first call evaluates the bracket points c, d, and with
    them, when 2^(k+1) P <= ``_PROBES`` for some k >= 1, the trees of the k
    steps after either outcome of their comparison: 2^(k+1) abscissas a
    problem (k = 6 at P = 1), and the outcome picks one tree.
    """
    a, b = np.minimum(lo, hi), np.maximum(lo, hi)
    h = b - a
    steps = [math.ceil(math.log(_SUP_TOL / w) / math.log(_INV_PHI)) if w > _SUP_TOL else 1
             for w in h.tolist()]
    narrow = h <= _SUP_TOL
    c = np.where(narrow, 0.5 * (a + b), a + _INV_PHI2 * h)
    d = np.where(narrow, c, a + _INV_PHI * h)
    count, total = len(steps), max(steps, default=1)
    rows = np.arange(count)
    trail = []

    def tree(left, k):
        """The probe table of the k steps after the decision ``left`` at the
        state (a, c, d, h), and h after them."""
        cols, _, levels = _probe_tree(k)
        # The max lies in [a, d]: d takes c's place and the probe is the new
        # c. Else in [c, b]: a and c move to c and d, and it is the new d.
        hk = h * _INV_PHI
        xs = np.empty((count, 3 + cols.shape[1]))
        xs[:, 0] = np.where(left, a, c)
        xs[:, 3] = probe = xs[:, 0] + np.where(left, _INV_PHI2, _INV_PHI) * hk
        xs[:, 1], xs[:, 2] = np.where(left, probe, d), np.where(left, c, probe)
        for src, weight, fill in levels:
            hk = hk * _INV_PHI
            xs[:, fill] = xs[:, src] + hk[:, None] * weight
        return xs, hk

    def advance(k, left, xs, ys):
        """Append the k steps of an evaluated table to the trail; returns a
        after them (c, d and their values are the trail's last entry)."""
        cols, children, levels = _probe_tree(k)
        yc, yd = trail[-1][2:]
        ys[:, 1] = np.where(left, ys[:, 3], yd)
        ys[:, 2] = np.where(left, yc, ys[:, 3])
        trail.append((xs[:, 1], xs[:, 2], ys[:, 1], ys[:, 2]))
        if not levels:
            return xs[:, 0]
        # Each node's comparison names its next node; walk them from node 0
        # and read each step's state off the table.
        inner = cols[1:, : children.shape[1]]
        after = np.where(ys[:, inner[0]] > ys[:, inner[1]], children[0], children[1])
        path = np.zeros((count, len(levels) + 1), dtype=int)
        for j in range(len(levels)):
            path[:, j + 1] = after[rows, path[:, j]]
        at = cols[:, path[:, 1:]] + (rows * xs.shape[1])[:, None]
        (pa, pc, pd), (pyc, pyd) = xs.take(at), ys.take(at[1:])
        trail.extend(zip(pc.T, pd.T, pyc.T, pyd.T))
        return pa[:, -1]

    # The first call's depth: the largest k with 2^(k+1) P <= _PROBES, and at
    # most the steps left after the pair (c, d).
    fold = min((_PROBES // max(count, 1)).bit_length() - 2, total - 1)
    if fold >= 1:
        (xl, h), (xr, _) = tree(True, fold), tree(False, fold)
        ys = evaluate(np.concatenate((np.stack((c, d), axis=1), xl[:, 3:], xr[:, 3:]), axis=1))
        trail.append((c, d, ys[:, 0], ys[:, 1]))
        left, m = ys[:, 0] > ys[:, 1], xl.shape[1] - 1
        xs, tree_ys = np.where(left[:, None], xl, xr), np.empty_like(xl)
        tree_ys[:, 3:] = np.where(left[:, None], ys[:, 2:m], ys[:, m:])
        a = advance(fold, left, xs, tree_ys)
    else:
        trail.append((c, d, *evaluate(np.stack((c, d), axis=1)).T))
    depth = max(1, (_PROBES // max(count, 1) + 1).bit_length() - 1)
    while len(trail) < total:
        c, d, yc, yd = trail[-1]
        k, left = min(depth, total - len(trail)), yc > yd
        xs, h = tree(left, k)
        ys = np.empty_like(xs)
        ys[:, 3:] = evaluate(xs[:, 3:])
        a = advance(k, left, xs, ys)
    c, d, yc, yd = np.array(trail)[np.array(steps, dtype=int) - 1, :, rows].T
    found, at = np.where(yc > yd, yc, yd), np.where(yc > yd, c, d)
    return np.where(found > v, found, v), np.where(found > v, at, x)


def _origin_stretch(stack: MapStack) -> np.ndarray:
    """Lambda_f(0) = |a_1| + |b_1| of each map of the stack: the bits of
    ``_stretch`` at z = 0, where Horner's recurrence returns c_0 exactly."""
    return np.abs(stack._da[0]) + np.abs(stack._db[0])


def grid_sup(maps, ratio) -> list[FunctionalValue]:
    """sup over the disk |z| <= 0.995 of ``grids.GRID`` of ratio(Lambda_f(z), z),
    for each map at once, one value per map.

    ``ratio(lam, z)`` weighs Lambda_f at the points z elementwise, say by
    1 - |z|^2 for the Bloch seminorm. Protocol, per map: coarse max over
    the origin and the tensor grid, whose Lambda_f is the map's grid scan
    ``core._grid_scan`` (memoized in a campaign, and read after the
    origin); golden-section refinement in radius at the best angle; then in
    angle; then in radius again. The value gained by the final stage is
    reported as the error estimate. Each stage is one :func:`_golden_polish`
    of all maps on their :class:`~harmap.core.MapStack`, whose evaluations
    cover several golden-section steps each when there are few maps (7 for
    one map, 1 from 43 maps on), and each result equals the run of that map
    alone. Lambda_f at the origin is read off the stack's coefficients
    (:func:`_origin_stretch`). The abscissas are evaluated as contiguous
    (maps, M) arrays of radii and angles, each point by the same elementwise
    operations as when each call held one point a map.
    """
    stack, count = MapStack(maps), len(maps)

    def at(rs, ts):  # ratio at rs e^{i ts}, given as (maps, M) arrays
        z = np.ascontiguousarray(rs) * np.exp(1j * np.ascontiguousarray(ts))
        return ratio(_stretch(stack, z), z)

    radii, angles = GRID.radii, GRID.angles
    origin = ratio(_origin_stretch(stack)[:, None], np.zeros((count, 1), dtype=complex))[:, 0]
    v, flat = np.empty(count), np.empty(count, dtype=int)
    for p, f in enumerate(maps):
        vals = ratio(_grid_scan(f)[0], GRID.nodes)
        flat[p] = np.argmax(vals)
        v[p] = vals.flat[flat[p]]
    i, j = np.divmod(flat, GRID.n_theta)
    centre = origin > v
    v, i = np.where(centre, origin, v), np.where(centre, -1, i)
    r, t = np.where(centre, 0.0, radii[i]), np.where(centre, 0.0, angles[j])
    # The radius bracket spans the neighbouring rings; the origin's is [0, radii[0]].
    ext = np.concatenate(([0.0], radii, [GRID.r_max]))
    lo, hi = ext[np.maximum(i, 0)], ext[i + 2]

    def along(fixed, m):  # each map's fixed coordinate at each of its m probes
        return fixed[:, None].repeat(m, axis=1)

    v, r = _golden_polish(lambda rs: at(rs, along(t, rs.shape[1])), lo, hi, v, r)
    stage1 = v
    dt = angles[1] - angles[0]
    v, t = _golden_polish(lambda ts: at(along(r, ts.shape[1]), ts), t - dt, t + dt, v, t)
    stage2 = v
    v, _ = _golden_polish(lambda rs: at(rs, along(t, rs.shape[1])), lo, hi, v, r)
    return [FunctionalValue(val, GRID_SUP, max(val - s2, s2 - s1, _error_floor(val)))
            for val, s1, s2 in zip(v.tolist(), stage1.tolist(), stage2.tolist())]


# ---------------------------------------------------------------------------
# Bloch seminorm and the hyperbolic metric
# ---------------------------------------------------------------------------


def bloch_seminorms(maps) -> list[FunctionalValue]:
    """sup over the disk of (1 - |z|^2) Lambda_f(z) for each map, all
    polished in lockstep by one batched :func:`grid_sup`."""
    return grid_sup(maps, lambda lam, z: (1.0 - _abs2(z)) * lam)


def bloch_seminorm(f: HarmonicMap) -> FunctionalValue:
    """sup over the disk of (1 - |z|^2) Lambda_f(z): the one-map case of
    :func:`bloch_seminorms`."""
    return bloch_seminorms([f])[0]


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
