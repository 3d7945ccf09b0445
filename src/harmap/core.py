"""Truncated-series harmonic maps and their pointwise distortion data.

A planar harmonic map on the unit disk splits as f = h + conj(g) with h, g
analytic. We store the Taylor coefficients of both parts:

    f(z) = sum_{n=0}^{N} a_n z^n  +  sum_{n=1}^{N} conj(b_n) conj(z)^n,

so h has coefficients a_0..a_N and g has b_1..b_N (g(0) = 0). The Wirtinger
derivatives are f_z = h' and f_zbar = conj(g'); from them come the extreme
directional stretches Lambda = |f_z| + |f_zbar| and lambda = ||f_z| - |f_zbar||,
the Jacobian |f_z|^2 - |f_zbar|^2, and the modulus of the second complex
dilatation |f_zbar| / |f_z|.

There are two evaluation paths. Scattered points (a sup's polish, Monte
Carlo samples, disk means) go through Horner's recurrence, two in-place
ufunc calls per degree on one buffer over every point: :func:`wirtinger`
and ``HarmonicMap.__call__``. A polar tensor grid of radii times n uniform angles
goes through :func:`_on_rings`, one inverse FFT of length n per ring, whose
cost hardly grows with the degree. It is not a matrix product because a BLAS
product of that size starts a pool of spinning threads. The grids whose
values feed the pinned campaign digest stay on Horner until that digest is
re-pinned: the circle lengths, and :func:`_grid_scan`, the one evaluation of
a map's fields on the fixed grid ``grids.GRID`` (64 x 256 nodes up to
r = 0.995), which its Lambda_f suprema share. It is the only code that
decides sense preservation and the distortion constant K:
:func:`is_sense_preserving` and :func:`qc_constant` read it, and no caller
can choose another grid.

Everything here is pure and all types are immutable after construction, so
instances are safe to share across threads. Grid reductions go through
numpy's pairwise summation on fixed-shape arrays, which makes results
independent of evaluation order. :func:`coeff_from_contour` keeps the
coefficients of the last ring it read in one module-level tuple, replaced
whole, so a reader sees one consistent entry. The one per-campaign memo
lives here: while :func:`_campaign_memo` is open, the :func:`_memoized`
per-map scans of every module are kept by argument, and dropped after. A
campaign opens one per block of maps whose memoized arrays fit its byte
budget together, so each map's scans stay in it for all the suites of its
block.
"""

from __future__ import annotations

import json
import math
import types
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache, wraps
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .grids import GRID, _read_only

__all__ = [
    "HarmonicMap",
    "MapStack",
    "PointwiseData",
    "SensePreservation",
    "wirtinger",
    "derivatives",
    "is_sense_preserving",
    "qc_constant",
    "coeff_from_contour",
    "directional_derivative_max",
    "from_json",
    "json_fields",
    "map_json_bytes",
    "load_map",
    "save_map",
    "LAMBDA_FLOOR",
]

# Below this share of Lambda, lambda is beyond double-precision resolution and
# the distortion constant is reported as unbounded; relative, so K is scale-free.
LAMBDA_FLOOR = 1e-14

# The largest degree of a map file: each evaluation costs one step per degree.
MAX_FILE_DEGREE = 1024


def _require_finite(z: np.ndarray) -> None:
    if not np.isfinite(z).all():
        raise ValueError("non-finite input")


@dataclass(frozen=True)
class HarmonicMap:
    """Coefficients (a_0..a_N, b_1..b_N) of f = h + conj(g), degree N >= 1.

    ``a`` and ``b`` are stored as tuples of complex numbers; ``b`` holds one
    entry per positive degree (index n corresponds to b_{n+1}). All
    coefficients must be finite. Instances are hashable and compare by value.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(complex(v) for v in self.a)
        b = tuple(complex(v) for v in self.b)
        if len(a) < 2:
            raise ValueError("need coefficients a_0..a_N with N >= 1")
        if len(b) != len(a) - 1:
            raise ValueError("b must hold b_1..b_N, one entry per positive degree")
        for v in (*a, *b):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self) -> int:
        return len(self.a) - 1

    # -- cached coefficient arrays ------------------------------------------

    @cached_property
    def _a_arr(self) -> np.ndarray:
        return _read_only(np.asarray(self.a, dtype=complex))

    @cached_property
    def _b_full(self) -> np.ndarray:
        """b as a polynomial coefficient array with b_0 = 0, length N+1."""
        return _read_only(np.concatenate(([0.0 + 0.0j], np.asarray(self.b, dtype=complex))))

    @cached_property
    def _da(self) -> np.ndarray:
        """Coefficients of h': (n+1) a_{n+1}, length N."""
        return _read_only(np.arange(1, self.degree + 1) * self._a_arr[1:])

    @cached_property
    def _db(self) -> np.ndarray:
        """Coefficients of g': (n+1) b_{n+1}, length N."""
        return _read_only(np.arange(1, self.degree + 1) * self._b_full[1:])

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z):
        """Evaluate f(z) by Horner recurrences in z and conj(z).

        ``z`` may be a complex scalar or ndarray with |z| <= 1; only
        finiteness is enforced (polynomials extend continuously to the
        closed disk). Returns a value of matching shape.
        """
        zz = np.asarray(z, dtype=complex)
        _require_finite(zz)
        out = _horner(self._a_arr, zz) + np.conjugate(_horner(self._b_full, zz))
        if zz.ndim == 0:
            return complex(out)
        return out

    def scaled(self, c: float) -> "HarmonicMap":
        """The map c*f for a real factor c (scales both analytic parts)."""
        c = float(c)
        return HarmonicMap(
            a=tuple(c * v for v in self.a), b=tuple(c * v for v in self.b)
        )

    # -- wire format ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "a": [[v.real, v.imag] for v in self.a],
            "b": [[v.real, v.imag] for v in self.b],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HarmonicMap":
        """The map of {"a": [[re, im], ...], "b": [[re, im], ...]}, checked by
        :func:`from_json`, of degree at most MAX_FILE_DEGREE."""
        try:
            parts = from_json({"a": _PAIRS, "b": _PAIRS}, obj)
            a, b = parts["a"], parts["b"]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed map object: {exc}") from None
        if len(a) > MAX_FILE_DEGREE + 1:
            raise ValueError(f"map degree must be at most {MAX_FILE_DEGREE}, got {len(a) - 1}")
        # |f|, Lambda_f and l_f(r) / (2 pi) stay below s = sum max(n, 1) (|a_n| + |b_n|):
        # with (2 pi s)^2 N finite, no square or N-term sum of a functional overflows.
        s = sum(max(n, 1) * math.hypot(*p) for n, p in enumerate(a))
        s += sum(n * math.hypot(*p) for n, p in enumerate(b, 1))
        if not math.isfinite((2.0 * math.pi * s) * (2.0 * math.pi * s) * (len(a) - 1)):
            raise ValueError(f"map coefficients too large: sum max(n, 1) (|a_n| + |b_n|) = {s:.3g}"
                             " would overflow the functionals")
        return cls(a=tuple(complex(*p) for p in a), b=tuple(complex(*p) for p in b))


def json_fields(cls) -> dict:
    """Field name -> annotated type of the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_SCALARS = {bool: (bool, "true or false"), int: (int, "an integer"),
            float: ((int, float), "a number"), str: (str, "a string")}
_PAIRS = tuple[tuple[float, float], ...]


def from_json(kind, v):
    """The decoded JSON value ``v`` checked against the type ``kind`` and
    converted to it; a ValueError names the first entry that does not fit.
    Kinds: bool, int and float (finite JSON numbers; booleans are neither), str,
    ``X | None``, ``tuple[X, ...]``, ``tuple[X, Y]``, a dict of field kinds
    (an object with no other keys, each optional; returns a dict), a class
    with its own ``from_json_dict``, and a dataclass (an object whose field
    kinds are the field annotations)."""
    if isinstance(kind, dict):
        if not isinstance(v, dict):
            raise ValueError(f"must be an object, got {v!r}")
        unknown = sorted(set(v) - set(kind))
        if unknown:
            raise ValueError(f"unknown fields: {unknown}")
        out = {}
        for key, x in v.items():
            try:
                out[key] = from_json(kind[key], x)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return out
    if kind in _SCALARS:
        accepted, what = _SCALARS[kind]
        try:
            if isinstance(v, accepted) and (kind is bool or not isinstance(v, bool)):
                if kind is not float or math.isfinite(v):  # json reads NaN and Infinity
                    return kind(v)
        except OverflowError:  # an integer beyond the float range
            pass
        raise ValueError(f"must be {what}, got {v!r}")
    if isinstance(kind, types.UnionType):  # X | None
        (inner,) = [k for k in get_args(kind) if k is not type(None)]
        return None if v is None else from_json(inner, v)
    if get_origin(kind) is tuple:
        args = get_args(kind)
        if args[-1] is Ellipsis:
            if not isinstance(v, list):
                raise ValueError(f"must be an array, got {v!r}")
            args = args[:1] * len(v)
        elif not isinstance(v, list) or len(v) != len(args):
            raise ValueError(f"must be a {len(args)}-element array, got {v!r}")
        return tuple(from_json(k, x) for k, x in zip(args, v))
    if hasattr(kind, "from_json_dict"):
        return kind.from_json_dict(v)
    if is_dataclass(kind):
        return kind(**from_json(json_fields(kind), v))
    raise TypeError(f"no JSON form for {kind!r}")


def map_json_bytes(f: HarmonicMap) -> bytes:
    """Canonical single-line JSON encoding of a map, newline-terminated.

    Floats are rendered with Python's shortest round-trip representation, so
    load -> dump is byte-identical.
    """
    return (json.dumps(f.to_json_dict()) + "\n").encode("ascii")


def load_map(path) -> HarmonicMap:
    with open(path, "r", encoding="ascii") as fh:
        return HarmonicMap.from_json_dict(json.load(fh))


def save_map(f: HarmonicMap, path) -> None:
    Path(path).write_bytes(map_json_bytes(f))


# ---------------------------------------------------------------------------
# Pointwise quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseData:
    """Wirtinger derivatives and distortion quantities at a single point."""

    fz: complex
    fzbar: complex
    max_stretch: float  # |f_z| + |f_zbar|
    min_stretch: float  # | |f_z| - |f_zbar| |
    jacobian: float  # |f_z|^2 - |f_zbar|^2
    dilatation_modulus: float | None  # |f_zbar| / |f_z|; None when f_z = 0


class MapStack:
    """P maps evaluated side by side: their h' and g' coefficients stacked as
    the columns of read-only (L, P) matrices, each zero-padded to the largest
    degree L."""

    def __init__(self, maps):
        maps = tuple(maps)
        width = max((f.degree for f in maps), default=1)
        self._da = np.zeros((width, len(maps)), dtype=complex)
        self._db = np.zeros_like(self._da)
        for p, f in enumerate(maps):
            self._da[: f.degree, p] = f._da
            self._db[: f.degree, p] = f._db
        _read_only(self._da, self._db)


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c[k] z^k by numpy polyval's recurrence (out = c_k + out*z), so
    a result matches polyval bit for bit, zero padding included. ``c`` holds
    the coefficients of one polynomial (L,), or of P polynomials (L, P) with
    z's leading axis running over them. A z of two or more points is stepped
    in place in one buffer, with the bits of the out-of-place recurrence (a
    test holds it to them). One point is stepped out of place, on numpy
    scalars when z is 0-d: numpy's in-place multiply of a one-element array
    can round otherwise, and then a point would not keep its bits alone."""
    c = c.reshape(c.shape + (1,) * (z.ndim - c.ndim + 1))
    out = c[-1] + z * 0
    for k in range(len(c) - 2, -1, -1):
        if z.size > 1:
            np.add(c[k], np.multiply(out, z, out=out), out=out)
        else:
            out = c[k] + out * z
    return out


def _on_rings(c: np.ndarray, rs, n_ang: int) -> np.ndarray:
    """sum_k c[k] z^k on the polar tensor grid z = rs[i] e^(2 pi i j / n_ang),
    shape (len(rs), n_ang). On a ring the sum is the inverse DFT of the
    coefficients c[k] rs[i]^k; e^(ik theta_j) has period n_ang in k, so a
    longer row is first folded mod n_ang, which is exact. numpy's FFT runs
    on one thread, where a BLAS product of this size would start a pool."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    ring = c * rs[:, None] ** np.arange(len(c))
    if len(c) > n_ang:
        ring = np.pad(ring, ((0, 0), (0, -len(c) % n_ang)))
        ring = ring.reshape(len(rs), -1, n_ang).sum(axis=1)
    return np.fft.ifft(ring, n=n_ang, axis=1, norm="forward")  # unscaled: the plain sum


def _ring_fields(f: HarmonicMap, rs, n_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """(f_z, f_zbar) on the polar tensor grid of :func:`_on_rings`."""
    fzbar = _on_rings(f._db, rs, n_ang)
    return _on_rings(f._da, rs, n_ang), np.conjugate(fzbar, out=fzbar)


def _ring_values(f: HarmonicMap, rs, n_ang: int) -> np.ndarray:
    """f on the polar tensor grid of :func:`_on_rings`."""
    return _on_rings(f._a_arr, rs, n_ang) + np.conjugate(_on_rings(f._b_full, rs, n_ang))


def wirtinger(f: HarmonicMap | MapStack, z):
    """Vectorized derivative fields (f_z, f_zbar) = (h'(z), conj(g'(z))).

    For a :class:`MapStack` of P maps, z has shape (P, ...) and row p is
    evaluated under map p.
    """
    zz = np.asarray(z, dtype=complex)
    _require_finite(zz)
    fz = _horner(f._da, zz)
    fzbar = np.conjugate(_horner(f._db, zz))
    if zz.ndim == 0:
        return complex(fz), complex(fzbar)
    return fz, fzbar


def _stretch(f: HarmonicMap | MapStack, z: np.ndarray) -> np.ndarray:
    """Lambda_f = |f_z| + |f_zbar| at the points z (rows by map for a stack)."""
    fz, fzbar = wirtinger(f, z)
    return np.abs(fz) + np.abs(fzbar)


_MEMO: dict | None = None  # in a campaign: (function, *args) -> value


@contextmanager
def _campaign_memo():
    """Memoize every :func:`_memoized` function while the block (a campaign) runs."""
    global _MEMO
    _MEMO = {}
    try:
        yield
    finally:
        _MEMO = None


def _memoized(fn):
    """``fn`` memoized by its hashable arguments while a campaign memo is
    open, and not outside one. Values are shared, so ``fn`` returns read-only ones."""

    @wraps(fn)
    def memoized(*args):
        if _MEMO is None:
            return fn(*args)
        key = (fn, *args)
        if key not in _MEMO:
            _MEMO[key] = fn(*args)
        return _MEMO[key]

    return memoized


def derivatives(f: HarmonicMap, z: complex) -> PointwiseData:
    """All pointwise distortion data of f at z."""
    fz, fzbar = wirtinger(f, complex(z))
    m1, m2 = abs(fz), abs(fzbar)
    return PointwiseData(
        fz=fz,
        fzbar=fzbar,
        max_stretch=m1 + m2,
        min_stretch=abs(m1 - m2),
        jacobian=m1 * m1 - m2 * m2,
        dilatation_modulus=(m2 / m1) if m1 > 0.0 else None,
    )


def _abs2(w: np.ndarray) -> np.ndarray:
    return w.real * w.real + w.imag * w.imag


@dataclass(frozen=True)
class SensePreservation:
    """Outcome of a Jacobian positivity scan with its worst grid node."""

    ok: bool
    min_jacobian: float
    witness: complex


def is_sense_preserving(f: HarmonicMap) -> SensePreservation:
    """The Jacobian scan of :func:`_grid_scan`: ok iff J > 0 at every grid node."""
    return _grid_scan(f)[1]


def qc_constant(f: HarmonicMap) -> float:
    """The distortion constant K of :func:`_grid_scan`: the grid max of Lambda /
    lambda, or math.inf unless J > 0 and lambda >= LAMBDA_FLOOR * Lambda at every node."""
    return _grid_scan(f)[2]


@_memoized
def _grid_scan(f: HarmonicMap) -> tuple[np.ndarray, SensePreservation, float]:
    """One evaluation of (f_z, f_zbar) on ``grids.GRID.nodes`` and all a campaign
    reads of it: Lambda_f on the nodes (read-only), and the one rule for the
    Jacobian scan of :func:`is_sense_preserving` and the :func:`qc_constant` K:
    K = max Lambda / lambda, lambda = |f_z| - |f_zbar|, when J > 0 and lambda >=
    LAMBDA_FLOOR * Lambda at every node, else inf. The relative floor makes K
    scale-free and sends to inf a map whose J and lambda round to opposite
    signs. The quasiconformal hypotheses and the disk suprema of Lambda_f share
    it; fuzz admission calls it unmemoized."""
    fz, fzbar = wirtinger(f, GRID.nodes)
    jac = (_abs2(fz) - _abs2(fzbar)).ravel()
    k = int(np.argmin(jac))
    sense = SensePreservation(ok=bool(jac[k] > 0.0), min_jacobian=float(jac[k]),
                              witness=complex(GRID.nodes.ravel()[k]))
    m1, m2 = np.abs(fz), np.abs(fzbar)
    stretch, lam = m1 + m2, m1 - m2
    resolved = sense.ok and bool(np.all(lam >= LAMBDA_FLOOR * stretch))
    K = float(np.max(stretch / lam)) if resolved else math.inf
    return _read_only(stretch), sense, K


_CONTOUR: tuple | None = None  # ((f, r, m), a_1..a_N, b_1..b_N) of the last ring read


def coeff_from_contour(f: HarmonicMap, n: int, r: float, m: int) -> tuple[complex, complex]:
    """Recover (a_n, b_n) from circle integrals of the derivative fields.

    n a_n and n b_n are the means over |z| = r of f_z(z) z^(1-n) and of
    conj(f_zbar(z)) z^(1-n); the trapezoid rule on m uniform nodes evaluates
    both exactly (up to rounding) once m clears the aliasing threshold. On
    m nodes these means are entry n - 1 of one forward FFT of each field
    (:func:`_ring_fields`), scaled by r^-(n-1) / m, so one read of the ring
    gives every n. It is kept for the last (f, r, m), read-only, so a loop
    over n evaluates the ring once. The round trip checks that a forward
    FFT undoes the ring kernel's powers r^k and inverse FFT, folding
    included; a test holds the kernel to Horner on the same grids.
    """
    global _CONTOUR
    if not 1 <= n <= f.degree:
        raise ValueError("n must lie in 1..N")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if m < 4 * f.degree:
        raise ValueError("m must be at least 4N contour nodes")
    key, ring = (f, r, m), _CONTOUR
    if ring is None or ring[0] != key:
        fz, fzbar = _ring_fields(f, r, m)
        k = np.arange(f.degree)
        with np.errstate(over="ignore"):  # r^-k past the float range: that a_n is lost anyway
            scale = r ** -k / m / (k + 1)
        ring = (key, *_read_only(np.fft.fft(fz[0])[: f.degree] * scale,
                                 np.fft.fft(np.conjugate(fzbar[0]))[: f.degree] * scale))
        _CONTOUR = ring
    return complex(ring[1][n - 1]), complex(ring[2][n - 1])


@lru_cache(maxsize=1)
def _directions() -> tuple[np.ndarray, np.ndarray]:
    """(cos t, sin t) on 4096 uniform angles. Cached; the arrays are read-only."""
    t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    return _read_only(np.cos(t), np.sin(t))


def directional_derivative_max(f: HarmonicMap, z: complex) -> float:
    """Maximum over 4096 uniform directions of |f_x cos t + f_y sin t|.

    The partials f_x, f_y are central finite differences of the map itself,
    step 1e-6, so this estimates the maximal directional stretch without
    touching the analytic derivative path; it should reproduce Lambda_f(z).
    """
    z, step = complex(z), 1e-6
    fx = (f(z + step) - f(z - step)) / (2.0 * step)
    fy = (f(z + 1j * step) - f(z - 1j * step)) / (2.0 * step)
    c, s = _directions()
    return float(np.max(np.abs(fx * c + fy * s)))
