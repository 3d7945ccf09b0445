"""Truncated-series harmonic maps and their pointwise distortion data.

A planar harmonic map on the unit disk splits as f = h + conj(g) with h, g
analytic. We store the Taylor coefficients of both parts:

    f(z) = sum_{n=0}^{N} a_n z^n  +  sum_{n=1}^{N} conj(b_n) conj(z)^n,

so h has coefficients a_0..a_N and g has b_1..b_N (g(0) = 0). The Wirtinger
derivatives are f_z = h' and f_zbar = conj(g'); from them come the extreme
directional stretches Lambda = |f_z| + |f_zbar| and lambda = ||f_z| - |f_zbar||,
the Jacobian |f_z|^2 - |f_zbar|^2, and the modulus of the second complex
dilatation |f_zbar| / |f_z|.

Everything here is pure and all types are immutable after construction, so
instances are safe to share across threads. Grid reductions go through
numpy's pairwise summation on fixed-shape arrays, which makes results
independent of evaluation order.
"""

from __future__ import annotations

import json
import math
import types
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .grids import Grid, _read_only

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

# Below this, the ratio Lambda/lambda is beyond double-precision resolution
# and the distortion constant is reported as unbounded.
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
    degree L. Indexing with a slice gives the stack of those maps."""

    def __init__(self, maps):
        maps = tuple(maps)
        width = max((f.degree for f in maps), default=1)
        self._da = np.zeros((width, len(maps)), dtype=complex)
        self._db = np.zeros_like(self._da)
        for p, f in enumerate(maps):
            self._da[: f.degree, p] = f._da
            self._db[: f.degree, p] = f._db
        _read_only(self._da, self._db)

    def __len__(self) -> int:
        return self._da.shape[1]

    def __getitem__(self, rows: slice) -> "MapStack":
        sub = object.__new__(MapStack)
        sub._da, sub._db = self._da[:, rows], self._db[:, rows]
        return sub


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c[k] z^k by numpy polyval's recurrence (out = c_k + out*z), so
    a result matches polyval bit for bit, zero padding included. ``c`` holds
    the coefficients of one polynomial (L,), or of P polynomials (L, P) with
    z's leading axis running over them. The steps stay out of place: numpy's
    in-place complex multiply rounds differently in the last bit."""
    c = c.reshape(c.shape + (1,) * (z.ndim - c.ndim + 1))
    out = c[-1] + z * 0
    for k in range(len(c) - 2, -1, -1):
        out = c[k] + out * z
    return out


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


_GRID_STRETCH: dict | None = None  # (map, grid) -> Lambda_f, oldest use first, in a campaign


@contextmanager
def _grid_stretch_memo():
    """Memoize :func:`_grid_stretch` while the block (a campaign) runs."""
    global _GRID_STRETCH
    _GRID_STRETCH = {}
    try:
        yield
    finally:
        _GRID_STRETCH = None


def _grid_stretch(f: HarmonicMap, grid: Grid) -> np.ndarray:
    """Lambda_f on ``grid.nodes``, read-only. A campaign memoizes it, so the
    disk suprema of its suites and majorants share one scan per map, in at
    most 8 MiB (64 maps on the default grid); outside one nothing is kept."""
    memo = {} if _GRID_STRETCH is None else _GRID_STRETCH
    lam = memo.pop((f, grid), None)
    if lam is None:
        lam = _read_only(_stretch(f, grid.nodes))
    memo[f, grid] = lam
    while sum(v.nbytes for v in memo.values()) > 8 << 20:
        del memo[next(iter(memo))]
    return lam


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


def is_sense_preserving(f: HarmonicMap, grid: Grid | None = None) -> SensePreservation:
    """True iff the Jacobian is positive at every node of the grid."""
    grid = grid or Grid()
    return _sense_scan(grid.nodes, *wirtinger(f, grid.nodes))


def _sense_scan(nodes: np.ndarray, fz: np.ndarray, fzbar: np.ndarray) -> SensePreservation:
    """:func:`is_sense_preserving` from the derivative fields on ``nodes``."""
    jac = (_abs2(fz) - _abs2(fzbar)).ravel()
    k = int(np.argmin(jac))
    return SensePreservation(
        ok=bool(jac[k] > 0.0),
        min_jacobian=float(jac[k]),
        witness=complex(nodes.ravel()[k]),
    )


def qc_constant(f: HarmonicMap, grid: Grid | None = None) -> float:
    """Distortion constant: the grid maximum of Lambda / lambda.

    Returns math.inf when lambda drops below LAMBDA_FLOOR anywhere (the
    ratio is then beyond double-precision resolution). Raises ValueError if
    the map is sense-reversing on the grid while lambda stays resolvable,
    since the constant is then meaningless.
    """
    grid = grid or Grid()
    return _qc_scan(*wirtinger(f, grid.nodes))


def _qc_scan(fz: np.ndarray, fzbar: np.ndarray) -> float:
    """:func:`qc_constant` from the derivative fields on the grid."""
    m1, m2 = np.abs(fz), np.abs(fzbar)
    lam = np.abs(m1 - m2)
    if np.any(lam < LAMBDA_FLOOR):
        return math.inf
    if np.any(m1 <= m2):
        raise ValueError("map is sense-reversing on the grid; no distortion constant")
    return float(np.max((m1 + m2) / lam))


def coeff_from_contour(f: HarmonicMap, n: int, r: float, m: int) -> tuple[complex, complex]:
    """Recover (a_n, b_n) from circle integrals of the derivative fields.

    n a_n and n b_n are the means over |z| = r of f_z(z) z^(1-n) and of
    conj(f_zbar(z)) z^(1-n); the trapezoid rule on m uniform nodes evaluates
    both exactly (up to rounding) once m clears the aliasing threshold. This
    path goes through pointwise evaluation only, so it serves as an oracle
    for the stored coefficients.
    """
    if not 1 <= n <= f.degree:
        raise ValueError("n must lie in 1..N")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if m < 4 * f.degree:
        raise ValueError("m must be at least 4N contour nodes")
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    z = r * np.exp(1j * theta)
    fz, fzbar = wirtinger(f, z)
    w = z ** (1 - n)
    a_n = complex(np.mean(fz * w) / n)
    b_n = complex(np.mean(np.conjugate(fzbar) * w) / n)
    return a_n, b_n


@lru_cache(maxsize=8)
def _directions(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos t, sin t) on n_theta uniform angles. Cached; the arrays are read-only."""
    t = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    return _read_only(np.cos(t), np.sin(t))


def directional_derivative_max(
    f: HarmonicMap, z: complex, n_theta: int = 4096, step: float = 1e-6
) -> float:
    """Grid maximum over directions of |f_x cos t + f_y sin t|.

    The partials f_x, f_y are central finite differences of the map itself,
    so this estimates the maximal directional stretch without touching the
    analytic derivative path; it should reproduce Lambda_f(z).
    """
    z = complex(z)
    fx = (f(z + step) - f(z - step)) / (2.0 * step)
    fy = (f(z + 1j * step) - f(z - 1j * step)) / (2.0 * step)
    c, s = _directions(n_theta)
    return float(np.max(np.abs(fx * c + fy * s)))
