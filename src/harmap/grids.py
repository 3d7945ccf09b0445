"""Sampling grids, Gauss-Legendre rules and the dyadic radius ladder.

These are the discretizations that do not follow from a map's degree:
``GRID``, the one polar evaluation grid, 64 x 256 nodes on |z| <= 0.995 (for
sup estimation and sign scans; no caller sets another), the ladder of radii
1 - 2^-k used to approach the boundary, and
:func:`disk_sample`, the one area-uniform random sampler of a disk that
every Monte Carlo estimate and random pair set draws from. The circle and
disk quadratures of :mod:`harmap.functionals` size their nodes by the
degree alone.

numpy is the one module-level dependency of the package, and
:func:`gauss_legendre_01` builds its rule with numpy alone, so the fuzzer and
every functional (``area_quadrature`` included) never load scipy. scipy loads
on first use in two places only: :func:`_roots_legendre_01`, scipy's rule,
imports ``scipy.special`` for the disk-mean and segment quadratures of the
Lipschitz constants, whose bits feed the pinned campaign digest, and the
majorant integrals import ``scipy.integrate`` (see :mod:`harmap.lipschitz`).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["GRID", "r_ladder", "gauss_legendre_01", "disk_sample"]


def _read_only(*arrays: np.ndarray):
    """Mark shared (cached) arrays read-only; returns them, or the one array."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


class _PolarGrid:
    """The polar tensor grid on the disk |z| <= 0.995: 64 radii times 256 angles.

    Radii are Chebyshev-spaced in (0, r_max] (clustered toward 0 and toward
    r_max, where the interesting extrema of distortion quantities live);
    angles are uniform on [0, 2*pi). Nodes never touch |z| = 1. The arrays
    are built on first use and read-only.
    """

    n_r = 64
    n_theta = 256
    r_max = 0.995

    @cached_property
    def radii(self) -> np.ndarray:
        """Ascending Chebyshev radii in (0, r_max]; the last one is r_max."""
        k = np.arange(self.n_r)
        r = self.r_max * 0.5 * (1.0 + np.cos(np.pi * k / self.n_r))
        return _read_only(np.sort(r))

    @cached_property
    def angles(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, 2.0 * np.pi, self.n_theta, endpoint=False))

    @cached_property
    def nodes(self) -> np.ndarray:
        """Complex nodes, shape (n_r, n_theta)."""
        return _read_only(self.radii[:, None] * np.exp(1j * self.angles[None, :]))


# The one grid of the sense and K scan and of the disk suprema.
GRID = _PolarGrid()


def r_ladder() -> np.ndarray:
    """Radii 1 - 2^-k for k = 1..20, approaching the boundary: polynomial
    functionals settle well before machine-precision radii."""
    return 1.0 - 0.5 ** np.arange(1, 21)


_NEWTON_STEPS = 16  # the guesses are within O(1/n^2) of the roots: about 4 steps converge


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x.copy()
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=64)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1], ascending.

    Newton's method on P_n, evaluated by the three-term recurrence, from the
    guesses cos(pi (4k - 1) / (4n + 2)), k = 1..ceil(n/2): the nodes in [0, 1)
    of [-1, 1], whose mirror images are the others. The weights are
    2 / ((1 - x^2) P_n'(x)^2) at the converged nodes, scaled to sum to 1 as in
    Chebfun's ``legpts`` (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).
    Monomials of degree < 2n integrate to within 2 eps up to n = 2048.
    Cached; the arrays are read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    odd = n % 2
    x = np.cos(np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0))
    if odd:
        x[-1] = 0.0  # the middle node of an odd rule
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    t = 0.5 * (1.0 - x)  # ascending in (0, 1/2]; an odd rule's middle node is 1/2
    nodes = np.concatenate([t, (1.0 - t)[::-1][odd:]])
    weights = np.concatenate([w, w[::-1][odd:]])
    return _read_only(nodes, weights / math.fsum(weights))


def _roots_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's ``roots_legendre`` nodes and weights transplanted to [0, 1].

    Its only callers are ``lipschitz._probe_grids`` (n = 32) and
    ``lipschitz._hl_segments`` (n = 64), which cache what they build from it
    and whose values feed the pinned campaign digest bit for bit. It loads
    ``scipy.special`` on first use. Re-pin B repoints the two callers to
    :func:`gauss_legendre_01` and deletes it.
    """
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


def disk_sample(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Area-uniform points of the disk |z| < radius.

    Draws the radii (sqrt of a uniform variate) first, then the angles, so a
    seeded stream always yields the same points.
    """
    r = radius * np.sqrt(rng.random(count))
    t = 2.0 * np.pi * rng.random(count)
    return r * np.exp(1j * t)
