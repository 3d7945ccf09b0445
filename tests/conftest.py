import numpy as np
import pytest
from hypothesis import HealthCheck, settings
import hypothesis.strategies as st

from harmap import FuzzSpec, HarmonicMap, fuzz_corpus

settings.register_profile(
    "harmap",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("harmap")


@pytest.fixture(scope="session")
def small_corpus():
    return fuzz_corpus(FuzzSpec(count=40, degree=6, seed=7))


# -- reference maps ----------------------------------------------------------

IDENTITY = HarmonicMap(a=(0, 1), b=(0,))
AFFINE_HALF = HarmonicMap(a=(0, 1), b=(0.5,))  # z + 0.5 conj(z)
AFFINE_ROOT2 = HarmonicMap(a=(0, np.sqrt(2.0)), b=(1.0,))
SQUARE = HarmonicMap(a=(0, 0, 1), b=(0, 0))
MIXED = HarmonicMap(a=(0, 1, 0), b=(0, 0.3))  # z + 0.3 conj(z)^2
FOLD = HarmonicMap(a=(0, 1), b=(1.0,))  # z + conj(z), degenerate
CONSTANT = HarmonicMap(a=(0.7 - 0.2j, 0), b=(0,))


# -- hypothesis strategies ---------------------------------------------------

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def complex_coeff(draw, scale=1.0):
    return complex(draw(finite) * scale, draw(finite) * scale)


@st.composite
def harmonic_maps(draw, max_degree=6):
    """Random maps with decaying coefficients and a nondegenerate linear term."""
    deg = draw(st.integers(1, max_degree))
    a = [0j, 1.0 + draw(complex_coeff(0.4))]
    b = [draw(complex_coeff(0.3))]
    for n in range(2, deg + 1):
        a.append(draw(complex_coeff(0.5**n)))
        b.append(draw(complex_coeff(0.3 * 0.5**n)))
    return HarmonicMap(a=tuple(a), b=tuple(b))


@st.composite
def disk_points(draw, r_max=0.9):
    r = r_max * np.sqrt(draw(st.floats(0.0, 1.0)))
    t = draw(st.floats(0.0, 2.0 * np.pi))
    return complex(r * np.cos(t), r * np.sin(t))
