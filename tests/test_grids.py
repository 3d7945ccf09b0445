"""The Gauss-Legendre rules of ``harmap.grids``: the numpy rule that every
functional reads, and scipy's transplanted rule that the campaign's Lipschitz
quadratures read until their digest is re-pinned."""

import sys

import numpy as np
import pytest
from scipy.special import roots_legendre

from harmap.grids import _roots_legendre_01, gauss_legendre_01

EPS = sys.float_info.epsilon
SIZES = (1, 2, 3, 7, 32, 64, 128, 1024, 2048)


@pytest.mark.parametrize("n", SIZES)
def test_gauss_legendre_integrates_monomials_exactly(n):
    # An n-node rule is exact for degree < 2n: int_0^1 t^k dt = 1 / (k + 1).
    nodes, weights = gauss_legendre_01(n)
    k = np.arange(min(2 * n - 1, 199) + 1)
    moments = np.array([np.sum(weights * nodes**j) for j in k.tolist()])
    assert np.max(np.abs(moments - 1.0 / (k + 1.0))) <= 4 * EPS


@pytest.mark.parametrize("n", SIZES)
def test_gauss_legendre_nodes_match_scipy_and_weights_sum_to_one(n):
    nodes, weights = gauss_legendre_01(n)
    x, _ = roots_legendre(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0.0) and 0.0 < nodes[0] and nodes[-1] < 1.0
    assert np.max(np.abs(nodes + nodes[::-1] - 1.0)) <= EPS  # symmetric about 1/2
    assert np.array_equal(weights, weights[::-1])
    assert np.max(np.abs(nodes - 0.5 * (x + 1.0))) <= 2.3e-16
    assert np.all(weights > 0.0) and abs(np.sum(weights) - 1.0) <= 4 * EPS


def test_gauss_legendre_rules_are_cached_read_only_and_refuse_no_nodes():
    nodes, weights = gauss_legendre_01(7)
    assert gauss_legendre_01(7)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        gauss_legendre_01(0)


def test_gauss_legendre_nodes_are_transplanted_bit_for_bit():
    # The Lipschitz quadratures read scipy's rule, transplanted with its bits.
    for n in (1, 2, 7, 32, 64, 128):
        x, w = roots_legendre(n)
        nodes, weights = _roots_legendre_01(n)
        assert np.array_equal(nodes, 0.5 * (x + 1.0)) and np.array_equal(weights, 0.5 * w)
