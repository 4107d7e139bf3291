"""Checks on the independent oracles in helpers.py that other tests trust."""

import math

import numpy as np
import pytest

from helpers import (
    V1,
    V2,
    _scaled_e1_continued_fraction,
    _scaled_e1_series,
    givens_basis,
    instantaneous_noise_sets,
    rayleigh_log_mean,
    scaled_e1,
)


@pytest.mark.parametrize(
    "z, e1",
    [(1.0, 0.21938393439552), (0.5, 0.55977359477616)],
)
def test_scaled_e1_standard_values(z, e1):
    assert math.exp(-z) * scaled_e1(z) == pytest.approx(e1, rel=1e-12)


def test_scaled_e1_large_argument():
    assert scaled_e1(10.0) == pytest.approx(0.09156333393979, rel=1e-12)


def test_scaled_e1_returns_and_is_asymptotic_for_huge_arguments():
    # a stop test tighter than one ulp never holds at 3 of these 97 points
    for z in np.logspace(8, 20, 97):
        z = float(z)
        asymptotic = 1.0 / z - 1.0 / z**2 + 2.0 / z**3 - 6.0 / z**4
        assert scaled_e1(z) == pytest.approx(asymptotic, rel=1e-14)


def test_scaled_e1_continuous_across_branch_point():
    # the two branches meet at z = 1 and must agree there
    assert _scaled_e1_series(1.0) == pytest.approx(
        _scaled_e1_continued_fraction(1.0), rel=1e-13
    )
    below, above = scaled_e1(1.0 - 1e-9), scaled_e1(1.0 + 1e-9)
    # d/dz [e^z E1(z)] = e^z E1(z) - 1/z is about -0.40 at z = 1
    assert abs(below - above) == pytest.approx(0.8e-9, rel=0.01)


def test_scaled_e1_matches_mpmath_over_the_range():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z in np.logspace(-12, 6, 181):
        want = float(mpmath.exp(z) * mpmath.e1(z))
        assert scaled_e1(float(z)) == pytest.approx(want, rel=1e-10)


def test_rayleigh_log_mean_matches_quadrature():
    # E[ln(1 + aX)] for X ~ Exp(mean) by direct integration over the density
    a, mean = 3.0, 0.7
    x = np.linspace(0.0, 60.0 * mean, 600_001)
    integrand = np.log1p(a * x) * np.exp(-x / mean) / mean
    quadrature = float(np.sum((integrand[1:] + integrand[:-1]) * np.diff(x)) / 2.0)
    assert rayleigh_log_mean(a, mean) == pytest.approx(quadrature, rel=1e-8)
    assert rayleigh_log_mean(0.0, mean) == 0.0


def test_instantaneous_noise_sets_follow_the_ranking_rule():
    # one group: user 1 is strongest; users 0 and 2 tie, so 0 decodes first
    assert instantaneous_noise_sets((2.0, 5.0, 2.0), (0, 0, 0)) == {0: [1], 1: [], 2: [0, 1]}
    # other groups never enter a noise set
    assert instantaneous_noise_sets((1.0, 9.0, 3.0), (0, 1, 0)) == {0: [2], 1: [], 2: []}


def test_givens_basis_two_groups_is_the_pi_over_3_rotation():
    np.testing.assert_allclose(givens_basis(2), [V1, V2], atol=1e-15)
    vectors = np.array(givens_basis(5))
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(5), atol=1e-14)
