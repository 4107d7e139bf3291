"""Checks on the independent oracles in helpers.py that other tests trust."""

import math

import numpy as np
import pytest

from helpers import (
    V1,
    V2,
    _scaled_e1_continued_fraction,
    _scaled_e1_series,
    exact_hybrid_ber,
    givens_basis,
    instantaneous_noise_sets,
    rayleigh_log_mean,
    rayleigh_phi_mean,
    rayleigh_qpsk_ber,
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


def test_rayleigh_phi_mean_matches_quadrature():
    # E[Phi(beta sqrt(X))], X ~ Exp(1), integrated over u = sqrt(X), whose
    # density 2u e^(-u^2) keeps the integrand smooth at 0
    u = np.linspace(0.0, 8.0, 200_001)
    erf = np.vectorize(math.erf)
    for beta in (-3.0, -0.4, 0.0, 0.7, 5.0):
        integrand = 0.5 * (1.0 + erf(beta * u / math.sqrt(2.0))) * 2.0 * u * np.exp(-u * u)
        quadrature = float(np.sum((integrand[1:] + integrand[:-1]) * np.diff(u)) / 2.0)
        assert rayleigh_phi_mean(beta) == pytest.approx(quadrature, abs=1e-9)


def test_exact_hybrid_ber_of_singleton_groups_is_rayleigh_qpsk():
    # with one user per group nothing is cancelled or absorbed: each user is
    # Gray QPSK on Rayleigh fading at mean bit SNR P_k gamma_k / (2 sigma^2)
    distances, sigma2 = (0.5, 1.5, 2.5, 3.5), 0.3
    d_sq_total = sum(d * d for d in distances)
    expected = [
        rayleigh_qpsk_ber(40.0 * d * d / d_sq_total * d**-3.0 / (2.0 * sigma2)) for d in distances
    ]
    got = exact_hybrid_ber(distances, 3.0, len(distances), 40.0, sigma2)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_exact_hybrid_ber_two_user_group_by_hand():
    # one group, users at amplitudes a0 < a1, per-axis levels b = +-1:
    # user 1 decides alone and absorbs user 0, so with v = kappa sqrt(X) its
    # BER is the mean over b0 of Phi(-(a1 + b0 a0) v); averaged over fading
    # that is 1/2 - (a1 + b0 a0) kappa / (2 sqrt(2 + ((a1 + b0 a0) kappa)^2))
    distances, sigma2 = (1.0, 2.0), 0.5
    a0, a1 = math.sqrt(40.0 / 5.0), math.sqrt(160.0 / 5.0)
    kappa = math.sqrt(2.0**-3.0 / sigma2)

    def miss(amplitude):
        beta = amplitude * kappa
        return 0.5 - beta / (2.0 * math.sqrt(2.0 + beta * beta))

    expected = 0.5 * (miss(a1 + a0) + miss(a1 - a0))
    assert exact_hybrid_ber(distances, 3.0, 1, 40.0, sigma2)[1] == pytest.approx(expected, rel=1e-12)
