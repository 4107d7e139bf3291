"""Exact oracles for the benchmark's output checks.

Computed from first principles with the standard library only; nothing
here imports timnoma, so a fault in the package cannot hide in the check. The cell is the 5-user reference cell (users split round-robin over
the groups, power proportional to squared distance, SNR = P / sigma^2).

BER. After projection onto its group vector and derotation by the conjugate
of its own channel g, a receiver sees on each real axis

    r = c * sum_j a_j b_j + w,   c = |g| / sqrt(2),   w ~ N(0, sigma^2 / 2),

summed over its group (a_j = sqrt(P_j), b_j = +-1). Gray-QPSK ML with a
scalar channel is a sign test per axis, so each SIC stage decides
sign(residual) and subtracts c * a_j * decision. Every decision sequence of
the chain happens on one interval of w whose ends are c times a constant;
summing the Gaussian mass of the intervals where the receiver's own
decision is wrong gives its BER given |g|. Averaging one such term over
Rayleigh fading (|g|^2 = gamma X, X ~ Exp(1)) is closed-form:

    E[Phi(beta sqrt(X))] = 1/2 + beta / (2 sqrt(2 + beta^2)),

so the whole BER is exact, with no quadrature.

Rates. For X exponential with mean m, E[ln(1 + aX)] = e^{1/(am)} E1(1/(am))
(W. C. Y. Lee, IEEE TVT 1990), which gives the hybrid and TDMA sum rates
under distance order exactly.
"""

from __future__ import annotations

import itertools
import math

DISTANCES = (0.5, 1.5, 2.5, 3.5, 4.5)
PATH_LOSS_EXPONENT = 3.0
GROUP_COUNT = 2
TOTAL_POWER = 40.0


def _powers():
    d_sq_total = sum(d * d for d in DISTANCES)
    return [TOTAL_POWER * d * d / d_sq_total for d in DISTANCES]


def _sigma2(snr_db):
    return TOTAL_POWER * 10.0 ** (-snr_db / 10.0)


def rayleigh_phi_mean(beta: float) -> float:
    """E[Phi(beta sqrt(X))] for X ~ Exp(1); Phi is the standard normal CDF."""
    if beta == math.inf:
        return 1.0
    if beta == -math.inf:
        return 0.0
    root = math.sqrt(2.0 + beta * beta)
    tail = 1.0 / (root * (root + abs(beta)))  # 1/2 - |beta| / (2 root), without cancellation
    return 1.0 - tail if beta > 0 else tail


def rayleigh_qpsk_ber(mean_bit_snr: float) -> float:
    """Gray QPSK per-bit error rate averaged over unit Rayleigh fading."""
    return 0.5 * (1.0 - math.sqrt(mean_bit_snr / (1.0 + mean_bit_snr)))


def single_user_ber(snr_db: float) -> list[float]:
    """Per-user BER with only that user active at its hybrid power share."""
    sigma2 = _sigma2(snr_db)
    return [
        rayleigh_qpsk_ber(d ** -PATH_LOSS_EXPONENT * p / (2.0 * sigma2))
        for d, p in zip(DISTANCES, _powers())
    ]


def _error_intervals(own: float, cancel: list[float], others: list[float]):
    """Intervals (lo, hi) of w / c on which the own decision is wrong.

    The own symbol is +1 (the chain is odd in (b, w), so this loses
    nothing); ``cancel`` holds the amplitudes the receiver detects and
    subtracts first, strongest first; ``others`` holds every other
    same-group amplitude with its sign. Returned once per decision
    sequence that ends in a wrong own decision.
    """
    total = own + sum(others)
    out = []
    for decisions in itertools.product((1, -1), repeat=len(cancel)):
        lo, hi = -math.inf, math.inf
        running = total
        for amp, decided in zip(cancel, decisions):
            # decided +1 needs running + w >= 0 (exact ties go to +1)
            if decided > 0:
                lo = max(lo, -running)
            else:
                hi = min(hi, -running)
            running -= amp * decided
        hi = min(hi, -running)  # own decision -1: running + w < 0
        if lo < hi:
            out.append((lo, hi))
    return out


def hybrid_ber(snr_db: float) -> list[float]:
    """Per-user BER of projection plus SIC under distance order, exact."""
    sigma2 = _sigma2(snr_db)
    amps = [math.sqrt(p) for p in _powers()]
    user_count = len(DISTANCES)
    result = []
    for k in range(user_count):
        group = [j for j in range(user_count) if j % GROUP_COUNT == k % GROUP_COUNT]
        # cancel the farther (stronger) members, strongest first
        cancel_users = sorted((j for j in group if j > k), reverse=True)
        other_users = [j for j in group if j != k]
        # c / (sigma / sqrt(2)) = sqrt(gamma_k / sigma^2) * sqrt(X)
        kappa = math.sqrt(DISTANCES[k] ** -PATH_LOSS_EXPONENT / sigma2)
        ber = 0.0
        patterns = list(itertools.product((1, -1), repeat=len(other_users)))
        for signs in patterns:
            signed = [s * amps[j] for s, j in zip(signs, other_users)]
            for lo, hi in _error_intervals(amps[k], [amps[j] for j in cancel_users], signed):
                ber += rayleigh_phi_mean(kappa * hi) - rayleigh_phi_mean(kappa * lo)
        result.append(ber / len(patterns))
    return result


EULER_GAMMA = 0.57721566490153286061


def scaled_e1(z: float) -> float:
    """e^z E1(z) for z > 0: power series up to z = 1, continued fraction above."""
    if z <= 1.0:
        total, term, n = 0.0, 1.0, 0
        while True:
            n += 1
            term *= -z / n  # (-z)^n / n!
            total += term / n
            if abs(term) < 1e-17 * abs(total):
                return math.exp(z) * (-EULER_GAMMA - math.log(z) - total)
    # 1 / (z+1 - 1/(z+3 - 4/(z+5 - ...))), modified Lentz
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    result = d
    i = 0
    while True:
        i += 1
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        result *= delta
        if abs(delta - 1.0) < 1e-16:
            return result


def _log_mean(a: float, mean: float) -> float:
    """E[ln(1 + a X)] for X exponential with the given mean."""
    return 0.0 if a == 0 else scaled_e1(1.0 / (a * mean))


def sum_rates(snr_db: float) -> tuple[float, float]:
    """Exact ergodic (hybrid, TDMA) sum rates in bits/slot, distance order.

    User k's hybrid rate is [ln(1 + (P_k + I_k) X_k) - ln(1 + I_k X_k)] /
    (T ln 2), I_k the power of its nearer same-group users; the TDMA
    baseline is the mean over users of ln(1 + P X_k) / (T ln 2).
    """
    sigma2 = _sigma2(snr_db)
    powers = _powers()
    scale = 1.0 / (GROUP_COUNT * math.log(2.0))
    hybrid = tdma = 0.0
    for k, d in enumerate(DISTANCES):
        mean = d ** -PATH_LOSS_EXPONENT / sigma2
        interference = sum(powers[j] for j in range(k) if j % GROUP_COUNT == k % GROUP_COUNT)
        hybrid += scale * (_log_mean(powers[k] + interference, mean) - _log_mean(interference, mean))
        tdma += scale * _log_mean(TOTAL_POWER, mean) / len(DISTANCES)
    return hybrid, tdma
