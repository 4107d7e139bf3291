"""Independent oracles used by the tests.

Everything here is computed from first principles with numpy/stdlib only,
deliberately NOT reusing the package's formulas, so the tests check the
implementation against a second route.
"""

import math
import sys

import numpy as np

SQRT3 = math.sqrt(3.0)
# the two-group precoding vectors, written out literally
V1 = np.array([0.5, SQRT3 / 2.0])
V2 = np.array([-SQRT3 / 2.0, 0.5])


def matrix_rate_oracle(distances, exponent, total_power, sigma2, h, noise_sets, group_vectors):
    """Brute-force per-user hybrid rates via explicit T x T matrices.

    Builds H_k = sqrt(gamma_k) h_k I literally, evaluates the projected
    signal gain |v^T H v|^2 and the interference gain |H v|^2 with dense
    linear algebra, and assembles the SINR exactly as written.
    """
    distances = np.asarray(distances, dtype=float)
    slots = len(group_vectors[0])
    d_sq_total = float(np.sum(distances**2))
    rates = []
    for k in range(len(distances)):
        gamma = 1.0 / distances[k] ** exponent
        channel = math.sqrt(gamma) * h[k] * np.eye(slots)
        v = group_vectors[k]
        signal_gain = abs(v @ channel @ v) ** 2
        numerator = total_power * (distances[k] ** 2 / d_sq_total) * signal_gain
        interference = 0.0
        for j in noise_sets[k]:
            power_j = total_power * distances[j] ** 2 / d_sq_total
            interference += float(np.linalg.norm(channel @ v) ** 2) * power_j
        rates.append(math.log2(1.0 + numerator / (interference + sigma2)) / slots)
    return np.array(rates)


def reference_noise_sets():
    """Uncancelled same-group users for the 5-user cell in distance order."""
    return {0: [], 1: [], 2: [0], 3: [1], 4: [0, 2]}


def reference_group_vectors():
    return {0: V1, 1: V2, 2: V1, 3: V2, 4: V1}


def instantaneous_noise_sets(gains, group_of):
    """Uncancelled users of each receiver under the instantaneous order.

    Written from the rule, not from the package's mask: user j stays as
    noise at receiver k when j is in k's group and has the larger gain,
    a tie going to the smaller index (the smaller index decodes first).
    """
    count = len(group_of)
    return {
        k: [
            j
            for j in range(count)
            if j != k
            and group_of[j] == group_of[k]
            and (gains[j] > gains[k] or (gains[j] == gains[k] and j < k))
        ]
        for k in range(count)
    }


def givens_basis(size):
    """Precoding vectors from pi/3 Givens rotations, in plain Python floats.

    Composes the rotation over every coordinate pair (i, j), i < j, in
    lexicographic order: right-multiplying by a Givens rotation mixes
    columns i and j only. Returns the columns as rows, one per group.
    """
    cos, sin = math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)
    rotation = [[1.0 if r == c else 0.0 for c in range(size)] for r in range(size)]
    for i in range(size - 1):
        for j in range(i + 1, size):
            for row in rotation:
                left, right = row[i], row[j]
                row[i] = cos * left + sin * right
                row[j] = cos * right - sin * left
    return [[rotation[r][t] for r in range(size)] for t in range(size)]


EULER_GAMMA = 0.57721566490153286061


def _scaled_e1_series(z: float) -> float:
    """e^z * E1(z) from E1(z) = -gamma - ln z - sum_{n>=1} (-z)^n / (n * n!)."""
    total = 0.0
    term = 1.0
    n = 0
    while True:
        n += 1
        term *= -z / n  # (-z)^n / n!
        total += term / n
        if abs(term) < 1e-17 * abs(total):
            break
    return math.exp(z) * (-EULER_GAMMA - math.log(z) - total)


# the Lentz factor settles within an ulp or two of 1, on either side: a
# bound below one ulp (2.2e-16) never holds for some z above about 5e16
_CF_TOLERANCE = 4.0 * sys.float_info.epsilon
_CF_MAX_TERMS = 10_000


def _scaled_e1_continued_fraction(z: float) -> float:
    """e^z * E1(z) = 1/(z+1 - 1/(z+3 - 4/(z+5 - ...))), modified Lentz."""
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    result = d
    for i in range(1, _CF_MAX_TERMS + 1):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        result *= delta
        if abs(delta - 1.0) <= _CF_TOLERANCE:
            return result
    raise ArithmeticError(f"e^z E1(z) continued fraction did not converge at z = {z!r}")


def scaled_e1(z: float) -> float:
    """e^z * E1(z) for z > 0: series up to z = 1, continued fraction above."""
    return _scaled_e1_series(z) if z <= 1.0 else _scaled_e1_continued_fraction(z)


def rayleigh_log_mean(a: float, mean: float) -> float:
    """E[ln(1 + a X)] for X exponential with the given mean (Lee 1990)."""
    return 0.0 if a == 0 else scaled_e1(1.0 / (a * mean))


def exact_sum_rates(distances, exponent, total_power, sigma2, noise_sets, slots):
    """Exact ergodic hybrid and TDMA sum rates in bits/slot, distance order.

    With X_k = gamma_k |h_k|^2 / sigma^2 exponential of mean gamma_k /
    sigma^2, user k's hybrid rate is
    [ln(1 + (P_k + I_k) X_k) - ln(1 + I_k X_k)] / (T ln 2), I_k being the
    power of its uncancelled same-group users; the TDMA baseline is the mean
    over users of ln(1 + P X_k) / (T ln 2).
    """
    d_sq_total = sum(d * d for d in distances)
    powers = [total_power * d * d / d_sq_total for d in distances]
    scale = 1.0 / (slots * math.log(2.0))
    hybrid = tdma = 0.0
    for k, d in enumerate(distances):
        mean = 1.0 / (d**exponent * sigma2)
        interference = sum(powers[j] for j in noise_sets[k])
        hybrid += scale * (
            rayleigh_log_mean(powers[k] + interference, mean)
            - rayleigh_log_mean(interference, mean)
        )
        tdma += scale * rayleigh_log_mean(total_power, mean) / len(distances)
    return hybrid, tdma


def add_noise(rng, signal, noise):
    """Add i.i.d. complex Gaussian noise of variance ``noise.variance`` per
    entry: sigma^2/2 on each real axis, real parts drawn before imaginary."""
    signal = np.asarray(signal)
    scale = math.sqrt(noise.variance / 2.0)
    re = rng.standard_normal(signal.shape)
    im = rng.standard_normal(signal.shape)
    return signal + scale * (re + 1j * im)


def qpsk_demodulate(symbols):
    """Hard-decide Gray QPSK symbols back to bits.

    Sign of the real part gives the first bit of each pair, sign of the
    imaginary part the second; exact zeros decide toward bit 0. A scalar
    input yields the 2-element bit pair.
    """
    symbols = np.atleast_1d(np.asarray(symbols))
    first = (symbols.real < 0).astype(np.int8)
    second = (symbols.imag < 0).astype(np.int8)
    return np.stack([first, second], axis=-1).reshape(symbols.shape[:-1] + (-1,))


def qfunc(x: float) -> float:
    """Gaussian tail probability."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def awgn_qpsk_ber(es_over_sigma2: float) -> float:
    """Per-bit error rate of Gray QPSK on pure AWGN at symbol SNR Es/sigma^2."""
    return qfunc(math.sqrt(es_over_sigma2))


def rayleigh_qpsk_ber(mean_bit_snr: float) -> float:
    """Gray QPSK per-bit error rate averaged over unit Rayleigh fading."""
    return 0.5 * (1.0 - math.sqrt(mean_bit_snr / (1.0 + mean_bit_snr)))


# Gray QPSK points in bit-pair order 00, 01, 10, 11, written out literally
QPSK_POINTS = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def minimum_distance_detect(residual, channel, amplitude):
    """Textbook ML: the QPSK point s minimizing |r - g a s|^2, by search.

    Ties go to the earliest point in bit-pair order.
    """
    residual = np.asarray(residual, dtype=complex)
    scale = np.asarray(channel) * amplitude
    points = QPSK_POINTS.reshape((4,) + (1,) * residual.ndim)
    metrics = np.abs(residual[np.newaxis] - scale[np.newaxis] * points) ** 2
    return QPSK_POINTS[np.argmin(metrics, axis=0)]


def reference_sic_bits(projected, channels, powers, group_of, gains):
    """One receiver at a time SIC, the loop the vectorized bank replaces.

    ``projected`` and ``channels`` are (K, S); ``gains`` (K, S) set the
    decoding order block by block (distance order is any strictly
    decreasing gain). Receiver k sweeps its same-group users in descending
    power and subtracts user j on the blocks where j ranks after k (smaller
    gain, ties to the larger index), detecting by minimum-distance search.
    Returns (K, 2S) bits, real then imaginary decision per symbol.
    """
    count = len(powers)
    bits = []
    for k in range(count):
        residual = np.array(projected[k], dtype=complex)
        channel = channels[k]
        for j in sorted(range(count), key=lambda u: -powers[u]):
            if j == k or group_of[j] != group_of[k]:
                continue
            after = (gains[j] < gains[k]) | ((gains[j] == gains[k]) & (j > k))
            amp = math.sqrt(powers[j])
            estimate = minimum_distance_detect(residual, channel, amp)
            residual = np.where(after, residual - channel * amp * estimate, residual)
        own = minimum_distance_detect(residual, channel, math.sqrt(powers[k]))
        bits.append(np.stack([own.real < 0, own.imag < 0], axis=-1).reshape(-1))
    return np.array(bits)
