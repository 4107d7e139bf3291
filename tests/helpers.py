"""Independent oracles used by the tests.

Everything here is computed from first principles with numpy/stdlib only,
deliberately NOT reusing the package's formulas, so the tests check the
implementation against a second route.

The physical chain lives here too: the complex QPSK modem
(``qpsk_modulate``, ``qpsk_demodulate``), complex fading (``draw_fading``),
the precoding basis (``make_basis``), the transmit mixing (``mixing_matrix``),
projection (``project``) and the one-receiver-at-a-time SIC loop
(``reference_sic_bits``). The package simulates only the derotated real
baseband that is left after projection; tests hold it to this chain. The
real per-axis frame as the package once built and decoded it, all K
receivers at once (``qpsk_levels``, ``received_signal``,
``gathering_decode``), stays here as the bit-for-bit reference of its
receiver-by-receiver frame; ``decode_rows`` runs the package's
one-receiver ``decode`` over such a frame.
"""

import dataclasses
import itertools
import math
import sys

import numpy as np

from timnoma import decode
from timnoma.errors import ValidationError

REFERENCE_DISTANCES = (0.5, 1.5, 2.5, 3.5, 4.5)
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


def cancel_mask(group_of, gains=None):
    """Boolean (receiver, interferer, block) SIC cancel mask: the decoding
    order written out in full, as the package once built it per frame.

    ``mask[k, j, s]`` is true when receiver k detects and subtracts user j
    on block s: j shares k's group and ranks after k. Without ``gains`` the
    order is by distance (user index), with a single block axis entry.
    With ``gains`` of shape (K,) or (K, S) the order is by decreasing gain,
    block by block: j ranks after k where its gain is smaller, ties going
    to the larger index. Kept as the oracle of ``receiver.ranks_ahead``.
    """
    users = np.arange(len(group_of))
    group_of = np.asarray(group_of)
    later = (users[np.newaxis, :] > users[:, np.newaxis])[:, :, np.newaxis]
    same_group = (group_of[np.newaxis, :] == group_of[:, np.newaxis])[:, :, np.newaxis]
    if gains is None:
        return same_group & later
    gains = np.asarray(gains, dtype=float).reshape(len(users), -1)
    own = gains[:, np.newaxis, :]
    other = gains[np.newaxis, :, :]
    return same_group & ((other < own) | ((other == own) & later))


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


def make_basis(group_count):
    """The precoding vectors as a read-only (T, T) array, one row per group.

    Read-only because session fixtures share it between tests.
    """
    if group_count < 1:
        raise ValueError("group_count must be at least 1")
    vectors = np.array(givens_basis(group_count))
    vectors.setflags(write=False)
    return vectors


def draw_fading(rng, user_count, blocks=None):
    """Draw i.i.d. unit-variance circularly-symmetric complex coefficients.

    Returns shape (user_count,) for a single coherence block, or
    (user_count, blocks) for a run of consecutive blocks. Real parts are
    drawn first, then imaginary.
    """
    if user_count < 1:
        raise ValueError("user_count must be at least 1")
    shape = (user_count,) if blocks is None else (user_count, int(blocks))
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * (1.0 / math.sqrt(2.0))


def mixing_matrix(powers, group_of, basis):
    """(T, K) matrix whose column k is sqrt(P_k) * v_{t(k)}, from the
    per-user powers P_k and groups t(k).

    The transmit vector for a block of symbols s (shape (K,) or (K, S)) is
    ``mixing_matrix(...) @ s``.
    """
    columns = basis[list(group_of)].T  # (T, K)
    return columns * np.sqrt(np.asarray(powers))


def project(received, basis, group):
    """Project received T-vectors onto group precoding vectors.

    ``group`` is one group index or an array of them. The slot axis of
    ``received`` follows the group axes: shape (T,) or (T, S) for a single
    group gives a complex scalar or an (S,) array, and shape (K, T, S) for
    K groups gives (K, S). Other groups' signals cancel exactly by
    orthonormality.
    """
    received = np.asarray(received)
    vectors = basis[group]  # group's shape + (T,)
    slot_axis = vectors.ndim - 1
    if received.ndim <= slot_axis or received.shape[slot_axis] != len(basis):
        raise ValueError(
            f"received signal of shape {received.shape} has no axis of "
            f"{len(basis)} slots where group {group!r} needs it"
        )
    weights = vectors.reshape(vectors.shape + (1,) * (received.ndim - vectors.ndim))
    weights = np.moveaxis(weights, slot_axis, 0)
    slots = np.moveaxis(received, slot_axis, 0)
    out = weights[0] * slots[0]
    for weight, slot in zip(weights[1:], slots[1:]):
        out += weight * slot
    return complex(out) if out.ndim == 0 else out


def lone_cell(cell, total_power):
    """``cell`` with every user alone in its group at full power, its T
    kept: its hybrid rates are the single-user rates, whose row mean is the
    TDMA baseline."""
    return dataclasses.replace(
        cell, group_of=tuple(range(cell.user_count)), powers=(total_power,) * cell.user_count
    )


def row(rows, snr_db, entity, metric):
    """The one result row of ``run_experiment`` with this SNR, entity and
    metric."""
    found = [r for r in rows if (r.snr_db, r.entity, r.metric) == (snr_db, entity, metric)]
    if len(found) != 1:
        raise KeyError((snr_db, entity, metric))
    return found[0]


def members(group_of):
    """Each group's users in index order, from the user -> group map."""
    return tuple(
        tuple(k for k, g in enumerate(group_of) if g == t) for t in range(max(group_of) + 1)
    )


def levels(values):
    """Per-axis levels of complex values: shape + (2,), real then imaginary."""
    values = np.array(values, dtype=complex)
    return values.reshape(-1).view(float).reshape(values.shape + (2,))


# the package's per-axis QPSK level, computed as ``timnoma.modem`` does
LEVEL = 1.0 / np.sqrt(2.0)
_LEVELS = np.array([LEVEL, -LEVEL])  # indexed by bit


def qpsk_levels(bits) -> np.ndarray:
    """Map bits to per-axis QPSK levels, two bits per symbol.

    Accepts any integer or boolean array-like of 0/1, signed or unsigned,
    whose last axis has even length; returns float64 of shape (..., S, 2),
    the last axis holding the in-phase then the quadrature level of each
    symbol. Bits are consumed in order. The package's modem before BER
    frames took signed amplitudes; kept as the reference of the frame
    builder.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValidationError("bit count must be even (two bits per symbol)")
    pairs = bits.reshape(bits.shape[:-1] + (-1, 2))
    # a lookup, not 1 - 2 * bits, which wraps around for unsigned bits
    return np.take(_LEVELS, pairs)


def received_signal(levels, channels, amplitudes, group_of) -> np.ndarray:
    """Every receiver's noiseless derotated signal, (K, S, 2) real.

    Receiver k sees |g_k| times the superposed levels sqrt(P_j) x_j of its
    own group ``group_of[k]``, which is what is left of the transmit after
    projection. ``levels`` are the (K, S, 2) QPSK levels of ``qpsk_levels``
    and ``channels`` the (K, S) or (K, 1) magnitudes. The package's frame
    builder before it added the signal to the noise in place; kept as its
    reference.
    """
    totals = np.zeros((max(group_of) + 1,) + levels.shape[1:])
    for user, group in enumerate(group_of):
        totals[group] += amplitudes[user] * levels[user]
    signal = totals[list(group_of)]
    signal *= channels[:, :, np.newaxis]
    return signal


def gathering_decode(signal, channels, amplitudes, group_of, gains=None, genie_symbols=None):
    """The receiver bank as the package ran it before SIC ran receiver by
    receiver, kept as the oracle of ``receiver.decode``; the order is read
    from ``cancel_mask``.

    Per interferer j, in descending power, the residual rows of the
    members that rank ahead of j on some block are gathered, j is detected
    on them by ``np.where`` on their sign, its broadcast reconstruction is
    subtracted where they rank ahead, and the rows are written back.
    ``channels`` are (K, S) or (K, 1). Overwrites ``signal`` with the
    residual and returns (K, 2S) booleans, negative deciding bit 1.
    """
    residual = signal
    amplitudes = np.asarray(amplitudes, dtype=float)
    count = len(amplitudes)
    group_of = np.asarray(group_of)
    mask = cancel_mask(group_of, gains)
    for j in np.argsort(-amplitudes, kind="stable"):
        rows = np.flatnonzero(group_of == group_of[j])
        ahead = mask[rows, j]  # (rows, S) or (rows, 1)
        cancels = ahead.any(axis=1)
        rows, ahead = rows[cancels], ahead[cancels]
        if rows.size == 0:
            continue
        running = residual[rows]
        if genie_symbols is None:
            estimate = np.where(running < 0, -LEVEL, LEVEL)
        else:
            estimate = genie_symbols[j]
        reconstruction = channels[rows, :, np.newaxis] * amplitudes[j] * estimate
        np.subtract(running, reconstruction, out=running, where=ahead[:, :, np.newaxis])
        residual[rows] = running
    return (residual < 0).reshape(count, -1)


def decode_rows(signal, channels, amplitudes, group_of, gains=None, genie_symbols=None):
    """Receiver k's ``decode`` on row k of a (K, S, 2) signal, for every k.

    ``channels`` are the (K, S) or (K, 1) magnitudes; each row gets its own
    laid out per axis, as the harness lays it out: (S, 2), or (1, 1) when
    constant over the frame. Overwrites ``signal`` with the residuals and
    returns the (K, 2S) bits.
    """
    channels = np.asarray(channels)[:, :, np.newaxis]
    if channels.shape[1] > 1:
        channels = np.repeat(channels, 2, axis=2)
    return np.array([
        decode(signal[k], channels[k], amplitudes, group_of, k, gains, genie_symbols)
        for k in range(len(signal))
    ])


def derotate(projected, channels):
    """The real per-axis view of projected signals: conj(g)/|g| * r.

    ``projected`` is (K, S) and the complex ``channels`` g broadcast to it.
    Returns the (K, S, 2) real signal and the channel magnitudes |g|, in
    the shape of ``channels``, which the package's receiver takes.
    """
    magnitudes = np.abs(channels)
    return levels(np.conj(channels) / magnitudes * projected), magnitudes


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


def add_noise(rng, signal, sigma2):
    """Add i.i.d. complex Gaussian noise of variance ``sigma2`` per entry:
    sigma^2/2 on each real axis, real parts drawn before imaginary."""
    signal = np.asarray(signal)
    scale = math.sqrt(sigma2 / 2.0)
    re = rng.standard_normal(signal.shape)
    im = rng.standard_normal(signal.shape)
    return signal + scale * (re + 1j * im)


# Gray QPSK points in bit-pair order 00, 01, 10, 11, written out literally:
# the first bit sets the sign of the real part, the second the imaginary
CONSTELLATION = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def qpsk_modulate(bits):
    """The reference chain's modem: bits to complex Gray QPSK symbols.

    Reads the last axis (even length) as consecutive bit pairs and looks
    each pair up in CONSTELLATION, so the last axis is halved.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValueError("bit count must be even (two bits per symbol)")
    pairs = bits.reshape(bits.shape[:-1] + (-1, 2))
    return CONSTELLATION[2 * pairs[..., 0] + pairs[..., 1]]


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


def minimum_distance_detect(residual, channel, amplitude):
    """Textbook ML: the QPSK point s minimizing |r - g a s|^2, by search.

    Ties go to the earliest point in bit-pair order.
    """
    residual = np.asarray(residual, dtype=complex)
    scale = np.asarray(channel) * amplitude
    points = CONSTELLATION.reshape((4,) + (1,) * residual.ndim)
    metrics = np.abs(residual[np.newaxis] - scale[np.newaxis] * points) ** 2
    return CONSTELLATION[np.argmin(metrics, axis=0)]


def reference_sic_bits(projected, channels, powers, group_of, gains):
    """One receiver at a time SIC on the complex projected signal, with
    minimum-distance detection: the reference of the real per-axis kernel.

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


def rayleigh_phi_mean(beta):
    """E[Phi(beta sqrt(X))] for X ~ Exp(1); Phi is the standard normal CDF.

    The closed form is 1/2 + beta / (2 sqrt(2 + beta^2)), evaluated without
    cancellation in the tails.
    """
    if beta == math.inf:
        return 1.0
    if beta == -math.inf:
        return 0.0
    root = math.sqrt(2.0 + beta * beta)
    tail = 1.0 / (root * (root + abs(beta)))  # 1/2 - |beta| / (2 root)
    return 1.0 - tail if beta > 0 else tail


def _own_error_intervals(own, cancel, others):
    """Intervals (lo, hi) of w / c on which the own decision is wrong.

    On one real axis the receiver sees c * (own + sum(others)) + w. It
    detects and subtracts the amplitudes in ``cancel`` strongest first,
    deciding each by the sign of the running residual (an exact zero
    decides +1), then decides its own +1 level by the sign of what is
    left. ``others`` holds every other same-group amplitude with the sign
    of its level. Each decision sequence that ends in a wrong own decision
    holds on one interval; the chain is odd in (levels, w), so fixing the
    own level at +1 loses nothing.
    """
    total = own + sum(others)
    out = []
    for decisions in itertools.product((1, -1), repeat=len(cancel)):
        lo, hi = -math.inf, math.inf
        running = total
        for amp, decided in zip(cancel, decisions):
            if decided > 0:
                lo = max(lo, -running)  # running + w >= 0
            else:
                hi = min(hi, -running)  # running + w < 0
            running -= amp * decided
        hi = min(hi, -running)  # own decision wrong: running + w < 0
        if lo < hi:
            out.append((lo, hi))
    return out


def exact_hybrid_ber(distances, exponent, group_count, total_power, sigma2):
    """Exact per-user BER of projection plus SIC under distance order.

    Written from the scheme, not from the package: users join groups
    round-robin by distance rank, power is proportional to squared
    distance, and a receiver cancels its farther (stronger) group members,
    strongest first. On each real axis of the derotated projected signal
    it sees c * sum_j a_j b_j + w with c = |g| / sqrt(2), b_j = +-1 and
    w ~ N(0, sigma^2 / 2). Averaging each decision interval's Gaussian mass
    over |g|^2 = gamma X, X ~ Exp(1), is ``rayleigh_phi_mean``; the bits
    of every other group member are averaged over their 2^(g-1) patterns.
    The BER is the same under block and frame fading.
    """
    d_sq_total = sum(d * d for d in distances)
    amps = [math.sqrt(total_power * d * d / d_sq_total) for d in distances]
    count = len(distances)
    result = []
    for k in range(count):
        group = [j for j in range(count) if j % group_count == k % group_count]
        cancel = [amps[j] for j in sorted((j for j in group if j > k), reverse=True)]
        others = [j for j in group if j != k]
        # c / (sigma / sqrt(2)) = sqrt(gamma_k / sigma^2) * sqrt(X)
        kappa = math.sqrt(distances[k] ** -exponent / sigma2)
        patterns = list(itertools.product((1, -1), repeat=len(others)))
        ber = 0.0
        for signs in patterns:
            signed = [sign * amps[j] for sign, j in zip(signs, others)]
            for lo, hi in _own_error_intervals(amps[k], cancel, signed):
                ber += rayleigh_phi_mean(kappa * hi) - rayleigh_phi_mean(kappa * lo)
        result.append(ber / len(patterns))
    return result
