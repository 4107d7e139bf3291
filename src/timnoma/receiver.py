"""Two-stage decoding: projection onto the group precoder, then SIC.

Stage 1 projects the received T-vector onto the group's precoding vector
(plain transpose, the basis is real), which cancels every other group's
contribution exactly and leaves white noise of unchanged variance.

Stage 2 runs successive interference cancellation inside the group: the
receiver detects and subtracts the same-group signals that rank after it in
the decoding order, iterating in descending transmit power (the strongest
uncancelled signal is always detected first), then detects its own symbol.
Same-group signals ranked before the receiver are absorbed as noise. All
detections are per-symbol maximum likelihood over the Gray-QPSK points.

``decode`` runs stage 2 for every receiver of a frame at once. Which user a
receiver cancels on which block is a boolean (receiver, interferer, block)
mask from ``cancel_mask``, so the static distance order, the per-block
instantaneous order and the single-user run (an all-false mask) share one
kernel. Nothing here calls BLAS: every sum runs over an axis of length at
most K, where a broadcast is cheaper than a BLAS call and never starts
BLAS threads inside a pool worker.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .modem import CONSTELLATION
from .precoding import PrecodingBasis
from .topology import GroupAssignment

_AMP = CONSTELLATION[0].real  # per-axis amplitude of every QPSK point


def project(received, basis: PrecodingBasis, group) -> np.ndarray | complex:
    """Project received T-vectors onto group precoding vectors.

    ``group`` is one group index or an array of them. The slot axis of
    ``received`` follows the group axes: shape (T,) or (T, S) for a single
    group gives a complex scalar or an (S,) array, and shape (K, T, S) for
    K groups gives (K, S). Other groups' signals cancel exactly by
    orthonormality.
    """
    received = np.asarray(received)
    vectors = basis.vectors[group]  # group's shape + (T,)
    slot_axis = vectors.ndim - 1
    if received.ndim <= slot_axis or received.shape[slot_axis] != basis.group_count:
        raise ValidationError(
            f"received signal of shape {received.shape} has no axis of "
            f"{basis.group_count} slots where group {group!r} needs it"
        )
    weights = vectors.reshape(vectors.shape + (1,) * (received.ndim - vectors.ndim))
    # one slot at a time keeps the temporaries at the size of the result
    weights = np.moveaxis(weights, slot_axis, 0)
    slots = np.moveaxis(received, slot_axis, 0)
    out = weights[0] * slots[0]
    for weight, slot in zip(weights[1:], slots[1:]):
        out += weight * slot
    return complex(out) if out.ndim == 0 else out


def cancel_mask(groups: GroupAssignment, gains=None) -> np.ndarray:
    """Boolean (receiver, interferer, block) SIC cancel mask.

    ``mask[k, j, s]`` is true when receiver k detects and subtracts user j
    on block s: j shares k's group and ranks after k in the decoding order.
    Without ``gains`` the order is by distance (user index), so the mask is
    ``same_group & (j > k)`` with a single block axis entry. With ``gains``
    of shape (K,) or (K, S), the instantaneous noise-normalized gains, the
    order is by decreasing gain, block by block: j ranks after k where its
    gain is smaller, ties going to the larger index.
    """
    users = np.arange(len(groups.group_of))
    group_of = np.asarray(groups.group_of)
    later = (users[np.newaxis, :] > users[:, np.newaxis])[:, :, np.newaxis]
    same_group = (group_of[np.newaxis, :] == group_of[:, np.newaxis])[:, :, np.newaxis]
    if gains is None:
        return same_group & later
    gains = np.asarray(gains, dtype=float).reshape(len(users), -1)
    own = gains[:, np.newaxis, :]
    other = gains[np.newaxis, :, :]
    return same_group & ((other < own) | ((other == own) & later))


def _bit_flips(residual, effective_channel) -> np.ndarray:
    """Per-axis ML bit decisions: true (bit 1) where conj(g) * r < 0.

    Gray QPSK with a scalar channel decides each axis of conj(g) * r on its
    own sign. An exact zero decides bit 0, the earlier point in
    constellation order, as the minimum-distance search breaks its ties.
    The result interleaves real and imaginary decisions along the last
    axis, which is the ``qpsk_modulate`` bit order.
    """
    matched = np.ascontiguousarray(np.conj(effective_channel) * residual, dtype=np.complex128)
    return matched.view(np.float64) < 0


def ml_detect(residual, effective_channel, amplitude: float):
    """Per-symbol ML detection against the scaled QPSK constellation.

    Minimizes |residual - effective_channel * amplitude * s|^2 over the four
    points, which for Gray QPSK is a sign test on each axis of
    conj(effective_channel) * residual; ties resolve to the earliest point
    in constellation order. Vectorized: ``residual`` (and a broadcastable
    ``effective_channel``) may be arrays, in which case an array of
    decisions is returned.
    """
    if not amplitude > 0:
        raise ValidationError("amplitude must be positive")
    flips = _bit_flips(residual, effective_channel)
    decided = np.where(flips, -_AMP, _AMP).view(np.complex128)
    if np.ndim(residual) == 0 and np.ndim(effective_channel) == 0:
        return complex(decided[0])
    return decided


def decode(signal, channels, amplitudes, cancel, genie_symbols=None) -> np.ndarray:
    """Run every receiver's SIC chain and return the bits it decides.

    ``signal`` is (K, S) complex: receiver k's projected signal on block s.
    It is overwritten with each receiver's final residual, the one its own
    symbols were detected from. ``channels`` holds each receiver's
    effective channel g_k = sqrt(gamma_k) * h_k, shape (K, S), or (K, 1)
    when it is constant over the frame. ``amplitudes`` are the transmit
    amplitudes sqrt(P_j). ``cancel`` is a (K, K, S) or (K, K, 1) mask from
    ``cancel_mask``.

    Interferers are swept in descending transmit power. Each one is
    detected from the running residual of every receiver that cancels it
    on some block, and its reconstruction g * sqrt(P_j) * estimate is
    subtracted on the blocks the mask selects, so detection errors
    propagate exactly as in a real chain. If
    ``genie_symbols`` ((K, S), the transmitted symbols) is given, the true
    symbols are subtracted instead, which isolates each receiver's own
    detection from propagation effects.

    Returns (K, 2S) booleans in ``qpsk_modulate`` bit order.
    """
    residual = signal
    amplitudes = np.asarray(amplitudes, dtype=float)
    count = len(amplitudes)
    cancel = np.asarray(cancel, dtype=bool)
    if residual.ndim != 2 or residual.shape[0] != count or cancel.shape[:2] != (count, count):
        raise ValidationError(
            f"signal {residual.shape} and cancel mask {cancel.shape} do not match {count} users"
        )
    for j in np.argsort(-amplitudes, kind="stable"):
        rows = np.flatnonzero(cancel[:, j, :].any(axis=1))
        if rows.size == 0:
            continue
        running, channel = residual[rows], channels[rows]
        if genie_symbols is None:
            estimate = ml_detect(running, channel, amplitudes[j])
        else:
            estimate = genie_symbols[j]
        reconstruction = channel * amplitudes[j] * estimate
        np.subtract(running, reconstruction, out=running, where=cancel[rows, j, :])
        residual[rows] = running
    return _bit_flips(residual, channels)
