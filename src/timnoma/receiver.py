"""Successive interference cancellation on the derotated real baseband.

Projection onto the group's precoding vector cancels every other group's
contribution exactly and leaves white noise of unchanged variance, so a
receiver k sees g_k * sum_{j in its group} sqrt(P_j) s_j + z_k. Derotating
by conj(g_k)/|g_k| turns this, on each real axis, into

    r = |g_k| * sum_j sqrt(P_j) x_j + w,   w ~ N(0, sigma^2 / 2),

with x_j = +-1/sqrt(2) the symbol's level on that axis. Gray-QPSK maximum
likelihood with a scalar channel is a sign test per axis, so everything
here is real and per axis.

The receiver detects and subtracts the same-group signals that rank after
it in the decoding order, iterating in descending transmit power (the
strongest uncancelled signal is always detected first), then detects its
own symbol. Same-group signals ranked before the receiver are absorbed as
noise.

``decode`` runs this for every receiver of a frame at once. Which user a
receiver cancels on which block is a boolean (receiver, interferer, block)
mask from ``cancel_mask``, so the static distance order and the per-block
instantaneous order share one kernel; a single-user run is a cell of
one-user groups, whose mask is all false. ``cancel_mask`` is the only
statement of the decoding order: the rate tables read it too.

Nothing here calls BLAS: every sum runs over an axis of length at most K,
where a broadcast is cheaper than a BLAS call and never starts BLAS
threads inside a pool worker.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .modem import LEVEL


def cancel_mask(group_of, gains=None) -> np.ndarray:
    """Boolean (receiver, interferer, block) SIC cancel mask.

    ``mask[k, j, s]`` is true when receiver k detects and subtracts user j
    on block s: j shares k's group (``group_of`` holds one group index per
    user) and ranks after k in the decoding order.
    Without ``gains`` the order is by distance (user index), so the mask is
    ``same_group & (j > k)`` with a single block axis entry. With ``gains``
    of shape (K,) or (K, S), the instantaneous channel gains gamma |h|^2,
    the order is by decreasing gain, block by block: j ranks after k where
    its gain is smaller, ties going to the larger index. The gains are
    taken unscaled: dividing them by sigma^2 cannot change the order, only
    add ties by rounding.
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


def decode(signal, channels, amplitudes, cancel, genie_symbols=None) -> np.ndarray:
    """Run every receiver's SIC chain and return the bits it decides.

    ``signal`` is (K, S, 2) real: receiver k's derotated signal on block s,
    real axis then imaginary axis. It is overwritten with each receiver's
    final residual, the one its own symbols were detected from.
    ``channels`` holds each receiver's channel magnitude
    |g_k| = sqrt(gamma_k |h_k|^2), shape (K, S), or (K, 1) when it is
    constant over the frame. ``amplitudes`` are the transmit amplitudes
    sqrt(P_j). ``cancel`` is a (K, K, S) or (K, K, 1) mask from
    ``cancel_mask``.

    Interferers are swept in descending transmit power. Each one is
    detected on every axis by the sign of the running residual of every
    receiver that cancels it on some block, and its reconstruction
    |g| * sqrt(P_j) * level is subtracted on the blocks the mask selects,
    so detection errors propagate exactly as in a real chain. If
    ``genie_symbols`` ((K, S, 2), the transmitted levels) is given, the
    true levels are subtracted instead, which isolates each receiver's own
    detection from propagation effects.

    Returns (K, 2S) booleans in the bit order ``qpsk_levels`` reads: a
    negative residual decides bit 1, and an exact zero decides bit 0.
    """
    residual = signal
    amplitudes = np.asarray(amplitudes, dtype=float)
    count = len(amplitudes)
    cancel = np.asarray(cancel, dtype=bool)
    if residual.shape[:1] + residual.shape[2:] != (count, 2) or cancel.shape[:2] != (count, count):
        raise ValidationError(
            f"signal {residual.shape} and cancel mask {cancel.shape} do not match {count} users"
        )
    for j in np.argsort(-amplitudes, kind="stable"):
        rows = np.flatnonzero(cancel[:, j, :].any(axis=1))
        if rows.size == 0:
            continue
        running = residual[rows]
        if genie_symbols is None:
            estimate = np.where(running < 0, -LEVEL, LEVEL)
        else:
            estimate = genie_symbols[j]
        reconstruction = channels[rows, :, np.newaxis] * amplitudes[j] * estimate
        np.subtract(running, reconstruction, out=running, where=cancel[rows, j, :, np.newaxis])
        residual[rows] = running
    return (residual < 0).reshape(count, -1)
