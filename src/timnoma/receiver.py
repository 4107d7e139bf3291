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

``decode`` runs this for every receiver of a frame at once, subtracting
each interferer from each cancelling receiver's row in place. The decoding
order is one pairwise rule, ``ranks_ahead``, by distance or block by block
by instantaneous gain, so both orders share one kernel; a single-user run
is a cell of one-user groups, where nobody ranks ahead of anybody. The
rule is the only statement of the order: the rate tables read it too.

Nothing here calls BLAS: every sum runs over an axis of length at most K,
where a broadcast is cheaper than a BLAS call and never starts BLAS
threads inside a pool worker.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .modem import LEVEL


def ranks_ahead(j, k, gains=None):
    """Whether user j is decoded before user k in their group's SIC order.

    Without ``gains`` the order is by distance: j < k, the nearer user
    first. With ``gains`` of shape (K,) or (K, S), the instantaneous
    channel gains gamma |h|^2, the order is by decreasing gain, block by
    block, a tie going to the smaller index; the result then has the
    gains' block axis. ``j`` may be an index array, which gives one row per
    entry. The gains are taken unscaled: dividing them by sigma^2 cannot
    change the order, only add ties by rounding.
    """
    nearer = j < k
    if gains is None:
        return nearer
    gains = np.asarray(gains)
    nearer = np.reshape(nearer, np.shape(nearer) + (1,) * (gains.ndim - 1))
    gain_j, gain_k = gains[j], gains[k]
    return (gain_j > gain_k) | ((gain_j == gain_k) & nearer)


def decode(signal, channels, amplitudes, group_of, gains=None, genie_symbols=None) -> np.ndarray:
    """Run every receiver's SIC chain and return the bits it decides.

    ``signal`` is (K, S, 2) real: receiver k's derotated signal on block s,
    real axis then imaginary axis. It is overwritten with each receiver's
    final residual, the one its own symbols were detected from.
    ``channels`` holds each receiver's channel magnitude
    |g_k| = sqrt(gamma_k |h_k|^2), shape (K, S), or (K, 1) when it is
    constant over the frame; (K, S, 2) or (K, 1, 1) gives it per axis,
    which spares every subtraction a broadcast. ``amplitudes`` are the
    transmit amplitudes sqrt(P_j), ``group_of`` holds one group index per
    user, and ``gains`` picks the decoding order as ``ranks_ahead`` does:
    None for distance order, or the (K,), (K, 1) or (K, S) instantaneous
    gains.

    Interferers are swept in descending transmit power. Each one, j, is
    detected on every axis of every member r of its group that ranks ahead
    of it on some block, by the sign of r's running residual, and its
    reconstruction |g_r| * sqrt(P_j) * level is subtracted from that
    residual in place, on the blocks where r ranks ahead, so detection
    errors propagate exactly as in a real chain. If ``genie_symbols``
    ((K, S, 2), the transmitted levels) is given, the true levels are
    subtracted instead, which isolates each receiver's own detection from
    propagation effects.

    Returns (K, 2S) booleans, two per symbol, in-phase first: a negative
    residual decides bit 1, and an exact zero of either sign bit 0.
    """
    residual = signal
    amplitudes = np.asarray(amplitudes, dtype=float)
    count = len(amplitudes)
    group_of = np.asarray(group_of)
    if residual.shape[:1] + residual.shape[2:] != (count, 2) or group_of.shape != (count,):
        raise ValidationError(
            f"signal {residual.shape} and groups {group_of.shape} do not match {count} users"
        )
    channels = np.asarray(channels)
    if channels.ndim == 2:
        channels = channels[:, :, np.newaxis]  # one |g| for both axes
    groups = group_of.tolist()
    members = {group: [k for k in range(count) if groups[k] == group] for group in set(groups)}
    reconstruction = np.empty(channels.shape[1:])
    subtrahend = np.empty(residual.shape[1:])
    for j in np.argsort(-amplitudes, kind="stable").tolist():
        rows = members[groups[j]]
        # each row that cancels j, and the blocks on which it does
        if gains is None:
            plan = [(r, True) for r in rows if ranks_ahead(r, j)]
        else:
            ahead = ranks_ahead(np.array(rows), j, gains).reshape(len(rows), -1)
            plan = [(r, blocks) for r, blocks in zip(rows, ahead) if blocks.any()]
        for r, blocks in plan:
            if blocks is not True:  # every block, or a mask repeated per axis
                blocks = blocks.all() or np.repeat(blocks, 2).reshape(subtrahend.shape)
            row = residual[r]
            np.multiply(channels[r], amplitudes[j], out=reconstruction)
            if genie_symbols is None:
                np.multiply(reconstruction, LEVEL, out=reconstruction)
                # the estimate's sign is the residual's, where -0.0 counts
                # as +0.0: an exact zero decides the positive level
                np.add(row, 0.0, out=subtrahend)
                np.copysign(reconstruction, subtrahend, out=subtrahend)
            else:
                np.multiply(reconstruction, genie_symbols[j], out=subtrahend)
            np.subtract(row, subtrahend, out=row, where=blocks)
    return (residual < 0).reshape(count, -1)
