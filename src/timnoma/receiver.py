"""Successive interference cancellation on the derotated real baseband.

Projection onto the group's precoding vector cancels every other group's
contribution exactly and leaves white noise of unchanged variance, so a
receiver k sees g_k * sum_{j in its group} sqrt(P_j) s_j + z_k. Derotating
by conj(g_k)/|g_k| turns this, on each real axis, into

    r = |g_k| * sum_j sqrt(P_j) x_j + w,   w ~ N(0, sigma^2 / 2),

with x_j = (1 - 2 b) LEVEL on that axis and LEVEL = 1/sqrt(2): the QPSK is
Gray-mapped with unit energy, a symbol's first bit b setting the in-phase
sign and its second the quadrature sign (0 -> +, 1 -> -). Maximum
likelihood with a scalar channel is a sign test per axis, so everything
here is real and per axis. A positive scale changes no sign, so the
receiver works on the equalised row r / |g_k|: the plain levels
sum_j sqrt(P_j) x_j plus noise of variance sigma^2 / (2 |g_k|^2), and
nothing here reads the channel.

The receiver detects and subtracts the same-group signals that rank after
it in the decoding order, iterating in descending transmit power (the
strongest uncancelled signal is always detected first), then detects its
own symbol. Same-group signals ranked before the receiver are absorbed as
noise.

``decode`` runs this chain for one receiver, on its own row, in place.
The decoding order is one pairwise rule, ``ranks_ahead``, by distance or
block by block by instantaneous gain, so both orders share one kernel; a
single-user run is a cell of one-user groups, where nobody ranks ahead of
anybody. The rule is the only statement of the order, and the rate
tables read it and the same ``Cell`` too.

Nothing here calls BLAS: every operation is elementwise on one row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .topology import Cell

LEVEL = 1.0 / np.sqrt(2.0)


def ranks_ahead(j, k, gains=None):
    """Whether user j is decoded before user k in their group's SIC order.

    Without ``gains`` the order is by distance: j < k, the nearer user
    first. With ``gains`` of shape (K,) or (K, S), the instantaneous
    channel gains gamma |h|^2, the order is by decreasing gain, block by
    block, a tie going to the nearer user (>= when j < k, > otherwise);
    the result then has the gains' block axis. The gains are taken
    unscaled: dividing them by sigma^2 cannot change the order, only add
    ties by rounding.
    """
    nearer = j < k
    if gains is None:
        return nearer
    gains = np.asarray(gains)
    return gains[j] >= gains[k] if nearer else gains[j] > gains[k]


def decode(row, cell: Cell, k, gains=None) -> np.ndarray:
    """Run receiver k's SIC chain and return the bits it decides.

    ``row`` is k's equalised signal, (S, 2) real: its derotated signal
    divided by its channel magnitude |g_k| = sqrt(gamma_k |h_k|^2), block s
    on the real axis, then on the imaginary axis. That leaves its group's
    superposed levels sum_j sqrt(P_j) x_j plus noise. It is overwritten
    with k's final residual, the one its own symbols were detected from.
    ``cell`` gives every user's transmit power P_j and group, and ``gains``
    picks the decoding order as ``ranks_ahead`` does: None for distance
    order, or the (K,), (K, 1) or (K, S) instantaneous gains.

    The rest of k's group is swept in descending transmit amplitude
    sqrt(P_j), a tie going to the smaller index. Each member j that k
    ranks ahead of on some block is detected on every axis by the sign of
    the running residual, and its level sqrt(P_j) * LEVEL is subtracted
    from the residual in place, on the blocks where k ranks ahead, so
    detection errors propagate exactly as in a real chain.

    Returns k's 2S booleans, two per symbol, in-phase first: a negative
    residual decides bit 1, and an exact zero of either sign bit 0.
    """
    group_of = cell.group_of
    count = len(group_of)
    if row.shape[1:] != (2,) or k not in range(count):
        raise ValidationError(
            f"signal {row.shape} and receiver {k!r} do not match one (S, 2) row of {count} users"
        )
    # sqrt rounds correctly, as numpy's does; sorted is stable, so a tie in
    # amplitude goes to the smaller index
    amplitudes = [math.sqrt(p) for p in cell.powers]
    sweep = sorted(
        (j for j in range(count) if group_of[j] == group_of[k] and j != k), key=lambda j: -amplitudes[j]
    )
    estimate = np.empty(row.shape)
    for j in sweep:
        blocks = ranks_ahead(k, j, gains)  # a bool, or one per block
        if gains is not None:  # every block, none, or the mask on both axes
            blocks = bool(blocks.all()) or (
                bool(blocks.any()) and np.repeat(blocks, 2).reshape(row.shape)
            )
        if blocks is False:
            continue  # j is absorbed as noise on every block
        # the estimate's sign is the residual's, where -0.0 counts as +0.0:
        # an exact zero decides the positive level
        np.add(row, 0.0, out=estimate)
        np.copysign(amplitudes[j] * LEVEL, estimate, out=estimate)
        np.subtract(row, estimate, out=row, where=blocks)
    return (row < 0).reshape(-1)
