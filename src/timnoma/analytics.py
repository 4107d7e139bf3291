"""Closed-form performance: per-user achievable rates, baselines, DoF.

Rates are in bits per time slot, log base 2, with the 1/T prefactor that
accounts for each user receiving one symbol per T-slot block. A user's
denominator collects the same-group signals ranked before it in the
decoding order (the ones it cannot cancel) plus noise; projection removed
every other group exactly, so no inter-group term ever appears.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .channel import NoiseModel
from .receiver import cancel_mask
from .topology import GroupAssignment, PowerAllocation, Topology, path_loss

ORDER_MODES = ("distance", "instantaneous")


def squared_channel_gain(topology: Topology, fading: np.ndarray, user: int) -> float:
    """Effective channel power gamma_k |h_k|^2.

    This single helper backs both the projected signal gain and the
    interference gain in the rate formula; for a scalar channel the two are
    identical by construction.
    """
    return path_loss(topology, user) * float(np.abs(fading[user]) ** 2)


def _noise_set(user, topology, fading, groups, noise, order_mode):
    """Same-group users ranked before ``user``: the ones whose receivers
    would cancel it, and which it cannot cancel itself."""
    if order_mode not in ORDER_MODES:
        raise ValidationError(f"unknown order mode {order_mode!r}")
    gains = None
    if order_mode == "instantaneous":
        gains = [
            squared_channel_gain(topology, fading, k) / noise.variance
            for k in range(topology.user_count)
        ]
    return np.flatnonzero(cancel_mask(groups, gains)[:, user, 0])


def user_rate(
    user: int,
    topology: Topology,
    fading: np.ndarray,
    power: PowerAllocation,
    groups: GroupAssignment,
    noise: NoiseModel,
    order_mode: str = "distance",
) -> float:
    """Achievable rate of one user under the hybrid scheme, bits/slot.

    Numerator: total power times the user's squared-distance share times
    the projected channel gain (which equals its allocated power times
    gamma|h|^2). Denominator: the uncancellable same-group signals scaled
    by the same channel gain, plus noise.
    """
    gain = squared_channel_gain(topology, fading, user)
    share = topology.distances[user] ** 2 / sum(d * d for d in topology.distances)
    numerator = power.total * share * gain
    uncancelled = _noise_set(user, topology, fading, groups, noise, order_mode)
    interference = gain * sum(power.per_user[j] for j in uncancelled)
    sinr = numerator / (interference + noise.variance)
    return math.log2(1.0 + sinr) / topology.group_count


def single_user_rate(
    user: int,
    topology: Topology,
    fading: np.ndarray,
    noise: NoiseModel,
    total_power: float,
) -> float:
    """Rate if only this user were active, at full transmit power."""
    gain = squared_channel_gain(topology, fading, user)
    return math.log2(1.0 + total_power * gain / noise.variance) / topology.group_count


def tdma_sum_rate(
    topology: Topology,
    fading: np.ndarray,
    noise: NoiseModel,
    total_power: float,
) -> float:
    """Baseline: each user gets an equal 1/K time share at full power.

    The per-user rate in its share is the single-user-active rate (which
    keeps the 1/T prefactor), so the baseline sum is their arithmetic mean.
    """
    count = topology.user_count
    return sum(
        single_user_rate(k, topology, fading, noise, total_power) for k in range(count)
    ) / count


def dof_total(user_count: int, group_count: int) -> Fraction:
    """Total degrees of freedom: K/T, exact."""
    if user_count < 1:
        raise ValidationError("user_count must be at least 1")
    if not 1 <= group_count <= user_count:
        raise ValidationError("group_count must be between 1 and user_count")
    return Fraction(user_count, group_count)


def rate_ratio(hybrid_sum: float, tdma_sum: float) -> float:
    """Hybrid-over-baseline sum rate ratio."""
    if not tdma_sum > 0:
        raise ValidationError("baseline sum rate must be positive")
    return hybrid_sum / tdma_sum


def _channel_gains(topology: Topology, fading_power) -> np.ndarray:
    """gamma_k |h_k|^2 for an (N, K) array of |h|^2, in a new buffer."""
    if np.iscomplexobj(fading_power):
        raise ValidationError("fading_power must be the real |h|^2, not complex fading")
    gamma = np.array([path_loss(topology, k) for k in range(topology.user_count)])
    return np.multiply(fading_power, gamma)


def hybrid_rate_table(
    topology: Topology,
    power: PowerAllocation,
    groups: GroupAssignment,
    fading_power: np.ndarray,
    noise: NoiseModel,
    order_mode: str = "distance",
) -> np.ndarray:
    """Vectorized per-user hybrid rates for a batch of fading realizations.

    ``fading_power`` is the real (N, K) array of |h|^2; returns (N, K)
    rates, matching user_rate realization by realization. One new (N, K)
    buffer goes from channel gains to rates in place, beside one
    interference array; the caller's array is never written. Every sum
    over users is a broadcast sum, so no BLAS call runs.
    """
    if order_mode not in ORDER_MODES:
        raise ValidationError(f"unknown order mode {order_mode!r}")
    count = topology.user_count
    p = np.asarray(power.per_user)
    out = _channel_gains(topology, fading_power)
    group_of = np.asarray(groups.group_of)
    same_group = (group_of[:, None] == group_of[None, :]) & ~np.eye(count, dtype=bool)
    if order_mode == "distance":
        ahead = same_group & (np.arange(count)[None, :] < np.arange(count)[:, None])
        interference = out * np.sum(ahead * p, axis=1)
    else:
        # j is decoded before k where its gain is larger; ties go to the
        # smaller index, as a stable sort by descending gain would rank them
        interference = np.zeros_like(out)
        for k in range(count):
            for j in np.flatnonzero(same_group[k]):
                ahead = out[:, j] >= out[:, k] if j < k else out[:, j] > out[:, k]
                np.add(interference[:, k], p[j], out=interference[:, k], where=ahead)
        interference *= out
    interference += noise.variance
    out *= p
    out /= interference  # SINR
    out += 1.0
    np.log2(out, out=out)
    out /= topology.group_count
    return out


def single_user_rate_table(
    topology: Topology,
    fading_power: np.ndarray,
    noise: NoiseModel,
    total_power: float,
) -> np.ndarray:
    """Vectorized single-user-active rates from the real (N, K) array of
    |h|^2, computed in one new (N, K) buffer."""
    out = _channel_gains(topology, fading_power)
    out *= total_power
    out /= noise.variance
    out += 1.0
    np.log2(out, out=out)
    out /= topology.group_count
    return out
