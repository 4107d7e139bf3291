"""Closed-form performance: per-user achievable rates, baselines, DoF.

Rates are in bits per time slot, log base 2, with the 1/T prefactor that
accounts for each user receiving one symbol per T-slot block. A user's
denominator collects the same-group signals ranked before it in the
decoding order of ``receiver.cancel_mask`` (the ones it cannot cancel)
plus noise; projection removed every other group exactly, so no
inter-group term ever appears.

Both rate formulas are (N, K) tables over N fading realizations; the rates
of one realization are the N = 1 table. Each takes the rate as
log1p(SINR) / (T ln 2), which keeps an SINR below one ulp of 1 from
rounding to a zero rate at very low SNR.
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


def dof_total(user_count: int, group_count: int) -> Fraction:
    """Total degrees of freedom: K/T, exact."""
    if user_count < 1:
        raise ValidationError("user_count must be at least 1")
    if not 1 <= group_count <= user_count:
        raise ValidationError("group_count must be between 1 and user_count")
    return Fraction(user_count, group_count)


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
    rates. Entry (n, k) is user k's log2(1 + SINR) / T in realization n, the
    numerator being P_k gamma_k |h_k|^2 and the denominator the powers of
    its uncancelled same-group users times the same gain, plus noise. The
    decoding order is ``cancel_mask``'s: by distance, or by gamma |h|^2 in
    each realization. One new (N, K) buffer goes from channel gains to
    rates in place, beside one interference array, the (K, K, N) mask and
    its power-weighted copy; the caller's array is never written. Every
    sum over users is a broadcast sum, so no BLAS call runs.
    """
    if order_mode not in ORDER_MODES:
        raise ValidationError(f"unknown order mode {order_mode!r}")
    p = np.asarray(power.per_user)
    out = _channel_gains(topology, fading_power)
    cancel = cancel_mask(groups) if order_mode == "distance" else cancel_mask(groups, out.T)
    # user k cannot cancel user j exactly when receiver j cancels k, so
    # k's interference is sum_j cancel[j, k] * P_j times its own gain
    interference = out * np.sum(cancel * p[:, np.newaxis, np.newaxis], axis=0).T
    interference += noise.variance
    out *= p
    out /= interference  # SINR
    np.log1p(out, out=out)
    out *= 1.0 / (topology.group_count * math.log(2.0))
    return out


def single_user_rate_table(
    topology: Topology,
    fading_power: np.ndarray,
    noise: NoiseModel,
    total_power: float,
) -> np.ndarray:
    """Vectorized single-user-active rates from the real (N, K) array of
    |h|^2, computed in one new (N, K) buffer.

    Each user's rate is the one it gets alone at full power, keeping the
    1/T prefactor. The TDMA baseline gives every user an equal 1/K time
    share at full power, so its sum rate is the mean of a row.
    """
    out = _channel_gains(topology, fading_power)
    out *= total_power
    out /= noise.variance
    np.log1p(out, out=out)
    out *= 1.0 / (topology.group_count * math.log(2.0))
    return out
