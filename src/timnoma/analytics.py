"""Closed-form performance: per-user achievable rates.

Rates are in bits per time slot, log base 2, with the 1/T prefactor that
accounts for each user receiving one symbol per T-slot block. A user's
denominator collects the same-group signals ranked ahead of it by
``receiver.ranks_ahead``, the decoding order (the ones it cannot cancel),
plus the noise variance sigma^2, a plain float; projection removed every
other group exactly, so no inter-group term ever appears.

The rate formula is one (N, K) table over N fading realizations; the rates
of one realization are the N = 1 table. It reads one ``Cell``: its path
gains scale |h|^2, its powers and groups set each SINR, and its ``slots``
are the T of the prefactor. The single-user rates and the TDMA baseline
are the same table on a cell of lone users at full power. The logarithm
of 1 + SINR is taken without forming 1 + SINR, which keeps an SINR below
one ulp of 1 from rounding to a zero rate at very low SNR.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .receiver import ranks_ahead
from .topology import ORDER_MODES, Cell


def hybrid_rate_table(
    cell: Cell,
    fading_power: np.ndarray,
    noise_variance: float,
    order_mode: str = "distance",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized per-user hybrid rates for a batch of fading realizations.

    ``fading_power`` is the real (N, K) array of |h|^2; returns (N, K)
    rates. Entry (n, k) is user k's log2(1 + SINR) / T in realization n, the
    numerator being P_k gamma_k |h_k|^2 and the denominator the powers of
    its uncancelled same-group users times the same gain, plus
    ``noise_variance`` sigma^2, a positive finite float; the powers, path
    gains gamma, groups and T all come from ``cell``. On a cell of lone
    users at full power these are the single-user rates, and a row's mean
    is the TDMA sum rate. The decoding order is ``ranks_ahead``'s: by
    distance, or by gamma |h|^2 in each realization. Any other shape than
    (N, K) is refused, where numpy would broadcast it silently.

    The rates go, as in numpy's ufuncs, into ``out`` when it is given, a
    float64 array of ``fading_power``'s shape, which is returned;
    otherwise into a fresh array. ``out`` may be ``fading_power`` itself,
    whose gains the table then replaces; any other ``out`` that shares
    memory with it, such as a reversed or offset view, is refused. The one
    (N, K) buffer goes from channel gains to rates in place, column by
    column, so an ``out`` that is the fading gives the bytes of a fresh
    table: under distance order column k reads only itself, and under
    instantaneous order the (K, N) absorbed powers are built from the
    gains before any column becomes a rate, since the order reads every
    gain. Each user adds one (N,) interference temporary, its absorbed
    powers times its gain plus sigma^2, which is sigma^2 exactly for a
    user who absorbs nobody, the gains being finite. No BLAS call runs.
    """
    if order_mode not in ORDER_MODES:
        raise ValidationError(f"unknown order mode {order_mode!r}")
    if not (noise_variance > 0 and math.isfinite(noise_variance)):
        raise ValidationError("noise variance must be a positive finite number")
    if np.iscomplexobj(fading_power):
        raise ValidationError("fading_power must be the real |h|^2, not complex fading")
    group_of, p = cell.group_of, cell.powers
    if np.ndim(fading_power) != 2 or np.shape(fading_power)[1] != len(group_of):
        raise ValidationError(f"fading_power is {np.shape(fading_power)}, not (N, {len(group_of)})")
    if out is not None:
        if not (isinstance(out, np.ndarray) and out.dtype == np.float64
                and out.shape == np.shape(fading_power)):
            raise ValidationError(
                f"out is {getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}, "
                f"not float64 {np.shape(fading_power)}"
            )
        if out is not fading_power and np.shares_memory(out, fading_power):
            raise ValidationError("out must be fading_power itself or not share memory with it")
    out = np.multiply(fading_power, cell.path_gains, out=out)  # gamma_k |h_k|^2
    gains = None if order_mode == "distance" else out.T
    # P_j of each j ranked ahead of k, added in ascending j: np.sum adds pairwise
    absorbed = [0.0] * len(group_of) if gains is None else np.zeros_like(gains)
    for k, group in enumerate(group_of):
        for j, other in enumerate(group_of):
            if other == group and j != k:
                absorbed[k] += p[j] * ranks_ahead(j, k, gains)
    for k, power in enumerate(p):
        column = out[:, k]
        interference = column * absorbed[k]
        interference += noise_variance
        column *= power
        column /= interference  # SINR
    np.log1p(out, out=out)
    out *= 1.0 / (cell.slots * math.log(2.0))
    return out
