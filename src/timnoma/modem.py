"""Gray-mapped QPSK with unit symbol energy, as real per-axis levels.

A bit pair maps to one level on each real axis: the first bit sets the sign
of the in-phase level, the second the sign of the quadrature level (0 -> +,
1 -> -), each of magnitude LEVEL = 1/sqrt(2). The derotated receiver of
``receiver`` works on these levels directly, so no complex symbol is built.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

LEVEL = 1.0 / np.sqrt(2.0)
_LEVELS = np.array([LEVEL, -LEVEL])  # indexed by bit


def qpsk_levels(bits) -> np.ndarray:
    """Map bits to per-axis QPSK levels, two bits per symbol.

    Accepts any integer or boolean array-like of 0/1, signed or unsigned,
    whose last axis has even length; returns float64 of shape (..., S, 2),
    the last axis holding the in-phase then the quadrature level of each
    symbol. Bits are consumed in order.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValidationError("bit count must be even (two bits per symbol)")
    pairs = bits.reshape(bits.shape[:-1] + (-1, 2))
    # a lookup, not 1 - 2 * bits, which wraps around for unsigned bits
    return np.take(_LEVELS, pairs)
