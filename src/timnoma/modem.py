"""Gray-mapped QPSK with unit symbol energy.

Bit pairs map to quadrants: the first bit sets the sign of the real part,
the second the sign of the imaginary part (0 -> +). CONSTELLATION is indexed
by the bit pair read as an integer, so index order is 00, 01, 10, 11; this
order is also the tie-break order for detection.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

BITS_PER_SYMBOL = 2

_AMP = 1.0 / np.sqrt(2.0)
CONSTELLATION = np.array(
    [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128
) * _AMP


def qpsk_modulate(bits) -> np.ndarray:
    """Map a flat sequence of bits (even length) to QPSK symbols.

    Accepts any array-like of 0/1 whose last axis has even length; returns
    a complex array with the last axis halved. Bits are consumed in order,
    two per symbol.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValidationError("bit count must be even (two bits per symbol)")
    pairs = bits.reshape(bits.shape[:-1] + (-1, 2))
    return ((1 - 2 * pairs[..., 0]) + 1j * (1 - 2 * pairs[..., 1])) * _AMP
