"""Gray-mapped QPSK with unit symbol energy, as real per-axis levels.

A bit pair maps to one level on each real axis: the first bit sets the sign
of the in-phase level, the second the sign of the quadrature level (0 -> +,
1 -> -), each of magnitude LEVEL = 1/sqrt(2). A bit b's level is therefore
(1 - 2 b) LEVEL. The BER frame adds each user's signed amplitude
(1 - 2 b) sqrt(P) LEVEL straight into the receivers' signals, and the
derotated receiver of ``receiver`` detects and reconstructs levels by their
sign, so no complex symbol and no level array is built.
"""

from __future__ import annotations

import numpy as np

LEVEL = 1.0 / np.sqrt(2.0)
