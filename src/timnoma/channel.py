"""Rayleigh block fading.

Each user's channel over one coherence block of T slots is a single complex
scalar h with unit variance, so the T x T channel matrix is sqrt(gamma)*h
times the identity. The AWGN is one number, sigma^2, the total variance
per complex sample (sigma^2/2 per real dimension), which the harness
derives from the SNR and passes on as a float.

Nothing downstream needs the phase of h. The rate formulas read |h|^2, and
a receiver that derotates its projected signal by conj(h)/|h| sees
|g| = sqrt(gamma |h|^2) on each real axis, with circularly symmetric noise
still N(0, sigma^2/2) per axis. So only the power gain is drawn.
"""

from __future__ import annotations

import numpy as np


def draw_fading_power(rng: np.random.Generator, user_count: int, blocks: int) -> np.ndarray:
    """Draw i.i.d. Rayleigh power gains |h|^2, shape (user_count, blocks).

    A unit-variance circularly symmetric h is (X + jY)/sqrt(2) with X, Y ~
    N(0, 1) independent, so |h|^2 = (X^2 + Y^2)/2. X^2 + Y^2 is chi-squared
    with two degrees of freedom, which is exponential with mean 2, so
    |h|^2 ~ Exp(1) in distribution. One ``standard_exponential`` call draws
    all samples in C order: user by user, each user's blocks in a row.
    """
    return rng.standard_exponential((user_count, int(blocks)))
