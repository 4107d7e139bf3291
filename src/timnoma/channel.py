"""Rayleigh block fading and the AWGN model.

Each user's channel over one coherence block of T slots is a single complex
scalar h with unit variance, so the T x T channel matrix is sqrt(gamma)*h
times the identity. Noise variance is the total per complex sample
(sigma^2/2 per real dimension).

Nothing downstream needs the phase of h. The rate formulas read |h|^2, and
a receiver that derotates its projected signal by conj(h)/|h| sees
|g| = sqrt(gamma |h|^2) on each real axis, with circularly symmetric noise
still N(0, sigma^2/2) per axis. So only the power gain is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class NoiseModel:
    """Complex AWGN with total variance E|z|^2 = variance per sample."""

    variance: float

    def __post_init__(self) -> None:
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValidationError("noise variance must be a positive finite number")


def draw_fading_power(rng: np.random.Generator, user_count: int, blocks: int) -> np.ndarray:
    """Draw i.i.d. Rayleigh power gains |h|^2, shape (user_count, blocks).

    A unit-variance circularly symmetric h is (X + jY)/sqrt(2) with X, Y ~
    N(0, 1) independent, so |h|^2 = (X^2 + Y^2)/2. X^2 + Y^2 is chi-squared
    with two degrees of freedom, which is exponential with mean 2, so
    |h|^2 ~ Exp(1) in distribution. One ``standard_exponential`` call draws
    all samples in C order: user by user, each user's blocks in a row.
    """
    if user_count < 1:
        raise ValidationError("user_count must be at least 1")
    return rng.standard_exponential((user_count, int(blocks)))
