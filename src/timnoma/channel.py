"""Rayleigh block fading and the complex AWGN model.

Each user's channel over one coherence block of T slots is a single complex
scalar h with unit variance, so the T x T channel matrix is sqrt(gamma)*h
times the identity. Noise variance is the total per complex sample
(sigma^2/2 per real dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class NoiseModel:
    """Complex AWGN with total variance E|z|^2 = variance per sample."""

    variance: float

    def __post_init__(self) -> None:
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValidationError("noise variance must be a positive finite number")


def draw_fading(rng: np.random.Generator, user_count: int, blocks: int | None = None) -> np.ndarray:
    """Draw i.i.d. unit-variance circularly-symmetric complex coefficients.

    Returns shape (user_count,) for a single coherence block, or
    (user_count, blocks) for a run of consecutive blocks. Deterministic
    given the generator state: real parts are drawn first, then imaginary.
    """
    if user_count < 1:
        raise ValidationError("user_count must be at least 1")
    shape = (user_count,) if blocks is None else (user_count, int(blocks))
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * _SQRT_HALF


def draw_fading_power(rng: np.random.Generator, user_count: int, blocks: int) -> np.ndarray:
    """Draw i.i.d. Rayleigh power gains |h|^2, shape (user_count, blocks).

    ``draw_fading`` gives h = (X + jY)/sqrt(2) with X, Y ~ N(0, 1)
    independent, so |h|^2 = (X^2 + Y^2)/2. X^2 + Y^2 is chi-squared with two
    degrees of freedom, which is exponential with mean 2, so |h|^2 ~ Exp(1)
    in distribution. One ``standard_exponential`` call draws all samples in
    C order: user by user, each user's blocks in a row. Consumers that read
    only |h|^2 (the rate formulas) need neither the phase nor a complex
    array; detection still needs ``draw_fading``.
    """
    if user_count < 1:
        raise ValidationError("user_count must be at least 1")
    return rng.standard_exponential((user_count, int(blocks)))
