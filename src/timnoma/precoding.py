"""Orthonormal group precoding vectors and the transmit mixing matrix.

Every group t gets a real T-dimensional unit vector v_t, pairwise orthogonal
to the other groups' vectors. The transmitted T-vector for one block
superimposes all users: x = sum_k sqrt(P_k) * v_{t(k)} * s_k, so receivers
can strip other groups' contributions exactly by projecting onto their own
group's vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .topology import GroupAssignment, PowerAllocation

_ROTATION_ANGLE = math.pi / 3.0


@dataclass(frozen=True)
class PrecodingBasis:
    """Rows of ``vectors`` are the per-group unit vectors, shape (T, T)."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors.setflags(write=False)

    @property
    def group_count(self) -> int:
        return self.vectors.shape[0]


def make_basis(group_count: int) -> PrecodingBasis:
    """Build a deterministic orthonormal basis with no zero entries.

    The basis is the column set of the rotation composed from a pi/3 Givens
    rotation over every coordinate pair (i, j), i < j, in lexicographic
    order. For T=2 this is the plane rotation by pi/3, giving
    v_1 = [1/2, sqrt(3)/2] and v_2 = [-sqrt(3)/2, 1/2]. Zero-free entries
    keep every group present in every slot, so no slot degenerates into
    per-group time sharing.
    """
    if group_count < 1:
        raise ValidationError("group_count must be at least 1")
    size = int(group_count)
    rotation = np.eye(size)
    cos, sin = math.cos(_ROTATION_ANGLE), math.sin(_ROTATION_ANGLE)
    for i in range(size - 1):
        for j in range(i + 1, size):
            # rotation @ givens touches only columns i and j; updating them
            # elementwise keeps the bits independent of the BLAS build
            left, right = rotation[:, i].copy(), rotation[:, j].copy()
            rotation[:, i] = cos * left + sin * right
            rotation[:, j] = cos * right - sin * left
    # column t of the rotation is group t's vector; store vectors as rows
    return PrecodingBasis(rotation.T.copy())


def mixing_matrix(power: PowerAllocation, groups: GroupAssignment, basis: PrecodingBasis) -> np.ndarray:
    """(T, K) matrix whose column k is sqrt(P_k) * v_{t(k)}.

    The transmit vector for a block of symbols s (shape (K,) or (K, S)) is
    simply ``mixing_matrix(...) @ s``.
    """
    columns = basis.vectors[list(groups.group_of)].T  # (T, K)
    return columns * np.sqrt(np.asarray(power.per_user))
