"""Cell geometry, path loss, user grouping and transmit power allocation.

User indices are 0-based throughout: user 0 is the nearest to the
basestation and user K-1 sits at the cell edge. Distances are required to
be strictly increasing so that user index, average channel strength and
allocated power stay consistently ordered everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Topology:
    """Static cell geometry: distances in km, radius in km, grouping degree."""

    distances: tuple[float, ...]
    cell_radius: float
    path_loss_exponent: float
    group_count: int

    @property
    def user_count(self) -> int:
        return len(self.distances)


@dataclass(frozen=True)
class GroupAssignment:
    """Mapping user -> group, groups numbered from 0."""

    group_of: tuple[int, ...]

    @property
    def group_count(self) -> int:
        return max(self.group_of) + 1


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user transmit powers in watts. Strictly increasing in user index."""

    per_user: tuple[float, ...]


def build_topology(
    distances,
    cell_radius: float,
    path_loss_exponent: float,
    group_count: int,
) -> Topology:
    """Validate the cell parameters and return an immutable Topology.

    Raises ValidationError with a distinct message per violated rule.
    """
    distances = tuple(float(d) for d in distances)
    if not distances:
        raise ValidationError("distances must not be empty")
    if not (cell_radius > 0 and math.isfinite(cell_radius)):
        raise ValidationError("cell_radius must be a positive finite number")
    if not (path_loss_exponent > 0 and math.isfinite(path_loss_exponent)):
        raise ValidationError("path_loss_exponent must be a positive finite number")
    if any(not (d > 0 and math.isfinite(d)) for d in distances):
        raise ValidationError("distances must be positive finite numbers")
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValidationError(
            "distances must be strictly increasing (nearest user first, no ties)"
        )
    if distances[-1] > cell_radius:
        raise ValidationError("distances must not exceed the cell radius")
    if not (1 <= int(group_count) <= len(distances)):
        raise ValidationError(
            "group_count must be between 1 and the number of users"
        )
    topology = Topology(distances, float(cell_radius), float(path_loss_exponent), int(group_count))
    try:
        gains = path_loss(topology)
        finite = bool(np.all((gains > 0) & (gains < math.inf)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ValidationError("path loss 1/d^n must be a positive finite number for every user")
    return topology


def path_loss(topology: Topology) -> np.ndarray:
    """Linear path-loss gains 1 / d^n of every user, shape (K,)."""
    # each gain in Python floats: numpy's pow may round differently
    return np.array([1.0 / d**topology.path_loss_exponent for d in topology.distances])


def assign_groups(topology: Topology) -> GroupAssignment:
    """Assign users to groups round-robin over the distance order.

    User with distance rank r (0-based) joins group r mod T. Consecutive
    users in distance order therefore always land in distinct groups, and
    same-group members are separated by T-1 users from the other groups.
    """
    groups = topology.group_count
    return GroupAssignment(tuple(k % groups for k in range(topology.user_count)))


def allocate_power(topology: Topology, total_power: float) -> PowerAllocation:
    """Split the power budget proportionally to squared distance.

    P_k = total * d_k^2 / sum_j d_j^2, so farther users get more power and
    the shares sum back to the budget exactly.
    """
    if not (total_power > 0 and math.isfinite(total_power)):
        raise ValidationError("total_power must be a positive finite number")
    squared = [d * d for d in topology.distances]
    denom = sum(squared)
    per_user = tuple(total_power * s / denom for s in squared)
    return PowerAllocation(per_user)
