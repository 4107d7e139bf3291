"""The cell: each user's path gain, transmit power and group.

User indices are 0-based throughout: user 0 is the nearest to the
basestation and user K-1 sits at the cell edge. Distances are required to
be strictly increasing so that user index, average channel strength and
allocated power stay consistently ordered everywhere downstream.

``build_cell`` is the one place the cell parameters are checked. Distances
enter only through the path gains 1/d^n and the power shares d^2/sum d^2,
so the ``Cell`` it returns keeps those and not the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# a physical cell: every path gain 1/d^n lies in [1e-30, 1e30], and a
# 2**20-bit frame of 16 users in one group peaks near 206 MB
_MAX_USERS = 16
_NEAREST_KM, _FARTHEST_KM = 1e-3, 1e3
_MAX_EXPONENT = 10.0

# the SIC decoding orders: by distance, or by instantaneous gain
ORDER_MODES = ("distance", "instantaneous")


def _is_int(value) -> bool:
    # bool subclasses int, but True is no group or frame count
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Cell:
    """Per-user path gains gamma_k = 1/d_k^n, transmit powers P_k in watts
    and groups numbered from 0, and ``slots``: T, the slots of a block, in
    which each user sends one symbol. ``build_cell`` makes T the group
    count and the powers increasing; a regrouped cell keeps its T, and its
    powers need not increase. Made or replaced, a cell checks its shape."""

    path_gains: tuple[float, ...]
    powers: tuple[float, ...]
    group_of: tuple[int, ...]
    slots: int

    def __post_init__(self) -> None:
        if not (len(self.path_gains) == len(self.powers) == len(self.group_of) > 0):
            raise ValidationError("a cell needs a user, and one path gain, power and group per user")
        if not (_is_int(self.slots) and self.slots >= 1):
            raise ValidationError(f"slots must be a positive integer, not {self.slots!r}")

    @property
    def user_count(self) -> int:
        return len(self.group_of)


def _require_positive_finite(name: str, value) -> float:
    try:
        valid = (_is_int(value) or isinstance(value, float)) and 0 < float(value) < math.inf
    except OverflowError:  # an int beyond the float range
        valid = False
    if not valid:
        raise ValidationError(f"{name} must be a positive finite number")
    return float(value)


def build_cell(distances, path_loss_exponent, group_count, total_power) -> Cell:
    """Validate the cell parameters and return its immutable ``Cell``.

    Raises ValidationError naming the first violated rule. Users join groups
    round-robin over the distance order: user k joins group k mod T, so
    consecutive users always land in distinct groups. The power budget is
    split proportionally to squared distance, P_k = total * d_k^2 / sum_j
    d_j^2, so farther users get more power and the shares sum back to the
    budget.
    """
    distances = tuple(float(d) for d in distances)
    if not distances:
        raise ValidationError("distances must not be empty")
    if len(distances) > _MAX_USERS:
        raise ValidationError(f"distances must list at most {_MAX_USERS} users")
    exponent = _require_positive_finite("path_loss_exponent", path_loss_exponent)
    if exponent > _MAX_EXPONENT:
        raise ValidationError(f"path_loss_exponent must be at most {_MAX_EXPONENT:g}")
    if any(not _NEAREST_KM <= d <= _FARTHEST_KM for d in distances):  # NaN included
        raise ValidationError(f"distances must be from {_NEAREST_KM:g} to {_FARTHEST_KM:g} km")
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValidationError(
            "distances must be strictly increasing (nearest user first, no ties)"
        )
    if not _is_int(group_count):
        raise ValidationError("group_count must be an integer")
    if not 1 <= group_count <= len(distances):
        raise ValidationError(
            "group_count must be between 1 and the number of users"
        )
    total_power = _require_positive_finite("total_power", total_power)
    # each gain in Python floats: numpy's pow may round differently
    path_gains = tuple(1.0 / d**exponent for d in distances)
    squared = [d * d for d in distances]
    denom = sum(squared)
    powers = tuple(total_power * s / denom for s in squared)
    group_of = tuple(k % group_count for k in range(len(distances)))
    return Cell(path_gains, powers, group_of, group_count)
