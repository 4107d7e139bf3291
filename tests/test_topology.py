import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timnoma import ValidationError, build_cell

from helpers import REFERENCE_DISTANCES, members


def distances_strategy(max_users=12):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=max_users)
        .map(lambda steps: tuple(round(sum(steps[: i + 1]), 9) for i in range(len(steps))))
        .filter(lambda d: all(b > a for a, b in zip(d, d[1:])))
    )


class TestBuildTopology:
    def test_reference_cell(self):
        cell = build_cell([0.5, 1.5, 2.5, 3.5, 4.5], 3, 2, 40.0)
        assert cell.user_count == 5
        assert cell.slots == 2

    def test_single_user_cell(self):
        cell = build_cell([1.0], 3, 1, 40.0)
        assert cell.user_count == 1
        assert cell.slots == 1

    def test_box_edges_are_accepted_and_just_beyond_refused(self):
        edges = build_cell([0.001, 1000.0], 10, 1, 40.0)
        assert edges.path_gains == pytest.approx((1e30, 1e-30), rel=1e-15)
        assert build_cell([1.0 + k for k in range(16)], 3, 16, 40.0).user_count == 16
        for distances, exponent, fragment in [
            ([0.000999, 1.0], 3, "distances must be from 0.001 to 1000 km"),
            ([1.0, 1000.001], 3, "distances must be from 0.001 to 1000 km"),
            ([1.0, math.nan], 3, "distances must be from 0.001 to 1000 km"),
            ([1.0, 2.0], 10.000001, "path_loss_exponent must be at most 10"),
            ([1.0 + k for k in range(17)], 3, "distances must list at most 16 users"),
        ]:
            with pytest.raises(ValidationError, match=fragment):
                build_cell(distances, exponent, 1, 40.0)

    @pytest.mark.parametrize(
        "distances,power,exponent,groups,fragment",
        [
            ([2.0, 1.0], 5.0, 3, 1, "strictly increasing"),
            ([1.0, 1.0], 5.0, 3, 1, "strictly increasing"),
            ([], 5.0, 3, 1, "empty"),
            ([-1.0, 2.0], 5.0, 3, 1, "distances"),
            ([0.0, 2.0], 5.0, 3, 1, "distances"),
            ([1.0, 2.0], True, 3, 1, "total_power"),  # a bool is no power
            ([1.0, 2.0], 5.0, 3, 0, "group_count"),
            ([1.0, 2.0], 5.0, 3, 3, "group_count"),
            ([1.0, 2.0], math.inf, 3, 1, "total_power"),
            ([1.0, 2.0], 5.0, 0.0, 1, "path_loss_exponent"),
            ([1.0, 4.5], 5.0, 1000.0, 1, "path_loss_exponent"),
            ([1e-200, 1.0], 5.0, 3, 1, "distances"),
            pytest.param([1.0, 2.0], 10**400, 3, 1, "total_power", id="int-beyond-float-range"),
        ],
    )
    def test_rejects_invalid_parameters(self, distances, power, exponent, groups, fragment):
        with pytest.raises(ValidationError, match=fragment):
            build_cell(distances, exponent, groups, power)


class TestPathLoss:
    def test_unit_distance(self):
        cell = build_cell([1.0], 3, 1, 40.0)
        assert list(cell.path_gains) == [1.0]

    def test_half_kilometre(self, ref_cell):
        assert ref_cell.path_gains[0] == pytest.approx(1.0 / 0.125, rel=1e-15)

    def test_cell_edge(self, ref_cell):
        assert ref_cell.path_gains[4] == pytest.approx(1.0 / 91.125, rel=1e-15)

    def test_strictly_decreasing_in_distance(self, ref_cell):
        losses = ref_cell.path_gains
        assert len(losses) == 5
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestAssignGroups:
    def test_reference_split(self, ref_cell):
        assert members(ref_cell.group_of) == ((0, 2, 4), (1, 3))
        assert ref_cell.group_of == (0, 1, 0, 1, 0)
        assert ref_cell.slots == 2

    def test_single_group(self):
        cell = build_cell([1.0, 2.0, 3.0, 4.0], 3, 1, 40.0)
        assert members(cell.group_of) == ((0, 1, 2, 3),)

    def test_three_groups_of_six(self):
        cell = build_cell([1.0, 1.5, 2.0, 2.5, 3.0, 3.5], 3, 3, 40.0)
        assert members(cell.group_of) == ((0, 3), (1, 4), (2, 5))

    @given(user_count=st.integers(1, 12), group_count=st.integers(1, 12))
    @settings(max_examples=60)
    def test_partition_and_interleaving(self, user_count, group_count):
        group_count = min(group_count, user_count)
        cell = build_cell([1.0 + 0.25 * k for k in range(user_count)], 3, group_count, 40.0)
        assert cell.slots == group_count
        seen = sorted(u for member_list in members(cell.group_of) for u in member_list)
        assert seen == list(range(user_count))
        for member_list in members(cell.group_of):
            assert list(member_list) == sorted(member_list)
            # consecutive same-group users are T-1 apart in distance order
            assert all(b - a == group_count for a, b in zip(member_list, member_list[1:]))


class TestAllocatePower:
    def test_reference_allocation(self, ref_cell):
        squared = [d * d for d in REFERENCE_DISTANCES]
        expected = [40.0 * s / sum(squared) for s in squared]
        for got, want in zip(ref_cell.powers, expected):
            assert got == pytest.approx(want, rel=1e-15)

    def test_single_user_gets_everything(self):
        assert build_cell([2.5], 3, 1, 40.0).powers == (40.0,)

    def test_rejects_non_positive_power(self):
        with pytest.raises(ValidationError, match="total_power"):
            build_cell(REFERENCE_DISTANCES, 3, 2, 0.0)
        with pytest.raises(ValidationError, match="total_power"):
            build_cell(REFERENCE_DISTANCES, 3, 2, -3.0)

    @given(distances=distances_strategy(), total=st.floats(0.1, 1e4))
    @settings(max_examples=80)
    def test_conservation_and_ordering(self, distances, total):
        powers = build_cell(distances, 3, 1, total).powers
        assert sum(powers) == pytest.approx(total, rel=1e-12)
        assert all(b > a for a, b in zip(powers, powers[1:]))
        # shares scale with squared distance
        for k, power in enumerate(powers):
            share = distances[k] ** 2 / sum(d * d for d in distances)
            assert power == pytest.approx(total * share, rel=1e-12)
