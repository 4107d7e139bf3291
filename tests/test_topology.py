import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timnoma import (
    ValidationError,
    allocate_power,
    assign_groups,
    build_topology,
    path_loss,
)


def distances_strategy(max_users=12):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=max_users)
        .map(lambda steps: tuple(round(sum(steps[: i + 1]), 9) for i in range(len(steps))))
        .filter(lambda d: all(b > a for a, b in zip(d, d[1:])))
    )


class TestBuildTopology:
    def test_reference_cell(self):
        topo = build_topology([0.5, 1.5, 2.5, 3.5, 4.5], 5.0, 3, 2)
        assert topo.user_count == 5
        assert topo.group_count == 2

    def test_single_user_cell(self):
        topo = build_topology([1.0], 5.0, 3, 1)
        assert topo.user_count == 1
        assert topo.group_count == 1

    @pytest.mark.parametrize(
        "distances,radius,exponent,groups,fragment",
        [
            ([2.0, 1.0], 5.0, 3, 1, "strictly increasing"),
            ([1.0, 1.0], 5.0, 3, 1, "strictly increasing"),
            ([], 5.0, 3, 1, "empty"),
            ([-1.0, 2.0], 5.0, 3, 1, "positive"),
            ([0.0, 2.0], 5.0, 3, 1, "positive"),
            ([1.0, 6.0], 5.0, 3, 1, "cell radius"),
            ([1.0, 2.0], 5.0, 3, 0, "group_count"),
            ([1.0, 2.0], 5.0, 3, 3, "group_count"),
            ([1.0, 2.0], -5.0, 3, 1, "cell_radius"),
            ([1.0, 2.0], 5.0, 0.0, 1, "path_loss_exponent"),
            ([1.0, 4.5], 5.0, 1000.0, 1, "path loss"),  # d^n overflows
            ([1e-200, 1.0], 5.0, 3, 1, "path loss"),  # d^n underflows to 0
        ],
    )
    def test_rejects_invalid_parameters(self, distances, radius, exponent, groups, fragment):
        with pytest.raises(ValidationError, match=fragment):
            build_topology(distances, radius, exponent, groups)


class TestPathLoss:
    def test_unit_distance(self):
        topo = build_topology([1.0], 5.0, 3, 1)
        assert path_loss(topo, 0) == 1.0

    def test_half_kilometre(self, ref_topology):
        assert path_loss(ref_topology, 0) == pytest.approx(1.0 / 0.125, rel=1e-15)

    def test_cell_edge(self, ref_topology):
        assert path_loss(ref_topology, 4) == pytest.approx(1.0 / 91.125, rel=1e-15)

    def test_out_of_range_user(self, ref_topology):
        with pytest.raises(IndexError):
            path_loss(ref_topology, 5)
        with pytest.raises(IndexError):
            path_loss(ref_topology, -1)

    def test_strictly_decreasing_in_distance(self, ref_topology):
        losses = [path_loss(ref_topology, k) for k in range(5)]
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestAssignGroups:
    def test_reference_split(self, ref_topology):
        groups = assign_groups(ref_topology)
        assert groups.members == ((0, 2, 4), (1, 3))
        assert groups.group_of == (0, 1, 0, 1, 0)

    def test_single_group(self):
        topo = build_topology([1.0, 2.0, 3.0, 4.0], 5.0, 3, 1)
        assert assign_groups(topo).members == ((0, 1, 2, 3),)

    def test_three_groups_of_six(self):
        topo = build_topology([1.0, 1.5, 2.0, 2.5, 3.0, 3.5], 5.0, 3, 3)
        assert assign_groups(topo).members == ((0, 3), (1, 4), (2, 5))

    @given(user_count=st.integers(1, 12), group_count=st.integers(1, 12))
    @settings(max_examples=60)
    def test_partition_and_interleaving(self, user_count, group_count):
        group_count = min(group_count, user_count)
        topo = build_topology(
            [1.0 + 0.25 * k for k in range(user_count)], 10.0, 3, group_count
        )
        groups = assign_groups(topo)
        seen = sorted(u for member_list in groups.members for u in member_list)
        assert seen == list(range(user_count))
        for member_list in groups.members:
            assert list(member_list) == sorted(member_list)
            # consecutive same-group users are T-1 apart in distance order
            assert all(b - a == group_count for a, b in zip(member_list, member_list[1:]))


class TestAllocatePower:
    def test_reference_allocation(self, ref_topology):
        alloc = allocate_power(ref_topology, 40.0)
        squared = [d * d for d in ref_topology.distances]
        expected = [40.0 * s / sum(squared) for s in squared]
        for got, want in zip(alloc.per_user, expected):
            assert got == pytest.approx(want, rel=1e-15)
        assert alloc.total == 40.0

    def test_single_user_gets_everything(self):
        topo = build_topology([2.5], 5.0, 3, 1)
        assert allocate_power(topo, 40.0).per_user == (40.0,)

    def test_rejects_non_positive_power(self, ref_topology):
        with pytest.raises(ValidationError, match="total_power"):
            allocate_power(ref_topology, 0.0)
        with pytest.raises(ValidationError, match="total_power"):
            allocate_power(ref_topology, -3.0)

    @given(distances=distances_strategy(), total=st.floats(0.1, 1e4))
    @settings(max_examples=80)
    def test_conservation_and_ordering(self, distances, total):
        topo = build_topology(distances, distances[-1], 3, 1)
        alloc = allocate_power(topo, total)
        assert sum(alloc.per_user) == pytest.approx(total, rel=1e-12)
        assert all(b > a for a, b in zip(alloc.per_user, alloc.per_user[1:]))
        # shares scale with squared distance
        for k, power in enumerate(alloc.per_user):
            share = distances[k] ** 2 / sum(d * d for d in distances)
            assert power == pytest.approx(total * share, rel=1e-12)
