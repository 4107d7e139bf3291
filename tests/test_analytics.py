import math
from fractions import Fraction

import numpy as np
import pytest

from timnoma import (
    NoiseModel,
    ValidationError,
    dof_total,
    draw_fading,
    hybrid_rate_table,
    path_loss,
    single_user_rate_table,
)

from helpers import (
    instantaneous_noise_sets,
    matrix_rate_oracle,
    reference_group_vectors,
    reference_noise_sets,
)

UNIT_FADING = np.ones(5, dtype=complex)
UNIT_NOISE = NoiseModel(1.0)


def hybrid_rates(topology, power, groups, h, noise, order_mode="distance"):
    """Per-user hybrid rates of one realization h: the table at N = 1."""
    return hybrid_rate_table(topology, power, groups, np.abs(h)[None] ** 2, noise, order_mode)[0]


def single_user_rates(topology, h, noise, total_power):
    """Full-power single-user rates of one realization h: the table at N = 1."""
    return single_user_rate_table(topology, np.abs(h)[None] ** 2, noise, total_power)[0]


def tdma_sum(topology, h, noise, total_power):
    """TDMA baseline sum rate: each user alone at full power for 1/K of the time."""
    return float(np.mean(single_user_rates(topology, h, noise, total_power)))


def channel_gain(topology, h, user):
    """gamma_k |h_k|^2, computed by hand."""
    return path_loss(topology, user) * abs(h[user]) ** 2

# frozen from the brute-force matrix oracle below (independent evaluation)
GOLDEN_RATES = (
    0.7777593614143372,
    0.3596857670757340,
    0.2333541361811778,
    0.1687928609960864,
    0.1324467655631778,
)


class TestUserRate:
    def test_reference_cell_golden_values(self, ref_topology, ref_power, ref_groups):
        rates = hybrid_rates(ref_topology, ref_power, ref_groups, UNIT_FADING, UNIT_NOISE)
        for got, want in zip(rates, GOLDEN_RATES, strict=True):
            assert got == pytest.approx(want, abs=1e-9)

    def test_matches_matrix_oracle(self, ref_topology, ref_power, ref_groups):
        # both decoding orders; the instantaneous noise sets come from the
        # ranking rule in helpers, not from the package's cancel mask
        rng = np.random.default_rng(3)
        vectors = reference_group_vectors()
        for _ in range(25):
            h = draw_fading(rng, 5)
            sigma2 = float(rng.uniform(0.01, 10.0))
            gains = [channel_gain(ref_topology, h, k) for k in range(5)]
            for order_mode, sets in (
                ("distance", reference_noise_sets()),
                ("instantaneous", instantaneous_noise_sets(gains, ref_groups.group_of)),
            ):
                oracle = matrix_rate_oracle(
                    ref_topology.distances, 3.0, 40.0, sigma2, h, sets, vectors
                )
                got = hybrid_rates(
                    ref_topology, ref_power, ref_groups, h, NoiseModel(sigma2), order_mode
                )
                np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)

    def test_numerator_identity(self, ref_topology, ref_power, ref_groups, rng):
        # total * d^2/D * gain reduces exactly to P_k * gain
        h = draw_fading(rng, 5)
        for k in range(5):
            gain = channel_gain(ref_topology, h, k)
            d_sq = ref_topology.distances[k] ** 2
            share = d_sq / sum(d * d for d in ref_topology.distances)
            assert 40.0 * share * gain == pytest.approx(
                ref_power.per_user[k] * gain, rel=1e-14
            )

    def test_interference_structure(self, ref_topology, ref_power, ref_groups):
        # users 1 and 2 are interference-free; 3 absorbs 1; 4 absorbs 2; 5 absorbs 1 and 3
        sigma2 = 1.0
        rates = hybrid_rates(ref_topology, ref_power, ref_groups, UNIT_FADING, UNIT_NOISE)
        for k, uncancelled in reference_noise_sets().items():
            gain = channel_gain(ref_topology, UNIT_FADING, k)
            interference = gain * sum(ref_power.per_user[j] for j in uncancelled)
            expected = 0.5 * math.log2(
                1 + ref_power.per_user[k] * gain / (interference + sigma2)
            )
            assert rates[k] == pytest.approx(expected, rel=1e-14)

    def test_vanishes_with_infinite_noise(self, ref_topology, ref_power, ref_groups):
        loud = NoiseModel(1e30)
        rates = hybrid_rates(ref_topology, ref_power, ref_groups, UNIT_FADING, loud)
        assert np.all(rates < 1e-25)

    def test_monotone_in_noise_and_power(self, ref_topology, ref_groups):
        from timnoma import allocate_power

        rates_in_noise = [
            hybrid_rates(
                ref_topology, allocate_power(ref_topology, 40.0), ref_groups, UNIT_FADING,
                NoiseModel(s2),
            )
            for s2 in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(np.all(a > b) for a, b in zip(rates_in_noise, rates_in_noise[1:]))
        rates_in_power = [
            hybrid_rates(
                ref_topology, allocate_power(ref_topology, p), ref_groups, UNIT_FADING,
                UNIT_NOISE,
            )
            for p in (1.0, 10.0, 40.0, 400.0)
        ]
        assert all(np.all(a < b) for a, b in zip(rates_in_power, rates_in_power[1:]))

    def test_instantaneous_order_changes_interference(self, ref_topology, ref_power, ref_groups):
        # boost user 4's fading far above user 0 and 2: it becomes interference-free
        h = np.array([0.01 + 0j, 1.0, 0.01, 1.0, 100.0])
        instant = hybrid_rates(
            ref_topology, ref_power, ref_groups, h, UNIT_NOISE, order_mode="instantaneous"
        )[4]
        gain = channel_gain(ref_topology, h, 4)
        assert instant == pytest.approx(0.5 * math.log2(1 + ref_power.per_user[4] * gain), rel=1e-12)

    def test_rejects_unknown_order_mode(self, ref_topology, ref_power, ref_groups):
        with pytest.raises(ValidationError):
            hybrid_rates(
                ref_topology, ref_power, ref_groups, UNIT_FADING, UNIT_NOISE, order_mode="static"
            )


class TestSingleUserRate:
    def test_nearest_user(self, ref_topology):
        want = 0.5 * math.log2(321.0)
        got = single_user_rates(ref_topology, UNIT_FADING, UNIT_NOISE, 40.0)[0]
        assert got == pytest.approx(want, rel=1e-14)

    def test_zero_power(self, ref_topology):
        assert single_user_rates(ref_topology, UNIT_FADING, UNIT_NOISE, 0.0)[0] == 0.0

    def test_dominates_hybrid_rate(self, ref_topology, ref_power, ref_groups, rng):
        for _ in range(50):
            h = draw_fading(rng, 5)
            sigma2 = float(rng.uniform(0.01, 10.0))
            noise = NoiseModel(sigma2)
            solo = single_user_rates(ref_topology, h, noise, 40.0)
            hybrid = hybrid_rates(ref_topology, ref_power, ref_groups, h, noise)
            assert np.all(solo >= hybrid)


class TestTdmaSumRate:
    def test_reference_golden_value(self, ref_topology):
        # independent arithmetic: mean of the five full-power rates
        gammas = [1.0 / d**3 for d in ref_topology.distances]
        want = sum(0.5 * math.log2(1 + 40.0 * g) for g in gammas) / 5
        got = tdma_sum(ref_topology, UNIT_FADING, UNIT_NOISE, 40.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(1.5318035, abs=1e-6)

    def test_single_user_cell_degenerates(self):
        from timnoma import build_topology

        topo = build_topology([1.0], 5.0, 3, 1)
        h = np.ones(1, dtype=complex)
        assert tdma_sum(topo, h, UNIT_NOISE, 40.0) == single_user_rates(
            topo, h, UNIT_NOISE, 40.0
        )[0]

    def test_monotone_in_channel_gain(self, ref_topology):
        base = tdma_sum(ref_topology, UNIT_FADING, UNIT_NOISE, 40.0)
        boosted = tdma_sum(ref_topology, np.sqrt(2.0) * UNIT_FADING, UNIT_NOISE, 40.0)
        assert boosted > base


class TestDofTotal:
    def test_reference_cell(self):
        assert dof_total(5, 2) == Fraction(5, 2)
        assert dof_total(5, 2) == 2.5

    def test_single_group(self):
        assert dof_total(7, 1) == 7

    def test_even_split(self):
        assert dof_total(4, 2) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            dof_total(0, 1)
        with pytest.raises(ValidationError):
            dof_total(4, 5)
        with pytest.raises(ValidationError):
            dof_total(4, 0)


class TestRateRatio:
    def test_reference_composition(self, ref_topology, ref_power, ref_groups):
        hybrid = float(
            np.sum(hybrid_rates(ref_topology, ref_power, ref_groups, UNIT_FADING, UNIT_NOISE))
        )
        baseline = tdma_sum(ref_topology, UNIT_FADING, UNIT_NOISE, 40.0)
        assert hybrid == pytest.approx(1.672039, abs=1e-6)
        assert hybrid / baseline == pytest.approx(1.091549, abs=1e-6)


class TestRateTables:
    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_matches_scalar_rates(self, ref_topology, ref_power, ref_groups, order_mode):
        # every row of a batch against the matrix oracle for its realization
        rng = np.random.default_rng(7)
        fading = draw_fading(rng, 5, blocks=64).T
        noise = NoiseModel(0.37)
        table = hybrid_rate_table(
            ref_topology, ref_power, ref_groups, np.abs(fading) ** 2, noise, order_mode
        )
        for n in range(0, 64, 7):
            if order_mode == "distance":
                sets = reference_noise_sets()
            else:
                gains = [channel_gain(ref_topology, fading[n], k) for k in range(5)]
                sets = instantaneous_noise_sets(gains, ref_groups.group_of)
            oracle = matrix_rate_oracle(
                ref_topology.distances, 3.0, 40.0, noise.variance, fading[n], sets,
                reference_group_vectors(),
            )
            np.testing.assert_allclose(table[n], oracle, rtol=1e-12, atol=0)

    def test_single_user_table_matches_scalar(self, ref_topology):
        rng = np.random.default_rng(8)
        fading = draw_fading(rng, 5, blocks=32).T
        noise = NoiseModel(1.3)
        table = single_user_rate_table(ref_topology, np.abs(fading) ** 2, noise, 40.0)
        for n in range(0, 32, 5):
            for k in range(5):
                snr = 40.0 * channel_gain(ref_topology, fading[n], k) / noise.variance
                assert table[n, k] == pytest.approx(0.5 * math.log2(1 + snr), rel=1e-12)

    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_leaves_input_unwritten_and_ignores_layout(
        self, ref_topology, ref_power, ref_groups, order_mode
    ):
        user_major = np.abs(draw_fading(np.random.default_rng(10), 5, blocks=50)) ** 2
        fading_power = user_major.T  # (N, K), each user's realizations contiguous
        before = fading_power.copy()
        noise = NoiseModel(0.8)
        tables = [
            (
                hybrid_rate_table(ref_topology, ref_power, ref_groups, gains, noise, order_mode),
                single_user_rate_table(ref_topology, gains, noise, 40.0),
            )
            for gains in (fading_power, np.ascontiguousarray(fading_power))
        ]
        np.testing.assert_array_equal(fading_power, before)
        for strided, contiguous in zip(*tables):
            np.testing.assert_array_equal(strided, contiguous)

    def test_instantaneous_ties_rank_the_smaller_index_first(self):
        from timnoma import allocate_power, assign_groups, build_topology

        topo = build_topology([1.0, 2.0], 5.0, 3.0, 1)  # gamma = 1 and 1/8
        groups = assign_groups(topo)
        power = allocate_power(topo, 10.0)
        p0, p1 = power.per_user
        log2 = math.log2
        # gamma |h|^2 = 1 for both users: user 0 decodes first, user 1 absorbs it
        tied = hybrid_rate_table(
            topo, power, groups, np.array([[1.0, 8.0]]), UNIT_NOISE, "instantaneous"
        )
        assert tied[0, 0] == pytest.approx(log2(1 + p0), rel=1e-12)
        assert tied[0, 1] == pytest.approx(log2(1 + p1 / (p0 + 1)), rel=1e-12)
        # user 1 ahead with gain 1.0625 against 1: user 0 (gain 1) absorbs it
        ahead = hybrid_rate_table(
            topo, power, groups, np.array([[1.0, 8.5]]), UNIT_NOISE, "instantaneous"
        )
        assert ahead[0, 0] == pytest.approx(log2(1 + p0 / (p1 + 1)), rel=1e-12)
        assert ahead[0, 1] == pytest.approx(log2(1 + p1 * 1.0625), rel=1e-12)

    def test_rejects_complex_fading(self, ref_topology, ref_power, ref_groups):
        fading = draw_fading(np.random.default_rng(12), 5, blocks=4).T
        with pytest.raises(ValidationError, match="real"):
            hybrid_rate_table(ref_topology, ref_power, ref_groups, fading, UNIT_NOISE)
        with pytest.raises(ValidationError, match="real"):
            single_user_rate_table(ref_topology, fading, UNIT_NOISE, 40.0)

    def test_ratio_approaches_two_from_above_at_high_snr(
        self, ref_topology, ref_power, ref_groups
    ):
        # asymptotically the hybrid sum grows twice as fast as the baseline;
        # at finite SNR the ratio sits above 2 and decays toward it
        rng = np.random.default_rng(9)
        fading = draw_fading(rng, 5, blocks=40_000).T
        fading_power = np.abs(fading) ** 2
        deviations = []
        for snr_db in (60.0, 70.0, 80.0):
            noise = NoiseModel(40.0 * 10 ** (-snr_db / 10))
            hybrid = hybrid_rate_table(
                ref_topology, ref_power, ref_groups, fading_power, noise
            ).sum(axis=1).mean()
            baseline = single_user_rate_table(ref_topology, fading_power, noise, 40.0).mean()
            ratio = float(hybrid) / float(baseline)
            assert 1.9 < ratio < 2.5
            deviations.append(abs(ratio - 2.0))
        assert deviations[0] > deviations[1] > deviations[2]

