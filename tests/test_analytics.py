import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from timnoma import (
    ValidationError,
    build_cell,
    hybrid_rate_table,
)

from helpers import (
    REFERENCE_DISTANCES,
    draw_fading,
    instantaneous_noise_sets,
    lone_cell,
    matrix_rate_oracle,
    reference_group_vectors,
    reference_noise_sets,
)

UNIT_FADING = np.ones(5, dtype=complex)
UNIT_NOISE = 1.0


def hybrid_rates(cell, h, sigma2, order_mode="distance"):
    """Per-user hybrid rates of one realization h: the table at N = 1."""
    return hybrid_rate_table(cell, np.abs(h)[None] ** 2, sigma2, order_mode)[0]


def single_user_rates(cell, h, sigma2, total_power):
    """Full-power single-user rates of one realization h: the table at N = 1."""
    return hybrid_rate_table(lone_cell(cell, total_power), np.abs(h)[None] ** 2, sigma2)[0]


def tdma_sum(cell, h, sigma2, total_power):
    """TDMA baseline sum rate: each user alone at full power for 1/K of the time."""
    return float(np.mean(single_user_rates(cell, h, sigma2, total_power)))


def channel_gain(cell, h, user):
    """gamma_k |h_k|^2, computed by hand."""
    return cell.path_gains[user] * abs(h[user]) ** 2

# frozen from the brute-force matrix oracle below (independent evaluation)
GOLDEN_RATES = (
    0.7777593614143372,
    0.3596857670757340,
    0.2333541361811778,
    0.1687928609960864,
    0.1324467655631778,
)


class TestUserRate:
    def test_reference_cell_golden_values(self, ref_cell):
        rates = hybrid_rates(ref_cell, UNIT_FADING, UNIT_NOISE)
        for got, want in zip(rates, GOLDEN_RATES, strict=True):
            assert got == pytest.approx(want, abs=1e-9)

    def test_matches_matrix_oracle(self, ref_cell):
        # both decoding orders; the instantaneous noise sets come from the
        # ranking rule in helpers, not from the package's ranks_ahead
        rng = np.random.default_rng(3)
        vectors = reference_group_vectors()
        for _ in range(25):
            h = draw_fading(rng, 5)
            sigma2 = float(rng.uniform(0.01, 10.0))
            gains = [channel_gain(ref_cell, h, k) for k in range(5)]
            for order_mode, sets in (
                ("distance", reference_noise_sets()),
                ("instantaneous", instantaneous_noise_sets(gains, ref_cell.group_of)),
            ):
                oracle = matrix_rate_oracle(
                    REFERENCE_DISTANCES, 3.0, 40.0, sigma2, h, sets, vectors
                )
                got = hybrid_rates(ref_cell, h, sigma2, order_mode)
                np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0)

    def test_numerator_identity(self, ref_cell, rng):
        # total * d^2/D * gain reduces exactly to P_k * gain
        h = draw_fading(rng, 5)
        for k in range(5):
            gain = channel_gain(ref_cell, h, k)
            d_sq = REFERENCE_DISTANCES[k] ** 2
            share = d_sq / sum(d * d for d in REFERENCE_DISTANCES)
            assert 40.0 * share * gain == pytest.approx(
                ref_cell.powers[k] * gain, rel=1e-14
            )

    def test_interference_structure(self, ref_cell):
        # users 1 and 2 are interference-free; 3 absorbs 1; 4 absorbs 2; 5 absorbs 1 and 3
        sigma2 = 1.0
        rates = hybrid_rates(ref_cell, UNIT_FADING, UNIT_NOISE)
        for k, uncancelled in reference_noise_sets().items():
            gain = channel_gain(ref_cell, UNIT_FADING, k)
            interference = gain * sum(ref_cell.powers[j] for j in uncancelled)
            expected = 0.5 * math.log2(
                1 + ref_cell.powers[k] * gain / (interference + sigma2)
            )
            assert rates[k] == pytest.approx(expected, rel=1e-14)

    def test_vanishes_with_infinite_noise(self, ref_cell):
        rates = hybrid_rates(ref_cell, UNIT_FADING, 1e30)
        assert np.all(rates < 1e-25)

    def test_monotone_in_noise_and_power(self, ref_cell):
        rates_in_noise = [
            hybrid_rates(ref_cell, UNIT_FADING, s2)
            for s2 in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(np.all(a > b) for a, b in zip(rates_in_noise, rates_in_noise[1:]))
        rates_in_power = [
            hybrid_rates(build_cell(REFERENCE_DISTANCES, 3.0, 2, p), UNIT_FADING, UNIT_NOISE)
            for p in (1.0, 10.0, 40.0, 400.0)
        ]
        assert all(np.all(a < b) for a, b in zip(rates_in_power, rates_in_power[1:]))

    def test_instantaneous_order_changes_interference(self, ref_cell):
        # boost user 4's fading far above user 0 and 2: it becomes interference-free
        h = np.array([0.01 + 0j, 1.0, 0.01, 1.0, 100.0])
        instant = hybrid_rates(ref_cell, h, UNIT_NOISE, order_mode="instantaneous")[4]
        gain = channel_gain(ref_cell, h, 4)
        assert instant == pytest.approx(0.5 * math.log2(1 + ref_cell.powers[4] * gain), rel=1e-12)

    def test_rejects_unknown_order_mode(self, ref_cell):
        with pytest.raises(ValidationError):
            hybrid_rates(ref_cell, UNIT_FADING, UNIT_NOISE, order_mode="static")


class TestSingleUserRate:
    def test_nearest_user(self, ref_cell):
        want = 0.5 * math.log2(321.0)
        got = single_user_rates(ref_cell, UNIT_FADING, UNIT_NOISE, 40.0)[0]
        assert got == pytest.approx(want, rel=1e-14)

    def test_zero_power(self, ref_cell):
        assert single_user_rates(ref_cell, UNIT_FADING, UNIT_NOISE, 0.0)[0] == 0.0

    def test_dominates_hybrid_rate(self, ref_cell, rng):
        for _ in range(50):
            h = draw_fading(rng, 5)
            sigma2 = float(rng.uniform(0.01, 10.0))
            solo = single_user_rates(ref_cell, h, sigma2, 40.0)
            hybrid = hybrid_rates(ref_cell, h, sigma2)
            assert np.all(solo >= hybrid)


class TestTdmaSumRate:
    def test_reference_golden_value(self, ref_cell):
        # independent arithmetic: mean of the five full-power rates
        gammas = [1.0 / d**3 for d in REFERENCE_DISTANCES]
        want = sum(0.5 * math.log2(1 + 40.0 * g) for g in gammas) / 5
        got = tdma_sum(ref_cell, UNIT_FADING, UNIT_NOISE, 40.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(1.5318035, abs=1e-6)

    def test_single_user_cell_degenerates(self):
        cell = build_cell([1.0], 3, 1, 40.0)
        h = np.ones(1, dtype=complex)
        assert tdma_sum(cell, h, UNIT_NOISE, 40.0) == single_user_rates(
            cell, h, UNIT_NOISE, 40.0
        )[0]

    def test_monotone_in_channel_gain(self, ref_cell):
        base = tdma_sum(ref_cell, UNIT_FADING, UNIT_NOISE, 40.0)
        boosted = tdma_sum(ref_cell, np.sqrt(2.0) * UNIT_FADING, UNIT_NOISE, 40.0)
        assert boosted > base


class TestRateRatio:
    def test_reference_composition(self, ref_cell):
        hybrid = float(np.sum(hybrid_rates(ref_cell, UNIT_FADING, UNIT_NOISE)))
        baseline = tdma_sum(ref_cell, UNIT_FADING, UNIT_NOISE, 40.0)
        assert hybrid == pytest.approx(1.672039, abs=1e-6)
        assert hybrid / baseline == pytest.approx(1.091549, abs=1e-6)


class TestRateTables:
    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_matches_scalar_rates(self, ref_cell, order_mode):
        # every row of a batch against the matrix oracle for its realization
        rng = np.random.default_rng(7)
        fading = draw_fading(rng, 5, blocks=64).T
        sigma2 = 0.37
        table = hybrid_rate_table(ref_cell, np.abs(fading) ** 2, sigma2, order_mode)
        for n in range(0, 64, 7):
            if order_mode == "distance":
                sets = reference_noise_sets()
            else:
                gains = [channel_gain(ref_cell, fading[n], k) for k in range(5)]
                sets = instantaneous_noise_sets(gains, ref_cell.group_of)
            oracle = matrix_rate_oracle(
                REFERENCE_DISTANCES, 3.0, 40.0, sigma2, fading[n], sets,
                reference_group_vectors(),
            )
            np.testing.assert_allclose(table[n], oracle, rtol=1e-12, atol=0)

    def test_single_user_table_matches_scalar(self, ref_cell):
        rng = np.random.default_rng(8)
        fading = draw_fading(rng, 5, blocks=32).T
        sigma2 = 1.3
        lone, fading_power = lone_cell(ref_cell, 40.0), np.abs(fading) ** 2
        table = hybrid_rate_table(lone, fading_power, sigma2)
        for n in range(0, 32, 5):
            for k in range(5):
                snr = 40.0 * channel_gain(ref_cell, fading[n], k) / sigma2
                assert table[n, k] == pytest.approx(0.5 * math.log2(1 + snr), rel=1e-12)
        # nobody absorbs anybody, so the order cannot matter (the rate points
        # run their lone tables in distance order) and every denominator is
        # sigma^2 exactly, as if divided by it directly
        snr = fading_power * lone.path_gains * lone.powers / sigma2
        by_hand = np.log1p(snr) * (1.0 / (lone.slots * math.log(2.0)))
        for order_mode in ("distance", "instantaneous"):
            table = hybrid_rate_table(lone, fading_power, sigma2, order_mode)
            assert table.tobytes() == by_hand.tobytes()

    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_leaves_input_unwritten_and_ignores_layout(self, ref_cell, order_mode):
        user_major = np.abs(draw_fading(np.random.default_rng(10), 5, blocks=50)) ** 2
        fading_power = user_major.T  # (N, K), each user's realizations contiguous
        before = fading_power.copy()
        sigma2 = 0.8
        tables = [
            (
                hybrid_rate_table(ref_cell, gains, sigma2, order_mode),
                hybrid_rate_table(lone_cell(ref_cell, 40.0), gains, sigma2),
            )
            for gains in (fading_power, np.ascontiguousarray(fading_power))
        ]
        np.testing.assert_array_equal(fading_power, before)
        for strided, contiguous in zip(*tables):
            np.testing.assert_array_equal(strided, contiguous)

    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_writes_out_as_a_fresh_table(self, ref_cell, order_mode):
        # out laid out as a rate chunk lays it: (K, N) memory viewed as (N, K)
        fading_power = np.random.default_rng(15).exponential(size=(5, 300)).T
        before = fading_power.copy()
        sigma2 = 0.6
        for cell, mode in ((ref_cell, order_mode), (lone_cell(ref_cell, 40.0), "distance")):
            fresh = hybrid_rate_table(cell, fading_power, sigma2, mode)
            out = np.full((5, 300), np.nan).T
            assert hybrid_rate_table(cell, fading_power, sigma2, mode, out=out) is out
            assert out.tobytes() == fresh.tobytes()
        np.testing.assert_array_equal(fading_power, before)

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((4, 5)),
            np.empty((3, 4)),
            np.empty((3, 5), dtype=np.float32),
            np.empty((3, 5), dtype=complex),
            [[0.0] * 5] * 3,
        ],
        ids=["four-rows", "four-users", "float32", "complex", "list"],
    )
    def test_refuses_an_out_of_the_wrong_shape_or_dtype(self, ref_cell, out):
        with pytest.raises(ValidationError, match="out is"):
            hybrid_rate_table(ref_cell, np.ones((3, 5)), UNIT_NOISE, out=out)

    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_writes_over_the_fading_as_a_fresh_table(self, ref_cell, order_mode):
        # a rate chunk writes its table over its draw, (K, N) memory viewed
        # as (N, K); the second cell is 16 users in one group at unit path
        # gains, so gains drawn from {0, 0.25, 1, 3} tie exactly, at zero too
        rng = np.random.default_rng(16)
        one_group = replace(build_cell([0.5 + 0.25 * k for k in range(16)], 3.0, 1, 40.0),
                            path_gains=(1.0,) * 16)
        cases = [
            (ref_cell, rng.exponential(size=(5, 300))),
            (one_group, rng.choice([0.0, 0.25, 1.0, 3.0], size=(16, 300))),
        ]
        for cell, user_major in cases:
            fading_power = user_major.T
            fresh = hybrid_rate_table(cell, fading_power, 0.6, order_mode)
            table = hybrid_rate_table(cell, fading_power, 0.6, order_mode, out=fading_power)
            assert table is fading_power
            assert table.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_an_out_that_overlaps_the_fading_gives_a_fresh_table(self, ref_cell, order_mode):
        # numpy's out contract: the first multiply is buffered where its
        # operands overlap, and only out is read after it; the cells and
        # gains are those of the test above, in both memory layouts
        rng = np.random.default_rng(17)
        one_group = replace(build_cell([0.5 + 0.25 * k for k in range(16)], 3.0, 1, 40.0),
                            path_gains=(1.0,) * 16)
        cases = [
            (ref_cell, lambda size: rng.exponential(size=size)),
            (one_group, lambda size: rng.choice([0.0, 0.25, 1.0, 3.0], size=size)),
        ]
        for cell, draw in cases:
            count, n = cell.user_count, 300
            size = count * n
            for user_major in (False, True):
                def table(flat):  # (N, K), or (K, N) memory viewed as (N, K)
                    return flat.reshape(count, n).T if user_major else flat.reshape(n, count)
                views = {  # out's place in a buffer that holds the fading at [row:row + size]
                    "reversed": lambda buffer, row: table(buffer[row:row + size])[::-1],
                    "offset": lambda buffer, row: table(buffer[row + 1:row + size + 1]),
                    "offset back": lambda buffer, row: table(buffer[row - 1:row + size - 1]),
                    "row later": lambda buffer, row: table(buffer[2 * row:2 * row + size]),
                    "row earlier": lambda buffer, row: table(buffer[:size]),
                }
                row = n if user_major else count  # one row of the memory layout
                drawn = draw(size + 2 * row)
                fresh = hybrid_rate_table(cell, table(drawn[row:row + size]), 0.6, order_mode)
                for name, view in views.items():
                    buffer = drawn.copy()
                    out = view(buffer, row)
                    result = hybrid_rate_table(cell, table(buffer[row:row + size]), 0.6, order_mode, out=out)
                    assert result is out
                    assert result.tobytes() == fresh.tobytes(), (cell.user_count, user_major, name)

    def test_instantaneous_ties_rank_the_smaller_index_first(self):
        cell = build_cell([1.0, 2.0], 3.0, 1, 10.0)  # gamma = 1 and 1/8
        p0, p1 = cell.powers
        log2 = math.log2
        # gamma |h|^2 = 1 for both users: user 0 decodes first, user 1 absorbs it
        tied = hybrid_rate_table(cell, np.array([[1.0, 8.0]]), UNIT_NOISE, "instantaneous")
        assert tied[0, 0] == pytest.approx(log2(1 + p0), rel=1e-12)
        assert tied[0, 1] == pytest.approx(log2(1 + p1 / (p0 + 1)), rel=1e-12)
        # user 1 ahead with gain 1.0625 against 1: user 0 (gain 1) absorbs it
        ahead = hybrid_rate_table(cell, np.array([[1.0, 8.5]]), UNIT_NOISE, "instantaneous")
        assert ahead[0, 0] == pytest.approx(log2(1 + p0 / (p1 + 1)), rel=1e-12)
        assert ahead[0, 1] == pytest.approx(log2(1 + p1 * 1.0625), rel=1e-12)

    @pytest.mark.parametrize(
        "distances, shape",
        [
            ((1.0,), (4, 5)),  # was a (4, 5) table for one user
            (REFERENCE_DISTANCES, (4, 1)),  # was one fading value for all five users
            (REFERENCE_DISTANCES, (4, 5, 1)),  # was a (4, 5, 5) table
            (REFERENCE_DISTANCES, (4, 3)),  # was numpy's broadcast ValueError
            (REFERENCE_DISTANCES, (5,)),  # was numpy's broadcast ValueError
        ],
    )
    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_rejects_wrong_shaped_fading(self, distances, shape, order_mode):
        cell = build_cell(distances, 3.0, 1, 40.0)
        with pytest.raises(ValidationError, match="fading_power is"):
            hybrid_rate_table(cell, np.ones(shape), UNIT_NOISE, order_mode)
        with pytest.raises(ValidationError, match="fading_power is"):
            hybrid_rate_table(lone_cell(cell, 40.0), np.ones(shape), UNIT_NOISE)

    def test_instantaneous_order_memory_stays_near_the_fading(self):
        # one full rate chunk of the largest cell at T = 4: the (K, K, N)
        # mask and its float64 copy took 20 times the fading's bytes; the
        # rule's temporaries and the interference are (N,) columns beside
        # the table and the (K, N) absorbed powers, 2.1 times in all
        cell = build_cell([0.5 + 0.25 * k for k in range(16)], 3.0, 4, 40.0)
        fading_power = np.random.default_rng(14).exponential(size=(16, 16384)).T
        tracemalloc.start()
        try:
            hybrid_rate_table(cell, fading_power, UNIT_NOISE, "instantaneous")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * fading_power.nbytes

    def test_rejects_complex_fading(self, ref_cell):
        fading = draw_fading(np.random.default_rng(12), 5, blocks=4).T
        with pytest.raises(ValidationError, match="real"):
            hybrid_rate_table(ref_cell, fading, UNIT_NOISE)
        with pytest.raises(ValidationError, match="real"):
            hybrid_rate_table(lone_cell(ref_cell, 40.0), fading, UNIT_NOISE)

    @pytest.mark.parametrize(
        "change",
        [{"path_gains": (1.0,)}, {"powers": (8.0,) * 3}, {"powers": (8.0,) * 6}, {"slots": 0}],
        ids=["one-path-gain", "three-powers", "six-powers", "no-slots"],
    )
    def test_refuses_a_cell_of_the_wrong_shape(self, ref_cell, change):
        # the README derives cells by dataclasses.replace: one path gain on
        # five users must be refused, not broadcast over all of them
        with pytest.raises(ValidationError):
            hybrid_rate_table(replace(ref_cell, **change), np.ones((3, 5)), UNIT_NOISE)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_noise_variance(self, ref_cell, sigma2):
        with pytest.raises(ValidationError, match="noise variance"):
            hybrid_rate_table(ref_cell, np.ones((1, 5)), sigma2)

    def test_ratio_approaches_two_from_above_at_high_snr(self, ref_cell):
        # asymptotically the hybrid sum grows twice as fast as the baseline;
        # at finite SNR the ratio sits above 2 and decays toward it
        rng = np.random.default_rng(9)
        fading = draw_fading(rng, 5, blocks=40_000).T
        fading_power = np.abs(fading) ** 2
        deviations = []
        for snr_db in (60.0, 70.0, 80.0):
            sigma2 = 40.0 * 10 ** (-snr_db / 10)
            hybrid = hybrid_rate_table(ref_cell, fading_power, sigma2).sum(axis=1).mean()
            baseline = hybrid_rate_table(lone_cell(ref_cell, 40.0), fading_power, sigma2).mean()
            ratio = float(hybrid) / float(baseline)
            assert 1.9 < ratio < 2.5
            deviations.append(abs(ratio - 2.0))
        assert deviations[0] > deviations[1] > deviations[2]

