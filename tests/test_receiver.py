import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from timnoma import (
    Cell,
    SimConfig,
    ValidationError,
    build_cell,
    decode,
    ranks_ahead,
)
from timnoma.harness import _scene

from helpers import (
    CONSTELLATION,
    REFERENCE_DISTANCES,
    add_noise,
    cancel_mask,
    decode_rows,
    derotate,
    draw_fading,
    equalise,
    gathering_decode,
    levels,
    make_basis,
    members,
    minimum_distance_detect,
    mixing_matrix,
    project,
    qpsk_demodulate,
    qpsk_levels,
    qpsk_modulate,
    received_signal,
    reference_sic_bits,
)


def random_symbols(rng, shape):
    return CONSTELLATION[rng.integers(0, 4, size=shape)]


def cancel_sets(group_of, gains=None):
    """Users each receiver cancels, in sweep order (descending power): the
    members of its group that it ranks ahead of."""
    users = range(len(group_of))
    return tuple(
        tuple(j for j in reversed(users) if group_of[j] == group_of[k] and ranks_ahead(k, j, gains))
        for k in users
    )


def noise_sets(group_of, gains=None):
    """Same-group users ranked ahead of each receiver: never cancelled."""
    users = range(len(group_of))
    return tuple(
        tuple(j for j in users if group_of[j] == group_of[k] and ranks_ahead(j, k, gains))
        for k in users
    )


def order_matrix(gains):
    """entry [k, j]: user k ranks ahead of user j, so j ranks after k."""
    users = range(len(gains))
    return np.array([[ranks_ahead(k, j, gains) for j in users] for k in users])


def amplitudes(cell):
    return np.sqrt(np.asarray(cell.powers))


def bank_signal(cell, basis, symbols, fading, noise=None):
    """Every receiver's projected signal and effective channel, (K, S) each,
    through the physical chain: mixing, channel, noise, projection."""
    count = cell.user_count
    gamma = np.array(cell.path_gains)
    channels = np.sqrt(gamma)[:, None] * np.reshape(fading, (count, -1))
    received = channels[:, None, :] * (mixing_matrix(cell.powers, cell.group_of, basis) @ symbols)
    if noise is not None:
        received = received + noise
    return project(received, basis, np.asarray(cell.group_of)), channels


def real_bank(*args, **kwargs):
    """The equalised (K, S, 2) signal that ``decode_rows`` takes."""
    return equalise(*bank_signal(*args, **kwargs))


class TestProject:
    def test_other_group_cancels_exactly(self, ref_basis, rng):
        # a signal riding only on group 2's vector is invisible to group 1
        y = ref_basis[1][:, None] * (rng.standard_normal(50) + 1j)
        np.testing.assert_allclose(project(y, ref_basis, 0), 0, atol=1e-12)

    def test_unit_channel_recovers_scaled_symbol(self, ref_basis):
        symbol = (0.6 - 0.8j)
        y = math.sqrt(9.0) * ref_basis[0] * symbol
        assert project(y, ref_basis, 0) == pytest.approx(3.0 * symbol, rel=1e-14)

    def test_sum_of_both_vectors(self, ref_basis):
        y = ref_basis[0] + ref_basis[1]
        assert project(y, ref_basis, 0) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self, ref_basis):
        with pytest.raises(ValueError):
            project(np.zeros(3, dtype=complex), ref_basis, 0)
        with pytest.raises(ValueError):
            project(np.zeros((5, 3, 4), dtype=complex), ref_basis, [0, 1, 0, 1, 0])

    def test_bank_projects_each_receiver_on_its_own_group(self, ref_basis, ref_cell, rng):
        received = rng.standard_normal((5, 2, 40)) + 1j * rng.standard_normal((5, 2, 40))
        bank = project(received, ref_basis, np.asarray(ref_cell.group_of))
        assert bank.shape == (5, 40)
        for k, group in enumerate(ref_cell.group_of):
            np.testing.assert_allclose(bank[k], ref_basis[group] @ received[k], rtol=1e-14)


class TestDecodingOrder:
    # order_matrix(gains)[k, j] says j ranks after k

    def test_reference_gains(self):
        gains = [8.0, 0.29630, 0.064, 0.02332, 0.01097]
        np.testing.assert_array_equal(order_matrix(gains), np.triu(np.ones((5, 5), dtype=bool), k=1))

    def test_ties_break_by_index(self):
        np.testing.assert_array_equal(
            order_matrix([1.0, 1.0, 1.0]), np.triu(np.ones((3, 3), dtype=bool), k=1)
        )

    def test_fading_can_flip_the_order(self):
        np.testing.assert_array_equal(order_matrix([1.0, 5.0]), [[False, False], [True, False]])


@st.composite
def orders(draw):
    """A grouping of 1 to 16 users into 1 to K groups, and no gains (distance
    order) or (K,) or (K, S) gains from a small set, so that ties occur."""
    count = draw(st.integers(1, 16))
    group_count = draw(st.integers(1, count))
    group_of = tuple(draw(st.lists(st.integers(0, group_count - 1), min_size=count, max_size=count)))
    shape = draw(st.sampled_from([None, (count,), (count, draw(st.integers(1, 4)))]))
    if shape is None:
        return group_of, None
    size = math.prod(shape)
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=size, max_size=size))
    return group_of, np.reshape(values, shape)


class TestRanksAheadMatchesTheMask:
    """The pairwise rule against the (receiver, interferer, block) mask it
    replaced, over every same-group pair of user indices."""

    @settings(max_examples=200, deadline=None)
    @given(order=orders())
    def test_every_same_group_pair(self, order):
        group_of, gains = order
        mask = cancel_mask(group_of, gains)
        users = range(len(group_of))
        for j, k in ((j, k) for j in users for k in users if group_of[j] == group_of[k]):
            np.testing.assert_array_equal(
                np.broadcast_to(ranks_ahead(k, j, gains), mask[k, j].shape), mask[k, j]
            )


def ml_detect(residual, channel):
    """A one-user chain with nothing to cancel, on the equalised signal of
    complex residuals and channels: one QPSK decision per entry."""
    residual = np.atleast_1d(residual)
    channel = np.broadcast_to(channel, residual.shape)
    signal = equalise(residual[np.newaxis], channel[np.newaxis])
    bits = decode_rows(signal, Cell((1.0,), (1.0,), (0,), 1))[0]
    decided = CONSTELLATION[2 * bits[0::2] + bits[1::2]]
    return complex(decided[0]) if decided.shape == (1,) else decided


class TestMlDetect:
    """ML detection is the chain's per-axis sign test on the equalised
    signal; a negative residual decides bit 1, an exact zero bit 0."""

    def test_recovers_exact_symbol(self, rng):
        channel = 0.7 - 0.4j
        for symbol in CONSTELLATION:
            assert ml_detect(channel * 3.0 * symbol, channel) == symbol

    def test_zero_residual_ties_to_first_point(self):
        assert ml_detect(0j, 1.0 + 0j) == CONSTELLATION[0]

    def test_small_perturbation_keeps_decision(self):
        symbol = CONSTELLATION[0]
        residual = symbol + 0.1 * (1 + 1j)
        assert ml_detect(residual, 1.0 + 0j) == symbol

    def test_metric_hand_check(self):
        # residual sits closest to the (1,0) point under this channel
        channel, amp = 2.0 + 0j, 1.0
        residual = channel * amp * CONSTELLATION[2] + (0.2 - 0.1j)
        metrics = [abs(residual - channel * amp * s) ** 2 for s in CONSTELLATION]
        assert int(np.argmin(metrics)) == 2
        assert ml_detect(residual, channel) == CONSTELLATION[2]

    def test_vectorized_matches_scalar(self, rng):
        residual = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        channel = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        batch = ml_detect(residual, channel)
        single = [ml_detect(residual[i], channel[i]) for i in range(200)]
        np.testing.assert_array_equal(batch, single)

    def test_sign_test_matches_minimum_distance_search(self, rng):
        n = 3072
        residual = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        channel = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_array_equal(
            ml_detect(residual, channel), minimum_distance_detect(residual, channel, 0.8)
        )
        # exact ties on one or both axes go to bit 0 in both
        ties = np.array([0j, 0.5j, -0.5j, 0.5 + 0j, -0.5 + 0j])
        np.testing.assert_array_equal(
            ml_detect(ties, 1.0 + 0j), minimum_distance_detect(ties, 1.0, 1.0)
        )


class TestSicPlan:
    def test_distance_order_reference_cell(self, ref_cell):
        assert cancel_sets(ref_cell.group_of) == ((4, 2), (3,), (4,), (), ())
        assert noise_sets(ref_cell.group_of) == ((), (), (0,), (1,), (0, 2))

    def test_sets_partition_the_group(self, ref_cell):
        cancels, noises = cancel_sets(ref_cell.group_of), noise_sets(ref_cell.group_of)
        for user in range(5):
            combined = set(cancels[user]) | set(noises[user]) | {user}
            assert combined == set(members(ref_cell.group_of)[ref_cell.group_of[user]])
            assert not set(cancels[user]) & set(noises[user])

    def test_flipped_order_swaps_sets(self, ref_cell):
        # gains rising with index reverse the order to (4, 3, 2, 1, 0)
        gains = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert cancel_sets(ref_cell.group_of, gains)[4] == (2, 0)
        assert noise_sets(ref_cell.group_of, gains)[0] == (2, 4)

    def test_cancellation_runs_strongest_power_first(self, ref_cell, ref_basis):
        # receiver 0 must cancel user 4 before user 2: detecting user 2
        # first, under user 4's stronger opposite-sign signal, would flip it
        # and then every later decision on that axis
        symbols = CONSTELLATION[[0, 0, 0, 0, 3]][:, None]
        fading = np.ones(5, dtype=complex)
        signal = real_bank(ref_cell, ref_basis, symbols, fading)
        bits = decode_rows(signal, ref_cell)
        np.testing.assert_array_equal(bits[0], [False, False])
        own = math.sqrt(ref_cell.powers[0]) * levels(symbols[0])
        np.testing.assert_allclose(signal[0], own, rtol=1e-12)


class TestSicDecode:
    def test_noiseless_chain_recovers_every_user(self, ref_cell, ref_basis, rng):
        symbols = random_symbols(rng, (5, 50))
        fading = draw_fading(rng, 5, blocks=50)
        signal = real_bank(ref_cell, ref_basis, symbols, fading)
        bits = decode_rows(signal, ref_cell)
        np.testing.assert_array_equal(bits, qpsk_demodulate(symbols))

    def test_strongest_power_user_detects_without_cancelling(self, ref_cell, ref_basis, rng):
        symbols = random_symbols(rng, (5, 1))
        fading = draw_fading(rng, 5)
        signal = real_bank(ref_cell, ref_basis, symbols, fading)
        projected = signal.copy()
        decode_rows(signal, ref_cell)
        assert cancel_sets(ref_cell.group_of)[4] == ()
        np.testing.assert_array_equal(signal[4, 0], projected[4, 0])

    def test_middle_user_cancels_exactly_one(self, ref_cell, ref_basis, rng):
        # user 2 subtracts only the strongest group member, absorbs user 0
        symbols = random_symbols(rng, (5, 1))
        fading = draw_fading(rng, 5)
        signal = real_bank(ref_cell, ref_basis, symbols, fading)
        decode_rows(signal, ref_cell)
        assert cancel_sets(ref_cell.group_of)[2] == (4,)
        # the residual still carries user 0's signal (treated as noise)
        leftover = (
            math.sqrt(ref_cell.powers[0]) * levels(symbols[0, 0])
            + math.sqrt(ref_cell.powers[2]) * levels(symbols[2, 0])
        )
        np.testing.assert_allclose(signal[2, 0], leftover, rtol=1e-12)

    def test_genie_cancellation_leaves_own_signal_plus_noise(self, ref_cell, ref_basis):
        rng = np.random.default_rng(5)
        symbols = random_symbols(rng, (5, 200))
        fading = draw_fading(rng, 5, blocks=200)
        noise = add_noise(rng, np.zeros((5, 2, 200)), 0.3)
        projected, channels = bank_signal(
            ref_cell, ref_basis, symbols, fading, noise
        )
        signal, magnitudes = derotate(projected, channels)
        amplitudes = np.sqrt(np.asarray(ref_cell.powers))
        gathering_decode(signal, magnitudes, amplitudes, ref_cell.group_of, genie_symbols=levels(symbols))
        expected = (
            channels[0] * math.sqrt(ref_cell.powers[0]) * symbols[0]
            + ref_basis[0] @ noise[0]
        )
        expected = np.conj(channels[0]) / magnitudes[0] * expected  # derotated
        residual = signal[0].view(complex)[:, 0]
        assert np.all(np.abs(residual - expected) <= 1e-12 * np.abs(expected))

    def test_intermediate_estimates_run_high_power_first(self, ref_cell, ref_basis, rng):
        # noiseless: receiver 0 ends with its own signal alone only if it
        # detected user 4, then user 2, exactly right and subtracted both
        symbols = random_symbols(rng, (5, 50))
        fading = draw_fading(rng, 5, blocks=50)
        signal = real_bank(ref_cell, ref_basis, symbols, fading)
        decode_rows(signal, ref_cell)
        own = math.sqrt(ref_cell.powers[0]) * levels(symbols[0])
        np.testing.assert_allclose(signal[0], own, rtol=1e-12)


class TestProjectionEquivalence:
    def test_projection_equals_group_superposition(self, ref_cell, ref_basis):
        rng = np.random.default_rng(9)
        n = 10_000
        symbols = random_symbols(rng, (5, n))
        fading = draw_fading(rng, 5, blocks=n)
        x = mixing_matrix(ref_cell.powers, ref_cell.group_of, ref_basis) @ symbols
        gamma = np.array([1.0 / d**3 for d in REFERENCE_DISTANCES])
        roots = np.sqrt(np.asarray(ref_cell.powers))
        for user in range(5):
            channel = np.sqrt(gamma[user]) * fading[user]
            projected = project(channel * x, ref_basis, ref_cell.group_of[user])
            group = members(ref_cell.group_of)[ref_cell.group_of[user]]
            expected = channel * sum(roots[j] * symbols[j] for j in group)
            np.testing.assert_allclose(projected, expected, rtol=1e-12, atol=1e-15)


class TestPerBlockSic:
    def test_matches_static_plan_for_constant_gains(self, ref_cell, ref_basis):
        rng = np.random.default_rng(13)
        n = 256
        symbols = random_symbols(rng, (5, n))
        fading = draw_fading(rng, 5)  # one draw, constant over the blocks
        gamma = np.array([1.0 / d**3 for d in REFERENCE_DISTANCES])
        gains = gamma * np.abs(fading) ** 2
        noise = 0.05 * (rng.standard_normal((5, 2, n)) + 1j * rng.standard_normal((5, 2, n)))
        signal = real_bank(ref_cell, ref_basis, symbols, fading, noise)
        static = decode_rows(signal.copy(), ref_cell, gains)
        per_block = np.repeat(gains[:, None], n, axis=1)
        dynamic = decode_rows(signal, ref_cell, per_block)
        np.testing.assert_array_equal(static, dynamic)

    def test_blocks_where_user_ranks_last_skip_cancellation(self, ref_cell, ref_basis):
        # gains put user 0 first inside its group on block 0, last on block 1
        gains = np.array(
            [[5.0, 0.1], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [3.0, 3.0]]
        )
        symbols = CONSTELLATION[np.zeros((5, 2), dtype=int)]
        symbols[4] = CONSTELLATION[3]  # strongest-power signal points the other way
        x = mixing_matrix(ref_cell.powers, ref_cell.group_of, ref_basis) @ symbols
        channels = np.ones((5, 1), dtype=complex)
        projected = project(np.broadcast_to(x, (5,) + x.shape), ref_basis, np.asarray(ref_cell.group_of))
        signal = equalise(projected, channels)
        bits = decode_rows(signal, ref_cell, gains)
        # block 0 cancels users 4 and 2, leaving the clean own symbol;
        # block 1 cancels nothing, so user 4's stronger signal dominates
        np.testing.assert_array_equal(bits[0], qpsk_demodulate(CONSTELLATION[[0, 3]]))


class TestDecodeBank:
    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    @pytest.mark.parametrize("fading_mode", ["block", "frame"])
    @pytest.mark.parametrize(
        "distances, group_count",
        [((0.5, 1.5, 2.5, 3.5, 4.5), 2), ((0.4, 0.9, 1.5, 2.2, 3.0, 3.9, 4.8), 3)],
    )
    def test_matches_per_receiver_reference_loop(self, distances, group_count, order_mode, fading_mode):
        rng = np.random.default_rng(31)
        cell = build_cell(distances, 3.0, group_count, 40.0)
        basis = make_basis(group_count)
        count, n = len(distances), 600
        symbols = random_symbols(rng, (count, n))
        fading = draw_fading(rng, count, blocks=n if fading_mode == "block" else 1)
        noise = add_noise(rng, np.zeros((count, group_count, n)), 0.004)
        projected, channels = bank_signal(cell, basis, symbols, fading, noise)
        gamma = np.array(cell.path_gains)
        if order_mode == "distance":
            gains, order = np.repeat(gamma[:, None], n, axis=1), None
        else:
            gains = order = gamma[:, None] * np.abs(fading) ** 2
        expected = reference_sic_bits(projected, channels, cell.powers, cell.group_of, gains)
        signal = equalise(projected, channels)
        bits = decode_rows(signal, cell, order)
        np.testing.assert_array_equal(bits, expected)
        # the run is noisy enough that SIC errors are exercised
        assert 0 < np.count_nonzero(bits != qpsk_demodulate(symbols)) < bits.size // 4

    def test_empty_mask_detects_own_signal_only(self, ref_cell, rng):
        projected = rng.standard_normal((5, 30)) + 1j * rng.standard_normal((5, 30))
        channels = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        signal = equalise(projected, channels)
        untouched = signal.copy()
        # every user alone in its group: nobody ranks ahead of anybody
        bits = decode_rows(signal, replace(ref_cell, group_of=tuple(range(5))))
        np.testing.assert_array_equal(signal, untouched)
        own = minimum_distance_detect(projected, channels, 1.0)
        np.testing.assert_array_equal(bits, qpsk_demodulate(own))

    def test_rejects_mismatched_shapes(self, ref_cell):
        # a row that is not (S, 2): flat, three axes wide, or a whole frame
        for shape in [(16,), (8, 3), (5, 8, 2)]:
            with pytest.raises(ValidationError):
                decode(np.zeros(shape), ref_cell, 0)
        # a receiver outside the cell
        for k in (-1, 5):
            with pytest.raises(ValidationError):
                decode(np.zeros((8, 2)), ref_cell, k)
        # groups that do not match the powers never reach decode: the cell
        # refuses them when it is made
        with pytest.raises(ValidationError):
            replace(ref_cell, group_of=(0, 1, 0))

    @staticmethod
    def frame_decode_peak(signal, cell, order):
        """tracemalloc's peak while every receiver of a (K, S, 2) signal
        decodes its row."""
        tracemalloc.start()
        try:
            bits = [decode(signal[k], cell, k, order) for k in range(len(signal))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bits) == len(signal)
        return peak

    def test_instantaneous_order_memory_stays_near_the_signal(self):
        # the largest cell at T = 4 with per-block order: a (K, K, S) mask
        # took 3.5 times the signal's bytes; the rule needs a few (S,)
        # arrays at a time
        rng = np.random.default_rng(41)
        cell = build_cell([0.5 + 0.25 * k for k in range(16)], 3.0, 4, 40.0)
        gains = np.array(cell.path_gains)[:, None] * rng.exponential(size=(16, 16384))
        signal = rng.standard_normal((16, 16384, 2))
        assert self.frame_decode_peak(signal, cell, gains) < 2 * signal.nbytes

    @pytest.mark.parametrize("order_mode, bound", [("distance", 1.5), ("instantaneous", 2.5)])
    def test_one_group_memory_stays_near_the_signal(self, order_mode, bound):
        # 16 users in one group, where each receiver cancels up to 15
        # interferers: gathering the cancelling rows per interferer took
        # about 4 times the signal's bytes; subtracting in place on each row
        # needs a few one-row buffers
        rng = np.random.default_rng(43)
        cell = build_cell([0.5 + 0.25 * k for k in range(16)], 3.0, 1, 40.0)
        gains = np.array(cell.path_gains)[:, None] * rng.exponential(size=(16, 16384))
        signal = rng.standard_normal((16, 16384, 2))
        order = gains if order_mode == "instantaneous" else None
        assert self.frame_decode_peak(signal, cell, order) < bound * signal.nbytes

    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    def test_row_memory_stays_near_the_row(self, order_mode):
        # receiver 0 of 16 users in one group, which cancels the other 15
        # under distance order: the chain holds one scratch row and the
        # decided bits, 1.13 times the row's bytes, and under instantaneous
        # order its per-block masks too, 1.26 times; with the channel in
        # every cancellation, a second scratch row made it 2.13 and 2.26
        rng = np.random.default_rng(43)
        cell = build_cell([0.5 + 0.25 * k for k in range(16)], 3.0, 1, 40.0)
        gains = np.array(cell.path_gains)[:, None] * rng.exponential(size=(16, 16384))
        row = rng.standard_normal((16384, 2))
        order = gains if order_mode == "instantaneous" else None
        tracemalloc.start()
        try:
            decode(row, cell, 0, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * row.nbytes, peak / row.nbytes


# exact zeros of both signs, which every detection must read as +0.0, and
# finite values around the levels
SIGNAL_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-8.0, 8.0))


@st.composite
def bank_frames(draw):
    """A frame of every receiver's equalised row: 1 to 16 users in free
    groups, 1 to 6 blocks, transmit amplitudes from a small set so that
    powers tie, distance order or instantaneous (K,), (K, 1) or (K, S)
    gains from a small set so that gains tie, a signal seeded with exact
    +0.0 and -0.0."""
    count = draw(st.integers(1, 16))
    group_of = tuple(draw(st.lists(st.integers(0, count - 1), min_size=count, max_size=count)))
    blocks = draw(st.integers(1, 6))
    amps = draw(arrays(np.float64, count, elements=st.sampled_from([0.5, 1.0, 2.0, 3.5])))
    gains_shape = draw(st.sampled_from([None, (count,), (count, 1), (count, blocks)]))
    gains = None
    if gains_shape is not None:
        gains = draw(arrays(np.float64, gains_shape, elements=st.sampled_from([0.25, 1.0, 3.0])))
    signal = draw(arrays(np.float64, (count, blocks, 2), elements=SIGNAL_VALUES))
    return signal, amps, group_of, gains


class TestDecodeMatchesTheGatheringKernel:
    """Each receiver's chain, run on its own row, against the bank that
    gathered the cancelling rows per interferer, at unit channels, where
    the bank's reconstruction (1.0 sqrt(P_j)) LEVEL is decode's level
    sqrt(P_j) LEVEL exactly: the same bits and, byte for byte, the same
    residual."""

    @settings(max_examples=300, deadline=None)
    @given(frame=bank_frames())
    def test_same_bits_and_residual_bytes(self, frame):
        signal, amps, group_of, gains = frame
        # a^2 and sqrt(a^2) are exact on the drawn amplitudes, so the cell
        # gives decode the amplitudes the oracle reads
        cell = Cell((1.0,) * len(amps), tuple(float(a) ** 2 for a in amps), group_of, len(amps))
        expected = signal.copy()
        unit = np.ones((len(amps), 1))
        expected_bits = gathering_decode(expected, unit, amps, group_of, gains)
        residual = signal.copy()
        bits = decode_rows(residual, cell, gains)
        np.testing.assert_array_equal(bits, expected_bits)
        assert residual.tobytes() == expected.tobytes()


@st.composite
def cells(draw):
    """A validated cell: K from 1 to 8 users, T from 1 to K groups."""
    count = draw(st.integers(1, 8))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=count, max_size=count))
    distances = tuple(np.cumsum(steps))
    return SimConfig(
        distances=distances,
        group_count=draw(st.integers(1, count)),
        decoding_order_mode=draw(st.sampled_from(["distance", "instantaneous"])),
        fading_mode=draw(st.sampled_from(["block", "frame"])),
        experiment=draw(st.sampled_from(["ber", "ber_single_user"])),
        snr_grid_db=(draw(st.floats(-10.0, 60.0)),),
    ).validated()


class TestRealBasebandMatchesPhysicalChain:
    """The package simulates r = sum_j sqrt(P_j) x_j + w / |g| per real
    axis, the derotated signal equalised. With the same h, and
    w = conj(h)/|h| * z for a projected complex noise z, it must decide
    every bit as mixing, projection and the complex one-receiver-at-a-time
    SIC loop do."""

    @settings(max_examples=80, deadline=None)
    @given(config=cells(), seed=st.integers(0, 2**32 - 1))
    def test_kernel_decides_what_the_physical_chain_decides(self, config, seed):
        rng = np.random.default_rng(seed)
        cell = build_cell(config.distances, 3.0, config.group_count, config.total_power)
        count, n = cell.user_count, 64
        sigma2 = config.noise_variance(config.snr_grid_db[0])
        single_user = config.experiment == "ber_single_user"
        h = draw_fading(rng, count, blocks=n if config.fading_mode == "block" else 1)
        bits = rng.integers(0, 2, size=(count, 2 * n))
        symbols = qpsk_modulate(bits)
        z = add_noise(rng, np.zeros((count, n)), sigma2)
        gamma = np.array(cell.path_gains)
        gains = gamma[:, None] * np.abs(h) ** 2

        # physical chain: mix, fade, project, add projected noise, SIC
        basis = make_basis(config.group_count)
        mix = mixing_matrix(cell.powers, cell.group_of, basis)
        channels = np.sqrt(gamma)[:, None] * h
        if single_user:
            transmit = mix.T[:, :, None] * symbols[:, None, :]  # each user alone
        else:
            transmit = mix @ symbols
        received = channels[:, None, :] * transmit
        projected = project(received, basis, np.asarray(cell.group_of)) + z
        if config.decoding_order_mode == "distance":
            order = np.broadcast_to(gamma[:, None], (count, n))
        else:
            order = np.broadcast_to(gains, (count, n))
        # a single-user receiver has no group member to cancel
        group_of = range(count) if single_user else cell.group_of
        expected = reference_sic_bits(
            projected, np.broadcast_to(channels, (count, n)), cell.powers, group_of, order
        )

        # real per-axis kernel, receiver by receiver: the equalised noise
        # plus the group's superposed levels, where a single-user run's
        # scene puts every user in a group of its own
        kernel_groups = _scene(config).group_of
        signal = equalise(z, channels)
        signal += received_signal(qpsk_levels(bits), np.ones((count, 1)), amplitudes(cell), kernel_groups)
        order = None if config.decoding_order_mode == "distance" else gains
        decided = decode_rows(signal, replace(cell, group_of=kernel_groups), order)
        np.testing.assert_array_equal(decided, expected)
