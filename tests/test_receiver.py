import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timnoma import (
    CONSTELLATION,
    GroupAssignment,
    NoiseModel,
    SimConfig,
    ValidationError,
    allocate_power,
    assign_groups,
    build_topology,
    cancel_mask,
    decode,
    path_loss,
    qpsk_modulate,
)
from timnoma.harness import _received, _scene

from helpers import (
    add_noise,
    derotate,
    draw_fading,
    levels,
    make_basis,
    minimum_distance_detect,
    mixing_matrix,
    project,
    qpsk_demodulate,
    reference_sic_bits,
)


def random_symbols(rng, shape):
    return CONSTELLATION[rng.integers(0, 4, size=shape)]


def one_group(count):
    return GroupAssignment(tuple([0] * count), (tuple(range(count)),))


def cancel_sets(mask):
    """Users each receiver cancels, in sweep order (descending power)."""
    return tuple(tuple(int(j) for j in np.flatnonzero(row[:, 0])[::-1]) for row in mask)


def noise_sets(mask):
    """Same-group users ranked before each receiver: never cancelled."""
    return tuple(tuple(int(j) for j in np.flatnonzero(mask[:, k, 0])) for k in range(len(mask)))


def amplitudes(power):
    return np.sqrt(np.asarray(power.per_user))


def bank_signal(topology, power, groups, basis, symbols, fading, noise=None):
    """Every receiver's projected signal and effective channel, (K, S) each,
    through the physical chain: mixing, channel, noise, projection."""
    count = topology.user_count
    gamma = np.array([path_loss(topology, k) for k in range(count)])
    channels = np.sqrt(gamma)[:, None] * np.reshape(fading, (count, -1))
    received = channels[:, None, :] * (mixing_matrix(power, groups, basis) @ symbols)
    if noise is not None:
        received = received + noise
    return project(received, basis, np.asarray(groups.group_of)), channels


def real_bank(*args, **kwargs):
    """The derotated (K, S, 2) signal and the |g| the receiver bank takes."""
    return derotate(*bank_signal(*args, **kwargs))


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

    def test_bank_projects_each_receiver_on_its_own_group(self, ref_basis, ref_groups, rng):
        received = rng.standard_normal((5, 2, 40)) + 1j * rng.standard_normal((5, 2, 40))
        bank = project(received, ref_basis, np.asarray(ref_groups.group_of))
        assert bank.shape == (5, 40)
        for k, group in enumerate(ref_groups.group_of):
            np.testing.assert_allclose(bank[k], ref_basis[group] @ received[k], rtol=1e-14)


class TestDecodingOrder:
    # one group of users, so the mask is the decoding order itself:
    # mask[k, j] says j ranks after k

    def test_reference_gains(self):
        gains = [8.0, 0.29630, 0.064, 0.02332, 0.01097]
        mask = cancel_mask(one_group(5), gains)[:, :, 0]
        np.testing.assert_array_equal(mask, np.triu(np.ones((5, 5), dtype=bool), k=1))

    def test_ties_break_by_index(self):
        mask = cancel_mask(one_group(3), [1.0, 1.0, 1.0])[:, :, 0]
        np.testing.assert_array_equal(mask, np.triu(np.ones((3, 3), dtype=bool), k=1))

    def test_fading_can_flip_the_order(self):
        mask = cancel_mask(one_group(2), [1.0, 5.0])[:, :, 0]
        np.testing.assert_array_equal(mask, [[False, False], [True, False]])


def ml_detect(residual, channel):
    """The receiver bank with nothing to cancel, on the derotated signal of
    complex residuals and channels: one QPSK decision per entry."""
    residual = np.atleast_1d(residual)
    channel = np.broadcast_to(channel, residual.shape)
    signal, magnitudes = derotate(residual[np.newaxis], channel[np.newaxis])
    bits = decode(signal, magnitudes, [1.0], np.zeros((1, 1, 1), dtype=bool))[0]
    decided = CONSTELLATION[2 * bits[0::2] + bits[1::2]]
    return complex(decided[0]) if decided.shape == (1,) else decided


class TestMlDetect:
    """ML detection is the bank's per-axis sign test on the derotated
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
    def test_distance_order_reference_cell(self, ref_groups):
        mask = cancel_mask(ref_groups)
        assert mask.shape == (5, 5, 1)
        assert cancel_sets(mask) == ((4, 2), (3,), (4,), (), ())
        assert noise_sets(mask) == ((), (), (0,), (1,), (0, 2))

    def test_sets_partition_the_group(self, ref_groups):
        mask = cancel_mask(ref_groups)
        cancels, noises = cancel_sets(mask), noise_sets(mask)
        for user in range(5):
            combined = set(cancels[user]) | set(noises[user]) | {user}
            assert combined == set(ref_groups.members[ref_groups.group_of[user]])
            assert not set(cancels[user]) & set(noises[user])

    def test_flipped_order_swaps_sets(self, ref_groups):
        # gains rising with index reverse the order to (4, 3, 2, 1, 0)
        mask = cancel_mask(ref_groups, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert cancel_sets(mask)[4] == (2, 0)
        assert noise_sets(mask)[0] == (2, 4)

    def test_cancellation_runs_strongest_power_first(
        self, ref_topology, ref_power, ref_groups, ref_basis
    ):
        # receiver 0 must cancel user 4 before user 2: detecting user 2
        # first, under user 4's stronger opposite-sign signal, would flip it
        # and then every later decision on that axis
        symbols = CONSTELLATION[[0, 0, 0, 0, 3]][:, None]
        fading = np.ones(5, dtype=complex)
        signal, magnitudes = real_bank(
            ref_topology, ref_power, ref_groups, ref_basis, symbols, fading
        )
        bits = decode(signal, magnitudes, amplitudes(ref_power), cancel_mask(ref_groups))
        np.testing.assert_array_equal(bits[0], [False, False])
        own = magnitudes[0, :, None] * math.sqrt(ref_power.per_user[0]) * levels(symbols[0])
        np.testing.assert_allclose(signal[0], own, rtol=1e-12)


class TestSicDecode:
    def test_noiseless_chain_recovers_every_user(
        self, ref_topology, ref_power, ref_groups, ref_basis, rng
    ):
        symbols = random_symbols(rng, (5, 50))
        fading = draw_fading(rng, 5, blocks=50)
        signal, magnitudes = real_bank(
            ref_topology, ref_power, ref_groups, ref_basis, symbols, fading
        )
        bits = decode(signal, magnitudes, amplitudes(ref_power), cancel_mask(ref_groups))
        np.testing.assert_array_equal(bits, qpsk_demodulate(symbols))

    def test_strongest_power_user_detects_without_cancelling(
        self, ref_topology, ref_power, ref_groups, ref_basis, rng
    ):
        symbols = random_symbols(rng, (5, 1))
        fading = draw_fading(rng, 5)
        signal, magnitudes = real_bank(
            ref_topology, ref_power, ref_groups, ref_basis, symbols, fading
        )
        projected = signal.copy()
        mask = cancel_mask(ref_groups)
        decode(signal, magnitudes, amplitudes(ref_power), mask)
        assert cancel_sets(mask)[4] == ()
        np.testing.assert_array_equal(signal[4, 0], projected[4, 0])

    def test_middle_user_cancels_exactly_one(
        self, ref_topology, ref_power, ref_groups, ref_basis, rng
    ):
        # user 2 subtracts only the strongest group member, absorbs user 0
        symbols = random_symbols(rng, (5, 1))
        fading = draw_fading(rng, 5)
        signal, magnitudes = real_bank(
            ref_topology, ref_power, ref_groups, ref_basis, symbols, fading
        )
        mask = cancel_mask(ref_groups)
        decode(signal, magnitudes, amplitudes(ref_power), mask)
        assert cancel_sets(mask)[2] == (4,)
        # the residual still carries user 0's signal (treated as noise)
        leftover = magnitudes[2, 0] * (
            math.sqrt(ref_power.per_user[0]) * levels(symbols[0, 0])
            + math.sqrt(ref_power.per_user[2]) * levels(symbols[2, 0])
        )
        np.testing.assert_allclose(signal[2, 0], leftover, rtol=1e-12)

    def test_genie_cancellation_leaves_own_signal_plus_noise(
        self, ref_topology, ref_power, ref_groups, ref_basis
    ):
        rng = np.random.default_rng(5)
        symbols = random_symbols(rng, (5, 200))
        fading = draw_fading(rng, 5, blocks=200)
        noise = add_noise(rng, np.zeros((5, 2, 200)), NoiseModel(0.3))
        projected, channels = bank_signal(
            ref_topology, ref_power, ref_groups, ref_basis, symbols, fading, noise
        )
        signal, magnitudes = derotate(projected, channels)
        decode(signal, magnitudes, amplitudes(ref_power), cancel_mask(ref_groups),
               genie_symbols=levels(symbols))
        expected = (
            channels[0] * math.sqrt(ref_power.per_user[0]) * symbols[0]
            + ref_basis[0] @ noise[0]
        )
        expected = np.conj(channels[0]) / magnitudes[0] * expected  # derotated
        residual = signal[0].view(complex)[:, 0]
        assert np.all(np.abs(residual - expected) <= 1e-12 * np.abs(expected))

    def test_intermediate_estimates_run_high_power_first(
        self, ref_topology, ref_power, ref_groups, ref_basis, rng
    ):
        # noiseless: receiver 0 ends with its own signal alone only if it
        # detected user 4, then user 2, exactly right and subtracted both
        symbols = random_symbols(rng, (5, 50))
        fading = draw_fading(rng, 5, blocks=50)
        signal, magnitudes = real_bank(
            ref_topology, ref_power, ref_groups, ref_basis, symbols, fading
        )
        decode(signal, magnitudes, amplitudes(ref_power), cancel_mask(ref_groups))
        own = magnitudes[0, :, None] * math.sqrt(ref_power.per_user[0]) * levels(symbols[0])
        np.testing.assert_allclose(signal[0], own, rtol=1e-12)


class TestProjectionEquivalence:
    def test_projection_equals_group_superposition(
        self, ref_topology, ref_power, ref_groups, ref_basis
    ):
        rng = np.random.default_rng(9)
        n = 10_000
        symbols = random_symbols(rng, (5, n))
        fading = draw_fading(rng, 5, blocks=n)
        x = mixing_matrix(ref_power, ref_groups, ref_basis) @ symbols
        gamma = np.array([1.0 / d**3 for d in ref_topology.distances])
        roots = np.sqrt(np.asarray(ref_power.per_user))
        for user in range(5):
            channel = np.sqrt(gamma[user]) * fading[user]
            projected = project(channel * x, ref_basis, ref_groups.group_of[user])
            members = ref_groups.members[ref_groups.group_of[user]]
            expected = channel * sum(roots[j] * symbols[j] for j in members)
            np.testing.assert_allclose(projected, expected, rtol=1e-12, atol=1e-15)


class TestPerBlockSic:
    def test_matches_static_plan_for_constant_gains(
        self, ref_topology, ref_power, ref_groups, ref_basis
    ):
        rng = np.random.default_rng(13)
        n = 256
        symbols = random_symbols(rng, (5, n))
        fading = draw_fading(rng, 5)  # one draw, constant over the blocks
        gamma = np.array([1.0 / d**3 for d in ref_topology.distances])
        gains = gamma * np.abs(fading) ** 2
        noise = 0.05 * (rng.standard_normal((5, 2, n)) + 1j * rng.standard_normal((5, 2, n)))
        signal, magnitudes = real_bank(
            ref_topology, ref_power, ref_groups, ref_basis, symbols, fading, noise
        )
        static = decode(signal.copy(), magnitudes, amplitudes(ref_power), cancel_mask(ref_groups, gains))
        per_block = cancel_mask(ref_groups, np.repeat(gains[:, None], n, axis=1))
        dynamic = decode(signal, magnitudes, amplitudes(ref_power), per_block)
        np.testing.assert_array_equal(static, dynamic)

    def test_blocks_where_user_ranks_last_skip_cancellation(
        self, ref_topology, ref_power, ref_groups, ref_basis
    ):
        # gains put user 0 first inside its group on block 0, last on block 1
        gains = np.array(
            [[5.0, 0.1], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [3.0, 3.0]]
        )
        symbols = CONSTELLATION[np.zeros((5, 2), dtype=int)]
        symbols[4] = CONSTELLATION[3]  # strongest-power signal points the other way
        x = mixing_matrix(ref_power, ref_groups, ref_basis) @ symbols
        channels = np.ones((5, 1), dtype=complex)
        projected = project(np.broadcast_to(x, (5,) + x.shape), ref_basis, np.asarray(ref_groups.group_of))
        signal, magnitudes = derotate(projected, channels)
        bits = decode(signal, magnitudes, amplitudes(ref_power), cancel_mask(ref_groups, gains))
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
        topology = build_topology(distances, 5.0, 3.0, group_count)
        groups, power = assign_groups(topology), allocate_power(topology, 40.0)
        basis = make_basis(group_count)
        count, n = len(distances), 600
        symbols = random_symbols(rng, (count, n))
        fading = draw_fading(rng, count, blocks=n if fading_mode == "block" else 1)
        noise = add_noise(rng, np.zeros((count, group_count, n)), NoiseModel(0.004))
        projected, channels = bank_signal(topology, power, groups, basis, symbols, fading, noise)
        gamma = np.array([path_loss(topology, k) for k in range(count)])
        if order_mode == "distance":
            gains, mask = np.repeat(gamma[:, None], n, axis=1), cancel_mask(groups)
        else:
            gains = gamma[:, None] * np.abs(fading) ** 2
            mask = cancel_mask(groups, gains)
        expected = reference_sic_bits(projected, channels, power.per_user, groups.group_of, gains)
        signal, magnitudes = derotate(projected, channels)
        bits = decode(signal, magnitudes, amplitudes(power), mask)
        np.testing.assert_array_equal(bits, expected)
        # the run is noisy enough that SIC errors are exercised
        assert 0 < np.count_nonzero(bits != qpsk_demodulate(symbols)) < bits.size // 4

    def test_empty_mask_detects_own_signal_only(self, ref_power, rng):
        projected = rng.standard_normal((5, 30)) + 1j * rng.standard_normal((5, 30))
        channels = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        signal, magnitudes = derotate(projected, channels)
        untouched = signal.copy()
        bits = decode(signal, magnitudes, amplitudes(ref_power), np.zeros((5, 5, 1), dtype=bool))
        np.testing.assert_array_equal(signal, untouched)
        own = minimum_distance_detect(projected, channels, 1.0)
        np.testing.assert_array_equal(bits, qpsk_demodulate(own))

    def test_rejects_mismatched_shapes(self, ref_power, ref_groups):
        with pytest.raises(ValidationError):
            decode(np.zeros((4, 8, 2)), np.ones((4, 1)), amplitudes(ref_power),
                   cancel_mask(ref_groups))
        with pytest.raises(ValidationError):
            decode(np.zeros((5, 16)), np.ones((5, 1)), amplitudes(ref_power),
                   cancel_mask(ref_groups))


@st.composite
def cells(draw):
    """A validated cell: K from 1 to 8 users, T from 1 to K groups."""
    count = draw(st.integers(1, 8))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=count, max_size=count))
    distances = tuple(np.cumsum(steps))
    return SimConfig(
        distances=distances,
        cell_radius=float(distances[-1]) + 1.0,
        group_count=draw(st.integers(1, count)),
        decoding_order_mode=draw(st.sampled_from(["distance", "instantaneous"])),
        fading_mode=draw(st.sampled_from(["block", "frame"])),
        experiment=draw(st.sampled_from(["ber", "ber_single_user"])),
        snr_grid_db=(draw(st.floats(-10.0, 60.0)),),
        bits_per_frame=1680,  # divisible by 2T for every T up to 8
    ).validated()


class TestRealBasebandMatchesPhysicalChain:
    """The package simulates r = |g| * sum_j sqrt(P_j) x_j + w per real axis.
    With the same h, and w = conj(h)/|h| * z for a projected complex noise
    z, it must decide every bit as mixing, projection and the complex
    one-receiver-at-a-time SIC loop do."""

    @settings(max_examples=80, deadline=None)
    @given(config=cells(), seed=st.integers(0, 2**32 - 1))
    def test_kernel_decides_what_the_physical_chain_decides(self, config, seed):
        rng = np.random.default_rng(seed)
        topology = build_topology(config.distances, config.cell_radius, 3.0, config.group_count)
        groups, power = assign_groups(topology), allocate_power(topology, config.total_power)
        count, n = topology.user_count, 64
        sigma2 = config.noise_variance(config.snr_grid_db[0])
        single_user = config.experiment == "ber_single_user"
        h = draw_fading(rng, count, blocks=n if config.fading_mode == "block" else 1)
        symbols = qpsk_modulate(rng.integers(0, 2, size=(count, 2 * n)))
        z = add_noise(rng, np.zeros((count, n)), NoiseModel(sigma2))
        gamma = np.array([path_loss(topology, k) for k in range(count)])
        gains = gamma[:, None] * np.abs(h) ** 2

        # physical chain: mix, fade, project, add projected noise, SIC
        basis = make_basis(config.group_count)
        mix = mixing_matrix(power, groups, basis)
        channels = np.sqrt(gamma)[:, None] * h
        if single_user:
            transmit = mix.T[:, :, None] * symbols[:, None, :]  # each user alone
        else:
            transmit = mix @ symbols
        received = channels[:, None, :] * transmit
        projected = project(received, basis, np.asarray(groups.group_of)) + z
        if config.decoding_order_mode == "distance":
            order = np.broadcast_to(gamma[:, None], (count, n))
        else:
            order = np.broadcast_to(gains, (count, n))
        # a single-user receiver has no group member to cancel
        group_of = range(count) if single_user else groups.group_of
        expected = reference_sic_bits(
            projected, np.broadcast_to(channels, (count, n)), power.per_user, group_of, order
        )

        # real per-axis kernel, as the harness builds it: a single-user
        # run's scene puts every user in a group of its own
        _topology, kernel_groups, _power = _scene(config)
        magnitudes = np.sqrt(gains)
        w = levels(np.conj(h) / np.abs(h) * z)
        signal = _received(symbols, magnitudes, amplitudes(power), kernel_groups) + w
        if config.decoding_order_mode == "distance":
            mask = cancel_mask(kernel_groups)
        else:
            mask = cancel_mask(kernel_groups, gains)
        bits = decode(signal, magnitudes, amplitudes(power), mask)
        np.testing.assert_array_equal(bits, expected)
