"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one `[criterion NN] name: PASS/FAIL` line (run with `pytest -s` to see the
lines as they happen). The heavy Monte Carlo runs are shared module-scoped
fixtures; everything is seeded and deterministic.
"""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from timnoma import (
    SimConfig,
    decode,
    emit_csv,
    hybrid_rate_table,
    run_experiment,
)
from timnoma.harness import WORKERS_ENV

import helpers
from helpers import (
    CONSTELLATION,
    REFERENCE_DISTANCES,
    add_noise,
    derotate,
    draw_fading,
    exact_sum_rates,
    levels,
    matrix_rate_oracle,
    members,
    mixing_matrix,
    project,
    rayleigh_qpsk_ber,
    reference_group_vectors,
    reference_noise_sets,
)

BER_GRID = (32.0, 36.0, 40.0, 44.0)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def hybrid_ber():
    config = SimConfig(snr_grid_db=BER_GRID, experiment="ber")
    return run_experiment(config)


@pytest.fixture(scope="module")
def single_ber():
    config = SimConfig(snr_grid_db=BER_GRID, experiment="ber_single_user")
    return run_experiment(config)


def test_criterion_01_power_conservation(ref_cell):
    # independent re-derivation from the raw distances
    squared = [d * d for d in REFERENCE_DISTANCES]
    expected = [40.0 * s / sum(squared) for s in squared]
    golden = [0.24242, 2.18182, 6.06061, 11.87879, 19.63636]
    conserved = abs(sum(ref_cell.powers) - 40.0) <= 1e-12 * 40.0
    rederived = all(
        abs(got - want) <= 1e-12 for got, want in zip(ref_cell.powers, expected)
    )
    matches_golden = all(
        abs(got - want) <= 1e-5 for got, want in zip(ref_cell.powers, golden)
    )
    passed = conserved and rederived and matches_golden
    report(1, "power conservation", passed, f"sum = {sum(ref_cell.powers)!r} W")
    assert passed


def test_criterion_02_projection_exactness(ref_cell, ref_basis):
    rng = np.random.default_rng(101)
    n = 10_000
    symbols = CONSTELLATION[rng.integers(0, 4, size=(5, n))]
    fading = draw_fading(rng, 5, blocks=n)
    transmit = mixing_matrix(ref_cell.powers, ref_cell.group_of, ref_basis) @ symbols
    gamma = np.array([1.0 / d**3 for d in REFERENCE_DISTANCES])
    roots = np.sqrt(np.asarray(ref_cell.powers))
    worst = 0.0
    for user in range(5):
        channel = np.sqrt(gamma[user]) * fading[user]
        projected = project(channel * transmit, ref_basis, ref_cell.group_of[user])
        group = members(ref_cell.group_of)[ref_cell.group_of[user]]
        expected = channel * sum(roots[j] * symbols[j] for j in group)
        worst = max(worst, float(np.max(np.abs(projected - expected) / np.abs(expected))))
    exact = worst <= 1e-12

    # projected noise keeps its variance
    noise = add_noise(np.random.default_rng(102), np.zeros((2, 100_000)), 0.8)
    variance = float(np.mean(np.abs(ref_basis[0] @ noise) ** 2))
    white = abs(variance - 0.8) <= 0.02 * 0.8

    passed = exact and white
    report(
        2,
        "projection removes other groups exactly, noise stays white",
        passed,
        f"max rel err = {worst:.2e}, projected var = {variance:.4f} vs 0.8",
    )
    assert passed


def test_criterion_03_genie_sic_cancellation(ref_cell, ref_basis):
    rng = np.random.default_rng(103)
    n = 10_000
    symbols = CONSTELLATION[rng.integers(0, 4, size=(5, n))]
    fading = draw_fading(rng, 5, blocks=n)
    noise = add_noise(rng, np.zeros((5, 2, n)), 0.5)
    transmit = mixing_matrix(ref_cell.powers, ref_cell.group_of, ref_basis) @ symbols
    gamma = np.array([1.0 / d**3 for d in REFERENCE_DISTANCES])
    channels = np.sqrt(gamma)[:, None] * fading
    received = channels[:, None, :] * transmit + noise
    group_of = np.asarray(ref_cell.group_of)
    # the receiver works on the derotated real baseband: conj(g)/|g| * r
    signal, magnitudes = derotate(project(received, ref_basis, group_of), channels)
    scale = np.hypot(signal[..., 0], signal[..., 1])
    amplitudes = np.sqrt(np.asarray(ref_cell.powers))
    genie = levels(symbols)
    for k in range(5):  # each receiver's chain on its own row, |g_k| on both axes
        channel = np.repeat(magnitudes[k][:, np.newaxis], 2, axis=1)
        decode(signal[k], channel, amplitudes, ref_cell.group_of, k, genie_symbols=genie)
    residual = signal.view(complex)[..., 0]
    # after genie cancellation each receiver keeps its own signal, the
    # same-group signals ranked before it, and its projected noise
    worst = 0.0
    for k in range(5):
        kept = sorted(reference_noise_sets()[k] + [k])
        own_and_uncancelled = amplitudes[kept] @ symbols[kept]
        expected = channels[k] * own_and_uncancelled + ref_basis[group_of[k]] @ noise[k]
        expected = np.conj(channels[k]) / magnitudes[k] * expected
        worst = max(worst, float(np.max(np.abs(residual[k] - expected) / scale[k])))
    passed = worst <= 1e-12
    report(3, "genie-aided SIC cancels exactly", passed, f"max scaled err = {worst:.2e}")
    assert passed


def test_criterion_04_single_user_rayleigh_oracle():
    grid = (0.0, 3.0, 6.0, 9.0, 12.0)
    config = SimConfig(
        distances=(1.0,), group_count=1, snr_grid_db=grid, experiment="ber"
    )
    result = run_experiment(config)
    bits = config.frames * config.bits_per_frame
    assert bits >= 3_000_000
    worst_sigma = 0.0
    for snr in grid:
        mean_bit_snr = 10.0 ** (snr / 10.0) / 2.0  # P_T*gamma/(2 sigma^2)
        expected = rayleigh_qpsk_ber(mean_bit_snr)
        measured = helpers.row(result, snr, "1", "ber").value
        stderr = math.sqrt(expected * (1 - expected) / bits)
        worst_sigma = max(worst_sigma, abs(measured - expected) / stderr)
    passed = worst_sigma <= 3.0
    report(
        4,
        "end-to-end BER matches the Rayleigh QPSK closed form",
        passed,
        f"worst |z| = {worst_sigma:.2f} over {len(grid)} points x {bits} bits",
    )
    assert passed


def test_criterion_05_per_user_ber_ordering(hybrid_ber):
    in_window = []
    for snr in BER_GRID:
        aggregate = helpers.row(hybrid_ber, snr, "sum", "ber").value
        if 1e-3 <= aggregate <= 1e-1:
            in_window.append(snr)
    ordered_with_sigma = True
    chain_holds = True
    details = []
    for snr in in_window:
        rows = [helpers.row(hybrid_ber, snr, str(k + 1), "ber") for k in range(5)]
        values = [r.value for r in rows]
        separation = (values[4] - values[0]) / math.hypot(rows[0].stderr, rows[4].stderr)
        ordered_with_sigma &= separation >= 3.0
        chain_holds &= all(a <= b for a, b in zip(values, values[1:]))
        details.append(f"{snr:g} dB: {['%.4f' % v for v in values]} sep {separation:.0f} sigma")
    passed = bool(in_window) and ordered_with_sigma and chain_holds
    report(
        5,
        "nearer users decode more reliably",
        passed,
        f"{len(in_window)} in-window points; " + " | ".join(details),
    )
    assert in_window, "no SNR point fell into the aggregate BER window"
    assert passed


def test_criterion_06_single_user_dominance(hybrid_ber, single_ber):
    dominance = True
    details = []
    improvements = {1: [], 5: []}
    for snr in BER_GRID:
        for user in (1, 5):
            hybrid_row = helpers.row(hybrid_ber, snr, str(user), "ber")
            single_row = helpers.row(single_ber, snr, str(user), "ber_single")
            combined = math.hypot(hybrid_row.stderr, single_row.stderr)
            if single_row.value > hybrid_row.value + 3.0 * combined:
                dominance = False
            improvements[user].append(hybrid_row.value - single_row.value)
        details.append(
            f"{snr:g} dB: imp1 {improvements[1][-1]:.5f} imp5 {improvements[5][-1]:.5f}"
        )
    edge_gains_more = all(
        imp5 > imp1 for imp1, imp5 in zip(improvements[1], improvements[5])
    )
    passed = dominance and edge_gains_more
    report(
        6,
        "shutting others down never hurts, and helps the edge user more",
        passed,
        " | ".join(details),
    )
    assert passed


def test_criterion_07_rate_golden_values(ref_cell):
    fading = np.ones(5, dtype=complex)
    # confirm the goldens live against the brute-force matrix oracle first
    oracle = matrix_rate_oracle(
        REFERENCE_DISTANCES, 3.0, 40.0, 1.0, fading,
        reference_noise_sets(), reference_group_vectors(),
    )
    golden = (
        0.7777593614143372,
        0.3596857670757340,
        0.2333541361811778,
        0.1687928609960864,
        0.1324467655631778,
    )
    oracle_consistent = all(abs(o - g) <= 1e-12 for o, g in zip(oracle, golden))
    # one realization is the rate table at N = 1
    rates = hybrid_rate_table(ref_cell, np.abs(fading)[None] ** 2, 1.0)[0]
    within = all(abs(r - g) <= 1e-4 for r, g in zip(rates, golden))
    passed = oracle_consistent and within
    report(
        7,
        "fixed-channel rates hit the oracle-confirmed goldens",
        passed,
        "rates = " + ", ".join(f"{r:.6f}" for r in rates),
    )
    assert passed


def test_criterion_08_rate_ordering():
    config = SimConfig(
        frames=10_000,
        snr_grid_db=tuple(float(s) for s in range(0, 71, 10)),
        experiment="rate",
    )
    result = run_experiment(config)
    passed = True
    for snr in config.snr_grid_db:
        means = [helpers.row(result, snr, str(k + 1), "rate").value for k in range(5)]
        if not all(a > b for a, b in zip(means, means[1:])):
            passed = False
    report(
        8,
        "fading-averaged rates fall with distance at every SNR",
        passed,
        f"{len(config.snr_grid_db)} points x {config.frames} realizations",
    )
    assert passed


def test_criterion_09_sum_rate_ratio_asymptote():
    config = SimConfig(
        frames=10_000,
        snr_grid_db=tuple(float(s) for s in range(0, 71, 10)),
        experiment="ratio",
    )
    result = run_experiment(config)
    rows = [helpers.row(result, snr, "sum", "rate_ratio") for snr in config.snr_grid_db]
    ratios = [row.value for row in rows]

    def exact_ratio(snr_db):
        hybrid, tdma = exact_sum_rates(
            config.distances, config.path_loss_exponent, config.total_power,
            config.noise_variance(snr_db), reference_noise_sets(), config.group_count,
        )
        return hybrid / tdma

    exact = [exact_ratio(snr) for snr in config.snr_grid_db]
    worst_sigma = max(abs(row.value - e) / row.stderr for row, e in zip(rows, exact))
    agrees = worst_sigma <= 4.0
    # the paper's claim: at least 100% more sum rate than TDMA at high SNR
    doubled = all(r >= 2.0 for snr, r in zip(config.snr_grid_db, ratios) if snr >= 30.0)
    # rises to one peak at 40 dB, then strictly decreases through 70 dB
    peak = ratios.index(max(ratios))
    single_peak = (
        config.snr_grid_db[peak] == 40.0
        and all(a < b for a, b in zip(ratios[: peak + 1], ratios[1 : peak + 1]))
        and all(a > b for a, b in zip(ratios[peak:], ratios[peak + 1 :]))
    )
    # beyond the grid the exact ratio approaches its limit 2 from above
    tail = [exact[-1]] + [exact_ratio(snr) for snr in (80.0, 90.0, 100.0, 200.0)]
    from_above = all(r > 2.0 for r in tail) and all(a > b for a, b in zip(tail, tail[1:]))

    curve = ", ".join(f"{snr:g}:{r:.3f}" for snr, r in zip(config.snr_grid_db, ratios))
    exact_curve = ", ".join(f"{snr:g}:{e:.4f}" for snr, e in zip(config.snr_grid_db, exact))
    passed = agrees and doubled and single_peak and from_above
    report(
        9,
        "hybrid/TDMA ratio matches its exact E1 closed form, is >= 2 from 30 dB "
        "and peaks at 40 dB",
        passed,
        f"worst |z| = {worst_sigma:.2f}, curve [{curve}]",
    )
    assert passed, (
        f"agrees within 4 stderr: {agrees} (worst |z| = {worst_sigma:.2f}); "
        f">= 2 from 30 dB: {doubled}; single peak at 40 dB: {single_peak}; "
        f"exact tail decreasing above 2: {from_above}; Monte Carlo [{curve}], "
        f"exact [{exact_curve}]; the exact oracle is exact_sum_rates in "
        "tests/helpers.py and the README's Tests section describes the curve"
    )


def test_criterion_10_degrees_of_freedom(ref_cell):
    # a rate's pre-log is its rise, in bits per slot, when the SNR doubles:
    # log2(1 + 2x) - log2(1 + x) tends to 1 as x grows, times the 1/T
    # prefactor. At sigma^2 = 1e-20 every x is above 1e19.
    gains = np.ones((1, 5))
    slots = ref_cell.slots

    def rise(rates_at):
        return rates_at(0.5e-20) - rates_at(1e-20)

    single = rise(lambda sigma2: hybrid_rate_table(helpers.lone_cell(ref_cell, 40.0), gains, sigma2)[0])
    hybrid = rise(lambda sigma2: hybrid_rate_table(ref_cell, gains, sigma2)[0])
    each_alone = all(abs(r - 1.0 / slots) <= 1e-12 for r in single)
    all_together = abs(float(np.sum(single)) - 5 / slots) <= 5e-12
    # one user per group keeps an SINR that grows without bound
    hybrid_sum = abs(float(np.sum(hybrid)) - slots * (1.0 / slots)) <= 5e-12
    passed = each_alone and all_together and hybrid_sum
    report(
        10,
        "measured pre-logs: each user alone 1/T, all K together K/T, hybrid sum T*(1/T) = 1",
        passed,
        "single-user " + ", ".join(f"{r:.12f}" for r in single)
        + "; hybrid " + ", ".join(f"{r:.12f}" for r in hybrid),
    )
    assert passed


def test_criterion_11_byte_identical_csv(monkeypatch):
    def csv_for(config, workers):
        monkeypatch.setenv(WORKERS_ENV, str(workers))
        result = run_experiment(config)
        buffer = io.StringIO()
        emit_csv(result, buffer)
        return buffer.getvalue().encode()

    ber = SimConfig(frames=5, bits_per_frame=256, snr_grid_db=(20.0, 30.0))
    ratio = replace(ber, experiment="ratio", frames=400)
    passed = True
    for config in (ber, ratio):
        reference = csv_for(config, 1)
        passed &= csv_for(config, 1) == reference  # same worker count, rerun
        passed &= csv_for(config, 2) == reference  # different worker count
    report(11, "identical config and seed give identical bytes", passed)
    assert passed
