"""The Monte Carlo's work units and their reducers: a range of BER
frames and a range of rate chunks, each evaluated at every SNR point.

It imports numpy at the top, as do ``receiver`` and ``analytics``, which
it imports. ``harness.run_experiment`` imports it once per run, after the
config and the worker count have passed their checks and before the pool
forks, so the pool's workers inherit numpy instead of importing it again
(all but ``numpy.random``, which numpy loads lazily and each worker's
first draw imports), and a run that is refused never loads it.

Item i of a run, BER frame or rate chunk, draws from its own (seed, i)
substream, whatever the SNR grid, and is evaluated at every SNR point:
common random numbers, so an item's draws cost the same at one point as
at a whole grid, and rows are correlated across SNR but depend on the
seed, the item count and their own SNR alone. A work unit is a
contiguous range of items.

Fading is Rayleigh, and only its power gain is drawn. A unit-variance
circularly symmetric h is (X + jY)/sqrt(2) with X, Y ~ N(0, 1)
independent, so |h|^2 = (X^2 + Y^2)/2. X^2 + Y^2 is chi-squared with two
degrees of freedom, which is exponential with mean 2, so |h|^2 ~ Exp(1).
Nothing reads the phase: the rate formulas read |h|^2, and a receiver
that derotates by conj(h)/|h| sees |g| = sqrt(gamma |h|^2) on each real
axis with the noise still N(0, sigma^2/2) per axis. So one
``rng.standard_exponential((K, blocks))`` call draws a frame's or a
chunk's gains, user by user, each user's blocks in a row.

A BER frame is simulated on the derotated real baseband (see ``receiver``):
projection cancels the other groups exactly, so receiver k's signal on
each real axis is |g_k| times its group's superposed levels plus
N(0, sigma^2/2) noise. The frame builds it equalised, divided by |g_k|:
the plain levels plus noise scaled by sigma / (sqrt(2) |g_k|), so the
channel is read here and nowhere else. Frame f draws the power gains
|h|^2, then the bits, then, receiver by receiver, an (S, 2) row of
standard normals for the noise, K row draws that take what one (K, S, 2)
draw would from the stream. Each receiver's row is equalised once and
then decoded at every SNR point, scaled by that point's sigma. A unit
(``_ber_frames``) returns integer error counts, which ``_ber_rows`` sums
over the units into rows whose stderr comes from the per-frame counts. A
single-user BER run is the same simulation on a scene where every user
is a group of one, so nothing is cancelled or absorbed; it differs from
the hybrid run only by that scene and by having no ``sum`` row.

Rates run over chunks of ``_RATE_CHUNK`` (16 384) realizations. A unit
(``_rate_chunks``) draws each chunk into one (K, chunk) buffer and
writes each point's tables, the lone-user one first for ``ratio`` and
then the hybrid one, into a second, so its working memory is two such
buffers whatever the realization count. It returns each (point, chunk)
pair's own moments, 2K + 5 floats, which ``_rate_rows`` folds in chunk
order into each point's rows; ``SimConfig.validated()`` bounds the
pairs, and so those statistics, at 2**18.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .analytics import hybrid_rate_table
from .harness import _RATE_CHUNK, ResultRow, SimConfig, _scene
from .receiver import LEVEL, decode


def _ber_frames(config: SimConfig, start: int, stop: int) -> tuple:
    """Error counts of frames ``start`` to ``stop - 1`` at every SNR point:
    a BER work unit. Returns (errors, squares), each a list over the grid's
    points of one Python int per user and one for the whole frame, the
    hybrid scheme's ``sum`` row: the sum of the frames' error counts and of
    their squares.

    Frame f draws from ``SeedSequence((seed, f))``, whatever the grid, so a
    row depends on the seed, the frame count and its own SNR alone. A frame
    first zeroes its group totals, (S, 2) like a row, and adds to each, in
    ascending user order, its members' signed amplitudes (1 - 2 b) sqrt(P_j)
    LEVEL, which are their QPSK levels (bit 0 -> +, 1 -> -) times
    sqrt(P_j). Then it runs the receivers one by one. Receiver k's normals
    are drawn into the kept noise row and divided, block by block, by
    sqrt(2) |g_k|, the noise's scale in the equalised row at sigma = 1.
    The work row holds that divisor first. Then at each SNR point, in grid
    order, the kept row times sigma goes into the work row, k's group total
    is added, which is what is left of the transmit after projection and
    equalisation, and SIC decides from it and leaves the residual in it.
    The group sums are loops over at most K users and the rest is
    elementwise, so no BLAS call runs per frame.
    """
    cell = _scene(config)
    count, group_of = cell.user_count, cell.group_of
    symbols_per_frame = config.bits_per_frame // 2
    gamma = np.array(cell.path_gains)[:, np.newaxis]
    levels = [math.sqrt(p) * LEVEL for p in cell.powers]
    sigmas = [math.sqrt(config.noise_variance(snr_db)) for snr_db in config.snr_grid_db]
    blocks = symbols_per_frame if config.fading_mode == "block" else 1
    per_frame_order = config.decoding_order_mode == "instantaneous"
    # receiver k's noise at sigma = 1 and its work row: block s is [s, 0] on
    # the real axis and [s, 1] on the imaginary axis, equalised
    noise, row = np.empty((symbols_per_frame, 2)), np.empty((symbols_per_frame, 2))
    # sqrt(2) |g_k| on both axes of each block, in the work row before the
    # SNR points use it; under frame fading one (1, 1) value, so the copy to
    # the second axis is empty
    divisor = row[:blocks, : 2 if blocks > 1 else 1]
    # each group's superposed levels, summed afresh each frame; a fresh
    # array per frame measured slower: glibc hands its pages back to the
    # OS when the frame frees them, and the next frame faults them in again
    totals = np.empty((max(group_of) + 1, symbols_per_frame, 2))
    # per point: per user, then for the whole frame
    errors = [[0] * (count + 1) for _ in sigmas]
    squares = [[0] * (count + 1) for _ in sigmas]
    for frame in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, frame)))
        gains = rng.standard_exponential((count, blocks))  # |h|^2, (K, S) or (K, 1)
        gains *= gamma
        # int32 draws the same bits as int64 and leaves the stream in place
        bits = rng.integers(0, 2, size=(count, config.bits_per_frame), dtype=np.int32)
        totals.fill(0.0)
        for user, group in enumerate(group_of):
            totals[group] += (1 - 2 * bits[user].reshape(-1, 2)) * levels[user]
        frame_errors = [[0] * count for _ in sigmas]
        # K row draws take what one (K, S, 2) draw would from the stream
        for k, group in enumerate(group_of):
            rng.standard_normal(out=noise)
            np.multiply(gains[k], 2.0, out=divisor[:, 0])
            np.sqrt(divisor[:, 0], out=divisor[:, 0])
            divisor[:, 1:] = divisor[:, :1]
            # a gain of exactly 0.0, about once in 2**53 draws, makes the
            # row infinite: it is then its noise's sign, as unequalised
            with np.errstate(divide="ignore"):
                noise /= divisor
            for point, sigma in enumerate(sigmas):
                np.multiply(noise, sigma, out=row)
                row += totals[group]
                decided = decode(row, cell, k, gains if per_frame_order else None)
                frame_errors[point][k] = int(np.count_nonzero(decided != bits[k]))
        for point, counts in enumerate(frame_errors):
            counts.append(sum(counts))
            for entity, frame_count in enumerate(counts):
                errors[point][entity] += frame_count
                squares[point][entity] += frame_count * frame_count
        # freed before the next frame draws its own
        del gains, bits, decided
    return errors, squares


def _ber_rows(config: SimConfig, units) -> list:
    """Every BER row, the SNR points in grid order, from the work units of
    ``_ber_frames`` that together cover each frame once.

    The units' counts are Python ints, so their sums are exact and any
    split of the frames gives the same rows. The bits of a frame share its
    fading, and the two bits of a symbol share one block, so bits are not
    independent trials; the frames are. A row's stderr is therefore the
    sample standard deviation of its per-frame error counts over
    sqrt(frames), per bit of a frame.
    """
    count = len(config.distances)
    metric = "ber" if config.experiment == "ber" else "ber_single"
    entities = [str(k + 1) for k in range(count)] + (["sum"] if config.experiment == "ber" else [])
    frames = config.frames
    rows = []
    for point, snr_db in enumerate(config.snr_grid_db):
        for index, entity in enumerate(entities):
            errors = sum(unit[0][point][index] for unit in units)
            squares = sum(unit[1][point][index] for unit in units)
            bits = config.bits_per_frame * (count if entity == "sum" else 1)  # per frame
            # frames^2 (frames - 1) times the variance of the mean count, exactly
            spread = frames * squares - errors * errors
            stderr = math.sqrt(spread / (frames * frames * (frames - 1))) / bits
            samples = frames * bits
            rows.append(ResultRow(snr_db, entity, metric, errors / samples, samples, stderr))
    return rows


def _chunk_moments(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each column's mean, then its centred sum of squares, into
    ``out``, realizations along axis 0, and return ``values`` turned into
    its deviations in place. The squares are summed a column at a time, as
    the (N, K) sum adds them, without its (N, K) temporary."""
    mean = values.mean(axis=0)
    values -= mean
    columns = values.reshape(len(values), -1).T  # (K, N), or (1, N) for (N,) values
    out[: len(columns)] = mean
    out[len(columns): 2 * len(columns)] = [(column * column).sum() for column in columns]
    return values


def _rate_chunks(config: SimConfig, start: int, stop: int) -> np.ndarray:
    """Each chunk's own statistics for chunks ``start`` to ``stop - 1`` at
    every SNR point: a rate work unit. Entry (i, j) of the (points,
    chunks, 2K + 5) result is chunk ``start + j``'s at point i: the hybrid
    sum rate's mean and centred sum of squares, the TDMA baseline's, the
    sum of products of their deviations, the K per-user means and the K
    per-user sums of squares; what the experiment does not write stays 0.

    Chunk c is drawn from ``SeedSequence((seed, c))``, whatever the grid,
    into the unit's (K, chunk) draw buffer, which it keeps until the last
    point. At each point, in grid order, the unit's second (K, chunk)
    buffer takes up to two tables. ``ratio`` first writes the lone-user
    table there, whose row mean is its TDMA baseline; then the hybrid
    table overwrites it, and its row sums come before the per-user moments
    turn it into deviations. The unit keeps those arrays, since fresh ones
    per chunk raised the peak RSS. Lone-user tables keep the cell's T at
    full power; nobody absorbs anybody.
    """
    cell, experiment, n = _scene(config), config.experiment, config.frames
    count, size = cell.user_count, min(_RATE_CHUNK, n)
    lone = dataclasses.replace(cell, group_of=tuple(range(count)), powers=(config.total_power,) * count)
    sigma2s = [config.noise_variance(snr_db) for snr_db in config.snr_grid_db]
    stats = np.zeros((len(sigma2s), stop - start, 2 * count + 5))
    # the chunk's draw and each point's table, flat; a chunk of m
    # realizations uses their leading K m floats, so the ragged last chunk
    # has the layout of a full one
    draw, table = np.empty(count * size), np.empty(count * size)
    if experiment != "rate_single_user":
        row_sums = np.empty(size)
    if experiment == "ratio":
        baselines = np.empty(size)
    for chunk in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, chunk)))
        m = min(_RATE_CHUNK, n - chunk * _RATE_CHUNK)
        # drawn (K, m) and viewed as (m, K): each user's realizations stay
        # contiguous, which keeps the reductions over realizations fast
        fading_power = rng.standard_exponential(out=draw[: count * m].reshape(count, m)).T
        rates = table[: count * m].reshape(count, m).T
        for own, sigma2 in zip(stats[:, chunk - start], sigma2s):
            if experiment == "rate_single_user":
                _chunk_moments(hybrid_rate_table(lone, fading_power, sigma2, out=rates), own[5:])
                continue
            if experiment == "ratio":
                # (K, m) memory, so the row sums add the K columns in user order
                hybrid_rate_table(lone, fading_power, sigma2, out=rates)
                baseline = np.sum(rates, axis=1, out=baselines[:m])
                baseline /= count
                tdma_deviations = _chunk_moments(baseline, own[2:])
            hybrid_rate_table(cell, fading_power, sigma2, config.decoding_order_mode, out=rates)
            sum_deviations = _chunk_moments(np.sum(rates, axis=1, out=row_sums[:m]), own)
            if experiment != "ratio":
                _chunk_moments(rates, own[5:])
                continue
            own[5:5 + count] = rates.mean(axis=0)  # ratio writes no per-user spread
            # a sum of products, not np.cov, whose dot product would call BLAS
            sum_deviations *= tdma_deviations
            own[4] = sum_deviations.sum()
    return stats


def _rate_rows(config: SimConfig, units) -> list:
    """Every rate row, the SNR points in grid order, from ``_rate_chunks``
    units that cover each chunk once, in order. Each point's chunks are
    folded in chunk order by the pairwise update of Chan, Golub & LeVeque
    (1979); running sums of x and x**2 would cancel catastrophically.
    Merging into the empty state adds exact zeros, so one chunk gives
    numpy's ``mean`` and ``std(ddof=1)`` bit for bit. Another merge tree
    would change the last bits, so units return each chunk's own
    statistics, and any split of the chunks gives the same rows.
    """
    count, n, experiment = len(config.distances), config.frames, config.experiment
    root_n = math.sqrt(n)
    # (mean, sum of squares) columns: the hybrid sum and TDMA, folded as
    # scalars, whose ** 2 is pow(), not an array's multiply (the two differ
    # in the last bit about once in a thousand), then per user, as arrays
    columns = [(0, 1), (2, 3), (slice(5, 5 + count), slice(5 + count, None))]
    rows = []
    for snr_index, snr_db in enumerate(config.snr_grid_db):
        seen, means, m2s, cross = 0, [0.0] * 3, [0.0] * 3, 0.0
        point_chunks = (own for unit in units for own in unit[snr_index])
        for chunk, own in enumerate(point_chunks):
            m = min(_RATE_CHUNK, n - chunk * _RATE_CHUNK)
            total = seen + m
            weight = seen * m / total
            shifts = [own[mean] - means[group] for group, (mean, _m2) in enumerate(columns)]
            for group, (mean, m2) in enumerate(columns):
                means[group] = means[group] + shifts[group] * (m / total)
                m2s[group] = m2s[group] + own[m2] + shifts[group] ** 2 * weight
            cross += own[4] + shifts[0] * shifts[1] * weight
            seen = total
        # sample standard deviations (ddof=1): hybrid sum, TDMA, per user
        stds = [np.sqrt(m2 / (n - 1)) for m2 in m2s]
        hybrid_sum = float(np.sum(means[2]))
        if experiment != "ratio":
            metric = "rate_single" if experiment == "rate_single_user" else "rate"
            rows += [ResultRow(snr_db, str(k + 1), metric, float(mean), n, float(std) / root_n)
                     for k, (mean, std) in enumerate(zip(means[2], stds[2]))]
            if experiment == "rate":
                rows.append(ResultRow(snr_db, "sum", metric, hybrid_sum, n, float(stds[0]) / root_n))
            continue
        hybrid_std, tdma_sum, tdma_std = float(stds[0]), float(means[1]), float(stds[1])
        ratio = hybrid_sum / tdma_sum
        # delta method for a ratio of two correlated sample means
        relative_cov = (cross / (n - 1)) / hybrid_sum / tdma_sum
        relative_var = (hybrid_std / hybrid_sum) ** 2 + (tdma_std / tdma_sum) ** 2 - 2.0 * relative_cov
        rows += [
            ResultRow(snr_db, "sum", "rate_hybrid", hybrid_sum, n, hybrid_std / root_n),
            ResultRow(snr_db, "sum", "rate_tdma", tdma_sum, n, tdma_std / root_n),
            ResultRow(snr_db, "sum", "rate_ratio", ratio, n,
                      math.sqrt(max(ratio**2 * relative_var / n, 0.0))),
        ]
    return rows


# each kind of experiment's work unit and the reducer of its units
_WORK = {"ber": (_ber_frames, _ber_rows), "rate": (_rate_chunks, _rate_rows)}
