"""The Monte Carlo's work units: a range of BER frames, each decoded at
every SNR point, and a rate point's chunks.

It imports numpy at the top, as do ``receiver`` and ``analytics``, which
it imports. ``harness.run_experiment`` imports it once per run, after the
config and the worker count have passed their checks and before the pool
forks, so the pool's workers inherit numpy instead of importing it again
(all but ``numpy.random``, which numpy loads lazily and each worker's
first draw imports), and a run that is refused never loads it.

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
channel is read here and nowhere else. Frame f draws from its own
(seed, f) substream, whatever the SNR grid: the power gains |h|^2, then
the bits, then, receiver by receiver, an (S, 2) row of standard normals
for the noise, K row draws that take what one (K, S, 2) draw would from
the stream. Each receiver's row is equalised once and then decoded at
every SNR point, scaled by that point's sigma: common random numbers, so
a frame's draws cost the same at one point as at a whole grid, and BER
rows are correlated across SNR. A work unit is a contiguous range of
frames (``_ber_frames``); it returns integer error counts, which
``_ber_rows`` sums over the units into rows whose stderr comes from the
per-frame counts. A single-user BER run is the same simulation on a
scene where every user is a group of one, so nothing is cancelled or
absorbed; it differs from the hybrid run only by that scene and by
having no ``sum`` row.

A rate point runs over chunks of ``_RATE_CHUNK`` (16 384) realizations,
chunk c drawn from its own (seed, SNR index, c) substream, so its memory is
O(chunk * K) whatever the realization count: one (K, chunk) buffer per
point, which every chunk draws into and writes its rate tables over. Each
chunk reduces the columns the experiment writes to a count, a mean and
centred second moments, and the chunks merge in chunk order. SeedSequence
pads its entropy with zero words, so chunk 0 draws what the (seed, SNR
index) stream drew before points were chunked: a point of at most one
chunk keeps its bytes.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .analytics import hybrid_rate_table
from .harness import ResultRow, SimConfig, _scene
from .receiver import LEVEL, decode

# realizations per rate chunk: a constant, so a point's bytes never depend
# on a setting (see the module docstring for why chunk 0 kept the old bytes)
_RATE_CHUNK = 1 << 14


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


class _Moments:
    """Count, mean and centred second moment of each column, merged over
    chunks in chunk order by the pairwise update of Chan, Golub & LeVeque
    (1979); running sums of x and x**2 would cancel catastrophically. A
    single chunk gives numpy's ``mean`` and ``std(ddof=1)`` bit for bit.
    """

    def __init__(self, spread: bool = True) -> None:
        self.spread = spread  # False keeps the mean alone
        # merging a chunk into this empty state adds exact zeros to its own
        # moments, so the first chunk's statistics pass through unchanged
        self.count, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, values: np.ndarray):
        """Merge one chunk, realizations along axis 0. With spread, turns
        ``values`` into the chunk's deviations from its own mean, in place,
        and returns them (None without spread, and ``values`` is left as it
        was). ``shift`` is then the chunk's mean minus the earlier chunks'
        mean, and ``weight`` the product of their counts over the sum, the
        terms a cross moment's merge needs. The squared deviations are
        summed one column at a time, which adds them as the (N, K) sum
        would, without its (N, K) temporary."""
        count = len(values)
        mean = values.mean(axis=0)
        total = self.count + count
        self.shift = mean - self.mean
        self.weight = self.count * count / total
        self.mean = self.mean + self.shift * (count / total)
        self.count = total
        if not self.spread:
            return None
        values -= mean
        columns = values.reshape(count, -1).T  # (K, N), or (1, N) for (N,) values
        squares = np.array([(column * column).sum() for column in columns])
        self.m2 = self.m2 + squares.reshape(mean.shape) + self.shift**2 * self.weight
        return values

    def std(self):
        """Sample standard deviation of each column (ddof=1)."""
        return np.sqrt(self.m2 / (self.count - 1))


def _rate_point(config: SimConfig, snr_index: int, snr_db: float) -> list:
    """Rate rows of one SNR point, from fading-averaged statistics of only
    the columns the experiment writes.

    Realizations run in chunks of ``_RATE_CHUNK``, chunk c drawn from
    ``SeedSequence((seed, snr_index, c))``, so memory is O(chunk * K)
    whatever the realization count. Every chunk draws into the point's one
    (K, chunk) buffer, and each table is written over the draw. So
    ``ratio`` takes its TDMA baseline first: each user's table alone, on
    its own column in an (m, 1) scratch, is added in user order to an (m,)
    sum that is then divided by K, the additions and division of a row
    mean. The row sums are reduced before the per-user moments turn the
    table into its deviations, so no chunk allocates an (N, K) array of its
    own. A fresh array per chunk cost time: glibc hands its pages back to
    the OS when the chunk frees it, and the next chunk faults them in
    again. The single-user rates and the TDMA baseline are
    ``hybrid_rate_table`` on users alone in their group at full power with
    the cell's T kept. Nobody there absorbs anybody, so the order cannot
    matter and distance order costs least.
    """
    cell = _scene(config)
    count = cell.user_count
    lone = dataclasses.replace(cell, group_of=tuple(range(count)), powers=(config.total_power,) * count)
    alone = [
        dataclasses.replace(cell, group_of=(0,), path_gains=(gain,), powers=(config.total_power,))
        for gain in cell.path_gains
    ]
    noise_variance = config.noise_variance(snr_db)
    experiment = config.experiment
    n = config.frames
    per_user = _Moments(spread=experiment != "ratio")
    sums, tdma = _Moments(), _Moments()
    cross = 0.0  # sum of products of the hybrid sum's and TDMA's deviations
    # the point's draw, flat; a chunk of m realizations uses its leading
    # K m floats, so the ragged last chunk has the layout of a full one
    draw = np.empty(count * min(_RATE_CHUNK, n))
    for chunk, start in enumerate(range(0, n, _RATE_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, snr_index, chunk)))
        m = min(_RATE_CHUNK, n - start)
        # drawn (K, m) and viewed as (m, K): each user's realizations stay
        # contiguous, which keeps the reductions over realizations fast
        fading_power = rng.standard_exponential(out=draw[: count * m].reshape(count, m)).T
        if experiment == "rate_single_user":
            per_user.add(hybrid_rate_table(lone, fading_power, noise_variance, out=fading_power))
            continue
        if experiment == "ratio":
            # read the draw before the hybrid table overwrites it
            baseline, scratch = np.zeros(m), np.empty((m, 1))
            for k, solo in enumerate(alone):
                hybrid_rate_table(solo, fading_power[:, k:k + 1], noise_variance, out=scratch)
                baseline += scratch[:, 0]
            baseline /= count
            tdma_deviations = tdma.add(baseline)
        rates = hybrid_rate_table(cell, fading_power, noise_variance, config.decoding_order_mode,
                                  out=fading_power)
        # the row sums first: with spread, the per-user moments consume the table
        sum_deviations = sums.add(rates.sum(axis=1))
        per_user.add(rates)
        if experiment == "ratio":
            # a sum of products, not np.cov, whose dot product would call BLAS
            sum_deviations *= tdma_deviations
            cross += sum_deviations.sum() + sums.shift * tdma.shift * sums.weight
    root_n = math.sqrt(n)
    if experiment != "ratio":
        metric = "rate_single" if experiment == "rate_single_user" else "rate"
        means, stds = per_user.mean, per_user.std()
        rows = [
            ResultRow(snr_db, str(k + 1), metric, float(means[k]), n, float(stds[k]) / root_n)
            for k in range(count)
        ]
        if experiment == "rate":
            rows.append(ResultRow(snr_db, "sum", metric, float(np.sum(means)), n,
                                  float(sums.std()) / root_n))
        return rows
    hybrid_sum, hybrid_std = float(np.sum(per_user.mean)), float(sums.std())
    tdma_sum, tdma_std = float(tdma.mean), float(tdma.std())
    ratio = hybrid_sum / tdma_sum
    # delta method for a ratio of two correlated sample means
    relative_cov = (cross / (n - 1)) / hybrid_sum / tdma_sum
    relative_var = (hybrid_std / hybrid_sum) ** 2 + (tdma_std / tdma_sum) ** 2 - 2.0 * relative_cov
    return [
        ResultRow(snr_db, "sum", "rate_hybrid", hybrid_sum, n, hybrid_std / root_n),
        ResultRow(snr_db, "sum", "rate_tdma", tdma_sum, n, tdma_std / root_n),
        ResultRow(snr_db, "sum", "rate_ratio", ratio, n,
                  math.sqrt(max(ratio**2 * relative_var / n, 0.0))),
    ]
