"""Monte Carlo experiment runner, config parsing and CSV output.

Config files are flat UTF-8 ``key = value`` text; ``#`` starts a comment and
blank lines are ignored. Keys (all optional, defaults reproduce the 5-user
reference cell):

    distances            comma list, km, strictly increasing   0.5,1.5,2.5,3.5,4.5
    cell_radius          km                                    5.0
    path_loss_exponent                                         3.0
    group_count                                                2
    total_power          watts                                 40.0
    frames               frames (BER) / realizations (rate)    500
    bits_per_frame       per user, even, divisible by 2*T      6144
    snr_grid             "start:step:stop" (inclusive) or
                         comma list, dB                        0:2:30
    seed                 non-negative 64-bit integer           42
    decoding_order_mode  distance | instantaneous              distance
    fading_mode          block | frame                         block
    experiment           ber | ber_single_user | rate |
                         rate_single_user | ratio              ber

SNR is the transmit SNR total_power/sigma^2 in dB; the sweep varies the
noise variance at fixed transmit power. Every (seed, SNR index, frame)
triple seeds an independent substream, so results are byte-identical for
any worker count. The ``TIMNOMA_WORKERS`` environment variable caps the
process pool; unset means one worker per SNR point up to the CPU count.
Each SNR point returns its own result rows, concatenated in grid order.

A BER frame is simulated on the derotated real baseband (see ``receiver``):
projection cancels the other groups exactly, so receiver k's signal on
each real axis is |g_k| times its group's superposed levels plus
N(0, sigma^2/2) noise. Each frame draws the power gains |h|^2, then the
bits, then one (K, S, 2) block of standard normals for the noise. A
single-user BER run is the same simulation on a scene where every user is
a group of one, so nothing is cancelled or absorbed; it differs from the
hybrid run only by that scene and by having no ``sum`` row.

A rate point runs over chunks of ``_RATE_CHUNK`` (16 384) realizations,
chunk c drawn from its own (seed, SNR index, c) substream, so its memory is
O(chunk * K) whatever the realization count. Each chunk reduces the columns
the experiment writes to a count, a mean and centred second moments, and
the chunks merge in chunk order. SeedSequence pads its entropy with zero
words, so chunk 0 draws what the (seed, SNR index) stream drew before
points were chunked: a point of at most one chunk keeps its bytes. The
ratio's hybrid x TDMA covariance stays scaled until it has been divided
by the hybrid sum, so it never underflows at the bottom of the SNR range.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analytics import ORDER_MODES, hybrid_rate_table, single_user_rate_table
from .channel import NoiseModel, draw_fading_power
from .errors import ConfigError, ValidationError
from .modem import qpsk_modulate
from .receiver import cancel_mask, decode
from .topology import GroupAssignment, allocate_power, assign_groups, build_topology, path_loss

WORKERS_ENV = "TIMNOMA_WORKERS"

EXPERIMENTS = ("ber", "ber_single_user", "rate", "rate_single_user", "ratio")
RATE_EXPERIMENTS = ("rate", "rate_single_user", "ratio")
# realizations per rate chunk: a constant, so a point's bytes never depend
# on a setting (see the module docstring for why chunk 0 kept the old bytes)
_RATE_CHUNK = 1 << 14
FADING_MODES = ("block", "frame")

DEFAULT_DISTANCES = (0.5, 1.5, 2.5, 3.5, 4.5)
DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 31, 2))
# largest accepted full-power mean SNR, 2**-64 of the largest float
_MEAN_SNR_CEILING = math.ldexp(sys.float_info.max, -64)


def _is_int(value) -> bool:
    # bool subclasses int, but True is no frame count
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Complete, immutable description of one experiment."""

    distances: tuple[float, ...] = DEFAULT_DISTANCES
    cell_radius: float = 5.0
    path_loss_exponent: float = 3.0
    group_count: int = 2
    total_power: float = 40.0
    frames: int = 500
    bits_per_frame: int = 6144
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID
    seed: int = 42
    decoding_order_mode: str = "distance"
    fading_mode: str = "block"
    experiment: str = "ber"

    def __post_init__(self) -> None:
        # normalize to plain tuples of builtin floats so equality, pickling
        # and CSV rendering never depend on the caller's array types
        object.__setattr__(self, "distances", tuple(float(d) for d in self.distances))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))

    def validated(self) -> "SimConfig":
        """Return self after checking every invariant; raise ConfigError
        listing all violations at once.

        Once every field passes, the scene and each SNR point's noise model
        are built with the constructors the run uses, so a config that
        passes cannot fail later in one of them.
        """
        problems = []
        try:
            build_topology(
                self.distances, self.cell_radius, self.path_loss_exponent, self.group_count
            )
        except ValidationError as exc:
            problems.append(str(exc))
        if not _is_int(self.group_count):
            problems.append("group_count must be an integer")
        power = self.total_power
        is_number = isinstance(power, (int, float)) and not isinstance(power, bool)
        if not (is_number and power > 0 and math.isfinite(power)):
            problems.append("total_power must be a positive finite number")
        if not (_is_int(self.frames) and self.frames >= 1):
            problems.append("frames must be a positive integer")
        elif self.experiment in RATE_EXPERIMENTS and self.frames < 2:
            # a standard error needs at least two realizations
            problems.append("frames must be at least 2 for rate experiments")
        if not (_is_int(self.bits_per_frame) and self.bits_per_frame >= 2):
            problems.append("bits_per_frame must be a positive even integer")
        elif _is_int(self.group_count) and self.bits_per_frame % (2 * max(1, self.group_count)):
            problems.append("bits_per_frame must be divisible by 2*group_count")
        if not self.snr_grid_db:
            problems.append("snr_grid must not be empty")
        elif any(not math.isfinite(s) for s in self.snr_grid_db):
            problems.append("snr_grid values must be finite")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            problems.append("seed must be a non-negative 64-bit integer")
        if self.decoding_order_mode not in ORDER_MODES:
            problems.append(f"decoding_order_mode must be one of {ORDER_MODES}")
        if self.fading_mode not in FADING_MODES:
            problems.append(f"fading_mode must be one of {FADING_MODES}")
        if self.experiment not in EXPERIMENTS:
            problems.append(f"experiment must be one of {EXPERIMENTS}")
        if not problems:
            # the fields passed, so the scene's constructors cannot refuse it
            topo, _groups, power = _scene(self)
            gammas = [path_loss(topo, k) for k in range(topo.user_count)]
            for snr in self.snr_grid_db:
                try:
                    variance = NoiseModel(self.noise_variance(snr)).variance
                except (ValidationError, OverflowError):
                    problems.append(
                        f"snr_grid value {snr!r} dB gives no positive finite noise variance"
                    )
                    continue
                # a rate, or a ratio of rates, has no value once a user's
                # mean SNR is 0 or has lost its precision as a subnormal
                snrs = [p * g / variance for p, g in zip(power.per_user, gammas)]
                if min(snrs) < sys.float_info.min:
                    problems.append(
                        f"snr_grid value {snr!r} dB gives user {snrs.index(min(snrs)) + 1} "
                        "a mean SNR P_k*gamma_k/sigma^2 that is 0 or subnormal"
                    )
                # below this ceiling an Exp(1) gain would have to exceed
                # 2**64 before any SINR overflowed
                peaks = [self.total_power * g / variance for g in gammas]
                if max(peaks) > _MEAN_SNR_CEILING:
                    problems.append(
                        f"snr_grid value {snr!r} dB gives user {peaks.index(max(peaks)) + 1} "
                        "a mean SNR total_power*gamma_k/sigma^2 above 2**-64 of the largest float"
                    )
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))
        return self

    def noise_variance(self, snr_db: float) -> float:
        """sigma^2 realizing the given transmit SNR at this power budget."""
        return self.total_power * 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class ResultRow:
    snr_db: float
    entity: str  # "1".."K" or "sum"
    metric: str
    value: float
    samples: int
    stderr: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and math.isfinite(self.stderr)):
            raise ValidationError(f"{self.metric} value and stderr must be finite")
        if self.value < 0 or (self.metric.startswith("ber") and self.value > 1):
            raise ValidationError(f"{self.metric} value {self.value} out of range")
        if self.stderr < 0:
            raise ValidationError("stderr must be non-negative")
        if self.samples < 1:
            raise ValidationError("samples must be positive")


@dataclass(frozen=True)
class ExperimentResult:
    """Flat result table, ordered by SNR, then user entity, then "sum"."""

    rows: tuple[ResultRow, ...]

    def row(self, snr_db: float, entity: str, metric: str) -> ResultRow:
        for row in self.rows:
            if row.snr_db == snr_db and row.entity == entity and row.metric == metric:
                return row
        raise KeyError((snr_db, entity, metric))


# ---------------------------------------------------------------------------
# config parsing

_INT_KEYS = ("group_count", "frames", "bits_per_frame", "seed")
_FLOAT_KEYS = ("cell_radius", "path_loss_exponent", "total_power")
_STR_KEYS = ("decoding_order_mode", "fading_mode", "experiment")


def parse_snr_grid(spec: str) -> tuple[float, ...]:
    """Parse an SNR grid: "start:step:stop" (inclusive) or a comma list."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"snr range must be start:step:stop, got {spec!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"bad snr range {spec!r}: {exc}") from exc
        if step <= 0:
            raise ConfigError("snr range step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ConfigError(f"empty snr range {spec!r}")
        return tuple(start + step * i for i in range(count))
    try:
        return tuple(float(p) for p in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad snr list {spec!r}: {exc}") from exc


def parse_config_text(text: str) -> SimConfig:
    """Parse config text into a validated SimConfig.

    Unknown keys, malformed lines and bad values are reported with their
    line number; all invariant violations are then reported together.
    """
    values: dict = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if key == "distances":
                values[key] = tuple(float(p) for p in value.split(","))
            elif key == "snr_grid":
                values["snr_grid_db"] = parse_snr_grid(value)
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _STR_KEYS:
                values[key] = value
            else:
                errors.append(f"line {lineno}: unknown key {key!r}")
        except (ValueError, ConfigError) as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    if errors:
        raise ConfigError("config parse failed: " + "; ".join(errors))
    return SimConfig(**values).validated()


def parse_config(path) -> SimConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


# ---------------------------------------------------------------------------
# experiment runners

def _worker_count(points: int) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
        if cap < 1:
            raise ConfigError(f"{WORKERS_ENV} must be at least 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, points))


def _map_points(point_fn, config: SimConfig) -> list:
    """Evaluate one function per SNR point, optionally in parallel.

    Results come back in grid order regardless of scheduling, and each
    point derives its randomness only from (seed, point index), so the
    worker count never changes the output.
    """
    points = list(enumerate(config.snr_grid_db))
    workers = _worker_count(len(points))
    if workers == 1:
        return [point_fn(config, index, snr) for index, snr in points]
    # imported here: a one-worker run never pays for the process machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(point_fn, config, index, snr) for index, snr in points]
        return [future.result() for future in futures]


def _scene(config: SimConfig):
    topo = build_topology(
        config.distances, config.cell_radius, config.path_loss_exponent, config.group_count
    )
    if config.experiment == "ber_single_user":
        # a user alone is a group of one: nothing to cancel, nothing absorbed
        users = range(topo.user_count)
        groups = GroupAssignment(tuple(users), tuple((k,) for k in users))
    else:
        groups = assign_groups(topo)
    power = allocate_power(topo, config.total_power)
    return topo, groups, power


def _received(symbols, channels, amplitudes, groups) -> np.ndarray:
    """Every receiver's noiseless derotated signal, (K, S, 2) real.

    Receiver k sees |g_k| times the superposed levels sqrt(P_j) x_j of its
    own group, which is what is left of the transmit after projection.
    ``symbols`` are the (K, S) QPSK symbols, read as their real and
    imaginary levels.
    """
    count, symbols_per_user = symbols.shape
    levels = symbols.view(np.float64).reshape(count, symbols_per_user, 2)
    totals = np.zeros((groups.group_count, symbols_per_user, 2))
    for user, group in enumerate(groups.group_of):
        totals[group] += amplitudes[user] * levels[user]
    signal = totals[list(groups.group_of)]
    signal *= channels[:, :, np.newaxis]
    return signal


def _binomial_stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _ber_point(config: SimConfig, snr_index: int, snr_db: float) -> list:
    """BER rows of one SNR point: each user's and, for the hybrid scheme,
    the pooled ``sum`` row.

    Every frame decodes all K receivers at once. The group sums are loops
    over at most K users and the rest is elementwise, so no BLAS call runs
    per frame.
    """
    topo, groups, power = _scene(config)
    count = topo.user_count
    symbols_per_frame = config.bits_per_frame // 2
    gamma = np.array([path_loss(topo, k) for k in range(count)])
    amp = np.sqrt(np.asarray(power.per_user))
    scale = math.sqrt(NoiseModel(config.noise_variance(snr_db)).variance / 2.0)
    blocks = symbols_per_frame if config.fading_mode == "block" else 1
    per_frame_order = config.decoding_order_mode == "instantaneous"
    cancel = cancel_mask(groups)
    # receiver k's noise on block s is normals[k, s, 0] on the real axis
    # and normals[k, s, 1] on the imaginary axis
    normals = np.empty((count, symbols_per_frame, 2))
    errors = np.zeros(count, dtype=np.int64)
    for frame in range(config.frames):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, snr_index, frame)))
        gains = gamma[:, np.newaxis] * draw_fading_power(rng, count, blocks)  # (K, S) or (K, 1)
        bits = rng.integers(0, 2, size=(count, config.bits_per_frame))
        rng.standard_normal(out=normals)
        if per_frame_order:
            cancel = cancel_mask(groups, gains)
        channels = np.sqrt(gains)
        signal = _received(qpsk_modulate(bits), channels, amp, groups)
        normals *= scale
        signal += normals
        decided = decode(signal, channels, amp, cancel)
        errors += np.count_nonzero(decided != bits, axis=1)
    metric = "ber" if config.experiment == "ber" else "ber_single"
    bits_per_user = config.frames * config.bits_per_frame
    rows = []
    for k in range(count):
        p = int(errors[k]) / bits_per_user
        rows.append(
            ResultRow(snr_db, str(k + 1), metric, p, bits_per_user, _binomial_stderr(p, bits_per_user))
        )
    if config.experiment == "ber":
        total_bits = count * bits_per_user
        p = int(errors.sum()) / total_bits
        rows.append(ResultRow(snr_db, "sum", metric, p, total_bits, _binomial_stderr(p, total_bits)))
    return rows


class _Moments:
    """Count, mean and centred second moment of each column, merged over
    chunks in chunk order by the pairwise update of Chan, Golub & LeVeque
    (1979); running sums of x and x**2 would cancel catastrophically.

    Deviations are divided by ``scale``, a power of two near the first
    chunk's column mean, before they are squared, so rates near the
    smallest normal float keep a nonzero spread. Scaling by a power of two
    is exact: a single chunk gives numpy's ``mean`` and ``std(ddof=1)`` bit
    for bit.
    """

    def __init__(self, spread: bool = True) -> None:
        self.spread = spread  # False keeps the mean alone
        # merging a chunk into this empty state adds exact zeros to its own
        # moments, so the first chunk's statistics pass through unchanged
        self.count, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, values: np.ndarray):
        """Merge one chunk, realizations along axis 0. Returns the chunk's
        deviations from its own mean over ``scale`` (None without spread).
        ``shift`` is then the chunk's mean minus the earlier chunks' mean
        over ``scale``, and ``weight`` the product of their counts over the
        sum, the terms a cross moment's merge needs."""
        count = len(values)
        mean = values.mean(axis=0)
        if not self.count:
            # mean = f * 2**e with 0.5 <= f < 1; the floor keeps 1/scale finite
            self.scale = np.ldexp(1.0, np.maximum(np.frexp(mean)[1], -1021))
        total = self.count + count
        delta = mean - self.mean
        self.shift = delta / self.scale
        self.weight = self.count * count / total
        self.mean = self.mean + delta * (count / total)
        self.count = total
        if not self.spread:
            return None
        deviations = values - mean
        deviations *= 1.0 / self.scale
        self.m2 = self.m2 + (deviations * deviations).sum(axis=0) + self.shift**2 * self.weight
        return deviations

    def std(self):
        """Sample standard deviation of each column (ddof=1)."""
        return np.sqrt(self.m2 / (self.count - 1)) * self.scale


def _rate_point(config: SimConfig, snr_index: int, snr_db: float) -> list:
    """Rate rows of one SNR point, from fading-averaged statistics of only
    the columns the experiment writes.

    Realizations run in chunks of ``_RATE_CHUNK``, chunk c drawn from
    ``SeedSequence((seed, snr_index, c))``, so memory is O(chunk * K)
    whatever the realization count.
    """
    topo, groups, power = _scene(config)
    noise = NoiseModel(config.noise_variance(snr_db))
    experiment = config.experiment
    n = config.frames
    per_user = _Moments(spread=experiment != "ratio")
    sums, tdma = _Moments(), _Moments()
    cross = 0.0  # sum of products of the hybrid sum's and TDMA's scaled deviations
    for chunk, start in enumerate(range(0, n, _RATE_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, snr_index, chunk)))
        # drawn (K, n) and viewed as (n, K): each user's realizations stay
        # contiguous, which keeps the reductions over realizations fast
        fading_power = draw_fading_power(rng, topo.user_count, min(_RATE_CHUNK, n - start)).T
        if experiment == "rate_single_user":
            per_user.add(single_user_rate_table(topo, fading_power, noise, config.total_power))
            continue
        table = hybrid_rate_table(topo, power, groups, fading_power, noise, config.decoding_order_mode)
        per_user.add(table)
        sum_deviations = sums.add(table.sum(axis=1))
        del table  # freed before the baseline allocates its own (n, K) table
        if experiment == "ratio":
            baseline = single_user_rate_table(topo, fading_power, noise, config.total_power).mean(axis=1)
            tdma_deviations = tdma.add(baseline)
            # a sum of products, not np.cov, whose dot product would call BLAS
            sum_deviations *= tdma_deviations
            cross += sum_deviations.sum() + sums.shift * tdma.shift * sums.weight
    root_n = math.sqrt(n)
    if experiment != "ratio":
        metric = "rate_single" if experiment == "rate_single_user" else "rate"
        means, stds = per_user.mean, per_user.std()
        rows = [
            ResultRow(snr_db, str(k + 1), metric, float(means[k]), n, float(stds[k]) / root_n)
            for k in range(topo.user_count)
        ]
        if experiment == "rate":
            rows.append(ResultRow(snr_db, "sum", metric, float(np.sum(means)), n,
                                  float(sums.std()) / root_n))
        return rows
    hybrid_sum, hybrid_std = float(np.sum(per_user.mean)), float(sums.std())
    tdma_sum, tdma_std = float(tdma.mean), float(tdma.std())
    ratio = hybrid_sum / tdma_sum
    # delta method for a ratio of two correlated sample means, in relative
    # terms. The covariance is divided by the hybrid sum before the scales
    # restore it, so no absolute product of tiny rates is ever formed.
    relative_cov = (cross / (n - 1)) / hybrid_sum * sums.scale * tdma.scale / tdma_sum
    relative_var = (hybrid_std / hybrid_sum) ** 2 + (tdma_std / tdma_sum) ** 2 - 2.0 * relative_cov
    return [
        ResultRow(snr_db, "sum", "rate_hybrid", hybrid_sum, n, hybrid_std / root_n),
        ResultRow(snr_db, "sum", "rate_tdma", tdma_sum, n, tdma_std / root_n),
        ResultRow(snr_db, "sum", "rate_ratio", ratio, n,
                  math.sqrt(max(ratio**2 * relative_var / n, 0.0))),
    ]


def run_experiment(config: SimConfig) -> ExperimentResult:
    """Run the experiment that ``config.experiment`` names.

    ``ber`` is the framed link-level BER of the hybrid scheme, per user and
    pooled; ``ber_single_user`` the BER of each user alone at its own power
    share. ``rate`` and ``ratio`` are fading-averaged hybrid rates and the
    hybrid/TDMA sum-rate ratio; ``rate_single_user`` the full-power rate of
    each user alone.
    """
    config = config.validated()
    point_fn = _rate_point if config.experiment in RATE_EXPERIMENTS else _ber_point
    points = _map_points(point_fn, config)
    return ExperimentResult(tuple(row for rows in points for row in rows))


def emit_csv(result: ExperimentResult, destination) -> None:
    """Write the result table as CSV.

    ``destination`` is a path or a writable text file object. Floats are
    rendered with repr (shortest round-trip), so identical results yield
    byte-identical files.
    """
    def _write(handle) -> None:
        handle.write("snr_db,entity,metric,value,samples,stderr\n")
        for row in result.rows:
            handle.write(
                f"{row.snr_db!r},{row.entity},{row.metric},{row.value!r},{row.samples},{row.stderr!r}\n"
            )

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            _write(handle)


def replace(config: SimConfig, **changes) -> SimConfig:
    """dataclasses.replace with validation."""
    return dataclasses.replace(config, **changes).validated()
