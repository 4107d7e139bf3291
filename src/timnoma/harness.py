"""Monte Carlo experiment runner, config parsing and CSV output.

Config files are flat UTF-8 ``key = value`` text; ``#`` starts a comment and
blank lines are ignored. Keys (all optional, each at most once, defaults
reproduce the 5-user reference cell):

    distances            comma list, 1 to 16 users at          0.5,1.5,2.5,3.5,4.5
                         0.001-1000 km, strictly increasing
    path_loss_exponent   in (0, 10]                            3.0
    group_count                                                2
    frames               frames (BER) / realizations (rate),   500
                         at least 2
    bits_per_frame       per user, even, at most 2**20         6144
    snr_grid             "start:step:stop" (inclusive) or
                         comma list, dB, within +-300 dB       0:2:30
    seed                 non-negative 64-bit integer           42
    decoding_order_mode  distance | instantaneous              distance
    fading_mode          block | frame                         block
    experiment           ber | ber_single_user | rate |
                         rate_single_user | ratio              ber

SNR is the transmit SNR P/sigma^2 in dB at the fixed budget P =
``SimConfig.total_power`` (40 W), which cancels out of every SINR; each
point passes sigma^2 on as a plain float. Within these ranges every path
gain lies in [1e-30, 1e30] and sigma^2 in [4e-29, 4e31] W, so every rate,
squared deviation and SINR stays a normal double.

Every (seed, SNR index, frame) triple seeds an independent substream, so
results are byte-identical for any worker count. The pool runs one worker
per SNR point, up to the CPUs the process may use and up to
``TIMNOMA_WORKERS`` if it is set. Each SNR point returns its own result
rows, in grid order.

A BER frame is simulated on the derotated real baseband (see ``receiver``):
projection cancels the other groups exactly, so receiver k's signal on
each real axis is |g_k| times its group's superposed levels plus
N(0, sigma^2/2) noise. Each frame draws the power gains |h|^2, then the
bits, then, receiver by receiver, an (S, 2) row of standard normals for
the noise: K row draws that take what one (K, S, 2) draw would from the
stream. The row is one buffer that the signal is added to and that the
receiver's SIC chain leaves the residual in; a BER row's stderr comes from
its per-frame error counts (see ``_ber_point``). A single-user BER run is the same simulation on a scene
where every user is a group of one, so nothing is cancelled or absorbed;
it differs from the hybrid run only by that scene and by having no
``sum`` row.

A rate point runs over chunks of ``_RATE_CHUNK`` (16 384) realizations,
chunk c drawn from its own (seed, SNR index, c) substream, so its memory is
O(chunk * K) whatever the realization count. Each chunk reduces the columns
the experiment writes to a count, a mean and centred second moments, and
the chunks merge in chunk order. SeedSequence pads its entropy with zero
words, so chunk 0 draws what the (seed, SNR index) stream drew before
points were chunked: a point of at most one chunk keeps its bytes.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .analytics import ORDER_MODES, hybrid_rate_table
from .channel import draw_fading_power
from .errors import ConfigError, ValidationError
from .modem import LEVEL
from .receiver import decode
from .topology import Cell, _is_int, build_cell

WORKERS_ENV = "TIMNOMA_WORKERS"

EXPERIMENTS = ("ber", "ber_single_user", "rate", "rate_single_user", "ratio")
RATE_EXPERIMENTS = ("rate", "rate_single_user", "ratio")
# realizations per rate chunk: a constant, so a point's bytes never depend
# on a setting (see the module docstring for why chunk 0 kept the old bytes)
_RATE_CHUNK = 1 << 14
FADING_MODES = ("block", "frame")

DEFAULT_DISTANCES = (0.5, 1.5, 2.5, 3.5, 4.5)
DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 31, 2))
# far beyond the figures' 0-70 dB; see the module docstring for what it bounds
_MAX_SNR_DB = 300.0
# far above the figures' 6144, far below a frame that exhausts memory
_MAX_BITS_PER_FRAME = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Complete, immutable description of one experiment."""

    total_power: ClassVar[float] = 40.0  # watts, no field: see the module docstring
    distances: tuple[float, ...] = DEFAULT_DISTANCES
    path_loss_exponent: float = 3.0
    group_count: int = 2
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

        The cell is built once by ``_scene``, the constructor the run uses,
        which checks the cell fields, so a config that passes cannot fail
        later.
        """
        problems = []
        try:
            _scene(self)
        except ValidationError as exc:
            problems.append(str(exc))
        # a standard error needs at least two frames or realizations
        if not (_is_int(self.frames) and self.frames >= 2):
            problems.append("frames must be an integer of at least 2")
        bits = self.bits_per_frame
        if not (_is_int(bits) and bits > 0 and bits % 2 == 0):
            problems.append("bits_per_frame must be a positive even integer")
        elif bits > _MAX_BITS_PER_FRAME:
            problems.append(f"bits_per_frame must be at most {_MAX_BITS_PER_FRAME}")
        if not self.snr_grid_db:
            problems.append("snr_grid must not be empty")
        elif any(not abs(s) <= _MAX_SNR_DB for s in self.snr_grid_db):  # NaN included
            problems.append(f"snr_grid values must be from -{_MAX_SNR_DB:g} to {_MAX_SNR_DB:g} dB")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            problems.append("seed must be a non-negative 64-bit integer")
        if self.decoding_order_mode not in ORDER_MODES:
            problems.append(f"decoding_order_mode must be one of {ORDER_MODES}")
        if self.fading_mode not in FADING_MODES:
            problems.append(f"fading_mode must be one of {FADING_MODES}")
        if self.experiment not in EXPERIMENTS:
            problems.append(f"experiment must be one of {EXPERIMENTS}")
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


# ---------------------------------------------------------------------------
# config parsing

_INT_KEYS = ("group_count", "frames", "bits_per_frame", "seed")
_STR_KEYS = ("decoding_order_mode", "fading_mode", "experiment")
# far above any figure's grid, far below a grid that exhausts memory
_MAX_SNR_POINTS = 100_000


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
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ConfigError(f"snr range {spec!r} must have a finite start, step and stop")
        if step <= 0:
            raise ConfigError("snr range step must be positive")
        quotient = (stop - start) / step + 1e-9
        # checked before the tuple is built: a tiny step would fill memory
        if not quotient < _MAX_SNR_POINTS:  # also refuses an infinite quotient
            raise ConfigError(f"snr range {spec!r} has more than {_MAX_SNR_POINTS} points")
        count = int(math.floor(quotient)) + 1
        if count < 1:
            raise ConfigError(f"empty snr range {spec!r}")
        return tuple(start + step * i for i in range(count))
    try:
        return tuple(float(p) for p in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad snr list {spec!r}: {exc}") from exc


def parse_config_text(text: str) -> SimConfig:
    """Parse config text into a SimConfig, not yet validated: the flags
    may still override its values before ``run_experiment`` checks them.

    Unknown or repeated keys, malformed lines and bad values are reported
    together, each with its line number.
    """
    values: dict = {}
    first_line: dict = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if first_line.setdefault(key, lineno) != lineno:
            errors.append(f"line {lineno}: key {key!r} already set on line {first_line[key]}")
            continue
        try:
            if key == "distances":
                values[key] = tuple(float(p) for p in value.split(","))
            elif key == "snr_grid":
                values["snr_grid_db"] = parse_snr_grid(value)
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key == "path_loss_exponent":
                values[key] = float(value)
            elif key in _STR_KEYS:
                values[key] = value
            else:
                errors.append(f"line {lineno}: unknown key {key!r}")
        except (ValueError, ConfigError) as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")
    if errors:
        raise ConfigError("config parse failed: " + "; ".join(errors))
    return SimConfig(**values)


def parse_config(path) -> SimConfig:
    """Read and parse a UTF-8 config file (see ``parse_config_text``)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: not UTF-8 at byte {exc.start}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# experiment runners

def _worker_count(points: int) -> int:
    """One worker per point, at most ``TIMNOMA_WORKERS`` and at most the
    CPUs this process may use: a fork pool starts all its workers at once."""
    cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            workers = int(env)
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
        if workers < 1:
            raise ConfigError(f"{WORKERS_ENV} must be at least 1")
        cap = min(cap, workers)
    return min(cap, points)


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


def _scene(config: SimConfig) -> Cell:
    """The config's cell; for ``ber_single_user`` every user is a group of
    one, so nothing is cancelled and nothing absorbed."""
    cell = build_cell(
        config.distances, config.path_loss_exponent, config.group_count, config.total_power
    )
    if config.experiment == "ber_single_user":
        return dataclasses.replace(cell, group_of=tuple(range(cell.user_count)))
    return cell


def _ber_point(config: SimConfig, snr_index: int, snr_db: float) -> list:
    """BER rows of one SNR point: each user's and, for the hybrid scheme,
    the pooled ``sum`` row.

    A frame first writes each group's total into a per-point buffer: the
    sum, in ascending user order, of the members' signed amplitudes
    (1 - 2 b) sqrt(P_j) LEVEL, which are their QPSK levels (bit 0 -> +,
    1 -> -) times sqrt(P_j). Then it runs the receivers one by one in one
    (S, 2) row buffer: k's noise is drawn into it, |g_k| times its group's
    total is added, which is what is left of the transmit after
    projection, and SIC leaves the residual in it. The group sums are loops
    over at most K users and the rest is elementwise, so no BLAS call runs
    per frame.

    The bits of a frame share its fading, and the two bits of a symbol
    share one block, so bits are not independent trials; the frames are.
    A row's stderr is therefore the sample standard deviation of its
    per-frame error counts over sqrt(frames), per bit of a frame. The
    counts and their squares are summed as Python ints, which stay exact
    however the frames are split.
    """
    cell = _scene(config)
    count, group_of = cell.user_count, cell.group_of
    symbols_per_frame = config.bits_per_frame // 2
    gamma = np.array(cell.path_gains)[:, np.newaxis]
    amp = np.sqrt(np.asarray(cell.powers))
    levels = (amp * LEVEL).tolist()
    scale = math.sqrt(config.noise_variance(snr_db) / 2.0)
    blocks = symbols_per_frame if config.fading_mode == "block" else 1
    per_frame_order = config.decoding_order_mode == "instantaneous"
    # receiver k's noise, then signal, then residual on block s is row[s, 0]
    # on the real axis and row[s, 1] on the imaginary axis
    row = np.empty((symbols_per_frame, 2))
    # |g_k| on both axes of each block, read by the signal and by SIC; under
    # frame fading one (1, 1) value, so the copy to the second axis is empty
    channel = np.empty((blocks, 2 if blocks > 1 else 1))
    flat_row, flat_channel = row.reshape(-1), channel.reshape(-1)  # views
    totals = np.empty((max(group_of) + 1, config.bits_per_frame))
    term = np.empty(config.bits_per_frame)
    # a group's first member writes its total, and the others add to it
    leads = [group_of.index(group) == user for user, group in enumerate(group_of)]
    # per user, then for the whole frame: sums of error counts and squares
    errors, squares = [0] * (count + 1), [0] * (count + 1)
    for frame_index in range(config.frames):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, snr_index, frame_index)))
        gains = draw_fading_power(rng, count, blocks)  # (K, S) or (K, 1)
        gains *= gamma
        order = gains if per_frame_order else None
        # int32 draws the same bits as int64 and leaves the stream in place
        bits = rng.integers(0, 2, size=(count, config.bits_per_frame), dtype=np.int32)
        for user, group in enumerate(group_of):
            signed = totals[group] if leads[user] else term
            np.multiply(bits[user], -2, out=signed)  # 1 - 2 b, exactly
            signed += 1
            signed *= levels[user]
            if not leads[user]:
                totals[group] += signed
        frame_errors = []
        # K row draws take what one (K, S, 2) draw would from the stream
        for k, group in enumerate(group_of):
            rng.standard_normal(out=row)
            row *= scale
            np.sqrt(gains[k], out=channel[:, 0])
            channel[:, 1:] = channel[:, :1]
            np.multiply(totals[group], flat_channel, out=term)
            flat_row += term
            decided = decode(row, channel, amp, group_of, k, order)
            frame_errors.append(int(np.count_nonzero(decided != bits[k])))
        frame_errors.append(sum(frame_errors))
        for k, frame_count in enumerate(frame_errors):
            errors[k] += frame_count
            squares[k] += frame_count * frame_count
    metric = "ber" if config.experiment == "ber" else "ber_single"
    entities = [str(k + 1) for k in range(count)] + (["sum"] if config.experiment == "ber" else [])
    frames = config.frames
    rows = []
    for k, entity in enumerate(entities):
        bits = config.bits_per_frame * (count if entity == "sum" else 1)  # per frame
        # frames^2 (frames - 1) times the variance of the mean count, exactly
        spread = frames * squares[k] - errors[k] * errors[k]
        stderr = math.sqrt(spread / (frames * frames * (frames - 1))) / bits
        samples = frames * bits
        rows.append(ResultRow(snr_db, entity, metric, errors[k] / samples, samples, stderr))
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
        """Merge one chunk, realizations along axis 0. Returns the chunk's
        deviations from its own mean (None without spread). ``shift`` is
        then the chunk's mean minus the earlier chunks' mean, and
        ``weight`` the product of their counts over the sum, the terms a
        cross moment's merge needs."""
        count = len(values)
        mean = values.mean(axis=0)
        total = self.count + count
        self.shift = mean - self.mean
        self.weight = self.count * count / total
        self.mean = self.mean + self.shift * (count / total)
        self.count = total
        if not self.spread:
            return None
        deviations = values - mean
        self.m2 = self.m2 + (deviations * deviations).sum(axis=0) + self.shift**2 * self.weight
        return deviations

    def std(self):
        """Sample standard deviation of each column (ddof=1)."""
        return np.sqrt(self.m2 / (self.count - 1))


def _rate_point(config: SimConfig, snr_index: int, snr_db: float) -> list:
    """Rate rows of one SNR point, from fading-averaged statistics of only
    the columns the experiment writes.

    Realizations run in chunks of ``_RATE_CHUNK``, chunk c drawn from
    ``SeedSequence((seed, snr_index, c))``, so memory is O(chunk * K)
    whatever the realization count. The single-user rates and the TDMA
    baseline are ``hybrid_rate_table`` on ``lone``, each user alone in its
    group at full power with the cell's T kept. Nobody there absorbs
    anybody, so the order cannot matter and distance order costs least.
    """
    cell = _scene(config)
    count = cell.user_count
    lone = dataclasses.replace(cell, group_of=tuple(range(count)), powers=(config.total_power,) * count)
    noise_variance = config.noise_variance(snr_db)
    experiment = config.experiment
    n = config.frames
    per_user = _Moments(spread=experiment != "ratio")
    sums, tdma = _Moments(), _Moments()
    cross = 0.0  # sum of products of the hybrid sum's and TDMA's deviations
    for chunk, start in enumerate(range(0, n, _RATE_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, snr_index, chunk)))
        # drawn (K, n) and viewed as (n, K): each user's realizations stay
        # contiguous, which keeps the reductions over realizations fast
        fading_power = draw_fading_power(rng, count, min(_RATE_CHUNK, n - start)).T
        if experiment == "rate_single_user":
            per_user.add(hybrid_rate_table(lone, fading_power, noise_variance))
            continue
        table = hybrid_rate_table(cell, fading_power, noise_variance, config.decoding_order_mode)
        per_user.add(table)
        sum_deviations = sums.add(table.sum(axis=1))
        del table  # freed before the baseline allocates its own (n, K) table
        if experiment == "ratio":
            baseline = hybrid_rate_table(lone, fading_power, noise_variance).mean(axis=1)
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


def run_experiment(config: SimConfig) -> tuple[ResultRow, ...]:
    """Run the experiment that ``config.experiment`` names and return its
    rows: the SNR points in grid order, as given rather than sorted, and
    within a point its users in order, then any "sum" rows.

    ``ber`` is the framed link-level BER of the hybrid scheme, per user and
    pooled; ``ber_single_user`` the BER of each user alone at its own power
    share. ``rate`` and ``ratio`` are fading-averaged hybrid rates and the
    hybrid/TDMA sum-rate ratio; ``rate_single_user`` the full-power rate of
    each user alone, the rate table of a cell of lone users.
    """
    config = config.validated()
    point_fn = _rate_point if config.experiment in RATE_EXPERIMENTS else _ber_point
    points = _map_points(point_fn, config)
    return tuple(row for rows in points for row in rows)


def emit_csv(rows, destination) -> None:
    """Write result rows as CSV.

    ``destination`` is a path or a writable text file object. Floats are
    rendered with repr (shortest round-trip), so identical results yield
    byte-identical files.
    """
    def _write(handle) -> None:
        handle.write("snr_db,entity,metric,value,samples,stderr\n")
        for row in rows:
            handle.write(
                f"{row.snr_db!r},{row.entity},{row.metric},{row.value!r},{row.samples},{row.stderr!r}\n"
            )

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            _write(handle)
