"""Experiment runner, config parsing and CSV output: the numpy-free front
end. The Monte Carlo of an SNR point is in ``points``, which
``run_experiment`` imports once a run has passed every check, so parsing,
validating and refusing a config never load numpy.

Config files are flat UTF-8 ``key = value`` text, a leading byte-order
mark allowed; ``#`` starts a comment and blank lines are ignored. Keys (all
optional, each at most once, defaults reproduce the 5-user reference cell):

    distances            comma list, 1 to 16 users at          0.5,1.5,2.5,3.5,4.5
                         0.001-1000 km, strictly increasing
    path_loss_exponent   in (0, 10]                            3.0
    group_count                                                2
    frames               frames (BER) / realizations (rate),   500
                         at least 2; for rates at most
                         (2**18 // points) * 16384, see below
    bits_per_frame       per user, even, at most 2**20         6144
    snr_grid             "start:step:stop" (inclusive) or
                         comma list, dB, within +-300 dB       0:2:30
    seed                 non-negative 64-bit integer           42
    decoding_order_mode  distance | instantaneous              distance
    fading_mode          block | frame                         block

There is no ``experiment`` key: the CLI's subcommand or a library
caller's ``SimConfig.experiment`` names the experiment.

SNR is the transmit SNR P/sigma^2 in dB at the fixed budget P =
``SimConfig.total_power`` (40 W), which cancels out of every SINR; each
point's sigma^2 is a plain float. Within these ranges every path
gain lies in [1e-30, 1e30] and sigma^2 in [4e-29, 4e31] W, so every rate,
squared deviation and SINR stays a normal double.

A run's items are its BER frames or its rate chunks of ``_RATE_CHUNK``
(16 384) realizations. Item i draws from its own (seed, i) substream,
whatever the SNR grid, and is evaluated at every SNR point, so a row
depends on the seed, the item count and its own SNR alone, and results
are byte-identical for any worker count. The pool's work units are
contiguous ranges of items, one per worker, up to the CPUs the process
may use and up to ``TIMNOMA_WORKERS`` if it is set. It forks where the
platform can, so its workers inherit the numpy and the package the run
has imported, all but ``numpy.random``, which numpy loads lazily and
each worker's first draw imports; Python 3.14 made forkserver Linux's
default, whose workers import both again. Each unit returns raw
statistics, in unit order, and one reducer builds the rows from them.

A rate unit returns 2K + 5 floats per (SNR point, chunk) pair, which
the reducer folds in chunk order, so they are all alive at once.
``validated()`` therefore refuses a rate run of more than
``_MAX_RATE_PAIRS`` (2**18) pairs: at most 78 MB of statistics at
K = 16, and still 2**32 realizations at one SNR point, so a run whose
statistics could not be allocated exits with one line, not a traceback.
BER units return O(K) integers per point whatever the frame count, so
BER frames have no such bound.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import ClassVar

from .errors import ConfigError, ValidationError
from .topology import ORDER_MODES, Cell, _is_int, build_cell

WORKERS_ENV = "TIMNOMA_WORKERS"
# fork where the platform has it, else its default (see the module
# docstring); read from os, since importing multiprocessing here would
# slow every refusal, and a test pins that the two agree
_START_METHOD = "fork" if hasattr(os, "fork") else None

EXPERIMENTS = ("ber", "ber_single_user", "rate", "rate_single_user", "ratio")
RATE_EXPERIMENTS = ("rate", "rate_single_user", "ratio")
FADING_MODES = ("block", "frame")

DEFAULT_DISTANCES = (0.5, 1.5, 2.5, 3.5, 4.5)
DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 31, 2))
# far beyond the figures' 0-70 dB; see the module docstring for what it bounds
_MAX_SNR_DB = 300.0
# far above the figures' 6144, far below a frame that exhausts memory
_MAX_BITS_PER_FRAME = 1 << 20
# realizations per rate chunk: fixed, and known before numpy loads
_RATE_CHUNK = 1 << 14
# rate (SNR point, chunk) pairs a run may have; see the module docstring
_MAX_RATE_PAIRS = 1 << 18


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
        elif self.experiment in RATE_EXPERIMENTS and self.snr_grid_db:
            points = len(self.snr_grid_db)
            if points * -(-self.frames // _RATE_CHUNK) > _MAX_RATE_PAIRS:
                most = _MAX_RATE_PAIRS // points * _RATE_CHUNK
                problems.append(
                    f"frames must be at most {most} for a rate run of {points} SNR "
                    f"point{'s' if points > 1 else ''} (at most {_MAX_RATE_PAIRS} SNR points "
                    f"times {_RATE_CHUNK}-realization chunks)"
                )
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
_STR_KEYS = ("decoding_order_mode", "fading_mode")
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
        # utf-8-sig would count the offset after a byte-order mark, not from
        # the start of the file, so the mark is dropped once decoded
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: not UTF-8 at byte {exc.start}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# experiment runners

def _worker_count(units: int) -> int:
    """One worker per work unit, at most ``TIMNOMA_WORKERS`` and at most
    the CPUs this process may use: a fork pool starts all its workers at
    once."""
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
    return min(cap, units)


def _map_units(unit_fn, config: SimConfig, units: list, workers: int) -> list:
    """Evaluate ``unit_fn(config, *unit)`` for each work unit, here at one
    worker and on a pool of ``workers`` processes otherwise.

    Results come back in unit order regardless of scheduling, and each
    unit derives its randomness only from the seed and its own item
    indices, so the worker count never changes the output.
    """
    if workers == 1:
        return [unit_fn(config, *unit) for unit in units]
    # imported here: a one-worker run never pays for the process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(_START_METHOD)
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(unit_fn, config, *unit) for unit in units]
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
    if config.experiment in RATE_EXPERIMENTS:
        kind, items = "rate", -(-config.frames // _RATE_CHUNK)
    else:
        kind, items = "ber", config.frames
    # at most one contiguous range of items per worker
    workers = _worker_count(items)
    bounds = [items * i // workers for i in range(workers + 1)]
    units = list(zip(bounds, bounds[1:]))
    # numpy loads here, once, after every refusal and before the pool
    # forks, so the workers inherit it instead of importing it again
    from . import points

    unit_fn, reduce = points._WORK[kind]
    return tuple(reduce(config, _map_units(unit_fn, config, units, workers)))


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
