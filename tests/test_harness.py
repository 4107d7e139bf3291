import codecs
import dataclasses
import hashlib
import io
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import timnoma
from timnoma import (
    ConfigError,
    ResultRow,
    SimConfig,
    ValidationError,
    build_cell,
    emit_csv,
    hybrid_rate_table,
    parse_config,
    parse_config_text,
    parse_snr_grid,
    run_experiment,
)
from timnoma.harness import (
    EXPERIMENTS,
    FADING_MODES,
    ORDER_MODES,
    WORKERS_ENV,
    _scene,
    _worker_count,
)
from timnoma.points import _RATE_CHUNK, _ber_frames, _ber_rows, _rate_point

import helpers
from helpers import (
    exact_hybrid_ber,
    exact_sum_rates,
    gathering_decode,
    make_basis,
    mixing_matrix,
    qpsk_levels,
    qpsk_modulate,
    rayleigh_log_mean,
    received_signal,
    reference_noise_sets,
)

# the largest accepted cell, 0.5 to 4.25 km: past 8 users a numpy sum over
# users may add pairwise, so only these pins see the order of additions
K16_DISTANCES = tuple(0.5 + 0.25 * k for k in range(16))
TINY_BER = SimConfig(frames=3, bits_per_frame=128, snr_grid_db=(20.0, 30.0))


def csv_bytes(result) -> bytes:
    buffer = io.StringIO()
    emit_csv(result, buffer)
    return buffer.getvalue().encode()


class TestSimConfig:
    def test_defaults_are_the_reference_scenario(self):
        config = SimConfig().validated()
        assert config.distances == (0.5, 1.5, 2.5, 3.5, 4.5)
        assert config.path_loss_exponent == 3.0
        assert config.group_count == 2
        assert config.total_power == 40.0
        assert config.frames == 500
        assert config.bits_per_frame == 6144
        assert config.seed == 42
        assert config.decoding_order_mode == "distance"
        assert config.experiment == "ber"

    def test_power_budget_is_a_constant_not_a_field(self):
        names = [field.name for field in dataclasses.fields(SimConfig)]
        assert len(names) == 10
        assert "total_power" not in names and "cell_radius" not in names
        for key in ("total_power", "cell_radius"):
            with pytest.raises(TypeError, match=key):
                SimConfig(**{key: 40.0})

    def test_noise_variance_from_snr(self):
        config = SimConfig()
        assert config.noise_variance(0.0) == pytest.approx(40.0)
        assert config.noise_variance(10.0) == pytest.approx(4.0)
        assert config.noise_variance(16.02059991) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize(
        "changes,fragment",
        [
            ({"frames": 0}, "frames"),
            ({"bits_per_frame": 7}, "bits_per_frame"),
            ({"bits_per_frame": 2**20 + 2}, "at most 1048576"),
            ({"snr_grid_db": ()}, "snr_grid"),
            ({"seed": -1}, "seed"),
            ({"decoding_order_mode": "sorted"}, "decoding_order_mode"),
            ({"fading_mode": "static"}, "fading_mode"),
            ({"experiment": "rate_single_user", "frames": 1}, "frames"),
            ({"experiment": "throughput"}, "experiment"),
            ({"distances": (2.0, 1.0)}, "strictly increasing"),
            # a distance below 0.001 km, then an exponent above 10
            ({"distances": (1e-97, 1.0), "group_count": 1}, "distances"),
            ({"distances": (0.01, 0.02), "path_loss_exponent": 148.0}, "path_loss_exponent"),
            ({"snr_grid_db": (4000.0,)}, "snr_grid"),  # beyond +-300 dB
            ({"snr_grid_db": (-4000.0,)}, "snr_grid"),
            ({"frames": True}, "frames"),
            ({"seed": False}, "seed"),
            ({"group_count": True}, "group_count"),
            ({"experiment": "rate", "frames": 1}, "frames"),  # stderr needs two samples
            ({"experiment": "ratio", "frames": 1}, "frames"),
            ({"path_loss_exponent": 1000.0}, "path_loss_exponent"),
            ({"distances": (1e-200, 1.0)}, "distances"),
            # configs whose mean SNRs under- or overflowed, each refused by
            # a range rule now: the exponent, then the SNR
            ({"distances": (1.0, 2.0, 3.0), "path_loss_exponent": 300.0,
              "snr_grid_db": (-2000.0,)}, "path_loss_exponent"),
            ({"distances": (0.001, 0.002), "group_count": 1,
              "snr_grid_db": (3000.0,)}, "snr_grid"),
            ({"distances": (0.001, 0.002), "group_count": 1,
              "snr_grid_db": (0.0, 3000.0)}, "snr_grid"),
            ({"bits_per_frame": 4 * 10**18}, "bits_per_frame"),  # np.empty would fail
            ({"bits_per_frame": True}, "bits_per_frame"),
            ({"path_loss_exponent": "3"}, "path_loss_exponent"),
            ({"path_loss_exponent": True}, "path_loss_exponent"),
            # a BER stderr needs two frames too (ber is the default)
            ({"frames": 1}, "frames"),
            ({"experiment": "ber_single_user", "frames": 1}, "frames"),
        ],
    )
    def test_validation_names_the_field(self, changes, fragment):
        config = SimConfig(**changes)
        with pytest.raises(ConfigError, match=fragment):
            config.validated()

    def test_validation_reports_all_violations_at_once(self):
        config = SimConfig(frames=0, seed=-1, experiment="nope")
        with pytest.raises(ConfigError) as excinfo:
            config.validated()
        message = str(excinfo.value)
        assert "frames" in message and "seed" in message and "experiment" in message


@st.composite
def grid_configs(draw):
    """The reference run's fields with a random buildable cell and a grid
    of SNRs within +-500 dB, in any order, that often spans an end of the
    accepted +-300 dB."""
    count = draw(st.integers(1, 6))
    # distinct distances from 0.001 to 1000 km
    steps = draw(st.lists(st.integers(-100, 100), min_size=count, max_size=count, unique=True))
    start = draw(st.floats(-400.0, 400.0))
    grid = [min(snr, 500.0) for snr in itertools.accumulate(
        draw(st.lists(st.floats(0.0, 200.0), max_size=5)), initial=start
    )]
    return SimConfig(
        distances=tuple(sorted(10.0 ** (0.03 * i) for i in steps)),
        path_loss_exponent=draw(st.floats(0.1, 10.0)),
        group_count=1,
        snr_grid_db=tuple(draw(st.permutations(grid))),
    )


def refused(config) -> bool:
    try:
        config.validated()
    except ConfigError:
        return True
    return False


class TestGridEnds:
    @settings(max_examples=500, deadline=None)
    @given(config=grid_configs())
    def test_grid_is_refused_iff_one_point_alone_is(self, config):
        alone = [refused(replace(config, snr_grid_db=(snr,))) for snr in config.snr_grid_db]
        event("mixed" if 0 < sum(alone) < len(alone) else f"all refused: {all(alone)}")
        assert refused(config) == any(alone)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == SimConfig().validated()

    def test_comments_and_blanks_ignored(self):
        text = "\n# a comment\n  \nframes = 7   # trailing comment\n"
        assert parse_config_text(text).frames == 7

    def test_full_file(self, tmp_path):
        text = (
            "distances = 1.0, 2.0\n"
            "path_loss_exponent = 2.0\n"
            "group_count = 2\n"
            "frames = 4\n"
            "bits_per_frame = 64\n"
            "snr_grid = 0:10:20\n"
            "seed = 7\n"
            "decoding_order_mode = instantaneous\n"
            "fading_mode = frame\n"
        )
        path = tmp_path / "cell.cfg"
        path.write_text(text)
        config = parse_config(path)
        assert config.distances == (1.0, 2.0)
        assert config.snr_grid_db == (0.0, 10.0, 20.0)
        assert config.decoding_order_mode == "instantaneous"
        assert config.fading_mode == "frame"

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # before, the mark stuck to the first key: unknown key '\ufeffframes'
        text = b"frames = 7\nseed = 3\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        assert parse_config(marked) == parse_config(plain) == SimConfig(frames=7, seed=3)

    def test_bad_byte_offset_counts_from_the_file_start(self, tmp_path):
        path = tmp_path / "marked.cfg"
        path.write_bytes(codecs.BOM_UTF8 + b"ab\xff")
        with pytest.raises(ConfigError, match="not UTF-8 at byte 5$"):
            parse_config(path)

    def test_snr_range_is_inclusive(self):
        assert parse_snr_grid("0:2:30") == tuple(float(s) for s in range(0, 31, 2))
        assert len(parse_snr_grid("0:2:30")) == 16
        assert parse_snr_grid("5") == (5.0,)
        assert parse_snr_grid("1,2.5,4") == (1.0, 2.5, 4.0)

    def test_bad_snr_specs(self):
        for spec in ("0:0:10", "0:1:2:3", "10:1:0", "", "a,b", "0:x:10"):
            with pytest.raises(ConfigError):
                parse_snr_grid(spec)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("frames = 3\nframez = 4\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("frames = 10\nseed = 1\nframes = 20\nframez = 4\n")
        message = str(excinfo.value)
        assert "line 3: key 'frames' already set on line 1" in message
        assert "line 4: unknown key 'framez'" in message

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ConfigError, match="line 1.*frames"):
            parse_config_text("frames = soon\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_invariant_violation_named(self):
        with pytest.raises(ConfigError, match="frames"):
            parse_config_text("frames = 0\n").validated()


class TestResultRow:
    @pytest.mark.parametrize(
        "value,stderr", [(math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf)]
    )
    def test_rejects_non_finite(self, value, stderr):
        with pytest.raises(ValidationError, match="finite"):
            ResultRow(10.0, "1", "rate", value, 5, stderr)

    @pytest.mark.parametrize(
        "metric,value,samples,stderr,fragment",
        [
            ("rate", -1e-300, 5, 0.1, "out of range"),
            ("ber", 1.0 + 2**-52, 5, 0.1, "out of range"),
            ("ber_single", -0.5, 5, 0.1, "out of range"),
            ("rate", 0.5, 5, -1e-300, "stderr must be non-negative"),
            ("rate", 0.5, 0, 0.1, "samples must be positive"),
            ("ber", 0.5, -3, 0.1, "samples must be positive"),
        ],
    )
    def test_rejects_out_of_range(self, metric, value, samples, stderr, fragment):
        with pytest.raises(ValidationError, match=fragment):
            ResultRow(10.0, "1", metric, value, samples, stderr)

    def test_range_ends_are_accepted(self):
        ResultRow(10.0, "1", "ber", 1.0, 1, 0.0)
        ResultRow(10.0, "sum", "rate", 0.0, 1, 0.0)
        ResultRow(10.0, "sum", "rate_ratio", 1e300, 1, 0.0)  # only BER is capped at 1


class TestEmitCsv:
    HEADER = "snr_db,entity,metric,value,samples,stderr\n"

    def test_empty_result_is_header_only(self):
        assert csv_bytes(()) == self.HEADER.encode()

    def test_single_row(self):
        rows = (ResultRow(10.0, "1", "ber", 0.125, 100, 0.01),)
        text = csv_bytes(rows).decode()
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1] == "10.0,1,ber,0.125,100,0.01"
        assert text.endswith("\n")

    def test_writes_to_path(self, tmp_path):
        rows = (ResultRow(0.0, "sum", "ber", 0.5, 10, 0.1),)
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        assert path.read_text().startswith(self.HEADER)

    def test_full_precision_round_trip(self):
        value = 0.1234567890123456789
        rows = (ResultRow(1.0, "1", "rate", value, 5, 0.0),)
        line = csv_bytes(rows).decode().splitlines()[1]
        assert float(line.split(",")[3]) == value

    @pytest.mark.parametrize("experiment", ["ber", "ber_single_user", "rate", "ratio"])
    def test_values_render_as_plain_decimals(self, experiment):
        config = replace(TINY_BER, experiment=experiment, snr_grid_db=(20.0,), frames=3)
        text = csv_bytes(run_experiment(config)).decode()
        assert "np." not in text
        for line in text.splitlines()[1:]:
            snr, _entity, _metric, value, samples, stderr = line.split(",")
            float(snr), float(value), int(samples), float(stderr)


class TestBerExperiment:
    def test_noiseless_limit_is_error_free(self):
        config = replace(TINY_BER, snr_grid_db=(200.0,))
        result = run_experiment(config)
        for row in result:
            assert row.value == 0.0

    def test_row_layout_and_pooled_sum(self):
        result = run_experiment(TINY_BER)
        entities = [row.entity for row in result if row.snr_db == 20.0]
        assert entities == ["1", "2", "3", "4", "5", "sum"]
        per_user = [row.value for row in result if row.snr_db == 20.0][:5]
        pooled = helpers.row(result, 20.0, "sum", "ber").value
        assert pooled == pytest.approx(np.mean(per_user), rel=1e-12)
        bits = TINY_BER.frames * TINY_BER.bits_per_frame
        assert helpers.row(result, 20.0, "1", "ber").samples == bits
        assert helpers.row(result, 20.0, "sum", "ber").samples == 5 * bits

    def test_stderr_is_the_spread_of_frame_error_counts(self):
        # frame f draws from its own substream, so a run of F frames holds
        # the run of F - 1 and each later frame's error count is a difference
        # of totals; the two-frame stderr, |c0 - c1| / (2 bits), splits the
        # first pair
        config = replace(TINY_BER, snr_grid_db=(20.0,), fading_mode="frame")
        runs = {frames: run_experiment(replace(config, frames=frames)) for frames in range(2, 7)}
        entities = [(str(k + 1), config.bits_per_frame) for k in range(5)]
        for entity, bits in entities + [("sum", 5 * config.bits_per_frame)]:
            rows = {frames: helpers.row(result, 20.0, entity, "ber") for frames, result in runs.items()}
            totals = {frames: round(row.value * row.samples) for frames, row in rows.items()}
            gap = round(2 * bits * rows[2].stderr)
            counts = [(totals[2] + gap) // 2, (totals[2] - gap) // 2]
            counts += [totals[frames] - totals[frames - 1] for frames in range(3, 7)]
            assert sum(counts) == totals[6] and min(counts) >= 0, entity
            expected = float(np.std(counts, ddof=1)) / math.sqrt(6) / bits
            assert rows[6].stderr == pytest.approx(expected, rel=1e-12), entity

    @pytest.mark.parametrize("shape", [(1, 2), (5, 6144), (16, 65536)])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_int32_bits_draw_the_int64_stream(self, shape, seed):
        # a frame draws its bits as int32: the same bits as the int64 draw,
        # and the noise drawn after them is the same too
        streams = []
        for dtype in (np.int64, np.int32):
            rng = np.random.default_rng(seed)
            streams.append((rng.integers(0, 2, size=shape, dtype=dtype), rng.standard_normal(8)))
        (wide, wide_noise), (narrow, narrow_noise) = streams
        np.testing.assert_array_equal(narrow, wide)
        assert narrow_noise.tobytes() == wide_noise.tobytes()

    def test_deterministic_given_seed(self):
        first = run_experiment(TINY_BER)
        second = run_experiment(TINY_BER)
        assert csv_bytes(first) == csv_bytes(second)

    def test_seed_changes_results(self):
        moderate = replace(TINY_BER, snr_grid_db=(20.0,))
        assert csv_bytes(run_experiment(moderate)) != csv_bytes(
            run_experiment(replace(moderate, seed=43))
        )

    def test_worker_count_is_capped_by_the_usable_cpus(self, monkeypatch):
        # _worker_count alone: a fork pool would start all its workers at once
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setenv(WORKERS_ENV, "100000")
        assert _worker_count(99_991) == 3
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert _worker_count(99_991) == 2
        assert _worker_count(1) == 1
        monkeypatch.delenv(WORKERS_ENV)
        assert _worker_count(99_991) == 3
        # where the affinity call does not exist, the CPU count caps it
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv(WORKERS_ENV, "100000")
        assert _worker_count(99_991) == 4

    def test_invalid_worker_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ConfigError):
            run_experiment(TINY_BER)
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ConfigError):
            run_experiment(TINY_BER)

    @pytest.mark.parametrize("order_mode", ["distance", "instantaneous"])
    @pytest.mark.parametrize("fading_mode", ["block", "frame"])
    def test_all_mode_combinations_run(self, order_mode, fading_mode):
        config = replace(
            TINY_BER,
            snr_grid_db=(25.0,),
            decoding_order_mode=order_mode,
            fading_mode=fading_mode,
        )
        result = run_experiment(config)
        assert all(0.0 <= row.value <= 1.0 for row in result)

    def test_ber_shrinks_with_snr(self):
        config = replace(TINY_BER, frames=12, snr_grid_db=(10.0, 40.0))
        result = run_experiment(config)
        high, low = (helpers.row(result, snr, "sum", "ber").value for snr in (40.0, 10.0))
        assert high < low


class TestBerFramesAcrossTheGrid:
    """Frame f draws from (seed, f) and is decoded at every SNR point, so a
    BER row depends on the seed, the frame count and its own SNR, not on
    the grid around it, and the frames may be split into work units in
    any way."""

    @pytest.mark.parametrize("experiment", ["ber", "ber_single_user"])
    @pytest.mark.parametrize("order_mode", ORDER_MODES)
    @pytest.mark.parametrize("fading_mode", FADING_MODES)
    def test_a_row_does_not_depend_on_the_grid(self, experiment, order_mode, fading_mode, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        config = replace(TINY_BER, experiment=experiment, decoding_order_mode=order_mode,
                         fading_mode=fading_mode)
        rows = [
            [row for row in run_experiment(replace(config, snr_grid_db=grid)) if row.snr_db == 10.0]
            for grid in ((10.0,), (0.0, 10.0, 20.0, 30.0), (30.0, 10.0))
        ]
        assert csv_bytes(rows[0]) == csv_bytes(rows[1]) == csv_bytes(rows[2])

    @pytest.mark.parametrize("experiment", ["ber", "ber_single_user"])
    def test_any_split_of_the_frames_gives_the_same_rows(self, experiment):
        config = replace(TINY_BER, frames=7, experiment=experiment,
                         decoding_order_mode="instantaneous").validated()
        splits = [[(0, 7)], [(f, f + 1) for f in range(7)], [(0, 1), (1, 5), (5, 7)]]
        results = [csv_bytes(_ber_rows(config, [_ber_frames(config, *unit) for unit in split]))
                   for split in splits]
        assert results[0] == results[1] == results[2] == csv_bytes(run_experiment(config))


class TestPoolStartMethod:
    def test_fork_wherever_multiprocessing_lists_it(self):
        expected = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        assert timnoma.harness._START_METHOD == expected

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_every_start_method_writes_the_one_worker_bytes(self, method, monkeypatch):
        configs = (TINY_BER, replace(TINY_BER, experiment="ratio", frames=500))
        monkeypatch.setenv(WORKERS_ENV, "1")
        serial = [csv_bytes(run_experiment(config)) for config in configs]
        # two usable CPUs, so two points start a pool on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(timnoma.harness, "_START_METHOD", method)
        requested = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda name=None: requested.append(name) or get_context(name))
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert [csv_bytes(run_experiment(config)) for config in configs] == serial
        assert requested == [method, method]


@st.composite
def ber_configs(draw):
    """A BER config: 1 to 16 users, T from 1 to K, both orders, both
    fading modes, both BER experiments, 2 or 3 frames of 2 to 16 bits, and
    one or two SNRs from -10 to 50 dB, where errors are common."""
    count = draw(st.integers(1, 16))
    return SimConfig(
        distances=K16_DISTANCES[:count],
        group_count=draw(st.integers(1, count)),
        frames=draw(st.sampled_from([2, 3])),
        bits_per_frame=2 * draw(st.integers(1, 8)),
        snr_grid_db=tuple(draw(st.lists(st.floats(-10.0, 50.0), min_size=1, max_size=2))),
        seed=draw(st.integers(0, 2**64 - 1)),
        decoding_order_mode=draw(st.sampled_from(ORDER_MODES)),
        fading_mode=draw(st.sampled_from(FADING_MODES)),
        experiment=draw(st.sampled_from(["ber", "ber_single_user"])),
    ).validated()


class TestBerFrameMatchesTheReference:
    """A BER run's rows against its frames rebuilt from the same substream
    draws, all K receivers at once: one (K, S, 2) normal draw for the
    noise, scaled to each SNR point in turn, the QPSK level lookup and
    group sums for the signal, and the bank that gathered the cancelling
    rows for SIC. Every error count, and so every value, matches exactly;
    the stderr is the counts' spread, here taken by numpy."""

    @settings(max_examples=150, deadline=None)
    @given(config=ber_configs())
    def test_same_rows(self, config):
        cell = _scene(config)
        count, symbols = cell.user_count, config.bits_per_frame // 2
        amps = np.sqrt(np.asarray(cell.powers))
        gamma = np.array(cell.path_gains)[:, np.newaxis]
        blocks = symbols if config.fading_mode == "block" else 1
        counts = []  # (frames, points, K)
        for frame in range(config.frames):
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, frame)))
            gains = rng.standard_exponential((count, blocks)) * gamma
            bits = rng.integers(0, 2, size=(count, config.bits_per_frame))
            normals = rng.standard_normal((count, symbols, 2))
            magnitudes = np.sqrt(gains)
            transmitted = received_signal(qpsk_levels(bits), magnitudes, amps, cell.group_of)
            order = gains if config.decoding_order_mode == "instantaneous" else None
            frame_counts = []
            for snr in config.snr_grid_db:
                noise = normals * math.sqrt(config.noise_variance(snr) / 2.0)
                decided = gathering_decode(transmitted + noise, magnitudes, amps, cell.group_of, order)
                frame_counts.append(np.count_nonzero(decided != bits, axis=1))
            counts.append(frame_counts)
        counts = np.array(counts)
        if config.experiment == "ber":
            counts = np.concatenate([counts, counts.sum(axis=2, keepdims=True)], axis=2)
        rows = _ber_rows(config, [_ber_frames(config, 0, config.frames)])
        assert len(rows) == counts.shape[1] * counts.shape[2]
        for row, frame_counts in zip(rows, counts.reshape(config.frames, -1).T):
            bits_per_frame = config.bits_per_frame * (count if row.entity == "sum" else 1)
            assert row.samples == config.frames * bits_per_frame
            assert row.value == frame_counts.sum() / row.samples, row
            spread = float(np.std(frame_counts, ddof=1)) / math.sqrt(config.frames)
            assert row.stderr == pytest.approx(spread / bits_per_frame, rel=1e-9, abs=1e-15), row


class _DeepFade:
    """A generator whose exponential draws are exactly 0.0 for one user on
    every other column: the deep fade ``standard_exponential`` returns
    about once in 2**53 draws. Every other draw passes through."""

    def __init__(self, rng, user):
        self._rng, self._user = rng, user

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_exponential(self, *args, **kwargs):
        draw = self._rng.standard_exponential(*args, **kwargs)
        draw[self._user, ::2] = 0.0
        return draw


class TestDeepFade:
    """A zero power gain puts a zero under the equalised row's noise scale.
    The run must not warn, which here is an error, its rows must stay
    finite, and its error counts must be those of the unequalised frame,
    rebuilt from the same draws as ``TestBerFrameMatchesTheReference``
    rebuilds it."""

    USER = 2

    @pytest.mark.parametrize("order_mode", ORDER_MODES)
    @pytest.mark.parametrize("fading_mode", FADING_MODES)
    def test_zero_gains_decide_as_the_unequalised_frame(self, order_mode, fading_mode, monkeypatch):
        config = replace(TINY_BER, decoding_order_mode=order_mode, fading_mode=fading_mode).validated()
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _DeepFade(default_rng(seed), self.USER))
        cell = _scene(config)
        count, symbols = cell.user_count, config.bits_per_frame // 2
        amps = np.sqrt(np.asarray(cell.powers))
        gamma = np.array(cell.path_gains)[:, np.newaxis]
        blocks = symbols if fading_mode == "block" else 1
        errors = np.zeros((len(config.snr_grid_db), count), dtype=int)
        for frame in range(config.frames):
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, frame)))
            gains = rng.standard_exponential((count, blocks)) * gamma
            bits = rng.integers(0, 2, size=(count, config.bits_per_frame))
            normals = rng.standard_normal((count, symbols, 2))
            magnitudes = np.sqrt(gains)
            transmitted = received_signal(qpsk_levels(bits), magnitudes, amps, cell.group_of)
            order = gains if order_mode == "instantaneous" else None
            for index, snr in enumerate(config.snr_grid_db):
                noise = normals * math.sqrt(config.noise_variance(snr) / 2.0)
                decided = gathering_decode(transmitted + noise, magnitudes, amps, cell.group_of, order)
                errors[index] += np.count_nonzero(decided != bits, axis=1)
        # with no channel, the faded user's bits are the noise's signs
        assert all(errors[:, self.USER] > 0)
        rows = _ber_rows(config, [_ber_frames(config, 0, config.frames)])
        assert all(math.isfinite(row.value) and math.isfinite(row.stderr) for row in rows)
        expected = [n for point in errors for n in (*point, point.sum())]
        assert len(rows) == len(expected)
        assert [row.value for row in rows] == [e / row.samples for e, row in zip(expected, rows)]


class TestSingleUserExperiment:
    def test_row_layout_has_no_sum(self):
        config = replace(TINY_BER, experiment="ber_single_user")
        result = run_experiment(config)
        entities = {row.entity for row in result}
        assert entities == {"1", "2", "3", "4", "5"}
        assert all(row.metric == "ber_single" for row in result)

    def test_single_user_cell_matches_hybrid_bit_for_bit(self):
        # a single-user run is the hybrid run of the same users, each in a
        # group of its own: one user in one group, and the reference cell
        # (single-user at T = 2 against hybrid at T = 5) in both orders and
        # both fading modes
        cells = [(SimConfig(distances=(1.0,), group_count=1, bits_per_frame=128), 1)]
        for order in ("distance", "instantaneous"):
            for fading in ("block", "frame"):
                cell = SimConfig(bits_per_frame=120, decoding_order_mode=order, fading_mode=fading)
                cells.append((cell, 5))
        for base, hybrid_group_count in cells:
            base = replace(base, frames=4, snr_grid_db=(6.0, 10.0))
            hybrid = run_experiment(replace(base, experiment="ber", group_count=hybrid_group_count))
            single = run_experiment(replace(base, experiment="ber_single_user"))
            for snr in base.snr_grid_db:
                for k in range(len(base.distances)):
                    assert (
                        helpers.row(hybrid, snr, str(k + 1), "ber").value
                        == helpers.row(single, snr, str(k + 1), "ber_single").value
                    ), (base, snr, k)

    def test_rate_variant_uses_full_power(self):
        config = replace(
            TINY_BER, experiment="rate_single_user", frames=2000, snr_grid_db=(10.0,)
        )
        result = run_experiment(config)
        assert {row.metric for row in result} == {"rate_single"}
        # full-power single-user rate dominates the hybrid per-user rate
        hybrid = run_experiment(replace(config, experiment="rate"))
        for k in range(5):
            assert (
                helpers.row(result, 10.0, str(k + 1), "rate_single").value
                > helpers.row(hybrid, 10.0, str(k + 1), "rate").value
            )


class TestRateExperiment:
    RATE_CONFIG = SimConfig(frames=4000, snr_grid_db=(0.0, 20.0), experiment="rate")

    def test_row_layout_and_sum_consistency(self):
        result = run_experiment(self.RATE_CONFIG)
        entities = [row.entity for row in result if row.snr_db == 0.0]
        assert entities == ["1", "2", "3", "4", "5", "sum"]
        per_user = [helpers.row(result, 0.0, str(k + 1), "rate").value for k in range(5)]
        assert helpers.row(result, 0.0, "sum", "rate").value == pytest.approx(sum(per_user), rel=1e-12)

    def test_rates_grow_with_snr(self):
        result = run_experiment(self.RATE_CONFIG)
        for k in range(5):
            assert (
                helpers.row(result, 20.0, str(k + 1), "rate").value
                > helpers.row(result, 0.0, str(k + 1), "rate").value
            )

    def test_deterministic(self):
        assert csv_bytes(run_experiment(self.RATE_CONFIG)) == csv_bytes(
            run_experiment(self.RATE_CONFIG)
        )

    def test_ratio_rows_are_consistent(self):
        config = replace(self.RATE_CONFIG, experiment="ratio")
        result = run_experiment(config)
        for snr in config.snr_grid_db:
            hybrid = helpers.row(result, snr, "sum", "rate_hybrid").value
            baseline = helpers.row(result, snr, "sum", "rate_tdma").value
            ratio = helpers.row(result, snr, "sum", "rate_ratio").value
            assert ratio == pytest.approx(hybrid / baseline, rel=1e-12)
            assert helpers.row(result, snr, "sum", "rate_ratio").stderr >= 0.0

    def test_stderr_survives_the_bottom_of_the_snr_range(self):
        # every point is in the linear regime and draws the same fading, so
        # every row keeps the same stderr/value down to -300 dB, where the
        # squared deviations of rates near 1e-31 stay normal doubles
        for experiment, row_count in (("rate", 6), ("ratio", 3)):
            mid, *lows = (
                run_experiment(
                    replace(self.RATE_CONFIG, experiment=experiment, frames=50, snr_grid_db=(snr,))
                )
                for snr in (-100.0, -200.0, -300.0)
            )
            for low in lows:
                assert len(low) == len(mid) == row_count
                for a, b in zip(low, mid):
                    assert a.stderr > 0.0, a
                    assert a.stderr / a.value == pytest.approx(b.stderr / b.value, rel=1e-9), (a, b)


class TestChunkedRatePoints:
    """A rate point runs over chunks of _RATE_CHUNK realizations, chunk c
    drawn from SeedSequence((seed, snr_index, c)), and merges the chunks'
    moments in chunk order."""

    FRAMES = 2 * _RATE_CHUNK + 7  # two full chunks and a ragged one
    CONFIG = SimConfig(frames=FRAMES, snr_grid_db=(0.0, 30.0))

    @pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
    def test_chunk_zero_draws_the_unchunked_stream(self, seed):
        # SeedSequence pads its entropy with zero words, so a point of at
        # most one chunk draws what it drew before points were chunked
        for index in (0, 7):
            whole = np.random.default_rng(np.random.SeedSequence((seed, index)))
            chunk = np.random.default_rng(np.random.SeedSequence((seed, index, 0)))
            assert np.array_equal(whole.standard_exponential(64), chunk.standard_exponential(64))

    def reference_tables(self, config, snr_index, snr):
        """Every chunk's substream redrawn and concatenated: the whole
        point's (hybrid, single-user) rate tables in one piece."""
        cell = build_cell(
            config.distances, config.path_loss_exponent, config.group_count, config.total_power
        )
        draws = [
            np.random.default_rng(
                np.random.SeedSequence((config.seed, snr_index, chunk))
            ).standard_exponential((cell.user_count, min(_RATE_CHUNK, config.frames - start)))
            for chunk, start in enumerate(range(0, config.frames, _RATE_CHUNK))
        ]
        fading_power = np.concatenate(draws, axis=1).T
        sigma2 = config.noise_variance(snr)
        hybrid = hybrid_rate_table(cell, fading_power, sigma2)
        return hybrid, hybrid_rate_table(helpers.lone_cell(cell, config.total_power), fading_power, sigma2)

    @pytest.mark.parametrize("experiment", ["rate", "rate_single_user", "ratio"])
    def test_matches_the_unchunked_statistics(self, experiment):
        config = replace(self.CONFIG, experiment=experiment)
        result = run_experiment(config)
        n = config.frames
        root_n = math.sqrt(n)
        for index, snr in enumerate(config.snr_grid_db):
            hybrid, single = self.reference_tables(config, index, snr)
            expected = []  # (entity, metric, value, stderr)
            if experiment == "rate_single_user":
                for k in range(len(config.distances)):
                    column = single[:, k]
                    expected.append((str(k + 1), "rate_single", column.mean(), column.std(ddof=1) / root_n))
            elif experiment == "rate":
                for k in range(len(config.distances)):
                    column = hybrid[:, k]
                    expected.append((str(k + 1), "rate", column.mean(), column.std(ddof=1) / root_n))
                sums = hybrid.sum(axis=1)
                expected.append(("sum", "rate", sums.mean(), sums.std(ddof=1) / root_n))
            else:
                sums, baseline = hybrid.sum(axis=1), single.mean(axis=1)
                h, t = sums.mean(), baseline.mean()
                sh, st = sums.std(ddof=1), baseline.std(ddof=1)
                cov = np.sum((sums - h) * (baseline - t)) / (n - 1)
                ratio = h / t
                var = ratio**2 * ((sh / h) ** 2 + (st / t) ** 2 - 2.0 * cov / (h * t)) / n
                expected += [
                    ("sum", "rate_hybrid", h, sh / root_n),
                    ("sum", "rate_tdma", t, st / root_n),
                    ("sum", "rate_ratio", ratio, math.sqrt(var)),
                ]
            for entity, metric, value, stderr in expected:
                row = helpers.row(result, snr, entity, metric)
                assert row.samples == n
                assert row.value == pytest.approx(value, rel=1e-12), (snr, entity, metric)
                assert row.stderr == pytest.approx(stderr, rel=1e-12), (snr, entity, metric)


@pytest.mark.parametrize(
    "config, workers",
    [
        pytest.param(TINY_BER, 2, id="ber"),
        # one point: the two workers split its frames
        pytest.param(replace(TINY_BER, snr_grid_db=(10.0,)), 2, id="ber-one-point"),
        # the only run where decode takes a per-block cancellation mask
        pytest.param(replace(TINY_BER, decoding_order_mode="instantaneous"), 2, id="ber-instantaneous-block"),
        pytest.param(
            replace(TINY_BER, experiment="ber_single_user", snr_grid_db=(10.0, 20.0, 30.0)),
            2,
            id="ber_single_user",
        ),
        pytest.param(replace(TestRateExperiment.RATE_CONFIG, experiment="ratio", frames=500), 3, id="ratio"),
        # two full chunks and a ragged one per point
        *(
            pytest.param(replace(TestChunkedRatePoints.CONFIG, experiment=name), 2, id=f"chunked-{name}")
            for name in ("rate", "rate_single_user", "ratio")
        ),
    ],
)
def test_worker_count_does_not_change_bytes(config, workers, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    serial = csv_bytes(run_experiment(config))
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    assert csv_bytes(run_experiment(config)) == serial


# Runs argv in a child and prints its exit code and peak RSS in KiB from
# wait4. The launcher is a small interpreter of its own: a child's peak RSS
# counts the image it was forked from, and pytest's is large.
_PEAK_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_pid, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_rate_point_memory_does_not_grow_with_realizations():
    src = os.path.dirname(os.path.dirname(timnoma.__file__))
    env = {**os.environ, "PYTHONPATH": src, WORKERS_ENV: "1"}
    peaks = {}
    for frames in (2, 1_000_000):
        argv = [sys.executable, "-m", "timnoma.cli", "ratio", "--frames", str(frames), "--snr", "10"]
        out = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_PROBE, *argv],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        code, peak_kib = (int(field) for field in out.stdout.split())
        assert code == 0, out.stderr
        peaks[frames] = peak_kib / 1024.0
    # one (N, K) table at N = 10**6 alone is 40 MB
    assert peaks[1_000_000] - peaks[2] < 10.0, peaks


def test_ber_unit_frees_each_frame_before_the_next():
    # 16 users in one group under instantaneous order: a frame's gains and
    # bits are gone before the next frame draws its own, so two frames'
    # draws are never alive together
    config = SimConfig(
        distances=K16_DISTANCES, group_count=1, decoding_order_mode="instantaneous",
        frames=2, bits_per_frame=1 << 15, snr_grid_db=(10.0,),
    ).validated()
    count, symbols = len(K16_DISTANCES), config.bits_per_frame // 2
    draws = count * symbols * 8 + count * config.bits_per_frame * 4  # float64 gains, int32 bits
    _ber_frames(config, 0, 2)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        _ber_frames(config, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.30x: one frame's draws, the unit's noise and work rows and
    # group totals, and the chain's scratch row; with a second scratch row
    # it read 1.34x, and with the previous frame's bits on top 1.63x
    assert peak < 1.5 * draws, peak / draws


@pytest.mark.parametrize(
    "experiment, order_mode, bound",
    [
        ("rate", "distance", 2.5),
        ("rate_single_user", "distance", 2.5),
        ("ratio", "distance", 2.5),
        ("rate", "instantaneous", 3.5),
        ("ratio", "instantaneous", 3.5),
    ],
    ids=["rate", "rate_single_user", "ratio", "rate-instantaneous", "ratio-instantaneous"],
)
def test_rate_point_memory_stays_near_one_chunk(experiment, order_mode, bound):
    # three full chunks and a ragged one of the reference cell at 10 dB:
    # the point's draw buffer takes one (K, chunk) array, every table is
    # written over it, and no chunk allocates an (N, K) array of its own
    # beside it; instantaneous order adds the (K, chunk) absorbed powers
    config = SimConfig(
        experiment=experiment, frames=3 * _RATE_CHUNK + 7, snr_grid_db=(10.0,),
        decoding_order_mode=order_mode,
    ).validated()
    chunk = len(config.distances) * _RATE_CHUNK * 8  # one (K, chunk) float64 array
    _rate_point(config, 0, 10.0)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        _rate_point(config, 0, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.6x, 1.4x and 2.0x in distance order and 2.6x and 3.0x in
    # instantaneous order; with a separate table buffer beside the draw,
    # 2.6x, 2.4x, 2.8x, 3.6x and 3.8x
    assert peak < bound * chunk, peak / chunk


class TestRatesAgainstClosedForm:
    """Monte Carlo rates within 4 stderr of their exact E1 values, distance
    order, reference cell."""

    CONFIG = SimConfig(
        frames=10_000, snr_grid_db=(-150.0, -100.0) + tuple(float(s) for s in range(0, 71, 10))
    )

    def test_hybrid_sum_rate(self):
        config = replace(self.CONFIG, experiment="rate")
        result = run_experiment(config)
        for snr in config.snr_grid_db:
            exact, _tdma = exact_sum_rates(
                config.distances, 3.0, 40.0, config.noise_variance(snr), reference_noise_sets(), 2
            )
            row = helpers.row(result, snr, "sum", "rate")
            assert abs(row.value - exact) <= 4.0 * row.stderr, (snr, row.value, exact)

    def test_single_user_rates(self):
        config = replace(self.CONFIG, experiment="rate_single_user")
        result = run_experiment(config)
        for snr in config.snr_grid_db:
            sigma2 = config.noise_variance(snr)
            for k, d in enumerate(config.distances):
                exact = rayleigh_log_mean(40.0, d**-3.0 / sigma2) / (2.0 * math.log(2.0))
                row = helpers.row(result, snr, str(k + 1), "rate_single")
                assert abs(row.value - exact) <= 4.0 * row.stderr, (snr, k, row.value, exact)

    def test_ratio_tends_to_the_group_count_beyond_the_reference_cell(self):
        # the hybrid/TDMA ratio tends to T: from above when groups hold
        # several users, from below when K = T, where nobody cancels
        cells = [
            ((0.5, 4.5), 2),
            ((0.5, 1.0, 1.5, 2.0, 2.5, 3.0), 3),
            (helpers.REFERENCE_DISTANCES, 5),
            (K16_DISTANCES, 1),
        ]
        grid = (30.0, 40.0, 100.0, 300.0)
        for distances, groups in cells:
            config = SimConfig(
                distances=distances, group_count=groups, frames=10_000,
                snr_grid_db=grid, experiment="ratio",
            )
            # distance order: user k is disturbed by its nearer group mates
            noise_sets = {k: list(range(k % groups, k, groups)) for k in range(len(distances))}

            def exact_ratio(snr_db):
                hybrid, tdma = exact_sum_rates(
                    distances, config.path_loss_exponent, config.total_power,
                    config.noise_variance(snr_db), noise_sets, groups,
                )
                return hybrid / tdma

            exact = {snr: exact_ratio(snr) for snr in grid}
            result = run_experiment(config)
            for snr in grid:
                row = helpers.row(result, snr, "sum", "rate_ratio")
                assert abs(row.value - exact[snr]) <= 4.0 * row.stderr, (groups, snr, row.value, exact[snr])
                if len(distances) == groups == 2:
                    assert row.value < 2.0 and exact[snr] < 2.0, (snr, row.value, exact[snr])
            low, high = sorted((exact[100.0], float(groups)))
            assert low < exact[300.0] < high, (distances, exact[100.0], exact[300.0])


class TestBerAgainstExact:
    """Per-user hybrid BER within 4 sigma of the exact SIC-chain BER, block
    fading, distance order. The two bits of a symbol share one fading draw,
    so sigma = sqrt(2 p (1 - p) / n) bounds the spread of n bits."""

    @pytest.mark.parametrize(
        "cell",
        [{}, {"distances": (0.4, 0.9, 1.5, 2.2, 3.0, 3.9, 4.8), "group_count": 3}],
        ids=["reference", "seven-users-three-groups"],
    )
    def test_per_user_ber(self, cell):
        config = SimConfig(frames=20, snr_grid_db=(10.0, 20.0, 30.0), **cell)
        result = run_experiment(config)
        for snr in config.snr_grid_db:
            exact = exact_hybrid_ber(
                config.distances, config.path_loss_exponent, config.group_count,
                config.total_power, config.noise_variance(snr),
            )
            for k, p in enumerate(exact):
                row = helpers.row(result, snr, str(k + 1), "ber")
                sigma = math.sqrt(2.0 * p * (1.0 - p) / row.samples)
                assert abs(row.value - p) <= 4.0 * sigma, (snr, k, row.value, p)


class TestBerStderrAgainstSpread:
    """A BER row's reported stderr is the spread that independent runs show.
    Over ``SEEDS`` runs, (runs - 1) times the sample variance of a row's BER
    over its mean reported variance is about chi-squared with runs - 1
    degrees of freedom, and must lie in that law's central 99.9 % band. A
    binomial stderr over bits fails this under frame fading, where every
    bit of a frame shares one fading draw."""

    SEEDS = range(24)
    CONFIG = SimConfig(frames=40, bits_per_frame=64, snr_grid_db=(30.0,))

    @staticmethod
    def chi2_quantile(dof, z):
        """The chi-squared quantile at standard normal quantile z, by the
        Wilson-Hilferty cube-root approximation."""
        spread = 2.0 / (9.0 * dof)
        return dof * (1.0 - spread + z * math.sqrt(spread)) ** 3

    @pytest.mark.parametrize("fading_mode", ["block", "frame"])
    def test_seed_spread_matches_reported_stderr(self, fading_mode, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        config = replace(self.CONFIG, fading_mode=fading_mode)
        runs = [run_experiment(replace(config, seed=seed)) for seed in self.SEEDS]
        dof = len(runs) - 1
        low, high = (self.chi2_quantile(dof, z) / dof for z in (-3.2905, 3.2905))
        for index, row in enumerate(runs[0]):
            values = np.array([result[index].value for result in runs])
            reported = np.mean([result[index].stderr ** 2 for result in runs])
            ratio = float(np.var(values, ddof=1) / reported)
            assert low <= ratio <= high, (row.entity, ratio, low, high)


class TestBoxCorners:
    """Every experiment, order and fading mode runs to finite rows, with
    every numpy floating-point error raised, at the corners of the accepted
    box: users packed at 0.001 km, packed at 1000 km or spread over both
    ends, exponents 0.001 and 10, T of 1 and K, and SNRs of -300, 0 and
    300 dB."""

    RUNS = [("rate_single_user", "distance", "block")] + [
        (experiment, order, fading)
        for experiment in ("ber", "ber_single_user", "rate", "ratio")
        for order in ORDER_MODES
        for fading in (FADING_MODES if experiment.startswith("ber") else ("block",))
    ]

    @pytest.mark.parametrize("layout", ["near", "far", "both-ends"])
    @pytest.mark.parametrize("count", [1, 2, 5, 8])
    def test_corners_run_to_finite_rows(self, count, layout, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        distances = {
            "near": [0.001 * (1.0 + 1e-3 * k) for k in range(count)],
            "far": [1000.0 * (1.0 - 1e-3 * k) for k in reversed(range(count))],
            "both-ends": list(np.geomspace(0.001, 1000.0, count)),
        }[layout]
        for exponent, groups, (experiment, order, fading) in itertools.product(
            (0.001, 10.0), sorted({1, count}), self.RUNS
        ):
            config = SimConfig(
                distances=tuple(distances), path_loss_exponent=exponent, group_count=groups,
                frames=2, bits_per_frame=2, snr_grid_db=(-300.0, 0.0, 300.0),
                decoding_order_mode=order, fading_mode=fading, experiment=experiment,
            )
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                result = run_experiment(config)
            for row in result:
                assert math.isfinite(row.value) and math.isfinite(row.stderr), (config, row)
                if row.metric.startswith("rate"):
                    # no rate has lost its precision as a subnormal or 0
                    assert row.value >= sys.float_info.min, (config, row)


@st.composite
def any_configs(draw):
    """A config from the accepted box or just past one of its edges: K from
    1 to 17 users at 10**-3.1 to 10**3.1 km, T from 1 to K, path-loss
    exponents from 0.001 to 11, SNRs within +-310 dB, every experiment and
    mode, the smallest frame counts each experiment takes and any even bit
    count up to 64."""
    count = draw(st.integers(1, 17))
    # distinct thousandths of a decade, so no two users tie
    steps = draw(st.lists(st.integers(-3100, 3100), min_size=count, max_size=count, unique=True))
    group_count = draw(st.integers(1, count))
    return SimConfig(
        distances=tuple(sorted(10.0 ** (i / 1000) for i in steps)),
        path_loss_exponent=draw(st.floats(0.001, 11.0)),
        group_count=group_count,
        frames=draw(st.sampled_from([2, 3])),
        bits_per_frame=2 * draw(st.integers(1, 32)),
        snr_grid_db=tuple(draw(st.lists(st.floats(-310.0, 310.0), min_size=1, max_size=3))),
        seed=draw(st.integers(0, 2**64 - 1)),
        decoding_order_mode=draw(st.sampled_from(ORDER_MODES)),
        fading_mode=draw(st.sampled_from(FADING_MODES)),
        experiment=draw(st.sampled_from(EXPERIMENTS)),
    )


class TestEveryAcceptedConfigRuns:
    """A config either fails validation or runs to finite rows with no
    numpy warning: validated() is the only gate a run has to pass."""

    @settings(max_examples=200, deadline=None)
    @given(config=any_configs())
    def test_refused_or_finite(self, config):
        try:
            config.validated()
        except ConfigError:
            event("refused")
            return
        event("ran")
        with mock.patch.dict(os.environ, {WORKERS_ENV: "1"}), warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                result = run_experiment(config)
        assert result
        for row in result:
            assert math.isfinite(row.value) and math.isfinite(row.stderr), row


class TestRunExperimentDispatch:
    @pytest.mark.parametrize(
        "experiment,metric",
        [
            ("ber", "ber"),
            ("ber_single_user", "ber_single"),
            ("rate", "rate"),
            ("rate_single_user", "rate_single"),
            ("ratio", "rate_ratio"),
        ],
    )
    def test_dispatch(self, experiment, metric):
        config = replace(
            TINY_BER, experiment=experiment, frames=3 if "ber" in experiment else 50
        )
        result = run_experiment(config)
        assert any(row.metric == metric for row in result)


class TestTransmitEnergyAudit:
    def test_framed_transmit_energy_matches_budget(self):
        # links the power constraint to the symbol pipeline end to end
        config = SimConfig(frames=50, bits_per_frame=6144).validated()
        cell = _scene(config)
        mix = mixing_matrix(cell.powers, cell.group_of, make_basis(config.group_count))
        rng = np.random.default_rng(77)
        energies = []
        for _ in range(config.frames):
            bits = rng.integers(0, 2, size=(5, config.bits_per_frame))
            x = mix @ qpsk_modulate(bits)
            energies.append(np.mean(np.sum(np.abs(x) ** 2, axis=0)))
        assert np.mean(energies) == pytest.approx(40.0, rel=0.01)


class TestPinnedBerBytes:
    """SHA-256 of small BER CSVs, both sets re-recorded on numpy 2.4.6 when
    frame f moved to its own (seed, f) substream, drawn once and decoded
    at every SNR point: after the rebuilds of ``TestBerFrameMatchesTheReference``
    and ``TestDeepFade``, the exact-BER tests and the benchmark's oracle
    checks passed on the new stream. A frame draws power gains, bits, then
    (K, S, 2) normals on the derotated real baseband; any change to the RNG
    stream, the decoding order or the detector's tie rule changes them.
    ``VALUE_SHA256`` hashes the CSVs without their stderr column, so a
    change to the stderr alone shows as ``SHA256`` failing while it
    holds."""

    BASE = SimConfig(frames=3, bits_per_frame=192, snr_grid_db=(10.0, 25.0, 40.0))
    CASES = {
        **{
            f"{order}-{fading}": {"decoding_order_mode": order, "fading_mode": fading}
            for order in ("distance", "instantaneous")
            for fading in ("block", "frame")
        },
        "one-user": {"distances": (1.0,), "group_count": 1},
        "three-groups": {
            "distances": (0.4, 0.9, 1.5, 2.2, 3.0, 3.9, 4.8),
            "group_count": 3,
            "decoding_order_mode": "instantaneous",
        },
        **{
            f"k16-t{slots}-{order}-{fading}": {
                "distances": K16_DISTANCES,
                "group_count": slots,
                "decoding_order_mode": order,
                "fading_mode": fading,
            }
            for slots in (1, 4)
            for order in ("distance", "instantaneous")
            for fading in ("block", "frame")
        },
    }
    SHA256 = {
        ("distance-block", "ber"): "26c5f6f418354781d907d0d97d125023baf84a4984afc596b9f89145d8ecb11a",
        ("distance-block", "ber_single_user"): "93aa320299435fd5afde774030d93fbf8681a404bfe8758b69c45d4a9981ff77",
        ("distance-frame", "ber"): "d6a6ddff86e1829a91dec8da96519762cc0116de49f9b27a5e761c30f4f581dd",
        ("distance-frame", "ber_single_user"): "1dad81e23834e25e0dd56b698e453aa7c0797c444114b52a425eb6951309fa0a",
        ("instantaneous-block", "ber"): "ea4df4fcd2583af5bec0a7a917cb80aa8907e044d890749b12c948fde6a6105b",
        ("instantaneous-block", "ber_single_user"): "93aa320299435fd5afde774030d93fbf8681a404bfe8758b69c45d4a9981ff77",
        ("instantaneous-frame", "ber"): "d3f63a108ef9fe81e6286345d04e9839ce81b1570664410a764cf4e53962def9",
        ("instantaneous-frame", "ber_single_user"): "1dad81e23834e25e0dd56b698e453aa7c0797c444114b52a425eb6951309fa0a",
        ("one-user", "ber"): "3c0dcef2b48883f4f115794f5f159dbc199ff346b2bdc88ccbe45713dbbbc1ad",
        ("one-user", "ber_single_user"): "80c7cd3e6d11da03a942178e085798bc261d033a8adfca580dbf7a4d9035cf47",
        ("three-groups", "ber"): "c9ebf11a66a298f372d3844bd31dac987b7b9138b60932c1b70d304041014c3d",
        ("three-groups", "ber_single_user"): "3ac8bd3e77bda6ee0babbf1a1ec8ee3bbe27da587db3b63daaca19c73b9d68ee",
        ("k16-t1-distance-block", "ber"): "985103f7f999d1221efd9748c4b0ee973c1a48962b1466411e0c6fd171b07bf9",
        ("k16-t1-distance-frame", "ber"): "97d0f6ba3c956460e2e649735bd8178356478b25eea1aee8e9f0c9d8bf3f8708",
        ("k16-t1-instantaneous-block", "ber"): "766856cef88efd95f21eb08ac47509073dc9433e5f66c478148c5e6d53d844e2",
        ("k16-t1-instantaneous-frame", "ber"): "7e474e0a3799ba292b9ccb93b8ee288fe89ce5b2741f3fb59fda276636adcb95",
        ("k16-t4-distance-block", "ber"): "4d888542f8f7505c9f18c19037bf375a2671db46ef2c769b2055fb9f79aa96ec",
        ("k16-t4-distance-frame", "ber"): "6adc962e11f02b84381906b3dbf01496e80c23a8ac94fca3bea7ba1502df223a",
        ("k16-t4-instantaneous-block", "ber"): "24d3b03769ed5380bfc4e8940d7b9ec9865bbd0a833828eb0665ed735de94267",
        ("k16-t4-instantaneous-frame", "ber"): "4aa375cc37208b07a9ac1541a05eb2a4a2a10ed1e82ec411d9d7e85ca3a967a4",
    }

    VALUE_SHA256 = {
        ("distance-block", "ber"): "10383f248675a7191aa3f1363f3a7be2cac43a3ea1124a93bb04191ed56c7a7f",
        ("distance-block", "ber_single_user"): "c0664f6791b12eb6abf8494581e9f1b90ad5a207dc7c53894a4a762093b38474",
        ("distance-frame", "ber"): "d98d3f0ea22fd7026703f736c73d520cebb78574bc8dbb82003a7034ae9b0281",
        ("distance-frame", "ber_single_user"): "222bdeafc4bfe204d6f7f6bea3a4c3362adb442cb8a175f6b97503fdf667f481",
        ("instantaneous-block", "ber"): "492174aa761e273aaef6547ae90872cafdecb4d13060f28ef186ae145b8d0cf6",
        ("instantaneous-block", "ber_single_user"): "c0664f6791b12eb6abf8494581e9f1b90ad5a207dc7c53894a4a762093b38474",
        ("instantaneous-frame", "ber"): "5dc7536ce74c519aeed8464225a47403cc5681c4b4a00de96ac807a3975ca4e3",
        ("instantaneous-frame", "ber_single_user"): "222bdeafc4bfe204d6f7f6bea3a4c3362adb442cb8a175f6b97503fdf667f481",
        ("one-user", "ber"): "59c51464a49f3bbd95c0db69909ef5af203758d99b980165031ab4f9abeaba1e",
        ("one-user", "ber_single_user"): "45a1af218f1227f2a44b34990902f0f30ee81eced231cf95af139161a9e17c22",
        ("three-groups", "ber"): "56f9a7146e9ad36c954a17b5378d6ee49745ac6bebc9bccfbbb549eeb5b0c922",
        ("three-groups", "ber_single_user"): "708dadc06b400a28f5a5b56076e9a31afa16e850375cce22ac23f6c13a86b1e4",
        ("k16-t1-distance-block", "ber"): "6b6adc9c4e543273998bc3666f30b560f5462cfed6cf2e43cb3bf741281f60b0",
        ("k16-t1-distance-frame", "ber"): "ffe92014fe72b4edd24acec7658faa604d9ff20b649d19a2f367d070f19a8bdf",
        ("k16-t1-instantaneous-block", "ber"): "35307a7db1b1083429e1609e68dcfc5c5eef86bbf6354abb9341c5fda405c2dd",
        ("k16-t1-instantaneous-frame", "ber"): "5c3f08763dd8c5dd03cc51424295c3fa8231105432f2c0bba15b9b5cf37641a8",
        ("k16-t4-distance-block", "ber"): "a68219ceefc79f68362ae761993265fdfd7311a39da10de4360fdf169089a0e8",
        ("k16-t4-distance-frame", "ber"): "f5a8fe84adf32643154fe79a9a290039f6049f7cd19942aaf334bf8d368df024",
        ("k16-t4-instantaneous-block", "ber"): "dbb4df70192cc0b27aeaaa562fea13e00deb82fde8d739da63a5beb34ef3c979",
        ("k16-t4-instantaneous-frame", "ber"): "6568ba8fbf5becf09c692d0a0826babb11b193faba7ca65bbd49a4d964f7678c",
    }

    @pytest.mark.parametrize("case,experiment", sorted(SHA256))
    def test_csv_bytes_unchanged(self, case, experiment, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        config = dataclasses.replace(self.BASE, experiment=experiment, **self.CASES[case])
        data = csv_bytes(run_experiment(config.validated()))
        without_stderr = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
        assert hashlib.sha256(without_stderr).hexdigest() == self.VALUE_SHA256[(case, experiment)]
        assert hashlib.sha256(data).hexdigest() == self.SHA256[(case, experiment)]


class TestPinnedRateBytes:
    """SHA-256 of small rate CSVs, recorded when the rate tables moved to
    log1p and the ratio's delta method to relative terms. The rate path
    makes no BLAS call, so these bytes do not depend on the BLAS build. Any
    change to the rate stream, the decoding order, the tie rule or the
    statistics' arithmetic changes them. The multi-chunk case (two full
    chunks of 16 384 realizations and a ragged one) was recorded when rate
    points moved to chunked draws and merged moments, its ``ratio`` first
    and its ``rate`` and ``rate_single_user`` before the tables were
    written over the draw; its instantaneous twin, before the chunks moved
    into per-point buffers, guards those buffers under both orders. Every
    other case has a single chunk and kept its bytes. The 16-user ``k16-*``
    cases were recorded before the (K, K, S) cancel mask gave way to the
    pairwise order rule, and held across it: 15 absorbed powers per user
    are enough for a pairwise numpy sum to move a byte."""

    BASE = SimConfig(frames=40, snr_grid_db=(0.0, 20.0, 40.0))
    CASES = {
        "distance": {"decoding_order_mode": "distance"},
        "instantaneous": {"decoding_order_mode": "instantaneous"},
        "three-groups": {
            "distances": (0.4, 0.9, 1.5, 2.2, 3.0, 3.9, 4.8),
            "group_count": 3,
            "decoding_order_mode": "instantaneous",
        },
        "multi-chunk": {"frames": 2 * 16384 + 7},
        "multi-chunk-instantaneous": {"frames": 2 * 16384 + 7, "decoding_order_mode": "instantaneous"},
        **{
            f"k16-t{slots}-{order}": {
                "distances": K16_DISTANCES,
                "group_count": slots,
                "decoding_order_mode": order,
            }
            for slots in (1, 4)
            for order in ("distance", "instantaneous")
        },
    }
    SHA256 = {
        ("distance", "rate"): "f5de9e3bde402fdd7a297db3dceaf94fc531ce40a0949c8389cae6b3160f82bb",
        ("distance", "rate_single_user"): "e69abb5d18277e155fc9ede123feaeaf9aad07b37d2c681f52e84ddb57617646",
        ("distance", "ratio"): "3f5c807f9dbcf5b7d6c5abc45dc1fa6cc131dd800266085f32b962b45748e8d7",
        ("instantaneous", "rate"): "1b8a156d1ae5e88d80f8f23cd1ef0815f4713b38631c72a3cb98393e0eeafbe8",
        ("instantaneous", "rate_single_user"): "e69abb5d18277e155fc9ede123feaeaf9aad07b37d2c681f52e84ddb57617646",
        ("instantaneous", "ratio"): "7236e54701d740be080269dd6e0a3360f816c64f85f910424b655d1e644a8794",
        ("three-groups", "rate"): "1655187ea0af650cf5211b754a617145960cd2c6189e682b80233041961cd4b9",
        ("three-groups", "rate_single_user"): "084f1b28cef6e9b122dd18268739e972b31b1735b4da00c0d98b90b4d6e55078",
        ("three-groups", "ratio"): "8951152ddda3c14a0521181e24ebca270bb1c7298346c55b63a569a2df8b5414",
        ("multi-chunk", "rate"): "372ca8e871aff9a8dde64ec13a50f08e9a11146e76f236098f237e330518b378",
        ("multi-chunk", "rate_single_user"): "a42fc94ad748c4f991c3f69a23c7470d1473a17f8dc17c25cae7c0461c8ecffc",
        ("multi-chunk", "ratio"): "44efd7e4f78daac489a1b29d4845bab6bf2d24898727c985518b5443584b1de4",
        ("multi-chunk-instantaneous", "rate"): "0006195145b9038d61efdd78f6eb28528a6be950c0c8a508ded87145d20e8f4d",
        ("multi-chunk-instantaneous", "rate_single_user"): "a42fc94ad748c4f991c3f69a23c7470d1473a17f8dc17c25cae7c0461c8ecffc",
        ("multi-chunk-instantaneous", "ratio"): "12390a8efa2cff0f2219b44333ac3a6c5fe25df1b15a1ec4fd4c0ed200600422",
        ("k16-t1-distance", "rate"): "af275eed40d6ca1070b0bc773ab1825df63823bfd748c0905129950b554549a9",
        ("k16-t1-distance", "ratio"): "a0e4aa01d33ca32b7b80d3193c78299e80e7063ff9368b1e4bfb7279f6cd7d10",
        ("k16-t1-instantaneous", "rate"): "aa1dea83f398b9b734fb67a0f6ca11808b26c109668caaf3b06c0544e5e1d0e6",
        ("k16-t1-instantaneous", "ratio"): "8675e0530869b3fb4891f91a7073a924da263ac96f7e9f286a6e45dd2be2bae2",
        ("k16-t4-distance", "rate"): "a290b7b07c1a0990be0276110488f275290c9020472eb5833181e40b9f3a8269",
        ("k16-t4-distance", "ratio"): "f5a340ae9bb4bdf0acbacbd7167f44550d86298d66ac06500b5bb6a6e0014fa8",
        ("k16-t4-instantaneous", "rate"): "1f2ca35ca574a214fe37f68a53b1f8b3baf388e3db34d36b71ebbdc81de35ba9",
        ("k16-t4-instantaneous", "ratio"): "6e140b91962313280af20d2712f6b55371545088994abaf71fe49312bb13696a",
    }

    @pytest.mark.parametrize("case,experiment", sorted(SHA256))
    def test_csv_bytes_unchanged(self, case, experiment, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        config = dataclasses.replace(self.BASE, experiment=experiment, **self.CASES[case])
        digest = hashlib.sha256(csv_bytes(run_experiment(config.validated()))).hexdigest()
        assert digest == self.SHA256[(case, experiment)]
