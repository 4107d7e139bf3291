import dataclasses
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
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
    NoiseModel,
    ResultRow,
    SimConfig,
    ValidationError,
    build_cell,
    draw_fading_power,
    emit_csv,
    hybrid_rate_table,
    parse_config,
    parse_config_text,
    parse_snr_grid,
    run_experiment,
)
from timnoma.harness import (
    _RATE_CHUNK,
    EXPERIMENTS,
    FADING_MODES,
    ORDER_MODES,
    WORKERS_ENV,
    _scene,
)

import helpers
from helpers import (
    exact_hybrid_ber,
    exact_sum_rates,
    make_basis,
    mixing_matrix,
    qpsk_modulate,
    rayleigh_log_mean,
    reference_noise_sets,
)

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
            # the peak rule names the budget: a user's gain 1e291 from a
            # tiny distance, then 1e296 from a steep exponent
            ({"distances": (1e-97, 1.0), "group_count": 1}, "total_power"),
            ({"distances": (0.01, 0.02), "path_loss_exponent": 148.0}, "total_power"),
            ({"snr_grid_db": (4000.0,)}, "snr_grid"),  # sigma^2 underflows to 0
            ({"snr_grid_db": (-4000.0,)}, "snr_grid"),  # sigma^2 overflows
            ({"frames": True}, "frames"),
            ({"seed": False}, "seed"),
            ({"group_count": True}, "group_count"),
            ({"experiment": "rate", "frames": 1}, "frames"),  # stderr needs two samples
            ({"experiment": "ratio", "frames": 1}, "frames"),
            ({"path_loss_exponent": 1000.0}, "path loss"),  # 4.5**1000 overflows
            ({"distances": (1e-200, 1.0)}, "path loss"),  # 1/d^3 divides by 0
            # user 3's mean SNR P*gamma/sigma^2 underflows to 0
            ({"distances": (1.0, 2.0, 3.0), "path_loss_exponent": 300.0,
              "snr_grid_db": (-2000.0,)}, "user 3 a mean SNR"),
            # user 1's full-power mean SNR is 1e309: a SINR would overflow
            ({"distances": (0.001, 0.002), "group_count": 1,
              "snr_grid_db": (3000.0,)}, "user 1 a mean SNR total_power"),
            # the peak rule binds at the top of a grid it spans
            ({"distances": (0.001, 0.002), "group_count": 1,
              "snr_grid_db": (0.0, 3000.0)}, "total_power"),
            ({"bits_per_frame": 4 * 10**18}, "bits_per_frame"),  # np.empty would fail
            ({"bits_per_frame": True}, "bits_per_frame"),
            ({"path_loss_exponent": "3"}, "path_loss_exponent"),
            ({"path_loss_exponent": True}, "path_loss_exponent"),
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
    of SNRs within +-5000 dB, in any order, that often spans a boundary:
    where sigma^2 leaves its range or a mean-SNR rule starts to bind."""
    count = draw(st.integers(1, 6))
    exponent = draw(st.floats(0.1, 300.0))
    # distinct distances whose path gains 1/d^n stay within 1e+-290
    reach = min(3.0, 290.0 / exponent) / 100.0
    steps = draw(st.lists(st.integers(-100, 100), min_size=count, max_size=count, unique=True))
    # sigma^2 = 40 W * 10**(-SNR/10) is a positive finite float for SNRs
    # from about -3067 dB to +3250 dB; start near that range
    start = draw(st.floats(-3500.0, 3500.0))
    grid = [min(snr, 5000.0) for snr in itertools.accumulate(
        draw(st.lists(st.floats(0.0, 2000.0), max_size=5)), initial=start
    )]
    return SimConfig(
        distances=tuple(sorted(10.0 ** (reach * i) for i in steps)),
        path_loss_exponent=exponent,
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
            "experiment = rate\n"
        )
        path = tmp_path / "cell.cfg"
        path.write_text(text)
        config = parse_config(path)
        assert config.distances == (1.0, 2.0)
        assert config.snr_grid_db == (0.0, 10.0, 20.0)
        assert config.decoding_order_mode == "instantaneous"
        assert config.fading_mode == "frame"
        assert config.experiment == "rate"

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

    def test_binomial_stderr(self):
        result = run_experiment(TINY_BER)
        row = helpers.row(result, 20.0, "1", "ber")
        assert row.stderr == pytest.approx(
            math.sqrt(row.value * (1 - row.value) / row.samples), rel=1e-12
        )

    def test_deterministic_given_seed(self):
        first = run_experiment(TINY_BER)
        second = run_experiment(TINY_BER)
        assert csv_bytes(first) == csv_bytes(second)

    def test_seed_changes_results(self):
        moderate = replace(TINY_BER, snr_grid_db=(20.0,))
        assert csv_bytes(run_experiment(moderate)) != csv_bytes(
            run_experiment(replace(moderate, seed=43))
        )

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        serial = csv_bytes(run_experiment(TINY_BER))
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = csv_bytes(run_experiment(TINY_BER))
        assert serial == parallel

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

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        config = replace(TINY_BER, experiment="ber_single_user", snr_grid_db=(10.0, 20.0, 30.0))
        monkeypatch.setenv(WORKERS_ENV, "1")
        serial = csv_bytes(run_experiment(config))
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = csv_bytes(run_experiment(config))
        assert serial == parallel


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

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        config = replace(self.RATE_CONFIG, experiment="ratio", frames=500)
        monkeypatch.setenv(WORKERS_ENV, "1")
        serial = csv_bytes(run_experiment(config))
        monkeypatch.setenv(WORKERS_ENV, "3")
        parallel = csv_bytes(run_experiment(config))
        assert serial == parallel


    def test_stderr_survives_the_bottom_of_the_snr_range(self):
        # squared deviations of rates near 1e-302 used to underflow to 0,
        # and so did ratio's absolute hybrid x TDMA covariance below about
        # -1550 dB; every point is in the linear regime and draws the same
        # fading, so every row keeps the same stderr/value
        for experiment, row_count in (("rate", 6), ("ratio", 3)):
            mid, *lows = (
                run_experiment(
                    replace(self.RATE_CONFIG, experiment=experiment, frames=50, snr_grid_db=(snr,))
                )
                for snr in (-1000.0, -2000.0, -3000.0)
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
            draw_fading_power(
                np.random.default_rng(np.random.SeedSequence((config.seed, snr_index, chunk))),
                cell.user_count,
                min(_RATE_CHUNK, config.frames - start),
            )
            for chunk, start in enumerate(range(0, config.frames, _RATE_CHUNK))
        ]
        fading_power = np.concatenate(draws, axis=1).T
        noise = NoiseModel(config.noise_variance(snr))
        hybrid = hybrid_rate_table(cell, fading_power, noise)
        return hybrid, hybrid_rate_table(helpers.lone_cell(cell, config.total_power), fading_power, noise)

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

    @pytest.mark.parametrize("experiment", ["rate", "rate_single_user", "ratio"])
    def test_worker_count_does_not_change_bytes(self, experiment, monkeypatch):
        config = replace(self.CONFIG, experiment=experiment)
        monkeypatch.setenv(WORKERS_ENV, "1")
        serial = csv_bytes(run_experiment(config))
        monkeypatch.setenv(WORKERS_ENV, "2")
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


@st.composite
def any_configs(draw):
    """A config from anywhere in the space its fields span: K from 1 to 8
    users at 1e-3 to 1e3 km, T from 1 to K, path-loss exponents from 0.1
    to 300, SNRs of +-300 dB and of +-3300 dB, where sigma^2 reaches about
    1e+-330, every experiment and mode, the smallest frame counts each
    experiment takes and any even bit count up to 64."""
    count = draw(st.integers(1, 8))
    # a repeated distance is drawn now and then, and refused
    decades = draw(st.lists(st.floats(-3.0, 3.0), min_size=count, max_size=count))
    group_count = draw(st.integers(1, count))
    snrs = st.one_of(st.floats(-300.0, 300.0), st.floats(-3300.0, 3300.0))
    return SimConfig(
        distances=tuple(sorted(10.0**e for e in decades)),
        path_loss_exponent=draw(st.floats(0.1, 300.0)),
        group_count=group_count,
        frames=draw(st.sampled_from([2, 3])),
        bits_per_frame=2 * draw(st.integers(1, 32)),
        snr_grid_db=tuple(draw(st.lists(snrs, min_size=1, max_size=3))),
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
            with np.errstate(divide="raise", over="raise", invalid="raise"):
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
    """SHA-256 of small BER CSVs, recorded when the BER frame moved to the
    derotated real baseband (power gains, bits, then (K, S, 2) normals per
    frame), after that kernel was shown to decide what the physical chain
    decides and to match the exact BER. Any change to the RNG stream, the
    decoding order or the detector's tie rule changes these bytes."""

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
    }
    SHA256 = {
        ("distance-block", "ber"): "25789e6a027d1eaac759df325755584bcebd80110ab136f6335a18b878515e73",
        ("distance-block", "ber_single_user"): "e41abeb9fab0ff86a397b15aec2eecd01a2d450fd9f1c09de3c120c7426af3aa",
        ("distance-frame", "ber"): "29833de1193ed81cfbd93bded821a120fdff1f19f609b369d9689cf41bea200c",
        ("distance-frame", "ber_single_user"): "248c195aeb6bfe641b93eb6f46dadf10785d71649eb8de6fbea2c09794b9bd41",
        ("instantaneous-block", "ber"): "8010b8c9eb3a8d202222ce4a5eda2126a689376a805d3362c62133dc6a3941e5",
        ("instantaneous-block", "ber_single_user"): "e41abeb9fab0ff86a397b15aec2eecd01a2d450fd9f1c09de3c120c7426af3aa",
        ("instantaneous-frame", "ber"): "36c992d81c5ca9506cc04f4d98706552162855bad2e6cbf1919d985c18181ddd",
        ("instantaneous-frame", "ber_single_user"): "248c195aeb6bfe641b93eb6f46dadf10785d71649eb8de6fbea2c09794b9bd41",
        ("one-user", "ber"): "5d927b517a9d757f03f8a21ded1c84760027d3608e7a26e9accd25d573c77e38",
        ("one-user", "ber_single_user"): "3e328dd2f27bcfe059d6c0c673b84478490c9f3b68d48c5339319a76d7601cc9",
        ("three-groups", "ber"): "329e9b8066cf5fa39c8ca427ac799c98653e1f80e1c0f7734e97258b146893e6",
        ("three-groups", "ber_single_user"): "0e24318a45739b4146302370fc64a0eb13f84a892bc26b79dbd2426826aff54f",
    }

    @pytest.mark.parametrize("case,experiment", sorted(SHA256))
    def test_csv_bytes_unchanged(self, case, experiment, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        config = dataclasses.replace(self.BASE, experiment=experiment, **self.CASES[case])
        digest = hashlib.sha256(csv_bytes(run_experiment(config.validated()))).hexdigest()
        assert digest == self.SHA256[(case, experiment)]


class TestPinnedRateBytes:
    """SHA-256 of small rate CSVs, recorded when the rate tables moved to
    log1p and the ratio's delta method to relative terms. The rate path
    makes no BLAS call, so these bytes do not depend on the BLAS build. Any
    change to the rate stream, the decoding order, the tie rule or the
    statistics' arithmetic changes them. The multi-chunk case (two full
    chunks of 16 384 realizations and a ragged one) was recorded when rate
    points moved to chunked draws and merged moments; every other case has
    a single chunk and kept its bytes."""

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
        ("multi-chunk", "ratio"): "44efd7e4f78daac489a1b29d4845bab6bf2d24898727c985518b5443584b1de4",
    }

    @pytest.mark.parametrize("case,experiment", sorted(SHA256))
    def test_csv_bytes_unchanged(self, case, experiment, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        config = dataclasses.replace(self.BASE, experiment=experiment, **self.CASES[case])
        digest = hashlib.sha256(csv_bytes(run_experiment(config.validated()))).hexdigest()
        assert digest == self.SHA256[(case, experiment)]
