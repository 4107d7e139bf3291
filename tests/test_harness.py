import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from timnoma import (
    ConfigError,
    ExperimentResult,
    ResultRow,
    SimConfig,
    ValidationError,
    emit_csv,
    parse_config,
    parse_config_text,
    parse_snr_grid,
    run_experiment,
)
from timnoma.harness import WORKERS_ENV, replace

from helpers import exact_sum_rates, rayleigh_log_mean, reference_noise_sets

TINY_BER = SimConfig(frames=3, bits_per_frame=128, snr_grid_db=(20.0, 30.0))


def csv_bytes(result) -> bytes:
    buffer = io.StringIO()
    emit_csv(result, buffer)
    return buffer.getvalue().encode()


class TestSimConfig:
    def test_defaults_are_the_reference_scenario(self):
        config = SimConfig().validated()
        assert config.distances == (0.5, 1.5, 2.5, 3.5, 4.5)
        assert config.cell_radius == 5.0
        assert config.path_loss_exponent == 3.0
        assert config.group_count == 2
        assert config.total_power == 40.0
        assert config.frames == 500
        assert config.bits_per_frame == 6144
        assert config.seed == 42
        assert config.decoding_order_mode == "distance"
        assert config.experiment == "ber"

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
            ({"bits_per_frame": 6146}, "divisible"),  # not a multiple of 2*T
            ({"snr_grid_db": ()}, "snr_grid"),
            ({"seed": -1}, "seed"),
            ({"decoding_order_mode": "sorted"}, "decoding_order_mode"),
            ({"fading_mode": "static"}, "fading_mode"),
            ({"experiment": "rate_single_user", "frames": 1}, "frames"),
            ({"experiment": "throughput"}, "experiment"),
            ({"distances": (2.0, 1.0)}, "strictly increasing"),
            ({"total_power": -1.0}, "total_power"),
            ({"total_power": math.inf}, "total_power"),
            ({"snr_grid_db": (4000.0,)}, "snr_grid"),  # sigma^2 underflows to 0
            ({"snr_grid_db": (-4000.0,)}, "snr_grid"),  # sigma^2 overflows
            ({"frames": True}, "frames"),
            ({"seed": False}, "seed"),
            ({"group_count": True}, "group_count"),
            ({"experiment": "rate", "frames": 1}, "frames"),  # stderr needs two samples
            ({"experiment": "ratio", "frames": 1}, "frames"),
            ({"path_loss_exponent": 1000.0}, "path loss"),  # 4.5**1000 overflows
            ({"distances": (1e-200, 1.0)}, "path loss"),  # 1/d^3 divides by 0
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


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == SimConfig().validated()

    def test_comments_and_blanks_ignored(self):
        text = "\n# a comment\n  \nframes = 7   # trailing comment\n"
        assert parse_config_text(text).frames == 7

    def test_full_file(self, tmp_path):
        text = (
            "distances = 1.0, 2.0\n"
            "cell_radius = 3.0\n"
            "path_loss_exponent = 2.0\n"
            "group_count = 2\n"
            "total_power = 10.0\n"
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

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ConfigError, match="line 1.*frames"):
            parse_config_text("frames = soon\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_invariant_violation_named(self):
        with pytest.raises(ConfigError, match="frames"):
            parse_config_text("frames = 0\n")


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
        assert csv_bytes(ExperimentResult(())) == self.HEADER.encode()

    def test_single_row(self):
        result = ExperimentResult((ResultRow(10.0, "1", "ber", 0.125, 100, 0.01),))
        text = csv_bytes(result).decode()
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1] == "10.0,1,ber,0.125,100,0.01"
        assert text.endswith("\n")

    def test_writes_to_path(self, tmp_path):
        result = ExperimentResult((ResultRow(0.0, "sum", "ber", 0.5, 10, 0.1),))
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        assert path.read_text().startswith(self.HEADER)

    def test_full_precision_round_trip(self):
        value = 0.1234567890123456789
        result = ExperimentResult((ResultRow(1.0, "1", "rate", value, 5, 0.0),))
        line = csv_bytes(result).decode().splitlines()[1]
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
        for row in result.rows:
            assert row.value == 0.0

    def test_row_layout_and_pooled_sum(self):
        result = run_experiment(TINY_BER)
        entities = [row.entity for row in result.rows if row.snr_db == 20.0]
        assert entities == ["1", "2", "3", "4", "5", "sum"]
        per_user = [row.value for row in result.rows if row.snr_db == 20.0][:5]
        pooled = result.row(20.0, "sum", "ber").value
        assert pooled == pytest.approx(np.mean(per_user), rel=1e-12)
        bits = TINY_BER.frames * TINY_BER.bits_per_frame
        assert result.row(20.0, "1", "ber").samples == bits
        assert result.row(20.0, "sum", "ber").samples == 5 * bits

    def test_binomial_stderr(self):
        result = run_experiment(TINY_BER)
        row = result.row(20.0, "1", "ber")
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
        assert all(0.0 <= row.value <= 1.0 for row in result.rows)

    def test_ber_shrinks_with_snr(self):
        config = replace(TINY_BER, frames=12, snr_grid_db=(10.0, 40.0))
        result = run_experiment(config)
        assert result.row(40.0, "sum", "ber").value < result.row(10.0, "sum", "ber").value


class TestSingleUserExperiment:
    def test_row_layout_has_no_sum(self):
        config = replace(TINY_BER, experiment="ber_single_user")
        result = run_experiment(config)
        entities = {row.entity for row in result.rows}
        assert entities == {"1", "2", "3", "4", "5"}
        assert all(row.metric == "ber_single" for row in result.rows)

    def test_single_user_cell_matches_hybrid_bit_for_bit(self):
        base = SimConfig(
            distances=(1.0,),
            group_count=1,
            bits_per_frame=128,
            frames=4,
            snr_grid_db=(6.0, 10.0),
        )
        hybrid = run_experiment(replace(base, experiment="ber"))
        single = run_experiment(replace(base, experiment="ber_single_user"))
        for snr in base.snr_grid_db:
            assert (
                hybrid.row(snr, "1", "ber").value
                == single.row(snr, "1", "ber_single").value
            )

    def test_rate_variant_uses_full_power(self):
        config = replace(
            TINY_BER, experiment="rate_single_user", frames=2000, snr_grid_db=(10.0,)
        )
        result = run_experiment(config)
        assert {row.metric for row in result.rows} == {"rate_single"}
        # full-power single-user rate dominates the hybrid per-user rate
        hybrid = run_experiment(replace(config, experiment="rate"))
        for k in range(5):
            assert (
                result.row(10.0, str(k + 1), "rate_single").value
                > hybrid.row(10.0, str(k + 1), "rate").value
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
        entities = [row.entity for row in result.rows if row.snr_db == 0.0]
        assert entities == ["1", "2", "3", "4", "5", "sum"]
        per_user = [result.row(0.0, str(k + 1), "rate").value for k in range(5)]
        assert result.row(0.0, "sum", "rate").value == pytest.approx(sum(per_user), rel=1e-12)

    def test_rates_grow_with_snr(self):
        result = run_experiment(self.RATE_CONFIG)
        for k in range(5):
            assert (
                result.row(20.0, str(k + 1), "rate").value
                > result.row(0.0, str(k + 1), "rate").value
            )

    def test_deterministic(self):
        assert csv_bytes(run_experiment(self.RATE_CONFIG)) == csv_bytes(
            run_experiment(self.RATE_CONFIG)
        )

    def test_ratio_rows_are_consistent(self):
        config = replace(self.RATE_CONFIG, experiment="ratio")
        result = run_experiment(config)
        for snr in config.snr_grid_db:
            hybrid = result.row(snr, "sum", "rate_hybrid").value
            baseline = result.row(snr, "sum", "rate_tdma").value
            ratio = result.row(snr, "sum", "rate_ratio").value
            assert ratio == pytest.approx(hybrid / baseline, rel=1e-12)
            assert result.row(snr, "sum", "rate_ratio").stderr >= 0.0

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        config = replace(self.RATE_CONFIG, experiment="ratio", frames=500)
        monkeypatch.setenv(WORKERS_ENV, "1")
        serial = csv_bytes(run_experiment(config))
        monkeypatch.setenv(WORKERS_ENV, "3")
        parallel = csv_bytes(run_experiment(config))
        assert serial == parallel


class TestRatesAgainstClosedForm:
    """Monte Carlo rates within 4 stderr of their exact E1 values, distance
    order, reference cell."""

    CONFIG = SimConfig(frames=10_000, snr_grid_db=tuple(float(s) for s in range(0, 71, 10)))

    def test_hybrid_sum_rate(self):
        config = replace(self.CONFIG, experiment="rate")
        result = run_experiment(config)
        for snr in config.snr_grid_db:
            exact, _tdma = exact_sum_rates(
                config.distances, 3.0, 40.0, config.noise_variance(snr), reference_noise_sets(), 2
            )
            row = result.row(snr, "sum", "rate")
            assert abs(row.value - exact) <= 4.0 * row.stderr, (snr, row.value, exact)

    def test_single_user_rates(self):
        config = replace(self.CONFIG, experiment="rate_single_user")
        result = run_experiment(config)
        for snr in config.snr_grid_db:
            sigma2 = config.noise_variance(snr)
            for k, d in enumerate(config.distances):
                exact = rayleigh_log_mean(40.0, d**-3.0 / sigma2) / (2.0 * math.log(2.0))
                row = result.row(snr, str(k + 1), "rate_single")
                assert abs(row.value - exact) <= 4.0 * row.stderr, (snr, k, row.value, exact)


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
        assert any(row.metric == metric for row in result.rows)


class TestTransmitEnergyAudit:
    def test_framed_transmit_energy_matches_budget(self):
        # links the power constraint to the symbol pipeline end to end
        from timnoma import qpsk_modulate
        from timnoma.harness import _scene
        from timnoma.precoding import mixing_matrix

        config = SimConfig(frames=50, bits_per_frame=6144).validated()
        _topo, groups, power, basis = _scene(config)
        mix = mixing_matrix(power, groups, basis)
        rng = np.random.default_rng(77)
        energies = []
        for _ in range(config.frames):
            bits = rng.integers(0, 2, size=(5, config.bits_per_frame))
            x = mix @ qpsk_modulate(bits)
            energies.append(np.mean(np.sum(np.abs(x) ** 2, axis=0)))
        assert np.mean(energies) == pytest.approx(40.0, rel=0.01)


class TestPinnedBerBytes:
    """SHA-256 of small BER CSVs, recorded before the per-user decode loop
    became one vectorized receiver bank. Any change to the RNG stream, the
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
        ("distance-block", "ber"): "770ed79a59493a79e2529e3b7bdc85ccec5bd6afda40dafd3bdcb20aad338bf2",
        ("distance-block", "ber_single_user"): "faa8889aa6489da6b892adc9701a4c77248af2456794d7488872a2434254c3aa",
        ("distance-frame", "ber"): "15df75abee1fc587ab5fee5cd67863536193cffd7daf25aba414d446ae2ecd39",
        ("distance-frame", "ber_single_user"): "6f9c8bac8e30fd32f67a7dd0b915e431e269ca13f6ea6fde96b6b833ebca996a",
        ("instantaneous-block", "ber"): "6373e6ee9fd59ba468d27a8009c72c81af93650e29d3ae79ba5fd77c91b8005f",
        ("instantaneous-block", "ber_single_user"): "faa8889aa6489da6b892adc9701a4c77248af2456794d7488872a2434254c3aa",
        ("instantaneous-frame", "ber"): "8c4f286d92d569157c0a77a76ad173f24d0806703122286e19bf744033c345e4",
        ("instantaneous-frame", "ber_single_user"): "6f9c8bac8e30fd32f67a7dd0b915e431e269ca13f6ea6fde96b6b833ebca996a",
        ("one-user", "ber"): "8b29123a91bf7af42f86c4e67c22644034356fdc63fa49071f9c65155c8dba66",
        ("one-user", "ber_single_user"): "ec3f88d449648e9197b44bb81b8a46ecdcbd3a793cf1519b3ea5d743302d8eab",
        ("three-groups", "ber"): "d0a6c810788455df0c15ccbec5a89616ee9f134d320a06dbf0122e24181139e8",
        ("three-groups", "ber_single_user"): "ab1fa0ece6abc646464d120426bbe299a7e82029b040c818f13348887b22e408",
    }

    @pytest.mark.parametrize("case,experiment", sorted(SHA256))
    def test_csv_bytes_unchanged(self, case, experiment, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        config = dataclasses.replace(self.BASE, experiment=experiment, **self.CASES[case])
        digest = hashlib.sha256(csv_bytes(run_experiment(config.validated()))).hexdigest()
        assert digest == self.SHA256[(case, experiment)]


class TestPinnedRateBytes:
    """SHA-256 of small rate CSVs, recorded when the rate path began to draw
    |h|^2 as Exp(1). The rate path makes no BLAS call, so these bytes do not
    depend on the BLAS build. Any change to the rate stream, the decoding
    order, the tie rule or the statistics' arithmetic changes them."""

    BASE = SimConfig(frames=40, snr_grid_db=(0.0, 20.0, 40.0))
    CASES = {
        "distance": {"decoding_order_mode": "distance"},
        "instantaneous": {"decoding_order_mode": "instantaneous"},
        "three-groups": {
            "distances": (0.4, 0.9, 1.5, 2.2, 3.0, 3.9, 4.8),
            "group_count": 3,
            "decoding_order_mode": "instantaneous",
        },
    }
    SHA256 = {
        ("distance", "rate"): "f7f4f3b184b94595c33d27e366ada0ca3a891ba82b3d61f3ecd6da853668effb",
        ("distance", "rate_single_user"): "f8476dab6818573c8263b97ebaa4385cd58a0398273d3af3c8d42a635a210175",
        ("distance", "ratio"): "9e2d4d3db4b496d076a124949a8491a0c0fa1cb6d51e71d5429e0693788128fb",
        ("instantaneous", "rate"): "345f97000915abf915de6938462a2f5a4da5a2e11963115e07436299e40e3621",
        ("instantaneous", "rate_single_user"): "f8476dab6818573c8263b97ebaa4385cd58a0398273d3af3c8d42a635a210175",
        ("instantaneous", "ratio"): "2e248bcb218f9ef40fce77b45797f4aeb87a06e7c29a9d9413e6277532e1a88e",
        ("three-groups", "rate"): "1c940910b6a448fb49dd52f0ec2ea4dc889713ec4814c56b356ee260f6995763",
        ("three-groups", "rate_single_user"): "a369b71a2c7e6d861b1f9a6f8678dd897282f79b1614373dc7a60d6cb3588b05",
        ("three-groups", "ratio"): "f873fd3e39f195e7c4c4355cef1856977db7e145be5596ddc3c3aaf39f90d6be",
    }

    @pytest.mark.parametrize("case,experiment", sorted(SHA256))
    def test_csv_bytes_unchanged(self, case, experiment, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        config = dataclasses.replace(self.BASE, experiment=experiment, **self.CASES[case])
        digest = hashlib.sha256(csv_bytes(run_experiment(config.validated()))).hexdigest()
        assert digest == self.SHA256[(case, experiment)]
