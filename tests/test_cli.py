import math

import pytest

from timnoma import parse_snr_grid
from timnoma.cli import main

TINY = ["--frames", "2", "--snr", "20:10:30"]


def read_csv_lines(path):
    return path.read_text().splitlines()


class TestCliRuns:
    def test_ber_to_file(self, tmp_path):
        out = tmp_path / "ber.csv"
        code = main(["ber", *TINY, "--out", str(out)])
        assert code == 0
        lines = read_csv_lines(out)
        assert lines[0] == "snr_db,entity,metric,value,samples,stderr"
        # two SNR points x (5 users + sum)
        assert len(lines) == 1 + 2 * 6

    def test_ber_to_stdout(self, capsys):
        assert main(["ber", *TINY]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("snr_db,entity,metric")

    def test_rate(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert main(["rate", "--frames", "50", "--snr", "10", "--out", str(out)]) == 0
        assert any(",rate," in line for line in read_csv_lines(out))

    def test_ratio(self, tmp_path):
        out = tmp_path / "ratio.csv"
        assert main(["ratio", "--frames", "50", "--snr", "10", "--out", str(out)]) == 0
        lines = read_csv_lines(out)
        assert any(",rate_ratio," in line for line in lines)
        assert any(",rate_tdma," in line for line in lines)

    def test_single_user_default_metric(self, tmp_path):
        out = tmp_path / "single.csv"
        assert main(["single-user", *TINY, "--out", str(out)]) == 0
        assert any(",ber_single," in line for line in read_csv_lines(out))

    def test_single_user_rate_metric(self, tmp_path):
        out = tmp_path / "single_rate.csv"
        code = main(
            ["single-user", "--metric", "rate", "--frames", "50", "--snr", "10", "--out", str(out)]
        )
        assert code == 0
        assert any(",rate_single," in line for line in read_csv_lines(out))

    def test_config_file_plus_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames = 999\nbits_per_frame = 64\n")
        out = tmp_path / "out.csv"
        code = main(
            ["ber", "--config", str(cfg), "--frames", "2", "--snr", "25", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert len(read_csv_lines(out)) == 1 + 6

    def test_flag_rescues_a_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames = 0\nbits_per_frame = 8\n")
        assert main(["ber", "--config", str(cfg), "--frames", "2", "--snr", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6


    @pytest.mark.parametrize("grid", ["-10:10:0", "-5,0,5", "-.5", "-5"])
    def test_negative_snr_grid_parses_as_its_own_argument(self, grid, capsys):
        # argparse read "-10:10:0" and "-5,0,5" as options and exited 2
        assert main(["rate", "--frames", "2", "--snr", grid]) == 0
        separate = capsys.readouterr().out
        assert main(["rate", "--frames", "2", f"--snr={grid}"]) == 0
        assert capsys.readouterr().out == separate
        assert separate.count(",sum,") == len(parse_snr_grid(grid))


class TestCliErrors:
    def test_validation_error_exits_one(self, capsys):
        assert main(["ber", "--frames", "0", "--snr", "10"]) == 1
        assert "frames" in capsys.readouterr().err

    def test_bad_snr_spec_exits_one(self, capsys):
        assert main(["ber", "--snr", "0:0:10"]) == 1
        assert "step" in capsys.readouterr().err

    def test_garbage_snr_list_exits_one(self, capsys):
        assert main(["ber", "--snr", "a,b"]) == 1
        assert "snr" in capsys.readouterr().err

    def test_missing_config_exits_two(self, capsys):
        assert main(["ber", "--config", "/nonexistent/path.cfg"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_content_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("framez = 3\n")
        assert main(["ber", "--config", str(cfg)]) == 1
        assert "framez" in capsys.readouterr().err

    def test_config_file_experiment_exits_one(self, tmp_path, capsys):
        # the subcommand names the experiment: a file's key would be ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames = 2\nexperiment = ratio\nbits_per_frame = 8\n")
        assert main(["ber", "--config", str(cfg), "--snr", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "line 2: unknown key 'experiment'" in captured.err
        # the same file without the key runs the subcommand's experiment
        cfg.write_text("frames = 2\nbits_per_frame = 8\n")
        assert main(["ber", "--config", str(cfg), "--snr", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["ber", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "utf16.cfg" in err and "byte 0" in err
        assert len(err.splitlines()) == 1

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "out.csv"
        assert main(["ber", *TINY, "--out", str(out)]) == 2

    @pytest.mark.parametrize("workers", ["0", "many"])
    def test_bad_worker_env_exits_one(self, workers, monkeypatch, capsys):
        monkeypatch.setenv("TIMNOMA_WORKERS", workers)
        assert main(["ber", "--frames", "2", "--snr", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "TIMNOMA_WORKERS" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv,config_text,fragment",
        [
            (["rate", "--frames", "1", "--snr", "10"], None, "frames"),
            (["ber", "--frames", "2", "--snr", "4000"], None, "snr_grid"),
            # the budget is no setting: its old key is unknown, as is the
            # removed single-value knob's
            (["rate", "--frames", "2", "--snr", "10"], "total_power = inf\n", "total_power"),
            (["ratio", "--frames", "2", "--snr", "10"],
             "tdma_baseline_mode = full_power_time_share\n", "tdma_baseline_mode"),
            # a SINR of this cell would overflow: refused before the run starts
            (["rate", "--frames", "2", "--snr", "3000"],
             "distances = 0.001, 0.002\ngroup_count = 1\n", "snr_grid"),
            # (stop - start) / step is infinite, or about 1e301 points:
            # refused before the grid is built
            (["ber", "--frames", "2", "--snr", "0:5e-324:10"], None, "more than 100000 points"),
            (["ber", "--frames", "2", "--snr", "0:1e-300:10"], None, "more than 100000 points"),
            (["ber", "--frames", "2"], "snr_grid = 0:5e-324:10\n", "more than 100000 points"),
            (["ber", "--frames", "2"], "snr_grid = 0:1e-300:10\n", "more than 100000 points"),
            # 2001 points whose noise variance overflows: still one short line
            (["ber", "--frames", "2", "--snr=-5000:1:-3000"], None, "snr_grid"),
            (["ratio", "--frames", "2", "--snr", "10"], "total_power = 40\n", "'total_power'"),
            (["ber", "--frames", "2", "--snr", "10"], "cell_radius = 5\n", "'cell_radius'"),
            # a frame this long would fail to allocate its bits
            (["ber", "--frames", "2", "--snr", "10"], "bits_per_frame = 4000000000000000000\n",
             "bits_per_frame must be at most"),
            # just past each edge of the accepted box
            (["rate", "--frames", "2", "--snr", "301"], None, "snr_grid"),
            (["ratio", "--frames", "2", "--snr=-1000"], None, "snr_grid"),
            (["ber", "--frames", "2", "--snr", "10"], "path_loss_exponent = 10.5\n",
             "path_loss_exponent"),
            (["ber", "--frames", "2", "--snr", "10"], "distances = 0.0009, 1\n", "distances"),
            (["ber", "--frames", "2", "--snr", "10"], "distances = 1, 1001\n", "distances"),
            (["ber", "--frames", "2", "--snr", "10"],
             "distances = " + ", ".join(str(k) for k in range(1, 18)) + "\n",
             "distances must list at most 16 users"),
            # a non-finite value in a list is outside the box too
            (["ber", "--frames", "2", "--snr", "nan"], None, "snr_grid"),
            (["ber", "--frames", "2", "--snr", "inf,10"], None, "snr_grid"),
            (["ber", "--frames", "2"], "snr_grid = 10, nan\n", "snr_grid"),
            # a BER stderr needs two frames, as a rate's needs two realizations
            (["ber", "--frames", "1", "--snr", "10"], None, "frames"),
        ],
    )
    def test_unrunnable_config_exits_one(self, argv, config_text, fragment, tmp_path, capsys):
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            argv = [*argv, "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert len(err.splitlines()) == 1
        assert len(err) < 1000

    @pytest.mark.parametrize(
        "argv,config_text",
        [
            (["ber", "--frames", "2", "--snr=0:1:inf"], None),
            (["ber", "--frames", "2", "--snr=0:nan:10"], None),
            (["ber", "--frames", "2", "--snr=-inf:1:0"], None),
            (["ber", "--frames", "2"], "snr_grid = 0:1:inf\n"),
            (["ber", "--frames", "2"], "snr_grid = 0:nan:10\n"),
        ],
    )
    def test_non_finite_snr_range_exits_one(self, argv, config_text, tmp_path, capsys):
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            argv = [*argv, "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("snr", ["-200", "-300"])
    def test_ratio_at_very_low_snr_is_finite(self, snr, capsys):
        # log2(1 + x) rounded every TDMA rate to 0 below x ~ 1e-16
        assert main(["ratio", "--frames", "2", f"--snr={snr}"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            value, stderr = (float(field) for field in row.split(",")[3::2])
            assert math.isfinite(value) and value > 0 and math.isfinite(stderr)

    def test_user_mean_snr_underflow_exits_one(self, tmp_path, capsys):
        # a user's mean SNR here would underflow: both range rules refuse it
        cfg = tmp_path / "faint.cfg"
        cfg.write_text("distances = 1, 2, 3\npath_loss_exponent = 300\n")
        assert main(["ratio", "--frames", "2", "--snr=-2000", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "path_loss_exponent" in err and "snr_grid" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv", [["ber", "--snr"], ["ber", "--snr", "--frames", "2"]], ids=["last", "before-a-flag"]
    )
    def test_missing_snr_value_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--snr" in capsys.readouterr().err

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
