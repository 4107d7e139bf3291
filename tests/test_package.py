"""The package's public surface: exactly these names, and no others."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import timnoma

PUBLIC = [
    "Cell",
    "ConfigError",
    "ResultRow",
    "SimConfig",
    "ValidationError",
    "build_cell",
    "decode",
    "emit_csv",
    "hybrid_rate_table",
    "parse_config",
    "parse_config_text",
    "parse_snr_grid",
    "ranks_ahead",
    "run_experiment",
]

# the (K, K, S) cancel mask that the pairwise ``receiver.ranks_ahead``
# replaced, the level lookup that signed amplitudes replaced, scalar
# copies of the rate tables, the single-user rate table that
# hybrid_rate_table computes on a cell of lone users, per-experiment
# runners, the validating replace that run_experiment's own check made
# redundant, functions and names only tests read, the physical chain the
# BER path no longer simulates, the cell's three dataclasses and four
# constructors that Cell and build_cell replace, and the wrapper of the one
# Exp(1) call that ``points`` makes itself; the tests keep add_noise,
# CONSTELLATION, qpsk_modulate, qpsk_demodulate, qpsk_levels, draw_fading,
# make_basis, mixing_matrix and project as references in helpers.py
REMOVED = [
    "BITS_PER_SYMBOL",
    "CONSTELLATION",
    "ExperimentResult",
    "GroupAssignment",
    "NoiseModel",
    "PowerAllocation",
    "PrecodingBasis",
    "Topology",
    "add_noise",
    "allocate_power",
    "assemble_transmit",
    "assign_groups",
    "build_topology",
    "cancel_mask",
    "channel_matrix",
    "dof_total",
    "draw_fading",
    "draw_fading_power",
    "effective_gain",
    "make_basis",
    "mixing_matrix",
    "ml_detect",
    "path_loss",
    "project",
    "qpsk_demodulate",
    "qpsk_levels",
    "qpsk_modulate",
    "rate_ratio",
    "replace",
    "run_ber_experiment",
    "run_rate_experiment",
    "run_single_user_experiment",
    "single_user_rate",
    "single_user_rate_table",
    "squared_channel_gain",
    "tdma_sum_rate",
    "user_rate",
]

MODULES = sorted(module.name for module in pkgutil.iter_modules(timnoma.__path__))


def test_public_names_are_exactly_these():
    assert sorted(timnoma.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in timnoma.__all__:
        assert getattr(timnoma, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from timnoma import {name}", {})
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"timnoma.{module}"), name), module


def test_decode_takes_only_what_a_run_passes():
    # a run cancels with the receiver's own estimates; a genie that
    # subtracts the transmitted levels belongs to the tests' reference
    # kernel, and the row comes equalised, so no channel is passed
    assert list(inspect.signature(timnoma.decode).parameters) == ["row", "cell", "k", "gains"]


@pytest.mark.parametrize("module", ["precoding", "modem", "channel"])
def test_removed_module_is_gone(module):
    assert module not in MODULES
    with pytest.raises(ImportError):
        importlib.import_module(f"timnoma.{module}")


def run_fresh(code: str, **env) -> str:
    """Run code in a fresh interpreter on this checkout; its stdout."""
    src = os.path.dirname(os.path.dirname(timnoma.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.strip()


def test_import_does_not_load_the_process_pool():
    # a one-worker run never starts a pool, so importing the package must
    # not pay for concurrent.futures.process
    code = "import sys, timnoma, timnoma.cli; print('concurrent.futures.process' in sys.modules)"
    assert run_fresh(code) == "False"


# everything that stops short of a run: the import, the argument parser,
# config text, an SNR grid, the check, and the CLI refusing a config, a
# usage error and a bad TIMNOMA_WORKERS value
FRONT_END = """
import contextlib, io, sys
import timnoma, timnoma.cli
timnoma.cli.build_parser().parse_args(["ber", "--snr", "0:2:30", "--seed", "1"])
timnoma.parse_config_text("frames = 20\\nsnr_grid = 0:10:30\\n")
timnoma.parse_snr_grid("20:4:44")
timnoma.SimConfig(experiment="ratio", frames=500, snr_grid_db=(0.0, 70.0)).validated()
with contextlib.redirect_stderr(io.StringIO()):
    assert timnoma.cli.main(["rate", "--snr", "301"]) == 1
    try:
        timnoma.cli.main(["ber", "--frames", "abc"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("a usage error must exit")
    assert timnoma.cli.main(["ber", "--frames", "2", "--snr", "0"]) == 1  # TIMNOMA_WORKERS=0
print(sorted(m for m in ("numpy", "concurrent.futures.process") if m in sys.modules))
"""


def test_front_end_does_not_load_numpy():
    assert run_fresh(FRONT_END, TIMNOMA_WORKERS="0") == "[]"


def test_run_loads_numpy_once_before_the_pool_forks():
    # numpy is absent until the run, and present in the parent after a
    # pool run, so the fork pool's workers inherited it
    code = (
        "import sys, timnoma\n"
        "before = 'numpy' in sys.modules\n"
        "config = timnoma.SimConfig(frames=2, bits_per_frame=2, snr_grid_db=(0.0, 10.0))\n"
        "assert len(timnoma.run_experiment(config)) == 12\n"
        "print(before, 'numpy' in sys.modules)"
    )
    assert run_fresh(code, TIMNOMA_WORKERS="2") == "False True"


def readme_text():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        return handle.read()


def test_readme_config_block_is_the_default_config():
    block = re.search(r"```ini\n(.*?)```", readme_text(), re.DOTALL).group(1)
    assert timnoma.parse_config_text(block) == timnoma.SimConfig()


def test_readme_library_block_runs_and_its_values_hold(tmp_path, monkeypatch):
    # the README's Library example, run as written, prints the values its
    # comments state
    text = readme_text()
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TIMNOMA_WORKERS", "1")
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert f"rates[0] = {namespace['rates'][0]:.4f} bits/slot" in block
    assert f"TDMA sum rate {namespace['tdma']:.4f} bits/slot" in block
    assert (tmp_path / "rates.csv").read_text().startswith("snr_db,entity,metric")
