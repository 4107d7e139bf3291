"""The package's public surface: exactly these names, and no others."""

import importlib

import pytest

import timnoma

PUBLIC = [
    "BITS_PER_SYMBOL",
    "CONSTELLATION",
    "ConfigError",
    "ExperimentResult",
    "GroupAssignment",
    "NoiseModel",
    "PowerAllocation",
    "PrecodingBasis",
    "ResultRow",
    "SimConfig",
    "Topology",
    "ValidationError",
    "allocate_power",
    "assign_groups",
    "build_topology",
    "cancel_mask",
    "decode",
    "dof_total",
    "draw_fading",
    "draw_fading_power",
    "emit_csv",
    "hybrid_rate_table",
    "make_basis",
    "mixing_matrix",
    "ml_detect",
    "parse_config",
    "parse_config_text",
    "parse_snr_grid",
    "path_loss",
    "project",
    "qpsk_modulate",
    "run_experiment",
    "single_user_rate_table",
]

# scalar copies of the rate tables, per-experiment runners and functions
# only tests called; the tests keep add_noise and qpsk_demodulate as
# references in helpers.py
REMOVED = [
    "add_noise",
    "assemble_transmit",
    "channel_matrix",
    "effective_gain",
    "qpsk_demodulate",
    "rate_ratio",
    "run_ber_experiment",
    "run_rate_experiment",
    "run_single_user_experiment",
    "single_user_rate",
    "squared_channel_gain",
    "tdma_sum_rate",
    "user_rate",
]

MODULES = ["analytics", "channel", "cli", "harness", "modem", "precoding", "receiver", "topology"]


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
