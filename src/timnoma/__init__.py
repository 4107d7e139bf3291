"""Hybrid TIM-NOMA downlink: link-level simulator and rate calculator.

Users in a K-user single-antenna broadcast cell are split into T groups.
Inter-group interference is removed exactly by projecting onto orthonormal
group precoding vectors; intra-group interference is handled by successive
interference cancellation in the power domain, with per-symbol ML
detection. The harness sweeps transmit SNR and writes per-user BER and
achievable-rate tables as CSV.
"""

from .analytics import dof_total, hybrid_rate_table, single_user_rate_table
from .channel import NoiseModel, draw_fading, draw_fading_power
from .errors import ConfigError, ValidationError
from .harness import (
    ExperimentResult,
    ResultRow,
    SimConfig,
    emit_csv,
    parse_config,
    parse_config_text,
    parse_snr_grid,
    run_experiment,
)
from .modem import BITS_PER_SYMBOL, CONSTELLATION, qpsk_modulate
from .precoding import PrecodingBasis, make_basis, mixing_matrix
from .receiver import cancel_mask, decode, ml_detect, project
from .topology import (
    GroupAssignment,
    PowerAllocation,
    Topology,
    allocate_power,
    assign_groups,
    build_topology,
    path_loss,
)

__version__ = "0.1.0"

__all__ = [
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
