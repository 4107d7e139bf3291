"""Hybrid TIM-NOMA downlink: link-level simulator and rate calculator.

Users in a K-user single-antenna broadcast cell are split into T groups.
Inter-group interference is removed exactly by projecting onto orthonormal
group precoding vectors; intra-group interference is handled by successive
interference cancellation in the power domain, with per-symbol ML
detection. The harness sweeps transmit SNR and writes per-user BER and
achievable-rate tables as CSV.
"""

from .analytics import (
    dof_total,
    hybrid_rate_table,
    rate_ratio,
    single_user_rate,
    single_user_rate_table,
    squared_channel_gain,
    tdma_sum_rate,
    user_rate,
)
from .channel import (
    NoiseModel,
    add_noise,
    channel_matrix,
    draw_fading,
    draw_fading_power,
    effective_gain,
)
from .errors import ConfigError, ValidationError
from .harness import (
    ExperimentResult,
    ResultRow,
    SimConfig,
    emit_csv,
    parse_config,
    parse_config_text,
    parse_snr_grid,
    run_ber_experiment,
    run_experiment,
    run_rate_experiment,
    run_single_user_experiment,
)
from .modem import BITS_PER_SYMBOL, CONSTELLATION, qpsk_demodulate, qpsk_modulate
from .precoding import PrecodingBasis, assemble_transmit, make_basis, mixing_matrix
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
    "add_noise",
    "allocate_power",
    "assemble_transmit",
    "assign_groups",
    "build_topology",
    "cancel_mask",
    "channel_matrix",
    "decode",
    "dof_total",
    "draw_fading",
    "draw_fading_power",
    "effective_gain",
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
    "qpsk_demodulate",
    "qpsk_modulate",
    "rate_ratio",
    "run_ber_experiment",
    "run_experiment",
    "run_rate_experiment",
    "run_single_user_experiment",
    "single_user_rate",
    "single_user_rate_table",
    "squared_channel_gain",
    "tdma_sum_rate",
    "user_rate",
]
