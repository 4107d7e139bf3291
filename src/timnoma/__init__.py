"""Hybrid TIM-NOMA downlink: link-level simulator and rate calculator.

Users in a K-user single-antenna broadcast cell are split into T groups.
Inter-group interference is removed exactly by projecting onto orthonormal
group precoding vectors; intra-group interference is handled by successive
interference cancellation in the power domain, with per-symbol ML
detection. Because projection is exact, the BER simulation runs on the
derotated real baseband that is left after it. The harness sweeps transmit
SNR and writes per-user BER and achievable-rate tables as CSV.
"""

from .analytics import hybrid_rate_table
from .channel import draw_fading_power
from .errors import ConfigError, ValidationError
from .harness import (
    ResultRow,
    SimConfig,
    emit_csv,
    parse_config,
    parse_config_text,
    parse_snr_grid,
    run_experiment,
)
from .receiver import decode, ranks_ahead
from .topology import Cell, build_cell

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "ConfigError",
    "ResultRow",
    "SimConfig",
    "ValidationError",
    "build_cell",
    "decode",
    "draw_fading_power",
    "emit_csv",
    "hybrid_rate_table",
    "parse_config",
    "parse_config_text",
    "parse_snr_grid",
    "ranks_ahead",
    "run_experiment",
]
