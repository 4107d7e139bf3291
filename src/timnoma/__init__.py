"""Hybrid TIM-NOMA downlink: link-level simulator and rate calculator.

Users in a K-user single-antenna broadcast cell are split into T groups.
Inter-group interference is removed exactly by projecting onto orthonormal
group precoding vectors; intra-group interference is handled by successive
interference cancellation in the power domain, with per-symbol ML
detection. Because projection is exact, the BER simulation runs on the
derotated real baseband that is left after it. The harness sweeps transmit
SNR and writes per-user BER and achievable-rate tables as CSV.

Importing the package, parsing a config and checking it load no numpy:
the three numpy-backed public names load on first access (``__getattr__``),
and a run loads numpy once it has passed its checks.
"""

from importlib import import_module

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
    "emit_csv",
    "hybrid_rate_table",
    "parse_config",
    "parse_config_text",
    "parse_snr_grid",
    "ranks_ahead",
    "run_experiment",
]

# each numpy-backed public name and the module that defines it
_LAZY = {
    "decode": "receiver",
    "hybrid_rate_table": "analytics",
    "ranks_ahead": "receiver",
}


def __getattr__(name: str):
    # PEP 562: runs only for names the module does not hold yet
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
