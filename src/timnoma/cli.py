"""Command-line front end.

Subcommands pick the experiment, which a config file cannot name; common
flags load a config file and override individual fields. With no
arguments each subcommand runs the 5-user reference scenario. Exit codes:
0 success, 1 config or validation error, 2 I/O or argparse usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from .errors import ValidationError
from .harness import SimConfig, emit_csv, parse_config, parse_snr_grid, run_experiment


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--seed", type=int, help="override the random seed")
    sub.add_argument("--snr", help='override the SNR grid, "start:step:stop" or comma list (dB)')
    sub.add_argument("--frames", type=int, help="override the frame/realization count")
    sub.add_argument("--out", default="-", help="output CSV path (default: stdout)")


def _glue_snr(argv: list) -> list:
    """``--snr VALUE`` as ``--snr=VALUE`` when VALUE starts with a minus
    sign and a digit or a point: argparse reads a grid such as -10:2:30 or
    -5,0,5 as an option and refuses it for want of a value. ``--sn``, the
    one abbreviation argparse takes for ``--snr`` (``--s`` could be
    ``--seed``), is glued too. A missing value (the flag last, or before
    another flag) is left to argparse."""
    glued = []
    for arg in argv:
        if glued and glued[-1] in ("--sn", "--snr") and re.match(r"-[\d.]", arg):
            glued[-1] = f"--snr={arg}"
        else:
            glued.append(arg)
    return glued


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timnoma",
        description="Link-level simulator for the hybrid TIM-NOMA downlink",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ber", "per-user and pooled bit error rates"),
        ("rate", "fading-averaged per-user and sum rates"),
        ("ratio", "hybrid over TDMA sum-rate ratio"),
        ("single-user", "one-active-user BER (or rate with --metric rate)"),
    ):
        sub = commands.add_parser(name, help=help_text)
        _add_common_flags(sub)
        if name == "single-user":
            sub.add_argument(
                "--metric",
                choices=("ber", "rate"),
                default="ber",
                help="which single-user figure to produce (default: ber)",
            )
    return parser


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    config = parse_config(args.config) if args.config else SimConfig()
    if args.command == "single-user":
        experiment = "ber_single_user" if args.metric == "ber" else "rate_single_user"
    else:
        experiment = args.command  # ber, rate and ratio name their experiment
    overrides: dict = {"experiment": experiment}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.frames is not None:
        overrides["frames"] = args.frames
    if args.snr is not None:
        overrides["snr_grid_db"] = parse_snr_grid(args.snr)
    return dataclasses.replace(config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(_glue_snr(sys.argv[1:] if argv is None else argv))
    try:
        # the one check of the config, after the flags apply; the run can
        # still refuse its environment (TIMNOMA_WORKERS)
        rows = run_experiment(_config_from_args(args))
        emit_csv(rows, sys.stdout if args.out == "-" else args.out)
    except ValidationError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
