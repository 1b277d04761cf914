"""Command-line front end.

Subcommands:
  sweep   run a parameter sweep (named preset or config file) and write CSV
  oracle  check the closed-form decay amplitude against numerical oracles
  audit   tabulate closed-form vs definition-based deviations

A discrete-mode oracle run whose grid reaches the modes' recurrence time is
a validation error, reported before any propagation.

Exit codes: 0 success, 1 validation error, 2 oracle tolerance failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .audit import discrepancy_report
from .reservoir import ReservoirParams, build_mode_grid
from .sweep import (
    ConfigError,
    SweepConfig,
    emit_csv,
    figure_preset,
    oracle_report,
    parse_config,
    run_sweep,
)


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for oracle tolerance failures; argument
    # problems are validation errors and exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_source(command: argparse.ArgumentParser) -> None:
    source = command.add_mutually_exclusive_group(required=True)
    source.add_argument("--fig", type=int, choices=(2, 3, 4, 5), help="named preset")
    source.add_argument("--config", type=str, help="path to a key-value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eulb",
        description="Entropic uncertainty lower bounds with a decohering quantum memory.",
    )
    parser.add_argument("--version", action="version", version=f"eulb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a sweep and write deterministic CSV")
    _add_source(sweep)
    sweep.add_argument("--out", type=str, required=True, help="output CSV path")

    oracle = sub.add_parser("oracle", help="validate the decay amplitude against oracles")
    _add_source(oracle)
    oracle.add_argument(
        "--discrete-modes",
        type=int,
        default=None,
        metavar="N",
        help="also run the discretized-mode oracle with N modes",
    )
    oracle.add_argument(
        "--window",
        type=float,
        default=20.0,
        metavar="MULT",
        help="discretized-mode frequency half-width as a multiple of lambda (default 20)",
    )

    audit = sub.add_parser("audit", help="closed-form vs definition discrepancy report")
    audit.add_argument("--p", type=float, default=0.5, help="Bell-diagonal weight (default 0.5)")

    return parser


def _load_config(args: argparse.Namespace):
    if getattr(args, "fig", None) is not None:
        return figure_preset(args.fig)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    return parse_config(text)


def _check_recurrence(config: SweepConfig, n_modes: int, window_over_lambda: float) -> None:
    """Refuse a discrete-mode run whose grid reaches the modes' recurrence time.

    From pi * n_modes / window on, the discretized reservoir returns its
    excitation, so the run could only end in FAIL after the whole
    propagation.  The returning excitation arrives a little before that
    time, so a count whose recurrence only just clears the grid end still
    fails (fig 3: 5093 modes recur at 20.0004 and print FAIL).  The error
    therefore names ceil(1.5 window t_max / pi), which puts the recurrence
    at 1.5 times the grid end.  build_mode_grid checks the count and the
    window first.
    """
    lam = config.lambda_over_gamma0
    modes = build_mode_grid(ReservoirParams(1.0, lam, 1), n_modes, window_over_lambda * lam)
    t_end = config.t_max_gamma0
    if t_end >= modes.recurrence_time:
        needed = math.ceil(1.5 * modes.window * t_end / math.pi)
        raise ValueError(
            f"{n_modes} discrete modes recur at gamma0 t = {modes.recurrence_time:.6g} "
            f"(pi * n_modes / window), within the grid end {t_end:g}; "
            f"--discrete-modes {needed} or more puts the recurrence at 1.5 times the grid end"
        )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0, argument errors exit 1
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            config = _load_config(args)
            output = run_sweep(config)
            emit_csv(output, args.out)
            print(f"wrote {config.steps * len(output.ledgers)} rows to {args.out}")
            return 0
        if args.command == "oracle":
            config = _load_config(args)
            if args.discrete_modes is not None:
                _check_recurrence(config, args.discrete_modes, args.window)
            report = oracle_report(config, args.discrete_modes, args.window)
            print(report.render())
            return 0 if report.passed else 2
        if args.command == "audit":
            report = discrepancy_report(args.p)
            print(report.render())
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
