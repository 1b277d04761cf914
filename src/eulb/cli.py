"""Command-line front end.

Subcommands:
  sweep   run a parameter sweep (named preset or config file) and write CSV
  oracle  check the closed-form decay amplitude against numerical oracles
  audit   tabulate closed-form vs definition-based deviations

The discrete-mode oracle (--discrete-modes M) samples M equal-weight modes
over a fixed window of 20 lambda; the mode count is its one setting.  A
row that fails is rerun on ceil(M / 2) modes; if C(t) moves by more than
the tolerance between the two, M is too few to check anything, which is a
validation error naming a larger count.  M = 1 is refused outright.

Exit codes: 0 success, 1 validation error, 2 oracle tolerance failure (of a
resolved discrete reservoir, or of the kernel ODE).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .audit import discrepancy_report
from .sweep import ConfigError, figure_preset, oracle_report, parse_config, write_sweep


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
        metavar="M",
        help="also run the discretized-mode oracle with M modes; an unresolved M exits 1 "
        "and names a larger count",
    )

    audit = sub.add_parser("audit", help="closed-form vs definition discrepancy report")
    audit.add_argument("--p", type=float, default=0.5, help="Bell-diagonal weight (default 0.5)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:  # built on the first main call, not at import
    return build_parser()


def _load_config(args: argparse.Namespace):
    if getattr(args, "fig", None) is not None:
        return figure_preset(args.fig)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    return parse_config(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0, argument errors exit 1
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            config = _load_config(args)
            write_sweep(config, args.out)
            print(f"wrote {config.steps * len(config.n_qubits_list)} rows to {args.out}")
            return 0
        if args.command == "oracle":
            config = _load_config(args)
            report = oracle_report(config, args.discrete_modes)
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
