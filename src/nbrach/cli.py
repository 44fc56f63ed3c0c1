"""Command line front end.

Subcommands
-----------
sweep         run a figure preset or a config-driven custom sweep; write CSV
validate      parse a config file and echo the resolved settings
availability  print the stationary availability bracket for the config

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 input/output failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import describe, load_config, with_value
from .energy import availability_bounds
from .errors import ConfigError, NumericError
from .sweep import Engine, PRESETS, emit_csv, run_custom, run_preset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbrach",
        description="Battery availability and contention success for "
                    "repetition-coded random access under energy harvesting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    sweep.add_argument("--config", default=None, metavar="PATH",
                       help="key=value config file (defaults apply when omitted)")
    sweep.add_argument("--preset", required=True,
                       choices=sorted(PRESETS) + ["custom"],
                       help="figure preset, or 'custom' to use the config's sweep keys")
    sweep.add_argument("--engine", default="analytic",
                       choices=[e.value for e in Engine],
                       help="which columns to evaluate (default: analytic)")
    sweep.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="override the simulation seed from the config")
    sweep.add_argument("--out", default=None, metavar="CSV",
                       help="output CSV path (stdout when omitted)")

    validate = sub.add_parser("validate", help="check a config file and echo it")
    validate.add_argument("--config", default=None, metavar="PATH")

    avail = sub.add_parser("availability",
                           help="print the availability bracket as key=value lines")
    avail.add_argument("--config", default=None, metavar="PATH")

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.out == "":
        raise ConfigError("output path must not be empty")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = with_value(cfg, "seed", args.seed)
    engine = Engine(args.engine)
    try:
        if args.preset == "custom":
            table = run_custom(cfg, engine)
        else:
            table = run_preset(args.preset, cfg, engine)
    except Exception as exc:
        # a failed sweep still reports its completed rows and error marker
        if hasattr(exc, "partial_table"):
            emit_csv(exc.partial_table, args.out)
        raise
    emit_csv(table, args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    text = describe(load_config(args.config))
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_OK


def _cmd_availability(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    lower, upper = availability_bounds(cfg.energy)
    lines = [
        ("eta0_lower", lower.eta0),
        ("eta0_upper", upper.eta0),
        ("mean_on_lower", lower.mean_on),
        ("mean_on_upper", upper.mean_on),
        ("mean_off_lower", lower.mean_off),
        ("mean_off_upper", upper.mean_off),
        ("nu0_lower_bound", lower.nu0),
        ("nu0_upper_bound", upper.nu0),
    ]
    for key, value in lines:
        sys.stdout.write(f"{key}={format(value, '.12g')}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
        "availability": _cmd_availability,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
