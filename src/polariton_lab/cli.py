"""Command-line interface: one subcommand per run mode."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import MODES, ConfigError, parse_config
from .runner import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polariton-lab",
        description="Coupled light-spin polarization fluctuation scans and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} configuration")
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--grid-override", type=int, default=None, metavar="N",
                       help="override both grid bin counts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.mode != args.command:
        print(f"config error: config mode {config.mode!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return 2
    if args.grid_override is not None:
        from .model import Grid
        try:
            config = config._replace(grid=Grid(args.grid_override, args.grid_override))
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    return run(config, out_path=args.out, config_text=text)


if __name__ == "__main__":
    sys.exit(main())
