"""Command-line front end.

    thzlink run <config> [--out-dir DIR] [--dry-run] [--cache-dir DIR]
    thzlink sweep <config> --axis {frequency,altitude,elevation}
            --from X --to Y --step Z [--out-dir DIR] [--cache-dir DIR]

``run`` evaluates the survey grid and the capacity band in one pass. Sweep
axis units: frequency in GHz, altitude in meters, elevation in degrees.
Exit codes: 0 success, 2 configuration error, 3 computation or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, ThzLinkError
from .output import describe, write_outputs, write_sweep_csv
from .scenario import SpectrumCache, parse_config, resolve
from .sweep import AXES, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzlink",
        description="Terahertz atmospheric link budget simulator",
    )
    parser.add_argument("--version", action="version",
                        version=f"thzlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="scenario config file")
    common.add_argument("--out-dir", default="out", help="output directory")
    common.add_argument("--cache-dir", default=None,
                        help="directory for cached layer spectra "
                             "(default: <out-dir>/.cache)")

    run = sub.add_parser("run", parents=[common],
                         help="run one scenario and write CSV reports")
    run.add_argument("--dry-run", action="store_true",
                     help="validate, print the resolved scenario, write nothing")

    swp = sub.add_parser("sweep", parents=[common],
                         help="sweep one axis and write a long CSV")
    swp.add_argument("--axis", required=True, choices=AXES)
    swp.add_argument("--from", dest="start", type=float, required=True,
                     help="axis start (GHz, m, or deg)")
    swp.add_argument("--to", dest="stop", type=float, required=True,
                     help="axis end, inclusive")
    swp.add_argument("--step", type=float, required=True, help="axis step")
    return parser


def _cache_for(args) -> SpectrumCache:
    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = Path(args.out_dir) / ".cache"
    return SpectrumCache(cache_dir)


def _cmd_run(args) -> int:
    scenario = parse_config(args.config)
    if args.dry_run:
        print(describe(scenario))
        return EXIT_OK
    resolved = resolve(scenario, _cache_for(args))
    paths = write_outputs(resolved, Path(args.out_dir))
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = parse_config(args.config)
    points, results = run_sweep(
        scenario, args.axis, args.start, args.stop, args.step,
        cache=_cache_for(args))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = out_dir / "sweep.csv"
    write_sweep_csv(out_csv, args.axis, points, results)
    print(out_csv)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ThzLinkError as exc:
        print(f"computation error ({args.command} {args.config}): {exc}",
              file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        # an output or cache directory that cannot be made or written
        print(f"I/O error ({args.command} {args.config}): {exc}",
              file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
