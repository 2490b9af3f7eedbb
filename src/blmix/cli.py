"""Command-line front end: ``blmix <experiment> --config file.json``.

Exit codes: 0 success, 2 config error (a malformed config, a value outside a
chain's domain, or a horizon too short for an epsilon), 3 infeasible size,
4 I/O error.
Seed precedence: config ``master_seed`` < ``--seed`` flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import EXPERIMENTS, emit, parse_config, run
from .errors import (ConfigError, HorizonExceededError, InfeasibleSizeError,
                     ParameterError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _thread_count(text: str) -> int:
    """A ``--threads`` value: an integer of at least 1."""
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blmix",
        description="Run one exact or Monte Carlo mixing experiment.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=_thread_count, default=None,
                        help="worker threads of the Monte Carlo experiments "
                             "(default: the CPUs available); the output does "
                             "not depend on it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"blmix: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"blmix: config error: config is not UTF-8 text: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = parse_config(text, experiment=args.experiment)
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        if args.output_dir is not None:
            config = dataclasses.replace(config, output_dir=args.output_dir)
    except ConfigError as exc:
        print(f"blmix: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = config.output_dir
    if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
        print(f"blmix: output directory not writable: {out_dir}", file=sys.stderr)
        return EXIT_IO

    try:
        record = run(config, args.threads)
    except InfeasibleSizeError as exc:
        print(f"blmix: infeasible size: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParameterError, HorizonExceededError) as exc:
        print(f"blmix: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        paths = emit(record, out_dir)
    except OSError as exc:
        print(f"blmix: write failed: {exc}", file=sys.stderr)
        return EXIT_IO
    for p in paths:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
