"""Command-line entry point.

Exit codes: 0 success, 1 validation error, 2 missing prerequisite,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import ABLATION_MODES, load_config
from .errors import ConfigError, MissingPrerequisiteError, ValidationError
from .pipeline import STAGES, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgeqa",
        description="Multi-hop QA pipeline: retrieval, bridge reasoning, span reading.",
    )
    parser.add_argument("command", choices=STAGES, help="pipeline stage to run")
    parser.add_argument("--config", default=None, help="JSON config file (empty file = defaults)")
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    parser.add_argument("--mode", choices=ABLATION_MODES, default=None,
                        help="ablation mode; an evidence mode also trains the reasoner without that channel")
    parser.add_argument(
        "--entity-linking", choices=("on", "off"), default=None, help="toggle start-set expansion"
    )
    parser.add_argument("--k", type=int, default=None, help="number of start passages to retrieve")
    parser.add_argument("--output", default=None, help="output directory for run artifacts")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.entity_linking is not None:
        overrides["entity_linking"] = args.entity_linking == "on"
    if args.k is not None:
        overrides["k"] = args.k
    if args.output is not None:
        overrides["output_dir"] = args.output
    try:
        cfg = load_config(args.config, overrides)
        entry = run_stage(args.command, cfg)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MissingPrerequisiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CheckpointError and any other failure
        print(f"error: {exc}", file=sys.stderr)
        return 3
    stage = entry.get("stage", args.command)
    print(f"{stage}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
