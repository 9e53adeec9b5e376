"""Command line entry point.

Subcommands: simulate | learn | reconstruct | evaluate | all. Every
subcommand takes --config; --out and --seed override the [io] section,
--method picks a single reconstruction algorithm, and --deterministic-noise
replaces every random draw by its mean (test mode).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import parse_config
from .errors import ValidationError
from .pipeline import EXIT_ERROR, METHODS, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spultra",
        description="Statistical CT reconstruction experiments: simulate, learn, "
                    "reconstruct, evaluate.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("simulate", "learn", "reconstruct", "evaluate", "all"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", default=None, help="override [io].out_dir")
        p.add_argument("--seed", type=int, default=None, help="override [io].seed")
        p.add_argument("--deterministic-noise", action="store_true",
                       help="replace random draws by their means (test mode)")
        if name in ("reconstruct", "all"):
            p.add_argument("--method", choices=METHODS, default=None,
                           help="run a single method instead of the full set")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except OSError as err:
        print(f"error: cannot read config {args.config}: {err.strerror or err}",
              file=sys.stderr)
        return EXIT_ERROR
    except UnicodeDecodeError as err:
        print(f"error: cannot read config {args.config}: not UTF-8 text ({err})",
              file=sys.stderr)
        return EXIT_ERROR
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    cfg = cfg.with_overrides(out_dir=args.out, seed=args.seed)
    method = getattr(args, "method", None)
    return run_pipeline(cfg, args.subcommand, method=method,
                        deterministic=args.deterministic_noise)


if __name__ == "__main__":
    sys.exit(main())
