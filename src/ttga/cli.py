"""Command-line experiment runner.

Subcommands: make-data, train-denoiser, train-segmenter, augment, evaluate,
full-pipeline, compare-report. Configuration precedence: command-line flags
override config-file values override built-in defaults.

Exit codes: 0 success; 2 missing file (or a directory, or a path under a
file); 3 invalid configuration; 4 numerical abort; 5 report schema mismatch;
6 corrupt checkpoint, grid or manifest file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .denoiser import keep_freed_batches
from .errors import ConfigError, CorruptFileError, NumericalAbort
from .masks import SCHEMES
from .pipeline import (
    RunLog,
    SchemaMismatch,
    cmd_augment,
    cmd_evaluate,
    cmd_full_pipeline,
    cmd_make_data,
    cmd_train_denoiser,
    cmd_train_segmenter,
    compare_report,
)
from .runconfig import _coerce, resolve_config, write_resolved_config

EXIT_OK = 0
EXIT_MISSING_FILE = 2
EXIT_BAD_CONFIG = 3
EXIT_NUMERICAL = 4
EXIT_SCHEMA = 5
EXIT_CORRUPT_FILE = 6


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    p.add_argument("--seed", metavar="U64")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--dump-images", action="store_const", const="true", dest="dump_images")
    p.add_argument("--methods", metavar="LIST", help="comma list of baseline,tta,ttga")
    p.add_argument("--mask-scheme", dest="mask_scheme", help="|".join(SCHEMES))
    p.add_argument("--resample-masks-per-step", action="store_const", const="true")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config field (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttga", description="test-time generative augmentation experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("make-data", "generate the synthetic benchmark dataset"),
        ("train-denoiser", "fit or construct the generative denoiser"),
        ("train-segmenter", "train the toy segmentation model"),
        ("augment", "emit augmented variants of test images"),
        ("evaluate", "score methods on the test set"),
        ("full-pipeline", "dataset + models + evaluation in one run"),
    ]:
        p = sub.add_parser(name, help=descr)
        _add_common_flags(p)
        if name == "augment":
            p.add_argument("--count", default="4", help="number of test images to augment")
    p = sub.add_parser("compare-report", help="merge aggregate tables across runs")
    p.add_argument("runs", nargs="+", metavar="RUN_DIR")
    p.add_argument("--out", default="compare.csv", metavar="CSV")
    p.add_argument("--plot", action="store_true", help="emit SVG metric curves")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    # the config flags' values are read as --set values are
    overrides = {key: _coerce(key, getattr(args, key))
                 for key in ("seed", "out", "dump_images", "methods", "mask_scheme",
                             "resample_masks_per_step") if getattr(args, key) is not None}
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key.strip()] = _coerce(key.strip(), raw)
    return overrides


def _count(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"--count expects an integer, got {raw!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare-report":
            out = compare_report(args.runs, args.out, plot=args.plot)
            print(out)
            return EXIT_OK
        cfg = resolve_config(args.config, _overrides_from_args(args))
        handler = {
            "make-data": cmd_make_data,
            "train-denoiser": cmd_train_denoiser,
            "train-segmenter": cmd_train_segmenter,
            "augment": lambda cfg, log: cmd_augment(cfg, log, count=_count(args.count)),
            "evaluate": cmd_evaluate,
            "full-pipeline": cmd_full_pipeline,
        }[args.command]
        out_dir = Path(cfg.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ConfigError(f"out: {out_dir} is a file or lies under one") from None
        # inference from checkpoints never reaches fit, which also calls this
        keep_freed_batches()
        print(handler(cfg, RunLog(out_dir / "run.log")))
        write_resolved_config(cfg, out_dir / "resolved-config.txt")
        return EXIT_OK
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NumericalAbort as exc:
        print(f"error: numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SchemaMismatch as exc:
        print(f"error: schema mismatch: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CorruptFileError as exc:
        print(f"error: corrupt checkpoint, grid or manifest file: {exc}", file=sys.stderr)
        return EXIT_CORRUPT_FILE


if __name__ == "__main__":
    sys.exit(main())
