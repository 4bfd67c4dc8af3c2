"""Command-line entry point.

Subcommands: run <spec.json>, list-experiments, validate <spec.json>,
seed-report <spec.json>; run them as ``snschan`` or ``python -m snschan``.
Exit codes: 0 success, 2 config error (a bad spec, flag or output
directory), 3 experiment failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentFailure,
    ExperimentSpec,
    run_experiment,
    seed_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILURE = 3


def _load_spec(path: str, args: argparse.Namespace) -> ExperimentSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:    # ValueError: bad JSON or not UTF-8
        raise ConfigError(f"cannot read spec {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"spec must be a JSON object, got {doc!r}")
    if getattr(args, "trials", None) is not None:
        doc["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "algorithms", None) is not None:
        names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        # an empty list in a spec means the defaults, which a flag meant to
        # narrow the run must not select
        if not names:
            raise ConfigError(f"--algorithms names no algorithm: {args.algorithms!r}")
        doc["algorithms"] = names
    return ExperimentSpec.from_dict(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snschan",
        description="Non-stationary near-field channel estimation benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment spec")
    run_p.add_argument("spec", help="path to the experiment spec JSON")
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default="results")
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--algorithms", default=None,
                       help="comma-separated algorithm subset")
    run_p.add_argument("--timing", action="store_true",
                       help="write measured runtimes into results.csv "
                            "(breaks byte-level reproducibility)")

    sub.add_parser("list-experiments", help="print the experiment registry")

    val_p = sub.add_parser("validate", help="check a spec without running it")
    val_p.add_argument("spec")

    seed_p = sub.add_parser("seed-report",
                            help="print the derived per-trial RNG streams")
    seed_p.add_argument("spec")
    return parser


def _list_experiments(args: argparse.Namespace) -> int:
    for name, exp in EXPERIMENTS.items():
        algos = ",".join(exp.algorithms)
        print(f"{name}: sweep={exp.sweep_param} "
              f"default={list(exp.default_sweep)} algorithms=[{algos}]")
    return EXIT_OK


def _validate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec, args)
    print(f"ok: {spec.experiment} sweep={spec.sweep} "
          f"trials={spec.trials} seed={spec.seed} "
          f"hash={spec.config_hash()}")
    return EXIT_OK


def _seed_report(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec, args)
    for entry in seed_report(spec):
        print(f"sweep_value={entry['sweep_value']} "
              f"trial={entry['trial']} spawn_key={entry['spawn_key']} "
              f"state_word={entry['state_word']}")
    return EXIT_OK


def _check_out_dir(path: str) -> None:
    """Raise ConfigError unless the directory path exists or can be made,
    which needs its nearest existing ancestor (or itself) to be a directory.
    Checked before a run, so that a path that cannot hold results.csv costs
    no run; a run that fails leaves no directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{existing} is not a directory")


def _run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec, args)
    _check_out_dir(args.out)
    try:
        table = run_experiment(spec, workers=args.workers)
    except ExperimentFailure as err:
        print(f"experiment failed: {err}", file=sys.stderr)
        return EXIT_FAILURE
    table.write(args.out, include_runtime=args.timing)
    print(f"wrote {len(table.rows)} rows to {args.out}/results.csv "
          f"(hash {table.meta['config_hash']})")
    return EXIT_OK


# subcommand -> handler of its parsed arguments, returning the exit code
COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "run": _run,
    "list-experiments": _list_experiments,
    "validate": _validate,
    "seed-report": _seed_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
