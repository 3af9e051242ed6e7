"""Command-line entry points: run, suite, tune-extra."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import (
    ConfigError,
    SUITE_NAMES,
    TuneExtraError,
    experiment_suite,
    load_config,
    run,
    tune_extra,
)

_EXIT_BY_STATUS = {"converged": 0, "diverged": 1, "stalled": 1, "budget_exhausted": 2}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipopt",
        description="Decentralized adaptive optimization runs and experiment suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True, help="YAML run configuration")
    p_run.add_argument("--out", default=None, help="override the CSV output path")

    p_suite = sub.add_parser("suite", help="run a named experiment suite")
    p_suite.add_argument("name", choices=SUITE_NAMES)
    p_suite.add_argument("--out", required=True, help="output directory")
    p_suite.add_argument("--data", default=None, help="libsvm dataset path (logistic suites)")
    p_suite.add_argument(
        "--max-rounds", type=int, default=None, help="override the vector-round budget"
    )

    p_tune = sub.add_parser("tune-extra", help="grid-search EXTRA's stepsize")
    p_tune.add_argument("--config", required=True, help="YAML run configuration (extra)")
    p_tune.add_argument("--out", default=None, help="CSV path for the best run's trace")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            if args.out:
                config = replace(config, output=args.out)
            trace = run(config)
            final = trace.final
            print(
                f"status={trace.status} k={final.k} vector_rounds={final.vector_rounds} "
                f"err_rel={final.err_rel:.3e} wall={trace.wall_time:.1f}s"
            )
            return _EXIT_BY_STATUS.get(trace.status, 1)

        if args.command == "suite":
            summary = experiment_suite(
                args.name, args.out, data_path=args.data, max_vector_rounds=args.max_rounds
            )
            print(f"summary written to {summary}")
            return 0

        config = load_config(args.config)
        alpha, trace = tune_extra(config)
        if args.out:
            trace.write_csv(args.out)
        final = trace.final
        print(f"best alpha={alpha:g} vector_rounds={final.vector_rounds} status={trace.status}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except TuneExtraError as exc:
        print(f"tuning failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
