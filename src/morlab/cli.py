"""Command-line entry points: run experiments, summarize artifact directories,
and score policies on logged data."""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .errors import ConfigError, MorlabError
from .experiment import ExperimentConfig, run_experiment, summarize, write_summary
from .opeval import DEFAULT_CAP, load_logged_data, ncis_scores
from .policy import load_policy_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="morlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run all seeds of an experiment config")
    run_p.add_argument("config", help="path to the INI experiment file")
    run_p.add_argument("--seeds", type=int, default=None, help="override the seed count")
    run_p.add_argument("--out", default=None, help="override the output directory")

    sum_p = sub.add_parser("summarize", help="recompute summary.json for a run directory")
    sum_p.add_argument("run_dir")

    ncis_p = sub.add_parser("ncis", help="score a policy on a JSON-lines logged dataset")
    ncis_p.add_argument("dataset", help="logged data, one {s,a,r,pb} JSON object per line")
    ncis_p.add_argument("policy", help="policy JSON file")
    ncis_p.add_argument("--cap", type=float, default=DEFAULT_CAP, help="importance-weight cap")
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_ini(args.config)
    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError("--seeds must be >= 1")
        cfg.seeds = args.seeds
    out = run_experiment(cfg, out_dir=args.out)
    print(out)
    return 0


def _cmd_summarize(args) -> int:
    summary = summarize(args.run_dir)
    path = write_summary(args.run_dir, summary)
    print(path)
    return 0


def _cmd_ncis(args) -> int:
    dataset = load_logged_data(args.dataset)
    policy = load_policy_json(args.policy)
    scores = ncis_scores(dataset, policy, cap=args.cap)
    print(json.dumps({"cap": args.cap, "scores": scores.tolist()}))
    return 0


def _one_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # a shown warning is one line, without morlab's own source line; callers
    # that record warnings still get them as UserWarning
    shown, warnings.formatwarning = warnings.formatwarning, _one_line
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        return _cmd_ncis(args)
    except MorlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:   # a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
