"""Command line front end.

Subcommands map one-to-one onto experiment kinds; `run` reads an INI
preset and lets the common flags override it.  Argument errors and
schema violations exit 1, check-threshold failures exit 2, success 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from .errors import TaperspecError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for check failures here,
    # so remap usage errors onto the schema-violation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--model", help="model spec, e.g. ar1{theta=0.5,sigma2=1}")
    sub.add_argument("--taper", help="taper id: rect, linear, or tukey")
    sub.add_argument("--T", help="sample size, or comma list for ladder experiments")
    sub.add_argument("--reps", help="replication count")
    sub.add_argument("--seed", help="master seed (default 0)")
    sub.add_argument("--driver", help="innovation driver: gaussian, exponential, laplace")
    sub.add_argument("--oversample", help="frequency grid oversampling factor (2, 4, or 8)")
    sub.add_argument("--out", help="output base path; writes <out>.csv and <out>.json")
    sub.add_argument("--workers", type=int,
                     help="process count for replication-level parallelism "
                          "(default: the preset's, else 1)")
    sub.add_argument("--check", action="store_true",
                     help="audit aggregate metrics against thresholds; exit 2 on failure")


def build_parser() -> _Parser:
    parser = _Parser(prog="taperspec")
    subs = parser.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    sub = subs.add_parser("simulate", help="draw model sample paths")
    _add_common(sub)

    sub = subs.add_parser("periodogram", help="tapered periodogram of one realization")
    _add_common(sub)

    sub = subs.add_parser("estimate-functional", help="plug-in spectral functional study")
    _add_common(sub)
    sub.add_argument("--g", help="generator: cosine:u or indicator:mu")

    sub = subs.add_parser("whittle", help="tapered Whittle fit study")
    _add_common(sub)

    sub = subs.add_parser("gof", help="frequency-domain goodness-of-fit study")
    _add_common(sub)
    sub.add_argument("--mode", help="simple or composite")
    sub.add_argument("--basis", help="test basis: cosine:m or ar-example:m")
    sub.add_argument("--alpha", help="test level (default 0.05)")
    sub.add_argument("--data-model", dest="data_model",
                     help="model generating the data when it differs from the null")
    sub.add_argument("--mc-draws", dest="mc_draws",
                     help="Monte Carlo draws for the composite mixture p-value")

    sub = subs.add_parser("trace-experiment", help="tapered trace against its limit")
    _add_common(sub)
    sub.add_argument("--pair", help="named generator pair, e.g. ar1xcos")
    sub.add_argument("--g", help="generator when --pair is not used")

    sub = subs.add_parser("fejer", help="kernel normalization and tail mass ladder")
    _add_common(sub)
    sub.add_argument("--delta", help="tail cutoff in (0, pi), default 0.5")
    sub.add_argument("--g", help="generator for the smoothing-error pair")
    sub.add_argument("--T-smooth", dest="T_smooth",
                     help="sample size for the smoothing-error evaluation")

    sub = subs.add_parser("robustness", help="trend contamination study")
    _add_common(sub)
    sub.add_argument("--trend", help="zero or power:c,beta")
    sub.add_argument("--target", help="functional or whittle")
    sub.add_argument("--g", help="generator for the gap ladder")
    sub.add_argument("--report-T", dest="report_T",
                     help="sample size for the distribution report (default: max ladder T)")
    sub.add_argument("--report-reps", dest="report_reps",
                     help="replications for the distribution report")

    sub = subs.add_parser("run", help="run an experiment preset from an INI file")
    _add_common(sub)
    sub.add_argument("--config", required=True, help="INI preset path")

    return parser


_NOT_OPTIONS = {"kind", "check", "workers", "config"}


def _cli_options(args: argparse.Namespace) -> dict:
    out = {}
    for key, val in vars(args).items():
        if key in _NOT_OPTIONS or val is None:
            continue
        out[key] = str(val)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.kind == "run":
            cfg = harness.load_config_file(args.config)
            cfg.options.update(_cli_options(args))
            cfg.check_enabled = cfg.check_enabled or args.check
        else:
            cfg = harness.ExperimentConfig(kind=args.kind,
                                           options=_cli_options(args),
                                           check_enabled=args.check)
        if args.workers is not None:
            cfg = dataclasses.replace(cfg, workers=args.workers)
        return harness.run_experiment(cfg)
    except TaperspecError as exc:
        print(f"taperspec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
