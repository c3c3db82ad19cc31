"""Command line front end, built from the tables in `harness`.

Each experiment kind is a subcommand with a flag for every option it reads,
plus --check; `run` reads an INI preset, takes every flag (flags win) and
rejects one the preset's kind does not read.  Argument errors and schema
violations exit 1, check-threshold failures exit 2, success 0.
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


def build_parser() -> _Parser:
    # no prefix matching: a misspelt flag is an error, like a misspelt INI key
    parser = _Parser(prog="taperspec", allow_abbrev=False)
    subs = parser.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    kinds = {kind: (spec.summary, spec.options) for kind, spec in harness.KINDS.items()}
    kinds["run"] = ("run an experiment preset from an INI file", dict.fromkeys(harness.OPTIONS))
    for kind, (summary, options) in kinds.items():
        sub = subs.add_parser(kind, help=summary, allow_abbrev=False)
        if kind == "run":
            sub.add_argument("--config", required=True, help="INI preset path")
        for name, default in options.items():
            text = harness.OPTIONS[name].help
            if default is harness.REQUIRED:
                text += f" ({default})"
            elif isinstance(default, (str, int, float)):  # not derived from other options
                text += f" (default {default})"
            sub.add_argument("--" + name.replace("_", "-"), dest=name, help=text)
        sub.add_argument("--check", action="store_true",
                         help="audit aggregate metrics against thresholds; exit 2 on failure")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = {k: v for k, v in vars(args).items() if k in harness.OPTIONS and v is not None}
    try:
        if args.kind == "run":
            cfg = harness.load_config_file(args.config)
            cfg = dataclasses.replace(cfg, options={**cfg.options, **given},
                                      check_enabled=args.check)
        else:
            cfg = harness.ExperimentConfig(kind=args.kind, options=given,
                                           check_enabled=args.check)
        return harness.run_experiment(cfg)
    except TaperspecError as exc:
        print(f"taperspec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
