"""Command-line entry point for corpus generation, solving, and evaluation.

Verbs: gen-corpus, solve, eval, ablate, report.  A knob left unset on
the command line takes its value from the JSON file named by
``--config``, else from the built-in default (``BUILTIN_DEFAULTS``);
no other file and no environment variable is read.  ``solve``,
``eval`` and ``ablate`` all build their ``ExperimentConfig`` in one
place and run through ``evaluation.run_experiment``.  Outputs are
written atomically.  Exit codes: 0 success, 2 usage or configuration
error, 3 I/O failure, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

from . import corpus as corpus_mod
from .agents import LifeConfig
from .errors import ConfigError, EngineError, is_number
from .evaluation import ABLATABLE, ExperimentConfig, MetricsReport, csv_text, run_experiment
from .orchestrator import MODES

_EXPERIMENT_DEFAULTS = ExperimentConfig()
_LIFE_DEFAULTS = asdict(LifeConfig())

# Built-in defaults for keys a config file may override, read off the config classes.
BUILTIN_DEFAULTS = {
    "theta": _EXPERIMENT_DEFAULTS.theta,
    "eta": _EXPERIMENT_DEFAULTS.eta,
    "k_list": _EXPERIMENT_DEFAULTS.k_list,
    "budget": _EXPERIMENT_DEFAULTS.repair_budget,
    "seed": _EXPERIMENT_DEFAULTS.seed,
    **_LIFE_DEFAULTS,
}


def _load_config_file(path: str) -> dict:
    try:
        raw = corpus_mod.read_json(path, "config file")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    for key in raw:
        if key not in BUILTIN_DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} in {path!r}")
    return raw


def _int_list(label: str):
    """An argparse ``type`` for comma-separated integers; a bad list is a ConfigError."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"bad {label} list {text!r}") from exc
        if not values:
            raise ConfigError(f"{label} list must not be empty")
        return values
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsmith",
        description="Deterministic structure-driven workflow orchestration engine.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file with default knobs")
        p.add_argument("--seed", type=int)

    g = sub.add_parser("gen-corpus", help="generate a synthetic workflow corpus")
    common(g)
    g.add_argument("--profile", default="default", help="'default' or a profile JSON path")
    g.add_argument("--n", type=int, help="number of records (overrides profile total)")
    g.add_argument("--out", required=True)
    g.add_argument("--planted-length", type=int)
    g.add_argument("--planted-rate", type=float)

    s = sub.add_parser("solve", help="solve every goal in a corpus against a trained pool")
    common(s)
    s.add_argument("--train", required=True)
    s.add_argument("--goals", required=True)
    s.add_argument("--out", required=True, help="episode transcripts (JSONL)")
    s.add_argument("--mode", choices=MODES, default="oracle")
    s.add_argument("--theta", type=float)
    s.add_argument("--eta", type=float)
    s.add_argument("--budget", type=int)
    s.add_argument("--k", type=int, default=1)

    for verb, summary in (("eval", "run the full evaluation protocol"),
                          ("ablate", "run the protocol with one component disabled")):
        p = sub.add_parser(verb, help=summary)
        common(p)
        p.add_argument("--train", required=True)
        p.add_argument("--test", required=True)
        p.add_argument("--k", dest="k_list", type=_int_list("k"),
                       help="comma-separated, e.g. 1,3,5")
        p.add_argument("--report", required=True)
        p.add_argument("--csv")
        p.add_argument("--transcripts")
        p.add_argument("--mode", choices=MODES, default="oracle")
        p.add_argument("--theta", type=float)
        p.add_argument("--eta", type=float)
        p.add_argument("--budget", type=int)
        p.add_argument("--parallelism", type=int, default=1,
                       help="worker processes for --sweep points")
        p.add_argument("--library", help="JSONL of pattern workflows for reuse metrics")
        p.add_argument("--sweep", type=_int_list("sweep"),
                       help="comma-separated pool sizes, e.g. 1,10,20")
        if verb == "ablate":
            p.add_argument("--disable", required=True, choices=ABLATABLE)

    r = sub.add_parser("report", help="re-emit the flat CSV from a report JSON")
    r.add_argument("--report", required=True)
    r.add_argument("--csv", required=True)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; fill each unset knob from the ``--config`` file, else the built-ins.

    Usage errors exit 2 on the diagnostic stream; a bad config file or
    integer list raises ConfigError.
    """
    args = _build_parser().parse_args(argv)
    if args.verb == "report":
        return args
    file_defaults = _load_config_file(args.config) if args.config else {}
    for key, default in BUILTIN_DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_defaults.get(key, default))
    return args


def _experiment_config(args: argparse.Namespace, **run) -> ExperimentConfig:
    """The config every run shares, plus the verb's own fields in ``run``."""
    life = LifeConfig(**{key: getattr(args, key) for key in _LIFE_DEFAULTS})
    return ExperimentConfig(train_path=args.train, theta=args.theta, eta=args.eta,
                            repair_budget=args.budget, mode=args.mode, seed=args.seed,
                            life=life, **run)


def _summarize(report: MetricsReport) -> str:
    overall = [table.get(1) for table in report.per_bucket.values() if 1 in table]
    head = (sum(overall) / len(overall)) if overall else 0.0
    return f"mean bucket pass@1={head:.3f}"


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    """Write a corpus; each planted flag replaces only its own field of the profile's spec."""
    profile = (corpus_mod.default_profile() if args.profile == "default"
               else corpus_mod.load_profile(args.profile))
    planted = profile.planted
    if args.planted_length is not None or args.planted_rate is not None:
        if args.planted_length is None and planted is None:
            raise ConfigError("--planted-rate needs --planted-length or a profile's planted length")
        planted = corpus_mod.PlantedSubflowSpec(
            length=planted.length if args.planted_length is None else args.planted_length,
            rate=(args.planted_rate if args.planted_rate is not None
                  else planted.rate if planted else 0.2),
        )
    profile = replace(profile, total=profile.total if args.n is None else args.n,
                      planted=planted)
    records = corpus_mod.generate(profile, args.seed)
    corpus_mod.save_corpus(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    report = run_experiment(_experiment_config(
        args, test_path=args.goals, k_list=tuple(range(1, args.k + 1)),
        transcripts_path=args.out,
    ))
    print(f"solved {report.runtime['episodes']} goals, {_summarize(report)}, "
          f"transcripts in {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    """``eval``, and ``ablate`` with its one ``--disable`` component."""
    disable = getattr(args, "disable", None)
    report = run_experiment(_experiment_config(
        args, test_path=args.test, k_list=args.k_list, parallelism=args.parallelism,
        disabled=frozenset({disable} if disable else ()), library_path=args.library,
        sweep_sizes=args.sweep, report_path=args.report, csv_path=args.csv,
        transcripts_path=args.transcripts,
    ))
    prefix = f"ablation {disable}: " if disable else ""
    print(f"{prefix}report written to {args.report}, {_summarize(report)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    doc = corpus_mod.read_json(args.report, "report")
    try:
        per_bucket = {
            bucket: {int(k): value for k, value in table.items()}
            for bucket, table in doc["per_bucket"].items()
        }
        for bucket, table in per_bucket.items():
            for k, value in table.items():
                if k < 1 or not is_number(value) or not 0.0 <= value <= 1.0:
                    raise ValueError(f"bucket {bucket!r} has pass@{k} = {value!r}, "
                                     "not a number in [0, 1] at a k >= 1")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed report {args.report!r}: {type(exc).__name__}: {exc}") from exc
    corpus_mod.write_atomic(args.csv, csv_text(per_bucket))
    print(f"csv written to {args.csv}")
    return 0


_HANDLERS = {
    "gen-corpus": _cmd_gen_corpus,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "ablate": _cmd_eval,
    "report": _cmd_report,
}


def dispatch(args: argparse.Namespace) -> int:
    """Route parsed arguments; map failures onto the documented exit codes."""
    try:
        return _HANDLERS[args.verb](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, EngineError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
