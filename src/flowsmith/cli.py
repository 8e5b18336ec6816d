"""Command-line entry point for corpus generation, solving, and evaluation.

Verbs: gen-corpus, solve, eval, ablate, report.  Numeric defaults may
come from a JSON config file (``--config``, else the
``FLOWSMITH_CONFIG`` environment variable, else ``./flowsmith.json``
when present); explicit flags win over the file, the file wins over
built-ins.  ``solve``, ``eval`` and ``ablate`` all run through
``evaluation.run_experiment``.  Outputs are written atomically.  Exit
codes: 0 success, 2 usage or configuration error, 3 I/O failure,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import corpus as corpus_mod
from .agents import LifeConfig
from .errors import ConfigError, EngineError
from .evaluation import ABLATABLE, ExperimentConfig, MetricsReport, csv_text
from .evaluation import run_experiment as _run_experiment

DEFAULT_CONFIG_ENV = "FLOWSMITH_CONFIG"
DEFAULT_CONFIG_FILE = "flowsmith.json"

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

_CONFIG_KEYS = set(BUILTIN_DEFAULTS)


@dataclass
class Command:
    verb: str
    options: dict

    def get(self, key, default=None):
        value = self.options.get(key)
        return default if value is None else value


def _load_config_file(path: str | None) -> dict:
    candidate = path or os.environ.get(DEFAULT_CONFIG_ENV) or DEFAULT_CONFIG_FILE
    if not os.path.exists(candidate):
        if path:  # an explicitly named file must exist
            raise ConfigError(f"config file not found: {candidate!r}")
        return {}
    try:
        with open(candidate, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable config file {candidate!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {candidate!r} must hold a JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r} in {candidate!r}")
        out[key] = value
    return out


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {label} list {text!r}") from exc
    if not values:
        raise ConfigError(f"{label} list must not be empty")
    return values


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
    s.add_argument("--mode", choices=("oracle", "goal_anchored"), default="oracle")
    s.add_argument("--theta", type=float)
    s.add_argument("--eta", type=float)
    s.add_argument("--budget", type=int)
    s.add_argument("--k", type=int, default=1)

    def eval_flags(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument("--train", required=True)
        p.add_argument("--test", required=True)
        p.add_argument("--k", dest="k_list", help="comma-separated, e.g. 1,3,5")
        p.add_argument("--report", required=True)
        p.add_argument("--csv")
        p.add_argument("--transcripts")
        p.add_argument("--mode", choices=("oracle", "goal_anchored"), default="oracle")
        p.add_argument("--theta", type=float)
        p.add_argument("--eta", type=float)
        p.add_argument("--budget", type=int)
        p.add_argument("--parallelism", type=int, default=1,
                       help="worker processes for --sweep points")
        p.add_argument("--library", help="JSONL of pattern workflows for reuse metrics")
        p.add_argument("--sweep", help="comma-separated pool sizes, e.g. 1,10,20")

    e = sub.add_parser("eval", help="run the full evaluation protocol")
    eval_flags(e)

    a = sub.add_parser("ablate", help="run the protocol with one component disabled")
    eval_flags(a)
    a.add_argument("--disable", required=True, choices=ABLATABLE)

    r = sub.add_parser("report", help="re-emit the flat CSV from a report JSON")
    r.add_argument("--report", required=True)
    r.add_argument("--csv", required=True)
    return parser


def parse_args(argv: list[str]) -> Command:
    """Parse argv into a Command; usage errors exit 2 on the diagnostic stream."""
    namespace = _build_parser().parse_args(argv)
    options = vars(namespace)
    verb = options.pop("verb")
    file_defaults = _load_config_file(options.get("config")) if verb != "report" else {}

    def fill(key: str, flag: str | None = None):
        flag = flag or key
        if options.get(flag) is None:
            options[flag] = file_defaults.get(key, BUILTIN_DEFAULTS.get(key))

    if verb != "report":
        fill("seed")
        fill("theta")
        fill("eta")
        fill("budget")
    if verb in ("eval", "ablate"):
        raw = options.get("k_list")
        if raw is None:
            k_list = file_defaults.get("k_list", BUILTIN_DEFAULTS["k_list"])
            if not isinstance(k_list, (list, tuple)):  # ExperimentConfig checks the items
                raise ConfigError(f"k_list must be a list of integers, got {k_list!r}")
            options["k_list"] = tuple(k_list)
        else:
            options["k_list"] = _parse_int_list(raw, "k")
        if options.get("sweep"):
            options["sweep"] = _parse_int_list(options["sweep"], "sweep")
    for key in _LIFE_DEFAULTS:
        options.setdefault(key, file_defaults.get(key, BUILTIN_DEFAULTS[key]))
    return Command(verb=verb, options=options)


def _life_config(cmd: Command) -> LifeConfig:
    try:
        return LifeConfig(**{key: cmd.options[key] for key in _LIFE_DEFAULTS})
    except ValueError as exc:
        raise ConfigError(f"bad life config: {exc}") from exc


def _cmd_gen_corpus(cmd: Command) -> int:
    planted = None
    if cmd.get("planted_length") is not None:
        planted = corpus_mod.PlantedSubflowSpec(
            length=cmd.options["planted_length"],
            rate=cmd.get("planted_rate", 0.2),
        )
    if cmd.options["profile"] == "default":
        profile = corpus_mod.default_profile(total=cmd.get("n", 10000), planted=planted)
    else:
        profile = corpus_mod.load_profile(cmd.options["profile"])
        if cmd.get("n") is not None or planted is not None:
            from dataclasses import replace as dc_replace
            profile = dc_replace(
                profile,
                total=cmd.get("n", profile.total),
                planted=planted if planted is not None else profile.planted,
            )
    records = corpus_mod.generate(profile, cmd.options["seed"])
    corpus_mod.save_corpus(records, cmd.options["out"])
    print(f"wrote {len(records)} records to {cmd.options['out']}")
    return 0


def _cmd_solve(cmd: Command) -> int:
    report = _run_experiment(ExperimentConfig(
        train_path=cmd.options["train"],
        test_path=cmd.options["goals"],
        k_list=tuple(range(1, cmd.options["k"] + 1)),
        theta=cmd.options["theta"],
        eta=cmd.options["eta"],
        repair_budget=cmd.options["budget"],
        mode=cmd.options["mode"],
        seed=cmd.options["seed"],
        transcripts_path=cmd.options["out"],
        life=_life_config(cmd),
    ))
    print(f"solved {report.runtime['episodes']} goals, {_summarize(report)}, "
          f"transcripts in {cmd.options['out']}")
    return 0


def _experiment_config(cmd: Command, disabled: frozenset[str]) -> ExperimentConfig:
    return ExperimentConfig(
        train_path=cmd.options["train"],
        test_path=cmd.options["test"],
        k_list=tuple(cmd.options["k_list"]),
        theta=cmd.options["theta"],
        eta=cmd.options["eta"],
        repair_budget=cmd.options["budget"],
        mode=cmd.options["mode"],
        seed=cmd.options["seed"],
        parallelism=cmd.options["parallelism"],
        disabled=disabled,
        library_path=cmd.get("library"),
        sweep_sizes=cmd.get("sweep"),
        report_path=cmd.options["report"],
        csv_path=cmd.get("csv"),
        transcripts_path=cmd.get("transcripts"),
        life=_life_config(cmd),
    )


def _summarize(report: MetricsReport) -> str:
    overall = [table.get(1) for table in report.per_bucket.values() if 1 in table]
    head = (sum(overall) / len(overall)) if overall else 0.0
    return f"mean bucket pass@1={head:.3f}"


def _cmd_eval(cmd: Command) -> int:
    report = _run_experiment(_experiment_config(cmd, frozenset()))
    print(f"report written to {cmd.options['report']}, {_summarize(report)}")
    return 0


def _cmd_ablate(cmd: Command) -> int:
    disabled = frozenset({cmd.options["disable"]})
    report = _run_experiment(_experiment_config(cmd, disabled))
    print(f"ablation {cmd.options['disable']}: report written to "
          f"{cmd.options['report']}, {_summarize(report)}")
    return 0


def _cmd_report(cmd: Command) -> int:
    path = cmd.options["report"]
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        per_bucket = {
            bucket: {int(k): value for k, value in table.items()}
            for bucket, table in doc["per_bucket"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed report {path!r}: {type(exc).__name__}: {exc}") from exc
    corpus_mod.write_atomic(cmd.options["csv"], csv_text(per_bucket))
    print(f"csv written to {cmd.options['csv']}")
    return 0


_HANDLERS = {
    "gen-corpus": _cmd_gen_corpus,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
}


def dispatch(cmd: Command) -> int:
    """Route a parsed command; map failures onto the documented exit codes."""
    try:
        return _HANDLERS[cmd.verb](cmd)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, EngineError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cmd = parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return dispatch(cmd)


if __name__ == "__main__":
    sys.exit(main())
