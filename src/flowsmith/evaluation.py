"""Experiment runner: pass@k tables, reuse efficiency, sweeps, ablations.

Episodes bucket by the structure of their ground-truth workflow (linear
buckets 1 / 2-3 / 4-6 / 7+ by task count, nested buckets 1-2 / 3-4 / 5+
by depth).  Reports carry only deterministic quantities, so a fixed seed
and config reproduce them byte for byte.  Episodes run strictly in
order on one network, because each episode's life updates and
eliminations decide what the next can select; only the independent
points of a pool-size sweep run in worker processes.

An ``ExperimentConfig`` checks its own fields and builds its
``SolveConfig`` when it is made, so a bad setting, of any type, fails
with ``ConfigError`` before any file is read.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import asdict, dataclass, replace
from itertools import repeat

from . import workflow as wf
from .agents import AgentNetwork, LifeConfig, build_agents, eliminate_and_refresh
from .corpus import CorpusRecord, load_corpus, read_jsonl, write_atomic
from .errors import ConfigError, DuplicateGoal, InvalidWorkflow, is_int
from .orchestrator import ABLATABLE, EpisodeResult, SolveConfig, solve


@dataclass(frozen=True)
class ExperimentConfig:
    train_path: str = ""
    test_path: str = ""
    k_list: tuple[int, ...] = (1, 3, 5)
    theta: float = SolveConfig.theta
    eta: float = SolveConfig.eta
    repair_budget: int = SolveConfig.repair_budget
    mode: str = SolveConfig.mode
    seed: int = SolveConfig.seed
    parallelism: int = 1
    disabled: frozenset[str] = frozenset()
    library_path: str | None = None
    sweep_sizes: tuple[int, ...] | None = None
    report_path: str | None = None
    csv_path: str | None = None
    transcripts_path: str | None = None
    life: LifeConfig = LifeConfig()

    def __post_init__(self):
        if not isinstance(self.k_list, (list, tuple)):
            raise ConfigError(f"k_list must be a list of integers, got {self.k_list!r}")
        object.__setattr__(self, "k_list", tuple(self.k_list))  # a config file gives a list
        if not self.k_list:
            raise ConfigError("k_list must not be empty")
        if not all(is_int(v) for v in self.k_list):
            raise ConfigError(f"k values must be integers, got {list(self.k_list)!r}")
        if list(self.k_list) != sorted(self.k_list) or len(set(self.k_list)) != len(self.k_list):
            raise ConfigError("k_list must be strictly ascending")
        if any(k < 1 for k in self.k_list):
            raise ConfigError("k values must be >= 1")
        if (not isinstance(self.disabled, (set, frozenset, list, tuple))
                or not all(isinstance(name, str) for name in self.disabled)):
            raise ConfigError(f"disabled must be a set of component names, got {self.disabled!r}")
        object.__setattr__(self, "disabled", frozenset(self.disabled))
        unknown = self.disabled - set(ABLATABLE)
        if unknown:
            raise ConfigError(f"unknown ablation component(s): {sorted(unknown)}")
        if not is_int(self.parallelism):
            raise ConfigError(f"parallelism must be an integer, got {self.parallelism!r}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.sweep_sizes is not None:
            if not isinstance(self.sweep_sizes, (list, tuple)):
                raise ConfigError(f"sweep_sizes must be a list of integers, got {self.sweep_sizes!r}")
            object.__setattr__(self, "sweep_sizes", tuple(self.sweep_sizes))
            if not all(is_int(size) for size in self.sweep_sizes):
                raise ConfigError(f"sweep sizes must be integers, got {list(self.sweep_sizes)!r}")
        self.solve_config()

    def solve_config(self) -> SolveConfig:
        return SolveConfig(
            theta=self.theta,
            eta=self.eta,
            k=max(self.k_list),
            repair_budget=self.repair_budget,
            mode=self.mode,
            seed=self.seed,
            **{name: name not in self.disabled for name in ABLATABLE},
        )


@dataclass
class BucketedEpisode:
    record: CorpusRecord
    episode: EpisodeResult


@dataclass
class MetricsReport:
    per_bucket: dict[str, dict[int, float]]
    reuse_pct: float | None
    life_summary: dict[str, int]
    runtime: dict[str, int]
    config_echo: dict
    sweep: dict[int, float] | None = None

    def __post_init__(self):
        for bucket, table in self.per_bucket.items():
            ks = sorted(table)
            values = [table[k] for k in ks]
            if any(b < a for a, b in zip(values, values[1:])):
                raise AssertionError(f"pass@k not monotone in bucket {bucket!r}: {table}")

    def to_doc(self) -> dict:
        return {
            "per_bucket": {
                bucket: {str(k): v for k, v in sorted(table.items())}
                for bucket, table in sorted(self.per_bucket.items())
            },
            "reuse_pct": self.reuse_pct,
            "life_summary": dict(sorted(self.life_summary.items())),
            "runtime": dict(sorted(self.runtime.items())),
            "config": self.config_echo,
            "sweep": ({str(k): v for k, v in sorted(self.sweep.items())}
                      if self.sweep is not None else None),
        }


def csv_text(per_bucket: dict[str, dict[int, float]]) -> str:
    """The flat ``bucket,k,value`` CSV of a pass@k table; a bucket name
    holding a comma, a quote or a line break is quoted."""
    rows = [(name, k, table[k]) for name, table in sorted(per_bucket.items()) for k in sorted(table)]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([("bucket", "k", "value"), *rows])
    return out.getvalue()


def transcripts_text(episodes: list[BucketedEpisode]) -> str:
    """One canonical JSON line per episode, tagged with its bucket; the
    candidates share procedure subtrees, so one node-document table serves all."""
    lines = []
    docs: dict = {}
    for item in episodes:
        doc = item.episode.to_doc(docs)
        doc["bucket"] = item.record.bucket
        lines.append(wf.canonical_json(doc))
    return "\n".join(lines) + ("\n" if lines else "")


# --- metrics ------------------------------------------------------------------


def pass_at_k(episodes: list[BucketedEpisode], ks: tuple[int, ...]) -> dict[str, dict[int, float]]:
    """Per bucket: the fraction of episodes with a passing candidate in ranks 1..k."""
    buckets: dict[str, list[int | None]] = {}
    for item in episodes:
        buckets.setdefault(item.record.bucket, []).append(item.episode.passed_rank())
    table: dict[str, dict[int, float]] = {}
    for bucket, ranks in buckets.items():
        table[bucket] = {
            k: sum(1 for r in ranks if r is not None and r <= k) / len(ranks)
            for k in ks
        }
    return table


def overall_pass_at_1(episodes: list[BucketedEpisode]) -> float:
    if not episodes:
        return 0.0
    hits = sum(1 for item in episodes if item.episode.passed_rank() == 1)
    return hits / len(episodes)


def reuse_efficiency(episodes: list[BucketedEpisode], library: list[wf.Workflow]) -> float:
    """Percentage of passing episodes whose final workflow contains a library pattern."""
    if not library:
        return 0.0
    passing = [rank.candidate for item in episodes for rank in item.episode.ranks
               if rank.verdict.passed]  # a pass ends its episode
    if not passing:
        return 0.0
    hits = sum(1 for flow in passing if wf.find_subflows(flow, library))
    return 100.0 * hits / len(passing)


# --- episode execution -----------------------------------------------------------


def run_episode(net: AgentNetwork, record: CorpusRecord,
                solve_cfg: SolveConfig) -> BucketedEpisode:
    episode = solve(net, record.goal, solve_cfg, expected=record.workflow)
    return BucketedEpisode(record=record, episode=episode)


def run_episodes(net: AgentNetwork, records: list[CorpusRecord],
                 solve_cfg: SolveConfig) -> tuple[list[BucketedEpisode], dict[str, int]]:
    """Run every record in order, eliminating and refreshing after each one
    when scale control is on."""
    life_summary = {"eliminations": 0, "revivals": 0, "spawns": 0}
    episodes = []
    for record in records:
        episodes.append(run_episode(net, record, solve_cfg))
        if solve_cfg.scale_control:
            log = eliminate_and_refresh(net)
            life_summary["eliminations"] += len(log.archived)
            life_summary["revivals"] += len(log.revived)
            life_summary["spawns"] += len(log.spawned)
    return episodes, life_summary


def _sweep_point(train: list[CorpusRecord], test: list[CorpusRecord],
                 solve_cfg: SolveConfig, life: LifeConfig) -> float:
    """Overall pass@1 of a network built from ``train`` alone."""
    net = build_agents([(r.goal, r.workflow) for r in train], config=life)
    episodes, _ = run_episodes(net, test, solve_cfg)
    return overall_pass_at_1(episodes)


# --- experiments -------------------------------------------------------------------


def _config_echo(config: ExperimentConfig) -> dict:
    return {
        "train": config.train_path,
        "test": config.test_path,
        "k_list": list(config.k_list),
        "theta": config.theta,
        "eta": config.eta,
        "repair_budget": config.repair_budget,
        "mode": config.mode,
        "seed": config.seed,
        "disabled": sorted(config.disabled),
        "life": asdict(config.life),
    }


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    """Build the network from the train split, solve every test goal, aggregate.

    Writes the report (JSON), the flat CSV, and line-delimited episode
    transcripts when the corresponding paths are set.
    """
    for label, path in (("train", config.train_path), ("test", config.test_path)):
        if not path or not os.path.exists(path):
            raise ConfigError(f"{label} corpus file missing: {path!r}")
    # One task table for both files: an expected workflow then holds the
    # very task nodes of the agents' procedures, and diff compares them by
    # identity first.
    tasks: dict = {}
    train = load_corpus(config.train_path, strip_oracle=True, tasks=tasks)
    test = load_corpus(config.test_path, tasks=tasks)
    library: list[wf.Workflow] = []
    if config.library_path:
        if not os.path.exists(config.library_path):
            raise ConfigError(f"library file missing: {config.library_path!r}")
        library = read_jsonl(config.library_path, wf.from_doc, "library")

    sizes = config.sweep_sizes or ()
    bad = [size for size in sizes if not 0 <= size <= len(train)]
    if bad:
        raise ConfigError(f"sweep sizes must lie in [0, {len(train)}]: {bad}")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"sweep sizes must be distinct: {list(sizes)}")

    solve_cfg = config.solve_config()
    try:
        net = build_agents([(r.goal, r.workflow) for r in train], config=config.life)
    except (DuplicateGoal, InvalidWorkflow) as exc:
        raise ValueError(f"bad train corpus {config.train_path!r}: {exc}") from exc
    episodes, life_summary = run_episodes(net, test, solve_cfg)

    sweep = None
    if sizes:
        # Imported here so that runs without a sweep do not load the pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(config.parallelism, len(sizes)),
            mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            points = pool.map(_sweep_point, [train[:size] for size in sizes],
                              repeat(test), repeat(solve_cfg), repeat(config.life))
            sweep = dict(zip(sizes, points))

    report = MetricsReport(
        per_bucket=pass_at_k(episodes, config.k_list),
        reuse_pct=reuse_efficiency(episodes, library) if library else None,
        life_summary=life_summary,
        runtime={
            "episodes": len(episodes),
            "solver_steps": sum(e.episode.steps for e in episodes),
            "repairs": sum(len(rank.repairs) for e in episodes for rank in e.episode.ranks),
            "early_failures": sum(1 for e in episodes if e.episode.early_failure),
        },
        config_echo=_config_echo(config),
        sweep=sweep,
    )

    if config.transcripts_path:
        write_atomic(config.transcripts_path, transcripts_text(episodes))
    if config.report_path:
        write_atomic(config.report_path, wf.canonical_json(report.to_doc()) + "\n")
    if config.csv_path:
        write_atomic(config.csv_path, csv_text(report.per_bucket))
    return report


def ablate(config: ExperimentConfig, component: str) -> MetricsReport:
    """Re-run the experiment with one component disabled."""
    stripped = replace(config, disabled=config.disabled | {component})
    return run_experiment(stripped)
