#!/usr/bin/env python3
"""Cost of verification and repair on the repair-shaped corpus, seed 7.

Run from the repository root:

    python3 bench/verify_cost.py

The inputs are those of the benchmark's ``repair`` workload
(``perfbench/workloads.py``): 150 flows of 2-5 tasks, three in four
nested, 120 of them trained, and 500 linear plus 500 nested novel goals
of 4-6 parts.  The goals run in order in oracle mode with repair budget
5, as ``evaluation.run_episodes`` does: one ``run_episode`` each, then
one ``eliminate_and_refresh``.

Two passes run on freshly generated inputs, so that no normal form
computed in one pass is reused by the other.  The timed pass reports
``run_episode`` ms and ms per ``verify`` and ``repair_loop`` call; the
counting pass reports how often ``workflow.normalize_node`` was called
from outside (top level) and by itself (recursive).  The counts and the
transcript digest repeat exactly from run to run; the result is one
JSON document on standard output.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from flowsmith import corpus, orchestrator, repair  # noqa: E402
from flowsmith import workflow as wf  # noqa: E402
from flowsmith.agents import build_agents, eliminate_and_refresh  # noqa: E402
from flowsmith.evaluation import run_episode, transcripts_text  # noqa: E402
from flowsmith.orchestrator import SolveConfig  # noqa: E402
from workloads import TRAIN_FRACTION, WORKLOADS  # noqa: E402

SEED = 7
WORKLOAD = WORKLOADS["repair"]


def inputs() -> tuple[list, list]:
    """The workload's training records and novel goals, as it writes them."""
    records = corpus.generate(WORKLOAD.profile(WORKLOAD.records), SEED)
    train, _ = corpus.split(records, TRAIN_FRACTION, SEED)
    goals = []
    for structure, count, parts in WORKLOAD.goal_groups():
        goals += corpus.make_novel_goals(train, SEED, count, (parts, parts), structure,
                                         id_prefix=f"{structure}-{parts}")
    return train, goals


@contextmanager
def patched(sites: dict):
    """Replace module attributes {(module, name): wrapper} for the block."""
    saved = {site: getattr(*site) for site in sites}
    for (module, name), wrapper in sites.items():
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for (module, name), original in saved.items():
            setattr(module, name, original)


def timed(fn, layer: str, seconds: Counter, calls: Counter):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[layer] += perf_counter() - start
            calls[layer] += 1
    return wrapper


def counted(fn, calls: Counter):
    depth = 0

    def wrapper(*args, **kwargs):
        nonlocal depth
        calls["recursive" if depth else "top_level"] += 1
        depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth -= 1
    return wrapper


def solve_all() -> tuple[list, list[float]]:
    train, goals = inputs()
    net = build_agents([(r.goal, r.workflow) for r in train])
    config = SolveConfig(seed=SEED, repair_budget=WORKLOAD.repair_budget)
    episodes, episode_s = [], []
    for record in goals:
        start = perf_counter()
        episodes.append(run_episode(net, record, config))
        episode_s.append(perf_counter() - start)
        eliminate_and_refresh(net)
    return episodes, episode_s


def per_call(layer: str, seconds: Counter, calls: Counter) -> dict:
    return {"calls": calls[layer], "ms_per_call": round(1000.0 * seconds[layer] / calls[layer], 4)}


def measure() -> dict:
    seconds, calls = Counter(), Counter()
    verify = timed(orchestrator.verify, "verify", seconds, calls)
    with patched({(orchestrator, "verify"): verify, (repair, "verify"): verify,
                  (repair, "repair_loop"): timed(repair.repair_loop, "repair_loop",
                                                 seconds, calls)}):
        episodes, episode_s = solve_all()
    normalize_calls = Counter()
    with patched({(wf, "normalize_node"): counted(wf.normalize_node, normalize_calls)}):
        counted_episodes, _ = solve_all()
    digest = hashlib.sha256(transcripts_text(episodes).encode()).hexdigest()
    if hashlib.sha256(transcripts_text(counted_episodes).encode()).hexdigest() != digest:
        raise SystemExit("the two passes solved the episodes differently")
    ms = [1000.0 * s for s in episode_s]
    return {
        "episodes": len(episodes),
        "passed_at_rank_1": sum(item.episode.passed_rank() == 1 for item in episodes),
        "run_episode_ms": {"p50": round(statistics.median(ms), 4),
                           "mean": round(statistics.fmean(ms), 4)},
        "verify": per_call("verify", seconds, calls),
        "repair_loop": per_call("repair_loop", seconds, calls),
        "normalize_node_calls": {"top_level": normalize_calls["top_level"],
                                 "recursive": normalize_calls["recursive"]},
        "transcripts_sha256": digest,
    }


if __name__ == "__main__":
    print(json.dumps({
        "seed": SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        **measure(),
    }, indent=2))
