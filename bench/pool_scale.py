#!/usr/bin/env python3
"""Per-episode cost against pool size: one default-profile pool per size, seed 7.

Run from the repository root:

    python3 bench/pool_scale.py

Each pool is built from a default-profile corpus of that many records,
all of them trained.  25 linear and 25 nested novel goals of 2-3 parts
then run in order, as ``evaluation.run_episodes`` does: one
``run_episode`` each, then one ``eliminate_and_refresh``.  The two are
timed apart, because refresh re-covers the training goals only on every
``refresh_period``-th call.  The result is one JSON document on standard
output; its transcript digest shows whether two versions of the engine
solved the same episodes the same way.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowsmith import corpus  # noqa: E402
from flowsmith.agents import build_agents, eliminate_and_refresh  # noqa: E402
from flowsmith.evaluation import run_episode, transcripts_text  # noqa: E402
from flowsmith.orchestrator import SolveConfig  # noqa: E402

SEED = 7
POOL_SIZES = (1600, 6400)
GOALS_PER_STRUCTURE = 25


def ms_summary(seconds: list[float]) -> dict:
    ms = [1000.0 * s for s in seconds]
    return {"p50": round(statistics.median(ms), 3), "mean": round(statistics.fmean(ms), 3)}


def measure(size: int) -> dict:
    train = corpus.generate(corpus.default_profile(total=size), SEED)
    goals = [record for structure in ("linear", "nested")
             for record in corpus.make_novel_goals(train, SEED, GOALS_PER_STRUCTURE,
                                                   (2, 3), structure)]
    net = build_agents([(r.goal, r.workflow) for r in train])
    config = SolveConfig(seed=SEED)
    episodes, episode_s, refresh_s = [], [], []
    for record in goals:
        start = perf_counter()
        episodes.append(run_episode(net, record, config))
        middle = perf_counter()
        eliminate_and_refresh(net)
        episode_s.append(middle - start)
        refresh_s.append(perf_counter() - middle)
    return {
        "train_agents": size,
        "episodes": len(episodes),
        "passed_at_rank_1": sum(item.episode.passed_rank() == 1 for item in episodes),
        "episode_ms": ms_summary(episode_s),
        "refresh_ms": ms_summary(refresh_s),
        "transcripts_sha256": hashlib.sha256(transcripts_text(episodes).encode()).hexdigest(),
    }


if __name__ == "__main__":
    print(json.dumps({
        "seed": SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pools": [measure(size) for size in POOL_SIZES],
    }, indent=2))
