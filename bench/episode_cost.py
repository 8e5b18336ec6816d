#!/usr/bin/env python3
"""Cost of one episode on each benchmark workload, seed 7.

Run from the repository root:

    python3 bench/episode_cost.py [--src DIR] [--reps N]

``--src`` names the directory flowsmith is imported from (default: this
checkout's ``src``), so one copy of the script measures two commits on
the same inputs.  Each workload's inputs are those of
``perfbench/workloads.py``: written from the seed by its
``write_inputs`` and run by ``evaluation.run_experiment`` with its
``experiment`` settings, as ``perfbench/run.py`` runs them.

The timed passes run the experiment ``--reps`` times (default 5) and
time every ``run_episode`` call.  Each episode keeps its best time over
the passes; the median, p90 and sum of those best times are reported in
ms.  One more pass counts, inside ``run_episode`` calls only (set-up and
refresh are not counted), the walks of a workflow tree: top-level calls
of ``workflow.normalize_node``, ``task_order``, ``produced_fields`` and
``dataflow_violations`` (a call from inside the same function is not a
new walk).  It also counts the ``retrieve`` and ``cover_split`` calls of
the solve loop and how many of them the pool answered from its read
memo, which a call that leaves the memo's size unchanged is; a pool
without a memo answers none.  And it counts the ``decompose``,
``compose`` and ``verify`` calls, at both the ``orchestrator`` and the
``repair`` attributes, the rng seedings of the solve loop (calls of
``orchestrator.derive_seed``), the ``workflow.dead_node_ratio`` calls
(and, apart, those made while the pass encodes its transcript in
``evaluation.transcripts_text``, where a failing rank's candidate walks)
and the ``agents.similarity`` calls (those of ``retrieve`` and, in a
source whose ``compatibility`` scores again, of ``compatibility``; the
refresh runs outside ``run_episode``).  And it counts the ranks whose repair
loop stopped for each reason (``passed``, ``stalled``, ``budget``), read
from each ``orchestrator.Rank``'s ``stop``; a source without ``Rank``
reports no such counts.  Each count is divided by the episodes.
The counts repeat exactly from run to run.  The timed passes also time
the ``evaluation.transcripts_text`` call of each experiment, which
encodes the transcript, by encoding that pass's episodes 25 times; the
best of those times over the passes is reported in ms.  The result is
one JSON document on standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
ENCODES = 25  # encodes of each pass's episodes; one encode's time spreads too widely
WALKS = ("normalize_node", "task_order", "produced_fields", "dataflow_violations")
READS = ("retrieve", "cover_split")
CALLS = ("decompose", "compose", "verify")
STOPS = ("passed", "stalled", "budget")


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


def walk_counter(fn, name: str, counts: Counter, inside: list):
    depth = 0

    def wrapper(*args, **kwargs):
        nonlocal depth
        if inside[0] and not depth:
            counts[name] += 1
        depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            depth -= 1
    return wrapper


def read_counter(fn, name: str, counts: Counter):
    def wrapper(net, *args, **kwargs):
        memo = getattr(net, "read_memo", None)
        size = len(memo) if memo is not None else None
        result = fn(net, *args, **kwargs)
        counts[f"{name}_calls"] += 1
        if memo is not None and len(memo) == size:
            counts[f"{name}_from_memo"] += 1
        return result
    return wrapper


def run(workload, directory: Path, sites: dict) -> None:
    from flowsmith import evaluation

    train, test = workload.write_inputs(SEED, directory)
    gc.collect()
    with patched(sites):
        evaluation.run_experiment(workload.experiment(SEED, train, test, directory))


def measure(workload, reps: int) -> dict:
    from flowsmith import agents, evaluation, orchestrator, repair
    from flowsmith import workflow as wf

    run_episode = evaluation.run_episode
    transcripts_text = evaluation.transcripts_text
    best: dict[str, float] = {}
    encode_s: list[float] = []

    def timed_episode(net, record, solve_cfg):
        start = perf_counter()
        result = run_episode(net, record, solve_cfg)
        elapsed = perf_counter() - start
        best[record.goal.id] = min(elapsed, best.get(record.goal.id, elapsed))
        return result

    def timed_transcripts(episodes):
        for _ in range(ENCODES):
            start = perf_counter()
            text = transcripts_text(episodes)
            encode_s.append(perf_counter() - start)
        return text

    counts: Counter = Counter()
    inside = [False]  # whether a run_episode call is under way
    encoding = [False]  # whether a transcripts_text call is under way

    def counted_episode(net, record, solve_cfg):
        inside[0] = True
        try:
            result = run_episode(net, record, solve_cfg)
        finally:
            inside[0] = False
        counts.update(f"stop_{rank.stop}" for rank in getattr(result.episode, "ranks", ()))
        return result

    def counted_transcripts(episodes):
        encoding[0] = True
        try:
            return transcripts_text(episodes)
        finally:
            encoding[0] = False

    count_sites = {(wf, name): walk_counter(getattr(wf, name), name, counts, inside)
                   for name in WALKS}
    count_sites.update({(orchestrator, name): read_counter(getattr(orchestrator, name), name,
                                                           counts)
                        for name in READS})
    count_sites.update({(orchestrator, name): walk_counter(getattr(orchestrator, name), name,
                                                           counts, inside)
                        for name in CALLS})
    count_sites.update({(repair, name): walk_counter(getattr(repair, name), name, counts, inside)
                        for name in CALLS})
    count_sites[(orchestrator, "derive_seed")] = walk_counter(orchestrator.derive_seed,
                                                             "derive_seed", counts, inside)
    count_sites[(wf, "dead_node_ratio")] = walk_counter(
        walk_counter(wf.dead_node_ratio, "dead_node_ratio", counts, inside),
        "dead_node_ratio_encode", counts, encoding)
    count_sites[(agents, "similarity")] = walk_counter(agents.similarity, "similarity", counts,
                                                       inside)
    count_sites[(evaluation, "run_episode")] = counted_episode
    count_sites[(evaluation, "transcripts_text")] = counted_transcripts
    with tempfile.TemporaryDirectory(prefix="episode_cost.") as tmp:
        for _ in range(reps):
            run(workload, Path(tmp), {(evaluation, "run_episode"): timed_episode,
                                      (evaluation, "transcripts_text"): timed_transcripts})
        run(workload, Path(tmp), count_sites)
    ms = [1000.0 * s for s in best.values()]
    episodes = len(ms)
    return {
        "episodes": episodes,
        "best_run_episode_ms": {
            "median": round(statistics.median(ms), 4),
            "p90": round(statistics.quantiles(ms, n=10)[8], 4),
            "sum": round(sum(ms), 2),
        },
        "best_transcripts_text_ms": round(1000.0 * min(encode_s), 2),
        "per_episode": {
            **{f"{name}_walks": round(counts[name] / episodes, 3) for name in WALKS},
            **{key: round(counts[key] / episodes, 3)
               for name in READS for key in (f"{name}_calls", f"{name}_from_memo")},
            **{f"{name}_calls": round(counts[name] / episodes, 3) for name in CALLS},
            "rng_seedings": round(counts["derive_seed"] / episodes, 3),
            "dead_node_ratio_calls": round(counts["dead_node_ratio"] / episodes, 3),
            "dead_node_ratio_encode_calls": round(counts["dead_node_ratio_encode"] / episodes, 3),
            "similarity_calls": round(counts["similarity"] / episodes, 3),
            **{f"repair_stops_{stop}": round(counts[f"stop_{stop}"] / episodes, 3)
               for stop in STOPS if hasattr(orchestrator, "Rank")},
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory to import flowsmith from")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    print(json.dumps({
        "seed": SEED,
        "reps": args.reps,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {name: measure(workload, args.reps)
                      for name, workload in WORKLOADS.items()},
    }, indent=2))


if __name__ == "__main__":
    main()
