#!/usr/bin/env python3
"""Cost of corpus set-up per stage, for each benchmark workload, seed 7.

Run from the repository root:

    python3 bench/setup_cost.py [--reps N]

Each workload's inputs are those of ``perfbench/workloads.py``, built
the way its ``write_inputs`` builds them and then read back the way
``evaluation.run_experiment`` reads them.  The stages are timed one
after another: ``corpus.generate``, ``corpus.split``, every
``corpus.make_novel_goals`` call, ``corpus.save_corpus`` of both files,
``corpus.load_corpus`` of the training file (oracle stripped) and of the
test file, and ``agents.build_agents`` over the loaded training records.
Each stage's figure is the median ms over ``--reps`` set-ups (default 7).

For each loaded file it also counts the task documents the file holds,
how many of them are distinct, and how many distinct ``TaskNode``
objects the loaded records hold.  The counts repeat exactly from run to
run; the result is one JSON document on standard output.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from flowsmith import corpus  # noqa: E402
from flowsmith import workflow as wf  # noqa: E402
from flowsmith.agents import build_agents  # noqa: E402
from workloads import TRAIN_FRACTION, WORKLOADS  # noqa: E402

SEED = 7
STAGES = ("generate", "split", "make_novel_goals", "save", "load_train", "load_test",
          "build_agents")


def set_up(workload, directory: Path) -> tuple[dict, dict]:
    """One set-up of ``workload``: (stage -> seconds, file -> loaded records)."""
    seconds = {}
    start = perf_counter()

    def lap(stage: str) -> None:
        nonlocal start
        now = perf_counter()
        seconds[stage] = now - start
        start = now

    records = corpus.generate(workload.profile(workload.records), SEED)
    lap("generate")
    train, _ = corpus.split(records, TRAIN_FRACTION, SEED)
    lap("split")
    goals = []
    for structure, count, parts in workload.goal_groups():
        goals += corpus.make_novel_goals(train, SEED, count, (parts, parts), structure,
                                         id_prefix=f"{structure}-{parts}")
    lap("make_novel_goals")
    train_path, test_path = directory / "train.jsonl", directory / "test.jsonl"
    corpus.save_corpus(train, train_path)
    corpus.save_corpus(goals, test_path)
    lap("save")
    loaded_train = corpus.load_corpus(train_path, strip_oracle=True)
    lap("load_train")
    loaded_test = corpus.load_corpus(test_path)
    lap("load_test")
    build_agents([(r.goal, r.workflow) for r in loaded_train])
    lap("build_agents")
    return seconds, {"train": loaded_train, "test": loaded_test}


def task_counts(records: list) -> dict:
    """Task documents in the file, distinct ones, and distinct TaskNode objects."""
    tasks = [t for r in records for t in wf.task_order(r.workflow.root)]
    return {
        "task_documents": len(tasks),
        "distinct_task_documents": len({wf.canonical_json(wf.node_to_doc(t)) for t in tasks}),
        "task_node_objects": len({id(t) for t in tasks}),
    }


def measure(workload, reps: int) -> dict:
    samples = {stage: [] for stage in STAGES}
    with tempfile.TemporaryDirectory(prefix="setup_cost.") as tmp:
        for _ in range(reps):
            seconds, loaded = set_up(workload, Path(tmp))
            for stage in STAGES:
                samples[stage].append(seconds[stage])
    stages_ms = {stage: round(1000.0 * statistics.median(samples[stage]), 2)
                 for stage in STAGES}
    return {
        "stages_ms": stages_ms,
        "total_ms": round(sum(stages_ms.values()), 2),
        "files": {name: task_counts(records) for name, records in loaded.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
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
