"""Output checks and the solution digest of one evaluation run.

The digest hashes only what defines the run's behaviour: per episode the
candidate workflows, their verdicts, the repairs and the life outcomes;
the pass@k table; the life summary and the runtime totals.  Each record
is projected onto the keys named below, so counters added to
transcripts or reports later do not change it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from flowsmith import corpus
from flowsmith import workflow as wf

EPISODE_KEYS = ("goal_id", "bucket", "early_failure", "steps")
VERDICT_KEYS = ("passed", "score", "mode", "edit_count", "missing_outputs", "dead_node_ratio")
REPAIR_KEYS = ("hypothesis", "location", "action", "agent_id", "score")
OUTCOME_KEYS = ("r_correct", "r_reuse", "r_general", "p_fail", "p_drift", "p_redundant")
RUNTIME_KEYS = ("episodes", "solver_steps", "repairs", "early_failures")


def _pick(doc: dict, keys) -> dict:
    return {key: doc[key] for key in keys}


def _episode_core(doc: dict) -> dict:
    core = _pick(doc, EPISODE_KEYS)
    core["candidates"] = [
        {"workflow": c["workflow"], "verdict": _pick(c["verdict"], VERDICT_KEYS)}
        for c in doc["candidates"]
    ]
    core["repairs"] = [_pick(r, REPAIR_KEYS) for r in doc["repairs"]]
    core["outcomes"] = [[agent, _pick(o, OUTCOME_KEYS)] for agent, o in doc["outcomes"]]
    return core


def solution_digest(episodes: list[dict], report: dict) -> str:
    core = {
        "episodes": [_episode_core(doc) for doc in episodes],
        "per_bucket": report["per_bucket"],
        "life_summary": report["life_summary"],
        "runtime": _pick(report["runtime"], RUNTIME_KEYS),
    }
    return hashlib.sha256(wf.canonical_json(core).encode("utf-8")).hexdigest()


def passed_rank(doc: dict) -> int | None:
    for rank, candidate in enumerate(doc["candidates"], start=1):
        if candidate["verdict"]["passed"]:
            return rank
    return None


def overall_pass_at(episodes: list[dict], k: int) -> float:
    ranks = [passed_rank(doc) for doc in episodes]
    return sum(1 for r in ranks if r is not None and r <= k) / len(episodes)


def check_run(test_path: Path, transcripts_path: Path, report_path: Path,
              k_list: tuple[int, ...]) -> tuple[list[dict], dict, list[str]]:
    """Read a run's outputs and check them against its inputs.

    Returns (episode docs, report doc, problems); an empty problem list
    means the outputs are consistent: one episode per goal in input
    order, every verdict agreeing with structural equality to the
    expected workflow, and a pass@k table that matches the transcripts.
    """
    goals = corpus.load_corpus(test_path)
    with open(transcripts_path, "r", encoding="utf-8") as handle:
        episodes = [json.loads(line) for line in handle if line.strip()]
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)

    problems: list[str] = []
    if [d["goal_id"] for d in episodes] != [r.goal.id for r in goals]:
        return episodes, report, ["transcripts do not list one episode per goal in order"]
    if report["runtime"]["episodes"] != len(goals):
        problems.append("report episode count differs from the goal count")
    for record, doc in zip(goals, episodes):
        if len(doc["candidates"]) > max(k_list):
            problems.append(f"{record.goal.id}: more than {max(k_list)} candidates")
        for candidate in doc["candidates"]:
            equal = wf.structurally_equal(wf.from_doc(candidate["workflow"]), record.workflow)
            if candidate["verdict"]["passed"] != equal:
                problems.append(f"{record.goal.id}: verdict disagrees with the expected workflow")

    buckets: dict[str, list[int | None]] = {}
    for record, doc in zip(goals, episodes):
        buckets.setdefault(record.bucket, []).append(passed_rank(doc))
    table = {
        bucket: {str(k): sum(1 for r in ranks if r is not None and r <= k) / len(ranks)
                 for k in k_list}
        for bucket, ranks in buckets.items()
    }
    if table != report["per_bucket"]:
        problems.append("report pass@k table does not match the transcripts")
    return episodes, report, problems
