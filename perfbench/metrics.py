"""Metric definitions: the end-to-end set, the per-layer set, and the
layer-split checks each workload must pass in a traced run.

Names, units and directions here are the single source for both the
printed results and BENCHMARK.json (see manifest.py).
"""

from __future__ import annotations

import statistics

from spans import Tracer

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = (
    ("episodes_per_s", "1/s", "higher", 0.25),
    ("solve_ms_p50", "ms", "lower", 0.25),
    ("solve_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_at_1", "ratio", "higher", 0.25),
    ("pass_at_5", "ratio", "higher", 0.25),
)

# (name, unit, better), measured in the traced repetition.
PER_LAYER = (
    ("corpus.generate.s", "s", "lower"),
    ("corpus.save_corpus.s", "s", "lower"),
    ("corpus.load_corpus.s", "s", "lower"),
    ("agents.build_agents.s", "s", "lower"),
    ("agents.eliminate_and_refresh.calls", "count", "lower"),
    ("agents.eliminate_and_refresh.self_s", "s", "lower"),
    ("agents.retrieve.calls", "count", "lower"),
    ("agents.retrieve.self_s", "s", "lower"),
    ("agents.retrieve.hit_ratio", "ratio", "higher"),
    ("goals.similarity.calls_per_episode", "1/episode", "lower"),
    ("agents.membership_changes", "count", "lower"),
    ("agents.select.calls", "count", "lower"),
    ("agents.update_life.calls", "count", "lower"),
    ("orchestrator.decompose.calls", "count", "lower"),
    ("orchestrator.decompose.self_s", "s", "lower"),
    ("orchestrator.candidates_per_episode", "1/episode", "lower"),
    ("orchestrator.verify.self_s", "s", "lower"),
    ("orchestrator.compose.self_s", "s", "lower"),
    ("repair.repair_loop.calls", "count", "lower"),
    ("repair.repair_loop.self_s", "s", "lower"),
    ("repair.repair_loop.share", "ratio", "lower"),
    ("repair.success_ratio", "ratio", "higher"),
    ("repair.apply.calls", "count", "lower"),
    ("repair.apply.rejected_ratio", "ratio", "lower"),
    ("repair.diagnose.self_s", "s", "lower"),
    ("workflow.diff.calls", "count", "lower"),
    ("workflow.diff.self_s", "s", "lower"),
    ("workflow.validate.calls", "count", "lower"),
    ("workflow.validate.self_s", "s", "lower"),
    ("agents.refresh_retrieve.share", "ratio", "lower"),
    ("evaluation.solve_phase_s", "s", "lower"),
    ("evaluation.write_atomic.s", "s", "lower"),
    ("evaluation.tracing_overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def end_to_end(reps, setups: list[float], peak_rss_mb: float) -> dict:
    """End-to-end metrics of one untraced run.

    Every repetition replays the same episodes and refresh calls from
    the same state, so each one's fastest repetition is its time with
    the least interference from other processes on a shared machine.
    Episode percentiles are over those best times; refresh runs between
    episodes and stays out of them.  The solve phase is the sum of the
    best episode and refresh times plus the loop's own median remainder.
    """
    best_episode = [min(times) for times in zip(*(r.episode_s for r in reps))]
    best_refresh = [min(times) for times in zip(*(r.refresh_s for r in reps))]
    remainder = statistics.median(
        r.solve_s - sum(r.episode_s) - sum(r.refresh_s) for r in reps)
    solve_s = sum(best_episode) + sum(best_refresh) + remainder
    return {
        "episodes_per_s": len(best_episode) / solve_s,
        "solve_ms_p50": 1000.0 * statistics.median(best_episode),
        "solve_ms_p90": 1000.0 * statistics.quantiles(best_episode, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "pass_at_1": reps[0].pass_at_1,
        "pass_at_5": reps[0].pass_at_5,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer: Tracer, episodes: int, overhead_s: float) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(layer):
        return totals.get(layer, (0, 0.0, 0.0))[0]

    def inclusive(layer):
        return totals.get(layer, (0, 0.0, 0.0))[1]

    def self_s(layer):
        return totals.get(layer, (0, 0.0, 0.0))[2]

    solve = inclusive("evaluation.run_episodes")
    return {
        "corpus.generate.s": inclusive("corpus.generate"),
        "corpus.save_corpus.s": inclusive("corpus.save_corpus"),
        "corpus.load_corpus.s": inclusive("corpus.load_corpus"),
        "agents.build_agents.s": inclusive("agents.build_agents"),
        "agents.eliminate_and_refresh.calls": calls("agents.eliminate_and_refresh"),
        "agents.eliminate_and_refresh.self_s": self_s("agents.eliminate_and_refresh"),
        "agents.retrieve.calls": calls("agents.retrieve"),
        "agents.retrieve.self_s": self_s("agents.retrieve"),
        "agents.retrieve.hit_ratio": _ratio(counts["agents.retrieve.returned"],
                                            counts["agents.retrieve.scanned"]),
        "goals.similarity.calls_per_episode": _ratio(counts["goals.similarity"], episodes),
        "agents.membership_changes": counts["agents.membership_changes"],
        "agents.select.calls": counts["agents.select"],
        "agents.update_life.calls": counts["agents.update_life"],
        "orchestrator.decompose.calls": calls("orchestrator.decompose"),
        "orchestrator.decompose.self_s": self_s("orchestrator.decompose"),
        "orchestrator.candidates_per_episode": _ratio(counts["orchestrator.candidates"],
                                                      episodes),
        "orchestrator.verify.self_s": self_s("orchestrator.verify"),
        "orchestrator.compose.self_s": self_s("orchestrator.compose"),
        "repair.repair_loop.calls": calls("repair.repair_loop"),
        "repair.repair_loop.self_s": self_s("repair.repair_loop"),
        "repair.repair_loop.share": _ratio(inclusive("repair.repair_loop"), solve),
        "repair.success_ratio": _ratio(counts["repair.repair_loop.passed"],
                                       calls("repair.repair_loop")),
        "repair.apply.calls": calls("repair.apply"),
        "repair.apply.rejected_ratio": _ratio(counts["repair.apply.raised"],
                                              calls("repair.apply")),
        "repair.diagnose.self_s": self_s("repair.diagnose"),
        "workflow.diff.calls": calls("workflow.diff"),
        "workflow.diff.self_s": self_s("workflow.diff"),
        "workflow.validate.calls": calls("workflow.validate"),
        "workflow.validate.self_s": self_s("workflow.validate"),
        "agents.refresh_retrieve.share": _ratio(
            self_s("agents.eliminate_and_refresh") + self_s("agents.retrieve"), solve),
        "evaluation.solve_phase_s": solve,
        "evaluation.write_atomic.s": inclusive("evaluation.write_atomic"),
        "evaluation.tracing_overhead_s": overhead_s,
    }


# What each workload claims to stress, as counts that hold however fast the
# layers are: a generator change that turns one workload into another fails
# its traced run.  Each check maps (per-layer metrics, tracer, episodes) to
# True when it holds.
SPLIT_CHECKS = {
    "scan": (
        ("retrieve scans at least 500 active agents per call",
         lambda m, t, n: t.counts["agents.retrieve.scanned"] >= 500 * m["agents.retrieve.calls"]),
        ("at least 10000 similarity calls per episode",
         lambda m, t, n: m["goals.similarity.calls_per_episode"] >= 10000),
    ),
    "repair": (
        ("at least 0.9 repair loops per episode",
         lambda m, t, n: m["repair.repair_loop.calls"] >= 0.9 * n),
        ("retrieve scans at most 200 active agents per call",
         lambda m, t, n: t.counts["agents.retrieve.scanned"] <= 200 * m["agents.retrieve.calls"]),
    ),
    "churn": (
        ("zero repair loops",
         lambda m, t, n: m["repair.repair_loop.calls"] == 0),
        ("more than 100 membership changes",
         lambda m, t, n: m["agents.membership_changes"] > 100),
    ),
}

# Timing shares this code is predicted to show.  They are printed, not
# enforced: an optimisation of a layer is meant to change them.
PREDICTIONS = {
    "scan": ("refresh + retrieve self time is the majority of the solve phase",
             lambda m: m["agents.refresh_retrieve.share"] > 0.5),
    "repair": ("repair_loop takes at least a quarter of the solve phase",
               lambda m: m["repair.repair_loop.share"] >= 0.25),
    "churn": ("refresh + retrieve self time is at least a quarter of the solve phase",
              lambda m: m["agents.refresh_retrieve.share"] >= 0.25),
}
