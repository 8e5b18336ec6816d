#!/usr/bin/env python3
"""Solving goals against an agent pool, with structural repair on failure.

Generates a small synthetic corpus, builds one agent per record, then
solves a trained goal (exact recall), a novel linear composite (order
repair), and a novel nested composite (nest + order repair), printing
the decision trail.  Run directly: python3 demos/02_solve_and_repair.py
"""

from flowsmith import corpus as cp
from flowsmith import workflow as wf
from flowsmith.agents import build_agents
from flowsmith.orchestrator import SolveConfig, solve

profile = cp.CorpusProfile(
    total=40,
    node_histogram={1: 0.6, 2: 0.25, 3: 0.15},
    depth_histogram={0: 0.85, 1: 0.15},
    tool_vocab_size=16,
)
records = cp.generate(profile, seed=11)
net = build_agents([(r.goal, r.workflow) for r in records])
config = SolveConfig(seed=42, repair_budget=5)

print(f"pool: {len(net.active)} agents over {profile.tool_vocab_size} tools")

print("\n== trained goal: direct retrieval, no repair ==")
record = records[0]
episode = solve(net, record.goal, config, expected=record.workflow)
print(f"goal {record.goal.id}: pass at rank {episode.passed_rank()}, "
      f"repairs {sum(len(rank.repairs) for rank in episode.ranks)}")

print("\n== novel linear composite: retrieval misses, decomposition + reorder ==")
novel = cp.make_novel_goals(records, seed=12, count=3, parts_range=(3, 3))
for rec in novel:
    episode = solve(net, rec.goal, config, expected=rec.workflow)
    trail = [f"{r.hypothesis}->{r.action}" for rank in episode.ranks for r in rank.repairs]
    print(f"goal {rec.goal.id} (parts {list(rec.goal.subgoal_template)}): "
          f"pass at rank {episode.passed_rank()}, repairs {trail or 'none'}")

print("\n== novel nested composite: over-abstraction repair wraps the flow ==")
nested = cp.make_novel_goals(records, seed=13, count=2, parts_range=(2, 3),
                             structure="nested")
for rec in nested:
    episode = solve(net, rec.goal, config, expected=rec.workflow)
    trail = [f"{r.hypothesis}->{r.action}" for rank in episode.ranks for r in rank.repairs]
    final = episode.ranks[-1].candidate
    print(f"goal {rec.goal.id}: pass at rank {episode.passed_rank()}, "
          f"depth {wf.node_metrics(final.root).depth}, repairs {trail}")

print("\n== the same novel goal without structural hypotheses ==")
blocked = SolveConfig(seed=42, hypothesis=False)
episode = solve(net, novel[0].goal, blocked, expected=novel[0].workflow)
print(f"goal {novel[0].goal.id}: early failure {episode.early_failure}, "
      f"candidates {len(episode.ranks)}")

print("\n== rewards issued on the passing path ==")
episode = solve(net, novel[0].goal, config, expected=novel[0].workflow)
for agent, outcome in episode.ranks[-1].outcomes:
    print(f"  {agent.agent_id}: correct={outcome.r_correct} general={outcome.r_general}")
