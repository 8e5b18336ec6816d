"""Shared fixtures and independent test oracles.

The oracles here are deliberately written from scratch against the
documented contracts (recursive-descent validation, hand traversal
metrics, evaluate-and-prune, brute-force edit enumeration) so library
code is never used to check itself.
"""

from __future__ import annotations

import gc
import itertools
import random

import pytest

from flowsmith import corpus as cp
from flowsmith import workflow as wf
from flowsmith.agents import LifeConfig, build_agents
from flowsmith.goals import Goal


# --- builders -----------------------------------------------------------------


def mk_task(tool: str, ins=(), outs=(), params=()) -> wf.TaskNode:
    return wf.TaskNode(tool_id=tool, input_schema=frozenset(ins),
                       output_schema=frozenset(outs), params=params)


def mk_flow(nodes, ins=(), outs=(), wid="", gid="") -> wf.Workflow:
    root = nodes if not isinstance(nodes, (list, tuple)) else wf.Sequence(tuple(nodes))
    return wf.Workflow(root=root, declared_inputs=frozenset(ins),
                       declared_outputs=frozenset(outs), id=wid, goal_id=gid)


def chain_tasks(indices) -> list[wf.TaskNode]:
    """Tool k consumes o{k-1} (or 'seed') and produces o{k}: easy chains."""
    tasks = []
    for k in indices:
        need = {"seed"} if k == 0 else {f"o{k - 1}"}
        tasks.append(mk_task(f"t{k:02d}", need, {f"o{k}"}))
    return tasks


def chain_flow(indices, wid="", gid="") -> wf.Workflow:
    tasks = chain_tasks(indices)
    return mk_flow(
        tasks,
        ins=cp.unbound_inputs(tasks),
        outs=set().union(*(t.output_schema for t in tasks)),
        wid=wid, gid=gid,
    )


def chain_pool(size: int, life: LifeConfig | None = None):
    """A network of one-task agents over the chain-tool vocabulary."""
    dataset = []
    for k in range(size):
        flow = chain_flow([k], wid=f"w{k}", gid=f"g{k}")
        goal = Goal(
            id=f"g{k}",
            tokens=frozenset({f"g{k}:a", f"g{k}:b", f"g{k}:c"}),
            input_schema=flow.declared_inputs,
            output_schema=flow.declared_outputs,
        )
        dataset.append((goal, flow.replace(goal_id=goal.id)))
    return build_agents(dataset, config=life)


def agent_named(net, agent_id: str):
    """The active or archived agent with this id."""
    return next(a for a in net.active + net.archive if a.agent_id == agent_id)


def outcome_ids(episode) -> list[list[tuple[str, object]]]:
    """Each rank's outcomes as (agent id, outcome) pairs."""
    return [[(agent.agent_id, o) for agent, o in rank.outcomes] for rank in episode.ranks]


def cyclic_garbage(call, times: int = 100) -> int:
    """How many objects ``times`` calls of ``call`` leave for the cyclic collector."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(times):
            call()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# --- independent oracles ---------------------------------------------------------


def oracle_validate(flow: wf.Workflow) -> bool:
    """Recursive-descent dataflow check written independently of the library."""

    def walk(node, scope):
        if isinstance(node, wf.TaskNode):
            if not set(node.input_schema) <= scope:
                return None
            return scope | set(node.output_schema)
        if isinstance(node, wf.Sequence):
            current = scope
            for child in node.children:
                current = walk(child, current)
                if current is None:
                    return None
            return current
        if isinstance(node, wf.Branch):
            then_scope = walk(node.then, scope)
            if then_scope is None:
                return None
            if node.orelse is None:
                return scope
            else_scope = walk(node.orelse, scope)
            if else_scope is None:
                return None
            return scope | (then_scope & else_scope)
        inner = walk(node.body, scope)
        return inner

    return walk(flow.root, set(flow.declared_inputs)) is not None


def oracle_metrics(node) -> tuple[int, int, int]:
    """(#tasks, max nest depth, #branches) by explicit traversal."""
    if isinstance(node, wf.TaskNode):
        return 1, 0, 0
    if isinstance(node, wf.Sequence):
        parts = [oracle_metrics(c) for c in node.children]
        return (sum(p[0] for p in parts),
                max((p[1] for p in parts), default=0),
                sum(p[2] for p in parts))
    if isinstance(node, wf.Branch):
        t = oracle_metrics(node.then)
        e = oracle_metrics(node.orelse) if node.orelse is not None else (0, 0, 0)
        return t[0] + e[0], max(t[1], e[1]), t[2] + e[2] + 1
    b = oracle_metrics(node.body)
    return b[0], b[1] + 1, b[2]


def oracle_task_tools(node) -> list[str]:
    return [t.tool_id for t in wf.task_order(node)]


def _guard_holds(cond: wf.Predicate, context: dict) -> bool:
    """A branch guard's truth over context fields, by its documented op."""
    if cond.op == "equals":
        return context.get(cond.key) == cond.value
    if cond.op == "exists":
        return cond.key in context
    return cond.key not in context


def prune_branches(node, context: dict):
    """Evaluate-and-prune oracle: drop branch arms whose guard is false."""
    if isinstance(node, wf.TaskNode):
        return node
    if isinstance(node, wf.Sequence):
        kept = []
        for child in node.children:
            pruned = prune_branches(child, context)
            if pruned is not None:
                kept.append(pruned)
        return wf.Sequence(tuple(kept))
    if isinstance(node, wf.Branch):
        if _guard_holds(node.cond, context):
            return prune_branches(node.then, context)
        if node.orelse is not None:
            return prune_branches(node.orelse, context)
        return None
    body = prune_branches(node.body, context)
    return wf.Nest(node.sub_goal_id, body) if body is not None else None


def oracle_equal(a: wf.WorkflowNode, b: wf.WorkflowNode) -> bool:
    """Structural equality re-derived from the documented normal form:
    splice nested sequences, drop empties, collapse singletons, then
    compare ordered trees."""

    def canon(node):
        if isinstance(node, wf.TaskNode):
            return ("task", node.tool_id, tuple(sorted(node.input_schema)),
                    tuple(sorted(node.output_schema)), node.params)
        if isinstance(node, wf.Nest):
            return ("nest", node.sub_goal_id, canon(node.body))
        if isinstance(node, wf.Branch):
            alt = canon(node.orelse) if node.orelse is not None else None
            return ("branch", node.cond.key, node.cond.op, node.cond.value,
                    canon(node.then), alt)
        items = []
        for child in node.children:
            c = canon(child)
            if c[0] == "seq":
                items.extend(c[1])
            else:
                items.append(c)
        if len(items) == 1:
            return items[0]
        return ("seq", tuple(items))

    return canon(a) == canon(b)


def enumerate_single_edits(flow: wf.Workflow, insertables) -> list[wf.Workflow]:
    """All flows one insertion or one adjacent transposition away."""
    base = list(wf.child_list(wf.normalize_node(flow.root)))
    variants = []
    for pos in range(len(base) + 1):
        for node in insertables:
            variants.append(mk_flow(base[:pos] + [node] + base[pos:],
                                    ins=flow.declared_inputs,
                                    outs=flow.declared_outputs))
    for pos in range(len(base) - 1):
        swapped = list(base)
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        variants.append(mk_flow(swapped, ins=flow.declared_inputs,
                                outs=flow.declared_outputs))
    return variants


# --- random flows for property checks ----------------------------------------------


def random_flow(rng: random.Random, max_tasks: int = 6, max_depth: int = 2,
                allow_branch: bool = True) -> wf.Workflow:
    n = rng.randint(1, max_tasks)
    indices = [rng.randrange(0, 10) for _ in range(n)]
    tasks = chain_tasks(indices)

    def structure(items, depth):
        if depth > 0 and len(items) >= 2 and rng.random() < 0.5:
            a = rng.randrange(0, len(items))
            b = rng.randrange(a + 1, len(items) + 1)
            inner = structure(items[a:b], depth - 1)
            items = items[:a] + [wf.Nest(f"sub{depth}", inner)] + items[b:]
        if allow_branch and rng.random() < 0.25:
            guard = wf.Predicate("seed", "exists")
            items = items + [wf.Branch(guard, mk_task("t99", {"seed"}, {"alt"}), None)]
        return wf.Sequence(tuple(items)) if len(items) != 1 else items[0]

    root = structure(list(tasks), max_depth)
    return wf.Workflow(
        root=root,
        declared_inputs=cp.unbound_inputs(list(wf.task_order(root))),
        declared_outputs=frozenset().union(*(t.output_schema for t in wf.task_order(root))),
    )


def corpus_flows(count: int, seed: int, min_nodes: int = 1) -> list[wf.Workflow]:
    profile = cp.CorpusProfile(
        total=count,
        node_histogram={2: 0.3, 3: 0.3, 4: 0.2, 5: 0.1, 6: 0.1} if min_nodes > 1
        else {1: 0.3, 2: 0.2, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.05},
        depth_histogram={0: 0.6, 1: 0.3, 2: 0.1},
        tool_vocab_size=24,
    )
    return [r.workflow for r in cp.generate(profile, seed)]


# --- common fixtures ---------------------------------------------------------------


@pytest.fixture(scope="session")
def small_corpus():
    profile = cp.CorpusProfile(
        total=80,
        node_histogram={1: 0.55, 2: 0.2, 3: 0.15, 4: 0.1},
        depth_histogram={0: 0.75, 1: 0.2, 2: 0.05},
        tool_vocab_size=20,
    )
    return cp.generate(profile, seed=101)


@pytest.fixture(scope="session")
def trained_net(small_corpus):
    return build_agents([(r.goal, r.workflow) for r in small_corpus])
