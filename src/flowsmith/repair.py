"""Feedback-driven structural repair of failed candidate workflows.

A failed verdict is mapped to one failure hypothesis for its first
fault, located in the candidate as it stands; each hypothesis kind
names one structural operator (``OPERATORS``): a missing step inserts
an agent's procedure, a missing branch attaches a guarded side path,
an over-abstraction puts a goal's decomposition under a Nest boundary,
and a wrong order permutes siblings.  A Nest of the episode's own goal
wraps the candidate being repaired, which is already a decomposition of
that goal; a Nest of any other goal decomposes it afresh.  The loop
starts from the verdict the solve loop already holds, applies the
hypothesis, re-verifies, and insists on strict progress (a shrinking
oracle edit script or missing-output set) until it passes, stalls, or
the budget runs out.
Each applied repair is recorded with the agent whose procedure it
spliced in (none for a reorder or a nest), so the solve loop rewards or
penalises that agent object directly; ``agents`` names the agents and
goals to splice in.  The loop stalls when the first fault has no
hypothesis (an extra or replaced node, which no operator removes) or
its hypothesis cannot be applied (no agent or goal matches, the result
breaks dataflow, or its re-decomposition fails).  Every setting comes
from the episode's ``SolveConfig``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import workflow as wf
from .agents import AgentNetwork, AtomicAgent, best_producers, goal_named, select
from .errors import BadPath, DecompositionFailure, NoEligibleAgent, NotAFailure, RejectedRepair
# ``similarity`` is unused here; the benchmark tracer counts its calls
# at this module attribute (perfbench/spans.py, COUNT_SITES).
from .goals import Goal, similarity
from .orchestrator import RepairRecord, SolveConfig, Verdict, compose, decompose, verify

MISSING_STEP = "MissingStep"
WRONG_ORDER = "WrongOrder"
MISSING_BRANCH = "MissingBranch"
OVER_ABSTRACTION = "OverAbstraction"

# Hypothesis kind -> the structural operator that repairs it.
OPERATORS = {MISSING_STEP: "Insert", WRONG_ORDER: "Reorder",
             MISSING_BRANCH: "Branch", OVER_ABSTRACTION: "Nest"}


@dataclass(frozen=True)
class FailureHypothesis:
    kind: str
    location: wf.Path
    # Fields to produce, a sub-goal id, or (wrong order) the children's permutation.
    needed: "frozenset[str] | str | tuple[int, ...] | None" = None


def diagnose(verdict: Verdict, candidate: wf.Workflow, target) -> FailureHypothesis | None:
    """The hypothesis for a failing verdict's first fault, located in
    ``candidate`` as it stands, or None when no operator can mend it.

    Oracle mode maps the first edit of the script: Nest content, inserted
    or in place of a node, reads as over-abstraction, an insertion of or under a Branch as a
    missing branch, any other insertion as a missing step, a reorder as
    wrong order.  A first edit that deletes a node or replaces it with
    non-Nest content gives None: no operator removes or replaces a node,
    so no later repair could make the candidate pass.  Goal-anchored mode
    gives one missing step at the insertion frontier that needs every
    missing output.
    """
    if verdict.passed:
        raise NotAFailure("diagnosis requires a failing verdict")

    cand_root = candidate.normal_root
    if verdict.mode != "oracle":
        if not verdict.missing_outputs:
            return None
        frontier = (len(wf.child_list(cand_root)),)
        return FailureHypothesis(MISSING_STEP, frontier, verdict.missing_outputs)
    expected_root = target.normal_root
    if isinstance(expected_root, wf.Nest) and not isinstance(cand_root, wf.Nest):
        # The whole flow should live under a sub-workflow boundary.
        return FailureHypothesis(OVER_ABSTRACTION, (), expected_root.sub_goal_id)
    edit = verdict.edit_script[0]
    if isinstance(edit, wf.ReorderChildren):
        return FailureHypothesis(WRONG_ORDER, edit.path, edit.permutation)
    if isinstance(edit, (wf.InsertNode, wf.ReplaceSubtree)) and isinstance(edit.node, wf.Nest):
        return FailureHypothesis(OVER_ABSTRACTION, edit.path, edit.node.sub_goal_id)
    if not isinstance(edit, wf.InsertNode):
        return None
    promoted = wf.Sequence(wf.child_list(cand_root))
    branch = isinstance(edit.node, wf.Branch) or any(
        isinstance(wf.node_at(promoted, edit.path[:depth]), wf.Branch)
        for depth in range(1, len(edit.path)))
    outputs = frozenset().union(*(task.output_schema for task in wf.task_order(edit.node)))
    return FailureHypothesis(MISSING_BRANCH if branch else MISSING_STEP, edit.path, outputs)


def apply(candidate: wf.Workflow, hypothesis: FailureHypothesis, net: AgentNetwork,
          config: SolveConfig, rng: random.Random, *, goal: Goal | None = None
          ) -> tuple[wf.Workflow, AtomicAgent | None]:
    """Apply one hypothesis; the result must validate or the repair is rejected.

    Returns the repaired workflow and the agent whose procedure was
    spliced in (Insert, Branch), or None for a reorder or a nest, whose
    content comes from the candidate or a decomposition.  The spliced
    agent is drawn from the best producers of the needed fields.  A Nest
    of ``goal`` takes ``candidate`` as its body, with no draw; a Nest of
    another goal decomposes that goal with ``rng``.
    """
    agent = None
    outputs: frozenset[str] = frozenset()  # declared outputs the repair adds
    if hypothesis.kind in (MISSING_STEP, MISSING_BRANCH):
        agent = select(best_producers(net, hypothesis.needed), rng, use_life=config.scale_control)
        node = agent.procedure.root
        if hypothesis.kind == MISSING_BRANCH:
            predicate = wf.Predicate(key=sorted(hypothesis.needed)[0], op="exists")
            node = wf.Branch(predicate, node, None)
        else:
            outputs = agent.goal.output_schema
        edit = wf.InsertNode(hypothesis.location, node)
    elif hypothesis.kind == WRONG_ORDER:
        edit = wf.ReorderChildren(hypothesis.location, hypothesis.needed)
    elif hypothesis.kind == OVER_ABSTRACTION:
        needed = hypothesis.needed
        if goal is not None and goal.id == needed:
            body = candidate
        else:
            resolved = goal_named(net, needed)
            if resolved is None:
                raise NoEligibleAgent(f"no known goal with id {needed!r}")
            body = compose(decompose(net, resolved, config, rng))
        edit = wf.ReplaceSubtree(hypothesis.location, wf.Nest(needed, body.root))
        outputs = body.declared_outputs
    else:
        raise RejectedRepair(f"unknown hypothesis kind {hypothesis.kind!r}")
    repaired = wf.apply_edits((edit,), candidate)
    if outputs:
        repaired = repaired.replace(declared_outputs=repaired.declared_outputs | outputs)

    report = wf.validate(repaired)
    if not report.ok:
        raise RejectedRepair(
            f"{OPERATORS[hypothesis.kind]} at {list(hypothesis.location)} breaks dataflow: "
            + "; ".join(report.violations)
        )
    return repaired, agent


def _progress_metric(verdict: Verdict) -> int:
    # One of the two is always empty: oracle verdicts carry only edits,
    # goal-anchored ones only missing outputs.
    return len(verdict.edit_script) + len(verdict.missing_outputs)


def repair_loop(net: AgentNetwork, goal: Goal, candidate: wf.Workflow, verdict: Verdict,
                target, config: SolveConfig, rng: random.Random
                ) -> tuple[wf.Workflow, Verdict, list[RepairRecord], str]:
    """Diagnose / apply / verify for up to ``config.repair_budget`` iterations.

    ``verdict`` is the failing verdict of ``candidate`` against
    ``target`` (a passing one raises NotAFailure); only a repaired
    candidate is verified again.  A Nest of ``goal`` wraps the candidate
    as it stands (see ``apply``).  Returns the last candidate, its
    verdict, the trace of applied repairs and why the loop stopped:
    ``"passed"``; ``"stalled"`` when the first fault has no hypothesis,
    its hypothesis does not apply, or an iteration fails to strictly
    shrink the fault count (oracle edits or missing outputs);
    ``"budget"`` when the budget is spent first.
    """
    if config.repair_budget < 1:
        raise ValueError("repair budget must be >= 1")

    trace: list[RepairRecord] = []
    last_metric = _progress_metric(verdict)

    for _ in range(config.repair_budget):
        hypothesis = diagnose(verdict, candidate, target)
        if hypothesis is None:
            return candidate, verdict, trace, "stalled"
        try:
            candidate, agent = apply(candidate, hypothesis, net, config, rng, goal=goal)
        except (BadPath, DecompositionFailure, NoEligibleAgent, RejectedRepair):
            return candidate, verdict, trace, "stalled"
        verdict = verify(candidate, target, config)
        trace.append(RepairRecord(
            hypothesis=hypothesis.kind, location=hypothesis.location,
            action=OPERATORS[hypothesis.kind], agent=agent, score=verdict.score,
        ))
        if verdict.passed:
            return candidate, verdict, trace, "passed"
        metric = _progress_metric(verdict)
        if metric >= last_metric:
            return candidate, verdict, trace, "stalled"
        last_metric = metric
    return candidate, verdict, trace, "budget"
