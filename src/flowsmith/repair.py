"""Feedback-driven structural repair of failed candidate workflows.

A failed verdict is mapped to ordered failure hypotheses; each
hypothesis kind names one structural operator (``OPERATORS``): a
missing step inserts an agent's procedure, a missing branch attaches
a guarded side path, an over-abstraction re-decomposes a goal under a
Nest boundary, and a wrong order permutes siblings.  The loop starts
from the verdict the solve loop already holds, applies the first
applicable hypothesis, re-verifies, and insists on strict progress
(shrinking oracle edit script, or shrinking missing-output set) until
it passes, stalls, or the budget runs out.  Each applied repair is
recorded with the agent whose procedure it spliced in (none for a
reorder or a nest), so the solve loop rewards or penalises that agent
object directly; ``agents`` names the agents and goals to splice in.
A hypothesis that cannot be applied, because no agent or goal matches,
its location assumes an earlier edit that was skipped, the result
breaks dataflow or its re-decomposition fails, is skipped; no such
failure leaves the loop.  Every setting comes from the
episode's ``SolveConfig``.
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

_KIND_ORDER = {MISSING_STEP: 0, WRONG_ORDER: 1, MISSING_BRANCH: 2, OVER_ABSTRACTION: 3}

# Hypothesis kind -> the structural operator that repairs it.
OPERATORS = {MISSING_STEP: "Insert", WRONG_ORDER: "Reorder",
             MISSING_BRANCH: "Branch", OVER_ABSTRACTION: "Nest"}


@dataclass(frozen=True)
class FailureHypothesis:
    kind: str
    location: wf.Path
    # Fields to produce, a sub-goal id, or (wrong order) the children's permutation.
    needed: "frozenset[str] | str | tuple[int, ...] | None" = None


def _subtree_outputs(node: wf.WorkflowNode) -> frozenset[str]:
    fields: set[str] = set()
    for task in wf.task_order(node):
        fields |= set(task.output_schema)
    return frozenset(fields)


def _crosses_branch(root: wf.WorkflowNode, path: wf.Path) -> bool:
    node: wf.WorkflowNode = wf.Sequence(wf.child_list(root))
    for step in path[:-1]:
        if isinstance(node, wf.Branch):
            return True
        kids = wf.children_of(node)
        if not 0 <= step < len(kids):
            return False
        node = kids[step]
    return isinstance(node, wf.Branch)


def diagnose(verdict: Verdict, candidate: wf.Workflow, target) -> list[FailureHypothesis]:
    """Turn a failing verdict into ordered, actionable structural hypotheses.

    Oracle mode maps the edit script edit by edit (inserted Nest content
    reads as over-abstraction, insertions under or of a Branch as a
    missing branch, other insertions as missing steps, reorders as wrong
    order).  Extra-node edits have no counterpart in the hypothesis
    space and are skipped.  Goal-anchored mode emits one missing step
    per missing output field at the insertion frontier.
    """
    if verdict.passed:
        raise NotAFailure("diagnosis requires a failing verdict")

    hypotheses: list[FailureHypothesis] = []
    if verdict.mode == "oracle":
        cand_root = candidate.normal_root
        expected_root = target.normal_root
        if isinstance(expected_root, wf.Nest) and not isinstance(cand_root, wf.Nest):
            # The whole flow should live under a sub-workflow boundary.
            return [FailureHypothesis(OVER_ABSTRACTION, (), expected_root.sub_goal_id)]
        for edit in verdict.edit_script:
            if isinstance(edit, wf.ReorderChildren):
                hypotheses.append(FailureHypothesis(WRONG_ORDER, edit.path, edit.permutation))
            elif isinstance(edit, (wf.InsertNode, wf.ReplaceSubtree)):
                node = edit.node
                if isinstance(node, wf.Nest):
                    hypotheses.append(FailureHypothesis(OVER_ABSTRACTION, edit.path,
                                                        node.sub_goal_id))
                elif isinstance(edit, wf.InsertNode) and (
                    isinstance(node, wf.Branch) or _crosses_branch(cand_root, edit.path)
                ):
                    hypotheses.append(FailureHypothesis(MISSING_BRANCH, edit.path,
                                                        _subtree_outputs(node)))
                elif isinstance(edit, wf.InsertNode):
                    hypotheses.append(FailureHypothesis(MISSING_STEP, edit.path,
                                                        _subtree_outputs(node)))
                # ReplaceSubtree of non-Nest content is not expressible as a
                # single repair operator; leave it to later iterations.
    else:
        frontier = (len(wf.child_list(candidate.normal_root)),)
        for name in sorted(verdict.missing_outputs):
            hypotheses.append(FailureHypothesis(MISSING_STEP, frontier, frozenset({name})))
    hypotheses.sort(key=lambda h: (h.location, _KIND_ORDER[h.kind]))
    return hypotheses


def apply(candidate: wf.Workflow, hypothesis: FailureHypothesis, net: AgentNetwork,
          config: SolveConfig, rng: random.Random, *,
          goal: Goal | None = None) -> tuple[wf.Workflow, AtomicAgent | None]:
    """Apply one hypothesis; the result must validate or the repair is rejected.

    Returns the repaired workflow and the agent whose procedure was
    spliced in (Insert, Branch), or None for a reorder or a nest, whose
    content comes from the candidate or a fresh decomposition.  The
    spliced agent is drawn from the best producers of the needed fields.
    """
    agent = None
    if hypothesis.kind == MISSING_STEP:
        agent = select(best_producers(net, hypothesis.needed), rng, use_life=config.scale_control)
        edit = wf.InsertNode(hypothesis.location, agent.procedure.root)
        repaired = wf.apply_edits((edit,), candidate)
        repaired = repaired.replace(
            declared_outputs=repaired.declared_outputs | agent.goal.output_schema
        )
    elif hypothesis.kind == WRONG_ORDER:
        edit = wf.ReorderChildren(hypothesis.location, hypothesis.needed)
        repaired = wf.apply_edits((edit,), candidate)
    elif hypothesis.kind == MISSING_BRANCH:
        agent = select(best_producers(net, hypothesis.needed), rng, use_life=config.scale_control)
        predicate = wf.Predicate(key=sorted(hypothesis.needed)[0], op="exists")
        node = wf.Branch(predicate, agent.procedure.root, None)
        repaired = wf.apply_edits((wf.InsertNode(hypothesis.location, node),), candidate)
    elif hypothesis.kind == OVER_ABSTRACTION:
        needed = hypothesis.needed
        resolved = goal if goal is not None and goal.id == needed else goal_named(net, needed)
        if resolved is None:
            raise NoEligibleAgent(f"no known goal with id {needed!r}")
        tree = decompose(net, resolved, config, rng)
        body = compose(tree)
        nest_node = wf.Nest(resolved.id, body.root)
        repaired = wf.apply_edits(
            (wf.ReplaceSubtree(hypothesis.location, nest_node),), candidate
        )
        repaired = repaired.replace(
            declared_outputs=repaired.declared_outputs | body.declared_outputs
        )
    else:
        raise RejectedRepair(f"unknown hypothesis kind {hypothesis.kind!r}")

    report = wf.validate(repaired)
    if not report.ok:
        raise RejectedRepair(
            f"{OPERATORS[hypothesis.kind]} at {list(hypothesis.location)} breaks dataflow: "
            + "; ".join(report.violations)
        )
    return repaired, agent


def _progress_metric(verdict: Verdict) -> int:
    if verdict.mode == "oracle":
        return len(verdict.edit_script)
    return len(verdict.missing_outputs)


def repair_loop(net: AgentNetwork, goal: Goal, candidate: wf.Workflow, verdict: Verdict,
                target, config: SolveConfig, rng: random.Random
                ) -> tuple[wf.Workflow, Verdict, list[RepairRecord], str]:
    """Diagnose / apply / verify for up to ``config.repair_budget`` iterations.

    ``verdict`` is the failing verdict of ``candidate`` against
    ``target`` (a passing one raises NotAFailure); only a repaired
    candidate is verified again.  Returns the last candidate, its
    verdict, the trace of applied repairs and why the loop stopped:
    ``"passed"``; ``"stalled"`` when no hypothesis applies or an
    iteration fails to strictly shrink the oracle edit script (or the
    missing-output set); ``"budget"`` when the budget is spent first.
    """
    if config.repair_budget < 1:
        raise ValueError("repair budget must be >= 1")

    trace: list[RepairRecord] = []
    last_metric = _progress_metric(verdict)

    for _ in range(config.repair_budget):
        applied = None
        for hypothesis in diagnose(verdict, candidate, target):
            try:
                repaired, agent = apply(candidate, hypothesis, net, config, rng, goal=goal)
            except (BadPath, DecompositionFailure, NoEligibleAgent, RejectedRepair):
                continue
            applied = (hypothesis, agent, repaired)
            break
        if applied is None:
            return candidate, verdict, trace, "stalled"
        hypothesis, agent, candidate = applied
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
