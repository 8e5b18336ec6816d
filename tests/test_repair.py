import random

import pytest

from flowsmith import corpus as cp
from flowsmith import workflow as wf
from flowsmith.agents import build_agents
from flowsmith.errors import NoEligibleAgent, NotAFailure, RejectedRepair
from flowsmith.goals import Goal
from flowsmith.orchestrator import SolveConfig, Verdict, solve, verify
from flowsmith.repair import (
    MISSING_BRANCH,
    MISSING_STEP,
    OVER_ABSTRACTION,
    WRONG_ORDER,
    FailureHypothesis,
    apply,
    diagnose,
    repair_loop,
)

from .conftest import (
    agent_named,
    chain_flow,
    chain_pool,
    chain_tasks,
    enumerate_single_edits,
    mk_flow,
    mk_task,
)


def _delete_task(flow: wf.Workflow, pos: int) -> wf.Workflow:
    kids = list(wf.child_list(wf.normalize_node(flow.root)))
    del kids[pos]
    return mk_flow(kids, ins=flow.declared_inputs, outs=flow.declared_outputs,
                   gid=flow.goal_id)


def _swap_adjacent(flow: wf.Workflow, pos: int) -> wf.Workflow:
    kids = list(wf.child_list(wf.normalize_node(flow.root)))
    kids[pos], kids[pos + 1] = kids[pos + 1], kids[pos]
    return mk_flow(kids, ins=flow.declared_inputs, outs=flow.declared_outputs,
                   gid=flow.goal_id)


def _flow_goal(flow: wf.Workflow, gid: str) -> Goal:
    return Goal(id=gid, tokens=frozenset({gid}),
                input_schema=flow.declared_inputs,
                output_schema=flow.declared_outputs)


# --- diagnose ----------------------------------------------------------------------


def test_diagnose_rejects_passing_verdict():
    flow = chain_flow([0])
    with pytest.raises(NotAFailure):
        diagnose(verify(flow, flow, SolveConfig(mode="oracle")), flow, flow)


def test_diagnose_deleted_task_maps_to_missing_step_at_path():
    expected = chain_flow([0, 1, 2])
    faulty = _delete_task(expected, 1)
    verdict = verify(faulty, expected, SolveConfig(mode="oracle"))
    hyp = diagnose(verdict, faulty, expected)
    assert hyp.kind == MISSING_STEP
    assert hyp.location == (1,)
    assert hyp.needed == frozenset({"o1"})


def test_diagnose_transposition_maps_to_wrong_order():
    expected = chain_flow([0, 1, 2])
    faulty = _swap_adjacent(expected, 0)
    verdict = verify(faulty, expected, SolveConfig(mode="oracle"))
    assert diagnose(verdict, faulty, expected).kind == WRONG_ORDER


def test_diagnose_missing_branch_subtree():
    host = chain_flow([0, 1])
    alt = chain_flow([5])
    expected = wf.branch(host, wf.Predicate(sorted(alt.declared_outputs)[0], "exists"), alt)
    verdict = verify(host.replace(declared_inputs=expected.declared_inputs),
                     expected, SolveConfig(mode="oracle"))
    hyp = diagnose(verdict, host, expected)
    assert hyp.kind == MISSING_BRANCH
    assert hyp.needed == alt.declared_outputs


def test_diagnose_insert_inside_a_branch_arm_maps_to_missing_branch():
    t00, t01, t02 = chain_tasks([0, 1, 2])
    cond = wf.Predicate("o0", "exists")
    expected = mk_flow([t00, wf.Branch(cond, wf.Sequence((t01, t02)))], ins={"seed"},
                       outs={"o0"})
    candidate = mk_flow([t00, wf.Branch(cond, t01)], ins={"seed"}, outs={"o0"})
    verdict = verify(candidate, expected)
    assert verdict.edit_script == (wf.InsertNode((1, 0, 1), t02),)
    hyp = diagnose(verdict, candidate, expected)
    assert (hyp.kind, hyp.location) == (MISSING_BRANCH, (1, 0, 1))


def test_diagnose_root_nest_maps_to_over_abstraction():
    flat = chain_flow([0, 1], gid="gnest")
    expected = wf.nest(flat, (), "gnest", flat)
    verdict = verify(flat, expected, SolveConfig(mode="oracle"))
    hyp = diagnose(verdict, flat, expected)
    assert hyp.kind == OVER_ABSTRACTION
    assert hyp.location == ()
    assert hyp.needed == "gnest"


def test_diagnose_goal_anchored_missing_outputs():
    candidate = chain_flow([0])
    target = Goal(id="g", tokens=frozenset({"g"}),
                  input_schema=candidate.declared_inputs,
                  output_schema=frozenset({"o0", "report", "summary"}))
    verdict = verify(candidate, target, SolveConfig(mode="goal_anchored"))
    # one missing step at the frontier that needs every missing output
    hyp = diagnose(verdict, candidate, target)
    assert hyp.kind == MISSING_STEP
    assert hyp.location == (1,)
    assert hyp.needed == frozenset({"report", "summary"})


# --- apply -------------------------------------------------------------------------


def test_apply_insert_with_unique_exact_match_restores_equality():
    net = chain_pool(6)
    expected = chain_flow([0, 1, 2])
    faulty = _delete_task(expected, 1)
    verdict = verify(faulty, expected, SolveConfig(mode="oracle"))
    hypothesis = diagnose(verdict, faulty, expected)
    repaired, agent = apply(faulty, hypothesis, net, SolveConfig(), random.Random(0))
    assert hypothesis.kind == MISSING_STEP and agent is agent_named(net, "g1")
    assert wf.structurally_equal(repaired, expected)


def test_apply_reorder_restores_equality():
    net = chain_pool(6)
    expected = chain_flow([0, 1, 2])
    faulty = _swap_adjacent(expected, 1)
    verdict = verify(faulty, expected, SolveConfig(mode="oracle"))
    hypothesis = diagnose(verdict, faulty, expected)
    repaired, agent = apply(faulty, hypothesis, net, SolveConfig(), random.Random(0))
    assert hypothesis.kind == WRONG_ORDER and agent is None
    assert wf.structurally_equal(repaired, expected)


def test_apply_missing_step_on_empty_network_raises():
    net = build_agents([])
    expected = chain_flow([0, 1])
    faulty = _delete_task(expected, 0)
    verdict = verify(faulty, expected, SolveConfig(mode="oracle"))
    hypothesis = diagnose(verdict, faulty, expected)
    with pytest.raises(NoEligibleAgent):
        apply(faulty, hypothesis, net, SolveConfig(), random.Random(0))


def test_apply_rejects_an_insert_that_breaks_dataflow():
    # g2 consumes o1, which nothing before the insertion point produces
    net = chain_pool(4)
    hypothesis = FailureHypothesis(kind=MISSING_STEP, location=(0,), needed=frozenset({"o2"}))
    with pytest.raises(RejectedRepair, match="breaks dataflow"):
        apply(chain_flow([0]), hypothesis, net, SolveConfig(), random.Random(0))


def test_apply_branch_rebuilds_generated_branch_exactly():
    net = chain_pool(8)
    host = chain_flow([0, 1])
    alt = agent_named(net, "g2").procedure  # consumes o1, produced by the host
    cond = wf.Predicate(sorted(alt.declared_outputs)[0], "exists")
    expected = wf.branch(host, cond, alt)
    assert wf.validate(expected).ok
    candidate = host.replace(declared_inputs=expected.declared_inputs)
    verdict = verify(candidate, expected, SolveConfig(mode="oracle"))
    hypothesis = diagnose(verdict, candidate, expected)
    repaired, agent = apply(candidate, hypothesis, net, SolveConfig(), random.Random(0))
    assert hypothesis.kind == MISSING_BRANCH and agent is agent_named(net, "g2")
    assert wf.structurally_equal(repaired, expected)


def test_apply_nest_rebuilds_via_decomposition():
    net = chain_pool(6)
    records = [cp.CorpusRecord(g, w, "linear", "1") for g, w in net.training]
    novel = cp.make_novel_goals(records, seed=21, count=1, parts_range=(2, 2),
                                structure="nested")[0]
    config = SolveConfig(seed=4, repair_budget=5)
    episode = solve(net, novel.goal, config, expected=novel.workflow)
    assert episode.passed_rank() == 1
    ops = [r.action for r in episode.ranks[0].repairs]
    assert ops and ops[0] == "Nest"


# --- repair_loop -------------------------------------------------------------------


def test_repair_loop_budget_must_be_positive():
    net = chain_pool(2)
    flow = chain_flow([0])
    with pytest.raises(ValueError):
        repair_loop(net, _flow_goal(flow, "g"), flow, verify(flow, flow), flow,
                    SolveConfig(repair_budget=0), random.Random(0))


def test_repair_loop_one_insert_away_budget_one():
    net = chain_pool(6)
    expected = chain_flow([0, 1, 2], gid="case")
    faulty = _delete_task(expected, 2)
    goal = _flow_goal(expected, "case")
    repaired, verdict, trace, stop = repair_loop(net, goal, faulty, verify(faulty, expected),
                                                 expected, SolveConfig(repair_budget=1),
                                                 random.Random(0))
    assert verdict.passed and stop == "passed"
    assert len(trace) == 1
    assert wf.structurally_equal(repaired, expected)


def test_repair_loop_two_independent_missing_steps_budget_two():
    net = chain_pool(8)
    expected = chain_flow([0, 2, 4, 6], gid="dual")  # chain inputs come from declared
    faulty = _delete_task(_delete_task(expected, 3), 1)
    goal = _flow_goal(expected, "dual")
    repaired, verdict, trace, stop = repair_loop(net, goal, faulty, verify(faulty, expected),
                                                 expected, SolveConfig(repair_budget=2),
                                                 random.Random(0))
    assert verdict.passed and stop == "passed"
    assert len(trace) == 2
    assert all(r.action == "Insert" for r in trace)
    assert wf.structurally_equal(repaired, expected)


def test_repair_records_hold_the_spliced_agent():
    net = chain_pool(6)
    expected = chain_flow([0, 1, 2], gid="rec")
    goal = _flow_goal(expected, "rec")
    config = SolveConfig(repair_budget=1)
    records = []
    for faulty in (_delete_task(expected, 1), _swap_adjacent(expected, 1)):
        _, verdict, trace, _ = repair_loop(net, goal, faulty, verify(faulty, expected),
                                           expected, config, random.Random(0))
        assert verdict.passed
        records.extend(trace)
    insert, reorder = records
    assert insert.hypothesis == MISSING_STEP and insert.agent is agent_named(net, "g1")
    assert insert.to_doc()["agent_id"] == "g1"
    assert reorder.hypothesis == WRONG_ORDER and reorder.agent is None
    assert reorder.to_doc()["agent_id"] is None


def test_repair_loop_budget_exhausted_returns_trace():
    net = chain_pool(8)
    expected = chain_flow([0, 2, 4, 6], gid="tight")
    faulty = _delete_task(_delete_task(expected, 3), 1)
    goal = _flow_goal(expected, "tight")
    _, verdict, trace, stop = repair_loop(net, goal, faulty, verify(faulty, expected),
                                          expected, SolveConfig(repair_budget=1), random.Random(0))
    assert stop == "budget"
    assert not verdict.passed
    assert len(trace) == 1


def test_repair_loop_stalls_without_actionable_hypothesis():
    net = chain_pool(4)
    expected = chain_flow([0, 1], gid="stall")
    kids = list(wf.child_list(wf.normalize_node(expected.root)))
    extra = agent_named(net, "g3").procedure.root
    faulty = mk_flow(kids + [extra], ins=expected.declared_inputs,
                     outs=expected.declared_outputs)
    goal = _flow_goal(expected, "stall")
    # the only fix is a deletion, which the hypothesis space cannot express
    _, verdict, trace, stop = repair_loop(net, goal, faulty, verify(faulty, expected),
                                          expected, SolveConfig(repair_budget=3), random.Random(0))
    assert stop == "stalled"
    assert not verdict.passed
    assert trace == []


def test_repair_loop_stalls_when_a_repair_does_not_shrink_the_script():
    # the only producer of o1 runs another tool: the Insert applies, and the
    # missing step becomes a replaced one
    flows = {"g0": chain_flow([0]), "g1": mk_flow([mk_task("other", {"o0"}, {"o1"})],
                                                  ins={"o0"}, outs={"o1"}),
             "g2": chain_flow([2])}
    net = build_agents([(_flow_goal(flow, gid), flow.replace(goal_id=gid))
                        for gid, flow in flows.items()])
    expected = chain_flow([0, 1, 2], gid="swap")
    faulty = _delete_task(expected, 1)
    repaired, verdict, trace, stop = repair_loop(net, _flow_goal(expected, "swap"), faulty,
                                                 verify(faulty, expected), expected,
                                                 SolveConfig(repair_budget=3), random.Random(0))
    assert stop == "stalled"
    assert [r.action for r in trace] == ["Insert"]
    assert verdict.edit_script == (wf.ReplaceSubtree((1,), chain_tasks([1])[0]),)


def test_repair_loop_stalls_when_the_nest_goal_cannot_be_decomposed():
    net = chain_pool(4)
    agent_named(net, "g1").life = 0.0
    t00, t01 = chain_tasks([0, 1])
    expected = mk_flow([t00, wf.Nest("g1", t01)], ins={"seed"}, outs={"o0", "o1"},
                       gid="nest")
    candidate = chain_flow([0, 1], gid="nest")
    verdict = verify(candidate, expected)
    assert diagnose(verdict, candidate, expected).kind == OVER_ABSTRACTION
    _, verdict, trace, stop = repair_loop(net, _flow_goal(expected, "nest"), candidate,
                                          verdict, expected, SolveConfig(repair_budget=3),
                                          random.Random(0))
    assert stop == "stalled"
    assert not verdict.passed
    assert trace == []


def test_repair_loop_stalls_at_once_on_a_nest_whose_goal_is_unknown():
    # "ghost" is neither the episode goal nor the goal of any pool agent
    net = chain_pool(4)
    t00, t01 = chain_tasks([0, 1])
    expected = mk_flow([t00, wf.Nest("ghost", t01)], ins={"seed"}, outs={"o0", "o1"},
                       gid="nest")
    candidate = chain_flow([0, 1], gid="nest")
    verdict = verify(candidate, expected)
    hyp = diagnose(verdict, candidate, expected)
    assert (hyp.kind, hyp.needed) == (OVER_ABSTRACTION, "ghost")
    _, verdict, trace, stop = repair_loop(net, _flow_goal(expected, "nest"), candidate,
                                          verdict, expected, SolveConfig(repair_budget=3),
                                          random.Random(0))
    assert stop == "stalled"
    assert not verdict.passed
    assert trace == []


def test_repair_loop_stalls_at_once_when_the_first_fault_cannot_be_repaired():
    # The script inserts the "ghost" Nest at (1,), then t02 at (2,), a location
    # that holds only once the Nest is in: the loop acts on the first fault alone.
    net = chain_pool(4)
    t00, t01, t02 = chain_tasks([0, 1, 2])
    expected = mk_flow([t00, wf.Nest("ghost", t01), t02], ins={"seed"},
                       outs={"o0", "o1", "o2"}, gid="gap")
    candidate = chain_flow([0], gid="gap")
    verdict = verify(candidate, expected)
    hyp = diagnose(verdict, candidate, expected)
    assert (hyp.kind, hyp.location) == (OVER_ABSTRACTION, (1,))
    _, verdict, trace, stop = repair_loop(net, _flow_goal(expected, "gap"), candidate,
                                          verdict, expected, SolveConfig(repair_budget=3),
                                          random.Random(0))
    assert stop == "stalled"
    assert not verdict.passed
    assert trace == []


def test_repair_loop_does_not_insert_past_a_first_step_nothing_produces():
    # Nothing produces o2, so the first fault (t02 at (1,)) has no repair. The
    # second Insert's location (3,) assumes t02 is in; applied to the candidate
    # as it stands, it would append t06 after t08 and lengthen the script.
    flows = {f"g{k}": chain_flow([k]) for k in (0, 4, 6, 8)}
    net = build_agents([(_flow_goal(flow, gid), flow.replace(goal_id=gid))
                        for gid, flow in flows.items()])
    expected = chain_flow([0, 2, 4, 6, 8], gid="hole")
    faulty = _delete_task(_delete_task(expected, 3), 1)
    verdict = verify(faulty, expected)
    assert [type(e) for e in verdict.edit_script] == [wf.InsertNode, wf.InsertNode]
    repaired, after, trace, stop = repair_loop(net, _flow_goal(expected, "hole"), faulty,
                                               verdict, expected,
                                               SolveConfig(repair_budget=3), random.Random(0))
    assert stop == "stalled"
    assert trace == []
    assert repaired is faulty and after is verdict


def test_diagnose_gives_none_when_the_first_edit_deletes_or_replaces():
    # no operator removes or replaces a node, so no repair could make these pass
    expected = chain_flow([0, 1], gid="none")
    kids = list(wf.child_list(wf.normalize_node(expected.root)))
    extra = mk_flow(kids + [chain_tasks([2])[0]], ins=expected.declared_inputs,
                    outs=expected.declared_outputs)
    swapped = mk_flow([kids[0], mk_task("other", {"o0"}, {"o1"})],
                      ins=expected.declared_inputs, outs=expected.declared_outputs)
    for candidate, edit_type in ((extra, wf.DeleteNode), (swapped, wf.ReplaceSubtree)):
        verdict = verify(candidate, expected)
        assert type(verdict.edit_script[0]) is edit_type
        assert diagnose(verdict, candidate, expected) is None


def test_repair_loop_progress_is_strict_along_trace():
    net = chain_pool(10)
    expected = chain_flow([0, 2, 4, 6, 8], gid="prog")
    faulty = _delete_task(_delete_task(_delete_task(expected, 4), 2), 0)
    goal = _flow_goal(expected, "prog")
    # Budget b stops the same run after its b-th repair: rerun with budgets
    # 1..3 to see each intermediate candidate.
    distances = [len(wf.diff(faulty, expected))]
    for budget in (1, 2, 3):
        repaired, verdict, trace, stop = repair_loop(net, goal, faulty,
                                                     verify(faulty, expected), expected,
                                                     SolveConfig(repair_budget=budget),
                                                     random.Random(0))
        assert len(trace) == budget
        assert wf.validate(repaired).ok
        distances.append(len(wf.diff(repaired, expected)))
    assert verdict.passed and stop == "passed"
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_repair_loop_completeness_cross_checked_with_enumeration():
    net = chain_pool(10)
    rng = random.Random(77)
    insertables = [agent.procedure.root for agent in net.active]
    for _ in range(100):
        size = rng.randint(2, 6)
        indices = rng.sample(range(10), size)
        expected = chain_flow(indices, gid="enum")
        if rng.random() < 0.5:
            faulty = _delete_task(expected, rng.randrange(size))
        else:
            faulty = _swap_adjacent(expected, rng.randrange(size - 1))
        if wf.structurally_equal(faulty, expected):
            continue
        # brute-force oracle: the fault must be one edit away
        variants = enumerate_single_edits(faulty, insertables)
        assert any(wf.structurally_equal(v, expected) for v in variants)
        goal = _flow_goal(expected, "enum")
        repaired, verdict, _, stop = repair_loop(net, goal, faulty, verify(faulty, expected),
                                                 expected, SolveConfig(repair_budget=3),
                                                 random.Random(1))
        assert verdict.passed and stop == "passed"
        assert wf.structurally_equal(repaired, expected)
