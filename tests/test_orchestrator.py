import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsmith import corpus as cp
from flowsmith import orchestrator, repair
from flowsmith import workflow as wf
from flowsmith.agents import LifeConfig, Outcome, apply_stats, build_agents, update_life
from flowsmith.errors import ConfigError, DecompositionFailure, MissingOracle
from flowsmith.evaluation import ABLATABLE, ExperimentConfig, pass_at_k, run_episodes
from flowsmith.goals import Goal, similarity
from flowsmith.orchestrator import (
    Expanded,
    Resolved,
    SolveConfig,
    Verdict,
    compose,
    decompose,
    solve,
    tree_leaves,
    verify,
)
from flowsmith.seeds import derive_seed

from .conftest import (agent_named, chain_flow, chain_pool, chain_tasks, cyclic_garbage,
                       mk_flow, mk_task, oracle_equal, outcome_ids)


def _union_goal(gid, parts):
    return Goal(
        id=gid,
        tokens=frozenset().union(*(p.tokens for p in parts)),
        input_schema=frozenset().union(*(p.input_schema for p in parts)),
        output_schema=frozenset().union(*(p.output_schema for p in parts)),
    )


# --- decompose ---------------------------------------------------------------------


def test_decompose_trained_goal_resolves_directly():
    net = chain_pool(6)
    goal = net.training[2][0]
    tree = decompose(net, goal, SolveConfig(), random.Random(0))
    assert isinstance(tree, Resolved)
    assert tree.agent.agent_id == goal.id


def test_decompose_composite_recovers_ground_truth_parts():
    net = chain_pool(8)
    parts = [net.training[i][0] for i in (1, 4, 6)]
    composite = _union_goal("composite", parts)
    tree = decompose(net, composite, SolveConfig(), random.Random(0))
    assert isinstance(tree, Expanded)
    leaves = tree_leaves(tree)
    assert {leaf.goal.id for leaf in leaves} == {p.id for p in parts}
    # each leaf holds the pool's own agent object, not a copy or an id
    assert all(leaf.agent is agent_named(net, leaf.goal.id) for leaf in leaves)


def test_decompose_empty_network_fails():
    net = build_agents([])
    goal = Goal(id="novel", tokens=frozenset({"a", "b"}))
    with pytest.raises(DecompositionFailure):
        decompose(net, goal, SolveConfig(), random.Random(0))


def test_decompose_split_disabled_fails_on_novel_goal():
    net = chain_pool(6)
    composite = _union_goal("c", [net.training[0][0], net.training[1][0]])
    with pytest.raises(DecompositionFailure):
        decompose(net, composite, SolveConfig(hypothesis=False), random.Random(0))


def test_decompose_splits_a_composite_that_retrieves_one_part_above_a_low_theta():
    # each part's goal scores 3/6 = 0.5 against the composite, above
    # theta 0.4, but leaves the other part's tokens to the other agent
    net = chain_pool(6)
    parts = [net.training[i][0] for i in (1, 4)]
    composite = _union_goal("pair", parts)
    tree = decompose(net, composite, SolveConfig(theta=0.4), random.Random(0))
    assert [leaf.agent.agent_id for leaf in tree_leaves(tree)] == ["g1", "g4"]
    with pytest.raises(DecompositionFailure):
        decompose(net, composite, SolveConfig(theta=0.4, hypothesis=False), random.Random(0))


def test_pass_at_1_of_two_part_composites_is_the_same_at_theta_0_4_as_at_0_8():
    train = chain_pool(6).training
    records = [cp.CorpusRecord(_union_goal(f"pair{i}{j}", [train[i][0], train[j][0]]),
                               wf.concat(train[i][1], train[j][1]), "linear", "2-3")
               for i, j in ((0, 1), (2, 3), (4, 5))]

    def pass_at_1(theta):
        episodes, _ = run_episodes(chain_pool(6), records,
                                   SolveConfig(theta=theta, seed=3, repair_budget=0))
        return pass_at_k(episodes, (1,))

    assert pass_at_1(0.4) == pass_at_1(0.8) == {"linear 2-3": {1: 1.0}}


def test_decompose_goal_that_splits_into_itself_fails_at_once(monkeypatch):
    # g1's only agent has life 0: the cover split returns g1 itself, which
    # would fail the same way at every level down to MAX_DEPTH
    net = chain_pool(4)
    agent_named(net, "g1").life = 0.0
    calls = []
    original = orchestrator.retrieve

    def counted(pool, goal, theta):
        calls.append(goal.id)
        return original(pool, goal, theta)

    monkeypatch.setattr(orchestrator, "retrieve", counted)
    with pytest.raises(DecompositionFailure):
        decompose(net, net.training[1][0], SolveConfig(), random.Random(0))
    assert calls == ["g1"]


def test_decompose_resolution_soundness():
    net = chain_pool(8)
    parts = [net.training[i][0] for i in (0, 3)]
    composite = _union_goal("c2", parts)
    theta = 0.8
    tree = decompose(net, composite, SolveConfig(theta=theta), random.Random(0))
    for leaf in tree_leaves(tree):
        assert similarity(leaf.agent.goal, leaf.goal) > theta


def test_decompose_frees_the_pool_and_rng_without_the_cyclic_collector():
    # decompose recurses through a closure that refers to itself; a cycle
    # left through it would keep the pool and the rng alive until a
    # collection, whether decompose returned or raised
    net, rng = chain_pool(4), random.Random(0)
    goal = net.training[1][0]
    novel = _union_goal("pair", [net.training[0][0], goal])
    refs = [weakref.ref(net), weakref.ref(rng)]
    gc.disable()
    try:
        decompose(net, goal, SolveConfig(), rng)
        with pytest.raises(DecompositionFailure):
            decompose(net, novel, SolveConfig(hypothesis=False), rng)
        del net, rng
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# --- compose ------------------------------------------------------------------------


def test_compose_leaves_no_cyclic_garbage():
    net = chain_pool(8)
    parts = [net.training[i][0] for i in (1, 4, 6)]
    tree = decompose(net, _union_goal("composite", parts), SolveConfig(), random.Random(0))
    assert isinstance(tree, Expanded)
    assert cyclic_garbage(lambda: compose(tree)) == 0


def test_compose_single_leaf_is_agent_procedure_verbatim():
    net = chain_pool(4)
    goal = net.training[1][0]
    tree = decompose(net, goal, SolveConfig(), random.Random(0))
    candidate = compose(tree)
    assert wf.structurally_equal(candidate, agent_named(net, goal.id).procedure)


def test_compose_linear_tree_length_is_additive():
    net = chain_pool(8)
    parts = [net.training[i][0] for i in (2, 5, 7)]
    tree = Expanded(_union_goal("lin", parts),
                    tuple(Resolved(p, agent_named(net, p.id)) for p in parts))
    candidate = compose(tree)
    total = sum(wf.metrics(agent_named(net, p.id).procedure, check=False).length
                for p in parts)
    assert wf.metrics(candidate, check=False).length == total


def test_compose_inner_expansion_adds_one_nest_level():
    net = chain_pool(8)
    inner_parts = [net.training[i][0] for i in (1, 2)]
    inner = Expanded(_union_goal("sub", inner_parts),
                     tuple(Resolved(p, agent_named(net, p.id)) for p in inner_parts))
    outer_parts = [net.training[3][0]]
    tree = Expanded(
        _union_goal("outer", inner_parts + outer_parts),
        (Resolved(outer_parts[0], agent_named(net, outer_parts[0].id)), inner),
    )
    candidate = compose(tree)
    child_depth = max(
        wf.metrics(agent_named(net, p.id).procedure, check=False).depth
        for p in inner_parts
    )
    assert wf.metrics(candidate, check=False).depth == child_depth + 1


def test_compose_redeclares_goal_interface():
    net = chain_pool(6)
    parts = [net.training[i][0] for i in (0, 4)]
    goal = _union_goal("iface", parts)
    tree = Expanded(goal, tuple(Resolved(p, agent_named(net, p.id)) for p in parts))
    candidate = compose(tree)
    assert candidate.declared_inputs == goal.input_schema
    assert candidate.goal_id == goal.id
    assert wf.validate(candidate).ok


def _reference_blame(verdict, tree):
    """Fault blame as it was: (agent, top-level slot count) per root part,
    then the part whose slots hold the first edit's top-level index."""
    parts = tree.children if isinstance(tree, Expanded) else (tree,)
    segments = [(p.agent, len(wf.child_list(p.agent.procedure.root))) if isinstance(p, Resolved)
                else (tree_leaves(p)[0].agent, 1) for p in parts]
    if not verdict.edit_script:
        return None
    path = verdict.edit_script[0].path
    index = path[0] if path else 0
    acc = 0
    for agent, width in segments:
        acc += width
        if index < acc:
            return agent
    return segments[-1][0]


def test_localize_fault_blames_the_first_leaf_of_a_split_root_part():
    wide_flow = chain_flow([0, 1], wid="w-wide", gid="wide")
    wide_goal = Goal("wide", frozenset({"wide:a"}), wide_flow.declared_inputs,
                     wide_flow.declared_outputs)
    net = build_agents(chain_pool(4).training + [(wide_goal, wide_flow)])
    leaf, inner_a, inner_b, last, wide = (Resolved(net.training[i][0], agent_named(net, gid))
                                          for i, gid in enumerate(("g0", "g1", "g2", "g3", "wide")))
    inner = Expanded(_union_goal("sub", [inner_a.goal, inner_b.goal]), (inner_a, inner_b))
    tree = Expanded(_union_goal("top", [leaf.goal, inner.goal]), (leaf, inner))
    wide_tree = Expanded(_union_goal("top2", [wide.goal, inner.goal, last.goal]),
                         (wide, inner, last))
    task = chain_tasks([9])[0]

    def blame_per_slot(tree):
        slots = len(wf.child_list(compose(tree).root))
        verdicts = [Verdict(False, 0.0, "oracle", (wf.InsertNode((i,), task),))
                    for i in range(slots + 1)]
        verdicts += [Verdict(False, 0.0, "oracle", (wf.ReorderChildren((), (1, 0)),)),
                     Verdict(False, 0.0, "goal_anchored")]
        blamed = [orchestrator._localize_fault(v, tree) for v in verdicts]
        assert blamed == [_reference_blame(v, tree) for v in verdicts]
        return [None if agent is None else agent.agent_id for agent in blamed]

    # slot 0 is g0's task, slot 1 the Nest of the split part, 2 is past the end
    assert blame_per_slot(tree) == ["g0", "g1", "g1", "g0", None]
    assert blame_per_slot(wide_tree) == ["wide", "wide", "g1", "g3", "g3", "wide", None]
    assert blame_per_slot(leaf) == ["g0", "g0", "g0", None]


# --- verify -------------------------------------------------------------------------


@pytest.mark.parametrize("make, settings", [
    (SolveConfig, {"k": 0}),
    (SolveConfig, {"repair_budget": -1}),
    (SolveConfig, {"theta": 1.5}),
    (SolveConfig, {"eta": "high"}),
    (SolveConfig, {"seed": 1.0}),
    (SolveConfig, {"mode": "oracl"}),
    (ExperimentConfig, {"mode": "oracl"}),
    *((SolveConfig, {name: "no"}) for name in ABLATABLE),
], ids=["k-zero", "negative-budget", "theta-out-of-range", "eta-not-a-number",
        "fractional-seed", "unknown-mode", "experiment-unknown-mode",
        *(f"{name}-not-a-bool" for name in ABLATABLE)])
def test_solve_settings_are_checked_where_they_are_built(make, settings):
    with pytest.raises(ConfigError):
        make(**settings)


def test_verify_oracle_pass_on_equal_flow():
    flow = chain_flow([0, 1])
    verdict = verify(flow, flow, SolveConfig(mode="oracle"))
    assert verdict.passed and verdict.score == 1.0 and verdict.edit_script == ()


def test_verify_oracle_missing_task_gives_insert_script():
    expected = chain_flow([0, 1, 2])
    candidate = chain_flow([0, 2])
    verdict = verify(candidate.replace(declared_inputs=expected.declared_inputs),
                     expected, SolveConfig(mode="oracle"))
    assert not verdict.passed and verdict.score == 0.0
    assert len(verdict.edit_script) == 1
    assert isinstance(verdict.edit_script[0], wf.InsertNode)


def test_verify_oracle_fails_a_wrong_candidate_even_at_eta_zero():
    # eta thresholds only goal-anchored scores: a non-empty script never passes
    expected = chain_flow([0, 1, 2])
    candidate = chain_flow([0, 2]).replace(declared_inputs=expected.declared_inputs)
    assert not verify(candidate, expected, SolveConfig(eta=0.0)).passed


def test_verify_oracle_requires_expected_workflow():
    flow = chain_flow([0])
    with pytest.raises(MissingOracle):
        verify(flow, Goal(id="g", tokens=frozenset({"t"})), SolveConfig(mode="oracle"))


def test_verify_goal_anchored_partial_coverage():
    tasks = [mk_task("a", {"x"}, {"r1", "r2", "r3"})]
    candidate = mk_flow(tasks, ins={"x"}, outs={"r1", "r2", "r3"})
    target = Goal(id="g", tokens=frozenset({"t"}), input_schema=frozenset({"x"}),
                  output_schema=frozenset({"r1", "r2", "r3", "r4"}))
    verdict = verify(candidate, target, SolveConfig(mode="goal_anchored", eta=0.95))
    assert verdict.score == pytest.approx(0.75)
    assert not verdict.passed
    assert verdict.missing_outputs == frozenset({"r4"})


def test_verify_goal_anchored_unbound_input_zeroes_score():
    candidate = mk_flow(mk_task("a", {"nope"}, {"r"}), ins={"nope"}, outs={"r"})
    target = Goal(id="g", tokens=frozenset({"t"}), input_schema=frozenset({"x"}),
                  output_schema=frozenset({"r"}))
    verdict = verify(candidate, target, SolveConfig(mode="goal_anchored"))
    assert verdict.score == 0.0 and not verdict.passed


def test_verify_dead_node_ratio():
    live = mk_task("a", {"x"}, {"keep"})
    dead = mk_task("b", {"x"}, {"drop"})
    flow = mk_flow([dead, live], ins={"x"}, outs={"keep"})
    verdict = verify(flow, flow, SolveConfig(mode="oracle"))
    assert verdict.dead_node_ratio == pytest.approx(0.5)


# --- solve --------------------------------------------------------------------------


def test_solve_trained_goal_passes_first_with_reward():
    net = chain_pool(6)
    goal, flow = net.training[2]
    episode = solve(net, goal, SolveConfig(seed=11), expected=flow)
    assert episode.passed_rank() == 1
    (first,) = episode.ranks                       # a pass at rank 1 ends the episode
    rewarded = [o for a, o in first.outcomes if a.agent_id == goal.id and o.r_correct]
    assert len(rewarded) == 1
    assert rewarded[0].r_general == 0              # a trained goal is not novel


def test_solve_requires_expected_in_oracle_mode():
    net = chain_pool(2)
    with pytest.raises(MissingOracle):
        solve(net, net.training[0][0], SolveConfig(seed=1), expected=None)


def test_solve_novel_composite_with_hypothesis_disabled_is_an_early_failure():
    net = chain_pool(6)
    records = [cp.CorpusRecord(g, w, "linear", "1") for g, w in net.training]
    novel = cp.make_novel_goals(records, seed=3, count=1, parts_range=(2, 2))[0]
    config = SolveConfig(seed=11, hypothesis=False)
    episode = solve(net, novel.goal, config, expected=novel.workflow)
    assert episode.early_failure
    assert episode.ranks == []


def test_solve_counts_one_verify_per_candidate(monkeypatch):
    # g0 resolves directly and misses one task; one Insert repairs it
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return verify(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "verify", counted)
    monkeypatch.setattr(repair, "verify", counted)
    goal = chain_pool(6).training[0][0]
    episode = solve(chain_pool(6), goal, SolveConfig(seed=11),
                    expected=chain_flow([0, 1], gid=goal.id))
    assert episode.passed_rank() == 1
    assert [([r.action for r in rank.repairs], rank.stop) for rank in episode.ranks] == [
        (["Insert"], "passed")]
    assert len(calls) == 2  # the composed candidate, then the repaired one


def _count_stage_calls(monkeypatch) -> Counter:
    """Count ``decompose``, ``compose`` and ``verify`` calls at the
    orchestrator and repair attributes, rng seedings (``derive_seed``) and
    dead-node walks (``workflow.dead_node_ratio``)."""
    calls = Counter()
    sites = [(module, name) for name in ("decompose", "compose", "verify")
             for module in (orchestrator, repair)] + [(orchestrator, "derive_seed"),
                                                     (wf, "dead_node_ratio")]
    for module, name in sites:
        def counted(*args, name=name, fn=getattr(module, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_solve_reuses_a_repeated_rank_and_still_penalises_it(monkeypatch):
    # Ranks 1-3 resolve g1 to its own agent, its only choice, and each
    # fails it; ranks 2 and 3 repeat rank 1 without decomposing or
    # seeding an rng.  Rank 4 finds the agent dead, decomposes, finds no
    # agent and ends the episode early
    calls = _count_stage_calls(monkeypatch)
    net = chain_pool(6)
    goal = net.training[1][0]
    episode = solve(net, goal, SolveConfig(seed=2, repair_budget=0),
                    expected=chain_flow([3, 4], wid="x", gid=goal.id))
    assert episode.early_failure
    # the three recorded ranks share one verdict, so one dead-node walk
    assert calls == {"decompose": 2, "derive_seed": 2, "compose": 1, "verify": 1,
                     "dead_node_ratio": 1}
    # budget 0: no rank runs the repair loop, so none has a stop reason
    assert [(rank.repairs, rank.stop) for rank in episode.ranks] == [((), None)] * 3
    assert outcome_ids(episode) == [[(goal.id, Outcome(p_fail=1))]] * 3


def test_solve_reuses_a_forced_rank_whose_dead_leaf_scale_control_ignores(monkeypatch):
    # Without scale control selection reads no life, so a dead g1 is
    # still chosen, and every rank after the first repeats rank 1
    calls = _count_stage_calls(monkeypatch)
    net = chain_pool(6)
    goal = net.training[1][0]
    agent_named(net, goal.id).life = 0.0
    episode = solve(net, goal, SolveConfig(seed=2, repair_budget=0, scale_control=False),
                    expected=chain_flow([3, 4], wid="x", gid=goal.id))
    assert not episode.early_failure
    assert calls == {"decompose": 1, "derive_seed": 1, "compose": 1, "verify": 1,
                     "dead_node_ratio": 1}
    assert outcome_ids(episode) == [[(goal.id, Outcome(p_fail=1))]] * 5


def test_solve_repairs_each_repeated_rank_from_the_unrepaired_candidate(monkeypatch):
    # g0 composes t00 against t00 t01 t02.  One Insert (budget 1) per rank
    # leaves t02 missing, so every rank ends at t00 t01; a rank that
    # started from the previous rank's repaired candidate would pass.
    calls = _count_stage_calls(monkeypatch)
    net = chain_pool(6)
    goal = net.training[0][0]
    episode = solve(net, goal, SolveConfig(seed=11, repair_budget=1),
                    expected=chain_flow([0, 1, 2], gid=goal.id))
    assert episode.passed_rank() is None
    # each rank applies one Insert, spends its budget and ends at t00 t01
    assert [([r.action for r in rank.repairs], rank.stop, wf.task_order(rank.candidate.root))
            for rank in episode.ranks] == [(["Insert"], "budget", tuple(chain_tasks([0, 1])))] * 3
    # a rank that repairs decomposes, composes and verifies afresh, so three
    # composed candidates and three repaired ones; rank 4 finds g0 dead and
    # fails early.  Only each rank's final verdict walks for its dead-node ratio
    assert calls == {"decompose": 4, "derive_seed": 4, "compose": 3, "verify": 6,
                     "dead_node_ratio": 3}


def test_solve_repairs_a_repeated_rank_with_the_draws_it_would_have_decomposed_with():
    # g1 and h1 both produce o1, so each Insert draws between them; the
    # ids are those each rank drew when every rank decomposed, which a
    # repair rng that skipped the leaf's draw does not give at seed 2
    net = chain_pool(6)
    twin = chain_flow([1], wid="wh", gid="h1")
    net = build_agents(net.training + [
        (Goal("h1", frozenset({"h1:a"}), twin.declared_inputs, twin.declared_outputs), twin)])
    goal = net.training[0][0]
    episode = solve(net, goal, SolveConfig(seed=2, repair_budget=1),
                    expected=chain_flow([0, 1, 2], gid=goal.id))
    assert [[r.agent.agent_id for r in rank.repairs] for rank in episode.ranks] == [
        ["h1"], ["h1"], ["g1"]]


def test_solve_composes_afresh_each_rank_that_draws_another_agent(monkeypatch):
    # ga and gb have equal tokens, so both resolve the goal.  At seed 3 the
    # ranks alternate between them; at seed 1 ranks 2 and 3 draw the same
    # agent, and so the same tree, as the rank before.  Each rank chose
    # between two agents, so each decomposes, composes and verifies afresh
    calls = _count_stage_calls(monkeypatch)
    flows = [chain_flow([k], wid=f"w{k}", gid=gid) for k, gid in enumerate(("ga", "gb"))]
    tokens = frozenset({"t:x", "t:y"})
    goal = Goal("q", tokens, flows[0].declared_inputs | flows[1].declared_inputs)
    for seed, drawn in ((3, (0, 1, 0, 1, 0)), (1, (0, 0, 0, 1, 1))):
        calls.clear()
        net = build_agents([(Goal(f.goal_id, tokens, f.declared_inputs, f.declared_outputs), f)
                            for f in flows])
        episode = solve(net, goal, SolveConfig(seed=seed, repair_budget=0),
                        expected=chain_flow([2], gid="q"))
        assert [wf.task_order(rank.candidate.root) for rank in episode.ranks] == [
            tuple(chain_tasks([k])) for k in drawn]
        assert outcome_ids(episode) == [[(("ga", "gb")[k], Outcome(p_fail=1))] for k in drawn]
        assert calls == {"decompose": 5, "derive_seed": 5, "compose": 5, "verify": 5,
                         "dead_node_ratio": 5}


def test_solve_walks_the_dead_node_ratio_of_the_recorded_verdict_only(monkeypatch):
    # g0 resolves directly and misses one task; one Insert repairs it.  The
    # composed candidate's verdict is dropped for the repaired one, so only
    # the repaired one walks, and it walks inside solve, not in to_doc
    calls = _count_stage_calls(monkeypatch)
    goal = chain_pool(6).training[0][0]
    episode = solve(chain_pool(6), goal, SolveConfig(seed=11),
                    expected=chain_flow([0, 1], gid=goal.id))
    assert [[r.action for r in rank.repairs] for rank in episode.ranks] == [["Insert"]]
    assert (calls["verify"], calls["dead_node_ratio"]) == (2, 1)
    (rank,) = episode.ranks
    assert rank.verdict.to_doc()["dead_node_ratio"] == 0.0
    episode.to_doc()
    assert calls["dead_node_ratio"] == 1


def test_solve_nests_a_forced_rank_without_decomposing_it_again(monkeypatch):
    # The novel goal "pair" splits into g0 and g1, each its agent's only
    # choice, and composes t00 t01 against Nest(pair, t00 t01 t02): a Nest of
    # the episode's goal, then an Insert of o2 drawn between g2 and its twin
    # h2.  The Nest wraps the rank's own candidate and draws nothing, so the
    # Insert's draw is the rank's first after the two leaves': g2 at seed 1,
    # where a Nest that drew once per leaf again would give h2
    calls = _count_stage_calls(monkeypatch)
    twin = chain_flow([2], wid="wh", gid="h2")
    net = build_agents(chain_pool(6).training + [
        (Goal("h2", frozenset({"h2:a"}), twin.declared_inputs, twin.declared_outputs), twin)])
    goal = _union_goal("pair", [net.training[0][0], net.training[1][0]])
    expected = mk_flow(wf.Nest("pair", wf.Sequence(tuple(chain_tasks([0, 1, 2])))),
                       ins={"seed"}, outs={"o0", "o1", "o2"}, gid="pair")
    episode = solve(net, goal, SolveConfig(seed=1), expected=expected)
    assert episode.passed_rank() == 1
    assert [(r.action, r.agent and r.agent.agent_id) for r in episode.ranks[0].repairs] == [
        ("Nest", None), ("Insert", "g2")]
    assert calls == {"decompose": 1, "derive_seed": 1, "compose": 1, "verify": 3,
                     "dead_node_ratio": 1}


def test_solve_nest_of_a_contested_rank_wraps_its_own_candidate(monkeypatch):
    # ga and gb both resolve q, so its decomposition is contested; the Nest
    # of q that the expected flow asks for still wraps the rank's candidate,
    # ga's t00, instead of decomposing q again
    calls = _count_stage_calls(monkeypatch)
    flows = [chain_flow([k], wid=f"w{k}", gid=gid) for k, gid in enumerate(("ga", "gb"))]
    tokens = frozenset({"t:x", "t:y"})
    net = build_agents([(Goal(f.goal_id, tokens, f.declared_inputs, f.declared_outputs), f)
                        for f in flows])
    goal = Goal("q", tokens, flows[0].declared_inputs | flows[1].declared_inputs)
    episode = solve(net, goal, SolveConfig(seed=3, k=1), expected=mk_flow(
        wf.Nest("q", chain_tasks([0])[0]), ins={"seed"}, outs={"o0"}, gid="q"))
    assert [r.action for r in episode.ranks[0].repairs] == ["Nest"]
    assert episode.ranks[0].candidate.root == wf.Nest("q", chain_tasks([0])[0])
    assert (calls["decompose"], calls["compose"]) == (1, 1)


def _twin_pool(size, twins, l_init):
    """``chain_pool(size)`` plus, for each (k, shared) in ``twins``, an agent
    h{k} with g{k}'s procedure: under g{k}'s tokens when ``shared`` (so both
    resolve g{k}'s goal), else under its own, where it only ties as a producer."""
    pool = chain_pool(size)
    dataset = list(pool.training)
    for k, shared in twins:
        flow = chain_flow([k], wid=f"wh{k}", gid=f"h{k}")
        tokens = pool.training[k][0].tokens if shared else frozenset({f"h{k}:a"})
        dataset.append((Goal(f"h{k}", tokens, flow.declared_inputs, flow.declared_outputs),
                        flow))
    return build_agents(dataset, config=LifeConfig(l_init=l_init))


def _reference_solve(net, goal, config, expected):
    """``solve`` in oracle mode without reuse: every rank decomposes,
    composes, verifies and localizes afresh."""
    episode = orchestrator.EpisodeResult(goal_id=goal.id, ranks=[], steps=0, seed=config.seed)
    for rank in range(1, config.k + 1):
        rng = random.Random(derive_seed(config.seed, goal.id, rank))
        try:
            tree = decompose(net, goal, config, rng)
        except DecompositionFailure:
            episode.early_failure = True
            break
        leaf_agents = [leaf.agent for leaf in tree_leaves(tree)]
        candidate = compose(tree)
        verdict = verify(candidate, expected, config)
        blamed = orchestrator._localize_fault(verdict, tree)
        episode.steps += len(leaf_agents)
        trace, stop = [], None
        if not verdict.passed and config.hypothesis and config.repair_budget >= 1:
            candidate, verdict, trace, stop = repair.repair_loop(
                net, goal, candidate, verdict, expected, config, rng)
            episode.steps += len(trace)
        path_agents = leaf_agents + [record.agent for record in trace if record.agent is not None]
        outcomes = orchestrator._outcomes(net, goal, candidate, path_agents, verdict, blamed)
        for agent, outcome in outcomes:
            if config.scale_control:
                update_life(agent, outcome, net.config)
            else:
                apply_stats(agent, outcome)
        episode.ranks.append(orchestrator.Rank(candidate, verdict, tuple(trace), stop,
                                               tuple(outcomes)))
        if verdict.passed:
            break
    return episode


@st.composite
def _reuse_cases(draw):
    size = draw(st.integers(4, 6))
    twins = draw(st.lists(st.tuples(st.integers(0, size - 1), st.booleans()),
                          max_size=3, unique_by=lambda twin: twin[0]))
    first = draw(st.integers(0, size - 2))
    parts = draw(st.integers(1, 2))  # a trained goal, or a novel union of two
    expected = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
    nest = draw(st.booleans())
    config = SolveConfig(seed=draw(st.integers(0, 50)), k=draw(st.integers(1, 4)),
                         repair_budget=draw(st.integers(0, 2)),
                         scale_control=draw(st.booleans()))
    l_init = draw(st.sampled_from([2.0, 10.0]))
    return size, twins, l_init, first, parts, expected, nest, config


@settings(max_examples=150, deadline=None)
@given(_reuse_cases())
# g0 fails each rank at budget 0 and dies at the third: rank 4 must decompose
# again and end early, not repeat the dead agent's tree
@example((6, [], 10.0, 0, 1, [0, 1], False, SolveConfig(seed=2, k=4, repair_budget=0)))
def test_solve_equals_a_rank_loop_that_decomposes_every_rank(case):
    size, twins, l_init, first, parts, indices, nest, config = case
    nets = [_twin_pool(size, twins, l_init) for _ in range(2)]
    part_goals = [nets[0].training[k][0] for k in range(first, first + parts)]
    goal = part_goals[0] if parts == 1 else _union_goal("pair", part_goals)
    expected = chain_flow(indices, gid=goal.id)
    if nest:
        expected = expected.replace(root=wf.Nest(goal.id, expected.root))
    got = solve(nets[0], goal, config, expected=expected)
    want = _reference_solve(nets[1], goal, config, expected)
    assert got.to_doc() == want.to_doc()
    lives = [[(a.agent_id, a.life, a.stats) for a in net.active + net.archive] for net in nets]
    assert lives[0] == lives[1]


def test_solve_hypothesis_disabled_never_repairs():
    # g0 resolves directly, but the expected flow has one more task: one
    # Insert repairs it with hypotheses on, and nothing may repair it off
    goal = chain_pool(6).training[0][0]
    expected = chain_flow([0, 1], gid=goal.id)
    blocked = solve(chain_pool(6), goal, SolveConfig(seed=11, k=1, hypothesis=False),
                    expected=expected)
    assert [(rank.repairs, rank.stop) for rank in blocked.ranks] == [((), None)]
    assert blocked.passed_rank() is None
    repaired = solve(chain_pool(6), goal, SolveConfig(seed=11, k=1), expected=expected)
    assert [([r.action for r in rank.repairs], rank.stop) for rank in repaired.ranks] == [
        (["Insert"], "passed")]
    assert repaired.passed_rank() == 1


def test_solve_novel_composite_with_repair_passes_and_replays_identically():
    net = chain_pool(8)
    records = [cp.CorpusRecord(g, w, "linear", "1") for g, w in net.training]
    novel = cp.make_novel_goals(records, seed=5, count=4, parts_range=(2, 3))
    for record in novel:
        fresh = chain_pool(8)
        episode = solve(fresh, record.goal, SolveConfig(seed=7, repair_budget=5),
                        expected=record.workflow)
        assert episode.passed_rank() == 1
        again = chain_pool(8)
        replay = solve(again, record.goal, SolveConfig(seed=7, repair_budget=5),
                       expected=record.workflow)
        assert wf.canonical_json(episode.to_doc()) == wf.canonical_json(replay.to_doc())
        rewarded = [o for _, o in episode.ranks[0].outcomes if o.r_correct]
        assert rewarded and all(o.r_general == 1 for o in rewarded)  # novel goal


def test_solve_rank_one_is_stable_across_k():
    net = chain_pool(8)
    records = [cp.CorpusRecord(g, w, "linear", "1") for g, w in net.training]
    novel = cp.make_novel_goals(records, seed=9, count=1, parts_range=(3, 3))[0]
    solo = solve(chain_pool(8), novel.goal,
                 SolveConfig(seed=13, k=1, repair_budget=0), expected=novel.workflow)
    wide = solve(chain_pool(8), novel.goal,
                 SolveConfig(seed=13, k=5, repair_budget=0), expected=novel.workflow)
    first_solo = wf.dumps(solo.candidates[0][0])
    first_wide = wf.dumps(wide.candidates[0][0])
    assert first_solo == first_wide


def test_solve_oracle_pass_iff_tree_equality():
    # no false passes: check against an independently written equality oracle
    net = chain_pool(8)
    cases = [(g, w, w) for g, w in net.training[:3]]
    cases.append((net.training[0][0], net.training[0][1],
                  chain_flow([5, 6], gid=net.training[0][0].id)))  # wrong expected
    for goal, _, expected in cases:
        episode = solve(chain_pool(8), goal, SolveConfig(seed=2, repair_budget=0),
                        expected=expected)
        final, verdict = episode.candidates[-1]
        assert verdict.passed == oracle_equal(final.root, expected.root)


def test_solve_failure_localizes_blame_to_one_agent():
    net = chain_pool(6)
    goal, flow = net.training[1]
    wrong_expected = chain_flow([3, 4], wid="x", gid=goal.id)
    episode = solve(net, goal, SolveConfig(seed=2, repair_budget=0),
                    expected=wrong_expected)
    assert episode.passed_rank() is None
    for outcomes in outcome_ids(episode):
        assert [a for a, o in outcomes if o.p_fail] in ([], [goal.id])


def test_solve_blames_the_slot_of_the_composed_candidate_after_a_repair_shifts_it():
    # The composed candidate t00 t02 t04 t05 t06 misses t01 and t03.  Its
    # first edit inserts t01 at slot 1, g2's slot.  One Insert (budget 1)
    # adds t01, which shifts every later slot, and the repaired candidate
    # still misses t03, now at slot 3, the composed candidate's g5 slot.
    net = chain_pool(7)
    parts = [net.training[i][0] for i in (0, 2, 4, 5, 6)]
    goal = _union_goal("shifted", parts)
    expected = chain_flow(range(7), gid=goal.id)
    episode = solve(net, goal, SolveConfig(seed=0, k=1, repair_budget=1), expected=expected)
    (rank,) = episode.ranks
    assert [(r.action, r.location) for r in rank.repairs] == [("Insert", (1,))]
    assert rank.stop == "budget"
    assert rank.verdict.edit_script == (wf.InsertNode((3,), chain_tasks([3])[0]),)
    assert [agent.agent_id for agent, o in rank.outcomes if o.p_fail] == ["g2"]


# --- outcome triggers ------------------------------------------------------------------


def test_solve_reuse_reward_on_structurally_equivalent_goal():
    # two different goals trained on byte-identical procedures
    flow_a = chain_flow([0, 1], wid="wa", gid="ga")
    flow_b = chain_flow([0, 1], wid="wb", gid="gb")
    net = build_agents([
        (Goal("ga", frozenset({"ga:x"}), flow_a.declared_inputs, flow_a.declared_outputs), flow_a),
        (Goal("gb", frozenset({"gb:x"}), flow_b.declared_inputs, flow_b.declared_outputs), flow_b),
    ])
    config = SolveConfig(seed=4)
    first = solve(net, net.training[0][0], config, expected=flow_a)
    (rank,) = first.ranks
    assert all(o.r_reuse == 0 for _, o in rank.outcomes)
    second = solve(net, net.training[1][0], config, expected=flow_b)
    (rank,) = second.ranks
    rewarded = [o for _, o in rank.outcomes if o.r_correct]
    assert rewarded and all(o.r_reuse == 1 for o in rewarded)


def test_solve_drift_penalty_in_goal_anchored_mode():
    flow = chain_flow([0], gid="gd")
    goal = Goal("gd", frozenset({"gd:x"}), flow.declared_inputs, flow.declared_outputs)
    net = build_agents([(goal, flow)])
    probe = Goal("probe", goal.tokens, goal.input_schema,
                 output_schema=frozenset({"o0", "r2", "r3", "r4"}))
    episode = solve(net, probe, SolveConfig(seed=4, mode="goal_anchored"))
    assert episode.passed_rank() is None
    # 1 - Jaccard({o0}, required) = 0.75 > the 0.5 threshold at every rank
    assert episode.ranks and all(any(o.p_drift for _, o in rank.outcomes)
                                 for rank in episode.ranks)


def test_solve_redundancy_penalty_scales_with_dead_nodes():
    live = mk_task("keeper", {"x"}, {"keep"})
    dead = mk_task("waste", {"x"}, {"drop"})
    flow = mk_flow([dead, live], ins={"x"}, outs={"keep"}, gid="gr")
    goal = Goal("gr", frozenset({"gr:x"}), flow.declared_inputs, frozenset({"keep"}))
    net = build_agents([(goal, flow)])
    episode = solve(net, goal, SolveConfig(seed=4), expected=flow)
    assert episode.passed_rank() == 1
    rewarded = [o for _, o in episode.ranks[0].outcomes if o.r_correct]
    assert rewarded and rewarded[0].p_redundant == pytest.approx(0.5)


def test_episode_outcomes_consistent_with_verdicts():
    net = chain_pool(6)
    records = [cp.CorpusRecord(g, w, "linear", "1") for g, w in net.training]
    novel = cp.make_novel_goals(records, seed=15, count=5, parts_range=(2, 3))
    for record in records[:5] + novel:
        episode = solve(chain_pool(6), record.goal, SolveConfig(seed=6),
                        expected=record.workflow)
        # R_c only on the passing rank
        assert [any(o.r_correct for _, o in rank.outcomes) for rank in episode.ranks] == [
            rank.verdict.passed for rank in episode.ranks]


# --- attribution rules ------------------------------------------------------------------


def _goal_anchored_failure(produced, required):
    """A goal, a candidate producing ``produced`` and its failing verdict."""
    task = mk_task("t", {"x"}, produced)
    candidate = mk_flow([task], ins={"x"}, outs=produced)
    goal = Goal("ga", frozenset({"ga:x"}), frozenset({"x"}), frozenset(required))
    verdict = verify(candidate, goal, SolveConfig(mode="goal_anchored"))
    assert not verdict.passed and 0.0 < verdict.score < 1.0
    return goal, candidate, verdict


def test_solve_rewards_an_agent_on_the_path_twice_once_at_its_first_position():
    # g0 g1 composes t00 t01; the Insert that repairs it splices in g0 again
    net = chain_pool(4)
    goal = _union_goal("pair", [net.training[0][0], net.training[1][0]])
    episode = solve(net, goal, SolveConfig(seed=3, k=1), expected=chain_flow([0, 1, 0]))
    (rank,) = episode.ranks
    assert [(r.action, r.agent.agent_id) for r in rank.repairs] == [("Insert", "g0")]
    rewarded = Outcome(r_correct=1, r_general=1)
    assert outcome_ids(episode) == [[("g0", rewarded), ("g1", rewarded)]]


def test_outcomes_of_a_drifted_failure_penalise_every_path_agent_and_fail_the_blamed():
    # drift 1 - 1/4 = 0.75 is above the 0.5 threshold
    net = chain_pool(3)
    g0, g1, g2 = (agent_named(net, f"g{k}") for k in range(3))
    goal, candidate, verdict = _goal_anchored_failure({"r1"}, {"r1", "r2", "r3", "r4"})
    outcomes = orchestrator._outcomes(net, goal, candidate, [g0, g1, g0, g2], verdict, g1)
    assert [(agent.agent_id, o) for agent, o in outcomes] == [
        ("g0", Outcome(p_drift=1)), ("g1", Outcome(p_fail=1, p_drift=1)),
        ("g2", Outcome(p_drift=1))]


def test_outcomes_of_a_failure_drifted_exactly_to_the_threshold_fail_only_the_blamed():
    # drift 1 - 2/4 = 0.5 is not above the 0.5 threshold
    net = chain_pool(3)
    g0, g1, g2 = (agent_named(net, f"g{k}") for k in range(3))
    goal, candidate, verdict = _goal_anchored_failure({"r1", "r2"}, {"r1", "r2", "r3", "r4"})
    outcomes = orchestrator._outcomes(net, goal, candidate, [g0, g1, g2], verdict, g1)
    assert [(agent.agent_id, o) for agent, o in outcomes] == [("g1", Outcome(p_fail=1))]


@pytest.mark.parametrize("scale_control, life", [(True, 6.0), (False, 10.0)])
def test_solve_fails_only_the_blamed_agent_and_touches_life_only_under_scale_control(
        scale_control, life):
    # g0 g1 composes t00 t01 against t00 t05: the first edit is at g1's slot
    net = chain_pool(4)
    goal = _union_goal("pair", [net.training[0][0], net.training[1][0]])
    config = SolveConfig(seed=3, k=1, repair_budget=0, scale_control=scale_control)
    episode = solve(net, goal, config, expected=chain_flow([0, 5]))
    assert outcome_ids(episode) == [[("g1", Outcome(p_fail=1))]]
    g0, g1 = agent_named(net, "g0"), agent_named(net, "g1")
    assert (g1.life, g1.stats.failures, g1.stats.successes) == (life, 1, 0)
    assert (g0.life, g0.stats.failures) == (10.0, 0)
