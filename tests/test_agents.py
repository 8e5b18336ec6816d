import random

import pytest

from flowsmith import corpus as cp
from flowsmith.agents import (
    AgentNetwork,
    AtomicAgent,
    ChangeLog,
    LifeConfig,
    Outcome,
    best_producers,
    build_agents,
    compatibility,
    cover_split,
    eliminate_and_refresh,
    goal_named,
    is_novel,
    resolves,
    retrieve,
    select,
    selection_probabilities,
    update_life,
)
from flowsmith.errors import DecompositionFailure, DuplicateGoal, InvalidWorkflow, NoEligibleAgent
from flowsmith.goals import Goal, similarity

from .conftest import agent_named, chain_flow, chain_pool, mk_flow, mk_task


def _goal(gid, tokens, ins=(), outs=()):
    return Goal(id=gid, tokens=frozenset(tokens), input_schema=frozenset(ins),
                output_schema=frozenset(outs))


# --- build_agents -----------------------------------------------------------------


def test_build_agents_empty_dataset():
    net = build_agents([])
    assert net.active == [] and net.archive == [] and net.epoch == 0


def test_build_agents_exact_recall_loop():
    net = chain_pool(24)
    for goal, _ in net.training:
        ranked = retrieve(net, goal, theta=0.8)
        assert ranked and ranked[0][1] == 1.0
        assert ranked[0][0].goal.id == goal.id


def test_build_agents_rejects_duplicate_goal_ids():
    flow = chain_flow([0])
    goal = _goal("dup", {"a"}, ins=flow.declared_inputs, outs=flow.declared_outputs)
    with pytest.raises(DuplicateGoal):
        build_agents([(goal, flow), (goal, flow)])


def test_build_agents_rejects_invalid_procedure():
    bad = mk_flow(mk_task("a", {"missing"}, {"y"}))
    with pytest.raises(InvalidWorkflow):
        build_agents([(_goal("g", {"a"}), bad)])


def test_agents_built_from_one_pair_are_distinct_and_hashable():
    flow = chain_flow([0])
    goal = _goal("g", {"a"}, ins=flow.declared_inputs, outs=flow.declared_outputs)
    first = AtomicAgent.from_pair(goal, flow, LifeConfig())
    second = AtomicAgent.from_pair(goal, flow, LifeConfig())
    assert first != second
    assert list(dict.fromkeys([first, second, first])) == [first, second]


# --- retrieve ---------------------------------------------------------------------


def test_retrieve_theta_one_is_empty():
    net = chain_pool(4)
    assert retrieve(net, net.training[0][0], theta=1.0) == []


def test_retrieve_excludes_archived_agents():
    net = chain_pool(3, life=LifeConfig(refresh_period=100))
    net.epoch = 1  # off the refresh tick, so the archive keeps the agent
    goal = net.training[0][0]
    net.active[0].life = 0.0
    eliminate_and_refresh(net)
    assert any(agent.goal.id == goal.id for agent in net.archive)
    assert retrieve(net, goal, theta=0.8) == []


def test_retrieve_partial_overlap_brute_force():
    net = build_agents([
        (_goal("a1", {"x", "y"}), chain_flow([0])),
        (_goal("a2", {"x", "z"}), chain_flow([1])),
        (_goal("far", {"q", "r"}), chain_flow([2])),
    ])
    probe = _goal("probe", {"x", "y", "z", "w"})
    expected = []
    for agent in net.active:
        score = similarity(agent.goal, probe)
        if score > 0.4:
            expected.append((agent.agent_id, score))
    expected.sort(key=lambda p: (-p[1], p[0]))
    got = [(a.agent_id, s) for a, s in retrieve(net, probe, theta=0.4)]
    assert got == expected
    assert [a for a, _ in got] == ["a1", "a2"]


def test_resolves_rejects_an_agent_that_leaves_a_held_token_to_another():
    net = build_agents([
        (_goal("a1", {"x", "y"}), chain_flow([0])),
        (_goal("a2", {"z"}), chain_flow([1])),
        (_goal("wide", {"x", "y", "z", "v"}), chain_flow([2])),
    ], config=LifeConfig(refresh_period=100))
    named = {agent.agent_id: agent for agent in net.active}
    probe = _goal("probe", {"x", "y", "z", "w"})
    # z is held beyond a1, x and y beyond a2; w is nobody's and blocks no agent
    assert not resolves(net, probe, named["a1"])
    assert not resolves(net, probe, named["a2"])
    assert resolves(net, probe, named["wide"])
    assert resolves(net, _goal("xyw", {"x", "y", "w"}), named["a1"])
    # archived holders block nothing
    net.epoch = 1  # off the refresh tick, so the archive keeps them
    named["a2"].life = named["wide"].life = 0.0
    eliminate_and_refresh(net)
    assert resolves(net, probe, named["a1"])


# --- repair queries -----------------------------------------------------------------


def test_best_producers_returns_every_agent_tied_at_the_top_in_id_order():
    outputs = {"c": {"x", "y"}, "a": {"x", "y", "z"}, "d": {"x"}, "b": {"y", "w"}, "e": {"q"}}
    net = build_agents([(_goal(gid, {gid}, outs=outs), chain_flow([0]))
                        for gid, outs in outputs.items()])
    named = {agent.agent_id: agent for agent in net.active}
    assert best_producers(net, frozenset({"x", "y"})) == [(named["a"], 1.0), (named["c"], 1.0)]
    assert best_producers(net, frozenset({"w", "x"})) == [
        (named[gid], 0.5) for gid in ("a", "b", "c", "d")
    ]
    assert best_producers(net, frozenset({"nothing"})) == []
    assert best_producers(net, frozenset()) == []


def test_goal_named_reads_only_active_agents():
    net = chain_pool(3, life=LifeConfig(refresh_period=100))
    net.epoch = 1  # off the refresh tick, so the archive keeps the agent
    assert goal_named(net, "g1") is agent_named(net, "g1").goal
    agent_named(net, "g1").life = 0.0
    eliminate_and_refresh(net)
    assert goal_named(net, "g1") is None
    assert goal_named(net, "ghost") is None


# --- compatibility ------------------------------------------------------------------


def test_compatibility_hard_gate_zeroes_incompatible_agents():
    net = chain_pool(3)
    agent = net.active[1]  # needs o0
    assert compatibility(agent, similarity(agent.goal, agent.goal), frozenset()) == 0.0


def test_compatibility_fresh_exact_match_is_half():
    net = chain_pool(3)
    agent = net.active[0]
    assert compatibility(agent, similarity(agent.goal, agent.goal),
                         agent.goal.input_schema) == pytest.approx(0.5)


def test_compatibility_blends_history_and_similarity():
    net = chain_pool(3)
    agent = net.active[0]
    agent.stats.successes, agent.stats.failures = 3, 1
    probe = _goal("p", set(list(agent.goal.tokens)[:2]) | {"zz"})
    sim = similarity(agent.goal, probe)
    assert sim == pytest.approx(0.5)  # 2 shared of 4
    got = compatibility(agent, sim, agent.goal.input_schema)
    assert got == pytest.approx(0.5 * sim + 0.5 * 0.75)


def test_compatibility_gate_can_be_disabled():
    net = chain_pool(3)
    agent = net.active[1]
    assert compatibility(agent, similarity(agent.goal, agent.goal), frozenset(),
                         input_gate=False) > 0.0


# --- select --------------------------------------------------------------------------


def test_select_single_candidate_is_certain():
    net = chain_pool(1)
    agent = net.active[0]
    rng = random.Random(0)
    assert all(select([(agent, 1.0)], rng) is agent for _ in range(50))


def test_select_probabilities_sum_to_one():
    net = chain_pool(5)
    candidates = [(a, 0.25 * (i + 1)) for i, a in enumerate(net.active)]
    probs = selection_probabilities(candidates)
    assert abs(sum(probs) - 1.0) <= 1e-9


def test_select_two_candidate_closed_form():
    net = chain_pool(2)
    a, b = net.active
    a.life, b.life = 10.0, 30.0
    rng = random.Random(1234)
    draws = 20000
    hits = sum(1 for _ in range(draws) if select([(a, 1.0), (b, 1.0)], rng) is a)
    assert abs(hits / draws - 0.25) <= 0.02


def test_select_zero_life_never_selected():
    net = chain_pool(2)
    a, b = net.active
    a.life = 0.0
    rng = random.Random(5)
    assert all(select([(a, 1.0), (b, 1.0)], rng) is b for _ in range(2000))


def test_select_uniform_chi_square_not_rejected():
    net = chain_pool(4)
    for agent in net.active:
        agent.life = 10.0
    candidates = [(a, 1.0) for a in net.active]
    rng = random.Random(99)
    draws = 100000
    counts = {a.agent_id: 0 for a in net.active}
    for _ in range(draws):
        counts[select(candidates, rng).agent_id] += 1
    expected = draws / len(counts)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square critical value, 3 degrees of freedom, alpha = 0.001
    assert stat < 16.266


def test_select_all_zero_weights_raises():
    net = chain_pool(2)
    with pytest.raises(NoEligibleAgent):
        select([(net.active[0], 0.0), (net.active[1], 0.0)], random.Random(0))
    with pytest.raises(NoEligibleAgent):
        select([], random.Random(0))


# --- update_life ----------------------------------------------------------------------


def test_update_life_zero_outcome_is_identity():
    net = chain_pool(1)
    agent = net.active[0]
    before = agent.life
    assert update_life(agent, Outcome(), net.config) == before


def test_update_life_default_reward_arithmetic():
    net = chain_pool(1)
    agent = net.active[0]
    agent.life = 10.0
    assert update_life(agent, Outcome(r_correct=1), net.config) == 13.0
    assert agent.stats.successes == 1


def test_update_life_clamps_at_zero():
    net = chain_pool(1)
    agent = net.active[0]
    agent.life = 2.0
    assert update_life(agent, Outcome(p_fail=1), net.config) == 0.0
    assert agent.stats.failures == 1


def test_update_life_clamps_at_maximum():
    config = LifeConfig(l_init=9.0, l_max=10.0)
    net = chain_pool(1, life=config)
    agent = net.active[0]
    assert update_life(agent, Outcome(r_correct=1, r_reuse=1, r_general=1), config) == 10.0


def test_update_life_monotone_under_one_sided_streams():
    net = chain_pool(1)
    agent = net.active[0]
    last = agent.life
    for _ in range(30):
        now = update_life(agent, Outcome(r_correct=1, r_reuse=1), net.config)
        assert now >= last
        assert 0.0 <= now <= net.config.l_max
        last = now
    for _ in range(60):
        now = update_life(agent, Outcome(p_fail=1, p_drift=1, p_redundant=0.5), net.config)
        assert now <= last
        assert 0.0 <= now <= net.config.l_max
        last = now


def test_outcome_exclusivity_enforced():
    with pytest.raises(ValueError):
        Outcome(r_correct=1, p_fail=1)


# --- eliminate_and_refresh ---------------------------------------------------------------


def _partition_holds(net: AgentNetwork) -> bool:
    active_ids = {a.agent_id for a in net.active}
    archive_ids = {a.agent_id for a in net.archive}
    return not (active_ids & archive_ids)


def test_refresh_noop_when_all_alive_and_covered():
    net = chain_pool(4)
    log = eliminate_and_refresh(net)
    assert log == ChangeLog()
    assert net.epoch == 1
    assert len(net.active) == 4 and not net.archive


def test_dead_agent_moves_to_archive():
    net = chain_pool(4, life=LifeConfig(refresh_period=100))
    net.epoch = 1  # off the refresh tick, so the hole stays open
    net.active[2].life = 0.0
    dead_id = net.active[2].agent_id
    log = eliminate_and_refresh(net)
    assert log.archived == [dead_id]
    assert dead_id in {a.agent_id for a in net.archive}
    assert dead_id not in {a.agent_id for a in net.active}
    assert _partition_holds(net)


def test_refresh_revives_best_success_ratio_from_archive():
    net = chain_pool(3)
    goal = net.training[1][0]
    # two archived agents covering the same goal: 5/6 beats 2/3
    worse = net.active[1]
    worse.life = 0.0
    worse.stats.successes, worse.stats.failures = 2, 1
    eliminate_and_refresh(net)  # epoch 0 tick: archives worse, spawns a stand-in
    spawned = [a for a in net.active if a.goal.id == goal.id][0]
    spawned.life = 0.0
    spawned.stats.successes, spawned.stats.failures = 5, 1
    net.epoch = net.config.refresh_period  # force the next refresh tick
    log = eliminate_and_refresh(net)
    assert spawned.agent_id in log.archived  # first archived on this tick
    assert log.revived == [spawned.agent_id]  # then revived as the 5/6 candidate
    revived = [a for a in net.active if a.goal.id == goal.id]
    assert len(revived) == 1
    assert revived[0].agent_id == spawned.agent_id
    assert revived[0].life == net.config.l_init
    assert _partition_holds(net)


def test_refresh_spawns_when_archive_has_no_cover():
    net = chain_pool(2)
    goal = net.training[0][0]
    agent_named(net, goal.id).life = 0.0
    net.epoch = 1  # off the refresh tick, so the hole stays open
    eliminate_and_refresh(net)
    net.archive.clear()  # nothing left to revive; the archive has no index
    net.epoch = net.config.refresh_period  # force the refresh tick
    log = eliminate_and_refresh(net)
    assert len(log.spawned) == 1
    assert any(a.goal.id == goal.id and a.life == net.config.l_init for a in net.active)
    assert _partition_holds(net)


def test_partition_invariant_under_random_event_stream():
    rng = random.Random(8)
    net = chain_pool(6)
    for _ in range(40):
        agent = rng.choice(net.active)
        outcome = Outcome(p_fail=1) if rng.random() < 0.6 else Outcome(r_correct=1)
        update_life(agent, outcome, net.config)
        eliminate_and_refresh(net)
        assert _partition_holds(net)
        assert all(a.life > 0 for a in net.active)
        assert all(0.0 <= a.life <= net.config.l_max for a in net.active + net.archive)


# The full-pool scans that the indexed reads replaced, kept as the reference they must equal.


def _scan_retrieve(net, goal, theta):
    scored = [(a, similarity(a.goal, goal)) for a in net.active]
    scored = [(a, s) for a, s in scored if s > theta]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0].agent_id))


def _scan_cover_split(net, goal):
    residual = set(goal.tokens)
    pool = sorted(net.active, key=lambda a: a.agent_id)
    parts = []
    while residual:
        best, best_overlap = None, 0
        for agent in pool:
            overlap = len(agent.goal.tokens & residual)
            if overlap > best_overlap:
                best, best_overlap = agent, overlap
        if best is None:
            raise DecompositionFailure(
                f"tokens {sorted(residual)} of goal {goal.id!r} are not coverable"
            )
        parts.append(best.goal)
        residual -= best.goal.tokens
    return parts


def _scan_is_novel(net, goal):
    return all(similarity(g, goal) < 1.0 for g, _ in net.training)


def _split_or_error(split, net, goal):
    try:
        return split(net, goal)
    except DecompositionFailure as exc:
        return str(exc)


def _random_probe(rng, net, index):
    """A whole training goal, a union of two, or a token mix, sometimes with a token
    no agent holds."""
    goals = [g for g, _ in net.training]
    kind = rng.randrange(3)
    if kind == 0:
        tokens = set(rng.choice(goals).tokens)
    elif kind == 1:
        tokens = set().union(*(g.tokens for g in rng.sample(goals, 2)))
    else:
        vocab = sorted(set().union(*(g.tokens for g in goals)))
        tokens = set(rng.sample(vocab, rng.randint(1, min(6, len(vocab)))))
    if rng.random() < 0.2:
        tokens.add("unheld:token")
    return _goal(f"probe-{index}", tokens)


@pytest.mark.parametrize("pool", ["chain", "default-profile"])
def test_indexed_reads_equal_a_full_scan_under_random_churn(pool):
    if pool == "chain":
        net = chain_pool(8, life=LifeConfig(refresh_period=3))
    else:
        records = cp.generate(cp.default_profile(total=120), seed=7)
        net = build_agents([(r.goal, r.workflow) for r in records],
                           config=LifeConfig(refresh_period=3))
    rng = random.Random(12)
    totals = {"archived": 0, "revived": 0, "spawned": 0}
    for _ in range(60):
        for agent in rng.sample(net.active[:10], 3):  # churn a few agents hard
            outcome = Outcome(p_fail=1) if rng.random() < 0.7 else Outcome(r_correct=1)
            update_life(agent, outcome, net.config)
        if rng.random() < 0.15:
            net.archive.clear()  # the next refresh tick must spawn, not revive
        log = eliminate_and_refresh(net)
        for name in totals:
            totals[name] += len(getattr(log, name))
        for index in range(8):
            probe = _random_probe(rng, net, index)
            for theta in (0.0, 0.5, 1.0):
                assert retrieve(net, probe, theta) == _scan_retrieve(net, probe, theta)
            assert (_split_or_error(cover_split, net, probe)
                    == _split_or_error(_scan_cover_split, net, probe))
            assert is_novel(net, probe) == _scan_is_novel(net, probe)
    assert all(count > 0 for count in totals.values()), totals


def test_memoised_reads_follow_every_membership_change():
    # A's tokens are the probe's; C covers two of them and B the third, so
    # the answers differ with A active and A gone
    goals = [_goal("A", {"a1", "a2", "a3"}), _goal("B", {"a1", "b1"}),
             _goal("C", {"a2", "a3", "c1"})]
    net = build_agents([(g, chain_flow([k], gid=g.id)) for k, g in enumerate(goals)],
                       config=LifeConfig(refresh_period=100))
    probe = _goal("probe", {"a1", "a2", "a3"})

    def reads():
        # asked twice: the second answer comes from the memo
        for _ in range(2):
            answer = ([(a.agent_id, s) for a, s in retrieve(net, probe, 0.0)],
                      [g.id for g in cover_split(net, probe)])
        return answer

    with_a = ([("A", 1.0), ("C", 0.5), ("B", 0.25)], ["A"])
    without_a = ([("C", 0.5), ("B", 0.25)], ["C", "B"])
    assert reads() == with_a

    agent_named(net, "A").life = 0.0
    net.epoch = 1  # off the refresh tick: A is archived, not replaced
    assert eliminate_and_refresh(net).archived == ["A"]
    assert reads() == without_a

    net.epoch = net.config.refresh_period
    assert eliminate_and_refresh(net).revived == ["A"]
    assert reads() == with_a

    agent_named(net, "A").life = 0.0
    net.epoch = 1
    eliminate_and_refresh(net)
    assert reads() == without_a
    net.archive.clear()  # nothing to revive: the refresh spawns a new A
    net.epoch = net.config.refresh_period
    (spawned_id,) = eliminate_and_refresh(net).spawned
    spawned = agent_named(net, spawned_id)
    assert reads() == ([(spawned_id, 1.0), ("C", 0.5), ("B", 0.25)], ["A"])
    assert retrieve(net, probe, 0.0)[0][0] is spawned


def test_compatibility_exact_example_point_675():
    net = chain_pool(1)
    agent = net.active[0]
    agent.stats.successes, agent.stats.failures = 3, 1  # prior 0.75
    # share all 3 agent tokens inside a 5-token probe: similarity 0.6
    probe = _goal("probe", set(agent.goal.tokens) | {"pp:1", "pp:2"})
    assert compatibility(agent, similarity(agent.goal, probe),
                         agent.goal.input_schema) == pytest.approx(0.675)
