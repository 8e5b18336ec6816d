import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsmith import workflow as wf
from flowsmith.errors import EmptyGoal
from flowsmith.goals import Goal, schema_compat, similarity

from .conftest import chain_flow, mk_flow, mk_task


def g(gid, tokens, ins=(), outs=()):
    return Goal(id=gid, tokens=frozenset(tokens), input_schema=frozenset(ins),
                output_schema=frozenset(outs))


def test_identical_goals_score_one():
    a = g("a", {"query", "customer"})
    b = g("b", {"query", "customer"})
    assert similarity(a, b) == 1.0


def test_disjoint_token_sets_score_zero():
    assert similarity(g("a", {"x"}), g("b", {"y"})) == 0.0


def test_hand_computed_jaccard():
    a = g("a", {"query", "customer", "id"})
    b = g("b", {"query", "customer", "email"})
    assert similarity(a, b) == pytest.approx(0.5)  # 2 shared of 4 total


def test_empty_goal_rejected_at_construction():
    with pytest.raises(EmptyGoal):
        Goal(id="bad", tokens=frozenset())


_token_sets = st.sets(st.sampled_from([f"tok{i}" for i in range(12)]), min_size=1, max_size=6)


@given(_token_sets, _token_sets)
@settings(max_examples=500, deadline=None)
def test_similarity_symmetric_and_bounded(ta, tb):
    a, b = g("a", ta), g("b", tb)
    ab = similarity(a, b)
    assert ab == similarity(b, a)
    assert 0.0 <= ab <= 1.0
    assert similarity(a, a) == 1.0


_token_pool = [f"tok{i}" for i in range(12)]


@st.composite
def _token_set_pairs(draw):
    """Two token sets that are disjoint, overlapping, one inside the other, or equal."""
    shape = draw(st.sampled_from(["disjoint", "overlapping", "subset", "equal"]))
    x = draw(st.sets(st.sampled_from(_token_pool), min_size=1, max_size=6))
    rest = [t for t in _token_pool if t not in x]
    if shape == "disjoint":
        y = draw(st.sets(st.sampled_from(rest), min_size=1, max_size=6))
    elif shape == "overlapping":
        y = {draw(st.sampled_from(sorted(x)))} | draw(
            st.sets(st.sampled_from(rest), min_size=1, max_size=5))
    elif shape == "subset":
        y = draw(st.sets(st.sampled_from(sorted(x)), min_size=1, max_size=len(x)))
    else:
        y = set(x)
    return (x, y) if draw(st.booleans()) else (y, x)


@given(_token_set_pairs())
@settings(max_examples=500, deadline=None)
def test_similarity_is_exactly_the_set_built_jaccard(pair):
    x, y = pair
    score = similarity(g("a", x), g("b", y))
    assert score == len(x & y) / len(x | y)
    assert (score == 0.0) == x.isdisjoint(y)
    assert (score == 1.0) == (x == y)


def test_schema_compat_trivials():
    consumer_free = g("c", {"t"}, ins=())
    assert schema_compat(frozenset(), consumer_free)
    consumer_x = g("c2", {"t"}, ins={"x"})
    assert not schema_compat(frozenset(), consumer_x)
    assert schema_compat({"x", "y"}, consumer_x)


def test_chained_schema_compat_matches_validator_verdict():
    # four goals chained by their procedures' field flow
    flows = [chain_flow([k]) for k in range(4)]
    goals = [g(f"g{k}", {f"g{k}"}, ins=flows[k].declared_inputs,
               outs=flows[k].declared_outputs) for k in range(4)]
    available = set(goals[0].input_schema)
    compat_ok = True
    for goal in goals:
        compat_ok = compat_ok and schema_compat(available, goal)
        available |= set(goal.output_schema)
    composite = flows[0]
    for flow in flows[1:]:
        composite = wf.concat(composite, flow)
    assert compat_ok == (not wf.validate(composite))


def test_schema_compat_mismatch_also_matches_validator():
    a = mk_flow(mk_task("a", {"x"}, {"y"}), ins={"x"})
    b = mk_flow(mk_task("b", {"q"}, {"r"}), ins={"q"})
    goal_b = g("gb", {"b"}, ins={"q"})
    composite = wf.concat(a, b)
    assert schema_compat(a.declared_inputs | a.declared_outputs, goal_b) \
        == (not wf.validate(composite))


def test_threshold_monotonicity_of_retrieval_sets():
    rng = random.Random(3)
    pool = [g(f"g{i}", {f"tok{rng.randrange(8)}" for _ in range(3)} or {"tok0"})
            for i in range(40)]
    probe = g("probe", {"tok0", "tok1", "tok2"})
    for theta_low, theta_high in [(0.1, 0.4), (0.3, 0.8), (0.0, 0.99)]:
        low = {cand.id for cand in pool if similarity(cand, probe) > theta_low}
        high = {cand.id for cand in pool if similarity(cand, probe) > theta_high}
        assert high <= low


def test_goal_doc_round_trip_and_oracle_strip():
    from flowsmith.goals import goal_from_doc, goal_to_doc
    goals = [
        g("atom", {"a", "b"}, ins={"x"}, outs={"y"}),
        Goal(id="composite", tokens=frozenset({"a", "c"}),
             input_schema=frozenset({"x"}), output_schema=frozenset({"z"}),
             subgoal_template=("atom", "other")),
    ]
    docs = [goal_to_doc(goal) for goal in goals]
    back = [goal_from_doc(doc) for doc in docs]
    assert back == goals
    solver_view = [goal_from_doc(doc, strip_oracle=True) for doc in docs]
    assert all(goal.subgoal_template is None for goal in solver_view)


def test_similarity_symmetry_over_ten_thousand_random_pairs():
    rng = random.Random(123)
    vocab = [f"tok{i}" for i in range(20)]
    for _ in range(10000):
        a = g("a", {rng.choice(vocab) for _ in range(rng.randint(1, 6))})
        b = g("b", {rng.choice(vocab) for _ in range(rng.randint(1, 6))})
        assert similarity(a, b) == similarity(b, a)
