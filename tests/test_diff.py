import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from flowsmith import workflow as wf

from .conftest import chain_flow, chain_tasks, corpus_flows, mk_flow
from .test_workflow import _node_strategy


def _random_small_flow(rng: random.Random) -> wf.Workflow:
    size = rng.randint(2, 6)
    indices = rng.sample(range(10), size)
    return chain_flow(indices)


def test_diff_identical_flows_is_empty():
    flow = chain_flow([0, 1, 2])
    assert wf.diff(flow, flow) == ()


def test_diff_single_deletion_fault_yields_single_insert():
    rng = random.Random(42)
    for _ in range(200):
        expected = _random_small_flow(rng)
        kids = list(wf.child_list(expected.root))
        pos = rng.randrange(len(kids))
        faulty = mk_flow(kids[:pos] + kids[pos + 1:], ins=expected.declared_inputs,
                         outs=expected.declared_outputs)
        script = wf.diff(faulty, expected)
        assert len(script) == 1
        assert isinstance(script[0], wf.InsertNode)
        assert script[0].path == (pos,)
        assert wf.structurally_equal(wf.apply_edits(script, faulty), expected)


def test_diff_spurious_insertion_fault_yields_single_delete():
    rng = random.Random(43)
    for _ in range(200):
        expected = _random_small_flow(rng)
        kids = list(wf.child_list(expected.root))
        pos = rng.randrange(len(kids) + 1)
        extra = chain_tasks([rng.randrange(10, 20)])[0]
        faulty = mk_flow(kids[:pos] + [extra] + kids[pos:], ins=expected.declared_inputs,
                         outs=expected.declared_outputs)
        script = wf.diff(faulty, expected)
        assert len(script) == 1
        assert isinstance(script[0], wf.DeleteNode)
        assert wf.structurally_equal(wf.apply_edits(script, faulty), expected)


def test_diff_adjacent_swap_yields_single_reorder():
    rng = random.Random(44)
    for _ in range(200):
        expected = _random_small_flow(rng)
        kids = list(wf.child_list(expected.root))
        pos = rng.randrange(len(kids) - 1)
        swapped = list(kids)
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        faulty = mk_flow(swapped, ins=expected.declared_inputs,
                         outs=expected.declared_outputs)
        script = wf.diff(faulty, expected)
        assert len(script) == 1
        assert isinstance(script[0], wf.ReorderChildren)
        assert wf.structurally_equal(wf.apply_edits(script, faulty), expected)


def test_diff_deterministic():
    flows = corpus_flows(40, seed=91)
    for a in flows[:10]:
        for b in flows[10:20]:
            assert wf.diff(a, b) == wf.diff(a, b)


def _mutate(flow: wf.Workflow, rng: random.Random) -> wf.Workflow:
    kids = list(wf.child_list(wf.normalize_node(flow.root)))
    op = rng.choice(("insert", "delete", "swap"))
    if op == "insert" or len(kids) < 2:
        node = chain_tasks([rng.randrange(0, 20)])[0]
        pos = rng.randrange(len(kids) + 1)
        kids.insert(pos, node)
    elif op == "delete":
        del kids[rng.randrange(len(kids))]
    else:
        pos = rng.randrange(len(kids) - 1)
        kids[pos], kids[pos + 1] = kids[pos + 1], kids[pos]
    return mk_flow(kids, ins=flow.declared_inputs, outs=flow.declared_outputs)


def test_diff_apply_round_trip_within_edit_distance_three():
    rng = random.Random(45)
    flows = corpus_flows(150, seed=92, min_nodes=2)
    for _ in range(1000):
        source = rng.choice(flows)
        target = source
        for _ in range(rng.randint(1, 3)):
            target = _mutate(target, rng)
        script = wf.diff(source, target)
        assert wf.structurally_equal(wf.apply_edits(script, source), target)


def test_diff_apply_round_trip_on_arbitrary_pairs():
    # no edit-distance bound at all: scripts may be long but must round-trip
    rng = random.Random(46)
    flows = corpus_flows(120, seed=93)
    for _ in range(400):
        a, b = rng.choice(flows), rng.choice(flows)
        assert wf.structurally_equal(wf.apply_edits(wf.diff(a, b), a), b)


def test_diff_recurses_into_nest_bodies():
    t0, t1, t2 = chain_tasks([0, 1, 2])
    a = mk_flow(wf.Nest("sub", wf.Sequence((t0, t1))), ins={"seed"})
    b = mk_flow(wf.Nest("sub", wf.Sequence((t0, t1, t2))), ins={"seed"})
    script = wf.diff(a, b)
    assert len(script) == 1
    assert isinstance(script[0], wf.InsertNode)
    assert wf.structurally_equal(wf.apply_edits(script, a), b)


# --- against the previous diff, which prechecked reorders with Counter ---------------


def _reference_diff_children(s, t, path):
    if s == t:
        return []
    if len(s) == len(t) and Counter(s) == Counter(t):
        used = [False] * len(s)
        perm = []
        for item in t:
            for j, src in enumerate(s):
                if not used[j] and src == item:
                    used[j] = True
                    perm.append(j)
                    break
        return [wf.ReorderChildren(path, tuple(perm))]
    pairs = wf._lcs_pairs(s, t)
    matched_s = {i for i, _ in pairs}
    matched_t = {j for _, j in pairs}
    unmatched_s = [i for i in range(len(s)) if i not in matched_s]
    unmatched_t = [j for j in range(len(t)) if j not in matched_t]
    if len(s) == len(t) and unmatched_s == unmatched_t:
        edits = []
        for i in unmatched_s:
            edits.extend(_reference_diff_nodes(s[i], t[i], path + (i,)))
        return edits
    edits = [wf.DeleteNode(path + (i,)) for i in reversed(unmatched_s)]
    edits.extend(wf.InsertNode(path + (j,), t[j]) for j in unmatched_t)
    return edits


def _reference_diff_nodes(src, tgt, path):
    if src == tgt:
        return []
    if isinstance(src, wf.Sequence) or isinstance(tgt, wf.Sequence):
        return _reference_diff_children(wf.child_list(src), wf.child_list(tgt), path)
    if type(src) is not type(tgt) or isinstance(src, wf.TaskNode):
        return [wf.ReplaceSubtree(path, tgt)]
    if isinstance(src, wf.Nest):
        if src.sub_goal_id != tgt.sub_goal_id:
            return [wf.ReplaceSubtree(path, tgt)]
        return _reference_diff_nodes(src.body, tgt.body, path + (0,))
    if src.cond != tgt.cond or (src.orelse is None) != (tgt.orelse is None):
        return [wf.ReplaceSubtree(path, tgt)]
    edits = _reference_diff_nodes(src.then, tgt.then, path + (0,))
    if src.orelse is not None:
        edits.extend(_reference_diff_nodes(src.orelse, tgt.orelse, path + (1,)))
    return edits


def _reference_diff(source, target):
    src = wf.normalize_node(source.root)
    tgt = wf.normalize_node(target.root)
    return tuple(_reference_diff_children(wf.child_list(src), wf.child_list(tgt), ()))


def _shuffle_siblings(node, rng):
    """The same tree with the children of every Sequence in a random order."""
    if isinstance(node, wf.Sequence):
        kids = [_shuffle_siblings(c, rng) for c in node.children]
        rng.shuffle(kids)
        return wf.Sequence(tuple(kids))
    if isinstance(node, wf.Nest):
        return wf.Nest(node.sub_goal_id, _shuffle_siblings(node.body, rng))
    if isinstance(node, wf.Branch):
        orelse = _shuffle_siblings(node.orelse, rng) if node.orelse is not None else None
        return wf.Branch(node.cond, _shuffle_siblings(node.then, rng), orelse)
    return node


def _check_against_reference(a, b):
    script = wf.diff(a, b)
    assert script == _reference_diff(a, b)
    assert (script == ()) == wf.structurally_equal(a, b)


@given(_node_strategy(branches=True), _node_strategy(branches=True), st.randoms())
@settings(max_examples=300, deadline=None)
def test_diff_matches_previous_diff_on_random_pairs_and_shuffles(a, b, rng):
    flow_a, flow_b = wf.Workflow(root=a), wf.Workflow(root=b)
    _check_against_reference(flow_a, flow_b)
    shuffled = wf.Workflow(root=_shuffle_siblings(a, rng))
    _check_against_reference(flow_a, shuffled)
    _check_against_reference(shuffled, flow_a)



def _reference_permutation(s, t):
    """_permutation as it was: each item matched by equality alone."""
    used = [False] * len(s)
    perm = []
    for item in t:
        for j, src in enumerate(s):
            if not used[j] and src == item:
                used[j] = True
                perm.append(j)
                break
        else:
            return None
    return tuple(perm)


# Two pools of equal tasks: within a pool the items are one object, across them
# equal objects that are not identical.
_POOLS = (tuple(chain_tasks(range(4))), tuple(chain_tasks(range(4))))


@given(st.lists(st.integers(0, 3), max_size=6).flatmap(
           lambda ks: st.tuples(st.just(ks), st.permutations(ks))),
       st.lists(st.integers(0, 3), max_size=6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_permutation_matches_its_equality_only_definition(pair, other, across):
    ks, shuffled = pair
    s = tuple(_POOLS[0][k] for k in ks)
    pool = _POOLS[int(across)]
    for t in (tuple(pool[k] for k in shuffled), tuple(pool[k] for k in other)):
        assert wf._permutation(s, t) == _reference_permutation(s, t)
