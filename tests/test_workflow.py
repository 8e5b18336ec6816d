import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsmith import workflow as wf
from flowsmith.errors import BadPath, InvalidWorkflow

from .conftest import (
    chain_flow,
    chain_tasks,
    corpus_flows,
    cyclic_garbage,
    mk_flow,
    mk_task,
    oracle_metrics,
    oracle_task_tools,
    oracle_validate,
    prune_branches,
    random_flow,
)


# --- construction invariants -----------------------------------------------------


def test_task_requires_tool_id():
    with pytest.raises(ValueError):
        mk_task("")


@pytest.mark.parametrize("key, value", [
    ("tool_id", 5), ("tool_id", ""), ("params", {"x": [1]}), ("params", {"x": {}}),
    ("params", [["x", 1]]),
])
def test_task_document_with_ill_typed_tool_id_or_params_is_rejected(key, value):
    doc = {"kind": "task", "tool_id": "a", "input_schema": [], "output_schema": ["y"],
           "params": {"n": 1.5, "i": 2, "s": "v", "b": True, "z": None}}
    wf.node_from_doc(doc)  # every JSON scalar is a param value
    with pytest.raises(ValueError, match=key):
        wf.node_from_doc({**doc, key: value})


def test_predicate_value_rules():
    wf.Predicate("k", "equals", 3)
    wf.Predicate("k", "exists")
    with pytest.raises(ValueError):
        wf.Predicate("k", "equals")
    with pytest.raises(ValueError):
        wf.Predicate("k", "exists", 1)
    with pytest.raises(ValueError):
        wf.Predicate("k", "between", 1)


# --- validate ---------------------------------------------------------------------


@pytest.mark.parametrize("orelse, produced", [
    (mk_task("b", {"x"}, {"q", "r"}), {"q"}),
    (None, set()),
], ids=["with-else", "without-else"])
def test_produced_fields_of_a_branch_counts_what_both_arms_produce(orelse, produced):
    then = mk_task("a", {"x"}, {"p", "q"})
    assert wf.produced_fields(wf.Branch(wf.Predicate("x", "exists"), then, orelse)) == produced


def test_validate_single_task_within_declared_inputs():
    flow = mk_flow(mk_task("a", {"x"}, {"y"}), ins={"x"})
    assert not wf.validate(flow)


def test_validate_flags_unbound_input():
    a = mk_task("a", {"x"}, {"y"})
    b = mk_task("b", {"z"}, {"w"})  # z neither declared nor produced by a
    assert wf.validate(mk_flow([a, b], ins={"x"})) == ("unbound input ['z'] for task 'b' at [1]",)


def test_validate_branch_arms_checked_independently():
    a = mk_task("a", {"x"}, {"y"})
    arm = mk_task("c", {"y"}, {"q"})  # sees the scope from before the branch
    flow = mk_flow([a, wf.Branch(wf.Predicate("x", "exists"), arm, None)], ins={"x"})
    assert not wf.validate(flow)


def test_validate_nest_inherits_scope():
    a = mk_task("a", {"x"}, {"y"})
    inner = mk_task("b", {"y"}, {"z"})
    flow = mk_flow([a, wf.Nest("sub", inner)], ins={"x"})
    assert not wf.validate(flow)


def test_validate_empty_sequence_only_at_root():
    assert not wf.validate(mk_flow([]))  # the empty workflow
    bad = mk_flow([mk_task("a", (), {"y"}), wf.Sequence(())])
    assert wf.validate(bad) == ("empty sequence at [1]",)


def test_validate_agrees_with_independent_oracle_on_random_flows():
    rng = random.Random(2024)
    for _ in range(300):
        flow = random_flow(rng)
        assert (not wf.validate(flow)) == oracle_validate(flow)


def test_generated_corpus_flows_all_validate(small_corpus):
    # cross-check with the recursive-descent oracle, written first
    for record in small_corpus:
        assert oracle_validate(record.workflow)
        assert not wf.validate(record.workflow)


# --- metrics ----------------------------------------------------------------------


def test_metrics_single_task():
    m = wf.metrics(mk_flow(mk_task("a", (), {"y"})))
    assert (m.length, m.depth, m.branch_count) == (1, 0, 0)


def test_metrics_nested_chain_counts_depth():
    inner = mk_task("a", (), {"y"})
    flow = mk_flow(wf.Nest("s1", wf.Nest("s2", inner)))
    m = wf.metrics(flow)
    assert (m.length, m.depth) == (1, 2)


def test_metrics_mixed_tree_hand_count():
    t = lambda name: mk_task(name, (), {name + "_o"})
    root = wf.Sequence((
        t("a"),
        wf.Branch(wf.Predicate("p", "exists"), t("b"), t("c")),
        wf.Nest("sub", wf.Sequence((t("d"), t("e")))),
    ))
    flow = wf.Workflow(root=root)
    m = wf.metrics(flow)
    assert (m.length, m.depth, m.branch_count) == (5, 1, 1)
    assert oracle_metrics(root) == (5, 1, 1)


def test_metrics_rejects_invalid_flow():
    bad = mk_flow(mk_task("a", {"missing"}, {"y"}))
    with pytest.raises(InvalidWorkflow):
        wf.metrics(bad)


def test_metrics_matches_oracle_on_random_flows():
    rng = random.Random(7)
    for _ in range(200):
        flow = random_flow(rng)
        m = wf.node_metrics(flow.root)
        assert (m.length, m.depth, m.branch_count) == oracle_metrics(flow.root)


# --- flatten ----------------------------------------------------------------------


def test_flatten_identity_on_flat_flow():
    flow = chain_flow([0, 1, 2])
    assert wf.flatten(flow).root == wf.normalize_node(flow.root)


def test_flatten_unwraps_single_nest():
    t1, t2 = chain_tasks([0, 1])
    flow = mk_flow(wf.Nest("sub", wf.Sequence((t1, t2))), ins={"seed"})
    assert wf.flatten(flow).root == wf.Sequence((t1, t2))


def test_flatten_idempotent_and_order_preserving_on_corpus_flows():
    for flow in corpus_flows(500, seed=31):
        once = wf.flatten(flow)
        twice = wf.flatten(once)
        assert once.root == twice.root
        assert wf.node_metrics(once.root).depth == 0
        assert oracle_task_tools(once.root) == oracle_task_tools(flow.root)


# --- concat -----------------------------------------------------------------------


def test_concat_empty_is_identity():
    flow = chain_flow([0, 1])
    empty = mk_flow([])
    assert wf.structurally_equal(wf.concat(flow, empty), flow)
    assert wf.structurally_equal(wf.concat(empty, flow), flow)


def test_concat_interface_rules():
    a = chain_flow([0])
    b = chain_flow([1])
    joined = wf.concat(a, b)
    assert joined.declared_inputs == a.declared_inputs
    assert joined.declared_outputs == a.declared_outputs | b.declared_outputs

    # any number of flows splices as the left fold of binary concat
    def reference_concat(a, b):
        return wf.Workflow(root=wf.Sequence(wf.child_list(a.root) + wf.child_list(b.root)),
                           declared_inputs=a.declared_inputs,
                           declared_outputs=a.declared_outputs | b.declared_outputs)

    rng = random.Random(11)
    pool = [mk_flow([], ins={"seed"}, outs={"none"}), mk_flow(chain_tasks([3])[0], {"o2"}, {"o3"})]
    for _ in range(300):
        flows = [rng.choice(pool) if rng.random() < 0.3 else random_flow(rng)
                 for _ in range(rng.randint(1, 5))]
        folded = flows[0]
        for w in flows[1:]:
            assert wf.concat(folded, w) == reference_concat(folded, w)
            folded = reference_concat(folded, w)
        joined = wf.concat(*flows)
        assert joined.root == folded.root
        assert joined.declared_inputs == folded.declared_inputs
        assert joined.declared_outputs == folded.declared_outputs
    assert wf.concat(a) is a


def test_concat_length_additive_over_random_pairs():
    flows = corpus_flows(200, seed=77)
    rng = random.Random(9)
    for _ in range(1000):
        a, b = rng.choice(flows), rng.choice(flows)
        joined = wf.concat(a, b)
        got = wf.node_metrics(joined.root).length
        want = wf.node_metrics(a.root).length + wf.node_metrics(b.root).length
        assert got == want


def test_concat_associative_modulo_normalization():
    flows = corpus_flows(120, seed=78)
    rng = random.Random(10)
    for _ in range(400):
        a, b, c = rng.choice(flows), rng.choice(flows), rng.choice(flows)
        left = wf.concat(wf.concat(a, b), c)
        right = wf.concat(a, wf.concat(b, c))
        assert wf.structurally_equal(left, right)


# --- branch -----------------------------------------------------------------------


def test_branch_increments_branch_count_only():
    host = chain_flow([0, 1])
    alt = chain_flow([2])
    before = wf.node_metrics(host.root)
    guarded = wf.branch(host, wf.Predicate("nope", "exists"), alt)
    after = wf.node_metrics(guarded.root)
    assert after.branch_count == before.branch_count + 1
    assert after.depth == before.depth  # alt is flat


def test_branch_statically_false_prunes_to_host_order():
    host = chain_flow([0, 1])
    alt = chain_flow([2])
    cond = wf.Predicate("seed", "not_exists")  # seed is declared, so always false
    guarded = wf.branch(host, cond, alt)
    context = {name: True for name in guarded.declared_inputs}
    pruned = prune_branches(wf.flatten(guarded).root, context)
    assert oracle_task_tools(pruned) == oracle_task_tools(host.root)


def test_branch_preserves_main_path_and_interface():
    host = chain_flow([0, 1])
    guarded = wf.branch(host, wf.Predicate("seed", "exists"), chain_flow([3]))
    assert oracle_task_tools(guarded.root)[: 2] == oracle_task_tools(host.root)
    assert guarded.declared_outputs == host.declared_outputs


# --- nest -------------------------------------------------------------------------


def test_nest_at_root_adds_one_level():
    host = chain_flow([0, 1])
    nested = wf.nest(host, (), "sub", host)
    assert wf.node_metrics(nested.root).depth == 1


def test_nest_flatten_splice_oracle():
    host = chain_flow([0, 1, 2])
    body = chain_flow([5, 6])
    nested = wf.nest(host, (1,), "sub", body)
    got = oracle_task_tools(wf.flatten(nested).root)
    host_tools = oracle_task_tools(wf.flatten(host).root)
    want = host_tools[:1] + oracle_task_tools(body.root) + host_tools[2:]
    assert got == want


def test_nest_bad_path():
    host = chain_flow([0])
    with pytest.raises(BadPath):
        wf.nest(host, (4, 2), "sub", host)


def test_nest_depth_law_on_corpus_bodies():
    for body in corpus_flows(50, seed=55):
        host = chain_flow([0])
        nested = wf.nest(host, (), "sub", body)
        assert wf.node_metrics(nested.root).depth == wf.node_metrics(body.root).depth + 1


# --- serialization ------------------------------------------------------------------


def test_serialization_round_trip_bit_exact(small_corpus):
    for record in small_corpus:
        text = wf.dumps(record.workflow)
        back = wf.loads(text)
        assert back == record.workflow
        assert wf.dumps(back) == text


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        wf.canonical_json({"x": [value]})


def test_serialization_canonical_writer_is_byte_stable():
    flow = chain_flow([3, 1], wid="w", gid="g")
    assert wf.dumps(flow) == wf.dumps(wf.loads(wf.dumps(flow)))


def test_branch_and_params_serialize():
    task = mk_task("a", {"x"}, {"y"}, params={"mode": "fast", "limit": 3})
    flow = mk_flow([task, wf.Branch(wf.Predicate("y", "equals", 1), mk_task("b", {"y"}, {"z"}), task)],
                   ins={"x"})
    assert wf.loads(wf.dumps(flow)) == flow


# --- normalization properties (hypothesis) -------------------------------------------


_tasks = st.integers(min_value=0, max_value=9).map(lambda k: chain_tasks([k])[0])


def _node_strategy(branches: bool = False):
    """Random trees of chain tasks under Sequences and Nests; with ``branches``
    also Branch nodes (with and without an else arm) and empty Sequences."""
    leaves = st.one_of(_tasks, st.just(wf.Sequence(()))) if branches else _tasks
    guard = wf.Predicate("o1", "exists")

    def extend(inner):
        options = [
            st.lists(inner, min_size=1, max_size=4).map(lambda xs: wf.Sequence(tuple(xs))),
            inner.map(lambda n: wf.Nest("s", n)),
        ]
        if branches:
            options.append(st.tuples(inner, st.none() | inner)
                           .map(lambda arms: wf.Branch(guard, *arms)))
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=8)


def _reference_normalize(node):
    """The normalization before node sharing: every interior node is rebuilt."""
    if isinstance(node, wf.TaskNode):
        return node
    if isinstance(node, wf.Nest):
        return wf.Nest(node.sub_goal_id, _reference_normalize(node.body))
    if isinstance(node, wf.Branch):
        orelse = _reference_normalize(node.orelse) if node.orelse is not None else None
        return wf.Branch(node.cond, _reference_normalize(node.then), orelse)
    out = []
    for child in node.children:
        norm = _reference_normalize(child)
        if isinstance(norm, wf.Sequence):
            out.extend(norm.children)
        else:
            out.append(norm)
    if len(out) == 1:
        return out[0]
    return wf.Sequence(tuple(out))


def _subtrees(node):
    yield node
    for child in wf.children_of(node):
        yield from _subtrees(child)


@given(_node_strategy(branches=True))
@settings(max_examples=300, deadline=None)
def test_normalize_is_idempotent_and_preserves_tasks(node):
    once = wf.normalize_node(node)
    assert once == _reference_normalize(node)
    # a normal tree, and each of its subtrees, comes back as the same object
    for sub in _subtrees(once):
        assert wf.normalize_node(sub) is sub
    assert oracle_task_tools(once) == oracle_task_tools(node)


@given(_node_strategy(), _node_strategy())
@settings(max_examples=100, deadline=None)
def test_structural_equality_ignores_sequence_nesting(a, b):
    flow_a = wf.Workflow(root=wf.Sequence((a, b)))
    flow_b = wf.Workflow(root=wf.Sequence((wf.Sequence((a,)), wf.Sequence((b,)))))
    assert wf.structurally_equal(flow_a, flow_b)


@given(_node_strategy(), _node_strategy())
@settings(max_examples=150, deadline=None)
def test_structural_equality_agrees_with_independent_oracle(a, b):
    from .conftest import oracle_equal
    lib = wf.structurally_equal(wf.Workflow(root=a), wf.Workflow(root=b))
    assert lib == oracle_equal(a, b)


# --- normal form sharing, and traversals against the previous implementations -----


def _reference_task_order(node):
    """task_order as it was: one tuple built per level."""
    if isinstance(node, wf.TaskNode):
        return (node,)
    if isinstance(node, wf.Sequence):
        out = []
        for child in node.children:
            out.extend(_reference_task_order(child))
        return tuple(out)
    if isinstance(node, wf.Branch):
        out = list(_reference_task_order(node.then))
        if node.orelse is not None:
            out.extend(_reference_task_order(node.orelse))
        return tuple(out)
    return _reference_task_order(node.body)


def _reference_dead_node_ratio(w):
    """dead_node_ratio as it was: each task's schemas copied into sets."""
    tasks = _reference_task_order(w.root)
    if not tasks:
        return 0.0
    need = set(w.declared_outputs)
    dead = 0
    for task in reversed(tasks):
        outs = set(task.output_schema)
        if outs & need:
            need = (need - outs) | set(task.input_schema)
        else:
            dead += 1
    return dead / len(tasks)


def test_corpus_flows_are_their_own_normal_form(small_corpus):
    for record in small_corpus:
        assert record.workflow.normal_root is record.workflow.root


_fields = st.sets(st.sampled_from(["seed"] + [f"o{k}" for k in range(10)]), max_size=4)


@given(_node_strategy(branches=True), _fields)
@settings(max_examples=300, deadline=None)
def test_task_order_and_dead_node_ratio_match_previous_versions(node, outputs):
    assert wf.task_order(node) == _reference_task_order(node)
    flow = wf.Workflow(root=node, declared_outputs=outputs)
    assert wf.dead_node_ratio(flow) == _reference_dead_node_ratio(flow)



def _reference_shape_signature(w):
    """shape_signature as it was: the skeleton and tools of the tree
    normalized with strip_nests."""
    def skeleton(node):
        if isinstance(node, wf.TaskNode):
            return "t"
        if isinstance(node, wf.Sequence):
            return "(" + "".join(skeleton(c) for c in node.children) + ")"
        alt = skeleton(node.orelse) if node.orelse is not None else "-"
        return "[" + skeleton(node.then) + "|" + alt + "]"

    flat = wf.normalize_node(w.root, strip_nests=True)
    return skeleton(flat), tuple(sorted(t.tool_id for t in _reference_task_order(flat)))


def _reference_dataflow_violations(root, inputs):
    """dataflow_violations as it was: one pass that builds a path for every node."""
    violations = []

    def check(node, scope, path, is_root):
        if isinstance(node, wf.TaskNode):
            missing = node.input_schema - scope
            if missing:
                violations.append(
                    f"unbound input {sorted(missing)} for task {node.tool_id!r} at {list(path)}")
            return node.output_schema
        if isinstance(node, wf.Sequence):
            if not node.children and not is_root:
                violations.append(f"empty sequence at {list(path)}")
            acc = frozenset()
            for i, child in enumerate(node.children):
                acc |= check(child, scope | acc, path + (i,), False)
            return acc
        if isinstance(node, wf.Branch):
            then_out = check(node.then, scope, path + (0,), False)
            if node.orelse is None:
                return frozenset()
            return then_out & check(node.orelse, scope, path + (1,), False)
        return check(node.body, scope, path + (0,), False)

    check(root, frozenset(inputs), (), True)
    return violations


def _reference_produced_fields(node):
    """produced_fields as it was: a recursive walk that joins two Branch
    arms by intersection and gives nothing for a one-armed Branch."""
    if isinstance(node, wf.TaskNode):
        return node.output_schema
    if isinstance(node, wf.Sequence):
        return frozenset().union(*(_reference_produced_fields(c) for c in node.children))
    if isinstance(node, wf.Branch):
        if node.orelse is None:
            return frozenset()
        return _reference_produced_fields(node.then) & _reference_produced_fields(node.orelse)
    return _reference_produced_fields(node.body)


_t00, _t01, _t05 = chain_tasks([0, 1, 5])


@given(_node_strategy(branches=True), _fields, _fields)
# what one arm of a Branch produces binds nothing after it
@example(wf.Sequence((wf.Branch(wf.Predicate("o1", "exists"), _t00, _t05), _t01)),
         {"seed", "o4"}, set())
@example(wf.Sequence((wf.Branch(wf.Predicate("o1", "exists"), _t00), _t01)), {"seed"}, set())
@settings(max_examples=400, deadline=None)
def test_one_walk_facts_match_their_previous_definitions(node, inputs, outputs):
    flow = wf.Workflow(root=node, declared_inputs=inputs, declared_outputs=outputs)
    assert wf.shape_signature(flow) == _reference_shape_signature(flow)
    assert wf.dataflow_violations(node, inputs) == _reference_dataflow_violations(node, inputs)
    assert flow.produced == _reference_produced_fields(node)
    assert flow.replace(id="renamed").produced is flow.produced
    extended = flow.replace(root=wf.Sequence((node, chain_tasks([9])[0])))
    assert extended.produced == _reference_produced_fields(extended.root)

def test_shape_signature_and_find_subflows_leave_no_cyclic_garbage():
    tasks = chain_tasks([0, 1, 2, 3])
    guard = wf.Predicate("seed", "exists")
    flow = mk_flow([tasks[0], wf.Nest("s", wf.Sequence(tuple(tasks[1:3]))),
                    wf.Branch(guard, tasks[3], tasks[1])], ins={"seed"})
    library = [chain_flow([1, 2]), chain_flow([3])]
    assert cyclic_garbage(lambda: wf.shape_signature(flow)) == 0
    assert cyclic_garbage(lambda: wf.find_subflows(flow, library)) == 0


def _reference_node_metrics(node):
    """node_metrics as it was: one case per node kind."""
    if isinstance(node, wf.TaskNode):
        return wf.StructMetrics(1, 0, 0)
    if isinstance(node, wf.Sequence):
        parts = [_reference_node_metrics(c) for c in node.children]
        return wf.StructMetrics(sum(p.length for p in parts),
                                max((p.depth for p in parts), default=0),
                                sum(p.branch_count for p in parts))
    if isinstance(node, wf.Branch):
        then_m = _reference_node_metrics(node.then)
        else_m = (_reference_node_metrics(node.orelse) if node.orelse is not None
                  else wf.StructMetrics(0, 0, 0))
        return wf.StructMetrics(then_m.length + else_m.length, max(then_m.depth, else_m.depth),
                                then_m.branch_count + else_m.branch_count + 1)
    body = _reference_node_metrics(node.body)
    return wf.StructMetrics(body.length, body.depth + 1, body.branch_count)


def _reference_replace_at(root, path, new):
    """replace_at as it was: each node kind rebuilt by hand."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    kids = wf.children_of(root)
    if not 0 <= step < len(kids):
        raise BadPath(f"path {path} does not resolve in {type(root).__name__}")
    replaced = _reference_replace_at(kids[step], rest, new)
    if isinstance(root, wf.Sequence):
        out = list(root.children)
        out[step] = replaced
        return wf.Sequence(tuple(out))
    if isinstance(root, wf.Branch):
        if step == 0:
            return wf.Branch(root.cond, replaced, root.orelse)
        return wf.Branch(root.cond, root.then, replaced)
    return wf.Nest(root.sub_goal_id, replaced)


def _reference_normalize_stripped(node):
    """normalize_node(strip_nests=True) as it was, sharing the subtrees
    that are already normal."""
    if isinstance(node, wf.TaskNode):
        return node
    if isinstance(node, wf.Nest):
        return _reference_normalize_stripped(node.body)
    if isinstance(node, wf.Branch):
        then = _reference_normalize_stripped(node.then)
        orelse = _reference_normalize_stripped(node.orelse) if node.orelse is not None else None
        if then is node.then and orelse is node.orelse:
            return node
        return wf.Branch(node.cond, then, orelse)
    out, changed = [], False
    for child in node.children:
        norm = _reference_normalize_stripped(child)
        if isinstance(norm, wf.Sequence):
            out.extend(norm.children)
            changed = True
        else:
            out.append(norm)
            changed = changed or norm is not child
    if len(out) == 1:
        return out[0]
    return wf.Sequence(tuple(out)) if changed else node


def _reference_find_subflows(w, library):
    """find_subflows as it was: each window of nodes tested task by task."""
    flat_root = _reference_normalize_stripped(w.root)
    sites = []

    def collect(node, path):
        kids = wf.child_list(node)
        sites.append((path, kids))
        for i, child in enumerate(kids):
            if isinstance(child, wf.Branch):
                collect(child.then, path + (i, 0))
                if child.orelse is not None:
                    collect(child.orelse, path + (i, 1))

    collect(flat_root, ())
    matches = []
    for p_idx, pattern in enumerate(library):
        tools = tuple(t.tool_id for t in wf.task_order(pattern.root))
        if not tools:
            continue
        for site_path, kids in sites:
            for start in range(len(kids) - len(tools) + 1):
                window = kids[start : start + len(tools)]
                if all(isinstance(k, wf.TaskNode) for k in window) and tuple(
                        k.tool_id for k in window) == tools:
                    matches.append((p_idx, site_path + (start,)))
    matches.sort()
    return matches


def _paths(node, path=()):
    yield path
    for i, child in enumerate(wf.children_of(node)):
        yield from _paths(child, path + (i,))


_b1 = wf.Branch(wf.Predicate("o1", "exists"), _t00)
_b2 = wf.Branch(wf.Predicate("o1", "exists"), _t01, wf.Sequence((_t05, wf.Nest("s", _t00))))


@given(_node_strategy(branches=True))
@example(wf.Sequence((_t00, _b2, wf.Nest("s", _b1), wf.Sequence(()))))
@example(wf.Branch(wf.Predicate("o1", "exists"), _b2, wf.Sequence(())))
@settings(max_examples=400, deadline=None)
def test_child_layout_walks_match_their_previous_definitions(node):
    assert wf.node_metrics(node) == _reference_node_metrics(node)
    stripped = wf.normalize_node(node, strip_nests=True)
    assert stripped == _reference_normalize_stripped(node)
    assert (stripped is node) == (_reference_normalize_stripped(node) is node)
    marker = chain_tasks([9])[0]
    for path in _paths(node):
        assert wf.replace_at(node, path, marker) == _reference_replace_at(node, path, marker)
        kids = wf.children_of(wf.node_at(node, path))
        with pytest.raises(BadPath):
            wf.replace_at(node, path + (len(kids),), marker)
    # patterns drawn from the tree's own task runs, one to three tasks wide
    tasks = wf.task_order(node)
    library = [wf.Workflow(root=wf.Sequence(tasks[start : start + width]))
               for width in (0, 1, 2, 3) for start in range(max(len(tasks) - width, 0) + 1)]
    flow = wf.Workflow(root=node)
    assert wf.find_subflows(flow, library) == _reference_find_subflows(flow, library)


@given(_node_strategy(branches=True), _fields)
@settings(max_examples=150, deadline=None)
def test_normal_root_changes_no_equality_hash_or_serialization(node, outputs):
    def make():
        return wf.Workflow(root=node, declared_inputs={"seed"}, declared_outputs=outputs,
                           id="w", goal_id="g")

    read, fresh = make(), make()
    before = (hash(read), wf.to_doc(read), wf.dumps(read))
    normal = read.normal_root
    assert normal == _reference_normalize(node)
    assert read.normal_root is normal
    ratio = read.dead_node_ratio
    assert ratio == _reference_dead_node_ratio(read)
    assert read.dead_node_ratio is ratio
    assert (hash(read), wf.to_doc(read), wf.dumps(read)) == before
    assert read == fresh and hash(read) == hash(fresh)
    names = {f.name for f in dataclasses.fields(wf.Workflow)}
    assert "normal_root" not in names and "dead_node_ratio" not in names

    extended = read.replace(root=wf.Sequence((node, chain_tasks([9])[0])))
    assert extended.normal_root == _reference_normalize(extended.root)
    assert extended.normal_root != normal
    assert read.normal_root is normal


@given(_node_strategy(branches=True), _node_strategy(branches=True), _fields)
@settings(max_examples=150, deadline=None)
def test_replace_and_apply_edits_carry_the_normal_root(source_node, target_node, outputs):
    source = wf.Workflow(root=source_node, declared_inputs={"seed"}, declared_outputs=outputs,
                         id="w", goal_id="g")
    normal = source.normal_root
    source.dead_node_ratio
    renamed = source.replace(id="w2", declared_outputs=outputs | {"o9"})
    assert renamed.normal_root is normal
    # the declared outputs changed, so the ratio is computed again, not carried
    assert renamed.dead_node_ratio == wf.dead_node_ratio(renamed)
    repaired = wf.apply_edits(wf.diff(source, wf.Workflow(root=target_node)), source)
    assert repaired.normal_root is repaired.root
    for carried in (renamed, repaired):
        assert carried.normal_root == wf.normalize_node(carried.root)
        assert carried.normal_root == _reference_normalize(carried.root)
        fresh = wf.Workflow(**{f.name: getattr(carried, f.name)
                               for f in dataclasses.fields(wf.Workflow)})
        assert carried == fresh and hash(carried) == hash(fresh)
        assert wf.to_doc(carried) == wf.to_doc(fresh)
        assert wf.dumps(carried) == wf.dumps(fresh)
        assert fresh.normal_root == carried.normal_root
