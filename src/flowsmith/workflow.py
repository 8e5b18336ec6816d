"""Workflow trees and the structural algebra over them.

A workflow is an immutable ordered tree.  Leaves are tool invocations
(:class:`TaskNode`); interior nodes are :class:`Sequence` (ordered
execution), :class:`Branch` (a conditional side path that never touches
the main path), and :class:`Nest` (a named sub-workflow boundary).

The module provides:

* validation with a left-to-right dataflow check,
* structural metrics (task count, nesting depth, branch count),
* normalization, flattening, and structural equality,
* the three composition operators ``concat`` (of any number of flows)
  / ``branch`` / ``nest``,
* a deterministic tree diff with edit-script application,
* contiguous subflow pattern matching,
* a canonical, byte-stable JSON serialization.

Nodes are immutable, so trees share them freely: composition splices the
operands' subtrees into the result, and :func:`node_from_doc` and
:func:`node_to_doc` take a table that lets one load share a task node
between every document that describes it, and one save turn each node
object into its document once.

Only :func:`children_of` (read) and :func:`_with_children` (rebuild) know
how a Sequence, a Branch ``(then[, else])`` or a Nest ``(body,)`` lays out
its children; the binding walk and normalization's Sequence and Nest
cases, which run on every repair, read the fields directly.

Conventions: a flat workflow has depth 0 and each Nest wrapper adds one
level; Branch adds none.  Structural equality compares normalized trees,
where nested Sequences are spliced into their parent, empty Sequences
are dropped, and single-child Sequences collapse to the child.
Normalization returns every subtree that is already normal as the same
object, so the normal form of a normal tree is its root.

A :class:`Workflow` keeps three facts about itself, each computed on
first use: its normal form (:attr:`Workflow.normal_root`), the fields
its tree is guaranteed to produce (:attr:`Workflow.produced`) and its
dead-node ratio (:attr:`Workflow.dead_node_ratio`).  An agent's
procedure never changes, so each is walked once per run however often
the solve loop reads it.  One binding walk answers both the dataflow
check and the produced fields, so the rule that joins Branch arms is
written once; it builds a path and a message only at a violation.  The
walk for the dead-node ratio keeps one set of needed fields.
Normalization is the one place that splices Sequences and Nests:
:func:`shape_signature`, :func:`flatten` and :func:`find_subflows` read
the strip-normal form it builds.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .errors import BadPath, InvalidWorkflow, name_set

Literal = Union[str, int, float, bool, None]
Path = tuple[int, ...]

PREDICATE_OPS = ("equals", "exists", "not_exists")


@dataclass(frozen=True)
class Predicate:
    """Branch guard over context fields: equals / exists / not_exists."""

    key: str
    op: str
    value: Literal = None

    def __post_init__(self):
        if not self.key:
            raise ValueError("predicate key must be non-empty")
        if self.op not in PREDICATE_OPS:
            raise ValueError(f"unknown predicate op {self.op!r}")
        if self.op == "equals" and self.value is None:
            raise ValueError("equals requires a value")
        if self.op != "equals" and self.value is not None:
            raise ValueError(f"{self.op} forbids a value")

    def evaluate(self, context: dict[str, Literal]) -> bool:
        if self.op == "equals":
            return context.get(self.key) == self.value
        if self.op == "exists":
            return self.key in context
        return self.key not in context


@dataclass(frozen=True)
class TaskNode:
    """One atomic tool invocation with fixed input/output field schemas."""

    tool_id: str
    input_schema: frozenset[str] = frozenset()
    output_schema: frozenset[str] = frozenset()
    params: tuple[tuple[str, Literal], ...] = ()

    def __post_init__(self):
        if not self.tool_id:
            raise ValueError("tool_id must be non-empty")
        object.__setattr__(self, "input_schema", frozenset(self.input_schema))
        object.__setattr__(self, "output_schema", frozenset(self.output_schema))
        params = self.params
        if isinstance(params, dict):
            params = tuple(sorted(params.items()))
        object.__setattr__(self, "params", tuple(params))


@dataclass(frozen=True)
class Sequence:
    children: tuple["WorkflowNode", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Branch:
    cond: Predicate
    then: "WorkflowNode"
    orelse: "WorkflowNode | None" = None


@dataclass(frozen=True)
class Nest:
    sub_goal_id: str
    body: "WorkflowNode"

    def __post_init__(self):
        if not self.sub_goal_id:
            raise ValueError("sub_goal_id must be non-empty")


WorkflowNode = Union[TaskNode, Sequence, Branch, Nest]


@dataclass(frozen=True)
class Workflow:
    """A workflow tree plus its declared input/output interface."""

    root: WorkflowNode
    declared_inputs: frozenset[str] = frozenset()
    declared_outputs: frozenset[str] = frozenset()
    id: str = ""
    goal_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "declared_inputs", frozenset(self.declared_inputs))
        object.__setattr__(self, "declared_outputs", frozenset(self.declared_outputs))

    def replace(self, **changes) -> "Workflow":
        """A copy with ``changes``; it keeps the facts already computed about
        the tree unless ``root`` is among them."""
        new = dataclasses.replace(self, **changes)
        if "root" not in changes:
            for name in _TREE_FACTS:
                if name in self.__dict__:
                    new.__dict__[name] = self.__dict__[name]
        return new

    @cached_property
    def normal_root(self) -> "WorkflowNode":
        """``normalize_node(root)``, computed on first use and kept.

        Not a dataclass field: equality, hashing and serialization ignore
        it.  :meth:`replace` carries it into the copy when ``root`` does
        not change, and :func:`apply_edits`, whose result is already
        normal, records that result as its own normal form.
        """
        return normalize_node(self.root)

    @cached_property
    def produced(self) -> frozenset[str]:
        """``produced_fields(root)``, computed on first use and kept, as
        :attr:`normal_root` is."""
        return produced_fields(self.root)

    @cached_property
    def dead_node_ratio(self) -> float:
        """:func:`dead_node_ratio` of this workflow, computed on first use and
        kept.  It reads the declared outputs too, so :meth:`replace` never
        carries it into the copy."""
        return dead_node_ratio(self)


# The cached properties of a Workflow that depend on its root alone.
_TREE_FACTS = ("normal_root", "produced")


@dataclass(frozen=True)
class StructMetrics:
    length: int
    depth: int
    branch_count: int


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


# --- tree navigation -------------------------------------------------------


def children_of(node: WorkflowNode) -> tuple[WorkflowNode, ...]:
    """Addressable children: Sequence list, Branch (then, else), Nest (body,)."""
    if isinstance(node, Sequence):
        return node.children
    if isinstance(node, Branch):
        return (node.then,) if node.orelse is None else (node.then, node.orelse)
    if isinstance(node, Nest):
        return (node.body,)
    return ()


def _with_children(node: WorkflowNode, kids: tuple[WorkflowNode, ...]) -> WorkflowNode:
    """``node`` rebuilt around ``kids``, laid out as :func:`children_of` reads them."""
    if isinstance(node, Sequence):
        return Sequence(kids)
    if isinstance(node, Branch):
        return Branch(node.cond, *kids)
    return Nest(node.sub_goal_id, *kids)


def child_list(node: WorkflowNode) -> tuple[WorkflowNode, ...]:
    """A node viewed as a splice list: its children if a Sequence, else itself."""
    if isinstance(node, Sequence):
        return node.children
    return (node,)


def node_at(root: WorkflowNode, path: Path) -> WorkflowNode:
    node = root
    for step in path:
        kids = children_of(node)
        if not 0 <= step < len(kids):
            raise BadPath(f"path {path} does not resolve (stuck at index {step})")
        node = kids[step]
    return node


def replace_at(root: WorkflowNode, path: Path, new: WorkflowNode) -> WorkflowNode:
    if not path:
        return new
    step = path[0]
    kids = list(children_of(root))
    if not 0 <= step < len(kids):
        raise BadPath(f"path {path} does not resolve in {type(root).__name__}")
    kids[step] = replace_at(kids[step], path[1:], new)
    return _with_children(root, tuple(kids))


def task_order(node: WorkflowNode) -> tuple[TaskNode, ...]:
    """All task nodes in execution order (branch arms included, then before else)."""
    out: list[TaskNode] = []
    _collect_tasks(node, out)
    return tuple(out)


def _collect_tasks(node: WorkflowNode, out: list[TaskNode]) -> None:
    if isinstance(node, TaskNode):
        out.append(node)
    for child in children_of(node):
        _collect_tasks(child, out)


# --- validation ------------------------------------------------------------


def _bind(node: WorkflowNode, scope: set[str], path: list[int],
          violations: "list[str] | None") -> None:
    """Add to ``scope`` the fields ``node`` is guaranteed to produce.

    Branch arms walk on copies, and only the fields both arms produce
    join the scope, so a one-armed Branch adds nothing.  Given a list,
    ``violations`` also receives each task input not in scope and each
    Sequence below the root that is empty, at its ``path``: the index
    stack of the walk, formatted only at a violation.
    """
    if isinstance(node, TaskNode):
        if violations is not None and not node.input_schema <= scope:
            violations.append(f"unbound input {sorted(node.input_schema - scope)} "
                              f"for task {node.tool_id!r} at {path}")
        scope |= node.output_schema
    elif isinstance(node, Sequence):
        if violations is not None and path and not node.children:
            violations.append(f"empty sequence at {path}")
        path.append(0)
        for i, child in enumerate(node.children):
            path[-1] = i
            _bind(child, scope, path, violations)
        path.pop()
    elif isinstance(node, Branch):
        path.append(0)
        then_scope = set(scope)
        _bind(node.then, then_scope, path, violations)
        if node.orelse is not None:
            path[-1] = 1
            else_scope = set(scope)
            _bind(node.orelse, else_scope, path, violations)
            scope |= then_scope & else_scope
        path.pop()
    else:
        path.append(0)
        _bind(node.body, scope, path, violations)
        path.pop()


def produced_fields(node: WorkflowNode) -> frozenset[str]:
    """Fields guaranteed to be produced: branch arms only count when both arms agree."""
    scope: set[str] = set()
    _bind(node, scope, [], None)
    return frozenset(scope)


def dataflow_violations(root: WorkflowNode, inputs: Iterable[str]) -> list[str]:
    """Left-to-right binding check: every task input must be declared or produced earlier."""
    violations: list[str] = []
    _bind(root, set(inputs), [], violations)
    return violations


def validate(w: Workflow) -> ValidationReport:
    """Check structural invariants plus dataflow satisfiability.

    An empty Sequence is tolerated only at the root, where it denotes the
    empty workflow (the concat identity); anywhere else it is a violation.
    """
    violations = dataflow_violations(w.root, w.declared_inputs)
    return ValidationReport(not violations, tuple(violations))


# --- metrics ---------------------------------------------------------------


def metrics(w: Workflow, check: bool = True) -> StructMetrics:
    if check:
        report = validate(w)
        if not report.ok:
            raise InvalidWorkflow("; ".join(report.violations))
    return node_metrics(w.root)


def node_metrics(node: WorkflowNode) -> StructMetrics:
    if isinstance(node, TaskNode):
        return StructMetrics(1, 0, 0)
    parts = [node_metrics(child) for child in children_of(node)]
    return StructMetrics(
        sum(p.length for p in parts),
        max((p.depth for p in parts), default=0) + isinstance(node, Nest),
        sum(p.branch_count for p in parts) + isinstance(node, Branch),
    )


# --- normalization and flattening ------------------------------------------


def normalize_node(node: WorkflowNode, strip_nests: bool = False) -> WorkflowNode:
    """Splice nested Sequences into their parent, drop empty ones and collapse
    single-child ones; with ``strip_nests`` every Nest is inlined as well.

    A subtree that is already normal comes back as the same object, so
    normalizing a normal tree builds nothing.
    """
    if isinstance(node, TaskNode):
        return node
    if isinstance(node, Nest):
        body = normalize_node(node.body, strip_nests)
        if strip_nests:
            return body
        return node if body is node.body else Nest(node.sub_goal_id, body)
    if isinstance(node, Branch):
        arms = children_of(node)
        norms = tuple([normalize_node(arm, strip_nests) for arm in arms])
        if all(norm is arm for norm, arm in zip(norms, arms)):
            return node
        return _with_children(node, norms)
    out: list[WorkflowNode] = []
    changed = False
    for child in node.children:
        norm = normalize_node(child, strip_nests)
        if isinstance(norm, Sequence):
            out.extend(norm.children)
            changed = True
        else:
            out.append(norm)
            changed = changed or norm is not child
    if len(out) == 1:
        return out[0]
    return Sequence(tuple(out)) if changed else node


def structurally_equal(a: Workflow, b: Workflow) -> bool:
    """Equality of the normal forms; each is computed once per Workflow and
    shares every subtree that was already normal."""
    return a.normal_root == b.normal_root


def flatten(w: Workflow) -> Workflow:
    """Inline every Nest wrapper; task order is preserved and depth drops to 0."""
    return w.replace(root=normalize_node(w.root, strip_nests=True))


# --- composition operators --------------------------------------------------


def concat(first: Workflow, *rest: Workflow) -> Workflow:
    """Splice the flows into one Sequence, in order.  Inputs are the first
    flow's; outputs are the union of all.  A single flow comes back as it is."""
    if not rest:
        return first
    children = child_list(first.root)
    outputs = first.declared_outputs
    for w in rest:
        children += child_list(w.root)
        outputs |= w.declared_outputs
    return Workflow(root=Sequence(children), declared_inputs=first.declared_inputs,
                    declared_outputs=outputs)


def branch(host: Workflow, cond: Predicate, alt: Workflow) -> Workflow:
    """Append a conditional side path at the host's insertion frontier.

    The main execution path, the interface and the ids are the host's;
    the alternative runs only when ``cond`` holds.
    """
    return host.replace(root=Sequence(child_list(host.root) + (Branch(cond, alt.root, None),)))


def nest(host: Workflow, slot_path: Path, sub_goal: str, body: Workflow) -> Workflow:
    """Replace the node at slot_path with a Nest(sub_goal, body) boundary;
    the interface and the ids are the host's.  BadPath when unresolved."""
    return host.replace(root=replace_at(host.root, slot_path, Nest(sub_goal, body.root)))


# --- diff / patch -----------------------------------------------------------


@dataclass(frozen=True)
class InsertNode:
    path: Path
    node: WorkflowNode


@dataclass(frozen=True)
class DeleteNode:
    path: Path


@dataclass(frozen=True)
class ReorderChildren:
    path: Path
    permutation: tuple[int, ...]


@dataclass(frozen=True)
class ReplaceSubtree:
    path: Path
    node: WorkflowNode


Edit = Union[InsertNode, DeleteNode, ReorderChildren, ReplaceSubtree]
EditScript = tuple[Edit, ...]


def _lcs_pairs(s: tuple, t: tuple) -> list[tuple[int, int]]:
    m, n = len(s), len(t)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        row, below = table[i], table[i + 1]
        for j in range(n - 1, -1, -1):
            if s[i] == t[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = below[j] if below[j] >= row[j + 1] else row[j + 1]
    pairs = []
    i = j = 0
    while i < m and j < n:
        if s[i] == t[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def _permutation(s: tuple, t: tuple) -> "tuple[int, ...] | None":
    """Source indices in target order, or None unless s and t hold the same
    multiset (each target item takes the first unused equal source item)."""
    used = [False] * len(s)
    perm = []
    for item in t:
        for j, src in enumerate(s):
            if not used[j] and (src is item or src == item):
                used[j] = True
                perm.append(j)
                break
        else:
            return None
    return tuple(perm)


def _diff_children(s: tuple, t: tuple, path: Path) -> list[Edit]:
    if s == t:
        return []
    if len(s) == len(t):
        perm = _permutation(s, t)
        if perm is not None:
            return [ReorderChildren(path, perm)]
    pairs = _lcs_pairs(s, t)
    matched_s = {i for i, _ in pairs}
    matched_t = {j for _, j in pairs}
    unmatched_s = [i for i in range(len(s)) if i not in matched_s]
    unmatched_t = [j for j in range(len(t)) if j not in matched_t]
    if len(s) == len(t) and unmatched_s == unmatched_t:
        edits: list[Edit] = []
        for i in unmatched_s:
            edits.extend(_diff_nodes(s[i], t[i], path + (i,)))
        return edits
    # Deletions right-to-left keep source indices valid; insertions then go
    # left-to-right at their final target positions.
    edits = [DeleteNode(path + (i,)) for i in reversed(unmatched_s)]
    edits.extend(InsertNode(path + (j,), t[j]) for j in unmatched_t)
    return edits


def _diff_nodes(src: WorkflowNode, tgt: WorkflowNode, path: Path) -> list[Edit]:
    if src == tgt:
        return []
    if isinstance(src, Sequence) or isinstance(tgt, Sequence):
        return _diff_children(child_list(src), child_list(tgt), path)
    src_kids, tgt_kids = children_of(src), children_of(tgt)
    if (type(src) is not type(tgt) or isinstance(src, TaskNode) or len(src_kids) != len(tgt_kids)
            or (src.cond != tgt.cond if isinstance(src, Branch)
                else src.sub_goal_id != tgt.sub_goal_id)):
        return [ReplaceSubtree(path, tgt)]
    edits: list[Edit] = []
    for i, (src_kid, tgt_kid) in enumerate(zip(src_kids, tgt_kids)):
        edits.extend(_diff_nodes(src_kid, tgt_kid, path + (i,)))
    return edits


def diff(source: Workflow, target: Workflow) -> EditScript:
    """Edit script turning source into target, computed on normalized trees.

    Both normal forms are read from :attr:`Workflow.normal_root`, so each
    is computed once per Workflow, however often that Workflow is diffed.
    Paths address the promoted-root view used by :func:`apply_edits` (the
    root seen as its splice list).  Single-edit faults (one insertion, one
    deletion, one transposition of siblings) yield single-edit scripts;
    arbitrary pairs still round-trip through apply_edits up to
    normalization.
    """
    return tuple(_diff_children(child_list(source.normal_root),
                                child_list(target.normal_root), ()))


def _apply_one(root: WorkflowNode, edit: Edit) -> WorkflowNode:
    if isinstance(edit, ReplaceSubtree):
        return replace_at(root, edit.path, edit.node)
    if isinstance(edit, ReorderChildren):
        target = node_at(root, edit.path)
        kids = child_list(target)
        if sorted(edit.permutation) != list(range(len(kids))):
            raise BadPath(f"permutation {edit.permutation} does not fit {len(kids)} children")
        return replace_at(root, edit.path, Sequence(tuple(kids[i] for i in edit.permutation)))
    if not edit.path:
        raise BadPath("insert/delete require a parent path")
    parent_path, index = edit.path[:-1], edit.path[-1]
    parent = node_at(root, parent_path)
    kids = list(child_list(parent))
    if isinstance(edit, InsertNode):
        if not 0 <= index <= len(kids):
            raise BadPath(f"insert index {index} out of range")
        kids.insert(index, edit.node)
    else:
        if not 0 <= index < len(kids):
            raise BadPath(f"delete index {index} out of range")
        del kids[index]
    return replace_at(root, parent_path, Sequence(tuple(kids)))


def apply_edits(script: Iterable[Edit], w: Workflow) -> Workflow:
    """Apply an edit script; paths address the normalized tree with a promoted root.

    The input's normal form is :attr:`Workflow.normal_root`, computed once
    per Workflow and sharing the subtrees that were already normal; only
    the edited tree is normalized again.  The result is normal, and
    normalizing a normal tree returns its root, so the result's own
    ``normal_root`` is recorded as that root rather than recomputed.
    """
    root: WorkflowNode = Sequence(child_list(w.normal_root))
    for edit in script:
        root = _apply_one(root, edit)
    root = normalize_node(root)
    out = w.replace(root=root)
    out.__dict__["normal_root"] = root
    return out


# --- subflow matching --------------------------------------------------------


def find_subflows(w: Workflow, library: list[Workflow]) -> list[tuple[int, Path]]:
    """Locate library patterns as contiguous task runs inside flatten(w).

    A pattern matches on its tool_id sequence.  Results are
    (pattern_index, path-of-first-task) sorted lexicographically.
    """
    sites: list[tuple[Path, tuple["str | None", ...]]] = []
    _collect_sites(normalize_node(w.root, strip_nests=True), (), sites)
    matches: list[tuple[int, Path]] = []
    for p_idx, pattern in enumerate(library):
        tools = tuple(t.tool_id for t in task_order(pattern.root))
        width = len(tools)
        if width == 0:
            continue
        for site_path, ids in sites:
            for start in range(len(ids) - width + 1):
                if ids[start : start + width] == tools:
                    matches.append((p_idx, site_path + (start,)))
    matches.sort()
    return matches


def _collect_sites(node: WorkflowNode, path: Path,
                   sites: list[tuple[Path, tuple["str | None", ...]]]) -> None:
    # Each site's tool ids, None for a Branch (whose arms are sites too).
    kids = child_list(node)
    sites.append((path, tuple([k.tool_id if isinstance(k, TaskNode) else None for k in kids])))
    for i, child in enumerate(kids):
        for j, arm in enumerate(children_of(child)):
            _collect_sites(arm, path + (i, j), sites)


# --- auxiliary structural measures -------------------------------------------


def dead_node_ratio(w: Workflow) -> float:
    """Share of tasks not backward-reachable from the declared outputs."""
    tasks = task_order(w.root)
    if not tasks:
        return 0.0
    need = set(w.declared_outputs)
    dead = 0
    for task in reversed(tasks):
        if need.isdisjoint(task.output_schema):
            dead += 1
        else:
            need -= task.output_schema
            need |= task.input_schema
    return dead / len(tasks)


def shape_signature(w: Workflow) -> tuple[str, tuple[str, ...]]:
    """Flattened tree skeleton plus tool multiset; Nest boundaries are ignored.

    The skeleton is that of ``normalize_node(w.root, strip_nests=True)``:
    a task is ``t``, a Sequence ``(...)`` and a Branch ``[then|else]``
    (``-`` for no else).
    """
    tools: list[str] = []
    return _skeleton(normalize_node(w.root, strip_nests=True), tools), tuple(sorted(tools))


def _skeleton(node: WorkflowNode, tools: list[str]) -> str:
    # The skeleton of a strip-normal node; its tool ids go to ``tools``.
    if isinstance(node, TaskNode):
        tools.append(node.tool_id)
        return "t"
    if isinstance(node, Branch):
        alt = _skeleton(node.orelse, tools) if node.orelse is not None else "-"
        return "[" + _skeleton(node.then, tools) + "|" + alt + "]"
    return "(" + "".join([_skeleton(child, tools) for child in node.children]) + ")"


# --- serialization -----------------------------------------------------------


def node_to_doc(node: WorkflowNode, docs: "dict | None" = None) -> dict:
    """A node's document.

    ``docs`` maps ``id(node)`` to the document already made for that node
    object, so a node shared by several trees is turned into its document
    once; the caller keeps the table only while those nodes are alive.  A
    call without a table starts its own.
    """
    if docs is None:
        docs = {}
    doc = docs.get(id(node))
    if doc is not None:
        return doc
    if isinstance(node, TaskNode):
        doc = {
            "kind": "task",
            "tool_id": node.tool_id,
            "input_schema": sorted(node.input_schema),
            "output_schema": sorted(node.output_schema),
            "params": {k: v for k, v in node.params},
        }
    elif isinstance(node, Sequence):
        doc = {"kind": "seq", "children": [node_to_doc(c, docs) for c in node.children]}
    elif isinstance(node, Branch):
        doc = {
            "kind": "branch",
            "cond": {"key": node.cond.key, "op": node.cond.op, "value": node.cond.value},
            "then": node_to_doc(node.then, docs),
            "else": node_to_doc(node.orelse, docs) if node.orelse is not None else None,
        }
    else:
        doc = {"kind": "nest", "sub_goal_id": node.sub_goal_id,
               "body": node_to_doc(node.body, docs)}
    docs[id(node)] = doc
    return doc


_KEY_LITERALS = (str, int, float, bool, type(None))


def _task_key(doc: dict) -> "tuple | None":
    """A task document's exact content as a table key, or None when the
    document holds a value that the key could not tell apart from another.

    Only a string ``tool_id``, schemas that are arrays and params mapping
    strings to strings, integers, bools, null or non-NaN floats make a
    key.  Each param keeps its type and each float its repr, so ``1``,
    ``1.0`` and ``true`` (and ``0.0`` and ``-0.0``) stay apart, and a
    string schema never keys like the list of its characters.  A schema
    holding a non-string, a tool_id that is not a string or a param value
    that is not a JSON scalar (or is an infinite float) builds no node, so
    its key is never stored.
    """
    tool_id = doc.get("tool_id")
    inputs = doc.get("input_schema", ())
    outputs = doc.get("output_schema", ())
    params = doc.get("params", {})
    if (type(tool_id) is not str or type(params) is not dict
            or type(inputs) not in (list, tuple) or type(outputs) not in (list, tuple)):
        return None
    items = []
    for name, value in params.items():
        kind = type(value)
        if type(name) is not str or kind not in _KEY_LITERALS or value != value:
            return None
        items.append((name, kind, repr(value) if kind is float else value))
    return tool_id, tuple(inputs), tuple(outputs), tuple(items)


def _is_scalar(value) -> bool:
    """Whether a node may hold ``value``: a string, an integer, a finite
    float, a bool or null."""
    return type(value) in _KEY_LITERALS and not (type(value) is float
                                                 and not math.isfinite(value))


def _name_from_doc(doc: dict, key: str) -> str:
    """``doc[key]``, which must be a non-empty string."""
    name = doc[key]
    if type(name) is not str or not name:
        raise ValueError(f"{key} must be a non-empty string, got {name!r}")
    return name


def _task_from_doc(doc: dict) -> TaskNode:
    tool_id, params = _name_from_doc(doc, "tool_id"), doc.get("params", {})
    if type(params) is not dict or not all(_is_scalar(v) for v in params.values()):
        raise ValueError("params must map names to strings, finite numbers, bools or null, "
                         f"got {params!r}")
    return TaskNode(
        tool_id=tool_id,
        input_schema=name_set(doc.get("input_schema", ()), "input_schema"),
        output_schema=name_set(doc.get("output_schema", ()), "output_schema"),
        params=tuple(sorted(params.items())),
    )


def node_from_doc(doc: dict, tasks: "dict | None" = None) -> WorkflowNode:
    """Build a node from its document.

    ``tasks`` maps each task document's exact content (see
    :func:`_task_key`) to the node built from it, so a repeated task
    document returns that node again.  Nodes are immutable, so the trees
    that share one cannot tell; a call without a table starts its own.
    """
    if tasks is None:
        tasks = {}
    kind = doc.get("kind")
    if kind == "task":
        key = _task_key(doc)
        try:
            node = tasks.get(key)
        except TypeError:  # an unhashable schema entry: the build reports it
            key = None
        if key is None:
            return _task_from_doc(doc)
        if node is None:
            node = tasks[key] = _task_from_doc(doc)
        return node
    if kind == "seq":
        return Sequence(tuple([node_from_doc(c, tasks) for c in doc["children"]]))
    if kind == "branch":
        cond = doc["cond"]
        value = cond.get("value")
        if not _is_scalar(value):
            raise ValueError("predicate value must be a string, a finite number, a bool or "
                             f"null, got {value!r}")
        orelse = doc.get("else")
        return Branch(
            Predicate(_name_from_doc(cond, "key"), cond["op"], value),
            node_from_doc(doc["then"], tasks),
            node_from_doc(orelse, tasks) if orelse is not None else None,
        )
    if kind == "nest":
        return Nest(_name_from_doc(doc, "sub_goal_id"), node_from_doc(doc["body"], tasks))
    raise ValueError(f"unknown node kind {kind!r}")


def to_doc(w: Workflow, docs: "dict | None" = None) -> dict:
    """A workflow's document; ``docs`` is :func:`node_to_doc`'s table."""
    return {
        "id": w.id,
        "goal_id": w.goal_id,
        "declared_inputs": sorted(w.declared_inputs),
        "declared_outputs": sorted(w.declared_outputs),
        "root": node_to_doc(w.root, docs),
    }


def from_doc(doc: dict, tasks: "dict | None" = None) -> Workflow:
    """A workflow from its document; ``tasks`` is :func:`node_from_doc`'s
    table, shared by the caller across documents or new for this one."""
    return Workflow(
        root=node_from_doc(doc["root"], tasks),
        declared_inputs=name_set(doc.get("declared_inputs", ()), "declared_inputs"),
        declared_outputs=name_set(doc.get("declared_outputs", ()), "declared_outputs"),
        id=doc.get("id", ""),
        goal_id=doc.get("goal_id", ""),
    )


def canonical_json(obj: object) -> str:
    """Sorted keys, no insignificant whitespace: byte-stable for equal values.
    NaN and the infinities raise ValueError, since JSON has no token for them."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dumps(w: Workflow) -> str:
    return canonical_json(to_doc(w))


def loads(text: str) -> Workflow:
    return from_doc(json.loads(text))
