#!/usr/bin/env python3
"""Tour of the workflow tree representation and its structural algebra.

Builds a few small workflows by hand, then walks through validation,
metrics, the three composition operators, flattening, diff/patch, and
subflow matching.  Run directly: python3 demos/01_workflow_algebra.py
"""

from flowsmith import workflow as wf

# Three tool invocations that chain through their field schemas:
# fetch produces the record that parse consumes, and so on.
fetch = wf.TaskNode("fetch_record", input_schema={"record_id"}, output_schema={"record"})
parse = wf.TaskNode("parse_record", input_schema={"record"}, output_schema={"fields"})
store = wf.TaskNode("store_fields", input_schema={"fields"}, output_schema={"receipt"})

pipeline = wf.Workflow(
    root=wf.Sequence((fetch, parse, store)),
    declared_inputs={"record_id"},
    declared_outputs={"receipt"},
    id="demo-pipeline",
)

print("== validation ==")
print(f"pipeline ok: {not wf.validate(pipeline)}")

broken = wf.Workflow(root=wf.Sequence((parse, store)), declared_inputs={"record_id"})
violations = wf.validate(broken)
print(f"missing producer ok: {not violations}")
for violation in violations:
    print(f"  violation: {violation}")

print("\n== metrics ==")
m = wf.metrics(pipeline)
print(f"length={m.length} depth={m.depth} branches={m.branch_count}")

print("\n== concat: splice two flows ==")
audit = wf.Workflow(
    root=wf.TaskNode("audit_log", input_schema={"receipt"}, output_schema={"log_entry"}),
    declared_inputs={"receipt"},
    declared_outputs={"log_entry"},
)
extended = wf.concat(pipeline, audit)
print(f"lengths {wf.metrics(pipeline).length} + {wf.metrics(audit).length} "
      f"-> {wf.metrics(extended).length}")

print("\n== branch: a guarded side path, main path untouched ==")
retry = wf.Workflow(root=wf.TaskNode("retry_fetch", input_schema={"record_id"},
                                     output_schema={"record"}))
guarded = wf.branch(pipeline, wf.Predicate("record", "not_exists"), retry)
print(f"branch count: {wf.node_metrics(guarded.root).branch_count}")
print(f"main task order unchanged: "
      f"{[t.tool_id for t in wf.task_order(guarded.root)][:3]}")

print("\n== nest: wrap a subtree under a named sub-workflow boundary ==")
nested = wf.nest(pipeline, (), "ingest", pipeline)
print(f"depth after wrapping at the root: {wf.node_metrics(nested.root).depth}")
flat = wf.flatten(nested)
print(f"flatten restores depth {wf.node_metrics(flat.root).depth} and keeps order "
      f"{[t.tool_id for t in wf.task_order(flat.root)]}")

print("\n== diff and patch ==")
without_parse = wf.Workflow(root=wf.Sequence((fetch, store)),
                            declared_inputs={"record_id"})
script = wf.diff(without_parse, pipeline)
for edit in script:
    print(f"  edit: {type(edit).__name__} at {list(edit.path)}")
patched = wf.apply_edits(script, without_parse)
print(f"patched equals target: {wf.structurally_equal(patched, pipeline)}")

print("\n== subflow matching ==")
pattern = wf.Workflow(root=wf.Sequence((fetch, parse)))
hits = wf.find_subflows(extended, [pattern])
print(f"pattern occurrences (index, path): {hits}")

print("\n== canonical serialization ==")
text = wf.dumps(pipeline)
print(f"round-trip bit-exact: {wf.dumps(wf.loads(text)) == text}")
print(text[:100] + "...")
