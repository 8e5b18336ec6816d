"""Synthetic workflow corpus generation, splitting, and novel-goal construction.

A corpus profile fixes the marginal distributions of task count and
nesting depth plus a tool vocabulary size.  Generation is quota based:
per-value counts come from largest-remainder rounding, so empirical
histograms track the profile to within rounding error, and the two
marginals are coupled only by the feasibility rule that a nested
workflow needs at least two tasks.

Tools have fixed global schemas: each consumes one or two fields (from
a small shared context pool or another tool's output) and produces one
or two fields unique to the tool.  A workflow declares as inputs
exactly the fields its tasks consume but never produce internally, so
every generated workflow validates by construction.

Goal descriptor tokens are unique per goal, which keeps atomic goals
pairwise dissimilar; composite goals carry the token union of their
parts together with a ground-truth ordered part list stored under an
oracle-only key.

Workflow nodes are immutable and shared: generated records hold their
tools' task nodes, and composite goals hold their parts' subtrees.  A
corpus file's cost therefore follows its distinct tasks, not their
occurrences: :func:`load_corpus` builds one task node per distinct task
document and :func:`save_corpus` writes each node object's document
once, each through a table that lives for that call only unless the
caller passes one to ``load_corpus``: files loaded through one table
share their task nodes, so equal tasks from two files are one object.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path as FsPath

from . import workflow as wf
from .errors import ConfigError, EngineError, InfeasibleProfile, is_int, is_number
from .goals import Goal, goal_from_doc, goal_to_doc
from .seeds import derive_seed

CONTEXT_POOL = tuple(f"ctx_{i:02d}" for i in range(12))

# Observed structural mix of a large multi-domain workflow inventory:
# heavily single-step with a long multi-step tail, and mostly flat with
# shallow nesting.  Used as the default generation target.
DEFAULT_NODE_COUNTS = {
    1: 14508, 2: 2252, 3: 4496, 4: 1166, 5: 476, 6: 226, 7: 103, 8: 143,
    9: 51, 10: 5, 11: 28, 12: 2, 13: 33, 14: 1, 16: 11,
}
DEFAULT_DEPTH_COUNTS = {0: 16434, 1: 6425, 2: 451, 3: 121, 4: 56, 5: 18, 6: 16}


def proportions(counts: dict[int, int]) -> dict[int, float]:
    total = sum(counts.values())
    return {k: v / total for k, v in sorted(counts.items())}


@dataclass(frozen=True)
class PlantedSubflowSpec:
    length: int
    rate: float

    def __post_init__(self):
        if not is_int(self.length) or not 2 <= self.length <= 5:
            raise ConfigError(f"planted pattern length must be an integer in 2..5, "
                              f"got {self.length!r}")
        if not is_number(self.rate) or not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"planting rate must be a number in [0, 1], got {self.rate!r}")


@dataclass(frozen=True)
class CorpusProfile:
    total: int
    node_histogram: dict[int, float]
    depth_histogram: dict[int, float]
    tool_vocab_size: int = 64
    planted: PlantedSubflowSpec | None = None

    def __post_init__(self):
        for name in ("total", "tool_vocab_size"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise InfeasibleProfile(f"{name} must be an integer >= 1, got {value!r}")
        for name, hist in (("node", self.node_histogram), ("depth", self.depth_histogram)):
            if not hist:
                raise InfeasibleProfile(f"{name} histogram is empty")
            if not all(is_int(k) and is_number(p) for k, p in hist.items()):
                raise ConfigError(f"{name} histogram must map integers to numbers, got {hist!r}")
            if abs(sum(hist.values()) - 1.0) > 1e-9:
                raise InfeasibleProfile(f"{name} histogram proportions must sum to 1")
            if any(p < 0 for p in hist.values()):
                raise InfeasibleProfile(f"{name} histogram has negative mass")
        if any(k < 1 for k in self.node_histogram):
            raise InfeasibleProfile("node counts must be >= 1")
        if any(k < 0 for k in self.depth_histogram):
            raise InfeasibleProfile("depths must be >= 0")
        if self.planted is not None and self.planted.length > self.tool_vocab_size:
            raise InfeasibleProfile("planted pattern length exceeds tool_vocab_size")


def default_profile(total: int = 10000,
                    planted: PlantedSubflowSpec | None = None) -> CorpusProfile:
    return CorpusProfile(
        total=total,
        node_histogram=proportions(DEFAULT_NODE_COUNTS),
        depth_histogram=proportions(DEFAULT_DEPTH_COUNTS),
        planted=planted,
    )


@dataclass(frozen=True)
class CorpusRecord:
    goal: Goal
    workflow: wf.Workflow
    bucket_kind: str  # "linear" | "nested"
    bucket_size: str
    planted: tuple[tuple[int, wf.Path], ...] = ()

    @property
    def bucket(self) -> str:
        return f"{self.bucket_kind} {self.bucket_size}"


def bucket_labels(m: wf.StructMetrics) -> tuple[str, str]:
    """Linear flows bucket by task count, nested flows by depth."""
    if m.depth == 0:
        if m.length <= 1:
            return "linear", "1"
        if m.length <= 3:
            return "linear", "2-3"
        if m.length <= 6:
            return "linear", "4-6"
        return "linear", "7+"
    if m.depth <= 2:
        return "nested", "1-2"
    if m.depth <= 4:
        return "nested", "3-4"
    return "nested", "5+"


# --- tool vocabulary -----------------------------------------------------------


def build_tool_vocabulary(size: int, seed: int) -> dict[str, wf.TaskNode]:
    """Fixed task node per tool; outputs are unique to the tool, inputs come
    from the shared context pool or occasionally another tool's output."""
    rng = random.Random(derive_seed(seed, "vocab"))
    outputs: dict[str, tuple[str, ...]] = {}
    for k in range(size):
        tool = f"t{k:03d}"
        outputs[tool] = tuple(f"{tool}_o{j}" for j in range(rng.randint(1, 2)))
    vocab: dict[str, wf.TaskNode] = {}
    tools = sorted(outputs)
    for tool in tools:
        n_inputs = rng.randint(1, 2)
        fields: set[str] = set()
        while len(fields) < n_inputs:
            if len(tools) > 1 and rng.random() < 0.3:
                other = rng.choice(tools)
                if other == tool:
                    continue
                fields.add(rng.choice(outputs[other]))
            else:
                fields.add(rng.choice(CONTEXT_POOL))
        vocab[tool] = wf.TaskNode(
            tool_id=tool,
            input_schema=frozenset(fields),
            output_schema=frozenset(outputs[tool]),
        )
    return vocab


def unbound_inputs(tasks: list[wf.TaskNode]) -> frozenset[str]:
    available: set[str] = set()
    needed: set[str] = set()
    for task in tasks:
        needed |= set(task.input_schema) - available
        available |= set(task.output_schema)
    return frozenset(needed)


# --- generation -----------------------------------------------------------------


def _largest_remainder(raw: list[tuple], total: int) -> dict:
    """Round (key, real) pairs down, then give the ``total`` left over one
    unit each to the largest fractional parts, ties by ascending key."""
    counts = {k: int(x) for k, x in raw}
    remainder = total - sum(counts.values())
    by_frac = sorted(raw, key=lambda kv: (-(kv[1] - int(kv[1])), kv[0]))
    for k, _ in by_frac[:remainder]:
        counts[k] += 1
    return counts


def _quota(hist: dict[int, float], total: int) -> dict[int, int]:
    """Largest-remainder rounding of proportions to integer counts."""
    return _largest_remainder([(k, p * total) for k, p in sorted(hist.items())], total)


def _structure(tasks: list[wf.TaskNode], depth: int, rng: random.Random,
               goal_id: str, level: int = 0) -> wf.WorkflowNode:
    if depth == 0:
        if len(tasks) == 1:
            return tasks[0]
        return wf.Sequence(tuple(tasks))
    start = rng.randrange(0, len(tasks))
    stop = rng.randrange(start + 1, len(tasks) + 1)
    inner = _structure(tasks[start:stop], depth - 1, rng, goal_id, level + 1)
    nest_node = wf.Nest(f"{goal_id}.s{level}", inner)
    children: list[wf.WorkflowNode] = list(tasks[:start]) + [nest_node] + list(tasks[stop:])
    if len(children) == 1:
        return children[0]
    return wf.Sequence(tuple(children))


def generate(profile: CorpusProfile, seed: int, id_prefix: str = "g") -> list[CorpusRecord]:
    """Produce profile.total validated records, deterministic in the seed.

    ``id_prefix`` namespaces goal ids (and thus descriptor tokens), so
    corpora generated with the same seed and vocabulary can be merged.
    Raises InfeasibleProfile when the depth quota demands more nested
    records than there are multi-task records to carry them (a workflow
    of depth >= 1 needs at least two tasks here), and ConfigError when
    ``seed`` is not an integer.
    """
    if not is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    vocab = build_tool_vocabulary(profile.tool_vocab_size, seed)
    tool_ids = sorted(vocab)

    node_counts = _quota(profile.node_histogram, profile.total)
    depth_counts = _quota(profile.depth_histogram, profile.total)

    node_values: list[int] = []
    for value, count in sorted(node_counts.items()):
        node_values.extend([value] * count)
    rng = random.Random(derive_seed(seed, "layout"))
    rng.shuffle(node_values)

    deep_needed = sum(c for d, c in depth_counts.items() if d >= 1)
    eligible = [i for i, n in enumerate(node_values) if n >= 2]
    if deep_needed > len(eligible):
        raise InfeasibleProfile(
            f"depth quota needs {deep_needed} multi-task records, only "
            f"{len(eligible)} available"
        )
    deep_values: list[int] = []
    for value, count in sorted(depth_counts.items()):
        if value >= 1:
            deep_values.extend([value] * count)
    rng.shuffle(deep_values)
    rng.shuffle(eligible)
    depth_of = {i: 0 for i in range(profile.total)}
    for index, depth in zip(eligible, deep_values):
        depth_of[index] = depth

    pattern_tools = [task.tool_id for pattern in planted_library(profile, seed)
                     for task in wf.task_order(pattern.root)]

    records: list[CorpusRecord] = []
    for index in range(profile.total):
        r = random.Random(derive_seed(seed, "record", index))
        n = node_values[index]
        depth = depth_of[index]
        tools = [r.choice(tool_ids) for _ in range(n)]

        planted: tuple[tuple[int, wf.Path], ...] = ()
        if pattern_tools and n >= len(pattern_tools) and r.random() < profile.planted.rate:
            start = r.randrange(0, n - len(pattern_tools) + 1)
            tools[start : start + len(pattern_tools)] = pattern_tools
            planted = ((0, (start,)),)

        tasks = [vocab[t] for t in tools]
        goal_id = f"{id_prefix}{index:05d}"
        root = _structure(tasks, depth, r, goal_id)
        inputs = unbound_inputs(tasks)
        outputs = frozenset().union(*(t.output_schema for t in tasks))
        workflow = wf.Workflow(
            root=root,
            declared_inputs=inputs,
            declared_outputs=outputs,
            id=f"w-{goal_id}",
            goal_id=goal_id,
        )
        token_count = r.randint(3, 5)
        goal = Goal(
            id=goal_id,
            tokens=frozenset(f"{goal_id}:k{j}" for j in range(token_count)),
            input_schema=inputs,
            output_schema=outputs,
        )
        kind, size = bucket_labels(wf.node_metrics(root))
        records.append(CorpusRecord(goal, workflow, kind, size, planted))
    return records


def planted_library(profile: CorpusProfile, seed: int) -> list[wf.Workflow]:
    """The pattern workflows the generator plants, in library order."""
    if profile.planted is None:
        return []
    vocab = build_tool_vocabulary(profile.tool_vocab_size, seed)
    pattern_rng = random.Random(derive_seed(seed, "pattern"))
    tools = pattern_rng.sample(sorted(vocab), profile.planted.length)
    tasks = [vocab[t] for t in tools]
    return [wf.Workflow(
        root=wf.Sequence(tuple(tasks)),
        declared_inputs=unbound_inputs(tasks),
        declared_outputs=frozenset().union(*(t.output_schema for t in tasks)),
        id="pattern0",
    )]


# --- splitting ------------------------------------------------------------------


def split(corpus: list[CorpusRecord], train_fraction: float,
          seed: int) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Seeded stratified partition preserving per-bucket train shares."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    groups: dict[str, list[int]] = {}
    for i, record in enumerate(corpus):
        groups.setdefault(record.bucket, []).append(i)

    labels = sorted(groups)
    take = _largest_remainder(
        [(label, len(groups[label]) * train_fraction) for label in labels],
        round(train_fraction * len(corpus)),
    )

    rng = random.Random(derive_seed(seed, "split"))
    train_idx: set[int] = set()
    for label in labels:
        indices = list(groups[label])
        rng.shuffle(indices)
        train_idx.update(indices[: take[label]])
    train = [r for i, r in enumerate(corpus) if i in train_idx]
    test = [r for i, r in enumerate(corpus) if i not in train_idx]
    return train, test


# --- novel composite goals -------------------------------------------------------


def make_novel_goals(train: list[CorpusRecord], seed: int, count: int,
                     parts_range: tuple[int, int] = (2, 3),
                     structure: str = "linear",
                     id_prefix: str | None = None) -> list[CorpusRecord]:
    """Composite goals unseen as a whole: token unions of sampled trained goals.

    The ground-truth workflow is the concatenation of the parts'
    procedures in sampled order, wrapped in one sub-workflow boundary
    for the nested structure.  Declared inputs are the union of the
    parts' input interfaces, so any part permutation still binds.

    The bucket comes from the parts' metrics, each computed at most once
    per call: ``concat`` sums task and branch counts and keeps the deepest
    part's depth, and the nested wrapper adds one level, so it equals
    the bucket of the composed flow's own metrics.
    """
    lo, hi = parts_range
    if not 2 <= lo <= hi:
        raise ValueError("parts_range must satisfy 2 <= lo <= hi")
    if structure not in ("linear", "nested"):
        raise ValueError(f"unknown structure {structure!r}")
    if len(train) < hi:
        raise ValueError("train corpus too small for the requested parts range")
    prefix = id_prefix if id_prefix is not None else f"novel-{structure}"
    rng = random.Random(derive_seed(seed, "novel", structure, prefix))
    part_metrics: dict[int, wf.StructMetrics] = {}
    out: list[CorpusRecord] = []
    for i in range(count):
        m = rng.randint(lo, hi)
        picks = rng.sample(range(len(train)), m)
        parts = [train[j] for j in picks]
        for j in picks:
            if j not in part_metrics:
                part_metrics[j] = wf.node_metrics(train[j].workflow.root)
        picked = [part_metrics[j] for j in picks]
        goal_id = f"{prefix}-{i:04d}"
        expected = wf.concat(*[p.workflow for p in parts])
        inputs = frozenset().union(*(p.goal.input_schema for p in parts))
        outputs = frozenset().union(*(p.goal.output_schema for p in parts))
        expected = expected.replace(
            declared_inputs=inputs, declared_outputs=outputs,
            id=f"w-{goal_id}", goal_id=goal_id,
        )
        if structure == "nested":
            expected = wf.nest(expected, (), goal_id, expected)
        goal = Goal(
            id=goal_id,
            tokens=frozenset().union(*(p.goal.tokens for p in parts)),
            input_schema=inputs,
            output_schema=outputs,
            subgoal_template=tuple(p.goal.id for p in parts),
        )
        kind, size = bucket_labels(wf.StructMetrics(
            sum(p.length for p in picked),
            max(p.depth for p in picked) + (structure == "nested"),
            sum(p.branch_count for p in picked),
        ))
        out.append(CorpusRecord(goal, expected, kind, size))
    return out


# --- corpus files ------------------------------------------------------------------


def write_atomic(path: str | FsPath, text: str) -> None:
    """Write via a sibling temp file, fsync and rename, so a failure leaves
    the previous file (or none) in place and never a partial one."""
    path = FsPath(path)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp",
        delete=False, encoding="utf-8",
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def record_to_doc(record: CorpusRecord, docs: dict | None = None) -> dict:
    """A record's document; ``docs`` is ``wf.node_to_doc``'s table."""
    return {
        "goal": goal_to_doc(record.goal),
        "workflow": wf.to_doc(record.workflow, docs),
        "bucket": {"kind": record.bucket_kind, "size": record.bucket_size},
        "oracle": {"planted": [[idx, list(path)] for idx, path in record.planted]},
    }


def _planted_from_doc(entries) -> tuple[tuple[int, wf.Path], ...]:
    """``oracle.planted`` as (pattern index, path) pairs; anything but an
    array of ``[int, [int, ...]]`` entries raises ValueError naming the key."""
    def fits(entry) -> bool:
        return (isinstance(entry, (list, tuple)) and len(entry) == 2 and is_int(entry[0])
                and isinstance(entry[1], (list, tuple)) and all(is_int(i) for i in entry[1]))

    if not isinstance(entries, (list, tuple)) or not all(fits(e) for e in entries):
        raise ValueError(f"oracle.planted must be an array of [int, [int, ...]] entries, "
                         f"got {entries!r}")
    return tuple((idx, tuple(path)) for idx, path in entries)


def record_from_doc(doc: dict, strip_oracle: bool = False,
                    tasks: dict | None = None) -> CorpusRecord:
    """A record from its document; ``tasks`` is ``wf.node_from_doc``'s table."""
    planted: tuple[tuple[int, wf.Path], ...] = ()
    if not strip_oracle:
        planted = _planted_from_doc(doc.get("oracle", {}).get("planted", ()))
    bucket = doc["bucket"]
    for key in ("kind", "size"):
        if type(bucket[key]) is not str:
            raise ValueError(f"bucket.{key} must be a string, got {bucket[key]!r}")
    return CorpusRecord(
        goal=goal_from_doc(doc["goal"], strip_oracle=strip_oracle),
        workflow=wf.from_doc(doc["workflow"], tasks),
        bucket_kind=bucket["kind"],
        bucket_size=bucket["size"],
        planted=planted,
    )


def save_corpus(records: list[CorpusRecord], path: str | FsPath) -> None:
    """Write one canonical line per record; a node object shared by several
    records is turned into its document once per call."""
    docs: dict = {}
    lines = [wf.canonical_json(record_to_doc(r, docs)) for r in records]
    write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def read_json(path: str | FsPath, label: str):
    """The JSON document in a file; a file that cannot be read, is not UTF-8
    JSON or nests deeper than the recursion limit raises ValueError naming it."""
    try:
        return json.loads(FsPath(path).read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as exc:
        raise ValueError(f"unreadable {label} {str(path)!r}: {type(exc).__name__}: {exc}") from exc


def read_jsonl(path: str | FsPath, parse, label: str) -> list:
    """``parse`` each non-blank line's JSON document; a line that does not
    parse raises ValueError naming the file and the line."""
    items = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                items.append(parse(json.loads(line)))
            except (AttributeError, EngineError, LookupError, RecursionError, TypeError,
                    ValueError) as exc:
                raise ValueError(f"corrupt {label} {str(path)!r} line {number}: "
                                 f"{type(exc).__name__}: {exc}") from exc
    return items


def load_corpus(path: str | FsPath, strip_oracle: bool = False,
                tasks: dict | None = None) -> list[CorpusRecord]:
    """Read a corpus file; the records share one task node per distinct
    task document.  ``tasks`` is ``wf.node_from_doc``'s table: pass the
    same one to several loads to share nodes across their files, or none
    for a table of this call's own."""
    if tasks is None:
        tasks = {}
    return read_jsonl(path, lambda doc: record_from_doc(doc, strip_oracle, tasks), "corpus")


def load_profile(path: str | FsPath) -> CorpusProfile:
    """Read a profile file; missing keys and ill-typed values raise ConfigError."""
    doc = read_json(path, "profile file")
    try:
        planted = None
        if doc.get("planted"):
            planted = PlantedSubflowSpec(doc["planted"]["length"], doc["planted"]["rate"])
        return CorpusProfile(
            total=doc["total"],
            node_histogram={int(k): v for k, v in doc["node_histogram"].items()},
            depth_histogram={int(k): v for k, v in doc["depth_histogram"].items()},
            tool_vocab_size=doc.get("tool_vocab_size", 64),
            planted=planted,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed profile file {str(path)!r}: "
                          f"{type(exc).__name__}: {exc}") from exc
