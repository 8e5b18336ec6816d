import json
import os
import random

import pytest

from flowsmith import corpus as cp
from flowsmith import workflow as wf
from flowsmith.agents import build_agents, retrieve
from flowsmith.errors import InfeasibleProfile
from flowsmith.goals import Goal, similarity

from .conftest import oracle_validate, random_flow



def _l1(empirical: dict, target: dict) -> float:
    keys = set(empirical) | set(target)
    return sum(abs(empirical.get(k, 0.0) - target.get(k, 0.0)) for k in keys)


def _histograms(records):
    nodes: dict[int, float] = {}
    depths: dict[int, float] = {}
    for record in records:
        m = wf.node_metrics(record.workflow.root)
        nodes[m.length] = nodes.get(m.length, 0) + 1
        depths[m.depth] = depths.get(m.depth, 0) + 1
    total = len(records)
    return ({k: v / total for k, v in nodes.items()},
            {k: v / total for k, v in depths.items()})


# --- generate -----------------------------------------------------------------------


def test_all_mass_on_single_task_flows():
    profile = cp.CorpusProfile(total=50, node_histogram={1: 1.0},
                               depth_histogram={0: 1.0}, tool_vocab_size=8)
    records = cp.generate(profile, seed=1)
    assert len(records) == 50
    for record in records:
        m = wf.node_metrics(record.workflow.root)
        assert (m.length, m.depth) == (1, 0)


def test_every_generated_record_validates_and_buckets_consistently(small_corpus):
    for record in small_corpus:
        assert oracle_validate(record.workflow)
        m = wf.node_metrics(record.workflow.root)
        if record.bucket_kind == "linear":
            assert m.depth == 0
            if record.bucket_size == "2-3":
                assert 2 <= m.length <= 3
        else:
            assert m.depth >= 1
            if record.bucket_size == "1-2":
                assert 1 <= m.depth <= 2


def test_generation_is_deterministic():
    profile = cp.CorpusProfile(total=40, node_histogram={1: 0.5, 3: 0.5},
                               depth_histogram={0: 0.8, 1: 0.2}, tool_vocab_size=12)
    a = cp.generate(profile, seed=9)
    b = cp.generate(profile, seed=9)
    assert [cp.record_to_doc(r) for r in a] == [cp.record_to_doc(r) for r in b]


def test_default_profile_histograms_converge():
    profile = cp.default_profile(total=2000)
    records = cp.generate(profile, seed=3)
    nodes, depths = _histograms(records)
    assert _l1(nodes, profile.node_histogram) <= 0.05
    assert _l1(depths, profile.depth_histogram) <= 0.05


def test_atomic_goals_pairwise_dissimilar(small_corpus):
    goals = [r.goal for r in small_corpus[:30]]
    for i, a in enumerate(goals):
        for b in goals[i + 1:]:
            assert similarity(a, b) < 0.5


def test_planting_rate_within_tolerance():
    profile = cp.CorpusProfile(
        total=1500,
        node_histogram={5: 0.5, 6: 0.3, 8: 0.2},
        depth_histogram={0: 1.0},
        tool_vocab_size=24,
        planted=cp.PlantedSubflowSpec(length=3, rate=0.2),
    )
    records = cp.generate(profile, seed=23)
    share = sum(1 for r in records if r.planted) / len(records)
    assert abs(share - 0.2) <= 0.02
    library = cp.planted_library(profile, seed=23)
    for record in records:
        for index, path in record.planted:
            assert (index, path) in wf.find_subflows(record.workflow, library)


def test_infeasible_profile_rejected():
    with pytest.raises(InfeasibleProfile):
        profile = cp.CorpusProfile(total=100, node_histogram={1: 1.0},
                                   depth_histogram={0: 0.5, 2: 0.5},
                                   tool_vocab_size=8)
        cp.generate(profile, seed=1)
    with pytest.raises(InfeasibleProfile):
        cp.CorpusProfile(total=10, node_histogram={1: 0.7},  # mass does not sum to 1
                         depth_histogram={0: 1.0}, tool_vocab_size=8)


def test_planted_pattern_longer_than_the_tool_vocabulary_is_infeasible():
    planted = cp.PlantedSubflowSpec(length=3, rate=0.5)
    with pytest.raises(InfeasibleProfile, match="exceeds tool_vocab_size"):
        cp.CorpusProfile(total=10, node_histogram={1: 1.0}, depth_histogram={0: 1.0},
                         tool_vocab_size=2, planted=planted)
    profile = cp.CorpusProfile(total=10, node_histogram={3: 1.0}, depth_histogram={0: 1.0},
                               tool_vocab_size=3, planted=planted)
    assert len(cp.planted_library(profile, seed=1)[0].root.children) == 3


# --- split ---------------------------------------------------------------------------


def test_split_exact_counts_and_determinism():
    profile = cp.default_profile(total=8000)
    records = cp.generate(profile, seed=41)
    train, test = cp.split(records, 0.75, seed=6)
    assert (len(train), len(test)) == (6000, 2000)
    train2, test2 = cp.split(records, 0.75, seed=6)
    assert [r.goal.id for r in train] == [r.goal.id for r in train2]
    assert [r.goal.id for r in test] == [r.goal.id for r in test2]


def test_split_stratified_within_two_percent():
    profile = cp.default_profile(total=8000)
    records = cp.generate(profile, seed=41)
    train, _ = cp.split(records, 0.75, seed=6)
    per_bucket_total: dict[str, int] = {}
    per_bucket_train: dict[str, int] = {}
    for record in records:
        per_bucket_total[record.bucket] = per_bucket_total.get(record.bucket, 0) + 1
    for record in train:
        per_bucket_train[record.bucket] = per_bucket_train.get(record.bucket, 0) + 1
    for bucket, total in per_bucket_total.items():
        if total < 50:
            continue  # tiny strata cannot meet a percent-level bound
        share = per_bucket_train.get(bucket, 0) / total
        assert 0.73 <= share <= 0.77


# --- make_novel_goals -------------------------------------------------------------------


def test_novel_linear_two_parts_length_is_sum(small_corpus):
    novel = cp.make_novel_goals(small_corpus, seed=2, count=20, parts_range=(2, 2))
    by_id = {r.goal.id: r for r in small_corpus}
    for record in novel:
        assert record.goal.subgoal_template is not None
        want = sum(
            wf.node_metrics(by_id[pid].workflow.root).length
            for pid in record.goal.subgoal_template
        )
        assert wf.node_metrics(record.workflow.root).length == want
        assert wf.validate(record.workflow).ok


def test_novel_nested_three_parts_depth_law(small_corpus):
    novel = cp.make_novel_goals(small_corpus, seed=4, count=15, parts_range=(3, 3),
                                structure="nested")
    by_id = {r.goal.id: r for r in small_corpus}
    for record in novel:
        part_depth = max(
            wf.node_metrics(by_id[pid].workflow.root).depth
            for pid in record.goal.subgoal_template
        )
        assert wf.node_metrics(record.workflow.root).depth == part_depth + 1


def test_novel_goals_force_decomposition(small_corpus, trained_net):
    novel = cp.make_novel_goals(small_corpus, seed=8, count=10, parts_range=(2, 4))
    train_ids = {r.goal.id for r in small_corpus}
    for record in novel:
        assert record.goal.id not in train_ids
        assert retrieve(trained_net, record.goal, theta=0.8) == []
        # brute force: no single trained goal contains the union
        assert all(similarity(record.goal, g) < 1.0
                   for g, _ in trained_net.training)


def _branchy_train(seed: int, count: int) -> list[cp.CorpusRecord]:
    """Hand-built training records whose flows hold Branch nodes, which the
    generator never makes."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        flow = random_flow(rng, max_tasks=5, max_depth=3)
        goal = Goal(id=f"b{i:03d}", tokens={f"b{i:03d}:k0"},
                    input_schema=flow.declared_inputs, output_schema=flow.declared_outputs)
        kind, size = cp.bucket_labels(wf.node_metrics(flow.root))
        records.append(cp.CorpusRecord(goal, flow.replace(goal_id=goal.id), kind, size))
    assert any(wf.node_metrics(r.workflow.root).branch_count for r in records)
    return records


@pytest.mark.parametrize("structure", ["linear", "nested"])
def test_novel_goal_bucket_is_the_composed_flows_bucket(small_corpus, structure):
    trains = [small_corpus, _branchy_train(3, 30), small_corpus[:40] + _branchy_train(5, 20)]
    for train in trains:
        for seed in (1, 2, 3):
            for parts_range in ((2, 2), (2, 4), (4, 6)):
                novel = cp.make_novel_goals(train, seed, 15, parts_range, structure)
                for record in novel:
                    want = cp.bucket_labels(wf.node_metrics(record.workflow.root))
                    assert (record.bucket_kind, record.bucket_size) == want


def test_novel_expected_workflow_matches_template_composition(small_corpus):
    novel = cp.make_novel_goals(small_corpus, seed=12, count=10, parts_range=(2, 3))
    by_id = {r.goal.id: r for r in small_corpus}
    for record in novel:
        parts = [by_id[pid].workflow for pid in record.goal.subgoal_template]
        rebuilt = parts[0]
        for part in parts[1:]:
            rebuilt = wf.concat(rebuilt, part)
        assert wf.structurally_equal(record.workflow, rebuilt)


# --- files ----------------------------------------------------------------------------


def test_corpus_file_round_trip(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    cp.save_corpus(small_corpus, path)
    back = cp.load_corpus(path)
    assert [cp.record_to_doc(r) for r in back] == [cp.record_to_doc(r) for r in small_corpus]


def _task_record(index: int, task: wf.TaskNode) -> cp.CorpusRecord:
    goal = Goal(id=f"p{index}", tokens={f"p{index}:k0"},
                input_schema=task.input_schema, output_schema=task.output_schema)
    flow = wf.Workflow(task, task.input_schema, task.output_schema, f"w-p{index}", goal.id)
    return cp.CorpusRecord(goal, flow, "linear", "1")


def test_task_params_keep_their_types_through_load_and_save(tmp_path):
    values = [1, 1.0, True, 0.0, -0.0, "1", None]
    records = [_task_record(i, wf.TaskNode("t000", {"ctx_00"}, {"t000_o0"}, {"x": value}))
               for i, value in enumerate(values)]
    path, again = tmp_path / "params.jsonl", tmp_path / "again.jsonl"
    cp.save_corpus(records, path)
    loaded = cp.load_corpus(path)
    assert [repr(dict(r.workflow.root.params)["x"]) for r in loaded] == list(map(repr, values))
    cp.save_corpus(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_loaded_corpus_holds_one_task_node_per_distinct_task_document(tmp_path):
    profile = cp.CorpusProfile(total=60, node_histogram={2: 0.25, 3: 0.25, 4: 0.25, 5: 0.25},
                               depth_histogram={0: 0.25, 1: 0.5, 2: 0.25}, tool_vocab_size=24)
    train = cp.generate(profile, seed=7)
    goals = (cp.make_novel_goals(train, 7, 40, (4, 6), "linear")
             + cp.make_novel_goals(train, 7, 40, (4, 6), "nested"))
    for records, name in ((train, "train"), (goals, "test")):
        path, again = tmp_path / f"{name}.jsonl", tmp_path / f"{name}-again.jsonl"
        cp.save_corpus(records, path)
        loaded = cp.load_corpus(path)
        tasks = [t for r in loaded for t in wf.task_order(r.workflow.root)]
        documents = {wf.canonical_json(wf.node_to_doc(t)) for t in tasks}
        assert len({id(t) for t in tasks}) == len(documents) < len(tasks)
        cp.save_corpus(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_task_nodes_are_shared_within_one_load_only(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    cp.save_corpus(small_corpus, path)
    first, second = cp.load_corpus(path), cp.load_corpus(path)
    task = wf.task_order(first[0].workflow.root)[0]
    assert task == wf.task_order(second[0].workflow.root)[0]
    assert all(t is not task for r in second for t in wf.task_order(r.workflow.root))
    alone = wf.from_doc(wf.to_doc(first[0].workflow))
    assert wf.task_order(alone.root)[0] is not task


def test_corpus_loader_strips_oracle_fields(tmp_path, small_corpus):
    novel = cp.make_novel_goals(small_corpus, seed=2, count=3, parts_range=(2, 2))
    path = tmp_path / "novel.jsonl"
    cp.save_corpus(novel, path)
    stripped = cp.load_corpus(path, strip_oracle=True)
    assert all(r.goal.subgoal_template is None for r in stripped)
    assert all(r.planted == () for r in stripped)


def test_corpus_loader_reports_corrupt_line_number(tmp_path, small_corpus):
    path = tmp_path / "bad.jsonl"
    lines = [wf.canonical_json(cp.record_to_doc(r)) for r in small_corpus[:3]]
    lines[1] = "{not valid json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        cp.load_corpus(path)


def test_profile_file_round_trip(tmp_path):
    profile = cp.default_profile(total=1234,
                                 planted=cp.PlantedSubflowSpec(length=4, rate=0.1))
    doc = {
        "total": profile.total,
        "node_histogram": {str(k): v for k, v in profile.node_histogram.items()},
        "depth_histogram": {str(k): v for k, v in profile.depth_histogram.items()},
        "tool_vocab_size": profile.tool_vocab_size,
        "planted": {"length": 4, "rate": 0.1},
    }
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    assert cp.load_profile(path) == profile


def test_failed_save_keeps_the_old_file(tmp_path, small_corpus, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    cp.save_corpus(small_corpus[:3], path)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("simulated disk failure")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="simulated"):
        cp.save_corpus(small_corpus, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


def test_network_build_from_generated_corpus(small_corpus):
    net = build_agents([(r.goal, r.workflow) for r in small_corpus])
    assert len(net.active) == len(small_corpus)
