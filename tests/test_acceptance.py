"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Criteria cover exact recall, the hypothesis-ablation zero, ablation
ordering, degradation shape across structure buckets, pass@k
monotonicity, life dynamics, repair completeness, the composition
algebra, corpus fidelity, reuse-efficiency mechanics, and determinism.
Each test enforces its stated tolerance and wall-clock budget.
"""

from __future__ import annotations

import random
import time

import pytest

from flowsmith import corpus as cp
from flowsmith import workflow as wf
from flowsmith.agents import (
    LifeConfig,
    Outcome,
    build_agents,
    eliminate_and_refresh,
    select,
    selection_probabilities,
    update_life,
)
from flowsmith.errors import DecompositionFailure
from flowsmith.evaluation import (
    BucketedEpisode,
    ExperimentConfig,
    MetricsReport,
    ablate,
    overall_pass_at_1,
    pass_at_k,
    reuse_efficiency,
    run_experiment,
)
from flowsmith.goals import Goal
from flowsmith.orchestrator import EpisodeResult, Rank, SolveConfig, Verdict, solve, verify
from flowsmith.repair import repair_loop

from .conftest import chain_flow, chain_pool, enumerate_single_edits, mk_flow

SEED = 20240811


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def check(self, label: str) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget_s, f"{label} exceeded {self.budget_s}s ({elapsed:.1f}s)"
        return elapsed


def verdict_line(number: int, label: str, elapsed: float) -> None:
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


# --- shared fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def acceptance_env(tmp_path_factory):
    """Corpora and files shared by the protocol-level criteria (2, 3, 4, 11)."""
    base = tmp_path_factory.mktemp("acceptance")
    flat_profile = cp.CorpusProfile(
        total=80, node_histogram={1: 1.0}, depth_histogram={0: 1.0}, tool_vocab_size=32,
    )
    deep_profile = cp.CorpusProfile(
        total=60,
        node_histogram={2: 0.5, 3: 0.5},
        depth_histogram={2: 0.4, 3: 0.3, 4: 0.2, 5: 0.1},
        tool_vocab_size=32,
    )
    flat = cp.generate(flat_profile, seed=SEED, id_prefix="fa")
    deep = cp.generate(deep_profile, seed=SEED, id_prefix="da")
    train = flat + deep

    novel_small = cp.make_novel_goals(flat, seed=SEED, count=120, parts_range=(2, 3),
                                      id_prefix="nv-lin-s")
    novel_nested = cp.make_novel_goals(flat, seed=SEED, count=80, parts_range=(3, 3),
                                       structure="nested", id_prefix="nv-nst-s")
    novel200 = novel_small + novel_nested

    lin_mid = cp.make_novel_goals(flat, seed=SEED + 1, count=40, parts_range=(4, 6),
                                  id_prefix="nv-lin-m")
    lin_big = cp.make_novel_goals(flat, seed=SEED + 2, count=40, parts_range=(7, 8),
                                  id_prefix="nv-lin-l")
    linear_ladder = novel_small[:40] + lin_mid + lin_big

    deep_23 = [r for r in deep if 2 <= wf.node_metrics(r.workflow.root).depth <= 3]
    deep_45 = [r for r in deep if wf.node_metrics(r.workflow.root).depth >= 4]
    nst_mid = cp.make_novel_goals(deep_23, seed=SEED + 3, count=40, parts_range=(2, 3),
                                  structure="nested", id_prefix="nv-nst-m")
    nst_big = cp.make_novel_goals(deep_45, seed=SEED + 4, count=40, parts_range=(2, 3),
                                  structure="nested", id_prefix="nv-nst-l")
    nested_ladder = novel_nested[:40] + nst_mid + nst_big

    paths = {}
    for name, records in [
        ("train", train), ("novel200", novel200),
        ("linear_ladder", linear_ladder), ("nested_ladder", nested_ladder),
    ]:
        path = base / f"{name}.jsonl"
        cp.save_corpus(records, path)
        paths[name] = str(path)
    return {"base": base, "paths": paths, "train": train, "novel200": novel200,
            "linear_ladder": linear_ladder, "nested_ladder": nested_ladder}


def _experiment(env, test_key: str, **kw) -> ExperimentConfig:
    defaults = dict(train_path=env["paths"]["train"], test_path=env["paths"][test_key],
                    seed=SEED)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# --- criterion 1: exact recall ----------------------------------------------------------


def test_criterion_1_exact_recall():
    watch = Stopwatch(10.0)
    profile = cp.CorpusProfile(
        total=500,
        node_histogram={1: 0.55, 2: 0.2, 3: 0.15, 4: 0.1},
        depth_histogram={0: 0.8, 1: 0.15, 2: 0.05},
        tool_vocab_size=48,
    )
    records = cp.generate(profile, seed=SEED)
    net = build_agents([(r.goal, r.workflow) for r in records])
    config = SolveConfig(seed=SEED)
    hits = 0
    for record in records:
        episode = solve(net, record.goal, config, expected=record.workflow)
        assert episode.passed_rank() == 1
        assert wf.structurally_equal(episode.candidates[0][0], record.workflow)
        hits += 1
    assert hits == 500
    elapsed = watch.check("exact recall")
    verdict_line(1, "exact recall on 500 training pairs, pass@1 = 100%", elapsed)


# --- criterion 2: hypothesis-ablation zero ------------------------------------------------


def test_criterion_2_hypothesis_ablation_zero(acceptance_env):
    watch = Stopwatch(60.0)
    env = acceptance_env
    assert len(env["novel200"]) == 200

    off = ablate(_experiment(env, "novel200", k_list=(1, 3, 5)), "hypothesis")
    for bucket, table in off.per_bucket.items():
        assert table[5] == 0.0, f"no-hypothesis must score zero in {bucket}"

    full = run_experiment(_experiment(env, "novel200", repair_budget=5))
    small_linear = full.per_bucket["linear 2-3"]
    assert small_linear[1] >= 0.90
    elapsed = watch.check("hypothesis ablation")
    verdict_line(2, "no-hypothesis pass@5 = 0% on 200 novel goals; "
                    f"full pass@1 = {small_linear[1]:.2f} on linear 2-3", elapsed)


# --- criterion 3: ablation ordering ---------------------------------------------------------


def test_criterion_3_ablation_ordering(acceptance_env):
    watch = Stopwatch(120.0)
    env = acceptance_env
    records = env["novel200"]
    train = env["train"]

    def overall(disabled: frozenset[str]) -> float:
        config = ExperimentConfig(
            train_path=env["paths"]["train"], test_path=env["paths"]["novel200"],
            seed=SEED, disabled=disabled,
        )
        net = build_agents([(r.goal, r.workflow) for r in train])
        from flowsmith.evaluation import run_episodes
        episodes, _ = run_episodes(net, records, config.solve_config())
        return overall_pass_at_1(episodes)

    full = overall(frozenset())
    no_scale = overall(frozenset({"scale_control"}))
    no_verify = overall(frozenset({"verification"}))
    no_hypothesis = overall(frozenset({"hypothesis"}))

    assert full >= no_scale >= no_verify >= no_hypothesis
    assert no_hypothesis == 0.0
    assert no_verify > no_hypothesis, "the last inequality must be strict"
    elapsed = watch.check("ablation ordering")
    verdict_line(3, f"ordering {full:.2f} >= {no_scale:.2f} >= {no_verify:.2f} "
                    f"> {no_hypothesis:.2f}", elapsed)


# --- criterion 4: degradation shape ---------------------------------------------------------


def _bucket_drop(report: MetricsReport, order: list[str]) -> float:
    first = report.per_bucket[order[0]][1]
    last = report.per_bucket[order[-1]][1]
    return first - last


def test_criterion_4_degradation_shape(acceptance_env):
    watch = Stopwatch(180.0)
    env = acceptance_env
    for key, order in [
        ("linear_ladder", ["linear 2-3", "linear 4-6", "linear 7+"]),
        ("nested_ladder", ["nested 1-2", "nested 3-4", "nested 5+"]),
    ]:
        full = run_experiment(_experiment(env, key, repair_budget=5))
        no_repair = run_experiment(_experiment(env, key, repair_budget=0))
        assert set(order) <= set(full.per_bucket), full.per_bucket.keys()
        full_drop = _bucket_drop(full, order)
        no_repair_drop = _bucket_drop(no_repair, order)
        assert full_drop <= no_repair_drop, (key, full_drop, no_repair_drop)
        assert full_drop <= 0.10, (key, full_drop)
    elapsed = watch.check("degradation shape")
    verdict_line(4, "bucket degradation: full-pipeline drop <= no-repair drop "
                    "and <= 10 points, linear and nested", elapsed)


# --- criterion 5: pass@k monotonicity --------------------------------------------------------


def test_criterion_5_pass_at_k_monotone(acceptance_env):
    watch = Stopwatch(120.0)
    env = acceptance_env
    reports = [
        run_experiment(_experiment(env, "novel200")),
        run_experiment(_experiment(env, "linear_ladder")),
        ablate(_experiment(env, "novel200"), "hypothesis"),
    ]
    for report in reports:
        for bucket, table in report.per_bucket.items():
            ks = sorted(table)
            for a, b in zip(ks, ks[1:]):
                assert table[a] <= table[b], (bucket, table)
    # the hard assertion inside MetricsReport rejects non-monotone tables
    with pytest.raises(AssertionError):
        MetricsReport(per_bucket={"linear 2-3": {1: 1.0, 3: 0.4}}, reuse_pct=None,
                      life_summary={}, runtime={}, config_echo={})
    elapsed = watch.check("monotonicity")
    verdict_line(5, "pass@1 <= pass@3 <= pass@5 in every bucket of every report",
                 elapsed)


# --- criterion 6: life-dynamics suite ---------------------------------------------------------


def test_criterion_6_life_dynamics():
    watch = Stopwatch(30.0)
    net = chain_pool(6)

    # probabilities sum to one
    candidates = [(agent, 0.2 + 0.1 * i) for i, agent in enumerate(net.active)]
    assert abs(sum(selection_probabilities(candidates)) - 1.0) <= 1e-9

    # zero-life exclusion: exact zero mass and never drawn
    net.active[0].life = 0.0
    probs = selection_probabilities([(net.active[0], 1.0), (net.active[1], 1.0)])
    assert probs[0] == 0.0
    rng = random.Random(SEED)
    assert all(select([(net.active[0], 1.0), (net.active[1], 1.0)], rng)
               is net.active[1] for _ in range(10000))

    # closed form 0.25 / 0.75 against 100k seeded draws
    a, b = net.active[2], net.active[3]
    a.life, b.life = 10.0, 30.0
    rng = random.Random(SEED + 1)
    draws = 100000
    hits_a = sum(1 for _ in range(draws) if select([(a, 1.0), (b, 1.0)], rng) is a)
    assert abs(hits_a / draws - 0.25) <= 0.01
    assert abs((draws - hits_a) / draws - 0.75) <= 0.01

    # life stays inside [0, L_max] under random outcome streams, and the
    # active/archive partition holds after every refresh
    config = LifeConfig()
    stream_rng = random.Random(SEED + 2)
    for _ in range(300):
        agent = stream_rng.choice(net.active)
        if stream_rng.random() < 0.5:
            update_life(agent, Outcome(r_correct=1, r_reuse=1), config)
        else:
            update_life(agent, Outcome(p_fail=1, p_drift=1), config)
        assert 0.0 <= agent.life <= config.l_max
        eliminate_and_refresh(net)
        active_ids = {x.agent_id for x in net.active}
        archive_ids = {x.agent_id for x in net.archive}
        assert not (active_ids & archive_ids)
        assert all(x.life > 0 for x in net.active)
    elapsed = watch.check("life dynamics")
    verdict_line(6, "selection normalization, zero-life exclusion, 0.25/0.75 "
                    "within 0.01, bounds and partition hold", elapsed)


# --- criterion 7: repair completeness ----------------------------------------------------------


def test_criterion_7_repair_completeness():
    watch = Stopwatch(60.0)
    net = chain_pool(10)
    insertables = [agent.procedure.root for agent in net.active]
    rng = random.Random(SEED)
    recovered = 0
    total = 1000
    for case in range(total):
        size = rng.randint(2, 6)
        indices = rng.sample(range(10), size)
        expected = chain_flow(indices, gid=f"case{case}")
        kids = list(wf.child_list(wf.normalize_node(expected.root)))
        if rng.random() < 0.5:
            pos = rng.randrange(size)
            faulty_kids = kids[:pos] + kids[pos + 1:]
        else:
            pos = rng.randrange(size - 1)
            faulty_kids = list(kids)
            faulty_kids[pos], faulty_kids[pos + 1] = faulty_kids[pos + 1], faulty_kids[pos]
        faulty = mk_flow(faulty_kids, ins=expected.declared_inputs,
                         outs=expected.declared_outputs)
        if wf.structurally_equal(faulty, expected):
            recovered += 1  # swapping identical neighbours is not a fault
            continue
        # brute-force oracle: the fault must be reachable by one legal edit
        variants = enumerate_single_edits(faulty, insertables)
        assert any(wf.structurally_equal(v, expected) for v in variants)
        goal = Goal(id=f"case{case}", tokens=frozenset({f"case{case}"}),
                    input_schema=expected.declared_inputs,
                    output_schema=expected.declared_outputs)
        repaired, verdict, _, _ = repair_loop(net, goal, faulty, verify(faulty, expected),
                                              expected, SolveConfig(repair_budget=3),
                                              random.Random(case))
        assert verdict.passed
        assert wf.structurally_equal(repaired, expected)
        recovered += 1
    assert recovered == total
    elapsed = watch.check("repair completeness")
    verdict_line(7, f"{total}/{total} injected single-edit faults repaired "
                    "within budget 3", elapsed)


# --- criterion 8: composition algebra suite ------------------------------------------------------


def test_criterion_8_composition_algebra():
    watch = Stopwatch(30.0)
    profile = cp.CorpusProfile(
        total=250,
        node_histogram={1: 0.25, 2: 0.25, 3: 0.2, 4: 0.15, 5: 0.1, 7: 0.05},
        depth_histogram={0: 0.6, 1: 0.3, 2: 0.1},
        tool_vocab_size=24,
    )
    flows = [r.workflow for r in cp.generate(profile, seed=SEED)]
    rng = random.Random(SEED)
    failures = 0
    for _ in range(1000):
        a, b, c = rng.choice(flows), rng.choice(flows), rng.choice(flows)
        joined = wf.concat(a, b)
        if wf.node_metrics(joined.root).length != (
            wf.node_metrics(a.root).length + wf.node_metrics(b.root).length
        ):
            failures += 1
        if not wf.structurally_equal(wf.concat(joined, c), wf.concat(a, wf.concat(b, c))):
            failures += 1
        nested = wf.nest(a, (), "sub", b)
        if wf.node_metrics(nested.root).depth != wf.node_metrics(b.root).depth + 1:
            failures += 1
        flat = wf.flatten(a)
        if wf.flatten(flat).root != flat.root or wf.node_metrics(flat.root).depth != 0:
            failures += 1
        if [t.tool_id for t in wf.task_order(flat.root)] != \
           [t.tool_id for t in wf.task_order(a.root)]:
            failures += 1
        script = wf.diff(a, b)
        if not wf.structurally_equal(wf.apply_edits(script, a), b):
            failures += 1
    assert failures == 0
    elapsed = watch.check("composition algebra")
    verdict_line(8, "1000 random pairs: additivity, associativity, depth law, "
                    "flatten laws, diff/apply round-trip, zero failures", elapsed)


# --- criterion 9: corpus fidelity ------------------------------------------------------------------


def test_criterion_9_corpus_fidelity():
    watch = Stopwatch(30.0)
    # target proportions recomputed here from the published structure counts
    node_counts = {1: 14508, 2: 2252, 3: 4496, 4: 1166, 5: 476, 6: 226, 7: 103,
                   8: 143, 9: 51, 10: 5, 11: 28, 12: 2, 13: 33, 14: 1, 16: 11}
    depth_counts = {0: 16434, 1: 6425, 2: 451, 3: 121, 4: 56, 5: 18, 6: 16}
    node_target = {k: v / sum(node_counts.values()) for k, v in node_counts.items()}
    depth_target = {k: v / sum(depth_counts.values()) for k, v in depth_counts.items()}

    records = cp.generate(cp.default_profile(total=10000), seed=SEED)
    assert len(records) == 10000
    nodes: dict[int, int] = {}
    depths: dict[int, int] = {}
    for record in records:
        m = wf.node_metrics(record.workflow.root)
        nodes[m.length] = nodes.get(m.length, 0) + 1
        depths[m.depth] = depths.get(m.depth, 0) + 1
    node_l1 = sum(abs(nodes.get(k, 0) / 10000 - node_target.get(k, 0.0))
                  for k in set(nodes) | set(node_target))
    depth_l1 = sum(abs(depths.get(k, 0) / 10000 - depth_target.get(k, 0.0))
                   for k in set(depths) | set(depth_target))
    assert node_l1 <= 0.05, node_l1
    assert depth_l1 <= 0.05, depth_l1
    elapsed = watch.check("corpus fidelity")
    verdict_line(9, f"10k records: node L1 = {node_l1:.4f}, depth L1 = {depth_l1:.4f} "
                    "(both <= 0.05)", elapsed)


# --- criterion 10: reuse-efficiency mechanics --------------------------------------------------------


def test_criterion_10_reuse_mechanics():
    watch = Stopwatch(10.0)
    profile = cp.CorpusProfile(
        total=400,
        node_histogram={4: 0.3, 5: 0.3, 6: 0.2, 8: 0.2},
        depth_histogram={0: 0.7, 1: 0.3},
        tool_vocab_size=24,
        planted=cp.PlantedSubflowSpec(length=3, rate=0.25),
    )
    records = cp.generate(profile, seed=SEED)
    library = cp.planted_library(profile, seed=SEED)
    planted_total = 0
    found_total = 0
    for record in records:
        matches = wf.find_subflows(record.workflow, library)
        for hit in record.planted:
            planted_total += 1
            if hit in matches:
                found_total += 1
    assert planted_total > 0
    assert found_total == planted_total  # recall = 100%

    # 20-episode fixture: 16 pass, of which 12 carry the pattern -> exactly 75%
    pattern = library[0]
    with_pattern = pattern
    without = chain_flow([0, 1])

    def fixture_episode(i: int, passes: bool, carries: bool) -> BucketedEpisode:
        flow = with_pattern if carries else without
        verdict = Verdict(passed=passes, score=1.0 if passes else 0.0, mode="oracle")
        episode = EpisodeResult(goal_id=f"fix{i}", ranks=[Rank(flow, verdict)], steps=1, seed=0)
        goal = Goal(id=f"fix{i}", tokens=frozenset({f"fix{i}"}))
        record = cp.CorpusRecord(goal, flow, "linear", "2-3")
        return BucketedEpisode(record=record, episode=episode)

    episodes = (
        [fixture_episode(i, True, True) for i in range(12)]
        + [fixture_episode(12 + i, True, False) for i in range(4)]
        + [fixture_episode(16 + i, False, True) for i in range(4)]
    )
    assert len(episodes) == 20
    assert reuse_efficiency(episodes, library) == 75.0
    elapsed = watch.check("reuse mechanics")
    verdict_line(10, f"planted recall {found_total}/{planted_total}; "
                     "20-episode fixture reuse = 75.0% exactly", elapsed)


# --- criterion 11: determinism ------------------------------------------------------------------------


def test_criterion_11_determinism(acceptance_env):
    watch = Stopwatch(120.0)
    env = acceptance_env
    base = env["base"]

    sizes = (len(env["train"]) // 8, len(env["train"]) // 4)

    def run(tag: str, parallelism: int) -> MetricsReport:
        return run_experiment(_experiment(
            env, "novel200", parallelism=parallelism, sweep_sizes=sizes,
            report_path=str(base / f"det-{tag}.json"),
            csv_path=str(base / f"det-{tag}.csv"),
            transcripts_path=str(base / f"det-{tag}.jsonl"),
        ))

    for tag, parallelism in (("a", 1), ("b", 1), ("pa", 4), ("pb", 4)):
        run(tag, parallelism)
    for ext in ("json", "csv", "jsonl"):
        serial = (base / f"det-a.{ext}").read_bytes()
        for tag in ("b", "pa", "pb"):
            assert (base / f"det-{tag}.{ext}").read_bytes() == serial, (tag, ext)
    elapsed = watch.check("determinism")
    verdict_line(11, "byte-identical outputs across repeated serial and parallel "
                     "runs", elapsed)
