import json

import pytest

from flowsmith import corpus as cp
from flowsmith import workflow as wf
from flowsmith.agents import Outcome
from flowsmith.errors import ConfigError
from flowsmith.evaluation import (
    ABLATABLE,
    BucketedEpisode,
    ExperimentConfig,
    MetricsReport,
    ablate,
    pass_at_k,
    reuse_efficiency,
    run_episode,
    run_experiment,
    write_atomic,
)
from flowsmith.goals import Goal
from flowsmith.orchestrator import EpisodeResult, Rank, SolveConfig, Verdict

from .conftest import agent_named, chain_flow, chain_pool, mk_flow, mk_task, outcome_ids


def _episode(goal_id: str, pass_rank: int | None, k: int = 5,
             final: wf.Workflow | None = None) -> EpisodeResult:
    flow = final if final is not None else chain_flow([0])
    ranks = []
    for rank in range(1, (pass_rank or k) + 1):
        passed = pass_rank is not None and rank == pass_rank
        ranks.append(Rank(flow, Verdict(passed=passed, score=1.0 if passed else 0.0,
                                        mode="oracle")))
    return EpisodeResult(goal_id=goal_id, ranks=ranks, steps=len(ranks), seed=0)


def _bucketed(goal_id, pass_rank, bucket=("linear", "2-3"), final=None):
    flow = final if final is not None else chain_flow([0, 1])
    goal = Goal(id=goal_id, tokens=frozenset({goal_id}),
                input_schema=flow.declared_inputs, output_schema=flow.declared_outputs)
    record = cp.CorpusRecord(goal, flow, bucket[0], bucket[1])
    return BucketedEpisode(record=record, episode=_episode(goal_id, pass_rank, final=final))


# --- pass_at_k -----------------------------------------------------------------------


def test_pass_at_k_rank_two_counts_for_three_and_five_only():
    table = pass_at_k([_bucketed("a", 2)], (1, 3, 5))
    assert table["linear 2-3"] == {1: 0.0, 3: 1.0, 5: 1.0}


def test_pass_at_k_all_failures_is_zero():
    episodes = [_bucketed(f"e{i}", None) for i in range(4)]
    table = pass_at_k(episodes, (1, 3, 5))
    assert table["linear 2-3"] == {1: 0.0, 3: 0.0, 5: 0.0}


def test_pass_at_k_hand_counted_batch():
    episodes = [_bucketed("a", 1), _bucketed("b", 2), _bucketed("c", 4), _bucketed("d", None)]
    table = pass_at_k(episodes, (1, 3, 5))
    assert table["linear 2-3"] == {1: 0.25, 3: 0.50, 5: 0.75}


def test_pass_at_k_monotone_for_every_bucket():
    episodes = [_bucketed("a", 1), _bucketed("b", 3, bucket=("nested", "1-2")),
                _bucketed("c", None, bucket=("nested", "1-2"))]
    table = pass_at_k(episodes, (1, 3, 5))
    for bucket in table.values():
        assert bucket[1] <= bucket[3] <= bucket[5]


# --- reuse_efficiency ------------------------------------------------------------------


def test_reuse_empty_library_is_zero():
    assert reuse_efficiency([_bucketed("a", 1)], []) == 0.0


def test_reuse_hand_counted_three_of_four():
    with_pattern = chain_flow([0, 1, 2])
    without = chain_flow([5, 6])
    episodes = [
        _bucketed("a", 1, final=with_pattern),
        _bucketed("b", 1, final=with_pattern),
        _bucketed("c", 1, final=with_pattern),
        _bucketed("d", 1, final=without),
    ]
    library = [chain_flow([0, 1])]
    assert reuse_efficiency(episodes, library) == pytest.approx(75.0)


def test_reuse_counts_only_passing_episodes():
    with_pattern = chain_flow([0, 1, 2])
    episodes = [_bucketed("a", 1, final=with_pattern), _bucketed("b", None, final=with_pattern)]
    assert reuse_efficiency(episodes, [chain_flow([0, 1])]) == pytest.approx(100.0)


# --- MetricsReport invariants ------------------------------------------------------------


def test_metrics_report_rejects_non_monotone_table():
    with pytest.raises(AssertionError):
        MetricsReport(per_bucket={"linear 2-3": {1: 0.9, 3: 0.5}}, reuse_pct=None,
                      life_summary={}, runtime={}, config_echo={})


# --- experiment fixtures -------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("exp")
    profile = cp.CorpusProfile(
        total=120,
        node_histogram={1: 0.6, 2: 0.25, 3: 0.15},
        depth_histogram={0: 0.8, 1: 0.2},
        tool_vocab_size=20,
    )
    records = cp.generate(profile, seed=71)
    novel = cp.make_novel_goals(records, seed=72, count=40, parts_range=(2, 3))
    train_path = base / "train.jsonl"
    novel_path = base / "novel.jsonl"
    cp.save_corpus(records, train_path)
    cp.save_corpus(novel, novel_path)
    return base, str(train_path), str(novel_path)


def _config(base, train, test, **kw):
    defaults = dict(
        train_path=train, test_path=test, seed=17,
        report_path=str(base / "report.json"),
        csv_path=str(base / "report.csv"),
        transcripts_path=str(base / "episodes.jsonl"),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# --- run_experiment --------------------------------------------------------------------------


def test_exact_recall_setting_scores_full_marks(experiment_files):
    base, train, _ = experiment_files
    report = run_experiment(_config(base, train, train))
    for bucket, table in report.per_bucket.items():
        for k, value in table.items():
            assert value == 1.0, (bucket, k)


def test_full_pipeline_solves_novel_composites(experiment_files):
    base, train, novel = experiment_files
    report = run_experiment(_config(base, train, novel))
    for table in report.per_bucket.values():
        assert table[1] >= 0.9


def test_reports_are_byte_identical_under_same_seed(experiment_files):
    base, train, novel = experiment_files
    cfg1 = _config(base, train, novel, report_path=str(base / "r1.json"),
                   csv_path=str(base / "c1.csv"), transcripts_path=str(base / "t1.jsonl"))
    cfg2 = _config(base, train, novel, report_path=str(base / "r2.json"),
                   csv_path=str(base / "c2.csv"), transcripts_path=str(base / "t2.jsonl"))
    run_experiment(cfg1)
    run_experiment(cfg2)
    assert (base / "r1.json").read_bytes() == (base / "r2.json").read_bytes()
    assert (base / "c1.csv").read_bytes() == (base / "c2.csv").read_bytes()
    assert (base / "t1.jsonl").read_bytes() == (base / "t2.jsonl").read_bytes()


def test_parallel_mode_reproduces_aggregates(experiment_files):
    """Serial and parallel runs write the same bytes, with and without repair.

    With a zero repair budget failed candidates are penalised, so agents are
    archived and revived and each episode depends on the ones before it.
    """
    base, train, novel = experiment_files
    for budget in (5, 0):
        for parallelism in (1, 3):
            tag = f"b{budget}-p{parallelism}"
            run_experiment(_config(
                base, train, novel, parallelism=parallelism, repair_budget=budget,
                sweep_sizes=(1, 60, 120),
                report_path=str(base / f"{tag}.json"), csv_path=str(base / f"{tag}.csv"),
                transcripts_path=str(base / f"{tag}.jsonl"),
            ))
        for ext in ("json", "csv", "jsonl"):
            serial = (base / f"b{budget}-p1.{ext}").read_bytes()
            assert serial == (base / f"b{budget}-p3.{ext}").read_bytes(), (budget, ext)


def test_sweep_workers_capped_by_point_count(experiment_files, monkeypatch):
    import concurrent.futures

    sizes = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    base, train, novel = experiment_files
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    report = run_experiment(_config(base, train, novel, parallelism=64, sweep_sizes=(1, 120),
                                    report_path=None, csv_path=None, transcripts_path=None))
    assert sizes == [2]
    assert set(report.sweep) == {1, 120}


def test_missing_corpus_file_is_a_config_error(experiment_files):
    base, train, _ = experiment_files
    with pytest.raises(ConfigError):
        run_experiment(_config(base, train, str(base / "nope.jsonl")))


def test_sweep_accuracy_grows_with_pool_size(experiment_files):
    base, train, novel = experiment_files
    report = run_experiment(_config(base, train, novel, sweep_sizes=(1, 120),
                                    report_path=None, csv_path=None,
                                    transcripts_path=None))
    assert set(report.sweep) == {1, 120}
    assert report.sweep[1] <= report.sweep[120]
    assert report.sweep[120] >= 0.9


@pytest.mark.parametrize("settings, message", [
    ({"parallelism": 1.5}, "parallelism must be an integer, got 1.5"),
    ({"parallelism": "2"}, "parallelism must be an integer, got '2'"),
    ({"sweep_sizes": [1, "a"]}, "sweep sizes must be integers, got [1, 'a']"),
    ({"sweep_sizes": [5, 5]}, "sweep sizes must be distinct and >= 0, got [5, 5]"),
    ({"sweep_sizes": [3, -1]}, "sweep sizes must be distinct and >= 0, got [3, -1]"),
    ({"disabled": "hypothesis"}, "disabled must be a set of component names, got 'hypothesis'"),
], ids=["fractional-parallelism", "string-parallelism", "string-sweep-size", "repeated-sweep-size",
        "negative-sweep-size", "string-disabled"])
def test_experiment_config_rejects_bad_types(settings, message):
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig(**settings)
    assert str(caught.value) == message


def test_experiment_config_reads_lists_as_sets_and_tuples():
    config = ExperimentConfig(disabled=["hypothesis"], sweep_sizes=[1, 20])
    assert config.disabled == frozenset({"hypothesis"})
    assert config.sweep_sizes == (1, 20)


# --- ablations --------------------------------------------------------------------------------


def test_ablate_rejects_unknown_component(experiment_files):
    base, train, novel = experiment_files
    with pytest.raises(ConfigError):
        ablate(_config(base, train, novel), "verifier")


def test_hypothesis_ablation_zero_on_novel_split(experiment_files):
    base, train, novel = experiment_files
    report = ablate(_config(base, train, novel, report_path=None, csv_path=None,
                            transcripts_path=None), "hypothesis")
    for table in report.per_bucket.values():
        assert all(v == 0.0 for v in table.values())
    assert report.runtime["early_failures"] == report.runtime["episodes"]


def test_verification_ablation_dominated_by_full_pipeline(experiment_files):
    base, train, novel = experiment_files
    cfg = _config(base, train, novel, report_path=None, csv_path=None,
                  transcripts_path=None)
    full = run_experiment(cfg)
    unverified = ablate(cfg, "verification")
    for bucket, table in unverified.per_bucket.items():
        assert table[1] <= full.per_bucket[bucket][1]


def test_input_goal_ablation_admits_incompatible_agents(tmp_path):
    # adversarial mini-corpus: two agents with the same descriptor tokens,
    # one of which needs an input the goal does not provide
    ok_flow = mk_flow(mk_task("pub_tool", {"pub"}, {"r"}), ins={"pub"}, outs={"r"},
                      wid="w-ok", gid="ok")
    bad_flow = mk_flow(mk_task("priv_tool", {"private"}, {"r"}), ins={"private"},
                       outs={"r"}, wid="w-bad", gid="bad")
    tokens = frozenset({"shared:a", "shared:b"})
    train = [
        cp.CorpusRecord(Goal("ok", tokens, frozenset({"pub"}), frozenset({"r"})),
                        ok_flow, "linear", "1"),
        cp.CorpusRecord(Goal("bad", tokens, frozenset({"private"}), frozenset({"r"})),
                        bad_flow, "linear", "1"),
    ]
    probes = [
        cp.CorpusRecord(
            Goal(f"probe{i}", tokens, frozenset({"pub"}), frozenset({"r"})),
            ok_flow.replace(goal_id=f"probe{i}"), "linear", "1",
        )
        for i in range(10)
    ]
    train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    cp.save_corpus(train, train_path)
    cp.save_corpus(probes, test_path)
    cfg = ExperimentConfig(
        train_path=str(train_path), test_path=str(test_path), seed=3,
        transcripts_path=str(tmp_path / "episodes.jsonl"),
    )
    gated = run_experiment(cfg)
    gated_lines = (tmp_path / "episodes.jsonl").read_text().splitlines()
    assert all("priv_tool" not in line for line in gated_lines)
    assert all(table[1] == 1.0 for table in gated.per_bucket.values())

    ungated_cfg = ExperimentConfig(
        train_path=str(train_path), test_path=str(test_path), seed=3,
        disabled=frozenset({"input_goal"}),
        transcripts_path=str(tmp_path / "episodes_off.jsonl"),
    )
    run_experiment(ungated_cfg)
    ungated_lines = (tmp_path / "episodes_off.jsonl").read_text().splitlines()
    assert any("priv_tool" in line for line in ungated_lines)


def test_output_goal_ablation_accepts_incomplete_outputs():
    short_flow = chain_flow([0])
    goal = Goal(id="g", tokens=frozenset({"g"}), input_schema=short_flow.declared_inputs,
                output_schema=frozenset({"o0", "extra"}))
    from flowsmith.orchestrator import verify
    strict = verify(short_flow, goal, SolveConfig(mode="goal_anchored"))
    relaxed = verify(short_flow, goal, SolveConfig(mode="goal_anchored", output_goal=False))
    assert not strict.passed
    assert relaxed.passed and relaxed.dead_node_ratio == 0.0


@pytest.mark.parametrize("mode, changes", [("oracle", False), ("goal_anchored", True)])
def test_output_goal_ablation_acts_only_in_goal_anchored_mode(experiment_files, mode, changes):
    base, train, novel = experiment_files
    runs = []
    for disabled in ((), ("output_goal",)):
        transcripts = base / f"{mode}-{len(disabled)}.jsonl"
        report = run_experiment(_config(base, train, novel, mode=mode, report_path=None,
                                        csv_path=None, transcripts_path=str(transcripts),
                                        disabled=frozenset(disabled)))
        runs.append((transcripts.read_bytes(), report.per_bucket, report.life_summary,
                     report.runtime))
    full, ablated = runs
    assert (full[0] != ablated[0]) is changes
    if not changes:
        assert full[1:] == ablated[1:]


def test_scale_control_ablation_freezes_life(experiment_files):
    base, train, novel = experiment_files
    report = ablate(_config(base, train, novel, report_path=None, csv_path=None,
                            transcripts_path=None), "scale_control")
    assert report.life_summary == {"eliminations": 0, "revivals": 0, "spawns": 0}
    for table in report.per_bucket.values():
        assert table[1] >= 0.9


def test_run_episode_keeps_the_ranks_before_an_early_failure():
    # g0 resolves directly but misses a task: with hypotheses off every rank
    # is penalised until g0's life reaches 0 and rank 4 cannot resolve
    net = chain_pool(6)
    goal = net.training[0][0]
    record = cp.CorpusRecord(goal, chain_flow([0, 1], gid=goal.id), "linear", "2-3")
    episode = run_episode(net, record, SolveConfig(seed=11, k=5, hypothesis=False)).episode
    assert episode.early_failure
    assert outcome_ids(episode) == [[("g0", Outcome(p_fail=1))]] * 3
    assert agent_named(net, "g0").life == 0.0


# --- write_atomic ---------------------------------------------------------------------------


def test_write_atomic_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.txt"
    write_atomic(target, "complete")
    assert target.read_text() == "complete"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []


def test_ablatable_components_are_documented():
    assert set(ABLATABLE) == {"scale_control", "verification", "hypothesis",
                              "input_goal", "output_goal"}


def test_reuse_full_marks_on_fully_planted_exact_recall(tmp_path):
    profile = cp.CorpusProfile(
        total=40,
        node_histogram={4: 0.5, 5: 0.5},
        depth_histogram={0: 1.0},
        tool_vocab_size=16,
        planted=cp.PlantedSubflowSpec(length=3, rate=1.0),
    )
    records = cp.generate(profile, seed=61)
    assert all(r.planted for r in records)
    library = cp.planted_library(profile, seed=61)
    library_path = tmp_path / "library.jsonl"
    library_path.write_text(
        "\n".join(wf.canonical_json(wf.to_doc(p)) for p in library) + "\n"
    )
    corpus_path = tmp_path / "corpus.jsonl"
    cp.save_corpus(records, corpus_path)
    report = run_experiment(ExperimentConfig(
        train_path=str(corpus_path), test_path=str(corpus_path), seed=2,
        library_path=str(library_path),
    ))
    assert report.reuse_pct == pytest.approx(100.0)
