"""Tests of the benchmark itself: wrap list, patch hygiene, determinism, digest, manifest."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import manifest
import metrics
import outputs
import run
import spans
from spans import COUNT_SITES, SPAN_SITES, Tracer
from workloads import WORKLOADS, Workload

TINY = Workload(name="tiny", why="", records=60, linear_goals=6, nested_goals=4, parts=(2, 3))


def _all_sites():
    return [site for sites in list(SPAN_SITES.values()) + list(COUNT_SITES.values())
            for site in sites]


def _site_values():
    return {site: getattr(*spans.resolve(site)) for site in _all_sites()}


def test_every_wrap_site_holds_its_layer_function():
    for layer in list(SPAN_SITES) + list(COUNT_SITES):
        home = spans.home_function(layer)
        assert callable(home), layer
        for site in SPAN_SITES.get(layer, ()) + COUNT_SITES.get(layer, ()):
            module, attr = spans.resolve(site)
            assert hasattr(module, attr), site
            assert getattr(module, attr) is home, site
    spans.check_sites(list(SPAN_SITES) + list(COUNT_SITES))


def test_a_stale_site_fails_loudly(monkeypatch):
    from flowsmith import orchestrator

    monkeypatch.setattr(orchestrator, "retrieve", lambda *a, **k: [])
    with pytest.raises(LookupError, match="orchestrator.retrieve"):
        with Tracer.full().installed():
            pass


def test_traced_run_restores_every_patch(tmp_path):
    before = _site_values()
    rep = run.run_rep(TINY, 3, Tracer.full(), tmp_path, {})
    assert _site_values() == before
    assert rep.problems == []

    with pytest.raises(RuntimeError):
        with Tracer.full().installed():
            assert _site_values() != before
            raise RuntimeError("boom")
    assert _site_values() == before


def test_traced_spans_nest_and_cover_every_layer_metric(tmp_path):
    tracer = Tracer.full()
    run.run_rep(TINY, 3, tracer, tmp_path, {})
    for index, span in enumerate(tracer.spans):
        assert span.end >= span.start
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert span.parent < index
            assert parent.start <= span.start and span.end <= parent.end
    for name, (calls, inclusive, self_s) in tracer.totals().items():
        assert calls >= 1 and self_s <= inclusive + 1e-9 and self_s >= -1e-9, name
    episodes = [s for s in tracer.spans if s.name == "evaluation.run_episode"]
    assert len(episodes) == TINY.episodes
    assert all(s.episode for s in episodes)
    values = metrics.per_layer(tracer, TINY.episodes, 0.0)
    assert list(values) == [name for name, _, _ in metrics.PER_LAYER]

    out = tmp_path / "trace.jsonl"
    tracer.write(out)
    assert len(out.read_text().splitlines()) == len(tracer.spans)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    reps = []
    for index in range(2):
        directory = tmp_path / str(index)
        directory.mkdir()
        reps.append(run.run_rep(TINY, 3, Tracer(), directory, {}))
    assert reps[0].digest == reps[1].digest
    values = metrics.end_to_end(reps, [r.setup_s for r in reps], peak_rss_mb=1.0)
    assert list(values) == [name for name, _, _, _ in metrics.END_TO_END]
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    written = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / label
        directory.mkdir()
        written[label] = [p.read_bytes() for p in workload.write_inputs(seed, directory)]
    assert written["a"] == written["b"]
    assert all(x != y for x, y in zip(written["a"], written["c"]))


def test_digest_ignores_added_keys_but_not_behaviour(tmp_path):
    run.run_rep(TINY, 3, Tracer(), tmp_path, {})
    episodes, report, problems = outputs.check_run(
        tmp_path / "test.jsonl", tmp_path / "transcripts.jsonl", tmp_path / "report.json",
        (1, 3, 5))
    assert problems == []
    digest = outputs.solution_digest(episodes, report)

    extended = json.loads(json.dumps(episodes))
    for doc in extended:
        doc["retrievals"] = 3
        for candidate in doc["candidates"]:
            candidate["verdict"]["hypotheses_rejected"] = 0
    richer = dict(report, runtime=dict(report["runtime"], wall_s=1.5))
    assert outputs.solution_digest(extended, richer) == digest

    changed = json.loads(json.dumps(episodes))
    changed[0]["candidates"][0]["verdict"]["score"] += 0.5
    assert outputs.solution_digest(changed, report) != digest


def test_output_check_catches_a_wrong_verdict(tmp_path):
    run.run_rep(TINY, 3, Tracer(), tmp_path, {})
    path = tmp_path / "transcripts.jsonl"
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    verdict = docs[0]["candidates"][0]["verdict"]
    verdict["passed"] = not verdict["passed"]
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    _, _, problems = outputs.check_run(tmp_path / "test.jsonl", path,
                                       tmp_path / "report.json", (1, 3, 5))
    assert any("verdict disagrees" in p for p in problems)


def test_reference_digests_cover_every_workload():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(WORKLOADS)


def test_benchmark_json_is_the_rendered_manifest():
    assert (run.ROOT / "BENCHMARK.json").read_text() == manifest.render()


def test_manifest_keeps_the_format_limits():
    doc = manifest.manifest()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(unit_re.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]
    assert 1 <= doc["run_seconds"] <= 60


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
