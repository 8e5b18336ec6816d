#!/usr/bin/env python3
"""flowsmith benchmark: run one workload from a seed, check it, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 7 --seconds 40 --trace 0

Each repetition generates the workload's corpora from the seed, writes
them to files and runs ``evaluation.run_experiment`` on them, as
``flowsmith eval`` does, in one process and one thread: a closed loop
in which each episode starts when the previous one ends.

``--trace 0`` repeats the workload for about ``--seconds`` (at least
twice) with tracing off and prints the end-to-end metrics.  ``--trace 1``
runs it once untraced and once traced and prints the per-layer metrics;
the spans go to ``.perfbench_out/``.  Every repetition's outputs are
checked, and its solution digest must equal the recorded reference on
the default seed, and the other repetitions' digests on any seed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 7
DEFAULT_SECONDS = 40
MIN_REPS = 2
SETUP_SAMPLES = 7
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_digests.json"


def import_engine() -> None:
    """Put the checkout's ``src`` first on the path and insist flowsmith comes from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flowsmith
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import flowsmith from {src}: {exc}")
    if Path(flowsmith.__file__).resolve().parent != src / "flowsmith":
        raise SystemExit(f"perfbench: flowsmith was imported from {flowsmith.__file__}, "
                         f"not from {src}")


@dataclass
class Rep:
    """One run of the workload through ``run_experiment``."""

    wall_s: float
    setup_s: float
    solve_s: float
    episode_s: list
    refresh_s: list
    pass_at_1: float
    pass_at_5: float
    digest: str
    problems: list


def run_rep(workload, seed: int, tracer, directory: Path, checked: dict) -> Rep:
    """Run the workload once; ``checked`` maps output bytes already checked to
    their (digest, problems, pass@1, pass@5), so identical outputs are read once."""
    from flowsmith import evaluation

    import outputs
    from workloads import K_LIST

    gc.collect()
    start = perf_counter()
    with tracer.installed():
        train, test = workload.write_inputs(seed, directory)
        config = workload.experiment(seed, train, test, directory)
        evaluation.run_experiment(config)
    wall = perf_counter() - start
    (solve,) = [s for s in tracer.spans if s.name == "evaluation.run_episodes"]
    transcripts, report = Path(config.transcripts_path), Path(config.report_path)
    raw = hashlib.sha256(transcripts.read_bytes() + report.read_bytes()).hexdigest()
    if raw not in checked:
        episodes, report_doc, problems = outputs.check_run(test, transcripts, report, K_LIST)
        checked[raw] = (outputs.solution_digest(episodes, report_doc), problems,
                        outputs.overall_pass_at(episodes, 1), outputs.overall_pass_at(episodes, 5))
    digest, problems, pass_at_1, pass_at_5 = checked[raw]
    return Rep(
        wall_s=wall,
        setup_s=solve.start - start,
        solve_s=solve.end - solve.start,
        episode_s=tracer.durations("evaluation.run_episode"),
        refresh_s=tracer.durations("agents.eliminate_and_refresh"),
        pass_at_1=pass_at_1,
        pass_at_5=pass_at_5,
        digest=digest,
        problems=problems,
    )


class _SetupDone(Exception):
    pass


def time_setup(workload, seed: int, directory: Path) -> float:
    """Seconds from generating the inputs until ``run_experiment`` starts the episodes.

    The experiment is stopped where ``run_episodes`` would begin, so the
    sample covers whatever set-up ``run_experiment`` does.
    """
    from flowsmith import evaluation

    def stop(*args, **kwargs):
        raise _SetupDone

    gc.collect()
    start = perf_counter()
    original, evaluation.run_episodes = evaluation.run_episodes, stop
    try:
        train, test = workload.write_inputs(seed, directory)
        evaluation.run_experiment(workload.experiment(seed, train, test, directory))
    except _SetupDone:
        return perf_counter() - start
    finally:
        evaluation.run_episodes = original
    raise RuntimeError("run_experiment returned without running the episodes")


def commit() -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(workload, seed: int, trace: bool, reps: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": trace,
        "repetitions": reps,
        "pool_size": workload.pool_size,
        "episodes_per_repetition": workload.episodes,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    import_engine()
    import metrics
    from spans import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()).get(workload.name)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))

    reps: list[Rep] = []
    checked: dict = {}
    extra_setups: list[float] = []
    traced_rep = traced_tracer = None
    raised = False
    begin = perf_counter()
    try:
        if args.trace:
            reps.append(run_rep(workload, args.seed, Tracer(),
                                Path(tempfile.mkdtemp(dir=run_dir)), checked))
            traced_tracer = Tracer.full()
            traced_rep = run_rep(workload, args.seed, traced_tracer,
                                 Path(tempfile.mkdtemp(dir=run_dir)), checked)
        else:
            while True:
                reps.append(run_rep(workload, args.seed, Tracer(),
                                    Path(tempfile.mkdtemp(dir=run_dir)), checked))
                elapsed = perf_counter() - begin
                typical = statistics.median(r.wall_s for r in reps)
                if len(reps) >= MIN_REPS and elapsed + typical > args.seconds:
                    break
            while len(reps) + len(extra_setups) < SETUP_SAMPLES:
                extra_setups.append(time_setup(workload, args.seed,
                                               Path(tempfile.mkdtemp(dir=run_dir))))
    except Exception:
        traceback.print_exc()
        raised = True
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    all_reps = reps + ([traced_rep] if traced_rep is not None else [])
    if not reps or (args.trace and traced_rep is None):
        print("perfbench: no measurement completed", file=sys.stderr)
        return 1

    # Solution digest: the recorded reference on the default seed, else the first repetition.
    expected = reference if args.seed == DEFAULT_SEED else all_reps[0].digest
    digests_agree = all(rep.digest == expected for rep in all_reps)
    problems = []
    failed = workload.episodes if raised else 0
    for index, rep in enumerate(all_reps):
        bad = list(rep.problems)
        if rep.digest != expected:
            bad.append(f"solution digest {rep.digest} differs from {expected}")
        if bad:
            failed += workload.episodes
            problems.extend(f"repetition {index}: {p}" for p in bad)
    if raised:
        problems.append("a repetition raised")
    attempted = workload.episodes * (len(all_reps) + int(raised))

    if args.trace:
        layer = metrics.per_layer(traced_tracer, workload.episodes,
                                  traced_rep.wall_s - reps[0].wall_s)
        for claim, holds in metrics.SPLIT_CHECKS[workload.name]:
            ok = holds(layer, traced_tracer, workload.episodes)
            print(f"split check [{'ok' if ok else 'FAILED'}] {claim}")
            if not ok:
                problems.append(f"split check failed: {claim}")
        claim, holds = metrics.PREDICTIONS[workload.name]
        print(f"prediction [{'held' if holds(layer) else 'not held'}] {claim}")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        traced_tracer.write(trace_path)
        print(f"spans: {len(traced_tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        values = layer
    else:
        setups = [r.setup_s for r in reps] + extra_setups
        values = metrics.end_to_end(
            reps, setups, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        n = workload.episodes
        print(f"episodes: {n} per repetition, each timed as the best of {len(reps)} "
              f"repetitions; {n - int(0.9 * n)} beyond p90; set-up samples: {len(setups)}")

    for name, value in values.items():
        print(f"{name:40s} {value:14.6f} {metrics.UNITS[name]}")
    print(f"{'error_rate':40s} {failed / attempted:14.6f} ratio ({failed} of {attempted})")
    print(f"solution digest {all_reps[0].digest} "
          f"({'reference' if args.seed == DEFAULT_SEED else 'repetitions agree'}: "
          f"{'ok' if digests_agree else 'MISMATCH'})")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("context " + json.dumps(context(workload, args.seed, bool(args.trace), len(all_reps))))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
