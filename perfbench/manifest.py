#!/usr/bin/env python3
"""Write BENCHMARK.json from the workload and metric tables.

Run from the repository root after changing a workload or a metric:

    python3 perfbench/manifest.py
"""

from __future__ import annotations

import json

import run


def manifest() -> dict:
    import metrics
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run.DEFAULT_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in metrics.PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    run.import_engine()
    (run.ROOT / "BENCHMARK.json").write_text(render())
