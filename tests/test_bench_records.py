"""Every committed ``BENCH_*.json`` is a complete record of a rerunnable measurement."""

import json
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_names_its_script_and_both_sides(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in ("command", "hardware", "what", "parent", "change"):
        assert doc.get(key), f"{path.name} lacks {key!r}"
    scripts = [word for word in shlex.split(doc["command"]) if word.endswith(".py")]
    assert scripts, f"{path.name}: command {doc['command']!r} names no script"
    assert all((ROOT / script).is_file() for script in scripts), doc["command"]
