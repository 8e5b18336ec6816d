"""Every committed ``BENCH_*.json`` is a complete record of a rerunnable measurement.

Its command runs a script that ``git ls-files`` lists under ``bench/``,
and each absolute import of that script is the standard library,
``flowsmith`` or a ``perfbench`` module (the scripts put ``perfbench/``
on ``sys.path``, so its modules import by their own names).
"""

import ast
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ALLOWED_IMPORTS = (set(sys.stdlib_module_names) | {"flowsmith"}
                   | {path.stem for path in (ROOT / "perfbench").glob("*.py")})


def test_bench_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_names_its_script_and_both_sides(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in ("command", "hardware", "what", "parent", "change"):
        assert doc.get(key), f"{path.name} lacks {key!r}"
    scripts = [word for word in shlex.split(doc["command"]) if word.endswith(".py")]
    assert scripts, f"{path.name}: command {doc['command']!r} names no script"
    committed = subprocess.run(["git", "ls-files", "bench"], cwd=ROOT, check=True,
                               capture_output=True, text=True).stdout.split()
    bad = []
    for script in scripts:
        if script not in committed:
            bad.append(f"{script} is not a committed bench/ script")
            continue
        for node in ast.walk(ast.parse((ROOT / script).read_text(encoding="utf-8"), script)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{script}:{node.lineno}: imports {name}" for name in names
                    if name.split(".")[0] not in ALLOWED_IMPORTS]
    assert not bad, f"{path.name}:\n" + "\n".join(bad)
