"""Every committed ``BENCH_*.json`` is a complete record of a rerunnable measurement.

Its command runs a script that ``git ls-files`` lists under ``bench/``,
and each absolute import of that script is the standard library,
``flowsmith`` or a ``perfbench`` module (the scripts put ``perfbench/``
on ``sys.path``, so its modules import by their own names).  Every
``bench/`` script also reads only names that the ``flowsmith`` modules it
imports define, so a rename in the engine cannot break it unnoticed.
Conversely, every ``bench/`` script is named by some record's command,
so a script without a record cannot pile up.
"""

import ast
import importlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SCRIPTS = sorted((ROOT / "bench").glob("*.py"))
ALLOWED_IMPORTS = (set(sys.stdlib_module_names) | {"flowsmith"}
                   | {path.stem for path in (ROOT / "perfbench").glob("*.py")})


def _command_scripts(path: Path) -> list[str]:
    """The scripts that a record's command runs, as paths from the repository root."""
    command = json.loads(path.read_text(encoding="utf-8"))["command"]
    return [word for word in shlex.split(command) if word.endswith(".py")]


def test_bench_records_are_committed():
    assert RECORDS


def test_every_bench_script_is_named_by_a_record():
    named = {script for path in RECORDS for script in _command_scripts(path)}
    orphans = [script.name for script in SCRIPTS
               if script.relative_to(ROOT).as_posix() not in named]
    assert not orphans, f"bench/ scripts that no BENCH_*.json command names: {orphans}"


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_names_its_script_and_both_sides(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in ("command", "hardware", "what", "parent", "change"):
        assert doc.get(key), f"{path.name} lacks {key!r}"
    scripts = _command_scripts(path)
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


def _flowsmith_reads(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for each name a script reads from a flowsmith module.

    A read is ``from flowsmith.m import name``, ``alias.name``, or
    ``getattr(alias, x)`` and the pair ``(alias, x)`` (the scripts patch
    such sites), where ``x`` is a string or the variable of an enclosing
    loop or comprehension over a module-level tuple of strings.
    """
    modules: dict[str, str] = {}  # local alias -> flowsmith module
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "flowsmith":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"flowsmith.{alias.name}"
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.startswith("flowsmith.")):
            reads += [(node.module, alias.name) for alias in node.names]
    constants = {target.id: [elt.value for elt in node.value.elts]
                 for node in tree.body if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Tuple)
                 and all(isinstance(elt, ast.Constant) for elt in node.value.elts)
                 for target in node.targets if isinstance(target, ast.Name)}

    def visit(node: ast.AST, bound: dict[str, list]) -> None:
        loops = ([node] if isinstance(node, ast.For)
                 else getattr(node, "generators", []))  # comprehensions
        bound = {**bound, **{loop.target.id: constants[loop.iter.id] for loop in loops
                             if isinstance(loop.target, ast.Name)
                             and getattr(loop.iter, "id", None) in constants}}
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.append((modules[node.value.id], node.attr))
        pair = []
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            pair = node.args[:2]
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            pair = node.elts
        if pair and getattr(pair[0], "id", None) in modules:
            names = ([pair[1].value] if isinstance(pair[1], ast.Constant)
                     else bound.get(getattr(pair[1], "id", None), []))
            reads.extend((modules[pair[0].id], name) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, {})
    return reads


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_bench_script_reads_only_names_flowsmith_defines(script):
    reads = _flowsmith_reads(ast.parse(script.read_text(encoding="utf-8"), script.name))
    assert reads, f"{script.name} reads nothing from flowsmith"
    missing = sorted({f"{module}.{name}" for module, name in reads
                      if not hasattr(importlib.import_module(module), name)})
    assert not missing, f"{script.name} reads names flowsmith lacks: {missing}"
