"""Rules the source of ``src/flowsmith`` keeps, checked on its syntax trees.

Each file is parsed once; each rule walks the trees and names every
offender as ``path:line: what``.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path("src/flowsmith")
# path relative to the repository root -> every node of the file's tree
NODES = {path.relative_to(ROOT): list(ast.walk(ast.parse(path.read_text(), str(path))))
         for path in sorted((ROOT / SRC).rglob("*.py"))}
# the package's own modules, without any subpackages
TOP_LEVEL = {path: nodes for path, nodes in NODES.items() if path.parent == SRC}


def test_imports_only_the_standard_library_and_itself():
    allowed = set(sys.stdlib_module_names) | {"flowsmith"}
    bad = []
    for path, nodes in NODES.items():
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in allowed]
    assert not bad, "non-stdlib imports:\n" + "\n".join(bad)


def test_modules_import_no_private_names_from_each_other():
    bad = []
    for path, nodes in NODES.items():
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                bad += [f"{path}:{node.lineno}: {alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
    assert not bad, "private names imported in src/flowsmith:\n" + "\n".join(bad)


def test_only_agents_reads_the_pool_lists_and_their_indexes():
    pool = {"active", "archive", "training", "by_token", "training_tokens", "read_memo"}
    bad = []
    for path, nodes in TOP_LEVEL.items():
        if path.name == "agents.py":
            continue
        bad += [f"{path}:{node.lineno}: .{node.attr}" for node in nodes
                if isinstance(node, ast.Attribute) and node.attr in pool]
    assert not bad, "pool lists or indexes read outside agents.py:\n" + "\n".join(bad)


def test_reads_no_hidden_inputs():
    # the environment and the working directory
    hidden = {"environ", "environb", "getenv", "getenvb", "getcwd", "getcwdb", "cwd"}
    bad = []
    for path, nodes in TOP_LEVEL.items():
        for node in nodes:
            if isinstance(node, ast.Attribute) and node.attr in hidden:
                bad.append(f"{path}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                bad += [f"{path}:{node.lineno}: import {alias.name}"
                        for alias in node.names if alias.name in hidden]
    assert not bad, "hidden inputs read in src/flowsmith:\n" + "\n".join(bad)


def test_keeps_no_functools_caches():
    # derived data lives on the object it describes
    caches = {"cache", "lru_cache"}
    bad = []
    for path, nodes in NODES.items():
        for node in nodes:
            if (isinstance(node, ast.Attribute) and node.attr in caches
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                bad.append(f"{path}:{node.lineno}: functools.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                bad += [f"{path}:{node.lineno}: from functools import {alias.name}"
                        for alias in node.names if alias.name in caches]
    assert not bad, "functools caches in src/flowsmith:\n" + "\n".join(bad)
