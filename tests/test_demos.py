"""Every demo script, and each ```python block of README.md, runs to
completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flowsmith

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SNIPPETS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                      re.M | re.S)
PACKAGE_ROOT = str(Path(flowsmith.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "argv", [[str(demo)] for demo in DEMOS] + [["-c", snippet] for snippet in SNIPPETS],
    ids=[demo.name for demo in DEMOS] + [f"README.md-{n}" for n in range(1, len(SNIPPETS) + 1)])
def test_demo_exits_zero(argv, tmp_path):
    # cwd is a scratch directory: the full-experiment demo writes ./demo_out/.
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
