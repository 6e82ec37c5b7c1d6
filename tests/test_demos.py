"""Every narrative script under demos/ runs to completion, and the README's
library snippet gives the value its closing comment shows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcodes

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(Path(orbitcodes.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_library_snippet_matches_its_comment():
    section = (ROOT / "README.md").read_text().split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    *body, expr, comment = block.strip().splitlines()
    namespace = {}
    exec("\n".join(body), namespace)
    assert comment.startswith("# ")
    assert repr(eval(expr, namespace)) == comment[2:]
