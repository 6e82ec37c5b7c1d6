"""The tier-1 workflow runs the command ROADMAP.md names as tier-1 and
checks every benchmark workload against its reference.  The workflow is
read as text: the test extra lists no YAML parser."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_steps() -> list[str]:
    """The command of every one-line `run:` step in the tier-1 workflow."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    return re.findall(r"^\s*run: (.+?)\s*$", text, re.MULTILINE)


def test_workflow_runs_the_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `(.+)`$", roadmap, re.MULTILINE)
    assert command in run_steps()


def test_workflow_checks_every_workload_against_the_reference():
    assert "python bench/run.py --workload all --seed 0 --seconds 0 --trace 1" in run_steps()
