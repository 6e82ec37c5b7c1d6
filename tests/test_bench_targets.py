"""The benchmark's tracer (bench/spans.py) wraps library functions that it
names by string.  Every name must resolve, so that deleting or renaming a
traced function fails here rather than in a traced benchmark run."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for name, owner, attr, _ in spans.TARGETS:
        holder = importlib.import_module(f"orbitcodes.{owner}")
        for part in attr.split("."):  # Class.method resolves through the class
            assert hasattr(holder, part), f"{name}: orbitcodes.{owner}.{attr} does not exist"
            holder = getattr(holder, part)
        assert callable(holder), f"{name}: orbitcodes.{owner}.{attr} is not callable"
