"""The benchmark's tracer (bench/spans.py) wraps library functions that it
names by string.  Every name must resolve, so that deleting or renaming a
traced function fails here rather than in a traced benchmark run.  The
benchmark also checks every output against bench/reference.json; one input
set of each workload is checked here too, so a change to a benchmarked
output fails the tests and not only a benchmark run."""

import importlib
import json
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


def test_one_input_set_of_each_workload_matches_the_reference(monkeypatch):
    # input set 8 includes `verify --seed 8`, whose reference exit code is 1
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    references = json.loads((BENCH / "reference.json").read_text())["workloads"]
    problems = {}
    for name in workloads.WORKLOADS:
        ops = workloads.operations(name, 8)
        rep = run.run_rep(ops, workloads.fields(ops), False)
        problems[name] = run.check_rep(rep, references[name]["8"])
    assert problems == {name: [] for name in workloads.WORKLOADS}


def test_a_traced_repetition_reports_every_layer(monkeypatch):
    # the tracer resolves each target through sys.modules after the worker's
    # imports and reads elementary_divisors' cache_info(), so a module that
    # loads late or a lost cache kills the traced worker before it reports
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    references = json.loads((BENCH / "reference.json").read_text())["workloads"]
    ops = workloads.operations("code-singer", 8)
    rep = run.run_rep(ops, workloads.fields(ops), True)
    assert run.check_rep(rep, references["code-singer"]["8"]) == []
    assert {name for name, _ in spans.LAYER_METRICS} <= set(rep["layers"])
