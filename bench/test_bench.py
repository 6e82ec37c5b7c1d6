"""Tests of the benchmark's own machinery.

    python3 -m pytest bench
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import orbitcodes  # noqa: E402
import orbitcodes.cli  # noqa: E402
from orbitcodes import codes, matrix  # noqa: E402
from orbitcodes.matrix import Mat  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL_CODE = ["cli", ["code", "--field", "2", "--n", "3", "--divisors", "1,1,0,1",
                      "--subspace", "1,0,0"]]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 500
    assert run.tail_percentile(99) == 500
    assert run.tail_percentile(100) == 900
    assert run.tail_percentile(999) == 900
    assert run.tail_percentile(1000) == 990
    assert run.tail_percentile(10_000) == 999


def test_nearest_rank_percentile():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 900) == 90.0
    assert run.percentile(values, 500) == 50.0
    assert run.percentile([3.0], 900) == 3.0


def span(i, name, start, end, parent):
    return (i, name, "orbitcodes.cli", start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        span(2, "matrix.rref", 2.0, 3.0, 1),
        span(1, "codes.orbit_code", 1.0, 4.0, 0),
        span(3, "matrix.mul", 5.0, 6.0, 0),
        span(0, "cli.main", 0.0, 10.0, -1),
    ]
    assert spans.self_time(recorded, "cli.main") == 10.0 - 3.0 - 1.0
    assert spans.self_time(recorded, "codes.orbit_code") == 2.0


def test_inclusive_time_counts_nested_calls_once():
    recorded = [
        span(2, "matrix.mul", 2.0, 3.0, 1),
        span(1, "matrix.mul", 1.0, 4.0, 0),
        span(3, "matrix.mul", 5.0, 6.0, 0),
        span(0, "cli.main", 0.0, 10.0, -1),
    ]
    assert spans.inclusive(recorded, {"matrix.mul"}) == 4.0
    assert spans.calls(recorded, "matrix.mul") == 3


def test_same_seed_same_operations():
    for name in workloads.WORKLOADS:
        ops = workloads.operations(name, 5)
        assert ops == workloads.operations(name, 5)
        assert ops == workloads.operations(name, 5 + workloads.POOL)
    assert workloads.operations("code-blocks", 5) != workloads.operations("code-blocks", 6)


def test_code_blocks_inputs_follow_the_workload_rules():
    ops = workloads.operations("code-blocks", 1)
    assert len(ops) >= 100
    for kind, argv in ops:
        assert kind == "cli" and argv[0] == "code"
        assert 4 <= int(argv[argv.index("--n") + 1]) <= 9


def test_tracer_wraps_names_as_callers_see_them_and_restores_them():
    rref, mul = matrix.rref, Mat.__mul__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert codes.rref is not rref and hasattr(codes.rref, spans.MARK)
        assert matrix.rref is not rref and orbitcodes.rref is not rref
        assert hasattr(Mat.__mul__, spans.MARK)
        assert orbitcodes.cli.main(SMALL_CODE[1]) == 0
    finally:
        tracer.uninstall()
    assert codes.rref is rref and matrix.rref is rref and orbitcodes.rref is rref
    assert Mat.__mul__ is mul
    assert spans.installed_wrappers() == 0
    layers = tracer.layer_metrics()
    assert layers["codes.codewords"] == 7
    assert layers["matrix.rref_calls"] > 0
    assert 0 < layers["cli.self_s"] < spans.inclusive(tracer.spans, {"cli.main"})
    ids = {s[0] for s in tracer.spans}
    assert all(s[5] == -1 or s[5] in ids for s in tracer.spans)


def test_wrappers_never_leak_into_an_untraced_run():
    plain = run.run_rep([SMALL_CODE], ["2"], trace=False)
    assert plain["wrappers"] == 0 and "layers" not in plain
    traced = run.run_rep([SMALL_CODE], ["2"], trace=True)
    assert traced["layers"]["codes.codewords"] == 7
    assert traced["ops"][0][3] == plain["ops"][0][3]


def test_check_rep_counts_wrong_outputs():
    rep = run.run_rep([SMALL_CODE], ["2"], trace=False)
    good = f"0:{rep['ops'][0][3]}"
    assert run.check_rep(rep, [good]) == []
    assert run.check_rep(rep, ["0:" + "0" * worker.DIGEST_CHARS]) == [
        "op 0: output differs from the reference"
    ]
    assert run.check_rep(rep, ["1" + good[1:]]) == [
        "op 0: exit code 0, the reference exited 1"
    ]
    assert run.check_rep({**rep, "wrappers": 1}, [good])


def test_code_report_identities():
    good = '{"cardinality": 7, "group_order": 7, "distance_distribution": [1, 6]}'
    assert worker.code_report_problem(good) is None
    assert worker.code_report_problem(good.replace("[1, 6]", "[2, 5]"))
    assert worker.code_report_problem(good.replace("[1, 6]", "[1, 5]"))
    assert worker.code_report_problem(good.replace('"group_order": 7', '"group_order": 8'))
