import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
from collections import Counter
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbitcodes
from orbitcodes import (
    GF,
    CyclicGroup,
    block_diag,
    companion,
    distance_distribution,
    format_poly,
    irreducibles,
    min_distance,
    orbit_code,
    parse_field,
    parse_mat,
    parse_poly,
    subspace,
)
from orbitcodes import codes, groups, polykernel
from orbitcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_dimension_two(capsys):
    code, out, _ = run(capsys, "classify", "--field", "2", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 2 and data["n"] == 2
    assert len(data["classes"]) == 3
    assert sorted(c["group_order"] for c in data["classes"]) == [1, 2, 3]


def test_classify_dimension_one(capsys):
    code, out, _ = run(capsys, "classify", "--field", "2", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["classes"]) == 1
    assert data["classes"][0]["group_order"] == 1


def test_classify_merges_order_seven_cell(capsys):
    code, out, _ = run(capsys, "classify", "--field", "2", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    order7 = [c for c in data["classes"] if c["group_order"] == 7]
    assert len(order7) == 1
    assert order7[0]["divisors"] == [{"p": "1,1,0,1", "e": 1}]


def test_classify_output_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "--field", "2^2", "--n", "2", "--format", "json")
    assert code == 0
    field = GF(2, 2)
    for row in json.loads(out)["classes"]:
        gen = parse_mat(field, row["generator"])
        assert gen.rows == 2
        for div in row["divisors"]:
            assert parse_poly(field, div["p"]).is_monic


def test_classify_text_and_csv(capsys):
    code, text, _ = run(capsys, "classify", "--field", "2", "--n", "2")
    assert code == 0 and "classes of GL_2(F_2): 3" in text
    code, csv_out, _ = run(capsys, "classify", "--field", "2", "--n", "2", "--format", "csv")
    assert code == 0
    assert csv_out.splitlines()[0] == "class,group_order,signature,divisors,generator"
    assert len(csv_out.strip().splitlines()) == 4


def test_classify_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "--field", "3", "--n", "2", "--format", "json")
    _, second, _ = run(capsys, "classify", "--field", "3", "--n", "2", "--format", "json")
    assert first == second


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_classify_builds_no_generator_matrix(capsys, monkeypatch, fmt):
    # each generator is written from its companion blocks' rows
    def forbidden(blocks):
        raise AssertionError("built a block-diagonal generator")

    monkeypatch.setattr(importlib.import_module("orbitcodes.matrix"), "block_diag_basis", forbidden)
    code, out, err = run(capsys, "classify", "--field", "2^2", "--n", "4", "--format", fmt)
    assert (code, err) == (0, "")
    assert "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1" in out  # the identity's class


def test_classify_resource_guard(capsys):
    code, _, err = run(capsys, "classify", "--field", "2", "--n", "30")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize(
    "field, n, accepted",
    [("3", 13, True), ("3", 14, False), ("2^2", 11, True), ("2^2", 12, False)],
)
def test_classify_budget_is_exact_log2(capsys, monkeypatch, field, n, accepted):
    # 3^13 < 2^22 < 3^14 and 4^11 = 2^22: n * log2(q), not n * floor(log2 q)
    monkeypatch.setattr("orbitcodes.cli.class_representatives", lambda *args: [])
    code, out, err = run(capsys, "classify", "--field", field, "--n", str(n))
    if accepted:
        assert (code, err) == (0, "") and out.endswith(": 0\n")
    else:
        assert code == 2 and out == "" and "exceeds the budget 22" in err


def test_classify_out_file(tmp_path, capsys):
    target = tmp_path / "classes.json"
    code, out, _ = run(
        capsys, "classify", "--field", "2", "--n", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_classify_refuses_a_large_extension_field(capsys):
    # the default modulus comes from a scan, so the budget refuses before
    # any sieve over the field's p^m codes
    code, out, err = run(capsys, "classify", "--field", "1048573^2", "--n", "1")
    assert (code, out) == (2, "")
    assert err == (
        "refusing: n*log2(q) = 40 exceeds the budget 22; raise --max-bits to force\n"
    )


def test_forced_classify_refuses_an_oversized_sieve(capsys, monkeypatch):
    # forcing the budget once ran a sieve over all q ~ 2^40 linear monics
    def forbidden(*args):
        raise AssertionError("a sieve started")

    for kernel in (polykernel._Bits, polykernel._Lists):
        monkeypatch.setattr(kernel, "reducible_marks", staticmethod(forbidden))
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--field", "1048573^2", "--n", "1", "--max-bits", "100")
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert err == (
        "error: the irreducibles of degree 1 over GF(1099505336329) need a sieve of "
        "q^d = 1099505336329 marks, above the limit of 2^22\n"
    )


@pytest.mark.parametrize(
    "field, n, bits", [("2^4096", 1, 4096), ("4", 30, 60), ("1000000000000000003", 1, 60)]
)
def test_classify_budget_refuses_before_building_the_field(capsys, monkeypatch, field, n, bits):
    # a default modulus of degree 4096 takes seconds to find; a field that
    # would not build is refused on budget all the same
    def forbidden(*args):
        raise AssertionError("the field was built")

    monkeypatch.setattr("orbitcodes.field.GF.__init__", forbidden)
    code, out, err = run(capsys, "classify", "--field", field, "--n", str(n))
    assert (code, out) == (2, "")
    assert err == (
        f"refusing: n*log2(q) = {bits} exceeds the budget 22; raise --max-bits to force\n"
    )


def test_classify_huge_characteristic_is_refused_without_trial_division(capsys, monkeypatch):
    def forbidden(n):
        raise AssertionError(f"factorize({n}) ran above the limit")

    monkeypatch.setattr("orbitcodes.field.factorize", forbidden)
    argv = ["classify", "--field", "1000000000000000003", "--n", "1", "--max-bits", "64"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "parse error: characteristic 1000000000000000003 too large for this library"
        " (at position 0)\n"
    )


@pytest.mark.parametrize(
    "field, n, message",
    [
        ("2", "0", "--n must be a positive integer"),
        ("0", "1", "characteristic must be prime, got 0"),
        ("1", "1", "characteristic must be prime, got 1"),
    ],
)
def test_classify_rejects_bad_n_and_field(capsys, field, n, message):
    code, out, err = run(capsys, "classify", "--field", field, "--n", n)
    assert (code, out) == (2, "")
    assert err == f"parse error: {message} (at position 0)\n"


def test_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "classes.txt"
    code, out, err = run(capsys, "classify", "--field", "2", "--n", "2", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not target.parent.exists()


def test_code_singer_line(capsys):
    code, out, _ = run(
        capsys,
        "code", "--field", "2", "--n", "3",
        "--divisors", "1,1,0,1", "--subspace", "1,0,0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["cardinality"] == 7
    assert report["min_distance"] == 2
    assert report["distance_distribution"] == [1, 6]
    assert report["group_order"] == 7
    assert report["lcm_cardinality"] == 7


def test_code_trivial_divisor_gives_singleton(capsys):
    code, out, _ = run(
        capsys,
        "code", "--field", "2", "--n", "2",
        "--divisors", "1,0,1", "--subspace", "1,0;0,1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["cardinality"] == 1
    assert report["min_distance"] is None


def test_code_three_plus_two(capsys):
    code, out, _ = run(
        capsys,
        "code", "--field", "2", "--n", "5",
        "--divisors", "1,1,0,1;1,1,1",
        "--subspace", "1,0,0,0,0;0,0,0,1,0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["cardinality"] == 21
    assert report["min_distance"] == 2
    assert report["bound_literal"] == 4
    assert report["bound_refined"] == 2
    assert report["lcm_cardinality"] == 21
    assert [c["cardinality"] for c in report["components"]] == [7, 3]


def test_code_powered_divisor_is_factored(capsys):
    # x^2+1 = (x+1)^2 over GF(2) is accepted as a prime-power block
    code, out, _ = run(
        capsys,
        "code", "--field", "2", "--n", "2",
        "--divisors", "1,0,1", "--subspace", "1,0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["components"][0]["p"] == "1,1"
    assert report["components"][0]["e"] == 2


def test_code_rejects_composite_divisor(capsys):
    code, _, err = run(
        capsys,
        "code", "--field", "2", "--n", "2",
        "--divisors", "0,1,1", "--subspace", "1,0",
    )
    assert code == 2
    assert "power of a single irreducible" in err or "parse error" in err


def test_code_rejects_degree_mismatch(capsys):
    code, _, err = run(
        capsys,
        "code", "--field", "2", "--n", "4",
        "--divisors", "1,1,0,1", "--subspace", "1,0,0,0",
    )
    assert code == 2
    assert "sum to" in err


def test_code_rejects_a_subspace_of_another_dimension(capsys):
    code, out, err = run(
        capsys,
        "code", "--field", "2", "--n", "3",
        "--divisors", "1,1,0,1", "--subspace", "1,0",
    )
    assert (code, out) == (2, "")
    assert err == "parse error: subspace lives in dimension 2, but --n is 3 (at position 0)\n"


def test_code_takes_the_row_space_of_a_rank_deficient_basis(capsys):
    # the rows need not be independent: the base point is their row space
    argv = ["code", "--field", "2", "--n", "3", "--divisors", "1,1,0,1"]
    code, out, err = run(capsys, *argv, "--subspace", "1,0,0;1,0,0")
    assert (code, err) == (0, "")
    assert json.loads(out)["k"] == 1
    assert run(capsys, *argv, "--subspace", "1,0,0") == (0, out, "")
    # no nonzero row: no point of the Grassmannian
    code, out, err = run(capsys, *argv, "--subspace", "0,0,0;0,0,0")
    assert (code, out) == (2, "")
    assert err == "error: the zero subspace is not a Grassmannian point here\n"


def test_code_reports_parse_position(capsys):
    code, _, err = run(
        capsys,
        "code", "--field", "2", "--n", "3",
        "--divisors", "1,Q,0,1", "--subspace", "1,0,0",
    )
    assert code == 2
    assert "position 2" in err


def test_code_csv(capsys):
    code, out, _ = run(
        capsys,
        "code", "--field", "2", "--n", "3",
        "--divisors", "1,1,0,1", "--subspace", "1,0,0", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("q,n,k,group_order,cardinality,min_distance")
    assert row.startswith("2,3,1,7,7,2,1|6,2,2,7")


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "5", "--divisors", "1,1,0,1;1,1,1", "--subspace", "1,0,0,0,0;0,0,0,1,0"),
        ("--n", "2", "--divisors", "1,0,1", "--subspace", "1,0;0,1"),
    ],
    ids=["two-block", "singleton"],
)
def test_code_csv_is_the_leading_keys_of_the_json_report(capsys, argv):
    _, out, _ = run(capsys, "code", "--field", "2", *argv)
    report = json.loads(out)
    _, out, _ = run(capsys, "code", "--field", "2", *argv, "--format", "csv")
    header, row = csv.reader(io.StringIO(out))
    # the columns are every key before the components, in report order
    assert header == list(report)[: list(report).index("components")]
    cells = [
        "|".join(map(str, v)) if isinstance(v, list) else "" if v is None else str(v)
        for v in (report[key] for key in header)
    ]
    assert row == cells


def test_classify_csv_rows_match_json_classes(capsys):
    args = ("classify", "--field", "2^2", "--n", "3")
    _, out, _ = run(capsys, *args, "--format", "json")
    classes = json.loads(out)["classes"]
    _, out, _ = run(capsys, *args, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out))
    assert header == list(classes[0])
    assert rows == [
        [
            str(c["class"]),
            str(c["group_order"]),
            "|".join(":".join(map(str, entry)) for entry in c["signature"]),
            "|".join(f"{d['p']}^{d['e']}" for d in c["divisors"]),
            c["generator"],
        ]
        for c in classes
    ]
    assert len(rows) == 18


def test_code_deterministic(capsys):
    args = (
        "code", "--field", "2", "--n", "5",
        "--divisors", "1,1,0,1;1,1,1", "--subspace", "1,0,1,1,0;0,1,0,0,1",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_small_run(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rcf", "--trials", "20", "--seed", "7")
    assert code == 0
    assert "suite rcf:" in out and "ok" in out


def test_verify_vacuous_run(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--trials", "0")
    assert code == 0
    assert out.count("0 checks") == 5


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "bounds", "--trials", "6", "--seed", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--trials", "-3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "non-negative" in err


@pytest.mark.parametrize("command", ["verify", "examples"])
@pytest.mark.parametrize("flag", [["--field", "7"], ["--modulus", "1,2"]])
def test_field_flags_only_where_read(capsys, command, flag):
    assert main([command, *flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_bounds_reports_separation_warning(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--trials", "4", "--seed", "0")
    assert code == 0
    assert "WARN" in out
    assert "bound_literal_invalid" in out


def test_examples_all_pass(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)
    assert any("168" in l for l in lines)
    assert any("60480" in l for l in lines)


@pytest.mark.parametrize(
    "name, exc",
    [
        ("orbit_profile", RuntimeError("identities failed\non two lines")),
        ("divisors_order", AssertionError()),
    ],
)
def test_code_internal_failure_is_one_line(capsys, monkeypatch, name, exc):
    def broken(*args, **kwargs):
        raise exc

    # the report reaches orbit_profile through codes, divisors_order directly
    owner = "codes" if name == "orbit_profile" else "cli"
    monkeypatch.setattr(f"orbitcodes.{owner}.{name}", broken)
    code, out, err = run(
        capsys, "code", "--field", "2", "--n", "3",
        "--divisors", "1,1,0,1", "--subspace", "1,0,0",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("internal error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("basis", ["1,0,0,0;0,1,0,0", "0,1,0,0"])
def test_code_rejects_an_x_divisor(capsys, basis):
    # the x block holds a basis row in the first case and none in the second
    code, out, err = run(
        capsys, "code", "--field", "2", "--n", "4",
        "--divisors", "0,1;1,1,0,1", "--subspace", basis,
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: matrix is singular (an elementary divisor is a power of x), "
        "not in GL_n\n"
    )


def test_code_requests_each_component_profile_once(capsys, monkeypatch):
    requests = Counter()
    requested = codes.orbit_profile

    def counted(u, divisors):
        requests[u, tuple(divisors)] += 1
        return requested(u, divisors)

    monkeypatch.setattr(codes, "orbit_profile", counted)
    code, _, _ = run(
        capsys, "code", "--field", "2", "--n", "5",
        "--divisors", "1,1,0,1;1,1,1", "--subspace", "1,0,0,0,0;0,0,0,1,0",
    )
    assert code == 0
    f = parse_field("2")
    component = {
        (subspace(parse_mat(f, "1,0,0")), ((parse_poly(f, "1,1,0,1"), 1),)): 1,
        (subspace(parse_mat(f, "1,0")), ((parse_poly(f, "1,1,1"), 1),)): 1,
    }
    assert {key: n for key, n in requests.items() if key[0].n < 5} == component


def test_singer_code_report_counts_once(capsys, monkeypatch):
    # the report, its refined bound and its one block share one profile
    calls = []
    computed = codes._difference_profile

    def counted(u, p):
        calls.append((u, p))
        return computed(u, p)

    monkeypatch.setattr(codes, "_difference_profile", counted)
    code, _, _ = run(
        capsys, "code", "--field", "2", "--n", "3",
        "--divisors", "1,1,0,1", "--subspace", "1,0,0",
    )
    assert code == 0 and len(calls) == 1


def test_two_block_code_report_walks_once(capsys, monkeypatch):
    walks = Counter()
    walked = codes._walk

    def counted(u, a, bases=None):
        walks[u, a] += 1
        return walked(u, a, bases)

    monkeypatch.setattr(codes, "_walk", counted)
    code, _, _ = run(
        capsys, "code", "--field", "2", "--n", "5",
        "--divisors", "1,1,0,1;1,1,1", "--subspace", "1,0,0,0,0;0,0,0,1,0",
    )
    assert code == 0
    f = parse_field("2")
    whole = subspace(parse_mat(f, "1,0,0,0,0;0,0,0,1,0"))
    generator = block_diag([companion(parse_poly(f, p)) for p in ("1,1,0,1", "1,1,1")])
    # both components take the difference count, so only the whole code walks
    assert walks == {(whole, generator): 1}


@pytest.mark.parametrize(
    "field, divisor, basis",
    [
        ("2", "1,1,0,1", "1,0,0"),
        ("2", "1,1,0,0,0,0,1", "1,0,1,1,0,0;0,1,0,0,1,1"),
        ("2", "1,1,1,1,1", "1,0,0,0;0,1,0,0"),
        ("3", "1,0,1", "1,2"),
        ("2^2", "2,1,1", "0,1"),
    ],
)
def test_code_single_irreducible_never_walks(capsys, monkeypatch, field, divisor, basis):
    f = parse_field(field)
    p = parse_poly(f, divisor)
    u = subspace(parse_mat(f, basis))
    oracle = orbit_code(u, CyclicGroup(companion(p)))
    expected = {
        "group_order": oracle.group.order,
        "cardinality": len(oracle),
        "min_distance": min_distance(oracle) if len(oracle) > 1 else None,
        "distance_distribution": list(distance_distribution(oracle)),
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("the report walked the orbit or recomputed the divisors")

    monkeypatch.setattr(codes, "_walk", forbidden)
    monkeypatch.setattr(groups, "elementary_divisors", forbidden)
    code, out, err = run(
        capsys, "code", "--field", field, "--n", str(u.n),
        "--divisors", divisor, "--subspace", basis,
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert {key: report[key] for key in expected} == expected
    assert report["components"][0]["cardinality"] == len(oracle)
    assert report["components"][0]["min_distance"] == expected["min_distance"]


def test_usage_error_exit_code(capsys):
    assert main(["classify"]) == 2  # missing --n
    capsys.readouterr()


def test_missing_command_exit_code(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["classify", "--field", "2", "--n", "3"], ["classify", "--field", "2"]]
)
def test_python_dash_m_matches_main(capsys, argv):
    src = str(Path(orbitcodes.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcodes", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_an_order_one_too_large_exits_1_with_one_line(capsys, monkeypatch):
    # verify's order checks call matrix_order on random matrices, whose
    # A^N = I check runs on packed rows
    true_order = groups._factored_order
    monkeypatch.setattr(groups, "_factored_order", lambda divs: true_order(divs) + 1)
    code, out, err = run(capsys, "verify", "--suite", "groups", "--seed", "0")
    assert code == 1
    assert out == ""
    assert err == "internal error: computed order failed the A^N = I check\n"


SINGER = ["code", "--field", "2", "--n", "3", "--divisors", "1,1,0,1", "--subspace", "1,0,0"]


def test_singer_code_report_builds_no_generator_matrix(capsys, monkeypatch):
    # the order comes from the divisors and the generator is written from
    # its blocks' rows, so neither matrix_order nor a block diagonal runs
    expected = {fmt: run(capsys, *SINGER, "--format", fmt) for fmt in ("json", "csv", "text")}

    def forbidden(*args, **kwargs):
        raise AssertionError("built a generator matrix")

    monkeypatch.setattr(importlib.import_module("orbitcodes.matrix"), "block_diag_basis", forbidden)
    monkeypatch.setattr(codes, "block_diag_basis", forbidden)
    monkeypatch.setattr(groups, "matrix_order", forbidden)
    for fmt, want in expected.items():
        assert run(capsys, *SINGER, "--format", fmt) == want
    # the README report's pinned digest (tests/test_outputs.py)
    digest = hashlib.sha256(expected["json"][1].encode()).hexdigest()
    assert digest == "7e653046b1a1a9dabd7be155008b924b4cc37aac27717f9b08c91fd116a3ce13"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["code", "--field", "2^x", "--n", "2", "--divisors", "1,1;1,1", "--subspace", "1,0"],
         "expected an extension degree, got 'x' (at position 2)"),
        (["code", "--field", "2^2", "--modulus", "1,y,1", "--n", "2",
          "--divisors", "1,1;1,1", "--subspace", "1,0"],
         "expected a coefficient, got 'y' (at position 2)"),
        (["code", "--n", "2", "--divisors", "1,1;1,x", "--subspace", "1,0"],
         "expected an element code, got 'x' (at position 6)"),
        (["code", "--n", "3", "--divisors", "1,1;0,1,1", "--subspace", "1,0,0"],
         "divisor '0,1,1' is not a power of a single irreducible (at position 4)"),
        (["classify", "--field", "2^x", "--n", "2"],
         "expected an extension degree, got 'x' (at position 2)"),
        (["classify", "--field", "2^2", "--modulus", "1,y,1", "--n", "2"],
         "expected a coefficient, got 'y' (at position 2)"),
    ],
    ids=["code-field", "code-modulus", "code-divisor-code", "code-divisor-factor",
         "classify-field", "classify-modulus"],
)
def test_parse_errors_report_their_own_position(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"parse error: {message}\n")


# the CLI contract over drawn argv: exit 0, 1 or 2, at most one stderr line
# and never a traceback, nothing on stdout with exit 2, and a JSON report
# that parses.  Sizes stay at q^n <= 2^12 (classify: n log2 q <= 12 bits)
# so each run is quick; no value starts with "-", so argparse's own
# multi-line usage errors stay out.
FIELDS = {"2": GF(2), "3": GF(3), "5": GF(5), "7": GF(7), "2^2": GF(2, 2)}
MALFORMED_FIELDS = ["4", "1", "2^0", "2^x", ""]


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def top_dimension(q):
    return max(n for n in range(1, 13) if q**n <= 2**12)


def codes_text(codes):
    return ",".join(map(str, codes))


@st.composite
def field_and_dimension(draw):
    designator = draw(st.sampled_from([*FIELDS] * 3 + MALFORMED_FIELDS))
    field = FIELDS.get(designator)
    n = draw(st.integers(0, top_dimension(field.q) if field else 4))
    return designator, field, n


@st.composite
def divisor_lists(draw, field, n):
    """Powers of irreducibles whose degrees sum to n, with at times one
    block swapped for a constant, x, out-of-range codes or a block of the
    wrong degree."""
    q = field.q if field else 2
    blocks = []
    remaining = n
    while field and remaining:
        d = draw(st.integers(1, remaining))
        p = draw(st.sampled_from(irreducibles(field, d)))
        e = draw(st.integers(1, remaining // d))
        blocks.append(format_poly(p**e))
        remaining -= d * e
    bad = draw(st.sampled_from([None] * 4 + ["constant", "x", "codes", "drop"]))
    if bad == "constant":
        blocks.append(str(draw(st.integers(0, q - 1))))
    elif bad == "x":
        blocks.append("0,1")
    elif bad == "codes":
        length = draw(st.integers(1, max(n, 1) + 1))
        blocks.append(codes_text(draw(st.lists(st.integers(0, q + 2), min_size=length, max_size=length))))
    elif bad == "drop" and blocks:
        blocks.pop(draw(st.integers(0, len(blocks) - 1)))
    if not blocks:
        blocks.append("1,1")
    return ";".join(draw(st.permutations(blocks)))


@st.composite
def subspace_texts(draw, field, n):
    """Rows of width n, at times ragged, of another width, all zero or
    holding an out-of-range code."""
    q = field.q if field else 2
    width = max(1, n + draw(st.sampled_from([0] * 8 + [-1, 1])))
    k = draw(st.integers(1, width))
    entries = st.integers(0, q - 1)
    rows = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(k)]
    kind = draw(st.sampled_from([None] * 5 + ["ragged", "zero", "range"]))
    if kind == "ragged":
        rows[-1] = rows[-1][:-1] if width > 1 else rows[-1] + [0]
    elif kind == "zero":
        rows = [[0] * width for _ in rows]
    elif kind == "range":
        rows[0][draw(st.integers(0, width - 1))] = q + draw(st.integers(0, 2))
    return ";".join(map(codes_text, rows))


@st.composite
def cli_argv(draw):
    designator, field, n = draw(field_and_dimension())
    argv = ["--field", designator, "--n", str(n)]
    if draw(st.booleans()):
        argv = ["classify", *argv]
    else:
        argv = ["code", *argv,
                "--divisors", draw(divisor_lists(field, n)),
                "--subspace", draw(subspace_texts(field, n))]
    fmt = draw(st.sampled_from([None, "json", "csv", "text"]))
    return argv + ([] if fmt is None else ["--format", fmt])


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_code_and_classify_keep_the_exit_contract(argv):
    code, out, err = call_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and err.count("\n") <= 1
    if code == 2:
        assert out == ""
    json_report = argv[-2:] == ["--format", "json"] or argv[0] == "code" and "--format" not in argv
    if code == 0 and json_report:
        report = json.loads(out)
        if argv[0] == "code":
            assert report["group_order"] % report["cardinality"] == 0
