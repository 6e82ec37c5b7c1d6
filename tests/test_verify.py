"""The property suites are the library's invariant harness; this
module pins their contract: default runs stay green, documented ambiguities
surface as WARN (never FAIL), and trials=0 is vacuous."""

import importlib

import pytest

from orbitcodes import codes, groups
from orbitcodes.verify import SUITES, run_suites, suite_bounds, suite_rcf

# the module, not the rcf() function the package exports under that name
rcf = importlib.import_module("orbitcodes.rcf")


@pytest.mark.parametrize("suite", SUITES)
def test_suite_passes_with_default_counts(suite):
    (result,) = run_suites([suite], seed=0)
    fails = [f for f in result.findings if f.level == "FAIL"]
    assert not fails, "\n".join(str(f) for f in fails)
    assert result.checks > 0


def test_vacuous_run():
    results = run_suites(list(SUITES), seed=0, trials=0)
    assert all(r.checks == 0 and not r.findings for r in results)


def test_groups_suite_documents_signature_gap():
    (result,) = run_suites(["groups"], seed=0, trials=1)
    warns = [f for f in result.findings if f.level == "WARN"]
    assert any(f.name == "signature_gap" for f in warns)


def test_bounds_suite_documents_literal_separation():
    (result,) = run_suites(["bounds"], seed=0, trials=2)
    warns = [f for f in result.findings if f.level == "WARN"]
    assert any(f.name == "bound_literal_invalid" for f in warns)
    assert any(f.name == "fullrank_equality_gap" for f in warns)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["nope"])


def test_negative_trials_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        run_suites(["groups"], trials=-3)


def _split_squares(divisors):
    """p^2 reported as p, p: chi and the degree sum are kept."""
    out = []
    for p, e in divisors:
        out.extend([(p, 1), (p, 1)] if e == 2 else [(p, e)])
    return tuple(sorted(out, key=rcf.divisor_key))


def _merge_pairs(divisors):
    """p, p reported as p^2: chi and the degree sum are kept."""
    out = list(divisors)
    for p in {p for p, e in divisors if e == 1 and out.count((p, 1)) >= 2}:
        out.remove((p, 1))
        out.remove((p, 1))
        out.append((p, 2))
    return tuple(sorted(out, key=rcf.divisor_key))


def _split_squares_under_higher(divisors):
    """p^2 reported as p, p only where a higher power of p remains, as
    (x+1)^3, (x+1)^2 into (x+1)^3, x+1, x+1: chi and mu are kept."""
    top = {}
    for p, e in divisors:
        top[p] = max(top.get(p, 0), e)
    out = []
    for p, e in divisors:
        out.extend([(p, 1), (p, 1)] if e == 2 and top[p] > 2 else [(p, e)])
    return tuple(sorted(out, key=rcf.divisor_key))


@pytest.mark.parametrize(
    "mutate, caught",
    [
        (_split_squares, {"min_poly_minimal", "divisors_product_char"}),
        (_merge_pairs, {"min_poly_minimal", "divisors_product_char"}),
        # chi and mu are kept, so only the kernel ranks of p(A)^j see it
        (_split_squares_under_higher, {"divisors_product_char"}),
    ],
    ids=["split", "merge", "split-under-higher"],
)
def test_rcf_suite_catches_a_wrong_exponent_split(monkeypatch, mutate, caught):
    # every mutant keeps the divisor product; the minimal-polynomial check,
    # which takes its irreducibles from factor(mu), and the kernel ranks see them
    original = rcf.elementary_divisors
    monkeypatch.setattr(rcf, "elementary_divisors", lambda a: mutate(original(a)))
    result = suite_rcf(seed=0)
    assert result.failed
    assert {f.name for f in result.findings if f.level == "FAIL"} == caught


def test_bounds_suite_checks_the_difference_count_against_the_walk(monkeypatch):
    # every overlap reported 0: the components' counts now disagree with the
    # walk of the whole code, so the refined bound stops matching its distance
    original = codes._difference_profile

    def zero_overlaps(u, p):
        return original(u, p)._replace(overlaps=())

    monkeypatch.setattr(codes, "_difference_profile", zero_overlaps)
    result = suite_bounds(seed=0)
    assert "bound_exact_blockdiag" in {f.name for f in result.findings if f.level == "FAIL"}


def test_bounds_suite_builds_no_group(monkeypatch):
    # the generators are built from their divisors, so no RCF re-derives |G|
    built = []
    init = groups.CyclicGroup.__init__

    def counted(self, generator):
        built.append(generator)
        init(self, generator)

    monkeypatch.setattr(groups.CyclicGroup, "__init__", counted)
    suite_bounds(seed=0)
    assert built == []
