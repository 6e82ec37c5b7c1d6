"""The property suites are the library's invariant harness; this
module pins their contract: default runs stay green, documented ambiguities
surface as WARN (never FAIL), and trials=0 is vacuous."""

import pytest

from orbitcodes.verify import SUITES, run_suites


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
