"""Acceptance gate: every exit criterion at its stated tolerance.

The suite runs once per session, as ``verify all`` runs it; one test per
criterion reads its result and prints its PASS/FAIL line, so a plain pytest
run doubles as the acceptance report.
"""

import time

import pytest

from bifree import acceptance

SEED = 0

CRITERIA = [fn.__name__ for fn in acceptance.ALL_CRITERIA]


@pytest.fixture(scope="session")
def suite():
    """``run_all``'s results and overall flag, and its wall time."""
    t0 = time.time()
    results, ok = acceptance.run_all(seed=SEED, emit=None)
    return results, ok, time.time() - t0


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name, suite, capsys):
    result = suite[0][CRITERIA.index(name)]
    with capsys.disabled():
        print()
        print(result.line())
    assert result.passed, result.detail


def test_total_runtime_budget(suite, capsys):
    # Criterion 12: one full acceptance pass stays under five minutes.
    results, ok, total = suite
    runtime = results[-1]
    with capsys.disabled():
        print()
        print(runtime.line())
    assert runtime.cid == 12 and runtime.passed, runtime.detail
    assert total < 300.0
    assert ok
