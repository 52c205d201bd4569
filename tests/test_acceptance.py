"""Acceptance gate: every exit criterion at its stated tolerance.

The suite runs once per session, as ``verify all`` runs it; one test per
criterion reads its result and prints its PASS/FAIL line, so a plain pytest
run doubles as the acceptance report.
"""

import hashlib
import json
import math
import time

import pytest

from bifree import acceptance, conjvar

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


# sha256 of the criteria list that ``verify all`` emits at seed 0 (``id``,
# ``name``, ``pass``, ``detail``; JSON with sorted keys).
CRITERIA_SHA256 = "f85a2303bb642fb762a2d53f2ad3f8dd29b8ebfe4851a36abfabbb8cb7995e52"


def test_pinned_verdicts(suite):
    criteria = [
        {"id": r.cid, "name": r.name, "pass": r.passed, "detail": r.detail}
        for r in suite[0]
    ]
    digest = hashlib.sha256(json.dumps(criteria, sort_keys=True).encode()).hexdigest()
    assert digest == CRITERIA_SHA256, criteria


def test_criterion_7_fails_on_nan_residual(monkeypatch):
    monkeypatch.setattr(conjvar, "conj_residual", lambda *args: math.nan)
    result = acceptance.criterion_7_conjugate_variables(SEED)
    assert not result.passed
    assert "xi=S residual nan" in result.detail


def test_criterion_8_fails_on_nan_residual(monkeypatch):
    monkeypatch.setattr(conjvar, "conj_residual", lambda *args: math.nan)
    result = acceptance.criterion_8_perturbation_law(SEED)
    assert not result.passed
    assert "residuals nan" in result.detail


def test_criterion_11_fails_on_nan_residual(monkeypatch):
    # One NaN among finite residuals: ``max`` would drop it.
    residuals = iter([1e-12, 2e-12, math.nan] + [1e-12] * 97)
    monkeypatch.setattr(
        acceptance, "product_cumulant_expand", lambda *args: {"residual": next(residuals)}
    )
    result = acceptance.criterion_11_product_expansion(SEED)
    assert not result.passed
    assert "nan" in result.detail
