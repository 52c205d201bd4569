"""Coefficient algebra: traces, conditional expectations, CP maps."""

import math

import numpy as np
import pytest

from bifree.balgebra import (
    CPMap,
    belement_from_json,
    belement_to_json,
    diag_expectation,
    matrix_unit,
    random_belement,
    random_cpmap,
    trace_d,
    worst_at,
)


def random_psd(d, rng):
    a = random_belement(d, rng)
    return a @ a.conj().T


def test_apply_cp_identity():
    eye = CPMap.identity(3)
    b = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.allclose(eye(b), b)


def test_apply_cp_flip_display():
    flip = CPMap([matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
    b = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(flip(b), np.array([[4, 0], [0, 1]]))


def test_apply_cp_single_unit():
    e11 = CPMap([matrix_unit(2, 1, 1)])
    b = np.ones((2, 2), dtype=complex)
    assert np.allclose(e11(b), np.array([[1, 0], [0, 0]]))


def test_apply_cp_dimension_mismatch():
    with pytest.raises(ValueError):
        CPMap.identity(2)(np.eye(3))


def test_trace_d():
    assert trace_d(np.eye(4)) == 1
    assert trace_d(matrix_unit(2, 1, 1)) == 0.5
    assert trace_d(np.array([[0, 1], [1, 0]])) == 0


def test_diag_expectation():
    b = np.diag([1.0, 2.0])
    assert np.allclose(diag_expectation(b), b)
    assert np.allclose(
        diag_expectation(np.array([[1, 2], [3, 4]])), np.diag([1.0, 4.0])
    )
    rng = np.random.default_rng(0)
    x = random_belement(3, rng)
    assert np.allclose(diag_expectation(diag_expectation(x)), diag_expectation(x))


def test_diag_expectation_trace_preserving_and_cp():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        x = random_belement(d, rng)
        assert abs(trace_d(diag_expectation(x)) - trace_d(x)) < 1e-12
        # Kraus form of the diagonal expectation: diagonal matrix units.
        diag_map = CPMap([matrix_unit(d, i, i) for i in range(1, d + 1)])
        assert np.allclose(diag_map(x), diag_expectation(x))
        assert diag_map.is_positive()


def test_cp_preserves_psd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        eta = random_cpmap(2, rng)
        b = random_psd(2, rng)
        w = np.linalg.eigvalsh(eta(b))
        assert w.min() >= -1e-9


def test_trace_via_kraus_matches_direct():
    rng = np.random.default_rng(3)
    for _ in range(10):
        eta = random_cpmap(3, rng, n_kraus=3)
        b = random_belement(3, rng)
        direct = sum(v @ b @ v.conj().T for v in eta.kraus)
        assert abs(trace_d(eta(b)) - trace_d(direct)) < 1e-12


def test_choi_round_trip():
    rng = np.random.default_rng(4)
    eta = random_cpmap(2, rng, n_kraus=2)
    back = CPMap.from_choi(eta.choi())
    b = random_belement(2, rng)
    assert np.allclose(eta(b), back(b))


def test_from_choi_rejects_negative():
    bad = -np.eye(4)
    with pytest.raises(ValueError):
        CPMap.from_choi(bad)


def test_json_round_trips():
    rng = np.random.default_rng(5)
    b = random_belement(2, rng)
    assert np.allclose(belement_from_json(belement_to_json(b)), b)
    eta = random_cpmap(2, rng)
    eta2 = CPMap.from_json(eta.to_json())
    x = random_belement(2, rng)
    assert np.allclose(eta(x), eta2(x))


# --- the verdict fold ------------------------------------------------------------

def test_worst_at_first_non_finite_wins_and_stops_reading():
    read = []

    def values():
        for v in (0.5, math.nan, 2.0, math.inf):
            read.append(v)
            yield v

    worst, at = worst_at(values())
    assert math.isnan(worst) and at == 1
    assert len(read) == 2
    assert worst_at([1.0, math.inf, math.nan]) == (math.inf, 1)


def test_worst_at_largest_wins_first_index_on_tie():
    assert worst_at([0.25, 3.0, 1.0, 3.0]) == (3.0, 1)
    assert worst_at(iter([1e-300])) == (1e-300, 0)


def test_worst_at_nothing_above_zero():
    assert worst_at([]) == (0.0, None)
    assert worst_at([0.0, -0.0, 0.0]) == (0.0, None)
