"""Coefficient algebra: traces, conditional expectations, CP maps."""

import math

import numpy as np
import pytest
from oracles import choi_by_kron, cp_by_kraus, is_trace_symmetric_by_kraus

from bifree.balgebra import (
    CPMap,
    belement_from_json,
    belement_to_json,
    diag_expectation,
    matrix_unit,
    maxabs,
    random_belement,
    random_cpmap,
    trace_d,
    worst_at,
)
from bifree.conjvar import eta_flip


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
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            c = random_cpmap(d, rng, n_kraus=n).choi()
            assert maxabs(CPMap.from_choi(c).choi() - c) <= 1e-12


def test_from_choi_rejects_negative():
    bad = -np.eye(4)
    with pytest.raises(ValueError):
        CPMap.from_choi(bad)


def test_from_choi_rejects_non_hermitian():
    # Its Hermitian part is PSD (eigenvalues 0 and 2), so symmetrising it
    # would accept it and put 1 at both (0, 3) and (3, 0).
    c = np.zeros((4, 4))
    c[0, 0] = c[3, 3] = 1.0
    c[0, 3] = 2.0
    with pytest.raises(ValueError, match="Hermitian"):
        CPMap.from_choi(c)


def _seeded_maps(rng):
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            yield random_cpmap(d, rng, n_kraus=n)


def test_kernel_applies_the_map():
    rng = np.random.default_rng(41)
    for eta in _seeded_maps(rng):
        b = random_belement(eta.dim, rng)
        want = eta(b)
        got = np.einsum("pqab,ab->pq", eta.kernel, b)
        assert maxabs(got - want) <= 1e-14 * maxabs(want)


def test_map_matches_kraus_sum():
    # The action is one contraction of the kernel; the Kraus sum is its oracle.
    rng = np.random.default_rng(41)
    for eta in _seeded_maps(rng):
        for scale in (1.0, 1e-3, 1e3):
            b = scale * random_belement(eta.dim, rng)
            got, want = eta(b), cp_by_kraus(eta, b)
            assert got.shape == want.shape == b.shape
            assert maxabs(got - want) <= 1e-14 * max(1.0, maxabs(b))


def test_choi_matches_kronecker_sum():
    rng = np.random.default_rng(42)
    for eta in _seeded_maps(rng):
        want = choi_by_kron(eta)
        assert maxabs(eta.choi() - want) <= 1e-15 * max(1.0, maxabs(want))


def test_trace_symmetry_verdicts_match_kraus_test():
    rng = np.random.default_rng(43)
    h = random_belement(2, rng)
    maps = [eta_flip(), CPMap.identity(2), CPMap.identity(3), CPMap([h + h.conj().T])]
    maps += [random_cpmap(int(rng.integers(1, 4)), rng, n_kraus=int(rng.integers(1, 4)))
             for _ in range(15)]
    verdicts = [eta.is_trace_symmetric() for eta in maps]
    assert verdicts == [is_trace_symmetric_by_kraus(eta) for eta in maps]
    # Every scalar map is trace-symmetric; the matrix draws are not.
    assert verdicts == [True] * 4 + [eta.dim == 1 for eta in maps[4:]]


def test_kernel_is_kept_and_read_only():
    rng = np.random.default_rng(44)
    for eta in (CPMap.identity(1), random_cpmap(2, rng)):
        k = eta.kernel
        before = k.copy()
        assert eta.kernel is k and not k.flags.writeable
        with pytest.raises(ValueError):
            k[0, 0, 0, 0] = 2.0
        c = eta.choi()
        c[0, 0] = 5.0  # the Choi matrix is the caller's own array
        assert np.array_equal(eta.kernel, before) and eta.choi()[0, 0] != 5.0


def test_kraus_operators_are_the_maps_own():
    v = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    eta = CPMap([v])
    k = eta.kernel.copy()
    v[0, 1] = 7.0  # the caller's array, not the map's
    assert not eta.kraus[0].flags.writeable
    assert np.array_equal(eta.kernel, k)
    assert np.array_equal(eta(np.eye(2)), np.array([[5.0, 2.0], [2.0, 1.0]]))


def test_json_round_trips():
    rng = np.random.default_rng(5)
    b = random_belement(2, rng)
    assert np.allclose(belement_from_json(belement_to_json(b)), b)
    eta = random_cpmap(2, rng)
    eta2 = CPMap.from_json(eta.to_json())
    x = random_belement(2, rng)
    assert np.allclose(eta(x), eta2(x))


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
def test_json_readers_reject_a_d_that_is_not_an_int(bad):
    rng = np.random.default_rng(6)
    b = belement_to_json(random_belement(2, rng))
    eta = random_cpmap(2, rng).to_json()
    with pytest.raises(ValueError, match='field "d"'):
        belement_from_json({**b, "d": bad})
    with pytest.raises(ValueError, match='field "d"'):
        CPMap.from_json({**eta, "d": bad})
    # A reader without "d" takes the dimension from the data.
    del b["d"], eta["d"]
    assert belement_from_json(b).shape == (2, 2)
    assert CPMap.from_json(eta).dim == 2


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
