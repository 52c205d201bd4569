"""Depth-budget pruning of Fock word actions against the unpruned path.

The oracle applies every symbol with no budget, so it builds every component
the word creates; the pruned path must agree with it exactly (``==``), not
just within a tolerance, because a dropped component never feeds a kept one.
The conjugate residual is checked against the walk over every test word with
no budget, so it covers the walk's one word per operator as well.
"""

import numpy as np
import pytest

from bifree.balgebra import CPMap, random_belement
from bifree.conjvar import (
    VectorCandidate,
    circular_candidates,
    conj_residual,
)
from bifree.fock import FockVector, TruncationError, make_bisemicircular, make_circular_pair
from bifree.words import Lb, Monomial, Rb
from oracles import circular_letters, circular_presence, full_walk_residual


def _unpruned(model, word, vec=None):
    vec = FockVector.vacuum(model.dim) if vec is None else vec
    for f in reversed(word.factors):
        vec = model.apply_symbol(f, vec, keep_depth=None)
    return vec


def _random_words(rng, alphabet, max_len, per_len):
    """Seeded words of every length up to ``max_len``, and words ``w* w``
    of the same lengths, whose expectations are squared norms, not zero."""
    def draw(n):
        return Monomial([alphabet[i] for i in rng.integers(len(alphabet), size=n)])

    for n in range(1, max_len + 1):
        for _ in range(per_len):
            yield draw(n)
            if n % 2 == 0:
                w = draw(n // 2)
                yield w.adjoint() * w


def _matrix_model(seed):
    rng = np.random.default_rng(seed)

    def cp():
        return CPMap([random_belement(2, rng) / 4.0 for _ in range(2)])

    model = make_bisemicircular([cp()], [cp()])
    coeffs = [Lb(random_belement(2, rng)), Rb(random_belement(2, rng))]
    return model, coeffs


def test_scalar_expectation_matches_unpruned_depth0():
    cp = make_circular_pair(n_pairs=2)
    rng = np.random.default_rng(20)
    alphabet = circular_letters(cp, 2) + [Lb(np.array([[0.5 - 0.25j]]))]
    for word in _random_words(rng, alphabet, 8, 12):
        got = cp.expectation(word)
        assert np.array_equal(got, _unpruned(cp, word).depth0()), word


def test_matrix_expectation_matches_unpruned_depth0():
    model, coeffs = _matrix_model(21)
    rng = np.random.default_rng(22)
    alphabet = list(model.symbols) + coeffs
    for word in _random_words(rng, alphabet, 8, 2):
        got = model.expectation(word)
        assert np.array_equal(got, _unpruned(model, word).depth0()), word


@pytest.mark.parametrize("keep", [0, 1, 2, 3])
def test_apply_word_keeps_every_component_within_budget(keep):
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    rng = np.random.default_rng(23)
    start = cp.vector_of(Monomial([cl, cr.star()]))
    for word in _random_words(rng, circular_letters(cp), 6, 6):
        full = _unpruned(cp, word, start)
        pruned = cp.apply_word(word, start, keep_depth=keep)
        want = {ks: t for ks, t in full.terms.items() if len(ks) <= keep}
        assert pruned.terms == want


def test_circular_residuals_match_unpruned_walk():
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    F = cp.functional
    eta = CPMap.identity(1)
    cands = circular_candidates(cp, cl, cr)
    for cand, ctx in zip(cands, circular_presence(cl, cr)):
        # The true candidates leave only roundoff; the rescaled ones do not.
        off = VectorCandidate(cand.target, cand.vector.scaled(1.5), cand.model)
        for xi in (cand, off):
            got = conj_residual(xi, eta, ctx, 4)
            assert got == full_walk_residual(xi, eta, ctx, F, 4)


def test_matrix_residual_matches_unpruned_walk():
    # d=2: the alphabet carries the matrix-unit insertions (Lb/Rb factors).
    model, _ = _matrix_model(24)
    s, d1 = model.symbol("S1"), model.symbol("D1")
    eta = model.covariances["S1"]
    ctx = (d1,)
    vec = model.vector_of(Monomial([s]))
    for scale in (1.0, 1.5):
        xi = VectorCandidate(s, vec.scaled(scale), model)
        got = conj_residual(xi, eta, ctx, 3)
        assert got == full_walk_residual(xi, eta, ctx, model.functional, 3)


def test_truncation_raised_only_for_reachable_components():
    tight = make_bisemicircular([CPMap.identity(1)], [], max_depth=2)
    s = tight.symbol("S1")
    # S1^4 needs depth 2 only: the depth-3 components cannot return to 0.
    assert tight.expectation(Monomial([s] * 4))[0, 0] == 2.0
    with pytest.raises(TruncationError):
        tight.expectation(Monomial([s] * 6))


def test_coefficient_factors_do_not_count_towards_the_budget():
    # Four symbols need depth 2 only; the two insertions never change the
    # depth, so they must not widen the budget past max_depth.
    tight = make_bisemicircular([CPMap.identity(1)], [], max_depth=2)
    s, one = tight.symbol("S1"), Lb(np.eye(1))
    word = Monomial([one, s, one, s, s, s])
    assert tight.expectation(word)[0, 0] == 2.0
    pruned = tight.apply_word(word, FockVector.vacuum(1), keep_depth=0)
    assert pruned.depth0()[0, 0] == 2.0
