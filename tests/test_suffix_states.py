"""The suffix states that a Fock model keeps for its vacuum expectation.

A moment starts from the longest suffix state kept and applies only the
factors left of it.  The oracle applies every word to the vacuum and keeps
nothing, so the two must agree bit for bit (``np.array_equal``), whichever
words came first and whatever the bound dropped.
"""

import numpy as np
import pytest
from oracles import vacuum_expectation

import bifree.fock
from bifree.balgebra import CPMap, random_belement, random_cpmap
from bifree.conjvar import circular_entropy_experiment, fisher_minimization_experiment
from bifree.fock import FockModel, TruncationError, make_bisemicircular
from bifree.words import Lb, Monomial, Rb


def _model(d, seed):
    """Two left and one right generator with seeded covariances, and one
    seeded coefficient per side."""
    rng = np.random.default_rng(seed)
    if d == 1:
        etas = [CPMap([[[rng.uniform(0.5, 1.5)]]]) for _ in range(3)]
    else:
        etas = [random_cpmap(d, rng) for _ in range(3)]
    model = make_bisemicircular(etas[:2], etas[2:])
    coeffs = [Lb(random_belement(d, rng)), Rb(random_belement(d, rng))]
    return model, list(model.symbols) + coeffs


def _words(alphabet, seed):
    """Seeded words that share suffixes: every stem, and the stem grown on
    the left by one to four letters, as the conjugate-relation walk grows
    its words."""
    rng = np.random.default_rng(seed)

    def draw(n):
        return [alphabet[i] for i in rng.integers(len(alphabet), size=n)]

    words = []
    for _ in range(12):
        stem = draw(int(rng.integers(1, 5)))
        words.append(Monomial(stem))
        for _ in range(4):
            words.append(Monomial(draw(int(rng.integers(1, 5))) + stem))
    return words


@pytest.mark.parametrize("bound", [bifree.fock.SUFFIX_STATES, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_moments_match_the_vacuum_oracle_in_either_order(d, bound, monkeypatch):
    monkeypatch.setattr(bifree.fock, "SUFFIX_STATES", bound)
    _, alphabet = _model(d, 50 + d)
    words = _words(alphabet, 60 + d)
    for order in (words, words[::-1]):
        model, _ = _model(d, 50 + d)  # the same model with no state kept
        fresh = vacuum_expectation(model)
        for word in order:
            assert np.array_equal(model.expectation(word), fresh(word)), word
        assert 0 < len(model._suffix_states) <= bound


def test_states_are_reused_across_shared_suffixes():
    model, alphabet = _model(1, 51)
    calls = []
    apply_symbol = FockModel.apply_symbol

    def counted(self, f, vec, keep_depth=None):
        calls.append(f)
        return apply_symbol(self, f, vec, keep_depth)

    s1, s2, d1, b = alphabet[:4]
    stem = [s1, b, d1, s2, b]
    model.expectation(Monomial([s1, s2] + stem))
    model.apply_symbol = counted.__get__(model)
    # Two symbols left of the stem in both words: the second word finds the
    # stem's state at the same budget and applies only its own two letters.
    model.expectation(Monomial([d1, s1] + stem))
    assert calls == [s1, d1]


def test_truncation_is_raised_again_on_a_second_call():
    tight = make_bisemicircular([CPMap.identity(1)], [], max_depth=2)
    s = tight.symbol("S1")
    for _ in range(2):
        with pytest.raises(TruncationError):
            tight.expectation(Monomial([s] * 6))
    assert tight.expectation(Monomial([s] * 4))[0, 0] == 2.0


def test_kept_states_stay_within_the_bound(monkeypatch):
    sizes = []
    expectation = FockModel.expectation

    def measured(self, word):
        out = expectation(self, word)
        sizes.append(len(self._suffix_states))
        return out

    monkeypatch.setattr(FockModel, "expectation", measured)
    fisher_minimization_experiment()
    assert max(sizes) == bifree.fock.SUFFIX_STATES


@pytest.mark.parametrize(
    "experiment", [fisher_minimization_experiment, circular_entropy_experiment]
)
def test_experiments_match_the_unkept_expectation(experiment, monkeypatch):
    got = experiment()
    monkeypatch.setattr(FockModel, "expectation", lambda self, w: vacuum_expectation(self)(w))
    assert got == experiment()


def test_fisher_experiment_apply_symbol_calls_pinned(monkeypatch):
    # 13,098 when every moment was built from the vacuum; 6,458 while the
    # lifted walk visited every word; 5,846 while the walk spliced in
    # coefficients that are exactly zero.
    calls = []
    apply_symbol = FockModel.apply_symbol

    def counted(self, f, vec, keep_depth=None):
        calls.append(f)
        return apply_symbol(self, f, vec, keep_depth)

    monkeypatch.setattr(FockModel, "apply_symbol", counted)
    fisher_minimization_experiment()
    assert len(calls) == 5219
