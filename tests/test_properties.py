"""Derandomized property tests: the Moebius function against the inverted
order matrix, the deterministic partition-moment reduction against the
random-order one, and Fock expectations against truncation depth."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eval_moment_pi_random, mobius_nc, refines

from bifree.balgebra import CPMap, maxabs, random_belement, random_cpmap
from bifree.bnc import ChiWord, enumerate_bnc, mobius_bnc, s_chi_inverse
from bifree.fock import make_bisemicircular
from bifree.moments import eval_moment_pi
from bifree.words import GeneratorSymbol, Lb, Monomial, Rb

PROPS = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@st.composite
def comparable_pairs(draw):
    """sigma <= pi in BNC(chi), for a drawn chi of length <= 7."""
    parts = enumerate_bnc(draw(st.builds(ChiWord, st.text("lr", min_size=1, max_size=7))))
    pi = parts[draw(st.integers(0, len(parts) - 1))]
    below = [s for s in parts if refines(s.blocks, pi.blocks)]
    return below[draw(st.integers(0, len(below) - 1))], pi


@PROPS
@given(comparable_pairs())
def test_mobius_matches_inverted_order_matrix(pair):
    sigma, pi = pair
    inv = s_chi_inverse(pi.chi)

    def picture(p):
        return [[inv[x - 1] for x in b] for b in p.blocks]

    assert mobius_bnc(sigma, pi) == mobius_nc(picture(sigma), picture(pi), pi.n)


def _model(d: int, rng, max_depth=None):
    """Two left and one right generator with seeded covariances."""
    if d == 1:
        etas = [CPMap([[[rng.uniform(0.5, 1.5)]]]) for _ in range(3)]
    else:
        etas = [random_cpmap(d, rng) for _ in range(3)]
    return make_bisemicircular(etas[:2], etas[2:], max_depth=max_depth)


def _operands(model, chi: ChiWord, rng):
    """The square of one generator of its side per position, with a
    coefficient of that side between the two factors half of the time, so
    that no block's moment vanishes for parity."""
    left = [s for s in model.symbols if s.side == "l"]
    right = [s for s in model.symbols if s.side == "r"]
    ops = []
    for side in chi.labels:
        syms, coeff = (left, Lb) if side == "l" else (right, Rb)
        s = syms[rng.integers(len(syms))]
        mid = [coeff(random_belement(model.dim, rng))] if rng.integers(2) else []
        ops.append(Monomial([s, *mid, s]))
    return ops


@PROPS
@given(st.sampled_from((1, 2)), st.data(), st.integers(0, 2**32 - 1))
def test_reduction_order_does_not_change_the_moment(d, data, seed):
    rng = np.random.default_rng(seed)
    chi = data.draw(st.builds(ChiWord, st.text("lr", min_size=1, max_size=5)))
    parts = enumerate_bnc(chi)
    pi = parts[data.draw(st.integers(0, len(parts) - 1))]
    model = _model(d, rng)
    ops = _operands(model, chi, rng)
    base = eval_moment_pi(model.functional, pi, ops)
    alt = eval_moment_pi_random(model.functional, pi, ops, rng)
    assert maxabs(base - alt) <= 1e-10 * max(1.0, maxabs(base))


@PROPS
@given(st.sampled_from((1, 2)), st.text("lr", min_size=1, max_size=5),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_expectation_unchanged_at_every_truncation_from_half_the_symbols(d, labels, extra, seed):
    rng = np.random.default_rng(seed)
    full = _model(d, rng)
    word = Monomial.concat(_operands(full, ChiWord(labels), rng))
    # Only the generator symbols count: coefficient insertions never change
    # the depth.
    symbols = sum(isinstance(f, GeneratorSymbol) for f in word.factors)
    capped = _model(d, np.random.default_rng(seed), max_depth=symbols // 2 + extra)
    assert np.array_equal(capped.expectation(word), full.expectation(word))
