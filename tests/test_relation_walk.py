"""The conjugate-relation walk against relations rebuilt word by word.

The walk carries each test word's right-hand side from its parent word; the
oracle rebuilds it from the word alone, through a functional with its own
moment cache.  They must agree exactly (``==``): the walk builds the same
monomials and sums them in the same order.  The solver reads the same walk,
and is checked against the breadth-first solver that applies every test
word from the vacuum.
"""

import numpy as np
import pytest

from bifree.balgebra import CPMap, matrix_units, random_belement, trace_d
from bifree.conjvar import (
    PresenceContext,
    VectorCandidate,
    _relation_walk,
    circular_candidates,
    conj_residual,
    eta_flip,
    lifted_candidates,
    matrix_lift,
    solve_conjugate,
)
from bifree.fock import CircularPairModel, make_bisemicircular
from bifree.words import Lb, Monomial, MomentFunctional, Rb
from oracles import conjugate_rhs, solve_conjugate_bfs

ONE = CPMap.identity(1)


def _dfs_words(alphabet, max_n):
    """Every word up to ``max_n`` letters, grown from the left depth first."""
    def grow(word):
        yield word
        if len(word) < max_n:
            for f in alphabet:
                yield from grow((f,) + word)

    yield from grow(())


def _alphabet(xi, ctx):
    alphabet = [xi.target] + list(ctx.generators())
    d = xi.functional.dim
    if d > 1:
        for e in matrix_units(d):
            alphabet += [Lb(e), Rb(e)]
    return alphabet


def _check_walk(xi, eta, ctx, fresh_F, max_n):
    """Every node's right-hand side equals the one rebuilt from the word alone."""
    nodes = list(_relation_walk(xi, eta, ctx, max_n))
    assert [w for w, _, _ in nodes] == list(_dfs_words(_alphabet(xi, ctx), max_n))
    for word, _, rhs in nodes:
        assert rhs == conjugate_rhs(word, xi.target, eta, fresh_F), word
    return nodes


def test_negative_max_n_is_an_error():
    # Test words would otherwise grow without bound.
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    cand = VectorCandidate(s, m.model.vector_of(Monomial([s])), m.model)
    with pytest.raises(ValueError):
        next(_relation_walk(cand, ONE, PresenceContext(), -1))
    with pytest.raises(ValueError):
        conj_residual(cand, ONE, PresenceContext(), -1)
    with pytest.raises(ValueError):
        solve_conjugate(m.model, s, ONE, PresenceContext(), max_n=-1)


def test_circular_rhs_matches_oracle():
    cp = CircularPairModel()
    cands, ctxs = circular_candidates(cp.model, cp.c_l, cp.c_r)
    off, _ = circular_candidates(cp.model, cp.c_l, cp.c_r, scale=1.5)
    fresh = MomentFunctional(cp.model.expectation, 1)
    for xi, ctx in zip(cands + off, ctxs + ctxs):
        _check_walk(xi, ONE, ctx, fresh, 4)


@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_matrix_rhs_matches_oracle(scale):
    # d=2: the alphabet carries the matrix-unit insertions (Lb/Rb factors),
    # and the spliced coefficient is a full 2x2 matrix.
    rng = np.random.default_rng(31)

    def cp():
        return CPMap([random_belement(2, rng) / 4.0 for _ in range(2)])

    model = make_bisemicircular([cp()], [cp()])
    s, d1 = model.symbol("S1"), model.symbol("D1")
    fresh = MomentFunctional(model.model.expectation, model.dim)
    for target, partner, ctx in (
        (s, "S1", PresenceContext((), (d1,))),
        (d1, "D1", PresenceContext((s,), ())),
    ):
        vec = model.model.vector_of(Monomial([model.symbol(partner)])).scaled(scale)
        xi = VectorCandidate(target, vec, model.model)
        eta = model.model.covariances[partner]
        _check_walk(xi, eta, ctx, fresh, 3)


def test_scalar_rhs_summation_order():
    # A combined target over irrational variances: some relations sum three
    # inexact terms, so a sum taken in another order than position order
    # shows in the last bits.
    cov = [CPMap([np.array([[np.sqrt(v)]])]) for v in (0.7, 1.3, 2.9)]
    model = make_bisemicircular(cov[:2], cov[2:])
    s1, s2, d1 = model.symbol("S1"), model.symbol("S2"), model.symbol("D1")
    u = model.model.combination_symbol("u", "l", [(0.3, s1), (1.7, s2)], family="u")
    xi = VectorCandidate(u, model.model.vector_of(Monomial([s2])), model.model)
    ctx = PresenceContext((s1,), (d1,))
    eta = CPMap([np.array([[0.9]])])
    _check_walk(xi, eta, ctx, MomentFunctional(model.model.expectation, 1), 6)


@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_lifted_rhs_and_residual_match_oracle(scale):
    cp = CircularPairModel()
    cands, ctxs = lifted_candidates(cp.functional, cp.c_l, cp.c_r, scale=scale)
    # A second lift of the same pair, read through a moment cache of its own.
    lift = matrix_lift(cp.functional, cp.c_l, cp.c_r).lift
    fresh = MomentFunctional(lambda w: np.array([[trace_d(lift.expect(w))]]), 1)
    for xi, ctx in zip(cands, ctxs):
        nodes = _check_walk(xi, ONE, ctx, fresh, 6)
        want = max(
            abs(xi.tau(Monomial(word) * xi.word) - rhs) for word, _, rhs in nodes
        )
        assert conj_residual(xi, ONE, ctx, 6) == want
        if scale != 1.0:
            assert want > 0.1


def _max_diff(u, v):
    diff = u - v
    return max((float(np.max(np.abs(t))) for t in diff.terms.values()), default=0.0)


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_solver_equals_breadth_first_solver_one_letter(lam):
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    target = s
    if lam != 1.0:
        target = m.model.combination_symbol("target", s.side, [(lam, s)])
    got, _ = solve_conjugate(m.model, target, ONE, PresenceContext(), max_n=4)
    want = solve_conjugate_bfs(m.model, target, ONE, PresenceContext(), max_n=4)
    assert got.vector.terms.keys() == want.vector.terms.keys()
    for ks, t in want.vector.terms.items():
        assert np.array_equal(got.vector.terms[ks], t), ks


def test_solver_matches_breadth_first_solver_multi_letter():
    m = make_bisemicircular([ONE, ONE], [ONE])
    s1, s2, d1 = m.symbol("S1"), m.symbol("S2"), m.symbol("D1")
    u = m.model.combination_symbol("u", "l", [(1.0, s1), (0.5, s2)], family="u")
    for target, ctx in (
        (s1, PresenceContext((), (d1,))),
        (u, PresenceContext((s1,), (d1,))),
    ):
        got, resid = solve_conjugate(m.model, target, ONE, ctx, max_n=4)
        want = solve_conjugate_bfs(m.model, target, ONE, ctx, max_n=4)
        assert _max_diff(got.vector, want.vector) <= 1e-12
        assert resid <= 1e-9


def test_solver_fits_insertion_relations_at_d2():
    # At d=2 the test words carry matrix-unit insertions, as in the residual.
    flip = eta_flip()
    m = make_bisemicircular([flip], [])
    s = m.symbol("S1")
    cand, resid = solve_conjugate(m.model, s, flip, PresenceContext(), max_n=3)
    assert resid <= 1e-9
    assert _max_diff(cand.vector, m.model.vector_of(Monomial([s]))) <= 1e-9

