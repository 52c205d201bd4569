"""The conjugate-relation walk against relations rebuilt word by word.

The walk visits one word per operator: the lexicographic normal forms of the
words under swaps of commuting letters, which the oracle finds by closing
each word under such swaps.  The walk carries each test word's right-hand
side from its parent word; the oracle rebuilds it from the word alone,
through a functional with its own moment cache.  They must agree exactly
(``==``): the walk builds the same monomials and sums them in the same
order, except that it leaves out each spliced monomial whose coefficient is
exactly zero, whose trace ``+0j`` adds no bit to a sum that starts at
``+0``.  Its residual is checked against the walk over every word, and the
solver, which reads the same walk, against the breadth-first solver that
applies every test word from the vacuum.
"""

import math

import numpy as np
import pytest

from bifree.balgebra import CPMap, matrix_unit, matrix_units, random_belement, trace_d
from bifree.conjvar import (
    MatrixLift,
    VectorCandidate,
    WordCandidate,
    _Lockstep,
    _relation_walk,
    _worst_residual,
    circular_candidates,
    conj_residual,
    eta_flip,
    lifted_candidates,
    scaled_semicircular,
    solve_conjugate,
)
from bifree.fock import make_bisemicircular, make_circular_pair
from bifree.words import GeneratorSymbol, Lb, Monomial, MomentFunctional, Rb
from oracles import (
    circular_letters,
    circular_presence,
    conjugate_rhs,
    full_walk_residual,
    is_lex_normal_form,
    lifted_presence,
    solve_conjugate_bfs,
    vacuum_expectation,
)

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
    alphabet = [xi.target, *ctx]
    d = xi.functional.dim
    if d > 1:
        for e in matrix_units(d):
            alphabet += [Lb(e), Rb(e)]
    return alphabet


def _opposite_sides(a, b):
    # Every letter of the models below acts on its own side only, so letters
    # of opposite sides commute.
    return a.side != b.side


def _check_walk(xi, eta, ctx, fresh_F, max_n, independent=_opposite_sides):
    """The walk visits the normal-form words in depth-first order, and every
    node's right-hand side equals the one rebuilt from the word alone."""
    nodes = list(_relation_walk(xi, eta, ctx, max_n))
    alphabet = _alphabet(xi, ctx)
    want = [
        w for w in _dfs_words(alphabet, max_n)
        if is_lex_normal_form(w, alphabet, independent)
    ]
    assert [w for w, _, _ in nodes] == want
    for word, _, rhs in nodes:
        assert rhs == conjugate_rhs(word, xi.target, eta, fresh_F), word
    return nodes


def test_negative_max_n_is_an_error():
    # Test words would otherwise grow without bound.
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    cand = VectorCandidate(s, m.vector_of(Monomial([s])), m)
    with pytest.raises(ValueError):
        next(_relation_walk(cand, ONE, (), -1))
    with pytest.raises(ValueError):
        conj_residual(cand, ONE, (), -1)
    with pytest.raises(ValueError):
        solve_conjugate(m, s, ONE, (), max_n=-1)


def test_circular_rhs_matches_oracle():
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    cands = circular_candidates(cp, cl, cr)
    off = circular_candidates(cp, cl, cr, scale=1.5)
    ctxs = circular_presence(cl, cr)
    fresh = MomentFunctional(vacuum_expectation(cp), 1)
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
    fresh = MomentFunctional(vacuum_expectation(model), model.dim)
    for target, partner, ctx in (
        (s, "S1", (d1,)),
        (d1, "D1", (s,)),
    ):
        vec = model.vector_of(Monomial([model.symbol(partner)])).scaled(scale)
        xi = VectorCandidate(target, vec, model)
        eta = model.covariances[partner]
        _check_walk(xi, eta, ctx, fresh, 3)


def test_scalar_rhs_summation_order():
    # A combined target over irrational variances: some relations sum three
    # inexact terms, so a sum taken in another order than position order
    # shows in the last bits.
    cov = [CPMap([np.array([[np.sqrt(v)]])]) for v in (0.7, 1.3, 2.9)]
    model = make_bisemicircular(cov[:2], cov[2:])
    s1, s2, d1 = model.symbol("S1"), model.symbol("S2"), model.symbol("D1")
    u = model.combination_symbol("u", [(0.3, s1), (1.7, s2)], family="u")
    xi = VectorCandidate(u, model.vector_of(Monomial([s2])), model)
    ctx = (s1, d1)
    eta = CPMap([np.array([[0.9]])])
    _check_walk(xi, eta, ctx, MomentFunctional(vacuum_expectation(model), 1), 6)


def _lift_trace(lift):
    """The lift's trace through a moment cache of its own."""
    return MomentFunctional(lambda w: np.array([[trace_d(lift.expect(w))]]), 1)


def _check_lifted(xi, ctx, fresh, max_n, independent=_opposite_sides):
    """The lifted walk visits the normal forms under ``independent``, and its
    residual is the full walk's up to roundoff in the largest term."""
    _check_walk(xi, ONE, ctx, fresh, max_n, independent)
    got = conj_residual(xi, ONE, ctx, max_n)
    want = full_walk_residual(xi, ONE, ctx, fresh, max_n)
    assert abs(got - want) <= 1e-15 * max(1.0, want), (xi.target, max_n)
    return want


@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_lifted_rhs_and_residual_match_oracle(scale):
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    cands = lifted_candidates(cp, cl, cr, scale=scale)
    # A second lift of the same pair, read through a moment cache of its own.
    fresh = _lift_trace(MatrixLift(cp, cl, cr))
    for xi, ctx in zip(cands, lifted_presence(cands)):
        # X is made of left letters of the base and Y of right ones, so the
        # lift's rule lets them commute, as opposite sides do.
        for max_n in (4, 6):
            want = _check_lifted(xi, ctx, fresh, max_n)
            if scale != 1.0:
                assert want > 0.1


def test_lifted_generators_over_impure_base_letters_commute_with_nothing():
    # A left carrier over a base symbol that also acts on a right index is
    # not pure on the left.  A swap with Y would swap base letters that do
    # not commute (D1 and D2 are free), so the walk must keep them apart,
    # while the carriers of pure letters commute.
    m = make_bisemicircular([ONE], [ONE, ONE])
    s, d2 = m.symbol("S1"), m.symbol("D2")
    mixed = m.register_symbol(
        GeneratorSymbol("M", "l"), [(1.0, ("l", "S1")), (0.5, ("r", "D1"))]
    )
    pure = MatrixLift(m, s, d2)
    assert (pure.pure_side(pure.X), pure.pure_side(pure.Y)) == ("l", "r")
    lift = MatrixLift(m, mixed, d2)
    X, Y = lift.X, lift.Y
    assert (lift.pure_side(X), lift.pure_side(Y)) == (None, "r")
    xi = WordCandidate(X, Monomial([X]), lift, 1.5)
    assert (xi.pure_side(X), xi.pure_side(Y)) == (None, "r")
    _check_lifted(
        xi, (Y,), _lift_trace(lift), 4, lambda a, b: X not in (a, b) and a.side != b.side
    )


@pytest.mark.parametrize("scale", [0.5, 1.5])
def test_perturbed_lifted_carriers_match_full_walk(scale):
    # The entropy experiment's lifted carriers at t = 1: combinations of two
    # circular pairs, registered as combination symbols of the base model,
    # are pure on their sides, so their walks are pruned as the pair's are.
    cp = make_circular_pair(n_pairs=2)
    cl, _, cr, _, c2l, _, c2r, _ = circular_letters(cp, 2)
    mk = cp.combination_symbol
    z = mk("z[1.0]", [(1.0, cl), (1.0, c2l)], family="z")
    w = mk("w[1.0]", [(1.0, cr), (1.0, c2r)], family="z")
    cands = lifted_candidates(cp, z, w, scale=scale)
    fresh = _lift_trace(MatrixLift(cp, z, w))
    for xi, ctx in zip(cands, lifted_presence(cands)):
        want = _check_lifted(xi, ctx, fresh, 4)
        assert (want > 0.1) == (scale != 0.5)


def test_walk_visits_one_word_per_operator():
    # The letters of a circular pair split into two sides of two letters
    # each, so an operator is a pair of one-sided words: sum over n <= 6 of
    # (n + 1) 2^n = 769 of them, out of 5,461 words.
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    cands = circular_candidates(cp, cl, cr)
    for xi, ctx in zip(cands, circular_presence(cl, cr)):
        assert sum(1 for _ in _relation_walk(xi, ONE, ctx, 6)) == 769
    # d=2, flip covariance, S1 with D1 present: five letters a side (the
    # generator and four matrix-unit insertions), sum over n <= 5 of
    # (n + 1) 5^n = 22,461 operators, out of 111,111 words.
    flip = eta_flip()
    m = make_bisemicircular([flip], [flip])
    s, d1 = m.symbol("S1"), m.symbol("D1")
    xi = VectorCandidate(s, m.vector_of(Monomial([s])), m)
    walk = _relation_walk(xi, flip, (d1,), 5)
    assert sum(1 for _ in walk) == 22461
    # Lifted carriers: X (left) and Y (right) commute, so an operator is
    # X^a Y^b, (n + 1) of them at length n: 28 words in place of 127 for
    # n <= 6, and 15 in place of 31 for n <= 4.
    for max_n, want in ((6, 28), (4, 15)):
        cands = lifted_candidates(cp, cl, cr)
        for xi, ctx in zip(cands, lifted_presence(cands)):
            assert sum(1 for _ in _relation_walk(xi, ONE, ctx, max_n)) == want


def _spliced_terms(xi, eta, ctx, max_n, monkeypatch):
    """The walk's nodes, and the spliced terms it evaluates: its calls of
    ``tau`` on the candidate's functional."""
    calls = []
    tau = MomentFunctional.tau

    def counted(self, word):
        if self is xi.functional:
            calls.append(word)
        return tau(self, word)

    with monkeypatch.context() as patch:
        patch.setattr(MomentFunctional, "tau", counted)
        nodes = list(_relation_walk(xi, eta, ctx, max_n))
    return nodes, calls


def test_walk_leaves_out_zero_splices(monkeypatch):
    # 564 of the 1,023 spliced terms of a circular candidate at length 6
    # have a coefficient that is exactly zero, and so do 22 of the 56 of a
    # lifted carrier.
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    circular = circular_candidates(cp, cl, cr)
    lifted = lifted_candidates(cp, cl, cr)
    for cands, ctxs, want in (
        (circular, circular_presence(cl, cr), 459),
        (lifted, lifted_presence(lifted), 34),
    ):
        for xi, ctx in zip(cands, ctxs):
            _, calls = _spliced_terms(xi, ONE, ctx, 6, monkeypatch)
            assert len(calls) == want, xi.target


def test_walk_drops_repeated_letters():
    # A letter listed again walks no operator twice, and a copy of the
    # target (equal to it, another object) is the target: without the
    # repeats dropped the walk visits 31 words in place of 5 and the copy's
    # occurrences miss their splices, a residual of 2.0 in place of 0.0.
    (xi,) = scaled_semicircular(1.0)
    t = xi.target
    twin = GeneratorSymbol(t.name, t.side, t.adjoint, t.family)
    assert twin == t and twin is not t
    for others in ((), (t,), (twin,), (t, twin)):
        words = [w for w, _, _ in _relation_walk(xi, ONE, others, 4)]
        assert words == [(t,) * n for n in range(5)], others
        assert conj_residual(xi, ONE, others, 4) == 0.0
    assert full_walk_residual(xi, ONE, (twin,), xi.functional, 4) == 0.0


def test_solver_drops_repeated_letters():
    # A repeated letter would repeat basis words, hence lstsq columns.
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    cand, resid = solve_conjugate(m, s, ONE, (), max_n=4)
    twin = GeneratorSymbol(s.name, s.side, s.adjoint, s.family)
    for others in ((s,), (twin,)):
        again, r = solve_conjugate(m, s, ONE, others, max_n=4)
        assert r == resid and again.vector.terms == cand.vector.terms, others


def test_nan_coefficient_is_spliced():
    # A covariance map that returns NaN makes every spliced coefficient NaN,
    # and NaN is not zero: the right-hand sides, hence the residual, are NaN.
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    xi = VectorCandidate(s, m.vector_of(Monomial([s])), m)
    eta = CPMap([np.array([[math.nan]])])
    assert math.isnan(conj_residual(xi, eta, (), 2))


def test_zero_matrix_splices_match_oracle(monkeypatch):
    # d=2: eta keeps the diagonal only, so the coefficient of the tail
    # Lb(E12) is zero although its moment is not, and the tails S1 and
    # Lb(E12) S1 have the zero matrix as moment.  Left out, they change no
    # right-hand side.
    e11, e12, e22 = (matrix_unit(2, i, j) for i, j in ((1, 1), (1, 2), (2, 2)))
    eta = CPMap([e11, e22 / 2.0])
    model = make_bisemicircular([eta], [eta])
    s, d1 = model.symbol("S1"), model.symbol("D1")
    fresh = MomentFunctional(vacuum_expectation(model), model.dim)
    assert np.count_nonzero(fresh.expect(Monomial([Lb(e12)])))
    assert not np.count_nonzero(eta(e12))
    for tail in ((s,), (Lb(e12), s)):
        assert not np.count_nonzero(fresh.expect(Monomial(tail)))
    xi = VectorCandidate(s, model.vector_of(Monomial([s])), model)
    ctx = (d1,)
    nodes, calls = _spliced_terms(xi, eta, ctx, 3, monkeypatch)
    assert len(calls) < sum(word.count(s) for word, _, _ in nodes)
    _check_walk(xi, eta, ctx, fresh, 3)


def test_walk_keeps_letters_of_mixed_action_apart():
    # A left target that also creates on a right index commutes with no
    # letter; S1 and D1 still commute with each other.
    m = make_bisemicircular([ONE], [ONE])
    s, d1 = m.symbol("S1"), m.symbol("D1")
    mixed = m.register_symbol(
        GeneratorSymbol("M", "l"), [(1.0, ("l", "S1")), (0.5, ("r", "D1"))]
    )
    assert m.pure_side(s) == "l" and m.pure_side(d1) == "r"
    assert m.pure_side(mixed) is None
    for name, action in (("N", ("l", "D1")), ("P", ("r", "S1"))):
        # A left creator on a right index, a right creator on a left one.
        odd = m.register_symbol(GeneratorSymbol(name, "l"), [(1.0, action)])
        assert m.pure_side(odd) is None
    ctx = (s, d1)
    xi = VectorCandidate(mixed, m.vector_of(Monomial([s])), m)

    def independent(a, b):
        return mixed not in (a, b) and a.side != b.side

    _check_walk(xi, ONE, ctx, MomentFunctional(vacuum_expectation(m), 1), 4, independent)


@pytest.mark.parametrize("d, seed", [(1, 41), (1, 42), (2, 43)])
def test_pruned_residual_equals_full_walk(d, seed):
    # Seeded CP covariances, true candidates (each generator is its own
    # conjugate variable relative to its covariance) and wrong ones (x1.5).
    # A word left out of the walk is the same operator as a walked one, so
    # the residuals agree up to roundoff in the largest one.
    rng = np.random.default_rng(seed)

    def cp():
        return CPMap([random_belement(d, rng) / 2.0 for _ in range(2)])

    model = make_bisemicircular([cp(), cp()], [cp()])
    s1, s2, d1 = model.symbol("S1"), model.symbol("S2"), model.symbol("D1")
    for target, ctx in (
        (s1, (s2, d1)),
        (d1, (s1,)),
    ):
        eta = model.covariances[target.name]
        vec = model.vector_of(Monomial([target]))
        for scale in (1.0, 1.5):
            xi = VectorCandidate(target, vec.scaled(scale), model)
            got = conj_residual(xi, eta, ctx, 4)
            want = full_walk_residual(xi, eta, ctx, model.functional, 4)
            assert abs(got - want) <= 1e-15 * max(1.0, want), (target, scale)
            if scale != 1.0:
                assert got > 0.1


def test_solver_walks_the_words_of_the_residual():
    # Walked in lockstep, the solver's basis candidates share one walk: the
    # words of the residual check, with their right-hand sides.
    m = make_bisemicircular([ONE, ONE], [ONE])
    s1, s2, d1 = m.symbol("S1"), m.symbol("S2"), m.symbol("D1")
    ctx = (s2, d1)
    cands = [
        VectorCandidate(s1, m.vector_of(Monomial(w)), m)
        for w in ((s1,), (d1, s2))
    ]
    together = [(w, rhs) for w, _, rhs in _relation_walk(_Lockstep(cands), ONE, ctx, 4)]
    alone = [(w, rhs) for w, _, rhs in _relation_walk(cands[0], ONE, ctx, 4)]
    assert together == alone


def _nan_candidate(m):
    s = m.symbol("S1")
    return VectorCandidate(s, m.vector_of(Monomial([s])).scaled(math.nan), m)


def test_nan_candidate_fails_the_residual_check():
    m = make_bisemicircular([ONE], [])
    bad = _nan_candidate(m)
    r = conj_residual(bad, ONE, (), 4)
    assert not math.isfinite(r) and not r <= 1e-9
    s = m.symbol("S1")
    good = VectorCandidate(s, m.vector_of(Monomial([s])), m)
    for cands in ((good, bad), (bad, good)):
        worst = _worst_residual(cands, 4)
        assert not math.isfinite(worst) and not worst <= 1e-9


def _max_diff(u, v):
    diff = u - v
    return max((float(np.max(np.abs(t))) for t in diff.terms.values()), default=0.0)


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_solver_equals_breadth_first_solver_one_letter(lam):
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    target = s
    if lam != 1.0:
        target = m.combination_symbol("target", [(lam, s)])
    got, _ = solve_conjugate(m, target, ONE, (), max_n=4)
    want = solve_conjugate_bfs(m, target, ONE, (), max_n=4)
    assert got.vector.terms.keys() == want.vector.terms.keys()
    for ks, t in want.vector.terms.items():
        assert np.array_equal(got.vector.terms[ks], t), ks


def test_solver_matches_breadth_first_solver_multi_letter():
    m = make_bisemicircular([ONE, ONE], [ONE])
    s1, s2, d1 = m.symbol("S1"), m.symbol("S2"), m.symbol("D1")
    u = m.combination_symbol("u", [(1.0, s1), (0.5, s2)], family="u")
    for target, ctx in (
        (s1, (d1,)),
        (u, (s1, d1)),
    ):
        got, resid = solve_conjugate(m, target, ONE, ctx, max_n=4)
        want = solve_conjugate_bfs(m, target, ONE, ctx, max_n=4)
        assert _max_diff(got.vector, want.vector) <= 1e-12
        assert resid <= 1e-9


def test_solver_fits_insertion_relations_at_d2():
    # At d=2 the test words carry matrix-unit insertions, as in the residual.
    flip = eta_flip()
    m = make_bisemicircular([flip], [])
    s = m.symbol("S1")
    cand, resid = solve_conjugate(m, s, flip, (), max_n=3)
    assert resid <= 1e-9
    assert _max_diff(cand.vector, m.vector_of(Monomial([s]))) <= 1e-9

