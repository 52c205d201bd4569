"""Conjugate variables, Fisher information, lifts, entropy."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    circular_presence,
    lift_expect_two_phase,
    lifted_presence,
    off_diagonal_tables,
)

import bifree.conjvar
from bifree.balgebra import CPMap, matrix_unit, maxabs, trace_d
from bifree.bnc import RIGHT, ChiWord, s_chi
from bifree.conjvar import (
    MatrixLift,
    VectorCandidate,
    WordCandidate,
    _gauss_legendre,
    _worst_residual,
    aaf_check,
    check_candidates,
    circular_candidates,
    circular_entropy_experiment,
    conj_residual,
    entropy_chi_star,
    eta_flip,
    fisher_info,
    fisher_minimization_experiment,
    h_closed_form,
    lifted_candidates,
    scaled_semicircular,
    semicircular_entropy_experiment,
    semicircular_perturbation,
    solve_conjugate,
)
from bifree.fock import FockModel, FockVector, make_bisemicircular, make_circular_pair
from bifree.words import GeneratorSymbol, Lb, Monomial, MomentFunctional, Rb

ONE = CPMap.identity(1)


# --- residual checks ---------------------------------------------------------------

def test_semicircular_conjugate_is_itself():
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    cand = VectorCandidate(s, m.vector_of(Monomial([s])), m)
    assert conj_residual(cand, ONE, (), 6) <= 1e-12


def test_zero_candidate_fails_at_first_relation():
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    cand = VectorCandidate(s, FockVector(1), m)
    r = conj_residual(cand, ONE, (), 2)
    assert abs(r - 1.0) < 1e-12  # tau(S S) = 1 is the first broken relation


def test_scaling_law():
    for lam in (0.5, 2.0):
        m = make_bisemicircular([ONE], [])
        s = m.symbol("S1")
        scaled = m.combination_symbol("scaled", [(lam, s)])
        cand = VectorCandidate(
            scaled, m.vector_of(Monomial([s])).scaled(1 / lam), m
        )
        assert conj_residual(cand, ONE, (), 6) <= 1e-12
        assert abs(fisher_info([cand]) - 1 / lam**2) < 1e-12


@pytest.mark.parametrize(
    "entry",
    [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(1.0, -0.0),
     complex(-0.0, -1.0), complex(1.5, -2.0), complex(math.nan, 1.0), complex(math.inf, -0.0),
     None],
    ids=repr,
)
def test_candidate_tau_matches_the_trace_bit_for_bit(entry):
    # At d=1 tau reads the depth-0 entry in place of the trace of depth0(),
    # with the same signed zeros; a state without a depth-0 part reads 0.
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    cand = VectorCandidate(s, FockVector(1, {} if entry is None else {(): [[entry]]}), m)
    state = cand.initial_state()
    want = complex(np.trace(state.depth0())) / 1
    assert repr(cand.tau(state)) == repr(want)


def test_uniqueness_up_to_orthogonal_part():
    # Two candidates passing the same relations differ by a state orthogonal
    # to every test word.
    model = make_bisemicircular([ONE, ONE], [])
    s1, s2 = model.symbol("S1"), model.symbol("S2")
    base = model.vector_of(Monomial([s1]))
    other = base + model.vector_of(Monomial([s2])).scaled(0.3)
    c1 = VectorCandidate(s1, base, model)
    c2 = VectorCandidate(s1, other, model)
    ctx = ()
    assert conj_residual(c1, ONE, ctx, 5) <= 1e-12
    assert conj_residual(c2, ONE, ctx, 5) <= 1e-12
    diff = other - base
    for k in range(0, 5):
        word = Monomial([s1] * k)
        # <diff, word vacuum> computed through the adjoint word action
        paired = model.apply_word(word.adjoint(), diff)
        assert abs(np.trace(paired.depth0())) < 1e-12


def test_projection_monotonicity():
    # Fisher information in a reduced presence context can only shrink.
    m = make_bisemicircular([ONE, ONE], [])
    s1, s2 = m.symbol("S1"), m.symbol("S2")
    u = m.combination_symbol("u", [(1.0, s1), (1.0, s2)], family="u")
    # full context: the extra generator s1 is present; conjugate is s2
    full = VectorCandidate(u, m.vector_of(Monomial([s2])), m)
    assert conj_residual(full, ONE, (s1,), 5) <= 1e-10
    # reduced context: scalar coefficients only; conjugate is u/2
    reduced = VectorCandidate(u, m.vector_of(Monomial([u])).scaled(0.5), m)
    assert conj_residual(reduced, ONE, (), 5) <= 1e-10
    assert fisher_info([reduced]) <= fisher_info([full]) + 1e-12
    assert abs(fisher_info([reduced]) - 0.5) < 1e-12
    assert abs(fisher_info([full]) - 1.0) < 1e-12
    # Cramer-Rao: equality at the bi-semicircular minimum, strict above it.
    tau_u2 = m.functional.tau(Monomial([u, u])).real
    assert fisher_info([reduced]) * tau_u2 >= 1.0 - 1e-9
    assert fisher_info([full]) * tau_u2 >= 1.0 + 0.5  # strictly above K^2 = 1


def test_two_sided_fisher_additivity():
    m = make_bisemicircular([ONE], [ONE])
    s, d = m.symbol("S1"), m.symbol("D1")
    cs = VectorCandidate(s, m.vector_of(Monomial([s])), m)
    cd = VectorCandidate(d, m.vector_of(Monomial([d])), m)
    assert conj_residual(cs, ONE, (d,), 5) <= 1e-10
    assert conj_residual(cd, ONE, (s,), 5) <= 1e-10
    assert abs(fisher_info([cs, cd]) - 2.0) < 1e-12
    assert fisher_info([cs, None]) == math.inf


def test_matrix_coefficient_insertions_in_relations():
    # d = 2 with flip covariance: the conjugate of S is S with eta = flip,
    # checked against words containing coefficient-basis insertions.
    flip = eta_flip()
    m = make_bisemicircular([flip], [flip])
    S, D = m.symbol("S1"), m.symbol("D1")
    cand = VectorCandidate(S, m.vector_of(Monomial([S])), m)
    r = conj_residual(cand, flip, (D,), 4)
    assert r <= 1e-10


def test_solver_recovers_semicircular_conjugate():
    m = make_bisemicircular([ONE], [])
    s = m.symbol("S1")
    cand, resid = solve_conjugate(m, s, ONE, (), max_n=4)
    assert resid <= 1e-9
    assert abs(fisher_info([cand]) - 1.0) < 1e-6


# --- matrix lift ----------------------------------------------------------------------

class TensorOracle:
    """Direct realization of lifted words on a d x d matrix of Fock states."""

    def __init__(self, base_model, d):
        self.model = base_model
        self.d = d

    def tau(self, factors, tables):
        d = self.d
        state = {
            (i, j): (
                FockVector.vacuum(self.model.dim)
                if i == j
                else FockVector(self.model.dim)
            )
            for i in range(1, d + 1)
            for j in range(1, d + 1)
        }
        for f in reversed(factors):
            table, side = tables[f]
            new = {}
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    acc = FockVector(self.model.dim)
                    for a in range(1, d + 1):
                        key = (i, a) if side == "l" else (a, j)
                        src = state[(a, j)] if side == "l" else state[(i, a)]
                        for coeff, word in table.get(key, ()):
                            acc = acc + self.model.apply_word(
                                Monomial(word), src
                            ).scaled(coeff)
                    new[(i, j)] = acc
            state = new
        total = sum(
            complex(np.trace(state[(i, i)].depth0())) for i in range(1, d + 1)
        )
        return total / d


def test_lifted_pair_keeps_one_scalar_functional():
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    lift = MatrixLift(cp, cl, cr)
    tau2 = lift.functional
    assert lift.functional is tau2
    tau2.tau(Monomial([lift.X, lift.X]))
    assert lift.functional._cache


def test_models_and_candidates_share_one_functional():
    # One moment functional per model and per lift, the same object on every
    # read, and the one that every candidate of the model or lift carries.
    m = make_bisemicircular([ONE], [ONE])
    assert m.functional is m.functional
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    cands = circular_candidates(cp, cl, cr)
    assert all(c.functional is cp.functional for c in cands)
    lifted = lifted_candidates(cp, cl, cr)
    assert lifted[0].functional is lifted[1].functional
    assert lifted[0].functional.dim == 1


def test_residual_after_solve_reads_the_filled_cache():
    # The solver verifies its result through the model's functional, so a
    # second check of the same relations finds every moment cached.
    m = make_bisemicircular([ONE, ONE], [ONE])
    s1, d1 = m.symbol("S1"), m.symbol("D1")
    ctx = (d1,)
    cand, resid = solve_conjugate(m, s1, ONE, ctx, max_n=4)
    assert cand.functional is m.functional
    cached = len(m.functional._cache)
    assert cached > 0
    assert conj_residual(cand, ONE, ctx, 4) == resid
    assert len(m.functional._cache) == cached


def test_candidates_derive_adjoints():
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    cls = next(s for s in cp.symbol_actions if s.name == "cl" and s.adjoint)
    assert cl.star() == cls and hash(cl.star()) == hash(cls)
    cands = circular_candidates(cp, cl, cr)
    assert [c.target for c in cands] == [cl, cl.star(), cr, cr.star()]
    # A carrier reads z* when it leaves index 2: Z Z reads tau(z z*) and
    # tau(z* z) on the diagonal, where z z would read tau(z z) = 0.
    lift = MatrixLift(cp, cl, cr)
    assert abs(cp.functional.tau(Monomial([cl, cl]))) < 1e-12
    for Z in (lift.X, lift.Y):
        assert maxabs(lift.expect(Monomial([Z, Z])) - np.eye(2)) < 1e-12


def test_presence_sets_are_the_other_targets(monkeypatch):
    # Each candidate of a system is checked among the other candidates'
    # targets, in system order: for every builder, the sets written out by
    # hand in the oracles (left generators first), and none for a system of
    # one candidate.
    seen = []

    def resid(xi, eta, others, max_n):
        seen.append(tuple(others))
        return 0.0

    monkeypatch.setattr(bifree.conjvar, "conj_residual", resid)
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    circular = circular_candidates(cp, cl, cr)
    lifted = lifted_candidates(cp, cl, cr)
    for cands, want in (
        (circular, circular_presence(cl, cr)),
        (lifted, lifted_presence(lifted)),
        (scaled_semicircular(2.0), [()]),
        (semicircular_perturbation()(0.5), [()]),
    ):
        seen.clear()
        assert _worst_residual(cands, 2) == 0.0
        assert seen == want


def test_circular_pair_cramer_rao_reads_k_squared():
    # The second moment of a target x is tau(x* x), 1 for each of z, z*, w
    # and w*, so the product is 4 * 4 = K^2 (tau(z z) would read 0).
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    rep = check_candidates(circular_candidates(cp, cl, cr), 4)
    assert abs(rep["cramer_rao_product"] - 16.0) <= 1e-12


def test_lift_parity_and_half_sum_formula():
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    lift = MatrixLift(cp, cl, cr)
    tau2 = lift.functional
    phi = cp.functional.tau
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(6):
            labels = ["l" if rng.integers(2) else "r" for _ in range(n)]
            word = [lift.X if lab == "l" else lift.Y for lab in labels]
            got = tau2.tau(Monomial(word))
            if n % 2:
                assert abs(got) < 1e-12
                continue
            chi = ChiWord(labels)
            order = s_chi(chi)
            pflags = [False] * n
            for rank, pos in enumerate(order, start=1):
                pflags[pos - 1] = rank % 2 == 0
            zp, zq = [], []
            for k in range(n):
                z = cl if labels[k] == "l" else cr
                zp.append(z.star() if pflags[k] else z)
                zq.append(z if pflags[k] else z.star())
            want = 0.5 * (phi(Monomial(zp)) + phi(Monomial(zq)))
            assert abs(got - want) < 1e-10


def test_lift_matches_tensor_oracle_d2():
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    lift = MatrixLift(cp, cl, cr)
    written = off_diagonal_tables(lift, cl, cr)
    tables = {lift.X: (written[lift.X], "l"), lift.Y: (written[lift.Y], "r")}
    oracle = TensorOracle(cp, 2)
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        for _ in range(4):
            word = [lift.X if rng.integers(2) else lift.Y for _ in range(n)]
            got = lift.functional.tau(Monomial(word))
            want = oracle.tau(word, tables)
            assert abs(got - want) < 1e-10


def test_lift_general_d_matches_tensor_oracle():
    # The two-phase expansion, the reference for the lift's closed form, is
    # itself checked at d = 3 against matrices of Fock states.
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    rng = np.random.default_rng(13)
    d = 3
    tables = {}
    for name, side, pool in (("A", "l", (cl, cl.star())), ("B", "r", (cr, cr.star()))):
        table = {}
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if rng.integers(2):
                    c = complex(rng.standard_normal(), rng.standard_normal())
                    table[(i, j)] = ((c, (pool[int(rng.integers(2))],)),)
        tables[GeneratorSymbol(name, side, family=name)] = (table, side)
    A, B = tables
    entries = {sym: table for sym, (table, _) in tables.items()}
    oracle = TensorOracle(cp, d)
    for n in range(1, 5):
        for _ in range(4):
            word = [A if rng.integers(2) else B for _ in range(n)]
            got = trace_d(lift_expect_two_phase(entries, d, cp.functional, Monomial(word)))
            want = oracle.tau(word, tables)
            assert abs(got - want) < 1e-9


# Scalars for lifted words: signed zeros (a zero ends an index chain), NaN,
# and values whose real or imaginary part is a signed zero.
_LIFT_SCALARS = (0.0, -0.0, math.nan, complex(math.nan, 0.0), complex(-0.0, 2.0),
                 complex(3.0, -0.0), complex(0.0, -1.5), -1.25)


def _same_bits(a, b):
    # Equal under np.array_equal, NaNs, zero signs and NaN payloads included.
    return np.array_equal(a, b, equal_nan=True) and a.tobytes() == b.tobytes()


def _lift_base(name):
    """A scalar model and the left/right pair that the lift tests read."""
    if name == "creation":
        # Creation operators: tau(a a*) = 0 and tau(a* a) = 1, so no global
        # swap of x and x* keeps the moments, as it does on circular pairs.
        m = make_bisemicircular([ONE], [ONE])
        a = m.register_symbol(GeneratorSymbol("a", "l"), [(1.0, ("l", "S1"))])
        b = m.register_symbol(GeneratorSymbol("b", "r"), [(1.0, ("r", "D1"))])
        return m, a, b
    cp = make_circular_pair(n_pairs=2)
    cl, cr, c2l, c2r = map(cp.symbol, ("cl", "cr", "cl2", "cr2"))
    if name == "circular":
        return cp, cl, cr
    # The entropy experiment's perturbed pair at t = 1.
    z = cp.combination_symbol("z[1.0]", [(1.0, cl), (1.0, c2l)], family="z")
    w = cp.combination_symbol("w[1.0]", [(1.0, cr), (1.0, c2r)], family="z")
    return cp, z, w


def test_lift_expect_matches_two_phase_oracle():
    # The closed form against the general expansion over the written-out
    # tables, bit for bit: the same base words, the same coefficient product
    # in position order and the same sums.
    for base in ("circular", "perturbed", "creation"):
        model, x, y = _lift_base(base)
        lift = MatrixLift(model, x, y)
        tables = off_diagonal_tables(lift, x, y)
        letters = list(tables)
        rng = np.random.default_rng(14)
        nonzero = nan = 0
        for _ in range(1200):
            word = []
            for _ in range(rng.integers(8)):
                if rng.integers(3):
                    word.append(letters[rng.integers(len(letters))])
                    continue
                if rng.integers(2):
                    v = _LIFT_SCALARS[rng.integers(len(_LIFT_SCALARS))]
                else:
                    v = complex(*rng.standard_normal(2))
                word.append((Lb, Rb)[rng.integers(2)](np.array([[v]], dtype=complex)))
            got = lift.expect(Monomial(word))
            want = lift_expect_two_phase(tables, 2, model.functional, Monomial(word))
            assert _same_bits(got, want), (base, word)
            nonzero += bool(np.nan_to_num(got).any())
            nan += bool(np.isnan(got).any())
        assert nonzero >= 300 and nan >= 20, base


def test_lift_coefficient_size():
    # A 1 x 1 coefficient acts as a multiple of the identity; any other size
    # is an error, not a cut to its top-left block.
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    lift = MatrixLift(cp, cl, cr)
    X = lift.X
    got = lift.expect(Monomial([X, Lb(np.array([[2.0]])), X]))
    assert maxabs(got - 2.0 * np.eye(2)) < 1e-12
    for size in (2, 3):
        with pytest.raises(ValueError):
            lift.expect(Monomial([X, Lb(np.arange(size * size).reshape(size, size)), X]))


def test_eta_flip_properties():
    fl = eta_flip()
    assert np.allclose(fl(np.eye(2)), np.eye(2))
    assert np.allclose(fl(matrix_unit(2, 1, 1)), matrix_unit(2, 2, 2))
    assert fl.is_positive()


# --- alternating adjoint flipping ------------------------------------------------------

def test_aaf_circular_pair_passes():
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    rep = aaf_check(cp.functional, cl, cr, 6)
    assert rep["pass"] and rep["max_discrepancy"] <= 1e-12


def test_aaf_bihaar_table_passes():
    # balanced moments 1, unbalanced 0
    def oracle(word):
        bal = {}
        for f in word.factors:
            bal[f.name] = bal.get(f.name, 0) + (-1 if f.adjoint else 1)
        return np.array([[1.0 if not any(bal.values()) else 0.0]], dtype=complex)

    F = MomentFunctional(oracle, 1)
    x = GeneratorSymbol("x", "l")
    y = GeneratorSymbol("y", "r")
    rep = aaf_check(F, x, y, 6)
    assert rep["pass"]


def test_aaf_violation_detected():
    def oracle(word):
        key = tuple((f.name, f.adjoint) for f in word.factors)
        if key == (("x", False), ("x", True)):
            return np.array([[1.0]], dtype=complex)
        if key == (("x", True), ("x", False)):
            return np.array([[2.0]], dtype=complex)
        return np.array([[0.0]], dtype=complex)

    F = MomentFunctional(oracle, 1)
    rep = aaf_check(F, GeneratorSymbol("x", "l"), GeneratorSymbol("y", "r"), 2)
    assert not rep["pass"]
    assert abs(rep["max_discrepancy"] - 1.0) < 1e-12


def test_aaf_nan_moment_fails():
    # The violation oracle with NaN for x x*: the NaN discrepancy is the
    # maximum, and the worst case names the word pair (x x*, x* x).
    def oracle(word):
        key = tuple((f.name, f.adjoint) for f in word.factors)
        if key == (("x", False), ("x", True)):
            return np.array([[math.nan]], dtype=complex)
        if key == (("x", True), ("x", False)):
            return np.array([[2.0]], dtype=complex)
        return np.array([[0.0]], dtype=complex)

    F = MomentFunctional(oracle, 1)
    rep = aaf_check(F, GeneratorSymbol("x", "l"), GeneratorSymbol("y", "r"), 2)
    assert not rep["pass"]
    assert math.isnan(rep["max_discrepancy"])
    case = rep["worst_case"]
    assert (case["n"], case["chi"]) == (2, "ll") and math.isnan(case["discrepancy"])


@pytest.mark.parametrize("max_n", [-1, 0, 1, 9])
def test_aaf_max_n_bounds(max_n):
    # Below 2 no word pair would be tested, and the check must not pass
    # vacuously; above 8 is the cap.
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    with pytest.raises(ValueError, match="2..8"):
        aaf_check(cp.functional, cl, cr, max_n)


# --- closed forms and entropy -----------------------------------------------------------

def test_h_closed_form_values():
    assert h_closed_form(0.0, 1.0, 1.0) == 1.0
    assert h_closed_form(1.0, 1.0, 1.0) == 0.5
    assert h_closed_form(0.0, 2.0, 2.0) == 2.0
    with pytest.raises(ZeroDivisionError):
        h_closed_form(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        h_closed_form(-1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "t, K1, K2", [(math.nan, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, 1.0, math.nan),
                  (0.0, 1.0, math.inf), (math.inf, 1.0, 1.0), (0.0, math.inf, 1.0)]
)
def test_h_closed_form_rejects_non_finite_input(t, K1, K2):
    with pytest.raises(ValueError, match="finite"):
        h_closed_form(t, K1, K2)


@pytest.mark.parametrize("K", [math.nan, -1.0, 0.0, math.inf, -math.inf])
def test_entropy_rejects_k_not_positive_and_finite(K):
    with pytest.raises(ValueError, match="K must be positive and finite"):
        entropy_chi_star(lambda t: 1.0 / (1.0 + t), K=K)


def test_entropy_quadrature_closed_form():
    rep = entropy_chi_star(lambda t: 1.0 / (1.0 + t), K=1.0)
    want = 0.5 * math.log(2 * math.pi * math.e)
    assert rep["nodes"] == 96
    assert rep["max_integrand_abs"] <= 1e-12
    assert abs(rep["value"] - want) <= rep["bracket_width"] + 1e-9
    assert rep["bracket"][0] - 1e-12 <= want <= rep["bracket"][1] + 1e-12
    assert rep["bracket"] == [
        rep["value"] - rep["bracket_width"], rep["value"] + rep["bracket_width"]
    ]


def test_entropy_rejects_nonfinite_fisher():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            entropy_chi_star(lambda t: bad, K=1.0)


def test_entropy_max_bound_equality_case():
    # Variance-matched semicircular family of total covariance K: the value
    # meets the maximum-entropy bound (K/2) log(2 pi e).
    K = 2.0
    rep = entropy_chi_star(lambda t: K * K / (K + K * t), K=K)
    want = 0.5 * K * math.log(2 * math.pi * math.e)
    assert abs(rep["value"] - want) <= rep["bracket_width"] + 1e-9


def test_gauss_legendre_nodes_match_numpy():
    from numpy.polynomial.legendre import leggauss

    for n in (16, 32):
        x, w = _gauss_legendre(n)
        ref_x, ref_w = leggauss(n)
        assert np.max(np.abs(x - 0.5 * (ref_x + 1.0))) <= 4e-15
        assert np.max(np.abs(w - 0.5 * ref_w)) <= 4e-15


def test_entropy_evaluates_fisher_at_96_finite_times():
    # 48 nodes in (0, 1) and 48 in (1, inf), each evaluated once; t = inf never.
    seen = []
    entropy_chi_star(lambda t: seen.append(t) or 1.0 / (1.0 + t), K=1.0)
    assert len(seen) == len(set(seen)) == 96
    assert sum(0.0 < t < 1.0 for t in seen) == 48
    assert sum(1.0 < t < math.inf for t in seen) == 48


@example(1.0, 1.0)
@example(0.75, 0.25)
@example(0.9, 0.1)
@example(0.99, 0.01)
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_entropy_error_estimate_covers_the_error(a2, b2):
    # Phi(t) = 1/(a2+t) + 1/(b2+t) is the Fisher curve of a pair of
    # semicircular elements of variances a2 and b2: K = 2, chi = log(2 pi e ab).
    rep = entropy_chi_star(lambda t: 1.0 / (a2 + t) + 1.0 / (b2 + t), K=2.0)
    exact = math.log(2.0 * math.pi * math.e * math.sqrt(a2 * b2))
    assert abs(rep["value"] - exact) <= rep["bracket_width"] + 1e-14


# --- experiments ------------------------------------------------------------------------

def test_fisher_minimization_residual_fold_keeps_nan(monkeypatch):
    # Only the last candidate of the lifted side (the carrier Y) gives NaN:
    # ``max`` would drop it in each side's fold and in the fold of the sides.
    def resid(xi, *args):
        return math.nan if isinstance(xi, WordCandidate) and xi.target.side == RIGHT else 0.0

    monkeypatch.setattr(bifree.conjvar, "conj_residual", resid)
    rep = fisher_minimization_experiment(max_n=2)
    assert math.isnan(rep["max_residual"]) and rep["pass"] is False


def test_fisher_minimization_quick():
    rep = fisher_minimization_experiment(max_n=4)
    assert rep["pass"]
    assert abs(rep["lhs"] - 4.0) < 1e-9
    assert abs(rep["rhs"] - 2.0) < 1e-9
    assert abs(rep["ratio"] - 2.0) < 1e-9
    assert abs(rep["cramer_rao_product"] - 4.0) < 1e-9


def test_semicircular_entropy_quick():
    rep = semicircular_entropy_experiment()
    assert rep["pass"]
    assert rep["max_integrand_abs"] <= 1e-9
    assert abs(rep["value"] - 0.5 * math.log(2 * math.pi * math.e)) <= 1e-3


def test_circular_entropy_registers_each_node_once(monkeypatch):
    # The pair curve and the lift curve read the same 96 nodes and 2 spots,
    # and each of the 98 times registers its two perturbed symbols once, each
    # with its adjoint: 196 plus the two-pair model's 12.  408 when every
    # adjoint was registered by hand (392 plus 16); 800 when each curve
    # registered its own, the second time as a check that the tables are equal.
    calls = []
    register_symbol = FockModel.register_symbol

    def counted(self, sym, *args, **kwargs):
        calls.append(sym)
        return register_symbol(self, sym, *args, **kwargs)

    monkeypatch.setattr(FockModel, "register_symbol", counted)
    circular_entropy_experiment()
    assert len(calls) == 208


# --- the large-t half of the entropy curves ----------------------------------------------
# Panel B of ``entropy_chi_star`` reads candidates at t = 1/eps^2, up to about
# 5.3e5, where a length-6 moment of u[t] is of order t^3 and a plain residual
# reads roundoff of that size.  The conjugate variable of eps*x is xi/eps, and
# at t = 1/eps^2 the target eps*u[t] = eps*S1 + S2 has bounded moments, so
# each node is checked there.

def _panel_b_nodes(*sizes):
    return [float(eps) for n in sizes for eps in _gauss_legendre(n)[0]]


def _rescaled(cands, targets, eps, factor=1.0):
    """The vector candidates times ``factor/eps``, for the targets eps*x."""
    return [
        VectorCandidate(x, c.vector.scaled(factor / eps), c.model)
        for c, x in zip(cands, targets)
    ]


def _scaled_target(model, x, eps):
    return model.combination_symbol(f"{eps!r}*{x.name}", [(eps, x)])


def test_semicircular_candidates_hold_at_every_panel_b_node():
    family = semicircular_perturbation()
    nodes = _panel_b_nodes(16, 32)
    assert len(nodes) == 48
    for eps in nodes:
        (cand,) = family(1.0 / (eps * eps))
        target = _scaled_target(cand.model, cand.target, eps)
        assert _worst_residual(_rescaled([cand], [target], eps), 6) <= 1e-9, eps
        assert _worst_residual(_rescaled([cand], [target], eps, 1.5), 6) > 1e-9, eps


def test_circular_pair_and_lift_candidates_hold_at_every_panel_b_node():
    # The pair as ``circular_entropy_experiment`` perturbs it; the lift of
    # (eps z, eps w) carries eps X and eps Y, whose conjugate variables are
    # X/((1 + t) eps) = (eps X)/((1 + t) eps^2), and likewise for Y.
    model = make_circular_pair(n_pairs=2)
    cl, cr, c2l, c2r = map(model.symbol, ("cl", "cr", "cl2", "cr2"))
    for eps in _panel_b_nodes(16):
        t = 1.0 / (eps * eps)
        rt = math.sqrt(t)
        z = model.combination_symbol(f"z[{t!r}]", [(1.0, cl), (rt, c2l)], family="z")
        w = model.combination_symbol(f"w[{t!r}]", [(1.0, cr), (rt, c2r)], family="z")
        ez, ew = _scaled_target(model, z, eps), _scaled_target(model, w, eps)
        pair = circular_candidates(model, z, w, scale=1.0 / (1.0 + t))
        targets = [ez, ez.star(), ew, ew.star()]
        lift_scale = 1.0 / ((1.0 + t) * eps * eps)
        resid = {
            factor: (
                _worst_residual(_rescaled(pair, targets, eps, factor), 4),
                _worst_residual(lifted_candidates(model, ez, ew, factor * lift_scale), 4),
            )
            for factor in (1.0, 1.5)
        }
        assert max(resid[1.0]) <= 1e-9 and min(resid[1.5]) > 1e-9, (eps, resid)
