"""Fock-space models: exact word actions, expectations, pairings."""

import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    CIRCULAR_PAIRS_2,
    apply_symbol_by_factors,
    circular_letters,
    contract_by_kraus,
    inner_B_by_einsum,
    word_norm_sq,
)

from bifree.balgebra import CPMap, maxabs, random_belement, random_cpmap
from bifree.bnc import ChiWord, enumerate_bnc, one_partition
from bifree.conjvar import eta_flip
from bifree.fock import (
    FockModel,
    FockVector,
    TruncationError,
    bisemicircular_from_json,
    make_bisemicircular,
    make_circular_pair,
    make_standard_semicircular,
)
from bifree.moments import cumulant_pi, moments_from_cumulants
from bifree.words import GeneratorSymbol, Lb, Monomial, Rb


def _psd_cpmap(rng, d=2, n=2):
    # Kraus maps are automatically CP; keep entries moderate.
    return CPMap([random_belement(d, rng) / (2.0 * d) for _ in range(n)])


def test_creation_on_vacuum():
    m = make_standard_semicircular()
    v = m.apply_factor(("l", "S1"), FockVector.vacuum(1))
    assert set(v.terms) == {("S1",)}
    assert v.terms[("S1",)] == 1.0


def test_annihilation_kills_vacuum():
    m = make_standard_semicircular(1, 1)
    assert not m.apply_factor(("l*", "S1"), FockVector.vacuum(1)).terms
    assert not m.apply_factor(("r*", "D1"), FockVector.vacuum(1)).terms


def test_left_annihilation_display_formula():
    rng = np.random.default_rng(0)
    eta = _psd_cpmap(rng)
    m = make_bisemicircular([eta], [])
    b0, b1 = random_belement(2, rng), random_belement(2, rng)
    # build b0 Z b1 then annihilate: expect eta(b0) @ b1 at depth 0
    v = FockVector.vacuum(2)
    v = m.apply_factor(("Rb", b1), v)
    v = m.apply_factor(("l", "S1"), v)
    v = m.apply_factor(("Lb", b0), v)
    out = m.apply_factor(("l*", "S1"), v)
    assert maxabs(out.depth0() - eta(b0) @ b1) < 1e-12


def test_scalar_semicircular_moments_exact():
    m = make_standard_semicircular()
    s = m.symbol("S1")
    for k, want in ((1, 0), (2, 1), (3, 0), (4, 2), (6, 5), (8, 14)):
        got = m.functional.expect(Monomial([s] * k))[0, 0]
        assert abs(got - want) <= 1e-12


def test_truncation_independence_and_error():
    for pad in (0, 2, 5):
        m = make_bisemicircular([CPMap.identity(1)], [], max_depth=4 + pad)
        s = m.symbol("S1")
        got = m.functional.expect(Monomial([s] * 4))[0, 0]
        assert abs(got - 2.0) <= 1e-15
    tight = make_bisemicircular([CPMap.identity(1)], [], max_depth=2)
    s = tight.symbol("S1")
    with pytest.raises(TruncationError):
        tight.functional.expect(Monomial([s] * 6))


def test_unknown_index_rejected():
    m = make_standard_semicircular()
    with pytest.raises(KeyError):
        m.apply_factor(("l", "nope"), FockVector.vacuum(1))


def test_left_creation_annihilation_adjoint_under_pairing():
    rng = np.random.default_rng(1)
    eta = _psd_cpmap(rng)
    model = make_bisemicircular([eta], [eta])
    s = model.symbol("S1")
    d = model.symbol("D1")
    # random vectors built from words keep us inside the reachable space
    words = [
        Monomial([s]),
        Monomial([s, s]),
        Monomial([d, s]),
        Monomial([s, Lb(random_belement(2, rng)), s]),
    ]
    vecs = [model.vector_of(w) for w in words]
    for u in vecs:
        for v in vecs:
            lu = model.apply_factor(("l", "S1"), u)
            lv = model.apply_factor(("l*", "S1"), v)
            assert abs(model.inner(lu, v) - model.inner(u, lv)) < 1e-10


def test_right_adjointness_scalar_and_trace_norm():
    # Over scalar coefficients the pairing is the full GNS geometry, so the
    # right pair is adjoint too; for matrix coefficients the trace route and
    # the pairing agree on left-generated states.
    model = make_standard_semicircular(1, 1)
    s, d = model.symbol("S1"), model.symbol("D1")
    vecs = [model.vector_of(w) for w in (Monomial([s]), Monomial([d, s]), Monomial([d, d]))]
    for u in vecs:
        for v in vecs:
            ru = model.apply_factor(("r", "D1"), u)
            rv = model.apply_factor(("r*", "D1"), v)
            assert abs(model.inner(ru, v) - model.inner(u, rv)) < 1e-10
    rng = np.random.default_rng(8)
    m2 = make_bisemicircular([_psd_cpmap(rng)], [])
    s2 = m2.symbol("S1")
    for w in (Monomial([s2]), Monomial([s2, Lb(random_belement(2, rng)), s2])):
        assert abs(m2.norm_sq(m2.vector_of(w)) - word_norm_sq(m2, w)) < 1e-10


def _trace_symmetric_cpmap(rng, d=2):
    v = random_belement(d, rng) / (2.0 * d)
    return CPMap([v, v.conj().T])


def _norm_sq_models(rng):
    """(name, model, symbols) at d = 2: non-symmetric maps, trace-symmetric
    ones, the flip, and a right symbol acting on a left index under either
    kind of map."""
    out = []
    for name, maps in (
        ("random", ([random_cpmap(2, rng)], [random_cpmap(2, rng)])),
        ("symmetric", ([_trace_symmetric_cpmap(rng)] * 2, [_trace_symmetric_cpmap(rng)])),
        ("flip", ([eta_flip()], [eta_flip()])),
    ):
        m = make_bisemicircular(*maps)
        out.append((name, m, m.symbols))
    for name, draw in (
        ("right-on-left", lambda: random_cpmap(2, rng)),
        ("symmetric-right-on-left", lambda: _trace_symmetric_cpmap(rng)),
    ):
        fm = FockModel(2, ("k",), ("j",), {"k": draw(), "j": draw()})
        A = fm.register_symbol(
            GeneratorSymbol("A", "l"), [(1.0, ("l", "k")), (1.0, ("l*", "k"))]
        )
        B = fm.register_symbol(
            GeneratorSymbol("B", "r"), [(1.0, ("r", "k")), (1.0, ("r*", "k"))]
        )
        out.append((name, fm, (A, B)))
    return out


def test_norm_sq_is_trace_norm_or_raises():
    # The pairing contracts from the left.  At d = 2 under maps that are not
    # trace-symmetric it is not tau(w* w) for right-side structure: with
    # the maps below, D1 Rb(b) read 3.1705 against 4.2437 and S1 D1 2.2982
    # against 1.8970, so those states raise.  Every state that is allowed
    # equals the trace norm within 1e-12 relative, a right symbol on a
    # left index included.
    rng = np.random.default_rng(5)
    m = make_bisemicircular([random_cpmap(2, rng)], [random_cpmap(2, rng)])
    S, D = m.symbol("S1"), m.symbol("D1")
    b = np.array([[1.0, 2.0], [0.0, 1.0]])
    for w in (Monomial([D, Rb(b)]), Monomial([S, D]), Monomial([D])):
        with pytest.raises(ValueError, match="trace-symmetric"):
            m.norm_sq(m.vector_of(w))
    w = Monomial([S, Lb(b)])
    want = word_norm_sq(m, w)
    assert abs(m.norm_sq(m.vector_of(w)) - want) <= 1e-12 * max(1.0, want)
    allowed = {}
    for name, model, symbols in _norm_sq_models(np.random.default_rng(51)):
        allowed[name] = 0
        for _ in range(150):
            w = []
            for _ in range(int(rng.integers(1, 5))):
                s = symbols[rng.integers(len(symbols))]
                w.append(s)
                if rng.integers(3) == 0:
                    w.append((Lb if s.side == "l" else Rb)(random_belement(2, rng)))
            w = Monomial(w)
            try:
                got = model.norm_sq(model.vector_of(w))
            except ValueError:
                continue
            want = word_norm_sq(model, w)
            assert abs(got - want) <= 1e-12 * max(1.0, want), (name, w)
            allowed[name] += 1
    for name in ("symmetric", "flip", "symmetric-right-on-left"):
        assert allowed[name] == 150
    assert 0 < allowed["random"] < 150 and allowed["right-on-left"] == 0


def test_norm_sq_guard_sees_right_factors_applied_alone():
    # A right factor applied through ``apply_factor`` on a left index builds
    # the states of a registered right symbol on that index, whose norms
    # the left-contracted pairing gets wrong under these maps: from then on
    # a state on that index raises, as one on a right index does.
    rng = np.random.default_rng(53)
    fm = FockModel(2, ("k",), ("j",), {"k": random_cpmap(2, rng), "j": random_cpmap(2, rng)})
    u = fm.apply_factor(("l", "k"), FockVector.vacuum(2))
    assert fm.norm_sq(u) > 0
    v = fm.apply_factor(("r*", "k"), fm.apply_factor(("r", "k"), u))
    for state in (u, v):
        with pytest.raises(ValueError, match="trace-symmetric"):
            fm.norm_sq(state)
    flip = FockModel(2, ("k",), ("j",), {"k": eta_flip(), "j": eta_flip()})
    w = flip.apply_factor(("r", "k"), flip.apply_factor(("l", "k"), FockVector.vacuum(2)))
    assert flip.norm_sq(w) > 0


def test_norm_sq_at_d1_never_raises():
    # Over scalars the pairing is the full GNS geometry under any map.
    rng = np.random.default_rng(52)
    m = make_bisemicircular([CPMap([[[0.7]]])], [CPMap([[[1.3]]])])
    S, D = m.symbol("S1"), m.symbol("D1")
    for _ in range(50):
        w = Monomial([(S, D)[i] for i in rng.integers(2, size=int(rng.integers(1, 6)))])
        want = word_norm_sq(m, w)
        assert abs(m.norm_sq(m.vector_of(w)) - want) <= 1e-12 * max(1.0, want)


def test_left_right_commutation():
    rng = np.random.default_rng(2)
    eta = _psd_cpmap(rng)
    m = make_bisemicircular([eta], [eta])
    s, d = m.symbol("S1"), m.symbol("D1")
    vectors = [
        FockVector.vacuum(2),
        m.vector_of(Monomial([s, d])),
        m.vector_of(Monomial([d, s])),
    ]
    for v in vectors:
        sd = m.apply_symbol(d, m.apply_symbol(s, v))
        ds = m.apply_symbol(s, m.apply_symbol(d, v))
        diff = sd - ds
        assert all(maxabs(np.asarray(t)) < 1e-12 for t in diff.terms.values())


def test_moments_match_cumulant_table():
    # moments via direct expectation vs summing the cumulant table; cumulants
    # vanish off pair partitions, matching the central-limit law.
    rng = np.random.default_rng(3)
    eta = _psd_cpmap(rng)
    m = make_bisemicircular([eta], [eta])
    s, d = m.symbol("S1"), m.symbol("D1")
    for word_bits in (0b0, 0b01, 0b0101, 0b0011, 0b101010):
        n = max(2, word_bits.bit_length())
        word = [s if (word_bits >> i) & 1 else d for i in range(n)]
        chi = ChiWord([w.side for w in word])
        ops = [Monomial([w]) for w in word]
        table = {}
        for sigma in enumerate_bnc(chi):
            k = cumulant_pi(m.functional, sigma, ops)
            table[sigma] = k
            if any(len(b) != 2 for b in sigma.blocks):
                assert maxabs(k) < 1e-9, (sigma.blocks, k)
        total = moments_from_cumulants(table, one_partition(chi))
        direct = m.functional.expect(Monomial(word))
        assert maxabs(total - direct) < 1e-9


def test_bisemicircular_requires_matching_dims():
    with pytest.raises(ValueError):
        make_bisemicircular([CPMap.identity(1)], [CPMap.identity(2)])


def test_circular_pair_moments():
    cp = make_circular_pair()
    cl = cp.symbol("cl")
    cls = cl.star()
    phi = lambda *w: cp.functional.expect(Monomial(list(w)))[0, 0]
    assert abs(phi(cls, cl) - 1) < 1e-12
    assert abs(phi(cl, cl)) < 1e-12
    assert abs(phi(cls, cls)) < 1e-12
    assert abs(phi(cl, cls, cl, cls) - 2) < 1e-12
    # order-2 cumulants of the pair itself vanish (only mixed-adjoint survive)
    F = cp.functional
    chi = ChiWord("ll")
    k = cumulant_pi(F, one_partition(chi), [Monomial([cl]), Monomial([cl])])
    assert maxabs(k) < 1e-12
    k = cumulant_pi(F, one_partition(chi), [Monomial([cls]), Monomial([cls])])
    assert maxabs(k) < 1e-12
    k = cumulant_pi(F, one_partition(chi), [Monomial([cl]), Monomial([cls])])
    assert abs(k[0, 0] - 1) < 1e-12


@pytest.mark.parametrize("n_pairs", [0, -1])
def test_circular_pair_needs_a_pair(n_pairs):
    with pytest.raises(ValueError, match="n_pairs"):
        make_circular_pair(n_pairs)


def test_circular_pair_symbol_table():
    # Eight semicircular generators, each with its adjoint, then the
    # combination symbols of the two pairs, exactly as written out.
    model = make_circular_pair(2)
    semis = [
        GeneratorSymbol(k, side, adjoint, k)
        for side, base in (("l", "S"), ("r", "D"))
        for k in (f"{base}{i}" for i in range(1, 5))
        for adjoint in (False, True)
    ]
    table = [GeneratorSymbol(name, side, adj, fam) for name, side, adj, fam, _ in CIRCULAR_PAIRS_2]
    assert list(model.symbol_actions) == semis + table
    for sym, (*_, action) in zip(table, CIRCULAR_PAIRS_2):
        assert model.symbol_actions[sym] == action, sym
    assert circular_letters(model, 2) == table
    assert model.symbols == tuple(semis[::2]) + tuple(table[::2])


def test_symbols_are_the_registered_generators_without_adjoints():
    one = CPMap.identity(1)
    model = make_bisemicircular([one, one], [one, one])
    want = [GeneratorSymbol(k, "l") for k in ("S1", "S2")]
    want += [GeneratorSymbol(k, "r") for k in ("D1", "D2")]
    assert list(model.symbols) == want
    assert [model.symbol(s.name) for s in want] == want
    # A combination registers its adjoint alongside; symbols and symbol()
    # leave the adjoint out.
    u = model.combination_symbol("u", [(1.0, want[0])])
    assert u.star() in model.symbol_actions and not u.adjoint
    assert model.symbols == (*want, u)
    assert model.symbol("u") == u


@pytest.mark.parametrize("d", [1, 2])
def test_model_json_round_trip_keeps_every_map(d):
    rng = np.random.default_rng(40 + d)
    maps = [random_cpmap(d, rng) for _ in range(3)]
    m = make_bisemicircular(maps[:2], maps[2:], max_depth=5)
    obj = json.loads(json.dumps(m.to_json()))
    assert obj["d"] == d and len(obj["left"]) == 2 and len(obj["right"]) == 1
    m2 = bisemicircular_from_json(obj, max_depth=5)
    assert m2.to_json() == m.to_json()
    assert m2.symbols == m.symbols and m2.max_depth == 5
    for k, eta in m.covariances.items():
        assert np.array_equal(m2.covariances[k].kraus, eta.kraus), k


def test_expectation_compatible_with_coefficients():
    # E(L_{b1} R_{b2} a) = b1 E(a) b2 on sampled words.
    rng = np.random.default_rng(9)
    m = make_bisemicircular([_psd_cpmap(rng)], [_psd_cpmap(rng)])
    s, d = m.symbol("S1"), m.symbol("D1")
    for w in (Monomial([s, s]), Monomial([s, d]), Monomial([d, s, s, d])):
        b1, b2 = random_belement(2, rng), random_belement(2, rng)
        lhs = m.functional.expect(Monomial([Lb(b1), Rb(b2)]) * w)
        rhs = b1 @ m.functional.expect(w) @ b2
        assert maxabs(lhs - rhs) < 1e-10
        # trailing left and right copies of the same coefficient agree
        la = m.functional.expect(w * Lb(b1))
        ra = m.functional.expect(w * Rb(b1))
        assert maxabs(la - ra) < 1e-10


def test_model_json_round_trip():
    rng = np.random.default_rng(4)
    m = make_bisemicircular([_psd_cpmap(rng)], [_psd_cpmap(rng)])
    m2 = bisemicircular_from_json(json.loads(json.dumps(m.to_json())))
    s1, d1 = m.symbol("S1"), m.symbol("D1")
    t1, e1 = m2.symbol("S1"), m2.symbol("D1")
    w = Monomial([s1, d1, s1, d1])
    w2 = Monomial([t1, e1, t1, e1])
    assert maxabs(m.functional.expect(w) - m2.functional.expect(w2)) < 1e-12


def test_model_file_dimension_must_match_its_maps():
    rng = np.random.default_rng(6)
    spec = make_bisemicircular([_psd_cpmap(rng)], []).to_json()
    assert bisemicircular_from_json(spec).to_json() == spec
    del spec["d"]
    assert bisemicircular_from_json(spec).dim == 2
    spec["d"] = 3
    with pytest.raises(ValueError, match="d=3"):
        bisemicircular_from_json(spec)


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
def test_model_file_d_must_be_an_int(bad):
    spec = make_bisemicircular([_psd_cpmap(np.random.default_rng(6))], []).to_json()
    with pytest.raises(ValueError, match='field "d"'):
        bisemicircular_from_json({**spec, "d": bad})


def test_registered_symbol_validation():
    fm = FockModel(1, ("a",), (), {"a": CPMap.identity(1)})
    with pytest.raises(ValueError):
        fm.register_symbol(GeneratorSymbol("bad", "l"), [(1.0, ("nope", "a"))])
    with pytest.raises(KeyError):
        fm.register_symbol(GeneratorSymbol("bad", "l"), [(1.0, ("l", "zz"))])


def test_rebinding_a_symbol_to_another_action_rejected():
    m = make_standard_semicircular()
    s = m.symbol("S1")
    target = m.combination_symbol("target", [(2.0, s)])
    tt = Monomial([target, target])
    assert m.functional.expect(tt)[0, 0] == 4.0
    # The same action again is a no-op; another one would leave the cached
    # moment stale.
    assert m.combination_symbol("target", [(2.0, s)]) == target
    with pytest.raises(ValueError, match="another action"):
        m.combination_symbol("target", [(3.0, s)])
    assert m.functional.expect(tt)[0, 0] == 4.0
    assert m.norm_sq(m.vector_of(Monomial([target]))) == 4.0
    with pytest.raises(ValueError, match="another action"):
        m.register_symbol(s.star(), [(1.0, ("l", "S1"))])


def test_model_and_lift_freed_without_the_cycle_collector():
    from bifree.conjvar import MatrixLift

    gc.disable()
    try:
        m = make_standard_semicircular()
        s = m.symbol("S1")
        F = m.functional
        assert F.expect(Monomial([s, s]))[0, 0] == 1.0
        model = weakref.ref(m)
        del m
        assert model() is None
        # The functional keeps what its oracle reads.
        assert F.expect(Monomial([s] * 4))[0, 0] == 2.0
        pair = make_bisemicircular([CPMap.identity(1)], [CPMap.identity(1)])
        lift = MatrixLift(pair, pair.symbol("S1"), pair.symbol("D1"))
        x = lift.X
        G = lift.functional
        G.expect(Monomial([x, x.star()]))
        ref, base = weakref.ref(lift), weakref.ref(pair)
        del lift, pair
        assert ref() is None
        # The lift's functional still answers, a word it has not read too.
        assert G.tau(Monomial([x, x.star()])) == 1.0
        assert G.tau(Monomial([x] * 4)) == 2.0
        del G
        assert base() is None
    finally:
        gc.enable()


# --- one action path for both arithmetics -----------------------------------

def test_wrong_size_coefficient_rejected_at_every_dimension():
    m1 = make_standard_semicircular()
    s = m1.symbol("S1")
    with pytest.raises(ValueError):
        m1.functional.expect(Monomial([s, Lb([[3, 1], [1, 5]]), s]))
    m2 = make_bisemicircular([CPMap.identity(2)], [])
    s2 = m2.symbol("S1")
    with pytest.raises(ValueError):
        m2.functional.expect(Monomial([s2, Lb(np.eye(3)), s2]))
    with pytest.raises(ValueError):
        m2.functional.expect(Monomial([s2, Rb([[3]]), s2]))


def test_wrong_shape_component_rejected_at_every_dimension():
    with pytest.raises(ValueError):
        FockVector(1, {(): [[3, 1], [1, 5]]})
    with pytest.raises(ValueError):
        FockVector(1, {("k",): [[1]]})
    with pytest.raises(ValueError):
        FockVector(2, {(): np.eye(3)})
    assert FockVector(1, {(): [[3]]}).terms == {(): 3 + 0j}


def test_one_covariance_per_index_required():
    one = CPMap.identity(1)
    with pytest.raises(ValueError):
        FockModel(1, ("a", "b"), (), {"a": one})
    with pytest.raises(ValueError):
        FockModel(1, ("a",), (), {"a": one, "b": one})
    with pytest.raises(ValueError):
        FockModel(2, ("a",), (), {"a": one})


def test_matrix_arithmetic_on_scalar_multiples_matches_scalar_arithmetic():
    # Covariance c id has Kraus form sqrt(c) I at every d; on words whose
    # coefficients are multiples of I the d=2 model is the d=1 model times I.
    cl, cr = 0.7, 1.3
    m1 = make_bisemicircular([CPMap([[[math.sqrt(cl)]]])], [CPMap([[[math.sqrt(cr)]]])])
    m2 = make_bisemicircular(
        [CPMap([math.sqrt(cl) * np.eye(2)])], [CPMap([math.sqrt(cr) * np.eye(2)])]
    )
    rng = np.random.default_rng(30)
    scalars = [0.5 - 0.25j, -1.5, 2j]
    for _ in range(120):
        n = int(rng.integers(1, 9))
        w1, w2 = [], []
        for _ in range(n):
            pick = int(rng.integers(2 + 2 * len(scalars)))
            if pick < 2:
                name = ("S1", "D1")[pick]
                w1.append(m1.symbol(name))
                w2.append(m2.symbol(name))
            else:
                side = (Lb, Rb)[pick % 2]
                z = scalars[(pick - 2) // 2]
                w1.append(side([[z]]))
                w2.append(side(z * np.eye(2)))
        w1, w2 = Monomial(w1), Monomial(w2)
        e1 = m1.expectation(w1)[0, 0]
        assert maxabs(m2.expectation(w2) - e1 * np.eye(2)) < 1e-12
        n1 = m1.norm_sq(m1.vector_of(w1))
        assert abs(m2.norm_sq(m2.vector_of(w2)) - n1) < 1e-12


def _seeded_states(model, alphabet, rng, count):
    for _ in range(count):
        vec = FockVector(model.dim)
        for _ in range(3):
            n = int(rng.integers(0, 5))
            word = Monomial([alphabet[i] for i in rng.integers(len(alphabet), size=n)])
            c = complex(rng.standard_normal(), rng.standard_normal())
            vec = vec + model.vector_of(word).scaled(c)
        yield vec.prune()


def _assert_same_state(got, want):
    assert got.terms.keys() == want.terms.keys()
    for ks, t in want.terms.items():
        assert np.array_equal(got.terms[ks], t), ks


@pytest.mark.parametrize("keep", [None, 0, 1, 2])
def test_one_pass_action_matches_factor_by_factor_scalar(keep):
    model = make_circular_pair()
    rng = np.random.default_rng(31)
    alphabet = circular_letters(model) + [Lb([[0.5 - 0.25j]]), Rb([[1.5j]])]
    for vec in _seeded_states(model, alphabet, rng, 12):
        for f in alphabet:
            got = model.apply_symbol(f, vec, keep)
            _assert_same_state(got, apply_symbol_by_factors(model, f, vec, keep))


@pytest.mark.parametrize("keep", [None, 0, 1, 2])
def test_one_pass_action_matches_factor_by_factor_matrix(keep):
    rng = np.random.default_rng(32)
    model = make_bisemicircular([_psd_cpmap(rng), _psd_cpmap(rng)], [_psd_cpmap(rng)])
    s1, s2, d1 = model.symbol("S1"), model.symbol("S2"), model.symbol("D1")
    u = model.combination_symbol("u", [(0.3 + 0.2j, s1), (-1.1, s2)])
    v = model.combination_symbol("v", [(-0.7j, d1)])
    alphabet = [s1, s2, d1, u, v, Lb(random_belement(2, rng)), Rb(random_belement(2, rng))]
    for vec in _seeded_states(model, alphabet, rng, 6):
        for f in alphabet:
            got = model.apply_symbol(f, vec, keep)
            _assert_same_state(got, apply_symbol_by_factors(model, f, vec, keep))


def _scalar_model_with_combinations():
    # Scalar covariances 1.69, 0.16, 0.49 and 2.25, with complex combinations
    # on both sides, one of them over an adjoint.
    maps = [CPMap([np.array([[a]])]) for a in (1.3, 0.4j, -0.7, 1.5)]
    m = make_bisemicircular(maps[:2], maps[2:])
    s1, s2, d1, d2 = map(m.symbol, ("S1", "S2", "D1", "D2"))
    u = m.combination_symbol("u", [(0.3 + 0.2j, s1), (-1.1j, s2)])
    m.combination_symbol("w", [(0.5j, u.star()), (1.0, s1)])
    m.combination_symbol("v", [(0.7 - 0.4j, d1), (1.2, d2)])
    return m


def _matrix_model_with_combination():
    rng = np.random.default_rng(33)
    m = make_bisemicircular([_psd_cpmap(rng), _psd_cpmap(rng)], [_psd_cpmap(rng)])
    m.combination_symbol("u", [(0.3 + 0.2j, m.symbol("S1")), (-1.1j, m.symbol("S2"))])
    return m


@pytest.mark.parametrize("build, sides, count", [
    (lambda: make_circular_pair(2), "lr", 24),
    (_scalar_model_with_combinations, "lr", 14),
    # At d > 1 the left-contracted pairing is the GNS one for left operators.
    (_matrix_model_with_combination, "l", 6),
])
def test_registered_adjoint_is_the_adjoint(build, sides, count):
    # <x u, v> = <u, x* v> for every registered symbol x, within 1e-14 of the
    # Cauchy-Schwarz bound of the two sides.
    model = build()
    rng = np.random.default_rng(34)
    d = model.dim
    alphabet = list(model.symbols) + [Lb(random_belement(d, rng)), Rb(random_belement(d, rng))]
    states = list(_seeded_states(model, alphabet, rng, 6))
    norm = lambda w: math.sqrt(abs(model.inner(w, w)))
    xs = [x for x in model.symbol_actions if x.side in sides]
    assert len(xs) == count
    for x in xs:
        for u, v in zip(states, states[1:] + states[:1]):
            xu, xv = model.apply_symbol(x, u), model.apply_symbol(x.star(), v)
            scale = norm(xu) * norm(v) + norm(u) * norm(xv)
            assert abs(model.inner(xu, v) - model.inner(u, xv)) <= 1e-14 * scale, x


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_contraction_matches_kraus_loop(d):
    # Both annihilators on one index: l* contracts the first slot, r* the last.
    rng = np.random.default_rng(50 + d)
    for n_kraus in (1, 2, 3):
        eta = random_cpmap(d, rng, n_kraus=n_kraus)
        model = FockModel(d, ("k",), (), {"k": eta})
        for m in (1, 2, 3, 4):
            ks = ("k",) * m
            shape = (d,) * (2 * (m + 1))
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            vec = FockVector(d, {ks: t})
            for kind, left in (("l*", True), ("r*", False)):
                got = model.apply_factor((kind, "k"), vec).terms[ks[1:]]
                want = contract_by_kraus(eta, t, left)
                assert maxabs(got - want) <= 1e-14 * max(1.0, maxabs(want)), (n_kraus, m, kind)


def _random_component(rng, d, m):
    shape = (d,) * (2 * (m + 1))
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d", [2, 3])
def test_pairing_fold_matches_one_einsum(d):
    # Random Kraus maps are not trace-symmetric; below depth 4 u holds one
    # sequence that v lacks, so orthogonality is read too.
    rng = np.random.default_rng(70 + d)
    checked = 0
    for n_kraus in (1, 2, 3):
        covs = {"a": random_cpmap(d, rng, n_kraus=n_kraus), "b": random_cpmap(d, rng, n_kraus)}
        model = FockModel(d, ("a",), ("b",), covs)
        assert not all(eta.is_trace_symmetric() for eta in covs.values())
        for m in range(5):
            seqs = {tuple(rng.choice(["a", "b"], size=m).tolist()) for _ in range(3)}
            u = FockVector(d, {ks: _random_component(rng, d, m) for ks in seqs})
            v = FockVector(d, {ks: _random_component(rng, d, m) for ks in seqs})
            if m < 4:
                u = u + FockVector(d, {("a",) * (m + 1): _random_component(rng, d, m + 1)})
            got, want = model.inner_B(u, v), inner_B_by_einsum(model, u, v)
            assert maxabs(got - want) <= 1e-14 * max(1.0, maxabs(want)), (n_kraus, m)
            checked += 1
    assert checked == 15


def test_pairing_keeps_every_intermediate_within_the_component(monkeypatch):
    # Contracting conj(v) with u before the kernels would build d^(4m+2)
    # entries (3^18 here); each result's size is checked before it is built.
    d, m = 3, 4
    rng = np.random.default_rng(75)
    model = FockModel(d, ("k",), (), {"k": random_cpmap(d, rng, n_kraus=2)})
    ks = ("k",) * m
    u = FockVector(d, {ks: _random_component(rng, d, m)})
    v = FockVector(d, {ks: _random_component(rng, d, m)})
    limit = d ** (2 * (m + 1))
    tensordot, sizes = np.tensordot, []

    def bounded(a, b, axes=2):
        a, b = np.asarray(a), np.asarray(b)
        if isinstance(axes, int):
            ia, ib = range(a.ndim - axes, a.ndim), range(axes)
        else:
            ia, ib = ([x] if isinstance(x, int) else x for x in axes)
        ia, ib = {i % a.ndim for i in ia}, {i % b.ndim for i in ib}
        kept = [n for i, n in enumerate(a.shape) if i not in ia]
        kept += [n for i, n in enumerate(b.shape) if i not in ib]
        sizes.append(math.prod(kept))
        assert sizes[-1] <= limit, f"tensordot result of {sizes[-1]} entries"
        return tensordot(a, b, axes)

    monkeypatch.setattr(np, "tensordot", bounded)
    got = model.inner_B(u, v)
    monkeypatch.undo()
    assert len(sizes) == m + 1
    assert maxabs(got - inner_B_by_einsum(model, u, v)) <= 1e-14 * max(1.0, maxabs(got))


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "fock_reference.json"


def test_pool_moments_match_the_benchmark_reference():
    # S1 and D1 commute, so every word with a letters S1 has the recorded moment.
    pool = json.loads(REFERENCE.read_text())["pool"]
    assert len(pool) == 8
    rng = np.random.default_rng(60)
    for entry in pool:
        m = bisemicircular_from_json(entry["model"])
        for a in range(9):
            ref = entry["moments_by_s_count"][str(a)]
            ref = np.asarray(ref["re"]) + 1j * np.asarray(ref["im"])
            word = ["S1"] * a + ["D1"] * (8 - a)
            for letters in (word, rng.permutation(word)):
                got = m.functional.expect(Monomial([m.symbol(x) for x in letters]))
                assert maxabs(got - ref) <= 1e-12 * max(1.0, maxabs(ref)), (a, list(letters))
