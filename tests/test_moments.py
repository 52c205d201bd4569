"""Moment/cumulant transforms: reduction, convolution, grouping, detection."""

import cmath
import itertools
import math
import struct

import numpy as np
import pytest
from oracles import (
    circular_letters,
    cumulant_pi_every_partition,
    cumulant_pi_scan,
    cumulants_from_moments_loop,
    eval_moment_pi_random,
    eval_moment_pi_reference,
    free_cumulant_from_moments,
    lower_interval_by_product,
    moments_from_cumulants_loop,
    nc_pair_partition_count,
    product_cumulant_expand_nested,
    scalar_top_cumulant_by_positions,
    scalar_top_cumulant_table_loop,
    vacuum_expectation,
)

import bifree.moments
from bifree.balgebra import CPMap, matrix_unit, maxabs, random_belement, random_cpmap
from bifree.bnc import (
    BncPartition,
    ChiWord,
    catalan,
    enumerate_bnc,
    lattice_leq,
    mobius_bnc,
    one_partition,
    zero_partition,
)
from bifree.fock import FockModel, make_bisemicircular, make_circular_pair
from bifree.moments import (
    bifree_test,
    chi_of_groups,
    cumulant_chi,
    cumulant_pi,
    cumulants_from_moments,
    eval_moment_pi,
    moments_from_cumulants,
    product_cumulant_expand,
    transform_table,
)
from bifree.moments import _scalar_top_cumulant
from bifree.words import GeneratorSymbol, Lb, Monomial, MomentFunctional, Rb


@pytest.fixture(scope="module")
def scalar_model():
    return make_bisemicircular([CPMap.identity(1)], [CPMap.identity(1)])


@pytest.fixture(scope="module")
def flip_model():
    flip = CPMap([matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
    return make_bisemicircular([flip], [flip])


# --- full moments ----------------------------------------------------------------

def test_empty_word_is_unit(scalar_model, flip_model):
    assert scalar_model.functional.expect(Monomial.unit())[0, 0] == 1
    assert np.allclose(flip_model.functional.expect(Monomial.unit()), np.eye(2))


def test_scalar_semicircular_square(scalar_model):
    s = scalar_model.symbol("S1")
    assert abs(scalar_model.functional.expect(Monomial([s, s]))[0, 0] - 1) < 1e-12


def test_coefficients_multiply_out(flip_model):
    rng = np.random.default_rng(0)
    b1, b2 = random_belement(2, rng), random_belement(2, rng)
    got = flip_model.functional.expect(Monomial([Lb(b1), Rb(b2)]))
    assert maxabs(got - b1 @ b2) < 1e-12


# --- partition-indexed moments -----------------------------------------------------

def test_one_block_is_plain_product(flip_model):
    s, d = flip_model.symbol("S1"), flip_model.symbol("D1")
    chi = ChiWord("lrlr")
    ops = [Monomial([s]), Monomial([d]), Monomial([s]), Monomial([d])]
    got = eval_moment_pi(flip_model.functional, one_partition(chi), ops)
    want = flip_model.functional.expect(Monomial([s, d, s, d]))
    assert maxabs(got - want) < 1e-12


def test_scalar_interval_factorization(scalar_model):
    s = scalar_model.symbol("S1")
    chi = ChiWord("lll")
    pi = BncPartition([[1, 2], [3]], chi)
    got = eval_moment_pi(scalar_model.functional, pi, [Monomial([s])] * 3)
    # E(ss) E(s) = 1 * 0
    assert abs(got[0, 0]) < 1e-14
    pi2 = BncPartition([[1, 2], [3, 4]], ChiWord("llll"))
    got = eval_moment_pi(scalar_model.functional, pi2, [Monomial([s])] * 4)
    assert abs(got[0, 0] - 1) < 1e-14


def test_twelve_point_worked_reduction():
    # chi has left positions {1,5,8,9,11,12}; the nested-coefficient shape of
    # the reduced expression is pinned by evaluating it by hand.
    rng = np.random.default_rng(7)
    eta = random_cpmap(2, rng)
    eta_r = random_cpmap(2, rng)
    m = make_bisemicircular([eta], [eta_r])
    S, D = m.symbol("S1"), m.symbol("D1")
    labels = ["r"] * 12
    for i in (1, 5, 8, 9, 11, 12):
        labels[i - 1] = "l"
    chi = ChiWord(labels)
    ops = []
    for k in range(1, 13):
        if labels[k - 1] == "l":
            ops.append(Monomial([S]) * Lb(random_belement(2, rng)))
        else:
            ops.append(Monomial([D]) * Rb(random_belement(2, rng)))
    pi = BncPartition([[1, 3], [2], [4, 5, 11, 12], [6, 10], [7], [8, 9]], chi)
    got = eval_moment_pi(m.functional, pi, ops)
    E = m.functional.expect
    Z = {k: ops[k - 1] for k in range(1, 13)}
    inner_right = E(Z[6] * Rb(E(Z[7])) * Z[10])
    mid = E(Z[4] * Rb(inner_right) * Z[5] * Lb(E(Z[8] * Z[9])) * Z[11] * Z[12])
    outer = E(Z[1] * Z[3] * Lb(mid))
    want = outer @ E(Z[2])
    assert maxabs(got - want) < 1e-10


def test_reduction_order_independence(flip_model):
    rng = np.random.default_rng(5)
    s, d = flip_model.symbol("S1"), flip_model.symbol("D1")
    for _ in range(60):
        n = int(rng.integers(2, 9))
        labels = ["l" if rng.integers(2) else "r" for _ in range(n)]
        chi = ChiWord(labels)
        parts = enumerate_bnc(chi)
        pi = parts[rng.integers(len(parts))]
        ops = [Monomial([s if lab == "l" else d]) for lab in labels]
        base = eval_moment_pi(flip_model.functional, pi, ops)
        alt = eval_moment_pi_random(flip_model.functional, pi, ops, rng)
        assert maxabs(base - alt) < 1e-10


def test_random_order_reduction_matches_deterministic_at_d1():
    cp = make_circular_pair()
    rng = np.random.default_rng(6)
    order_rng = np.random.default_rng(16)
    syms = circular_letters(cp)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        word = [syms[rng.integers(4)] for _ in range(n)]
        chi = ChiWord([w.side for w in word])
        parts = enumerate_bnc(chi)
        pi = parts[rng.integers(len(parts))]
        ops = [Monomial([w]) for w in word]
        a = eval_moment_pi(cp.functional, pi, ops)
        # the same partition moment, its admissible runs stripped in random order
        b = eval_moment_pi_random(cp.functional, pi, ops, order_rng)
        assert maxabs(a - b) < 1e-12


def _with_insertions(ops, chi, d, rng):
    """The operands with random coefficient insertions on their side before
    and after each; the last operand may also mix sides."""
    ops = list(ops)
    for k, side in enumerate(chi.labels):
        coeff = Lb if side == "l" else Rb
        if rng.integers(2):
            ops[k] = coeff(random_belement(d, rng)) * ops[k]
        if rng.integers(2):
            ops[k] = ops[k] * coeff(random_belement(d, rng))
    if rng.integers(2):
        other = Rb if chi.labels[-1] == "l" else Lb
        ops[-1] = ops[-1] * other(random_belement(d, rng))
    return ops


def _operands_with_insertions(S, D, chi, d, rng):
    """One generator per position, S on the left and D on the right, with
    the insertions of ``_with_insertions``."""
    return _with_insertions([Monomial([S if s == "l" else D]) for s in chi.labels], chi, d, rng)


@pytest.mark.parametrize("d", [1, 2])
def test_chi_order_slices_match_numeric_reduction(d):
    # Equal with np.array_equal: the same monomials reach F.expect, so each
    # side evaluates them through a functional with its own cache.
    rng = np.random.default_rng(40 + d)
    m = make_bisemicircular([random_cpmap(d, rng)], [random_cpmap(d, rng)])
    S, D = m.symbol("S1"), m.symbol("D1")
    F, F_ref = m.functional, MomentFunctional(vacuum_expectation(m), m.dim)
    chis = [ChiWord(w) for n in range(1, 6) for w in itertools.product("lr", repeat=n)]
    chis += [ChiWord(rng.choice(["l", "r"], size=n)) for n in (6, 6, 6, 7, 7)]
    checked = 0
    for chi in chis:
        for pi in enumerate_bnc(chi):
            ops = _operands_with_insertions(S, D, chi, d, rng)
            got = eval_moment_pi(F, pi, ops)
            want = eval_moment_pi_reference(F_ref, pi, ops)
            assert np.array_equal(got, want), (pi, ops)
            checked += 1
    assert checked == 1618 + 3 * 132 + 2 * 429


def test_side_mismatch_rejected(scalar_model):
    s = scalar_model.symbol("S1")
    chi = ChiWord("rl")
    with pytest.raises(ValueError):
        eval_moment_pi(
            scalar_model.functional, one_partition(chi), [Monomial([s]), Monomial([s])]
        )


# --- cumulants ----------------------------------------------------------------------

def test_cumulant_checks_its_operands_once(scalar_model, monkeypatch):
    # Every partition below pi has pi's side word, so one check covers them.
    s = scalar_model.symbol("S1")
    calls = []
    check = bifree.moments._check_sides
    monkeypatch.setattr(
        bifree.moments, "_check_sides", lambda *a: calls.append(a) or check(*a)
    )
    chi = ChiWord("llll")
    cumulant_pi(scalar_model.functional, one_partition(chi), [Monomial([s])] * 4)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        cumulant_pi(scalar_model.functional, one_partition(ChiWord("rl")), [Monomial([s])] * 2)
    with pytest.raises(ValueError):
        cumulant_pi(scalar_model.functional, one_partition(chi), [Monomial([s])] * 3)


def _planted_model(d, rng):
    """A left and a right generator that share the index ``k``, so their
    mixed cumulants do not vanish."""
    fm = FockModel(d, ("k",), ("j",), {"k": random_cpmap(d, rng), "j": random_cpmap(d, rng)})
    A = fm.register_symbol(
        GeneratorSymbol("A", "l", family="a"), [(1.0, ("l", "k")), (1.0, ("l*", "k"))]
    )
    B = fm.register_symbol(
        GeneratorSymbol("B", "r", family="b"),
        [(1.0, ("r", "j")), (1.0, ("r*", "j")), (0.5, ("r", "k")), (0.5, ("r*", "k"))],
    )
    return fm, A, B


@pytest.mark.parametrize("d", [2, 3])
def test_cumulant_matches_full_scan(d):
    # The zero-slice exit, the Moebius value taken only for a non-zero
    # moment and the chi-order resolved once per word change no bit: every
    # mixed word up to order 5, with and without coefficient insertions, at
    # the top and at a random partition, equals the full per-partition scan.
    # In the scaled-down model, moments of order 2 are about 1e-14: a slice
    # that is small but not zero must not end the reduction.
    rng = np.random.default_rng(70 + d)
    m = make_bisemicircular([random_cpmap(d, rng)], [random_cpmap(d, rng)])
    tiny = make_bisemicircular(
        *([CPMap([1e-7 * v for v in random_cpmap(d, rng).kraus])] for _ in "lr")
    )
    planted, A, B = _planted_model(d, rng)
    planted_nonzero = 0
    models = [(x, x.symbol("S1"), x.symbol("D1")) for x in (m, tiny)]
    for model, S, D in models + [(planted, A, B)]:
        F, F_ref = model.functional, MomentFunctional(vacuum_expectation(model), d)
        for n in range(2, 6):
            for labels in itertools.product("lr", repeat=n):
                if len(set(labels)) < 2:
                    continue
                chi = ChiWord(labels)
                parts = enumerate_bnc(chi)
                plain = [Monomial([S if s == "l" else D]) for s in labels]
                inserted = _operands_with_insertions(S, D, chi, d, rng)
                for pi, ops in (
                    (one_partition(chi), plain),
                    (one_partition(chi), inserted),
                    (parts[rng.integers(len(parts))], inserted),
                ):
                    got = cumulant_pi(F, pi, ops)
                    assert np.array_equal(got, cumulant_pi_scan(F_ref, pi, ops)), (pi, ops)
                    planted_nonzero += model is planted and maxabs(got) > 1e-9
    assert planted_nonzero >= 6


@pytest.mark.parametrize("d", [1, 2, 3])
def test_interval_skip_bit_exact(d):
    # Leaving out the partitions with a zero chi-interval block changes no
    # bit of the cumulant: on every side word up to order 6, with plain and
    # with inserted operands, at the top and at a random partition, the bytes
    # equal those of the scan that reduces every partition.  The models: at
    # d > 1 two left pairs and a right one with combination symbols, one of
    # which cancels to the zero operator; at d < 3 the NaN-Kraus model.  At
    # every d some partitions are left out: a zero block makes the moment
    # zero even next to a NaN block.
    rng = np.random.default_rng(90 + d)
    m = make_bisemicircular([random_cpmap(d, rng) for _ in "ab"], [random_cpmap(d, rng)])
    S1, S2, D1 = m.symbol("S1"), m.symbol("S2"), m.symbol("D1")
    mix = m.combination_symbol("u", [(0.3, S1), (1.7 - 0.2j, S2)], family="u")
    gone = m.combination_symbol("z", [(1.0, D1), (-1.0, D1)], family="z")
    models = []
    if d > 1:
        models.append((m, [S1, S2, mix], [D1, gone]))
    if d < 3:
        nan = _nan_model(d, rng)
        models.append((nan, [nan.symbol("S1")], [nan.symbol("D1")]))
    skipped = 0
    for model, lefts, rights in models:
        F, F_ref = model.functional, MomentFunctional(vacuum_expectation(model), d)
        for n in range(1, 7):
            for labels in itertools.product("lr", repeat=n):
                chi = ChiWord(labels)
                parts = enumerate_bnc(chi)
                plain = [Monomial([rng.choice(lefts if s == "l" else rights)]) for s in labels]
                for ops in (plain, _with_insertions(plain, chi, d, rng)):
                    for pi in (one_partition(chi), parts[rng.integers(len(parts))]):
                        got = cumulant_pi(F, pi, ops)
                        want = cumulant_pi_every_partition(F_ref, pi, ops)
                        assert got.tobytes() == want.tobytes(), (pi, ops)
                    skipped += len(parts) - len(
                        bifree.moments._candidates(F, chi, bifree.moments._chi_ordered(chi, ops))
                    )
    assert skipped > 0


def test_scan_report_equals_full_scan(monkeypatch):
    rng = np.random.default_rng(81)
    m = make_bisemicircular([random_cpmap(2, rng)], [random_cpmap(2, rng)])
    got = bifree_test(m.functional, m.symbols, max_order=6)
    monkeypatch.setattr(bifree.moments, "cumulant_pi", cumulant_pi_scan)
    want = bifree_test(MomentFunctional(vacuum_expectation(m), 2), m.symbols, max_order=6)
    assert got == want and got["tested"] == 114 and got["max_residual"] > 0


def _count_lattice_calls(monkeypatch):
    """Counts of the calls that ``bifree.moments`` makes to ``mobius_bnc``,
    ``lattice_leq`` and ``_moment_pi`` from now on."""
    calls = {"mobius_bnc": 0, "lattice_leq": 0, "_moment_pi": 0}
    for name in calls:
        real = getattr(bifree.moments, name)

        def counted(*a, _real=real, _name=name):
            calls[_name] += 1
            return _real(*a)

        monkeypatch.setattr(bifree.moments, name, counted)
    return calls


def test_scan_lattice_counts_pinned(monkeypatch):
    # Only the partitions with no zero chi-interval block are reduced and
    # compared with the top, and Moebius values are taken only for those
    # whose moment is not zero.  The lattice layer is still reached (the
    # benchmark's own check needs both lattice counts above 0).
    calls = _count_lattice_calls(monkeypatch)
    rng = np.random.default_rng(82)
    m = make_bisemicircular([random_cpmap(2, rng)], [random_cpmap(2, rng)])
    rep = bifree_test(m.functional, m.symbols, max_order=5)
    assert rep["pass"] and rep["tested"] == 52
    # Reducing every partition would make both 2 * 2 + 6 * 5 + 14 * 14 +
    # 30 * 42 = 1490.
    assert calls["_moment_pi"] == 60 and calls["lattice_leq"] == 60
    # Taking a Moebius value for every reduced partition would make this 60.
    assert calls["mobius_bnc"] == 12
    assert calls["mobius_bnc"] > 0 and calls["lattice_leq"] > 0


def test_scalar_cumulant_chi_lattice_counts_pinned(monkeypatch):
    # At d=1 too, cumulant_chi reduces only the partitions with no zero
    # chi-interval block: over the 1,364 words of order <= 5 in the circular
    # pair's four letters, 860 partitions, where reducing every partition
    # made 46,948.  84 of them have a moment that is not zero.
    calls = _count_lattice_calls(monkeypatch)
    cp = make_circular_pair()
    words = [w for n in range(1, 6) for w in itertools.product(circular_letters(cp), repeat=n)]
    for word in words:
        cumulant_chi(cp.functional, ChiWord(s.side for s in word), [Monomial([s]) for s in word])
    assert len(words) == 1364
    assert (calls["_moment_pi"], calls["lattice_leq"], calls["mobius_bnc"]) == (860, 860, 84)


def test_scalar_scan_work_pinned(monkeypatch):
    # On the default d=1 model at order 7 a block whose value is 0 clears
    # every partition that has it, so the scan visits 7,011 table entries
    # of the 63,728 that the 240 words' tables hold.  Block values are kept
    # for the whole scan, so the functional is asked once for each of the
    # 250 distinct sub-words, where asking once per word made 7,801 calls
    # and reading the blocks of each word's partitions 14,193.
    m = make_bisemicircular([CPMap.identity(1)], [CPMap.identity(1)])
    oracle, computed = vacuum_expectation(m), [0]

    def counted(word):
        computed[0] += 1
        return oracle(word)

    class Counting(MomentFunctional):
        calls = 0

        def expect(self, word):
            self.calls += 1
            return super().expect(word)

    visits = [0]

    class Entries(tuple):
        def __getitem__(self, i):
            visits[0] += 1
            return tuple.__getitem__(self, i)

    index = bifree.moments.top_block_index
    monkeypatch.setattr(
        bifree.moments,
        "top_block_index",
        lambda n: index(n)._replace(sigmas=Entries(index(n).sigmas)),
    )
    F = Counting(counted, 1)
    rep = bifree_test(F, m.symbols, max_order=7)
    assert rep["pass"] and rep["tested"] == 240 and rep["max_residual"] == 0.0
    assert (visits[0], F.calls, computed[0]) == (7011, 250, 250)


def test_scan_block_values_live_one_call():
    # The two models' symbols compare equal but their moments differ.  A
    # right symbol z = D1 of its own family plants var(D1) as the mixed
    # cumulant k(D1, z): 1 in the first model, 1.3 ** 2 in the second; every
    # other mixed cumulant is 0.  A block value kept from an earlier call
    # would give a later one the other model's report.
    models = [(CPMap.identity(1), CPMap.identity(1)), (CPMap([[[0.7]]]), CPMap([[[1.3]]]))]
    for (left, right), var in zip(models * 2, (1.0, 1.3**2) * 2):
        m = make_bisemicircular([left], [right])
        D1 = m.symbol("D1")
        z = m.combination_symbol("z", [(1.0, D1)], family="z")
        rep = bifree_test(m.functional, [m.symbol("S1"), D1, z], max_order=4)
        assert rep["max_residual"] == pytest.approx(var, rel=1e-12)
        assert [v["word"] for v in rep["violations"]] == [["D1", "z"], ["z", "D1"]]


def _nan_model(d, rng):
    if d == 1:
        return make_bisemicircular([CPMap([[[math.nan]]])], [CPMap.identity(1)])
    kraus = [random_belement(2, rng) for _ in range(2)]
    kraus[0][0, 0] = math.nan
    return make_bisemicircular([CPMap(kraus)], [random_cpmap(2, rng)])


@pytest.mark.parametrize("d", [1, 2])
def test_bifree_scan_fails_on_nan(d):
    # NaN is neither above the worst residual nor above the tolerance: it
    # must still fail the scan and be the reported maximum.
    m = _nan_model(d, np.random.default_rng(83))
    rep = bifree_test(m.functional, m.symbols, max_order=4)
    assert not rep["pass"] and math.isnan(rep["max_residual"])
    assert rep["worst_word"] is not None and rep["violation_count"] > 0
    assert math.isnan(rep["violations"][0]["residual"])


def test_scalar_cumulant_chi_follows_the_scan_on_nan_model():
    # cumulant_chi at d=1 leaves out a zero block next to a NaN block, as
    # the mixed-cumulant scan does: on every mixed word up to order 6 both
    # are non-finite at the same words, and elsewhere agree to roundoff
    # (they multiply the same factors in another order).
    m = _nan_model(1, np.random.default_rng(83))
    F, bad = m.functional, 0
    words = [
        w for n in range(2, 7) for w in itertools.product(m.symbols, repeat=n)
        if len({s.family for s in w}) > 1
    ]
    for word in words:
        chi = ChiWord(s.side for s in word)
        got = complex(cumulant_chi(F, chi, [Monomial([s]) for s in word])[0, 0])
        want = _scalar_top_cumulant(F, word, chi)
        names = [s.display for s in word]
        assert cmath.isfinite(got) == cmath.isfinite(want), names
        if cmath.isfinite(want):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), names
        bad += not cmath.isfinite(want)
    assert len(words) == 114 and 0 < bad < 114


@pytest.mark.parametrize("d", [1, 2])
def test_zero_block_ends_the_moment_at_every_d(d):
    # {S1 S1}{D1}: E(S1 S1) is NaN on this model and E(D1) is exactly zero,
    # so the moment is the +0 matrix, over scalars as over matrices.  A NaN
    # block is not zero: {S1 S1}{D1 D1} stays NaN.
    m = _nan_model(d, np.random.default_rng(87))
    S1, D1 = Monomial([m.symbol("S1")]), Monomial([m.symbol("D1")])
    pi = BncPartition([[1, 2], [3]], ChiWord("llr"))
    got = eval_moment_pi(m.functional, pi, [S1, S1, D1])
    assert got.tobytes() == np.zeros((d, d), dtype=complex).tobytes()
    pi = BncPartition([[1, 2], [3, 4]], ChiWord("llrr"))
    assert np.isnan(eval_moment_pi(m.functional, pi, [S1, S1, D1, D1])).any()


@pytest.mark.parametrize("d", [1, 2])
def test_zero_block_beside_a_nan_slice_is_nan_at_every_d(d):
    # S has covariance 0 and N covariance NaN.  At {1,3}{2} of S, N N, S the
    # block {1,3} is zero but not a chi-interval: the slice {2} is stripped
    # first, its NaN spliced into S, and the zero block is never read
    # alone.  Over scalars the moment was once the product of block values,
    # 0; it is NaN at every d.
    m = make_bisemicircular([CPMap([np.zeros((d, d))]), CPMap([np.full((d, d), math.nan)])], [])
    S, N = m.symbol("S1"), m.symbol("S2")
    assert not np.count_nonzero(m.functional.expect(Monomial([S, S])))
    pi = BncPartition([[1, 3], [2]], ChiWord("lll"))
    got = eval_moment_pi(m.functional, pi, [Monomial([S]), Monomial([N, N]), Monomial([S])])
    assert np.isnan(got).all()


def test_scalar_moment_is_the_product_of_block_values():
    # Over scalars the moment function factors over the blocks, which the
    # reduction never uses.  For every side word up to 6 letters, one word
    # of generators with Lb/Rb insertions is drawn; at every partition its
    # moment equals the product of each block's one-block moment, the
    # block's operands in position order.
    checked = 0
    for seed in (84, 85):
        rng = np.random.default_rng(seed)
        m, (A, B, C) = _three_family_model(rng)
        F = m.functional
        for chi in (ChiWord(w) for n in range(1, 7) for w in itertools.product("lr", repeat=n)):
            letters = [(A, B)[rng.integers(2)] if s == "l" else C for s in chi.labels]
            ops = _with_insertions([Monomial([x]) for x in letters], chi, 1, rng)
            for pi in enumerate_bnc(chi):
                got = eval_moment_pi(F, pi, ops)[0, 0]
                want = math.prod(
                    complex(F.expect(Monomial.concat([ops[k - 1] for k in b]))[0, 0])
                    for b in pi.blocks
                )
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (pi, ops)
                checked += 1
    assert checked == 2 * (1618 + 64 * 132)


def _three_family_model(rng):
    """Two left generators and a right one (families a, b, c) over scalar
    coefficients.  Each creates and annihilates on its own index and on the
    next one, with complex, non-integer weights: mixed cumulants do not
    vanish, odd moments are exactly 0, and a product's bits depend on the
    order of its factors."""
    idx = ("k1", "k2", "k3")
    fm = FockModel(1, idx[:2], idx[2:], {k: CPMap([[[rng.uniform(0.5, 1.5)]]]) for k in idx})
    syms = []
    for i, (name, side) in enumerate((("A", "l"), ("B", "l"), ("C", "r"))):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        own = (idx[i], idx[(i + 1) % 3])
        action = [(c, (side, k)) for c, k in zip(w, own)]
        action += [(c.conjugate(), (side + "*", k)) for c, k in zip(w, own)]
        syms.append(fm.register_symbol(GeneratorSymbol(name, side, family=name.lower()), action))
    return fm, syms


def _scalar_scans(model, symbols, max_order):
    """``(word, scan, position-coordinate scan)`` for every mixed word; the
    oracle reads its own moment functional."""
    F, F_ref = model.functional, MomentFunctional(vacuum_expectation(model), 1)
    for n in range(2, max_order + 1):
        for word in itertools.product(symbols, repeat=n):
            if len({s.family for s in word}) > 1:
                chi = ChiWord(s.side for s in word)
                yield (
                    word,
                    _scalar_top_cumulant(F, word, chi),
                    scalar_top_cumulant_by_positions(F_ref, word, chi),
                )


def test_scalar_scan_matches_position_scan():
    # The NC-coordinate scan sums the same terms in the same order as the
    # scan over relabelled partitions: equal bits on every mixed word up to
    # order 7.  The default model's mixed cumulants vanish; the correlated
    # complex models' do not, and make the product order visible.
    default = make_bisemicircular([CPMap.identity(1)], [CPMap.identity(1)])
    models = [(default, default.symbols)]
    models += [_three_family_model(np.random.default_rng(seed)) for seed in (84, 85)]
    for model, symbols in models:
        nonzero = 0
        for word, got, want in _scalar_scans(model, symbols, 7):
            assert got == want, [s.display for s in word]
            nonzero += got != 0
        assert nonzero == 0 if model is default else nonzero > 700


def test_scalar_scan_non_finite_on_nan_model():
    # A partition with a block whose value is exactly 0 is skipped even when
    # another block is NaN; the position scan multiplies up to the first zero
    # in position order.  Both scans fail, and every word that the NC scan
    # finds non-finite the position scan finds non-finite too.
    m = _nan_model(1, np.random.default_rng(83))
    bad = 0
    for word, got, want in _scalar_scans(m, m.symbols, 7):
        if not cmath.isfinite(got):
            assert not cmath.isfinite(want), [s.display for s in word]
            bad += 1
    assert bad > 0


def _zero_symbol_model():
    """Scalar S1 and D1 (variances 0.49 and 1.69) and a right symbol ``z``
    that cancels to the zero operator: every block that holds ``z`` is 0 up
    to roundoff, even blocks too.  Most read exactly 0, but ``D1 D1 z D1 D1
    D1`` reads -6.3e-16: where a creator and an annihilator of ``z`` reach
    one component, it sums (a + b) - a - b."""
    m = make_bisemicircular([CPMap([[[0.7]]])], [CPMap([[[1.3]]])])
    D1 = m.symbol("D1")
    gone = m.combination_symbol("z", [(1.0, D1), (-1.0, D1)], family="z")
    return m, [m.symbol("S1"), D1, gone]


def _scan_models(name):
    if name == "default":
        m = make_bisemicircular([CPMap.identity(1)], [CPMap.identity(1)])
        return m, list(m.symbols)
    if name == "nan":
        m = _nan_model(1, np.random.default_rng(83))
        return m, list(m.symbols)
    if name == "zero-symbol":
        return _zero_symbol_model()
    return _three_family_model(np.random.default_rng(int(name)))


def _packed(z):
    """The bytes of a complex number: the sign of a zero and a NaN's bits
    count, which ``==`` does not see."""
    return struct.pack("<dd", z.real, z.imag)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", ["default", "84", "85", "nan", "zero-symbol"])
def test_block_index_scan_bytes_match_table_loop(name):
    # Clearing every entry with a zero block changes no bit: every mixed word up to order 7 and 64 seeded
    # mixed words of order 8 give the bytes of the loop over every entry,
    # which reads its own moment functional.
    model, symbols = _scan_models(name)
    F, F_ref = model.functional, MomentFunctional(vacuum_expectation(model), 1)
    words = [
        w
        for n in range(2, 8)
        for w in itertools.product(symbols, repeat=n)
        if len({s.family for s in w}) > 1
    ]
    rng = np.random.default_rng(86)
    eights = 0
    while eights < 64:
        w = tuple(symbols[i] for i in rng.integers(len(symbols), size=8))
        if len({s.family for s in w}) > 1:
            words.append(w)
            eights += 1
    kinds = set()
    for word in words:
        chi = ChiWord(s.side for s in word)
        got = _scalar_top_cumulant(F, word, chi)
        want = scalar_top_cumulant_table_loop(F_ref, word, chi)
        assert _packed(got) == _packed(want), [s.display for s in word]
        kinds.add("nan" if cmath.isnan(got) else "zero" if got == 0 else "other")
    # Each model reaches the values it was chosen for.
    assert kinds == {
        "default": {"zero"},
        "nan": {"zero", "nan"},
    }.get(name, {"zero", "other"}), kinds


def test_self_adjoint_symbol_shares_its_action_with_its_adjoint():
    # z = D1 - D1 equals z*, although the derived adjoint lists the terms of
    # z in another order; summed in that order, E(D1 D1 z* D1 D1 D1) once
    # read 0 where E(D1 D1 z D1 D1 D1) reads -6.3e-16.
    model, (S1, D1, z) = _zero_symbol_model()
    zs = z.star()
    assert model.symbol_actions[zs] is model.symbol_actions[z]
    for n in range(1, 7):
        for word in itertools.product((S1, D1, z), repeat=n):
            if z in word:
                starred = tuple(zs if f == z else f for f in word)
                got, want = model.expectation(Monomial(starred)), model.expectation(Monomial(word))
                assert _packed(got.item()) == _packed(want.item()), [f.display for f in word]


def test_order_one_cumulant_is_expectation(flip_model):
    rng = np.random.default_rng(1)
    b = random_belement(2, rng)
    s = flip_model.symbol("S1")
    word = Monomial([s]) * Lb(b)
    got = cumulant_chi(flip_model.functional, ChiWord("l"), [word])
    assert maxabs(got - flip_model.functional.expect(word)) < 1e-12


def test_semicircular_cumulants_against_free_oracle(scalar_model):
    s = scalar_model.symbol("S1")
    F = scalar_model.functional
    moments = [None] + [
        complex(F.expect(Monomial([s] * k))[0, 0]).real for k in range(1, 7)
    ]
    for n, chi in ((2, "ll"), (4, "llll"), (6, "llllll")):
        got = cumulant_chi(F, ChiWord(chi), [Monomial([s])] * n)[0, 0].real
        want = free_cumulant_from_moments(moments, n)
        assert abs(got - want) < 1e-10
        assert abs(want - (1.0 if n == 2 else 0.0)) < 1e-10


def test_operator_valued_order_two(flip_model):
    rng = np.random.default_rng(2)
    flip = CPMap([matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
    S, D = flip_model.symbol("S1"), flip_model.symbol("D1")
    F = flip_model.functional
    for _ in range(5):
        b = random_belement(2, rng)
        k = cumulant_chi(F, ChiWord("ll"), [Monomial([S, Lb(b)]), Monomial([S])])
        assert maxabs(k - flip(b)) < 1e-12
        k = cumulant_chi(F, ChiWord("lr"), [Monomial([S, Lb(b)]), Monomial([D])])
        assert maxabs(k) < 1e-12
        k = cumulant_chi(F, ChiWord("rl"), [Monomial([D, Rb(b)]), Monomial([S])])
        assert maxabs(k) < 1e-12


def test_coefficient_absorption(flip_model):
    # A pure coefficient operand in a non-final slot kills the cumulant.
    rng = np.random.default_rng(3)
    S, D = flip_model.symbol("S1"), flip_model.symbol("D1")
    F = flip_model.functional
    for n in (2, 3, 4, 5):
        for slot in range(n - 1):
            word = []
            labels = []
            for k in range(n):
                if k == slot:
                    side = "l" if rng.integers(2) else "r"
                    b = random_belement(2, rng)
                    word.append(Monomial([Lb(b) if side == "l" else Rb(b)]))
                    labels.append(side)
                else:
                    pick = rng.integers(2)
                    word.append(Monomial([S if pick else D]))
                    labels.append("l" if pick else "r")
            k_val = cumulant_chi(F, ChiWord(labels), word)
            assert maxabs(k_val) < 1e-10


# --- table transforms ----------------------------------------------------------------

def test_moments_from_semicircular_cumulant_table():
    # A variance-1 pair-partition cumulant table reproduces the moment
    # sequence counted by non-crossing pairings.
    for n in (4, 6):
        chi = ChiWord("l" * n)
        table = {}
        for p in enumerate_bnc(chi):
            is_pair = all(len(b) == 2 for b in p.blocks)
            table[p] = np.array([[1.0 if is_pair else 0.0]], dtype=complex)
        got = moments_from_cumulants(table, one_partition(chi))[0, 0].real
        assert got == nc_pair_partition_count(n)


def test_only_first_order_cumulants():
    c = 0.7
    for n in (1, 2, 3, 4):
        chi = ChiWord("l" * n)
        table = {}
        for p in enumerate_bnc(chi):
            all_single = all(len(b) == 1 for b in p.blocks)
            table[p] = np.array([[c ** n if all_single else 0.0]], dtype=complex)
        got = moments_from_cumulants(table, one_partition(chi))[0, 0].real
        assert abs(got - c ** n) < 1e-12


def test_table_round_trip_random():
    rng = np.random.default_rng(4)
    for d in (1, 2):
        for labels in ("lr", "lrl", "rllr", "lrlrr"):
            chi = ChiWord(labels)
            parts = enumerate_bnc(chi)
            ktab = {p: random_belement(d, rng) for p in parts}
            mtab = {p: moments_from_cumulants(ktab, p) for p in parts}
            back = {p: cumulants_from_moments(mtab, p) for p in parts}
            assert max(maxabs(ktab[p] - back[p]) for p in parts) < 1e-10


def test_incomplete_table_rejected():
    chi = ChiWord("ll")
    table = {zero_partition(chi): np.eye(1)}
    with pytest.raises(ValueError):
        moments_from_cumulants(table, one_partition(chi))


def test_incomplete_moment_table_rejected():
    chi = ChiWord("ll")
    table = {zero_partition(chi): np.eye(1)}
    with pytest.raises(ValueError):
        cumulants_from_moments(table, one_partition(chi))


def test_interval_table_suffices():
    rng = np.random.default_rng(5)
    chi = ChiWord("lrrlr")
    parts = enumerate_bnc(chi)
    full = {p: random_belement(2, rng) for p in parts}
    for blocks in ([[1, 4], [2, 5], [3]], [[1, 5], [2, 3], [4]]):
        pi = BncPartition(blocks, chi)
        below = {s: v for s, v in full.items() if lattice_leq(s, pi)}
        assert len(below) < len(parts)
        for transform in (moments_from_cumulants, cumulants_from_moments):
            assert np.array_equal(transform(below, pi), transform(full, pi))


def test_transforms_match_lattice_scan():
    # the hand-written scan both transforms replaced; same summation order
    rng = np.random.default_rng(6)
    chi = ChiWord("rllrl")
    parts = enumerate_bnc(chi)
    table = {p: random_belement(2, rng) for p in parts}
    for pi in parts:
        moment, cumulant = None, None
        for sigma in parts:
            if lattice_leq(sigma, pi):
                v = table[sigma]
                term = mobius_bnc(sigma, pi) * v
                moment = v if moment is None else moment + v
                cumulant = term if cumulant is None else cumulant + term
        assert np.array_equal(moments_from_cumulants(table, pi), moment)
        assert np.array_equal(cumulants_from_moments(table, pi), cumulant)


def _table_values(n_entries, d, rng):
    """``n_entries`` seeded (d, d) values whose real and imaginary parts are
    each +0.0 or -0.0 (a fifth each), NaN, inf or -inf (one in a hundred
    each), or else a normal draw."""
    parts = rng.standard_normal((n_entries, d, d, 2))
    u = rng.random(parts.shape)
    for lo, hi, x in ((0.0, 0.2, 0.0), (0.2, 0.4, -0.0), (0.4, 0.41, math.nan),
                      (0.41, 0.42, math.inf), (0.42, 0.43, -math.inf)):
        parts[(lo <= u) & (u < hi)] = x
    return parts.view(complex)[..., 0]


def _bits(a):
    """The bytes of a complex array with every NaN replaced by one NaN.

    Which of two NaN operands numpy's complex add returns differs between
    its scalar and SIMD loops (the term loop itself returns one NaN at d=1
    and the other at d=2), and the sign of a NaN is never printed; every
    other bit, the sign of a zero included, is compared.
    """
    f = np.ascontiguousarray(a, dtype=complex).view(float)
    return np.where(np.isnan(f), math.nan, f).tobytes()


def _bit_test_chis():
    for n in range(1, 7):
        yield from map(ChiWord, itertools.product("lr", repeat=n))
    rng = np.random.default_rng(16)
    for n in (7, 8):
        yield ChiWord(rng.choice(["l", "r"], size=n))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_transforms_bit_exact_against_term_loops():
    # Every pi of every chi up to n = 6 and of seeded chi of length 7 and 8,
    # through the per-partition transforms and the whole-table one.
    rng = np.random.default_rng(17)
    for chi in _bit_test_chis():
        parts = enumerate_bnc(chi)
        arrays = [_table_values(len(parts), d, rng) for d in (1, 2)]
        for values in arrays:
            table = dict(zip(parts, values))
            moments = transform_table(chi, values, "moments")
            cumulants = transform_table(chi, values, "cumulants")
            for i, pi in enumerate(parts):
                interval = lower_interval_by_product(pi)
                moment = _bits(moments_from_cumulants_loop(table, interval))
                cumulant = _bits(cumulants_from_moments_loop(table, interval))
                assert _bits(moments_from_cumulants(table, pi)) == moment, (chi, pi)
                assert _bits(moments[i]) == moment, (chi, pi)
                assert _bits(cumulants_from_moments(table, pi)) == cumulant, (chi, pi)
                assert _bits(cumulants[i]) == cumulant, (chi, pi)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_transform_table_in_runs_matches_one_run(d, monkeypatch):
    # Runs of a few entries each (the cap is 2^18 / d^2 entries) sum the
    # same intervals, in the same order, as one run of the whole table.
    rng = np.random.default_rng(18 + d)
    chi = ChiWord(rng.choice(["l", "r"], size=7))
    values = _table_values(catalan(7), d, rng)
    whole = {to: transform_table(chi, values, to) for to in ("moments", "cumulants")}
    runs = bifree.moments.lower_interval_arrays
    monkeypatch.setattr(
        bifree.moments, "lower_interval_arrays", lambda n, cap: runs(n, cap >> 14)
    )
    for to, want in whole.items():
        assert _bits(transform_table(chi, values, to)) == _bits(want)


def test_transform_table_names_the_first_missing_entry():
    # The first pi in enumeration order whose interval lacks an entry, and the
    # first lacking one in its interval, as the per-partition transform finds.
    chi = ChiWord("lrrlr")
    parts = enumerate_bnc(chi)
    values = np.ones((len(parts), 1, 1), dtype=complex)
    for gone in ([0], [17, 30], [41], [20, 5]):
        present = np.ones(len(parts), dtype=bool)
        present[gone] = False
        table = {p: v for p, v, ok in zip(parts, values, present) if ok}
        for to, per_pi, kind in (("moments", moments_from_cumulants, "cumulant"),
                                 ("cumulants", cumulants_from_moments, "moment")):
            with pytest.raises(ValueError) as want:
                for pi in parts:
                    per_pi(table, pi)
            with pytest.raises(ValueError) as got:
                transform_table(chi, values, to, present)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith(f"{kind} table missing entry for BncPartition(")


def test_transform_table_rejects_a_bad_request():
    chi = ChiWord("lr")
    with pytest.raises(ValueError, match="to must be"):
        transform_table(chi, np.ones((2, 1, 1)), "cumulant")
    with pytest.raises(ValueError, match="expected 2 table values"):
        transform_table(chi, np.ones((3, 1, 1)), "moments")


# --- product expansion ----------------------------------------------------------------

def test_chi_of_groups_final_group_may_mix():
    chi_hat = ChiWord("lllr")
    grouped = chi_of_groups(chi_hat, [2, 2])
    assert str(grouped) == "lr"


def test_product_expansion_trivial_grouping(scalar_model):
    s = scalar_model.symbol("S1")
    rep = product_cumulant_expand(
        scalar_model.functional, ChiWord("ll"), [1, 1], [Monomial([s])] * 2
    )
    assert rep["residual"] < 1e-12
    assert abs(rep["lhs"][0, 0] - 1.0) < 1e-12


def test_product_expansion_squared_semicircular(scalar_model):
    # grouped kappa_2(s^2, s^2) equals the number of pairings connecting the
    # two groups: brute-force over the embedded lattice gives 1.
    s = scalar_model.symbol("S1")
    rep = product_cumulant_expand(
        scalar_model.functional, ChiWord("llll"), [2, 2], [Monomial([s])] * 4
    )
    assert rep["residual"] < 1e-12
    assert abs(rep["lhs"][0, 0] - 1.0) < 1e-12


def test_product_expansion_operator_valued_random():
    rng = np.random.default_rng(9)
    model = make_bisemicircular([random_cpmap(2, rng)], [random_cpmap(2, rng)])
    S, D = model.symbol("S1"), model.symbol("D1")
    rep = product_cumulant_expand(
        model.functional,
        ChiWord("llr"),
        [2, 1],
        [Monomial([S]), Monomial([S, Lb(random_belement(2, rng))]), Monomial([D])],
    )
    assert rep["residual"] < 1e-9


def test_product_expansion_matches_nested_scan(scalar_model, flip_model):
    # Instances drawn as in the acceptance criterion: a random side word with
    # constant non-final groups, one generator per letter and a coefficient
    # on about one letter in three.  Exact: every cumulant sums the same
    # terms in the same order as a full scan.
    rng = np.random.default_rng(11)
    for trial in range(100):
        model = flip_model if trial % 2 else scalar_model
        n = int(rng.integers(2, 6))
        cuts = sorted({int(c) for c in rng.integers(1, n, size=n // 2)} | {n})
        sizes = [b - a for a, b in zip([0] + cuts, cuts)]
        labels = []
        for g, size in enumerate(sizes):
            if g < len(sizes) - 1:
                labels += ["lr"[rng.integers(2)]] * size
            else:
                labels += ["lr"[rng.integers(2)] for _ in range(size)]
        chi_hat = ChiWord(labels)
        ops = []
        for side in labels:
            pool = [s for s in model.symbols if s.side == side]
            w = Monomial([pool[rng.integers(len(pool))]])
            if rng.integers(3) == 0:
                b = random_belement(model.dim, rng)
                w = w * (Lb(b) if side == "l" else Rb(b))
            ops.append(w)
        rep = product_cumulant_expand(model.functional, chi_hat, sizes, ops)
        lhs, rhs = product_cumulant_expand_nested(model.functional, chi_hat, sizes, ops)
        assert np.array_equal(rep["lhs"], lhs) and np.array_equal(rep["rhs"], rhs)


# --- bi-freeness scan ---------------------------------------------------------------

def test_bifree_scan_passes_for_fock_families(scalar_model):
    rep = bifree_test(scalar_model.functional, scalar_model.symbols, max_order=4)
    assert rep["pass"] and rep["max_residual"] < 1e-9


def test_bifree_scan_vacuous_single_family(scalar_model):
    s = scalar_model.symbol("S1")
    rep = bifree_test(scalar_model.functional, [s], max_order=4)
    assert rep["pass"] and rep["vacuous"]


def test_bifree_scan_vacuous_report_has_full_shape(scalar_model, monkeypatch):
    # A vacuous scan enumerates no word, yet reports the keys of a real one.
    full = bifree_test(scalar_model.functional, scalar_model.symbols, max_order=3)

    def no_words(*args, **kwargs):
        raise AssertionError("a vacuous scan enumerated words")

    monkeypatch.setattr(bifree.moments, "product", no_words)
    rep = bifree_test(scalar_model.functional, [scalar_model.symbol("S1")], max_order=3)
    assert rep.keys() == full.keys()
    assert rep["vacuous"] and not full["vacuous"]
    assert (rep["tested"], rep["violation_count"], rep["worst_word"]) == (0, 0, None)


def test_bifree_scan_bounds(scalar_model):
    # Mixed cumulants start at order two; a NaN tolerance would pass anything.
    for max_order in (-1, 0, 1, 9):
        with pytest.raises(ValueError):
            bifree_test(scalar_model.functional, scalar_model.symbols, max_order=max_order)
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            bifree_test(scalar_model.functional, scalar_model.symbols, max_order=2, tol=tol)
    assert bifree_test(scalar_model.functional, scalar_model.symbols, max_order=2)["pass"]


def test_bifree_scan_detects_planted_covariance():
    one = CPMap.identity(1)
    fm = FockModel(1, ("k",), ("j",), {"k": one, "j": one})
    A = fm.register_symbol(
        GeneratorSymbol("A", "l", family="a"), [(1.0, ("l", "k")), (1.0, ("l*", "k"))]
    )
    B = fm.register_symbol(
        GeneratorSymbol("B", "l", family="b"),
        [(0.5, ("l", "k")), (0.5, ("l*", "k")), (1.0, ("l*", "j"))],
    )
    rep = bifree_test(fm.functional, [A, B], max_order=3)
    assert not rep["pass"]
    k2 = [v for v in rep["violations"] if v["order"] == 2]
    assert any(abs(v["residual"] - 0.5) < 1e-9 for v in k2)


def test_bifree_scan_matrix_path_agrees_with_scalar():
    # the dim-1 fast path and the generic cumulant agree on mixed words
    one = CPMap.identity(1)
    model = make_bisemicircular([one], [one])
    F = model.functional
    s, d = model.symbol("S1"), model.symbol("D1")
    for word in ((s, d), (s, d, s), (d, s, d, s)):
        chi = ChiWord([w.side for w in word])
        via_matrix = cumulant_pi(F, one_partition(chi), [Monomial([w]) for w in word])
        from bifree.moments import _scalar_top_cumulant

        via_scalar = _scalar_top_cumulant(F, word, chi)
        assert abs(via_matrix[0, 0] - via_scalar) < 1e-12
