"""Lattice-level tests with independent combinatorial oracles."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from oracles import (
    all_set_partitions,
    has_crossing,
    mobius_nc,
    mobius_top_table_by_positions,
    zeta_inverse_mobius,
)

from bifree.bnc import (
    MAX_ENUM_N,
    BncPartition,
    _block_factors,
    _interval_table,
    _nc_all,
    ChiWord,
    catalan,
    enumerate_bnc,
    enumerate_bnc_avoiding,
    enumerate_nc,
    find_bnc,
    is_bnc,
    lattice_join,
    lattice_leq,
    lattice_meet,
    lower_interval,
    mobius_bnc,
    mobius_top_table,
    one_partition,
    s_chi,
    s_chi_inverse,
    zero_partition,
)

# --- s_chi and the chi-order ---------------------------------------------------

def test_s_chi_paper_example():
    chi = ChiWord("lllrrl")
    assert s_chi(chi) == (1, 2, 3, 6, 5, 4)


def test_s_chi_pure_sides():
    assert s_chi(ChiWord("lll")) == (1, 2, 3)
    assert s_chi(ChiWord("rrr")) == (3, 2, 1)


def test_s_chi_inverse_consistent():
    chi = ChiWord("lrrllr")
    s = s_chi(chi)
    inv = s_chi_inverse(chi)
    for rank, pos in enumerate(s, start=1):
        assert inv[pos - 1] == rank


def test_chi_less():
    # i precedes j in the chi-order iff its visiting rank is lower
    for i, j, labels in ((1, 2, "lr"), (2, 1, "rr"), (6, 5, "lllrrl")):
        inv = s_chi_inverse(ChiWord(labels))
        assert inv[i - 1] < inv[j - 1]


# --- membership ----------------------------------------------------------------

def test_is_bnc_paper_example():
    chi = ChiWord("lllrrl")
    assert is_bnc([[1, 4], [2, 5], [3, 6]], chi)
    assert not is_bnc([[1, 4], [2, 5], [3, 6]], ChiWord("llllll"))


def test_singletons_always_bnc():
    for labels in ("l", "lr", "rllr", "rrrlll"):
        chi = ChiWord(labels)
        assert is_bnc([[k] for k in range(1, chi.n + 1)], chi)


def test_is_bnc_against_quartic_scan():
    rng = np.random.default_rng(42)
    for n in range(2, 7):
        for _ in range(3):
            labels = "".join("l" if rng.integers(2) else "r" for _ in range(n))
            chi = ChiWord(labels)
            inv = s_chi_inverse(chi)
            for blocks in all_set_partitions(n):
                relabeled = tuple(tuple(inv[x - 1] for x in b) for b in blocks)
                expected = not has_crossing(relabeled)
                assert is_bnc(blocks, chi) == expected


def test_is_bnc_rejects_non_partition():
    with pytest.raises(ValueError):
        is_bnc([[1, 2], [2, 3]], ChiWord("lll"))
    with pytest.raises(ValueError):
        is_bnc([[1]], ChiWord("ll"))


@pytest.mark.parametrize(
    "blocks, chi",
    [([[1, 1], [2]], "ll"), ([[1], [2, 2]], "lr"), ([[1], [2], [3], []], "lll"),
     ([[], [1, 2]], "rl"), ([[1, 2, 1]], "ll"), ([[True], [2]], "ll"),
     ([[1.0], [2]], "ll"), ([["1"], [2]], "ll")],
)
def test_partition_with_repeat_or_empty_block_rejected(blocks, chi):
    # Canonicalizing first used to drop the repeat, or index an empty block;
    # True was read as 1, and 1.0 or "1" failed later with a TypeError.
    with pytest.raises(ValueError):
        BncPartition(blocks, ChiWord(chi))


# --- enumeration ----------------------------------------------------------------

def test_counts_are_catalan():
    assert len(enumerate_bnc(ChiWord("l"))) == 1
    for labels in ("llr", "rlr", "lll"):
        assert len(enumerate_bnc(ChiWord(labels))) == 5
    for labels in ("lrlrl", "rrrrr", "llrrl"):
        assert len(enumerate_bnc(ChiWord(labels))) == 42


def test_catalan_closed_form():
    c = 1  # Cat(k+1) = Cat(k) 2(2k+1)/(k+2)
    for k in range(30):
        assert catalan(k) == c
        c = c * 2 * (2 * k + 1) // (k + 2)
    with pytest.raises(ValueError):
        catalan(-1)


# sha256 of repr(enumerate_nc(n)): every Moebius table, interval index and
# summation order is keyed by this order.
NC_ORDER_SHA256 = {
    1: "643db1aa8c053beb7cf53628a5c9fb00f73b4113557f1d9b0cf1fead35919eb0",
    2: "8f562324fd8c04ddcf665cf1a73bcc5f0c1d5b6edc6307ef21b6c59877692dde",
    3: "ab92a7fa41c1fa6e8bc0daa2566d89a62de78a10d1da97a7d5dfbdd71f28f751",
    4: "0607bdc9a2c6e5ed224b32cee53d96d41ed988d3d97bf6dbd34c46e50a84ad06",
    5: "52c2590a1aa63546259b5b9bb0ccc43a7e07832a1a2b2c1cf07af2f355b45420",
    6: "ce10d4b65f8fff52ad1a91ff1a18288d99b6690942020a3a0b1623fc73015edf",
    7: "0f4ecbd0a46c89411763e9340a2fedf9db9c042a614523bc04fe88e979213554",
    8: "21ddcf7f80af7213838b40b2ce07464fd04cdbf4a8b36cb71b56b3543972a94c",
    9: "478690e18f88ecb987d3391cff2cda03a917346d3540515fffe86c310ebde74a",
    10: "833b5858e1ed4b569d4a8b3c9916e7d5a9f8fb3f2566aeb204aa8ef36479f7f3",
}


@pytest.mark.parametrize("n", sorted(NC_ORDER_SHA256))
def test_nc_enumeration_order_pinned(n):
    got = hashlib.sha256(repr(enumerate_nc(n)).encode()).hexdigest()
    assert got == NC_ORDER_SHA256[n]


def test_enumeration_matches_filtered_set_partitions():
    chi = ChiWord("lrrl")
    expected = {
        tuple(sorted(tuple(sorted(b)) for b in p))
        for p in all_set_partitions(4)
        if is_bnc(p, chi)
    }
    got = {p.blocks for p in enumerate_bnc(chi)}
    assert got == expected


def test_enumeration_deterministic_and_bounded():
    a = [p.blocks for p in enumerate_bnc(ChiWord("lrlr"))]
    b = [p.blocks for p in enumerate_bnc(ChiWord("lrlr"))]
    assert a == b
    with pytest.raises(ValueError):
        enumerate_bnc(ChiWord("lr" * 7))


def test_enumeration_golden_order():
    # the canonical order is frozen: changing it silently would break
    # downstream golden files
    got = [list(map(list, p.blocks)) for p in enumerate_bnc(ChiWord("lll"))]
    assert got == [
        [[1], [2], [3]],
        [[1], [2, 3]],
        [[1, 2], [3]],
        [[1, 3], [2]],
        [[1, 2, 3]],
    ]
    got = [list(map(list, p.blocks)) for p in enumerate_bnc(ChiWord("lr"))]
    assert got == [[[1], [2]], [[1, 2]]]


def test_enumeration_is_trusted_relabelling():
    # enumerated partitions skip validation: they must equal validated ones
    # and share the NC(n) tuples as their NC picture
    rng = np.random.default_rng(5)
    words = [w for n in range(1, 7) for w in itertools.product("lr", repeat=n)]
    words += [rng.choice(["l", "r"], size=n) for n in (7, 8) for _ in range(3)]
    for labels in words:
        chi = ChiWord(labels)
        nc = _nc_all(chi.n)
        for i, p in enumerate(enumerate_bnc(chi)):
            q = BncPartition(p.blocks, chi)
            assert q == p and q.nc == p.nc
            assert p.nc is nc[i]
            # the lookup finds the enumerated partition from any block order
            assert find_bnc([b[::-1] for b in p.blocks[::-1]], chi) is p


def test_find_bnc_rejects_like_the_constructor():
    # Every set partition that is not BNC, and malformed inputs, fail the
    # lookup with the exception the full check raises.
    rng = np.random.default_rng(9)
    bad = [[[1, 1], [2]], [[0], [2]], [[1], [3]], [[1]], [[1], []], [[True], [2]],
           [[1.0], [2]], [["1"], [2]], [[1, 2], [2]], [1, 2], [[1, 2], [2.5]]]
    cases = [(raw, ChiWord("lr")) for raw in bad]
    for n in range(4, 7):
        for _ in range(3):
            chi = ChiWord(rng.choice(["l", "r"], size=n))
            cases += [(list(b), chi) for b in all_set_partitions(n) if not is_bnc(b, chi)]
    assert len(cases) > 100
    for raw, chi in cases:
        with pytest.raises(Exception) as want:
            BncPartition(raw, chi)
        with pytest.raises(type(want.value)) as got:
            find_bnc(raw, chi)
        assert str(got.value) == str(want.value)


# --- lattice operations ----------------------------------------------------------

def test_join_meet_identities():
    rng = np.random.default_rng(7)
    for labels in ("lrl", "rllr", "lrlrr"):
        chi = ChiWord(labels)
        parts = enumerate_bnc(chi)
        zero, one = zero_partition(chi), one_partition(chi)
        for _ in range(10):
            sigma = parts[rng.integers(len(parts))]
            assert lattice_join(sigma, zero) == sigma
            assert lattice_meet(sigma, one) == sigma
            assert lattice_leq(zero, sigma) and lattice_leq(sigma, one)


def test_join_example_and_brute_force():
    chi = ChiWord("lrl")
    a = BncPartition([[1], [2], [3]], chi)
    b = BncPartition([[1, 3], [2]], chi)
    assert lattice_join(a, b) == b
    # the join in P(n), [[1, 3], [2, 4]], crosses: the least upper bound is 1
    chi = ChiWord("llll")
    a = BncPartition([[1, 3], [2], [4]], chi)
    b = BncPartition([[1], [2, 4], [3]], chi)
    assert lattice_join(a, b) == one_partition(chi)
    # join is the least common coarsening inside the lattice, for every pair
    # (one word of length 6: some faults of the closure first show there)
    words = [*itertools.product("lr", repeat=4), "lllll", "lrlrl", "rrllr", "lrrlrl"]
    for labels in words:
        parts = enumerate_bnc(ChiWord(labels))
        above = {x: [p for p in parts if lattice_leq(x, p)] for x in parts}
        for x in parts:
            for y in parts:
                j = lattice_join(x, y)
                uppers = [p for p in above[x] if lattice_leq(y, p)]
                assert j in uppers
                assert all(lattice_leq(j, u) for u in uppers)


def test_meet_is_common_refinement():
    chi = ChiWord("llrr")
    x = BncPartition([[1, 2], [3, 4]], chi)
    y = BncPartition([[1, 2, 3, 4]], chi)
    assert lattice_meet(x, y) == x
    z = BncPartition([[1], [2, 3], [4]], chi)
    assert lattice_meet(x, z).blocks == ((1,), (2,), (3,), (4,))


def test_mismatched_chi_rejected():
    a = zero_partition(ChiWord("lr"))
    b = zero_partition(ChiWord("rl"))
    with pytest.raises(ValueError):
        lattice_join(a, b)
    with pytest.raises(ValueError):
        mobius_bnc(a, b)


# --- Moebius function -------------------------------------------------------------

def test_mobius_basic_values():
    chi2 = ChiWord("lr")
    assert mobius_bnc(one_partition(chi2), one_partition(chi2)) == 1
    assert mobius_bnc(zero_partition(chi2), one_partition(chi2)) == -1
    chi3 = ChiWord("rlr")
    assert mobius_bnc(zero_partition(chi3), one_partition(chi3)) == 2


def test_mobius_zero_when_not_leq():
    chi = ChiWord("llr")
    a = BncPartition([[1, 2], [3]], chi)
    b = BncPartition([[1], [2, 3]], chi)
    assert mobius_bnc(a, b) == 0


def test_mobius_extreme_values():
    for n in range(1, MAX_ENUM_N + 1):
        chi = ChiWord("lr" * (n // 2) + "l" * (n % 2))
        assert mobius_bnc(zero_partition(chi), one_partition(chi)) == (-1) ** (
            n - 1
        ) * catalan(n - 1)


def test_mobius_against_zeta_inverse():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        parts_nc, idx, mu = zeta_inverse_mobius(n)
        labels = "".join("l" if rng.integers(2) else "r" for _ in range(n))
        chi = ChiWord(labels)
        bparts = enumerate_bnc(chi)
        for a in bparts:
            for b in bparts:
                got = mobius_bnc(a, b)
                want = mu[idx[a.nc], idx[b.nc]]
                assert abs(got - round(want)) == 0 and abs(want - round(want)) < 1e-6


def test_mobius_nc_rejects_crossing():
    crossing, one = [[1, 3], [2, 4]], [[1, 2, 3, 4]]
    with pytest.raises(ValueError):
        mobius_nc(crossing, one, 4)
    with pytest.raises(ValueError):
        mobius_nc(one, crossing, 4)
    # On an all-left chi word BNC(chi) is NC(n): mu(0, 1) = -Cat(3).
    chi = ChiWord("llll")
    want = mobius_bnc(zero_partition(chi), one_partition(chi))
    assert mobius_nc([[1], [2], [3], [4]], one, 4) == want == -5


def test_mobius_top_table():
    # Entry i is the i-th partition of enumerate_bnc(chi), in NC coordinates,
    # with its Moebius value below the top, for every side word of the length.
    for n in range(1, 7):
        table = mobius_top_table(n)
        for labels in itertools.product("lr", repeat=n):
            chi = ChiWord(labels)
            one = one_partition(chi)
            want = [(s.nc, mobius_bnc(s, one)) for s in enumerate_bnc(chi)]
            assert list(table) == want
            assert list(mobius_top_table_by_positions(chi)) == [
                (s.blocks, mu) for s, (_, mu) in zip(enumerate_bnc(chi), want)
            ]
    for n in (0, MAX_ENUM_N + 1):
        with pytest.raises(ValueError):
            mobius_top_table(n)


def test_enumerate_bnc_avoiding():
    # The partitions of enumerate_bnc(chi), in order, with no block whose
    # chi-ranks (read from the position blocks) are one of the intervals; no
    # interval keeps every partition, and every interval keeps only
    # partitions with no interval block, i.e. none.
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        spans = [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
        for labels in itertools.product("lr", repeat=n):
            chi = ChiWord(labels)
            rank = s_chi_inverse(chi)
            parts = enumerate_bnc(chi)
            assert enumerate_bnc_avoiding(chi, []) == list(parts)
            assert enumerate_bnc_avoiding(chi, spans) == []
            avoid = [spans[i] for i in rng.choice(len(spans), size=min(3, len(spans)))]
            want = []
            for p in parts:
                ranks = [sorted(rank[x - 1] for x in b) for b in p.blocks]
                if not any(r == list(range(lo, hi + 1)) for r in ranks for lo, hi in avoid):
                    want.append(p)
            assert enumerate_bnc_avoiding(chi, avoid) == want
    chi = ChiWord("lrl")
    for bad in ((0, 1), (2, 1), (3, 4)):
        with pytest.raises(ValueError):
            enumerate_bnc_avoiding(chi, [bad])
    with pytest.raises(ValueError):
        enumerate_bnc_avoiding(ChiWord("l" * (MAX_ENUM_N + 1)), [])


def _interval_by_scan(pi):
    parts = enumerate_bnc(pi.chi)
    return tuple((s, mobius_bnc(s, pi)) for s in parts if lattice_leq(s, pi))


def test_lower_interval_matches_scan():
    # same entries in the same order: the table transforms sum in it
    for n in range(1, 7):
        for labels in itertools.product("lr", repeat=n):
            for pi in enumerate_bnc(ChiWord(labels)):
                assert lower_interval(pi) == _interval_by_scan(pi)


def test_lower_interval_matches_scan_sampled():
    rng = np.random.default_rng(11)
    for n in (7, 8):
        for _ in range(3):
            parts = enumerate_bnc(ChiWord(rng.choice(["l", "r"], size=n)))
            for i in rng.choice(len(parts), size=8, replace=False):
                assert lower_interval(parts[i]) == _interval_by_scan(parts[i])


def test_interval_cache_is_bounded():
    info = _interval_table.cache_info()
    assert info.maxsize is not None and info.maxsize >= catalan(8)


def test_block_factor_cache_is_bounded():
    # room for every block of a partition of 1..n up to n = 8
    info = _block_factors.cache_info()
    assert info.maxsize is not None and info.maxsize >= 2**8 - 1


def test_lower_interval_sizes():
    # sum over pi in NC(n) of |[0, pi]|: the number of 2-multichains
    for n, want in enumerate((1, 3, 12, 55, 273, 1428, 7752), start=1):
        chi = ChiWord(("lrr" * n)[:n])
        assert sum(len(lower_interval(p)) for p in enumerate_bnc(chi)) == want


def test_mobius_defining_recursion_small():
    chi = ChiWord("lrlr")
    parts = enumerate_bnc(chi)
    for pi in parts:
        for sigma in parts:
            if not lattice_leq(sigma, pi):
                continue
            total = sum(
                mobius_bnc(tau, pi)
                for tau in parts
                if lattice_leq(sigma, tau) and lattice_leq(tau, pi)
            )
            assert total == (1 if sigma == pi else 0)


# --- serialization ---------------------------------------------------------------

def test_json_round_trip():
    chi = ChiWord("lllrrl")
    p = BncPartition([[1, 4], [2, 5], [3, 6]], chi)
    obj = p.to_json()
    assert obj == {"n": 6, "chi": "lllrrl", "blocks": [[1, 4], [2, 5], [3, 6]]}
    assert BncPartition.from_json(json.loads(json.dumps(obj))) == p


@pytest.mark.parametrize("n", [True, 1.0, 2])
def test_from_json_reads_n_as_the_word_length(n):
    # JSON true and 1.0 equal 1 in Python; only the integer length is read,
    # and a partition without "n" takes its word's.
    obj = {"chi": "l", "blocks": [[1]]}
    assert BncPartition.from_json(obj) == BncPartition([[1]], ChiWord("l"))
    with pytest.raises(ValueError, match='field "n" must be the length 1 of chi'):
        BncPartition.from_json({"n": n, **obj})
