"""Lattice laws of BNC(chi) and the partition type's keys, as derandomized
property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import refines, relabel_nc

from bifree.bnc import (
    BncPartition,
    ChiWord,
    enumerate_bnc,
    lattice_join,
    lattice_leq,
    lattice_meet,
    one_partition,
    zero_partition,
)

LAWS = settings(derandomize=True, deadline=None, database=None)


@st.composite
def bnc_triples(draw):
    """Three partitions of BNC(chi), for a drawn chi of length <= 7."""
    n = draw(st.integers(1, 7))
    chi = ChiWord(draw(st.lists(st.sampled_from("lr"), min_size=n, max_size=n)))
    parts = enumerate_bnc(chi)
    index = st.integers(0, len(parts) - 1)
    return tuple(parts[draw(index)] for _ in range(3))


@LAWS
@given(bnc_triples())
def test_join_and_meet_laws(triple):
    a, b, c = triple
    for op in (lattice_join, lattice_meet):
        assert op(a, b) == op(b, a)
        assert op(op(a, b), c) == op(a, op(b, c))
        assert op(a, a) == a
    assert lattice_join(a, lattice_meet(a, b)) == a
    assert lattice_meet(a, lattice_join(a, b)) == a


@LAWS
@given(bnc_triples())
def test_order_agrees_with_join_and_meet(triple):
    a, b, _ = triple
    # random pairs are rarely comparable; the last two pairs always are
    for x, y in ((a, b), (b, a), (a, lattice_join(a, b)), (lattice_meet(a, b), b)):
        leq = lattice_leq(x, y)
        assert (lattice_join(x, y) == y) == leq
        assert (lattice_meet(x, y) == x) == leq


# --- the partition type: NC coordinates against position coordinates --------

@st.composite
def bnc_pairs(draw):
    """Two partitions of BNC(chi), drawn by index, for a drawn chi of length <= 8."""
    n = draw(st.integers(1, 8))
    chi = ChiWord(draw(st.lists(st.sampled_from("lr"), min_size=n, max_size=n)))
    parts = enumerate_bnc(chi)
    index = st.integers(0, len(parts) - 1)
    return parts[draw(index)], parts[draw(index)]


@LAWS
@given(bnc_pairs())
def test_partition_keys_and_round_trips(pair):
    p, q = pair
    chi = p.chi
    assert p.blocks == relabel_nc(p.nc, chi)
    built = BncPartition(p.blocks, chi)
    assert built == p and hash(built) == hash(p) and built.nc == p.nc
    assert BncPartition.from_json(p.to_json()) == p
    assert (p == q) == (p.blocks == q.blocks)
    # The same NC picture over another side word is another partition.
    other = ChiWord("r" if x == "l" else "l" for x in chi.labels)
    twin = enumerate_bnc(other)[enumerate_bnc(chi).index(p)]
    assert twin.nc == p.nc and twin != p


def _split_last(p):
    """A partition below ``p``: the last element of its first block of size
    >= 2 moves to a block of its own (or ``p`` itself if every block is a
    singleton)."""
    blocks = [list(b) for b in p.blocks]
    for b in blocks:
        if len(b) > 1:
            blocks.append([b.pop()])
            break
    return BncPartition(blocks, p.chi)


@LAWS
@given(bnc_pairs())
def test_order_agrees_with_position_refinement(pair):
    a, b = pair
    below = _split_last(a)
    pairs = [(a, b), (b, a), (below, a), (a, below), (a, a)]
    pairs += [(zero_partition(a.chi), a), (a, one_partition(a.chi)), (one_partition(a.chi), a)]
    pairs += [(a, lattice_join(a, b)), (lattice_meet(a, b), b)]
    for x, y in pairs:
        assert lattice_leq(x, y) == refines(x.blocks, y.blocks), (x, y)
    assert lattice_leq(below, a)
