"""Lattice laws of BNC(chi) as derandomized property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.bnc import ChiWord, enumerate_bnc, lattice_join, lattice_leq, lattice_meet

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
