#!/usr/bin/env python3
"""Tour of the bi-non-crossing partition lattice.

Positions of a word are tagged left or right; reading lefts top-down and
rights bottom-up straightens a two-line diagram into a single line.  A
partition is bi-non-crossing when it is non-crossing after that reading.
"""

from bifree import (
    BncPartition,
    ChiWord,
    catalan,
    enumerate_bnc,
    is_bnc,
    lattice_join,
    mobius_bnc,
    one_partition,
    s_chi,
    zero_partition,
)
from bifree.bnc import MAX_ENUM_N

# The classic six-point example: lefts at 1,2,3,6 and rights at 4,5.
chi = ChiWord("lllrrl")
print("word:", chi)
print("induced permutation:", s_chi(chi))

pi = [[1, 4], [2, 5], [3, 6]]
print(f"\n{pi} crosses as an ordinary partition, but in the two-line")
print("picture it is non-crossing:", is_bnc(pi, chi))
print("same blocks over an all-left word:", is_bnc(pi, ChiWord("llllll")))

print("\nlattice sizes are Catalan numbers:")
for n in range(1, 7):
    word = ChiWord("lr" * (n // 2) + "l" * (n % 2))
    print(f"  n={n}: |BNC| = {len(enumerate_bnc(word))} = Catalan({n}) = {catalan(n)}")

print("\nthe five partitions over 'llr':")
for p in enumerate_bnc(ChiWord("llr")):
    print("  ", list(map(list, p.blocks)))

chi3 = ChiWord("lrl")
a = zero_partition(chi3)
b = BncPartition([[1, 3], [2]], chi3)
print("\njoin of", list(map(list, a.blocks)), "and", list(map(list, b.blocks)),
      "->", list(map(list, lattice_join(a, b).blocks)))

print("\nMoebius values mu(0, 1) alternate in sign and grow like Catalan:")
for n in range(1, MAX_ENUM_N + 1):
    word = ChiWord("l" * n)
    print(f"  n={n}: {mobius_bnc(zero_partition(word), one_partition(word))}")
