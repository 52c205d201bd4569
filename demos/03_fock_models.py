#!/usr/bin/env python3
"""Fock-space models: the source of every ground-truth expectation.

Every builder returns a ``FockModel``: its moment functional, its symbols
(looked up by name) and its word actions.  States are words with matrix
coefficients between symbols; creation prepends or appends a symbol,
annihilation feeds a coefficient through the covariance map of the matching
index.  The moment of an operator word of length n never needs depth beyond
n/2, so all moments are exact.
"""

import numpy as np

from bifree import (
    ChiWord,
    Lb,
    Monomial,
    bifree_test,
    cumulant_chi,
    eta_flip,
    make_bisemicircular,
    make_circular_pair,
)
from bifree.balgebra import CPMap
from bifree.fock import FockModel, FockVector
from bifree.words import GeneratorSymbol

print("variance-1 semicircular on the left face: even moments are Catalan")
model = make_bisemicircular([CPMap.identity(1)], [])
s = model.symbol("S1")
for k in (2, 4, 6, 8):
    m = model.functional.expect(Monomial([s] * k))[0, 0].real
    print(f"  m_{k} = {m:g}")

print("\nmatrix coefficients with the diagonal-swapping covariance:")
flip = eta_flip()
m2 = make_bisemicircular([flip], [flip])
S, D = m2.symbol("S1"), m2.symbol("D1")
rng = np.random.default_rng(1)
b = rng.standard_normal((2, 2))
k = cumulant_chi(m2.functional, ChiWord("ll"), [Monomial([S, Lb(b)]), Monomial([S])])
print("  b =\n", np.round(b, 3))
print("  kappa_2(S L_b, S) =\n", np.round(k.real, 3))
print("  covariance map of b =\n", np.round(flip(b), 3))

print("\nleft and right operators commute:", end=" ")
vac = FockVector.vacuum(2)
sd = m2.apply_word(Monomial([S, D]), vac)
ds = m2.apply_word(Monomial([D, S]), vac)
diff = sd - ds
print("max |[S,D] vacuum| =", max((abs(np.asarray(t)).max() for t in diff.terms.values()), default=0.0))

print("\nscanning mixed cumulants of two independent directions: all vanish")
one = CPMap.identity(1)
family = make_bisemicircular([one, one], [one, one])
rep = bifree_test(family.functional, family.symbols, max_order=4)
print(f"  tested {rep['tested']} words, max residual {rep['max_residual']:.2e} -> pass={rep['pass']}")

print("\ntwo generators sharing one direction are flagged at order two:")
fm = FockModel(1, ("k",), (), {"k": one})
A = fm.register_symbol(GeneratorSymbol("A", "l", family="a"), [(1.0, ("l", "k")), (1.0, ("l*", "k"))])
B = fm.register_symbol(GeneratorSymbol("B", "l", family="b"), [(1.0, ("l", "k")), (1.0, ("l*", "k"))])
rep = bifree_test(fm.functional, [A, B], max_order=3)
worst = rep["violations"][0]
print(f"  pass={rep['pass']}; worst: order {worst['order']} word {worst['word']} residual {worst['residual']:g}")

print("\nthe circular pair: (s1 + i s2)/sqrt(2) against its right analogue")
cp = make_circular_pair()
cl, cr = cp.symbol("cl"), cp.symbol("cr")
cls = cl.star()
phi = lambda *w: cp.functional.expect(Monomial(list(w)))[0, 0].real
print(f"  phi(c* c) = {phi(cls, cl):g},  phi(c c) = {phi(cl, cl):g}")
print(f"  phi(c c* c c*) = {phi(cl, cls, cl, cls):g}")
print(f"  phi(c c_r) = {phi(cl, cr):g}  (independent faces)")
