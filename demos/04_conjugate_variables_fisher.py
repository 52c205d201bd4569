#!/usr/bin/env python3
"""Conjugate variables and Fisher information.

A candidate state is a conjugate variable when the trace of every test word
against it matches the sum over target occurrences of the split-and-average
expression.  Verified candidates feed the Fisher information, the
perturbation decay law, and the minimization experiment that realizes the
factor-two relation between a circular pair and its matrix carriers.
"""

from bifree import (
    Monomial,
    PresenceContext,
    VectorCandidate,
    conj_residual,
    fisher_info,
    fisher_minimization_experiment,
    h_closed_form,
    make_bisemicircular,
    solve_conjugate,
)
from bifree.balgebra import CPMap

one = CPMap.identity(1)

print("the standard semicircular element is its own conjugate variable:")
model = make_bisemicircular([one], [])
s = model.symbol("S1")
cand = VectorCandidate(s, model.model.vector_of(Monomial([s])), model.model)
r = conj_residual(cand, one, PresenceContext(), 6)
print(f"  residual over words up to length 6: {r:.2e}")
print(f"  Fisher information: {fisher_info([cand]):g}")

print("\nscaling by lambda scales the conjugate by 1/lambda:")
for lam in (0.5, 2.0):
    m = make_bisemicircular([one], [])
    s0 = m.symbol("S1")
    target = m.model.combination_symbol("lam*s", s0.side, [(lam, s0)])
    c = VectorCandidate(target, m.model.vector_of(Monomial([s0])).scaled(1 / lam), m.model)
    r = conj_residual(c, one, PresenceContext(), 6)
    print(f"  lambda={lam}: residual {r:.2e}, Fisher {fisher_info([c]):g} = 1/lambda^2")

print("\nperturbing by an independent semicircular decays the information:")
m = make_bisemicircular([one, one], [])
s1, s2 = m.symbol("S1"), m.symbol("S2")
import math
for t in (0.0, 0.5, 1.0, 2.0, 10.0):
    u = m.model.combination_symbol(f"u{t}", "l", [(1.0, s1), (math.sqrt(t), s2)], family="u")
    c = VectorCandidate(u, m.model.vector_of(Monomial([u])).scaled(1 / (1 + t)), m.model)
    phi = fisher_info([c])
    print(f"  t={t:>4}: Fisher {phi:.6f}   closed form {h_closed_form(t, 1, 1):.6f}")

print("\nthe least-squares solver finds the same candidate from scratch:")
m = make_bisemicircular([one], [])
cand, resid = solve_conjugate(m.model, m.symbol("S1"), one, PresenceContext(), max_n=4)
print(f"  solver residual {resid:.2e}, Fisher {fisher_info([cand]):.6f}")

print("\nminimization experiment: circular pair vs its self-adjoint carriers")
rep = fisher_minimization_experiment(max_n=5)
print(f"  Fisher of the pair and adjoints: {rep['lhs']:g}")
print(f"  Fisher of the carriers:          {rep['rhs']:g}")
print(f"  ratio: {rep['ratio']:g}   (worst residual {rep['max_residual']:.2e})")
print(f"  Cramer-Rao product on the carriers: {rep['cramer_rao_product']:g} = K^2")
