#!/usr/bin/env python3
"""Conjugate variables and Fisher information.

A candidate state is a conjugate variable when the trace of every test word
against it matches the sum over target occurrences of the split-and-average
expression.  Each builder returns a conjugate system, a list of candidates,
and ``check_candidates`` tests each one among the other candidates'
targets.  Verified candidates feed the Fisher information, the
perturbation decay law, and the minimization experiment that realizes the
factor-two relation between a circular pair and its matrix carriers.
"""

from bifree import (
    check_candidates,
    fisher_info,
    fisher_minimization_experiment,
    h_closed_form,
    solve_conjugate,
)
from bifree.balgebra import CPMap
from bifree.conjvar import scaled_semicircular, semicircular_perturbation

print("the standard semicircular element is its own conjugate variable:")
(cand,) = cands = scaled_semicircular(1.0)
chk = check_candidates(cands, 6)
print(f"  residual over words up to length 6: {chk['max_residual']:.2e}")
print(f"  Fisher information: {chk['fisher']:g}")

print("\nscaling by lambda scales the conjugate by 1/lambda:")
for lam in (0.5, 2.0):
    chk = check_candidates(scaled_semicircular(lam), 6)
    r, phi = chk["max_residual"], chk["fisher"]
    print(f"  lambda={lam}: residual {r:.2e}, Fisher {phi:g} = 1/lambda^2")

print("\nperturbing by an independent semicircular decays the information:")
family = semicircular_perturbation()
for t in (0.0, 0.5, 1.0, 2.0, 10.0):
    phi = fisher_info(family(t))
    print(f"  t={t:>4}: Fisher {phi:.6f}   closed form {h_closed_form(t, 1, 1):.6f}")

print("\nthe least-squares solver finds the same candidate from scratch:")
solved, resid = solve_conjugate(cand.model, cand.target, CPMap.identity(1), (), max_n=4)
print(f"  solver residual {resid:.2e}, Fisher {fisher_info([solved]):.6f}")

print("\nminimization experiment: circular pair vs its self-adjoint carriers")
rep = fisher_minimization_experiment(max_n=5)
print(f"  Fisher of the pair and adjoints: {rep['lhs']:g}")
print(f"  Fisher of the carriers:          {rep['rhs']:g}")
print(f"  ratio: {rep['ratio']:g}   (worst residual {rep['max_residual']:.2e})")
print(f"  Cramer-Rao product on the carriers: {rep['cramer_rao_product']:g} = K^2")
