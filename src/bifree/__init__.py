"""Computational engine for bi-free probability with amalgamation.

Exact, desk-scale models of two-faced families: the lattice of
bi-non-crossing partitions with its Moebius function, operator-valued
moment/cumulant transforms, full Fock-space realizations of bi-semicircular
operators with completely positive covariance, conjugate-variable checks,
Fisher information and entropy, and the minimization/maximization
experiments for circular pairs and their self-adjoint matrix lifts.
"""

from .balgebra import CPMap, diag_expectation, trace_d
from .bnc import (
    BncPartition,
    ChiWord,
    catalan,
    enumerate_bnc,
    is_bnc,
    lattice_join,
    lattice_leq,
    lattice_meet,
    mobius_bnc,
    one_partition,
    s_chi,
    zero_partition,
)
from .conjvar import (
    MatrixLift,
    VectorCandidate,
    WordCandidate,
    aaf_check,
    check_candidates,
    circular_entropy_experiment,
    conj_residual,
    entropy_chi_star,
    eta_flip,
    fisher_info,
    fisher_minimization_experiment,
    h_closed_form,
    semicircular_entropy_experiment,
    solve_conjugate,
)
from .fock import (
    FockModel,
    FockVector,
    TruncationError,
    bisemicircular_from_json,
    make_bisemicircular,
    make_circular_pair,
    make_standard_semicircular,
)
from .moments import (
    bifree_test,
    cumulant_chi,
    cumulant_pi,
    cumulants_from_moments,
    eval_moment_pi,
    moments_from_cumulants,
    product_cumulant_expand,
)
from .words import GeneratorSymbol, Lb, Monomial, MomentFunctional, Rb

__version__ = "0.1.0"
