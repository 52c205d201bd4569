"""Acceptance suite: every exit criterion as a callable check.

Each criterion body returns ``(passed, detail)``; ``_criterion`` times it,
records a result under the next id and registers it in ``ALL_CRITERIA``.
``run_all`` executes them in order, prints one line per criterion and reports
overall success.  The same functions back both the command-line
``verify all`` and the pytest wrapper.  Residuals fold into a verdict through
``worst_at``, so a NaN fails its gate.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import bnc
from .balgebra import CPMap, maxabs, random_belement, random_cpmap, worst_at
from .bnc import BncPartition, ChiWord, catalan, enumerate_bnc, mobius_bnc
from .conjvar import (
    MatrixLift,
    aaf_check,
    check_candidates,
    circular_entropy_experiment,
    eta_flip,
    fisher_minimization_experiment,
    h_closed_form,
    scaled_semicircular,
    semicircular_entropy_experiment,
    semicircular_perturbation,
)
from .fock import make_bisemicircular, make_circular_pair
from .moments import (
    bifree_test,
    cumulant_chi,
    cumulants_from_moments,
    moments_from_cumulants,
    product_cumulant_expand,
)
from .words import Lb, Monomial, Rb


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def __post_init__(self):
        self.passed = bool(self.passed)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:>2}  {self.name}: {self.detail} ({self.seconds:.1f}s)"


#: The criteria in id order; ``_criterion`` appends each one as it is defined.
ALL_CRITERIA: list = []


def _criterion(name: str):
    """Register a criterion body ``seed -> (passed, detail)`` under the next
    id; the registered function times the body and returns its record."""

    def register(body):
        cid = len(ALL_CRITERIA) + 1

        @functools.wraps(body)
        def run(seed: int = 0) -> CriterionResult:
            t0 = time.time()
            passed, detail = body(seed)
            return CriterionResult(cid, name, passed, detail, time.time() - t0)

        ALL_CRITERIA.append(run)
        return run

    return register


def _random_chi(n: int, rng) -> ChiWord:
    return ChiWord("".join("l" if rng.integers(2) else "r" for _ in range(n)))


@_criterion("lattice counts")
def criterion_1_lattice_counts(seed: int = 0):
    t0 = time.time()
    rng = np.random.default_rng(seed + 1)
    worst = ""
    ok = True
    for n in range(1, 9):
        for _ in range(3):
            chi = _random_chi(n, rng)
            count = len(enumerate_bnc(chi))
            if count != catalan(n):
                ok = False
                worst = f"n={n} chi={chi}: {count} != {catalan(n)}"
    ok = ok and time.time() - t0 < 10.0
    return ok, worst or "Catalan(1..8) exact over 3 random words per size, within 10s"


@_criterion("Moebius recursion/extremes/factorization")
def criterion_2_mobius(seed: int = 0):
    rng = np.random.default_rng(seed + 2)
    detail = []
    ok = True
    # Defining recursion, both sums, all pairs for n <= 6 over a random word.
    for n in range(1, 7):
        chi = _random_chi(n, rng)
        parts = enumerate_bnc(chi)
        m = len(parts)
        leq = np.zeros((m, m), dtype=bool)
        for i, a in enumerate(parts):
            for j, b in enumerate(parts):
                leq[i, j] = bnc.lattice_leq(a, b)
        mu = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                if leq[i, j]:
                    mu[i, j] = mobius_bnc(parts[i], parts[j])
        ident = np.eye(m, dtype=np.int64)
        # sum over sigma <= tau <= pi of mu(tau, pi), resp. mu(sigma, tau).
        first = leq.astype(np.int64) @ (leq * mu)
        second = (leq * mu) @ leq.astype(np.int64)
        if not (
            np.array_equal(np.where(leq, first, 0), np.where(leq, ident, 0))
            and np.array_equal(np.where(leq, second, 0), np.where(leq, ident, 0))
        ):
            ok = False
            detail.append(f"recursion fails at n={n}")
    # Extremes for n <= 7.
    for n in range(1, 8):
        chi = _random_chi(n, rng)
        v = mobius_bnc(bnc.zero_partition(chi), bnc.one_partition(chi))
        want = (-1) ** (n - 1) * catalan(n - 1)
        if v != want:
            ok = False
            detail.append(f"mu(0,1) at n={n}: {v} != {want}")
    # Product factorization on 200 random instances.
    for _ in range(200):
        n = int(rng.integers(2, 7))
        chi = _random_chi(n, rng)
        parts = enumerate_bnc(chi)
        pi = parts[rng.integers(len(parts))]
        below = [s for s in parts if bnc.lattice_leq(s, pi)]
        sigma = below[rng.integers(len(below))]
        nblocks = len(pi.blocks)
        grouping = rng.integers(0, max(1, nblocks // 2) + 1, size=nblocks)
        groups: dict[int, list[int]] = {}
        for bi, g in enumerate(grouping):
            groups.setdefault(int(g), []).extend(pi.blocks[bi])
        prod = 1
        for positions in groups.values():
            pos_set = set(positions)
            sub_chi = chi.restrict(positions)
            remap = {p: i + 1 for i, p in enumerate(sorted(positions))}
            # V_k is a union of pi-blocks, so each block is entirely in or out;
            # sigma <= pi, so sigma restricts cleanly too.
            pi_r = BncPartition(
                [[remap[x] for x in b] for b in pi.blocks if b[0] in pos_set],
                sub_chi,
            )
            sig_r = BncPartition(
                [[remap[x] for x in b] for b in sigma.blocks if b[0] in pos_set],
                sub_chi,
            )
            prod *= mobius_bnc(sig_r, pi_r)
        if prod != mobius_bnc(sigma, pi):
            ok = False
            detail.append(f"factorization fails: chi={chi} pi={pi.blocks} sigma={sigma.blocks}")
            break
    return ok, "; ".join(detail) or "exact"


@_criterion("Moebius inversion round trip")
def criterion_3_mobius_inversion(seed: int = 0):
    rng = np.random.default_rng(seed + 3)
    errors = []
    for d in (1, 2):
        for n in range(2, 7):
            chi = _random_chi(n, rng)
            parts = enumerate_bnc(chi)
            ktab = {p: random_belement(d, rng) for p in parts}
            mtab = {p: moments_from_cumulants(ktab, p) for p in parts}
            back = {p: cumulants_from_moments(mtab, p) for p in parts}
            errors.extend(maxabs(ktab[p] - back[p]) for p in parts)
    worst, _ = worst_at(errors)
    return worst <= 1e-10, f"max error {worst:.2e} <= 1e-10"


@_criterion("Fock exactness and truncation independence")
def criterion_4_fock_exactness(seed: int = 0):
    errors = []
    targets = {2: 1.0, 4: 2.0, 6: 5.0}
    for depth_pad in (0, 1, 3):
        for k, want in targets.items():
            model = make_bisemicircular([CPMap.identity(1)], [], max_depth=k + depth_pad)
            s = model.symbol("S1")
            got = model.functional.expect(Monomial([s] * k))[0, 0]
            errors.append(abs(got - want))
    worst, _ = worst_at(errors)
    return (
        worst <= 1e-12,
        f"max |m_k - Catalan| = {worst:.2e} <= 1e-12 for depths >= word length",
    )


@_criterion("bi-semicircular cumulant law (flip covariance)")
def criterion_5_semicircular_cumulants(seed: int = 0):
    rng = np.random.default_rng(seed + 5)
    flip = eta_flip()
    model = make_bisemicircular([flip], [flip])
    S, D = model.symbol("S1"), model.symbol("D1")
    F = model.functional
    two = []
    for _ in range(50):
        b = random_belement(2, rng)
        k = cumulant_chi(F, ChiWord("ll"), [Monomial([S, Lb(b)]), Monomial([S])])
        two.append(maxabs(k - flip(b)))
        k = cumulant_chi(F, ChiWord("rr"), [Monomial([D, Rb(b)]), Monomial([D])])
        two.append(maxabs(k - flip(b)))
    b = random_belement(2, rng)
    mixed, _ = worst_at((
        maxabs(cumulant_chi(F, ChiWord("lr"), [Monomial([S, Lb(b)]), Monomial([D])])),
        maxabs(cumulant_chi(F, ChiWord("rl"), [Monomial([D, Rb(b)]), Monomial([S])])),
    ))
    odd = []
    for n in (1, 3, 4, 5):
        for bits in range(2 ** n):
            word = [S if (bits >> i) & 1 else D for i in range(n)]
            chi = ChiWord([w.side for w in word])
            odd.append(maxabs(cumulant_chi(F, chi, [Monomial([w]) for w in word])))
    worst_two, _ = worst_at(two)
    worst_odd, _ = worst_at(odd)
    ok = worst_two <= 1e-9 and mixed <= 1e-9 and worst_odd <= 1e-9
    return ok, (
        f"order-2 vs covariance {worst_two:.2e}; mixed order-2 {mixed:.2e}; "
        f"orders 1,3-5 {worst_odd:.2e} (all <= 1e-9)"
    )


@_criterion("bi-freeness detector")
def criterion_6_bifree_detector(seed: int = 0):
    one = CPMap.identity(1)
    model = make_bisemicircular([one, one], [one, one])
    rep = bifree_test(model.functional, model.symbols, max_order=6)
    ok = rep["pass"] and rep["max_residual"] <= 1e-9
    detail = f"bi-free family max mixed cumulant {rep['max_residual']:.2e} over {rep['tested']} words"
    # A planted correlation: two left generators on the same direction.
    cov = 1.0
    sm = make_bisemicircular([one], [])
    s = sm.symbol("S1")
    A = sm.combination_symbol("A", [(1.0, s)], family="a")
    B = sm.combination_symbol("B", [(1.0, s)], family="b")
    rep2 = bifree_test(sm.functional, [A, B], max_order=3)
    planted = [v for v in rep2["violations"] if v["order"] == 2]
    ok2 = (not rep2["pass"]) and any(abs(v["residual"] - cov) <= 1e-9 for v in planted)
    detail += f"; correlated family flagged at order 2 with residual {planted[0]['residual']:.6f}" if planted else "; no order-2 violation found"
    return ok and ok2, detail


@_criterion("conjugate variables (scalings, Fisher, Cramer-Rao)")
def criterion_7_conjugate_variables(seed: int = 0):
    runs = {lam: check_candidates(scaled_semicircular(lam), 6) for lam in (1.0, 0.5, 2.0)}
    ok = all(
        c["max_residual"] <= 1e-9 and abs(c["fisher"] - 1.0 / lam**2) <= 1e-9
        for lam, c in runs.items()
    )
    base = runs.pop(1.0)
    r, phi, cr = base["max_residual"], base["fisher"], base["cramer_rao_product"]
    ok = ok and abs(cr - 1.0) <= 1e-9
    details = [f"xi=S residual {r:.2e}"]
    for lam, c in runs.items():
        details.append(f"lam={lam}: residual {c['max_residual']:.2e}, Fisher {c['fisher']:.6f}")
    details.append(f"Fisher(s)={phi:.9f}, Cramer-Rao product {cr:.9f}")
    return ok, "; ".join(details)


@_criterion("perturbation law h(t) = 1/(1+t)")
def criterion_8_perturbation_law(seed: int = 0):
    family = semicircular_perturbation()
    times = (0.0, 0.5, 1.0, 2.0, 10.0)
    checks = [check_candidates(family(t), 6) for t in times]
    values = [c["fisher"] for c in checks]
    worst, _ = worst_at(abs(phi - h_closed_form(t, 1.0, 1.0)) for t, phi in zip(times, values))
    worst_resid, _ = worst_at(c["max_residual"] for c in checks)
    decreasing = all(values[i] > values[i + 1] for i in range(len(values) - 1))
    ok = worst <= 1e-9 and worst_resid <= 1e-9 and decreasing
    return ok, (
        f"max |Fisher - closed form| {worst:.2e}; residuals {worst_resid:.2e}; decreasing on grid"
    )


@_criterion("matrix lift + alternating adjoint flip + Fisher minimization")
def criterion_9_lift_experiment(seed: int = 0):
    cp = make_circular_pair()
    cl, cr = cp.symbol("cl"), cp.symbol("cr")
    lift = MatrixLift(cp, cl, cr)
    tau2 = lift.functional
    semicirc = {1: 0.0, 2: 1.0, 3: 0.0, 4: 2.0, 5: 0.0, 6: 5.0}
    worst, _ = worst_at(
        abs(tau2.tau(Monomial([Z] * k)) - want)
        for Z in (lift.X, lift.Y)
        for k, want in semicirc.items()
    )
    aaf = aaf_check(cp.functional, cl, cr, 6)
    fm = fisher_minimization_experiment(max_n=6)
    ok = (
        worst <= 1e-9
        and aaf["pass"]
        and fm["pass"]
        and abs(fm["lhs"] - 4.0) <= 1e-6
        and abs(fm["rhs"] - 2.0) <= 1e-6
        and abs(fm["ratio"] - 2.0) <= 1e-6
    )
    return ok, (
        f"lifted semicircular moments off by {worst:.2e}; aaf max {aaf['max_discrepancy']:.2e}; "
        f"Fisher lhs={fm['lhs']:.6f} rhs={fm['rhs']:.6f} ratio={fm['ratio']:.8f} "
        f"(residuals {fm['max_residual']:.2e})"
    )


@_criterion("entropy laws (semicircular value, circular factor 2)")
def criterion_10_entropy(seed: int = 0):
    semi = semicircular_entropy_experiment()
    circ = circular_entropy_experiment()
    expected = 2.0 * math.log(2.0 * math.pi * math.e)
    ok = (
        semi["pass"]
        and semi["max_integrand_abs"] <= 1e-9
        and circ["pass"]
        and circ["bracket_width"] <= 1e-4
        and abs(circ["lhs"] - expected) <= 1e-4
        and abs(circ["lhs"] - circ["rhs"]) <= 1e-4
    )
    return ok, (
        f"chi*(s) = {semi['value']:.9f} vs {semi['rhs']:.9f} (integrand {semi['max_integrand_abs']:.1e}); "
        f"circular {circ['lhs']:.6f} = 2 x {circ['rhs']/2:.6f} within bracket {circ['bracket_width']:.1e}"
    )


@_criterion("product-entry cumulant expansion")
def criterion_11_product_expansion(seed: int = 0):
    rng = np.random.default_rng(seed + 11)
    one = CPMap.identity(1)
    scalar_model = make_bisemicircular([one, one], [one])
    flip_model = make_bisemicircular([eta_flip()], [random_cpmap(2, rng)])
    residuals = []
    for trial in range(100):
        use_matrix = trial % 2 == 1
        model = flip_model if use_matrix else scalar_model
        d = model.dim
        n = int(rng.integers(2, 6))
        chi_hat, sizes = _random_grouping(n, rng)
        ops = []
        for k in range(1, n + 1):
            side = chi_hat.side(k)
            pool = [s for s in model.symbols if s.side == side]
            sym = pool[rng.integers(len(pool))]
            w = Monomial([sym])
            if rng.integers(3) == 0:
                b = random_belement(d, rng)
                w = w * (Lb(b) if side == "l" else Rb(b))
            ops.append(w)
        rep = product_cumulant_expand(model.functional, chi_hat, sizes, ops)
        residuals.append(rep["residual"])
    worst, _ = worst_at(residuals)
    return worst <= 1e-9, f"max residual over 100 random instances {worst:.2e} <= 1e-9"


def _random_grouping(n: int, rng):
    """A random side word of length n with a random constancy-respecting grouping."""
    cuts = sorted(set(int(c) for c in rng.integers(1, n, size=max(0, n // 2))) | {n})
    sizes = []
    prev = 0
    for c in cuts:
        sizes.append(c - prev)
        prev = c
    labels = []
    for gi, size in enumerate(sizes):
        if gi < len(sizes) - 1:
            side = "l" if rng.integers(2) else "r"
            labels.extend([side] * size)
        else:
            labels.extend("l" if rng.integers(2) else "r" for _ in range(size))
    return ChiWord(labels), sizes


def run_all(seed: int = 0, emit=print) -> tuple[list[CriterionResult], bool]:
    t0 = time.time()
    results = []
    for fn in ALL_CRITERIA:
        res = fn(seed)
        results.append(res)
        if emit:
            emit(res.line())
    total = time.time() - t0
    runtime = CriterionResult(
        12, "total runtime", total < 300.0, "suite completed within the 300s budget",
        total,
    )
    results.append(runtime)
    if emit:
        emit(runtime.line())
    return results, all(r.passed for r in results)
