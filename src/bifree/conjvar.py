"""Conjugate variables, Fisher information, matrix lifts and entropy laws.

A conjugate candidate pairs a target generator with a state (or an operator
word) that is supposed to satisfy the moment relations of the conjugate
variable: the trace of any test word against the candidate must equal the
sum, over occurrences of the target, of the trace of the word with the
occurrence removed, the same-side tail averaged out through the covariance
map, and spliced back in as a coefficient.  One walk over the test words
(``_relation_walk``) carries both sides of these relations: the candidate's
state on the word and the right-hand side, each grown from its value on the
parent word.  Left-type and right-type letters commute (Charlesworth-Nelson-
Skoufranis, CMP 2015), and words that differ by such swaps are one operator
with one right-hand side, so the walk visits one word per operator: the
lexicographic normal form of the partially commutative monoid (Diekert-
Rozenberg, *The Book of Traces*).  Letters commute when the candidate's
``pure_side`` puts them on opposite sides: its model's ``FockModel.pure_side``
for a Fock-backed state, and for a lifted word ``MatrixLift.pure_side``, which
derives a carrier's side from its two base letters.  Its residual is the
residual over every word, up to roundoff.  Every candidate carries the
moment functional that backs its relations (its model's, or its lift's), so
the walk reads no other.  The lift is the off-diagonal 2x2 lift of a
left/right pair of a scalar model; each of its moments is a closed form,
one index chain per starting index.
``conj_residual`` reports the worst violation along that walk, and
``solve_conjugate`` reads its least-squares rows from the same walk;
everything downstream (Fisher information, the perturbation law, entropy
integrals, the minimization experiments) consumes verified candidates.
A conjugate system is a list of candidates; ``check_candidates`` tests
each among the other candidates' targets and computes the system's verdict
numbers for ``conj check``, criteria 7 and 8, the experiments and demo 04.
"""

from __future__ import annotations

import copy
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .balgebra import CPMap, matrix_unit, matrix_units, trace_d, worst_at
from .bnc import LEFT, MAX_WALK_N, RIGHT, ChiWord, s_chi
from .fock import FockModel, FockVector, make_bisemicircular, make_circular_pair
from .words import (
    BCoeff,
    GeneratorSymbol,
    Lb,
    Monomial,
    MomentFunctional,
    Rb,
    as_monomial,
)


class VectorCandidate:
    """Conjugate candidate given as a state of a Fock-backed model; it takes
    the model's moment functional and ``pure_side``."""

    def __init__(self, target: GeneratorSymbol, vector: FockVector, model: FockModel):
        if vector.dim != model.dim:
            raise ValueError("vector dimension does not match the model")
        self.target = target
        self.vector = vector
        self.model = model
        self.functional = model.functional
        self.pure_side = model.pure_side

    def initial_state(self):
        return self.vector

    def extend(self, factor, state, keep_depth: int | None = None):
        """Apply a factor, keeping components up to ``keep_depth`` only."""
        return self.model.apply_symbol(factor, state, keep_depth)

    def tau(self, state) -> complex:
        if self.model.dim == 1:
            # The entry plus 0j is the 1x1 trace, signed zeros included.
            return (complex(state.terms.get((), 0j)) + 0j) / self.model.dim
        return complex(np.trace(state.depth0())) / self.model.dim

    def norm_sq(self) -> float:
        return self.model.norm_sq(self.vector)


class WordCandidate:
    """Conjugate candidate given as a scaled word of a matrix lift (its GNS
    vector); it takes the lift's moment functional and ``pure_side``."""

    def __init__(self, target: GeneratorSymbol, word, lift: MatrixLift, scale: complex = 1.0):
        self.target = target
        self.word = as_monomial(word)
        self.functional = lift.functional
        self.pure_side = lift.pure_side
        self.scale = complex(scale)

    def initial_state(self):
        return self.word

    def extend(self, factor, state, keep_depth: int | None = None):
        return factor * state

    def tau(self, state) -> complex:
        return self.scale * self.functional.tau(state)

    def norm_sq(self) -> float:
        raw = self.functional.tau(self.word.adjoint() * self.word).real
        return float(abs(self.scale) ** 2 * raw)


def _relation_walk(xi, eta: CPMap, others: Sequence, max_n: int):
    """One test word per operator, with the candidate's state and the
    relation's right side.

    Yields ``(word, state, rhs)`` for words of up to ``max_n`` letters over
    the target, the generators ``others`` present beside it (in that order)
    and, for a nontrivial coefficient algebra, left/right insertions of its
    matrix unit basis, each letter once.  Words grow from the left, depth
    first, so each state is reused across all its extensions and only keeps
    the components that the longest extension can still bring back to
    depth 0.

    Letters that the candidate's ``pure_side`` puts on opposite sides are
    independent: they commute as operators, so words that differ by
    swapping adjacent independent letters are one operator.  On a Fock
    space they act on opposite ends of every word; in a matrix lift,
    swapping a left and a right generator keeps the chi-order, hence every
    index chain, and only swaps their base sub-words, which are pure on
    opposite sides in the base model.  Only the lexicographic normal
    form of each such class is walked: with letters ordered as in the
    alphabet, ``f w`` is skipped when some letter ``a < f`` of ``w`` is
    independent of ``f`` and of every letter before it, since ``a`` could
    then be moved in front of ``f``.  The letters of ``w`` that can be moved
    to its front are carried along as a bit mask.  A skipped word is the
    same operator as a walked one and has the same right side: swapping
    independent letters after an occurrence of the target keeps both the
    same-side tail and the rest in order, swapping across it moves an
    opposite-side letter between the prefix and the rest, and swapping
    within the prefix keeps the operator.  The residual over the walked
    words is therefore the residual over all words, up to roundoff.

    ``rhs`` sums, over the occurrences of the target in position order, the
    trace of the word with the occurrence removed and its same-side tail
    averaged through ``eta`` and spliced back in as a coefficient, all read
    through the candidate's moment functional.  Growing
    ``w`` to ``f w`` leaves every tail unchanged, so each spliced monomial is
    built once, when its occurrence is prepended, and then only gains ``f``
    on the left.  Many occurrences share a tail, so each tail's spliced
    coefficient is built once per walk.  A spliced monomial whose coefficient
    is exactly zero is left out: the moment functional is a bimodule map
    over the coefficients (Charlesworth-Nelson-Skoufranis, CMP 2015), so its
    trace, and that of every word grown from it, is exactly ``0j``, and
    adding ``+0j`` to a sum that started at ``+0`` changes no bit.  A NaN
    coefficient is kept.  A circular candidate at ``max_n=6`` evaluates 459
    spliced terms in place of 1,023, a lifted carrier 34 in place of 56.
    """
    if not 0 <= max_n <= MAX_WALK_N:
        raise ValueError(f"max_n must be in 0..{MAX_WALK_N}")
    target, F = xi.target, xi.functional
    coeff = Lb if target.side == LEFT else Rb
    alphabet: list = [target, *others]
    if F.dim > 1:
        for e in matrix_units(F.dim):
            alphabet.append(Lb(e))
            alphabet.append(Rb(e))
    # A letter equal to an earlier one would walk the same operators again,
    # and a copy of the target would miss its splices in the right side.
    alphabet = list(dict.fromkeys(alphabet))
    # Per letter: the bit masks of the letters pure on the side opposite to
    # its own, and of those among them that come earlier in the alphabet.
    sides = [xi.pure_side(f) for f in alphabet]
    letters = []
    for i, (f, s) in enumerate(zip(alphabet, sides)):
        indep = sum(1 << j for j, t in enumerate(sides) if s and t and s != t)
        letters.append((f, 1 << i, indep, indep & ((1 << i) - 1)))
    coeffs: dict = {}  # tail -> its spliced coefficient, eta(E(tail))

    def walk(word: tuple, state, spliced: list, front: int):
        rhs = 0.0 + 0.0j
        for m in spliced:
            rhs += F.tau(m)
        yield word, state, rhs
        depth = len(word)
        if depth == max_n:
            return
        for f, bit, indep, earlier in letters:
            if front & earlier:
                continue  # f w is not in normal form
            grown = [f * m for m in spliced]
            if f is target:
                tail = Monomial([g for g in word if g.side == target.side])
                b = coeffs.get(tail)
                if b is None:
                    b = coeffs[tail] = coeff(eta(F.expect(tail)))
                if np.count_nonzero(b.matrix):  # a NaN entry is not zero
                    rest = Monomial([g for g in word if g.side != target.side])
                    grown.insert(0, rest * b)
            yield from walk(
                (f,) + word,
                xi.extend(f, state, max_n - depth - 1),
                grown,
                bit | (front & indep),
            )

    yield from walk((), xi.initial_state(), [], 0)


def conj_residual(xi, eta: CPMap, others: Sequence, max_n: int) -> float:
    """Worst violation of the conjugate-variable moment relations.

    The maximum, over the test words of ``_relation_walk``, of the distance
    between the candidate's trace on the word and the right-hand side that
    the walk carries along with it; a node whose distance is not finite is
    returned as it is.  Both sides read the moment functional that the
    candidate carries.
    """
    walk = _relation_walk(xi, eta, others, max_n)
    return worst_at(abs(xi.tau(state) - rhs) for _, state, rhs in walk)[0]


def fisher_info(candidates: Sequence) -> float:
    """Sum of squared state norms; infinite if any candidate is missing."""
    total = 0.0
    for c in candidates:
        if c is None:
            return math.inf
        total += c.norm_sq()
    return total


class _Lockstep:
    """Candidates for one target walked as one: a state holds one state per
    candidate, so the walk builds each right-hand side once for all."""

    def __init__(self, cands: Sequence):
        self.cands = cands
        self.target = cands[0].target
        self.functional = cands[0].functional
        self.pure_side = cands[0].pure_side

    def initial_state(self):
        return tuple(c.initial_state() for c in self.cands)

    def extend(self, factor, state, keep_depth: int | None = None):
        return tuple(c.extend(factor, s, keep_depth) for c, s in zip(self.cands, state))


def solve_conjugate(
    model: FockModel,
    target: GeneratorSymbol,
    eta: CPMap,
    others: Sequence,
    max_n: int = 4,
):
    """Least-squares conjugate candidate over the words of up to three letters.

    The rows and the right-hand side come from the relation walk that
    ``conj_residual`` reads, walked once with every basis vector in
    lockstep, so the fit covers exactly the relations that the residual
    checks.  Every moment is read through ``model.functional``, so the
    residual check reuses the moments that the fit cached.  Returns the
    candidate together with its verified residual; the residual is
    reported, never trusted silently.

    Relations that leave the candidate undetermined raise ``ValueError``:
    when the rows' rank is below that of the rows stacked on the basis
    vectors' coordinates, some coefficients that no relation sees still
    move the candidate, and ``lstsq``'s minimum-norm pick among them would
    pass a wrong candidate with residual 0.  Coefficients of basis vectors
    that are linearly dependent (a left and a right letter applied to the
    vacuum in either order give one vector) may stay undetermined: they do
    not move the candidate.  Below ``max_n`` 3 the four words of one letter
    are undetermined.
    """
    alphabet = list(dict.fromkeys([target, *others]))
    basis_words = [()]
    frontier = [()]
    for _ in range(3):
        frontier = [w + (f,) for w in frontier for f in alphabet]
        basis_words.extend(frontier)
    basis = [model.vector_of(Monomial(w)) for w in basis_words]

    cands = [VectorCandidate(target, v, model) for v in basis]
    rows, rhs_vec = [], []
    for _, states, rhs in _relation_walk(_Lockstep(cands), eta, others, max_n):
        rows.append([c.tau(state) for c, state in zip(cands, states)])
        rhs_vec.append(rhs)
    rows, rhs_vec = np.array(rows), np.array(rhs_vec)
    if not (np.isfinite(rows).all() and np.isfinite(rhs_vec).all()):
        raise ValueError("the fit's rows or right-hand sides are not finite")
    sol, _, rank, _ = np.linalg.lstsq(rows, rhs_vec, rcond=None)
    # Each basis vector's coordinates as a column: its component tensors.
    shapes = {ks: (model.dim,) * (2 * len(ks) + 2) for v in basis for ks in v.terms}
    coords = np.array([
        np.concatenate([np.broadcast_to(v.terms.get(ks, 0), shape).ravel()
                        for ks, shape in shapes.items()])
        for v in basis
    ]).T
    if rank < (full := np.linalg.matrix_rank(np.vstack([rows, coords]))):
        raise ValueError(
            f"the relations up to max_n={max_n} leave the fit undetermined: "
            f"rank {rank} of {full}"
        )
    vec = FockVector(model.dim)
    for c, v in zip(sol, basis):
        vec = vec + v.scaled(c)
    cand = VectorCandidate(target, vec.prune(1e-14), model)
    return cand, conj_residual(cand, eta, others, max_n)


# --- matrix lift --------------------------------------------------------------

class MatrixLift:
    """The off-diagonal 2x2 lift of a left generator x and a right generator
    y of a scalar Fock model: the self-adjoint carriers X = [[0, x], [x*, 0]]
    (left) and Y = [[0, y], [y*, 0]] (right), which ``X`` and ``Y`` name.

    ``expect`` is a closed form: from each starting index one index chain
    runs through the factors in chi-order.  A carrier (X, Y or an adjoint,
    which has the same entries) flips the index 1 <-> 2 and reads its base
    letter x when it leaves index 1 and x* when it leaves index 2; a 1x1
    coefficient keeps the index and multiplies, and a zero one ends the
    chain.  The chain's coefficients (from ``1+0j``) and base letters are
    then read in position order.  ``functional`` is the normalized trace of
    the expectation, built once, so every reader of the lift shares its
    moment cache.
    """

    def __init__(self, model: FockModel, x: GeneratorSymbol, y: GeneratorSymbol):
        if model.dim != 1:
            raise ValueError("base model must be scalar")
        if x.side != LEFT or y.side != RIGHT:
            raise ValueError("expected a left generator and a right generator")
        for g in (x, y):
            if g not in model.symbol_actions:
                raise ValueError(f"base symbol {g!r} is not registered with the model")
        self.model = model
        self.X = GeneratorSymbol("X", LEFT, family="X")
        self.Y = GeneratorSymbol("Y", RIGHT, family="Y")
        # Each carrier's base letters on leaving index 1 and index 2.
        self._letters = {}
        for Z, z in ((self.X, x), (self.Y, y)):
            self._letters[Z] = self._letters[Z.star()] = (z, z.star())
        # The oracle reads a shallow copy that shares the model and letters
        # but not the functional, so lift and functional form no reference
        # cycle.
        view = copy.copy(self)
        self.functional = MomentFunctional(
            lambda word: np.array([[trace_d(view.expect(word))]], dtype=complex), 1
        )

    def pure_side(self, f) -> str | None:
        """The side whose operators alone make up the lifted letter ``f``, or
        None.

        A carrier is pure on its own side when both its base letters are
        (``FockModel.pure_side``); two carriers pure on opposite sides then
        commute (see ``_relation_walk``).  Any other letter is pure on no
        side.
        """
        letters = self._letters.get(f)
        if letters is None:
            return None
        return f.side if all(self.model.pure_side(g) == f.side for g in letters) else None

    def expect(self, word) -> np.ndarray:
        """Expectation matrix: entry (start, end) of the chain from each
        starting index."""
        factors = as_monomial(word).factors
        coeffs = []
        for f in factors:
            if isinstance(f, BCoeff):
                size = f.matrix.shape[0]
                if size != 1:
                    raise ValueError(f"{size}x{size} coefficient in the 2x2 lift; it must be 1x1")
                coeffs.append(complex(f.matrix[0, 0]))
            elif f not in self._letters:
                raise KeyError(f"symbol {f!r} not registered with this lift")
        if not factors:
            return np.eye(2, dtype=complex)
        out = np.zeros((2, 2), dtype=complex)
        if 0 in coeffs:
            return out  # a zero coefficient ends both chains; a NaN one is not zero
        c = 1.0 + 0.0j
        for ci in coeffs:
            c *= ci
        # Per position: whether the chain's index there is its start flipped.
        flipped = [False] * len(factors)
        parity = False
        for k in s_chi(ChiWord([f.side for f in factors])):
            flipped[k - 1] = parity
            parity ^= not isinstance(factors[k - 1], BCoeff)
        # The two chains end at distinct entries, each added once onto +0.
        for start in (0, 1):
            w = Monomial([
                self._letters[f][start ^ flip]
                for f, flip in zip(factors, flipped)
                if not isinstance(f, BCoeff)
            ])
            out[start, start ^ parity] += c * self.model.functional.tau(w)
        return out


def eta_flip() -> CPMap:
    """CP map on 2x2 matrices swapping the diagonal, in Kraus form."""
    return CPMap([matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])


# --- alternating adjoint flipping ---------------------------------------------

def _alternating_words(x: GeneratorSymbol, y: GeneratorSymbol, n: int):
    """Pairs of power-flipped alternating words for every side word of length n."""
    for bits in range(1 << n):
        labels = [LEFT if (bits >> k) & 1 else RIGHT for k in range(n)]
        chi = ChiWord(labels)
        order = s_chi(chi)
        p = [False] * n  # adjoint flags, p-pattern
        for rank, pos in enumerate(order, start=1):
            p[pos - 1] = rank % 2 == 0
        word_p, word_q = [], []
        for k in range(n):
            z = x if labels[k] == LEFT else y
            word_p.append(z.star() if p[k] else z)
            word_q.append(z if p[k] else z.star())
        yield chi, Monomial(word_p), Monomial(word_q)


def aaf_check(
    F: MomentFunctional,
    x: GeneratorSymbol,
    y: GeneratorSymbol,
    max_n: int,
    tol: float = 1e-9,
) -> dict:
    """Compare moments under the global 1 <-> * swap along the alternating
    pattern, on the even lengths 2..max_n; ``max_n`` must lie in 2..8, so
    that at least one word pair is tested.  The pattern reads each letter's
    side from its chi label, so ``x`` must be a left and ``y`` a right
    generator; ``tol`` must be positive and finite."""
    if not 2 <= max_n <= 8:
        raise ValueError("max_n must be in 2..8")
    if x.side != LEFT or y.side != RIGHT:
        raise ValueError("expected a left generator and a right generator")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    cases = [
        (n, chi, abs(F.tau(wp) - F.tau(wq)))
        for n in range(2, max_n + 1, 2)
        for chi, wp, wq in _alternating_words(x, y, n)
    ]
    worst, at = worst_at(diff for _, _, diff in cases)
    worst_case = None
    if at is not None:
        n, chi, _ = cases[at]
        worst_case = {"n": n, "chi": str(chi), "discrepancy": worst}
    return {
        "pass": worst <= tol,
        "max_discrepancy": worst,
        "worst_case": worst_case,
        "tested": len(cases),
        "tolerance": tol,
    }


# --- closed-form laws and entropy ---------------------------------------------

def h_closed_form(t: float, K1: float, K2: float) -> float:
    """Fisher information along the semicircular perturbation, equality case."""
    if not all(map(math.isfinite, (t, K1, K2))):
        raise ValueError("t, K1 and K2 must be finite")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if K1 < 0 or K2 <= 0:
        raise ValueError("need K1 >= 0 and K2 > 0")
    denom = K1 + K2 * t
    if denom == 0:
        raise ZeroDivisionError("K1 + K2*t must be positive")
    return K2 * K2 / denom


_GL_N = 16  # the value uses the 2n-point rule, the error estimate the n-point one


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1] (Golub-Welsch)."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return 0.5 * (x + 1.0), v[0] ** 2


def entropy_chi_star(fisher_of_t: Callable[[float], float], K: float) -> dict:
    """(K/2) log(2 pi e) + (1/2) int_0^inf (K/(1+t) - Phi(t)) dt on two
    Gauss-Legendre panels, with an error estimate.

    Panel A is t in [0, 1].  Panel B is [1, inf) in eps = t^(-1/2): by the
    scaling law t Phi*(X + sqrt(t) S) = Phi*(S + eps X) its integrand
    2 (K/(1+eps^2) - t Phi(t)) / eps is bounded, and t = inf is never
    evaluated.  The value and ``quad`` (the integral) use the 32-point rule
    on each panel; ``bracket_width`` is half the sum over the panels of
    |Q_16 - Q_32|, so that one panel's error cannot cancel the other's.
    That is 96 Fisher evaluations, and ``max_integrand_abs`` is taken over
    all of them; a Fisher value that is not finite, or a ``K`` that is not
    positive and finite, raises ``ValueError``.
    """
    if not 0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K!r}")

    def phi(t: float) -> float:
        val = fisher_of_t(t)
        if not math.isfinite(val):
            raise ValueError(f"Fisher information not finite at t={t!r}: {val!r}")
        return val

    def panel_b(eps: float) -> float:
        t = 1.0 / (eps * eps)
        return 2.0 * (K / (1.0 + eps * eps) - t * phi(t)) / eps

    quad = est = peak = 0.0
    for integrand in (lambda t: K / (1.0 + t) - phi(t), panel_b):
        q = []
        for n in (_GL_N, 2 * _GL_N):
            x, w = _gauss_legendre(n)
            vals = np.array([integrand(float(s)) for s in x])
            q.append(math.fsum(w * vals))
            peak = max(peak, float(np.max(np.abs(vals))))
        quad += q[1]
        est += 0.5 * abs(q[0] - q[1])
    value = 0.5 * K * math.log(2.0 * math.pi * math.e) + 0.5 * quad
    return {
        "value": value,
        "bracket": [value - est, value + est],
        "bracket_width": est,
        "quad": quad,
        "max_integrand_abs": peak,
        "nodes": 6 * _GL_N,
        "K": K,
    }


# --- experiments ---------------------------------------------------------------

def circular_candidates(model: FockModel, z, w, scale: float = 1.0):
    """Conjugate candidates of a circular pair: for z, z*, w and w*.

    The candidate for each element is ``scale`` times the state of its
    adjoint: the real and imaginary parts are variance-1/2 semicircular,
    whose conjugate variables are twice themselves, and the
    non-self-adjoint recombination lands on the adjoint state.
    """

    def cand(target, partner):
        vec = model.vector_of(Monomial([partner])).scaled(scale)
        return VectorCandidate(target, vec, model)

    return [cand(z, z.star()), cand(z.star(), z), cand(w, w.star()), cand(w.star(), w)]


def scaled_semicircular(lam: float):
    """Candidate for ``lam * S1`` on a fresh scalar model, in a one-element
    list: the state of ``S1`` over ``lam`` (Fisher information
    ``1/lam^2``); ``lam`` is real, so the target's adjoint has its action."""
    m = make_bisemicircular([CPMap.identity(1)], [])
    s = m.symbol("S1")
    target = m.combination_symbol(f"{lam!r}*S1", [(lam, s)])
    vec = m.vector_of(Monomial([s])).scaled(1.0 / lam)
    return [VectorCandidate(target, vec, m)]


def semicircular_perturbation():
    """The family t -> candidates for ``u[t] = S1 + sqrt(t) S2``, free
    semicircular of variance ``1 + t`` on one scalar model: the state of
    ``u[t]``, whose adjoint has its action, over ``1 + t`` (Fisher
    information ``1/(1 + t)``), in a one-element list."""
    m = make_bisemicircular([CPMap.identity(1)] * 2, [])
    s, s2 = m.symbol("S1"), m.symbol("S2")

    def family(t: float):
        u = m.combination_symbol(f"u[{t!r}]", [(1.0, s), (math.sqrt(t), s2)], family="u")
        vec = m.vector_of(Monomial([u])).scaled(1.0 / (1.0 + t))
        return [VectorCandidate(u, vec, m)]

    return family


def lifted_candidates(model: FockModel, z, w, scale: float = 1.0):
    """Conjugate candidates of the lifted carriers of a circular pair.

    The pair ``z``, ``w`` are symbols of ``model``, whose functional the lift
    reads.  Each self-adjoint carrier is its own conjugate variable up to
    ``scale``.  Returns the candidates for X and Y, which carry the lift's
    trace functional and pure sides.
    """
    lift = MatrixLift(model, z, w)
    return [WordCandidate(Z, Monomial([Z]), lift, scale) for Z in (lift.X, lift.Y)]


def _worst_residual(cands: Sequence, max_n: int) -> float:
    """Worst conjugate residual (eta = id) of a conjugate system: each
    candidate among the other candidates' targets, in system order, since a
    system's conjugate variables are relative to the algebra that all its
    variables generate (Voiculescu, *Analogues of entropy V*, 1998)."""
    eta1 = CPMap.identity(1)
    ts = [c.target for c in cands]
    others = (ts[:i] + ts[i + 1:] for i in range(len(ts)))
    return worst_at(conj_residual(c, eta1, x, max_n) for c, x in zip(cands, others))[0]


def check_candidates(cands: Sequence, max_n: int) -> dict:
    """The verdict numbers of a conjugate system, each computed here only.

    ``max_residual`` is ``_worst_residual`` over test words of up to
    ``max_n`` letters, ``fisher`` is ``fisher_info(cands)`` and
    ``cramer_rao_product`` is that times the sum over the targets x of
    ``tau(x* x)``: for K self-adjoint targets at least K^2, with equality for
    free semicirculars of one variance (Voiculescu, *Analogues of entropy V*,
    1998); the four elements of a circular pair read K^2 = 16 as well.
    """
    resid = _worst_residual(cands, max_n)
    phi = fisher_info(cands)
    tau_sq = sum(c.functional.tau(Monomial([c.target.star(), c.target])).real for c in cands)
    return {"max_residual": resid, "fisher": phi, "cramer_rao_product": phi * tau_sq}


def _verify_then_integrate(family, K: float, spots: Sequence[float], max_n: int):
    """Check a perturbation family's candidates, then integrate its Fisher values.

    ``family`` maps a time t to a conjugate system.  Returns the worst
    residual over the candidates at the times ``spots``, and the
    ``entropy_chi_star`` report (96 Fisher evaluations on two Gauss-Legendre
    panels, with an error estimate) of t -> the Fisher information of the
    candidates at t.
    """
    worst = worst_at(_worst_residual(family(t), max_n) for t in spots)[0]
    report = entropy_chi_star(lambda t: fisher_info(family(t)), K)
    return worst, report


def fisher_minimization_experiment(max_n: int = 6) -> dict:
    """Equality case of the Fisher minimization law for the circular pair.

    Computes the Fisher information of the circular pair and of its lifted
    self-adjoint carriers, both through explicitly verified conjugate
    candidates, and reports their ratio (expected: exactly 2), plus the
    Cramer-Rao product on the lifted side (expected: exactly K^2 = 4).
    """
    model = make_circular_pair()
    cl, cr = model.symbol("cl"), model.symbol("cr")
    pair = check_candidates(circular_candidates(model, cl, cr), max_n)
    lift = check_candidates(lifted_candidates(model, cl, cr), max_n)
    max_resid = worst_at((pair["max_residual"], lift["max_residual"]))[0]
    lhs, rhs = pair["fisher"], lift["fisher"]
    ratio = lhs / rhs
    cramer_rao = lift["cramer_rao_product"]
    ok = abs(ratio - 2.0) <= 1e-6 and max_resid <= 1e-9
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
        "pass": bool(ok and abs(cramer_rao - 4.0) <= 1e-6),
        "max_residual": max_resid,
        "cramer_rao_product": cramer_rao,
        "cramer_rao_expected": 4.0,
    }


def semicircular_entropy_experiment() -> dict:
    """Entropy of a standard semicircular element, computed not assumed.

    The Fisher information of the perturbed element is evaluated from a
    verified conjugate candidate at every quadrature node; the integrand
    then vanishes identically and the entropy is (1/2) log(2 pi e), which is
    also the maximum-entropy bound at unit variance.
    """
    # Residuals at three perturbation times over test words of up to 6 letters.
    max_resid, report = _verify_then_integrate(
        semicircular_perturbation(), 1.0, (0.0, 1.0, 10.0), 6
    )
    expected = 0.5 * math.log(2.0 * math.pi * math.e)
    report.update(
        {
            "lhs": report["value"],
            "rhs": expected,
            "ratio": report["value"] / expected,
            "max_residual": max_resid,
            "pass": bool(
                abs(report["value"] - expected) <= max(report["bracket_width"], 1e-10) + 1e-9
                and report["max_integrand_abs"] <= 1e-9
                and max_resid <= 1e-9
            ),
        }
    )
    return report


def circular_entropy_experiment() -> dict:
    """Equality case of the entropy maximization law for the circular pair.

    Computes the entropy of the pair and of its lifted carriers through
    quadrature of computed Fisher values along circular (respectively
    semicircular) perturbations, and checks the factor-2 relation within the
    quadratures' error estimates.
    """
    model = make_circular_pair(n_pairs=2)
    cl, cr, c2l, c2r = map(model.symbol, ("cl", "cr", "cl2", "cr2"))

    @functools.lru_cache(maxsize=None)  # both curves read the same nodes
    def perturbed(t: float):
        rt = math.sqrt(t)
        mk = model.combination_symbol
        return (mk(f"z[{t!r}]", [(1.0, cl), (rt, c2l)], family="z"),
                mk(f"w[{t!r}]", [(1.0, cr), (rt, c2r)], family="z"))

    # Residuals at two perturbation times over test words of up to 4 letters.
    resid_pair, pair_report = _verify_then_integrate(
        lambda t: circular_candidates(model, *perturbed(t), scale=1.0 / (1.0 + t)),
        4.0, (0.0, 1.0), 4,
    )
    # Lifted side: the perturbed carriers are the lift of the perturbed pair.
    resid_lift, lift_report = _verify_then_integrate(
        lambda t: lifted_candidates(model, *perturbed(t), scale=1.0 / (1.0 + t)),
        2.0, (0.0, 1.0), 4,
    )
    max_resid = worst_at((resid_pair, resid_lift))[0]

    lhs = pair_report["value"]
    rhs_each = lift_report["value"]
    bracket = pair_report["bracket_width"] + 2.0 * lift_report["bracket_width"]
    expected = 2.0 * math.log(2.0 * math.pi * math.e)
    ok = (
        abs(lhs - 2.0 * rhs_each) <= bracket + 1e-9
        and abs(lhs - expected) <= pair_report["bracket_width"] + 1e-9
        and max_resid <= 1e-9
        and pair_report["max_integrand_abs"] <= 1e-9
        and lift_report["max_integrand_abs"] <= 1e-9
    )
    return {
        "lhs": lhs,
        "rhs": 2.0 * rhs_each,
        "ratio": lhs / rhs_each,
        "pass": bool(ok),
        "max_residual": max_resid,
        "bracket_width": bracket,
        "expected": expected,
    }
