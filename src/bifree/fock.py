"""Exact finite-depth full Fock space over a matrix algebra.

States are formal sums of words  b0 Z_{k1} b1 ... Z_{km} bm  with matrix
coefficients; a depth-m component with a fixed index sequence is stored as
a single tensor with 2(m+1) axes (two per coefficient slot), so linear
combinations over the coefficient algebra come for free.  Every index k
carries one covariance map eta_k.  Left/right creation prepends/appends a
symbol; annihilation of index k acts only on words whose adjacent symbol
has index k, feeds the adjacent coefficient through eta_k and merges it into
its neighbour.  Components with different index sequences are therefore
orthogonal.

The index, depth and covariance bookkeeping is written once for every
coefficient dimension.  The per-component arithmetic (create, contract
through a covariance, multiply by a coefficient, zero test, depth-0 matrix,
pairing) is chosen once per dimension: plain Python complex numbers at
d = 1, where every tensor has a single entry, and numpy tensors at d > 1.
Components are never changed in place, so states may share them.

Word actions carry a depth budget: a caller that reads only components up
to some depth at the end passes that depth, and each step then keeps only
components that the remaining factors can still bring back within it.  Only
generator symbols change the depth, each by at most one, so the budget of a
step is the caller's depth plus the number of symbols still to apply;
coefficient factors count for nothing.  Components beyond the remaining
budget are never built, so an expectation of a word with s symbols never
builds depth beyond floor(s/2) and is exact, up to float roundoff, for any
truncation at or above floor(s/2).
"""

from __future__ import annotations

import copy
import functools
import json
import math
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .balgebra import CPMap, as_belement, identity
from .bnc import LEFT, RIGHT
from .words import BCoeff, GeneratorSymbol, MomentFunctional, as_monomial


# The vacuum-expectation states a model keeps, keyed by (suffix, budget); the
# oldest is dropped first once there are more.
SUFFIX_STATES = 256


class TruncationError(RuntimeError):
    """A creation operator tried to build a component beyond the configured
    depth that could still be brought back within the caller's depth budget
    (for an expectation: back to depth 0)."""


# --- per-dimension arithmetic ----------------------------------------------

class _Scalars:
    """d = 1: a component or a coefficient is its single entry, a complex
    number, and a covariance is the number eta(1)."""

    one = 1.0 + 0.0j

    def covariance(self, eta: CPMap) -> complex:
        return complex(eta(np.eye(1))[0, 0])

    def entry(self, a: np.ndarray) -> complex:
        return a.item()

    def create(self, t, left: bool):
        return t

    def contract(self, t, cov, left: bool):
        return cov * t

    def multiply(self, t, b, left: bool):
        return b * t

    def nonzero(self, t, tol: float) -> bool:
        return not abs(t) <= tol  # a NaN entry is kept

    def matrix(self, t) -> np.ndarray:
        return np.array([[t]], dtype=complex)

    def pair(self, covs, tu, sv):
        val = sv.conjugate() * tu
        for c in covs:
            val *= c
        return val


class _Tensors:
    """d > 1: a depth-m component is a tensor with 2(m+1) axes of length d;
    a covariance is its Kraus list with its pairing kernel."""

    def __init__(self, d: int):
        self.one = identity(d)
        self.one.flags.writeable = False  # every vacuum shares it

    def covariance(self, eta: CPMap):
        d = eta.dim
        ker = np.zeros((d, d, d, d), dtype=complex)
        for v in eta.kraus:
            ker += np.einsum("pa,qb->pqab", v, v.conj())
        return eta.kraus, ker

    def entry(self, a: np.ndarray) -> np.ndarray:
        return a

    def create(self, t, left: bool):
        return np.multiply.outer(self.one, t) if left else np.multiply.outer(t, self.one)

    def contract(self, t, cov, left: bool):
        # b0 Z b1 ... -> eta(b0) b1 ...  (mirrored on the right)
        out = np.zeros_like(t)
        if left:
            for v in cov[0]:
                out += np.einsum("ia,ab...,jb->ij...", v, t, v.conj())
            return np.einsum("iccj...->ij...", out)
        for v in cov[0]:
            out += np.einsum("ia,...ac,jc->...ij", v, t, v.conj())
        return np.einsum("...iccj->...ij", out)

    def multiply(self, t, b, left: bool):
        if left:
            return np.einsum("ia,aj...->ij...", b, t)
        return np.einsum("...ia,aj->...ij", t, b)

    def nonzero(self, t, tol: float) -> bool:
        return not np.max(np.abs(t)) <= tol  # a NaN entry is kept

    def matrix(self, t) -> np.ndarray:
        return t.copy()

    def pair(self, covs, tu, sv) -> np.ndarray:
        m = len(covs)
        if m == 0:
            return sv.conj().T @ tu
        # One big contraction.  Labels: shared first left-slot index c; for
        # each depth t >= 1 a covariance kernel K_t couples (v_t i, u_t i,
        # v_{t-1} j, u_{t-1} j); the output axes are (v_m j, u_m j).
        nxt = iter(range(4 * m + 3))
        c = next(nxt)
        uj = [next(nxt) for _ in range(m + 1)]
        vj = [next(nxt) for _ in range(m + 1)]
        ui = [None] + [next(nxt) for _ in range(m)]
        vi = [None] + [next(nxt) for _ in range(m)]
        sub_u = [c, uj[0]]
        sub_v = [c, vj[0]]
        for t in range(1, m + 1):
            sub_u += [ui[t], uj[t]]
            sub_v += [vi[t], vj[t]]
        operands = [tu, sub_u, sv.conj(), sub_v]
        for t in range(1, m + 1):
            operands += [covs[t - 1][1], [vi[t], ui[t], vj[t - 1], uj[t - 1]]]
        operands.append([vj[m], uj[m]])
        return np.einsum(*operands, optimize=True)


@functools.lru_cache(maxsize=None)
def _arithmetic(dim: int):
    return _Scalars() if dim == 1 else _Tensors(dim)


class FockVector:
    """Finite formal sum of basis words, grouped by index sequence.

    The depth-m component for a fixed index sequence is one tensor with
    2(m+1) axes of length ``dim``; at ``dim`` 1 it is kept as a complex
    number.  Components are never changed in place: sums and scalings build
    new ones, so copies share them.
    """

    __slots__ = ("dim", "terms", "_ar")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self._ar = _arithmetic(dim)
        self.terms: dict[tuple, np.ndarray | complex] = {}
        if terms:
            for ks, t in terms.items():
                ks = tuple(ks)
                self._accumulate(ks, self._coerce(ks, t))

    def _coerce(self, ks: tuple, t):
        a = np.array(t, dtype=complex)
        expected = (self.dim,) * (2 * (len(ks) + 1))
        if a.shape != expected:
            raise ValueError(f"tensor shape {a.shape} != {expected} for indices {ks}")
        return self._ar.entry(a)

    def _accumulate(self, ks: tuple, t) -> None:
        cur = self.terms.get(ks)
        self.terms[ks] = t if cur is None else cur + t

    @classmethod
    def vacuum(cls, dim: int) -> "FockVector":
        v = cls(dim)
        v.terms = {(): v._ar.one}
        return v

    def copy(self) -> "FockVector":
        v = FockVector(self.dim)
        v.terms = dict(self.terms)
        return v

    def depth(self) -> int:
        return max((len(ks) for ks in self.terms), default=0)

    def depth0(self) -> np.ndarray:
        """Projection onto the coefficient-algebra summand."""
        t = self.terms.get(())
        if t is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self._ar.matrix(t)

    def scaled(self, c: complex) -> "FockVector":
        v = FockVector(self.dim)
        v.terms = {ks: c * t for ks, t in self.terms.items()}
        return v

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        v = self.copy()
        for ks, t in other.terms.items():
            v._accumulate(ks, t)
        return v

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scaled(-1.0)

    def prune(self, tol: float = 0.0) -> "FockVector":
        """Drop the components whose entries are all within ``tol`` of 0;
        a component holding a NaN is kept, so that it reaches every reader."""
        nonzero = self._ar.nonzero
        self.terms = {ks: t for ks, t in self.terms.items() if nonzero(t, tol)}
        return self

    def __repr__(self):
        return f"FockVector(d={self.dim}, terms={len(self.terms)}, depth={self.depth()})"


_CREATORS = ("l", "r")
_ANNIHILATORS = ("l*", "r*")
_COEFFICIENTS = ("Lb", "Rb")


class FockModel:
    """Word operators over a full Fock space, one covariance map per index.

    ``covariances`` maps every index k to the CP map eta_k applied when an
    annihilator of index k meets a creator of index k; an annihilator never
    meets a creator of another index.  ``functional`` is the model's one
    moment functional, the vacuum expectation behind one moment cache,
    shared by every reader of the model's moments.
    """

    def __init__(
        self,
        dim: int,
        left_indices: Sequence,
        right_indices: Sequence,
        covariances: dict,
        max_depth: int | None = None,
    ):
        self.dim = dim
        self.left_indices = tuple(left_indices)
        self.right_indices = tuple(right_indices)
        if set(self.left_indices) & set(self.right_indices):
            raise ValueError("left and right index sets must be disjoint")
        self.covariances: dict = dict(covariances)
        if set(self.covariances) != set(self.indices):
            raise ValueError("need exactly one covariance map per index")
        for eta in self.covariances.values():
            if eta.dim != dim:
                raise ValueError("covariance dimension mismatch")
        self._ar = _arithmetic(dim)
        self._cov = {k: self._ar.covariance(eta) for k, eta in self.covariances.items()}
        # The indices a right operator acts on, which only ``norm_sq`` reads
        # at d > 1: the right ones and those of every right factor registered
        # in a symbol or applied on its own.
        self._right_acted: set = set(self.right_indices)
        self.max_depth = max_depth
        self.symbol_actions: dict[GeneratorSymbol, tuple[tuple[complex, tuple], ...]] = {}
        self._suffix_states: dict[tuple, FockVector] = {}
        # The oracle is bound to a shallow copy that shares every table (the
        # suffix states too) but not the functional: model and functional
        # form no reference cycle.
        self.functional = MomentFunctional(copy.copy(self).expectation, dim)

    @property
    def indices(self) -> tuple:
        return self.left_indices + self.right_indices

    def _check_index(self, k) -> None:
        if k not in self._cov:
            raise KeyError(f"unknown index {k!r}")

    def register_symbol(
        self,
        sym: GeneratorSymbol,
        action: Iterable[tuple[complex, tuple]],
        self_adjoint: bool = False,
    ) -> GeneratorSymbol:
        """Attach a symbol acting as a linear combination of elementary factors.

        Each action term is ``(coeff, ("l"| "l*" | "r" | "r*", index))``.
        With ``self_adjoint`` the starred symbol resolves to the same action.
        Registering a symbol again with the same action changes nothing; with
        another action it raises ``ValueError``, since the moment cache keys
        on the symbol and would keep the old moments.
        """
        terms = tuple((complex(c), (str(op), k)) for c, (op, k) in action)
        for _, (op, k) in terms:
            if op not in _CREATORS + _ANNIHILATORS:
                raise ValueError(f"unknown factor kind {op!r}")
            self._check_index(k)
        keys = (sym, sym.star()) if self_adjoint else (sym,)
        for key in keys:
            if self.symbol_actions.get(key, terms) != terms:
                raise ValueError(f"symbol {key!r} is already registered with another action")
        self.symbol_actions.update(dict.fromkeys(keys, terms))
        if self.dim > 1:
            self._right_acted.update(k for _, (op, k) in terms if op in ("r", "r*"))
        return sym

    def combination_symbol(
        self,
        name: str,
        side: str,
        terms: Iterable[tuple[complex, GeneratorSymbol]],
        family: str | None = None,
        adjoint: bool = False,
    ) -> GeneratorSymbol:
        """A derived generator acting as a linear combination of existing ones."""
        action: list[tuple[complex, tuple]] = []
        fam = family
        for c, sym in terms:
            if sym.side != side:
                raise ValueError("combination mixes sides")
            fam = fam or sym.family
            action.extend((c * c0, f) for c0, f in self.symbol_actions[sym])
        out = GeneratorSymbol(name, side, adjoint, fam or name)
        return self.register_symbol(out, action)

    def pure_side(self, f) -> str | None:
        """The side whose operators alone make up ``f``, or None.

        A coefficient factor is pure on its own side.  A registered symbol is
        pure when every factor of its action is a creator or annihilator of
        its own side on an index of that side.  Operators pure on opposite
        sides act on opposite ends of every word and commute.
        """
        if isinstance(f, BCoeff):
            return f.side
        action = self.symbol_actions.get(f)
        if action is None:
            return None
        if f.side == LEFT:
            ops, indices = ("l", "l*"), self.left_indices
        else:
            ops, indices = ("r", "r*"), self.right_indices
        if all(op in ops and k in indices for _, (op, k) in action):
            return f.side
        return None

    # -- elementary actions --------------------------------------------------

    def apply_factor(
        self, factor: tuple, vec: FockVector, keep_depth: int | None = None
    ) -> FockVector:
        """Apply one elementary factor ``(kind, payload)`` to a state.

        Kinds: ``("l", k)``, ``("l*", k)``, ``("r", k)``, ``("r*", k)``,
        ``("Lb", b)``, ``("Rb", b)``.  Output components deeper than
        ``keep_depth`` are not built.
        """
        kind, payload = factor
        if kind in _COEFFICIENTS:
            payload = self._ar.entry(as_belement(payload, self.dim))
        elif kind in _CREATORS + _ANNIHILATORS:
            self._check_index(payload)
            if self.dim > 1 and kind in ("r", "r*"):
                self._right_acted.add(payload)
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
        return self._act(((None, (kind, payload)),), vec, keep_depth)

    def _act(self, action, vec: FockVector, keep_depth: int | None) -> FockVector:
        """Sum of ``c * factor(vec)`` over the ``(c, factor)`` terms, in one pass.

        ``c`` is None for a bare factor; coefficient payloads are already in
        the arithmetic's form.  With one covariance per index a factor sends
        distinct components to distinct components, so each output component
        is the sum of the products ``c * x`` in action order.  The depth
        budget and the truncation check live here and nowhere else.
        """
        keep = math.inf if keep_depth is None else keep_depth
        ar, cov = self._ar, self._cov
        out: dict = {}
        for c, (kind, arg) in action:
            left = kind in ("l", "l*", "Lb")
            creates, annihilates = kind in _CREATORS, kind in _ANNIHILATORS
            for ks, t in vec.terms.items():
                m = len(ks)
                if creates:
                    if m + 1 > keep:
                        continue
                    if self.max_depth is not None and m + 1 > self.max_depth:
                        raise TruncationError(f"creation would exceed max depth {self.max_depth}")
                    nk = (arg,) + ks if left else ks + (arg,)
                    x = ar.create(t, left)
                elif annihilates:
                    # annihilation kills the depth-0 summand
                    if not ks or m - 1 > keep or (ks[0] if left else ks[-1]) != arg:
                        continue
                    nk = ks[1:] if left else ks[:-1]
                    x = ar.contract(t, cov[arg], left)
                else:
                    if m > keep:
                        continue
                    nk, x = ks, ar.multiply(t, arg, left)
                if c is not None:
                    x = c * x
                cur = out.get(nk)
                out[nk] = x if cur is None else cur + x
        res = FockVector(self.dim)
        res.terms = out
        return res.prune()

    def apply_symbol(self, f, vec: FockVector, keep_depth: int | None = None) -> FockVector:
        """Apply a coefficient factor or a registered symbol's whole action."""
        if isinstance(f, BCoeff):
            kind = "Lb" if f.side == LEFT else "Rb"
            return self.apply_factor((kind, f.matrix), vec, keep_depth)
        if isinstance(f, GeneratorSymbol):
            action = self.symbol_actions.get(f)
            if action is None:
                raise KeyError(f"symbol {f!r} not registered with this model")
            return self._act(action, vec, keep_depth)
        raise TypeError(f"cannot apply {f!r}")

    def apply_word(self, word, vec: FockVector, keep_depth: int | None = None) -> FockVector:
        """Apply a monomial (leftmost factor acts last).

        With ``keep_depth`` the result is exact up to that depth only: each
        step drops the components that the symbols still to apply can no
        longer bring back within it.
        """
        factors = as_monomial(word).factors
        budget = None
        if keep_depth is not None:
            budget = keep_depth + sum(isinstance(f, GeneratorSymbol) for f in factors)
        for f in reversed(factors):
            if budget is not None and isinstance(f, GeneratorSymbol):
                budget -= 1
            vec = self.apply_symbol(f, vec, budget)
        return vec

    def expectation(self, word) -> np.ndarray:
        """E(word) = depth-0 part of (word applied to the vacuum).

        The state after each suffix of the word is kept, keyed by the suffix
        and its depth budget (the symbols left of it, still to apply), for the
        last ``SUFFIX_STATES`` such states built; the oldest is dropped
        first.  A word starts from the longest suffix kept and applies only
        the factors left of it.  The key fixes every factor applied and every
        budget they were applied with, so a kept state is the one that
        ``apply_word(word, vacuum, keep_depth=0)`` builds there, bit for bit.
        A state with budget 0 is not kept: only its depth-0 part is ever
        read, and the moment cache holds that.
        """
        factors = as_monomial(word).factors
        states = self._suffix_states
        # budgets[j]: the symbols among factors[:j]
        budgets = list(accumulate((isinstance(f, GeneratorSymbol) for f in factors), initial=0))
        vec, start = FockVector.vacuum(self.dim), len(factors)
        for j in range(1, start):
            kept = states.get((factors[j:], budgets[j])) if budgets[j] else None
            if kept is not None:
                vec, start = kept, j
                break
        for j in range(start - 1, -1, -1):
            vec = self.apply_symbol(factors[j], vec, budgets[j])
            if budgets[j]:
                states[(factors[j:], budgets[j])] = vec
                if len(states) > SUFFIX_STATES:
                    del states[next(iter(states))]
        return vec.depth0()

    # -- geometry -------------------------------------------------------------

    def inner_B(self, u: FockVector, v: FockVector) -> np.ndarray:
        """Matrix-valued pairing <u, v>_B, built from iterated covariances.

        Components with different index sequences are orthogonal; a common
        sequence k1..km is paired through eta_{k1}, ..., eta_{km}.  The
        pairing contracts from the left, which is the GNS geometry for states
        generated by left operators (creation and annihilation of a common
        index are mutually adjoint) and for every state over scalar
        coefficients.  For right-generated states with a matrix covariance
        the GNS inner product instead goes through the trace of operator
        words: the squared norm of a word w is tau(w* w).
        """
        terms = v.terms
        total = sum(
            self._ar.pair([self._cov[k] for k in ks], tu, terms[ks])
            for ks, tu in u.terms.items()
            if ks in terms
        )
        return np.zeros((self.dim, self.dim), dtype=complex) + total

    def inner(self, u: FockVector, v: FockVector) -> complex:
        return complex(np.trace(self.inner_B(u, v))) / self.dim

    def norm_sq(self, u: FockVector) -> float:
        """tau of ``inner_B(u, u)``, the squared GNS norm tau(w* w) of
        u = w Omega over scalars, and at d > 1 when every covariance map is
        trace-symmetric (tau(eta(a) b) = tau(a eta(b))) or no component of u
        is on an index that a right operator acts on.  Otherwise, where the
        left-contracted pairing is not tau(w* w), it raises ``ValueError``."""
        if (
            self.dim > 1
            and any(k in self._right_acted for ks in u.terms for k in ks)
            and not self._trace_symmetric
        ):
            raise ValueError(
                "norm_sq of a state with right-side structure needs trace-symmetric "
                "covariance maps at d > 1"
            )
        val = self.inner(u, u)
        return float(val.real)

    @functools.cached_property
    def _trace_symmetric(self) -> bool:
        return all(eta.is_trace_symmetric() for eta in self.covariances.values())

    def vector_of(self, word) -> FockVector:
        """The GNS vector of an operator word (word applied to the vacuum)."""
        return self.apply_word(word, FockVector.vacuum(self.dim))


# --- model builders ---------------------------------------------------------

class BisemicircularModel:
    """Self-adjoint sums creation+annihilation on both sides, one CP map each.

    Exposes left symbols S1..Sn, right symbols D1..Dm, and the Fock
    model's moment functional (the same object).  Each symbol is its own
    family: the pair generated by S_i on the left (resp. D_j on the right)
    together with the opposite copy of the coefficient algebra is bi-free
    from the others over the coefficient algebra.
    """

    def __init__(self, eta_left: Sequence[CPMap], eta_right: Sequence[CPMap],
                 max_depth: int | None = None):
        etas = list(eta_left) + list(eta_right)
        if not etas:
            raise ValueError("need at least one covariance map")
        d = etas[0].dim
        for eta in etas:
            if eta.dim != d:
                raise ValueError("covariance maps must share one dimension")
        lidx = tuple(f"S{i+1}" for i in range(len(eta_left)))
        ridx = tuple(f"D{j+1}" for j in range(len(eta_right)))
        cov = dict(zip(lidx + ridx, etas))
        self.model = FockModel(d, lidx, ridx, cov, max_depth=max_depth)
        self.dim = d
        self.left_symbols = tuple(
            self.model.register_symbol(
                GeneratorSymbol(k, LEFT, family=k),
                [(1.0, ("l", k)), (1.0, ("l*", k))],
                self_adjoint=True,
            )
            for k in lidx
        )
        self.right_symbols = tuple(
            self.model.register_symbol(
                GeneratorSymbol(k, RIGHT, family=k),
                [(1.0, ("r", k)), (1.0, ("r*", k))],
                self_adjoint=True,
            )
            for k in ridx
        )
        self.functional = self.model.functional

    @property
    def symbols(self) -> tuple[GeneratorSymbol, ...]:
        return self.left_symbols + self.right_symbols

    def symbol(self, name: str) -> GeneratorSymbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)

    @classmethod
    def from_json(cls, obj: dict | str, max_depth: int | None = None) -> "BisemicircularModel":
        if isinstance(obj, str):
            obj = json.loads(obj)
        left = [CPMap.from_json(e) for e in obj.get("left", [])]
        right = [CPMap.from_json(e) for e in obj.get("right", [])]
        return cls(left, right, max_depth=max_depth)

    def to_json(self) -> dict:
        n = len(self.left_symbols)
        keys = self.model.left_indices + self.model.right_indices
        etas = [self.model.covariances[k].to_json() for k in keys]
        return {"d": self.dim, "left": etas[:n], "right": etas[n:]}


def make_bisemicircular(eta_left: Sequence[CPMap], eta_right: Sequence[CPMap],
                        max_depth: int | None = None) -> BisemicircularModel:
    return BisemicircularModel(eta_left, eta_right, max_depth=max_depth)


def make_standard_semicircular(n_left: int = 1, n_right: int = 0) -> BisemicircularModel:
    """Scalar variance-1 semicircular generators (identity covariance)."""
    one = CPMap.identity(1)
    return BisemicircularModel([one] * n_left, [one] * n_right)


class CircularPairModel:
    """Left/right pairs of circular elements over scalar coefficients.

    Each pair is built from two left and two right scalar variance-1
    semicircular generators of one ``BisemicircularModel``: the left element
    is (S1 + i S2)/sqrt(2), its adjoint (S1 - i S2)/sqrt(2), and the right
    ones the same combinations of D1 and D2 (S3, S4, D3, D4 for the second
    pair, and so on).  The four symbols of a pair share one family tag (they
    form a single two-faced pair); distinct pairs are bi-free from each other.
    """

    def __init__(self, n_pairs: int = 1):
        if n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {n_pairs!r}")
        one = CPMap.identity(1)
        bs = BisemicircularModel([one] * (2 * n_pairs), [one] * (2 * n_pairs))
        self.model = bs.model
        self.dim = 1
        isq = 1.0 / np.sqrt(2.0)
        mk = self.model.combination_symbol
        self.pairs: list[tuple[GeneratorSymbol, ...]] = []
        for p in range(n_pairs):
            tag = "" if p == 0 else str(p + 1)
            pair = []
            for name, (s1, s2) in (
                (f"cl{tag}", bs.left_symbols[2 * p:2 * p + 2]),
                (f"cr{tag}", bs.right_symbols[2 * p:2 * p + 2]),
            ):
                for adjoint, phase in ((False, 1j), (True, -1j)):
                    pair.append(mk(name, s1.side, [(isq, s1), (phase * isq, s2)],
                                   family=f"c{p + 1}", adjoint=adjoint))
            self.pairs.append(tuple(pair))
        self.c_l, self.c_l_star, self.c_r, self.c_r_star = self.pairs[0]
        self.functional = self.model.functional

    @property
    def symbols(self) -> tuple[GeneratorSymbol, ...]:
        return tuple(s for pair in self.pairs for s in pair)


def make_circular_pair() -> CircularPairModel:
    return CircularPairModel()
