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
coefficient dimension; the per-component arithmetic (create, contract
through a covariance, multiply by a coefficient, zero test, depth-0 matrix,
pairing) once per dimension: Python complex numbers and the kernel entry
eta(1) at d = 1, numpy tensors contracted against ``CPMap.kernel`` at d > 1;
one table gives each factor kind its side and its depth step.
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

Every builder returns a ``FockModel``: ``make_bisemicircular`` (one CP map
per generator, symbols S1.. and D1..), ``make_standard_semicircular`` and
``make_circular_pair`` (symbols cl, cr, ... as combinations of those
generators).  Registering a symbol registers its adjoint, derived from its
action.  ``bisemicircular_from_json`` reads the covariance maps that
``FockModel.to_json`` writes.
"""

from __future__ import annotations

import copy
import functools
import math
from collections import Counter
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .balgebra import CPMap, as_belement, identity, json_dim, json_fields
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
    number, and a covariance is the kernel's single entry eta(1)."""

    one = 1.0 + 0.0j

    def covariance(self, eta: CPMap) -> complex:
        return complex(eta.kernel[0, 0, 0, 0])

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
    """d > 1: a depth-m component is a tensor with 2(m+1) axes of length d,
    (row, column) per slot; a covariance is the map's kernel ``CPMap.kernel``.
    The pairing v_m* eta_m(... eta_1(v_0* u_0) ...) u_m folds the kernels
    slot by slot, as the d = 1 product does."""

    def __init__(self, d: int):
        self.one = identity(d)
        self.one.flags.writeable = False  # every vacuum shares it

    def covariance(self, eta: CPMap) -> np.ndarray:
        return eta.kernel

    def entry(self, a: np.ndarray) -> np.ndarray:
        return a

    def create(self, t, left: bool):
        return np.multiply.outer(self.one, t) if left else np.multiply.outer(t, self.one)

    def contract(self, t, cov, left: bool):
        # b0 Z b1 ... -> eta(b0) b1 ...  (mirrored on the right)
        if left:
            return np.einsum("icab,abcj...->ij...", cov, t)
        return np.einsum("...icab,cjab->...ij", t, cov)

    def multiply(self, t, b, left: bool):
        if left:
            return np.einsum("ia,aj...->ij...", b, t)
        return np.einsum("...ia,aj->...ij", t, b)

    def nonzero(self, t, tol: float) -> bool:
        return not np.max(np.abs(t)) <= tol  # a NaN entry is kept

    def matrix(self, t) -> np.ndarray:
        return t.copy()

    def pair(self, covs, tu, sv) -> np.ndarray:
        # Each kernel trades u's (column t-1, row t) for v's: x keeps u's size.
        x = tu
        for k in covs:
            x = np.tensordot(x, k, axes=([1, 2], [3, 1])).swapaxes(-2, -1)
        # x: (row 0, u's last column, v's inner axes); close against conj(v).
        n = 2 * len(covs) + 1
        return np.tensordot(np.moveaxis(sv.conj(), -1, 0), np.moveaxis(x, 1, -1), n)


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


# Every factor kind: the side it acts on and its depth step (+1 creates, -1
# annihilates, 0 multiplies by a coefficient).
_KINDS = {"l": (LEFT, 1), "l*": (LEFT, -1), "Lb": (LEFT, 0),
          "r": (RIGHT, 1), "r*": (RIGHT, -1), "Rb": (RIGHT, 0)}
_KIND_OF = {v: kind for kind, v in _KINDS.items()}  # (side, step) -> kind
# A creator's adjoint is the annihilator of its index and side, and back.
_PARTNER = {"l": "l*", "l*": "l", "r": "r*", "r*": "r"}


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
        # The indices a right operator acts on, which only ``norm_sq`` reads:
        # the right ones and those of every right factor registered in a
        # symbol or applied on its own.
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

    def register_symbol(self, sym: GeneratorSymbol,
                        action: Iterable[tuple[complex, tuple]]) -> GeneratorSymbol:
        """Attach a symbol acting as a linear combination of elementary factors.

        Each action term is ``(coeff, ("l"| "l*" | "r" | "r*", index))``.  The
        adjoint ``sym.star()`` is registered too, with the terms (conj(coeff),
        (partner, index)), l <-> l* and r <-> r*, in the order their factors
        first occur in the action; when they hold its terms in any order, both share it.
        Registering a symbol again with the action it has changes nothing;
        with another action it raises ``ValueError``, since the moment cache
        keys on the symbol and would keep the old moments.
        """
        terms = tuple((complex(c), (str(op), k)) for c, (op, k) in action)
        for _, (op, k) in terms:
            if op not in _PARTNER:
                raise ValueError(f"unknown factor kind {op!r}")
            self._check_index(k)
        if sym in self.symbol_actions:
            if self.symbol_actions[sym] != terms:
                raise ValueError(f"symbol {sym!r} is already registered with another action")
            return sym
        adj = tuple((c.conjugate(), (_PARTNER[op], k)) for c, (op, k) in terms)
        rank = {f: i for i, f in enumerate(dict.fromkeys(f for _, f in terms + adj))}
        adj = tuple(sorted(adj, key=lambda t: rank[t[1]]))
        self.symbol_actions[sym] = terms
        self.symbol_actions[sym.star()] = terms if Counter(adj) == Counter(terms) else adj
        self._right_acted.update(k for _, (op, k) in terms if _KINDS[op][0] == RIGHT)
        return sym

    def combination_symbol(self, name: str, terms: Iterable[tuple[complex, GeneratorSymbol]],
                           family: str | None = None) -> GeneratorSymbol:
        """A derived generator acting as a linear combination of existing
        ones, on their common side; its adjoint is registered with it."""
        terms = list(terms)
        sides = {sym.side for _, sym in terms}
        if len(sides) != 1:
            raise ValueError("combination mixes sides" if sides else "combination has no terms")
        action = [(c * c0, f) for c, sym in terms for c0, f in self.symbol_actions[sym]]
        out = GeneratorSymbol(name, sides.pop(), family=family or terms[0][1].family)
        return self.register_symbol(out, action)

    @property
    def symbols(self) -> tuple[GeneratorSymbol, ...]:
        """The registered generators in registration order, adjoints left out."""
        return tuple(s for s in self.symbol_actions if not s.adjoint)

    def symbol(self, name: str) -> GeneratorSymbol:
        """The registered generator called ``name``, not its adjoint."""
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_json(self) -> dict:
        """The covariance maps only, as ``bisemicircular_from_json`` reads
        them: combination symbols such as cl and cr do not survive."""
        cov = self.covariances
        return {
            "d": self.dim,
            "left": [cov[k].to_json() for k in self.left_indices],
            "right": [cov[k].to_json() for k in self.right_indices],
        }

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
        indices = self.left_indices if f.side == LEFT else self.right_indices
        if all(_KINDS[op][0] == f.side and k in indices for _, (op, k) in action):
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
        if kind not in _KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        side, step = _KINDS[kind]
        if not step:
            payload = self._ar.entry(as_belement(payload, self.dim))
        else:
            self._check_index(payload)
            if side == RIGHT:
                self._right_acted.add(payload)
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
            side, step = _KINDS[kind]
            left = side == LEFT
            for ks, t in vec.terms.items():
                m = len(ks)
                if step > 0:
                    if m + 1 > keep:
                        continue
                    if self.max_depth is not None and m + 1 > self.max_depth:
                        raise TruncationError(f"creation would exceed max depth {self.max_depth}")
                    nk = (arg,) + ks if left else ks + (arg,)
                    x = ar.create(t, left)
                elif step < 0:
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
            return self.apply_factor((_KIND_OF[f.side, 0], f.matrix), vec, keep_depth)
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

def make_bisemicircular(eta_left: Sequence[CPMap], eta_right: Sequence[CPMap],
                        max_depth: int | None = None) -> FockModel:
    """Self-adjoint sums creation+annihilation on both sides, one CP map each.

    Registers the left symbols S1..Sn, then the right symbols D1..Dm.  Each
    symbol is its own family: the pair generated by S_i on the left (resp.
    D_j on the right) together with the opposite copy of the coefficient
    algebra is bi-free from the others over the coefficient algebra.
    """
    etas = list(eta_left) + list(eta_right)
    if not etas:
        raise ValueError("need at least one covariance map")
    lidx = tuple(f"S{i+1}" for i in range(len(eta_left)))
    ridx = tuple(f"D{j+1}" for j in range(len(eta_right)))
    model = FockModel(etas[0].dim, lidx, ridx, dict(zip(lidx + ridx, etas)), max_depth)
    for side, idx in ((LEFT, lidx), (RIGHT, ridx)):
        for k in idx:
            model.register_symbol(GeneratorSymbol(k, side, family=k),
                                  [(1.0, (_KIND_OF[side, step], k)) for step in (1, -1)])
    return model


def bisemicircular_from_json(obj: dict, max_depth: int | None = None) -> FockModel:
    """The bi-semicircular model of ``FockModel.to_json``'s form.  The maps fix
    the dimension; a ``"d"`` other than theirs, or one that is not an ``int``,
    raises ``ValueError``, and so does a field other than d, left and right."""
    json_fields(obj, "model", ("d", "left", "right"))
    left = [CPMap.from_json(e) for e in obj.get("left", [])]
    right = [CPMap.from_json(e) for e in obj.get("right", [])]
    model = make_bisemicircular(left, right, max_depth=max_depth)
    if (d := json_dim(obj)) not in (None, model.dim):
        raise ValueError(f"model says d={d}, its maps have d={model.dim}")
    return model


def make_standard_semicircular(n_left: int = 1, n_right: int = 0) -> FockModel:
    """Scalar variance-1 semicircular generators (identity covariance)."""
    one = CPMap.identity(1)
    return make_bisemicircular([one] * n_left, [one] * n_right)


def make_circular_pair(n_pairs: int = 1) -> FockModel:
    """Left/right pairs of circular elements over scalar coefficients.

    Each pair is built from two left and two right scalar variance-1
    semicircular generators of one bi-semicircular model: the left element
    ``cl`` is (S1 + i S2)/sqrt(2), the right one ``cr`` is (D1 + i D2)/sqrt(2),
    and their adjoints (registered with them) are the combinations with -i.
    The second pair, ``cl2`` and ``cr2``, is built from S3, S4, D3 and D4,
    and so on.  The four symbols of a pair share one family tag (they form a
    single two-faced pair); distinct pairs are bi-free from each other.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs!r}")
    one = CPMap.identity(1)
    model = make_bisemicircular([one] * (2 * n_pairs), [one] * (2 * n_pairs))
    isq = 1.0 / np.sqrt(2.0)
    for p in range(n_pairs):
        tag = "" if p == 0 else str(p + 1)
        for name, base in ((f"cl{tag}", "S"), (f"cr{tag}", "D")):
            s1, s2 = model.symbol(f"{base}{2 * p + 1}"), model.symbol(f"{base}{2 * p + 2}")
            model.combination_symbol(name, [(isq, s1), (1j * isq, s2)], family=f"c{p + 1}")
    return model
