"""Exact finite-depth full Fock space over a matrix algebra.

States are formal sums of words  b0 Z_{k1} b1 ... Z_{km} bm  with matrix
coefficients; a depth-m component with a fixed index sequence is stored as a
single tensor with 2(m+1) axes (two per coefficient slot), so linear
combinations over the coefficient algebra come for free.  Left/right
creation prepends/appends a symbol; annihilation feeds the adjacent
coefficient through the covariance map of the matching index and merges it
into its neighbour.

Word actions carry a depth budget: a caller that reads only components up
to some depth at the end passes that depth, and each step then keeps only
components that the remaining factors can still bring back within it.
Components beyond the remaining budget are never built, so an expectation of
a word of length n never builds depth beyond floor(n/2) and is exact, up to
float roundoff, for any truncation at or above floor(n/2).
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

from .balgebra import CPMap, as_belement, identity
from .bnc import LEFT, RIGHT
from .words import BCoeff, GeneratorSymbol, MomentFunctional, as_monomial


class TruncationError(RuntimeError):
    """A creation operator tried to build a component beyond the configured
    depth that could still be brought back within the caller's depth budget
    (for an expectation: back to depth 0)."""


# --- tensor actions ---------------------------------------------------------

def _mul_left_slot0(b: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.einsum("ia,aj...->ij...", b, t)


def _mul_right_last(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...ia,aj->...ij", t, b)


def _eta_slot0(t: np.ndarray, eta: CPMap) -> np.ndarray:
    out = np.zeros_like(t)
    for v in eta.kraus:
        out += np.einsum("ia,ab...,jb->ij...", v, t, v.conj())
    return out


def _eta_last(t: np.ndarray, eta: CPMap) -> np.ndarray:
    out = np.zeros_like(t)
    for v in eta.kraus:
        out += np.einsum("ia,...ac,jc->...ij", v, t, v.conj())
    return out


def _merge_first_two(t: np.ndarray) -> np.ndarray:
    # (b0 (x) b1 (x) rest) -> (b0 @ b1) (x) rest
    return np.einsum("iccj...->ij...", t)


def _merge_last_two(t: np.ndarray) -> np.ndarray:
    return np.einsum("...iccj->...ij", t)


class FockVector:
    """Finite formal sum of basis words, grouped by index sequence.

    The depth-m component for a fixed index sequence is one tensor with
    2(m+1) axes; for scalar coefficients (dim 1) the tensor degenerates to a
    single complex number and is stored as such.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms: dict[tuple, np.ndarray | complex] = {}
        if terms:
            for ks, t in terms.items():
                self._accumulate(tuple(ks), self._coerce(ks, t))

    def _coerce(self, ks, t):
        if self.dim == 1:
            return complex(np.asarray(t).reshape(-1)[0]) if not isinstance(t, (int, float, complex)) else complex(t)
        t = np.asarray(t, dtype=complex)
        expected = (self.dim,) * (2 * (len(ks) + 1))
        if t.shape != expected:
            raise ValueError(f"tensor shape {t.shape} != {expected} for indices {ks}")
        return t

    def _accumulate(self, ks: tuple, t) -> None:
        cur = self.terms.get(ks)
        if cur is None:
            self.terms[ks] = t if self.dim == 1 else t.copy()
        elif self.dim == 1:
            self.terms[ks] = cur + t
        else:
            cur += t

    @classmethod
    def vacuum(cls, dim: int) -> "FockVector":
        return cls(dim, {(): identity(dim)})

    def copy(self) -> "FockVector":
        v = FockVector(self.dim)
        if self.dim == 1:
            v.terms = dict(self.terms)
        else:
            v.terms = {ks: t.copy() for ks, t in self.terms.items()}
        return v

    def depth(self) -> int:
        return max((len(ks) for ks in self.terms), default=0)

    def depth0(self) -> np.ndarray:
        """Projection onto the coefficient-algebra summand."""
        t = self.terms.get(())
        if t is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        if self.dim == 1:
            return np.array([[t]], dtype=complex)
        return t.copy()

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
        if self.dim == 1:
            self.terms = {ks: t for ks, t in self.terms.items() if abs(t) > tol}
        else:
            self.terms = {
                ks: t for ks, t in self.terms.items() if np.max(np.abs(t)) > tol
            }
        return self

    def __repr__(self):
        return f"FockVector(d={self.dim}, terms={len(self.terms)}, depth={self.depth()})"


class FockModel:
    """Word operators over a full Fock space with per-index covariance maps.

    ``covariances`` maps an index pair ``(k1, k2)`` to the CP map applied
    when an annihilator of index k1 meets a creator of index k2.  The
    off-diagonal slots exist in the data model, but the constructors in this
    module only ever populate the diagonal.
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
        self.covariances: dict[tuple, CPMap] = {}
        for pair, eta in covariances.items():
            if eta.dim != dim:
                raise ValueError("covariance dimension mismatch")
            self.covariances[tuple(pair)] = eta
        # Scalar coefficients: a CP map on C is multiplication by a number.
        self._cov_scalar: dict[tuple, complex] = {}
        if dim == 1:
            for pair, eta in self.covariances.items():
                self._cov_scalar[pair] = complex(eta(np.eye(1))[0, 0])
        self.max_depth = max_depth
        self.symbol_actions: dict[GeneratorSymbol, tuple[tuple[complex, tuple], ...]] = {}

    @property
    def indices(self) -> tuple:
        return self.left_indices + self.right_indices

    def _check_index(self, k) -> None:
        if k not in self.left_indices and k not in self.right_indices:
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
        """
        terms = tuple((complex(c), (str(op), k)) for c, (op, k) in action)
        for _, (op, k) in terms:
            if op not in ("l", "l*", "r", "r*"):
                raise ValueError(f"unknown factor kind {op!r}")
            self._check_index(k)
        self.symbol_actions[sym] = terms
        if self_adjoint:
            self.symbol_actions[sym.star()] = terms
        return sym

    def scaled_symbol(self, sym: GeneratorSymbol, lam: complex, name: str | None = None) -> GeneratorSymbol:
        """A derived generator acting as ``lam`` times an existing one."""
        base = self.symbol_actions[sym]
        out = GeneratorSymbol(
            name or f"{lam:g}*{sym.name}", sym.side, sym.adjoint, sym.family
        )
        return self.register_symbol(out, [(lam * c, f) for c, f in base])

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
        d = self.dim
        keep = math.inf if keep_depth is None else keep_depth
        out = FockVector(d)
        if d == 1:
            return self._apply_factor_scalar(kind, payload, vec, out, keep)
        if kind in ("l", "r"):
            self._check_index(payload)
            eye = identity(d)
            for ks, t in vec.terms.items():
                if len(ks) + 1 > keep:
                    continue
                self._check_creation(len(ks) + 1)
                if kind == "l":
                    out._accumulate((payload,) + ks, np.multiply.outer(eye, t))
                else:
                    out._accumulate(ks + (payload,), np.multiply.outer(t, eye))
        elif kind in ("l*", "r*"):
            self._check_index(payload)
            for ks, t in vec.terms.items():
                # annihilation kills the depth-0 summand
                if not ks or len(ks) - 1 > keep:
                    continue
                if kind == "l*":
                    eta = self.covariances.get((payload, ks[0]))
                    if eta is None:
                        continue
                    out._accumulate(ks[1:], _merge_first_two(_eta_slot0(t, eta)))
                else:
                    eta = self.covariances.get((ks[-1], payload))
                    if eta is None:
                        continue
                    out._accumulate(ks[:-1], _merge_last_two(_eta_last(t, eta)))
        elif kind == "Lb":
            b = as_belement(payload, d)
            for ks, t in vec.terms.items():
                if len(ks) <= keep:
                    out._accumulate(ks, _mul_left_slot0(b, t))
        elif kind == "Rb":
            b = as_belement(payload, d)
            for ks, t in vec.terms.items():
                if len(ks) <= keep:
                    out._accumulate(ks, _mul_right_last(t, b))
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
        return out.prune()

    def _check_creation(self, depth: int) -> None:
        if self.max_depth is not None and depth > self.max_depth:
            raise TruncationError(f"creation would exceed max depth {self.max_depth}")

    def _apply_factor_scalar(self, kind, payload, vec: FockVector, out: FockVector,
                             keep) -> FockVector:
        terms = out.terms
        if kind in ("l", "r"):
            self._check_index(payload)
            for ks, v in vec.terms.items():
                if len(ks) + 1 > keep:
                    continue
                self._check_creation(len(ks) + 1)
                nk = (payload,) + ks if kind == "l" else ks + (payload,)
                terms[nk] = terms.get(nk, 0.0) + v
        elif kind in ("l*", "r*"):
            self._check_index(payload)
            for ks, v in vec.terms.items():
                if not ks or len(ks) - 1 > keep:
                    continue
                if kind == "l*":
                    c = self._cov_scalar.get((payload, ks[0]))
                    nk = ks[1:]
                else:
                    c = self._cov_scalar.get((ks[-1], payload))
                    nk = ks[:-1]
                if c is None:
                    continue
                terms[nk] = terms.get(nk, 0.0) + c * v
        elif kind in ("Lb", "Rb"):
            b = complex(np.asarray(payload).reshape(-1)[0])
            for ks, v in vec.terms.items():
                if len(ks) <= keep:
                    terms[ks] = terms.get(ks, 0.0) + b * v
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
        return out.prune()

    def apply_symbol(self, f, vec: FockVector, keep_depth: int | None = None) -> FockVector:
        if isinstance(f, BCoeff):
            kind = "Lb" if f.side == LEFT else "Rb"
            return self.apply_factor((kind, f.matrix), vec, keep_depth)
        if isinstance(f, GeneratorSymbol):
            action = self.symbol_actions.get(f)
            if action is None:
                raise KeyError(f"symbol {f!r} not registered with this model")
            out = FockVector(self.dim)
            terms = out.terms
            for c, elem in action:
                for ks, t in self.apply_factor(elem, vec, keep_depth).terms.items():
                    cur = terms.get(ks)
                    terms[ks] = c * t if cur is None else cur + c * t
            return out.prune()
        raise TypeError(f"cannot apply {f!r}")

    def apply_word(self, word, vec: FockVector, keep_depth: int | None = None) -> FockVector:
        """Apply a monomial (leftmost factor acts last).

        With ``keep_depth`` the result is exact up to that depth only: each
        step drops the components that the factors still to apply can no
        longer bring back within it.
        """
        factors = as_monomial(word).factors
        for j in range(len(factors) - 1, -1, -1):
            budget = None if keep_depth is None else keep_depth + j
            vec = self.apply_symbol(factors[j], vec, budget)
        return vec

    def expectation(self, word) -> np.ndarray:
        """E(word) = depth-0 part of (word applied to the vacuum)."""
        return self.apply_word(word, FockVector.vacuum(self.dim), keep_depth=0).depth0()

    def functional(self) -> MomentFunctional:
        return MomentFunctional(
            self.expectation, self.dim, backing="fock-model", model=self
        )

    # -- geometry -------------------------------------------------------------

    def _eta_kernel(self, k) -> np.ndarray:
        eta = self.covariances.get((k, k))
        if eta is None:
            raise KeyError(f"no diagonal covariance for index {k!r}")
        d = self.dim
        ker = np.zeros((d, d, d, d), dtype=complex)
        for v in eta.kraus:
            ker += np.einsum("pa,qb->pqab", v, v.conj())
        return ker

    def inner_B(self, u: FockVector, v: FockVector) -> np.ndarray:
        """Matrix-valued pairing <u, v>_B, built from iterated covariances.

        Only diagonal covariance tables are supported: components with
        different index sequences are orthogonal.  The pairing contracts
        from the left, which is the GNS geometry for states generated by
        left operators (creation and annihilation of a common index are
        mutually adjoint) and for every state over scalar coefficients.
        For right-generated states with a matrix covariance the GNS inner
        product instead goes through the trace of operator words; see
        ``word_norm_sq``.
        """
        d = self.dim
        out = np.zeros((d, d), dtype=complex)
        for ks, tu in u.terms.items():
            sv = v.terms.get(ks)
            if sv is None:
                continue
            if d == 1:
                val = sv.conjugate() * tu
                for k in ks:
                    val *= self._cov_scalar[(k, k)]
                out[0, 0] += val
            else:
                out += self._pair_tensors(ks, tu, sv)
        return out

    def _pair_tensors(self, ks: tuple, tu: np.ndarray, sv: np.ndarray) -> np.ndarray:
        m = len(ks)
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
            operands += [self._eta_kernel(ks[t - 1]), [vi[t], ui[t], vj[t - 1], uj[t - 1]]]
        operands.append([vj[m], uj[m]])
        return np.einsum(*operands, optimize=True)

    def inner(self, u: FockVector, v: FockVector) -> complex:
        return complex(np.trace(self.inner_B(u, v))) / self.dim

    def norm_sq(self, u: FockVector) -> float:
        val = self.inner(u, u)
        return float(val.real)

    def word_norm_sq(self, word) -> float:
        """Squared GNS norm of an operator word, through the trace."""
        word = as_monomial(word)
        full = word.adjoint() * word
        return float((np.trace(self.expectation(full)) / self.dim).real)

    def vector_of(self, word) -> FockVector:
        """The GNS vector of an operator word (word applied to the vacuum)."""
        return self.apply_word(word, FockVector.vacuum(self.dim))


# --- model builders ---------------------------------------------------------

class BisemicircularModel:
    """Self-adjoint sums creation+annihilation on both sides, one CP map each.

    Exposes left symbols S1..Sn, right symbols D1..Dm, and the moment
    functional of the vacuum expectation.  Each symbol is its own family:
    the pair generated by S_i on the left (resp. D_j on the right) together
    with the opposite copy of the coefficient algebra is bi-free from the
    others over the coefficient algebra.
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
        cov = {(k, k): eta for k, eta in zip(lidx + ridx, etas)}
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
        self.functional = self.model.functional()

    @property
    def symbols(self) -> tuple[GeneratorSymbol, ...]:
        return self.left_symbols + self.right_symbols

    def symbol(self, name: str) -> GeneratorSymbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)

    @classmethod
    def from_json(cls, obj: dict | str) -> "BisemicircularModel":
        if isinstance(obj, str):
            obj = json.loads(obj)
        left = [CPMap.from_json(e) for e in obj.get("left", [])]
        right = [CPMap.from_json(e) for e in obj.get("right", [])]
        return cls(left, right)

    def to_json(self) -> dict:
        n = len(self.left_symbols)
        keys = self.model.left_indices + self.model.right_indices
        etas = [self.model.covariances[(k, k)].to_json() for k in keys]
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

    Each pair is built from four scalar variance-1 semicircular directions
    on a common Fock space: the left element is (s1 + i s2)/sqrt(2) and the
    right one its analogue in the right directions.  The four symbols of a
    pair share one family tag (they form a single two-faced pair); distinct
    pairs are bi-free from each other.
    """

    def __init__(self, n_pairs: int = 1):
        one = CPMap.identity(1)
        lidx = tuple(f"e{4 * p + q}" for p in range(n_pairs) for q in (1, 2))
        ridx = tuple(f"e{4 * p + q}" for p in range(n_pairs) for q in (3, 4))
        cov = {(k, k): one for k in lidx + ridx}
        self.model = FockModel(1, lidx, ridx, cov)
        self.dim = 1
        isq = 1.0 / np.sqrt(2.0)
        reg = self.model.register_symbol
        self.pairs: list[tuple[GeneratorSymbol, ...]] = []
        for p in range(n_pairs):
            tag = "" if p == 0 else str(p + 1)
            fam = f"c{p + 1}"
            e1, e2 = f"e{4 * p + 1}", f"e{4 * p + 2}"
            e3, e4 = f"e{4 * p + 3}", f"e{4 * p + 4}"
            cl = reg(
                GeneratorSymbol(f"cl{tag}", LEFT, family=fam),
                [(isq, ("l", e1)), (isq, ("l*", e1)),
                 (1j * isq, ("l", e2)), (1j * isq, ("l*", e2))],
            )
            cls = reg(
                GeneratorSymbol(f"cl{tag}", LEFT, adjoint=True, family=fam),
                [(isq, ("l", e1)), (isq, ("l*", e1)),
                 (-1j * isq, ("l", e2)), (-1j * isq, ("l*", e2))],
            )
            cr = reg(
                GeneratorSymbol(f"cr{tag}", RIGHT, family=fam),
                [(isq, ("r", e3)), (isq, ("r*", e3)),
                 (1j * isq, ("r", e4)), (1j * isq, ("r*", e4))],
            )
            crs = reg(
                GeneratorSymbol(f"cr{tag}", RIGHT, adjoint=True, family=fam),
                [(isq, ("r", e3)), (isq, ("r*", e3)),
                 (-1j * isq, ("r", e4)), (-1j * isq, ("r*", e4))],
            )
            self.pairs.append((cl, cls, cr, crs))
        self.c_l, self.c_l_star, self.c_r, self.c_r_star = self.pairs[0]
        self.functional = self.model.functional()

    @property
    def symbols(self) -> tuple[GeneratorSymbol, ...]:
        return tuple(s for pair in self.pairs for s in pair)


def make_circular_pair() -> CircularPairModel:
    return CircularPairModel()
