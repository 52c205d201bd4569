"""Finite-dimensional coefficient algebra: d x d matrices, trace, CP maps.

Coefficient values are plain complex numpy arrays of shape ``(d, d)``.
Completely positive maps are kept in Kraus form, with a Choi-matrix
constructor for maps supplied some other way.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

#: Default absolute entrywise tolerance for numeric comparison.  Everything
#: the acceptance suite computes is exact in exact arithmetic; roundoff at
#: word length <= 8 stays far below this.
DEFAULT_TOL = 1e-9


def as_belement(b, d: int | None = None) -> np.ndarray:
    a = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient must be a square matrix, got shape {a.shape}")
    if d is not None and a.shape[0] != d:
        raise ValueError(f"dimension mismatch: expected {d}, got {a.shape[0]}")
    return a


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    """Matrix unit E_{ij}, 1-based indices."""
    out = np.zeros((d, d), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


def matrix_units(d: int) -> list[np.ndarray]:
    """Canonical basis of the d x d matrices, row-major."""
    return [matrix_unit(d, i, j) for i in range(1, d + 1) for j in range(1, d + 1)]


def trace_d(b) -> complex:
    """Normalized trace (1/d) sum of diagonal entries."""
    a = as_belement(b)
    return complex(np.trace(a)) / a.shape[0]


def diag_expectation(b) -> np.ndarray:
    """Conditional expectation onto the diagonal subalgebra."""
    a = as_belement(b)
    return np.diag(np.diag(a))


def maxabs(a) -> float:
    arr = np.asarray(a)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def worst_at(values: Iterable[float]) -> tuple[float, int | None]:
    """The verdict value of residuals and its index: the first one that is
    not finite (no later value is read), else the first largest one; when no
    value exceeds 0, ``(0.0, None)``.

    ``max`` would drop a NaN that comes after a number (``max(0.0, nan)`` is
    ``0.0``), and a residual that is NaN must fail every ``<=`` check.
    """
    worst, at = 0.0, None
    for i, v in enumerate(values):
        if not math.isfinite(v):
            return v, i
        if v > worst:
            worst, at = v, i
    return worst, at


class CPMap:
    """Completely positive map b -> sum_i V_i b V_i* in Kraus form."""

    __slots__ = ("dim", "kraus")

    def __init__(self, kraus: Sequence, dim: int | None = None):
        mats = [as_belement(v) for v in kraus]
        if not mats:
            raise ValueError("CPMap needs at least one Kraus matrix")
        d = mats[0].shape[0]
        for v in mats:
            if v.shape[0] != d:
                raise ValueError("Kraus matrices must share one dimension")
        if dim is not None and dim != d:
            raise ValueError(f"dimension mismatch: expected {dim}, got {d}")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "kraus", tuple(mats))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CPMap is immutable")

    def __call__(self, b) -> np.ndarray:
        a = as_belement(b, self.dim)
        out = np.zeros_like(a)
        for v in self.kraus:
            out += v @ a @ v.conj().T
        return out

    @classmethod
    def identity(cls, d: int) -> "CPMap":
        return cls([identity(d)])

    @classmethod
    def from_choi(cls, choi, tol: float = DEFAULT_TOL) -> "CPMap":
        """Kraus decomposition of a Choi matrix, dropping eigenvalues below tol.

        The Choi matrix convention is C = sum_{ij} E_ij (x) eta(E_ij), shape
        (d*d, d*d); a negative eigenvalue beyond tolerance is an error.
        """
        c = np.asarray(choi, dtype=complex)
        d2 = c.shape[0]
        d = int(round(np.sqrt(d2)))
        if d * d != d2 or c.shape != (d2, d2):
            raise ValueError("Choi matrix must be (d*d) x (d*d)")
        w, vecs = np.linalg.eigh((c + c.conj().T) / 2)
        if np.min(w) < -tol:
            raise ValueError(f"Choi matrix not PSD: min eigenvalue {np.min(w):.3e}")
        kraus = []
        for lam, vec in zip(w, vecs.T):
            if lam > tol:
                kraus.append(np.sqrt(lam) * vec.reshape(d, d).T)
        if not kraus:
            kraus = [np.zeros((d, d), dtype=complex)]
        return cls(kraus)

    def choi(self) -> np.ndarray:
        d = self.dim
        c = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                c += np.kron(e, self(e))
        return c

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        w = np.linalg.eigvalsh(self.choi())
        return bool(np.min(w) >= -tol)

    def is_trace_symmetric(self) -> bool:
        """tau(eta(a) b) = tau(a eta(b)) for all a, b: the map equals its
        trace adjoint b -> sum_i V_i* b V_i on every matrix unit, within
        1e-12 times the larger of 1 and its largest entry there."""
        fwd = sum(np.einsum("pi,qj->ijpq", v, v.conj()) for v in self.kraus)
        adj = sum(np.einsum("ip,jq->ijpq", v.conj(), v) for v in self.kraus)
        return bool(maxabs(fwd - adj) <= 1e-12 * max(1.0, maxabs(fwd)))

    def to_json(self) -> dict:
        return {
            "d": self.dim,
            "kraus": [belement_to_json(v) for v in self.kraus],
        }

    @classmethod
    def from_json(cls, obj: dict | str) -> "CPMap":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls([belement_from_json(v) for v in obj["kraus"]], dim=obj.get("d"))

    def __repr__(self):
        return f"CPMap(dim={self.dim}, kraus={len(self.kraus)})"


def belement_to_json(b) -> dict:
    a = as_belement(b)
    return {
        "d": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def belement_from_json(obj: dict | str) -> np.ndarray:
    if isinstance(obj, str):
        obj = json.loads(obj)
    a = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    return as_belement(a, obj.get("d"))


def random_belement(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_cpmap(d: int, rng: np.random.Generator, n_kraus: int = 2) -> CPMap:
    return CPMap([random_belement(d, rng) / np.sqrt(2 * d) for _ in range(n_kraus)])
