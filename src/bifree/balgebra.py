"""Finite-dimensional coefficient algebra: d x d matrices, trace, CP maps.

Coefficient values are plain complex numpy arrays of shape ``(d, d)``.
Completely positive maps are built from Kraus operators (or a Choi matrix) and
read, at every d, only through one coefficient tensor, ``CPMap.kernel``.
"""

from __future__ import annotations

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
    """Completely positive map b -> sum_i V_i b V_i*.  Every computation reads
    its read-only kernel K[p, q, a, b] = sum_i V_i[p, a] conj(V_i[q, b]), so
    that eta(b)[p, q] = sum_ab K[p, q, a, b] b[a, b]; ``to_json`` writes the V_i."""

    __slots__ = ("dim", "kraus", "kernel")

    def __init__(self, kraus: Sequence, dim: int | None = None):
        mats = [as_belement(v).copy() for v in kraus]
        if not mats:
            raise ValueError("CPMap needs at least one Kraus matrix")
        d = mats[0].shape[0]
        for v in mats:
            if v.shape[0] != d:
                raise ValueError("Kraus matrices must share one dimension")
            v.flags.writeable = False  # they stay what the kernel was built from
        if dim is not None and dim != d:
            raise ValueError(f"dimension mismatch: expected {dim}, got {d}")
        k = sum(np.einsum("pa,qb->pqab", v, v.conj()) for v in mats)
        k.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "kraus", tuple(mats))
        object.__setattr__(self, "kernel", k)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CPMap is immutable")

    def __call__(self, b) -> np.ndarray:
        return np.einsum("pqab,ab->pq", self.kernel, as_belement(b, self.dim))

    @classmethod
    def identity(cls, d: int) -> "CPMap":
        return cls([identity(d)])

    @classmethod
    def from_choi(cls, choi, tol: float = DEFAULT_TOL) -> "CPMap":
        """Kraus decomposition of a Choi matrix, dropping eigenvalues below tol.

        The Choi matrix convention is C = sum_{ij} E_ij (x) eta(E_ij), shape
        (d*d, d*d); C - C* or a negative eigenvalue beyond tolerance is an error.
        """
        c = np.asarray(choi, dtype=complex)
        d2 = c.shape[0]
        d = int(round(np.sqrt(d2)))
        if d * d != d2 or c.shape != (d2, d2):
            raise ValueError("Choi matrix must be (d*d) x (d*d)")
        if not (skew := maxabs(c - c.conj().T)) <= tol:
            raise ValueError(f"Choi matrix not Hermitian: max |C - C*| {skew:.3e}")
        w, vecs = np.linalg.eigh((c + c.conj().T) / 2)
        if np.min(w) < -tol:
            raise ValueError(f"Choi matrix not PSD: min eigenvalue {np.min(w):.3e}")
        kraus = [np.sqrt(lam) * vec.reshape(d, d).T for lam, vec in zip(w, vecs.T) if lam > tol]
        return cls(kraus or [np.zeros((d, d), dtype=complex)])

    def choi(self) -> np.ndarray:
        """C[(i, p), (j, q)] = K[p, q, i, j], a new array each call."""
        return self.kernel.transpose(2, 0, 3, 1).reshape(self.dim ** 2, -1).copy()

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        w = np.linalg.eigvalsh(self.choi())
        return bool(np.min(w) >= -tol)

    def is_trace_symmetric(self) -> bool:
        """tau(eta(a) b) = tau(a eta(b)) for all a, b: K[a, b, p, q] equals the
        trace adjoint's kernel conj(K[p, q, a, b]) within 1e-12 max(1, max|K|)."""
        k = self.kernel
        return bool(maxabs(k.transpose(2, 3, 0, 1) - k.conj()) <= 1e-12 * max(1.0, maxabs(k)))

    def to_json(self) -> dict:
        return {
            "d": self.dim,
            "kraus": [belement_to_json(v) for v in self.kraus],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CPMap":
        json_fields(obj, "CP map", ("d", "kraus"))
        return cls([belement_from_json(v) for v in obj["kraus"]], dim=json_dim(obj))

    def __repr__(self):
        return f"CPMap(dim={self.dim}, kraus={len(self.kraus)})"


def belement_to_json(b) -> dict:
    a = as_belement(b)
    return {
        "d": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def belement_from_json(obj: dict) -> np.ndarray:
    json_fields(obj, "coefficient", ("d", "re", "im"))
    re, im = _json_part(obj, "re"), _json_part(obj, "im")
    if re.shape != im.shape:
        raise ValueError(f"coefficient parts differ in shape: re {re.shape}, im {im.shape}")
    return as_belement(re + 1j * im, json_dim(obj))


def _json_part(obj: dict, part: str) -> np.ndarray:
    """A coefficient's ``"re"`` or ``"im"`` as a float array.  An entry must be
    a JSON number or ``null``, read as NaN (the CLI prints NaN as ``null``);
    a string or a boolean (``"2"``, ``true``) raises ``ValueError``."""
    for x in np.asarray(obj[part], dtype=object).flat:
        if x is not None and (isinstance(x, bool) or not isinstance(x, (int, float))):
            raise ValueError(f'coefficient part "{part}" must hold JSON numbers, got {x!r}')
    return np.asarray(obj[part], dtype=float)


def json_dim(obj: dict) -> int | None:
    """The ``"d"`` of a serialized coefficient, CP map or model, if any; one
    that is not an ``int`` (JSON ``true``, ``2.0``, ``"2"``) raises ``ValueError``."""
    d = obj.get("d")
    if d is not None and (not isinstance(d, int) or isinstance(d, bool)):
        raise ValueError(f'field "d" must be an integer, got {d!r}')
    return d


def json_fields(obj: dict, what: str, fields: tuple[str, ...]) -> None:
    """Raise ``ValueError`` on a field outside ``fields``, so none is misread as absent."""
    if extra := [k for k in obj if k not in fields]:
        raise ValueError(f"unknown field {extra[0]!r} in a {what}; expected {', '.join(fields)}")


def random_belement(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_cpmap(d: int, rng: np.random.Generator, n_kraus: int = 2) -> CPMap:
    return CPMap([random_belement(d, rng) / np.sqrt(2 * d) for _ in range(n_kraus)])
