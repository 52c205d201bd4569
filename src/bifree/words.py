"""Words in tagged generators with matrix coefficients.

A monomial is a finite product of factors.  A factor is either a generator
symbol (carrying a fixed side, adjoint flag and family tag) or a coefficient
tag: ``Lb(b)`` multiplies by ``b`` through the left copy of the coefficient
algebra, ``Rb(b)`` through the right copy.  Moment functionals wrap an
oracle assigning a ``(d, d)`` expectation matrix to every monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .balgebra import as_belement, identity
from .bnc import LEFT, RIGHT


@dataclass(frozen=True)
class GeneratorSymbol:
    """A named generator with a fixed side; the adjoint keeps side and family.

    The hash is the one the dataclass would compute from the four fields,
    computed once, since every moment-cache lookup hashes each symbol of its
    word.
    """

    name: str
    side: str
    adjoint: bool = False
    family: str = ""

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
        if not self.family:
            object.__setattr__(self, "family", self.name)
        object.__setattr__(
            self, "_hash", hash((self.name, self.side, self.adjoint, self.family))
        )

    def __hash__(self):
        return self._hash

    def star(self) -> "GeneratorSymbol":
        return GeneratorSymbol(self.name, self.side, not self.adjoint, self.family)

    @property
    def display(self) -> str:
        return self.name + ("*" if self.adjoint else "")

    def __repr__(self):
        return f"<{self.display}:{self.side}>"


class BCoeff:
    """Coefficient factor: ``Lb(b)`` (left side) or ``Rb(b)`` (right side)."""

    __slots__ = ("side", "matrix", "_key")

    def __init__(self, side: str, matrix):
        if side not in (LEFT, RIGHT):
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
        m = as_belement(matrix)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_key", (side, m.shape[0], m.tobytes()))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BCoeff is immutable")

    def star(self) -> "BCoeff":
        return BCoeff(self.side, self.matrix.conj().T)

    def __eq__(self, other):
        return isinstance(other, BCoeff) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        tag = "L" if self.side == LEFT else "R"
        return f"{tag}b({self.matrix.shape[0]}x{self.matrix.shape[0]})"


def Lb(matrix) -> BCoeff:
    return BCoeff(LEFT, matrix)


def Rb(matrix) -> BCoeff:
    return BCoeff(RIGHT, matrix)


Factor = GeneratorSymbol | BCoeff


class Monomial:
    """A product of factors; the empty monomial is the unit."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Factor] = ()):
        fs = tuple(factors)
        for f in fs:
            if not isinstance(f, (GeneratorSymbol, BCoeff)):
                raise TypeError(f"bad factor {f!r}")
        object.__setattr__(self, "factors", fs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Monomial is immutable")

    @classmethod
    def unit(cls) -> "Monomial":
        return cls(())

    @classmethod
    def concat(cls, words: Iterable["Monomial"]) -> "Monomial":
        """The product of monomials, their factor tuples joined in one pass."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", tuple(chain.from_iterable(w.factors for w in words)))
        return out

    def __mul__(self, other) -> "Monomial":
        if isinstance(other, Monomial):
            return Monomial(self.factors + other.factors)
        if isinstance(other, (GeneratorSymbol, BCoeff)):
            return Monomial(self.factors + (other,))
        return NotImplemented

    def __rmul__(self, other) -> "Monomial":
        if isinstance(other, (GeneratorSymbol, BCoeff)):
            return Monomial((other,) + self.factors)
        return NotImplemented

    def __len__(self):
        return len(self.factors)

    def adjoint(self) -> "Monomial":
        return Monomial(tuple(f.star() for f in reversed(self.factors)))

    def sides(self) -> set[str]:
        return {f.side for f in self.factors}

    def pure_side(self) -> str | None:
        """The common side of all factors, or None if mixed or empty."""
        s = self.sides()
        return s.pop() if len(s) == 1 else None

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        if not self.factors:
            return "Monomial(1)"
        return "*".join(
            f.display if isinstance(f, GeneratorSymbol) else repr(f)
            for f in self.factors
        )


def as_monomial(x) -> Monomial:
    if isinstance(x, Monomial):
        return x
    if isinstance(x, (GeneratorSymbol, BCoeff)):
        return Monomial((x,))
    raise TypeError(f"cannot build a monomial from {x!r}")


class MomentFunctional:
    """Expectation oracle: monomial -> (d, d) coefficient matrix.

    The oracle must be unital (empty word maps to the identity) and pure;
    results are memoized with the monomial itself as the key (monomials
    compare and hash by their factors, coefficients by side, size and
    bytes), so concurrent reads are safe under the interpreter lock.
    """

    def __init__(self, oracle: Callable[[Monomial], np.ndarray], dim: int):
        self._oracle = oracle
        self.dim = dim
        self._cache: dict = {}

    def expect(self, word) -> np.ndarray:
        word = as_monomial(word)
        v = self._cache.get(word)
        if v is None:
            if len(word) == 0:
                v = identity(self.dim)
            else:
                v = as_belement(self._oracle(word), self.dim)
            self._cache[word] = v
        return v

    def tau(self, word) -> complex:
        """Scalar trace functional: normalized trace of the expectation."""
        e = self.expect(word)
        if self.dim == 1:
            # The trace of a 1x1 matrix is its entry added to zero, which
            # turns a -0.0 part into +0.0; adding 0j does the same.
            return (complex(e[0, 0]) + 0j) / self.dim
        return complex(np.trace(e)) / self.dim
