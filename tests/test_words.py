"""Word identity: a monomial is its own moment-cache key.

Monomials compare and hash by their factors: generator symbols by value,
coefficients by side, size and bytes.  Equal words must share one oracle
call through a ``MomentFunctional``; words that differ in any of those must
each reach the oracle.
"""

import math

import numpy as np
import pytest

from bifree.words import GeneratorSymbol, Lb, Monomial, MomentFunctional, Rb


def _counting(dim):
    """A functional whose oracle records every word it is asked for."""
    seen = []

    def oracle(word):
        seen.append(word)
        return np.full((dim, dim), len(seen), dtype=complex)

    return MomentFunctional(oracle, dim), seen


def _assert_one_oracle_call(a, b, dim):
    assert a == b and hash(a) == hash(b)
    F, seen = _counting(dim)
    first = F.expect(a)
    assert F.expect(b) is first
    assert len(seen) == 1


def test_separate_equal_symbols_are_one_word():
    def word():
        return Monomial([
            GeneratorSymbol("x", "l"),
            GeneratorSymbol("y", "r", adjoint=True),
            GeneratorSymbol("z", "l", family="z"),
        ])

    a, b = word(), word()
    assert all(f is not g for f, g in zip(a.factors, b.factors))
    _assert_one_oracle_call(a, b, 1)


def test_equal_coefficients_of_another_dtype_are_one_word():
    x = GeneratorSymbol("x", "l")
    ints = np.array([[1, 0], [-2, 3]])
    a = Monomial([x, Lb(ints), Rb(np.eye(2, dtype=int)), x])
    for dtype in (np.float32, np.float64, np.complex64, np.complex128):
        b = Monomial([x, Lb(ints.astype(dtype)), Rb(np.eye(2, dtype=dtype)), x])
        _assert_one_oracle_call(a, b, 2)


M = np.array([[0.0, 1.0], [2.0, 3.0]])
M_ENTRY = np.array([[0.0, 1.0], [2.0, 4.0]])
M_ZERO = np.array([[-0.0, 1.0], [2.0, 3.0]])
X = GeneratorSymbol("x", "l")


@pytest.mark.parametrize(
    "f, g",
    [
        (Lb(M), Lb(M_ENTRY)),
        (Lb(M), Rb(M)),
        (Lb(np.eye(1)), Lb(np.eye(2))),
        (Lb(M), Lb(M_ZERO)),
        (X, X.star()),
        (X, GeneratorSymbol("x", "l", family="f")),
    ],
    ids=["entry", "side", "size", "zero-sign", "adjoint", "family"],
)
def test_differing_factor_reaches_the_oracle_again(f, g):
    y = GeneratorSymbol("y", "r")
    a, b = Monomial([y, f, y]), Monomial([y, g, y])
    assert a != b
    F, seen = _counting(2)
    va, vb = F.expect(a), F.expect(b)
    assert len(seen) == 2 and seen == [a, b]
    assert not np.array_equal(va, vb)
    F.expect(a)
    assert len(seen) == 2


def test_symbol_hash_is_the_hash_of_its_fields():
    # The hash is computed once, and is the value a frozen dataclass computes.
    for g in (
        GeneratorSymbol("x", "l"),
        GeneratorSymbol("y", "r", adjoint=True),
        GeneratorSymbol("z", "l", family="w"),
    ):
        for h in (g, g.star()):
            assert hash(h) == hash((h.name, h.side, h.adjoint, h.family))


@pytest.mark.parametrize(
    "re, im",
    [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (1.0, -0.0), (-0.0, -1.0), (1.5, -2.0),
     (math.nan, 1.0), (math.inf, -0.0)],
)
def test_scalar_tau_matches_the_trace_bit_for_bit(re, im):
    # At d=1 tau reads the entry in place of the trace, with the same signed zeros.
    F = MomentFunctional(lambda word: np.array([[complex(re, im)]]), 1)
    word = Monomial([GeneratorSymbol("x", "l")])
    want = complex(np.trace(F.expect(word))) / 1
    assert repr(F.tau(word)) == repr(want)
