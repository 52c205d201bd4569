"""Partition-indexed moments and cumulants of two-faced families.

The value of the moment function at a bi-non-crossing partition is computed
by the recursive interval-stripping reduction on the partition's NC picture:
with the operands listed in chi-order, repeatedly strip a slice that is a
union of blocks, reduce it to a single coefficient, and splice that
coefficient into a neighbouring operand through the left or right copy of
the coefficient algebra; the rest is the two slices around it.  The result
does not depend on the order in which admissible runs are stripped; the
test-suite checks that against a reduction taking them in random order.

Cumulants are Moebius convolutions of the moment function over the lattice,
and the product-entry expansion relates a cumulant of grouped products to a
sum of ungrouped cumulants over partitions joining with the group interval
partition to the maximum.
"""

from __future__ import annotations

import math
from itertools import chain, product
from typing import Mapping, Sequence

import numpy as np

from .balgebra import maxabs
from .bnc import (
    LEFT,
    BncPartition,
    ChiWord,
    enumerate_bnc,
    lattice_join,
    lattice_leq,
    lower_interval,
    mobius_bnc,
    mobius_top_table,
    one_partition,
    s_chi,
    zero_partition,
)
from .words import Lb, Monomial, MomentFunctional, Rb, as_monomial


def _product(ops: Sequence[Monomial]) -> Monomial:
    out = Monomial.unit()
    for w in ops:
        out = out * w
    return out


def _eval_pi(F: MomentFunctional, cells, ops) -> np.ndarray:
    """Strip chi-order slices of a partition's NC picture (d > 1).

    ``cells[i]`` is ``(position, side, block)`` at chi-rank ``i + 1`` of
    the current sub-word and ``ops[i]`` its operand (updated in place).  A
    stripped run is a union of blocks that is an interval in chi-order, so
    it is a slice, and what is left is the two slices around it with the
    ranks after the cut shifted down.  Positions fix only the product order
    of a one-block word, the block of the last entry and the survivor that
    receives a hull's value.
    """
    pos, side, blk = zip(*cells)
    n = len(cells)
    if blk.count(blk[0]) == n:
        return F.expect(_product([ops[i] for i in sorted(range(n), key=pos.__getitem__)]))
    v = blk[pos.index(max(pos))]
    lo, hi = blk.index(v), n - blk[::-1].index(v)
    if lo == 0 and hi == n:
        # The block of the last entry spans the whole chi-range: strip the
        # first run of foreign positions between two of its elements and
        # splice its value into the element of that block on the run's side.
        a = next(i for i, x in enumerate(blk) if x != v)
        b = blk.index(v, a)
        sub = _eval_pi(F, cells[a:b], ops[a:b])
        if side[a] == LEFT:
            ops[a - 1] = ops[a - 1] * Lb(sub)
        else:
            ops[b] = ops[b] * Rb(sub)
    else:
        # Otherwise reduce the chi-interval hull of that block first and feed
        # the value to the surviving operand with the last position.
        a, b = lo, hi
        sub = _eval_pi(F, cells[a:b], ops[a:b])
        q = max(chain(range(a), range(b, n)), key=pos.__getitem__)
        ops[q] = ops[q] * (Lb(sub) if side[q] == LEFT else Rb(sub))
    return _eval_pi(F, cells[:a] + cells[b:], ops[:a] + ops[b:])


def _check_sides(chi: ChiWord, ops: Sequence[Monomial]) -> None:
    # The final slot is exempt: it plays the role of the mixed last entry.
    for k in range(1, chi.n):
        s = ops[k - 1].pure_side()
        if s is not None and s != chi.side(k):
            raise ValueError(
                f"operand {k} has side {s!r} but chi assigns {chi.side(k)!r}"
            )


def _checked_operands(chi: ChiWord, operands: Sequence) -> list[Monomial]:
    ops = [as_monomial(z) for z in operands]
    if len(ops) != chi.n:
        raise ValueError(f"expected {chi.n} operands, got {len(ops)}")
    _check_sides(chi, ops)
    return ops


def eval_moment_pi(F: MomentFunctional, pi: BncPartition, operands: Sequence) -> np.ndarray:
    """Moment function at a bi-non-crossing partition.

    Over scalar coefficients the value factors over the blocks; otherwise
    the operands are listed in chi-order once and the reduction strips
    chi-order slices of the partition's NC picture ``pi.nc``.
    """
    return _moment_pi(F, pi, _checked_operands(pi.chi, operands))


def _moment_pi(F: MomentFunctional, pi: BncPartition, ops: list) -> np.ndarray:
    """``eval_moment_pi`` on operands that ``_checked_operands`` returned."""
    if F.dim == 1 and len(pi.blocks) > 1:
        out = np.eye(1, dtype=complex)
        for b in pi.blocks:
            out = out * F.expect(_product([ops[k - 1] for k in b]))
        return out
    block_of = {r: i for i, b in enumerate(pi.nc) for r in b}
    order = s_chi(pi.chi)
    cells = tuple((k, pi.chi.side(k), block_of[r]) for r, k in enumerate(order, start=1))
    return _eval_pi(F, cells, [ops[k - 1] for k in order])


def cumulant_pi(F: MomentFunctional, pi: BncPartition, operands: Sequence) -> np.ndarray:
    """Cumulant at a partition: Moebius convolution of the moment function.

    The operands are converted and side-checked once; every partition below
    ``pi`` has the same side word.
    """
    ops = _checked_operands(pi.chi, operands)
    total = np.zeros((F.dim, F.dim), dtype=complex)
    for sigma in enumerate_bnc(pi.chi):
        if lattice_leq(sigma, pi):
            mu = mobius_bnc(sigma, pi)
            if mu:
                total += mu * _moment_pi(F, sigma, ops)
    return total


def cumulant_chi(F: MomentFunctional, chi: ChiWord, operands: Sequence) -> np.ndarray:
    """Top cumulant over the full word."""
    return cumulant_pi(F, one_partition(chi), operands)


def moments_from_cumulants(
    kappa_table: Mapping[BncPartition, np.ndarray], pi: BncPartition
) -> np.ndarray:
    """Moment value from a complete cumulant table on the interval below pi.

    Sums the table over ``lower_interval(pi)``, walked in enumeration order.
    """
    total = None
    for sigma, _ in lower_interval(pi):
        try:
            v = kappa_table[sigma]
        except KeyError:
            raise ValueError(f"cumulant table missing entry for {sigma!r}")
        total = np.asarray(v, dtype=complex) if total is None else total + v
    return total


def cumulants_from_moments(
    moment_table: Mapping[BncPartition, np.ndarray], pi: BncPartition
) -> np.ndarray:
    """Cumulant value from a complete moment table on the interval below pi.

    Moebius convolution over ``lower_interval(pi)``, walked in enumeration
    order.
    """
    total = None
    for sigma, mu in lower_interval(pi):
        try:
            v = moment_table[sigma]
        except KeyError:
            raise ValueError(f"moment table missing entry for {sigma!r}")
        term = mu * np.asarray(v, dtype=complex)
        total = term if total is None else total + term
    return total


# --- product-entry expansion -------------------------------------------------

def group_offsets(group_sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Half-open 1-based position ranges of each group."""
    out, start = [], 1
    for size in group_sizes:
        if size < 1:
            raise ValueError("group sizes must be >= 1")
        out.append((start, start + size))
        start += size
    return out


def chi_of_groups(chi_hat: ChiWord, group_sizes: Sequence[int]) -> ChiWord:
    """Side word of the grouped tuple; the final group may mix sides."""
    ranges = group_offsets(group_sizes)
    if ranges[-1][1] - 1 != chi_hat.n:
        raise ValueError("group sizes do not sum to the word length")
    m = len(group_sizes)
    labels = []
    for p, (a, b) in enumerate(ranges, start=1):
        sides = {chi_hat.side(k) for k in range(a, b)}
        if p < m and len(sides) > 1:
            raise ValueError(f"non-final group {p} mixes sides {sides}")
        labels.append(chi_hat.side(b - 1))
    return ChiWord(labels)


def hat_embed(pi: BncPartition, group_sizes: Sequence[int], chi_hat: ChiWord) -> BncPartition:
    """Embed a partition of the grouped tuple by blowing each point up to its group.

    Order- and Moebius-preserving; requires the expanded word to be constant
    on every non-final group and to match the group word there.
    """
    if pi.n != len(group_sizes):
        raise ValueError("group count does not match the partition size")
    ranges = group_offsets(group_sizes)
    if ranges[-1][1] - 1 != chi_hat.n:
        raise ValueError("group sizes do not sum to the expanded word length")
    grouped_chi = chi_of_groups(chi_hat, group_sizes)  # validates constancy
    for p in range(1, pi.n):
        if grouped_chi.side(p) != pi.chi.side(p):
            raise ValueError(
                f"group {p} has side {grouped_chi.side(p)!r} but the base word says "
                f"{pi.chi.side(p)!r}"
            )
    blocks = []
    for blk in pi.blocks:
        big = []
        for p in blk:
            a, b = ranges[p - 1]
            big.extend(range(a, b))
        blocks.append(tuple(big))
    return BncPartition(blocks, chi_hat)


def product_cumulant_expand(
    F: MomentFunctional,
    chi_hat: ChiWord,
    group_sizes: Sequence[int],
    operands: Sequence,
) -> dict:
    """Both sides of the product-entry cumulant expansion.

    The grouped top cumulant must equal the sum of ungrouped cumulants over
    partitions whose join with the embedded minimum is the maximum.  The
    right-hand side evaluates every partition moment of the ungrouped word
    once and reads each of those cumulants from that one table through
    ``cumulants_from_moments``.
    """
    ops = [as_monomial(z) for z in operands]
    if len(ops) != chi_hat.n:
        raise ValueError("operand count does not match the expanded word")
    _check_sides(chi_hat, ops)
    chi_m = chi_of_groups(chi_hat, group_sizes)
    grouped = [
        _product([ops[k - 1] for k in range(a, b)])
        for a, b in group_offsets(group_sizes)
    ]
    lhs = cumulant_pi(F, one_partition(chi_m), grouped)
    zero_hat = hat_embed(zero_partition(chi_m), group_sizes, chi_hat)
    top = one_partition(chi_hat)
    parts = enumerate_bnc(chi_hat)
    moments = {tau: _moment_pi(F, tau, ops) for tau in parts}
    rhs = np.zeros_like(lhs)
    for sigma in parts:
        if lattice_join(sigma, zero_hat) == top:
            rhs += cumulants_from_moments(moments, sigma)
    return {"lhs": lhs, "rhs": rhs, "residual": maxabs(lhs - rhs)}


# --- vanishing of mixed cumulants --------------------------------------------

def bifree_test(
    F: MomentFunctional,
    symbols: Sequence,
    max_order: int,
    tol: float = 1e-9,
) -> dict:
    """Scan all mixed cumulants up to an order and report the largest one.

    Words run over all sequences of the given generators whose family tags
    are not all equal; the side word is forced by the generators.  The report
    carries the worst offenders, which for a genuinely correlated family
    exhibit the planted covariance at order two.  Mixed cumulants start at
    order two, so ``max_order`` must lie in 2..8; ``tol`` must be positive
    and finite.
    """
    if not 2 <= max_order <= 8:
        raise ValueError("max_order must be in 2..8")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    syms = list(symbols)
    fam = {s: s.family for s in syms}
    if len({fam[s] for s in syms}) < 2:
        return {
            "pass": True,
            "vacuous": True,
            "max_residual": 0.0,
            "tested": 0,
            "tolerance": tol,
            "max_order": max_order,
            "violations": [],
        }
    tested = 0
    worst = 0.0
    worst_word = None
    violations = []
    for n in range(2, max_order + 1):
        for word in product(syms, repeat=n):
            if len({fam[s] for s in word}) < 2:
                continue
            chi = ChiWord(s.side for s in word)
            if F.dim == 1:
                r = abs(_scalar_top_cumulant(F, word, chi))
            else:
                val = cumulant_pi(F, one_partition(chi), [Monomial([s]) for s in word])
                r = maxabs(val)
            tested += 1
            if r > worst:
                worst = r
                worst_word = [s.display for s in word]
            if r > tol:
                violations.append(
                    {
                        "order": n,
                        "word": [s.display for s in word],
                        "families": [fam[s] for s in word],
                        "residual": r,
                    }
                )
    violations.sort(key=lambda v: -v["residual"])
    return {
        "pass": not violations,
        "vacuous": False,
        "max_residual": worst,
        "worst_word": worst_word,
        "tested": tested,
        "tolerance": tol,
        "max_order": max_order,
        "violations": violations[:10],
        "violation_count": len(violations),
    }


def _scalar_top_cumulant(F: MomentFunctional, word, chi: ChiWord) -> complex:
    """Top cumulant of a word of generators over scalar coefficients.

    Uses the complete block factorization of scalar moment functions, with
    the subword expectations cached per position subset.
    """
    phi_cache: dict[tuple, complex] = {}

    def phi(block: tuple) -> complex:
        v = phi_cache.get(block)
        if v is None:
            v = complex(F.expect(Monomial([word[k - 1] for k in block]))[0, 0])
            phi_cache[block] = v
        return v

    total = 0.0 + 0.0j
    for blocks, mu in mobius_top_table(chi):
        term = mu
        for b in blocks:
            term *= phi(b)
            if term == 0:
                break
        total += term
    return total
