"""Partition-indexed moments and cumulants of two-faced families.

The value of the moment function at a bi-non-crossing partition is computed
by the recursive interval-stripping reduction on the partition's NC picture:
with the operands listed in chi-order, repeatedly strip a slice that is a
union of blocks, reduce it to a single coefficient, and splice that
coefficient into a neighbouring operand through the left or right copy of
the coefficient algebra; the rest is the two slices around it.  The result
does not depend on the order in which admissible runs are stripped; the
test-suite checks that against a reduction taking them in random order.
The one reduction serves every coefficient dimension d.

Cumulants are Moebius convolutions of the moment function over the lattice,
and the product-entry expansion relates a cumulant of grouped products to a
sum of ungrouped cumulants over partitions joining with the group interval
partition to the maximum.
"""

from __future__ import annotations

import math
from itertools import chain, product
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .balgebra import maxabs, worst_at
from .bnc import (
    LEFT,
    MAX_SCAN_ORDER,
    BncPartition,
    ChiWord,
    enumerate_bnc,
    enumerate_bnc_avoiding,
    lattice_join,
    lattice_leq,
    lower_interval,
    lower_interval_arrays,
    mobius_bnc,
    one_partition,
    s_chi,
    top_block_index,
)
from .words import Lb, Monomial, MomentFunctional, Rb, as_monomial


def _eval_pi(F: MomentFunctional, pos, side, blk, ops) -> np.ndarray:
    """Strip chi-order slices of a partition's NC picture.

    ``pos[i]``, ``side[i]`` and ``blk[i]`` are the position, side and block
    at chi-rank ``i + 1`` of the current sub-word and ``ops[i]`` its operand
    (updated in place).  A stripped run is a union of blocks that is an
    interval in chi-order, so it is a slice, and what is left is the two
    slices around it with the ranks after the cut shifted down.  Positions
    fix only the product order of a one-block word, the block of the last
    entry and the survivor that receives a hull's value.

    A slice whose value is exactly the zero matrix ends the reduction: the
    moment function is a bimodule map over the coefficient algebra, so the
    spliced zero annihilates the whole value.  The +0 matrix returned is the
    one the rest of the reduction would return through a Fock model, where
    the zero coefficient prunes every component.  A NaN entry is not zero.
    """
    n = len(blk)
    if blk.count(blk[0]) == n:
        return F.expect(Monomial.concat([ops[i] for i in sorted(range(n), key=pos.__getitem__)]))
    v = blk[pos.index(max(pos))]
    lo, hi = blk.index(v), n - blk[::-1].index(v)
    if lo == 0 and hi == n:
        # The block of the last entry spans the whole chi-range: strip the
        # first run of foreign positions between two of its elements, for the
        # element of that block on its side (chi-order lists left ranks first).
        a = next(i for i, x in enumerate(blk) if x != v)
        b = blk.index(v, a)
        q = a - 1 if side[a] == LEFT else b
    else:
        # Otherwise reduce the chi-interval hull of that block first and feed
        # the value to the surviving operand with the last position, found
        # only if the value is not zero (many are).
        a, b, q = lo, hi, None
    sub = _eval_pi(F, pos[a:b], side[a:b], blk[a:b], ops[a:b])
    if not np.count_nonzero(sub):
        return np.zeros(sub.shape, dtype=complex)
    if q is None:
        q = max(chain(range(a), range(b, n)), key=pos.__getitem__)
    ops[q] = ops[q] * (Lb if side[q] == LEFT else Rb)(sub)
    return _eval_pi(
        F, pos[:a] + pos[b:], side[:a] + side[b:], blk[:a] + blk[b:], ops[:a] + ops[b:]
    )


def _check_sides(chi: ChiWord, ops: Sequence[Monomial]) -> None:
    # The final slot is exempt: it plays the role of the mixed last entry.
    for k in range(1, chi.n):
        s = ops[k - 1].pure_side()
        if s is not None and s != chi.side(k):
            raise ValueError(
                f"operand {k} has side {s!r} but chi assigns {chi.side(k)!r}"
            )


class _ChiOrdered(NamedTuple):
    """A word's operands by position and in chi-order, resolved once for
    every partition over its side word."""

    ops: list
    pos: tuple
    side: tuple
    chi_ops: tuple


def _chi_ordered(chi: ChiWord, operands: Sequence) -> _ChiOrdered:
    """Convert and side-check the operands, and list them in chi-order."""
    ops = [as_monomial(z) for z in operands]
    if len(ops) != chi.n:
        raise ValueError(f"expected {chi.n} operands, got {len(ops)}")
    _check_sides(chi, ops)
    pos = s_chi(chi)
    return _ChiOrdered(
        ops, pos, tuple(chi.side(k) for k in pos), tuple(ops[k - 1] for k in pos)
    )


def eval_moment_pi(F: MomentFunctional, pi: BncPartition, operands: Sequence) -> np.ndarray:
    """Moment function at a bi-non-crossing partition.

    At every d the operands are listed in chi-order once and the reduction
    strips chi-order slices of the partition's NC picture ``pi.nc`` (see
    ``_eval_pi``).  A stripped slice whose value is exactly zero ends it
    with the +0 matrix: the moment function is a bimodule map, so a zero
    coefficient annihilates the whole value, whatever the other blocks
    hold.  Only a stripped slice is tested: a block that is not a
    chi-interval is reduced with the values already spliced into it, so a
    NaN spliced into a block of value zero gives NaN.  A NaN entry is not
    zero.
    """
    return _moment_pi(F, pi, _chi_ordered(pi.chi, operands))


def _moment_pi(F: MomentFunctional, pi: BncPartition, word: _ChiOrdered) -> np.ndarray:
    """``eval_moment_pi`` on a word that ``_chi_ordered`` resolved; only the
    NC picture ``pi.nc`` is read from ``pi``."""
    blk = [0] * len(word.pos)
    for i, b in enumerate(pi.nc):
        for r in b:
            blk[r - 1] = i
    return _eval_pi(F, word.pos, word.side, tuple(blk), list(word.chi_ops))


def cumulant_pi(F: MomentFunctional, pi: BncPartition, operands: Sequence) -> np.ndarray:
    """Cumulant at a partition: Moebius convolution of the moment function.

    The operands are converted, side-checked and put in chi-order once;
    every partition below ``pi`` has the same side word.  The moment
    function is bi-multiplicative (Charlesworth-Nelson-Skoufranis 2015): a
    block that is an interval in chi-order can be reduced first and spliced
    into a neighbour as ``Lb``/``Rb`` of its value, so a partition with a
    block equal to a chi-interval whose value is exactly zero has moment
    zero.  The value of every chi-interval of the word is read once, and
    such a partition is neither built nor reduced, even where a NaN
    elsewhere would reach the reduction.  Every other partition is reduced
    by ``eval_moment_pi``, where a stripped slice of value exactly zero ends
    the reduction; a NaN entry is not zero.  The
    Moebius value is taken only for a partition whose moment is not exactly
    zero: mu(sigma, pi) is non-zero for every sigma <= pi, and adding an
    exact zero to the sum, which starts at +0, changes no bit of it.  So on
    finite values the sum has the terms, in the order, of a scan that
    reduces every partition.
    """
    word = _chi_ordered(pi.chi, operands)
    total = np.zeros((F.dim, F.dim), dtype=complex)
    for sigma in _candidates(F, pi.chi, word):
        if lattice_leq(sigma, pi):
            m = _moment_pi(F, sigma, word)
            if np.count_nonzero(m):
                total += mobius_bnc(sigma, pi) * m
    return total


def _candidates(F: MomentFunctional, chi: ChiWord, word: _ChiOrdered):
    """The partitions of ``enumerate_bnc(chi)`` that ``cumulant_pi`` reduces,
    in enumeration order: those with no block equal to a chi-interval whose
    value, the one-block word of its operands in position order, is exactly
    zero."""
    ops, pos = word.chi_ops, word.pos
    zero = []
    for lo in range(1, chi.n + 1):
        for hi in range(lo, chi.n + 1):
            run = sorted(range(lo - 1, hi), key=pos.__getitem__)
            if not np.count_nonzero(F.expect(Monomial.concat([ops[i] for i in run]))):
                zero.append((lo, hi))
    return enumerate_bnc_avoiding(chi, zero)


def cumulant_chi(F: MomentFunctional, chi: ChiWord, operands: Sequence) -> np.ndarray:
    """Top cumulant over the full word."""
    return cumulant_pi(F, one_partition(chi), operands)


def _interval_values(table: Mapping, pi: BncPartition, kind: str):
    """The table's values on ``lower_interval(pi)`` as one ``(k, d, d)``
    complex array in the interval's order, and the interval's mu values."""
    sigmas, mus = zip(*lower_interval(pi))
    values = []
    for sigma in sigmas:
        try:
            values.append(table[sigma])
        except KeyError:
            raise ValueError(f"{kind} table missing entry for {sigma!r}")
    return np.array(values, dtype=complex), mus


def moments_from_cumulants(
    kappa_table: Mapping[BncPartition, np.ndarray], pi: BncPartition
) -> np.ndarray:
    """Moment value from a complete cumulant table on the interval below pi.

    Sums the table over ``lower_interval(pi)`` in enumeration order.  The
    values are gathered into one array and summed by ``np.add.accumulate``,
    which adds them one after another: every bit equals that of a loop of
    ``total + value``, except which NaN a sum of two NaNs keeps.  ``np.sum``
    would sum pairwise and move digits.  ``transform_table`` sums a whole
    table by the same rule.
    """
    values, _ = _interval_values(kappa_table, pi, "cumulant")
    # A copy, so that the partial sums are not kept alive by a view.
    return np.add.accumulate(values, axis=0)[-1].copy()


def cumulants_from_moments(
    moment_table: Mapping[BncPartition, np.ndarray], pi: BncPartition
) -> np.ndarray:
    """Cumulant value from a complete moment table on the interval below pi.

    Moebius convolution over ``lower_interval(pi)`` in enumeration order: the
    gathered values times their mu values in one array product, then the
    sequential ``np.add.accumulate`` of ``moments_from_cumulants``, bit for
    bit a loop of ``total + mu * value`` up to the same NaN choice.
    """
    values, mus = _interval_values(moment_table, pi, "moment")
    terms = np.array(mus, dtype=complex)[:, None, None] * values
    return np.add.accumulate(terms, axis=0)[-1].copy()


def transform_table(
    chi: ChiWord, values: np.ndarray, to: str, present: np.ndarray | None = None
) -> np.ndarray:
    """A whole table at once: the cumulants of a moment table (``to=
    "cumulants"``) or the moments of a cumulant table (``to="moments"``).

    ``values[i]`` is the table's ``(d, d)`` value at partition i of
    ``enumerate_bnc(chi)``, and row i of the result is what
    ``cumulants_from_moments`` or ``moments_from_cumulants`` returns there,
    bit for bit up to the same NaN choice: each interval is summed in
    enumeration order, one ``total + term`` after another from its first
    term.  Where ``present[i]`` is false the table lacks entry i; the first
    partition in enumeration order whose interval meets one raises their
    ``ValueError``, naming the first missing entry of that interval.

    The intervals come from ``lower_interval_arrays`` in runs of
    consecutive partitions.  A run's terms are gathered in one array,
    grouped by their position j in their interval, and the partitions
    sorted by interval length, longest first, so that the partitions with
    a j-th term are a prefix: one in-place add per position sums every
    interval of the run.  ``np.add.reduceat`` would sum pairwise.
    """
    if to not in ("cumulants", "moments"):
        raise ValueError(f'to must be "cumulants" or "moments", got {to!r}')
    parts = enumerate_bnc(chi)
    values = np.asarray(values, dtype=complex)
    if values.ndim != 3 or len(values) != len(parts):
        raise ValueError(f"expected {len(parts)} table values, got shape {values.shape}")
    kind = "moment" if to == "cumulants" else "cumulant"
    out = np.empty_like(values)
    # At most 2^18 / d^2 terms per run: a term takes 16 d^2 bytes, and
    # building its interval entry about 90 bytes more.
    runs = lower_interval_arrays(chi.n, (1 << 18) // max(1, values[0].size))
    for lo, owner, index, mu in runs:
        if present is not None and not present[index].all():
            sigma = parts[index[np.argmin(present[index])]]
            raise ValueError(f"{kind} table missing entry for {sigma!r}")
        lengths = np.bincount(owner)
        pos = np.arange(len(owner)) - (np.cumsum(lengths) - lengths)[owner]
        longest = np.argsort(-lengths, kind="stable")
        rank = np.empty_like(longest)
        rank[longest] = np.arange(len(longest))
        order = np.argsort(pos * len(lengths) + rank[owner])
        terms = values[index[order]]
        if to == "cumulants":
            terms = mu[order].astype(complex)[:, None, None] * terms
        acc = terms[: len(lengths)]  # adds below read only the terms after it
        at = len(lengths)
        for c in np.bincount(pos)[1:].tolist():
            acc[:c] += terms[at:at + c]
            at += c
        out[lo:lo + len(lengths)] = acc[rank]
    return out


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
    once, by ``eval_moment_pi``'s reduction and its zero-slice rule, and
    reads each of those cumulants from that one table through
    ``cumulants_from_moments``; the left-hand side is ``cumulant_pi``.
    """
    word = _chi_ordered(chi_hat, operands)
    ops = word.ops
    chi_m = chi_of_groups(chi_hat, group_sizes)
    ranges = group_offsets(group_sizes)
    grouped = [Monomial.concat(ops[a - 1:b - 1]) for a, b in ranges]
    lhs = cumulant_pi(F, one_partition(chi_m), grouped)
    # The embedded minimum: the interval partition of the groups.
    zero_hat = BncPartition([range(a, b) for a, b in ranges], chi_hat)
    top = one_partition(chi_hat)
    parts = enumerate_bnc(chi_hat)
    moments = {tau: _moment_pi(F, tau, word) for tau in parts}
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
    exhibit the planted covariance at order two; a family with one family
    tag is vacuous, tests no word and gets a report of the same shape.  A
    residual that is not finite fails the scan: the first one is reported
    as the maximum, and such violations are listed first.  Mixed cumulants
    start at order two, so ``max_order`` must lie in 2..8; ``tol`` must be
    positive and finite.  At d > 1 each top cumulant is ``cumulant_pi``, which
    reduces only the partitions with no block equal to a chi-interval of
    zero value (their moments are zero by bi-multiplicativity).  At d = 1 it
    is ``_scalar_top_cumulant``, which walks the block index of the
    per-length Moebius table, clears every partition with a block whose
    value is exactly 0 and asks the moment functional for each block's
    value once per scan, from a dict made per call and keyed by the
    block's letters.  Only this scan clears a partition for a zero block
    that is not a chi-interval, as the factorization of scalar moments over
    blocks allows.  The direct call stays because routing d = 1 through
    ``cumulant_pi`` cost +30% to +38% ``lattice-scan`` CPU
    (0.094-0.098 s -> 0.127-0.129 s, three pairs).
    """
    if not 2 <= max_order <= MAX_SCAN_ORDER:
        raise ValueError(f"max_order must be in 2..{MAX_SCAN_ORDER}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    syms = list(symbols)
    fam = {s: s.family for s in syms}
    vacuous = len(set(fam.values())) < 2
    residuals = []
    words = []
    violations = []
    values: dict = {}
    for n in () if vacuous else range(2, max_order + 1):  # a vacuous scan has no mixed word
        for word in product(syms, repeat=n):
            if len({fam[s] for s in word}) < 2:
                continue
            chi = ChiWord(s.side for s in word)
            if F.dim == 1:
                r = abs(_scalar_top_cumulant(F, word, chi, values))
            else:
                val = cumulant_pi(F, one_partition(chi), [Monomial([s]) for s in word])
                r = maxabs(val)
            residuals.append(r)
            words.append(word)
            # A NaN residual fails ``r <= tol``: every one is a violation.
            if not r <= tol:
                violations.append(
                    {
                        "order": n,
                        "word": [s.display for s in word],
                        "families": [fam[s] for s in word],
                        "residual": r,
                    }
                )
    violations.sort(key=lambda v: (math.isfinite(v["residual"]), -v["residual"]))
    worst, at = worst_at(residuals)
    return {
        "pass": not violations,
        "vacuous": vacuous,
        "max_residual": worst,
        "worst_word": None if at is None else [s.display for s in words[at]],
        "tested": len(residuals),
        "tolerance": tol,
        "max_order": max_order,
        "violations": violations[:10],
        "violation_count": len(violations),
    }


def _scalar_top_cumulant(F: MomentFunctional, word, chi: ChiWord, values=None) -> complex:
    """Top cumulant of a word of generators over scalar coefficients.

    Scalar moments factor over blocks, so the sum runs over the per-length
    table ``mobius_top_table(n)`` through its block index
    ``top_block_index(n)``: the set bits of a mask of live entries are
    walked in table order, and each NC block is resolved to its positions
    the first time an entry needs it.  Its value is read from ``F`` only
    if ``values`` (keyed by the block's letters in position order, and kept
    by ``bifree_test`` over one scan) lacks it.  A block whose value is
    exactly 0 (a NaN is not) clears at once every entry that has it: those
    entries add exact zeros.  Every other entry multiplies mu by its block
    values in order of smallest position, as ``enumerate_bnc(chi)`` lists
    the blocks, and is added in table order: the terms and the order of a
    scan of every entry.
    """
    s = s_chi(chi)
    index = top_block_index(chi.n)
    values = {} if values is None else values
    # Block id -> (smallest position, value) for the blocks read so far.
    factor: dict = {}
    alive = (1 << len(index.sigmas)) - 1
    total = 0.0 + 0.0j
    while alive:
        i = (alive & -alive).bit_length() - 1
        ids, mu = index.sigmas[i]
        for b in ids:
            f = factor.get(b)
            if f is None:
                pos = sorted(s[x - 1] for x in index.blocks[b])
                letters = tuple(word[k - 1] for k in pos)
                v = values.get(letters)
                if v is None:
                    v = values[letters] = complex(F.expect(Monomial(letters))[0, 0])
                f = factor[b] = (pos[0], v)
            if f[1] == 0:
                alive &= ~index.contains[b]
                break
        else:
            # Disjoint blocks have distinct smallest positions, so the sort
            # never compares two values.
            term = mu
            for _, v in sorted(factor[b] for b in ids):
                term *= v
            total += term
            alive &= alive - 1
    return total
