"""Lattice of bi-non-crossing set partitions.

A word ``chi`` over the side tags ``l``/``r`` assigns each of the positions
``1..n`` to the left or the right line of a two-line diagram.  Reading the
left positions top-down and then the right positions bottom-up gives a
permutation of ``1..n``; a partition is bi-non-crossing when it becomes an
ordinary non-crossing partition after that relabelling.  The lattice is
kept in those NC coordinates: each partition carries its NC picture,
enumerated partitions share the tuples of NC(n), and the lattice operations
and the Moebius tables run on them.  This module holds the word type, the
partition type, enumeration and lookup, the refinement lattice, its lower
intervals and its integer Moebius function.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import product
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from .balgebra import json_fields

LEFT = "l"
RIGHT = "r"

#: Largest word length accepted by the enumerative routines.  Catalan(12)
#: is ~2e5 partitions; anything beyond that is a usage error at desk scale.
MAX_ENUM_N = 12

#: Largest order of the mixed-cumulant scan (``moments.bifree_test``,
#: ``bifree test --max-order``).
MAX_SCAN_ORDER = 8

#: Longest test word of the conjugate-variable relations
#: (``conjvar._relation_walk``, ``conj check --max-n``).
MAX_WALK_N = 8

Block = tuple[int, ...]
Blocks = tuple[Block, ...]


class ChiWord:
    """Immutable word of side tags, positions 1-based.  Its permutation
    ``s_chi`` and the inverse are computed once, with the word."""

    __slots__ = ("labels", "_s", "_s_inv")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(x).lower() for x in labels)
        if not labels:
            raise ValueError("chi word must have length >= 1")
        for x in labels:
            if x not in (LEFT, RIGHT):
                raise ValueError(f"side tag must be {LEFT!r} or {RIGHT!r}, got {x!r}")
        n = len(labels)
        # A right position k sorts as 2n + 1 - k: after every left, decreasing.
        s = tuple(sorted(range(1, n + 1), key=lambda k: k if labels[k - 1] == LEFT else 2 * n + 1 - k))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_s_inv", tuple(sorted(range(1, n + 1), key=lambda r: s[r - 1])))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ChiWord is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    def side(self, k: int) -> str:
        """Side tag at 1-based position ``k``."""
        if not 1 <= k <= self.n:
            raise IndexError(f"position {k} out of range 1..{self.n}")
        return self.labels[k - 1]

    def restrict(self, positions: Sequence[int]) -> "ChiWord":
        """Induced word on a subset of positions (kept in numeric order)."""
        return ChiWord(self.labels[k - 1] for k in sorted(positions))

    def __eq__(self, other):
        return isinstance(other, ChiWord) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"ChiWord({''.join(self.labels)!r})"

    def __str__(self):
        return "".join(self.labels)


def s_chi(chi: ChiWord) -> tuple[int, ...]:
    """Permutation induced by ``chi``: lefts increasing, then rights decreasing.

    Entry ``k-1`` of the result is the position visited k-th.
    """
    return chi._s


def s_chi_inverse(chi: ChiWord) -> tuple[int, ...]:
    """Inverse permutation: entry ``i-1`` is the visiting rank of position ``i``."""
    return chi._s_inv


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    """Blocks sorted inside and by their first element; the blocks must be
    non-empty and disjoint."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def _check_partition(blocks: Blocks, n: int) -> None:
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise ValueError("empty block")
        for x in b:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"element {x!r} is not an integer")
            if not 1 <= x <= n:
                raise ValueError(f"element {x} outside 1..{n}")
            if x in seen:
                raise ValueError(f"element {x} is listed twice")
            seen.add(x)
    if len(seen) != n:
        raise ValueError(f"blocks cover {len(seen)} of {n} elements")


def _nc_closure(blocks: Iterable[Block], n: int) -> Blocks:
    """Finest non-crossing partition of ``1..n`` in which each given block
    lies inside one block (canonical).  Blocks may overlap: two partitions'
    blocks together give their join in NC(n)."""
    root = list(range(n + 1))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for b in blocks:
        for x in b[1:]:
            root[find(x)] = find(b[0])
    last = {find(x): x for x in range(1, n + 1)}
    # Scan with a stack of open blocks.  A block met again below the top of
    # the stack crosses every block opened above it (each has an element
    # before x and one after it), so those merge into it.  A block closed
    # unmerged holds no element of any block still open, so one pass ends
    # non-crossing.
    stack: list[int] = []
    for x in range(1, n + 1):
        r = find(x)
        if r in stack:
            while stack[-1] != r:
                top = stack.pop()
                root[top] = r
                last[r] = max(last[r], last[top])
        else:
            stack.append(r)
        if x == last[r]:
            stack.pop()
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return tuple(map(tuple, groups.values()))


def _is_noncrossing(blocks: Blocks, n: int) -> bool:
    """True iff the canonical blocks of a partition of ``1..n`` do not cross."""
    return _nc_closure(blocks, n) == blocks


def _nc_picture(blocks: Iterable[Iterable[int]], chi: ChiWord) -> tuple[Blocks, Blocks]:
    """Canonical blocks of a partition of ``1..n`` and their relabelling by
    ``s_chi`` (also canonical); raises ``ValueError`` for a non-partition."""
    blocks = [tuple(b) for b in blocks]
    _check_partition(blocks, chi.n)
    canon = _canonical_blocks(blocks)
    inv = s_chi_inverse(chi)
    return canon, _canonical_blocks(tuple(inv[x - 1] for x in b) for b in canon)


def is_bnc(blocks: Iterable[Iterable[int]], chi: ChiWord) -> bool:
    """True iff the raw partition is bi-non-crossing with respect to ``chi``."""
    return _is_noncrossing(_nc_picture(blocks, chi)[1], chi.n)


class BncPartition:
    """A partition of ``{1..n}`` that is bi-non-crossing for its chi word.

    ``nc`` is its chi-ordered picture, a canonical non-crossing partition of
    ``1..n``; the lattice operations, equality and hash read ``(chi, nc)``.
    ``blocks``, the canonical blocks in position coordinates, are computed
    from ``nc`` through ``s_chi`` the first time they are read.
    """

    __slots__ = ("chi", "nc", "_blocks", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]], chi: ChiWord):
        canon, nc = _nc_picture(blocks, chi)
        if not _is_noncrossing(nc, chi.n):
            raise ValueError(f"partition {canon} is not bi-non-crossing for chi={chi}")
        self._set(nc, chi, canon)

    @classmethod
    def _trusted(cls, nc: Blocks, chi: ChiWord) -> "BncPartition":
        """Build from a canonical non-crossing picture without checks."""
        self = object.__new__(cls)
        self._set(nc, chi, None)
        return self

    def _set(self, nc: Blocks, chi: ChiWord, blocks: Blocks | None) -> None:
        object.__setattr__(self, "nc", nc)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_hash", None)

    @property
    def blocks(self) -> Blocks:
        if self._blocks is None:
            s = s_chi(self.chi)
            object.__setattr__(
                self, "_blocks", _canonical_blocks(tuple(s[x - 1] for x in b) for b in self.nc)
            )
        return self._blocks

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BncPartition is immutable")

    @property
    def n(self) -> int:
        return self.chi.n

    def __eq__(self, other):
        return (
            isinstance(other, BncPartition)
            and self.chi == other.chi
            and self.nc == other.nc
        )

    def __hash__(self):
        # Hashed on first use and kept: the table transforms look partitions
        # up in dicts, while most partitions a scan builds are never hashed.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.chi, self.nc)))
        return self._hash

    def __repr__(self):
        return f"BncPartition({list(map(list, self.blocks))}, chi={self.chi})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "chi": str(self.chi),
            "blocks": [list(b) for b in self.blocks],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BncPartition":
        """The partition of ``to_json``'s form; a field other than n, chi and
        blocks, or an ``"n"`` other than the side word's length, raises
        ``ValueError``."""
        json_fields(obj, "partition", ("n", "chi", "blocks"))
        chi = ChiWord(obj["chi"])
        if "n" in obj and (type(obj["n"]) is not int or obj["n"] != chi.n):
            raise ValueError(f'field "n" must be the length {chi.n} of chi, got {obj["n"]!r}')
        return cls(obj["blocks"], chi)


def zero_partition(chi: ChiWord) -> BncPartition:
    return BncPartition([(k,) for k in range(1, chi.n + 1)], chi)


def one_partition(chi: ChiWord) -> BncPartition:
    return BncPartition([tuple(range(1, chi.n + 1))], chi)


def _nc_blocks(elems: tuple[int, ...]) -> Iterator[Blocks]:
    """All non-crossing partitions of a sorted tuple, in a fixed canonical order.

    The block of the smallest element is chosen as an arbitrary subset; the
    remaining elements split into the gaps between its entries, and each gap
    is partitioned independently.  Every choice is valid and each partition
    arises exactly once, so the count is a Catalan number.
    """
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    m = len(rest)
    for mask in range(1 << m):
        chosen = []
        left_out = []
        for i in range(m):
            (chosen if (mask >> i) & 1 else left_out).append(rest[i])
        block = (first, *chosen)
        # Gap t collects the left-out elements between block[t] and block[t+1]
        # (the last gap is unbounded above).
        gaps: list[list[int]] = [[] for _ in range(len(block))]
        for e in left_out:
            gaps[bisect_right(block, e) - 1].append(e)
        for subs in product(*(_nc_blocks(tuple(g)) for g in gaps)):
            yield sum(subs, (block,))


@lru_cache(maxsize=16)
def _nc_all(n: int) -> tuple[Blocks, ...]:
    # Equal blocks of different partitions are one tuple.
    shared: dict[Block, Block] = {}
    return tuple(
        tuple(shared.setdefault(b, b) for b in _canonical_blocks(p))
        for p in _nc_blocks(tuple(range(1, n + 1)))
    )


def enumerate_nc(n: int) -> tuple[Blocks, ...]:
    """All non-crossing partitions of ``{1..n}`` in canonical order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ENUM_N:
        raise ValueError(f"n={n} exceeds enumeration bound {MAX_ENUM_N}")
    return _nc_all(n)


@lru_cache(maxsize=256)
def _bnc_all(chi: ChiWord) -> tuple[BncPartition, ...]:
    # Relabelled NC partitions are BNC by definition: no re-check needed.
    return tuple(BncPartition._trusted(sigma, chi) for sigma in _nc_all(chi.n))


def enumerate_bnc(chi: ChiWord) -> tuple[BncPartition, ...]:
    """All bi-non-crossing partitions for ``chi``; count is Catalan(n)."""
    if chi.n > MAX_ENUM_N:
        raise ValueError(f"n={chi.n} exceeds enumeration bound {MAX_ENUM_N}")
    return _bnc_all(chi)


def _require_same_chi(sigma: BncPartition, pi: BncPartition) -> None:
    if sigma.chi != pi.chi:
        raise ValueError("partitions live over different chi words")


def lattice_leq(sigma: BncPartition, pi: BncPartition) -> bool:
    """Refinement order: every block of sigma lies in a block of pi.  Read on
    the NC pictures, since relabelling the points preserves refinement."""
    _require_same_chi(sigma, pi)
    return len(pi.nc) == 1 or _blocks_leq(sigma.nc, pi.nc)


def _blocks_leq(fine: Blocks, coarse: Blocks) -> bool:
    owner = {}
    for bi, b in enumerate(coarse):
        for x in b:
            owner[x] = bi
    for b in fine:
        it = iter(b)
        first = owner[next(it)]
        if any(owner[x] != first for x in it):
            return False
    return True


def lattice_meet(sigma: BncPartition, pi: BncPartition) -> BncPartition:
    """Common refinement: the pairwise block intersections of the NC
    pictures, which do not cross."""
    _require_same_chi(sigma, pi)
    inter = (set(a).intersection(b) for a in sigma.nc for b in pi.nc)
    return BncPartition._trusted(_canonical_blocks(x for x in inter if x), sigma.chi)


def lattice_join(sigma: BncPartition, pi: BncPartition) -> BncPartition:
    """Least upper bound in BNC(chi): in the NC picture, the join in P(n)
    closed under merging crossing blocks (the P(n) join alone can cross)."""
    _require_same_chi(sigma, pi)
    return BncPartition._trusted(_nc_closure(sigma.nc + pi.nc, sigma.n), sigma.chi)


# --- Moebius function -------------------------------------------------------

def _kreweras_sizes(sigma: Blocks, pi: Blocks) -> list[int]:
    """Block sizes of the Kreweras complements of ``sigma`` inside ``pi >= sigma``.

    With each block read as the cycle of its elements in increasing order,
    they are the cycle lengths of sigma^-1 pi: on a block of pi, pi is the
    long cycle gamma, and sigma^-1 gamma is the usual complement.
    """
    pred = {x: b[i - 1] for b in sigma for i, x in enumerate(b)}
    perm = {x: pred[b[(i + 1) % len(b)]] for b in pi for i, x in enumerate(b)}
    sizes = []
    while perm:
        x, k = next(iter(perm)), 0
        while x in perm:
            x = perm.pop(x)
            k += 1
        sizes.append(k)
    return sizes


def _mobius_nc(sigma: Blocks, pi: Blocks) -> int:
    """Moebius function of NC(n) on canonical non-crossing blocks, unchecked
    (an exact integer)."""
    if not _blocks_leq(sigma, pi):
        return 0
    mu = 1
    for k in _kreweras_sizes(sigma, pi):
        mu *= (-1) ** (k - 1) * catalan(k - 1)
    return mu


def mobius_bnc(sigma: BncPartition, pi: BncPartition) -> int:
    """Moebius function of BNC(chi), an exact integer.

    Relabelling by ``s_chi`` is a lattice isomorphism onto NC(n).  There,
    for sigma <= pi, mu(sigma, pi) is the product of (-1)^(k-1) Cat(k-1) over
    the blocks, of size k, of the Kreweras complements of sigma restricted to
    each block of pi (Nica-Speicher, Lectures 9-10); otherwise it is 0.
    """
    _require_same_chi(sigma, pi)
    return _mobius_nc(sigma.nc, pi.nc)


@lru_cache(maxsize=MAX_ENUM_N)
def mobius_top_table(n: int) -> tuple[tuple[Blocks, int], ...]:
    """``(sigma, mu(sigma, 1_n))`` for each sigma of ``enumerate_nc(n)``, once
    per length.  For every chi of length n, entry i is ``(p.nc, mobius_bnc(p,
    one_partition(chi)))`` for the i-th partition p of ``enumerate_bnc(chi)``.
    """
    top = (tuple(range(1, n + 1)),)
    return tuple((sigma, _mobius_nc(sigma, top)) for sigma in enumerate_nc(n))


class TopBlockIndex(NamedTuple):
    """``mobius_top_table(n)`` by block: ``blocks`` lists every distinct NC
    block of the table once, ``sigmas[i]`` is entry i as the ids of its
    blocks (in the table's block order) with its mu, and bit i of
    ``contains[b]`` is set when entry i has block ``b``."""

    blocks: tuple[Block, ...]
    sigmas: tuple[tuple[tuple[int, ...], int], ...]
    contains: tuple[int, ...]


# Eight lengths, the orders 1..8 of the mixed-cumulant scan: the bitsets
# take up to (2^n - 1) Catalan(n) bits, 45 KB at n = 8 but 106 MB at n = 12.
@lru_cache(maxsize=8)
def top_block_index(n: int) -> TopBlockIndex:
    """The block index of ``mobius_top_table(n)``, once per length."""
    ids: dict[Block, int] = {}
    sigmas = tuple(
        (tuple(ids.setdefault(b, len(ids)) for b in sigma), mu)
        for sigma, mu in mobius_top_table(n)
    )
    contains = [0] * len(ids)
    for i, (bs, _) in enumerate(sigmas):
        for b in bs:
            contains[b] |= 1 << i
    return TopBlockIndex(tuple(ids), sigmas, tuple(contains))


@lru_cache(maxsize=MAX_ENUM_N)
def _interval_blocks(n: int) -> tuple[int, ...]:
    """For each sigma of ``enumerate_nc(n)``, once per length, a bitmask of
    its blocks that are intervals: the block ``(lo, lo + 1, ..., hi)`` sets
    bit ``(lo - 1) * n + hi - 1``.  Reading them from ``top_block_index(n)``
    instead would cost 3.2 s and +157 MB at n = 12, where this table takes
    0.2 s and +11 MB (after ``enumerate_nc(12)``, 2-vCPU VM)."""
    return tuple(
        sum(1 << ((b[0] - 1) * n + b[-1] - 1) for b in sigma if b[-1] - b[0] + 1 == len(b))
        for sigma in enumerate_nc(n)
    )


def enumerate_bnc_avoiding(
    chi: ChiWord, intervals: Iterable[tuple[int, int]]
) -> list[BncPartition]:
    """The partitions of ``enumerate_bnc(chi)``, in its order, none of whose
    blocks is one of the chi-intervals ``(lo, hi)``: the points of chi-rank
    lo..hi, 1-based and inclusive, which is the NC-picture block
    ``(lo, ..., hi)``.  Only the partitions returned are built; the interval
    blocks of every NC partition are read from a per-length table."""
    n = chi.n
    avoid = 0
    for lo, hi in intervals:
        if not 1 <= lo <= hi <= n:
            raise ValueError(f"({lo}, {hi}) is not a chi-interval of 1..{n}")
        avoid |= 1 << ((lo - 1) * n + hi - 1)
    return [
        BncPartition._trusted(nc, chi)
        for nc, blocks in zip(enumerate_nc(n), _interval_blocks(n))
        if not blocks & avoid
    ]


def _code(blocks: Iterable[Iterable[int]]) -> int:
    """A partition of ``1..n`` (n < 16) as an integer: hex digit x-1 is the
    smallest element of x's block.  Blocks on disjoint points add."""
    code = 0
    for b in blocks:
        m = min(b)
        for x in b:
            code += m << 4 * (x - 1)
    return code


@lru_cache(maxsize=MAX_ENUM_N)
def _nc_index(n: int) -> dict[int, int]:
    return {_code(sigma): i for i, sigma in enumerate(_nc_all(n))}


def find_bnc(blocks: Iterable[Iterable[int]], chi: ChiWord) -> BncPartition:
    """The partition of ``enumerate_bnc(chi)`` with the given blocks, equal to
    ``BncPartition(blocks, chi)``.

    The partition check raises the ``ValueError`` that names a fault; a
    partition is then looked up by its NC picture, and a miss goes through
    ``BncPartition(blocks, chi)``, which raises unless it is bi-non-crossing.
    """
    blocks = [tuple(b) for b in blocks]
    n = chi.n
    _check_partition(blocks, n)
    if n <= MAX_ENUM_N:
        inv = s_chi_inverse(chi)
        i = _nc_index(n).get(_code([inv[x - 1] for x in b] for b in blocks))
        if i is not None:
            return _bnc_all(chi)[i]
    return BncPartition(blocks, chi)


# Every block of a partition of 1..n for n <= 8: the non-empty subsets of 1..8.
@lru_cache(maxsize=255)
def _block_factors(V: Block) -> tuple[tuple[int, int], ...]:
    """``(code, mu)`` for each entry of ``mobius_top_table(len(V))``, its
    partition relabelled onto the block ``V`` and kept as its ``_code``."""
    return tuple(
        (_code(tuple(V[x - 1] for x in b) for b in s), mu) for s, mu in mobius_top_table(len(V))
    )


# Catalan(8) entries: every interval of every partition up to n = 8.
@lru_cache(maxsize=1430)
def _interval_table(n: int, nc: Blocks) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices into ``enumerate_nc(n)`` of the sigma <= nc, increasing, and
    their mu(sigma, nc).

    The interval is the product, over the blocks V of nc, of NC(|V|)
    relabelled onto V, and mu is the product of the factors' mu(sigma|V,
    1_V) (Nica-Speicher, Lectures 9-10).  Each block's factor entries are
    read as ``_code``s from the per-block cache ``_block_factors``, so a
    product entry's code is the sum of its factors' codes.
    """
    found = [(0, 1)]
    for V in nc:
        found = [(c + code, m * mu) for c, m in found for code, mu in _block_factors(V)]
    index = _nc_index(n)
    indices, mus = zip(*sorted((index[c], m) for c, m in found))
    return indices, mus


def lower_interval(pi: BncPartition) -> tuple[tuple[BncPartition, int], ...]:
    """``(sigma, mobius_bnc(sigma, pi))`` for every sigma <= pi, in
    ``enumerate_bnc(pi.chi)`` order.

    The interval depends only on ``pi.nc``: it is read from a bounded cache
    of intervals of NC(n), each built once from the per-length tables
    ``mobius_top_table`` of pi's block sizes, not found by scanning BNC(chi).
    """
    parts = enumerate_bnc(pi.chi)
    indices, mus = _interval_table(pi.n, pi.nc)
    return tuple(zip(map(parts.__getitem__, indices), mus))


def catalan(n: int) -> int:
    """The n-th Catalan number (Catalan(0) = 1)."""
    return comb(2 * n, n) // (n + 1)
