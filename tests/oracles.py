"""Independent brute-force oracles shared by the test modules.

The lattice oracles are deliberately written without the package's lattice
machinery: set partitions come from restricted growth strings, crossings
from a quartic scan, and the Moebius function from inverting the order
matrix numerically.  The moment oracles reduce on numeric labels, one
re-ranking every level in chi-order and one stripping admissible runs in
random order, and the Fock oracle applies a symbol one elementary factor at
a time, with its own copy of the scalar and tensor arithmetic.  The vacuum
expectation oracle applies every word to the vacuum, with no state kept from
an earlier word.  The conjugate-relation oracles list by hand the
generators present beside each target of a system, rebuild each right-hand
side from its word alone, walk every test word with no two merged as one
operator, find a word's commutation class by closing it under swaps, and fit
the least-squares candidate over breadth-first test words applied from the
vacuum.  The matrix-lift oracle is the general d x d index-chain
expansion over explicit tables: it finds the index chains first and
resolves every entry again for each chain.  The CP-map oracles read Kraus
operators only: the action sums V b V* over them, a d > 1 contraction sums the map
over each Kraus operator and then traces the merged slot, the Choi matrix
sums Kronecker products of matrix units and their Kraus-sum images, and
trace symmetry compares the map with its Kraus-built trace adjoint.  The d > 1 pairing oracle contracts both states
and every covariance kernel of an index sequence in one einsum.  The
cumulant oracle takes a Moebius value and a fresh numeric-label reduction
for every partition below its argument;
a second one reduces every partition through the package's reduction, as the
scan did before it left out partitions with a zero chi-interval block.  The
product-expansion oracle runs a full cumulant scan for each partition on its
right-hand side.  One scalar top-cumulant oracle relabels every partition of
the per-length Moebius table to positions for its side word and multiplies
block values in position order; another visits every entry of the table in
NC coordinates, as the scan did before it indexed the table by block.  The
interval oracle rebuilds a lower interval from relabelled factor tables on
every call, and the table-transform oracles add one term at a time over it.
The ``mc`` oracle reads a table file entry by entry, each value through
``belement_from_json``, and transforms it one partition at a time.
The circular-pair symbol table is written out by hand, entry by entry.
"""

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from bifree.bnc import (
    LEFT,
    BncPartition,
    ChiWord,
    enumerate_bnc,
    enumerate_nc,
    lattice_join,
    lattice_leq,
    mobius_bnc,
    mobius_top_table,
    one_partition,
    s_chi,
)
from bifree.balgebra import as_belement, belement_from_json, json_fields, matrix_units
from bifree.conjvar import VectorCandidate
from bifree.fock import FockVector
from bifree.moments import (
    chi_of_groups,
    cumulant_pi,
    cumulants_from_moments,
    eval_moment_pi,
    group_offsets,
    moments_from_cumulants,
)
from bifree.words import BCoeff, Lb, Monomial, MomentFunctional, Rb, as_monomial


def all_set_partitions(n):
    """Every partition of {1..n} via restricted growth strings."""

    def rec(k, labels, m):
        if k == n:
            blocks = {}
            for i, g in enumerate(labels, start=1):
                blocks.setdefault(g, []).append(i)
            yield tuple(tuple(b) for b in blocks.values())
            return
        for g in range(m + 1):
            yield from rec(k + 1, labels + [g], max(m, g + 1))

    yield from rec(0, [], 0)


def has_crossing(blocks):
    """Quartic-scan crossing detector."""
    owner = {}
    for bi, b in enumerate(blocks):
        for x in b:
            owner[x] = bi
    elems = sorted(owner)
    n = len(elems)
    for a in range(n):
        for b_ in range(a + 1, n):
            for c in range(b_ + 1, n):
                for d in range(c + 1, n):
                    va, vb, vc, vd = (owner[elems[i]] for i in (a, b_, c, d))
                    if va == vc and vb == vd and va != vb:
                        return True
    return False


def nc_pair_partition_count(n):
    """Number of non-crossing pair partitions of {1..n} by brute force."""
    if n % 2:
        return 0
    count = 0
    for p in all_set_partitions(n):
        if all(len(b) == 2 for b in p) and not has_crossing(p):
            count += 1
    return count


@lru_cache(maxsize=None)
def zeta_inverse_mobius(n):
    """NC Moebius function as the inverse of the order matrix, once per n
    (callers only read the result)."""
    parts = enumerate_nc(n)
    owners = []
    for p in parts:
        o = {}
        for bi, b in enumerate(p):
            for x in b:
                o[x] = bi
        owners.append(o)
    m = len(parts)
    zeta = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            oj = owners[j]
            zeta[i, j] = all(len({oj[x] for x in b}) == 1 for b in parts[i])
    mu = np.linalg.inv(zeta)
    idx = {p: i for i, p in enumerate(parts)}
    return parts, idx, mu


def mobius_nc(sigma, pi, n):
    """Moebius function of NC(n) from the inverse of the order matrix; raises
    ``ValueError`` for an argument that is not a non-crossing partition of
    1..n."""
    parts, idx, mu = zeta_inverse_mobius(n)
    ij = []
    for p in (sigma, pi):
        key = tuple(sorted(tuple(sorted(b)) for b in p))
        if key not in idx:
            raise ValueError(f"{p} is not a non-crossing partition of 1..{n}")
        ij.append(idx[key])
    return round(mu[ij[0], ij[1]])


def free_cumulant_from_moments(moments, n):
    """Scalar free cumulant kappa_n from a moment sequence, via the NC lattice.

    ``moments[k]`` is the k-th moment (moments[0] unused).
    """
    parts, idx, mu = zeta_inverse_mobius(n)
    top = idx[tuple([tuple(range(1, n + 1))])]
    total = 0.0
    for p in parts:
        term = mu[idx[p], top]
        for b in p:
            term *= moments[len(b)]
        total += term
    return total


# --- moment reduction on numeric labels --------------------------------------

def _product(ops):
    out = Monomial.unit()
    for w in ops:
        out = out * w
    return out


def _restrict(labels, blocks, ops, keep):
    """The sub-problem on ``keep``, renumbered to 1..len(keep)."""
    keep = sorted(keep)
    pos_map = {old: new for new, old in enumerate(keep, start=1)}
    new_labels = tuple(labels[k - 1] for k in keep)
    new_blocks = tuple(
        tuple(pos_map[x] for x in b if x in pos_map)
        for b in blocks
        if any(x in pos_map for x in b)
    )
    new_ops = [ops[k - 1] for k in keep]
    return new_labels, new_blocks, new_ops


def _chi_ranks(labels):
    """Positions in chi-order, and the rank (1-based) of each position."""
    order = list(s_chi(ChiWord(labels)))
    rank = {pos: i + 1 for i, pos in enumerate(order)}
    return order, rank


def _eval_pi_reference(F, labels, blocks, ops):
    n = len(labels)
    if len(blocks) == 1:
        return F.expect(_product(ops))
    order, rank = _chi_ranks(labels)
    V = next(b for b in blocks if n in b)
    ranks_V = sorted(rank[x] for x in V)
    if ranks_V[0] == 1 and ranks_V[-1] == n:
        rp = min(rank[x] for x in range(1, n + 1) if x not in V)
        rq = min(r for r in ranks_V if r > rp)
        rm = max(r for r in ranks_V if r < rp)
        W = [order[r - 1] for r in range(rp, rq)]
        sub = _eval_pi_reference(F, *_restrict(labels, blocks, ops, W))
        ops2 = list(ops)
        p = order[rp - 1]
        if labels[p - 1] == LEFT:
            tgt = order[rm - 1]
            ops2[tgt - 1] = ops2[tgt - 1] * Lb(sub)
        else:
            tgt = order[rq - 1]
            ops2[tgt - 1] = ops2[tgt - 1] * Rb(sub)
        comp = [x for x in range(1, n + 1) if x not in set(W)]
        return _eval_pi_reference(F, *_restrict(labels, blocks, ops2, comp))
    hull = [order[r - 1] for r in range(ranks_V[0], ranks_V[-1] + 1)]
    sub = _eval_pi_reference(F, *_restrict(labels, blocks, ops, hull))
    comp = [x for x in range(1, n + 1) if x not in set(hull)]
    q = max(comp)
    ops2 = list(ops)
    ops2[q - 1] = ops2[q - 1] * (Lb(sub) if labels[q - 1] == LEFT else Rb(sub))
    return _eval_pi_reference(F, *_restrict(labels, blocks, ops2, comp))


def eval_moment_pi_reference(F, pi, operands):
    """Moment function at ``pi`` by the deterministic reduction on numeric
    labels: every level re-ranks its positions in chi-order and renumbers
    the kept ones.  It makes the same ``F.expect`` calls on the same
    monomials, in the same order, as ``eval_moment_pi``."""
    ops = [as_monomial(z) for z in operands]
    return _eval_pi_reference(F, pi.chi.labels, pi.blocks, ops)


def cumulant_pi_scan(F, pi, operands):
    """Cumulant at ``pi`` by the full scan: every sigma of ``enumerate_bnc``
    is tested against ``pi``, the Moebius value is taken for each sigma below
    it, and each moment is reduced from scratch by the numeric-label
    reduction, with no exit on a zero slice.  The sum runs in enumeration
    order, as in ``cumulant_pi``."""
    ops = [as_monomial(z) for z in operands]
    total = np.zeros((F.dim, F.dim), dtype=complex)
    for sigma in enumerate_bnc(pi.chi):
        if lattice_leq(sigma, pi):
            total += mobius_bnc(sigma, pi) * eval_moment_pi_reference(F, sigma, ops)
    return total


def cumulant_pi_every_partition(F, pi, operands):
    """Cumulant at ``pi`` as ``cumulant_pi`` summed it before partitions with a
    zero chi-interval block were left out: every sigma of ``enumerate_bnc`` is
    tested against ``pi`` and reduced by ``eval_moment_pi``, zero-slice exit
    included, and each moment that is not exactly zero adds mu times it,
    in enumeration order.  Equal bits are expected, NaN payloads included."""
    total = np.zeros((F.dim, F.dim), dtype=complex)
    for sigma in enumerate_bnc(pi.chi):
        if lattice_leq(sigma, pi):
            m = eval_moment_pi(F, sigma, operands)
            if np.count_nonzero(m):
                total += mobius_bnc(sigma, pi) * m
    return total


# --- lower intervals and the table transforms, rebuilt on every call -----------

@lru_cache(maxsize=None)
def _nc_position(n):
    return {sigma: i for i, sigma in enumerate(enumerate_nc(n))}


def lower_interval_by_product(pi):
    """``(sigma, mu(sigma, pi))`` for every sigma <= pi in enumeration order,
    rebuilt on every call: the per-length Moebius table of each block V of
    ``pi.nc`` relabelled onto V, the product of those factors, each entry's
    blocks sorted and found in ``enumerate_nc``, then a sort by position."""
    parts = enumerate_bnc(pi.chi)
    factors = []
    for V in pi.nc:
        table = mobius_top_table(len(V))
        factors.append(
            tuple((tuple(tuple(V[x - 1] for x in b) for b in s), mu) for s, mu in table)
        )
    index = _nc_position(pi.n)
    found = []
    for combo in itertools.product(*factors):
        blocks, mus = zip(*combo)
        found.append((index[tuple(sorted(itertools.chain.from_iterable(blocks)))], math.prod(mus)))
    found.sort()
    return tuple((parts[i], mu) for i, mu in found)


def moments_from_cumulants_loop(kappa_table, interval):
    """Moment from a cumulant table: ``total + value`` term by term over an
    interval listed as by ``lower_interval_by_product``, starting from the
    first value."""
    total = None
    for sigma, _ in interval:
        v = kappa_table[sigma]
        total = np.asarray(v, dtype=complex) if total is None else total + v
    return total


def mc_by_entry(path, to):
    """``mc to-cumulants`` (``to="cumulants"``) or ``mc to-moments`` on a
    table file, one entry and one partition at a time: each entry's fields
    and chi are checked, its partition built by the constructor and rejected
    if listed before, and its value read by ``belement_from_json`` and held
    to the first value's size; then each partition of ``enumerate_bnc(chi)``
    is transformed in turn from the dict table.  Returns ``(chi, {partition:
    value})``, or raises what the reading or a transform raises."""
    with open(path) as fh:
        data = json.load(fh)
    json_fields(data, "table", ("chi", "entries", "schema"))
    chi = ChiWord(data["chi"])
    table = {}
    d = None
    for entry in data["entries"]:
        json_fields(entry, "table entry", ("chi", "partition", "value"))
        if "chi" in entry and ChiWord(entry["chi"]) != chi:
            raise ValueError(f"entry chi {entry['chi']!r} differs from the table's {str(chi)!r}")
        p = BncPartition(entry["partition"], chi)
        if p in table:
            raise ValueError(f"partition {list(map(list, p.blocks))} is listed twice")
        v = table[p] = as_belement(belement_from_json(entry["value"]), d)
        d = v.shape[0]
    convert = cumulants_from_moments if to == "cumulants" else moments_from_cumulants
    return chi, {p: convert(table, p) for p in enumerate_bnc(chi)}


def cumulants_from_moments_loop(moment_table, interval):
    """Cumulant from a moment table: ``total + mu * value`` term by term over
    an interval listed as by ``lower_interval_by_product``, starting from the
    first term."""
    total = None
    for sigma, mu in interval:
        term = mu * np.asarray(moment_table[sigma], dtype=complex)
        total = term if total is None else total + term
    return total


# --- the lattice in position coordinates ---------------------------------------

def relabel_nc(nc, chi):
    """Canonical position blocks of an NC picture: rank r becomes position
    ``s_chi(chi)[r - 1]``, each block sorted, blocks by smallest element."""
    s = s_chi(chi)
    return tuple(sorted(tuple(sorted(s[x - 1] for x in b)) for b in nc))


def refines(fine, coarse):
    """True iff every block of ``fine`` lies inside one block of ``coarse``."""
    return all(any(set(b) <= set(c) for c in coarse) for b in fine)


@lru_cache(maxsize=None)
def mobius_top_table_by_positions(chi):
    """``(blocks, mu(sigma, 1))`` for each sigma of ``enumerate_bnc(chi)``: the
    per-length table with every partition relabelled to positions for this
    side word."""
    s = s_chi(chi)
    table = mobius_top_table(chi.n)
    # Relabel each distinct block once; disjoint blocks sort by first element.
    blocks = {b for sigma, _ in table for b in sigma}
    rel = {b: tuple(sorted(s[x - 1] for x in b)) for b in blocks}
    return tuple((tuple(sorted(rel[b] for b in sigma)), mu) for sigma, mu in table)


def scalar_top_cumulant_by_positions(F, word, chi):
    """Top cumulant of a word of generators over scalar coefficients, summed
    in position coordinates: every partition of the table relabelled for
    ``chi``, each term multiplied block by block in position order and cut
    short once it is exactly zero, block values cached per position
    subset."""
    phi_cache = {}

    def phi(block):
        v = phi_cache.get(block)
        if v is None:
            v = complex(F.expect(Monomial([word[k - 1] for k in block]))[0, 0])
            phi_cache[block] = v
        return v

    total = 0.0 + 0.0j
    for blocks, mu in mobius_top_table_by_positions(chi):
        term = mu
        for b in blocks:
            term *= phi(b)
            if term == 0:
                break
        total += term
    return total


def scalar_top_cumulant_table_loop(F, word, chi):
    """Top cumulant of a word of generators over scalar coefficients, one
    entry of ``mobius_top_table(n)`` after another: each NC block resolved
    to positions and read from ``F`` once per word, an entry left out at its
    first block whose value is exactly 0, and the others' block values
    multiplied into mu in order of smallest position."""
    s = s_chi(chi)
    # NC block -> (smallest position, value), or None when the value is 0.
    factor = {}
    total = 0.0 + 0.0j
    for sigma, mu in mobius_top_table(chi.n):
        for b in sigma:
            try:
                f = factor[b]
            except KeyError:
                pos = sorted(s[x - 1] for x in b)
                v = complex(F.expect(Monomial([word[k - 1] for k in pos]))[0, 0])
                f = factor[b] = (pos[0], v) if v != 0 else None
            if f is None:
                break
        else:
            term = mu
            for _, v in sorted(factor[b] for b in sigma):
                term *= v
            total += term
    return total


# --- product-entry expansion by nested scans ----------------------------------

def product_cumulant_expand_nested(F, chi_hat, group_sizes, operands):
    """``(lhs, rhs)`` of the product-entry expansion by nested scans.

    Each cumulant on either side is a full ``cumulant_pi`` scan, so every
    partition moment is evaluated again for each partition above it.  The
    sums run in the same order as ``product_cumulant_expand``'s.
    """
    ops = [as_monomial(z) for z in operands]
    chi_m = chi_of_groups(chi_hat, group_sizes)
    grouped = [_product(ops[a - 1:b - 1]) for a, b in group_offsets(group_sizes)]
    lhs = cumulant_pi(F, one_partition(chi_m), grouped)
    zero_hat = BncPartition([range(a, b) for a, b in group_offsets(group_sizes)], chi_hat)
    top = one_partition(chi_hat)
    rhs = np.zeros_like(lhs)
    for sigma in enumerate_bnc(chi_hat):
        if lattice_join(sigma, zero_hat) == top:
            rhs += cumulant_pi(F, sigma, ops)
    return lhs, rhs


# --- moment reduction in random order ---------------------------------------

def _is_union_of_blocks(blocks, subset):
    return all(set(b) <= subset or not (set(b) & subset) for b in blocks)


def _components(labels, blocks):
    """Finest splitting into chi-interval unions of blocks, in chi-order."""
    order, rank = _chi_ranks(labels)
    comps, cur, open_blocks = [], [], set()
    last = {id(b): max(rank[x] for x in b) for b in blocks}
    for r, pos in enumerate(order, start=1):
        cur.append(pos)
        b = next(bb for bb in blocks if pos in bb)
        open_blocks.add(id(b))
        if r == last[id(b)]:
            open_blocks.discard(id(b))
        if not open_blocks:
            comps.append(cur)
            cur = []
    return comps


def _eval_pi_random(F, labels, blocks, ops, rng):
    n = len(labels)
    if len(blocks) == 1:
        return F.expect(_product(ops))
    order, rank = _chi_ranks(labels)
    moves = []
    comps = _components(labels, blocks)
    if len(comps) > 1:
        moves.append(("split",))
    for a in range(2, n + 1):
        for b in range(a, n):
            V = [order[r - 1] for r in range(a, b + 1)]
            sV = set(V)
            if n in sV or not _is_union_of_blocks(blocks, sV):
                continue
            moves.append(("strip", a, b, "p"))
            moves.append(("strip", a, b, "q"))
    Vn = next(bb for bb in blocks if n in bb)
    ranks_V = sorted(rank[x] for x in Vn)
    if ranks_V[-1] - ranks_V[0] + 1 < n:
        moves.append(("hull",))
    move = moves[rng.integers(len(moves))]
    if move[0] == "split":
        out = np.eye(F.dim, dtype=complex)
        for comp in comps:
            out = out @ _eval_pi_random(F, *_restrict(labels, blocks, ops, comp), rng)
        return out
    if move[0] == "strip":
        _, a, b, side = move
        V = [order[r - 1] for r in range(a, b + 1)]
        sub = _eval_pi_random(F, *_restrict(labels, blocks, ops, V), rng)
        ops2 = list(ops)
        if side == "p":
            p = order[a - 2]
            if labels[p - 1] == LEFT:
                ops2[p - 1] = ops2[p - 1] * Lb(sub)
            else:
                ops2[p - 1] = Rb(sub) * ops2[p - 1]
        else:
            q = order[b]
            if labels[q - 1] == LEFT:
                ops2[q - 1] = Lb(sub) * ops2[q - 1]
            else:
                ops2[q - 1] = ops2[q - 1] * Rb(sub)
        comp = [x for x in range(1, n + 1) if x not in set(V)]
        return _eval_pi_random(F, *_restrict(labels, blocks, ops2, comp), rng)
    # hull
    hull = [order[r - 1] for r in range(ranks_V[0], ranks_V[-1] + 1)]
    sub = _eval_pi_random(F, *_restrict(labels, blocks, ops, hull), rng)
    comp = [x for x in range(1, n + 1) if x not in set(hull)]
    q = max(comp)
    ops2 = list(ops)
    ops2[q - 1] = ops2[q - 1] * (Lb(sub) if labels[q - 1] == LEFT else Rb(sub))
    return _eval_pi_random(F, *_restrict(labels, blocks, ops2, comp), rng)


def eval_moment_pi_random(F, pi, operands, rng):
    """Moment function at ``pi``, stripping admissible runs in random order.

    The value must agree with the deterministic reduction.
    """
    ops = [as_monomial(z) for z in operands]
    return _eval_pi_random(F, pi.chi.labels, pi.blocks, ops, rng)


# --- CP maps from their Kraus operators ---------------------------------------

def cp_by_kraus(eta, b):
    """eta(b) = sum_i V_i b V_i*, one Kraus operator at a time."""
    return sum(v @ b @ v.conj().T for v in eta.kraus)


def contract_by_kraus(eta, t, left):
    """b0 Z b1 ... -> eta(b0) b1 ... (mirrored on the right) for a d > 1
    component: the map applied Kraus operator by Kraus operator to the end
    slot, then the merged slot traced."""
    out = np.zeros_like(t)
    if left:
        for v in eta.kraus:
            out += np.einsum("ia,ab...,jb->ij...", v, t, v.conj())
        return np.einsum("iccj...->ij...", out)
    for v in eta.kraus:
        out += np.einsum("ia,...ac,jc->...ij", v, t, v.conj())
    return np.einsum("...iccj->...ij", out)


def choi_by_kron(eta):
    """C = sum_ij E_ij (x) eta(E_ij), with eta applied through its Kraus sum."""
    d = eta.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for e in matrix_units(d):
        c += np.kron(e, cp_by_kraus(eta, e))
    return c


def is_trace_symmetric_by_kraus(eta):
    """The map equals its trace adjoint b -> sum_i V_i* b V_i on every matrix
    unit, within 1e-12 times the larger of 1 and its largest entry there."""
    fwd = sum(np.einsum("pi,qj->ijpq", v, v.conj()) for v in eta.kraus)
    adj = sum(np.einsum("ip,jq->ijpq", v.conj(), v) for v in eta.kraus)
    return bool(np.max(np.abs(fwd - adj)) <= 1e-12 * max(1.0, np.max(np.abs(fwd))))


# --- Fock action, one elementary factor at a time ----------------------------

def _apply_factor(model, kind, arg, vec, keep):
    d = model.dim
    eye = np.eye(d, dtype=complex)
    out = {}
    for ks, t in vec.terms.items():
        m = len(ks)
        if kind in ("l", "r"):
            if m + 1 > keep:
                continue
            nk = (arg,) + ks if kind == "l" else ks + (arg,)
            if d == 1:
                x = t
            else:
                x = np.multiply.outer(eye, t) if kind == "l" else np.multiply.outer(t, eye)
        elif kind in ("l*", "r*"):
            if not ks or m - 1 > keep or (ks[0] if kind == "l*" else ks[-1]) != arg:
                continue
            nk = ks[1:] if kind == "l*" else ks[:-1]
            eta = model.covariances[arg]
            if d == 1:
                x = complex(eta(np.eye(1))[0, 0]) * t
            elif kind == "l*":
                x = np.einsum("icab,abcj...->ij...", eta.kernel, t)
            else:
                x = np.einsum("...icab,cjab->...ij", t, eta.kernel)
        else:
            if m > keep:
                continue
            nk = ks
            if d == 1:
                x = complex(arg[0, 0]) * t
            elif kind == "Lb":
                x = np.einsum("ia,aj...->ij...", arg, t)
            else:
                x = np.einsum("...ia,aj->...ij", t, arg)
        out[nk] = x
    return {ks: x for ks, x in out.items() if np.max(np.abs(x)) > 0}


def apply_symbol_by_factors(model, f, vec, keep_depth=None):
    """A factor's action on ``vec``: for a symbol, the sum over its action
    terms (c, factor) of c times the factor applied on its own, summed
    factor by factor; zero components are dropped after every factor."""
    keep = math.inf if keep_depth is None else keep_depth
    if isinstance(f, BCoeff):
        action = [(None, ("Lb" if f.side == LEFT else "Rb", f.matrix))]
    else:
        action = model.symbol_actions[f]
    terms = {}
    for c, (kind, arg) in action:
        for ks, x in _apply_factor(model, kind, arg, vec, keep).items():
            y = x if c is None else c * x
            cur = terms.get(ks)
            terms[ks] = y if cur is None else cur + y
    out = FockVector(model.dim)
    out.terms = {ks: x for ks, x in terms.items() if np.max(np.abs(x)) > 0}
    return out


def vacuum_expectation(model):
    """A Fock model's vacuum expectation that keeps nothing between words:
    each word is applied to the vacuum, one factor at a time."""

    def expect(word):
        return model.apply_word(word, FockVector.vacuum(model.dim), keep_depth=0).depth0()

    return expect


def word_norm_sq(model, word):
    """Squared GNS norm of an operator word of a Fock model, through the
    trace: tau(w* w)."""
    word = as_monomial(word)
    full = word.adjoint() * word
    return float((np.trace(vacuum_expectation(model)(full)) / model.dim).real)


def inner_B_by_einsum(model, u, v):
    """<u, v>_B of a d > 1 Fock model as one einsum per common index
    sequence k1..km: conj(v), u and the kernels of eta_{k1}, ..., eta_{km}
    are contracted together, with the path left to ``optimize``."""
    total = np.zeros((model.dim, model.dim), dtype=complex)
    for ks, tu in u.terms.items():
        if ks not in v.terms:
            continue
        m = len(ks)
        # Labels: the shared row c of slot 0; u's and v's (row i, column j)
        # of every slot; the kernel of slot t couples (v_t i, u_t i,
        # v_{t-1} j, u_{t-1} j); the output is (v_m j, u_m j).
        labels = iter(range(4 * m + 3))
        c = next(labels)
        uj = [next(labels) for _ in range(m + 1)]
        vj = [next(labels) for _ in range(m + 1)]
        ui = [c] + [next(labels) for _ in range(m)]
        vi = [c] + [next(labels) for _ in range(m)]
        operands = [tu, [x for t in range(m + 1) for x in (ui[t], uj[t])],
                    v.terms[ks].conj(), [x for t in range(m + 1) for x in (vi[t], vj[t])]]
        for t, k in enumerate(ks, start=1):
            operands += [model.covariances[k].kernel, [vi[t], ui[t], vj[t - 1], uj[t - 1]]]
        total += np.einsum(*operands, [vj[m], uj[m]], optimize=True)
    return total


# --- matrix lift in two phases -------------------------------------------------

def _lift_entry_options(tables, factor, i, j):
    """The ``(coeff, base_word)`` terms of a factor's ``(i, j)`` entry."""
    if isinstance(factor, BCoeff):
        m = factor.matrix
        if m.shape[0] == 1:
            v = complex(m[0, 0])
            return ((v, ()),) if (i == j and v != 0) else ()
        v = complex(m[i - 1, j - 1])
        return ((v, ()),) if v != 0 else ()
    return tables[factor].get((i, j), ())


def lift_expect_two_phase(tables, d, base, word):
    """Expectation matrix of a word in a d x d lift over the scalar moment
    functional ``base``, in two phases.

    ``tables`` maps each lifted generator to its entries: 1-based ``(i, j)``
    to a tuple of ``(coeff, base_word)`` terms.  A coefficient factor is
    d x d, or 1 x 1 for a multiple of the identity.  First every index chain
    with non-empty entries is found in chi-order; then, for each chain, every
    factor's entry options are resolved again in position order and expanded
    into base words: the coefficient product starts from ``1+0j``, and each
    chain adds ``0j`` plus its terms to the entry (start, end).
    """
    factors = as_monomial(word).factors
    n = len(factors)
    if n == 0:
        return np.eye(d, dtype=complex)
    out = np.zeros((d, d), dtype=complex)
    order = s_chi(ChiWord([f.side for f in factors]))
    rank_of = {pos: t for t, pos in enumerate(order, start=1)}

    def accumulate(chain):
        options = [
            _lift_entry_options(tables, factors[k - 1], chain[rank_of[k] - 1], chain[rank_of[k]])
            for k in range(1, n + 1)
        ]
        total = 0.0 + 0.0j

        def expand(k, coeff, word_acc):
            nonlocal total
            if k == n:
                total += coeff * base.tau(Monomial(word_acc))
                return
            for c, w in options[k]:
                expand(k + 1, coeff * c, word_acc + w)

        expand(0, 1.0 + 0.0j, ())
        out[chain[0] - 1, chain[-1] - 1] += total

    def descend(t, chain):
        if t == n:
            accumulate(chain)
            return
        for a in range(1, d + 1):
            if _lift_entry_options(tables, factors[order[t] - 1], chain[t], a):
                descend(t + 1, chain + [a])

    for a0 in range(1, d + 1):
        descend(0, [a0])
    return out


def adjoint_table(table):
    """The entries of a lifted generator's adjoint: the table transposed, each
    coefficient conjugated and each base word reversed and starred."""
    return {
        (j, i): tuple((c.conjugate(), tuple(g.star() for g in reversed(w))) for c, w in terms)
        for (i, j), terms in table.items()
    }


def off_diagonal_tables(lift, x, y):
    """The tables of a ``MatrixLift`` of the pair ``x``, ``y``, written out
    for ``lift_expect_two_phase``: X = [[0, x], [x*, 0]] and
    Y = [[0, y], [y*, 0]], and their adjoints."""
    tables = {}
    for Z, z in ((lift.X, x), (lift.Y, y)):
        tables[Z] = {(1, 2): ((1.0 + 0.0j, (z,)),), (2, 1): ((1.0 + 0.0j, (z.star(),)),)}
        tables[Z.star()] = adjoint_table(tables[Z])
    return tables


# --- the circular-pair symbols, written out ------------------------------------

_R = 1.0 / math.sqrt(2.0)

# The symbols that ``make_circular_pair(2)`` registers after its eight
# semicircular generators, in registration order: (name, side, adjoint,
# family, action).  Each circular element is (S1 + i S2)/sqrt(2) on the left
# and (D1 + i D2)/sqrt(2) on the right, its adjoint the same with -i; the
# second pair is built from S3, S4, D3 and D4.
CIRCULAR_PAIRS_2 = (
    ("cl", "l", False, "c1",
     ((_R, ("l", "S1")), (_R, ("l*", "S1")), (1j * _R, ("l", "S2")), (1j * _R, ("l*", "S2")))),
    ("cl", "l", True, "c1",
     ((_R, ("l", "S1")), (_R, ("l*", "S1")), (-1j * _R, ("l", "S2")), (-1j * _R, ("l*", "S2")))),
    ("cr", "r", False, "c1",
     ((_R, ("r", "D1")), (_R, ("r*", "D1")), (1j * _R, ("r", "D2")), (1j * _R, ("r*", "D2")))),
    ("cr", "r", True, "c1",
     ((_R, ("r", "D1")), (_R, ("r*", "D1")), (-1j * _R, ("r", "D2")), (-1j * _R, ("r*", "D2")))),
    ("cl2", "l", False, "c2",
     ((_R, ("l", "S3")), (_R, ("l*", "S3")), (1j * _R, ("l", "S4")), (1j * _R, ("l*", "S4")))),
    ("cl2", "l", True, "c2",
     ((_R, ("l", "S3")), (_R, ("l*", "S3")), (-1j * _R, ("l", "S4")), (-1j * _R, ("l*", "S4")))),
    ("cr2", "r", False, "c2",
     ((_R, ("r", "D3")), (_R, ("r*", "D3")), (1j * _R, ("r", "D4")), (1j * _R, ("r*", "D4")))),
    ("cr2", "r", True, "c2",
     ((_R, ("r", "D3")), (_R, ("r*", "D3")), (-1j * _R, ("r", "D4")), (-1j * _R, ("r*", "D4")))),
)


def circular_letters(model, n_pairs=1):
    """A circular-pair model's elements and their adjoints, pair by pair:
    cl, cl*, cr, cr*, then cl2, cl2*, cr2, cr2*, and so on."""
    letters = []
    for p in range(n_pairs):
        tag = "" if p == 0 else str(p + 1)
        for name in (f"cl{tag}", f"cr{tag}"):
            s = model.symbol(name)
            letters += [s, s.star()]
    return letters


# --- conjugate relations, one word at a time -------------------------------------

def circular_presence(z, w):
    """The generators present beside each of ``circular_candidates``'
    targets z, z*, w and w*, written out by hand: left ones, then right ones."""
    zs, ws = z.star(), w.star()
    return [(zs, w, ws), (z, w, ws), (z, zs, ws), (z, zs, w)]


def lifted_presence(cands):
    """The generator present beside each lifted carrier: the other one."""
    X, Y = (c.target for c in cands)
    return [(Y,), (X,)]


def conjugate_rhs(word, target, eta, F):
    """Right-hand side of the conjugate relation tested against ``word``.

    Sum over the occurrences of ``target``: remove it, average the same-side
    tail after it through ``eta`` and splice that back in as a coefficient.
    """
    coeff = Lb if target.side == LEFT else Rb
    total = 0.0 + 0.0j
    n = len(word)
    for k in range(n):
        if word[k] != target:
            continue
        tail = [m for m in range(k + 1, n) if word[m].side == target.side]
        inner = eta(F.expect(Monomial([word[m] for m in tail])))
        rest = [word[m] for m in range(n) if m != k and m not in tail]
        total += F.tau(Monomial(rest) * coeff(inner))
    return total


def full_walk_residual(xi, eta, others, F, max_n):
    """Conjugate residual of a candidate over every test word.

    Visits every word of up to ``max_n`` letters, with no two words merged
    as one operator, applies each letter to its parent word's full state
    (no depth budget) and rebuilds each right-hand side from its word alone.
    """
    target = xi.target
    alphabet = [target, *others]
    if F.dim > 1:
        for e in matrix_units(F.dim):
            alphabet += [Lb(e), Rb(e)]
    worst = 0.0

    def walk(word, state, depth):
        nonlocal worst
        worst = max(worst, abs(xi.tau(state) - conjugate_rhs(word, target, eta, F)))
        if depth == max_n:
            return
        for f in alphabet:
            walk((f,) + word, xi.extend(f, state), depth + 1)

    walk((), xi.initial_state(), 0)
    return worst


def is_lex_normal_form(word, alphabet, independent):
    """Whether ``word`` is the least word of its commutation class.

    The class is every word reached by swapping adjacent letters that
    ``independent`` says commute, found by closing the word under such
    swaps; words compare letter by letter from the left, and letters by
    their place in ``alphabet``.
    """
    rank = {f: i for i, f in enumerate(alphabet)}
    start = tuple(rank[f] for f in word)
    seen, todo = {start}, [start]
    while todo:
        w = todo.pop()
        for k in range(len(w) - 1):
            if independent(alphabet[w[k]], alphabet[w[k + 1]]):
                v = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return start == min(seen)


def solve_conjugate_bfs(model, target, eta, others, max_n=4, basis_len=3):
    """Least-squares conjugate candidate with breadth-first test words.

    Each row applies its test word to each basis vector from the vacuum, and
    each right-hand side comes from ``conjugate_rhs``.  The test words carry
    no coefficient insertions, so this agrees with the package's solver at
    d = 1 only.
    """
    F = MomentFunctional(vacuum_expectation(model), model.dim)
    alphabet = [target, *others]
    basis_words = [()]
    frontier = [()]
    for _ in range(basis_len):
        frontier = [w + (f,) for w in frontier for f in alphabet]
        basis_words.extend(frontier)
    basis = [model.vector_of(Monomial(w)) for w in basis_words]

    test_words = [()]
    frontier = [()]
    for _ in range(max_n):
        frontier = [(f,) + w for w in frontier for f in alphabet]
        test_words.extend(frontier)

    rows = [
        [
            complex(np.trace(model.apply_word(Monomial(w), v, keep_depth=0).depth0()))
            / model.dim
            for v in basis
        ]
        for w in test_words
    ]
    rhs_vec = [conjugate_rhs(w, target, eta, F) for w in test_words]
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs_vec), rcond=None)
    vec = FockVector(model.dim)
    for c, v in zip(sol, basis):
        vec = vec + v.scaled(c)
    return VectorCandidate(target, vec.prune(1e-14), model)
