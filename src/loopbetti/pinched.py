"""Pinched subsets of smash powers and their homology.

Inside the s-fold smash power of the orbit space Q sits the pinched subset:
tuples with some adjacent pair of components equal and lying in the fixed
subset A.  This module enumerates that subset on integer tables, one depth
first pass per dimension, and computes its homology by brute force on the
same tables; the complement of that search gives the cells of the quotient
of the smash power by the subset, whose homology one shared kernel computes
on the same tables.  It also evaluates the cover-intersection Betti sum, which
gives the pinched homology when the reduced diagonal of A is homologous to
zero.  The paper's other constructions of the subset (blockwise pieces
indexed by compositions, their intersections, their union and the two-term
recursion) are checked against this one in the test suite and run nowhere
else.
"""

from __future__ import annotations

import weakref
from itertools import compress, repeat
from operator import and_, is_, not_
from typing import Callable, Iterator, Optional

from .constructions import TupleSpace, reduced_diagonal, smash_power
from .homology import (
    BettiTable,
    UncertifiedRangeError,
    boundary_ranks,
    check_squares_to_zero,
    is_homologous_zero,
    reduced_betti,
)
from .simplicial import (
    PointedSubset,
    SimplexRef,
    SimplicialSet,
    ValidationError,
    basepoint_subset,
)


class HypothesisError(ValueError):
    """A construction was asked to run with its hypothesis violated."""


# ---------------------------------------------------------------------------
# Size bounds and ambient handling.
# ---------------------------------------------------------------------------

def pinched_top_bound(q: SimplicialSet, fixed: PointedSubset, s: int) -> int:
    """No pinched member exists above this dimension.

    A nondegenerate tuple at dimension n must have its component word
    complements cover {0..n-1}; the witness pair shares one word, so at most
    top(A) + (s-2) * top(Q) indices are covered.
    """
    if s <= 1:
        return 0
    return fixed.top_dim() + (s - 2) * q.top_dim()


def _ambient_for(
    q: SimplicialSet, s: int, truncation: Optional[int], ambient: Optional[TupleSpace]
) -> TupleSpace:
    if ambient is not None:
        if len(ambient.factors) != s or not ambient.smash:
            raise ValidationError("supplied ambient is not the s-fold smash power")
        return ambient
    trunc = q.truncation if truncation is None else truncation
    return smash_power(q, s, trunc)


def _check_fixed_subset(q: SimplicialSet, fixed: PointedSubset) -> None:
    if fixed.ambient is not q:
        raise ValidationError("the fixed subset does not live in the given space")


# ---------------------------------------------------------------------------
# The adjacent-pair enumeration on integers.
# ---------------------------------------------------------------------------

class _FactorTables:
    """The factor of a smash power encoded as integers, per ambient
    dimension n = 0..top.

    Component i at dimension n stands for ``refs[n][i]``, a simplex of the
    factor (degenerate ones included; basepoint-based ones left out, since
    they collapse the smash).  ``masks[n][i]`` is its degeneracy word as a
    bitmask and ``fixed[n][i]`` whether it lies in the fixed set.
    ``faces[n][k][i]`` is the index at n - 1 of face k of component i, or
    the basepoint marker ``len(refs[n - 1])``, whose mask ``masks[n - 1][-1]``
    is -1 (every bit), so that it never makes a face look nondegenerate.
    ``groups[n]`` and ``fixed_groups[n]`` bucket the components, all or
    only the fixed ones, by mask.
    """

    def __init__(self, q: SimplicialSet, fixed: PointedSubset, top: int):
        self.top_q = q.top_dim()
        self.refs: list[list[SimplexRef]] = []
        self.masks: list[list[int]] = []
        self.fixed: list[list[bool]] = []
        self.faces: list[list[list[int]]] = []
        self.groups: list[list[tuple[int, list[int]]]] = []
        self.fixed_groups: list[list[tuple[int, list[int]]]] = []
        index: dict[SimplexRef, int] = {}
        for n in range(top + 1):
            refs = q.refs_at(n, include_basepoint=False)
            marker = len(index)
            self.faces.append([
                [
                    marker if q.is_basepoint_ref(face) else index[face]
                    for face in (q.face_of(r, k) for r in refs)
                ]
                for k in range(n + 1 if n else 0)
            ])
            index = {r: i for i, r in enumerate(refs)}
            masks = [sum(1 << w for w in r.word) for r in refs]
            flags = [fixed.contains_ref(r) for r in refs]
            by_mask: dict[int, list[int]] = {}
            for i, mask in enumerate(masks):
                by_mask.setdefault(mask, []).append(i)
            self.refs.append(refs)
            self.masks.append(masks + [-1])
            self.fixed.append(flags)
            self.groups.append(list(by_mask.items()))
            self.fixed_groups.append([
                (mask, kept)
                for mask, members in by_mask.items()
                if (kept := [i for i in members if flags[i]])
            ])


def _pinched_cells(tables: _FactorTables, s: int, n: int) -> list[tuple[int, ...]]:
    """The nondegenerate pinched s-tuples at ambient dimension n (s >= 2),
    as tuples of component indices.

    Depth first over the slots, keeping the common degeneracy word, which
    must end empty.  A component with base dimension p clears at most
    p <= top(Q) bits of it, and none when it repeats the slot before.
    Until a witness (an adjacent equal fixed pair) exists, one slot still
    to come must repeat its predecessor, so the slots left clear top(Q)
    fewer bits, and the slot before the last takes only fixed components.
    """
    masks, fixed = tables.masks[n], tables.fixed[n]
    groups, fixed_groups = tables.groups[n], tables.fixed_groups[n]
    top_q = tables.top_q
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], common: int, witness: bool) -> None:
        rem = s - len(prefix)
        prev = prefix[-1]
        if rem == 1:
            if witness:
                for mask, members in groups:
                    if not common & mask:
                        out.extend([prefix + (i,) for i in members])
            elif not common:
                out.append(prefix + (prev,))  # prev is fixed
            return
        cap = (rem - 1) * top_q  # the most the slots after this one clear
        if witness:
            for mask, members in groups:
                inter = common & mask
                if inter.bit_count() <= cap:
                    for i in members:
                        extend(prefix + (i,), inter, True)
            return
        witness_mask = masks[prev] if fixed[prev] else None
        for mask, members in fixed_groups if rem == 2 else groups:
            inter = common & mask
            bits = inter.bit_count()
            if bits <= cap - top_q:
                for i in members:
                    extend(prefix + (i,), inter, i == prev and fixed[i])
            elif bits <= cap and mask == witness_mask:
                extend(prefix + (prev,), inter, True)

    for mask, members in fixed_groups if s == 2 else groups:
        if mask.bit_count() <= (s - 2) * top_q:
            for i in members:
                extend((i,), mask, False)
    return out


def _quotient_cells(tables: _FactorTables, s: int, n: int) -> list[tuple[int, ...]]:
    """The cells of the smash power modulo the pinched subset at ambient
    dimension n (s >= 2) other than the basepoint: the nondegenerate
    s-tuples with no adjacent equal fixed pair, as tuples of component
    indices.

    The complement of the witness branch of ``_pinched_cells``: depth first
    over the slots with the same cap on the common degeneracy word, and a
    slot never repeats a fixed predecessor.
    """
    fixed, groups = tables.fixed[n], tables.groups[n]
    top_q = tables.top_q
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], common: int) -> None:
        rem = s - len(prefix)
        prev = prefix[-1]
        skip = prev if fixed[prev] else -1
        if rem == 1:
            for mask, members in groups:
                if not common & mask:
                    out.extend([prefix + (i,) for i in members if i != skip])
            return
        cap = (rem - 1) * top_q  # the most the slots after this one clear
        for mask, members in groups:
            inter = common & mask
            if inter.bit_count() <= cap:
                for i in members:
                    if i != skip:
                        extend(prefix + (i,), inter)

    for mask, members in groups:
        if mask.bit_count() <= (s - 1) * top_q:
            for i in members:
                extend((i,), mask)
    return out


def _is_pinched(cell: tuple[int, ...], fixed: list[bool]) -> bool:
    return any(a == b and fixed[a] for a, b in zip(cell, cell[1:]))


def _boundary_columns(
    tables: _FactorTables,
    cells: list[tuple[int, ...]],
    lower: dict[tuple[int, ...], int],
    n: int,
    relative: bool = False,
) -> list[tuple[int, ...]]:
    """Columns of the boundary from degree n: for each cell, the indices in
    ``lower`` (the cells at n - 1) of its faces that occur an odd number of
    times.

    Face k of every cell is computed at once, slot by slot, from the face
    table.  A face missing from ``lower`` must be the basepoint or
    degenerate (its component words share an index), or, for the chains
    relative to the pinched subset (``relative``), pinched; any other miss
    means the cells are not closed under faces and raises ValidationError.
    """
    slots = list(zip(*cells))
    masks, fixed = tables.masks[n - 1], tables.fixed[n - 1]
    marker = len(masks) - 1
    rows_by_face = []
    for k, face_k in enumerate(tables.faces[n]):
        comps = [list(map(face_k.__getitem__, slot)) for slot in slots]
        faces = list(zip(*comps))
        rows = list(map(lower.get, faces))
        if None in rows:
            common: Iterator[int] = map(masks.__getitem__, comps[0])
            for comp in comps[1:]:
                common = map(and_, common, map(masks.__getitem__, comp))
            # the missed faces with no shared word index must be the basepoint
            # or, relative to the pinched subset, pinched
            missed = map(is_, rows, repeat(None))
            for face in compress(faces, map(and_, missed, map(not_, common))):
                if marker not in face and not (relative and _is_pinched(face, fixed)):
                    raise ValidationError(
                        f"cells are not face-closed: face {k} of a {n}-cell is missing"
                    )
        rows_by_face.append(rows)
    columns = []
    for entries in zip(*rows_by_face):
        col = set(entries)
        col.discard(None)
        if len(col) != len(entries) - entries.count(None):
            col = {r for r in col if entries.count(r) % 2}
        columns.append(tuple(col))
    return columns


def pinched_set(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    truncation: Optional[int] = None,
    ambient: Optional[TupleSpace] = None,
) -> PointedSubset:
    """The pinched subset of the s-fold smash power: tuples with an adjacent
    equal pair of fixed components.  For s <= 1 it is the basepoint."""
    _check_fixed_subset(q, fixed)
    if s <= 1:
        from .fixtures import point  # deferred: fixtures is a leaf module

        space = point() if s == 0 else _ambient_for(q, 1, truncation, ambient)
        return basepoint_subset(space)
    amb = _ambient_for(q, s, truncation, ambient)
    bound = pinched_top_bound(q, fixed, s)
    trunc = amb.truncation if truncation is None else min(truncation, amb.truncation)
    tables = _FactorTables(q, fixed, min(trunc, bound))
    members = {
        n: [tuple(map(refs.__getitem__, cell)) for cell in _pinched_cells(tables, s, n)]
        for n, refs in enumerate(tables.refs)
    }
    return PointedSubset(amb, members, truncation=trunc, top_bound=bound, check=False)


# ---------------------------------------------------------------------------
# The cover-intersection Betti sum.
# ---------------------------------------------------------------------------

# answers of check_diagonal_null, so that a run checks the hypothesis once
# and every later cover sum over the same fixed subset reuses the answer.
# The answer is a function of the subset alone, which is immutable, and the
# weak keys drop it with the subset, so no caller can see another's state.
_DIAGONAL_NULL: "weakref.WeakKeyDictionary[PointedSubset, bool]" = weakref.WeakKeyDictionary()


def check_diagonal_null(fixed: PointedSubset) -> bool:
    """Whether the reduced diagonal of the fixed set is homologous to zero.

    Checked through the top dimension of the fixed set, which certifies
    every degree since the source homology vanishes above it.  The chains
    of the smash square that this reads stop at min(top + 1, 2 top), so
    that is the truncation requested.
    """
    top = fixed.top_dim()
    diag = reduced_diagonal(fixed, truncation=min(top + 1, 2 * top))
    null = is_homologous_zero(diag, top)
    _DIAGONAL_NULL[fixed] = null
    return null


def _diagonal_null(fixed: PointedSubset) -> bool:
    known = _DIAGONAL_NULL.get(fixed)
    return check_diagonal_null(fixed) if known is None else known


def _times(poly: list[int], factor: list[tuple[int, int]]) -> list[int]:
    """Product of a dense polynomial with a sparse one, truncated to the
    length of the dense one."""
    cap = len(poly) - 1
    out = [0] * (cap + 1)
    for d, c in enumerate(poly):
        if c:
            for e, v in factor:
                if d + e > cap:
                    break
                out[d + e] += c * v
    return out


def mv_e1_table(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    t_max: int,
    betti_q: Optional[BettiTable] = None,
    betti_a: Optional[BettiTable] = None,
) -> list[int]:
    """Pinched Betti numbers for t = 0..t_max as sums over nonempty cover
    intersections.

    Requires the reduced diagonal of the fixed set to be homologous to zero
    (always checked): then the double complex of the blockwise cover
    degenerates and the t-th Betti number of the pinched subset is the sum
    of b_q over intersections of p cover pieces with p + q - 1 = t.

    An intersection of p pieces merges p of the s - 1 gaps between
    positions; its Betti polynomial is the product of Q(x) per singleton
    block and A(x) per longer block (Kunneth), with Q and A the Betti
    polynomials of the orbit space and the fixed set.  So the sum is the
    coefficient of x^(t+1) in the sum over merge sets of x^p times that
    product, which a transfer matrix over the gaps evaluates (Stanley,
    Enumerative Combinatorics I, 4.7): four states, s - 1 steps on
    polynomials of degree t_max + 1, instead of 2^(s-1) - 1 intersections.
    Truncating a product never changes its lower coefficients, so one pass
    gives every t.
    """
    _check_fixed_subset(q, fixed)
    if s < 2:
        raise ValidationError("the cover sum needs s >= 2")
    if not _diagonal_null(fixed):
        raise HypothesisError(
            "the reduced diagonal of the fixed set is not homologous to zero, "
            "so the cover-intersection sum does not compute the pinched homology"
        )
    if betti_q is None:
        betti_q = reduced_betti(q, max(t_max, q.top_dim()))
    if betti_a is None:
        betti_a = reduced_betti(fixed, max(t_max, fixed.top_dim()))
    if t_max < 0:
        return []
    for table in (betti_q, betti_a):
        if not all(table.covers(n) for n in range(t_max + 1)):
            raise UncertifiedRangeError(f"input table not certified through dimension {t_max}")
    poly_q = list(betti_q.nonzero().items())
    poly_a = list(betti_a.nonzero().items())
    # state (open block is a singleton, some gap merged) -> the polynomial
    # of the closed blocks times x^(merges so far), truncated at x^(t_max+1)
    start = [0] * (t_max + 2)
    start[0] = 1
    states = {(True, False): start}
    for _gap in range(s - 1):
        nxt: dict[tuple[bool, bool], list[int]] = {}
        for (single, merged), poly in states.items():
            merge = [0] + poly[:-1]
            cut = _times(poly, poly_q if single else poly_a)
            for state, moved in (((False, True), merge), ((True, merged), cut)):
                have = nxt.get(state)
                nxt[state] = moved if have is None else [x + y for x, y in zip(have, moved)]
        states = nxt
    total = [0] * (t_max + 2)
    for (single, merged), poly in states.items():
        if merged:
            total = [x + y for x, y in zip(total, _times(poly, poly_q if single else poly_a))]
    return total[1:]


def mv_e1_betti(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    t: int,
    betti_q: Optional[BettiTable] = None,
    betti_a: Optional[BettiTable] = None,
) -> int:
    """The t-th pinched Betti number as a sum over nonempty cover
    intersections; see ``mv_e1_table``, whose checks it runs."""
    table = mv_e1_table(q, fixed, s, t, betti_q, betti_a)
    return table[t] if t >= 0 else 0


# ---------------------------------------------------------------------------
# Brute-force Betti tables on the integer tables.
# ---------------------------------------------------------------------------

def _table_betti(
    tables: _FactorTables,
    cells_at: Callable[[_FactorTables, int, int], list[tuple[int, ...]]],
    s: int,
    top: int,
    t_max: int,
    relative: bool = False,
) -> tuple[dict[int, int], list[int]]:
    """Betti numbers through min(t_max, top) of the chains whose n-cells are
    ``cells_at(tables, s, n)`` for n <= top, and the cell count per
    dimension.

    Cells per dimension, boundary columns from the tabulated faces (the
    face-closure and boundary-squares-to-zero checks stay on), ranks with
    clearing.  No ``SimplexRef`` tuple is built.
    """
    sizes = []
    boundaries: dict[int, list[tuple[int, ...]]] = {}
    lower: dict[tuple[int, ...], int] = {}
    for n in range(top + 1):
        cells = cells_at(tables, s, n)
        if n >= 1:
            boundaries[n] = _boundary_columns(tables, cells, lower, n, relative)
        if n >= 2:
            check_squares_to_zero(boundaries[n - 1], boundaries[n], n)
        lower = {cell: j for j, cell in enumerate(cells)}
        sizes.append(len(cells))
    del lower
    ranks = boundary_ranks(boundaries)
    entries = {
        n: sizes[n] - ranks.get(n, 0) - ranks.get(n + 1, 0)
        for n in range(min(t_max, top) + 1)
    }
    return entries, sizes


def pinched_betti_brute(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    t_max: int,
) -> BettiTable:
    """Brute-force Betti table of the pinched subset through t_max.

    Runs on the integer tables: the cells of each dimension come from the
    adjacent-pair enumeration.  The subset is enumerated only up to its
    structural top bound, so the table also certifies vanishing above it.
    """
    if s <= 1:
        return BettiTable({}, certified=t_max, zero_from=0)
    _check_fixed_subset(q, fixed)
    bound = pinched_top_bound(q, fixed, s)
    trunc = min(t_max + 1, bound)
    tables = _FactorTables(q, fixed, trunc)
    entries, _ = _table_betti(tables, _pinched_cells, s, trunc, t_max)
    return BettiTable(entries, certified=t_max, zero_from=bound + 1)


def quotient_betti_brute(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    n_max: int,
) -> BettiTable:
    """Brute-force Betti table of the s-fold smash power modulo its pinched
    subset through n_max (s >= 2).

    Runs on the integer tables: the cells of each dimension are the
    nondegenerate tuples outside the pinched subset, and a face that is the
    basepoint, degenerate or pinched is zero in the relative chains.  Cells
    are enumerated through min(n_max + 1, s top(Q)), which must not exceed
    the truncation of ``q``; the table certifies vanishing above the top
    dimension of the smash power, or above the last cell when every
    dimension up to that one was enumerated.
    """
    _check_fixed_subset(q, fixed)
    if s < 2:
        raise ValidationError("the integer quotient needs s >= 2")
    top = q.top_dim() * s
    trunc = min(n_max + 1, top)
    tables = _FactorTables(q, fixed, trunc)
    entries, sizes = _table_betti(tables, _quotient_cells, s, trunc, n_max, relative=True)
    if trunc < top:
        zero_from = top + 1
    else:
        zero_from = max((n for n, size in enumerate(sizes) if size), default=0) + 1
    return BettiTable(entries, certified=n_max, zero_from=zero_from)
