"""Slow, obviously correct versions of fast library routines, kept here as
test oracles so that the runtime modules carry only the fast paths."""

from itertools import combinations
from typing import Iterable

from loopbetti.homology import BettiTable, kunneth, table_from_dict
from loopbetti.pinched import Composition
from loopbetti.simplicial import ValidationError


def compositions_of(total: int) -> list[Composition]:
    """All compositions of a nonnegative integer (2^(total-1) of them)."""
    if total == 0:
        return [Composition(())]
    out = []
    for first in range(1, total + 1):
        for rest in compositions_of(total - first):
            out.append(Composition((first,) + rest.parts))
    return out


def intersection_to_composition(cover_index: Iterable[int], s: int) -> Composition:
    """The composition of s whose blockwise piece equals a cover intersection.

    Each j in the index merges positions j and j+1; transitively linked
    positions collapse into single blocks, so the result has s - #index
    parts.
    """
    index = frozenset(cover_index)
    if any(not 1 <= j <= s - 1 for j in index):
        raise ValidationError(f"cover index {sorted(index)} outside 1..{s - 1}")
    parts = []
    run = 1
    for j in range(1, s):
        if j in index:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return Composition(tuple(parts))


def composition_betti(
    alpha: Composition, betti_q: BettiTable, betti_a: BettiTable
) -> BettiTable:
    """Betti table of a blockwise piece: the smash of one fixed-set factor
    per block of size >= 2 and one orbit-space factor per singleton block."""
    table = table_from_dict({0: 1})  # empty smash = the zero-sphere
    for part in alpha:
        table = kunneth(table, betti_q if part == 1 else betti_a)
    return table


def cover_sum_by_intersections(
    betti_q: BettiTable, betti_a: BettiTable, s: int, t_max: int
) -> list[int]:
    """The cover sum for t = 0..t_max, walking all 2^(s-1) - 1 nonempty
    intersections: b_t = sum over p-fold intersections of b_(t-p+1)."""
    totals = [0] * (t_max + 1)
    for p in range(1, s):
        for index in combinations(range(1, s), p):
            table = composition_betti(intersection_to_composition(index, s), betti_q, betti_a)
            for t in range(max(p - 1, 0), t_max + 1):
                totals[t] += table[t - p + 1]
    return totals


def kunneth_certified_by_scan(a: BettiTable, b: BettiTable) -> int:
    """The certified range of a Kunneth product by scanning every split
    p + q = n of every degree n up to the scan cap."""
    zero_from = None
    if a.zero_from is not None and b.zero_from is not None:
        zero_from = max(a.zero_from + b.zero_from - 1, 0)
    certified = -1
    scan_cap = max(a.certified + b.certified + 2, zero_from if zero_from is not None else 0)
    for n in range(scan_cap + 1):
        for p in range(n + 1):
            q = n - p
            if a.covers(p) and b.covers(q):
                continue
            if a.covers(p) and a[p] == 0:
                continue
            if b.covers(q) and b[q] == 0:
                continue
            return certified
        certified = n
    return certified


def count_by_enumeration(space, top: int) -> int:
    """Nondegenerate simplices of a space through ``top``, one by one."""
    top = min(top, space.top_dim(), space.truncation)
    return sum(1 for n in range(top + 1) for _ in space.iter_nondeg(n))
