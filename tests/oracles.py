"""Slow, obviously correct versions of fast library routines, kept here as
test oracles so that the runtime modules carry only the fast paths."""

from itertools import combinations
from typing import Any, Iterable, Optional

from loopbetti.homology import BettiTable, kunneth, table_from_dict
from loopbetti.pinched import Composition
from loopbetti.simplicial import (
    FiniteSimplicialSet,
    Involution,
    PointedSubset,
    SimplexRef,
    SimplicialMap,
    ValidationError,
)


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


def find_section_backtracking(
    space: FiniteSimplicialSet, invol: Involution
) -> Optional[PointedSubset]:
    """Search for a simplicial section of the orbit projection by
    backtracking, one recursion frame per free orbit (small inputs only).

    Orbits are processed by increasing dimension (faces only constrain
    lower dimensions); within a dimension forced orbits are propagated
    before branching, and the search backtracks across dimensions.
    """
    space_top = space.top_dim()
    chosen: dict[frozenset, Any] = {}
    fixed_sets = {n: set(invol.fixed(n)) for n in range(space_top + 1)}

    def orbit_id(key: Any) -> frozenset:
        return frozenset((key, invol(key)))

    def consistent(n: int, key: Any) -> bool:
        if n == 0:
            return True
        ref = SimplexRef(n, key, ())
        for i in range(n + 1):
            base = space.face_of(ref, i).base
            base_dim = space.dim_of(base)
            if base in fixed_sets[base_dim]:
                continue
            if chosen.get(orbit_id(base)) != base:
                return False
        return True

    orbits_by_dim: dict[int, list[tuple[Any, Any]]] = {}
    for n in range(space_top + 1):
        seen = set()
        level = []
        for key in space.nondeg(n):
            other = invol(key)
            if other == key or key in seen:
                continue
            seen.add(key)
            seen.add(other)
            level.append((key, other))
        orbits_by_dim[n] = level

    def solve(n: int, pending: list[tuple[Any, Any]]) -> bool:
        while True:
            if not pending:
                if n == space_top:
                    return True
                return solve(n + 1, list(orbits_by_dim[n + 1]))
            # propagate forced orbits before branching
            forced_index = None
            for idx, (a, b) in enumerate(pending):
                options = [x for x in (a, b) if consistent(n, x)]
                if not options:
                    return False
                if len(options) == 1:
                    forced_index = (idx, options[0])
                    break
            if forced_index is not None:
                idx, value = forced_index
                a, b = pending[idx]
                chosen[frozenset((a, b))] = value
                rest = pending[:idx] + pending[idx + 1 :]
                if solve(n, rest):
                    return True
                del chosen[frozenset((a, b))]
                return False
            a, b = pending[0]
            rest = pending[1:]
            for value in (a, b):
                chosen[frozenset((a, b))] = value
                if solve(n, rest):
                    return True
            del chosen[frozenset((a, b))]
            return False

    if not solve(0, list(orbits_by_dim[0])):
        return None
    members = {
        n: list(fixed_sets[n])
        + [v for orbit, v in chosen.items() if space.dim_of(v) == n]
        for n in range(space_top + 1)
    }
    return PointedSubset(space, members, check=True)


def section_map(
    orbit: FiniteSimplicialSet,
    space: FiniteSimplicialSet,
    section: PointedSubset,
    invol: Involution,
) -> SimplicialMap:
    """The simplicial map orbit space -> space induced by a section witness."""
    mapping: dict[int, dict[Any, SimplexRef]] = {}
    for n in range(orbit.top_dim() + 1):
        level = {}
        for key in orbit.nondeg(n):
            value = key if section.contains_key(n, key) else invol(key)
            level[key] = SimplexRef(n, value, ())
        mapping[n] = level
    return SimplicialMap(orbit, space, mapping)
