"""Test-only code: slow, obviously correct versions of fast library
routines, and the constructions of the paper that no run executes.

The runtime modules carry one implementation per job.  What only the tests
call lives here: the blockwise pieces of the pinched subset indexed by
compositions, their intersections, the union and inductive constructions
and the membership predicates behind them; the reduced diagonal into the
smash square and the ranks a map induces, from a cycle basis, which are
the reference for ``check_diagonal_null``, and the exact-sequence
bookkeeping on those ranks; dense views and products of sparse GF(2)
matrices, the d^2 check over every raw column and the columns an
elimination keeps; simplicial maps with their face check, the identity,
constant, inclusion and orbit maps and composites; the backtracking section
search; the factor tables through the word calculus, the reference for
the ones built from the dimension below; and the brute kernel on tuples
of component indices, the reference for the packed one.  Helpers
that only tests call, such as the member dimensions of a subset or the
recurrence check of a series, live here as functions as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, repeat
from operator import and_, is_, not_
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from loopbetti.closed_form import (
    betti_pinched_example,
    quotient_betti_concentrated,
)
from loopbetti.constructions import TupleSpace, smash_power
from loopbetti.homology import (
    BettiTable,
    ChainComplexGF2,
    GF2SparseMatrix,
    boundary_ranks,
    kunneth,
    reduce_columns,
    reduced_betti,
    table_from_dict,
    transpose,
)
from loopbetti.pinched import (
    _ambient_for,
    _check_fixed_subset,
    _FactorTables,
    pinched_set,
    pinched_top_bound,
)
from loopbetti.simplicial import (
    FiniteSimplicialSet,
    Involution,
    PointedSubset,
    SimplexRef,
    SimplicialSet,
    ValidationError,
)


# ---------------------------------------------------------------------------
# Compositions (multi-indices of positive integers).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composition:
    """An ordered sequence of positive integers; possibly empty.

    ``length`` is the sum of the parts and ``dim`` the number of parts.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValidationError("composition parts must be positive")

    @property
    def length(self) -> int:
        return sum(self.parts)

    @property
    def dim(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def cover_composition(j: int, s: int) -> Composition:
    """The composition (1, ..., 2, ..., 1) of s with the 2 in position j."""
    if not 1 <= j <= s - 1:
        raise ValidationError(f"cover index {j} outside 1..{s - 1}")
    return Composition((1,) * (j - 1) + (2,) + (1,) * (s - j - 1))


def blocks_of(alpha: Composition) -> list[tuple[int, int]]:
    """Half-open position ranges (0-based) of the blocks of a composition."""
    out = []
    start = 0
    for part in alpha:
        out.append((start, start + part))
        start += part
    return out


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
    """Nondegenerate simplices of a space through ``top``, enumerated."""
    top = min(top, space.top_dim(), space.truncation)
    return sum(len(space.nondeg(n)) for n in range(top + 1))


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


# ---------------------------------------------------------------------------
# Membership predicates on component tuples.  "A component lies in A" means
# the base of its canonical form is a member of A, so degeneracies of
# members count and every predicate is face-stable.
# ---------------------------------------------------------------------------

def adjacent_pair_predicate(fixed: PointedSubset) -> Callable[[Sequence[SimplexRef]], bool]:
    """Some adjacent pair of components is equal and lies in the fixed set."""

    def pred(comps: Sequence[SimplexRef]) -> bool:
        for a, b in zip(comps, comps[1:]):
            if a == b and fixed.contains_ref(a):
                return True
        return False

    return pred


def inductive_predicate(
    ambient_q: SimplicialSet, fixed: PointedSubset
) -> Callable[[Sequence[SimplexRef]], bool]:
    """The two-term recursion: pinched(s) holds when the last pair is equal
    and fixed, or the (s-1)-prefix is already pinched; a basepoint component
    collapses the whole tuple onto the basepoint, which always belongs."""

    def pred(comps: Sequence[SimplexRef]) -> bool:
        if any(ambient_q.is_basepoint_ref(c) for c in comps):
            return True
        if len(comps) <= 1:
            return False
        if comps[-2] == comps[-1] and fixed.contains_ref(comps[-1]):
            return True
        return pred(comps[:-1])

    return pred


def block_predicate(
    fixed: PointedSubset, alpha: Composition
) -> Callable[[Sequence[SimplexRef]], bool]:
    """Blocks of size >= 2 are constant and fixed; singleton blocks are free."""
    ranges = [r for r in blocks_of(alpha) if r[1] - r[0] >= 2]

    def pred(comps: Sequence[SimplexRef]) -> bool:
        for lo, hi in ranges:
            first = comps[lo]
            if not fixed.contains_ref(first):
                return False
            if any(comps[k] != first for k in range(lo + 1, hi)):
                return False
        return True

    return pred


def union_predicate(
    fixed: PointedSubset, s: int
) -> Callable[[Sequence[SimplexRef]], bool]:
    """Union of the blockwise pieces for the s-1 two-in-one-slot compositions."""
    preds = [block_predicate(fixed, cover_composition(j, s)) for j in range(1, s)]

    def pred(comps: Sequence[SimplexRef]) -> bool:
        return any(p(comps) for p in preds)

    return pred


# ---------------------------------------------------------------------------
# Blockwise pieces, their intersections, and the union and inductive
# constructions of the pinched subset.  The enumerators produce
# nondegenerate tuple keys (no basepoint components, empty common word
# intersection) per ambient dimension.
# ---------------------------------------------------------------------------

def alpha_top_bound(q: SimplicialSet, fixed: PointedSubset, alpha: Composition) -> int:
    """No blockwise member exists above this dimension: each block
    contributes one word complement."""
    return sum(q.top_dim() if part == 1 else fixed.top_dim() for part in alpha)


def _pool(ambient: TupleSpace, n: int):
    """Simplices of the factor at ambient dimension n with their word sets,
    the basepoint-based ones left out (they collapse the smash)."""
    return [(r, frozenset(r.word)) for r in ambient.factors[0].refs_at(n, include_basepoint=False)]


def _fixed_pool(ambient: TupleSpace, fixed: PointedSubset, n: int):
    return [(r, ws) for r, ws in _pool(ambient, n) if fixed.contains_ref(r)]


def _enum_blocks(
    ambient: TupleSpace, fixed: PointedSubset, alpha: Composition, n: int
) -> list[Any]:
    """DFS over blocks: constant fixed components on blocks of size >= 2."""
    s = len(ambient.factors)
    if alpha.length != s:
        raise ValidationError("composition length must match the smash power")
    pool = _pool(ambient, n)
    fixed_pool = _fixed_pool(ambient, fixed, n)
    top_q = ambient.factors[0].top_dim()
    top_a = fixed.top_dim()
    ranges = blocks_of(alpha)
    # slack available after each block, for intersection pruning
    caps = [0] * (len(ranges) + 1)
    for b in range(len(ranges) - 1, -1, -1):
        lo, hi = ranges[b]
        caps[b] = caps[b + 1] + (top_q if hi - lo == 1 else top_a)
    out: list[Any] = []
    acc: list[SimplexRef] = []

    def rec(b: int, inter: frozenset):
        if b == len(ranges):
            if not inter:
                out.append(tuple(acc))
            return
        lo, hi = ranges[b]
        candidates = pool if hi - lo == 1 else fixed_pool
        for ref, words in candidates:
            ninter = words if b == 0 else (inter & words)
            if len(ninter) > caps[b + 1]:
                continue
            acc.extend([ref] * (hi - lo))
            rec(b + 1, ninter)
            del acc[lo:]

    rec(0, frozenset())
    return out


def _subset_from_enum(
    ambient: TupleSpace,
    enum: Callable[[int], list[Any]],
    top_bound: int,
    truncation: Optional[int] = None,
) -> PointedSubset:
    trunc = ambient.truncation if truncation is None else min(truncation, ambient.truncation)
    members = {n: enum(n) for n in range(min(trunc, top_bound) + 1)}
    return PointedSubset(ambient, members, truncation=trunc, top_bound=top_bound, check=False)


def delta_alpha(
    q: SimplicialSet,
    fixed: PointedSubset,
    alpha: Composition | Sequence[int],
    truncation: Optional[int] = None,
    ambient: Optional[TupleSpace] = None,
) -> PointedSubset:
    """The blockwise-constant subset for a composition: components within a
    block of size >= 2 agree and are fixed; singleton blocks are free."""
    _check_fixed_subset(q, fixed)
    if not isinstance(alpha, Composition):
        alpha = Composition(tuple(alpha))
    if alpha.dim == 0:
        raise ValidationError("the empty composition does not index a subset")
    amb = _ambient_for(q, alpha.length, truncation, ambient)
    bound = alpha_top_bound(q, fixed, alpha)
    return _subset_from_enum(
        amb, lambda n: _enum_blocks(amb, fixed, alpha, n), bound, truncation
    )


def delta_intersection(
    q: SimplicialSet,
    fixed: PointedSubset,
    cover_index: Iterable[int],
    s: int,
    truncation: Optional[int] = None,
    ambient: Optional[TupleSpace] = None,
) -> PointedSubset:
    """Intersection of cover pieces, computed independently of the merged
    composition: members of one piece filtered by the other predicates."""
    index = sorted(frozenset(cover_index))
    if not index:
        raise ValidationError("the empty cover index is the whole pinched union")
    _check_fixed_subset(q, fixed)
    amb = _ambient_for(q, s, truncation, ambient)
    preds = [
        block_predicate(fixed, cover_composition(j, s)) for j in index[1:]
    ]
    first = cover_composition(index[0], s)
    bound = min(
        alpha_top_bound(q, fixed, cover_composition(j, s)) for j in index
    )

    def enum(n: int) -> list[Any]:
        return [
            key
            for key in _enum_blocks(amb, fixed, first, n)
            if all(p(key) for p in preds)
        ]

    return _subset_from_enum(amb, enum, bound, truncation)


def pinched_union(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    truncation: Optional[int] = None,
    ambient: Optional[TupleSpace] = None,
) -> PointedSubset:
    """The pinched subset as the union of the s-1 blockwise cover pieces."""
    _check_fixed_subset(q, fixed)
    if s <= 1:
        return pinched_set(q, fixed, s, truncation, ambient)
    amb = _ambient_for(q, s, truncation, ambient)
    bound = pinched_top_bound(q, fixed, s)

    def enum(n: int) -> list[Any]:
        seen: dict[Any, None] = {}
        for j in range(1, s):
            for key in _enum_blocks(amb, fixed, cover_composition(j, s), n):
                seen.setdefault(key, None)
        return list(seen)

    return _subset_from_enum(amb, enum, bound, truncation)


def expand_word(word: tuple[int, ...], shared: Sequence[int], n: int) -> tuple[int, ...]:
    """Re-insert the degeneracy indices ``shared`` into ``word`` at ambient
    ``n`` (the inverse of stripping them)."""
    sh = sorted(shared)
    shared_set = set(sh)
    complement = [x for x in range(n) if x not in shared_set]
    return tuple(sorted([complement[w] for w in word] + sh))


def pinched_inductive(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    truncation: Optional[int] = None,
    ambient: Optional[TupleSpace] = None,
) -> PointedSubset:
    """The pinched subset built by the two-term recursion.

    Members at level s come from the last-pair piece, plus every way of
    fattening a level-(s-1) member: re-insert a shared degeneracy word into
    all of its components and append a free component avoiding it.  The
    shared word re-inserted has size n - d <= top(Q), so only members within
    top(Q) dimensions below contribute.
    """
    _check_fixed_subset(q, fixed)
    if s <= 1:
        return pinched_set(q, fixed, s, truncation, ambient)
    amb = _ambient_for(q, s, truncation, ambient)
    bound = pinched_top_bound(q, fixed, s)
    trunc = amb.truncation if truncation is None else min(truncation, amb.truncation)
    if s == 2:
        return delta_alpha(q, fixed, Composition((2,)), trunc, amb)

    prev_amb = smash_power(q, s - 1, amb.truncation)
    prev = pinched_inductive(q, fixed, s - 1, trunc, prev_amb)
    members: dict[int, set[Any]] = {}
    for n in range(min(trunc, bound) + 1):
        level: set[Any] = set()
        # last two components equal and fixed
        for key in _enum_blocks(amb, fixed, cover_composition(s - 1, s), n):
            level.add(key)
        # prefix pinched at level s-1, possibly after stripping a shared word
        pool = _pool(amb, n)
        for d in range(max(0, n - q.top_dim()), n + 1):
            if d > prev.truncation:
                continue
            for m_key in prev.nondeg(d):
                if d == 0 and m_key == prev_amb.basepoint:
                    continue
                for shared in combinations(range(n), n - d):
                    prefix = tuple(
                        SimplexRef(c.base_dim, c.base, expand_word(c.word, shared, n))
                        for c in m_key
                    )
                    shared_set = frozenset(shared)
                    for ref, words in pool:
                        if words & shared_set:
                            continue
                        level.add(prefix + (ref,))
        if level:
            members[n] = level
    return PointedSubset(amb, members, truncation=trunc, top_bound=bound, check=False)


# ---------------------------------------------------------------------------
# Maps, matrices and exact-sequence bookkeeping.
# ---------------------------------------------------------------------------

def apply_word(space: SimplicialSet, ref: SimplexRef, word: Iterable[int]) -> SimplexRef:
    """Apply a canonical word (ascending = order of application)."""
    for j in word:
        ref = space.degenerate_of(ref, j)
    return ref


class SimplicialMap:
    """A pointed simplicial map, stored on nondegenerate source simplices.

    ``mapping[n][key]`` is the canonical image ref in the target, the image
    table that ``quotient`` returns.  The map is
    extended to degenerate simplices by ``f(s_W x) = s_W f(x)``; validation
    checks that it commutes with every face operator.
    """

    def __init__(
        self,
        source: SimplicialSet,
        target: SimplicialSet,
        mapping: dict[int, dict[Any, SimplexRef]],
        check: bool = True,
    ):
        self.source = source
        self.target = target
        self._mapping = {n: dict(m) for n, m in mapping.items()}
        if check:
            self.check()

    def apply(self, ref: SimplexRef) -> SimplexRef:
        image = self._mapping[ref.base_dim][ref.base]
        return apply_word(self.target, image, ref.word)

    def apply_key(self, n: int, key: Any) -> SimplexRef:
        return self._mapping[n][key]

    def check(self) -> None:
        src, tgt = self.source, self.target
        top = min(src.top_dim(), src.truncation)
        for n in range(top + 1):
            for key in src.nondeg(n):
                if key not in self._mapping.get(n, {}):
                    raise ValidationError(f"map misses simplex {key!r}")
                image = self._mapping[n][key]
                if image.dim != n:
                    raise ValidationError(f"map changes dimension at {key!r}")
        bp_image = self._mapping[0][src.basepoint]
        if not tgt.is_basepoint_ref(bp_image):
            raise ValidationError("map does not preserve the basepoint")
        for n in range(1, top + 1):
            for key in src.nondeg(n):
                ref = SimplexRef(n, key, ())
                image = self._mapping[n][key]
                for i in range(n + 1):
                    lhs = self.apply(src.face_of(ref, i))
                    rhs = tgt.face_of(image, i)
                    if lhs != rhs:
                        raise ValidationError(
                            f"map fails to commute with d_{i} at {key!r}"
                        )


def _map_on_nondeg(
    source: SimplicialSet, target: SimplicialSet, image: Callable[[int, Any], SimplexRef]
) -> SimplicialMap:
    mapping = {
        n: {key: image(n, key) for key in source.nondeg(n)}
        for n in range(min(source.top_dim(), source.truncation) + 1)
    }
    return SimplicialMap(source, target, mapping, check=False)


def identity_map(space: SimplicialSet) -> SimplicialMap:
    return _map_on_nondeg(space, space, lambda n, key: SimplexRef(n, key, ()))


def constant_map(source: SimplicialSet, target: SimplicialSet) -> SimplicialMap:
    return _map_on_nondeg(source, target, lambda n, key: target.basepoint_ref(n))


def inclusion_map(subset: PointedSubset) -> SimplicialMap:
    """The inclusion of a pointed subset into its ambient set."""
    return _map_on_nondeg(subset, subset.ambient, lambda n, key: SimplexRef(n, key, ()))


def orbit_projection(space: SimplicialSet, orbit: SimplicialSet, rep: dict) -> SimplicialMap:
    """The orbit projection from ``orbit_space``'s representative map, checked."""
    projection = _map_on_nondeg(space, orbit, lambda n, key: SimplexRef(n, rep[key], ()))
    projection.check()
    return projection


def compose(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """The composite ``f . g`` (g first)."""
    if g.target is not f.source:
        raise ValidationError("composition needs matching middle spaces")
    return _map_on_nondeg(g.source, f.target, lambda n, key: f.apply(g.apply_key(n, key)))


def member_dims(subset: PointedSubset) -> list[int]:
    """The dimensions holding a member of the subset."""
    return sorted(subset.counts())


def whole_subset(space: SimplicialSet, truncation: Optional[int] = None) -> PointedSubset:
    trunc = space.truncation if truncation is None else truncation
    members = {n: space.nondeg(n) for n in range(min(trunc, space.top_dim()) + 1)}
    return PointedSubset(space, members, truncation=trunc, check=False)


def wedge_axes_subset(prod: TupleSpace) -> PointedSubset:
    """The subset of a product whose simplices touch a basepoint component."""
    if prod.smash:
        raise ValidationError("the axes subset lives in the product, not the smash")
    members: dict[int, list[Any]] = {}
    for n in range(min(prod.truncation, prod.top_dim()) + 1):
        members[n] = [
            key
            for key in prod.nondeg(n)
            if any(c.base_dim == 0 and c.base == f.basepoint for f, c in zip(prod.factors, key))
        ]
    return PointedSubset(prod, members, check=False)


def is_zero(matrix: GF2SparseMatrix) -> bool:
    return all(not col for col in matrix.cols)


def identity_matrix(n: int) -> GF2SparseMatrix:
    return GF2SparseMatrix(n, n, [(i,) for i in range(n)])


def dense(matrix: GF2SparseMatrix) -> list[list[int]]:
    out = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for j, col in enumerate(matrix.cols):
        for i in col:
            out[i][j] = 1
    return out


def matmul(a: GF2SparseMatrix, b: GF2SparseMatrix) -> GF2SparseMatrix:
    if b.nrows != a.ncols:
        raise ValueError("shape mismatch in matrix product")
    cols = []
    for col in b.cols:
        acc: set[int] = set()
        for k in col:
            acc ^= set(a.cols[k])
        cols.append(acc)
    return GF2SparseMatrix(a.nrows, b.ncols, cols)


def kernel_basis(matrix: GF2SparseMatrix) -> list[set[int]]:
    """A basis of the right kernel, as sets of column indices."""
    pivots: dict[int, tuple[set[int], set[int]]] = {}
    kernel: list[set[int]] = []
    for j, col in enumerate(matrix.cols):
        c = set(col)
        combo = {j}
        while c:
            p = max(c)
            hit = pivots.get(p)
            if hit is None:
                pivots[p] = (c, combo)
                break
            c = c ^ hit[0]
            combo = combo ^ hit[1]
        else:
            kernel.append(combo)
    return kernel


def induced_ranks_via_cycles(f: SimplicialMap, t_max: int) -> dict[int, int]:
    """Rank of the map f induces on reduced mod-2 homology, per degree
    n <= t_max, from an explicit cycle basis: the image of the cycles
    Z_n(source) spans f_*(H_n) modulo the boundaries B_n(target), so the
    rank is rank[B_n | f(Z_n)] - rank[B_n]."""
    src = ChainComplexGF2(f.source, t_max)
    tgt = ChainComplexGF2(f.target, t_max + 1)
    boundary_rank = tgt.ranks()
    out: dict[int, int] = {}
    for n in range(t_max + 1):
        index = tgt.basis_index(n)
        images = []
        for key in src.basis(n):
            image = f.apply_key(n, key)
            images.append(
                () if image.word or f.target.is_basepoint_ref(image) else (index[image.base],)
            )
        pushed = []
        # the boundary from degree 0 is zero, so every 0-chain is a cycle
        for cycle in kernel_basis(src.boundary(n)):
            acc: set[int] = set()
            for j in cycle:
                acc.symmetric_difference_update(images[j])
            pushed.append(acc)
        spanned = reduce_columns(tgt.boundary(n + 1).cols + tuple(pushed))
        out[n] = len(spanned) - boundary_rank.get(n + 1, 0)
    return out


def reduced_diagonal(space: SimplicialSet, truncation: Optional[int] = None) -> SimplicialMap:
    """The map x -> x ^ x into the 2-fold smash power."""
    target = smash_power(space, 2, truncation)
    mapping: dict[int, dict[Any, SimplexRef]] = {}
    for n in range(min(space.top_dim(), target.truncation) + 1):
        level = {}
        for key in space.nondeg(n):
            ref = SimplexRef(n, key, ())
            level[key] = target.canonical_ref((ref, ref))
        mapping[n] = level
    return SimplicialMap(space, target, mapping, check=False)


def diagonal_null_via_cycles(fixed: SimplicialSet) -> bool:
    """Whether the reduced diagonal induces zero through the top dimension,
    read off a cycle basis; the reference for ``check_diagonal_null``."""
    top = fixed.top_dim()
    diag = reduced_diagonal(fixed, truncation=min(top + 1, 2 * top))
    return not any(induced_ranks_via_cycles(diag, top).values())


def quotient_betti_via_les(
    space: SimplicialSet, subset: PointedSubset, t_max: int
) -> BettiTable:
    """Betti table of space/subset from exact-sequence rank bookkeeping.

    Over a field the cofiber sequence subset -> space -> space/subset gives
    ``b_n(Q/S) = (b_n(Q) - rank i_n) + (b_{n-1}(S) - rank i_{n-1})`` with
    ``i`` the inclusion-induced map on homology.
    """
    ranks = induced_ranks_via_cycles(inclusion_map(subset), t_max)
    b_space = reduced_betti(space, t_max)
    b_sub = reduced_betti(subset, t_max)
    entries = {}
    for n in range(t_max + 1):
        prev = b_sub[n - 1] - ranks.get(n - 1, 0) if n >= 1 else 0
        entries[n] = b_space[n] - ranks[n] + prev
    # the quotient has no cells above the ambient top dimension
    return BettiTable(entries, certified=t_max, zero_from=space.top_dim() + 1)


def example_quotient_tables(s_max: int) -> dict[int, BettiTable]:
    """Quotient tables for the glued-spheres example from the closed pinched
    formula, for s = 1..s_max."""
    out: dict[int, BettiTable] = {}
    for s in range(1, s_max + 1):
        if s == 1:
            pinched = BettiTable({}, certified=2 * s, zero_from=0)
        else:
            entries = {t: betti_pinched_example(s, t) for t in range(2 * s + 1)}
            pinched = BettiTable(
                {t: v for t, v in entries.items() if v},
                certified=2 * s,
                zero_from=2 * s - 2,
            )
        out[s] = quotient_betti_concentrated(s, pinched)
    return out


def check_recurrence(
    numerator: Sequence[int], denominator: Sequence[int], coeffs: Sequence[int]
) -> bool:
    """Convolving the coefficients with the denominator returns the
    numerator, which certifies the expansion."""
    for n in range(len(coeffs)):
        terms = range(min(n, len(denominator) - 1) + 1)
        acc = sum(denominator[k] * coeffs[n - k] for k in terms)
        expected = numerator[n] if n < len(numerator) else 0
        if acc != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# The factor tables through the word calculus: the reference for
# loopbetti.pinched._FactorTables, which derives degenerate faces from the
# dimension below.
# ---------------------------------------------------------------------------

class WordCalculusTables:
    """The fields of ``_FactorTables`` built through the word calculus: every
    face of every component, degenerate or not, by ``face_of`` on its ref,
    looked up in a dict of the refs one dimension down.  The reference the
    factor tables are compared against, field by field."""

    def __init__(self, q: SimplicialSet, fixed: PointedSubset, top: int):
        self.top_q = q.top_dim()
        self.masks: list[list[int]] = []
        self.fixed: list[list[bool]] = []
        self.faces: list[list[list[int]]] = []
        self.groups: list[list[tuple[int, list[int]]]] = []
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
            self.masks.append(masks + [-1])
            self.fixed.append(flags)
            self.groups.append(list(by_mask.items()))


# ---------------------------------------------------------------------------
# The brute kernel on tuples of component indices: the reference for the
# packed kernel of loopbetti.pinched, which codes each cell as one int.
# ---------------------------------------------------------------------------

def tuple_pinched_cells(tables: _FactorTables, s: int, n: int) -> list[tuple[int, ...]]:
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
    groups, top_q = tables.groups[n], tables.top_q
    fixed_groups = [
        (mask, kept) for mask, members in groups if (kept := [i for i in members if fixed[i]])
    ]
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


def tuple_quotient_cells(tables: _FactorTables, s: int, n: int) -> list[tuple[int, ...]]:
    """The cells of the smash power modulo the pinched subset at ambient
    dimension n (s >= 2) other than the basepoint: the nondegenerate
    s-tuples with no adjacent equal fixed pair, as tuples of component
    indices.

    The complement of the witness branch of ``tuple_pinched_cells``: depth first
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


def _tuple_is_pinched(cell: tuple[int, ...], fixed: list[bool]) -> bool:
    return any(a == b and fixed[a] for a, b in zip(cell, cell[1:]))


def tuple_boundary_columns(
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
                if marker not in face and not (relative and _tuple_is_pinched(face, fixed)):
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


def tuple_table_betti(
    tables: _FactorTables,
    cells_at: Callable[[_FactorTables, int, int], list[tuple[int, ...]]],
    s: int,
    top: int,
    t_max: int,
    relative: bool = False,
) -> dict[int, int]:
    """Betti numbers through min(t_max, top) of the chains whose n-cells are
    ``cells_at(tables, s, n)``: every dimension built bottom up and held,
    then transposed, checked and ranked with ``boundary_ranks``."""
    sizes = []
    coboundaries: list[tuple[int, list[list[int]]]] = []
    lower: dict[tuple[int, ...], int] = {}
    for n in range(top + 1):
        cells = cells_at(tables, s, n)
        if n >= 1:
            columns = tuple_boundary_columns(tables, cells, lower, n, relative)
            coboundaries.append((n, transpose(columns, len(lower))))
        lower = {cell: j for j, cell in enumerate(cells)}
        sizes.append(len(cells))
    ranks = boundary_ranks(coboundaries)
    return {
        n: sizes[n] - ranks.get(n, 0) - ranks.get(n + 1, 0)
        for n in range(min(t_max, top) + 1)
    }


def first_nonzero_square(
    coboundaries: dict[int, Sequence[Sequence[int]]],
) -> Optional[tuple[int, list[int]]]:
    """The lowest degree n at which the coboundary to n fails to kill some
    raw column of the coboundary to n - 1, with the indices of those
    columns; None when every consecutive pair squares to zero.  Every
    column is checked on its own, with no reduction, clearing or pivots."""
    for n in sorted(coboundaries):
        if n - 1 not in coboundaries:
            continue
        upper = coboundaries[n]
        failing = []
        for j, col in enumerate(coboundaries[n - 1]):
            acc: set[int] = set()
            for i in col:
                acc ^= set(upper[i])
            if acc:
                failing.append(j)
        if failing:
            return n, failing
    return None


def pivot_columns(cols: Iterable[Iterable[int]], skip: Any = ()) -> dict[int, bool]:
    """The positions of the columns, outside ``skip``, that are not in the
    span of the kept columns before them, which a column elimination keeps
    as pivots rather than eliminating to zero; each with whether it is kept
    as given, which under largest-row pivoting (as in ``reduce_columns``)
    means that no kept column before it has the same largest row."""
    pivots: dict[int, set[int]] = {}
    kept = {}
    for j, col in enumerate(cols):
        if j in skip or not col:
            continue
        c = set(col)
        given = max(c) not in pivots
        while c and max(c) in pivots:
            c ^= pivots[max(c)]
        if c:
            pivots[max(c)] = c
            kept[j] = given
    return kept
