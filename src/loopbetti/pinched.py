"""Pinched subsets of smash powers and their homology decompositions.

Inside the s-fold smash power of the orbit space Q sits the pinched subset:
tuples with some adjacent pair of components equal and lying in the fixed
subset A.  This module constructs that subset three independent ways (the
direct membership predicate, an inductive two-term recursion, and a union of
blockwise-constant pieces), the blockwise pieces indexed by compositions,
their intersections, and the cover-intersection Betti sum that computes the
pinched homology when the reduced diagonal of A is homologous to zero.

Membership predicates act on full component tuples at ambient dimension:
"a component lies in A" means the base of its canonical form is a member of
A, so degeneracies of members count and every predicate is face-stable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .constructions import TupleSpace, reduced_diagonal, smash_power
from .homology import (
    BettiTable,
    UncertifiedRangeError,
    is_homologous_zero,
    reduced_betti,
)
from .simplicial import (
    PointedSubset,
    SimplexRef,
    SimplicialSet,
    ValidationError,
    basepoint_subset,
    expand_word,
)


class HypothesisError(ValueError):
    """A construction was asked to run with its hypothesis violated."""


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


def compositions_of(total: int) -> list[Composition]:
    """All compositions of a nonnegative integer (2^(total-1) of them)."""
    if total == 0:
        return [Composition(())]
    out = []
    for first in range(1, total + 1):
        for rest in compositions_of(total - first):
            out.append(Composition((first,) + rest.parts))
    return out


def cover_composition(j: int, s: int) -> Composition:
    """The composition (1, ..., 2, ..., 1) of s with the 2 in position j."""
    if not 1 <= j <= s - 1:
        raise ValidationError(f"cover index {j} outside 1..{s - 1}")
    return Composition((1,) * (j - 1) + (2,) + (1,) * (s - j - 1))


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


def blocks_of(alpha: Composition) -> list[tuple[int, int]]:
    """Half-open position ranges (0-based) of the blocks of a composition."""
    out = []
    start = 0
    for part in alpha:
        out.append((start, start + part))
        start += part
    return out


# ---------------------------------------------------------------------------
# Membership predicates on component tuples.
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


def alpha_top_bound(q: SimplicialSet, fixed: PointedSubset, alpha: Composition) -> int:
    """No blockwise member exists above this dimension (same covering count:
    each block contributes one word complement)."""
    return sum(q.top_dim() if part == 1 else fixed.top_dim() for part in alpha)


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
# Enumerators.  All of them produce nondegenerate tuple keys (no basepoint
# components, empty common word intersection) per ambient dimension.
# ---------------------------------------------------------------------------

def _pool(ambient: TupleSpace, n: int):
    return ambient.component_pool(n)


def _fixed_pool(ambient: TupleSpace, fixed: PointedSubset, n: int):
    return [(r, ws) for r, ws in _pool(ambient, n) if fixed.contains_ref(r)]


def _enum_adjacent(ambient: TupleSpace, fixed: PointedSubset, n: int) -> list[Any]:
    """Witness-pushed DFS for the direct membership predicate."""
    s = len(ambient.factors)
    pool = _pool(ambient, n)
    top_q = ambient.factors[0].top_dim()
    out: list[Any] = []
    acc: list[SimplexRef] = []

    def rec(c: int, inter: frozenset, witness: bool):
        if c == s:
            if witness and not inter:
                out.append(tuple(acc))
            return
        remaining_after = s - c - 1
        if not witness and remaining_after == 0:
            # the last slot must close a witness pair with the previous one
            prev = acc[-1]
            if not fixed.contains_ref(prev):
                return
            candidates = [(prev, frozenset(prev.word))]
        else:
            candidates = pool
        for ref, words in candidates:
            ninter = words if c == 0 else (inter & words)
            if len(ninter) > remaining_after * top_q:
                continue
            new_witness = witness or (c > 0 and ref == acc[-1] and fixed.contains_ref(ref))
            acc.append(ref)
            rec(c + 1, ninter, new_witness)
            acc.pop()

    rec(0, frozenset(), False)
    return out


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


# ---------------------------------------------------------------------------
# Subset constructors.
# ---------------------------------------------------------------------------

def _subset_from_enum(
    ambient: TupleSpace,
    enum: Callable[[int], list[Any]],
    top_bound: int,
    truncation: Optional[int] = None,
) -> PointedSubset:
    trunc = ambient.truncation if truncation is None else min(truncation, ambient.truncation)
    members = {}
    for n in range(min(trunc, top_bound) + 1):
        keys = enum(n)
        if keys:
            members[n] = keys
    return PointedSubset(ambient, members, truncation=trunc, top_bound=top_bound, check=False)


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
    return _subset_from_enum(
        amb, lambda n: _enum_adjacent(amb, fixed, n), bound, truncation
    )


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
        pool = amb.component_pool(n)
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
# The cover-intersection Betti sum.
# ---------------------------------------------------------------------------

# answers of check_diagonal_null, so that a run checks the hypothesis once
# and every later cover sum over the same fixed subset reuses the answer.
# The answer is a function of the subset alone, which is immutable, and the
# weak keys drop it with the subset, so no caller can see another's state.
_DIAGONAL_NULL: "weakref.WeakKeyDictionary[PointedSubset, bool]" = weakref.WeakKeyDictionary()


def check_diagonal_null(fixed: PointedSubset) -> bool:
    """Whether the reduced diagonal of the fixed set is homologous to zero.

    Checked through one dimension past the top of the fixed set, which
    certifies every degree since the source homology vanishes above it.
    """
    t_check = fixed.top_dim() + 1
    diag = reduced_diagonal(fixed, truncation=2 * fixed.top_dim() + 2)
    null = is_homologous_zero(diag, t_check)
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


def mv_e1_betti(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    t: int,
    betti_q: Optional[BettiTable] = None,
    betti_a: Optional[BettiTable] = None,
) -> int:
    """Pinched Betti number as a sum over nonempty cover intersections.

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
    polynomials of degree t + 1, instead of 2^(s-1) - 1 intersections.
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
        betti_q = reduced_betti(q, max(t, q.top_dim()))
    if betti_a is None:
        betti_a = reduced_betti(fixed, max(t, fixed.top_dim()))
    if t < 0:
        return 0
    for table in (betti_q, betti_a):
        if not all(table.covers(n) for n in range(t + 1)):
            raise UncertifiedRangeError(f"input table not certified through dimension {t}")
    poly_q = list(betti_q.nonzero().items())
    poly_a = list(betti_a.nonzero().items())
    # state (open block is a singleton, some gap merged) -> the polynomial
    # of the closed blocks times x^(merges so far), truncated at x^(t+1)
    start = [0] * (t + 2)
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
    return sum(
        _times(poly, poly_q if single else poly_a)[-1]
        for (single, merged), poly in states.items()
        if merged
    )


def pinched_betti_brute(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    t_max: int,
    ambient: Optional[TupleSpace] = None,
) -> BettiTable:
    """Brute-force Betti table of the pinched subset through t_max.

    The subset is enumerated only up to its structural top bound, so the
    table also certifies vanishing above it.
    """
    if s <= 1:
        return BettiTable({}, certified=t_max, zero_from=0)
    bound = pinched_top_bound(q, fixed, s)
    trunc = min(t_max + 1, bound)
    if ambient is None:
        ambient = smash_power(q, s, trunc)
    subset = pinched_set(q, fixed, s, truncation=trunc, ambient=ambient)
    return reduced_betti(subset, t_max)
