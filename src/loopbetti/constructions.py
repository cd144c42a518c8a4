"""Constructions on pointed simplicial sets: products, smashes, quotients,
orbit spaces of involutions, and sections of the orbit projection.

Of these, ``verify`` runs only the orbit space and the section search: it
counts, enumerates and ranks smash powers on the integer tables of
``pinched``.  The tuple spaces and quotients here serve library callers and
the reference computations of the test suite.

Products and smash powers only ever materialize nondegenerate simplices.  A
nondegenerate n-simplex of a product is a tuple of component simplices at
ambient dimension n whose degeneracy words have empty common intersection
(a shared index would factor out as a degeneracy of the whole tuple), so
enumeration is by shuffles.  Smash powers of even modest spaces explode
combinatorially, so ``TupleSpace`` enumerates per dimension on demand and
caches; faces are computed componentwise and renormalized, which needs no
enumeration at all.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import eq, is_not, itemgetter, lt, ne, not_, or_
from typing import Any, Optional, Sequence

from .simplicial import (
    FiniteSimplicialSet,
    Involution,
    PointedSubset,
    SimplexRef,
    SimplicialSet,
    TruncationError,
    ValidationError,
    _new_ref,
    collector_paused,
    strip_word,
)


class TupleSpace(SimplicialSet):
    """Product or smash product of pointed simplicial sets, tuple-encoded.

    Keys are tuples of component ``SimplexRef`` values at a common ambient
    dimension with no degeneracy index shared by every component.  For a
    smash product, tuples with a basepoint component collapse to the
    basepoint.  Simplices are enumerated lazily per dimension.
    """

    def __init__(self, factors: Sequence[SimplicialSet], truncation: int, smash: bool):
        if not factors:
            raise ValidationError("a tuple space needs at least one factor")
        for f in factors:
            if not f.reaches(truncation):
                raise TruncationError(
                    f"factor truncation {f.truncation} is smaller than the "
                    f"requested truncation {truncation}"
                )
        self.factors = tuple(factors)
        self.truncation = truncation
        self.smash = smash
        self._bp = tuple(SimplexRef(0, f.basepoint, ()) for f in self.factors)
        self._nondeg_cache: dict[int, tuple[Any, ...]] = {}
        self._top = sum(f.top_dim() for f in self.factors)
        # component faces come from tiny pools and repeat across tuples, so
        # memoize them per distinct factor
        caches: dict[int, dict] = {}
        self._comp_face_caches = tuple(
            caches.setdefault(id(f), {}) for f in self.factors
        )

    # -- protocol ------------------------------------------------------------
    @property
    def basepoint(self) -> Any:
        return self._bp

    def top_dim(self) -> int:
        # the honest bound on nondegenerate dimensions; enumeration where the
        # space does not reach raises, it does not silently return nothing
        return self._top

    def nondeg(self, n: int) -> tuple[Any, ...]:
        self.require(n)
        cached = self._nondeg_cache.get(n)
        if cached is None:
            head = (self._bp,) if self.smash and n == 0 else ()
            cached = self._nondeg_cache[n] = head + tuple(self._enumerate(n))
        return cached

    def _base_face(self, key: Any, dim: int, i: int) -> SimplexRef:
        comps = []
        for f, memo, comp in zip(self.factors, self._comp_face_caches, key):
            face = memo.get((comp, i))
            if face is None:
                face = f.face_of(comp, i)
                memo[(comp, i)] = face
            comps.append(face)
        return self.canonical_ref(comps)

    # -- tuple calculus --------------------------------------------------------
    def canonical_ref(self, comps: Sequence[SimplexRef]) -> SimplexRef:
        """Canonical ref of the simplex with the given component tuple.

        Degeneracy indices shared by all components are stripped into the
        outer word; in a smash product a basepoint component collapses the
        whole simplex onto the basepoint.
        """
        n = comps[0].dim
        if self.smash:
            for f, comp in zip(self.factors, comps):
                if comp.base_dim == 0 and comp.base == f.basepoint:
                    return self.basepoint_ref(n)
        shared = set(comps[0].word)
        for comp in comps[1:]:
            shared &= set(comp.word)
            if not shared:
                break
        if not shared:
            return SimplexRef(n, tuple(comps), ())
        sh = tuple(sorted(shared))
        stripped = tuple(
            SimplexRef(c.base_dim, c.base, strip_word(c.word, sh)) for c in comps
        )
        return SimplexRef(n - len(sh), stripped, sh)

    def _enumerate(self, n: int):
        pools = []
        for f in self.factors:
            pool = [
                (r, frozenset(r.word))
                for r in f.refs_at(n, include_basepoint=not self.smash)
            ]
            pools.append(pool)
        # remaining_cap[c]: most intersection a suffix of components can clear
        caps = [0] * (len(self.factors) + 1)
        for c in range(len(self.factors) - 1, -1, -1):
            caps[c] = caps[c + 1] + self.factors[c].top_dim()
        s = len(self.factors)
        acc: list[SimplexRef] = []

        def rec(c: int, inter: frozenset):
            if c == s:
                if not inter:
                    yield tuple(acc)
                return
            for ref, words in pools[c]:
                ninter = words if c == 0 else (inter & words)
                if len(ninter) > caps[c + 1]:
                    continue
                acc.append(ref)
                yield from rec(c + 1, ninter)
                acc.pop()

        yield from rec(0, frozenset())


def product(q: SimplicialSet, r: SimplicialSet, truncation: Optional[int] = None) -> TupleSpace:
    """Dimensionwise product of two pointed simplicial sets."""
    if truncation is None:
        truncation = min(q.truncation, r.truncation)
    return TupleSpace((q, r), truncation, smash=False)


def smash(q: SimplicialSet, r: SimplicialSet, truncation: Optional[int] = None) -> TupleSpace:
    """Smash product: the product with the axes collapsed to the basepoint."""
    if truncation is None:
        truncation = min(q.truncation, r.truncation)
    return TupleSpace((q, r), truncation, smash=True)


def smash_power(q: SimplicialSet, s: int, truncation: Optional[int] = None) -> TupleSpace:
    """The s-fold smash power of a pointed simplicial set, s >= 1."""
    if s < 1:
        raise ValidationError("smash power needs s >= 1; use a point for s = 0")
    if truncation is None:
        truncation = q.truncation
    return TupleSpace((q,) * s, truncation, smash=True)


# ---------------------------------------------------------------------------
# Quotients.
# ---------------------------------------------------------------------------

def quotient(
    space: SimplicialSet, subset: PointedSubset
) -> tuple[FiniteSimplicialSet, dict[int, dict[Any, SimplexRef]]]:
    """Collapse a pointed subset to the basepoint.

    The quotient keeps the nondegenerate simplices outside the subset plus
    the basepoint; any face landing in the subset is redirected to the
    matching basepoint degeneracy, which keeps the face table total.
    Returns the quotient and the projection's table of image refs,
    ``projection[n][key]`` for each nondegenerate n-simplex.
    """
    if subset.ambient is not space:
        raise ValidationError("subset does not live in the space being collapsed")
    # a cut smash power is listed through its truncation; the quotient keeps its top
    whole = space.reaches(space.top_dim())
    top = space.top_dim() if whole else space.truncation
    simplices: dict[int, list[Any]] = {0: [space.basepoint]}
    for n in range(top + 1):
        kept = [
            key
            for key in space.nondeg(n)
            if not subset.contains_key(n, key) and key != space.basepoint
        ]
        if kept:
            simplices.setdefault(n, []).extend(kept)

    def project(ref: SimplexRef) -> SimplexRef:
        if subset.contains_ref(ref):
            return space.basepoint_ref(ref.dim)
        return ref

    faces: dict[Any, tuple[SimplexRef, ...]] = {}
    for n in range(1, top + 1):
        for key in simplices.get(n, ()):
            ref = SimplexRef(n, key, ())
            faces[key] = tuple(project(space.face_of(ref, i)) for i in range(n + 1))
    quot = FiniteSimplicialSet.from_tables(
        space.truncation,
        simplices,
        faces,
        space.basepoint,
        top_bound=None if whole else space.top_dim(),
    )
    projection = {
        n: {key: project(SimplexRef(n, key, ())) for key in space.nondeg(n)}
        for n in range(top + 1)
    }
    return quot, projection


# ---------------------------------------------------------------------------
# Orbit spaces and sections.
# ---------------------------------------------------------------------------

def orbit_space(
    space: FiniteSimplicialSet, invol: Involution
) -> tuple[FiniteSimplicialSet, dict[Any, Any], PointedSubset]:
    """Orbit space of an involution, with representatives and fixed subset.

    The orbit space has one nondegenerate simplex per orbit (represented by
    the earlier element in the stored order, read off ``invol.pairing``);
    fixed simplices have singleton orbits, so the fixed set embeds as a
    pointed subset of the quotient.  The projection comes as its
    representative map, ``rep[key]`` the key of the orbit simplex that the
    nondegenerate simplex ``key`` lands on.  The face table is remapped one
    dimension at a time, each distinct face once.
    """
    if invol.space is not space:
        raise ValidationError("involution acts on a different space")
    rep: dict[Any, Any] = {}
    simplices: dict[int, tuple[Any, ...]] = {}
    faces: dict[Any, tuple[SimplexRef, ...]] = {}
    table = space._faces
    top = space.top_dim()
    for n in range(top + 1):
        stored, pairs = space.nondeg(n), invol.pairing(n)
        later = list(map(lt, pairs, count()))  # the partner is stored earlier
        rep.update(zip(stored, stored))
        rep.update(zip(compress(stored, later), map(stored.__getitem__, compress(pairs, later))))
        keys = simplices[n] = tuple(compress(stored, map(not_, later)))
        if not n:
            continue
        # each distinct face once, onto the representative of its base,
        # which lies below n; then the rows again, n + 1 faces at a time
        rows = list(map(table.__getitem__, keys))
        distinct = list(set(chain.from_iterable(rows)))
        moved = dict(zip(distinct, map(_new_ref, zip(
            map(itemgetter(0), distinct),
            map(rep.__getitem__, map(itemgetter(1), distinct)),
            map(itemgetter(2), distinct),
        ))))
        remapped = map(moved.__getitem__, chain.from_iterable(rows))
        faces.update(zip(keys, zip(*[remapped] * (n + 1))))
    orbit = FiniteSimplicialSet.from_tables(space.truncation, simplices, faces, space.basepoint)
    fixed_members = {n: invol.fixed(n) for n in range(top + 1)}
    fixed = PointedSubset(orbit, fixed_members, check=False)
    return orbit, rep, fixed


@collector_paused()
def decide_section(
    space: FiniteSimplicialSet, invol: Involution
) -> tuple[Optional[PointedSubset], tuple[Any, ...]]:
    """Decide whether the orbit projection has a simplicial section.

    A section picks one simplex from every free orbit {x, tx} so that,
    together with the fixed simplices, the choice is closed under faces.
    That is 2-SAT (Aspvall, Plass and Tarjan 1979): literal 2k means the
    k-th orbit's first simplex x is chosen, 2k + 1 that tx is, and each
    free face base b of a free simplex x gives the clause x => b with its
    contrapositive tb => tx; fixed faces are always present.  As the
    involution commutes with faces (``Involution`` checks it), tx => tb is
    a clause too, so every implication holds both ways and the strongly
    connected components are the connected components.  The clauses are
    satisfiable iff no x shares a component with tx, and then choosing in
    every orbit the literal whose component has the smaller least literal
    satisfies them all.  Linear time, no recursion.

    The orbits are numbered from ``invol.pairing`` in stored order, and the
    clauses read the face rows of the free simplices, in stored order too.

    Returns ``(witness, ())`` when a section exists, else ``(None, cycle)``
    with ``cycle`` the simplices x, ..., tx, ..., x of one orbit: choosing
    each forces choosing the next, so neither x nor tx can be chosen.

    The cyclic garbage collector is paused for the call
    (``collector_paused``): the clauses are lists of ints, so a collection
    would free nothing, yet the hundreds of thousands of lists made at
    scale would set off collections that walk the whole parsed space.
    """
    if invol.space is not space:
        raise ValidationError("involution acts on a different space")
    top = space.top_dim()
    literal: dict[Any, int] = {}
    keys: list[Any] = []
    for n in range(top + 1):
        stored, pairs = space.nondeg(n), invol.pairing(n)
        heads = list(map(lt, count(), pairs))  # the first of a free orbit
        firsts = list(compress(stored, heads))
        partners = list(map(stored.__getitem__, compress(pairs, heads)))
        literal.update(zip(firsts, count(len(keys), 2)))
        literal.update(zip(partners, count(len(keys) + 1, 2)))
        keys += chain.from_iterable(zip(firsts, partners))
    implies: list[list[int]] = [[] for _ in keys]
    table, lookup = space._faces, literal.get
    for n in range(1, top + 1):
        free = list(compress(space.nondeg(n), map(ne, invol.pairing(n), count())))
        # the literal of every face base, row after row, beside its simplex's
        bases = list(map(lookup, map(itemgetter(1), chain.from_iterable(
            map(table.__getitem__, free)
        ))))
        xs = chain.from_iterable(map(repeat, map(literal.__getitem__, free), repeat(n + 1)))
        for x, b in compress(zip(xs, bases), map(is_not, bases, repeat(None))):
            implies[x].append(b)
            implies[b ^ 1].append(x ^ 1)
    comp = _components(implies)
    even, odd = comp[0::2], comp[1::2]
    x = next(compress(count(0, 2), map(eq, even, odd)), None)
    if x is not None:
        there = _path_within(implies, x, x + 1)
        back = _path_within(implies, x + 1, x)
        return None, tuple(keys[v] for v in there + back[1:])
    # in every orbit the literal whose component has the smaller least literal
    chosen = set(compress(keys[0::2], map(lt, even, odd)))
    chosen.update(compress(keys[1::2], map(lt, odd, even)))
    members = {
        n: list(compress(space.nondeg(n), map(
            or_, map(eq, invol.pairing(n), count()), map(chosen.__contains__, space.nondeg(n))
        )))
        for n in range(top + 1)
    }
    return PointedSubset(space, members, check=True), ()


def find_section(space: FiniteSimplicialSet, invol: Involution) -> Optional[PointedSubset]:
    """A face-closed subset holding the fixed simplices and one simplex of
    every free orbit (a simplicial section of the orbit projection), or None
    when there is none; see ``decide_section``."""
    return decide_section(space, invol)[0]


def _components(graph: list[list[int]]) -> list[int]:
    """For a graph holding every edge both ways, the smallest vertex of each
    vertex's connected component, by one walk on an explicit stack from
    each vertex not yet labelled, in index order."""
    comp = [-1] * len(graph)
    for root in range(len(graph)):
        if comp[root] < 0:
            comp[root] = root
            stack = [root]
            while stack:
                for w in graph[stack.pop()]:
                    if comp[w] < 0:
                        comp[w] = root
                        stack.append(w)
    return comp


def _path_within(graph: list[list[int]], start: int, goal: int) -> list[int]:
    """A shortest path from start to goal, which share a component."""
    parent = {start: start}
    frontier = [start]
    while goal not in parent:
        nxt = []
        for v in frontier:
            for w in graph[v]:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]
