"""Pointed simplicial sets presented by their nondegenerate simplices.

Every simplex of a simplicial set factors uniquely as a degeneracy word
applied to a nondegenerate base.  We store only the nondegenerate simplices
(per dimension, with a face table) and keep arbitrary simplices as
``SimplexRef`` values: a base plus a canonical degeneracy word.  All face and
degeneracy operators are then evaluated through the word calculus, so the
simplicial identities never have to be tabulated beyond the face table.

Canonical word form
-------------------
A degeneracy word is a strictly increasing tuple ``(j1 < j2 < ... < jk)``
denoting the composite ``s_{jk} ... s_{j1}`` with the rightmost operator
acting first.  Rewriting with ``s_i s_j = s_{j+1} s_i`` (``i <= j``) always
reaches this form, and the form is unique, so two refs are equal iff their
fields are equal.  A word reaching ambient dimension ``n`` is exactly a
subset of ``{0, ..., n-1}``.

The word is read off the vertex map: ``s_J y``, with ``y`` of dimension
``p``, pulls ``y`` back along a monotone surjection ``[n] -> [p]``, and
``J`` lists the positions ``m`` that this map sends to the same vertex as
``m + 1`` (Goerss and Jardine, *Simplicial Homotopy Theory*, I.1).  A face
``d_i`` drops position ``i``, which gives ``face_of`` in one pass.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import partial
from itertools import chain, combinations, compress, count, repeat
from operator import eq, itemgetter, ne
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence


class TruncationError(ValueError):
    """A request needs simplex data beyond the stored truncation."""


class ValidationError(ValueError):
    """Structural data violates a simplicial-set invariant.

    ``simplex`` is the key of the simplex whose stored faces, or whose
    involution entry, failed, when the failure has one.
    """

    def __init__(self, message: str, simplex: Any = None):
        super().__init__(message)
        self.simplex = simplex


class SimplexRef(NamedTuple):
    """A simplex: canonical degeneracy word applied to a nondegenerate base."""

    base_dim: int
    base: Any
    word: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return self.base_dim + len(self.word)


# SimplexRef((base_dim, base, word)) without the Python-level __new__ of a
# NamedTuple, for building refs in bulk
_new_ref = partial(tuple.__new__, SimplexRef)


def _interpretable(entry: Any) -> bool:
    return isinstance(entry, (str, SimplexRef))


# ---------------------------------------------------------------------------
# Word calculus.
# ---------------------------------------------------------------------------

def insert_degeneracy(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Canonical word for ``s_j`` composed outside an already canonical word.

    Rewriting pushes ``s_j`` inward past every ``s_w`` with ``w >= j``,
    bumping each such index by one; ``j`` itself survives unchanged.
    """
    out = [w if w < j else w + 1 for w in word]
    out.insert(bisect_left(out, j), j)
    return tuple(out)


def strip_word(word: tuple[int, ...], shared: Sequence[int]) -> tuple[int, ...]:
    """Remove the indices in ``shared`` from ``word`` and renumber the rest."""
    sh = sorted(shared)
    shared_set = set(sh)
    return tuple(w - bisect_right(sh, w) for w in word if w not in shared_set)


def _columns(rows: Sequence[Sequence[Any]], width: int) -> list[list[Any]]:
    """The columns of rows of one width.  ``zip(*rows)`` would make an
    iterator per row, garbage the collector then walks."""
    return [list(map(itemgetter(i), rows)) for i in range(width)]


def first_repeat(items: Sequence[Any]) -> Optional[int]:
    """Position of the first item equal to an earlier one, or None."""
    first = dict(zip(reversed(items), range(len(items) - 1, -1, -1)))
    if len(first) == len(items):
        return None
    return min(set(range(len(items))).difference(first.values()))


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the body, as a ``with``
    block or a decorator, and leave it as it was found, also when the body
    raises.  For bulk work on ints, strings, lists, tuples, dicts and bytes
    that makes no reference cycles: a collection would free nothing, yet
    the containers it makes would set off one collection after another,
    each walking every tracked object of the process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Simplicial sets.
# ---------------------------------------------------------------------------

class SimplicialSet:
    """Base for pointed simplicial sets; subclasses supply nondegenerate data.

    Subclasses implement ``nondeg``, ``_base_face``, ``top_dim`` and
    ``basepoint``; the word calculus (``face_of``, ``degenerate_of``) is
    shared.  All instances are immutable after construction, so any
    operation may run concurrently on shared inputs.
    """

    truncation: int

    # -- subclass contract -------------------------------------------------
    def nondeg(self, n: int) -> Sequence[Any]:
        raise NotImplementedError

    def _base_face(self, base: Any, dim: int, i: int) -> SimplexRef:
        raise NotImplementedError

    def top_dim(self) -> int:
        """Largest dimension that can carry a nondegenerate simplex."""
        raise NotImplementedError

    @property
    def basepoint(self) -> Any:
        raise NotImplementedError

    # -- shared operator algebra -------------------------------------------
    def face_of(self, ref: SimplexRef, i: int) -> SimplexRef:
        """Canonical form of ``d_i`` applied to an arbitrary simplex.

        ``d_i`` drops position ``i`` of the vertex map, so the repeats
        above it move down by one.  If ``i`` took part in a repeat, the face
        is a degeneracy of the same base less that repeat; otherwise the
        face meets the base at its vertex ``c`` and is a degeneracy of the
        stored face ``d_c y``, whose repeats land on the last position of
        their vertices.
        """
        n = ref.dim
        if n == 0:
            raise ValueError("a vertex has no faces")
        if not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range for dimension {n}")
        word = ref.word
        c = bisect_left(word, i)  # the repeats before position i
        # the repeat that i may take part in: with i + 1, else with i - 1
        q = c if word[c:c + 1] == (i,) else c - 1
        if q >= 0 and word[q] >= i - 1:
            return SimplexRef(ref.base_dim, ref.base, word[:q] + tuple(j - 1 for j in word[q + 1:]))
        face = self._base_face(ref.base, ref.base_dim, i - c)
        if not word:
            return face
        moved = word[:c] + tuple(j - 1 for j in word[c:])
        if face.word:
            last = [m for m in range(n - 1) if m not in moved]  # last[v]: last position of vertex v
            moved = tuple(sorted(moved + tuple(map(last.__getitem__, face.word))))
        return SimplexRef(face.base_dim, face.base, moved)

    def degenerate_of(self, ref: SimplexRef, j: int) -> SimplexRef:
        """Canonical form of ``s_j`` applied to an arbitrary simplex."""
        n = ref.dim
        if not 0 <= j <= n:
            raise ValueError(f"degeneracy index {j} out of range for dimension {n}")
        self.require(n + 1)
        return SimplexRef(ref.base_dim, ref.base, insert_degeneracy(ref.word, j))

    def reaches(self, n: int) -> bool:
        """Whether the simplices at ambient dimension n are known, the one
        test of it: n is within the truncation, or the truncation is at
        least the top dimension, as in every listed space, so that every
        simplex at n is a degeneracy of a stored one."""
        return n <= self.truncation or self.truncation >= self.top_dim()

    def require(self, n: int) -> None:
        """Raise ``TruncationError`` unless the space reaches dimension n."""
        if not self.reaches(n):
            raise TruncationError(f"dimension {n} beyond truncation {self.truncation}")

    def basepoint_ref(self, n: int) -> SimplexRef:
        return SimplexRef(0, self.basepoint, tuple(range(n)))

    def is_basepoint_ref(self, ref: SimplexRef) -> bool:
        return ref.base_dim == 0 and ref.base == self.basepoint

    # -- enumeration helpers -------------------------------------------------
    def refs_at(self, n: int, include_basepoint: bool = True) -> list[SimplexRef]:
        """All simplices at ambient dimension ``n`` (degenerate ones included).

        A canonical word from base dimension ``p`` to ambient ``n`` is any
        ``(n - p)``-subset of ``{0, ..., n-1}``, so enumeration is by shuffles.
        """
        self.require(n)
        out: list[SimplexRef] = []
        for p in range(min(n, self.top_dim()) + 1):
            for key in self.nondeg(p):
                if not include_basepoint and p == 0 and key == self.basepoint:
                    continue
                for word in combinations(range(n), n - p):
                    out.append(SimplexRef(p, key, word))
        return out


class FiniteSimplicialSet(SimplicialSet):
    """A finite pointed simplicial set with explicit tables.

    ``simplices`` lists the nondegenerate simplices per dimension; ``faces``
    gives, for each nondegenerate simplex of dimension ``n >= 1``, its
    ``n + 1`` faces as canonical refs.  Face entries may be written as
    ``"label"`` (nondegenerate) or ``"s1s0@label"`` (degenerate; operators
    outermost first) when all keys are strings.

    The constructor alone checks the structure, for a file as for a direct
    call, and raises the first failure: dimensions, vertices, keys and
    basepoint, then the ``faces`` entries in order (declared key, count,
    entries), the missing face lists and the face identities.

    Validation takes one dimension at a time and works on whole columns
    of the face table: each distinct entry is resolved once per ambient
    dimension (equal entries share one ref), and the face identities read
    the faces of a nondegenerate face from the table and compute those of
    each distinct degenerate face once, so simplices that share faces add
    only table lookups.
    """

    def __init__(
        self,
        truncation: int,
        simplices: Mapping[int, Sequence[Any]],
        faces: Mapping[Any, Sequence[Any]],
        basepoint: Any = None,
    ):
        if truncation < 0:
            raise ValidationError("truncation must be nonnegative")
        self.truncation = truncation
        self._simplices: dict[int, tuple[Any, ...]] = {}
        for n in sorted(simplices):
            if n < 0 or n > truncation:
                raise TruncationError(f"simplex dimension {n} outside 0..{truncation}")
            self._simplices[n] = tuple(simplices[n])
        if not self._simplices.get(0):
            raise ValidationError("no vertices declared")
        self._dim_of: dict[Any, int] = {}
        for n, keys in self._simplices.items():
            self._dim_of.update(zip(keys, repeat(n)))
        if len(self._dim_of) != sum(map(len, self._simplices.values())):
            listed = list(chain.from_iterable(self._simplices.values()))
            key = listed[first_repeat(listed)]
            raise ValidationError(f"duplicate simplex identifier {key!r}")
        self._basepoint = self._simplices[0][0] if basepoint is None else basepoint
        if self._dim_of.get(self._basepoint) != 0:
            raise ValidationError(f"basepoint {self._basepoint!r} is not a vertex")
        self._faces: dict[Any, tuple[SimplexRef, ...]] = self._face_tables(faces)
        # every key of the face table is a stored simplex above dimension 0
        if len(self._faces) != len(self._dim_of) - len(self._simplices[0]):
            above = chain.from_iterable(keys for n, keys in self._simplices.items() if n)
            key = next(key for key in above if key not in self._faces)
            raise ValidationError(f"missing face list for simplex {key!r}", key)
        self._top_bound: Optional[int] = None
        self.check_face_identities()

    def _face_tables(
        self, faces: Mapping[Any, Sequence[Any]]
    ) -> dict[Any, tuple[SimplexRef, ...]]:
        """The face table as refs, checked one dimension at a time.  A
        failure names the first simplex of ``faces`` that fails, and within
        it the first entry."""
        keys = list(faces)
        rows = list(faces.values())
        dims = list(map(self._dim_of.get, keys))
        tables: dict[Any, tuple[SimplexRef, ...]] = {}
        failures: list[tuple[int, ValidationError]] = []  # (position in faces, error)
        for n in set(dims):
            at = list(compress(count(), map(eq, dims, repeat(n))))
            if n is None:
                message = f"faces given for undeclared simplex {keys[at[0]]!r}"
                failures.append((at[0], ValidationError(message)))
                continue
            if n == 0:
                message = f"vertex {keys[at[0]]!r} cannot have faces"
                failures.append((at[0], ValidationError(message)))
                continue
            found = list(map(rows.__getitem__, at))
            wrong = next(compress(count(), map(ne, map(len, found), repeat(n + 1))), None)
            if wrong is not None:
                message = f"simplex {keys[at[wrong]]!r} of dimension {n} needs {n + 1} faces"
                failures.append((at[wrong], ValidationError(message)))
                del at[wrong:], found[wrong:]
            refs, bad = self._ref_rows(found, n - 1)
            if bad is None:
                tables.update(zip(map(keys.__getitem__, at), refs))
            else:
                failures.append((at[bad[0]], bad[1]))
        if failures:
            position, exc = min(failures, key=itemgetter(0))
            exc.simplex = keys[position]
            raise exc
        return tables

    def _ref_rows(
        self, rows: list[Sequence[Any]], ambient: int
    ) -> tuple[list[tuple[SimplexRef, ...]], Optional[tuple[int, ValidationError]]]:
        """Rows of face entries of one dimension as rows of refs.

        Each distinct entry is resolved once, so equal entries share one
        ref; a nondegenerate entry is a key stored at ``ambient``.  On a bad
        entry, returns the index of the first row holding one and its error.
        """
        try:
            tokens = set(chain.from_iterable(rows))
        except TypeError:  # an unhashable entry, which the scan below names
            tokens = set(filter(_interpretable, chain.from_iterable(rows)))
            clean = False
        else:
            clean = all(issubclass(tp, (str, SimplexRef)) for tp in set(map(type, tokens)))
            if not clean:
                tokens = set(filter(_interpretable, tokens))
        plain = [
            t for t in tokens.intersection(self._simplices.get(ambient, ()))
            if isinstance(t, str) and "@" not in t
        ]
        refs = dict(zip(plain, map(_new_ref, zip(repeat(ambient), plain, repeat(())))))
        errors: dict[Any, ValidationError] = {}
        for token in tokens.difference(refs):
            try:
                refs[token] = self._coerce_ref(token, ambient)
            except ValidationError as exc:
                errors[token] = exc
        if errors or not clean:
            for index, row in enumerate(rows):
                for e in row:
                    if not _interpretable(e):
                        return [], (index, ValidationError(f"cannot interpret face entry {e!r}"))
                    if e in errors:
                        return [], (index, errors[e])
        columns = [list(map(refs.__getitem__, column)) for column in _columns(rows, ambient + 2)]
        return list(zip(*columns)), None

    def check_face_identities(self) -> None:
        """Check d_i d_j = d_{j-1} d_i (i < j) on every stored simplex.

        One pass per dimension: column i holds d_i of every simplex there,
        the faces of a nondegenerate face are read from the table and those
        of each distinct degenerate face are computed once, so d_k d_i is a
        column too and each identity is one compare of two columns.  A
        failure names the first simplex in stored order, then j, then i.
        """
        table = self._faces
        for n in range(2, self.top_dim() + 1):
            keys = self._simplices.get(n)
            if not keys:
                continue
            columns = _columns(list(map(table.__getitem__, keys)), n + 1)
            distinct = list(set(chain.from_iterable(columns)))
            # the stored row of each base, then computed faces for the faces
            # with a nonempty word
            faces_of = dict(zip(distinct, map(table.get, map(itemgetter(1), distinct))))
            for face in compress(distinct, map(itemgetter(2), distinct)):
                faces_of[face] = [self.face_of(face, k) for k in range(n)]
            # twice[i][k] is the column of d_k d_i
            twice = [_columns(list(map(faces_of.__getitem__, column)), n) for column in columns]
            failing = [
                (j, i) for j in range(1, n + 1) for i in range(j) if twice[j][i] != twice[i][j - 1]
            ]
            if failing:
                p = min(
                    next(compress(count(), map(ne, twice[j][i], twice[i][j - 1])))
                    for j, i in failing
                )
                j, i = next((j, i) for j, i in failing if twice[j][i][p] != twice[i][j - 1][p])
                raise ValidationError(
                    f"face identity fails on {keys[p]!r}: d_{i} d_{j} != d_{j - 1} d_{i}", keys[p]
                )

    @classmethod
    def from_tables(
        cls,
        truncation: int,
        simplices: Mapping[int, Sequence[Any]],
        faces: dict[Any, tuple[SimplexRef, ...]],
        basepoint: Any,
        top_bound: Optional[int] = None,
    ) -> "FiniteSimplicialSet":
        """Trusted constructor for tables a construction already made
        canonical (faces as ``SimplexRef`` tuples); nothing is validated.

        ``top_bound`` overrides ``top_dim`` when only part of a larger object
        could be materialized, such as a quotient of a truncated smash power.
        """
        space = cls.__new__(cls)
        space.truncation = truncation
        space._simplices = {n: tuple(keys) for n, keys in simplices.items() if keys}
        space._dim_of = {key: n for n, keys in space._simplices.items() for key in keys}
        space._basepoint = basepoint
        space._faces = faces
        space._top_bound = top_bound
        return space

    def _coerce_ref(self, entry: Any, ambient: int) -> SimplexRef:
        ref = entry if isinstance(entry, SimplexRef) else parse_ref_token(entry, self._dim_of)
        if ref.base not in self._dim_of or self._dim_of[ref.base] != ref.base_dim:
            raise ValidationError(f"face ref {entry!r} names an unknown simplex")
        if ref.dim != ambient:
            raise ValidationError(
                f"face ref {entry!r} has dimension {ref.dim}, expected {ambient}"
            )
        if tuple(sorted(set(ref.word))) != ref.word or (
            ref.word and not 0 <= ref.word[0] <= ref.word[-1] < ambient
        ):
            raise ValidationError(f"face ref {entry!r} has a non-canonical word")
        return ref

    # -- protocol ------------------------------------------------------------
    def nondeg(self, n: int) -> tuple[Any, ...]:
        self.require(n)
        return self._simplices.get(n, ())

    def _base_face(self, base: Any, dim: int, i: int) -> SimplexRef:
        return self._faces[base][i]

    def top_dim(self) -> int:
        if self._top_bound is not None:
            return self._top_bound
        return max((n for n, keys in self._simplices.items() if keys), default=0)

    @property
    def basepoint(self) -> Any:
        return self._basepoint

    def dim_of(self, key: Any) -> int:
        return self._dim_of[key]

    def simplex(self, key: Any) -> SimplexRef:
        """The ref of a stored nondegenerate simplex, looked up by identifier."""
        return SimplexRef(self._dim_of[key], key, ())

    def __repr__(self) -> str:
        counts = ",".join(str(len(self._simplices.get(n, ()))) for n in range(self.top_dim() + 1))
        return f"<FiniteSimplicialSet dims [{counts}] trunc {self.truncation}>"


# ---------------------------------------------------------------------------
# Refs as text (shared by builders and the file format).
# ---------------------------------------------------------------------------

def as_number(field: str) -> Optional[int]:
    """The number a field of ASCII digits reads, or None for any other
    field (int() also reads "+1", "1_0" and other scripts' digits, which
    would serialize differently) and for more digits than int() converts."""
    if field.isascii() and field.isdigit():
        try:
            return int(field)
        except ValueError:  # over the interpreter's limit on digits converted
            pass
    return None


def parse_ref_token(token: str, dim_of: Mapping[Any, int]) -> SimplexRef:
    """Parse ``"label"`` or ``"s1s0@label"`` into a SimplexRef.

    Operators are written outermost first, so the indices must be strictly
    decreasing left to right; the stored word is their reversal.
    """
    word: tuple[int, ...] = ()
    label = token
    if "@" in token:
        word_part, label = token.split("@", 1)
        word = tuple(map(as_number, reversed(word_part[1:].split("s"))))
        if word_part[:1] != "s" or None in word:
            raise ValidationError(f"malformed degeneracy word in {token!r}")
        if any(a >= b for a, b in zip(word, word[1:])):
            raise ValidationError(f"degeneracy word in {token!r} is not canonical")
    if label not in dim_of:
        raise ValidationError(f"unknown simplex {label!r} in face entry {token!r}")
    return SimplexRef(dim_of[label], label, word)


def format_ref(ref: SimplexRef) -> str:
    if not ref.word:
        return str(ref.base)
    ops = "".join(f"s{j}" for j in reversed(ref.word))
    return f"{ops}@{ref.base}"


# ---------------------------------------------------------------------------
# Involutions.
# ---------------------------------------------------------------------------

class Involution:
    """An order-<=2 simplicial automorphism fixing the basepoint.

    Given as a mapping on nondegenerate simplices (absent keys are fixed).
    It must square to the identity and commute with every face map, and
    construction checks both.
    """

    def __init__(self, space: FiniteSimplicialSet, mapping: Mapping[Any, Any] = ()):
        self.space = space
        self._map: dict[Any, Any] = dict(mapping) if mapping else {}
        dim_of = space._dim_of
        dim = dim_of.__getitem__
        if not (
            self._map.keys() <= dim_of.keys()
            and all(map(dim_of.__contains__, self._map.values()))
            and all(map(eq, map(dim, self._map), map(dim, self._map.values())))
        ):
            src, dst = next(
                (src, dst) for src, dst in self._map.items()
                if src not in dim_of or dst not in dim_of or dim_of[src] != dim_of[dst]
            )
            if src not in dim_of or dst not in dim_of:
                raise ValidationError(f"involution names unknown simplex {src!r} -> {dst!r}", src)
            raise ValidationError(f"involution {src!r} -> {dst!r} changes dimension", src)
        self._pairs: dict[int, list[int]] = {}
        self.check()

    def __call__(self, key: Any) -> Any:
        return self._map.get(key, key)

    def pairing(self, n: int) -> list[int]:
        """The place among ``space.nondeg(n)`` of each simplex's partner,
        its own place when it is fixed; the first-stored member of an orbit
        sits at the smaller place of the two.  Computed on first use, once
        per dimension, and kept."""
        pairs = self._pairs.get(n)
        if pairs is None:
            pairs = self._pairs[n] = self._pair(n)
        return pairs

    def _pair(self, n: int) -> list[int]:
        keys = self.space.nondeg(n)
        place = dict(zip(keys, count()))
        return list(map(place.__getitem__, map(self._map.get, keys, keys)))

    def fixed(self, n: int) -> tuple[Any, ...]:
        return tuple(compress(self.space.nondeg(n), map(eq, self.pairing(n), count())))

    def check(self) -> None:
        """The involution fixes the basepoint, squares to one and commutes
        with every face map, checked one dimension at a time over whole
        columns.  A failure names the first simplex in stored order, and
        for it the square before d_0, d_1, ..."""
        space = self.space
        t = self._map.get
        if t(space.basepoint, space.basepoint) != space.basepoint:
            raise ValidationError("involution moves the basepoint", space.basepoint)
        table = space._faces
        for n in range(space.top_dim() + 1):
            keys = space.nondeg(n)
            images = list(map(t, keys, keys))
            # (position of the first failing simplex, face index or -1 for the
            # square); position len(keys) when nothing fails
            squares = map(t, images, images)
            failures = [(next(compress(count(), map(ne, squares, keys)), len(keys)), -1)]
            if n:
                # t commutes with degeneracies, so t(d_i x) = d_i(tx) says that
                # the stored faces of x and tx share base dimension and word,
                # and that t maps the one base to the other
                rows = list(map(table.__getitem__, keys))
                image_rows = list(map(table.__getitem__, images))
                for i in range(n + 1):
                    column = list(map(itemgetter(i), rows))
                    faces = list(set(column))
                    bases = list(map(itemgetter(1), faces))
                    # plain tuples, equal to the refs they stand for: the
                    # collector stops tracking them, unlike SimplexRefs
                    moved = dict(zip(faces, zip(
                        map(itemgetter(0), faces), map(t, bases, bases), map(itemgetter(2), faces)
                    )))
                    wrong = map(ne, map(moved.__getitem__, column), map(itemgetter(i), image_rows))
                    failures.append((next(compress(count(), wrong), len(keys)), i))
            p, i = min(failures)
            if p < len(keys):
                key = keys[p]
                if i < 0:
                    raise ValidationError(f"involution does not square to one at {key!r}", key)
                raise ValidationError(f"involution fails to commute with d_{i} at {key!r}", key)


# ---------------------------------------------------------------------------
# Pointed subsets.
# ---------------------------------------------------------------------------

class PointedSubset(SimplicialSet):
    """A face-closed set of nondegenerate simplices of an ambient set.

    Contains the basepoint.  A subset is itself a pointed simplicial set
    (faces are taken in the ambient set and stay inside), so homology can be
    computed on it directly.  ``top_bound`` may be supplied when the
    construction guarantees there are no members above some dimension even
    though enumeration stopped at ``truncation``.

    Members keep the order the caller lists them in, with repeats dropped
    and dimensions ascending; the basepoint, when the caller leaves it out,
    comes first.  ``check`` verifies that every member is a nondegenerate
    simplex of the ambient at its dimension and that the members are closed
    under faces.
    """

    def __init__(
        self,
        ambient: SimplicialSet,
        members: Mapping[int, Iterable[Any]],
        truncation: Optional[int] = None,
        top_bound: Optional[int] = None,
        check: bool = True,
    ):
        self.ambient = ambient
        self.truncation = ambient.truncation if truncation is None else truncation
        ambient.require(self.truncation)
        # dict keys keep the order, drop repeats and answer membership
        keys = {n: dict.fromkeys(ks) for n, ks in members.items()}
        if ambient.basepoint not in keys.setdefault(0, {}):
            keys[0] = {ambient.basepoint: None, **keys[0]}
        self._member_sets = {n: ks for n, ks in sorted(keys.items()) if ks}
        self._members = {n: tuple(ks) for n, ks in self._member_sets.items()}
        self._top_bound = ambient.top_dim()
        if top_bound is None and self.reaches(self._top_bound):
            top_bound = max(self._members)  # known through the ambient's top
        if top_bound is not None:
            self._top_bound = min(top_bound, self._top_bound)
        if check:
            self.check_closure()

    # -- protocol ------------------------------------------------------------
    def nondeg(self, n: int) -> tuple[Any, ...]:
        self.require(n)
        return self._members.get(n, ())

    def _base_face(self, base: Any, dim: int, i: int) -> SimplexRef:
        return self.ambient._base_face(base, dim, i)

    def top_dim(self) -> int:
        return self._top_bound

    @property
    def basepoint(self) -> Any:
        return self.ambient.basepoint

    # -- set behaviour ---------------------------------------------------------
    def contains_key(self, n: int, key: Any) -> bool:
        return key in self._member_sets.get(n, ())

    def contains_ref(self, ref: SimplexRef) -> bool:
        """Whether a simplex (possibly degenerate) lies in the subset."""
        return self.contains_key(ref.base_dim, ref.base)

    def counts(self) -> dict[int, int]:
        return {n: len(ks) for n, ks in self._members.items()}

    def same_members(self, other: "PointedSubset") -> bool:
        # dicts compare as sets of keys here: every value is None
        return self._member_sets == other._member_sets

    def check_closure(self) -> None:
        """Every member is a nondegenerate simplex of the ambient at its
        dimension, and every face of a member lies in the subset.

        Each dimension is checked whole: the members against the stored
        simplices, then each distinct face of a member once.  Only when
        something fails are the members scanned again in stored order, so
        the error names the first failing member, and for it the first
        failing face."""
        ambient = self.ambient
        for n, keys in self._member_sets.items():
            stored = set(ambient.nondeg(n))
            if keys.keys() <= stored:
                if not n:
                    continue
                # members are nondegenerate, so their faces are stored ones
                if isinstance(ambient, FiniteSimplicialSet):
                    faces = set(chain.from_iterable(map(ambient._faces.__getitem__, keys)))
                else:
                    faces = {ambient._base_face(key, n, i) for key in keys for i in range(n + 1)}
                if all(map(self.contains_ref, faces)):
                    continue
            for key in keys:
                if key not in stored:
                    raise ValidationError(f"{key!r} is not a nondegenerate {n}-simplex", key)
                for i in range(n + 1 if n else 0):
                    if not self.contains_ref(ambient._base_face(key, n, i)):
                        raise ValidationError(
                            f"subset is not face-closed: face {i} of {key!r} escapes"
                        )

    def __repr__(self) -> str:
        return f"<PointedSubset {self.counts()} of {self.ambient!r}>"


def basepoint_subset(space: SimplicialSet) -> PointedSubset:
    return PointedSubset(space, {0: [space.basepoint]}, top_bound=0, check=False)
