"""Normalized reduced chains over GF(2) and their homology.

The normalized chain complex of a pointed simplicial set has one generator
per nondegenerate non-basepoint simplex; the boundary is the alternating
face sum, where signs vanish mod 2 and faces whose canonical form is
degenerate or the basepoint contribute nothing.  Everything downstream is
sparse linear algebra over the two-element field: columns are sets of rows
(indices or cell codes) and row operations are symmetric differences, so
results are exact, with no tolerances.
"""

from __future__ import annotations

from functools import reduce
from operator import iconcat
from typing import Any, Collection, Container, Hashable, Iterable, Mapping, Optional, Sequence

from .simplicial import SimplicialSet


class UncertifiedRangeError(ValueError):
    """A Betti number was requested beyond the certified range of a table."""


# ---------------------------------------------------------------------------
# Sparse GF(2) matrices.
# ---------------------------------------------------------------------------

class GF2SparseMatrix:
    """A sparse matrix over GF(2): sorted row-index tuples per column."""

    __slots__ = ("nrows", "ncols", "cols", "_rank")

    def __init__(self, nrows: int, ncols: int, cols: Sequence[Iterable[int]]):
        if len(cols) != ncols:
            raise ValueError("column count mismatch")
        self.nrows = nrows
        self.ncols = ncols
        packed = []
        for col in cols:
            rows = tuple(sorted(col))
            if rows and not (0 <= rows[0] and rows[-1] < nrows):
                raise ValueError("row index out of range")
            if any(a == b for a, b in zip(rows, rows[1:])):
                raise ValueError("duplicate entry in a column")
            packed.append(rows)
        self.cols = tuple(packed)
        self._rank: Optional[int] = None

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "GF2SparseMatrix":
        return cls(nrows, ncols, [()] * ncols)

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = rank_of_columns(self.cols)
        return self._rank

    def __repr__(self) -> str:
        return f"<GF2SparseMatrix {self.nrows}x{self.ncols} nnz={self.nnz()}>"


def reduce_columns(
    cols: Iterable[tuple[Hashable, Collection[int]]], skip: Container[Hashable] = ()
) -> dict[int, Collection[int]]:
    """Column elimination with largest-row pivoting over (id, column)
    pairs, leaving out the columns whose id is in ``skip``; the reduced
    nonzero columns by pivot row.

    The input columns are never mutated.  A column that needs no elimination
    is stored as given, so it aliases the caller's column, a tuple, set or
    list (the brute kernel's coboundary rows stay the lists they were built
    in); only the column being reduced is a set, and it is stored as a
    tuple once reduced.
    """
    pivots: dict[int, Collection[int]] = {}
    get = pivots.get
    for j, col in cols:
        if not col or j in skip:
            continue
        p = max(col)
        other = get(p)
        if other is None:
            pivots[p] = col
            continue
        c = set(col)
        while True:
            c.symmetric_difference_update(other)
            if not c:
                break
            p = max(c)
            other = get(p)
            if other is None:
                pivots[p] = tuple(c)
                break
    return pivots


def rank_of_columns(cols: Iterable[Collection[int]]) -> int:
    """GF(2) rank by column elimination with largest-row pivoting."""
    return len(reduce_columns(enumerate(cols)))


def transpose(cols: Iterable[Iterable[int]], nrows: int) -> list[tuple[int, ...]]:
    """The columns of the transpose of a matrix with ``nrows`` rows: for
    each row, the ascending indices of the columns holding it."""
    rows: list[list[int]] = [[] for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].append(j)
    return list(map(tuple, rows))


Coboundary = Sequence[Collection[int]] | Mapping[Hashable, Collection[int]]


def boundary_ranks(
    coboundaries: Mapping[int, Coboundary] | Iterable[tuple[int, Coboundary]],
) -> dict[int, int]:
    """Ranks of the boundary matrices of a GF(2) chain complex, given by
    their transposes: the coboundary to degree n lists, for each
    (n - 1)-cell, the n-cells whose boundary holds it; a cell is named by
    its index where its coboundary is a sequence and by its key where it is
    a mapping.  Given as a mapping n -> coboundary to n, or as
    ``(n, coboundary)`` pairs from the lowest degree up; the result maps n
    to the rank of the boundary from n.  A pivot is the largest name in a
    column, so the order of the names decides the pivots and the fill-in,
    and so the work, but never the ranks.  Indices are small ints, which
    make the pivot lookups and the sorts of the check below cheapest.

    Works bottom up, reducing the coboundary to n with clearing (de Silva,
    Morozov and Vejdemo-Johansson, "Dualities in persistent (co)homology",
    2011; Chen and Kerber, "Persistent homology computation with a twist",
    2011): a reduced column of the coboundary to n - 1 with pivot row j is
    a coboundary, so the one to n kills it, which makes column j of that
    one a sum of other columns.  Skipping every such column leaves the rank
    unchanged, and what is left to eliminate to zero is one column per
    (n - 1)-st Betti number.  Of the coboundary below only these pivots are
    kept, and before the one to n is reduced it must kill each of them, or
    ValueError is raised.  That is exactly d_(n-1) d_n = 0: once the pair
    below has passed, a column that clearing skipped or that was eliminated
    to zero is a sum of pivots, so the pivots span the columns.
    """
    if isinstance(coboundaries, Mapping):
        coboundaries = sorted(coboundaries.items())
    ranks: dict[int, int] = {}
    below: Optional[int] = None  # the degree of the last coboundary, if any
    pivots: dict[int, Collection[int]] = {}  # its reduced columns by pivot row
    for n, rows in coboundaries:
        if below is not None and n <= below:
            raise ValueError("coboundaries must come from the lowest degree up")
        adjacent = below == n - 1
        if adjacent:
            check_squares_to_zero(rows, pivots.values(), n)
        columns = rows.items() if isinstance(rows, Mapping) else enumerate(rows)
        pivots = reduce_columns(columns, pivots if adjacent else ())
        ranks[n] = len(pivots)
        below = n
        del rows, columns  # the raw coboundary goes before the next is built
    return ranks


def check_squares_to_zero(upper: Coboundary, lower: Iterable[Iterable[int]], n: int) -> None:
    """Raise unless the coboundary to n (``upper``) kills every column of
    ``lower``, the pivots of the coboundary to n - 1 (or its columns): that
    is d_(n-1) d_n = 0.

    A column is killed when the rows of ``upper`` it names hold every cell
    an even number of times.  Their concatenation, sorted, does exactly
    when its even and odd positions agree: a run of equal cells of odd
    length would pair its first or last cell with a different one, and an
    odd total length makes the two halves differ in length.  So each column
    costs one gather, one sort and one comparison, all in C.  The rows are
    gathered by extending a fresh list per column in place; the rows
    themselves, lists or tuples, are only read, since ``upper`` is reduced
    next and its pivots are checked against the coboundary above.
    """
    rows = upper.__getitem__
    for col in lower:
        flat = reduce(iconcat, map(rows, col), [])  # never a row as the start
        flat.sort()
        if flat[::2] != flat[1::2]:
            raise ValueError(f"boundary does not square to zero at dimension {n}")


# ---------------------------------------------------------------------------
# Betti tables.
# ---------------------------------------------------------------------------

class BettiTable:
    """Map dimension -> mod-2 Betti number, with an explicit certified range.

    Entries are certified for ``n <= certified`` and known to vanish for
    ``n >= zero_from`` (when set); queries outside both windows raise, never
    silently return zero.
    """

    __slots__ = ("_entries", "certified", "zero_from")

    def __init__(
        self,
        entries: Mapping[int, int],
        certified: int,
        zero_from: Optional[int] = None,
    ):
        self._entries = {n: v for n, v in entries.items() if v}
        for n, v in self._entries.items():
            if v < 0:
                raise ValueError("Betti numbers are nonnegative")
            if n > certified:
                raise ValueError(f"nonzero entry at {n} outside the certified range")
            if zero_from is not None and n >= zero_from:
                raise ValueError(f"nonzero entry at {n} contradicts vanishing from {zero_from}")
        self.certified = certified
        self.zero_from = zero_from

    def __getitem__(self, n: int) -> int:
        if n < 0:
            return 0
        if n <= self.certified:
            return self._entries.get(n, 0)
        if self.zero_from is not None and n >= self.zero_from:
            return 0
        raise UncertifiedRangeError(
            f"Betti number at dimension {n} is outside the certified range "
            f"(certified through {self.certified})"
        )

    def covers(self, n: int) -> bool:
        return n <= self.certified or (self.zero_from is not None and n >= self.zero_from)

    @property
    def complete(self) -> bool:
        return self.zero_from is not None and self.zero_from <= self.certified + 1

    def support(self) -> list[int]:
        return sorted(self._entries)

    def through(self, n_max: int) -> dict[int, int]:
        return {n: self[n] for n in range(n_max + 1)}

    def nonzero(self) -> dict[int, int]:
        return dict(sorted(self._entries.items()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BettiTable)
            and self._entries == other._entries
            and self.certified == other.certified
            and self.zero_from == other.zero_from
        )

    def __repr__(self) -> str:
        tail = "" if self.zero_from is None else f", 0 from {self.zero_from}"
        return f"BettiTable({self.nonzero()}, certified<={self.certified}{tail})"


def table_from_dict(entries: Mapping[int, int]) -> BettiTable:
    """A fully certified table: zero everywhere outside the given entries."""
    top = max((n for n, v in entries.items() if v), default=-1)
    return BettiTable(entries, certified=top, zero_from=top + 1)


def _first_uncovered(t: BettiTable) -> Optional[int]:
    n = max(t.certified + 1, 0)
    return None if t.zero_from is not None and n >= t.zero_from else n


def _first_unknown_or_nonzero(t: BettiTable) -> Optional[int]:
    known = [n for n in (_first_uncovered(t), min(t.support(), default=None)) if n is not None]
    return min(known, default=None)


def kunneth(a: BettiTable, b: BettiTable) -> BettiTable:
    """Field-coefficient Betti table of a smash product, by convolution.

    Degree n is certified when every split p + q = n has both factors
    covered, or a covered zero on one side.  A split fails exactly when one
    side is uncovered and the other nonzero or uncovered, so the first
    failing degree is the first uncovered degree of one table plus the
    first nonzero-or-uncovered degree of the other.  Products landing above
    the certified range are dropped: they are only lower bounds.
    """
    if a.zero_from is not None and b.zero_from is not None:
        zero_from: Optional[int] = max(a.zero_from + b.zero_from - 1, 0)
    else:
        zero_from = None
    scan_cap = max(
        a.certified + b.certified + 2,
        (zero_from if zero_from is not None else 0),
    )
    fails = []
    for x, y in ((a, b), (b, a)):
        gap, other = _first_uncovered(x), _first_unknown_or_nonzero(y)
        if gap is not None and other is not None:
            fails.append(gap + other)
    certified = min(scan_cap, min(fails) - 1) if fails else scan_cap
    entries: dict[int, int] = {}
    for p, vp in a.nonzero().items():
        for q, vq in b.nonzero().items():
            if p + q <= certified:
                entries[p + q] = entries.get(p + q, 0) + vp * vq
    return BettiTable(entries, certified=certified, zero_from=zero_from)


def kunneth_power(table: BettiTable, s: int) -> BettiTable:
    if s < 1:
        raise ValueError("smash power of tables needs s >= 1")
    out = table
    for _ in range(s - 1):
        out = kunneth(out, table)
    return out


# ---------------------------------------------------------------------------
# Chain complexes.
# ---------------------------------------------------------------------------

class ChainComplexGF2:
    """Normalized reduced chains of a pointed simplicial set over GF(2),
    checked to square to zero and ranked when built."""

    def __init__(self, space: SimplicialSet, top: int):
        need = min(top, space.top_dim())
        space.require(need)
        self.space = space
        self.top = top
        bases: dict[int, tuple[Any, ...]] = {}
        for n in range(need + 1):
            keys = tuple(k for k in space.nondeg(n) if not (n == 0 and k == space.basepoint))
            bases[n] = keys
        self._bases = bases
        self._index = {
            n: {k: i for i, k in enumerate(keys)} for n, keys in bases.items()
        }
        matrices: dict[int, GF2SparseMatrix] = {}
        for n in range(1, need + 1):
            rows = len(bases.get(n - 1, ()))
            cols = []
            index = self._index.get(n - 1, {})
            for key in bases[n]:
                col: set[int] = set()
                for i in range(n + 1):
                    face = space._base_face(key, n, i)
                    if face.word or space.is_basepoint_ref(face):
                        continue
                    col ^= {index[face.base]}
                cols.append(col)
            matrices[n] = GF2SparseMatrix(rows, len(bases[n]), cols)
        self._matrices = matrices
        self.check_boundary_squares_to_zero()

    def basis(self, n: int) -> tuple[Any, ...]:
        return self._bases.get(n, ())

    def basis_index(self, n: int) -> Mapping[Any, int]:
        return self._index.get(n, {})

    def boundary(self, n: int) -> GF2SparseMatrix:
        mat = self._matrices.get(n)
        if mat is None:
            mat = GF2SparseMatrix.zero(len(self.basis(n - 1)), len(self.basis(n)))
        return mat

    def check_boundary_squares_to_zero(self) -> None:
        """Check that the boundary squares to zero and store the ranks, in
        one pass of ``boundary_ranks`` over the transposes, made one at a
        time from degree 1 up."""
        self._ranks = boundary_ranks(
            (n, transpose(m.cols, m.nrows)) for n, m in sorted(self._matrices.items())
        )

    def ranks(self) -> dict[int, int]:
        """Rank of the boundary from each degree (absent where it is zero)."""
        return self._ranks

    def betti(self, n: int) -> int:
        ranks = self.ranks()
        return len(self.basis(n)) - ranks.get(n, 0) - ranks.get(n + 1, 0)


def reduced_betti(space: SimplicialSet, t_max: int) -> BettiTable:
    """Reduced mod-2 Betti numbers through dimension ``t_max``.

    Needs chains one dimension higher than the last certified entry, so the
    space must either be truncated past ``t_max`` or have no nondegenerate
    simplices there.
    """
    cc = ChainComplexGF2(space, t_max + 1)
    entries = {n: cc.betti(n) for n in range(t_max + 1)}
    return BettiTable(entries, certified=t_max, zero_from=space.top_dim() + 1)
