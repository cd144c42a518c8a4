"""Pinched subsets of smash powers and their homology.

Inside the s-fold smash power of the orbit space Q sits the pinched subset:
tuples with some adjacent pair of components equal and lying in the fixed
subset A.  This module enumerates that subset on integer tables of the
factor, built one dimension at a time from the one below through the
simplicial identities, so that only nondegenerate simplices read their
stored faces; per dimension it walks once over the slots, whose states
record what a prefix still allows.  The same walk, accepting the runs
with no such pair, gives the cells of the quotient of the smash power by
the subset.  One shared kernel computes the homology of both by brute
force on the same tables.  It codes each cell with one field per slot,
and the walk lists each dimension's codes in ascending order; a cell's
position in that order is its id in the cochains.  Where every component
fits a byte and s <= 8 the code is a 64-bit word of one byte per slot, the
walk writes a dimension as one buffer of words, and face k of a whole
dimension is one ``bytes.translate`` of its words; wider tables keep int
codes and find faces through tables over groups of slots.  Both build and
reduce the cochains from degree 0 up.  The module also
evaluates the cover-intersection Betti sum, a function of the Betti tables
of Q and A alone, which gives the pinched homology when the reduced
diagonal of A is homologous to zero; ``check_diagonal_null`` decides that
hypothesis, and ``mv_e1_betti`` checks it on every call.  The paper's
other constructions of the subset (blockwise pieces indexed by
compositions, their intersections, their union and the two-term recursion)
are checked against this one in the test suite and run nowhere else.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import combinations, compress, repeat
from operator import and_, eq, not_, or_, rshift
from typing import Any, Iterable, Optional, Sequence

from .closed_form import BettiInput
from .constructions import TupleSpace, smash_power
from .homology import BettiTable, boundary_ranks, kunneth, reduced_betti
from .simplicial import (
    FiniteSimplicialSet,
    PointedSubset,
    SimplicialSet,
    ValidationError,
    basepoint_subset,
    collector_paused,
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

    Component i at dimension n stands for the i-th simplex of the factor in
    ``q.refs_at(n, include_basepoint=False)`` (degenerate ones included;
    basepoint-based ones left out, since they collapse the smash).
    ``masks[n][i]`` is its degeneracy word as a bitmask and ``fixed[n][i]``
    whether it lies in the fixed set.  ``faces[n][k][i]`` is the index at
    n - 1 of face k of component i, or the basepoint marker, the last index
    of ``masks[n - 1]``, whose mask is -1 (every bit), so that it never
    makes a face look nondegenerate.
    ``groups[n]`` buckets the components by mask.

    The tables are built one dimension at a time from the ones below.  The
    components at n come in blocks, one per base dimension p, holding the
    bases of dimension p in order, each with the same C(n, n - p) words in
    ``combinations`` order.  So a column of one word across a block is an
    extended slice, and a degenerate component at n + 1 whose word has
    largest index m is s_m y, its y at n sharing its block and base.  The
    simplicial identities (Goerss and Jardine, Simplicial Homotopy Theory,
    I.1) then give its faces from those of y: d_k s_m y is y for
    k in {m, m + 1}, s_(m-1) d_k y for k < m and s_m d_(k-1) y for
    k > m + 1, so each costs one lookup in ``faces[n]`` and one in a
    degeneracy table, whole word columns at once.  Only nondegenerate
    components read the stored face lists.  The basepoint marker's
    degeneracies are the marker.
    """

    def __init__(self, q: SimplicialSet, fixed: PointedSubset, top: int):
        self.top_q = q.top_dim()
        self.masks: list[list[int]] = []
        self.fixed: list[list[bool]] = []
        self.faces: list[list[list[int]]] = []
        self.groups: list[list[tuple[int, list[int]]]] = []
        bases: list[dict[Any, int]] = []  # per dimension: each base's place among them
        blocks: dict[int, _Block] = {}
        lifts: list[list[int]] = []
        for n in range(top + 1):
            if n <= self.top_q:
                keys = [k for k in q.nondeg(n) if n or k != q.basepoint]
                bases.append({key: j for j, key in enumerate(keys)})
            below, blocks, size = blocks, {}, 0
            for p in range(min(n, self.top_q) + 1):
                if bases[p]:
                    words = [sum(1 << w for w in word) for word in combinations(range(n), n - p)]
                    rank = {m: r for r, m in enumerate(words)}
                    blocks[p] = (size, len(bases[p]), words, rank)
                    size += len(bases[p]) * len(words)
            if n:
                low = len(self.masks[-1]) - 1  # the components at n - 1, and their marker
                faces = _faces(q, n, bases, below, blocks, self.faces[-1], lifts, low, size)
                self.faces.append(faces)
                lifts = _lifts(n, below, blocks, low, size)
            else:
                self.faces.append([])
            masks: list[int] = []
            flags: list[bool] = []
            groups: list[tuple[int, list[int]]] = []
            for p, (start, count, words, _) in blocks.items():
                masks += words * count
                for key in bases[p]:
                    flags += [fixed.contains_key(p, key)] * len(words)
                stop, width = start + count * len(words), len(words)
                groups += [(m, list(range(start + r, stop, width))) for r, m in enumerate(words)]
            self.masks.append(masks + [-1])
            self.fixed.append(flags)
            self.groups.append(groups)


# the components at one n of the bases of one dimension:
# (first index, number of bases, the words' masks in ``combinations``
# order, each mask's place among them)
_Block = tuple[int, int, list[int], dict[int, int]]


def _faces(
    q: SimplicialSet,
    n: int,
    bases: list[dict[Any, int]],
    below: dict[int, _Block],
    blocks: dict[int, _Block],
    low_faces: list[list[int]],
    lifts: list[list[int]],
    marker: int,
    size: int,
) -> list[list[int]]:
    """``faces[n]`` of the ``size`` components in ``blocks``, from the
    blocks, ``faces[n - 1]`` and the ``_lifts`` into n - 1 below;
    ``marker`` is the basepoint marker at n - 1."""
    faces = [[marker] * size for _ in range(n + 1)]
    for p, (start, count, words, _) in blocks.items():
        stop, width = start + count * len(words), len(words)
        if p == n:  # nondegenerate: the stored face lists
            for k, face in enumerate(faces):
                for key, j in bases[n].items():
                    ref = q._base_face(key, n, k)
                    if not q.is_basepoint_ref(ref):
                        low_start, _, low_words, low_rank = below[ref.base_dim]
                        place = bases[ref.base_dim][ref.base] * len(low_words)
                        word = sum(1 << w for w in ref.word)
                        face[start + j] = low_start + place + low_rank[word]
            continue
        low_start, _, low_words, low_rank = below[p]
        low_stop = low_start + count * len(low_words)
        for r, word in enumerate(words):
            m = word.bit_length() - 1  # the component is s_m y, y in the same block
            ys = slice(low_start + low_rank[word ^ 1 << m], low_stop, len(low_words))
            for k, face in enumerate(faces):
                if k < m:
                    column = map(lifts[m - 1].__getitem__, low_faces[k][ys])
                elif k <= m + 1:
                    column = range(ys.start, ys.stop, ys.step)
                else:
                    column = map(lifts[m].__getitem__, low_faces[k - 1][ys])
                face[start + r:stop:width] = column
    return faces


def _lifts(
    n: int, below: dict[int, _Block], blocks: dict[int, _Block], low: int, marker: int
) -> list[list[int]]:
    """For j = 0..n - 1, the index at n of s_j of each of the ``low``
    components at n - 1 (``below``), then ``marker``, the basepoint marker
    at n, for the one at n - 1."""
    out = []
    for j in range(n):
        lift = [marker] * (low + 1)
        for p, (start, count, words, _) in below.items():
            high_start, _, high_words, high_rank = blocks[p]
            high_stop, high_width = high_start + count * len(high_words), len(high_words)
            for r, word in enumerate(words):
                lifted = word & ((1 << j) - 1) | 1 << j | word >> j << (j + 1)
                high = range(high_start + high_rank[lifted], high_stop, high_width)
                lift[start + r:start + count * len(words):len(words)] = high
        out.append(lift)
    return out


_State = tuple[int, int, bool]

# one slot group of the walk: (mask, its components, those of them outside
# the fixed set, those in it)
_Group = tuple[int, list[int], list[int], list[int]]


def _moves(
    groups: list[_Group], masks: list[int], top_q: int, pinched: bool, state: _State, rem: int
) -> Iterable[tuple[Sequence[int], _State]]:
    """Runs of the components the next slot of ``_walk`` may take, each
    with the state after it, ``rem`` slots being left with this one.  A
    state's last component is fixed or -1, so the members of a group
    outside the fixed set never repeat it, and all step to one state: they
    are one run, whatever their number."""
    common, last, witnessed = state
    cap = (rem - 1) * top_q  # the most the slots after this one clear
    for mask, members, free, held in groups:
        inter = common & mask
        bits = inter.bit_count()
        if bits > cap:
            continue
        if witnessed:
            yield members, (inter, -1, True)
        elif pinched and (rem == 1 or bits > cap - top_q):  # only the witness fits
            if last >= 0 and mask == masks[last]:
                yield (last,), (inter, -1, True)
        else:
            if free:
                yield free, (inter, -1, False)
            for i in held:
                if i != last:
                    yield (i,), (inter, i, False)
                elif pinched:
                    yield (i,), (inter, -1, True)


def _cells(tables: _FactorTables, s: int, n: int, pinched: bool) -> Sequence[int]:
    """The nondegenerate s-tuples at ambient dimension n (s >= 2), as
    ascending cell codes (see ``_slot_bits``): for ``pinched`` those with an
    adjacent equal pair of fixed components (a witness), else those without
    one: the cells but the basepoint of the smash power modulo the subset.

    On byte-sized tables the codes are one buffer of native 64-bit words
    (``_walk`` with ``words``), read as a ``memoryview`` cast to "Q";
    elsewhere they are a list of ints.  A cell's place in this ascending
    order is its id in the cochains.
    """
    if _byte_sized(tables, s, n):
        return memoryview(_walk(tables, s, n, pinched, True)).cast("Q")
    return _walk(tables, s, n, pinched, False)


def _walk(tables: _FactorTables, s: int, n: int, pinched: bool, words: bool) -> Any:
    """The codes of ``_cells``, ascending: for ``words`` one bytearray of
    native 64-bit words, else a list of ints.

    The cells are the accepted runs of one walk over the slots, whose state
    after a prefix, (common degeneracy word, last component while a repeat
    of it could still make a witness else -1, whether a witness exists),
    fixes what can follow.  The word must end empty, and a component of
    base dimension p clears at most p <= top(Q) bits of it, none when it
    repeats its predecessor; so until a witness exists, the slots left
    clear top(Q) fewer bits.  The pinched walk accepts the runs that end
    witnessed; the other drops every move that would witness.  A forward
    pass lists the states reachable after each slot; a backward pass then
    builds the codes of the slots left after each, once per state, from
    the last slot to the first, holding two levels.  A state's codes take
    its digits in ascending order, each followed by the ascending codes of
    the state after it, so they ascend.  The slot fields are disjoint, so a
    digit goes onto those codes without a carry: by an OR onto each int, or
    for words by one join of their words and one extended-slice assignment
    of the slot's bytes, 0 in them, per state.
    """
    masks, fixed = tables.masks[n], tables.fixed[n]
    groups: list[_Group] = []
    for mask, members in tables.groups[n]:
        flags = list(map(fixed.__getitem__, members))
        free = list(compress(members, map(not_, flags)))
        groups.append((mask, members, free, list(compress(members, flags))))
    top_q, bits, offsets = tables.top_q, _slot_bits(tables, s, n), _slot_offsets(s)
    moves = partial(_moves, groups, masks, top_q, pinched)

    root = (-1, -1, False)
    levels = [{root}]
    for rem in range(s, 1, -1):
        levels.append({after for state in levels[-1] for _, after in moves(state, rem)})
    suffixes: dict[_State, Any] = {}
    for state in levels.pop():  # the last slot's digits after each state
        if digits := sorted([
            i + 1 for run, after in moves(state, 1) if after[2] == pinched for i in run
        ]):
            if words:
                suffixes[state] = bytearray(_WORD * len(digits))
                suffixes[state][offsets[-1]::_WORD] = bytes(digits)
            else:
                suffixes[state] = digits
    for rem, states in enumerate(reversed(levels), start=2):
        shift, at = bits * (rem - 1), offsets[s - rem]
        level: dict[_State, Any] = {}
        for state in states:
            # the digits ascending (a component is in one run), each with the
            # codes of the state after it, where it has some
            steps = sorted([
                (i + 1, after) for run, after in moves(state, rem) if after in suffixes for i in run
            ])
            if not steps:
                continue
            tails = [suffixes[after] for _, after in steps]
            if words:
                codes = level[state] = bytearray().join(tails)
                codes[at::_WORD] = b"".join([
                    _BYTES[digit] * (len(tail) // _WORD) for (digit, _), tail in zip(steps, tails)
                ])
            else:
                codes = level[state] = []
                for (digit, _), tail in zip(steps, tails):
                    codes.extend(map((digit << shift).__or__, tail))
        suffixes = level
    return suffixes.get(root, bytearray() if words else [])


_WORD = 8  # the bytes of a cell code on byte-sized tables


def _byte_sized(tables: _FactorTables, s: int, n: int) -> bool:
    """Whether the cells at n take the byte layout: s <= 8 and every
    component index + 1 at n, the basepoint marker's too, fits a byte.  The
    components at n - 1 are never more than those at n (C(n - 1, p) <=
    C(n, p) words per base), so the cells below then take it too."""
    return s <= _WORD and len(tables.masks[n]) < 256


def _slot_bits(tables: _FactorTables, s: int, n: int) -> int:
    """The bits w of one slot of a cell code at n.

    A cell at dimension n is coded as the int OR of (c_j + 1) << w(s-1-j)
    over its component indices c_j, so a slot holds a digit 1 .. R, R being
    the basepoint marker's index + 1 (len(tables.masks[n])), and digit 0
    never occurs in a slot.  Codes sort as the tuples do, and a face at
    n - 1 is coded alike with its own w.  On byte-sized tables w is 8, so a
    code is a 64-bit word of one byte per slot with zero bytes above, which
    ``bytes.translate`` maps to its face; elsewhere w is the fewest bits
    that hold R.  Built with OR, a code takes exactly the digits of its
    value, where an addition would leave one spare.
    """
    return 8 if _byte_sized(tables, s, n) else len(tables.masks[n]).bit_length()


def _digits(codes: Iterable[int], bits: int, s: int) -> list[list[int]]:
    """The component indices of each code, slot by slot (the inverse of the
    layout of ``_slot_bits``, whose w is ``bits``).  A native 64-bit word of
    the byte layout, read as an int, is its code with w = 8, so the words
    decode alike."""
    top = (1 << bits) - 1
    return [[(code >> bits * e & top) - 1 for code in codes] for e in reversed(range(s))]


def _by_digit(values: list[Any], pad: Any, size: int) -> list[Any]:
    """``values``, one per component index then the marker, as a table
    indexed by slot digit (index + 1), ``pad`` filling digit 0 and the
    digits past the marker up to ``size``."""
    return [pad, *values] + [pad] * (size - 1 - len(values))


def _face_digits(tables: _FactorTables, n: int, k: int, size: int) -> list[int]:
    """Face k as a map from a slot digit at n to a slot digit at n - 1: the
    marker's face is the marker."""
    values = [f + 1 for f in tables.faces[n][k]] + [len(tables.masks[n - 1])]
    return _by_digit(values, 0, size)


def _flagged(tables: _FactorTables, n: int, size: int) -> tuple[list[int], int]:
    """The flagged mask of each slot digit at n - 1, and the flag.

    A component's flagged mask is FLAG | its word mask, FLAG being a bit
    above every word bit at n - 1, and the basepoint marker's is every word
    bit without FLAG.  So the AND over a face's slots is exactly FLAG when
    the face is neither degenerate nor the basepoint.
    """
    flag = 1 << (n - 1)
    values = [flag | m for m in tables.masks[n - 1][:-1]] + [flag - 1]
    return _by_digit(values, flag - 1, size), flag


def _face_passes(tables: _FactorTables, n: int) -> tuple[list[int], bool]:
    """The faces k at dimension n that some nondegenerate cell can have
    nonzero, and whether no nondegenerate cell meets one face twice among
    them: both decided once per dimension on the factor tables.

    A nondegenerate cell has, for each word bit b, a component whose word
    lacks b.  So when every component lacking some b sends face k to the
    basepoint marker, face k of every such cell is the basepoint, and the
    pass is dead.  Likewise, when every component lacking some b has
    distinct faces k and k' or face k the marker, faces k and k' of every
    such cell differ or are zero, so no column holds a cell twice.
    """
    faces = tables.faces[n]
    marker = len(tables.masks[n - 1]) - 1
    lacking = [
        [i for i, m in enumerate(tables.masks[n][:-1]) if not m >> b & 1] for b in range(n)
    ]
    live = [
        k for k, face in enumerate(faces)
        if not any(all(face[i] == marker for i in comps) for comps in lacking)
    ]
    distinct = all(
        any(all(faces[k][i] != faces[j][i] or faces[k][i] == marker for i in comps)
            for comps in lacking)
        for k, j in combinations(live, 2)
    )
    return live, distinct


def _degenerate(n: int) -> ValidationError:
    return ValidationError(f"a {n}-cell is degenerate: its components share a degeneracy")


def _missing(k: int, n: int) -> ValidationError:
    return ValidationError(f"cells are not face-closed: face {k} of a {n}-cell is missing")


# ---------------------------------------------------------------------------
# The byte engine: faces by byte translation.
# ---------------------------------------------------------------------------

# the cells translated at once: a block's words, its face words and its
# slice of ids are held together
_CHUNK = 1 << 12
_IS_ZERO = bytes([1]) + bytes(255)  # a translation: byte 0 to 1, any other to 0
_IS_NONZERO = bytes([0]) + bytes([1]) * 255
_BYTES = [bytes((d,)) for d in range(256)]  # each byte value as a one-byte bytes


def _slot_offsets(s: int) -> list[int]:
    """The place of each slot's byte in a native 64-bit word."""
    if sys.byteorder == "little":
        return [s - 1 - j for j in range(s)]
    return [_WORD - s + j for j in range(s)]


def _planes(values: list[int], bits: int) -> list[bytes]:
    """A 256-digit table of ``bits``-bit values as one translation table
    per byte plane, low plane first."""
    return [
        bytes(map(and_, map(rshift, values, repeat(8 * p)), repeat(255)))
        for p in range((bits + 7) // 8)
    ]


def _and_slots(words: bytes, offsets: list[int], plane: bytes) -> int:
    """The AND over the slots of the words of their digits translated by
    ``plane``: one byte per word, the first word lowest."""
    common = -1
    for b in offsets:
        common &= int.from_bytes(words[b::_WORD].translate(plane), "little")
    return common


def _live(
    faces: bytes, offsets: list[int], flags: list[tuple[int, bytes]], loose: Optional[bytes]
) -> bytes:
    """One byte per face word: 1 where the face is neither degenerate nor
    the basepoint and, given ``loose`` (the digits outside the fixed set),
    not pinched either, else 0.  These are the faces that the byte engine
    looks up, each of which must be a cell below; the others are zero in
    the chains.

    Per byte plane of the flagged masks (``flags`` pairs the flag's byte
    with the plane's table), the AND over the slots is compared with the
    flag's byte; a face that matches in every plane is live.  A face is
    pinched where some adjacent pair of slots holds equal digits, the left
    one not loose.
    """
    size = len(faces) // _WORD
    ones = int.from_bytes(bytes([1]) * size, "little")
    differ = 0
    for byte, plane in flags:
        differ |= _and_slots(faces, offsets, plane) ^ byte * ones
    live = int.from_bytes(differ.to_bytes(size, "little").translate(_IS_ZERO), "little")
    if loose is not None:
        for left, right in zip(offsets, offsets[1:]):
            digits = faces[left::_WORD]
            apart = int.from_bytes(digits, "little") ^ int.from_bytes(faces[right::_WORD], "little")
            apart |= int.from_bytes(digits.translate(loose), "little")
            live &= int.from_bytes(apart.to_bytes(size, "little").translate(_IS_NONZERO), "little")
    return live.to_bytes(size, "little")


def _face_translations(tables: _FactorTables, n: int, passes: list[int]) -> list[bytes]:
    """Per face k in ``passes``: the translation of a word at n to the word
    of its face k at n - 1."""
    return [bytes(_face_digits(tables, n, k, 256)) for k in passes]


def _faces_of(words: bytes, translation: bytes) -> memoryview:
    """The codes of one face of the cells with these words."""
    return memoryview(words.translate(translation)).cast("Q")


def _byte_faces(
    tables: _FactorTables,
    s: int,
    n: int,
    cells: memoryview,
    ids: list[int],
    passes: list[int],
    lookup: dict[int, list[int]],
    relative: bool,
) -> None:
    """Append the id of each cell at n (``ids[j]`` for the j-th of
    ``cells``, its words) to the row ``lookup`` gives each of its live faces
    k in ``passes``, on byte-sized tables, checking every cell.

    The words go in blocks.  Nondegeneracy: per byte plane of the word
    masks at n, the AND over the slots of each slot's digits translated to
    that plane must be 0 in every byte.  Face k of every word of a block is
    one ``bytes.translate``; ``_live`` marks the faces that are neither
    degenerate nor the basepoint (nor, for ``relative``, pinched), and only
    those, read back as ints through a memoryview, go to
    ``lookup.__getitem__`` and ``list.append``.  A live face that is not a
    key means the cells are not closed under faces.  A dead face is never a
    key: the cells below are nondegenerate, never hold the basepoint
    marker and, in the relative chains, are not pinched, so skipping dead
    faces loses no entry.
    """
    offsets = _slot_offsets(s)
    masks = _planes(_by_digit(tables.masks[n], -1, 256), n)
    flagged, flag = _flagged(tables, n, 256)
    flags = list(zip(flag.to_bytes((n + 7) // 8, "little"), _planes(flagged, n)))
    loose = None
    if relative:
        loose = bytes(_by_digit([not f for f in tables.fixed[n - 1]] + [True], True, 256))
    translations = _face_translations(tables, n, passes)
    row = lookup.__getitem__
    for start in range(0, len(cells), _CHUNK):
        words = cells[start:start + _CHUNK].tobytes()
        if any(_and_slots(words, offsets, plane) for plane in masks):
            raise _degenerate(n)
        block = ids[start:start + _CHUNK]
        for k, translation in zip(passes, translations):
            faces = _faces_of(words, translation)
            live = _live(faces.obj, offsets, flags, loose)  # type: ignore[arg-type]
            try:
                # list.append returns None, so any() runs every append, in C
                any(map(list.append, map(row, compress(faces, live)), compress(block, live)))
            except KeyError:
                raise _missing(k, n) from None


# ---------------------------------------------------------------------------
# The group engine: faces through slot-group tables.
# ---------------------------------------------------------------------------

def _slot_groups(s: int, bits: int, cells: int) -> list[tuple[int, int]]:
    """The slot groups of a cell code as (exponent, width).

    A group holds the digits of w adjacent slots ending e slots from the
    right, so its code is (code >> e bits) & (1 << w bits) - 1 (see
    ``_slot_bits``).  The groups are the pairs (0, 1), (2, 3), ... and a
    lone last slot when s is odd; a pair table has 2^(2 bits) entries per
    face, so when that exceeds the number of cells every slot is a group of
    its own.
    """
    width = 2 if 1 << 2 * bits <= cells else 1
    starts = range(0, s, width)
    return [(max(s - a - width, 0), min(width, s - a)) for a in starts]


def _group_codes(
    codes: list[int], bits: int, s: int, groups: list[tuple[int, int]]
) -> list[list[int]]:
    """The code of each slot group of each code, drawn from one pool of
    ints: a code above 256 costs a pointer, not an int object of its own."""
    pool = list(range(1 << bits * max(w for _, w in groups))).__getitem__
    return [
        codes if w == s else list(map(pool, _group(codes, bits, s, e, w))) for e, w in groups
    ]


def _group(codes: Iterable[int], bits: int, s: int, e: int, w: int) -> Iterable[int]:
    """The codes of the group (e, w) of each code, one at a time."""
    part = map(rshift, codes, repeat(bits * e)) if e else codes
    return map(and_, part, repeat((1 << bits * w) - 1)) if e + w < s else part


def _nondegenerate(
    tables: _FactorTables,
    n: int,
    radix: int,
    groups: list[tuple[int, int]],
    codes: list[list[int]],
) -> bool:
    """Whether every cell at n with these group codes has an empty common
    degeneracy word: one AND pass over per-group tables of own masks."""
    masks = _by_digit(tables.masks[n], -1, radix)
    pair_masks = [x & y for x in masks for y in masks] if any(w == 2 for _, w in groups) else []
    common: Iterable[int] = repeat(-1)
    for (_, w), group in zip(groups, codes):
        common = map(and_, common, map((pair_masks if w == 2 else masks).__getitem__, group))
    return not any(common)


def _face_codes(shares: list[list[int]], codes: list[list[int]]) -> Iterable[int]:
    """The codes of one face of the cells with these group codes, ``shares``
    mapping each group's code to its share of the face code."""
    faces: Iterable[int] = map(shares[0].__getitem__, codes[0])
    for table, group in zip(shares[1:], codes[1:]):
        faces = map(or_, faces, map(table.__getitem__, group))
    return faces


def _pinched(faces: list[int], bits: int, s: int, fixed: list[bool]) -> Iterable[bool]:
    """Whether each code has an adjacent equal pair of fixed components."""
    digits = _digits(faces, bits, s)
    pinched: Iterable[bool] = repeat(False, len(faces))
    for left, right in zip(digits, digits[1:]):
        pair = map(and_, map(eq, left, right), map(fixed.__getitem__, left))
        pinched = map(or_, pinched, pair)
    return pinched


def _group_faces(
    tables: _FactorTables,
    s: int,
    n: int,
    cells: list[int],
    ids: list[int],
    passes: list[int],
    lookup: dict[int, list[int]],
    relative: bool,
) -> None:
    """Append the id of each cell at n (``ids[j]`` for the j-th of
    ``cells``, their codes) to the row ``lookup`` gives each of its faces k
    in ``passes``, through slot-group tables, checking every cell.

    The cells' group codes are read off their codes once.  Nondegeneracy is
    one AND pass over per-group tables of own masks.  Each face pass k
    then makes its own tables, per slot group: the share of a group code
    in the code of face k at n - 1, and the AND of its faces' flagged masks
    (see ``_flagged``); it drops them before the next pass.  Face k of
    every cell is the OR over the groups of the shares, looked up straight
    away; a cell whose face is not a key goes to a sink, where the AND over
    the groups of the flagged masks, read through the sunk cells' group
    codes, is FLAG only for a face that is neither degenerate nor the
    basepoint, which raises, unless, for ``relative``, it is pinched.
    """
    bits, low_bits = _slot_bits(tables, s, n), _slot_bits(tables, s, n - 1)
    groups = _slot_groups(s, bits, len(cells))
    codes = _group_codes(cells, bits, s, groups)
    if not _nondegenerate(tables, n, 1 << bits, groups, codes):
        raise _degenerate(n)
    flagged, flag = _flagged(tables, n, 1 << low_bits)
    get = lookup.get
    for k in passes:
        digits = _face_digits(tables, n, k, 1 << bits)
        digit_masks = list(map(flagged.__getitem__, digits))
        shares = [
            [(x << low_bits | y) << low_bits * e for x in digits for y in digits]
            if w == 2 else [c << low_bits * e for c in digits]
            for e, w in groups
        ]
        # the pairs come first, the lone slot last
        pair_masks = [x & y for x in digit_masks for y in digit_masks] if groups[0][1] == 2 else []
        masks = [pair_masks if w == 2 else digit_masks for _, w in groups]
        sink: list[int] = []
        # list.append returns None, so any() runs every append, in C
        any(map(list.append, map(get, _face_codes(shares, codes), repeat(sink)), ids))
        if sink:
            sunk = [list(map(group.__getitem__, sink)) for group in codes]
            ands: Iterable[int] = repeat(-1)
            for table, group in zip(masks, sunk):
                ands = map(and_, ands, map(table.__getitem__, group))
            if relative:
                # the sunk faces that are neither degenerate nor the basepoint
                live = list(map(eq, ands, repeat(flag)))
                faces = list(_face_codes(shares, [list(compress(g, live)) for g in sunk]))
                closed = all(_pinched(faces, low_bits, s, tables.fixed[n - 1]))
            else:
                closed = flag not in ands
            if not closed:
                raise _missing(k, n)
        del shares, masks, pair_masks


def _coboundary_columns(
    tables: _FactorTables,
    s: int,
    cells: Sequence[int],
    below: Sequence[int],
    n: int,
    ids: list[int],
    relative: bool = False,
) -> list[list[int]]:
    """The coboundary to degree n, the transpose of the boundary from n: for
    the cell at each position of ``below``, the cells at n - 1, the list
    of the positions in ``cells`` of the n-cells that hold it as a face an
    odd number of times.  Both are the codes ``_cells`` gives, ascending,
    so positions order the cells as their codes do.

    A position is an int of ``ids``, which this extends to ``len(cells)``
    entries, so that every row naming a cell holds the one int object.  The
    rows are made first, one empty list per cell below, and the face lookup
    is a dict from each code below to its row, made for this call and
    dropped once the faces are scattered.  The rows are returned as the
    lists they were built in, which the caller only reads: a copy of each
    as a tuple would cost a pass, and the freed tuples would sit on the
    interpreter's free lists through the next build.  A face pass that
    ``_face_passes`` proves dead is skipped whole.  Face k of every cell in
    each other pass is looked up and the cell's position appended straight
    to the row of that face, by the byte engine (``_byte_faces``) where the
    cells at n are byte-sized, else by the group engine (``_group_faces``),
    so no column of the boundary is built.  A face that is not below must
    be the basepoint or degenerate, or, for the chains relative to the
    pinched subset (``relative``), pinched; any other miss means the cells
    are not closed under faces and raises ValidationError.  When
    ``_face_passes`` cannot rule out a cell meeting one face twice, a row
    that holds a cell twice is replaced by the list of the cells it holds
    an odd number of times.  Its proofs hold only for nondegenerate cells,
    so a degenerate cell raises ValidationError first.
    """
    live, distinct = _face_passes(tables, n)
    ids.extend(range(len(ids), len(cells)))
    rows: list[Any] = [[] for _ in range(len(below))]
    lookup = dict(zip(below, rows))
    engine = _byte_faces if _byte_sized(tables, s, n) else _group_faces
    engine(tables, s, n, cells, ids, live, lookup, relative)  # type: ignore[operator]
    del lookup
    if not distinct:
        for j, row in enumerate(rows):
            if len(set(row)) != len(row):
                rows[j] = [c for c in set(row) if row.count(c) % 2]
    return rows


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
    if s == 0:  # the empty smash power is a point
        return basepoint_subset(FiniteSimplicialSet(32, {0: ["*"]}, {}))
    if s <= 1:
        return basepoint_subset(_ambient_for(q, 1, truncation, ambient))
    amb = _ambient_for(q, s, truncation, ambient)
    bound = pinched_top_bound(q, fixed, s)
    trunc = amb.truncation if truncation is None else min(truncation, amb.truncation)
    tables = _FactorTables(q, fixed, min(trunc, bound))
    members = {}
    for n in range(len(tables.masks)):
        refs = q.refs_at(n, include_basepoint=False)
        # ascending codes list the tuples in the ambient's order
        slots = _digits(_cells(tables, s, n, True), _slot_bits(tables, s, n), s)
        members[n] = list(zip(*(map(refs.__getitem__, slot) for slot in slots)))
    return PointedSubset(amb, members, truncation=trunc, top_bound=bound, check=False)


# ---------------------------------------------------------------------------
# The cover-intersection Betti sum.
# ---------------------------------------------------------------------------

def check_diagonal_null(fixed: PointedSubset) -> bool:
    """Whether the reduced diagonal of the fixed set A is homologous to zero.

    At s = 2 with every simplex of A fixed, the pinched subset of the smash
    square is the diagonal, a copy of A.  So the exact sequence of that pair
    gives b_n(quotient) = b_n(A ^ A) + b_(n-1)(A) - r_n - r_(n-1), with r_n
    the rank the diagonal induces in degree n, and every r_n through top(A)
    is zero exactly when the quotient table is the Kunneth square plus the
    shifted table of A through top(A).  That certifies every degree, since
    the homology of A vanishes above its top dimension.  The quotient reads
    the chains of the smash square through min(top + 1, 2 top).
    """
    top = fixed.top_dim()
    whole = PointedSubset(fixed, {n: fixed.nondeg(n) for n in range(top + 1)}, check=False)
    quot = quotient_betti_brute(fixed, whole, 2, top)
    betti_a = reduced_betti(fixed, top)
    square = kunneth(betti_a, betti_a)
    return all(quot[n] == square[n] + betti_a[n - 1] for n in range(top + 1))


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


def mv_e1_table(inp: BettiInput, s: int, t_max: int) -> list[int]:
    """Pinched Betti numbers for t = 0..t_max as sums over nonempty cover
    intersections, from the Betti tables of the orbit space and the fixed
    set.

    Valid when the reduced diagonal of the fixed set is homologous to zero,
    which the caller has decided (``mv_e1_betti`` checks it): then the
    double complex of the blockwise cover degenerates and the t-th Betti
    number of the pinched subset is the sum of b_q over intersections of p
    cover pieces with p + q - 1 = t.

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
    if s < 2:
        raise ValidationError("the cover sum needs s >= 2")
    inp.require(t_max)
    if t_max < 0:
        return []
    poly_q = list(inp.betti_orbit.nonzero().items())
    poly_a = list(inp.betti_fixed.nonzero().items())
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


def mv_e1_betti(q: SimplicialSet, fixed: PointedSubset, s: int, t: int) -> int:
    """The t-th pinched Betti number as a sum over nonempty cover
    intersections (see ``mv_e1_table``), after checking on every call that
    the reduced diagonal of the fixed set is homologous to zero."""
    _check_fixed_subset(q, fixed)
    if not check_diagonal_null(fixed):
        raise HypothesisError(
            "the reduced diagonal of the fixed set is not homologous to zero, "
            "so the cover-intersection sum does not compute the pinched homology"
        )
    inp = BettiInput(
        reduced_betti(q, max(t, q.top_dim())), reduced_betti(fixed, max(t, fixed.top_dim()))
    )
    table = mv_e1_table(inp, s, t)
    return table[t] if t >= 0 else 0


# ---------------------------------------------------------------------------
# Brute-force Betti tables on the integer tables.
# ---------------------------------------------------------------------------

def _table_betti(
    tables: _FactorTables, s: int, top: int, t_max: int, relative: bool = False
) -> tuple[dict[int, int], dict[int, int]]:
    """Betti numbers through min(t_max, top), and the cell count per
    dimension, of the pinched chains, or for ``relative`` of the chains of
    the smash power relative to them, whose n-cells are
    ``_cells(tables, s, n, not relative)`` for n <= top.

    Streams the coboundaries into ``boundary_ranks`` from degree 0 up,
    enumerating each dimension once: the coboundary to n is built from the
    cell codes at n and n - 1 (the face-closure check stays on) as one row
    per cell at n - 1, a list of positions of cells at n, so the cells of at
    most two dimensions, one coboundary and the pivots of the one below are
    held at once.  The check d_(n-1) d_n = 0 and the reduction read the
    rows as built.  The positions are the ints of one list shared by every
    dimension, so a position is one int object wherever it is named; they
    ascend with the codes, and so do the pivots.  Bottom up, clearing
    leaves the coboundary to n one column per (n - 1)-st Betti number to
    eliminate to zero, also at the top of a table cut below its last cell.

    The cyclic garbage collector is paused while the table is built and
    reduced (``collector_paused``).  This is safe: the table holds only
    ints, lists and tuples of ints, dicts keyed by ints, and bytes, which
    make no reference cycles.
    """
    sizes: dict[int, int] = {}

    def coboundaries() -> Iterable[tuple[int, list[list[int]]]]:
        ids: list[int] = []  # the positions, shared by every dimension
        below = _cells(tables, s, 0, not relative)
        sizes[0] = len(below)
        for n in range(1, top + 1):
            cells = _cells(tables, s, n, not relative)
            sizes[n] = len(cells)
            rows = _coboundary_columns(tables, s, cells, below, n, ids, relative)
            # the top cells go before the ranks are taken
            below = cells if n < top else ()
            del cells
            yield n, rows
            del rows

    with collector_paused():
        ranks = boundary_ranks(coboundaries())
    entries = {
        n: sizes[n] - ranks.get(n, 0) - ranks.get(n + 1, 0)
        for n in range(min(t_max, top) + 1)
    }
    return entries, sizes


def _certified_table(
    q: SimplicialSet, fixed: PointedSubset, s: int, top: int, n_max: int, relative: bool = False
) -> tuple[dict[int, int], dict[int, int], int]:
    """Betti numbers, cell counts per dimension and the certified degree of
    the brute table (``_table_betti``) whose cells stop at ``top``.

    Cells are enumerated through min(n_max + 1, top).  Once that reaches
    ``top`` every cell has been enumerated, so the table decides every
    degree and is certified through max(n_max, top); else through n_max.
    """
    trunc = max(min(n_max + 1, top), 0)
    certified = max(n_max, top) if trunc == top else n_max
    entries, sizes = _table_betti(_FactorTables(q, fixed, trunc), s, trunc, certified, relative)
    return entries, sizes, certified


def pinched_betti_brute(
    q: SimplicialSet,
    fixed: PointedSubset,
    s: int,
    t_max: int,
) -> BettiTable:
    """Brute-force Betti table of the pinched subset through t_max.

    Runs on the integer tables: the cells of each dimension come from the
    adjacent-pair enumeration.  The subset is enumerated only up to its
    structural top bound, so the table also certifies vanishing above it;
    once the enumeration reaches the bound, which asking through bound - 1
    already does, the table is certified through the bound and complete.
    """
    if s <= 1:
        return BettiTable({}, certified=t_max, zero_from=0)
    _check_fixed_subset(q, fixed)
    bound = pinched_top_bound(q, fixed, s)
    entries, _, certified = _certified_table(q, fixed, s, bound, t_max)
    return BettiTable(entries, certified=certified, zero_from=bound + 1)


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
    are enumerated through min(n_max + 1, s top(Q)), which ``q`` must
    reach.  A table cut below s top(Q) certifies vanishing above it; one
    that reaches it has every cell, so it is certified through s top(Q)
    and vanishes above its last cell.
    """
    _check_fixed_subset(q, fixed)
    if s < 2:
        raise ValidationError("the integer quotient needs s >= 2")
    top = q.top_dim() * s
    entries, sizes, certified = _certified_table(q, fixed, s, top, n_max, relative=True)
    if certified < top:
        zero_from = top + 1
    else:
        zero_from = max((n for n, size in sizes.items() if size), default=0) + 1
    return BettiTable(entries, certified=certified, zero_from=zero_from)
