"""Plain-text format for finite pointed simplicial sets.

A document is a sequence of whitespace-separated records, one per line;
blank lines and lines starting with ``#`` are ignored.  Lines end as
universal newlines do, at ``\n``, ``\r\n`` or ``\r``; any other line or
page separator (form feed, ``\x85``, ``\u2028``, ...) is whitespace
inside its line, and error messages count lines by this rule:

    truncation N
    basepoint LABEL
    simplices DIM LABEL...
    faces LABEL FACE...            # n+1 faces for an n-simplex
    involution LABEL LABEL         # source -> image; absent labels are fixed

A face is ``label`` for a nondegenerate face or ``s1s0@label`` for a
degenerate one, operators written outermost first.  Numbers (``N``,
``DIM`` and degeneracy indices) are ASCII digits ``[0-9]+``, nothing else,
and no more digits than ``int()`` converts.  Labels may not be empty or
contain whitespace, ``@`` or ``#``, and ``serialize`` refuses such labels.
Serialization is canonical (single spaces, dimensions ascending, one
trailing newline), so parse-serialize-parse is the identity and
serializing a parsed file reproduces it up to whitespace.

``parse`` checks the records (the first line's error wins), then that
the basepoint record names a vertex if any exist; ``FiniteSimplicialSet``
and ``Involution`` check the structure, and their error gets the line of
the failing simplex's record.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, compress, count, repeat
from operator import eq, gt, itemgetter, ne
from typing import Optional

from .simplicial import (
    FiniteSimplicialSet,
    Involution,
    ValidationError,
    as_number,
    first_repeat,
    format_ref,
)

RECORDS = ("truncation", "basepoint", "simplices", "faces", "involution")


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def parse(text: str) -> tuple[FiniteSimplicialSet, Optional[Involution]]:
    """The space and involution (None without involution records) a text
    describes.  The faces, involution and basepoint records name a label
    by the string of the simplices record that declares it, so the space
    holds one string per label, however many records name it."""
    kinds = _records(text)
    truncation_rows, truncation_lines = kinds.get("truncation", ([], []))
    basepoint_rows, basepoint_lines = kinds.get("basepoint", ([], []))
    simplex_rows, simplex_lines = kinds.get("simplices", ([], []))
    face_rows, face_lines = kinds.pop("faces", ([], []))
    involution_rows, involution_lines = kinds.pop("involution", ([], []))

    # The checks of a record read only records of its kind, so each kind is
    # checked whole, and of the errors found the one on the first line wins.
    errors: list[tuple[int, str]] = []
    _once(errors, "truncation", truncation_lines,
          [len(row) == 2 and as_number(row[1]) is not None for row in truncation_rows[:2]],
          "truncation needs one nonnegative integer")
    _once(errors, "basepoint", basepoint_lines, [len(row) == 2 for row in basepoint_rows[:2]],
          "basepoint needs one label")

    _cut(errors, simplex_rows, simplex_lines,
         [len(row) > 2 and as_number(row[1]) is not None for row in simplex_rows],
         "simplices needs a dimension and labels")
    labels = list(chain.from_iterable(map(itemgetter(slice(2, None)), simplex_rows)))
    # each label as the one string its simplices record declares, so the
    # space keeps one string per label, not one per record that names it
    canon = dict(zip(labels, labels))
    joined = " ".join(labels)
    if "@" in joined or "#" in joined or len(set(labels)) != len(labels):
        reserved = next((p for p, x in enumerate(labels) if "@" in x or "#" in x), None)
        repeated = first_repeat(labels)
        p = min(q for q in (reserved, repeated) if q is not None)
        ends = list(accumulate(len(row) - 2 for row in simplex_rows))
        lineno = simplex_lines[bisect_right(ends, p)]
        if p == reserved:
            errors.append((lineno, f"label {labels[p]!r} contains a reserved character"))
        else:
            errors.append((lineno, f"duplicate simplex identifier {labels[p]!r}"))

    _cut(errors, involution_rows, involution_lines,
         list(map(eq, map(len, involution_rows), repeat(3))),
         "involution needs a source and an image label")
    sources = list(map(itemgetter(1), involution_rows))
    sources = list(map(canon.get, sources, sources))
    images = list(map(itemgetter(2), involution_rows))
    involution = dict(zip(sources, map(canon.get, images, images)))
    if len(involution) != len(sources):
        p = first_repeat(sources)
        errors.append((involution_lines[p], f"duplicate involution entry for {sources[p]!r}"))
    has_involution = bool(involution_rows)
    # the rows and their strings go before the face lists below are made,
    # which then take the room they held
    del involution_rows

    _cut(errors, face_rows, face_lines, list(map(gt, map(len, face_rows), repeat(2))),
         "faces needs a label and its face list")
    face_labels = list(map(itemgetter(1), face_rows))
    face_labels = list(map(canon.get, face_labels, face_labels))
    faces = dict(zip(face_labels, map(itemgetter(slice(2, None)), face_rows)))
    if len(faces) != len(face_labels):
        p = first_repeat(face_labels)
        errors.append((face_lines[p], f"duplicate faces entry for {face_labels[p]!r}"))
    del face_rows  # as the involution rows above, before the space is built

    for kind, (_, lines) in kinds.items():
        if kind not in RECORDS and not kind.startswith("#"):
            errors.append((lines[0], f"unknown record {kind!r}"))
    if errors:
        lineno, message = min(errors, key=itemgetter(0))
        raise ParseError(message, lineno)

    if not truncation_rows:
        raise ParseError("missing truncation record")
    truncation = int(truncation_rows[0][1])
    simplices: dict[int, list[str]] = {}
    first_lines: dict[int, int] = {}  # the first simplices record per dimension
    for row, lineno in zip(simplex_rows, simplex_lines):
        dim = int(row[1])
        first_lines.setdefault(dim, lineno)
        simplices.setdefault(dim, []).extend(row[2:])
    # checked here, not per record: the truncation record may come later
    above = [dim for dim in first_lines if dim > truncation]
    if above:
        dim = min(above)
        raise ParseError(f"simplex dimension {dim} outside 0..{truncation}", first_lines[dim])
    basepoint = canon.get(basepoint_rows[0][1], basepoint_rows[0][1]) if basepoint_rows else None
    del canon  # before the space's own label table is made
    # with no vertices at all, the constructor's "no vertices declared" wins
    if basepoint is not None and simplices.get(0) and basepoint not in simplices[0]:
        raise ParseError(f"basepoint {basepoint!r} is not a vertex", basepoint_lines[0])
    space = None
    try:
        space = FiniteSimplicialSet(truncation, simplices, faces, basepoint=basepoint)
        invol = Involution(space, involution) if has_involution else None
    except ValidationError as exc:
        # the line of a record of the simplex that failed: its involution
        # record if the involution failed, else its faces record, else the
        # simplices record that declares it
        lines = {label: line for row, line in zip(simplex_rows, simplex_lines) for label in row[2:]}
        lines.update(zip(face_labels, face_lines))
        if space is not None:
            lines.update(zip(sources, involution_lines))
        raise ParseError(str(exc), lines.get(exc.simplex)) from exc
    return space, invol


def _records(text: str) -> dict[str, tuple[list[tuple[str, ...]], list[int]]]:
    """The fields of each line that is not blank, with its line number,
    grouped by record kind (the first field)."""
    # universal newlines: \n, \r\n and \r end a line, and nothing else does
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # tuples of strings, which the collector stops tracking once it has seen
    # them, where lists would be walked at every full collection
    rows = list(map(tuple, map(str.split, text.split("\n"))))
    linenos = list(compress(count(1), rows))
    rows = list(filter(None, rows))
    heads = list(map(itemgetter(0), rows))
    kinds: dict[str, tuple[list[tuple[str, ...]], list[int]]] = {}
    # records of one kind come in runs, so grouping takes one step a run
    starts = list(compress(count(), map(ne, heads, chain([None], heads))))
    for start, stop in zip(starts, [*starts[1:], len(rows)]):
        found, lines = kinds.setdefault(heads[start], ([], []))
        found += rows[start:stop]
        lines += linenos[start:stop]
    return kinds


def _once(errors: list, kind: str, lines: list[int], shaped: list[bool], malformed: str) -> None:
    """The error of a record that may appear once, given whether each of
    its first two records is well formed."""
    if shaped[:1] == [False]:
        errors.append((lines[0], malformed))
    elif len(shaped) == 2:
        errors.append((lines[1], malformed if not shaped[1] else f"duplicate {kind} record"))


def _cut(errors: list, rows: list, lines: list[int], shaped: list[bool], malformed: str) -> None:
    """The error of the first malformed record of a kind; it and the
    records after it are dropped, since any error they hold comes later."""
    if not all(shaped):
        cut = shaped.index(False)
        errors.append((lines[cut], malformed))
        del rows[cut:], lines[cut:]


def parse_file(path) -> tuple[FiniteSimplicialSet, Optional[Involution]]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    # one leading byte-order mark, which some editors write, goes as the
    # "utf-8-sig" codec would drop it, without the import of that codec
    return parse(text.removeprefix("\ufeff"))


def serialize(space: FiniteSimplicialSet, invol: Optional[Involution] = None) -> str:
    for n in range(space.top_dim() + 1):
        for key in space.nondeg(n):
            if not isinstance(key, str):
                raise ValidationError(
                    "only simplicial sets with string labels can be serialized"
                )
            # a label is one field of its line and names no face or comment
            if key.split() != [key] or "@" in key or "#" in key:
                raise ValidationError(
                    f"label {key!r} is empty or holds whitespace, '@' or '#'", key
                )
    lines = [f"truncation {space.truncation}", f"basepoint {space.basepoint}"]
    for n in range(space.top_dim() + 1):
        keys = space.nondeg(n)
        if keys:
            lines.append("simplices " + " ".join([str(n)] + list(keys)))
    for n in range(1, space.top_dim() + 1):
        for key in space.nondeg(n):
            entries = [format_ref(space._base_face(key, n, i)) for i in range(n + 1)]
            lines.append("faces " + " ".join([key] + entries))
    if invol is not None:
        moved = [
            key
            for n in range(space.top_dim() + 1)
            for key in space.nondeg(n)
            if invol(key) != key
        ]
        if moved:
            lines.extend(f"involution {key} {invol(key)}" for key in moved)
        else:
            # record that a (trivial) involution is present
            lines.append(f"involution {space.basepoint} {space.basepoint}")
    return "\n".join(lines) + "\n"
