"""Plain-text format for finite pointed simplicial sets.

A document is a sequence of whitespace-separated records, one per line;
blank lines and lines starting with ``#`` are ignored:

    truncation N
    basepoint LABEL
    simplices DIM LABEL...
    faces LABEL FACE...            # n+1 faces for an n-simplex
    involution LABEL LABEL         # source -> image; absent labels are fixed

A face is ``label`` for a nondegenerate face or ``s1s0@label`` for a
degenerate one, operators written outermost first.  Labels may not contain
whitespace, ``@`` or ``#``.  Serialization is canonical (single spaces,
dimensions ascending, one trailing newline), so parse-serialize-parse is
the identity and serializing a parsed file reproduces it up to whitespace.
"""

from __future__ import annotations

from typing import Optional

from .simplicial import (
    FiniteSimplicialSet,
    Involution,
    ValidationError,
    format_ref,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def parse(text: str) -> tuple[FiniteSimplicialSet, Optional[Involution]]:
    truncation: Optional[int] = None
    basepoint: Optional[str] = None
    basepoint_line: Optional[int] = None
    simplices: dict[int, list[str]] = {}
    simplex_lines: dict[int, int] = {}  # the first simplices record per dimension
    declared: set[str] = set()
    faces: dict[str, list[str]] = {}
    face_lines: dict[str, int] = {}
    involution: dict[str, str] = {}
    involution_lines: dict[str, int] = {}
    has_involution = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "truncation":
            # isdecimal, not isdigit: int() rejects superscript digits
            if len(args) != 1 or not args[0].isdecimal():
                raise ParseError("truncation needs one nonnegative integer", lineno)
            if truncation is not None:
                raise ParseError("duplicate truncation record", lineno)
            truncation = int(args[0])
        elif kind == "basepoint":
            if len(args) != 1:
                raise ParseError("basepoint needs one label", lineno)
            if basepoint is not None:
                raise ParseError("duplicate basepoint record", lineno)
            basepoint, basepoint_line = args[0], lineno
        elif kind == "simplices":
            if len(args) < 2 or not args[0].isdecimal():
                raise ParseError("simplices needs a dimension and labels", lineno)
            dim = int(args[0])
            simplex_lines.setdefault(dim, lineno)
            for label in args[1:]:
                if "@" in label or "#" in label:
                    raise ParseError(f"label {label!r} contains a reserved character", lineno)
                if label in declared:
                    raise ParseError(f"duplicate simplex identifier {label!r}", lineno)
                declared.add(label)
            simplices.setdefault(dim, []).extend(args[1:])
        elif kind == "faces":
            if len(args) < 2:
                raise ParseError("faces needs a label and its face list", lineno)
            if args[0] in faces:
                raise ParseError(f"duplicate faces entry for {args[0]!r}", lineno)
            faces[args[0]] = args[1:]
            face_lines[args[0]] = lineno
        elif kind == "involution":
            if len(args) != 2:
                raise ParseError("involution needs a source and an image label", lineno)
            has_involution = True
            if args[0] in involution:
                raise ParseError(f"duplicate involution entry for {args[0]!r}", lineno)
            involution[args[0]] = args[1]
            involution_lines[args[0]] = lineno
        else:
            raise ParseError(f"unknown record {kind!r}", lineno)

    if truncation is None:
        raise ParseError("missing truncation record")
    # checked here, not per record: the truncation record may come later
    for dim, lineno in sorted(simplex_lines.items()):
        if dim > truncation:
            raise ParseError(f"simplex dimension {dim} outside 0..{truncation}", lineno)
    if not simplices.get(0):
        raise ParseError("no vertices declared")
    if basepoint is not None and basepoint not in simplices[0]:
        raise ParseError(f"basepoint {basepoint!r} is not a vertex", basepoint_line)
    named: set[str] = set()  # entries already seen to name a declared simplex
    for label, entries in faces.items():
        lineno = face_lines[label]
        if label not in declared:
            raise ParseError(f"faces given for undeclared simplex {label!r}", lineno)
        for entry in entries:
            if entry in named:
                continue
            target = entry.split("@", 1)[-1]
            if target not in declared:
                raise ParseError(
                    f"face of {label!r} names undeclared simplex {target!r}", lineno
                )
            named.add(entry)
    try:
        space = FiniteSimplicialSet(truncation, simplices, faces, basepoint=basepoint)
    except ValidationError as exc:
        # the line of the faces record of the simplex that failed
        raise ParseError(str(exc), face_lines.get(exc.simplex)) from exc
    invol = None
    if has_involution:
        try:
            invol = Involution(space, involution)
        except ValidationError as exc:
            # the line of the involution record of the source that failed
            raise ParseError(str(exc), involution_lines.get(exc.simplex)) from exc
    return space, invol


def parse_file(path) -> tuple[FiniteSimplicialSet, Optional[Involution]]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def serialize(space: FiniteSimplicialSet, invol: Optional[Involution] = None) -> str:
    for n in range(space.top_dim() + 1):
        for key in space.nondeg(n):
            if not isinstance(key, str):
                raise ValidationError(
                    "only simplicial sets with string labels can be serialized"
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
