"""File format round trips and the command-line interface."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from section_spaces import (
    SURFACES,
    planted,
    planted_fixed_loop,
    random_verify_case,
    rotated,
    trivial_surface,
)
from shipped import FIXTURE_DIR, circle, sphere_pair_swap

from loopbetti.cli import main
from loopbetti.simplicial import FiniteSimplicialSet, ValidationError
from loopbetti.sset_io import ParseError, parse, serialize
from loopbetti.verify import DEFAULT_DIRECT_BUDGET


# ---------------------------------------------------------------------------
# Round trips.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.sset")))
def test_parse_serialize_parse_is_identity(name):
    text = (FIXTURE_DIR / f"{name}.sset").read_text()
    space, invol = parse(text)
    again = serialize(space, invol)
    assert again == text
    space2, invol2 = parse(again)
    assert serialize(space2, invol2) == text
    for n in range(space.top_dim() + 1):
        assert space2.nondeg(n) == space.nondeg(n)


def generated_spaces():
    yield planted(random.Random(1), 200, 500)
    yield rotated(12)
    for name in sorted(SURFACES):
        yield trivial_surface(name)
    rng = random.Random(1)
    for _ in range(100):
        yield random_verify_case(rng)[:2]


def test_parse_rebuilds_generated_spaces():
    for space, invol in generated_spaces():
        again, invol2 = parse(serialize(space, invol))
        # the text has no record for a dimension without simplices
        assert again._simplices == {n: keys for n, keys in space._simplices.items() if keys}
        assert again._faces == space._faces
        assert again._dim_of == space._dim_of
        assert again.basepoint == space.basepoint
        # a trivial involution serializes as "involution * *", so compare
        # the maps by what they do
        assert {k: invol2(k) for k in again._dim_of} == {k: invol(k) for k in space._dim_of}


def test_a_parsed_space_holds_one_string_per_label():
    """The faces, involution and basepoint records name a label by the very
    string its simplices record declares, not by a copy of it."""
    texts = [path.read_text() for path in sorted(FIXTURE_DIR.glob("*.sset"))]
    for space, invol in (
        planted(random.Random(1), 20, 30),
        planted_fixed_loop(random.Random(1), 20, 30),
        rotated(5),
    ):
        texts.append(serialize(space, invol))
    for text in texts:
        space, invol = parse(text)
        declared = {id(key) for n in range(space.top_dim() + 1) for key in space.nondeg(n)}
        named = [*space._faces, space.basepoint]
        if invol is not None:
            assert invol._map
            named += [*invol._map, *invol._map.values()]
        assert all(id(key) in declared for key in named), [k for k in named if id(k) not in declared]


def test_serialize_refuses_labels_the_format_cannot_hold():
    # each would parse back as other vertices, as none, or not at all
    for label in ("a b", "a\x0cb", "a\u2028b", "", "a@b", "a#b", "a\nb"):
        space = FiniteSimplicialSet(0, {0: ["*", label]}, {})
        with pytest.raises(ValidationError) as err:
            serialize(space)
        assert str(err.value) == f"label {label!r} is empty or holds whitespace, '@' or '#'"
        assert err.value.simplex == label


def test_whitespace_and_comments_are_ignored():
    text = (FIXTURE_DIR / "two_disc_sphere.sset").read_text()
    noisy = "# a comment\n\n" + text.replace("\n", "\n\n") + "   \n"
    space, _ = parse(noisy)
    assert serialize(space, None) == text


# ---------------------------------------------------------------------------
# Diagnostics.
# ---------------------------------------------------------------------------

def test_malformed_faces_name_the_simplex():
    text = "truncation 4\nsimplices 0 *\nsimplices 1 e\nfaces e * ghost\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "ghost" in str(err.value)
    assert "line 4" in str(err.value)


def test_missing_truncation_rejected():
    with pytest.raises(ParseError):
        parse("simplices 0 *\n")


def test_wrong_face_count_rejected():
    text = "truncation 4\nsimplices 0 *\nsimplices 1 e\nfaces e *\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "'e'" in str(err.value)


def test_noncanonical_word_rejected():
    text = (
        "truncation 4\nsimplices 0 *\nsimplices 1 e\nsimplices 2 g\n"
        "faces e * *\nfaces g e s1@* s0@*\n"
    )
    with pytest.raises(ParseError):
        parse(text)


def test_broken_involution_rejected():
    text = (FIXTURE_DIR / "sphere_pair_swap.sset").read_text()
    broken = text.replace("involution D1- D1+", "involution D1- D2+")
    with pytest.raises(ParseError):
        parse(broken)


HEAD = "truncation 4\nbasepoint *\n"

# Each text is rejected with exactly this message.  Validation resolves a
# face token once per ambient dimension and reuses faces it has computed,
# so every case puts the bad use of a token or face after a good one.  A
# validation message gets the line of the involution record, else the faces
# record, else the declaring simplices record, of the simplex that failed, so
# "line 8" in dimension_of_label is the record of ``f``, not of the ``e`` it
# quotes.  A callable builds FiniteSimplicialSet directly, without a text.
REJECTIONS = {
    "unhashable_entry": (
        lambda: FiniteSimplicialSet(
            4, {0: ["*"], 1: ["e", "f"]}, {"e": ["*", "*"], "f": ["*", ["*"]]}
        ),
        "cannot interpret face entry ['*']",
    ),
    # FiniteSimplicialSet alone checks that a face entry names a declared
    # simplex, so the file gets the message a direct call gets
    "undeclared_label": (
        HEAD + "simplices 0 *\nsimplices 1 e f\nfaces e * *\nfaces f * ghost\n",
        "line 6: unknown simplex 'ghost' in face entry 'ghost'",
    ),
    # the first faulty faces record wins, not the first with a stray entry
    "stray_entry_after_a_faulty_faces_record": (
        HEAD + "simplices 0 *\nsimplices 1 e f\nfaces e * * *\nfaces f * ghost\n",
        "line 5: simplex 'e' of dimension 1 needs 2 faces",
    ),
    # a direct call gets the text of the file that holds the same fault
    "undeclared_label_direct": (
        lambda: FiniteSimplicialSet(
            4, {0: ["*"], 1: ["e", "f"]}, {"e": ["*", "*"], "f": ["*", "ghost"]}
        ),
        "unknown simplex 'ghost' in face entry 'ghost'",
    ),
    "faces_of_undeclared_direct": (
        lambda: FiniteSimplicialSet(4, {0: ["*"], 1: ["e"]}, {"e": ["*", "*"], "x": ["*", "*"]}),
        "faces given for undeclared simplex 'x'",
    ),
    "no_vertices_direct": (
        lambda: FiniteSimplicialSet(2, {1: ["e"]}, {"e": ["*", "*"]}),
        "no vertices declared",
    ),
    "dimension_of_label": (
        HEAD + "simplices 0 *\nsimplices 1 e f\nsimplices 2 g\n"
        "faces e * *\nfaces g e e e\nfaces f e *\n",
        "line 8: face ref 'e' has dimension 1, expected 0",
    ),
    "dimension_of_degenerate": (
        HEAD + "simplices 0 *\nsimplices 1 e f\nsimplices 2 g\n"
        "faces e * *\nfaces g s0@* s0@* s0@*\nfaces f s0@* *\n",
        "line 8: face ref 's0@*' has dimension 1, expected 0",
    ),
    "word_beyond_dimension": (
        HEAD + "simplices 0 *\nsimplices 1 e\nsimplices 2 g\nfaces e * *\nfaces g e s1@* s0@*\n",
        "line 7: face ref 's1@*' has a non-canonical word",
    ),
    "word_out_of_order": (
        HEAD + "simplices 0 *\nsimplices 1 e\nsimplices 3 k\n"
        "faces e * *\nfaces k s1s0@* s0s1@* s1s0@* s1s0@*\n",
        "line 7: degeneracy word in 's0s1@*' is not canonical",
    ),
    "identity_on_second_of_shared_face": (
        HEAD + "simplices 0 * v\nsimplices 1 e f\nsimplices 2 g h\n"
        "faces e * *\nfaces f v *\nfaces g e e e\nfaces h e f e\n",
        "line 9: face identity fails on 'h': d_0 d_1 != d_0 d_0",
    ),
    "involution_off_d0": (
        HEAD + "simplices 0 * u w\nsimplices 1 e f\nfaces e u *\nfaces f * w\n"
        "involution u w\ninvolution w u\ninvolution e f\ninvolution f e\n",
        "line 9: involution fails to commute with d_0 at 'e'",
    ),
    # e has no involution record, so the line is that of its faces record
    "involution_off_d0_at_a_fixed_simplex": (
        HEAD + "simplices 0 * u w\nsimplices 1 e\nfaces e u *\n"
        "involution u w\ninvolution w u\n",
        "line 5: involution fails to commute with d_0 at 'e'",
    ),
    "duplicate_label": (
        HEAD + "simplices 0 * a\nsimplices 1 e a\nfaces a * *\n",
        "line 4: duplicate simplex identifier 'a'",
    ),
    "simplices_above_truncation": (
        "truncation 1\nsimplices 0 *\nsimplices 2 x\n",
        "line 3: simplex dimension 2 outside 0..1",
    ),
    "simplices_above_a_later_truncation": (
        "simplices 0 *\nsimplices 3 x\nsimplices 2 y\ntruncation 1\n",
        "line 3: simplex dimension 2 outside 0..1",
    ),
    "basepoint_not_a_vertex": (
        "truncation 4\nbasepoint e\nsimplices 0 *\nsimplices 1 e\nfaces e * *\n",
        "line 2: basepoint 'e' is not a vertex",
    ),
    "involution_to_unknown": (
        HEAD + "simplices 0 * u\ninvolution u u\ninvolution * ghost\n",
        "line 5: involution names unknown simplex '*' -> 'ghost'",
    ),
    "superscript_truncation": (
        "truncation \u00b2\nsimplices 0 *\n",
        "line 1: truncation needs one nonnegative integer",
    ),
    "superscript_dimension": (
        HEAD + "simplices \u00b9 *\n",
        "line 3: simplices needs a dimension and labels",
    ),
    "repeated_truncation": (
        "truncation 1\nsimplices 0 *\ntruncation 5\n",
        "line 3: duplicate truncation record",
    ),
    "repeated_basepoint": (
        HEAD + "simplices 0 * v\nbasepoint v\n",
        "line 4: duplicate basepoint record",
    ),
    "faces_of_undeclared": (
        HEAD + "simplices 0 *\nsimplices 1 e\nfaces e * *\nfaces x * *\n",
        "line 6: faces given for undeclared simplex 'x'",
    ),
    "vertex_with_faces": (
        HEAD + "simplices 0 * v\nsimplices 1 e\nfaces e * *\nfaces v * *\n",
        "line 6: vertex 'v' cannot have faces",
    ),
    "wrong_face_count": (
        HEAD + "simplices 0 *\nsimplices 1 e f\nfaces e * *\nfaces f * * *\n",
        "line 6: simplex 'f' of dimension 1 needs 2 faces",
    ),
    "missing_face_list": (
        HEAD + "simplices 0 *\nsimplices 1 e f g h\nfaces e * *\nfaces h * *\nfaces g * *\n",
        "line 4: missing face list for simplex 'f'",
    ),
    "duplicate_faces_entry": (
        HEAD + "simplices 0 *\nsimplices 1 e\nfaces e * *\nfaces e * *\n",
        "line 6: duplicate faces entry for 'e'",
    ),
    "duplicate_involution_entry": (
        HEAD + "simplices 0 * u w\ninvolution u w\ninvolution w u\ninvolution u w\n",
        "line 6: duplicate involution entry for 'u'",
    ),
    "reserved_character_before_a_duplicate": (
        HEAD + "simplices 0 * v a@b v\n",
        "line 3: label 'a@b' contains a reserved character",
    ),
    "unknown_record": (
        HEAD + "simplices 0 *\nedges e\n",
        "line 4: unknown record 'edges'",
    ),
    "missing_truncation": (
        "basepoint *\nsimplices 0 *\n",
        "missing truncation record",
    ),
    "no_vertices": (
        "truncation 2\nsimplices 1 e\n",
        "no vertices declared",
    ),
    # a basepoint record cannot name a vertex where there are none, and
    # the missing vertices are the fault reported
    "no_vertices_with_a_basepoint": (
        "truncation 2\nbasepoint *\nsimplices 1 e\n",
        "no vertices declared",
    ),
    "malformed_word": (
        HEAD + "simplices 0 *\nsimplices 1 e\nsimplices 2 g\nfaces e * *\nfaces g e sx@* s0@*\n",
        "line 7: malformed degeneracy word in 'sx@*'",
    ),
    "involution_changes_dimension": (
        HEAD + "simplices 0 * v\nsimplices 1 e\nfaces e * *\ninvolution v e\n",
        "line 6: involution 'v' -> 'e' changes dimension",
    ),
    "involution_not_of_order_two": (
        HEAD + "simplices 0 * v u w\ninvolution w u\ninvolution u v\ninvolution v w\n",
        "line 6: involution does not square to one at 'v'",
    ),
    "involution_moves_basepoint": (
        HEAD + "simplices 0 * v\ninvolution v *\ninvolution * v\n",
        "line 5: involution moves the basepoint",
    ),
    "involution_off_d1": (
        HEAD + "simplices 0 *\nsimplices 1 x y\nsimplices 2 g h\nfaces x * *\nfaces y * *\n"
        "faces g x x s0@*\nfaces h y x s0@*\n"
        "involution x y\ninvolution y x\ninvolution g h\ninvolution h g\n",
        "line 12: involution fails to commute with d_1 at 'g'",
    ),
    # h fails at d_0 d_1 and its record comes first, but g is stored first
    "identity_on_first_stored_of_two": (
        HEAD + "simplices 0 * v\nsimplices 1 e f k\nsimplices 2 g h\n"
        "faces e v *\nfaces f * *\nfaces k * v\nfaces h f e e\nfaces g f f k\n",
        "line 10: face identity fails on 'g': d_1 d_2 != d_1 d_1",
    ),
    # a digit of another script, or an int() spelling, is not a number
    "arabic_indic_truncation": (
        "truncation \u0663\nsimplices 0 *\n",
        "line 1: truncation needs one nonnegative integer",
    ),
    "arabic_indic_dimension": (
        HEAD + "simplices \u0660 *\n",
        "line 3: simplices needs a dimension and labels",
    ),
    "signed_degeneracy_index": (
        HEAD + "simplices 0 *\nsimplices 1 e\nsimplices 2 g\nfaces e * *\nfaces g e s+0@* s0@*\n",
        "line 7: malformed degeneracy word in 's+0@*'",
    ),
    "underscored_degeneracy_index": (
        HEAD + "simplices 0 *\nsimplices 1 e\nsimplices 2 g\nfaces e * *\nfaces g e s0_0@* s0@*\n",
        "line 7: malformed degeneracy word in 's0_0@*'",
    ),
    # a number with more digits than int() converts (4,300 by default)
    "truncation_past_int_digits": (
        "truncation " + "9" * 5000 + "\nsimplices 0 *\n",
        "line 1: truncation needs one nonnegative integer",
    ),
    "dimension_past_int_digits": (
        HEAD + "simplices 0 *\nsimplices " + "1" * 5000 + " e\n",
        "line 4: simplices needs a dimension and labels",
    ),
    "degeneracy_index_past_int_digits": (
        HEAD + "simplices 0 *\nsimplices 1 e\nsimplices 2 g\nfaces e * *\n"
        f"faces g e s{'1' * 5000}@* s0@*\n",
        f"line 7: malformed degeneracy word in 's{'1' * 5000}@*'",
    ),
    "zero_degeneracy_index_past_int_digits": (
        HEAD + "simplices 0 *\nsimplices 1 e\nsimplices 2 g\nfaces e * *\n"
        f"faces g e s0@* s{'0' * 5000}@*\n",
        f"line 7: malformed degeneracy word in 's{'0' * 5000}@*'",
    ),
    # only \n, \r\n and \r end a line: a form feed is whitespace
    "form_feed_is_not_a_line_break": (
        HEAD + "simplices 0 *\nsimplices 1 e\n\x0cfaces e * *\nfaces e * *\n",
        "line 6: duplicate faces entry for 'e'",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_messages_are_pinned(case):
    source, message = REJECTIONS[case]
    with pytest.raises(ValidationError if callable(source) else ParseError) as err:
        source() if callable(source) else parse(source)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def test_cli_betti_circle(capsys):
    rc = main(["betti", str(FIXTURE_DIR / "circle.sset"), "--max-dim", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["b0 = 0", "b1 = 1", "b2 = 0"]


def test_cli_betti_sphere_json(capsys):
    rc = main(
        ["betti", str(FIXTURE_DIR / "two_disc_sphere.sset"), "--max-dim", "3", "--json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["betti"] == {"0": 0, "1": 0, "2": 1, "3": 0}


def test_cli_betti_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    """A file saved with a UTF-8 byte-order mark reads as the same file
    without it; the mark is not part of the first record."""
    plain = FIXTURE_DIR / "circle.sset"
    marked = tmp_path / "circle.sset"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        rc = main(["betti", str(path), "--json"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == "", captured.err
        outputs.append(captured.out.replace(str(path), "FILE"))
    assert outputs[0] == outputs[1]


def test_cli_betti_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.sset"
    bad.write_text("truncation 3\nsimplices 0 *\nsimplices 1 e\nfaces e * ghost\n")
    rc = main(["betti", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ghost" in captured.err


def test_cli_verify_glued_spheres_json(capsys):
    rc = main(
        [
            "verify",
            str(FIXTURE_DIR / "sphere_pair_swap.sset"),
            "--s-max", "2", "--t-max", "2", "--loop-max", "3",
            "--json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] is True
    assert doc["hypotheses"] == {"section_exists": True, "diagonal_null": True}
    loop = {row["n"]: row for row in doc["loop_row"]}
    assert [loop[n]["closed"] for n in (1, 2, 3)] == [0, 2, 1]
    assert [loop[n]["brute"] for n in (1, 2, 3)] == [0, 2, 1]
    schema_keys = {
        "command", "fixture", "truncation", "s_max", "t_max", "hypotheses",
        "pinched_cells", "loop_row", "agreement", "messages", "timings",
    }
    assert set(doc) == schema_keys
    for cell in doc["pinched_cells"]:
        assert set(cell) == {"s", "t", "brute", "mv_e1", "closed", "agree", "notes"}


def test_cli_verify_trivial_circle(capsys):
    rc = main(
        [
            "verify",
            str(FIXTURE_DIR / "trivial_circle.sset"),
            "--s-max", "3", "--t-max", "3", "--loop-max", "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "agreement: yes" in out


def test_cli_verify_no_section(capsys):
    rc = main(
        [
            "verify",
            str(FIXTURE_DIR / "free_double_cover.sset"),
            "--s-max", "2", "--t-max", "2",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "no simplicial section" in out
    assert "pinched grid" in out  # brute columns still computed
    # the refutation names the first free orbit {v0, v2} and a cycle of
    # forced choices through both of its simplices
    message = next(line for line in out.splitlines() if line.startswith("no simplicial section"))
    assert "a section through v0 must contain v2 and one through v2 must contain v0" in message
    cycle = message.split("(", 1)[1].split(",", 1)[0].split(" => ")
    assert cycle[0] == cycle[-1] == "v0" and "v2" in cycle
    assert set(cycle) <= {"v0", "v1", "v2", "v3", "e0", "e1", "e2", "e3"}


def test_cli_verify_no_section_leaves_the_loop_row_empty(capsys):
    """Without a section the loop row stays empty, as the message says."""
    path = FIXTURE_DIR / "free_double_cover.sset"
    assert main(["verify", str(path), "--loop-max", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hypotheses"]["section_exists"] is False
    assert doc["loop_row"] == []
    message = next(m for m in doc["messages"] if m.startswith("no simplicial section"))
    assert message.endswith("so the loop row is left empty")


def test_cli_verify_requires_involution(capsys):
    rc = main(["verify", str(FIXTURE_DIR / "circle.sset")])
    assert rc == 2
    assert "involution" in capsys.readouterr().err


def test_cli_verify_csv(capsys):
    rc = main(
        [
            "verify",
            str(FIXTURE_DIR / "trivial_circle.sset"),
            "--s-max", "2", "--t-max", "2", "--loop-max", "2",
            "--csv",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "kind,s_or_n,t,brute,mv_e1,closed,agree"
    assert all(line.count(",") == 6 for line in lines)


def test_cli_conjecture(capsys):
    rc = main(["conjecture", "--n-max", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "417" in out
    assert "conjectured" not in out


def test_cli_conjecture_marks_rows_beyond_twelve(capsys):
    rc = main(["conjecture", "--n-max", "24", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    statuses = {row["n"]: row["status"] for row in doc["rows"]}
    assert statuses[12] == "asserted"
    assert all(statuses[n] == "conjectured" for n in range(13, 25))


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_cli_missing_file(kind, tmp_path, capsys):
    path = {
        "missing": tmp_path / "no_such_file.sset",
        "directory": tmp_path,
        "not_utf8": tmp_path / "latin1.sset",
    }[kind]
    (tmp_path / "latin1.sset").write_bytes(b"truncation 4\nbasepoint \xe9\n")
    rc = main(["betti", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_out_of_memory_is_one_line(monkeypatch, capsys):
    import loopbetti.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_verify", exhausted)
    rc = main(["verify", str(FIXTURE_DIR / "sphere_pair_swap.sset"), "--s-max", "6"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory in verify; lower --s-max, --t-max or --brute-loop-max\n"
    )
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "x.sset", "--max-dim", "-1"],
        ["verify", "x.sset", "--s-max", "-2", "--t-max", "-1"],
        ["verify", "x.sset", "--loop-max", "-1"],
        ["verify", "x.sset", "--brute-loop-max", "-1"],
        ["verify", "x.sset", "--direct-budget", "-1"],
        ["conjecture", "--n-max", "-3"],
    ],
)
def test_cli_rejects_negative_numbers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "direct_budget", [DEFAULT_DIRECT_BUDGET, 0], ids=["default_budget", "bookkeeping"]
)
def test_trivial_action_loop_row_three_ways(direct_budget):
    """With the identity action the decomposition degenerates to the plain
    fat-diagonal splitting; all three loop columns must agree through 5.
    A zero budget sends every s >= 2 through the exact-sequence bookkeeping."""
    from loopbetti.sset_io import parse_file as load
    from loopbetti.verify import run_verify

    space, invol = load(FIXTURE_DIR / "trivial_circle.sset")
    report = run_verify(
        space, invol, s_max=2, t_max=2, loop_max=5, direct_budget=direct_budget
    )
    assert report.agreement
    for cell in report.loop_row:
        assert cell.brute is not None
        assert cell.brute == cell.mv_e1 == cell.closed


def watch_quotient_routes(monkeypatch):
    """Record, per s, the ambient counts, the direct quotients built (their
    degrees), the bookkeeping runs (degree, refused) and the route notes of
    ``run_verify``'s loop row."""
    from collections import defaultdict

    import loopbetti.verify as verify

    seen = {"counted": defaultdict(int), "built": defaultdict(list),
            "bookkept": defaultdict(list), "notes": {}}
    real_count, real_quotient = verify.try_materialize_count, verify.quotient_betti_brute
    real_bookkept, real_tables = verify.bookkept_quotient_betti, verify.loop_quotient_tables

    def count(q, s, *args):
        seen["counted"][s] += 1
        return real_count(q, s, *args)

    def quotient(q, fixed, s, n_max):
        seen["built"][s].append(n_max)
        return real_quotient(q, fixed, s, n_max)

    def bookkept(q, s, n_max, *args):
        result = real_bookkept(q, s, n_max, *args)
        seen["bookkept"][s].append((n_max, result[0] is None))
        return result

    def tables(*args, **kwargs):
        result = real_tables(*args, **kwargs)
        seen["notes"].update(result[1])
        return result

    monkeypatch.setattr(verify, "try_materialize_count", count)
    monkeypatch.setattr(verify, "quotient_betti_brute", quotient)
    monkeypatch.setattr(verify, "bookkept_quotient_betti", bookkept)
    monkeypatch.setattr(verify, "loop_quotient_tables", tables)
    return seen


def test_verify_chooses_quotient_route_once_per_smash_power(monkeypatch):
    """Each path builds only the quotient tables its loop cells read.  The
    cover sum and the closed formula take the bookkeeping of their own
    pinched tables, which certifies at every s here, so they read no direct
    quotient; brute force reads the direct quotient through its last loop
    degree, min(--loop-max, --brute-loop-max), and only at the s it reaches."""
    import loopbetti.verify as verify

    seen = watch_quotient_routes(monkeypatch)
    space, invol = sphere_pair_swap()
    report = verify.run_verify(
        space, invol, s_max=2, t_max=2, loop_max=5, brute_loop_max=3
    )

    assert report.agreement
    assert set(seen["counted"]) == {2, 3}
    assert dict(seen["built"]) == {2: [3], 3: [3]}
    notes = seen["notes"]
    for cell in report.loop_row:
        if cell.s_or_n > 3:
            assert cell.brute is None
            assert cell.notes["brute"] == "s=4: not computed (beyond --brute-loop-max 3)"
    assert set(notes["brute"]) == {1, 2, 3}
    for s in (2, 3):
        assert notes["brute"][s].startswith("direct quotient homology")
    for s in (2, 3, 4, 5):
        assert notes["mv_e1"][s].startswith("exact-sequence bookkeeping")
        assert notes["closed"][s].startswith("exact-sequence bookkeeping")


def test_formula_paths_fall_back_to_one_shared_direct_quotient(monkeypatch):
    """Where the bookkeeping refuses, the cover sum and the closed formula
    read the direct quotient, and one quotient per s serves every path that
    reads it, built through the deepest degree among them: at s = 2 both
    formula paths certify by bookkeeping and brute force reads a direct
    quotient through its last loop degree 2; at s = 3, past brute force's
    limit, both bookkeeping runs refuse and share one quotient through 4."""
    import loopbetti.verify as verify

    seen = watch_quotient_routes(monkeypatch)
    space, invol = planted_fixed_loop(random.Random(1), 3, 3)
    report = verify.run_verify(space, invol, s_max=3, t_max=4, loop_max=4, brute_loop_max=2)

    assert report.agreement
    assert dict(seen["built"]) == {2: [2], 3: [4]}
    notes = seen["notes"]
    assert notes["brute"][2] == "direct quotient homology (232 cells)"
    for name in ("mv_e1", "closed"):
        assert notes[name][2].startswith("exact-sequence bookkeeping")
        assert notes[name][3] == "direct quotient homology (24818 cells)"
    assert [refused for _, refused in seen["bookkept"][2]] == [False] * 4
    assert [refused for _, refused in seen["bookkept"][3]] == [True, True]
    assert [[c.brute, c.mv_e1, c.closed] for c in report.loop_row] == [
        [2, 2, 2], [6, 6, 6], [None, 17, 17], [None, None, None]
    ]


def test_verify_trivial_circle_to_degree_forty():
    """From s = 7 on the smash power is over the direct budget, so the
    bookkeeping serves s = 7..40, the ones past the truncation record (32)
    included; the loop row is 2^(n-1)."""
    from loopbetti.sset_io import parse_file as load
    from loopbetti.verify import run_verify

    space, invol = load(FIXTURE_DIR / "trivial_circle.sset")
    report = run_verify(space, invol, s_max=3, t_max=40, brute_loop_max=5)
    assert report.agreement
    assert [c.s_or_n for c in report.loop_row] == list(range(1, 41))
    for cell in report.loop_row:
        assert cell.mv_e1 == cell.closed == 2 ** (cell.s_or_n - 1)
        if cell.s_or_n <= 5:
            assert cell.brute == 2 ** (cell.s_or_n - 1)


def test_verify_checks_the_diagonal_once_per_run(monkeypatch):
    import loopbetti.pinched as pinched
    import loopbetti.verify as verify

    calls = []
    real = pinched.check_diagonal_null

    def check(fixed):
        calls.append(fixed)
        return real(fixed)

    monkeypatch.setattr(pinched, "check_diagonal_null", check)
    monkeypatch.setattr(verify, "check_diagonal_null", check)
    space, invol = sphere_pair_swap()
    report = verify.run_verify(space, invol, s_max=3, t_max=3, loop_max=6, brute_loop_max=3)
    assert report.agreement and report.diagonal_null
    assert len(calls) == 1


def bench_flags(s_max, t_max, loop_max, brute_loop_max):
    return ("--s-max", str(s_max), "--t-max", str(t_max), "--loop-max", str(loop_max),
            "--brute-loop-max", str(brute_loop_max))


# every shipped fixture with an involution at default flags, then the verify
# calls of the benchmark workloads brute_pinched and formula_loop
NO_TUPLE_SPACE_RUNS = [
    ("sphere_pair_swap",),
    ("free_double_cover",),
    ("trivial_circle",),
    ("sphere_pair_swap", *bench_flags(5, 6, 6, 5)),
    ("sphere_pair_swap", *bench_flags(2, 2, 9, 4)),
    ("trivial_circle", *bench_flags(2, 2, 9, 4)),
]


@pytest.mark.parametrize("run", NO_TUPLE_SPACE_RUNS, ids=" ".join)
def test_verify_builds_no_tuple_space(run, monkeypatch, capsys):
    """The diagonal hypothesis and the direct budget are decided on the
    integer tables, so no verify run builds a tuple space."""
    from loopbetti.constructions import TupleSpace

    def refuse(self, *args, **kwargs):
        raise AssertionError("verify built a tuple space")

    monkeypatch.setattr(TupleSpace, "__init__", refuse)
    name, *flags = run
    assert main(["verify", str(FIXTURE_DIR / f"{name}.sset"), *flags, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["agreement"] is True


def test_verify_disables_columns_when_diagonal_is_not_null():
    """An edge pair swapped over two fixed endpoints: a section exists but
    the fixed set is a pair of points, whose reduced diagonal is nonzero on
    homology, so only the brute columns may be filled, and the loop row
    names the failed hypothesis as the grid does."""
    from loopbetti.simplicial import FiniteSimplicialSet, Involution
    from loopbetti.verify import run_verify

    space = FiniteSimplicialSet(
        16,
        {0: ["*", "p"], 1: ["w1", "w2"]},
        {"w1": ["p", "*"], "w2": ["p", "*"]},
    )
    invol = Involution(space, {"w1": "w2", "w2": "w1"})
    report = run_verify(space, invol, s_max=3, t_max=2, loop_max=2)
    assert report.section_found
    assert not report.diagonal_null
    for cell in report.cells:
        assert cell.mv_e1 is None and cell.closed is None
        assert cell.notes["mv_e1"] == "hypothesis not satisfied"
        assert cell.brute is not None
    assert report.agreement  # nothing computed can disagree with itself
    assert [c.s_or_n for c in report.loop_row] == [1, 2]
    for cell in report.loop_row:
        assert cell.brute is not None
        assert cell.mv_e1 is None and cell.closed is None
        assert cell.notes == dict.fromkeys(("mv_e1", "closed"), "hypothesis not satisfied")


def test_cli_verify_deterministic_output(capsys):
    args = [
        "verify",
        str(FIXTURE_DIR / "trivial_circle.sset"),
        "--s-max", "2", "--t-max", "2", "--loop-max", "2",
        "--json",
    ]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    doc1, doc2 = json.loads(first), json.loads(second)
    doc1.pop("timings")
    doc2.pop("timings")
    assert doc1 == doc2


def verify_json(capsys, path, *flags):
    assert main(["verify", str(path), *flags, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("fixture", "truncation", "timings"):
        doc.pop(key)
    return doc


@pytest.mark.parametrize("truncation", [2, 3])
def test_verify_on_a_low_truncation_file(truncation, tmp_path, capsys):
    """The diagonal check asks for no more truncation than its chains
    read: the glued spheres with truncation 2 or 3 give the same report as
    the shipped file, which has truncation 32."""
    shipped = FIXTURE_DIR / "sphere_pair_swap.sset"
    text = shipped.read_text()
    assert text.startswith("truncation 32\n")
    low = tmp_path / "low.sset"
    low.write_text(text.replace("truncation 32", f"truncation {truncation}", 1))
    flags = ("--s-max", "2", "--t-max", "1", "--loop-max", "1")
    assert verify_json(capsys, low, *flags) == verify_json(capsys, shipped, *flags)


def test_verify_on_a_file_truncated_at_its_top_dimension(tmp_path, capsys):
    """A finite set whose truncation reaches its top dimension has every
    degeneracy, so the diagonal check may ask the smash square of the fixed
    circle for one dimension more: the trivial circle with truncation 1
    gives the same report as the shipped file, which has truncation 32."""
    shipped = FIXTURE_DIR / "trivial_circle.sset"
    text = shipped.read_text()
    assert text.startswith("truncation 32\n")
    low = tmp_path / "low.sset"
    low.write_text(text.replace("truncation 32", "truncation 1", 1))
    flags = ("--s-max", "2", "--t-max", "1", "--loop-max", "1")
    assert verify_json(capsys, low, *flags) == verify_json(capsys, shipped, *flags)


def test_truncation_error_names_both_truncations():
    """A factor truncated below its top dimension refuses a higher
    truncation; a finite set truncated at its top dimension accepts any."""
    from oracles import count_by_enumeration

    from loopbetti.constructions import smash_power
    from loopbetti.simplicial import TruncationError
    from loopbetti.verify import try_materialize_count

    torus_part = smash_power(circle(), 2, 1)  # top dimension 2
    with pytest.raises(TruncationError, match="factor truncation 1 .* truncation 3"):
        smash_power(torus_part, 2, 3)
    low = FiniteSimplicialSet(1, {0: ["*"], 1: ["e"]}, {"e": ["*", "*"]})  # circle, truncation 1
    square, shipped = smash_power(low, 2, 3), smash_power(circle(), 2, 3)
    for n in range(4):
        assert square.nondeg(n) == shipped.nondeg(n)
        total = count_by_enumeration(square, n)
        assert try_materialize_count(low, 2, n, total) == total


# ---------------------------------------------------------------------------
# Start-up.
# ---------------------------------------------------------------------------

def test_cli_import_loads_no_introspection_modules():
    """Every CLI process pays the package's imports.  Importing
    ``loopbetti.cli`` in a fresh interpreter without ``site`` loads none of
    ``dataclasses`` and the modules it pulls in (``inspect``, ``ast``,
    ``dis``, ``tokenize``)."""
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = (
        "import sys; before = set(sys.modules); import loopbetti.cli; "
        f"print(sorted(set(sys.modules) - before & {set(heavy)!r}))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]", done.stdout
