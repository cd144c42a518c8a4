"""Seeded random inputs: three-path agreement on random spaces, and the
command line on truncated, flagged and malformed fixture files."""

import json
import random
from pathlib import Path

import pytest
from section_spaces import random_verify_case

from loopbetti.cli import main
from loopbetti.sset_io import parse, serialize
from loopbetti.verify import HYPOTHESIS_NOT_SATISFIED, run_verify

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# Three-path agreement.
# ---------------------------------------------------------------------------

def test_three_paths_agree_on_random_spaces():
    """Every computed cell agrees, and a failed hypothesis disables exactly
    the columns it should.  Seed 11 draws spaces with a disconnected orbit
    space, on which a closed formula without degree 0 disagreed."""
    rng = random.Random(11)
    both_hypotheses = 0
    for i in range(150):
        space, invol, flags = random_verify_case(rng)
        report = run_verify(space, invol, **flags)
        assert report.agreement, (i, flags, serialize(space, invol))
        if not report.diagonal_null:
            for cell in report.cells:
                assert cell.mv_e1 is None and cell.closed is None
                assert set(cell.notes.values()) == {HYPOTHESIS_NOT_SATISFIED}
            assert all(c.mv_e1 is None and c.closed is None for c in report.loop_row)
        if not report.section_found:
            assert report.loop_row == []
        both_hypotheses += report.diagonal_null and report.section_found
    assert both_hypotheses >= 40


DISCONNECTED_ORBITS = """\
truncation 8
basepoint *
simplices 0 * u0 w0
simplices 2 T0
faces T0 s0@* s0@* s0@*
involution u0 w0
involution w0 u0
"""


def test_closed_formula_counts_degree_zero():
    """The orbit space is a 2-sphere beside an isolated point (reduced
    b_0 = 1) and the fixed set the 2-sphere; both hypotheses hold, so the
    closed formula has to count degree-0 parts like the other two paths."""
    space, invol = parse(DISCONNECTED_ORBITS)
    report = run_verify(space, invol, 4, 4, loop_max=4)
    assert report.diagonal_null and report.section_found
    assert report.agreement
    grid = {(c.s_or_n, c.t): c for c in report.cells}
    for (s, t), value in {(3, 2): 2, (4, 2): 3, (4, 3): 2, (4, 4): 7}.items():
        cell = grid[(s, t)]
        assert cell.brute == cell.mv_e1 == cell.closed == value, cell
    assert [c.closed for c in report.loop_row] == [0, 3, 3, 13]


# ---------------------------------------------------------------------------
# The command line under seeded random input.
# ---------------------------------------------------------------------------

def mangled(rng: random.Random, text: str) -> str:
    """The text with one random edit: a line dropped, duplicated or cut
    short, a token replaced, or the whole text cut at a random point."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    edit = rng.randrange(5)
    if edit == 0:
        del lines[k]
    elif edit == 1:
        lines.insert(k, lines[k])
    elif edit == 2:
        lines[k] = lines[k][: rng.randrange(len(lines[k]) + 1)]
    elif edit == 3:
        tokens = lines[k].split()
        tokens[rng.randrange(len(tokens))] = rng.choice(
            ["*", "e", "s0@*", "s1@e", "d0@e", "-1", "99", "x", "faces", "@", ""]
        )
        lines[k] = " ".join(tokens)
    else:
        return text[: rng.randrange(len(text))]
    return "\n".join(lines) + "\n"


def random_argv(rng: random.Random, path: Path) -> list[str]:
    if rng.random() < 0.25:
        argv = ["betti", str(path), "--max-dim", str(rng.randint(0, 5))]
        return argv + ["--json"] * rng.randint(0, 1)
    argv = ["verify", str(path)]
    for flag, top in (("--s-max", 3), ("--t-max", 4), ("--loop-max", 4), ("--brute-loop-max", 3)):
        if rng.random() < 0.8:
            argv += [flag, str(rng.randint(0, top))]
    if rng.random() < 0.3:
        argv += ["--direct-budget", str(rng.choice([0, 50, 5000]))]
    return argv + rng.choice([[], ["--json"], ["--csv"]])


def assert_complete(argv: list[str], out: str) -> None:
    if argv[0] == "betti":
        if "--json" in argv:
            assert set(json.loads(out)["betti"]) == {str(n) for n in range(int(argv[3]) + 1)}
        else:
            assert [line.split(" = ")[0] for line in out.splitlines()] == [
                f"b{n}" for n in range(int(argv[3]) + 1)
            ]
    elif "--json" in argv:
        assert isinstance(json.loads(out)["agreement"], bool)
    elif "--csv" in argv:
        lines = out.splitlines()
        assert lines[0] == "kind,s_or_n,t,brute,mv_e1,closed,agree"
        assert all(len(line.split(",")) == 7 for line in lines)
    else:
        assert out.endswith(("agreement: yes\n", "agreement: NO\n"))


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.sset")))
def test_cli_on_truncated_and_malformed_fixtures(name, tmp_path, capsys):
    """Truncations 0..5 of a shipped file, six runs intact and eight
    mangled each, under random flags: a complete report with exit 0 or 1, or exit 2 with one
    ``error:`` line and nothing on stdout."""
    rng = random.Random(name)
    text = (FIXTURE_DIR / f"{name}.sset").read_text()
    head, rest = text.split("\n", 1)
    assert head == "truncation 32"
    path = tmp_path / "fuzz.sset"
    for truncation in range(6):
        shipped = f"truncation {truncation}\n{rest}"
        runs = [shipped] * 6 + [mangled(rng, shipped) for _ in range(8)]
        for version in runs:
            path.write_text(version)
            argv = random_argv(rng, path)
            code = main(argv)
            out, err = capsys.readouterr()
            context = (argv, version, out, err)
            if code == 2:
                assert out == "" and err.startswith("error: "), context
                assert err.count("\n") == 1, context
            else:
                assert code in (0, 1) and err == "", context
                assert_complete(argv, out)
