"""Seeded random inputs: three-path agreement on random spaces, and the
command line on truncated, flagged and malformed fixture files."""

import json
import random
from pathlib import Path

import pytest
from section_spaces import planted_fixed_loop, random_verify_case, trivial_surface
from shipped import FIXTURE_DIR, sphere_pair_swap

import loopbetti.verify as verify
from loopbetti.cli import main
from loopbetti.sset_io import parse, serialize
from loopbetti.verify import DEFAULT_DIRECT_BUDGET, HYPOTHESIS_NOT_SATISFIED, run_verify



# ---------------------------------------------------------------------------
# Three-path agreement.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "direct_budget", [DEFAULT_DIRECT_BUDGET, 0], ids=["default_budget", "bookkeeping"]
)
def test_three_paths_agree_on_random_spaces(direct_budget):
    """Every computed cell agrees, and a failed hypothesis disables exactly
    the columns it should, in the grid and in the loop row.  Seed 11 draws
    spaces with a disconnected orbit space, on which a closed formula
    without degree 0 disagreed.  A zero budget sends every s >= 2 through
    the per-path exact-sequence bookkeeping."""
    rng = random.Random(11)
    both_hypotheses = 0
    for i in range(150):
        space, invol, flags = random_verify_case(rng)
        report = run_verify(space, invol, direct_budget=direct_budget, **flags)
        assert report.agreement, (i, flags, serialize(space, invol))
        if not report.diagonal_null:
            for cell in report.cells:
                assert cell.mv_e1 is None and cell.closed is None
                assert set(cell.notes.values()) == {HYPOTHESIS_NOT_SATISFIED}
            for cell in report.loop_row:
                assert cell.mv_e1 is None and cell.closed is None
                assert cell.notes["mv_e1"] == cell.notes["closed"] == HYPOTHESIS_NOT_SATISFIED
        if not report.section_found:
            assert report.loop_row == []
        both_hypotheses += report.diagonal_null and report.section_found
    assert both_hypotheses >= 40


# the loop row per path at s_max = t_max = 4, loop_max = 6, brute_loop_max = 4.
# The 2-sphere's diagonal is null; the projective plane's and the torus's
# are not, so only brute force fills their loop cells, through n = 3.
SURFACE_LOOP_ROWS = {
    "sphere": {
        "brute": [0, 1, 1, 2, None, None],
        "mv_e1": [0, 1, 1, 2, 3, 5],
        "closed": [0, 1, 1, 2, 3, 5],
    },
    # brute force reads s = 4 through degree 4 alone, where the direct
    # quotient (19,215 ambient cells) fits the default budget; n = 4 is the 8
    # that the quotient read through degree 6 (45,315 cells), as every path
    # read it before, gives at a budget of 10^7
    "projective_plane": {"brute": [1, 2, 4, 8, None, None]},
    "torus": {"brute": [2, 6, 17, None, None, None]},
}


@pytest.mark.parametrize("name", sorted(SURFACE_LOOP_ROWS))
def test_surfaces_as_fixed_sets(name):
    """Fixed sets with homology in degree 2: the trivial involution on the
    one-vertex 2-sphere, projective plane and torus."""
    space, invol = trivial_surface(name)
    report = run_verify(space, invol, s_max=4, t_max=4, loop_max=6, brute_loop_max=4)
    assert report.agreement and report.section_found
    assert report.diagonal_null == (name == "sphere")
    rows = SURFACE_LOOP_ROWS[name]
    for path in verify.PATHS:
        assert [getattr(c, path) for c in report.loop_row] == rows.get(path, [None] * 6)
    if not report.diagonal_null:
        for cell in report.cells + report.loop_row:
            assert cell.notes["mv_e1"] == cell.notes["closed"] == HYPOTHESIS_NOT_SATISFIED


# draw 278 of ``random_verify_case(random.Random(1))``: s_max 4, t_max 5,
# loop_max 4, brute_loop_max 4
THREE_ORBITS_OF_POINTS = """\
truncation 8
basepoint *
simplices 0 * u0 w0 u1 w1 u2 w2
simplices 1 x0 x0'
simplices 2 T0 T0' T1 T1' T2 T2'
faces x0 u1 w0
faces x0' w1 u0
faces T0 s0@w1 s0@w1 s0@w1
faces T0' s0@u1 s0@u1 s0@u1
faces T1 s0@u0 s0@u0 s0@u0
faces T1' s0@w0 s0@w0 s0@w0
faces T2 s0@u1 s0@u1 s0@u1
faces T2' s0@w1 s0@w1 s0@w1
involution u0 w0
involution w0 u0
involution u1 w1
involution w1 u1
involution u2 w2
involution w2 u2
involution x0 x0'
involution x0' x0
involution T0 T0'
involution T0' T0
involution T1 T1'
involution T1' T1
involution T2 T2'
involution T2' T2
"""


@pytest.mark.parametrize(
    "direct_budget", [DEFAULT_DIRECT_BUDGET, 0], ids=["default_budget", "bookkeeping"]
)
def test_loop_row_does_not_depend_on_t_max(direct_budget):
    """Every path's pinched table is asked through the loop row's last
    degree, so the loop row is the same whether the grid stops at t = 0 or
    goes past it; at n = 4 the inclusion-rank check reads b_4 of the s = 4
    pinched table in all three paths."""
    space, invol = parse(THREE_ORBITS_OF_POINTS)
    rows = []
    for t_max in (0, 5):
        report = run_verify(
            space, invol, 4, t_max, loop_max=4, brute_loop_max=4, direct_budget=direct_budget
        )
        assert report.agreement and report.diagonal_null and report.section_found
        rows.append([c.to_dict() for c in report.loop_row])
    assert rows[0] == rows[1]
    last = rows[0][-1]
    assert (last["n"], last["brute"], last["mv_e1"], last["closed"]) == (4, 279, 279, 279)


@pytest.mark.parametrize("loop_max", [4, 5])
def test_loop_row_at_and_past_a_small_truncation(loop_max, monkeypatch):
    """The shipped sphere pair swap stored only through dimension 4.  At
    s = 4 the structural bound is 5, so the brute table, asked through the
    loop row's last degree, enumerates its cells through 5 and is certified
    there, one degree past the truncation, even when asked through 4; every
    simplex there is a degeneracy of a stored one, so the loop row is
    filled, not refused."""
    built = []
    real = verify.pinched_betti_brute

    def brute(q, fixed, s, t_max):
        table = real(q, fixed, s, t_max)
        built.append((s, t_max, table.certified))
        return table

    monkeypatch.setattr(verify, "pinched_betti_brute", brute)
    text = (FIXTURE_DIR / "sphere_pair_swap.sset").read_text()
    space, invol = parse(text.replace("truncation 32", "truncation 4"))
    report = run_verify(space, invol, 2, 2, loop_max=loop_max)
    assert (4, loop_max, 5) in built
    assert report.agreement
    values = [(c.brute, c.mv_e1, c.closed) for c in report.loop_row]
    assert values == [(b, b, b) for b in [0, 2, 1, 5, 5][:loop_max]]


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


# draw 4 of ``random_space`` from ``random.Random(11)``: the orbit space has
# reduced b_0 = 1 and the fixed set {*, p0} a nonzero reduced diagonal
ISOLATED_FIXED_POINT = """\
truncation 8
basepoint *
simplices 0 * p0 u1 w1
simplices 1 x0 x0' x1 x1'
simplices 2 T0 T0' T1 T1'
faces x0 * w1
faces x0' * u1
faces x1 * u1
faces x1' * w1
faces T0 x0' x0' s0@u1
faces T0' x0 x0 s0@w1
faces T1 s0@* x0 x0
faces T1' s0@* x0' x0'
involution u1 w1
involution w1 u1
involution x0 x0'
involution x0' x0
involution x1 x1'
involution x1' x1
involution T0 T0'
involution T0' T0
involution T1 T1'
involution T1' T1
"""


def test_bookkeeping_refuses_before_building_deep_tables(monkeypatch):
    """From s = 4 on the ambient is over the direct budget, so the brute
    loop column goes through the bookkeeping, which refuses at degree 0:
    the Kunneth ambient and the pinched homology are both nonzero there.
    It learns so from tables through degree 0, never builds the s = 4 brute
    table through the loop row's degree 6, and builds none for s >= 5,
    which no loop degree could use past the gap at s = 4."""
    built = []
    real = verify.pinched_betti_brute

    def brute(q, fixed, s, t_max):
        built.append((s, t_max))
        return real(q, fixed, s, t_max)

    monkeypatch.setattr(verify, "pinched_betti_brute", brute)
    space, invol = parse(ISOLATED_FIXED_POINT)
    report = run_verify(space, invol, 2, 4, loop_max=6)
    assert report.section_found and not report.diagonal_null
    assert all(t_max <= 1 for s, t_max in built if s == 4), built
    assert not [s for s, _ in built if s >= 5], built
    refused = (
        "cannot certify the inclusion rank at degree 0: "
        "ambient and pinched homology may both be nonzero"
    )
    for cell in report.loop_row:
        assert cell.notes["mv_e1"] == cell.notes["closed"] == HYPOTHESIS_NOT_SATISFIED
        if cell.s_or_n < 4:
            assert "brute" not in cell.notes
        else:
            assert cell.brute is None
            assert cell.notes["brute"] == f"s=4: {refused}"
    assert [c.brute for c in report.loop_row[:3]] == [1, 7, 17]


def test_loop_row_stops_at_the_first_refused_smash_power(monkeypatch):
    """With a fixed loop the bookkeeping refuses s = 3 at degree 3 for every
    path, so no loop degree from 3 on can be filled: no pinched table,
    formula table or direct quotient is built for s >= 4, and the empty
    cells name s = 3 alone."""
    from collections import Counter

    built = Counter()
    for name in ("pinched_betti_brute", "mv_e1_table", "betti_pinched_formula_table",
                 "quotient_betti_brute"):
        real = getattr(verify, name)

        def counted(*args, real=real, name=name):
            built[name, args[2] if name.endswith("brute") else args[1]] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, counted)
    space, invol = planted_fixed_loop(random.Random(1), 50, 50)
    report = run_verify(space, invol, s_max=3, t_max=3, loop_max=4, brute_loop_max=4)
    assert report.agreement
    rows = [[getattr(c, p) for p in verify.PATHS] for c in report.loop_row]
    assert rows == [[16] * 3, [272] * 3, [None] * 3, [None] * 3]
    refused = (
        "s=3: cannot certify the inclusion rank at degree 3: "
        "ambient and pinched homology may both be nonzero"
    )
    for cell in report.loop_row[2:]:
        assert cell.notes == {p: refused for p in verify.PATHS}
    assert {s for _, s in built} == {2, 3}, built


# ---------------------------------------------------------------------------
# The truncation record and the brute loop default.
# ---------------------------------------------------------------------------

def retruncated(space, invol, truncation: int):
    """The space and involution saved with another truncation record."""
    _, rest = serialize(space, invol).split("\n", 1)
    return parse(f"truncation {truncation}\n{rest}")


def test_loop_row_of_a_fixed_loop_at_truncation_two():
    """A listed space reaches every dimension, so its loop row does not
    depend on the number in its truncation record: at truncation 2 the
    direct quotient of s = 3 runs as at truncation 8."""
    built = planted_fixed_loop(random.Random(1), 3, 3)
    rows = []
    for space, invol in (built, retruncated(*built, 2)):
        report = run_verify(space, invol, 2, 2, loop_max=3)
        assert report.agreement
        rows.append([[getattr(c, p) for p in verify.PATHS] for c in report.loop_row])
    assert rows[0] == rows[1] == [[2] * 3, [6] * 3, [17] * 3]


def test_report_does_not_depend_on_the_truncation_record():
    """Random spaces saved with their top dimension as the truncation give
    the report they give as built, less the fields that name the input."""
    rng = random.Random(1)
    for i in range(100):
        space, invol, flags = random_verify_case(rng)
        reports = [
            run_verify(*pair, **flags).to_dict()
            for pair in ((space, invol), retruncated(space, invol, space.top_dim()))
        ]
        for doc in reports:
            for key in ("fixture", "truncation", "timings"):
                del doc[key]
        assert reports[0] == reports[1], (i, flags, serialize(space, invol))


def test_brute_loop_column_stops_at_the_shared_default(monkeypatch):
    """``run_verify`` and ``--brute-loop-max`` share one default, 5: a loop
    row through n = 9 builds no brute table past s = 5, and from n = 6 on
    the brute column names s = 6 and the flag."""
    built = []
    real = verify.pinched_betti_brute

    def brute(q, fixed, s, t_max):
        built.append(s)
        return real(q, fixed, s, t_max)

    monkeypatch.setattr(verify, "pinched_betti_brute", brute)
    report = run_verify(*sphere_pair_swap(), 2, 2, loop_max=9)
    assert report.agreement and len(report.loop_row) == 9
    assert built and max(built) <= 5, built
    for cell in report.loop_row[5:]:
        assert cell.brute is None
        assert cell.notes["brute"] == "s=6: not computed (beyond --brute-loop-max 5)"


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
