"""Cross-validation of the three computation paths.

For a space with involution, the pinched grid compares, per smash power s
and degree t: brute-force homology of the pinched subset, the
cover-intersection sum, and the closed multi-index formula.  The loop row
assembles the loop-space Betti numbers from quotient tables per path.

Each path has one builder of a pinched Betti table per s, and one cache
serves both parts: the grid reads the tables through t_max and the loop
row asks for them through its last degree, so no loop cell depends on
t_max.  A brute table certifies every degree its cells decide: one whose
enumeration reaches the structural top is complete, however far it was
asked.  A path disabled by a failed hypothesis, or brute force past
--brute-loop-max, leaves cells empty with one reason, the same in both.
The diagonal hypothesis is decided once per run; the cover sum and the
closed formula then read only the Betti tables of the orbit space and the
fixed set.  Loop degree n sums the quotient tables of s = 1..n, so a path
stops building them at its first s without one, and an empty loop cell
names that s.

A quotient table is either brute-forced directly, when the ambient smash
power is small enough to materialize, or follows from exact-sequence
bookkeeping on a path's own pinched table, which is certified only when in
every needed degree either the ambient homology (a smash power of the
orbit table) or the pinched homology vanishes.  Each path builds only the
quotient tables its loop cells read, through the last degree they read.
The cover sum and the closed formula take their bookkeeping wherever it
certifies, brute force takes the direct quotient, and each falls back to
the other route; one direct quotient per smash power serves every path
that reads it.  So at every s up to --brute-loop-max where the
bookkeeping certifies, the loop row compares brute force on the
quotient's cells with the formula paths' own bookkeeping.
Cells that cannot be computed honestly stay empty rather than guessed.
"""

from __future__ import annotations

import json
import time
from functools import reduce
from math import comb
from typing import Any, Callable, Optional

from .closed_form import BettiInput, betti_pinched_formula_table, loop_betti
from .constructions import decide_section, orbit_space
from .homology import BettiTable, kunneth, reduced_betti
from .pinched import (
    check_diagonal_null,
    mv_e1_table,
    pinched_betti_brute,
    quotient_betti_brute,
)
from .simplicial import FiniteSimplicialSet, Involution, PointedSubset

DEFAULT_DIRECT_BUDGET = 30000
DEFAULT_BRUTE_LOOP_MAX = 5

HYPOTHESIS_NOT_SATISFIED = "hypothesis not satisfied"
PATHS = ("brute", "mv_e1", "closed")


class Cell:
    """One entry compared across the three paths: a pinched-grid cell at
    (s, t), or a loop-row cell at degree n (``s_or_n = n``, ``t = None``)."""

    def __init__(
        self,
        s_or_n: int,
        t: Optional[int],
        brute: Optional[int],
        mv_e1: Optional[int],
        closed: Optional[int],
        notes: Optional[dict[str, str]] = None,
    ):
        self.s_or_n = s_or_n
        self.t = t
        self.brute = brute
        self.mv_e1 = mv_e1
        self.closed = closed
        self.notes: dict[str, str] = {} if notes is None else notes

    @property
    def agree(self) -> bool:
        values = [v for v in (self.brute, self.mv_e1, self.closed) if v is not None]
        return len(set(values)) <= 1

    def to_dict(self) -> dict[str, Any]:
        at = {"n": self.s_or_n} if self.t is None else {"s": self.s_or_n, "t": self.t}
        return {
            **at,
            "brute": self.brute,
            "mv_e1": self.mv_e1,
            "closed": self.closed,
            "agree": self.agree,
            "notes": dict(sorted(self.notes.items())),
        }


class RunReport:
    """Result grid of a verification run, with hypothesis flags and timings."""

    def __init__(
        self,
        fixture: str,
        truncation: int,
        s_max: int,
        t_max: int,
        section_found: bool,
        diagonal_null: bool,
    ):
        self.fixture = fixture
        self.truncation = truncation
        self.s_max = s_max
        self.t_max = t_max
        self.section_found = section_found
        self.diagonal_null = diagonal_null
        self.cells: list[Cell] = []
        self.loop_row: list[Cell] = []
        self.messages: list[str] = []
        self.timings: dict[str, float] = {}

    @property
    def agreement(self) -> bool:
        return all(c.agree for c in self.cells + self.loop_row)

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": "verify",
            "fixture": self.fixture,
            "truncation": self.truncation,
            "s_max": self.s_max,
            "t_max": self.t_max,
            "hypotheses": {
                "section_exists": self.section_found,
                "diagonal_null": self.diagonal_null,
            },
            "pinched_cells": [c.to_dict() for c in self.cells],
            "loop_row": [c.to_dict() for c in self.loop_row],
            "agreement": self.agreement,
            "messages": list(self.messages),
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        rows = ["kind,s_or_n,t,brute,mv_e1,closed,agree"]

        def show(v: Optional[int]) -> str:
            return "" if v is None else str(v)

        for c in self.cells + self.loop_row:
            kind = "loop" if c.t is None else "pinched"
            rows.append(
                f"{kind},{c.s_or_n},{show(c.t)},{show(c.brute)},{show(c.mv_e1)},"
                f"{show(c.closed)},{str(c.agree).lower()}"
            )
        return "\n".join(rows) + "\n"

    def human(self) -> str:
        out = [
            f"fixture {self.fixture}: section {'found' if self.section_found else 'absent'}, "
            f"reduced diagonal of fixed set "
            f"{'homologous to zero' if self.diagonal_null else 'NOT homologous to zero'}"
        ]
        out.extend(self.messages)

        def show(v: Optional[int]) -> str:
            return "-" if v is None else str(v)

        out.append("")
        out.append("pinched grid (brute | cover sum | closed formula)")
        header = "  s\\t " + "".join(f"{t:>12}" for t in range(self.t_max + 1))
        out.append(header)
        by_s: dict[int, dict[Optional[int], Cell]] = {}
        for c in self.cells:
            by_s.setdefault(c.s_or_n, {})[c.t] = c
        for s in sorted(by_s):
            row = f"  {s:>3} "
            for t in range(self.t_max + 1):
                c = by_s[s].get(t)
                if c is None:
                    row += f"{'':>12}"
                else:
                    mark = "" if c.agree else "!"
                    row += f"{show(c.brute)}|{show(c.mv_e1)}|{show(c.closed)}{mark}".rjust(12)
            out.append(row)
        out.append("")
        out.append("loop-space Betti numbers (brute | cover sum | closed formula)")
        for c in self.loop_row:
            mark = "" if c.agree else "  <- DISAGREE"
            out.append(
                f"  n={c.s_or_n:>2}  {show(c.brute):>5} | {show(c.mv_e1):>5} | "
                f"{show(c.closed):>5}{mark}"
            )
        out.append("")
        out.append(f"agreement: {'yes' if self.agreement else 'NO'}")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Quotient-table strategies.
# ---------------------------------------------------------------------------

def try_materialize_count(q, s: int, n_max: int, budget: int) -> Optional[int]:
    """Total nondegenerate simplices of the s-fold smash power of q through
    ``n_max``, basepoint included, or None over budget.

    Counted without enumeration, by inclusion-exclusion over the degeneracy
    indices shared by every component: the s-tuples whose words all contain
    a given k-set correspond to the s-tuples at dimension n - k, and q has
    sum_d N_d C(m, d) non-basepoint simplices at ambient dimension m, N_d
    counting its non-basepoint nondegenerate d-simplices.  So asking about
    an explosively large smash power stays cheap, and an ambient within
    budget is enumerated only once, by the quotient."""
    n_max = min(n_max, s * q.top_dim())
    counts = [len(q.nondeg(d)) - (d == 0) for d in range(min(n_max, q.top_dim()) + 1)]
    tuples = [sum(c * comb(m, d) for d, c in enumerate(counts)) ** s for m in range(n_max + 1)]
    total = 1  # the basepoint
    for n in range(n_max + 1):
        total += sum((-1) ** k * comb(n, k) * tuples[n - k] for k in range(n + 1))
        if total > budget:
            return None
    return total


def direct_quotient_betti(
    q,
    fixed: PointedSubset,
    s: int,
    n_max: int,
    betti_q: BettiTable,
    direct_budget: int = DEFAULT_DIRECT_BUDGET,
) -> Optional[tuple[BettiTable, str]]:
    """Betti table of (smash power)/(pinched subset) through n_max and a
    note, without a pinched table: the basepoint quotient at s = 1, else the
    homology of the quotient's cells on the integer tables
    (``quotient_betti_brute``).  None when the ambient is over budget or
    needs a dimension ``q`` does not reach.  No path's data is read, so one
    result serves every path that reads it."""
    if s == 1:
        entries = {n: betti_q[n] for n in range(n_max + 1)}
        table = BettiTable(entries, certified=n_max, zero_from=q.top_dim() + 1)
        return table, "quotient by the basepoint"
    trunc = min(n_max + 1, q.top_dim() * s)
    if not q.reaches(trunc):
        return None
    count = try_materialize_count(q, s, trunc, direct_budget)
    if count is None:
        return None
    return quotient_betti_brute(q, fixed, s, n_max), f"direct quotient homology ({count} cells)"


def bookkept_quotient_betti(
    q, s: int, n_max: int, pinched_table: BettiTable, ambient_table: BettiTable
) -> tuple[Optional[BettiTable], str]:
    """Betti table of (smash power)/(pinched subset) through n_max by
    exact-sequence bookkeeping, valid in each degree where the ambient
    (``ambient_table``, the Kunneth power of the orbit table) or the
    pinched homology vanishes.  Returns the table and a note, or (None,
    reason)."""
    entries = {}
    for n in range(n_max + 1):
        if not (ambient_table.covers(n) and pinched_table.covers(n - 1)):
            return None, f"tables not certified at degree {n}"
        amb_n = ambient_table[n]
        pin_prev = pinched_table[n - 1]
        # b_n(quot) = amb_n - rank_n + pin_prev - rank_{n-1}; an inclusion
        # rank is certifiably zero when either side of the map vanishes.
        # rank_{n-1} needs no check here: degree n - 1 went on only where
        # amb_(n-1) or pin_prev is zero
        if amb_n and not (pinched_table.covers(n) and pinched_table[n] == 0):
            return None, (
                f"cannot certify the inclusion rank at degree {n}: ambient and "
                "pinched homology may both be nonzero"
            )
        entries[n] = amb_n + pin_prev
    zf = q.top_dim() * s + 1
    return (
        BettiTable(entries, certified=n_max, zero_from=zf if n_max + 1 >= zf else None),
        "exact-sequence bookkeeping",
    )


def stunted_quotient_betti(
    q,
    fixed: PointedSubset,
    s: int,
    n_max: int,
    pinched_table: BettiTable,
    betti_q: BettiTable,
    direct_budget: int = DEFAULT_DIRECT_BUDGET,
) -> tuple[Optional[BettiTable], str]:
    """Betti table of (smash power)/(pinched subset) through n_max and a
    note on the route: direct when the ambient is small enough, otherwise
    bookkeeping from ``pinched_table``; (None, reason) when neither works."""
    direct = direct_quotient_betti(q, fixed, s, n_max, betti_q, direct_budget)
    return direct or bookkept_quotient_betti(
        q, s, n_max, pinched_table, reduce(kunneth, [betti_q] * (s - 1), betti_q)
    )


def loop_quotient_tables(
    q,
    fixed: PointedSubset,
    n_max: int,
    limits: dict[str, int],
    pinched: Callable[[str, int, int], BettiTable],
    betti_q: BettiTable,
    direct_budget: int = DEFAULT_DIRECT_BUDGET,
) -> tuple[dict[str, dict[int, BettiTable]], dict[str, dict[int, str]]]:
    """Quotient tables and route notes for s = 1..n_max, per path.

    ``limits`` maps each path to the largest s it has a pinched table for
    (0 for none), and ``pinched(path, s, top)`` gives that table through
    degree ``top``.  A path takes part at s only when it has a quotient
    table for every smaller s: past its first gap no loop degree can use
    one.  So a path's loop cells read its tables through min(n_max, its
    limit), and each of its tables is built through that degree alone.

    At s = 1 every path takes the quotient by the basepoint.  From s = 2
    the formula paths, whose pinched tables cost nothing, take the
    bookkeeping of their own tables, and read the direct quotient only
    where it refuses; brute force reads the direct quotient, and falls
    back to the bookkeeping of its own table where that is over budget.
    At most one direct quotient is built per s, through the deepest degree
    among its readers that fits, and it serves each reader through that
    degree.  The bookkeeping first runs through the lowest degree d where
    the ambient is nonzero, on a pinched table through d: below d no check
    can fail on a pinched value, so a refusal there is the full run's
    refusal, and the deeper table is never built.
    """

    def bookkept(name: str, s: int, top: int) -> tuple[Optional[BettiTable], str]:
        first = min(ambient.support()[:1] + [top])
        result = bookkept_quotient_betti(q, s, first, pinched(name, s, first), ambient)
        if result[0] is not None and first < top:
            result = bookkept_quotient_betti(q, s, top, pinched(name, s, top), ambient)
        return result

    tables: dict[str, dict[int, BettiTable]] = {name: {} for name in limits}
    notes: dict[str, dict[int, str]] = {name: {} for name in limits}
    for s in range(1, n_max + 1):
        # the last degree each path taking part at s reads
        reads = {
            name: min(n_max, top)
            for name, top in limits.items()
            if s <= top and len(tables[name]) == s - 1
        }
        if not reads:
            break
        ambient = kunneth(ambient, betti_q) if s > 1 else betti_q
        results = {
            name: bookkept(name, s, top)
            for name, top in reads.items()
            if s > 1 and name != "brute"
        }
        direct_reads = {
            name: top
            for name, top in reads.items()
            if name not in results or results[name][0] is None
        }
        # one direct quotient, through the deepest of their degrees that fits
        for top in sorted(set(direct_reads.values()), reverse=True):
            direct = direct_quotient_betti(q, fixed, s, top, betti_q, direct_budget)
            if direct is not None:
                results.update((name, direct) for name, read in direct_reads.items() if read <= top)
                break
        for name, top in reads.items():
            # brute force without a direct quotient falls back to bookkeeping
            table, notes[name][s] = results.get(name) or bookkept(name, s, top)
            if table is not None:
                tables[name][s] = table
    return tables, notes


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def run_verify(
    space: FiniteSimplicialSet,
    invol: Involution,
    s_max: int,
    t_max: int,
    fixture: str = "",
    loop_max: Optional[int] = None,
    brute_loop_max: int = DEFAULT_BRUTE_LOOP_MAX,
    direct_budget: int = DEFAULT_DIRECT_BUDGET,
) -> RunReport:
    """Fill the three-path grid and loop row for a space with involution.
    Brute force fills the loop row through s = ``brute_loop_max``, by
    default ``DEFAULT_BRUTE_LOOP_MAX``, the command line's default too."""
    t_start = time.perf_counter()
    orbit, _, fixed = orbit_space(space, invol)
    loop_max = t_max if loop_max is None else loop_max

    section, refutation = decide_section(space, invol)
    diagonal_null = check_diagonal_null(fixed)
    report = RunReport(
        fixture=fixture,
        truncation=space.truncation,
        s_max=s_max,
        t_max=t_max,
        section_found=section is not None,
        diagonal_null=diagonal_null,
    )
    if section is None:
        x, partner = refutation[0], invol(refutation[0])
        report.messages.append(
            "no simplicial section of the orbit projection exists: a section "
            f"through {x} must contain {partner} and one through {partner} must "
            f"contain {x} ({' => '.join(map(str, refutation))}, each step forced "
            "by a face relation); the loop-space decomposition does not apply, "
            "so the loop row is left empty"
        )
    if not diagonal_null:
        report.messages.append(
            "the reduced diagonal of the fixed set is not homologous to zero; "
            "cover-sum and closed-formula columns are disabled"
        )

    top_needed = max(t_max, loop_max)
    betti_q = reduced_betti(orbit, max(top_needed, orbit.top_dim()))
    inp = BettiInput(betti_q, reduced_betti(fixed, max(top_needed, fixed.top_dim())))

    def formula(top: int, values: list[int]) -> BettiTable:
        return BettiTable(dict(enumerate(values)), certified=top)

    # each builds the pinched Betti table of one s through degree top
    builders: dict[str, Callable[[int, int], BettiTable]] = {
        "brute": lambda s, top: pinched_betti_brute(orbit, fixed, s, top),
        "mv_e1": lambda s, top: formula(top, mv_e1_table(inp, s, top)),
        "closed": lambda s, top: formula(top, betti_pinched_formula_table(inp, s, top)),
    }
    # why a path leaves a cell empty, the same in the grid and the loop row
    reasons = {"brute": f"not computed (beyond --brute-loop-max {brute_loop_max})"}
    if not diagonal_null:
        for name in ("mv_e1", "closed"):
            del builders[name]
            reasons[name] = HYPOTHESIS_NOT_SATISFIED
    disabled = {name: reasons[name] for name in PATHS if name not in builders}
    cache: dict[tuple[str, int], BettiTable] = {}

    def pinched(name: str, s: int, top: int) -> BettiTable:
        table = cache.get((name, s))
        if table is None or not (table.complete or table.certified >= top):
            table = cache[name, s] = builders[name](s, top)
        return table

    # --- pinched grid ---
    t0 = time.perf_counter()
    for s in range(2, s_max + 1):
        for t in range(t_max + 1):
            values = {name: pinched(name, s, t_max)[t] for name in builders}
            report.cells.append(Cell(s, t, *map(values.get, PATHS), dict(disabled)))
    report.timings["pinched_grid"] = time.perf_counter() - t0

    # --- loop row ---
    t0 = time.perf_counter()
    if section is not None:
        limits = {name: loop_max if name in builders else 0 for name in PATHS}
        limits["brute"] = brute_loop_max
        tables, route_notes = loop_quotient_tables(
            orbit, fixed, loop_max, limits, pinched, betti_q, direct_budget
        )
        for n in range(1, loop_max + 1):
            values, notes = {}, dict(disabled)
            for name in builders:
                gap = len(tables[name]) + 1  # the path's first s without a table
                if n < gap:
                    values[name] = loop_betti(tables[name], n)
                else:  # an s past the path's limit has no route note
                    notes[name] = f"s={gap}: {route_notes[name].get(gap) or reasons[name]}"
            report.loop_row.append(Cell(n, None, *map(values.get, PATHS), notes))
    report.timings["loop_row"] = time.perf_counter() - t0
    report.timings["total"] = time.perf_counter() - t_start
    return report
