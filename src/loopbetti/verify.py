"""Cross-validation of the three computation paths.

For a space with involution, the pinched grid compares, per smash power s
and degree t: brute-force homology of the pinched subset, the
cover-intersection sum, and the closed multi-index formula.  The loop row
assembles the loop-space Betti numbers from quotient tables per path.

Quotient tables are brute-forced directly when the ambient smash power is
small enough to materialize; otherwise they follow from exact-sequence
bookkeeping, which is certified only when in every needed degree either the
ambient homology (a smash power of the orbit table) or the pinched homology
vanishes.  The route is chosen once per smash power: the direct table reads
no path's pinched table, so all three paths share it.  Cells that cannot be
computed honestly stay empty rather than guessed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .closed_form import BettiInput, betti_pinched_formula_table, loop_betti
from .constructions import decide_section, orbit_space, smash_power
from .homology import (
    BettiTable,
    UncertifiedRangeError,
    kunneth_power,
    reduced_betti,
)
from .pinched import (
    check_diagonal_null,
    mv_e1_table,
    pinched_betti_brute,
    pinched_top_bound,
    quotient_betti_brute,
)
from .simplicial import FiniteSimplicialSet, Involution, PointedSubset

DEFAULT_DIRECT_BUDGET = 30000

HYPOTHESIS_NOT_SATISFIED = "hypothesis not satisfied"
NOT_COMPUTED = "not computed"


@dataclass
class Cell:
    """One entry compared across the three paths: a pinched-grid cell at
    (s, t), or a loop-row cell at degree n (``s_or_n = n``, ``t = None``)."""

    s_or_n: int
    t: Optional[int]
    brute: Optional[int]
    mv_e1: Optional[int]
    closed: Optional[int]
    notes: dict[str, str] = field(default_factory=dict)

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


@dataclass
class RunReport:
    """Result grid of a verification run, with hypothesis flags and timings."""

    fixture: str
    truncation: int
    s_max: int
    t_max: int
    section_found: bool
    diagonal_null: bool
    cells: list[Cell] = field(default_factory=list)
    loop_row: list[Cell] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

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

def try_materialize_count(space, top: int, budget: int) -> Optional[int]:
    """Total nondegenerate simplices of a tuple space through ``top``, or
    None over budget.

    The count is closed-form (``TupleSpace.count_nondeg``), so asking about
    an explosively large smash power stays cheap and an ambient within
    budget is enumerated only once, by the quotient."""
    total = 0
    for n in range(min(top, space.top_dim(), space.truncation) + 1):
        total += space.count_nondeg(n)
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
    needs dimensions beyond the truncation of ``q``.  No path's data is
    read, so one result serves all three."""
    if s == 1:
        entries = {n: betti_q[n] for n in range(n_max + 1)}
        table = BettiTable(entries, certified=n_max, zero_from=q.top_dim() + 1)
        return table, "quotient by the basepoint"
    trunc = min(n_max + 1, q.top_dim() * s)
    if trunc > q.truncation:
        return None
    count = try_materialize_count(smash_power(q, s, trunc), n_max + 1, direct_budget)
    if count is None:
        return None
    return quotient_betti_brute(q, fixed, s, n_max), f"direct quotient homology ({count} cells)"


def bookkept_quotient_betti(
    q, s: int, n_max: int, pinched_table: BettiTable, betti_q: BettiTable
) -> tuple[Optional[BettiTable], str]:
    """Betti table of (smash power)/(pinched subset) through n_max by
    exact-sequence bookkeeping, valid in each degree where the ambient
    (Kunneth power of the orbit table) or the pinched homology vanishes.
    Returns the table and a note, or (None, reason)."""
    ambient_table = kunneth_power(betti_q, s)
    entries = {}
    for n in range(n_max + 1):
        if not (ambient_table.covers(n) and pinched_table.covers(n - 1)):
            return None, f"tables not certified at degree {n}"
        amb_n = ambient_table[n]
        pin_prev = pinched_table[n - 1]
        # b_n(quot) = amb_n - rank_n + pin_prev - rank_{n-1}; an inclusion
        # rank is certifiably zero when either side of the map vanishes
        if amb_n and not (pinched_table.covers(n) and pinched_table[n] == 0):
            return None, (
                f"cannot certify the inclusion rank at degree {n}: ambient and "
                "pinched homology may both be nonzero"
            )
        if pin_prev and not (ambient_table.covers(n - 1) and ambient_table[n - 1] == 0):
            return None, (
                f"cannot certify the inclusion rank at degree {n - 1}: ambient "
                "and pinched homology may both be nonzero"
            )
        entries[n] = amb_n + pin_prev
    zf = q.top_dim() * s + 1
    return (
        BettiTable(entries, certified=n_max, zero_from=zf if n_max + 1 >= zf else None),
        "exact-sequence bookkeeping (ambient too large to materialize)",
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
    return direct or bookkept_quotient_betti(q, s, n_max, pinched_table, betti_q)


def loop_quotient_tables(
    q,
    fixed: PointedSubset,
    n_max: int,
    sources: dict[str, tuple[int, Callable[[int], BettiTable]]],
    betti_q: BettiTable,
    direct_budget: int = DEFAULT_DIRECT_BUDGET,
) -> tuple[dict[str, dict[int, BettiTable]], dict[str, dict[int, str]]]:
    """Quotient tables and route notes for s = 1..n_max, per path.

    ``sources`` maps each path to the largest s it has a pinched table for
    and a builder of that table.  The route is chosen once per s and the
    direct result is shared by every path with a table at s; a path's
    pinched table is built only when the bookkeeping needs it.  An s that
    no path has a table for is skipped.
    """
    tables: dict[str, dict[int, BettiTable]] = {name: {} for name in sources}
    notes: dict[str, dict[int, str]] = {name: {} for name in sources}
    for s in range(1, n_max + 1):
        builders = {name: build for name, (top, build) in sources.items() if s <= top}
        if not builders:
            continue
        direct = direct_quotient_betti(q, fixed, s, n_max, betti_q, direct_budget)
        for name, build in builders.items():
            table, notes[name][s] = direct or bookkept_quotient_betti(
                q, s, n_max, build(s), betti_q
            )
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
    brute_loop_max: Optional[int] = None,
    direct_budget: int = DEFAULT_DIRECT_BUDGET,
) -> RunReport:
    """Fill the three-path grid and loop row for a space with involution."""
    t_start = time.perf_counter()
    orbit, _, fixed = orbit_space(space, invol)
    loop_max = t_max if loop_max is None else loop_max
    brute_loop_max = loop_max if brute_loop_max is None else brute_loop_max

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
            "so loop rows carry brute-force columns only where defined"
        )
    if not diagonal_null:
        report.messages.append(
            "the reduced diagonal of the fixed set is not homologous to zero; "
            "cover-sum and closed-formula columns are disabled"
        )

    top_needed = max(t_max, loop_max)
    betti_q = reduced_betti(orbit, max(top_needed, orbit.top_dim()))
    betti_a = reduced_betti(fixed, max(top_needed, fixed.top_dim()))
    inp = BettiInput(betti_q, betti_a)

    brute_tables: dict[int, BettiTable] = {}

    def brute_table(s: int, needed: int) -> BettiTable:
        cached = brute_tables.get(s)
        if cached is not None and cached.certified >= needed:
            return cached
        table = pinched_betti_brute(orbit, fixed, s, needed)
        brute_tables[s] = table
        return table

    # each gives the pinched Betti numbers of one s in every degree <= top
    formula_tables: dict[str, Callable[[int, int], list[int]]] = {
        "mv_e1": lambda s, top: mv_e1_table(orbit, fixed, s, top, betti_q, betti_a),
        "closed": lambda s, top: betti_pinched_formula_table(inp, s, top),
    }
    built: dict[tuple[str, int], list[int]] = {}

    def formula_values(name: str, s: int, top: int) -> list[int]:
        values = built.get((name, s))
        if values is None or len(values) <= top:
            values = formula_tables[name](s, top)
            built[(name, s)] = values
        return values

    # --- pinched grid ---
    t0 = time.perf_counter()
    for s in range(2, s_max + 1):
        table = brute_table(s, t_max)
        if diagonal_null:
            cover, closed = (formula_values(name, s, t_max) for name in ("mv_e1", "closed"))
        for t in range(t_max + 1):
            if diagonal_null:
                cell = Cell(s, t, table[t], cover[t], closed[t])
            else:
                notes = dict.fromkeys(formula_tables, HYPOTHESIS_NOT_SATISFIED)
                cell = Cell(s, t, table[t], None, None, notes)
            report.cells.append(cell)
    report.timings["pinched_grid"] = time.perf_counter() - t0

    # --- loop row ---
    t0 = time.perf_counter()
    if section is not None:
        def formula_source(name: str) -> Callable[[int], BettiTable]:
            def source(s: int) -> BettiTable:
                bound = pinched_top_bound(orbit, fixed, s)
                top = min(loop_max - 1, bound)
                entries = dict(enumerate(formula_values(name, s, top)[: top + 1]))
                return BettiTable(entries, certified=max(loop_max - 1, 0), zero_from=bound + 1)

            return source

        sources = {"brute": (brute_loop_max, lambda s: brute_table(s, max(loop_max - 1, 0)))}
        for name in formula_tables:
            sources[name] = (loop_max if diagonal_null else 0, formula_source(name))
        tables, route_notes = loop_quotient_tables(
            orbit, fixed, loop_max, sources, betti_q, direct_budget
        )
        # an s with no route note is one the path has no table for
        beyond = {"brute": f"{NOT_COMPUTED} (beyond --brute-loop-max {brute_loop_max})"}
        for n in range(1, loop_max + 1):
            values: dict[str, Optional[int]] = {}
            notes: dict[str, str] = {}
            for name in sources:
                try:
                    values[name] = loop_betti(tables[name], n)
                except UncertifiedRangeError:
                    values[name] = None
                    missing = [
                        f"s={s}: {route_notes[name].get(s, beyond.get(name, NOT_COMPUTED))}"
                        for s in range(1, n + 1)
                        if s not in tables[name]
                    ]
                    notes[name] = "; ".join(missing) if missing else NOT_COMPUTED
            report.loop_row.append(
                Cell(n, None, values["brute"], values["mv_e1"], values["closed"], notes)
            )
    report.timings["loop_row"] = time.perf_counter() - t0
    report.timings["total"] = time.perf_counter() - t_start
    return report
