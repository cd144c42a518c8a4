"""The loopbetti benchmark: one closed-loop client, a fresh process per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; loopbetti is imported from the
checkout's ``src``.  Each round runs the workload's calls one after another,
each in a fresh ``python3 perfbench/child.py`` process, so every run pays
the imports and cache fills a CLI user pays.  Rounds repeat while the next
one is predicted to end within ``--seconds``.  Outputs are checked against
the hand-written files in ``expected/``.  Times are reported rescaled to a
fixed interpreter speed measured beside the program (see ``speed.py``); the
raw times are in the report line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds on the same inputs and reports the per-layer
metrics of the traced ones (see ``tracing.py``) plus the tracing overhead.
The last line of output is one JSON object; the line before it is a report
with the machine, the rounds and the failure counts.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import sections
from child import SEPARATOR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0
SETUP_PROBES = 15
PATHS = ("brute", "mv_e1", "closed")

END_TO_END = {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = [
    "pinched.pinched_set_s",
    "pinched.pinched_set_s.s5",
    "pinched.cells",
    "pinched.cells.s5",
    "homology.chain_build_s",
    "homology.chain_build_s.s5",
    "homology.d2_check_s",
    "homology.nnz",
    "homology.nnz.s5",
    "constructions.face_calls",
    "homology.rank_s",
    "homology.rank_s.s5",
    "homology.rank_calls",
    "pinched.mv_e1_s",
    "pinched.mv_e1_calls",
    "pinched.intersections",
    "homology.kunneth_s",
    "homology.kunneth_calls",
    "pinched.diagonal_check_s",
    "pinched.diagonal_check_calls",
    "closed_form.formula_s",
    "closed_form.formula_calls",
    "verify.quotient_route_s",
    "verify.ambient_count_s",
    "verify.direct_quotients",
    "constructions.quotient_s",
    "constructions.quotient_cells",
    "constructions.find_section_s",
    "constructions.find_section_orbits",
    "constructions.orbit_space_s",
    "sset_io.parse_s",
    "trace.traced_wall_s",
    "trace.overhead_s",
    "trace.unattributed_s",
]

# section_search batch per round: (edge orbits, disc orbits) per planted
# instance, m per rotated 2m-cycle.  Planted sizes stay below the ~1000 free
# orbits where the recursive search overflows the interpreter stack.
PLANTED = [(200, 500)] * 4
ROTATED = [12, 12, 14]


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") or "_s.s" in metric else "count"


# ---------------------------------------------------------------------------
# Workloads: per round, a list of calls, each one child process.
# ---------------------------------------------------------------------------

@dataclass
class Call:
    argv: list[str]
    ops: int
    check: Callable[[dict], tuple[int, int]]  # child result -> (wrong, failed)
    stdin: Optional[str] = None


def load_expected(name: str) -> dict:
    with open(HERE / "expected" / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_verify(out: dict, expected: dict, s_max: int, t_max: int, loop_max: int,
                 brute_loop_max: int) -> tuple[int, int]:
    """Wrong values and failed ops (disagreeing cells) of one verify report.

    Every path must fill every pinched cell and, in the loop row, the cover
    sum and closed formula every degree and brute force through
    ``brute_loop_max``; an empty required value counts as wrong."""
    report = out["report"]
    wrong = failed = 0
    cells = {(c["s"], c["t"]): c for c in report["pinched_cells"]}
    loop = {c["n"]: c for c in report["loop_row"]}
    wanted = [
        (cells.get((s, t)), expected["pinched"][str(s)][t], PATHS)
        for s in range(2, s_max + 1)
        for t in range(t_max + 1)
    ] + [
        (
            loop.get(n),
            expected["loop_betti"][n - 1],
            PATHS if n <= brute_loop_max else ("mv_e1", "closed"),
        )
        for n in range(1, loop_max + 1)
    ]
    for cell, want, required in wanted:
        if cell is None:
            wrong += 1
            continue
        if any(cell[p] != want for p in required) or any(
            cell[p] not in (None, want) for p in PATHS
        ):
            wrong += 1
        if not cell["agree"]:
            failed += 1
    if out["exit"] != 0 and failed == 0:
        failed = len(wanted)
    return wrong, failed


def verify_call(fixture: str, s_max: int, t_max: int, loop_max: int, brute_loop_max: int) -> Call:
    expected = load_expected(fixture)
    argv = [
        "verify", f"fixtures/{fixture}.sset",
        "--s-max", str(s_max), "--t-max", str(t_max),
        "--loop-max", str(loop_max), "--brute-loop-max", str(brute_loop_max),
    ]
    return Call(
        argv,
        ops=(s_max - 1) * (t_max + 1) + loop_max,
        check=lambda out: check_verify(out, expected, s_max, t_max, loop_max, brute_loop_max),
    )


def check_sections(out: dict, batch: list[tuple]) -> tuple[int, int]:
    verdicts = load_expected("sections")["section_exists"]
    results = out["instances"]
    wrong = 0
    for (family, *sizes), result in zip(batch, results):
        found = result["section"] is not None
        if found != verdicts[family]:
            wrong += 1
        elif family == "planted":
            cells = {"0": 1, "1": sizes[0], "2": sizes[1]}
            if result["section"] != cells or result["orbit_cells"] != cells:
                wrong += 1
    return wrong, len(batch) - len(results)


def sections_call(seed: int, round_index: int) -> Call:
    rng = random.Random(f"{seed}/{round_index}")
    batch = [("planted", e, d) for e, d in PLANTED] + [("rotated", m) for m in ROTATED]
    texts = [
        sections.planted(rng, *sizes) if family == "planted" else sections.rotated(rng, *sizes)
        for family, *sizes in batch
    ]
    return Call(
        ["sections"],
        ops=len(batch),
        check=lambda out: check_sections(out, batch),
        stdin=f"\n{SEPARATOR}\n".join(texts),
    )


# Why each workload: see README.md.  Verify inputs are the shipped fixtures,
# so the seed only drives section_search.
WORKLOADS: dict[str, Callable[[int, int], list[Call]]] = {
    "brute_pinched": lambda seed, r: [verify_call("sphere_pair_swap", 5, 6, 6, 5)],
    "formula_loop": lambda seed, r: [
        verify_call("sphere_pair_swap", 2, 2, 9, 4),
        verify_call("trivial_circle", 2, 2, 9, 4),
    ],
    "section_search": lambda seed, r: [sections_call(seed, r)],
}


# ---------------------------------------------------------------------------
# Child processes and rounds.
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """A child's wall time from spawn to exit, less its reference tasks; the
    same rescaled by the speed measured during the call; its set-up time
    rescaled by the speed measured around set-up."""

    wall_s: float
    result: Optional[dict]
    error: str = ""
    scaled_wall_s: float = 0.0
    scaled_setup_s: float = 0.0


def run_child(call: Call, deadline: float, *flags: str) -> Outcome:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # bytecode is cached as for an installed package, so set-up times imports
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *flags, *call.argv],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(call.stdin or "", timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        return Outcome(time.perf_counter() - start, None, "timeout")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        lines = stderr.strip().splitlines() or ["(no message)"]
        return Outcome(wall, None, f"exit {proc.returncode}: {lines[-1]}")
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
        ref = result["speed"]
    except (IndexError, ValueError, KeyError):
        return Outcome(wall, None, "no JSON result line")
    wall -= ref["ref_total_s"]
    return Outcome(
        wall,
        result,
        scaled_wall_s=wall * ref["run_factor"],
        scaled_setup_s=result["setup_s"] * ref["setup_factor"],
    )


@dataclass
class Round:
    wall_s: float = 0.0
    scaled_wall_s: float = 0.0
    rss_kb: int = 0
    setups: list[float] = field(default_factory=list)
    scaled_setups: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    wrong: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def run_round(calls: list[Call], deadline: float, trace: bool) -> Round:
    rnd = Round()
    for call in calls:
        outcome = run_child(call, deadline, *(["--trace"] if trace else []))
        rnd.wall_s += outcome.wall_s
        rnd.scaled_wall_s += outcome.scaled_wall_s
        rnd.attempted += call.ops
        if outcome.result is None:
            rnd.failed += call.ops
            rnd.errors.append(outcome.error)
            break
        try:
            wrong, failed = call.check(outcome.result)
        except (KeyError, IndexError, TypeError) as exc:
            rnd.failed += call.ops
            rnd.errors.append(f"unreadable result: {exc!r}")
            break
        rnd.wrong += wrong
        rnd.failed += failed
        rnd.rss_kb = max(rnd.rss_kb, outcome.result["rss_kb"])
        rnd.setups.append(outcome.result["setup_s"])
        rnd.scaled_setups.append(outcome.scaled_setup_s)
        for key, value in outcome.result.get("layers", {}).items():
            rnd.layers[key] = rnd.layers.get(key, 0) + value
    return rnd


def self_time(layers: dict[str, float]) -> float:
    """Time covered by spans: the sum of self times, without the per-s split."""
    return sum(v for k, v in layers.items() if k.endswith("_s") and "_s.s" not in k)


# ---------------------------------------------------------------------------
# Machine record.
# ---------------------------------------------------------------------------

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in (ROOT / "src" / "loopbetti" / "__init__.py", ROOT / "fixtures"):
        if not needed.exists():
            sys.stderr.write(f"error: {needed.relative_to(ROOT)} not found; run from a checkout\n")
            return 2

    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    first = workload(args.seed, 0)[0]
    # the first child compiles bytecode and is not timed; the next ones time set-up
    probes = [run_child(first, deadline, "--setup-only") for _ in range(SETUP_PROBES + 1)]
    broken = [p.error for p in probes if p.result is None]
    if broken:
        sys.stderr.write(f"error: set-up failed: {broken[0]}\n")
        return 1
    setups = [p.result["setup_s"] for p in probes[1:]]
    scaled_setups = [p.scaled_setup_s for p in probes[1:]]

    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while True:
        calls = workload(args.seed, len(plain))
        plain.append(run_round(calls, deadline, trace=False))
        if args.trace:
            traced.append(run_round(calls, deadline, trace=True))
        now = time.perf_counter()
        per_round = (now - start) / len(plain)
        if plain[-1].errors or (traced and traced[-1].errors):
            break
        if now + per_round > min(start + args.seconds, deadline):
            break

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    wrong = sum(r.wrong for r in rounds)
    failed = sum(r.failed for r in rounds)
    walls = [r.wall_s for r in plain]
    scaled_walls = [r.scaled_wall_s for r in plain]
    setups += [s for r in plain for s in r.setups]
    scaled_setups += [s for r in plain for s in r.scaled_setups]
    if args.trace:
        traced_wall = statistics.median(r.wall_s for r in traced)
        layers = {
            k: statistics.median(r.layers.get(k, 0) for r in traced)
            for k in sorted({k for r in traced for k in r.layers})
        }
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
        layers["trace.unattributed_s"] = statistics.median(
            r.wall_s - self_time(r.layers) for r in traced
        )
        metrics = {name: {"value": layers.get(name, 0), "unit": unit_of(name)} for name in PER_LAYER}
    else:
        values = {
            "scaled_wall_s": statistics.median(scaled_walls),
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": max(r.rss_kb for r in plain) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "git_sha": git_sha(),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "rounds": len(plain),
        "wall_s": {"median": statistics.median(walls), "max": max(walls), "count": len(walls)},
        "scaled_wall_s": {
            "median": statistics.median(scaled_walls),
            "max": max(scaled_walls),
            "count": len(scaled_walls),
        },
        "round_walls_s": walls,
        "round_scaled_walls_s": scaled_walls,
        "raw_setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "wrong_values": wrong,
        "failed_ops_share": failed / attempted,
        "errors": [e for r in rounds for e in r.errors],
        "elapsed_s": time.perf_counter() - begin,
    }
    if args.trace:
        report["layers"] = layers
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
