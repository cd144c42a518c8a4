"""Smoke test of the benchmark itself (about 15 s):

    python3 perfbench/smoke.py

Checks that BENCHMARK.json names what run.py reports, that the speed meter
samples while a program runs, that the generator is seeded and its verdicts
hold, that the hand-written pinched grid matches the
paper's binomial sum, that the output checks catch a wrong value, that short
runs print a well-formed last line in both modes, and that a directory with
only the benchmark files makes run.py fail without a result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from math import comb
from pathlib import Path

import run
import sections
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def check_speed() -> None:
    assert speed.factor([speed.NOMINAL_S] * 3) == 1.0
    assert speed.factor([2 * speed.NOMINAL_S]) == 0.5
    meter = speed.Meter()
    meter.block()
    meter.start_sampling()
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        pass
    meter.stop_sampling()
    report = meter.report()
    assert report["samples"] >= 3, report
    assert report["setup_factor"] > 0 and report["run_factor"] > 0
    assert report["ref_total_s"] < 0.5


def check_generator() -> None:
    from loopbetti.constructions import find_section
    from loopbetti.sset_io import parse

    assert sections.planted(random.Random(5), 3, 4) == sections.planted(random.Random(5), 3, 4)
    assert sections.planted(random.Random(5), 3, 4) != sections.planted(random.Random(6), 3, 4)
    verdicts = run.load_expected("sections")["section_exists"]
    for seed in range(5):
        rng = random.Random(seed)
        space, invol = parse(sections.planted(rng, 5, 9))
        witness = find_section(space, invol)
        assert (witness is not None) == verdicts["planted"]
        assert witness.counts() == {0: 1, 1: 5, 2: 9}
        for m in (2, 3, 5):
            space, invol = parse(sections.rotated(rng, m))
            assert (find_section(space, invol) is not None) == verdicts["rotated"]


def check_expected_grid() -> None:
    def binom(m: int, k: int) -> int:
        return comb(m, k) if 0 <= k <= m else 0

    grid = run.load_expected("sphere_pair_swap")["pinched"]
    for s, row in grid.items():
        s = int(s)
        for t, value in enumerate(row):
            formula = sum(
                binom(t - s + 1 + j, j) * binom(2 * s - t - j - 2, j - 1)
                for j in range(1, 2 * s - 2)
            )
            assert value == formula, (s, t)


def check_verify_checker() -> None:
    expected = run.load_expected("trivial_circle")
    cells = [
        {"s": 2, "t": t, "brute": v, "mv_e1": v, "closed": v, "agree": True}
        for t, v in enumerate(expected["pinched"]["2"])
    ]
    loop = [
        {"n": n, "brute": v if n <= 2 else None, "mv_e1": v, "closed": v, "agree": True}
        for n, v in enumerate(expected["loop_betti"][:3], start=1)
    ]
    out = {"exit": 0, "report": {"pinched_cells": cells, "loop_row": loop}}
    assert run.check_verify(out, expected, 2, 2, 3, 2) == (0, 0)
    loop[2]["closed"] += 1
    loop[2]["agree"] = False
    assert run.check_verify(out, expected, 2, 2, 3, 2) == (1, 1)
    loop[2]["closed"] = None
    loop[2]["agree"] = True
    assert run.check_verify(out, expected, 2, 2, 3, 2) == (1, 0)


def run_benchmark(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "section_search",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_runs() -> None:
    for trace, names in ((0, list(run.END_TO_END)), (1, run.PER_LAYER)):
        proc = run_benchmark(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names
        if trace:
            assert result["metrics"]["constructions.find_section_s"]["value"] > 0


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
        proc = run_benchmark(bare, 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == "", proc.stdout


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for check in (
        check_benchmark_json,
        check_speed,
        check_generator,
        check_expected_grid,
        check_verify_checker,
        check_runs,
        check_bare_directory,
    ):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
