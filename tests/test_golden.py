"""Golden outputs: the exact stdout and exit code of fixed command lines.

``golden_outputs.json`` holds, for each command line below, what
``loopbetti`` printed and returned when the file was written, with the
fixtures named relative to the repository root.  ``verify --json`` output
is kept less its ``timings``, the one field that changes from run to run.
A change meant to leave every number, note and message as it was keeps
this test passing; one that changes output on purpose rewrites the file
with

    PYTHONPATH=src python tests/test_golden.py

and the diff of the file shows what changed.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from loopbetti.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

WITH_INVOLUTION = ("sphere_pair_swap", "trivial_circle", "free_double_cover")
# the verify calls of the benchmark workloads brute_pinched and formula_loop
BENCHMARK = [("sphere_pair_swap", 5, 6, 6, 5), ("sphere_pair_swap", 2, 2, 9, 4),
             ("trivial_circle", 2, 2, 9, 4)]

ARGVS = [
    *(["verify", f"fixtures/{name}.sset", *flags, *form]
      for name in WITH_INVOLUTION
      for flags in ((), ("--t-max", "6", "--loop-max", "9"))
      for form in ((), ("--csv",), ("--json",))),
    *(["betti", f"fixtures/{name}.sset", "--json"]
      for name in ("circle", "two_disc_sphere", *WITH_INVOLUTION)),
    *(["verify", f"fixtures/{name}.sset", "--s-max", str(s_max), "--t-max", str(t_max),
       "--loop-max", str(loop_max), "--brute-loop-max", str(brute), "--json"]
      for name, s_max, t_max, loop_max, brute in BENCHMARK),
    ["conjecture"],
    ["conjecture", "--n-max", "40", "--json"],
]


def replay(argv: list[str]) -> dict:
    """The exit code and stdout of ``loopbetti`` on ``argv``, run from the
    repository root; a verify report's JSON less its timings."""
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "verify" and "--json" in argv:
        doc = json.loads(stdout)
        del doc["timings"]
        stdout = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return {"argv": argv, "exit": code, "stdout": stdout}


def golden() -> dict[tuple[str, ...], dict]:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_file_lists_every_command_line():
    assert list(golden()) == [tuple(argv) for argv in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert replay(argv) == golden()[tuple(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps([replay(argv) for argv in ARGVS], indent=1) + "\n")
