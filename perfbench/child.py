"""One benchmark call in a fresh Python process.

    python3 perfbench/child.py [--setup-only] [--trace] verify CLI_ARG...
    python3 perfbench/child.py [--setup-only] [--trace] sections < TEXTS

``verify`` runs ``loopbetti.cli.main(["verify", *CLI_ARG, "--json"])``;
``sections`` reads ``.sset`` texts separated by lines holding ``%%`` and
runs ``parse``, ``orbit_space`` and ``find_section`` on each.  Set-up is the
import of loopbetti plus the parse of the input files, timed from inside the
process; ``--setup-only`` stops after it.  ``--trace`` records spans around
every layer (see ``tracing.py``).  Reference tasks around set-up and, in an
untraced call, every 0.05 s during it measure the interpreter's speed (see
``speed.py``).  The last line of output is one JSON object with the set-up
time, the reference-task times, the peak RSS and the call's results.
"""

import sys
import time

import speed

SEPARATOR = "%%"


def main(argv: list[str]) -> int:
    setup_only = "--setup-only" in argv
    trace = "--trace" in argv
    args = [a for a in argv if a not in ("--setup-only", "--trace")]
    kind, rest = args[0], args[1:]
    texts = sys.stdin.read().split(f"\n{SEPARATOR}\n") if kind == "sections" else []

    meter = speed.Meter()
    meter.block()
    start = time.perf_counter()
    import loopbetti.cli
    from loopbetti import constructions, sset_io

    recorder = None
    if trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    if kind == "verify":
        sset_io.parse_file(rest[0])
    else:
        parsed = [sset_io.parse(text) for text in texts]
    setup_s = time.perf_counter() - start
    meter.block()

    import json
    import resource

    out: dict = {"setup_s": setup_s}
    if not setup_only:
        if not trace:
            meter.start_sampling()
        if kind == "verify":
            import contextlib
            import io

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                out["exit"] = loopbetti.cli.main(["verify", *rest, "--json"])
            out["report"] = json.loads(buffer.getvalue())
        else:
            results = []
            for space, invol in parsed:
                orbit, _, _ = constructions.orbit_space(space, invol)
                witness = constructions.find_section(space, invol)
                results.append(
                    {
                        "orbit_cells": {
                            str(n): len(orbit.nondeg(n)) for n in range(orbit.top_dim() + 1)
                        },
                        "section": None
                        if witness is None
                        else {str(n): c for n, c in sorted(witness.counts().items())},
                    }
                )
            out["exit"] = 0
            out["instances"] = results
        meter.stop_sampling()
    out["speed"] = meter.report()
    if recorder is not None:
        out["layers"] = recorder.metrics()
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
