"""Child process of the benchmark; ``run.py`` starts one per probe or pass.

    python3 perfbench/worker.py --workload W --seed N --mode setup|cold|coldwarm [--trace]

imports the engine, builds the workload's inputs (the set-up), then runs
the cold pass in this fresh interpreter and, with ``coldwarm``, the same
pass again with the memo tables full: repeated until WARM_MIN_S have been
measured, reporting the mean, because a warm pass can be short enough for
machine noise to swamp it.  ``--trace`` traces the cold pass.
It prints one JSON object as its last line of output.

    python3 perfbench/worker.py cli STATS_FILE ARGS...

runs one ``stablechar`` command under the tracer and writes the tracer's
statistics to STATS_FILE; the session workload uses it for traced passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

SRC = Path(__file__).resolve().parents[1] / "src"
WARM_MIN_S = 1.5


def _check_engine_location() -> None:
    import stablechar

    if SRC not in Path(stablechar.__file__).resolve().parents:
        sys.exit(f"perfbench: stablechar imported from {stablechar.__file__}, not {SRC}")


def run_cases(cases) -> tuple[float, list[str]]:
    failures = []
    start = time.perf_counter()
    for case in cases:
        try:
            case.run()
        except Exception as exc:  # a wrong verdict or an engine error fails the case
            failures.append(f"{case.label}: {type(exc).__name__}: {exc}"[:300])
    return time.perf_counter() - start, failures


def workload_main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "cold", "coldwarm"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "session" and args.mode != "setup":
        parser.error("session passes are command-line processes started by run.py")

    start = time.perf_counter()
    _check_engine_location()
    if args.workload == "session":
        # A session process pays for the command line's imports.
        import session
        import stablechar.cli  # noqa: F401

        cases = session.commands(args.seed)
    else:
        import workloads

        cases = workloads.BUILDERS[args.workload](args.seed)
    out: dict = {"setup_s": time.perf_counter() - start, "cases": len(cases)}

    if args.mode != "setup":
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        out["cold_s"], failures = run_cases(cases)
        out["runs"] = 1
        if tracer:
            tracer.uninstall()
            out["trace"] = tracer.raw()
        if args.mode == "coldwarm":
            warm = []
            while sum(warm) < WARM_MIN_S:
                elapsed, warm_failures = run_cases(cases)
                warm.append(elapsed)
                failures += warm_failures
            out["warm_s"] = sum(warm) / len(warm)
            out["runs"] += len(warm)
        out["failures"] = failures
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


def cli_main(stats_file: str, args: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from stablechar import cli

    try:
        return cli.main(args)
    finally:
        tracer.uninstall()
        Path(stats_file).write_text(json.dumps(tracer.raw()), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] == ["cli"]:
        sys.exit(cli_main(sys.argv[2], sys.argv[3:]))
    workload_main(sys.argv[1:])
