"""Benchmark of the stablechar engine, run from the root of a checkout:

    python3 perfbench/run.py --workload library|session \\
        --seed N --seconds S --trace 0|1

The load is a closed loop with one client: passes run one after another,
each in a fresh child process (or, for ``session``, a sequence of fresh
command-line processes), until ``--seconds`` have passed.  Every pass checks
its own exact results.  With ``--trace 0`` the last line of output is a
JSON object with the end-to-end metrics; with ``--trace 1`` passes alternate
between untraced and traced, and it holds the per-layer metrics of the
traced passes and the tracing overhead.  The line before it records the
machine, the git commit, the raw samples and any failures.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True

import session  # noqa: E402
import tracer  # noqa: E402
from worker import WARM_MIN_S  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("library", "session")
SETUP_PROBES = 8  # set-up-only processes per run, besides each pass's own set-up
PASS_CAP_S = 60.0  # a pass, or one session process, that runs longer fails
RUN_CAP_S = 170.0  # no work is started or waited for past this
EXTRA_LAYER_UNITS = {"cache.file_bytes": "bytes", "cli.startup_s": "s", "trace.overhead_s": "s"}


class SetupError(RuntimeError):
    pass


class Child(NamedTuple):
    returncode: int | None  # None when killed at the time cap
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str

    @property
    def status(self) -> str:
        return "killed at the time cap" if self.returncode is None else f"exit {self.returncode}"


def spawn(argv: list[str], env: dict, timeout: float, scratch: Path) -> Child:
    """Run one child to completion (or kill it at ``timeout``) and return
    its wall time and its own peak resident set size."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        pid = 0
        try:
            while not pid and time.perf_counter() - start < timeout:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if not pid:
                    time.sleep(0.002)
            wall = time.perf_counter() - start
        finally:
            if not pid:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode if pid else None,
            wall,
            usage.ru_maxrss,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
        )


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STABLECHAR_CACHE_DIR"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Every process compiles the engine from source, so set-up time does
        # not depend on whether an earlier run left bytecode behind.
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


class Run:
    def __init__(self, args, scratch: Path):
        self.args = args
        self.scratch = scratch
        self.env = child_env()
        self.start = time.perf_counter()
        self.samples: dict[str, list] = {
            "setup_s": [], "cold_s": [], "warm_s": [], "peak_rss_mb": [],
            "untraced_cold_s": [], "traced_cold_s": [],
        }
        self.layer_samples: list[dict] = []  # per traced pass
        self.absent: set[str] = set()
        self.cases = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    # -- children -------------------------------------------------------------

    def child(self, argv: list[str], env: dict | None = None) -> Child:
        remaining = RUN_CAP_S - (time.perf_counter() - self.start)
        return spawn(argv, env or self.env, max(0.1, min(PASS_CAP_S, remaining)), self.scratch)

    def worker(self, mode: str, traced: bool = False) -> dict | None:
        argv = [
            sys.executable, str(WORKER), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--mode", mode,
        ]
        if traced:
            argv.append("--trace")
        child = self.child(argv)
        if child.returncode == 0:
            try:
                return json.loads(child.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                pass
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        self.note(f"{mode} worker {child.status}: {tail[0][:200]}")
        return None

    def note(self, failure: str) -> None:
        self.failures.append(failure)
        print(f"perfbench: {failure}", file=sys.stderr)

    def tally(self, attempted: int, failures: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += len(failures) if failed is None else failed
        for failure in failures:
            self.note(failure)

    # -- passes ---------------------------------------------------------------

    def setup(self) -> None:
        for _ in range(SETUP_PROBES):
            result = self.worker("setup")
            if result is None:
                raise SetupError("the set-up of the workload failed: " + self.failures[-1])
            self.cases = result["cases"]
            self.samples["setup_s"].append(result["setup_s"])

    def engine_pass(self, mode: str, traced: bool) -> dict | None:
        result = self.worker(mode, traced)
        if result is None:
            runs = 2 if mode == "coldwarm" else 1  # at least
            self.tally(runs * self.cases, [], failed=runs * self.cases)
            return None
        self.tally(result["runs"] * result["cases"], result["failures"])
        self.samples["setup_s"].append(result["setup_s"])
        if traced:
            result["layers"], absent = tracer.metrics([result["trace"]])
            self.absent |= absent
        return result

    def session_pass(self, mode: str, traced: bool) -> dict:
        commands = session.commands(self.args.seed)
        cache_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            result = self.sequence(commands, cache_dir, traced)
            warm = []
            while mode == "coldwarm" and sum(warm) < WARM_MIN_S:
                again = self.sequence(commands, cache_dir, False)
                warm.append(again["cold_s"])
                result["maxrss_kb"] = max(result["maxrss_kb"], again["maxrss_kb"])
            if warm:
                result["warm_s"] = sum(warm) / len(warm)
        finally:
            shutil.rmtree(cache_dir)
        return result

    def sequence(self, commands: list, cache_dir: Path, traced: bool) -> dict:
        """One run of the session's commands against ``cache_dir``."""
        env = dict(self.env, STABLECHAR_CACHE_DIR=str(cache_dir))
        wall, maxrss, raws, startups = 0.0, 0, [], []
        for index, command in enumerate(commands):
            stats = self.scratch / f"stats-{index}.json"
            if traced:
                argv = [sys.executable, str(WORKER), "cli", str(stats), *command.args]
            else:
                argv = [sys.executable, "-m", "stablechar", *command.args]
            child = self.child(argv, env)
            wall += child.wall_s
            maxrss = max(maxrss, child.maxrss_kb)
            failures = []
            if child.returncode != 0:
                failures.append(f"{command.label}: {child.status}")
            else:
                try:
                    command.check(child.stdout)
                except Exception as exc:  # any wrong output of the program fails the case
                    failures.append(f"{command.label}: {type(exc).__name__}: {exc}"[:300])
            self.tally(1, failures)
            if traced and stats.exists():
                raw = json.loads(stats.read_text(encoding="utf-8"))
                stats.unlink()
                raws.append(raw)
                if "cli.main.self_s" not in raw["absent"]:
                    startups.append(child.wall_s - raw["layers"]["cli.main"]["total_s"])
        result = {"cold_s": wall, "maxrss_kb": maxrss}
        if traced:
            result["layers"], absent = tracer.metrics(raws)
            self.absent |= absent
            result["layers"]["cache.file_bytes"] = sum(f.stat().st_size for f in cache_dir.iterdir())
            if startups:
                result["layers"]["cli.startup_s"] = statistics.fmean(startups)
            else:
                self.absent.add("cli.startup_s")
        return result

    def one_pass(self, mode: str, traced: bool) -> dict | None:
        if self.args.workload == "session":
            return self.session_pass(mode, traced)
        return self.engine_pass(mode, traced)

    def measure(self) -> None:
        """Run passes until the next one would end past ``--seconds``, so a
        run takes about ``--seconds`` whatever the length of a pass."""
        t0 = time.perf_counter()
        mode = "cold" if self.args.trace else "coldwarm"
        traced = False
        took: dict[bool, float] = {}  # last duration of an untraced and a traced pass
        while True:
            start = time.perf_counter()
            result = self.one_pass(mode, traced)
            took[traced] = time.perf_counter() - start
            if result is not None:
                self.record(result, traced)
            if self.args.trace:
                traced = not traced
            now = time.perf_counter()
            if traced in took and now - t0 + took[traced] > self.args.seconds:
                break
            if now - self.start >= RUN_CAP_S - PASS_CAP_S / 4:
                break

    def record(self, result: dict, traced: bool) -> None:
        if not self.args.trace:
            self.samples["cold_s"].append(result["cold_s"])
            self.samples["warm_s"].append(result["warm_s"])
            self.samples["peak_rss_mb"].append(result["maxrss_kb"] / 1024)
        elif traced:
            self.samples["traced_cold_s"].append(result["cold_s"])
            layers = result["layers"]
            layers.setdefault("cache.file_bytes", 0)
            layers.setdefault("cli.startup_s", 0.0)
            self.layer_samples.append(layers)
        else:
            self.samples["untraced_cold_s"].append(result["cold_s"])

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}

        def put(name: str, values: list, unit: str) -> None:
            if values:
                out[name] = {"value": statistics.median(values), "unit": unit}

        if not self.args.trace:
            put("setup_s", self.samples["setup_s"], "s")
            put("cold_s", self.samples["cold_s"], "s")
            put("warm_s", self.samples["warm_s"], "s")
            put("peak_rss_mb", self.samples["peak_rss_mb"], "MB")
            if self.attempted:
                put("pass_ratio", [1 - self.failed / self.attempted], "ratio")
            return out
        units = {**tracer.metric_units(), **EXTRA_LAYER_UNITS}
        for name, unit in units.items():
            if name in self.absent:
                continue
            put(name, [s[name] for s in self.layer_samples if name in s], unit)
        traced, untraced = self.samples["traced_cold_s"], self.samples["untraced_cold_s"]
        if traced and untraced:
            overhead = statistics.median(traced) - statistics.median(untraced)
            out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        missing = sorted(set(units) - set(out))
        if missing:
            print(f"perfbench: warning: metrics absent: {', '.join(missing)}", file=sys.stderr)
        return out

    def info(self) -> dict:
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "cases_per_pass": self.cases,
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg": os.getloadavg(),
            "samples": {k: v for k, v in self.samples.items() if v},
            "failures": self.failures[:20],
        }


def _terminate(signum, _frame) -> None:
    # Unwind through the ``finally`` blocks, which kill and reap the child.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stablechar" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {ROOT / 'src' / 'stablechar'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    run = Run(args, scratch)
    try:
        run.setup()
        run.measure()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run is using it
    metrics = run.metrics()
    print(json.dumps({"info": run.info()}))
    print(json.dumps({
        "correct": run.attempted > 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
