"""Cold-CLI benchmark for mzvkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each invocation of the workload's
corpus runs in a fresh interpreter (``python -m mzvkit ...``), one at a time,
so every cache in the program starts empty, as it does for a CLI user.  Every
verdict is checked against an answer computed by ``answers.py``, and every
stdout is compared with the sha256 recorded at the seed commit in
``digests.json``.

--trace 0 repeats the corpus until S seconds have passed (at least once) and
reports the end-to-end metrics.  --trace 1 runs the corpus once untraced and
once under ``tracer.py`` and reports the per-layer metrics.  The last line of
stdout is the JSON result; the lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402

SETUP_REPEATS = 5  # before the first timed invocation
RUN_DEADLINE_S = 165.0  # every run must end within 180 s
WARM_UP = ("kernel", "--p", "2", "--level", "1", "--depth", "1")


@dataclass
class Result:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    """The caller's environment with the cell cap and hash seed fixed."""
    env = dict(os.environ)
    for name in ("MZV_CAP", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                 "PYTHONSTARTUP", "PYTHONPROFILEIMPORTTIME"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs one child at a time through ``spawn.py`` and times it from spawn
    to exit.  Use it as a context manager, so that the spawner is stopped."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def run(self, command: list[str]) -> Result:
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        request = {"argv": command, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": max(1.0, self.deadline - perf_counter())}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return Result(reply["wall_s"], reply["maxrss_kb"] / 1024, reply["exit_code"],
                      out_path.read_bytes(), err_path.read_bytes())

    def cli(self, argv: tuple[str, ...]) -> Result:
        return self.run([sys.executable, "-m", "mzvkit", *argv])

    def traced(self, argv: tuple[str, ...], span_file: Path) -> Result:
        return self.run([sys.executable, str(HERE / "tracer.py"), str(span_file), *argv])


class Verifier:
    """Checks each invocation's exit code, stderr and verdicts against the
    known answer, and its stdout against the recorded digest."""

    def __init__(self, recorded: list[str] | None) -> None:
        self.recorded = recorded
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = self.failed = 0
        self.digest_checked = self.digest_mismatch = 0
        self.stdout_bytes = 0
        self.problems: list[str] = []

    def __call__(self, position: int, invocation: Invocation, result: Result) -> None:
        digest = hashlib.sha256(result.stdout).hexdigest()
        key = (position, digest, result.exit_code, result.stderr)
        if key not in self.verdicts:
            self.verdicts[key] = self._problems(invocation, result)
        problems = self.verdicts[key]
        self.attempted += 1
        self.stdout_bytes += len(result.stdout)
        if problems:
            self.failed += 1
            self.problems.extend(f"{invocation.label}: {p}" for p in problems)
        if self.recorded is not None:
            self.digest_checked += 1
            self.digest_mismatch += digest != self.recorded[position]

    @staticmethod
    def _problems(invocation: Invocation, result: Result) -> list[str]:
        problems = []
        if result.exit_code != invocation.exit_code:
            problems.append(f"exit code {result.exit_code}, expected {invocation.exit_code}")
        if result.stderr:
            problems.append(f"stderr: {result.stderr[:200]!r}")
        try:
            report = json.loads(result.stdout)
        except ValueError:
            return problems + ["stdout is not one JSON document"]
        return problems + invocation.check(report)


class SetUp:
    """One set-up is a cold import of ``mzvkit.cli`` in a fresh interpreter
    plus writing and verifying the workload's inputs.  It is repeated, a few
    times before the first timed invocation and once before each later one,
    so that its median samples the machine across the whole run."""

    def __init__(self, workload, seed: int, runner: Runner) -> None:
        self.workload, self.seed, self.runner = workload, seed, runner
        self.times: list[float] = []

    def __call__(self) -> list[Invocation]:
        start = perf_counter()
        imported = self.runner.run([sys.executable, "-c", "import mzvkit.cli"])
        if imported.exit_code != 0:
            raise RuntimeError(f"cannot import mzvkit.cli: {imported.stderr.decode(errors='replace')}")
        corpus = self.workload.build(self.seed, WORK)
        self.times.append(perf_counter() - start)
        return corpus


def timed_passes(corpus: list[Invocation], runner: Runner, verify: Verifier, seconds: float,
                 set_up: SetUp) -> dict:
    """Cycle through the corpus until ``seconds`` have passed, finishing at
    least one whole pass; each invocation's time is its median over passes.
    A set-up runs, untimed, between timed invocations."""
    walls: list[list[float]] = [[] for _ in corpus]
    peak = 0.0
    start = perf_counter()
    position = 0
    # past the deadline the first pass still runs, and each child is killed
    # after a second, so an invocation that never finished counts as failed
    while position < len(corpus) or (
        perf_counter() - start < seconds and perf_counter() < runner.deadline
    ):
        k = position % len(corpus)
        if position:
            set_up()
        result = runner.cli(corpus[k].argv)
        verify(k, corpus[k], result)
        walls[k].append(result.wall_s)
        peak = max(peak, result.rss_mb)
        position += 1
    medians = [statistics.median(w) for w in walls]
    return {"wall_s": sum(medians), "peak_rss_mb": peak,
            "invocations": [(c.label, m, len(w)) for c, m, w in zip(corpus, medians, walls)]}


def traced_pass(corpus: list[Invocation], runner: Runner, verify: Verifier) -> tuple[float, dict]:
    span_file = WORK / "spans.marshal"
    wall = 0.0
    invocations = []
    for k, invocation in enumerate(corpus):
        span_file.unlink(missing_ok=True)
        result = runner.traced(invocation.argv, span_file)
        verify(k, invocation, result)  # a child that died without spans counts as failed
        wall += result.wall_s
        invocations.append(tracer.read_spans(str(span_file)) if span_file.exists() else [])
    return wall, tracer.summarize(invocations)


def stamp() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "mzvkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    table = json.loads(DIGESTS.read_text(encoding="ascii")) if DIGESTS.exists() else {}
    return table.get(workload, {}).get(str(seed))


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "mzvkit" / "cli.py").is_file():
        print(f"error: no mzvkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        info = stamp()
        info["loadavg_before"] = os.getloadavg()
        with Runner(perf_counter() + RUN_DEADLINE_S) as runner:
            runner.cli(WARM_UP)  # untimed: settles .pyc files and the file cache
            set_up = SetUp(workload, args.seed, runner)
            corpus = set_up()
            for _ in range(SETUP_REPEATS - 1):
                set_up()
            verify = Verifier(recorded_digests(workload.name, args.seed))
            untraced = timed_passes(corpus, runner, verify, 0.0 if args.trace else args.seconds, set_up)
            if args.trace:
                traced_wall, layers = traced_pass(corpus, runner, verify)
        info["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    setup_s = statistics.median(set_up.times)
    e2e = {"wall_s": untraced["wall_s"], "peak_rss_mb": untraced["peak_rss_mb"], "setup_s": setup_s}
    shown = dict(e2e, fail_ratio=verify.failed / verify.attempted,
                 **{"cli.stdout_digest_mismatch": verify.digest_mismatch,
                    "cli.stdout_digest_checked": verify.digest_checked})
    metrics = e2e
    if args.trace:
        layers.update({
            "cli.stdout_bytes": verify.stdout_bytes,
            "cli.stdout_digest_mismatch": verify.digest_mismatch,
            "cli.stdout_digest_checked": verify.digest_checked,
            "trace.overhead_ratio": traced_wall / untraced["wall_s"],
            "trace.coverage": layers.pop("trace.root_s") / traced_wall,
        })
        shown.update(layers)
        metrics = layers

    print(f"stamp {json.dumps(info, sort_keys=True)}")
    for problem in verify.problems[:20]:
        print(f"FAIL {problem}")
    for label, median, samples in untraced["invocations"]:
        print(f"invocation {median:.4f} s median of {samples}: {label}")
    for name, value in shown.items():
        print(f"{name} {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": verify.failed == 0,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage", "_per_check")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
