"""Record the sha256 of every invocation's stdout, per workload and seed.

    python3 perfbench/record_digests.py SEED...

Run it from the root of a checkout of the commit whose output bytes are the
reference; it merges the digests into ``digests.json``.  Every invocation must
pass its known-answer checks, or nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from time import perf_counter

import run
from workloads import WORKLOADS


def record(workload, seed: int, runner: run.Runner, seed_free: dict) -> list[str] | None:
    """The corpus's stdout digests, or None if an invocation fails its checks."""
    corpus = workload.build(seed, run.WORK)
    verify = run.Verifier(None)
    digests = []
    for k, invocation in enumerate(corpus):
        digest = seed_free.get(invocation.argv)
        if digest is None:
            result = runner.cli(invocation.argv)
            verify(k, invocation, result)
            digest = hashlib.sha256(result.stdout).hexdigest()
            if "--in" not in invocation.argv and "--seed" not in invocation.argv:
                seed_free[invocation.argv] = digest
        digests.append(digest)
    if verify.failed:
        print("\n".join(verify.problems), file=sys.stderr)
        return None
    return digests


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv]
    table = json.loads(run.DIGESTS.read_text(encoding="ascii")) if run.DIGESTS.exists() else {}
    seed_free: dict[tuple[str, ...], str] = {}  # argv without input files: same bytes for every seed
    run.WORK.mkdir(exist_ok=True)
    try:
        with run.Runner(perf_counter() + 24 * 3600) as runner:
            for name, workload in WORKLOADS.items():
                for seed in seeds:
                    digests = record(workload, seed, runner, seed_free)
                    if digests is None:
                        return 1
                    table.setdefault(name, {})[str(seed)] = digests
                    print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
