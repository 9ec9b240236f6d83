"""The benchmark's workloads: seeded corpora of mzvkit CLI invocations, the
input files they read, and the known answer each printed verdict must match.

A workload's ``build(seed, work_dir)`` writes and verifies its input files and
returns its corpus.  That is the benchmark's set-up; the invocations are the
timed part.  Every answer checked here comes from ``answers``, not from mzvkit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import answers

DEFAULT_EXPONENT_CAP = 7  # the CLI default, used by `report`
SAMPLE = 24  # rows or cosets per invocation re-derived independently


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], list[str]]  # problems found in the parsed report

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Invocation]]


def _config(p: int, n: int, r: int) -> list[str]:
    return ["--p", str(p), "--level", str(n), "--depth", str(r)]


def _same_config(report: dict, p: int, n: int, r: int) -> list[str]:
    got = (report.get("p"), report.get("n"), report.get("r"))
    return [] if got == (p, n, r) else [f"config {got} != {(p, n, r)}"]


def _valuation_json(value: int | None) -> int | str:
    return "inf" if value is None else value


def _write_measure(path: Path, p: int, n: int, r: int, values: list[int]) -> None:
    """Write a measure file, then read it back and verify it independently."""
    path.write_text(json.dumps({"p": p, "n": n, "r": r, "values": [str(v) for v in values]}),
                    encoding="ascii")
    data = json.loads(path.read_text(encoding="ascii"))
    read = [int(v) for v in data["values"]]
    if (data["p"], data["n"], data["r"]) != (p, n, r) or read != values:
        raise RuntimeError(f"{path} did not round-trip")
    if len(read) != p ** (n * r) or not answers.in_kernel(read, answers.four_term_maps(p**n, r)):
        raise RuntimeError(f"{path} is not an integer four-term kernel measure")


def _kernel_input(work: Path, tag: str, seed: int, p: int, n: int, r: int) -> tuple[str, list[int]]:
    rng = random.Random(f"{tag}/{seed}/{p}-{n}-{r}")
    values = answers.random_kernel_values(p, n, r, rng)
    path = work / f"{tag}-{p}-{n}-{r}.json"
    _write_measure(path, p, n, r, values)
    return path.relative_to(work.parent).as_posix(), values


def _flag_seed(tag: str, seed: int, p: int, n: int, r: int) -> int:
    return random.Random(f"{tag}/{seed}/{p}-{n}-{r}").randrange(2**32)


def _full_support_seed(tag: str, seed: int, p: int, n: int, r: int) -> int:
    """A --seed whose random table has no zero cell.

    ``synth.random_lambda_table`` draws one randint(-9, 9) per cell in row-major
    order and drops zeros.  A dropped cell removes whole families of words from
    the series that `report` exponentiates, which changes its cost several-fold,
    so the workload keeps every cell to make its size independent of the seed.
    """
    rng = random.Random(f"{tag}/{seed}/{p}-{n}-{r}")
    while True:
        candidate = rng.randrange(2**32)
        draws = random.Random(candidate)
        if all(draws.randint(-9, 9) for _ in range(p ** (n * r))):
            return candidate


# -- checks: each returns the list of disagreements with the known answer --


def _check_kernel(p: int, n: int, r: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        problems = _same_config(report, p, n, r)
        expected = answers.kernel_dimension(p, n, r)
        basis = report.get("basis", [])
        if report.get("dimension") != expected or len(basis) != expected:
            problems.append(f"dimension {report.get('dimension')}/{len(basis)} != closed form {expected}")
        maps = answers.four_term_maps(p**n, r)
        vectors = []
        for k, vector in enumerate(basis):
            try:
                values = [int(v) for v in vector["values"]]
            except ValueError:
                problems.append(f"basis vector {k} is not integral")
                continue
            if (vector["p"], vector["n"], vector["r"]) != (p, n, r) or len(values) != p ** (n * r):
                problems.append(f"basis vector {k} has the wrong shape")
            elif not answers.in_kernel(values, maps):
                problems.append(f"basis vector {k} is not in the four-term kernel")
            elif not answers.is_primitive(values):
                problems.append(f"basis vector {k} is not primitive")
            vectors.append(values)
        if not answers.has_private_cells(vectors):
            problems.append("basis vectors lack an independence witness")
        return problems

    return check


def _check_vanish(p: int, n: int, r: int, cap: int, values: list[int] | None,
                  rng: random.Random) -> Callable[[dict], list[str]]:
    """Every odd word passes (the vanishing theorem for integer kernel
    measures); with a known measure, sampled valuations are recomputed."""

    def check(report: dict) -> list[str]:
        problems = _same_config(report, p, n, r)
        words = answers.exponent_words(r, cap, odd_only=True)
        rows = report.get("checks", [])
        if [tuple(row["exponents"]) for row in rows] != words:
            problems.append("exponent words differ from the odd words with sum <= cap")
            return problems
        if report.get("all_pass") is not True or not all(row["pass"] for row in rows):
            problems.append("a vanishing check failed on a kernel measure")
        for row in rows:
            v = row["valuation"]
            if row["threshold"] > n or row["pass"] != (v == "inf" or v >= row["threshold"]):
                problems.append(f"inconsistent verdict for {row['exponents']}")
        if values is not None:
            for k in sorted(rng.sample(range(len(rows)), min(SAMPLE, len(rows)))):
                word = (0, *words[k])
                expected = _valuation_json(answers.valuation(answers.moment(values, p**n, r, word), p))
                if rows[k]["valuation"] != expected:
                    problems.append(f"valuation for {words[k]} is {rows[k]['valuation']}, expected {expected}")
        return problems

    return check


def _check_moments(p: int, n: int, r: int, cap: int, values: list[int],
                   rng: random.Random) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        problems = _same_config(report, p, n, r)
        words = answers.exponent_words(r + 1, cap, odd_only=False)
        rows = report.get("moments", [])
        if [tuple(row["exponents"]) for row in rows] != words:
            return problems + ["exponent words differ from the words with sum <= cap"]
        for word, row in zip(words, rows):
            value = Fraction(row["moment"])
            if Fraction(row["lambda"]) != answers.lambda_value(value, word):
                problems.append(f"lambda for {word} is not moment / prod(e!)")
            if row["valuation"] != _valuation_json(answers.valuation(value, p)):
                problems.append(f"valuation for {word} does not match its moment")
        for k in sorted(rng.sample(range(len(rows)), min(SAMPLE, len(rows)))):
            if Fraction(rows[k]["moment"]) != answers.moment(values, p**n, r, words[k]):
                problems.append(f"moment for {words[k]} differs from the independent sum")
        return problems

    return check


def _check_cosets(p: int, n: int, r: int, cap: int, values: list[int], perturb: bool,
                  rng: random.Random) -> Callable[[dict], list[str]]:
    """Kernel measures pass every coset identity; the perturbed measure
    fails some.  Every check of the (small) perturbed run is recomputed, and
    a sample of the others."""
    if perturb:
        q = p**n
        values = list(values)
        values[sum(q**k for k in range(r))] += 1  # the all-ones point
    def check(report: dict) -> list[str]:
        problems = _same_config(report, p, n, r)
        words = answers.exponent_words(r, cap, odd_only=False)
        checks = [(e, base, word) for e in (sorted({1, n}) if n >= 1 else [0])
                  for base in answers.cells(p**e, r) for word in words]
        if report.get("total_checks") != answers.coset_count(p, n, r) * len(words):
            problems.append(f"total_checks {report.get('total_checks')} != cosets x words")
        failures = report.get("failures", [])
        if report.get("all_pass") is not (not failures) or report.get("perturbed") is not perturb:
            problems.append("inconsistent all_pass / perturbed fields")
        if perturb == (not failures):
            problems.append("perturbed measure passed" if perturb else "kernel measure failed")
        failed = {(f["modulus_exponent"], tuple(f["base"]), tuple(f["exponents"])): f["valuation"]
                  for f in failures}
        for e, base, word in checks if perturb else rng.sample(checks, min(SAMPLE, len(checks))):
            v = answers.valuation(answers.coset_identity(values, p, n, r, base, e, word), p)
            fails = v is not None and v < n
            if fails != ((e, base, word) in failed) or (fails and failed[(e, base, word)] != v):
                problems.append(f"coset check {(e, base, word)} disagrees with valuation {v}")
        return problems

    return check


def _check_report(p: int, n: int, r: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        checks = report.get("checks", {})
        expected = {
            "series_round_trip": {"pass": True},
            "rhombus_four_term": {"pass": True},
            "kernel": {"dimension": answers.kernel_dimension(p, n, r)},
            "vanishing": {"total": len(answers.exponent_words(r, DEFAULT_EXPONENT_CAP, True)),
                          "failures": 0, "pass": True},
            "cosets": {"total": answers.coset_count(p, n, r)
                       * len(answers.exponent_words(r, DEFAULT_EXPONENT_CAP, False)),
                       "failures": 0, "pass": True},
        }
        problems = [f"{name}: {checks.get(name)} != {want}"
                    for name, want in expected.items() if checks.get(name) != want]
        if report.get("all_pass") is not True:
            problems.append("all_pass is not true")
        return problems

    return check


# -- workloads --


def _kernel_cold(seed: int, work: Path) -> list[Invocation]:
    corpus = [Invocation(("kernel", *_config(p, n, r)), 0, _check_kernel(p, n, r))
              for p, n, r in ((5, 2, 2), (3, 1, 6), (2, 3, 3))]
    flag = _flag_seed("kernel-cold", seed, 3, 2, 3)
    corpus.append(Invocation(
        ("vanish", *_config(3, 2, 3), "--seed", str(flag)), 0,
        _check_vanish(3, 2, 3, DEFAULT_EXPONENT_CAP, None, random.Random(seed)),
    ))
    return corpus


def _coset_sweep(seed: int, work: Path) -> list[Invocation]:
    corpus = []
    for p, n, r, perturb in ((5, 2, 2, False), (7, 1, 3, False), (2, 3, 3, False), (3, 2, 2, True)):
        path, values = _kernel_input(work, "coset-sweep", seed, p, n, r)
        argv = ("check-cosets", "--in", path) + (("--perturb",) if perturb else ())
        check = _check_cosets(p, n, r, DEFAULT_EXPONENT_CAP, values, perturb, random.Random(seed))
        corpus.append(Invocation(argv, 1 if perturb else 0, check))
    return corpus


def _moment_table(seed: int, work: Path) -> list[Invocation]:
    path_323, values_323 = _kernel_input(work, "moment-table", seed, 3, 2, 3)
    path_713, values_713 = _kernel_input(work, "moment-table", seed, 7, 1, 3)
    return [
        Invocation(("moments", "--in", path_323, "--exp-cap", "15"), 0,
                   _check_moments(3, 2, 3, 15, values_323, random.Random(seed))),
        Invocation(("moments", "--in", path_713, "--exp-cap", "13"), 0,
                   _check_moments(7, 1, 3, 13, values_713, random.Random(seed))),
        Invocation(("vanish", "--in", path_323, "--exp-cap", "21"), 0,
                   _check_vanish(3, 2, 3, 21, values_323, random.Random(seed))),
    ]


def _series_report(seed: int, work: Path) -> list[Invocation]:
    return [
        Invocation(("report", *_config(p, n, r), "--degree", str(degree),
                    "--seed", str(_full_support_seed("series-report", seed, p, n, r))),
                   0, _check_report(p, n, r))
        for p, n, r, degree in ((3, 1, 1, 8), (5, 1, 1, 6), (2, 2, 2, 8))
    ]


# Two workloads, each a sum of the corpora above.  On the 2-core machine the
# benchmark was written on, run time drifts in phases lasting tens of seconds,
# so a steady figure needs long runs, and the run budget allows long runs only
# for two workloads.  Each pairs corpora that share no engine with the other:
# an optimization of kernel elimination or series arithmetic should move
# kernel-series and leave coset-moment flat; a moment or coset-sum engine
# should move coset-moment and leave kernel-series flat.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel-series",
                 "kernel bases, a seeded vanish sweep and report: synth elimination and series exp/log/mul; "
                 "no moment-table or coset-sweep work",
                 lambda seed, work: _kernel_cold(seed, work) + _series_report(seed, work)),
        Workload("coset-moment",
                 "check-cosets, moments and vanish on seeded kernel-measure files: coset sums and "
                 "whole-table moments in measures and euler; synth and series idle",
                 lambda seed, work: _coset_sweep(seed, work) + _moment_table(seed, work)),
    )
}
