import argparse
import ast
import gc
import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
import tracemalloc
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mzvkit
from mzvkit.cli import (MAX_INPUT_BYTES_PER_CELL, _exponent_words, _load_measure, build_parser,
                        main)
from mzvkit.euler import CheckFamily, vanishing_check
from mzvkit.exact import INFINITY, format_rational, padic_valuation
from mzvkit.measures import (LevelMeasure, _word, exponent_words, factorial_norm, four_term,
                             measure_to_json_dict, moment)
from mzvkit.synth import _cached_kernel, four_term_kernel, random_kernel_measure


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert err == ""
    return code, json.loads(out)


def write_measure(tmp_path, mu, name="measure.json"):
    path = tmp_path / name
    path.write_text(json.dumps(measure_to_json_dict(mu)), encoding="ascii")
    return str(path)


def test_kernel_reports_dimension_and_basis():
    code, report = run_json(["kernel", "--p", "2", "--level", "1", "--depth", "1"])
    assert code == 0
    assert report["command"] == "kernel"
    assert report["dimension"] == 2
    assert len(report["basis"]) == 2
    assert all(entry["p"] == 2 for entry in report["basis"])


def test_reports_are_byte_identical():
    argv = ["report", "--p", "3", "--level", "1", "--depth", "1", "--seed", "5",
            "--degree", "4"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 0


def test_vanish_seeded_measure_passes():
    code, report = run_json(
        ["vanish", "--p", "3", "--level", "1", "--depth", "2", "--seed", "9"]
    )
    assert code == 0
    assert report["all_pass"] is True
    assert report["source"] == {"seed": 9}
    assert all(sum(row["exponents"]) % 2 == 1 for row in report["checks"])


def test_vanish_zero_measure_file(tmp_path):
    path = write_measure(tmp_path, LevelMeasure.zero(3, 1, 1))
    code, report = run_json(["vanish", "--in", path])
    assert code == 0
    assert report["all_pass"] is True
    assert report["source"] == {"file": path}
    assert all(row["valuation"] == "inf" for row in report["checks"])


def test_vanish_rejects_flag_mismatch(tmp_path):
    path = write_measure(tmp_path, LevelMeasure.zero(3, 1, 1))
    code, out, err = run_cli(["vanish", "--in", path, "--p", "5"])
    assert code == 2
    assert out == ""
    assert "does not match" in err


def test_perturbed_cosets_fail():
    code, report = run_json(
        ["check-cosets", "--p", "3", "--level", "1", "--depth", "1",
         "--seed", "0", "--perturb"]
    )
    assert code == 1
    assert report["perturbed"] is True
    assert report["all_pass"] is False
    assert report["failures"]
    assert report["worst_valuation"] == 0


@pytest.mark.parametrize("argv,code", [
    (["--p", "2", "--level", "1", "--depth", "1"], 0),
    (["--p", "2", "--level", "0", "--depth", "2"], 0),
    (["--p", "3", "--level", "1", "--depth", "1"], 1),
])
def test_perturb_fails_only_above_modulus_two(argv, code):
    """The one-cell edit leaves the four-term kernel only when the modulus
    p^n is above 2: at modulus 1 or 2, -j = j and 1 - j = j - 1, so the
    operator is 0 and every coset check still passes."""
    argv = ["check-cosets", *argv, "--seed", "0", "--perturb"]
    assert run_json(argv)[0] == code
    mu = random_kernel_measure(*(int(value) for value in argv[2:7:2]), seed=0)
    edited = mu + LevelMeasure.point_mass(mu.p, mu.n, mu.r, (1,) * mu.r)
    assert four_term(edited).is_zero() == (code == 0)


def test_perturbed_failures_at_cap_scale_are_the_edit_under_the_operator():
    """Each signed coset total is congruent mod p^n to the sum over its coset
    of g_w * T(mu), g_w the integrand of (0, *w) (README, "How checks are
    computed").  At p = 97, n = 1 every coset of modulus exponent 1 is one
    point, so the failing rows of the perturbed cap-scale sweep are the points
    b and words w with g_w(b) * T(mu)(b) not 0 mod 97, each at valuation 0;
    T(mu) is T of the one-cell edit alone, mu being in the kernel."""
    p, n, r, cap = 97, 1, 2, 20
    code, report = run_json(["check-cosets", "--p", str(p), "--level", str(n),
                             "--depth", str(r), "--seed", "0", "--exp-cap", str(cap),
                             "--perturb"])
    mu = random_kernel_measure(p, n, r, seed=0)
    image = four_term(mu + LevelMeasure.point_mass(p, n, r, (1,) * r))
    support = {point: value for point, value in zip(image.points(), image.values) if value}
    assert support == {(0, 0): 1, (1, 1): 1, (2, 2): -1, (96, 96): -1}

    def integrand(word, point):
        (e1, e2), (y1, y2) = word, point
        return (y1 - y2) ** e1 * y2**e2

    predicted = [{"modulus_exponent": 1, "base": list(point), "exponents": list(word),
                  "valuation": 0, "threshold": n, "pass": False}
                 for point, value in support.items() for word in exponent_words(r, cap)
                 if integrand(word, point) * value % p]
    # e1 = 0 at every point; every e2 at (1,1), (2,2) and (96,96), only 0 at (0,0)
    assert len(predicted) == 3 * (cap + 1) + 1 == 64
    assert code == 1
    assert report["failures"] == predicted
    assert (report["worst_valuation"], report["total_checks"]) == (0, 2_173_479)


def parity_reduction(mu):
    """The two factors that the parity reduction gives an odd r-word w of an
    integer kernel measure mu, at q = p^n: S = sum_{u<q} u^(e_r) and M =
    sum_y nu_bar(y) * (-y_1)^(e_1) * prod_{k=2}^{r-1} (y_(k-1) - y_k)^(e_k),
    with nu_bar(y) = mu(0, y) - mu(0, -y) on (Z/q)^(r-1).  nu = mu - mu(-.) is
    constant on diagonal orbits, the odd integrand is negated by x -> -x, and
    on each orbit x_r runs over every residue, so 2 * moment(mu, (0, *w)) =
    S * M mod q.  Plain loops over the numerators, no engine."""
    p, n, r, numerators = mu.p, mu.n, mu.r, mu.numerators
    q = p**n
    # the first q^(r-1) cells are the points (0, y), y row-major
    nu_bar = {}
    for index, y in enumerate(itertools.product(range(q), repeat=r - 1)):
        negated = 0
        for coordinate in y:
            negated = negated * q + -coordinate % q
        if numerators[index] != numerators[negated]:
            nu_bar[y] = numerators[index] - numerators[negated]

    def factors(word):
        *head, last = word
        power_sum = sum(u**last for u in range(q))
        reduced = 0
        for y, value in nu_bar.items():
            term = value * (-y[0]) ** head[0]
            for k in range(1, r - 1):
                term *= (y[k - 1] - y[k]) ** head[k]
            reduced += term
        return power_sum, reduced

    return factors


@pytest.mark.parametrize("config,cap,rows,below", [
    ((5, 2, 2), 60, 930, 210),
    ((3, 2, 3), 21, 1_078, 440),
], ids=str)
def test_vanish_valuations_at_cap_scale_are_the_parity_reduction(config, cap, rows, below):
    """The parity reduction predicts every valuation of a cap-scale `vanish`,
    capped at n, without the engine: from 2 * moment = S * M mod q
    (:func:`parity_reduction`), at odd p min(n, v_p(moment)) = min(n, v_p(S) +
    v_p(M)).  p = 2 is left out, where the 2 loses a unit, and so is (97, 1,
    2), where every row predicts n = 1.  The prediction falls below n on
    ``below`` rows, so the check can fail."""
    p, n, r = config
    code, report = run_json(["vanish", "--p", str(p), "--level", str(n), "--depth", str(r),
                             "--seed", "0", "--exp-cap", str(cap)])
    assert code == 0 and len(report["checks"]) == rows
    factors = parity_reduction(random_kernel_measure(p, n, r, seed=0))

    def predicted(word):
        power_sum, reduced = factors(word)
        return min(n, padic_valuation(power_sum, p) + padic_valuation(reduced, p))

    predictions = [predicted(check["exponents"]) for check in report["checks"]]
    assert [min(n, check["valuation"]) if check["valuation"] != "inf" else n
            for check in report["checks"]] == predictions
    assert sum(prediction < n for prediction in predictions) == below


@pytest.mark.parametrize("config,cap,rows,odd,nonzero", [
    ((5, 2, 2), 30, 5_456, 240, 49),
    ((3, 2, 3), 15, 3_876, 444, 168),
], ids=str)
def test_moments_odd_rows_at_cap_scale_are_the_parity_reduction(config, cap, rows, odd,
                                                                nonzero):
    """Every row of a cap-scale `moments` with e0 = 0 and an odd exponent sum
    satisfies 2 * moment = S * M mod q, q = p^n, with S and M the factors of
    :func:`parity_reduction`, computed without the engine.  Odd p only: at
    p = 2 the 2 loses a unit.  The rows with e0 > 0 are the later levels of
    the table's recurrence, which have no closed form yet, so they are left
    out.  2 * moment is not 0 mod q on ``nonzero`` of the checked rows, so the
    check can fail."""
    p, n, r = config
    q = p**n
    code, report = run_json(["moments", "--p", str(p), "--level", str(n), "--depth", str(r),
                             "--seed", "0", "--exp-cap", str(cap)])
    assert code == 0 and len(report["moments"]) == rows
    factors = parity_reduction(random_kernel_measure(p, n, r, seed=0))
    checked = [(row["exponents"][1:], int(row["moment"])) for row in report["moments"]
               if row["exponents"][0] == 0 and sum(row["exponents"]) % 2]
    assert len(checked) == odd
    for word, value in checked:
        power_sum, reduced = factors(word)
        assert (2 * value - power_sum * reduced) % q == 0, word
    assert sum(2 * value % q != 0 for _, value in checked) == nonzero


def test_cosets_pass_without_perturbation():
    code, report = run_json(
        ["check-cosets", "--p", "3", "--level", "1", "--depth", "1", "--seed", "0"]
    )
    assert code == 0
    assert report["failures"] == []
    assert report["total_checks"] > 0


def test_certificate_report_shape():
    code, report = run_json(["certificate", "1,2,4", "--p", "2"])
    assert code == 0
    assert report["target"] == [1, 2, 4]
    assert all(set(entry) == {"q", "coeff"} for entry in report["combination"])
    assert isinstance(report["slack"], int)


def test_certificate_rejects_even_parity():
    code, out, err = run_cli(["certificate", "2,2", "--p", "3"])
    assert code == 2
    assert "error" in err


def test_check_rhombus_passes():
    code, report = run_json(
        ["check-rhombus", "--p", "3", "--level", "1", "--depth", "2", "--seed", "1"]
    )
    assert code == 0
    assert report["pass"] is True


def test_moments_zero_measure(tmp_path):
    path = write_measure(tmp_path, LevelMeasure.zero(2, 1, 1))
    code, report = run_json(["moments", "--in", path, "--exp-cap", "2"])
    assert code == 0
    assert report["moments"]
    assert all(row["moment"] == "0" for row in report["moments"])
    assert all(row["valuation"] == "inf" for row in report["moments"])


def test_report_aggregates_all_checks():
    code, report = run_json(
        ["report", "--p", "2", "--level", "2", "--depth", "1", "--seed", "3",
         "--degree", "4"]
    )
    assert code == 0
    assert report["all_pass"] is True
    checks = report["checks"]
    assert checks["series_round_trip"]["pass"] is True
    assert checks["rhombus_four_term"]["pass"] is True
    assert checks["kernel"]["dimension"] == 3
    assert checks["vanishing"]["failures"] == 0
    assert checks["cosets"]["failures"] == 0


# One fault per family of `report`, patched in: the series round trip, the
# rhombus comparison, one failing vanishing verdict and a failing coset family.
REPORT_FAULTS = {
    "series_round_trip": ("mzvkit.series.exp", lambda series: series),
    "rhombus_four_term": ("mzvkit.cli._rhombus_matches", lambda table: False),
    "vanishing": ("mzvkit.cli._vanishing_family",
                  lambda mu, sums: (CheckFamily(1, (((1,), 0, 1),), 0), [0], {1: 1})),
    "cosets": ("mzvkit.cli.coset_family",
               lambda mu, words: CheckFamily(1, ((1, (0,), (1,), 0),), 0)),
}


@pytest.mark.parametrize("family", REPORT_FAULTS)
def test_report_fails_when_one_family_fails(family, monkeypatch):
    monkeypatch.setattr(*REPORT_FAULTS[family])
    code, report = run_json(["report", "--p", "2", "--level", "1", "--depth", "1",
                             "--degree", "8"])
    assert (code, report["all_pass"]) == (1, False)
    assert [name for name, check in report["checks"].items()
            if not check.get("pass", True)] == [family]


def test_report_degree_cap():
    code, out, err = run_cli(
        ["report", "--p", "2", "--level", "1", "--depth", "1", "--degree", "9"]
    )
    assert code == 2
    assert "--degree" in err


@pytest.mark.parametrize("degree", ["1", "-1"])
def test_report_degree_below_depth_exits_before_any_table(degree, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before --degree was checked")

    monkeypatch.setattr("mzvkit.cli.random_lambda_table", no_table)
    argv = ["report", "--p", "3", "--level", "1", "--depth", "2", "--degree", degree]
    assert run_cli(argv) == (2, "", f"error: --degree {degree} is below --depth 2\n")


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        ["kernel", "--p", "3", "--level", "1", "--depth", "1", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text(encoding="ascii") == out


# the small configurations of tests/test_synth.py, a level-0 one and one
# whose basis vectors have several nonzero cells
KERNEL_CONFIGS = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 1), (5, 1, 1),
                  (2, 0, 3), (3, 2, 2)]


@pytest.mark.parametrize("config", KERNEL_CONFIGS)
def test_streamed_kernel_matches_json_dumps(config, tmp_path):
    p, n, r = config
    target = tmp_path / "kernel.json"
    code, out, err = run_cli(["kernel", "--p", str(p), "--level", str(n), "--depth", str(r),
                              "--out", str(target)])
    basis = four_term_kernel(p, n, r)
    report = {
        "command": "kernel",
        "p": p,
        "n": n,
        "r": r,
        "dimension": basis.dimension,
        "basis": [measure_to_json_dict(vector) for vector in basis.measures()],
    }
    assert (code, err) == (0, "")
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert target.read_text(encoding="ascii") == out


def _words(length, cap, odd):
    """Words of the given length and sum at most ``cap``, lexicographically."""
    return [word for word in itertools.product(range(cap + 1), repeat=length)
            if sum(word) <= cap and (not odd or sum(word) % 2)]


def _valuation(value, p):
    valuation = padic_valuation(value, p)
    return "inf" if valuation == INFINITY else valuation


def _table_report(command, mu, path, cap):
    """The `moments` or `vanish` report as json.dumps prints it, from the
    one-word-at-a-time library calls, and the exit code it implies."""
    report = {"command": command, "p": mu.p, "n": mu.n, "r": mu.r, "source": {"file": path},
              "exponent_cap": cap}
    if command == "moments":
        report["moments"] = [
            {"exponents": list(word), "moment": format_rational(moment(mu, word)),
             "lambda": format_rational(moment(mu, word) / factorial_norm(word)),
             "valuation": _valuation(moment(mu, word), mu.p)}
            for word in _words(mu.r + 1, cap, odd=False)
        ]
        code = 0
    else:
        report["checks"] = [{"exponents": list(word), **vanishing_check(mu, word).to_json_dict()}
                            for word in _words(mu.r, cap, odd=True)]
        report["all_pass"] = all(row["pass"] for row in report["checks"])
        code = 0 if report["all_pass"] else 1
    return code, json.dumps(report, indent=2, sort_keys=True) + "\n"


# (command, measure, exponent cap): a kernel measure, a rational one, the
# zero measure (every valuation "inf"), one moment row and no vanish row, and
# rational moments and kernel vanish rows at depths 3 and 4
TABLE_REPORTS = [
    ("moments", random_kernel_measure(3, 1, 2, seed=1), 4),
    ("moments", LevelMeasure(3, 1, 1, [Fraction(1, 3), 0, -2]), 3),
    ("moments", LevelMeasure.zero(2, 1, 2), 2),
    ("moments", random_kernel_measure(5, 1, 1, seed=2), 0),
    ("vanish", random_kernel_measure(3, 1, 2, seed=1), 5),
    ("vanish", random_kernel_measure(2, 2, 1, seed=3), 7),
    ("vanish", LevelMeasure.zero(2, 1, 2), 3),
    ("vanish", random_kernel_measure(3, 1, 2, seed=1), 0),
    ("moments", LevelMeasure(2, 1, 3, [Fraction(-1, 3), 2, 0, Fraction(5, 7), -4, 1,
                                       Fraction(-3, 2), 0]), 4),
    ("moments", LevelMeasure(2, 1, 4, [Fraction((-1) ** k * k, 3) for k in range(16)]), 3),
    ("vanish", random_kernel_measure(3, 1, 3, seed=2), 5),
    ("vanish", random_kernel_measure(3, 1, 4, seed=5), 5),
    # vanish rows at every depth 1..4 for p = 2 and 3, at level 0 too
    *[("vanish", random_kernel_measure(p, n, r, seed=r), 7)
      for p, n in ((2, 0), (2, 1), (3, 0)) for r in range(1, 5)],
    ("vanish", random_kernel_measure(3, 1, 1, seed=4), 7),
]


@pytest.mark.parametrize("command,mu,cap", TABLE_REPORTS)
def test_table_reports_match_json_dumps_and_out_file(command, mu, cap, tmp_path):
    path = write_measure(tmp_path, mu)
    target = tmp_path / "report.json"
    code, out, err = run_cli([command, "--in", path, "--exp-cap", str(cap), "--out", str(target)])
    assert (code, out, err) == (*_table_report(command, mu, path, cap), "")
    assert target.read_text(encoding="ascii") == out


def test_malformed_input_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json", encoding="ascii")
    code, out, err = run_cli(["vanish", "--in", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_missing_input_file(tmp_path):
    code, out, err = run_cli(["vanish", "--in", str(tmp_path / "absent.json")])
    assert code == 2


# a value is "n" or "n/d" in ASCII digits: no decimal point, exponent,
# underscore, padding, plus sign or other digit script
@pytest.mark.parametrize("bad_value", ["1/0", 1.5, "0.5", "1e2", "1_0", " 1 ", "+1", "1/2 ",
                                       "\uff11", "1e10000000"])
def test_bad_measure_value_exits_two(tmp_path, bad_value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 2, "n": 1, "r": 1, "values": ["1", bad_value]}),
                    encoding="ascii")
    code, out, err = run_cli(["moments", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("name", ["overflow-header.json", "float-header.json",
                                  "bool-header.json", "string-values.json",
                                  "string-header.json"])
def test_malformed_measure_header_exits_two(fuzz_dir, name):
    # p, n and r must be JSON integers and values a list: nothing is truncated,
    # coerced or read one character per cell
    code, out, err = run_cli(["vanish", "--in", str(fuzz_dir / name)])
    assert (code, out) == (2, "")
    assert err.startswith("error: measure field")


@pytest.mark.parametrize("name,message", [
    ("list.json", "a measure must be a JSON object, got list"),
    ("null.json", "a measure must be a JSON object, got NoneType"),
    ("string.json", "a measure must be a JSON object, got str"),
    ("missing-key.json", 'measure field "r" is missing'),
    ("too-many-values.json", "expected 3 cells, got 4"),
])
def test_measure_file_that_is_not_a_measure_object_exits_two(fuzz_dir, name, message):
    assert run_cli(["vanish", "--in", str(fuzz_dir / name)]) == (2, "", f"error: {message}\n")


def input_bound(cap):
    return cap * MAX_INPUT_BYTES_PER_CELL + 4096


def test_longest_legitimate_input_reads(tmp_path, monkeypatch):
    # every cell at the cap holds parse_rational's longest value: a minus and
    # two 4 300-digit integers (Python's default int digit limit)
    monkeypatch.setenv("MZV_CAP", "9")
    value = "-" + "9" * 4300 + "/" + "7" * 4300
    text = json.dumps({"p": 3, "n": 1, "r": 2, "values": [value] * 9}, indent=4)
    path = tmp_path / "longest.json"
    argv = ["moments", "--in", str(path), "--exp-cap", "0"]
    path.write_text(text.ljust(input_bound(9)), encoding="ascii")
    assert run_cli(argv)[0] == 0
    path.write_text(text.ljust(input_bound(9) + 1), encoding="ascii")
    assert run_cli(argv) == (2, "", f"error: {path} is longer than {input_bound(9)} bytes, "
                                    "the bound for the cap of 9 cells\n")


def test_input_bound_admits_exactly_its_bytes_at_one_read_chunk(tmp_path, monkeypatch):
    # a bound of one 64 KiB read chunk, 61 440 bytes for the one cell and
    # 4 096 of header: a file of exactly that many bytes reads, and one byte
    # more is refused, not cut at the chunk to valid JSON
    monkeypatch.setenv("MZV_CAP", "1")
    monkeypatch.setattr("mzvkit.cli.MAX_INPUT_BYTES_PER_CELL", 61_440)
    bound = 1 << 16
    text = json.dumps({"p": 2, "n": 0, "r": 1, "values": ["1"]})
    path = tmp_path / "one-chunk.json"
    argv = ["moments", "--in", str(path), "--exp-cap", "1"]
    path.write_text(text.ljust(bound), encoding="ascii")
    assert run_cli(argv)[0] == 0
    path.write_text(text.ljust(bound + 1), encoding="ascii")
    assert run_cli(argv) == (2, "", f"error: {path} is longer than {bound} bytes, "
                                    "the bound for the cap of 1 cells\n")


def traced(compute):
    """The traced size that compute()'s result holds and the traced peak while
    it ran, in bytes above what was traced before.  A full collection first
    empties the interpreter's free lists, so earlier calls do not change the
    count."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = compute()  # held while its size is read
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size - before, peak - before


def test_input_load_holds_one_stage_at_a_time(tmp_path):
    # 1 024 values of 4 000 digits, 4.1 MB pretty-printed.  Holding the file's
    # bytes, its text and its parsed values at once peaked at 3.0 times its
    # size; dropping the bytes once decoded and the text once parsed, 2.0
    rng = random.Random(0)
    values = [str(rng.randrange(10**3999, 10**4000)) for _ in range(1024)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"p": 2, "n": 10, "r": 1, "values": values}, indent=2),
                    encoding="ascii")
    args = build_parser().parse_args(["moments", "--in", str(path)])
    load = lambda: _load_measure(args, lambda r: [])
    load()  # imports and caches settle outside the trace
    assert traced(load)[1] <= 2.5 * path.stat().st_size


def test_moments_streams_its_values():
    # 3 876 words of length 4.  Holding every moment and a second copy of
    # every word before the first row peaked at 3.4 times the traced size of
    # the word list; streamed from the engine with the words held once, 2.0;
    # with the first level's words walked as partial sums, 0.5
    args = build_parser().parse_args(["moments", "--p", "3", "--level", "2", "--depth", "3",
                                      "--seed", "1", "--exp-cap", "15"])
    drain = lambda: deque(args.func(args)[0], maxlen=0)
    drain()  # the kernel basis and the engine's caches settle outside the trace
    words = traced(lambda: list(exponent_words(4, 15)))[0]
    assert traced(drain)[1] <= 2.5 * words


def test_vanish_holds_one_valuation_per_word():
    # 3 723 odd words of length 3.  Holding the odd-word list and one verdict
    # per word peaked at 2.9 times the traced size of that list; walking the
    # words as partial sums and holding one valuation per word, at 0.54.  (At
    # cap 21 the 1 078 words take 78 KB, less than the 110 KB elimination
    # plan of this measure, so a bound there could not tell words from plan.)
    args = build_parser().parse_args(["vanish", "--p", "3", "--level", "2", "--depth", "3",
                                      "--seed", "1", "--exp-cap", "33"])
    drain = lambda: deque(args.func(args)[0], maxlen=0)
    drain()  # the kernel basis and the engine's caches settle outside the trace
    words = traced(lambda: [word for word in exponent_words(3, 33) if sum(word) % 2])[0]
    assert traced(drain)[1] < words


COSET_SWEEP_HOLDS = """
import gc, tracemalloc
from collections import deque
from mzvkit.euler import coset_identity_sweep
from mzvkit.synth import random_kernel_measure

mu = random_kernel_measure(97, 1, 2, seed=0)
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
deque(coset_identity_sweep(mu, [(0, 1)], 1), maxlen=0)
gc.collect()  # the free lists let go of what the sweep freed
size, peak = tracemalloc.get_traced_memory()
print(size - before, peak - before)
"""


def test_coset_sweep_holds_nothing_after_it_returns():
    # a fresh interpreter, so that no earlier sweep has filled a cache.  The
    # four-term index maps at (97, 2), held by a cache after the sweep, took
    # 1.47 MB; made for the call, they go with it
    held, _ = map(int, _python("-c", COSET_SWEEP_HOLDS).split())
    assert held <= 64 * 1024


@pytest.mark.parametrize("command", ["vanish", "moments", "check-cosets"])
def test_oversized_input_exits_two(fuzz_dir, command, monkeypatch):
    # the read stops one byte past the bound, before json sees any of it
    monkeypatch.setenv("MZV_CAP", str(FUZZ_CAP))
    code, out, err = run_cli([command, "--in", str(fuzz_dir / "oversized.json")])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"longer than {input_bound(FUZZ_CAP)} bytes" in err


def _limit_address_space_below_the_bound():
    import resource

    limit = 80 * 1024 * 1024  # the default cap's byte bound is 86.7 MB
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", ["vanish", "check-cosets"])
def test_small_input_reads_below_the_byte_bound_in_memory(command, tmp_path):
    # the read takes what the file holds, a chunk at a time; a single read of
    # the whole bound ran out of memory under this limit and exited 1 with a
    # traceback
    path = write_measure(tmp_path, random_kernel_measure(3, 1, 2, seed=0))
    result = subprocess.run([sys.executable, "-m", "mzvkit", command, "--in", path],
                            capture_output=True, text=True, timeout=60,
                            preexec_fn=_limit_address_space_below_the_bound)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["all_pass"] is True


@pytest.mark.parametrize("name", ["deep.json", "deep-values.json"])
@pytest.mark.parametrize("command", ["vanish", "moments", "check-cosets"])
def test_deeply_nested_input_exits_two(fuzz_dir, name, command):
    # json.load recurses once per level: a RecursionError is an input error
    code, out, err = run_cli([command, "--in", str(fuzz_dir / name)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "nested too deeply" in err


def test_non_kernel_measure_rejected(tmp_path):
    path = write_measure(tmp_path, LevelMeasure.point_mass(3, 1, 1, (1,)))
    code, out, err = run_cli(["vanish", "--in", path])
    assert code == 2
    assert "kernel" in err


def test_non_prime_base_rejected():
    code, out, err = run_cli(["kernel", "--p", "4", "--level", "1", "--depth", "1"])
    assert code == 2
    assert "prime" in err


def test_cell_cap_env_guard(monkeypatch):
    monkeypatch.setenv("MZV_CAP", "10")
    code, out, err = run_cli(["kernel", "--p", "3", "--level", "2", "--depth", "2"])
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("MZV_CAP", "0")
    code, out, err = run_cli(["kernel", "--p", "2", "--level", "1", "--depth", "1"])
    assert code == 2


def test_cell_cap_env_allows_small_configs(monkeypatch):
    monkeypatch.setenv("MZV_CAP", "100")
    code, report = run_json(["kernel", "--p", "2", "--level", "1", "--depth", "1"])
    assert code == 0
    assert report["dimension"] == 2


def test_report_eliminates_once_under_env_cap(monkeypatch):
    monkeypatch.setenv("MZV_CAP", "5000")
    _cached_kernel.cache_clear()
    code, report = run_json(
        ["report", "--p", "3", "--level", "1", "--depth", "2", "--degree", "2"]
    )
    assert code == 0
    assert _cached_kernel.cache_info().misses == 1


# the kernel guard and the coset sweep's stop both test the kernel measure;
# `report` also takes its random table's combination, for the rhombus check
@pytest.mark.parametrize("argv,measures", [
    (["check-cosets", "--p", "3", "--level", "1", "--depth", "2", "--seed", "1"], 1),
    (["report", "--p", "3", "--level", "1", "--depth", "2", "--degree", "2"], 2),
])
def test_four_term_combination_is_computed_once_per_measure(argv, measures, monkeypatch):
    passes = []
    cells = mzvkit.measures._four_term_cells

    def counted(mu):
        passes.append(mu)
        return cells(mu)

    monkeypatch.setattr(mzvkit.measures, "_four_term_cells", counted)
    assert run_json(argv)[0] == 0
    assert len(passes) == len({id(mu) for mu in passes}) == measures


# Every argument of every subcommand, keyed by its option strings (a
# positional by its dest): (dest, type, default, required, action), and the
# mutually exclusive groups as (required, options).  The --help text and the
# order of the arguments are free; nothing else here may change.
def _config_options(required):
    return {f"--{flag}": (flag, "int", None, required, "_StoreAction")
            for flag in ("p", "level", "depth")}


HELP_OPTION = {"-h --help": ("help", None, "==SUPPRESS==", False, "_HelpAction")}
OUT_OPTION = {"--out": ("out", None, None, False, "_StoreAction")}
EXP_CAP_OPTION = {"--exp-cap": ("exp_cap", "_exponent_cap", 7, False, "_StoreAction")}
SOURCE_OPTIONS = {"--in": ("infile", None, None, False, "_StoreAction"),
                  "--seed": ("seed", "_seed", None, False, "_StoreAction")}
SEED_OPTION = {"--seed": ("seed", "_seed", 0, False, "_StoreAction")}
SOURCE_GROUP = [(True, ["--in", "--seed"])]
PARSER_SPEC = {
    "kernel": ("cmd_kernel", {**_config_options(True), **OUT_OPTION}, []),
    "vanish": ("cmd_vanish", {**_config_options(False), **SOURCE_OPTIONS, **EXP_CAP_OPTION,
                              **OUT_OPTION}, SOURCE_GROUP),
    "certificate": ("cmd_certificate", {
        "exponents": ("exponents", "_exponent_list", None, True, "_StoreAction"),
        "--p": ("p", "int", None, True, "_StoreAction"), **OUT_OPTION}, []),
    "check-rhombus": ("cmd_check_rhombus", {**_config_options(True), **SEED_OPTION,
                                            **OUT_OPTION}, []),
    "check-cosets": ("cmd_check_cosets", {
        **_config_options(False), **SOURCE_OPTIONS, **EXP_CAP_OPTION, **OUT_OPTION,
        "--perturb": ("perturb", None, False, False, "_StoreTrueAction")}, SOURCE_GROUP),
    "moments": ("cmd_moments", {**_config_options(False), **SOURCE_OPTIONS, **EXP_CAP_OPTION,
                                **OUT_OPTION}, SOURCE_GROUP),
    "report": ("cmd_report", {**_config_options(True), **SEED_OPTION, **EXP_CAP_OPTION,
                              **OUT_OPTION,
                              "--degree": ("degree", "int", 8, False, "_StoreAction")}, []),
}


def test_parser_keeps_every_subcommand_argument():
    parser = build_parser()
    (subcommands,) = [action.choices for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert list(subcommands) == list(PARSER_SPEC)
    for name, sub in subcommands.items():
        func, options, groups = PARSER_SPEC[name]
        key = lambda action: " ".join(action.option_strings) or action.dest
        assert sub.get_default("func").__name__ == func, name
        assert {key(action): (action.dest, getattr(action.type, "__name__", None),
                              action.default, action.required, type(action).__name__)
                for action in sub._actions} == {**HELP_OPTION, **options}, name
        assert sorted((group.required, sorted(map(key, group._group_actions)))
                      for group in sub._mutually_exclusive_groups) == groups, name


# one call per subcommand; the perturbed coset check fails
COMMAND_CALLS = [
    (["kernel", "--p", "2", "--level", "1", "--depth", "1"], True),
    (["vanish", "--p", "3", "--level", "1", "--depth", "2", "--seed", "9"], True),
    (["certificate", "1,2,4", "--p", "2"], True),
    (["check-rhombus", "--p", "2", "--level", "1", "--depth", "2"], True),
    (["check-cosets", "--p", "3", "--level", "1", "--depth", "1", "--seed", "0", "--perturb"],
     False),
    (["moments", "--p", "2", "--level", "1", "--depth", "1", "--seed", "0"], True),
    (["report", "--p", "2", "--level", "1", "--depth", "1", "--degree", "2"], True),
]


@pytest.mark.parametrize("argv,passed", COMMAND_CALLS, ids=[c[0][0] for c in COMMAND_CALLS])
def test_commands_return_their_report_and_main_writes_it(argv, passed, tmp_path):
    """A command returns its report's chunks and its verdict; it writes no
    stdout and opens no --out.  main writes exactly those chunks and exits 0
    or 1 by the verdict."""
    target = tmp_path / "report.json"
    args = build_parser().parse_args([*argv, "--out", str(target)])
    with redirect_stdout(StringIO()) as out:
        chunks, verdict = args.func(args)
        text = "".join(chunks)
    assert (out.getvalue(), verdict, target.exists()) == ("", passed, False)
    assert run_cli(argv) == (0 if passed else 1, text, "")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["no-such-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["vanish", "--seed", "-1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["vanish", "--seed", "1", "--in", "x.json"])
    assert excinfo.value.code == 2
    for command in ("vanish", "check-cosets"):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([command, "--seed", "0", "--exp-cap", "-5"])
        assert excinfo.value.code == 2
    # argparse's refusals and a command's own, each with its message
    for argv, message in (
        (["certificate", "1,x", "--p", "2"], "bad exponent list"),
        (["certificate", "1,-2", "--p", "2"], "exponents must be non-negative integers"),
        (["vanish", "--seed", "0", "--level", "1", "--depth", "1"],
         "--p is required when no input file is given"),
    ):
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert (code, message in err.getvalue()) == (2, True), argv


def exit_code(argv):
    try:
        return run_cli(argv)[0]
    except SystemExit as exc:  # argparse rejects a flag's value
        return exc.code


SMALLEST = ("--p", "2", "--level", "1", "--depth", "1")
# Each guard at its limit, which passes, and one past it, which exits 2:
# (cli constant lowered so that the limit is cheap to reach, or None; argv;
# exit code).  28 words is C(8, 2), the pairs of exponent sum at most 6, and
# `report` at degree 8 on 2 cells estimates 2 + 4 + ... + 2^8 = 510 terms.
GUARD_BOUNDARIES = {
    "seed": [(None, ("check-rhombus", *SMALLEST, "--seed", seed), code)
             for seed, code in (("0", 0), (str(2**64 - 1), 0), (str(2**64), 2), ("-1", 2))],
    "exponent words": [(("MAX_EXPONENT_WORDS", 28),
                        ("moments", *SMALLEST, "--seed", "0", "--exp-cap", cap), code)
                       for cap, code in (("6", 0), ("7", 2))],
    "series terms": [(("MAX_SERIES_TERMS", limit), ("report", *SMALLEST, "--degree", "8"), code)
                     for limit, code in ((510, 0), (509, 2))],
    "certificate exponent": [(None, ("vanish", *SMALLEST, "--seed", "0", "--exp-cap", cap), code)
                             for cap, code in (("200", 0), ("201", 2))],
}


@pytest.mark.parametrize("guard", GUARD_BOUNDARIES)
def test_guard_admits_its_limit_and_rejects_one_past(guard, monkeypatch):
    for constant, argv, code in GUARD_BOUNDARIES[guard]:
        if constant is not None:
            monkeypatch.setattr(f"mzvkit.cli.{constant[0]}", constant[1])
        assert exit_code(list(argv)) == code, argv


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "mzvkit", "kernel", "--p", "2", "--level", "1", "--depth", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dimension"] == 2


ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
LOAD_TRACER = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
"""


def _python(*args):
    """stdout of a fresh interpreter run on the source tree."""
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def test_cli_import_loads_every_layer_but_series_without_dataclasses():
    # -S: no site-specific imports, so only what mzvkit.cli imports is loaded;
    # series, and array with it, loads only when report or check-rhombus runs
    code = ("import json, sys, mzvkit.cli\n"
            "loaded = sorted(sys.modules)\n" + LOAD_TRACER +
            "print(json.dumps([loaded, sorted({module for module, _ in tracer.TRACED})]))")
    loaded, traced = json.loads(_python("-S", "-c", code))
    assert "dataclasses" not in loaded and "inspect" not in loaded and "typing" not in loaded
    assert "series" in traced and "array" not in loaded
    assert [module for module in loaded if module.startswith("mzvkit.")] == [
        f"mzvkit.{module}" for module in traced if module != "series"]


def test_only_report_and_check_rhombus_load_series(tmp_path):
    measure = write_measure(tmp_path, random_kernel_measure(2, 1, 2, seed=0))
    code = ("import io, json, sys, contextlib\n"
            "from mzvkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            "print(json.dumps([status, 'mzvkit.series' in sys.modules]))")
    config = ["--p", "2", "--level", "1", "--depth", "2"]
    runs = {
        "check-cosets": ["check-cosets", "--in", measure],
        "moments": ["moments", "--in", measure],
        "vanish": ["vanish", "--in", measure],
        "kernel": ["kernel", *config],
        "report": ["report", *config, "--degree", "4"],
        "check-rhombus": ["check-rhombus", *config],
    }
    loaded = {name: json.loads(_python("-S", "-c", code, *argv)) for name, argv in runs.items()}
    assert loaded == {name: [0, name in ("report", "check-rhombus")] for name in runs}


def test_every_exported_name_is_bound():
    # a stale __all__ entry would fail only on `from mzvkit.<module> import *`
    modules = [importlib.import_module(f"mzvkit.{info.name}")
               for info in pkgutil.iter_modules(mzvkit.__path__) if info.name != "__main__"]
    assert all(hasattr(module, "__all__") for module in modules)
    assert [f"{module.__name__}.{name}" for module in modules for name in module.__all__
            if not hasattr(module, name)] == []


def _names_used(path):
    """Every name a file loads, imports or reads as an attribute; a name that
    is only defined, or only listed in ``__all__``, is not among them."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_exported_name_is_reached():
    # a public name that no command, acceptance criterion or traced metric
    # reaches belongs in the tests that use it
    reached = set().union(*map(_names_used, (ROOT / "src" / "mzvkit").glob("*.py")),
                          _names_used(ROOT / "tests" / "test_acceptance.py"))
    tracer = ast.parse(TRACER.read_text(encoding="utf-8"))
    traced = {f"mzvkit.{module}.{name}" for node in tracer.body
              if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
              for module, name in ast.literal_eval(node.value)}
    modules = [importlib.import_module(f"mzvkit.{info.name}")
               for info in pkgutil.iter_modules(mzvkit.__path__) if info.name != "__main__"]
    unreached = [f"{module.__name__}.{name}" for module in modules for name in module.__all__
                 if name not in reached]
    assert [name for name in unreached if name not in traced] == []


def test_tracer_resolves_every_traced_name():
    # a name moved out of its module fails every `perfbench/run.py --trace 1` run
    code = LOAD_TRACER + """
import json, sys
import mzvkit.cli
from mzvkit.series import NCSeries

def bound():
    return [NCSeries.__mul__ if (module, name) == ("series", "mul")
            else getattr(sys.modules["mzvkit." + module], name) for module, name in tracer.TRACED]

before = bound()
tracer.install([])
print(json.dumps([f"{module}.{name}" for (module, name), old, new
                  in zip(tracer.TRACED, before, bound()) if old is new]))
"""
    assert json.loads(_python("-c", code)) == []


def _limit_memory(megabytes=1536):
    import resource

    limit = megabytes * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# Inputs that once ran out of memory, recursed too deep or hung before a
# guard; each must now be rejected as bad input before any work.
GUARDED_INPUTS = [
    (("moments", "--p", "2", "--level", "1", "--depth", "1", "--seed", "0",
      "--exp-cap", "100000"), "words"),
    # 20 503 words of length 2 pass the count, so the cap refuses them
    (("moments", "--p", "2", "--level", "1", "--depth", "1", "--seed", "0",
      "--exp-cap", "201"), "certificate limit"),
    (("vanish", "--p", "2", "--level", "1", "--depth", "3", "--seed", "0",
      "--exp-cap", "100000"), "certificate limit"),
    (("vanish", "--p", "2", "--level", "1", "--depth", "3", "--seed", "0",
      "--exp-cap", "200"), "words"),
    (("check-cosets", "--p", "2", "--level", "1", "--depth", "2", "--seed", "0",
      "--exp-cap", "1000"), "words"),
    (("report", "--p", "2", "--level", "1", "--depth", "1", "--exp-cap", "100000"),
     "certificate limit"),
    (("report", "--p", "2", "--level", "1", "--depth", "3", "--exp-cap", "200"), "words"),
    (("certificate", "1,100000", "--p", "3"), "limit"),
    (("certificate", "2,201", "--p", "3"), "limit"),
    (("kernel", "--p", "2305843009213693951", "--level", "1", "--depth", "1"), "above the cap"),
    (("kernel", "--p", "2", "--level", "100000000", "--depth", "1"), "above the cap"),
    (("kernel", "--p", "2", "--level", "0", "--depth", "99999999999"), "depth"),
    (("check-rhombus", "--p", "3", "--level", "0", "--depth", "2305843009213693951"), "depth"),
    (("moments", "--in", "huge.json"), "cells"),
    (("vanish", "--in", "/dev/zero"), "longer than"),
    (("check-cosets", "--p", "7", "--level", "1", "--depth", "1", "--seed", "0",
      "--exp-cap", "99998"), "certificate limit"),
    (("report", "--p", "3", "--level", "2", "--depth", "2", "--seed", "1"), "series terms"),
    # a 201-digit cap: the count must stop at the limit, not be computed in
    # full and printed
    (("check-cosets", "--p", "2", "--level", "0", "--depth", "10000", "--seed", "0",
      "--exp-cap", "1" + "0" * 200), "words"),
]
# "huge.json" in an argv names this measure file: one value, but a header
# asking for 2^(200000 * 200000) cells
HUGE_MEASURE = {"p": 2, "n": 200000, "r": 200000, "values": ["1"]}


@pytest.mark.parametrize("argv,message", GUARDED_INPUTS, ids=[" ".join(c[0]) for c in GUARDED_INPUTS])
def test_resource_guards_exit_two_before_work(argv, message, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(HUGE_MEASURE), encoding="ascii")
    argv = [str(huge) if arg == "huge.json" else arg for arg in argv]
    # a separate, memory-limited process, so that a missing guard fails here
    # with MemoryError or a timeout rather than exhausting the test runner
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "mzvkit", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error:") and message in result.stderr
    assert "Traceback" not in result.stderr
    assert elapsed < 5


def test_in_read_out_of_memory_exits_two():
    # 80 MB of address space runs out before `--in` reaches its byte bound
    # (86.7 MB at the default cap): bad input, not a failed verdict
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "mzvkit", "vanish", "--in", "/dev/zero"],
        capture_output=True, text=True, timeout=60, preexec_fn=lambda: _limit_memory(80),
    )
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error:") and "does not fit in memory" in result.stderr
    assert "Traceback" not in result.stderr
    assert elapsed < 5


@pytest.mark.parametrize("command", ["vanish", "moments", "check-cosets"])
def test_over_cap_measure_file_exits_two_before_its_values_are_parsed(command, tmp_path):
    # 2^20 short values (4.2 MB, far under the byte bound) under a header
    # above the cell cap: parsing every value first ran out of memory under
    # this limit and exited 1 with a traceback
    path = tmp_path / "over-cap.json"
    path.write_text(json.dumps({"p": 2, "n": 20, "r": 1, "values": ["0"] * 2**20}),
                    encoding="ascii")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "mzvkit", command, "--in", str(path)],
        capture_output=True, text=True, timeout=60, preexec_fn=lambda: _limit_memory(80),
    )
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error:") and "above the cap" in result.stderr
    assert "Traceback" not in result.stderr
    assert elapsed < 5


# Configurations at the cell cap whose dense kernel basis took 0.5 to 4 GiB,
# and a cap-sized moment table.  The `kernel` digest is that of json.dumps of
# the dense report; the `check-cosets` digest was recorded with the dense
# basis, the `moments` digest with the cell-by-cell sweep.
MEMORY_BOUND_INPUTS = [
    (("kernel", "--p", "3", "--level", "2", "--depth", "4"),
     "fa6b6d8300a00db2f1e43357214fd9d8cf012e25cd66dfed1098c9260e54e08f"),
    (("check-cosets", "--p", "3", "--level", "2", "--depth", "4", "--seed", "0",
      "--exp-cap", "3"),
     "eb0b3c2ccbfa78bcfc545b16f71c6efce35f537dbec86dcd1eae06ca700b5fd8"),
    # 6188 words over 6262 nonzero cells of 6561
    (("moments", "--p", "3", "--level", "2", "--depth", "4", "--seed", "0", "--exp-cap", "12"),
     "b135768fdc1f46356290244d5455dced25f6bb7e315ff1c188ca4a52e5eb7a92"),
]


def _limit_memory_and_cpu():
    import resource

    _limit_memory()
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


@pytest.mark.parametrize("argv,digest", MEMORY_BOUND_INPUTS,
                         ids=[" ".join(c[0]) for c in MEMORY_BOUND_INPUTS])
def test_cap_sized_kernel_runs_within_memory_limit(argv, digest, tmp_path):
    # stdout (311 MB for `kernel`) is hashed as it arrives, not held; the CPU
    # limit ends the child, and so the read, if it never finishes
    stderr_path = tmp_path / "stderr"
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen([sys.executable, "-m", "mzvkit", *argv],
                                   stdout=subprocess.PIPE, stderr=stderr,
                                   preexec_fn=_limit_memory_and_cpu)
        sha = hashlib.sha256()
        with process.stdout:
            while block := process.stdout.read(1 << 20):
                sha.update(block)
        code = process.wait(timeout=60)
    assert (code, stderr_path.read_bytes(), sha.hexdigest()) == (0, b"", digest)


def test_exponent_words_enumerate_in_lexicographic_order():
    from itertools import product

    from mzvkit.cli import _exponent_words

    for r in (1, 2, 3):
        for cap in range(6):
            for odd_only in (False, True):
                expected = [w for w in product(range(cap + 1), repeat=r)
                            if sum(w) <= cap and (sum(w) % 2 or not odd_only)]
                sums = _exponent_words(r, cap, odd_only)
                # as partial sums, sized, and the same on every walk
                assert [_word(s) for s in sums] == expected == [_word(s) for s in sums]
                assert len(sums) == len(expected)


def test_deep_level_zero_words_build_quickly():
    # 1001 words of length 1000: building them must take time linear in
    # their total length, not cubic in the depth
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "mzvkit", "check-cosets", "--p", "2", "--level", "0",
         "--depth", "1000", "--seed", "0", "--exp-cap", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)
    assert (report["all_pass"], report["total_checks"]) == (True, 1001)
    assert elapsed < 3


# -- exit-code contract under fuzzed argv and input files --

FUZZ_FILES = {
    "kernel.json": {"p": 3, "n": 1, "r": 1, "values": ["2", "5", "5"]},
    "rational-kernel.json": {"p": 3, "n": 1, "r": 1, "values": ["1/3", "5", "5"]},
    "non-kernel.json": {"p": 3, "n": 1, "r": 1, "values": ["0", "1", "0"]},
    "kernel-2-1-2.json": {"p": 2, "n": 1, "r": 2, "values": ["1", "-4", "7", "0"]},
    "zero-denominator.json": {"p": 3, "n": 1, "r": 1, "values": ["1/0", "0", "0"]},
    "float-value.json": {"p": 3, "n": 1, "r": 1, "values": [1.5, "0", "0"]},
    "wrong-length.json": {"p": 3, "n": 1, "r": 1, "values": ["1", "2"]},
    "too-many-values.json": {"p": 3, "n": 1, "r": 1, "values": ["1", "2", "3", "4"]},
    "huge-header.json": {"p": 2, "n": 200000, "r": 200000, "values": ["1"]},
    "string-header.json": {"p": "3", "n": 1, "r": 1, "values": ["0", "0", "0"]},
    "float-header.json": {"p": 3.9, "n": 1, "r": 1, "values": ["0", "0", "0"]},
    "bool-header.json": {"p": 3, "n": True, "r": 1, "values": ["0", "0", "0"]},
    "string-values.json": {"p": 3, "n": 1, "r": 1, "values": "111"},
    "missing-key.json": {"p": 3, "n": 1},
    "list.json": [1, 2, 3],
    "decimal-value.json": {"p": 3, "n": 1, "r": 1, "values": ["0.5", "0", "0"]},
    "exponent-value.json": {"p": 3, "n": 1, "r": 1, "values": ["1e2", "0", "0"]},
    "underscore-value.json": {"p": 3, "n": 1, "r": 1, "values": ["1_0", "0", "0"]},
    "padded-value.json": {"p": 3, "n": 1, "r": 1, "values": [" 1 ", "0", "0"]},
    "plus-value.json": {"p": 3, "n": 1, "r": 1, "values": ["+1", "0", "0"]},
    "fullwidth-digit-value.json": {"p": 3, "n": 1, "r": 1, "values": ["\uff11", "0", "0"]},
    "huge-exponent-value.json": {"p": 3, "n": 1, "r": 1, "values": ["1e10000000", "0", "0"]},
}
# MZV_CAP while fuzzing: every FUZZ_CONFIGS entry fits, and the --in byte
# bound stays small enough for oversized.json to pass it
FUZZ_CAP = 64
FUZZ_TEXTS = {
    "bad.json": '{"p": 3,',
    "non-ascii.json": '{"p": 3, "values": ["\u00e9"]}',
    # json.dumps cannot write this literal; it loads as a float infinity
    "overflow-header.json": '{"p": 1e400, "n": 1, "r": 1, "values": ["0", "0", "0"]}',
    "null.json": "null",
    "string.json": '"values"',
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "deep-values.json": '{"p": 3, "n": 1, "r": 1, "values": ' + "[" * 100_000 + "]" * 100_000 + "}",
    # well formed but for its length: trailing spaces take it past the bound
    "oversized.json": '{"p": 3, "n": 1, "r": 1, "values": ["0", "0", "0"]}'
                      + " " * input_bound(FUZZ_CAP),
}
FUZZ_CONFIGS = [(p, n, r) for p in (2, 3, 5, 7) for n in range(3) for r in range(1, 4)
                if p ** (n * r) <= FUZZ_CAP]
# replacements and insertions: negative, non-numeric, empty, huge and stray flags
BAD_TOKENS = ["-1", "-7", "x", "", "1.5", "0", "1,,2", "99999999999", "2305843009213693951",
              "--bogus", "--perturb", "--seed", "--in", "--p", "--degree"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in FUZZ_FILES.items():
        (root / name).write_text(json.dumps(data), encoding="ascii")
    for name, text in FUZZ_TEXTS.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@st.composite
def fuzz_argv(draw, root):
    command = draw(st.sampled_from(
        ["kernel", "vanish", "certificate", "check-rhombus", "check-cosets", "moments", "report"]))
    p, n, r = draw(st.sampled_from(FUZZ_CONFIGS))
    config = ["--p", str(p), "--level", str(n), "--depth", str(r)]
    optional = lambda flag, values: [flag, str(draw(values))] if draw(st.booleans()) else []
    if command == "certificate":
        word = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
        if sum(word) % 2 == 0 and draw(st.booleans()):
            word[-1] += 1  # odd weight: a certificate exists
        argv = [command, ",".join(map(str, word)), "--p", str(p)]
    elif command in ("vanish", "check-cosets", "moments"):
        if draw(st.booleans()):
            name = draw(st.sampled_from([*FUZZ_FILES, *FUZZ_TEXTS, "absent.json"]))
            argv = [command, *(config if draw(st.booleans()) else []), "--in", str(root / name)]
        else:
            argv = [command, *config, "--seed", str(draw(st.integers(0, 20)))]
        argv += optional("--exp-cap", st.integers(0, 5))
        if command == "check-cosets" and draw(st.booleans()):
            argv.append("--perturb")
    elif command == "kernel":
        argv = [command, *config]
    else:
        argv = [command, *config, *optional("--seed", st.integers(0, 20))]
        if command == "report":  # --degree always given: the default 8 is slow at 4+ cells
            argv += ["--degree", str(draw(st.integers(r, 4)))]
            argv += optional("--exp-cap", st.integers(0, 5))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # half the cases stay well formed
        edit = draw(st.sampled_from(["replace", "drop", "insert"]))
        index = draw(st.integers(1, len(argv))) if len(argv) > 1 else 1
        if edit == "replace" and index < len(argv):
            argv[index] = draw(st.sampled_from(BAD_TOKENS))
        elif edit == "drop" and index < len(argv):
            del argv[index]
        else:
            argv.insert(index, draw(st.sampled_from(BAD_TOKENS)))
    return argv


def test_exit_code_contract_under_fuzzed_input(fuzz_dir, monkeypatch):
    monkeypatch.setenv("MZV_CAP", str(FUZZ_CAP))

    @settings(max_examples=150, deadline=None)
    @given(argv=fuzz_argv(fuzz_dir))
    def check(argv):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 1:
            report = json.loads(out.getvalue())
            assert report.get("all_pass", report.get("pass")) is False, argv
        elif code == 0:
            report = json.loads(out.getvalue())
            assert report.get("all_pass", report.get("pass", True)) is True, argv

    check()
