"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line so a verbose run
doubles as a checklist.  Exact equalities carry zero tolerance, congruence
checks use the stated valuation thresholds, and the two timed criteria assert
their wall-clock budgets.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import product
from math import factorial

from mzvkit.cli import main
from mzvkit.euler import (
    coefficient_four_term_check,
    coset_four_term_check,
    coset_lambda_tables,
    depth_one_bernoulli_value,
    four_term_poly,
    four_term_poly_coeffs,
    make_certificate,
    vanishing_check,
)
from mzvkit.exact import bernoulli, binomial, padic_valuation
from mzvkit.measures import (
    Coset,
    LevelMeasure,
    four_term,
    four_term_is_zero,
)
from mzvkit.paths import rhombus_product
from mzvkit.series import Alphabet, NCSeries, exp, from_measure, log
from mzvkit.synth import (
    four_term_kernel,
    four_term_matrix,
    lift,
    random_kernel_measure,
    random_lambda_table,
)
from mzvkit.measures import project

CONFIG_GRID = [(p, n, r) for p in (2, 3, 5) for n in (1, 2) for r in (1, 2)]


def announce(number, ok, detail):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok


def exponent_words(r, cap, odd_only=False):
    return [
        w
        for w in product(range(cap + 1), repeat=r)
        if sum(w) <= cap and (not odd_only or sum(w) % 2)
    ]


def test_criterion_01_series_round_trips():
    alphabets = [Alphabet(2, 0), Alphabet(2, 1), Alphabet(3, 1)]
    rng = random.Random(11)
    start = time.perf_counter()
    count = 0
    for i in range(200):
        alphabet = alphabets[i % 3]
        letters = alphabet.letters()
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = tuple(
                rng.choice(letters) for _ in range(rng.randint(1, 8))
            )
            terms[word] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s = NCSeries(alphabet, 8, terms)
        one = NCSeries.one(alphabet, 8)
        ok = log(exp(s)) == s and exp(log(one + s)) == one + s
        if not ok:
            announce(1, False, f"round trip broke on sample {i}")
        count += 1
    elapsed = time.perf_counter() - start
    announce(
        1,
        count == 200 and elapsed < 30.0,
        f"exp/log round trips on {count} series in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_02_rhombus_matches_four_term_layer():
    failures = 0
    total = 0
    for k, (p, n, r) in enumerate(CONFIG_GRID):
        for s in range(100):
            table = random_lambda_table(p, n, r, seed=1000 * k + s)
            failures += rhombus_product(table) != from_measure(four_term(table), r)
            total += 1
    announce(2, failures == 0, f"rhombus product equals four-term layer on {total} tables")


def test_criterion_03_test_polynomial_ground_truth():
    ok = (
        four_term_poly(2, "even") == (Fraction(0), Fraction(-4))
        and four_term_poly(2, "odd") == (Fraction(-2),)
    )
    for a in range(1, 13):
        for parity in ("even", "odd"):
            ok = ok and four_term_poly_coeffs(a, parity) == four_term_poly(a, parity)
    announce(3, ok, "P_2 values match and the expansion agrees for a <= 12")


def test_criterion_04_vanishing_congruences():
    start = time.perf_counter()
    checks = 0
    failures = 0
    for p, n, r in CONFIG_GRID:
        words = exponent_words(r, 7, odd_only=True)
        basis = four_term_kernel(p, n, r)
        measures = basis.measures()
        measures += [random_kernel_measure(p, n, r, seed=s) for s in range(50)]
        for mu in measures:
            assert four_term_is_zero(mu) and mu.is_integer_valued()
            for word in words:
                verdict = vanishing_check(mu, word, validate=False)
                checks += 1
                failures += not verdict.passed
    elapsed = time.perf_counter() - start
    announce(
        4,
        failures == 0 and elapsed < 120.0,
        f"{checks} odd-moment congruences, {failures} failures, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_05_certificates_replay_exactly():
    ok = True
    count = 0
    for a in range(8):
        for prefix in ((1,), (2,)):
            if (sum(prefix) + a) % 2 == 0:
                continue
            cert = make_certificate((*prefix, a))
            expected = tuple(Fraction(0) for _ in range(a)) + (Fraction(1),)
            ok = ok and cert.replay() == expected
            count += 1
    announce(5, ok and count == 8, f"{count} certificates replay to their target monomials")


def test_criterion_06_coset_identities_and_perturbation():
    checks = 0
    failures = 0
    for p, n, r in CONFIG_GRID:
        words = exponent_words(r, 7)
        for seed in range(3):
            mu = random_kernel_measure(p, n, r, seed=seed)
            assert four_term_is_zero(mu) and mu.is_integer_valued()
            for modulus_exponent in sorted({1, n}):
                for base in product(range(p**modulus_exponent), repeat=r):
                    coset = Coset(base, modulus_exponent)
                    for word in words:
                        verdict = coset_four_term_check(mu, coset, word, validate=False)
                        checks += 1
                        failures += not verdict.passed

    # normalized-coefficient variant: dividing by the factorials costs their
    # p-adic valuation, so the bound drops by v_p(prod n_k!)
    for p, n, r in ((3, 1, 1), (2, 2, 1), (3, 1, 2)):
        mu = random_kernel_measure(p, n, r, seed=1)
        for word in exponent_words(r, 3):
            norm = 1
            for e in word:
                norm *= factorial(e)
            threshold = n - int(padic_valuation(Fraction(norm), p))
            tables = coset_lambda_tables(mu, word, 1)
            verdict = coefficient_four_term_check(tables, sum(word), p, threshold)
            checks += 1
            failures += not verdict.passed

    # a one-cell edit leaves the kernel, so the identity must now break
    broken = random_kernel_measure(3, 1, 1, seed=0) + LevelMeasure.point_mass(
        3, 1, 1, (1,)
    )
    broken_caught = any(
        not coset_four_term_check(broken, Coset((base,), 1), word, validate=False).passed
        for base in range(3)
        for word in exponent_words(1, 7)
    )
    tables = coset_lambda_tables(broken, (1,), 1)
    broken_caught = (
        broken_caught and not coefficient_four_term_check(tables, 1, 3, 1).passed
    )
    announce(
        6,
        failures == 0 and broken_caught,
        f"{checks} coset identities hold and the perturbed measure fails",
    )


def test_criterion_07_tower_coherence():
    ok = True
    vectors = 0
    for p in (2, 3):
        for r in (1, 2):
            for vector in four_term_kernel(p, 1, r).measures():
                lifted = lift(vector)
                ok = ok and project(lifted) == vector
                ok = ok and four_term_is_zero(lifted)
                vectors += 1
    announce(7, ok, f"project(lift(v)) == v and lifts stay in the kernel, {vectors} vectors")


def test_criterion_08_mod_two_operator_vanishes():
    ok = True
    for r in (1, 2, 3):
        ok = ok and all(not row for row in four_term_matrix(2, 1, r))
        for point in product(range(2), repeat=r):
            ok = ok and four_term(LevelMeasure.point_mass(2, 1, r, point)).is_zero()
        ok = ok and four_term_kernel(2, 1, r).dimension == 2**r
    announce(8, ok, "four-term operator is zero at p=2, n=1 with kernel dimension 2^r")


def test_criterion_09_bernoulli_and_depth_one():
    oracle = [Fraction(1)]
    for k in range(1, 31):
        acc = Fraction(0)
        for j in range(k):
            acc += binomial(k + 1, j) * oracle[j]
        oracle.append(-acc / (k + 1))
    ok = all(bernoulli(k) == oracle[k] for k in range(31))
    ok = ok and all(depth_one_bernoulli_value(1, n) == 0 for n in range(1, 11))
    announce(9, ok, "bernoulli matches the recurrence oracle and the scaling-1 values vanish")


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def test_criterion_10_cli_contract(tmp_path):
    argv = ["report", "--p", "3", "--level", "1", "--depth", "1", "--seed", "7",
            "--degree", "4"]
    first = run_cli(argv)
    second = run_cli(argv)
    deterministic = first == second
    pass_code = first[0] == 0 and json.loads(first[1])["all_pass"] is True

    fail_code, _ = run_cli(
        ["check-cosets", "--p", "3", "--level", "1", "--depth", "1",
         "--seed", "0", "--perturb"]
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="ascii")
    error_code, _ = run_cli(["vanish", "--in", str(bad)])

    module_run = subprocess.run(
        [sys.executable, "-m", "mzvkit", "certificate", "1,2", "--p", "3"],
        capture_output=True,
        text=True,
    )
    announce(
        10,
        deterministic and pass_code and fail_code == 1 and error_code == 2
        and module_run.returncode == 0,
        f"byte-identical reports, exit codes {first[0]}/{fail_code}/{error_code}",
    )
