"""Command-line checks with deterministic JSON reports.

Every command prints one JSON document (sorted keys, two-space indent, ASCII)
so that a fixed configuration and seed produce byte-identical output.  Exit
codes: 0 when every verdict passes, 1 when any check fails, 2 on usage or
input errors.  Each ``cmd_*`` returns its report's text chunks and its verdict;
:func:`main` alone writes the chunks, to stdout and with ``--out`` to a file,
and turns the verdict or an error into the exit code.  ``kernel``, ``moments``
and ``vanish`` stream their rows: each is formatted straight into the text
``json.dumps`` would give it and written as it is made, so neither the rows nor
the whole document are held.  ``moments`` holds no word list and at most
two levels of the table: ``measures.moment_table`` makes each word as its
row is made.  ``vanish`` holds its verdicts, because its ``all_pass`` field
sorts before its ``checks``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import nullcontext
from math import factorial, gcd, prod

from .euler import (
    MAX_CERTIFICATE_EXPONENT,
    _require_kernel_integer,
    _valuation_json,
    certificate_to_json_dict,
    coset_family,
    make_certificate,
    vanishing_sweep,
    verdict_family,
)
from .exact import INFINITY, _int_valuation, check_config
from .measures import (
    LevelMeasure,
    _measure_header,
    exponent_words,
    four_term,
    measure_from_json_dict,
    moment_table,
)
from .paths import rhombus_product
from .series import NCSeries, exp, from_measure, log
from .synth import (
    KernelBasis,
    check_size,
    four_term_kernel,
    random_kernel_measure,
    random_lambda_table,
    size_cap,
)

__all__ = ["main"]

DEGREE_CAP = 8
DEFAULT_EXPONENT_CAP = 7
MAX_SEED = 2**64 - 1
# Largest exponent-word list a sweep may enumerate; checked before any work.
MAX_EXPONENT_WORDS = 100_000
# Largest series term-count estimate `report` may exponentiate; (2, 2, 2) at
# degree 8 estimates 69 904 terms, (3, 2, 2) at degree 8 about 4.4e7.  As a
# whole CLI process (Python 3.11, 2 cores, spawn to exit, peak RSS from wait4,
# .pyc files in place, medians of 7), `report --seed 0` takes about 0.22 s and
# 15.4 MiB at (2, 2, 2) degree 8, and 0.60 s and 17.2 MiB at (5, 1, 1)
# degree 7 (97 655 terms, the costliest admitted case measured).
MAX_SERIES_TERMS = 100_000
# Bytes an `--in` file may read per cell of the cap, plus 4 KiB of header:
# parse_rational's longest value, "-n/d" quoted with two integers at Python's
# default 4 300-digit limit (8 604 bytes), and 64 of layout; 86.7 MB in all
# at the default cap.
MAX_INPUT_BYTES_PER_CELL = 8_668


def _check_word_count(r: int, cap: int, odd_only: bool) -> None:
    """Refuse an exponent cap whose length-r words (odd sum if ``odd_only``)
    are too many, or which exceeds the certificate limit that bounds the
    powers every cell is raised to; checked before any word is built.  The
    number comes first, but the cap first for odd words, each of which needs
    a certificate.  The number is counted up to the limit only."""
    above_limit = cap > MAX_CERTIFICATE_EXPONENT
    if not (odd_only and above_limit):
        count = 1
        for k in range(1, r + 1):
            count = count * (cap + k) // k  # C(cap + k, k)
            if count > MAX_EXPONENT_WORDS:
                raise ValueError(f"exponent cap {cap} gives more than {MAX_EXPONENT_WORDS} "
                                 f"words of length {r}")
    if above_limit:
        raise ValueError(f"exponent cap {cap} is above the certificate limit "
                         f"{MAX_CERTIFICATE_EXPONENT}")


def _exponent_words(r: int, cap: int, odd_only: bool) -> list[tuple[int, ...]]:
    """The length-r words with sum at most ``cap`` (odd sum if ``odd_only``),
    in lexicographic order, once :func:`_check_word_count` admits them."""
    _check_word_count(r, cap, odd_only)
    words = exponent_words(r, cap)
    return [word for word in words if sum(word) % 2] if odd_only else list(words)


def _header(command: str, p: int, n: int, r: int, **fields: object) -> dict:
    return {"command": command, "p": p, "n": n, "r": r, **fields}


def _document(report: dict) -> list[str]:
    return [json.dumps(report, indent=2, sort_keys=True) + "\n"]


def _with_rows(report: dict, key: str, rows: Iterable[str]) -> Iterator[str]:
    """``report`` with the list ``rows`` at ``key``, printed as :func:`_document`
    prints it, in chunks: each row is already the text that json.dumps gives
    an entry of that list, and is yielded as it comes."""
    opened = f'"{key}": ['
    head, _, tail = json.dumps({**report, key: []}, indent=2, sort_keys=True).partition(
        opened + "]")
    yield head + opened
    separator = "\n"
    for row in rows:
        yield separator
        yield row
        separator = ",\n"
    # an empty list stays "[]"
    yield ("]" if separator == "\n" else "\n  ]") + tail + "\n"


def _exponents_text(word: tuple[int, ...]) -> str:
    """The "exponents" field of a row, as json.dumps indents it in a list entry."""
    return '      "exponents": [\n        ' + ",\n        ".join(map(str, word)) + "\n      ],\n"


def _valuation_text(valuation: int | float) -> str:
    """A valuation as json.dumps writes its report form."""
    value = _valuation_json(valuation)
    return f'"{value}"' if type(value) is str else str(value)


def _load_measure(
    args: argparse.Namespace, words_of: Callable[[int], list[tuple[int, ...]] | None]
) -> tuple[LevelMeasure, dict, list[tuple[int, ...]] | None]:
    """Measure from --in, or a seeded kernel measure from the config flags,
    with ``words_of(depth)``: the exponent words, or None where it only
    guards their number.  Each check runs before the work it guards, in this
    order: the --in byte bound, before anything is parsed; the file's header;
    the config flags, each required without a file and matched against the
    header with one; the cell cap; the words' guard.  Only then are the
    file's values parsed or the seeded measure built."""
    config = given = args.p, args.level, args.depth
    if args.infile is not None:
        cap = size_cap()
        bound = cap * MAX_INPUT_BYTES_PER_CELL + 4096
        try:
            raw = bytearray()
            with open(args.infile, "rb") as handle:
                # 64 KiB at a time: read(bound + 1) allocates the whole bound
                # before it reads a byte
                while len(raw) <= bound and (chunk := handle.read(1 << 16)):
                    raw += chunk
            if len(raw) > bound:
                raise ValueError(f"{args.infile} is longer than {bound} bytes, the bound "
                                 f"for the cap of {cap} cells")
            # one stage at a time: the bytes go once decoded, the text once parsed
            text = raw.decode("ascii")
            del raw
            data = json.loads(text)
            del text
        except RecursionError:
            # json.loads recurses once per nesting level
            raise ValueError(f"{args.infile} is nested too deeply to read") from None
        except MemoryError:
            # a memory limit below what the bound admits: bad input, not a verdict
            raise ValueError(f"{args.infile} does not fit in memory: the bound for the cap "
                             f"of {cap} cells is {bound} bytes") from None
        config = _measure_header(data)[:3]
    for flag, got, expected in zip(("--p", "--level", "--depth"), given, config):
        if expected is None:
            raise ValueError(f"{flag} is required when no input file is given")
        if got is not None and got != expected:
            raise ValueError(f"{flag} {got} does not match the input file's {expected}")
    p, n, r = config
    check_size(p, n, r)
    words = words_of(r)
    if args.infile is None:
        return random_kernel_measure(p, n, r, seed=args.seed), {"seed": args.seed}, words
    return measure_from_json_dict(data), {"file": args.infile}, words


def _rhombus_matches(table: LevelMeasure) -> bool:
    """Whether the rhombus product equals the four-term layer of the table."""
    return rhombus_product(table) == from_measure(four_term(table), table.r)


def _kernel_rows(basis: KernelBasis) -> Iterator[str]:
    """The kernel report's "basis" entries as json.dumps indents them.

    Each vector is the line ``        "0",`` once per cell, with its nonzero
    entries dropped in; runs of zeros are sliced from one prepared block.  The
    last cell's line takes no comma, so each vector is one join.
    """
    p, n, r = basis.p, basis.n, basis.r
    zero_line = '        "0",\n'
    width = len(zero_line)
    last = p ** (n * r) - 1
    zeros = zero_line * last
    head = f'    {{\n      "n": {n},\n      "p": {p},\n      "r": {r},\n      "values": [\n'
    for vector in basis.vectors:
        pieces = [head]
        start = 0
        for column, value in vector.items():
            if column < last:
                pieces += (zeros[start:column * width], f'        "{value}",\n')
                start = (column + 1) * width
        pieces += (zeros[start:], f'        "{vector.get(last, 0)}"\n      ]\n    }}')
        yield "".join(pieces)


def cmd_kernel(args: argparse.Namespace) -> tuple[Iterable[str], bool]:
    basis = four_term_kernel(args.p, args.level, args.depth)
    report = _header("kernel", basis.p, basis.n, basis.r, dimension=basis.dimension)
    return _with_rows(report, "basis", _kernel_rows(basis)), True


def cmd_vanish(args: argparse.Namespace) -> tuple[Iterable[str], bool]:
    mu, source, words = _load_measure(args, lambda r: _exponent_words(r, args.exp_cap, True))
    verdicts = vanishing_sweep(mu, words)
    passed = verdict_family(verdicts).passed
    rows = (
        f'    {{\n{_exponents_text(word)}      "pass": {"true" if verdict.passed else "false"},\n'
        f'      "threshold": {verdict.threshold},\n'
        f'      "valuation": {_valuation_text(verdict.valuation)}\n    }}'
        for word, verdict in zip(words, verdicts)
    )
    report = _header("vanish", mu.p, mu.n, mu.r, source=source, exponent_cap=args.exp_cap,
                     all_pass=passed)
    return _with_rows(report, "checks", rows), passed


def cmd_certificate(args: argparse.Namespace) -> tuple[Iterable[str], bool]:
    check_config(args.p, 0, 1)  # a certificate has no level or depth; this checks p
    cert = make_certificate(args.exponents)
    return _document({"command": "certificate", "p": args.p,
                      **certificate_to_json_dict(cert, args.p)}), True


def cmd_check_rhombus(args: argparse.Namespace) -> tuple[Iterable[str], bool]:
    check_size(args.p, args.level, args.depth)
    table = random_lambda_table(args.p, args.level, args.depth, seed=args.seed)
    matched = _rhombus_matches(table)
    report = _header("check-rhombus", args.p, args.level, args.depth, seed=args.seed)
    return _document({**report, "pass": matched}), matched


def cmd_check_cosets(args: argparse.Namespace) -> tuple[Iterable[str], bool]:
    mu, source, words = _load_measure(args, lambda r: _exponent_words(r, args.exp_cap, False))
    if args.perturb:
        # one-cell edit at the all-ones point: for modulus > 2 this leaves the
        # four-term kernel, so some identity fails; at modulus 1 or 2 the
        # operator is 0 and every identity still holds
        mu = mu + LevelMeasure.point_mass(mu.p, mu.n, mu.r, (1,) * mu.r)
    else:
        _require_kernel_integer(mu)
    family = coset_family(mu, words)
    failures = [{"modulus_exponent": e, "base": list(base), "exponents": list(word),
                 "valuation": valuation, "threshold": mu.n, "pass": False}
                for e, base, word, valuation in family.failures]
    report = _header("check-cosets", mu.p, mu.n, mu.r, source=source,
                     exponent_cap=args.exp_cap, perturbed=args.perturb,
                     total_checks=family.total, worst_valuation=_valuation_json(family.worst),
                     failures=failures, all_pass=family.passed)
    return _document(report), family.passed


def _moment_rows(mu: LevelMeasure, cap: int) -> Iterator[str]:
    """The moments report's entries as json.dumps indents them, written from
    ints by one template for the depth: the moment a/b in lowest terms,
    lambda = a / (b * prod e_i!) with the factorials read from a table and
    reduced by one gcd (gcd(a, b) is 1), and the valuation v_p(a) - v_p(b)."""
    table = moment_table(mu, cap)
    factorials = [factorial(e) for e in range(cap + 1)]
    exponents = ",\n        ".join(["{}"] * (mu.r + 1))
    template = (f'    {{{{\n      "exponents": [\n        {exponents}\n      ],\n'
                '      "lambda": "{}",\n      "moment": "{}",\n      "valuation": {}\n    }}')
    p, zero_valuation = mu.p, _valuation_text(INFINITY)
    for word, value in table:
        a, b = value.numerator, value.denominator
        norm = b * prod(map(factorials.__getitem__, word))
        g = gcd(a, norm)
        yield template.format(
            *word,
            a // g if g == norm else f"{a // g}/{norm // g}",
            a if b == 1 else f"{a}/{b}",
            _int_valuation(a, p) - _int_valuation(b, p) if a else zero_valuation,
        )


def cmd_moments(args: argparse.Namespace) -> tuple[Iterable[str], bool]:
    mu, source, _ = _load_measure(args, lambda r: _check_word_count(r + 1, args.exp_cap, False))
    report = _header("moments", mu.p, mu.n, mu.r, source=source, exponent_cap=args.exp_cap)
    return _with_rows(report, "moments", _moment_rows(mu, args.exp_cap)), True


def cmd_report(args: argparse.Namespace) -> tuple[Iterable[str], bool]:
    check_size(args.p, args.level, args.depth)
    if args.degree > DEGREE_CAP:
        raise ValueError(f"--degree is capped at {DEGREE_CAP}")
    if args.degree < args.depth:
        raise ValueError(f"--degree {args.degree} is below --depth {args.depth}")
    p, n, r, seed = args.p, args.level, args.depth, args.seed
    # exp and log of 1 + (the depth-r layer) reach every product of up to
    # degree // r of its p^(n*r) words
    cells = p ** (n * r)
    terms = sum(cells**k for k in range(1, args.degree // r + 1))
    if terms > MAX_SERIES_TERMS:
        raise ValueError(f"--degree {args.degree} needs about {terms} series terms at "
                         f"{cells} cells, above the limit {MAX_SERIES_TERMS}")
    # the words' guards run before any work; the words are built after the
    # series round trip, so they are not held through it
    _check_word_count(r, args.exp_cap, odd_only=True)
    _check_word_count(r, args.exp_cap, odd_only=False)

    table = random_lambda_table(p, n, r, seed=seed)
    series = from_measure(table, args.degree)
    one = NCSeries.one(series.alphabet, args.degree)
    series_ok = exp(log(series)) == series and log(exp(series - one)) == series - one

    basis = four_term_kernel(p, n, r)
    mu = random_kernel_measure(p, n, r, seed=seed)
    coset_words = list(exponent_words(r, args.exp_cap))
    vanish_words = [word for word in coset_words if sum(word) % 2]
    families = {"vanishing": verdict_family(vanishing_sweep(mu, vanish_words)),
                "cosets": coset_family(mu, coset_words)}
    checks = {
        "series_round_trip": {"pass": series_ok},
        "rhombus_four_term": {"pass": _rhombus_matches(table)},
        "kernel": {"dimension": basis.dimension},
        **{name: {"total": family.total, "failures": len(family.failures),
                  "pass": family.passed} for name, family in families.items()},
    }
    all_pass = all(check.get("pass", True) for check in checks.values())
    report = {
        "command": "report",
        "config": {
            "p": p,
            "n": n,
            "r": r,
            "degree": args.degree,
            "exponent_cap": args.exp_cap,
            "seed": seed,
        },
        "checks": checks,
        "all_pass": all_pass,
    }
    return _document(report), all_pass


def _seed(raw: str) -> int:
    value = int(raw)
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _exponent_cap(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("exponent cap must be non-negative")
    return value


def _exponent_list(raw: str) -> tuple[int, ...]:
    try:
        word = tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad exponent list {raw!r}") from exc
    if not word or any(e < 0 for e in word):
        raise argparse.ArgumentTypeError("exponents must be non-negative integers")
    return word


def build_parser() -> argparse.ArgumentParser:
    # each shared flag is declared once, in a parent parser that the
    # subcommands list; the config flags come required or optional
    config = {}
    for required in (True, False):
        config[required] = argparse.ArgumentParser(add_help=False)
        for flag, help_text in (("--p", "prime base"), ("--level", "tower level n"),
                                ("--depth", "depth r")):
            config[required].add_argument(flag, type=int, required=required, help=help_text)
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="infile", metavar="FILE", help="measure JSON file")
    group.add_argument("--seed", type=_seed, help="seeded kernel measure")
    exp_cap = argparse.ArgumentParser(add_help=False)
    exp_cap.add_argument("--exp-cap", type=_exponent_cap, default=DEFAULT_EXPONENT_CAP,
                         help="largest exponent sum to sweep")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="FILE", help="also write the report to FILE")

    parser = argparse.ArgumentParser(
        prog="mzvkit",
        description="exact checks for depth-graded measures, kernels, and congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    measure_flags = [config[False], source, exp_cap, out]

    kernel = sub.add_parser("kernel", parents=[config[True], out],
                            help="four-term kernel basis and dimension")
    kernel.set_defaults(func=cmd_kernel)

    vanish = sub.add_parser("vanish", parents=measure_flags,
                            help="odd-moment vanishing congruences")
    vanish.set_defaults(func=cmd_vanish)

    certificate = sub.add_parser("certificate", parents=[out],
                                 help="four-term combination for a target")
    certificate.add_argument("exponents", type=_exponent_list,
                             help="comma-separated exponent word, e.g. 1,2,4")
    certificate.add_argument("--p", type=int, required=True, help="prime for the slack")
    certificate.set_defaults(func=cmd_certificate)

    rhombus = sub.add_parser("check-rhombus", parents=[config[True], out],
                             help="rhombus product against the four-term table")
    rhombus.add_argument("--seed", type=_seed, default=0, help="seed for the random table")
    rhombus.set_defaults(func=cmd_check_rhombus)

    cosets = sub.add_parser("check-cosets", parents=measure_flags,
                            help="signed coset moment identities")
    cosets.add_argument("--perturb", action="store_true",
                        help="apply a one-cell edit first (a check fails if p^n > 2)")
    cosets.set_defaults(func=cmd_check_cosets)

    moments = sub.add_parser("moments", parents=measure_flags,
                             help="moment and normalized-coefficient table")
    moments.set_defaults(func=cmd_moments)

    report = sub.add_parser("report", parents=[config[True], exp_cap, out],
                            help="aggregate of every check at one configuration")
    report.add_argument("--seed", type=_seed, default=0, help="seed for tables and measures")
    report.add_argument("--degree", type=int, default=DEGREE_CAP,
                        help="series truncation degree for the round-trip check")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command: write its report's chunks to stdout and, with
    ``--out``, the same bytes to FILE, which is opened before the first chunk
    is made.  Exit 0 or 1 by the verdict, and 2 on an input error."""
    args = build_parser().parse_args(argv)
    try:
        chunks, passed = args.func(args)
        with open(args.out, "w", encoding="ascii") if args.out else nullcontext() as copy:
            for chunk in chunks:
                sys.stdout.write(chunk)
                if copy is not None:
                    copy.write(chunk)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
