"""Span tracing of one mzvkit CLI invocation, applied from outside the program.

Run as ``python tracer.py SPAN_FILE ARG...``: it imports ``mzvkit.cli``, wraps
each function in ``TRACED`` in every mzvkit module namespace that binds it
(``cli``, ``euler`` and ``synth`` import by name, so patching only the
defining module would miss their calls) and ``NCSeries.__mul__`` on the class,
runs ``cli.main(ARG...)``, and writes the spans once, on exit.

A span is (name, start, end, parent, note): ``parent`` is the index of the
enclosing traced span or -1, and ``note`` is taken from the call's result:
(p, n, r, dimension) for a kernel, the term count for a series, else 0.
``summarize`` turns the spans of many invocations into per-layer metrics.
"""

from __future__ import annotations

import marshal
import sys
from time import perf_counter

# (module, function) pairs, spelled as in the metric names
TRACED = (
    ("cli", "main"),
    ("synth", "four_term_kernel"),
    ("synth", "random_kernel_measure"),
    ("measures", "coset_moment"),
    ("measures", "moment"),
    ("measures", "four_term_is_zero"),
    ("measures", "measure_from_json_dict"),
    ("measures", "measure_to_json_dict"),
    ("euler", "coset_four_term_check"),
    ("euler", "vanishing_check"),
    ("euler", "make_certificate"),
    ("series", "exp"),
    ("series", "log"),
    ("series", "mul"),  # NCSeries.__mul__
    ("paths", "rhombus_product"),
    ("exact", "padic_valuation"),
    ("exact", "format_rational"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TRACED)


def _note(name: str, result: object) -> object:
    """The count a span carries: kernel config and dimension, or series terms."""
    if name == "synth.four_term_kernel":
        return (result.p, result.n, result.r, result.dimension)
    if name in ("series.mul", "series.exp", "series.log"):
        return result.term_count()
    return 0


def install(spans: list) -> None:
    """Wrap every traced function; spans are appended to ``spans``."""
    import mzvkit.cli  # noqa: F401  (imports every mzvkit module)
    from mzvkit.series import NCSeries

    modules = {name: module for name, module in sys.modules.items() if name.startswith("mzvkit.")}
    stack = [-1]

    def wrap(name_id: int, function):
        name = NAMES[name_id]

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                note = 0 if result is None else _note(name, result)
                spans[index] = (name_id, start, end, parent, note)

        return traced

    for name_id, (module_name, function_name) in enumerate(TRACED):
        if (module_name, function_name) == ("series", "mul"):
            NCSeries.__mul__ = wrap(name_id, NCSeries.__mul__)
            continue
        original = getattr(modules[f"mzvkit.{module_name}"], function_name)
        wrapper = wrap(name_id, original)
        for module in modules.values():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)


def summarize(invocations: list[list[tuple]]) -> dict[str, float]:
    """Per-layer self time, calls and counts over the spans of many invocations.

    Self time is a span's duration minus the time covered by its direct
    children; spans nest, because every traced call runs on one thread.
    """
    self_s = dict.fromkeys(NAMES, 0.0)
    calls = dict.fromkeys(NAMES, 0)
    kernel_cells = kernel_dim = terms_out = terms_peak = 0
    root_s = 0.0
    for spans in invocations:
        child = [0.0] * len(spans)
        for name_id, start, end, parent, note in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                root_s += end - start
        kernels = set()
        for (name_id, start, end, parent, note), covered in zip(spans, child):
            name = NAMES[name_id]
            self_s[name] += end - start - covered
            calls[name] += 1
            if name == "synth.four_term_kernel" and note:
                kernels.add(note)
            elif name == "series.mul":
                terms_out += note
            if name in ("series.mul", "series.exp", "series.log"):
                terms_peak = max(terms_peak, note)
        # the kernel is cached per configuration, so count each one once
        kernel_cells += sum(p ** (n * r) for p, n, r, _ in kernels)
        kernel_dim += sum(dim for _, _, _, dim in kernels)
    metrics: dict[str, float] = {}
    for name in NAMES:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    checks = calls["euler.coset_four_term_check"]
    metrics.update({
        "synth.kernel_cells": kernel_cells,
        "synth.kernel_dim": kernel_dim,
        "series.mul.terms_out": terms_out,
        "series.terms_peak": terms_peak,
        "euler.coset_moment_calls_per_check": calls["measures.coset_moment"] / checks if checks else 0.0,
        "trace.root_s": root_s,
    })
    return metrics


def read_spans(path: str) -> list[tuple]:
    with open(path, "rb") as handle:
        return marshal.load(handle)


def main(argv: list[str]) -> int:
    span_file, cli_args = argv[0], argv[1:]
    spans: list = []
    install(spans)
    import mzvkit.cli

    try:
        code = mzvkit.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(span_file, "wb") as handle:
        marshal.dump(spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
