"""Run one pvanish CLI invocation with per-layer spans and print a JSON trace.

Usage: python3 perfbench/trace_child.py <pvanish argv...>
(with the package importable, e.g. PYTHONPATH=src).

Spans sit at the layer boundaries: every binding of a traced public function
inside the pvanish package (the defining module's global and each copy a
calling module imported, such as pvanish.vanishing.character_value) is
replaced by a timing wrapper.  The recursive memo functions (_char, _multi,
_strippable) are never wrapped: a wrapper there would run inside every
recursion step and the trace would measure a different program.

Spans are aggregated in memory per name into calls, total time and self time
(total minus the time covered by child spans), plus call counts per
(parent span, child span) edge.  After the run, cache_info() is read from
every memo table in the package.  The CLI's own stdout is captured and
returned inside the trace, so the caller can check it against the reference.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute)
SPANS = {
    "partitions.enumerate_partitions": ("pvanish.partitions", "enumerate_partitions"),
    "partitions.r_decompose": ("pvanish.partitions", "r_decompose"),
    "padic.is_p_singular": ("pvanish.padic", "is_p_singular"),
    "padic.is_p_adic_type": ("pvanish.padic", "is_p_adic_type"),
    "characters.character_value": ("pvanish.characters", "character_value"),
    "characters.multi_character_value": ("pvanish.characters", "multi_character_value"),
    "characters.induced_character_value": ("pvanish.characters", "induced_character_value"),
    "vanishing.singular_partitions": ("pvanish.vanishing", "singular_partitions"),
    "vanishing.nonvanishing_witness": ("pvanish.vanishing", "nonvanishing_witness"),
    "vanishing.structural_split": ("pvanish.vanishing", "structural_split"),
    "vanishing.audit_vanishing_structure": ("pvanish.vanishing", "audit_vanishing_structure"),
    "vanishing.list_p_vanishing": ("pvanish.vanishing", "list_p_vanishing"),
    "vanishing.check_conjectures": ("pvanish.vanishing", "check_conjectures"),
    "verify.equivalence": ("pvanish.verify", "equivalence_suite"),
    "verify.orthogonality": ("pvanish.verify", "orthogonality_suite"),
    "verify.degree-column": ("pvanish.verify", "degree_column_suite"),
    "verify.conjugation-twist": ("pvanish.verify", "conjugation_twist_suite"),
    "verify.split-classifier": ("pvanish.verify", "split_classifier_suite"),
    "verify.structure": ("pvanish.verify", "structure_suite"),
    "verify.factorization": ("pvanish.verify", "factorization_suite"),
    "verify.multichar": ("pvanish.verify", "multichar_suite"),
    "verify.conjectures": ("pvanish.verify", "conjecture_suite"),
}

WITNESS_EDGE = ("vanishing.nonvanishing_witness", "characters.character_value")
FILTER_EDGE = ("vanishing.singular_partitions", "padic.is_p_singular")


class Tracer:
    """In-memory span aggregation: per name [calls, total_ns, self_ns]."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self.stack: list[list] = []  # frames [name, child_ns]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack, edges, clock = self.stack, self.edges, time.perf_counter_ns

        def enter() -> list:
            if stack:
                edges[stack[-1][0], name] += 1
            frame = [name, 0]
            stack.append(frame)
            return frame

        def leave(frame: list, t0: int) -> None:
            dt = clock() - t0
            stack.pop()
            stat[1] += dt
            stat[2] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates: time each step
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, t0)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            stat[0] += 1
            frame = enter()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, t0)

        return wrapper

    def count_edge_delta(self, fn, edge: tuple[str, str], on_work):
        """Call on_work(result, n) when a call made n > 0 calls along edge."""
        edges = self.edges

        def inner(*args, **kwargs):
            before = edges[edge]
            result = fn(*args, **kwargs)
            delta = edges[edge] - before
            if delta:
                on_work(result, delta)
            return result

        return inner


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "pvanish"]


def install(tracer: Tracer) -> dict[str, int]:
    """Replace every package binding of each traced function; return bindings per span."""
    counters = tracer.counters

    def witness_found(result, labels: int) -> None:
        if result is not None:
            counters["nonvanishing_classes"] += 1

    def filtered(result, tested: int) -> None:
        counters["filter_tested"] += tested
        counters["filter_singular"] += len(result)

    hooks = {
        "vanishing.nonvanishing_witness": (WITNESS_EDGE, witness_found),
        "vanishing.singular_partitions": (FILTER_EDGE, filtered),
    }
    modules = _package_modules()
    bound: dict[str, int] = {}
    for name, (mod_name, attr) in SPANS.items():
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            bound[name] = 0
            continue
        target = original
        if name in hooks:
            edge, on_work = hooks[name]
            target = tracer.count_edge_delta(original, edge, on_work)
        wrapped = tracer.wrap(name, target)
        bound[name] = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    bound[name] += 1
    return bound


def memo_tables() -> dict:
    """Every memo table in the package, by module-relative name."""
    tables = {}
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__:
                tables[f"{mod.__name__.split('.', 1)[-1]}.{key}"] = value
    return tables


def main(argv: list[str]) -> int:
    import pvanish.cli as cli

    # collected before wrapping, which replaces the cached functions' bindings
    tables = memo_tables()
    tracer = Tracer()
    bound = install(tracer)
    traced_main = tracer.wrap("cli.main", cli.main)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = traced_main(argv)
    json.dump(
        {
            "exit": code,
            "stdout": buf.getvalue(),
            "pvanish_file": cli.__file__,
            "bindings": bound,
            "spans": tracer.stats,
            "edges": [[a, b, n] for (a, b), n in sorted(tracer.edges.items())],
            "counters": dict(tracer.counters),
            "memo": {
                name: {"hits": info.hits, "misses": info.misses, "size": info.currsize}
                for name, info in ((n, t.cache_info()) for n, t in tables.items())
            },
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
