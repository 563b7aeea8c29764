"""Spans around calls into toughlab's modules, recorded from outside the package.

``Tracer.install`` rebinds module-level names in the benchmark process only:
the names that ``toughlab.sweep``, ``toughlab.cli``, ``toughlab.extremal`` and
``toughlab.spectra`` import from other modules, plus the spectra functions
that ``spectral_summary`` reaches through its own module globals.  Each
wrapped call records a span ``[name, start_ns, end_ns, parent, hot_ns]``,
where ``parent`` indexes the enclosing span (-1 for none).  Calls made
thousands of times per graph are not spans: ``mixing_gap`` is counted and its
time summed into the calling span's ``hot_ns``; ``volume`` and
``edge_boundary`` are only counted, so their time stays in ``mixing_gap``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
from collections import Counter
from time import perf_counter_ns

# module -> names it binds that become spans
SPANNED = {
    "sweep": ("parse_graph6", "is_connected", "is_complete", "spectral_summary", "toughness",
              "independence_number", "detect_join_form", "toughness_lower_terms",
              "laplacian_toughness_bounds", "regular_toughness_bounds",
              "algebraic_connectivity_cap", "independence_upper_bounds",
              "semiregular_equality_check", "evaluate_graph"),
    "cli": ("sweep", "parse_graph6", "toughness", "independence_number", "vertex_connectivity"),
    "extremal": ("is_connected", "is_complete", "degree_profile", "induced_subgraph",
                 "laplacian_spectrum"),
    "spectra": ("symmetric_eigenvalues", "degree_profile"),
}
# counted, and timed into the caller's hot_ns
TIMED_COUNTS = {"sweep": ("mixing_gap", "mixing_gap_single")}
# counted only
COUNTED = {
    "bounds": ("volume", "edge_boundary"),
    "spectra": ("adjacency_spectrum", "laplacian_spectrum", "normalized_laplacian_spectrum"),
}

LAYERS = ("formats", "graphs", "spectra", "invariants", "bounds", "extremal", "sweep", "cli")
CLI_WORK = {"sweep.sweep", "invariants.toughness", "invariants.independence_number",
            "invariants.vertex_connectivity"}


def qualified(fn) -> str:
    """``layer.function`` for a toughlab function, e.g. ``formats.parse_graph6``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._calls: dict[str, itertools.count] = {}
        self._hot: dict[str, list[int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
        return wrapper

    # The two hot-call wrappers below run thousands of times per graph, so
    # they take positional arguments only and count with itertools.count,
    # which costs less than a dict update; ``counts`` reads each by next().

    def _timed_count(self, name: str, fn):
        spans, stack = self.spans, self.stack
        calls, total = self._counter(name), self._hot.setdefault(name, [0])

        def wrapper(*args):
            start = perf_counter_ns()
            result = fn(*args)
            took = perf_counter_ns() - start
            next(calls)
            total[0] += took
            if stack:
                spans[stack[-1]][4] += took
            return result
        return wrapper

    def _counted(self, name: str, fn):
        calls = self._counter(name)

        def wrapper(*args):
            next(calls)
            return fn(*args)
        return wrapper

    def _counter(self, name: str) -> itertools.count:
        return self._calls.setdefault(name, itertools.count())

    def install(self, package) -> list[str]:
        """Wrap every listed name; return the ``module.name`` entries not found."""
        missing = []
        for table, make in ((SPANNED, self.spanned), (TIMED_COUNTS, self._timed_count),
                            (COUNTED, self._counted)):
            for module_name, names in table.items():
                # the package re-exports functions named like its modules (sweep)
                module = importlib.import_module(f"{package.__name__}.{module_name}")
                for attr in names:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        missing.append(f"{module_name}.{attr}")
                        continue
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, make(qualified(fn), fn))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        """Write spans, call counts and hot-call nanoseconds; ends the trace."""
        counts = {name: next(calls) for name, calls in self._calls.items()}
        hot_ns = {name: total[0] for name, total in self._hot.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": counts, "hot_ns": hot_ns}, fh)


def layer_metrics(trace: dict, wall_s: float, graphs: int) -> dict[str, float]:
    """Per-layer numbers from a dumped trace of ``graphs`` graphs taking ``wall_s``.

    ``.us`` is the median span duration, ``.share`` self time over the traced
    wall time, ``.calls_per_graph`` calls (spans plus counted calls) over
    graphs.  A name with no calls reports 0.
    """
    spans, counts, hot = trace["spans"], Counter(trace["counts"]), Counter(trace["hot_ns"])
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations: dict[str, list[int]] = {}
    selfs: dict[str, list[int]] = {}
    for (name, start, end, _, hot_ns), children in zip(spans, child_ns):
        durations.setdefault(name, []).append(end - start)
        selfs.setdefault(name, []).append(end - start - children - hot_ns)
    wall_ns = wall_s * 1e9
    layer_self = Counter()
    for name, values in selfs.items():
        layer_self[name.split(".")[0]] += sum(values)
    for name, total in hot.items():
        layer_self[name.split(".")[0]] += total

    def us(name: str) -> float:
        return statistics.median(durations[name]) / 1e3 if name in durations else 0.0

    def share(name: str) -> float:
        return sum(selfs.get(name, ())) / wall_ns

    def per_graph(name: str) -> float:
        return (len(durations.get(name, ())) + counts[name]) / graphs

    cli_work = sum(end - start for name, start, end, parent, _ in spans
                   if name in CLI_WORK and parent >= 0 and spans[parent][0] == "cli.main")
    out = {f"{layer}.share": layer_self[layer] / wall_ns for layer in LAYERS}
    out.update({
        "formats.parse_graph6.us": us("formats.parse_graph6"),
        "formats.parse_graph6.share": share("formats.parse_graph6"),
        "graphs.is_connected.us": us("graphs.is_connected"),
        "graphs.volume.calls_per_graph": per_graph("graphs.volume"),
        "graphs.edge_boundary.calls_per_graph": per_graph("graphs.edge_boundary"),
        "spectra.spectral_summary.us": us("spectra.spectral_summary"),
        "spectra.spectral_summary.share": share("spectra.spectral_summary"),
        "spectra.symmetric_eigenvalues.us": us("spectra.symmetric_eigenvalues"),
        "spectra.symmetric_eigenvalues.calls_per_graph": per_graph("spectra.symmetric_eigenvalues"),
        "spectra.laplacian_spectrum.calls_per_graph": per_graph("spectra.laplacian_spectrum"),
        "bounds.mixing_gap.calls_per_graph": per_graph("bounds.mixing_gap"),
        "extremal.detect_join_form.us": us("extremal.detect_join_form"),
        "extremal.detect_join_form.share": share("extremal.detect_join_form"),
        "sweep.evaluate_graph.us": us("sweep.evaluate_graph"),
        "sweep.evaluate_graph.self_us": (statistics.median(selfs["sweep.evaluate_graph"]) / 1e3
                                         if "sweep.evaluate_graph" in selfs else 0.0),
        "cli.overhead.share": (sum(durations.get("cli.main", ())) - cli_work) / wall_ns,
    })
    for fn in ("toughness", "independence_number", "vertex_connectivity"):
        out[f"invariants.{fn}.us"] = us(f"invariants.{fn}")
        out[f"invariants.{fn}.share"] = share(f"invariants.{fn}")
    return out
