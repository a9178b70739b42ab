"""In-memory span tracer for the crcodes benchmark.

`Tracer.install()` replaces each traced crcodes function, in every crcodes
module namespace that binds it, with a wrapper that records one span
(name, start, end, parent).  Callers look functions up through their own
module's globals (``crcodes.search.analyze_code``, ``crcodes.cli.analyze_code``,
...), so patching every binding catches every call.  Per-vertex helpers such
as ``neighbors`` and ``word_add`` are deliberately not traced: they run
millions of times and the wrapper would swamp what it measures.

Spans stay in memory; `write_spans` dumps them when the run ends.  Self time
is a span's duration minus the durations of its direct children (calls are
synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (defining module, function, span name).  The span name is "<layer>.<what>".
TRACED = (
    ("search", "run_census", "search.census"),
    ("search", "enumerate_linear_codes", "search.enumerate"),
    ("search", "build_record", "search.build_record"),
    ("hamming_space", "code_from_parity_check", "hamming_space.code_from_parity_check"),
    ("hamming_space", "minimum_distance", "hamming_space.minimum_distance"),
    ("hamming_space", "neighbor_table", "hamming_space.neighbor_table"),
    ("algebra", "nullspace_basis", "algebra.nullspace_basis"),
    ("cr_analysis", "analyze_code", "cr_analysis.analyze_code"),
    ("cr_analysis", "distance_partition", "cr_analysis.distance_partition"),
    ("cr_analysis", "certify_completely_regular", "cr_analysis.equitability"),
    ("cr_analysis", "is_reduced", "cr_analysis.is_reduced"),
    ("cr_analysis", "code_spectrum", "cr_analysis.code_spectrum"),
    ("partitions_quotients", "coset_partition", "partitions_quotients.coset_partition"),
    ("partitions_quotients", "certify_cr_partition",
     "partitions_quotients.certify_cr_partition"),
    ("partitions_quotients", "coset_graph_by_syndrome", "partitions_quotients.coset_graph"),
    ("partitions_quotients", "certify_distance_regular",
     "partitions_quotients.drg_certificate"),
    ("partitions_quotients", "quotient_graph", "partitions_quotients.quotient_graph"),
    ("classify", "classify_quotient", "classify.classify_quotient"),
    ("classify", "graph_isomorphic", "classify.graph_isomorphic"),
    ("classify", "clique_bound_checks", "classify.clique_bound_checks"),
    ("classify", "classify_arithmetic_forms", "classify.arithmetic_forms"),
    ("classify", "decompose_product", "classify.decompose_product"),
    ("codespec", "parse_codespec", "codespec.parse"),
    ("cli", "main", "cli.main"),
)

# Functions that return a generator: each next() is timed as its own span, so
# the consumer's work between items is not charged to the generator.
GENERATORS = {"search.enumerate"}


# Counters bumped around a traced call: span name -> ((counter, amount), ...),
# where amount maps the call's positional arguments (BEFORE) or its result
# (AFTER) to an integer.
BEFORE = {
    "cr_analysis.equitability":
        (("cr_analysis.vertices_scanned", lambda args: args[0].ambient.size),),
    "partitions_quotients.drg_certificate":
        (("partitions_quotients.drg_bfs_runs", lambda args: args[0].n),),
}
AFTER = {
    "hamming_space.code_from_parity_check":
        (("hamming_space.members_materialized", lambda code: code.size),),
    "cr_analysis.analyze_code":
        (("cr_analysis.cr_verdicts", lambda analysis: int(analysis.cr)),),
    "search.census":
        (("search.candidates", lambda summary: summary["enumerated_subspaces"]),
         ("search.records", lambda summary: summary["recorded"])),
}


class Tracer:
    """Records spans as parallel lists; index order is span start order."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A wrapper around fn that records a span per call."""
        counts = self.counts
        before = BEFORE.get(name, ())
        after = AFTER.get(name, ())

        if name in GENERATORS:
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for counter, amount in before:
                counts[counter] += amount(args)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            for counter, amount in after:
                counts[counter] += amount(result)
            return result
        return traced

    def install(self) -> None:
        """Patch every binding of each traced function in the crcodes package;
        its modules must already be imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "crcodes" or key.startswith("crcodes."))]
        for module_name, attr, span in TRACED:
            original = getattr(sys.modules[f"crcodes.{module_name}"], attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def totals(self) -> "SpanTotals":
        return span_totals(self.names, self.starts, self.ends, self.parents)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w") as stream:
            stream.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                stream.write(f"{i}\t{self.parents[i]}\t{name}\t"
                             f"{self.starts[i]!r}\t{self.ends[i]!r}\n")


class SpanTotals:
    """Per-name aggregates of a span list."""

    def __init__(self):
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.durations: defaultdict[str, list[float]] = defaultdict(list)


def span_totals(names, starts, ends, parents) -> SpanTotals:
    """Aggregate spans by name.

    * ``inclusive[name]`` sums the spans of that name not nested inside
      another span of the same name, so recursion is not counted twice;
    * ``self_time[name]`` sums duration minus direct-children durations;
    * ``durations[name]`` lists every span's duration, for percentiles.

    Parents must precede their children (true for start-ordered spans).
    """
    count = len(names)
    child_time = [0.0] * count
    for i in range(count):
        p = parents[i]
        if p >= 0:
            child_time[p] += ends[i] - starts[i]
    out = SpanTotals()
    for i in range(count):
        name = names[i]
        duration = ends[i] - starts[i]
        out.calls[name] += 1
        out.durations[name].append(duration)
        out.self_time[name] += duration - child_time[i]
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            out.inclusive[name] += duration
    return out


# Spans whose individual durations are kept when totals are dumped, for
# percentiles; every other span keeps only its sums.
PERCENTILE_SPANS = ("search.build_record",)


def dump(totals: SpanTotals, counts) -> dict:
    """A JSON-ready form of one process's totals and counters."""
    return {"inclusive": dict(totals.inclusive), "self_time": dict(totals.self_time),
            "calls": dict(totals.calls), "counts": dict(counts),
            "durations": {name: totals.durations[name] for name in PERCENTILE_SPANS
                          if name in totals.durations}}


def merge(dumps) -> tuple[SpanTotals, defaultdict]:
    """Totals and counters of several processes, added up."""
    totals, counts = SpanTotals(), defaultdict(int)
    for part in dumps:
        for field in ("inclusive", "self_time", "calls"):
            into = getattr(totals, field)
            for name, value in part[field].items():
                into[name] += value
        for name, value in part["counts"].items():
            counts[name] += value
        for name, values in part["durations"].items():
            totals.durations[name].extend(values)
    return totals, counts


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def layer_metrics(totals: SpanTotals, counts) -> dict[str, float]:
    """The per-layer metrics of one traced run (times in s unless named _ms)."""
    inc, own = totals.inclusive, totals.self_time
    build = totals.durations["search.build_record"]
    candidates = counts["search.candidates"]
    analyzed = totals.calls["cr_analysis.analyze_code"]
    return {
        "search.enumerate_self_s": own["search.enumerate"],
        "search.candidates": candidates,
        "search.yield_ratio": counts["search.records"] / candidates if candidates else 0.0,
        "search.build_record_self_s": own["search.build_record"],
        "search.census_self_s": own["search.census"],
        "search.build_record_p50_ms": percentile(build, 0.50) * 1e3,
        "search.build_record_p99_ms": percentile(build, 0.99) * 1e3,
        "hamming_space.code_from_parity_check_s": inc["hamming_space.code_from_parity_check"],
        "hamming_space.members_materialized": counts["hamming_space.members_materialized"],
        "hamming_space.minimum_distance_s": inc["hamming_space.minimum_distance"],
        "hamming_space.neighbor_table_s": inc["hamming_space.neighbor_table"],
        "algebra.nullspace_basis_s": inc["algebra.nullspace_basis"],
        "cr_analysis.analyze_code_s": inc["cr_analysis.analyze_code"],
        "cr_analysis.distance_partition_s": inc["cr_analysis.distance_partition"],
        "cr_analysis.equitability_self_s": own["cr_analysis.equitability"],
        "cr_analysis.is_reduced_s": inc["cr_analysis.is_reduced"],
        "cr_analysis.code_spectrum_s": inc["cr_analysis.code_spectrum"],
        "cr_analysis.vertices_scanned": counts["cr_analysis.vertices_scanned"],
        "cr_analysis.cr_ratio": counts["cr_analysis.cr_verdicts"] / analyzed if analyzed else 0.0,
        "partitions_quotients.coset_partition_s": inc["partitions_quotients.coset_partition"],
        "partitions_quotients.certify_cr_partition_s":
            inc["partitions_quotients.certify_cr_partition"],
        "partitions_quotients.coset_graph_s": inc["partitions_quotients.coset_graph"],
        "partitions_quotients.drg_certificate_s": inc["partitions_quotients.drg_certificate"],
        "partitions_quotients.drg_bfs_runs": counts["partitions_quotients.drg_bfs_runs"],
        "partitions_quotients.quotient_graph_s": inc["partitions_quotients.quotient_graph"],
        "classify.classify_quotient_self_s": own["classify.classify_quotient"],
        "classify.graph_isomorphic_s": inc["classify.graph_isomorphic"],
        "classify.graph_isomorphic_calls": totals.calls["classify.graph_isomorphic"],
        "classify.clique_bound_checks_s": inc["classify.clique_bound_checks"],
        "classify.arithmetic_forms_s": inc["classify.arithmetic_forms"],
        "classify.decompose_product_s": inc["classify.decompose_product"],
        "codespec.parse_s": inc["codespec.parse"],
        "cli.main_self_s": own["cli.main"],
    }
