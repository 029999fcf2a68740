"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function under the name its caller
looks it up by (``pipeline.parse_records``, ``layout.stress_gradient``,
...), so the package itself is untouched; ``uninstall`` puts the originals
back. A span is ``[name, parent index, start, end, counts]``, kept in a
list in memory and written out by the caller when the run ends. Per-layer
metrics are derived from the spans afterwards: a layer's time is the summed
duration of its outermost spans, and a self time is a span's duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from time import perf_counter

STAGES = ("ingest", "report", "normalize", "net", "cluster", "layout", "export", "compare")


def _size(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _pairs(args, result) -> dict:
    return {"pairs": sum(len(s) * (len(s) - 1) // 2 for s in args[0].per_record.values())}


def _fw(args, result) -> dict:
    return {"relaxations": args[0].shape[0] ** 3}


def _solver(args, result) -> dict:
    return {"iterations": int(result.nit), "evals": int(result.nfev)}


def _kk(args, result) -> dict:
    return {"converged": int(result.converged)}


def targets(cowordmap) -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, count hook) for every traced function."""
    cli, pipeline, tables, compare, layout, kernels = (
        cowordmap.cli, cowordmap.pipeline, cowordmap.tables, cowordmap.compare,
        cowordmap.layout, cowordmap._kernels,
    )
    out = [(pipeline, f"stage_{s}", f"pipeline.{s}", None) for s in STAGES[:-1]]
    out += [
        (pipeline, "stage_compare_windows", "pipeline.compare", None),
        (cli, "run_pipeline", "pipeline.manifest", lambda a, r: _size(Path(a[0].out_dir) / "manifest.json")),
        (pipeline, "parse_records", "records.parse_records", lambda a, r: {"rows": len(r)}),
        (pipeline, "write_records", "records.write_records", lambda a, r: _size(a[1])),
        (pipeline, "class_distribution", "records.class_tables", None),
        (pipeline, "class_crosstab", "records.class_tables", None),
        (pipeline, "load_mapping", "vocabulary.load_mapping", None),
        (pipeline, "normalize", "vocabulary.normalize", lambda a, r: {"tokens": r.token_count}),
        (pipeline, "build_network", "network.build_network", _pairs),
        (pipeline, "threshold_filter", "network.threshold_filter", None),
        (pipeline, "make_network", "network.make_network", None),
        (compare, "network_metrics", "network.network_metrics", None),
        (kernels, "floyd_warshall", "kernels.floyd_warshall", _fw),
        (pipeline, "detect_clusters", "clusters.detect_clusters", lambda a, r: {"clusters": r.n_clusters}),
        (layout, "graph_distances", "layout.graph_distances", None),
        (layout, "kamada_kawai", "layout.kamada_kawai", _kk),
        (layout, "stress", "layout.objective", None),
        (layout, "stress_gradient", "layout.objective", None),
        (layout, "minimize", "layout.solver", _solver),
        (layout, "pack_components", "layout.pack_components", None),
        (pipeline, "write_pajek_net", "pajek.write_pajek_net", lambda a, r: _size(a[2])),
        (pipeline, "write_pajek_clu", "pajek.write_pajek_clu", lambda a, r: _size(a[1])),
        (pipeline, "read_pajek_net", "pajek.read_pajek_net", None),
        (tables, "write_csv", "tables.write", lambda a, r: _size(a[0])),
        (pipeline, "write_label_map_svg", "svgmap.write_label_map_svg", lambda a, r: _size(a[4])),
        (pipeline, "compare_networks", "compare.compare_networks", None),
    ]
    out += [(pipeline, name, "tables.write", None) for name in dir(pipeline)
            if name.startswith("write_") and name.endswith("_csv")]
    return out


class Tracer:
    def __init__(self, cowordmap):
        self._targets = targets(cowordmap)
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []
        self.op = ""  # the operation whose kamada_kawai calls are recorded next
        self.layouts: list[tuple] = []  # (op, network, params, LayoutMap) per kamada_kawai call
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            if name == "layout.kamada_kawai":
                self.layouts.append((self.op, args[0], args[1] if len(args) > 1 else kwargs.get("params"), result))
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# --- metrics from spans ----------------------------------------------------------


def _durations(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: time of its outermost spans, and its total self time."""
    outer: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for name, parent, start, end, _ in spans:
        dur = end - start
        if parent < 0 or spans[parent][0] != name:
            outer[name] = outer.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur
        if parent >= 0:
            pname = spans[parent][0]
            self_time[pname] = self_time.get(pname, 0.0) - dur
    return outer, self_time


def _count(spans: list[list], key: str, name: str | None = None) -> int:
    return sum(s[4].get(key, 0) for s in spans if s[4] and (name is None or s[0] == name))


def _n(spans: list[list], name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


TIMED = (
    "pipeline.ingest", "pipeline.report", "pipeline.normalize", "pipeline.net", "pipeline.cluster",
    "pipeline.layout", "pipeline.export", "pipeline.compare",
    "records.parse_records", "records.write_records", "records.class_tables",
    "vocabulary.load_mapping", "vocabulary.normalize",
    "network.build_network", "network.threshold_filter", "network.make_network", "network.network_metrics",
    "kernels.floyd_warshall", "clusters.detect_clusters",
    "layout.graph_distances", "layout.kamada_kawai", "layout.objective", "layout.pack_components",
    "pajek.write_pajek_net", "pajek.read_pajek_net", "tables.write", "svgmap.write_label_map_svg",
    "compare.compare_networks",
)


def layer_metrics(spans: list[list], pass_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    outer, self_time = _durations(spans)
    m: dict[str, tuple[float, str]] = {f"{name}_s": (outer.get(name, 0.0), "s") for name in TIMED}
    m["pipeline.manifest_s"] = (self_time.get("pipeline.manifest", 0.0), "s")
    m["cli.overhead_s"] = (self_time.get("cli.main", 0.0), "s")
    m["layout.solver_self_s"] = (self_time.get("layout.solver", 0.0), "s")
    m["pipeline.bytes_written"] = (_count(spans, "bytes"), "bytes")
    m["records.parse_records_calls"] = (_n(spans, "records.parse_records"), "count")
    m["records.rows_parsed"] = (_count(spans, "rows"), "count")
    m["vocabulary.normalize_calls"] = (_n(spans, "vocabulary.normalize"), "count")
    m["vocabulary.tokens"] = (_count(spans, "tokens"), "count")
    m["network.pairs_counted"] = (_count(spans, "pairs"), "count")
    m["kernels.floyd_warshall_calls"] = (_n(spans, "kernels.floyd_warshall"), "count")
    m["kernels.fw_relaxations"] = (_count(spans, "relaxations"), "count")
    m["clusters.clusters"] = (_count(spans, "clusters"), "count")
    iterations = _count(spans, "iterations")
    evals = _count(spans, "evals")
    m["layout.iterations"] = (iterations, "count")
    m["layout.objective_evals"] = (evals, "count")
    m["layout.evals_per_iteration"] = (evals / iterations if iterations else 0.0, "ratio")
    m["layout.ms_per_iteration"] = (1e3 * outer.get("layout.solver", 0.0) / iterations if iterations else 0.0, "ms")
    m["layout.components"] = (_n(spans, "layout.kamada_kawai"), "count")
    m["layout.components_converged"] = (_count(spans, "converged"), "count")
    stage_time = sum(
        end - start for name, parent, start, end, _ in spans
        if name.startswith("pipeline.") and (parent < 0 or not spans[parent][0].startswith("pipeline."))
    )
    m["trace.stage_coverage"] = (stage_time / pass_s if pass_s else 0.0, "share")
    return m
