"""CSV table writers, each a header and rows encoded by ``errors.csv_line``
(UTF-8, comma-separated, LF newlines, minimal quoting, as ``csv.writer``
gives) and written by ``errors.write_csv``, imported here under its own name.

Each table a later stage reads back (descriptors.csv, vertices.csv, edges.csv) has
its header, writer and reader here; a reader takes its rows from ``errors.csv_rows``
and rejects a row no writer gives with its file and line."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from operator import attrgetter
from pathlib import Path

import numpy as np

from .clusters import ClusterSummary, format_legend
from .compare import CompareReport
from .errors import InputError, csv_cell, csv_line, csv_rows, positive_count, write_csv
from .network import CoNetwork, make_network
from .pajek import LABEL_FORBIDS, representable
from .records import Record
from .vocabulary import CoverageStats, OccurrenceIndex

DESCRIPTORS_HEADER = ["record_id", "descriptor"]
VERTICES_HEADER = ["descriptor", "occurrences"]
EDGES_HEADER = ["keyword1", "keyword2", "weight"]


def write_frequencies_csv(freq: list[tuple[str, int]], path: str | Path) -> None:
    write_csv(path, ["descriptor", "count"], map(csv_line, freq))


def write_descriptors_csv(idx: OccurrenceIndex, path: str | Path) -> None:
    """A (record_id, descriptor) row per descriptor of each row of the table ``idx``, in its
    order; a record without descriptors has no row. Each vocabulary cell is encoded once
    and gathered by ``idx.ids``, and each record's rows are one piece."""
    gathered = np.array(list(map(csv_cell, idx.vocabulary)), object)[idx.ids].tolist()
    bounds = idx.indptr.tolist()
    heads = ((csv_cell(rid) + ",", a, b) for rid, a, b in zip(idx.records, bounds, bounds[1:]) if a < b)
    write_csv(path, DESCRIPTORS_HEADER, (head + ("\n" + head).join(gathered[a:b]) + "\n" for head, a, b in heads))


def _label(text: str) -> str:
    """A descriptor field of a read-back table: not blank, and fit for a map label (``pajek.representable``)."""
    if not text.strip() or not representable(text):
        raise ValueError(f"expected a descriptor that is not blank and holds no {LABEL_FORBIDS}, got {text!r}")
    return text


def read_descriptors_csv(path: Path, records_path: Path, records: Callable[[], Iterable[Record]]) -> OccurrenceIndex:
    """The table of descriptors.csv: one row per record of ``records()`` (those of ``records_path``),
    in their order, with each descriptor once however the rows are ordered. The rows are read, and
    each checked, before ``records`` is called; a record id ``records_path`` does not hold names its line."""
    rows = list(csv_rows(path, DESCRIPTORS_HEADER, str, _label))
    sets: dict[str, list[str]] = {rid: [] for rid in map(attrgetter("id"), records())}
    for line, (rid, descriptor) in rows:
        if rid not in sets:
            raise InputError(f"{path}:{line}: record {rid!r} is not in {records_path}")
        sets[rid].append(descriptor)
    return OccurrenceIndex.from_sets(sets)


def write_distribution_csv(rows: list[tuple[str, int, int]], path: str | Path) -> None:
    write_csv(path, ["label", "count", "percent"], map(csv_line, rows))


def write_grouped_distribution_csv(
    groups: list[tuple[str, list[tuple[str, int, int]]]],
    path: str | Path,
) -> None:
    """Label x group table: one count and percent column pair per group."""
    header = ["label"]
    for name, _ in groups:
        header += [f"{name}_count", f"{name}_percent"]
    labels = [row[0] for row in groups[0][1]] if groups else []
    by_group = [{row[0]: row for row in rows} for _, rows in groups]
    # a group may or may not have the "(unclassified)" row; show the union
    for _, rows in groups:
        for label, _, _ in rows:
            if label not in labels:
                labels.append(label)
    table = []
    for label in labels:
        line: list = [label]
        for lookup in by_group:
            _, count, percent = lookup.get(label, (label, 0, 0))
            line += [count, percent]
        table.append(line)
    write_csv(path, header, map(csv_line, table))


def write_crosstab_csv(row_labels, col_labels, counts, path: str | Path) -> None:
    rows = [[label] + list(row) for label, row in zip(row_labels, counts)]
    write_csv(path, ["label", *col_labels], map(csv_line, rows))


def write_coverage_csv(stats: CoverageStats, min_occ: int, path: str | Path) -> None:
    header = ["min_occurrences", "descriptors_total", "occurrences_total", "descriptors_retained",
              "occurrences_retained", "percent_retained"]
    row = [min_occ, stats.n_descriptors_total, stats.n_occurrences_total, stats.n_descriptors_retained,
           stats.n_occurrences_retained, stats.percent_retained]
    write_csv(path, header, map(csv_line, [row]))


def write_unmapped_csv(unmapped: dict[str, int], path: str | Path) -> None:
    rows = sorted(unmapped.items(), key=lambda kv: (-kv[1], kv[0]))
    write_csv(path, ["raw_keyword", "count"], map(csv_line, rows))


def write_edges_csv(net: CoNetwork, path: str | Path) -> None:
    """Each edge once as (keyword1, keyword2, weight), labels ordered within
    the row and rows sorted ascending, the byte-stable edge-list form."""
    rows = []
    for i, j, c in net.edge_array.tolist():
        a, b = sorted((net.labels[i], net.labels[j]))
        rows.append((a, b, c))
    rows.sort()
    write_csv(path, EDGES_HEADER, map(csv_line, rows))


def write_vertices_csv(net: CoNetwork, path: str | Path) -> None:
    weights = net.require_weights()
    write_csv(path, VERTICES_HEADER, map(csv_line, zip(net.labels, weights)))


def read_network_csv(vertices_path: Path, edges_path: Path) -> CoNetwork:
    """The network of vertices.csv and edges.csv. Each row that ``make_network`` would
    reject, or that no records can give, is rejected here with its file and line."""
    weights = {}
    for line, (label, count) in csv_rows(vertices_path, VERTICES_HEADER, _label, positive_count):
        if label in weights:
            raise InputError(f"{vertices_path}:{line}: vertex {label!r} is listed twice")
        weights[label] = count
    edges, seen = [], set()
    for line, (a, b, c) in csv_rows(edges_path, EDGES_HEADER, _label, _label, positive_count):
        for end in (a, b):
            if end not in weights:
                raise InputError(f"{edges_path}:{line}: edge end {end!r} is not a vertex of {vertices_path}")
        if a == b:
            raise InputError(f"{edges_path}:{line}: self-edge on {a!r}")
        if (a, b) in seen or (b, a) in seen:
            raise InputError(f"{edges_path}:{line}: edge {a!r}-{b!r} is listed twice")
        seen.add((a, b))
        if c > min(weights[a], weights[b]):
            raise InputError(f"{edges_path}:{line}: edge {a!r}-{b!r} counts {c}, more than an end's weight "
                             f"in {vertices_path}")
        edges.append((a, b, c))
    return make_network(list(weights.items()), edges)


def write_cluster_summary_csv(summaries: list[ClusterSummary], path: str | Path) -> None:
    legend = format_legend(summaries)
    rows = [
        (s.cluster_id, legend[k], s.size, "; ".join(label for label, _ in s.members))
        for k, s in enumerate(summaries)
    ]
    write_csv(path, ["cluster", "legend", "items", "members"], map(csv_line, rows))


def _fmt(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def write_compare_csv(report: CompareReport, path: str | Path) -> None:
    a, b = report.side_a, report.side_b
    rows: list[tuple] = [("sides", "label", a.label, b.label, "")]
    for metric in ("vertices", "edges", "density", "mean_degree_centrality", "mean_closeness", "components"):
        va, vb = getattr(a, metric), getattr(b, metric)
        rows.append(("summary", metric, _fmt(va), _fmt(vb), _fmt(vb - va)))
    for d in report.appeared:
        rows.append(("appeared", d, "", report.links_b.get(d, 0), ""))
    for d in report.vanished:
        rows.append(("vanished", d, report.links_a.get(d, 0), "", ""))
    for d in report.persisted:
        rows.append(
            ("persisted", d, report.links_a.get(d, 0), report.links_b.get(d, 0), report.link_delta(d))
        )
    write_csv(path, ["section", "item", "value_a", "value_b", "delta"], map(csv_line, rows))
