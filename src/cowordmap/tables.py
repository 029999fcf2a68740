"""CSV table writers, each a header and rows encoded by ``errors.csv_line``
(UTF-8, comma-separated, LF newlines, minimal quoting, as ``csv.writer``
gives) and written by ``errors.write_csv``, imported here under its own name.

The headers of the tables a later stage reads back are constants here, so
the writer and the reader (``pipeline._csv_rows``) share one spelling."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .clusters import ClusterSummary, format_legend
from .compare import CompareReport
from .errors import csv_cell, csv_line, write_csv
from .network import CoNetwork
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
