"""CSV table writers. UTF-8, comma-separated, LF newlines, minimal quoting.

The headers of the tables a later stage reads back are constants here, so
the writer and the reader (``pipeline._csv_rows``) share one spelling."""

from __future__ import annotations

import csv
from collections.abc import Iterable
from pathlib import Path

from .clusters import ClusterSummary, format_legend
from .compare import CompareReport
from .errors import artifact_writer
from .network import CoNetwork
from .vocabulary import CoverageStats

DESCRIPTORS_HEADER = ["record_id", "descriptor"]
VERTICES_HEADER = ["descriptor", "occurrences"]
EDGES_HEADER = ["keyword1", "keyword2", "weight"]


def write_csv(path: str | Path, header: list[str], rows) -> None:
    with artifact_writer(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_frequencies_csv(freq: list[tuple[str, int]], path: str | Path) -> None:
    write_csv(path, ["descriptor", "count"], freq)


def write_descriptors_csv(rows: Iterable[tuple[str, str]], path: str | Path) -> None:
    write_csv(path, DESCRIPTORS_HEADER, rows)


def write_distribution_csv(rows: list[tuple[str, int, int]], path: str | Path) -> None:
    write_csv(path, ["label", "count", "percent"], rows)


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
    write_csv(path, header, table)


def write_crosstab_csv(row_labels, col_labels, counts, path: str | Path) -> None:
    rows = [[label] + list(row) for label, row in zip(row_labels, counts)]
    write_csv(path, ["label", *col_labels], rows)


def write_coverage_csv(stats: CoverageStats, min_occ: int, path: str | Path) -> None:
    write_csv(
        path,
        [
            "min_occurrences",
            "descriptors_total",
            "occurrences_total",
            "descriptors_retained",
            "occurrences_retained",
            "percent_retained",
        ],
        [
            [
                min_occ,
                stats.n_descriptors_total,
                stats.n_occurrences_total,
                stats.n_descriptors_retained,
                stats.n_occurrences_retained,
                stats.percent_retained,
            ]
        ],
    )


def write_unmapped_csv(unmapped: dict[str, int], path: str | Path) -> None:
    rows = sorted(unmapped.items(), key=lambda kv: (-kv[1], kv[0]))
    write_csv(path, ["raw_keyword", "count"], rows)


def write_edges_csv(net: CoNetwork, path: str | Path) -> None:
    """Each edge once as (keyword1, keyword2, weight), labels ordered within
    the row and rows sorted ascending, the byte-stable edge-list form."""
    rows = []
    for i, j, c in net.edge_array.tolist():
        a, b = sorted((net.labels[i], net.labels[j]))
        rows.append((a, b, c))
    rows.sort()
    write_csv(path, EDGES_HEADER, rows)


def write_vertices_csv(net: CoNetwork, path: str | Path) -> None:
    weights = net.require_weights()
    write_csv(path, VERTICES_HEADER, zip(net.labels, weights))


def write_cluster_summary_csv(summaries: list[ClusterSummary], path: str | Path) -> None:
    legend = format_legend(summaries)
    rows = [
        (s.cluster_id, legend[k], s.size, "; ".join(label for label, _ in s.members))
        for k, s in enumerate(summaries)
    ]
    write_csv(path, ["cluster", "legend", "items", "members"], rows)


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
    write_csv(path, ["section", "item", "value_a", "value_b", "delta"], rows)
